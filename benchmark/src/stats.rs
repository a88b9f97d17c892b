//! The statistics the benchmark's repeatability rests on: short equal
//! rounds, per-round percentiles, the quiet quartile over rounds, and
//! deadline accounting that charges failed frames as late.

use std::ops::Range;

/// Latency charged to a frame that was never sent, never answered or
/// answered wrongly: the reply timeout, so a failure can only worsen a
/// percentile.
pub const FAILED_MS: f64 = 1_000.0;

/// What became of one frame the generator was due to send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered with the reference verdict after this many milliseconds.
    Ok(f64),
    /// Answered, but the verdict differs from the interpreter's.
    Mismatch,
    /// No verdict within the reply timeout.
    Unanswered,
    /// The program under test refused the frame.
    Unsent,
}

impl Outcome {
    /// Latency in ms, failures charged [`FAILED_MS`].
    pub fn latency_ms(self) -> f64 {
        match self {
            Outcome::Ok(ms) => ms,
            _ => FAILED_MS,
        }
    }

    pub fn is_ok(self) -> bool {
        matches!(self, Outcome::Ok(_))
    }
}

/// A round holds at least this many operations, so its p90 has a few
/// samples beyond it.
pub const MIN_OPS_PER_ROUND: usize = 20;

/// A run is cut into at most this many rounds: an eighth of a second each
/// in a 15 s run, about as long as a burst of somebody else's work on a
/// shared host.
pub const MAX_ROUNDS: usize = 120;

/// How many rounds a stretch of `ops` operations is cut into.
pub fn rounds_for(ops: usize) -> usize {
    (ops / MIN_OPS_PER_ROUND).clamp(1, MAX_ROUNDS)
}

/// Splits `timed` operations into `rounds` ranges of equal count. The
/// remainder of `timed / rounds` is left out at the end so every round holds
/// the same number of samples. (The warm-up is a stretch of its own and never
/// reaches this function.)
pub fn split_rounds(timed: usize, rounds: usize) -> Vec<Range<usize>> {
    assert!(rounds > 0, "at least one round");
    let per = timed / rounds;
    (0..rounds).map(|r| r * per..(r + 1) * per).collect()
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The value a share `q` (0..=1) of the sample lies below, interpolated
/// between the two nearest ranks; `quantile(v, 0.5)` is the median.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (at - below as f64)
}

/// Median with the two middle values averaged for an even count.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One round's statistics.
#[derive(Debug, Clone, Copy)]
pub struct RoundStat {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub per_s: f64,
}

/// Statistics of one round: latency percentiles over every frame in it
/// (failures charged [`FAILED_MS`]) and correct verdicts per second of the
/// round's wall time.
pub fn round_stat(outcomes: &[Outcome], wall_s: f64) -> RoundStat {
    let lat: Vec<f64> = outcomes.iter().map(|o| o.latency_ms()).collect();
    let ok = outcomes.iter().filter(|o| o.is_ok()).count();
    RoundStat {
        p50_ms: percentile(&lat, 0.50),
        p90_ms: percentile(&lat, 0.90),
        per_s: ok as f64 / wall_s,
    }
}

/// The reported figure: the quiet quartile over rounds of each per-round
/// statistic — the value a quarter of the rounds were better than (lower
/// latency, higher rate). Somebody else's work on a shared host only ever
/// makes a round worse, so the better rounds are the ones that measured the
/// program; up to three rounds in four may be disturbed before the figure
/// moves, while a change to the program moves every round.
pub fn quiet_quartile_of_rounds(rounds: &[RoundStat]) -> RoundStat {
    let pick = |f: fn(&RoundStat) -> f64, q| quantile(&rounds.iter().map(f).collect::<Vec<_>>(), q);
    RoundStat {
        p50_ms: pick(|r| r.p50_ms, 0.25),
        p90_ms: pick(|r| r.p90_ms, 0.25),
        per_s: pick(|r| r.per_s, 0.75),
    }
}

/// Share of frames answered correctly within `deadline_ms`. Unsent,
/// unanswered and mismatching frames are in the denominator and late.
pub fn on_time_frac(outcomes: &[Outcome], deadline_ms: f64) -> f64 {
    let on_time = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Ok(ms) if *ms <= deadline_ms))
        .count();
    on_time as f64 / outcomes.len() as f64
}

/// Time source of the scheduled loop; virtual in the unit tests.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t_ns`; at once when that is already so.
    fn wait_until(&mut self, t_ns: u64);
}

/// The scheduled (open-schedule, one tick in flight) loop: tick `k` is due
/// at `t0 + k·period` and is sent then, or at once if the previous tick
/// was still being served. `serve(clock, k, due_ns)` sends the tick, waits
/// for its replies and measures them **from `due_ns`**, so a stall is
/// charged to every tick it delays; it returns whether to go on. Returns
/// how late each tick that ran left.
pub fn run_schedule<C: Clock>(
    clock: &mut C,
    t0_ns: u64,
    period_ns: u64,
    ticks: usize,
    mut serve: impl FnMut(&mut C, usize, u64) -> bool,
) -> Vec<u64> {
    let mut late = Vec::with_capacity(ticks);
    for k in 0..ticks {
        let due = t0_ns + k as u64 * period_ns;
        clock.wait_until(due);
        late.push(clock.now_ns() - due);
        if !serve(clock, k, due) {
            break;
        }
    }
    late
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_equal_and_contiguous() {
        let rounds = split_rounds(1_003, 15);
        assert_eq!(rounds.len(), 15);
        assert_eq!(rounds[0].start, 0);
        for pair in rounds.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "rounds are contiguous");
        }
        assert!(rounds.iter().all(|r| r.len() == 66), "equal counts");
        assert_eq!(rounds[14].end, 15 * 66, "remainder left out");
    }

    #[test]
    fn rounds_are_short_but_never_starved() {
        assert_eq!(rounds_for(540_000), MAX_ROUNDS);
        assert_eq!(rounds_for(1_125), 56, "20 operations a round at least");
        assert_eq!(rounds_for(7), 1);
    }

    #[test]
    fn percentile_and_median_on_hand_built_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 5.0);
        assert_eq!(percentile(&v, 0.90), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.90), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let w = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&w, 0.25), 2.0);
        assert_eq!(quantile(&w, 0.5), median(&w));
        assert_eq!(quantile(&w, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn one_poisoned_round_does_not_move_the_result() {
        let clean: Vec<Outcome> = (0..100)
            .map(|i| Outcome::Ok(2.0 + f64::from(i) * 0.001))
            .collect();
        let stalled: Vec<Outcome> = (0..100).map(|_| Outcome::Ok(45.0)).collect();
        let mut rounds: Vec<RoundStat> = (0..15).map(|_| round_stat(&clean, 1.0)).collect();
        let quiet = quiet_quartile_of_rounds(&rounds);
        rounds[6] = round_stat(&stalled, 9.0);
        let poisoned = quiet_quartile_of_rounds(&rounds);
        assert_eq!(quiet.p50_ms, poisoned.p50_ms);
        assert_eq!(quiet.p90_ms, poisoned.p90_ms);
        assert_eq!(quiet.per_s, poisoned.per_s);
        // The pooled p90 the earlier attempts reported would have moved.
        let pooled: Vec<f64> = (0..14)
            .flat_map(|_| clean.iter())
            .chain(stalled.iter())
            .map(|o| o.latency_ms())
            .collect();
        assert!(percentile(&pooled, 0.95) > 40.0);
    }

    #[test]
    fn a_busy_host_does_not_move_the_result_but_a_slower_program_does() {
        let round = |ms: f64| {
            let frames: Vec<Outcome> = (0..100)
                .map(|i| Outcome::Ok(ms + f64::from(i) * 0.001))
                .collect();
            round_stat(&frames, ms)
        };
        let quiet = quiet_quartile_of_rounds(&[round(2.0); 40]);
        // Two rounds in three disturbed, each by another amount.
        let busy: Vec<RoundStat> = (0..40)
            .map(|i| {
                round(if i % 3 == 0 {
                    2.0
                } else {
                    2.5 + f64::from(i) * 0.1
                })
            })
            .collect();
        let disturbed = quiet_quartile_of_rounds(&busy);
        assert_eq!(quiet.p50_ms, disturbed.p50_ms);
        assert_eq!(quiet.p90_ms, disturbed.p90_ms);
        assert_eq!(quiet.per_s, disturbed.per_s);
        // The median over rounds would have moved.
        let p90s: Vec<f64> = busy.iter().map(|r| r.p90_ms).collect();
        assert!(median(&p90s) > 1.5 * quiet.p90_ms);
        // A program 10 % slower is 10 % slower in every round, and shows.
        let slower = quiet_quartile_of_rounds(&[round(2.2); 40]);
        assert!(slower.p50_ms > 1.09 * quiet.p50_ms);
        assert!(slower.p90_ms > 1.09 * quiet.p90_ms);
        assert!(slower.per_s < quiet.per_s / 1.09);
    }

    #[test]
    fn failures_are_late_and_stay_in_the_denominator() {
        let outcomes = [
            Outcome::Ok(1.0),
            Outcome::Ok(2.9),
            Outcome::Ok(3.1),
            Outcome::Mismatch,
            Outcome::Unanswered,
            Outcome::Unsent,
            Outcome::Ok(0.5),
            Outcome::Ok(3.0),
        ];
        assert_eq!(on_time_frac(&outcomes, 3.0), 4.0 / 8.0);
        let stat = round_stat(&outcomes, 2.0);
        assert_eq!(stat.per_s, 2.5, "only correct verdicts count as throughput");
        assert_eq!(
            stat.p90_ms, FAILED_MS,
            "a failed frame is charged the timeout"
        );
    }

    /// Virtual time: waiting jumps the clock, serving advances it.
    struct VirtualClock(u64);

    impl Clock for VirtualClock {
        fn now_ns(&self) -> u64 {
            self.0
        }
        fn wait_until(&mut self, t_ns: u64) {
            self.0 = self.0.max(t_ns);
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_tick_it_delays() {
        const PERIOD: u64 = 3_000_000;
        const SERVICE: u64 = 1_000_000;
        const STALL: u64 = 10_000_000;
        let mut clock = VirtualClock(0);
        let mut latency = Vec::new();
        let late = run_schedule(&mut clock, 0, PERIOD, 10, |clock, k, due| {
            clock.0 += SERVICE + if k == 2 { STALL } else { 0 };
            latency.push(clock.0 - due);
            true
        });
        // Tick 2 is due at 6 ms and done at 17 ms; ticks 3..=6 were due at
        // 9, 12, 15 and 18 ms. The loop catches up 2 ms per tick, so the
        // stall shows as 9, 7, 5, 3 and 1 ms of lateness — not as one slow
        // tick followed by a clean record.
        assert_eq!(latency[..2], [SERVICE, SERVICE]);
        assert_eq!(latency[2], SERVICE + STALL);
        assert_eq!(
            latency[3..8],
            [9_000_000, 7_000_000, 5_000_000, 3_000_000, 1_000_000]
        );
        assert_eq!(late[3..7], [8_000_000, 6_000_000, 4_000_000, 2_000_000]);
        assert_eq!(late[7..], [0, 0, 0], "the schedule is met again");
        assert_eq!(latency[8..], [SERVICE, SERVICE]);
    }
}
