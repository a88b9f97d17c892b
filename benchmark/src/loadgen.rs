//! The load generators: one thread, at most two connections. A scheduled
//! loop over TCP, a closed loop into the in-process engine, and the
//! single-thread simulated-SoC tick loop. Every verdict is checked against
//! the pool's reference digest as it arrives.

use crate::setup::{Pool, Tcp};
use crate::stats::{self, Clock, Outcome, RoundStat};
use crate::trace::{now_ns, SpanId, Tracer};
use reads_core::engine::ShardedEngine;
use reads_core::system::EndToEndTiming;
use reads_core::DeblendingSystem;
use reads_net::wire::Msg;
use reads_net::GatewayClient;
use std::time::Duration;

/// A frame unanswered this long after it was due is a failed operation,
/// and is charged this latency.
pub const REPLY_TIMEOUT_NS: u64 = (stats::FAILED_MS * 1e6) as u64;

/// A healthy tick is back within a few milliseconds. This many ticks in a
/// row each taking longer than [`WEDGED_TICK_NS`] from its own send means
/// the gateway is wedged, not that the host stalled once.
const WEDGED_STREAK: usize = 4;
const WEDGED_TICK_NS: u64 = 15_000_000;

/// The scheduled loop sleeps to this close to a due time and spins the rest:
/// `thread::sleep` alone overshoots by the kernel's timer slack.
const SPIN_NS: u64 = 200_000;

/// One send: a tick of the scheduled loops, a frame of the closed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Op {
    pub due_ns: u64,
    pub sent_ns: u64,
    /// When the last `FrameAck` of the tick arrived (TCP only).
    pub acked_ns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// The reference verdict arrived at this time.
    At(u64),
    Mismatch,
    Unanswered,
    Unsent,
}

/// What one stretch of load observed.
pub struct Segment {
    pub frames_per_op: usize,
    pub ops: Vec<Op>,
    /// `frames_per_op` replies per op, in op order.
    pub replies: Vec<Reply>,
    pub end_ns: u64,
    /// The scheduled loop stopped early on a wedged gateway.
    pub wedged: bool,
}

impl Segment {
    pub fn new(frames_per_op: usize) -> Self {
        Self {
            frames_per_op,
            ops: Vec::new(),
            replies: Vec::new(),
            end_ns: 0,
            wedged: false,
        }
    }

    /// Continues this segment with what a replaced gateway served.
    pub fn append(&mut self, rest: Segment) {
        self.ops.extend(rest.ops);
        self.replies.extend(rest.replies);
        self.end_ns = rest.end_ns;
    }

    /// Per-frame outcomes, latency counted from the op's due time
    /// (`from_due`) or from when it was actually sent.
    pub fn outcomes(&self, from_due: bool) -> Vec<Outcome> {
        self.replies
            .iter()
            .enumerate()
            .map(|(i, reply)| {
                let op = &self.ops[i / self.frames_per_op];
                let from = if from_due { op.due_ns } else { op.sent_ns };
                match *reply {
                    Reply::At(ns) => Outcome::Ok(ns.saturating_sub(from) as f64 / 1e6),
                    Reply::Mismatch => Outcome::Mismatch,
                    Reply::Unanswered => Outcome::Unanswered,
                    Reply::Unsent => Outcome::Unsent,
                }
            })
            .collect()
    }

    pub fn failed(&self) -> usize {
        self.replies
            .iter()
            .filter(|r| !matches!(r, Reply::At(_)))
            .count()
    }

    /// How late each op left against its due time, in µs.
    pub fn late_us(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|op| (op.sent_ns - op.due_ns) as f64 / 1e3)
            .collect()
    }

    /// Cuts the segment into short equal rounds and returns the quiet
    /// quartile over rounds of each per-round statistic. A round's wall time
    /// runs from its first send to the next round's first send.
    pub fn round_quartile(&self, from_due: bool) -> RoundStat {
        let outcomes = self.outcomes(from_due);
        let rounds = stats::rounds_for(self.ops.len());
        let per_round: Vec<RoundStat> = stats::split_rounds(self.ops.len(), rounds)
            .into_iter()
            .map(|r| {
                let until = self.ops.get(r.end).map_or(self.end_ns, |op| op.sent_ns);
                let wall_s = (until - self.ops[r.start].sent_ns) as f64 / 1e9;
                let frames = r.start * self.frames_per_op..r.end * self.frames_per_op;
                stats::round_stat(&outcomes[frames], wall_s)
            })
            .collect();
        for (i, r) in per_round.iter().enumerate() {
            eprintln!(
                "round {i:>3}: p50 {:>10.4} ms  p90 {:>10.4} ms  {:>12.2} frames/s",
                r.p50_ms, r.p90_ms, r.per_s
            );
        }
        stats::quiet_quartile_of_rounds(&per_round)
    }
}

struct RealClock;

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        now_ns()
    }

    fn wait_until(&mut self, t_ns: u64) {
        loop {
            let now = now_ns();
            if now >= t_ns {
                return;
            }
            if t_ns - now > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(t_ns - now - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Which reply stream the generator reads first after sending a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadFirst {
    /// Verdicts, so reading acks cannot delay a verdict's timestamp.
    Verdicts,
    /// Acks, to time send→`FrameAck` (they leave before the verdicts do).
    Acks,
}

/// The next message on `client`, or `None` once `give_up_ns` has passed. A
/// connection that fails under a run without failures is a benchmark bug.
fn recv_before(client: &mut GatewayClient, give_up_ns: u64) -> Option<Msg> {
    let left = give_up_ns.checked_sub(now_ns()).filter(|&left| left > 0)?;
    client
        .recv(Duration::from_nanos(left))
        .unwrap_or_else(|e| panic!("gateway connection failed: {e}"))
}

/// How the scheduled loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Time between due times; 0 is an unpaced ping-pong.
    pub period_ns: u64,
    pub read_first: ReadFirst,
    /// Return early, [`Segment::wedged`] set, once the gateway answers
    /// only every few tens of milliseconds.
    pub stop_if_wedged: bool,
}

/// Scheduled loop over TCP: tick `k` (one frame per chain) is due at
/// `t0 + k·period_ns`, is sent then or at once if the previous tick's
/// verdicts and acks came in later, and waits for all of its verdicts and
/// acks.
pub fn run_scheduled(
    tcp: &mut Tcp,
    pool: &Pool,
    pace: Pace,
    first_seq: u32,
    ticks: usize,
    tracer: &mut Tracer,
) -> Segment {
    let Pace {
        period_ns,
        read_first,
        stop_if_wedged,
    } = pace;
    let chains = pool.chains;
    let mut seg = Segment::new(chains);
    let mut slow_streak = 0;
    let frames_of = |seq: u32| -> Vec<_> { (0..chains).map(|c| pool.frame(c, seq)).collect() };
    let mut next = frames_of(first_seq);
    let t0 = now_ns() + 1_000_000;
    let mut done_ns = t0;
    stats::run_schedule(&mut RealClock, t0, period_ns, ticks, |_, k, due_ns| {
        let seq = first_seq + k as u32;
        seg.replies.resize((k + 1) * chains, Reply::Unanswered);
        let tick = tracer.begin("loadgen.tick", SpanId::NONE, k as u64);
        let sent_ns = now_ns();
        tracer.leaf("loadgen.send", tick, k as u64, || {
            for (c, frame) in next.iter().enumerate() {
                if tcp.producer.send_frame(frame).is_err() {
                    seg.replies[k * chains + c] = Reply::Unsent;
                }
            }
        });
        let give_up = due_ns.max(sent_ns) + REPLY_TIMEOUT_NS;
        let mut acked_ns = 0;
        let mut read_acks = |tcp: &mut Tcp, tracer: &mut Tracer| {
            tracer.leaf("gateway.wait_acks", tick, k as u64, || {
                let mut pending = chains;
                while pending > 0 {
                    match recv_before(&mut tcp.producer, give_up) {
                        Some(Msg::FrameAck { sequence, .. }) if sequence == seq => pending -= 1,
                        Some(_) => {}
                        None => break,
                    }
                }
                acked_ns = now_ns();
            });
        };
        if read_first == ReadFirst::Acks {
            read_acks(tcp, tracer);
        }
        tracer.leaf("gateway.wait_verdicts", tick, k as u64, || {
            let slots = &mut seg.replies[k * chains..(k + 1) * chains];
            let mut pending = slots.iter().filter(|r| **r == Reply::Unanswered).count();
            while pending > 0 {
                match recv_before(&mut tcp.subscriber, give_up) {
                    Some(Msg::Verdict(v)) => {
                        let at = now_ns();
                        let c = v.chain as usize;
                        // A verdict of an earlier tick was already given up on.
                        if v.verdict.sequence == seq && c < chains && slots[c] == Reply::Unanswered
                        {
                            slots[c] = if pool.check(c, seq, &v.verdict) {
                                Reply::At(at)
                            } else {
                                Reply::Mismatch
                            };
                            pending -= 1;
                        }
                    }
                    Some(_) => {}
                    None => break,
                }
            }
        });
        if read_first == ReadFirst::Verdicts {
            read_acks(tcp, tracer);
        }
        seg.ops.push(Op {
            due_ns,
            sent_ns,
            acked_ns,
        });
        // The next tick's packets are built before its due time, not after.
        next = frames_of(seq + 1);
        done_ns = now_ns();
        tracer.end(tick);
        slow_streak = if done_ns - sent_ns > WEDGED_TICK_NS {
            slow_streak + 1
        } else {
            0
        };
        !(stop_if_wedged && slow_streak >= WEDGED_STREAK)
    });
    seg.wedged = seg.ops.len() < ticks;
    seg.end_ns = done_ns.max(t0 + seg.ops.len() as u64 * period_ns);
    seg
}

/// Closed loop into the in-process engine: keeps `in_flight` frames
/// submitted, round-robin over the chains, and yields while none is back.
pub fn run_closed(
    engine: &mut ShardedEngine,
    pool: &Pool,
    in_flight: usize,
    first_seq: u32,
    frames: usize,
    tracer: &mut Tracer,
) -> Segment {
    let chains = pool.chains;
    let mut seg = Segment::new(1);
    seg.replies.resize(frames, Reply::Unanswered);
    let mut settled = 0;
    let mut last_progress = now_ns();
    while settled < frames {
        while seg.ops.len() - settled < in_flight && seg.ops.len() < frames {
            let i = seg.ops.len();
            let frame = pool.frame(i % chains, first_seq + (i / chains) as u32);
            let sent_ns = now_ns();
            let accepted = tracer.leaf("engine.submit", SpanId::NONE, i as u64, || {
                engine.submit(frame)
            });
            seg.ops.push(Op {
                due_ns: sent_ns,
                sent_ns,
                acked_ns: 0,
            });
            if !accepted {
                seg.replies[i] = Reply::Unsent;
                settled += 1;
            }
        }
        let poll = tracer.begin("engine.poll_results", SpanId::NONE, settled as u64);
        let results = engine.poll_results();
        let at = now_ns();
        if results.is_empty() {
            tracer.cancel(poll);
            if at - last_progress > REPLY_TIMEOUT_NS {
                break;
            }
            // Spinning, not sleeping: a generator that sleeps lets the
            // second vCPU go idle, and what the worker then reads depends on
            // what ran before (README.md, "The rules").
            std::thread::yield_now();
            continue;
        }
        tracer.end(poll);
        last_progress = at;
        for r in results {
            let c = r.chain as usize;
            let i = r.sequence.wrapping_sub(first_seq) as usize * chains + c;
            if i < frames && seg.replies[i] == Reply::Unanswered {
                seg.replies[i] = if pool.check(c, r.sequence, &r.verdict) {
                    Reply::At(at)
                } else {
                    Reply::Mismatch
                };
                settled += 1;
            }
        }
    }
    seg.end_ns = now_ns();
    seg
}

/// The simulated central node, one tick after another on this thread.
/// Host time per tick is the op's latency; the simulated timings come
/// back beside it and are never mixed with it.
pub fn run_soc(
    system: &mut DeblendingSystem,
    pool: &Pool,
    first_seq: u32,
    ticks: usize,
    tracer: &mut Tracer,
) -> (Segment, Vec<EndToEndTiming>) {
    let mut seg = Segment::new(1);
    seg.replies.resize(ticks, Reply::Unanswered);
    let mut timings = Vec::with_capacity(ticks);
    for k in 0..ticks {
        let seq = first_seq + k as u32;
        let frame = pool.frame(0, seq);
        let sent_ns = now_ns();
        let result = tracer.leaf("soc.process_tick", SpanId::NONE, k as u64, || {
            system.process_tick(&frame.packets, seq)
        });
        let at = now_ns();
        seg.ops.push(Op {
            due_ns: sent_ns,
            sent_ns,
            acked_ns: 0,
        });
        seg.replies[k] = match result {
            Ok((verdict, timing)) => {
                timings.push(timing);
                if pool.check(0, seq, &verdict) {
                    Reply::At(at)
                } else {
                    Reply::Mismatch
                }
            }
            Err(_) => Reply::Unsent,
        };
    }
    seg.end_ns = now_ns();
    (seg, timings)
}
