//! The closed adaptation loop under injected drift: accuracy-vs-time
//! with and without the loop.
//!
//! Four passes over an identical single-tenant engine fed the identical
//! seeded frame stream:
//!
//! * **steady** — no drift campaign, no adaptation: the accuracy and
//!   deadline-miss baseline;
//! * **open** — a gain/offset/decalibration campaign ramps in at a third
//!   of the stream and nobody reacts: accuracy degrades and stays
//!   degraded;
//! * **closed** — the same campaign with the `core::adapt` supervisor
//!   running: the engine's drift monitors trip, the retrainer folds the
//!   refit standardization into the float model, fine-tunes on labeled
//!   reservoir frames, re-quantizes, passes the offline gates and
//!   promotes through the live shadow canary — accuracy recovers while
//!   the producer never pauses;
//! * **sabotage** — the same loop forced to build 2-bit candidates: every
//!   attempt fails the offline |q − float| gate, consecutive failures
//!   back off and trip the loop to Degraded, and the serving plane never
//!   notices.
//!
//! Asserts the closed loop promoted and recovered (final-window accuracy
//! above the open loop's and near steady state), zero acked-frame loss
//! everywhere, closed-pass deadline-miss within [`MISS_EPSILON`] of
//! steady, and that sabotage rolled back every candidate and degraded
//! without touching served traffic. Writes `BENCH_drift_loop.json` at
//! the repo root. `DRIFT_LOOP_TICKS` scales the run.
//!
//! ```sh
//! cargo run --release -p reads-bench --bin drift_loop
//! ```

use reads_bench::{env_or, mlp_bundle, paper_firmware};
use reads_blm::hubs::MultiChainSource;
use reads_blm::{DriftCampaign, FrameGenerator};
use reads_core::adapt::{AdaptConfig, AdaptState, AdaptSupervisor};
use reads_core::engine::{DropPolicy, EngineConfig, ShardedEngine};
use reads_core::{ModelRegistry, PlacementPlanner, ShadowGate, ShardBudget};
use reads_nn::metrics::accuracy_within;
use reads_soc::HpsModel;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

const SEED: u64 = 47;
const CHAINS: usize = 4;
/// Simulated per-frame latency budget (the paper's real-time envelope).
const DEADLINE_MS: f64 = 3.0;
/// How much the closed pass's deadline-miss fraction may exceed steady
/// state before retraining counts as a serving-plane regression.
const MISS_EPSILON: f64 = 0.02;
/// Attribution tolerance for the accuracy curves (the paper's |err| gate).
const ACC_TOL: f64 = 0.20;
/// Accuracy-curve bucket width, ticks.
const BUCKET: u32 = 20;

fn campaign(onset: u64) -> DriftCampaign {
    DriftCampaign {
        seed: SEED,
        start_frame: onset,
        ramp_frames: onset / 2,
        gain: 1.07,
        offset: 1_700.0,
        decal_monitors: 12,
        decal_spread: 0.02,
        step_frame: u64::MAX,
        step_offset: 0.0,
    }
}

/// The trajectory `BENCH_drift_loop.json` holds.
#[derive(Serialize, Deserialize)]
struct Report {
    seed: u64,
    ticks: u32,
    chains: usize,
    onset: u64,
    deadline_ms: f64,
    miss_epsilon: f64,
    acc_tol: f64,
    bucket_ticks: u32,
    retrain_budget_ms: u64,
    steady: Pass,
    open: Pass,
    closed: Pass,
    sabotage: Pass,
}

#[derive(Serialize, Deserialize)]
struct Pass {
    frames: u64,
    served: u64,
    lost: u64,
    deadline_miss: f64,
    wall_ms: f64,
    /// Ticks fed, including any run past the plan waiting for a verdict.
    ticks: u32,
    /// Mean accuracy over the evaluation tail — the ticks after the
    /// loop's verdict landed (or after `tail_from` for replay passes), so
    /// every pass is scored on the same deterministic frames and the
    /// closed pass's tail is purely the promoted model serving.
    tail_acc: f64,
    /// Tick at which the adaptation verdict (promotion or Degraded trip)
    /// was first observed; `None` for passes without the loop.
    verdict_tick: Option<u32>,
    promoted: u64,
    rolled_back: u64,
    /// The loop's [`AdaptState`] at its verdict, as displayed.
    state: Option<String>,
    /// Mean attribution accuracy per `BUCKET`-tick window.
    curve: Vec<f64>,
}

struct PassPlan {
    ticks: u32,
    campaign: Option<DriftCampaign>,
    /// `Some(quant_width)` runs the adaptation supervisor building
    /// candidates at that width (16 = honest, 2 = sabotage).
    adapt: Option<u32>,
    /// Keep feeding paced ticks past `ticks` until the loop promotes
    /// (closed pass) or degrades (sabotage pass), up to this many extra.
    run_until_verdict: u32,
    /// Where the evaluation tail starts for passes without a verdict of
    /// their own (replaying the closed pass's verdict tick).
    tail_from: Option<u32>,
}

/// Ground truth for chain `c`, reconstructed from the same pure
/// generator the source uses.
fn truth_gens() -> Vec<FrameGenerator> {
    (0..CHAINS)
        .map(|c| {
            FrameGenerator::with_defaults(SEED ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
        .collect()
}

fn target_519(frac_mi: &[f64], frac_rr: &[f64]) -> Vec<f64> {
    let mut t = Vec::with_capacity(518);
    t.extend_from_slice(&frac_mi[..259]);
    t.extend_from_slice(&frac_rr[..259]);
    t
}

fn run_pass(plan: &PassPlan, retrain_budget_ms: u64) -> Pass {
    let bundle = mlp_bundle();
    let incumbent = paper_firmware(&bundle, 50);

    let mut registry = ModelRegistry::new();
    registry
        .add_tenant(1, "blm-adaptive", 2, None)
        .expect("tenant");
    registry
        .register_live(1, incumbent.clone())
        .expect("incumbent live");
    let budget = ShardBudget {
        ip_aluts: u64::MAX / 4,
        dsps: u64::MAX / 4,
        m20k_blocks: u64::MAX / 4,
    };
    let plan_map = PlacementPlanner::new(budget, 2)
        .plan(&registry)
        .expect("plan");
    let cfg = EngineConfig {
        workers: 2,
        batch: 4,
        queue_depth: 256,
        drop_policy: DropPolicy::Block,
        drift_window: 64,
        drift_campaign: plan.campaign,
        ..EngineConfig::default()
    };
    let mut engine = ShardedEngine::start_multi(
        &cfg,
        &bundle.standardizer,
        &registry,
        &plan_map,
        &HpsModel::default(),
    )
    .expect("engine starts");

    let supervisor = plan.adapt.map(|quant_width| {
        let acfg = AdaptConfig {
            reservoir_capacity: 256,
            // A full reservoir before the first attempt: the monitor flags
            // `Retrain` while the campaign is still ramping, and a retrain
            // fired mid-ramp promotes a half-corrected model. Waiting for
            // capacity means the freshest half the refit uses is entirely
            // post-ramp.
            min_snapshot: 256,
            min_labeled: 192,
            max_epochs: 10,
            retrain_budget: Duration::from_millis(retrain_budget_ms),
            quant_width,
            poll_interval: Duration::from_millis(10),
            cooldown: Duration::from_millis(100),
            gate: ShadowGate {
                tolerance: ACC_TOL,
                min_accuracy: 0.0,
                min_frames: 16,
            },
            ..AdaptConfig::paper_default(1)
        };
        AdaptSupervisor::start(
            acfg,
            bundle.model.clone(),
            bundle.standardizer.clone(),
            engine.controller(),
            registry.clone(),
            HpsModel::default(),
        )
        .expect("supervisor starts")
    });
    let tap = supervisor.as_ref().map(AdaptSupervisor::tap);

    let truths = truth_gens();
    let mut src = MultiChainSource::new(CHAINS, SEED);
    let mut accepted = 0u64;
    let t0 = Instant::now();
    let feed_tick = |src: &mut MultiChainSource, engine: &mut ShardedEngine, accepted: &mut u64| {
        let seq = u64::from(src.next_sequence());
        for frame in src.tick() {
            assert!(engine.submit_for(1, frame).expect("tenant known"));
            *accepted += 1;
        }
        // The bench knows ground truth, so it labels the drifted stream
        // for the reservoir — exactly the role replay studies play in
        // the deployed system. The tap call is the non-blocking one the
        // hot path uses; a busy retrainer sheds, never waits.
        if let (Some(tap), Some(c)) = (&tap, &plan.campaign) {
            if c.active(seq) {
                for (chain, gen) in truths.iter().enumerate() {
                    let truth = gen.frame(seq);
                    let mut drifted = truth.readings.clone();
                    c.apply(seq, &mut drifted);
                    let _ = chain;
                    tap.offer_labeled(&drifted, &target_519(&truth.frac_mi, &truth.frac_rr));
                }
            }
        }
    };
    for _ in 0..plan.ticks {
        feed_tick(&mut src, &mut engine, &mut accepted);
    }
    // Keep the stream alive (paced) until the loop reaches its verdict —
    // the producer must never pause for a retrain.
    let mut extra = 0u32;
    let mut tail = 0u32;
    let mut verdict_tick: Option<u32> = None;
    let mut settled_state: Option<AdaptState> = None;
    // Once the verdict lands, a few more buckets of ticks flow so the
    // curve shows the *promoted* model serving (or, in sabotage, the
    // held incumbent serving untouched through the Degraded trip).
    let tail_ticks = 3 * BUCKET;
    if let Some(sup) = &supervisor {
        while extra < plan.run_until_verdict {
            let c = sup.counters();
            let settled =
                c.promoted > 0 || matches!(sup.state(), AdaptState::Degraded | AdaptState::Killed);
            if settled {
                // The verdict-time state, before `stop()`'s kill switch
                // moves the supervisor to `Killed`.
                if verdict_tick.is_none() {
                    settled_state = Some(sup.state());
                }
                verdict_tick.get_or_insert(src.next_sequence());
                tail += 1;
                if tail > tail_ticks {
                    break;
                }
            }
            feed_tick(&mut src, &mut engine, &mut accepted);
            extra += 1;
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let ticks_run = src.next_sequence();
    let wall = t0.elapsed();
    let (promoted, rolled_back, state) = match supervisor {
        Some(sup) => {
            let report = sup.stop();
            (
                report.counters.promoted,
                report.counters.rolled_back,
                settled_state.or(Some(report.state)),
            )
        }
        None => (0, 0, None),
    };
    let (results, fleet) = engine.finish();

    // The evaluation tail: everything after the verdict landed (plus two
    // ticks of in-flight slack), or the closed pass's window replayed.
    let tail_start = verdict_tick
        .map(|t| t + 2)
        .or(plan.tail_from)
        .unwrap_or_else(|| ticks_run.saturating_sub(tail_ticks));

    // Accuracy-vs-time: bucket every served verdict against ground truth.
    let mut bucket_sum = vec![0.0f64; (ticks_run / BUCKET + 1) as usize];
    let mut bucket_n = vec![0u64; bucket_sum.len()];
    let mut tail_sum = 0.0f64;
    let mut tail_n = 0u64;
    for r in &results {
        let truth = truths[r.chain as usize].frame(u64::from(r.sequence));
        let mut pred = Vec::with_capacity(518);
        pred.extend_from_slice(&r.verdict.mi[..259]);
        pred.extend_from_slice(&r.verdict.rr[..259]);
        let acc = accuracy_within(&pred, &target_519(&truth.frac_mi, &truth.frac_rr), ACC_TOL);
        let b = (r.sequence / BUCKET) as usize;
        bucket_sum[b] += acc;
        bucket_n[b] += 1;
        if r.sequence >= tail_start {
            tail_sum += acc;
            tail_n += 1;
        }
    }
    let curve: Vec<f64> = bucket_sum
        .iter()
        .zip(&bucket_n)
        .filter(|(_, &n)| n > 0)
        .map(|(s, &n)| s / n as f64)
        .collect();
    assert!(tail_n > 0, "evaluation tail is empty");
    let tail_acc = tail_sum / tail_n as f64;

    let timings: Vec<f64> = fleet
        .shards
        .iter()
        .flat_map(|s| s.timings().map(|t| t.total.as_secs_f64() * 1e3))
        .collect();
    let deadline_miss = if timings.is_empty() {
        0.0
    } else {
        timings.iter().filter(|&&ms| ms > DEADLINE_MS).count() as f64 / timings.len() as f64
    };
    Pass {
        frames: accepted,
        served: results.len() as u64,
        lost: fleet.shards.iter().map(|s| s.lost).sum(),
        deadline_miss,
        wall_ms: wall.as_secs_f64() * 1e3,
        ticks: ticks_run,
        tail_acc,
        verdict_tick,
        promoted,
        rolled_back,
        state: state.map(|s| s.to_string()),
        curve,
    }
}

fn main() {
    let ticks: u32 = env_or("DRIFT_LOOP_TICKS", 240);
    let retrain_budget_ms: u64 = env_or("DRIFT_LOOP_BUDGET_MS", 1_500);
    let onset = u64::from(ticks) / 3;
    let c = campaign(onset);

    println!(
        "drift loop: {CHAINS} chains x {ticks} ticks (seed {SEED}) | drift onset tick {onset}, \
         gain {:.2}, offset {:.0}, {} decalibrated monitors | retrain budget {retrain_budget_ms} ms",
        c.gain, c.offset, c.decal_monitors
    );

    // The closed pass runs first: it decides the total tick count
    // (including the paced tail that carries the canary to its verdict),
    // and the open/steady passes then replay exactly that many ticks so
    // every curve covers the same deterministic frames.
    let closed = run_pass(
        &PassPlan {
            ticks,
            campaign: Some(c),
            adapt: Some(16),
            run_until_verdict: 30_000,
            tail_from: None,
        },
        retrain_budget_ms,
    );
    let tail_from = closed.verdict_tick.map(|t| t + 2);
    let open = run_pass(
        &PassPlan {
            ticks: closed.ticks,
            campaign: Some(c),
            adapt: None,
            run_until_verdict: 0,
            tail_from,
        },
        retrain_budget_ms,
    );
    let steady = run_pass(
        &PassPlan {
            ticks: closed.ticks,
            campaign: None,
            adapt: None,
            run_until_verdict: 0,
            tail_from,
        },
        retrain_budget_ms,
    );
    let sabotage = run_pass(
        &PassPlan {
            ticks,
            campaign: Some(c),
            adapt: Some(2),
            run_until_verdict: 30_000,
            tail_from: None,
        },
        // Skip fine-tuning entirely in the sabotage pass: the 2-bit
        // candidate must die at the |q − float| gate, not burn budget.
        120,
    );

    for (name, p) in [
        ("steady", &steady),
        ("open", &open),
        ("closed", &closed),
        ("sabotage", &sabotage),
    ] {
        println!(
            "{name:>8}: {} frames | {} served | {} lost | ddl-miss {:.4} | tail acc {:.4} | \
             {} promoted | {} rolled_back | wall {:.0} ms",
            p.frames,
            p.served,
            p.lost,
            p.deadline_miss,
            p.tail_acc,
            p.promoted,
            p.rolled_back,
            p.wall_ms
        );
    }
    println!("   curve steady   {:?}", round3(&steady.curve));
    println!("   curve open     {:?}", round3(&open.curve));
    println!("   curve closed   {:?}", round3(&closed.curve));

    // The loop's whole claim, enforced:
    for (name, p) in [
        ("steady", &steady),
        ("open", &open),
        ("closed", &closed),
        ("sabotage", &sabotage),
    ] {
        assert_eq!(p.lost, 0, "{name}: acked frames lost");
        assert_eq!(p.served, p.frames, "{name}: every accepted frame served");
    }
    assert!(closed.promoted >= 1, "closed loop must promote a candidate");
    assert!(
        open.tail_acc < steady.tail_acc - 0.03,
        "campaign too weak to measure: open {:.4} vs steady {:.4}",
        open.tail_acc,
        steady.tail_acc
    );
    assert!(
        closed.tail_acc > open.tail_acc + 0.05,
        "closed loop failed to recover: {:.4} vs open {:.4}",
        closed.tail_acc,
        open.tail_acc
    );
    // The headline number: how much of the drift-induced accuracy gap the
    // loop claws back, scored on the same post-promotion frames in every
    // pass. The scalar restandardization fold recovers the global
    // gain/offset exactly; fine-tuning chases the per-monitor
    // decalibration, so recovery is high but not total.
    let recovered = (closed.tail_acc - open.tail_acc) / (steady.tail_acc - open.tail_acc);
    assert!(
        recovered >= 0.5,
        "loop recovered only {:.0}% of the drift gap (closed {:.4}, open {:.4}, steady {:.4})",
        recovered * 100.0,
        closed.tail_acc,
        open.tail_acc,
        steady.tail_acc
    );
    assert!(
        closed.deadline_miss <= steady.deadline_miss + MISS_EPSILON,
        "deadline-miss regression while retraining: {:.4} vs steady {:.4}",
        closed.deadline_miss,
        steady.deadline_miss
    );
    assert_eq!(sabotage.promoted, 0, "2-bit candidate must never promote");
    assert!(
        sabotage.rolled_back >= 3,
        "sabotage must strike out: {} rollbacks",
        sabotage.rolled_back
    );
    assert_eq!(
        sabotage.state,
        Some(AdaptState::Degraded.to_string()),
        "repeated rollbacks must trip the loop to Degraded"
    );
    println!(
        "\nclosed loop recovered {:.0}% of the drift gap ({:.4}; steady {:.4}, open stuck at \
         {:.4}); sabotage struck out after {} rollbacks without touching served traffic",
        recovered * 100.0,
        closed.tail_acc,
        steady.tail_acc,
        open.tail_acc,
        sabotage.rolled_back
    );

    let report = Report {
        seed: SEED,
        ticks,
        chains: CHAINS,
        onset,
        deadline_ms: DEADLINE_MS,
        miss_epsilon: MISS_EPSILON,
        acc_tol: ACC_TOL,
        bucket_ticks: BUCKET,
        retrain_budget_ms,
        steady,
        open,
        closed,
        sabotage,
    };
    let path = reads_bench::write_trajectory("BENCH_drift_loop.json", &report);
    println!("trajectory written to {}", path.display());
}

fn round3(curve: &[f64]) -> Vec<f64> {
    curve.iter().map(|a| (a * 1e3).round() / 1e3).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_trajectory_keeps_its_schema() {
        reads_bench::assert_trajectory_schema::<super::Report>("BENCH_drift_loop.json");
    }
}
