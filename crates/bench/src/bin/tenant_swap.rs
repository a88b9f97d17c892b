//! Tenant hot-swap under load: the zero-downtime cost model.
//!
//! Two passes over an identical two-tenant engine fed an identical frame
//! stream:
//!
//! * **steady** — no registry activity at all, the baseline;
//! * **swap** — a recalibrated (two-bits-wider) candidate for tenant 1 is
//!   staged, shadow-scored against the incumbent on the live frames and
//!   promoted mid-stream, while the producer never pauses.
//!
//! Reported per pass: throughput, simulated per-frame deadline-miss
//! fraction (the paper's 3 ms real-time envelope) and acked-frame loss;
//! the swap pass adds the promotion latency (stage → live) and the shadow
//! gate's scorecard. Asserts the candidate promoted, zero frame loss in
//! both passes, and that the swap pass's deadline-miss fraction stays
//! within [`MISS_EPSILON`] of steady state — a hot-swap that degrades the
//! serving plane is a regression even if it promotes. Writes
//! `BENCH_tenant_swap.json` at the repo root. `TENANT_SWAP_TICKS` scales
//! the run.
//!
//! ```sh
//! cargo run --release -p reads-bench --bin tenant_swap
//! ```

use reads_bench::{env_or, mlp_bundle};
use reads_blm::hubs::MultiChainSource;
use reads_core::engine::{DropPolicy, EngineConfig, ShardedEngine};
use reads_core::{run_hot_swap, ModelRegistry, PlacementPlanner, ShadowGate, ShardBudget};
use reads_hls4ml::config::PrecisionStrategy;
use reads_hls4ml::{convert, profile_model, Firmware, HlsConfig};
use reads_soc::HpsModel;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

const SEED: u64 = 41;
const CHAINS: usize = 4;
/// Simulated per-frame latency budget (the paper's real-time envelope).
const DEADLINE_MS: f64 = 3.0;
/// How much the swap pass's deadline-miss fraction may exceed steady
/// state before it counts as a serving-plane regression.
const MISS_EPSILON: f64 = 0.02;

/// The trajectory `BENCH_tenant_swap.json` holds.
#[derive(Serialize, Deserialize)]
struct Report {
    seed: u64,
    ticks: usize,
    chains: usize,
    deadline_ms: f64,
    miss_epsilon: f64,
    steady: Pass,
    swap: Pass,
    promotion_latency_ms: f64,
    shadow_frames: u64,
    shadow_accuracy: f64,
    shadow_max_abs_delta: f64,
}

#[derive(Serialize, Deserialize)]
struct Pass {
    frames: u64,
    served: u64,
    lost: u64,
    fps: f64,
    deadline_miss: f64,
    wall_ms: f64,
}

/// One two-tenant serving pass; a `candidate` is staged and driven to a
/// verdict mid-stream, and its swap report returned beside the pass. The
/// producer never stops — that is the claim.
fn run_pass(
    ticks: usize,
    incumbent: &Firmware,
    sibling: &Firmware,
    candidate: Option<&Firmware>,
    standardizer: &reads_blm::dataset::Standardizer,
) -> (Pass, Option<reads_core::SwapReport>) {
    let mut registry = ModelRegistry::new();
    registry
        .add_tenant(1, "blm-primary", 2, None)
        .expect("tenant 1");
    registry
        .add_tenant(2, "blm-sibling", 1, None)
        .expect("tenant 2");
    registry
        .register_live(1, incumbent.clone())
        .expect("incumbent live");
    registry
        .register_live(2, sibling.clone())
        .expect("sibling live");
    let cand_digest = candidate.map(|fw| registry.register(1, fw.clone()).expect("staged"));

    let budget = ShardBudget {
        ip_aluts: u64::MAX / 4,
        dsps: u64::MAX / 4,
        m20k_blocks: u64::MAX / 4,
    };
    let plan = PlacementPlanner::new(budget, 2)
        .plan(&registry)
        .expect("plan");
    let cfg = EngineConfig {
        workers: 2,
        batch: 4,
        queue_depth: 256,
        drop_policy: DropPolicy::Block,
        ..EngineConfig::default()
    };
    let mut engine =
        ShardedEngine::start_multi(&cfg, standardizer, &registry, &plan, &HpsModel::default())
            .expect("engine starts");

    let frames_1 = MultiChainSource::new(CHAINS, SEED).ticks(ticks);
    let frames_2 = MultiChainSource::new(CHAINS, SEED ^ 0xBEEF).ticks(ticks);
    // The swap starts after a warm-up prefix (a third of the stream), so
    // the shadow window scores steady live traffic, not the startup
    // transient.
    let warmup = ticks / 3 * CHAINS;
    let mut swapper = None;
    let mut accepted = 0u64;
    let t0 = Instant::now();
    for (i, (a, b)) in frames_1.iter().zip(&frames_2).enumerate() {
        assert!(engine.submit_for(1, a.clone()).expect("tenant 1 known"));
        assert!(engine.submit_for(2, b.clone()).expect("tenant 2 known"));
        accepted += 2;
        if i == warmup {
            swapper = cand_digest.map(|digest| {
                let controller = engine.controller();
                let mut reg = registry.clone();
                std::thread::spawn(move || {
                    let gate = ShadowGate::paper_default(16);
                    run_hot_swap(
                        &controller,
                        &mut reg,
                        1,
                        digest,
                        &gate,
                        &HpsModel::default(),
                        Duration::from_secs(60),
                    )
                    .expect("swap drives to a verdict")
                })
            });
        }
    }
    // Keep feeding (cycled) until the swap resolves — the stream must not
    // pause for the promotion.
    if let Some(handle) = &swapper {
        let mut it = frames_1.iter().cycle();
        while !handle.is_finished() {
            assert!(engine
                .submit_for(1, it.next().expect("cycle").clone())
                .expect("known"));
            accepted += 1;
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let wall = t0.elapsed();
    let swap = swapper.map(|h| h.join().expect("swap thread"));
    let (results, fleet) = engine.finish();

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
    let pass = Pass {
        frames: accepted,
        served: results.len() as u64,
        lost: fleet.shards.iter().map(|s| s.lost).sum(),
        fps: accepted as f64 / wall.as_secs_f64(),
        deadline_miss,
        wall_ms: wall.as_secs_f64() * 1e3,
    };
    (pass, swap)
}

fn main() {
    let ticks: usize = env_or("TENANT_SWAP_TICKS", 150);

    let bundle = mlp_bundle();
    let calib = bundle.calibration_inputs(50);
    let profile = profile_model(&bundle.model, &calib);
    let incumbent = convert(&bundle.model, &profile, &HlsConfig::paper_default());
    // Two more bits of precision: a different digest that tracks the
    // incumbent well inside the |q − float| ≤ 0.20 gate.
    let candidate = convert(
        &bundle.model,
        &profile,
        &HlsConfig::with_strategy(PrecisionStrategy::LayerBased {
            width: 18,
            int_margin: 0,
        }),
    );
    assert_ne!(
        incumbent.content_digest(),
        candidate.content_digest(),
        "candidate must be a different build"
    );
    let sibling = convert(
        &bundle.model,
        &profile,
        &HlsConfig::with_strategy(PrecisionStrategy::LayerBased {
            width: 17,
            int_margin: 0,
        }),
    );
    let standardizer = bundle.standardizer.clone();

    println!("tenant swap: 2 tenants x {CHAINS} chains x {ticks} ticks (seed {SEED})");
    let (steady, _) = run_pass(ticks, &incumbent, &sibling, None, &standardizer);
    let (swapped, report) = run_pass(ticks, &incumbent, &sibling, Some(&candidate), &standardizer);

    for (name, p) in [("steady", &steady), ("swap", &swapped)] {
        println!(
            "{name:>7}: {} frames | {} served | {} lost | {:.0} fps | ddl-miss {:.4} | wall {:.1} ms",
            p.frames, p.served, p.lost, p.fps, p.deadline_miss, p.wall_ms
        );
    }
    let report = report.expect("swap pass ran the swap");
    let latency = report
        .promotion_latency_ms
        .expect("promotion latency recorded");
    println!(
        "   swap: outcome {:?} | shadow {} frames | {:.1}% within tol | max dev {:.3} | \
         promotion latency {latency:.1} ms",
        report.outcome,
        report.shadow.frames,
        report.shadow.accuracy() * 100.0,
        report.shadow.max_abs_delta,
    );

    assert_eq!(
        report.outcome,
        reads_core::SwapOutcome::Promoted,
        "within-tolerance candidate must promote"
    );
    for (name, p) in [("steady", &steady), ("swap", &swapped)] {
        assert_eq!(p.lost, 0, "{name}: acked frames lost");
        assert_eq!(p.served, p.frames, "{name}: every accepted frame served");
    }
    assert!(
        swapped.deadline_miss <= steady.deadline_miss + MISS_EPSILON,
        "deadline-miss regression during swap: {:.4} vs steady {:.4} (+{MISS_EPSILON} allowed)",
        swapped.deadline_miss,
        steady.deadline_miss
    );
    println!(
        "\nswap pass deadline-miss {:.4} vs steady {:.4} (epsilon {MISS_EPSILON}) — \
         promotion cost invisible to the serving plane",
        swapped.deadline_miss, steady.deadline_miss
    );

    let trajectory = Report {
        seed: SEED,
        ticks,
        chains: CHAINS,
        deadline_ms: DEADLINE_MS,
        miss_epsilon: MISS_EPSILON,
        steady,
        swap: swapped,
        promotion_latency_ms: latency,
        shadow_frames: report.shadow.frames,
        shadow_accuracy: report.shadow.accuracy(),
        shadow_max_abs_delta: report.shadow.max_abs_delta,
    };
    let path = reads_bench::write_trajectory("BENCH_tenant_swap.json", &trajectory);
    println!("trajectory written to {}", path.display());
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_trajectory_keeps_its_schema() {
        reads_bench::assert_trajectory_schema::<super::Report>("BENCH_tenant_swap.json");
    }
}
