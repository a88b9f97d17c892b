//! Fleet-throughput study of the sharded multi-hub inference engine.
//!
//! Sweeps worker count × batch size × hub-chain count over a fixed
//! deterministic frame stream and reports, per cell, the fleet rate in
//! *simulated* frames per second (the same time domain as the paper's
//! 575 fps single-node figure), the one-worker-equivalent rate, the
//! parallel speedup, and the per-frame p99 latency. Sharding is by chain,
//! so a sweep cell with fewer chains than workers leaves shards idle —
//! visible directly in the speedup column.
//!
//! A machine-readable summary is written to
//! `target/fleet_throughput_summary.json` under the workspace root, the
//! path CI uploads as an artifact.
//!
//! ```sh
//! cargo run --release -p reads-bench --bin fleet_throughput
//! ```

use reads_bench::{mlp_bundle, paper_firmware, REPRO_SEED};
use reads_blm::hubs::MultiChainSource;
use reads_core::engine::{EngineConfig, NativeExecutor, ShardedEngine};
use reads_soc::HpsModel;
use serde::Serialize;

/// The summary `target/fleet_throughput_summary.json` holds.
#[derive(Serialize)]
struct Summary {
    seed: u64,
    ticks: usize,
    scaling_4w: f64,
    rows: Vec<Row>,
}

#[derive(Serialize)]
struct Row {
    workers: usize,
    batch: usize,
    chains: usize,
    frames: u64,
    fleet_fps: f64,
    single_lane_fps: f64,
    speedup: f64,
    p99_ms: f64,
    max_ms: f64,
}

fn main() {
    // The MLP build keeps the sweep quick; the engine treats the firmware
    // as an opaque cloned interpreter, so the scaling shape is model-free.
    let bundle = mlp_bundle();
    let firmware = paper_firmware(&bundle, 50);
    let std = bundle.standardizer.clone();
    let hps = HpsModel::default();

    let workers = [1usize, 2, 4, 8];
    let batches = [1usize, 8];
    let chain_counts = [1usize, 4, 8];
    let ticks = 64usize;

    println!("fleet throughput: sharded engine sweep, {ticks} ticks per chain");
    println!("(seed {REPRO_SEED}; simulated-time rates — comparable to the paper's 575 fps)");
    println!(
        "{:>7} {:>6} {:>7} {:>9} {:>12} {:>12} {:>8} {:>9} {:>9}",
        "workers",
        "batch",
        "chains",
        "frames",
        "fleet fps",
        "1-lane fps",
        "speedup",
        "p99 ms",
        "max ms"
    );

    let mut rows = Vec::new();
    let mut baseline_fps = 0.0f64;
    let mut four_worker_fps = 0.0f64;
    for &chains in &chain_counts {
        for &batch in &batches {
            for &w in &workers {
                let frames = MultiChainSource::new(chains, REPRO_SEED).ticks(ticks);
                let cfg = EngineConfig {
                    workers: w,
                    batch,
                    ..EngineConfig::default()
                };
                let (_, report) = ShardedEngine::run_stream(
                    &cfg,
                    &std,
                    |_| Box::new(NativeExecutor::compiled(&firmware, &hps)),
                    frames,
                );
                let t = report.throughput();
                if chains == 8 && batch == 8 {
                    if w == 1 {
                        baseline_fps = t.fleet_fps;
                    } else if w == 4 {
                        four_worker_fps = t.fleet_fps;
                    }
                }
                println!(
                    "{:>7} {:>6} {:>7} {:>9} {:>12.0} {:>12.0} {:>8.2} {:>9.3} {:>9.3}",
                    w,
                    batch,
                    chains,
                    t.frames,
                    t.fleet_fps,
                    t.single_lane_fps,
                    t.speedup,
                    t.p99_ms,
                    t.max_ms
                );
                rows.push(Row {
                    workers: w,
                    batch,
                    chains,
                    frames: t.frames,
                    fleet_fps: t.fleet_fps,
                    single_lane_fps: t.single_lane_fps,
                    speedup: t.speedup,
                    p99_ms: t.p99_ms,
                    max_ms: t.max_ms,
                });
            }
        }
    }

    let scaling = four_worker_fps / baseline_fps;
    println!("\n4-worker scaling at 8 chains, batch 8: {scaling:.2}x (target >= 3x)");
    assert!(
        scaling >= 3.0,
        "fleet scaling regression: {scaling:.2}x < 3x"
    );

    let summary = Summary {
        seed: REPRO_SEED,
        ticks,
        scaling_4w: scaling,
        rows,
    };
    let path = reads_bench::write_trajectory("target/fleet_throughput_summary.json", &summary);
    println!("summary written to {}", path.display());
}
