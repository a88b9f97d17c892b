//! Serving-plane throughput: hub packets through a real loopback TCP
//! gateway, verdicts streamed back to a live subscriber.
//!
//! A `HubGateway` binds on 127.0.0.1 in front of a sharded native engine;
//! a closed-loop producer pushes multi-chain hub packets under an ack
//! window while a subscriber thread consumes every verdict. Reported
//! rates are end-to-end *wall-clock* frames/s — socket writes, incremental
//! CRC-checked decode, frame assembly, engine inference and verdict
//! fan-out all included. An open-loop pass (no ack pacing) follows as the
//! upper bound.
//!
//! Asserts the closed-loop rate meets `MIN_NETSERVE_FPS` (default
//! 10,000 frames/s), that no frame was lost, shed or mis-decoded, and
//! that every verdict reached the subscriber. Writes `BENCH_netserve.json`
//! at the repo root. `NETSERVE_TICKS` scales the run length.
//!
//! ```sh
//! cargo run --release -p reads-bench --bin netserve_throughput
//! ```

use reads_bench::{env_or, mlp_bundle, paper_firmware};
use reads_blm::dataset::Standardizer;
use reads_core::engine::{EngineConfig, ShardedEngine};
use reads_net::{
    run_load, GatewayClient, GatewayConfig, GatewayReport, HubGateway, LoadGenConfig, LoadReport,
    Role, SlowConsumerPolicy,
};
use reads_soc::HpsModel;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

const SEED: u64 = 2024;

/// The trajectory `BENCH_netserve.json` holds.
#[derive(Serialize, Deserialize)]
struct Report {
    seed: u64,
    ticks: usize,
    chains: usize,
    min_fps: f64,
    closed_loop_fps: f64,
    rows: Vec<Row>,
}

#[derive(Serialize, Deserialize)]
struct Row {
    mode: &'static str,
    frames: u64,
    acks: u64,
    verdicts: u64,
    wall_ms: f64,
    fps: f64,
    sim_ingest_ms: f64,
    sequence_gaps: u64,
    slow_consumer_drops: u64,
}

struct PassResult {
    label: &'static str,
    load: LoadReport,
    report: GatewayReport,
    verdicts_seen: u64,
    fps: f64,
    wall: Duration,
}

fn run_pass(
    label: &'static str,
    firmware: &reads_hls4ml::Firmware,
    standardizer: &Standardizer,
    load_cfg: &LoadGenConfig,
) -> PassResult {
    // Size the shard fleet to the host: on a small CI box extra workers
    // only add context switches to the single serving core.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
    let engine = ShardedEngine::native(
        &EngineConfig {
            workers,
            batch: 16,
            queue_depth: 256,
            ..EngineConfig::default()
        },
        firmware,
        &HpsModel::default(),
        standardizer,
    );
    let gw_cfg = GatewayConfig {
        outbound_queue: 16 * 1024,
        slow_consumer: SlowConsumerPolicy::DropNewest,
        ..GatewayConfig::default()
    };
    let handle = HubGateway::start("127.0.0.1:0", gw_cfg, engine).expect("bind gateway");
    let addr = handle.local_addr();

    let mut subscriber =
        GatewayClient::connect(addr, Role::Subscriber).expect("subscriber connects");
    while handle.sessions() < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));

    let expected = (load_cfg.chains * load_cfg.ticks) as u64;
    let consumer = std::thread::spawn(move || {
        let mut seen = 0u64;
        while seen < expected {
            match subscriber.recv_verdict(Duration::from_secs(5)) {
                Ok(Some(_)) => seen += 1,
                Ok(None) | Err(_) => break,
            }
        }
        seen
    });

    let t0 = Instant::now();
    let load = run_load(addr, load_cfg).expect("load generator");
    let verdicts_seen = consumer.join().expect("subscriber thread");
    let wall = t0.elapsed();
    let report = handle.shutdown();

    PassResult {
        label,
        load,
        report,
        verdicts_seen,
        fps: verdicts_seen as f64 / wall.as_secs_f64(),
        wall,
    }
}

fn main() {
    let min_fps: f64 = env_or("MIN_NETSERVE_FPS", 10_000.0);
    let ticks: usize = env_or("NETSERVE_TICKS", 600);

    // Same quick MLP build the fleet-throughput study uses: the serving
    // plane treats the firmware as an opaque executor.
    let bundle = mlp_bundle();
    let firmware = paper_firmware(&bundle, 50);
    let standardizer = bundle.standardizer.clone();

    let closed_cfg = LoadGenConfig {
        chains: 8,
        ticks,
        seed: SEED,
        window: 512,
    };
    let open_cfg = LoadGenConfig {
        window: 0,
        ..closed_cfg.clone()
    };

    println!("netserve throughput: loopback TCP gateway, 8 chains x {ticks} ticks (seed {SEED})");
    let passes = [
        run_pass("closed-loop", &firmware, &standardizer, &closed_cfg),
        run_pass("open-loop", &firmware, &standardizer, &open_cfg),
    ];

    println!(
        "{:>12} {:>9} {:>9} {:>10} {:>12} {:>10} {:>8} {:>8}",
        "mode", "frames", "acks", "verdicts", "wall ms", "fps", "gaps", "drops"
    );
    for p in &passes {
        println!(
            "{:>12} {:>9} {:>9} {:>10} {:>12.1} {:>10.0} {:>8} {:>8}",
            p.label,
            p.load.frames_sent,
            p.load.acks_received,
            p.verdicts_seen,
            p.wall.as_secs_f64() * 1e3,
            p.fps,
            p.report.net.sequence_gaps,
            p.report.net.slow_consumer_drops,
        );
    }

    for p in &passes {
        let expected = (closed_cfg.chains * closed_cfg.ticks) as u64;
        assert_eq!(p.load.frames_sent, expected, "{}: frames sent", p.label);
        assert_eq!(
            p.report.net.frames_assembled, expected,
            "{}: every frame assembles",
            p.label
        );
        assert_eq!(p.report.net.decode_errors, 0, "{}: clean wire", p.label);
        assert_eq!(
            p.report.net.backpressure_drops, 0,
            "{}: Block policy sheds nothing",
            p.label
        );
        assert_eq!(
            p.report.fleet.processed(),
            expected,
            "{}: every frame produced a verdict",
            p.label
        );
        assert_eq!(
            p.verdicts_seen, expected,
            "{}: every verdict reached the subscriber",
            p.label
        );
        assert!(p.verdicts_seen > 0, "{}: served zero frames", p.label);
    }

    let closed_fps = passes[0].fps;
    println!("\nclosed-loop end-to-end rate: {closed_fps:.0} frames/s (floor {min_fps:.0})");
    assert!(
        closed_fps >= min_fps,
        "serving-plane throughput regression: {closed_fps:.0} fps < {min_fps:.0} fps floor"
    );

    let rows = passes
        .iter()
        .map(|p| Row {
            mode: p.label,
            frames: p.load.frames_sent,
            acks: p.load.acks_received,
            verdicts: p.verdicts_seen,
            wall_ms: p.wall.as_secs_f64() * 1e3,
            fps: p.fps,
            sim_ingest_ms: p.report.sim_ingest.as_millis_f64(),
            sequence_gaps: p.report.net.sequence_gaps,
            slow_consumer_drops: p.report.net.slow_consumer_drops,
        })
        .collect();
    let report = Report {
        seed: SEED,
        ticks,
        chains: closed_cfg.chains,
        min_fps,
        closed_loop_fps: closed_fps,
        rows,
    };
    let path = reads_bench::write_trajectory("BENCH_netserve.json", &report);
    println!("trajectory written to {}", path.display());
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_trajectory_keeps_its_schema() {
        reads_bench::assert_trajectory_schema::<super::Report>("BENCH_netserve.json");
    }
}
