//! Chaos soak: the serving plane under a sweep of deterministic fault
//! intensities — connection cuts, byte corruption, stalls and partial
//! writes on the network flank ([`ChaosProxy`]) composed with a stuck-FSM
//! [`FaultPlan`] wedging one shard on the SoC flank, so the supervised
//! restart path runs inside every faulted pass.
//!
//! For each intensity a resilient producer streams multi-chain hub
//! frames through the proxy while a resilient subscriber collects
//! verdicts; both reconnect-and-resume through every fault. Reported per
//! intensity: availability (distinct verdicts delivered / frames sent),
//! acked-frame loss (acked but never served — must be **zero**
//! everywhere), reconnects, resumes, mean time to recovery, supervised
//! restarts and the simulated deadline-miss fraction.
//!
//! Asserts zero acked-frame loss at every intensity, at least one
//! supervised shard restart in every faulted pass, and availability
//! ≥ 99% with MTTR ≤ 250 ms at the default intensity (0.002). Writes
//! `BENCH_chaos_soak.json` at the repo root. `CHAOS_TICKS` and
//! `CHAOS_CHAINS` scale the run.
//!
//! ```sh
//! cargo run --release -p reads-bench --bin chaos_soak
//! ```

use reads_bench::{env_or, mlp_bundle, paper_firmware};
use reads_blm::acnet::DeblendVerdict;
use reads_blm::dataset::Standardizer;
use reads_blm::hubs::{assemble_frame, ChainFrame, MultiChainSource};
use reads_core::engine::{DropPolicy, EngineConfig, ShardedEngine, SocExecutor};
use reads_core::resilience::{SupervisorPolicy, WatchdogPolicy};
use reads_hls4ml::Firmware;
use reads_net::chaos::{ChaosConfig, ChaosProxy};
use reads_net::fleet::{FleetConfig, FleetProducer, FleetSubscriber, GatewayFleet};
use reads_net::resilient::{ResilienceConfig, ResilientClient};
use reads_net::{GatewayConfig, HubGateway, Msg, Role, SlowConsumerPolicy};
use reads_soc::faults::FaultPlan;
use reads_soc::HpsModel;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

const SEED: u64 = 31;
const INTENSITIES: [f64; 4] = [0.0, 0.002, 0.01, 0.05];
/// The intensity whose availability/MTTR floor is enforced.
const DEFAULT_INTENSITY: f64 = 0.002;
const MIN_AVAILABILITY: f64 = 0.99;
const MAX_MTTR_MS: f64 = 250.0;
/// Simulated per-frame latency budget (the paper's real-time envelope).
const DEADLINE_MS: f64 = 3.0;
/// Fleet-kill pass: gateways in the federation.
const FLEET_GATEWAYS: usize = 3;
/// Fleet-kill pass MTTR ceiling — a whole-gateway death costs the
/// heartbeat-detection window plus the client's routed failover, so the
/// bound is looser than the single-gateway cut bound.
const MAX_FLEET_MTTR_MS: f64 = 2_000.0;
/// Supervisor detection-latency ceiling for a logged kill.
const MAX_DETECTION_MS: f64 = 1_500.0;

/// The trajectory `BENCH_chaos_soak.json` holds.
#[derive(Serialize, Deserialize)]
struct Report {
    seed: u64,
    ticks: usize,
    chains: usize,
    min_availability: f64,
    max_mttr_ms: f64,
    deadline_ms: f64,
    rows: Vec<Row>,
    fleet_kill: Option<FleetKillRow>,
}

#[derive(Serialize, Deserialize)]
struct Row {
    intensity: f64,
    frames: usize,
    delivered: usize,
    availability: f64,
    acked: usize,
    acked_loss: usize,
    reconnects: u64,
    resumes: u64,
    fresh_sessions: u64,
    mttr_ms: f64,
    restarts: u64,
    cuts: u64,
    corruptions: u64,
    stalls: u64,
    deadline_miss: f64,
    wall_ms: f64,
}

#[allow(clippy::too_many_lines)]
fn run_intensity(
    intensity: f64,
    ticks: usize,
    chains: usize,
    firmware: &Firmware,
    standardizer: &Standardizer,
) -> Row {
    let frames = MultiChainSource::new(chains, SEED).ticks(ticks);
    let expected = frames.len();

    // Supervised simulated-SoC engine. In faulted passes shard 1's first
    // incarnation runs a stuck-FSM fault plan on every replica — the
    // supervisor restarts it and re-serves the in-flight frames, so the
    // SoC fault plane and the network chaos plane are exercised together.
    let fw_engine = firmware.clone();
    let hps = HpsModel::default();
    let faulted = intensity > 0.0;
    let mut first_build_of_shard_1 = true;
    let engine = ShardedEngine::start_supervised(
        &EngineConfig {
            workers: 2,
            batch: 8,
            queue_depth: 256,
            drop_policy: DropPolicy::Block,
            ..EngineConfig::default()
        },
        standardizer,
        move |shard| {
            let mut exec = SocExecutor::new(
                fw_engine.clone(),
                &hps,
                2,
                WatchdogPolicy::default(),
                SEED ^ shard as u64,
            );
            if faulted && shard == 1 && first_build_of_shard_1 {
                first_build_of_shard_1 = false;
                for ip in 0..2 {
                    exec.array_mut()
                        .set_fault_plan_on(ip, Some(FaultPlan::stuck_fsm(1.0, 5)));
                }
            }
            Box::new(exec)
        },
        SupervisorPolicy {
            max_restarts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
        },
    );
    let handle = HubGateway::start(
        "127.0.0.1:0",
        GatewayConfig {
            outbound_queue: 16 * 1024,
            slow_consumer: SlowConsumerPolicy::DropNewest,
            ..GatewayConfig::default()
        },
        engine,
    )
    .expect("bind gateway");

    let proxy = ChaosProxy::start(
        handle.local_addr(),
        ChaosConfig {
            seed: SEED ^ intensity.to_bits(),
            cut_rate: intensity,
            corrupt_rate: intensity * 0.5,
            stall_rate: (intensity * 2.0).min(0.2),
            stall: Duration::from_millis(2),
            max_chunk: 1024,
            min_bytes_before_cut: 8 * 1024,
        },
    )
    .expect("bind chaos proxy");
    let addr = proxy.local_addr();

    let client_cfg = |seed: u64| ResilienceConfig {
        max_reconnect_attempts: 30,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        seed,
        ..ResilienceConfig::default()
    };
    let mut subscriber = ResilientClient::connect(addr, Role::Subscriber, client_cfg(202))
        .expect("subscriber connects");
    while handle.sessions() < 1 {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(20));

    let consumer = std::thread::spawn(move || {
        let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(25);
        while seen.len() < expected && Instant::now() < deadline {
            match subscriber.recv(Duration::from_millis(50)) {
                Ok(Some(Msg::Verdict(v))) => {
                    seen.insert((v.chain, v.verdict.sequence));
                }
                Ok(_) => {}
                Err(e) => panic!("subscriber gave up: {e}"),
            }
        }
        (seen, subscriber.stats())
    });

    let mut producer =
        ResilientClient::connect(addr, Role::Producer, client_cfg(101)).expect("producer connects");
    let mut acked: BTreeSet<(u32, u32)> = BTreeSet::new();
    let t0 = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        producer.send_frame(frame).expect("send survives chaos");
        if i % chains == chains - 1 {
            // One opportunistic ack drain per tick keeps the replay
            // buffer from ballooning under heavy cut rates.
            if let Ok(Some(Msg::FrameAck { chain, sequence })) =
                producer.recv(Duration::from_millis(1))
            {
                acked.insert((chain, sequence));
            }
        }
    }
    // Drain acks; nudge a full replay whenever progress stalls (e.g. a
    // corrupted packet punched a hole in a half-assembled frame).
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last_progress = Instant::now();
    while producer.unacked_len() > 0 && Instant::now() < deadline {
        match producer.recv(Duration::from_millis(20)) {
            Ok(Some(Msg::FrameAck { chain, sequence })) => {
                acked.insert((chain, sequence));
                last_progress = Instant::now();
            }
            Ok(_) => {}
            Err(e) => panic!("producer gave up: {e}"),
        }
        if last_progress.elapsed() > Duration::from_millis(300) {
            let _ = producer.replay_unacked().expect("replay nudge");
            last_progress = Instant::now();
        }
    }
    let wall = t0.elapsed();
    let producer_stats = producer.stats();
    drop(producer);

    let (delivered, subscriber_stats) = consumer.join().expect("subscriber thread");
    let chaos = proxy.shutdown();
    let report = handle.shutdown(); // a supervisor panic would surface here

    let acked_loss = acked.iter().filter(|k| !delivered.contains(*k)).count();
    let disconnects = producer_stats.disconnects + subscriber_stats.disconnects;
    let outage = producer_stats.outage + subscriber_stats.outage;
    let mttr_ms = if disconnects == 0 {
        0.0
    } else {
        outage.as_secs_f64() * 1e3 / disconnects as f64
    };
    let timings: Vec<f64> = report
        .fleet
        .shards
        .iter()
        .flat_map(|s| s.timings().map(|t| t.total.as_millis_f64()))
        .collect();
    let deadline_miss = if timings.is_empty() {
        0.0
    } else {
        timings.iter().filter(|&&ms| ms > DEADLINE_MS).count() as f64 / timings.len() as f64
    };
    let merged = report.fleet.merged_counters();

    Row {
        intensity,
        frames: expected,
        delivered: delivered.len(),
        availability: delivered.len() as f64 / expected as f64,
        acked: acked.len(),
        acked_loss,
        reconnects: disconnects,
        resumes: producer_stats.resumed + subscriber_stats.resumed,
        fresh_sessions: producer_stats.fresh_sessions + subscriber_stats.fresh_sessions,
        mttr_ms,
        restarts: merged.shard_restarts,
        cuts: chaos.cuts,
        corruptions: chaos.corruptions,
        stalls: chaos.stalls,
        deadline_miss,
        wall_ms: wall.as_secs_f64() * 1e3,
    }
}

#[derive(Serialize, Deserialize)]
struct FleetKillRow {
    gateways: usize,
    killed: u32,
    frames: usize,
    delivered: usize,
    availability: f64,
    acked_loss: usize,
    bit_identical: bool,
    handoffs: u64,
    failovers: u64,
    resumes: u64,
    fresh_sessions: u64,
    duplicates: u64,
    detection_ms: f64,
    mttr_ms: f64,
    max_mttr_ms: f64,
    wall_ms: f64,
}

/// In-process golden run — the bit-exact reference the killed fleet must
/// still reproduce.
fn golden(
    fw: &Firmware,
    std: &Standardizer,
    frames: &[ChainFrame],
) -> BTreeMap<(u32, u32), Vec<u64>> {
    let n_in = fw.input_len * fw.input_channels;
    let mut expect = BTreeMap::new();
    for cf in frames {
        let readings = assemble_frame(&cf.packets).expect("synthetic frame assembles");
        let (out, _) = fw.infer(&std.apply_frame(&readings[..n_in]));
        let verdict = if out.len() == 2 * reads_blm::N_BLM {
            DeblendVerdict::from_interleaved(cf.sequence, &out)
        } else {
            DeblendVerdict::from_split_halves(cf.sequence, &out)
        };
        let flat: Vec<u64> = verdict
            .mi
            .iter()
            .chain(verdict.rr.iter())
            .map(|x| x.to_bits())
            .collect();
        expect.insert((cf.chain, cf.sequence), flat);
    }
    expect
}

/// Fleet-kill pass: a federated fleet serves the stream while the owner
/// of chain 0 is SIGKILL-killed mid-run. The supervisor detects the
/// death by heartbeat timeout; chain-pinned producers re-route and
/// refeed retained acked frames; subscriber sessions hand off via
/// gossip. Asserted downstream: zero acked-frame loss, availability and
/// fleet MTTR within bounds, merged verdict stream bit-identical to the
/// unkilled golden run.
#[allow(clippy::too_many_lines)]
fn run_fleet_kill(
    ticks: usize,
    chains: usize,
    firmware: &Firmware,
    standardizer: &Standardizer,
) -> FleetKillRow {
    let frames = MultiChainSource::new(chains, SEED).ticks(ticks);
    let expected = frames.len();
    let expect = golden(firmware, standardizer, &frames);

    let fleet_cfg = FleetConfig {
        gateways: FLEET_GATEWAYS,
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(400),
        gossip_interval: Duration::from_millis(50),
        gateway: GatewayConfig {
            outbound_queue: 16 * 1024,
            slow_consumer: SlowConsumerPolicy::DropNewest,
            ..GatewayConfig::default()
        },
        chains_hint: u32::try_from(chains).expect("chain count fits u32"),
    };
    let engine_cfg = EngineConfig {
        workers: 2,
        batch: 8,
        queue_depth: 256,
        drop_policy: DropPolicy::Block,
        ..EngineConfig::default()
    };
    let mut fleet = GatewayFleet::start_local(
        fleet_cfg,
        ShardedEngine::native_factory(&engine_cfg, firmware, &HpsModel::default(), standardizer),
    )
    .expect("fleet starts");
    let addrs = fleet.addrs();
    let victim = fleet.state().owner_of(0).expect("chain 0 has an owner");

    let client_cfg = |seed: u64| ResilienceConfig {
        max_reconnect_attempts: 40,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        seed,
        insist_resume: 20,
        acked_retention: 4096,
        ..ResilienceConfig::default()
    };
    let mut subscriber =
        FleetSubscriber::connect(&addrs, &client_cfg(202)).expect("subscribers connect");
    while (0..FLEET_GATEWAYS)
        .map(|i| fleet.sessions(u32::try_from(i).expect("small fleet")))
        .sum::<u64>()
        < FLEET_GATEWAYS as u64
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(30));
    let mut producer = FleetProducer::new(&addrs, client_cfg(101));

    let mut got: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
    let collect = |sub: &mut FleetSubscriber, got: &mut BTreeMap<(u32, u32), Vec<u64>>| {
        for v in sub.poll(Duration::from_millis(5)) {
            let flat: Vec<u64> = v
                .verdict
                .mi
                .iter()
                .chain(v.verdict.rr.iter())
                .map(|x| x.to_bits())
                .collect();
            got.insert((v.chain, v.verdict.sequence), flat);
        }
    };

    let kill_after_tick = ticks / 2;
    let t0 = Instant::now();
    for (tick, tick_frames) in frames.chunks(chains).enumerate() {
        for frame in tick_frames {
            producer.send_frame(frame).expect("send survives the kill");
        }
        producer
            .drain_acks(Duration::from_millis(1))
            .expect("ack pump");
        collect(&mut subscriber, &mut got);
        if tick + 1 == kill_after_tick {
            let _ = fleet.kill_gateway(victim);
        }
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while (got.len() < expected || producer.unacked_total() > 0) && Instant::now() < deadline {
        producer
            .drain_acks(Duration::from_millis(25))
            .expect("final ack pump");
        collect(&mut subscriber, &mut got);
    }
    let wall = t0.elapsed();

    let producer_stats = producer.stats();
    let subscriber_stats = subscriber.stats();
    let duplicates = subscriber.duplicates();
    let unacked = producer.unacked_total();
    drop(producer);
    drop(subscriber);
    let report = fleet.shutdown();

    assert_eq!(unacked, 0, "fleet kill: every frame must end up acked");
    let bit_identical = expect
        .iter()
        .all(|(key, want)| got.get(key).is_some_and(|served| served == want));
    let disconnects = producer_stats.disconnects + subscriber_stats.disconnects;
    let outage = producer_stats.outage + subscriber_stats.outage;
    let mttr_ms = if disconnects == 0 {
        0.0
    } else {
        outage.as_secs_f64() * 1e3 / disconnects as f64
    };
    let handoffs: u64 = report.gateways.iter().map(|(_, r)| r.net.handoffs).sum();
    println!("{}", report.fleet_console);

    FleetKillRow {
        gateways: FLEET_GATEWAYS,
        killed: victim,
        frames: expected,
        delivered: got.len(),
        availability: got.len() as f64 / expected as f64,
        acked_loss: expected - got.len(),
        bit_identical,
        handoffs,
        failovers: producer_stats.failovers + subscriber_stats.failovers,
        resumes: producer_stats.resumed + subscriber_stats.resumed,
        fresh_sessions: producer_stats.fresh_sessions + subscriber_stats.fresh_sessions,
        duplicates,
        detection_ms: report.detection_ms.first().copied().unwrap_or(f64::NAN),
        mttr_ms,
        max_mttr_ms: MAX_FLEET_MTTR_MS,
        wall_ms: wall.as_secs_f64() * 1e3,
    }
}

fn main() {
    let kill_gateways = std::env::args().any(|a| a == "--kill-gateways");
    let ticks: usize = env_or("CHAOS_TICKS", 60);
    let chains: usize = env_or("CHAOS_CHAINS", 4);

    let bundle = mlp_bundle();
    let firmware = paper_firmware(&bundle, 50);
    let standardizer = bundle.standardizer.clone();

    println!(
        "chaos soak: {chains} chains x {ticks} ticks through the chaos proxy (seed {SEED}), \
         intensities {INTENSITIES:?}"
    );
    let rows: Vec<Row> = INTENSITIES
        .iter()
        .map(|&i| run_intensity(i, ticks, chains, &firmware, &standardizer))
        .collect();

    println!(
        "{:>10} {:>7} {:>9} {:>12} {:>10} {:>10} {:>8} {:>9} {:>9} {:>10} {:>10}",
        "intensity",
        "frames",
        "delivered",
        "availability",
        "acked-loss",
        "reconnects",
        "resumes",
        "mttr ms",
        "restarts",
        "ddl-miss",
        "wall ms"
    );
    for r in &rows {
        println!(
            "{:>10.3} {:>7} {:>9} {:>12.4} {:>10} {:>10} {:>8} {:>9.1} {:>9} {:>10.4} {:>10.1}",
            r.intensity,
            r.frames,
            r.delivered,
            r.availability,
            r.acked_loss,
            r.reconnects,
            r.resumes,
            r.mttr_ms,
            r.restarts,
            r.deadline_miss,
            r.wall_ms,
        );
    }

    for r in &rows {
        assert_eq!(
            r.acked_loss, 0,
            "intensity {}: {} acked frames lost their verdict",
            r.intensity, r.acked_loss
        );
        assert_eq!(
            r.acked, r.frames,
            "intensity {}: every frame must end up acked",
            r.intensity
        );
        if r.intensity > 0.0 {
            assert!(
                r.restarts >= 1,
                "intensity {}: the wedged shard was never restarted",
                r.intensity
            );
        }
    }
    let default_row = rows
        .iter()
        .find(|r| (r.intensity - DEFAULT_INTENSITY).abs() < 1e-12)
        .expect("default intensity swept");
    assert!(
        default_row.availability >= MIN_AVAILABILITY,
        "availability regression at default intensity: {:.4} < {MIN_AVAILABILITY}",
        default_row.availability
    );
    assert!(
        default_row.mttr_ms <= MAX_MTTR_MS,
        "recovery regression at default intensity: MTTR {:.1} ms > {MAX_MTTR_MS} ms",
        default_row.mttr_ms
    );
    println!(
        "\ndefault intensity {DEFAULT_INTENSITY}: availability {:.4} (floor {MIN_AVAILABILITY}), \
         MTTR {:.1} ms (ceiling {MAX_MTTR_MS} ms), zero acked-frame loss everywhere",
        default_row.availability, default_row.mttr_ms
    );

    let fleet_row = if kill_gateways {
        println!(
            "\nfleet-kill pass: {FLEET_GATEWAYS} gateways, killing the owner of chain 0 mid-run"
        );
        let row = run_fleet_kill(ticks, chains, &firmware, &standardizer);
        println!(
            "fleet kill: gw {} killed | {}/{} verdicts | availability {:.4} | acked loss {} | \
             bit-identical {} | handoffs {} | failovers {} | resumes {} | fresh {} | dups {} | \
             detection {:.1} ms | MTTR {:.1} ms | wall {:.1} ms",
            row.killed,
            row.delivered,
            row.frames,
            row.availability,
            row.acked_loss,
            row.bit_identical,
            row.handoffs,
            row.failovers,
            row.resumes,
            row.fresh_sessions,
            row.duplicates,
            row.detection_ms,
            row.mttr_ms,
            row.wall_ms,
        );
        assert_eq!(
            row.acked_loss, 0,
            "fleet kill: acked frames lost their verdict"
        );
        assert!(
            row.bit_identical,
            "fleet kill: verdict stream drifted from the unkilled golden run"
        );
        assert!(
            row.availability >= MIN_AVAILABILITY,
            "fleet kill: availability {:.4} < {MIN_AVAILABILITY}",
            row.availability
        );
        assert!(
            row.mttr_ms <= MAX_FLEET_MTTR_MS,
            "fleet kill: MTTR {:.1} ms > {MAX_FLEET_MTTR_MS} ms",
            row.mttr_ms
        );
        assert!(
            row.detection_ms <= MAX_DETECTION_MS,
            "fleet kill: supervisor detection {:.1} ms > {MAX_DETECTION_MS} ms",
            row.detection_ms
        );
        assert!(
            row.handoffs >= 1,
            "fleet kill: no survivor imported an orphaned session"
        );
        Some(row)
    } else {
        None
    };

    let report = Report {
        seed: SEED,
        ticks,
        chains,
        min_availability: MIN_AVAILABILITY,
        max_mttr_ms: MAX_MTTR_MS,
        deadline_ms: DEADLINE_MS,
        rows,
        fleet_kill: fleet_row,
    };
    let path = reads_bench::write_trajectory("BENCH_chaos_soak.json", &report);
    println!("trajectory written to {}", path.display());
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_trajectory_keeps_its_schema() {
        reads_bench::assert_trajectory_schema::<super::Report>("BENCH_chaos_soak.json");
    }
}
