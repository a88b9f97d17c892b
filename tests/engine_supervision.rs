//! Shard-supervision contracts.
//!
//! PR 1 proved the watchdog ladder inside one SoC; PR 2 proved a wedged
//! shard degrades only itself. The supervisor closes the loop: a shard
//! whose *every* replica wedges is restarted with a fresh executor built
//! from the same digest-pinned firmware, its in-flight frames are
//! re-served, and the episode is visible in the counters — while a shard
//! that keeps wedging past its restart budget **trips** (it never
//! panics, and it never stalls a `Block`-policy submitter). A respawned
//! worker rings the results doorbell like the one it replaces, and the
//! requeued frames leave the engine before anything queued behind them.

use reads::blm::hubs::MultiChainSource;
use reads::blm::Standardizer;
use reads::central::engine::{
    BatchOutcome, DropPolicy, EngineConfig, NativeExecutor, ShardExecutor, ShardedEngine,
    SocExecutor,
};
use reads::central::resilience::{HealthState, SupervisorPolicy, WatchdogPolicy};
use reads::hls4ml::{convert, profile_model, Firmware, HlsConfig};
use reads::nn::models;
use reads::soc::faults::FaultPlan;
use reads::soc::HpsModel;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn mlp_firmware(seed: u64) -> Firmware {
    let m = models::reads_mlp(seed);
    let calib = vec![vec![0.3; 259], vec![-0.4; 259]];
    let profile = profile_model(&m, &calib);
    convert(&m, &profile, &HlsConfig::paper_default())
}

fn standardizer() -> Standardizer {
    Standardizer {
        mean: 112_000.0,
        std: 3_500.0,
    }
}

fn fast_policy(max_restarts: u32) -> SupervisorPolicy {
    SupervisorPolicy {
        max_restarts,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
    }
}

/// A supervised one-shard engine whose first incarnation wedges on its
/// first batch: every replica runs a stuck-FSM plan that defeats the
/// whole watchdog ladder. Replacement incarnations are clean.
fn wedge_once_engine(fw: &Firmware, std: &Standardizer) -> ShardedEngine {
    let hps = HpsModel::default();
    let mut incarnation = 0u32;
    let fw_factory = fw.clone();
    ShardedEngine::start_supervised(
        &EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        std,
        move |shard| {
            let mut exec = SocExecutor::new(
                fw_factory.clone(),
                &hps,
                2,
                WatchdogPolicy::default(),
                7 ^ shard as u64,
            );
            if incarnation == 0 {
                for ip in 0..2 {
                    exec.array_mut()
                        .set_fault_plan_on(ip, Some(FaultPlan::stuck_fsm(1.0, 5)));
                }
            }
            incarnation += 1;
            Box::new(exec)
        },
        fast_policy(3),
    )
}

/// A stuck-FSM fault plan wedges every replica of the shard; the
/// supervisor restarts it within budget with a clean executor and the
/// in-flight frames are re-served — nothing lost, restart visible in the
/// counters, shard health lands on Degraded (it *did* wedge once).
#[test]
fn supervisor_restarts_wedged_shard_and_reserves_in_flight_frames() {
    let fw = mlp_firmware(44);
    let std = standardizer();
    let stream = MultiChainSource::new(2, 91).ticks(6);
    let total = stream.len();

    // Reference: the same stream through a never-faulted native engine.
    let (want, _) = ShardedEngine::run_stream(
        &EngineConfig::default(),
        &std,
        |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
        stream.clone(),
    );

    let mut engine = wedge_once_engine(&fw, &std);
    for f in stream {
        engine.submit(f);
    }
    let (results, report) = engine.finish();

    assert_eq!(results.len(), total, "every in-flight frame was re-served");
    assert_eq!(report.processed() as usize, total);
    let shard = &report.shards[0];
    assert_eq!(shard.lost, 0, "restart means re-serve, not loss");
    assert_eq!(shard.counters.shard_restarts, 1, "exactly one restart");
    assert_eq!(shard.counters.restarts_denied, 0);
    assert_eq!(
        shard.health,
        HealthState::Degraded,
        "a restarted shard is degraded, not healthy and not tripped"
    );
    // The re-served verdicts are bit-identical to the unfaulted run.
    assert_eq!(want.len(), results.len());
    for (a, b) in want.iter().zip(&results) {
        assert_eq!((a.chain, a.sequence), (b.chain, b.sequence));
        assert_eq!(
            a.verdict, b.verdict,
            "chain {} seq {} drifted across the restart",
            a.chain, a.sequence
        );
    }
}

/// A shard that wedges on every incarnation exhausts its budget and
/// trips. `finish` still returns (no panic, no stall — the `Block`
/// policy would deadlock here if the dead shard stopped draining), all
/// frames are accounted lost, and the denial is counted.
#[test]
fn shard_exceeding_restart_budget_trips_without_stalling() {
    let fw = mlp_firmware(44);
    let hps = HpsModel::default();
    let std = standardizer();
    let stream = MultiChainSource::new(1, 13).ticks(8);
    let total = stream.len();

    let fw_factory = fw.clone();
    let mut engine = ShardedEngine::start_supervised(
        &EngineConfig {
            workers: 1,
            queue_depth: 4, // small queue: Block backpressure is exercised
            drop_policy: DropPolicy::Block,
            ..EngineConfig::default()
        },
        &std,
        move |shard| {
            let mut exec = SocExecutor::new(
                fw_factory.clone(),
                &hps,
                2,
                WatchdogPolicy::default(),
                3 ^ shard as u64,
            );
            // Every incarnation is born wedged — the fault is persistent,
            // so no restart budget can save this shard.
            exec.array_mut().mark_wedged(0);
            exec.array_mut().mark_wedged(1);
            Box::new(exec)
        },
        fast_policy(2),
    );
    for f in stream {
        engine.submit(f); // Block policy: this would deadlock on a stall
    }
    let (results, report) = engine.finish();

    assert!(results.is_empty(), "a tripped shard produces nothing");
    let shard = &report.shards[0];
    assert_eq!(shard.processed, 0);
    assert_eq!(shard.lost as usize, total, "every frame is accounted lost");
    assert_eq!(shard.counters.shard_restarts, 2, "budget fully spent");
    assert_eq!(shard.counters.restarts_denied, 1, "the denial is counted");
    assert_eq!(
        shard.health,
        HealthState::Tripped,
        "past-budget shard trips loudly"
    );
    assert_eq!(report.worst_health(), HealthState::Tripped);
}

/// The doorbell survives a restart: the replacement worker the supervisor
/// spawns carries the same hub, so a consumer that sleeps on nothing but
/// the doorbell (a park running out its long timeout is the failure)
/// collects the re-served frames too, bit-identical to an unfaulted run.
#[test]
fn doorbell_rings_across_a_supervised_restart() {
    const RING_LOST: Duration = Duration::from_secs(20);
    let fw = mlp_firmware(44);
    let std = standardizer();
    let stream = MultiChainSource::new(2, 91).ticks(6);
    let total = stream.len();
    let (want, _) = ShardedEngine::run_stream(
        &EngineConfig::default(),
        &std,
        |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
        stream.clone(),
    );

    let mut engine = wedge_once_engine(&fw, &std);
    engine.ring_on_results(std::thread::current());
    for f in stream {
        engine.submit(f);
    }
    let mut got = Vec::new();
    loop {
        got.extend(engine.poll_results());
        if got.len() >= total {
            break;
        }
        let parked = Instant::now();
        std::thread::park_timeout(RING_LOST);
        assert!(
            parked.elapsed() < RING_LOST,
            "doorbell never rang: {} of {total} results after {RING_LOST:?}",
            got.len()
        );
    }
    let (rest, report) = engine.finish();
    assert!(rest.is_empty(), "everything was collected while running");
    assert_eq!(report.shards[0].counters.shard_restarts, 1);
    assert_eq!(report.shards[0].lost, 0);
    got.sort_by_key(|r| (r.chain, r.sequence));
    assert_eq!(want.len(), got.len());
    for (a, b) in want.iter().zip(&got) {
        assert_eq!((a.chain, a.sequence), (b.chain, b.sequence));
        assert_eq!(a.verdict, b.verdict, "chain {} seq {}", a.chain, a.sequence);
    }
}

/// Serves `healthy` frames, then wedges on the batch that would cross
/// that mark: it first waits for `release`, so everything submitted
/// meanwhile is queued behind the wedged batch, then answers none of the
/// batch's frames and reports itself wedged.
struct WedgeAfter {
    inner: NativeExecutor,
    healthy: usize,
    release: Option<mpsc::Receiver<()>>,
    wedged: bool,
}

impl ShardExecutor for WedgeAfter {
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn run_batch(&mut self, inputs: &[Vec<f64>]) -> BatchOutcome {
        if inputs.len() <= self.healthy {
            self.healthy -= inputs.len();
            return self.inner.run_batch(inputs);
        }
        if let Some(release) = self.release.take() {
            let _ = release.recv_timeout(Duration::from_secs(20));
        }
        self.wedged = true;
        let mut outcome = self.inner.run_batch(inputs);
        outcome.outputs.fill(None);
        outcome
    }

    fn wedged(&self) -> bool {
        self.wedged
    }
}

/// `finish` sorts results by `(chain, sequence)`, so only a consumer that
/// drains `poll_results` while the engine runs sees the order in which
/// verdicts leave it. Across a restart with frames still queued behind the
/// wedged batch, every chain's emitted sequences must stay strictly
/// increasing and gap-free: the requeued frames go out before the ones
/// that waited in the channel.
#[test]
fn requeued_frames_are_emitted_in_chain_order_across_a_restart() {
    const CHAINS: u32 = 3;
    const TICKS: u32 = 12;
    const PATIENCE: Duration = Duration::from_secs(20);
    let fw = mlp_firmware(44);
    let std = standardizer();
    let stream = MultiChainSource::new(CHAINS as usize, 57).ticks(TICKS as usize);
    let total = stream.len();
    let (release_tx, release_rx) = mpsc::channel();
    let mut release_rx = Some(release_rx);
    let hps = HpsModel::default();
    let fw_factory = fw.clone();
    let mut engine = ShardedEngine::start_supervised(
        &EngineConfig {
            workers: 1,
            batch: 4,
            ..EngineConfig::default()
        },
        &std,
        move |_| {
            let inner = NativeExecutor::compiled(&fw_factory, &hps);
            match release_rx.take() {
                // First incarnation: wedges once five frames are served.
                Some(release) => Box::new(WedgeAfter {
                    inner,
                    healthy: 5,
                    release: Some(release),
                    wedged: false,
                }),
                None => Box::new(inner),
            }
        },
        fast_policy(3),
    );

    let collect = |engine: &ShardedEngine, emitted: &mut Vec<(u32, u32)>| {
        emitted.extend(engine.poll_results().iter().map(|r| (r.chain, r.sequence)));
    };
    let mut emitted = Vec::with_capacity(total);
    for f in stream {
        assert!(engine.submit(f));
        collect(&engine, &mut emitted);
    }
    release_tx.send(()).expect("first incarnation is waiting");
    let started = Instant::now();
    while emitted.len() < total && started.elapsed() < PATIENCE {
        collect(&engine, &mut emitted);
        std::thread::yield_now();
    }
    let (rest, report) = engine.finish();
    assert!(rest.is_empty(), "everything was collected while running");
    let shard = &report.shards[0];
    assert_eq!(shard.counters.shard_restarts, 1, "exactly one restart");
    assert_eq!(shard.lost, 0, "restart means re-serve, not loss");

    let mut per_chain: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (chain, seq) in emitted {
        per_chain.entry(chain).or_default().push(seq);
    }
    assert_eq!(per_chain.len(), CHAINS as usize);
    for (chain, seqs) in per_chain {
        assert_eq!(
            seqs,
            (0..TICKS).collect::<Vec<u32>>(),
            "chain {chain} left the engine out of order or with a gap"
        );
    }
}
