//! Concurrency tests for the sharded inference engine.
//!
//! The contracts under test:
//!
//! * worker count is unobservable in the *outputs* — an N-worker run
//!   produces the same verdicts, bit for bit, as a 1-worker run of the
//!   same deterministic stream;
//! * shutdown drains: every accepted frame is accounted processed, lost,
//!   or dropped — nothing vanishes, under either drop policy;
//! * backpressure edges are exact: a full shard queue under `DropNewest`
//!   sheds precisely the overflow (proved with a barrier-held worker, not
//!   sleeps);
//! * one wedged shard degrades only itself — the other shards' frames all
//!   complete (the PR 1 watchdog isolation property, now per shard);
//! * the results doorbell: a consumer registered with `ring_on_results`
//!   that sleeps on nothing else still collects every result, from the
//!   single-model and the multi-tenant constructors, and an engine with
//!   nobody registered produces the same results and reports.

use reads::blm::hubs::MultiChainSource;
use reads::blm::Standardizer;
use reads::central::engine::{
    BatchOutcome, DropPolicy, EngineConfig, FrameResult, NativeExecutor, ShardExecutor,
    ShardedEngine, SocExecutor,
};
use reads::central::resilience::{HealthState, WatchdogPolicy};
use reads::central::{ModelRegistry, PlacementPlanner, ShardBudget};
use reads::hls4ml::{convert, profile_model, Firmware, HlsConfig};
use reads::nn::models;
use reads::sim::SimDuration;
use reads::soc::node::FrameTiming;
use reads::soc::HpsModel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
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

#[test]
fn worker_count_does_not_change_outputs() {
    let fw = mlp_firmware(21);
    let std = standardizer();
    let stream = MultiChainSource::new(6, 77).ticks(10);
    let run = |workers: usize| {
        ShardedEngine::run_stream(
            &EngineConfig {
                workers,
                batch: 4,
                ..EngineConfig::default()
            },
            &std,
            |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
            stream.clone(),
        )
        .0
    };
    let one = run(1);
    for workers in [2, 4, 6] {
        let many = run(workers);
        assert_eq!(one.len(), many.len(), "{workers} workers");
        for (a, b) in one.iter().zip(&many) {
            assert_eq!((a.chain, a.sequence), (b.chain, b.sequence));
            // DeblendVerdict compares f64 vectors exactly — worker count
            // must be invisible down to the last bit.
            assert_eq!(a.verdict, b.verdict, "chain {} seq {}", a.chain, a.sequence);
        }
    }
}

/// Executor that parks on a barrier inside its first batch, signalling the
/// test when the worker is inside `run_batch` (so queue-fill assertions
/// race nothing).
struct BarrierExecutor {
    barrier: Arc<Barrier>,
    entered: mpsc::Sender<()>,
    held_once: AtomicBool,
    out_len: usize,
}

impl ShardExecutor for BarrierExecutor {
    fn input_len(&self) -> usize {
        260
    }

    fn run_batch(&mut self, inputs: &[Vec<f64>]) -> BatchOutcome {
        if !self.held_once.swap(true, Ordering::SeqCst) {
            let _ = self.entered.send(());
            self.barrier.wait();
        }
        let timing = FrameTiming {
            compute: SimDuration::from_cycles(100),
            total: SimDuration::from_cycles(100),
            ..FrameTiming::default()
        };
        BatchOutcome {
            outputs: inputs
                .iter()
                .map(|_| Some(vec![0.0; self.out_len]))
                .collect(),
            timings: vec![timing; inputs.len()],
            stats: Default::default(),
            busy: SimDuration::from_cycles(100 * inputs.len() as u64),
        }
    }
}

#[test]
fn drop_newest_sheds_exactly_the_overflow() {
    let barrier = Arc::new(Barrier::new(2));
    let (entered_tx, entered_rx) = mpsc::channel();
    let cfg = EngineConfig {
        workers: 1,
        batch: 1,
        queue_depth: 2,
        drop_policy: DropPolicy::DropNewest,
        deadline: None,
        ..EngineConfig::default()
    };
    let worker_barrier = barrier.clone();
    let mut engine = ShardedEngine::start(&cfg, &standardizer(), move |_| {
        Box::new(BarrierExecutor {
            barrier: worker_barrier.clone(),
            entered: entered_tx.clone(),
            held_once: AtomicBool::new(false),
            out_len: 520,
        })
    });

    let stream = MultiChainSource::new(1, 5).ticks(8);
    let mut accepted = 0;
    let mut it = stream.into_iter();

    // First frame: the worker dequeues it and parks inside run_batch.
    assert!(engine.submit(it.next().unwrap()));
    accepted += 1;
    entered_rx.recv().expect("worker entered run_batch");

    // Queue (depth 2) now fills; everything beyond sheds.
    let mut shed = 0;
    for frame in it {
        if engine.submit(frame) {
            accepted += 1;
        } else {
            shed += 1;
        }
    }
    assert_eq!(accepted, 3, "held frame + queue depth 2");
    assert_eq!(shed, 5, "8 submitted - 3 capacity");

    barrier.wait(); // release the worker
    let (results, report) = engine.finish();
    assert_eq!(results.len(), 3, "every accepted frame drained");
    assert_eq!(report.submitted, 3);
    assert_eq!(report.dropped_backpressure, 5);
    assert_eq!(report.processed(), 3);
}

#[test]
fn block_policy_is_lossless() {
    let fw = mlp_firmware(33);
    let stream = MultiChainSource::new(4, 13).ticks(12);
    let total = stream.len();
    let (results, report) = ShardedEngine::run_stream(
        &EngineConfig {
            workers: 2,
            batch: 8,
            queue_depth: 2, // tiny queue: submitters must block, not drop
            drop_policy: DropPolicy::Block,
            deadline: None,
            ..EngineConfig::default()
        },
        &standardizer(),
        |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
        stream,
    );
    assert_eq!(results.len(), total);
    assert_eq!(report.dropped_backpressure, 0);
    assert_eq!(report.processed() as usize, total);
}

#[test]
fn wedged_shard_degrades_only_itself() {
    let fw = mlp_firmware(44);
    let hps = HpsModel::default();
    let stream = MultiChainSource::new(2, 91).ticks(6);
    let (results, report) = ShardedEngine::run_stream(
        &EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        &standardizer(),
        |shard| {
            let mut exec = SocExecutor::new(
                fw.clone(),
                &hps,
                2,
                WatchdogPolicy::default(),
                7 ^ shard as u64,
            );
            if shard == 0 {
                // Both of shard 0's IPs start wedged: every chain-0 frame
                // is lost, but nothing else about the fleet changes.
                exec.array_mut().mark_wedged(0);
                exec.array_mut().mark_wedged(1);
            }
            Box::new(exec)
        },
        stream,
    );
    assert_eq!(report.shards[0].processed, 0);
    assert_eq!(report.shards[0].lost, 6);
    assert_eq!(report.shards[1].processed, 6);
    assert_eq!(report.shards[1].lost, 0);
    assert_eq!(report.shards[1].health, HealthState::Healthy);
    assert_eq!(results.len(), 6);
    assert!(
        results.iter().all(|r| r.chain == 1),
        "only chain 1 survives"
    );
}

/// How long a doorbell-only consumer parks before it calls a ring lost.
const RING_LOST: Duration = Duration::from_secs(20);

/// Polls `engine` until `got` holds `want` results, sleeping *only* on the
/// doorbell — the calling thread must be the one registered with
/// `ring_on_results`. A park that runs out its (long) timeout means a
/// batch's results sat in the channel and nobody rang.
fn collect_by_doorbell(engine: &ShardedEngine, got: &mut Vec<FrameResult>, want: usize) {
    loop {
        got.extend(engine.poll_results());
        if got.len() >= want {
            return;
        }
        let parked = Instant::now();
        std::thread::park_timeout(RING_LOST);
        assert!(
            parked.elapsed() < RING_LOST,
            "doorbell never rang: {} of {want} results after {RING_LOST:?}",
            got.len()
        );
    }
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("report serializes")
}

/// One frame in flight at a time, so each frame's results need their own
/// ring and every batch is a batch of one — which makes the whole
/// `ShardReport` (batch counts included) comparable between an engine
/// whose consumer sleeps on the doorbell and one with nothing registered
/// whose consumer spins on `poll_results`.
#[test]
fn doorbell_alone_delivers_every_result_and_changes_nothing() {
    let fw = mlp_firmware(21);
    let std = standardizer();
    let stream = MultiChainSource::new(4, 31).ticks(8);
    let run = |ring: bool| {
        let mut engine = ShardedEngine::native(
            &EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            &fw,
            &HpsModel::default(),
            &std,
        );
        if ring {
            engine.ring_on_results(std::thread::current());
        }
        let mut got: Vec<FrameResult> = Vec::new();
        for frame in stream.clone() {
            assert!(engine.submit(frame));
            let want = got.len() + 1;
            if ring {
                collect_by_doorbell(&engine, &mut got, want);
            } else {
                while got.len() < want {
                    got.extend(engine.poll_results());
                    std::thread::yield_now();
                }
            }
        }
        let (rest, report) = engine.finish();
        assert!(rest.is_empty(), "everything was collected while running");
        (got, report)
    };
    let (rung, rung_report) = run(true);
    let (polled, polled_report) = run(false);
    assert_eq!(rung.len(), stream.len());
    assert_eq!(json(&rung), json(&polled), "results differ");
    assert_eq!(
        json(&rung_report.shards),
        json(&polled_report.shards),
        "shard reports differ"
    );
    assert_eq!(rung_report.submitted, polled_report.submitted);
    assert_eq!(
        rung_report.dropped_backpressure,
        polled_report.dropped_backpressure
    );
}

/// `start_multi` workers carry the same hub: two tenants on two shards,
/// a tick of each in flight, collected by the doorbell alone.
#[test]
fn doorbell_rings_for_every_tenant_of_a_multi_tenant_engine() {
    let std = standardizer();
    let mut registry = ModelRegistry::new();
    registry.add_tenant(1, "mlp-a", 1, None).unwrap();
    registry.add_tenant(2, "mlp-b", 1, None).unwrap();
    registry.register_live(1, mlp_firmware(21)).unwrap();
    registry.register_live(2, mlp_firmware(33)).unwrap();
    let open = ShardBudget {
        ip_aluts: u64::MAX / 4,
        dsps: u64::MAX / 4,
        m20k_blocks: u64::MAX / 4,
    };
    let plan = PlacementPlanner::new(open, 2).plan(&registry).unwrap();
    let cfg = EngineConfig {
        workers: 2,
        batch: 2,
        ..EngineConfig::default()
    };
    let mut engine =
        ShardedEngine::start_multi(&cfg, &std, &registry, &plan, &HpsModel::default()).unwrap();
    engine.ring_on_results(std::thread::current());

    let mut source = MultiChainSource::new(2, 17);
    let mut got: Vec<FrameResult> = Vec::new();
    for _ in 0..8 {
        for frame in source.tick() {
            assert!(engine.submit_for(1, frame.clone()).unwrap());
            assert!(engine.submit_for(2, frame).unwrap());
        }
        let want = got.len() + 4;
        collect_by_doorbell(&engine, &mut got, want);
    }
    let (rest, report) = engine.finish();
    assert!(rest.is_empty(), "everything was collected while running");
    assert_eq!(report.processed(), 32);
    for tenant in [1, 2] {
        assert_eq!(
            got.iter().filter(|r| r.tenant == tenant).count(),
            16,
            "tenant {tenant}"
        );
    }
}
