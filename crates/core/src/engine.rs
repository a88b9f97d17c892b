//! The sharded multi-hub inference engine.
//!
//! The paper's node serves one hub chain with one control IP, one frame at
//! a time. The production target (ROADMAP) is many synchronized hub chains
//! feeding shared inference as fast as the host allows. [`ShardedEngine`]
//! is that layer:
//!
//! * incoming [`ChainFrame`] streams are sharded `chain % workers`, so
//!   per-chain frame order is preserved end to end;
//! * each shard is a real OS thread behind a bounded work queue
//!   (backpressure is explicit: [`DropPolicy::Block`] is lossless,
//!   [`DropPolicy::DropNewest`] sheds load at the queue, and an optional
//!   wall-clock staleness deadline drops frames that waited too long —
//!   a 3 ms control loop has no use for late answers);
//! * workers drain their queue into batches of up to `batch` frames and
//!   hand each batch to their executor, merging [`InferenceStats`] per
//!   shard;
//! * each shard owns its executor: [`NativeExecutor`] (the firmware
//!   lowered into a [`CompiledFirmware`] — the fast path) or
//!   [`SocExecutor`] (an [`IpArray`] of M replicated control IPs behind
//!   the simulated bridge, watched by a [`Watchdog`] so a wedged IP
//!   degrades only its shard);
//! * every constructor starts its shards through one launch path; a
//!   supervised engine adds a supervisor thread that restarts a fully
//!   wedged shard, whose fresh incarnation serves the requeued frames
//!   from its ordinary tenant queues before it reads its channel;
//! * results land in an unbounded channel read by
//!   [`ShardedEngine::poll_results`]; a consumer may register its thread
//!   with [`ShardedEngine::ring_on_results`] and is then unparked once per
//!   executed batch, so it needs no timer to see them;
//! * [`FleetReport`] merges per-shard stats, health, and simulated busy
//!   time so Fig. 5c / Table I numbers stay derivable per shard and
//!   fleet-wide (see [`crate::throughput::FleetThroughput`]).
//!
//! Outputs are bit-identical to the sequential path: sharding and batching
//! only reorder *which replica* computes a frame, never the fixed-point
//! arithmetic — the golden-vector conformance suite pins this.

use crate::adapt::FrameTap;
use crate::drift::{DriftMonitor, DriftStatus};
use crate::registry::hotswap::ShadowStats;
use crate::registry::{ModelRegistry, PlacementMap, RegistryError, TenantId, DEFAULT_TENANT};
use crate::resilience::{HealthCounters, HealthState, SupervisorPolicy, Watchdog, WatchdogPolicy};
use crate::throughput::FleetThroughput;
use crossbeam::channel::{self, TrySendError};
use reads_blm::acnet::DeblendVerdict;
use reads_blm::hubs::{assemble_frame, ChainFrame};
use reads_blm::{DriftCampaign, Standardizer};
use reads_hls4ml::firmware::InferenceStats;
use reads_hls4ml::latency::estimate_latency;
use reads_hls4ml::{CompiledFirmware, Firmware, KernelMix, Scratch};
use reads_sim::SimDuration;
use reads_soc::hps::HpsModel;
use reads_soc::multi::{batch_makespan, IpArray};
use reads_soc::node::FrameTiming;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// What to do when a shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DropPolicy {
    /// Block the submitter until the shard drains (lossless).
    Block,
    /// Drop the frame being submitted and count it (load shedding).
    DropNewest,
}

/// Engine sizing and policy.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (= shards).
    pub workers: usize,
    /// Max frames per `infer_batch` call.
    pub batch: usize,
    /// Bounded per-shard queue depth.
    pub queue_depth: usize,
    /// Behaviour on a full shard queue.
    pub drop_policy: DropPolicy,
    /// Wall-clock staleness bound: frames older than this at dequeue are
    /// dropped unprocessed (`None` = process everything).
    pub deadline: Option<Duration>,
    /// Window size (frames) of the per-shard input [`DriftMonitor`]
    /// watching raw assembled readings against the engine's standardizer
    /// (`0` disables drift detection).
    pub drift_window: usize,
    /// Optional seeded decalibration campaign applied to every assembled
    /// frame's raw readings (keyed by frame sequence) *before*
    /// standardization — the fault-injection hook for drift studies.
    /// `None` (the default) leaves the data path bit-identical.
    pub drift_campaign: Option<DriftCampaign>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            batch: 8,
            queue_depth: 64,
            drop_policy: DropPolicy::Block,
            deadline: None,
            drift_window: 256,
            drift_campaign: None,
        }
    }
}

/// Per-shard drift scoreboard: the window verdicts of the shard's input
/// [`DriftMonitor`], rolled up for [`ShardReport`] and the fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DriftSummary {
    /// Most recent full-window verdict (cold-start-safe: `Nominal` until
    /// the first window completes).
    pub status: DriftStatus,
    /// Full windows evaluated.
    pub windows: u64,
    /// Windows that flagged [`DriftStatus::Restandardize`].
    pub restandardize_windows: u64,
    /// Windows that flagged [`DriftStatus::Retrain`].
    pub retrain_windows: u64,
}

impl DriftSummary {
    fn note(&mut self, status: DriftStatus) {
        self.status = status;
        self.windows += 1;
        match status {
            DriftStatus::Nominal => {}
            DriftStatus::Restandardize => self.restandardize_windows += 1,
            DriftStatus::Retrain => self.retrain_windows += 1,
        }
    }

    /// Folds another shard's scoreboard in: window counts add, the rolled
    /// up status keeps the most severe current verdict.
    pub fn merge(&mut self, other: &DriftSummary) {
        self.status = self.status.worst(other.status);
        self.windows += other.windows;
        self.restandardize_windows += other.restandardize_windows;
        self.retrain_windows += other.retrain_windows;
    }
}

/// One processed frame's result.
#[derive(Debug, Clone, Serialize)]
pub struct FrameResult {
    /// Hub chain the frame came from.
    pub chain: u32,
    /// Frame sequence within the chain.
    pub sequence: u32,
    /// Tenant whose live firmware computed it ([`DEFAULT_TENANT`] on the
    /// single-model path).
    pub tenant: TenantId,
    /// Shard that computed it.
    pub shard: usize,
    /// The de-blending verdict.
    pub verdict: DeblendVerdict,
    /// Simulated Steps 1–8 timing of the frame.
    pub timing: FrameTiming,
}

/// Outcome of one executor batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-frame outputs in submission order; `None` = frame lost (an
    /// unrecovered hang with every replica wedged).
    pub outputs: Vec<Option<Vec<f64>>>,
    /// Per-frame timings (same order; lost frames charge their wasted
    /// wall clock here too).
    pub timings: Vec<FrameTiming>,
    /// Merged overflow statistics of the batch.
    pub stats: InferenceStats,
    /// Simulated completion time of the whole batch on this shard.
    pub busy: SimDuration,
}

/// A shard's inference backend. The engine holds one per worker; both the
/// native fast path and the simulated-SoC path implement it, so the
/// scheduler above is identical for either.
pub trait ShardExecutor: Send {
    /// Flattened input length the firmware consumes. Assembled frames are
    /// truncated to this, mirroring the single-node ingest (the MLP
    /// variant reads 259 of the 260 monitors).
    fn input_len(&self) -> usize;

    /// Runs one batch of standardized frames. Outputs must be
    /// bit-identical to `Firmware::infer` per frame.
    fn run_batch(&mut self, inputs: &[Vec<f64>]) -> BatchOutcome;

    /// Shard health as seen by this executor.
    fn health(&self) -> (HealthState, HealthCounters) {
        (HealthState::Healthy, HealthCounters::default())
    }

    /// Whether this executor is *fully* wedged — no replica can run
    /// another frame, so every future output would be `None`. A supervised
    /// engine uses this as the restart trigger; an unsupervised engine
    /// keeps the PR 2 behaviour (the shard drains its queue as counted
    /// losses).
    fn wedged(&self) -> bool {
        false
    }

    /// The compiled engine's kernel selection summary, when this executor
    /// runs one — `None` for the simulated-SoC backend.
    fn kernel_mix(&self) -> Option<KernelMix> {
        None
    }
}

/// Fast path: one inference engine per shard — the firmware lowered once
/// into integer-quanta kernels ([`CompiledFirmware`]) that run frames
/// allocation-free through a reused scratch arena, bit-identical to
/// [`Firmware::infer`]. Host execution is as fast as the machine allows;
/// simulated timing uses the deterministic expected HPS overhead plus the
/// hls4ml compute-cycle estimate (one IP pipeline per shard, frames back
/// to back).
#[derive(Debug, Clone)]
pub struct NativeExecutor {
    engine: CompiledFirmware,
    scratch: Scratch,
    n_in: usize,
    frame_overhead: SimDuration,
    compute: SimDuration,
}

impl NativeExecutor {
    /// Builds an executor backed by the lowered integer-quanta engine —
    /// bit-identical outputs and statistics to the firmware interpreter,
    /// several times faster, zero steady-state allocations per frame.
    #[must_use]
    pub fn compiled(firmware: &Firmware, hps: &HpsModel) -> Self {
        let words = |width: u32| (width as usize).div_ceil(16);
        let in_fmt = firmware.input_quant.format();
        let out_fmt = firmware
            .nodes
            .last()
            .and_then(reads_hls4ml::firmware::FwNode::dense)
            .map_or(in_fmt, |d| d.out_quant.format());
        let n_in = firmware.input_len * firmware.input_channels;
        let io_in = n_in * words(in_fmt.width);
        let io_out = firmware.output_len() * words(out_fmt.width);
        let engine = CompiledFirmware::lower(firmware);
        let scratch = engine.scratch();
        Self {
            engine,
            scratch,
            n_in,
            frame_overhead: hps.expected_overhead(io_in, io_out),
            compute: SimDuration::from_cycles(estimate_latency(firmware).total_cycles),
        }
    }
}

impl ShardExecutor for NativeExecutor {
    fn input_len(&self) -> usize {
        self.n_in
    }

    fn run_batch(&mut self, inputs: &[Vec<f64>]) -> BatchOutcome {
        // Batch-major path: frames travel through the kernels in 8-lane
        // groups, so one weight load feeds every lane.
        let ol = self.engine.output_len();
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let mut flat = vec![0.0; inputs.len() * ol];
        let stats = self
            .engine
            .infer_batch_into(&refs, &mut self.scratch, &mut flat)
            .clone();
        let per_frame = FrameTiming {
            compute: self.compute,
            misc: self.frame_overhead,
            total: self.frame_overhead + self.compute,
            ..FrameTiming::default()
        };
        let timings = vec![per_frame; inputs.len()];
        let assigned = vec![0; inputs.len()];
        let busy = batch_makespan(&timings, &assigned, 1);
        BatchOutcome {
            outputs: flat
                .chunks_exact(ol.max(1))
                .map(|out| Some(out.to_vec()))
                .collect(),
            timings,
            stats,
            busy,
        }
    }

    fn kernel_mix(&self) -> Option<KernelMix> {
        Some(self.engine.kernel_mix())
    }
}

/// Simulated-SoC path: M replicated control IPs behind the shared bridge,
/// every frame run behind the shard's watchdog. An unrecovered hang wedges
/// only the IP it happened on; the frame retries on the next healthy IP
/// and is lost only when the whole shard's array is wedged.
#[derive(Debug)]
pub struct SocExecutor {
    array: IpArray,
    watchdog: Watchdog,
    n_in: usize,
}

impl SocExecutor {
    /// Builds the executor: `ips` replicated control-IP instances and a
    /// shard-local watchdog holding the golden firmware copy.
    #[must_use]
    pub fn new(
        firmware: Firmware,
        hps: &HpsModel,
        ips: usize,
        policy: WatchdogPolicy,
        seed: u64,
    ) -> Self {
        let array = IpArray::new(&firmware, hps, ips, seed);
        let n_in = firmware.input_len * firmware.input_channels;
        let watchdog = Watchdog::new(firmware, policy);
        Self {
            array,
            watchdog,
            n_in,
        }
    }

    /// The IP array (for fault-plan installation in studies and tests).
    pub fn array_mut(&mut self) -> &mut IpArray {
        &mut self.array
    }
}

impl ShardExecutor for SocExecutor {
    fn input_len(&self) -> usize {
        self.n_in
    }

    fn run_batch(&mut self, inputs: &[Vec<f64>]) -> BatchOutcome {
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut timings = Vec::with_capacity(inputs.len());
        let mut assigned = Vec::with_capacity(inputs.len());
        let mut stats = InferenceStats::default();
        for x in inputs {
            loop {
                let Some(ip) = self.array.dispatch() else {
                    // Whole shard wedged: the frame is lost; no time moves
                    // because nothing could even be triggered.
                    outputs.push(None);
                    timings.push(FrameTiming::default());
                    assigned.push(0);
                    break;
                };
                let frame = self.watchdog.run_frame(self.array.ip_mut(ip), x);
                timings.push(frame.timing);
                assigned.push(ip);
                match frame.outputs {
                    Some(out) => {
                        outputs.push(Some(out));
                        break;
                    }
                    None => {
                        // Unrecovered: take this IP out of rotation and
                        // retry the frame on the next healthy one.
                        self.array.mark_wedged(ip);
                        continue;
                    }
                }
            }
        }
        // The simulated data path quantizes inside the RAM model, not the
        // interpreter, so only input-side volume is visible here.
        stats.input.total += inputs.iter().map(|x| x.len() as u64).sum::<u64>();
        let busy = batch_makespan(&timings, &assigned, self.array.ip_count());
        BatchOutcome {
            outputs,
            timings,
            stats,
            busy,
        }
    }

    fn health(&self) -> (HealthState, HealthCounters) {
        (self.watchdog.health(), *self.watchdog.counters())
    }

    fn wedged(&self) -> bool {
        self.array.wedged_count() == self.array.ip_count()
    }
}

/// Terminal executor for a shard past its restart budget: drains the
/// queue as counted losses so a `Block`-policy submitter never deadlocks
/// on a dead shard, and reports [`HealthState::Tripped`] so the operator
/// console cannot miss it.
struct WedgedSink;

impl ShardExecutor for WedgedSink {
    fn input_len(&self) -> usize {
        0
    }

    fn run_batch(&mut self, inputs: &[Vec<f64>]) -> BatchOutcome {
        BatchOutcome {
            outputs: vec![None; inputs.len()],
            timings: vec![FrameTiming::default(); inputs.len()],
            stats: InferenceStats::default(),
            busy: SimDuration::ZERO,
        }
    }

    fn health(&self) -> (HealthState, HealthCounters) {
        (HealthState::Tripped, HealthCounters::default())
    }
}

/// Per-tenant slice of one shard's accounting. Kernel-mix, fps inputs
/// (processed + busy) and overflow statistics are attributed to the tenant
/// whose live executor produced them — shadow executions are ledgered in
/// `shadow` and never conflated into the live numbers.
#[derive(Debug, Clone, Serialize)]
pub struct TenantShardReport {
    /// The tenant.
    pub tenant: TenantId,
    /// Frames this tenant's live executor answered on this shard.
    pub processed: u64,
    /// This tenant's frames lost on this shard.
    pub lost: u64,
    /// This tenant's frames dropped for staleness.
    pub dropped_deadline: u64,
    /// Frames that finished past the tenant's SLO bound.
    pub slo_misses: u64,
    /// Digest of the live firmware at shutdown (0 on the legacy
    /// single-model constructors, which carry no registry).
    pub live_digest: u64,
    /// Overflow statistics of the live executor only.
    pub stats: InferenceStats,
    /// Simulated busy time attributed to this tenant's live batches.
    pub busy: SimDuration,
    /// Kernel selection summary of this tenant's live compiled engine.
    pub kernel_mix: Option<KernelMix>,
    /// Digest still shadow-scoring at shutdown, if any.
    pub shadow_digest: Option<u64>,
    /// Shadow comparison ledger (all candidates this shard scored).
    pub shadow: ShadowStats,
}

/// Per-shard accounting, returned by [`ShardedEngine::finish`].
#[derive(Debug, Clone, Serialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Frames that produced a verdict.
    pub processed: u64,
    /// Frames lost (unrecovered hangs with the whole array wedged).
    pub lost: u64,
    /// Frames dropped for staleness at dequeue.
    pub dropped_deadline: u64,
    /// Frames whose hub packets failed to assemble.
    pub assembly_errors: u64,
    /// Batches executed.
    pub batches: u64,
    /// Largest batch observed.
    pub max_batch: usize,
    /// Merged overflow statistics of the shard.
    pub stats: InferenceStats,
    /// Simulated busy time of the shard (sum of batch makespans).
    pub busy: SimDuration,
    /// Per-frame timings (for fleet percentile/throughput analysis).
    pub timings: Vec<FrameTiming>,
    /// Shard health at shutdown.
    pub health: HealthState,
    /// Shard resilience counters at shutdown.
    pub counters: HealthCounters,
    /// Kernel selection summary of the shard's compiled engine (`None`
    /// for the simulated-SoC backend).
    pub kernel_mix: Option<KernelMix>,
    /// Per-tenant attribution of the shard's work, ascending tenant id
    /// (a single entry for tenant 0 on the legacy constructors).
    pub tenants: Vec<TenantShardReport>,
    /// Input-drift scoreboard of the shard's raw-reading monitor (all
    /// zeros when `drift_window == 0`).
    pub drift: DriftSummary,
}

/// Fleet-wide accounting.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Every shard's report, in shard order.
    pub shards: Vec<ShardReport>,
    /// Frames accepted into queues.
    pub submitted: u64,
    /// Frames shed at submission ([`DropPolicy::DropNewest`]).
    pub dropped_backpressure: u64,
    /// Host wall-clock time from engine start to drain.
    pub wall: Duration,
}

impl FleetReport {
    /// Frames that produced verdicts, fleet-wide.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Merged overflow statistics across shards. A multi-tenant fleet can
    /// run different node counts on different shards; incompatible shapes
    /// contribute only their input-side volume (per-tenant shapes merge
    /// cleanly in [`TenantShardReport::stats`]).
    #[must_use]
    pub fn merged_stats(&self) -> InferenceStats {
        let mut merged = InferenceStats::default();
        for s in &self.shards {
            merge_stats_compat(&mut merged, &s.stats);
        }
        merged
    }

    /// Merged resilience counters across shards.
    #[must_use]
    pub fn merged_counters(&self) -> HealthCounters {
        let mut merged = HealthCounters::default();
        for s in &self.shards {
            merged.merge(&s.counters);
        }
        merged
    }

    /// Worst health state across shards — one wedged shard degrades the
    /// fleet view without stopping the others.
    #[must_use]
    pub fn worst_health(&self) -> HealthState {
        HealthState::worst(self.shards.iter().map(|s| s.health))
    }

    /// Merged drift scoreboard across shards (worst current status, summed
    /// window counts).
    #[must_use]
    pub fn drift(&self) -> DriftSummary {
        let mut merged = DriftSummary::default();
        for s in &self.shards {
            merged.merge(&s.drift);
        }
        merged
    }

    /// Fleet throughput derived from per-shard busy time and timings.
    ///
    /// # Panics
    /// Panics when no frame was processed.
    #[must_use]
    pub fn throughput(&self) -> FleetThroughput {
        let per_shard: Vec<(u64, SimDuration)> = self
            .shards
            .iter()
            .map(|s| (s.processed + s.lost, s.busy))
            .collect();
        let mut ms: Vec<f64> = self
            .shards
            .iter()
            .flat_map(|s| s.timings.iter().map(|t| t.total.as_millis_f64()))
            .collect();
        FleetThroughput::from_shards(&per_shard, &mut ms)
    }
}

/// Merges `src` into `dst` when their per-node shapes are compatible;
/// otherwise folds in only the input-side volume. `InferenceStats::merge`
/// asserts equal node counts, which holds per tenant but not across
/// tenants sharing a shard.
fn merge_stats_compat(dst: &mut InferenceStats, src: &InferenceStats) {
    if dst.per_node.is_empty() || dst.per_node.len() == src.per_node.len() {
        dst.merge(src);
    } else {
        dst.input.merge(&src.input);
    }
}

struct Job {
    tenant: TenantId,
    chain: u32,
    sequence: u32,
    packets: Vec<reads_blm::hubs::HubPacket>,
    enqueued: Instant,
}

/// Control messages for the zero-downtime swap path. The vendored channel
/// has no `select`, so control rides the same bounded work queue as frames
/// and is applied in arrival order relative to them — a staged shadow sees
/// exactly the frames submitted after it.
enum Ctrl {
    /// Install a shadow candidate next to the tenant's live executor.
    Stage {
        tenant: TenantId,
        digest: u64,
        tolerance: f64,
        executor: Box<dyn ShardExecutor>,
    },
    /// Make `digest` live for the tenant. The warmed shadow executor is
    /// reused when it matches; otherwise the carried executor installs
    /// (the non-canary shards of a promotion).
    Promote {
        tenant: TenantId,
        digest: u64,
        executor: Box<dyn ShardExecutor>,
    },
    /// Drop the tenant's shadow candidate; the incumbent is untouched.
    Rollback { tenant: TenantId, digest: u64 },
    /// Attach a frame tap: from here on the shard offers every assembled
    /// raw frame (post fault-injection, pre standardization) to the
    /// adaptation plane's reservoir. The offer never blocks — a held
    /// reservoir lock sheds the frame and counts it.
    Tap(FrameTap),
}

enum Work {
    Frame(Job),
    Ctrl(Ctrl),
}

/// A candidate build scoring silently next to a live executor.
struct ShadowSlot {
    digest: u64,
    executor: Box<dyn ShardExecutor>,
    stats: ShadowStats,
    tolerance: f64,
}

/// One tenant's serving state on one shard: its live executor, weighted
/// deficit-round-robin queue, SLO bound, and optional shadow candidate.
struct TenantSlot {
    id: TenantId,
    weight: u32,
    credits: u64,
    slo: Option<Duration>,
    live_digest: u64,
    executor: Box<dyn ShardExecutor>,
    shadow: Option<ShadowSlot>,
    queue: VecDeque<Job>,
}

impl TenantSlot {
    fn single(executor: Box<dyn ShardExecutor>) -> Vec<TenantSlot> {
        vec![TenantSlot {
            id: DEFAULT_TENANT,
            weight: 1,
            credits: 0,
            slo: None,
            live_digest: 0,
            executor,
            shadow: None,
            queue: VecDeque::new(),
        }]
    }
}

/// Per-tenant accounting accumulated by a shard (survives restarts inside
/// [`ShardState`]).
#[derive(Default)]
struct TenantAcct {
    processed: u64,
    lost: u64,
    dropped_deadline: u64,
    slo_misses: u64,
    stats: InferenceStats,
    busy: SimDuration,
    /// Lifetime shadow ledger (candidates already resolved fold in here).
    shadow: ShadowStats,
}

/// Live per-tenant view a shard publishes after every batch and control
/// application, so hot-swap drivers and gateways can observe digests and
/// shadow progress without stopping the engine.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct TenantSnapshot {
    /// Digest currently live for the tenant on this shard.
    pub live_digest: u64,
    /// Frames processed for the tenant on this shard.
    pub processed: u64,
    /// SLO misses for the tenant on this shard.
    pub slo_misses: u64,
    /// Digest shadow-scoring on this shard, if any.
    pub shadow_digest: Option<u64>,
    /// The shadow comparison ledger so far.
    pub shadow: ShadowStats,
}

/// Shared live-state board between shard workers and observers: per-tenant
/// snapshots (hot-swap drivers poll these), per-shard drift scoreboards
/// (the adaptation supervisor polls those), and the results doorbell.
#[derive(Default)]
struct EngineHub {
    tenants: Mutex<BTreeMap<(usize, TenantId), TenantSnapshot>>,
    drift: Mutex<BTreeMap<usize, DriftSummary>>,
    /// The thread [`ShardedEngine::ring_on_results`] registered. It lives
    /// here because every worker incarnation — first spawn or supervisor
    /// respawn, any constructor — already carries this hub.
    doorbell: OnceLock<Thread>,
}

impl EngineHub {
    /// Unparks the registered consumer, if any (one load when none is).
    fn ring(&self) {
        if let Some(waiter) = self.doorbell.get() {
            waiter.unpark();
        }
    }

    /// Merged drift scoreboard across all shards (worst current status,
    /// summed window counts), as published at window boundaries.
    fn drift(&self) -> DriftSummary {
        let drift = self.drift.lock().expect("drift hub lock");
        let mut merged = DriftSummary::default();
        for summary in drift.values() {
            merged.merge(summary);
        }
        merged
    }
}

type StatsHub = Arc<EngineHub>;

/// Everything a shard worker needs besides its queue and executor —
/// cloned per incarnation so the supervisor can respawn a worker without
/// re-threading half a dozen arguments.
#[derive(Clone)]
struct WorkerCtx {
    standardizer: Standardizer,
    batch_cap: usize,
    deadline: Option<Duration>,
    drift_window: usize,
    drift_campaign: Option<DriftCampaign>,
    results_tx: channel::Sender<FrameResult>,
    reports_tx: channel::Sender<ShardReport>,
    hub: StatsHub,
}

/// Accounting that survives a shard restart: the wedged incarnation hands
/// this to the supervisor, the replacement continues from it, and only the
/// final incarnation emits the (single, merged) [`ShardReport`].
struct ShardState {
    shard: usize,
    processed: u64,
    lost: u64,
    dropped_deadline: u64,
    assembly_errors: u64,
    batches: u64,
    max_batch: usize,
    stats: InferenceStats,
    busy: SimDuration,
    timings: Vec<FrameTiming>,
    /// Per-tenant attribution (keyed by tenant id; survives restarts).
    tenants: BTreeMap<TenantId, TenantAcct>,
    /// Resilience counters of executors torn down by a wedge.
    carried: HealthCounters,
    restarts: u64,
    denied: bool,
    /// Raw-reading drift monitor (survives restarts; `None` when
    /// `drift_window == 0`, lazily created by the worker otherwise).
    drift: Option<DriftMonitor>,
    drift_summary: DriftSummary,
    /// Adaptation-plane frame tap, installed by [`Ctrl::Tap`].
    tap: Option<FrameTap>,
}

impl ShardState {
    fn new(shard: usize) -> Self {
        Self {
            shard,
            processed: 0,
            lost: 0,
            dropped_deadline: 0,
            assembly_errors: 0,
            batches: 0,
            max_batch: 0,
            stats: InferenceStats::default(),
            busy: SimDuration::ZERO,
            timings: Vec::new(),
            tenants: BTreeMap::new(),
            carried: HealthCounters::default(),
            restarts: 0,
            denied: false,
            drift: None,
            drift_summary: DriftSummary::default(),
            tap: None,
        }
    }
}

/// A wedged worker's hand-off to the supervisor: the queue receiver, the
/// frames that were in flight when every replica wedged, and the running
/// accounting.
struct WedgeReport {
    rx: channel::Receiver<Work>,
    requeue: Vec<Job>,
    state: ShardState,
}

enum SupMsg {
    Wedge(Box<WedgeReport>),
    Done,
}

/// Builds a shard's executor from its index; a supervised engine keeps one
/// to rebuild a wedged shard.
type ExecutorFactory = Box<dyn FnMut(usize) -> Box<dyn ShardExecutor> + Send>;

fn spawn_worker(
    ctx: WorkerCtx,
    rx: channel::Receiver<Work>,
    table: Vec<TenantSlot>,
    state: ShardState,
    requeued: Vec<Job>,
    sup_tx: Option<channel::Sender<SupMsg>>,
) -> thread::JoinHandle<()> {
    let name = format!("reads-shard-{}r{}", state.shard, state.restarts);
    thread::Builder::new()
        .name(name)
        .spawn(move || shard_worker(ctx, rx, table, state, requeued, sup_tx))
        .expect("spawn shard worker")
}

/// Restart loop for supervised shards. Exits once every shard has sent
/// its final `Done`; a replacement worker spawned here is joined before
/// the loop returns so [`ShardedEngine::finish`] sees a quiet fleet.
fn supervisor_loop(
    mut factory: ExecutorFactory,
    policy: SupervisorPolicy,
    ctx: WorkerCtx,
    sup_tx: channel::Sender<SupMsg>,
    sup_rx: channel::Receiver<SupMsg>,
    workers: usize,
) {
    let mut live = workers;
    let mut respawned: Vec<thread::JoinHandle<()>> = Vec::new();
    while live > 0 {
        match sup_rx.recv() {
            Ok(SupMsg::Done) => live -= 1,
            Ok(SupMsg::Wedge(report)) => {
                let WedgeReport {
                    rx,
                    requeue,
                    mut state,
                } = *report;
                let executor: Box<dyn ShardExecutor> =
                    if state.restarts < u64::from(policy.max_restarts) {
                        // Backoff before the respawn: a shard wedged by a
                        // persistent upstream fault would otherwise burn
                        // its whole budget in microseconds.
                        #[allow(clippy::cast_possible_truncation)]
                        thread::sleep(policy.backoff_for(state.restarts as u32));
                        state.restarts += 1;
                        factory(state.shard)
                    } else {
                        // Budget exhausted: the shard trips. A sink executor
                        // keeps draining the queue so a `Block`-policy
                        // submitter never deadlocks on a dead shard; every
                        // drained frame counts as lost.
                        state.denied = true;
                        Box::new(WedgedSink)
                    };
                respawned.push(spawn_worker(
                    ctx.clone(),
                    rx,
                    TenantSlot::single(executor),
                    state,
                    requeue,
                    Some(sup_tx.clone()),
                ));
            }
            Err(_) => break,
        }
    }
    drop(sup_tx);
    for h in respawned {
        let _ = h.join();
    }
}

/// The engine: spawn with [`ShardedEngine::start`] (or
/// [`ShardedEngine::native`], [`ShardedEngine::start_multi`],
/// [`ShardedEngine::start_supervised`]), feed [`ChainFrame`]s through
/// [`ShardedEngine::submit`], then [`ShardedEngine::finish`] to drain and
/// collect every result plus the fleet report.
pub struct ShardedEngine {
    senders: Vec<channel::Sender<Work>>,
    ctrl_shared: Arc<Mutex<Option<Vec<channel::Sender<Work>>>>>,
    hub: StatsHub,
    placement: Arc<BTreeMap<TenantId, Vec<usize>>>,
    tenant_names: BTreeMap<TenantId, String>,
    results_rx: channel::Receiver<FrameResult>,
    reports_rx: channel::Receiver<ShardReport>,
    handles: Vec<thread::JoinHandle<()>>,
    supervisor: Option<thread::JoinHandle<()>>,
    submitted: u64,
    dropped_backpressure: u64,
    drop_policy: DropPolicy,
    started: Instant,
}

/// A cloneable control-plane handle onto a running engine: stage, promote
/// and roll back firmware digests, and observe per-tenant snapshots —
/// without stopping or owning the engine. All sends ride the shards' work
/// queues, so control is ordered relative to in-flight frames.
///
/// The handle holds only weak authority: [`ShardedEngine::finish`] severs
/// it, after which every mutation returns
/// [`RegistryError::EngineStopped`].
#[derive(Clone)]
pub struct EngineController {
    senders: Arc<Mutex<Option<Vec<channel::Sender<Work>>>>>,
    hub: StatsHub,
    placement: Arc<BTreeMap<TenantId, Vec<usize>>>,
}

impl EngineController {
    fn send(&self, shard: usize, ctrl: Ctrl) -> Result<(), RegistryError> {
        let guard = self.senders.lock().expect("controller lock");
        let senders = guard.as_ref().ok_or(RegistryError::EngineStopped)?;
        let tx = senders.get(shard).ok_or(RegistryError::EngineStopped)?;
        tx.send(Work::Ctrl(ctrl))
            .map_err(|_| RegistryError::EngineStopped)
    }

    /// Shards serving `tenant` under the engine's placement (empty when
    /// the tenant is unknown).
    #[must_use]
    pub fn shards_of(&self, tenant: TenantId) -> Vec<usize> {
        self.placement.get(&tenant).cloned().unwrap_or_default()
    }

    /// Stages `executor` as a shadow candidate for `tenant` on one shard
    /// (the canary). Frames submitted after this score on both builds.
    ///
    /// # Errors
    /// [`RegistryError::UnknownTenant`] when the placement has no such
    /// tenant, [`RegistryError::EngineStopped`] after `finish`.
    pub fn stage_on(
        &self,
        shard: usize,
        tenant: TenantId,
        digest: u64,
        tolerance: f64,
        executor: Box<dyn ShardExecutor>,
    ) -> Result<(), RegistryError> {
        if !self.placement.contains_key(&tenant) {
            return Err(RegistryError::UnknownTenant(tenant));
        }
        self.send(
            shard,
            Ctrl::Stage {
                tenant,
                digest,
                tolerance,
                executor,
            },
        )
    }

    /// Promotes `digest` to live on every shard serving `tenant`;
    /// `make_executor` builds one fresh executor per shard (the canary
    /// reuses its warmed shadow executor instead).
    ///
    /// # Errors
    /// [`RegistryError::UnknownTenant`] / [`RegistryError::EngineStopped`].
    pub fn promote(
        &self,
        tenant: TenantId,
        digest: u64,
        make_executor: &mut dyn FnMut() -> Box<dyn ShardExecutor>,
    ) -> Result<(), RegistryError> {
        let shards = self.shards_of(tenant);
        if shards.is_empty() {
            return Err(RegistryError::UnknownTenant(tenant));
        }
        for shard in shards {
            self.send(
                shard,
                Ctrl::Promote {
                    tenant,
                    digest,
                    executor: make_executor(),
                },
            )?;
        }
        Ok(())
    }

    /// Drops the shadow candidate `digest` on every shard serving
    /// `tenant`; live executors are untouched.
    ///
    /// # Errors
    /// [`RegistryError::UnknownTenant`] / [`RegistryError::EngineStopped`].
    pub fn rollback(&self, tenant: TenantId, digest: u64) -> Result<(), RegistryError> {
        let shards = self.shards_of(tenant);
        if shards.is_empty() {
            return Err(RegistryError::UnknownTenant(tenant));
        }
        for shard in shards {
            self.send(shard, Ctrl::Rollback { tenant, digest })?;
        }
        Ok(())
    }

    /// Attaches the adaptation plane's frame tap on every shard: each
    /// assembled raw frame (post fault-injection, pre standardization) is
    /// offered to the tap's reservoir without ever blocking the hot path.
    ///
    /// # Errors
    /// [`RegistryError::EngineStopped`] after `finish`.
    pub fn attach_frame_tap(&self, tap: &FrameTap) -> Result<(), RegistryError> {
        let shards = {
            let guard = self.senders.lock().expect("controller lock");
            guard.as_ref().ok_or(RegistryError::EngineStopped)?.len()
        };
        for shard in 0..shards {
            self.send(shard, Ctrl::Tap(tap.clone()))?;
        }
        Ok(())
    }

    /// Merged drift scoreboard across all shards (worst current status,
    /// summed window counts), as published at window boundaries.
    #[must_use]
    pub fn drift(&self) -> DriftSummary {
        self.hub.drift()
    }

    /// Merged shadow ledger for `tenant` across its shards.
    #[must_use]
    pub fn shadow_stats(&self, tenant: TenantId) -> ShadowStats {
        let hub = self.hub.tenants.lock().expect("stats hub lock");
        let mut merged = ShadowStats::default();
        for ((_, t), snap) in hub.iter() {
            if *t == tenant {
                merged.merge(&snap.shadow);
            }
        }
        merged
    }

    /// Whether every shard serving `tenant` reports `digest` live.
    #[must_use]
    pub fn live_everywhere(&self, tenant: TenantId, digest: u64) -> bool {
        let shards = self.shards_of(tenant);
        if shards.is_empty() {
            return false;
        }
        let hub = self.hub.tenants.lock().expect("stats hub lock");
        shards.iter().all(|s| {
            hub.get(&(*s, tenant))
                .is_some_and(|snap| snap.live_digest == digest)
        })
    }

    /// Per-shard snapshots for `tenant`, ascending shard index.
    #[must_use]
    pub fn snapshots(&self, tenant: TenantId) -> Vec<(usize, TenantSnapshot)> {
        let hub = self.hub.tenants.lock().expect("stats hub lock");
        hub.iter()
            .filter(|((_, t), _)| *t == tenant)
            .map(|((s, _), snap)| (*s, *snap))
            .collect()
    }
}

impl ShardedEngine {
    /// The one launch path every constructor takes: creates the results
    /// and reports channels, the pre-seeded stats hub and one worker per
    /// table, plus — when `supervisor` is given — the thread that restarts
    /// fully wedged shards with executors from its factory.
    fn start_with_tables(
        cfg: &EngineConfig,
        standardizer: &Standardizer,
        tables: Vec<Vec<TenantSlot>>,
        placement: BTreeMap<TenantId, Vec<usize>>,
        supervisor: Option<(ExecutorFactory, SupervisorPolicy)>,
    ) -> Self {
        assert!(cfg.batch > 0, "batch size must be positive");
        assert!(cfg.queue_depth > 0, "queue depth must be positive");
        assert!(!tables.is_empty(), "engine needs at least one worker");
        let workers = tables.len();
        let (results_tx, results_rx) = channel::unbounded::<FrameResult>();
        let (reports_tx, reports_rx) = channel::unbounded::<ShardReport>();
        let hub: StatsHub = Arc::new(EngineHub::default());
        {
            // Pre-seed the hub so controller polls see live digests before
            // any shard runs its first batch.
            let mut h = hub.tenants.lock().expect("stats hub lock");
            for (shard, table) in tables.iter().enumerate() {
                for slot in table {
                    h.insert(
                        (shard, slot.id),
                        TenantSnapshot {
                            live_digest: slot.live_digest,
                            ..TenantSnapshot::default()
                        },
                    );
                }
            }
        }
        let ctx = WorkerCtx {
            standardizer: standardizer.clone(),
            batch_cap: cfg.batch,
            deadline: cfg.deadline,
            drift_window: cfg.drift_window,
            drift_campaign: cfg.drift_campaign,
            results_tx,
            reports_tx,
            hub: Arc::clone(&hub),
        };
        let sup_chan = supervisor.is_some().then(channel::unbounded::<SupMsg>);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (shard, table) in tables.into_iter().enumerate() {
            let (tx, rx) = channel::bounded::<Work>(cfg.queue_depth);
            senders.push(tx);
            handles.push(spawn_worker(
                ctx.clone(),
                rx,
                table,
                ShardState::new(shard),
                Vec::new(),
                sup_chan.as_ref().map(|(sup_tx, _)| sup_tx.clone()),
            ));
        }
        let supervisor = supervisor
            .zip(sup_chan)
            .map(|((factory, policy), (sup_tx, sup_rx))| {
                thread::Builder::new()
                    .name("reads-supervisor".into())
                    .spawn(move || supervisor_loop(factory, policy, ctx, sup_tx, sup_rx, workers))
                    .expect("spawn shard supervisor")
            });
        let ctrl_shared = Arc::new(Mutex::new(Some(senders.clone())));
        Self {
            senders,
            ctrl_shared,
            hub,
            placement: Arc::new(placement),
            tenant_names: BTreeMap::new(),
            results_rx,
            reports_rx,
            handles,
            supervisor,
            submitted: 0,
            dropped_backpressure: 0,
            drop_policy: cfg.drop_policy,
            started: Instant::now(),
        }
    }

    /// Tables and placement of a single-model engine: one default-tenant
    /// slot per shard, the tenant placed on every shard.
    fn single_tenant(
        cfg: &EngineConfig,
        make_executor: &mut dyn FnMut(usize) -> Box<dyn ShardExecutor>,
    ) -> (Vec<Vec<TenantSlot>>, BTreeMap<TenantId, Vec<usize>>) {
        let tables = (0..cfg.workers)
            .map(|shard| TenantSlot::single(make_executor(shard)))
            .collect();
        let placement = BTreeMap::from([(DEFAULT_TENANT, (0..cfg.workers).collect())]);
        (tables, placement)
    }

    /// Starts the engine with one executor per shard from `make_executor`
    /// (called with the shard index).
    ///
    /// # Panics
    /// Panics when `workers`, `batch`, or `queue_depth` is zero.
    #[must_use]
    pub fn start(
        cfg: &EngineConfig,
        standardizer: &Standardizer,
        mut make_executor: impl FnMut(usize) -> Box<dyn ShardExecutor>,
    ) -> Self {
        let (tables, placement) = Self::single_tenant(cfg, &mut make_executor);
        Self::start_with_tables(cfg, standardizer, tables, placement, None)
    }

    /// Starts a **multi-tenant** engine over a registry and a placement
    /// plan: every shard gets one compiled live executor per tenant the
    /// plan assigns to it, scheduled by weighted deficit-round-robin with
    /// per-tenant SLO accounting. Tenants route via
    /// [`ShardedEngine::submit_for`]; [`ShardedEngine::submit`] keeps
    /// feeding the default tenant bit-identically to the single-model
    /// engine.
    ///
    /// # Errors
    /// [`RegistryError::UnknownTenant`] when the plan names a tenant the
    /// registry lacks, [`RegistryError::NoLiveVariant`] when a planned
    /// tenant has nothing live to serve.
    ///
    /// # Panics
    /// Panics when `batch`, or `queue_depth` is zero, or when the plan's
    /// shard count disagrees with `cfg.workers`.
    pub fn start_multi(
        cfg: &EngineConfig,
        standardizer: &Standardizer,
        registry: &ModelRegistry,
        plan: &PlacementMap,
        hps: &HpsModel,
    ) -> Result<Self, RegistryError> {
        assert_eq!(
            plan.usage.len(),
            cfg.workers,
            "placement plan shard count must match engine workers"
        );
        let mut tables: Vec<Vec<TenantSlot>> = (0..cfg.workers).map(|_| Vec::new()).collect();
        for (tenant, shards) in &plan.assignments {
            let rec = registry.tenant(*tenant)?;
            let live = registry.live(*tenant)?;
            for &shard in shards {
                tables[shard].push(TenantSlot {
                    id: *tenant,
                    weight: rec.weight.max(1),
                    credits: 0,
                    slo: rec.slo,
                    live_digest: live.digest,
                    executor: Box::new(NativeExecutor::compiled(&live.firmware, hps)),
                    shadow: None,
                    queue: VecDeque::new(),
                });
            }
        }
        // BTreeMap iteration already gave ascending tenant order per table.
        let placement: BTreeMap<TenantId, Vec<usize>> = plan
            .assignments
            .iter()
            .map(|(t, s)| (*t, s.clone()))
            .collect();
        let mut engine = Self::start_with_tables(cfg, standardizer, tables, placement, None);
        engine.tenant_names = registry
            .tenants()
            .map(|rec| (rec.id, rec.name.clone()))
            .collect();
        Ok(engine)
    }

    /// Starts a **supervised** engine: a dedicated supervisor thread
    /// watches for shards whose every replica has wedged (all watchdog
    /// rungs exhausted), restarts them with a fresh executor from
    /// `make_executor` under the restart budget/backoff of `policy`, and
    /// requeues the frames that were in flight so nothing is silently
    /// lost. A shard that exhausts its budget trips
    /// ([`HealthState::Tripped`]) but keeps draining its queue — counted
    /// as losses — so `Block`-policy submitters never deadlock.
    ///
    /// The factory must be `Send + 'static` because it moves into the
    /// supervisor thread to build replacement executors (same
    /// digest-pinned firmware → replays stay bit-identical).
    ///
    /// # Panics
    /// Panics when `workers`, `batch`, or `queue_depth` is zero.
    #[must_use]
    pub fn start_supervised(
        cfg: &EngineConfig,
        standardizer: &Standardizer,
        mut make_executor: impl FnMut(usize) -> Box<dyn ShardExecutor> + Send + 'static,
        policy: SupervisorPolicy,
    ) -> Self {
        let (tables, placement) = Self::single_tenant(cfg, &mut make_executor);
        let supervisor = Some((Box::new(make_executor) as ExecutorFactory, policy));
        Self::start_with_tables(cfg, standardizer, tables, placement, supervisor)
    }

    /// Native fast-path engine: every shard runs the lowered
    /// integer-quanta engine ([`NativeExecutor::compiled`]) — bit-identical
    /// to the interpreter, several times faster.
    #[must_use]
    pub fn native(
        cfg: &EngineConfig,
        firmware: &Firmware,
        hps: &HpsModel,
        standardizer: &Standardizer,
    ) -> Self {
        Self::start(cfg, standardizer, |_| {
            Box::new(NativeExecutor::compiled(firmware, hps))
        })
    }

    /// Factory of independent native engines, one per caller-chosen index
    /// — the hook a gateway fleet uses to give every federated gateway its
    /// own [`ShardedEngine`] over the same firmware. Every engine lowers
    /// the same digest-pinned firmware, so a frame replayed on a successor
    /// gateway after a failover produces a bit-identical verdict.
    pub fn native_factory(
        cfg: &EngineConfig,
        firmware: &Firmware,
        hps: &HpsModel,
        standardizer: &Standardizer,
    ) -> impl FnMut(usize) -> ShardedEngine + Send + 'static {
        let cfg = *cfg;
        let firmware = firmware.clone();
        let hps = hps.clone();
        let standardizer = standardizer.clone();
        move |_gateway| ShardedEngine::native(&cfg, &firmware, &hps, &standardizer)
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Submits one chain frame for the default tenant; the shard is
    /// `chain % workers`. Returns `false` when the frame was shed (full
    /// queue under [`DropPolicy::DropNewest`], or a dead shard).
    pub fn submit(&mut self, frame: ChainFrame) -> bool {
        let shard = frame.chain as usize % self.senders.len();
        self.submit_to(shard, DEFAULT_TENANT, frame)
    }

    /// Submits one chain frame for `tenant`, routed `chain % |shards of
    /// tenant|` over the tenant's placement so per-chain order holds per
    /// tenant. Returns `Ok(false)` when the frame was shed.
    ///
    /// # Errors
    /// [`RegistryError::UnknownTenant`] when the placement has no such
    /// tenant.
    pub fn submit_for(
        &mut self,
        tenant: TenantId,
        frame: ChainFrame,
    ) -> Result<bool, RegistryError> {
        let set = self
            .placement
            .get(&tenant)
            .ok_or(RegistryError::UnknownTenant(tenant))?;
        let shard = set[frame.chain as usize % set.len()];
        Ok(self.submit_to(shard, tenant, frame))
    }

    fn submit_to(&mut self, shard: usize, tenant: TenantId, frame: ChainFrame) -> bool {
        let job = Work::Frame(Job {
            tenant,
            chain: frame.chain,
            sequence: frame.sequence,
            packets: frame.packets,
            enqueued: Instant::now(),
        });
        let accepted = match self.drop_policy {
            DropPolicy::Block => self.senders[shard].send(job).is_ok(),
            DropPolicy::DropNewest => match self.senders[shard].try_send(job) {
                Ok(()) => true,
                Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => false,
            },
        };
        if accepted {
            self.submitted += 1;
        } else {
            self.dropped_backpressure += 1;
        }
        accepted
    }

    /// Whether `tenant` is served by this engine's placement.
    #[must_use]
    pub fn tenant_known(&self, tenant: TenantId) -> bool {
        self.placement.contains_key(&tenant)
    }

    /// Tenants served by this engine, ascending id, with their shard sets.
    #[must_use]
    pub fn placement(&self) -> &BTreeMap<TenantId, Vec<usize>> {
        &self.placement
    }

    /// Registry name of `tenant` (empty for engines started without a
    /// registry — the single-model constructors).
    #[must_use]
    pub fn tenant_name(&self, tenant: TenantId) -> &str {
        self.tenant_names.get(&tenant).map_or("", String::as_str)
    }

    /// Live digest and shadowing flag for `tenant`, observed from the
    /// tenant's first shard (`None` when the tenant is unknown).
    #[must_use]
    pub fn tenant_info(&self, tenant: TenantId) -> Option<(u64, bool)> {
        let shard = *self.placement.get(&tenant)?.first()?;
        let hub = self.hub.tenants.lock().expect("stats hub lock");
        let snap = hub.get(&(shard, tenant))?;
        Some((snap.live_digest, snap.shadow_digest.is_some()))
    }

    /// Merged drift scoreboard across shards, as published at window
    /// boundaries (see [`EngineController::drift`]).
    #[must_use]
    pub fn drift(&self) -> DriftSummary {
        self.hub.drift()
    }

    /// A cloneable control-plane handle for hot-swap drivers and consoles.
    #[must_use]
    pub fn controller(&self) -> EngineController {
        EngineController {
            senders: Arc::clone(&self.ctrl_shared),
            hub: Arc::clone(&self.hub),
            placement: Arc::clone(&self.placement),
        }
    }

    /// Registers `waiter` as the consumer of this engine's results: every
    /// worker unparks it once per executed batch, *after* the batch's
    /// results are in the channel [`ShardedEngine::poll_results`] reads.
    /// The unpark token is sticky, so a consumer that polls and then
    /// [`std::thread::park`]s cannot miss a batch that landed in between —
    /// it needs no timer to see results. Without a registration results
    /// simply wait in the channel until somebody polls.
    ///
    /// # Panics
    /// Panics on a second registration: the results channel has one
    /// consumer, and ringing two threads would hide which one polls.
    pub fn ring_on_results(&self, waiter: Thread) {
        assert!(
            self.hub.doorbell.set(waiter).is_ok(),
            "results doorbell already registered"
        );
    }

    /// Results produced so far without blocking (the engine keeps running).
    pub fn poll_results(&self) -> Vec<FrameResult> {
        std::iter::from_fn(|| self.results_rx.try_recv().ok()).collect()
    }

    /// Closes the queues, drains every worker, and returns all remaining
    /// results plus the fleet report.
    ///
    /// # Panics
    /// Panics if a shard worker panicked.
    #[must_use]
    pub fn finish(self) -> (Vec<FrameResult>, FleetReport) {
        let ShardedEngine {
            senders,
            ctrl_shared,
            results_rx,
            reports_rx,
            handles,
            supervisor,
            submitted,
            dropped_backpressure,
            started,
            ..
        } = self;
        // Sever every controller first — their cloned senders would keep
        // the workers' queues connected forever otherwise.
        *ctrl_shared.lock().expect("controller lock") = None;
        drop(senders); // workers see disconnect and flush
        for h in handles {
            h.join().expect("shard worker panicked");
        }
        // The supervisor joins any replacement workers it spawned, so
        // after this every incarnation has flushed its report.
        if let Some(s) = supervisor {
            s.join().expect("shard supervisor panicked");
        }
        let mut results: Vec<FrameResult> = results_rx.iter().collect();
        let mut shards: Vec<ShardReport> = reports_rx.iter().collect();
        shards.sort_by_key(|s| s.shard);
        results.sort_by_key(|r| (r.chain, r.sequence));
        (
            results,
            FleetReport {
                shards,
                submitted,
                dropped_backpressure,
                wall: started.elapsed(),
            },
        )
    }

    /// Convenience: runs a whole pre-generated stream through a fresh
    /// engine and returns `(results sorted by (chain, sequence), report)`.
    #[must_use]
    pub fn run_stream(
        cfg: &EngineConfig,
        standardizer: &Standardizer,
        make_executor: impl FnMut(usize) -> Box<dyn ShardExecutor>,
        frames: Vec<ChainFrame>,
    ) -> (Vec<FrameResult>, FleetReport) {
        let mut engine = Self::start(cfg, standardizer, make_executor);
        for f in frames {
            engine.submit(f);
        }
        engine.finish()
    }
}

fn publish_slot(ctx: &WorkerCtx, shard: usize, slot: &TenantSlot, acct: Option<&TenantAcct>) {
    let snap = TenantSnapshot {
        live_digest: slot.live_digest,
        processed: acct.map_or(0, |a| a.processed),
        slo_misses: acct.map_or(0, |a| a.slo_misses),
        shadow_digest: slot.shadow.as_ref().map(|s| s.digest),
        shadow: slot.shadow.as_ref().map(|s| s.stats).unwrap_or_default(),
    };
    ctx.hub
        .tenants
        .lock()
        .expect("stats hub lock")
        .insert((shard, slot.id), snap);
}

/// Applies one control message to the shard's tenant table. Unknown
/// tenants are ignored (the controller validates against the placement
/// before sending; a racing rollback after promote is harmless).
fn apply_ctrl(ctx: &WorkerCtx, table: &mut [TenantSlot], state: &mut ShardState, ctrl: Ctrl) {
    match ctrl {
        Ctrl::Stage {
            tenant,
            digest,
            tolerance,
            executor,
        } => {
            if let Some(slot) = table.iter_mut().find(|s| s.id == tenant) {
                slot.shadow = Some(ShadowSlot {
                    digest,
                    executor,
                    stats: ShadowStats::default(),
                    tolerance,
                });
                publish_slot(ctx, state.shard, slot, state.tenants.get(&tenant));
            }
        }
        Ctrl::Promote {
            tenant,
            digest,
            executor,
        } => {
            if let Some(slot) = table.iter_mut().find(|s| s.id == tenant) {
                if slot.shadow.as_ref().is_some_and(|sh| sh.digest == digest) {
                    // The canary's candidate is warmed and validated —
                    // swap it straight in.
                    let sh = slot.shadow.take().expect("digest matched");
                    state
                        .tenants
                        .entry(tenant)
                        .or_default()
                        .shadow
                        .merge(&sh.stats);
                    slot.executor = sh.executor;
                } else {
                    slot.executor = executor;
                }
                slot.live_digest = digest;
                publish_slot(ctx, state.shard, slot, state.tenants.get(&tenant));
            }
        }
        Ctrl::Rollback { tenant, digest } => {
            if let Some(slot) = table.iter_mut().find(|s| s.id == tenant) {
                if slot.shadow.as_ref().is_some_and(|sh| sh.digest == digest) {
                    let sh = slot.shadow.take().expect("digest matched");
                    state
                        .tenants
                        .entry(tenant)
                        .or_default()
                        .shadow
                        .merge(&sh.stats);
                }
                publish_slot(ctx, state.shard, slot, state.tenants.get(&tenant));
            }
        }
        Ctrl::Tap(tap) => state.tap = Some(tap),
    }
}

fn absorb(ctx: &WorkerCtx, table: &mut [TenantSlot], state: &mut ShardState, work: Work) {
    match work {
        Work::Frame(job) => {
            if let Some(slot) = table.iter_mut().find(|s| s.id == job.tenant) {
                slot.queue.push_back(job);
            } else {
                // A frame for a tenant this shard does not serve (stale
                // routing): counted, never fatal.
                state.lost += 1;
            }
        }
        Work::Ctrl(ctrl) => apply_ctrl(ctx, table, state, ctrl),
    }
}

/// Weighted deficit-round-robin pick over non-empty tenant queues: every
/// backlogged slot earns its weight in credits per round; the richest slot
/// (ties: lowest tenant id) serves next and spends everything. A lone
/// tenant is picked unconditionally — the single-model path never pays for
/// the scheduler.
fn drr_pick(table: &mut [TenantSlot]) -> Option<usize> {
    let mut any = false;
    for s in table.iter_mut() {
        if !s.queue.is_empty() {
            s.credits += u64::from(s.weight);
            any = true;
        }
    }
    if !any {
        return None;
    }
    let mut best: Option<(usize, u64)> = None;
    for (i, s) in table.iter().enumerate() {
        if s.queue.is_empty() {
            continue;
        }
        if best.is_none_or(|(_, c)| s.credits > c) {
            best = Some((i, s.credits));
        }
    }
    let (i, _) = best?;
    table[i].credits = 0;
    Some(i)
}

/// Runs one tenant's batch through its live executor (and its shadow, if
/// staged), emitting verdicts and attributing all accounting to the
/// tenant. Returns `Some(requeue)` when a supervised executor wedged —
/// the frames to hand to the supervisor.
fn run_tenant_batch(
    ctx: &WorkerCtx,
    slot: &mut TenantSlot,
    state: &mut ShardState,
    jobs: Vec<Job>,
    supervised: bool,
) -> Option<Vec<Job>> {
    // Staleness + assembly happen at the shard so the submitter never
    // pays for them.
    let mut kept: Vec<Job> = Vec::with_capacity(jobs.len());
    let mut inputs: Vec<Vec<f64>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if let Some(limit) = ctx.deadline {
            if job.enqueued.elapsed() > limit {
                state.dropped_deadline += 1;
                state.tenants.entry(slot.id).or_default().dropped_deadline += 1;
                continue;
            }
        }
        match assemble_frame(&job.packets) {
            Ok(mut readings) => {
                // Fault injection first: the campaign decalibrates the raw
                // readings exactly as drifting electronics would, so the
                // monitor, the tap and the model all see the same world.
                if let Some(campaign) = &ctx.drift_campaign {
                    campaign.apply(u64::from(job.sequence), &mut readings);
                }
                if let Some(tap) = &state.tap {
                    tap.offer(&readings);
                }
                if let Some(monitor) = &mut state.drift {
                    if let Some(status) = monitor.observe(&readings) {
                        state.drift_summary.note(status);
                        ctx.hub
                            .drift
                            .lock()
                            .expect("drift hub lock")
                            .insert(state.shard, state.drift_summary);
                    }
                }
                let n_in = slot.executor.input_len().min(readings.len());
                inputs.push(ctx.standardizer.apply_frame(&readings[..n_in]));
                kept.push(job);
            }
            Err(_) => state.assembly_errors += 1,
        }
    }
    if inputs.is_empty() {
        return None;
    }

    let outcome = slot.executor.run_batch(&inputs);
    state.batches += 1;
    state.max_batch = state.max_batch.max(inputs.len());
    merge_stats_compat(&mut state.stats, &outcome.stats);
    state.busy += outcome.busy;
    state.timings.extend(outcome.timings.iter().copied());
    {
        let acct = state.tenants.entry(slot.id).or_default();
        acct.stats.merge(&outcome.stats);
        acct.busy += outcome.busy;
    }

    // Shadow-score the identical standardized inputs on the candidate.
    // Candidate outputs are never emitted, and its stats, busy time and
    // kernel mix never fold into the live (incumbent) accounting.
    if let Some(shadow) = slot.shadow.as_mut() {
        let candidate = shadow.executor.run_batch(&inputs);
        for (inc, cand) in outcome.outputs.iter().zip(&candidate.outputs) {
            match (inc, cand) {
                (Some(a), Some(b)) => shadow.stats.record(a, b, shadow.tolerance),
                (Some(_), None) => shadow.stats.record_lost(),
                (None, _) => {}
            }
        }
    }

    // Supervised and every replica wedged: frames the dead executor
    // returned `None` for go back to the supervisor instead of being
    // counted lost.
    let wedge = supervised && slot.executor.wedged();
    let mut requeue: Vec<Job> = Vec::new();
    for ((job, out), timing) in kept.into_iter().zip(outcome.outputs).zip(&outcome.timings) {
        match out {
            Some(outputs) => {
                let verdict = if outputs.len() == 2 * reads_blm::N_BLM {
                    DeblendVerdict::from_interleaved(job.sequence, &outputs)
                } else {
                    DeblendVerdict::from_split_halves(job.sequence, &outputs)
                };
                state.processed += 1;
                {
                    let acct = state.tenants.entry(slot.id).or_default();
                    acct.processed += 1;
                    if slot.slo.is_some_and(|bound| job.enqueued.elapsed() > bound) {
                        acct.slo_misses += 1;
                    }
                }
                let _ = ctx.results_tx.send(FrameResult {
                    chain: job.chain,
                    sequence: job.sequence,
                    tenant: slot.id,
                    shard: state.shard,
                    verdict,
                    timing: *timing,
                });
            }
            None if wedge => requeue.push(job),
            None => {
                state.lost += 1;
                state.tenants.entry(slot.id).or_default().lost += 1;
            }
        }
    }
    // Once per batch, after its results are in the channel.
    ctx.hub.ring();
    publish_slot(ctx, state.shard, slot, state.tenants.get(&slot.id));
    if wedge {
        let (_, counters) = slot.executor.health();
        state.carried.merge(&counters);
        Some(requeue)
    } else {
        None
    }
}

fn shard_worker(
    ctx: WorkerCtx,
    rx: channel::Receiver<Work>,
    mut table: Vec<TenantSlot>,
    mut state: ShardState,
    requeued: Vec<Job>,
    sup_tx: Option<channel::Sender<SupMsg>>,
) {
    let supervised = sup_tx.is_some();
    let shard = state.shard;
    for slot in &table {
        publish_slot(&ctx, shard, slot, state.tenants.get(&slot.id));
    }
    // The drift monitor survives restarts inside `state`; only the first
    // incarnation creates it (and only when drift detection is on).
    if state.drift.is_none() && ctx.drift_window > 0 {
        state.drift = Some(DriftMonitor::new(&ctx.standardizer, ctx.drift_window));
    }

    // Frames requeued from a pre-restart incarnation enter the still-empty
    // tenant queues before the channel is read, so the loop below serves
    // them first and per-chain sequence order survives the restart.
    for job in requeued {
        absorb(&ctx, &mut table, &mut state, Work::Frame(job));
    }

    loop {
        let queued: usize = table.iter().map(|s| s.queue.len()).sum();
        if queued == 0 {
            match rx.recv() {
                Ok(w) => absorb(&ctx, &mut table, &mut state, w),
                Err(_) => break,
            }
        }
        // Drain what is already queued into one round (up to the cap) —
        // under load the queues are deep and batches fill; idle streams
        // degenerate to batch-of-one with no added latency.
        while table.iter().map(|s| s.queue.len()).sum::<usize>() < ctx.batch_cap {
            match rx.try_recv() {
                Ok(w) => absorb(&ctx, &mut table, &mut state, w),
                Err(_) => break,
            }
        }
        let Some(si) = drr_pick(&mut table) else {
            continue;
        };
        let take = table[si].queue.len().min(ctx.batch_cap);
        let jobs: Vec<Job> = table[si].queue.drain(..take).collect();
        if let Some(mut requeue) =
            run_tenant_batch(&ctx, &mut table[si], &mut state, jobs, supervised)
        {
            // Hand every still-queued frame back too — the replacement
            // incarnation replays them in order.
            for slot in &mut table {
                requeue.extend(slot.queue.drain(..));
            }
            if let Some(tx) = &sup_tx {
                let _ = tx.send(SupMsg::Wedge(Box::new(WedgeReport { rx, requeue, state })));
            }
            // No final report and no `Done` — the replacement incarnation
            // the supervisor spawns owns both.
            return;
        }
    }

    let mut exec_health = HealthState::Healthy;
    let mut exec_counters = HealthCounters::default();
    for slot in &table {
        let (h, c) = slot.executor.health();
        exec_health = HealthState::worst([exec_health, h]);
        exec_counters.merge(&c);
    }
    let kernel_mix = table.first().and_then(|s| s.executor.kernel_mix());
    let mut tenant_reports: Vec<TenantShardReport> = Vec::with_capacity(table.len());
    for slot in &table {
        let mut acct = state.tenants.remove(&slot.id).unwrap_or_default();
        if let Some(sh) = &slot.shadow {
            acct.shadow.merge(&sh.stats);
        }
        tenant_reports.push(TenantShardReport {
            tenant: slot.id,
            processed: acct.processed,
            lost: acct.lost,
            dropped_deadline: acct.dropped_deadline,
            slo_misses: acct.slo_misses,
            live_digest: slot.live_digest,
            stats: acct.stats,
            busy: acct.busy,
            kernel_mix: slot.executor.kernel_mix(),
            shadow_digest: slot.shadow.as_ref().map(|s| s.digest),
            shadow: acct.shadow,
        });
    }
    let mut counters = state.carried;
    counters.merge(&exec_counters);
    counters.shard_restarts += state.restarts;
    if state.denied {
        counters.restarts_denied += 1;
    }
    let health = if state.denied {
        HealthState::Tripped
    } else if state.restarts > 0 {
        HealthState::worst([exec_health, HealthState::Degraded])
    } else {
        exec_health
    };
    let _ = ctx.reports_tx.send(ShardReport {
        shard: state.shard,
        processed: state.processed,
        lost: state.lost,
        dropped_deadline: state.dropped_deadline,
        assembly_errors: state.assembly_errors,
        batches: state.batches,
        max_batch: state.max_batch,
        stats: state.stats,
        busy: state.busy,
        timings: state.timings,
        health,
        counters,
        kernel_mix,
        tenants: tenant_reports,
        drift: state.drift_summary,
    });
    if let Some(tx) = sup_tx {
        let _ = tx.send(SupMsg::Done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reads_blm::hubs::MultiChainSource;
    use reads_hls4ml::{convert, profile_model, HlsConfig};
    use reads_nn::models;

    fn mlp_firmware() -> Firmware {
        let m = models::reads_mlp(3);
        let frames = vec![vec![0.2; 259]];
        let p = profile_model(&m, &frames);
        convert(&m, &p, &HlsConfig::paper_default())
    }

    fn standardizer() -> Standardizer {
        Standardizer {
            mean: 112_000.0,
            std: 3_500.0,
        }
    }

    #[test]
    fn native_engine_processes_every_frame_in_order_per_chain() {
        let fw = mlp_firmware();
        let frames = MultiChainSource::new(3, 5).ticks(8);
        let cfg = EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        };
        let (results, report) = ShardedEngine::run_stream(
            &cfg,
            &standardizer(),
            |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
            frames,
        );
        assert_eq!(results.len(), 24, "3 chains × 8 ticks");
        assert_eq!(report.processed(), 24);
        assert_eq!(report.dropped_backpressure, 0);
        // Per-chain sequences are dense and sorted after finish().
        for chain in 0..3u32 {
            let seqs: Vec<u32> = results
                .iter()
                .filter(|r| r.chain == chain)
                .map(|r| r.sequence)
                .collect();
            assert_eq!(seqs, (0..8).collect::<Vec<u32>>());
        }
        // Every shard saw exactly one chain's frames.
        for s in &report.shards {
            assert_eq!(s.processed, 8, "shard {}", s.shard);
            assert_eq!(s.health, HealthState::Healthy);
        }
    }

    /// The engine's compiled executors against the reference interpreter,
    /// one `Firmware::infer` call per frame: verdicts and the merged
    /// overflow accounting must both match bit for bit.
    #[test]
    fn engine_outputs_match_sequential_inference_bit_for_bit() {
        let fw = mlp_firmware();
        let std = standardizer();
        let frames = MultiChainSource::new(4, 6).ticks(5);
        // Sequential reference.
        let mut want_stats = InferenceStats::default();
        let mut expect: Vec<(u32, u32, Vec<f64>)> = frames
            .iter()
            .map(|cf| {
                let readings = assemble_frame(&cf.packets).unwrap();
                let n_in = fw.input_len * fw.input_channels;
                let (out, stats) = fw.infer(&std.apply_frame(&readings[..n_in]));
                want_stats.merge(&stats);
                (cf.chain, cf.sequence, out)
            })
            .collect();
        expect.sort_by_key(|(c, s, _)| (*c, *s));
        let (results, report) = ShardedEngine::run_stream(
            &EngineConfig {
                workers: 4,
                batch: 3,
                ..EngineConfig::default()
            },
            &std,
            |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
            frames,
        );
        assert_eq!(results.len(), expect.len());
        for (r, (chain, seq, out)) in results.iter().zip(&expect) {
            assert_eq!((r.chain, r.sequence), (*chain, *seq));
            let direct = DeblendVerdict::from_split_halves(*seq, out);
            assert_eq!(r.verdict, direct, "chain {chain} seq {seq}");
        }
        // Overflow accounting is part of the contract, not just outputs.
        assert_eq!(report.merged_stats(), want_stats);
    }

    #[test]
    fn bad_chain_frames_are_counted_not_fatal() {
        let fw = mlp_firmware();
        let mut frames = MultiChainSource::new(1, 6).ticks(3);
        frames[1].packets.pop(); // lose a hub packet
        let (results, report) = ShardedEngine::run_stream(
            &EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            &standardizer(),
            |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
            frames,
        );
        assert_eq!(results.len(), 2);
        assert_eq!(report.shards[0].assembly_errors, 1);
    }

    #[test]
    fn simulated_engine_matches_native_outputs() {
        let fw = mlp_firmware();
        let std = standardizer();
        let frames = MultiChainSource::new(2, 7).ticks(3);
        let (native, _) = ShardedEngine::run_stream(
            &EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            &std,
            |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
            frames.clone(),
        );
        let (soc, report) = ShardedEngine::run_stream(
            &EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            &std,
            |shard| {
                Box::new(SocExecutor::new(
                    fw.clone(),
                    &HpsModel::default(),
                    2,
                    WatchdogPolicy::default(),
                    99 ^ shard as u64,
                ))
            },
            frames,
        );
        assert_eq!(native.len(), soc.len());
        for (a, b) in native.iter().zip(&soc) {
            assert_eq!(a.verdict, b.verdict, "SoC data path must be bit-exact");
        }
        assert_eq!(report.worst_health(), HealthState::Healthy);
        assert_eq!(report.merged_counters().faults_seen, 0);
    }

    #[test]
    fn fleet_throughput_scales_with_workers() {
        let fw = mlp_firmware();
        let std = standardizer();
        let run = |workers: usize| {
            let frames = MultiChainSource::new(8, 11).ticks(6);
            let (_, report) = ShardedEngine::run_stream(
                &EngineConfig {
                    workers,
                    ..EngineConfig::default()
                },
                &std,
                |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
                frames,
            );
            report.throughput()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four.fleet_fps >= 3.0 * one.fleet_fps,
            "4 workers {:.0} fps vs 1 worker {:.0} fps",
            four.fleet_fps,
            one.fleet_fps
        );
        assert!((four.speedup - 4.0).abs() < 0.5, "{}", four.speedup);
    }

    #[test]
    fn multi_tenant_engine_routes_and_attributes_per_tenant() {
        use crate::registry::{ModelRegistry, PlacementPlanner, ShardBudget};
        let fw_a = mlp_firmware();
        let fw_b = {
            let m = models::reads_mlp(4);
            let frames = vec![vec![0.2; 259]];
            let p = profile_model(&m, &frames);
            convert(&m, &p, &HlsConfig::paper_default())
        };
        let std = standardizer();
        let mut registry = ModelRegistry::new();
        registry.add_tenant(0, "default", 1, None).unwrap();
        registry.add_tenant(1, "mlp-b", 2, None).unwrap();
        let dig_a = registry.register_live(0, fw_a.clone()).unwrap();
        let dig_b = registry.register_live(1, fw_b.clone()).unwrap();
        assert_ne!(dig_a, dig_b);
        let budget = ShardBudget {
            ip_aluts: u64::MAX / 4,
            dsps: u64::MAX / 4,
            m20k_blocks: u64::MAX / 4,
        };
        let plan = PlacementPlanner::new(budget, 2).plan(&registry).unwrap();
        let cfg = EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        };
        let mut engine =
            ShardedEngine::start_multi(&cfg, &std, &registry, &plan, &HpsModel::default()).unwrap();
        assert!(engine.tenant_known(0) && engine.tenant_known(1));
        assert!(!engine.tenant_known(9));
        let frames = MultiChainSource::new(2, 5).ticks(6);
        for f in frames.clone() {
            assert!(engine.submit_for(0, f).unwrap());
        }
        for f in frames.clone() {
            assert!(engine.submit_for(1, f).unwrap());
        }
        assert!(matches!(
            engine.submit_for(9, frames[0].clone()),
            Err(RegistryError::UnknownTenant(9))
        ));
        let (results, report) = engine.finish();
        assert_eq!(results.len(), 24, "2 tenants × 2 chains × 6 ticks");
        // Each tenant's verdicts are bit-identical to its own firmware run
        // sequentially — tenants never bleed into each other.
        for r in &results {
            let fw = if r.tenant == 0 { &fw_a } else { &fw_b };
            let cf = frames
                .iter()
                .find(|f| f.chain == r.chain && f.sequence == r.sequence)
                .unwrap();
            let readings = assemble_frame(&cf.packets).unwrap();
            let n_in = fw.input_len * fw.input_channels;
            let (out, _) = fw.infer(&std.apply_frame(&readings[..n_in]));
            let direct = DeblendVerdict::from_split_halves(r.sequence, &out);
            assert_eq!(r.verdict, direct, "tenant {} chain {}", r.tenant, r.chain);
        }
        // Per-tenant attribution: every shard reports its tenants with the
        // digests they served, and totals reconcile with the aggregate.
        let mut per_tenant: BTreeMap<TenantId, u64> = BTreeMap::new();
        for s in &report.shards {
            let mut tenant_sum = 0;
            for t in &s.tenants {
                per_tenant
                    .entry(t.tenant)
                    .and_modify(|v| *v += t.processed)
                    .or_insert(t.processed);
                tenant_sum += t.processed;
                let expect = if t.tenant == 0 { dig_a } else { dig_b };
                assert_eq!(t.live_digest, expect);
                assert!(t.kernel_mix.is_some(), "compiled executors report mix");
                assert_eq!(t.shadow.frames, 0, "nothing was shadowing");
            }
            assert_eq!(tenant_sum, s.processed, "tenant slices cover the shard");
        }
        assert_eq!(per_tenant[&0], 12);
        assert_eq!(per_tenant[&1], 12);
    }

    #[test]
    fn legacy_single_tenant_report_has_default_tenant_slice() {
        let fw = mlp_firmware();
        let frames = MultiChainSource::new(1, 2).ticks(4);
        let (_, report) = ShardedEngine::run_stream(
            &EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            &standardizer(),
            |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
            frames,
        );
        let s = &report.shards[0];
        assert_eq!(s.tenants.len(), 1);
        assert_eq!(s.tenants[0].tenant, DEFAULT_TENANT);
        assert_eq!(s.tenants[0].processed, s.processed);
        assert_eq!(s.tenants[0].live_digest, 0, "legacy path carries no digest");
        assert_eq!(s.tenants[0].slo_misses, 0);
    }

    #[test]
    fn deadline_zero_sheds_every_frame() {
        let fw = mlp_firmware();
        let frames = MultiChainSource::new(1, 12).ticks(4);
        let (results, report) = ShardedEngine::run_stream(
            &EngineConfig {
                workers: 1,
                deadline: Some(Duration::ZERO),
                ..EngineConfig::default()
            },
            &standardizer(),
            |_| Box::new(NativeExecutor::compiled(&fw, &HpsModel::default())),
            frames,
        );
        assert!(results.is_empty());
        assert_eq!(report.shards[0].dropped_deadline, 4);
        assert_eq!(report.processed(), 0);
    }
}
