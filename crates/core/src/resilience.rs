//! Watchdog recovery and health tracking for the central node.
//!
//! The fault plane (`reads-soc::faults`) can hang the trigger/done/IRQ
//! handshake; a deployed 320 fps system cannot afford a wedged pipeline.
//! [`Watchdog`] drives [`CentralNodeSim::run_frame_checked`] behind a
//! deadline-budgeted recovery ladder:
//!
//! 1. **timeout** — the watchdog fires after [`WatchdogPolicy::timeout`];
//! 2. **salvage** — poll the status registers; a lost done-IRQ leaves DONE
//!    readable and the results sitting in the output RAM (no recompute);
//! 3. **re-trigger** — probe whether the controller still accepts triggers;
//! 4. **soft reset** — force the FSM out of a stuck state and re-run;
//! 5. **weight re-scrub** — restore the firmware from the golden copy in
//!    HPS DDR and re-run (also issued periodically via
//!    [`WatchdogPolicy::scrub_interval`]).
//!
//! Every action is charged simulated wall-clock time, so deadline misses
//! under recovery are measured, not assumed. [`HealthState`] summarizes
//! the node for the operator console; [`run_fault_campaign`] sweeps fault
//! rates into availability/deadline-miss curves (with and without the
//! watchdog) for the robustness study.

use rayon::prelude::*;
use reads_hls4ml::Firmware;
use reads_sim::SimDuration;
use reads_soc::faults::FaultPlan;
use reads_soc::hps::HpsModel;
use reads_soc::node::{CentralNodeSim, FrameTiming, HangKind};
use serde::Serialize;

/// Operator-facing health of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum HealthState {
    /// Nominal operation.
    Healthy,
    /// Recent faults or deadline misses; still producing verdicts.
    Degraded,
    /// An unrecovered hang — the pipeline needed outside intervention.
    /// Latched until [`Watchdog::reset_health`].
    Tripped,
}

impl HealthState {
    /// The worst state in `states` — the fleet view of a sharded node,
    /// where one tripped shard degrades the aggregate without hiding that
    /// the others are fine. An empty iterator is [`HealthState::Healthy`].
    #[must_use]
    pub fn worst(states: impl IntoIterator<Item = HealthState>) -> HealthState {
        states
            .into_iter()
            .max_by_key(|s| match s {
                HealthState::Healthy => 0,
                HealthState::Degraded => 1,
                HealthState::Tripped => 2,
            })
            .unwrap_or(HealthState::Healthy)
    }
}

/// Resilience counters, cheap enough to keep for an entire store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct HealthCounters {
    /// Handshake hangs observed (every watchdog firing).
    pub faults_seen: u64,
    /// Hangs recovered within budget.
    pub recoveries: u64,
    /// Rung-2 salvages (lost IRQ: results recovered without recompute).
    pub salvages: u64,
    /// Rung-3 re-trigger probes issued.
    pub retriggers: u64,
    /// Rung-4 soft resets issued.
    pub soft_resets: u64,
    /// Rung-5 weight re-scrubs (ladder escalations + periodic).
    pub rescrubs: u64,
    /// Frames whose wall clock (including recovery) missed the deadline.
    pub deadline_misses: u64,
    /// Hangs the ladder could not recover.
    pub unrecovered: u64,
    /// Total time spent from first stall to recovery, nanoseconds
    /// (numerator of MTTR).
    pub recovery_ns: u64,
    /// Supervised shard restarts: a fully wedged executor was torn down
    /// and respawned from the digest-pinned build.
    pub shard_restarts: u64,
    /// Restart requests refused because the shard exhausted its
    /// [`SupervisorPolicy::max_restarts`] budget (the shard trips and
    /// drains its queue as lost frames instead of respawning forever).
    pub restarts_denied: u64,
}

impl HealthCounters {
    /// Accumulates another watcher's counters (per-shard → fleet merge).
    pub fn merge(&mut self, other: &HealthCounters) {
        self.faults_seen += other.faults_seen;
        self.recoveries += other.recoveries;
        self.salvages += other.salvages;
        self.retriggers += other.retriggers;
        self.soft_resets += other.soft_resets;
        self.rescrubs += other.rescrubs;
        self.deadline_misses += other.deadline_misses;
        self.unrecovered += other.unrecovered;
        self.recovery_ns += other.recovery_ns;
        self.shard_restarts += other.shard_restarts;
        self.restarts_denied += other.restarts_denied;
    }

    /// Mean time to recovery over recovered hangs, milliseconds.
    #[must_use]
    pub fn mttr_ms(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_ns as f64 / self.recoveries as f64 / 1.0e6
        }
    }
}

/// Network-plane resilience counters: the transport-side complement of
/// [`HealthCounters`]. The TCP hub gateway (`reads-net`) accumulates these
/// from wire-level decode failures, per-chain sequence tracking, and the
/// subscriber slow-consumer policy, so the PR 1 health machinery — the
/// Healthy/Degraded/Tripped ladder and the operator console — covers the
/// transport as well as the inference pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct NetCounters {
    /// Connections accepted over the gateway's lifetime.
    pub connections: u64,
    /// Connections that ended (EOF, error, or forced disconnect).
    pub disconnects: u64,
    /// Well-formed wire messages decoded.
    pub messages: u64,
    /// Wire frames rejected by the codec (bad magic/version/CRC/length —
    /// each one is a transport fault, never a panic).
    pub decode_errors: u64,
    /// Hub-chain frames fully assembled from their seven packets.
    pub frames_assembled: u64,
    /// Assembled frames accepted into the inference engine's queues.
    pub frames_accepted: u64,
    /// Sequence-number gaps observed per chain (a completed frame skipped
    /// ahead of the expected sequence).
    pub sequence_gaps: u64,
    /// Packets that arrived behind the newest pending sequence but were
    /// still mergeable (out-of-order delivery).
    pub reordered: u64,
    /// Packets for sequences already completed or evicted — too stale to
    /// use in a 3 ms control loop.
    pub stale_drops: u64,
    /// Duplicate hub packets within one pending frame.
    pub duplicate_packets: u64,
    /// Incomplete frames evicted because the chain moved too far ahead
    /// (a hub died mid-frame).
    pub expired_incomplete: u64,
    /// Frames shed at engine submission (backpressure).
    pub backpressure_drops: u64,
    /// Verdicts dropped on slow subscriber queues (DropNewest policy).
    pub slow_consumer_drops: u64,
    /// Subscribers force-disconnected for falling behind (Disconnect
    /// policy).
    pub slow_consumer_disconnects: u64,
    /// Sessions resumed across a reconnect (a `Resume` wire message found
    /// its parked session alive within the resume window).
    pub resumes: u64,
    /// Resume attempts whose session was unknown or expired — the client
    /// was issued a fresh session and its server-side replay state is gone.
    pub resume_rejects: u64,
    /// Connections refused because the session table was at
    /// `max_sessions` with nothing parked to evict.
    pub session_rejects: u64,
    /// Replayed producer frames deduplicated against the completed
    /// watermark and re-acked (idempotent replay: one re-ack per frame, no
    /// second inference).
    pub replayed_frames: u64,
    /// Verdicts re-sent to resumed subscribers from the parked replay
    /// ring.
    pub replayed_verdicts: u64,
    /// Replay-ring entries evicted while their subscriber session was
    /// parked — verdicts a resuming subscriber can no longer recover.
    pub resume_overflow: u64,
    /// `Redirect` answers sent by a fleet-member gateway: misrouted hub
    /// packets bounced to the owning gateway plus explicit `Route`
    /// queries answered. Not an anomaly — lazy placement discovery is how
    /// clients are *supposed* to learn the hash ring.
    pub redirects: u64,
    /// Sessions adopted from a dead fleet peer: a `Resume` whose session
    /// was unknown locally but found in the gossiped digest of a gateway
    /// the fleet supervisor declared dead, imported and rebound here.
    pub handoffs: u64,
    /// `TenantSelect` requests that rebound a session onto a registry
    /// tenant the engine serves. Not an anomaly — multi-model clients
    /// are *supposed* to select their tenant.
    pub tenant_selects: u64,
    /// `TenantSelect` requests naming a tenant this engine does not
    /// serve; the session kept its previous binding. Not an anomaly: the
    /// client learns the truth from the `TenantInfo` reply.
    pub tenant_rejects: u64,
    /// Online-adaptation retrain attempts started by this gateway's
    /// adaptation loop. Not an anomaly — retraining is the loop working.
    pub adapt_retrains: u64,
    /// Adapted candidates promoted to live by the shadow gate.
    pub adapt_promoted: u64,
    /// Adapted candidates rejected (offline gates or live rollback). Not
    /// an anomaly: a rollback is the guardrail doing its job, and it
    /// never touches served traffic.
    pub adapt_rolled_back: u64,
}

impl NetCounters {
    /// Accumulates another gateway's counters (per-listener → site merge).
    pub fn merge(&mut self, other: &NetCounters) {
        self.connections += other.connections;
        self.disconnects += other.disconnects;
        self.messages += other.messages;
        self.decode_errors += other.decode_errors;
        self.frames_assembled += other.frames_assembled;
        self.frames_accepted += other.frames_accepted;
        self.sequence_gaps += other.sequence_gaps;
        self.reordered += other.reordered;
        self.stale_drops += other.stale_drops;
        self.duplicate_packets += other.duplicate_packets;
        self.expired_incomplete += other.expired_incomplete;
        self.backpressure_drops += other.backpressure_drops;
        self.slow_consumer_drops += other.slow_consumer_drops;
        self.slow_consumer_disconnects += other.slow_consumer_disconnects;
        self.resumes += other.resumes;
        self.resume_rejects += other.resume_rejects;
        self.session_rejects += other.session_rejects;
        self.replayed_frames += other.replayed_frames;
        self.replayed_verdicts += other.replayed_verdicts;
        self.resume_overflow += other.resume_overflow;
        self.redirects += other.redirects;
        self.handoffs += other.handoffs;
        self.tenant_selects += other.tenant_selects;
        self.tenant_rejects += other.tenant_rejects;
        self.adapt_retrains += other.adapt_retrains;
        self.adapt_promoted += other.adapt_promoted;
        self.adapt_rolled_back += other.adapt_rolled_back;
    }

    /// Transport anomalies that indicate data was damaged or lost in
    /// flight (the inputs to the health ladder).
    #[must_use]
    pub fn anomalies(&self) -> u64 {
        self.decode_errors
            + self.sequence_gaps
            + self.stale_drops
            + self.duplicate_packets
            + self.expired_incomplete
            + self.backpressure_drops
            + self.slow_consumer_drops
            + self.slow_consumer_disconnects
            + self.resume_rejects
            + self.session_rejects
            + self.resume_overflow
    }

    /// Health of the transport under the same ladder the watchdog uses:
    /// any anomaly degrades; losing a subscriber to the slow-consumer
    /// policy trips (an operator must notice a consumer that cannot keep
    /// up, exactly like an unrecovered hang).
    #[must_use]
    pub fn health(&self) -> HealthState {
        if self.slow_consumer_disconnects > 0 {
            HealthState::Tripped
        } else if self.anomalies() > 0 {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        }
    }

    /// Projects the transport counters into the watchdog's
    /// [`HealthCounters`] vocabulary so fleet merges (`per-shard + net`)
    /// stay single-typed: every anomaly is a fault seen; recoveries are
    /// the anomalies the protocol absorbed without losing a frame
    /// (reorders merged, duplicates ignored); unrecovered are frames or
    /// verdicts actually lost.
    #[must_use]
    pub fn as_health_counters(&self) -> HealthCounters {
        HealthCounters {
            faults_seen: self.anomalies() + self.reordered,
            recoveries: self.reordered
                + self.duplicate_packets
                + self.resumes
                + self.replayed_frames
                + self.replayed_verdicts,
            unrecovered: self.decode_errors
                + self.expired_incomplete
                + self.backpressure_drops
                + self.slow_consumer_drops
                + self.slow_consumer_disconnects
                + self.session_rejects
                + self.resume_overflow,
            ..HealthCounters::default()
        }
    }
}

/// The recovery budget.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WatchdogPolicy {
    /// Hang-detection timeout: charged once per watchdog firing.
    pub timeout: SimDuration,
    /// Frame deadline for the deadline-miss accounting.
    pub deadline: SimDuration,
    /// Recovery attempts (full ladder passes) before declaring the hang
    /// unrecoverable.
    pub max_attempts: u32,
    /// Re-scrub the weights from the golden copy every this many frames
    /// (`None` = only on ladder escalation).
    pub scrub_interval: Option<u64>,
    /// Consecutive clean frames required to heal Degraded → Healthy.
    pub heal_after: u64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        Self {
            // One missed frame period at 320 fps: the watchdog notices a
            // silent handshake by the next tick.
            timeout: SimDuration::from_millis(3),
            deadline: SimDuration::from_millis(3),
            max_attempts: 3,
            scrub_interval: None,
            heal_after: 64,
        }
    }
}

/// Restart budget for the shard supervisor (`engine::ShardedEngine`
/// under `start_supervised`). The watchdog ladder recovers *within* an
/// executor; the supervisor is the next rung up — when every replica of a
/// shard's executor is wedged, it tears the executor down and respawns a
/// fresh one from the digest-pinned build, requeueing the in-flight
/// frames. Budgeted and backed off so a hard fault cannot turn into a
/// restart storm: past `max_restarts` the shard trips and drains its
/// queue as counted losses instead of respawning forever.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorPolicy {
    /// Restarts granted per shard before it trips.
    pub max_restarts: u32,
    /// Backoff before the first restart of a shard; doubles per restart.
    pub base_backoff: std::time::Duration,
    /// Backoff ceiling.
    pub max_backoff: std::time::Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            base_backoff: std::time::Duration::from_millis(2),
            max_backoff: std::time::Duration::from_millis(100),
        }
    }
}

impl SupervisorPolicy {
    /// The backoff before restart number `n` (0-based), doubling from
    /// [`SupervisorPolicy::base_backoff`] and capped at
    /// [`SupervisorPolicy::max_backoff`].
    #[must_use]
    pub fn backoff_for(&self, n: u32) -> std::time::Duration {
        let doubled = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(n.min(16)));
        doubled.min(self.max_backoff)
    }
}

/// One watched frame's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct WatchedFrame {
    /// The frame outputs (`None` only when the hang was unrecoverable).
    pub outputs: Option<Vec<f64>>,
    /// Timing of the final (successful or salvaged) run. On an
    /// unrecovered frame this accounts the time wasted before giving up.
    pub timing: FrameTiming,
    /// Whether the handshake hung at least once.
    pub hung: bool,
    /// Whether a hang was recovered within budget.
    pub recovered: bool,
    /// Whether the wall clock (including recovery) missed the deadline.
    pub deadline_missed: bool,
}

/// The handshake watchdog.
#[derive(Debug, Clone)]
pub struct Watchdog {
    policy: WatchdogPolicy,
    golden: Firmware,
    counters: HealthCounters,
    state: HealthState,
    clean_streak: u64,
    frames_since_scrub: u64,
}

fn zero_timing(total: SimDuration, read: SimDuration) -> FrameTiming {
    FrameTiming {
        read,
        misc: total.saturating_sub(read),
        total,
        ..FrameTiming::default()
    }
}

impl Watchdog {
    /// Builds a watchdog holding the golden firmware copy (the scrub
    /// source — in hardware this lives in HPS DDR, ECC-protected).
    #[must_use]
    pub fn new(golden: Firmware, policy: WatchdogPolicy) -> Self {
        Self {
            policy,
            golden,
            counters: HealthCounters::default(),
            state: HealthState::Healthy,
            clean_streak: 0,
            frames_since_scrub: 0,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> &WatchdogPolicy {
        &self.policy
    }

    /// The resilience counters.
    #[must_use]
    pub fn counters(&self) -> &HealthCounters {
        &self.counters
    }

    /// Current health state.
    #[must_use]
    pub fn health(&self) -> HealthState {
        self.state
    }

    /// Clears a latched trip (operator action) back to Degraded.
    pub fn reset_health(&mut self) {
        if self.state == HealthState::Tripped {
            self.state = HealthState::Degraded;
            self.clean_streak = 0;
        }
    }

    /// Runs one frame under watchdog protection, walking the recovery
    /// ladder on hangs. All recovery costs are charged to the returned
    /// wall clock.
    pub fn run_frame(&mut self, node: &mut CentralNodeSim, standardized: &[f64]) -> WatchedFrame {
        let mut total = SimDuration::ZERO;

        // Periodic preventive scrub (repairs silent SEU weight corruption).
        if let Some(k) = self.policy.scrub_interval {
            self.frames_since_scrub += 1;
            if self.frames_since_scrub >= k {
                total += node.scrub_weights(&self.golden);
                self.counters.rescrubs += 1;
                self.frames_since_scrub = 0;
            }
        }

        let mut attempts = 0u32;
        let mut hung = false;
        let mut first_stall: Option<SimDuration> = None;

        loop {
            match node.run_frame_checked(standardized) {
                Ok((outputs, timing)) => {
                    total += timing.total;
                    let recovered = hung;
                    if recovered {
                        self.counters.recoveries += 1;
                        let stall = first_stall.unwrap_or(SimDuration::ZERO);
                        self.counters.recovery_ns += total.saturating_sub(stall).as_nanos();
                    }
                    let deadline_missed = total > self.policy.deadline;
                    self.counters.deadline_misses += u64::from(deadline_missed);
                    self.note_frame(!hung && !deadline_missed, false);
                    return WatchedFrame {
                        outputs: Some(outputs),
                        timing: FrameTiming { total, ..timing },
                        hung,
                        recovered,
                        deadline_missed,
                    };
                }
                Err(hang) => {
                    hung = true;
                    self.counters.faults_seen += 1;
                    // The pipeline sat silent from the stall until the
                    // watchdog timeout fired.
                    total += hang.stalled_at + self.policy.timeout;
                    if first_stall.is_none() {
                        first_stall = Some(total.saturating_sub(self.policy.timeout));
                    }
                    attempts += 1;
                    if attempts > self.policy.max_attempts {
                        self.counters.unrecovered += 1;
                        self.note_frame(false, true);
                        return WatchedFrame {
                            outputs: None,
                            timing: zero_timing(total, SimDuration::ZERO),
                            hung: true,
                            recovered: false,
                            deadline_missed: true,
                        };
                    }
                    // Rung 2: salvage a lost-IRQ frame without recompute.
                    if hang.kind == HangKind::LostDoneIrq {
                        if let Some((outputs, cost)) = node.try_salvage() {
                            total += cost;
                            self.counters.salvages += 1;
                            self.counters.recoveries += 1;
                            let stall = first_stall.unwrap_or(SimDuration::ZERO);
                            self.counters.recovery_ns += total.saturating_sub(stall).as_nanos();
                            let deadline_missed = total > self.policy.deadline;
                            self.counters.deadline_misses += u64::from(deadline_missed);
                            self.note_frame(false, false);
                            return WatchedFrame {
                                outputs: Some(outputs),
                                timing: zero_timing(total, cost),
                                hung: true,
                                recovered: true,
                                deadline_missed,
                            };
                        }
                    }
                    // Rung 3: does the controller still accept triggers?
                    let (started, cost) = node.try_retrigger();
                    total += cost;
                    self.counters.retriggers += 1;
                    if !started {
                        // Rung 4: soft-reset the stuck FSM.
                        total += node.soft_reset();
                        self.counters.soft_resets += 1;
                    }
                    // Rung 5: repeated failure → suspect corrupted weights,
                    // re-scrub from the golden copy before the next attempt.
                    if attempts >= 2 {
                        total += node.scrub_weights(&self.golden);
                        self.counters.rescrubs += 1;
                    }
                }
            }
        }
    }

    fn note_frame(&mut self, clean: bool, unrecovered: bool) {
        if unrecovered {
            self.state = HealthState::Tripped;
            self.clean_streak = 0;
            return;
        }
        if self.state == HealthState::Tripped {
            return; // latched until operator reset
        }
        if clean {
            self.clean_streak += 1;
            if self.state == HealthState::Degraded && self.clean_streak >= self.policy.heal_after {
                self.state = HealthState::Healthy;
            }
        } else {
            self.state = HealthState::Degraded;
            self.clean_streak = 0;
        }
    }
}

/// One row of the fault-rate sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FaultCampaignRow {
    /// Stuck-FSM probability per frame.
    pub fault_rate: f64,
    /// Whether the watchdog was attached.
    pub watchdog: bool,
    /// Frames that produced outputs / frames offered.
    pub availability: f64,
    /// Frames (incl. recovery time) over the 3 ms deadline / frames offered.
    pub deadline_miss_rate: f64,
    /// Hangs recovered.
    pub recovered: u64,
    /// Hangs not recovered (pipeline wedged without a watchdog).
    pub unrecovered: u64,
    /// Mean produced-frame wall clock, ms.
    pub mean_ms: f64,
    /// Mean time to recovery, ms (0 when nothing recovered).
    pub mttr_ms: f64,
}

/// Configuration of one fault-campaign point.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FaultCampaignConfig {
    /// Stuck-FSM probability per frame.
    pub fault_rate: f64,
    /// Total frames offered (split evenly over replicas).
    pub frames: usize,
    /// Independent node replicas (rayon-parallel, derived seeds).
    pub replicas: usize,
    /// Campaign seed; fixes both cost-model and fault streams.
    pub seed: u64,
    /// Attach the watchdog, or let hangs wedge the pipeline.
    pub watchdog: bool,
}

/// Monte-Carlo sweep of one stuck-FSM fault rate: independent node
/// replicas each offered `frames / replicas` frames. Without a watchdog a
/// hang wedges the replica — every remaining frame is lost, exactly like
/// a deployment without recovery. Deterministic for a fixed seed.
#[must_use]
pub fn run_fault_campaign(
    firmware: &Firmware,
    hps: &HpsModel,
    input: &[f64],
    cfg: &FaultCampaignConfig,
) -> FaultCampaignRow {
    let FaultCampaignConfig {
        fault_rate,
        frames,
        replicas,
        seed,
        watchdog,
    } = *cfg;
    assert!(replicas > 0 && frames >= replicas);
    let per_replica = frames / replicas;
    let results: Vec<(u64, u64, f64, u64, u64, u64)> = (0..replicas)
        .into_par_iter()
        .map(|r| {
            let node_seed = seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut node = CentralNodeSim::new(firmware.clone(), hps.clone(), node_seed);
            node.set_fault_plan(Some(FaultPlan::stuck_fsm(
                fault_rate,
                seed ^ (r as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            )));
            let mut produced = 0u64;
            let mut misses = 0u64;
            let mut sum_ms = 0.0f64;
            if watchdog {
                let mut wd = Watchdog::new(firmware.clone(), WatchdogPolicy::default());
                for _ in 0..per_replica {
                    let f = wd.run_frame(&mut node, input);
                    if f.outputs.is_some() {
                        produced += 1;
                        sum_ms += f.timing.total.as_millis_f64();
                    }
                    misses += u64::from(f.deadline_missed);
                }
                let c = *wd.counters();
                (
                    produced,
                    misses,
                    sum_ms,
                    c.recoveries,
                    c.unrecovered,
                    c.recovery_ns,
                )
            } else {
                let mut unrecovered = 0u64;
                for _ in 0..per_replica {
                    match node.run_frame_checked(input) {
                        Ok((_, t)) => {
                            produced += 1;
                            let ms = t.total.as_millis_f64();
                            sum_ms += ms;
                            misses += u64::from(ms > 3.0);
                        }
                        Err(_) => {
                            // No watchdog: the pipeline wedges. Every
                            // remaining frame of this replica is lost and
                            // late.
                            unrecovered = 1;
                            misses += (per_replica as u64) - produced;
                            break;
                        }
                    }
                }
                (produced, misses, sum_ms, 0, unrecovered, 0)
            }
        })
        .collect();

    let offered = (per_replica * replicas) as f64;
    let mut produced = 0u64;
    let mut misses = 0u64;
    let mut sum_ms = 0.0;
    let mut recovered = 0u64;
    let mut unrecovered = 0u64;
    let mut recovery_ns = 0u64;
    for (p, m, s, rec, unrec, rns) in results {
        produced += p;
        misses += m;
        sum_ms += s;
        recovered += rec;
        unrecovered += unrec;
        recovery_ns += rns;
    }
    FaultCampaignRow {
        fault_rate,
        watchdog,
        availability: produced as f64 / offered,
        deadline_miss_rate: misses as f64 / offered,
        recovered,
        unrecovered,
        mean_ms: if produced > 0 {
            sum_ms / produced as f64
        } else {
            0.0
        },
        mttr_ms: if recovered > 0 {
            recovery_ns as f64 / recovered as f64 / 1.0e6
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reads_hls4ml::{convert, profile_model, HlsConfig};
    use reads_nn::models;

    fn mlp_firmware() -> Firmware {
        let m = models::reads_mlp(3);
        let frames = vec![vec![0.2; 259]];
        let p = profile_model(&m, &frames);
        convert(&m, &p, &HlsConfig::paper_default())
    }

    #[test]
    fn net_counters_ladder_and_merge() {
        let clean = NetCounters::default();
        assert_eq!(clean.health(), HealthState::Healthy);
        let mut degraded = NetCounters {
            decode_errors: 3,
            sequence_gaps: 2,
            reordered: 5,
            ..NetCounters::default()
        };
        assert_eq!(degraded.health(), HealthState::Degraded);
        let tripped = NetCounters {
            slow_consumer_disconnects: 1,
            ..NetCounters::default()
        };
        assert_eq!(tripped.health(), HealthState::Tripped);
        degraded.merge(&tripped);
        assert_eq!(degraded.health(), HealthState::Tripped);
        assert_eq!(degraded.decode_errors, 3);
        // Projection into the watchdog vocabulary keeps loss visible.
        let hc = degraded.as_health_counters();
        assert_eq!(hc.faults_seen, degraded.anomalies() + degraded.reordered);
        assert_eq!(hc.unrecovered, 3 + 1); // decode errors + slow disconnect...
        assert!(hc.recoveries >= 5);
    }

    #[test]
    fn supervisor_backoff_doubles_and_caps() {
        let p = SupervisorPolicy::default();
        assert_eq!(p.backoff_for(0), p.base_backoff);
        assert_eq!(p.backoff_for(1), p.base_backoff * 2);
        assert_eq!(p.backoff_for(30), p.max_backoff, "ceiling holds");
        // Supervision counters ride the standard merge.
        let mut a = HealthCounters {
            shard_restarts: 2,
            restarts_denied: 1,
            ..HealthCounters::default()
        };
        a.merge(&HealthCounters {
            shard_restarts: 1,
            ..HealthCounters::default()
        });
        assert_eq!(a.shard_restarts, 3);
        assert_eq!(a.restarts_denied, 1);
    }

    #[test]
    fn resume_counters_feed_the_health_ladder() {
        let resumed = NetCounters {
            resumes: 3,
            replayed_frames: 2,
            replayed_verdicts: 4,
            ..NetCounters::default()
        };
        // Successful resumes are recoveries, not anomalies: health stays
        // clean when every outage was absorbed.
        assert_eq!(resumed.health(), HealthState::Healthy);
        let hc = resumed.as_health_counters();
        assert_eq!(hc.recoveries, 3 + 2 + 4);
        // Lost replay state is an anomaly the operator must see.
        let lossy = NetCounters {
            resume_rejects: 1,
            resume_overflow: 5,
            session_rejects: 2,
            ..NetCounters::default()
        };
        assert_eq!(lossy.health(), HealthState::Degraded);
        assert_eq!(lossy.as_health_counters().unrecovered, 5 + 2);
    }

    #[test]
    fn watchdog_recovers_stuck_fsm_frames() {
        let fw = mlp_firmware();
        let mut node = CentralNodeSim::new(fw.clone(), HpsModel::default(), 3);
        node.set_fault_plan(Some(FaultPlan::stuck_fsm(0.05, 7)));
        let mut wd = Watchdog::new(fw, WatchdogPolicy::default());
        let input = vec![0.2; 259];
        let mut hung = 0;
        for _ in 0..400 {
            let f = wd.run_frame(&mut node, &input);
            assert!(f.outputs.is_some(), "every frame must produce outputs");
            hung += u64::from(f.hung);
        }
        assert!(hung > 5, "5% hazard must hang some frames, saw {hung}");
        let c = wd.counters();
        assert_eq!(c.unrecovered, 0);
        assert_eq!(c.recoveries, hung);
        assert!(c.soft_resets >= hung, "stuck FSM needs the reset rung");
        assert!(c.mttr_ms() > 0.0);
        assert_eq!(wd.health(), HealthState::Degraded, "faults degrade health");
    }

    #[test]
    fn watchdog_salvages_lost_irq_without_recompute() {
        let fw = mlp_firmware();
        let input = vec![0.1; 259];
        let (direct, _) = fw.infer(&input);
        let mut node = CentralNodeSim::new(fw.clone(), HpsModel::default(), 4);
        node.set_fault_plan(Some(FaultPlan::lost_irq(1.0, 8)));
        let mut wd = Watchdog::new(fw, WatchdogPolicy::default());
        let f = wd.run_frame(&mut node, &input);
        assert_eq!(f.outputs.as_deref(), Some(direct.as_slice()));
        assert!(f.recovered);
        assert_eq!(wd.counters().salvages, 1);
        assert_eq!(wd.counters().soft_resets, 0, "salvage needs no reset");
    }

    #[test]
    fn health_heals_after_clean_streak() {
        let fw = mlp_firmware();
        let mut node = CentralNodeSim::new(fw.clone(), HpsModel::default(), 5);
        // Transient hazard: retries after the soft reset draw independently,
        // so the ladder recovers (a rate of 1.0 would model a hard fault the
        // ladder rightly gives up on).
        node.set_fault_plan(Some(FaultPlan::stuck_fsm(0.2, 9)));
        let mut wd = Watchdog::new(
            fw,
            WatchdogPolicy {
                heal_after: 8,
                ..WatchdogPolicy::default()
            },
        );
        let input = vec![0.0; 259];
        // Run until the hazard fires...
        let mut f = wd.run_frame(&mut node, &input);
        while !f.hung {
            f = wd.run_frame(&mut node, &input);
        }
        assert!(f.recovered);
        assert_eq!(wd.health(), HealthState::Degraded);
        // ...then remove the hazard and heal.
        node.set_fault_plan(None);
        for _ in 0..8 {
            wd.run_frame(&mut node, &input);
        }
        assert_eq!(wd.health(), HealthState::Healthy);
    }

    #[test]
    fn periodic_scrub_fires_on_schedule() {
        let fw = mlp_firmware();
        let mut node = CentralNodeSim::new(fw.clone(), HpsModel::default(), 6);
        let mut wd = Watchdog::new(
            fw,
            WatchdogPolicy {
                scrub_interval: Some(4),
                ..WatchdogPolicy::default()
            },
        );
        let input = vec![0.0; 259];
        for _ in 0..12 {
            wd.run_frame(&mut node, &input);
        }
        assert_eq!(wd.counters().rescrubs, 3);
    }

    #[test]
    fn campaign_watchdog_vs_wedge() {
        let fw = mlp_firmware();
        let input = vec![0.2; 259];
        let cfg = FaultCampaignConfig {
            fault_rate: 0.01,
            frames: 400,
            replicas: 4,
            seed: 11,
            watchdog: true,
        };
        let with = run_fault_campaign(&fw, &HpsModel::default(), &input, &cfg);
        let without = run_fault_campaign(
            &fw,
            &HpsModel::default(),
            &input,
            &FaultCampaignConfig {
                watchdog: false,
                ..cfg
            },
        );
        assert_eq!(with.availability, 1.0, "watchdog keeps every frame");
        assert_eq!(with.unrecovered, 0);
        assert!(with.recovered > 0);
        assert!(
            without.availability < 1.0,
            "without a watchdog the pipeline wedges: {}",
            without.availability
        );
        assert!(without.unrecovered > 0);
        // Recovery costs deadline misses, but boundedly so.
        assert!(with.deadline_miss_rate < 0.1);
    }

    #[test]
    fn campaign_deterministic_per_seed() {
        let fw = mlp_firmware();
        let input = vec![0.1; 259];
        let cfg = FaultCampaignConfig {
            fault_rate: 0.02,
            frames: 200,
            replicas: 4,
            seed: 42,
            watchdog: true,
        };
        let a = run_fault_campaign(&fw, &HpsModel::default(), &input, &cfg);
        let b = run_fault_campaign(&fw, &HpsModel::default(), &input, &cfg);
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.deadline_miss_rate, b.deadline_miss_rate);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.mttr_ms, b.mttr_ms);
    }
}
