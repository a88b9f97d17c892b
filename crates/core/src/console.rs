//! The operator console: the rolling status view a control-room shift sees.
//!
//! The deployed system reports into ACNET; operators watch aggregate trip
//! rates and latency health. [`OperatorConsole`] accumulates those
//! operational statistics from the frame stream — bounded memory (P²
//! quantiles, no sample retention), so it can run for an entire store.

use crate::adapt::{AdaptCounters, AdaptState};
use crate::drift::DriftStatus;
use crate::registry::ShadowStats;
use crate::resilience::{HealthCounters, HealthState, NetCounters};
use reads_blm::acnet::DeblendVerdict;
use reads_blm::Machine;
use reads_hls4ml::{KernelMix, SimdLevel};
use reads_sim::{P2Quantile, StreamingStats};
use reads_soc::node::FrameTiming;
use serde::Serialize;

/// Rolling operational statistics.
#[derive(Debug, Clone)]
pub struct OperatorConsole {
    latency_ms: StreamingStats,
    p99: P2Quantile,
    p999: P2Quantile,
    mi_trips: u64,
    rr_trips: u64,
    quiet: u64,
    preempted: u64,
    deadline_misses: u64,
    trip_threshold: f64,
    deadline_ms: f64,
    node_health: Option<NodeHealth>,
    shards: Vec<ShardHealth>,
    net_health: Option<NetHealth>,
    gateways: Vec<GatewayHealth>,
    kernel_mix: Option<KernelMix>,
    tenants: Vec<TenantConsoleLine>,
    adapts: Vec<(u32, AdaptConsoleLine)>,
}

/// The online-adaptation loop's line in the console: what the retrainer
/// has attempted, what survived the gates, and where the loop and the
/// drift ladder currently stand.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct AdaptConsoleLine {
    /// Adaptation-loop counters at observation time.
    pub counters: AdaptCounters,
    /// Loop state at observation time.
    pub state: AdaptState,
    /// Merged drift-ladder verdict of the serving plane.
    pub drift: DriftStatus,
}

impl AdaptConsoleLine {
    /// Folds another loop's line in (fleet roll-up): counters add, the
    /// worst loop state and drift verdict win.
    pub fn merge(&mut self, other: &AdaptConsoleLine) {
        self.counters.merge(&other.counters);
        self.state = self.state.worst(other.state);
        self.drift = self.drift.worst(other.drift);
    }
}

/// One tenant's line in the multi-model serving view: which digest is
/// live, where it is placed, how it is meeting its SLO, and — while a
/// hot-swap shadow is scoring — the candidate's verdict deltas.
#[derive(Debug, Clone, Serialize)]
pub struct TenantConsoleLine {
    /// Registry tenant id.
    pub tenant: u32,
    /// Registry tenant name.
    pub name: String,
    /// Digest of the live firmware variant (`0` when none).
    pub live_digest: u64,
    /// Human-readable placement (shard list, e.g. `"0,1"`).
    pub shards: String,
    /// Frames turned into verdicts for this tenant.
    pub processed: u64,
    /// Frames that finished past the tenant's SLO bound.
    pub slo_misses: u64,
    /// Digest of the shadow candidate currently scoring, if any.
    pub shadow_digest: Option<u64>,
    /// Shadow-comparison ledger (lifetime: resolved candidates fold in).
    pub shadow: ShadowStats,
}

impl TenantConsoleLine {
    /// Folds another gateway's view of the same tenant in (fleet
    /// roll-up): volumes add, shadow ledgers merge, identity fields take
    /// the first non-empty observation.
    pub fn merge(&mut self, other: &TenantConsoleLine) {
        self.processed += other.processed;
        self.slo_misses += other.slo_misses;
        self.shadow.merge(&other.shadow);
        if self.live_digest == 0 {
            self.live_digest = other.live_digest;
        }
        if self.name.is_empty() {
            self.name = other.name.clone();
        }
        if self.shards.is_empty() {
            self.shards = other.shards.clone();
        }
        if self.shadow_digest.is_none() {
            self.shadow_digest = other.shadow_digest;
        }
    }
}

/// The network serving plane's line in the console: transport state plus
/// the counters behind it, as reported by the TCP hub gateway.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NetHealth {
    /// Transport health under the standard ladder.
    pub state: HealthState,
    /// Live connections at observation time.
    pub sessions: u64,
    /// The gateway's transport counters at observation time.
    pub counters: NetCounters,
}

/// One gateway's line in the federation view of a gateway fleet.
#[derive(Debug, Clone, Serialize)]
pub struct GatewayHealth {
    /// Gateway identity within the fleet.
    pub gateway: u32,
    /// Human-readable owned-chain description (e.g. `"0,3,6"` or
    /// `"hash-slice 2/3"`). Placement is rendezvous-hashed, so there is no
    /// contiguous range to print — the gateway describes its own slice.
    pub chains: String,
    /// Transport health of this gateway under the standard ladder.
    pub state: HealthState,
    /// Live sessions bound to this gateway at observation time.
    pub sessions: u64,
    /// This gateway's transport counters at observation time.
    pub counters: NetCounters,
}

/// One shard's line in the fleet view of a sharded engine.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Health FSM state of the shard's watchdog (or executor).
    pub state: HealthState,
    /// Frames the shard turned into verdicts.
    pub processed: u64,
    /// Frames the shard lost to unrecovered hangs.
    pub lost: u64,
    /// The shard's resilience counters at observation time.
    pub counters: HealthCounters,
}

/// The watchdog's view of the node, as surfaced to the console.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NodeHealth {
    /// Health FSM state.
    pub state: HealthState,
    /// Resilience counters at observation time.
    pub counters: HealthCounters,
}

/// A point-in-time summary for display or logging.
#[derive(Debug, Clone, Serialize)]
pub struct ConsoleSummary {
    /// Frames observed.
    pub frames: u64,
    /// Mean Steps 1–8 latency, ms.
    pub mean_latency_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_latency_ms: f64,
    /// 99.9th percentile latency, ms.
    pub p999_latency_ms: f64,
    /// Worst frame, ms.
    pub max_latency_ms: f64,
    /// MI trip count.
    pub mi_trips: u64,
    /// RR trip count.
    pub rr_trips: u64,
    /// Quiet frames (no trip).
    pub quiet_frames: u64,
    /// Scheduler-preempted frames.
    pub preempted: u64,
    /// Frames over the deadline.
    pub deadline_misses: u64,
    /// Watchdog health, when a watchdog reports into this console.
    pub node_health: Option<NodeHealth>,
    /// Per-shard health, when a sharded engine reports into this console
    /// (empty for single-node operation).
    pub shards: Vec<ShardHealth>,
    /// Network serving-plane health, when a hub gateway reports into this
    /// console (absent for in-process operation). In fleet operation this
    /// is the merged view across all observed gateways.
    pub net_health: Option<NetHealth>,
    /// Per-gateway health, when a gateway fleet reports into this console
    /// (empty for single-gateway or in-process operation).
    pub gateways: Vec<GatewayHealth>,
    /// Kernel selection of the serving engines, when a compiled-backend
    /// fleet reports into this console (absent for interpreter or
    /// simulated-SoC operation).
    pub kernel_mix: Option<KernelMix>,
    /// Per-tenant serving lines, when a multi-model registry reports into
    /// this console (empty for single-model operation).
    pub tenants: Vec<TenantConsoleLine>,
    /// Merged online-adaptation view, when an adaptation loop reports
    /// into this console (absent when serving without `--adapt`). In
    /// fleet operation this is the roll-up across all observed loops.
    pub adapt: Option<AdaptConsoleLine>,
}

impl OperatorConsole {
    /// New console with the given trip-mass threshold and frame deadline.
    #[must_use]
    pub fn new(trip_threshold: f64, deadline_ms: f64) -> Self {
        Self {
            latency_ms: StreamingStats::new(),
            p99: P2Quantile::new(0.99),
            p999: P2Quantile::new(0.999),
            mi_trips: 0,
            rr_trips: 0,
            quiet: 0,
            preempted: 0,
            deadline_misses: 0,
            trip_threshold,
            deadline_ms,
            node_health: None,
            shards: Vec::new(),
            net_health: None,
            gateways: Vec::new(),
            kernel_mix: None,
            tenants: Vec::new(),
            adapts: Vec::new(),
        }
    }

    /// Feeds one adaptation loop's view (latest observation per `source`
    /// wins — the same replace-then-recompute rule as the gateway
    /// roll-up, so re-observing a loop in fleet mode never double-counts
    /// its retrains). Until this is called, summaries and renders omit
    /// the adapt line, so non-adaptive consoles are unchanged.
    pub fn observe_adapt(&mut self, source: u32, line: AdaptConsoleLine) {
        match self.adapts.iter_mut().find(|(s, _)| *s == source) {
            Some((_, l)) => *l = line,
            None => {
                self.adapts.push((source, line));
                self.adapts.sort_by_key(|(s, _)| *s);
            }
        }
    }

    fn merged_adapt(&self) -> Option<AdaptConsoleLine> {
        let mut it = self.adapts.iter().map(|(_, l)| l);
        let mut merged = *it.next()?;
        for line in it {
            merged.merge(line);
        }
        Some(merged)
    }

    /// Feeds one tenant's serving view. A repeated observation of the
    /// same tenant **merges** (fleet roll-up: each gateway contributes
    /// its slice of the tenant's traffic); lines render in ascending
    /// tenant order. Until this is called, summaries and renders omit the
    /// tenant block, so single-model consoles are unchanged.
    pub fn observe_tenant(&mut self, line: TenantConsoleLine) {
        match self.tenants.iter_mut().find(|t| t.tenant == line.tenant) {
            Some(t) => t.merge(&line),
            None => {
                self.tenants.push(line);
                self.tenants.sort_by_key(|t| t.tenant);
            }
        }
    }

    /// Feeds the kernel selection summary of a shard's compiled engine
    /// (latest observation wins — every shard of a fleet lowers the same
    /// firmware with the same planner, so the mixes are identical). Until
    /// this is called, summaries and renders omit the kernel line, so
    /// interpreter-backed consoles are unchanged.
    pub fn observe_kernel_mix(&mut self, mix: KernelMix) {
        self.kernel_mix = Some(mix);
    }

    /// Feeds the hub gateway's transport view (latest observation wins).
    /// Until this is called, summaries and renders omit the network line,
    /// so in-process consoles are unchanged.
    pub fn observe_net_health(&mut self, sessions: u64, counters: &NetCounters) {
        self.net_health = Some(NetHealth {
            state: counters.health(),
            sessions,
            counters: *counters,
        });
    }

    /// Feeds one gateway's health view from a federated fleet (latest
    /// observation per gateway wins). The fleet-worst transport state and
    /// the from-scratch merge of all gateway counters become the console's
    /// network line — the same replace-then-recompute rule as the shard
    /// roll-up, so repeated observations never double-count.
    pub fn observe_gateway_health(
        &mut self,
        gateway: u32,
        chains: impl Into<String>,
        sessions: u64,
        counters: &NetCounters,
    ) {
        let entry = GatewayHealth {
            gateway,
            chains: chains.into(),
            state: counters.health(),
            sessions,
            counters: *counters,
        };
        match self.gateways.iter_mut().find(|g| g.gateway == gateway) {
            Some(g) => *g = entry,
            None => {
                self.gateways.push(entry);
                self.gateways.sort_by_key(|g| g.gateway);
            }
        }
        let mut merged = NetCounters::default();
        for g in &self.gateways {
            merged.merge(&g.counters);
        }
        self.net_health = Some(NetHealth {
            state: HealthState::worst(self.gateways.iter().map(|g| g.state)),
            sessions: self.gateways.iter().map(|g| g.sessions).sum(),
            counters: merged,
        });
    }

    /// Feeds one shard's health view from the sharded engine (latest
    /// observation per shard wins). The fleet-worst state also becomes the
    /// node health so existing renders degrade correctly.
    pub fn observe_shard_health(
        &mut self,
        shard: usize,
        state: HealthState,
        counters: &HealthCounters,
        processed: u64,
        lost: u64,
    ) {
        let entry = ShardHealth {
            shard,
            state,
            processed,
            lost,
            counters: *counters,
        };
        match self.shards.iter_mut().find(|s| s.shard == shard) {
            Some(s) => *s = entry,
            None => {
                self.shards.push(entry);
                self.shards.sort_by_key(|s| s.shard);
            }
        }
        // Recompute the fleet view from scratch so repeated observations of
        // the same shard never double-count.
        let mut merged = HealthCounters::default();
        for s in &self.shards {
            merged.merge(&s.counters);
        }
        self.node_health = Some(NodeHealth {
            state: HealthState::worst(self.shards.iter().map(|s| s.state)),
            counters: merged,
        });
    }

    /// Feeds the watchdog's current health view (typically once per frame
    /// or per reporting interval; the latest observation wins). Until this
    /// is called, summaries and renders omit the resilience block, so
    /// consoles without a watchdog are unchanged.
    pub fn observe_health(&mut self, state: HealthState, counters: &HealthCounters) {
        self.node_health = Some(NodeHealth {
            state,
            counters: *counters,
        });
    }

    /// Feeds one frame's outcome.
    pub fn observe(&mut self, verdict: &DeblendVerdict, timing: &FrameTiming) {
        let ms = timing.total.as_millis_f64();
        self.latency_ms.push(ms);
        self.p99.push(ms);
        self.p999.push(ms);
        self.preempted += u64::from(timing.preempted);
        self.deadline_misses += u64::from(ms > self.deadline_ms);
        match verdict.trip_decision(self.trip_threshold) {
            Some(Machine::MainInjector) => self.mi_trips += 1,
            Some(Machine::Recycler) => self.rr_trips += 1,
            None => self.quiet += 1,
        }
    }

    /// Current summary.
    ///
    /// # Panics
    /// Panics if no frames were observed yet.
    #[must_use]
    pub fn summary(&self) -> ConsoleSummary {
        assert!(self.latency_ms.count() > 0, "no frames observed");
        ConsoleSummary {
            frames: self.latency_ms.count(),
            mean_latency_ms: self.latency_ms.mean(),
            p99_latency_ms: self.p99.estimate(),
            p999_latency_ms: self.p999.estimate(),
            max_latency_ms: self.latency_ms.max(),
            mi_trips: self.mi_trips,
            rr_trips: self.rr_trips,
            quiet_frames: self.quiet,
            preempted: self.preempted,
            deadline_misses: self.deadline_misses,
            node_health: self.node_health,
            shards: self.shards.clone(),
            net_health: self.net_health,
            gateways: self.gateways.clone(),
            kernel_mix: self.kernel_mix,
            tenants: self.tenants.clone(),
            adapt: self.merged_adapt(),
        }
    }

    /// Renders the control-room status block.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let s = self.summary();
        let mut out = String::new();
        let _ = writeln!(out, "── beam-loss de-blending: central node status ──");
        let _ = writeln!(out, " frames processed   {}", s.frames);
        let _ = writeln!(
            out,
            " latency (1-8)      mean {:.3} ms | p99 {:.3} | p99.9 {:.3} | max {:.3}",
            s.mean_latency_ms, s.p99_latency_ms, s.p999_latency_ms, s.max_latency_ms
        );
        let _ = writeln!(
            out,
            " trips              MI {} | RR {} | quiet {}",
            s.mi_trips, s.rr_trips, s.quiet_frames
        );
        let _ = writeln!(
            out,
            " health             {} preemptions | {} deadline misses",
            s.preempted, s.deadline_misses
        );
        if let Some(h) = &s.node_health {
            let state = match h.state {
                HealthState::Healthy => "HEALTHY",
                HealthState::Degraded => "DEGRADED",
                HealthState::Tripped => "TRIPPED",
            };
            let c = &h.counters;
            let _ = writeln!(
                out,
                " resilience         {} | {} faults | {} recovered | {} unrecovered",
                state, c.faults_seen, c.recoveries, c.unrecovered
            );
            let _ = writeln!(
                out,
                " recovery           {} salvages | {} resets | {} rescrubs | MTTR {:.3} ms",
                c.salvages,
                c.soft_resets,
                c.rescrubs,
                c.mttr_ms()
            );
        }
        if let Some(n) = &s.net_health {
            let state = match n.state {
                HealthState::Healthy => "HEALTHY",
                HealthState::Degraded => "DEGRADED",
                HealthState::Tripped => "TRIPPED",
            };
            let c = &n.counters;
            let _ = writeln!(
                out,
                " network            {} | {} sessions | {} frames | {} decode errors | {} gaps | {} slow-consumer drops | {} resumes",
                state,
                n.sessions,
                c.frames_assembled,
                c.decode_errors,
                c.sequence_gaps,
                c.slow_consumer_drops,
                c.resumes
            );
        }
        if let Some(m) = &s.kernel_mix {
            let simd = match m.simd {
                SimdLevel::Scalar => "scalar",
                SimdLevel::Avx2 => "avx2",
                SimdLevel::Avx512 => "avx512",
            };
            let _ = writeln!(
                out,
                " kernels            {} | {} dense | {} wide | {} sparse | {} fused | {} data | {} i16-pair",
                simd, m.dense, m.wide, m.sparse, m.fused, m.data, m.pairs
            );
        }
        out.push_str(&render_gateway_lines(&s.gateways));
        for sh in &s.shards {
            let state = match sh.state {
                HealthState::Healthy => "healthy",
                HealthState::Degraded => "DEGRADED",
                HealthState::Tripped => "TRIPPED",
            };
            let _ = writeln!(
                out,
                " shard {:<3}          {} | {} frames | {} lost | {} faults | {} restarts",
                sh.shard,
                state,
                sh.processed,
                sh.lost,
                sh.counters.faults_seen,
                sh.counters.shard_restarts
            );
        }
        out.push_str(&render_tenant_lines(&s.tenants));
        if let Some(a) = &s.adapt {
            let c = &a.counters;
            let _ = writeln!(
                out,
                " adapt              {} retrains | {} promoted | {} rolled_back | {} timeouts | drift {} | {}",
                c.retrains, c.promoted, c.rolled_back, c.retrain_timeouts, a.drift, a.state
            );
        }
        out
    }

    /// Renders only the federation lines (`gw[i]: …`), one per observed
    /// gateway. Unlike [`Self::render`] this never panics: a fleet report
    /// is meaningful even before the first frame lands (e.g. a gateway
    /// killed during warm-up). Empty when no gateway has reported.
    #[must_use]
    pub fn render_fleet(&self) -> String {
        let mut out = render_gateway_lines(&self.gateways);
        out.push_str(&render_tenant_lines(&self.tenants));
        out
    }
}

fn render_tenant_lines(tenants: &[TenantConsoleLine]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for t in tenants {
        let shadow = match t.shadow_digest {
            Some(d) => format!(
                " | shadow {:016x}: {} frames | {:.1}% within tol | max dev {:.3}",
                d,
                t.shadow.frames,
                t.shadow.accuracy() * 100.0,
                t.shadow.max_abs_delta
            ),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            " tenant {:<3}        {} | live {:016x} | shards [{}] | {} frames | {} slo misses{}",
            t.tenant, t.name, t.live_digest, t.shards, t.processed, t.slo_misses, shadow
        );
    }
    out
}

fn render_gateway_lines(gateways: &[GatewayHealth]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for g in gateways {
        let state = match g.state {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "DEGRADED",
            HealthState::Tripped => "TRIPPED",
        };
        let _ = writeln!(
            out,
            " gw[{}]: chains {} | {} | {} sessions | {} resumes | {} handoffs | {} redirects",
            g.gateway,
            g.chains,
            state,
            g.sessions,
            g.counters.resumes,
            g.counters.handoffs,
            g.counters.redirects
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reads_sim::SimDuration;

    fn timing(total_us: u64, preempted: bool) -> FrameTiming {
        let d = SimDuration::from_micros(total_us);
        FrameTiming {
            write: SimDuration::ZERO,
            control: SimDuration::ZERO,
            compute: d,
            irq: SimDuration::ZERO,
            read: SimDuration::ZERO,
            misc: SimDuration::ZERO,
            preempted,
            total: d,
        }
    }

    fn verdict(mi: f64, rr: f64) -> DeblendVerdict {
        DeblendVerdict {
            sequence: 0,
            mi: vec![mi; 260],
            rr: vec![rr; 260],
        }
    }

    #[test]
    fn accumulates_operational_stats() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        c.observe(&verdict(0.5, 0.1), &timing(1_800, false)); // MI trip
        c.observe(&verdict(0.1, 0.5), &timing(1_900, false)); // RR trip
        c.observe(&verdict(0.001, 0.001), &timing(3_200, true)); // quiet, late
        let s = c.summary();
        assert_eq!(s.frames, 3);
        assert_eq!(s.mi_trips, 1);
        assert_eq!(s.rr_trips, 1);
        assert_eq!(s.quiet_frames, 1);
        assert_eq!(s.preempted, 1);
        assert_eq!(s.deadline_misses, 1);
        assert!((s.mean_latency_ms - 2.3).abs() < 0.01);
        assert!((s.max_latency_ms - 3.2).abs() < 1e-9);
    }

    #[test]
    fn render_contains_key_lines() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        for _ in 0..10 {
            c.observe(&verdict(0.1, 0.6), &timing(1_750, false));
        }
        let text = c.render();
        assert!(text.contains("frames processed   10"));
        assert!(text.contains("RR 10"));
        assert!(text.contains("0 deadline misses"));
    }

    #[test]
    fn render_reports_pair_layers() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        c.observe(&verdict(0.1, 0.6), &timing(1_750, false));
        assert!(!c.render().contains(" kernels "));
        c.observe_kernel_mix(KernelMix {
            dense: 6,
            pairs: 5,
            fused: 4,
            data: 6,
            ..KernelMix::default()
        });
        let text = c.render();
        assert!(text.contains("scalar | 6 dense |"), "{text}");
        assert!(text.contains("6 data | 5 i16-pair"), "{text}");
    }

    #[test]
    #[should_panic(expected = "no frames")]
    fn empty_summary_panics() {
        let _ = OperatorConsole::new(5.0, 3.0).summary();
    }

    #[test]
    fn render_without_watchdog_has_no_resilience_block() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        c.observe(&verdict(0.1, 0.6), &timing(1_750, false));
        assert!(!c.render().contains("resilience"));
        assert!(c.summary().node_health.is_none());
    }

    #[test]
    fn render_surfaces_watchdog_health() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        c.observe(&verdict(0.1, 0.6), &timing(1_750, false));
        let counters = HealthCounters {
            faults_seen: 4,
            recoveries: 3,
            salvages: 1,
            soft_resets: 2,
            rescrubs: 1,
            unrecovered: 1,
            recovery_ns: 9_000_000,
            ..HealthCounters::default()
        };
        c.observe_health(HealthState::Tripped, &counters);
        let text = c.render();
        assert!(text.contains("TRIPPED | 4 faults | 3 recovered | 1 unrecovered"));
        assert!(text.contains("1 salvages | 2 resets | 1 rescrubs | MTTR 3.000 ms"));
        // The existing lines survive untouched.
        assert!(text.contains("frames processed   1"));
    }

    #[test]
    fn render_surfaces_network_health() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        c.observe(&verdict(0.1, 0.6), &timing(1_750, false));
        assert!(!c.render().contains("network"), "no net line before report");
        let counters = NetCounters {
            connections: 3,
            frames_assembled: 120,
            frames_accepted: 120,
            decode_errors: 2,
            sequence_gaps: 1,
            ..NetCounters::default()
        };
        c.observe_net_health(3, &counters);
        let text = c.render();
        assert!(
            text.contains(
                "network            DEGRADED | 3 sessions | 120 frames | 2 decode errors | 1 gaps"
            ),
            "{text}"
        );
        let s = c.summary();
        assert_eq!(s.net_health.unwrap().state, HealthState::Degraded);
    }

    #[test]
    fn tenant_lines_render_and_merge_on_reobservation() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        c.observe(&verdict(0.1, 0.6), &timing(1_750, false));
        assert!(!c.render().contains("tenant"), "no tenant block by default");
        let line = |processed| TenantConsoleLine {
            tenant: 2,
            name: "booster-mlp".to_string(),
            live_digest: 0xFEED_FACE,
            shards: "0,1".to_string(),
            processed,
            slo_misses: 1,
            shadow_digest: None,
            shadow: ShadowStats::default(),
        };
        c.observe_tenant(line(40));
        // A second gateway's view of the same tenant folds in.
        c.observe_tenant(line(60));
        c.observe_tenant(TenantConsoleLine {
            tenant: 1,
            name: "blm".to_string(),
            live_digest: 1,
            shards: "0".to_string(),
            processed: 5,
            slo_misses: 0,
            shadow_digest: None,
            shadow: ShadowStats::default(),
        });
        let text = c.render();
        assert!(
            text.contains("tenant 2          booster-mlp | live 00000000feedface | shards [0,1] | 100 frames | 2 slo misses"),
            "{text}"
        );
        let s = c.summary();
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenants[0].tenant, 1, "sorted by tenant id");
    }

    #[test]
    fn gateway_health_merges_to_fleet_worst_without_double_count() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        c.observe(&verdict(0.1, 0.6), &timing(1_750, false));
        let degraded = NetCounters {
            connections: 2,
            frames_assembled: 50,
            frames_accepted: 50,
            decode_errors: 1,
            resumes: 3,
            handoffs: 1,
            redirects: 4,
            ..NetCounters::default()
        };
        c.observe_gateway_health(1, "1,4,7", 2, &degraded);
        c.observe_gateway_health(0, "0,3,6", 1, &NetCounters::default());
        // Re-observing gateway 1 must replace, not accumulate.
        c.observe_gateway_health(1, "1,4,7", 2, &degraded);
        let s = c.summary();
        assert_eq!(s.gateways.len(), 2);
        assert_eq!(s.gateways[0].gateway, 0, "sorted by gateway id");
        let n = s.net_health.expect("merged net health present");
        assert_eq!(n.state, HealthState::Degraded, "fleet-worst wins");
        assert_eq!(n.sessions, 3, "sessions summed across the fleet");
        assert_eq!(n.counters.resumes, 3, "no double-count on re-observe");
        assert_eq!(n.counters.handoffs, 1);
        let text = c.render();
        assert!(
            text.contains("gw[1]: chains 1,4,7 | DEGRADED | 2 sessions | 3 resumes | 1 handoffs | 4 redirects"),
            "{text}"
        );
        assert!(text.contains("gw[0]: chains 0,3,6 | healthy"), "{text}");
    }

    #[test]
    fn adapt_lines_roll_up_without_double_count() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        c.observe(&verdict(0.1, 0.6), &timing(1_750, false));
        assert!(!c.render().contains("adapt"), "no adapt line by default");
        let line = AdaptConsoleLine {
            counters: AdaptCounters {
                retrains: 3,
                promoted: 2,
                rolled_back: 1,
                retrain_timeouts: 1,
                backoffs: 1,
                sheds: 7,
            },
            state: AdaptState::BackingOff,
            drift: DriftStatus::Restandardize,
        };
        c.observe_adapt(1, line);
        c.observe_adapt(0, AdaptConsoleLine::default());
        // Re-observing loop 1 must replace, not accumulate: in fleet mode
        // each gateway re-reports its loop every interval.
        c.observe_adapt(1, line);
        let merged = c.summary().adapt.expect("adapt line present");
        assert_eq!(merged.counters.retrains, 3, "no double-count");
        assert_eq!(merged.counters.promoted, 2);
        assert_eq!(merged.counters.sheds, 7);
        assert_eq!(merged.state, AdaptState::BackingOff, "worst loop wins");
        assert_eq!(merged.drift, DriftStatus::Restandardize, "worst drift wins");
        let text = c.render();
        assert!(
            text.contains(
                "adapt              3 retrains | 2 promoted | 1 rolled_back | 1 timeouts | drift restandardize | backing-off"
            ),
            "{text}"
        );
    }

    #[test]
    fn render_fleet_works_before_first_frame() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        assert!(c.render_fleet().is_empty());
        c.observe_gateway_health(2, "2,5,8", 0, &NetCounters::default());
        let text = c.render_fleet();
        assert!(text.contains("gw[2]: chains 2,5,8"), "{text}");
    }

    #[test]
    fn shard_health_merges_to_fleet_worst_without_double_count() {
        let mut c = OperatorConsole::new(5.0, 3.0);
        c.observe(&verdict(0.1, 0.6), &timing(1_750, false));
        let counters = HealthCounters {
            faults_seen: 2,
            recoveries: 2,
            ..HealthCounters::default()
        };
        c.observe_shard_health(1, HealthState::Degraded, &counters, 40, 0);
        c.observe_shard_health(0, HealthState::Healthy, &HealthCounters::default(), 42, 0);
        // Re-observing shard 1 must replace, not accumulate.
        c.observe_shard_health(1, HealthState::Tripped, &counters, 41, 1);
        let s = c.summary();
        assert_eq!(s.shards.len(), 2);
        assert_eq!(s.shards[0].shard, 0, "sorted by shard index");
        let h = s.node_health.expect("fleet health present");
        assert_eq!(h.state, HealthState::Tripped);
        assert_eq!(h.counters.faults_seen, 2);
        let text = c.render();
        assert!(text.contains("shard 0"), "{text}");
        assert!(
            text.contains("TRIPPED | 41 frames | 1 lost | 2 faults"),
            "{text}"
        );
    }
}
