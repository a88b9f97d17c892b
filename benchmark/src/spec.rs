//! What the benchmark runs and what it prints: the five workloads, the
//! metric tables `BENCHMARK.json` mirrors, and the command line.

use crate::setup::ModelKind;

#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// One tick of every chain each `period_us` over TCP; the period is
    /// the deadline.
    Scheduled { period_us: u64 },
    /// This many frames kept in flight in the in-process engine.
    Closed { in_flight: usize },
    /// `DeblendingSystem::process_tick`, one after another.
    SocTick,
}

impl Loop {
    /// Whether latency counts from a schedule's due times (and a gateway
    /// is in the path).
    pub fn scheduled(self) -> bool {
        matches!(self, Loop::Scheduled { .. })
    }
}

pub struct Spec {
    pub name: &'static str,
    pub model: ModelKind,
    pub chains: usize,
    pub batch: usize,
    pub kind: Loop,
    /// Operations (ticks; frames of a closed loop) per second of
    /// `--seconds`. Runs are count-based: the scheduled loops' rate is
    /// their schedule, the others' is sized so that today's code takes
    /// about `--seconds` for them.
    pub ops_per_s: f64,
    /// Readings per chain in the pool, sized so one set-up does between
    /// 1 and 4 s of reference inference.
    pub pool_depth: usize,
    /// Frames of the traced layer replay.
    pub replay_frames: usize,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "cadence_mlp8",
        model: ModelKind::MlpDense,
        chains: 8,
        batch: 8,
        kind: Loop::Scheduled { period_us: 3_000 },
        ops_per_s: 1e6 / 3_000.0,
        pool_depth: 1_000,
        replay_frames: 2_000,
    },
    Spec {
        name: "cadence_unet1_q25",
        model: ModelKind::UnetQ25,
        chains: 1,
        batch: 1,
        kind: Loop::Scheduled { period_us: 6_000 },
        ops_per_s: 1e6 / 6_000.0,
        pool_depth: 96,
        replay_frames: 300,
    },
    Spec {
        name: "engine_unet8_q25",
        model: ModelKind::UnetQ25,
        chains: 8,
        batch: 8,
        kind: Loop::Closed { in_flight: 16 },
        ops_per_s: 900.0,
        pool_depth: 12,
        replay_frames: 300,
    },
    Spec {
        name: "engine_mlp8",
        model: ModelKind::MlpDense,
        chains: 8,
        batch: 8,
        kind: Loop::Closed { in_flight: 32 },
        ops_per_s: 36_000.0,
        pool_depth: 1_000,
        replay_frames: 2_000,
    },
    Spec {
        name: "soc_tick_unet",
        model: ModelKind::UnetDense,
        chains: 1,
        batch: 1,
        kind: Loop::SocTick,
        ops_per_s: 75.0,
        pool_depth: 96,
        replay_frames: 300,
    },
];

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`. A
/// metric of a layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("blm.generate_us", "us"),
    ("blm.split_us", "us"),
    ("blm.assemble_us", "us"),
    ("standardize.apply_us", "us"),
    ("acnet.verdict_build_us", "us"),
    ("wire.encode_frame_us", "us"),
    ("wire.decode_frame_us", "us"),
    ("wire.encode_verdict_us", "us"),
    ("wire.decode_verdict_us", "us"),
    ("wire.bytes_per_frame", "count"),
    ("wire.bytes_per_verdict", "count"),
    ("assembler.offer_frame_us", "us"),
    ("kernel.infer_b1_us", "us"),
    ("kernel.infer_b8_us_per_frame", "us"),
    ("kernel.lower_ms", "ms"),
    ("kernel.macs_per_frame", "count"),
    ("kernel.dense_layers", "count"),
    ("kernel.sparse_layers", "count"),
    ("kernel.fused_layers", "count"),
    ("kernel.allocs_per_frame", "count"),
    ("hls4ml.profile_ms", "ms"),
    ("hls4ml.convert_ms", "ms"),
    ("hls4ml.sparsify_ms", "ms"),
    ("interp.infer_us", "us"),
    ("engine.roundtrip_us_p50", "us"),
    ("engine.overhead_us", "us"),
    ("engine.mean_batch", "count"),
    ("engine.start_ms", "ms"),
    ("engine.finish_ms", "ms"),
    ("engine.dropped_backpressure", "count"),
    ("gateway.roundtrip_us_p50", "us"),
    ("gateway.ack_us_p50", "us"),
    ("gateway.overhead_us", "us"),
    ("gateway.start_ms", "ms"),
    ("gateway.shutdown_ms", "ms"),
    ("gateway.wedge_restarts", "count"),
    ("gateway.frames_assembled", "count"),
    ("gateway.frames_accepted", "count"),
    ("gateway.decode_errors", "count"),
    ("gateway.sequence_gaps", "count"),
    ("gateway.backpressure_drops", "count"),
    ("gateway.slow_consumer_drops", "count"),
    ("gateway.verdicts_sent", "count"),
    ("gateway.acks_sent", "count"),
    ("soc.sim_ingress_ms", "ms"),
    ("soc.sim_write_ms", "ms"),
    ("soc.sim_control_ms", "ms"),
    ("soc.sim_compute_ms", "ms"),
    ("soc.sim_irq_ms", "ms"),
    ("soc.sim_read_ms", "ms"),
    ("soc.sim_misc_ms", "ms"),
    ("soc.sim_egress_ms", "ms"),
    ("soc.sim_preempted_frac", "share"),
    ("soc.host_overhead_us", "us"),
    ("sim_latency_ms_mean", "ms"),
    ("sim_latency_ms_max", "ms"),
    ("sim_under_1p9ms_frac", "share"),
    ("loadgen.late_us_p50", "us"),
    ("loadgen.late_us_p90", "us"),
    ("loadgen.frames_sent", "count"),
    ("loadgen.verdicts_ok", "count"),
    ("loadgen.verdicts_bad", "count"),
    ("loadgen.frames_unanswered", "count"),
    ("loadgen.on_time_frac", "share"),
    ("process.cpu_ms_per_frame", "ms"),
    ("process.ctx_switches_per_frame", "count"),
    ("process.threads", "count"),
    ("trace.overhead_frac", "share"),
    ("trace.ledger_gap_frac", "share"),
    ("trace.verdict_ms_p50", "ms"),
    ("trace.verdict_ms_p90", "ms"),
    ("trace.frames_per_s", "1/s"),
    ("trace.spans", "count"),
    ("replay.mismatches", "count"),
    ("ledger.work_us", "us"),
    ("ledger.frames_per_tick", "count"),
    ("ledger.closes", "count"),
    ("setup.pool_ms", "ms"),
    ("setup.firmware_ms", "ms"),
    ("setup.serving_ms", "ms"),
    ("process.peak_rss_mb", "MB"),
];

pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Runs shorter than this are smoke runs (`--quick` is `--seconds 2`):
    /// a quarter-second warm-up, one set-up.
    const FULL_RUN_S: f64 = 8.0;

    pub fn quick(&self) -> bool {
        self.seconds < Self::FULL_RUN_S
    }

    pub fn warmup_s(&self) -> f64 {
        if self.quick() {
            0.25
        } else {
            1.0
        }
    }

    /// Operations in `seconds` of this workload.
    pub fn ops(&self, seconds: f64) -> usize {
        ((seconds * self.spec.ops_per_s) as usize).max(1)
    }
}

pub const USAGE: &str = "usage: reads-benchmark --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--quick]\nworkloads: cadence_mlp8 cadence_unet1_q25 engine_unet8_q25 \
engine_mlp8 soc_tick_unet";

pub fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2024u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => seconds = 2.0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be within 1..=60, not {seconds}"));
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}
