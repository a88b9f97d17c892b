//! The `--trace 1` run: per-layer metrics. The layer replay, the
//! one-in-flight round trips through the engine and the gateway, then the
//! served path once untraced and once with spans around the generator's
//! calls. README.md, "The ledger", says how the figures add up.

use crate::layers;
use crate::loadgen::{self, ReadFirst, Reply, Segment};
use crate::process;
use crate::setup;
use crate::spec::{Args, Loop, Spec, PER_LAYER};
use crate::stage::{set_up, Stage, Tally};
use crate::stats::{self, percentile, RoundStat};
use crate::trace::{ms_since, now_ns, Tracer};
use crate::Report;
use reads_core::system::EndToEndTiming;
use std::collections::BTreeMap;

/// Spans the traced served stretch may record, so the trace file stays
/// small.
const MAX_SERVED_OPS_TRACED: usize = 20_000;

/// The figures gathered so far, with the operations behind them.
#[derive(Default)]
struct Figures {
    values: BTreeMap<&'static str, f64>,
    attempted: usize,
    failed: usize,
    /// Every sum that must hold by construction held.
    closes: bool,
}

impl Figures {
    fn put(&mut self, figures: impl IntoIterator<Item = (&'static str, f64)>) {
        self.values.extend(figures);
    }

    fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    fn count(&mut self, seg: &Segment) {
        self.attempted += seg.replies.len();
        self.failed += seg.failed();
    }
}

pub fn traced_run(args: &Args) -> Report {
    let spec = args.spec;
    let from_due = spec.kind.scheduled();
    let mut tracer = Tracer::on();
    let mut off = Tracer::off();
    let mut f = Figures {
        closes: true,
        ..Figures::default()
    };

    let t = now_ns();
    let mut stage = set_up(spec, args.seed);
    f.put([
        ("hls4ml.profile_ms", stage.built.profile_ms),
        ("hls4ml.convert_ms", stage.built.convert_ms),
        ("hls4ml.sparsify_ms", stage.built.sparsify_ms),
        ("setup.firmware_ms", stage.firmware_ms),
        ("setup.pool_ms", stage.pool_ms),
        (
            "setup.serving_ms",
            ms_since(t) - stage.firmware_ms - stage.pool_ms,
        ),
        ("engine.start_ms", stage.engine_start_ms),
        ("gateway.start_ms", stage.gateway_start_ms),
        ("ledger.frames_per_tick", spec.chains as f64),
    ]);

    let replay = layers::replay(
        &stage.built.fw,
        &stage.pool,
        args.seed,
        spec.replay_frames,
        &mut tracer,
    );
    f.put(replay.figures);
    f.put([("replay.mismatches", replay.mismatches as f64)]);
    f.attempted += spec.replay_frames;
    f.failed += replay.mismatches;

    let mut pingpong_frames = 0;
    if !matches!(spec.kind, Loop::SocTick) {
        engine_round_trip(&mut f, spec, &stage);
    }
    if from_due {
        pingpong_frames = gateway_round_trip(&mut f, spec, &mut stage);
    }

    // The served path, untraced: the reference for the tracing overhead,
    // the generator's health and the process figures.
    let share_s = args.seconds / 3.0;
    let (warm, _) = stage.run(spec, args.ops(args.warmup_s()), &mut off);
    let before = process::usage();
    let (plain, timings) = stage.run(spec, args.ops(share_s), &mut off);
    let after = process::usage();
    let plain_stat = plain.round_quartile(from_due);
    let frames = plain.replies.len() as f64;
    f.put([
        ("process.threads", process::threads()),
        (
            "process.cpu_ms_per_frame",
            (after.cpu_ms - before.cpu_ms) / frames,
        ),
        (
            "process.ctx_switches_per_frame",
            (after.ctx_switches - before.ctx_switches) / frames,
        ),
    ]);
    served_figures(&mut f, spec, &plain, plain_stat);
    if !timings.is_empty() {
        soc_figures(&mut f, &timings, plain_stat.p50_ms);
    }

    // The served path again, with spans around the generator's calls.
    let traced_ops = args.ops(share_s).min(MAX_SERVED_OPS_TRACED);
    let (traced, _) = stage.run(spec, traced_ops, &mut tracer);
    let traced_stat = traced.round_quartile(from_due);
    f.put([(
        "trace.overhead_frac",
        traced_stat.p50_ms / plain_stat.p50_ms - 1.0,
    )]);

    let mut served = pingpong_frames;
    for seg in [&warm, &plain, &traced] {
        f.count(seg);
        served += seg.replies.len();
    }
    let tally = stage.tear_down();
    tally_figures(&mut f, spec, &tally);

    let path = std::path::Path::new("target/benchmark").join(format!("{}.trace.json", spec.name));
    tracer.write_json(&path).expect("write the trace file");
    eprintln!(
        "{}: {} spans written to {}",
        spec.name,
        tracer.len(),
        path.display()
    );
    f.put([
        ("trace.spans", tracer.len() as f64),
        ("ledger.closes", f64::from(u8::from(f.closes))),
        ("process.peak_rss_mb", process::peak_rss_mb()),
    ]);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, f.values.remove(name).unwrap_or(0.0), unit))
        .collect();
    assert!(
        f.values.is_empty(),
        "figures that are no per-layer metric: {:?}",
        f.values
    );
    Report {
        correct: f.failed == 0 && f.closes && tally.clean(served as u64, spec.kind),
        attempted: f.attempted,
        failed: f.failed,
        metrics,
    }
}

/// One frame in flight through a batch-1 engine: what the engine adds to
/// the layers it calls.
fn engine_round_trip(f: &mut Figures, spec: &Spec, stage: &Stage) {
    let frames = spec.replay_frames;
    let mut engine = setup::start_engine(&stage.built.fw, 1);
    let seg = loadgen::run_closed(&mut engine, &stage.pool, 1, 0, frames, &mut Tracer::off());
    let t = now_ns();
    let (_, fleet) = engine.finish();
    let finish_ms = ms_since(t);
    f.count(&seg);
    f.closes &= fleet.processed() == frames as u64;
    let round_trip_us: Vec<f64> = seg
        .outcomes(false)
        .iter()
        .map(|o| o.latency_ms() * 1e3)
        .collect();
    let p50 = percentile(&round_trip_us, 0.50);
    let called = f.get("kernel.infer_b1_us")
        + f.get("blm.assemble_us")
        + f.get("standardize.apply_us")
        + f.get("acnet.verdict_build_us");
    f.put([
        ("engine.finish_ms", finish_ms),
        ("engine.roundtrip_us_p50", p50),
        ("engine.overhead_us", p50 - called),
    ]);
}

/// One tick in flight through the gateway, unpaced, in the workload's own
/// shape. Its frames pass the hub thread and the one worker one after the
/// other, so the per-frame work is charged once per chain; what is left is
/// the gateway's own: wake-ups, queues, sockets. Returns the frames sent.
fn gateway_round_trip(f: &mut Figures, spec: &Spec, stage: &mut Stage) -> usize {
    let ticks = (spec.replay_frames / spec.chains).max(50);
    let seg = stage.run_ticks(spec, 0, ReadFirst::Acks, ticks, &mut Tracer::off());
    f.count(&seg);
    let last_verdict_us: Vec<f64> = seg
        .outcomes(false)
        .chunks(spec.chains)
        .map(|tick| tick.iter().map(|o| o.latency_ms()).fold(0.0, f64::max) * 1e3)
        .collect();
    let ack_us: Vec<f64> = seg
        .ops
        .iter()
        .map(|op| op.acked_ns.saturating_sub(op.sent_ns) as f64 / 1e3)
        .collect();
    let round_trip_us = percentile(&last_verdict_us, 0.50);
    let per_frame = f.get("engine.roundtrip_us_p50")
        + f.get("wire.encode_frame_us")
        + f.get("wire.decode_frame_us")
        + f.get("assembler.offer_frame_us")
        + f.get("wire.encode_verdict_us")
        + f.get("wire.decode_verdict_us");
    let work_us = per_frame * spec.chains as f64;
    let overhead_us = round_trip_us - work_us;
    f.closes &= (overhead_us + work_us - round_trip_us).abs() < 1e-6;
    f.put([
        ("gateway.roundtrip_us_p50", round_trip_us),
        ("gateway.ack_us_p50", percentile(&ack_us, 0.50)),
        ("gateway.overhead_us", overhead_us),
        ("ledger.work_us", work_us),
    ]);
    seg.replies.len()
}

/// What the untraced served stretch says: its latencies, the generator's
/// health and, on a scheduled loop, the deadline and the ledger gap.
fn served_figures(f: &mut Figures, spec: &Spec, plain: &Segment, stat: RoundStat) {
    let count = |pred: fn(&Reply) -> bool| plain.replies.iter().filter(|r| pred(r)).count() as f64;
    let late = plain.late_us();
    let late_p90 = percentile(&late, 0.90);
    f.put([
        ("trace.verdict_ms_p50", stat.p50_ms),
        ("trace.verdict_ms_p90", stat.p90_ms),
        ("trace.frames_per_s", stat.per_s),
        ("loadgen.late_us_p50", percentile(&late, 0.50)),
        ("loadgen.late_us_p90", late_p90),
        ("loadgen.frames_sent", count(|r| *r != Reply::Unsent)),
        ("loadgen.verdicts_ok", count(|r| matches!(r, Reply::At(_)))),
        ("loadgen.verdicts_bad", count(|r| *r == Reply::Mismatch)),
        (
            "loadgen.frames_unanswered",
            count(|r| *r == Reply::Unanswered),
        ),
    ]);
    let Loop::Scheduled { period_us } = spec.kind else {
        return;
    };
    if late_p90 > 300.0 {
        eprintln!(
            "{}: the generator ran late (late_us_p90 {late_p90:.0} > 300): latencies include its own delay",
            spec.name
        );
    }
    let deadline_ms = period_us as f64 / 1e3;
    let verdict_us = stat.p50_ms * 1e3;
    f.put([
        (
            "loadgen.on_time_frac",
            stats::on_time_frac(&plain.outcomes(true), deadline_ms),
        ),
        (
            "trace.ledger_gap_frac",
            (verdict_us - f.get("gateway.roundtrip_us_p50")) / verdict_us,
        ),
    ]);
}

/// Simulated-SoC figures of the untraced ticks. Simulated time only — the
/// one host figure is `soc.host_overhead_us`, host time per tick beyond the
/// interpreter's.
fn soc_figures(f: &mut Figures, timings: &[EndToEndTiming], host_ms_p50: f64) {
    let n = timings.len() as f64;
    let mean = |pick: fn(&EndToEndTiming) -> f64| timings.iter().map(pick).sum::<f64>() / n;
    let stages = [
        ("soc.sim_ingress_ms", mean(|t| t.ingress.as_millis_f64())),
        ("soc.sim_write_ms", mean(|t| t.core.write.as_millis_f64())),
        (
            "soc.sim_control_ms",
            mean(|t| t.core.control.as_millis_f64()),
        ),
        (
            "soc.sim_compute_ms",
            mean(|t| t.core.compute.as_millis_f64()),
        ),
        ("soc.sim_irq_ms", mean(|t| t.core.irq.as_millis_f64())),
        ("soc.sim_read_ms", mean(|t| t.core.read.as_millis_f64())),
        ("soc.sim_misc_ms", mean(|t| t.core.misc.as_millis_f64())),
        ("soc.sim_egress_ms", mean(|t| t.egress.as_millis_f64())),
    ];
    let total_mean = mean(|t| t.total.as_millis_f64());
    let stage_sum: f64 = stages.iter().map(|(_, v)| v).sum();
    f.closes &= (stage_sum - total_mean).abs() < 1e-9;
    // The paper's window is Steps 1–8 (`core`); ingress and egress are the
    // Ethernet steps around it.
    let under = timings
        .iter()
        .filter(|t| t.core.total.as_millis_f64() < 1.9)
        .count();
    let preempted = timings.iter().filter(|t| t.core.preempted).count();
    let max = timings
        .iter()
        .map(|t| t.total.as_millis_f64())
        .fold(0.0, f64::max);
    f.put(stages);
    f.put([
        ("sim_latency_ms_mean", total_mean),
        ("sim_latency_ms_max", max),
        ("sim_under_1p9ms_frac", under as f64 / n),
        ("soc.sim_preempted_frac", preempted as f64 / n),
        (
            "soc.host_overhead_us",
            host_ms_p50 * 1e3 - f.get("interp.infer_us"),
        ),
    ]);
}

/// Counters of the serving paths, read when they were shut down.
fn tally_figures(f: &mut Figures, spec: &Spec, tally: &Tally) {
    if matches!(spec.kind, Loop::SocTick) {
        return;
    }
    f.put([
        (
            "engine.mean_batch",
            tally.processed as f64 / tally.batches.max(1) as f64,
        ),
        (
            "engine.dropped_backpressure",
            tally.dropped_backpressure as f64,
        ),
    ]);
    if matches!(spec.kind, Loop::Closed { .. }) {
        f.put([("engine.finish_ms", tally.engine_finish_ms)]);
        return;
    }
    f.put([
        ("gateway.shutdown_ms", tally.gateway_shutdown_ms),
        ("gateway.wedge_restarts", tally.gateway_restarts as f64),
        ("gateway.frames_assembled", tally.frames_assembled as f64),
        ("gateway.frames_accepted", tally.frames_accepted as f64),
        ("gateway.decode_errors", tally.decode_errors as f64),
        ("gateway.sequence_gaps", tally.sequence_gaps as f64),
        (
            "gateway.backpressure_drops",
            tally.backpressure_drops as f64,
        ),
        (
            "gateway.slow_consumer_drops",
            tally.slow_consumer_drops as f64,
        ),
        ("gateway.verdicts_sent", tally.verdicts_sent as f64),
        ("gateway.acks_sent", tally.acks_sent as f64),
    ]);
}
