//! The repo benchmark: five workloads at the paper's cadence, measured
//! from outside through the crates' public functions.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload cadence_mlp8 --seed 2024 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
//! of `BENCHMARK.json` with `--trace 0`, every per-layer metric with
//! `--trace 1`. README.md says what each workload is for.

mod layers;
mod loadgen;
mod process;
mod setup;
mod spec;
mod stage;
mod stats;
mod trace;
mod traced;

use spec::{Args, END_TO_END};
use stage::{set_up, Stage};
use stats::median;
use trace::{ms_since, now_ns, Tracer};

#[global_allocator]
static ALLOCATOR: process::CountingAlloc = process::CountingAlloc;

/// The result line's content.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// End-to-end metrics, tracing off: set up several times, warm up, then
/// the timed rounds.
fn timed_run(args: &Args) -> Report {
    let spec = args.spec;
    let mut tracer = Tracer::off();
    let set_ups = if args.quick() { 1 } else { 3 };
    let mut set_up_s = Vec::with_capacity(set_ups);
    let mut stage = None;
    for _ in 0..set_ups {
        // The previous set-up's threads and sockets are gone before the
        // next is timed.
        if let Some(previous) = stage.take() {
            let _ = Stage::tear_down(previous);
        }
        let t = now_ns();
        stage = Some(set_up(spec, args.seed));
        set_up_s.push(ms_since(t) / 1e3);
    }
    let mut stage = stage.expect("at least one set-up");

    let t = now_ns();
    let (warm, _) = stage.run(spec, args.ops(args.warmup_s()), &mut tracer);
    let warmup_s = ms_since(t) / 1e3;
    let (seg, _) = stage.run(spec, args.ops(args.seconds), &mut tracer);

    let frames_sent = (warm.replies.len() + seg.replies.len()) as u64;
    let failed = warm.failed() + seg.failed();
    let from_due = spec.kind.scheduled();
    let tally = stage.tear_down();
    let stat = seg.round_quartile(from_due);
    let values = [
        median(&set_up_s) + warmup_s,
        stat.p50_ms,
        stat.p90_ms,
        stat.per_s,
        process::peak_rss_mb(),
    ];
    Report {
        correct: failed == 0 && tally.clean(frames_sent, spec.kind),
        attempted: frames_sent as usize,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
    }
}

fn main() {
    let args = match spec::parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", spec::USAGE);
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced::traced_run(&args)
    } else {
        timed_run(&args)
    };
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not a number: {value}");
            eprintln!("{:<34} {value:>16.6} {unit}", name);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
