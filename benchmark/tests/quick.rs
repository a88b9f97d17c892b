//! The benchmark's own CI: every workload runs in `--quick` mode, prints
//! exactly the metrics `BENCHMARK.json` names with their units, and fails
//! no operation; the simulated figures repeat to the last bit.
//!
//! ```sh
//! cargo test --release --offline --manifest-path benchmark/Cargo.toml
//! ```

use serde::{Deserialize, Value};
use std::process::Command;
use std::sync::Mutex;

/// The whole JSON tree: the vendored `serde_json` parses only into types
/// that implement its `Deserialize`.
struct Tree(Value);

impl Deserialize for Tree {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Tree(v.clone()))
    }
}

fn parse(json: &str) -> Value {
    serde_json::from_str::<Tree>(json).expect("valid JSON").0
}

/// The runs are timing loops on a two-core box: one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    parse(&text)
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.field_or_null(key) {
        Value::Array(items) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

/// `(name, unit)` of every metric under `key`.
fn metrics(contract: &Value, key: &str) -> Vec<(String, String)> {
    list(contract, key)
        .iter()
        .map(|m| {
            let field = |key| text(m.field_or_null(key)).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark binary and returns its result line, raw and parsed.
fn run(workload: &str, seed: u64, trace: bool) -> (String, Value) {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_reads-benchmark"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args([
            "--workload",
            workload,
            "--quick",
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line").to_string();
    let parsed = parse(&line);
    (line, parsed)
}

fn legal_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_prints_every_metric_once_and_fails_nothing() {
    let contract = contract();
    for workload in list(&contract, "workloads") {
        let workload = text(workload.field_or_null("name"));
        assert!(legal_name(workload), "workload name {workload}");
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (line, result) = run(workload, 2024, trace);
            let Value::Object(fields) = &result else {
                panic!("the result is an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let field = |name| result.field_or_null(name);
            assert_eq!(field("correct"), &Value::Bool(true), "{workload} {key}");
            assert_eq!(field("failed").as_u64().ok(), Some(0), "{workload} {key}");
            assert!(field("attempted").as_u64().is_ok_and(|n| n >= 1));

            let Value::Object(printed) = result.field_or_null("metrics") else {
                panic!("metrics is an object");
            };
            let want = metrics(&contract, key);
            assert_eq!(printed.len(), want.len(), "{workload} {key}: metric count");
            for (name, unit) in &want {
                assert!(legal_name(name), "metric name {name}");
                let quoted = format!("\"{name}\":");
                assert_eq!(
                    line.matches(&quoted).count(),
                    1,
                    "{workload}: {name} printed exactly once"
                );
                let metric = field("metrics").field_or_null(name);
                assert_eq!(
                    text(metric.field_or_null("unit")),
                    unit,
                    "{workload}: unit of {name}"
                );
                assert!(
                    matches!(
                        metric.field_or_null("value"),
                        Value::Float(_) | Value::UInt(_) | Value::Int(_)
                    ),
                    "{workload}: {name} is a number"
                );
            }
        }
    }
}

#[test]
fn simulated_figures_repeat_to_the_last_bit() {
    let sim = |seed: u64| -> Vec<(String, String)> {
        let (_, result) = run("soc_tick_unet", seed, true);
        let Value::Object(printed) = result.field_or_null("metrics") else {
            panic!("metrics is an object");
        };
        printed
            .iter()
            .filter(|(name, _)| name.starts_with("sim_") || name.starts_with("soc.sim_"))
            .map(|(name, m)| (name.clone(), format!("{:?}", m.field_or_null("value"))))
            .collect()
    };
    let first = sim(7);
    assert_eq!(first.len(), 12, "three sim_* and nine soc.sim_* figures");
    assert_eq!(first, sim(7), "same seed, same simulated figures");
    assert_ne!(first, sim(8), "another seed moves them");
}
