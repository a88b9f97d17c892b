//! `reads-bench` — the reproduction harness.
//!
//! The `repro` binary regenerates one table or figure of the paper per
//! subcommand (`repro table1`, …, `repro fig5c`) and prints it next to the
//! published values; `repro all` runs the whole evaluation section, and
//! the extension studies run as `repro seu_study`, `repro fault_campaign`
//! and so on. The serving and kernel benches (`inference_hotpath`,
//! `netserve_throughput`, …) are binaries of their own, each writing its
//! trajectory through [`write_trajectory`].
//!
//! Everything here runs on the shared full-tier trained models (cached in
//! `target/reads-artifacts/` after the first run) with the standard seed
//! [`REPRO_SEED`], so repeated invocations are deterministic.

#![warn(missing_docs)]

use reads_core::trained::{BnBundle, TrainedBundle, TrainingTier};
use reads_hls4ml::{convert, profile_model, Firmware, HlsConfig};
use reads_nn::ModelSpec;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub mod runners;

/// The seed every reproduction experiment derives from.
pub const REPRO_SEED: u64 = 2024;

/// Loads (or trains once) the standardize-before-training U-Net.
#[must_use]
pub fn unet_bundle() -> TrainedBundle {
    TrainedBundle::get_or_train(ModelSpec::UNet, TrainingTier::Full, REPRO_SEED)
}

/// Loads (or trains once) the MLP.
#[must_use]
pub fn mlp_bundle() -> TrainedBundle {
    TrainedBundle::get_or_train(ModelSpec::Mlp, TrainingTier::Full, REPRO_SEED)
}

/// Loads (or trains once) the raw-data + input-BatchNorm U-Net (the paper's
/// original configuration; the Table II collapse row).
#[must_use]
pub fn unet_bn_bundle() -> BnBundle {
    BnBundle::get_or_train(ModelSpec::UNet, TrainingTier::Full, REPRO_SEED)
}

/// The paper's build of `bundle`: profiled on `calib_frames` calibration
/// frames and converted under [`HlsConfig::paper_default`].
#[must_use]
pub fn paper_firmware(bundle: &TrainedBundle, calib_frames: usize) -> Firmware {
    let calib = bundle.calibration_inputs(calib_frames);
    let profile = profile_model(&bundle.model, &calib);
    convert(&bundle.model, &profile, &HlsConfig::paper_default())
}

/// The environment variable `key` parsed as `T`, or `default` when it is
/// unset or does not parse.
#[must_use]
pub fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Formats a ratio against a published value as `ours (paper X, Δ%)`.
#[must_use]
pub fn vs_paper(ours: f64, paper: f64, unit: &str) -> String {
    let delta = (ours - paper) / paper * 100.0;
    format!("{ours:.3} {unit} (paper {paper:.3}, {delta:+.1}%)")
}

/// Prints a section header for a repro experiment.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// `rel` resolved against the workspace root, whatever the current
/// directory.
fn workspace_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Writes `report` as one line of compact JSON to `rel`, a path relative
/// to the workspace root, creating its directory, and returns the full
/// path.
///
/// # Panics
/// On any I/O error: a bench whose trajectory is lost must fail, not pass.
pub fn write_trajectory<T: Serialize>(rel: &str, report: &T) -> PathBuf {
    let path = workspace_path(rel);
    let dir = path.parent().expect("a file path has a parent");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let mut json = serde_json::to_string(report).expect("serialize trajectory");
    json.push('\n');
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Asserts that the committed trajectory `rel` (relative to the workspace
/// root) decodes into `T` and re-encodes with exactly its key paths, so a
/// writer that drifts from its committed file fails `cargo test`.
///
/// # Panics
/// If the file is unreadable or malformed, does not decode into `T`, or
/// its key paths differ from `T`'s.
pub fn assert_trajectory_schema<T: Serialize + Deserialize>(rel: &str) {
    /// The parsed document itself, kept whole.
    struct Tree(Value);
    impl Deserialize for Tree {
        fn from_value(v: &Value) -> Result<Self, serde::Error> {
            Ok(Self(v.clone()))
        }
    }

    let path = workspace_path(rel);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let Tree(committed) =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
    let report =
        T::from_value(&committed).unwrap_or_else(|e| panic!("decode {}: {e}", path.display()));
    assert_eq!(
        key_paths(&report.to_value()),
        key_paths(&committed),
        "{}: the writer's key paths (left) differ from the committed file's (right)",
        path.display()
    );
}

/// Every key path in `v`: `a.b` for nested objects, `a[].b` for objects
/// inside arrays.
fn key_paths(v: &Value) -> BTreeSet<String> {
    fn walk(v: &Value, prefix: &str, out: &mut BTreeSet<String>) {
        match v {
            Value::Object(pairs) => {
                for (key, item) in pairs {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    walk(item, &path, out);
                    out.insert(path);
                }
            }
            Value::Array(items) => {
                for item in items {
                    walk(item, &format!("{prefix}[]"), out);
                }
            }
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(v, "", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vs_paper_formats_delta() {
        let s = vs_paper(1.5, 1.0, "ms");
        assert!(s.contains("+50.0%"), "{s}");
        assert!(s.contains("paper 1.000"));
    }

    #[test]
    fn key_paths_name_nested_and_array_keys() {
        let v = Value::Object(vec![
            ("seed".into(), Value::UInt(1)),
            (
                "rows".into(),
                Value::Array(vec![Value::Object(vec![("fps".into(), Value::Float(1.0))])]),
            ),
            ("fleet_kill".into(), Value::Null),
        ]);
        let want: BTreeSet<String> = ["seed", "rows", "rows[].fps", "fleet_kill"]
            .into_iter()
            .map(String::from)
            .collect();
        assert_eq!(key_paths(&v), want);
    }
}
