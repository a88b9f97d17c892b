//! Golden-vector conformance suite.
//!
//! Seeded input frames and their expected fixed-point outputs are checked
//! in under `tests/golden/` as f64 *bit patterns* (hex), so the assertions
//! are exact to the last mantissa bit — any numeric drift in the firmware
//! interpreter (quantizer rounding, accumulation order, activation tables)
//! fails loudly, and so does any divergence between the sequential,
//! batched, and multi-threaded inference paths.
//!
//! The vectors are built from *untrained but seeded* models run through
//! the real profile → convert pipeline: training is deliberately excluded
//! so the suite pins interpreter semantics, not optimizer trajectories.
//! Each file also records the firmware's content digest; a digest mismatch
//! means conversion itself changed and the vectors need review.
//!
//! Sparse fixtures (`density < 1.0`) prune the converted firmware with a
//! deterministic post-quantization zero mask before generating vectors, so
//! the compiled engine's CSR kernels — not just the dense families — are
//! pinned bit-for-bit, on both the forced-scalar and detected-SIMD plans.
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! REGEN_GOLDEN=1 cargo test --test golden_vectors
//! ```

use reads_hls4ml::{
    convert, profile_model, sparsify_firmware, CompiledFirmware, Firmware, HlsConfig, PlanConfig,
    SimdPref,
};
use reads_nn::models;
use reads_soc::{CentralNodeSim, HpsModel};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Seed salt for the deterministic prune mask of sparse golden builds.
/// `tests/netserve_loopback.rs` derives the same mask to serve the pinned
/// sparse firmware end-to-end.
const SPARSE_MASK_SALT: u64 = 0x5EED;

#[derive(Debug, Serialize, Deserialize)]
struct GoldenFile {
    /// `"mlp"` or `"unet"`.
    model: String,
    /// Model seed.
    seed: u64,
    /// Weight density: 1.0 for the dense build; below 1.0 the firmware is
    /// pruned with `sparsify_firmware(seed ^ SPARSE_MASK_SALT)` before the
    /// vectors are generated, so the fixture pins the sparse lowering.
    density: f64,
    /// `Firmware::content_digest()` as hex.
    digest: String,
    /// Input frames, each value an f64 bit pattern in hex.
    inputs: Vec<Vec<String>>,
    /// Expected outputs per frame, f64 bit patterns in hex.
    outputs: Vec<Vec<String>>,
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn unhex(s: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(s, 16).expect("hex f64 bit pattern"))
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Deterministic synthetic frame in the standardized-input regime
/// (zero-mean, few-sigma range — the values the IP actually sees).
fn synth_frame(len: usize, frame: usize) -> Vec<f64> {
    (0..len)
        .map(|j| {
            let phase = (j as f64).mul_add(0.173, frame as f64 * 1.37);
            2.5 * phase.sin() + 0.25 * ((j % 17) as f64 - 8.0) / 8.0
        })
        .collect()
}

fn build_firmware(model: &str, seed: u64, density: f64) -> Firmware {
    let m = match model {
        "mlp" => models::reads_mlp(seed),
        "unet" => models::reads_unet(seed),
        other => panic!("unknown golden model {other}"),
    };
    let (input_len, _) = m.input_shape();
    let calib: Vec<Vec<f64>> = (0..6).map(|f| synth_frame(input_len, f + 100)).collect();
    let profile = profile_model(&m, &calib);
    let fw = convert(&m, &profile, &HlsConfig::paper_default());
    if density < 1.0 {
        sparsify_firmware(&fw, density, seed ^ SPARSE_MASK_SALT)
    } else {
        fw
    }
}

fn cases() -> Vec<(&'static str, u64, usize, f64)> {
    // (model, seed, frame count, weight density)
    vec![
        ("mlp", 3, 6, 1.0),
        ("mlp", 17, 4, 1.0),
        ("unet", 7, 4, 1.0),
        // Pruned profiles: the planner's density threshold is 0.5, so these
        // lower to CSR sparse kernels under the default (Auto) plan.
        ("mlp", 3, 6, 0.35),
        ("unet", 7, 4, 0.35),
    ]
}

fn file_name(model: &str, seed: u64, density: f64) -> String {
    if density < 1.0 {
        let pct = (density * 100.0).round() as u32;
        format!("{model}_seed{seed}_d{pct}.json")
    } else {
        format!("{model}_seed{seed}.json")
    }
}

fn generate(model: &str, seed: u64, frames: usize, density: f64) -> GoldenFile {
    let fw = build_firmware(model, seed, density);
    let n_in = fw.input_len * fw.input_channels;
    let inputs: Vec<Vec<f64>> = (0..frames).map(|f| synth_frame(n_in, f)).collect();
    let outputs: Vec<Vec<f64>> = inputs.iter().map(|x| fw.infer(x).0).collect();
    GoldenFile {
        model: model.to_string(),
        seed,
        density,
        digest: format!("{:016x}", fw.content_digest()),
        inputs: inputs
            .iter()
            .map(|x| x.iter().copied().map(hex).collect())
            .collect(),
        outputs: outputs
            .iter()
            .map(|x| x.iter().copied().map(hex).collect())
            .collect(),
    }
}

#[test]
fn golden_vectors_hold_bit_exactly() {
    let regen = std::env::var("REGEN_GOLDEN").is_ok_and(|v| v == "1");
    for (model, seed, frames, density) in cases() {
        let path = golden_dir().join(file_name(model, seed, density));
        if regen {
            let gf = generate(model, seed, frames, density);
            std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
            std::fs::write(&path, serde_json::to_string_pretty(&gf).unwrap())
                .expect("write golden file");
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run REGEN_GOLDEN=1 cargo test --test golden_vectors",
                path.display()
            )
        });
        let gf: GoldenFile = serde_json::from_str(&text).expect("parse golden file");
        assert_eq!(gf.model, model);
        assert_eq!(gf.seed, seed);
        assert!((gf.density - density).abs() < 1e-12);
        assert_eq!(gf.inputs.len(), frames, "{model} seed {seed} frame count");

        let fw = build_firmware(model, seed, density);
        assert_eq!(
            format!("{:016x}", fw.content_digest()),
            gf.digest,
            "{model} seed {seed}: conversion pipeline changed — regenerate and review"
        );

        let inputs: Vec<Vec<f64>> = gf
            .inputs
            .iter()
            .map(|x| x.iter().map(|s| unhex(s)).collect())
            .collect();
        for (f, (x, want_hex)) in inputs.iter().zip(&gf.outputs).enumerate() {
            let (got, _) = fw.infer(x);
            assert_eq!(got.len(), want_hex.len(), "{model} seed {seed} frame {f}");
            for (j, (g, w)) in got.iter().zip(want_hex).enumerate() {
                assert_eq!(
                    hex(*g),
                    *w,
                    "{model} seed {seed} frame {f} output {j}: {} != {}",
                    g,
                    unhex(w)
                );
            }
        }
    }
}

#[test]
fn compiled_engine_matches_golden_vectors_bit_exactly() {
    // The lowered integer-quanta engine must reproduce the checked-in
    // vectors to the last mantissa bit, carry the source firmware's digest,
    // and report identical overflow statistics — through one reused scratch
    // arena, the way the production engine runs it. Every case is asserted
    // on the forced-scalar plan and the host's detected SIMD plan; the
    // sparse fixtures additionally prove the default plan actually selects
    // CSR kernels (they would pass vacuously on a dense-only planner).
    if std::env::var("REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        // Regen runs write the fixtures in a parallel test; don't race them.
        return;
    }
    for (model, seed, _, density) in cases() {
        let path = golden_dir().join(file_name(model, seed, density));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run REGEN_GOLDEN=1 cargo test --test golden_vectors",
                path.display()
            )
        });
        let gf: GoldenFile = serde_json::from_str(&text).expect("parse golden file");

        let fw = build_firmware(model, seed, density);
        for simd in [SimdPref::Scalar, SimdPref::Auto] {
            let cfg = PlanConfig {
                simd,
                ..PlanConfig::default()
            };
            let engine = CompiledFirmware::lower_with(&fw, &cfg);
            assert_eq!(
                format!("{:016x}", engine.content_digest()),
                gf.digest,
                "{model} seed {seed} d={density}: compiled digest must pin the source firmware"
            );
            if density < 1.0 && simd == SimdPref::Auto {
                assert!(
                    engine.kernel_mix().sparse > 0,
                    "{model} seed {seed} d={density}: sparse fixture must lower to CSR kernels"
                );
            }

            let mut scratch = engine.scratch();
            for (f, (x_hex, want_hex)) in gf.inputs.iter().zip(&gf.outputs).enumerate() {
                let x: Vec<f64> = x_hex.iter().map(|s| unhex(s)).collect();
                let (want_ref, want_stats) = fw.infer(&x);
                let (got, got_stats) = engine.infer_into(&x, &mut scratch);
                for (j, (g, w)) in got.iter().zip(want_hex).enumerate() {
                    assert_eq!(
                        hex(*g),
                        *w,
                        "{model} seed {seed} d={density} frame {f} output {j} ({simd:?}): \
                         compiled {} != golden {}",
                        g,
                        unhex(w)
                    );
                }
                assert_eq!(got.len(), want_ref.len());
                assert_eq!(
                    *got_stats, want_stats,
                    "{model} seed {seed} d={density} frame {f} ({simd:?}): overflow statistics \
                     diverge"
                );
            }
        }
    }
}

#[test]
fn batched_path_is_bit_identical_to_sequential() {
    for (model, seed, frames, density) in cases() {
        let fw = build_firmware(model, seed, density);
        let n_in = fw.input_len * fw.input_channels;
        let inputs: Vec<Vec<f64>> = (0..frames).map(|f| synth_frame(n_in, f)).collect();
        let sequential: Vec<Vec<f64>> = inputs.iter().map(|x| fw.infer(x).0).collect();
        let (batched, _) = fw.infer_batch(&inputs);
        assert_eq!(batched.len(), sequential.len());
        for (f, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            let s_bits: Vec<u64> = s.iter().map(|v| v.to_bits()).collect();
            assert_eq!(b_bits, s_bits, "{model} seed {seed} frame {f}");
        }
    }
}

#[test]
fn parallel_workers_with_cloned_firmware_are_bit_identical() {
    // The engine's parallelism is cloned firmware on worker threads; prove
    // the clone+thread combination cannot perturb a single bit.
    let fw = build_firmware("mlp", 3, 1.0);
    let n_in = fw.input_len * fw.input_channels;
    let inputs: Vec<Vec<f64>> = (0..16).map(|f| synth_frame(n_in, f)).collect();
    let sequential: Vec<Vec<f64>> = inputs.iter().map(|x| fw.infer(x).0).collect();

    let workers = 4;
    let chunk = inputs.len().div_ceil(workers);
    let parallel: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .chunks(chunk)
            .map(|part| {
                let worker_fw = fw.clone();
                s.spawn(move || {
                    part.iter()
                        .map(|x| worker_fw.infer(x).0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker"))
            .collect()
    });
    assert_eq!(parallel.len(), sequential.len());
    for (f, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
        let p_bits: Vec<u64> = p.iter().map(|v| v.to_bits()).collect();
        let s_bits: Vec<u64> = s.iter().map(|v| v.to_bits()).collect();
        assert_eq!(p_bits, s_bits, "frame {f}");
    }
}

#[test]
fn soc_node_matches_the_interpreter_on_golden_frames() {
    // The simulated central node computes Steps 3–5 on the lowered engine;
    // its full RAM round trip must return the interpreter's outputs bit for
    // bit — for every golden build, plus the U-Net pruned to 25 % (the
    // density the serving benchmark runs).
    let mut builds = cases();
    builds.push(("unet", 7, 4, 0.25));
    for (model, seed, frames, density) in builds {
        let fw = build_firmware(model, seed, density);
        let n_in = fw.input_len * fw.input_channels;
        let mut node = CentralNodeSim::new(fw.clone(), HpsModel::default(), seed);
        for f in 0..frames {
            let x = synth_frame(n_in, f);
            let (want, _) = fw.infer(&x);
            let (got, _) = node.run_frame(&x);
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got_bits, want_bits,
                "{model} seed {seed} d={density} frame {f}: node != interpreter"
            );
        }
    }
}
