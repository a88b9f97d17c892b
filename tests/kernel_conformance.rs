//! Kernel conformance suite: every specialised kernel the planner can
//! select — monomorphised dense (const widths 1–17), runtime-width dense,
//! wide-i64 dense, CSR sparse, and the fused conv→pool / upsample→concat
//! kernels — against the interpreter's i64 scalar reference, at every
//! SIMD level the host can reach.
//!
//! The contract under test is the engine's foundation: every kernel
//! computes the *identical* integer sum (pruning skips only exact zeros;
//! lane and row reordering only reassociates integer addition, which is
//! exact), so outputs **and overflow counters** must match the
//! interpreter bit-for-bit on every plan. The matrix crosses:
//!
//! * in/out widths 1–17 (every monomorphised width plus the runtime
//!   fallback via the hidden layer),
//! * weight density 0 / 25 / 50 / 100 % (post-quantization zero masks;
//!   density 0 is the bias-only degenerate network),
//! * batch 1 / 7 / 8 / 9 (pure remainder, exactly one 8-frame lane pass,
//!   and lane pass + remainder), and at batch 1 conv lengths on both
//!   sides of every 8-position block edge (positions as lanes),
//! * `SimdPref` Scalar / Avx2 / Avx512 / Auto × `SparsityPolicy`
//!   ForceDense / ForceSparse / Auto (preferences above the host's
//!   capability degrade to the detected level, so every row is runnable
//!   everywhere; under `-Ctarget-cpu=x86-64` CI this same suite pins the
//!   scalar instantiations),
//! * amplitudes inside and far outside the calibrated range, so the
//!   overflow counters under comparison are non-trivially non-zero.
//!
//! The deterministic tests sweep the full width × density × batch × plan
//! matrix; the proptest layer then fuzzes random corners of the same
//! space with seeded shrinking.

use proptest::prelude::*;
use reads::hls4ml::{
    convert, profile_model, CompiledFirmware, Firmware, HlsConfig, InferenceStats, PlanConfig,
    SimdPref, SparsityPolicy,
};
use reads::nn::{DenseParams, Layer, Model};
use reads::tensor::{Activation, Mat};

/// Deterministic weight matrix with an exact zero mask: entry `(r, c)` is
/// zero unless its hash beats `density_pct`, otherwise a value in
/// ±[0.25, 1.0] that survives quantization (so post-quantization density
/// tracks the mask).
fn masked_weights(rows: usize, cols: usize, density_pct: u32, seed: u64) -> Mat {
    let mut data = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let mut h = seed ^ (r as u64) << 32 ^ c as u64;
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 32;
            if (h % 100) as u32 >= density_pct {
                data.push(0.0);
            } else {
                let mag = 0.25 + 0.75 * ((h >> 8) % 1000) as f64 / 1000.0;
                let sign = if h & (1 << 40) == 0 { 1.0 } else { -1.0 };
                data.push(sign * mag);
            }
        }
    }
    Mat::from_vec(rows, cols, data)
}

fn bias(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|j| 0.1 * ((j as f64 + seed as f64 * 0.37).sin()))
        .collect()
}

/// Two-layer MLP: `in_w → hidden (relu) → out_w (sigmoid)`. With
/// `hidden = 19` the second layer exercises the runtime-width dense
/// fallback while the first sweeps the monomorphised widths.
fn tiny_mlp(in_w: usize, hidden: usize, out_w: usize, density_pct: u32, seed: u64) -> Model {
    let layers = vec![
        Layer::Dense(DenseParams {
            w: masked_weights(hidden, in_w, density_pct, seed),
            b: bias(hidden, seed),
            activation: Activation::Relu,
        }),
        Layer::Dense(DenseParams {
            w: masked_weights(out_w, hidden, density_pct, seed ^ 0xABCD),
            b: bias(out_w, seed ^ 0xABCD),
            activation: Activation::Sigmoid,
        }),
    ];
    Model::new(in_w, 1, layers)
}

/// Miniature U-Net shaped graph covering both fusions: conv→pool (fused
/// ConvPool with a retained skip), bottleneck conv, upsample→concat
/// (fused Concat reading the retained slot), and a pointwise head.
fn tiny_unet(len: usize, ch: usize, density_pct: u32, seed: u64) -> Model {
    let k = 3;
    let layers = vec![
        // 0: conv (retained for the concat below) then pooled.
        Layer::Conv1d {
            p: DenseParams {
                w: masked_weights(ch, k, density_pct, seed),
                b: bias(ch, seed),
                activation: Activation::Relu,
            },
            k,
        },
        Layer::MaxPool { pool: 2 },
        // 2: bottleneck conv at half length.
        Layer::Conv1d {
            p: DenseParams {
                w: masked_weights(ch + 1, k * ch, density_pct, seed ^ 0x51),
                b: bias(ch + 1, seed ^ 0x51),
                activation: Activation::Relu,
            },
            k,
        },
        Layer::UpSample { factor: 2 },
        Layer::ConcatWith { node: 0 },
        // 5: pointwise head over (ch + 1) + ch channels.
        Layer::PointwiseDense(DenseParams {
            w: masked_weights(2, 2 * ch + 1, density_pct.max(50), seed ^ 0x77),
            b: bias(2, seed ^ 0x77),
            activation: Activation::Sigmoid,
        }),
    ];
    Model::new(len, 1, layers)
}

/// Concat-free conv graph for the batch-1 position lanes: over an input
/// of `len · pool` positions, a conv, a conv → maxpool (fused under the
/// default plan), an unfused conv at the pooled length `len`, and a
/// pointwise head. With no concat to line up, any `len` is legal (the
/// pool must still divide its input, as the interpreter requires).
fn conv_pool_net(len: usize, k: usize, pool: usize, density_pct: u32, seed: u64) -> Model {
    let (c1, c2, c3) = (5, 6, 9);
    let conv = |rows: usize, in_ch: usize, salt: u64| Layer::Conv1d {
        p: DenseParams {
            w: masked_weights(rows, k * in_ch, density_pct, seed ^ salt),
            b: bias(rows, seed ^ salt),
            activation: Activation::Relu,
        },
        k,
    };
    let layers = vec![
        conv(c1, 1, 0x1),
        conv(c2, c1, 0x2),
        Layer::MaxPool { pool },
        conv(c3, c2, 0x3),
        Layer::PointwiseDense(DenseParams {
            w: masked_weights(2, c3, density_pct.max(50), seed ^ 0x4),
            b: bias(2, seed ^ 0x4),
            activation: Activation::Sigmoid,
        }),
    ];
    Model::new(len * pool, 1, layers)
}

fn frame(n: usize, salt: u64, amp: f64) -> Vec<f64> {
    (0..n)
        .map(|j| amp * ((j as f64).mul_add(0.219, salt as f64 * 0.83)).sin())
        .collect()
}

fn lower_to_firmware(m: &Model) -> Firmware {
    let (len, ch) = m.input_shape();
    let calib: Vec<Vec<f64>> = (0..4).map(|f| frame(len * ch, f + 900, 2.0)).collect();
    let profile = profile_model(m, &calib);
    convert(m, &profile, &HlsConfig::paper_default())
}

/// Every plan the build-time dispatcher can produce on this host.
fn plans() -> Vec<PlanConfig> {
    let mut out = Vec::new();
    for simd in [
        SimdPref::Scalar,
        SimdPref::Avx2,
        SimdPref::Avx512,
        SimdPref::Auto,
    ] {
        for sparsity in [
            SparsityPolicy::ForceDense,
            SparsityPolicy::ForceSparse,
            SparsityPolicy::Auto,
        ] {
            out.push(PlanConfig {
                simd,
                sparsity,
                ..PlanConfig::default()
            });
        }
    }
    out
}

/// Interpreter reference for a batch: per-frame outputs plus merged stats
/// (the compiled engine reports one merged `InferenceStats` per batch).
fn reference(fw: &Firmware, frames: &[Vec<f64>]) -> (Vec<Vec<f64>>, InferenceStats) {
    let mut merged = InferenceStats::default();
    let outs = frames
        .iter()
        .map(|x| {
            let (y, s) = fw.infer(x);
            merged.merge(&s);
            y
        })
        .collect();
    (outs, merged)
}

/// Asserts one plan × batch-size cell: outputs and overflow counters must
/// equal the interpreter reference bit-for-bit.
fn assert_conforms(fw: &Firmware, cfg: &PlanConfig, batch: usize, salt: u64, amp: f64, tag: &str) {
    let n_in = fw.input_len * fw.input_channels;
    let frames: Vec<Vec<f64>> = (0..batch)
        .map(|f| frame(n_in, salt + f as u64, amp))
        .collect();
    let (want, want_stats) = reference(fw, &frames);

    let engine = CompiledFirmware::lower_with(fw, cfg);
    assert_eq!(
        engine.content_digest(),
        fw.content_digest(),
        "{tag}: kernel selection must not perturb the content digest"
    );
    let (got, got_stats) = engine.infer_batch(&frames);

    for (f, (g, w)) in got.iter().zip(&want).enumerate() {
        let g_bits: Vec<u64> = g.iter().map(|v| v.to_bits()).collect();
        let w_bits: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
        assert_eq!(g_bits, w_bits, "{tag} frame {f}: outputs diverge");
    }
    assert_eq!(got_stats, want_stats, "{tag}: overflow counters diverge");
}

/// Widths 1–17 × density × every plan, batch sizes spanning remainder and
/// lane-pass paths. The hidden width 19 keeps the mid layer on the
/// runtime-width fallback so both dense families run in the same net.
#[test]
fn dense_kernels_match_reference_across_widths_and_densities() {
    for width in 1..=17usize {
        for &density in &[0u32, 25, 50, 100] {
            let model = tiny_mlp(width, 19, width, density, 7 + width as u64);
            let fw = lower_to_firmware(&model);
            for cfg in plans() {
                for &batch in &[1usize, 8] {
                    let tag = format!(
                        "width {width} density {density}% batch {batch} plan {:?}/{:?}",
                        cfg.simd, cfg.sparsity
                    );
                    assert_conforms(&fw, &cfg, batch, width as u64, 1.9, &tag);
                }
            }
        }
    }
}

/// Batch remainder handling: 7 (pure remainder), 8 (one lane pass), and
/// 9 (lane pass + remainder) against per-frame reference, across plans.
#[test]
fn batch_remainders_match_reference() {
    for &density in &[25u32, 100] {
        let model = tiny_mlp(13, 16, 11, density, 99);
        let fw = lower_to_firmware(&model);
        for cfg in plans() {
            for &batch in &[1usize, 7, 8, 9] {
                let tag = format!(
                    "density {density}% batch {batch} plan {:?}/{:?}",
                    cfg.simd, cfg.sparsity
                );
                assert_conforms(&fw, &cfg, batch, 5, 1.7, &tag);
            }
        }
    }
}

/// The fused conv→pool and upsample→concat kernels, with and without
/// fusion enabled, against the interpreter — including the retained-skip
/// bookkeeping the fusions must preserve.
#[test]
fn fused_kernels_match_reference() {
    for &density in &[0u32, 25, 50, 100] {
        let model = tiny_unet(12, 3, density, 31);
        let fw = lower_to_firmware(&model);
        for mut cfg in plans() {
            for fuse in [true, false] {
                cfg.fuse = fuse;
                for &batch in &[1usize, 8, 9] {
                    let tag = format!(
                        "unet density {density}% batch {batch} fuse {fuse} plan {:?}/{:?}",
                        cfg.simd, cfg.sparsity
                    );
                    assert_conforms(&fw, &cfg, batch, 11, 2.1, &tag);
                }
            }
        }
    }
}

/// Batch 1 runs conv positions as lanes: blocks of 8 positions (8·pool
/// under a fused pool, i.e. 8 pooled outputs) then a per-position tail.
/// Pooled lengths straddle every block edge, pool 3 does not divide a
/// block, k 1/3/5 move the zero padding, and a saturating amplitude makes
/// the overflow counts bite.
#[test]
fn batch1_position_lanes_match_reference_at_block_tails() {
    for &len in &[1usize, 2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 65] {
        for pool in [2usize, 3] {
            for k in [1usize, 3, 5] {
                for &density in &[0u32, 25, 100] {
                    let seed = (len * 31 + pool * 7 + k) as u64;
                    let fw = lower_to_firmware(&conv_pool_net(len, k, pool, density, seed));
                    let hot = frame(len * pool, seed, 80.0);
                    assert!(reference(&fw, &[hot]).1.total_overflows() > 0);
                    for mut cfg in plans() {
                        for fuse in [true, false] {
                            cfg.fuse = fuse;
                            for amp in [2.1, 80.0] {
                                let tag = format!(
                                    "len {len} pool {pool} k {k} density {density}% amp {amp} \
                                     fuse {fuse} plan {:?}/{:?}",
                                    cfg.simd, cfg.sparsity
                                );
                                assert_conforms(&fw, &cfg, 1, seed, amp, &tag);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Saturating frames: amplitudes far outside the calibrated range drive
/// the quantizers into overflow, so the counters being compared are
/// non-trivial — and must still match exactly on every kernel.
#[test]
fn overflow_counters_match_on_saturating_frames() {
    let model = tiny_mlp(9, 12, 5, 50, 17);
    let fw = lower_to_firmware(&model);
    let n_in = fw.input_len * fw.input_channels;
    let hot: Vec<Vec<f64>> = (0..9).map(|f| frame(n_in, 400 + f, 60.0)).collect();
    let (_, ref_stats) = reference(&fw, &hot);
    assert!(
        ref_stats.total_overflows() > 0,
        "saturating frames must actually overflow for this test to bite"
    );
    for cfg in plans() {
        let engine = CompiledFirmware::lower_with(&fw, &cfg);
        let (_, got_stats) = engine.infer_batch(&hot);
        assert_eq!(
            got_stats, ref_stats,
            "plan {:?}/{:?}: overflow counters diverge under saturation",
            cfg.simd, cfg.sparsity
        );
    }

    let unet = lower_to_firmware(&tiny_unet(12, 3, 75, 5));
    let hot: Vec<Vec<f64>> = (0..9).map(|f| frame(12, 700 + f, 80.0)).collect();
    let (_, ref_stats) = reference(&unet, &hot);
    assert!(ref_stats.total_overflows() > 0);
    for cfg in plans() {
        let engine = CompiledFirmware::lower_with(&unet, &cfg);
        let (_, got_stats) = engine.infer_batch(&hot);
        assert_eq!(
            got_stats, ref_stats,
            "unet plan {:?}/{:?}: overflow counters diverge under saturation",
            cfg.simd, cfg.sparsity
        );
    }
}

proptest! {
    /// Fuzzed corners of the same matrix: random widths, density, batch,
    /// amplitude, and seed, on the plan that forces the sparse path and
    /// the host's full SIMD level (the widest gap from the scalar
    /// reference). Seeded shrinking localises any divergence.
    #[test]
    fn fuzzed_dense_conforms(
        in_w in 1usize..=17,
        out_w in 1usize..=17,
        hidden in 1usize..=24,
        density in 0u32..=100,
        batch in 1usize..=9,
        salt in 0u64..1000,
        amp_m in 1u32..=30,
    ) {
        let amp = f64::from(amp_m) * 0.2;
        let model = tiny_mlp(in_w, hidden, out_w, density, salt ^ 0xF00D);
        let fw = lower_to_firmware(&model);
        for cfg in [
            PlanConfig { simd: SimdPref::Auto, sparsity: SparsityPolicy::ForceSparse, ..PlanConfig::default() },
            PlanConfig { simd: SimdPref::Auto, sparsity: SparsityPolicy::ForceDense, ..PlanConfig::default() },
        ] {
            let n_in = fw.input_len * fw.input_channels;
            let frames: Vec<Vec<f64>> = (0..batch).map(|f| frame(n_in, salt + f as u64, amp)).collect();
            let (want, want_stats) = reference(&fw, &frames);
            let engine = CompiledFirmware::lower_with(&fw, &cfg);
            let (got, got_stats) = engine.infer_batch(&frames);
            for (f, (g, w)) in got.iter().zip(&want).enumerate() {
                let g_bits: Vec<u64> = g.iter().map(|v| v.to_bits()).collect();
                let w_bits: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(g_bits, w_bits, "frame {} diverges ({:?})", f, cfg.sparsity);
            }
            prop_assert_eq!(&got_stats, &want_stats, "stats diverge ({:?})", cfg.sparsity);
        }
    }

    /// Fuzzed fused graphs: random length/width/density, both fusion
    /// settings, batch crossing the lane boundary.
    #[test]
    fn fuzzed_fused_conforms(
        len in 4usize..=40,
        ch in 1usize..=5,
        density in 0u32..=100,
        batch in 1usize..=9,
        salt in 0u64..500,
    ) {
        let model = tiny_unet(len + len % 2, ch, density, salt ^ 0xBEEF);
        let fw = lower_to_firmware(&model);
        for fuse in [true, false] {
            let cfg = PlanConfig { fuse, ..PlanConfig::default() };
            let n_in = fw.input_len * fw.input_channels;
            let frames: Vec<Vec<f64>> = (0..batch).map(|f| frame(n_in, salt + f as u64, 2.3)).collect();
            let (want, want_stats) = reference(&fw, &frames);
            let engine = CompiledFirmware::lower_with(&fw, &cfg);
            let (got, got_stats) = engine.infer_batch(&frames);
            for (f, (g, w)) in got.iter().zip(&want).enumerate() {
                let g_bits: Vec<u64> = g.iter().map(|v| v.to_bits()).collect();
                let w_bits: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(g_bits, w_bits, "frame {} diverges (fuse {})", f, fuse);
            }
            prop_assert_eq!(&got_stats, &want_stats, "stats diverge (fuse {})", fuse);
        }
    }
}
