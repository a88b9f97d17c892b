//! The build-time kernel planner: lowers a [`Firmware`] into integer
//! quanta and chooses one specialised kernel instantiation per layer.
//!
//! Planning happens exactly once, at [`CompiledFirmware::lower_with`]
//! time:
//!
//! * **Sparsity** — weights that are exactly zero post-quantization are
//!   counted; when the measured density falls at or below
//!   [`PlanConfig::density_threshold`] the layer is lowered to the CSR
//!   kernel, otherwise to the dense kernel (the prune-only-exact-zeros
//!   invariant keeps both bit-identical, so the choice is purely a
//!   performance decision).
//! * **Monomorphisation** — layers whose column width has a dedicated
//!   const-generic instantiation get it; the rest use the runtime-width
//!   body. The selected `(L = 1, L = 8)` function pointers are stored on
//!   the layer — dispatch happens here, never per frame.
//! * **SIMD** — the highest instruction set both the CPU (runtime
//!   detection) and [`PlanConfig::simd`] allow is chosen for every MAC
//!   function pointer.
//! * **Fusion** — `conv1d → maxpool` and `upsample → concat` chains are
//!   collapsed into single-pass steps (skipped when the intermediate is a
//!   retained skip-connection source that must be materialised anyway).
//!
//! None of these choices is observable in outputs, statistics, or the
//! content digest — only in speed. The kernel conformance suite and the
//! sparse differential proptest enforce that.

use super::kernels::{dense, sparse, CAct, CDense, Csr};
use super::{
    CompiledFirmware, KernelKind, KernelMix, LayerOps, PlanConfig, SimdLevel, SimdPref,
    SparsityPolicy, Step, StepKernel, EXACT_BOUND,
};
use crate::firmware::{Firmware, FwActivation, FwDense, FwNode};
use reads_fixed::{Fx, Overflow, QFormat, Rounding};
use reads_tensor::activ::SigmoidTable;

/// Runtime detection of the best available SIMD level; always
/// [`SimdLevel::Scalar`] off x86-64.
pub(super) fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// Resolves a preference against what the CPU actually supports: the
/// preference is a *cap*, never a promise — forcing AVX-512 on a machine
/// without it degrades to the best detected level.
pub(super) fn resolve_simd(pref: SimdPref) -> SimdLevel {
    let detected = detect_level();
    match pref {
        SimdPref::Auto => detected,
        SimdPref::Scalar => SimdLevel::Scalar,
        SimdPref::Avx2 => detected.min(SimdLevel::Avx2),
        SimdPref::Avx512 => detected.min(SimdLevel::Avx512),
    }
}

/// Raw value exactly on `fmt`'s grid (weights/biases/coefficients are
/// stored on-grid by the converter; anything else is a lowering bug).
fn on_grid_raw(v: f64, fmt: QFormat) -> i64 {
    let (fx, ovf) = Fx::from_f64(v, fmt, Rounding::Truncate, Overflow::Saturate);
    assert!(
        !ovf && fx.to_f64() == v,
        "parameter {v} is not on the {fmt} grid"
    );
    fx.raw()
}

/// Largest raw magnitude any value of `fmt` can carry (wrap and saturate
/// both keep raws inside the format's range).
fn fmt_raw_bound(fmt: QFormat) -> i64 {
    fmt.raw_max()
        .max(fmt.raw_min().checked_neg().expect("width <= 48"))
}

/// Coarsest dyadic grid (fractional bits) on which every value in `vals`
/// has an exact integer raw — recovers the coefficient grid for folded
/// batch-norm parameters, which do not carry their format.
fn dyadic_frac(vals: &[f64]) -> i32 {
    let mut frac = -64i32;
    loop {
        let ok = vals.iter().all(|&v| {
            let scaled = v * f64::from(frac).exp2();
            scaled.fract() == 0.0 && scaled.abs() < EXACT_BOUND as f64
        });
        if ok {
            return frac;
        }
        frac += 1;
        assert!(frac <= 128, "coefficients not on a dyadic grid");
    }
}

/// Builds the CSR form of a narrowed weight matrix over its exact-zero
/// structure.
fn build_csr(w32: &[i32], rows: usize, cols: usize) -> Csr {
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut idx = Vec::new();
    let mut w = Vec::new();
    row_ptr.push(0u32);
    for r in 0..rows {
        for (c, &v) in w32[r * cols..(r + 1) * cols].iter().enumerate() {
            if v != 0 {
                idx.push(u32::try_from(c).expect("layer width fits u32"));
                w.push(v);
            }
        }
        row_ptr.push(u32::try_from(idx.len()).expect("weight count fits u32"));
    }
    Csr { row_ptr, idx, w }
}

/// Lowers one dense-like kernel given the input grid and raw bound, and
/// plans its MAC instantiation (sparse vs dense, mono vs generic width,
/// SIMD level).
fn lower_dense(
    d: &FwDense,
    in_grid: i32,
    in_bound: i64,
    sigmoid: &SigmoidTable,
    cfg: &PlanConfig,
    simd: SimdLevel,
) -> CDense {
    let frac_w = d.weight_fmt.frac_bits();
    let prod_shift = u32::try_from((-in_grid).max(0)).expect("bounded int_bits");
    let bias_shift = u32::try_from(in_grid.max(0)).expect("bounded int_bits");
    let acc_frac = frac_w + in_grid.max(0);

    let w: Vec<i64> = d
        .weights
        .iter()
        .map(|&v| on_grid_raw(v, d.weight_fmt))
        .collect();
    let b: Vec<i128> = d
        .bias
        .iter()
        .map(|&v| {
            i128::from(on_grid_raw(v, d.weight_fmt))
                .checked_mul(1i128 << bias_shift)
                .expect("bias leaves the f64-exactness domain")
        })
        .collect();

    // Worst-case accumulator per row: Σ|w|·max|x| (shifted to the
    // accumulator grid) plus the aligned bias. Every partial sum of the
    // interpreter's f64 accumulation is bounded by this; below EXACT_BOUND
    // both routes compute the identical value. The sparse kernel's partial
    // sums visit a subset of the same non-negative terms, so the dense
    // bound covers it too.
    for r in 0..d.rows {
        let mac: i128 = w[r * d.cols..(r + 1) * d.cols]
            .iter()
            .map(|&wr| i128::from(wr.unsigned_abs()) * i128::from(in_bound))
            .sum();
        let bound = mac
            .checked_mul(1i128 << prod_shift)
            .and_then(|m| m.checked_add(b[r].abs()))
            .unwrap_or(i128::MAX);
        assert!(
            bound < EXACT_BOUND,
            "row {r} accumulator bound {bound} leaves the f64-exactness \
             domain; the interpreter itself would be inexact here"
        );
    }

    let act = match d.activation {
        FwActivation::Linear => CAct::Linear(d.out_quant.requant_from(acc_frac)),
        FwActivation::Relu => CAct::Relu(d.out_quant.requant_from(acc_frac)),
        FwActivation::SigmoidTable => {
            let out_fmt = d.out_quant.format();
            let lut = sigmoid
                .values()
                .iter()
                .map(|&y| {
                    let (fx, ovf) = Fx::from_f64(
                        y,
                        out_fmt,
                        d.out_quant.rounding(),
                        d.out_quant.overflow_mode(),
                    );
                    (fx.raw(), ovf)
                })
                .collect();
            CAct::Sigmoid {
                lut,
                acc_lsb: f64::from(-acc_frac).exp2(),
            }
        }
    };

    // Narrow path guard: every product the kernel forms is w·x with
    // |x| ≤ in_bound, so if both operands fit in i32 the widening multiply
    // computes the identical i64 product.
    let narrow = in_bound <= i64::from(i32::MAX) && w.iter().all(|&v| i32::try_from(v).is_ok());
    let w32: Vec<i32> = if narrow {
        w.iter().map(|&v| v as i32).collect()
    } else {
        Vec::new()
    };

    let nnz = w.iter().filter(|&&v| v != 0).count();
    let density = nnz as f64 / (d.rows * d.cols).max(1) as f64;
    let want_sparse = match cfg.sparsity {
        SparsityPolicy::ForceDense => false,
        SparsityPolicy::ForceSparse => true,
        SparsityPolicy::Auto => density <= cfg.density_threshold,
    };

    let (csr, kind) = if narrow && want_sparse {
        (Some(build_csr(&w32, d.rows, d.cols)), KernelKind::Sparse)
    } else if narrow && dense::is_mono(d.cols) {
        (None, KernelKind::DenseMono)
    } else if narrow {
        (None, KernelKind::Dense)
    } else {
        (None, KernelKind::DenseWide)
    };

    let (rows1, rows8) = match kind {
        // CSR pays off only on lane passes, where each retained weight is
        // amortised over 8 lanes — 8 frames, or 8 positions of one frame's
        // conv. `rows1` serves only one-position passes (dense layers, the
        // pointwise head, a conv's tail positions), which would lose the
        // columnar vectorisation a dense row gives, so a sparse layer
        // keeps the dense body there. Both compute the identical sum —
        // pruned weights are exactly zero.
        KernelKind::Sparse => (dense::pair(d.cols, simd).0, sparse::pair(simd).1),
        KernelKind::DenseWide => dense::wide_pair(simd),
        _ => dense::pair(d.cols, simd),
    };

    CDense {
        // One weight store per layer: the narrow kernels read `w32` (or
        // the CSR), so the `i64` copy survives only for the wide fallback.
        w: if kind == KernelKind::DenseWide {
            w
        } else {
            Vec::new()
        },
        w32,
        csr,
        b: b.into_iter()
            .map(|v| i64::try_from(v).expect("bias within exactness bound"))
            .collect(),
        rows: d.rows,
        cols: d.cols,
        prod_shift,
        act,
        kind,
        rows1,
        rows8,
    }
}

/// Full lowering + planning pass. See [`CompiledFirmware::lower_with`].
pub(super) fn lower_with(fw: &Firmware, cfg: &PlanConfig) -> CompiledFirmware {
    let simd = resolve_simd(cfg.simd);
    let input_fmt = fw.input_quant.format();

    // Which node outputs must be retained for later concats, and where.
    let mut retain: Vec<Option<usize>> = vec![None; fw.nodes.len()];
    let mut skip_sizes = Vec::new();
    for node in &fw.nodes {
        if let FwNode::ConcatWith { node: src, .. } = node {
            if retain[*src].is_none() {
                retain[*src] = Some(skip_sizes.len());
                let (len, ch) = fw.shapes[*src];
                skip_sizes.push(len * ch);
            }
        }
    }

    // Walk the chain, tracking each value stream's grid (fractional bits)
    // and worst-case raw magnitude, fusing adjacent pairs where legal.
    let mut grids: Vec<i32> = Vec::with_capacity(fw.nodes.len());
    let mut steps = Vec::new();
    let mut layer_ops = Vec::with_capacity(fw.nodes.len());
    let mut kinds = Vec::with_capacity(fw.nodes.len());
    let mut cur_grid = input_fmt.frac_bits();
    let mut cur_bound = fmt_raw_bound(input_fmt);
    let mut max_elems = fw.input_len * fw.input_channels;
    let mut max_window = 0usize;
    let mut max_rowtmp = 0usize;
    let mut fused_sites = 0u32;

    let mut i = 0;
    while i < fw.nodes.len() {
        let (in_len, in_ch) = if i == 0 {
            (fw.input_len, fw.input_channels)
        } else {
            fw.shapes[i - 1]
        };
        let (out_len, out_ch) = fw.shapes[i];
        let out_elems = out_len * out_ch;
        max_elems = max_elems.max(out_elems);
        match &fw.nodes[i] {
            FwNode::Dense(d) => {
                let c = lower_dense(d, cur_grid, cur_bound, &fw.sigmoid, cfg, simd);
                cur_grid = d.out_quant.format().frac_bits();
                cur_bound = fmt_raw_bound(d.out_quant.format());
                grids.push(cur_grid);
                kinds.push(c.kind);
                layer_ops.push(LayerOps {
                    macs: (d.rows * d.cols) as u64,
                    elements: out_elems as u64,
                });
                steps.push(Step {
                    kernel: StepKernel::Dense(c),
                    node: i,
                    counted: out_elems as u64,
                    out_len,
                    out_ch,
                    retain_slot: retain[i],
                });
                i += 1;
            }
            FwNode::PointwiseDense(d) => {
                let c = lower_dense(d, cur_grid, cur_bound, &fw.sigmoid, cfg, simd);
                cur_grid = d.out_quant.format().frac_bits();
                cur_bound = fmt_raw_bound(d.out_quant.format());
                grids.push(cur_grid);
                kinds.push(c.kind);
                layer_ops.push(LayerOps {
                    macs: (in_len * d.rows * d.cols) as u64,
                    elements: out_elems as u64,
                });
                steps.push(Step {
                    kernel: StepKernel::Pointwise(c),
                    node: i,
                    counted: out_elems as u64,
                    out_len,
                    out_ch,
                    retain_slot: retain[i],
                });
                i += 1;
            }
            FwNode::Conv1d { d, k } => {
                let c = lower_dense(d, cur_grid, cur_bound, &fw.sigmoid, cfg, simd);
                cur_grid = d.out_quant.format().frac_bits();
                cur_bound = fmt_raw_bound(d.out_quant.format());
                grids.push(cur_grid);
                kinds.push(c.kind);
                max_window = max_window.max(k * in_ch);
                // A batch-1 position block is `rows × LANES`, as is one
                // slot of the fused ring below.
                max_rowtmp = max_rowtmp.max(d.rows);
                layer_ops.push(LayerOps {
                    macs: (out_len * d.rows * d.cols) as u64,
                    elements: out_elems as u64,
                });
                let fuse_pool =
                    cfg.fuse && matches!(fw.nodes.get(i + 1), Some(FwNode::MaxPool { .. }));
                if fuse_pool {
                    let FwNode::MaxPool { pool } = &fw.nodes[i + 1] else {
                        unreachable!("guarded by matches! above")
                    };
                    let (p_len, p_ch) = fw.shapes[i + 1];
                    max_elems = max_elems.max(p_len * p_ch);
                    max_rowtmp = max_rowtmp.max(pool * d.rows);
                    fused_sites += 1;
                    // Pool passes grid and bound through untouched.
                    grids.push(cur_grid);
                    kinds.push(KernelKind::Data);
                    layer_ops.push(LayerOps {
                        macs: 0,
                        elements: (p_len * p_ch) as u64,
                    });
                    steps.push(Step {
                        kernel: StepKernel::ConvPool {
                            d: c,
                            k: *k,
                            in_ch,
                            pool: *pool,
                            conv_skip: retain[i],
                        },
                        node: i,
                        counted: out_elems as u64,
                        out_len: p_len,
                        out_ch: p_ch,
                        retain_slot: retain[i + 1],
                    });
                    i += 2;
                } else {
                    steps.push(Step {
                        kernel: StepKernel::Conv { d: c, k: *k, in_ch },
                        node: i,
                        counted: out_elems as u64,
                        out_len,
                        out_ch,
                        retain_slot: retain[i],
                    });
                    i += 1;
                }
            }
            FwNode::MaxPool { pool } => {
                // Grid and bound pass through untouched.
                grids.push(cur_grid);
                kinds.push(KernelKind::Data);
                layer_ops.push(LayerOps {
                    macs: 0,
                    elements: out_elems as u64,
                });
                steps.push(Step {
                    kernel: StepKernel::MaxPool { pool: *pool },
                    node: i,
                    counted: 0,
                    out_len,
                    out_ch,
                    retain_slot: retain[i],
                });
                i += 1;
            }
            FwNode::UpSample { factor } => {
                grids.push(cur_grid);
                kinds.push(KernelKind::Data);
                layer_ops.push(LayerOps {
                    macs: 0,
                    elements: out_elems as u64,
                });
                // Fusable only when the upsample output itself is not a
                // retained skip source (then it must be materialised).
                let fuse_concat = cfg.fuse
                    && retain[i].is_none()
                    && matches!(fw.nodes.get(i + 1), Some(FwNode::ConcatWith { .. }));
                if fuse_concat {
                    let FwNode::ConcatWith {
                        node: src,
                        out_quant,
                    } = &fw.nodes[i + 1]
                    else {
                        unreachable!("guarded by matches! above")
                    };
                    let (c_len, c_ch) = fw.shapes[i + 1];
                    max_elems = max_elems.max(c_len * c_ch);
                    fused_sites += 1;
                    let rq_main = out_quant.requant_from(cur_grid);
                    let rq_skip = out_quant.requant_from(grids[*src]);
                    cur_grid = out_quant.format().frac_bits();
                    cur_bound = fmt_raw_bound(out_quant.format());
                    grids.push(cur_grid);
                    kinds.push(KernelKind::Data);
                    layer_ops.push(LayerOps {
                        macs: 0,
                        elements: (c_len * c_ch) as u64,
                    });
                    steps.push(Step {
                        kernel: StepKernel::Concat {
                            slot: retain[*src].expect("skip source retained"),
                            skip_ch: fw.shapes[*src].1,
                            rq_main,
                            rq_skip,
                            up_factor: *factor,
                        },
                        node: i + 1,
                        counted: (c_len * c_ch) as u64,
                        out_len: c_len,
                        out_ch: c_ch,
                        retain_slot: retain[i + 1],
                    });
                    i += 2;
                } else {
                    steps.push(Step {
                        kernel: StepKernel::UpSample { factor: *factor },
                        node: i,
                        counted: 0,
                        out_len,
                        out_ch,
                        retain_slot: retain[i],
                    });
                    i += 1;
                }
            }
            FwNode::ConcatWith {
                node: src,
                out_quant,
            } => {
                let rq_main = out_quant.requant_from(cur_grid);
                let rq_skip = out_quant.requant_from(grids[*src]);
                cur_grid = out_quant.format().frac_bits();
                cur_bound = fmt_raw_bound(out_quant.format());
                grids.push(cur_grid);
                kinds.push(KernelKind::Data);
                layer_ops.push(LayerOps {
                    macs: 0,
                    elements: out_elems as u64,
                });
                steps.push(Step {
                    kernel: StepKernel::Concat {
                        slot: retain[*src].expect("skip source retained"),
                        skip_ch: fw.shapes[*src].1,
                        rq_main,
                        rq_skip,
                        up_factor: 1,
                    },
                    node: i,
                    counted: out_elems as u64,
                    out_len,
                    out_ch,
                    retain_slot: retain[i],
                });
                i += 1;
            }
            FwNode::BatchNorm {
                scale,
                shift,
                out_quant,
            } => {
                // The folded coefficients are on a weight grid but do not
                // carry their format; recover the coarsest dyadic grid
                // that represents all of them exactly.
                let coeff_frac =
                    dyadic_frac(&scale.iter().chain(shift).copied().collect::<Vec<f64>>());
                let prod_shift = u32::try_from((-cur_grid).max(0)).expect("bounded");
                let shift_shift = u32::try_from(cur_grid.max(0)).expect("bounded");
                let acc_frac = coeff_frac + cur_grid.max(0);
                let to_raw = |v: f64| {
                    let scaled = v * f64::from(coeff_frac).exp2();
                    debug_assert_eq!(scaled.fract(), 0.0);
                    scaled as i64
                };
                let scale_raw: Vec<i64> = scale.iter().map(|&v| to_raw(v)).collect();
                let shift_raw: Vec<i64> = shift
                    .iter()
                    .map(|&v| {
                        i128::from(to_raw(v))
                            .checked_mul(1i128 << shift_shift)
                            .and_then(|s| i64::try_from(s).ok())
                            .expect("shift leaves the f64-exactness domain")
                    })
                    .collect();
                for (s, t) in scale_raw.iter().zip(&shift_raw) {
                    let bound = (i128::from(s.unsigned_abs()) * i128::from(cur_bound))
                        .checked_mul(1i128 << prod_shift)
                        .and_then(|m| m.checked_add(i128::from(t.unsigned_abs())))
                        .unwrap_or(i128::MAX);
                    assert!(
                        bound < EXACT_BOUND,
                        "batchnorm accumulator bound {bound} leaves the \
                         f64-exactness domain"
                    );
                }
                let rq = out_quant.requant_from(acc_frac);
                cur_grid = out_quant.format().frac_bits();
                cur_bound = fmt_raw_bound(out_quant.format());
                grids.push(cur_grid);
                kinds.push(KernelKind::Data);
                layer_ops.push(LayerOps {
                    macs: out_elems as u64,
                    elements: out_elems as u64,
                });
                steps.push(Step {
                    kernel: StepKernel::BatchNorm {
                        scale: scale_raw,
                        shift: shift_raw,
                        prod_shift,
                        rq,
                    },
                    node: i,
                    counted: out_elems as u64,
                    out_len,
                    out_ch,
                    retain_slot: retain[i],
                });
                i += 1;
            }
        }
    }

    let mut mix = KernelMix {
        simd,
        fused: fused_sites,
        ..KernelMix::default()
    };
    for k in &kinds {
        match k {
            KernelKind::Dense => mix.dense += 1,
            KernelKind::DenseMono => mix.mono += 1,
            KernelKind::DenseWide => mix.wide += 1,
            KernelKind::Sparse => mix.sparse += 1,
            KernelKind::Data => mix.data += 1,
        }
    }

    CompiledFirmware {
        input_fmt,
        input_rounding: fw.input_quant.rounding(),
        input_overflow: fw.input_quant.overflow_mode(),
        steps,
        n_nodes: fw.nodes.len(),
        sigmoid: fw.sigmoid.clone(),
        input_len: fw.input_len,
        input_channels: fw.input_channels,
        output_len: fw.output_len(),
        out_lsb: f64::from(-cur_grid).exp2(),
        digest: fw.content_digest(),
        max_elems,
        max_window,
        max_rowtmp,
        skip_sizes,
        layer_ops,
        kinds,
        mix,
    }
}
