//! The lowered inference engine: integer-quanta kernels compiled once from
//! a [`Firmware`], specialised per layer by a build-time planner.
//!
//! The interpreter in [`crate::firmware`] executes every frame the way the
//! *converter* reasons: on-grid `f64` values, a `quantize_dequantize`
//! round-trip per element (float multiply, `exp2`, `floor`, range check),
//! and fresh buffers per layer. [`CompiledFirmware`] lowers the model once
//! and executes whole frames in the integer-quanta domain instead — the
//! same move hls4ml makes when it turns a Keras graph into fixed-point
//! firmware:
//!
//! * weights and biases are pre-converted to raw `i64` quanta on their
//!   `QFormat` grids, biases pre-aligned to the accumulator grid;
//! * every layer-to-layer conversion is folded into a [`Requant`] — one
//!   shift, one precomputed rounding addend, one clamp — instead of the
//!   `f64` round-trip, and the whole-`i64` requant fast path replaces the
//!   `i128` route wherever the lowering bound proves it exact;
//! * each dense-like layer gets a **specialised MAC kernel** chosen once
//!   by the planner ([`PlanConfig`]): weights that are exactly zero after
//!   quantization are pruned into a CSR-by-output-row sparse kernel when
//!   the measured density warrants it, layers whose operands fit `i16`
//!   (every layer of a ⟨16,x⟩ build but an odd-channel conv) multiply in
//!   `i16` pairs with `vpmaddwd`, and AVX2 / AVX-512 instantiations are
//!   selected by runtime feature detection — one runtime-width body per
//!   operand class, lane count and SIMD level, stored as plain function
//!   pointers, so the per-frame path performs no dispatch;
//! * frames execute **batch-major**: up to `LANES` (8) frames travel
//!   together through every layer in a lane-interleaved layout, so one
//!   weight load feeds eight MACs and `batch > 1` *amortises* weight
//!   traffic instead of regressing; a single frame's convs use
//!   **positions as lanes** — eight adjacent output positions through the
//!   same 8-lane kernels (CSR lanes for a sparse layer) — so batch 1
//!   skips zero weights too;
//! * `conv1d → maxpool` and `upsample → concat` chains are fused into
//!   single-pass kernels over the scratch arena — the intermediate tensor
//!   is never materialised;
//! * the sigmoid table is pre-quantized into each consuming layer's output
//!   format at lowering time, so the hot path is a table index plus a load;
//! * all working memory lives in a caller-held [`Scratch`] arena, sized at
//!   lowering time — steady-state [`CompiledFirmware::infer_into`] and
//!   [`CompiledFirmware::infer_batch_into`] perform **zero heap
//!   allocations per frame**.
//!
//! # Why bit-exactness is preserved
//!
//! Every value the interpreter touches is dyadic: `raw · 2^-frac` for an
//! integer `raw` on a known grid. Its `f64` arithmetic is *exact* as long
//! as every intermediate stays below 2⁵² quanta on the common grid (f64
//! holds 53 mantissa bits; one bit of headroom covers the `+0.5` rounding
//! addend). Lowering computes, per layer, a worst-case accumulator bound
//! from the weight raws and the producer format's raw range, and panics if
//! the bound leaves that domain — so wherever a `CompiledFirmware` exists
//! at all, its integer arithmetic and the interpreter's `f64` arithmetic
//! are the *same function*. Every planner choice preserves that function:
//!
//! * **sparsity** prunes only weights whose raw is exactly `0`; a zero raw
//!   contributes an exactly-zero product, and integer addition is
//!   associative and commutative, so skipping it leaves the accumulator
//!   unchanged (the interpreter's `f64` product of a zero weight can be
//!   `-0.0`, but `-0.0` never survives a quantization boundary — it
//!   quantizes to raw `0` and indexes the sigmoid table identically);
//! * **SIMD, batch lanes and position lanes** only reassociate the same
//!   exact integer products, and every position is computed once;
//! * **operand class** changes only the width a product is formed in: an
//!   `i16` pair sum is at most `2·32768·32767 < 2³¹` (inputs `|x| ≤ 2¹⁵`,
//!   weights `|w| ≤ 32767`), so it is exact in `i32` before it is widened
//!   into the `i64` accumulator;
//! * **fusion** reorders *when* elements are computed, never the
//!   arithmetic; positions a pool drops are still computed so overflow
//!   statistics match.
//!
//! Outputs and overflow counts therefore match the interpreter bit for
//! bit on every path — pinned by the kernel conformance suite, the
//! sparse differential proptest, and the golden vectors. DESIGN.md §9 and
//! §13 have the full argument.

mod kernels;
mod planner;

use crate::firmware::{Firmware, FwNode, InferenceStats};
use kernels::{call_rows, fused, stage, CDense, Windows};
use reads_fixed::{Fx, Overflow, OverflowStats, QFormat, Requant, Rounding};
use reads_tensor::activ::SigmoidTable;
use serde::{Deserialize, Serialize};

/// Largest accumulator magnitude (in quanta) for which the interpreter's
/// `f64` arithmetic is still exact — the domain in which lowering is valid.
const EXACT_BOUND: i128 = 1 << 52;

/// Frames per batch-major lane pass. The driver is monomorphised for lane
/// counts 1 and `LANES`; batches execute in groups of `LANES` with a
/// one-frame remainder loop.
pub(crate) const LANES: usize = 8;

/// Per-node work counts, recorded at lowering time — the substrate the
/// resource and latency estimators can read instead of re-deriving shapes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerOps {
    /// Multiply-accumulate operations per frame (0 for pure data movement).
    pub macs: u64,
    /// Output elements produced per frame.
    pub elements: u64,
}

/// SIMD instruction-set level a plan's MAC kernels are instantiated for.
/// Purely a codegen choice — every level computes bit-identical results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SimdLevel {
    /// Portable scalar bodies (LLVM may still autovectorize for the
    /// baseline target).
    #[default]
    Scalar,
    /// 256-bit AVX2 instantiations.
    Avx2,
    /// 512-bit AVX-512 (F/BW/DQ/VL) instantiations.
    Avx512,
}

/// Requested SIMD ceiling for a plan. The request is a *cap*, not a
/// promise: it is clamped to what runtime detection finds on this CPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimdPref {
    /// Use the best level the CPU supports.
    #[default]
    Auto,
    /// Force the portable scalar instantiations.
    Scalar,
    /// Cap at AVX2 even if AVX-512 is available.
    Avx2,
    /// Allow up to AVX-512.
    Avx512,
}

/// How the planner decides between sparse and dense MAC kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SparsityPolicy {
    /// Choose per layer by measured post-quantization density against
    /// [`PlanConfig::density_threshold`].
    #[default]
    Auto,
    /// Always lower the dense kernel.
    ForceDense,
    /// Always lower the CSR kernel (useful for conformance testing).
    ForceSparse,
}

/// Which kernel family the planner selected for a node. The operand
/// class a dense-like node multiplies in is orthogonal to it; see
/// [`KernelMix::pairs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelKind {
    /// Dense MAC in the `i16`-pair or the `i32` family.
    Dense,
    /// Wide (`i64`) dense fallback.
    DenseWide,
    /// CSR-by-output-row sparse MAC over exactly-zero-pruned weights.
    Sparse,
    /// Pure data movement / elementwise (pool, upsample, concat,
    /// batch-norm).
    Data,
}

/// Summary of the planner's choices for one compiled firmware — surfaced
/// on the operator console so a fleet shows *which* kernels it is running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelMix {
    /// Nodes on the narrow (`i16`-pair or `i32`) dense kernel.
    pub dense: u32,
    /// Always 0. Kept only because the benchmark's layer ledger
    /// (`benchmark/src/layers.rs`) reads it; the two go together.
    pub mono: u32,
    /// Nodes on the wide (`i64`) fallback kernel.
    pub wide: u32,
    /// Nodes on the CSR sparse kernel.
    pub sparse: u32,
    /// Dense-like nodes whose MACs run on the i16-pair (`vpmaddwd`)
    /// family. Operand class is orthogonal to the kernel kind: these
    /// nodes are also counted in `dense`.
    pub pairs: u32,
    /// Fusion sites (`conv→pool`, `upsample→concat`) collapsed into
    /// single-pass kernels.
    pub fused: u32,
    /// Pure data-movement nodes.
    pub data: u32,
    /// SIMD level every MAC instantiation was selected for.
    pub simd: SimdLevel,
}

/// Build-time planning knobs for [`CompiledFirmware::lower_with`]. Every
/// setting changes speed only — outputs, statistics, and the content
/// digest are invariant across all plans (pinned by the conformance
/// suite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanConfig {
    /// SIMD ceiling (clamped to runtime detection).
    pub simd: SimdPref,
    /// Sparse-vs-dense kernel policy.
    pub sparsity: SparsityPolicy,
    /// Density at or below which [`SparsityPolicy::Auto`] picks the sparse
    /// kernel. The default, 0.4, sits above the measured crossover: with
    /// dense layers on i16 pairs, CSR beats them on the batch-1 U-Net only
    /// below a density of about 0.3 (`inference_hotpath`'s crossover
    /// sweep), and loses at 0.35 and 0.5. It stays above 0.35 because the
    /// 35 %-density golden fixtures pin that they lower to CSR kernels.
    pub density_threshold: f64,
    /// Fuse `conv1d→maxpool` and `upsample→concat` chains.
    pub fuse: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            simd: SimdPref::Auto,
            sparsity: SparsityPolicy::Auto,
            density_threshold: 0.4,
            fuse: true,
        }
    }
}

/// One lowered execution step (one node, or a fused pair of nodes).
#[derive(Debug, Clone)]
enum StepKernel {
    Dense(CDense),
    Pointwise(CDense),
    Conv {
        d: CDense,
        k: usize,
        in_ch: usize,
    },
    /// Fused `conv1d → maxpool`: conv rows stream through a ring and are
    /// max-reduced in place; `conv_skip` retains the full conv output when
    /// a later concat needs it.
    ConvPool {
        d: CDense,
        k: usize,
        in_ch: usize,
        pool: usize,
        conv_skip: Option<usize>,
    },
    MaxPool {
        pool: usize,
    },
    UpSample {
        factor: usize,
    },
    /// Concat, optionally fused with the preceding upsample
    /// (`up_factor > 1` reads main channels from the upsample *input*).
    Concat {
        slot: usize,
        skip_ch: usize,
        rq_main: Requant,
        rq_skip: Requant,
        up_factor: usize,
    },
    BatchNorm {
        scale: Vec<i64>,
        shift: Vec<i64>,
        prod_shift: u32,
        rq: Requant,
    },
}

#[derive(Debug, Clone)]
struct Step {
    kernel: StepKernel,
    /// Node index whose statistics slot this step reports into (fused
    /// steps report on their primary quantizing node; the partner node's
    /// slot stays zero, matching the interpreter).
    node: usize,
    /// Quantization events per lane this step contributes to `node`.
    counted: u64,
    out_len: usize,
    out_ch: usize,
    /// When set, a copy of this step's output raws is retained in
    /// `Scratch::skips[slot]` for a later concat.
    retain_slot: Option<usize>,
}

/// Per-lane staging sizes by operand class, recorded at lowering so
/// [`Scratch`] holds only the buffers some layer reads: staged inputs of
/// the i32 (`x32`, columns) and pair (`x16`, column pairs) layers, and
/// conv windows per class (columns, or pairs for `win16`).
#[derive(Debug, Clone, Copy, Default)]
struct StageSizes {
    x32: usize,
    x16: usize,
    win64: usize,
    win32: usize,
    win16: usize,
}

/// Reusable working memory for the compiled engine: lane-interleaved
/// ping-pong layer buffers, retained skip-connection buffers, conv window
/// and fusion ring staging, `i32` and `i16`-pair input staging, the
/// dequantized output frames, and the statistics block — everything a
/// batch touches, sized once by [`CompiledFirmware::scratch`].
#[derive(Debug, Clone)]
pub struct Scratch {
    a: Vec<i64>,
    b: Vec<i64>,
    /// Conv border-window and position-lane staging, per operand class.
    win: Windows,
    /// Layer-input staging for the `i32` widening-MAC and CSR kernels.
    x32: Vec<i32>,
    /// Layer-input staging for the `i16`-pair kernels, `[pair][lane]`.
    x16: Vec<[i16; 2]>,
    /// `pool × channels × LANES` ring for the fused conv→pool kernel, and
    /// the `channels × LANES` position block of a batch-1 conv.
    rowtmp: Vec<i64>,
    skips: Vec<Vec<i64>>,
    out: Vec<f64>,
    stats: InferenceStats,
}

impl Scratch {
    fn reset_stats(&mut self) {
        self.stats.input = OverflowStats::default();
        for s in &mut self.stats.per_node {
            *s = OverflowStats::default();
        }
    }
}

/// A zeroed scratch buffer. One out-of-line allocation site per element
/// type, so the zeroed allocation reaches the allocator as `calloc`: a
/// buffer sized for eight lanes but driven at one keeps its untouched
/// pages unmapped.
#[inline(never)]
fn zeroed<T: Clone + Default>(n: usize) -> Vec<T> {
    vec![T::default(); n]
}

/// A [`Firmware`] lowered into planner-specialised integer-quanta kernels.
///
/// Construct with [`CompiledFirmware::lower`] (default plan) or
/// [`CompiledFirmware::lower_with`]; execute with
/// [`CompiledFirmware::infer_into`] /
/// [`CompiledFirmware::infer_batch_into`] (allocation-free) or the
/// convenience wrappers [`CompiledFirmware::infer`] /
/// [`CompiledFirmware::infer_batch`] (which allocate only for their
/// returned values). Outputs and [`InferenceStats`] are bit-identical to
/// the interpreter's on every plan.
#[derive(Debug, Clone)]
pub struct CompiledFirmware {
    input_fmt: QFormat,
    input_rounding: Rounding,
    input_overflow: Overflow,
    steps: Vec<Step>,
    /// Source node count (fused steps cover two nodes each).
    n_nodes: usize,
    sigmoid: SigmoidTable,
    input_len: usize,
    input_channels: usize,
    output_len: usize,
    /// Quantum value of the final node's grid (dequantizes the output).
    out_lsb: f64,
    digest: u64,
    max_elems: usize,
    stage_sizes: StageSizes,
    /// Largest conv `rows` (× `pool` when fused): `rowtmp` is this × `LANES`.
    max_rowtmp: usize,
    skip_sizes: Vec<usize>,
    layer_ops: Vec<LayerOps>,
    mix: KernelMix,
}

impl CompiledFirmware {
    /// Lowers a converted firmware with the default plan (auto SIMD, auto
    /// sparsity, fusion on).
    ///
    /// # Panics
    /// Panics if a parameter is off-grid or a layer's worst-case
    /// accumulator leaves the `f64`-exactness domain (in which case the
    /// interpreter's own arithmetic would be inexact and no bit-identical
    /// lowering exists). Neither occurs for firmware produced by
    /// [`crate::convert()`] with the paper's precision strategies.
    #[must_use]
    pub fn lower(fw: &Firmware) -> Self {
        Self::lower_with(fw, &PlanConfig::default())
    }

    /// Lowers with an explicit [`PlanConfig`]. All plans compute the same
    /// function; the config only selects which kernels compute it.
    ///
    /// # Panics
    /// As [`CompiledFirmware::lower`].
    #[must_use]
    pub fn lower_with(fw: &Firmware, cfg: &PlanConfig) -> Self {
        planner::lower_with(fw, cfg)
    }

    /// Builds a [`Scratch`] arena sized for this firmware. Reuse one per
    /// thread; frames executed through it never allocate.
    #[must_use]
    pub fn scratch(&self) -> Scratch {
        Scratch {
            a: zeroed(self.max_elems * LANES),
            b: zeroed(self.max_elems * LANES),
            win: Windows {
                w64: zeroed(self.stage_sizes.win64 * LANES),
                w32: zeroed(self.stage_sizes.win32 * LANES),
                w16: zeroed(self.stage_sizes.win16 * LANES),
            },
            x32: zeroed(self.stage_sizes.x32 * LANES),
            x16: zeroed(self.stage_sizes.x16 * LANES),
            rowtmp: zeroed(self.max_rowtmp * LANES),
            skips: self.skip_sizes.iter().map(|&n| zeroed(n * LANES)).collect(),
            out: zeroed(self.output_len * LANES),
            stats: InferenceStats {
                input: OverflowStats::default(),
                per_node: vec![OverflowStats::default(); self.n_nodes],
            },
        }
    }

    /// Executes `L` frames through every step in the lane-interleaved
    /// layout (element `e` of lane `l` lives at `buf[e*L + l]`), and
    /// *accumulates* statistics into the scratch block. The caller resets
    /// stats once per logical batch.
    fn run_lanes<const L: usize>(&self, frames: &[&[f64]], scratch: &mut Scratch) {
        debug_assert_eq!(frames.len(), L);
        let Scratch {
            a,
            b,
            win,
            x32,
            x16,
            rowtmp,
            skips,
            out,
            stats,
        } = scratch;

        // Input quantization: the only stage that consumes arbitrary
        // floats, so it pays the full from_f64 conversion per element.
        let n_in = self.input_len * self.input_channels;
        let mut ovf = 0u64;
        for e in 0..n_in {
            for (l, f) in frames.iter().enumerate() {
                let (fx, o) = Fx::from_f64(
                    f[e],
                    self.input_fmt,
                    self.input_rounding,
                    self.input_overflow,
                );
                a[e * L + l] = fx.raw();
                ovf += u64::from(o);
            }
        }
        stats.input.total += (n_in * L) as u64;
        stats.input.overflows += ovf;

        let mut cur_elems = n_in;
        let mut cur_len = self.input_len;
        for step in &self.steps {
            let out_elems = step.out_len * step.out_ch;
            let mut ovf = 0u64;
            {
                let (src, dst) = (&a[..cur_elems * L], &mut b[..out_elems * L]);
                match &step.kernel {
                    StepKernel::Dense(d) => {
                        let xs = stage::<L>(d, src, d.cols, x32, x16);
                        call_rows::<L>(d, &self.sigmoid, xs, dst, &mut ovf);
                    }
                    StepKernel::Pointwise(d) => {
                        let xs = stage::<L>(d, src, d.cols, x32, x16);
                        let w = d.staged_cols();
                        for (pos, o) in dst.chunks_exact_mut(d.rows * L).enumerate() {
                            let x = xs.cols::<L>(pos * w, w);
                            call_rows::<L>(d, &self.sigmoid, x, o, &mut ovf);
                        }
                    }
                    StepKernel::Conv { d, k, in_ch } => {
                        let xs = stage::<L>(d, src, *in_ch, x32, x16);
                        fused::run_conv::<L>(
                            d,
                            &self.sigmoid,
                            *k,
                            *in_ch,
                            cur_len,
                            xs,
                            win,
                            rowtmp,
                            dst,
                            &mut ovf,
                        );
                    }
                    StepKernel::ConvPool {
                        d,
                        k,
                        in_ch,
                        pool,
                        conv_skip,
                    } => {
                        let xs = stage::<L>(d, src, *in_ch, x32, x16);
                        fused::run_conv_pool::<L>(
                            d,
                            &self.sigmoid,
                            *k,
                            *in_ch,
                            cur_len,
                            *pool,
                            xs,
                            win,
                            rowtmp,
                            conv_skip.map(|s| skips[s].as_mut_slice()),
                            dst,
                            &mut ovf,
                        );
                    }
                    StepKernel::MaxPool { pool } => {
                        // Monotone raw→value map: the integer argmax is the
                        // f64 argmax. No quantization, no stats.
                        let ch = step.out_ch;
                        for (opos, o) in dst.chunks_exact_mut(ch * L).enumerate() {
                            for c in 0..ch {
                                for l in 0..L {
                                    let mut best = i64::MIN;
                                    for off in 0..*pool {
                                        best =
                                            best.max(src[((opos * pool + off) * ch + c) * L + l]);
                                    }
                                    o[c * L + l] = best;
                                }
                            }
                        }
                    }
                    StepKernel::UpSample { factor } => {
                        let ch = step.out_ch;
                        for (pos, xs) in src.chunks_exact(ch * L).enumerate() {
                            for rep in 0..*factor {
                                let at = (pos * factor + rep) * ch * L;
                                dst[at..at + ch * L].copy_from_slice(xs);
                            }
                        }
                    }
                    StepKernel::Concat {
                        slot,
                        skip_ch,
                        rq_main,
                        rq_skip,
                        up_factor,
                    } => {
                        fused::run_concat::<L>(
                            src,
                            &skips[*slot],
                            step.out_len,
                            step.out_ch,
                            *skip_ch,
                            *up_factor,
                            rq_main,
                            rq_skip,
                            dst,
                            &mut ovf,
                        );
                    }
                    StepKernel::BatchNorm {
                        scale,
                        shift,
                        prod_shift,
                        rq,
                    } => {
                        let ch = step.out_ch;
                        for (xs, o) in src.chunks_exact(ch * L).zip(dst.chunks_exact_mut(ch * L)) {
                            for c in 0..ch {
                                for l in 0..L {
                                    let acc = ((xs[c * L + l] * scale[c]) << prod_shift) + shift[c];
                                    let (y, ov) = rq.apply_i64(acc);
                                    o[c * L + l] = y;
                                    ovf += u64::from(ov);
                                }
                            }
                        }
                    }
                }
            }
            stats.per_node[step.node].total += step.counted * L as u64;
            stats.per_node[step.node].overflows += ovf;
            if let Some(slot) = step.retain_slot {
                skips[slot][..out_elems * L].copy_from_slice(&b[..out_elems * L]);
            }
            std::mem::swap(a, b);
            cur_elems = out_elems;
            cur_len = step.out_len;
        }

        // Dequantize planar: lane l's frame occupies out[l*ol .. (l+1)*ol].
        let ol = self.output_len;
        for l in 0..L {
            for j in 0..ol {
                out[l * ol + j] = a[j * L + l] as f64 * self.out_lsb;
            }
        }
    }

    /// Runs one frame entirely inside `scratch` — the zero-allocation hot
    /// path. Returns the dequantized outputs and this frame's statistics,
    /// both living in the scratch arena. Bit-identical to
    /// [`Firmware::infer`].
    ///
    /// # Panics
    /// Panics if the input length mismatches or `scratch` was built for a
    /// different firmware.
    pub fn infer_into<'s>(
        &self,
        input: &[f64],
        scratch: &'s mut Scratch,
    ) -> (&'s [f64], &'s InferenceStats) {
        assert_eq!(
            input.len(),
            self.input_elems(),
            "compiled firmware input length"
        );
        assert_eq!(
            scratch.stats.per_node.len(),
            self.n_nodes,
            "scratch built for a different firmware"
        );
        scratch.reset_stats();
        self.run_lanes::<1>(&[input], scratch);
        (&scratch.out[..self.output_len], &scratch.stats)
    }

    /// Batch inference through the lane-interleaved batch-major path:
    /// frames execute in groups of `LANES` (8, one weight load feeding
    /// every lane) with a one-frame remainder loop, entirely inside
    /// `scratch` — zero allocations. Dequantized frames land
    /// back-to-back in `out`; the returned statistics are the batch
    /// merge, bit-identical to running the frames sequentially through
    /// [`Firmware::infer_batch`].
    ///
    /// # Panics
    /// Panics if a frame length mismatches, `out` is not
    /// `frames.len() * output_len` long, or `scratch` was built for a
    /// different firmware.
    pub fn infer_batch_into<'s>(
        &self,
        frames: &[&[f64]],
        scratch: &'s mut Scratch,
        out: &mut [f64],
    ) -> &'s InferenceStats {
        let ol = self.output_len;
        assert_eq!(out.len(), frames.len() * ol, "batch output buffer length");
        for f in frames {
            assert_eq!(
                f.len(),
                self.input_elems(),
                "compiled firmware input length"
            );
        }
        assert_eq!(
            scratch.stats.per_node.len(),
            self.n_nodes,
            "scratch built for a different firmware"
        );
        scratch.reset_stats();
        let mut done = 0;
        while frames.len() - done >= LANES {
            self.run_lanes::<LANES>(&frames[done..done + LANES], scratch);
            out[done * ol..(done + LANES) * ol].copy_from_slice(&scratch.out[..LANES * ol]);
            done += LANES;
        }
        for f in &frames[done..] {
            self.run_lanes::<1>(std::slice::from_ref(f), scratch);
            out[done * ol..(done + 1) * ol].copy_from_slice(&scratch.out[..ol]);
            done += 1;
        }
        &scratch.stats
    }

    /// Runs one frame with a throwaway scratch — convenience for tests and
    /// cold paths; the hot path is [`CompiledFirmware::infer_into`].
    ///
    /// # Panics
    /// Panics if the input length mismatches.
    #[must_use]
    pub fn infer(&self, input: &[f64]) -> (Vec<f64>, InferenceStats) {
        let mut scratch = self.scratch();
        let (y, stats) = self.infer_into(input, &mut scratch);
        (y.to_vec(), stats.clone())
    }

    /// Batch inference through one throwaway scratch, merging statistics —
    /// bit-identical to [`Firmware::infer_batch`]. Allocates only for the
    /// returned frames.
    ///
    /// # Panics
    /// Panics if any input length mismatches.
    #[must_use]
    pub fn infer_batch(&self, inputs: &[Vec<f64>]) -> (Vec<Vec<f64>>, InferenceStats) {
        let mut scratch = self.scratch();
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let mut flat = vec![0.0; inputs.len() * self.output_len];
        let stats = self
            .infer_batch_into(&refs, &mut scratch, &mut flat)
            .clone();
        let outs = flat
            .chunks_exact(self.output_len.max(1))
            .map(<[f64]>::to_vec)
            .collect();
        (outs, stats)
    }

    /// The source firmware's content digest (see
    /// [`Firmware::content_digest`]) — lowering is content-preserving on
    /// *every* plan, so the digest pins this engine's outputs regardless
    /// of kernel selection.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        self.digest
    }

    /// Flattened input length.
    #[must_use]
    pub fn input_elems(&self) -> usize {
        self.input_len * self.input_channels
    }

    /// Flattened output length.
    #[must_use]
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Per-node work counts recorded at lowering time.
    #[must_use]
    pub fn layer_ops(&self) -> &[LayerOps] {
        &self.layer_ops
    }

    /// Total MACs per frame across all nodes.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layer_ops.iter().map(|o| o.macs).sum()
    }

    /// The planner's kernel selection summary for this firmware.
    #[must_use]
    pub fn kernel_mix(&self) -> KernelMix {
        self.mix
    }
}

/// Prunes a firmware's MAC weights to a target `density`, deterministic in
/// `seed`: each Dense / PointwiseDense / Conv1d weight is kept with
/// probability `density` and otherwise set to exactly `0.0` (on every
/// grid). Models the exact-zero structure hls4ml pruning produces, for
/// the sparse kernel's differential and golden suites. The result is a
/// *different* model (different digest); the bit-exactness contract ties
/// its compiled plans to its own interpreter.
#[must_use]
pub fn sparsify_firmware(fw: &Firmware, density: f64, seed: u64) -> Firmware {
    let mut out = fw.clone();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for node in &mut out.nodes {
        let d = match node {
            FwNode::Dense(d) | FwNode::PointwiseDense(d) | FwNode::Conv1d { d, .. } => d,
            _ => continue,
        };
        for w in &mut d.weights {
            if next() >= density {
                *w = 0.0;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HlsConfig;
    use crate::firmware::InferenceStats;
    use crate::{convert, profile_model};
    use reads_nn::models;

    fn synth_frame(n: usize, seed: u64) -> Vec<f64> {
        // Same synthesis as the golden-vector suite: deterministic, mixes
        // smooth structure with pseudo-random jitter and outliers.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                let smooth = (t * 12.57).sin() * 1.5 + (t * 40.0).cos() * 0.4;
                let jitter = next() * 2.0 - 1.0;
                let spike = if next() > 0.97 { next() * 30.0 } else { 0.0 };
                smooth + jitter + spike
            })
            .collect()
    }

    fn build(model: &reads_nn::Model, seed: u64) -> Firmware {
        let (len, ch) = model.input_shape();
        let n = len * ch;
        let frames: Vec<Vec<f64>> = (0..3).map(|i| synth_frame(n, seed + i)).collect();
        let profile = profile_model(model, &frames);
        convert(model, &profile, &HlsConfig::paper_default())
    }

    fn assert_identical(fw: &Firmware, cf: &CompiledFirmware, frame: &[f64]) {
        let (want, want_stats) = fw.infer(frame);
        let (got, got_stats) = cf.infer(frame);
        assert_eq!(want.len(), got.len());
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "output {i}: {w} vs {g}");
        }
        assert_eq!(want_stats, got_stats, "stats diverge");
    }

    #[test]
    fn mlp_matches_interpreter_bit_for_bit() {
        let fw = build(&models::reads_mlp(11), 5);
        let cf = CompiledFirmware::lower(&fw);
        for s in 0..4 {
            assert_identical(
                &fw,
                &cf,
                &synth_frame(fw.input_len * fw.input_channels, 100 + s),
            );
        }
    }

    #[test]
    fn unet_matches_interpreter_bit_for_bit() {
        let fw = build(&models::reads_unet(11), 9);
        let cf = CompiledFirmware::lower(&fw);
        for s in 0..3 {
            assert_identical(
                &fw,
                &cf,
                &synth_frame(fw.input_len * fw.input_channels, 400 + s),
            );
        }
    }

    #[test]
    fn overflowing_frames_count_identically() {
        // Amplified inputs force input and inner-layer overflows; the
        // compiled engine must reproduce every count — including for
        // conv positions the fused pool discards.
        let fw = build(&models::reads_unet(3), 21);
        let cf = CompiledFirmware::lower(&fw);
        let frame: Vec<f64> = synth_frame(fw.input_len * fw.input_channels, 77)
            .into_iter()
            .map(|v| v * 900.0)
            .collect();
        let (_, stats) = fw.infer(&frame);
        assert!(stats.total_overflows() > 0, "test frame must overflow");
        assert_identical(&fw, &cf, &frame);
    }

    #[test]
    fn batch_matches_interpreter() {
        let fw = build(&models::reads_mlp(2), 31);
        let cf = CompiledFirmware::lower(&fw);
        let inputs: Vec<Vec<f64>> = (0..5)
            .map(|s| synth_frame(fw.input_len * fw.input_channels, 900 + s))
            .collect();
        let (want, want_stats) = fw.infer_batch(&inputs);
        let (got, got_stats) = cf.infer_batch(&inputs);
        assert_eq!(want, got);
        assert_eq!(want_stats, got_stats);
    }

    #[test]
    fn batch_crossing_lane_boundary_matches() {
        // 11 frames: one full 8-lane pass plus a 3-frame remainder — the
        // batch-major path and the remainder loop must agree with the
        // sequential interpreter on outputs and merged stats.
        for (fw, label) in [
            (build(&models::reads_mlp(6), 41), "mlp"),
            (build(&models::reads_unet(6), 42), "unet"),
        ] {
            let cf = CompiledFirmware::lower(&fw);
            let inputs: Vec<Vec<f64>> = (0..11)
                .map(|s| synth_frame(fw.input_len * fw.input_channels, 700 + s))
                .collect();
            let (want, want_stats) = fw.infer_batch(&inputs);
            let (got, got_stats) = cf.infer_batch(&inputs);
            assert_eq!(want, got, "{label} batch outputs diverge");
            assert_eq!(want_stats, got_stats, "{label} batch stats diverge");
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // The pruned U-Net runs its convs as position lanes at batch 1, so
        // the block buffers and the pool ring are reused here too.
        for (fw, label) in [
            (build(&models::reads_mlp(7), 1), "mlp"),
            (
                sparsify_firmware(&build(&models::reads_unet(7), 1), 0.25, 5),
                "unet d=0.25",
            ),
        ] {
            let cf = CompiledFirmware::lower(&fw);
            let a = synth_frame(fw.input_len * fw.input_channels, 10);
            let b = synth_frame(fw.input_len * fw.input_channels, 11);
            let mut scratch = cf.scratch();
            let first_a: (Vec<f64>, InferenceStats) = {
                let (y, s) = cf.infer_into(&a, &mut scratch);
                (y.to_vec(), s.clone())
            };
            let _ = cf.infer_into(&b, &mut scratch);
            let again_a: (Vec<f64>, InferenceStats) = {
                let (y, s) = cf.infer_into(&a, &mut scratch);
                (y.to_vec(), s.clone())
            };
            assert_eq!(
                first_a, again_a,
                "{label}: scratch must carry no state across frames"
            );
            assert_identical(&fw, &cf, &a);
        }
    }

    #[test]
    fn digest_is_preserved_from_source() {
        let fw = build(&models::reads_mlp(4), 2);
        assert_eq!(
            CompiledFirmware::lower(&fw).content_digest(),
            fw.content_digest()
        );
    }

    #[test]
    fn digest_is_invariant_across_plans() {
        let fw = build(&models::reads_mlp(9), 14);
        for sparsity in [
            SparsityPolicy::Auto,
            SparsityPolicy::ForceDense,
            SparsityPolicy::ForceSparse,
        ] {
            for simd in [SimdPref::Scalar, SimdPref::Auto] {
                let cf = CompiledFirmware::lower_with(
                    &fw,
                    &PlanConfig {
                        simd,
                        sparsity,
                        ..PlanConfig::default()
                    },
                );
                assert_eq!(cf.content_digest(), fw.content_digest());
            }
        }
    }

    #[test]
    fn sparse_firmware_matches_its_interpreter() {
        let fw = sparsify_firmware(&build(&models::reads_mlp(5), 13), 0.35, 99);
        let cf = CompiledFirmware::lower(&fw);
        assert!(
            cf.kernel_mix().sparse > 0,
            "a 35%-dense MLP must select sparse kernels, got {:?}",
            cf.kernel_mix()
        );
        for s in 0..3 {
            assert_identical(
                &fw,
                &cf,
                &synth_frame(fw.input_len * fw.input_channels, 550 + s),
            );
        }
    }

    #[test]
    fn every_plan_computes_the_same_function() {
        // The full forced matrix: SIMD cap × sparsity policy × fusion.
        // Kernel selection must be unobservable in outputs and stats.
        let fw = build(&models::reads_unet(4), 8);
        let frame = synth_frame(fw.input_len * fw.input_channels, 55);
        let (want, want_stats) = fw.infer(&frame);
        for simd in [
            SimdPref::Scalar,
            SimdPref::Avx2,
            SimdPref::Avx512,
            SimdPref::Auto,
        ] {
            for sparsity in [
                SparsityPolicy::Auto,
                SparsityPolicy::ForceDense,
                SparsityPolicy::ForceSparse,
            ] {
                for fuse in [false, true] {
                    let cfg = PlanConfig {
                        simd,
                        sparsity,
                        fuse,
                        ..PlanConfig::default()
                    };
                    let cf = CompiledFirmware::lower_with(&fw, &cfg);
                    let (got, got_stats) = cf.infer(&frame);
                    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                        assert_eq!(
                            w.to_bits(),
                            g.to_bits(),
                            "output {i} diverges under {cfg:?}"
                        );
                    }
                    assert_eq!(want_stats, got_stats, "stats diverge under {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn kernel_mix_reports_fusion_and_families() {
        let fw = build(&models::reads_unet(5), 12);
        let cf = CompiledFirmware::lower(&fw);
        let mix = cf.kernel_mix();
        // reads_unet: conv→pool twice and upsample→concat twice.
        assert_eq!(mix.fused, 4, "unexpected fusion count: {mix:?}");
        assert_eq!(mix.data, 6, "pools + upsamples + concats: {mix:?}");
        assert_eq!(mix.mono, 0, "no kernel is width-monomorphised: {mix:?}");
        assert_eq!(
            (mix.dense + mix.wide + mix.sparse + mix.data) as usize,
            fw.nodes.len(),
            "every node carries a kernel kind"
        );
        // Every dense-like node but the single-channel input conv (odd
        // in_ch) runs i16 pairs; that conv runs the i32 dense body.
        assert_eq!(mix.pairs, 5, "pair layers: {mix:?}");
        assert_eq!(mix.dense, 6, "pair and i32 layers are dense: {mix:?}");
        let [uniform_18_10, ..] = crate::PrecisionStrategy::table2_rows();
        let wide = convert(
            &models::reads_unet(5),
            &profile_model(&models::reads_unet(5), &[synth_frame(260, 12)]),
            &HlsConfig::with_strategy(uniform_18_10),
        );
        let wide_mix = CompiledFirmware::lower(&wide).kernel_mix();
        assert_eq!(
            wide_mix.pairs, 0,
            "18-bit raws never fit pairs: {wide_mix:?}"
        );
        assert_eq!(wide_mix.dense, 6);
        let unfused = CompiledFirmware::lower_with(
            &fw,
            &PlanConfig {
                fuse: false,
                ..PlanConfig::default()
            },
        );
        assert_eq!(unfused.kernel_mix().fused, 0);
    }

    #[test]
    fn layer_ops_cover_every_node() {
        let fw = build(&models::reads_unet(5), 3);
        let cf = CompiledFirmware::lower(&fw);
        assert_eq!(cf.layer_ops().len(), fw.nodes.len());
        assert!(cf.total_macs() > 1_000_000, "U-Net is MAC-heavy");
        // Dense-like nodes carry MACs; pool/upsample are pure data movement.
        for (ops, node) in cf.layer_ops().iter().zip(&fw.nodes) {
            match node {
                FwNode::MaxPool { .. } | FwNode::UpSample { .. } => assert_eq!(ops.macs, 0),
                FwNode::ConcatWith { .. } => assert_eq!(ops.macs, 0),
                _ => assert!(ops.macs > 0),
            }
            assert!(ops.elements > 0);
        }
    }

    #[test]
    fn shapes_and_lengths_agree() {
        let fw = build(&models::reads_unet(6), 4);
        let cf = CompiledFirmware::lower(&fw);
        assert_eq!(cf.input_elems(), fw.input_len * fw.input_channels);
        assert_eq!(cf.output_len(), fw.output_len());
    }
}
