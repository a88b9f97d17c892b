//! Specialised MAC kernel families for the compiled engine.
//!
//! Every family funnels into the same `#[inline(always)]` generic bodies,
//! monomorphised over the lane count `L` (frames per pass) and — for the
//! dense family — the column width `C` (`0` = runtime width). The planner
//! picks one concrete instantiation per layer at build time and stores it
//! as a plain function pointer, so the per-frame hot path performs no
//! dispatch at all. Bit-exactness across every family rests on one fact:
//! all of them compute the *same multiset* of exact integer products per
//! output and integer addition is associative and commutative, so any
//! accumulation order (row-major scalar, SIMD lanes, CSR-skipping zeros)
//! yields the identical `i64` accumulator.

pub(crate) mod dense;
pub(crate) mod fused;
pub(crate) mod sparse;

use super::KernelKind;
use reads_fixed::Requant;
use reads_tensor::activ::SigmoidTable;

/// Fused activation + requantization stage of a dense-like kernel.
#[derive(Debug, Clone)]
pub(crate) enum CAct {
    /// Requantize the accumulator as-is.
    Linear(Requant),
    /// Clamp the accumulator at zero, then requantize.
    Relu(Requant),
    /// Index the pre-quantized sigmoid table.
    Sigmoid {
        /// `(raw, overflowed)` per table entry, quantized into the layer's
        /// output format at lowering time.
        lut: Vec<(i64, bool)>,
        /// Exact value of one accumulator quantum (a power of two), used to
        /// reproduce the interpreter's `f64` table addressing bit for bit.
        acc_lsb: f64,
    },
}

/// CSR-by-output-row storage of the exactly-zero-pruned weight matrix.
/// Indices are `u32` (the paper's layers are far below 2³² weights).
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    /// `rows + 1` offsets into `idx`/`w`.
    pub row_ptr: Vec<u32>,
    /// Column index per retained weight.
    pub idx: Vec<u32>,
    /// Retained (nonzero) weights, narrowed.
    pub w: Vec<i32>,
}

/// A lowered dense-like kernel (dense / pointwise / conv im2col view) with
/// its build-time-selected MAC instantiations.
#[derive(Debug, Clone)]
pub(crate) struct CDense {
    /// Raw weights, row-major `rows × cols`; kept only for the wide
    /// fallback ([`KernelKind::DenseWide`]), empty otherwise.
    pub w: Vec<i64>,
    /// Narrowed weights, row-major; empty when a weight or the layer's
    /// worst-case input raw exceeds `i32` (never for the paper's ≤18-bit
    /// formats).
    pub w32: Vec<i32>,
    /// Pruned structured-sparse form, present when the planner chose the
    /// sparse kernel for this layer.
    pub csr: Option<Csr>,
    /// Raw biases, pre-shifted onto the accumulator grid.
    pub b: Vec<i64>,
    pub rows: usize,
    pub cols: usize,
    /// Left shift applied to the MAC sum to reach the accumulator grid.
    pub prod_shift: u32,
    pub act: CAct,
    /// Which kernel family the planner selected.
    pub kind: KernelKind,
    /// One-frame (`L = 1`) instantiation, chosen once at build.
    pub rows1: RowsFn,
    /// Eight-frame (`L = 8`) batch-major instantiation.
    pub rows8: RowsFn,
}

impl CDense {
    /// Whether the narrow (`i32` widening MAC) path is available.
    #[inline(always)]
    pub fn narrow(&self) -> bool {
        !self.w32.is_empty()
    }
}

/// Signature every MAC instantiation shares: lane-interleaved inputs
/// (`x64` for the wide family, `x32` for narrow/sparse — the unused one is
/// empty), lane-interleaved outputs (`rows × L`), and an overflow-event
/// accumulator.
pub(crate) type RowsFn = fn(&CDense, &SigmoidTable, &[i64], &[i32], &mut [i64], &mut u64);

/// Calls the instantiation matching the driver's lane count. `L` is const,
/// so the branch folds away at monomorphisation.
#[inline(always)]
pub(crate) fn call_rows<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x64: &[i64],
    x32: &[i32],
    out: &mut [i64],
    ovf: &mut u64,
) {
    debug_assert!(L == 1 || L == 8, "driver instantiates L in {{1, 8}}");
    let f = if L == 8 { d.rows8 } else { d.rows1 };
    f(d, sig, x64, x32, out, ovf);
}

/// Shift-bias-activate-requantize tail shared by every MAC family; one
/// accumulator per lane. The `i64` requant fast path is bit-identical to
/// the `i128` route for every accumulator below the exactness bound
/// (checked at lowering).
#[inline(always)]
pub(crate) fn finish_rows<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    acc: &[i64; L],
    r: usize,
    out: &mut [i64],
    ovf: &mut u64,
) {
    let o = &mut out[r * L..(r + 1) * L];
    match &d.act {
        CAct::Linear(rq) => {
            for (slot, &a) in o.iter_mut().zip(acc) {
                let (y, v) = rq.apply_i64((a << d.prod_shift) + d.b[r]);
                *slot = y;
                *ovf += u64::from(v);
            }
        }
        CAct::Relu(rq) => {
            for (slot, &a) in o.iter_mut().zip(acc) {
                let (y, v) = rq.apply_i64(((a << d.prod_shift) + d.b[r]).max(0));
                *slot = y;
                *ovf += u64::from(v);
            }
        }
        CAct::Sigmoid { lut, acc_lsb } => {
            for (slot, &a) in o.iter_mut().zip(acc) {
                let full = (a << d.prod_shift) + d.b[r];
                let (y, v) = lut[sig.index_of(full as f64 * *acc_lsb)];
                *slot = y;
                *ovf += u64::from(v);
            }
        }
    }
}

/// Narrows a lane-interleaved `i64` buffer into the `i32` staging area —
/// lossless for every layer the planner marked narrow (the worst-case
/// input raw fits `i32` by construction).
#[inline(always)]
pub(crate) fn stage_i32(src: &[i64], dst: &mut [i32]) {
    debug_assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        debug_assert!(i32::try_from(s).is_ok(), "narrow layer fed wide raw");
        *d = s as i32;
    }
}

/// The `(x64, x32)` pair a layer's kernels read: a narrow layer gets `src`
/// narrowed into `x32` (the wide side empty), a wide layer `src` as is.
#[inline(always)]
pub(crate) fn stage<'a>(d: &CDense, src: &'a [i64], x32: &'a mut [i32]) -> (&'a [i64], &'a [i32]) {
    if d.narrow() {
        let x32 = &mut x32[..src.len()];
        stage_i32(src, x32);
        (&[], x32)
    } else {
        (src, &[])
    }
}
