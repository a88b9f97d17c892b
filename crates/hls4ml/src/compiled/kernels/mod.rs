//! Specialised MAC kernel families for the compiled engine.
//!
//! A dense-like layer's kernels multiply in one of three **operand
//! classes**, chosen once at lowering from its weight raws and its input's
//! raw bound ([`Operands`]):
//!
//! * **i16 pairs** — both operands fit `i16`, with every weight raw in
//!   `[−32767, 32767]`. Inputs are staged as `[pair][lane][2]` `i16` and
//!   weights are stored pair-packed, so one `vpmaddwd` forms 16 exact
//!   products and adds them in pairs. A pair sum is at most
//!   `2·32768·32767 = 2 147 418 112 < 2³¹`, so it is exact in its `i32`
//!   slot, and it is widened into the `i64` accumulator at once.
//! * **i32** — both operands fit `i32`: the exact `i32×i32→i64` widening
//!   product. The CSR sparse family always multiplies in this class.
//! * **wide** — `i64` products, for the rare layer that fits neither.
//!
//! Every family funnels into `#[inline(always)]` generic bodies at the
//! layer's runtime width, monomorphised only over the lane count `L`
//! (frames or conv positions per pass) and instantiated once per SIMD
//! level. The planner picks one concrete instantiation per layer at build
//! time and stores it as a plain function pointer, so the per-frame hot
//! path performs no dispatch at all. Bit-exactness across every family
//! rests on one fact: all of them compute the *same multiset* of exact
//! integer products per output and integer addition is associative and
//! commutative, so any accumulation order (row-major scalar, SIMD lanes,
//! pair sums, CSR-skipping zeros) yields the identical `i64` accumulator.

pub(crate) mod dense;
pub(crate) mod fused;
pub(crate) mod sparse;

use super::KernelKind;
use reads_fixed::Requant;
use reads_tensor::activ::SigmoidTable;

/// Largest input raw magnitude the pair family accepts. A raw bound
/// reaches 2¹⁵ only for a signed 16-bit format (no format has a raw
/// maximum of exactly 2¹⁵), whose raws all lie in `[−2¹⁵, 2¹⁵)` and fit
/// `i16`.
pub(crate) const PAIR_X_BOUND: i64 = 1 << 15;

/// Largest weight raw magnitude the pair family accepts. `−32768` is
/// excluded: two `(−32768)·(−32768)` products would sum to 2³¹, the one
/// pair sum an `i32` slot cannot hold.
pub(crate) const PAIR_W_BOUND: i64 = i16::MAX as i64;

/// Operand class of a dense-like layer: the integer width its MAC kernels
/// multiply in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operands {
    /// `i16` operands multiplied and summed in pairs (`vpmaddwd`).
    Pairs,
    /// `i32` operands, `i32×i32→i64` widening products.
    I32,
    /// `i64` operands and products.
    Wide,
}

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
/// its build-time-selected MAC instantiations. It keeps exactly one
/// weight store, the one its operand class reads.
#[derive(Debug, Clone)]
pub(crate) struct CDense {
    /// Raw weights, row-major `rows × cols`; [`Operands::Wide`] only.
    pub w: Vec<i64>,
    /// Narrowed weights, row-major `rows × cols`; [`Operands::I32`] only
    /// (a sparse layer's dense `rows1` reads them beside its CSR).
    pub w32: Vec<i32>,
    /// Pair-packed weights, row-major `rows × pairs()`, the last pair of
    /// an odd-width row padded with a zero weight; [`Operands::Pairs`]
    /// only.
    pub w16: Vec<[i16; 2]>,
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
    /// Which integer width the MAC kernels multiply in.
    pub operands: Operands,
    /// Which kernel family the planner selected.
    pub kind: KernelKind,
    /// One-frame (`L = 1`) instantiation, chosen once at build.
    pub rows1: RowsFn,
    /// Eight-frame (`L = 8`) batch-major instantiation.
    pub rows8: RowsFn,
}

impl CDense {
    /// Column pairs per weight row of the pair family.
    #[inline(always)]
    pub fn pairs(&self) -> usize {
        self.cols.div_ceil(2)
    }

    /// Columns one staged input row occupies: the pair family pads an odd
    /// width with a zero column.
    #[inline(always)]
    pub fn staged_cols(&self) -> usize {
        match self.operands {
            Operands::Pairs => 2 * self.pairs(),
            Operands::I32 | Operands::Wide => self.cols,
        }
    }
}

/// A layer input staged in its operand class, lane-interleaved: column
/// `c` of lane `l` is element `c·L + l` (wide, i32), or half `c % 2` of
/// pair `(c / 2)·L + l` (pairs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Staged<'a> {
    Wide(&'a [i64]),
    I32(&'a [i32]),
    Pairs(&'a [[i16; 2]]),
}

impl<'a> Staged<'a> {
    /// The `n` columns from column `at` of an `L`-lane staged input. In
    /// the pair class both are even, so a window never splits a pair.
    #[inline(always)]
    pub fn cols<const L: usize>(self, at: usize, n: usize) -> Self {
        match self {
            Self::Wide(x) => Self::Wide(&x[at * L..(at + n) * L]),
            Self::I32(x) => Self::I32(&x[at * L..(at + n) * L]),
            Self::Pairs(x) => {
                debug_assert!(
                    at.is_multiple_of(2) && n.is_multiple_of(2),
                    "a window splits a pair"
                );
                Self::Pairs(&x[at / 2 * L..(at + n) / 2 * L])
            }
        }
    }

    /// The `i64` view a wide kernel reads.
    #[inline(always)]
    pub fn wide(self) -> &'a [i64] {
        match self {
            Self::Wide(x) => x,
            _ => unreachable!("wide kernel fed a narrow staging"),
        }
    }

    /// The `i32` view an i32 dense or CSR kernel reads.
    #[inline(always)]
    pub fn narrow(self) -> &'a [i32] {
        match self {
            Self::I32(x) => x,
            _ => unreachable!("i32 kernel fed another operand class"),
        }
    }

    /// The pair view a pair kernel reads.
    #[inline(always)]
    pub fn pairs(self) -> &'a [[i16; 2]] {
        match self {
            Self::Pairs(x) => x,
            _ => unreachable!("pair kernel fed another operand class"),
        }
    }
}

/// Signature every MAC instantiation shares: a staged input in the
/// layer's operand class, lane-interleaved outputs (`rows × L`), and an
/// overflow-event accumulator.
pub(crate) type RowsFn = fn(&CDense, &SigmoidTable, Staged<'_>, &mut [i64], &mut u64);

/// Calls the instantiation matching the driver's lane count. `L` is const,
/// so the branch folds away at monomorphisation.
#[inline(always)]
pub(crate) fn call_rows<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x: Staged<'_>,
    out: &mut [i64],
    ovf: &mut u64,
) {
    debug_assert!(L == 1 || L == 8, "driver instantiates L in {{1, 8}}");
    let f = if L == 8 { d.rows8 } else { d.rows1 };
    f(d, sig, x, out, ovf);
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

/// Narrows an `L`-lane `i64` input of `groups × group` columns into the
/// pair staging: each group's columns pair up in order, an odd group's
/// last pair padded with a zero. Lossless for every layer the planner put
/// on pairs (its input raws fit `i16` by construction).
#[inline(always)]
fn stage_pairs<const L: usize>(src: &[i64], group: usize, dst: &mut [[i16; 2]]) {
    let narrow = |v: i64| {
        debug_assert!(i16::try_from(v).is_ok(), "pair layer fed a raw beyond i16");
        v as i16
    };
    let gp = group.div_ceil(2);
    for (g, d) in src
        .chunks_exact(group * L)
        .zip(dst.chunks_exact_mut(gp * L))
    {
        for (dp, cols) in d.chunks_exact_mut(L).zip(g.chunks(2 * L)) {
            let (lo, hi) = cols.split_at(L);
            for (l, slot) in dp.iter_mut().enumerate() {
                *slot = [narrow(lo[l]), hi.get(l).map_or(0, |&h| narrow(h))];
            }
        }
    }
}

/// Stages an `L`-lane `i64` layer input — `groups × group` columns, where
/// a group is a dense layer's whole input, a pointwise layer's position,
/// or a conv's position (an even `in_ch` in the pair class) — into the
/// operand class `d` reads: a wide layer gets `src` as is, an i32 layer
/// `src` narrowed into `x32`, a pair layer `src` paired into `x16`.
#[inline(always)]
pub(crate) fn stage<'a, const L: usize>(
    d: &CDense,
    src: &'a [i64],
    group: usize,
    x32: &'a mut [i32],
    x16: &'a mut [[i16; 2]],
) -> Staged<'a> {
    match d.operands {
        Operands::Wide => Staged::Wide(src),
        Operands::I32 => {
            let x32 = &mut x32[..src.len()];
            for (d, &s) in x32.iter_mut().zip(src) {
                debug_assert!(i32::try_from(s).is_ok(), "i32 layer fed a wide raw");
                *d = s as i32;
            }
            Staged::I32(x32)
        }
        Operands::Pairs => {
            let n = src.len() / (group * L) * group.div_ceil(2) * L;
            let x16 = &mut x16[..n];
            stage_pairs::<L>(src, group, x16);
            Staged::Pairs(x16)
        }
    }
}

/// Conv im2col window staging, one buffer per operand class: zero-padded
/// border windows (`L` lanes) and the batch-1 position-lane blocks
/// ([`LANES`](super::LANES) positions). Each is sized by the convs that read it, in
/// columns (`w64`, `w32`) or column pairs (`w16`) times `LANES`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Windows {
    pub w64: Vec<i64>,
    pub w32: Vec<i32>,
    pub w16: Vec<[i16; 2]>,
}

#[cfg(test)]
mod tests {
    use super::dense::{i32_fns, pair_fns};
    use super::*;
    use crate::compiled::planner::detect_level;
    use crate::compiled::{SimdLevel, LANES};
    use reads_fixed::{Overflow, QFormat, Quantizer, Rounding};

    /// Every SIMD level this host can run.
    fn levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|&l| l <= detect_level())
            .collect()
    }

    /// A linear layer over raw weights `w` whose requant keeps 40 bits,
    /// so outputs carry the accumulator itself.
    fn layer(w: &[i64], rows: usize, cols: usize, operands: Operands, simd: SimdLevel) -> CDense {
        let q = Quantizer::new(QFormat::signed(48, 48), Rounding::Truncate, Overflow::Wrap);
        let (rows1, rows8) = match operands {
            Operands::Pairs => pair_fns(simd),
            _ => i32_fns(simd),
        };
        let pairs = cols.div_ceil(2);
        let w16 = (0..rows * pairs)
            .map(|i| {
                let (r, p) = (i / pairs, i % pairs);
                let at = |c: usize| if c < cols { w[r * cols + c] as i16 } else { 0 };
                [at(2 * p), at(2 * p + 1)]
            })
            .collect();
        CDense {
            w: Vec::new(),
            w32: w.iter().map(|&v| v as i32).collect(),
            w16,
            csr: None,
            b: vec![0; rows],
            rows,
            cols,
            prod_shift: 0,
            act: CAct::Linear(q.requant_from(0)),
            operands,
            kind: KernelKind::Dense,
            rows1,
            rows8,
        }
    }

    /// Runs `d` over `L` lanes of column-major `x` (`x[c·L + l]`).
    fn run<const L: usize>(d: &CDense, x: &[i64]) -> Vec<i64> {
        let sig = SigmoidTable::new(16, 8.0);
        let mut x32 = vec![0; x.len()];
        let mut x16 = vec![[0; 2]; x.len()];
        let staged = stage::<L>(d, x, d.cols, &mut x32, &mut x16);
        let mut out = vec![0; d.rows * L];
        let mut ovf = 0;
        call_rows::<L>(d, &sig, staged, &mut out, &mut ovf);
        assert_eq!(ovf, 0);
        out
    }

    /// The `i64` reference: `out[r·L + l] = Σ_c w[r][c]·x[c][l]`.
    fn reference<const L: usize>(w: &[i64], rows: usize, cols: usize, x: &[i64]) -> Vec<i64> {
        let mut out = vec![0; rows * L];
        for r in 0..rows {
            for l in 0..L {
                out[r * L + l] = (0..cols).map(|c| w[r * cols + c] * x[c * L + l]).sum();
            }
        }
        out
    }

    fn check<const L: usize>(w: &[i64], rows: usize, cols: usize, x: &[i64], tag: &str) {
        let want = reference::<L>(w, rows, cols, x);
        for simd in levels() {
            let pairs = run::<L>(&layer(w, rows, cols, Operands::Pairs, simd), x);
            let narrow = run::<L>(&layer(w, rows, cols, Operands::I32, simd), x);
            assert_eq!(pairs, want, "{tag}: pairs at {simd:?}, L = {L}");
            assert_eq!(narrow, want, "{tag}: i32 body at {simd:?}, L = {L}");
            if L == LANES {
                let mut csr = layer(w, rows, cols, Operands::I32, simd);
                csr.csr = Some(crate::compiled::planner::build_csr(&csr.w32, rows, cols));
                csr.rows8 = super::sparse::rows8(simd);
                assert_eq!(run::<L>(&csr, x), want, "{tag}: CSR lanes at {simd:?}");
            }
        }
    }

    fn hash(i: usize, salt: u64) -> u64 {
        let mut h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 16
    }

    /// Every lane −32768 against weights ±32767: each pair sum is
    /// ±2·32768·32767, the largest magnitude a slot can carry.
    fn edge<const L: usize>(rows: usize, cols: usize) {
        let w: Vec<i64> = (0..rows * cols)
            .map(|i| {
                if hash(i, 3).is_multiple_of(3) {
                    -32767
                } else {
                    32767
                }
            })
            .collect();
        let x = vec![-32768; cols * L];
        check::<L>(&w, rows, cols, &x, &format!("edge {rows}x{cols}"));
    }

    #[test]
    fn pair_sums_at_the_edge_are_exact() {
        for (rows, cols) in [(518, 128), (128, 259), (2, 3), (5, 1), (4, 34), (7, 33)] {
            edge::<1>(rows, cols);
            edge::<8>(rows, cols);
        }
    }

    #[test]
    fn bodies_match_the_reference_on_odd_widths_and_row_tails() {
        for (rows, cols) in [(1, 1), (2, 3), (3, 17), (6, 31), (9, 65), (518, 259)] {
            // A third of the weights exactly zero, so CSR rows skip some.
            let w: Vec<i64> = (0..rows * cols)
                .map(|i| match hash(i, 11) % 3 {
                    0 => 0,
                    _ => (hash(i, 7) % 65535) as i64 - 32767,
                })
                .collect();
            for salt in [1u64, 2] {
                let x1: Vec<i64> = (0..cols)
                    .map(|i| (hash(i, salt) % 65536) as i64 - 32768)
                    .collect();
                check::<1>(&w, rows, cols, &x1, &format!("{rows}x{cols} L1"));
                let x8: Vec<i64> = (0..cols * 8)
                    .map(|i| (hash(i, salt + 10) % 65536) as i64 - 32768)
                    .collect();
                check::<8>(&w, rows, cols, &x8, &format!("{rows}x{cols} L8"));
            }
        }
    }
}
