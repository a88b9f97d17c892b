//! Dense MAC kernels in all three operand classes: the i16-pair family
//! (`vpmaddwd`) and the i32 widening family (`i32×i32→i64`), each with
//! AVX2 / AVX-512 instantiations reached through runtime feature
//! detection, and the wide `i64` fallback, which has only its portable
//! body. Every body runs at the layer's runtime width and is instantiated
//! once per lane count `L ∈ {1, 8}` and SIMD level.
//!
//! **i32: a codegen story.** Its `#[target_feature]` wrappers contain *no
//! intrinsics* — they re-expand the same `#[inline(always)]` scalar body
//! inside a feature-enabled function, and LLVM re-vectorizes it with
//! 256-/512-bit widening multiplies.
//!
//! **Pairs: an intrinsics story.** The pair family's win is one
//! instruction, `vpmaddwd`, which multiplies sixteen `i16` pairs and adds
//! each pair's two products into an `i32` slot. The plain-Rust pair body
//! does not reach it (compiled for baseline x86-64 it ran the U-Net 1.4×
//! slower than the i32 body), so the AVX2 and AVX-512BW bodies call it
//! through `std::arch`, and widen each slot into an `i64` accumulator
//! right away (`vpmovsxdq`). A slot is exact: the planner admits a layer only when
//! its input raws fit `i16` (`|x| ≤ 2¹⁵`) and its weight raws lie in
//! `[−32767, 32767]`, so a pair sum is at most `2·32768·32767 =
//! 2 147 418 112 < 2³¹`. The scalar body is the portable instantiation
//! and the oracle the vector bodies are tested against; VNNI is not used,
//! so every AVX-512BW host runs the same code. Inputs are staged `[pair][lane][2]`, so with eight lanes one
//! pair column is one 256-bit load and one weight pair is one 32-bit
//! broadcast; at one lane a row is a run of pairs, read sixteen (AVX-512)
//! or eight (AVX2) pairs at a time.
//!
//! Every instantiation computes the same exact integer products in a
//! different order, and integer addition is associative — outputs and
//! overflow flags are bit-identical by construction (the kernel
//! conformance suite pins this on every path).

use super::{finish_rows, CDense, RowsFn, Staged};
use crate::compiled::SimdLevel;
use reads_tensor::activ::SigmoidTable;

/// i32 dense body: `rows × cols` i32 weights against `L` lane-interleaved
/// i32 inputs, at the layer's runtime width.
#[inline(always)]
pub(crate) fn dense_body<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x: Staged<'_>,
    out: &mut [i64],
    ovf: &mut u64,
) {
    let x = x.narrow();
    let cols = d.cols;
    debug_assert_eq!(x.len(), cols * L);
    debug_assert_eq!(out.len(), d.rows * L);
    debug_assert_eq!(d.w32.len(), d.rows * cols);
    let mut r = 0;
    // Lane passes block four output rows per sweep so each lane-column
    // load (and its sign extension) is reused fourfold with four
    // independent accumulator chains. Per-row accumulation order is
    // untouched — row blocking only interleaves independent rows, so
    // results are identical to the single-row loop below.
    if L > 1 {
        while r + 4 <= d.rows {
            let r0 = &d.w32[r * cols..(r + 1) * cols];
            let r1 = &d.w32[(r + 1) * cols..(r + 2) * cols];
            let r2 = &d.w32[(r + 2) * cols..(r + 3) * cols];
            let r3 = &d.w32[(r + 3) * cols..(r + 4) * cols];
            let mut a0 = [0i64; L];
            let mut a1 = [0i64; L];
            let mut a2 = [0i64; L];
            let mut a3 = [0i64; L];
            for c in 0..cols {
                let xs = &x[c * L..c * L + L];
                let (w0, w1) = (i64::from(r0[c]), i64::from(r1[c]));
                let (w2, w3) = (i64::from(r2[c]), i64::from(r3[c]));
                for l in 0..L {
                    a0[l] += w0 * i64::from(xs[l]);
                }
                for l in 0..L {
                    a1[l] += w1 * i64::from(xs[l]);
                }
                for l in 0..L {
                    a2[l] += w2 * i64::from(xs[l]);
                }
                for l in 0..L {
                    a3[l] += w3 * i64::from(xs[l]);
                }
            }
            finish_rows::<L>(d, sig, &a0, r, out, ovf);
            finish_rows::<L>(d, sig, &a1, r + 1, out, ovf);
            finish_rows::<L>(d, sig, &a2, r + 2, out, ovf);
            finish_rows::<L>(d, sig, &a3, r + 3, out, ovf);
            r += 4;
        }
    }
    while r < d.rows {
        let row = &d.w32[r * cols..(r + 1) * cols];
        let mut acc = [0i64; L];
        for (c, &wv) in row.iter().enumerate() {
            let wv = i64::from(wv);
            let xs = &x[c * L..(c + 1) * L];
            for (a, &xv) in acc.iter_mut().zip(xs) {
                // Exact i32×i32→i64 widening product; the lowering bound
                // check guarantees the i64 accumulator never overflows.
                *a += wv * i64::from(xv);
            }
        }
        finish_rows::<L>(d, sig, &acc, r, out, ovf);
        r += 1;
    }
}

/// Wide dense body: full `i64` products for the rare layer whose weights
/// or inputs exceed `i32`. It has no SIMD instantiations: no benchmark
/// firmware lowers a wide layer, so every plan runs this portable body.
#[inline(always)]
fn wide_body<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x: Staged<'_>,
    out: &mut [i64],
    ovf: &mut u64,
) {
    let x = x.wide();
    debug_assert_eq!(x.len(), d.cols * L);
    debug_assert_eq!(out.len(), d.rows * L);
    for r in 0..d.rows {
        let row = &d.w[r * d.cols..(r + 1) * d.cols];
        let mut acc = [0i64; L];
        for (c, &wv) in row.iter().enumerate() {
            let xs = &x[c * L..(c + 1) * L];
            for (a, &xv) in acc.iter_mut().zip(xs) {
                *a += wv * xv;
            }
        }
        finish_rows::<L>(d, sig, &acc, r, out, ovf);
    }
}

/// [`dense_body`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dense_avx2<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x: Staged<'_>,
    out: &mut [i64],
    ovf: &mut u64,
) {
    dense_body::<L>(d, sig, x, out, ovf);
}

/// [`dense_body`] compiled with AVX-512 F/BW/DQ/VL enabled.
///
/// # Safety
/// The CPU must support AVX-512 F, BW, DQ and VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
unsafe fn dense_avx512<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x: Staged<'_>,
    out: &mut [i64],
    ovf: &mut u64,
) {
    dense_body::<L>(d, sig, x, out, ovf);
}

fn dense_avx2_shim<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x: Staged<'_>,
    out: &mut [i64],
    ovf: &mut u64,
) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the planner stores this instantiation only after runtime
        // detection confirmed AVX2 on this CPU.
        unsafe { dense_avx2::<L>(d, sig, x, out, ovf) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    dense_body::<L>(d, sig, x, out, ovf)
}

fn dense_avx512_shim<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x: Staged<'_>,
    out: &mut [i64],
    ovf: &mut u64,
) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: stored only after runtime detection confirmed
        // AVX-512 F/BW/DQ/VL on this CPU.
        unsafe { dense_avx512::<L>(d, sig, x, out, ovf) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    dense_body::<L>(d, sig, x, out, ovf)
}

/// Build-time dispatch for the i32 family: the `(L = 1, L = 8)`
/// instantiations at the resolved SIMD level. Called once per layer at
/// lowering — never on the frame path.
pub(crate) fn i32_fns(simd: SimdLevel) -> (RowsFn, RowsFn) {
    match simd {
        SimdLevel::Scalar => (dense_body::<1>, dense_body::<8>),
        SimdLevel::Avx2 => (dense_avx2_shim::<1>, dense_avx2_shim::<8>),
        SimdLevel::Avx512 => (dense_avx512_shim::<1>, dense_avx512_shim::<8>),
    }
}

/// The wide (`i64`) family's `(L = 1, L = 8)` bodies, the same at every
/// SIMD level.
pub(crate) fn wide_fns() -> (RowsFn, RowsFn) {
    (wide_body::<1>, wide_body::<8>)
}

/// Exact sum of one pair of products, the scalar twin of one `vpmaddwd`
/// slot. The planner's operand bounds keep it within
/// `2·32768·32767 < 2³¹`.
#[inline(always)]
fn pair_dot(x: [i16; 2], w: [i16; 2]) -> i32 {
    i32::from(x[0]) * i32::from(w[0]) + i32::from(x[1]) * i32::from(w[1])
}

/// Row loop shared by every pair instantiation: blocks of four output
/// rows through `block4` (each staged pair column is loaded once for four
/// independent accumulator chains), the remaining rows one at a time
/// through `block1`. Row blocking only interleaves independent rows, so
/// every row's sum is unchanged.
#[inline(always)]
fn pair_rows<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x: &[[i16; 2]],
    out: &mut [i64],
    ovf: &mut u64,
    block4: impl Fn([&[[i16; 2]]; 4], &[[i16; 2]]) -> [[i64; L]; 4],
    block1: impl Fn([&[[i16; 2]]; 1], &[[i16; 2]]) -> [[i64; L]; 1],
) {
    let np = d.pairs();
    assert_eq!(x.len(), np * L, "pair staging length");
    debug_assert_eq!(out.len(), d.rows * L);
    let mut rows = d.w16.chunks_exact(np);
    let mut r = 0;
    while r + 4 <= d.rows {
        let w = std::array::from_fn(|_| rows.next().expect("four weight rows"));
        for (i, acc) in block4(w, x).iter().enumerate() {
            finish_rows::<L>(d, sig, acc, r + i, out, ovf);
        }
        r += 4;
    }
    for w in rows {
        let [acc] = block1([w], x);
        finish_rows::<L>(d, sig, &acc, r, out, ovf);
        r += 1;
    }
}

/// Portable pair block: `R` rows' sums over `L` lanes, each pair sum
/// formed exactly in `i32` and widened before it is added.
#[inline(always)]
fn pair_block<const L: usize, const R: usize>(
    w: [&[[i16; 2]]; R],
    x: &[[i16; 2]],
) -> [[i64; L]; R] {
    let mut acc = [[0i64; L]; R];
    for (p, xs) in x.chunks_exact(L).enumerate() {
        for (a, row) in acc.iter_mut().zip(&w) {
            let wp = row[p];
            for (a, &xv) in a.iter_mut().zip(xs) {
                *a += i64::from(pair_dot(xv, wp));
            }
        }
    }
    acc
}

/// Portable pair body — the `SimdLevel::Scalar` instantiation and the
/// oracle the vector bodies are tested against.
#[inline(always)]
pub(crate) fn pairs_body<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x: Staged<'_>,
    out: &mut [i64],
    ovf: &mut u64,
) {
    pair_rows::<L>(
        d,
        sig,
        x.pairs(),
        out,
        ovf,
        pair_block::<L, 4>,
        pair_block::<L, 1>,
    );
}

/// `vpmaddwd` bodies. Every function here but `packed` and the shims is
/// `#[target_feature]`; the planner reaches one only through a shim it
/// stores after runtime detection confirmed the feature. Every vector
/// load reads a subslice whose length was checked against the load
/// width, and every store writes a local array of the store's width.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{pair_dot, pair_rows, CDense, SigmoidTable, Staged};
    use std::arch::x86_64::*;

    /// A weight pair as the 32-bit lane `vpmaddwd` reads: `w[0]` in the
    /// low half.
    #[inline(always)]
    fn packed(w: [i16; 2]) -> i32 {
        i32::from(w[0] as u16) | (i32::from(w[1]) << 16)
    }

    /// Eight pairs (one pair column of eight lanes, or eight pairs of one
    /// row) as one 256-bit vector.
    #[inline]
    // SAFETY: needs AVX2; reached only from the AVX2 shims (stored after
    // runtime detection) and from functions with the same features.
    #[target_feature(enable = "avx2")]
    fn load8(p: &[[i16; 2]]) -> __m256i {
        let p: &[[i16; 2]; 8] = p.try_into().expect("eight pairs");
        // SAFETY: `p` is exactly 32 readable bytes; `loadu` has no
        // alignment requirement.
        unsafe { _mm256_loadu_si256(p.as_ptr().cast()) }
    }

    /// Sixteen pairs as one 512-bit vector.
    #[inline]
    // SAFETY: needs AVX-512F; reached only from the AVX-512 bodies below.
    #[target_feature(enable = "avx512f")]
    fn load16(p: &[[i16; 2]]) -> __m512i {
        let p: &[[i16; 2]; 16] = p.try_into().expect("sixteen pairs");
        // SAFETY: `p` is exactly 64 readable bytes; `loadu` has no
        // alignment requirement.
        unsafe { _mm512_loadu_si512(p.as_ptr().cast()) }
    }

    /// The four `i64` lanes of a 256-bit vector.
    #[inline]
    // SAFETY: needs AVX2; reached only from the AVX2 shims (stored after
    // runtime detection) and from functions with the same features.
    #[target_feature(enable = "avx2")]
    fn lanes4(v: __m256i) -> [i64; 4] {
        let mut a = [0i64; 4];
        // SAFETY: `a` is exactly 32 writable bytes; `storeu` has no
        // alignment requirement.
        unsafe { _mm256_storeu_si256(a.as_mut_ptr().cast(), v) };
        a
    }

    /// The eight `i64` lanes of a 512-bit vector.
    #[inline]
    // SAFETY: needs AVX-512F; reached only from the AVX-512 bodies below.
    #[target_feature(enable = "avx512f")]
    fn lanes8(v: __m512i) -> [i64; 8] {
        let mut a = [0i64; 8];
        // SAFETY: `a` is exactly 64 writable bytes; `storeu` has no
        // alignment requirement.
        unsafe { _mm512_storeu_si512(a.as_mut_ptr().cast(), v) };
        a
    }

    /// Eight lanes, AVX2: per pair column one load, then per row one
    /// broadcast, one `vpmaddwd` and two widening adds (lanes 0–3, 4–7).
    #[inline]
    // SAFETY: needs AVX2; reached only from the AVX2 shims (stored after
    // runtime detection) and from functions with the same features.
    #[target_feature(enable = "avx2")]
    fn block8_avx2<const R: usize>(w: [&[[i16; 2]]; R], x: &[[i16; 2]]) -> [[i64; 8]; R] {
        let mut lo = [_mm256_setzero_si256(); R];
        let mut hi = [_mm256_setzero_si256(); R];
        for (p, xs) in x.chunks_exact(8).enumerate() {
            let xv = load8(xs);
            for i in 0..R {
                let m = _mm256_madd_epi16(xv, _mm256_set1_epi32(packed(w[i][p])));
                lo[i] = _mm256_add_epi64(lo[i], _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m)));
                hi[i] = _mm256_add_epi64(
                    hi[i],
                    _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(m)),
                );
            }
        }
        std::array::from_fn(|i| {
            let (l, h) = (lanes4(lo[i]), lanes4(hi[i]));
            [l[0], l[1], l[2], l[3], h[0], h[1], h[2], h[3]]
        })
    }

    /// Eight lanes, AVX-512: as [`block8_avx2`], but the eight pair sums
    /// widen into one 512-bit accumulator.
    #[inline]
    // SAFETY: needs AVX-512 F/BW/DQ/VL; reached only from the AVX-512 shims
    // (stored after runtime detection) and from functions with the same
    // features.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn block8_avx512<const R: usize>(w: [&[[i16; 2]]; R], x: &[[i16; 2]]) -> [[i64; 8]; R] {
        let mut acc = [_mm512_setzero_si512(); R];
        for (p, xs) in x.chunks_exact(8).enumerate() {
            let xv = load8(xs);
            for i in 0..R {
                let m = _mm256_madd_epi16(xv, _mm256_set1_epi32(packed(w[i][p])));
                acc[i] = _mm512_add_epi64(acc[i], _mm512_cvtepi32_epi64(m));
            }
        }
        std::array::from_fn(|i| lanes8(acc[i]))
    }

    /// One lane, AVX2: eight pairs of the row per `vpmaddwd`, the pairs
    /// past the last full vector summed by the scalar twin.
    #[inline]
    // SAFETY: needs AVX2; reached only from the AVX2 shims (stored after
    // runtime detection) and from functions with the same features.
    #[target_feature(enable = "avx2")]
    fn block1_avx2<const R: usize>(w: [&[[i16; 2]]; R], x: &[[i16; 2]]) -> [[i64; 1]; R] {
        let full = x.len() - x.len() % 8;
        let mut acc = [_mm256_setzero_si256(); R];
        for (p, xs) in x[..full].chunks_exact(8).enumerate() {
            let xv = load8(xs);
            for i in 0..R {
                let m = _mm256_madd_epi16(xv, load8(&w[i][p * 8..p * 8 + 8]));
                let wide = _mm256_add_epi64(
                    _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m)),
                    _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(m)),
                );
                acc[i] = _mm256_add_epi64(acc[i], wide);
            }
        }
        std::array::from_fn(|i| {
            let tail: i64 = x[full..]
                .iter()
                .zip(&w[i][full..])
                .map(|(&xv, &wp)| i64::from(pair_dot(xv, wp)))
                .sum();
            [lanes4(acc[i]).iter().sum::<i64>() + tail]
        })
    }

    /// One lane, AVX-512: sixteen pairs of the row per `vpmaddwd`.
    #[inline]
    // SAFETY: needs AVX-512 F/BW/DQ/VL; reached only from the AVX-512 shims
    // (stored after runtime detection) and from functions with the same
    // features.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn block1_avx512<const R: usize>(w: [&[[i16; 2]]; R], x: &[[i16; 2]]) -> [[i64; 1]; R] {
        let full = x.len() - x.len() % 16;
        let mut acc = [_mm512_setzero_si512(); R];
        for (p, xs) in x[..full].chunks_exact(16).enumerate() {
            let xv = load16(xs);
            for i in 0..R {
                let m = _mm512_madd_epi16(xv, load16(&w[i][p * 16..p * 16 + 16]));
                let wide = _mm512_add_epi64(
                    _mm512_cvtepi32_epi64(_mm512_castsi512_si256(m)),
                    _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(m)),
                );
                acc[i] = _mm512_add_epi64(acc[i], wide);
            }
        }
        std::array::from_fn(|i| {
            let tail: i64 = x[full..]
                .iter()
                .zip(&w[i][full..])
                .map(|(&xv, &wp)| i64::from(pair_dot(xv, wp)))
                .sum();
            [lanes8(acc[i]).iter().sum::<i64>() + tail]
        })
    }

    // SAFETY: needs AVX2; reached only from the AVX2 shims (stored after
    // runtime detection) and from functions with the same features.
    #[target_feature(enable = "avx2")]
    fn rows1_avx2(d: &CDense, sig: &SigmoidTable, x: Staged<'_>, out: &mut [i64], ovf: &mut u64) {
        pair_rows::<1>(
            d,
            sig,
            x.pairs(),
            out,
            ovf,
            |w, x| block1_avx2::<4>(w, x),
            |w, x| block1_avx2::<1>(w, x),
        );
    }

    // SAFETY: needs AVX2; reached only from the AVX2 shims (stored after
    // runtime detection) and from functions with the same features.
    #[target_feature(enable = "avx2")]
    fn rows8_avx2(d: &CDense, sig: &SigmoidTable, x: Staged<'_>, out: &mut [i64], ovf: &mut u64) {
        pair_rows::<8>(
            d,
            sig,
            x.pairs(),
            out,
            ovf,
            |w, x| block8_avx2::<4>(w, x),
            |w, x| block8_avx2::<1>(w, x),
        );
    }

    // SAFETY: needs AVX-512 F/BW/DQ/VL; reached only from the AVX-512 shims
    // (stored after runtime detection) and from functions with the same
    // features.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn rows1_avx512(d: &CDense, sig: &SigmoidTable, x: Staged<'_>, out: &mut [i64], ovf: &mut u64) {
        pair_rows::<1>(
            d,
            sig,
            x.pairs(),
            out,
            ovf,
            |w, x| block1_avx512::<4>(w, x),
            |w, x| block1_avx512::<1>(w, x),
        );
    }

    // SAFETY: needs AVX-512 F/BW/DQ/VL; reached only from the AVX-512 shims
    // (stored after runtime detection) and from functions with the same
    // features.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn rows8_avx512(d: &CDense, sig: &SigmoidTable, x: Staged<'_>, out: &mut [i64], ovf: &mut u64) {
        pair_rows::<8>(
            d,
            sig,
            x.pairs(),
            out,
            ovf,
            |w, x| block8_avx512::<4>(w, x),
            |w, x| block8_avx512::<1>(w, x),
        );
    }

    pub(super) fn rows1_avx2_shim(
        d: &CDense,
        sig: &SigmoidTable,
        x: Staged<'_>,
        out: &mut [i64],
        ovf: &mut u64,
    ) {
        // SAFETY: the planner stores this shim only after runtime
        // detection confirmed AVX2 on this CPU.
        unsafe { rows1_avx2(d, sig, x, out, ovf) }
    }

    pub(super) fn rows8_avx2_shim(
        d: &CDense,
        sig: &SigmoidTable,
        x: Staged<'_>,
        out: &mut [i64],
        ovf: &mut u64,
    ) {
        // SAFETY: stored only after runtime detection confirmed AVX2.
        unsafe { rows8_avx2(d, sig, x, out, ovf) }
    }

    pub(super) fn rows1_avx512_shim(
        d: &CDense,
        sig: &SigmoidTable,
        x: Staged<'_>,
        out: &mut [i64],
        ovf: &mut u64,
    ) {
        // SAFETY: stored only after runtime detection confirmed
        // AVX-512 F/BW/DQ/VL on this CPU.
        unsafe { rows1_avx512(d, sig, x, out, ovf) }
    }

    pub(super) fn rows8_avx512_shim(
        d: &CDense,
        sig: &SigmoidTable,
        x: Staged<'_>,
        out: &mut [i64],
        ovf: &mut u64,
    ) {
        // SAFETY: stored only after runtime detection confirmed
        // AVX-512 F/BW/DQ/VL on this CPU.
        unsafe { rows8_avx512(d, sig, x, out, ovf) }
    }
}

/// Build-time dispatch for the i16-pair family: the `(L = 1, L = 8)`
/// instantiations at the resolved SIMD level.
pub(crate) fn pair_fns(simd: SimdLevel) -> (RowsFn, RowsFn) {
    match simd {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => (x86::rows1_avx2_shim, x86::rows8_avx2_shim),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => (x86::rows1_avx512_shim, x86::rows8_avx512_shim),
        _ => (pairs_body::<1>, pairs_body::<8>),
    }
}
