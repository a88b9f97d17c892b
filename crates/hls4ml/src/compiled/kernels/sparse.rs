//! Structured-sparse (CSR-by-output-row) MAC kernels.
//!
//! The planner prunes weights that are *exactly zero after quantization*
//! (raw `0` on the weight grid). A zero raw contributes an exactly-zero
//! product to the exact integer accumulator, so skipping it leaves the sum
//! — and therefore the requantized output and its overflow flag — bit
//! identical to the dense kernel and the interpreter. This is the same
//! invariant hls4ml exploits when it schedules no multiplier for a zero
//! weight.
//!
//! CSR runs only on eight-lane passes (8 frames, or 8 positions of one
//! frame's conv); a sparse layer's one-lane `rows1` is the i32 dense body.
//! Its AVX2 / AVX-512 lane bodies call `vpmuldq` through `std::arch`: per
//! retained weight one 32-bit broadcast from memory, one sign-extending
//! load of the eight lanes' `i32` inputs and one exact `i32×i32→i64`
//! multiply-add per lane, over two accumulator chains. The plain-Rust
//! body, re-expanded under the same features, autovectorised to a
//! broadcast through a general register on a single chain: on an AVX-512
//! Xeon it took 97–111 µs per eight-lane pass of a fully dense 100 × 708
//! layer, against 63–66 µs for the vector body here.

use super::{finish_rows, CDense, RowsFn, Staged};
use crate::compiled::{SimdLevel, LANES};
use reads_tensor::activ::SigmoidTable;

/// CSR body over `L` lane-interleaved frames: per retained weight, one
/// broadcast load amortised across all `L` lanes (the lane gather
/// `x[c·L .. c·L+L]` is contiguous, so the lane loop vectorizes even
/// though columns are visited sparsely). The portable instantiation and
/// the oracle the vector bodies are tested against.
#[inline(always)]
pub(crate) fn sparse_body<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    x: Staged<'_>,
    out: &mut [i64],
    ovf: &mut u64,
) {
    let x = x.narrow();
    let csr = d.csr.as_ref().expect("sparse kernel without CSR plan");
    debug_assert_eq!(x.len(), d.cols * L);
    debug_assert_eq!(out.len(), d.rows * L);
    debug_assert_eq!(csr.row_ptr.len(), d.rows + 1);
    for r in 0..d.rows {
        let lo = csr.row_ptr[r] as usize;
        let hi = csr.row_ptr[r + 1] as usize;
        let mut acc = [0i64; L];
        for (&c, &wv) in csr.idx[lo..hi].iter().zip(&csr.w[lo..hi]) {
            let wv = i64::from(wv);
            let xs = &x[c as usize * L..(c as usize + 1) * L];
            for (a, &xv) in acc.iter_mut().zip(xs) {
                *a += wv * i64::from(xv);
            }
        }
        finish_rows::<L>(d, sig, &acc, r, out, ovf);
    }
}

/// Row loop of the vector lane bodies: `row` sums one CSR row's
/// retained weights over the eight lanes.
#[inline(always)]
fn lane_rows(
    d: &CDense,
    sig: &SigmoidTable,
    x: Staged<'_>,
    out: &mut [i64],
    ovf: &mut u64,
    row: impl Fn(&[u32], &[i32], &[i32]) -> [i64; LANES],
) {
    let x = x.narrow();
    let csr = d.csr.as_ref().expect("sparse kernel without CSR plan");
    assert_eq!(x.len(), d.cols * LANES, "CSR lane staging length");
    for (r, span) in csr.row_ptr.windows(2).enumerate() {
        let (lo, hi) = (span[0] as usize, span[1] as usize);
        let acc = row(&csr.idx[lo..hi], &csr.w[lo..hi], x);
        finish_rows::<LANES>(d, sig, &acc, r, out, ovf);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{lane_rows, CDense, SigmoidTable, Staged, LANES};
    use std::arch::x86_64::*;

    /// The eight lanes of input column `c`.
    #[inline(always)]
    fn column(x: &[i32], c: u32) -> &[i32; LANES] {
        let at = c as usize * LANES;
        x[at..at + LANES].try_into().expect("eight lanes")
    }

    // SAFETY: needs AVX2; reached only from the AVX2 shim (stored after
    // runtime detection) and from functions with the same features.
    #[target_feature(enable = "avx2")]
    fn row_avx2(idx: &[u32], w: &[i32], x: &[i32]) -> [i64; LANES] {
        let (mut lo, mut hi) = (_mm256_setzero_si256(), _mm256_setzero_si256());
        for (&c, &wv) in idx.iter().zip(w) {
            let xs = column(x, c);
            // SAFETY: `xs` is exactly 32 readable bytes, of which each
            // unaligned load reads one half.
            let (xl, xh) = unsafe {
                (
                    _mm_loadu_si128(xs.as_ptr().cast()),
                    _mm_loadu_si128(xs[4..].as_ptr().cast()),
                )
            };
            let wv = _mm256_set1_epi32(wv);
            lo = _mm256_add_epi64(lo, _mm256_mul_epi32(_mm256_cvtepi32_epi64(xl), wv));
            hi = _mm256_add_epi64(hi, _mm256_mul_epi32(_mm256_cvtepi32_epi64(xh), wv));
        }
        let mut acc = [0i64; LANES];
        // SAFETY: `acc` is exactly 64 writable bytes, of which each
        // unaligned store writes one half.
        unsafe {
            _mm256_storeu_si256(acc.as_mut_ptr().cast(), lo);
            _mm256_storeu_si256(acc[4..].as_mut_ptr().cast(), hi);
        }
        acc
    }

    // SAFETY: needs AVX-512 F/BW/DQ/VL; reached only from the AVX-512 shim
    // (stored after runtime detection) and from functions with the same
    // features.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn row_avx512(idx: &[u32], w: &[i32], x: &[i32]) -> [i64; LANES] {
        let term = |c: u32, wv: i32| {
            // SAFETY: `column` is exactly 32 readable bytes; `loadu` has no
            // alignment requirement.
            let xv = unsafe { _mm256_loadu_si256(column(x, c).as_ptr().cast()) };
            _mm512_mul_epi32(_mm512_cvtepi32_epi64(xv), _mm512_set1_epi32(wv))
        };
        // Two chains over alternate weights, so the adds overlap.
        let (mut a, mut b) = (_mm512_setzero_si512(), _mm512_setzero_si512());
        let (pairs, w2) = (idx.chunks_exact(2), w.chunks_exact(2));
        let (last_c, last_w) = (pairs.remainder(), w2.remainder());
        for (c, wv) in pairs.zip(w2) {
            a = _mm512_add_epi64(a, term(c[0], wv[0]));
            b = _mm512_add_epi64(b, term(c[1], wv[1]));
        }
        if let (Some(&c), Some(&wv)) = (last_c.first(), last_w.first()) {
            a = _mm512_add_epi64(a, term(c, wv));
        }
        let mut out = [0i64; LANES];
        // SAFETY: `out` is exactly 64 writable bytes; `storeu` has no
        // alignment requirement.
        unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), _mm512_add_epi64(a, b)) };
        out
    }

    // SAFETY: needs AVX2; reached only from `rows8_avx2_shim`.
    #[target_feature(enable = "avx2")]
    fn rows8_avx2(d: &CDense, sig: &SigmoidTable, x: Staged<'_>, out: &mut [i64], ovf: &mut u64) {
        lane_rows(d, sig, x, out, ovf, |i, w, x| row_avx2(i, w, x));
    }

    // SAFETY: needs AVX-512 F/BW/DQ/VL; reached only from
    // `rows8_avx512_shim`.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn rows8_avx512(d: &CDense, sig: &SigmoidTable, x: Staged<'_>, out: &mut [i64], ovf: &mut u64) {
        lane_rows(d, sig, x, out, ovf, |i, w, x| row_avx512(i, w, x));
    }

    pub(super) fn rows8_avx2_shim(
        d: &CDense,
        sig: &SigmoidTable,
        x: Staged<'_>,
        out: &mut [i64],
        ovf: &mut u64,
    ) {
        // SAFETY: stored by the planner only after runtime detection
        // confirmed AVX2 on this CPU.
        unsafe { rows8_avx2(d, sig, x, out, ovf) }
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

/// Build-time dispatch for the sparse family's eight-lane body.
pub(crate) fn rows8(simd: SimdLevel) -> RowsFn {
    match simd {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => x86::rows8_avx2_shim,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => x86::rows8_avx512_shim,
        _ => sparse_body::<LANES>,
    }
}
