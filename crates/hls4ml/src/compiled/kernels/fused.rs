//! Single-pass fused kernels for the U-Net's data-movement chains.
//!
//! * `conv1d → maxpool`: conv outputs stream through a `pool × out_ch`
//!   ring and are max-reduced in place — the full conv output never lands
//!   in a ping-pong buffer. A retained conv output (skip-connection
//!   source) is written to its skip slot as it streams past, and conv
//!   positions the pool drops (trailing remainder) are still *computed*
//!   so overflow statistics stay bit-identical to the unfused pipeline.
//! * `upsample → concat`: the upsample is never materialised; the concat
//!   reads main-channel raws at `pos / factor` straight from the upsample
//!   *input*.
//!
//! Both fusions reorder only *when* an element is computed, never the
//! arithmetic that computes it, so outputs and per-node statistics match
//! the unfused engine and the interpreter bit for bit.
//!
//! A single frame (`L = 1`) has no frames to spread across lanes, but a
//! conv has positions: narrow conv and conv→pool steps run [`LANES`]
//! output positions at a time through the layer's `rows8` kernel (CSR
//! lanes when the layer is sparse), gathering each position's im2col
//! window into its own lane. Every output is still computed exactly once
//! from the same exact integer products, so this too is reordering only.
//! The positions left over after the last whole block, and the wide path,
//! run one at a time through [`conv_at`].

use super::{call_rows, CDense};
use crate::compiled::LANES;
use reads_fixed::Requant;
use reads_tensor::activ::SigmoidTable;

/// Computes one conv output position into `out` (`rows × L` raws).
/// Interior positions feed the im2col window as a contiguous slice of the
/// (lane-interleaved, position-major) staged input; border positions
/// gather taps into the window buffer with zero padding.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_at<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    k: usize,
    in_ch: usize,
    in_len: usize,
    x64: &[i64],
    x32: &[i32],
    win64: &mut [i64],
    win32: &mut [i32],
    pos: usize,
    out: &mut [i64],
    ovf: &mut u64,
) {
    let narrow = d.narrow();
    let half = (k / 2) as isize;
    let start = pos as isize - half;
    if start >= 0 && (start as usize) + k <= in_len {
        let at = (start as usize * in_ch) * L;
        let n = k * in_ch * L;
        if narrow {
            call_rows::<L>(d, sig, &[], &x32[at..at + n], out, ovf);
        } else {
            call_rows::<L>(d, sig, &x64[at..at + n], &[], out, ovf);
        }
    } else {
        for tap in 0..k {
            let ipos = start + tap as isize;
            let wat = tap * in_ch * L;
            let n = in_ch * L;
            if ipos < 0 || ipos >= in_len as isize {
                if narrow {
                    win32[wat..wat + n].fill(0);
                } else {
                    win64[wat..wat + n].fill(0);
                }
            } else {
                let at = (ipos as usize * in_ch) * L;
                if narrow {
                    win32[wat..wat + n].copy_from_slice(&x32[at..at + n]);
                } else {
                    win64[wat..wat + n].copy_from_slice(&x64[at..at + n]);
                }
            }
        }
        let n = k * in_ch * L;
        if narrow {
            call_rows::<L>(d, sig, &[], &win32[..n], out, ovf);
        } else {
            call_rows::<L>(d, sig, &win64[..n], &[], out, ovf);
        }
    }
}

/// Gathers the im2col windows of [`LANES`] conv output positions into the
/// lane-interleaved layout the `rows8` kernels read: lane `l` is output
/// position `first + l·stride`, and `win[(tap·in_ch + ch)·LANES + l]` is
/// the input at `first + l·stride − k/2 + tap`, zero outside the frame.
#[inline(always)]
fn gather_positions(
    x: &[i32],
    k: usize,
    in_ch: usize,
    in_len: usize,
    first: usize,
    stride: usize,
    win: &mut [i32],
) {
    for l in 0..LANES {
        let pos = first + l * stride;
        for (tap, col) in win.chunks_exact_mut(in_ch * LANES).enumerate() {
            match (pos + tap).checked_sub(k / 2).filter(|&i| i < in_len) {
                Some(i) => {
                    for (w, &v) in col
                        .chunks_exact_mut(LANES)
                        .zip(&x[i * in_ch..(i + 1) * in_ch])
                    {
                        w[l] = v;
                    }
                }
                None => {
                    for w in col.chunks_exact_mut(LANES) {
                        w[l] = 0;
                    }
                }
            }
        }
    }
}

/// Writes a `rows × LANES` block back as position-major rows, lane `l`
/// to position `first + l·stride` — the inverse of [`gather_positions`]'
/// lane mapping.
#[inline(always)]
fn scatter_positions(blk: &[i64], rows: usize, first: usize, stride: usize, dst: &mut [i64]) {
    for l in 0..LANES {
        let pos = first + l * stride;
        for (r, v) in dst[pos * rows..(pos + 1) * rows].iter_mut().enumerate() {
            *v = blk[r * LANES + l];
        }
    }
}

/// Unfused conv1d over all positions. A narrow single frame runs its
/// positions [`LANES`] at a time: each block goes through `rows8` into
/// `blk` (`rows × LANES`) and is transposed into `dst`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_conv<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    k: usize,
    in_ch: usize,
    in_len: usize,
    x64: &[i64],
    x32: &[i32],
    win64: &mut [i64],
    win32: &mut [i32],
    blk: &mut [i64],
    dst: &mut [i64],
    ovf: &mut u64,
) {
    let rows = d.rows;
    let mut tail = 0;
    if L == 1 && d.narrow() {
        tail = in_len - in_len % LANES;
        let win = &mut win32[..k * in_ch * LANES];
        let blk = &mut blk[..rows * LANES];
        for base in (0..tail).step_by(LANES) {
            gather_positions(x32, k, in_ch, in_len, base, 1, win);
            call_rows::<LANES>(d, sig, &[], win, blk, ovf);
            scatter_positions(blk, rows, base, 1, dst);
        }
    }
    for (pos, out) in dst.chunks_exact_mut(rows * L).enumerate().skip(tail) {
        conv_at::<L>(
            d, sig, k, in_ch, in_len, x64, x32, win64, win32, pos, out, ovf,
        );
    }
}

/// Fused conv1d → maxpool single pass. `dst` receives the pooled output
/// (`(in_len / pool) × rows` positions); `conv_skip`, when present,
/// receives the full conv output for a later concat.
///
/// A narrow single frame runs blocks of `LANES · pool` positions first:
/// slot `off` of the `pool × rows × LANES` ring takes one `rows8` pass
/// whose lane `l` is position `base + l·pool + off`, so pooled output
/// `base/pool + l` is the max over lane `l` of every slot — the same ring
/// read the batch lanes do.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_conv_pool<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    k: usize,
    in_ch: usize,
    in_len: usize,
    pool: usize,
    x64: &[i64],
    x32: &[i32],
    win64: &mut [i64],
    win32: &mut [i32],
    rowtmp: &mut [i64],
    mut conv_skip: Option<&mut [i64]>,
    dst: &mut [i64],
    ovf: &mut u64,
) {
    let ch = d.rows;
    let slot_n = ch * L;
    let mut tail = 0;
    if L == 1 && d.narrow() {
        let span = LANES * pool;
        tail = in_len - in_len % span;
        let win = &mut win32[..k * in_ch * LANES];
        for base in (0..tail).step_by(span) {
            for off in 0..pool {
                let slot = &mut rowtmp[off * ch * LANES..(off + 1) * ch * LANES];
                gather_positions(x32, k, in_ch, in_len, base + off, pool, win);
                call_rows::<LANES>(d, sig, &[], win, slot, ovf);
                if let Some(skip) = conv_skip.as_deref_mut() {
                    scatter_positions(slot, ch, base + off, pool, skip);
                }
            }
            let opos = base / pool;
            for (l, out) in dst[opos * ch..(opos + LANES) * ch]
                .chunks_exact_mut(ch)
                .enumerate()
            {
                for (c, v) in out.iter_mut().enumerate() {
                    *v = (0..pool).fold(i64::MIN, |best, off| {
                        best.max(rowtmp[(off * ch + c) * LANES + l])
                    });
                }
            }
        }
    }
    // Conv output length equals its input length ("same" padding); every
    // position is computed — including a trailing remainder the pool
    // drops — so requant overflow counts match the unfused engine. The
    // tail starts on a pool boundary, so its ring slots start fresh.
    for pos in tail..in_len {
        let slot = pos % pool;
        {
            let out = &mut rowtmp[slot * slot_n..(slot + 1) * slot_n];
            conv_at::<L>(
                d, sig, k, in_ch, in_len, x64, x32, win64, win32, pos, out, ovf,
            );
            if let Some(skip) = conv_skip.as_deref_mut() {
                skip[pos * slot_n..(pos + 1) * slot_n].copy_from_slice(out);
            }
        }
        if slot == pool - 1 {
            let opos = pos / pool;
            let out = &mut dst[opos * slot_n..(opos + 1) * slot_n];
            for c in 0..ch {
                for l in 0..L {
                    let mut best = i64::MIN;
                    for off in 0..pool {
                        best = best.max(rowtmp[(off * ch + c) * L + l]);
                    }
                    out[c * L + l] = best;
                }
            }
        }
    }
}

/// Concat kernel, optionally fused with a preceding upsample
/// (`up_factor > 1`): main channels are requantized from the upsample
/// *input* at `pos / up_factor`, skip channels from the retained slot.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_concat<const L: usize>(
    src: &[i64],
    skip: &[i64],
    out_len: usize,
    out_ch: usize,
    skip_ch: usize,
    up_factor: usize,
    rq_main: &Requant,
    rq_skip: &Requant,
    dst: &mut [i64],
    ovf: &mut u64,
) {
    let main_ch = out_ch - skip_ch;
    for pos in 0..out_len {
        let mpos = pos / up_factor;
        let out = &mut dst[pos * out_ch * L..(pos + 1) * out_ch * L];
        for c in 0..main_ch {
            for l in 0..L {
                let (y, o) = rq_main.apply_i64(src[(mpos * main_ch + c) * L + l]);
                out[c * L + l] = y;
                *ovf += u64::from(o);
            }
        }
        for c in 0..skip_ch {
            for l in 0..L {
                let (y, o) = rq_skip.apply_i64(skip[(pos * skip_ch + c) * L + l]);
                out[(main_ch + c) * L + l] = y;
                *ovf += u64::from(o);
            }
        }
    }
}
