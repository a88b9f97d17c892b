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
//! conv has positions: i32 and pair conv and conv→pool steps run
//! [`LANES`] output positions at a time through the layer's `rows8`
//! kernel (CSR lanes when the layer is sparse), gathering each position's
//! im2col window into its own lane (a pair layer's `in_ch` is even, so a
//! window gathers whole channel pairs). Every output is still computed
//! exactly once from the same exact integer products, so this too is
//! reordering only.
//! The positions left over after the last whole block, and the wide path,
//! run one at a time through [`conv_at`].

use super::{call_rows, CDense, Staged, Windows};
use crate::compiled::LANES;
use reads_fixed::Requant;
use reads_tensor::activ::SigmoidTable;

/// The zero-padded im2col window of the conv output at `pos`, copied tap
/// by tap from a position-major input of `unit` elements per position.
#[inline(always)]
fn border<'w, T: Copy + Default>(
    x: &[T],
    unit: usize,
    k: usize,
    in_len: usize,
    pos: usize,
    win: &'w mut [T],
) -> &'w [T] {
    let win = &mut win[..k * unit];
    for (tap, dst) in win.chunks_exact_mut(unit).enumerate() {
        match (pos + tap).checked_sub(k / 2).filter(|&i| i < in_len) {
            Some(i) => dst.copy_from_slice(&x[i * unit..(i + 1) * unit]),
            None => dst.fill(T::default()),
        }
    }
    win
}

/// Computes one conv output position into `out` (`rows × L` raws).
/// Interior positions feed the im2col window as a contiguous slice of the
/// (lane-interleaved, position-major) staged input; border positions
/// gather taps into the class's window buffer with zero padding.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_at<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    k: usize,
    in_ch: usize,
    in_len: usize,
    x: Staged<'_>,
    win: &mut Windows,
    pos: usize,
    out: &mut [i64],
    ovf: &mut u64,
) {
    let xs = match pos.checked_sub(k / 2).filter(|&s| s + k <= in_len) {
        Some(start) => x.cols::<L>(start * in_ch, k * in_ch),
        None => match x {
            Staged::Wide(x) => Staged::Wide(border(x, in_ch * L, k, in_len, pos, &mut win.w64)),
            Staged::I32(x) => Staged::I32(border(x, in_ch * L, k, in_len, pos, &mut win.w32)),
            Staged::Pairs(x) => {
                Staged::Pairs(border(x, in_ch / 2 * L, k, in_len, pos, &mut win.w16))
            }
        },
    };
    call_rows::<L>(d, sig, xs, out, ovf);
}

/// Gathers the im2col windows of [`LANES`] conv output positions into the
/// lane-interleaved layout the `rows8` kernels read: lane `l` is output
/// position `first + l·stride`, and `win[(tap·unit + u)·LANES + l]` is
/// element `u` of input position `first + l·stride − k/2 + tap`, zero
/// outside the frame. An element is a channel (i32) or a channel pair.
#[inline(always)]
fn gather_positions<T: Copy + Default>(
    x: &[T],
    k: usize,
    unit: usize,
    in_len: usize,
    first: usize,
    stride: usize,
    win: &mut [T],
) {
    for l in 0..LANES {
        let pos = first + l * stride;
        for (tap, col) in win.chunks_exact_mut(unit * LANES).enumerate() {
            match (pos + tap).checked_sub(k / 2).filter(|&i| i < in_len) {
                Some(i) => {
                    for (w, &v) in col
                        .chunks_exact_mut(LANES)
                        .zip(&x[i * unit..(i + 1) * unit])
                    {
                        w[l] = v;
                    }
                }
                None => {
                    for w in col.chunks_exact_mut(LANES) {
                        w[l] = T::default();
                    }
                }
            }
        }
    }
}

/// The position-lane block of [`LANES`] outputs from `first` (step
/// `stride`) of a one-frame staged input, in its operand class.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gather<'w>(
    x: Staged<'_>,
    k: usize,
    in_ch: usize,
    in_len: usize,
    first: usize,
    stride: usize,
    win: &'w mut Windows,
) -> Staged<'w> {
    match x {
        Staged::I32(x) => {
            let w = &mut win.w32[..k * in_ch * LANES];
            gather_positions(x, k, in_ch, in_len, first, stride, w);
            Staged::I32(w)
        }
        Staged::Pairs(x) => {
            let w = &mut win.w16[..k * in_ch / 2 * LANES];
            gather_positions(x, k, in_ch / 2, in_len, first, stride, w);
            Staged::Pairs(w)
        }
        Staged::Wide(_) => unreachable!("wide convs run one position at a time"),
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

/// Whether a single frame's conv runs its positions as lanes: every
/// class but wide.
#[inline(always)]
fn position_lanes<const L: usize>(x: Staged<'_>) -> bool {
    L == 1 && !matches!(x, Staged::Wide(_))
}

/// Unfused conv1d over all positions. A single frame in the i32 or pair
/// class runs its positions [`LANES`] at a time: each block goes through
/// `rows8` into `blk` (`rows × LANES`) and is transposed into `dst`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_conv<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    k: usize,
    in_ch: usize,
    in_len: usize,
    x: Staged<'_>,
    win: &mut Windows,
    blk: &mut [i64],
    dst: &mut [i64],
    ovf: &mut u64,
) {
    let rows = d.rows;
    let mut tail = 0;
    if position_lanes::<L>(x) {
        tail = in_len - in_len % LANES;
        let blk = &mut blk[..rows * LANES];
        for base in (0..tail).step_by(LANES) {
            let xs = gather(x, k, in_ch, in_len, base, 1, win);
            call_rows::<LANES>(d, sig, xs, blk, ovf);
            scatter_positions(blk, rows, base, 1, dst);
        }
    }
    for (pos, out) in dst.chunks_exact_mut(rows * L).enumerate().skip(tail) {
        conv_at::<L>(d, sig, k, in_ch, in_len, x, win, pos, out, ovf);
    }
}

/// Fused conv1d → maxpool single pass. `dst` receives the pooled output
/// (`(in_len / pool) × rows` positions); `conv_skip`, when present,
/// receives the full conv output for a later concat.
///
/// A single frame in the i32 or pair class runs blocks of `LANES · pool`
/// positions first: slot `off` of the `pool × rows × LANES` ring takes
/// one `rows8` pass whose lane `l` is position `base + l·pool + off`, so
/// pooled output `base/pool + l` is the max over lane `l` of every slot —
/// the same ring read the batch lanes do.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_conv_pool<const L: usize>(
    d: &CDense,
    sig: &SigmoidTable,
    k: usize,
    in_ch: usize,
    in_len: usize,
    pool: usize,
    x: Staged<'_>,
    win: &mut Windows,
    rowtmp: &mut [i64],
    mut conv_skip: Option<&mut [i64]>,
    dst: &mut [i64],
    ovf: &mut u64,
) {
    let ch = d.rows;
    let slot_n = ch * L;
    let mut tail = 0;
    if position_lanes::<L>(x) {
        let span = LANES * pool;
        tail = in_len - in_len % span;
        for base in (0..tail).step_by(span) {
            for off in 0..pool {
                let slot = &mut rowtmp[off * ch * LANES..(off + 1) * ch * LANES];
                let xs = gather(x, k, in_ch, in_len, base + off, pool, win);
                call_rows::<LANES>(d, sig, xs, slot, ovf);
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
            conv_at::<L>(d, sig, k, in_ch, in_len, x, win, pos, out, ovf);
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
