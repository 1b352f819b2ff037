//! Image-to-column transform and receptive-field offset tables.
//!
//! CMSIS-NN's `arm_convolve_s8` gathers each output position's receptive
//! field into a column buffer (padding positions filled with the input's
//! zero point, so they contribute exactly zero after the offset-corrected
//! MAC), then hands columns to the `mat_mult` kernel.
//!
//! The unpacked engine does *not* materialize columns — the generated code
//! addresses the input directly. For that, [`patch_offsets`] produces, per
//! output position, the flat input offset of every patch element or `None`
//! for padding. Both paths must agree; tests cross-check them.

use crate::shape::ConvGeometry;

/// The im2col column matrix for a single input image (HWC layout).
///
/// `cols[p * patch_len + i]` is patch element `i` of output position `p`
/// (row-major over output positions). Padding elements hold `pad_value`
/// (the input zero point for quantized tensors).
pub fn im2col_i8(input_hwc: &[i8], geom: &ConvGeometry, pad_value: i8) -> Vec<i8> {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    let mut cols = vec![pad_value; oh * ow * patch];
    fill_im2col_i8(input_hwc, geom, pad_value, &mut cols);
    cols
}

/// In-place variant of [`im2col_i8`] reusing a scratch buffer (the engines
/// allocate the column buffer once per layer, as the MCU library would).
pub fn fill_im2col_i8(input_hwc: &[i8], geom: &ConvGeometry, pad_value: i8, cols: &mut [i8]) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    assert_eq!(cols.len(), oh * ow * patch, "column buffer size mismatch");
    assert_eq!(
        input_hwc.len(),
        geom.in_h * geom.in_w * geom.in_c,
        "input size mismatch"
    );

    let mut col_base = 0usize;
    for oy in 0..oh {
        let iy0 = (oy * geom.stride_h) as isize - geom.pad_h as isize;
        for ox in 0..ow {
            let ix0 = (ox * geom.stride_w) as isize - geom.pad_w as isize;
            let mut i = col_base;
            for ky in 0..geom.kernel_h {
                let iy = iy0 + ky as isize;
                if iy < 0 || iy >= geom.in_h as isize {
                    // whole kernel row out of bounds: leave pad_value
                    for _ in 0..geom.kernel_w * geom.in_c {
                        cols[i] = pad_value;
                        i += 1;
                    }
                    continue;
                }
                let row_base = iy as usize * geom.in_w * geom.in_c;
                for kx in 0..geom.kernel_w {
                    let ix = ix0 + kx as isize;
                    if ix < 0 || ix >= geom.in_w as isize {
                        for _ in 0..geom.in_c {
                            cols[i] = pad_value;
                            i += 1;
                        }
                        continue;
                    }
                    let src = row_base + ix as usize * geom.in_c;
                    cols[i..i + geom.in_c].copy_from_slice(&input_hwc[src..src + geom.in_c]);
                    i += geom.in_c;
                }
            }
            col_base += patch;
        }
    }
}

/// im2col directly into a **centered, patch-major (transposed)** i16
/// buffer: `out[i * out_positions + p]` holds patch element `i` of output
/// position `p`, already centered (`x − zp`; `pad_centered` for padding,
/// which is 0 whenever `zp` is representable in i8).
///
/// This is the layout of the compiled-mask conv kernels: per (channel,
/// patch-index) product the kernel broadcasts one weight against the
/// contiguous `positions`-long row `i`, so the inner loop vectorizes over
/// positions and a skipped product skips its whole row. Fusing gather,
/// centering and transposition into one pass also drops the intermediate
/// i8 column buffer of [`fill_im2col_i8`].
///
/// Bit-exact with centering the output of [`fill_im2col_i8`]: tests
/// cross-check element-for-element.
pub fn fill_im2col_centered_t(
    input_hwc: &[i8],
    geom: &ConvGeometry,
    zp: i16,
    pad_centered: i16,
    out: &mut [i16],
) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let positions = oh * ow;
    let patch = geom.patch_len();
    assert_eq!(
        out.len(),
        positions * patch,
        "transposed column buffer size mismatch"
    );
    assert_eq!(
        input_hwc.len(),
        geom.in_h * geom.in_w * geom.in_c,
        "input size mismatch"
    );

    // Patch-element-outer iteration: every output row is written
    // sequentially (the write side dominates the cost of a transposed
    // fill), while the strided reads stay inside the L1-resident input.
    let (in_c, in_w, in_h) = (geom.in_c, geom.in_w, geom.in_h);
    let (sw, sh) = (geom.stride_w, geom.stride_h);
    for ky in 0..geom.kernel_h {
        for kx in 0..geom.kernel_w {
            // Valid ox range: 0 <= ox·sw + kx − pad_w < in_w.
            let lo_num = geom.pad_w as isize - kx as isize;
            let ox_lo = if lo_num > 0 {
                (lo_num as usize).div_ceil(sw)
            } else {
                0
            }
            .min(ow);
            let hi_num = in_w as isize + geom.pad_w as isize - kx as isize;
            let ox_hi = if hi_num <= 0 {
                0
            } else {
                (((hi_num - 1) as usize) / sw + 1).min(ow)
            }
            .max(ox_lo);
            for ci in 0..in_c {
                let i = (ky * geom.kernel_w + kx) * in_c + ci;
                let out_row = &mut out[i * positions..(i + 1) * positions];
                let mut p = 0usize;
                for oy in 0..oh {
                    let iy = (oy * sh) as isize + ky as isize - geom.pad_h as isize;
                    let row = &mut out_row[p..p + ow];
                    p += ow;
                    if iy < 0 || iy >= in_h as isize {
                        row.fill(pad_centered);
                        continue;
                    }
                    row[..ox_lo].fill(pad_centered);
                    row[ox_hi..].fill(pad_centered);
                    if ox_lo == ox_hi {
                        // The kernel column misses the input entirely.
                        continue;
                    }
                    let row_base = iy as usize * in_w * in_c;
                    let mut src = row_base + (ox_lo * sw + kx - geom.pad_w) * in_c + ci;
                    for v in &mut row[ox_lo..ox_hi] {
                        *v = input_hwc[src] as i16 - zp;
                        src += sw * in_c;
                    }
                }
            }
        }
    }
}

/// [`fill_im2col_centered_t`] for a **planar** (channel-major) source:
/// `planar[ci * in_h * in_w + iy * in_w + ix]`. The compiled-mask pipeline
/// keeps activations planar between layers, so for a fixed patch element
/// both the reads (one input row) and the writes (one output row) are
/// contiguous runs.
pub fn fill_im2col_centered_t_planar(
    planar: &[i8],
    geom: &ConvGeometry,
    zp: i16,
    pad_centered: i16,
    out: &mut [i16],
) {
    assert_eq!(
        planar.len(),
        geom.in_h * geom.in_w * geom.in_c,
        "input size mismatch"
    );
    fill_im2col_centered_t_planar_pitched(
        planar,
        geom,
        zp,
        pad_centered,
        out,
        geom.in_h * geom.in_w,
    );
}

/// [`fill_im2col_centered_t_planar`] with an explicit **channel pitch**:
/// channel `ci`'s plane starts at `planar[ci * plane_pitch]` instead of
/// being packed back-to-back. This is the read side of batch-major
/// activations, where a batch of `B` images stores image `b`'s channel `ci`
/// at plane `ci·B + b` — the caller passes the sub-slice starting at image
/// `b`'s first plane and `plane_pitch = B · in_h · in_w`.
pub fn fill_im2col_centered_t_planar_pitched(
    planar: &[i8],
    geom: &ConvGeometry,
    zp: i16,
    pad_centered: i16,
    out: &mut [i16],
    plane_pitch: usize,
) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let positions = oh * ow;
    let patch = geom.patch_len();
    assert_eq!(
        out.len(),
        positions * patch,
        "transposed column buffer size mismatch"
    );
    let plane = geom.in_h * geom.in_w;
    assert!(plane_pitch >= plane, "plane pitch smaller than one plane");
    assert!(
        planar.len() >= (geom.in_c - 1) * plane_pitch + plane,
        "planar view too short for channel pitch"
    );

    let (in_c, in_w, in_h) = (geom.in_c, geom.in_w, geom.in_h);
    let (sw, sh) = (geom.stride_w, geom.stride_h);
    for ky in 0..geom.kernel_h {
        for kx in 0..geom.kernel_w {
            let lo_num = geom.pad_w as isize - kx as isize;
            let ox_lo = if lo_num > 0 {
                (lo_num as usize).div_ceil(sw)
            } else {
                0
            }
            .min(ow);
            let hi_num = in_w as isize + geom.pad_w as isize - kx as isize;
            let ox_hi = if hi_num <= 0 {
                0
            } else {
                (((hi_num - 1) as usize) / sw + 1).min(ow)
            }
            .max(ox_lo);
            for ci in 0..in_c {
                let i = (ky * geom.kernel_w + kx) * in_c + ci;
                let out_row = &mut out[i * positions..(i + 1) * positions];
                let src_plane = &planar[ci * plane_pitch..ci * plane_pitch + plane];
                let mut p = 0usize;
                for oy in 0..oh {
                    let iy = (oy * sh) as isize + ky as isize - geom.pad_h as isize;
                    let row = &mut out_row[p..p + ow];
                    p += ow;
                    if iy < 0 || iy >= in_h as isize {
                        row.fill(pad_centered);
                        continue;
                    }
                    row[..ox_lo].fill(pad_centered);
                    row[ox_hi..].fill(pad_centered);
                    if ox_lo == ox_hi {
                        continue;
                    }
                    let row_base = iy as usize * in_w;
                    let mut src = row_base + ox_lo * sw + kx - geom.pad_w;
                    if sw == 1 {
                        let src_run = &src_plane[src..src + (ox_hi - ox_lo)];
                        for (d, &v) in row[ox_lo..ox_hi].iter_mut().zip(src_run) {
                            *d = v as i16 - zp;
                        }
                    } else {
                        for v in &mut row[ox_lo..ox_hi] {
                            *v = src_plane[src] as i16 - zp;
                            src += sw;
                        }
                    }
                }
            }
        }
    }
}

/// Where the patch elements of one kernel position read when a conv has
/// stride 1 and `ow == in_w`: output lane `p` of a valid row reads element
/// `p + off` of the channel's plane, so a whole half pair row is one
/// shifted copy of a plane plus pad patches.
#[derive(Clone, Copy)]
struct Shift {
    off: isize,
    /// Output rows whose kernel row lands inside the input.
    oy_lo: usize,
    oy_hi: usize,
    /// Output columns whose kernel column lands inside the input.
    ox_lo: usize,
    ox_hi: usize,
    /// Lanes the shifted copy covers: the valid rows, clamped so
    /// `p + off` stays inside the plane (the clamped-off lanes of valid
    /// rows are pad columns). Empty (`p_lo == p_hi`) when no row is valid.
    p_lo: usize,
    p_hi: usize,
}

impl Shift {
    /// The centered value of lane `p` (a source element or padding).
    #[inline(always)]
    fn at(&self, src: &[i8], p: usize, zp: i16, pad_centered: i16) -> i16 {
        if (self.p_lo..self.p_hi).contains(&p) {
            src[(p as isize + self.off) as usize] as i16 - zp
        } else {
            pad_centered
        }
    }

    /// Pad the left/right pad columns of every valid row in half `h` of
    /// the interleaved pair row `dst`.
    #[inline(always)]
    fn pad_columns(&self, dst: &mut [i16], h: usize, ow: usize, pad_centered: i16) {
        for oy in self.oy_lo..self.oy_hi {
            for ox in (0..self.ox_lo).chain(self.ox_hi..ow) {
                dst[2 * (oy * ow + ox) + h] = pad_centered;
            }
        }
    }
}

/// `d[2k] = sa[k] − zp`, `d[2k + 1] = sb[k] − zp`: the interleaved copy
/// at the heart of every shifted pair fill.
#[inline(always)]
fn interleave_centered(d: &mut [i16], sa: &[i8], sb: &[i8], zp: i16) {
    for ((d2, &x), &y) in d.chunks_exact_mut(2).zip(sa).zip(sb) {
        d2[0] = x as i16 - zp;
        d2[1] = y as i16 - zp;
    }
}

/// One pair row of the shifted fill whose halves do not share a kernel
/// position: half `a` and, unless this is the odd tail's lone half
/// (`b = None`, second lane 0), half `b`, each with its source plane.
/// Interleaves over the lanes both shifted copies cover, then fills each
/// half's remaining lanes and pad columns on its own.
fn fill_split_pair(
    dst: &mut [i16],
    a: &Shift,
    pa: &[i8],
    b: Option<(Shift, &[i8])>,
    zp: i16,
    pad_centered: i16,
    ow: usize,
) {
    let positions = dst.len() / 2;
    let (lo, hi) = match b {
        Some((b, _)) => (a.p_lo.max(b.p_lo), a.p_hi.min(b.p_hi)),
        None => (a.p_lo, a.p_hi),
    };
    let (p_lo, p_hi) = if lo < hi { (lo, hi) } else { (0, 0) };
    if p_lo < p_hi {
        let src = |s: &Shift| (p_lo as isize + s.off) as usize..(p_hi as isize + s.off) as usize;
        let sa = &pa[src(a)];
        let d = &mut dst[2 * p_lo..2 * p_hi];
        match b {
            Some((b, pb)) => {
                let sb = &pb[src(&b)];
                interleave_centered(d, sa, sb, zp);
            }
            None => {
                for (d2, &x) in d.chunks_exact_mut(2).zip(sa) {
                    d2[0] = x as i16 - zp;
                    d2[1] = 0;
                }
            }
        }
    }
    for p in (0..p_lo).chain(p_hi..positions) {
        dst[2 * p] = a.at(pa, p, zp, pad_centered);
        dst[2 * p + 1] = match b {
            Some((b, pb)) => b.at(pb, p, zp, pad_centered),
            None => 0,
        };
    }
    a.pad_columns(dst, 0, ow, pad_centered);
    if let Some((b, _)) = b {
        b.pad_columns(dst, 1, ow, pad_centered);
    }
}

/// Fill **pair-interleaved** columns directly from a planar (channel-major)
/// source — the fused fill of the compiled conv pipeline, producing the
/// layout of [`interleave_pair_rows`] without materializing natural rows
/// first. NHWC sources go through [`fill_im2col_pairs_nhwc`], which copies
/// the image into planes and calls this.
///
/// `out` pair row `i` (pitch `2·lanes`, this image's lanes starting at
/// `lane0`) receives patch elements `2i` and `2i+1` elementwise
/// interleaved; channel `ci`'s source plane starts at
/// `planar[ci * plane_pitch]` (batch-major activations pass
/// `plane_pitch = B · in_h · in_w`). A pair past the end of an odd patch
/// gets 0 (its weight slot is always 0).
///
/// For stride-1 convolutions whose output width equals the input width
/// (`kernel_w == 2·pad_w + 1`, every same-padding conv), each half of a
/// pair row is one contiguous shifted copy of a plane, so the fill
/// vectorizes over whole planes instead of per-output-row fragments:
/// * a pair whose halves are adjacent channels of one kernel position
///   shares one shift — one interleaved copy, then whole-row and
///   pad-column patches for both halves at once;
/// * a pair whose halves sit at different kernel positions (the last
///   channel of one, the first of the next), and the odd final half-pair,
///   interleave two shifted copies (or one and zeros) over the lanes both
///   cover, then patch each half's remaining lanes and pad columns alone.
///
/// Same-position pairs keep their own loop: routing them through the
/// split-pair path (per-half edges and pad columns) made conv 1's fill
/// about 1.4× slower in an interleaved micro-benchmark. The shifted walk
/// tracks kernel positions incrementally instead of dividing per pair,
/// which cut conv 2's (8×8 planes) fill by about a fifth in the same
/// benchmark. Other geometries take the general per-half path.
///
/// Bit-exact with [`fill_im2col_centered_t_planar_pitched`] +
/// [`interleave_pair_rows`] (cross-checked by tests).
#[allow(clippy::too_many_arguments)]
pub fn fill_im2col_pairs_planar_pitched(
    planar: &[i8],
    geom: &ConvGeometry,
    zp: i16,
    pad_centered: i16,
    out: &mut [i16],
    lanes: usize,
    lane0: usize,
    plane_pitch: usize,
) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let positions = oh * ow;
    let patch = geom.patch_len();
    let pair_rows = patch.div_ceil(2);
    assert!(lane0 + positions <= lanes, "lane window out of range");
    assert!(
        out.len() >= pair_rows * 2 * lanes,
        "pair-row buffer too short"
    );
    let plane = geom.in_h * geom.in_w;
    assert!(plane_pitch >= plane, "plane pitch smaller than one plane");
    assert!(
        planar.len() >= (geom.in_c - 1) * plane_pitch + plane,
        "planar view too short for channel pitch"
    );

    let (in_c, in_w, in_h) = (geom.in_c, geom.in_w, geom.in_h);
    let (sw, sh) = (geom.stride_w, geom.stride_h);
    let plane_of = |ci: usize| &planar[ci * plane_pitch..ci * plane_pitch + plane];

    if sw == 1 && sh == 1 && ow == in_w {
        // The shift of kernel position `kpos` (row-major over (ky, kx)).
        let shift = |kpos: usize| -> Shift {
            let (ky, kx) = (kpos / geom.kernel_w, kpos % geom.kernel_w);
            let (ph, pw) = (geom.pad_h as isize, geom.pad_w as isize);
            let off = (ky as isize - ph) * in_w as isize + kx as isize - pw;
            let oy_lo = geom.pad_h.saturating_sub(ky).min(oh);
            // Saturating: a kernel row entirely below the input (ky ≥
            // in_h + pad_h) has no valid output rows at all.
            let oy_hi = (in_h + geom.pad_h).saturating_sub(ky).min(oh).max(oy_lo);
            let ox_lo = (pw - kx as isize).clamp(0, ow as isize) as usize;
            let ox_hi = (in_w as isize + pw - kx as isize).clamp(ox_lo as isize, ow as isize);
            // Clamp both ends: with `oh > in_h` the valid rows can end
            // before the plane does even for a negative offset.
            let p_lo = (oy_lo * ow).max((-off).max(0) as usize);
            let p_hi = (oy_hi * ow).min((plane as isize - off).max(0) as usize);
            Shift {
                off,
                oy_lo,
                oy_hi,
                ox_lo,
                ox_hi: ox_hi as usize,
                p_lo,
                p_hi: p_hi.max(p_lo),
            }
        };
        // Pairs walk the kernel positions in order: track the first half's
        // (position, channel) incrementally and recompute a position's
        // shift only when the walk reaches it, which keeps divisions off
        // the per-pair path.
        let (mut kpos, mut ci) = (0usize, 0usize);
        let mut a = shift(0);
        for pair in 0..pair_rows {
            let dst = &mut out
                [pair * 2 * lanes + 2 * lane0..pair * 2 * lanes + 2 * lane0 + 2 * positions];
            let pa = plane_of(ci);
            let has_b = 2 * pair + 1 < patch;
            if has_b && ci + 1 < in_c {
                // Both halves share (ky, kx): one shifted interleaved copy
                // of two adjacent channel planes, then pad patches.
                let pb = plane_of(ci + 1);
                for oy in (0..a.oy_lo).chain(a.oy_hi..oh) {
                    dst[2 * oy * ow..2 * (oy + 1) * ow].fill(pad_centered);
                }
                if a.p_lo < a.p_hi {
                    let src =
                        (a.p_lo as isize + a.off) as usize..(a.p_hi as isize + a.off) as usize;
                    let (sa, sb) = (&pa[src.clone()], &pb[src]);
                    let d = &mut dst[2 * a.p_lo..2 * a.p_hi];
                    interleave_centered(d, sa, sb, zp);
                }
                // Pad columns of every valid row (also covers the clamped
                // span ends — those always fall in pad columns).
                for oy in a.oy_lo..a.oy_hi {
                    for ox in (0..a.ox_lo).chain(a.ox_hi..ow) {
                        dst[2 * (oy * ow + ox)] = pad_centered;
                        dst[2 * (oy * ow + ox) + 1] = pad_centered;
                    }
                }
            } else {
                // The second half is the next position's first channel.
                let b = has_b.then(|| (shift(kpos + 1), plane_of(0)));
                fill_split_pair(dst, &a, pa, b, zp, pad_centered, ow);
            }
            ci += 2;
            if ci >= in_c && pair + 1 < pair_rows {
                while ci >= in_c {
                    ci -= in_c;
                    kpos += 1;
                }
                a = shift(kpos);
            }
        }
        return;
    }

    // General path: each half independently, stride-2 writes.
    // Valid ox range of a kernel column kx.
    let ox_range = |kx: usize| -> (usize, usize) {
        let lo_num = geom.pad_w as isize - kx as isize;
        let lo = if lo_num > 0 {
            (lo_num as usize).div_ceil(sw)
        } else {
            0
        }
        .min(ow);
        let hi_num = in_w as isize + geom.pad_w as isize - kx as isize;
        let hi = if hi_num <= 0 {
            0
        } else {
            (((hi_num - 1) as usize) / sw + 1).min(ow)
        }
        .max(lo);
        (lo, hi)
    };
    for pair in 0..pair_rows {
        let e0 = 2 * pair;
        let dst =
            &mut out[pair * 2 * lanes + 2 * lane0..pair * 2 * lanes + 2 * lane0 + 2 * positions];
        for h in 0..2usize {
            let e = e0 + h;
            if e >= patch {
                for p in 0..positions {
                    dst[2 * p + h] = 0;
                }
                continue;
            }
            let (ky, rem) = (e / (geom.kernel_w * in_c), e % (geom.kernel_w * in_c));
            let (kx, ci) = (rem / in_c, rem % in_c);
            let src_plane = plane_of(ci);
            let (ox_lo, ox_hi) = ox_range(kx);
            let mut p = 0usize;
            for oy in 0..oh {
                let iy = (oy * sh) as isize + ky as isize - geom.pad_h as isize;
                let row = &mut dst[2 * p..2 * (p + ow)];
                p += ow;
                if iy < 0 || iy >= in_h as isize {
                    for ox in 0..ow {
                        row[2 * ox + h] = pad_centered;
                    }
                    continue;
                }
                for ox in (0..ox_lo).chain(ox_hi..ow) {
                    row[2 * ox + h] = pad_centered;
                }
                if ox_lo == ox_hi {
                    continue;
                }
                let row_base = iy as usize * in_w;
                let mut src = row_base + ox_lo * sw + kx - geom.pad_w;
                for ox in ox_lo..ox_hi {
                    row[2 * ox + h] = src_plane[src] as i16 - zp;
                    src += sw;
                }
            }
        }
    }
}

/// [`fill_im2col_pairs_planar_pitched`] for one **NHWC** image: copy it
/// into channel planes (`planes`, caller scratch of at least
/// `in_c · in_h · in_w` bytes), then fill from those. The copy costs one
/// pass over the input bytes; filling from planes makes every half pair
/// row a contiguous shifted run instead of a stride-`in_c` gather.
#[allow(clippy::too_many_arguments)]
pub fn fill_im2col_pairs_nhwc(
    input_hwc: &[i8],
    geom: &ConvGeometry,
    zp: i16,
    pad_centered: i16,
    out: &mut [i16],
    lanes: usize,
    lane0: usize,
    planes: &mut [i8],
) {
    let plane = geom.in_h * geom.in_w;
    let in_c = geom.in_c;
    assert_eq!(input_hwc.len(), plane * in_c, "input size mismatch");
    let planes = &mut planes[..plane * in_c];
    for (ci, dst) in planes.chunks_exact_mut(plane).enumerate() {
        for (d, px) in dst.iter_mut().zip(input_hwc.chunks_exact(in_c)) {
            *d = px[ci];
        }
    }
    fill_im2col_pairs_planar_pitched(planes, geom, zp, pad_centered, out, lanes, lane0, plane);
}

/// Interleave transposed column rows into the **pair-row** layout of the
/// SMLAD/VNNI-shaped conv kernels, at a lane offset inside a (possibly
/// batched) destination.
///
/// Source: natural transposed rows, `rows[i * positions + p]` (patch
/// element `i`, output position `p`). Destination: pair row `i` holds patch
/// elements `2i` and `2i+1` interleaved elementwise —
/// `out[i * 2·lanes + 2·(lane0 + p)] = rows[2i · positions + p]` and
/// `out[… + 1] = rows[(2i+1) · positions + p]` — so one weight-pair
/// broadcast consumes both products of a lane with a single i16-pair
/// multiply-add. For odd `patch` the final pair's second half is
/// zero-filled; its weight slot is always 0, so the value never matters
/// (kept at 0 for determinism).
///
/// `lanes` is the destination's lane count per pair row (`B · positions`
/// for a batch of `B` images); `lane0` is where this image's lanes start.
pub fn interleave_pair_rows(
    rows: &[i16],
    positions: usize,
    patch: usize,
    out: &mut [i16],
    lanes: usize,
    lane0: usize,
) {
    assert!(rows.len() >= positions * patch, "source rows too short");
    assert!(lane0 + positions <= lanes, "lane window out of range");
    let pair_rows = patch.div_ceil(2);
    assert!(
        out.len() >= pair_rows * 2 * lanes,
        "pair-row buffer too short"
    );
    for i in 0..patch / 2 {
        let a = &rows[(2 * i) * positions..(2 * i + 1) * positions];
        let b = &rows[(2 * i + 1) * positions..(2 * i + 2) * positions];
        let dst = &mut out[i * 2 * lanes + 2 * lane0..i * 2 * lanes + 2 * lane0 + 2 * positions];
        for p in 0..positions {
            dst[2 * p] = a[p];
            dst[2 * p + 1] = b[p];
        }
    }
    if patch % 2 == 1 {
        let i = patch / 2;
        let a = &rows[(patch - 1) * positions..patch * positions];
        let dst = &mut out[i * 2 * lanes + 2 * lane0..i * 2 * lanes + 2 * lane0 + 2 * positions];
        for p in 0..positions {
            dst[2 * p] = a[p];
            dst[2 * p + 1] = 0;
        }
    }
}

/// f32 variant used by the training substrate.
pub fn im2col_f32(input_hwc: &[f32], geom: &ConvGeometry) -> Vec<f32> {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    let mut cols = vec![0.0f32; oh * ow * patch];
    let mut col_base = 0usize;
    for oy in 0..oh {
        let iy0 = (oy * geom.stride_h) as isize - geom.pad_h as isize;
        for ox in 0..ow {
            let ix0 = (ox * geom.stride_w) as isize - geom.pad_w as isize;
            let mut i = col_base;
            for ky in 0..geom.kernel_h {
                let iy = iy0 + ky as isize;
                for kx in 0..geom.kernel_w {
                    let ix = ix0 + kx as isize;
                    if iy < 0 || iy >= geom.in_h as isize || ix < 0 || ix >= geom.in_w as isize {
                        i += geom.in_c;
                        continue;
                    }
                    let src = (iy as usize * geom.in_w + ix as usize) * geom.in_c;
                    cols[i..i + geom.in_c].copy_from_slice(&input_hwc[src..src + geom.in_c]);
                    i += geom.in_c;
                }
            }
            col_base += patch;
        }
    }
    cols
}

/// Per-output-position flat input offsets for direct (im2col-free)
/// addressing, as the unpacked generated code uses.
///
/// Returns a vector of length `out_positions * patch_len`; `usize::MAX`
/// marks a padding element (the generated code simply emits no instruction
/// for those, since `pad` contributes zero after offset correction).
pub const PAD_OFFSET: usize = usize::MAX;

/// Build the offset table. Patch element order matches [`im2col_i8`]:
/// `(ky, kx, ci)` row-major.
pub fn patch_offsets(geom: &ConvGeometry) -> Vec<usize> {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    let mut offs = vec![PAD_OFFSET; oh * ow * patch];
    let mut base = 0usize;
    for oy in 0..oh {
        let iy0 = (oy * geom.stride_h) as isize - geom.pad_h as isize;
        for ox in 0..ow {
            let ix0 = (ox * geom.stride_w) as isize - geom.pad_w as isize;
            let mut i = base;
            for ky in 0..geom.kernel_h {
                let iy = iy0 + ky as isize;
                for kx in 0..geom.kernel_w {
                    let ix = ix0 + kx as isize;
                    let inside =
                        iy >= 0 && iy < geom.in_h as isize && ix >= 0 && ix < geom.in_w as isize;
                    for ci in 0..geom.in_c {
                        if inside {
                            offs[i] = (iy as usize * geom.in_w + ix as usize) * geom.in_c + ci;
                        }
                        i += 1;
                    }
                }
            }
            base += patch;
        }
    }
    offs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geom() -> ConvGeometry {
        ConvGeometry {
            in_h: 4,
            in_w: 4,
            in_c: 2,
            out_c: 3,
            kernel_h: 3,
            kernel_w: 3,
            pad_h: 1,
            pad_w: 1,
            stride_h: 1,
            stride_w: 1,
        }
    }

    #[test]
    fn im2col_center_patch_is_exact_copy() {
        let geom = small_geom();
        let input: Vec<i8> = (0..32).map(|v| v as i8).collect();
        let cols = im2col_i8(&input, &geom, -9);
        let patch = geom.patch_len();
        // Output position (1,1): receptive field rows 0..3, cols 0..3, fully inside.
        let p = (geom.out_w() + 1) * patch;
        let col = &cols[p..p + patch];
        let mut want = Vec::new();
        for ky in 0..3 {
            for kx in 0..3 {
                for ci in 0..2 {
                    want.push(input[(ky * 4 + kx) * 2 + ci]);
                }
            }
        }
        assert_eq!(col, &want[..]);
    }

    #[test]
    fn im2col_corners_are_padded() {
        let geom = small_geom();
        let input: Vec<i8> = vec![1; 32];
        let cols = im2col_i8(&input, &geom, -9);
        let patch = geom.patch_len();
        // Output (0,0): kernel row 0 and kernel col 0 fall outside.
        let col = &cols[0..patch];
        // first kernel row (3 positions * 2 ch) is padding
        assert!(col[..6].iter().all(|&v| v == -9));
        // kernel (1,0) also padding
        assert!(col[6..8].iter().all(|&v| v == -9));
        // kernel (1,1) maps to input (0,0)
        assert_eq!(&col[8..10], &[1, 1]);
    }

    #[test]
    fn offsets_agree_with_im2col() {
        let geom = small_geom();
        let input: Vec<i8> = (0..32).map(|v| (v as i8).wrapping_mul(3)).collect();
        let pad = 42_i8;
        let cols = im2col_i8(&input, &geom, pad);
        let offs = patch_offsets(&geom);
        assert_eq!(cols.len(), offs.len());
        for (i, &o) in offs.iter().enumerate() {
            let want = if o == PAD_OFFSET { pad } else { input[o] };
            assert_eq!(cols[i], want, "element {i}");
        }
    }

    #[test]
    fn transposed_centered_matches_plain_im2col() {
        let geoms = [
            small_geom(),
            // kernel 1, no padding
            ConvGeometry {
                in_h: 5,
                in_w: 4,
                in_c: 3,
                out_c: 2,
                kernel_h: 1,
                kernel_w: 1,
                pad_h: 0,
                pad_w: 0,
                stride_h: 1,
                stride_w: 1,
            },
            // strided with padding
            ConvGeometry {
                in_h: 7,
                in_w: 6,
                in_c: 2,
                out_c: 2,
                kernel_h: 3,
                kernel_w: 3,
                pad_h: 1,
                pad_w: 1,
                stride_h: 2,
                stride_w: 2,
            },
            // wide kernel exceeding half the input
            ConvGeometry {
                in_h: 4,
                in_w: 4,
                in_c: 1,
                out_c: 1,
                kernel_h: 5,
                kernel_w: 5,
                pad_h: 2,
                pad_w: 2,
                stride_h: 1,
                stride_w: 1,
            },
        ];
        for (g, geom) in geoms.iter().enumerate() {
            let len = geom.in_h * geom.in_w * geom.in_c;
            let input: Vec<i8> = (0..len).map(|v| (v as i8).wrapping_mul(5)).collect();
            let zp = -3i16;
            let pad = zp.clamp(-128, 127) as i8;
            let cols = im2col_i8(&input, geom, pad);
            let positions = geom.out_positions();
            let patch = geom.patch_len();
            let mut t = vec![99i16; positions * patch];
            fill_im2col_centered_t(&input, geom, zp, pad as i16 - zp, &mut t);
            // Planar variant on the channel-major permutation of the input.
            let plane = geom.in_h * geom.in_w;
            let mut planar = vec![0i8; len];
            for pix in 0..plane {
                for ci in 0..geom.in_c {
                    planar[ci * plane + pix] = input[pix * geom.in_c + ci];
                }
            }
            let mut tp = vec![99i16; positions * patch];
            fill_im2col_centered_t_planar(&planar, geom, zp, pad as i16 - zp, &mut tp);
            for p in 0..positions {
                for i in 0..patch {
                    let want = cols[p * patch + i] as i16 - zp;
                    assert_eq!(t[i * positions + p], want, "geom {g} p {p} i {i}");
                    assert_eq!(tp[i * positions + p], want, "planar geom {g} p {p} i {i}");
                }
            }
        }
    }

    #[test]
    fn pitched_planar_fill_matches_packed_planar_fill() {
        let geom = small_geom();
        let len = geom.in_h * geom.in_w * geom.in_c;
        let plane = geom.in_h * geom.in_w;
        let positions = geom.out_positions();
        let patch = geom.patch_len();
        let planar: Vec<i8> = (0..len).map(|v| (v as i8).wrapping_mul(11)).collect();
        let zp = 4i16;
        let mut want = vec![0i16; positions * patch];
        fill_im2col_centered_t_planar(&planar, &geom, zp, 0, &mut want);
        // Scatter the packed planes into a pitched buffer (pitch = 3 planes)
        // and check the pitched fill reads through the gaps identically.
        let pitch = 3 * plane;
        let mut spread = vec![0i8; (geom.in_c - 1) * pitch + plane];
        for ci in 0..geom.in_c {
            spread[ci * pitch..ci * pitch + plane]
                .copy_from_slice(&planar[ci * plane..(ci + 1) * plane]);
        }
        let mut got = vec![0i16; positions * patch];
        fill_im2col_centered_t_planar_pitched(&spread, &geom, zp, 0, &mut got, pitch);
        assert_eq!(got, want);
    }

    #[allow(clippy::too_many_arguments)]
    fn conv_geom(
        in_h: usize,
        in_w: usize,
        in_c: usize,
        (kernel_h, kernel_w): (usize, usize),
        (pad_h, pad_w): (usize, usize),
        (stride_h, stride_w): (usize, usize),
    ) -> ConvGeometry {
        ConvGeometry {
            in_h,
            in_w,
            in_c,
            out_c: 1,
            kernel_h,
            kernel_w,
            pad_h,
            pad_w,
            stride_h,
            stride_w,
        }
    }

    /// SplitMix64 step: a dependency-free seeded stream for the sweeps.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Check both fused pair fills (planar pitched and NHWC) of one random
    /// image against the two-pass reference (natural transposed rows, then
    /// [`interleave_pair_rows`]), over the whole lane-offset destination:
    /// lanes outside the image's window must stay untouched.
    fn check_pair_fills(geom: &ConvGeometry, rng: &mut u64, ctx: &str) {
        let plane = geom.in_h * geom.in_w;
        let positions = geom.out_positions();
        let patch = geom.patch_len();
        let pair_rows = patch.div_ceil(2);
        let nhwc: Vec<i8> = (0..plane * geom.in_c)
            .map(|_| splitmix(rng) as i8)
            .collect();
        // Pitched planes with junk in the gaps (batch-like source).
        let pitch = 2 * plane + 1;
        let mut planar = vec![0x55i8; (geom.in_c - 1) * pitch + plane];
        for pix in 0..plane {
            for ci in 0..geom.in_c {
                planar[ci * pitch + pix] = nhwc[pix * geom.in_c + ci];
            }
        }
        let zp = (splitmix(rng) % 256) as i16 - 128;
        let pad = 3i16;
        let lanes = positions + 5;
        let lane0 = 3usize;
        const UNTOUCHED: i16 = -7777;

        let mut rows = vec![0i16; positions * patch];
        fill_im2col_centered_t(&nhwc, geom, zp, pad, &mut rows);
        let mut rows_planar = vec![0i16; positions * patch];
        fill_im2col_centered_t_planar_pitched(&planar, geom, zp, pad, &mut rows_planar, pitch);
        assert_eq!(rows_planar, rows, "{ctx}: reference fills disagree");
        let mut want = vec![UNTOUCHED; pair_rows * 2 * lanes];
        interleave_pair_rows(&rows, positions, patch, &mut want, lanes, lane0);

        let mut from_planar = vec![UNTOUCHED; want.len()];
        fill_im2col_pairs_planar_pitched(
            &planar,
            geom,
            zp,
            pad,
            &mut from_planar,
            lanes,
            lane0,
            pitch,
        );
        let mut from_nhwc = vec![UNTOUCHED; want.len()];
        let mut planes = vec![0x55i8; plane * geom.in_c + 3];
        fill_im2col_pairs_nhwc(
            &nhwc,
            geom,
            zp,
            pad,
            &mut from_nhwc,
            lanes,
            lane0,
            &mut planes,
        );
        for (entry, got) in [("planar", &from_planar), ("nhwc", &from_nhwc)] {
            if let Some(i) = got.iter().zip(&want).position(|(g, w)| g != w) {
                panic!(
                    "{ctx} {geom:?}: {entry} fill differs at pair row {}, lane {}, half {}: \
                     got {}, want {}",
                    i / (2 * lanes),
                    (i % (2 * lanes)) / 2,
                    i % 2,
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn fused_pair_fill_matches_two_pass_reference() {
        // Direct cases, one per fill path. `ow == in_w` with stride 1 takes
        // the shifted fast path: even channel counts give same-position
        // pairs only; odd ones add cross-position pairs (a position's last
        // channel with the next one's first), and an odd patch adds the
        // lone final half-pair.
        let direct = [
            // Same-position pairs only, even patch.
            conv_geom(6, 6, 4, (3, 3), (1, 1), (1, 1)),
            // Conv-0 shape of the zoo models: cross pairs + odd tail.
            conv_geom(32, 32, 3, (3, 3), (1, 1), (1, 1)),
            conv_geom(5, 7, 3, (3, 3), (1, 1), (1, 1)),
            // One channel: every pair crosses positions; odd tail.
            conv_geom(4, 4, 1, (5, 5), (2, 2), (1, 1)),
            // 1×1 kernel: same-position pairs, then the odd tail.
            conv_geom(4, 4, 5, (1, 1), (0, 0), (1, 1)),
            // Cross pairs stepping across a wide kernel row.
            conv_geom(3, 9, 5, (3, 5), (1, 2), (1, 1)),
            // Padding rows above and below a 1-tall kernel (oh > in_h).
            conv_geom(3, 4, 3, (1, 3), (2, 1), (1, 1)),
            // Kernel taller than the padded input: bottom kernel rows have
            // no valid output rows (regression: oy_hi/p_hi underflow, and
            // an out-of-bounds shifted read when a whole kernel row fell
            // outside a one-row input), same-position and cross pairs.
            conv_geom(1, 5, 2, (5, 5), (2, 2), (1, 1)),
            conv_geom(1, 5, 3, (5, 5), (2, 2), (1, 1)),
            // General per-half path: strides and `ow != in_w`.
            conv_geom(7, 6, 2, (3, 3), (1, 1), (2, 2)),
            conv_geom(7, 6, 3, (3, 3), (1, 1), (2, 1)),
            conv_geom(6, 6, 2, (3, 3), (0, 0), (1, 1)),
        ];
        let mut rng = 0x1f2e_3d4c_u64;
        for (g, geom) in direct.iter().enumerate() {
            check_pair_fills(geom, &mut rng, &format!("direct {g}"));
        }

        // Seeded sweep: in_c 1–5, kernel 1–5 per axis, pad 0–2, stride
        // 1–2, input 1–9 per axis. Every other draw is forced onto the
        // shifted path (stride 1, odd kernel width, same padding).
        let (mut shifted, mut cross, mut odd) = (0, 0, 0);
        let mut g = 0;
        while g < 3000 {
            let mut draw = |lo: u64, hi: u64| (lo + splitmix(&mut rng) % (hi - lo + 1)) as usize;
            let (in_c, in_h, in_w) = (draw(1, 5), draw(1, 9), draw(1, 9));
            let (kh, ph, sh) = (draw(1, 5), draw(0, 2), draw(1, 2));
            let (kw, pw, sw) = if g % 2 == 0 {
                let kw = 2 * draw(0, 2) + 1;
                (kw, kw / 2, 1)
            } else {
                (draw(1, 5), draw(0, 2), draw(1, 2))
            };
            if in_h + 2 * ph < kh || in_w + 2 * pw < kw {
                continue;
            }
            let geom = conv_geom(in_h, in_w, in_c, (kh, kw), (ph, pw), (sh, sw));
            if sh == 1 && sw == 1 && geom.out_w() == in_w {
                shifted += 1;
                cross += usize::from(in_c % 2 == 1 && geom.patch_len() > 1);
                odd += geom.patch_len() % 2;
            }
            check_pair_fills(&geom, &mut rng, &format!("sweep {g}"));
            g += 1;
        }
        assert!(
            shifted > 500 && cross > 200 && odd > 200,
            "sweep coverage: {shifted} shifted, {cross} with cross pairs, {odd} odd"
        );
    }

    #[test]
    fn pair_interleave_round_trips_rows() {
        // Odd patch length exercises the zero-filled final half-pair.
        for (positions, patch) in [(7usize, 5usize), (8, 6), (1, 1)] {
            let rows: Vec<i16> = (0..positions * patch).map(|v| v as i16 - 20).collect();
            // Batched destination: 2 images' lanes, this image at lane 3.
            let lanes = positions + 5;
            let pair_rows = patch.div_ceil(2);
            let mut out = vec![77i16; pair_rows * 2 * lanes];
            interleave_pair_rows(&rows, positions, patch, &mut out, lanes, 3);
            for i in 0..pair_rows {
                for p in 0..positions {
                    let got0 = out[i * 2 * lanes + 2 * (3 + p)];
                    let got1 = out[i * 2 * lanes + 2 * (3 + p) + 1];
                    assert_eq!(got0, rows[(2 * i) * positions + p], "even {i} {p}");
                    let want1 = if 2 * i + 1 < patch {
                        rows[(2 * i + 1) * positions + p]
                    } else {
                        0
                    };
                    assert_eq!(got1, want1, "odd {i} {p}");
                }
            }
        }
    }

    #[test]
    fn strided_no_padding() {
        let geom = ConvGeometry {
            in_h: 4,
            in_w: 4,
            in_c: 1,
            out_c: 1,
            kernel_h: 2,
            kernel_w: 2,
            pad_h: 0,
            pad_w: 0,
            stride_h: 2,
            stride_w: 2,
        };
        let input: Vec<i8> = (0..16).map(|v| v as i8).collect();
        let cols = im2col_i8(&input, &geom, 0);
        assert_eq!(geom.out_h(), 2);
        assert_eq!(cols.len(), 4 * 4);
        // position (0,0): input (0,0),(0,1),(1,0),(1,1) = 0,1,4,5
        assert_eq!(&cols[0..4], &[0, 1, 4, 5]);
        // position (1,1): input (2,2),(2,3),(3,2),(3,3) = 10,11,14,15
        assert_eq!(&cols[12..16], &[10, 11, 14, 15]);
    }

    #[test]
    fn f32_matches_i8_structure() {
        let geom = small_geom();
        let input_i8: Vec<i8> = (0..32).map(|v| v as i8).collect();
        let input_f32: Vec<f32> = input_i8.iter().map(|&v| v as f32).collect();
        let a = im2col_i8(&input_i8, &geom, 0);
        let b = im2col_f32(&input_f32, &geom);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(*x as f32, *y);
        }
    }
}
