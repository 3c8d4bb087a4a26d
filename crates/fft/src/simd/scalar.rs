//! Split-layout scalar stage kernels.
//!
//! One-lane versions of the butterfly stages [`super::SimdPlan`] schedules:
//! they run the *leading* narrow stages (`m` below the vector width) inside
//! a vector plan, and the whole schedule of a pencil tile
//! ([`crate::tile::TileFft`]) wherever the variant is scalar — builds
//! without the `simd` feature, `LCC_SIMD=off`, forced-scalar planners. Same
//! split `re[]`/`im[]` layout, same
//! packed twiddle tables, same operation order as the vector kernels —
//! only the lane width differs.
//!
//! `FWD` selects the ±i rotation sign at monomorphization time:
//! forward multiplies by −i (`(re, im) → (im, −re)`), inverse by +i.

// lcc-lint: hot-path — butterfly kernel; allocation-free by construction.

use std::f64::consts::FRAC_1_SQRT_2;

use crate::complex::Complex64;

#[inline(always)]
fn cmul(ar: f64, ai: f64, br: f64, bi: f64) -> (f64, f64) {
    (ar * br - ai * bi, ar * bi + ai * br)
}

/// ±i rotation: forward (−i) maps `(re, im)` to `(im, −re)`.
#[inline(always)]
fn rot<const FWD: bool>(re: f64, im: f64) -> (f64, f64) {
    if FWD {
        (im, -re)
    } else {
        (-im, re)
    }
}

/// Fused permute + first radix-2 stage (`m = 1`, unit twiddles): gathers
/// the digit-reversed inputs and applies the butterfly while the values
/// are in registers, so the first stage costs no extra memory pass.
pub(crate) fn fused_first_r2(src: &[Complex64], perm: &[u32], re: &mut [f64], im: &mut [f64]) {
    for ((p, rc), ic) in perm
        .chunks_exact(2)
        .zip(re.chunks_exact_mut(2))
        .zip(im.chunks_exact_mut(2))
    {
        let a = src[p[0] as usize];
        let b = src[p[1] as usize];
        rc[0] = a.re + b.re;
        ic[0] = a.im + b.im;
        rc[1] = a.re - b.re;
        ic[1] = a.im - b.im;
    }
}

/// Fused permute + first radix-4 stage (`m = 1`, unit twiddles).
pub(crate) fn fused_first_r4<const FWD: bool>(
    src: &[Complex64],
    perm: &[u32],
    re: &mut [f64],
    im: &mut [f64],
) {
    for ((p, rc), ic) in perm
        .chunks_exact(4)
        .zip(re.chunks_exact_mut(4))
        .zip(im.chunks_exact_mut(4))
    {
        let a = src[p[0] as usize];
        let b = src[p[1] as usize];
        let c = src[p[2] as usize];
        let d = src[p[3] as usize];
        let (t0r, t0i) = (a.re + c.re, a.im + c.im);
        let (t1r, t1i) = (a.re - c.re, a.im - c.im);
        let (t2r, t2i) = (b.re + d.re, b.im + d.im);
        let (t3r, t3i) = rot::<FWD>(b.re - d.re, b.im - d.im);
        rc[0] = t0r + t2r;
        ic[0] = t0i + t2i;
        rc[1] = t1r + t3r;
        ic[1] = t1i + t3i;
        rc[2] = t0r - t2r;
        ic[2] = t0i - t2i;
        rc[3] = t1r - t3r;
        ic[3] = t1i - t3i;
    }
}

/// Fused permute + first radix-8 stage (`m = 1`, unit twiddles): same
/// even/odd 4-point decomposition as [`stage_r8`], minus the twiddle
/// multiplies.
pub(crate) fn fused_first_r8<const FWD: bool>(
    src: &[Complex64],
    perm: &[u32],
    re: &mut [f64],
    im: &mut [f64],
) {
    for ((p, rc), ic) in perm
        .chunks_exact(8)
        .zip(re.chunks_exact_mut(8))
        .zip(im.chunks_exact_mut(8))
    {
        let a = src[p[0] as usize];
        let b = src[p[1] as usize];
        let c = src[p[2] as usize];
        let d = src[p[3] as usize];
        let e = src[p[4] as usize];
        let f = src[p[5] as usize];
        let g = src[p[6] as usize];
        let h = src[p[7] as usize];

        // Even 4-point DFT over (a, c, e, g).
        let (t0r, t0i) = (a.re + e.re, a.im + e.im);
        let (t1r, t1i) = (a.re - e.re, a.im - e.im);
        let (t2r, t2i) = (c.re + g.re, c.im + g.im);
        let (t3r, t3i) = rot::<FWD>(c.re - g.re, c.im - g.im);
        let (e0r, e0i) = (t0r + t2r, t0i + t2i);
        let (e1r, e1i) = (t1r + t3r, t1i + t3i);
        let (e2r, e2i) = (t0r - t2r, t0i - t2i);
        let (e3r, e3i) = (t1r - t3r, t1i - t3i);

        // Odd 4-point DFT over (b, d, f, h).
        let (u0r, u0i) = (b.re + f.re, b.im + f.im);
        let (u1r, u1i) = (b.re - f.re, b.im - f.im);
        let (u2r, u2i) = (d.re + h.re, d.im + h.im);
        let (u3r, u3i) = rot::<FWD>(d.re - h.re, d.im - h.im);
        let (o0r, o0i) = (u0r + u2r, u0i + u2i);
        let (o1r, o1i) = (u1r + u3r, u1i + u3i);
        let (o2r, o2i) = (u0r - u2r, u0i - u2i);
        let (o3r, o3i) = (u1r - u3r, u1i - u3i);

        // Combine through w8^q: w8^1·z = (z + rot(z))/√2,
        // w8^2·z = rot(z), w8^3·z = (rot(z) − z)/√2.
        let (r1r, r1i) = rot::<FWD>(o1r, o1i);
        let (w1r, w1i) = ((o1r + r1r) * FRAC_1_SQRT_2, (o1i + r1i) * FRAC_1_SQRT_2);
        let (w2r, w2i) = rot::<FWD>(o2r, o2i);
        let (r3r, r3i) = rot::<FWD>(o3r, o3i);
        let (w3r, w3i) = ((r3r - o3r) * FRAC_1_SQRT_2, (r3i - o3i) * FRAC_1_SQRT_2);

        rc[0] = e0r + o0r;
        ic[0] = e0i + o0i;
        rc[1] = e1r + w1r;
        ic[1] = e1i + w1i;
        rc[2] = e2r + w2r;
        ic[2] = e2i + w2i;
        rc[3] = e3r + w3r;
        ic[3] = e3i + w3i;
        rc[4] = e0r - o0r;
        ic[4] = e0i - o0i;
        rc[5] = e1r - w1r;
        ic[5] = e1i - w1i;
        rc[6] = e2r - w2r;
        ic[6] = e2i - w2i;
        rc[7] = e3r - w3r;
        ic[7] = e3i - w3i;
    }
}

/// Radix-2 stage: blocks of `2m`, butterflies `a ± w·b`.
pub(crate) fn stage_r2(re: &mut [f64], im: &mut [f64], m: usize, twre: &[f64], twim: &[f64]) {
    let n = re.len();
    let mut base = 0;
    while base < n {
        for j in 0..m {
            let i0 = base + j;
            let i1 = i0 + m;
            let (br, bi) = cmul(re[i1], im[i1], twre[j], twim[j]);
            let (ar, ai) = (re[i0], im[i0]);
            re[i0] = ar + br;
            im[i0] = ai + bi;
            re[i1] = ar - br;
            im[i1] = ai - bi;
        }
        base += 2 * m;
    }
}

/// Radix-4 stage: blocks of `4m`; the internal factor-of-`i` rotation is a
/// component swap plus sign flip.
pub(crate) fn stage_r4<const FWD: bool>(
    re: &mut [f64],
    im: &mut [f64],
    m: usize,
    twre: &[f64],
    twim: &[f64],
) {
    let n = re.len();
    let mut base = 0;
    while base < n {
        for j in 0..m {
            let i0 = base + j;
            let (i1, i2, i3) = (i0 + m, i0 + 2 * m, i0 + 3 * m);
            let (ar, ai) = (re[i0], im[i0]);
            let (br, bi) = cmul(re[i1], im[i1], twre[j], twim[j]);
            let (cr, ci) = cmul(re[i2], im[i2], twre[m + j], twim[m + j]);
            let (dr, di) = cmul(re[i3], im[i3], twre[2 * m + j], twim[2 * m + j]);
            let (t0r, t0i) = (ar + cr, ai + ci);
            let (t1r, t1i) = (ar - cr, ai - ci);
            let (t2r, t2i) = (br + dr, bi + di);
            let (t3r, t3i) = rot::<FWD>(br - dr, bi - di);
            re[i0] = t0r + t2r;
            im[i0] = t0i + t2i;
            re[i1] = t1r + t3r;
            im[i1] = t1i + t3i;
            re[i2] = t0r - t2r;
            im[i2] = t0i - t2i;
            re[i3] = t1r - t3r;
            im[i3] = t1i - t3i;
        }
        base += 4 * m;
    }
}

/// Radix-8 stage: two 4-point DFTs (even/odd inputs) combined through the
/// eighth roots of unity. `w8^{±1}` and `w8^{±3}` multiplications reduce to
/// a rotation, an add/sub, and a `1/√2` scale — no general complex multiply
/// beyond the twiddle factors.
pub(crate) fn stage_r8<const FWD: bool>(
    re: &mut [f64],
    im: &mut [f64],
    m: usize,
    twre: &[f64],
    twim: &[f64],
) {
    let n = re.len();
    let mut base = 0;
    while base < n {
        for j in 0..m {
            let i0 = base + j;
            let (ar, ai) = (re[i0], im[i0]);
            let (br, bi) = cmul(re[i0 + m], im[i0 + m], twre[j], twim[j]);
            let (cr, ci) = cmul(re[i0 + 2 * m], im[i0 + 2 * m], twre[m + j], twim[m + j]);
            let (dr, di) = cmul(
                re[i0 + 3 * m],
                im[i0 + 3 * m],
                twre[2 * m + j],
                twim[2 * m + j],
            );
            let (er, ei) = cmul(
                re[i0 + 4 * m],
                im[i0 + 4 * m],
                twre[3 * m + j],
                twim[3 * m + j],
            );
            let (fr, fi) = cmul(
                re[i0 + 5 * m],
                im[i0 + 5 * m],
                twre[4 * m + j],
                twim[4 * m + j],
            );
            let (gr, gi) = cmul(
                re[i0 + 6 * m],
                im[i0 + 6 * m],
                twre[5 * m + j],
                twim[5 * m + j],
            );
            let (hr, hi) = cmul(
                re[i0 + 7 * m],
                im[i0 + 7 * m],
                twre[6 * m + j],
                twim[6 * m + j],
            );

            // Even 4-point DFT over (a, c, e, g).
            let (t0r, t0i) = (ar + er, ai + ei);
            let (t1r, t1i) = (ar - er, ai - ei);
            let (t2r, t2i) = (cr + gr, ci + gi);
            let (t3r, t3i) = rot::<FWD>(cr - gr, ci - gi);
            let (e0r, e0i) = (t0r + t2r, t0i + t2i);
            let (e1r, e1i) = (t1r + t3r, t1i + t3i);
            let (e2r, e2i) = (t0r - t2r, t0i - t2i);
            let (e3r, e3i) = (t1r - t3r, t1i - t3i);

            // Odd 4-point DFT over (b, d, f, h).
            let (u0r, u0i) = (br + fr, bi + fi);
            let (u1r, u1i) = (br - fr, bi - fi);
            let (u2r, u2i) = (dr + hr, di + hi);
            let (u3r, u3i) = rot::<FWD>(dr - hr, di - hi);
            let (o0r, o0i) = (u0r + u2r, u0i + u2i);
            let (o1r, o1i) = (u1r + u3r, u1i + u3i);
            let (o2r, o2i) = (u0r - u2r, u0i - u2i);
            let (o3r, o3i) = (u1r - u3r, u1i - u3i);

            // Combine through w8^q: w8^1·z = (z + rot(z))/√2,
            // w8^2·z = rot(z), w8^3·z = (rot(z) − z)/√2.
            let (r1r, r1i) = rot::<FWD>(o1r, o1i);
            let (w1r, w1i) = ((o1r + r1r) * FRAC_1_SQRT_2, (o1i + r1i) * FRAC_1_SQRT_2);
            let (w2r, w2i) = rot::<FWD>(o2r, o2i);
            let (r3r, r3i) = rot::<FWD>(o3r, o3i);
            let (w3r, w3i) = ((r3r - o3r) * FRAC_1_SQRT_2, (r3i - o3i) * FRAC_1_SQRT_2);

            re[i0] = e0r + o0r;
            im[i0] = e0i + o0i;
            re[i0 + m] = e1r + w1r;
            im[i0 + m] = e1i + w1i;
            re[i0 + 2 * m] = e2r + w2r;
            im[i0 + 2 * m] = e2i + w2i;
            re[i0 + 3 * m] = e3r + w3r;
            im[i0 + 3 * m] = e3i + w3i;
            re[i0 + 4 * m] = e0r - o0r;
            im[i0 + 4 * m] = e0i - o0i;
            re[i0 + 5 * m] = e1r - w1r;
            im[i0 + 5 * m] = e1i - w1i;
            re[i0 + 6 * m] = e2r - w2r;
            im[i0 + 6 * m] = e2i - w2i;
            re[i0 + 7 * m] = e3r - w3r;
            im[i0 + 7 * m] = e3i - w3i;
        }
        base += 8 * m;
    }
}
