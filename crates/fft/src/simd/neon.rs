//! NEON split-layout stage kernels (2 × f64 lanes, aarch64).
//!
//! Line-for-line the same stage structure as [`super::avx2`] at half the
//! lane width: complex multiplies fuse with `vfmaq`/`vfmsq`, ±i rotations
//! are a register-role swap plus `vnegq`. NEON is baseline on aarch64, so
//! there is no runtime detection — the target architecture alone gates
//! this module.
//!
//! Kernels require `2 | m`; the `m = 1` leading stages run the scalar
//! split kernels, exactly as the narrow stages do on x86_64.

// lcc-lint: hot-path — butterfly kernel; allocation-free by construction.

use std::arch::aarch64::{
    float64x2_t, vaddq_f64, vdupq_n_f64, vfmaq_f64, vfmsq_f64, vld1q_f64, vmulq_f64, vnegq_f64,
    vst1q_f64, vsubq_f64,
};
use std::f64::consts::FRAC_1_SQRT_2;

/// `(ar + i·ai) · (br + i·bi)` with fused components.
///
/// # Safety
/// NEON only (aarch64 baseline).
#[inline(always)]
unsafe fn cmul(
    ar: float64x2_t,
    ai: float64x2_t,
    br: float64x2_t,
    bi: float64x2_t,
) -> (float64x2_t, float64x2_t) {
    (
        vfmsq_f64(vmulq_f64(ar, br), ai, bi),
        vfmaq_f64(vmulq_f64(ar, bi), ai, br),
    )
}

/// ±i rotation in split layout (see [`super::scalar::stage_r4`]).
///
/// # Safety
/// NEON only (aarch64 baseline).
#[inline(always)]
unsafe fn rot<const FWD: bool>(re: float64x2_t, im: float64x2_t) -> (float64x2_t, float64x2_t) {
    if FWD {
        (im, vnegq_f64(re))
    } else {
        (vnegq_f64(im), re)
    }
}

/// Radix-2 stage, two butterflies per iteration.
///
/// # Safety
/// `re.len() == im.len() == n` with `2m | n`, `2 | m`, and `twre`/`twim`
/// of length ≥ `m`.
pub(crate) unsafe fn stage_r2(
    re: &mut [f64],
    im: &mut [f64],
    m: usize,
    twre: &[f64],
    twim: &[f64],
) {
    let n = re.len();
    let (rp, ip) = (re.as_mut_ptr(), im.as_mut_ptr());
    let (wr_p, wi_p) = (twre.as_ptr(), twim.as_ptr());
    let mut base = 0;
    while base < n {
        let mut j = 0;
        while j < m {
            let i0 = base + j;
            let i1 = i0 + m;
            let ar = vld1q_f64(rp.add(i0));
            let ai = vld1q_f64(ip.add(i0));
            let (br, bi) = cmul(
                vld1q_f64(rp.add(i1)),
                vld1q_f64(ip.add(i1)),
                vld1q_f64(wr_p.add(j)),
                vld1q_f64(wi_p.add(j)),
            );
            vst1q_f64(rp.add(i0), vaddq_f64(ar, br));
            vst1q_f64(ip.add(i0), vaddq_f64(ai, bi));
            vst1q_f64(rp.add(i1), vsubq_f64(ar, br));
            vst1q_f64(ip.add(i1), vsubq_f64(ai, bi));
            j += 2;
        }
        base += 2 * m;
    }
}

/// Radix-4 stage, two butterflies per iteration.
///
/// # Safety
/// `re.len() == im.len() == n` with `4m | n`, `2 | m`, and `twre`/`twim`
/// of length ≥ `3m`.
pub(crate) unsafe fn stage_r4<const FWD: bool>(
    re: &mut [f64],
    im: &mut [f64],
    m: usize,
    twre: &[f64],
    twim: &[f64],
) {
    let n = re.len();
    let (rp, ip) = (re.as_mut_ptr(), im.as_mut_ptr());
    let (wr_p, wi_p) = (twre.as_ptr(), twim.as_ptr());
    let mut base = 0;
    while base < n {
        let mut j = 0;
        while j < m {
            let i0 = base + j;
            let (i1, i2, i3) = (i0 + m, i0 + 2 * m, i0 + 3 * m);
            let ar = vld1q_f64(rp.add(i0));
            let ai = vld1q_f64(ip.add(i0));
            let (br, bi) = cmul(
                vld1q_f64(rp.add(i1)),
                vld1q_f64(ip.add(i1)),
                vld1q_f64(wr_p.add(j)),
                vld1q_f64(wi_p.add(j)),
            );
            let (cr, ci) = cmul(
                vld1q_f64(rp.add(i2)),
                vld1q_f64(ip.add(i2)),
                vld1q_f64(wr_p.add(m + j)),
                vld1q_f64(wi_p.add(m + j)),
            );
            let (dr, di) = cmul(
                vld1q_f64(rp.add(i3)),
                vld1q_f64(ip.add(i3)),
                vld1q_f64(wr_p.add(2 * m + j)),
                vld1q_f64(wi_p.add(2 * m + j)),
            );
            let t0r = vaddq_f64(ar, cr);
            let t0i = vaddq_f64(ai, ci);
            let t1r = vsubq_f64(ar, cr);
            let t1i = vsubq_f64(ai, ci);
            let t2r = vaddq_f64(br, dr);
            let t2i = vaddq_f64(bi, di);
            let (t3r, t3i) = rot::<FWD>(vsubq_f64(br, dr), vsubq_f64(bi, di));
            vst1q_f64(rp.add(i0), vaddq_f64(t0r, t2r));
            vst1q_f64(ip.add(i0), vaddq_f64(t0i, t2i));
            vst1q_f64(rp.add(i1), vaddq_f64(t1r, t3r));
            vst1q_f64(ip.add(i1), vaddq_f64(t1i, t3i));
            vst1q_f64(rp.add(i2), vsubq_f64(t0r, t2r));
            vst1q_f64(ip.add(i2), vsubq_f64(t0i, t2i));
            vst1q_f64(rp.add(i3), vsubq_f64(t1r, t3r));
            vst1q_f64(ip.add(i3), vsubq_f64(t1i, t3i));
            j += 2;
        }
        base += 4 * m;
    }
}

/// Radix-8 stage, two butterflies per iteration (structure as in
/// [`super::avx2::stage_r8`]).
///
/// # Safety
/// `re.len() == im.len() == n` with `8m | n`, `2 | m`, and `twre`/`twim`
/// of length ≥ `7m`.
pub(crate) unsafe fn stage_r8<const FWD: bool>(
    re: &mut [f64],
    im: &mut [f64],
    m: usize,
    twre: &[f64],
    twim: &[f64],
) {
    let n = re.len();
    let (rp, ip) = (re.as_mut_ptr(), im.as_mut_ptr());
    let (wr_p, wi_p) = (twre.as_ptr(), twim.as_ptr());
    let half = vdupq_n_f64(FRAC_1_SQRT_2);
    let mut base = 0;
    while base < n {
        let mut j = 0;
        while j < m {
            let i0 = base + j;
            let ar = vld1q_f64(rp.add(i0));
            let ai = vld1q_f64(ip.add(i0));
            let (br, bi) = cmul(
                vld1q_f64(rp.add(i0 + m)),
                vld1q_f64(ip.add(i0 + m)),
                vld1q_f64(wr_p.add(j)),
                vld1q_f64(wi_p.add(j)),
            );
            let (cr, ci) = cmul(
                vld1q_f64(rp.add(i0 + 2 * m)),
                vld1q_f64(ip.add(i0 + 2 * m)),
                vld1q_f64(wr_p.add(m + j)),
                vld1q_f64(wi_p.add(m + j)),
            );
            let (dr, di) = cmul(
                vld1q_f64(rp.add(i0 + 3 * m)),
                vld1q_f64(ip.add(i0 + 3 * m)),
                vld1q_f64(wr_p.add(2 * m + j)),
                vld1q_f64(wi_p.add(2 * m + j)),
            );
            let (er, ei) = cmul(
                vld1q_f64(rp.add(i0 + 4 * m)),
                vld1q_f64(ip.add(i0 + 4 * m)),
                vld1q_f64(wr_p.add(3 * m + j)),
                vld1q_f64(wi_p.add(3 * m + j)),
            );
            let (fr, fi) = cmul(
                vld1q_f64(rp.add(i0 + 5 * m)),
                vld1q_f64(ip.add(i0 + 5 * m)),
                vld1q_f64(wr_p.add(4 * m + j)),
                vld1q_f64(wi_p.add(4 * m + j)),
            );
            let (gr, gi) = cmul(
                vld1q_f64(rp.add(i0 + 6 * m)),
                vld1q_f64(ip.add(i0 + 6 * m)),
                vld1q_f64(wr_p.add(5 * m + j)),
                vld1q_f64(wi_p.add(5 * m + j)),
            );
            let (hr, hi) = cmul(
                vld1q_f64(rp.add(i0 + 7 * m)),
                vld1q_f64(ip.add(i0 + 7 * m)),
                vld1q_f64(wr_p.add(6 * m + j)),
                vld1q_f64(wi_p.add(6 * m + j)),
            );

            // Even 4-point DFT over (a, c, e, g).
            let t0r = vaddq_f64(ar, er);
            let t0i = vaddq_f64(ai, ei);
            let t1r = vsubq_f64(ar, er);
            let t1i = vsubq_f64(ai, ei);
            let t2r = vaddq_f64(cr, gr);
            let t2i = vaddq_f64(ci, gi);
            let (t3r, t3i) = rot::<FWD>(vsubq_f64(cr, gr), vsubq_f64(ci, gi));
            let e0r = vaddq_f64(t0r, t2r);
            let e0i = vaddq_f64(t0i, t2i);
            let e1r = vaddq_f64(t1r, t3r);
            let e1i = vaddq_f64(t1i, t3i);
            let e2r = vsubq_f64(t0r, t2r);
            let e2i = vsubq_f64(t0i, t2i);
            let e3r = vsubq_f64(t1r, t3r);
            let e3i = vsubq_f64(t1i, t3i);

            // Odd 4-point DFT over (b, d, f, h).
            let u0r = vaddq_f64(br, fr);
            let u0i = vaddq_f64(bi, fi);
            let u1r = vsubq_f64(br, fr);
            let u1i = vsubq_f64(bi, fi);
            let u2r = vaddq_f64(dr, hr);
            let u2i = vaddq_f64(di, hi);
            let (u3r, u3i) = rot::<FWD>(vsubq_f64(dr, hr), vsubq_f64(di, hi));
            let o0r = vaddq_f64(u0r, u2r);
            let o0i = vaddq_f64(u0i, u2i);
            let o1r = vaddq_f64(u1r, u3r);
            let o1i = vaddq_f64(u1i, u3i);
            let o2r = vsubq_f64(u0r, u2r);
            let o2i = vsubq_f64(u0i, u2i);
            let o3r = vsubq_f64(u1r, u3r);
            let o3i = vsubq_f64(u1i, u3i);

            // Combine through w8^q (see the scalar kernel).
            let (r1r, r1i) = rot::<FWD>(o1r, o1i);
            let w1r = vmulq_f64(vaddq_f64(o1r, r1r), half);
            let w1i = vmulq_f64(vaddq_f64(o1i, r1i), half);
            let (w2r, w2i) = rot::<FWD>(o2r, o2i);
            let (r3r, r3i) = rot::<FWD>(o3r, o3i);
            let w3r = vmulq_f64(vsubq_f64(r3r, o3r), half);
            let w3i = vmulq_f64(vsubq_f64(r3i, o3i), half);

            vst1q_f64(rp.add(i0), vaddq_f64(e0r, o0r));
            vst1q_f64(ip.add(i0), vaddq_f64(e0i, o0i));
            vst1q_f64(rp.add(i0 + m), vaddq_f64(e1r, w1r));
            vst1q_f64(ip.add(i0 + m), vaddq_f64(e1i, w1i));
            vst1q_f64(rp.add(i0 + 2 * m), vaddq_f64(e2r, w2r));
            vst1q_f64(ip.add(i0 + 2 * m), vaddq_f64(e2i, w2i));
            vst1q_f64(rp.add(i0 + 3 * m), vaddq_f64(e3r, w3r));
            vst1q_f64(ip.add(i0 + 3 * m), vaddq_f64(e3i, w3i));
            vst1q_f64(rp.add(i0 + 4 * m), vsubq_f64(e0r, o0r));
            vst1q_f64(ip.add(i0 + 4 * m), vsubq_f64(e0i, o0i));
            vst1q_f64(rp.add(i0 + 5 * m), vsubq_f64(e1r, w1r));
            vst1q_f64(ip.add(i0 + 5 * m), vsubq_f64(e1i, w1i));
            vst1q_f64(rp.add(i0 + 6 * m), vsubq_f64(e2r, w2r));
            vst1q_f64(ip.add(i0 + 6 * m), vsubq_f64(e2i, w2i));
            vst1q_f64(rp.add(i0 + 7 * m), vsubq_f64(e3r, w3r));
            vst1q_f64(ip.add(i0 + 7 * m), vsubq_f64(e3i, w3i));
            j += 2;
        }
        base += 8 * m;
    }
}
