//! AVX2+FMA split-layout stage kernels (4 × f64 lanes).
//!
//! Structurally identical to [`super::scalar`] — same stage geometry, same
//! packed twiddle tables, same operation order — four butterflies per
//! iteration. Complex multiplies contract with FMA
//! (`fnmadd`/`fmadd`), so each component rounds once instead of twice;
//! the ±i rotations are a register-role swap plus a sign-bit XOR, with no
//! lane shuffles anywhere (the split layout's whole point).
//!
//! Every kernel is an `unsafe fn` gated on `#[target_feature]`: callers
//! (the single dispatch site in [`super::run_stage`]) must have
//! confirmed AVX2+FMA via `is_x86_feature_detected!` and must pass slices
//! whose length `n` is a multiple of `radix·m` with `4 | m`.

// lcc-lint: hot-path — butterfly kernel; allocation-free by construction.

use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_fmadd_pd, _mm256_fnmadd_pd, _mm256_loadu_pd, _mm256_mul_pd,
    _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd,
};
use std::f64::consts::FRAC_1_SQRT_2;

/// `(ar + i·ai) · (br + i·bi)`, components fused:
/// `re = ar·br − ai·bi` (one rounding via fnmadd), `im = ar·bi + ai·br`.
///
/// # Safety
/// AVX2+FMA must be available (callers are themselves `#[target_feature]`
/// kernels whose single dispatch site confirmed it).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn cmul(ar: __m256d, ai: __m256d, br: __m256d, bi: __m256d) -> (__m256d, __m256d) {
    (
        _mm256_fnmadd_pd(ai, bi, _mm256_mul_pd(ar, br)),
        _mm256_fmadd_pd(ai, br, _mm256_mul_pd(ar, bi)),
    )
}

/// Lane-wise negation via sign-bit XOR.
///
/// # Safety
/// AVX2+FMA must be available (see [`cmul`]).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn neg(v: __m256d) -> __m256d {
    _mm256_xor_pd(v, _mm256_set1_pd(-0.0))
}

/// ±i rotation in split layout: forward (−i) maps `(re, im)` to
/// `(im, −re)` — a role swap plus one sign flip, no shuffle.
///
/// # Safety
/// AVX2+FMA must be available (see [`cmul`]).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn rot<const FWD: bool>(re: __m256d, im: __m256d) -> (__m256d, __m256d) {
    if FWD {
        (im, neg(re))
    } else {
        (neg(im), re)
    }
}

/// Radix-2 stage, four butterflies per iteration.
///
/// # Safety
/// AVX2+FMA must be available; `re.len() == im.len() == n` with `2m | n`,
/// `4 | m`, and `twre`/`twim` of length ≥ `m`.
#[target_feature(enable = "avx2", enable = "fma")]
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
            let wr = _mm256_loadu_pd(wr_p.add(j));
            let wi = _mm256_loadu_pd(wi_p.add(j));
            let ar = _mm256_loadu_pd(rp.add(i0));
            let ai = _mm256_loadu_pd(ip.add(i0));
            let (br, bi) = cmul(
                _mm256_loadu_pd(rp.add(i1)),
                _mm256_loadu_pd(ip.add(i1)),
                wr,
                wi,
            );
            _mm256_storeu_pd(rp.add(i0), _mm256_add_pd(ar, br));
            _mm256_storeu_pd(ip.add(i0), _mm256_add_pd(ai, bi));
            _mm256_storeu_pd(rp.add(i1), _mm256_sub_pd(ar, br));
            _mm256_storeu_pd(ip.add(i1), _mm256_sub_pd(ai, bi));
            j += 4;
        }
        base += 2 * m;
    }
}

/// Radix-4 stage, four butterflies per iteration.
///
/// # Safety
/// AVX2+FMA must be available; `re.len() == im.len() == n` with `4m | n`,
/// `4 | m`, and `twre`/`twim` of length ≥ `3m`.
#[target_feature(enable = "avx2", enable = "fma")]
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
            let ar = _mm256_loadu_pd(rp.add(i0));
            let ai = _mm256_loadu_pd(ip.add(i0));
            let (br, bi) = cmul(
                _mm256_loadu_pd(rp.add(i1)),
                _mm256_loadu_pd(ip.add(i1)),
                _mm256_loadu_pd(wr_p.add(j)),
                _mm256_loadu_pd(wi_p.add(j)),
            );
            let (cr, ci) = cmul(
                _mm256_loadu_pd(rp.add(i2)),
                _mm256_loadu_pd(ip.add(i2)),
                _mm256_loadu_pd(wr_p.add(m + j)),
                _mm256_loadu_pd(wi_p.add(m + j)),
            );
            let (dr, di) = cmul(
                _mm256_loadu_pd(rp.add(i3)),
                _mm256_loadu_pd(ip.add(i3)),
                _mm256_loadu_pd(wr_p.add(2 * m + j)),
                _mm256_loadu_pd(wi_p.add(2 * m + j)),
            );
            let t0r = _mm256_add_pd(ar, cr);
            let t0i = _mm256_add_pd(ai, ci);
            let t1r = _mm256_sub_pd(ar, cr);
            let t1i = _mm256_sub_pd(ai, ci);
            let t2r = _mm256_add_pd(br, dr);
            let t2i = _mm256_add_pd(bi, di);
            let (t3r, t3i) = rot::<FWD>(_mm256_sub_pd(br, dr), _mm256_sub_pd(bi, di));
            _mm256_storeu_pd(rp.add(i0), _mm256_add_pd(t0r, t2r));
            _mm256_storeu_pd(ip.add(i0), _mm256_add_pd(t0i, t2i));
            _mm256_storeu_pd(rp.add(i1), _mm256_add_pd(t1r, t3r));
            _mm256_storeu_pd(ip.add(i1), _mm256_add_pd(t1i, t3i));
            _mm256_storeu_pd(rp.add(i2), _mm256_sub_pd(t0r, t2r));
            _mm256_storeu_pd(ip.add(i2), _mm256_sub_pd(t0i, t2i));
            _mm256_storeu_pd(rp.add(i3), _mm256_sub_pd(t1r, t3r));
            _mm256_storeu_pd(ip.add(i3), _mm256_sub_pd(t1i, t3i));
            j += 4;
        }
        base += 4 * m;
    }
}

/// Radix-8 stage, four butterflies per iteration: two 4-point DFTs
/// (even/odd inputs) combined through the eighth roots of unity
/// (`w8^{±1}`, `w8^{±3}` reduce to rotate + add + `1/√2` scale).
///
/// # Safety
/// AVX2+FMA must be available; `re.len() == im.len() == n` with `8m | n`,
/// `4 | m`, and `twre`/`twim` of length ≥ `7m`.
#[target_feature(enable = "avx2", enable = "fma")]
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
    let half = _mm256_set1_pd(FRAC_1_SQRT_2);
    let mut base = 0;
    while base < n {
        let mut j = 0;
        while j < m {
            let i0 = base + j;
            let ar = _mm256_loadu_pd(rp.add(i0));
            let ai = _mm256_loadu_pd(ip.add(i0));
            let (br, bi) = cmul(
                _mm256_loadu_pd(rp.add(i0 + m)),
                _mm256_loadu_pd(ip.add(i0 + m)),
                _mm256_loadu_pd(wr_p.add(j)),
                _mm256_loadu_pd(wi_p.add(j)),
            );
            let (cr, ci) = cmul(
                _mm256_loadu_pd(rp.add(i0 + 2 * m)),
                _mm256_loadu_pd(ip.add(i0 + 2 * m)),
                _mm256_loadu_pd(wr_p.add(m + j)),
                _mm256_loadu_pd(wi_p.add(m + j)),
            );
            let (dr, di) = cmul(
                _mm256_loadu_pd(rp.add(i0 + 3 * m)),
                _mm256_loadu_pd(ip.add(i0 + 3 * m)),
                _mm256_loadu_pd(wr_p.add(2 * m + j)),
                _mm256_loadu_pd(wi_p.add(2 * m + j)),
            );
            let (er, ei) = cmul(
                _mm256_loadu_pd(rp.add(i0 + 4 * m)),
                _mm256_loadu_pd(ip.add(i0 + 4 * m)),
                _mm256_loadu_pd(wr_p.add(3 * m + j)),
                _mm256_loadu_pd(wi_p.add(3 * m + j)),
            );
            let (fr, fi) = cmul(
                _mm256_loadu_pd(rp.add(i0 + 5 * m)),
                _mm256_loadu_pd(ip.add(i0 + 5 * m)),
                _mm256_loadu_pd(wr_p.add(4 * m + j)),
                _mm256_loadu_pd(wi_p.add(4 * m + j)),
            );
            let (gr, gi) = cmul(
                _mm256_loadu_pd(rp.add(i0 + 6 * m)),
                _mm256_loadu_pd(ip.add(i0 + 6 * m)),
                _mm256_loadu_pd(wr_p.add(5 * m + j)),
                _mm256_loadu_pd(wi_p.add(5 * m + j)),
            );
            let (hr, hi) = cmul(
                _mm256_loadu_pd(rp.add(i0 + 7 * m)),
                _mm256_loadu_pd(ip.add(i0 + 7 * m)),
                _mm256_loadu_pd(wr_p.add(6 * m + j)),
                _mm256_loadu_pd(wi_p.add(6 * m + j)),
            );

            // Even 4-point DFT over (a, c, e, g).
            let t0r = _mm256_add_pd(ar, er);
            let t0i = _mm256_add_pd(ai, ei);
            let t1r = _mm256_sub_pd(ar, er);
            let t1i = _mm256_sub_pd(ai, ei);
            let t2r = _mm256_add_pd(cr, gr);
            let t2i = _mm256_add_pd(ci, gi);
            let (t3r, t3i) = rot::<FWD>(_mm256_sub_pd(cr, gr), _mm256_sub_pd(ci, gi));
            let e0r = _mm256_add_pd(t0r, t2r);
            let e0i = _mm256_add_pd(t0i, t2i);
            let e1r = _mm256_add_pd(t1r, t3r);
            let e1i = _mm256_add_pd(t1i, t3i);
            let e2r = _mm256_sub_pd(t0r, t2r);
            let e2i = _mm256_sub_pd(t0i, t2i);
            let e3r = _mm256_sub_pd(t1r, t3r);
            let e3i = _mm256_sub_pd(t1i, t3i);

            // Odd 4-point DFT over (b, d, f, h).
            let u0r = _mm256_add_pd(br, fr);
            let u0i = _mm256_add_pd(bi, fi);
            let u1r = _mm256_sub_pd(br, fr);
            let u1i = _mm256_sub_pd(bi, fi);
            let u2r = _mm256_add_pd(dr, hr);
            let u2i = _mm256_add_pd(di, hi);
            let (u3r, u3i) = rot::<FWD>(_mm256_sub_pd(dr, hr), _mm256_sub_pd(di, hi));
            let o0r = _mm256_add_pd(u0r, u2r);
            let o0i = _mm256_add_pd(u0i, u2i);
            let o1r = _mm256_add_pd(u1r, u3r);
            let o1i = _mm256_add_pd(u1i, u3i);
            let o2r = _mm256_sub_pd(u0r, u2r);
            let o2i = _mm256_sub_pd(u0i, u2i);
            let o3r = _mm256_sub_pd(u1r, u3r);
            let o3i = _mm256_sub_pd(u1i, u3i);

            // Combine through w8^q: w8^1·z = (z + rot(z))/√2,
            // w8^2·z = rot(z), w8^3·z = (rot(z) − z)/√2.
            let (r1r, r1i) = rot::<FWD>(o1r, o1i);
            let w1r = _mm256_mul_pd(_mm256_add_pd(o1r, r1r), half);
            let w1i = _mm256_mul_pd(_mm256_add_pd(o1i, r1i), half);
            let (w2r, w2i) = rot::<FWD>(o2r, o2i);
            let (r3r, r3i) = rot::<FWD>(o3r, o3i);
            let w3r = _mm256_mul_pd(_mm256_sub_pd(r3r, o3r), half);
            let w3i = _mm256_mul_pd(_mm256_sub_pd(r3i, o3i), half);

            _mm256_storeu_pd(rp.add(i0), _mm256_add_pd(e0r, o0r));
            _mm256_storeu_pd(ip.add(i0), _mm256_add_pd(e0i, o0i));
            _mm256_storeu_pd(rp.add(i0 + m), _mm256_add_pd(e1r, w1r));
            _mm256_storeu_pd(ip.add(i0 + m), _mm256_add_pd(e1i, w1i));
            _mm256_storeu_pd(rp.add(i0 + 2 * m), _mm256_add_pd(e2r, w2r));
            _mm256_storeu_pd(ip.add(i0 + 2 * m), _mm256_add_pd(e2i, w2i));
            _mm256_storeu_pd(rp.add(i0 + 3 * m), _mm256_add_pd(e3r, w3r));
            _mm256_storeu_pd(ip.add(i0 + 3 * m), _mm256_add_pd(e3i, w3i));
            _mm256_storeu_pd(rp.add(i0 + 4 * m), _mm256_sub_pd(e0r, o0r));
            _mm256_storeu_pd(ip.add(i0 + 4 * m), _mm256_sub_pd(e0i, o0i));
            _mm256_storeu_pd(rp.add(i0 + 5 * m), _mm256_sub_pd(e1r, w1r));
            _mm256_storeu_pd(ip.add(i0 + 5 * m), _mm256_sub_pd(e1i, w1i));
            _mm256_storeu_pd(rp.add(i0 + 6 * m), _mm256_sub_pd(e2r, w2r));
            _mm256_storeu_pd(ip.add(i0 + 6 * m), _mm256_sub_pd(e2i, w2i));
            _mm256_storeu_pd(rp.add(i0 + 7 * m), _mm256_sub_pd(e3r, w3r));
            _mm256_storeu_pd(ip.add(i0 + 7 * m), _mm256_sub_pd(e3i, w3i));
            j += 4;
        }
        base += 8 * m;
    }
}
