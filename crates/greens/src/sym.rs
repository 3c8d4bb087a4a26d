//! Complex symmetric 3×3 tensors for frequency-domain tensor fields.
//!
//! The MASSIF inner loop works on the Fourier transforms of symmetric
//! stress/strain fields; each frequency point carries a symmetric 3×3
//! *complex* tensor. Component order matches `lcc_grid::Sym3`:
//! `(xx, yy, zz, yz, xz, xy)`.

use lcc_fft::Complex64;
use lcc_grid::Sym3;

/// Symmetric 3×3 complex tensor.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Sym3C {
    /// The six independent components `(xx, yy, zz, yz, xz, xy)`.
    pub c: [Complex64; 6],
}

impl Sym3C {
    /// The zero tensor.
    pub const ZERO: Sym3C = Sym3C {
        c: [Complex64::ZERO; 6],
    };

    /// Widens a real symmetric tensor.
    pub fn from_real(t: &Sym3) -> Self {
        let mut c = [Complex64::ZERO; 6];
        for (o, &v) in c.iter_mut().zip(&t.c) {
            *o = Complex64::from_real(v);
        }
        Sym3C { c }
    }

    /// The real part as a real symmetric tensor.
    pub fn real(&self) -> Sym3 {
        let mut out = Sym3::ZERO;
        for (o, v) in out.c.iter_mut().zip(&self.c) {
            *o = v.re;
        }
        out
    }

    /// Component `(i, j)` of the full matrix.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        match (i, j) {
            (0, 0) => self.c[0],
            (1, 1) => self.c[1],
            (2, 2) => self.c[2],
            (1, 2) | (2, 1) => self.c[3],
            (0, 2) | (2, 0) => self.c[4],
            (0, 1) | (1, 0) => self.c[5],
            _ => panic!("index out of range"),
        }
    }

    /// Sets component `(i, j)` (and its symmetric partner).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Complex64) {
        match (i, j) {
            (0, 0) => self.c[0] = v,
            (1, 1) => self.c[1] = v,
            (2, 2) => self.c[2] = v,
            (1, 2) | (2, 1) => self.c[3] = v,
            (0, 2) | (2, 0) => self.c[4] = v,
            (0, 1) | (1, 0) => self.c[5] = v,
            _ => panic!("index out of range"),
        }
    }

    /// Trace.
    #[inline]
    pub fn trace(&self) -> Complex64 {
        self.c[0] + self.c[1] + self.c[2]
    }

    /// Adds another tensor component-wise.
    pub fn add(&self, o: &Sym3C) -> Sym3C {
        let mut out = *self;
        for (a, b) in out.c.iter_mut().zip(&o.c) {
            *a += *b;
        }
        out
    }

    /// Subtracts another tensor component-wise.
    pub fn sub(&self, o: &Sym3C) -> Sym3C {
        let mut out = *self;
        for (a, b) in out.c.iter_mut().zip(&o.c) {
            *a -= *b;
        }
        out
    }

    /// Component-wise complex conjugate.
    pub fn conj(&self) -> Sym3C {
        Sym3C {
            c: self.c.map(Complex64::conj),
        }
    }

    /// Scales by a complex factor.
    pub fn scale(&self, s: Complex64) -> Sym3C {
        let mut out = *self;
        for a in out.c.iter_mut() {
            *a *= s;
        }
        out
    }

    /// Frobenius norm of the full matrix (shear counted twice).
    pub fn frobenius(&self) -> f64 {
        let d: f64 = self.c[..3].iter().map(|v| v.norm_sqr()).sum();
        let s: f64 = self.c[3..].iter().map(|v| v.norm_sqr()).sum();
        (d + 2.0 * s).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_fft::c64;

    #[test]
    fn roundtrip_real() {
        let t = Sym3::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0);
        let c = Sym3C::from_real(&t);
        assert_eq!(c.real(), t);
        assert_eq!(c.get(1, 2), Complex64::from_real(4.0));
    }

    #[test]
    fn get_set_symmetry() {
        let mut t = Sym3C::ZERO;
        t.set(2, 0, c64(1.0, -1.0));
        assert_eq!(t.get(0, 2), c64(1.0, -1.0));
    }

    #[test]
    fn arithmetic() {
        let a = Sym3C::from_real(&Sym3::IDENTITY);
        let b = a.scale(c64(2.0, 0.0));
        assert_eq!(b.sub(&a).trace(), c64(3.0, 0.0));
        assert_eq!(a.add(&a).c, b.c);
    }

    #[test]
    fn frobenius_matches_real() {
        let t = Sym3::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0);
        let c = Sym3C::from_real(&t);
        assert!((c.frobenius() - t.frobenius()).abs() < 1e-12);
    }
}
