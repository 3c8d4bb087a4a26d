//! Symmetric rank-2 tensor fields over the 3D grid.
//!
//! Stress σ and strain ε are stored structure-of-arrays: six dense scalar
//! grids in Voigt order `(xx, yy, zz, yz, xz, xy)`. The SoA layout is what
//! both convolution paths want — each component is convolved as an
//! independent scalar field.

use lcc_grid::{Grid3, Sym3};

use crate::microstructure::Microstructure;

/// A symmetric 3×3 tensor field on an n³ grid, stored per component.
#[derive(Clone, Debug)]
pub struct TensorField {
    n: usize,
    comps: [Grid3<f64>; 6],
}

impl TensorField {
    /// All-zero field.
    pub fn zeros(n: usize) -> Self {
        TensorField {
            n,
            comps: std::array::from_fn(|_| Grid3::zeros((n, n, n))),
        }
    }

    /// Constant field equal to `t` everywhere.
    pub fn constant(n: usize, t: Sym3) -> Self {
        TensorField {
            n,
            comps: std::array::from_fn(|c| Grid3::filled((n, n, n), t.c[c])),
        }
    }

    /// The field whose Voigt components are `comps`, each an n³ grid.
    pub fn from_components(comps: [Grid3<f64>; 6]) -> Self {
        let n = comps[0].shape().0;
        assert!(comps.iter().all(|g| g.shape() == (n, n, n)));
        TensorField { n, comps }
    }

    /// Grid size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Component grid `c` (Voigt index).
    pub fn component(&self, c: usize) -> &Grid3<f64> {
        &self.comps[c]
    }

    /// Mutable component grid `c`.
    pub fn component_mut(&mut self, c: usize) -> &mut Grid3<f64> {
        &mut self.comps[c]
    }

    /// Tensor value at a voxel.
    pub fn get(&self, x: usize, y: usize, z: usize) -> Sym3 {
        let mut t = Sym3::ZERO;
        for c in 0..6 {
            t.c[c] = self.comps[c][(x, y, z)];
        }
        t
    }

    /// Sets the tensor at a voxel.
    pub fn set(&mut self, x: usize, y: usize, z: usize, t: Sym3) {
        for c in 0..6 {
            self.comps[c][(x, y, z)] = t.c[c];
        }
    }

    /// Volume average of the field.
    pub fn mean(&self) -> Sym3 {
        let vol = (self.n * self.n * self.n) as f64;
        let mut t = Sym3::ZERO;
        for c in 0..6 {
            t.c[c] = self.comps[c].as_slice().iter().sum::<f64>() / vol;
        }
        t
    }

    /// Global L2 norm (Frobenius per voxel, summed).
    pub fn norm(&self) -> f64 {
        let mut acc = 0.0;
        for (c, g) in self.comps.iter().enumerate() {
            let w = if c < 3 { 1.0 } else { 2.0 };
            acc += w * g.as_slice().iter().map(|v| v * v).sum::<f64>();
        }
        acc.sqrt()
    }

    /// `self ← self + s·other`.
    pub fn axpy(&mut self, s: f64, other: &TensorField) {
        assert_eq!(self.n, other.n);
        for c in 0..6 {
            for (a, b) in self.comps[c]
                .as_mut_slice()
                .iter_mut()
                .zip(other.comps[c].as_slice())
            {
                *a += s * b;
            }
        }
    }

    /// Relative L2 distance to another field (‖self − other‖/‖other‖).
    pub fn relative_error_to(&self, reference: &TensorField) -> f64 {
        assert_eq!(self.n, reference.n);
        let mut num = 0.0;
        let mut den = 0.0;
        for c in 0..6 {
            let w = if c < 3 { 1.0 } else { 2.0 };
            for (a, b) in self.comps[c]
                .as_slice()
                .iter()
                .zip(reference.comps[c].as_slice())
            {
                num += w * (a - b) * (a - b);
                den += w * b * b;
            }
        }
        if den == 0.0 {
            if num == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (num / den).sqrt()
        }
    }

    /// Computes the stress `σ(x) = C(x) : ε(x)` over a microstructure.
    pub fn stress_from_strain(micro: &Microstructure, eps: &TensorField) -> TensorField {
        let n = eps.n;
        assert_eq!(micro.n(), n);
        let mut out = TensorField::zeros(n);
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let s = micro.stiffness(x, y, z).apply(&eps.get(x, y, z));
                    out.set(x, y, z, s);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::IsotropicStiffness;

    #[test]
    fn constant_field_mean() {
        let t = Sym3::new(1.0, 2.0, 3.0, 0.1, 0.2, 0.3);
        let f = TensorField::constant(4, t);
        let m = f.mean();
        for c in 0..6 {
            assert!((m.c[c] - t.c[c]).abs() < 1e-12);
        }
        assert_eq!(f.get(2, 3, 1), t);
    }

    #[test]
    fn axpy_and_norm() {
        let n = 4;
        let a = TensorField::constant(n, Sym3::IDENTITY);
        let mut b = TensorField::zeros(n);
        b.axpy(2.0, &a);
        // Each voxel: diag(2,2,2) → frob² = 12; total = 12·64 → norm = √768
        assert!((b.norm() - (12.0 * 64.0f64).sqrt()).abs() < 1e-9);
        assert_eq!(b.get(0, 0, 0).c[0], 2.0);
    }

    #[test]
    fn relative_error_basics() {
        let a = TensorField::constant(4, Sym3::IDENTITY);
        let mut b = a.clone();
        assert_eq!(b.relative_error_to(&a), 0.0);
        b.axpy(0.1, &a);
        assert!((b.relative_error_to(&a) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stress_from_strain_uses_local_stiffness() {
        let n = 4;
        let soft = IsotropicStiffness::new(1.0, 1.0);
        let hard = IsotropicStiffness::new(2.0, 5.0);
        let micro = Microstructure::laminate(n, 0.5, soft, hard);
        let eps = TensorField::constant(n, Sym3::new(0.0, 0.0, 0.0, 1.0, 0.0, 0.0));
        let sig = TensorField::stress_from_strain(&micro, &eps);
        // Pure shear: σ_yz = 2μ ε_yz.
        assert_eq!(sig.get(0, 0, 0).c[3], 2.0 * 5.0); // layer phase (x<cut)
        assert_eq!(sig.get(3, 0, 0).c[3], 2.0 * 1.0); // matrix
    }

    #[test]
    fn set_get_roundtrip() {
        let mut f = TensorField::zeros(3);
        let t = Sym3::new(1.0, -2.0, 3.0, -4.0, 5.0, -6.0);
        f.set(1, 2, 0, t);
        assert_eq!(f.get(1, 2, 0), t);
        assert_eq!(f.get(0, 0, 0), Sym3::ZERO);
    }
}
