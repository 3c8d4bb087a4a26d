//! The dense FFT convolution — the baseline of Fig. 1a, Table 3 and
//! MASSIF's Algorithm 1, and the pipeline's oracle (DESIGN.md §5q).
//!
//! Real input, so only the half spectrum `fz ∈ 0..n/2 + 1` is formed: r2c
//! rows along z, c2c passes along y and x, the multiply by the kernel's
//! Hermitian part (the result is `Re(ifft(K̂·X̂))`, as in the pipeline), the
//! inverses, and c2r rows with the `1/n³` folded in. Odd `n` has no packed
//! r2c, so its rows take a full c2c. The full-complex
//! `lcc_fft::cyclic_convolve_3d` is the oracle this path is tested against.

use rayon::prelude::*;

use lcc_fft::{fft_axis, Complex64, FftDirection, FftPlanner, RealFft, RealIfft};
use lcc_greens::{hermitian_pencil, KernelSpectrum, Sym3C};
use lcc_grid::Grid3;

use crate::tensor_pipeline::{hermitian_contract, TensorKernelSpectrum};

/// Dense FFT convolver at grid size n.
pub struct TraditionalConvolver {
    n: usize,
    planner: FftPlanner,
}

impl TraditionalConvolver {
    /// Creates a convolver for an `n³` grid.
    pub fn new(n: usize) -> Self {
        TraditionalConvolver {
            n,
            planner: FftPlanner::new(),
        }
    }

    /// Grid size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cyclically convolves the dense real `input` with `kernel`
    /// (frequency-domain transfer function), returning the dense result.
    pub fn convolve(&self, input: &Grid3<f64>, kernel: &dyn KernelSpectrum) -> Grid3<f64> {
        let n = self.n;
        assert_eq!(kernel.n(), n, "kernel grid mismatch");
        let scale = 1.0 / (n * n * n) as f64;
        let [out] = self.convolve_half([input], scale, |[fx, fy], pencil, scratch| {
            let (k, mirror) = scratch.split_at_mut(n);
            hermitian_pencil(kernel, fx, fy, k, mirror);
            for (x, k) in pencil.iter_mut().zip(k.iter()) {
                *x *= *k;
            }
        });
        out
    }

    /// Convolves a `k³` sub-domain placed at `corner` inside an otherwise
    /// zero N³ grid — the per-domain reference the compressed pipeline is
    /// checked against.
    pub fn convolve_subdomain(
        &self,
        sub: &Grid3<f64>,
        corner: [usize; 3],
        kernel: &dyn KernelSpectrum,
    ) -> Grid3<f64> {
        let n = self.n;
        let mut dense = Grid3::zeros((n, n, n));
        dense.insert(corner, sub);
        self.convolve(&dense, kernel)
    }

    /// Convolves the six Voigt components of a symmetric tensor field with
    /// a tensor kernel (`Δε̂ = Γ̂ : σ̂` per bin) — MASSIF's Algorithm 1
    /// inner loop, the dense twin of
    /// [`crate::ConvolveSession::convolve_tensor`].
    pub fn convolve_tensor(
        &self,
        sigma: [&Grid3<f64>; 6],
        kernel: &dyn TensorKernelSpectrum,
    ) -> [Grid3<f64>; 6] {
        let n = self.n;
        assert_eq!(kernel.n(), n, "kernel grid mismatch");
        let h = n / 2 + 1;
        // The contraction leaves out the ½ of the Hermitian part; the c2r
        // applies it with the 1/n³.
        let scale = 0.5 / (n * n * n) as f64;
        self.convolve_half(sigma, scale, |[fx, fy], pencils, _| {
            for fz in 0..h {
                let sig = Sym3C {
                    c: std::array::from_fn(|c| pencils[c * h + fz]),
                };
                let d = hermitian_contract(kernel, [fx, fy, fz], &sig);
                for (c, v) in d.c.into_iter().enumerate() {
                    pencils[c * h + fz] = v;
                }
            }
        })
    }

    /// The one dense path, for `C` real components at once: r2c rows along
    /// z, c2c along y and x, `multiply([fx, fy], pencils, scratch)` on each
    /// `(fx, fy)`'s `C` half pencils (`h` bins each, component after
    /// component; `scratch` holds `2n`), the inverses, and c2r rows that
    /// scale by `scale`.
    fn convolve_half<const C: usize>(
        &self,
        inputs: [&Grid3<f64>; C],
        scale: f64,
        multiply: impl Fn([usize; 2], &mut [Complex64], &mut [Complex64]) + Sync,
    ) -> [Grid3<f64>; C] {
        let (n, h) = (self.n, self.n / 2 + 1);
        assert!(
            inputs.iter().all(|x| x.shape() == (n, n, n)),
            "input shape mismatch"
        );
        let r2c = n.is_multiple_of(2).then(|| RealFft::new(&self.planner, n));
        let c2r = RealIfft::new(&self.planner, n);
        // Pencil `fx·n + fy` holds its components' half pencils in turn, so
        // as a row-major `(n, n, C·h)` buffer axes 0 and 1 are x and y of
        // every component at once.
        let dims = (n, n, C * h);
        let mut half = vec![Complex64::ZERO; n * n * C * h];
        half.par_chunks_mut(h)
            .enumerate()
            .for_each_init(Vec::new, |row, (i, out)| {
                let x = &inputs[i % C].as_slice()[i / C * n..][..n];
                match &r2c {
                    Some(r2c) => r2c.process(x, out),
                    None => {
                        row.clear();
                        row.extend(x.iter().map(|&v| Complex64::from_real(v)));
                        self.planner.plan(n, FftDirection::Forward).process(row);
                        out.copy_from_slice(&row[..h]);
                    }
                }
            });
        for axis in [1, 0] {
            fft_axis(&self.planner, &mut half, dims, axis, FftDirection::Forward);
        }
        half.par_chunks_mut(C * h).enumerate().for_each_init(
            || vec![Complex64::ZERO; 2 * n],
            |scratch, (p, pencils)| multiply([p / n, p % n], pencils, scratch),
        );
        for axis in [0, 1] {
            fft_axis(&self.planner, &mut half, dims, axis, FftDirection::Inverse);
        }
        half.par_chunks_mut(h).for_each_init(
            || vec![Complex64::ZERO; c2r.scratch_len()],
            |scratch, row| c2r.process_packed(row, scratch, scale),
        );
        std::array::from_fn(|c| {
            let mut out = vec![0.0; n * n * n];
            out.par_chunks_mut(n)
                .zip(half.par_chunks(C * h))
                .for_each(|(out, pencils)| RealIfft::unpack(&pencils[c * h..][..h], out));
            Grid3::from_vec((n, n, n), out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_fft::{c64, cyclic_convolve_3d, ifft_3d_normalized};
    use lcc_greens::{
        hermitian_defect, GammaComponentKernel, GaussianKernel, MassifGamma, PoissonSpectrum,
        ScreenedPoissonSpectrum,
    };
    use lcc_grid::relative_l2;

    fn field(n: usize, seed: usize) -> Grid3<f64> {
        Grid3::from_fn((n, n, n), |x, y, z| {
            ((x * 3 + y * 5 + z * 7 + seed) as f64 * 0.31).sin() + 0.2
        })
    }

    /// `Re(ifft(fft(x)·K̂))` on the whole complex grid, through the
    /// full-complex oracle: `K̂`'s spatial kernel is its inverse transform.
    fn oracle(x: &Grid3<f64>, kernel: &dyn KernelSpectrum) -> Vec<f64> {
        let n = kernel.n();
        let planner = FftPlanner::new();
        let mut k: Vec<Complex64> = (0..n * n * n)
            .map(|i| kernel.eval([i / (n * n), i / n % n, i % n]))
            .collect();
        ifft_3d_normalized(&planner, &mut k, (n, n, n));
        let x: Vec<Complex64> = x
            .as_slice()
            .iter()
            .map(|&v| Complex64::from_real(v))
            .collect();
        cyclic_convolve_3d(&planner, &x, &k, (n, n, n))
            .iter()
            .map(|v| v.re)
            .collect()
    }

    /// A spectrum far from Hermitian on every bin.
    struct Skewed(usize);
    impl KernelSpectrum for Skewed {
        fn n(&self) -> usize {
            self.0
        }
        fn eval(&self, [a, b, c]: [usize; 3]) -> Complex64 {
            let t = (a + 2 * b + 3 * c) as f64;
            c64((0.3 * t).cos() + 1.5, (0.7 * t).sin() + 0.4)
        }
    }

    /// Odd `n` takes the full-c2c rows; the Gaussian needs an even grid.
    #[test]
    fn scalar_kernels_match_the_full_complex_oracle() {
        for n in [8usize, 16, 32, 3, 9, 15] {
            let mut kernels: Vec<Box<dyn KernelSpectrum>> = vec![
                Box::new(PoissonSpectrum::new(n)),
                Box::new(ScreenedPoissonSpectrum::new(n, 0.6)),
                Box::new(Skewed(n)),
            ];
            if n % 2 == 0 {
                kernels.push(Box::new(GaussianKernel::new(n, 1.3)));
            }
            let x = field(n, 1);
            for kernel in &kernels {
                let got = TraditionalConvolver::new(n).convolve(&x, kernel.as_ref());
                let err = relative_l2(&oracle(&x, kernel.as_ref()), got.as_slice());
                assert!(err <= 1e-13, "n={n}: relative L2 {err}");
            }
        }
        // `Skewed` is the one that pins the Hermitian-part projection.
        assert!(hermitian_defect(&Skewed(8)) > 0.5);
    }

    #[test]
    fn tensor_matches_voigt_sum_of_scalar_oracles() {
        let pairs = [(0usize, 0usize), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)];
        for n in [8usize, 16, 32] {
            let gamma = MassifGamma::new(n, 1.3, 0.8);
            let sigma: [Grid3<f64>; 6] = std::array::from_fn(|c| field(n, 11 * c));
            let got = TraditionalConvolver::new(n).convolve_tensor(sigma.each_ref(), &gamma);
            for (ci, &ij) in pairs.iter().enumerate() {
                let mut want = vec![0.0; n * n * n];
                for (ck, &kl) in pairs.iter().enumerate() {
                    let w = if ck < 3 { 1.0 } else { 2.0 };
                    let part = oracle(&sigma[ck], &GammaComponentKernel::new(gamma, ij, kl));
                    for (a, v) in want.iter_mut().zip(part) {
                        *a += w * v;
                    }
                }
                let err = relative_l2(&want, got[ci].as_slice());
                assert!(err <= 1e-13, "n={n}, component {ci}: relative L2 {err}");
            }
        }
    }

    /// Prints a hash of the bits of a scalar and a tensor result; the test
    /// below runs it in child processes with different pool sizes.
    #[test]
    fn dense_path_fingerprint() {
        let n = 16;
        let conv = TraditionalConvolver::new(n);
        let x = field(n, 3);
        let sigma: [Grid3<f64>; 6] = std::array::from_fn(|c| field(n, c));
        let scalar = conv.convolve(&x, &GaussianKernel::new(n, 1.3));
        let tensor = conv.convolve_tensor(sigma.each_ref(), &MassifGamma::new(n, 1.3, 0.8));
        let bits = std::iter::once(&scalar)
            .chain(&tensor)
            .flat_map(|g| g.as_slice().iter().map(|v| v.to_bits()));
        println!("dense-bits {:016x}", lcc_obs::codec::fnv1a64_u64s(bits));
    }

    /// The pool's size is fixed for the life of a process, so the
    /// fingerprint above is taken in child processes, one per pool size.
    #[test]
    fn dense_path_bit_identical_under_pools_of_1_and_2_threads() {
        let exe = std::env::current_exe().expect("test binary path");
        let prints: Vec<String> = ["1", "2"]
            .iter()
            .map(|threads| {
                let out = std::process::Command::new(&exe)
                    .args(["traditional::tests::dense_path_fingerprint", "--exact"])
                    .arg("--nocapture")
                    .env("LCC_THREADS", threads)
                    .output()
                    .expect("spawn the test binary");
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert!(
                    out.status.success() && stdout.contains("1 passed"),
                    "LCC_THREADS={threads}:\n{stdout}"
                );
                let (_, print) = stdout.split_once("dense-bits ").expect("fingerprint");
                print[..16].to_string()
            })
            .collect();
        assert_eq!(prints[0], prints[1]);
    }

    #[test]
    fn convolve_delta_reproduces_kernel_spatial() {
        let n = 16;
        let kernel = GaussianKernel::new(n, 1.5);
        let conv = TraditionalConvolver::new(n);
        let mut delta = Grid3::zeros((n, n, n));
        delta[(0, 0, 0)] = 1.0;
        let out = conv.convolve(&delta, &kernel);
        let want = kernel.spatial();
        for ((x, y, z), &v) in out.indexed_iter() {
            assert!((v - want[(x, y, z)]).abs() < 1e-10, "at ({x},{y},{z})");
        }
    }

    #[test]
    fn convolution_is_linear() {
        let n = 8;
        let kernel = GaussianKernel::new(n, 1.0);
        let conv = TraditionalConvolver::new(n);
        let a = Grid3::from_fn((n, n, n), |x, y, z| (x + 2 * y + 3 * z) as f64);
        let b = Grid3::from_fn((n, n, n), |x, y, z| ((x * y) as f64).sin() + z as f64);
        let sum = Grid3::from_fn((n, n, n), |x, y, z| a[(x, y, z)] + b[(x, y, z)]);
        let ca = conv.convolve(&a, &kernel);
        let cb = conv.convolve(&b, &kernel);
        let cs = conv.convolve(&sum, &kernel);
        for ((x, y, z), &v) in cs.indexed_iter() {
            assert!((v - ca[(x, y, z)] - cb[(x, y, z)]).abs() < 1e-8);
        }
    }

    #[test]
    fn subdomain_convolution_matches_manual_embedding() {
        let n = 16;
        let k = 4;
        let kernel = GaussianKernel::new(n, 1.0);
        let conv = TraditionalConvolver::new(n);
        let sub = Grid3::from_fn((k, k, k), |x, y, z| (x + y + z) as f64 + 1.0);
        let via_helper = conv.convolve_subdomain(&sub, [4, 8, 0], &kernel);
        let mut dense = Grid3::zeros((n, n, n));
        dense.insert([4, 8, 0], &sub);
        let direct = conv.convolve(&dense, &kernel);
        assert_eq!(via_helper, direct);
    }
}
