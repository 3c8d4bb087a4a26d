//! Distributed slab-decomposed 3D FFT — the *traditional* baseline.
//!
//! This is the algorithm whose communication pattern the paper attacks
//! (Fig. 1a): the N×N×N transform is decomposed into batches of 1D FFTs
//! distributed over P ranks; between stages the decomposed axis must be
//! rotated through an all-to-all transpose. One 3D FFT costs two all-to-all
//! stages (Eq. 1), a full FFT convolution costs four.
//!
//! The implementation runs on the functional cluster of [`crate::cluster`],
//! so the byte/round counters measure exactly what the analytic model
//! estimates.

use lcc_fft::{fft_axis, scale_in_place, Complex64, FftDirection, FftPlanner};

use lcc_obs::codec::{CodecError, Reader, Writer};

use crate::cluster::{whole_elements, CommWorld};
use crate::fault::CommError;

/// Serializes a complex slice as little-endian f64 pairs.
pub fn encode_complex(values: &[Complex64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 16);
    for v in values {
        out.put_f64(v.re);
        out.put_f64(v.im);
    }
    out
}

/// Deserializes little-endian f64 pairs into complex values, rejecting
/// ragged payloads with a typed error.
pub fn try_decode_complex(bytes: &[u8]) -> Result<Vec<Complex64>, CodecError> {
    whole_elements(bytes, 16)?;
    let count = bytes.len() / 16;
    let mut r = Reader::new(bytes);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(Complex64::new(r.f64()?, r.f64()?));
    }
    Ok(out)
}

/// Deserializes little-endian f64 pairs into complex values. Panics on
/// ragged input; use [`try_decode_complex`] to handle that case as data.
pub fn decode_complex(bytes: &[u8]) -> Vec<Complex64> {
    try_decode_complex(bytes)
        .unwrap_or_else(|e| panic!("payload is not a whole number of c64s: {e}"))
}

/// All-to-all transpose of the decomposed axis with axis 1.
///
/// Input: `data` has dims `(c, n, n)` indexed `(a_loc, b, z)` where the `a`
/// axis is decomposed (`c = n/p` planes per rank) and `b` is full.
/// Output: dims `(c, n, n)` indexed `(b_loc, a, z)` — the `b` axis is now
/// decomposed and `a` is full. Involutive: applying it twice restores the
/// original distribution.
pub fn transpose_exchange(
    world: &mut CommWorld,
    data: &[Complex64],
    n: usize,
) -> Result<Vec<Complex64>, CommError> {
    let p = world.size();
    let c = n / p;
    assert_eq!(data.len(), c * n * n, "slab shape mismatch");
    // Build per-destination blocks: destination d gets b ∈ [d·c, (d+1)·c).
    let outgoing: Vec<Vec<u8>> = (0..p)
        .map(|d| {
            let mut block = Vec::with_capacity(c * c * n);
            for a_loc in 0..c {
                for b_loc in 0..c {
                    let b = d * c + b_loc;
                    let base = (a_loc * n + b) * n;
                    block.extend_from_slice(&data[base..base + n]);
                }
            }
            encode_complex(&block)
        })
        .collect();
    let incoming = world.alltoall(outgoing)?;
    // Assemble: from source s we got (a_loc in s's range, b_loc in ours, z).
    let my_rank = world.rank();
    let mut out = vec![Complex64::ZERO; c * n * n];
    for (s, payload) in incoming.iter().enumerate() {
        // A truncated, ragged or wrong-shape block is a typed error, not a
        // panic: the frame crossed a (simulated) wire.
        let block =
            try_decode_complex(payload).map_err(|e| CommError::from_codec(my_rank, s, e))?;
        if block.len() != c * c * n {
            return Err(CommError::Decode {
                rank: my_rank,
                peer: s,
                len: payload.len(),
                elem_size: 16,
            });
        }
        for a_loc in 0..c {
            let a = s * c + a_loc;
            for b_loc in 0..c {
                let src = (a_loc * c + b_loc) * n;
                let dst = (b_loc * n + a) * n;
                out[dst..dst + n].copy_from_slice(&block[src..src + n]);
            }
        }
    }
    Ok(out)
}

/// Distributed forward 3D FFT of an axis-0-decomposed slab.
///
/// On entry `slab` holds planes `x ∈ [rank·n/p, (rank+1)·n/p)` of the
/// spatial field, dims `(n/p, n, n)` indexed `(x_loc, y, z)`. On return the
/// *transposed spectrum*: dims `(n/p, n, n)` indexed `(fy_loc, fx, fz)` with
/// the `fy` axis decomposed. Costs exactly one all-to-all.
pub fn forward_3d(
    world: &mut CommWorld,
    planner: &FftPlanner,
    slab: Vec<Complex64>,
    n: usize,
) -> Result<Vec<Complex64>, CommError> {
    let c = n / world.size();
    let dims = (c, n, n);
    let mut slab = slab;
    // Local: transform the two full axes (y, z).
    fft_axis(planner, &mut slab, dims, 2, FftDirection::Forward);
    fft_axis(planner, &mut slab, dims, 1, FftDirection::Forward);
    // Rotate x into locality (one all-to-all), then transform it.
    let mut t = transpose_exchange(world, &slab, n)?;
    fft_axis(planner, &mut t, dims, 1, FftDirection::Forward);
    Ok(t)
}

/// Distributed inverse 3D FFT (normalized), undoing [`forward_3d`]:
/// takes the transposed spectrum, returns the spatial axis-0 slab.
/// Costs exactly one all-to-all.
pub fn inverse_3d(
    world: &mut CommWorld,
    planner: &FftPlanner,
    spectrum: Vec<Complex64>,
    n: usize,
) -> Result<Vec<Complex64>, CommError> {
    let c = n / world.size();
    let dims = (c, n, n);
    let mut spec = spectrum;
    fft_axis(planner, &mut spec, dims, 1, FftDirection::Inverse);
    let mut slab = transpose_exchange(world, &spec, n)?;
    fft_axis(planner, &mut slab, dims, 1, FftDirection::Inverse);
    fft_axis(planner, &mut slab, dims, 2, FftDirection::Inverse);
    let scale = 1.0 / (n as f64).powi(3);
    scale_in_place(&mut slab, scale);
    Ok(slab)
}

/// Distributed FFT convolution — the full traditional pipeline of Fig. 1a:
/// forward 3D FFT (1 all-to-all inside, after 2 local stages), pointwise
/// multiply with the on-the-fly kernel, inverse 3D FFT (1 more all-to-all).
///
/// `kernel(fx, fy, fz)` is the transfer function at global frequency bins.
pub fn convolve_distributed(
    world: &mut CommWorld,
    planner: &FftPlanner,
    slab: Vec<Complex64>,
    n: usize,
    kernel: &(dyn Fn([usize; 3]) -> Complex64 + Sync),
) -> Result<Vec<Complex64>, CommError> {
    let c = n / world.size();
    let mut spec = forward_3d(world, planner, slab, n)?;
    let y0 = world.rank() * c;
    // Transposed layout: local (fy_loc, fx, fz).
    for fy_loc in 0..c {
        for fx in 0..n {
            let base = (fy_loc * n + fx) * n;
            for fz in 0..n {
                spec[base + fz] *= kernel([fx, y0 + fy_loc, fz]);
            }
        }
    }
    inverse_3d(world, planner, spec, n)
}

/// Splits a dense row-major n³ field into axis-0 slabs for `p` ranks.
pub fn scatter_slabs(field: &[Complex64], n: usize, p: usize) -> Vec<Vec<Complex64>> {
    assert_eq!(field.len(), n * n * n);
    assert_eq!(n % p, 0, "p must divide n");
    let c = n / p;
    (0..p)
        .map(|r| field[r * c * n * n..(r + 1) * c * n * n].to_vec())
        .collect()
}

/// Reassembles axis-0 slabs into the dense field.
pub fn gather_slabs(slabs: Vec<Vec<Complex64>>, n: usize) -> Vec<Complex64> {
    let mut out = Vec::with_capacity(n * n * n);
    for s in slabs {
        out.extend(s);
    }
    assert_eq!(out.len(), n * n * n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_cluster;
    use lcc_fft::{c64, cyclic_convolve_3d, fft_3d};

    fn field(n: usize) -> Vec<Complex64> {
        (0..n * n * n)
            .map(|i| c64((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
            .collect()
    }

    #[test]
    fn transpose_is_involutive() {
        let n = 8;
        for p in [1, 2, 4] {
            let f = field(n);
            let slabs = scatter_slabs(&f, n, p);
            let (outs, _) = run_cluster(p, |mut w| {
                let mine = slabs[w.rank()].clone();
                let once = transpose_exchange(&mut w, &mine, n).unwrap();
                transpose_exchange(&mut w, &once, n).unwrap()
            });
            let back = gather_slabs(outs, n);
            assert_eq!(back, f, "p={p}");
        }
    }

    #[test]
    fn distributed_forward_matches_serial() {
        let n = 8;
        let f = field(n);
        let planner = FftPlanner::new();
        let mut serial = f.clone();
        fft_3d(&planner, &mut serial, (n, n, n), FftDirection::Forward);
        for p in [1, 2, 4] {
            let slabs = scatter_slabs(&f, n, p);
            let (outs, stats) = run_cluster(p, |mut w| {
                let planner = FftPlanner::new();
                let mine = slabs[w.rank()].clone();
                forward_3d(&mut w, &planner, mine, n).unwrap()
            });
            assert_eq!(stats.rounds(), 1, "forward costs one all-to-all");
            // Transposed layout: local (fy_loc, fx, fz) on owner of fy.
            let c = n / p;
            for (rank, out) in outs.iter().enumerate() {
                for fy_loc in 0..c {
                    let fy = rank * c + fy_loc;
                    for fx in 0..n {
                        for fz in 0..n {
                            let got = out[(fy_loc * n + fx) * n + fz];
                            let want = serial[(fx * n + fy) * n + fz];
                            assert!((got - want).norm() < 1e-8, "p={p} bin ({fx},{fy},{fz})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let n = 8;
        let p = 4;
        let f = field(n);
        let slabs = scatter_slabs(&f, n, p);
        let (outs, stats) = run_cluster(p, |mut w| {
            let planner = FftPlanner::new();
            let mine = slabs[w.rank()].clone();
            let spec = forward_3d(&mut w, &planner, mine, n).unwrap();
            inverse_3d(&mut w, &planner, spec, n).unwrap()
        });
        assert_eq!(
            stats.rounds(),
            2,
            "3D FFT + inverse = two all-to-alls (Eq. 1)"
        );
        let back = gather_slabs(outs, n);
        for (a, b) in f.iter().zip(&back) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn distributed_convolution_matches_serial() {
        let n = 8;
        let p = 2;
        let f = field(n);
        // A smooth real separable kernel in frequency space.
        let kern = |f: [usize; 3]| {
            let g = |q: usize| (-((q.min(n - q)) as f64).powi(2) / 8.0).exp();
            Complex64::from_real(g(f[0]) * g(f[1]) * g(f[2]))
        };
        // Serial reference: multiply spectrum directly.
        let planner = FftPlanner::new();
        let mut kb = vec![Complex64::ZERO; n * n * n];
        for fx in 0..n {
            for fy in 0..n {
                for fz in 0..n {
                    kb[(fx * n + fy) * n + fz] = kern([fx, fy, fz]);
                }
            }
        }
        // Build the spatial kernel via inverse FFT so we can reuse the
        // serial cyclic convolution oracle.
        let mut kspace = kb.clone();
        lcc_fft::ifft_3d_normalized(&planner, &mut kspace, (n, n, n));
        let want = cyclic_convolve_3d(&planner, &f, &kspace, (n, n, n));

        let slabs = scatter_slabs(&f, n, p);
        let (outs, stats) = run_cluster(p, |mut w| {
            let planner = FftPlanner::new();
            let mine = slabs[w.rank()].clone();
            convolve_distributed(&mut w, &planner, mine, n, &kern).unwrap()
        });
        assert_eq!(stats.rounds(), 2, "convolution costs two transposes here");
        let got = gather_slabs(outs, n);
        for (a, b) in want.iter().zip(&got) {
            assert!((*a - *b).norm() < 1e-8);
        }
    }

    #[test]
    fn measured_bytes_match_formula() {
        // Each transpose: every rank sends c·c·n complex (16 B) to each of
        // the p−1 remote peers.
        let n = 16;
        let p = 4;
        let c = n / p;
        let f = field(n);
        let slabs = scatter_slabs(&f, n, p);
        let (_, stats) = run_cluster(p, |mut w| {
            let mine = slabs[w.rank()].clone();
            transpose_exchange(&mut w, &mine, n).unwrap();
        });
        let expect = (p * (p - 1)) as u64 * (c * c * n * 16) as u64;
        assert_eq!(stats.bytes(), expect);
    }

    #[test]
    fn codec_roundtrip() {
        let v = vec![c64(1.0, -2.0), c64(0.5, 3.5)];
        assert_eq!(decode_complex(&encode_complex(&v)), v);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_complex_decode_panics() {
        decode_complex(&[0u8; 17]);
    }

    #[test]
    fn ragged_complex_decode_is_a_typed_error() {
        let err = try_decode_complex(&[0u8; 17]).unwrap_err();
        assert_eq!(
            err,
            CodecError::Truncated {
                len: 17,
                expected: 16
            }
        );
        let v = vec![c64(1.0, -2.0)];
        assert_eq!(try_decode_complex(&encode_complex(&v)).unwrap(), v);
    }
}
