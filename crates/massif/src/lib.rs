//! # lcc-massif — the MASSIF stress-strain use case
//!
//! A from-scratch Moulinec–Suquet FFT micromechanics solver reproducing the
//! paper's use case (§2.2, Algorithms 1 and 2): Hooke's-law PDEs on a
//! voxelized composite microstructure, solved by fixed-point iteration where
//! every step convolves the stress field with the rank-4 Green's operator Γ̂
//! of Eq. 3.
//!
//! * [`microstructure`] — composite generation (spheres, laminates) and
//!   per-voxel isotropic stiffness.
//! * [`fields`] — symmetric tensor fields (SoA over six Voigt components).
//! * [`solver`] — the fixed-point loop with two interchangeable inner
//!   convolutions: dense spectral (Algorithm 1) and domain-local compressed
//!   (Algorithm 2, the paper's contribution).
//! * [`checkpoint`] — versioned, checksummed snapshots of the solver state;
//!   [`solve_with_checkpoints`] resumes a killed run bit-identically.

pub mod checkpoint;
pub mod fields;
pub mod microstructure;
pub mod solver;

pub use checkpoint::{Checkpoint, CheckpointConfig, CheckpointError, CheckpointInfo};
pub use fields::TensorField;
pub use microstructure::Microstructure;
pub use solver::{
    solve, solve_accelerated, solve_with_checkpoints, GammaConvolution, LowCommGamma, SolveResult,
    SolverConfig, SpectralGamma,
};
