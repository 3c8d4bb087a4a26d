//! # lcc-grid — dense 3D grids, sub-domain geometry, tensors, metrics
//!
//! The data-layout substrate shared by the convolution pipeline, the octree
//! compressor, and the MASSIF solver:
//!
//! * [`grid3::Grid3`] — row-major dense 3D arrays with sub-box extract/insert.
//! * [`boxes::BoxRegion`] — half-open boxes, the paper's `k³` sub-domains,
//!   plus [`boxes::decompose_uniform`] (Step 1 of the method).
//! * [`tensor`] — symmetric rank-2 tensors and isotropic rank-4 stiffness for
//!   the Hooke's-law use case.
//! * [`error`] — relative-L2 / L∞ metrics matching the paper's §5.3.

pub mod boxes;
pub mod decomp;
pub mod error;
pub mod grid3;
pub mod tensor;

pub use boxes::{decompose_uniform, BoxRegion};
pub use decomp::{decompose_adaptive, AdaptiveDecomposition};
pub use error::{max_abs_error, relative_l2, relative_l2_by, relative_linf, rms};
pub use grid3::Grid3;
pub use tensor::{IsotropicStiffness, Sym3, VOIGT_PAIRS};
