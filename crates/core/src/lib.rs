//! # lcc-core — low-communication approximate 3D convolution
//!
//! Rust reproduction of the method of *"A framework for low communication
//! approaches for large scale 3D convolution"* (Kulkarni, Kovačević,
//! Franchetti; ICPP Workshops 2022):
//!
//! 1. **Domain decomposition** (`lcc-grid`): the N³ input splits into k³
//!    sub-domains.
//! 2. **Local pruned-FFT convolution with compression**
//!    ([`pipeline::LocalConvolver`]): each sub-domain is convolved against
//!    the full periodic grid through an N×N×k streaming slab; the kernel is
//!    evaluated on the fly and the inverse stages feed straight into
//!    octree-sampled storage, so the N³ result never materializes.
//! 3. **Octree multi-resolution sampling** (`lcc-octree`): dense where the
//!    decaying Green's-function response lives, sparse elsewhere.
//! 4. **Single accumulation + interpolation**
//!    ([`ConvolveSession::exchange`], [`distributed`]): the only step where
//!    data crosses workers — compressed samples, once, each receiver getting
//!    only the cells its region reads.
//!
//! [`traditional::TraditionalConvolver`] is the dense baseline the paper
//! compares against, and [`memory_model`] holds the Table 1/2/4 footprint
//! math.
//!
//! ## Quick example
//!
//! ```
//! use lcc_core::prelude::*;
//!
//! let n = 16;
//! let cfg = LowCommConfig::builder().n(n).k(4).far_rate(8).build().unwrap();
//! let conv = LowCommConvolver::try_new(cfg).unwrap();
//! let kernel = GaussianKernel::new(n, 1.0);
//! let input = Grid3::from_fn((n, n, n), |x, y, z| (x + y + z) as f64);
//! let (result, report) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
//! assert_eq!(result.shape(), (n, n, n));
//! assert!(report.exchange_bytes > 0);
//! ```

pub mod adaptive;
pub mod config;
pub mod distributed;
pub mod fold;
pub mod lowcomm;
pub mod memory_model;
pub mod pipeline;
pub mod prelude;
pub mod recovery;
pub mod session;
pub mod tensor_pipeline;
pub mod traditional;

pub use adaptive::AdaptiveConvolver;
pub use config::{ConfigError, LowCommConfigBuilder};
pub use distributed::{Deployment, Exchanged};
pub use fold::fold_fields;
pub use lowcomm::{ConvolveReport, LowCommConfig, LowCommConvolver};
pub use memory_model::{
    allowable_k, domains_per_device, local_slab_bytes, table1_rows, traditional_bytes,
    traditional_fits, PipelineFootprint, Table1Row, TABLE1_CASES,
};
pub use pipeline::LocalConvolver;
pub use recovery::{DomainClaim, RecoveryPlan, RecoveryPlanner, RecoveryPolicy};
pub use session::{ConvolveMode, ConvolveSession};
pub use tensor_pipeline::TensorKernelSpectrum;
pub use traditional::TraditionalConvolver;
