//! One-stop imports for the common workflow, so examples and downstream
//! code stop importing from five crates:
//!
//! ```
//! use lcc_core::prelude::*;
//!
//! let cfg = LowCommConfig::builder().n(16).k(4).far_rate(8).build().unwrap();
//! let conv = LowCommConvolver::try_new(cfg).unwrap();
//! let kernel = GaussianKernel::new(16, 1.0);
//! let input = Grid3::from_fn((16, 16, 16), |x, _, _| x as f64);
//! let (result, _report) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
//! assert_eq!(result.shape(), (16, 16, 16));
//! ```

pub use crate::config::{ConfigError, LowCommConfigBuilder};
pub use crate::distributed::{Deployment, Exchanged};
pub use crate::lowcomm::{ConvolveReport, LowCommConfig, LowCommConvolver};
pub use crate::pipeline::LocalConvolver;
pub use crate::recovery::{RecoveryPlanner, RecoveryPolicy};
pub use crate::session::{ConvolveMode, ConvolveSession};
pub use crate::traditional::TraditionalConvolver;

pub use lcc_greens::{GaussianKernel, KernelSpectrum};
pub use lcc_grid::{decompose_uniform, relative_l2, BoxRegion, Grid3};
pub use lcc_octree::{CompressedField, PlanCache, RateSchedule, SamplingPlan};

pub use lcc_obs::{ObsReport, ObsSession};
