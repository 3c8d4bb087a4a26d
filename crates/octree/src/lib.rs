//! # lcc-octree — adaptive multi-resolution sampling compression
//!
//! The paper's Step 3: "Adaptive octree-based multi-resolution sampling as
//! the compression algorithm." A convolution of a `k³` sub-domain with a
//! rapidly decaying Green's function produces a response concentrated on and
//! around the sub-domain; this crate captures that response as
//!
//! * a [`schedule::RateSchedule`] — the paper's distance-banded rates
//!   (full resolution in the domain, r = 2 within k/2, r = 8 out to 4k,
//!   r = 16/32 beyond, dense at the grid boundary);
//! * a [`plan::SamplingPlan`] — the octree of uniform-rate leaf cells,
//!   serializable to the paper's 5-ints-per-cell metadata array, with the
//!   table of planes and rows that carry a sample;
//! * a [`field::CompressedField`] — sample values in recycled buffers,
//!   captured in one pass from the pipeline's sampled rows, and trilinear
//!   reconstruction for the final accumulation-and-interpolation step;
//! * a [`CellSums`] — the fold's sample-space sums: fields that share a
//!   cell add their samples, and the cell is interpolated once.

pub mod bounds;
pub mod cache;
pub mod field;
pub mod plan;
mod reconstruct;
pub mod schedule;
mod sums;

pub use bounds::{
    plan_error_bound, schedule_error_bound, BandBound, DecayModel, GaussianDecay,
    InverseDistanceDecay,
};
pub use cache::PlanCache;
pub use field::{CompressedField, PayloadError, RegionPayload};
pub use plan::{OctCell, RateStats, SamplingPlan, SetBits};
pub use schedule::{RateBand, RateSchedule};
pub use sums::CellSums;
