//! # lcc-comm — communication substrate
//!
//! Substitute for the paper's MPI cluster (see DESIGN.md §2), in two layers:
//!
//! * [`model`] — the analytic α-β cost model and the paper's equations:
//!   Eq. 1 (`T_FFT = 2·N³/(P·β_link)`), Eq. 2 (`t = α + β·m`), and Eq. 6
//!   (`T_ours = (k³ + sparse samples)/(P·β_link)`).
//! * [`cluster`] + [`dist_fft`] — a *functional* message-passing runtime:
//!   P ranks, instrumented all-to-all / allgather collectives, and the
//!   traditional slab-decomposed distributed 3D FFT and FFT convolution
//!   built on them. Measured bytes and round counts from these runs sit
//!   next to the analytic estimates in the experiment reports.
//! * [`transport`] — the pluggable byte-moving layer beneath
//!   [`cluster::CommWorld`] (see DESIGN.md §6): the epoch/ack/retry
//!   protocol and all `CommStats` accounting live above a small
//!   [`Transport`] trait, with an in-process backend (threads + crossbeam
//!   channels), a real-process socket backend (Unix-domain sockets; TCP
//!   loopback behind the `tcp` feature), and fault injection as a
//!   backend-agnostic [`FaultTransport`] decorator. The conformance suite
//!   (`tests/transport_conformance.rs`) holds the backends to bit-identical
//!   results and exactly equal counter totals per fault seed.
//! * [`fault`] — deterministic, seed-driven fault injection threaded
//!   through the cluster: dropped/duplicated frames, delayed senders and
//!   crashed ranks, with a retrying ack protocol underneath the collectives
//!   so failures surface as typed [`CommError`]s (or degrade gracefully via
//!   the `*_surviving` collectives) instead of deadlocks. Every fault
//!   decision is a keyed hash of the plan seed, so chaos runs replay
//!   bit-for-bit.

//! * [`actor`] — the pure protocol kernel (`ProtocolActor`): every
//!   decision the epoch/ack/retry/membership protocol makes, as
//!   clock-free transition functions. [`cluster::CommWorld`] calls these
//!   kernels on the real wire; the `lcc-check` model checker drives the
//!   same kernels through every interleaving (see DESIGN.md §6b), so
//!   there is no forked protocol logic to drift.
//! * [`membership`] — epoch-stamped [`ClusterView`]s: each endpoint's
//!   belief about who is alive, advanced by `CommWorld::detect_failures`
//!   sweeps so that all survivors of a fault seed converge on the same
//!   view sequence, enabling the self-healing epoch-tagged collectives
//!   (`alltoall_converged` / `allgather_converged`).

pub mod actor;
pub mod cluster;
pub mod dist_fft;
pub mod fault;
pub mod membership;
pub mod model;
pub mod stats;
pub mod transport;

pub use actor::{
    ActorState, ConvergedState, Convergence, DataDisposition, EpochDisposition, Phase,
    ProtocolActor, SendPlan, SweepOutcome,
};
pub use cluster::{
    decode_f64s, encode_f64s, run_cluster, run_cluster_with_faults, try_decode_f64s, CommWorld,
    ConvergedExchange,
};
pub use dist_fft::{
    convolve_distributed, decode_complex, encode_complex, forward_3d, gather_slabs, inverse_3d,
    scatter_slabs, transpose_exchange, try_decode_complex,
};
pub use fault::{CommError, FaultPlan, RetryConfig, RetryPolicy};
pub use lcc_obs::codec::CodecError;
pub use membership::ClusterView;
pub use model::{lowcomm_volume, traditional_conv_volume, AlphaBeta, CommScenario};
pub use stats::{CommCounter, CommStats, CommStatsSnapshot, ACK_WIRE_BYTES};
pub use transport::fault::{FaultEvent, FaultEventLog, FaultTransport};
pub use transport::liveness::{
    adaptive_threshold, ewma_observe, LivenessBoard, LivenessStats, EWMA_ALPHA, FLOOR_PERIODS,
    MIN_SAMPLES, PHI_SIGMAS,
};
pub use transport::{PointOutcome, RecvOutcome, Transport};
