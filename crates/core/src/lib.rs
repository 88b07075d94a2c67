//! # lintime-core
//!
//! The primary contribution of Wang, Talmage, Lee, Welch (IPPS 2014):
//! **Algorithm 1**, the first algorithm implementing linearizable shared
//! objects of *arbitrary* data type in a partially synchronous
//! message-passing system with every operation faster than the folklore
//! `2d`, plus the folklore baselines it is compared against and the
//! deliberately-too-fast strawmen used by the lower-bound experiments.
//!
//! * [`wtlw`] — Algorithm 1 ([`wtlw::WtlwNode`]): pure accessors in `d − X`,
//!   pure mutators in `X + ε`, mixed operations in `d + ε`;
//! * [`centralized`] — folklore baseline 1 (`≤ 2d` via a coordinator);
//! * [`broadcast`] — folklore baseline 2 (`≈ 2d` via Lamport total-order
//!   broadcast over point-to-point links);
//! * [`naive`] — incorrect optimistic replication (lower-bound victim);
//! * [`batch`] — tick-batched mutator broadcasts: one announcement bundle
//!   per batch tick instead of one broadcast per operation, with the waits
//!   stretched by the tick so linearizability is preserved;
//! * [`reliable`] — recovery layer: acks + retransmission + duplicate
//!   suppression keep Algorithm 1 linearizable on a lossy network, and a
//!   violation detector flags runs the recovery budget could not save;
//! * [`mr_register`] — crash-tolerant majority-quorum register
//!   (Mostéfaoui–Raynal): survives any minority of crashes, fast
//!   one-round-trip reads when quorums agree; the same node implements the
//!   kv-store as one register per key, at register cost per key (locality
//!   of linearizability);
//! * [`quorum_sm`] — crash-tolerant majority-quorum replicated state
//!   machine for **arbitrary** data types: a timestamp-ordered op log with
//!   clock-driven stability, generalizing [`mr_register`];
//! * [`timestamp`] — `(local time, pid)` lexicographic timestamps;
//! * [`cluster`] — uniform driver + latency statistics over all of the above;
//! * [`backend`] — declared fault-tolerance claims per [`cluster::Algorithm`]
//!   and [`backend::run_backend`], the one way from an `Algorithm` to a
//!   running cluster; driven by the cross-backend availability matrix.
//!
//! ## Quick example
//!
//! ```
//! use lintime_adt::prelude::*;
//! use lintime_sim::prelude::*;
//! use lintime_core::cluster::{run_algorithm, Algorithm};
//!
//! let params = ModelParams::default_experiment();
//! let spec = erase(FifoQueue::new());
//! let cfg = SimConfig::new(params, DelaySpec::AllMax).with_schedule(
//!     Schedule::new()
//!         .at(Pid(0), Time(0), Invocation::new("enqueue", 7))
//!         .at(Pid(1), Time(20_000), Invocation::nullary("peek")),
//! );
//! let run = run_algorithm(Algorithm::Wtlw { x: Time(0) }, &spec, &cfg);
//! assert!(run.complete());
//! // The pure mutator responded in X + ε, the pure accessor in d − X,
//! // both far below the folklore 2d = 12000.
//! assert_eq!(run.ops[0].latency(), Some(params.epsilon));
//! assert_eq!(run.ops[1].latency(), Some(params.d));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(test)]
#[path = "mr_register/kv_tests.rs"]
mod abd_kv;
pub mod backend;
pub mod batch;
pub mod broadcast;
pub mod centralized;
pub mod cluster;
pub mod construction;
pub mod mr_register;
pub mod naive;
pub mod quorum_sm;
pub mod reliable;
pub mod timestamp;
pub mod wtlw;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::backend::{run_backend, BackendRun, FaultTolerance, UnsupportedSpec};
    pub use crate::batch::{batched_predicted_latency, batched_waits, BatchMsg, BatchWtlwNode};
    pub use crate::broadcast::BroadcastNode;
    pub use crate::centralized::CentralizedNode;
    pub use crate::cluster::{op_stats, run_algorithm, Algorithm, OpStats};
    pub use crate::mr_register::{MrMsg, MrNode, MrTs};
    pub use crate::naive::NaiveLocalNode;
    pub use crate::quorum_sm::{QsmMsg, QsmNode, QsmTimer};
    pub use crate::reliable::{run_reliable, RecoveryConfig, RelMsg, RelTimer, ReliableWtlwNode};
    pub use crate::timestamp::Timestamp;
    pub use crate::wtlw::{predicted_latency, Waits, WtlwNode};
}
