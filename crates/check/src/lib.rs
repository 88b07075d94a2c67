//! # lintime-check
//!
//! Linearizability checking for recorded runs, implementing the correctness
//! condition of Section 2.3 of Wang, Talmage, Lee, Welch (IPPS 2014): a run
//! is correct when there is a permutation of its operation instances that is
//! legal for the sequential specification and respects the real-time order
//! of non-overlapping operations.
//!
//! * [`history`] — concurrent histories extracted from runs;
//! * [`arena`] — the struct-of-arrays history arena every checker shares
//!   read-only (timestamps, sort orders, and payload columns built once);
//! * [`wing_gong`] — the decision procedure (Wing–Gong search with Lowe's
//!   state memoization);
//! * [`monitor`] — type-specialized fast-path monitors (register, queue,
//!   stack, set/kv, counter) and the one decision ladder every history goes
//!   through: monitor, witness replay, then Wing–Gong fallback. Entry points
//!   are [`monitor::check_fast`] and [`monitor::check_fast_with`] (explicit
//!   configuration and observability), plus [`monitor::check_fast_pending`]
//!   and [`monitor::check_fast_pending_with`] for histories with pending
//!   operations;
//! * [`bitset`] — the done-set representation used by the search;
//! * [`compositional`] — per-object checking for multi-object (product)
//!   histories, exploiting the locality of linearizability;
//! * [`stream`] — the online bounded-memory checker
//!   ([`stream::StreamChecker`]): feed live operation events, garbage-collect
//!   settled prefixes at canonical cuts, keep resident memory flat over
//!   arbitrarily long traces.
//!
//! The paper's Construction 1 (the *specific* linearization Algorithm 1
//! induces) is verified separately in `lintime-core::construction`, since it
//! inspects algorithm-internal timestamps.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod bitset;
pub mod compositional;
pub mod history;
pub mod monitor;
pub mod stream;
pub mod wing_gong;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::arena::HistoryArena;
    pub use crate::compositional::{check_components, ComponentVerdicts, ShardVerdicts};
    pub use crate::history::{History, PendingHistory, PendingOp, TimedOp};
    pub use crate::monitor::{
        check_fast, check_fast_pending, check_fast_pending_with, check_fast_with, verify_witness,
        MonitorOutcome,
    };
    pub use crate::stream::{
        replay_run, StreamChecker, StreamConfig, StreamStats, StreamVerdict, UnknownReason,
    };
    pub use crate::wing_gong::{check, check_with, CheckConfig, Verdict};
}
