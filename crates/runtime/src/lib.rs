//! # lintime-runtime
//!
//! A real-threads platform for the same [`Node`](lintime_sim::node::Node)
//! implementations that run on the simulator: one OS thread per process and
//! nothing else, std channels for transport, WAN-shaped message delays
//! (`[d − u, d]` in virtual ticks) drawn by each sender, and deliberate
//! per-process clock offsets. Each node thread handles its deliveries,
//! timers and invocations from one due-ordered queue at their *logical*
//! times, so a live run is an execution of the paper's model whenever no
//! message was handled outside `[d − u, d]` of its send — and
//! [`Run::delay_violations`](lintime_sim::run::Run::delay_violations) counts
//! the ones that were. Senders optionally apply a deterministic
//! [`FaultPlan`](lintime_sim::faults::FaultPlan) (lossy-channel mode), and a
//! settle-derived watchdog turns crashed or stalled node threads into
//! diagnosed truncated runs instead of hangs.
//!
//! A live run lasts as long as its work. The cluster's epoch is fixed by a
//! readiness handshake once the node threads are up, and the
//! harness stops the run the moment one shared work counter — invocations,
//! messages and timers not yet handled — reaches zero after the last
//! invocation. [`LiveConfig::settle`](harness::LiveConfig::settle) only
//! bounds how long a cluster that never goes quiet may run.
//!
//! This is the substitution for the paper's "geographically dispersed
//! processes": we cannot run on a WAN, so we reproduce its *timing shape*
//! (bounded uncertain delays, bounded skew) on local parallel hardware,
//! exercising the identical algorithm code paths. Latencies measured here
//! match the simulator up to OS scheduling jitter, and recorded live runs
//! are fed to the same linearizability checker.
//!
//! * [`clock`] — wall-clock ↔ virtual-tick mapping with per-process offsets;
//! * [`platform`] — the per-process event-loop thread, which also sends
//!   (delays, faults) what its handlers emit;
//! * [`work`] — the outstanding-work counter that tells a drained run from
//!   one that was cut off;
//! * [`harness`] — spawn a cluster, drive a timed schedule, record a run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod harness;
pub mod platform;
pub mod work;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::clock::LiveClock;
    pub use crate::harness::{run_live, run_live_checked, LiveConfig};
    pub use crate::work::WorkCount;
}
