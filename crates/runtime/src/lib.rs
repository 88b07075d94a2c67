//! # lintime-runtime
//!
//! A real-threads platform for the same [`Node`](lintime_sim::node::Node)
//! implementations that run on the simulator: one OS thread per process,
//! std channels for transport, and a router thread that injects WAN-shaped
//! message delays (`[d − u, d]` in virtual ticks) plus deliberate
//! per-process clock offsets. The router optionally mirrors a deterministic
//! [`FaultPlan`](lintime_sim::faults::FaultPlan) (lossy-channel mode), and a
//! settle-derived watchdog turns crashed or stalled node threads into
//! diagnosed truncated runs instead of hangs.
//!
//! A live run lasts as long as its work. The cluster's epoch is fixed by a
//! readiness handshake once the router and node threads are up, and the
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
//! * [`router`] — the delay-injecting message router;
//! * [`platform`] — the per-process event-loop thread;
//! * [`work`] — the outstanding-work counter that tells a drained run from
//!   one that was cut off;
//! * [`harness`] — spawn a cluster, drive a timed schedule, record a run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod harness;
pub mod platform;
pub mod router;
pub mod work;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::clock::LiveClock;
    pub use crate::harness::{run_live, run_live_checked, LiveConfig};
    pub use crate::platform::{spawn_node, Command, NodeInput, NodeOutput};
    pub use crate::router::{Envelope, Router, RouterReport};
    pub use crate::work::WorkCount;
}
