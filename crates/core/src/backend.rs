//! Declared fault tolerance and the one driver for every implementation in
//! this crate.
//!
//! The paper's Algorithm 1 and the folklore baselines assume reliable
//! channels and crash-free processes; the quorum register
//! ([`crate::mr_register`]) and the recovery wrapper ([`crate::reliable`])
//! each relax a different part of that assumption. This module makes those
//! differences *declarative*: every backend states the fault classes it
//! claims to survive ([`FaultTolerance`]), and [`run_backend`] picks the
//! [`Algorithm`]'s concrete node type once per run, simulates a cluster of
//! it, and folds backend-specific bookkeeping (recovery-layer suspects,
//! quorum metrics) into one [`BackendRun`].
//!
//! The availability matrix in `lintime-bench` sweeps
//! scenario × backend cells and uses the tolerance claims to decide which
//! cells *must* stay linearizable: a `NotLinearizable` verdict inside a
//! claimed-tolerated cell on a non-suspect run is a confirmed violation.

use crate::batch::BatchWtlwNode;
use crate::broadcast::BroadcastNode;
use crate::centralized::CentralizedNode;
use crate::cluster::Algorithm;
use crate::mr_register::MrNode;
use crate::naive::NaiveLocalNode;
use crate::quorum_sm::QsmNode;
use crate::reliable::run_reliable;
use crate::wtlw::WtlwNode;
use lintime_adt::spec::{ObjectSpec, SpecKind};
use lintime_sim::engine::{simulate, simulate_full, SimConfig};
use lintime_sim::node::Node;
use lintime_sim::run::Run;
use lintime_sim::time::{ModelParams, Pid};
use std::fmt;
use std::sync::Arc;

/// The fault classes a backend claims to survive *without* losing
/// linearizability or availability (completed operations may slow down, but
/// must not return wrong values, and non-crashed invokers must still get
/// responses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultTolerance {
    /// Maximum number of process crashes tolerated.
    pub crashes: usize,
    /// Survives message omission (drops).
    pub omission: bool,
    /// Survives message duplication.
    pub duplication: bool,
    /// Survives bounded process stalls (delivery-window pauses).
    pub stalls: bool,
}

impl FaultTolerance {
    /// No tolerance claims at all.
    pub const NONE: FaultTolerance =
        FaultTolerance { crashes: 0, omission: false, duplication: false, stalls: false };

    /// Human-readable summary, e.g. `"crashes≤2 +dup +stall"`.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if self.crashes > 0 {
            parts.push(format!("crashes≤{}", self.crashes));
        }
        if self.omission {
            parts.push("+drop".to_string());
        }
        if self.duplication {
            parts.push("+dup".to_string());
        }
        if self.stalls {
            parts.push("+stall".to_string());
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(" ")
        }
    }
}

impl Algorithm {
    /// The fault classes this backend claims to survive in a cluster of
    /// `params.n` processes.
    pub fn tolerance(&self, params: ModelParams) -> FaultTolerance {
        match self {
            // Algorithm 1 assumes reliable channels, live processes, and
            // honest timers; stalls break its timer-based ordering windows.
            // The batching wrapper only re-times announcements (within the
            // stretched waits), so it inherits the same claims.
            Algorithm::Wtlw { .. } | Algorithm::WtlwWaits(_) | Algorithm::BatchedWtlw { .. } => {
                FaultTolerance::NONE
            }
            // The coordinator and the broadcast quorum wait for *messages*,
            // not timers, so a stalled process only delays; but a single
            // crash (coordinator / any acker) wedges them, and lost or
            // duplicated messages wedge or reorder them.
            Algorithm::Centralized | Algorithm::Broadcast => {
                FaultTolerance { stalls: true, ..FaultTolerance::NONE }
            }
            // Majority quorums: up to ⌊(n−1)/2⌋ crashes; duplicate replies
            // are idempotent (quorums are sets); message-driven, so stalls
            // only delay. The kv-store is the same node, one register per
            // key, so it has the same envelope.
            Algorithm::MrRegister | Algorithm::AbdKv => FaultTolerance {
                crashes: params.n.saturating_sub(1) / 2,
                duplication: true,
                stalls: true,
                ..FaultTolerance::NONE
            },
            // Same quorum machinery, but the response values of mixed ops
            // and accessors come from a *stability* wait whose delivery
            // bound a stalled client's delayed commit broadcast violates —
            // so no stall claim.
            Algorithm::QuorumSm => FaultTolerance {
                crashes: params.n.saturating_sub(1) / 2,
                duplication: true,
                ..FaultTolerance::NONE
            },
            // Retransmission recovers drops; the dedup layer suppresses
            // duplicates. Timer-driven inner node → stalls still break it.
            Algorithm::ReliableWtlw { .. } => {
                FaultTolerance { omission: true, duplication: true, ..FaultTolerance::NONE }
            }
            // The strawman is incorrect even fault-free.
            Algorithm::NaiveLocal(_) => FaultTolerance::NONE,
        }
    }

    /// Whether this backend can implement `spec` at all (e.g. the quorum
    /// register only implements read/write registers).
    pub fn supports(&self, spec: &Arc<dyn ObjectSpec>) -> Result<(), String> {
        match self {
            Algorithm::MrRegister if spec.kind() != SpecKind::Register => {
                Err(format!("mr-register implements a read/write register, not {:?}", spec.kind()))
            }
            Algorithm::AbdKv if spec.kind() != SpecKind::KvStore => {
                Err(format!("abd-kv implements a kv-store, not {:?}", spec.kind()))
            }
            _ => Ok(()),
        }
    }
}

/// A backend × spec combination the backend cannot implement, reported by
/// [`run_backend`] instead of running. The availability matrix renders these
/// as honest `n/a` cells rather than crashing the whole sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedSpec {
    /// The refusing backend's label.
    pub backend: String,
    /// The spec's type name.
    pub spec: String,
    /// The backend's own explanation.
    pub why: String,
}

impl fmt::Display for UnsupportedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backend {} cannot run {}: {}", self.backend, self.spec, self.why)
    }
}

impl std::error::Error for UnsupportedSpec {}

/// A [`run_backend`] result: the recorded run plus backend-specific
/// aggregates (zero for backends without them).
#[derive(Debug)]
pub struct BackendRun {
    /// The simulated run. For [`Algorithm::ReliableWtlw`], every node's
    /// detected violations have been folded into [`Run::suspect`].
    pub run: Run,
    /// Completed quorum phases across all quorum-backend nodes
    /// ([`Algorithm::MrRegister`], [`Algorithm::QuorumSm`],
    /// [`Algorithm::AbdKv`]).
    pub quorum_round_trips: u64,
    /// Reads answered in one round trip (uniform quorum timestamps).
    pub fast_reads: u64,
    /// Reads that needed the write-back phase before responding.
    pub read_writebacks: u64,
}

/// Simulate a cluster of quorum nodes and add each node's
/// `[round_trips, fast_reads, read_writebacks]` to `totals`.
fn run_quorum<N: Node>(
    cfg: &SimConfig,
    totals: &mut [u64; 3],
    make_node: impl FnMut(Pid) -> N,
    counters: impl Fn(&N) -> [u64; 3],
) -> Run {
    let (run, nodes) = simulate_full(cfg, make_node);
    for node in &nodes {
        for (total, count) in totals.iter_mut().zip(counters(node)) {
            *total += count;
        }
    }
    run
}

/// Run `algo` over `spec` under `cfg`: simulate a cluster of its concrete
/// node type, then fold backend-specific node state into the result.
///
/// Returns [`UnsupportedSpec`] (without simulating anything) when
/// `algo.supports(spec)` fails, so callers probing arbitrary
/// backend × type combinations can render honest `n/a` cells.
pub fn run_backend(
    algo: &Algorithm,
    spec: &Arc<dyn ObjectSpec>,
    cfg: &SimConfig,
) -> Result<BackendRun, UnsupportedSpec> {
    if let Err(why) = algo.supports(spec) {
        return Err(UnsupportedSpec { backend: algo.label(), spec: spec.name().to_string(), why });
    }
    let params = cfg.params;
    let spec_of = || Arc::clone(spec);
    let obs = || cfg.obs.clone();
    let mut quorum = [0; 3];
    let mut run = match *algo {
        Algorithm::Wtlw { x } => simulate(cfg, |pid| WtlwNode::new(pid, spec_of(), params, x)),
        Algorithm::WtlwWaits(waits) => {
            simulate(cfg, |pid| WtlwNode::with_waits(pid, spec_of(), waits))
        }
        Algorithm::Centralized => simulate(cfg, |pid| CentralizedNode::new(pid, spec_of())),
        Algorithm::Broadcast => simulate(cfg, |pid| BroadcastNode::new(pid, params.n, spec_of())),
        // One quorum-register node serves both: the register is the
        // kv-store with a single key.
        Algorithm::MrRegister | Algorithm::AbdKv => run_quorum(
            cfg,
            &mut quorum,
            |pid| MrNode::new(pid, spec_of(), params.n).with_obs(obs()),
            |n| [n.round_trips(), n.fast_reads(), n.read_writebacks()],
        ),
        Algorithm::QuorumSm => run_quorum(
            cfg,
            &mut quorum,
            |pid| QsmNode::new(pid, spec_of(), params).with_obs(obs()),
            |n| [n.round_trips(), n.fast_reads(), n.read_writebacks()],
        ),
        Algorithm::BatchedWtlw { x, tick } => {
            simulate(cfg, |pid| BatchWtlwNode::new(pid, spec_of(), params, x, tick).with_obs(obs()))
        }
        Algorithm::ReliableWtlw { x, recovery } => run_reliable(spec, cfg, x, recovery),
        Algorithm::NaiveLocal(wait) => simulate(cfg, |_| NaiveLocalNode::new(spec_of(), wait)),
    };
    // One algorithm-tag byte per message on the wire, on top of the payload
    // estimate each node's `msg_wire_bytes` reports.
    run.bytes_sent += run.msgs_sent;
    let [quorum_round_trips, fast_reads, read_writebacks] = quorum;
    Ok(BackendRun { run, quorum_round_trips, fast_reads, read_writebacks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::{erase, Invocation};
    use lintime_adt::types::{FifoQueue, Register};
    use lintime_adt::value::Value;
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::faults::FaultPlan;
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::{ModelParams, Time};

    fn params5() -> ModelParams {
        ModelParams::new(5, Time(6000), Time(2400), Time(1800))
    }

    #[test]
    fn tolerance_claims_are_declared() {
        let p = params5();
        let mr = Algorithm::MrRegister.tolerance(p);
        assert_eq!(mr.crashes, 2);
        assert!(mr.stalls && mr.duplication && !mr.omission);
        assert_eq!(Algorithm::Wtlw { x: Time::ZERO }.tolerance(p), FaultTolerance::NONE);
        let rel = Algorithm::ReliableWtlw {
            x: Time::ZERO,
            recovery: crate::reliable::RecoveryConfig::standard(p),
        }
        .tolerance(p);
        assert!(rel.omission && rel.duplication && !rel.stalls);
        assert_eq!(mr.summary(), "crashes≤2 +dup +stall");
        assert_eq!(FaultTolerance::NONE.summary(), "none");
        let qsm = Algorithm::QuorumSm.tolerance(p);
        assert_eq!(qsm.crashes, 2);
        assert!(qsm.duplication && !qsm.stalls && !qsm.omission);
        assert_eq!(Algorithm::AbdKv.tolerance(p), mr);
    }

    #[test]
    fn mr_register_refuses_non_register_specs() {
        let queue = erase(FifoQueue::new());
        assert!(Algorithm::MrRegister.supports(&queue).is_err());
        let reg = erase(Register::new(0));
        assert!(Algorithm::MrRegister.supports(&reg).is_ok());
        assert!(Algorithm::Centralized.supports(&queue).is_ok());
        // The state machine supports everything; the kv-store only kv.
        assert!(Algorithm::QuorumSm.supports(&queue).is_ok());
        assert!(Algorithm::QuorumSm.supports(&reg).is_ok());
        assert!(Algorithm::AbdKv.supports(&queue).is_err());
        assert!(Algorithm::AbdKv.supports(&erase(lintime_adt::types::KvStore::new())).is_ok());
    }

    #[test]
    fn unsupported_combos_return_structured_errors() {
        let p = params5();
        let queue = erase(FifoQueue::new());
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(Schedule::new().at(
            Pid(0),
            Time(0),
            Invocation::new("enqueue", 1),
        ));
        let err = run_backend(&Algorithm::MrRegister, &queue, &cfg)
            .expect_err("a queue is not a register");
        assert_eq!(err.backend, "mr-register");
        assert_eq!(err.spec, "fifo-queue");
        assert!(err.to_string().contains("cannot run"), "{err}");
        let err = run_backend(&Algorithm::AbdKv, &queue, &cfg).expect_err("a queue is not a kv");
        assert_eq!(err.backend, "abd-kv");
    }

    #[test]
    fn run_backend_aggregates_quorum_metrics() {
        let p = params5();
        let spec = erase(Register::new(0));
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 9)).at(
                Pid(1),
                Time(60_000),
                Invocation::nullary("read"),
            ),
        );
        let out = run_backend(&Algorithm::MrRegister, &spec, &cfg).expect("register supported");
        assert!(out.run.complete(), "{}", out.run);
        assert_eq!(out.run.ops[1].ret, Some(Value::Int(9)));
        // Write = 2 phases, quiescent read = 1 fast phase.
        assert_eq!(out.quorum_round_trips, 3);
        assert_eq!(out.fast_reads, 1);
        assert_eq!(out.read_writebacks, 0);
        assert!(out.run.msgs_sent > 0 && out.run.bytes_sent > out.run.msgs_sent);
    }

    #[test]
    fn run_backend_survives_tolerated_crashes() {
        let p = params5();
        let spec = erase(Register::new(0));
        let crashes = Algorithm::MrRegister.tolerance(p).crashes;
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 3)).at(
                Pid(1),
                Time(60_000),
                Invocation::nullary("read"),
            ))
            .with_faults(FaultPlan::new(1).crash(Pid(3), Time(10)).crash(Pid(4), Time(10)));
        assert_eq!(crashes, 2);
        let out = run_backend(&Algorithm::MrRegister, &spec, &cfg).expect("register supported");
        assert!(out.run.complete(), "{}", out.run);
        assert_eq!(out.run.ops[1].ret, Some(Value::Int(3)));
    }
}
