//! Uniform driver for every implementation in this crate: pick an
//! [`Algorithm`], a data type, and a [`SimConfig`], get a recorded run and
//! per-class latency statistics. Used by the `lintime` reports and the benchmark.

use crate::reliable::RecoveryConfig;
use crate::wtlw::Waits;
use lintime_adt::spec::{ObjectSpec, OpClass};
use lintime_sim::engine::SimConfig;
use lintime_sim::run::Run;
use lintime_sim::time::Time;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which shared-object implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's Algorithm 1 with tradeoff parameter `X`.
    Wtlw {
        /// Tradeoff parameter `X ∈ [0, d − ε]`.
        x: Time,
    },
    /// Algorithm 1 with explicit (possibly incorrect) timer durations.
    WtlwWaits(Waits),
    /// Folklore baseline 1: centralized coordinator (≈ `2d`).
    Centralized,
    /// Folklore baseline 2: Lamport total-order broadcast (≈ `2d`).
    Broadcast,
    /// Majority-quorum read/write register (Mostéfaoui–Raynal style):
    /// crash-tolerant up to `⌊(n−1)/2⌋` failures.
    MrRegister,
    /// Majority-quorum replicated state machine over a timestamp-ordered
    /// operation log: crash-tolerant up to `⌊(n−1)/2⌋` failures for
    /// **arbitrary** data types.
    QuorumSm,
    /// The kv-store as one majority-quorum register per key, at register
    /// cost (the [`MrRegister`](Algorithm::MrRegister) node over
    /// `KvStore`); crash-tolerant up to `⌊(n−1)/2⌋` failures.
    AbdKv,
    /// Algorithm 1 behind the tick-batching wrapper: mutator announcements
    /// flush once per batch tick, trading `+tick` of accessor/mixed latency
    /// for one broadcast per tick instead of one per operation.
    BatchedWtlw {
        /// Tradeoff parameter `X ∈ [0, d − ε]` for the inner node.
        x: Time,
        /// Batch tick `B` (0 disables batching).
        tick: Time,
    },
    /// Algorithm 1 behind the reliable-delivery recovery wrapper.
    ReliableWtlw {
        /// Tradeoff parameter `X ∈ [0, d − ε]` for the inner node.
        x: Time,
        /// Retransmission/detection policy.
        recovery: RecoveryConfig,
    },
    /// Incorrect optimistic replication responding after the given wait.
    NaiveLocal(Time),
}

impl Algorithm {
    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            Algorithm::Wtlw { x } => format!("wtlw(X={x})"),
            Algorithm::WtlwWaits(_) => "wtlw(custom waits)".to_string(),
            Algorithm::Centralized => "centralized".to_string(),
            Algorithm::Broadcast => "broadcast".to_string(),
            Algorithm::MrRegister => "mr-register".to_string(),
            Algorithm::QuorumSm => "quorum-sm".to_string(),
            Algorithm::AbdKv => "abd-kv".to_string(),
            Algorithm::BatchedWtlw { x, tick } => format!("batched-wtlw(X={x}, B={tick})"),
            Algorithm::ReliableWtlw { x, .. } => format!("reliable-wtlw(X={x})"),
            Algorithm::NaiveLocal(w) => format!("naive(wait={w})"),
        }
    }
}

/// Run `algo` over `spec` under `cfg`: the [`Run`] of
/// [`crate::backend::run_backend`] (recovery-layer suspects already folded
/// into [`Run::suspect`]), panicking on a spec `algo` does not support.
pub fn run_algorithm(algo: Algorithm, spec: &Arc<dyn ObjectSpec>, cfg: &SimConfig) -> Run {
    crate::backend::run_backend(&algo, spec, cfg).unwrap_or_else(|err| panic!("{err}")).run
}

/// Latency statistics for one operation name.
#[derive(Clone, Debug, PartialEq)]
pub struct OpStats {
    /// Operation name.
    pub op: &'static str,
    /// Declared class.
    pub class: OpClass,
    /// Number of completed instances.
    pub count: usize,
    /// Minimum latency.
    pub min: Time,
    /// Maximum latency.
    pub max: Time,
    /// Mean latency (ticks, rounded down).
    pub mean: Time,
}

/// Gather per-operation latency statistics from a run.
pub fn op_stats(run: &Run, spec: &Arc<dyn ObjectSpec>) -> Vec<OpStats> {
    let mut grouped: BTreeMap<&'static str, Vec<Time>> = BTreeMap::new();
    for op in run.completed() {
        if let Some(lat) = op.latency() {
            grouped.entry(op.invocation.op).or_default().push(lat);
        }
    }
    grouped
        .into_iter()
        .map(|(op, lats)| {
            let class = spec.op_meta(op).map(|m| m.class).unwrap_or(OpClass::Mixed);
            let min = lats.iter().copied().min().expect("non-empty");
            let max = lats.iter().copied().max().expect("non-empty");
            let sum: i64 = lats.iter().map(|t| t.as_ticks()).sum();
            OpStats { op, class, count: lats.len(), min, max, mean: Time(sum / lats.len() as i64) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliable::run_reliable;
    use crate::wtlw::WtlwNode;
    use lintime_adt::spec::{erase, Invocation};
    use lintime_adt::types::{FifoQueue, KvStore, Register};
    use lintime_adt::value::Value;
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::engine::simulate;
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::{ModelParams, Pid};

    fn queue_workload() -> Schedule {
        Schedule::new()
            .at(Pid(0), Time(0), Invocation::new("enqueue", 1))
            .at(Pid(1), Time(0), Invocation::new("enqueue", 2))
            .at(Pid(2), Time(40_000), Invocation::nullary("peek"))
            .at(Pid(3), Time(80_000), Invocation::nullary("dequeue"))
    }

    #[test]
    fn all_algorithms_complete_the_workload() {
        let p = ModelParams::default_experiment();
        let recovery = RecoveryConfig::standard(p);
        let queue = (erase(FifoQueue::new()), queue_workload());
        let register = (
            erase(Register::new(0)),
            Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 5)).at(
                Pid(1),
                Time(40_000),
                Invocation::nullary("read"),
            ),
        );
        let kv = (
            erase(KvStore::new()),
            Schedule::new().at(Pid(0), Time(0), Invocation::new("put", Value::pair(1, 10))).at(
                Pid(1),
                Time(40_000),
                Invocation::new("get", 1),
            ),
        );
        for (algo, (spec, workload)) in [
            (Algorithm::Wtlw { x: Time(600) }, &queue),
            (Algorithm::WtlwWaits(Waits::standard(p, Time(600))), &queue),
            (Algorithm::Centralized, &queue),
            (Algorithm::Broadcast, &queue),
            (Algorithm::MrRegister, &register),
            (Algorithm::QuorumSm, &queue),
            (Algorithm::AbdKv, &kv),
            (Algorithm::BatchedWtlw { x: Time(600), tick: Time(300) }, &queue),
            (Algorithm::ReliableWtlw { x: Time(600), recovery }, &queue),
            (Algorithm::NaiveLocal(Time::ZERO), &queue),
        ] {
            let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 1 })
                .with_schedule(workload.clone());
            let run = run_algorithm(algo, spec, &cfg);
            assert!(run.complete(), "{} did not complete: {run}", algo.label());
            assert!(run.errors.is_empty(), "{}: {:?}", algo.label(), run.errors);
        }
    }

    #[test]
    fn run_algorithm_is_the_concrete_run_plus_one_tag_byte_per_message() {
        let p = ModelParams::default_experiment();
        let spec = erase(FifoQueue::new());
        let x = Time(600);
        let recovery = RecoveryConfig::standard(p);
        let cfg =
            SimConfig::new(p, DelaySpec::UniformRandom { seed: 1 }).with_schedule(queue_workload());
        let wtlw = simulate(&cfg, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, x));
        let reliable = run_reliable(&spec, &cfg, x, recovery);
        for (algo, direct) in
            [(Algorithm::Wtlw { x }, wtlw), (Algorithm::ReliableWtlw { x, recovery }, reliable)]
        {
            let run = run_algorithm(algo, &spec, &cfg);
            assert!(direct.msgs_sent > 0, "{}", algo.label());
            assert_eq!(run.ops, direct.ops, "{}", algo.label());
            assert_eq!(run.events, direct.events, "{}", algo.label());
            assert_eq!(run.msgs_sent, direct.msgs_sent, "{}", algo.label());
            assert_eq!(run.bytes_sent, direct.bytes_sent + direct.msgs_sent, "{}", algo.label());
        }
    }

    #[test]
    fn wtlw_beats_folklore_on_every_class() {
        let p = ModelParams::default_experiment();
        let spec = erase(FifoQueue::new());
        let mk_cfg = || SimConfig::new(p, DelaySpec::AllMax).with_schedule(queue_workload());
        let wtlw = run_algorithm(Algorithm::Wtlw { x: Time(1200) }, &spec, &mk_cfg());
        let central = run_algorithm(Algorithm::Centralized, &spec, &mk_cfg());
        let bcast = run_algorithm(Algorithm::Broadcast, &spec, &mk_cfg());
        for op in ["enqueue", "peek", "dequeue"] {
            let w = wtlw.max_latency(Some(op)).unwrap();
            let c = central.max_latency(Some(op)).unwrap();
            let b = bcast.max_latency(Some(op)).unwrap();
            assert!(w < c, "{op}: wtlw {w} !< centralized {c}");
            assert!(w < b, "{op}: wtlw {w} !< broadcast {b}");
        }
    }

    #[test]
    fn op_stats_aggregates() {
        let p = ModelParams::default_experiment();
        let spec = erase(FifoQueue::new());
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(queue_workload());
        let run = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &cfg);
        let stats = op_stats(&run, &spec);
        assert_eq!(stats.len(), 3);
        let enq = stats.iter().find(|s| s.op == "enqueue").unwrap();
        assert_eq!(enq.count, 2);
        assert_eq!(enq.class, OpClass::PureMutator);
        assert_eq!(enq.min, enq.max);
        assert_eq!(enq.mean, p.epsilon); // X = 0 → MOP latency = ε
    }
}
