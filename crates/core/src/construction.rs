//! Construction 1 of the paper: the explicit linearization induced by
//! Algorithm 1, verified structurally.
//!
//! The linearizability proof (Section 5.2) does not search for a witness —
//! it *constructs* one:
//!
//! 1. all mutators, in increasing timestamp order;
//! 2. each pure accessor inserted immediately after the last mutator its
//!    invoking process had executed locally when the accessor returned;
//! 3. runs of adjacent pure accessors sorted by timestamp.
//!
//! A production [`WtlwNode`] keeps no per-execution record, so Construction
//! 1 runs on nodes built with the [`ExecLog`] recorder
//! ([`WtlwNode::with_recorder`]), which tests instantiate. [`construct`]
//! builds exactly that permutation from those logs, and [`verify`] checks the
//! two linearization conditions (legality; real-time order of non-overlapping
//! operations) plus the supporting lemmas (all replicas executed the same
//! mutator sequence, in increasing timestamp order — Lemma 5).

use crate::timestamp::Timestamp;
use crate::wtlw::{ExecRecorder, WtlwNode};
use lintime_adt::spec::{Invocation, ObjectSpec, OpInstance};
use lintime_adt::value::Value;
use lintime_sim::run::Run;
use lintime_sim::time::Time;
use std::sync::Arc;

/// A mutator as executed on a process's local copy (Construction 1 input).
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutedMutator {
    /// The mutator's timestamp.
    pub ts: Timestamp,
    /// The executed instance (invocation + locally computed return).
    pub instance: OpInstance,
}

/// A locally-invoked pure accessor as executed (Construction 1 input).
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutedAccessor {
    /// The accessor's (backdated) timestamp.
    pub ts: Timestamp,
    /// The executed instance.
    pub instance: OpInstance,
    /// How many mutators this process had executed when the accessor ran —
    /// i.e. the accessor reads the state after `mutators[..after]`.
    pub after: usize,
}

/// The [`ExecRecorder`] Construction 1 reads: every execution on one
/// replica, in execution order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecLog {
    /// Mutators executed on the local copy.
    pub mutators: Vec<ExecutedMutator>,
    /// Locally-invoked pure accessors.
    pub accessors: Vec<ExecutedAccessor>,
}

impl ExecRecorder for ExecLog {
    fn mutator(&mut self, ts: Timestamp, inv: &Invocation, ret: &Value) {
        let instance = OpInstance { op: inv.op, arg: inv.arg.clone(), ret: ret.clone() };
        self.mutators.push(ExecutedMutator { ts, instance });
    }

    fn accessor(&mut self, ts: Timestamp, inv: &Invocation, ret: &Value) {
        let instance = OpInstance { op: inv.op, arg: inv.arg.clone(), ret: ret.clone() };
        self.accessors.push(ExecutedAccessor { ts, instance, after: self.mutators.len() });
    }
}

/// One element of the constructed permutation.
#[derive(Clone, Debug, PartialEq)]
pub struct Placed {
    /// The operation instance.
    pub instance: OpInstance,
    /// Its timestamp (backdated for accessors).
    pub ts: Timestamp,
    /// Whether this entry is a pure accessor.
    pub is_accessor: bool,
}

/// Build the Construction-1 permutation from the nodes' [`ExecLog`]s.
///
/// Fails if the replicas executed different mutator sequences (which would
/// falsify Lemma 5 / History Oblivion).
pub fn construct(nodes: &[WtlwNode<ExecLog>]) -> Result<Vec<Placed>, String> {
    let reference = &nodes[0].recorder().mutators;
    for (i, node) in nodes.iter().enumerate().skip(1) {
        let mutators = &node.recorder().mutators;
        if mutators.len() != reference.len() {
            return Err(format!(
                "replica p{} executed {} mutators, p0 executed {}",
                i,
                mutators.len(),
                reference.len()
            ));
        }
        for (k, (a, b)) in reference.iter().zip(mutators).enumerate() {
            if a != b {
                return Err(format!(
                    "replica p{i} diverges from p0 at mutator #{k}: {:?} vs {:?}",
                    b, a
                ));
            }
        }
    }
    // Lemma 5: mutators executed in increasing timestamp order.
    for w in reference.windows(2) {
        if w[0].ts >= w[1].ts {
            return Err(format!(
                "mutators executed out of timestamp order: {:?} then {:?}",
                w[0].ts, w[1].ts
            ));
        }
    }

    // Bucket accessors by insertion position (index into the mutator
    // sequence after which they go), then sort each bucket by timestamp.
    let mut buckets: Vec<Vec<Placed>> = vec![Vec::new(); reference.len() + 1];
    for node in nodes {
        for acc in &node.recorder().accessors {
            buckets[acc.after].push(Placed {
                instance: acc.instance.clone(),
                ts: acc.ts,
                is_accessor: true,
            });
        }
    }
    for bucket in &mut buckets {
        bucket.sort_by_key(|p| p.ts);
    }

    let mut pi = Vec::new();
    pi.extend(buckets[0].iter().cloned());
    for (k, m) in reference.iter().enumerate() {
        pi.push(Placed { instance: m.instance.clone(), ts: m.ts, is_accessor: false });
        pi.extend(buckets[k + 1].iter().cloned());
    }
    Ok(pi)
}

/// Verify that the constructed permutation linearizes the run:
///
/// * it contains exactly the run's completed instances;
/// * it is legal for `spec`;
/// * it respects the real-time order of non-overlapping operations.
pub fn verify(
    run: &Run,
    nodes: &[WtlwNode<ExecLog>],
    spec: &Arc<dyn ObjectSpec>,
) -> Result<Vec<Placed>, String> {
    let pi = construct(nodes)?;

    // Same multiset of instances as the run.
    let mut from_run: Vec<OpInstance> = run.ops.iter().filter_map(|o| o.instance()).collect();
    let mut from_pi: Vec<OpInstance> = pi.iter().map(|p| p.instance.clone()).collect();
    let key = |i: &OpInstance| format!("{i:?}");
    from_run.sort_by_key(key);
    from_pi.sort_by_key(key);
    if from_run != from_pi {
        return Err(format!(
            "permutation instances differ from run instances:\n  run: {from_run:?}\n  pi:  {from_pi:?}"
        ));
    }

    // Legality (Lemma 7).
    let seq: Vec<OpInstance> = pi.iter().map(|p| p.instance.clone()).collect();
    if let Some(idx) = spec.first_illegal(&seq) {
        return Err(format!("constructed permutation illegal at position {idx}: {:?}", seq[idx]));
    }

    // Real-time order (Lemma 6). Match π entries to run records through
    // intervals: for each pair i < j in π, op_j must NOT respond before op_i
    // is invoked. Instances may repeat, so match greedily by earliest
    // interval per identical instance, per position.
    let intervals = match_intervals(run, &pi)?;
    for i in 0..intervals.len() {
        for j in (i + 1)..intervals.len() {
            let (_, resp_j) = intervals[j];
            let (inv_i, _) = intervals[i];
            if resp_j < inv_i {
                return Err(format!(
                    "real-time order violated: π[{j}] ({:?}) responded at {:?} before π[{i}] ({:?}) invoked at {:?}",
                    pi[j].instance, resp_j, pi[i].instance, inv_i
                ));
            }
        }
    }
    Ok(pi)
}

/// Match each π entry to a run record, returning `(t_invoke, t_respond)` per
/// entry. Identical instances are matched in invocation-time order, which is
/// the most permissive assignment for the subsequent real-time check among
/// equal candidates.
fn match_intervals(run: &Run, pi: &[Placed]) -> Result<Vec<(Time, Time)>, String> {
    let mut used = vec![false; run.ops.len()];
    let mut out = Vec::with_capacity(pi.len());
    for p in pi {
        let mut best: Option<(usize, Time, Time)> = None;
        for (k, op) in run.ops.iter().enumerate() {
            if used[k] {
                continue;
            }
            let Some(inst) = op.instance() else { continue };
            if inst != p.instance {
                continue;
            }
            let t_resp = op.t_respond.expect("completed");
            if best.is_none_or(|(_, bi, _)| op.t_invoke < bi) {
                best = Some((k, op.t_invoke, t_resp));
            }
        }
        let (k, ti, tr) =
            best.ok_or_else(|| format!("no unmatched run record for {:?}", p.instance))?;
        used[k] = true;
        out.push((ti, tr));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wtlw::Waits;
    use lintime_adt::spec::erase;
    use lintime_adt::types::{FifoQueue, Register, RmwRegister};
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::engine::{simulate_full, SimConfig};
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::{ModelParams, Pid, Time};

    fn recorded_run(
        spec: &Arc<dyn ObjectSpec>,
        x: Time,
        delay: DelaySpec,
        schedule: Schedule,
    ) -> (Run, Vec<WtlwNode<ExecLog>>) {
        let p = ModelParams::default_experiment();
        let cfg = SimConfig::new(p, delay).with_schedule(schedule);
        let (run, nodes) = simulate_full(&cfg, |pid| {
            WtlwNode::with_recorder(
                pid,
                Arc::clone(spec),
                Waits::standard(p, x),
                ExecLog::default(),
            )
        });
        assert!(run.complete(), "{run}");
        (run, nodes)
    }

    fn run_and_verify(
        spec: Arc<dyn ObjectSpec>,
        x: Time,
        delay: DelaySpec,
        schedule: Schedule,
    ) -> Result<Vec<Placed>, String> {
        let (run, nodes) = recorded_run(&spec, x, delay, schedule);
        verify(&run, &nodes, &spec)
    }

    #[test]
    fn register_workload_verifies() {
        let pi = run_and_verify(
            erase(Register::new(0)),
            Time(1200),
            DelaySpec::AllMax,
            Schedule::new()
                .at(Pid(0), Time(0), Invocation::new("write", 1))
                .at(Pid(1), Time(5), Invocation::new("write", 2))
                .at(Pid(2), Time(10_000), Invocation::nullary("read"))
                .at(Pid(3), Time(10_000), Invocation::nullary("read")),
        )
        .expect("construction must verify");
        assert_eq!(pi.len(), 4);
        // Mutators appear in timestamp order within π.
        let mut last_mut_ts = None;
        for p in &pi {
            if !p.is_accessor {
                assert!(last_mut_ts.is_none_or(|t| t < p.ts));
                last_mut_ts = Some(p.ts);
            }
        }
    }

    #[test]
    fn queue_with_mixed_ops_verifies() {
        run_and_verify(
            erase(FifoQueue::new()),
            Time(600),
            DelaySpec::UniformRandom { seed: 21 },
            Schedule::new()
                .at(Pid(0), Time(0), Invocation::new("enqueue", 1))
                .at(Pid(1), Time(0), Invocation::new("enqueue", 2))
                .at(Pid(2), Time(100), Invocation::nullary("dequeue"))
                .at(Pid(3), Time(200), Invocation::nullary("peek"))
                .at(Pid(0), Time(30_000), Invocation::nullary("dequeue")),
        )
        .expect("construction must verify");
    }

    #[test]
    fn rmw_contention_verifies() {
        run_and_verify(
            erase(RmwRegister::new(0)),
            Time::ZERO,
            DelaySpec::AllMin,
            Schedule::new()
                .at(Pid(0), Time(0), Invocation::new("rmw", 1))
                .at(Pid(1), Time(1), Invocation::new("rmw", 10))
                .at(Pid(2), Time(2), Invocation::new("rmw", 100))
                .at(Pid(3), Time(20_000), Invocation::nullary("read")),
        )
        .expect("construction must verify");
    }

    #[test]
    fn diverging_replicas_are_reported() {
        // Take p0 from two runs that differ only in the value p0 writes: the
        // replicas executed diverging sequences of equal length.
        let spec = erase(Register::new(0));
        let p0_after = |value: i64| {
            let schedule = Schedule::new().at(Pid(0), Time(1), Invocation::new("write", value));
            recorded_run(&spec, Time::ZERO, DelaySpec::AllMax, schedule).1.swap_remove(0)
        };
        let (a, b) = (p0_after(1), p0_after(2));
        assert_eq!(a.executed(), b.executed());
        assert_ne!(a.exec_digest(), b.exec_digest(), "the digest must see the divergence");
        let err = construct(&[a, b]).unwrap_err();
        assert!(err.contains("diverges"), "{err}");
    }

    #[test]
    fn recorder_does_not_change_the_run_or_the_digest() {
        // The recorder only observes: a recording cluster produces the same
        // run and the same per-replica execution state as a production one.
        let p = ModelParams::default_experiment();
        let spec = erase(FifoQueue::new());
        let schedule = Schedule::new()
            .at(Pid(0), Time(0), Invocation::new("enqueue", 1))
            .at(Pid(1), Time(3), Invocation::new("enqueue", 2))
            .at(Pid(2), Time(6), Invocation::nullary("dequeue"))
            .at(Pid(3), Time(9), Invocation::nullary("peek"));
        let delay = DelaySpec::UniformRandom { seed: 8 };
        let (recorded, logged) = recorded_run(&spec, Time(600), delay.clone(), schedule.clone());
        let cfg = SimConfig::new(p, delay).with_schedule(schedule);
        let (plain, nodes) =
            simulate_full(&cfg, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time(600)));
        assert_eq!(format!("{recorded:?}"), format!("{plain:?}"));
        for (a, b) in logged.iter().zip(&nodes) {
            assert_eq!(a.executed(), b.executed());
            assert_eq!(a.exec_digest(), b.exec_digest());
            assert_eq!(a.frontier(), b.frontier());
            assert_eq!(a.recorder().mutators.len() as u64, a.executed());
        }
    }
}
