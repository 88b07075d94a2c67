//! Recorded runs: operation records, message records, timed views,
//! admissibility, and record-level shifting (Theorem 1).

use crate::faults::InjectedFault;
use crate::time::{ModelParams, Pid, Time};
use lintime_adt::spec::{Invocation, ObjectSpec, OpClass, OpInstance};
use lintime_adt::value::Value;
use std::fmt;

/// One operation instance as observed in a run: the invocation, the response
/// (if any), and their real times.
#[derive(Clone, Debug, PartialEq)]
pub struct OpRecord {
    /// Invoking process.
    pub pid: Pid,
    /// The invocation.
    pub invocation: Invocation,
    /// The return value, if the operation responded.
    pub ret: Option<Value>,
    /// Real time of the invocation event.
    pub t_invoke: Time,
    /// Real time of the response, if any.
    pub t_respond: Option<Time>,
}

impl OpRecord {
    /// Elapsed time of the operation, if completed.
    pub fn latency(&self) -> Option<Time> {
        self.t_respond.map(|t| t - self.t_invoke)
    }

    /// The completed instance `(op, arg, ret)`, if the operation responded.
    pub fn instance(&self) -> Option<OpInstance> {
        self.ret.as_ref().map(|ret| OpInstance {
            op: self.invocation.op,
            arg: self.invocation.arg.clone(),
            ret: ret.clone(),
        })
    }
}

/// One message as observed in a run.
#[derive(Clone, Debug, PartialEq)]
pub struct MsgRecord {
    /// Sender.
    pub from: Pid,
    /// Recipient.
    pub to: Pid,
    /// Real send time.
    pub t_send: Time,
    /// Real receive time (`None` if undelivered when the run was cut off).
    pub t_recv: Option<Time>,
}

impl MsgRecord {
    /// The message delay, if delivered.
    pub fn delay(&self) -> Option<Time> {
        self.t_recv.map(|t| t - self.t_send)
    }
}

/// The trigger of one step, as visible to the process (no real times).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepTrigger {
    /// An operation invocation arrived from the user.
    Invoke(String),
    /// A message arrived.
    Deliver {
        /// Sending process.
        from: Pid,
        /// Debug rendering of the payload.
        msg: String,
    },
    /// A timer went off.
    Timer(String),
}

/// One step of a process's view: the local clock reading, the trigger, and a
/// digest of the transition's outputs. Real times are deliberately absent —
/// "processes have no way of observing" them — so equal views across two runs
/// certify that the runs are indistinguishable to the process (the key fact
/// behind the shifting technique).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewStep {
    /// Local clock value at the step.
    pub local_time: Time,
    /// The triggering event.
    pub trigger: StepTrigger,
    /// Number of messages sent by the transition.
    pub sends: usize,
    /// Debug rendering of the response, if one was produced.
    pub response: Option<String>,
}

/// A recorded run of the engine.
#[derive(Clone, Debug)]
pub struct Run {
    /// Model parameters of the run.
    pub params: ModelParams,
    /// Clock offsets: local = real + `offsets[i]` at process `p_i`.
    pub offsets: Vec<Time>,
    /// All operations, in invocation order.
    pub ops: Vec<OpRecord>,
    /// All messages (empty unless message recording was enabled).
    pub msgs: Vec<MsgRecord>,
    /// Per-process views (empty unless view recording was enabled).
    pub views: Vec<Vec<ViewStep>>,
    /// Real time of the last processed event.
    pub last_time: Time,
    /// Number of events processed.
    pub events: u64,
    /// Engine-detected protocol errors (e.g. overlapping invocations at one
    /// process). Empty in well-formed experiments.
    pub errors: Vec<String>,
    /// Delay-admissibility violations observed while running (messages with
    /// delay outside `[d - u, d]`).
    pub delay_violations: u64,
    /// True iff the engine stopped before quiescence (event cap reached or
    /// invalid configuration). Truncated runs must never be certified
    /// linearizable: operations and messages past the cutoff are missing.
    pub truncated: bool,
    /// Number of pending (never-responded) operations attributable to an
    /// injected crash of their invoking process. Part of the run honesty
    /// flags: a run with `pending ops == crashed_pending` lost responses
    /// *only* to crashes, not to protocol bugs or truncation.
    pub crashed_pending: u64,
    /// Open-loop arrivals (see [`crate::schedule::Schedule::open`]) that
    /// arrived during the run but were still waiting in a process's ingress
    /// queue when it ended. They never became invocations, so they appear in
    /// no [`OpRecord`]; a nonzero count means the offered load outran the
    /// service rate for the duration of the run.
    pub unadmitted: u64,
    /// Protocol messages sent by nodes (each `Effects::send` counts once,
    /// whether or not the network later dropped it; fault-injected duplicates
    /// are not protocol cost and are excluded).
    pub msgs_sent: u64,
    /// Total estimated wire bytes of all protocol messages sent (see
    /// [`crate::node::Node::msg_wire_bytes`]).
    pub bytes_sent: u64,
    /// Faults injected by the configured [`crate::faults::FaultPlan`], in
    /// injection order. Empty for fault-free runs.
    pub faults: Vec<InjectedFault>,
    /// Diagnostics from runtime violation detectors (e.g. a mutator arriving
    /// with a timestamp older than the execution frontier). Non-empty means
    /// the run is *suspect*: responses may reflect out-of-model behavior and
    /// a linearizability verdict should not be trusted without scrutiny.
    pub suspect: Vec<String>,
}

impl Run {
    /// True iff every invocation received a response (the first correctness
    /// requirement of Section 2.3).
    pub fn complete(&self) -> bool {
        self.ops.iter().all(|op| op.ret.is_some())
    }

    /// True iff a violation detector flagged this run (see
    /// [`Run::suspect`]).
    pub fn is_suspect(&self) -> bool {
        !self.suspect.is_empty()
    }

    /// True iff the run is trustworthy enough to certify: it ran to
    /// quiescence (not truncated) and no violation detector fired.
    pub fn certifiable(&self) -> bool {
        !self.truncated && !self.is_suspect()
    }

    /// True iff the run is admissible: clock skews within ε and all observed
    /// message delays within `[d - u, d]`.
    pub fn is_admissible(&self) -> bool {
        self.skew() <= self.params.epsilon && self.delay_violations == 0
    }

    /// Maximum pairwise clock skew.
    pub fn skew(&self) -> Time {
        let max = self.offsets.iter().copied().max().unwrap_or(Time::ZERO);
        let min = self.offsets.iter().copied().min().unwrap_or(Time::ZERO);
        max - min
    }

    /// All completed operations with their instances and intervals.
    pub fn completed(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(|op| op.ret.is_some())
    }

    /// All pending (never-responded) operations.
    pub fn pending(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(|op| op.ret.is_none())
    }

    /// Protocol messages sent per completed operation (`None` if nothing
    /// completed). The communication-cost figure of merit alongside latency.
    pub fn msgs_per_completed_op(&self) -> Option<f64> {
        let done = self.completed().count();
        (done > 0).then(|| self.msgs_sent as f64 / done as f64)
    }

    /// Latencies of all completed instances of operation `op` (all, if `None`).
    pub fn latencies(&self, op: Option<&str>) -> Vec<Time> {
        self.completed()
            .filter(|r| op.is_none_or(|name| r.invocation.op == name))
            .filter_map(|r| r.latency())
            .collect()
    }

    /// Worst-case latency over completed instances of `op` (all ops if `None`).
    pub fn max_latency(&self, op: Option<&str>) -> Option<Time> {
        self.latencies(op).into_iter().max()
    }

    /// `last-time` of the run (Section 2.2): the maximum real time of any
    /// step; equals `self.last_time`.
    pub fn last_time(&self) -> Time {
        self.last_time
    }

    /// Record-level `shift(R, x̄)`: move every step of `p_i` by `x[i]`.
    ///
    /// Per Theorem 1 this changes the clock offset of `p_i` to `c_i − x_i`
    /// and the delay of a message from `p_i` to `p_j` to `δ − x_i + x_j`,
    /// while every process's *view* is unchanged. The returned run reflects
    /// exactly that; `delay_violations` is recomputed from the shifted
    /// message records (which requires message recording to have been on if
    /// you intend to re-check admissibility).
    pub fn shifted(&self, x: &[Time]) -> Run {
        assert_eq!(x.len(), self.offsets.len(), "need one shift per process");
        let ops = self
            .ops
            .iter()
            .map(|op| OpRecord {
                pid: op.pid,
                invocation: op.invocation.clone(),
                ret: op.ret.clone(),
                t_invoke: op.t_invoke + x[op.pid.0],
                t_respond: op.t_respond.map(|t| t + x[op.pid.0]),
            })
            .collect::<Vec<_>>();
        let msgs: Vec<MsgRecord> = self
            .msgs
            .iter()
            .map(|m| MsgRecord {
                from: m.from,
                to: m.to,
                t_send: m.t_send + x[m.from.0],
                t_recv: m.t_recv.map(|t| t + x[m.to.0]),
            })
            .collect();
        let offsets: Vec<Time> = self.offsets.iter().zip(x).map(|(c, xi)| *c - *xi).collect();
        let delay_violations =
            msgs.iter().filter_map(MsgRecord::delay).filter(|d| !self.params.delay_ok(*d)).count()
                as u64;
        let last_time = ops
            .iter()
            .flat_map(|o| [Some(o.t_invoke), o.t_respond])
            .flatten()
            .chain(msgs.iter().flat_map(|m| [Some(m.t_send), m.t_recv]).flatten())
            .max()
            .unwrap_or(self.last_time);
        Run {
            params: self.params,
            offsets,
            ops,
            msgs,
            views: self.views.clone(), // views are shift-invariant
            last_time,
            events: self.events,
            errors: self.errors.clone(),
            delay_violations,
            truncated: self.truncated,
            crashed_pending: self.crashed_pending,
            unadmitted: self.unadmitted,
            msgs_sent: self.msgs_sent,
            bytes_sent: self.bytes_sent,
            faults: self.faults.clone(),
            suspect: self.suspect.clone(),
        }
    }

    /// Break [`Run::crashed_pending`] down by operation class: how many of
    /// the crash-attributable pending operations were pure mutators, pure
    /// accessors, or mixed under `spec`. Operations the spec does not know
    /// are counted as mixed (the conservative bucket — they may both have
    /// taken effect and carry an unobserved response value, exactly the
    /// completions the pending-aware checker must enumerate).
    pub fn crashed_pending_by_class(&self, spec: &dyn ObjectSpec) -> CrashedPendingByClass {
        let crashed = |pid: Pid| {
            self.faults
                .iter()
                .any(|f| matches!(f, InjectedFault::Crashed { pid: p, .. } if *p == pid))
        };
        let mut by_class = CrashedPendingByClass::default();
        for op in self.pending() {
            // Same attribution rule as the engine's `crashed_pending`: every
            // pending op of a crashed invoker, so `total()` matches it.
            if !crashed(op.pid) {
                continue;
            }
            match spec.op_meta(op.invocation.op).map(|m| m.class) {
                Some(OpClass::PureMutator) => by_class.mutators += 1,
                Some(OpClass::PureAccessor) => by_class.accessors += 1,
                Some(OpClass::Mixed) | None => by_class.mixed += 1,
            }
        }
        by_class
    }

    /// Compare per-process views with another run (both must have view
    /// recording enabled). Used to validate the shifting theorem: a run and
    /// its re-executed shift must have identical views.
    pub fn views_equal(&self, other: &Run) -> bool {
        self.views == other.views
    }
}

/// [`Run::crashed_pending`] broken down by the pending operation's class
/// (see [`Run::crashed_pending_by_class`]). Pure-mutator losses are cheap
/// for the checker (their completions are ret-free); mixed losses are the
/// expensive bucket (every completion response value must be enumerated).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashedPendingByClass {
    /// Crash-attributable pending pure mutators.
    pub mutators: u64,
    /// Crash-attributable pending pure accessors.
    pub accessors: u64,
    /// Crash-attributable pending mixed (or unclassifiable) operations.
    pub mixed: u64,
}

impl CrashedPendingByClass {
    /// Total across all classes (equals [`Run::crashed_pending`]).
    pub fn total(&self) -> u64 {
        self.mutators + self.accessors + self.mixed
    }
}

impl fmt::Display for CrashedPendingByClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}m/{}a/{}x", self.mutators, self.accessors, self.mixed)
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run: {} ops ({} complete), {} sends ({} bytes), last_time {}, admissible: {}{}{}{}{}{}",
            self.ops.len(),
            self.completed().count(),
            self.msgs_sent,
            self.bytes_sent,
            self.last_time,
            self.is_admissible(),
            if self.truncated { ", TRUNCATED" } else { "" },
            if self.is_suspect() { ", SUSPECT" } else { "" },
            if self.crashed_pending > 0 {
                format!(", {} crashed-pending", self.crashed_pending)
            } else {
                String::new()
            },
            if self.unadmitted > 0 {
                format!(", {} unadmitted arrivals", self.unadmitted)
            } else {
                String::new()
            },
            if self.faults.is_empty() {
                String::new()
            } else {
                format!(", {} injected faults", self.faults.len())
            }
        )?;
        for op in &self.ops {
            writeln!(
                f,
                "  {} {:?} [{} .. {}] -> {:?}",
                op.pid,
                op.invocation,
                op.t_invoke,
                op.t_respond.map_or("pending".to_string(), |t| t.to_string()),
                op.ret
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> Run {
        let params = ModelParams::default_experiment();
        Run {
            params,
            offsets: vec![Time(0); 4],
            ops: vec![
                OpRecord {
                    pid: Pid(0),
                    invocation: Invocation::new("write", 1),
                    ret: Some(Value::Unit),
                    t_invoke: Time(100),
                    t_respond: Some(Time(1900)),
                },
                OpRecord {
                    pid: Pid(1),
                    invocation: Invocation::nullary("read"),
                    ret: Some(Value::Int(1)),
                    t_invoke: Time(2000),
                    t_respond: Some(Time(8000)),
                },
            ],
            msgs: vec![MsgRecord {
                from: Pid(0),
                to: Pid(1),
                t_send: Time(100),
                t_recv: Some(Time(3700)),
            }],
            views: vec![Vec::new(); 4],
            last_time: Time(8000),
            events: 10,
            errors: Vec::new(),
            delay_violations: 0,
            truncated: false,
            crashed_pending: 0,
            unadmitted: 0,
            msgs_sent: 1,
            bytes_sent: 24,
            faults: Vec::new(),
            suspect: Vec::new(),
        }
    }

    #[test]
    fn op_record_is_96_bytes() {
        assert_eq!(std::mem::size_of::<OpRecord>(), 96);
    }

    #[test]
    fn completeness_and_latency() {
        let run = sample_run();
        assert!(run.complete());
        assert_eq!(run.max_latency(Some("write")), Some(Time(1800)));
        assert_eq!(run.max_latency(Some("read")), Some(Time(6000)));
        assert_eq!(run.max_latency(None), Some(Time(6000)));
        assert_eq!(run.latencies(Some("nothing")), vec![]);
    }

    #[test]
    fn admissibility_depends_on_skew_and_delays() {
        let mut run = sample_run();
        assert!(run.is_admissible());
        run.offsets[0] = Time(5000); // skew 5000 > ε = 1800
        assert!(!run.is_admissible());
    }

    #[test]
    fn shifting_follows_theorem_1() {
        let run = sample_run();
        let x = [Time(600), Time(-600), Time(0), Time(0)];
        let shifted = run.shifted(&x);
        // Offsets: c_i - x_i.
        assert_eq!(shifted.offsets[0], Time(-600));
        assert_eq!(shifted.offsets[1], Time(600));
        // Op intervals move with their process.
        assert_eq!(shifted.ops[0].t_invoke, Time(700));
        assert_eq!(shifted.ops[1].t_invoke, Time(1400));
        // Message delay: δ - x_from + x_to = 3600 - 600 - 600 = 2400 < d - u.
        assert_eq!(shifted.msgs[0].delay(), Some(Time(2400)));
        assert_eq!(shifted.delay_violations, 1);
        assert!(!shifted.is_admissible());
        // Skew became 1200 ≤ ε, so inadmissibility is purely delay-driven.
        assert_eq!(shifted.skew(), Time(1200));
    }

    #[test]
    fn zero_shift_is_identity() {
        let run = sample_run();
        let shifted = run.shifted(&[Time::ZERO; 4]);
        assert_eq!(shifted.ops, run.ops);
        assert_eq!(shifted.msgs, run.msgs);
        assert_eq!(shifted.offsets, run.offsets);
        assert!(shifted.is_admissible());
    }

    #[test]
    fn comm_cost_per_completed_op() {
        let mut run = sample_run();
        assert_eq!(run.msgs_per_completed_op(), Some(0.5));
        assert_eq!(run.pending().count(), 0);
        run.ops[1].ret = None;
        run.ops[1].t_respond = None;
        assert_eq!(run.pending().count(), 1);
        assert_eq!(run.msgs_per_completed_op(), Some(1.0));
    }

    #[test]
    fn crashed_pending_breaks_down_by_class() {
        let mut run = sample_run();
        // The reader crashed mid-operation; the writer's pending op is NOT
        // crash-attributable (no fault for its pid) and must not be counted.
        run.ops[0].ret = None;
        run.ops[0].t_respond = None;
        run.ops[1].ret = None;
        run.ops[1].t_respond = None;
        run.faults.push(InjectedFault::Crashed { pid: Pid(1), at: Time(2500) });
        let spec = lintime_adt::spec::erase(lintime_adt::types::Register::new(0));
        let by_class = run.crashed_pending_by_class(spec.as_ref());
        assert_eq!(by_class.accessors, 1);
        assert_eq!(by_class.mutators, 0);
        assert_eq!(by_class.mixed, 0);
        assert_eq!(by_class.total(), 1);
        assert_eq!(by_class.to_string(), "0m/1a/0x");
        // Once the writer's crash is recorded too, its pure-mutator pending
        // op joins the breakdown — matching the engine's attribution.
        run.faults.push(InjectedFault::Crashed { pid: Pid(0), at: Time(50) });
        let both = run.crashed_pending_by_class(spec.as_ref());
        assert_eq!((both.mutators, both.accessors, both.total()), (1, 1, 2));
    }

    #[test]
    fn instance_extraction() {
        let run = sample_run();
        let inst = run.ops[1].instance().unwrap();
        assert_eq!(inst.op, "read");
        assert_eq!(inst.ret, Value::Int(1));
    }
}
