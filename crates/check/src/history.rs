//! Concurrent histories: operation instances with real-time intervals,
//! extracted from recorded runs.

use lintime_adt::spec::{Invocation, OpInstance};
use lintime_sim::faults::InjectedFault;
use lintime_sim::run::Run;
use lintime_sim::time::{Pid, Time};

/// One completed operation in a concurrent history.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedOp {
    /// Invoking process.
    pub pid: Pid,
    /// The completed instance.
    pub instance: OpInstance,
    /// Real invocation time.
    pub t_invoke: Time,
    /// Real response time.
    pub t_respond: Time,
}

impl TimedOp {
    /// True iff this operation responded strictly before `other` was invoked
    /// (the real-time precedence that linearizations must respect).
    pub fn precedes(&self, other: &TimedOp) -> bool {
        self.t_respond < other.t_invoke
    }
}

/// A concurrent history: a set of completed operations with intervals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct History {
    /// The operations, in no particular order.
    pub ops: Vec<TimedOp>,
}

impl History {
    /// Extract a history from a run. Fails if any operation is missing its
    /// response (linearizability is defined over complete runs; see
    /// Section 2.3) or if the run was truncated (event cap, crash, or
    /// invalid configuration) — a verdict on a partial run would be
    /// meaningless and must never be certified.
    pub fn from_run(run: &Run) -> Result<History, String> {
        refuse_truncated(run)?;
        if !run.complete() {
            let pending = run.ops.iter().filter(|o| o.ret.is_none()).count();
            return Err(format!("run is not complete: {pending} pending operations"));
        }
        Ok(completed_ops(run).0)
    }

    /// Build a history from explicit tuples (for tests):
    /// `(pid, instance, t_invoke, t_respond)`.
    pub fn from_tuples(items: Vec<(usize, OpInstance, i64, i64)>) -> History {
        History {
            ops: items
                .into_iter()
                .map(|(pid, instance, ti, tr)| TimedOp {
                    pid: Pid(pid),
                    instance,
                    t_invoke: Time(ti),
                    t_respond: Time(tr),
                })
                .collect(),
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the history has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Extract a *pending-aware* history: completed operations plus the
    /// pending (open-interval) ones, failing only on truncation. This is the
    /// entry point for fault-injected runs, where a crashed process's
    /// in-flight operation legitimately never responds; see
    /// [`crate::monitor::check_fast_pending`] for the matching decision
    /// procedure.
    pub fn from_run_with_pending(run: &Run) -> Result<PendingHistory, String> {
        refuse_truncated(run)?;
        let crash_at = |pid: Pid| {
            run.faults.iter().find_map(|f| match f {
                InjectedFault::Crashed { pid: p, at } if *p == pid => Some(*at),
                _ => None,
            })
        };
        let pending = run
            .ops
            .iter()
            .filter(|op| op.ret.is_none() && op.t_respond.is_none())
            .map(|op| PendingOp {
                pid: op.pid,
                invocation: op.invocation.clone(),
                t_invoke: op.t_invoke,
                // An operation invoked at or after its process's crash was
                // never executed by the node — no message, timer, or state
                // change can stem from it, so it provably took no effect.
                may_have_effect: crash_at(op.pid).is_none_or(|at| op.t_invoke < at),
            })
            .collect();
        let (complete, malformed) = completed_ops(run);
        Ok(PendingHistory { complete, pending, horizon: run.last_time, malformed })
    }
}

/// A verdict on a partial run would be meaningless and must never be
/// certified: refuse truncated runs (event cap, crash, or invalid
/// configuration) with their diagnostics.
fn refuse_truncated(run: &Run) -> Result<(), String> {
    if !run.truncated {
        return Ok(());
    }
    let why = if run.errors.is_empty() {
        "no diagnostic recorded".to_string()
    } else {
        run.errors.join("; ")
    };
    Err(format!("run is truncated and cannot be checked: {why}"))
}

/// Split a run's records: the completed operations, plus the number of
/// **malformed** records — exactly one of `ret` / `t_respond` present. Such a
/// record is neither a completed operation nor a well-formed pending one
/// (both absent, legitimate under crashes); it can only come from a
/// corrupted or buggy recorder, so it is counted rather than silently
/// dropped, and the pending-aware checker refuses to certify a refutation
/// over it.
fn completed_ops(run: &Run) -> (History, usize) {
    let mut malformed = 0;
    let ops = run
        .ops
        .iter()
        .filter_map(|op| match (op.instance(), op.t_respond) {
            (Some(instance), Some(t_respond)) => {
                Some(TimedOp { pid: op.pid, instance, t_invoke: op.t_invoke, t_respond })
            }
            (None, None) => None,
            _ => {
                malformed += 1;
                None
            }
        })
        .collect();
    (History { ops }, malformed)
}

/// A pending (open-interval) operation: invoked, never responded.
///
/// Linearizability over histories with pending operations (Herlihy–Wing)
/// quantifies over *completions*: each pending operation is either removed
/// (it never took effect) or completed with some response. [`PendingOp`]
/// carries the information the checker needs to enumerate completions.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingOp {
    /// Invoking process.
    pub pid: Pid,
    /// The invocation (no return value exists).
    pub invocation: Invocation,
    /// Real invocation time.
    pub t_invoke: Time,
    /// Whether the operation could have taken effect before the run ended.
    /// `false` is a *proof* of no effect (e.g. the invoking process crashed
    /// before the invocation executed), letting the checker drop the
    /// operation unconditionally instead of trying both completions.
    pub may_have_effect: bool,
}

/// A history with its pending operations preserved, extracted by
/// [`History::from_run_with_pending`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PendingHistory {
    /// The completed operations.
    pub complete: History,
    /// The pending ones.
    pub pending: Vec<PendingOp>,
    /// The run's end time: fabricated responses for included pending
    /// operations are placed here, which (being ≥ every other event) imposes
    /// the fewest real-time precedence constraints — the most permissive
    /// sound choice of completion time.
    pub horizon: Time,
    /// Ill-formed operation records dropped during extraction: exactly one of
    /// response value / response time recorded — evidence of recorder
    /// corruption, never of a crash. When non-zero the record of the run is
    /// incomplete in a way crashes cannot explain, so the pending-aware
    /// checker degrades refutations to `Unknown` instead of certifying them.
    pub malformed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::OpInstance;

    fn inst(op: &'static str, arg: i64, ret: i64) -> OpInstance {
        OpInstance::new(op, arg, ret)
    }

    #[test]
    fn timed_op_is_88_bytes() {
        assert_eq!(std::mem::size_of::<TimedOp>(), 88);
    }

    #[test]
    fn precedence_is_strict_response_before_invoke() {
        let h = History::from_tuples(vec![
            (0, inst("a", 0, 0), 0, 10),
            (1, inst("b", 0, 0), 10, 20), // touches at 10: NOT preceded
            (2, inst("c", 0, 0), 11, 30),
        ]);
        assert!(!h.ops[0].precedes(&h.ops[1]));
        assert!(h.ops[0].precedes(&h.ops[2]));
    }

    #[test]
    fn predecessor_edge_counts_on_known_history() {
        // A fixed 6-op history with a mix of nesting, overlap, and strict
        // sequencing; the edge lists pin `precedes` (j before i iff
        // respond_j < invoke_i), which both brute-force oracles rely on.
        let h = History::from_tuples(vec![
            (0, inst("a", 0, 0), 0, 10),  // precedes c, d, e, f
            (1, inst("b", 0, 0), 5, 40),  // overlaps everything up to e
            (2, inst("c", 0, 0), 12, 20), // precedes d, f
            (3, inst("d", 0, 0), 25, 30), // precedes f
            (4, inst("e", 0, 0), 25, 35), // precedes f
            (5, inst("f", 0, 0), 50, 60),
        ]);
        let prec: Vec<Vec<usize>> = (0..h.len())
            .map(|i| (0..h.len()).filter(|&j| h.ops[j].precedes(&h.ops[i])).collect())
            .collect();
        assert_eq!(prec[0], Vec::<usize>::new());
        assert_eq!(prec[1], Vec::<usize>::new());
        assert_eq!(prec[2], vec![0]);
        assert_eq!(prec[3], vec![0, 2]);
        assert_eq!(prec[4], vec![0, 2]);
        assert_eq!(prec[5], vec![0, 1, 2, 3, 4]);
        let edge_count: usize = prec.iter().map(Vec::len).sum();
        assert_eq!(edge_count, 10);
    }

    #[test]
    fn lossy_extraction_counts_pending_and_malformed_separately() {
        use lintime_adt::value::Value;
        use lintime_sim::run::OpRecord;
        use lintime_sim::time::ModelParams;

        let params = ModelParams::default_experiment();
        let rec = |ret: Option<Value>, t_respond: Option<Time>| OpRecord {
            pid: Pid(0),
            invocation: lintime_adt::spec::Invocation::nullary("read"),
            ret,
            t_invoke: Time(0),
            t_respond,
        };
        let run = Run {
            params,
            offsets: vec![Time(0); params.n],
            ops: vec![
                rec(Some(Value::Int(1)), Some(Time(5))), // complete
                rec(None, None),                         // pending
                rec(None, None),                         // pending
                rec(Some(Value::Int(2)), None),          // malformed: ret without time
                rec(None, Some(Time(9))),                // malformed: time without ret
            ],
            msgs: vec![],
            views: vec![],
            last_time: Time(100),
            events: 5,
            errors: vec![],
            delay_violations: 0,
            truncated: false,
            crashed_pending: 0,
            unadmitted: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            faults: vec![],
            suspect: vec![],
        };
        // The pending-aware pipeline surfaces the malformed count and keeps
        // ill-formed records out of the pending (completable) list.
        let ph = History::from_run_with_pending(&run).unwrap();
        assert_eq!(ph.complete.len(), 1);
        assert_eq!(ph.pending.len(), 2);
        assert_eq!(ph.malformed, 2);
        // The complete-run extraction refuses it outright.
        assert!(History::from_run(&run).is_err());
    }

    #[test]
    fn from_tuples_roundtrip() {
        let h = History::from_tuples(vec![(3, inst("x", 1, 2), 5, 9)]);
        assert_eq!(h.len(), 1);
        assert_eq!(h.ops[0].pid, Pid(3));
        assert_eq!(h.ops[0].t_invoke, Time(5));
    }

    #[test]
    fn pending_extraction_classifies_crash_effects() {
        use lintime_adt::value::Value;
        use lintime_sim::run::OpRecord;
        use lintime_sim::time::ModelParams;

        let params = ModelParams::default_experiment();
        let pending = |pid: usize, t: i64| OpRecord {
            pid: Pid(pid),
            invocation: lintime_adt::spec::Invocation::nullary("read"),
            ret: None,
            t_invoke: Time(t),
            t_respond: None,
        };
        let run = Run {
            params,
            offsets: vec![Time(0); params.n],
            ops: vec![
                OpRecord {
                    pid: Pid(0),
                    invocation: lintime_adt::spec::Invocation::new("write", 1),
                    ret: Some(Value::Unit),
                    t_invoke: Time(0),
                    t_respond: Some(Time(10)),
                },
                // Invoked before p1's crash: may have taken effect.
                pending(1, 5),
                // Invoked after p2's crash: provably effect-free.
                pending(2, 50),
                // No crash for p3: conservatively may have effect.
                pending(3, 60),
            ],
            msgs: vec![],
            views: vec![],
            last_time: Time(100),
            events: 4,
            errors: vec![],
            delay_violations: 0,
            truncated: false,
            crashed_pending: 2,
            unadmitted: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            faults: vec![
                InjectedFault::Crashed { pid: Pid(1), at: Time(20) },
                InjectedFault::Crashed { pid: Pid(2), at: Time(20) },
            ],
            suspect: vec![],
        };
        let ph = History::from_run_with_pending(&run).unwrap();
        assert_eq!(ph.complete.len(), 1);
        assert_eq!(ph.malformed, 0);
        assert_eq!(ph.horizon, Time(100));
        assert_eq!(ph.pending.len(), 3);
        assert!(ph.pending[0].may_have_effect, "invoked before crash");
        assert!(!ph.pending[1].may_have_effect, "invoked after crash");
        assert!(ph.pending[2].may_have_effect, "no crash recorded");

        let truncated = Run { truncated: true, ..run };
        assert!(History::from_run_with_pending(&truncated).is_err());
    }
}
