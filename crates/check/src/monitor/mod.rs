//! Type-specialized linearizability monitors (the fast path).
//!
//! The Wing–Gong search ([`crate::wing_gong`]) decides linearizability for
//! *any* sequential specification, but is worst-case exponential. For the
//! concrete types of the paper's Tables 1–4, far better is possible: the
//! decrease-and-conquer monitoring literature (see `PAPERS.md`: *Efficient
//! Decrease-and-Conquer Linearizability Monitoring* and *Efficient
//! Linearizability Monitoring*) gives log-linear algorithms for registers,
//! FIFO queues, stacks, and sets when the history is **unambiguous** —
//! distinct written/enqueued/pushed values — which is overwhelmingly the
//! common case for generated workloads (the harness tags operations with
//! unique arguments precisely so witnesses are readable).
//!
//! This module is the dispatcher: [`check_fast`] routes a history by
//! [`SpecKind`] to a specialized monitor and falls back to Wing–Gong
//! whenever the monitor cannot decide. The architecture is deliberately
//! risk-asymmetric so a fast path can never change a verdict:
//!
//! * **`NotLinearizable`** is only ever produced from *individually sound*
//!   violation patterns (each pattern implies a real-time/legality
//!   contradiction in every candidate linearization);
//! * **`Linearizable`** is only ever produced with a concrete witness order
//!   that is replay-verified against the specification and the real-time
//!   precedence relation before being returned;
//! * anything else — unknown operations, ambiguous (duplicate) values,
//!   mixed-class (OOP) operations like `peek`/`fetch_inc`, or a stalled
//!   witness construction — yields [`MonitorOutcome::Deferred`] and the
//!   history is handed to the general search.
//!
//! Every decision reads one [`HistoryArena`]: the ladder transposes the
//! history first, and the monitor, the replay of its witness and the
//! fallback search all read that arena. A monitor takes its timestamps from
//! the `t_invoke`/`t_respond` columns and its sweep orders from `by_invoke`
//! and `by_respond` (through a view that hides the ladder's optional
//! ops), so no monitor re-sorts the ops by time or copies them.
//!
//! Agreement between the two paths is enforced by the differential fuzz
//! suite (`tests/differential_fuzz.rs`), the exhaustive small-scope check
//! (`tests/small_scope.rs`) and, for how far the monitors reach, the pinned
//! monitor-outcome totals in both.

mod counter;
mod keyed;
mod queue_like;
mod register;
mod values;

use crate::arena::HistoryArena;
use crate::history::{History, PendingHistory, TimedOp};
use crate::wing_gong::{self, CheckConfig, SearchStats, Verdict, FRONTIER_BUCKETS};
use lintime_adt::spec::{ObjState, ObjectSpec, OpClass, OpInstance, SpecKind};
use lintime_adt::value::Value;
use lintime_obs::{EventCategory, Obs};
use lintime_sim::time::Time;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;
use values::ValueIds;

/// What a specialized monitor concluded about a history.
#[derive(Clone, Debug, PartialEq)]
pub enum MonitorOutcome {
    /// A candidate linearization (indices into `history.ops`). The dispatcher
    /// replay-verifies it before certifying the history linearizable.
    Witness(Vec<usize>),
    /// A sound violation certificate: no linearization can exist.
    Violation,
    /// The monitor does not apply (or could not finish); use the general
    /// search.
    Deferred,
}

/// Check `history` against `spec`, using a type-specialized monitor when one
/// applies and falling back to the Wing–Gong search otherwise.
///
/// Verdict semantics are identical to [`wing_gong::check`]: the two are
/// interchangeable, and [`Verdict::Unknown`] can only arise from the
/// fallback path's node budget.
pub fn check_fast(spec: &Arc<dyn ObjectSpec>, history: &History) -> Verdict {
    ladder(spec, history, &[], None, CheckConfig::default(), &Obs::off()).verdict
}

/// [`check_fast`] with an explicit configuration and checker observability.
///
/// An active `obs` collects monitor fast-path hits vs Wing–Gong fallbacks,
/// memo hit rate, frontier-size histogram, and witness replay time in
/// `obs.metrics` under `check.*`, and each decision phase emits an
/// [`EventCategory::CheckPhase`] trace event. With [`Obs::off`] nothing is
/// recorded and the search compiles its statistics out; the verdict, witness
/// included, is the same either way.
pub fn check_fast_with(
    spec: &Arc<dyn ObjectSpec>,
    history: &History,
    cfg: CheckConfig,
    obs: &Obs,
) -> Verdict {
    ladder(spec, history, &[], None, cfg, obs).verdict
}

/// What [`ladder`] decided.
pub(crate) struct Decision {
    pub verdict: Verdict,
    /// The object state the witness ends in, from a fresh object of the
    /// spec: `Some` iff `verdict` is `Linearizable`. It is the state the
    /// decision's own replay or search ended in, so a caller that carries
    /// state forward need not replay the witness again.
    pub state: Option<Box<dyn ObjState>>,
    /// Whether the Wing–Gong search ran.
    pub searched: bool,
}

/// The decision ladder behind every monitor-first entry point, the streaming
/// checker's windows and pending histories included. It transposes
/// `history` and `optional` into one [`HistoryArena`] first; the
/// specialized monitor, the replay of its witness and — when the monitor
/// defers or its witness fails replay — the Wing–Gong search all read that
/// arena.
///
/// `optional` ops (with their `free` marks, covering `history` too) join the
/// search only, after `history`'s ops: it may leave them out (see
/// `wing_gong::decide`). The monitor sees `history`'s ops alone, so with
/// optional ops only its witness decides; its violation sends the search on.
pub(crate) fn ladder(
    spec: &Arc<dyn ObjectSpec>,
    history: &History,
    optional: &[TimedOp],
    free: Option<&[bool]>,
    cfg: CheckConfig,
    obs: &Obs,
) -> Decision {
    let active = obs.is_active();
    // Check phases happen after the run; anchor them at the history's end so
    // an interleaved trace reads chronologically.
    let t_end =
        if active { history.ops.iter().map(|o| o.t_respond.0).max().unwrap_or(0) } else { 0 };
    obs.emit(t_end, None, EventCategory::CheckPhase, || {
        format!("dispatch: {:?} history of {} ops", spec.kind(), history.len())
    });
    if history.is_empty() {
        let state = Some(spec.new_object());
        return Decision { verdict: Verdict::Linearizable(Vec::new()), state, searched: false };
    }
    let arena = HistoryArena::from_ops(&history.ops, optional);
    let view = View { arena: &arena, len: history.len() };
    match dispatch_monitor(spec, view, cfg) {
        MonitorOutcome::Witness(order) => {
            let t0 = active.then(Instant::now);
            let replayed = view.replay(spec, &order);
            let replay_us = t0.map_or(0, |t0| t0.elapsed().as_micros() as u64);
            if active {
                obs.metrics
                    .histogram("check.witness_replay_micros", &[10, 100, 1_000, 10_000])
                    .observe(replay_us);
            }
            if let Some(state) = replayed {
                count(obs, "check.monitor.witnesses");
                obs.emit(t_end, None, EventCategory::CheckPhase, || {
                    format!("monitor witness verified by replay in {replay_us}us")
                });
                let verdict = Verdict::Linearizable(order);
                return Decision { verdict, state: Some(state), searched: false };
            }
            // A monitor bug, not a verdict: never certify an unchecked
            // witness. Decide with the general search instead.
            debug_assert!(false, "monitor produced an invalid witness");
            count(obs, "check.monitor.invalid_witnesses");
            obs.emit(t_end, None, EventCategory::CheckPhase, || {
                "monitor witness FAILED replay; deciding with the general search".to_string()
            });
        }
        MonitorOutcome::Violation => {
            count(obs, "check.monitor.violations");
            obs.emit(t_end, None, EventCategory::CheckPhase, || match optional.len() {
                0 => "monitor violation certificate: not linearizable".to_string(),
                k => format!("monitor violation certificate; searching with {k} optional ops"),
            });
            if optional.is_empty() {
                return Decision {
                    verdict: Verdict::NotLinearizable,
                    state: None,
                    searched: false,
                };
            }
        }
        MonitorOutcome::Deferred => {
            count(obs, "check.monitor.deferred");
            obs.emit(t_end, None, EventCategory::CheckPhase, || {
                format!("monitor deferred {:?}; falling back to Wing-Gong", spec.kind())
            });
        }
    }
    let (verdict, state) = if active {
        let (verdict, stats, state) =
            wing_gong::decide::<true>(spec, &arena, free, history.len(), cfg);
        record_fallback(obs, t_end, &verdict, &stats);
        (verdict, state)
    } else {
        let (verdict, _, state) =
            wing_gong::decide::<false>(spec, &arena, free, history.len(), cfg);
        (verdict, state)
    };
    Decision { verdict, state, searched: true }
}

/// Bump the counter `name` if `obs` is active.
fn count(obs: &Obs, name: &str) {
    if obs.is_active() {
        obs.metrics.counter(name).inc();
    }
}

/// Fold the fallback search's [`SearchStats`] into the registry and trace it.
fn record_fallback(obs: &Obs, t_end: i64, verdict: &Verdict, stats: &SearchStats) {
    let r = &obs.metrics;
    r.counter("check.fallback.runs").inc();
    r.counter("check.fallback.nodes").add(stats.nodes);
    r.counter("check.fallback.memo_hits").add(stats.memo_hits);
    r.counter("check.fallback.memo_inserts").add(stats.memo_inserts);
    let frontier = r.histogram("check.frontier_size", &FRONTIER_BUCKETS);
    for (i, &n) in stats.frontier_sizes.iter().enumerate() {
        // Fold pre-bucketed counts in at each bucket's upper bound (overflow
        // at one past the last bound).
        let v = FRONTIER_BUCKETS.get(i).copied().unwrap_or_else(|| FRONTIER_BUCKETS[i - 1] + 1);
        frontier.observe_n(v, n);
    }
    obs.emit(t_end, None, EventCategory::CheckPhase, || {
        format!(
            "Wing-Gong fallback: {} after {} nodes (memo hit rate {}, max frontier {})",
            match verdict {
                Verdict::Linearizable(_) => "linearizable",
                Verdict::NotLinearizable => "NOT linearizable",
                Verdict::Unknown => "unknown (budget exhausted)",
            },
            stats.nodes,
            stats.memo_hit_rate().map_or_else(|| "n/a".to_string(), |x| format!("{:.2}", x)),
            stats.max_frontier,
        )
    });
}

/// Route a history to the specialized monitor for its [`SpecKind`], if any.
fn dispatch_monitor(spec: &Arc<dyn ObjectSpec>, view: View, cfg: CheckConfig) -> MonitorOutcome {
    match spec.kind() {
        SpecKind::Register => register::monitor(spec, view),
        // An RMW-register history without actual `rmw` instances is a plain
        // register history; the monitor defers on any other operation name.
        SpecKind::RmwRegister => register::monitor(spec, view),
        SpecKind::FifoQueue => queue_like::monitor_queue(view),
        SpecKind::Stack => queue_like::monitor_stack(view),
        SpecKind::PriorityQueue => queue_like::monitor_pq(view),
        SpecKind::GrowSet | SpecKind::KvStore => keyed::monitor(spec, view, cfg),
        SpecKind::Counter => counter::monitor(spec, view),
        // Rooted trees, products, and unknown types have no specialized
        // monitor (yet): general search.
        _ => MonitorOutcome::Deferred,
    }
}

/// Decide linearizability of a history *with pending operations*
/// (Herlihy–Wing completions): a pending-aware [`check_fast`].
///
/// A history with pending operations is linearizable iff **some completion**
/// is — where a completion removes each pending operation or extends it with
/// a response. Which pending operations are *candidates* for inclusion:
///
/// * pending ops with `may_have_effect == false` are removed outright (their
///   absence of effect is proven, e.g. invoked at/after the process crash);
/// * pending **pure accessors** are removed: they never change state, so
///   including them can neither enable nor break any other operation;
/// * pending **pure mutators** are candidates. An included one gets its
///   class-constant return value (a pure mutator's response carries no state
///   information);
/// * pending **mixed** (or unknown) operations are candidates with a
///   **free** response: the search accepts whatever response the
///   specification produces at each tried position, which exhaustively
///   covers every concrete response value a completion could assign.
///
/// An included candidate responds at the horizon (or at the latest
/// invocation, if a malformed horizon is earlier), so it precedes nothing:
/// the most permissive choice, and the one that lets a single search decide
/// every completion.
///
/// The decision: with no candidates, [`check_fast`] on the complete part.
/// Otherwise, when the type's monitor certifies the all-removed completion
/// with a replay-verified witness, that witness; otherwise **one** Wing–Gong
/// search over the complete ops followed by the candidates, in which every
/// candidate is optional: the search succeeds once every complete op is
/// linearized, and the candidates it placed are the ones the completion
/// includes. The node budget [`CheckConfig::max_nodes`] bounds that search
/// like any other, so a history of any size is decided or honestly
/// [`Verdict::Unknown`].
///
/// `Linearizable` carries a witness that indexes into `ph.complete.ops`
/// followed by `ph.pending`: an index `ph.complete.len() + j` names
/// `ph.pending[j]` as included. A free-completed op's response is whatever
/// replaying the witness order yields. `NotLinearizable` means every
/// completion is refuted; when `ph.malformed > 0` it degrades to `Unknown`.
pub fn check_fast_pending(spec: &Arc<dyn ObjectSpec>, ph: &PendingHistory) -> Verdict {
    check_fast_pending_with(spec, ph, CheckConfig::default(), &Obs::off())
}

/// [`check_fast_pending`] with an explicit configuration and checker
/// observability. An active `obs` records what [`check_fast_with`] records:
/// the monitor step under `check.monitor.*` and the pending search under
/// `check.fallback.*`, like any fallback; plus the counter
/// `check.pending.malformed_degraded`.
pub fn check_fast_pending_with(
    spec: &Arc<dyn ObjectSpec>,
    ph: &PendingHistory,
    cfg: CheckConfig,
    obs: &Obs,
) -> Verdict {
    let c = ph.complete.len();
    // Candidates for inclusion: possibly-effective mutators (unknown
    // operations conservatively count as mutators).
    let candidates: Vec<usize> = (0..ph.pending.len())
        .filter(|&j| {
            let p = &ph.pending[j];
            p.may_have_effect && spec.op_meta(p.invocation.op).is_none_or(|m| m.class.is_mutator())
        })
        .collect();
    // An included candidate responds no earlier than any invocation, so it
    // precedes nothing and leaving it out never blocks another op.
    let respond = (ph.complete.ops.iter().map(|o| o.t_invoke))
        .chain(candidates.iter().map(|&j| ph.pending[j].t_invoke))
        .fold(ph.horizon, Time::max);
    let (optional, is_free): (Vec<TimedOp>, Vec<bool>) = candidates
        .iter()
        .map(|&j| {
            let p = &ph.pending[j];
            // A pure mutator's return is state-independent: read it off a
            // fresh object. For a mixed/unknown op the same value is a mere
            // placeholder — the op is free, and the search accepts whatever
            // the specification returns at each tried position.
            let op = p.invocation.op;
            let ret = spec.new_object().apply(op, &p.invocation.arg);
            let instance = OpInstance { op, arg: p.invocation.arg.clone(), ret };
            let free = spec.op_meta(op).is_none_or(|m| m.class != OpClass::PureMutator);
            (TimedOp { pid: p.pid, instance, t_invoke: p.t_invoke, t_respond: respond }, free)
        })
        .unzip();
    let free = is_free.contains(&true).then(|| [vec![false; c], is_free].concat());
    match ladder(spec, &ph.complete, &optional, free.as_deref(), cfg, obs).verdict {
        // Re-index the placed candidates into `ph.pending`.
        Verdict::Linearizable(order) => Verdict::Linearizable(
            order.into_iter().map(|i| if i < c { i } else { c + candidates[i - c] }).collect(),
        ),
        // Ill-formed records (see `PendingHistory::malformed`) were dropped
        // from the complete part but are neither completed nor completable
        // pending ops; a refutation over the remainder could be an artifact
        // of the loss.
        Verdict::NotLinearizable if ph.malformed > 0 => {
            count(obs, "check.pending.malformed_degraded");
            Verdict::Unknown
        }
        v => v,
    }
}

/// True iff `order` is a permutation of the history that respects real-time
/// precedence and replays legally against `spec`. O(n), in one pass over
/// `order`.
pub fn verify_witness(spec: &Arc<dyn ObjectSpec>, history: &History, order: &[usize]) -> bool {
    let ops = &history.ops;
    replay(
        spec,
        order,
        ops.len(),
        |i| (ops[i].t_invoke.0, ops[i].t_respond.0),
        |i| {
            let inst = &ops[i].instance;
            (inst.op, &inst.arg, &inst.ret)
        },
    )
    .is_some()
}

/// The check behind [`verify_witness`], over `n` ops read through `times`
/// (invocation and response) and `call` (name, argument, recorded
/// response), keeping what the replay produced: the object `order` leaves a
/// fresh object of `spec` in, or `None` when `order` is not a valid witness.
fn replay<'v>(
    spec: &Arc<dyn ObjectSpec>,
    order: &[usize],
    n: usize,
    times: impl Fn(usize) -> (i64, i64),
    call: impl Fn(usize) -> (&'static str, &'v Value, &'v Value),
) -> Option<Box<dyn ObjState>> {
    if order.len() != n {
        return None;
    }
    // One pass: `order` must be a permutation; no op may appear after one it
    // strictly precedes, i.e. each op's response is no earlier than the
    // running max invocation; and the replay through the erased object
    // (mutated in place, no per-step state clones) must return every
    // recorded response.
    let mut seen = vec![false; n];
    let mut max_invoke = i64::MIN;
    let mut obj = spec.new_object();
    for &i in order {
        if i >= n || seen[i] {
            return None;
        }
        seen[i] = true;
        let (t_invoke, t_respond) = times(i);
        if t_respond < max_invoke {
            return None;
        }
        max_invoke = max_invoke.max(t_invoke);
        let (op, arg, ret) = call(i);
        if obj.apply(op, arg) != *ret {
            return None;
        }
    }
    Some(obj)
}

/// What a monitor reads: the first `len` ops of the decision's arena. The
/// ladder's optional ops, when it has any, follow them; they are the
/// search's alone, so every walk over the arena's sort orders skips them.
#[derive(Clone, Copy)]
pub(crate) struct View<'x, 'a> {
    pub arena: &'x HistoryArena<'a>,
    pub len: usize,
}

impl<'x> View<'x, '_> {
    /// The monitor's ops (arena indices) by `(t_invoke, index)`.
    pub(crate) fn invoke_order(self) -> Cow<'x, [u32]> {
        self.own(&self.arena.by_invoke)
    }

    /// The monitor's ops (arena indices) by `(t_respond, index)`.
    pub(crate) fn respond_order(self) -> Cow<'x, [u32]> {
        self.own(&self.arena.by_respond)
    }

    /// `order` without the ops that are not the monitor's.
    fn own(self, order: &'x [u32]) -> Cow<'x, [u32]> {
        if self.len == self.arena.len() {
            Cow::Borrowed(order)
        } else {
            Cow::Owned(order.iter().copied().filter(|&i| (i as usize) < self.len).collect())
        }
    }

    /// [`verify_witness`] over the arena's columns.
    fn replay(self, spec: &Arc<dyn ObjectSpec>, order: &[usize]) -> Option<Box<dyn ObjState>> {
        let a = self.arena;
        replay(
            spec,
            order,
            self.len,
            |i| (a.t_invoke[i], a.t_respond[i]),
            |i| (a.op[i], a.arg[i], a.ret[i]),
        )
    }
}

/// The real-time frontier the greedy witness builders schedule against: an
/// op may be emitted next iff it is invoked no later than the earliest
/// response among unemitted ops (otherwise it would be ordered after an op
/// that strictly precedes it). That threshold never decreases as ops are
/// emitted, so admitting ops is one pointer walk over the arena's
/// `by_invoke` order, and finding the threshold one over `by_respond`.
pub(crate) struct Sweep<'x> {
    t_invoke: &'x [i64],
    t_respond: &'x [i64],
    by_invoke: &'x [u32],
    by_respond: &'x [u32],
    len: usize,
    /// Next position in `by_invoke` to admit.
    admit: usize,
    /// First position in `by_respond` that may not be emitted yet.
    respond: usize,
    emitted: Vec<bool>,
}

impl<'x> Sweep<'x> {
    pub(crate) fn new(view: View<'x, '_>) -> Self {
        let a = view.arena;
        Sweep {
            t_invoke: &a.t_invoke,
            t_respond: &a.t_respond,
            by_invoke: &a.by_invoke,
            by_respond: &a.by_respond,
            len: view.len,
            admit: 0,
            respond: 0,
            emitted: vec![false; view.len],
        }
    }

    /// The earliest response among unemitted ops; `None` once all emitted.
    pub(crate) fn threshold(&mut self) -> Option<i64> {
        while let Some(&i) = self.by_respond.get(self.respond) {
            let i = i as usize;
            if i < self.len && !self.emitted[i] {
                return Some(self.t_respond[i]);
            }
            self.respond += 1;
        }
        None
    }

    /// Hand every op that has become schedulable since the last call to
    /// `admit`, in `(t_invoke, index)` order.
    pub(crate) fn admit(&mut self, mut admit: impl FnMut(usize)) {
        let Some(threshold) = self.threshold() else { return };
        while let Some(&i) = self.by_invoke.get(self.admit) {
            let i = i as usize;
            if i < self.len {
                if self.t_invoke[i] > threshold {
                    break;
                }
                admit(i);
            }
            self.admit += 1;
        }
    }

    /// Whether op `i` may be emitted now.
    pub(crate) fn ready(&mut self, i: usize) -> bool {
        self.threshold().is_some_and(|t| self.t_invoke[i] <= t)
    }

    pub(crate) fn emit(&mut self, i: usize) {
        debug_assert!(!self.emitted[i]);
        self.emitted[i] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::PendingOp;
    use lintime_adt::prelude::*;
    use lintime_sim::time::Pid;

    fn h(tuples: Vec<(usize, OpInstance, i64, i64)>) -> History {
        History::from_tuples(tuples)
    }

    /// Run a monitor over `hist`'s arena, as the ladder does.
    fn monitored(hist: &History, monitor: impl Fn(View) -> MonitorOutcome) -> MonitorOutcome {
        let arena = HistoryArena::from_history(hist);
        monitor(View { arena: &arena, len: hist.len() })
    }

    #[test]
    fn register_monitor_produces_verified_witness() {
        let spec = erase(Register::new(0));
        // Overlapping write(1)/read->0/read->1: order reads around the write.
        let hist = h(vec![
            (0, OpInstance::new("write", 1, ()), 0, 10),
            (1, OpInstance::new("read", (), 0), 1, 4),
            (2, OpInstance::new("read", (), 1), 5, 12),
        ]);
        let out = monitored(&hist, |v| register::monitor(&spec, v));
        let MonitorOutcome::Witness(order) = out else {
            panic!("expected witness, got {out:?}");
        };
        assert!(verify_witness(&spec, &hist, &order));
        assert!(check_fast(&spec, &hist).is_linearizable());
    }

    #[test]
    fn register_monitor_flags_stale_read_after_overwrite() {
        let spec = erase(Register::new(0));
        // write(1) fully before write(2) fully before read->1: the read is
        // stale, and no ordering of the blocks can fix it.
        let hist = h(vec![
            (0, OpInstance::new("write", 1, ()), 0, 1),
            (0, OpInstance::new("write", 2, ()), 2, 3),
            (1, OpInstance::new("read", (), 1), 4, 5),
        ]);
        assert_eq!(monitored(&hist, |v| register::monitor(&spec, v)), MonitorOutcome::Violation);
        assert_eq!(check_fast(&spec, &hist), Verdict::NotLinearizable);
    }

    #[test]
    fn register_monitor_defers_on_duplicate_writes() {
        let spec = erase(Register::new(0));
        let hist = h(vec![
            (0, OpInstance::new("write", 1, ()), 0, 1),
            (1, OpInstance::new("write", 1, ()), 2, 3),
        ]);
        assert_eq!(monitored(&hist, |v| register::monitor(&spec, v)), MonitorOutcome::Deferred);
        // The fallback still decides it.
        assert!(check_fast(&spec, &hist).is_linearizable());
    }

    #[test]
    fn queue_monitor_witness_and_fifo_violation() {
        // Legal: two overlapping enqueues, dequeues agree with either order.
        let legal = h(vec![
            (0, OpInstance::new("enqueue", 1, ()), 0, 10),
            (1, OpInstance::new("enqueue", 2, ()), 5, 15),
            (2, OpInstance::new("dequeue", (), 1), 20, 30),
            (3, OpInstance::new("dequeue", (), 2), 35, 40),
        ]);
        let out = monitored(&legal, queue_like::monitor_queue);
        assert!(matches!(out, MonitorOutcome::Witness(_)), "got {out:?}");

        // FIFO violation: enqueue(1) wholly before enqueue(2), but 2 is
        // dequeued wholly before 1's dequeue begins.
        let bad = h(vec![
            (0, OpInstance::new("enqueue", 1, ()), 0, 1),
            (0, OpInstance::new("enqueue", 2, ()), 2, 3),
            (1, OpInstance::new("dequeue", (), 2), 4, 5),
            (1, OpInstance::new("dequeue", (), 1), 6, 7),
        ]);
        assert_eq!(monitored(&bad, queue_like::monitor_queue), MonitorOutcome::Violation);
        let spec = erase(FifoQueue::new());
        assert_eq!(check_fast(&spec, &bad), Verdict::NotLinearizable);
    }

    #[test]
    fn stack_monitor_witness_and_lifo_violation() {
        // Legal LIFO: push 1, push 2, pop->2, pop->1.
        let legal = h(vec![
            (0, OpInstance::new("push", 1, ()), 0, 1),
            (0, OpInstance::new("push", 2, ()), 2, 3),
            (1, OpInstance::new("pop", (), 2), 4, 5),
            (1, OpInstance::new("pop", (), 1), 6, 7),
        ]);
        let out = monitored(&legal, queue_like::monitor_stack);
        assert!(matches!(out, MonitorOutcome::Witness(_)), "got {out:?}");

        // LIFO violation: the same history popped in FIFO order.
        let bad = h(vec![
            (0, OpInstance::new("push", 1, ()), 0, 1),
            (0, OpInstance::new("push", 2, ()), 2, 3),
            (1, OpInstance::new("pop", (), 1), 4, 5),
            (1, OpInstance::new("pop", (), 2), 6, 7),
        ]);
        assert_eq!(monitored(&bad, queue_like::monitor_stack), MonitorOutcome::Violation);
        let spec = erase(Stack::new());
        assert_eq!(check_fast(&spec, &bad), Verdict::NotLinearizable);
    }

    #[test]
    fn pq_monitor_witness_and_priority_violation() {
        // Legal: both inserts complete, then extracts in priority order.
        let legal = h(vec![
            (0, OpInstance::new("insert", 5, ()), 0, 10),
            (1, OpInstance::new("insert", 3, ()), 2, 8),
            (2, OpInstance::new("extract_min", (), 3), 12, 14),
            (3, OpInstance::new("extract_min", (), 5), 16, 18),
        ]);
        let out = monitored(&legal, queue_like::monitor_pq);
        let MonitorOutcome::Witness(order) = out else {
            panic!("expected witness, got {out:?}");
        };
        let spec = erase(PriorityQueue::new());
        assert!(verify_witness(&spec, &legal, &order));

        // Priority inversion: 3 is provably in the queue across the whole
        // extract_min -> 5 (inserted before it invokes, extracted after it
        // responds), so the minimum cannot have been 5.
        let bad = h(vec![
            (0, OpInstance::new("insert", 5, ()), 0, 1),
            (0, OpInstance::new("insert", 3, ()), 2, 3),
            (1, OpInstance::new("extract_min", (), 5), 4, 5),
            (1, OpInstance::new("extract_min", (), 3), 6, 7),
        ]);
        assert_eq!(monitored(&bad, queue_like::monitor_pq), MonitorOutcome::Violation);
        assert_eq!(check_fast(&spec, &bad), Verdict::NotLinearizable);

        // A never-extracted smaller value blocks the extract just the same.
        let blocked = h(vec![
            (0, OpInstance::new("insert", 1, ()), 0, 1),
            (0, OpInstance::new("insert", 2, ()), 2, 3),
            (1, OpInstance::new("extract_min", (), 2), 4, 5),
        ]);
        assert_eq!(monitored(&blocked, queue_like::monitor_pq), MonitorOutcome::Violation);

        // `min` defers to the general search.
        let peeked = h(vec![
            (0, OpInstance::new("insert", 1, ()), 0, 1),
            (1, OpInstance::new("min", (), 1), 2, 3),
        ]);
        assert_eq!(monitored(&peeked, queue_like::monitor_pq), MonitorOutcome::Deferred);
        assert!(check_fast(&spec, &peeked).is_linearizable());
    }

    #[test]
    fn queue_monitor_defers_on_peek() {
        let hist = h(vec![
            (0, OpInstance::new("enqueue", 1, ()), 0, 1),
            (1, OpInstance::new("peek", (), 1), 2, 3),
        ]);
        assert_eq!(monitored(&hist, queue_like::monitor_queue), MonitorOutcome::Deferred);
        let spec = erase(FifoQueue::new());
        assert!(check_fast(&spec, &hist).is_linearizable());
    }

    #[test]
    fn keyed_monitor_decomposes_per_key() {
        let spec = erase(GrowSet::new());
        // Keys 1 and 2 interleave; each key's sub-history is trivially legal.
        let hist = h(vec![
            (0, OpInstance::new("add", 1, ()), 0, 10),
            (1, OpInstance::new("add", 2, ()), 2, 6),
            (2, OpInstance::new("contains", 1, true), 12, 14),
            (3, OpInstance::new("contains", 2, false), 0, 1),
        ]);
        let out = monitored(&hist, |v| keyed::monitor(&spec, v, CheckConfig::default()));
        let MonitorOutcome::Witness(order) = out else {
            panic!("expected witness, got {out:?}");
        };
        assert!(verify_witness(&spec, &hist, &order));

        // contains(1) -> true wholly before add(1) begins: per-key violation.
        let bad = h(vec![
            (0, OpInstance::new("contains", 1, true), 0, 1),
            (1, OpInstance::new("add", 1, ()), 2, 3),
        ]);
        assert_eq!(
            monitored(&bad, |v| keyed::monitor(&spec, v, CheckConfig::default())),
            MonitorOutcome::Violation
        );
    }

    #[test]
    fn counter_monitor_bounds_and_witness() {
        let spec = erase(Counter::new());
        // Legal: two overlapping increments, read->1 overlapping both.
        let legal = h(vec![
            (0, OpInstance::new("increment", (), ()), 0, 10),
            (1, OpInstance::new("increment", (), ()), 2, 12),
            (2, OpInstance::new("read", (), 1), 4, 6),
        ]);
        let out = monitored(&legal, |v| counter::monitor(&spec, v));
        let MonitorOutcome::Witness(order) = out else {
            panic!("expected witness, got {out:?}");
        };
        assert!(verify_witness(&spec, &legal, &order));

        // read->2 responds before either increment is invoked: above hi.
        let bad = h(vec![
            (0, OpInstance::new("read", (), 2), 0, 1),
            (1, OpInstance::new("increment", (), ()), 2, 3),
            (1, OpInstance::new("increment", (), ()), 4, 5),
        ]);
        assert_eq!(monitored(&bad, |v| counter::monitor(&spec, v)), MonitorOutcome::Violation);
        assert_eq!(check_fast(&spec, &bad), Verdict::NotLinearizable);
    }

    #[test]
    fn observed_check_counts_fast_path_and_fallback() {
        let (obs, ring) = Obs::ring(64);
        let cfg = CheckConfig::default();

        // Fast path: register monitor produces a replay-verified witness.
        let reg = erase(Register::new(0));
        let fast = h(vec![
            (0, OpInstance::new("write", 1, ()), 0, 10),
            (1, OpInstance::new("read", (), 1), 20, 30),
        ]);
        assert!(check_fast_with(&reg, &fast, cfg, &obs).is_linearizable());
        assert_eq!(obs.metrics.counter("check.monitor.witnesses").get(), 1);
        assert_eq!(obs.metrics.counter("check.fallback.runs").get(), 0);

        // Deferred path: duplicate written values force the general search.
        let dup = h(vec![
            (0, OpInstance::new("write", 1, ()), 0, 1),
            (1, OpInstance::new("write", 1, ()), 2, 3),
        ]);
        assert!(check_fast_with(&reg, &dup, cfg, &obs).is_linearizable());
        assert_eq!(obs.metrics.counter("check.monitor.deferred").get(), 1);
        assert_eq!(obs.metrics.counter("check.fallback.runs").get(), 1);
        assert!(obs.metrics.counter("check.fallback.nodes").get() > 0);
        let frontier =
            obs.metrics.histogram("check.frontier_size", &wing_gong::FRONTIER_BUCKETS).snapshot();
        assert!(frontier.count() > 0, "fallback must record frontier sizes");

        // Every decision leaves a check-phase trail in the trace.
        assert!(ring.events().iter().any(|e| e.category == EventCategory::CheckPhase));

        // Inactive bundle: same verdicts, nothing recorded.
        let off = Obs::off();
        for hist in [&fast, &dup] {
            assert_eq!(
                check_fast_with(&reg, hist, cfg, &off),
                check_fast_with(&reg, hist, cfg, &obs)
            );
        }
        assert_eq!(off.metrics.counter("check.monitor.witnesses").get(), 0);
        assert_eq!(off.metrics.counter("check.fallback.runs").get(), 0);
    }

    #[test]
    fn pending_checker_enumerates_completions() {
        let spec = erase(Register::new(0));
        // Completed: a read that saw 5. Pending: the write(5) whose response
        // was lost. Dropping the write refutes the read; including it (the
        // only other completion) linearizes.
        let ph = PendingHistory {
            complete: h(vec![(1, OpInstance::new("read", (), 5), 10, 20)]),
            pending: vec![PendingOp {
                pid: Pid(0),
                invocation: Invocation::new("write", 5),
                t_invoke: Time(0),
                may_have_effect: true,
            }],
            horizon: Time(30),
            malformed: 0,
        };
        assert!(check_fast_pending(&spec, &ph).is_linearizable());

        // Same history, but the write provably never executed: the read of 5
        // is unexplainable and the verdict is a sound refutation.
        let mut dead = ph.clone();
        dead.pending[0].may_have_effect = false;
        assert_eq!(check_fast_pending(&spec, &dead), Verdict::NotLinearizable);

        // A pending *mixed* op is completed through the free-response
        // search: including the rmw(5) (fetch-add on 0) explains read -> 5.
        let rmw_spec = erase(RmwRegister::new(0));
        let mixed = PendingHistory {
            complete: h(vec![(1, OpInstance::new("read", (), 5), 10, 20)]),
            pending: vec![PendingOp {
                pid: Pid(0),
                invocation: Invocation::new("rmw", 5),
                t_invoke: Time(0),
                may_have_effect: true,
            }],
            horizon: Time(30),
            malformed: 0,
        };
        assert!(check_fast_pending(&rmw_spec, &mixed).is_linearizable());
        // An unexplainable read stays a sound refutation even when the free
        // search gets to try the mixed op at every position: rmw(2) on any
        // reachable state never leaves the register at 5.
        let refuted = PendingHistory {
            complete: h(vec![(1, OpInstance::new("read", (), 5), 10, 20)]),
            pending: vec![PendingOp {
                pid: Pid(0),
                invocation: Invocation::new("rmw", 2),
                t_invoke: Time(0),
                may_have_effect: true,
            }],
            horizon: Time(30),
            malformed: 0,
        };
        assert_eq!(check_fast_pending(&rmw_spec, &refuted), Verdict::NotLinearizable);

        // No pending ops at all: plain check_fast semantics.
        let clean = PendingHistory {
            complete: h(vec![
                (0, OpInstance::new("write", 7, ()), 0, 5),
                (1, OpInstance::new("read", (), 7), 6, 9),
            ]),
            pending: vec![],
            horizon: Time(9),
            malformed: 0,
        };
        assert!(check_fast_pending(&spec, &clean).is_linearizable());
    }

    /// Pending `write(100 + i)`s invoked at `t0 + i`, for `i` in `0..k`.
    fn pending_writes(k: i64, t0: i64) -> Vec<PendingOp> {
        (0..k)
            .map(|i| PendingOp {
                pid: Pid(0),
                invocation: Invocation::new("write", i + 100),
                t_invoke: Time(t0 + i),
                may_have_effect: true,
            })
            .collect()
    }

    /// A completed `read -> ret` at [50, 60] beside `pending`, horizon 80.
    fn read_beside(ret: i64, pending: Vec<PendingOp>) -> PendingHistory {
        PendingHistory {
            complete: h(vec![(1, OpInstance::new("read", (), ret), 50, 60)]),
            pending,
            horizon: Time(80),
            malformed: 0,
        }
    }

    #[test]
    fn pending_budget_exhaustion_is_counted() {
        let spec = erase(Register::new(0));
        let ph = read_beside(100, pending_writes(9, 0));
        let (obs, ring) = Obs::ring(64);
        // The node budget bounds the pending search like any other: out of
        // nodes, the verdict is Unknown, and the search is recorded.
        let tight = CheckConfig { max_nodes: 5 };
        assert_eq!(check_fast_pending_with(&spec, &ph, tight, &obs), Verdict::Unknown);
        assert_eq!(obs.metrics.counter("check.fallback.runs").get(), 1);
        assert_eq!(obs.metrics.counter("check.fallback.nodes").get(), 5);
        assert!(ring.events().iter().any(|e| e.detail.contains("budget exhausted")));
        // The default budget decides it.
        let cfg = CheckConfig::default();
        assert!(check_fast_pending_with(&spec, &ph, cfg, &obs).is_linearizable());
        assert_eq!(obs.metrics.counter("check.fallback.runs").get(), 2);
    }

    #[test]
    fn pending_refutations_degrade_over_malformed_records() {
        let spec = erase(Register::new(0));
        // read -> 5 with nothing pending is a sound refutation...
        let mut ph = PendingHistory {
            complete: h(vec![(1, OpInstance::new("read", (), 5), 10, 20)]),
            pending: vec![],
            horizon: Time(30),
            malformed: 0,
        };
        assert_eq!(check_fast_pending(&spec, &ph), Verdict::NotLinearizable);
        // ...unless the extraction also dropped an ill-formed record: the
        // lost op might have explained the read, so only Unknown is sound.
        ph.malformed = 1;
        assert_eq!(check_fast_pending(&spec, &ph), Verdict::Unknown);
        let (obs, _ring) = Obs::ring(16);
        assert_eq!(
            check_fast_pending_with(&spec, &ph, CheckConfig::default(), &obs),
            Verdict::Unknown
        );
        assert_eq!(obs.metrics.counter("check.pending.malformed_degraded").get(), 1);
        // Positive verdicts stand: the witness is over the recorded ops.
        let good = PendingHistory {
            complete: h(vec![(1, OpInstance::new("read", (), 0), 10, 20)]),
            pending: vec![],
            horizon: Time(30),
            malformed: 1,
        };
        assert!(check_fast_pending(&spec, &good).is_linearizable());
    }
    #[test]
    fn pending_witness_places_the_writes_before_the_read() {
        let spec = erase(Register::new(0));
        // Ten ops, decided in one descent: writes 100..103, then the read.
        // Writes 104..108 are invoked after the read responds and are left
        // out.
        let mut pending = pending_writes(4, 0);
        pending.extend(pending_writes(9, 66).split_off(4));
        let ph = read_beside(103, pending);
        assert_eq!(check_fast_pending(&spec, &ph), Verdict::Linearizable(vec![1, 2, 3, 4, 0]));
    }

    #[test]
    fn witness_verifier_rejects_garbage() {
        let spec = erase(FifoQueue::new());
        let hist = h(vec![
            (0, OpInstance::new("enqueue", 1, ()), 0, 1),
            (1, OpInstance::new("dequeue", (), 1), 2, 3),
        ]);
        assert!(verify_witness(&spec, &hist, &[0, 1]));
        assert!(!verify_witness(&spec, &hist, &[1, 0])); // real-time + legality
        assert!(!verify_witness(&spec, &hist, &[0, 0])); // not a permutation
        assert!(!verify_witness(&spec, &hist, &[0])); // wrong length
    }
}
