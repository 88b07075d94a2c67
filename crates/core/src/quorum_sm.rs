//! Crash-tolerant majority-quorum replicated state machine for **arbitrary**
//! data types, generalizing the Mostéfaoui–Raynal register construction
//! ([`crate::mr_register::MrNode`], arXiv:1601.04820) from overwritable
//! values, one per register or kv-store key, to a timestamp-ordered
//! operation log, with the communication-cost lens of Nataf & Moses
//! (arXiv:2604.05862).
//!
//! Every process is both a *client* and a *replica* holding a log
//! `ts → invocation` keyed by the paper's `(local time, pid)` timestamps
//! ([`crate::timestamp::Timestamp`]); replicas agree on the object state by
//! replaying the log in timestamp order. Unlike the register — where the
//! highest-timestamped value alone determines the state — a state machine's
//! responses depend on *every* logged prefix entry, so the protocol combines
//! quorum intersection (for real-time order) with a clock-driven *stability*
//! wait (for gap-free prefixes):
//!
//! * **Logged operations** (pure mutators and mixed ops) are two-phase:
//!   phase 1 queries a majority for the highest log timestamp, then the
//!   client picks `ts = (max(invoke clock, quorum max + 1), pid)` — at once
//!   fresher than every committed op it must follow and no older than its own
//!   invocation — logs the op locally, and broadcasts the commit to **all**
//!   replicas; phase 2 completes when a majority acks. A *pure mutator*
//!   responds right away (its response carries no state information):
//!   worst-case `4d`, `4(n−1)` messages. A *mixed* op (CAS, dequeue, pop)
//!   additionally waits until its position is **stable** before replaying its
//!   prefix for the response value.
//! * **Pure accessors** are not logged: one round trip asks a majority for
//!   their log maximum, which fixes the *cut* the accessor reads at. When
//!   every reply agrees on the maximum (the quorums overlap cleanly) the
//!   accessor responds directly after the stability wait — the `2d` fast
//!   path in quiescent periods. Disagreeing replies force a write-back of
//!   the local prefix to a majority first, so a later read can never observe
//!   an older cut.
//!
//! **Stability.** A log prefix up to timestamp `c` is final once the local
//! clock passes `c.time + Δ` with `Δ = 3d + ε + 1`: an op with `ts.time ≤
//! c.time` was invoked at a local clock `≤ ts.time`, its commit broadcast
//! leaves within `2d` (one phase-1 round trip), arrives within `d` more, and
//! local clocks disagree by at most `ε` — so past `Δ`, no commit can still
//! sneak under the cut (`+1` breaks the tie with the engine's
//! deliveries-before-timers ordering). This is why the backend tolerates
//! crashes and duplication but **not stalls**: a stalled client's delayed
//! commit broadcast violates the delivery bound Δ rests on.
//!
//! Quorum counting is crash- and duplicate-safe exactly as in the register:
//! every phase tracks the *set* of processes heard from, commits and syncs
//! are idempotent (the log is keyed by timestamp), and any `⌊(n−1)/2⌋`
//! crashes leave a live majority to answer every phase.
//!
//! **Replay cache.** A response is computed from a base object that holds
//! the log replayed through the entries `≤ applied`: only the entries in
//! `(applied, ts]` are applied, so a run of responses costs each log entry
//! once rather than a whole-prefix replay per response. An accessor runs on
//! a copy of the base. A new or different log entry at or below `applied`
//! (a late commit, e.g. from a stalled client) resets the cache to a fresh
//! object, so every response equals a fresh replay of its prefix — which
//! debug builds assert on every response.

use crate::timestamp::Timestamp;
use lintime_adt::spec::{Invocation, ObjState, ObjectSpec, OpClass};
use lintime_adt::value::Value;
use lintime_obs::{EventCategory, Obs};
use lintime_sim::node::{Effects, Node};
use lintime_sim::time::{ModelParams, Pid, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

/// Messages of the quorum state machine. `rid` is the client's per-operation
/// request id; replies carrying a stale `rid` are discarded.
#[derive(Clone, Debug, PartialEq)]
pub enum QsmMsg {
    /// Phase 1 (both logged ops and accessors): what is the highest log
    /// timestamp you hold?
    MaxQuery {
        /// Requesting operation id.
        rid: u64,
    },
    /// Reply to [`QsmMsg::MaxQuery`]; `None` for an empty log.
    MaxReply {
        /// Echoed operation id.
        rid: u64,
        /// The replica's highest log timestamp, if any.
        ts: Option<Timestamp>,
    },
    /// Commit a logged operation at `ts` (sent to **all** replicas). The
    /// replica inserts it and acks; insertion is idempotent.
    Commit {
        /// Requesting operation id.
        rid: u64,
        /// The operation's log position.
        ts: Timestamp,
        /// The operation itself.
        inv: Invocation,
    },
    /// An accessor's write-back of its log prefix (the read slow path). The
    /// replica merges the entries and acks.
    Sync {
        /// Requesting operation id.
        rid: u64,
        /// Log entries up to the accessor's cut.
        entries: Vec<(Timestamp, Invocation)>,
    },
    /// Acknowledgement of a [`QsmMsg::Commit`] or [`QsmMsg::Sync`].
    Ack {
        /// Echoed operation id.
        rid: u64,
    },
}

impl QsmMsg {
    /// Estimated serialized size in bytes: tag + 8-byte `rid`, plus the
    /// variant payload (a timestamp is 12 bytes: 8-byte time + 4-byte pid).
    /// `Sync` grows with the prefix it ships — the honest cost of reading a
    /// state machine rather than a register.
    pub fn wire_bytes(&self) -> usize {
        9 + match self {
            QsmMsg::MaxQuery { .. } | QsmMsg::Ack { .. } => 0,
            QsmMsg::MaxReply { ts, .. } => 1 + if ts.is_some() { 12 } else { 0 },
            QsmMsg::Commit { inv, .. } => 12 + inv.wire_bytes(),
            QsmMsg::Sync { entries, .. } => {
                2 + entries.iter().map(|(_, inv)| 12 + inv.wire_bytes()).sum::<usize>()
            }
        }
    }
}

/// Timers of the quorum state machine: the stability wait for the operation
/// with the given request id.
#[derive(Clone, Debug, PartialEq)]
pub enum QsmTimer {
    /// The pending operation's prefix becomes stable at this firing.
    Stable {
        /// The operation the wait belongs to; stale ids are ignored.
        rid: u64,
    },
}

/// Client-side progress of the operation pending at this process. Each
/// phase records the set of processes heard from (including this one);
/// sets, not counters, so duplicated replies cannot inflate a quorum.
enum Phase {
    Idle,
    /// Logged-op phase 1: collecting log maxima to pick a timestamp.
    Acquire {
        inv: Invocation,
        invoked_at: Time,
        qmax: Option<Timestamp>,
        heard: BTreeSet<Pid>,
    },
    /// Logged-op phase 2: collecting commit acks. `pure_ret` is the
    /// state-independent response for pure mutators (`None` for mixed ops,
    /// which replay their prefix at response time); `stable` tracks the
    /// stability wait (always true for pure mutators).
    Commit {
        ts: Timestamp,
        pure_ret: Option<Value>,
        acks: BTreeSet<Pid>,
        stable: bool,
    },
    /// Accessor phase 1: collecting log maxima to fix the cut. `uniform`
    /// stays true while every reply agrees on the maximum.
    Read {
        inv: Invocation,
        cut: Option<Timestamp>,
        uniform: bool,
        heard: BTreeSet<Pid>,
    },
    /// Accessor waiting for its cut to become stable (timer-driven).
    ReadWait {
        inv: Invocation,
        cut: Option<Timestamp>,
        uniform: bool,
    },
    /// Accessor slow path: writing the prefix back before responding.
    ReadSync {
        inv: Invocation,
        cut: Option<Timestamp>,
        acks: BTreeSet<Pid>,
    },
}

/// Pre-registered `qsm.*` metric handles (see [`QsmNode::with_obs`]).
struct QsmMetrics {
    round_trips: lintime_obs::Counter,
    fast_reads: lintime_obs::Counter,
    read_writebacks: lintime_obs::Counter,
    stability_waits: lintime_obs::Counter,
}

impl QsmMetrics {
    fn register(obs: &Obs) -> QsmMetrics {
        let r = &obs.metrics;
        QsmMetrics {
            round_trips: r.counter("qsm.quorum_round_trips"),
            fast_reads: r.counter("qsm.fast_reads"),
            read_writebacks: r.counter("qsm.read_writebacks"),
            stability_waits: r.counter("qsm.stability_waits"),
        }
    }
}

/// One process of the quorum state machine: the replica log plus the client
/// state machine for its own pending operation.
pub struct QsmNode {
    pid: Pid,
    n: usize,
    spec: Arc<dyn ObjectSpec>,
    /// Stability margin `Δ = 3d + ε + 1`.
    delta: Time,
    /// Replica state: committed operations in timestamp order.
    log: BTreeMap<Timestamp, Invocation>,
    /// Replay cache: `base` is the log replayed through the entries
    /// `≤ applied` (a fresh object while `applied` is `None`). Only
    /// [`QsmNode::log_insert`] changes `log`, and it resets the cache when
    /// the replayed prefix changes.
    base: Box<dyn ObjState>,
    applied: Option<Timestamp>,
    /// Client state.
    rid: u64,
    phase: Phase,
    /// Completed quorum round trips (each phase of each operation is one).
    round_trips: u64,
    /// Accessors that responded without a write-back.
    fast_reads: u64,
    /// Accessors that needed the write-back slow path.
    read_writebacks: u64,
    /// Operations that had to sit out a stability timer.
    stability_waits: u64,
    obs: Obs,
    metrics: Option<QsmMetrics>,
}

impl QsmNode {
    /// Build a node. Works for **any** [`ObjectSpec`] — the log replays the
    /// erased object, so nothing type-specific is assumed.
    pub fn new(pid: Pid, spec: Arc<dyn ObjectSpec>, params: ModelParams) -> Self {
        QsmNode {
            pid,
            n: params.n,
            base: spec.new_object(),
            spec,
            delta: Time(3 * params.d.as_ticks() + params.epsilon.as_ticks() + 1),
            log: BTreeMap::new(),
            applied: None,
            rid: 0,
            phase: Phase::Idle,
            round_trips: 0,
            fast_reads: 0,
            read_writebacks: 0,
            stability_waits: 0,
            obs: Obs::off(),
            metrics: None,
        }
    }

    /// Attach an observability bundle: round trips, fast reads, write-backs,
    /// and stability waits become `qsm.*` counters and trace events.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.metrics = obs.is_active().then(|| QsmMetrics::register(&obs));
        self.obs = obs;
        self
    }

    /// Majority quorum size `⌊n/2⌋ + 1`.
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }

    /// Completed quorum round trips at this node.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    /// Accessors that completed without a write-back.
    pub fn fast_reads(&self) -> u64 {
        self.fast_reads
    }

    /// Accessors that needed the write-back slow path.
    pub fn read_writebacks(&self) -> u64 {
        self.read_writebacks
    }

    /// Operations that waited on a stability timer before responding.
    pub fn stability_waits(&self) -> u64 {
        self.stability_waits
    }

    fn log_max(&self) -> Option<Timestamp> {
        self.log.keys().next_back().copied()
    }

    fn count_round_trip(&mut self) {
        self.round_trips += 1;
        if let Some(m) = &self.metrics {
            m.round_trips.inc();
        }
    }

    /// A fresh phase quorum with the local replica already counted.
    fn heard_self(&self) -> BTreeSet<Pid> {
        let mut heard = BTreeSet::new();
        heard.insert(self.pid);
        heard
    }

    /// Whether a prefix up to `cut` is already final at local time `now`.
    /// With `n = 1` there are no other writers, so every prefix is final.
    fn stable_at(&self, cut: Option<Timestamp>, now: Time) -> bool {
        match cut {
            None => true,
            Some(c) => self.n == 1 || now >= c.time + self.delta,
        }
    }

    /// Start the stability timer for the current operation and count the
    /// wait. Only called when [`QsmNode::stable_at`] is false, so the due
    /// time is in the local future.
    fn start_stability_timer(&mut self, cut: Timestamp, fx: &mut Effects<QsmMsg, QsmTimer>) {
        self.stability_waits += 1;
        if let Some(m) = &self.metrics {
            m.stability_waits.inc();
        }
        fx.set_timer_at(cut.time + self.delta, QsmTimer::Stable { rid: self.rid });
    }

    /// Log an entry (local commit, `Commit` or `Sync`). A new or different
    /// entry at or below `applied` changes the prefix the cache replayed, so
    /// the cache restarts from a fresh object; a duplicate changes nothing.
    fn log_insert(&mut self, ts: Timestamp, inv: Invocation) {
        if self.applied.is_some_and(|a| ts <= a) && self.log.get(&ts) != Some(&inv) {
            self.reset_cache();
        }
        self.log.insert(ts, inv);
    }

    fn reset_cache(&mut self) {
        self.base = self.spec.new_object();
        self.applied = None;
    }

    /// Advance the cache to the log prefix `≤ upto` — applying only the
    /// entries in `(applied, upto]`, after a reset if `upto` lies below
    /// `applied` — and return the response of the last entry applied
    /// (`Unit` if none was).
    fn catch_up(&mut self, upto: Timestamp) -> Value {
        if self.applied.is_some_and(|a| upto < a) {
            self.reset_cache();
        }
        let from = self.applied.map_or(Bound::Unbounded, Bound::Excluded);
        let mut ret = Value::Unit;
        for (_, inv) in self.log.range((from, Bound::Included(upto))) {
            ret = self.base.apply(inv.op, &inv.arg);
        }
        self.applied = Some(upto);
        ret
    }

    /// The log prefix `≤ upto` replayed on a fresh object, and the response
    /// of its last entry (`Unit` for an empty prefix): the reference the
    /// replay cache is checked against in debug builds.
    fn fresh_replay(&self, upto: Option<Timestamp>) -> (Box<dyn ObjState>, Value) {
        let mut obj = self.spec.new_object();
        let mut ret = Value::Unit;
        if let Some(upto) = upto {
            for (_, inv) in self.log.range(..=upto) {
                ret = obj.apply(inv.op, &inv.arg);
            }
        }
        (obj, ret)
    }

    /// The response of the entry at `ts` (the caller's own logged op) after
    /// the log prefix before it. Sound only once the prefix is stable.
    fn replay_ret(&mut self, ts: Timestamp) -> Value {
        // The response comes from applying the entry at `ts` itself, so the
        // cache must still be below it.
        if self.applied.is_some_and(|a| a >= ts) {
            self.reset_cache();
        }
        let ret = self.catch_up(ts);
        debug_assert_eq!(ret, self.fresh_replay(Some(ts)).1, "replay cache diverged at {ts:?}");
        ret
    }

    /// Apply the (unlogged) accessor on top of the log prefix `≤ cut` and
    /// return its response. It runs on a copy of the cached state, since
    /// objects may record even a read. Sound only once the prefix is stable.
    fn accessor_ret(&mut self, inv: &Invocation, cut: Option<Timestamp>) -> Value {
        let mut obj = match cut {
            Some(c) => {
                self.catch_up(c);
                self.base.clone_box()
            }
            None => self.spec.new_object(),
        };
        let ret = obj.apply(inv.op, &inv.arg);
        debug_assert_eq!(
            ret,
            self.fresh_replay(cut).0.apply(inv.op, &inv.arg),
            "replay cache diverged at {cut:?}"
        );
        ret
    }

    /// Finish an accessor whose cut is stable: respond directly when the
    /// quorum was uniform, otherwise write the prefix back to a majority
    /// first so no later read can observe an older cut.
    fn finish_read(
        &mut self,
        inv: Invocation,
        cut: Option<Timestamp>,
        uniform: bool,
        fx: &mut Effects<QsmMsg, QsmTimer>,
    ) {
        if uniform {
            self.fast_reads += 1;
            if let Some(m) = &self.metrics {
                m.fast_reads.inc();
            }
            let ret = self.accessor_ret(&inv, cut);
            fx.respond(ret);
            return;
        }
        self.read_writebacks += 1;
        if let Some(m) = &self.metrics {
            m.read_writebacks.inc();
        }
        self.obs.emit(fx.local_time().as_ticks(), Some(self.pid.0), EventCategory::Send, || {
            format!("read write-back of prefix ≤ {cut:?} before responding")
        });
        let entries: Vec<_> = match cut {
            Some(c) => self.log.range(..=c).map(|(t, i)| (*t, i.clone())).collect(),
            None => Vec::new(),
        };
        self.phase = Phase::ReadSync { inv, cut, acks: self.heard_self() };
        fx.broadcast(QsmMsg::Sync { rid: self.rid, entries });
        self.advance(fx);
    }

    /// Drive the client state machine: whenever the current phase has heard
    /// a majority (and, where required, reached stability), finish it and
    /// start the next (or respond). A loop rather than recursion — with
    /// `n = 1` every quorum is immediately satisfied and an operation falls
    /// straight through its phases.
    fn advance(&mut self, fx: &mut Effects<QsmMsg, QsmTimer>) {
        loop {
            let q = self.quorum();
            let ready = match &self.phase {
                Phase::Acquire { heard, .. } | Phase::Read { heard, .. } => heard.len() >= q,
                Phase::Commit { acks, stable, .. } => acks.len() >= q && *stable,
                Phase::ReadSync { acks, .. } => acks.len() >= q,
                // Timer-driven: `on_timer` re-enters the machine.
                Phase::ReadWait { .. } | Phase::Idle => false,
            };
            if !ready {
                return;
            }
            let now = fx.local_time();
            match std::mem::replace(&mut self.phase, Phase::Idle) {
                Phase::Idle | Phase::ReadWait { .. } => unreachable!("ready implies a live phase"),
                Phase::Acquire { inv, invoked_at, qmax, .. } => {
                    self.count_round_trip();
                    // Fresher than everything the quorum has committed, no
                    // older than the invocation: both real-time directions of
                    // the log order rest on this choice.
                    let time = match qmax {
                        Some(m) => invoked_at.max(m.time + Time(1)),
                        None => invoked_at,
                    };
                    let ts = Timestamp::new(time, self.pid);
                    self.log_insert(ts, inv.clone());
                    let mixed =
                        self.spec.op_meta(inv.op).is_none_or(|m| m.class != OpClass::PureMutator);
                    // A pure mutator's response is state-independent: read it
                    // off a fresh object now. Mixed ops replay their stable
                    // prefix when responding.
                    let pure_ret = (!mixed).then(|| self.spec.new_object().apply(inv.op, &inv.arg));
                    let stable = !mixed || self.stable_at(Some(ts), now);
                    if !stable {
                        self.start_stability_timer(ts, fx);
                    }
                    self.phase = Phase::Commit { ts, pure_ret, acks: self.heard_self(), stable };
                    fx.broadcast(QsmMsg::Commit { rid: self.rid, ts, inv });
                }
                Phase::Commit { ts, pure_ret, .. } => {
                    self.count_round_trip();
                    let ret = match pure_ret {
                        Some(v) => v,
                        None => self.replay_ret(ts),
                    };
                    fx.respond(ret);
                    return;
                }
                Phase::Read { inv, cut, uniform, .. } => {
                    self.count_round_trip();
                    if self.stable_at(cut, now) {
                        self.finish_read(inv, cut, uniform, fx);
                    } else {
                        let c = cut.expect("unstable cut is a concrete timestamp");
                        self.start_stability_timer(c, fx);
                        self.phase = Phase::ReadWait { inv, cut, uniform };
                    }
                    return;
                }
                Phase::ReadSync { inv, cut, .. } => {
                    self.count_round_trip();
                    let ret = self.accessor_ret(&inv, cut);
                    fx.respond(ret);
                    return;
                }
            }
        }
    }
}

impl Node for QsmNode {
    type Msg = QsmMsg;
    type Timer = QsmTimer;

    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<QsmMsg, QsmTimer>) {
        assert!(
            matches!(self.phase, Phase::Idle),
            "one operation at a time per process (engine enforces this)"
        );
        self.rid += 1;
        let accessor = self.spec.op_meta(inv.op).is_some_and(|m| m.class == OpClass::PureAccessor);
        if accessor {
            self.phase =
                Phase::Read { inv, cut: self.log_max(), uniform: true, heard: self.heard_self() };
        } else {
            // Mutators and mixed ops are logged; unknown operations are
            // conservatively treated as mixed.
            self.phase = Phase::Acquire {
                inv,
                invoked_at: fx.local_time(),
                qmax: self.log_max(),
                heard: self.heard_self(),
            };
        }
        fx.broadcast(QsmMsg::MaxQuery { rid: self.rid });
        // n = 1 (or tiny clusters): the local replica may already be a
        // majority on its own.
        self.advance(fx);
    }

    fn on_deliver(&mut self, from: Pid, msg: QsmMsg, fx: &mut Effects<QsmMsg, QsmTimer>) {
        match msg {
            // Replica duties: answer queries, adopt commits and syncs,
            // always ack.
            QsmMsg::MaxQuery { rid } => {
                let ts = self.log_max();
                fx.send(from, QsmMsg::MaxReply { rid, ts });
            }
            QsmMsg::Commit { rid, ts, inv } => {
                self.log_insert(ts, inv);
                fx.send(from, QsmMsg::Ack { rid });
            }
            QsmMsg::Sync { rid, entries } => {
                for (ts, inv) in entries {
                    self.log_insert(ts, inv);
                }
                fx.send(from, QsmMsg::Ack { rid });
            }
            // Client-side replies: discarded unless they carry the current
            // operation id *and* fit the current phase.
            QsmMsg::MaxReply { rid, ts } if rid == self.rid => match &mut self.phase {
                // Not collapsible into pattern guards: `heard.insert` must
                // mutate, and guards only get immutable access.
                #[allow(clippy::collapsible_match)]
                Phase::Acquire { qmax, heard, .. } => {
                    if heard.insert(from) {
                        *qmax = (*qmax).max(ts);
                        self.advance(fx);
                    }
                }
                #[allow(clippy::collapsible_match)]
                Phase::Read { cut, uniform, heard, .. } => {
                    if heard.insert(from) {
                        if ts != *cut {
                            *uniform = false;
                        }
                        if ts > *cut {
                            *cut = ts;
                        }
                        self.advance(fx);
                    }
                }
                _ => {}
            },
            QsmMsg::Ack { rid } if rid == self.rid => {
                if let Phase::Commit { acks, .. } | Phase::ReadSync { acks, .. } = &mut self.phase {
                    if acks.insert(from) {
                        self.advance(fx);
                    }
                }
            }
            // Stale replies from an already-completed operation.
            QsmMsg::MaxReply { .. } | QsmMsg::Ack { .. } => {}
        }
    }

    fn on_timer(&mut self, timer: QsmTimer, fx: &mut Effects<QsmMsg, QsmTimer>) {
        let QsmTimer::Stable { rid } = timer;
        if rid != self.rid {
            return; // stale timer from a completed operation
        }
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Commit { ts, pure_ret, acks, .. } => {
                self.phase = Phase::Commit { ts, pure_ret, acks, stable: true };
                self.advance(fx);
            }
            Phase::ReadWait { inv, cut, uniform } => {
                self.finish_read(inv, cut, uniform, fx);
            }
            other => self.phase = other,
        }
    }

    fn msg_wire_bytes(msg: &QsmMsg) -> usize {
        msg.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::erase;
    use lintime_adt::types::{Counter, FifoQueue, KvStore};
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::engine::{simulate, simulate_full, SimConfig};
    use lintime_sim::faults::FaultPlan;
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::ModelParams;

    fn params5() -> ModelParams {
        ModelParams::new(5, Time(6000), Time(2400), Time(1800))
    }

    fn mk(spec: &Arc<dyn ObjectSpec>, p: ModelParams) -> impl FnMut(Pid) -> QsmNode + '_ {
        move |pid| QsmNode::new(pid, Arc::clone(spec), p)
    }

    #[test]
    fn mutator_and_accessor_latencies() {
        let p = params5();
        let spec = erase(Counter::new());
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::nullary("increment")).at(
                Pid(1),
                Time(200_000),
                Invocation::nullary("read"),
            ),
        );
        let (run, nodes) = simulate_full(&cfg, mk(&spec, p));
        assert!(run.complete(), "{run}");
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        // Pure mutator: two quorum round trips of d each way = 4d.
        assert_eq!(run.ops[0].latency(), Some(p.d * 4));
        // Quiescent accessor: uniform maxima, stable cut, one round trip.
        assert_eq!(run.ops[1].latency(), Some(p.d * 2));
        assert_eq!(run.ops[1].ret, Some(Value::Int(1)));
        assert_eq!(nodes[1].fast_reads(), 1);
        assert_eq!(nodes[1].read_writebacks(), 0);
        assert_eq!(nodes[0].round_trips(), 2);
    }

    #[test]
    fn mixed_op_replays_its_stable_prefix() {
        let p = params5();
        let spec = erase(Counter::new());
        // increment commits first; the later fetch_inc must observe it and
        // return the pre-increment... post-increment value 1.
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new()
                .at(Pid(0), Time(0), Invocation::nullary("increment"))
                .at(Pid(1), Time(200_000), Invocation::nullary("fetch_inc"))
                .at(Pid(2), Time(400_000), Invocation::nullary("read")),
        );
        let run = simulate(&cfg, mk(&spec, p));
        assert!(run.complete(), "{run}");
        // fetch_inc returns the value before its own increment: 1.
        assert_eq!(run.ops[1].ret, Some(Value::Int(1)));
        // With Δ = 3d + ε + 1 < 4d the stability wait hides inside the ack
        // round trip: mixed ops still cost 4d.
        assert_eq!(run.ops[1].latency(), Some(p.d * 4));
        assert_eq!(run.ops[2].ret, Some(Value::Int(2)));
    }

    #[test]
    fn queue_stays_fifo_across_processes() {
        let p = params5();
        let spec = erase(FifoQueue::new());
        let mut sched = Schedule::new();
        for i in 0..3i64 {
            sched = sched.at(Pid(i as usize), Time(i * 100_000), Invocation::new("enqueue", i));
        }
        for i in 0..3i64 {
            sched = sched.at(Pid(3), Time(400_000 + i * 100_000), Invocation::nullary("dequeue"));
        }
        let run = simulate(&cfg_for(p, sched), mk(&spec, p));
        assert!(run.complete(), "{run}");
        let dequeued: Vec<_> = run
            .ops
            .iter()
            .filter(|o| o.invocation.op == "dequeue")
            .map(|o| o.ret.clone().unwrap())
            .collect();
        assert_eq!(dequeued, vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
    }

    fn cfg_for(p: ModelParams, sched: Schedule) -> SimConfig {
        SimConfig::new(p, DelaySpec::AllMax).with_schedule(sched)
    }

    #[test]
    fn survives_minority_crashes_on_a_queue() {
        let p = params5();
        let spec = erase(FifoQueue::new());
        // Two of five replicas crash before the workload starts: majorities
        // of the three survivors must still commit every op.
        let plan = FaultPlan::new(11).crash(Pid(3), Time(1)).crash(Pid(4), Time(1));
        let sched = Schedule::new()
            .at(Pid(0), Time(0), Invocation::new("enqueue", 7))
            .at(Pid(1), Time(200_000), Invocation::nullary("dequeue"))
            .at(Pid(2), Time(400_000), Invocation::nullary("peek"));
        let cfg = cfg_for(p, sched).with_faults(plan);
        let run = simulate(&cfg, mk(&spec, p));
        assert!(run.complete(), "a majority is alive, every op must finish: {run}");
        assert!(!run.truncated);
        assert_eq!(run.ops[1].ret, Some(Value::Int(7)));
        // The queue is empty again: peek sees nothing.
        assert_eq!(run.ops[2].ret, Some(Value::Unit));
        assert_eq!(run.crashed_pending, 0);
    }

    #[test]
    fn majority_crash_blocks_instead_of_lying() {
        let p = params5();
        let spec = erase(Counter::new());
        let plan =
            FaultPlan::new(11).crash(Pid(2), Time(1)).crash(Pid(3), Time(1)).crash(Pid(4), Time(1));
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_faults(plan)
            .with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::nullary("increment")));
        let run = simulate(&cfg, mk(&spec, p));
        assert!(!run.complete());
        assert_eq!(run.pending().count(), 1);
    }

    #[test]
    fn duplicated_replies_cannot_fake_a_quorum() {
        let p = params5();
        let spec = erase(FifoQueue::new());
        let plan =
            FaultPlan::new(5).crash(Pid(3), Time(1)).crash(Pid(4), Time(1)).duplicate_all(1.0);
        let sched = Schedule::new().at(Pid(0), Time(0), Invocation::new("enqueue", 9)).at(
            Pid(1),
            Time(200_000),
            Invocation::nullary("dequeue"),
        );
        let cfg = cfg_for(p, sched).with_faults(plan);
        let run = simulate(&cfg, mk(&spec, p));
        assert!(run.complete(), "{run}");
        assert_eq!(run.ops[1].ret, Some(Value::Int(9)));
    }

    #[test]
    fn kv_workload_round_trips() {
        let p = params5();
        let spec = erase(KvStore::new());
        let sched = Schedule::new()
            .at(Pid(0), Time(0), Invocation::new("put", Value::pair(1, 10)))
            .at(Pid(1), Time(200_000), Invocation::new("get", 1))
            .at(Pid(2), Time(200_000), Invocation::new("get", 2))
            .at(Pid(0), Time(400_000), Invocation::new("del", 1))
            .at(Pid(1), Time(600_000), Invocation::new("get", 1));
        let run = simulate(&cfg_for(p, sched), mk(&spec, p));
        assert!(run.complete(), "{run}");
        assert_eq!(run.ops[1].ret, Some(Value::Int(10)));
        assert_eq!(run.ops[2].ret, Some(Value::Unit));
        assert_eq!(run.ops[4].ret, Some(Value::Unit));
    }

    #[test]
    fn concurrent_mutators_agree_on_one_order() {
        let p = params5();
        let spec = erase(FifoQueue::new());
        // All five enqueue concurrently, then two processes drain: the two
        // observed orders must agree (same committed log everywhere).
        let mut sched = Schedule::new();
        for i in 0..5i64 {
            sched = sched.at(Pid(i as usize), Time(10 * i), Invocation::new("enqueue", 10 + i));
        }
        for k in 0..5i64 {
            sched = sched.at(Pid(0), Time(400_000 + 100_000 * k), Invocation::nullary("peek"));
            sched = sched.at(Pid(1), Time(450_000 + 100_000 * k), Invocation::nullary("dequeue"));
        }
        let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 9 }).with_schedule(sched);
        let run = simulate(&cfg, mk(&spec, p));
        assert!(run.complete(), "{run}");
        // Each peek must see exactly the element the following dequeue pops.
        let peeks: Vec<_> = run
            .ops
            .iter()
            .filter(|o| o.invocation.op == "peek")
            .map(|o| o.ret.clone().unwrap())
            .collect();
        let deqs: Vec<_> = run
            .ops
            .iter()
            .filter(|o| o.invocation.op == "dequeue")
            .map(|o| o.ret.clone().unwrap())
            .collect();
        assert_eq!(peeks, deqs, "{run}");
    }

    #[test]
    fn single_process_cluster_is_its_own_quorum() {
        // The engine requires n ≥ 2, so drive the node handlers directly:
        // with n = 1 the local replica alone is a majority, stability is
        // trivial, and ops complete inside `on_invoke` with no messages.
        let p = ModelParams { n: 1, d: Time(6000), u: Time(2400), epsilon: Time(1800) };
        let spec = erase(FifoQueue::new());
        let mut node = QsmNode::new(Pid(0), Arc::clone(&spec), p);

        let mut fx = Effects::new(Pid(0), 1, Time(0));
        node.on_invoke(Invocation::new("enqueue", 3), &mut fx);
        let parts = fx.into_parts();
        assert!(parts.sends.is_empty());
        assert_eq!(parts.response, Some(Value::Unit));

        let mut fx = Effects::new(Pid(0), 1, Time(10));
        node.on_invoke(Invocation::nullary("dequeue"), &mut fx);
        let parts = fx.into_parts();
        assert!(parts.sends.is_empty());
        assert_eq!(parts.response, Some(Value::Int(3)));

        let mut fx = Effects::new(Pid(0), 1, Time(20));
        node.on_invoke(Invocation::nullary("peek"), &mut fx);
        assert_eq!(fx.into_parts().response, Some(Value::Unit));
    }

    /// Run one handler of a 3-process node at local time `at`; return the
    /// response it produced.
    fn step(at: Time, f: impl FnOnce(&mut Effects<QsmMsg, QsmTimer>)) -> Option<Value> {
        let mut fx = Effects::new(Pid(0), 3, at);
        f(&mut fx);
        fx.into_parts().response
    }

    #[test]
    fn commit_below_the_replayed_prefix_resets_the_replay_cache() {
        // p0 of a 3-process cluster, driven by hand. A read replays the log
        // through (300, p2); delayed commits (a stalled client's) then land
        // below that prefix. Every later response must see them, exactly as
        // a fresh replay does (which debug builds also assert).
        let p = ModelParams::new(3, Time(6000), Time(2400), Time(1800));
        let mut node = QsmNode::new(Pid(0), erase(Counter::new()), p);
        let late = Time(1_000_000); // every prefix below is stable by then
        let ts = |t, pid| Timestamp::new(Time(t), Pid(pid));
        let commit = |node: &mut QsmNode, t, pid, v| {
            let msg = QsmMsg::Commit { rid: 1, ts: ts(t, pid), inv: Invocation::new("add", v) };
            step(late, |fx| node.on_deliver(Pid(pid), msg, fx));
        };
        let read = |node: &mut QsmNode| {
            step(late, |fx| node.on_invoke(Invocation::nullary("read"), fx));
            let reply = QsmMsg::MaxReply { rid: node.rid, ts: node.log_max() };
            step(late, |fx| node.on_deliver(Pid(1), reply, fx))
        };

        commit(&mut node, 100, 1, 1);
        commit(&mut node, 300, 2, 100);
        assert_eq!(read(&mut node), Some(Value::Int(101)));
        assert_eq!(node.applied, Some(ts(300, 2)));

        commit(&mut node, 200, 1, 10);
        assert_eq!(node.applied, None, "a new entry below the replayed prefix resets the cache");
        assert_eq!(read(&mut node), Some(Value::Int(111)));
        commit(&mut node, 200, 1, 10);
        assert_eq!(node.applied, Some(ts(300, 2)), "a duplicate keeps the cache");

        // A mixed op: phase 1, a commit below the prefix while it waits for
        // acks and stability, then the response replays its own entry.
        let t = Time(2_000_000);
        step(t, |fx| node.on_invoke(Invocation::nullary("fetch_inc"), fx));
        let reply = QsmMsg::MaxReply { rid: node.rid, ts: node.log_max() };
        step(t, |fx| node.on_deliver(Pid(1), reply, fx));
        commit(&mut node, 250, 2, 1000);
        let rid = node.rid;
        assert_eq!(step(t, |fx| node.on_deliver(Pid(1), QsmMsg::Ack { rid }, fx)), None);
        let ret = step(t + node.delta, |fx| node.on_timer(QsmTimer::Stable { rid }, fx));
        assert_eq!(ret, Some(Value::Int(1111)), "fetch_inc returns the value before its own add");
    }

    #[test]
    fn observed_node_counts_quorum_metrics() {
        let p = params5();
        let spec = erase(Counter::new());
        let (obs, _ring) = Obs::ring(1024);
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_schedule(
                Schedule::new().at(Pid(0), Time(0), Invocation::nullary("increment")).at(
                    Pid(1),
                    Time(200_000),
                    Invocation::nullary("read"),
                ),
            )
            .with_obs(obs.clone());
        let run =
            simulate(&cfg, |pid| QsmNode::new(pid, Arc::clone(&spec), p).with_obs(cfg.obs.clone()));
        assert!(run.complete());
        // Mutator = 2 round trips, fast read = 1.
        assert_eq!(obs.metrics.counter("qsm.quorum_round_trips").get(), 3);
        assert_eq!(obs.metrics.counter("qsm.fast_reads").get(), 1);
        assert_eq!(obs.metrics.counter("qsm.read_writebacks").get(), 0);
    }

    #[test]
    fn commit_bytes_account_the_invocation() {
        let inv = Invocation::new("enqueue", 7);
        let commit = QsmMsg::Commit { rid: 1, ts: Timestamp::new(Time(5), Pid(0)), inv };
        assert!(commit.wire_bytes() > QsmMsg::Ack { rid: 1 }.wire_bytes());
        let sync = QsmMsg::Sync {
            rid: 1,
            entries: vec![
                (Timestamp::new(Time(5), Pid(0)), Invocation::new("enqueue", 7)),
                (Timestamp::new(Time(6), Pid(1)), Invocation::new("enqueue", 8)),
            ],
        };
        // Sync cost grows with the prefix it ships.
        assert!(sync.wire_bytes() > commit.wire_bytes());
    }
}
