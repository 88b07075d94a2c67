//! Online streaming linearizability checking with bounded memory.
//!
//! Every other checker entry point ([`crate::monitor::check_fast`], the
//! Wing–Gong search) consumes a complete [`History`] after the run ends, so
//! resident memory grows with trace length. [`StreamChecker`] instead
//! consumes the live operation stream — [`feed`](StreamChecker::feed) one
//! event at a time — and maintains a verdict incrementally, following the
//! efficient-monitoring line of work (Lee & Mathur, arXiv:2410.04581;
//! Abdulla et al., arXiv:2509.17795): for unambiguous histories, monitor
//! state proportional to concurrency, not history length.
//!
//! # Architecture
//!
//! Completed operations accumulate in a **window** — a compacting ring of
//! [`TimedOp`]s held in response order (the streaming analogue of the
//! grow-only [`crate::arena::HistoryArena`] columns: the window is the one
//! live arena segment, and garbage collection retires settled segments from
//! the front). Invocations without a response yet live in a per-process
//! pending table. Periodically the checker attempts a **flush**:
//!
//! 1. **Settled prefix.** An operation is *settled* once it responded before
//!    every currently-pending invocation and before the latest event time
//!    seen (`t_respond < min(t_invoke over pending ops, latest time)`). Event
//!    times are monotone, so an operation still to arrive is invoked at the
//!    latest time or after, and an invocation at an op's response instant is
//!    concurrent with it. So every settled op real-time-precedes every
//!    operation that can still arrive, and the history decomposes exactly at
//!    the cut: the full history is linearizable iff the settled prefix is
//!    linearizable *and* the residual suffix is linearizable from the
//!    prefix's final state.
//! 2. **Canonical cut.** The decomposition needs that final state to be
//!    unique across all linearizations of the prefix. The checker only
//!    garbage-collects at cuts where uniqueness is structural: matched-pair
//!    types (queue/stack/priority queue) require the prefix to be *closed*
//!    (every produced value consumed in the prefix — the structure is
//!    provably empty at the cut); registers, sets, and kv-stores require the
//!    (per-key) last write to be strict in real time; counters are always
//!    canonical (the sum is order-independent). A cut that is not canonical
//!    simply delays GC — correctness never depends on flushing.
//! 3. **Hand off, decide and retire.** The settled prefix moves out of the
//!    window to a **decider thread**, spawned at the first hand-off, while
//!    the feeding thread goes on with the stream. The decider owns the
//!    carried base state and takes windows in stream order through the same
//!    decision ladder as [`crate::monitor::check_fast`], run against a
//!    *seeded* spec that replays the carried state: the type-specialized
//!    monitor first, falling back to a bounded offline Wing–Gong re-check
//!    of the window when the monitor defers (counted in
//!    `check.stream.fallbacks`; a budget-exhausted fallback degrades to
//!    [`StreamVerdict::Unknown`], never a false refutation). The decision
//!    builds one arena over the window's ops without copying their values,
//!    which the monitor and then the search read, and a certified prefix
//!    hands on the state its witness ended
//!    in — the monitor witness's verifying replay, or the search's live
//!    object — as the new carried base state, so the witness is replayed
//!    once; the window is then dropped. A refuted prefix is a **sound
//!    violation** of the whole stream. Results come back to the feeding
//!    thread only at fixed points: at hand-off `j` it waits for window
//!    `j − 2` (so at most two windows are in flight), and
//!    [`finish`](StreamChecker::finish) and the accessors wait for all of
//!    them. The verdict (and, on a violation, its evidence window) is
//!    therefore the one a checker deciding each window at its cut would
//!    reach, and on a legal stream so is every statistic, however often the
//!    accessors are read. On a failing stream the statistics may differ:
//!    events fed while the failed window was still in flight are counted.
//!
//! Resident memory is therefore `O(flush window + concurrency + unmatched
//! items)`, plus the at most two windows in flight, flat in the stream
//! length: the tier-1 streaming test in
//! `lintime-bench` holds a 200k-op queue stream to the resident peak of a
//! 20k-op one, and `lintime stream --ops 10000000` prints throughput and
//! peak residency at scale.
//!
//! # Honesty
//!
//! The verdict lattice is risk-asymmetric exactly like the offline path:
//! [`StreamVerdict::Violation`] only from sound refutations (monitor
//! patterns or an exhausted full search of a settled window),
//! [`StreamVerdict::Ok`] only when every settled window was certified with a
//! replay-verified witness, and everything else — malformed or non-monotone
//! event streams, window overflow past the configured bound, fallback
//! budget exhaustion — degrades to [`StreamVerdict::Unknown`] and stays
//! there.
//!
//! The running verdict returned by [`feed`](StreamChecker::feed) lags the
//! stream by at most two windows: a window's refutation surfaces when its
//! result is applied, at most two hand-offs after its cut. A degradation on
//! the feeding side (a malformed event, a window overflow) first applies
//! every window in flight, so an earlier refutation still takes precedence.
//! [`finish`](StreamChecker::finish) and the accessors
//! ([`verdict`](StreamChecker::verdict), [`stats`](StreamChecker::stats),
//! [`certified`](StreamChecker::certified)) are exact.

use crate::history::{History, PendingHistory, PendingOp, TimedOp};
use crate::monitor;
use crate::prelude::{CheckConfig, Verdict};
use lintime_adt::fxhash::FxBuildHasher;
use lintime_adt::spec::{Invocation, ObjState, ObjectSpec, OpInstance, OpMeta, SpecKind};
use lintime_adt::value::Value;
use lintime_obs::{Counter, Gauge, Obs, TraceEvent};
use lintime_sim::engine::OpEvent;
use lintime_sim::run::Run;
use lintime_sim::time::{Pid, Time};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// Streaming verdict after any number of [`StreamChecker::feed`] calls.
///
/// `Violation` and `Unknown` are *sticky*: once reached, later events cannot
/// improve the verdict (the checker drops its state and only counts events).
/// The verdict `feed` returns may lag by up to two settled windows still
/// being decided; [`StreamChecker::verdict`] and [`StreamChecker::finish`]
/// wait for them.
#[derive(Clone, Debug)]
pub enum StreamVerdict {
    /// No violation so far: every settled window was certified linearizable
    /// with a replay-verified witness.
    Ok,
    /// Sound refutation: some window of the stream is not linearizable from
    /// the certified state preceding it (hence the whole history is not).
    Violation(ViolationEvidence),
    /// The checker cannot decide (and will never falsely refute): see
    /// [`UnknownReason`].
    Unknown(UnknownReason),
}

impl StreamVerdict {
    /// True iff no violation has been found and nothing was degraded.
    pub fn is_ok(&self) -> bool {
        matches!(self, StreamVerdict::Ok)
    }

    /// True iff a sound violation was found.
    pub fn is_violation(&self) -> bool {
        matches!(self, StreamVerdict::Violation(_))
    }

    /// Verdict class name, comparable across streaming and offline paths.
    pub fn class(&self) -> &'static str {
        match self {
            StreamVerdict::Ok => "linearizable",
            StreamVerdict::Violation(_) => "not-linearizable",
            StreamVerdict::Unknown(_) => "unknown",
        }
    }
}

/// Why a streaming verdict degraded to [`StreamVerdict::Unknown`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// The event stream itself was ill-formed: a response without a pending
    /// invocation, a second invocation on a busy process, an unparseable
    /// trace event, or a truncated run record.
    MalformedStream,
    /// The resident window exceeded [`StreamConfig::max_resident`] without a
    /// canonical settled cut to retire; the checker dropped its state rather
    /// than grow without bound.
    WindowOverflow,
    /// An offline fallback re-check of a window exhausted its node or
    /// completion budget; refutation would be unsound, so the stream
    /// degrades instead.
    FallbackBudget,
}

/// Evidence carried by [`StreamVerdict::Violation`]: the window that was
/// refuted, as a standalone [`History`] in response order. The refutation is
/// relative to the certified state carried into the window (the preceding
/// settled prefixes), which the prior `Ok` flushes vouch for.
#[derive(Clone, Debug)]
pub struct ViolationEvidence {
    /// The refuted window.
    pub window: History,
}

/// A certified window retained for audit when
/// [`StreamConfig::keep_witnesses`] is set: the seeded spec snapshot the
/// window was checked against, the window itself, and the replay-verified
/// witness order.
pub struct CertifiedWindow {
    /// Spec seeded with the base state the window was checked against.
    pub spec: Arc<dyn ObjectSpec>,
    /// The certified window.
    pub window: History,
    /// Witness linearization (indices into `window.ops`).
    pub order: Vec<usize>,
}

/// Configuration of a [`StreamChecker`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Budget for offline fallback re-checks of ambiguous windows.
    pub check: CheckConfig,
    /// Target flush granularity: a flush is attempted once the window holds
    /// at least this many completed ops, and a settled prefix shorter than
    /// half this is left to grow. Amortizes the per-flush sweep cost to
    /// `O(log flush_ops)` per event.
    pub flush_ops: usize,
    /// Hard bound on resident completed ops. If the window exceeds this
    /// without a canonical settled cut, the checker degrades to
    /// [`StreamVerdict::Unknown`] (reason
    /// [`UnknownReason::WindowOverflow`]) and drops its state — memory stays
    /// bounded no matter what the stream does.
    pub max_resident: usize,
    /// Retain every certified window with its witness (see
    /// [`StreamChecker::certified`]); for tests and audits, off by default.
    pub keep_witnesses: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            check: CheckConfig::default(),
            flush_ops: 1024,
            max_resident: 1 << 16,
            keep_witnesses: false,
        }
    }
}

impl StreamConfig {
    /// Set the flush granularity.
    pub fn with_flush_ops(mut self, n: usize) -> Self {
        self.flush_ops = n.max(1);
        self
    }

    /// Set the resident-op hard bound.
    pub fn with_max_resident(mut self, n: usize) -> Self {
        self.max_resident = n.max(1);
        self
    }

    /// Set the fallback check budget.
    pub fn with_check(mut self, cfg: CheckConfig) -> Self {
        self.check = cfg;
        self
    }

    /// Retain certified windows and witnesses.
    pub fn keeping_witnesses(mut self) -> Self {
        self.keep_witnesses = true;
        self
    }
}

/// Counters maintained by a [`StreamChecker`] (always available, mirrored
/// into `check.stream.*` metrics when an active [`Obs`] is attached).
#[derive(Clone, Debug, Default)]
pub struct StreamStats {
    /// Events fed (invocations + responses), including after degradation.
    pub events: u64,
    /// Completed operations observed.
    pub ops: u64,
    /// Windows certified and retired.
    pub flushes: u64,
    /// Completed ops garbage-collected out of the window.
    pub gc_reclaimed: u64,
    /// Offline Wing–Gong fallback re-checks of ambiguous windows.
    pub fallbacks: u64,
    /// Degradations due to the resident bound.
    pub window_overflows: u64,
    /// Malformed events observed.
    pub malformed: u64,
    /// High-water mark of resident ops (window + pending).
    pub peak_resident: usize,
    /// High-water mark of concurrently pending invocations.
    pub peak_pending: usize,
    /// High-water mark of ops handed to the decider whose results are not
    /// yet applied, counted at the fixed application points (the two
    /// latest windows at each hand-off), so reading the accessors early
    /// does not lower it.
    pub peak_in_flight: usize,
}

/// Pre-registered `check.stream.*` metric handles (one lock per run, not per
/// event).
struct StreamMetrics {
    events: Counter,
    flushes: Counter,
    gc_reclaimed: Counter,
    fallbacks: Counter,
    window_overflow: Counter,
    malformed: Counter,
    window_peak: Gauge,
    pending_peak: Gauge,
    in_flight_peak: Gauge,
}

impl StreamMetrics {
    fn register(obs: &Obs) -> StreamMetrics {
        let r = &obs.metrics;
        StreamMetrics {
            events: r.counter("check.stream.events"),
            flushes: r.counter("check.stream.flushes"),
            gc_reclaimed: r.counter("check.stream.gc_reclaimed"),
            fallbacks: r.counter("check.stream.fallbacks"),
            window_overflow: r.counter("check.stream.window_overflow"),
            malformed: r.counter("check.stream.malformed"),
            window_peak: r.gauge("check.stream.window_peak"),
            pending_peak: r.gauge("check.stream.pending_peak"),
            in_flight_peak: r.gauge("check.stream.in_flight_peak"),
        }
    }
}

/// How the checker recognizes canonical cuts for the spec's [`SpecKind`].
#[derive(Clone, Copy)]
enum Shape {
    /// Producer/consumer matched pairs: cut canonical iff the prefix is
    /// closed (structure empty).
    Matched { prod: &'static str, cons: &'static str },
    /// Single register cell: cut canonical iff the last write is strict.
    Register,
    /// Per-key register cells: the register rule per key.
    Keyed,
    /// Order-independent sum: always canonical.
    Counter,
    /// No structural rule: never garbage-collect (decide only at the end).
    Opaque,
}

/// What one completed op of a [`Shape::Matched`] type does to the balance of
/// open values.
enum Effect<'a> {
    /// Moves the count of this value by the given amount: `+1` for a
    /// producer's argument, `-1` for a consumer's non-`Unit` return.
    Count(&'a Value, i64),
    /// A known op that moves no value (an accessor, an empty consume).
    Neutral,
    /// An op the spec does not know: no structural claim can be made.
    Unknown,
}

/// Running balance of a [`Shape::Matched`] window: per value, produced minus
/// consumed, over every op in the window. Zero entries are removed, so the
/// map holds exactly the non-zero ones. A prefix is only retired when it is
/// balanced, which leaves the balance unchanged.
#[derive(Default)]
struct OpenValues {
    count: HashMap<Value, i64, FxBuildHasher>,
    /// Window ops with [`Effect::Unknown`].
    unknown: usize,
}

impl OpenValues {
    fn add(&mut self, effect: Effect<'_>) {
        match effect {
            Effect::Count(v, d) => match self.count.get_mut(v) {
                Some(c) if *c + d == 0 => {
                    self.count.remove(v);
                }
                Some(c) => *c += d,
                None => {
                    self.count.insert(v.clone(), d);
                }
            },
            Effect::Neutral => {}
            Effect::Unknown => self.unknown += 1,
        }
    }
}

impl Shape {
    fn of(kind: SpecKind) -> Shape {
        match kind {
            SpecKind::FifoQueue => Shape::Matched { prod: "enqueue", cons: "dequeue" },
            SpecKind::Stack => Shape::Matched { prod: "push", cons: "pop" },
            SpecKind::PriorityQueue => Shape::Matched { prod: "insert", cons: "extract_min" },
            SpecKind::Register | SpecKind::RmwRegister => Shape::Register,
            SpecKind::GrowSet | SpecKind::KvStore => Shape::Keyed,
            SpecKind::Counter => Shape::Counter,
            _ => Shape::Opaque,
        }
    }
}

/// An [`ObjectSpec`] whose fresh objects start from a carried base state
/// instead of the type's initial state. `new_object` clones the shared base,
/// so the monitors, the Wing–Gong fallback, and witness replay all see the
/// streamed prefix's certified final state as "initial".
struct SeededSpec {
    inner: Arc<dyn ObjectSpec>,
    base: Arc<Mutex<Box<dyn ObjState>>>,
}

impl ObjectSpec for SeededSpec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> SpecKind {
        self.inner.kind()
    }

    fn ops(&self) -> &[OpMeta] {
        self.inner.ops()
    }

    fn op_meta(&self, op: &str) -> Option<&OpMeta> {
        self.inner.op_meta(op)
    }

    fn new_object(&self) -> Box<dyn ObjState> {
        self.base.lock().expect("stream base poisoned").clone_box()
    }

    fn suggested_args(&self, op: &'static str) -> Vec<Value> {
        self.inner.suggested_args(op)
    }
}

/// An invocation awaiting its response.
struct PendingSlot {
    op: &'static str,
    arg: Value,
    t_invoke: Time,
}

/// At most this many windows are handed to the decider and not yet applied:
/// at hand-off `j` the feeding thread first applies window `j − 2`.
/// At depth 1 the feeder waited at every hand-off; a deeper queue was no
/// faster and would give up the bound on resident windows.
const DEPTH: usize = 2;

/// Name of the decider thread.
const DECIDER_THREAD: &str = "stream-decider";

/// What deciding one window came to.
enum Outcome {
    /// Certified: the carried base is now the state the witness ends in.
    /// Holds the audit record under [`StreamConfig::keep_witnesses`].
    Certified(Option<CertifiedWindow>),
    /// Soundly refuted: the window is the evidence.
    Refuted(History),
    /// The fallback search ran out of budget.
    Budget,
    /// Not decided: an earlier window failed, so the stream is over.
    Skipped,
    /// The decision panicked; re-raised where the result is applied.
    Panicked(Box<dyn Any + Send>),
}

/// One window's result, as the decider hands it back.
struct Decided {
    ops: usize,
    /// Whether the Wing–Gong fallback ran.
    searched: bool,
    outcome: Outcome,
}

/// The deciding stage: the carried base and the decision ladder, applied to
/// windows in stream order. It lives on the decider thread; `finish` builds
/// one more to decide the residue.
struct WindowDecider {
    seeded: Arc<dyn ObjectSpec>,
    base: Arc<Mutex<Box<dyn ObjState>>>,
    check: CheckConfig,
    keep_witnesses: bool,
    /// A window failed: the stream's verdict is final, skip the rest.
    failed: bool,
}

impl WindowDecider {
    /// Decide `window` against the carried base, unless an earlier window
    /// failed. A panic is caught and returned, to be re-raised on the
    /// feeding thread.
    fn decide(&mut self, window: History) -> Decided {
        let ops = window.len();
        if self.failed {
            return Decided { ops, searched: false, outcome: Outcome::Skipped };
        }
        let decided =
            panic::catch_unwind(AssertUnwindSafe(|| self.decide_window(window))).unwrap_or_else(
                |payload| Decided { ops, searched: false, outcome: Outcome::Panicked(payload) },
            );
        self.failed = !matches!(decided.outcome, Outcome::Certified(_));
        decided
    }

    /// The one decision function behind every window: the monitor ladder
    /// against the seeded spec; on certification the state the witness ends
    /// in becomes the new base.
    fn decide_window(&self, window: History) -> Decided {
        let decision = monitor::ladder(&self.seeded, &window, &[], None, self.check, &Obs::off());
        let (ops, searched) = (window.len(), decision.searched);
        let outcome = match decision.verdict {
            Verdict::Linearizable(order) => {
                // The decision replayed (or searched) its witness from the
                // base state, so `state` is where the witness leaves it; the
                // cut is canonical, so that is the unique post-window state
                // shared by every linearization. (The residue decided at
                // `finish` need not end at a canonical cut, but nothing is
                // decided after it.) The base it replaces is the audit
                // snapshot.
                let state = decision.state.expect("a witness has a state");
                let retired =
                    std::mem::replace(&mut *self.base.lock().expect("stream base poisoned"), state);
                Outcome::Certified(self.keep_witnesses.then(|| CertifiedWindow {
                    spec: Arc::new(SeededSpec {
                        inner: Arc::clone(&self.seeded),
                        base: Arc::new(Mutex::new(retired)),
                    }),
                    window,
                    order,
                }))
            }
            Verdict::NotLinearizable => Outcome::Refuted(window),
            Verdict::Unknown => Outcome::Budget,
        };
        Decided { ops, searched, outcome }
    }
}

/// Joins the decider thread when dropped.
struct JoinOnDrop(Option<thread::JoinHandle<()>>);

impl Drop for JoinOnDrop {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            // The decider catches the panics of its decisions.
            let _ = handle.join();
        }
    }
}

/// The decider thread and its two channels. Fields drop in order: closing
/// both channels ends its loop (after at most the window it is deciding),
/// then it is joined.
struct Decider {
    windows: mpsc::Sender<History>,
    results: mpsc::Receiver<Decided>,
    _thread: JoinOnDrop,
}

impl Decider {
    /// Spawn the decider thread around `stage`.
    fn spawn(mut stage: WindowDecider) -> Decider {
        let (windows, inbox) = mpsc::channel::<History>();
        let (outbox, results) = mpsc::channel();
        let handle = thread::Builder::new()
            .name(DECIDER_THREAD.into())
            .spawn(move || {
                for window in inbox {
                    if outbox.send(stage.decide(window)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn stream decider");
        Decider { windows, results, _thread: JoinOnDrop(Some(handle)) }
    }

    fn submit(&self, window: History) {
        self.windows.send(window).expect("the decider thread runs until dropped");
    }

    /// The oldest outstanding result, waiting for it if need be.
    fn next(&self) -> Decided {
        self.results.recv().expect("the decider answers every window")
    }
}

/// The online checker: feed events, read the running verdict, [`finish`](StreamChecker::finish)
/// (see [`StreamChecker::finish`]) for the final one.
///
/// Structural work — the pending table, the window, the settled cut, the
/// canonical test, the flush backoff, residency accounting — happens on
/// the feeding thread; settled windows are decided on a decider thread
/// (see the module docs). Dropping the checker closes the decider's channel
/// and joins it.
pub struct StreamChecker {
    seeded: Arc<dyn ObjectSpec>,
    base: Arc<Mutex<Box<dyn ObjState>>>,
    shape: Shape,
    cfg: StreamConfig,
    metrics: Option<StreamMetrics>,
    /// Pending invocation per process (indexed by pid).
    pending: Vec<Option<PendingSlot>>,
    pending_count: usize,
    /// Completed ops in response order (compacting ring: GC drains the
    /// settled front).
    window: Vec<TimedOp>,
    /// Balance of `window` (kept for [`Shape::Matched`] only).
    open: OpenValues,
    /// Window length at which the next flush is attempted (multiplicative
    /// backoff after a failed canonicality check).
    next_flush: usize,
    /// Window no longer respond-sorted (out-of-order response times); sorted
    /// lazily at the next flush.
    dirty: bool,
    /// Event times regressed: settled-prefix reasoning is off, decide only
    /// at the end.
    non_monotone: bool,
    max_t: Time,
    verdict: StreamVerdict,
    /// Verdict is sticky-final: stop tracking, only count events.
    dead: bool,
    stats: StreamStats,
    /// Certified windows (only with [`StreamConfig::keep_witnesses`]).
    certified: Vec<CertifiedWindow>,
    /// The decider thread: none before the first hand-off, or once the
    /// stream's verdict is final.
    decider: Option<Decider>,
    /// Windows handed off whose results are not yet applied.
    in_flight: usize,
    /// Size of the window handed off last: with the current one, the ops in
    /// flight under the fixed application schedule, whatever the accessors
    /// applied early.
    last_handed: usize,
}

impl StreamChecker {
    /// A checker for `spec` with default configuration and no observability.
    pub fn new(spec: &Arc<dyn ObjectSpec>) -> StreamChecker {
        StreamChecker::with_config(spec, StreamConfig::default())
    }

    /// A checker with an explicit configuration.
    pub fn with_config(spec: &Arc<dyn ObjectSpec>, cfg: StreamConfig) -> StreamChecker {
        StreamChecker::observed(spec, cfg, &Obs::off())
    }

    /// A checker mirroring its counters into `obs` (`check.stream.*`).
    pub fn observed(spec: &Arc<dyn ObjectSpec>, cfg: StreamConfig, obs: &Obs) -> StreamChecker {
        let base = Arc::new(Mutex::new(spec.new_object()));
        let seeded: Arc<dyn ObjectSpec> =
            Arc::new(SeededSpec { inner: Arc::clone(spec), base: Arc::clone(&base) });
        StreamChecker {
            shape: Shape::of(spec.kind()),
            seeded,
            base,
            metrics: obs.is_active().then(|| StreamMetrics::register(obs)),
            next_flush: cfg.flush_ops,
            cfg,
            pending: Vec::new(),
            pending_count: 0,
            window: Vec::new(),
            open: OpenValues::default(),
            dirty: false,
            non_monotone: false,
            max_t: Time(i64::MIN),
            verdict: StreamVerdict::Ok,
            dead: false,
            stats: StreamStats::default(),
            certified: Vec::new(),
            decider: None,
            in_flight: 0,
            last_handed: 0,
        }
    }

    /// The verdict so far, after applying every window still in flight.
    pub fn verdict(&mut self) -> &StreamVerdict {
        self.settle();
        &self.verdict
    }

    /// Live statistics, after applying every window still in flight.
    pub fn stats(&mut self) -> &StreamStats {
        self.settle();
        &self.stats
    }

    /// Currently resident operations (window + pending).
    pub fn resident_ops(&self) -> usize {
        self.window.len() + self.pending_count
    }

    /// Certified windows retained under [`StreamConfig::keep_witnesses`],
    /// after applying every window still in flight.
    pub fn certified(&mut self) -> &[CertifiedWindow] {
        self.settle();
        &self.certified
    }

    /// Feed a structured engine event (see
    /// [`lintime_sim::engine::SimConfig::op_sink`]). Returns the running
    /// verdict, which lags by at most two windows still being decided.
    pub fn feed(&mut self, ev: &OpEvent) -> &StreamVerdict {
        match ev {
            OpEvent::Invoke { pid, t, op, arg } => self.feed_invoke(*pid, *t, op, arg.clone()),
            OpEvent::Respond { pid, t, ret } => self.feed_respond(*pid, *t, ret.clone()),
        }
    }

    /// Feed an invocation: process `pid` called `op(arg)` at time `t`.
    pub fn feed_invoke(
        &mut self,
        pid: Pid,
        t: Time,
        op: &'static str,
        arg: Value,
    ) -> &StreamVerdict {
        self.count_event(t);
        if self.dead {
            return &self.verdict;
        }
        if pid.0 >= self.pending.len() {
            self.pending.resize_with(pid.0 + 1, || None);
        }
        if self.pending[pid.0].is_some() {
            return self.malformed();
        }
        self.pending[pid.0] = Some(PendingSlot { op, arg, t_invoke: t });
        self.pending_count += 1;
        self.stats.peak_pending = self.stats.peak_pending.max(self.pending_count);
        self.note_resident();
        &self.verdict
    }

    /// Feed a response: `pid`'s outstanding invocation returned `ret` at `t`.
    pub fn feed_respond(&mut self, pid: Pid, t: Time, ret: Value) -> &StreamVerdict {
        self.count_event(t);
        if self.window.len() >= self.next_flush {
            // Try the cut before this op joins the window. Still pending, it
            // bounds the cut by its invocation. In the window it responds at
            // the latest instant, so a cut tried then leaves it out, and a
            // lock-step stream, whose every cut needs the op that closes its
            // round, would never close one.
            self.maybe_flush();
        }
        if self.dead {
            return &self.verdict;
        }
        let Some(slot) = self.pending.get_mut(pid.0).and_then(Option::take) else {
            return self.malformed();
        };
        self.pending_count -= 1;
        if let Some(last) = self.window.last() {
            if t < last.t_respond {
                self.dirty = true;
            }
        }
        let op = TimedOp {
            pid,
            instance: OpInstance { op: slot.op, arg: slot.arg, ret },
            t_invoke: slot.t_invoke,
            t_respond: t,
        };
        if let Shape::Matched { prod, cons } = self.shape {
            self.open.add(matched_effect(self.seeded.as_ref(), prod, cons, &op));
        }
        self.window.push(op);
        self.stats.ops += 1;
        // The op moved from pending to the window: residency is unchanged.
        if let Some(m) = &self.metrics {
            m.window_peak.set_max(self.window.len() as i64);
        }
        &self.verdict
    }

    /// Feed a raw [`TraceEvent`] from the lintime-obs stream. Only the
    /// engine's `OpInvoke`/`OpRespond` events are meaningful; anything else
    /// is ignored. An unparseable operation event degrades the verdict to
    /// [`UnknownReason::MalformedStream`] — honest, since the stream can no
    /// longer be fully accounted for.
    pub fn feed_trace_event(&mut self, ev: &TraceEvent) -> &StreamVerdict {
        use lintime_obs::EventCategory;
        match ev.category {
            EventCategory::OpInvoke => {
                let Some(pid) = ev.pid else { return self.malformed() };
                match parse_invoke_detail(self.seeded.as_ref(), &ev.detail) {
                    Some((op, arg)) => self.feed_invoke(Pid(pid), Time(ev.sim_time), op, arg),
                    None => self.malformed(),
                }
            }
            EventCategory::OpRespond => {
                let Some(pid) = ev.pid else { return self.malformed() };
                match parse_respond_detail(&ev.detail) {
                    Some(ret) => self.feed_respond(Pid(pid), Time(ev.sim_time), ret),
                    None => self.malformed(),
                }
            }
            _ => &self.verdict,
        }
    }

    /// Final verdict: applies every window still in flight, then decides
    /// whatever remains in the window, including still-pending invocations
    /// (through the pending-aware offline checker, which enumerates
    /// Herlihy–Wing completions). A panic raised while deciding a window is
    /// re-raised here at the latest.
    pub fn finish(mut self) -> (StreamVerdict, StreamStats) {
        self.settle();
        if self.dead {
            return (self.verdict, self.stats);
        }
        self.sort_window();
        if self.pending_count == 0 {
            if !self.window.is_empty() {
                let residue = History { ops: std::mem::take(&mut self.window) };
                let decided = self.stage().decide(residue);
                self.apply(decided, false);
            }
        } else {
            let pending: Vec<PendingOp> = self
                .pending
                .iter()
                .enumerate()
                .filter_map(|(pid, slot)| {
                    slot.as_ref().map(|s| PendingOp {
                        pid: Pid(pid),
                        invocation: Invocation { op: s.op, arg: s.arg.clone() },
                        t_invoke: s.t_invoke,
                        may_have_effect: true,
                    })
                })
                .collect();
            let ph = PendingHistory {
                complete: History { ops: std::mem::take(&mut self.window) },
                pending,
                horizon: self.max_t.max(Time(0)),
                malformed: 0,
            };
            // An offline re-check of the live residue: count it like any
            // other escalation.
            self.stats.fallbacks += 1;
            if let Some(m) = &self.metrics {
                m.fallbacks.inc();
            }
            match monitor::check_fast_pending_with(&self.seeded, &ph, self.cfg.check, &Obs::off()) {
                Verdict::Linearizable(_) => {}
                Verdict::NotLinearizable => {
                    self.verdict =
                        StreamVerdict::Violation(ViolationEvidence { window: ph.complete });
                }
                Verdict::Unknown => {
                    self.verdict = StreamVerdict::Unknown(UnknownReason::FallbackBudget);
                }
            }
        }
        (self.verdict, self.stats)
    }

    fn count_event(&mut self, t: Time) {
        self.stats.events += 1;
        if let Some(m) = &self.metrics {
            m.events.inc();
        }
        if t < self.max_t && !self.dead {
            // Regressing event times void the settled-prefix argument; stop
            // garbage-collecting but keep checking (decided at finish).
            self.non_monotone = true;
        }
        self.max_t = self.max_t.max(t);
    }

    fn note_resident(&mut self) {
        let resident = self.resident_ops();
        self.stats.peak_resident = self.stats.peak_resident.max(resident);
        if let Some(m) = &self.metrics {
            m.window_peak.set_max(self.window.len() as i64);
            m.pending_peak.set_max(self.pending_count as i64);
        }
        if resident > self.cfg.max_resident && !self.dead {
            // A refutation still in flight takes precedence.
            self.settle();
            if self.dead {
                return;
            }
            self.stats.window_overflows += 1;
            if let Some(m) = &self.metrics {
                m.window_overflow.inc();
            }
            self.degrade(UnknownReason::WindowOverflow);
        }
    }

    fn malformed(&mut self) -> &StreamVerdict {
        // A refutation still in flight takes precedence: the stream ended
        // before this event, which is then not counted.
        let was_dead = self.dead;
        self.settle();
        if self.dead && !was_dead {
            return &self.verdict;
        }
        self.stats.malformed += 1;
        if let Some(m) = &self.metrics {
            m.malformed.inc();
        }
        self.degrade(UnknownReason::MalformedStream);
        &self.verdict
    }

    fn degrade(&mut self, reason: UnknownReason) {
        if !self.dead {
            self.verdict = StreamVerdict::Unknown(reason);
            self.die();
        }
    }

    /// Drop all tracked state: the verdict is final, memory goes flat.
    /// Shutting the decider down loses nothing: a window still in flight
    /// here was queued behind the one that failed, and skipped.
    fn die(&mut self) {
        self.dead = true;
        self.window = Vec::new();
        self.open = OpenValues::default();
        self.pending = Vec::new();
        self.pending_count = 0;
        self.decider = None;
        self.in_flight = 0;
    }

    fn sort_window(&mut self) {
        if self.dirty {
            self.window.sort_by_key(|op| op.t_respond);
            self.dirty = false;
        }
    }

    /// Attempt to settle a prefix of the window and hand it off.
    fn maybe_flush(&mut self) {
        if self.dead || self.non_monotone {
            return;
        }
        self.sort_window();
        // Largest k such that every op in `window[..k]` responds before every
        // later invocation — pending ops, completed ops after the cut
        // (respond-sorted order does not bound suffix *invoke* times, so walk
        // a suffix-minimum of invokes from the right), and ops not yet
        // invoked: those can still arrive at the latest instant seen, since
        // the engine emits a same-instant response before an invocation.
        let mut suffix_min_invoke =
            self.min_pending_invoke().map_or(self.max_t, |t| t.min(self.max_t));
        let mut k = self.window.len();
        while k > 0 {
            let op = &self.window[k - 1];
            if op.t_respond < suffix_min_invoke {
                break;
            }
            suffix_min_invoke = suffix_min_invoke.min(op.t_invoke);
            k -= 1;
        }
        if k < (self.cfg.flush_ops / 2).max(1) || !self.canonical_prefix(k) {
            // Too little settled, or the cut state is not yet unique: back
            // off multiplicatively so repeated failures stay amortized.
            self.next_flush = (self.window.len() * 3 / 2).max(self.window.len() + 1);
            return;
        }
        self.hand_off(k);
        self.next_flush = self.cfg.flush_ops;
    }

    fn min_pending_invoke(&self) -> Option<Time> {
        self.pending.iter().flatten().map(|s| s.t_invoke).min()
    }

    /// A deciding stage over the carried base.
    fn stage(&self) -> WindowDecider {
        WindowDecider {
            seeded: Arc::clone(&self.seeded),
            base: Arc::clone(&self.base),
            check: self.cfg.check,
            keep_witnesses: self.cfg.keep_witnesses,
            failed: false,
        }
    }

    /// Move the settled canonical prefix `window[..k]` to the decider, first
    /// applying the oldest result if [`DEPTH`] windows are in flight.
    fn hand_off(&mut self, k: usize) {
        while self.in_flight >= DEPTH {
            self.apply_next();
            if self.dead {
                return;
            }
        }
        let window = History { ops: self.window.drain(..k).collect() };
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.last_handed + k);
        self.last_handed = k;
        if let Some(m) = &self.metrics {
            m.in_flight_peak.set_max(self.stats.peak_in_flight as i64);
        }
        if self.decider.is_none() {
            self.decider = Some(Decider::spawn(self.stage()));
        }
        self.decider.as_ref().expect("spawned above").submit(window);
        self.in_flight += 1;
    }

    /// Wait for the oldest window in flight and apply its result.
    fn apply_next(&mut self) {
        let decided = self.decider.as_ref().expect("a window in flight").next();
        self.in_flight -= 1;
        self.apply(decided, true);
    }

    /// Apply every window still in flight.
    fn settle(&mut self) {
        while self.in_flight > 0 {
            self.apply_next();
        }
    }

    /// Apply one window's result on the feeding thread: count it, keep its
    /// audit record, or end the stream on refutation or budget exhaustion.
    /// A `retired` window was handed off at a canonical cut; the residue
    /// decided at [`finish`](StreamChecker::finish) is not.
    fn apply(&mut self, decided: Decided, retired: bool) {
        if decided.searched {
            // Ambiguous window: it took the bounded offline Wing–Gong re-check.
            self.stats.fallbacks += 1;
            if let Some(m) = &self.metrics {
                m.fallbacks.inc();
            }
        }
        match decided.outcome {
            Outcome::Certified(kept) => {
                if retired {
                    self.stats.flushes += 1;
                    self.stats.gc_reclaimed += decided.ops as u64;
                    if let Some(m) = &self.metrics {
                        m.flushes.inc();
                        m.gc_reclaimed.add(decided.ops as u64);
                    }
                }
                self.certified.extend(kept);
            }
            Outcome::Refuted(window) => {
                self.verdict = StreamVerdict::Violation(ViolationEvidence { window });
                self.die();
            }
            Outcome::Budget => self.degrade(UnknownReason::FallbackBudget),
            Outcome::Skipped => {}
            Outcome::Panicked(payload) => panic::resume_unwind(payload),
        }
    }

    /// Is the state at the cut after `window[..k]` unique across all
    /// linearizations of the prefix? (Structural rules per [`Shape`]; a
    /// `false` only delays GC, never affects verdicts.)
    fn canonical_prefix(&self, k: usize) -> bool {
        let prefix = &self.window[..k];
        match self.shape {
            Shape::Counter => true,
            Shape::Opaque => false,
            Shape::Matched { prod, cons } => {
                // Closed prefix: every produced value consumed within it (the
                // structure is provably empty at the cut), nothing else
                // consumed, and no op the spec does not know. The prefix's
                // balance is the window's minus the unsettled suffix's, so
                // only the suffix is scanned: the prefix is closed iff the
                // suffix accounts for every open value exactly.
                let mut rest: HashMap<&Value, i64, FxBuildHasher> = HashMap::default();
                let mut unknown = self.open.unknown;
                for op in &self.window[k..] {
                    match matched_effect(self.seeded.as_ref(), prod, cons, op) {
                        Effect::Count(v, d) => *rest.entry(v).or_insert(0) += d,
                        Effect::Neutral => {}
                        Effect::Unknown => unknown -= 1,
                    }
                }
                unknown == 0
                    && rest.values().filter(|&&c| c != 0).count() == self.open.count.len()
                    && rest.iter().all(|(v, &c)| self.open.count.get(*v).copied().unwrap_or(0) == c)
            }
            Shape::Register => strict_last_write(prefix.iter().filter_map(|op| {
                match op.instance.op {
                    "write" => Some((op, true)),
                    "read" => None,
                    // rmw/cas/unknown: state depends on order; treat as a
                    // non-write mutator.
                    _ => Some((op, false)),
                }
            })),
            Shape::Keyed => {
                let mut groups: HashMap<&Value, Vec<(&TimedOp, bool)>, FxBuildHasher> =
                    HashMap::default();
                for op in prefix {
                    match op.instance.op {
                        "add" | "remove" | "del" => {
                            groups.entry(&op.instance.arg).or_default().push((op, true));
                        }
                        "put" => match op.instance.arg.as_pair() {
                            Some((key, _)) => groups.entry(key).or_default().push((op, true)),
                            None => return false,
                        },
                        "contains" | "get" => {}
                        _ => return false, // unknown op: no structural claim
                    }
                }
                groups.into_values().all(|g| strict_last_write(g.into_iter()))
            }
        }
    }
}

/// The [`Effect`] of `op` on a matched-pair type with producer `prod` and
/// consumer `cons`.
fn matched_effect<'a>(
    spec: &dyn ObjectSpec,
    prod: &str,
    cons: &str,
    op: &'a TimedOp,
) -> Effect<'a> {
    let inst = &op.instance;
    if inst.op == prod {
        Effect::Count(&inst.arg, 1)
    } else if inst.op == cons && inst.ret != Value::Unit {
        Effect::Count(&inst.ret, -1)
    } else if inst.op == cons || spec.op_meta(inst.op).is_some() {
        Effect::Neutral
    } else {
        Effect::Unknown
    }
}

/// True iff the mutator set is empty or its last-invoked member is a plain
/// write (`is_write`) strictly after every other mutator in real time — then
/// every linearization ends with it and the final state is its written
/// value. One pass: the latest response among the mutators other than the
/// running last-invoked one. (A tie for last invoke is never strict.)
fn strict_last_write<'a>(mutators: impl Iterator<Item = (&'a TimedOp, bool)>) -> bool {
    let mut last: Option<(&TimedOp, bool)> = None;
    let mut others_respond = Time(i64::MIN);
    for (op, is_write) in mutators {
        match last {
            Some((l, _)) if op.t_invoke < l.t_invoke => {
                others_respond = others_respond.max(op.t_respond);
            }
            _ => {
                if let Some((l, _)) = last {
                    others_respond = others_respond.max(l.t_respond);
                }
                last = Some((op, is_write));
            }
        }
    }
    last.is_none_or(|(l, is_write)| is_write && others_respond < l.t_invoke)
}

/// Parse an engine `OpInvoke` detail (`op(arg)` with [`Value`]'s `Debug`
/// encoding) back into a static op name and argument. The name is resolved
/// through the spec's op table, which owns the `'static` strings.
fn parse_invoke_detail(spec: &dyn ObjectSpec, detail: &str) -> Option<(&'static str, Value)> {
    let open = detail.find('(')?;
    let name = &detail[..open];
    let inner = detail[open + 1..].strip_suffix(')')?;
    let op = spec.op_meta(name)?.name;
    let (arg, rest) = parse_value(inner)?;
    rest.is_empty().then_some((op, arg))
}

/// Parse an engine `OpRespond` detail (`op(arg) -> ret (latency ..)`) back
/// into the response value.
fn parse_respond_detail(detail: &str) -> Option<Value> {
    let lat = detail.rfind(" (latency ")?;
    let head = &detail[..lat];
    let arrow = head.rfind(" -> ")?;
    let (ret, rest) = parse_value(&head[arrow + 4..])?;
    rest.is_empty().then_some(ret)
}

/// Recursive-descent parser for [`Value`]'s `Debug` encoding: `-`, `true`,
/// integers, quoted strings, `(a, b)` pairs, `[a, b, ...]` lists. Returns
/// the value and the unconsumed remainder.
fn parse_value(s: &str) -> Option<(Value, &str)> {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix('(') {
        let (a, rest) = parse_value(rest)?;
        let rest = rest.trim_start().strip_prefix(',')?;
        let (b, rest) = parse_value(rest)?;
        let rest = rest.trim_start().strip_prefix(')')?;
        return Some((Value::pair(a, b), rest));
    }
    if let Some(mut rest) = s.strip_prefix('[') {
        let mut items = Vec::new();
        loop {
            let trimmed = rest.trim_start();
            if let Some(r) = trimmed.strip_prefix(']') {
                return Some((Value::list(items), r));
            }
            if !items.is_empty() {
                rest = trimmed.strip_prefix(',')?;
            } else {
                rest = trimmed;
            }
            let (v, r) = parse_value(rest)?;
            items.push(v);
            rest = r;
        }
    }
    if let Some(rest) = s.strip_prefix('"') {
        // Unescape the common cases of Rust's string Debug encoding.
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Some((Value::from(out), &rest[i + 1..])),
                '\\' => match chars.next()?.1 {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    other => out.push(other),
                },
                other => out.push(other),
            }
        }
        return None;
    }
    if let Some(rest) = s.strip_prefix("true") {
        return Some((Value::Bool(true), rest));
    }
    if let Some(rest) = s.strip_prefix("false") {
        return Some((Value::Bool(false), rest));
    }
    // `-` alone is Unit; `-5` is an Int.
    let end = s
        .char_indices()
        .take_while(|&(i, c)| c.is_ascii_digit() || (i == 0 && c == '-'))
        .map(|(i, c)| i + c.len_utf8())
        .last()?;
    let tok = &s[..end];
    if tok == "-" {
        return Some((Value::Unit, &s[1..]));
    }
    tok.parse::<i64>().ok().map(|n| (Value::Int(n), &s[end..]))
}

/// Replay a recorded [`Run`] through a [`StreamChecker`] in event-time
/// order: each operation contributes an invoke event and, if it responded, a
/// response event. Crashed/pending invocations are left pending and decided
/// by the finish-time completion search. A truncated run degrades to
/// [`UnknownReason::MalformedStream`] outright, mirroring
/// [`History::from_run`]'s refusal to certify partial records.
pub fn replay_run(
    spec: &Arc<dyn ObjectSpec>,
    run: &Run,
    cfg: StreamConfig,
    obs: &Obs,
) -> (StreamVerdict, StreamStats) {
    let mut checker = StreamChecker::observed(spec, cfg, obs);
    if run.truncated {
        return (StreamVerdict::Unknown(UnknownReason::MalformedStream), checker.stats.clone());
    }
    enum Ev<'a> {
        Invoke(&'a lintime_sim::run::OpRecord),
        Respond(&'a lintime_sim::run::OpRecord, Time, &'a Value),
    }
    let mut events: Vec<(Time, Ev<'_>)> = Vec::with_capacity(run.ops.len() * 2);
    for rec in &run.ops {
        events.push((rec.t_invoke, Ev::Invoke(rec)));
        if let (Some(t), Some(ret)) = (rec.t_respond, rec.ret.as_ref()) {
            events.push((t, Ev::Respond(rec, t, ret)));
        }
    }
    // Stable: an op's invoke precedes its response at equal times, and
    // already-ordered same-time events keep their recorded order.
    events.sort_by_key(|(t, _)| *t);
    for (_, ev) in events {
        match ev {
            Ev::Invoke(rec) => {
                checker.feed_invoke(
                    rec.pid,
                    rec.t_invoke,
                    rec.invocation.op,
                    rec.invocation.arg.clone(),
                );
            }
            Ev::Respond(rec, t, ret) => {
                checker.feed_respond(rec.pid, t, ret.clone());
            }
        }
    }
    checker.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::verify_witness;
    use lintime_adt::prelude::*;

    /// Feed a complete op as invoke+respond.
    fn op(
        c: &mut StreamChecker,
        pid: usize,
        op: &'static str,
        arg: impl Into<Value>,
        ret: impl Into<Value>,
        t0: i64,
        t1: i64,
    ) {
        c.feed_invoke(Pid(pid), Time(t0), op, arg.into());
        c.feed_respond(Pid(pid), Time(t1), ret.into());
    }

    #[test]
    fn queue_stream_certifies_and_garbage_collects() {
        let spec = erase(FifoQueue::new());
        let cfg = StreamConfig::default().with_flush_ops(4);
        let mut c = StreamChecker::with_config(&spec, cfg);
        // 64 rounds of enqueue/dequeue with two processes overlapping.
        let mut t = 0;
        for round in 0..64i64 {
            c.feed_invoke(Pid(0), Time(t), "enqueue", Value::Int(2 * round));
            c.feed_invoke(Pid(1), Time(t + 1), "enqueue", Value::Int(2 * round + 1));
            c.feed_respond(Pid(0), Time(t + 2), Value::Unit);
            c.feed_respond(Pid(1), Time(t + 3), Value::Unit);
            op(&mut c, 0, "dequeue", (), 2 * round, t + 4, t + 5);
            op(&mut c, 1, "dequeue", (), 2 * round + 1, t + 6, t + 7);
            t += 10;
        }
        assert!(c.verdict().is_ok());
        assert!(c.stats().flushes > 0, "expected settled flushes: {:?}", c.stats());
        assert!(c.stats().gc_reclaimed > 0);
        assert!(
            c.stats().peak_resident < 64,
            "memory must stay bounded, got {}",
            c.stats().peak_resident
        );
        let (verdict, stats) = c.finish();
        assert!(verdict.is_ok(), "got {verdict:?}");
        assert_eq!(stats.ops, 256);
    }

    #[test]
    fn violation_detected_after_earlier_windows_collected() {
        let spec = erase(FifoQueue::new());
        let cfg = StreamConfig::default().with_flush_ops(2);
        let mut c = StreamChecker::with_config(&spec, cfg);
        let mut t = 0;
        for round in 0..16i64 {
            op(&mut c, 0, "enqueue", round, (), t, t + 1);
            op(&mut c, 0, "dequeue", (), round, t + 2, t + 3);
            t += 10;
        }
        assert!(c.stats().gc_reclaimed > 0, "early windows must be retired");
        // FIFO violation entirely inside a later window.
        op(&mut c, 0, "enqueue", 100, (), t, t + 1);
        op(&mut c, 0, "enqueue", 101, (), t + 2, t + 3);
        op(&mut c, 0, "dequeue", (), 101, t + 4, t + 5);
        op(&mut c, 0, "dequeue", (), 100, t + 6, t + 7);
        let (verdict, _) = c.finish();
        assert!(verdict.is_violation(), "got {verdict:?}");
    }

    #[test]
    fn register_state_carries_across_flushes() {
        let spec = erase(Register::new(0));
        let cfg = StreamConfig::default().with_flush_ops(1);
        let mut c = StreamChecker::with_config(&spec, cfg);
        op(&mut c, 0, "write", 7, (), 0, 1);
        op(&mut c, 0, "read", (), 7, 10, 11);
        assert!(c.stats().gc_reclaimed > 0, "write window must settle");
        // A later read of the retired write's value is fine...
        op(&mut c, 1, "read", (), 7, 20, 21);
        assert!(c.verdict().is_ok());
        // ...but a read of a never-written value against the carried state
        // is a sound violation.
        op(&mut c, 1, "read", (), 3, 30, 31);
        let (verdict, _) = c.finish();
        assert!(verdict.is_violation(), "got {verdict:?}");
    }

    #[test]
    fn counter_sum_carries_across_flushes() {
        let spec = erase(lintime_adt::types::Counter::new());
        let cfg = StreamConfig::default().with_flush_ops(1);
        let mut c = StreamChecker::with_config(&spec, cfg);
        op(&mut c, 0, "add", 5, (), 0, 1);
        op(&mut c, 0, "read", (), 5, 10, 11);
        assert!(c.stats().gc_reclaimed > 0);
        // Below the carried sum: impossible (counters never decrease).
        op(&mut c, 1, "read", (), 4, 20, 21);
        let (verdict, _) = c.finish();
        assert!(verdict.is_violation(), "got {verdict:?}");
    }

    #[test]
    fn budget_exhausted_fallback_degrades_to_unknown_not_refutation() {
        // Duplicate enqueued values make the monitor defer; a one-node
        // budget starves the fallback. The stream must answer Unknown —
        // the history is actually legal, so a refutation would be false.
        let spec = erase(FifoQueue::new());
        let check = CheckConfig { max_nodes: 1 };
        let cfg = StreamConfig::default().with_flush_ops(1).with_check(check);
        let mut c = StreamChecker::with_config(&spec, cfg);
        op(&mut c, 0, "enqueue", 1, (), 0, 1);
        op(&mut c, 0, "enqueue", 1, (), 2, 3);
        op(&mut c, 0, "dequeue", (), 1, 4, 5);
        op(&mut c, 0, "dequeue", (), 1, 6, 7);
        let (verdict, stats) = c.finish();
        assert!(
            matches!(verdict, StreamVerdict::Unknown(UnknownReason::FallbackBudget)),
            "got {verdict:?}"
        );
        assert!(stats.fallbacks >= 1, "escalation must be counted: {stats:?}");
    }

    #[test]
    fn malformed_stream_degrades() {
        let spec = erase(Register::new(0));
        let mut c = StreamChecker::new(&spec);
        // Response with no pending invocation.
        c.feed_respond(Pid(0), Time(5), Value::Unit);
        let (verdict, stats) = c.finish();
        assert!(matches!(verdict, StreamVerdict::Unknown(UnknownReason::MalformedStream)));
        assert_eq!(stats.malformed, 1);
        // A stray response at the instant a read returning 1 responded: a
        // write invoked at that instant could still explain the read, so
        // the read is not settled (and refuted) before the stream degrades.
        let mut c = StreamChecker::with_config(&spec, StreamConfig::default().with_flush_ops(1));
        op(&mut c, 0, "read", (), 1, 0, 5);
        c.feed_respond(Pid(1), Time(5), Value::Unit);
        let (verdict, _) = c.finish();
        assert!(
            matches!(verdict, StreamVerdict::Unknown(UnknownReason::MalformedStream)),
            "{verdict:?}"
        );
    }

    #[test]
    fn window_overflow_degrades_flat() {
        // A stack stream that never empties can never flush; the resident
        // bound must kick in instead of growing without limit.
        let spec = erase(Stack::new());
        let cfg = StreamConfig::default().with_flush_ops(4).with_max_resident(32);
        let mut c = StreamChecker::with_config(&spec, cfg);
        for i in 0..100i64 {
            op(&mut c, 0, "push", i, (), 10 * i, 10 * i + 1);
        }
        let (verdict, stats) = c.finish();
        assert!(matches!(verdict, StreamVerdict::Unknown(UnknownReason::WindowOverflow)));
        assert!(stats.peak_resident <= 33, "resident {} exceeds bound", stats.peak_resident);
        assert_eq!(stats.window_overflows, 1);
    }

    #[test]
    fn pending_ops_at_finish_use_completion_search() {
        let spec = erase(Register::new(0));
        let mut c = StreamChecker::new(&spec);
        // write(5) never responds; a read sees 5. Including the pending
        // write explains the read, so the stream is (completion-)ok.
        c.feed_invoke(Pid(0), Time(0), "write", Value::Int(5));
        op(&mut c, 1, "read", (), 5, 10, 20);
        let (verdict, _) = c.finish();
        assert!(verdict.is_ok(), "got {verdict:?}");
    }

    #[test]
    fn priority_queue_streams_like_the_other_matched_types() {
        let spec = erase(PriorityQueue::new());
        let cfg = StreamConfig::default().with_flush_ops(2);
        let mut c = StreamChecker::with_config(&spec, cfg);
        let mut t = 0;
        for round in 0..16i64 {
            op(&mut c, 0, "insert", 2 * round + 1, (), t, t + 1);
            op(&mut c, 1, "insert", 2 * round, (), t + 2, t + 3);
            op(&mut c, 0, "extract_min", (), 2 * round, t + 4, t + 5);
            op(&mut c, 1, "extract_min", (), 2 * round + 1, t + 6, t + 7);
            t += 10;
        }
        assert!(c.verdict().is_ok());
        assert!(c.stats().gc_reclaimed > 0);
        // Priority inversion in a fresh window.
        op(&mut c, 0, "insert", 500, (), t, t + 1);
        op(&mut c, 0, "insert", 400, (), t + 2, t + 3);
        op(&mut c, 0, "extract_min", (), 500, t + 4, t + 5);
        op(&mut c, 0, "extract_min", (), 400, t + 6, t + 7);
        let (verdict, _) = c.finish();
        assert!(verdict.is_violation(), "got {verdict:?}");
    }

    #[test]
    fn witnesses_are_kept_and_replay_when_requested() {
        let spec = erase(FifoQueue::new());
        let cfg = StreamConfig::default().with_flush_ops(1).keeping_witnesses();
        let mut c = StreamChecker::with_config(&spec, cfg);
        let mut t = 0;
        for round in 0..8i64 {
            op(&mut c, 0, "enqueue", round, (), t, t + 1);
            op(&mut c, 0, "dequeue", (), round, t + 2, t + 3);
            t += 10;
        }
        assert!(!c.certified().is_empty());
        for cw in c.certified() {
            assert!(
                verify_witness(&cw.spec, &cw.window, &cw.order),
                "certified window's witness must replay"
            );
        }
    }

    #[test]
    fn trace_event_adapter_round_trips_engine_format() {
        use lintime_obs::EventCategory;
        let spec = erase(FifoQueue::new());
        let mut c = StreamChecker::new(&spec);
        let ev = |t: i64, pid: usize, category, detail: String| TraceEvent {
            sim_time: t,
            wall_micros: 0,
            pid: Some(pid),
            category,
            detail,
        };
        // Exactly the engine's formats: `{inv:?}` and `{inv:?} -> {ret:?}
        // (latency ..)`.
        let inv = Invocation::new("enqueue", 3);
        c.feed_trace_event(&ev(0, 0, EventCategory::OpInvoke, format!("{inv:?}")));
        c.feed_trace_event(&ev(
            1,
            0,
            EventCategory::OpRespond,
            format!("{inv:?} -> {:?} (latency 1)", Value::Unit),
        ));
        let deq = Invocation::new("dequeue", ());
        c.feed_trace_event(&ev(2, 0, EventCategory::OpInvoke, format!("{deq:?}")));
        c.feed_trace_event(&ev(
            3,
            0,
            EventCategory::OpRespond,
            format!("{deq:?} -> {:?} (latency 1)", Value::Int(3)),
        ));
        // Unrelated categories are ignored.
        c.feed_trace_event(&ev(4, 0, EventCategory::Send, "noise".to_string()));
        let (verdict, stats) = c.finish();
        assert!(verdict.is_ok(), "got {verdict:?}");
        assert_eq!(stats.ops, 2);
    }

    #[test]
    fn value_debug_parser_round_trips() {
        for v in [
            Value::Unit,
            Value::Bool(true),
            Value::Int(-42),
            Value::Int(7),
            Value::from("a b"),
            Value::pair(1, Value::pair(2, 3)),
            Value::list([Value::Int(1), Value::Unit, Value::pair(4, 5)]),
            Value::list([]),
        ] {
            let s = format!("{v:?}");
            let (parsed, rest) = parse_value(&s).unwrap_or_else(|| panic!("parse {s:?}"));
            assert_eq!(parsed, v, "round-trip {s:?}");
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn kv_store_per_key_state_carries() {
        let spec = erase(KvStore::new());
        let cfg = StreamConfig::default().with_flush_ops(1);
        let mut c = StreamChecker::with_config(&spec, cfg);
        op(&mut c, 0, "put", Value::pair(1, 10), (), 0, 1);
        op(&mut c, 0, "put", Value::pair(2, 20), (), 10, 11);
        op(&mut c, 0, "get", 1, 10, 20, 21);
        assert!(c.stats().gc_reclaimed > 0);
        // get(2) must see the carried 20, not a fresh store.
        op(&mut c, 1, "get", 2, 99, 30, 31);
        let (verdict, _) = c.finish();
        assert!(verdict.is_violation(), "got {verdict:?}");
    }

    /// Regression: a completed accessor whose *invoke* precedes an earlier
    /// op's respond must not be separated from it by the settled cut. Here
    /// `contains(0) -> false` overlaps `add(0)` (so it may linearize first),
    /// but it responds later and sits after the add in respond order — a cut
    /// based only on pending invokes would retire the add alone and falsely
    /// refute the stream.
    #[test]
    fn settled_cut_respects_overlapping_completed_ops() {
        let spec = erase(GrowSet::new());
        let cfg = StreamConfig::default().with_flush_ops(2);
        let mut c = StreamChecker::with_config(&spec, cfg);
        c.feed_invoke(Pid(0), Time(-5), "add", Value::Int(0));
        c.feed_invoke(Pid(1), Time(0), "contains", Value::Int(0));
        c.feed_respond(Pid(0), Time(3), Value::Unit);
        c.feed_invoke(Pid(2), Time(7), "remove", Value::Int(1));
        c.feed_respond(Pid(1), Time(9), Value::Bool(false));
        c.feed_respond(Pid(2), Time(13), Value::Unit);
        op(&mut c, 0, "contains", 0, true, 14, 15);
        let (verdict, _) = c.finish();
        assert!(verdict.is_ok(), "got {verdict:?}");
    }

    /// An increment responds at 5, the instant a read returning 0 is
    /// invoked: touching intervals are concurrent, so the read linearizes
    /// first. Fed with the response first, as the engine emits same-instant
    /// events, the increment must not be settled before the read arrives.
    #[test]
    fn a_response_at_the_latest_instant_waits_for_a_touching_invocation() {
        let spec = erase(lintime_adt::types::Counter::new());
        for flush in [1, 2] {
            for response_first in [true, false] {
                let mut c = StreamChecker::with_config(
                    &spec,
                    StreamConfig::default().with_flush_ops(flush),
                );
                c.feed_invoke(Pid(0), Time(0), "increment", Value::Unit);
                if response_first {
                    c.feed_respond(Pid(0), Time(5), Value::Unit);
                    c.feed_invoke(Pid(1), Time(5), "read", Value::Unit);
                } else {
                    c.feed_invoke(Pid(1), Time(5), "read", Value::Unit);
                    c.feed_respond(Pid(0), Time(5), Value::Unit);
                }
                c.feed_respond(Pid(1), Time(6), Value::Int(0));
                let (verdict, _) = c.finish();
                assert!(
                    verdict.is_ok(),
                    "flush {flush}, response first {response_first}: {verdict:?}"
                );
            }
        }
    }

    impl StreamChecker {
        /// Every window in flight applied: the internal fields then read as
        /// those of a checker that decides each window at its cut.
        fn settled(&mut self) -> &StreamChecker {
            self.settle();
            self
        }

        /// Whether a decider thread is running.
        fn decider_spawned(&self) -> bool {
            self.decider.is_some()
        }

        /// The closed-prefix rule of a matched-pair type as a full rescan of
        /// `window[..k]`: the oracle for the running balance that
        /// [`StreamChecker::canonical_prefix`] keeps.
        fn closed_prefix_rescan(&self, k: usize) -> bool {
            let Shape::Matched { prod, cons } = self.shape else {
                panic!("only matched-pair types have a closed-prefix rule");
            };
            let mut open: HashMap<&Value, i64> = HashMap::new();
            for op in &self.window[..k] {
                if op.instance.op == prod {
                    *open.entry(&op.instance.arg).or_insert(0) += 1;
                } else if op.instance.op == cons {
                    if op.instance.ret != Value::Unit {
                        *open.entry(&op.instance.ret).or_insert(0) -= 1;
                    }
                } else if self.seeded.op_meta(op.instance.op).is_none() {
                    return false;
                }
            }
            open.values().all(|&c| c == 0)
        }
    }

    /// Seeded queue/stack/priority-queue streams with duplicate values,
    /// consumers that find the structure empty (`Unit`), ops the spec does
    /// not know and out-of-order responses: after every event, at every cut
    /// of the window, the incremental closed-prefix test must equal the full
    /// rescan. Flushes retire prefixes in between, so the running balance is
    /// checked across retirements too.
    #[test]
    fn incremental_closed_prefix_matches_the_full_rescan() {
        use lintime_sim::rng::SplitMix64;
        const PROCS: usize = 3;
        let kinds: [(Arc<dyn ObjectSpec>, &'static str, &'static str, &'static str); 3] = [
            (erase(FifoQueue::new()), "enqueue", "dequeue", "peek"),
            (erase(Stack::new()), "push", "pop", "peek"),
            (erase(PriorityQueue::new()), "insert", "extract_min", "min"),
        ];
        let (mut cuts, mut closed, mut flushes) = (0u64, 0u64, 0u64);
        for (spec, prod, cons, peek) in &kinds {
            for seed in 0..24u64 {
                let mut rng = SplitMix64::seed_from_u64(seed);
                let cfg = StreamConfig::default().with_flush_ops(rng.gen_range(1usize..12));
                let mut c = StreamChecker::with_config(spec, cfg);
                // Ops linearize at their response, so returns are legal and
                // the checker keeps flushing.
                let mut model = spec.new_object();
                let mut busy: Vec<Option<(&'static str, Value, i64)>> = vec![None; PROCS];
                let unknown_ops = seed % 3 == 0;
                let mut skew_from = (seed % 4 == 0).then(|| rng.gen_range(50usize..250));
                let mut t = 0i64;
                for step in 0..300usize {
                    let pid = rng.gen_range(0..PROCS);
                    t += rng.gen_range(0i64..3);
                    match busy[pid].take() {
                        None => {
                            let (op, arg) = match rng.gen_range(0u32..8) {
                                0..=2 => (*prod, Value::Int(rng.gen_range(0i64..3))),
                                6 => (*peek, Value::Unit),
                                7 if unknown_ops => ("frobnicate", Value::Unit),
                                _ => (*cons, Value::Unit),
                            };
                            c.feed_invoke(Pid(pid), Time(t), op, arg.clone());
                            busy[pid] = Some((op, arg, t));
                        }
                        Some((op, arg, t_invoke)) => {
                            let ret = if op == "frobnicate" {
                                Value::Unit
                            } else {
                                model.apply(op, &arg)
                            };
                            let at = match skew_from {
                                Some(s) if step >= s => {
                                    skew_from = None;
                                    (t - 5).max(t_invoke)
                                }
                                _ => t,
                            };
                            c.feed_respond(Pid(pid), Time(at), ret);
                        }
                    }
                    if c.settled().dead {
                        break;
                    }
                    // Every cut of a short window; about 8 spread over a
                    // long one, always including the last one.
                    let len = c.window.len();
                    for k in (0..len).step_by(1 + len / 8).chain([len]) {
                        let rescan = c.closed_prefix_rescan(k);
                        assert_eq!(
                            c.canonical_prefix(k),
                            rescan,
                            "{} seed {seed} step {step} cut {k} of {}",
                            spec.name(),
                            c.window.len()
                        );
                        cuts += 1;
                        closed += rescan as u64;
                    }
                }
                flushes += c.settled().stats.flushes;
            }
        }
        assert!(flushes > 100, "prefixes must be retired between checks: {flushes}");
        assert!(closed > 0 && closed < cuts, "{closed} closed of {cuts} cuts");
    }

    /// A legal stream for `spec` of about `ops` operations: three processes,
    /// each op taking effect in the model when it responds. `pick` chooses
    /// the next invocation from the rng and a fresh, never-used integer.
    fn legal_stream(
        spec: &Arc<dyn ObjectSpec>,
        ops: usize,
        seed: u64,
        pick: fn(&mut lintime_sim::rng::SplitMix64, i64) -> (&'static str, Value),
    ) -> Vec<OpEvent> {
        let mut rng = lintime_sim::rng::SplitMix64::seed_from_u64(seed);
        let mut model = spec.new_object();
        let mut busy: Vec<Option<(&'static str, Value)>> = vec![None; 3];
        let (mut events, mut t, mut fresh) = (Vec::new(), 0i64, 1i64);
        while events.len() < 2 * ops {
            let pid = rng.gen_range(0..busy.len());
            t += rng.gen_range(0i64..3);
            match busy[pid].take() {
                None => {
                    let (op, arg) = pick(&mut rng, fresh);
                    fresh += 1;
                    events.push(OpEvent::Invoke {
                        pid: Pid(pid),
                        t: Time(t),
                        op,
                        arg: arg.clone(),
                    });
                    busy[pid] = Some((op, arg));
                }
                Some((op, arg)) => {
                    let ret = model.apply(op, &arg);
                    events.push(OpEvent::Respond { pid: Pid(pid), t: Time(t), ret });
                }
            }
        }
        events
    }

    /// The certified base is the state the decision's own work ended in,
    /// not a second replay of the witness. Over queue, stack, priority-queue,
    /// register and kv streams, with unique values (monitor witnesses) and
    /// with duplicates (Wing–Gong witnesses), at two flush sizes: after each
    /// certified window the base equals a fresh replay of that window's
    /// witness from the window's snapshot, and a checker whose base is
    /// overwritten by that replay reaches the same verdicts and statistics.
    #[test]
    fn certified_base_is_the_replayed_witness_state() {
        type Pick = fn(&mut lintime_sim::rng::SplitMix64, i64) -> (&'static str, Value);
        // Consumers outnumber producers, so the structures stay short and
        // empty often: closed cuts for the matched types, small searches.
        let kinds: [(Arc<dyn ObjectSpec>, Pick, Pick); 5] = [
            (
                erase(FifoQueue::new()),
                |rng, v| match rng.gen_range(0..5) {
                    0 | 1 => ("enqueue", v.into()),
                    _ => ("dequeue", Value::Unit),
                },
                |rng, _| match rng.gen_range(0..5) {
                    0 | 1 => ("enqueue", rng.gen_range(0i64..4).into()),
                    _ => ("dequeue", Value::Unit),
                },
            ),
            (
                erase(Stack::new()),
                |rng, v| match rng.gen_range(0..5) {
                    0 | 1 => ("push", v.into()),
                    _ => ("pop", Value::Unit),
                },
                |rng, _| match rng.gen_range(0..5) {
                    0 | 1 => ("push", rng.gen_range(0i64..4).into()),
                    _ => ("pop", Value::Unit),
                },
            ),
            (
                erase(PriorityQueue::new()),
                |rng, v| match rng.gen_range(0..5) {
                    0 | 1 => ("insert", v.into()),
                    _ => ("extract_min", Value::Unit),
                },
                |rng, _| match rng.gen_range(0..5) {
                    0 | 1 => ("insert", rng.gen_range(0i64..4).into()),
                    _ => ("extract_min", Value::Unit),
                },
            ),
            (
                erase(Register::new(0)),
                |rng, v| match rng.gen_range(0..3) {
                    0 => ("write", v.into()),
                    _ => ("read", Value::Unit),
                },
                |rng, _| match rng.gen_range(0..3) {
                    0 => ("write", rng.gen_range(1i64..3).into()),
                    _ => ("read", Value::Unit),
                },
            ),
            (
                erase(KvStore::new()),
                |rng, v| match rng.gen_range(0..4) {
                    0 => ("put", Value::pair(rng.gen_range(0i64..3), v)),
                    1 => ("del", rng.gen_range(0i64..3).into()),
                    _ => ("get", rng.gen_range(0i64..3).into()),
                },
                |rng, _| match rng.gen_range(0..4) {
                    0 => ("put", Value::pair(rng.gen_range(0i64..3), rng.gen_range(0i64..2))),
                    1 => ("del", rng.gen_range(0i64..3).into()),
                    _ => ("get", rng.gen_range(0i64..3).into()),
                },
            ),
        ];
        let replay = |cw: &CertifiedWindow| {
            let mut obj = cw.spec.new_object();
            for &i in &cw.order {
                obj.apply(cw.window.ops[i].instance.op, &cw.window.ops[i].instance.arg);
            }
            obj
        };
        let base = |c: &mut StreamChecker| c.settled().base.lock().unwrap().canonical();
        let (mut flushes, mut searched) = (0u64, 0u64);
        for (spec, unique, duplicates) in &kinds {
            for seed in 0..4u64 {
                let pick = if seed % 2 == 0 { *unique } else { *duplicates };
                let events = legal_stream(spec, 4_000, seed, pick);
                for flush in [64, 1024] {
                    let cfg = StreamConfig::default().with_flush_ops(flush).keeping_witnesses();
                    let mut adopting = StreamChecker::with_config(spec, cfg.clone());
                    let mut replaying = StreamChecker::with_config(spec, cfg);
                    let label = format!("{} seed {seed} flush {flush}", spec.name());
                    for ev in &events {
                        let flushes = adopting.settled().stats.flushes;
                        adopting.feed(ev);
                        replaying.feed(ev);
                        let adopted = adopting.settled();
                        if adopted.stats.flushes > flushes {
                            // A window was just certified: the base is where
                            // its witness leaves the window's snapshot.
                            let cw = adopted.certified.last().expect("kept");
                            let state = adopted.base.lock().unwrap().canonical();
                            assert_eq!(state, replay(cw).canonical(), "{label}");
                        }
                        let replayed = replaying.settled();
                        if replayed.stats.flushes > flushes {
                            let cw = replayed.certified.last().expect("kept");
                            *replayed.base.lock().unwrap() = replay(cw);
                        }
                        assert_eq!(base(&mut adopting), base(&mut replaying), "{label}");
                    }
                    let (v1, s1) = adopting.finish();
                    let (v2, s2) = replaying.finish();
                    assert!(v1.is_ok(), "{label}: {v1:?}");
                    assert_eq!(format!("{v1:?}"), format!("{v2:?}"), "{label}");
                    assert_eq!(format!("{s1:?}"), format!("{s2:?}"), "{label}");
                    flushes += s1.flushes;
                    searched += s1.fallbacks;
                }
            }
        }
        // Fewer searches than flushes: some flushed windows were certified
        // by a monitor witness.
        assert!(searched > 0 && searched < flushes, "{searched} searched, {flushes} flushes");
    }

    /// `StreamChecker::observed` mirrors its statistics into `check.stream.*`
    /// counters and gauges; the registry view and [`StreamStats`] must agree.
    #[test]
    fn observed_checker_mirrors_stats_into_metrics() {
        use lintime_obs::{Obs, Registry, TraceHandle};
        let obs = Obs::new(TraceHandle::null(), Registry::new());
        let spec = erase(FifoQueue::new());
        let cfg = StreamConfig::default().with_flush_ops(2);
        let mut c = StreamChecker::observed(&spec, cfg, &obs);
        for round in 0..32i64 {
            let t = 4 * round;
            op(&mut c, 0, "enqueue", round, (), t, t + 1);
            op(&mut c, 0, "dequeue", (), round, t + 2, t + 3);
        }
        let (verdict, stats) = c.finish();
        assert!(verdict.is_ok(), "got {verdict:?}");
        let m = &obs.metrics;
        assert_eq!(m.counter("check.stream.events").get(), stats.events);
        assert_eq!(m.counter("check.stream.flushes").get(), stats.flushes);
        assert_eq!(m.counter("check.stream.gc_reclaimed").get(), stats.gc_reclaimed);
        assert_eq!(m.counter("check.stream.fallbacks").get(), stats.fallbacks);
        assert_eq!(m.counter("check.stream.window_overflow").get(), stats.window_overflows);
        assert_eq!(m.counter("check.stream.malformed").get(), stats.malformed);
        assert!(stats.flushes > 0 && stats.gc_reclaimed > 0, "stats: {stats:?}");
        let window_peak = m.gauge("check.stream.window_peak").get();
        assert!(window_peak >= 1 && window_peak as usize <= stats.peak_resident);
        assert!(m.gauge("check.stream.pending_peak").get() >= 1);
        let in_flight = m.gauge("check.stream.in_flight_peak").get();
        assert_eq!(in_flight as usize, stats.peak_in_flight);
        assert!(stats.peak_in_flight >= 2, "stats: {stats:?}");
    }

    /// Enqueue/dequeue rounds of one process from time `t`, four events per
    /// round; returns the time after the last one.
    fn legal_rounds(c: &mut StreamChecker, rounds: std::ops::Range<i64>, mut t: i64) -> i64 {
        for round in rounds {
            op(c, 0, "enqueue", round, (), t, t + 1);
            op(c, 0, "dequeue", (), round, t + 2, t + 3);
            t += 4;
        }
        t
    }

    /// Feed a closed FIFO-violating window of four ops from time `t` (with
    /// a flush window of four it is handed off at its last response) and
    /// return its ops.
    fn fifo_violation(c: &mut StreamChecker, t: i64) -> Vec<TimedOp> {
        let window: Vec<TimedOp> = [
            OpInstance::new("enqueue", 100, ()),
            OpInstance::new("enqueue", 101, ()),
            OpInstance::new("dequeue", (), 101),
            OpInstance::new("dequeue", (), 100),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, instance)| TimedOp {
            pid: Pid(0),
            instance,
            t_invoke: Time(t + 2 * i as i64),
            t_respond: Time(t + 2 * i as i64 + 1),
        })
        .collect();
        for o in &window {
            c.feed_invoke(o.pid, o.t_invoke, o.instance.op, o.instance.arg.clone());
            c.feed_respond(o.pid, o.t_respond, o.instance.ret.clone());
        }
        window
    }

    /// A window refuted on the decider, still in flight when the feeding
    /// side degrades, wins: a malformed event or a window overflow right
    /// after its hand-off ends the stream in `Violation` with that window as
    /// evidence, as when windows were decided at their cut, and the
    /// degradation is not counted.
    #[test]
    fn refutation_in_flight_precedes_a_later_degradation() {
        let spec = erase(FifoQueue::new());
        for overflow in [false, true] {
            let cfg = StreamConfig::default().with_flush_ops(4).with_max_resident(8);
            let mut c = StreamChecker::with_config(&spec, cfg);
            let t = legal_rounds(&mut c, 0..6, 0);
            let refuted = fifo_violation(&mut c, t);
            assert_eq!(c.in_flight, DEPTH, "the refuted window must be in flight");
            if overflow {
                // Never-consumed values: no canonical cut, the window grows.
                for i in 0..9 {
                    op(&mut c, 1, "enqueue", 200 + i, (), t + 10 + 2 * i, t + 11 + 2 * i);
                }
            } else {
                c.feed_respond(Pid(3), Time(t + 10), Value::Unit);
            }
            let (verdict, stats) = c.finish();
            let StreamVerdict::Violation(evidence) = verdict else {
                panic!("overflow {overflow}: got {verdict:?}");
            };
            assert_eq!(evidence.window.ops, refuted, "overflow {overflow}");
            let counts = (stats.window_overflows, stats.malformed, stats.flushes);
            assert_eq!(counts, (0, 0, 3), "{stats:?}");
        }
    }

    /// A register whose objects panic when they are applied on the decider
    /// thread.
    struct DeciderBomb(Arc<dyn ObjectSpec>);

    struct BombState(Box<dyn ObjState>);

    impl BombState {
        fn arm() {
            if thread::current().name() == Some(DECIDER_THREAD) {
                panic!("injected decider panic");
            }
        }
    }

    impl ObjState for BombState {
        fn apply(&mut self, op: &'static str, arg: &Value) -> Value {
            BombState::arm();
            self.0.apply(op, arg)
        }

        fn apply_if(&mut self, op: &'static str, arg: &Value, expected: &Value) -> bool {
            BombState::arm();
            self.0.apply_if(op, arg, expected)
        }

        fn clone_box(&self) -> Box<dyn ObjState> {
            Box::new(BombState(self.0.clone_box()))
        }

        fn canonical(&self) -> Value {
            self.0.canonical()
        }
    }

    impl ObjectSpec for DeciderBomb {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn kind(&self) -> SpecKind {
            self.0.kind()
        }

        fn ops(&self) -> &[OpMeta] {
            self.0.ops()
        }

        fn op_meta(&self, op: &str) -> Option<&OpMeta> {
            self.0.op_meta(op)
        }

        fn new_object(&self) -> Box<dyn ObjState> {
            Box::new(BombState(self.0.new_object()))
        }

        fn suggested_args(&self, op: &'static str) -> Vec<Value> {
            self.0.suggested_args(op)
        }
    }

    #[test]
    #[should_panic(expected = "injected decider panic")]
    fn a_panic_on_the_decider_is_raised_by_finish() {
        let spec: Arc<dyn ObjectSpec> = Arc::new(DeciderBomb(erase(Register::new(0))));
        let cfg = StreamConfig::default().with_flush_ops(1);
        let mut c = StreamChecker::with_config(&spec, cfg);
        op(&mut c, 0, "write", 7, (), 0, 1);
        // A later response closes the write's cut.
        op(&mut c, 1, "read", (), 7, 2, 3);
        assert!(c.decider_spawned());
        c.finish();
    }

    /// Dropping a checker with two windows in flight closes the decider's
    /// channel and joins it.
    #[test]
    fn dropping_with_windows_in_flight_returns() {
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let spec = erase(FifoQueue::new());
            let mut c =
                StreamChecker::with_config(&spec, StreamConfig::default().with_flush_ops(2));
            legal_rounds(&mut c, 0..8, 0);
            let in_flight = c.in_flight;
            drop(c);
            done.send(in_flight).unwrap();
        });
        let in_flight = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(in_flight, Ok(DEPTH), "drop must return with two windows in flight");
    }

    /// A stream shorter than one flush window never hands a window off, so
    /// it never spawns the decider thread; a longer one does.
    #[test]
    fn a_short_stream_spawns_no_thread() {
        let spec = erase(FifoQueue::new());
        let mut c = StreamChecker::new(&spec);
        let t = legal_rounds(&mut c, 0..500, 0);
        assert!(!c.decider_spawned());
        let (verdict, stats) = c.finish();
        assert!(verdict.is_ok() && stats.ops == 1000, "{verdict:?} {stats:?}");
        let mut c = StreamChecker::new(&spec);
        legal_rounds(&mut c, 0..600, t);
        assert!(c.decider_spawned());
    }

    /// The one-pass strict-last-write test equals its definition: the
    /// last-invoked mutator is a write, and every other mutator responds
    /// before it is invoked.
    #[test]
    fn strict_last_write_matches_its_definition() {
        use lintime_sim::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(11);
        let mut strict = 0;
        for _ in 0..2_000 {
            let ms: Vec<(TimedOp, bool)> = (0..rng.gen_range(0usize..6))
                .map(|_| {
                    let t = rng.gen_range(0i64..12);
                    let op = TimedOp {
                        pid: Pid(0),
                        instance: OpInstance::new("write", 1, ()),
                        t_invoke: Time(t),
                        t_respond: Time(t + rng.gen_range(0i64..4)),
                    };
                    (op, rng.gen_range(0u32..4) > 0)
                })
                .collect();
            let last = (0..ms.len()).max_by_key(|&i| ms[i].0.t_invoke);
            let expected = last.is_none_or(|l| {
                ms[l].1
                    && ms
                        .iter()
                        .enumerate()
                        .all(|(i, (o, _))| i == l || o.t_respond < ms[l].0.t_invoke)
            });
            assert_eq!(strict_last_write(ms.iter().map(|(o, w)| (o, *w))), expected, "{ms:?}");
            strict += expected as u32;
        }
        assert!(strict > 100 && strict < 1_900, "{strict} strict of 2000");
    }
}
