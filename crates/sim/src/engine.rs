//! The deterministic discrete-event engine realizing the system model of
//! Section 2.2: `n` processes with drift-free offset clocks, point-to-point
//! messages with per-message delays from a [`DelaySpec`], and
//! event-triggered state machines ([`Node`]).
//!
//! Determinism: events are processed in `(real time, class, sequence)` order,
//! where simultaneous events order deliveries before timers before
//! invocations; all delay models are pure functions. Re-running the same
//! [`SimConfig`] always produces the identical [`Run`] — the property the
//! shifting experiments (Theorem 1) rely on.

use crate::delay::DelaySpec;
use crate::faults::{FaultPlan, InjectedFault};
use crate::node::{Effects, Node};
use crate::run::{MsgRecord, OpRecord, Run, StepTrigger, ViewStep};
use crate::schedule::Schedule;
use crate::time::{ModelParams, Pid, Time};
use lintime_adt::spec::Invocation;
use lintime_adt::value::Value;
use lintime_obs::{EventCategory, Obs};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashSet;
use std::collections::VecDeque;

/// Complete configuration of one simulated run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Model parameters `(n, d, u, ε)`.
    pub params: ModelParams,
    /// Clock offsets `C`: local = real + `offsets[i]`.
    pub offsets: Vec<Time>,
    /// Message-delay assignment `D`.
    pub delay: DelaySpec,
    /// Invocation schedule.
    pub schedule: Schedule,
    /// Record per-message send/receive times (needed for record-level
    /// admissibility checks and chopping).
    pub record_messages: bool,
    /// Record per-process views (needed for view-equivalence checks).
    pub record_views: bool,
    /// Hard stop: ignore events after this real time (None = run to
    /// quiescence).
    pub max_real_time: Option<Time>,
    /// Hard stop: maximum number of events to process.
    pub max_events: u64,
    /// Fault schedule to inject (None = fault-free).
    pub faults: Option<FaultPlan>,
    /// Observability bundle. [`Obs::off`] (the default) reduces every
    /// instrumentation point to a single branch.
    pub obs: Obs,
    /// Live operation-event sink for streaming consumers (e.g. the online
    /// linearizability checker). Events arrive in engine order, in bursts of
    /// at most 256 (the consumer is woken once per burst, not once per
    /// event), and are fully flushed when the run ends by any path —
    /// quiescence, `max_real_time`, or `max_events`. `None` (the default)
    /// keeps the benched offline path untouched; send errors are ignored so
    /// a departed receiver never affects the run.
    pub op_sink: Option<std::sync::mpsc::Sender<OpEvent>>,
    /// Open-loop admission epoch: after this many open arrivals have been
    /// admitted, further admissions hold until *every* pending operation has
    /// responded, and the next wave starts one tick later. The quiescent
    /// instant between epochs is a settled cut for streaming checkers, so
    /// their resident window stays bounded by roughly the epoch size even
    /// under sustained overload — without it, back-to-back admissions keep
    /// some process busy at every instant and no sound cut ever appears.
    /// `None` (the default) admits immediately on response.
    pub admission_epoch: Option<u64>,
}

/// A structured operation event emitted through [`SimConfig::op_sink`] in
/// the order the engine records it (simulated-time order). The engine hands
/// events over in bursts of at most 256, so a consumer may lag the engine by
/// up to one burst while the run is going; nothing is held back once the run
/// has ended.
#[derive(Clone, Debug)]
pub enum OpEvent {
    /// `pid` invoked `op(arg)` at real time `t`.
    Invoke {
        /// Invoking process.
        pid: Pid,
        /// Real (simulated) invocation time.
        t: Time,
        /// Operation name.
        op: &'static str,
        /// Operation argument.
        arg: Value,
    },
    /// `pid`'s outstanding invocation responded with `ret` at real time `t`.
    Respond {
        /// Responding process.
        pid: Pid,
        /// Real (simulated) response time.
        t: Time,
        /// Response value.
        ret: Value,
    },
}

impl SimConfig {
    /// A configuration with synchronized clocks (all offsets 0), the given
    /// delay spec, and an empty schedule.
    pub fn new(params: ModelParams, delay: DelaySpec) -> Self {
        SimConfig {
            params,
            offsets: vec![Time::ZERO; params.n],
            delay,
            schedule: Schedule::new(),
            record_messages: false,
            record_views: false,
            max_real_time: None,
            max_events: 50_000_000,
            faults: None,
            obs: Obs::off(),
            op_sink: None,
            admission_epoch: None,
        }
    }

    /// Set the clock offsets (must have length `n`).
    pub fn with_offsets(mut self, offsets: Vec<Time>) -> Self {
        assert_eq!(offsets.len(), self.params.n);
        self.offsets = offsets;
        self
    }

    /// Set the schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Enable message and view recording.
    pub fn recording_all(mut self) -> Self {
        self.record_messages = true;
        self.record_views = true;
        self
    }

    /// Inject faults from `plan` (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach an observability bundle (trace sink + metrics registry).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attach a live operation-event sink (see [`OpEvent`]); invocations and
    /// responses are sent in engine order, in bursts of at most 256, and the
    /// last partial burst is flushed when the run ends by any path.
    pub fn with_op_sink(mut self, sink: std::sync::mpsc::Sender<OpEvent>) -> Self {
        self.op_sink = Some(sink);
        self
    }

    /// Hold open-loop admissions for a quiescence barrier after every
    /// `epoch` admissions (see [`SimConfig::admission_epoch`]).
    pub fn with_admission_epoch(mut self, epoch: u64) -> Self {
        self.admission_epoch = Some(epoch);
        self
    }

    /// Structural validity: the configuration can be *executed* at all
    /// (unlike [`SimConfig::admissible`], which asks whether it stays inside
    /// the model — deliberately inadmissible configs are legitimate
    /// experiments). Catches shape errors such as a delay matrix whose
    /// dimensions do not match `n`, which would otherwise panic deep inside
    /// the delivery loop.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.params.n {
            return Err(format!(
                "config has {} clock offsets but n = {}",
                self.offsets.len(),
                self.params.n
            ));
        }
        self.delay.validate_shape(self.params.n)?;
        for t in &self.schedule.timed {
            if t.pid.0 >= self.params.n {
                return Err(format!("schedule invokes at unknown process {}", t.pid));
            }
        }
        let mut scripted = vec![false; self.params.n];
        for s in &self.schedule.scripts {
            if s.pid.0 >= self.params.n {
                return Err(format!("script runs at unknown process {}", s.pid));
            }
            if std::mem::replace(&mut scripted[s.pid.0], true) {
                return Err(format!("two scripts run at process {}", s.pid));
            }
        }
        for t in &self.schedule.open {
            if t.pid.0 >= self.params.n {
                return Err(format!("open arrival at unknown process {}", t.pid));
            }
        }
        if self.admission_epoch == Some(0) {
            return Err("admission epoch must be at least 1".to_string());
        }
        Ok(())
    }

    /// Check configuration admissibility (Section 2.2): clock skews within ε
    /// and the delay spec within `[d - u, d]`.
    pub fn admissible(&self) -> Result<(), String> {
        let max = self.offsets.iter().copied().max().unwrap_or(Time::ZERO);
        let min = self.offsets.iter().copied().min().unwrap_or(Time::ZERO);
        if max - min > self.params.epsilon {
            return Err(format!(
                "clock skew {} exceeds epsilon {}",
                max - min,
                self.params.epsilon
            ));
        }
        if !self.delay.admissible(self.params) {
            return Err("delay spec produces delays outside [d-u, d]".to_string());
        }
        Ok(())
    }

    /// The shifted configuration `shift(·, x̄)` per Theorem 1: offsets become
    /// `c_i − x_i`, matrix delays become `δ_ij − x_i + x_j`, and scheduled
    /// invocations at `p_i` move by `x_i`. Panics if the delay spec is not
    /// pair-wise uniform (only those are shiftable in closed form).
    pub fn shifted(&self, x: &[Time]) -> SimConfig {
        assert_eq!(x.len(), self.params.n);
        let matrix = self
            .delay
            .to_matrix(self.params)
            .expect("only pair-wise uniform delay specs can be shifted");
        let n = self.params.n;
        let shifted_matrix = DelaySpec::matrix_from_fn(n, |i, j| {
            if i == j {
                matrix[i][j]
            } else {
                matrix[i][j] - x[i] + x[j]
            }
        });
        SimConfig {
            params: self.params,
            offsets: self.offsets.iter().zip(x).map(|(c, xi)| *c - *xi).collect(),
            delay: shifted_matrix,
            schedule: self.schedule.shifted(x),
            record_messages: self.record_messages,
            record_views: self.record_views,
            max_real_time: self.max_real_time,
            max_events: self.max_events,
            faults: self.faults.clone(),
            obs: self.obs.clone(),
            op_sink: self.op_sink.clone(),
            admission_epoch: self.admission_epoch,
        }
    }
}

/// Where an invocation event came from. Determines what happens when it
/// reaches a busy process: timed and scripted invocations are model errors
/// (the Section 2.2 user invokes at most one operation at a time), open-loop
/// arrivals queue in the process's ingress queue until the pending operation
/// responds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InvokeSource {
    /// From `Schedule::timed`: fires at an absolute time, errors if busy.
    Timed,
    /// From a `Schedule::scripts` entry: the response schedules the next
    /// scripted invocation (closed loop).
    Script,
    /// From `Schedule::open`: queues if busy, admitted on response.
    Open,
}

/// Event payload, held in the [`EventQueue`] slab while the heap orders its
/// ordinal.
enum EventKind<M> {
    Invoke {
        inv: Invocation,
        source: InvokeSource,
    },
    /// Admit the head of `pid`'s ingress queue, popped at *processing* time.
    /// Carrying the popped invocation in the event instead would race with
    /// same-instant schedule arrivals (which sort first — their sequence
    /// numbers were assigned at setup) and re-queue the head at the back,
    /// breaking per-process FIFO admission.
    AdmitIngress,
    Deliver {
        from: Pid,
        msg: M,
    },
    /// The timer armed under `id`. Its tag is held once, in the run's
    /// `live_tags`, and is gone from there once the timer is cancelled.
    Timer {
        id: u64,
    },
}

/// Event classes. At equal times deliveries process first, then timers,
/// then invocations.
const DELIVER: u8 = 0;
const TIMER: u8 = 1;
const INVOKE: u8 = 2;

/// Bits of an ordinal's low word: the class (2), the sequence number (38)
/// and the slab slot (24), high to low.
const SEQ_BITS: u32 = 38;
const SLOT_BITS: u32 = 24;

/// A run that would create more events than this ends truncated instead of
/// reusing a sequence number.
const SEQ_LIMIT: u64 = 1 << SEQ_BITS;

/// A run that would hold more events pending at once than this ends
/// truncated instead of reusing a slot.
const SLOT_LIMIT: usize = 1 << SLOT_BITS;

/// The event key `(time, class, seq)` packed into one integer with the same
/// order: the time with its sign bit flipped (so negative times, which
/// [`SimConfig::shifted`] can produce, sort first) in the high 64 bits, then
/// the class, then the sequence number. The low [`SLOT_BITS`] are left zero
/// for the slab slot ([`EventQueue::push`]); sequence numbers are unique, so
/// the slot never decides an order.
fn ordinal(time: Time, class: u8, seq: u64) -> u128 {
    debug_assert!(class < 4 && seq < SEQ_LIMIT);
    (((time.0 as u64) ^ (1 << 63)) as u128) << 64
        | (class as u128) << (SEQ_BITS + SLOT_BITS)
        | (seq as u128) << SLOT_BITS
}

fn ordinal_time(ord: u128) -> Time {
    Time((((ord >> 64) as u64) ^ (1 << 63)) as i64)
}

fn ordinal_class(ord: u128) -> u8 {
    (ord as u64 >> (SEQ_BITS + SLOT_BITS)) as u8
}

fn ordinal_slot(ord: u128) -> usize {
    ord as usize & (SLOT_LIMIT - 1)
}

/// Everything the run itself schedules, in ordinal order. The heap sifts
/// bare ordinals carrying their slab slot; each payload is written into a
/// slot once and taken out once, and freed slots are reused.
struct EventQueue<M> {
    heap: BinaryHeap<Reverse<u128>>,
    slab: Vec<Option<(Pid, EventKind<M>)>>,
    free: Vec<usize>,
    seq: u64,
    /// Slots the slab may grow to ([`SLOT_LIMIT`]; smaller in tests).
    slot_limit: usize,
    /// A push found every slot taken.
    full: bool,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            slot_limit: SLOT_LIMIT,
            full: false,
        }
    }

    /// The ordinal of the next event created at `(time, class)` — the one
    /// place sequence numbers advance. `None` once they are exhausted.
    fn next_ordinal(&mut self, time: Time, class: u8) -> Option<u128> {
        if self.seq >= SEQ_LIMIT {
            return None;
        }
        let ord = ordinal(time, class, self.seq);
        self.seq += 1;
        Some(ord)
    }

    /// Why the queue refuses new events, once it does: every sequence
    /// number is used, or a push found every slot taken. The event loop then
    /// ends the run as truncated with this error; an event pushed after
    /// this is dropped, never mis-ordered.
    fn exhausted(&self) -> Option<String> {
        if self.seq >= SEQ_LIMIT {
            Some(format!("event sequence numbers exhausted ({SEQ_LIMIT} events created)"))
        } else if self.full {
            Some(format!("event slots exhausted ({} events pending)", self.slot_limit))
        } else {
            None
        }
    }

    fn push(&mut self, time: Time, class: u8, pid: Pid, kind: EventKind<M>) {
        let Some(ord) = self.next_ordinal(time, class) else { return };
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None if self.slab.len() < self.slot_limit => {
                self.slab.push(None);
                self.slab.len() - 1
            }
            None => {
                self.full = true;
                return;
            }
        };
        self.slab[slot] = Some((pid, kind));
        self.heap.push(Reverse(ord | slot as u128));
    }

    fn peek(&self) -> Option<u128> {
        self.heap.peek().map(|&Reverse(ord)| ord)
    }

    fn pop(&mut self) -> Option<(u128, Pid, EventKind<M>)> {
        let Reverse(ord) = self.heap.pop()?;
        let slot = ordinal_slot(ord);
        self.free.push(slot);
        let (pid, kind) = self.slab[slot].take().expect("a queued slot holds its event");
        Some((ord, pid, kind))
    }
}

/// Op events handed to [`SimConfig::op_sink`] per burst. A consumer faster
/// than the engine parks between events, so sending each event as it is
/// recorded costs one thread wake per event; sending a full burst back to
/// back wakes it once and the remaining sends find it running.
const SINK_BURST: usize = 256;

/// Run-local buffer in front of [`SimConfig::op_sink`]: collects events in
/// engine order and sends them when a burst is full and when it is dropped,
/// so every exit of the event loop flushes.
struct BurstSink<'a> {
    tx: &'a std::sync::mpsc::Sender<OpEvent>,
    buf: Vec<OpEvent>,
}

impl<'a> BurstSink<'a> {
    fn new(tx: &'a std::sync::mpsc::Sender<OpEvent>) -> Self {
        BurstSink { tx, buf: Vec::with_capacity(SINK_BURST) }
    }

    fn push(&mut self, ev: OpEvent) {
        self.buf.push(ev);
        if self.buf.len() >= SINK_BURST {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for ev in self.buf.drain(..) {
            // A departed receiver never affects the run.
            let _ = self.tx.send(ev);
        }
    }
}

impl Drop for BurstSink<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A `Schedule::timed` / `Schedule::open` arrival, kept out of the heap and
/// borrowed from the schedule until the instant it fires.
type Arrival<'a> = (u128, Pid, &'a Invocation, InvokeSource);

/// The next event in ordinal order from the scheduled arrivals (sorted
/// latest first, so the next one is `last()`) and the queue of everything
/// created during the run. Ordinals are unique, so this is exactly the order
/// one heap holding both would pop.
fn next_entry<M>(
    arrivals: &mut Vec<Arrival<'_>>,
    queue: &mut EventQueue<M>,
) -> Option<(u128, Pid, EventKind<M>)> {
    let arrival_first = match (arrivals.last(), queue.peek()) {
        (Some(a), Some(h)) => a.0 < h,
        (Some(_), None) => true,
        (None, _) => false,
    };
    if arrival_first {
        let (ord, pid, inv, source) = arrivals.pop()?;
        Some((ord, pid, EventKind::Invoke { inv: inv.clone(), source }))
    } else {
        queue.pop()
    }
}

struct ProcState<'a> {
    /// Index into `ops` of the pending operation, if any, and where it came
    /// from (scripts only advance on their own operations' responses).
    pending_op: Option<(usize, InvokeSource)>,
    /// Remaining closed-loop script invocations, read in place from the
    /// schedule (each step is cloned only when it is invoked).
    script: &'a [Invocation],
    script_gap: Time,
    /// Open-loop arrivals waiting for the pending operation to respond,
    /// with their arrival times (FIFO admission).
    ingress: VecDeque<(Time, Invocation)>,
}

impl ProcState<'_> {
    /// Advance the script cursor: the next scripted invocation, if any.
    fn next_scripted(&mut self) -> Option<Invocation> {
        let (next, rest) = self.script.split_first()?;
        self.script = rest;
        Some(next.clone())
    }
}

/// Pre-registered metric handles for the engine hot loop. Registration takes
/// a lock, so it happens once per run ([`EngineMetrics::register`]) and only
/// when observability is active; the loop then pays one branch plus one
/// relaxed atomic per instrumented site.
struct EngineMetrics {
    events: lintime_obs::Counter,
    invocations: lintime_obs::Counter,
    responses: lintime_obs::Counter,
    sends: lintime_obs::Counter,
    deliveries: lintime_obs::Counter,
    timer_fires: lintime_obs::Counter,
    drops: lintime_obs::Counter,
    duplicates: lintime_obs::Counter,
    delay_overrides: lintime_obs::Counter,
    stall_deferrals: lintime_obs::Counter,
    crash_discards: lintime_obs::Counter,
    msg_bytes: lintime_obs::Counter,
    ingress_queued: lintime_obs::Counter,
    ingress_epochs: lintime_obs::Counter,
    ingress_depth: lintime_obs::Gauge,
    delay_draw: lintime_obs::Histogram,
    op_latency: lintime_obs::Histogram,
    ingress_wait: lintime_obs::Histogram,
}

impl EngineMetrics {
    fn register(obs: &Obs) -> EngineMetrics {
        let r = &obs.metrics;
        // Tick buckets bracket the default experiment scale (d = 6000).
        EngineMetrics {
            events: r.counter("sim.events"),
            invocations: r.counter("sim.op.invocations"),
            responses: r.counter("sim.op.responses"),
            sends: r.counter("sim.msg.sends"),
            deliveries: r.counter("sim.msg.deliveries"),
            timer_fires: r.counter("sim.timer.fires"),
            drops: r.counter("sim.fault.drops"),
            duplicates: r.counter("sim.fault.duplicates"),
            delay_overrides: r.counter("sim.fault.delay_overrides"),
            stall_deferrals: r.counter("sim.fault.stall_deferrals"),
            crash_discards: r.counter("sim.fault.crash_discards"),
            msg_bytes: r.counter("sim.msg.bytes"),
            ingress_queued: r.counter("sim.ingress.queued"),
            ingress_epochs: r.counter("sim.ingress.epochs"),
            ingress_depth: r.gauge("sim.ingress.depth"),
            delay_draw: r.histogram("sim.msg.delay_ticks", &[750, 1500, 3000, 6000, 12000, 24000]),
            op_latency: r
                .histogram("sim.op.latency_ticks", &[1500, 3000, 6000, 12000, 24000, 48000]),
            // Queue waits under saturation dwarf per-op latency; exponential
            // buckets up to 256 × d (d = 6000 at default experiment scale).
            ingress_wait: r
                .histogram("sim.ingress.wait_ticks", &[6000, 24000, 96000, 384000, 1_536_000]),
        }
    }
}

/// Run the simulation: one node per process, built by `make_node`.
pub fn simulate<N: Node>(config: &SimConfig, make_node: impl FnMut(Pid) -> N) -> Run {
    simulate_full(config, make_node).0
}

/// Like [`simulate`], but also returns the final node states (useful for
/// inspecting algorithm-internal logs, e.g. the Construction-1 verifier).
pub fn simulate_full<N: Node>(
    config: &SimConfig,
    mut make_node: impl FnMut(Pid) -> N,
) -> (Run, Vec<N>) {
    let params = config.params;
    let n = params.n;

    let mut nodes: Vec<N> = (0..n).map(|i| make_node(Pid(i))).collect();
    let mut queue: EventQueue<N::Msg> = EventQueue::new();
    let mut next_timer_id: u64 = 0;
    // Tags of live timers per process, by id: a firing timer takes its tag
    // from here, a cancellation removes it, so an id missing at firing time
    // is a cancelled timer.
    let mut live_tags: Vec<Vec<(u64, N::Timer)>> = (0..n).map(|_| Vec::new()).collect();
    let mut msg_counters: Vec<u64> = vec![0; n * n];

    let mut procs: Vec<ProcState> = (0..n)
        .map(|_| ProcState {
            pending_op: None,
            script: &[],
            script_gap: Time::ZERO,
            ingress: VecDeque::new(),
        })
        .collect();

    let mut ops: Vec<OpRecord> = Vec::with_capacity(config.schedule.len());
    let mut msgs: Vec<MsgRecord> = Vec::new();
    let mut views: Vec<Vec<ViewStep>> = (0..n).map(|_| Vec::new()).collect();
    let mut errors: Vec<String> = Vec::new();
    let mut delay_violations: u64 = 0;
    let mut last_time = Time::ZERO;
    let mut events: u64 = 0;
    let mut truncated = false;
    let mut msgs_sent: u64 = 0;
    let mut bytes_sent: u64 = 0;
    // Epoch-admission state (see SimConfig::admission_epoch): admissions
    // this epoch, whether the barrier is draining, and how many operations
    // are currently pending across all processes (any source).
    let mut epoch_admitted: u64 = 0;
    let mut draining = false;
    let mut pending_count: usize = 0;
    let mut faults: Vec<InjectedFault> = Vec::new();
    // Which (pid, stall-window-end) deferrals were already recorded, and
    // which crashes were already recorded, to log each fault once.
    let mut stalls_recorded: HashSet<(usize, Time)> = HashSet::new();
    let mut crashes_recorded: HashSet<usize> = HashSet::new();

    let obs = &config.obs;
    let metrics = obs.is_active().then(|| EngineMetrics::register(obs));
    let mut sink = config.op_sink.as_ref().map(BurstSink::new);

    // Refuse structurally invalid configurations up front with a clear
    // error instead of panicking mid-run (e.g. an undersized delay matrix).
    if let Err(e) = config.validate() {
        errors.push(format!("invalid configuration: {e}"));
        let run = Run {
            params,
            offsets: config.offsets.clone(),
            ops,
            msgs,
            views,
            last_time,
            events,
            errors,
            delay_violations,
            truncated: true,
            crashed_pending: 0,
            unadmitted: 0,
            msgs_sent,
            bytes_sent,
            faults,
            suspect: Vec::new(),
        };
        return (run, nodes);
    }

    // Scheduled arrivals take their sequence numbers here, in schedule
    // order, but stay in a side list (sorted latest first) merged with the
    // queue at each step (see `next_entry`): the queue then holds only what
    // the run itself creates — in-flight deliveries, timers, script steps,
    // admission markers, stall deferrals — instead of sifting those through
    // the whole remaining input.
    let Schedule { timed, open, scripts } = &config.schedule;
    let mut arrivals: Vec<Arrival<'_>> = Vec::with_capacity(timed.len() + open.len());
    for (list, source) in [(timed, InvokeSource::Timed), (open, InvokeSource::Open)] {
        for t in list {
            if let Some(ord) = queue.next_ordinal(t.at, INVOKE) {
                arrivals.push((ord, t.pid, &t.inv, source));
            }
        }
    }
    arrivals.sort_unstable_by_key(|a| Reverse(a.0));
    // Scripts are closed-loop: only each first step is known up front.
    for s in scripts {
        let p = &mut procs[s.pid.0];
        p.script = &s.invocations;
        p.script_gap = s.gap;
        if let Some(first) = p.next_scripted() {
            let kind = EventKind::Invoke { inv: first, source: InvokeSource::Script };
            queue.push(s.start, INVOKE, s.pid, kind);
        }
    }

    // One effect sink for the whole run, re-armed per event.
    let mut fx: Effects<N::Msg, N::Timer> = Effects::new(Pid(0), n, Time::ZERO);
    loop {
        if let Some(error) = queue.exhausted() {
            errors.push(error);
            truncated = true;
            break;
        }
        let Some((ord, pid, mut kind)) = next_entry(&mut arrivals, &mut queue) else { break };
        let now = ordinal_time(ord);
        if let Some(cap) = config.max_real_time {
            if now > cap {
                break;
            }
        }
        if events >= config.max_events {
            errors.push(format!("event cap {} reached", config.max_events));
            truncated = true;
            break;
        }

        // Fault injection: crashed processes take no further steps; stalled
        // processes defer their events to the end of the stall window.
        if let Some(plan) = &config.faults {
            if let Some(at) = plan.crashed_at(pid) {
                if now >= at {
                    if crashes_recorded.insert(pid.0) {
                        faults.push(InjectedFault::Crashed { pid, at });
                        obs.emit(now.0, Some(pid.0), EventCategory::Crash, || {
                            format!("process crashed at {at}")
                        });
                    }
                    if let Some(m) = &metrics {
                        m.crash_discards.inc();
                    }
                    // An invocation at a crashed process is recorded (the
                    // user observes no response — the run is incomplete),
                    // other events are silently lost with the process.
                    if let EventKind::Invoke { inv, .. } = kind {
                        ops.push(OpRecord {
                            pid,
                            invocation: inv,
                            ret: None,
                            t_invoke: now,
                            t_respond: None,
                        });
                    }
                    continue;
                }
            }
            if let Some(until) = plan.stall_until(pid, now) {
                if stalls_recorded.insert((pid.0, until)) {
                    faults.push(InjectedFault::Stalled { pid, from: now, until });
                    obs.emit(now.0, Some(pid.0), EventCategory::Stall, || {
                        format!("stalled until {until}")
                    });
                }
                if let Some(m) = &metrics {
                    m.stall_deferrals.inc();
                }
                queue.push(until, ordinal_class(ord), pid, kind);
                continue;
            }
        }

        // Resolve an admission marker, in place, into the invocation it
        // admits. The pop happens here, at processing time: if another event
        // claimed the process first (or an epoch barrier started), the queue
        // is left untouched and the next response — or the barrier
        // reopening — schedules a fresh marker.
        let admitted = matches!(kind, EventKind::AdmitIngress);
        if admitted {
            if procs[pid.0].pending_op.is_some() || draining {
                continue;
            }
            let Some((t_arrive, inv)) = procs[pid.0].ingress.pop_front() else { continue };
            if let Some(m) = &metrics {
                m.ingress_wait.observe_i64((now - t_arrive).0);
            }
            kind = EventKind::Invoke { inv, source: InvokeSource::Open };
        }

        events += 1;
        if let Some(m) = &metrics {
            m.events.inc();
        }
        last_time = last_time.max(now);
        let local = now + config.offsets[pid.0];
        fx.reset(pid, local);

        let trigger = match kind {
            EventKind::Invoke { inv, source } => {
                if procs[pid.0].pending_op.is_some()
                    || (source == InvokeSource::Open
                        && !admitted
                        && (draining || !procs[pid.0].ingress.is_empty()))
                {
                    if source == InvokeSource::Open {
                        // Open-loop arrival at a busy process, during an
                        // epoch barrier, or behind earlier queued arrivals
                        // (FIFO — it must not jump the queue): queue it; a
                        // response — or the barrier reopening — admits it.
                        procs[pid.0].ingress.push_back((now, inv));
                        if let Some(m) = &metrics {
                            m.ingress_queued.inc();
                            m.ingress_depth.set_max(procs[pid.0].ingress.len() as i64);
                        }
                        continue;
                    }
                    errors.push(format!(
                        "{pid}: invocation {inv:?} at {now} while another operation is pending"
                    ));
                    continue;
                }
                if source == InvokeSource::Open {
                    if let Some(epoch) = config.admission_epoch {
                        epoch_admitted += 1;
                        if epoch_admitted >= epoch {
                            draining = true;
                        }
                    }
                }
                pending_count += 1;
                obs.emit(now.0, Some(pid.0), EventCategory::OpInvoke, || format!("{inv:?}"));
                if let Some(m) = &metrics {
                    m.invocations.inc();
                }
                if let Some(sink) = &mut sink {
                    sink.push(OpEvent::Invoke { pid, t: now, op: inv.op, arg: inv.arg.clone() });
                }
                procs[pid.0].pending_op = Some((ops.len(), source));
                ops.push(OpRecord {
                    pid,
                    invocation: inv.clone(),
                    ret: None,
                    t_invoke: now,
                    t_respond: None,
                });
                let trig = config.record_views.then(|| StepTrigger::Invoke(format!("{inv:?}")));
                nodes[pid.0].on_invoke(inv, &mut fx);
                trig
            }
            EventKind::Deliver { from, msg } => {
                obs.emit(now.0, Some(pid.0), EventCategory::Recv, || {
                    format!("from {from}: {msg:?}")
                });
                if let Some(m) = &metrics {
                    m.deliveries.inc();
                }
                let trig = config
                    .record_views
                    .then(|| StepTrigger::Deliver { from, msg: format!("{msg:?}") });
                nodes[pid.0].on_deliver(from, msg, &mut fx);
                trig
            }
            // Resolved to an `Invoke` (or skipped) above.
            EventKind::AdmitIngress => unreachable!("admission markers resolve before dispatch"),
            EventKind::Timer { id } => {
                // Not live: cancelled. Its pop still counts as an event.
                let live = &mut live_tags[pid.0];
                let Some(i) = live.iter().position(|(tid, _)| *tid == id) else { continue };
                let (_, tag) = live.swap_remove(i);
                if let Some(m) = &metrics {
                    m.timer_fires.inc();
                }
                let trig = config.record_views.then(|| StepTrigger::Timer(format!("{tag:?}")));
                nodes[pid.0].on_timer(tag, &mut fx);
                trig
            }
        };

        // Apply effects deterministically: cancels, then sends, then timers,
        // then the response.
        for tag in fx.timers_cancelled.drain(..) {
            live_tags[pid.0].retain(|(_, t)| *t != tag);
        }
        let sends = fx.sends.len();
        for (to, msg) in fx.sends.drain(..) {
            assert!(to.0 < n, "send to unknown process {to}");
            assert_ne!(to, pid, "processes do not message themselves");
            let k = {
                let c = &mut msg_counters[pid.0 * n + to.0];
                let v = *c;
                *c += 1;
                v
            };
            // Communication cost is charged at the send: the protocol paid
            // for the message whether or not the network later drops it
            // (fault-injected duplicates are the network's doing, not cost).
            let wire_bytes = N::msg_wire_bytes(&msg) as u64;
            msgs_sent += 1;
            bytes_sent += wire_bytes;
            if let Some(m) = &metrics {
                m.msg_bytes.add(wire_bytes);
            }
            let mut delay = config.delay.delay(params, pid, to, k);
            if let Some(plan) = &config.faults {
                if let Some(override_delay) = plan.delay_override(pid, to, k) {
                    delay = override_delay;
                    faults.push(InjectedFault::DelayOverridden { from: pid, to, k, delay });
                    obs.emit(now.0, Some(pid.0), EventCategory::DelayOverride, || {
                        format!("to {to} k={k}: delay forced to {delay}")
                    });
                    if let Some(m) = &metrics {
                        m.delay_overrides.inc();
                    }
                }
                if plan.should_drop(pid, to, k) {
                    faults.push(InjectedFault::Dropped { from: pid, to, k, t_send: now });
                    obs.emit(now.0, Some(pid.0), EventCategory::Drop, || {
                        format!("to {to} k={k} dropped in flight")
                    });
                    if let Some(m) = &metrics {
                        m.drops.inc();
                    }
                    if config.record_messages {
                        msgs.push(MsgRecord { from: pid, to, t_send: now, t_recv: None });
                    }
                    continue;
                }
            }
            assert!(delay >= Time::ZERO, "negative message delay {delay:?}");
            if !params.delay_ok(delay) {
                delay_violations += 1;
            }
            let t_recv = now + delay;
            obs.emit(now.0, Some(pid.0), EventCategory::Send, || {
                format!("to {to} k={k} delay={delay}")
            });
            if let Some(m) = &metrics {
                m.sends.inc();
                m.delay_draw.observe_i64(delay.0);
            }
            let deliverable = config.max_real_time.is_none_or(|cap| t_recv <= cap);
            if config.record_messages {
                msgs.push(MsgRecord {
                    from: pid,
                    to,
                    t_send: now,
                    t_recv: deliverable.then_some(t_recv),
                });
            }
            if let Some(plan) = &config.faults {
                if plan.should_duplicate(pid, to, k) {
                    let extra_delay = plan.duplicate_delay(params, pid, to, k);
                    let t_extra = now + extra_delay;
                    faults.push(InjectedFault::Duplicated { from: pid, to, k, t_extra });
                    obs.emit(now.0, Some(pid.0), EventCategory::Duplicate, || {
                        format!("to {to} k={k}: second copy arrives at {t_extra}")
                    });
                    if let Some(m) = &metrics {
                        m.duplicates.inc();
                    }
                    if config.record_messages {
                        let dup_deliverable = config.max_real_time.is_none_or(|cap| t_extra <= cap);
                        msgs.push(MsgRecord {
                            from: pid,
                            to,
                            t_send: now,
                            t_recv: dup_deliverable.then_some(t_extra),
                        });
                    }
                    queue.push(
                        t_extra,
                        DELIVER,
                        to,
                        EventKind::Deliver { from: pid, msg: msg.clone() },
                    );
                }
            }
            queue.push(t_recv, DELIVER, to, EventKind::Deliver { from: pid, msg });
        }
        for (local_fire, tag) in fx.timers_set.drain(..) {
            let real_fire = local_fire - config.offsets[pid.0];
            let id = next_timer_id;
            next_timer_id += 1;
            live_tags[pid.0].push((id, tag));
            queue.push(real_fire, TIMER, pid, EventKind::Timer { id });
        }
        let response = fx.response.take();
        if config.record_views {
            if let Some(trigger) = trigger {
                views[pid.0].push(ViewStep {
                    local_time: local,
                    trigger,
                    sends,
                    response: response.as_ref().map(|v| format!("{v:?}")),
                });
            }
        }
        if let Some(ret) = response {
            match procs[pid.0].pending_op.take() {
                Some((op_idx, source)) => {
                    obs.emit(now.0, Some(pid.0), EventCategory::OpRespond, || {
                        format!(
                            "{:?} -> {ret:?} (latency {})",
                            ops[op_idx].invocation,
                            now - ops[op_idx].t_invoke
                        )
                    });
                    if let Some(m) = &metrics {
                        m.responses.inc();
                        m.op_latency.observe_i64((now - ops[op_idx].t_invoke).0);
                    }
                    if let Some(sink) = &mut sink {
                        sink.push(OpEvent::Respond { pid, t: now, ret: ret.clone() });
                    }
                    ops[op_idx].ret = Some(ret);
                    ops[op_idx].t_respond = Some(now);
                    // Closed-loop: a *scripted* response schedules the next
                    // scripted invocation.
                    if source == InvokeSource::Script {
                        if let Some(next_inv) = procs[pid.0].next_scripted() {
                            let at = now + procs[pid.0].script_gap;
                            let kind =
                                EventKind::Invoke { inv: next_inv, source: InvokeSource::Script };
                            queue.push(at, INVOKE, pid, kind);
                        }
                    }
                    pending_count = pending_count.saturating_sub(1);
                    if !draining {
                        // Open-loop: the process is idle again; admit the
                        // oldest queued arrival (same instant, invocation
                        // event class — the marker pops it at processing
                        // time, after any same-instant arrivals queue up).
                        if !procs[pid.0].ingress.is_empty() {
                            queue.push(now, INVOKE, pid, EventKind::AdmitIngress);
                        }
                    } else if pending_count == 0 {
                        // Epoch barrier: every pending operation has
                        // responded, so `now` ends a quiescent epoch. Reopen
                        // one tick later — strictly after every response of
                        // the finished epoch, so a streaming checker sees a
                        // settled cut — admitting one queued arrival per
                        // process (their responses admit the rest).
                        draining = false;
                        epoch_admitted = 0;
                        let reopen = now + Time(1);
                        if let Some(m) = &metrics {
                            m.ingress_epochs.inc();
                        }
                        for (i, proc) in procs.iter().enumerate().take(n) {
                            if !proc.ingress.is_empty() {
                                queue.push(reopen, INVOKE, Pid(i), EventKind::AdmitIngress);
                            }
                        }
                    }
                }
                None => {
                    errors.push(format!("{pid}: response {ret:?} at {now} with no pending op"));
                }
            }
        }
    }

    // Crash honesty accounting: make every crash that took effect during the
    // run visible in `faults` (even if no event of the crashed process ever
    // needed discarding), and count the pending operations attributable to a
    // crash of their invoking process.
    let mut crashed_pending: u64 = 0;
    if let Some(plan) = &config.faults {
        for i in 0..n {
            let Some(at) = plan.crashed_at(Pid(i)) else { continue };
            if !crashes_recorded.contains(&i) && at > last_time {
                continue; // the run never reached the crash time
            }
            if crashes_recorded.insert(i) {
                faults.push(InjectedFault::Crashed { pid: Pid(i), at });
            }
            crashed_pending +=
                ops.iter().filter(|o| o.pid == Pid(i) && o.ret.is_none()).count() as u64;
        }
    }

    // Arrivals that never got admitted (the run ended — cap, truncation, or
    // a response that never came — while they sat in an ingress queue).
    let unadmitted: u64 = procs.iter().map(|p| p.ingress.len() as u64).sum();

    let run = Run {
        params,
        offsets: config.offsets.clone(),
        ops,
        msgs,
        views,
        last_time,
        events,
        errors,
        delay_violations,
        truncated,
        crashed_pending,
        unadmitted,
        msgs_sent,
        bytes_sent,
        faults,
        suspect: Vec::new(),
    };
    (run, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::value::Value;

    /// Echo node: responds to any invocation after a fixed local delay,
    /// optionally pinging all peers first.
    struct EchoNode {
        wait: Time,
        ping_peers: bool,
    }

    #[derive(Clone, PartialEq, Debug)]
    struct RespondTimer(Invocation);

    impl Node for EchoNode {
        type Msg = u32;
        type Timer = RespondTimer;

        fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<u32, RespondTimer>) {
            if self.ping_peers {
                fx.broadcast(7);
            }
            fx.set_timer(self.wait, RespondTimer(inv));
        }

        fn on_deliver(&mut self, _from: Pid, _msg: u32, _fx: &mut Effects<u32, RespondTimer>) {}

        fn on_timer(&mut self, t: RespondTimer, fx: &mut Effects<u32, RespondTimer>) {
            fx.respond(t.0.arg.clone());
        }
    }

    fn config() -> SimConfig {
        SimConfig::new(ModelParams::default_experiment(), DelaySpec::AllMax)
    }

    #[test]
    fn echo_round_trip() {
        let cfg = config().with_schedule(Schedule::new().at(
            Pid(0),
            Time(100),
            Invocation::new("echo", 5),
        ));
        let run = simulate(&cfg, |_| EchoNode { wait: Time(50), ping_peers: false });
        assert!(run.complete());
        assert_eq!(run.ops.len(), 1);
        assert_eq!(run.ops[0].ret, Some(Value::Int(5)));
        assert_eq!(run.ops[0].latency(), Some(Time(50)));
        assert!(run.errors.is_empty());
    }

    #[test]
    fn messages_are_delivered_with_spec_delay() {
        let cfg = SimConfig { record_messages: true, ..config() }
            .with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::nullary("go")));
        let run = simulate(&cfg, |_| EchoNode { wait: Time(1), ping_peers: true });
        assert_eq!(run.msgs.len(), 3);
        for m in &run.msgs {
            assert_eq!(m.delay(), Some(run.params.d));
        }
        assert!(run.is_admissible());
    }

    #[test]
    fn closed_loop_script_runs_sequentially() {
        let invs = vec![Invocation::new("a", 1), Invocation::new("b", 2), Invocation::new("c", 3)];
        let cfg = config().with_schedule(Schedule::new().script(crate::schedule::Script {
            pid: Pid(2),
            start: Time(10),
            gap: Time(5),
            invocations: invs,
        }));
        let run = simulate(&cfg, |_| EchoNode { wait: Time(20), ping_peers: false });
        assert_eq!(run.ops.len(), 3);
        assert_eq!(run.ops[0].t_invoke, Time(10));
        assert_eq!(run.ops[0].t_respond, Some(Time(30)));
        assert_eq!(run.ops[1].t_invoke, Time(35)); // 30 + gap 5
        assert_eq!(run.ops[2].t_invoke, Time(60));
        assert!(run.complete());
    }

    #[test]
    fn duplicate_scripts_are_rejected() {
        // `Schedule::script` asserts one script per process, but the field
        // is public: a second script at the same process must be refused,
        // not run with one of the two scripts' steps silently lost.
        let script = |start, first| crate::schedule::Script {
            pid: Pid(0),
            start: Time(start),
            gap: Time(5),
            invocations: (first..first + 3).map(|v| Invocation::new("write", v)).collect(),
        };
        let mut schedule = Schedule::new().script(script(10, 100));
        schedule.scripts.push(script(40, 200));
        let cfg = config().with_schedule(schedule);
        assert_eq!(cfg.validate(), Err("two scripts run at process p0".to_string()));
        let run = simulate(&cfg, |_| EchoNode { wait: Time(20), ping_peers: false });
        assert!(run.ops.is_empty());
        assert_eq!(run.errors, ["invalid configuration: two scripts run at process p0"]);
    }

    #[test]
    fn op_event_is_56_bytes() {
        assert_eq!(std::mem::size_of::<OpEvent>(), 56);
    }

    #[test]
    fn overlapping_invocations_are_rejected() {
        let cfg = config().with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::nullary("x")).at(
                Pid(0),
                Time(1),
                Invocation::nullary("y"),
            ), // overlaps (wait=50)
        );
        let run = simulate(&cfg, |_| EchoNode { wait: Time(50), ping_peers: false });
        assert_eq!(run.ops.len(), 1);
        assert_eq!(run.errors.len(), 1);
        assert!(run.errors[0].contains("pending"));
    }

    #[test]
    fn open_arrivals_queue_instead_of_erroring() {
        // Three arrivals at p0 within one service time (wait = 50): the
        // second and third queue and are served back-to-back, FIFO.
        let cfg = config().with_schedule(
            Schedule::new()
                .arrival(Pid(0), Time(0), Invocation::new("echo", 1))
                .arrival(Pid(0), Time(1), Invocation::new("echo", 2))
                .arrival(Pid(0), Time(2), Invocation::new("echo", 3)),
        );
        let run = simulate(&cfg, |_| EchoNode { wait: Time(50), ping_peers: false });
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert!(run.complete());
        assert_eq!(run.ops.len(), 3);
        assert_eq!(run.unadmitted, 0);
        // FIFO admission: values in arrival order.
        let rets: Vec<_> = run.ops.iter().map(|o| o.ret.clone().unwrap()).collect();
        assert_eq!(rets, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        // Admission happens at the previous response instant.
        assert_eq!(run.ops[0].t_invoke, Time(0));
        assert_eq!(run.ops[1].t_invoke, Time(50));
        assert_eq!(run.ops[2].t_invoke, Time(100));
    }

    #[test]
    fn open_arrivals_left_queued_are_counted() {
        // The run is cut at t = 60. The first arrival responds at 50, which
        // admits the second; its response would come at 100 > cap, so it
        // stays pending and the third never leaves the ingress queue.
        let cfg = SimConfig { max_real_time: Some(Time(60)), ..config() }.with_schedule(
            Schedule::new()
                .arrival(Pid(0), Time(0), Invocation::new("echo", 1))
                .arrival(Pid(0), Time(1), Invocation::new("echo", 2))
                .arrival(Pid(0), Time(2), Invocation::new("echo", 3)),
        );
        let run = simulate(&cfg, |_| EchoNode { wait: Time(50), ping_peers: false });
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert_eq!(run.ops.len(), 2, "second op admitted at 50, third still queued");
        assert_eq!(run.unadmitted, 1);
    }

    #[test]
    fn open_arrivals_report_ingress_metrics() {
        let (obs, _ring) = Obs::ring(64);
        let cfg = config()
            .with_schedule(
                Schedule::new().arrival(Pid(0), Time(0), Invocation::new("echo", 1)).arrival(
                    Pid(0),
                    Time(10),
                    Invocation::new("echo", 2),
                ),
            )
            .with_obs(obs.clone());
        let run = simulate(&cfg, |_| EchoNode { wait: Time(50), ping_peers: false });
        assert!(run.complete());
        assert_eq!(obs.metrics.counter("sim.ingress.queued").get(), 1);
        assert_eq!(obs.metrics.gauge("sim.ingress.depth").get(), 1);
        let wait = obs
            .metrics
            .histogram("sim.ingress.wait_ticks", &[6000, 24000, 96000, 384000, 1_536_000])
            .snapshot();
        assert_eq!(wait.count(), 1);
        // Arrived at 10, admitted at the response instant 50.
        assert_eq!(wait.mean(), Some(40.0));
    }

    #[test]
    fn same_instant_arrival_must_not_jump_the_ingress_queue() {
        // The third arrival lands at exactly the instant the first response
        // admits the queued second one. Schedule events carry setup-time
        // sequence numbers, so the fresh arrival sorts *before* the admission
        // event — if admission popped the queue when the response fired (not
        // when the admission event is processed), the popped op would be
        // re-queued behind the newcomer and per-process FIFO would break.
        let cfg = config().with_schedule(
            Schedule::new()
                .arrival(Pid(0), Time(0), Invocation::new("echo", 1))
                .arrival(Pid(0), Time(1), Invocation::new("echo", 2))
                .arrival(Pid(0), Time(50), Invocation::new("echo", 3)),
        );
        let run = simulate(&cfg, |_| EchoNode { wait: Time(50), ping_peers: false });
        assert!(run.complete(), "{run}");
        let rets: Vec<_> = run.ops.iter().map(|o| o.ret.clone().unwrap()).collect();
        assert_eq!(rets, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(run.ops[1].t_invoke, Time(50));
        assert_eq!(run.ops[2].t_invoke, Time(100));
    }

    #[test]
    fn admission_epochs_insert_quiescent_barriers() {
        // Epoch = 2: after every second admission the engine holds new
        // admissions until all pending operations respond, then reopens one
        // tick later. Four back-to-back arrivals at one process serve as
        // 0–50 and 101–151 epochs with a settled cut at 100/101.
        let (obs, _ring) = Obs::ring(64);
        let mut sched = Schedule::new();
        for i in 1..=4 {
            sched = sched.arrival(Pid(0), Time(0), Invocation::new("echo", i));
        }
        let cfg = config().with_schedule(sched).with_admission_epoch(2).with_obs(obs.clone());
        let run = simulate(&cfg, |_| EchoNode { wait: Time(50), ping_peers: false });
        assert!(run.complete(), "{run}");
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        let invokes: Vec<_> = run.ops.iter().map(|o| o.t_invoke).collect();
        // Ops 1–2 run back to back; the barrier then holds op 3 until one
        // tick after op 2's response (a strictly-later reopen, so an online
        // checker sees a settled cut), and ops 3–4 form the second epoch.
        assert_eq!(invokes, vec![Time(0), Time(50), Time(101), Time(151)]);
        let rets: Vec<_> = run.ops.iter().map(|o| o.ret.clone().unwrap()).collect();
        assert_eq!(rets, (1..=4).map(Value::Int).collect::<Vec<_>>());
        assert_eq!(obs.metrics.counter("sim.ingress.epochs").get(), 2);
    }

    /// An op event reduced to what the tests compare: `(is_respond, pid, t,
    /// arg or ret)`.
    type Seen = (bool, Pid, Time, Value);

    fn seen(ev: OpEvent) -> Seen {
        match ev {
            OpEvent::Invoke { pid, t, arg, .. } => (false, pid, t, arg),
            OpEvent::Respond { pid, t, ret } => (true, pid, t, ret),
        }
    }

    /// The sink stream implied by `run.ops`, in engine order. Exact for
    /// constant-wait [`EchoNode`]s on synchronized clocks: responses are
    /// timer events, which precede invocations at the same instant, and
    /// same-instant timers fire in the order they were set — invocation
    /// order, which is `ops` order.
    fn implied_events(run: &Run) -> Vec<Seen> {
        let mut evs: Vec<(usize, Seen)> = Vec::new();
        for (i, op) in run.ops.iter().enumerate() {
            evs.push((i, (false, op.pid, op.t_invoke, op.invocation.arg.clone())));
            if let (Some(t), Some(ret)) = (op.t_respond, &op.ret) {
                evs.push((i, (true, op.pid, t, ret.clone())));
            }
        }
        evs.sort_by_key(|&(i, (respond, _, t, _))| (t, !respond, i));
        evs.into_iter().map(|(_, ev)| ev).collect()
    }

    /// 350 operations (a 150-step script at p0, 200 open arrivals that queue
    /// at p1..p3): 700 op events, two full bursts and a partial one.
    fn sink_workload() -> SimConfig {
        let mut sched = Schedule::new().script(crate::schedule::Script {
            pid: Pid(0),
            start: Time(0),
            gap: Time(3),
            invocations: (0..150).map(|i| Invocation::new("echo", i)).collect(),
        });
        for i in 0..200 {
            let pid = Pid(1 + (i as usize) % 3);
            sched = sched.arrival(pid, Time(7 * i), Invocation::new("echo", 1000 + i));
        }
        config().with_schedule(sched)
    }

    fn echo(_: Pid) -> EchoNode {
        EchoNode { wait: Time(50), ping_peers: false }
    }

    /// Run `cfg` with a sink whose consumer thread keeps the first `keep`
    /// events and then hangs up; returns what it kept, after checking that
    /// the sink did not change the run.
    fn run_with_sink(cfg: &SimConfig, keep: usize) -> (Run, Vec<Seen>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let consumer =
            std::thread::spawn(move || rx.into_iter().take(keep).map(seen).collect::<Vec<_>>());
        let run = simulate(&cfg.clone().with_op_sink(tx), echo);
        let got = consumer.join().expect("consumer panicked");
        let bare = simulate(cfg, echo);
        assert_eq!(run.ops, bare.ops);
        assert_eq!(run.events, bare.events);
        assert_eq!(run.truncated, bare.truncated);
        (run, got)
    }

    #[test]
    fn sink_receives_every_event_at_every_exit_of_the_loop() {
        // Quiescence.
        let (run, got) = run_with_sink(&sink_workload(), usize::MAX);
        assert!(run.complete());
        assert_eq!(got.len(), 700);
        assert_eq!(got, implied_events(&run));

        // Cut by `max_real_time`, mid-burst, with operations still pending.
        let cut = SimConfig { max_real_time: Some(Time(2000)), ..sink_workload() };
        let (run, got) = run_with_sink(&cut, usize::MAX);
        assert!(run.pending().count() > 0 && run.unadmitted > 0);
        assert!(got.len() > SINK_BURST && got.len() % SINK_BURST != 0, "{}", got.len());
        assert_eq!(got, implied_events(&run));

        // Cut by `max_events`, mid-burst.
        let cut = SimConfig { max_events: 600, ..sink_workload() };
        let (run, got) = run_with_sink(&cut, usize::MAX);
        assert!(run.truncated);
        assert!(got.len() > SINK_BURST && got.len() % SINK_BURST != 0, "{}", got.len());
        assert_eq!(got, implied_events(&run));
    }

    #[test]
    fn sink_receiver_dropped_mid_run_is_ignored() {
        // The consumer hangs up 300 events in — inside the second burst —
        // while the engine is still producing; the failed sends are ignored.
        let (run, got) = run_with_sink(&sink_workload(), 300);
        assert!(run.complete() && run.errors.is_empty());
        assert_eq!(got, implied_events(&run)[..300]);
    }

    #[test]
    fn schedule_vector_order_does_not_matter() {
        // 40 arrivals at distinct instants (ten per process, 37 ticks apart,
        // so some queue behind a 50-tick service), given in time order and in
        // a scrambled vector order: the engine sorts them itself.
        fn build(order: impl Iterator<Item = i64>) -> SimConfig {
            let mut sched = Schedule::new();
            for i in order {
                let (pid, at, inv) =
                    (Pid((i % 4) as usize), Time(37 * i), Invocation::new("echo", i));
                // Even entries are open arrivals; odd ones (at p1, p3, always
                // idle by then) are timed.
                sched =
                    if i % 2 == 0 { sched.arrival(pid, at, inv) } else { sched.at(pid, at, inv) };
            }
            config().with_schedule(sched)
        }
        let sorted = simulate(&build(0..40), echo);
        let scrambled = simulate(&build((0..40).map(|k| (k * 17 + 5) % 40)), echo);
        assert!(sorted.complete() && sorted.errors.is_empty(), "{:?}", sorted.errors);
        assert_eq!(sorted.ops, scrambled.ops);
        assert_eq!(sorted.events, scrambled.events);
        // Pinned: every odd op is invoked on arrival; p0 and p2 each see an
        // arrival every 148 ticks, so theirs are too.
        let invokes: Vec<_> = sorted.ops.iter().map(|o| o.t_invoke).collect();
        assert_eq!(invokes, (0..40).map(|i| Time(37 * i)).collect::<Vec<_>>());
        assert_eq!(sorted.events, 80);
    }

    #[test]
    fn scheduled_arrivals_tie_runtime_events_in_key_order() {
        // At t = 30 four kinds of event meet: deliveries of p0's broadcast
        // (class 0), p2's response timer (class 1), and three class-2 events
        // — a timed arrival at p1 and an open arrival at p2 (setup-time
        // sequence numbers) and the admission marker p2's response pushes
        // (run-time sequence number, so it sorts last).
        let params = ModelParams::new(3, Time(30), Time(10), Time(5));
        let cfg = SimConfig::new(params, DelaySpec::AllMax).with_schedule(
            Schedule::new()
                .at(Pid(0), Time(0), Invocation::new("echo", 1))
                .arrival(Pid(2), Time(20), Invocation::new("echo", 2))
                .arrival(Pid(2), Time(25), Invocation::new("echo", 3))
                .arrival(Pid(2), Time(30), Invocation::new("echo", 4))
                .at(Pid(1), Time(30), Invocation::new("echo", 5)),
        );
        let run = simulate(&cfg, |_| EchoNode { wait: Time(10), ping_peers: true });
        assert!(run.complete() && run.errors.is_empty(), "{:?}", run.errors);
        let got: Vec<_> =
            run.ops.iter().map(|o| (o.invocation.arg.clone(), o.pid, o.t_invoke)).collect();
        assert_eq!(
            got,
            vec![
                (Value::Int(1), Pid(0), Time(0)),
                (Value::Int(2), Pid(2), Time(20)),
                // The timed arrival goes first among the class-2 events; the
                // open arrival at 30 queues behind op 3 (FIFO), which the
                // marker then admits.
                (Value::Int(5), Pid(1), Time(30)),
                (Value::Int(3), Pid(2), Time(30)),
                (Value::Int(4), Pid(2), Time(40)),
            ]
        );
        // 5 invocations + 2 queued arrivals + 10 deliveries + 5 timers.
        assert_eq!(run.events, 22);
    }

    #[test]
    fn stalled_scheduled_arrival_is_deferred_through_the_heap() {
        use crate::faults::FaultPlan;
        // p1 is stalled over [5, 40): its arrival at 10 moves to 40 with a
        // fresh sequence number, behind the arrival already scheduled at 40.
        let plan = FaultPlan::new(1).stall(Pid(1), Time(5), Time(40));
        let cfg = config()
            .with_schedule(
                Schedule::new()
                    .arrival(Pid(1), Time(10), Invocation::new("echo", 1))
                    .arrival(Pid(1), Time(40), Invocation::new("echo", 2))
                    .at(Pid(0), Time(10), Invocation::new("echo", 3)),
            )
            .with_faults(plan);
        let run = simulate(&cfg, echo);
        assert!(run.complete() && run.errors.is_empty(), "{:?}", run.errors);
        let got: Vec<_> = run.ops.iter().map(|o| (o.ret.clone().unwrap(), o.t_invoke)).collect();
        assert_eq!(
            got,
            vec![(Value::Int(3), Time(10)), (Value::Int(2), Time(40)), (Value::Int(1), Time(90)),]
        );
        // 3 invocations + 1 queued arrival + 3 timers (the deferral itself is
        // not an event).
        assert_eq!(run.events, 7);
    }

    #[test]
    fn determinism_identical_reruns() {
        let cfg = SimConfig { record_messages: true, record_views: true, ..config() }
            .with_schedule(
                Schedule::new()
                    .at(Pid(0), Time(0), Invocation::new("echo", 1))
                    .at(Pid(1), Time(0), Invocation::new("echo", 2))
                    .at(Pid(2), Time(3), Invocation::new("echo", 3)),
            );
        let r1 = simulate(&cfg, |_| EchoNode { wait: Time(9), ping_peers: true });
        let r2 = simulate(&cfg, |_| EchoNode { wait: Time(9), ping_peers: true });
        assert_eq!(r1.ops, r2.ops);
        assert_eq!(r1.msgs, r2.msgs);
        assert!(r1.views_equal(&r2));
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn max_real_time_stops_the_run() {
        let cfg = SimConfig { max_real_time: Some(Time(25)), ..config() }.with_schedule(
            Schedule::new().script(crate::schedule::Script {
                pid: Pid(0),
                start: Time(0),
                gap: Time(0),
                invocations: vec![Invocation::nullary("x"); 100],
            }),
        );
        let run = simulate(&cfg, |_| EchoNode { wait: Time(10), ping_peers: false });
        // Only ops fully inside [0, 25] complete: invocations at 0, 10, 20.
        assert!(run.ops.len() <= 3);
        assert!(run.last_time <= Time(25));
    }

    /// Node that sets a timer then cancels it upon a message.
    struct CancelNode;
    impl Node for CancelNode {
        type Msg = ();
        type Timer = u8;
        fn on_invoke(&mut self, _inv: Invocation, fx: &mut Effects<(), u8>) {
            fx.set_timer(Time(100), 1); // would respond late
            fx.send(Pid(1), ());
        }
        fn on_deliver(&mut self, _from: Pid, _msg: (), fx: &mut Effects<(), u8>) {
            // p1 echoes back; p0 cancels the slow timer and responds fast.
            if fx.pid() == Pid(1) {
                fx.send(Pid(0), ());
            } else {
                fx.cancel_timer(1);
                fx.respond(Value::Int(99));
            }
        }
        fn on_timer(&mut self, _t: u8, fx: &mut Effects<(), u8>) {
            fx.respond(Value::Int(-1));
        }
    }

    #[test]
    fn timer_cancellation_prevents_firing() {
        let params = ModelParams::new(2, Time(30), Time(10), Time(5));
        let cfg = SimConfig::new(params, DelaySpec::AllMin).with_schedule(Schedule::new().at(
            Pid(0),
            Time(0),
            Invocation::nullary("x"),
        ));
        let run = simulate(&cfg, |_| CancelNode);
        assert!(run.complete());
        // Round trip of 2 × (d-u) = 40 < timer 100, so cancel wins.
        assert_eq!(run.ops[0].ret, Some(Value::Int(99)));
        assert_eq!(run.ops[0].latency(), Some(Time(40)));
        assert!(run.errors.is_empty());
    }

    /// p0 arms `armed` (delay, tag) at its invocation and pings p1; on the
    /// echo it cancels tag 1 and then arms `rearmed`. Every firing responds
    /// with its tag, so a second firing shows up as a "no pending op" error.
    struct TimerPlay {
        armed: Vec<(i64, u8)>,
        rearmed: Vec<(i64, u8)>,
    }

    impl Node for TimerPlay {
        type Msg = ();
        type Timer = u8;
        fn on_invoke(&mut self, _inv: Invocation, fx: &mut Effects<(), u8>) {
            for &(delay, tag) in &self.armed {
                fx.set_timer(Time(delay), tag);
            }
            fx.send(Pid(1), ());
        }
        fn on_deliver(&mut self, _from: Pid, _msg: (), fx: &mut Effects<(), u8>) {
            if fx.pid() == Pid(1) {
                fx.send(Pid(0), ());
                return;
            }
            fx.cancel_timer(1);
            for &(delay, tag) in &self.rearmed {
                fx.set_timer(Time(delay), tag);
            }
        }
        fn on_timer(&mut self, tag: u8, fx: &mut Effects<(), u8>) {
            fx.respond(Value::Int(tag.into()));
        }
    }

    /// Run one `TimerPlay` invocation at p0 over a 40-tick round trip.
    fn timer_play(armed: Vec<(i64, u8)>, rearmed: Vec<(i64, u8)>) -> Run {
        let params = ModelParams::new(2, Time(30), Time(10), Time(5));
        let cfg = SimConfig::new(params, DelaySpec::AllMin).with_schedule(Schedule::new().at(
            Pid(0),
            Time(0),
            Invocation::nullary("x"),
        ));
        simulate(&cfg, |_| TimerPlay { armed: armed.clone(), rearmed: rearmed.clone() })
    }

    #[test]
    fn cancel_then_rearm_of_one_tag_fires_once() {
        // Armed for 100, cancelled at 40 and re-armed for 50 in the same
        // transition: only the re-armed timer fires.
        let run = timer_play(vec![(100, 1)], vec![(10, 1)]);
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert_eq!(run.ops[0].ret, Some(Value::Int(1)));
        assert_eq!(run.ops[0].latency(), Some(Time(50)));
        // Invocation, two deliveries, the firing, and the cancelled timer's
        // pop at 100: a cancelled pop still counts as an event.
        assert_eq!(run.events, 5);
    }

    #[test]
    fn cancelling_a_tag_kills_every_live_timer_with_it() {
        // Two live timers share tag 1; one cancellation kills both, so the
        // tag-2 timer at 300 is the only one to fire.
        let run = timer_play(vec![(100, 1), (200, 1), (300, 2)], vec![]);
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert_eq!(run.ops[0].ret, Some(Value::Int(2)));
        assert_eq!(run.ops[0].latency(), Some(Time(300)));
        // The invocation, two deliveries, and all three timer pops.
        assert_eq!(run.events, 6);
    }

    #[test]
    fn ordinal_sorts_exactly_like_the_key_tuple() {
        let times = [i64::MIN, -6000, -1, 0, 1, 6000, i64::MAX];
        let seqs = [0, 1, 2, 41, 42, SEQ_LIMIT - 2, SEQ_LIMIT - 1];
        let mut keys = Vec::new();
        for t in times {
            for class in [DELIVER, TIMER, INVOKE] {
                for seq in seqs {
                    keys.push((Time(t), class, seq));
                }
            }
        }
        keys.sort();
        // Any slots, even ones running against the key order, keep it: the
        // sequence number decides before the slot bits are reached.
        let slot = |i: usize| [SLOT_LIMIT - 1, 0, 1, SLOT_LIMIT / 2][i % 4];
        for (i, w) in keys.windows(2).enumerate() {
            let (a, b) = (w[0], w[1]);
            let (oa, ob) = (ordinal(a.0, a.1, a.2), ordinal(b.0, b.1, b.2));
            assert!(oa < ob, "{a:?} vs {b:?}");
            let (sa, sb) = (oa | slot(i) as u128, ob | slot(i + 1) as u128);
            assert!(sa < sb, "{a:?} vs {b:?} with slots");
        }
        for (i, (time, class, seq)) in keys.into_iter().enumerate() {
            let ord = ordinal(time, class, seq) | slot(i) as u128;
            assert_eq!(
                (ordinal_time(ord), ordinal_class(ord), ordinal_slot(ord)),
                (time, class, slot(i))
            );
        }
    }

    #[test]
    fn exhausted_sequence_numbers_refuse_new_events() {
        let mut queue: EventQueue<()> = EventQueue::new();
        queue.seq = SEQ_LIMIT - 1;
        assert_eq!(queue.exhausted(), None);
        queue.push(Time(5), DELIVER, Pid(0), EventKind::AdmitIngress);
        assert!(queue.exhausted().is_some_and(|e| e.contains("sequence numbers exhausted")));
        // Refused rather than given a wrapped or repeated sequence number.
        queue.push(Time(1), DELIVER, Pid(0), EventKind::AdmitIngress);
        let (ord, _, _) = queue.pop().expect("the last numbered event is queued");
        assert_eq!(ord >> SLOT_BITS, ordinal(Time(5), DELIVER, SEQ_LIMIT - 1) >> SLOT_BITS);
        assert!(queue.pop().is_none());
    }

    #[test]
    fn exhausted_slots_refuse_new_events() {
        let mut queue: EventQueue<()> = EventQueue { slot_limit: 2, ..EventQueue::new() };
        queue.push(Time(3), TIMER, Pid(0), EventKind::Timer { id: 0 });
        queue.push(Time(1), TIMER, Pid(1), EventKind::Timer { id: 1 });
        assert_eq!(queue.exhausted(), None);
        // A third pending event finds no slot: refused, and the queue says
        // why, rather than overwriting a pending event or panicking.
        queue.push(Time(2), TIMER, Pid(2), EventKind::Timer { id: 2 });
        assert!(queue.exhausted().is_some_and(|e| e.contains("slots exhausted (2 events")));
        let order: Vec<_> = std::iter::from_fn(|| queue.pop())
            .map(|(ord, pid, _)| (ordinal_time(ord), pid))
            .collect();
        assert_eq!(order, vec![(Time(1), Pid(1)), (Time(3), Pid(0))]);
    }

    #[test]
    fn freed_slots_are_reused_without_disturbing_the_order() {
        // Freed slots go to later events whose keys sort before and after
        // the pending ones; the pops still follow (time, class, seq) alone.
        let mut queue: EventQueue<()> = EventQueue { slot_limit: 3, ..EventQueue::new() };
        for (t, id) in [(9, 0), (8, 1), (7, 2)] {
            queue.push(Time(t), TIMER, Pid(0), EventKind::Timer { id });
        }
        let mut fired = Vec::new();
        for (t, id) in [(9, 3), (9, 4), (1, 5)] {
            let (ord, _, kind) = queue.pop().expect("pending event");
            let EventKind::Timer { id: got } = kind else { unreachable!() };
            fired.push((ordinal_time(ord).as_ticks(), got));
            queue.push(Time(t), TIMER, Pid(0), EventKind::Timer { id });
        }
        while let Some((ord, _, EventKind::Timer { id })) = queue.pop() {
            fired.push((ordinal_time(ord).as_ticks(), id));
        }
        assert_eq!(queue.exhausted(), None);
        assert_eq!(fired, vec![(7, 2), (8, 1), (9, 0), (1, 5), (9, 3), (9, 4)]);
    }

    #[test]
    fn event_ordering_delivers_before_timers() {
        // A deliver and a timer scheduled for the same instant: deliver wins,
        // so the CancelNode cancels its timer exactly at the tie.
        let params = ModelParams::new(2, Time(50), Time(10), Time(5));
        let cfg = SimConfig::new(params, DelaySpec::AllMax).with_schedule(Schedule::new().at(
            Pid(0),
            Time(0),
            Invocation::nullary("x"),
        ));
        // Round trip = 100 = timer fire time.
        let run = simulate(&cfg, |_| CancelNode);
        assert_eq!(run.ops[0].ret, Some(Value::Int(99)));
    }

    #[test]
    fn shifted_config_follows_theorem_1() {
        let cfg = config();
        let x = vec![Time(100), Time(-100), Time(0), Time(0)];
        let shifted = cfg.shifted(&x);
        assert_eq!(shifted.offsets[0], Time(-100));
        assert_eq!(shifted.offsets[1], Time(100));
        let m = shifted.delay.as_matrix().unwrap();
        // d' = d - x_0 + x_1 = 6000 - 100 - 100.
        assert_eq!(m[0][1], Time(5800));
        assert_eq!(m[1][0], Time(6200));
        assert_eq!(m[2][3], Time(6000));
    }

    #[test]
    fn crash_during_inflight_op_counts_as_crashed_pending() {
        use crate::faults::FaultPlan;
        // p0 invokes at t=0 and would respond at t=50 via timer; the crash at
        // t=10 discards the response. p1's identical op is unaffected. The
        // pending op must be attributed to the crash in the honesty flags.
        let plan = FaultPlan::new(1).crash(Pid(0), Time(10));
        let cfg = config()
            .with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::new("echo", 5)).at(
                Pid(1),
                Time(0),
                Invocation::new("echo", 6),
            ))
            .with_faults(plan);
        let run = simulate(&cfg, |_| EchoNode { wait: Time(50), ping_peers: false });
        assert!(!run.complete());
        assert_eq!(run.pending().count(), 1);
        assert_eq!(run.crashed_pending, 1);
        assert!(
            run.faults
                .iter()
                .any(|f| matches!(f, InjectedFault::Crashed { pid: Pid(0), at: Time(10) })),
            "crash must be recorded even though only a timer was discarded: {:?}",
            run.faults
        );
    }

    #[test]
    fn send_accounting_counts_messages_and_bytes() {
        let cfg =
            config().with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::new("echo", 1)));
        let (obs, _ring) = Obs::ring(64);
        let run =
            simulate(&cfg.with_obs(obs.clone()), |_| EchoNode { wait: Time(1), ping_peers: true });
        // One broadcast to 3 peers; Msg = u32 → 4 bytes each by default.
        assert_eq!(run.msgs_sent, 3);
        assert_eq!(run.bytes_sent, 12);
        assert_eq!(obs.metrics.counter("sim.msg.bytes").get(), 12);
        assert_eq!(run.msgs_per_completed_op(), Some(3.0));
    }

    #[test]
    fn observed_run_traces_events_and_counts_metrics() {
        use crate::faults::FaultPlan;
        use lintime_obs::Obs;
        let (obs, ring) = Obs::ring(4096);
        let plan = FaultPlan::new(7).drop_exact(Pid(0), Pid(1), 0).crash(Pid(3), Time(1));
        let cfg = config()
            .with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::new("echo", 1)).at(
                Pid(3),
                Time(10),
                Invocation::new("echo", 2),
            ))
            .with_faults(plan)
            .with_obs(obs.clone());
        let run = simulate(&cfg, |_| EchoNode { wait: Time(9), ping_peers: true });
        let cats: std::collections::HashSet<_> = ring.events().iter().map(|e| e.category).collect();
        for want in [
            lintime_obs::EventCategory::OpInvoke,
            lintime_obs::EventCategory::Send,
            lintime_obs::EventCategory::Recv,
            lintime_obs::EventCategory::Drop,
            lintime_obs::EventCategory::Crash,
            lintime_obs::EventCategory::OpRespond,
        ] {
            assert!(cats.contains(&want), "missing {want} in {cats:?}");
        }
        let m = &obs.metrics;
        assert_eq!(m.counter("sim.events").get(), run.events);
        assert_eq!(m.counter("sim.fault.drops").get(), 1);
        assert_eq!(m.counter("sim.op.responses").get(), 1, "p3 crashed before responding");
        assert_eq!(
            m.histogram("sim.op.latency_ticks", &[1500, 3000, 6000, 12000, 24000, 48000])
                .snapshot()
                .count(),
            1
        );
    }

    #[test]
    fn observability_does_not_perturb_the_run() {
        let cfg = config().with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::new("echo", 1)).at(
                Pid(1),
                Time(3),
                Invocation::new("echo", 2),
            ),
        );
        let bare = simulate(&cfg, |_| EchoNode { wait: Time(9), ping_peers: true });
        let (obs, _ring) = lintime_obs::Obs::ring(1024);
        let observed =
            simulate(&cfg.with_obs(obs), |_| EchoNode { wait: Time(9), ping_peers: true });
        assert_eq!(bare.ops, observed.ops);
        assert_eq!(bare.events, observed.events);
    }

    #[test]
    fn inadmissible_config_detected() {
        let mut cfg = config();
        assert!(cfg.admissible().is_ok());
        cfg.offsets[0] = Time(99999);
        assert!(cfg.admissible().is_err());
        let bad_delay =
            SimConfig::new(ModelParams::default_experiment(), DelaySpec::Constant(Time(1)));
        assert!(bad_delay.admissible().is_err());
    }
}
