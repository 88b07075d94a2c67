//! One OS thread per process: the live counterpart of the simulator's event
//! loop, driving the *same* [`Node`] implementations, and the network
//! between them.
//!
//! **One queue per node.** A node thread keeps everything it has yet to
//! handle — deliveries, timers and invocations — in one queue keyed
//! `(due, kind, arrival)`, so same-instant events keep the engine's order:
//! deliveries, then timers, then invocations. Each pass of its loop takes
//! the time, drains its inbox into the queue (an invocation is due the
//! moment it is drained), handles every event due by then in order, and
//! sleeps until the next event is due or the next input arrives.
//!
//! **Logical time.** A handler's clock reads the event's logical time —
//! `max(due, the logical time of the last event handled)` plus the process's
//! offset — not the wall clock. A thread held off the CPU therefore handles
//! what piled up in the order the model prescribes: a delivery that was due
//! before an overdue timer still runs first. A message handled more than `d`
//! after its logical send (or sooner than `d − u`) is a delay violation;
//! with none of those and no injected faults, a live run is an admissible
//! execution in logical time. Operation records keep wall-clock response
//! times, so every recorded interval contains the logical one.
//!
//! **Sending.** A node stamps each message with its due tick — the sending
//! handler's logical time plus a delay drawn from the cluster's
//! [`DelaySpec`] for the link's `k`-th message — applies the cluster's
//! [`FaultPlan`] to the same `(from, to, k)` (drop, duplicate, delay
//! override), and puts the message straight into the receiver's inbox.
//!
//! **Work.** Each handler accounts its effects in the cluster's
//! [`WorkCount`] before it releases the unit of the event it handled, which
//! is how the harness knows when a run has drained. A node thread converts
//! a panic into a diagnosed output instead of a silent hang — the harness
//! watchdog relies on this to fail fast.

use crate::clock::LiveClock;
use crate::work::WorkCount;
use lintime_adt::spec::Invocation;
use lintime_obs::{Counter, EventCategory, Obs};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::OpEvent;
use lintime_sim::faults::{FaultPlan, InjectedFault};
use lintime_sim::node::{Effects, Node};
use lintime_sim::run::OpRecord;
use lintime_sim::time::{ModelParams, Pid, Time};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything a node thread can receive: a message from another node or a
/// command from the harness, merged into one channel so a plain
/// `recv_timeout` drives the loop.
pub(crate) enum NodeInput<M> {
    /// A message from another process.
    Deliver {
        /// The sender.
        from: Pid,
        /// Logical time of the handler that sent it.
        sent: Time,
        /// Real tick at which it is due: `sent` plus its delay.
        due: Time,
        /// The payload.
        msg: M,
    },
    /// Invoke an operation at this process.
    Invoke(Invocation),
    /// Stop the event loop and report the records.
    Shutdown,
}

/// What the node threads of one cluster share: the network's model, delays
/// and fault plan, each other's inboxes, and the cluster's bookkeeping.
pub(crate) struct Network<M> {
    /// Model parameters, in virtual ticks.
    pub params: ModelParams,
    /// Message-delay model (same specs as the simulator).
    pub delay: DelaySpec,
    /// Faults injected into the nodes' sends.
    pub faults: Option<FaultPlan>,
    /// `inboxes[i]` is process `p_i`'s input channel.
    pub inboxes: Vec<Sender<NodeInput<M>>>,
    /// Where node threads stream operation events (see
    /// [`crate::harness::LiveConfig::op_sink`]).
    pub op_sink: Option<Sender<OpEvent>>,
    /// Observability bundle.
    pub obs: Obs,
    /// Outstanding invocations, messages and timers.
    pub work: WorkCount,
}

/// What a node thread hands back on shutdown.
#[derive(Default)]
pub(crate) struct NodeOutput {
    /// Operations invoked at this process, with measured tick intervals.
    pub records: Vec<OpRecord>,
    /// Protocol errors observed (e.g. overlapping invocations).
    pub errors: Vec<String>,
    /// True iff the node thread panicked (records are lost; `errors` holds
    /// the panic diagnosis).
    pub panicked: bool,
    /// Messages this process handled, injected duplicates included.
    pub delivered: u64,
    /// Messages this process handled whose logical delay fell outside
    /// `[d − u, d]`.
    pub delay_violations: u64,
    /// Faults injected into this process's sends, in injection order.
    pub faults: Vec<InjectedFault>,
}

/// Spawn the event loop for one process. The thread reports its
/// [`NodeOutput`] through `results` when it shuts down — also when it
/// panics, so the harness never joins a handle that will never finish.
///
/// `clock` is called on the new thread before the loop starts, so a caller
/// can bind the epoch only once the thread is up (the harness's readiness
/// handshake). Every input the node handles, message it sends and timer it
/// arms is accounted in `net.work` (see [`crate::work`]).
pub(crate) fn spawn_node<N: Node + 'static>(
    pid: Pid,
    clock: impl FnOnce() -> LiveClock + Send + 'static,
    node: N,
    inputs: Receiver<NodeInput<N::Msg>>,
    net: Arc<Network<N::Msg>>,
    results: Sender<(Pid, NodeOutput)>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lintime-node-{pid}"))
        .spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(|| {
                let n = net.params.n;
                let metrics = net.obs.is_active().then(|| NetMetrics::register(&net.obs));
                let state = NodeState {
                    pid,
                    clock: clock(),
                    net,
                    metrics,
                    queue: BTreeMap::new(),
                    seq: 0,
                    timers: Vec::new(),
                    next_k: vec![0; n],
                    logical: Time::ZERO,
                    pending: None,
                    out: NodeOutput::default(),
                };
                node_loop(node, inputs, state)
            }))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                NodeOutput {
                    errors: vec![format!("{pid}: node thread panicked: {msg}")],
                    panicked: true,
                    ..NodeOutput::default()
                }
            });
            // The harness may have given up on us already; that's fine.
            let _ = results.send((pid, out));
        })
        .expect("spawn node thread")
}

/// Event kinds, in their order at equal due ticks (the engine's order).
const DELIVER: u8 = 0;
const TIMER: u8 = 1;
const INVOKE: u8 = 2;

/// An event a node thread has yet to handle.
enum Event<M> {
    Deliver { from: Pid, sent: Time, msg: M },
    Timer(u64),
    Invoke(Invocation),
}

/// Network counters under their established `router.*` names (only built
/// when `obs` is active).
struct NetMetrics {
    routed: Counter,
    drops: Counter,
    duplicates: Counter,
    delay_overrides: Counter,
}

impl NetMetrics {
    fn register(obs: &Obs) -> NetMetrics {
        let r = &obs.metrics;
        NetMetrics {
            routed: r.counter("router.routed"),
            drops: r.counter("router.fault.drops"),
            duplicates: r.counter("router.fault.duplicates"),
            delay_overrides: r.counter("router.fault.delay_overrides"),
        }
    }
}

/// Everything a node thread owns besides the [`Node`] itself.
struct NodeState<M, T> {
    pid: Pid,
    clock: LiveClock,
    net: Arc<Network<M>>,
    metrics: Option<NetMetrics>,
    /// Events keyed `(due, kind, arrival)`.
    queue: BTreeMap<(Time, u8, u64), Event<M>>,
    /// Arrival numbers and timer ids.
    seq: u64,
    /// Armed timers by id; a queued timer event whose id is gone was
    /// cancelled.
    timers: Vec<(u64, T)>,
    /// Messages sent so far on each outgoing link: the next message's `k`.
    next_k: Vec<u64>,
    /// Logical time of the last event handled.
    logical: Time,
    pending: Option<usize>,
    out: NodeOutput,
}

fn node_loop<N: Node>(
    mut node: N,
    inputs: Receiver<NodeInput<N::Msg>>,
    mut st: NodeState<N::Msg, N::Timer>,
) -> NodeOutput {
    let mut received = None;
    loop {
        let now = st.clock.real_now();
        let mut shutdown = false;
        for input in received.take().into_iter().chain(inputs.try_iter()) {
            match input {
                NodeInput::Deliver { from, sent, due, msg } => {
                    st.push(due, DELIVER, Event::Deliver { from, sent, msg })
                }
                NodeInput::Invoke(inv) => st.push(now, INVOKE, Event::Invoke(inv)),
                NodeInput::Shutdown => {
                    shutdown = true;
                    break;
                }
            }
        }
        while let Some(entry) = st.queue.first_entry().filter(|e| e.key().0 <= now) {
            let ((due, _, _), event) = entry.remove_entry();
            st.handle(&mut node, due, event);
        }
        if shutdown {
            return st.out;
        }
        let timeout = st
            .queue
            .keys()
            .next()
            .map(|&(due, _, _)| {
                st.clock.instant_at_real(due).saturating_duration_since(Instant::now())
            })
            .unwrap_or(Duration::from_millis(20));
        match inputs.recv_timeout(timeout) {
            Ok(input) => received = Some(input),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return st.out,
        }
    }
}

impl<M: Clone + Send, T: Clone + PartialEq> NodeState<M, T> {
    fn push(&mut self, due: Time, kind: u8, event: Event<M>) {
        self.queue.insert((due, kind, self.seq), event);
        self.seq += 1;
    }

    /// Run the handler of one due event at its logical time.
    fn handle<N: Node<Msg = M, Timer = T>>(&mut self, node: &mut N, due: Time, event: Event<M>) {
        let pid = self.pid;
        self.logical = self.logical.max(due);
        let mut fx = Effects::new(pid, self.net.params.n, self.logical + self.clock.offset());
        match event {
            Event::Deliver { from, sent, msg } => {
                if !self.net.params.delay_ok(self.logical - sent) {
                    self.out.delay_violations += 1;
                }
                self.out.delivered += 1;
                self.net.obs.emit(self.logical.0, Some(pid.0), EventCategory::Recv, || {
                    format!("from {from}, sent at {sent}")
                });
                if let Some(m) = &self.metrics {
                    m.routed.inc();
                }
                node.on_deliver(from, msg, &mut fx);
            }
            Event::Timer(id) => {
                // A cancelled timer released its unit when it was cancelled.
                let Some(at) = self.timers.iter().position(|(t, _)| *t == id) else { return };
                let (_, tag) = self.timers.swap_remove(at);
                node.on_timer(tag, &mut fx);
            }
            Event::Invoke(inv) => {
                if self.pending.is_some() {
                    self.out.errors.push(format!(
                        "{pid}: invocation {inv:?} while another operation is pending"
                    ));
                    self.net.work.done(1);
                    return;
                }
                self.pending = Some(self.out.records.len());
                let t_invoke = self.logical;
                self.out.records.push(OpRecord {
                    pid,
                    invocation: inv.clone(),
                    ret: None,
                    t_invoke,
                    t_respond: None,
                });
                if let Some(sink) = &self.net.op_sink {
                    // A live consumer that hung up is not a node failure.
                    let _ = sink.send(OpEvent::Invoke {
                        pid,
                        t: t_invoke,
                        op: inv.op,
                        arg: inv.arg.clone(),
                    });
                }
                node.on_invoke(inv, &mut fx);
            }
        }
        self.apply(fx);
    }

    /// Carry out one handler's effects, then release the unit of work of
    /// the event that ran it: the effects' own units are added first, so
    /// the count cannot reach zero while they are in flight.
    fn apply(&mut self, fx: Effects<M, T>) {
        let pid = self.pid;
        let parts = fx.into_parts();
        self.net.work.add(parts.sends.len() + parts.timers_set.len());
        for tag in parts.timers_cancelled {
            let before = self.timers.len();
            self.timers.retain(|(_, t)| *t != tag);
            self.net.work.done(before - self.timers.len());
        }
        for (to, msg) in parts.sends {
            self.send(to, msg);
        }
        for (local_fire, tag) in parts.timers_set {
            let id = self.seq;
            self.timers.push((id, tag));
            self.push(local_fire - self.clock.offset(), TIMER, Event::Timer(id));
        }
        if let Some(ret) = parts.response {
            match self.pending.take() {
                Some(idx) => {
                    let t_respond = self.clock.real_now();
                    if let Some(sink) = &self.net.op_sink {
                        let _ = sink.send(OpEvent::Respond { pid, t: t_respond, ret: ret.clone() });
                    }
                    self.out.records[idx].ret = Some(ret);
                    self.out.records[idx].t_respond = Some(t_respond);
                }
                None => self.out.errors.push(format!("{pid}: response with no pending operation")),
            }
        }
        self.net.work.done(1);
    }

    /// Send the link's next message: draw its delay, apply the fault plan,
    /// and put each surviving copy into the receiver's inbox.
    fn send(&mut self, to: Pid, msg: M) {
        let (from, sent, net) = (self.pid, self.logical, &*self.net);
        let k = self.next_k[to.0];
        self.next_k[to.0] += 1;
        let mut delay = net.delay.delay(net.params, from, to, k);
        net.obs.emit(sent.0, Some(from.0), EventCategory::Send, || {
            format!("to {to} k={k} delay={delay}")
        });
        if let Some(plan) = &net.faults {
            if let Some(over) = plan.delay_override(from, to, k) {
                delay = over;
                self.out.faults.push(InjectedFault::DelayOverridden { from, to, k, delay });
                net.obs.emit(sent.0, Some(from.0), EventCategory::DelayOverride, || {
                    format!("to {to} k={k}: delay forced to {over}")
                });
                if let Some(m) = &self.metrics {
                    m.delay_overrides.inc();
                }
            }
            if plan.should_drop(from, to, k) {
                self.out.faults.push(InjectedFault::Dropped { from, to, k, t_send: sent });
                net.obs.emit(sent.0, Some(from.0), EventCategory::Drop, || {
                    format!("to {to} k={k} dropped")
                });
                if let Some(m) = &self.metrics {
                    m.drops.inc();
                }
                net.work.done(1);
                return;
            }
            if plan.should_duplicate(from, to, k) {
                let t_extra = sent + plan.duplicate_delay(net.params, from, to, k);
                self.out.faults.push(InjectedFault::Duplicated { from, to, k, t_extra });
                net.obs.emit(sent.0, Some(from.0), EventCategory::Duplicate, || {
                    format!("to {to} k={k}: second copy due at {t_extra}")
                });
                if let Some(m) = &self.metrics {
                    m.duplicates.inc();
                }
                net.work.add(1);
                post(net, from, to, sent, t_extra, msg.clone());
            }
        }
        post(net, from, to, sent, sent + delay, msg);
    }
}

/// Put one message into `to`'s inbox. An inbox that is closed belongs to a
/// node that has already shut down: the message is dropped quietly.
fn post<M>(net: &Network<M>, from: Pid, to: Pid, sent: Time, due: Time, msg: M) {
    if net.inboxes[to.0].send(NodeInput::Deliver { from, sent, due, msg }).is_err() {
        net.work.done(1);
    }
}
