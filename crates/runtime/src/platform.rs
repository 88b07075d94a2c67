//! One OS thread per process: the live counterpart of the simulator's event
//! loop, driving the *same* [`Node`] implementations.
//!
//! Each node thread consumes a single merged input channel
//! ([`NodeInput`]: deliveries from the router plus commands from the
//! harness), reports its [`NodeOutput`] through a results channel when it
//! shuts down, and converts panics into a diagnosed output instead of a
//! silent hang — the harness watchdog relies on this to fail fast. Each
//! handler accounts its effects in the cluster's [`WorkCount`] before it
//! releases the unit of the input or timer it handled, which is how the
//! harness knows when a run has drained.

use crate::clock::LiveClock;
use crate::router::Envelope;
use crate::work::WorkCount;
use lintime_adt::spec::Invocation;
use lintime_sim::engine::OpEvent;
use lintime_sim::node::{Effects, Node};
use lintime_sim::run::OpRecord;
use lintime_sim::time::Pid;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Commands from the harness to a node thread.
pub enum Command {
    /// Invoke an operation at this process.
    Invoke(Invocation),
    /// Stop the event loop and report the records.
    Shutdown,
}

/// Everything a node thread can receive: a routed message or a harness
/// command, merged into one channel so a plain `recv_timeout` drives the
/// loop.
pub enum NodeInput<M> {
    /// A message from another process, tagged with the sender.
    Deliver(Pid, M),
    /// A command from the harness.
    Command(Command),
}

impl<M> From<(Pid, M)> for NodeInput<M> {
    fn from((from, msg): (Pid, M)) -> Self {
        NodeInput::Deliver(from, msg)
    }
}

/// What a node thread hands back on shutdown.
pub struct NodeOutput {
    /// Operations invoked at this process, with measured tick intervals.
    pub records: Vec<OpRecord>,
    /// Protocol errors observed (e.g. overlapping invocations).
    pub errors: Vec<String>,
    /// True iff the node thread panicked (records are lost; `errors` holds
    /// the panic diagnosis).
    pub panicked: bool,
}

struct PendingTimer<T> {
    due: Instant,
    id: u64,
    tag: T,
}

/// Spawn the event loop for one process. The thread reports its
/// [`NodeOutput`] through `results` when it shuts down — also when it
/// panics, so the harness never joins a handle that will never finish.
///
/// `clock` is called on the new thread before the loop starts, so a caller
/// can bind the epoch only once the thread is up (the harness's readiness
/// handshake). Every input the node handles, message it sends and timer it
/// arms is accounted in `work` (see [`crate::work`]).
#[allow(clippy::too_many_arguments)]
pub fn spawn_node<N: Node + 'static>(
    pid: Pid,
    n: usize,
    clock: impl FnOnce() -> LiveClock + Send + 'static,
    node: N,
    inputs: Receiver<NodeInput<N::Msg>>,
    router_tx: SyncSender<Envelope<N::Msg>>,
    results: Sender<(Pid, NodeOutput)>,
    op_sink: Option<Sender<OpEvent>>,
    work: Arc<WorkCount>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lintime-node-{pid}"))
        .spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(|| {
                let state = NodeState {
                    pid,
                    n,
                    clock: clock(),
                    router_tx,
                    op_sink,
                    work,
                    timers: Vec::new(),
                    next_timer_id: 0,
                    records: Vec::new(),
                    errors: Vec::new(),
                    pending: None,
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
                    records: Vec::new(),
                    errors: vec![format!("{pid}: node thread panicked: {msg}")],
                    panicked: true,
                }
            });
            // The harness may have given up on us already; that's fine.
            let _ = results.send((pid, out));
        })
        .expect("spawn node thread")
}

/// Everything a node thread owns besides the [`Node`] itself.
struct NodeState<M, T> {
    pid: Pid,
    n: usize,
    clock: LiveClock,
    router_tx: SyncSender<Envelope<M>>,
    op_sink: Option<Sender<OpEvent>>,
    work: Arc<WorkCount>,
    timers: Vec<PendingTimer<T>>,
    next_timer_id: u64,
    records: Vec<OpRecord>,
    errors: Vec<String>,
    pending: Option<usize>,
}

fn node_loop<N: Node>(
    mut node: N,
    inputs: Receiver<NodeInput<N::Msg>>,
    mut st: NodeState<N::Msg, N::Timer>,
) -> NodeOutput {
    let pid = st.pid;
    loop {
        // Fire due timers first.
        let now = Instant::now();
        while let Some(idx) = due_timer(&st.timers, now) {
            let t = st.timers.swap_remove(idx);
            let mut fx = st.effects();
            node.on_timer(t.tag, &mut fx);
            st.apply(fx);
        }
        let timeout = st
            .timers
            .iter()
            .map(|t| t.due)
            .min()
            .map(|due| due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(20));

        match inputs.recv_timeout(timeout) {
            Ok(NodeInput::Deliver(from, m)) => {
                let mut fx = st.effects();
                node.on_deliver(from, m, &mut fx);
                st.apply(fx);
            }
            Ok(NodeInput::Command(Command::Invoke(inv))) => {
                if st.pending.is_some() {
                    st.errors.push(format!(
                        "{pid}: invocation {inv:?} while another operation is pending"
                    ));
                    st.work.done(1);
                    continue;
                }
                st.pending = Some(st.records.len());
                let t_invoke = st.clock.real_now();
                st.records.push(OpRecord {
                    pid,
                    invocation: inv.clone(),
                    ret: None,
                    t_invoke,
                    t_respond: None,
                });
                if let Some(sink) = &st.op_sink {
                    // A live consumer that hung up is not a node failure.
                    let _ = sink.send(OpEvent::Invoke {
                        pid,
                        t: t_invoke,
                        op: inv.op,
                        arg: inv.arg.clone(),
                    });
                }
                let mut fx = st.effects();
                node.on_invoke(inv, &mut fx);
                st.apply(fx);
            }
            Ok(NodeInput::Command(Command::Shutdown)) | Err(RecvTimeoutError::Disconnected) => {
                return NodeOutput { records: st.records, errors: st.errors, panicked: false };
            }
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

fn due_timer<T>(timers: &[PendingTimer<T>], now: Instant) -> Option<usize> {
    timers
        .iter()
        .enumerate()
        .filter(|(_, t)| t.due <= now)
        .min_by_key(|(_, t)| (t.due, t.id))
        .map(|(i, _)| i)
}

impl<M: Send, T: Clone + PartialEq> NodeState<M, T> {
    fn effects(&self) -> Effects<M, T> {
        Effects::new(self.pid, self.n, self.clock.local_now())
    }

    /// Carry out one handler's effects, then release the unit of work of
    /// the input or timer that ran it: the effects' own units are added
    /// first, so the count cannot reach zero while they are in flight.
    fn apply(&mut self, fx: Effects<M, T>) {
        let pid = self.pid;
        let parts = fx.into_parts();
        self.work.add(parts.sends.len() + parts.timers_set.len());
        for tag in parts.timers_cancelled {
            let before = self.timers.len();
            self.timers.retain(|t| t.tag != tag);
            self.work.done(before - self.timers.len());
        }
        for (to, msg) in parts.sends {
            if self.router_tx.send(Envelope { from: pid, to, msg }).is_err() {
                self.errors.push(format!("{pid}: router closed during send"));
                self.work.done(1);
            }
        }
        for (local_fire, tag) in parts.timers_set {
            let id = self.next_timer_id;
            self.next_timer_id += 1;
            self.timers.push(PendingTimer {
                due: self.clock.instant_at_local(local_fire),
                id,
                tag,
            });
        }
        if let Some(ret) = parts.response {
            match self.pending.take() {
                Some(idx) => {
                    let t_respond = self.clock.real_now();
                    if let Some(sink) = &self.op_sink {
                        let _ = sink.send(OpEvent::Respond { pid, t: t_respond, ret: ret.clone() });
                    }
                    self.records[idx].ret = Some(ret);
                    self.records[idx].t_respond = Some(t_respond);
                }
                None => self.errors.push(format!("{pid}: response with no pending operation")),
            }
        }
        self.work.done(1);
    }
}
