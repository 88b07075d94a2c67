//! The process state-machine interface (Section 2.2).
//!
//! A process is "a state machine \[whose\] transitions are triggered by the
//! occurrence of an event. There are three kinds of events: the receipt of a
//! message, a timer going off, and an invocation of an operation instance."
//! The transition function reads the local clock and outputs messages to
//! send, optionally a response, and new timers — exactly the shape of
//! [`Node`]'s three handlers acting through [`Effects`].

use crate::time::{Pid, Time};
use lintime_adt::spec::Invocation;
use lintime_adt::value::Value;
use std::fmt;

/// A shared-object-implementation process.
///
/// Handlers receive an [`Effects`] sink; all interaction with the outside
/// world (sending, timers, responding, reading the local clock) goes through
/// it so the same node code runs on the discrete-event simulator and on the
/// real-threads runtime.
pub trait Node: Send {
    /// Message payload type exchanged between processes.
    type Msg: Clone + fmt::Debug + Send + 'static;
    /// Timer tag type; cancellation matches on equality.
    type Timer: Clone + PartialEq + fmt::Debug + Send + 'static;

    /// A user invoked an operation at this process.
    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<Self::Msg, Self::Timer>);
    /// A message from `from` arrived.
    fn on_deliver(&mut self, from: Pid, msg: Self::Msg, fx: &mut Effects<Self::Msg, Self::Timer>);
    /// A previously-set timer expired.
    fn on_timer(&mut self, timer: Self::Timer, fx: &mut Effects<Self::Msg, Self::Timer>);

    /// Estimated serialized size of `msg` in bytes, used by the engine for
    /// communication-cost accounting ([`crate::run::Run::bytes_sent`]). The
    /// default — the in-memory size of the payload type — is a coarse but
    /// deterministic proxy; implementations exchanging variable-size payloads
    /// should override it.
    fn msg_wire_bytes(msg: &Self::Msg) -> usize {
        std::mem::size_of_val(msg)
    }
}

/// The [`Node::Timer`] of a node that never sets one: uninhabited, so
/// `on_timer` is statically unreachable (`match timer {}`).
#[derive(Clone, Debug, PartialEq)]
pub enum NoTimer {}

/// Effect sink handed to [`Node`] handlers: collects sends, timer operations,
/// and the optional response produced by one transition.
pub struct Effects<M, T> {
    pid: Pid,
    n: usize,
    now_local: Time,
    /// Messages to send: `(destination, payload)`.
    pub(crate) sends: Vec<(Pid, M)>,
    /// Timers to set: `(local fire time, tag)`.
    pub(crate) timers_set: Vec<(Time, T)>,
    /// Timer tags to cancel (all pending timers with an equal tag).
    pub(crate) timers_cancelled: Vec<T>,
    /// Response to the pending operation, if produced.
    pub(crate) response: Option<Value>,
}

impl<M, T: PartialEq> Effects<M, T> {
    /// Create an empty effect sink for one transition.
    pub fn new(pid: Pid, n: usize, now_local: Time) -> Self {
        Effects {
            pid,
            n,
            now_local,
            sends: Vec::new(),
            timers_set: Vec::new(),
            timers_cancelled: Vec::new(),
            response: None,
        }
    }

    /// Re-arm the sink for the next transition, at `pid` and local time
    /// `now_local`. The buffers keep their capacity, so the engine can use
    /// one sink for a whole run.
    pub(crate) fn reset(&mut self, pid: Pid, now_local: Time) {
        self.pid = pid;
        self.now_local = now_local;
        self.sends.clear();
        self.timers_set.clear();
        self.timers_cancelled.clear();
        self.response = None;
    }

    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Total number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The local clock reading for this transition.
    pub fn local_time(&self) -> Time {
        self.now_local
    }

    /// Send `msg` to process `to`.
    pub fn send(&mut self, to: Pid, msg: M) {
        self.sends.push((to, msg));
    }

    /// Send `msg` to every *other* process.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for i in 0..self.n {
            if i != self.pid.0 {
                self.sends.push((Pid(i), msg.clone()));
            }
        }
    }

    /// Set a timer to fire `delay` after now (local clock). Clocks have no
    /// drift, so local durations equal real durations.
    pub fn set_timer(&mut self, delay: Time, tag: T) {
        assert!(delay >= Time::ZERO, "timers cannot be set in the past");
        self.timers_set.push((self.now_local + delay, tag));
    }

    /// Set a timer to fire at an absolute local clock time (must not be in
    /// the past).
    pub fn set_timer_at(&mut self, local_fire: Time, tag: T) {
        assert!(local_fire >= self.now_local, "timers cannot be set in the past");
        self.timers_set.push((local_fire, tag));
    }

    /// Cancel all pending timers whose tag equals `tag`.
    pub fn cancel_timer(&mut self, tag: T) {
        self.timers_cancelled.push(tag);
    }

    /// Respond to the pending operation invocation with `ret`.
    ///
    /// Panics if a response was already produced in this transition.
    pub fn respond(&mut self, ret: Value) {
        assert!(self.response.is_none(), "double response in one transition");
        self.response = Some(ret);
    }

    /// Decompose into raw effect parts (for a platform that applies them
    /// itself, such as the live runtime).
    pub fn into_parts(self) -> EffectParts<M, T> {
        EffectParts {
            sends: self.sends,
            timers_set: self.timers_set,
            timers_cancelled: self.timers_cancelled,
            response: self.response,
        }
    }
}

/// Raw effects of one transition, decoupled from the sink (see
/// [`Effects::into_parts`]).
pub struct EffectParts<M, T> {
    /// Messages to send.
    pub sends: Vec<(Pid, M)>,
    /// Timers to set at absolute local times.
    pub timers_set: Vec<(Time, T)>,
    /// Timer tags to cancel.
    pub timers_cancelled: Vec<T>,
    /// Response, if produced.
    pub response: Option<Value>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_collects_sends_and_broadcast() {
        let mut fx: Effects<&'static str, u32> = Effects::new(Pid(1), 4, Time(100));
        fx.send(Pid(0), "hello");
        fx.broadcast("all");
        assert_eq!(fx.sends.len(), 4); // 1 direct + 3 broadcast (skips self)
        assert!(fx.sends.iter().all(|(to, _)| *to != Pid(1)));
        assert!(!fx.sends.iter().any(|(to, m)| *to == Pid(1) && *m == "all"));
    }

    #[test]
    fn timers_fire_relative_to_local_clock() {
        let mut fx: Effects<(), u32> = Effects::new(Pid(0), 2, Time(50));
        fx.set_timer(Time(10), 7);
        assert_eq!(fx.timers_set, vec![(Time(60), 7)]);
        fx.set_timer_at(Time(55), 9);
        assert_eq!(fx.timers_set[1], (Time(55), 9));
        fx.cancel_timer(7);
        assert_eq!(fx.timers_cancelled, vec![7]);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn negative_timer_rejected() {
        let mut fx: Effects<(), u32> = Effects::new(Pid(0), 2, Time(50));
        fx.set_timer(Time(-1), 0);
    }

    #[test]
    #[should_panic(expected = "double response")]
    fn double_response_rejected() {
        let mut fx: Effects<(), u32> = Effects::new(Pid(0), 2, Time(0));
        fx.respond(Value::Unit);
        fx.respond(Value::Unit);
    }
}
