//! Folklore baseline 1 (Section 1): the centralized algorithm.
//!
//! "Forward each operation invocation in a message to a distinguished
//! process, which computes the result of the operation and sends the result
//! back in a message to the invoker. The operations are linearized through
//! the workings of the distinguished process and each operation takes up to
//! `2d` time."

use lintime_adt::spec::{Invocation, ObjState, ObjectSpec};
use lintime_adt::value::Value;
use lintime_sim::node::{Effects, NoTimer, Node};
use lintime_sim::time::Pid;
use std::sync::Arc;

/// The distinguished process.
pub const COORDINATOR: Pid = Pid(0);

/// Messages of the centralized algorithm.
#[derive(Clone, Debug, PartialEq)]
pub enum CentralMsg {
    /// Invoker → coordinator: execute this.
    Request(Invocation),
    /// Coordinator → invoker: the result.
    Reply(Value),
}

impl CentralMsg {
    /// Estimated serialized size in bytes: tag plus payload.
    pub fn wire_bytes(&self) -> usize {
        1 + match self {
            CentralMsg::Request(inv) => inv.wire_bytes(),
            CentralMsg::Reply(v) => v.wire_bytes(),
        }
    }
}

/// One process of the centralized algorithm. Only the coordinator holds the
/// object; everyone else forwards.
pub struct CentralizedNode {
    pid: Pid,
    object: Option<Box<dyn ObjState>>,
}

impl CentralizedNode {
    /// Create a node; the object lives at [`COORDINATOR`].
    pub fn new(pid: Pid, spec: Arc<dyn ObjectSpec>) -> Self {
        let object = (pid == COORDINATOR).then(|| spec.new_object());
        CentralizedNode { pid, object }
    }
}

impl Node for CentralizedNode {
    type Msg = CentralMsg;
    type Timer = NoTimer;

    fn msg_wire_bytes(msg: &CentralMsg) -> usize {
        msg.wire_bytes()
    }

    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<CentralMsg, NoTimer>) {
        if self.pid == COORDINATOR {
            let obj = self.object.as_mut().expect("coordinator holds the object");
            let ret = obj.apply(inv.op, &inv.arg);
            fx.respond(ret);
        } else {
            fx.send(COORDINATOR, CentralMsg::Request(inv));
        }
    }

    fn on_deliver(&mut self, from: Pid, msg: CentralMsg, fx: &mut Effects<CentralMsg, NoTimer>) {
        match msg {
            CentralMsg::Request(inv) => {
                let obj = self.object.as_mut().expect("only the coordinator receives requests");
                let ret = obj.apply(inv.op, &inv.arg);
                fx.send(from, CentralMsg::Reply(ret));
            }
            CentralMsg::Reply(ret) => fx.respond(ret),
        }
    }

    fn on_timer(&mut self, timer: NoTimer, _fx: &mut Effects<CentralMsg, NoTimer>) {
        match timer {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::erase;
    use lintime_adt::types::Register;
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::engine::{simulate, SimConfig};
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::{ModelParams, Time};

    #[test]
    fn remote_ops_take_two_d() {
        let p = ModelParams::default_experiment();
        let spec = erase(Register::new(0));
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(1), Time(0), Invocation::new("write", 5)).at(
                Pid(2),
                Time(20_000),
                Invocation::nullary("read"),
            ),
        );
        let run = simulate(&cfg, |pid| CentralizedNode::new(pid, Arc::clone(&spec)));
        assert!(run.complete());
        assert_eq!(run.ops[0].latency(), Some(p.d * 2));
        assert_eq!(run.ops[1].latency(), Some(p.d * 2));
        assert_eq!(run.ops[1].ret, Some(Value::Int(5)));
    }

    #[test]
    fn coordinator_ops_are_instant() {
        let p = ModelParams::default_experiment();
        let spec = erase(Register::new(7));
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(Schedule::new().at(
            COORDINATOR,
            Time(0),
            Invocation::nullary("read"),
        ));
        let run = simulate(&cfg, |pid| CentralizedNode::new(pid, Arc::clone(&spec)));
        assert_eq!(run.ops[0].latency(), Some(Time::ZERO));
        assert_eq!(run.ops[0].ret, Some(Value::Int(7)));
    }

    #[test]
    fn arrival_order_linearizes_concurrent_ops() {
        let p = ModelParams::default_experiment();
        let spec = erase(Register::new(0));
        // p1 writes (closer in delay), p2 reads; both requests race to p0.
        let delay = DelaySpec::matrix_from_fn(4, |i, _| if i == 1 { p.min_delay() } else { p.d });
        let cfg = SimConfig::new(p, delay).with_schedule(
            Schedule::new().at(Pid(1), Time(0), Invocation::new("write", 3)).at(
                Pid(2),
                Time(0),
                Invocation::nullary("read"),
            ),
        );
        let run = simulate(&cfg, |pid| CentralizedNode::new(pid, Arc::clone(&spec)));
        assert!(run.complete());
        // Write arrived first (3600 < 6000), so the read sees 3.
        assert_eq!(run.ops[1].ret, Some(Value::Int(3)));
    }
}
