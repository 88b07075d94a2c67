//! The same Algorithm 1 code, on real OS threads: one thread per process,
//! std `mpsc` channels as the network, WAN-shaped delays drawn by each sender
//! and deliberate clock skew. Latencies are measured in wall-clock time and
//! the recorded history is machine-checked for linearizability.
//!
//! ```sh
//! cargo run --release --example live_cluster
//! ```

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_core::prelude::*;
use lintime_runtime::prelude::*;
use lintime_sim::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 300-tick max delay at 200 µs per tick = a 60 ms WAN; OS jitter of a
    // millisecond or two is ≈ 10 ticks, well under u = 120.
    let params = ModelParams::new(3, Time(300), Time(120), Time(90));
    let tick = Duration::from_micros(200);
    let mut cfg = LiveConfig::new(params, tick, DelaySpec::AllMin);
    // Deliberate clock skew within ε.
    cfg.offsets = vec![Time(0), Time(60), Time(-30)];

    println!(
        "live cluster: {} threads, d = {} ticks ({:?}), u = {}, ε = {}, skewed clocks {:?}",
        params.n,
        params.d,
        tick * params.d.as_ticks() as u32,
        params.u,
        params.epsilon,
        cfg.offsets
    );

    let spec = erase(FifoQueue::new());
    let schedule = vec![
        TimedInvocation { pid: Pid(0), at: Time(50), inv: Invocation::new("enqueue", 1) },
        TimedInvocation { pid: Pid(1), at: Time(60), inv: Invocation::new("enqueue", 2) },
        TimedInvocation { pid: Pid(2), at: Time(1200), inv: Invocation::nullary("peek") },
        TimedInvocation { pid: Pid(0), at: Time(2400), inv: Invocation::nullary("dequeue") },
        TimedInvocation { pid: Pid(1), at: Time(3600), inv: Invocation::nullary("dequeue") },
        TimedInvocation { pid: Pid(2), at: Time(4800), inv: Invocation::nullary("dequeue") },
    ];

    let x = Time::ZERO;
    let run = run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), params, x));
    assert!(run.complete(), "{run}");
    assert!(run.errors.is_empty(), "{:?}", run.errors);

    println!("\nmeasured on real threads (ticks; formulas: enqueue = ε = 90, peek = d = 300, dequeue = d + ε = 390):");
    for op in &run.ops {
        println!(
            "  {} {:?} -> {:?} in {} ticks",
            op.pid,
            op.invocation,
            op.ret.as_ref().unwrap(),
            op.latency().unwrap()
        );
    }

    let history = History::from_run(&run).expect("complete");
    assert!(check(&spec, &history).is_linearizable(), "live history must linearize");
    println!("\nlive history is linearizable ✓ ({} messages routed)", run.events);
}
