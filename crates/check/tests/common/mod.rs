//! The legal-by-construction stream generator shared by the streaming
//! checker's integration tests (`stream_fuzz.rs`, `stream_determinism.rs`).

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_sim::rng::SplitMix64;
use std::sync::Arc;

/// One random invocation (op name + argument) for the given type, mirroring
/// `tests/differential_fuzz.rs` (which names the priority queue
/// `priority_queue`).
fn arb_invocation(kind: &str, rng: &mut SplitMix64) -> (&'static str, Value) {
    match kind {
        "register" => match rng.gen_range(0usize..2) {
            0 => ("write", Value::Int(rng.gen_range(0i64..4))),
            _ => ("read", Value::Unit),
        },
        "rmw" => match rng.gen_range(0usize..6) {
            0 | 1 => ("write", Value::Int(rng.gen_range(0i64..4))),
            2 | 3 => ("read", Value::Unit),
            4 => ("rmw", Value::Int(rng.gen_range(1i64..3))),
            _ => ("cas", Value::pair(rng.gen_range(0i64..3), rng.gen_range(1i64..4))),
        },
        "queue" => match rng.gen_range(0usize..5) {
            0 | 1 => ("enqueue", Value::Int(rng.gen_range(0i64..5))),
            2 | 3 => ("dequeue", Value::Unit),
            _ => ("peek", Value::Unit),
        },
        "stack" => match rng.gen_range(0usize..5) {
            0 | 1 => ("push", Value::Int(rng.gen_range(0i64..5))),
            2 | 3 => ("pop", Value::Unit),
            _ => ("peek", Value::Unit),
        },
        "pq" => match rng.gen_range(0usize..5) {
            0 | 1 => ("insert", Value::Int(rng.gen_range(0i64..5))),
            2 | 3 => ("extract_min", Value::Unit),
            _ => ("min", Value::Unit),
        },
        "set" => match rng.gen_range(0usize..4) {
            0 => ("add", Value::Int(rng.gen_range(0i64..3))),
            1 => ("remove", Value::Int(rng.gen_range(0i64..3))),
            _ => ("contains", Value::Int(rng.gen_range(0i64..3))),
        },
        "kv" => match rng.gen_range(0usize..4) {
            0 => ("put", Value::pair(rng.gen_range(0i64..2), rng.gen_range(0i64..4))),
            1 => ("del", Value::Int(rng.gen_range(0i64..2))),
            _ => ("get", Value::Int(rng.gen_range(0i64..2))),
        },
        "counter" => match rng.gen_range(0usize..6) {
            0 | 1 => ("increment", Value::Unit),
            2 => ("add", Value::Int(rng.gen_range(0i64..3))),
            3 => ("fetch_inc", Value::Unit),
            _ => ("read", Value::Unit),
        },
        other => unreachable!("unknown fuzz kind {other}"),
    }
}

/// Linearizable-by-construction history with overlapping intervals (same
/// construction as the offline fuzz: position `k` invokes no later than `4k`
/// and responds no earlier than `4k + 1`, pid `k % 4`, so same-pid intervals
/// never overlap and the stream stays well-formed).
pub fn legal_history(spec: &Arc<dyn ObjectSpec>, kind: &str, rng: &mut SplitMix64) -> History {
    let n = rng.gen_range(1usize..9);
    let mut obj = spec.new_object();
    let mut tuples = Vec::with_capacity(n);
    for k in 0..n {
        let (op, arg) = arb_invocation(kind, rng);
        let ret = obj.apply(op, &arg);
        let base = 4 * k as i64;
        let t_invoke = base - rng.gen_range(0i64..6);
        let t_respond = base + 1 + rng.gen_range(0i64..6);
        tuples.push((k % 4, OpInstance::new(op, arg, ret), t_invoke, t_respond));
    }
    History::from_tuples(tuples)
}
