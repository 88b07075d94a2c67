//! Differential fuzzing: `check_fast` (type-specialized monitors with
//! fallback) must agree with the plain Wing–Gong search on every history.
//!
//! Two generators per ADT, both deterministic in the seed:
//!
//! * *legal-by-construction* — random operations replayed sequentially
//!   against the spec to obtain consistent returns, then given overlapping
//!   intervals whose real-time order the replay order respects (so the
//!   history is linearizable and both checkers must say so);
//! * *corrupted* — the same history with one return value mutated, or fully
//!   random returns; the checkers must still agree (usually, but not always,
//!   on `NotLinearizable`).
//!
//! Every `Linearizable` verdict's witness is additionally replay-verified,
//! and every history is checked a second time with an active observability
//! bundle, which must not change the verdict (witness included) and must
//! account for each history exactly once.

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_obs::{Obs, Registry, TraceHandle};
use lintime_sim::rng::SplitMix64;
use std::sync::Arc;

/// One random invocation (op name + argument) for the given type.
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

/// A plausible random return for corrupting a history of the given type.
fn arb_ret(rng: &mut SplitMix64) -> Value {
    match rng.gen_range(0usize..4) {
        0 => Value::Unit,
        1 => Value::Bool(rng.gen_range(0u64..2) == 0),
        _ => Value::Int(rng.gen_range(0i64..5)),
    }
}

/// Build a linearizable-by-construction history: replay `n` random
/// invocations sequentially for the returns, then hand out overlapping
/// intervals that the replay order respects (position `k` invokes no later
/// than `4k` and responds no earlier than `4k + 1`, so precedence edges only
/// point forward).
fn legal_history(spec: &Arc<dyn ObjectSpec>, kind: &str, rng: &mut SplitMix64) -> History {
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

/// Corrupt one return value (or, rarely, all of them).
fn corrupt(h: &History, rng: &mut SplitMix64) -> History {
    let mut tuples: Vec<(usize, OpInstance, i64, i64)> = h
        .ops
        .iter()
        .enumerate()
        .map(|(k, op)| (k % 4, op.instance.clone(), op.t_invoke.0, op.t_respond.0))
        .collect();
    if rng.gen_range(0usize..4) == 0 {
        for t in &mut tuples {
            t.1.ret = arb_ret(rng);
        }
    } else {
        let victim = rng.gen_range(0usize..tuples.len());
        tuples[victim].1.ret = arb_ret(rng);
    }
    History::from_tuples(tuples)
}

/// The two checkers must produce the same verdict *class* (witness orders may
/// differ), and every `Linearizable` witness must replay. The observed
/// monitor path must return exactly the unobserved verdict.
fn assert_agreement(spec: &Arc<dyn ObjectSpec>, h: &History, label: &str, obs: &Obs) {
    let fast = check_fast(spec, h);
    let observed = check_fast_with(spec, h, CheckConfig::default(), obs);
    assert_eq!(observed, fast, "{label}: observing the check changed its verdict\n{h:?}");
    let slow = check(spec, h);
    let class = |v: &Verdict| match v {
        Verdict::Linearizable(_) => "linearizable",
        Verdict::NotLinearizable => "not-linearizable",
        Verdict::Unknown => "unknown",
    };
    assert_eq!(class(&fast), class(&slow), "{label}: fast={fast:?} slow={slow:?}\n{h:?}");
    for (name, v) in [("fast", &fast), ("slow", &slow)] {
        if let Verdict::Linearizable(order) = v {
            assert!(
                verify_witness(spec, h, order),
                "{label}: bogus {name} witness {order:?}\n{h:?}"
            );
        }
    }
}

fn run_kind(kind: &str, spec: Arc<dyn ObjectSpec>, seeds: u64) {
    let obs = Obs::new(TraceHandle::null(), Registry::new());
    for seed in 0..seeds {
        // Distinct streams per (kind, seed): mix the kind name into the seed.
        let mut rng = SplitMix64::seed_from_u64(
            seed ^ kind.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64)),
        );
        let legal = legal_history(&spec, kind, &mut rng);
        assert!(
            check_fast(&spec, &legal).is_linearizable(),
            "{kind} seed {seed}: legal-by-construction history rejected\n{legal:?}"
        );
        assert_agreement(&spec, &legal, &format!("{kind} seed {seed} (legal)"), &obs);
        let bad = corrupt(&legal, &mut rng);
        assert_agreement(&spec, &bad, &format!("{kind} seed {seed} (corrupted)"), &obs);
    }
    // Two non-empty histories per seed, each decided by exactly one monitor
    // step, and every deferral taken by exactly one fallback search.
    let get = |name: &str| obs.metrics.counter(name).get();
    let deferred = get("check.monitor.deferred");
    let steps = get("check.monitor.witnesses") + get("check.monitor.violations") + deferred;
    assert_eq!(steps, 2 * seeds, "{kind}: monitor outcomes do not account for every history");
    assert_eq!(get("check.fallback.runs"), deferred, "{kind}: fallbacks != deferrals");
}

const SEEDS_PER_KIND: u64 = 200;

#[test]
fn register_differential() {
    run_kind("register", erase(Register::new(0)), SEEDS_PER_KIND);
}

#[test]
fn rmw_register_differential() {
    run_kind("rmw", erase(RmwRegister::new(0)), SEEDS_PER_KIND);
}

#[test]
fn queue_differential() {
    run_kind("queue", erase(FifoQueue::new()), SEEDS_PER_KIND);
}

#[test]
fn stack_differential() {
    run_kind("stack", erase(Stack::new()), SEEDS_PER_KIND);
}

#[test]
fn set_differential() {
    run_kind("set", erase(GrowSet::new()), SEEDS_PER_KIND);
}

#[test]
fn kv_differential() {
    run_kind("kv", erase(KvStore::new()), SEEDS_PER_KIND);
}

#[test]
fn counter_differential() {
    run_kind("counter", erase(Counter::new()), SEEDS_PER_KIND);
}
