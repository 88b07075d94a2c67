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
//! The queue and the priority queue also get a longer corpus: legal and
//! corrupted histories of 9–14 operations, the legal ones cut by a crash
//! (which must still linearize), and *wide* histories — 6–8 mutually
//! concurrent producers, then sequential consumers — on which the search
//! has to try many producer orders before it decides.
//!
//! Every `Linearizable` verdict's witness is additionally replay-verified,
//! and every history is checked a second time with an active observability
//! bundle, which must not change the verdict (witness included) and must
//! account for each history exactly once.

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_obs::{Obs, Registry, TraceHandle};
use lintime_sim::rng::SplitMix64;
use lintime_sim::time::{Pid, Time};
use std::ops::Range;
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
        "priority_queue" => match rng.gen_range(0usize..5) {
            0 | 1 => ("insert", Value::Int(rng.gen_range(0i64..5))),
            2 | 3 => ("extract_min", Value::Unit),
            _ => ("min", Value::Unit),
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

/// Build a linearizable-by-construction history of `sizes` operations:
/// replay random invocations sequentially for the returns, then hand out
/// overlapping intervals that the replay order respects (position `k`
/// invokes no later than `4k` and responds no earlier than `4k + 1`, so
/// precedence edges only point forward).
fn legal_history(
    spec: &Arc<dyn ObjectSpec>,
    kind: &str,
    rng: &mut SplitMix64,
    sizes: Range<usize>,
) -> History {
    let n = rng.gen_range(sizes);
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

/// Strip the last 1–2 operations of `h` into pending invocations, as a crash
/// would.
fn make_pending(h: &History, rng: &mut SplitMix64) -> PendingHistory {
    let keep = h.ops.len() - rng.gen_range(1usize..3);
    let mut complete = h.clone();
    let cut = complete.ops.split_off(keep);
    let pending = cut
        .iter()
        .map(|op| PendingOp {
            pid: Pid(7),
            invocation: op.instance.invocation(),
            t_invoke: op.t_invoke,
            may_have_effect: true,
        })
        .collect();
    let horizon = h.ops.iter().map(|op| op.t_respond).max().unwrap_or(Time(0)) + Time(1);
    PendingHistory { complete, pending, horizon, malformed: 0 }
}

/// A *wide* history: 6–8 producers all overlapping each other, then 3–5
/// sequential consumers whose returns replay a random producer order (an
/// accessor may sit among them). With `corrupt_one`, one consumer returns
/// 7, a value no producer writes, so no order works.
fn wide_history(
    spec: &Arc<dyn ObjectSpec>,
    kind: &str,
    rng: &mut SplitMix64,
    corrupt_one: bool,
) -> History {
    let (prod, cons, peek) = match kind {
        "queue" => ("enqueue", "dequeue", "peek"),
        "priority_queue" => ("insert", "extract_min", "min"),
        other => unreachable!("no wide histories for {other}"),
    };
    let producers = rng.gen_range(6usize..9);
    let args: Vec<i64> = (0..producers).map(|_| rng.gen_range(0i64..4)).collect();
    let mut tuples: Vec<(usize, OpInstance, i64, i64)> = args
        .iter()
        .enumerate()
        .map(|(p, &v)| (p % 4, OpInstance::new(prod, v, ()), p as i64, 100))
        .collect();
    // Replay the producers in a shuffled order for the consumers' returns.
    let mut order: Vec<usize> = (0..producers).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut obj = spec.new_object();
    for &p in &order {
        obj.apply(prod, &Value::Int(args[p]));
    }
    let consumers = rng.gen_range(3usize..6);
    let victim = rng.gen_range(0..consumers);
    for c in 0..consumers {
        let t = 200 + 10 * c as i64;
        let op = if c == 1 && rng.gen_range(0u32..2) == 0 { peek } else { cons };
        let mut ret = obj.apply(op, &Value::Unit);
        if corrupt_one && c == victim {
            ret = Value::Int(7);
        }
        tuples.push((0, OpInstance::new(op, (), ret), t, t + 5));
    }
    History::from_tuples(tuples)
}

/// The two checkers must produce the same verdict *class* (witness orders may
/// differ), and every `Linearizable` witness must replay. The observed
/// monitor path must return exactly the unobserved verdict, which is
/// returned.
fn assert_agreement(spec: &Arc<dyn ObjectSpec>, h: &History, label: &str, obs: &Obs) -> Verdict {
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
    fast
}

/// A per-(kind, seed) generator: the kind name is mixed into the seed.
fn rng_for(kind: &str, seed: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(
        seed ^ kind.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64)),
    )
}

/// Check `seeds` legal histories of `kind` and their corruptions; `reach`
/// pins how the monitor step ended on them (see [`monitor_reach`]).
fn run_kind(kind: &str, spec: Arc<dyn ObjectSpec>, seeds: u64, reach: [u64; 3]) {
    let obs = Obs::new(TraceHandle::null(), Registry::new());
    for seed in 0..seeds {
        let mut rng = rng_for(kind, seed);
        let legal = legal_history(&spec, kind, &mut rng, 1..9);
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
    assert_eq!(monitor_reach(&obs), reach, "{kind}: the monitors' reach moved");
}

/// The longer corpus for `kind` (queue or priority queue): per seed a
/// 9–14-op legal history, its corruption and its crash cut, and for the
/// first [`WIDE_SEEDS`] seeds one legal and one corrupted wide history,
/// each of a known class. `reach` pins the monitor outcomes, as in
/// [`run_kind`].
fn run_long_kind(kind: &str, spec: Arc<dyn ObjectSpec>, seeds: u64, reach: [u64; 3]) {
    let obs = Obs::new(TraceHandle::null(), Registry::new());
    for seed in 0..seeds {
        // A stream apart from `run_kind`'s for the same seed.
        let mut rng = rng_for(kind, seed ^ 0x10C6_0000);
        let legal = legal_history(&spec, kind, &mut rng, 9..15);
        let label = format!("{kind} seed {seed} (long legal)");
        assert!(assert_agreement(&spec, &legal, &label, &obs).is_linearizable(), "{label}");
        let bad = corrupt(&legal, &mut rng);
        assert_agreement(&spec, &bad, &format!("{kind} seed {seed} (long corrupted)"), &obs);
        let ph = make_pending(&legal, &mut rng);
        assert!(
            check_fast_pending(&spec, &ph).is_linearizable(),
            "{kind} seed {seed}: crash cut of a legal history rejected\n{ph:?}"
        );
        if seed >= WIDE_SEEDS {
            continue;
        }
        for corrupt_one in [false, true] {
            let wide = wide_history(&spec, kind, &mut rng, corrupt_one);
            let label = format!("{kind} seed {seed} (wide, corrupted: {corrupt_one})");
            let v = assert_agreement(&spec, &wide, &label, &obs);
            if corrupt_one {
                assert_eq!(v, Verdict::NotLinearizable, "{label}\n{wide:?}");
            } else {
                assert!(v.is_linearizable(), "{label}: {v:?}\n{wide:?}");
            }
        }
    }
    assert_eq!(monitor_reach(&obs), reach, "{kind}: the monitors' reach moved");
}

/// How the monitor step ended, summed over every history `obs` saw:
/// `[witnesses, deferred, violations]`. The pinned totals were taken on the
/// monitors before they read the decision's arena; a rewrite of a monitor
/// must leave every history in its outcome class, so they must not move.
fn monitor_reach(obs: &Obs) -> [u64; 3] {
    ["witnesses", "deferred", "violations"]
        .map(|outcome| obs.metrics.counter(&format!("check.monitor.{outcome}")).get())
}

const SEEDS_PER_KIND: u64 = 200;
/// Seeds (of the first `SEEDS_PER_KIND`) that also draw two wide histories.
const WIDE_SEEDS: u64 = 32;

#[test]
fn register_differential() {
    run_kind("register", erase(Register::new(0)), SEEDS_PER_KIND, [107, 157, 136]);
}

#[test]
fn rmw_register_differential() {
    run_kind("rmw", erase(RmwRegister::new(0)), SEEDS_PER_KIND, [35, 314, 51]);
}

#[test]
fn queue_differential() {
    run_kind("queue", erase(FifoQueue::new()), SEEDS_PER_KIND, [89, 192, 119]);
}

#[test]
fn queue_long_differential() {
    run_long_kind("queue", erase(FifoQueue::new()), SEEDS_PER_KIND, [3, 378, 83]);
}

#[test]
fn priority_queue_long_differential() {
    run_long_kind("priority_queue", erase(PriorityQueue::new()), SEEDS_PER_KIND, [2, 384, 78]);
}

#[test]
fn stack_differential() {
    run_kind("stack", erase(Stack::new()), SEEDS_PER_KIND, [74, 208, 118]);
}

#[test]
fn set_differential() {
    run_kind("set", erase(GrowSet::new()), SEEDS_PER_KIND, [236, 0, 164]);
}

#[test]
fn kv_differential() {
    run_kind("kv", erase(KvStore::new()), SEEDS_PER_KIND, [233, 0, 167]);
}

#[test]
fn counter_differential() {
    run_kind("counter", erase(Counter::new()), SEEDS_PER_KIND, [110, 185, 105]);
}
