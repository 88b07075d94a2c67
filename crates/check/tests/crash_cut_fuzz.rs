//! Crash-cut differential fuzz: the pending-aware checker versus a
//! brute-force enumeration of **all** Herlihy–Wing completions.
//!
//! A crash cuts a history mid-operation, leaving pending invocations whose
//! effects may or may not have happened. Linearizability then quantifies
//! over completions: each pending operation is either dropped or completed
//! with *some* response. The fast checker runs one search in which every
//! candidate pending operation is optional, and resolves mixed-operation
//! responses by accepting whatever the specification returns; the oracle
//! here enumerates every inclusion subset **and** every concrete response
//! assignment from the value domain, then permutation-checks each completed
//! history. The two must agree whenever the fast checker is decisive — in
//! particular, `NotLinearizable` may only be claimed when every completion
//! is refuted — and every `Linearizable` witness must replay against the
//! completion it names.

use lintime_adt::prelude::*;
use lintime_adt::spec::OpInstance;
use lintime_check::prelude::*;
use lintime_obs::{Obs, Registry, TraceHandle};
use lintime_sim::rng::SplitMix64;
use lintime_sim::time::{Pid, Time};
use std::sync::Arc;

/// Brute force over complete histories: linearizable iff some permutation
/// is legal and respects real-time precedence.
fn brute_force_complete(spec: &Arc<dyn ObjectSpec>, h: &History) -> bool {
    let n = h.ops.len();
    let mut idx: Vec<usize> = (0..n).collect();
    permute(&mut idx, 0, &mut |perm| {
        for (a, &i) in perm.iter().enumerate() {
            for &j in perm.iter().skip(a + 1) {
                if h.ops[j].precedes(&h.ops[i]) {
                    return false;
                }
            }
        }
        let seq: Vec<OpInstance> = perm.iter().map(|&i| h.ops[i].instance.clone()).collect();
        spec.is_legal(&seq)
    })
}

fn permute(idx: &mut Vec<usize>, k: usize, found: &mut impl FnMut(&[usize]) -> bool) -> bool {
    if k == idx.len() {
        return found(idx);
    }
    for i in k..idx.len() {
        idx.swap(k, i);
        if permute(idx, k + 1, found) {
            idx.swap(k, i);
            return true;
        }
        idx.swap(k, i);
    }
    false
}

/// The response domain a queue completion can draw from: `Unit` (empty
/// dequeue / peek, or a mutator's ack) plus every value ever enqueued in
/// the history. Any legal queue linearization is confined to this set, so
/// enumerating it makes the oracle complete for the fifo-queue spec.
fn ret_domain(ph: &PendingHistory) -> Vec<Value> {
    let mut domain = vec![Value::Unit];
    let enq_args = ph
        .complete
        .ops
        .iter()
        .filter(|o| o.instance.op == "enqueue")
        .map(|o| o.instance.arg.clone())
        .chain(
            ph.pending
                .iter()
                .filter(|p| p.invocation.op == "enqueue")
                .map(|p| p.invocation.arg.clone()),
        );
    for v in enq_args {
        if !domain.contains(&v) {
            domain.push(v);
        }
    }
    domain
}

/// Brute-force Herlihy–Wing: try every subset of the possibly-effective
/// pending operations, every response assignment over [`ret_domain`], and
/// permutation-check each resulting complete history. Pending operations
/// proven effect-free (`may_have_effect == false`) are always dropped — no
/// completion may include them.
fn brute_force_pending(spec: &Arc<dyn ObjectSpec>, ph: &PendingHistory) -> bool {
    let candidates: Vec<&PendingOp> = ph.pending.iter().filter(|p| p.may_have_effect).collect();
    let domain = ret_domain(ph);
    for mask in 0u64..(1 << candidates.len()) {
        let included: Vec<&PendingOp> = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, p)| *p)
            .collect();
        // Every assignment of responses to the included ops.
        let mut assignment = vec![0usize; included.len()];
        loop {
            let mut h = ph.complete.clone();
            for (p, &ri) in included.iter().zip(&assignment) {
                h.ops.push(TimedOp {
                    pid: p.pid,
                    instance: OpInstance {
                        op: p.invocation.op,
                        arg: p.invocation.arg.clone(),
                        ret: domain[ri].clone(),
                    },
                    t_invoke: p.t_invoke,
                    t_respond: ph.horizon.max(p.t_invoke),
                });
            }
            if brute_force_complete(spec, &h) {
                return true;
            }
            // Next assignment (odometer).
            let mut k = 0;
            loop {
                if k == assignment.len() {
                    break;
                }
                assignment[k] += 1;
                if assignment[k] < domain.len() {
                    break;
                }
                assignment[k] = 0;
                k += 1;
            }
            if k == assignment.len() {
                break;
            }
        }
    }
    false
}

/// A small random crash-cut queue history: a few completed operations with
/// responses from a tiny value domain (so illegal histories are common),
/// plus one to three pending operations across all classes — pure mutators
/// (enqueue), mixed (dequeue), and pure accessors (peek). Deterministic in
/// `seed`.
fn arb_pending_history(seed: u64) -> PendingHistory {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC4A5_4C07);
    let n_complete = rng.gen_range(1usize..5);
    let mut tuples = Vec::new();
    for _ in 0..n_complete {
        let pid = rng.gen_range(0usize..3);
        let v = rng.gen_range(1i64..4);
        let ti = rng.gen_range(0i64..40);
        let dur = rng.gen_range(1i64..40);
        let instance = match rng.gen_range(0usize..3) {
            0 => OpInstance::new("enqueue", v, ()),
            1 => OpInstance::new("dequeue", (), if v == 1 { Value::Unit } else { Value::Int(v) }),
            _ => OpInstance::new("peek", (), if v == 1 { Value::Unit } else { Value::Int(v) }),
        };
        tuples.push((pid, instance, ti, ti + dur));
    }
    let complete = History::from_tuples(tuples);
    let n_pending = rng.gen_range(1usize..4);
    let mut pending = Vec::new();
    for _ in 0..n_pending {
        let inv = match rng.gen_range(0usize..3) {
            0 => Invocation::new("enqueue", rng.gen_range(1i64..4)),
            1 => Invocation::nullary("dequeue"),
            _ => Invocation::nullary("peek"),
        };
        pending.push(PendingOp {
            pid: Pid(rng.gen_range(0usize..3)),
            invocation: inv,
            t_invoke: Time(rng.gen_range(0i64..80)),
            // A quarter of pending ops are provably effect-free, as if the
            // invoker crashed before executing them.
            may_have_effect: rng.gen_range(0u32..4) != 0,
        });
    }
    PendingHistory { complete, pending, horizon: Time(100), malformed: 0 }
}

/// Replay a pending witness against the completion it names: `order`
/// indexes `ph.complete.ops` followed by `ph.pending`. It must hold every
/// complete op once and only possibly-effective pending ops, each at most
/// once; respect real time, with pending ops responding at the horizon; and
/// replay legally — complete ops reproduce their recorded returns, included
/// pure mutators their constant return, and free (mixed) ops take whatever
/// the specification returns.
fn replay_pending_witness(
    spec: &Arc<dyn ObjectSpec>,
    ph: &PendingHistory,
    order: &[usize],
) -> Result<(), String> {
    let c = ph.complete.len();
    let mut seen = vec![false; c + ph.pending.len()];
    for &i in order {
        if i >= seen.len() || seen[i] {
            return Err(format!("index {i} out of range or repeated"));
        }
        seen[i] = true;
        if i >= c && !ph.pending[i - c].may_have_effect {
            return Err(format!("pending op {} took no effect but is placed", i - c));
        }
    }
    if !seen[..c].iter().all(|&s| s) {
        return Err("a complete op is missing".into());
    }
    let interval = |i: usize| match ph.complete.ops.get(i) {
        Some(o) => (o.t_invoke, o.t_respond),
        None => (ph.pending[i - c].t_invoke, ph.horizon),
    };
    let mut max_invoke = Time(i64::MIN);
    for &i in order {
        let (t_invoke, t_respond) = interval(i);
        if t_respond < max_invoke {
            return Err(format!("op {i} is placed after an op it precedes"));
        }
        max_invoke = max_invoke.max(t_invoke);
    }
    let mut obj = spec.new_object();
    for &i in order {
        if let Some(o) = ph.complete.ops.get(i) {
            if obj.apply(o.instance.op, &o.instance.arg) != o.instance.ret {
                return Err(format!("complete op {i} does not reproduce its return"));
            }
            continue;
        }
        let inv = &ph.pending[i - c].invocation;
        let ret = obj.apply(inv.op, &inv.arg);
        let pure_mutator = spec.op_meta(inv.op).is_some_and(|m| m.class == OpClass::PureMutator);
        if pure_mutator && ret != spec.new_object().apply(inv.op, &inv.arg) {
            return Err(format!("pure mutator {i} does not return its constant"));
        }
    }
    Ok(())
}

#[test]
fn pending_checker_agrees_with_completion_enumeration() {
    let spec = erase(FifoQueue::new());
    let (mut decisive, mut unknown) = (0u32, 0u32);
    for seed in 0u64..300 {
        let ph = arb_pending_history(seed);
        let oracle = brute_force_pending(&spec, &ph);
        match check_fast_pending(&spec, &ph) {
            Verdict::Linearizable(order) => {
                decisive += 1;
                assert!(oracle, "seed {seed}: fast accepted, every completion refuted: {ph:?}");
                if let Err(why) = replay_pending_witness(&spec, &ph, &order) {
                    panic!("seed {seed}: witness {order:?} does not replay: {why}\n{ph:?}");
                }
            }
            Verdict::NotLinearizable => {
                decisive += 1;
                assert!(!oracle, "seed {seed}: fast refuted, but a completion linearizes: {ph:?}");
            }
            Verdict::Unknown => unknown += 1,
        }
    }
    // The corpus must actually exercise the decision procedure: the pending
    // search should decide the overwhelming majority of these small
    // histories.
    assert!(decisive >= 250, "only {decisive} decisive verdicts ({unknown} unknown)");
}

#[test]
fn observed_pending_checker_matches_unobserved() {
    // Observing the check compiles the search's statistics in; it must not
    // change the verdict, witness included.
    let spec = erase(FifoQueue::new());
    let (mut deferred, mut searched) = (0u64, 0u64);
    for seed in 0u64..300 {
        let ph = arb_pending_history(seed);
        let obs = Obs::new(TraceHandle::null(), Registry::new());
        let off = check_fast_pending_with(&spec, &ph, CheckConfig::default(), &Obs::off());
        let on = check_fast_pending_with(&spec, &ph, CheckConfig::default(), &obs);
        assert_eq!(on, off, "seed {seed}: observing the check changed its verdict: {ph:?}");
        // At most one monitor step (on the complete part) and at most one
        // search, recorded whenever it runs — free-response ones included;
        // a certified monitor witness leaves nothing to search.
        let get = |name: &str| obs.metrics.counter(name).get();
        let runs = get("check.fallback.runs");
        let witnesses = get("check.monitor.witnesses");
        let steps = witnesses + get("check.monitor.violations") + get("check.monitor.deferred");
        assert!(steps <= 1 && runs <= 1, "seed {seed}: {steps} monitor steps, {runs} searches");
        assert!(witnesses == 0 || runs == 0, "seed {seed}: searched past a monitor witness");
        assert!(runs == 0 || get("check.fallback.nodes") > 0, "seed {seed}");
        assert_eq!(get("check.monitor.invalid_witnesses"), 0);
        deferred += get("check.monitor.deferred");
        searched += runs;
    }
    assert!(deferred > 0, "the corpus never reached the monitors");
    // Searches past a refuted all-removed completion count too.
    assert!(searched > deferred, "{searched} searches, {deferred} deferrals");
}

#[test]
fn crash_cut_forces_the_pending_dequeue_to_take_effect() {
    // enqueue(7), enqueue(8) complete; a later completed dequeue returns 8,
    // skipping 7 — legal only if the crashed process's pending dequeue took
    // effect and consumed 7 first. No response can be fabricated for a
    // mixed op up front; the free search finds the unique completion.
    let spec = erase(FifoQueue::new());
    let complete = History::from_tuples(vec![
        (0, OpInstance::new("enqueue", 7, ()), 0, 10),
        (0, OpInstance::new("enqueue", 8, ()), 20, 30),
        (1, OpInstance::new("dequeue", (), 8), 40, 50),
    ]);
    let ph = PendingHistory {
        complete,
        pending: vec![PendingOp {
            pid: Pid(2),
            invocation: Invocation::nullary("dequeue"),
            t_invoke: Time(15),
            may_have_effect: true,
        }],
        horizon: Time(60),
        malformed: 0,
    };
    assert!(check_fast_pending(&spec, &ph).is_linearizable());
    assert!(brute_force_pending(&spec, &ph));
}

#[test]
fn refutation_requires_every_completion_refuted() {
    // A completed dequeue returns a value that was never enqueued: no
    // completion of the pending dequeue can save it, and the free search
    // proves the negative.
    let spec = erase(FifoQueue::new());
    let complete = History::from_tuples(vec![
        (0, OpInstance::new("enqueue", 7, ()), 0, 10),
        (1, OpInstance::new("dequeue", (), 9), 20, 30),
    ]);
    let ph = PendingHistory {
        complete,
        pending: vec![PendingOp {
            pid: Pid(2),
            invocation: Invocation::nullary("dequeue"),
            t_invoke: Time(5),
            may_have_effect: true,
        }],
        horizon: Time(40),
        malformed: 0,
    };
    assert_eq!(check_fast_pending(&spec, &ph), Verdict::NotLinearizable);
    assert!(!brute_force_pending(&spec, &ph));
}

/// A completed `read -> ret` at [50, 60] beside pending `write(100 + i)`s
/// invoked at `i`, for `i` in `0..k`; horizon 80.
fn read_beside_writes(ret: i64, k: i64) -> PendingHistory {
    let write = |i: i64| PendingOp {
        pid: Pid(0),
        invocation: Invocation::new("write", i + 100),
        t_invoke: Time(i),
        may_have_effect: true,
    };
    PendingHistory {
        complete: History::from_tuples(vec![(1, OpInstance::new("read", (), ret), 50, 60)]),
        pending: (0..k).map(write).collect(),
        horizon: Time(80),
        malformed: 0,
    }
}

/// `v` is a witness for [`read_beside_writes`]`(ret, ..)`: the read, the
/// only required op, ends it, right after `write(ret)` (`pending[ret - 100]`,
/// named `1 + ret - 100`).
fn assert_read_witness(v: &Verdict, ret: i64) {
    let Verdict::Linearizable(order) = v else { panic!("expected a witness, got {v:?}") };
    assert_eq!(order[order.len() - 2..], [(ret - 99) as usize, 0], "{order:?}");
}

#[test]
fn pending_checker_decides_past_eight_candidates() {
    let spec = erase(Register::new(0));
    // Un-refutable complete part: the monitor certifies the all-removed
    // completion, however many candidates there are.
    let ok = read_beside_writes(0, 12);
    assert_eq!(check_fast_pending(&spec, &ok), Verdict::Linearizable(vec![0]));
    // A complete part that *needs* one of 9 or 12 pending writes is decided,
    // with a witness naming the write it placed.
    for k in [9, 12] {
        assert_read_witness(&check_fast_pending(&spec, &read_beside_writes(100, k)), 100);
    }
    // And a read no completion explains is refuted, not left Unknown.
    let bad = read_beside_writes(999, 12);
    assert_eq!(check_fast_pending(&spec, &bad), Verdict::NotLinearizable);
}

#[test]
fn pending_search_decides_five_and_twelve_candidates() {
    let spec = erase(Register::new(0));
    // A read only the middle pending write explains gets a witness naming
    // that write; a read no write explains is refuted.
    for k in [5, 12] {
        let (ok, bad) = (read_beside_writes(100 + k / 2, k), read_beside_writes(999, k));
        assert_read_witness(&check_fast_pending(&spec, &ok), 100 + k / 2);
        assert_eq!(check_fast_pending(&spec, &bad), Verdict::NotLinearizable, "{k} candidates");
    }
}

#[test]
fn pending_search_skips_the_all_removed_refutation() {
    // Six concurrent enqueues, dequeued in order around a peek (so the queue
    // monitor defers), then a dequeue of 99, which only the pending
    // enqueue(99) explains. Refuting the all-removed completion walks every
    // enqueue order (about e·6! nodes); the one search with the enqueue
    // optional descends straight to the witness.
    let spec = erase(FifoQueue::new());
    let mut tuples: Vec<(usize, OpInstance, i64, i64)> =
        (0..6).map(|i| (i as usize, OpInstance::new("enqueue", i, ()), 0, 1000)).collect();
    tuples.push((6, OpInstance::new("dequeue", (), 0), 2000, 2005));
    tuples.push((6, OpInstance::new("peek", (), 1), 2010, 2015));
    for v in 1..6 {
        tuples.push((6, OpInstance::new("dequeue", (), v), 2010 + 10 * v, 2015 + 10 * v));
    }
    tuples.push((6, OpInstance::new("dequeue", (), 99), 2100, 2105));
    let ph = PendingHistory {
        complete: History::from_tuples(tuples),
        pending: vec![PendingOp {
            pid: Pid(7),
            invocation: Invocation::new("enqueue", 99),
            t_invoke: Time(0),
            may_have_effect: true,
        }],
        horizon: Time(3000),
        malformed: 0,
    };
    let n = (ph.complete.len() + ph.pending.len()) as u64;
    let obs = Obs::new(TraceHandle::null(), Registry::new());
    assert!(check_fast_pending_with(&spec, &ph, CheckConfig::default(), &obs).is_linearizable());
    assert_eq!(obs.metrics.counter("check.monitor.deferred").get(), 1);
    let nodes = obs.metrics.counter("check.fallback.nodes").get();
    assert!(nodes <= 4 * n + 64, "{nodes} nodes for {n} ops");
}
