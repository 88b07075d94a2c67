//! Differential fuzzing for the online checker: feeding a history to
//! [`StreamChecker`] one event at a time — with garbage collection both off
//! (default flush window, nothing settles in a small history) and as
//! aggressive as possible (`flush_ops = 2`) — must produce the same verdict
//! class as the offline `check_fast`/Wing–Gong pipeline on that history.
//!
//! Three generators per ADT, all deterministic in the seed:
//!
//! * *legal-by-construction* — random operations replayed sequentially for
//!   consistent returns, with overlapping intervals whose real-time order
//!   the replay order respects (both paths must certify);
//! * *corrupted* — one return (or all returns) mutated; the paths must
//!   still agree, usually on a refutation;
//! * *pending* — each process's last operation may lose its response, so
//!   the stream ends with live invocations and the finish-time completion
//!   search must agree with the offline pending-aware checker.
//!
//! Window certificates retained under `keep_witnesses` are additionally
//! replay-verified against their seeded spec snapshots.

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_check::stream::StreamChecker;
use lintime_sim::rng::SplitMix64;
use lintime_sim::time::{Pid, Time};
use std::sync::Arc;

mod common;
use common::legal_history;

fn arb_ret(rng: &mut SplitMix64) -> Value {
    match rng.gen_range(0usize..4) {
        0 => Value::Unit,
        1 => Value::Bool(rng.gen_range(0u64..2) == 0),
        _ => Value::Int(rng.gen_range(0i64..5)),
    }
}

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

/// Feed `h` (complete ops) plus `pending` invocations to a fresh checker,
/// one event at a time in event-time order, and return the final verdict
/// class plus the checker for witness inspection.
fn stream_classes(
    spec: &Arc<dyn ObjectSpec>,
    h: &History,
    pending: &[PendingOp],
    flush_ops: usize,
) -> &'static str {
    let cfg = lintime_check::stream::StreamConfig::default()
        .with_flush_ops(flush_ops)
        .keeping_witnesses();
    let mut checker = StreamChecker::with_config(spec, cfg);
    // Interleave invoke/respond events by time. Strictly increasing
    // per-op (invoke < respond) and non-overlapping per pid, so a plain
    // stable sort by time yields a well-formed stream.
    enum Ev<'a> {
        Invoke(Pid, Time, &'static str, &'a Value),
        Respond(Pid, Time, &'a Value),
    }
    let mut events: Vec<(i64, u8, Ev<'_>)> = Vec::new();
    for op in &h.ops {
        events.push((
            op.t_invoke.0,
            0,
            Ev::Invoke(op.pid, op.t_invoke, op.instance.op, &op.instance.arg),
        ));
        events.push((op.t_respond.0, 1, Ev::Respond(op.pid, op.t_respond, &op.instance.ret)));
    }
    for p in pending {
        events.push((
            p.t_invoke.0,
            0,
            Ev::Invoke(p.pid, p.t_invoke, p.invocation.op, &p.invocation.arg),
        ));
    }
    events.sort_by_key(|&(t, rank, _)| (t, rank));
    for (_, _, ev) in events {
        match ev {
            Ev::Invoke(pid, t, op, arg) => {
                checker.feed_invoke(pid, t, op, arg.clone());
            }
            Ev::Respond(pid, t, ret) => {
                checker.feed_respond(pid, t, ret.clone());
            }
        }
    }
    // Every window the checker certified along the way must replay against
    // the seeded spec snapshot it was certified under — even when the stream
    // later turns out to be a violation.
    for cw in checker.certified() {
        assert!(
            verify_witness(&cw.spec, &cw.window, &cw.order),
            "certified window fails replay: {:?}",
            cw.window
        );
    }
    let (verdict, stats) = checker.finish();
    assert_eq!(stats.malformed, 0, "generated stream must be well-formed");
    verdict.class()
}

fn offline_class(spec: &Arc<dyn ObjectSpec>, h: &History, pending: &[PendingOp]) -> &'static str {
    let verdict = if pending.is_empty() {
        check_fast(spec, h)
    } else {
        let horizon = h
            .ops
            .iter()
            .flat_map(|o| [o.t_invoke, o.t_respond])
            .chain(pending.iter().map(|p| p.t_invoke))
            .max()
            .unwrap_or(Time(0))
            .max(Time(0));
        let ph = PendingHistory {
            complete: History { ops: h.ops.clone() },
            pending: pending.to_vec(),
            horizon,
            malformed: 0,
        };
        check_fast_pending(spec, &ph)
    };
    match verdict {
        Verdict::Linearizable(order) => {
            if pending.is_empty() {
                assert!(verify_witness(spec, h, &order), "bogus offline witness\n{h:?}");
            }
            "linearizable"
        }
        Verdict::NotLinearizable => "not-linearizable",
        Verdict::Unknown => "unknown",
    }
}

/// Streamed (with and without aggressive GC) and offline verdict classes
/// must agree exactly: the canonical-cut decomposition is an equivalence,
/// not an approximation.
fn assert_agreement(spec: &Arc<dyn ObjectSpec>, h: &History, pending: &[PendingOp], label: &str) {
    let offline = offline_class(spec, h, pending);
    for flush_ops in [1024, 2] {
        let streamed = stream_classes(spec, h, pending, flush_ops);
        assert_eq!(
            streamed, offline,
            "{label} (flush_ops={flush_ops}): streamed={streamed} offline={offline}\n{h:?}\n\
             pending: {pending:?}"
        );
    }
}

/// Detach each process's last operation with probability 1/3: its response
/// is withheld and it rides along as a pending invocation.
fn detach_pending(h: &History, rng: &mut SplitMix64) -> (History, Vec<PendingOp>) {
    let mut last_of_pid: Vec<Option<usize>> = vec![None; 4];
    for (i, op) in h.ops.iter().enumerate() {
        last_of_pid[op.pid.0] = Some(i);
    }
    let detach: Vec<usize> =
        last_of_pid.into_iter().flatten().filter(|_| rng.gen_range(0usize..3) == 0).collect();
    let mut complete = Vec::new();
    let mut pending = Vec::new();
    for (i, op) in h.ops.iter().enumerate() {
        if detach.contains(&i) {
            pending.push(PendingOp {
                pid: op.pid,
                invocation: Invocation { op: op.instance.op, arg: op.instance.arg.clone() },
                t_invoke: op.t_invoke,
                may_have_effect: true,
            });
        } else {
            complete.push(op.clone());
        }
    }
    (History { ops: complete }, pending)
}

fn run_kind(kind: &str, spec: Arc<dyn ObjectSpec>, seeds: u64) {
    for seed in 0..seeds {
        let mut rng = SplitMix64::seed_from_u64(
            seed ^ kind.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64)),
        );
        let legal = legal_history(&spec, kind, &mut rng);
        assert_agreement(&spec, &legal, &[], &format!("{kind} seed {seed} (legal)"));
        let bad = corrupt(&legal, &mut rng);
        assert_agreement(&spec, &bad, &[], &format!("{kind} seed {seed} (corrupted)"));
        let (complete, pending) = detach_pending(&legal, &mut rng);
        if !pending.is_empty() {
            assert_agreement(&spec, &complete, &pending, &format!("{kind} seed {seed} (pending)"));
        }
    }
}

const SEEDS_PER_KIND: u64 = 200;

#[test]
fn register_stream_differential() {
    run_kind("register", erase(Register::new(0)), SEEDS_PER_KIND);
}

#[test]
fn rmw_register_stream_differential() {
    run_kind("rmw", erase(RmwRegister::new(0)), SEEDS_PER_KIND);
}

#[test]
fn queue_stream_differential() {
    run_kind("queue", erase(FifoQueue::new()), SEEDS_PER_KIND);
}

#[test]
fn stack_stream_differential() {
    run_kind("stack", erase(Stack::new()), SEEDS_PER_KIND);
}

#[test]
fn priority_queue_stream_differential() {
    run_kind("pq", erase(PriorityQueue::new()), SEEDS_PER_KIND);
}

#[test]
fn set_stream_differential() {
    run_kind("set", erase(GrowSet::new()), SEEDS_PER_KIND);
}

#[test]
fn kv_stream_differential() {
    run_kind("kv", erase(KvStore::new()), SEEDS_PER_KIND);
}

#[test]
fn counter_stream_differential() {
    run_kind("counter", erase(Counter::new()), SEEDS_PER_KIND);
}
