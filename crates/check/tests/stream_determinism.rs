//! The streaming checker decides settled windows on a decider thread and
//! applies their results only at fixed points, so its outcome must not
//! depend on when, or whether, anyone looks. Over the legal-by-construction
//! histories of `stream_fuzz.rs` (the generator in `common`), a
//! checker whose `stats()` is read after every event — which waits for
//! every window in flight each time — and one never queried before `finish`
//! must end with equal verdicts and statistics.

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_check::stream::{StreamChecker, StreamConfig};
use lintime_sim::rng::SplitMix64;
use std::sync::Arc;

mod common;
use common::legal_history;

/// Feed `h` event by event in time order; with `query`, read `stats()`
/// after every event. Returns the final verdict and statistics, printed.
fn fed(spec: &Arc<dyn ObjectSpec>, h: &History, flush_ops: usize, query: bool) -> String {
    let cfg = StreamConfig::default().with_flush_ops(flush_ops);
    let mut checker = StreamChecker::with_config(spec, cfg);
    let mut events: Vec<(i64, u8, usize)> = Vec::new();
    for (i, op) in h.ops.iter().enumerate() {
        events.push((op.t_invoke.0, 0, i));
        events.push((op.t_respond.0, 1, i));
    }
    events.sort_by_key(|&(t, rank, _)| (t, rank));
    for (_, rank, i) in events {
        let op = &h.ops[i];
        if rank == 0 {
            checker.feed_invoke(op.pid, op.t_invoke, op.instance.op, op.instance.arg.clone());
        } else {
            checker.feed_respond(op.pid, op.t_respond, op.instance.ret.clone());
        }
        if query {
            checker.stats();
        }
    }
    let (verdict, stats) = checker.finish();
    format!("{verdict:?} {stats:?}")
}

#[test]
fn queried_and_unqueried_checkers_agree_on_legal_streams() {
    let kinds: [(&str, Arc<dyn ObjectSpec>); 8] = [
        ("register", erase(Register::new(0))),
        ("rmw", erase(RmwRegister::new(0))),
        ("queue", erase(FifoQueue::new())),
        ("stack", erase(Stack::new())),
        ("pq", erase(PriorityQueue::new())),
        ("set", erase(GrowSet::new())),
        ("kv", erase(KvStore::new())),
        ("counter", erase(Counter::new())),
    ];
    let mut flushed = 0;
    for (kind, spec) in &kinds {
        // 200 seeds: a stream's last op responds at its latest instant, so
        // it is retired only at `finish`, and fewer than half of these short
        // streams retire a window before it.
        for seed in 0..200u64 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let h = legal_history(spec, kind, &mut rng);
            for flush_ops in [1, 2] {
                let quiet = fed(spec, &h, flush_ops, false);
                assert_eq!(fed(spec, &h, flush_ops, true), quiet, "{kind} seed {seed}");
                flushed += !quiet.contains("flushes: 0,") as u32;
            }
        }
    }
    assert!(flushed > 400, "only {flushed} streams retired a window");
}
