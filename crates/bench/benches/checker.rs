//! Linearizability-checker cost: the general Wing–Gong search versus the
//! type-specialized fast-path monitors ([`lintime_check::monitor`]), on
//! queue and stack histories up to 10k operations, plus the compositional
//! product-history comparison.
//!
//! Besides the console table, the run writes `BENCH_checker.json` at the
//! workspace root (override with `LINTIME_BENCH_OUT`): one row per
//! (case, variant) with the median in nanoseconds and the history size, so
//! speedups are machine-checkable across commits. A final untimed pass with
//! the observability layer enabled also writes `BENCH_metrics.json` (checker
//! counters and frontier histograms) next to it; the timed measurements
//! themselves always run with observability off.

use lintime_adt::prelude::*;
use lintime_adt::spec::OpInstance;
use lintime_bench::microbench::{Group, JsonReport, Measurement};
use lintime_check::history::History;
use lintime_check::monitor::check_fast;
use lintime_check::wing_gong::check;
use lintime_obs::{Obs, Registry, TraceHandle};
use std::sync::Arc;

/// A linearizable queue history: `n_ops` enqueues in `window`-wide concurrent
/// batches followed by matching sequential dequeues.
fn queue_history(n_ops: usize, window: usize) -> History {
    let mut tuples: Vec<(usize, OpInstance, i64, i64)> = Vec::new();
    let mut t = 0i64;
    for batch in 0..(n_ops / window) {
        for k in 0..window {
            let v = (batch * window + k) as i64;
            tuples.push((k, OpInstance::new("enqueue", v, ()), t, t + 100));
        }
        t += 200;
    }
    for v in 0..n_ops as i64 {
        tuples.push((0, OpInstance::new("dequeue", (), v), t, t + 10));
        t += 20;
    }
    History::from_tuples(tuples)
}

/// A linearizable stack history: `n_ops` pushes in `window`-wide concurrent
/// batches followed by sequential pops in reverse (LIFO) order.
fn stack_history(n_ops: usize, window: usize) -> History {
    let mut tuples: Vec<(usize, OpInstance, i64, i64)> = Vec::new();
    let mut t = 0i64;
    for batch in 0..(n_ops / window) {
        for k in 0..window {
            let v = (batch * window + k) as i64;
            tuples.push((k, OpInstance::new("push", v, ()), t, t + 100));
        }
        t += 200;
    }
    for v in (0..n_ops as i64).rev() {
        tuples.push((0, OpInstance::new("pop", (), v), t, t + 10));
        t += 20;
    }
    History::from_tuples(tuples)
}

/// A linearizable priority-queue history: `n_ops` inserts in `window`-wide
/// concurrent batches followed by sequential `extract_min`s in ascending
/// order. The fast path now runs the specialized priority-queue monitor
/// (priority-inversion sweep + greedy min-order witness), so `check_fast`
/// no longer falls back to the general search here; the `wing_gong` variant
/// still measures the search, whose concurrent inserts commute on the
/// sorted-multiset state and stress the memo table rather than the frontier.
fn priority_queue_history(n_ops: usize, window: usize) -> History {
    let mut tuples: Vec<(usize, OpInstance, i64, i64)> = Vec::new();
    let mut t = 0i64;
    for batch in 0..(n_ops / window) {
        for k in 0..window {
            let v = (batch * window + k) as i64;
            tuples.push((k, OpInstance::new("insert", v, ()), t, t + 100));
        }
        t += 200;
    }
    for v in 0..n_ops as i64 {
        tuples.push((0, OpInstance::new("extract_min", (), v), t, t + 10));
        t += 20;
    }
    History::from_tuples(tuples)
}

struct Case {
    adt: &'static str,
    n_ops: usize,
    window: usize,
    spec: Arc<dyn ObjectSpec>,
    history: History,
}

fn bench_checker(report: &mut JsonReport) -> Registry {
    let cases: Vec<Case> = [(64usize, 4usize), (1024, 8), (10_000, 8)]
        .iter()
        .flat_map(|&(n_ops, window)| {
            [
                Case {
                    adt: "queue",
                    n_ops,
                    window,
                    spec: erase(FifoQueue::new()),
                    history: queue_history(n_ops, window),
                },
                Case {
                    adt: "stack",
                    n_ops,
                    window,
                    spec: erase(Stack::new()),
                    history: stack_history(n_ops, window),
                },
                Case {
                    adt: "priority_queue",
                    n_ops,
                    window,
                    spec: erase(PriorityQueue::new()),
                    history: priority_queue_history(n_ops, window),
                },
            ]
        })
        .collect();

    let record = |report: &mut JsonReport, case: &Case, variant: &str, m: Measurement| {
        report.push(&[
            ("case", format!("{}/{}ops_w{}", case.adt, case.n_ops, case.window).as_str().into()),
            ("variant", variant.into()),
            ("history_len", case.history.len().into()),
            ("median_ns", m.median.as_nanos().into()),
        ]);
    };

    let fast_group = Group::new("checker_fast").sample_size(20);
    let mut fast_medians = Vec::new();
    for case in &cases {
        let id = format!("{}/{}ops_w{}", case.adt, case.n_ops, case.window);
        let m = fast_group.bench_throughput(&id, case.history.len() as u64, || {
            let v = check_fast(&case.spec, &case.history);
            assert!(v.is_linearizable());
            v
        });
        record(&mut *report, case, "check_fast", m);
        fast_medians.push(m.median);
    }

    // The general search pays a per-node state clone, so large histories get
    // a smaller sample count to keep the run short.
    let wg_small = Group::new("checker_wg").sample_size(20);
    let wg_large = Group::new("checker_wg").sample_size(3);
    for (case, fast) in cases.iter().zip(fast_medians) {
        let id = format!("{}/{}ops_w{}", case.adt, case.n_ops, case.window);
        let group = if case.n_ops > 1024 { &wg_large } else { &wg_small };
        let m = group.bench_throughput(&id, case.history.len() as u64, || {
            let v = check(&case.spec, &case.history);
            assert!(v.is_linearizable());
            v
        });
        record(&mut *report, case, "wing_gong", m);
        if !fast.is_zero() {
            println!(
                "  speedup {:<32} {:>8.1}x (wing_gong {} / check_fast {})",
                id,
                m.median.as_secs_f64() / fast.as_secs_f64(),
                lintime_bench::microbench::fmt_duration(m.median),
                lintime_bench::microbench::fmt_duration(fast),
            );
        }
    }

    // One untimed instrumented pass: all measurements above run with the
    // default `Obs::off()`, so the observability layer costs them nothing;
    // this extra pass feeds a registry (fast-path hits, fallback node
    // counts, frontier sizes) whose snapshot lands next to the JSON report.
    let obs = Obs::new(TraceHandle::null(), Registry::new());
    for case in &cases {
        let cfg = lintime_check::wing_gong::CheckConfig::default();
        let v = lintime_check::monitor::check_fast_with(&case.spec, &case.history, cfg, &obs);
        assert!(v.is_linearizable());
    }
    obs.metrics
}

/// A product history interleaving k objects, each with `per` concurrent
/// enqueues then dequeues — monolithic checking must consider the
/// interleavings, compositional checking does not.
fn product_history(product: &lintime_adt::product::ProductSpec, per: usize) -> History {
    use lintime_adt::spec::ObjectSpec as _;
    let mut tuples: Vec<(usize, OpInstance, i64, i64)> = Vec::new();
    let mut t = 0i64;
    for (k, prefix) in product.prefixes().enumerate() {
        for v in 0..per as i64 {
            let name = product.op_meta(&format!("{prefix}/enqueue")).unwrap().name;
            tuples.push((k, OpInstance::new(name, v, ()), t, t + 100));
        }
    }
    t += 200;
    for prefix in product.prefixes() {
        for v in 0..per as i64 {
            let name = product.op_meta(&format!("{prefix}/dequeue")).unwrap().name;
            tuples.push((0, OpInstance::new(name, (), v), t, t + 5));
            t += 10;
        }
    }
    History::from_tuples(tuples)
}

fn bench_compositional() {
    use lintime_adt::product::ProductSpec;
    use lintime_check::compositional::check_components;
    use lintime_check::wing_gong::CheckConfig;
    let product = ProductSpec::new(
        "3queues",
        vec![
            ("a", erase(FifoQueue::new())),
            ("b", erase(FifoQueue::new())),
            ("c", erase(FifoQueue::new())),
        ],
    );
    let h = product_history(&product, 5);
    let group = Group::new("compositional").sample_size(20);
    let spec: std::sync::Arc<dyn ObjectSpec> = std::sync::Arc::new(ProductSpec::new(
        "3queues",
        vec![
            ("a", erase(FifoQueue::new())),
            ("b", erase(FifoQueue::new())),
            ("c", erase(FifoQueue::new())),
        ],
    ));
    group.bench("monolithic_3x5", || {
        let v = check(&spec, &h);
        assert!(v.is_linearizable());
        v
    });
    group.bench("per_object_3x5", || {
        let v = check_components(&product, &h, CheckConfig::default()).unwrap();
        assert!(v.is_linearizable());
        v
    });
}

fn main() {
    let mut report = JsonReport::new();
    let metrics = bench_checker(&mut report);
    bench_compositional();
    let path = std::env::var("LINTIME_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_checker.json", env!("CARGO_MANIFEST_DIR")));
    let path = std::path::PathBuf::from(path);
    report.save(&path).expect("write BENCH_checker.json");
    println!("wrote {}", path.display());
    let metrics_path = path.with_file_name("BENCH_metrics.json");
    metrics.save_snapshot(&metrics_path).expect("write BENCH_metrics.json");
    println!("wrote {}", metrics_path.display());
}
