//! Determinism self-test: every workload at 1/100 scale.
//!
//! Checks, per workload, that both runs (untraced and traced) emit exactly
//! the metrics `BENCHMARK.json` lists for them, with valid names and units
//! and no oracle failure; that two runs on the same seed agree **exactly** on
//! every virtual metric; and that another seed is accepted. `BENCHMARK.json`
//! itself is checked against the catalogue and the driver's format limits.

use lintime_perf::catalog::{self, Clock, Tier};
use lintime_perf::json::{self, Json};
use lintime_perf::report::driver_line;
use lintime_perf::trace::Tracer;
use lintime_perf::workloads::{self, Outcome, RunOpts};
use std::collections::BTreeMap;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn strings(v: &Json, key: &str) -> Vec<String> {
    let list = v.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("no {key} list"));
    list.iter().map(|s| s.as_str().expect("a string").to_string()).collect()
}

/// `(name, unit, better, bound)` rows of a metric list of the manifest.
fn rows(manifest: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    let list = manifest.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("no {key}"));
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"), field("better"), m.get("bound").and_then(Json::as_f64))
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let opts = RunOpts { seed, seconds: 0.0, trace, scale: 0.01 };
    workloads::run(workload, &opts, &mut Tracer::new(false))
        .unwrap_or_else(|e| panic!("{workload} failed to run: {e}"))
}

/// Parse the driver line of `outcome` and check it against the manifest's
/// list for that kind of run.
fn check_driver_line(workload: &str, outcome: &Outcome, traced: bool) {
    let line = driver_line(outcome, traced);
    assert!(!line.contains('\n'));
    let result = json::parse(&line).expect("the driver line is JSON");
    let keys: Vec<&str> = result.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}: {:?}", outcome.notes);
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));

    let listed = rows(&manifest(), if traced { "per_layer" } else { "end_to_end" });
    let emitted = result.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(
        emitted.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        listed.iter().map(|(name, ..)| name.clone()).collect::<Vec<_>>(),
        "{workload}: the run must emit exactly its list of BENCHMARK.json"
    );
    for ((name, m), (_, unit, ..)) in emitted.iter().zip(&listed) {
        assert!(catalog::valid_name(name), "{name}");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name}");
        let value = m.get("value").and_then(Json::as_f64).expect("a numeric value");
        assert!(value.is_finite(), "{workload}/{name} = {value}");
        if !traced {
            assert!(value > 0.0, "{workload}: end-to-end metric {name} must never be 0");
        }
    }
}

fn virtual_metrics(outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    outcome
        .metrics
        .iter()
        .filter(|(name, _)| catalog::metric(name).is_some_and(|m| m.clock == Clock::Virtual))
        .map(|(name, value)| (*name, *value))
        .collect()
}

fn exercise(workload: &str, expect_virtual: &[&str]) {
    let untraced = run(workload, 42, false);
    check_driver_line(workload, &untraced, false);
    let traced = run(workload, 42, true);
    check_driver_line(workload, &traced, true);
    for name in expect_virtual {
        assert!(traced.metrics.contains_key(name), "{workload} must report {name}");
    }
    // The second same-seed run: bit-identical virtual metrics.
    let again = run(workload, 42, true);
    assert_eq!(virtual_metrics(&traced), virtual_metrics(&again), "{workload}: same seed");
    for (name, value) in virtual_metrics(&untraced) {
        assert_eq!(traced.metrics.get(name), Some(&value), "{workload}: {name} across runs");
    }
    // Another seed is accepted (and is free to read differently).
    check_driver_line(workload, &run(workload, 7, false), false);
}

#[test]
fn serve_knee() {
    exercise(
        "serve-knee",
        &[
            "total_p99_ticks",
            "queue_p99_ticks",
            "max_rate_ok_ops_per_d",
            "lat_mixed_max_ticks",
            "msgs_per_op",
            "check_peak_resident_ops",
            "serve.explained_share",
            "serve.ladder.r10.queue_p99_ticks",
        ],
    );
}

#[test]
fn serve_overload() {
    exercise("serve-overload", &["queue_p99_ticks", "bytes_per_op", "sim.ingress_peak_depth"]);
}

#[test]
fn engine_storm() {
    exercise("engine-storm", &["lat_mutator_max_ticks", "msgs_per_op", "core.quorum_sm.ns_per_op"]);
}

#[test]
fn check_stream() {
    exercise("check-stream", &["check_peak_resident_ops", "check.stream.fallback_share"]);
}

#[test]
fn check_offline() {
    exercise("check-offline", &["check.offline.wing_gong_ns_per_op.kv"]);
}

/// The live workload has no virtual metrics and every run costs wall time
/// (it is paced), so it runs once per kind. It is also the one workload at
/// the mercy of the host: a sandbox stall of tens of milliseconds at the
/// wrong instant leaves an operation unanswered, which the oracle rightly
/// counts as failed. A unit test must not fail on that, so a failed run is
/// retried; three in a row is a finding.
#[test]
fn live_paced() {
    for traced in [false, true] {
        let outcome = (0..3)
            .map(|_| run("live-paced", 42, traced))
            .find(|outcome| outcome.failed == 0)
            .expect("three live runs in a row failed their oracle");
        check_driver_line("live-paced", &outcome, traced);
        if traced {
            let m = &outcome.metrics;
            assert!(m["live_overhead_p99_us"] >= m["live_overhead_p50_us"]);
        }
    }
}

#[test]
fn benchmark_json_matches_the_catalogue_and_the_driver_limits() {
    let manifest = manifest();
    let keys: Vec<&str> = manifest.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let command = strings(&manifest, "command");
    assert!(command.len() <= 32 && command.iter().all(|s| s.len() <= 200));
    assert!(command.iter().all(|s| !s.starts_with('/') && !s.contains("..")));
    assert_eq!(strings(&manifest, "paths"), ["crates/perf"]);
    let run_seconds = manifest.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);

    let workloads = manifest.get("workloads").and_then(Json::as_arr).unwrap();
    let listed: Vec<(&str, &str)> = workloads
        .iter()
        .map(|w| {
            assert_eq!(w.as_obj().unwrap().len(), 2);
            (
                w.get("name").and_then(Json::as_str).unwrap(),
                w.get("why").and_then(Json::as_str).unwrap(),
            )
        })
        .collect();
    let ours: Vec<(&str, &str)> = catalog::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, ours);
    assert!((2..=8).contains(&listed.len()));

    let expect = |tier: fn(Tier) -> bool| -> Vec<(String, String, String, Option<f64>)> {
        catalog::METRICS
            .iter()
            .filter(|m| tier(m.tier))
            .map(|m| {
                let bound =
                    (m.tier == Tier::Gated).then(|| m.bound.expect("gated metrics are bounded"));
                (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string(), bound)
            })
            .collect()
    };
    let end_to_end = rows(&manifest, "end_to_end");
    assert_eq!(end_to_end, expect(|t| t == Tier::Gated));
    assert!(end_to_end.iter().all(|(.., bound)| bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(end_to_end.iter().any(|(n, u, b, _)| n == "setup_s" && u == "s" && b == "lower"));
    assert_eq!(rows(&manifest, "per_layer"), expect(|t| t != Tier::Gated));
    for (name, unit, ..) in end_to_end.iter().chain(&rows(&manifest, "per_layer")) {
        assert!(catalog::valid_name(name) && catalog::valid_unit(unit), "{name} [{unit}]");
    }
}
