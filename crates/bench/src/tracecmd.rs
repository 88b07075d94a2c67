//! The `lintime trace` subcommand: replay a named scenario with the
//! observability layer switched on and render the run as the familiar
//! [`crate::timeline`] view interleaved with the structured trace —
//! every fault decision, retransmission, and checker phase, in simulated
//! time order — followed by the honesty flags and a metrics digest.
//!
//! Two scenarios are built in:
//!
//! * `table5` — the Table-5 FIFO-queue workload on Algorithm 1 under a
//!   fault-free network: the trace shows the paper's wait formulas
//!   playing out (announce at invoke, respond after the class-specific
//!   timer).
//! * `faults` — one run of the fault-injection sweep
//!   ([`crate::experiments::fault_sweep_report`]): the recovery-wrapped
//!   algorithm under message drops, where the trace shows drops,
//!   retransmissions, duplicate suppression, and the checker's verdict
//!   on what survived.
//!
//! See `docs/OBSERVABILITY.md` for the event taxonomy and
//! `EXPERIMENTS.md` § "Reading a trace" for annotated example output.

use crate::experiments::{default_params, fault_sweep_schedule};
use crate::timeline;
use lintime_adt::spec::{erase, ObjectSpec};
use lintime_adt::types::{FifoQueue, Register};
use lintime_core::cluster::{run_algorithm, Algorithm};
use lintime_core::reliable::{run_reliable, RecoveryConfig};
use lintime_obs::{Obs, TraceEvent};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::SimConfig;
use lintime_sim::faults::FaultPlan;
use lintime_sim::run::Run;
use lintime_sim::time::Time;
use lintime_sim::workload::{Mix, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// The scenario names [`trace_report`] accepts, with one-line summaries
/// (rendered in the CLI usage text).
pub const SCENARIOS: &[(&str, &str)] = &[
    ("table5", "Table-5 queue workload on Algorithm 1, fault-free"),
    ("faults", "one fault-sweep run: recovery under message drops"),
];

/// Knobs for [`trace_report`]; `Default` matches the CLI defaults.
#[derive(Clone, Debug)]
pub struct TraceOptions {
    /// Workload, delay, and fault seed.
    pub seed: u64,
    /// Message drop rate for the `faults` scenario.
    pub drop_rate: f64,
    /// Timeline width in characters.
    pub width: usize,
    /// Cap on rendered trace lines (the rest are elided with a note).
    pub max_events: usize,
}

impl Default for TraceOptions {
    fn default() -> TraceOptions {
        TraceOptions { seed: 7, drop_rate: 0.10, width: 100, max_events: 80 }
    }
}

/// Run `scenario` with tracing and metrics enabled and render the result.
/// Returns the report alongside the observability bundle so callers can
/// save a metrics snapshot (`--metrics-out`).
pub fn trace_report(scenario: &str, opts: &TraceOptions) -> Result<(String, Obs), String> {
    let (obs, ring) = Obs::ring(1 << 16);
    let (title, spec, run) = match scenario {
        "table5" => run_table5(&obs, opts),
        "faults" => run_faults(&obs, opts),
        other => {
            let names: Vec<&str> = SCENARIOS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown scenario {other:?}; try one of {names:?}"));
        }
    };

    // Check the run through the observed monitor entry point so the trace
    // also records the checker's phases and the registry its counters.
    let verdict = match lintime_check::history::History::from_run(&run) {
        Ok(h) => {
            let cfg = lintime_check::wing_gong::CheckConfig::default();
            match lintime_check::monitor::check_fast_with(&spec, &h, cfg, &obs) {
                lintime_check::wing_gong::Verdict::Linearizable(_) => "linearizable ✓".to_string(),
                lintime_check::wing_gong::Verdict::NotLinearizable => {
                    "NOT linearizable ✗".to_string()
                }
                lintime_check::wing_gong::Verdict::Unknown => {
                    "unknown (checker budget exceeded)".to_string()
                }
            }
        }
        Err(e) => format!("uncheckable ({e})"),
    };

    let mut out = String::new();
    writeln!(out, "trace: {title}").unwrap();
    writeln!(out).unwrap();
    out.push_str(&timeline::render(&run, opts.width));

    // The honesty flags travel with the verdict: a verdict only binds on a
    // run that ran to quiescence (not truncated) and raised no suspicion.
    writeln!(out, "  verdict: {verdict}").unwrap();
    writeln!(
        out,
        "  honesty flags: truncated={}, suspect={}",
        if run.truncated { "yes" } else { "no" },
        if run.is_suspect() { format!("yes {:?}", run.suspect) } else { "no".to_string() }
    )
    .unwrap();

    // The trace proper, in simulated-time order. Engine events arrive
    // already ordered; the checker's phase events are stamped at the end
    // of the run, so a stable sort keeps causality readable.
    let mut events = ring.events();
    events.sort_by_key(|e| e.sim_time);
    let mut by_cat: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in &events {
        *by_cat.entry(e.category.token()).or_default() += 1;
    }
    let cats: Vec<String> = by_cat.iter().map(|(c, n)| format!("{c}×{n}")).collect();
    writeln!(out, "\ntrace events: {} captured, {} dropped by ring", events.len(), ring.dropped())
        .unwrap();
    writeln!(out, "  categories: {}", cats.join(" ")).unwrap();
    for e in events.iter().take(opts.max_events) {
        writeln!(out, "{}", render_event(e)).unwrap();
    }
    if events.len() > opts.max_events {
        writeln!(out, "  … {} more events elided (raise --events)", events.len() - opts.max_events)
            .unwrap();
    }

    writeln!(out, "\nmetrics:").unwrap();
    out.push_str(&obs.metrics.render_text());
    Ok((out, obs))
}

/// One trace line: sim-time column, process lane, category token, detail.
fn render_event(e: &TraceEvent) -> String {
    let pid = e.pid.map_or("  — ".to_string(), |p| format!("p{p:<3}"));
    format!("  t={:>8} {pid} {:<14} {}", e.sim_time, e.category.token(), e.detail)
}

/// The Table-5 scenario: a balanced FIFO-queue workload on Algorithm 1
/// with `X = 0`, uniformly random delays, no faults.
fn run_table5(obs: &Obs, opts: &TraceOptions) -> (String, Arc<dyn ObjectSpec>, Run) {
    let p = default_params();
    let spec = erase(FifoQueue::new());
    let workload =
        Workload { mix: Mix::BALANCED, ops_per_process: 3, max_gap: p.d * 2, seed: opts.seed };
    let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: opts.seed })
        .with_schedule(workload.schedule(p, spec.as_ref()))
        .with_obs(obs.clone());
    let run = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &cfg);
    let title = format!(
        "table5 — fifo-queue, wtlw(X=0), n={}, d={}, u={}, ε={}, seed={}",
        p.n, p.d, p.u, p.epsilon, opts.seed
    );
    (title, spec, run)
}

/// The fault-sweep scenario: the register workload of
/// [`crate::experiments::fault_sweep_report`] on the recovery-wrapped
/// Algorithm 1, with uniform message drops at `opts.drop_rate`.
fn run_faults(obs: &Obs, opts: &TraceOptions) -> (String, Arc<dyn ObjectSpec>, Run) {
    let p = default_params();
    let spec = erase(Register::new(0));
    let recovery = RecoveryConfig { rto: p.d * 2, max_retries: 2 };
    let slack = p.d + p.u + p.epsilon + recovery.backoff_budget() + Time(1);
    let plan = FaultPlan::new(opts.seed).drop_all(opts.drop_rate);
    let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: opts.seed })
        .with_faults(plan)
        .with_schedule(fault_sweep_schedule(p, opts.seed, slack))
        .with_obs(obs.clone());
    let run = run_reliable(&spec, &cfg, Time::ZERO, recovery);
    let title = format!(
        "faults — register, recovered wtlw(X=0), drop rate {:.0}%, n={}, seed={}",
        opts.drop_rate * 100.0,
        p.n,
        opts.seed
    );
    (title, spec, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_obs::EventCategory;

    #[test]
    fn fault_scenario_renders_many_distinct_categories() {
        let opts = TraceOptions { max_events: usize::MAX, ..TraceOptions::default() };
        let (report, obs) = trace_report("faults", &opts).unwrap();
        // The acceptance bar: a fault-injected trace shows at least five
        // distinct event categories end to end.
        let distinct = EventCategory::ALL
            .iter()
            .filter(|c| report.contains(&format!(" {:<14}", c.token())))
            .count();
        assert!(distinct >= 5, "only {distinct} distinct categories in:\n{report}");
        assert!(report.contains("honesty flags:"), "{report}");
        assert!(report.contains("verdict:"), "{report}");
        // The registry saw both the engine and the checker.
        assert!(obs.metrics.counter("sim.events").get() > 0);
        assert!(
            obs.metrics.counter("check.monitor.witnesses").get()
                + obs.metrics.counter("check.fallback.runs").get()
                > 0
        );
    }

    #[test]
    fn table5_scenario_is_linearizable_and_elides_past_the_cap() {
        let opts = TraceOptions { max_events: 5, ..TraceOptions::default() };
        let (report, _) = trace_report("table5", &opts).unwrap();
        assert!(report.contains("verdict: linearizable ✓"), "{report}");
        assert!(report.contains("more events elided"), "{report}");
    }

    #[test]
    fn unknown_scenario_is_a_helpful_error() {
        let err = trace_report("nope", &TraceOptions::default()).unwrap_err();
        assert!(err.contains("table5") && err.contains("faults"), "{err}");
    }
}
