//! What a run prints: the driver's result line, the fuller line the
//! orchestrating parent reads, and the human table.

use crate::catalog::{self, Clock, MetricDef, Tier};
use crate::json::Json;
use crate::stats::{median, spread};
use crate::workloads::Outcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Prefix of the line carrying every metric a run computed (not only the
/// ones of its own list, and without zero-filling).
pub const ALL_PREFIX: &str = "#all ";

fn metric_obj(def: &MetricDef, value: f64) -> (String, Json) {
    let fields = vec![
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::Str(def.unit.to_string())),
    ];
    (def.name.to_string(), Json::Obj(fields))
}

fn result(outcome: &Outcome, metrics: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(outcome.failed == 0)),
        ("attempted".to_string(), Json::Num(outcome.attempted.max(1) as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

/// The driver's result object: `correct`, `attempted`, `failed`, and exactly
/// the metrics of the run's list — every `end_to_end` metric for an untraced
/// run, every `per_layer` metric for a traced one. A per-layer metric the
/// workload does not exercise reads 0.
pub fn driver_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = catalog::METRICS
        .iter()
        .filter(|m| (m.tier != Tier::Gated) == traced)
        .map(|m| metric_obj(m, outcome.metrics.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    result(outcome, metrics).render()
}

/// The same object with every metric the run computed, for the parent.
pub fn all_line(outcome: &Outcome) -> String {
    let metrics = catalog::METRICS
        .iter()
        .filter_map(|m| outcome.metrics.get(m.name).map(|&v| metric_obj(m, v)))
        .collect();
    format!("{ALL_PREFIX}{}", result(outcome, metrics).render())
}

/// One workload's results over one or more repetitions.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    /// Operations attempted, summed over repetitions and both runs.
    pub attempted: u64,
    /// Operations failed, likewise.
    pub failed: u64,
    /// Values per metric, one per repetition.
    pub metrics: BTreeMap<String, Vec<f64>>,
}

impl WorkloadResult {
    /// Fold in one repetition: the traced run's metrics, overridden by the
    /// untraced run's where both report one (end-to-end numbers come from
    /// the run with tracing off).
    pub fn push(&mut self, untraced: &Json, traced: &Json) -> Result<(), String> {
        let mut merged: BTreeMap<String, f64> = BTreeMap::new();
        for run in [traced, untraced] {
            let count = |key: &str| {
                run.get(key).and_then(Json::as_f64).ok_or(format!("result lacks {key:?}"))
            };
            self.attempted += count("attempted")? as u64;
            self.failed += count("failed")? as u64;
            let metrics =
                run.get("metrics").and_then(Json::as_obj).ok_or("result lacks metrics")?;
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).ok_or("metric lacks a value")?;
                merged.insert(name.clone(), value);
            }
        }
        for (name, value) in merged {
            self.metrics.entry(name).or_default().push(value);
        }
        Ok(())
    }

    /// As a JSON object for the result file.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, values)| {
                let unit = catalog::metric(name).map_or("", |m| m.unit);
                let fields = vec![
                    ("unit".to_string(), Json::Str(unit.to_string())),
                    (
                        "values".to_string(),
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ];
                (name.clone(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }

    /// Read back what [`WorkloadResult::to_json`] wrote.
    pub fn from_json(v: &Json) -> Result<WorkloadResult, String> {
        let count =
            |key: &str| v.get(key).and_then(Json::as_f64).ok_or(format!("workload lacks {key:?}"));
        let mut out = WorkloadResult {
            attempted: count("attempted")? as u64,
            failed: count("failed")? as u64,
            metrics: BTreeMap::new(),
        };
        for (name, m) in v.get("metrics").and_then(Json::as_obj).ok_or("workload lacks metrics")? {
            let values = m.get("values").and_then(Json::as_arr).ok_or("metric lacks values")?;
            out.metrics.insert(name.clone(), values.iter().filter_map(Json::as_f64).collect());
        }
        Ok(out)
    }

    /// Share of attempted operations that failed.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The human table of one workload: every metric by name with its unit,
/// end-to-end metrics first, then the layers.
pub fn table(workload: &str, result: &WorkloadResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== {workload}: {} attempted, {} failed (fail_share {})",
        result.attempted,
        result.failed,
        result.fail_share()
    )
    .expect("write to String");
    for def in catalog::METRICS {
        let Some(values) = result.metrics.get(def.name) else { continue };
        let kind = match (def.tier, def.clock) {
            (Tier::Layer, Clock::Host) => "layer host",
            (Tier::Layer, Clock::Virtual) => "layer virtual",
            (_, Clock::Host) => "end-to-end host",
            (_, Clock::Virtual) => "end-to-end virtual",
        };
        let mut line =
            format!("  {:<44} {:>16.4} {:<6} {kind}", def.name, median(values), def.unit);
        if values.len() > 1 {
            let s = spread(values).map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0));
            write!(line, "  (median of {}, spread {s})", values.len()).expect("write to String");
        }
        writeln!(out, "{line}").expect("write to String");
    }
    out
}
