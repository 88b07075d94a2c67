//! `lintime-perf compare a.json b.json`: check a result set against a
//! baseline, metric by metric, with the bounds of the catalogue.
//!
//! One row per workload × bounded metric. A virtual metric (bound 0) must
//! hold the very same values in both sets. A host metric compares medians:
//! `b` may be worse than `a` by at most the bound. When a set holds several
//! repetitions and their spread (interquartile distance over the median, as
//! the driver computes it) exceeds the bound, a difference inside the noise
//! is reported `unresolved`, not `ok` — unless every run of `b` reads better
//! than every run of `a`.

use crate::catalog::{self, Better};
use crate::json::{self, Json};
use crate::report::WorkloadResult;
use crate::stats::{median, sorted, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A result file: workload name → results.
pub type ResultSet = BTreeMap<String, WorkloadResult>;

/// Render a result set as the file `run --out` writes.
pub fn render_set(set: &ResultSet, seed: u64, seconds: f64) -> String {
    let workloads = set.iter().map(|(name, r)| (name.clone(), r.to_json())).collect();
    Json::Obj(vec![
        ("benchmark".to_string(), Json::Str("lintime-perf".to_string())),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ])
    .render()
}

/// Parse a result file.
pub fn parse_set(text: &str) -> Result<ResultSet, String> {
    let doc = json::parse(text)?;
    let workloads = doc.get("workloads").and_then(Json::as_obj).ok_or("no \"workloads\" object")?;
    workloads.iter().map(|(name, v)| Ok((name.clone(), WorkloadResult::from_json(v)?))).collect()
}

/// Verdict of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Row {
    /// Within the bound (or identical, for an exact metric).
    Ok,
    /// Worse than the bound allows, or an exact metric that differs.
    Regressed,
    /// The sets' own spread exceeds the bound; the difference is noise-sized.
    Unresolved,
}

/// Compare `b` against baseline `a`. Returns the report and how many rows
/// regressed and how many are unresolved. Only a regressed row makes `b`
/// fail; an unresolved one says the sets are too noisy to tell (rerun with
/// more `--repeat`), which is reported, not presumed either way.
pub fn compare(a: &ResultSet, b: &ResultSet) -> (String, usize, usize) {
    let mut out = String::new();
    let (mut regressed, mut unresolved) = (0, 0);
    writeln!(
        out,
        "{:<15} {:<26} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound", "spread"
    )
    .expect("write to String");
    for w in catalog::WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(w.name), b.get(w.name)) else { continue };
        for def in catalog::METRICS {
            let Some(bound) = def.bound else { continue };
            let (va, vb) = match def.name {
                "fail_share" => (vec![ra.fail_share()], vec![rb.fail_share()]),
                name => match (ra.metrics.get(name), rb.metrics.get(name)) {
                    (Some(x), Some(y)) => (x.clone(), y.clone()),
                    _ => continue,
                },
            };
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = match def.better {
                Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
            };
            let noise = spread(&va).into_iter().chain(spread(&vb)).fold(0.0, f64::max);
            let row = if bound == 0.0 {
                if sorted(va.clone()) == sorted(vb.clone()) {
                    Row::Ok
                } else {
                    Row::Regressed
                }
            } else if noise > bound {
                let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
                let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
                let b_wins_every_run = match def.better {
                    Better::Lower => max(&vb) < min(&va),
                    Better::Higher => min(&vb) > max(&va),
                };
                if b_wins_every_run {
                    Row::Ok
                } else {
                    Row::Unresolved
                }
            } else if worse_by > bound {
                Row::Regressed
            } else {
                Row::Ok
            };
            regressed += usize::from(row == Row::Regressed);
            unresolved += usize::from(row == Row::Unresolved);
            let verdict = match (row, bound == 0.0) {
                (Row::Ok, true) => "identical",
                (Row::Ok, false) => "ok",
                (Row::Regressed, true) => "DIFFERENT",
                (Row::Regressed, false) => "REGRESSED",
                (Row::Unresolved, _) => "unresolved",
            };
            writeln!(
                out,
                "{:<15} {:<26} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {:>7.2}%  {verdict}",
                w.name,
                def.name,
                ma,
                mb,
                worse_by * 100.0,
                bound * 100.0,
                noise * 100.0
            )
            .expect("write to String");
        }
    }
    (out, regressed, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ops_per_s: &[f64], msgs: f64) -> ResultSet {
        let mut r = WorkloadResult { attempted: 100, ..WorkloadResult::default() };
        r.metrics.insert("ops_per_s".to_string(), ops_per_s.to_vec());
        r.metrics.insert("msgs_per_op".to_string(), vec![msgs; ops_per_s.len()]);
        BTreeMap::from([("engine-storm".to_string(), r)])
    }

    #[test]
    fn result_files_round_trip() {
        let a = set(&[100.0, 101.0, 99.0, 100.5], 13.25);
        let back = parse_set(&render_set(&a, 42, 10.0)).unwrap();
        assert_eq!(back["engine-storm"].metrics, a["engine-storm"].metrics);
        assert_eq!(back["engine-storm"].attempted, 100);
    }

    #[test]
    fn host_metrics_get_their_bound_and_exact_ones_get_none() {
        let base = set(&[100.0, 101.0, 99.0, 100.5], 13.25);
        // 3% slower: inside the 25% bound.
        let (_, regressed, unresolved) = compare(&base, &set(&[97.0, 98.0, 96.5, 97.2], 13.25));
        assert_eq!((regressed, unresolved), (0, 0));
        // 40% slower: regressed.
        let (report, regressed, _) = compare(&base, &set(&[60.0, 61.0, 59.0, 60.5], 13.25));
        assert!(regressed == 1 && report.contains("REGRESSED"), "{report}");
        // Same speed, one more message per 10^4 operations: different.
        let (report, regressed, _) = compare(&base, &set(&[100.0, 101.0, 99.0, 100.5], 13.2501));
        assert!(regressed == 1 && report.contains("DIFFERENT"), "{report}");
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_b_wins_every_run() {
        let noisy = set(&[100.0, 130.0, 80.0, 115.0], 1.0);
        let (report, regressed, unresolved) =
            compare(&noisy, &set(&[98.0, 125.0, 85.0, 110.0], 1.0));
        assert!(regressed == 0 && unresolved == 1 && report.contains("unresolved"), "{report}");
        let (_, regressed, unresolved) = compare(&noisy, &set(&[140.0, 150.0, 135.0, 160.0], 1.0));
        assert_eq!((regressed, unresolved), (0, 0));
    }
}
