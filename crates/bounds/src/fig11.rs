//! Figure 11: the relationships between the lower-bound operation classes
//! and the algorithm's accessor/mutator classification, computed from the
//! executable definitions for every operation of every built-in data type.

use lintime_adt::classify::{self, OpReport};
use lintime_adt::spec::{DataType, OpClass};
use lintime_adt::universe::{ExploreLimits, Universe};
use std::fmt::Write as _;

/// The exploration bound of every classification the reports print: this
/// figure and the bound tables derived from it.
pub const LIMITS: ExploreLimits = ExploreLimits { max_depth: 3, max_states: 120 };

/// The classification report for one data type.
#[derive(Clone, Debug)]
pub struct TypeReport {
    /// Data type name.
    pub type_name: &'static str,
    /// Per-operation classification.
    pub ops: Vec<OpReport>,
}

/// Classify every operation of a typed specification.
pub fn classify_type<T: DataType>(t: &T, limits: ExploreLimits, k_max: usize) -> TypeReport {
    let universe = Universe::for_type(t);
    TypeReport { type_name: t.name(), ops: classify::report(t, &universe, limits, k_max) }
}

/// Classification reports for all built-in data types.
pub fn classify_all(limits: ExploreLimits, k_max: usize) -> Vec<TypeReport> {
    use lintime_adt::types::*;
    vec![
        classify_type(&Register::new(0), limits, k_max),
        classify_type(&RmwRegister::new(0), limits, k_max),
        classify_type(&FifoQueue::new(), limits, k_max),
        classify_type(&Stack::new(), limits, k_max),
        classify_type(&RootedTree::new(), limits, k_max),
        classify_type(&GrowSet::new(), limits, k_max),
        classify_type(&Counter::new(), limits, k_max),
        classify_type(&PriorityQueue::new(), limits, k_max),
        classify_type(&KvStore::new(), limits, k_max),
    ]
}

/// Check the Figure-11 set relationships on a batch of reports:
///
/// * pair-free ⊆ mutators ∩ accessors (Lemma 3);
/// * last-sensitive (k ≥ 2) ⊆ mutators;
/// * declared class = computed class everywhere.
///
/// (Overwriter status is reported but not constrained: by the paper's
/// definition a mixed operation whose return value determines the pre-state
/// is vacuously an overwriter.)
///
/// Returns a list of violations (empty = figure reproduced).
pub fn check_relationships(reports: &[TypeReport]) -> Vec<String> {
    let mut violations = Vec::new();
    for tr in reports {
        for op in &tr.ops {
            let name = format!("{}::{}", tr.type_name, op.op);
            match op.computed {
                Some(c) if c == op.declared => {}
                other => violations
                    .push(format!("{name}: declared {:?} but computed {:?}", op.declared, other)),
            }
            if op.pair_free && op.computed != Some(OpClass::Mixed) {
                violations.push(format!("{name}: pair-free but not mixed (Lemma 3 violated)"));
            }
            if op.last_sensitive_k >= 2 && !op.declared.is_mutator() {
                violations.push(format!("{name}: last-sensitive but not a mutator"));
            }
            // NB: a mixed operation whose return value pins down the whole
            // pre-state (e.g. rmw) is *vacuously* an overwriter under the
            // paper's definition — the premise "ρ.mop and ρ.op′.mop both
            // legal" already forces equal pre-states. So pair-free and
            // overwriter can coexist; no check for that.
        }
    }
    violations
}

/// Render the Figure-11 report as text.
pub fn render(reports: &[TypeReport]) -> String {
    let mut out = String::new();
    writeln!(out, "Figure 11: operation classes (computed from the executable definitions)")
        .unwrap();
    writeln!(
        out,
        "  {:<24} {:<15} {:>5} {:>6} {:>7} {:>5}",
        "operation", "class", "overw", "transp", "last-k", "pfree"
    )
    .unwrap();
    for tr in reports {
        for op in &tr.ops {
            writeln!(
                out,
                "  {:<24} {:<15} {:>5} {:>6} {:>7} {:>5}",
                format!("{}::{}", tr.type_name, op.op),
                op.computed.map_or("(none)".to_string(), |c| c.to_string()),
                op.overwriter,
                op.transposable,
                op.last_sensitive_k,
                op.pair_free,
            )
            .unwrap();
        }
    }
    writeln!(out).unwrap();
    writeln!(out, "  Set relationships (paper, Figure 11):").unwrap();
    writeln!(out, "    pair-free        ⊆ accessors ∩ mutators (Lemma 3)").unwrap();
    writeln!(out, "    last-sensitive   ⊆ mutators (pure or mixed)").unwrap();
    writeln!(out, "    overwriters      ⊆ mutators").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_relationships_hold() {
        let reports = classify_all(LIMITS, 4);
        let violations = check_relationships(&reports);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn expected_flag_pattern_for_queue() {
        let reports = classify_all(LIMITS, 4);
        let q = reports.iter().find(|r| r.type_name == "fifo-queue").unwrap();
        let enq = q.ops.iter().find(|o| o.op == "enqueue").unwrap();
        assert!(enq.transposable && enq.last_sensitive_k == 4 && !enq.pair_free);
        let deq = q.ops.iter().find(|o| o.op == "dequeue").unwrap();
        assert!(deq.pair_free);
        let peek = q.ops.iter().find(|o| o.op == "peek").unwrap();
        assert_eq!(peek.computed, Some(OpClass::PureAccessor));
    }

    #[test]
    fn render_mentions_every_type() {
        let reports = classify_all(ExploreLimits::quick(), 3);
        let s = render(&reports);
        for name in ["register", "fifo-queue", "stack", "rooted-tree", "set", "counter"] {
            assert!(s.contains(name), "missing {name}");
        }
    }
}
