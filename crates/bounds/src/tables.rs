//! The bound tables: Tables 1–5 of the paper, and the same table for any
//! data type. A table is row data plus one rule. The row data is what the
//! algebra cannot give: the label, the operation or (mutator, accessor) sum
//! behind it, and the previously published bound with its citation. The
//! new-LB and new-UB cells are derived from the operation's
//! [`classify::report`] entry, the one Figure 11 prints, by [`op_theorem`]
//! (Theorem 5 on a sum iff [`classify::check_thm5_hypotheses`] holds) and
//! [`formulas::alg1_ub`]. The "measured" column is filled by running
//! Algorithm 1 on the simulator under adversarial delay assignments.

use crate::fig11::LIMITS;
use crate::formulas::{self, previous};
use lintime_adt::classify::{self, OpReport};
use lintime_adt::spec::{DataType, Invocation, ObjectSpec, OpClass};
use lintime_adt::types::{FifoQueue, RmwRegister, RootedTree, Stack};
use lintime_adt::universe::Universe;
use lintime_core::cluster::{run_algorithm, Algorithm};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::SimConfig;
use lintime_sim::schedule::Schedule;
use lintime_sim::time::{ModelParams, Pid, Time};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// The theorem of the paper that bounds a row from below.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Theorem {
    /// Theorem 2: a pure accessor takes at least `u/4`.
    PureAccessor,
    /// Theorem 3: a mutator last-sensitive over `k` certified instances
    /// takes at least `(1 − 1/k)u`.
    LastSensitive(usize),
    /// Theorem 4: a pair-free operation takes at least `d + m`.
    PairFree,
    /// Theorem 5: a transposable mutator and an accessor that discriminates
    /// it take at least `d + m` together.
    Sum,
}

impl Theorem {
    /// The theorem's number in the paper.
    pub fn number(self) -> u8 {
        match self {
            Theorem::PureAccessor => 2,
            Theorem::LastSensitive(_) => 3,
            Theorem::PairFree => 4,
            Theorem::Sum => 5,
        }
    }

    /// The lower bound the theorem proves at `p`.
    pub fn bound(self, p: ModelParams) -> Time {
        match self {
            Theorem::PureAccessor => formulas::thm2_pure_accessor_lb(p),
            Theorem::LastSensitive(k) => formulas::thm3_last_sensitive_lb(p, k),
            Theorem::PairFree => formulas::thm4_pair_free_lb(p),
            Theorem::Sum => formulas::thm5_sum_lb(p),
        }
    }
}

impl fmt::Display for Theorem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Thm {}", self.number())
    }
}

/// The rule of Table 5 for one operation: a pure accessor gets Theorem 2, a
/// pair-free mixed operation Theorem 4, a mutator with a certified `k ≥ 2`
/// Theorem 3 at that `k`; anything else gets no lower bound.
pub fn op_theorem(r: &OpReport) -> Option<Theorem> {
    match r.computed? {
        OpClass::PureAccessor => Some(Theorem::PureAccessor),
        OpClass::Mixed if r.pair_free => Some(Theorem::PairFree),
        _ if r.last_sensitive_k >= 2 => Some(Theorem::LastSensitive(r.last_sensitive_k)),
        _ => None,
    }
}

/// The operations behind a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOps {
    /// One operation.
    Op(&'static str),
    /// The sum of a mutator and an accessor.
    Sum(&'static str, &'static str),
}

/// A previously published lower bound: its formula and its citation.
pub type Prior = (fn(ModelParams) -> Time, &'static str);

/// One row of a bounds table.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Operation (or operation-sum) label, e.g. `"Enqueue + Peek"`.
    pub operation: String,
    /// The operations the row bounds.
    pub ops: RowOps,
    /// Previously known lower bound, with citation.
    pub previous_lb: Option<(Time, &'static str)>,
    /// The theorem of this paper that bounds the row from below.
    pub new_lb: Option<Theorem>,
    /// This paper's upper bound (Algorithm 1).
    pub new_ub: Time,
    /// Worst-case latency measured on the simulator (filled by
    /// [`measure_into`]).
    pub measured: Option<Time>,
}

/// A rendered table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (matches the paper's caption).
    pub title: String,
    /// Model parameters the bounds were instantiated with.
    pub params: ModelParams,
    /// The tradeoff parameter `X` used for the upper bounds.
    pub x: Time,
    /// The rows.
    pub rows: Vec<TableRow>,
}

impl Table {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let p = self.params;
        writeln!(out, "{}", self.title).unwrap();
        writeln!(
            out,
            "  (n = {}, d = {}, u = {}, ε = {}, X = {}; times in µs-ticks)",
            p.n, p.d, p.u, p.epsilon, self.x
        )
        .unwrap();
        let headers = ["Operation", "Prev LB", "New LB", "New UB", "Measured"];
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let cells: Vec<[String; 5]> = self
            .rows
            .iter()
            .map(|r| {
                [
                    r.operation.clone(),
                    r.previous_lb.as_ref().map_or("—".into(), |(t, c)| format!("{t} {c}")),
                    r.new_lb.map_or("—".into(), |t| format!("{} ({t})", t.bound(p))),
                    r.new_ub.to_string(),
                    r.measured.map_or("—".into(), |t| t.to_string()),
                ]
            })
            .collect();
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cols: [&str; 5], widths: &[usize]| {
            let mut s = String::from("  ");
            for (i, (c, w)) in cols.iter().zip(widths).enumerate() {
                if i > 0 {
                    s.push_str(" | ");
                }
                s.push_str(&format!("{c:<w$}"));
            }
            s
        };
        writeln!(out, "{}", line(headers, &widths)).unwrap();
        writeln!(out, "  {}", "-".repeat(widths.iter().sum::<usize>() + 3 * 4)).unwrap();
        for row in &cells {
            writeln!(out, "{}", line(row.each_ref().map(String::as_str), &widths)).unwrap();
        }
        out
    }
}

/// Derive a table for `t` from its row data: each row's label, operations
/// and prior bound. The new-LB cell comes from [`op_theorem`] on the
/// operation's classification, or from [`classify::check_thm5_hypotheses`]
/// for a sum; the new-UB cell is [`formulas::alg1_ub`] of the declared
/// class, the class Algorithm 1 waits by.
///
/// # Panics
///
/// If a row names an operation `t` does not have.
pub fn derive<T: DataType, L: AsRef<str>>(
    t: &T,
    p: ModelParams,
    x: Time,
    title: &str,
    rows: &[(L, RowOps, Option<Prior>)],
) -> Table {
    let universe = Universe::for_type(t);
    let report = classify::report(t, &universe, LIMITS, p.n);
    let entry = |op: &str| {
        report.iter().find(|r| r.op == op).unwrap_or_else(|| panic!("{} has no {op}", t.name()))
    };
    let ub = |op: &str| formulas::alg1_ub(p, x, entry(op).declared);
    let rows = rows
        .iter()
        .map(|(label, ops, prior)| {
            let (new_lb, new_ub) = match *ops {
                RowOps::Op(op) => (op_theorem(entry(op)), ub(op)),
                RowOps::Sum(m, a) => (
                    classify::check_thm5_hypotheses(t, m, a, &universe, LIMITS)
                        .map(|_| Theorem::Sum),
                    ub(m) + ub(a),
                ),
            };
            TableRow {
                operation: label.as_ref().into(),
                ops: *ops,
                previous_lb: prior.map(|(bound, cite)| (bound(p), cite)),
                new_lb,
                new_ub,
                measured: None,
            }
        })
        .collect();
    Table { title: title.into(), params: p, x, rows }
}

/// The table of every operation of `t`, then every (pure mutator, pure
/// accessor) sum, each labelled by its capitalized operation names.
pub fn full_table<T: DataType>(t: &T, p: ModelParams, x: Time, title: &str) -> Table {
    let label = |op: &str| op[..1].to_uppercase() + &op[1..];
    let ops = t.ops();
    let of = |class: OpClass| ops.iter().filter(move |m| m.class == class);
    let rows: Vec<(String, RowOps, Option<Prior>)> = ops
        .iter()
        .map(|m| (label(m.name), RowOps::Op(m.name), None))
        .chain(of(OpClass::PureMutator).flat_map(|m| {
            of(OpClass::PureAccessor).map(move |a| {
                (
                    format!("{} + {}", label(m.name), label(a.name)),
                    RowOps::Sum(m.name, a.name),
                    None,
                )
            })
        }))
        .collect();
    derive(t, p, x, title, &rows)
}

/// Table 1: Read/Write/Read-Modify-Write registers.
pub fn table1(p: ModelParams, x: Time) -> Table {
    derive(
        &RmwRegister::new(0),
        p,
        x,
        "Table 1: Operation Bounds for Read/Write/Read-Modify-Write Registers",
        &[
            ("Read-Modify-Write", RowOps::Op("rmw"), Some((previous::d, "[13]"))),
            ("Write", RowOps::Op("write"), Some((previous::half_u, "[8]"))),
            ("Read", RowOps::Op("read"), Some((previous::quarter_u, "[8]"))),
            ("Write + Read", RowOps::Sum("write", "read"), Some((previous::d, "[13]"))),
        ],
    )
}

/// Table 2: FIFO queues.
pub fn table2(p: ModelParams, x: Time) -> Table {
    derive(
        &FifoQueue::new(),
        p,
        x,
        "Table 2: Operation Bounds for Queues",
        &[
            ("Enqueue", RowOps::Op("enqueue"), Some((previous::half_u, "[3]"))),
            ("Dequeue", RowOps::Op("dequeue"), Some((previous::d, "[3]"))),
            ("Peek", RowOps::Op("peek"), None),
            ("Enqueue + Peek", RowOps::Sum("enqueue", "peek"), Some((previous::d, "[13]"))),
        ],
    )
}

/// Table 3: stacks. Theorem 5 does not reach `Push + Peek` (Section 4.3: a
/// peek among pushes sees only the last push), and the derivation agrees.
pub fn table3(p: ModelParams, x: Time) -> Table {
    derive(
        &Stack::new(),
        p,
        x,
        "Table 3: Operation Bounds for Stacks",
        &[
            ("Push", RowOps::Op("push"), Some((previous::half_u, "[3]"))),
            ("Pop", RowOps::Op("pop"), Some((previous::d, "[3]"))),
            ("Peek", RowOps::Op("peek"), None),
            ("Push + Peek", RowOps::Sum("push", "peek"), Some((previous::d, "[13]"))),
        ],
    )
}

/// Table 4: simple rooted trees. The Theorem 3 rows carry the `k` the
/// classifier certifies for this tree semantics; the paper asserts `k = n`
/// without fixing one (see `rooted_tree`'s module docs).
pub fn table4(p: ModelParams, x: Time) -> Table {
    derive(
        &RootedTree::new(),
        p,
        x,
        "Table 4: Operation Bounds for Simple Rooted Trees",
        &[
            ("Insert", RowOps::Op("insert"), Some((previous::half_u, "[13]"))),
            ("Delete", RowOps::Op("delete"), Some((previous::half_u, "[13]"))),
            ("Depth", RowOps::Op("depth"), None),
            ("Insert + Depth", RowOps::Sum("insert", "depth"), Some((previous::d, "[13]"))),
            ("Delete + Depth", RowOps::Sum("delete", "depth"), Some((previous::d, "[13]"))),
        ],
    )
}

/// Table 5: the summary by operation class (Section 6.1). Each row is the
/// queue's first row of [`full_table`] that the class's theorem bounds.
pub fn table5(p: ModelParams, x: Time) -> Table {
    let queue =
        full_table(&FifoQueue::new(), p, x, "Table 5: Summary of Bounds by Operation Class");
    let pick = |theorem: u8, label: &str, prior: Option<Prior>| TableRow {
        operation: label.into(),
        previous_lb: prior.map(|(bound, cite)| (bound(p), cite)),
        ..queue
            .rows
            .iter()
            .find(|r| r.new_lb.is_some_and(|t| t.number() == theorem))
            .unwrap_or_else(|| panic!("no queue row meets Theorem {theorem}"))
            .clone()
    };
    let rows = vec![
        pick(2, "Pure accessor", None),
        pick(3, "Last-sensitive mutator (k = n)", Some((previous::half_u, "[3,8,13]"))),
        pick(4, "Pair-free (mixed)", Some((previous::d, "[13]"))),
        pick(5, "Transposable mutator + discr. accessor (sum)", Some((previous::d, "[15]"))),
    ];
    Table { rows, ..queue }
}

/// A standard measurement workload for one data type: every operation
/// invoked from several processes, with contention, under each delay
/// extreme; returns the worst-case observed latency per operation name.
pub fn measure_worst_case(
    spec: &Arc<dyn ObjectSpec>,
    p: ModelParams,
    algo: Algorithm,
) -> BTreeMap<&'static str, Time> {
    let mut worst: BTreeMap<&'static str, Time> = BTreeMap::new();
    let delays =
        [DelaySpec::AllMax, DelaySpec::AllMin, DelaySpec::UniformRandom { seed: 0xC0FFEE }];
    for delay in delays {
        let mut schedule = Schedule::new();
        let mut t = Time(0);
        // Seed some state so accessors/mixed ops have something to observe.
        for (i, meta) in spec.ops().iter().enumerate() {
            if meta.class == OpClass::PureMutator {
                let arg = spec.suggested_args(meta.name).into_iter().next().unwrap();
                schedule = schedule.at(Pid(i % p.n), t, Invocation::new(meta.name, arg));
                t += p.d * 3;
            }
        }
        // Then run every operation from every process, spread out.
        for round in 0..2 {
            for meta in spec.ops() {
                let args = spec.suggested_args(meta.name);
                for (i, arg) in args.iter().take(2).enumerate() {
                    let pid = Pid((i + round) % p.n);
                    schedule = schedule.at(pid, t, Invocation::new(meta.name, arg.clone()));
                    t += p.d * 3;
                }
            }
        }
        let cfg = SimConfig::new(p, delay).with_schedule(schedule);
        let run = run_algorithm(algo, spec, &cfg);
        assert!(run.complete(), "measurement workload did not complete");
        for op in run.completed() {
            if let Some(lat) = op.latency() {
                let w = worst.entry(op.invocation.op).or_insert(Time::ZERO);
                *w = (*w).max(lat);
            }
        }
    }
    worst
}

/// Fill a table's `measured` column from worst-case measurements, looked
/// up by operation name; a sum row gets the sum of its two worst cases.
pub fn measure_into(table: &mut Table, measured: &BTreeMap<&'static str, Time>) {
    let get = |op: &str| measured.get(op).copied();
    for row in &mut table.rows {
        row.measured = match row.ops {
            RowOps::Op(op) => get(op),
            RowOps::Sum(m, a) => get(m).zip(get(a)).map(|(m, a)| m + a),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::erase;
    use lintime_adt::types::*;

    fn p() -> ModelParams {
        ModelParams::default_experiment()
    }

    #[test]
    fn table_shapes_match_paper() {
        assert_eq!(table1(p(), Time::ZERO).rows.len(), 4);
        assert_eq!(table2(p(), Time::ZERO).rows.len(), 4);
        assert_eq!(table3(p(), Time::ZERO).rows.len(), 4);
        assert_eq!(table4(p(), Time::ZERO).rows.len(), 5);
        assert_eq!(table5(p(), Time::ZERO).rows.len(), 4);
    }

    #[test]
    fn stack_push_peek_has_no_new_lb() {
        let t = table3(p(), Time::ZERO);
        let row = t.rows.iter().find(|r| r.operation == "Push + Peek").unwrap();
        assert!(row.new_lb.is_none(), "Theorem 5 must not apply to stacks");
        let tq = table2(p(), Time::ZERO);
        let rowq = tq.rows.iter().find(|r| r.operation == "Enqueue + Peek").unwrap();
        assert!(rowq.new_lb.is_some(), "Theorem 5 applies to queues");
    }

    #[test]
    fn measured_queue_latencies_equal_formulas() {
        let params = p();
        let x = Time(1200);
        let spec = erase(FifoQueue::new());
        let measured = measure_worst_case(&spec, params, Algorithm::Wtlw { x });
        assert_eq!(measured["enqueue"], formulas::alg1_ub(params, x, OpClass::PureMutator));
        assert_eq!(measured["peek"], formulas::alg1_ub(params, x, OpClass::PureAccessor));
        assert_eq!(measured["dequeue"], formulas::alg1_ub(params, x, OpClass::Mixed));
    }

    #[test]
    fn measure_into_fills_sums() {
        let params = p();
        let x = Time::ZERO;
        let spec = erase(RmwRegister::new(0));
        let measured = measure_worst_case(&spec, params, Algorithm::Wtlw { x });
        let mut t = table1(params, x);
        measure_into(&mut t, &measured);
        for row in &t.rows {
            assert!(row.measured.is_some(), "row {} unmeasured", row.operation);
            // Measured worst case never exceeds the upper bound.
            assert!(row.measured.unwrap() <= row.new_ub, "row {}", row.operation);
        }
        let sum_row = t.rows.iter().find(|r| r.operation == "Write + Read").unwrap();
        assert_eq!(sum_row.measured.unwrap(), measured["write"] + measured["read"]);
    }

    /// Every row of every built-in type's full table: the derived lower
    /// bound never exceeds Algorithm 1's, and Algorithm 1 measures exactly
    /// its bound.
    #[test]
    fn every_derived_row_is_met_exactly_by_algorithm_1() {
        fn check<T: DataType>(t: T) {
            let (params, x) = (p(), Time::ZERO);
            let mut table = full_table(&t, params, x, t.name());
            let measured = measure_worst_case(&erase(t), params, Algorithm::Wtlw { x });
            measure_into(&mut table, &measured);
            for row in &table.rows {
                let lb = row.new_lb.map_or(Time::ZERO, |t| t.bound(params));
                assert!(
                    lb <= row.new_ub,
                    "{}: {} {lb} > {}",
                    table.title,
                    row.operation,
                    row.new_ub
                );
                assert_eq!(row.measured, Some(row.new_ub), "{}: {}", table.title, row.operation);
            }
        }
        check(Register::new(0));
        check(RmwRegister::new(0));
        check(FifoQueue::new());
        check(Stack::new());
        check(RootedTree::new());
        check(GrowSet::new());
        check(Counter::new());
        check(PriorityQueue::new());
        check(KvStore::new());
    }

    #[test]
    fn table5_rows_are_the_queues_classes() {
        let t = table5(p(), Time::ZERO);
        let ops: Vec<RowOps> = t.rows.iter().map(|r| r.ops).collect();
        assert_eq!(
            ops,
            [
                RowOps::Op("peek"),
                RowOps::Op("enqueue"),
                RowOps::Op("dequeue"),
                RowOps::Sum("enqueue", "peek")
            ]
        );
        assert_eq!(t.rows[1].new_lb, Some(Theorem::LastSensitive(p().n)), "k = n");
    }

    #[test]
    fn render_produces_aligned_text() {
        let t = table2(p(), Time(600));
        let s = t.render();
        assert!(s.contains("Enqueue + Peek"));
        assert!(s.contains("Thm 5"));
        assert!(s.lines().count() >= 7);
    }
}
