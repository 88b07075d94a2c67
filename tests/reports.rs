//! Integration tests over the experiment reports themselves: every table and
//! figure generator must produce its expected rows, and the internal shape
//! assertions (crossovers, formula matches) must hold. Each report is
//! produced through `experiments::REPORTS`, the list `lintime` dispatches
//! on, so a golden text is what its subcommand prints.

use lintime_bench::{experiments, matrix};
use lintime_obs::Obs;

/// The report `lintime <command>` prints.
fn report(command: &str) -> String {
    let r = experiments::REPORTS.iter().find(|r| r.command == Some(command));
    let r = r.expect("a report command");
    (r.render)(&Obs::off())
}

/// Compare `got` with the golden text `tests/golden/<name>`, byte for byte.
/// After an intended change, re-bless every golden with
///
/// ```sh
/// LINTIME_BLESS=1 cargo test -p lintime-bench --test reports
/// ```
///
/// and read which lines moved in the diff.
fn golden(name: &str, got: &str) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("LINTIME_BLESS").is_some() {
        std::fs::write(&path, got).expect("write the golden text");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read the golden text");
    let only = |a: &str, b: &str| -> String {
        a.lines().filter(|l| !b.lines().any(|m| m == *l)).collect::<Vec<_>>().join("\n")
    };
    assert!(
        got == want,
        "{name} changed\npinned only:\n{}\nnow only:\n{}",
        only(&want, got),
        only(got, &want)
    );
}

/// The six bound tables, byte for byte, as `lintime tables <k>` prints
/// them, joined by blank lines.
#[test]
fn bound_tables_match_the_golden_text() {
    let got: Vec<String> =
        ["1", "2", "3", "4", "5", "kv"].iter().map(|k| report(&format!("tables {k}"))).collect();
    golden("tables.txt", &got.join("\n"));
}

#[test]
fn crossover_matches_the_golden_text() {
    golden("crossover.txt", &report("crossover"));
}

#[test]
fn timelines_match_the_golden_text() {
    golden("timelines.txt", &report("timelines"));
}

/// `lintime fault-sweep --seeds 2`: the drop-rate report, then the
/// availability matrix.
#[test]
fn fault_sweep_matches_the_golden_text() {
    let obs = Obs::off();
    let got =
        experiments::fault_sweep_report(2, &obs) + &matrix::availability_matrix(2, &obs).render();
    golden("fault-sweep-seeds2.txt", &got);
}

#[test]
fn all_matches_the_golden_text() {
    golden("all.txt", &experiments::all_reports(&Obs::off()));
}

#[test]
fn table1_reproduces() {
    let r = report("tables 1");
    assert!(r.contains("Read-Modify-Write"));
    assert!(r.contains("7800 (Thm 4)")); // d + m at default params
    assert!(r.contains("(1 - 1/n)u") || r.contains("Thm 3"));
    // Measured column is exact: RMW = d + ε = 7800.
    let rmw_line = r.lines().find(|l| l.trim_start().starts_with("Read-Modify-Write")).unwrap();
    assert!(rmw_line.trim_end().ends_with("7800"), "{rmw_line}");
}

#[test]
fn table2_and_3_reproduce() {
    let r2 = report("tables 2");
    assert!(r2.contains("Enqueue + Peek"));
    assert!(r2.contains("Thm 5"));
    let r3 = report("tables 3");
    assert!(r3.contains("Push + Peek"));
    // The stack sum row must NOT carry a Theorem 5 bound.
    let row = r3.lines().find(|l| l.contains("Push + Peek")).unwrap();
    assert!(!row.contains("Thm 5"), "{row}");
}

#[test]
fn table4_reports_certified_k() {
    let r = report("tables 4");
    assert!(r.contains("Insert + Depth"));
    assert!(r.contains("insert k = 4"));
    assert!(r.contains("delete k = 2"));
}

#[test]
fn table5_summarizes_classes() {
    let r = report("tables 5");
    assert!(r.contains("Pure accessor"));
    assert!(r.contains("Pair-free"));
    assert!(r.contains("Transposable"));
}

#[test]
fn fig11_is_consistent() {
    let r = report("fig11");
    assert!(r.contains("all declared classes match the computed classes ✓"));
    golden("fig11.txt", &r);
}

#[test]
fn folklore_comparison_shape() {
    // Contains its own assertions (Algorithm 1 beats both baselines).
    let r = report("folklore");
    assert!(r.contains("beats both folklore baselines"));
    golden("folklore.txt", &r);
}

#[test]
fn x_tradeoff_formulas_hold() {
    let r = report("x-tradeoff");
    assert!(r.contains("equal the Lemma 4 formulas"));
    golden("x-tradeoff.txt", &r);
}

#[test]
fn clocksync_within_bound() {
    let r = report("clocksync");
    assert!(r.contains("within the optimal bound"));
    golden("clocksync.txt", &r);
}

#[test]
fn linearizability_sweep_clean() {
    let r = experiments::linearizability_sweep_report(3);
    assert!(r.contains("all linearizable ✓"));
}

#[test]
fn kv_extension_table() {
    let r = report("tables kv");
    assert!(r.contains("Put + Get"));
    assert!(r.contains("Thm 5"));
    // del has no lower bound.
    let del = r.lines().find(|l| l.trim_start().starts_with("Del")).unwrap();
    assert!(!del.contains("Thm"), "{del}");
    // ... but get discriminates two dels, so Theorem 5 bounds their sum.
    let del_get = r.lines().find(|l| l.contains("Del + Get")).unwrap();
    assert!(del_get.contains("7800 (Thm 5)"), "{del_get}");
}

#[test]
fn throughput_extension() {
    let r = report("throughput");
    assert!(r.contains("folklore rate"));
    golden("throughput.txt", &r);
}

#[test]
fn n_scaling_extension() {
    let r = report("n-scaling");
    assert!(r.contains("tight"));
    golden("n-scaling.txt", &r);
}

#[test]
fn workload_mix_extension() {
    let r = report("workload-mix");
    assert!(r.contains("X tuning follows the mix"));
    golden("workload-mix.txt", &r);
}

#[test]
fn lower_bound_crossovers() {
    // The report asserts internally that violations occur exactly below each
    // bound.
    let r = report("attack");
    assert!(r.matches("crossover matches the formula").count() == 4);
    golden("attack.txt", &r);
}
