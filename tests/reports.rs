//! Integration tests over the experiment reports themselves: every table and
//! figure generator must produce its expected rows, and the internal shape
//! assertions (crossovers, formula matches) must hold. These are the same
//! code paths the `lintime-bench` binaries print.

use lintime_bench::experiments;

const TABLES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/tables.txt");

/// The six bound tables, byte for byte, as their binaries print them. The
/// text lives in `golden/tables.txt`; after an intended change, re-bless it
/// with
///
/// ```sh
/// LINTIME_BLESS=1 cargo test -p lintime-bench --test reports
/// ```
///
/// and read which rows moved in the diff.
#[test]
fn bound_tables_match_the_golden_text() {
    let got: String = [
        experiments::table1_report(),
        experiments::table2_report(),
        experiments::table3_report(),
        experiments::table4_report(),
        experiments::table5_report(),
        experiments::table_kv_report(),
    ]
    .join("\n");
    if std::env::var_os("LINTIME_BLESS").is_some() {
        std::fs::write(TABLES, &got).expect("write the golden tables");
        return;
    }
    let want = std::fs::read_to_string(TABLES).expect("read the golden tables");
    let only = |a: &str, b: &str| -> String {
        a.lines().filter(|l| !b.lines().any(|m| m == *l)).collect::<Vec<_>>().join("\n")
    };
    assert!(
        got == want,
        "the bound tables changed\npinned only:\n{}\nnow only:\n{}",
        only(&want, &got),
        only(&got, &want)
    );
}

#[test]
fn table1_reproduces() {
    let r = experiments::table1_report();
    assert!(r.contains("Read-Modify-Write"));
    assert!(r.contains("7800 (Thm 4)")); // d + m at default params
    assert!(r.contains("(1 - 1/n)u") || r.contains("Thm 3"));
    // Measured column is exact: RMW = d + ε = 7800.
    let rmw_line = r.lines().find(|l| l.trim_start().starts_with("Read-Modify-Write")).unwrap();
    assert!(rmw_line.trim_end().ends_with("7800"), "{rmw_line}");
}

#[test]
fn table2_and_3_reproduce() {
    let r2 = experiments::table2_report();
    assert!(r2.contains("Enqueue + Peek"));
    assert!(r2.contains("Thm 5"));
    let r3 = experiments::table3_report();
    assert!(r3.contains("Push + Peek"));
    // The stack sum row must NOT carry a Theorem 5 bound.
    let row = r3.lines().find(|l| l.contains("Push + Peek")).unwrap();
    assert!(!row.contains("Thm 5"), "{row}");
}

#[test]
fn table4_reports_certified_k() {
    let r = experiments::table4_report();
    assert!(r.contains("Insert + Depth"));
    assert!(r.contains("insert k = 4"));
    assert!(r.contains("delete k = 2"));
}

#[test]
fn table5_summarizes_classes() {
    let r = experiments::table5_report();
    assert!(r.contains("Pure accessor"));
    assert!(r.contains("Pair-free"));
    assert!(r.contains("Transposable"));
}

#[test]
fn fig11_is_consistent() {
    let r = experiments::fig11_report();
    assert!(r.contains("all declared classes match the computed classes ✓"));
}

#[test]
fn folklore_comparison_shape() {
    // Contains its own assertions (Algorithm 1 beats both baselines).
    let r = experiments::folklore_report();
    assert!(r.contains("beats both folklore baselines"));
}

#[test]
fn x_tradeoff_formulas_hold() {
    let r = experiments::x_tradeoff_report();
    assert!(r.contains("equal the Lemma 4 formulas"));
}

#[test]
fn clocksync_within_bound() {
    let r = experiments::clocksync_report();
    assert!(r.contains("within the optimal bound"));
}

#[test]
fn linearizability_sweep_clean() {
    let r = experiments::linearizability_sweep_report(3);
    assert!(r.contains("all linearizable ✓"));
}

#[test]
fn kv_extension_table() {
    let r = experiments::table_kv_report();
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
    let r = experiments::throughput_report();
    assert!(r.contains("folklore rate"));
}

#[test]
fn n_scaling_extension() {
    let r = experiments::n_scaling_report();
    assert!(r.contains("tight"));
}

#[test]
fn workload_mix_extension() {
    let r = experiments::workload_mix_report();
    assert!(r.contains("X tuning follows the mix"));
}

#[test]
#[ignore = "slow: full lower-bound sweeps; run with --ignored or --include-ignored"]
fn lower_bound_crossovers() {
    // The report asserts internally that violations occur exactly below each
    // bound.
    let r = experiments::lower_bounds_report();
    assert!(r.matches("crossover matches the formula").count() == 4);
}
