//! `lintime-perf run` and `lintime-perf compare`.
//!
//! `run --workload <name> --trace <0|1>` is what the benchmark driver calls:
//! one workload, in this process, one JSON result object as the last line of
//! standard output. Without `--trace`, `run` is the human entry point: it
//! runs each selected workload twice **in child processes** — untraced for
//! the end-to-end numbers, traced for the layers — so that `peak_rss_mb` is
//! per workload, prints every metric by name, and exits non-zero if any
//! operation failed its oracle.

use lintime_perf::catalog::WORKLOADS;
use lintime_perf::compare::{compare, parse_set, render_set, ResultSet};
use lintime_perf::json::{self, Json};
use lintime_perf::report::{all_line, driver_line, table, ALL_PREFIX};
use lintime_perf::trace::Tracer;
use lintime_perf::workloads::{self, RunOpts};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  lintime-perf run [--workload <name>|all] [--seed <u64>] [--seconds <s>] [--repeat <n>]
                   [--out <file>]                    every workload, traced and untraced
  lintime-perf run --workload <name> --trace <0|1> [--seed <u64>] [--seconds <s>]
                                                     one run, driver result on the last line
  lintime-perf compare <a.json> <b.json>             check b against baseline a";

/// Seconds one run measures for unless told otherwise (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 10.0;

struct RunArgs {
    workload: String,
    opts: RunOpts,
    trace: Option<bool>,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: "all".to_string(),
        opts: RunOpts { seed: 42, seconds: DEFAULT_SECONDS, trace: false, scale: 1.0 },
        trace: None,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                parsed.opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(0.0..=600.0).contains(&parsed.opts.seconds) {
                    return Err(bad("between 0 and 600 seconds"));
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--repeat" => {
                parsed.repeat = value.parse().map_err(|_| bad("a count"))?;
                if !(1..=100).contains(&parsed.repeat) {
                    return Err(bad("between 1 and 100"));
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.iter().any(|w| w.name == parsed.workload) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {:?}; known: {}", parsed.workload, known.join(", ")));
    }
    Ok(parsed)
}

/// One workload in this process; the driver's contract.
fn run_single(args: &RunArgs, traced: bool) -> Result<bool, String> {
    if args.workload == "all" {
        return Err("--trace needs --workload <name>".to_string());
    }
    let opts = RunOpts { trace: traced, ..args.opts };
    let mut tracer = Tracer::new(false);
    let outcome = workloads::run(&args.workload, &opts, &mut tracer)?;
    if traced {
        // Relative to the working directory: the root of the checkout.
        let path = PathBuf::from(format!("crates/perf/out/trace-{}.jsonl", args.workload));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (span, ns) in tracer.self_times() {
        println!("# self time {span:<28} {:>10.3} ms", ns as f64 / 1e6);
    }
    println!("{}", all_line(&outcome));
    println!("{}", driver_line(&outcome, traced));
    Ok(outcome.failed == 0)
}

/// Run one workload in a child process; relay its remarks; return the
/// object of its `#all` line.
fn run_child(args: &RunArgs, workload: &str, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &seed.to_string(), "--seconds", &args.opts.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut all = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix(ALL_PREFIX) {
            all = Some(json::parse(rest)?);
        } else if let Some(note) = line.strip_prefix("# ") {
            println!("   {note}");
        }
    }
    // A failed oracle exits 1 but still reports; anything else is a crash.
    all.ok_or_else(|| format!("the {workload} run died without a result ({})", output.status))
}

fn run_all(args: &RunArgs) -> Result<bool, String> {
    let mut set = ResultSet::new();
    let selected = WORKLOADS.iter().filter(|w| args.workload == "all" || w.name == args.workload);
    for w in selected {
        println!("-- {}: {}", w.name, w.why);
        let result = set.entry(w.name.to_string()).or_default();
        for rep in 0..args.repeat as u64 {
            let seed = args.opts.seed + rep;
            let untraced = run_child(args, w.name, seed, false)?;
            let traced = run_child(args, w.name, seed, true)?;
            result.push(&untraced, &traced)?;
        }
        print!("{}", table(w.name, result));
    }
    if let Some(path) = &args.out {
        std::fs::write(path, render_set(&set, args.opts.seed, args.opts.seconds) + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let failed: u64 = set.values().map(|r| r.failed).sum();
    println!("{}", if failed == 0 { "fail_share = 0 everywhere" } else { "ORACLE FAILURES" });
    Ok(failed == 0)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err(USAGE.to_string()) };
    let load = |path: &String| -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, regressed, unresolved) = compare(&load(a)?, &load(b)?);
    print!("{report}");
    if unresolved > 0 {
        println!("{unresolved} rows unresolved: spread wider than the bound, rerun with --repeat");
    }
    println!("{}", if regressed == 0 { "no row outside its bound" } else { "NOT within bounds" });
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|parsed| match parsed.trace {
                Some(traced) => run_single(&parsed, traced),
                None => run_all(&parsed),
            })
        }
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
