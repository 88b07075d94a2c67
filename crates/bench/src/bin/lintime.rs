//! `lintime` — the command-line front door to the reproduction.
//!
//! ```text
//! lintime types                          list data types and operation classes
//! lintime tables [1|2|3|4|5|kv]          print Tables 1–5 and the kv-store
//!                                        table (all six by default)
//! lintime fig11                          print Figure 11
//! lintime attack [thm2|thm3|thm4|thm5]   run the lower-bound adversary sweeps
//!                                        (all four by default)
//! lintime crossover                      binary-search each construction's
//!                                        tick-exact violation threshold
//! lintime timelines                      draw the proof runs of Figures 1–10
//! lintime folklore                       Algorithm 1 vs the folklore baselines
//! lintime x-tradeoff                     sweep the tradeoff parameter X
//! lintime clocksync                      achieved clock skew vs (1 − 1/n)u
//! lintime throughput                     sustained closed-loop rates
//! lintime n-scaling                      the bounds as functions of n
//! lintime workload-mix                   mean latency per mix, tuning X
//! lintime fault-sweep [flags]            survival under message drops, ±
//!                                        recovery, then the availability matrix
//!     --seeds <k>          seeds per cell (default 8)
//!     --metrics-out <p>    save a metrics JSON snapshot to <p>
//!     --matrix-out <p>     save the availability matrix as JSON to <p>
//!     --matrix-only        skip the drop-rate sweep
//!     exits non-zero on any confirmed violation: a non-suspect run refuted
//!     in a cell whose backend claims to tolerate the fault scenario
//! lintime all [--metrics-out <p>]        every report in one digest
//! lintime simulate [flags]               run a workload and check it
//!     --type <name>        data type (default fifo-queue)
//!     --algo <a>           wtlw | centralized | broadcast | naive (default wtlw)
//!     --x <ticks>          Algorithm 1 tradeoff parameter (default 0)
//!     --mix <m>            balanced | read | write (default balanced)
//!     --ops <k>            operations per process (default 6)
//!     --seed <s>           workload + delay seed (default 42)
//!     --delay <d>          random | max | min (default random)
//!     --n/--d/--u <v>      model parameters (default 4 / 6000 / 2400)
//!     --stream-check       also check online: a live checker thread consumes
//!                          the engine's operation-event stream as it runs
//!     --timeline           draw the run as ASCII timelines
//! lintime stream [flags]                 generated-stream online checking
//!     --adt <name>         fifo-queue | register | priority-queue (default fifo-queue)
//!     --ops <k>            total operations to stream (default 1000000)
//!     --procs <p>          concurrent processes (default 4)
//!     --flush <w>          flush window in ops (default 1024)
//! lintime serve [flags]                  sharded deployment under open-loop load
//!     --shards <s>         independent objects (default 8)
//!     --workers <w>        worker threads (default 4)
//!     --adt <name>         fifo-queue | register | priority-queue (default fifo-queue)
//!     --ops <k>            total generated arrivals (default 150000)
//!     --gap <t>            mean inter-arrival gap in ticks (default 1)
//!     --mix <m>            balanced | read | write (default balanced)
//!     --zipf <s>           shard-popularity Zipf exponent (default 1.0)
//!     --x/--tick <t>       Algorithm 1 tradeoff X and batch tick B
//!     --n/--d/--u <v>      model parameters (default 4 / 6000 / 2400)
//!     --flush <w>          checker flush window = admission epoch (default 1024)
//!     --seed <s>           generator + delay seed (default 42)
//!     --json-out <p>       also write the report as JSON rows to <p>
//! lintime trace <scenario> [flags]       replay a scenario with tracing on
//!     scenarios: table5 (fault-free queue), faults (recovery under drops)
//!     --seed <s>           scenario seed (default 7)
//!     --drop <r>           drop rate for `faults`, 0..1 (default 0.10)
//!     --events <k>         trace lines to print before eliding (default 80)
//!     --width <w>          timeline width (default 100)
//!     --metrics-out <p>    save a metrics JSON snapshot to <p>
//! ```

use lintime_adt::prelude::*;
use lintime_bench::experiments::{self, REPORTS};
use lintime_bench::genflags::FlagSet;
use lintime_bench::tracecmd::{self, TraceOptions};
use lintime_bench::{matrix, timeline};
use lintime_core::prelude::*;
use lintime_obs::{Obs, Registry, TraceHandle};
use lintime_sim::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A fixed report named by its whole argument list (`fig11`, `tables 1`).
    let report = REPORTS
        .iter()
        .find(|r| r.command.is_some_and(|c| c.split(' ').eq(args.iter().map(String::as_str))));
    if let Some(r) = report {
        print!("{}", (r.render)(&Obs::off()));
        return ExitCode::SUCCESS;
    }
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("types") => {
            cmd_types();
            Ok(())
        }
        Some("tables") => cmd_tables(rest),
        Some("attack") => cmd_attack(rest),
        Some("fault-sweep") => cmd_fault_sweep(rest),
        Some("all") => cmd_all(rest),
        Some("simulate") => cmd_simulate(rest),
        Some("stream") => cmd_stream(rest),
        Some("serve") => cmd_serve(rest),
        Some("trace") => cmd_trace(rest),
        _ => {
            eprintln!(
                "usage: lintime <types|tables|fig11|attack|crossover|timelines|folklore|\
                 x-tradeoff|clocksync|throughput|n-scaling|workload-mix|fault-sweep|all|\
                 simulate|stream|serve|trace> [flags]"
            );
            eprintln!("       (see crate docs or README.md for flag details)");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_types() {
    println!("built-in data types:");
    for t in all_types() {
        println!("  {}", t.name());
        for m in t.ops() {
            println!(
                "    {:<14} {:<15} arg:{} ret:{}",
                m.name,
                m.class.to_string(),
                if m.has_arg { "yes" } else { "no " },
                if m.has_ret { "yes" } else { "no " }
            );
        }
    }
}

/// `lintime tables` with no argument: all six tables, a blank line after
/// each. (`tables <k>` is a fixed report of its own.)
fn cmd_tables(args: &[String]) -> Result<(), String> {
    if !args.is_empty() {
        return Err(format!("unknown table {:?}; use 1|2|3|4|5|kv", args.join(" ")));
    }
    for r in REPORTS.iter().filter(|r| r.command.is_some_and(|c| c.starts_with("tables "))) {
        println!("{}", (r.render)(&Obs::off()));
    }
    Ok(())
}

/// `lintime attack <theorem>`: one theorem's section of the sweeps. (Bare
/// `attack` is the fixed report.)
fn cmd_attack(args: &[String]) -> Result<(), String> {
    if let [_, extra, ..] = args {
        return Err(format!("unexpected argument {extra:?}; attack takes one theorem"));
    }
    let section = match args.first().map(String::as_str) {
        Some("thm2") => Some("Theorem 2"),
        Some("thm3") => Some("Theorem 3"),
        Some("thm4") => Some("Theorem 4"),
        Some("thm5") => Some("Theorem 5"),
        Some("all") | None => None,
        Some(other) => {
            return Err(format!("unknown theorem {other:?}; use thm2|thm3|thm4|thm5|all"));
        }
    };
    // The sweeps bundle all four theorems with their controls; print the
    // relevant section by running the full report (cheap) and filtering.
    let full = experiments::lower_bounds_report();
    let Some(needle) = section else {
        print!("{full}");
        return Ok(());
    };
    let mut printing = false;
    for line in full.lines() {
        if line.starts_with(needle) {
            printing = true;
        } else if printing && line.starts_with("Theorem") {
            break;
        }
        if printing {
            println!("{line}");
        }
    }
    Ok(())
}

/// Metrics-only observability for `--metrics-out`: a null trace sink keeps
/// event formatting off while the registry aggregates counters across every
/// run and checker call; no path, no observability.
fn metrics_obs(metrics_out: &str) -> Obs {
    if metrics_out.is_empty() {
        Obs::off()
    } else {
        Obs::new(TraceHandle::null(), Registry::new())
    }
}

/// Save `obs`'s metrics snapshot at `path`, unless `path` is empty.
fn save_metrics(obs: &Obs, path: &str) -> Result<(), String> {
    if !path.is_empty() {
        obs.metrics
            .save_snapshot(std::path::Path::new(path))
            .map_err(|e| format!("cannot write metrics: {e}"))?;
        println!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

fn cmd_fault_sweep(args: &[String]) -> Result<(), String> {
    let mut flags = FlagSet::parse(args)?;
    let seeds = flags.positive_flag("seeds", 8)? as u64;
    let metrics_out = flags.str_flag("metrics-out", "")?;
    let matrix_out = flags.str_flag("matrix-out", "")?;
    let matrix_only = flags.bool_flag("matrix-only")?;
    flags.finish()?;
    let obs = metrics_obs(&metrics_out);
    if !matrix_only {
        print!("{}", experiments::fault_sweep_report(seeds, &obs));
    }
    let matrix = matrix::availability_matrix(seeds, &obs);
    print!("{}", matrix.render());
    if !matrix_out.is_empty() {
        std::fs::write(&matrix_out, matrix.to_json())
            .map_err(|e| format!("cannot write {matrix_out}: {e}"))?;
        println!("wrote availability matrix to {matrix_out}");
    }
    save_metrics(&obs, &metrics_out)?;
    match matrix.confirmed_violations() {
        0 => Ok(()),
        v => Err(format!("{v} confirmed linearizability violations in tolerated cells")),
    }
}

fn cmd_all(args: &[String]) -> Result<(), String> {
    let mut flags = FlagSet::parse(args)?;
    let metrics_out = flags.str_flag("metrics-out", "")?;
    flags.finish()?;
    let obs = metrics_obs(&metrics_out);
    print!("{}", experiments::all_reports(&obs));
    save_metrics(&obs, &metrics_out)
}

/// Shared `--mix` vocabulary of the generator-driven subcommands.
fn parse_mix(name: &str) -> Result<Mix, String> {
    match name {
        "balanced" => Ok(Mix::BALANCED),
        "read" => Ok(Mix::READ_HEAVY),
        "write" => Ok(Mix::WRITE_HEAVY),
        other => Err(format!("unknown mix {other:?}; try balanced|read|write")),
    }
}

/// Render an element rate: `12.3k`, `4.56M`, …
fn fmt_count(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

fn cmd_stream(args: &[String]) -> Result<(), String> {
    use lintime_bench::streamgen::{run_scenario, StreamKind};
    let mut flags = FlagSet::parse(args)?;
    let adt = flags.str_flag("adt", "fifo-queue")?;
    let kind = StreamKind::by_name(&adt)
        .ok_or_else(|| format!("unknown stream scenario {adt:?}; try fifo-queue|register|pq"))?;
    let ops = flags.usize_flag("ops", 1_000_000)?;
    let procs = flags.usize_flag("procs", 4)?;
    let flush = flags.usize_flag("flush", 1024)?;
    flags.finish()?;
    let cfg = lintime_check::stream::StreamConfig::default().with_flush_ops(flush);

    println!(
        "streaming {ops} {adt} ops across {procs} processes (flush window {flush} ops)",
        adt = kind.label()
    );
    let t0 = std::time::Instant::now();
    let report = run_scenario(kind, ops, procs, cfg);
    let elapsed = t0.elapsed();
    let s = &report.stats;
    println!(
        "verdict: {} — {} ops ({} events) in {:.2?}, {}/s",
        report.verdict.class(),
        s.ops,
        s.events,
        elapsed,
        fmt_count(s.ops as f64 / elapsed.as_secs_f64()),
    );
    println!(
        "memory:  peak resident {} ops (pending peak {}), {} flushes retired {} ops, \
         {} fallbacks, {} overflows",
        s.peak_resident, s.peak_pending, s.flushes, s.gc_reclaimed, s.fallbacks, s.window_overflows,
    );
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (scenario, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (a.as_str(), &args[1..]),
        _ => ("faults", args),
    };
    let mut flags = FlagSet::parse(rest)?;
    let mut opts = TraceOptions::default();
    opts.seed = flags.i64_flag("seed", opts.seed as i64)? as u64;
    opts.drop_rate = flags.f64_flag("drop", opts.drop_rate)?;
    opts.max_events = flags.usize_flag("events", opts.max_events)?;
    opts.width = flags.usize_flag("width", opts.width)?;
    let metrics_out = flags.str_flag("metrics-out", "")?;
    flags.finish()?;
    let (report, obs) = tracecmd::trace_report(scenario, &opts)?;
    print!("{report}");
    if !metrics_out.is_empty() {
        println!();
    }
    save_metrics(&obs, &metrics_out)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use lintime_bench::serve::{serve, ServeConfig};
    use lintime_bench::streamgen::StreamKind;
    let mut flags = FlagSet::parse(args)?;
    let mut cfg = ServeConfig::default_experiment();
    cfg.shards = flags.usize_flag("shards", cfg.shards)?;
    cfg.workers = flags.usize_flag("workers", cfg.workers)?;
    let adt = flags.str_flag("adt", "fifo-queue")?;
    cfg.kind = StreamKind::by_name(&adt)
        .ok_or_else(|| format!("unknown ADT {adt:?}; try fifo-queue|register|pq"))?;
    let n = flags.usize_flag("n", cfg.params.n)?;
    let d = Time(flags.i64_flag("d", cfg.params.d.as_ticks())?);
    let u = Time(flags.i64_flag("u", cfg.params.u.as_ticks())?);
    cfg.params = ModelParams::with_optimal_epsilon(n, d, u);
    cfg.x = Time(flags.i64_flag("x", cfg.x.as_ticks())?);
    cfg.tick = Time(flags.i64_flag("tick", cfg.params.epsilon.as_ticks())?);
    cfg.total_ops = flags.usize_flag("ops", cfg.total_ops)?;
    cfg.mean_gap = Time(flags.i64_flag("gap", cfg.mean_gap.as_ticks())?);
    cfg.mix = parse_mix(&flags.str_flag("mix", "balanced")?)?;
    cfg.zipf_s = flags.f64_flag("zipf", cfg.zipf_s)?;
    cfg.seed = flags.i64_flag("seed", cfg.seed as i64)? as u64;
    cfg.flush_ops = flags.usize_flag("flush", cfg.flush_ops)?;
    let json_out = flags.str_flag("json-out", "")?;
    flags.finish()?;

    let report = serve(&cfg)?;
    print!("{}", report.render_text());
    if !json_out.is_empty() {
        std::fs::write(&json_out, report.render_json())
            .map_err(|e| format!("cannot write {json_out}: {e}"))?;
        println!("wrote {json_out}");
    }
    if report.verdicts.class() != "linearizable" {
        return Err(format!(
            "composed verdict is {} (violating shards: {:?})",
            report.verdicts.class(),
            report.verdicts.violating_shards()
        ));
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut flags = FlagSet::parse(args)?;
    let n = flags.usize_flag("n", 4)?;
    let d = Time(flags.i64_flag("d", 6000)?);
    let u = Time(flags.i64_flag("u", 2400)?);
    let params = ModelParams::with_optimal_epsilon(n, d, u);
    let type_name = flags.str_flag("type", "fifo-queue")?;
    let spec = by_name(&type_name)
        .ok_or_else(|| format!("unknown type {type_name:?}; try `lintime types`"))?;
    let x = Time(flags.i64_flag("x", 0)?);
    let algo = match flags.str_flag("algo", "wtlw")?.as_str() {
        "wtlw" => Algorithm::Wtlw { x },
        "centralized" => Algorithm::Centralized,
        "broadcast" => Algorithm::Broadcast,
        "naive" => Algorithm::NaiveLocal(Time::ZERO),
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    let seed = flags.i64_flag("seed", 42)? as u64;
    let mix = parse_mix(&flags.str_flag("mix", "balanced")?)?;
    let delay = match flags.str_flag("delay", "random")?.as_str() {
        "random" => DelaySpec::UniformRandom { seed },
        "max" => DelaySpec::AllMax,
        "min" => DelaySpec::AllMin,
        other => return Err(format!("unknown delay model {other:?}")),
    };
    let ops_per_process = flags.usize_flag("ops", 6)?;
    let stream_check = flags.bool_flag("stream-check")?;
    let draw_timeline = flags.bool_flag("timeline")?;
    flags.finish()?;
    let workload = Workload { mix, ops_per_process, max_gap: params.d * 2, seed };

    println!(
        "simulating {} on {} with {} (n={}, d={}, u={}, ε={}, seed={seed})",
        workload.ops_per_process * params.n,
        type_name,
        algo.label(),
        params.n,
        params.d,
        params.u,
        params.epsilon
    );
    let schedule = workload.schedule(params, spec.as_ref());
    let mut cfg = SimConfig::new(params, delay).with_schedule(schedule);

    // Online checking: a live thread consumes the engine's operation-event
    // stream through the `op_sink` channel while the simulation runs, so the
    // verdict is ready (modulo the final pending residue) the moment the run
    // ends — no post-hoc history build required.
    let streamer = if stream_check {
        let (tx, rx) = std::sync::mpsc::channel();
        cfg = cfg.with_op_sink(tx);
        let spec = std::sync::Arc::clone(&spec);
        Some(std::thread::spawn(move || {
            let mut checker = lintime_check::stream::StreamChecker::new(&spec);
            for ev in rx {
                checker.feed(&ev);
            }
            checker.finish()
        }))
    } else {
        None
    };

    let run = run_algorithm(algo, &spec, &cfg);
    drop(cfg); // closes the op sink, letting the stream checker finish
    if let Some(handle) = streamer {
        let (verdict, stats) = handle.join().map_err(|_| "stream checker panicked".to_string())?;
        println!(
            "streaming verdict: {} ({} events, {} flushes, {} ops GC'd, peak resident {}, \
             {} fallbacks)",
            verdict.class(),
            stats.events,
            stats.flushes,
            stats.gc_reclaimed,
            stats.peak_resident,
            stats.fallbacks,
        );
    }
    if !run.complete() {
        return Err(format!("run incomplete:\n{run}"));
    }

    if draw_timeline {
        print!("{}", timeline::render(&run, 100));
    }
    println!("\nper-operation worst/mean latency:");
    for s in op_stats(&run, &spec) {
        println!(
            "  {:<14} {:<15} n={:<3} min={} mean={} max={}",
            s.op,
            s.class.to_string(),
            s.count,
            s.min,
            s.mean,
            s.max
        );
    }

    // The engine's honesty flags qualify everything below: a verdict only
    // binds on an untruncated, unsuspected run.
    println!(
        "\nhonesty flags: truncated={}, suspect={}",
        if run.truncated { "yes" } else { "no" },
        if run.is_suspect() { format!("yes {:?}", run.suspect) } else { "no".to_string() }
    );

    let history = lintime_check::history::History::from_run(&run)
        .map_err(|e| format!("cannot check: {e}"))?;
    match lintime_check::monitor::check_fast(&spec, &history) {
        lintime_check::wing_gong::Verdict::Linearizable(_) => {
            println!("\nlinearizable ✓ ({} ops, {} events)", run.ops.len(), run.events);
            Ok(())
        }
        lintime_check::wing_gong::Verdict::NotLinearizable => {
            println!("\nNOT linearizable ✗");
            if matches!(algo, Algorithm::NaiveLocal(_)) {
                println!("(expected: the naive algorithm is incorrect by design)");
                Ok(())
            } else {
                Err("correct algorithm produced a non-linearizable run".into())
            }
        }
        lintime_check::wing_gong::Verdict::Unknown => {
            println!("\nchecker budget exceeded (verdict unknown)");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_bench::genflags::FlagError;

    #[test]
    fn simulate_rejects_the_removed_check_threads_flag() {
        let args: Vec<String> = ["--check-threads", "2"].iter().map(|a| a.to_string()).collect();
        let err = cmd_simulate(&args).unwrap_err();
        assert_eq!(err, FlagError::UnknownFlags(vec!["check-threads".into()]).to_string());
    }

    #[test]
    fn counts_pick_sane_units() {
        assert_eq!(fmt_count(900.0), "900");
        assert_eq!(fmt_count(12_300.0), "12.3k");
        assert_eq!(fmt_count(4_560_000.0), "4.56M");
        assert_eq!(fmt_count(2_000_000_000.0), "2.00G");
    }
}
