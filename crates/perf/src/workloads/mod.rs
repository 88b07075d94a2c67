//! The six workloads and the measurement loop they share.
//!
//! Every workload is a fixed-size **round** of work over seeded inputs,
//! repeated until `--seconds` of wall time are spent. Rounds of one run are
//! identical (same inputs, deterministic program), so the virtual metrics of
//! every round must equal the first round's — a determinism oracle that
//! rides along for free — while host throughput is the median over rounds.
//! Fixing the round size (rather than letting the time budget size the
//! input) is what makes the virtual metrics repeat exactly for a seed on any
//! host speed.

pub mod check_offline;
pub mod check_stream;
pub mod engine;
pub mod live;
pub mod serve;

use crate::catalog;
use crate::host;
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Options of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Wall-time budget of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced run (end-to-end metrics).
    pub trace: bool,
    /// Input-size factor; 1.0 is the benchmark, the self-test runs 1/100.
    pub scale: f64,
}

impl RunOpts {
    /// `base` operations at this run's scale (at least `floor`).
    pub fn scaled(&self, base: usize, floor: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(floor)
    }
}

/// What one round of work produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations whose outputs were verified.
    pub ops: u64,
    /// Operations attempted (≥ `ops`).
    pub attempted: u64,
    /// Operations that missed the oracle (see each workload).
    pub failed: u64,
    /// Wall time of the round's timed region (verification excluded).
    pub wall: Duration,
    /// Virtual metrics of the round, by catalogue name. Must be identical in
    /// every round of a run.
    pub virt: Vec<(&'static str, f64)>,
    /// Host-time samples to pool across rounds (the live workload's per-op
    /// overheads), by sample-set name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Why operations failed, for the report.
    pub notes: Vec<String>,
}

/// The result of one workload run. The driver reads the metrics of the run's
/// own list (`end_to_end` untraced, `per_layer` traced); whatever else the
/// run computed on the way is kept for the human report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted over the whole run.
    pub attempted: u64,
    /// Operations that missed the oracle.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable remarks (oracle misses, ladder rows).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Set metric `name` (must be in the catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(catalog::metric(name).is_some(), "metric {name} is not in the catalogue");
        self.metrics.insert(name, value);
    }

    /// Fold one round's counts and notes in.
    pub fn absorb(&mut self, round: &mut Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.notes.append(&mut round.notes);
    }
}

/// A workload: seeded set-up, a repeatable round, a final verification, and
/// the per-layer probes of its traced run.
pub trait Workload {
    /// Whatever set-up prepares for the rounds.
    type Inputs;

    /// Build the inputs from the seed and run one warm-up pass at a tenth of
    /// the round size, so lazy initialisation and allocator growth are paid
    /// before the timed rounds. Timed as `setup_s`.
    fn setup(&self, opts: &RunOpts) -> Self::Inputs;

    /// One round of the workload's unit of work.
    fn round(&self, inputs: &Self::Inputs, tracer: &mut Tracer) -> Round;

    /// Output checks too expensive (or too foreign to the timed layer) to
    /// run every round; runs once, after the rounds.
    fn verify(&self, _inputs: &Self::Inputs, _out: &mut Outcome) {}

    /// Turn pooled [`Round::samples`] into metrics.
    fn pooled(&self, _samples: &BTreeMap<&'static str, Vec<f64>>, _out: &mut Outcome) {}

    /// Share of a traced run's time budget spent on (alternately traced and
    /// untraced) rounds; the rest goes to [`Workload::layers`].
    fn traced_rounds_share(&self) -> f64 {
        0.2
    }

    /// The traced run's per-layer probes, within roughly `budget`.
    fn layers(
        &self,
        inputs: &Self::Inputs,
        budget: Duration,
        tracer: &mut Tracer,
        out: &mut Outcome,
    );
}

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Run `w` once under `opts`: repeated set-up, timed rounds, verification,
/// and — in a traced run — the per-layer probes and the tracing overhead.
pub fn measure<W: Workload>(w: &W, opts: &RunOpts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    tracer.set_enabled(false);

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        inputs = Some(w.setup(opts));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");

    // A traced run spends part of its budget on alternating traced and
    // untraced rounds (the tracing overhead) and the rest on layer probes.
    let rounds_budget =
        if opts.trace { opts.seconds * w.traced_rounds_share() } else { opts.seconds };
    let started = Instant::now();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rates = Vec::new();
    let mut first: Option<Round> = None;
    let mut peak_rss_mb = 0.0;
    let mut pooled: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    loop {
        let traced = opts.trace && rates.len() % 2 == 1;
        tracer.set_enabled(traced);
        tracer.next_run();
        let mut round = w.round(&inputs, tracer);
        out.absorb(&mut round);
        let wall = round.wall.as_secs_f64().max(1e-9);
        walls[traced as usize].push(wall);
        rates.push(round.ops as f64 / wall);
        for (name, values) in round.samples.drain(..) {
            pooled.entry(name).or_default().extend(values);
        }
        match &first {
            None => {
                // Memory is read after the first round: later rounds replay
                // it, and what the high-water mark gains from them is
                // allocator drift (arena reuse across threads), not need.
                peak_rss_mb = host::peak_rss_mb()?;
                first = Some(round);
            }
            Some(f) if f.virt != round.virt => {
                out.failed += round.ops;
                out.notes.push(format!(
                    "round {} is not a replay of round 0: virtual metrics {:?} vs {:?}",
                    rates.len() - 1,
                    round.virt,
                    f.virt
                ));
            }
            Some(_) => {}
        }
        // Stop once another round would overshoot the budget by more than
        // half a round; a traced run needs two rounds of each kind.
        let enough = !opts.trace || rates.len() >= 4;
        let elapsed = started.elapsed().as_secs_f64();
        if enough && elapsed + 0.5 * elapsed / rates.len() as f64 > rounds_budget {
            break;
        }
    }
    tracer.set_enabled(false);
    let first = first.expect("at least one round ran");
    w.verify(&inputs, &mut out);
    w.pooled(&pooled, &mut out);

    for &(name, value) in &first.virt {
        out.set(name, value);
    }
    if opts.trace {
        // The fastest round of each kind: tracing can only add time, host
        // noise only adds time, so the minima isolate what tracing adds.
        let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
        out.set("trace.overhead_ratio", fastest(&walls[1]) / fastest(&walls[0]));
        tracer.set_enabled(true);
        let budget =
            Duration::from_secs_f64((opts.seconds - started.elapsed().as_secs_f64()).max(0.0));
        w.layers(&inputs, budget, tracer, &mut out);
        tracer.set_enabled(false);
    } else {
        out.set("setup_s", median(&setup_s));
        out.set("ops_per_s", median(&rates));
        out.set("peak_rss_mb", peak_rss_mb);
    }
    out.set("fail_share", out.failed as f64 / out.attempted.max(1) as f64);
    Ok(out)
}

/// Run the workload called `name`.
pub fn run(name: &str, opts: &RunOpts, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "serve-knee" => measure(&serve::Serve { overload: false }, opts, tracer),
        "serve-overload" => measure(&serve::Serve { overload: true }, opts, tracer),
        "engine-storm" => measure(&engine::EngineStorm, opts, tracer),
        "check-stream" => measure(&check_stream::CheckStream, opts, tracer),
        "check-offline" => measure(&check_offline::CheckOffline, opts, tracer),
        "live-paced" => measure(&live::LivePaced, opts, tracer),
        other => Err(format!(
            "unknown workload {other:?}; known: {}",
            catalog::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
        )),
    }
}
