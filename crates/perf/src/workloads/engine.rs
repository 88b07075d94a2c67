//! `engine-storm`: the simulator's event loop and the node handlers, alone.
//!
//! A roster of four closed-loop runs (`Script` gap 0: each process issues its
//! next operation the instant the previous one responds), back to back, with
//! no op sink and no checker in the timed region:
//!
//! * `Wtlw{X=0}` on 16 processes, a register write storm (7 writes per read):
//!   every write is a 15-way broadcast, ~30 events per operation — the heap
//!   and the `To_Execute` queue under Θ(n²) traffic;
//! * `Centralized`, `Broadcast` on 8 processes and `QuorumSm` on 5, over a
//!   fifo-queue producer/consumer mix: the folklore and quorum backends stay
//!   under a number while their dispatch is refactored.
//!
//! The queue legs issue no `peek`: the queue monitor defers any history with
//! a `peek` to the Wing–Gong search, which cannot decide a closed-loop
//! history of tens of thousands of operations within its budget, and the
//! histories *are* checked (with `check_fast`, after timing). Written values
//! are distinct for the same reason.

use super::{Outcome, Round, RunOpts, Workload};
use crate::gen::{self, PRODUCE_CONSUME};
use crate::probes;
use crate::trace::Tracer;
use lintime_adt::prelude::*;
use lintime_adt::spec::OpClass;
use lintime_check::history::History;
use lintime_check::monitor::check_fast;
use lintime_core::cluster::{run_algorithm, Algorithm};
use lintime_core::wtlw::predicted_latency;
use lintime_obs::{Obs, Registry, TraceHandle};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::SimConfig;
use lintime_sim::run::Run;
use lintime_sim::time::Time;
use lintime_sim::workload::Mix;
use std::sync::Arc;
use std::time::Duration;

/// The engine workload.
pub struct EngineStorm;

/// One run of the roster.
pub struct Leg {
    /// Span name of the run.
    span: &'static str,
    algo: Algorithm,
    spec: Arc<dyn ObjectSpec>,
    cfg: SimConfig,
    /// Operations the schedule holds.
    scheduled: u64,
    seed: u64,
    ns_metric: &'static str,
    msgs_metric: &'static str,
}

const WRITE_STORM: Mix = Mix { accessors: 1, mutators: 7, mixed: 0 };

fn roster(opts: &RunOpts, divisor: usize) -> Vec<Leg> {
    let leg = |span,
               algo,
               n: usize,
               spec: Arc<dyn ObjectSpec>,
               mix,
               per_process: usize,
               ns_metric,
               msgs_metric| {
        let per_process = (opts.scaled(per_process, 4) / divisor).max(2);
        let schedule = gen::closed_loop(spec.as_ref(), n, mix, per_process, opts.seed);
        let cfg = SimConfig::new(probes::params(n), DelaySpec::UniformRandom { seed: opts.seed })
            .with_schedule(schedule);
        let scheduled = (n * per_process) as u64;
        Leg { span, algo, spec, cfg, scheduled, seed: opts.seed, ns_metric, msgs_metric }
    };
    let queue = || erase(FifoQueue::new());
    vec![
        leg(
            "core.wtlw",
            Algorithm::Wtlw { x: Time::ZERO },
            16,
            erase(Register::new(0)),
            WRITE_STORM,
            1000,
            "core.wtlw.ns_per_op",
            "core.wtlw.msgs_per_op",
        ),
        leg(
            "core.centralized",
            Algorithm::Centralized,
            8,
            queue(),
            PRODUCE_CONSUME,
            30_000,
            "core.centralized.ns_per_op",
            "core.centralized.msgs_per_op",
        ),
        leg(
            "core.broadcast",
            Algorithm::Broadcast,
            8,
            queue(),
            PRODUCE_CONSUME,
            2000,
            "core.broadcast.ns_per_op",
            "core.broadcast.msgs_per_op",
        ),
        // QuorumSm replays a log that grows with the run, so its cost per
        // operation grows with the run length; this leg is short on purpose.
        leg(
            "core.quorum_sm",
            Algorithm::QuorumSm,
            5,
            queue(),
            PRODUCE_CONSUME,
            1000,
            "core.quorum_sm.ns_per_op",
            "core.quorum_sm.msgs_per_op",
        ),
    ]
}

/// Completed operations of a run, and how many of the scheduled ones are
/// missing or came from a run the engine flagged.
fn tally(leg: &Leg, run: &Run) -> (u64, u64) {
    let done = run.completed().count() as u64;
    let sound = run.errors.is_empty() && run.certifiable();
    (done, if sound { leg.scheduled - done.min(leg.scheduled) } else { leg.scheduled })
}

/// Worst latency of the operations of `class`, in ticks (`None` if none ran).
fn class_max(leg: &Leg, run: &Run, class: OpClass) -> Option<i64> {
    run.completed()
        .filter(|op| leg.spec.op_meta(op.invocation.op).is_some_and(|m| m.class == class))
        .filter_map(|op| op.latency())
        .max()
        .map(Time::as_ticks)
}

impl Workload for EngineStorm {
    type Inputs = Vec<Leg>;

    fn setup(&self, opts: &RunOpts) -> Vec<Leg> {
        for leg in roster(opts, 10) {
            std::hint::black_box(run_algorithm(leg.algo, &leg.spec, &leg.cfg));
        }
        roster(opts, 1)
    }

    fn round(&self, legs: &Vec<Leg>, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let (mut msgs, mut bytes, mut events) = (0u64, 0u64, 0u64);
        for leg in legs {
            let (run, wall) =
                tracer.time(leg.span, |_| run_algorithm(leg.algo, &leg.spec, &leg.cfg));
            let (done, failed) = tally(leg, &run);
            round.wall += wall;
            round.ops += done;
            round.attempted += leg.scheduled;
            round.failed += failed;
            if failed > 0 {
                round.notes.push(format!(
                    "{}: {failed} of {} operations lost (errors {:?}, truncated {})",
                    leg.span, leg.scheduled, run.errors, run.truncated
                ));
            }
            msgs += run.msgs_sent;
            bytes += run.bytes_sent;
            events += run.events;
            round.virt.push((leg.msgs_metric, run.msgs_sent as f64 / done.max(1) as f64));
            if let Algorithm::Wtlw { x } = leg.algo {
                // Algorithm 1's envelopes are attained exactly: d − X, X + ε.
                for (class, metric) in [
                    (OpClass::PureAccessor, "lat_accessor_max_ticks"),
                    (OpClass::PureMutator, "lat_mutator_max_ticks"),
                ] {
                    let max = class_max(leg, &run, class);
                    let envelope = predicted_latency(leg.cfg.params, x, class).as_ticks();
                    if max.is_some_and(|max| max != envelope) {
                        round.failed += done;
                        round.notes.push(format!(
                            "{}: {class:?} max {max:?} ≠ envelope {envelope}",
                            leg.span
                        ));
                    }
                    round.virt.push((metric, max.unwrap_or(0) as f64));
                }
            }
        }
        round.virt.push(("sim.events", events as f64));
        round.virt.push(("msgs_per_op", msgs as f64 / round.ops.max(1) as f64));
        round.virt.push(("bytes_per_op", bytes as f64 / round.ops.max(1) as f64));
        round.failed = round.failed.min(round.attempted);
        round
    }

    /// Every leg's history must be linearizable. Run once more (the rounds
    /// are replays of each other, which the round loop has checked) and
    /// decide each history with `check_fast`.
    fn verify(&self, legs: &Vec<Leg>, out: &mut Outcome) {
        for leg in legs {
            let run = run_algorithm(leg.algo, &leg.spec, &leg.cfg);
            out.attempted += leg.scheduled;
            let verdict = History::from_run(&run).map(|h| check_fast(&leg.spec, &h));
            if !verdict.as_ref().is_ok_and(|v| v.is_linearizable()) {
                out.failed += leg.scheduled;
                out.notes.push(format!("{}: history not certified: {verdict:?}", leg.span));
            }
        }
    }

    fn layers(&self, legs: &Vec<Leg>, _budget: Duration, tracer: &mut Tracer, out: &mut Outcome) {
        let (mut events, mut ops, mut wall) = (0u64, 0u64, Duration::ZERO);
        let mut measured = Vec::new();
        for leg in legs {
            let (run, took) =
                tracer.time(leg.span, |_| run_algorithm(leg.algo, &leg.spec, &leg.cfg));
            events += run.events;
            ops += run.completed().count() as u64;
            wall += took;
            measured.push((leg, run, took));
        }
        let null_ns =
            probes::null_node_ns_per_event(&legs[1].spec, 8, events / 4, legs[1].seed, tracer);
        out.set("sim.null_node_ns_per_event", null_ns);
        out.set("sim.engine_ns_per_event", wall.as_nanos() as f64 / events.max(1) as f64);
        out.set("sim.events_per_op", events as f64 / ops.max(1) as f64);
        out.set("sim.events_per_s", events as f64 / wall.as_secs_f64().max(1e-9));
        for (leg, run, took) in &measured {
            let done = run.completed().count().max(1) as f64;
            // Handler self time: the run minus the echo-node engine at the
            // same event count.
            out.set(
                leg.ns_metric,
                ((took.as_nanos() as f64 - null_ns * run.events as f64) / done).max(0.0),
            );
        }

        // adt: the operation sequences the legs executed, applied alone.
        for (leg, metric) in
            [(&legs[0], "adt.apply_ns_per_op.register"), (&legs[1], "adt.apply_ns_per_op.queue")]
        {
            let invocations = leg.cfg.schedule.scripts.iter().flat_map(|s| &s.invocations);
            out.set(metric, probes::apply_ns_per_op(&leg.spec, invocations, tracer));
        }

        // obs: the Wtlw leg with an active registry and a null trace sink.
        let (leg, _, plain) = &measured[0];
        let observed = leg.cfg.clone().with_obs(Obs::new(TraceHandle::null(), Registry::new()));
        let (_, with_obs) =
            tracer.time("core.wtlw.observed", |_| run_algorithm(leg.algo, &leg.spec, &observed));
        out.set("obs.on_ratio.engine", with_obs.as_secs_f64() / plain.as_secs_f64().max(1e-9));
    }
}
