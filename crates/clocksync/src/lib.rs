//! # lintime-clocksync
//!
//! The clock-synchronization substrate assumed by Section 5 of Wang,
//! Talmage, Lee, Welch (IPPS 2014): "From \[16\] we know that the optimal
//! clock synchronization error ε is `(1 − 1/n)u`. Algorithms for achieving
//! this optimal error already exist, so we proceed under the assumption that
//! some such algorithm has already synchronized the clocks."
//!
//! This crate discharges that assumption by implementing the
//! Lundelius–Lynch averaging algorithm on the simulator and *measuring* the
//! achieved skew:
//!
//! * every process broadcasts a ping carrying its local send time;
//! * a receiver estimates the sender-receiver offset difference as
//!   `sent_local − recv_local + d − u/2`, which is accurate to `±u/2`
//!   because the true delay lies in `[d − u, d]`;
//! * once a process holds estimates for all peers it adjusts its clock by
//!   the average of the estimates, yielding pairwise skew at most
//!   `(1 − 1/n)u` (up to integer rounding).
//!
//! The synchronization round is modelled as an operation: each process is
//! scheduled a `"sync"` invocation, and the response carries the computed
//! correction, so the whole experiment is a recorded run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use lintime_adt::spec::Invocation;
use lintime_adt::value::Value;
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::{simulate_full, SimConfig};
use lintime_sim::node::{Effects, NoTimer, Node};
use lintime_sim::schedule::Schedule;
use lintime_sim::time::{ModelParams, Pid, Time};

/// Ping message carrying the sender's local clock reading at send time.
#[derive(Clone, Debug, PartialEq)]
pub struct Ping {
    /// Sender's local time when the message was sent.
    pub sent_local: Time,
}

/// One process of the Lundelius–Lynch averaging synchronizer.
pub struct ClockSyncNode {
    params: ModelParams,
    /// Offset-difference estimates: `estimates[q] ≈ c_q − c_me`, within
    /// `±u/2`. The self-estimate is 0.
    estimates: Vec<Option<Time>>,
    /// Whether the local `"sync"` operation is pending.
    pending: bool,
    /// The computed correction, once available.
    correction: Option<Time>,
}

impl ClockSyncNode {
    /// Create a node.
    pub fn new(pid: Pid, params: ModelParams) -> Self {
        let mut estimates = vec![None; params.n];
        estimates[pid.0] = Some(Time::ZERO);
        ClockSyncNode { params, estimates, pending: false, correction: None }
    }

    /// The correction computed by this node, if the round finished.
    pub fn correction(&self) -> Option<Time> {
        self.correction
    }

    fn maybe_finish(&mut self, fx: &mut Effects<Ping, NoTimer>) {
        if self.correction.is_some() || self.estimates.iter().any(Option::is_none) {
            return;
        }
        let n = self.params.n as i64;
        let sum: i64 = self.estimates.iter().map(|e| e.expect("all present").as_ticks()).sum();
        let corr = Time(sum.div_euclid(n));
        self.correction = Some(corr);
        if self.pending {
            self.pending = false;
            fx.respond(Value::Int(corr.as_ticks()));
        }
    }
}

impl Node for ClockSyncNode {
    type Msg = Ping;
    type Timer = NoTimer;

    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<Ping, NoTimer>) {
        assert_eq!(inv.op, "sync", "clock-sync nodes only accept the sync op");
        self.pending = true;
        fx.broadcast(Ping { sent_local: fx.local_time() });
        self.maybe_finish(fx);
    }

    fn on_deliver(&mut self, from: Pid, msg: Ping, fx: &mut Effects<Ping, NoTimer>) {
        // estimate of (c_from − c_me): sent − recv + d − u/2, error ±u/2.
        let est = msg.sent_local - fx.local_time() + self.params.d - self.params.u / 2;
        self.estimates[from.0] = Some(est);
        self.maybe_finish(fx);
    }

    fn on_timer(&mut self, timer: NoTimer, _fx: &mut Effects<Ping, NoTimer>) {
        match timer {}
    }
}

/// Result of one synchronization round.
#[derive(Clone, Debug)]
pub struct SyncOutcome {
    /// Raw clock offsets (ground truth, unknown to the processes).
    pub raw_offsets: Vec<Time>,
    /// Corrections computed by each process.
    pub corrections: Vec<Time>,
    /// Adjusted offsets: `raw + correction`.
    pub adjusted: Vec<Time>,
    /// Skew before adjustment.
    pub raw_skew: Time,
    /// Skew after adjustment.
    pub achieved_skew: Time,
    /// The optimal bound `(1 − 1/n)u` from \[16\].
    pub optimal_bound: Time,
}

/// Run one synchronization round under the given raw offsets and delay
/// assignment, and measure the achieved skew.
pub fn run_sync_round(
    params: ModelParams,
    raw_offsets: Vec<Time>,
    delay: DelaySpec,
) -> SyncOutcome {
    let mut schedule = Schedule::new();
    for i in 0..params.n {
        schedule = schedule.at(Pid(i), Time::ZERO, Invocation::nullary("sync"));
    }
    let cfg =
        SimConfig::new(params, delay).with_offsets(raw_offsets.clone()).with_schedule(schedule);
    let (run, nodes) = simulate_full(&cfg, |pid| ClockSyncNode::new(pid, params));
    assert!(run.complete(), "sync round did not complete: {run}");
    let corrections: Vec<Time> =
        nodes.iter().map(|n| n.correction().expect("round finished")).collect();
    let adjusted: Vec<Time> = raw_offsets.iter().zip(&corrections).map(|(r, c)| *r + *c).collect();
    let spread = |v: &[Time]| {
        v.iter().copied().max().unwrap_or(Time::ZERO)
            - v.iter().copied().min().unwrap_or(Time::ZERO)
    };
    SyncOutcome {
        raw_skew: spread(&raw_offsets),
        achieved_skew: spread(&adjusted),
        optimal_bound: ModelParams::optimal_epsilon(params.n, params.u),
        raw_offsets,
        corrections,
        adjusted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Params with a huge ε so arbitrary raw offsets remain "admissible";
    /// the synchronizer itself never reads ε.
    fn params(n: usize) -> ModelParams {
        ModelParams::new(n, Time(6000), Time(2400), Time(1_000_000))
    }

    /// Integer averaging loses at most 1 tick per process pair.
    fn slack(n: usize) -> Time {
        Time(n as i64)
    }

    #[test]
    fn already_synchronized_clocks_stay_close() {
        let p = params(4);
        let out = run_sync_round(p, vec![Time::ZERO; 4], DelaySpec::Constant(p.d));
        assert!(out.achieved_skew <= out.optimal_bound + slack(4));
    }

    #[test]
    fn wildly_skewed_clocks_get_synchronized() {
        let p = params(4);
        let raw = vec![Time(0), Time(500_000), Time(-300_000), Time(123_456)];
        let out = run_sync_round(p, raw, DelaySpec::Constant(p.d - p.u / 2));
        assert!(out.raw_skew >= Time(800_000));
        assert!(
            out.achieved_skew <= out.optimal_bound + slack(4),
            "achieved {} > bound {}",
            out.achieved_skew,
            out.optimal_bound
        );
    }

    #[test]
    fn adversarial_asymmetric_delays_respect_the_bound() {
        // The worst case for estimation: some channels fastest, others
        // slowest.
        let p = params(4);
        let delay =
            DelaySpec::matrix_from_fn(4, |i, j| if (i + j) % 2 == 0 { p.d } else { p.min_delay() });
        let raw = vec![Time(0), Time(100_000), Time(200_000), Time(300_000)];
        let out = run_sync_round(p, raw, delay);
        assert!(
            out.achieved_skew <= out.optimal_bound + slack(4),
            "achieved {} > bound {}",
            out.achieved_skew,
            out.optimal_bound
        );
    }

    #[test]
    fn random_delays_across_many_seeds() {
        let p = params(5);
        for seed in 0..20 {
            let raw = vec![
                Time(0),
                Time((seed as i64) * 7919 % 50_000),
                Time(-((seed as i64) * 104_729 % 60_000)),
                Time(31_337),
                Time(-42),
            ];
            let out = run_sync_round(p, raw, DelaySpec::UniformRandom { seed });
            assert!(
                out.achieved_skew <= out.optimal_bound + slack(5),
                "seed {seed}: achieved {} > bound {}",
                out.achieved_skew,
                out.optimal_bound
            );
        }
    }

    #[test]
    fn bound_formula_matches_paper() {
        for n in [2usize, 3, 4, 8] {
            let bound = ModelParams::optimal_epsilon(n, Time(2400));
            assert_eq!(bound, Time(2400 - 2400 / n as i64));
        }
    }

    #[test]
    fn worst_case_delay_pattern_nearly_attains_the_bound() {
        // With n = 2 the bound is u/2; a maximally-misleading delay pattern
        // (one direction fastest, the other slowest) drives the error close
        // to it, showing the analysis is tight in the right regime.
        let p = params(2);
        let delay = DelaySpec::matrix_from_fn(2, |i, _| if i == 0 { p.d } else { p.min_delay() });
        let out = run_sync_round(p, vec![Time::ZERO, Time::ZERO], delay);
        assert!(out.achieved_skew <= out.optimal_bound + slack(2));
        assert!(
            out.achieved_skew >= out.optimal_bound - slack(2),
            "achieved {} nowhere near bound {}",
            out.achieved_skew,
            out.optimal_bound
        );
    }
}
