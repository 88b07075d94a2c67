//! Invocation schedules: who invokes what, and when.
//!
//! Two styles, freely mixed:
//!
//! * **Timed** invocations fire at absolute real times (used by the
//!   lower-bound constructions, which place invocations at precise instants);
//! * **Scripts** are closed-loop: a process invokes the next operation a
//!   fixed gap after the previous one responds (used for the paper's
//!   `R_A(ρ, C, D)` prefix runs — "p₀ invokes the operation instances in ρ
//!   sequentially … with no gaps" — and for throughput workloads).
//!
//! The user constraint of Section 2.2 (at most one operation pending per
//! process) is enforced by the engine; schedules that violate it produce a
//! recorded error.

use crate::time::{Pid, Time};
use lintime_adt::spec::Invocation;

/// One invocation at an absolute real time.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedInvocation {
    /// Invoking process.
    pub pid: Pid,
    /// Real time of the invocation event.
    pub at: Time,
    /// The invocation.
    pub inv: Invocation,
}

/// A closed-loop script for one process: the first invocation fires at
/// `start` (real time); each subsequent one fires `gap` after the previous
/// response.
#[derive(Clone, Debug, PartialEq)]
pub struct Script {
    /// Invoking process.
    pub pid: Pid,
    /// Real time of the first invocation.
    pub start: Time,
    /// Gap between a response and the next invocation.
    pub gap: Time,
    /// The operations to invoke, in order.
    pub invocations: Vec<Invocation>,
}

/// A complete invocation schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    /// Timed invocations (error if the process is busy when one fires).
    pub timed: Vec<TimedInvocation>,
    /// Closed-loop scripts (at most one per process; `SimConfig::validate`
    /// rejects a schedule with two).
    pub scripts: Vec<Script>,
    /// Open-loop arrivals: like `timed`, but an arrival at a busy process
    /// queues in that process's ingress queue (FIFO) and is admitted when
    /// the pending operation responds, instead of being recorded as an
    /// error. This models clients that submit requests at their own rate,
    /// independent of service completions.
    pub open: Vec<TimedInvocation>,
}

impl Schedule {
    /// The empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Add one timed invocation.
    pub fn at(mut self, pid: Pid, at: Time, inv: Invocation) -> Self {
        self.timed.push(TimedInvocation { pid, at, inv });
        self
    }

    /// Add one open-loop arrival: the invocation arrives at `at` and is
    /// admitted immediately if `pid` is idle, or queued (FIFO per process)
    /// until the pending operation responds.
    pub fn arrival(mut self, pid: Pid, at: Time, inv: Invocation) -> Self {
        self.open.push(TimedInvocation { pid, at, inv });
        self
    }

    /// Add a closed-loop script.
    pub fn script(mut self, script: Script) -> Self {
        assert!(
            !self.scripts.iter().any(|s| s.pid == script.pid),
            "at most one script per process"
        );
        self.scripts.push(script);
        self
    }

    /// The paper's `R_A(ρ, C, D)` prefix: `p₀` invokes ρ sequentially with no
    /// gaps, starting at its **clock** time 0, i.e. real time `-c₀`.
    pub fn rho_on_p0(rho: &[Invocation], c0: Time) -> Self {
        Schedule::new().script(Script {
            pid: Pid(0),
            start: -c0,
            gap: Time::ZERO,
            invocations: rho.to_vec(),
        })
    }

    /// Total number of invocations in the schedule.
    pub fn len(&self) -> usize {
        self.timed.len()
            + self.open.len()
            + self.scripts.iter().map(|s| s.invocations.len()).sum::<usize>()
    }

    /// True if the schedule contains no invocations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shift the schedule: each invocation at process `p_i` moves by `x[i]`
    /// (the schedule half of `shift(R, x̄)` — process `p_i`'s steps all move
    /// by `x_i`).
    pub fn shifted(&self, x: &[Time]) -> Schedule {
        Schedule {
            timed: self
                .timed
                .iter()
                .map(|t| TimedInvocation { pid: t.pid, at: t.at + x[t.pid.0], inv: t.inv.clone() })
                .collect(),
            scripts: self
                .scripts
                .iter()
                .map(|s| Script {
                    pid: s.pid,
                    start: s.start + x[s.pid.0],
                    gap: s.gap,
                    invocations: s.invocations.clone(),
                })
                .collect(),
            open: self
                .open
                .iter()
                .map(|t| TimedInvocation { pid: t.pid, at: t.at + x[t.pid.0], inv: t.inv.clone() })
                .collect(),
        }
    }

    /// Merge another schedule into this one.
    pub fn merge(mut self, other: Schedule) -> Schedule {
        self.timed.extend(other.timed);
        self.open.extend(other.open);
        for s in other.scripts {
            self = self.script(s);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::Invocation;

    #[test]
    fn builders_accumulate() {
        let s = Schedule::new().at(Pid(0), Time(10), Invocation::nullary("read")).at(
            Pid(1),
            Time(20),
            Invocation::new("write", 1),
        );
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn rho_on_p0_starts_at_clock_zero() {
        let rho = vec![Invocation::new("write", 1), Invocation::nullary("read")];
        let s = Schedule::rho_on_p0(&rho, Time(-500)); // c0 = -500
        assert_eq!(s.scripts[0].start, Time(500)); // real = -c0
        assert_eq!(s.scripts[0].gap, Time::ZERO);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "one script per process")]
    fn duplicate_scripts_rejected() {
        let mk = |pid| Script { pid, start: Time::ZERO, gap: Time::ZERO, invocations: vec![] };
        let _ = Schedule::new().script(mk(Pid(0))).script(mk(Pid(0)));
    }

    #[test]
    fn shifting_moves_per_process() {
        let s = Schedule::new()
            .at(Pid(0), Time(10), Invocation::nullary("read"))
            .at(Pid(1), Time(10), Invocation::nullary("read"))
            .script(Script {
                pid: Pid(2),
                start: Time(0),
                gap: Time(5),
                invocations: vec![Invocation::nullary("read")],
            });
        let shifted = s.shifted(&[Time(3), Time(-4), Time(7)]);
        assert_eq!(shifted.timed[0].at, Time(13));
        assert_eq!(shifted.timed[1].at, Time(6));
        assert_eq!(shifted.scripts[0].start, Time(7));
        assert_eq!(shifted.scripts[0].gap, Time(5)); // gaps are durations
    }

    #[test]
    fn arrivals_count_shift_and_merge() {
        let s = Schedule::new().arrival(Pid(0), Time(5), Invocation::nullary("read")).arrival(
            Pid(1),
            Time(9),
            Invocation::new("write", 1),
        );
        assert_eq!(s.len(), 2);
        let shifted = s.clone().shifted(&[Time(2), Time(-3)]);
        assert_eq!(shifted.open[0].at, Time(7));
        assert_eq!(shifted.open[1].at, Time(6));
        let m = s.merge(Schedule::new().arrival(Pid(0), Time(11), Invocation::nullary("read")));
        assert_eq!(m.open.len(), 3);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn merge_combines() {
        let a = Schedule::new().at(Pid(0), Time(1), Invocation::nullary("read"));
        let b = Schedule::new().at(Pid(1), Time(2), Invocation::nullary("read"));
        let m = a.merge(b);
        assert_eq!(m.len(), 2);
    }
}
