//! # lintime-bench
//!
//! The reproduction harness: every table and figure of the paper has a
//! generator here (see [`experiments`]), and the one binary, `lintime`,
//! prints each as a subcommand ([`experiments::REPORTS`] lists them). The
//! example programs live under this crate's `examples/` directory, and the
//! workspace-level `tests/` directory is wired into this crate. The
//! robustness extension adds a fault-injection sweep
//! ([`experiments::fault_sweep_report`], `lintime fault-sweep`) and a
//! cross-backend availability matrix ([`matrix`]), and the
//! observability extension adds traced scenario replay ([`tracecmd`],
//! `lintime trace`) plus a `--metrics-out` snapshot flag on `lintime
//! fault-sweep` and `lintime all`. The streaming extension adds generated
//! live event streams ([`streamgen`], `lintime stream`) for the
//! bounded-memory online checker. The serving extension adds a sharded
//! multi-object deployment under open-loop load ([`serve`], `lintime serve`)
//! with per-shard online checking composed by locality, and a shared
//! structured flag parser for the subcommands that take flags ([`genflags`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod genflags;
pub mod matrix;
pub mod serve;
pub mod streamgen;
pub mod sweep;
pub mod timeline;
pub mod tracecmd;
