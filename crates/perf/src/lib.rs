//! # lintime-perf
//!
//! The repository's benchmark (`BENCHMARK.json` at the root is its
//! driver-facing description): six workloads over the four ways the system
//! is used — simulate, serve, check, live — each measured **from outside**,
//! by timing calls into the public functions of the other crates.
//!
//! * [`catalog`] — every workload and metric, with unit, clock, direction
//!   and bound;
//! * [`workloads`] — the workloads and the measurement loop they share;
//! * [`gen`] — seeded input generators;
//! * [`probes`] — layer probes shared by the traced runs;
//! * [`trace`] — harness-side spans and self times;
//! * [`report`], [`compare`] — result lines, result files, and the
//!   bound-checking comparison of two result sets;
//! * [`host`], [`stats`], [`json`] — `/proc` readings, order statistics, and
//!   a minimal JSON value (the workspace has no external crates).
//!
//! See `crates/perf/README.md` for what each workload is for, what each
//! metric should move, and the first recorded baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod compare;
pub mod gen;
pub mod host;
pub mod json;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
