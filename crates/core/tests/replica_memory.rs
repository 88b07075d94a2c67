//! Memory guard: an Algorithm-1 replica's execution state is O(1). A node
//! may hold its object, its `To_Execute` queue and fixed-size bookkeeping,
//! but nothing that grows with the number of operations it has executed.
//!
//! A counting global allocator measures the bytes a cluster's returned nodes
//! still own (live bytes before dropping them minus live bytes after), at two
//! run lengths ten times apart. It also tracks the peak of live bytes, so the
//! same runs bound what the engine holds per recorded operation: the `Run`'s
//! op records and little else (a closed-loop script is read in place, not
//! copied). This file holds exactly one test, so no other test allocates
//! concurrently.

use lintime_adt::prelude::*;
use lintime_core::wtlw::WtlwNode;
use lintime_sim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// [`System`], counting the bytes it hands out and takes back. The counters
/// are statistics and publish no other data, so `Relaxed` suffices.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters have no
// effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCATED.fetch_add(layout.size(), Relaxed);
            PEAK.fetch_max(live_bytes(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation goes through `alloc`/`realloc` above).
        unsafe { System.dealloc(ptr, layout) };
        FREED.fetch_add(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            ALLOCATED.fetch_add(new_size, Relaxed);
            FREED.fetch_add(layout.size(), Relaxed);
            PEAK.fetch_max(live_bytes(), Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> usize {
    ALLOCATED.load(Relaxed) - FREED.load(Relaxed)
}

/// What a closed-loop n = 4 register cluster costs after `per_process`
/// alternating write/read operations at every process.
struct Footprint {
    /// Bytes the returned nodes still own.
    node_bytes: usize,
    /// Peak live bytes during `simulate_full`, above the live bytes just
    /// before it (the schedule and configuration are already built).
    run_peak: usize,
}

fn footprint(per_process: usize) -> Footprint {
    let p = ModelParams::default_experiment();
    let spec = erase(Register::new(0));
    let mut schedule = Schedule::new();
    for i in 0..p.n {
        let invocations = (0..per_process)
            .map(|k| match k % 2 {
                0 => Invocation::new("write", (i * per_process + k) as i64),
                _ => Invocation::nullary("read"),
            })
            .collect();
        schedule = schedule.script(Script {
            pid: Pid(i),
            start: Time(i as i64 * 7),
            gap: Time::ZERO,
            invocations,
        });
    }
    let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 3 }).with_schedule(schedule);
    let baseline = live_bytes();
    PEAK.store(baseline, Relaxed);
    let (run, nodes) =
        simulate_full(&cfg, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time(1200)));
    let run_peak = PEAK.load(Relaxed).saturating_sub(baseline);
    assert!(run.complete());
    assert_eq!(run.ops.len(), per_process * p.n);
    drop(run);
    let before = live_bytes();
    drop(nodes);
    Footprint { node_bytes: before.saturating_sub(live_bytes()), run_peak }
}

#[test]
fn replica_state_does_not_grow_with_executed_operations() {
    let short = footprint(500).node_bytes;
    let long = footprint(5_000);
    assert!(
        long.node_bytes <= short + 64 * 1024,
        "nodes hold {} B after 5000 ops per process but {short} B after 500: \
         some per-replica field grows with the number of executed operations",
        long.node_bytes
    );
    // The run's high-water mark is its op records (`Run::ops` is sized to
    // the schedule up front) plus in-flight state; a per-op copy of the
    // input, such as a cloned script, pushes it past the bound.
    let scheduled = 5_000 * ModelParams::default_experiment().n;
    let bound = scheduled * size_of::<OpRecord>() * 5 / 4;
    assert!(
        long.run_peak <= bound,
        "simulate_full peaked {} B above its baseline for {scheduled} scheduled ops \
         ({} B/op); the bound is 1.25 x size_of::<OpRecord>() = {} B/op",
        long.run_peak,
        long.run_peak / scheduled,
        bound / scheduled
    );
}
