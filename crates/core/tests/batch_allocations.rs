//! Allocation guard: batched Algorithm 1 allocates less than once per
//! operation. Its handlers write into the engine's effect sink directly, and
//! a flush allocates one shared frame for every peer, so what is left is the
//! frame itself and the engine's amortised growth.
//!
//! A counting global allocator counts the allocation calls (`alloc` and
//! `realloc`) made while an open-loop n = 4 cluster runs; the schedule is
//! built before counting starts. This file holds exactly one test, so no
//! other test allocates concurrently.

use lintime_adt::prelude::*;
use lintime_core::prelude::*;
use lintime_sim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// [`System`], counting the allocation calls it serves. The counter is a
/// statistic and publishes no other data, so `Relaxed` suffices.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter has no effect
// on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation goes through `alloc`/`realloc` above).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls per completed operation while `algo` serves 2,000
/// open-loop read/write/rmw arrivals behind an admission epoch of 1024.
fn allocations_per_op(algo: Algorithm) -> f64 {
    let p = ModelParams::default_experiment();
    let spec = erase(RmwRegister::new(0));
    // About six arrivals per d, spread over the processes at random.
    let mut rng = SplitMix64::seed_from_u64(40);
    let mut schedule = Schedule::new();
    let mut t = 0;
    for k in 0..2_000i64 {
        t += rng.gen_range(0..2_000i64);
        let inv = match rng.gen_range(0..4u32) {
            0 => Invocation::nullary("read"),
            1 | 2 => Invocation::new("write", k),
            _ => Invocation::new("rmw", k),
        };
        schedule = schedule.arrival(Pid(rng.gen_range(0..p.n)), Time(t), inv);
    }
    let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 7 })
        .with_schedule(schedule)
        .with_admission_epoch(1024);
    let before = CALLS.load(Relaxed);
    let run = run_algorithm(algo, &spec, &cfg);
    let calls = CALLS.load(Relaxed) - before;
    assert!(run.complete() && run.errors.is_empty(), "{algo:?}: {:?}", run.errors);
    assert_eq!(run.ops.len(), 2_000);
    calls as f64 / run.ops.len() as f64
}

#[test]
fn batched_algorithm_1_allocates_less_than_once_per_op() {
    let p = ModelParams::default_experiment();
    for tick in [Time::ZERO, p.epsilon] {
        let per_op = allocations_per_op(Algorithm::BatchedWtlw { x: Time::ZERO, tick });
        assert!(per_op <= 1.0, "BatchedWtlw at B = {tick}: {per_op:.2} allocations per op");
    }
    let per_op = allocations_per_op(Algorithm::Wtlw { x: Time::ZERO });
    assert!(per_op <= 0.1, "Wtlw: {per_op:.2} allocations per op");
}
