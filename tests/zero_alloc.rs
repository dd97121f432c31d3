//! The steady-state `GradientAlgorithm::step()` performs **zero heap
//! allocation** — on the dense reference path and on the sparse
//! engine: every buffer the iteration touches is owned by the
//! algorithm (flow state, marginals, tags) or its
//! [`IterationWorkspace`] and only resized, never rebuilt. Verified
//! here with a counting global allocator.
//!
//! This file deliberately contains a single test: the counter is
//! process-global, and concurrent tests would alias into the measured
//! window. One non-algorithm thread still shares the process — the
//! libtest runner's main thread, which parks on its results channel
//! while the test runs and lazily allocates that thread's blocking
//! context the *first* time it parks. On a single-core host the
//! scheduler can deliver that one-shot init at an arbitrary point, so
//! every window first **quiesces**: it idles in short sleeps until one
//! full idle window records zero foreign allocations — proof the
//! harness's one-shot init has already landed — and only then takes
//! the single real measurement. No retry, no second chance: an
//! allocation inside the measured window is a real regression.
#![allow(unsafe_code)] // a counting GlobalAlloc requires unsafe impls

use spn::core::{GradientAlgorithm, GradientConfig};
use spn::model::random::RandomInstance;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Idles until one full sleep window records zero foreign allocations —
/// at that point every other thread's lazy one-shot init (the harness
/// main thread's park context, notably) has provably already happened,
/// so whatever the subsequent measurement counts came from the measured
/// body alone.
fn quiesce(label: &str) {
    for _ in 0..50 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(2));
        if ALLOCATIONS.load(Ordering::SeqCst) == before {
            return;
        }
    }
    eprintln!("{label}: process never quiesced; measuring anyway");
}

/// Counts the global allocations `body` performs in a single
/// quiesced window. No retries: a nonzero count is a real regression.
fn allocations_in(label: &str, mut body: impl FnMut()) -> u64 {
    quiesce(label);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    body();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_step_is_allocation_free() {
    // The paper instance at ×3 overload — the same workload the golden
    // trajectory test runs.
    let problem = RandomInstance::builder()
        .seed(7)
        .build()
        .unwrap()
        .problem
        .scale_demand(3.0);
    // Dense reference path first (sparsity now defaults on, so the
    // dense engine must be requested explicitly to stay covered here).
    let cfg = GradientConfig {
        sparsity: false,
        ..GradientConfig::default()
    };
    let mut alg = GradientAlgorithm::new(&problem, cfg).unwrap();

    // Warm-up: first steps may still grow workspace capacities (the
    // measured windows below each quiesce before counting).
    for _ in 0..10 {
        alg.step();
    }

    let stray = allocations_in("dense", || {
        for _ in 0..50 {
            alg.step();
        }
    });
    assert_eq!(
        stray, 0,
        "steady-state step() allocated {stray} times over 50 iterations"
    );

    // the run still makes progress (the instrumented loop is the real one)
    assert!(alg.report().utility > 0.0);

    // Checkpoint/rollback: the first capture sizes the checkpoint's
    // buffers; warm `checkpoint_into` refills and `restore` copies back
    // into existing storage, so a checkpoint-step-rollback cycle is
    // allocation-free too.
    let mut ck = spn::core::Checkpoint::new();
    alg.checkpoint_into(&mut ck); // cold capture allocates, outside the window
    let stray = allocations_in("checkpoint cycle", || {
        for _ in 0..20 {
            alg.checkpoint_into(&mut ck);
            alg.step();
            alg.restore(&ck).expect("shapes match");
        }
    });
    assert_eq!(
        stray, 0,
        "warm checkpoint/restore allocated {stray} times over 20 cycles"
    );
    assert!(alg.report().utility > 0.0);

    // The sparse engine (ARCHITECTURE invariant 15): once its buffers
    // are sized by the first sparse step, live-arc row rebuilds after
    // support changes and the totals reduction reuse preallocated
    // storage. The window includes a restore (which flags an outside
    // write: every live-arc row rebuilt, Γ over every router, the node
    // totals zeroed full width — that step must be allocation-free
    // too).
    let mut sparse = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
    for _ in 0..10 {
        sparse.step();
    }
    let stray = allocations_in("sparse steps", || {
        for _ in 0..50 {
            sparse.step();
        }
    });
    assert_eq!(
        stray, 0,
        "steady-state sparse step() allocated {stray} times over 50 iterations"
    );
    let mut ck = spn::core::Checkpoint::new();
    sparse.checkpoint_into(&mut ck);
    let stray = allocations_in("sparse restore cycle", || {
        for _ in 0..10 {
            sparse.restore(&ck).expect("shapes match");
            sparse.step(); // full walk after the outside write
            sparse.step(); // warm sparse iteration
        }
    });
    assert_eq!(
        stray, 0,
        "sparse restore/invalidate cycle allocated {stray} times"
    );
    assert!(sparse.report().utility > 0.0);
}
