//! The steady-state `GradientAlgorithm::step()` performs **zero heap
//! allocation**, with either row rule, and so does a warm admission
//! phase (`settle_newcomer`): every buffer the iteration
//! touches is owned by the algorithm (flow state, marginals, live-arc
//! rows, curvature rows) or its [`IterationWorkspace`] and only
//! resized, never rebuilt (ARCHITECTURE invariant 15). Verified here
//! with a counting global allocator.
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
#![deny(clippy::undocumented_unsafe_blocks)]

use spn::core::{GradientAlgorithm, GradientConfig, NewtonGradient};
use spn::model::random::RandomInstance;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's
// unchanged `layout`, `ptr` and `new_size`, so `System` upholds the
// `GlobalAlloc` contract; the counters are atomics and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout`, unchanged, meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (every allocation here forwards
        // to it) with this same `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `ptr` (allocated by `System` through this
        // allocator), `layout` and `new_size`, unchanged, meet `realloc`'s
        // contract.
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
    let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();

    // Warm-up: the first steps size the live-arc rows and may still grow
    // workspace capacities (the measured windows below each quiesce
    // before counting).
    for _ in 0..10 {
        alg.step();
    }

    let stray = allocations_in("steps", || {
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
    // into existing storage. A restore flags an outside write — every
    // live-arc row rebuilt, Γ over every router, the node totals zeroed
    // full width — and that step must be allocation-free too.
    let mut ck = spn::core::Checkpoint::new();
    alg.checkpoint_into(&mut ck); // cold capture allocates, outside the window
    let stray = allocations_in("checkpoint cycle", || {
        for _ in 0..20 {
            alg.checkpoint_into(&mut ck);
            alg.step(); // full walk after the outside write
            alg.step(); // warm iteration
            alg.restore(&ck).expect("shapes match");
        }
    });
    assert_eq!(
        stray, 0,
        "warm checkpoint/restore allocated {stray} times over 20 cycles"
    );
    assert!(alg.report().utility > 0.0);

    // The admission phase: its incumbent totals and row snapshot live
    // in the workspace, sized by the first phase and reused after. The
    // last commodity goes back to its fully rejecting row (outside the
    // window), and each cycle restores that state and settles it again.
    let last = spn::model::CommodityId::from_index(alg.extended().num_commodities() - 1);
    let mut routing = alg.routing().clone();
    let initial = spn::core::RoutingTable::initial(alg.extended());
    for &l in alg.extended().commodity_edges(last) {
        routing.set_fraction(last, l, initial.fraction(last, l));
    }
    alg.install_routing(routing);
    alg.checkpoint_into(&mut ck);
    assert!(alg.settle_newcomer(last) > 0, "the phase refused");
    let stray = allocations_in("admission phase", || {
        for _ in 0..3 {
            alg.restore(&ck).expect("shapes match");
            alg.settle_newcomer(last);
            alg.step();
        }
    });
    assert_eq!(
        stray, 0,
        "a warm admission phase allocated {stray} times over 3 phases"
    );

    // The Newton row rule adds the curvature rows, sized by its first
    // step and reused after.
    let cfg = GradientConfig {
        eta: 0.5,
        ..GradientConfig::default()
    };
    let mut newton = NewtonGradient::new(&problem, cfg, 1e-6).unwrap();
    for _ in 0..10 {
        newton.step();
    }
    let stray = allocations_in("newton steps", || {
        for _ in 0..50 {
            newton.step();
        }
    });
    assert_eq!(
        stray, 0,
        "steady-state Newton step() allocated {stray} times over 50 iterations"
    );
}
