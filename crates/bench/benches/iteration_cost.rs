//! B1 — per-iteration CPU cost of the gradient algorithm vs the
//! back-pressure baseline as the *commodity count* grows (the axis the
//! per-commodity iteration core scales along; `bench_core` covers the
//! node axis). The paper argues about *message* cost per iteration;
//! this bench adds the compute side.
//!
//! Each algorithm instance is constructed (and warmed to steady state)
//! **once, outside the bench closure**, then reused across every
//! Criterion sample: rebuilding per sample would fold the extended-
//! network build and the cold-start workspace growth into the measured
//! steady-state iteration time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spn_baseline::{BackPressure, BackPressureConfig};
use spn_bench::small_instance;
use spn_core::{GradientAlgorithm, GradientConfig};
use std::hint::black_box;

fn bench_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("iteration_cost");
    for &commodities in &[3usize, 8, 16] {
        let problem = small_instance(1, 40, commodities);

        // One algorithm for the whole benchmark: steady-state
        // iteration cost, not setup.
        let mut alg = GradientAlgorithm::new(&problem, GradientConfig::default()).unwrap();
        alg.run(50); // steady state
        group.bench_with_input(
            BenchmarkId::new("gradient", commodities),
            &problem,
            |b, _p| b.iter(|| black_box(alg.step())),
        );

        let mut bp = BackPressure::new(&problem, BackPressureConfig::default());
        bp.run(50);
        group.bench_with_input(
            BenchmarkId::new("back_pressure", commodities),
            &problem,
            |b, _p| {
                b.iter(|| {
                    bp.step();
                    black_box(bp.iterations())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_iterations);
criterion_main!(benches);
