//! Wall-clock scaling of the parallel SYRK extension (experiment E12).
//!
//! Each iteration really executes the SYRK schedule on `P` workers
//! ([`RunOptions::workers`]; `P = 1` is the serial replay): the workers move
//! every region through the shared slow memory and run the block kernels on
//! their private fast memories, so these timings measure the execution
//! engine, not just the planner.
//!
//! Note on scaling: the simulated slow memory is a single lock — the
//! model's one channel to slow memory — so gather/scatter serializes and
//! wall-clock speedup is bounded by the compute fraction. The quantity the
//! paper's parallel analysis constrains is the per-worker *communication
//! volume*, which E12 tabulates.

use symla_bench::harness::{BenchmarkId, Criterion};
use symla_bench::{criterion_group, criterion_main};
use symla_core::api::{syrk_out_of_core_with, RunOptions, SyrkAlgorithm};
use symla_matrix::generate;
use symla_matrix::{Matrix, SymMatrix};

fn bench_workers(c: &mut Criterion) {
    let n = 192;
    let m = 48;
    let s = 15;
    let a: Matrix<f64> = generate::random_matrix_seeded(n, m, 9);

    let mut group = c.benchmark_group("parallel syrk (N=192, M=48, S/worker=15)");
    group.sample_size(10);
    for &workers in &[1_usize, 2, 4, 8] {
        for algorithm in [SyrkAlgorithm::SquareBlocks, SyrkAlgorithm::Tbs] {
            let options = RunOptions::new().workers(workers);
            group.bench_with_input(
                BenchmarkId::new(algorithm.name(), workers),
                &workers,
                |b, _| {
                    b.iter(|| {
                        let mut c = SymMatrix::<f64>::zeros(n);
                        syrk_out_of_core_with(&a, &mut c, 1.0, s, algorithm, &options).unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_workers);
criterion_main!(benches);
