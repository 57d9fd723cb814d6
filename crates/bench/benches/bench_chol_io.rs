//! Wall-clock of the out-of-core Cholesky schedules running inside the
//! machine model (experiments E3/E10).

use symla_baselines::{ooc_chol_execute, OocCholPlan};
use symla_bench::harness::{BenchmarkId, Criterion};
use symla_bench::{criterion_group, criterion_main};
use symla_core::{lbc_cost, lbc_execute, LbcPlan, TrailingUpdate};
use symla_matrix::generate;
use symla_matrix::SymMatrix;
use symla_memory::{OocMachine, SymWindowRef};

const S: usize = 36;

fn run_bereux(a: &SymMatrix<f64>) -> u64 {
    let n = a.order();
    let plan = OocCholPlan::for_memory(S).unwrap();
    let mut machine = OocMachine::with_capacity(S);
    let id = machine.insert_symmetric(a.clone());
    ooc_chol_execute(&mut machine, &SymWindowRef::full(id, n), &plan).unwrap();
    machine.stats().volume.loads
}

fn run_lbc(a: &SymMatrix<f64>, trailing: TrailingUpdate) -> u64 {
    let n = a.order();
    let plan = LbcPlan::paper(n, S).unwrap().with_trailing(trailing);
    let mut machine = OocMachine::with_capacity(S);
    let id = machine.insert_symmetric(a.clone());
    lbc_execute(&mut machine, &SymWindowRef::full(id, n), &plan).unwrap();
    machine.stats().volume.loads
}

fn bench_out_of_core_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("out-of-core cholesky (S = 36)");
    group.sample_size(10);
    for &n in &[96_usize, 160] {
        let a = generate::random_spd_seeded::<f64>(n, n as u64);
        group.bench_with_input(BenchmarkId::new("OOC_CHOL", n), &n, |b, _| {
            b.iter(|| run_bereux(&a))
        });
        group.bench_with_input(BenchmarkId::new("LBC", n), &n, |b, _| {
            b.iter(|| run_lbc(&a, TrailingUpdate::Tbs))
        });
        group.bench_with_input(BenchmarkId::new("LBC(square)", n), &n, |b, _| {
            b.iter(|| run_lbc(&a, TrailingUpdate::OocSyrk))
        });
    }
    group.finish();
}

fn bench_lbc_cost_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky analytic cost models");
    for &n in &[2048_usize, 4096] {
        let plan = LbcPlan::paper(n, S).unwrap();
        group.bench_with_input(BenchmarkId::new("LBC cost", n), &n, |b, &n| {
            b.iter(|| lbc_cost(n, &plan).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_out_of_core_cholesky, bench_lbc_cost_model);
criterion_main!(benches);
