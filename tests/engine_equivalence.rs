//! Engine-mode equivalence: for every one of the schedule builders, the
//! engine modes and the analytic cost models must agree.
//!
//! For seeded pseudo-random instances of each algorithm this asserts:
//!
//! 1. **dry-run = analytic cost** — `Engine::dry_run` of the built schedule
//!    reports exactly the loads/stores/flops of the `*_cost` model;
//! 2. **execute = dry-run** — executing the same schedule on a machine
//!    leaves machine counters identical to the dry run (including events,
//!    peak residency and per-phase attribution);
//! 3. **execute is correct** — the numerical result matches the in-memory
//!    reference kernels;
//! 4. **execute-parallel = execute** — for every schedule with independent
//!    task groups and P ∈ {1, 2, 4, 8}: the summed per-worker stats equal
//!    the serial dry run, each worker's stats equal the dry-run of exactly
//!    the groups it processed (the analytic per-worker model), and the
//!    computed matrices are bitwise-equal to the serial execution's; a
//!    single traced worker records the serial replay's event stream.

use symla::matrix::generate::{self, SeededRng};
use symla::prelude::*;
use symla_baselines::{
    ooc_chol_cost, ooc_chol_schedule, ooc_gemm_cost, ooc_gemm_schedule, ooc_lu_cost,
    ooc_lu_schedule, ooc_syrk_cost, ooc_syrk_schedule, ooc_trsm_cost, ooc_trsm_schedule,
};
use symla_core::engine::{Engine, Schedule, WorkerRun};
use symla_core::{lbc_schedule, tbs_schedule};
use symla_memory::{MachineConfig, SharedSlowMemory};

/// Runs a schedule on a machine and checks invariant 2.
fn check_execute_matches_dry_run<F>(
    schedule: &Schedule<f64>,
    setup: F,
    ctx: &str,
) -> OocMachine<f64>
where
    F: FnOnce(&mut OocMachine<f64>),
{
    let mut machine = OocMachine::new(MachineConfig::unlimited());
    setup(&mut machine);
    Engine::execute(&mut machine, schedule).unwrap();
    let dry = Engine::dry_run(schedule, "main");
    assert_eq!(machine.stats(), &dry, "{ctx}: execute vs dry-run stats");
    machine
}

#[test]
fn syrk_schedules_dry_run_matches_analytic_costs() {
    let mut rng = SeededRng::seed_from_u64(0x5EED);
    for case in 0..12 {
        let n = rng.gen_range(4usize..52);
        let m = rng.gen_range(1usize..20);
        let s = rng.gen_range(10usize..130);
        let ctx = format!("case {case}: n={n} m={m} s={s}");

        let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
        let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);

        let sq_plan = OocSyrkPlan::for_memory(s).unwrap();
        let schedule = ooc_syrk_schedule::<f64>(&a_ref, &c_ref, 1.0, &sq_plan).unwrap();
        let dry = IoEstimate::from_stats(&Engine::dry_run(&schedule, "main"));
        assert_eq!(dry, ooc_syrk_cost(n, m, &sq_plan), "{ctx}: OOC_SYRK");

        let tbs_plan = TbsPlan::for_memory(s).unwrap();
        let schedule = tbs_schedule::<f64>(&a_ref, &c_ref, 1.0, &tbs_plan).unwrap();
        let dry = IoEstimate::from_stats(&Engine::dry_run(&schedule, "main"));
        assert_eq!(dry, tbs_cost(n, m, &tbs_plan).unwrap(), "{ctx}: TBS");

        let tiled_plan = TbsPlan::for_problem(s, n).unwrap();
        let schedule = tbs_schedule::<f64>(&a_ref, &c_ref, 1.0, &tiled_plan).unwrap();
        let dry = IoEstimate::from_stats(&Engine::dry_run(&schedule, "main"));
        assert_eq!(
            dry,
            tbs_cost(n, m, &tiled_plan).unwrap(),
            "{ctx}: TBS(tiled)"
        );
    }
}

#[test]
fn factorization_schedules_dry_run_matches_analytic_costs() {
    let mut rng = SeededRng::seed_from_u64(0xFAC);
    for case in 0..12 {
        let n = rng.gen_range(4usize..44);
        let s = rng.gen_range(12usize..110);
        let ctx = format!("case {case}: n={n} s={s}");

        let window = SymWindowRef::full(MatrixId::synthetic(0), n);
        let chol_plan = OocCholPlan::for_memory(s).unwrap();
        let schedule = ooc_chol_schedule::<f64>(&window, &chol_plan);
        let dry = IoEstimate::from_stats(&Engine::dry_run(&schedule, "main"));
        assert_eq!(dry, ooc_chol_cost(n, &chol_plan), "{ctx}: OOC_CHOL");

        let lbc_plan = LbcPlan::for_problem(n, s).unwrap();
        let schedule = lbc_schedule::<f64>(&window, &lbc_plan).unwrap();
        let dry = IoEstimate::from_stats(&Engine::dry_run(&schedule, "main"));
        assert_eq!(dry, lbc_cost(n, &lbc_plan).unwrap(), "{ctx}: LBC");

        let square = PanelRef::dense(MatrixId::synthetic(0), n, n);
        let lu_plan = OocLuPlan::for_memory(s).unwrap();
        let schedule = ooc_lu_schedule::<f64>(&square, &lu_plan).unwrap();
        let dry = IoEstimate::from_stats(&Engine::dry_run(&schedule, "main"));
        assert_eq!(dry, ooc_lu_cost(n, &lu_plan), "{ctx}: OOC_LU");

        let b = rng.gen_range(2usize..18);
        let mrows = rng.gen_range(1usize..30);
        let l_ref = SymWindowRef::full(MatrixId::synthetic(0), b);
        let x_ref = PanelRef::dense(MatrixId::synthetic(1), mrows, b);
        let trsm_plan = OocTrsmPlan::for_memory(s).unwrap();
        let schedule = ooc_trsm_schedule::<f64>(&l_ref, &x_ref, &trsm_plan).unwrap();
        let dry = IoEstimate::from_stats(&Engine::dry_run(&schedule, "main"));
        assert_eq!(dry, ooc_trsm_cost(mrows, b, &trsm_plan), "{ctx}: OOC_TRSM");

        let p = rng.gen_range(1usize..24);
        let ga = PanelRef::dense(MatrixId::synthetic(0), n, b);
        let gb = PanelRef::dense(MatrixId::synthetic(1), b, p);
        let gc = PanelRef::dense(MatrixId::synthetic(2), n, p);
        let gemm_plan = OocGemmPlan::for_memory(s).unwrap();
        let schedule = ooc_gemm_schedule::<f64>(&ga, &gb, &gc, 1.0, &gemm_plan).unwrap();
        let dry = IoEstimate::from_stats(&Engine::dry_run(&schedule, "main"));
        assert_eq!(dry, ooc_gemm_cost(n, b, p, &gemm_plan), "{ctx}: OOC_GEMM");
    }
}

#[test]
fn lbc_phase_attribution_survives_dry_run() {
    let mut rng = SeededRng::seed_from_u64(0x9A5E);
    for case in 0..6 {
        let n = rng.gen_range(12usize..48);
        let s = rng.gen_range(10usize..64);
        let plan = LbcPlan::for_problem(n, s).unwrap();
        let window = SymWindowRef::full(MatrixId::synthetic(0), n);
        let schedule = lbc_schedule::<f64>(&window, &plan).unwrap();
        let dry = Engine::dry_run(&schedule, "main");
        let breakdown = lbc_cost_breakdown(n, &plan).unwrap();
        let ctx = format!("case {case}: n={n} s={s}");
        assert_eq!(
            breakdown.chol.loads,
            dry.phase(symla_core::lbc::PHASE_CHOL).loads as u128,
            "{ctx}: chol phase"
        );
        assert_eq!(
            breakdown.trsm.loads,
            dry.phase(symla_core::lbc::PHASE_TRSM).loads as u128,
            "{ctx}: trsm phase"
        );
        assert_eq!(
            breakdown.trailing.loads,
            dry.phase(symla_core::lbc::PHASE_TRAILING).loads as u128,
            "{ctx}: trailing phase"
        );
    }
}

#[test]
fn syrk_execute_equals_dry_run_trace_and_reference() {
    let mut rng = SeededRng::seed_from_u64(0xE0E);
    for case in 0..8 {
        let n = rng.gen_range(6usize..44);
        let m = rng.gen_range(1usize..16);
        let s = rng.gen_range(10usize..90);
        let seed = rng.gen_range(0usize..400) as u64;
        let ctx = format!("case {case}: n={n} m={m} s={s} seed={seed}");

        let a = generate::random_matrix_seeded::<f64>(n, m, seed);
        let c0 = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(seed + 1));
        let mut expected = c0.clone();
        kernels::syrk_sym(-1.0, &a, 1.0, &mut expected).unwrap();

        // Build the schedule against the ids the machine will hand out
        // (0 for the dense panel, 1 for the symmetric result).
        let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
        let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
        let plan = TbsPlan::for_memory(s).unwrap();
        let schedule = tbs_schedule::<f64>(&a_ref, &c_ref, -1.0, &plan).unwrap();

        let (a_clone, c_clone) = (a.clone(), c0.clone());
        let mut machine = check_execute_matches_dry_run(
            &schedule,
            move |machine| {
                machine.insert_dense(a_clone);
                machine.insert_symmetric(c_clone);
            },
            &ctx,
        );
        let got = machine.take_symmetric(MatrixId::synthetic(1)).unwrap();
        assert!(got.approx_eq(&expected, 1e-9), "{ctx}: result");
    }
}

#[test]
fn lbc_execute_equals_dry_run_trace_and_reference() {
    let mut rng = SeededRng::seed_from_u64(0xD1CE);
    for case in 0..6 {
        let n = rng.gen_range(8usize..40);
        let s = rng.gen_range(12usize..80);
        let seed = rng.gen_range(0usize..400) as u64;
        let ctx = format!("case {case}: n={n} s={s} seed={seed}");

        let a = generate::random_spd_seeded::<f64>(n, seed);
        let plan = LbcPlan::for_problem(n, s).unwrap();
        let window = SymWindowRef::full(MatrixId::synthetic(0), n);
        let schedule = lbc_schedule::<f64>(&window, &plan).unwrap();

        let a_clone = a.clone();
        let mut machine = check_execute_matches_dry_run(
            &schedule,
            move |machine| {
                machine.insert_symmetric(a_clone);
            },
            &ctx,
        );
        let got = machine.take_symmetric(MatrixId::synthetic(0)).unwrap();
        let l = LowerTriangular::from_lower_fn(n, |i, j| got.get(i, j));
        assert!(kernels::cholesky_residual(&a, &l) < 1e-8, "{ctx}: residual");
    }
}

/// An operand registered in slow memory for the parallel-equivalence checks
/// (ids are issued in insertion order, matching the synthetic ids the
/// schedules were built against).
#[derive(Clone)]
enum Operand {
    Dense(Matrix<f64>),
    Sym(SymMatrix<f64>),
}

impl Operand {
    fn insert_serial(&self, machine: &mut OocMachine<f64>) -> MatrixId {
        match self {
            Operand::Dense(m) => machine.insert_dense(m.clone()),
            Operand::Sym(s) => machine.insert_symmetric(s.clone()),
        }
    }

    fn insert_shared(&self, shared: &SharedSlowMemory<f64>) -> MatrixId {
        match self {
            Operand::Dense(m) => shared.insert_dense(m.clone()),
            Operand::Sym(s) => shared.insert_symmetric(s.clone()),
        }
    }
}

/// Checks invariant 4 of the module docs for one schedule: parallel
/// execution at P ∈ {1, 2, 4, 8} against the serial execution of the same
/// schedule on the same operands.
fn check_parallel_matches_serial(
    ctx: &str,
    schedule: &Schedule<f64>,
    capacity: usize,
    operands: &[Operand],
) {
    // Serial reference execution of the same schedule.
    let mut machine = OocMachine::new(MachineConfig::with_capacity(capacity));
    let ids: Vec<MatrixId> = operands
        .iter()
        .map(|o| o.insert_serial(&mut machine))
        .collect();
    Engine::execute(&mut machine, schedule).unwrap();
    let dry = Engine::dry_run(schedule, "main");
    assert_eq!(machine.stats(), &dry, "{ctx}: serial execute vs dry run");
    let serial_out: Vec<Operand> = ids
        .iter()
        .zip(operands)
        .map(|(&id, op)| match op {
            Operand::Dense(_) => Operand::Dense(machine.take_dense(id).unwrap()),
            Operand::Sym(_) => Operand::Sym(machine.take_symmetric(id).unwrap()),
        })
        .collect();

    let (model, recorder) = (MachineModel::dram(), TraceRecorder::new());
    for workers in [1usize, 2, 4, 8] {
        let shared = SharedSlowMemory::new();
        let ids: Vec<MatrixId> = operands.iter().map(|o| o.insert_shared(&shared)).collect();
        let config = MachineConfig::with_capacity(capacity);
        // A single worker runs traced.
        let runs = if workers == 1 {
            let engine = EngineConfig::default();
            Engine::execute_parallel_traced(
                &shared, schedule, 1, config, "main", &engine, &model, &recorder,
            )
        } else {
            Engine::execute_parallel(&shared, schedule, workers, config, "main")
        }
        .unwrap_or_else(|e| panic!("{ctx} P={workers}: {e}"));
        assert_eq!(runs.len(), workers, "{ctx} P={workers}");

        // Every group ran exactly once, and the summed per-worker stats
        // equal the serial dry run of the whole schedule.
        let mut all: Vec<usize> = runs.iter().flat_map(|r| r.groups.clone()).collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..schedule.num_groups()).collect::<Vec<_>>(),
            "{ctx} P={workers}: group coverage"
        );
        let merged = WorkerRun::merged_stats(&runs);
        assert_eq!(
            merged, dry,
            "{ctx} P={workers}: summed worker stats vs serial dry run"
        );

        // The merged peak is the busiest single fast memory (a per-worker
        // max) — NOT the fleet-wide concurrent residency, which is bounded
        // above by the sum of per-worker peaks. The bound collapses to the
        // merged peak only when one worker did all the work.
        let aggregate = WorkerRun::aggregate_peak(&runs);
        assert!(
            aggregate >= merged.peak_resident,
            "{ctx} P={workers}: aggregate {aggregate} < merged {}",
            merged.peak_resident
        );
        assert!(
            aggregate <= workers * merged.peak_resident,
            "{ctx} P={workers}: aggregate {aggregate} exceeds P * busiest"
        );
        if workers == 1 {
            assert_eq!(aggregate, merged.peak_resident, "{ctx}");
        }

        // Each worker's observed I/O equals the analytic per-worker model:
        // the dry run of exactly the groups it processed.
        for (w, run) in runs.iter().enumerate() {
            let picked = Schedule {
                groups: run
                    .groups
                    .iter()
                    .map(|&g| schedule.groups[g].clone())
                    .collect(),
            };
            assert_eq!(
                run.stats,
                Engine::dry_run(&picked, "main"),
                "{ctx} P={workers}: worker {w} observed vs analytic"
            );
        }

        // A single worker claims the groups in order: apart from its claims
        // it records the event stream of the serial replay.
        if workers == 1 {
            let kinds = |trace: RunTrace| -> Vec<EventKind> {
                let events = trace.events().iter().map(|e| e.kind);
                events
                    .filter(|k| !matches!(k, EventKind::Claim { .. }))
                    .collect()
            };
            assert_eq!(
                kinds(recorder.finish()),
                kinds(modelled_run_trace(schedule, &model, 0, None)),
                "{ctx}: single-worker trace vs serial replay"
            );
        }

        // The computed matrices are bitwise-equal to the serial execution.
        for ((&id, out), op) in ids.iter().zip(&serial_out).zip(operands) {
            match (out, op) {
                (Operand::Dense(expected), Operand::Dense(_)) => {
                    let got = shared.take_dense(id).unwrap();
                    assert!(got == *expected, "{ctx} P={workers}: dense result m{id:?}");
                }
                (Operand::Sym(expected), Operand::Sym(_)) => {
                    let got = shared.take_symmetric(id).unwrap();
                    assert!(got == *expected, "{ctx} P={workers}: sym result m{id:?}");
                }
                _ => unreachable!("operand kinds are stable"),
            }
        }
    }
}

#[test]
fn parallel_execution_matches_serial_for_all_grouped_schedules() {
    let (n, m, s) = (36, 6, 12);
    let a = generate::random_matrix_seeded::<f64>(n, m, 21);
    let c0 = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(22));
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let update_operands = [Operand::Dense(a.clone()), Operand::Sym(c0.clone())];

    let sq_plan = OocSyrkPlan::for_memory(s).unwrap();
    let schedule = ooc_syrk_schedule::<f64>(&a_ref, &c_ref, 1.5, &sq_plan).unwrap();
    assert!(schedule.num_groups() > 1);
    check_parallel_matches_serial("OOC_SYRK", &schedule, s, &update_operands);

    let tbs_plan = TbsPlan::for_memory(s).unwrap();
    let schedule = tbs_schedule::<f64>(&a_ref, &c_ref, -1.0, &tbs_plan).unwrap();
    assert!(schedule.num_groups() > 1);
    check_parallel_matches_serial("TBS", &schedule, s, &update_operands);

    let tiled_plan = TbsPlan::for_problem(s, n).unwrap();
    let schedule = tbs_schedule::<f64>(&a_ref, &c_ref, 1.0, &tiled_plan).unwrap();
    assert!(schedule.num_groups() > 1);
    check_parallel_matches_serial("TBS(tiled)", &schedule, s, &update_operands);

    // GEMM: three dense operands, one group per C tile.
    let (gn, gb, gp, gs) = (20, 6, 10, 30);
    let ga = generate::random_matrix_seeded::<f64>(gn, gb, 23);
    let gbm = generate::random_matrix_seeded::<f64>(gb, gp, 24);
    let gc = generate::random_matrix_seeded::<f64>(gn, gp, 25);
    let ga_ref = PanelRef::dense(MatrixId::synthetic(0), gn, gb);
    let gb_ref = PanelRef::dense(MatrixId::synthetic(1), gb, gp);
    let gc_ref = PanelRef::dense(MatrixId::synthetic(2), gn, gp);
    let gemm_plan = OocGemmPlan::for_memory(gs).unwrap();
    let schedule = ooc_gemm_schedule::<f64>(&ga_ref, &gb_ref, &gc_ref, 2.0, &gemm_plan).unwrap();
    assert!(schedule.num_groups() > 1);
    check_parallel_matches_serial(
        "OOC_GEMM",
        &schedule,
        gs,
        &[Operand::Dense(ga), Operand::Dense(gbm), Operand::Dense(gc)],
    );
}

#[test]
fn schedules_expose_their_structure() {
    // A TBS schedule at an engaged size has one task group per triangle
    // block / square tile, and the group volumes sum to the cost model.
    let (n, m, s) = (30, 6, 10);
    let plan = TbsPlan::for_memory(s).unwrap();
    assert!(plan.applicable(n));
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let schedule = tbs_schedule::<f64>(&a_ref, &c_ref, 1.0, &plan).unwrap();
    assert!(schedule.num_groups() > 1, "expected one group per block");

    let est = tbs_cost(n, m, &plan).unwrap();
    let loaded: u64 = schedule.groups.iter().map(|g| g.loaded_elements()).sum();
    let stored: u64 = schedule.groups.iter().map(|g| g.stored_elements()).sum();
    assert_eq!(loaded as u128, est.loads);
    assert_eq!(stored as u128, est.stores);
}
