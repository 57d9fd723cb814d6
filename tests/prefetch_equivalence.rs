//! Prefetch-mode equivalence: the double-buffered engine must change *when*
//! data moves, never *what* is computed or *how much* moves.
//!
//! For seeded instances of all eight schedule builders this asserts, at
//! `lookahead ∈ {0, 1, 2}`:
//!
//! 1. **bitwise results** — a prefetching execution leaves slow memory
//!    bitwise-identical to the plain (`lookahead = 0`) execution;
//! 2. **execute = dry-run** — the machine's counters after
//!    `Engine::execute_with` equal `Engine::dry_run_with` at the same
//!    config and capacity;
//! 3. **capacity** — peak residency never exceeds the machine capacity `S`
//!    the schedule was planned for, at any lookahead;
//! 4. **volumes are invariant** — loads/stores/events/flops and the
//!    per-phase split are identical at every lookahead; only the
//!    stalled/overlapped split moves;
//! 5. **monotonicity** — the stalled-load volume is non-increasing as the
//!    lookahead grows (more lookahead can only overlap more);
//! 6. **positive overlap** — tiled TBS and OOC-GEMM (the paper's
//!    update-style kernels, whose groups leave slack) show strictly
//!    positive modelled overlap already at `lookahead = 1`;
//! 7. **parallel** — for the independent-group schedules, the pipelined
//!    `execute_parallel_with` at `workers ∈ {1, 4}` reproduces the serial
//!    results bitwise with every worker within capacity.

use symla::matrix::generate::{self, SeededRng};
use symla::prelude::*;
use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
};
use symla_core::engine::{Engine, Schedule, WorkerRun};
use symla_memory::SharedSlowMemory;

/// One sweep case: a schedule, the capacity it was planned for, its
/// slow-memory operands (insertion order = synthetic ids) and whether its
/// groups are independent (parallel-legal).
struct Case {
    name: String,
    schedule: Schedule<f64>,
    capacity: usize,
    operands: Vec<Operand>,
    parallel_ok: bool,
}

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

    fn take_serial(&self, machine: &mut OocMachine<f64>, id: MatrixId) -> Operand {
        match self {
            Operand::Dense(_) => Operand::Dense(machine.take_dense(id).unwrap()),
            Operand::Sym(_) => Operand::Sym(machine.take_symmetric(id).unwrap()),
        }
    }

    fn take_shared(&self, shared: &SharedSlowMemory<f64>, id: MatrixId) -> Operand {
        match self {
            Operand::Dense(_) => Operand::Dense(shared.take_dense(id).unwrap()),
            Operand::Sym(_) => Operand::Sym(shared.take_symmetric(id).unwrap()),
        }
    }

    fn bitwise_eq(&self, other: &Operand) -> bool {
        match (self, other) {
            (Operand::Dense(a), Operand::Dense(b)) => a == b,
            (Operand::Sym(a), Operand::Sym(b)) => a == b,
            _ => false,
        }
    }
}

/// Builds the seeded sweep: one instance of each of the eight builders.
fn sweep_cases(rng: &mut SeededRng) -> Vec<Case> {
    let seed = rng.gen_range(0usize..1000) as u64;
    let (n, m, s) = (36, 6, 60);
    let a = generate::random_matrix_seeded::<f64>(n, m, seed);
    let c0 = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(seed + 1));
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let update_ops = vec![Operand::Dense(a.clone()), Operand::Sym(c0.clone())];

    let mut cases = vec![
        Case {
            name: "OOC_SYRK".into(),
            schedule: ooc_syrk_schedule(&a_ref, &c_ref, 1.5, &OocSyrkPlan::for_memory(s).unwrap())
                .unwrap(),
            capacity: s,
            operands: update_ops.clone(),
            parallel_ok: true,
        },
        Case {
            name: "TBS".into(),
            schedule: tbs_schedule(&a_ref, &c_ref, -1.0, &TbsPlan::for_memory(s).unwrap()).unwrap(),
            capacity: s,
            operands: update_ops.clone(),
            parallel_ok: true,
        },
        Case {
            name: "TBS(tiled)".into(),
            schedule: tbs_schedule(&a_ref, &c_ref, 1.0, &TbsPlan::for_problem(s, n).unwrap())
                .unwrap(),
            capacity: s,
            operands: update_ops.clone(),
            parallel_ok: true,
        },
    ];

    // GEMM: three dense operands, one group per C tile.
    let (gn, gb, gp, gs) = (20, 6, 10, 40);
    let ga = generate::random_matrix_seeded::<f64>(gn, gb, seed + 2);
    let gbm = generate::random_matrix_seeded::<f64>(gb, gp, seed + 3);
    let gc = generate::random_matrix_seeded::<f64>(gn, gp, seed + 4);
    cases.push(Case {
        name: "OOC_GEMM".into(),
        schedule: ooc_gemm_schedule(
            &PanelRef::dense(MatrixId::synthetic(0), gn, gb),
            &PanelRef::dense(MatrixId::synthetic(1), gb, gp),
            &PanelRef::dense(MatrixId::synthetic(2), gn, gp),
            2.0,
            &OocGemmPlan::for_memory(gs).unwrap(),
        )
        .unwrap(),
        capacity: gs,
        operands: vec![Operand::Dense(ga), Operand::Dense(gbm), Operand::Dense(gc)],
        parallel_ok: true,
    });

    // The factorizations and the solve: groups ordered through slow memory,
    // serial only.
    let (fn_, fs) = (30, 40);
    let spd = generate::random_spd_seeded::<f64>(fn_, seed + 5);
    let window = SymWindowRef::full(MatrixId::synthetic(0), fn_);
    cases.push(Case {
        name: "OOC_CHOL".into(),
        schedule: ooc_chol_schedule(&window, &OocCholPlan::for_memory(fs).unwrap()),
        capacity: fs,
        operands: vec![Operand::Sym(spd.clone())],
        parallel_ok: false,
    });
    cases.push(Case {
        name: "LBC".into(),
        schedule: lbc_schedule(&window, &LbcPlan::paper(fn_, fs).unwrap()).unwrap(),
        capacity: fs,
        operands: vec![Operand::Sym(spd)],
        parallel_ok: false,
    });

    let mut lu = generate::random_matrix_seeded::<f64>(18, 18, seed + 6);
    for i in 0..18 {
        lu[(i, i)] += 18.0;
    }
    cases.push(Case {
        name: "OOC_LU".into(),
        schedule: ooc_lu_schedule(
            &PanelRef::dense(MatrixId::synthetic(0), 18, 18),
            &OocLuPlan::for_memory(40).unwrap(),
        )
        .unwrap(),
        capacity: 40,
        operands: vec![Operand::Dense(lu)],
        parallel_ok: false,
    });

    let (tm, tb, ts) = (12, 10, 40);
    let mut trng = generate::seeded_rng(seed + 7);
    let lfac = generate::random_lower_triangular::<f64>(tb, &mut trng);
    let lsym = SymMatrix::from_lower_fn(tb, |i, j| lfac.get(i, j));
    let x = generate::random_matrix_seeded::<f64>(tm, tb, seed + 8);
    cases.push(Case {
        name: "OOC_TRSM".into(),
        schedule: ooc_trsm_schedule(
            &SymWindowRef::full(MatrixId::synthetic(0), tb),
            &PanelRef::dense(MatrixId::synthetic(1), tm, tb),
            &OocTrsmPlan::for_memory(ts).unwrap(),
        )
        .unwrap(),
        capacity: ts,
        operands: vec![Operand::Sym(lsym), Operand::Dense(x)],
        parallel_ok: false,
    });
    cases
}

/// Serial execution of a case at one lookahead, returning the final
/// operands and the machine's stats.
fn run_serial(case: &Case, lookahead: usize) -> (Vec<Operand>, IoStats) {
    let config = EngineConfig::with_lookahead(lookahead);
    let mut machine = OocMachine::new(MachineConfig::with_capacity(case.capacity));
    let ids: Vec<MatrixId> = case
        .operands
        .iter()
        .map(|o| o.insert_serial(&mut machine))
        .collect();
    Engine::execute_with(&mut machine, &case.schedule, &config).unwrap();

    let dry = Engine::dry_run_with(&case.schedule, "main", &config, Some(case.capacity));
    assert_eq!(
        machine.stats(),
        &dry,
        "{} L={lookahead}: execute vs dry-run",
        case.name
    );

    let stats = machine.stats().clone();
    let out = ids
        .iter()
        .zip(&case.operands)
        .map(|(&id, op)| op.take_serial(&mut machine, id))
        .collect();
    (out, stats)
}

#[test]
fn prefetch_sweep_all_builders_serial() {
    let mut rng = SeededRng::seed_from_u64(0xF00D);
    for case in sweep_cases(&mut rng) {
        let (baseline, plain) = run_serial(&case, 0);
        assert_eq!(plain.prefetched_elements, 0, "{}", case.name);
        let mut prev_stalled = plain.stalled_loads();
        for lookahead in [1usize, 2] {
            let (out, stats) = run_serial(&case, lookahead);
            let ctx = format!("{} L={lookahead}", case.name);

            // 1. bitwise results
            for (got, want) in out.iter().zip(&baseline) {
                assert!(got.bitwise_eq(want), "{ctx}: result drifted");
            }
            // 3. capacity
            assert!(
                stats.peak_resident <= case.capacity,
                "{ctx}: peak {} exceeds S={}",
                stats.peak_resident,
                case.capacity
            );
            // 4. volumes invariant
            assert_eq!(stats.volume, plain.volume, "{ctx}");
            assert_eq!(stats.load_events, plain.load_events, "{ctx}");
            assert_eq!(stats.store_events, plain.store_events, "{ctx}");
            assert_eq!(stats.flops, plain.flops, "{ctx}");
            assert_eq!(stats.per_phase, plain.per_phase, "{ctx}");
            // 5. monotone non-increasing stalled loads
            assert!(
                stats.stalled_loads() <= prev_stalled,
                "{ctx}: stalled {} grew past {}",
                stats.stalled_loads(),
                prev_stalled
            );
            prev_stalled = stats.stalled_loads();
            // 6. the update kernels overlap for real at lookahead >= 1
            if matches!(case.name.as_str(), "TBS(tiled)" | "OOC_GEMM") {
                assert!(
                    stats.prefetched_elements > 0,
                    "{ctx}: expected strictly positive overlap"
                );
            }
        }
    }
}

#[test]
fn prefetch_sweep_parallel_matches_serial() {
    let mut rng = SeededRng::seed_from_u64(0xFE7C);
    for case in sweep_cases(&mut rng) {
        if !case.parallel_ok {
            continue;
        }
        let (baseline, plain) = run_serial(&case, 0);
        for workers in [1usize, 4] {
            for lookahead in [0usize, 1, 2] {
                let shared = SharedSlowMemory::new();
                let ids: Vec<MatrixId> = case
                    .operands
                    .iter()
                    .map(|o| o.insert_shared(&shared))
                    .collect();
                let runs = Engine::execute_parallel_with(
                    &shared,
                    &case.schedule,
                    workers,
                    MachineConfig::with_capacity(case.capacity),
                    "main",
                    &EngineConfig::with_lookahead(lookahead),
                )
                .unwrap();
                let ctx = format!("{} P={workers} L={lookahead}", case.name);

                let merged = WorkerRun::merged_stats(&runs);
                assert_eq!(merged.volume, plain.volume, "{ctx}");
                assert_eq!(merged.flops, plain.flops, "{ctx}");
                for (w, run) in runs.iter().enumerate() {
                    assert!(
                        run.stats.peak_resident <= case.capacity,
                        "{ctx}: worker {w} peak {} exceeds S",
                        run.stats.peak_resident
                    );
                }
                // the busiest single fast memory never exceeds the fleet sum
                assert!(
                    WorkerRun::aggregate_peak(&runs) >= merged.peak_resident,
                    "{ctx}"
                );
                if lookahead == 0 {
                    assert_eq!(merged.prefetched_elements, 0, "{ctx}");
                }

                for (&id, want) in ids.iter().zip(&baseline) {
                    let got = want.take_shared(&shared, id);
                    assert!(got.bitwise_eq(want), "{ctx}: result drifted");
                }
            }
        }
    }
}
