//! Observer invariance: attaching *any* observer to an execution must not
//! change what the execution computes or what the engine accounts.
//!
//! For seeded instances of all eight schedule builders, at
//! `lookahead ∈ {0, 1, 2}`, this asserts that a replay through an
//! [`InstrumentedMachine`] — with a recording observer ([`TraceRecorder`])
//! and with the disabled one ([`NullObserver`]) — leaves
//!
//! 1. the slow-memory results **bitwise identical** to the unobserved
//!    replay,
//! 2. the [`IoStats`] equal field for field (volumes, events, prefetched
//!    elements, peak residency, per-phase split),
//! 3. the modelled [`TimeStats`] bitwise equal to the static
//!    [`modelled_time`] price (which `tests/wallclock_model.rs` pins to the
//!    [`LatencyMachine`] measurement) when recording, and exactly zero when
//!    disabled (the disabled path must not even run the clock).
//!
//! The parallel variant asserts the same for the traced parallel SYRK
//! against the unobserved one: bitwise results and placement-independent
//! totals. **Deviation from the serial sweep:** the parallel engine only
//! executes schedules whose task groups are independent, which in this
//! workspace means the SYRK-family partition schedules — so the parallel
//! invariance runs on those, not on all eight builders (Cholesky/LU/TRSM
//! schedules carry cross-group dependences and have no parallel mode).

use symla::matrix::generate;
use symla::prelude::*;
use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
};

/// One sweep case: a schedule, the capacity it was planned for and its
/// operands (insertion order = synthetic ids).
struct Case {
    name: &'static str,
    schedule: Schedule<f64>,
    capacity: usize,
    operands: Vec<Operand>,
}

#[derive(Clone, PartialEq)]
enum Operand {
    Dense(Matrix<f64>),
    Sym(SymMatrix<f64>),
}

fn sweep_cases() -> Vec<Case> {
    let (n, m, s) = (36, 6, 60);
    let a = generate::random_matrix_seeded::<f64>(n, m, 920);
    let c0 = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(921));
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let update_ops = vec![Operand::Dense(a), Operand::Sym(c0)];

    let mut cases = vec![
        Case {
            name: "TBS",
            schedule: tbs_schedule(&a_ref, &c_ref, -1.0, &TbsPlan::for_memory(s).unwrap()).unwrap(),
            capacity: s,
            operands: update_ops.clone(),
        },
        Case {
            name: "TBS(tiled)",
            schedule: tbs_schedule(&a_ref, &c_ref, 1.0, &TbsPlan::for_problem(s, n).unwrap())
                .unwrap(),
            capacity: s,
            operands: update_ops.clone(),
        },
        Case {
            name: "OOC_SYRK",
            schedule: ooc_syrk_schedule(&a_ref, &c_ref, 1.5, &OocSyrkPlan::for_memory(s).unwrap())
                .unwrap(),
            capacity: s,
            operands: update_ops,
        },
    ];

    let (gn, gb, gp, gs) = (20, 6, 10, 40);
    cases.push(Case {
        name: "OOC_GEMM",
        schedule: ooc_gemm_schedule(
            &PanelRef::dense(MatrixId::synthetic(0), gn, gb),
            &PanelRef::dense(MatrixId::synthetic(1), gb, gp),
            &PanelRef::dense(MatrixId::synthetic(2), gn, gp),
            2.0,
            &OocGemmPlan::for_memory(gs).unwrap(),
        )
        .unwrap(),
        capacity: gs,
        operands: vec![
            Operand::Dense(generate::random_matrix_seeded::<f64>(gn, gb, 922)),
            Operand::Dense(generate::random_matrix_seeded::<f64>(gb, gp, 923)),
            Operand::Dense(generate::random_matrix_seeded::<f64>(gn, gp, 924)),
        ],
    });

    let (fn_, fs) = (30, 40);
    let spd = generate::random_spd_seeded::<f64>(fn_, 925);
    let window = SymWindowRef::full(MatrixId::synthetic(0), fn_);
    cases.push(Case {
        name: "OOC_CHOL",
        schedule: ooc_chol_schedule(&window, &OocCholPlan::for_memory(fs).unwrap()),
        capacity: fs,
        operands: vec![Operand::Sym(spd.clone())],
    });
    cases.push(Case {
        name: "LBC",
        schedule: lbc_schedule(&window, &LbcPlan::for_problem(fn_, fs).unwrap()).unwrap(),
        capacity: fs,
        operands: vec![Operand::Sym(spd)],
    });

    let mut lu = generate::random_matrix_seeded::<f64>(18, 18, 926);
    for i in 0..18 {
        lu[(i, i)] += 18.0;
    }
    cases.push(Case {
        name: "OOC_LU",
        schedule: ooc_lu_schedule(
            &PanelRef::dense(MatrixId::synthetic(0), 18, 18),
            &OocLuPlan::for_memory(40).unwrap(),
        )
        .unwrap(),
        capacity: 40,
        operands: vec![Operand::Dense(lu)],
    });

    let (tm, tb, ts) = (12, 10, 40);
    let lfac = generate::random_lower_triangular::<f64>(tb, &mut generate::seeded_rng(927));
    let lsym = SymMatrix::from_lower_fn(tb, |i, j| lfac.get(i, j));
    cases.push(Case {
        name: "OOC_TRSM",
        schedule: ooc_trsm_schedule(
            &SymWindowRef::full(MatrixId::synthetic(0), tb),
            &PanelRef::dense(MatrixId::synthetic(1), tm, tb),
            &OocTrsmPlan::for_memory(ts).unwrap(),
        )
        .unwrap(),
        capacity: ts,
        operands: vec![
            Operand::Sym(lsym),
            Operand::Dense(generate::random_matrix_seeded::<f64>(tm, tb, 928)),
        ],
    });
    cases
}

fn fresh_machine(case: &Case) -> (OocMachine<f64>, Vec<MatrixId>) {
    let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    let ids = case
        .operands
        .iter()
        .map(|o| match o {
            Operand::Dense(m) => machine.insert_dense(m.clone()),
            Operand::Sym(s) => machine.insert_symmetric(s.clone()),
        })
        .collect();
    (machine, ids)
}

fn take_all(case: &Case, machine: &mut OocMachine<f64>, ids: &[MatrixId]) -> Vec<Operand> {
    ids.iter()
        .zip(&case.operands)
        .map(|(&id, op)| match op {
            Operand::Dense(_) => Operand::Dense(machine.take_dense(id).unwrap()),
            Operand::Sym(_) => Operand::Sym(machine.take_symmetric(id).unwrap()),
        })
        .collect()
}

/// Unobserved replay: final operands and stats.
fn run_plain(case: &Case, lookahead: usize) -> (Vec<Operand>, IoStats) {
    let (mut machine, ids) = fresh_machine(case);
    Engine::execute_with(
        &mut machine,
        &case.schedule,
        &EngineConfig::with_lookahead(lookahead),
    )
    .unwrap();
    let stats = machine.stats().clone();
    (take_all(case, &mut machine, &ids), stats)
}

/// Replay observed by `observer`: final operands, stats and the modelled
/// time the instrumentation accumulated.
fn run_observed<O: ExecutionObserver>(
    case: &Case,
    observer: O,
    model: MachineModel,
    lookahead: usize,
) -> (Vec<Operand>, IoStats, TimeStats) {
    let (inner, ids) = fresh_machine(case);
    let mut machine = InstrumentedMachine::new(inner, model, observer, 0);
    Engine::execute_with(
        &mut machine,
        &case.schedule,
        &EngineConfig::with_lookahead(lookahead),
    )
    .unwrap();
    let time = machine.time();
    let mut inner = machine.into_inner();
    let stats = inner.stats().clone();
    (take_all(case, &mut inner, &ids), stats, time)
}

#[test]
fn observation_changes_nothing_for_every_builder() {
    let model = MachineModel::nvme();
    for case in sweep_cases() {
        for lookahead in [0usize, 1, 2] {
            let ctx = format!("{} L={lookahead}", case.name);
            let (plain_out, plain_stats) = run_plain(&case, lookahead);

            let recorder = TraceRecorder::new();
            let (rec_out, rec_stats, rec_time) =
                run_observed(&case, recorder.clone(), model, lookahead);
            let trace = recorder.finish();
            assert!(rec_out == plain_out, "{ctx}: recorded result drifted");
            assert_eq!(rec_stats, plain_stats, "{ctx}: recorded stats drifted");
            assert!(!trace.is_empty(), "{ctx}: recorder saw no events");

            // The modelled clock the instrumentation keeps is the wall-clock
            // model itself, bitwise.
            let modelled = modelled_time(&case.schedule, &model, lookahead, Some(case.capacity));
            assert_eq!(rec_time.io_ns.to_bits(), modelled.io_ns.to_bits(), "{ctx}");
            assert_eq!(
                rec_time.compute_ns.to_bits(),
                modelled.compute_ns.to_bits(),
                "{ctx}"
            );
            assert_eq!(
                rec_time.hidden_ns.to_bits(),
                modelled.hidden_ns.to_bits(),
                "{ctx}"
            );
            assert_eq!(rec_time.groups, modelled.groups, "{ctx}");

            let (null_out, null_stats, null_time) =
                run_observed(&case, NullObserver, model, lookahead);
            assert!(null_out == plain_out, "{ctx}: disabled result drifted");
            assert_eq!(null_stats, plain_stats, "{ctx}: disabled stats drifted");
            assert_eq!(
                null_time.total_ns(),
                0.0,
                "{ctx}: disabled observer ran the clock"
            );
        }
    }
}

#[test]
fn parallel_observation_changes_nothing() {
    // Deviation from the serial sweep: the parallel engine executes only
    // independent-group schedules, i.e. the SYRK (and GEMM) plans — the
    // factorizations have no parallel mode to observe.
    let (n, m, s) = (40, 8, 12);
    let a = generate::random_matrix_seeded::<f64>(n, m, 930);
    let model = MachineModel::nvme();
    for algorithm in [SyrkAlgorithm::SquareBlocks, SyrkAlgorithm::Tbs] {
        for lookahead in [0usize, 2] {
            let ctx = format!("{} L={lookahead}", algorithm.name());
            let plain = RunOptions::new().workers(3).lookahead(lookahead);
            let mut plain_c = SymMatrix::zeros(n);
            let plain_run =
                syrk_out_of_core_with(&a, &mut plain_c, 1.0, s, algorithm, &plain).unwrap();

            let recorder = TraceRecorder::new();
            let traced = plain.clone().traced(&model, &recorder);
            let mut traced_c = SymMatrix::zeros(n);
            let traced_run =
                syrk_out_of_core_with(&a, &mut traced_c, 1.0, s, algorithm, &traced).unwrap();
            let trace = traced_run.trace.expect("a traced run returns its trace");

            assert!(traced_c == plain_c, "{ctx}: traced result drifted");
            // Which worker got which group is dynamic, but the volumes are
            // placement-independent.
            assert_eq!(
                traced_run.report.stats.volume, plain_run.report.stats.volume,
                "{ctx}"
            );
            assert!(!trace.is_empty(), "{ctx}: no events recorded");
            // Every claimed group opened and closed its span.
            let claims = trace.count(|k| matches!(k, EventKind::Claim { .. }));
            let starts = trace.count(|k| matches!(k, EventKind::GroupStart { .. }));
            let ends = trace.count(|k| matches!(k, EventKind::GroupEnd { .. }));
            assert_eq!(claims, starts, "{ctx}");
            assert_eq!(starts, ends, "{ctx}");
        }
    }
}
