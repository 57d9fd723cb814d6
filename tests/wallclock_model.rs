//! Wall-clock model equivalence: the static price of a schedule must be the
//! time a latency-modelled execution actually measures — bitwise.
//!
//! For seeded instances of all eight schedule builders this asserts, at
//! `lookahead ∈ {0, 1, 2}` under both machine-model presets:
//!
//! 1. **model = measurement** — [`modelled_time`] on the schedule equals the
//!    [`LatencyMachine`]'s measured [`TimeStats`] with `f64::to_bits`
//!    equality on every component (io / compute / hidden) and the same
//!    window count;
//! 2. **bitwise results** — wrapping the machine in a `LatencyMachine`
//!    changes no numerical output: slow memory after the timed run is
//!    bitwise-identical to the plain (`lookahead = 0`) run;
//! 3. **monotone wall-clock** — the modelled total never increases with the
//!    lookahead (prefetch may only hide I/O, never add any);
//! 4. **positive speedup** — tiled TBS and OOC-GEMM (the update-style
//!    kernels, whose groups leave slack) hide strictly positive time
//!    already at `lookahead = 1`;
//! 5. **timed API** — priced runs (`RunOptions::priced`) report
//!    `WallClock::consistent()` and reproduce the untimed results.

use symla::matrix::generate;
use symla::prelude::*;
use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
};

/// One sweep case: a schedule, the capacity it was planned for, its operands
/// (insertion order = synthetic ids) and whether the acceptance gate demands
/// strictly positive hidden time at `lookahead = 1`.
struct Case {
    name: &'static str,
    schedule: Schedule<f64>,
    capacity: usize,
    operands: Vec<Operand>,
    must_hide: bool,
}

#[derive(Clone, PartialEq)]
enum Operand {
    Dense(Matrix<f64>),
    Sym(SymMatrix<f64>),
}

fn sweep_cases() -> Vec<Case> {
    let (n, m, s) = (36, 6, 60);
    let a = generate::random_matrix_seeded::<f64>(n, m, 900);
    let c0 = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(901));
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let update_ops = vec![Operand::Dense(a), Operand::Sym(c0)];

    let mut cases = vec![
        Case {
            name: "TBS",
            schedule: tbs_schedule(&a_ref, &c_ref, -1.0, &TbsPlan::for_memory(s).unwrap()).unwrap(),
            capacity: s,
            operands: update_ops.clone(),
            must_hide: false,
        },
        Case {
            name: "TBS(tiled)",
            schedule: tbs_schedule(&a_ref, &c_ref, 1.0, &TbsPlan::for_problem(s, n).unwrap())
                .unwrap(),
            capacity: s,
            operands: update_ops.clone(),
            must_hide: true,
        },
        Case {
            name: "OOC_SYRK",
            schedule: ooc_syrk_schedule(&a_ref, &c_ref, 1.5, &OocSyrkPlan::for_memory(s).unwrap())
                .unwrap(),
            capacity: s,
            operands: update_ops,
            must_hide: false,
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
            Operand::Dense(generate::random_matrix_seeded::<f64>(gn, gb, 902)),
            Operand::Dense(generate::random_matrix_seeded::<f64>(gb, gp, 903)),
            Operand::Dense(generate::random_matrix_seeded::<f64>(gn, gp, 904)),
        ],
        must_hide: true,
    });

    let (fn_, fs) = (30, 40);
    let spd = generate::random_spd_seeded::<f64>(fn_, 905);
    let window = SymWindowRef::full(MatrixId::synthetic(0), fn_);
    cases.push(Case {
        name: "OOC_CHOL",
        schedule: ooc_chol_schedule(&window, &OocCholPlan::for_memory(fs).unwrap()),
        capacity: fs,
        operands: vec![Operand::Sym(spd.clone())],
        must_hide: false,
    });
    cases.push(Case {
        name: "LBC",
        schedule: lbc_schedule(&window, &LbcPlan::paper(fn_, fs).unwrap()).unwrap(),
        capacity: fs,
        operands: vec![Operand::Sym(spd)],
        must_hide: false,
    });

    let mut lu = generate::random_matrix_seeded::<f64>(18, 18, 906);
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
        must_hide: false,
    });

    let (tm, tb, ts) = (12, 10, 40);
    let lfac = generate::random_lower_triangular::<f64>(tb, &mut generate::seeded_rng(907));
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
            Operand::Dense(generate::random_matrix_seeded::<f64>(tm, tb, 908)),
        ],
        must_hide: false,
    });
    cases
}

/// Executes the case at one lookahead inside a [`LatencyMachine`], returning
/// the final operands and the measured time.
fn run_timed(case: &Case, model: MachineModel, lookahead: usize) -> (Vec<Operand>, TimeStats) {
    let config = EngineConfig::with_lookahead(lookahead);
    let mut machine = LatencyMachine::new(
        OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity)),
        model,
    );
    let ids: Vec<MatrixId> = case
        .operands
        .iter()
        .map(|o| match o {
            Operand::Dense(m) => machine.inner_mut().insert_dense(m.clone()),
            Operand::Sym(s) => machine.inner_mut().insert_symmetric(s.clone()),
        })
        .collect();
    Engine::execute_with(&mut machine, &case.schedule, &config).unwrap();
    let time = machine.time();
    let mut inner = machine.into_inner();
    let out = ids
        .iter()
        .zip(&case.operands)
        .map(|(&id, op)| match op {
            Operand::Dense(_) => Operand::Dense(inner.take_dense(id).unwrap()),
            Operand::Sym(_) => Operand::Sym(inner.take_symmetric(id).unwrap()),
        })
        .collect();
    (out, time)
}

fn assert_time_eq(measured: &TimeStats, modelled: &TimeStats, ctx: &str) {
    assert_eq!(
        measured.io_ns.to_bits(),
        modelled.io_ns.to_bits(),
        "{ctx}: io_ns {} vs {}",
        measured.io_ns,
        modelled.io_ns
    );
    assert_eq!(
        measured.compute_ns.to_bits(),
        modelled.compute_ns.to_bits(),
        "{ctx}: compute_ns {} vs {}",
        measured.compute_ns,
        modelled.compute_ns
    );
    assert_eq!(
        measured.hidden_ns.to_bits(),
        modelled.hidden_ns.to_bits(),
        "{ctx}: hidden_ns {} vs {}",
        measured.hidden_ns,
        modelled.hidden_ns
    );
    assert_eq!(measured.groups, modelled.groups, "{ctx}: window count");
}

#[test]
fn model_equals_measurement_for_every_builder() {
    for model in [MachineModel::dram(), MachineModel::nvme()] {
        for case in sweep_cases() {
            let (baseline, plain) = run_timed(&case, model, 0);
            assert_eq!(plain.hidden_ns, 0.0, "{}: L=0 cannot overlap", case.name);
            let mut prev_total = plain.total_ns();
            for lookahead in [0usize, 1, 2] {
                let ctx = format!("{} L={lookahead}", case.name);
                let (out, measured) = run_timed(&case, model, lookahead);

                // 1. static price == measured model time, bitwise.
                let modelled =
                    modelled_time(&case.schedule, &model, lookahead, Some(case.capacity));
                assert_time_eq(&measured, &modelled, &ctx);

                // 2. the timing wrapper changes no numbers.
                assert!(out == baseline, "{ctx}: result drifted");

                // 3. more lookahead never costs modelled time.
                assert!(
                    measured.total_ns() <= prev_total,
                    "{ctx}: total {} grew past {}",
                    measured.total_ns(),
                    prev_total
                );
                prev_total = measured.total_ns();

                // 4. the update kernels hide real time at lookahead >= 1.
                if lookahead >= 1 && case.must_hide {
                    assert!(
                        measured.hidden_ns > 0.0,
                        "{ctx}: expected strictly positive hidden time"
                    );
                    assert!(measured.speedup() > 1.0, "{ctx}: expected modelled speedup");
                }
            }
        }
    }
}

#[test]
fn timed_api_is_consistent_and_reproduces_untimed_results() {
    let model = MachineModel::nvme();
    let pipeline = PassPipeline::default();
    let a = generate::random_matrix_seeded::<f64>(32, 6, 910);
    let c0 = generate::random_symmetric::<f64>(32, &mut generate::seeded_rng(911));

    let untimed = RunOptions::new().pipeline(pipeline).lookahead(1);
    let timed = untimed.clone().priced(&model);
    let clock = |run: Run| run.clock.expect("a priced run reports its clock");
    let mut c_untimed = c0.clone();
    syrk_out_of_core_with(
        &a,
        &mut c_untimed,
        1.0,
        60,
        SyrkAlgorithm::TbsTiled,
        &untimed,
    )
    .unwrap();
    let mut c_timed = c0;
    let wall = clock(
        syrk_out_of_core_with(&a, &mut c_timed, 1.0, 60, SyrkAlgorithm::TbsTiled, &timed).unwrap(),
    );
    assert!(wall.consistent(), "SYRK: measured != modelled");
    assert!(wall.measured.hidden_ns > 0.0, "SYRK: no overlap at L=1");
    assert_eq!(c_timed, c_untimed, "SYRK: timed result drifted");

    let spd = generate::random_spd_seeded::<f64>(28, 912);
    let (l_untimed, _) =
        cholesky_out_of_core_with(&spd, 40, CholeskyAlgorithm::Lbc, &untimed).unwrap();
    let (l_timed, run) =
        cholesky_out_of_core_with(&spd, 40, CholeskyAlgorithm::Lbc, &timed).unwrap();
    let wall = clock(run);
    assert!(wall.consistent(), "Cholesky: measured != modelled");
    assert_eq!(l_timed, l_untimed, "Cholesky: timed factor drifted");

    let ga = generate::random_matrix_seeded::<f64>(14, 8, 913);
    let gb = generate::random_matrix_seeded::<f64>(8, 12, 914);
    let gc0 = generate::random_matrix_seeded::<f64>(14, 12, 915);
    let mut gc_untimed = gc0.clone();
    gemm_out_of_core_with(&ga, &gb, &mut gc_untimed, 1.0, 40, &untimed).unwrap();
    let mut gc_timed = gc0.clone();
    let wall = clock(gemm_out_of_core_with(&ga, &gb, &mut gc_timed, 1.0, 40, &timed).unwrap());
    assert!(wall.consistent(), "GEMM: measured != modelled");
    assert!(wall.measured.hidden_ns > 0.0, "GEMM: no overlap at L=1");
    assert_eq!(gc_timed, gc_untimed, "GEMM: timed result drifted");

    // Lookahead 0 through the timed API: still consistent, nothing hidden.
    let mut gc_plain = gc0;
    let timed_l0 = RunOptions::new().priced(&model);
    let wall = clock(gemm_out_of_core_with(&ga, &gb, &mut gc_plain, 1.0, 40, &timed_l0).unwrap());
    assert!(wall.consistent(), "GEMM L=0: measured != modelled");
    assert_eq!(wall.measured.hidden_ns, 0.0, "GEMM L=0: cannot overlap");
}
