//! Acceptance invariants of the schedule-optimization pass layer, for every
//! one of the eight schedule builders × the stock pass pipelines:
//!
//! 1. **bitwise equivalence** — executing the optimized schedule leaves
//!    every slow-memory matrix bitwise identical to the seed execution;
//! 2. **symbolic equivalence** — the dataflow-hash effects of seed and
//!    optimized schedules agree (`passes::verify`);
//! 3. **monotone transfers** — the optimized dry-run never moves more
//!    elements or issues more transfer events than the seed, in either
//!    direction, and at least one paper algorithm (tiled TBS) shows a
//!    strictly positive measured saving;
//! 4. **mode agreement survives optimization** — executing an optimized
//!    schedule still reproduces its own dry run exactly, and schedules with
//!    independent groups still replay correctly through
//!    `Engine::execute_parallel`.

use symla::matrix::generate::{self, SeededRng};
use symla::prelude::*;
use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
    OocCholPlan, OocGemmPlan, OocLuPlan, OocSyrkPlan, OocTrsmPlan,
};
use symla_core::engine::{Engine, Schedule, WorkerRun};
use symla_core::passes::{verify, PassPipeline};
use symla_core::plan::{LbcPlan, TbsPlan};
use symla_core::{lbc_schedule, tbs_schedule};
use symla_matrix::generate::{random_lower_triangular, random_matrix_seeded, random_spd_seeded};
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::{MachineConfig, MatrixId, SharedSlowMemory};

/// A slow-memory operand, in the order it must be registered (machine ids
/// are assigned sequentially, so position = id).
#[derive(Clone, PartialEq, Debug)]
enum Mat {
    Dense(Matrix<f64>),
    Sym(SymMatrix<f64>),
}

/// One algorithm instance: a schedule plus the machine contents it runs on.
struct Case {
    name: &'static str,
    schedule: Schedule<f64>,
    mats: Vec<Mat>,
}

impl Case {
    fn machine(&self) -> OocMachine<f64> {
        let mut machine = OocMachine::new(MachineConfig::unlimited());
        for (i, mat) in self.mats.iter().enumerate() {
            let got = match mat {
                Mat::Dense(m) => machine.insert_dense(m.clone()),
                Mat::Sym(s) => machine.insert_symmetric(s.clone()),
            };
            assert_eq!(got, MatrixId::synthetic(i as u64), "ids must reproduce");
        }
        machine
    }

    /// Executes `schedule` and returns the final contents of every matrix.
    fn execute(&self, schedule: &Schedule<f64>) -> Vec<Mat> {
        let mut machine = self.machine();
        Engine::execute(&mut machine, schedule).unwrap();
        let dry = Engine::dry_run(schedule, "main");
        assert_eq!(
            machine.stats(),
            &dry,
            "{}: execute must match dry run",
            self.name
        );
        self.mats
            .iter()
            .enumerate()
            .map(|(i, mat)| {
                let id = MatrixId::synthetic(i as u64);
                match mat {
                    Mat::Dense(_) => Mat::Dense(machine.take_dense(id).unwrap()),
                    Mat::Sym(_) => Mat::Sym(machine.take_symmetric(id).unwrap()),
                }
            })
            .collect()
    }
}

/// The eight schedule builders on seeded instances.
fn all_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut rng = SeededRng::seed_from_u64(0x0A55);

    // --- SYRK family: A dense (id 0), C symmetric (id 1) ---
    let (n, m, s) = (30, 6, 10);
    let a: Matrix<f64> = random_matrix_seeded(n, m, 71);
    let c: SymMatrix<f64> = generate::random_symmetric(n, &mut rng);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    cases.push(Case {
        name: "tbs",
        schedule: tbs_schedule(&a_ref, &c_ref, 1.0, &TbsPlan::for_memory(s).unwrap()).unwrap(),
        mats: vec![Mat::Dense(a.clone()), Mat::Sym(c.clone())],
    });
    let (n, m, s) = (40, 6, 60);
    let a40: Matrix<f64> = random_matrix_seeded(n, m, 72);
    let c40: SymMatrix<f64> = generate::random_symmetric(n, &mut rng);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    cases.push(Case {
        name: "tbs_tiled",
        schedule: tbs_schedule(&a_ref, &c_ref, -1.0, &TbsPlan::for_problem(s, n).unwrap()).unwrap(),
        mats: vec![Mat::Dense(a40.clone()), Mat::Sym(c40.clone())],
    });
    let (n, m, s) = (20, 5, 35);
    let a20: Matrix<f64> = random_matrix_seeded(n, m, 73);
    let c20: SymMatrix<f64> = generate::random_symmetric(n, &mut rng);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    cases.push(Case {
        name: "ooc_syrk",
        schedule: ooc_syrk_schedule(&a_ref, &c_ref, 1.0, &OocSyrkPlan::for_memory(s).unwrap())
            .unwrap(),
        mats: vec![Mat::Dense(a20), Mat::Sym(c20)],
    });

    // --- factorizations on symmetric windows (id 0) ---
    let (n, s) = (36, 48);
    let spd: SymMatrix<f64> = random_spd_seeded(n, 74);
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    cases.push(Case {
        name: "lbc",
        schedule: lbc_schedule(&window, &LbcPlan::for_problem(n, s).unwrap()).unwrap(),
        mats: vec![Mat::Sym(spd.clone())],
    });
    let (n, s) = (24, 35);
    let spd24: SymMatrix<f64> = random_spd_seeded(n, 75);
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    cases.push(Case {
        name: "ooc_chol",
        schedule: ooc_chol_schedule(&window, &OocCholPlan::for_memory(s).unwrap()),
        mats: vec![Mat::Sym(spd24)],
    });

    // --- TRSM: L symmetric (id 0), X dense (id 1) ---
    let (mrows, b, s) = (9, 8, 24);
    let lfac = random_lower_triangular::<f64>(b, &mut rng);
    let lsym = SymMatrix::from_lower_fn(b, |i, j| lfac.get(i, j));
    let x: Matrix<f64> = random_matrix_seeded(mrows, b, 76);
    let l_ref = SymWindowRef::full(MatrixId::synthetic(0), b);
    let x_ref = PanelRef::dense(MatrixId::synthetic(1), mrows, b);
    cases.push(Case {
        name: "ooc_trsm",
        schedule: ooc_trsm_schedule(&l_ref, &x_ref, &OocTrsmPlan::for_memory(s).unwrap()).unwrap(),
        mats: vec![Mat::Sym(lsym), Mat::Dense(x)],
    });

    // --- GEMM: three dense panels ---
    let (gn, gm, gp, s) = (9, 7, 11, 35);
    let ga: Matrix<f64> = random_matrix_seeded(gn, gm, 77);
    let gb: Matrix<f64> = random_matrix_seeded(gm, gp, 78);
    let gc: Matrix<f64> = random_matrix_seeded(gn, gp, 79);
    cases.push(Case {
        name: "ooc_gemm",
        schedule: ooc_gemm_schedule(
            &PanelRef::dense(MatrixId::synthetic(0), gn, gm),
            &PanelRef::dense(MatrixId::synthetic(1), gm, gp),
            &PanelRef::dense(MatrixId::synthetic(2), gn, gp),
            0.5,
            &OocGemmPlan::for_memory(s).unwrap(),
        )
        .unwrap(),
        mats: vec![Mat::Dense(ga), Mat::Dense(gb), Mat::Dense(gc)],
    });

    // --- LU on a diagonally dominant dense matrix (id 0) ---
    let (n, s) = (12, 35);
    let mut lu = random_matrix_seeded::<f64>(n, n, 80);
    for i in 0..n {
        lu[(i, i)] += n as f64;
    }
    cases.push(Case {
        name: "ooc_lu",
        schedule: ooc_lu_schedule(
            &PanelRef::dense(MatrixId::synthetic(0), n, n),
            &OocLuPlan::for_memory(s).unwrap(),
        )
        .unwrap(),
        mats: vec![Mat::Dense(lu)],
    });

    cases
}

fn assert_transfers_monotone(seed: &symla_memory::IoStats, opt: &symla_memory::IoStats, ctx: &str) {
    assert!(
        opt.volume.loads <= seed.volume.loads,
        "{ctx}: load volume regressed {} -> {}",
        seed.volume.loads,
        opt.volume.loads
    );
    assert!(
        opt.volume.stores <= seed.volume.stores,
        "{ctx}: store volume regressed"
    );
    assert!(
        opt.load_events <= seed.load_events,
        "{ctx}: load events regressed"
    );
    assert!(
        opt.store_events <= seed.store_events,
        "{ctx}: store events regressed"
    );
}

#[test]
fn all_eight_builders_survive_both_pipelines_bitwise() {
    for case in all_cases() {
        let seed_dry = Engine::dry_run(&case.schedule, "main");
        let seed_result = case.execute(&case.schedule);
        let budget = seed_dry.peak_resident + seed_dry.peak_resident / 2;
        for pipeline in [
            PassPipeline::standard(),
            PassPipeline::locality(Some(budget)),
        ] {
            let ctx = format!("{} via {:?}", case.name, pipeline);
            let optimized = pipeline
                .manager::<f64>()
                .optimize(&case.schedule, "main")
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            verify::check_equivalent(&case.schedule, &optimized.schedule)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_transfers_monotone(&seed_dry, &optimized.final_stats, &ctx);
            assert!(
                optimized.final_stats.peak_resident <= seed_dry.peak_resident.max(budget),
                "{ctx}: peak exceeded budget"
            );
            // per-pass monotonicity, too: no pass may undo another's savings
            for stage in &optimized.stages {
                assert_transfers_monotone(&stage.before, &stage.after, &ctx);
            }
            let opt_result = case.execute(&optimized.schedule);
            assert_eq!(
                seed_result, opt_result,
                "{ctx}: results must be bitwise equal"
            );
        }
    }
}

#[test]
fn tiled_tbs_and_lbc_square_show_strictly_positive_savings() {
    // the acceptance criterion: at least one paper algorithm saves
    // strictly positive measured transfers
    let cases = all_cases();
    let tiled = cases.iter().find(|c| c.name == "tbs_tiled").unwrap();
    let opt = PassPipeline::standard()
        .manager::<f64>()
        .optimize(&tiled.schedule, "main")
        .unwrap();
    assert!(
        opt.events_saved() > 0,
        "tiled TBS must coalesce some loads: {:?}",
        opt.stages
            .iter()
            .map(|s| s.report.clone())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        opt.final_stats.volume, opt.seed_stats.volume,
        "coalescing must preserve element volume"
    );

    // TRSM with slack: the locality pipeline eliminates re-loaded L
    // segments outright (volume, not just events)
    let trsm = cases.iter().find(|c| c.name == "ooc_trsm").unwrap();
    let seed_peak = Engine::dry_run(&trsm.schedule, "main").peak_resident;
    let opt = PassPipeline::locality(Some(2 * seed_peak))
        .manager::<f64>()
        .optimize(&trsm.schedule, "main")
        .unwrap();
    assert!(
        opt.loads_saved() > 0,
        "TRSM with residency slack must save load volume: {:?}",
        opt.stages
            .iter()
            .map(|s| s.report.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn api_clamps_pipeline_budget_to_machine_capacity() {
    // A residency budget far beyond the machine capacity must not produce a
    // schedule the capacity-enforced execution rejects: the API clamps the
    // budget to `s`.
    let (n, s) = (40, 60);
    let spd = random_spd_seeded::<f64>(n, 10);
    let (l_plain, _) = cholesky_out_of_core(&spd, s, CholeskyAlgorithm::Lbc).unwrap();
    let options = RunOptions::new().pipeline(PassPipeline::locality(Some(100 * s)));
    let (l_opt, run) =
        cholesky_out_of_core_with(&spd, s, CholeskyAlgorithm::Lbc, &options).unwrap();
    assert!(
        l_opt.approx_eq(&l_plain, 0.0),
        "results must stay bitwise equal"
    );
    assert!(
        run.report.stats.peak_resident <= s,
        "optimized execution exceeded the requested fast memory"
    );
    assert!(run.events_saved() > 0, "the clamped pipeline still saves");
}

#[test]
fn optimized_independent_schedules_replay_in_parallel() {
    // OOC_SYRK: independent groups before and after optimization
    let (n, m, s) = (24, 4, 48);
    let a: Matrix<f64> = random_matrix_seeded(n, m, 90);
    let mut rng = SeededRng::seed_from_u64(0x9111);
    let c: SymMatrix<f64> = generate::random_symmetric(n, &mut rng);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let schedule =
        ooc_syrk_schedule::<f64>(&a_ref, &c_ref, 1.0, &OocSyrkPlan::for_memory(s).unwrap())
            .unwrap();
    let optimized = PassPipeline::standard()
        .manager::<f64>()
        .optimize(&schedule, "main")
        .unwrap();
    assert!(
        optimized.events_saved() > 0,
        "adjacent-tile OOC_SYRK groups must coalesce"
    );

    // serial reference on the seed schedule
    let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
    let sa = machine.insert_dense(a.clone());
    let sc = machine.insert_symmetric(c.clone());
    assert_eq!(sa, MatrixId::synthetic(0));
    assert_eq!(sc, MatrixId::synthetic(1));
    Engine::execute(&mut machine, &schedule).unwrap();
    let expected = machine.take_symmetric(sc).unwrap();

    for workers in [1, 2, 4] {
        let shared = SharedSlowMemory::new();
        let pa = shared.insert_dense(a.clone());
        let pc = shared.insert_symmetric(c.clone());
        assert_eq!(pa, MatrixId::synthetic(0));
        assert_eq!(pc, MatrixId::synthetic(1));
        let runs = Engine::execute_parallel(
            &shared,
            &optimized.schedule,
            workers,
            MachineConfig::with_capacity(s),
            "main",
        )
        .unwrap();
        assert_eq!(
            WorkerRun::merged_stats(&runs),
            optimized.final_stats,
            "P={workers}: merged worker stats must equal the optimized dry run"
        );
        let got = shared.take_symmetric(pc).unwrap();
        assert!(
            got.approx_eq(&expected, 0.0),
            "P={workers}: parallel optimized result differs from serial seed"
        );
    }
}
