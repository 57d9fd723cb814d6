//! A/B sweep of the schedule-optimization passes: seed vs optimized
//! transfer counts for every schedule builder and several block sizes.
//!
//! For each (algorithm, instance, pipeline) the binary
//!
//! 1. builds the seed schedule and dry-runs it;
//! 2. runs the pass pipeline (with symbolic verification) and dry-runs the
//!    optimized schedule;
//! 3. executes both schedules on identical machines and asserts the
//!    slow-memory results are **bitwise identical**;
//! 4. prints before/after load+store volumes and transfer-event counts and
//!    the per-pass attribution.
//!
//! The process exits non-zero if any pipeline *increases* any dry-run
//! transfer metric (volume or events, either direction) — this is the CI
//! smoke gate (`--smoke` runs the small instance set only).
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_passes            # full sweep
//! cargo run --release -p symla-bench --bin ab_passes -- --smoke # CI gate
//! ```

use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
    OocCholPlan, OocGemmPlan, OocLuPlan, OocSyrkPlan, OocTrsmPlan,
};
use symla_core::engine::{Engine, Schedule};
use symla_core::passes::{Optimized, PassPipeline};
use symla_core::plan::{LbcPlan, TbsPlan};
use symla_core::{lbc_schedule, tbs_schedule};
use symla_matrix::generate::{
    random_lower_triangular, random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::{MachineConfig, MatrixId, OocMachine, PanelRef, SymWindowRef};

/// A slow-memory operand in registration order (position = machine id).
#[derive(Clone, PartialEq)]
enum Mat {
    Dense(Matrix<f64>),
    Sym(SymMatrix<f64>),
}

struct Case {
    algorithm: String,
    memory: usize,
    schedule: Schedule<f64>,
    mats: Vec<Mat>,
}

impl Case {
    fn execute(&self, schedule: &Schedule<f64>) -> Vec<Mat> {
        let mut machine = OocMachine::<f64>::new(MachineConfig::unlimited());
        for (i, mat) in self.mats.iter().enumerate() {
            let got = match mat {
                Mat::Dense(m) => machine.insert_dense(m.clone()),
                Mat::Sym(s) => machine.insert_symmetric(s.clone()),
            };
            assert_eq!(got, MatrixId::synthetic(i as u64));
        }
        Engine::execute(&mut machine, schedule).expect("schedule must execute");
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

fn syrk_case(algorithm: &str, n: usize, m: usize, s: usize) -> Case {
    let a: Matrix<f64> = random_matrix_seeded(n, m, 4100 + n as u64);
    let mut rng = seeded_rng(4200 + n as u64);
    let c: SymMatrix<f64> = random_symmetric(n, &mut rng);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let tbs = |plan: TbsPlan| tbs_schedule(&a_ref, &c_ref, 1.0, &plan).unwrap();
    let schedule = match algorithm {
        "tbs" => tbs(TbsPlan::for_memory(s).unwrap()),
        "tbs_tiled" => tbs(TbsPlan::for_problem(s, n).unwrap()),
        "ooc_syrk" => {
            ooc_syrk_schedule(&a_ref, &c_ref, 1.0, &OocSyrkPlan::for_memory(s).unwrap()).unwrap()
        }
        other => unreachable!("unknown SYRK algorithm {other}"),
    };
    Case {
        algorithm: format!("{algorithm} n={n} m={m}"),
        memory: s,
        schedule,
        mats: vec![Mat::Dense(a), Mat::Sym(c)],
    }
}

fn cholesky_case(algorithm: &str, n: usize, s: usize) -> Case {
    let spd: SymMatrix<f64> = random_spd_seeded(n, 4300 + n as u64);
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    let schedule = match algorithm {
        "lbc" => lbc_schedule(&window, &LbcPlan::for_problem(n, s).unwrap()).unwrap(),
        "ooc_chol" => ooc_chol_schedule(&window, &OocCholPlan::for_memory(s).unwrap()),
        other => unreachable!("unknown Cholesky algorithm {other}"),
    };
    Case {
        algorithm: format!("{algorithm} n={n}"),
        memory: s,
        schedule,
        mats: vec![Mat::Sym(spd)],
    }
}

fn trsm_case(m: usize, b: usize, s: usize) -> Case {
    let mut rng = seeded_rng(4400 + b as u64);
    let lfac = random_lower_triangular::<f64>(b, &mut rng);
    let lsym = SymMatrix::from_lower_fn(b, |i, j| lfac.get(i, j));
    let x: Matrix<f64> = random_matrix_seeded(m, b, 4500 + m as u64);
    let l_ref = SymWindowRef::full(MatrixId::synthetic(0), b);
    let x_ref = PanelRef::dense(MatrixId::synthetic(1), m, b);
    Case {
        algorithm: format!("ooc_trsm m={m} b={b}"),
        memory: s,
        schedule: ooc_trsm_schedule(&l_ref, &x_ref, &OocTrsmPlan::for_memory(s).unwrap()).unwrap(),
        mats: vec![Mat::Sym(lsym), Mat::Dense(x)],
    }
}

fn gemm_case(n: usize, m: usize, p: usize, s: usize) -> Case {
    let ga: Matrix<f64> = random_matrix_seeded(n, m, 4600);
    let gb: Matrix<f64> = random_matrix_seeded(m, p, 4601);
    let gc: Matrix<f64> = random_matrix_seeded(n, p, 4602);
    Case {
        algorithm: format!("ooc_gemm n={n} m={m} p={p}"),
        memory: s,
        schedule: ooc_gemm_schedule(
            &PanelRef::dense(MatrixId::synthetic(0), n, m),
            &PanelRef::dense(MatrixId::synthetic(1), m, p),
            &PanelRef::dense(MatrixId::synthetic(2), n, p),
            1.0,
            &OocGemmPlan::for_memory(s).unwrap(),
        )
        .unwrap(),
        mats: vec![Mat::Dense(ga), Mat::Dense(gb), Mat::Dense(gc)],
    }
}

fn lu_case(n: usize, s: usize) -> Case {
    let mut lu = random_matrix_seeded::<f64>(n, n, 4700);
    for i in 0..n {
        lu[(i, i)] += n as f64;
    }
    Case {
        algorithm: format!("ooc_lu n={n}"),
        memory: s,
        schedule: ooc_lu_schedule(
            &PanelRef::dense(MatrixId::synthetic(0), n, n),
            &OocLuPlan::for_memory(s).unwrap(),
        )
        .unwrap(),
        mats: vec![Mat::Dense(lu)],
    }
}

fn cases(smoke: bool) -> Vec<Case> {
    let mut cases = vec![
        syrk_case("tbs", 30, 6, 10),
        syrk_case("tbs_tiled", 40, 6, 60),
        syrk_case("ooc_syrk", 20, 5, 35),
        cholesky_case("lbc", 36, 48),
        cholesky_case("ooc_chol", 24, 35),
        trsm_case(9, 8, 24),
        gemm_case(9, 7, 11, 35),
        lu_case(12, 35),
    ];
    if !smoke {
        cases.extend([
            syrk_case("tbs", 52, 8, 15),
            syrk_case("tbs_tiled", 80, 10, 120),
            syrk_case("ooc_syrk", 40, 8, 80),
            cholesky_case("lbc", 48, 80),
            cholesky_case("ooc_chol", 36, 63),
            trsm_case(16, 12, 35),
            gemm_case(14, 10, 14, 48),
            lu_case(18, 48),
        ]);
    }
    cases
}

struct Row {
    case: String,
    memory: usize,
    pipeline: &'static str,
    seed: symla_memory::IoStats,
    opt: symla_memory::IoStats,
    regressed: bool,
    bitwise_ok: bool,
}

impl Row {
    /// Transfer units saved: element volume plus transfer events, summed
    /// over both directions (negative = regression).
    fn saved(&self) -> i64 {
        let seed = self.seed.total_io() + self.seed.load_events + self.seed.store_events;
        let opt = self.opt.total_io() + self.opt.load_events + self.opt.store_events;
        seed as i64 - opt as i64
    }
}

fn run_case(case: &Case, pipeline: &PassPipeline, name: &'static str, verbose: bool) -> Row {
    let optimized: Optimized<f64> = pipeline
        .manager::<f64>()
        .optimize(&case.schedule, "main")
        .expect("pipeline must verify");
    let seed_result = case.execute(&case.schedule);
    let opt_result = case.execute(&optimized.schedule);
    if verbose {
        for stage in &optimized.stages {
            if !stage.report.is_noop() {
                println!("      {}", stage.report);
            }
        }
    }
    Row {
        case: case.algorithm.clone(),
        memory: case.memory,
        pipeline: name,
        seed: optimized.seed_stats.clone(),
        opt: optimized.final_stats.clone(),
        regressed: optimized.regressed(),
        bitwise_ok: seed_result == opt_result,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");

    println!(
        "{:<26} {:>4} {:<9} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8}  check",
        "algorithm", "S", "pipeline", "elts", "elts'", "events", "events'", "saved", "saved%",
    );
    let mut rows = Vec::new();
    for case in cases(smoke) {
        if verbose {
            println!("  -- {} (S={}) --", case.algorithm, case.memory);
        }
        rows.push(run_case(
            &case,
            &PassPipeline::standard(),
            "standard",
            verbose,
        ));
        rows.push(run_case(
            &case,
            &PassPipeline::locality(Some(2 * case.memory)),
            "locality",
            verbose,
        ));
    }

    let mut failures = 0;
    let mut positive_savings = 0;
    for row in &rows {
        let seed_elts = row.seed.total_io();
        let opt_elts = row.opt.total_io();
        let seed_events = row.seed.load_events + row.seed.store_events;
        let opt_events = row.opt.load_events + row.opt.store_events;
        let saved = row.saved();
        let pct = if seed_elts + seed_events > 0 {
            100.0 * saved as f64 / (seed_elts + seed_events) as f64
        } else {
            0.0
        };
        if saved > 0 {
            positive_savings += 1;
        }
        let check = match (row.regressed, row.bitwise_ok) {
            (false, true) => "ok",
            (true, _) => "REGRESSED",
            (_, false) => "RESULT DIFFERS",
        };
        if check != "ok" {
            failures += 1;
        }
        println!(
            "{:<26} {:>4} {:<9} {:>9} {:>9} {:>7} {:>7} {:>8} {:>7.2}%  {}",
            row.case,
            row.memory,
            row.pipeline,
            seed_elts,
            opt_elts,
            seed_events,
            opt_events,
            saved,
            pct,
            check
        );
    }

    println!(
        "\n{} rows, {} with strictly positive transfer savings, {} failures",
        rows.len(),
        positive_savings,
        failures
    );
    // The acceptance gate: no pipeline may increase transfers, every result
    // must be bitwise-identical, and the paper algorithms must actually
    // save something (tiled TBS coalesces its strip loads on every listed
    // instance).
    let tiled_saves = rows
        .iter()
        .any(|r| r.case.starts_with("tbs_tiled") && r.saved() > 0);
    if !tiled_saves {
        eprintln!("FAIL: tiled TBS shows no measured saving");
        failures += 1;
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
