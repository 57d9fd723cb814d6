//! A/B sweep of the prefetching engine mode: overlapped vs stalled load
//! volume and peak residency for every schedule builder, several sizes and
//! lookaheads 0 / 1 / 2.
//!
//! For each (algorithm, instance, lookahead) the binary
//!
//! 1. dry-runs the schedule with the prefetch model
//!    (`Engine::dry_run_with`) — the modelled overlap quantifies the
//!    benefit without timing noise;
//! 2. executes the schedule on a capacity-`S` machine with and without the
//!    lookahead and asserts the slow-memory results are **bitwise
//!    identical** and the measured stats equal the dry-run model;
//! 3. prints the overlap ratio (prefetched / total loads), the stalled
//!    residue and the peak residency against `S`.
//!
//! The process exits non-zero if any result diverges bitwise, any peak
//! exceeds `S`, any stalled volume grows with the lookahead, or the
//! update-style paper kernels (tiled TBS, OOC-GEMM) fail to overlap at
//! `lookahead = 1` — this is the CI smoke gate (`--smoke` runs the small
//! instance set only).
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_prefetch            # full sweep
//! cargo run --release -p symla-bench --bin ab_prefetch -- --smoke # CI gate
//! ```

use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
    OocCholPlan, OocGemmPlan, OocLuPlan, OocSyrkPlan, OocTrsmPlan,
};
use symla_core::engine::{Engine, EngineConfig, Schedule};
use symla_core::plan::{LbcPlan, TbsPlan};
use symla_core::{lbc_schedule, tbs_schedule};
use symla_matrix::generate::{
    random_lower_triangular, random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::{IoStats, MachineConfig, MatrixId, OocMachine, PanelRef, SymWindowRef};

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
    /// Whether the acceptance gate demands strictly positive overlap at
    /// lookahead 1 for this case.
    must_overlap: bool,
}

impl Case {
    /// Executes the schedule at the given lookahead on a capacity-`S`
    /// machine, asserting execute == dry-run, and returns the final
    /// slow-memory contents plus the measured stats.
    fn execute(&self, lookahead: usize) -> (Vec<Mat>, IoStats) {
        let config = EngineConfig::with_lookahead(lookahead);
        let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(self.memory));
        for (i, mat) in self.mats.iter().enumerate() {
            let got = match mat {
                Mat::Dense(m) => machine.insert_dense(m.clone()),
                Mat::Sym(s) => machine.insert_symmetric(s.clone()),
            };
            assert_eq!(got, MatrixId::synthetic(i as u64));
        }
        Engine::execute_with(&mut machine, &self.schedule, &config)
            .expect("schedule must execute within its planned capacity");
        let dry = Engine::dry_run_with(&self.schedule, "main", &config, Some(self.memory));
        assert_eq!(
            machine.stats(),
            &dry,
            "{} L={lookahead}: execute diverged from the dry-run model",
            self.algorithm
        );
        let stats = machine.stats().clone();
        let out = self
            .mats
            .iter()
            .enumerate()
            .map(|(i, mat)| {
                let id = MatrixId::synthetic(i as u64);
                match mat {
                    Mat::Dense(_) => Mat::Dense(machine.take_dense(id).unwrap()),
                    Mat::Sym(_) => Mat::Sym(machine.take_symmetric(id).unwrap()),
                }
            })
            .collect();
        (out, stats)
    }
}

fn syrk_case(algorithm: &str, n: usize, m: usize, s: usize, must_overlap: bool) -> Case {
    let a: Matrix<f64> = random_matrix_seeded(n, m, 5100 + n as u64);
    let mut rng = seeded_rng(5200 + n as u64);
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
        must_overlap,
    }
}

fn cholesky_case(algorithm: &str, n: usize, s: usize) -> Case {
    let spd: SymMatrix<f64> = random_spd_seeded(n, 5300 + n as u64);
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
        must_overlap: false,
    }
}

fn trsm_case(m: usize, b: usize, s: usize) -> Case {
    let mut rng = seeded_rng(5400 + b as u64);
    let lfac = random_lower_triangular::<f64>(b, &mut rng);
    let lsym = SymMatrix::from_lower_fn(b, |i, j| lfac.get(i, j));
    let x: Matrix<f64> = random_matrix_seeded(m, b, 5500 + m as u64);
    let l_ref = SymWindowRef::full(MatrixId::synthetic(0), b);
    let x_ref = PanelRef::dense(MatrixId::synthetic(1), m, b);
    Case {
        algorithm: format!("ooc_trsm m={m} b={b}"),
        memory: s,
        schedule: ooc_trsm_schedule(&l_ref, &x_ref, &OocTrsmPlan::for_memory(s).unwrap()).unwrap(),
        mats: vec![Mat::Sym(lsym), Mat::Dense(x)],
        must_overlap: false,
    }
}

fn gemm_case(n: usize, m: usize, p: usize, s: usize) -> Case {
    let ga: Matrix<f64> = random_matrix_seeded(n, m, 5600);
    let gb: Matrix<f64> = random_matrix_seeded(m, p, 5601);
    let gc: Matrix<f64> = random_matrix_seeded(n, p, 5602);
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
        must_overlap: true,
    }
}

fn lu_case(n: usize, s: usize) -> Case {
    let mut lu = random_matrix_seeded::<f64>(n, n, 5700);
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
        must_overlap: false,
    }
}

fn cases(smoke: bool) -> Vec<Case> {
    let mut cases = vec![
        syrk_case("tbs", 30, 6, 60, false),
        syrk_case("tbs_tiled", 40, 6, 60, true),
        syrk_case("ooc_syrk", 20, 5, 35, false),
        cholesky_case("lbc", 36, 48),
        cholesky_case("ooc_chol", 24, 35),
        trsm_case(9, 8, 24),
        gemm_case(9, 7, 11, 35),
        lu_case(12, 35),
    ];
    if !smoke {
        cases.extend([
            syrk_case("tbs", 52, 8, 90, false),
            syrk_case("tbs_tiled", 80, 10, 120, true),
            syrk_case("ooc_syrk", 40, 8, 80, false),
            cholesky_case("lbc", 48, 80),
            cholesky_case("ooc_chol", 36, 63),
            trsm_case(16, 12, 35),
            gemm_case(14, 10, 14, 48),
            lu_case(18, 48),
        ]);
    }
    cases
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");

    println!(
        "{:<26} {:>4} {:>2} {:>9} {:>10} {:>9} {:>8} {:>6} {:>6}  check",
        "algorithm", "S", "L", "loads", "prefetched", "stalled", "overlap", "peak", "peak0",
    );
    let mut failures = 0;
    let mut overlapping = 0;
    for case in cases(smoke) {
        let (baseline, plain) = case.execute(0);
        if plain.prefetched_elements != 0 {
            eprintln!("FAIL: {}: lookahead 0 prefetched something", case.algorithm);
            failures += 1;
        }
        let mut prev_stalled = plain.stalled_loads();
        for lookahead in [1usize, 2] {
            let (result, stats) = case.execute(lookahead);
            let mut checks: Vec<&str> = Vec::new();
            if result != baseline {
                checks.push("RESULT DIFFERS");
            }
            if stats.peak_resident > case.memory {
                checks.push("CAPACITY EXCEEDED");
            }
            if stats.volume != plain.volume || stats.load_events != plain.load_events {
                checks.push("VOLUME CHANGED");
            }
            if stats.stalled_loads() > prev_stalled {
                checks.push("STALLS GREW");
            }
            if lookahead == 1 && case.must_overlap && stats.prefetched_elements == 0 {
                checks.push("NO OVERLAP");
            }
            prev_stalled = stats.stalled_loads();
            if stats.prefetched_elements > 0 {
                overlapping += 1;
            }
            let check = if checks.is_empty() {
                "ok".to_string()
            } else {
                checks.join(" + ")
            };
            if check != "ok" {
                failures += 1;
            }
            println!(
                "{:<26} {:>4} {:>2} {:>9} {:>10} {:>9} {:>7.1}% {:>6} {:>6}  {}",
                case.algorithm,
                case.memory,
                lookahead,
                stats.volume.loads,
                stats.prefetched_elements,
                stats.stalled_loads(),
                100.0 * stats.overlap_ratio(),
                stats.peak_resident,
                plain.peak_resident,
                check
            );
        }
    }

    println!("\n{overlapping} rows with positive overlap, {failures} failures");
    if failures > 0 {
        std::process::exit(1);
    }
}
