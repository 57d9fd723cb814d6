//! A/B gate for the multi-level memory hierarchy: the hierarchy must be
//! free when unused and honestly accounted when used.
//!
//! For every schedule builder in the repertoire the binary checks
//!
//! 1. **collapse identity** — the schedule replayed through a degenerate
//!    [`TieredMachine`] (two uncapped deep tiers, every transfer at the
//!    default level) produces **bitwise-identical** slow-memory results and
//!    field-for-field equal [`IoStats`] to the plain [`OocMachine`] replay:
//!    an unused hierarchy costs nothing and changes nothing;
//! 2. **leveled replay** — the same schedule re-leveled to tier 2
//!    ([`Schedule::with_transfer_level`]) still produces bitwise-identical
//!    results with the same total volume, now fully attributed to the tier
//!    in the per-level traffic counters, and its modelled wall-clock under
//!    a tier surcharge is strictly slower than the flat pricing;
//! 3. **dump round-trip** — the leveled schedule dumps with a `v2` header,
//!    collapsing it back to the default level restores the original `v1`
//!    dump byte for byte.
//!
//! On top of the per-builder gates, a sharded parallel SYRK
//! ([`parallel_syrk_sharded`]: `C` on shard 0 = every node's home, `A` on
//! shard 1) must reproduce the reference result for both the square-block
//! and the TBS schedule, and the TBS cross-shard volume must land in the
//! finite-size band around the paper's `1/sqrt(2)` claim (`t/(k-1) = 2/3`
//! at the gate's shape) of the square tiling's.
//!
//! Any violation exits non-zero — `--smoke` is the CI gate. A full run
//! additionally writes `bench/BENCH_multilevel.json`.
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_multilevel            # full sweep + JSON
//! cargo run --release -p symla-bench --bin ab_multilevel -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
    OocCholPlan, OocGemmPlan, OocLuPlan, OocSyrkPlan, OocTrsmPlan,
};
use symla_core::api::SyrkAlgorithm;
use symla_core::engine::{modelled_time, Engine, Schedule};
use symla_core::parallel::{parallel_syrk_sharded, ShardedReport};
use symla_core::plan::{LbcPlan, TbsPlan};
use symla_core::{lbc_schedule, tbs_schedule};
use symla_matrix::generate::{
    random_lower_triangular, random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_matrix::kernels::syrk_sym;
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::{
    IoStats, Level, MachineConfig, MachineModel, MatrixId, OocMachine, PanelRef, SymWindowRef,
    TieredMachine,
};

/// Acceptance band for the triangle-vs-square cross-shard volume ratio at
/// the gate's shape (n = 120, S = 10: k = 4, t = 2): the finite-size value
/// is `t/(k-1) = 2/3`, approaching `1/sqrt(2)` asymptotically.
const RATIO_BAND: (f64, f64) = (0.6, 0.78);

/// The deep tier every transfer is re-leveled to in the leveled gate.
const DEEP: Level = Level::new(2);

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
    /// Plain replay through an [`OocMachine`]: results and stats.
    fn run_flat(&self) -> (Vec<Mat>, IoStats) {
        let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(self.memory));
        for (i, mat) in self.mats.iter().enumerate() {
            let got = match mat {
                Mat::Dense(m) => machine.insert_dense(m.clone()),
                Mat::Sym(s) => machine.insert_symmetric(s.clone()),
            };
            assert_eq!(got, MatrixId::synthetic(i as u64));
        }
        Engine::execute(&mut machine, &self.schedule).expect("flat replay");
        let stats = machine.stats().clone();
        (take_all(&mut machine, &self.mats), stats)
    }

    /// Replay through a [`TieredMachine`] with two uncapped deep tiers,
    /// optionally re-leveling every transfer to `level` first.
    fn run_tiered(&self, level: Option<Level>) -> (Vec<Mat>, IoStats) {
        let inner = OocMachine::<f64>::new(MachineConfig::with_capacity(self.memory));
        let mut machine = TieredMachine::new(inner).with_tier(None).with_tier(None);
        for (i, mat) in self.mats.iter().enumerate() {
            let got = match mat {
                Mat::Dense(m) => machine.inner_mut().insert_dense(m.clone()),
                Mat::Sym(s) => machine.inner_mut().insert_symmetric(s.clone()),
            };
            assert_eq!(got, MatrixId::synthetic(i as u64));
        }
        let schedule = match level {
            Some(l) => self.schedule.with_transfer_level(l),
            None => self.schedule.clone(),
        };
        Engine::execute(&mut machine, &schedule).expect("tiered replay");
        let stats = machine.inner().stats().clone();
        let mut inner = machine.into_inner();
        (take_all(&mut inner, &self.mats), stats)
    }
}

fn take_all(machine: &mut OocMachine<f64>, mats: &[Mat]) -> Vec<Mat> {
    mats.iter()
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

fn syrk_case(algorithm: &str, n: usize, m: usize, s: usize) -> Case {
    let a: Matrix<f64> = random_matrix_seeded(n, m, 7100 + n as u64);
    let mut rng = seeded_rng(7200 + n as u64);
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
    let spd: SymMatrix<f64> = random_spd_seeded(n, 7300 + n as u64);
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
    let mut rng = seeded_rng(7400 + b as u64);
    let lfac = random_lower_triangular::<f64>(b, &mut rng);
    let lsym = SymMatrix::from_lower_fn(b, |i, j| lfac.get(i, j));
    let x: Matrix<f64> = random_matrix_seeded(m, b, 7500 + m as u64);
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
    let ga: Matrix<f64> = random_matrix_seeded(n, m, 7600);
    let gb: Matrix<f64> = random_matrix_seeded(m, p, 7601);
    let gc: Matrix<f64> = random_matrix_seeded(n, p, 7602);
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
    let mut lu = random_matrix_seeded::<f64>(n, n, 7700);
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
        syrk_case("tbs", 30, 6, 60),
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
            syrk_case("tbs", 52, 8, 90),
            syrk_case("tbs_tiled", 80, 10, 120),
            cholesky_case("lbc", 48, 80),
            gemm_case(14, 10, 14, 48),
        ]);
    }
    cases
}

/// One per-builder row of the JSON dump.
struct Row {
    algorithm: String,
    memory: usize,
    loads: u64,
    stores: u64,
    flat_ns: f64,
    leveled_ns: f64,
}

/// Runs the sharded SYRK for one schedule and checks its result against
/// the reference; returns the report.
fn sharded(
    a: &Matrix<f64>,
    expected: &SymMatrix<f64>,
    nodes: usize,
    s: usize,
    strategy: SyrkAlgorithm,
    failures: &mut u32,
) -> ShardedReport {
    let mut c = SymMatrix::zeros(expected.order());
    let report = parallel_syrk_sharded(a, &mut c, 1.0, nodes, s, strategy).unwrap();
    if !c.approx_eq(expected, 1e-10) {
        eprintln!("FAIL: sharded {} result diverged", strategy.name());
        *failures += 1;
    }
    report
}

fn write_json(rows: &[Row], square: &ShardedReport, triangle: &ShardedReport, ratio: f64) {
    let mut out = String::from("{\n  \"builders\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"algorithm\": \"{}\", \"memory\": {}, \"loads\": {}, \"stores\": {}, \
             \"flat_modelled_ns\": {:.3}, \"leveled_modelled_ns\": {:.3} }}{}",
            row.algorithm.replace('"', "\\\""),
            row.memory,
            row.loads,
            row.stores,
            row.flat_ns,
            row.leveled_ns,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"sharded\": [\n");
    for (i, report) in [square, triangle].into_iter().enumerate() {
        let nodes: Vec<String> = report
            .per_node
            .iter()
            .map(|n| {
                format!(
                    "{{ \"local\": {}, \"cross\": {}, \"tasks\": {} }}",
                    n.local, n.cross, n.tasks
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "    {{ \"strategy\": \"{}\", \"total_cross\": {}, \"max_cross\": {}, \
             \"per_node\": [{}] }}{}",
            report.strategy.name(),
            report.total_cross(),
            report.max_cross(),
            nodes.join(", "),
            if i == 0 { "," } else { "" }
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"cross_shard_ratio\": {ratio:.6},\n  \"ratio_band\": [{}, {}]\n}}",
        RATIO_BAND.0, RATIO_BAND.1
    );
    std::fs::create_dir_all("bench").expect("create bench dir");
    std::fs::write("bench/BENCH_multilevel.json", out).expect("write bench/BENCH_multilevel.json");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let model = MachineModel::nvme().with_level_extra(DEEP, 25.0);

    println!(
        "{:<24} {:>8} {:>8} {:>14} {:>14}  check",
        "algorithm", "loads", "stores", "flat ns", "leveled ns",
    );
    let mut failures = 0u32;
    let mut rows: Vec<Row> = Vec::new();
    for case in cases(smoke) {
        let mut checks: Vec<&str> = Vec::new();
        let (flat_result, flat_stats) = case.run_flat();

        // Gate 1: the degenerate hierarchy is invisible.
        let (collapsed_result, collapsed_stats) = case.run_tiered(None);
        if collapsed_result != flat_result {
            checks.push("COLLAPSE RESULT DIFFERS");
        }
        if collapsed_stats != flat_stats {
            checks.push("COLLAPSE STATS DIFFER");
        }

        // Gate 2: the leveled replay moves the same data, attributed to
        // the tier, and prices strictly slower under the surcharge.
        let (leveled_result, leveled_stats) = case.run_tiered(Some(DEEP));
        if leveled_result != flat_result {
            checks.push("LEVELED RESULT DIFFERS");
        }
        if leveled_stats.volume != flat_stats.volume {
            checks.push("LEVELED VOLUME DIFFERS");
        }
        if leveled_stats.level(DEEP.raw()).loads != flat_stats.volume.loads
            || leveled_stats.level(DEEP.raw()).stores != flat_stats.volume.stores
        {
            checks.push("PER-LEVEL TRAFFIC WRONG");
        }
        let flat_time = modelled_time(&case.schedule, &model, 0, Some(case.memory));
        let leveled = case.schedule.with_transfer_level(DEEP);
        let leveled_time = modelled_time(&leveled, &model, 0, Some(case.memory));
        if flat_stats.volume.loads + flat_stats.volume.stores > 0
            && leveled_time.total_ns() <= flat_time.total_ns()
        {
            checks.push("SURCHARGE NOT PRICED");
        }

        // Gate 3: v2 dump for leveled schedules, byte-identical v1 dump
        // after collapsing back.
        if case.schedule.text_version() != 1 || leveled.text_version() != 2 {
            checks.push("WRONG DUMP VERSION");
        }
        if leveled.with_transfer_level(Level::default()).dump() != case.schedule.dump() {
            checks.push("COLLAPSED DUMP DIFFERS");
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
            "{:<24} {:>8} {:>8} {:>14.1} {:>14.1}  {}",
            case.algorithm,
            flat_stats.volume.loads,
            flat_stats.volume.stores,
            flat_time.total_ns(),
            leveled_time.total_ns(),
            check
        );
        rows.push(Row {
            algorithm: case.algorithm,
            memory: case.memory,
            loads: flat_stats.volume.loads,
            stores: flat_stats.volume.stores,
            flat_ns: flat_time.total_ns(),
            leveled_ns: leveled_time.total_ns(),
        });
    }

    // Sharded gate: C on shard 0 (home), A on shard 1 — cross-shard volume
    // is the A traffic, triangle blocks must cut it into the band.
    let (n, m, s, nodes) = (120usize, 16usize, 10usize, 4usize);
    let a: Matrix<f64> = random_matrix_seeded(n, m, 7800);
    let mut expected = SymMatrix::zeros(n);
    syrk_sym(1.0, &a, 1.0, &mut expected).unwrap();
    let square = sharded(
        &a,
        &expected,
        nodes,
        s,
        SyrkAlgorithm::SquareBlocks,
        &mut failures,
    );
    let triangle = sharded(&a, &expected, nodes, s, SyrkAlgorithm::Tbs, &mut failures);
    let ratio = triangle.total_cross() as f64 / square.total_cross() as f64;
    println!(
        "\nsharded n={n} m={m} S={s} nodes={nodes}: cross-shard square {} triangle {} ratio {ratio:.4}",
        square.total_cross(),
        triangle.total_cross(),
    );
    if !(RATIO_BAND.0..=RATIO_BAND.1).contains(&ratio) {
        eprintln!(
            "FAIL: cross-shard ratio {ratio:.4} outside [{}, {}]",
            RATIO_BAND.0, RATIO_BAND.1
        );
        failures += 1;
    }
    if triangle.max_cross() >= square.max_cross() {
        eprintln!(
            "FAIL: triangle bottleneck {} did not beat square {}",
            triangle.max_cross(),
            square.max_cross()
        );
        failures += 1;
    }

    if !smoke {
        write_json(&rows, &square, &triangle, ratio);
        println!(
            "wrote bench/BENCH_multilevel.json ({} builder rows)",
            rows.len()
        );
    }

    println!("\n{failures} failure(s)");
    if failures > 0 {
        std::process::exit(1);
    }
}
