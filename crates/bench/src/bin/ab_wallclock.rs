//! A/B sweep of wall-clock as a metric: modelled nanoseconds (latency
//! machine) and real elapsed nanoseconds for every schedule builder at
//! lookaheads 0 / 1 / 2, plus blocked-vs-naive micro-kernel timings and a
//! file-backed slow-memory cross-check.
//!
//! For each (algorithm, instance, lookahead) the binary
//!
//! 1. prices the schedule without executing it with [`modelled_time`] under
//!    the NVMe [`MachineModel`] — the deterministic wall-clock prediction;
//! 2. executes the schedule for real inside a [`LatencyMachine`] and asserts
//!    the measured model time is **bitwise equal** to the prediction, the
//!    slow-memory results are bitwise identical to the lookahead-0 run, and
//!    the modelled total never *increases* with the lookahead (prefetching
//!    must never be modelled slower);
//! 3. times the same execution for real (`time_median`, warm-up + median of
//!    N) and reports both clocks side by side.
//!
//! The update-style paper kernels (tiled TBS, OOC-GEMM) must additionally
//! show a strictly positive modelled speedup at `lookahead = 1`. The blocked
//! micro-kernels must agree bitwise with the naive reference kernels and not
//! run slower than `1/MICRO_SLACK` of their speed; and the lookahead-0
//! replay against the file-backed slow memory must reproduce the simulated
//! machine's results and accounting exactly. Any violation exits non-zero —
//! this is the CI smoke gate (`--smoke` runs the small instance set and
//! skips the JSON dump).
//!
//! A full run additionally writes `bench/BENCH_wallclock.json` with one record per
//! (algorithm, lookahead) and per micro-kernel timing.
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_wallclock            # full sweep + JSON
//! cargo run --release -p symla-bench --bin ab_wallclock -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use std::time::Duration;
use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
    OocCholPlan, OocGemmPlan, OocLuPlan, OocSyrkPlan, OocTrsmPlan,
};
use symla_bench::harness::time_median;
use symla_core::engine::{modelled_time, Engine, EngineConfig, Schedule};
use symla_core::plan::{LbcPlan, TbsPlan, TbsTiledPlan};
use symla_core::{lbc_schedule, tbs_schedule, tbs_tiled_schedule};
use symla_matrix::generate::{
    random_lower_triangular, random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_matrix::kernels::micro::{ger_view_blocked, spr_lower_view_blocked, DEFAULT_ROW_TILE};
use symla_matrix::kernels::views::{ger_view, spr_lower_view};
use symla_matrix::packed::packed_len;
use symla_matrix::views::{MatViewMut, PackedLowerViewMut};
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::{
    FileSlowMemory, LatencyMachine, MachineConfig, MachineModel, MatrixId, OocMachine, PanelRef,
    SymWindowRef, TimeStats,
};

/// How much slower than the naive reference a blocked micro-kernel may
/// measure before the gate fails. Real elapsed time is noisy in shared CI
/// runners, so the gate only rejects catastrophic regressions; the expected
/// (and full-sweep-reported) ratio is >= 1.
const MICRO_SLACK: f64 = 2.0;

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
    /// Whether the acceptance gate demands a strictly positive modelled
    /// speedup at lookahead 1 for this case.
    must_speed_up: bool,
}

impl Case {
    /// Executes the schedule at the given lookahead inside a
    /// [`LatencyMachine`], returning the final slow-memory contents and the
    /// measured model time.
    fn execute_timed(&self, model: &MachineModel, lookahead: usize) -> (Vec<Mat>, TimeStats) {
        let config = EngineConfig::with_lookahead(lookahead);
        let mut machine = LatencyMachine::new(
            OocMachine::<f64>::new(MachineConfig::with_capacity(self.memory)),
            *model,
        );
        for (i, mat) in self.mats.iter().enumerate() {
            let got = match mat {
                Mat::Dense(m) => machine.inner_mut().insert_dense(m.clone()),
                Mat::Sym(s) => machine.inner_mut().insert_symmetric(s.clone()),
            };
            assert_eq!(got, MatrixId::synthetic(i as u64));
        }
        Engine::execute_with(&mut machine, &self.schedule, &config)
            .expect("schedule must execute within its planned capacity");
        let time = machine.time();
        let mut inner = machine.into_inner();
        let out = self
            .mats
            .iter()
            .enumerate()
            .map(|(i, mat)| {
                let id = MatrixId::synthetic(i as u64);
                match mat {
                    Mat::Dense(_) => Mat::Dense(inner.take_dense(id).unwrap()),
                    Mat::Sym(_) => Mat::Sym(inner.take_symmetric(id).unwrap()),
                }
            })
            .collect();
        (out, time)
    }

    /// Real elapsed time of one full execution (machine setup + replay) at
    /// the given lookahead: warm-up plus median of `samples`.
    fn real_elapsed(&self, lookahead: usize, samples: usize) -> Duration {
        let config = EngineConfig::with_lookahead(lookahead);
        time_median(1, samples, || {
            let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(self.memory));
            for mat in &self.mats {
                match mat {
                    Mat::Dense(m) => machine.insert_dense(m.clone()),
                    Mat::Sym(s) => machine.insert_symmetric(s.clone()),
                };
            }
            Engine::execute_with(&mut machine, &self.schedule, &config).expect("replay");
            machine
        })
    }

    /// Replays the schedule (lookahead 0) against the **file-backed** slow
    /// memory and returns its results and stats for the cross-check against
    /// the simulated machine.
    fn execute_file_backed(&self) -> (Vec<Mat>, symla_memory::IoStats) {
        let mut machine = FileSlowMemory::<f64>::with_capacity(self.memory)
            .expect("create file-backed slow memory");
        for (i, mat) in self.mats.iter().enumerate() {
            let got = match mat {
                Mat::Dense(m) => machine.insert_dense(m.clone()),
                Mat::Sym(s) => machine.insert_symmetric(s.clone()),
            }
            .expect("write operand to backing file");
            assert_eq!(got, MatrixId::synthetic(i as u64));
        }
        Engine::execute(&mut machine, &self.schedule).expect("file-backed replay");
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

    /// Plain simulated replay (lookahead 0): results and stats, for the
    /// file-backed cross-check.
    fn execute_simulated(&self) -> (Vec<Mat>, symla_memory::IoStats) {
        let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(self.memory));
        for (i, mat) in self.mats.iter().enumerate() {
            let got = match mat {
                Mat::Dense(m) => machine.insert_dense(m.clone()),
                Mat::Sym(s) => machine.insert_symmetric(s.clone()),
            };
            assert_eq!(got, MatrixId::synthetic(i as u64));
        }
        Engine::execute(&mut machine, &self.schedule).expect("simulated replay");
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

fn syrk_case(algorithm: &str, n: usize, m: usize, s: usize, must_speed_up: bool) -> Case {
    let a: Matrix<f64> = random_matrix_seeded(n, m, 6100 + n as u64);
    let mut rng = seeded_rng(6200 + n as u64);
    let c: SymMatrix<f64> = random_symmetric(n, &mut rng);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let schedule = match algorithm {
        "tbs" => tbs_schedule(&a_ref, &c_ref, 1.0, &TbsPlan::for_memory(s).unwrap()).unwrap(),
        "tbs_tiled" => tbs_tiled_schedule(
            &a_ref,
            &c_ref,
            1.0,
            &TbsTiledPlan::for_problem(s, n).unwrap(),
        )
        .unwrap(),
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
        must_speed_up,
    }
}

fn cholesky_case(algorithm: &str, n: usize, s: usize) -> Case {
    let spd: SymMatrix<f64> = random_spd_seeded(n, 6300 + n as u64);
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
        must_speed_up: false,
    }
}

fn trsm_case(m: usize, b: usize, s: usize) -> Case {
    let mut rng = seeded_rng(6400 + b as u64);
    let lfac = random_lower_triangular::<f64>(b, &mut rng);
    let lsym = SymMatrix::from_lower_fn(b, |i, j| lfac.get(i, j));
    let x: Matrix<f64> = random_matrix_seeded(m, b, 6500 + m as u64);
    let l_ref = SymWindowRef::full(MatrixId::synthetic(0), b);
    let x_ref = PanelRef::dense(MatrixId::synthetic(1), m, b);
    Case {
        algorithm: format!("ooc_trsm m={m} b={b}"),
        memory: s,
        schedule: ooc_trsm_schedule(&l_ref, &x_ref, &OocTrsmPlan::for_memory(s).unwrap()).unwrap(),
        mats: vec![Mat::Sym(lsym), Mat::Dense(x)],
        must_speed_up: false,
    }
}

fn gemm_case(n: usize, m: usize, p: usize, s: usize) -> Case {
    let ga: Matrix<f64> = random_matrix_seeded(n, m, 6600);
    let gb: Matrix<f64> = random_matrix_seeded(m, p, 6601);
    let gc: Matrix<f64> = random_matrix_seeded(n, p, 6602);
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
        must_speed_up: true,
    }
}

fn lu_case(n: usize, s: usize) -> Case {
    let mut lu = random_matrix_seeded::<f64>(n, n, 6700);
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
        must_speed_up: false,
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

/// One (algorithm, lookahead) row of the JSON dump.
struct Row {
    algorithm: String,
    memory: usize,
    lookahead: usize,
    time: TimeStats,
    real: Duration,
}

/// Times the blocked micro-kernels against their naive references on the
/// shapes the engine actually feeds them: tall-skinny panels whose `x`
/// exceeds L1, where row-tiling pays (the reference re-streams `x` per
/// column; the tile stays cache-hot across all columns). Returns
/// `(name, naive_median, blocked_median, bitwise_equal)` per kernel.
fn micro_kernel_timings(samples: usize) -> Vec<(&'static str, Duration, Duration, bool)> {
    let rows = 120_000;
    let cols = 10;
    let x: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.37).sin()).collect();
    let y: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.73).cos()).collect();
    let dense0: Vec<f64> = random_matrix_seeded::<f64>(rows, cols, 6800)
        .as_slice()
        .to_vec();
    let n = 900;
    let packed0: Vec<f64> = (0..packed_len(n)).map(|i| (i % 97) as f64 * 0.01).collect();

    let mut out = Vec::new();

    let mut naive_result = dense0.clone();
    let naive = time_median(1, samples, || {
        naive_result.copy_from_slice(&dense0);
        let mut v = MatViewMut::new(&mut naive_result, rows, cols).unwrap();
        ger_view(1.0625, &x, &y, &mut v).unwrap();
    });
    let mut blocked_result = dense0.clone();
    let blocked = time_median(1, samples, || {
        blocked_result.copy_from_slice(&dense0);
        let mut v = MatViewMut::new(&mut blocked_result, rows, cols).unwrap();
        ger_view_blocked(1.0625, &x, &y, &mut v, DEFAULT_ROW_TILE).unwrap();
    });
    out.push(("ger", naive, blocked, naive_result == blocked_result));

    let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin()).collect();
    let mut naive_result = packed0.clone();
    let naive = time_median(1, samples, || {
        naive_result.copy_from_slice(&packed0);
        let mut v = PackedLowerViewMut::new(&mut naive_result, n).unwrap();
        spr_lower_view(-0.5, &xs, &mut v).unwrap();
    });
    let mut blocked_result = packed0.clone();
    let blocked = time_median(1, samples, || {
        blocked_result.copy_from_slice(&packed0);
        let mut v = PackedLowerViewMut::new(&mut blocked_result, n).unwrap();
        spr_lower_view_blocked(-0.5, &xs, &mut v, DEFAULT_ROW_TILE).unwrap();
    });
    out.push(("spr_lower", naive, blocked, naive_result == blocked_result));

    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(
    rows: &[Row],
    kernels: &[(&'static str, Duration, Duration, bool)],
    model: &MachineModel,
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"model\": {{ \"load_ns_per_elem\": {}, \"store_ns_per_elem\": {}, \
         \"fixed_event_ns\": {}, \"flop_ns\": {} }},",
        model.load_ns_per_elem, model.store_ns_per_elem, model.fixed_event_ns, model.flop_ns
    );
    out.push_str("  \"runs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"algorithm\": \"{}\", \"memory\": {}, \"lookahead\": {}, \
             \"modelled_ns\": {:.3}, \"io_ns\": {:.3}, \"compute_ns\": {:.3}, \
             \"hidden_ns\": {:.3}, \"modelled_speedup\": {:.6}, \"real_ns\": {} }}{}",
            json_escape(&row.algorithm),
            row.memory,
            row.lookahead,
            row.time.total_ns(),
            row.time.io_ns,
            row.time.compute_ns,
            row.time.hidden_ns,
            row.time.speedup(),
            row.real.as_nanos(),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"kernels\": [\n");
    for (i, (name, naive, blocked, bitwise)) in kernels.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"kernel\": \"{}\", \"naive_ns\": {}, \"blocked_ns\": {}, \
             \"bitwise_equal\": {} }}{}",
            name,
            naive.as_nanos(),
            blocked.as_nanos(),
            bitwise,
            if i + 1 == kernels.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::create_dir_all("bench")?;
    std::fs::write("bench/BENCH_wallclock.json", out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let samples = if smoke { 3 } else { 5 };
    let model = MachineModel::nvme();

    println!(
        "{:<26} {:>4} {:>2} {:>14} {:>12} {:>8} {:>12}  check",
        "algorithm", "S", "L", "modelled ns", "hidden ns", "speedup", "real",
    );
    let mut failures = 0;
    let mut rows: Vec<Row> = Vec::new();
    for case in cases(smoke) {
        let mut baseline: Option<Vec<Mat>> = None;
        let mut serial_ns = 0.0_f64;
        let mut prev_ns = f64::INFINITY;
        for lookahead in [0usize, 1, 2] {
            let (result, measured) = case.execute_timed(&model, lookahead);
            let modelled = modelled_time(&case.schedule, &model, lookahead, Some(case.memory));
            let real = case.real_elapsed(lookahead, samples);
            let mut checks: Vec<&str> = Vec::new();
            if measured.io_ns.to_bits() != modelled.io_ns.to_bits()
                || measured.compute_ns.to_bits() != modelled.compute_ns.to_bits()
                || measured.hidden_ns.to_bits() != modelled.hidden_ns.to_bits()
                || measured.groups != modelled.groups
            {
                checks.push("MODEL DIVERGED");
            }
            match &baseline {
                None => {
                    baseline = Some(result);
                    serial_ns = measured.total_ns();
                }
                Some(base) => {
                    if &result != base {
                        checks.push("RESULT DIFFERS");
                    }
                }
            }
            if measured.total_ns() > prev_ns {
                checks.push("MODELLED TIME GREW");
            }
            if lookahead == 1 && case.must_speed_up && measured.total_ns() >= serial_ns {
                checks.push("NO SPEEDUP");
            }
            prev_ns = measured.total_ns();
            let check = if checks.is_empty() {
                "ok".to_string()
            } else {
                checks.join(" + ")
            };
            if check != "ok" {
                failures += 1;
            }
            println!(
                "{:<26} {:>4} {:>2} {:>14.1} {:>12.1} {:>7.3}x {:>12.1?}  {}",
                case.algorithm,
                case.memory,
                lookahead,
                measured.total_ns(),
                measured.hidden_ns,
                if measured.total_ns() > 0.0 {
                    serial_ns / measured.total_ns()
                } else {
                    1.0
                },
                real,
                check
            );
            rows.push(Row {
                algorithm: case.algorithm.clone(),
                memory: case.memory,
                lookahead,
                time: measured,
                real,
            });
        }

        // File-backed cross-check: the on-disk slow memory must reproduce
        // the simulated machine's results and accounting exactly.
        let (sim_result, sim_stats) = case.execute_simulated();
        let (file_result, file_stats) = case.execute_file_backed();
        if file_result != sim_result {
            eprintln!("FAIL: {}: file-backed result differs", case.algorithm);
            failures += 1;
        }
        if file_stats != sim_stats {
            eprintln!("FAIL: {}: file-backed stats differ", case.algorithm);
            failures += 1;
        }
    }

    println!("\nmicro-kernels (in-memory; ger 120000x10, spr_lower n=900):");
    let kernels = micro_kernel_timings(if smoke { 5 } else { 15 });
    for (name, naive, blocked, bitwise) in &kernels {
        let ratio = naive.as_secs_f64() / blocked.as_secs_f64().max(f64::MIN_POSITIVE);
        let mut checks: Vec<&str> = Vec::new();
        if !bitwise {
            checks.push("NOT BITWISE EQUAL");
        }
        if ratio < 1.0 / MICRO_SLACK {
            checks.push("BLOCKED KERNEL SLOW");
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
            "  {name:<12} naive {naive:>12?}  blocked {blocked:>12?}  speedup {ratio:>6.2}x  {check}"
        );
    }

    if !smoke {
        write_json(&rows, &kernels, &model).expect("write bench/BENCH_wallclock.json");
        println!(
            "\nwrote bench/BENCH_wallclock.json ({} run rows)",
            rows.len()
        );
    }

    println!("\n{failures} failure(s)");
    if failures > 0 {
        std::process::exit(1);
    }
}
