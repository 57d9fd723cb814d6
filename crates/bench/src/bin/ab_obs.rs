//! A/B gate for the observability layer: observation must be *faithful*
//! (an observed replay is bitwise the unobserved replay), *consistent*
//! (the executed trace prices out exactly like the symbolic replay and the
//! [`RunReport`](symla_obs::RunReport) counters equal the engine's
//! [`IoStats`] field for field) and *free when disabled* (replaying through
//! a [`NullObserver`] is indistinguishable from no instrumentation).
//!
//! For each (algorithm, lookahead) the binary
//!
//! 1. replays the schedule unobserved and again inside an
//!    [`InstrumentedMachine`] feeding a [`TraceRecorder`], asserting
//!    bitwise-identical slow-memory results and equal [`IoStats`];
//! 2. exports the executed trace on the **modelled** timebase and asserts it
//!    is **byte-equal** to the export of [`modelled_run_trace`], the same
//!    replay over a data-less machine — the timeline a trace viewer shows
//!    is exactly the deterministic wall-clock model, independent of host
//!    noise;
//! 3. records the observed run's [`IoStats`] into a [`MetricsRegistry`] and
//!    asserts every exported counter equals the corresponding stats field;
//! 4. validates every Chrome-trace export with the crate's own JSON parser.
//!
//! One overhead check per case replays the schedule through a
//! `NullObserver`-instrumented machine and compares against the plain
//! machine (median of N): the disabled path must not be more than
//! [`OBS_SLACK`]× slower (real elapsed time is noisy in shared CI runners,
//! so the gate only rejects catastrophic regressions). Finally a parallel
//! prefetched TBS SYRK (`P = 4`, `L = 2`) is traced end to end and must yield a
//! Perfetto-loadable file with one track per worker, per-group spans and at
//! least one prefetch issue→delivery arrow.
//!
//! Any violation exits non-zero — this is the CI smoke gate (`--smoke` runs
//! the small instance set and skips the JSON dump). A full run additionally
//! writes `bench/BENCH_obs.json` with one record per (algorithm, lookahead)
//! plus the overhead timings.
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_obs            # full sweep + JSON
//! cargo run --release -p symla-bench --bin ab_obs -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use std::time::Duration;
use symla_baselines::{ooc_gemm_schedule, ooc_syrk_schedule, OocGemmPlan, OocSyrkPlan};
use symla_bench::harness::time_median;
use symla_core::api::{syrk_out_of_core_with, RunOptions, SyrkAlgorithm};
use symla_core::engine::{modelled_run_trace, Engine, EngineConfig, Schedule};
use symla_core::plan::{LbcPlan, TbsPlan};
use symla_core::{lbc_schedule, tbs_schedule};
use symla_matrix::generate::{
    random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::{
    IoStats, MachineConfig, MachineModel, MatrixId, OocMachine, PanelRef, SymWindowRef,
};
use symla_obs::{
    json, EventKind, InstrumentedMachine, MetricsRegistry, NullObserver, RunTrace, TimeBase,
    TraceRecorder,
};

/// How much slower than the plain machine the `NullObserver`-instrumented
/// replay may measure before the gate fails. The expected ratio is 1.0 (one
/// inlined boolean test per hook); the slack absorbs scheduler noise on
/// shared CI runners.
const OBS_SLACK: f64 = 2.0;

/// Parallel-trace attempts: thread start-up order decides whether all four
/// workers claim work before the queue drains, so the gate retries a few
/// times and accepts the first fully-populated trace.
const PARALLEL_ATTEMPTS: usize = 10;

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
    fn fresh_machine(&self) -> OocMachine<f64> {
        let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(self.memory));
        for (i, mat) in self.mats.iter().enumerate() {
            let got = match mat {
                Mat::Dense(m) => machine.insert_dense(m.clone()),
                Mat::Sym(s) => machine.insert_symmetric(s.clone()),
            };
            assert_eq!(got, MatrixId::synthetic(i as u64));
        }
        machine
    }

    fn take_all(&self, machine: &mut OocMachine<f64>) -> Vec<Mat> {
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

    /// Unobserved replay: results and stats.
    fn execute_plain(&self, lookahead: usize) -> (Vec<Mat>, IoStats) {
        let mut machine = self.fresh_machine();
        Engine::execute_with(
            &mut machine,
            &self.schedule,
            &EngineConfig::with_lookahead(lookahead),
        )
        .expect("plain replay");
        let stats = machine.stats().clone();
        (self.take_all(&mut machine), stats)
    }

    /// Observed replay: results, stats and the recorded trace.
    fn execute_observed(
        &self,
        model: &MachineModel,
        lookahead: usize,
    ) -> (Vec<Mat>, IoStats, RunTrace) {
        let recorder = TraceRecorder::new();
        let mut machine =
            InstrumentedMachine::new(self.fresh_machine(), *model, recorder.clone(), 0);
        Engine::execute_with(
            &mut machine,
            &self.schedule,
            &EngineConfig::with_lookahead(lookahead),
        )
        .expect("observed replay");
        let mut inner = machine.into_inner();
        let stats = inner.stats().clone();
        (self.take_all(&mut inner), stats, recorder.finish())
    }

    /// Median real elapsed time of one full replay, through `instrumented`
    /// (`NullObserver`) or the bare machine.
    fn real_elapsed(&self, lookahead: usize, samples: usize, instrumented: bool) -> Duration {
        let config = EngineConfig::with_lookahead(lookahead);
        let model = MachineModel::nvme();
        time_median(1, samples, || {
            if instrumented {
                let mut machine =
                    InstrumentedMachine::new(self.fresh_machine(), model, NullObserver, 0);
                Engine::execute_with(&mut machine, &self.schedule, &config).expect("replay");
            } else {
                let mut machine = self.fresh_machine();
                Engine::execute_with(&mut machine, &self.schedule, &config).expect("replay");
            }
        })
    }
}

fn syrk_case(algorithm: &str, n: usize, m: usize, s: usize) -> Case {
    let a: Matrix<f64> = random_matrix_seeded(n, m, 6900 + n as u64);
    let mut rng = seeded_rng(6950 + n as u64);
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

fn lbc_case(n: usize, s: usize) -> Case {
    let spd: SymMatrix<f64> = random_spd_seeded(n, 6970 + n as u64);
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    Case {
        algorithm: format!("lbc n={n}"),
        memory: s,
        schedule: lbc_schedule(&window, &LbcPlan::for_problem(n, s).unwrap()).unwrap(),
        mats: vec![Mat::Sym(spd)],
    }
}

fn gemm_case(n: usize, m: usize, p: usize, s: usize) -> Case {
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
        mats: vec![
            Mat::Dense(random_matrix_seeded(n, m, 6980)),
            Mat::Dense(random_matrix_seeded(m, p, 6981)),
            Mat::Dense(random_matrix_seeded(n, p, 6982)),
        ],
    }
}

fn cases(smoke: bool) -> Vec<Case> {
    let mut cases = vec![
        syrk_case("tbs", 30, 6, 60),
        syrk_case("tbs_tiled", 40, 6, 60),
        syrk_case("ooc_syrk", 20, 5, 35),
        lbc_case(36, 48),
        gemm_case(9, 7, 11, 35),
    ];
    if !smoke {
        cases.extend([
            syrk_case("tbs", 52, 8, 90),
            syrk_case("tbs_tiled", 80, 10, 120),
            lbc_case(48, 80),
            gemm_case(14, 10, 14, 48),
        ]);
    }
    cases
}

/// Asserts that every counter `record_io_stats` exports equals the
/// corresponding [`IoStats`] field. Returns `false` on any mismatch.
fn report_matches(stats: &IoStats) -> bool {
    let mut registry = MetricsRegistry::new();
    registry.record_io_stats("engine", stats);
    let pairs: [(&str, u128); 9] = [
        ("engine.loads.elements", stats.volume.loads.into()),
        ("engine.stores.elements", stats.volume.stores.into()),
        ("engine.load.events", stats.load_events.into()),
        ("engine.store.events", stats.store_events.into()),
        (
            "engine.prefetched.elements",
            stats.prefetched_elements.into(),
        ),
        ("engine.prefetch.events", stats.prefetch_events.into()),
        ("engine.flops.mults", stats.flops.mults),
        ("engine.flops.adds", stats.flops.adds),
        ("engine.peak_resident", stats.peak_resident as u128),
    ];
    pairs
        .iter()
        .all(|(name, want)| registry.counter(name) == *want)
        && json::validate(&registry.to_json()).is_ok()
}

/// One (algorithm, lookahead) row of the JSON dump.
struct Row {
    algorithm: String,
    memory: usize,
    lookahead: usize,
    events: usize,
    export_bytes: usize,
    prefetched_elements: u64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(rows: &[Row], overheads: &[(String, Duration, Duration)]) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"algorithm\": \"{}\", \"memory\": {}, \"lookahead\": {}, \
             \"events\": {}, \"export_bytes\": {}, \"prefetched_elements\": {} }}{}",
            json_escape(&row.algorithm),
            row.memory,
            row.lookahead,
            row.events,
            row.export_bytes,
            row.prefetched_elements,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"overhead\": [\n");
    for (i, (algorithm, plain, null_obs)) in overheads.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"algorithm\": \"{}\", \"plain_ns\": {}, \"null_observer_ns\": {} }}{}",
            json_escape(algorithm),
            plain.as_nanos(),
            null_obs.as_nanos(),
            if i + 1 == overheads.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::create_dir_all("bench")?;
    std::fs::write("bench/BENCH_obs.json", out)
}

/// The parallel end-to-end gate: traces a prefetched parallel SYRK and
/// checks the exported timeline. Returns the failed checks of the last
/// attempt (empty on success).
fn parallel_gate(workers: usize, lookahead: usize) -> Vec<&'static str> {
    let (n, m, s) = (280usize, 64usize, 400usize);
    let a: Matrix<f64> = random_matrix_seeded(n, m, 7100);
    let model = MachineModel::nvme();

    let plain = RunOptions::new().workers(workers).lookahead(lookahead);
    let mut reference = SymMatrix::zeros(n);
    syrk_out_of_core_with(&a, &mut reference, 1.0, s, SyrkAlgorithm::Tbs, &plain)
        .expect("plain parallel run");

    let mut checks: Vec<&'static str> = Vec::new();
    for attempt in 0..PARALLEL_ATTEMPTS {
        checks.clear();
        let recorder = TraceRecorder::new();
        let traced = plain.clone().traced(&model, &recorder);
        let mut c = SymMatrix::zeros(n);
        let run = syrk_out_of_core_with(&a, &mut c, 1.0, s, SyrkAlgorithm::Tbs, &traced)
            .expect("traced parallel run");
        let trace = run.trace.expect("a traced run returns its trace");

        if c != reference {
            checks.push("RESULT DIFFERS");
        }
        let busy = run.workers.iter().filter(|w| !w.groups.is_empty()).count();
        if busy < workers || trace.workers() < workers {
            checks.push("IDLE WORKER");
        }
        let issues = trace.count(|k| matches!(k, EventKind::PrefetchIssue { .. }));
        let deliveries = trace.count(|k| matches!(k, EventKind::PrefetchDelivery { .. }));
        if issues == 0 || deliveries == 0 {
            checks.push("NO PREFETCH ARROW");
        }
        let claims = trace.count(|k| matches!(k, EventKind::Claim { .. }));
        let spans = trace.count(|k| matches!(k, EventKind::GroupStart { .. }));
        if claims != spans || spans != trace.count(|k| matches!(k, EventKind::GroupEnd { .. })) {
            checks.push("UNBALANCED SPANS");
        }
        let export = trace.to_chrome_trace(&[TimeBase::Measured]);
        if json::validate(&export).is_err() {
            checks.push("BAD JSON");
        }
        if (0..workers).any(|w| !export.contains(&format!("\"worker {w}\""))) {
            checks.push("MISSING TRACK");
        }
        if checks.is_empty() {
            println!(
                "parallel TBS n={n} m={m} S={s} P={workers} L={lookahead}: \
                 {} events, {issues} issues, {deliveries} deliveries, \
                 attempt {attempt}  ok",
                trace.len()
            );
            return checks;
        }
    }
    checks
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let samples = if smoke { 5 } else { 9 };
    let model = MachineModel::nvme();

    println!(
        "{:<24} {:>4} {:>2} {:>8} {:>12}  check",
        "algorithm", "S", "L", "events", "export B",
    );
    let mut failures = 0;
    let mut rows: Vec<Row> = Vec::new();
    let mut overheads: Vec<(String, Duration, Duration)> = Vec::new();
    for case in cases(smoke) {
        for lookahead in [0usize, 1, 2] {
            let (plain_result, plain_stats) = case.execute_plain(lookahead);
            let (obs_result, obs_stats, trace) = case.execute_observed(&model, lookahead);
            let mut checks: Vec<&str> = Vec::new();
            if obs_result != plain_result {
                checks.push("RESULT DIFFERS");
            }
            if obs_stats != plain_stats {
                checks.push("STATS DIFFER");
            }
            if !report_matches(&obs_stats) {
                checks.push("REPORT MISMATCH");
            }
            let executed = trace.to_chrome_trace(&[TimeBase::Modelled]);
            let synthesized =
                modelled_run_trace(&case.schedule, &model, lookahead, Some(case.memory))
                    .to_chrome_trace(&[TimeBase::Modelled]);
            if executed != synthesized {
                checks.push("TRACE DIVERGED");
            }
            if json::validate(&executed).is_err()
                || json::validate(&trace.to_chrome_trace(&[TimeBase::Measured])).is_err()
            {
                checks.push("BAD JSON");
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
                "{:<24} {:>4} {:>2} {:>8} {:>12}  {}",
                case.algorithm,
                case.memory,
                lookahead,
                trace.len(),
                executed.len(),
                check
            );
            rows.push(Row {
                algorithm: case.algorithm.clone(),
                memory: case.memory,
                lookahead,
                events: trace.len(),
                export_bytes: executed.len(),
                prefetched_elements: obs_stats.prefetched_elements,
            });
        }

        // Disabled-observer overhead: the NullObserver path must be
        // indistinguishable from the plain machine, up to CI noise.
        let plain = case.real_elapsed(1, samples, false);
        let null_obs = case.real_elapsed(1, samples, true);
        let ratio = null_obs.as_secs_f64() / plain.as_secs_f64().max(f64::MIN_POSITIVE);
        let slack = Duration::from_micros(200);
        let check = if null_obs > plain.mul_f64(OBS_SLACK) + slack {
            failures += 1;
            "DISABLED OBSERVER SLOW"
        } else {
            "ok"
        };
        println!(
            "  overhead: plain {plain:>10?}  null-observer {null_obs:>10?}  \
             ratio {ratio:>5.2}x  {check}"
        );
        overheads.push((case.algorithm.clone(), plain, null_obs));
    }

    println!("\nparallel end-to-end trace:");
    let parallel_checks = parallel_gate(4, 2);
    if !parallel_checks.is_empty() {
        eprintln!("FAIL: parallel trace: {}", parallel_checks.join(" + "));
        failures += 1;
    }

    if !smoke {
        write_json(&rows, &overheads).expect("write bench/BENCH_obs.json");
        println!("\nwrote bench/BENCH_obs.json ({} run rows)", rows.len());
    }

    println!("\n{failures} failure(s)");
    if failures > 0 {
        std::process::exit(1);
    }
}
