//! A/B harness of the plan cache and serve layer: cold-compile vs warm-hit
//! plan acquisition, single-flight throughput under concurrent callers, and
//! bitwise identity of cached execution.
//!
//! For every builder the serve layer covers (3 SYRK schedules, 2 Cholesky
//! schedules, OOC-GEMM, 2 parallel partition strategies) × pass pipeline ×
//! lookahead, the binary
//!
//! 1. times the **cold** plan acquisition (compile: build the schedule IR,
//!    run the pass pipeline, plan the prefetch lookahead) and the **warm**
//!    acquisition (content-addressed cache hit) on the same
//!    [`PlanService`], asserting via [`symla_plancache::CacheStats`] that the warm path
//!    performed zero compiles;
//! 2. executes every case twice — direct API vs cached serve path — and
//!    asserts the results are **bitwise identical**;
//! 3. hammers the same key set from several threads on a cold cache and
//!    reports plans/sec, asserting single-flight kept one compile per key.
//!
//! The process exits non-zero if any result diverges bitwise, any warm hit
//! recompiles, concurrency breaks single-flight, or the aggregate warm-hit
//! acquisition fails to be at least 10× faster than the cold compile — this
//! is the CI smoke gate (`--smoke` runs the small instance set only). The
//! full run additionally writes `bench/BENCH_plancache.json`.
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_plancache            # full sweep
//! cargo run --release -p symla-bench --bin ab_plancache -- --smoke # CI gate
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use symla_core::api::{
    cholesky_out_of_core_with, gemm_out_of_core_with, syrk_out_of_core_with, CholeskyAlgorithm,
    Job, RunOptions, SyrkAlgorithm,
};
use symla_core::parallel::{parallel_syrk, BlockStrategy};
use symla_core::passes::PassPipeline;
use symla_core::service::PlanService;
use symla_matrix::generate::{random_matrix_seeded, random_spd_seeded};
use symla_matrix::{Matrix, SymMatrix};
use symla_plancache::PlanSource;

/// One schedule builder exercised through the serve layer.
#[derive(Clone, Copy)]
enum Kernel {
    Syrk(SyrkAlgorithm),
    Cholesky(CholeskyAlgorithm),
    Gemm,
    ParallelSyrk(BlockStrategy),
}

struct Case {
    kernel: Kernel,
    label: String,
    n: usize,
    m: usize,
    p: usize,
    s: usize,
    pipeline: PassPipeline,
    lookahead: usize,
}

impl Case {
    fn new(
        kernel: Kernel,
        name: &str,
        (n, m, p, s): (usize, usize, usize, usize),
        pipeline: PassPipeline,
        lookahead: usize,
    ) -> Self {
        let pipe = if pipeline.is_noop() { "none" } else { "std" };
        Case {
            kernel,
            label: format!("{name} n={n} S={s} {pipe} L={lookahead}"),
            n,
            m,
            p,
            s,
            pipeline,
            lookahead,
        }
    }

    /// The direct run's options.
    fn options(&self) -> RunOptions<'static, f64> {
        RunOptions::new()
            .pipeline(self.pipeline.clone())
            .lookahead(self.lookahead)
    }

    /// Acquires (get-or-compile) this case's plan, returning where it came
    /// from. Pure plan work — no data is touched.
    fn acquire(&self, service: &PlanService<f64>) -> PlanSource {
        let (n, m, p, s) = (self.n, self.m, self.p, self.s);
        let job = match self.kernel {
            Kernel::Syrk(algorithm) => Job::Syrk {
                algorithm,
                n,
                m,
                alpha: 1.25,
                s,
            },
            Kernel::Cholesky(algorithm) => Job::Cholesky { algorithm, n, s },
            Kernel::Gemm => Job::Gemm {
                n,
                m,
                p,
                alpha: 1.25,
                s,
            },
            Kernel::ParallelSyrk(strategy) => {
                let lookup = service.syrk_parallel_plan(n, m, 1.25, s, strategy);
                return lookup.expect("plan compilation must succeed").source;
            }
        };
        let lookup = service.plan(&job, &self.options());
        lookup.expect("plan compilation must succeed").source
    }

    /// Executes the case once through the direct API and once through the
    /// serve path; returns whether the results were bitwise identical.
    fn bitwise_check(&self, service: &PlanService<f64>) -> bool {
        let direct_options = self.options();
        let served_options = self.options().cached(service);
        match self.kernel {
            Kernel::Syrk(algorithm) => {
                let a: Matrix<f64> = random_matrix_seeded(self.n, self.m, 9100);
                let run_on = |c: &mut SymMatrix<f64>, options| {
                    syrk_out_of_core_with(&a, c, 1.25, self.s, algorithm, options).unwrap()
                };
                let mut direct = SymMatrix::zeros(self.n);
                let run = run_on(&mut direct, &direct_options);
                let mut served = SymMatrix::zeros(self.n);
                let serve = run_on(&mut served, &served_options);
                served == direct && serve.report.stats.volume == run.report.stats.volume
            }
            Kernel::Cholesky(algorithm) => {
                let a: SymMatrix<f64> = random_spd_seeded(self.n, 9200);
                let run_on =
                    |options| cholesky_out_of_core_with(&a, self.s, algorithm, options).unwrap();
                let (direct, run) = run_on(&direct_options);
                let (served, serve) = run_on(&served_options);
                served == direct && serve.report.stats.volume == run.report.stats.volume
            }
            Kernel::Gemm => {
                let a: Matrix<f64> = random_matrix_seeded(self.n, self.m, 9300);
                let b: Matrix<f64> = random_matrix_seeded(self.m, self.p, 9301);
                let c0: Matrix<f64> = random_matrix_seeded(self.n, self.p, 9302);
                let run_on = |c: &mut Matrix<f64>, options| {
                    gemm_out_of_core_with(&a, &b, c, 1.25, self.s, options).unwrap()
                };
                let mut direct = c0.clone();
                let run = run_on(&mut direct, &direct_options);
                let mut served = c0.clone();
                let serve = run_on(&mut served, &served_options);
                served == direct && serve.report.stats.volume == run.report.stats.volume
            }
            Kernel::ParallelSyrk(strategy) => {
                let a: Matrix<f64> = random_matrix_seeded(self.n, self.m, 9400);
                let mut direct = SymMatrix::zeros(self.n);
                let report = parallel_syrk(&a, &mut direct, 1.25, 3, self.s, strategy).unwrap();
                let mut served = SymMatrix::zeros(self.n);
                let serve = service
                    .syrk_parallel(&a, &mut served, 1.25, 3, self.s, strategy, self.lookahead)
                    .unwrap();
                served == direct && serve.report.total_loads() == report.total_loads()
            }
        }
    }
}

/// The eight builders × pipeline × lookahead sweep. The parallel partition
/// cases carry pipeline `none` / lookahead 0 in the key (workers and
/// runtime lookahead are execution arguments, not plan inputs).
fn cases(smoke: bool) -> Vec<Case> {
    let (syrk_dims, chol_dims, gemm_dims, par_dims) = if smoke {
        (
            (40, 8, 0, 60),
            (36, 36, 0, 48),
            (18, 7, 13, 30),
            (40, 8, 0, 12),
        )
    } else {
        (
            (120, 12, 0, 150),
            (72, 72, 0, 120),
            (40, 16, 32, 64),
            (120, 16, 0, 10),
        )
    };
    let mut out = Vec::new();
    for pipeline in [PassPipeline::none(), PassPipeline::standard()] {
        for lookahead in [0usize, 1] {
            for (algorithm, name) in [
                (SyrkAlgorithm::Tbs, "tbs"),
                (SyrkAlgorithm::TbsTiled, "tbs_tiled"),
                (SyrkAlgorithm::SquareBlocks, "square_blocks"),
            ] {
                out.push(Case::new(
                    Kernel::Syrk(algorithm),
                    name,
                    syrk_dims,
                    pipeline.clone(),
                    lookahead,
                ));
            }
            for (algorithm, name) in [
                (CholeskyAlgorithm::Lbc, "lbc"),
                (CholeskyAlgorithm::Bereux, "bereux"),
            ] {
                out.push(Case::new(
                    Kernel::Cholesky(algorithm),
                    name,
                    chol_dims,
                    pipeline.clone(),
                    lookahead,
                ));
            }
            out.push(Case::new(
                Kernel::Gemm,
                "ooc_gemm",
                gemm_dims,
                pipeline.clone(),
                lookahead,
            ));
        }
    }
    for (strategy, name) in [
        (BlockStrategy::SquareTiles, "par_square"),
        (BlockStrategy::TriangleBlocks, "par_triangle"),
    ] {
        out.push(Case::new(
            Kernel::ParallelSyrk(strategy),
            name,
            par_dims,
            PassPipeline::none(),
            1,
        ));
    }
    out
}

/// Times one closure invocation.
fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Minimal JSON string escaping for the hand-rolled report.
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let warm_reps: u32 = if smoke { 200 } else { 1000 };
    let mut failures = 0;

    // -- phase 1: cold vs warm plan acquisition on one shared service -------
    let service = PlanService::<f64>::in_memory();
    let sweep = cases(smoke);
    println!(
        "{:<36} {:>12} {:>12} {:>9}  check",
        "case", "cold", "warm", "speedup"
    );
    let mut rows = Vec::new();
    let (mut cold_total, mut warm_total) = (Duration::ZERO, Duration::ZERO);
    for case in &sweep {
        let (source, cold) = time_once(|| case.acquire(&service));
        assert_eq!(
            source,
            PlanSource::Compiled,
            "{}: first acquisition",
            case.label
        );

        let before = service.stats();
        let start = Instant::now();
        for _ in 0..warm_reps {
            let source = case.acquire(&service);
            assert_eq!(
                source,
                PlanSource::Memory,
                "{}: warm acquisition",
                case.label
            );
        }
        let warm = start.elapsed() / warm_reps;
        let after = service.stats();

        let mut checks: Vec<&str> = Vec::new();
        if after.compiles != before.compiles {
            checks.push("WARM PATH COMPILED");
        }
        if after.hits != before.hits + warm_reps as u64 {
            checks.push("HITS MISCOUNTED");
        }
        let check = if checks.is_empty() {
            "ok".to_string()
        } else {
            checks.join(" + ")
        };
        if check != "ok" {
            failures += 1;
        }
        let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
        println!(
            "{:<36} {:>12} {:>12} {:>8.0}x  {}",
            case.label,
            format!("{cold:.2?}"),
            format!("{warm:.2?}"),
            speedup,
            check
        );
        cold_total += cold;
        warm_total += warm;
        rows.push((case.label.clone(), cold, warm, speedup));
    }
    let aggregate = cold_total.as_secs_f64() / warm_total.as_secs_f64().max(1e-12);
    println!(
        "\naggregate: cold {cold_total:.2?} vs warm {warm_total:.2?} per acquisition — {aggregate:.0}x"
    );
    if aggregate < 10.0 {
        eprintln!("FAIL: aggregate warm-hit speedup {aggregate:.1}x is below the 10x gate");
        failures += 1;
    }

    // -- phase 2: bitwise identity, direct API vs serve path ----------------
    let mut bitwise_ok = 0;
    for case in &sweep {
        if case.bitwise_check(&service) {
            bitwise_ok += 1;
        } else {
            eprintln!("FAIL: {}: cached execution diverged bitwise", case.label);
            failures += 1;
        }
    }
    println!(
        "bitwise: {bitwise_ok}/{} cases identical through the cache",
        sweep.len()
    );

    // -- phase 3: concurrent callers on a cold cache ------------------------
    let threads = 4usize;
    let rounds: usize = if smoke { 10 } else { 50 };
    let cold_service: Arc<PlanService<f64>> = Arc::new(PlanService::in_memory());
    let concurrent_cases: Arc<Vec<Case>> = Arc::new(cases(smoke));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let service = Arc::clone(&cold_service);
            let cases = Arc::clone(&concurrent_cases);
            scope.spawn(move || {
                for _ in 0..rounds {
                    for case in cases.iter() {
                        case.acquire(&service);
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let acquisitions = threads * rounds * concurrent_cases.len();
    let plans_per_sec = acquisitions as f64 / elapsed.as_secs_f64();
    let stats = cold_service.stats();
    println!(
        "concurrent: {threads} threads x {rounds} rounds x {} keys -> {:.0} plans/sec ({})",
        concurrent_cases.len(),
        plans_per_sec,
        stats
    );
    if stats.compiles != concurrent_cases.len() as u64 {
        eprintln!(
            "FAIL: single-flight broke: {} compiles for {} distinct keys",
            stats.compiles,
            concurrent_cases.len()
        );
        failures += 1;
    }

    // -- report -------------------------------------------------------------
    if !smoke {
        let mut json = String::from("{\n  \"bench\": \"plancache\",\n  \"cases\": [\n");
        for (i, (label, cold, warm, speedup)) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"case\": {}, \"cold_ns\": {}, \"warm_ns\": {}, \"speedup\": {:.1}}}{}\n",
                json_str(label),
                cold.as_nanos(),
                warm.as_nanos(),
                speedup,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        json.push_str(&format!(
            "  ],\n  \"aggregate_speedup\": {aggregate:.1},\n  \"bitwise_identical\": {bitwise_ok},\n  \"concurrent\": {{\"threads\": {threads}, \"plans_per_sec\": {plans_per_sec:.0}, \"compiles\": {}, \"coalesced_waits\": {}}},\n  \"failures\": {failures}\n}}\n",
            stats.compiles, stats.coalesced_waits
        ));
        std::fs::create_dir_all("bench").expect("create bench/");
        std::fs::write("bench/BENCH_plancache.json", &json)
            .expect("write bench/BENCH_plancache.json");
        println!("wrote bench/BENCH_plancache.json");
    }

    println!("\n{failures} failures");
    if failures > 0 {
        std::process::exit(1);
    }
}
