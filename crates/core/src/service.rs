//! The compile-once / replay-many serve layer over the plan cache.
//!
//! Compiling a plan — emitting the schedule IR, running the optimization
//! pass pipeline, planning the prefetch lookahead, or searching a tuning
//! space — depends only on the problem *shape* (a [`Job`] plus the
//! pipeline and lookahead, or the tuning space and its model), never on
//! the operand values. [`PlanService`] exploits that: it keys every
//! compiled plan by shape in a [`PlanCache`] (in-memory LRU plus optional
//! disk tier, single-flight under concurrency), and a run whose
//! [`RunOptions`] name the service replays cache hits with **zero planner
//! work**: the cached prefetch plan goes straight to
//! [`Engine::execute_planned`](symla_sched::Engine::execute_planned). A
//! parallel run ([`RunOptions::workers`]) hands the cached schedule to the
//! parallel engine, whose workers plan their own prefetches, so it shares
//! the serial lookahead-0 plan of its shape.
//!
//! Plans are compiled against
//! [`MatrixId::synthetic`](symla_memory::MatrixId::synthetic) operand ids,
//! and machine-issued ids start at 0 per machine in insertion order — every
//! run registers its operands in the order the plan was compiled for, so one
//! cached plan replays on any machine and any data of the right shape.
//!
//! ```
//! use symla_core::api::SyrkAlgorithm;
//! use symla_core::service::PlanService;
//! use symla_core::passes::PassPipeline;
//! use symla_matrix::{generate, SymMatrix};
//! use symla_plancache::PlanSource;
//!
//! let service = PlanService::<f64>::in_memory();
//! let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
//!
//! let mut c1 = SymMatrix::zeros(40);
//! let cold = service
//!     .syrk(&a, &mut c1, 1.0, 60, SyrkAlgorithm::TbsTiled, &PassPipeline::standard(), 1)
//!     .unwrap();
//! assert_eq!(cold.served.unwrap().source, PlanSource::Compiled);
//!
//! let mut c2 = SymMatrix::zeros(40);
//! let warm = service
//!     .syrk(&a, &mut c2, 1.0, 60, SyrkAlgorithm::TbsTiled, &PassPipeline::standard(), 1)
//!     .unwrap();
//! assert_eq!(warm.served.unwrap().source, PlanSource::Memory);
//! assert!(c1 == c2); // bitwise-identical execution
//! assert_eq!(service.stats().compiles, 1);
//! ```

use std::io;
use std::sync::Arc;

use crate::api::{
    cholesky_out_of_core_with, compile, syrk_out_of_core_with, CholeskyAlgorithm, Job, Run,
    RunOptions, SyrkAlgorithm,
};
use symla_baselines::error::Result;
use symla_matrix::{LowerTriangular, Matrix, Scalar, SymMatrix};
use symla_obs::{EventKind, RunReport};
use symla_plancache::{CacheStats, Lookup, PlanCache, PlanCacheConfig, PlanKey, PlanSource};
use symla_sched::autotune::model_fingerprint;
use symla_sched::PassPipeline;

/// "Get-or-compile the plan": a [`PlanCache`] keyed by [`Job`] and
/// [`RunOptions`].
///
/// [`plan`](Self::plan) returns the cached
/// [`CachedPlan`](symla_plancache::CachedPlan) (schedule + optional
/// prefetch plan + binary form) so callers can drive any engine mode
/// themselves — `dry_run`, `trace`, or a custom machine. Any run served
/// through the cache is a `*_out_of_core_with` call whose options name the
/// service ([`RunOptions::cached`]); [`syrk`](Self::syrk) and
/// [`cholesky`](Self::cholesky) spell the common ones.
#[derive(Debug)]
pub struct PlanService<T: Scalar> {
    cache: PlanCache<T>,
}

impl<T: Scalar> PlanService<T> {
    /// Builds a service over a cache with the given configuration. Fails
    /// only when the disk-tier directory cannot be created.
    pub fn new(config: PlanCacheConfig) -> io::Result<Self> {
        Ok(Self {
            cache: PlanCache::new(config)?,
        })
    }

    /// A service over a memory-only cache with default sizing.
    pub fn in_memory() -> Self {
        Self {
            cache: PlanCache::in_memory(),
        }
    }

    /// The underlying cache (for stats, clearing, direct lookups).
    pub fn cache(&self) -> &PlanCache<T> {
        &self.cache
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The cache counters as a machine-readable [`RunReport`] (everything
    /// under `cache.*` plus the `cache.hit_rate` gauge).
    pub fn metrics_report(&self) -> RunReport {
        let mut report = RunReport::new("plan service cache");
        self.stats().export_metrics("cache", &mut report.registry);
        report
    }

    /// The plan key of `job` under `options`. A plan is keyed by the
    /// kernel, its dimensions, `S` and the parameters that reach the IR,
    /// plus either the pipeline and lookahead or — for a tuned run, whose
    /// pipeline, tile and lookahead are *outputs* of the search — the
    /// fingerprints of the searched space and of the model it was scored
    /// against (tuning for a different machine must miss). The worker
    /// count never enters the key: a parallel run's workers plan their own
    /// prefetches, so it keys at lookahead 0 and shares the serial plan.
    pub fn key(job: &Job<T>, options: &RunOptions<'_, T>) -> PlanKey {
        // Per kernel: builder name, the key's two dimensions, IR parameters.
        let (kernel, n, m, params) = match *job {
            Job::Syrk {
                algorithm,
                n,
                m,
                alpha,
                ..
            } => (
                format!("syrk/{}", algorithm.name()),
                n,
                m,
                vec![alpha.to_f64().to_bits()],
            ),
            Job::Cholesky { algorithm, n, .. } => {
                (format!("cholesky/{}", algorithm.name()), n, n, vec![])
            }
            Job::Gemm { n, m, p, alpha, .. } => {
                let params = vec![p as u64, alpha.to_f64().to_bits()];
                ("gemm/OOC_GEMM(rect)".to_string(), n, m, params)
            }
        };
        let (kernel, pipeline, lookahead, search) = match options.tuning {
            None => (
                kernel,
                options.pipeline.clone(),
                options.plan_lookahead(),
                vec![],
            ),
            Some((space, model)) => {
                let search = vec![space.fingerprint(), model_fingerprint(model)];
                (
                    format!("autotune/{kernel}"),
                    PassPipeline::none(),
                    0,
                    search,
                )
            }
        };
        let key = PlanKey::new(kernel, n, m, job.capacity(), pipeline, lookahead);
        params
            .into_iter()
            .chain(search)
            .fold(key, PlanKey::with_raw_param)
    }

    /// Gets or compiles the plan of `job` under `options` (the tuner's
    /// winner when the options tune). A traced `options` records the
    /// lookup as [`EventKind::CacheLookup`] (plus
    /// [`EventKind::CacheCompile`] on a miss).
    pub fn plan(&self, job: &Job<T>, options: &RunOptions<'_, T>) -> Result<Lookup<T>> {
        options.check(job)?;
        let key = Self::key(job, options);
        let lookup = self
            .cache
            .get_or_compile(&key, || compile(job, options).map(|(plan, _)| plan))?;
        if let Some(recorder) = options.recorder {
            let hit = lookup.source != PlanSource::Compiled;
            recorder.note(0, EventKind::CacheLookup { hit });
            if !hit {
                recorder.note(0, EventKind::CacheCompile);
            }
        }
        Ok(lookup)
    }

    /// Serves an out-of-core SYRK (`C += alpha·A·Aᵀ`) at the given pipeline
    /// and lookahead: [`syrk_out_of_core_with`] with the plan from this
    /// cache.
    #[allow(clippy::too_many_arguments)]
    pub fn syrk(
        &self,
        a: &Matrix<T>,
        c: &mut SymMatrix<T>,
        alpha: T,
        s: usize,
        algorithm: SyrkAlgorithm,
        pipeline: &PassPipeline,
        lookahead: usize,
    ) -> Result<Run> {
        let options = RunOptions::new()
            .pipeline(pipeline.clone())
            .lookahead(lookahead)
            .cached(self);
        syrk_out_of_core_with(a, c, alpha, s, algorithm, &options)
    }

    /// Serves an out-of-core Cholesky factorization of `a` at the given
    /// pipeline and lookahead: [`cholesky_out_of_core_with`] with the plan
    /// from this cache.
    pub fn cholesky(
        &self,
        a: &SymMatrix<T>,
        s: usize,
        algorithm: CholeskyAlgorithm,
        pipeline: &PassPipeline,
        lookahead: usize,
    ) -> Result<(LowerTriangular<T>, Run)> {
        let options = RunOptions::new()
            .pipeline(pipeline.clone())
            .lookahead(lookahead)
            .cached(self);
        cholesky_out_of_core_with(a, s, algorithm, &options)
    }
}

/// A service can be shared across threads behind an [`Arc`]; this alias
/// spells the common shape.
pub type SharedPlanService<T> = Arc<PlanService<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{gemm_out_of_core_with, Served};
    use symla_matrix::generate::{random_matrix_seeded, random_spd_seeded};
    use symla_memory::MachineModel;
    use symla_obs::TraceRecorder;
    use symla_sched::Engine;

    fn served(run: &Run) -> Served {
        run.served.expect("a cached run reports its plan source")
    }

    /// Plan keys name disk-tier files, so a tier written by an earlier
    /// version must still hit: the hashes are pinned.
    #[test]
    fn plan_key_hashes_are_pinned() {
        let (standard, none) = (PassPipeline::standard(), PassPipeline::none());
        let syrk = |alpha, algorithm| Job::Syrk {
            algorithm,
            n: 40,
            m: 6,
            alpha,
            s: 60,
        };
        let options = RunOptions::new().pipeline(standard.clone()).lookahead(1);
        let key = PlanService::key(&syrk(1.5, SyrkAlgorithm::TbsTiled), &options);
        assert_eq!(key.content_hash(), 0x16871a1f0b1bfb43);

        let cholesky = Job::Cholesky {
            algorithm: CholeskyAlgorithm::Lbc,
            n: 768,
            s: 300,
        };
        let options = RunOptions::new().pipeline(none).lookahead(0);
        assert_eq!(
            PlanService::<f64>::key(&cholesky, &options).content_hash(),
            0x13bea7792751d78a
        );

        let gemm = Job::Gemm {
            n: 18,
            m: 7,
            p: 13,
            alpha: 0.5,
            s: 30,
        };
        let options = RunOptions::new().pipeline(standard).lookahead(1);
        assert_eq!(
            PlanService::key(&gemm, &options).content_hash(),
            0xa8febda353117886
        );

        let space = crate::api::syrk_tuning_space(40, 60, SyrkAlgorithm::TbsTiled);
        let model = MachineModel::nvme();
        let options = RunOptions::new().tuned(&space, &model);
        let key = PlanService::key(&syrk(1.0, SyrkAlgorithm::TbsTiled), &options);
        assert_eq!(key.content_hash(), 0xdc49c7354afe6914);
    }

    #[test]
    fn served_syrk_is_bitwise_identical_across_algorithms_and_modes() {
        let (n, m, s) = (40usize, 8usize, 60usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 51);
        let c0 = SymMatrix::<f64>::zeros(n);
        let service = PlanService::<f64>::in_memory();

        let mut cases = 0;
        for algorithm in [
            SyrkAlgorithm::Tbs,
            SyrkAlgorithm::TbsTiled,
            SyrkAlgorithm::SquareBlocks,
        ] {
            for pipeline in [PassPipeline::none(), PassPipeline::standard()] {
                for lookahead in [0usize, 1] {
                    cases += 1;
                    let mut reference = c0.clone();
                    let options = RunOptions::new()
                        .pipeline(pipeline.clone())
                        .lookahead(lookahead);
                    let direct =
                        syrk_out_of_core_with(&a, &mut reference, 1.5, s, algorithm, &options)
                            .unwrap();

                    // Cold serve compiles; the replay matches the direct
                    // run bitwise, I/O volume included.
                    let mut served_c = c0.clone();
                    let cold = service
                        .syrk(&a, &mut served_c, 1.5, s, algorithm, &pipeline, lookahead)
                        .unwrap();
                    let ctx = format!("{} {pipeline:?} L={lookahead}", algorithm.name());
                    assert_eq!(served(&cold).source, PlanSource::Compiled, "{ctx}");
                    assert!(served_c == reference, "{ctx}: cold bitwise");
                    assert_eq!(
                        cold.report.stats.volume, direct.report.stats.volume,
                        "{ctx}"
                    );
                    assert!(cold.report.stats.peak_resident <= s, "{ctx}");

                    // Warm serve hits and is byte-for-byte the same again.
                    let mut warm_c = c0.clone();
                    let warm = service
                        .syrk(&a, &mut warm_c, 1.5, s, algorithm, &pipeline, lookahead)
                        .unwrap();
                    assert_eq!(served(&warm).source, PlanSource::Memory, "{ctx}");
                    assert_eq!(served(&warm).key_hash, served(&cold).key_hash, "{ctx}");
                    assert!(warm_c == reference, "{ctx}: warm bitwise");
                    assert_eq!(warm.report.stats.volume, cold.report.stats.volume, "{ctx}");
                    assert_eq!(
                        warm.report.stats.prefetched_elements,
                        cold.report.stats.prefetched_elements,
                        "{ctx}: cached prefetch plan replays identically"
                    );
                }
            }
        }
        let stats = service.stats();
        assert_eq!(stats.compiles, cases, "one compile per distinct key");
        assert_eq!(stats.hits, cases, "one memory hit per warm call");
    }

    #[test]
    fn traced_serve_is_bitwise_identical_and_records_cache_traffic() {
        let (n, m, s) = (40usize, 8usize, 60usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 56);
        let c0 = SymMatrix::<f64>::zeros(n);
        let service = PlanService::<f64>::in_memory();
        let model = MachineModel::default();
        let traced = |recorder: &TraceRecorder, c: &mut SymMatrix<f64>| {
            let options = RunOptions::new()
                .pipeline(PassPipeline::standard())
                .lookahead(2)
                .traced(&model, recorder)
                .cached(&service);
            syrk_out_of_core_with(&a, c, 1.5, s, SyrkAlgorithm::TbsTiled, &options).unwrap()
        };

        // Cold: the plan compiles, and the trace records a miss + compile.
        let recorder = TraceRecorder::new();
        let mut cold_c = c0.clone();
        let mut cold = traced(&recorder, &mut cold_c);
        let cold_trace = cold.trace.take().unwrap();
        assert_eq!(served(&cold).source, PlanSource::Compiled);
        assert_eq!(
            cold_trace.count(|k| matches!(k, EventKind::CacheLookup { hit: false })),
            1
        );
        assert_eq!(
            cold_trace.count(|k| matches!(k, EventKind::CacheCompile)),
            1
        );

        // Warm: a memory hit, no compile event, and the replay observed by
        // the recorder is bitwise-identical to the unobserved serve.
        let recorder = TraceRecorder::new();
        let mut warm_c = c0.clone();
        let mut warm = traced(&recorder, &mut warm_c);
        let warm_trace = warm.trace.take().unwrap();
        assert_eq!(served(&warm).source, PlanSource::Memory);
        assert_eq!(
            warm_trace.count(|k| matches!(k, EventKind::CacheLookup { hit: true })),
            1
        );
        assert_eq!(
            warm_trace.count(|k| matches!(k, EventKind::CacheCompile)),
            0
        );
        assert!(
            warm_trace.count(|k| matches!(k, EventKind::Load { .. })) > 0,
            "replay itself is observed"
        );

        let mut plain_c = c0.clone();
        let plain = service
            .syrk(
                &a,
                &mut plain_c,
                1.5,
                s,
                SyrkAlgorithm::TbsTiled,
                &PassPipeline::standard(),
                2,
            )
            .unwrap();
        assert!(warm_c == plain_c, "traced serve bitwise == unobserved");
        assert!(cold_c == plain_c);
        assert_eq!(warm.report.stats, plain.report.stats);
        assert_eq!(cold.report.stats, plain.report.stats);

        // The per-run report mirrors the engine counters exactly, and the
        // service-level report mirrors the cache counters.
        let report = warm.metrics("warm syrk");
        assert_eq!(
            report.registry.counter("engine.loads.elements"),
            u128::from(warm.report.stats.volume.loads)
        );
        assert_eq!(report.registry.counter("plan.source.memory"), 1);
        let service_report = service.metrics_report();
        let stats = service.stats();
        assert_eq!(
            service_report.registry.counter("cache.requests"),
            u128::from(stats.requests)
        );
        assert_eq!(
            service_report.registry.counter("cache.compiles"),
            u128::from(stats.compiles)
        );
    }

    #[test]
    fn served_cholesky_matches_direct_api() {
        let (n, s) = (30usize, 28usize);
        let a: SymMatrix<f64> = random_spd_seeded(n, 52);
        let service = PlanService::<f64>::in_memory();

        for algorithm in [CholeskyAlgorithm::Lbc, CholeskyAlgorithm::Bereux] {
            for lookahead in [0usize, 2] {
                let options = RunOptions::new().lookahead(lookahead);
                let (direct, _) = cholesky_out_of_core_with(&a, s, algorithm, &options).unwrap();
                let (cold, run) = service
                    .cholesky(&a, s, algorithm, &PassPipeline::none(), lookahead)
                    .unwrap();
                let (warm, warm_run) = service
                    .cholesky(&a, s, algorithm, &PassPipeline::none(), lookahead)
                    .unwrap();
                let ctx = format!("{} L={lookahead}", algorithm.name());
                assert!(cold == direct, "{ctx}: cold bitwise");
                assert!(warm == direct, "{ctx}: warm bitwise");
                assert_eq!(served(&run).source, PlanSource::Compiled, "{ctx}");
                assert_eq!(served(&warm_run).source, PlanSource::Memory, "{ctx}");
            }
        }
    }

    #[test]
    fn served_gemm_matches_direct_api() {
        let (n, m, p, s) = (18usize, 7usize, 13usize, 30usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 53);
        let b: Matrix<f64> = random_matrix_seeded(m, p, 54);
        let c0: Matrix<f64> = random_matrix_seeded(n, p, 55);
        let service = PlanService::<f64>::in_memory();
        let direct = RunOptions::new()
            .pipeline(PassPipeline::standard())
            .lookahead(1);
        let cached = direct.clone().cached(&service);

        let mut reference = c0.clone();
        gemm_out_of_core_with(&a, &b, &mut reference, 0.5, s, &direct).unwrap();
        for expect in [PlanSource::Compiled, PlanSource::Memory] {
            let mut c = c0.clone();
            let run = gemm_out_of_core_with(&a, &b, &mut c, 0.5, s, &cached).unwrap();
            assert_eq!(served(&run).source, expect);
            assert!(c == reference, "served GEMM bitwise ({expect:?})");
        }
        // Operand mismatch is caught before any machine work.
        let mut bad = Matrix::<f64>::zeros(n, p + 1);
        let plain_cached = RunOptions::new().cached(&service);
        assert!(gemm_out_of_core_with(&a, &b, &mut bad, 0.5, s, &plain_cached).is_err());
    }

    #[test]
    fn served_parallel_syrk_matches_direct_run() {
        let (n, m, s) = (40usize, 8usize, 12usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 56);

        for algorithm in [SyrkAlgorithm::SquareBlocks, SyrkAlgorithm::Tbs] {
            let service = PlanService::<f64>::in_memory();
            let mut reference = SymMatrix::zeros(n);
            let parallel = RunOptions::new().workers(3);
            let direct =
                syrk_out_of_core_with(&a, &mut reference, 1.0, s, algorithm, &parallel).unwrap();

            // Cold serve, then warm serves across *different* worker counts
            // and lookaheads: one cached lookahead-0 plan drives them all,
            // the serial replay included.
            let mut sources = Vec::new();
            for (workers, lookahead) in [(3usize, 1usize), (1, 0), (4, 2)] {
                let ctx = format!("{} P={workers} L={lookahead}", algorithm.name());
                let options = RunOptions::new()
                    .workers(workers)
                    .lookahead(lookahead)
                    .cached(&service);
                let mut c = SymMatrix::zeros(n);
                let run = syrk_out_of_core_with(&a, &mut c, 1.0, s, algorithm, &options).unwrap();
                assert!(c == reference, "{ctx}");
                assert_eq!(run.report.stats.volume, direct.report.stats.volume, "{ctx}");
                let expect_workers = if workers > 1 { workers } else { 0 };
                assert_eq!(run.workers.len(), expect_workers, "{ctx}");
                sources.push(served(&run).source);
            }
            let ctx = algorithm.name();
            assert_eq!(sources[0], PlanSource::Compiled, "{ctx}");
            assert!(
                sources[1..].iter().all(|s| *s == PlanSource::Memory),
                "{ctx}"
            );
            assert_eq!(service.stats().compiles, 1, "{ctx}");
        }
    }

    #[test]
    fn served_autotuned_matches_direct_and_tunes_once() {
        use crate::api::{cholesky_tuning_space, gemm_tuning_space, syrk_tuning_space};
        let model = MachineModel::nvme();
        let service = PlanService::<f64>::in_memory();

        // SYRK: direct autotuned run vs served (cold + warm).
        let (n, m, s) = (40usize, 8usize, 60usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 71);
        let c0 = SymMatrix::<f64>::zeros(n);
        let space = syrk_tuning_space(n, s, SyrkAlgorithm::TbsTiled);
        let tuned = RunOptions::new().tuned(&space, &model);
        let mut direct_c = c0.clone();
        let direct =
            syrk_out_of_core_with(&a, &mut direct_c, 1.0, s, SyrkAlgorithm::TbsTiled, &tuned)
                .unwrap();
        for expect in [PlanSource::Compiled, PlanSource::Memory] {
            let mut c = c0.clone();
            let options = tuned.clone().cached(&service);
            let run = syrk_out_of_core_with(&a, &mut c, 1.0, s, SyrkAlgorithm::TbsTiled, &options)
                .unwrap();
            assert_eq!(served(&run).source, expect);
            assert!(c == direct_c, "served autotuned bitwise ({expect:?})");
            assert_eq!(run.report.stats, direct.report.stats, "{expect:?}");
            // The cache keeps no winning tile: no prediction to report.
            assert!(run.predicted().is_none() && run.tuning.is_none());
        }
        assert_eq!(service.stats().compiles, 1, "the search ran exactly once");

        // A different model fingerprint is a different plan.
        let job = Job::Syrk {
            algorithm: SyrkAlgorithm::TbsTiled,
            n,
            m,
            alpha: 1.0,
            s,
        };
        let dram = MachineModel::dram();
        let dram_key = PlanService::key(&job, &RunOptions::new().tuned(&space, &dram));
        let nvme_key = PlanService::key(&job, &tuned);
        assert_ne!(dram_key.content_hash(), nvme_key.content_hash());

        // Cholesky and GEMM serve paths replay their direct twins bitwise.
        let (cn, cs) = (30usize, 28usize);
        let spd: SymMatrix<f64> = random_spd_seeded(cn, 72);
        let chol_space = cholesky_tuning_space(cn, cs, CholeskyAlgorithm::Lbc);
        let tuned = RunOptions::new().tuned(&chol_space, &model);
        let (direct_factor, _) =
            cholesky_out_of_core_with(&spd, cs, CholeskyAlgorithm::Lbc, &tuned).unwrap();
        let options = tuned.clone().cached(&service);
        let (served_factor, _) =
            cholesky_out_of_core_with(&spd, cs, CholeskyAlgorithm::Lbc, &options).unwrap();
        assert!(served_factor == direct_factor);

        let (gn, gm, gp, gs) = (18usize, 7usize, 13usize, 30usize);
        let ga: Matrix<f64> = random_matrix_seeded(gn, gm, 73);
        let gb: Matrix<f64> = random_matrix_seeded(gm, gp, 74);
        let gc0: Matrix<f64> = random_matrix_seeded(gn, gp, 75);
        let gemm_space = gemm_tuning_space(gs);
        let tuned = RunOptions::new().tuned(&gemm_space, &model);
        let mut direct_gc = gc0.clone();
        gemm_out_of_core_with(&ga, &gb, &mut direct_gc, 0.5, gs, &tuned).unwrap();
        let mut served_gc = gc0.clone();
        let options = tuned.clone().cached(&service);
        gemm_out_of_core_with(&ga, &gb, &mut served_gc, 0.5, gs, &options).unwrap();
        assert!(served_gc == direct_gc);
    }

    #[test]
    fn plan_methods_expose_replayable_plans() {
        let service = PlanService::<f64>::in_memory();
        let job = Job::Syrk {
            algorithm: SyrkAlgorithm::Tbs,
            n: 24,
            m: 6,
            alpha: 1.0,
            s: 40,
        };
        let lookup = service.plan(&job, &RunOptions::new().lookahead(2)).unwrap();
        // The cached plan carries the compiled prefetch plan and its binary
        // form; a caller can dry-run it without touching real data.
        assert!(lookup.plan.prefetch().is_some());
        assert!(!lookup.plan.bytes().is_empty());
        let stats = Engine::dry_run(lookup.plan.schedule(), "probe");
        assert!(stats.volume.loads > 0);
    }
}
