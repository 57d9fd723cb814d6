//! End-to-end semantics of the plan cache and serve layer, exercised
//! through the public facade: hits execute bitwise-identically to the
//! direct API, single-flight compiles once under concurrent misses, the
//! LRU respects its byte budget, and the disk tier survives dropping the
//! in-memory cache.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use symla::prelude::*;
use symla_core::parallel::BlockStrategy;
use symla_core::service::PlanService;
use symla_plancache::PlanSource;

/// A served run is bitwise-identical to the direct API — across cold
/// (compile), warm (memory hit) and disk-revived plans — and the hit path
/// does zero planner work, asserted via [`CacheStats`].
#[test]
fn hits_execute_bitwise_identically_with_zero_planner_work() {
    let (n, m, s) = (40usize, 8usize, 60usize);
    let a = symla::matrix::generate::random_matrix_seeded::<f64>(n, m, 71);
    let tmp = tempdir("bitwise");
    let service = PlanService::<f64>::new(PlanCacheConfig::default().with_disk_dir(&tmp)).unwrap();

    let options = RunOptions::new()
        .pipeline(PassPipeline::standard())
        .lookahead(1);
    let mut direct = SymMatrix::zeros(n);
    let run =
        syrk_out_of_core_with(&a, &mut direct, 2.0, s, SyrkAlgorithm::TbsTiled, &options).unwrap();
    let cached = options.clone().cached(&service);

    for (round, want) in [
        (0, PlanSource::Compiled),
        (1, PlanSource::Memory),
        (2, PlanSource::Memory),
    ] {
        let mut served = SymMatrix::zeros(n);
        let serve =
            syrk_out_of_core_with(&a, &mut served, 2.0, s, SyrkAlgorithm::TbsTiled, &cached)
                .unwrap();
        assert_eq!(source(&serve), want, "round {round}");
        assert!(served == direct, "round {round}: bitwise identity");
        assert_eq!(
            serve.report.stats.volume, run.report.stats.volume,
            "round {round}"
        );
        assert_eq!(
            serve.report.stats.prefetched_elements, run.report.stats.prefetched_elements,
            "round {round}: the cached prefetch plan replays identically"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.compiles, 1, "hit path compiled: {stats}");
    assert_eq!(stats.hits, 2, "{stats}");
    assert_eq!(stats.misses, 1, "{stats}");

    // A fresh service on the same directory revives the plan from disk —
    // still no compile, still bitwise-identical.
    let revived = PlanService::<f64>::new(PlanCacheConfig::default().with_disk_dir(&tmp)).unwrap();
    let mut served = SymMatrix::zeros(n);
    let serve = revived
        .syrk(
            &a,
            &mut served,
            2.0,
            s,
            SyrkAlgorithm::TbsTiled,
            &PassPipeline::standard(),
            1,
        )
        .unwrap();
    assert_eq!(source(&serve), PlanSource::Disk);
    assert!(served == direct, "disk-revived plan: bitwise identity");
    assert_eq!(revived.stats().compiles, 0, "disk hit must not compile");

    std::fs::remove_dir_all(&tmp).ok();
}

/// Eight threads missing the same key concurrently trigger exactly one
/// compile; every thread still gets a working plan and identical results.
#[test]
fn single_flight_compiles_once_under_concurrent_misses() {
    let (n, s) = (36usize, 48usize);
    let a = symla::matrix::generate::random_spd_seeded::<f64>(n, 72);
    let (reference, _) = cholesky_out_of_core(&a, s, CholeskyAlgorithm::Lbc).unwrap();

    let service: Arc<PlanService<f64>> = Arc::new(PlanService::in_memory());
    let threads = 8usize;
    let barrier = Arc::new(Barrier::new(threads));
    let compiled_seen = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let compiled_seen = Arc::clone(&compiled_seen);
            let a = &a;
            let reference = &reference;
            scope.spawn(move || {
                barrier.wait();
                let (factor, run) = service
                    .cholesky(a, s, CholeskyAlgorithm::Lbc, &PassPipeline::standard(), 1)
                    .unwrap();
                assert!(&factor == reference, "served factor diverged");
                if source(&run) == PlanSource::Compiled {
                    compiled_seen.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.compiles, 1, "single flight broke: {stats}");
    assert_eq!(compiled_seen.load(Ordering::Relaxed), 1);
    assert_eq!(stats.requests, threads as u64, "{stats}");
    assert_eq!(
        stats.hits + stats.misses,
        threads as u64,
        "waiters resolve as coalesced misses or later hits: {stats}"
    );
}

/// The in-memory tier evicts least-recently-used plans to stay within its
/// byte budget; evicted keys recompile, resident keys still hit.
#[test]
fn lru_respects_byte_budget_end_to_end() {
    let job = |alpha| Job::Syrk {
        algorithm: SyrkAlgorithm::Tbs,
        n: 30,
        m: 5,
        alpha,
        s: 40,
    };
    let plain = RunOptions::new();
    let plan_size = {
        let probe = PlanService::<f64>::in_memory();
        let lookup = probe.plan(&job(1.0), &plain).unwrap();
        lookup.plan.byte_len()
    };

    // Budget for about two plans of this shape family, single shard so the
    // accounting is exact.
    let service = PlanService::<f64>::new(
        PlanCacheConfig::default()
            .with_shards(1)
            .with_memory_budget(plan_size * 5 / 2),
    )
    .unwrap();

    // Three distinct keys (alpha varies) of similar size: the first must be
    // evicted by the third.
    for alpha in [1.0f64, 2.0, 3.0] {
        service.plan(&job(alpha), &plain).unwrap();
    }
    let stats = service.stats();
    assert!(stats.evictions >= 1, "no eviction under pressure: {stats}");
    assert!(
        stats.bytes_in_memory <= (plan_size * 5 / 2) as u64,
        "budget exceeded: {stats}"
    );

    // The newest key is still a hit; the oldest recompiles.
    let newest = service.plan(&job(3.0), &plain).unwrap();
    assert_eq!(newest.source, PlanSource::Memory);
    let oldest = service.plan(&job(1.0), &plain).unwrap();
    assert_eq!(oldest.source, PlanSource::Compiled);
}

/// The on-disk tier is a real second tier: plans written by one cache are
/// readable by a brand-new cache (fresh process semantics), and a GEMM
/// served from the revived plan matches the direct API bitwise.
#[test]
fn disk_tier_survives_cache_drop_across_kernels() {
    let (n, m, p, s) = (18usize, 7usize, 13usize, 30usize);
    let a = symla::matrix::generate::random_matrix_seeded::<f64>(n, m, 73);
    let b = symla::matrix::generate::random_matrix_seeded::<f64>(m, p, 74);
    let c0 = symla::matrix::generate::random_matrix_seeded::<f64>(n, p, 75);
    let tmp = tempdir("disk-tier");

    let options = RunOptions::new()
        .pipeline(PassPipeline::standard())
        .lookahead(2);
    let mut reference = c0.clone();
    gemm_out_of_core_with(&a, &b, &mut reference, 1.0, s, &options).unwrap();

    {
        let service =
            PlanService::<f64>::new(PlanCacheConfig::default().with_disk_dir(&tmp)).unwrap();
        let mut c = c0.clone();
        let cached = options.clone().cached(&service);
        let run = gemm_out_of_core_with(&a, &b, &mut c, 1.0, s, &cached).unwrap();
        assert_eq!(source(&run), PlanSource::Compiled);
        assert_eq!(service.stats().disk_writes, 1, "{}", service.stats());
    } // service (and its memory tier) dropped here

    let revived = PlanService::<f64>::new(PlanCacheConfig::default().with_disk_dir(&tmp)).unwrap();
    let cached = options.clone().cached(&revived);
    let mut c = c0.clone();
    let run = gemm_out_of_core_with(&a, &b, &mut c, 1.0, s, &cached).unwrap();
    assert_eq!(source(&run), PlanSource::Disk);
    assert!(c == reference, "disk-revived GEMM plan: bitwise identity");
    // Once promoted, the next lookup is a memory hit.
    let mut c = c0.clone();
    let run = gemm_out_of_core_with(&a, &b, &mut c, 1.0, s, &cached).unwrap();
    assert_eq!(source(&run), PlanSource::Memory);
    assert_eq!(revived.stats().compiles, 0);

    std::fs::remove_dir_all(&tmp).ok();
}

/// One cached parallel partition schedule replays across worker counts with
/// results identical to the direct parallel API.
#[test]
fn cached_parallel_partition_replays_across_worker_counts() {
    let (n, m, s) = (48usize, 6usize, 10usize);
    let a = symla::matrix::generate::random_matrix_seeded::<f64>(n, m, 76);
    let service = PlanService::<f64>::in_memory();

    let mut reference = SymMatrix::zeros(n);
    symla_core::parallel::parallel_syrk(&a, &mut reference, 1.0, 2, s, BlockStrategy::SquareTiles)
        .unwrap();

    for (workers, want) in [(2usize, PlanSource::Compiled), (4, PlanSource::Memory)] {
        let mut c = SymMatrix::zeros(n);
        let run = service
            .syrk_parallel(&a, &mut c, 1.0, workers, s, BlockStrategy::SquareTiles, 1)
            .unwrap();
        assert_eq!(run.source, want, "P={workers}");
        assert!(c == reference, "P={workers}: bitwise identity");
        assert_eq!(run.report.workers, workers);
    }
    assert_eq!(service.stats().compiles, 1);
}

/// Where a cached run's plan came from.
fn source(run: &Run) -> PlanSource {
    run.served
        .expect("a cached run reports its plan source")
        .source
}

/// A unique scratch directory under the target-adjacent temp dir.
fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("symla-plancache-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}
