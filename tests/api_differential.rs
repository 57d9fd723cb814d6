//! Differential sweep over the option lattice of the high-level API: for
//! every builder, every combination of pass pipeline {none, standard} ×
//! lookahead {0, 1} × workers {1, 3} (the SYRK builders and GEMM; a
//! Cholesky plan runs on one worker) × observation {none, priced, traced;
//! priced needs one worker} × plan source {direct, cache miss, cache hit},
//! plus the tuned plan (default space) under each observation and each
//! source, must produce a result **bitwise identical** to the plain
//! `*_out_of_core` call and mutually consistent [`IoStats`]:
//!
//! * for one pipeline and lookahead, observation and plan source change
//!   nothing: the stats are *equal* field for field, and with no passes
//!   and no prefetch they equal the plain call's;
//! * prefetching moves the same volume (it reorders load issue, never load
//!   totals) and every run stays within the capacity;
//! * a parallel run does the serial run's work (volumes, events, flops,
//!   phases), its merged stats equal the serial ones at lookahead 0, and
//!   each worker's stats are the dry run of exactly the groups it ran;
//! * priced and traced serial runs report a bitwise-consistent wall clock,
//!   a traced parallel run has one track per busy worker and balanced group
//!   spans, and a traced run through the cache records exactly one cache
//!   lookup;
//! * a tuned run's measured stats equal the stats its tuner scored by dry
//!   run alone (the zero-execution-scoring invariant);
//! * every combination that cannot run is a typed [`OocError`].

use std::collections::BTreeSet;
use symla::prelude::*;
use symla::sched::WorkerRun;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Observe {
    None,
    Priced,
    Traced,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    Direct,
    Miss,
    Hit,
}

const OBSERVATIONS: [Observe; 3] = [Observe::None, Observe::Priced, Observe::Traced];
const SOURCES: [Source; 3] = [Source::Direct, Source::Miss, Source::Hit];
/// The worker count of the parallel runs.
const PARALLEL: usize = 3;

/// `options` observed as `observe` and sourced from `source`.
fn arrange<'a>(
    options: RunOptions<'a, f64>,
    observe: Observe,
    source: Source,
    model: &'a MachineModel,
    recorder: &'a TraceRecorder,
    service: &'a PlanService<f64>,
) -> RunOptions<'a, f64> {
    let options = match observe {
        Observe::None => options,
        Observe::Priced => options.priced(model),
        Observe::Traced => options.traced(model, recorder),
    };
    match source {
        Source::Direct => options,
        Source::Miss | Source::Hit => options.cached(service),
    }
}

/// The checks every run of the lattice passes, whatever its options.
fn check_run<R: PartialEq + std::fmt::Debug>(
    ctx: &str,
    (result, run): &(R, Run),
    plain: &R,
    s: usize,
    observe: Observe,
    source: Source,
) {
    assert_eq!(result, plain, "{ctx}: result");
    assert!(run.report.stats.peak_resident <= s, "{ctx}: capacity");
    match observe {
        // A parallel run has no clock.
        _ if !run.workers.is_empty() => assert!(run.clock.is_none(), "{ctx}: clock"),
        Observe::None => assert!(run.clock.is_none(), "{ctx}: clock"),
        Observe::Priced | Observe::Traced => assert!(
            run.clock.expect("a priced run has a clock").consistent(),
            "{ctx}: measured vs modelled time"
        ),
    }
    assert_eq!(
        run.trace.is_some(),
        observe == Observe::Traced,
        "{ctx}: trace"
    );
    if let Some(trace) = &run.trace {
        let lookups = trace.count(|k| matches!(k, EventKind::CacheLookup { .. }));
        let expected = usize::from(source != Source::Direct);
        assert_eq!(lookups, expected, "{ctx}: cache lookups in the trace");
    }
    let expected = match source {
        Source::Direct => None,
        Source::Miss => Some(PlanSource::Compiled),
        Source::Hit => Some(PlanSource::Memory),
    };
    assert_eq!(run.served.map(|s| s.source), expected, "{ctx}: plan source");
}

/// Asserts that two runs did the same work: what neither the placement of
/// the groups nor prefetching can change.
fn assert_same_work(ctx: &str, got: &IoStats, want: &IoStats) {
    assert_eq!(got.volume, want.volume, "{ctx}: volume");
    assert_eq!(got.load_events, want.load_events, "{ctx}: load events");
    assert_eq!(got.store_events, want.store_events, "{ctx}: store events");
    assert_eq!(got.flops, want.flops, "{ctx}: flops");
    assert_eq!(got.per_phase, want.per_phase, "{ctx}: phases");
}

/// The checks of a parallel run: every group ran on exactly one worker,
/// each worker's stats are the dry run of exactly its groups (field for
/// field at lookahead 0, the same work at any lookahead), and a trace has
/// one track per busy worker with one span per claimed group.
fn check_workers(ctx: &str, run: &Run, schedule: &Schedule<f64>, lookahead: usize) {
    assert_eq!(run.workers.len(), PARALLEL, "{ctx}: workers");
    assert_eq!(WorkerRun::merged_stats(&run.workers), run.report.stats);
    let mut groups: Vec<usize> = run.workers.iter().flat_map(|w| w.groups.clone()).collect();
    groups.sort_unstable();
    let all: Vec<usize> = (0..schedule.num_groups()).collect();
    assert_eq!(groups, all, "{ctx}: group coverage");
    for (w, worker) in run.workers.iter().enumerate() {
        let picked = Schedule {
            groups: worker
                .groups
                .iter()
                .map(|&g| schedule.groups[g].clone())
                .collect(),
        };
        let dry = Engine::dry_run(&picked, "main");
        let ctx = format!("{ctx} worker {w}");
        if lookahead == 0 {
            assert_eq!(worker.stats, dry, "{ctx}: stats vs dry run of its groups");
        } else {
            assert_same_work(&ctx, &worker.stats, &dry);
        }
    }
    if let Some(trace) = &run.trace {
        let claims = trace.count(|k| matches!(k, EventKind::Claim { .. }));
        let starts = trace.count(|k| matches!(k, EventKind::GroupStart { .. }));
        let ends = trace.count(|k| matches!(k, EventKind::GroupEnd { .. }));
        assert_eq!((claims, starts), (ends, ends), "{ctx}: group spans");
        assert_eq!(claims, schedule.num_groups(), "{ctx}: claims");
        let cache =
            |k: &EventKind| matches!(k, EventKind::CacheLookup { .. } | EventKind::CacheCompile);
        let tracks: BTreeSet<usize> = trace
            .events()
            .iter()
            .filter(|e| !cache(&e.kind))
            .map(|e| e.worker)
            .collect();
        let busy: BTreeSet<usize> = (0..PARALLEL)
            .filter(|&w| !run.workers[w].groups.is_empty())
            .collect();
        assert_eq!(tracks, busy, "{ctx}: one track per busy worker");
    }
}

/// Sweeps the whole lattice for one builder. `run` executes the builder on
/// fixed operands under the given options; `plain` is the plain
/// `*_out_of_core` call's result and report; `job` is the builder's plan
/// description (its independent groups replay on several workers unless
/// it is a Cholesky job).
fn sweep<R: PartialEq + std::fmt::Debug>(
    name: &str,
    job: Job<f64>,
    space: &TuningSpace,
    plain: (R, RunReport),
    run: impl Fn(&RunOptions<'_, f64>) -> Result<(R, Run), OocError>,
) {
    let (plain, report) = plain;
    let s = report.memory;
    let independent = !matches!(job, Job::Cholesky { .. });
    let model = MachineModel::dram();
    let oracle = PlanService::in_memory();
    for pipeline in [PassPipeline::none(), PassPipeline::standard()] {
        // The schedule every replay of this pipeline runs.
        let compiled = RunOptions::new().pipeline(pipeline.clone());
        let lookup = oracle.plan(&job, &compiled).unwrap();
        let schedule = lookup.plan.schedule();
        for lookahead in [0usize, 1] {
            let passes = !pipeline.is_noop();
            let mut reference: Option<IoStats> = None;
            let workers = if independent {
                &[1, PARALLEL][..]
            } else {
                &[1]
            };
            let lattice = workers.iter().flat_map(|&w| OBSERVATIONS.map(|o| (w, o)));
            // A parallel run is traced, not priced.
            for (workers, observe) in lattice.filter(|&(w, o)| w == 1 || o != Observe::Priced) {
                let base = RunOptions::new()
                    .pipeline(pipeline.clone())
                    .lookahead(lookahead)
                    .workers(workers);
                let service = PlanService::in_memory();
                for source in SOURCES {
                    let recorder = TraceRecorder::new();
                    let options =
                        arrange(base.clone(), observe, source, &model, &recorder, &service);
                    let ctx = format!(
                        "{name} passes={passes} L={lookahead} P={workers} {observe:?} {source:?}"
                    );
                    let outcome = run(&options).unwrap();
                    check_run(&ctx, &outcome, &plain, s, observe, source);
                    let run = &outcome.1;

                    // Serial runs come first and set the reference.
                    let stats = &run.report.stats;
                    let reference = reference.get_or_insert_with(|| stats.clone());
                    if workers == 1 {
                        assert!(run.workers.is_empty(), "{ctx}: a serial run has no workers");
                        assert_eq!(
                            stats, reference,
                            "{ctx}: stats across observations and sources"
                        );
                    } else {
                        check_workers(&ctx, run, schedule, lookahead);
                        if lookahead == 0 {
                            assert_eq!(stats, reference, "{ctx}: stats of the serial run");
                        } else {
                            assert_same_work(&ctx, stats, reference);
                        }
                    }
                    if passes {
                        assert!(run.loads_saved() >= 0, "{ctx}");
                    } else if lookahead == 0 {
                        assert_eq!(*stats, report.stats, "{ctx}: stats of the plain call");
                    } else {
                        assert_eq!(
                            stats.volume, report.stats.volume,
                            "{ctx}: prefetched volume"
                        );
                    }
                    assert!(run.predicted().is_some(), "{ctx}: prediction");

                    // The seed stats are the pass manager's seed dry run:
                    // absent when no pass ran (or the plan came from the
                    // cache), never the prefetching execution's counters.
                    match run.seed_stats() {
                        None => assert!(!passes || source != Source::Direct, "{ctx}"),
                        Some(seed) => {
                            assert!(passes && source == Source::Direct, "{ctx}");
                            assert_eq!(seed.prefetched_elements, 0, "{ctx}: seed stats");
                            assert_eq!(seed.prefetch_events, 0, "{ctx}: seed stats");
                        }
                    }
                    if source == Source::Direct {
                        assert!(run.seed_prediction_matches(), "{ctx}: seed prediction");
                    }
                }
            }
        }
    }

    // Worker count and runtime lookahead are not plan inputs: a parallel
    // run after a serial lookahead-0 compile is a memory hit.
    if independent {
        let service = PlanService::in_memory();
        let serial = RunOptions::new().cached(&service);
        let ctx = format!("{name} shared plan");
        assert_eq!(
            run(&serial).unwrap().1.served.unwrap().source,
            PlanSource::Compiled
        );
        let hit = run(&serial.clone().workers(PARALLEL).lookahead(1)).unwrap();
        assert_eq!(hit.1.served.unwrap().source, PlanSource::Memory, "{ctx}");
        assert_eq!(hit.0, plain, "{ctx}: result");
    }

    // The tuned plan, under each observation and each source.
    let tuning_model = MachineModel::nvme();
    let tuned = RunOptions::new().tuned(space, &tuning_model);
    let mut winner: Option<IoStats> = None;
    for observe in OBSERVATIONS {
        let service = PlanService::in_memory();
        for source in SOURCES {
            let recorder = TraceRecorder::new();
            let options = arrange(tuned.clone(), observe, source, &model, &recorder, &service);
            let ctx = format!("{name} tuned {observe:?} {source:?}");
            let outcome = run(&options).unwrap();
            check_run(&ctx, &outcome, &plain, s, observe, source);
            let run = &outcome.1;
            if let Some(tuning) = &run.tuning {
                assert_eq!(
                    run.report.stats,
                    tuning.winner().stats,
                    "{ctx}: measured stats equal the dry-run-scored stats"
                );
            }
            let winner = winner.get_or_insert_with(|| run.report.stats.clone());
            assert_eq!(run.report.stats, *winner, "{ctx}: tuned stats");
            // The cache keeps no winning tile or search report.
            let direct = source == Source::Direct;
            assert_eq!(run.tuning.is_some(), direct, "{ctx}: tuning report");
            assert_eq!(run.predicted().is_some(), direct, "{ctx}: prediction");
        }
    }

    // Combinations that cannot run are typed errors.
    let invalid = |options: &RunOptions<'_, f64>, what: &str| match run(options) {
        Err(OocError::Invalid(msg)) => assert!(msg.contains(what), "{name}: {msg}"),
        other => panic!("{name}: expected an Invalid error about {what}, got {other:?}"),
    };
    invalid(
        &tuned.clone().pipeline(PassPipeline::standard()),
        "pipeline",
    );
    invalid(&tuned.clone().lookahead(1), "lookahead");
    let parallel = space.clone().with_workers(vec![1, 2]);
    invalid(
        &RunOptions::new().tuned(&parallel, &tuning_model),
        "workers",
    );
    // Rejected before any plan work: the service sees no request.
    let service = PlanService::in_memory();
    invalid(&RunOptions::new().workers(0).cached(&service), "worker");
    invalid(&tuned.clone().workers(PARALLEL).cached(&service), "worker");
    invalid(
        &RunOptions::new().workers(PARALLEL).priced(&model),
        "worker",
    );
    if !independent {
        invalid(
            &RunOptions::new().workers(PARALLEL).cached(&service),
            "worker",
        );
    }
    assert_eq!(
        service.stats().requests,
        0,
        "{name}: plan work before rejection"
    );
}

/// The SYRK lattice, for one algorithm.
fn syrk_differential(algorithm: SyrkAlgorithm, n: usize, m: usize, s: usize) {
    let a: Matrix<f64> = generate::random_matrix_seeded(n, m, 8100 + n as u64);
    let mut rng = generate::seeded_rng(8200 + n as u64);
    let c0: SymMatrix<f64> = generate::random_symmetric(n, &mut rng);

    let mut c_plain = c0.clone();
    let report = syrk_out_of_core(&a, &mut c_plain, 1.0, s, algorithm).unwrap();
    let space = syrk_tuning_space(n, s, algorithm);
    let job = Job::Syrk {
        algorithm,
        n,
        m,
        alpha: 1.0,
        s,
    };
    sweep(
        algorithm.name(),
        job,
        &space,
        (c_plain, report),
        |options| {
            let mut c = c0.clone();
            syrk_out_of_core_with(&a, &mut c, 1.0, s, algorithm, options).map(|run| (c, run))
        },
    );

    let mut bad = SymMatrix::zeros(n + 1);
    let err = syrk_out_of_core_with(&a, &mut bad, 1.0, s, algorithm, &RunOptions::new());
    assert!(matches!(err, Err(OocError::Invalid(_))), "operand shapes");
}

/// The Cholesky lattice, for one algorithm.
fn cholesky_differential(algorithm: CholeskyAlgorithm, n: usize, s: usize) {
    let spd: SymMatrix<f64> = generate::random_spd_seeded(n, 8300 + n as u64);
    let plain = cholesky_out_of_core(&spd, s, algorithm).unwrap();
    let space = cholesky_tuning_space(n, s, algorithm);
    let job = Job::Cholesky { algorithm, n, s };
    sweep(algorithm.name(), job, &space, plain, |options| {
        cholesky_out_of_core_with(&spd, s, algorithm, options)
    });
}

#[test]
fn syrk_variants_agree_bitwise_across_all_algorithms() {
    syrk_differential(SyrkAlgorithm::Tbs, 30, 6, 60);
    syrk_differential(SyrkAlgorithm::TbsTiled, 40, 6, 60);
    syrk_differential(SyrkAlgorithm::SquareBlocks, 20, 5, 35);
}

#[test]
fn cholesky_variants_agree_bitwise_across_all_algorithms() {
    cholesky_differential(CholeskyAlgorithm::Lbc, 36, 48);
    cholesky_differential(CholeskyAlgorithm::LbcTiled, 36, 48);
    cholesky_differential(CholeskyAlgorithm::LbcSquare, 36, 48);
    cholesky_differential(CholeskyAlgorithm::Bereux, 24, 35);
}

#[test]
fn gemm_variants_agree_bitwise() {
    let (n, m, p, s) = (9usize, 7usize, 11usize, 35usize);
    let a: Matrix<f64> = generate::random_matrix_seeded(n, m, 8400);
    let b: Matrix<f64> = generate::random_matrix_seeded(m, p, 8401);
    let c0: Matrix<f64> = generate::random_matrix_seeded(n, p, 8402);

    let mut c_plain = c0.clone();
    let report = gemm_out_of_core(&a, &b, &mut c_plain, 1.0, s).unwrap();
    sweep(
        "gemm",
        Job::Gemm {
            n,
            m,
            p,
            alpha: 1.0,
            s,
        },
        &gemm_tuning_space(s),
        (c_plain, report),
        |options| {
            let mut c = c0.clone();
            gemm_out_of_core_with(&a, &b, &mut c, 1.0, s, options).map(|run| (c, run))
        },
    );

    let mut bad = Matrix::zeros(n, p + 1);
    let err = gemm_out_of_core_with(&a, &b, &mut bad, 1.0, s, &RunOptions::new());
    assert!(matches!(err, Err(OocError::Invalid(_))), "operand shapes");
}

/// A traced run that fails mid-replay drains its recorder: the next run on
/// the same recorder traces exactly what a fresh recorder would.
#[test]
fn failed_traced_run_leaks_no_events_into_the_next_trace() {
    let (n, s) = (24usize, 40usize);
    let good: SymMatrix<f64> = generate::random_spd_seeded(n, 8500);
    let mut bad = good.clone();
    bad.set(10, 10, -1.0e6); // not positive definite: the pivot at 10 fails
    let (none, model) = (PassPipeline::none(), MachineModel::dram());
    let traced = |a: &SymMatrix<f64>, recorder: &TraceRecorder| {
        cholesky_out_of_core_traced(a, s, CholeskyAlgorithm::Lbc, &none, 0, &model, recorder)
    };

    let shared = TraceRecorder::new();
    let err = traced(&bad, &shared).unwrap_err();
    assert!(matches!(err, OocError::Matrix(_)), "{err}");
    assert!(shared.is_empty(), "the failed run left events behind");
    // Through the plan cache, the lookup's events are drained too.
    let service = PlanService::in_memory();
    let cached = RunOptions::new().traced(&model, &shared).cached(&service);
    assert!(cholesky_out_of_core_with(&bad, s, CholeskyAlgorithm::Lbc, &cached).is_err());
    assert!(
        shared.is_empty(),
        "the failed served run left events behind"
    );

    let (_, _, second) = traced(&good, &shared).unwrap();
    let (_, _, fresh) = traced(&good, &TraceRecorder::new()).unwrap();
    let kinds =
        |trace: &RunTrace| -> Vec<EventKind> { trace.events().iter().map(|e| e.kind).collect() };
    assert_eq!(kinds(&second.trace), kinds(&fresh.trace));
}
