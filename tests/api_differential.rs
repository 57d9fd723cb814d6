//! Differential sweep over the option lattice of the high-level API: for
//! every builder, every combination of pass pipeline {none, standard} ×
//! lookahead {0, 1} × observation {none, priced, traced} × plan source
//! {direct, cache miss, cache hit}, plus the tuned plan (default space)
//! under each observation and each source, must produce a result
//! **bitwise identical** to the plain `*_out_of_core` call and mutually
//! consistent [`IoStats`]:
//!
//! * for one pipeline and lookahead, observation and plan source change
//!   nothing: the stats are *equal* field for field, and with no passes
//!   and no prefetch they equal the plain call's;
//! * prefetching moves the same volume (it reorders load issue, never load
//!   totals) and every run stays within the capacity;
//! * priced and traced runs report a bitwise-consistent wall clock, and a
//!   traced run through the cache records exactly one cache lookup;
//! * a tuned run's measured stats equal the stats its tuner scored by dry
//!   run alone (the zero-execution-scoring invariant);
//! * every combination that cannot run is a typed [`OocError`].

use symla::prelude::*;

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

/// Sweeps the whole lattice for one builder. `run` executes the builder on
/// fixed operands under the given options; `plain` is the plain
/// `*_out_of_core` call's result and report.
fn sweep<R: PartialEq + std::fmt::Debug>(
    name: &str,
    s: usize,
    space: &TuningSpace,
    plain: (R, RunReport),
    run: impl Fn(&RunOptions<'_, f64>) -> Result<(R, Run), OocError>,
) {
    let (plain, report) = plain;
    let model = MachineModel::dram();
    for pipeline in [PassPipeline::none(), PassPipeline::standard()] {
        for lookahead in [0usize, 1] {
            let base = RunOptions::new()
                .pipeline(pipeline.clone())
                .lookahead(lookahead);
            let passes = !pipeline.is_noop();
            let mut reference: Option<IoStats> = None;
            for observe in OBSERVATIONS {
                let service = PlanService::in_memory();
                for source in SOURCES {
                    let recorder = TraceRecorder::new();
                    let options =
                        arrange(base.clone(), observe, source, &model, &recorder, &service);
                    let ctx =
                        format!("{name} passes={passes} L={lookahead} {observe:?} {source:?}");
                    let outcome = run(&options).unwrap();
                    check_run(&ctx, &outcome, &plain, s, observe, source);
                    let run = &outcome.1;

                    let stats = &run.report.stats;
                    let reference = reference.get_or_insert_with(|| stats.clone());
                    assert_eq!(
                        stats, reference,
                        "{ctx}: stats across observations and sources"
                    );
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
}

/// The SYRK lattice, for one algorithm.
fn syrk_differential(algorithm: SyrkAlgorithm, n: usize, m: usize, s: usize) {
    let a: Matrix<f64> = generate::random_matrix_seeded(n, m, 8100 + n as u64);
    let mut rng = generate::seeded_rng(8200 + n as u64);
    let c0: SymMatrix<f64> = generate::random_symmetric(n, &mut rng);

    let mut c_plain = c0.clone();
    let report = syrk_out_of_core(&a, &mut c_plain, 1.0, s, algorithm).unwrap();
    let space = syrk_tuning_space(n, s, algorithm);
    sweep(algorithm.name(), s, &space, (c_plain, report), |options| {
        let mut c = c0.clone();
        syrk_out_of_core_with(&a, &mut c, 1.0, s, algorithm, options).map(|run| (c, run))
    });

    let mut bad = SymMatrix::zeros(n + 1);
    let err = syrk_out_of_core_with(&a, &mut bad, 1.0, s, algorithm, &RunOptions::new());
    assert!(matches!(err, Err(OocError::Invalid(_))), "operand shapes");
}

/// The Cholesky lattice, for one algorithm.
fn cholesky_differential(algorithm: CholeskyAlgorithm, n: usize, s: usize) {
    let spd: SymMatrix<f64> = generate::random_spd_seeded(n, 8300 + n as u64);
    let plain = cholesky_out_of_core(&spd, s, algorithm).unwrap();
    let space = cholesky_tuning_space(n, s, algorithm);
    sweep(algorithm.name(), s, &space, plain, |options| {
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
        s,
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
