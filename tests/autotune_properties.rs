//! Property sweep of the cost-model-driven autotuner:
//!
//! * **Determinism** — the same builder, space, model and capacity always
//!   produce an *identical* [`TuningReport`] (every candidate, every score,
//!   the same winner), both through the raw [`Tuner`] and through the
//!   high-level `*_autotuned` twins;
//! * **Monotonicity** — enlarging the [`TuningSpace`] along any axis never
//!   worsens the winner's modelled nanoseconds (the exhaustive search can
//!   only gain options, never lose them);
//! * **Makespan** — the LPT pricing of the parallel-worker axis respects
//!   the classic bounds (serial sum, max-element and sum/workers lower
//!   bounds, monotone in the worker count) and a worker axis of `[1, p]`
//!   never tunes worse than serial.

use symla::prelude::*;
use symla_core::TbsPlan;

/// A TBS seed builder over the tile (= `k`) axis on a fixed instance,
/// mirroring what the high-level API hands the tuner: `None` is the planner
/// default, an explicit `k` must fit the capacity or the point is skipped.
fn tbs_builder(
    n: usize,
    m: usize,
    s: usize,
) -> impl Fn(Option<usize>) -> Result<Schedule<f64>, String> {
    move |tile| {
        let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
        let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
        let plan = match tile {
            None => TbsPlan::for_memory(s).map_err(|e| e.to_string())?,
            Some(k) => {
                let plan = TbsPlan::with_k(k).map_err(|e| e.to_string())?;
                if plan.working_set() > s {
                    return Err(format!("k={k} exceeds capacity {s}"));
                }
                TbsPlan {
                    capacity: s,
                    ..plan
                }
            }
        };
        tbs_schedule(&a_ref, &c_ref, 1.0, &plan).map_err(|e| e.to_string())
    }
}

fn space() -> TuningSpace {
    TuningSpace::minimal()
        .with_tiles(vec![None, Some(6), Some(4)])
        .with_pipelines(vec![
            PassPipeline::none(),
            PassPipeline::standard(),
            PassPipeline::locality(Some(40)),
        ])
        .with_lookaheads(vec![0, 1, 2])
}

/// Same inputs, same report — across repeated runs of the raw tuner.
#[test]
fn tuning_is_deterministic() {
    let (n, m, s) = (24usize, 5usize, 40usize);
    let model = MachineModel::nvme();
    let tuner = Tuner::new(&model, s);
    let first = tuner.tune(tbs_builder(n, m, s), &space()).unwrap();
    for _ in 0..3 {
        let again = tuner.tune(tbs_builder(n, m, s), &space()).unwrap();
        assert_eq!(again, first, "identical inputs must reproduce the report");
    }
    // A bounded beam is a different (but equally deterministic) search.
    let beamed = Tuner::new(&model, s).with_beam_width(1);
    let b1 = beamed.tune(tbs_builder(n, m, s), &space()).unwrap();
    let b2 = beamed.tune(tbs_builder(n, m, s), &space()).unwrap();
    assert_eq!(b1, b2, "beam search must be deterministic too");
}

/// Same inputs, same report — through a tuned high-level run.
#[test]
fn high_level_autotuning_is_deterministic() {
    let (n, m, s) = (30usize, 6usize, 60usize);
    let a: Matrix<f64> = generate::random_matrix_seeded(n, m, 9100);
    let mut rng = generate::seeded_rng(9101);
    let c0: SymMatrix<f64> = generate::random_symmetric(n, &mut rng);
    let space = syrk_tuning_space(n, s, SyrkAlgorithm::Tbs);
    let model = MachineModel::nvme();

    let options = RunOptions::new().tuned(&space, &model);
    let mut c1 = c0.clone();
    let run1 = syrk_out_of_core_with(&a, &mut c1, 1.0, s, SyrkAlgorithm::Tbs, &options).unwrap();
    let mut c2 = c0.clone();
    let run2 = syrk_out_of_core_with(&a, &mut c2, 1.0, s, SyrkAlgorithm::Tbs, &options).unwrap();
    assert_eq!(run1.tuning, run2.tuning, "report reproduces");
    assert_eq!(c1, c2, "result reproduces bitwise");
    assert_eq!(
        run1.report.stats, run2.report.stats,
        "measured stats reproduce"
    );
}

/// Growing the space along every axis never worsens the winner: each step
/// of the chain is a superset of the previous one, so the exhaustive search
/// must report a winner at most as slow (in modelled ns).
#[test]
fn enlarging_the_space_never_worsens_the_winner() {
    let (n, m, s) = (24usize, 5usize, 40usize);
    let model = MachineModel::nvme();
    let tuner = Tuner::new(&model, s);

    let base = TuningSpace::minimal()
        .with_pipelines(vec![PassPipeline::none()])
        .with_lookaheads(vec![0]);
    let chain = [
        base.clone(),
        // More lookaheads.
        base.clone().with_lookaheads(vec![0, 1, 2]),
        // ... and more pipelines.
        base.clone()
            .with_lookaheads(vec![0, 1, 2])
            .with_pipelines(vec![
                PassPipeline::none(),
                PassPipeline::standard(),
                PassPipeline::locality(Some(s)),
            ]),
        // ... and more tiles (one of them infeasible: skipped, not fatal).
        base.with_lookaheads(vec![0, 1, 2])
            .with_pipelines(vec![
                PassPipeline::none(),
                PassPipeline::standard(),
                PassPipeline::locality(Some(s)),
            ])
            .with_tiles(vec![None, Some(6), Some(4), Some(100)]),
    ];

    let mut prev = f64::INFINITY;
    for (i, sp) in chain.iter().enumerate() {
        let report = tuner.tune(tbs_builder(n, m, s), sp).unwrap();
        let winner_ns = report.winner().modelled_ns;
        assert!(
            winner_ns <= prev,
            "step {i}: winner {winner_ns} ns worse than smaller space's {prev} ns"
        );
        prev = winner_ns;
    }
}

/// The LPT makespan respects the classic scheduling bounds.
#[test]
fn lpt_makespan_bounds() {
    use symla_sched::autotune::lpt_makespan;
    let durations: Vec<f64> = (1..=17).map(|i| ((i * 7919) % 13) as f64 + 0.5).collect();
    let serial: f64 = durations.iter().sum();
    let longest = durations.iter().cloned().fold(0.0f64, f64::max);

    assert_eq!(lpt_makespan(&durations, 1), serial);
    let mut prev = f64::INFINITY;
    for workers in 1..=8 {
        let span = lpt_makespan(&durations, workers);
        assert!(span <= prev, "workers={workers}: makespan must not grow");
        assert!(span >= longest, "workers={workers}: below longest task");
        assert!(
            span >= serial / workers as f64 - 1e-9,
            "workers={workers}: below the perfect-split bound"
        );
        assert!(span <= serial, "workers={workers}: above the serial sum");
        prev = span;
    }
}

/// A worker axis of `[1, p]` never tunes worse than serial-only, and the
/// winning parallel candidate's price is exactly the LPT makespan of its
/// group windows.
#[test]
fn worker_axis_never_worsens_the_winner() {
    let (n, m, s) = (24usize, 5usize, 40usize);
    let model = MachineModel::nvme();
    let tuner = Tuner::new(&model, s);

    let serial_space = TuningSpace::minimal();
    let parallel_space = TuningSpace::minimal().with_workers(vec![1, 2, 4]);

    let serial = tuner.tune(tbs_builder(n, m, s), &serial_space).unwrap();
    let parallel = tuner.tune(tbs_builder(n, m, s), &parallel_space).unwrap();
    assert!(
        parallel.winner().modelled_ns <= serial.winner().modelled_ns,
        "adding worker candidates must never worsen the winner"
    );
    // Every workers==1 candidate in the parallel report matches its twin in
    // the serial report (the worker axis re-prices, it never re-plans).
    for c in &parallel.candidates {
        if c.config.workers == 1 {
            let twin = serial
                .candidates
                .iter()
                .find(|t| t.config == c.config)
                .expect("serial twin exists");
            assert_eq!(
                c.modelled_ns.to_bits(),
                twin.modelled_ns.to_bits(),
                "serial candidates price identically in both spaces"
            );
            assert_eq!(c.stats, twin.stats, "and carry identical stats");
        }
    }
}
