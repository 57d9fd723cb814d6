//! Cross-crate integration tests: the full pipeline (generators → machine
//! model → out-of-core schedules → verification against reference kernels).

mod common;

use std::collections::HashMap;
use symla::prelude::*;
use symla_baselines::ooc_syrk_schedule;

#[test]
fn syrk_all_algorithms_agree_with_reference_and_bounds() {
    let n = 72;
    let m = 24;
    let s = 28; // k = 7
    let a = generate::random_matrix_seeded::<f64>(n, m, 11);
    let c0 = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(12));

    let mut expected = c0.clone();
    kernels::syrk_sym(1.0, &a, 1.0, &mut expected).unwrap();

    let mut measured = Vec::new();
    for algo in [
        SyrkAlgorithm::SquareBlocks,
        SyrkAlgorithm::TbsTiled,
        SyrkAlgorithm::Tbs,
    ] {
        let mut c = c0.clone();
        let report = syrk_out_of_core(&a, &mut c, 1.0, s, algo).unwrap();
        assert!(c.approx_eq(&expected, 1e-9), "{} wrong result", algo.name());
        assert!(report.prediction_matches(), "{} prediction", algo.name());
        assert!(report.stats.peak_resident <= s, "{} capacity", algo.name());
        assert!(
            report.measured_loads() as f64 >= report.lower_bound,
            "{} below lower bound",
            algo.name()
        );
        measured.push((algo.name(), report.measured_loads()));
    }
    // At this size the tiled TBS engages and beats the square baseline.
    let square = measured[0].1;
    let tiled = measured[1].1;
    assert!(
        tiled < square,
        "tiled TBS ({tiled}) should move less data than square blocks ({square})"
    );
}

#[test]
fn cholesky_all_algorithms_agree_with_reference_and_bounds() {
    let n = 96;
    let s = 21; // k = 6
    let a = generate::random_spd_seeded::<f64>(n, 21);
    let reference = kernels::cholesky_sym(&a).unwrap();

    let mut loads = std::collections::BTreeMap::new();
    for algo in [
        CholeskyAlgorithm::Bereux,
        CholeskyAlgorithm::LbcSquare,
        CholeskyAlgorithm::LbcTiled,
        CholeskyAlgorithm::Lbc,
    ] {
        let (l, report) = cholesky_out_of_core(&a, s, algo).unwrap();
        assert!(
            l.approx_eq(&reference, 1e-7),
            "{} factor differs from reference",
            algo.name()
        );
        assert!(kernels::cholesky_residual(&a, &l) < 1e-9);
        assert!(report.prediction_matches(), "{}", algo.name());
        assert!(report.stats.peak_resident <= s);
        assert!(report.measured_loads() as f64 >= report.lower_bound);
        loads.insert(algo.name(), report.measured_loads());
    }
    // The LBC variants with symmetric-aware trailing updates beat the plain
    // right-looking square-block ablation at this size.
    assert!(loads["LBC(tiled)"] < loads["LBC(square trailing)"]);
}

#[test]
fn works_in_single_precision_too() {
    let n = 48;
    let s = 21;
    let a32 = generate::random_spd_seeded::<f32>(n, 33);
    let (l, report) = cholesky_out_of_core(&a32, s, CholeskyAlgorithm::Lbc).unwrap();
    assert!(kernels::cholesky_residual(&a32, &l) < 1e-3);
    assert!(report.prediction_matches());

    let a = generate::random_matrix_seeded::<f32>(n, 16, 34);
    let mut c = SymMatrix::<f32>::zeros(n);
    let report = syrk_out_of_core(&a, &mut c, 1.0, s, SyrkAlgorithm::TbsTiled).unwrap();
    assert!(report.prediction_matches());
    let mut expected = SymMatrix::<f32>::zeros(n);
    kernels::syrk_sym(1.0_f32, &a, 1.0, &mut expected).unwrap();
    assert!(c.approx_eq(&expected, 1e-3));
}

#[test]
fn direct_machine_usage_and_phase_attribution() {
    // Drive LBC manually through the machine to check the per-phase split
    // matches the per-phase cost model.
    let n = 60;
    let s = 15; // k = 5
    let a = generate::random_spd_seeded::<f64>(n, 44);
    let plan = LbcPlan::for_problem(n, s).unwrap();

    let mut machine = OocMachine::<f64>::with_capacity(s);
    let id = machine.insert_symmetric(a.clone());
    symla_core::lbc_execute(&mut machine, &SymWindowRef::full(id, n), &plan).unwrap();
    let breakdown = symla_core::lbc_cost_breakdown(n, &plan).unwrap();

    let stats = machine.stats();
    assert_eq!(
        breakdown.chol.loads,
        stats.phase(symla_core::lbc::PHASE_CHOL).loads as u128
    );
    assert_eq!(
        breakdown.trsm.loads,
        stats.phase(symla_core::lbc::PHASE_TRSM).loads as u128
    );
    assert_eq!(
        breakdown.trailing.loads,
        stats.phase(symla_core::lbc::PHASE_TRAILING).loads as u128
    );
    assert_eq!(breakdown.total().stores, stats.volume.stores as u128);

    // the factor is still correct
    let result = machine.take_symmetric(id).unwrap();
    let l = LowerTriangular::from_lower_fn(n, |i, j| result.get(i, j));
    assert!(kernels::cholesky_residual(&a, &l) < 1e-10);
}

/// An executed run's trace accounts for every transfer its machine counted.
#[test]
fn trace_recording_covers_every_transfer() {
    let n = 40;
    let m = 10;
    let s = 24;
    let a = generate::random_matrix_seeded::<f64>(n, m, 55);
    let mut c = SymMatrix::zeros(n);
    let (model, recorder) = (MachineModel::dram(), TraceRecorder::new());
    let options = RunOptions::new().traced(&model, &recorder);
    let run = syrk_out_of_core_with(&a, &mut c, 1.0, s, SyrkAlgorithm::Tbs, &options).unwrap();

    let trace = run.trace.as_ref().unwrap();
    let stats = &run.report.stats;
    let (mut loaded, mut stored, mut transfers) = (0u64, 0u64, 0u64);
    for record in trace.events() {
        match record.kind {
            EventKind::Load { elements, .. } => loaded += elements as u64,
            EventKind::Store { elements, .. } => stored += elements as u64,
            _ => continue,
        }
        transfers += 1;
    }
    assert_eq!(loaded, stats.volume.loads);
    assert_eq!(stored, stats.volume.stores);
    assert_eq!(transfers, stats.load_events + stats.store_events);
    assert!(stats.peak_resident <= s);
}

/// Section 5.1.3: "the TBS algorithm loads each entry of C exactly once".
/// Verified from the schedule's transfers: the load traffic attributed to
/// the C matrix equals its packed size, for both TBS and the square-block
/// baseline.
#[test]
fn tbs_and_square_blocks_load_each_c_entry_exactly_once() {
    let n = 60;
    let m = 12;
    let s = 15; // k = 5, TBS engages
    let a = generate::random_matrix_seeded::<f64>(n, m, 77);

    for use_tbs in [true, false] {
        let mut machine = OocMachine::<f64>::with_capacity(s);
        let a_id = machine.insert_dense(a.clone());
        let c_id = machine.insert_symmetric(SymMatrix::zeros(n));
        let a_ref = PanelRef::dense(a_id, n, m);
        let c_ref = SymWindowRef::full(c_id, n);
        let schedule = if use_tbs {
            let plan = TbsPlan::for_memory(s).unwrap();
            assert!(plan.applicable(n));
            tbs_schedule(&a_ref, &c_ref, 1.0, &plan).unwrap()
        } else {
            let plan = OocSyrkPlan::for_memory(s).unwrap();
            ooc_syrk_schedule(&a_ref, &c_ref, 1.0, &plan).unwrap()
        };
        Engine::execute(&mut machine, &schedule).unwrap();

        // Elements moved per (matrix, is-store) by the schedule's transfers.
        let mut moved: HashMap<(MatrixId, bool), usize> = HashMap::new();
        for t in common::transfers(&schedule) {
            *moved.entry((t.matrix, t.store)).or_default() += t.region.len();
        }
        // every element of the packed lower triangle is loaded exactly once
        // and written back exactly once, and A is never written back
        assert_eq!(moved[&(c_id, false)], n * (n + 1) / 2, "tbs={use_tbs}");
        assert_eq!(moved[&(c_id, true)], n * (n + 1) / 2, "tbs={use_tbs}");
        assert!(!moved.contains_key(&(a_id, true)), "tbs={use_tbs}");
        // and the remaining loads are all loads of A
        assert_eq!(
            (moved[&(a_id, false)] + moved[&(c_id, false)]) as u64,
            machine.stats().volume.loads,
            "tbs={use_tbs}"
        );
    }
}

#[test]
fn parallel_extension_matches_sequential_result() {
    let n = 90;
    let m = 12;
    let a = generate::random_matrix_seeded::<f64>(n, m, 66);
    let mut expected = SymMatrix::<f64>::zeros(n);
    kernels::syrk_sym(1.0, &a, 1.0, &mut expected).unwrap();

    let mut c = SymMatrix::<f64>::zeros(n);
    let options = RunOptions::new().workers(4);
    let run = syrk_out_of_core_with(&a, &mut c, 1.0, 15, SyrkAlgorithm::Tbs, &options).unwrap();
    assert!(c.approx_eq(&expected, 1e-10));
    assert_eq!(run.workers.len(), 4);
    assert!(run.report.measured_loads() > 0);
    assert!(run.report.prediction_matches());
}
