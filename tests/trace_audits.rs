//! Transfer-stream audits of the paper's per-matrix invariants.
//!
//! A schedule's transfer stream is read off its steps without executing it
//! (no data, no machine), so instances can be larger than anything the
//! execute-mode tests touch. The audits hold for the **seed** schedule of
//! every algorithm *and* for its optimized form under both stock pass
//! pipelines:
//!
//! * **coherence** — the stream read off the steps, and the `RunTrace`
//!   that `modelled_run_trace` synthesizes, both re-accumulate to the
//!   dry-run `IoStats` (volumes and event counts);
//! * **per-matrix exactness** — each lower-triangle entry of the SYRK
//!   output `C` is loaded exactly once and stored exactly once, `A` is
//!   never written back, and both operands are fully covered;
//! * **lower bound** — total transfers are at least
//!   `mults / max_oi_symmetric_mults(S)` (Corollary 4.7: at most `√(S/2)`
//!   multiplications per transferred element, i.e. `Q_SYRK ≥ N²M/(√2·√S)`
//!   and `Q_Chol ≥ N³/(3·√2·√S)`), with the multiplication count taken
//!   from the schedule's own flop accounting;
//! * **monotone optimization** — the optimized schedule never moves more
//!   elements than the seed schedule, and the exactness invariants survive
//!   every pass.

mod common;

use common::{transfers, Transfer};
use std::collections::HashMap;
use symla::prelude::*;
use symla_baselines::ooc_syrk_schedule;
use symla_core::passes::PassPipeline;
use symla_sched::max_oi_symmetric_mults;

/// Per-cell transfer multiplicities of one matrix in one direction,
/// keyed by matrix coordinates (`Region::cells` buffer-layout order).
fn cell_counts(
    transfers: &[Transfer<'_>],
    matrix: MatrixId,
    store: bool,
) -> HashMap<(usize, usize), u64> {
    let mut counts = HashMap::new();
    for t in transfers {
        if t.matrix == matrix && t.store == store {
            for cell in t.region.cells() {
                *counts.entry(cell).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Element sums and event count of the loads and stores in a `RunTrace`.
fn traced_volume(trace: &RunTrace) -> (u64, u64, u64) {
    let (mut loads, mut stores, mut events) = (0, 0, 0);
    for record in trace.events() {
        match record.kind {
            EventKind::Load { elements, .. } => loads += elements as u64,
            EventKind::Store { elements, .. } => stores += elements as u64,
            _ => continue,
        }
        events += 1;
    }
    (loads, stores, events)
}

/// Transfer-stream ↔ dry-run coherence plus the operational-intensity lower
/// bound (shared by every audit). Returns the transfers for per-matrix
/// checks.
fn coherent_transfers<'a>(name: &str, schedule: &'a Schedule<f64>, s: usize) -> Vec<Transfer<'a>> {
    let dry = Engine::dry_run(schedule, "main");
    let dry_volume = (
        dry.volume.loads,
        dry.volume.stores,
        dry.load_events + dry.store_events,
    );
    let stream = transfers(schedule);
    let mut walked = (0, 0, stream.len() as u64);
    for t in &stream {
        let sum = if t.store {
            &mut walked.1
        } else {
            &mut walked.0
        };
        *sum += t.region.len() as u64;
    }
    assert_eq!(
        walked, dry_volume,
        "{name}: the steps' transfers must re-accumulate to the dry run"
    );
    let trace = modelled_run_trace(schedule, &MachineModel::dram(), 0, None);
    assert_eq!(
        traced_volume(&trace),
        dry_volume,
        "{name}: the synthesized trace must re-accumulate to the dry run"
    );

    // Corollary 4.7 / 4.8 via Lemma 3.1: no schedule can perform more than
    // √(S/2) multiplications per transferred element.
    let total = (dry.volume.loads + dry.volume.stores) as f64;
    let bound = dry.flops.mults as f64 / max_oi_symmetric_mults(s as f64);
    assert!(
        total >= bound,
        "{name}: {total} transferred elements beat the OI lower bound {bound:.1}"
    );
    stream
}

/// The seed schedule plus its optimized forms under both stock pipelines,
/// with monotone total traffic.
fn seed_and_optimized(name: &str, seed: Schedule<f64>) -> Vec<(String, Schedule<f64>)> {
    let seed_dry = Engine::dry_run(&seed, "main");
    let budget = 2 * seed_dry.peak_resident;
    let mut out = vec![(format!("{name} (seed)"), seed)];
    for (tag, pipeline) in [
        ("standard", PassPipeline::standard()),
        ("locality", PassPipeline::locality(Some(budget))),
    ] {
        let optimized = pipeline
            .manager::<f64>()
            .optimize(&out[0].1, "main")
            .unwrap_or_else(|e| panic!("{name}/{tag}: {e}"));
        assert!(
            !optimized.regressed(),
            "{name}/{tag}: pipeline increased dry-run transfers"
        );
        out.push((format!("{name} ({tag})"), optimized.schedule));
    }
    out
}

/// Audits one SYRK-family schedule: `A` (id 0) read-only and fully covered,
/// every lower-triangle entry of `C` (id 1) loaded exactly once and stored
/// exactly once.
fn audit_syrk(name: &str, schedule: &Schedule<f64>, n: usize, m: usize, s: usize) {
    let stream = coherent_transfers(name, schedule, s);
    let a_id = MatrixId::synthetic(0);
    let c_id = MatrixId::synthetic(1);

    assert!(
        cell_counts(&stream, a_id, true).is_empty(),
        "{name}: the input panel A must never be written back"
    );
    let a_loads = cell_counts(&stream, a_id, false);
    assert_eq!(a_loads.len(), n * m, "{name}: A must be fully read");
    assert!(
        a_loads.values().all(|&c| c >= 1),
        "{name}: impossible zero-count A cell"
    );

    for (store, what) in [(false, "loaded"), (true, "stored")] {
        let c_cells = cell_counts(&stream, c_id, store);
        assert_eq!(
            c_cells.len(),
            n * (n + 1) / 2,
            "{name}: C must be fully {what} (lower triangle)"
        );
        for (&(i, j), &count) in &c_cells {
            assert!(
                i >= j && i < n,
                "{name}: C cell ({i},{j}) outside the lower triangle"
            );
            assert_eq!(
                count, 1,
                "{name}: C entry ({i},{j}) {what} {count} times, expected 1"
            );
        }
    }
}

/// Audits one Cholesky schedule: the window (id 0) is fully loaded and the
/// whole factor is written back at least once; traffic never touches the
/// strict upper triangle.
fn audit_cholesky(name: &str, schedule: &Schedule<f64>, n: usize, s: usize) {
    let stream = coherent_transfers(name, schedule, s);
    let id = MatrixId::synthetic(0);
    for (store, what) in [(false, "loaded"), (true, "stored")] {
        let cells = cell_counts(&stream, id, store);
        assert_eq!(
            cells.len(),
            n * (n + 1) / 2,
            "{name}: the factor must be fully {what}"
        );
        assert!(
            cells.keys().all(|&(i, j)| i >= j && i < n),
            "{name}: traffic outside the lower triangle"
        );
    }
}

#[test]
fn ooc_syrk_trace_audit_seed_and_optimized() {
    let (n, m, s) = (144, 24, 150);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let seed = ooc_syrk_schedule::<f64>(&a_ref, &c_ref, 1.0, &OocSyrkPlan::for_memory(s).unwrap())
        .unwrap();
    for (name, schedule) in seed_and_optimized("ooc_syrk", seed) {
        audit_syrk(&name, &schedule, n, m, s);
    }
}

#[test]
fn tbs_trace_audit_seed_and_optimized() {
    let (n, m, s) = (96, 12, 36);
    let plan = TbsPlan::for_memory(s).unwrap();
    assert!(
        plan.applicable(n),
        "instance must engage the triangle phase"
    );
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let seed = tbs_schedule::<f64>(&a_ref, &c_ref, 1.0, &plan).unwrap();
    for (name, schedule) in seed_and_optimized("tbs", seed) {
        audit_syrk(&name, &schedule, n, m, s);
    }
}

#[test]
fn tbs_tiled_trace_audit_seed_and_optimized() {
    let (n, m, s) = (120, 16, 180);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let seed =
        tbs_schedule::<f64>(&a_ref, &c_ref, 1.0, &TbsPlan::for_problem(s, n).unwrap()).unwrap();
    for (name, schedule) in seed_and_optimized("tbs_tiled", seed) {
        audit_syrk(&name, &schedule, n, m, s);
    }
}

#[test]
fn lbc_trace_audit_seed_and_optimized() {
    let (n, s) = (72, 100);
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    let seed = lbc_schedule::<f64>(&window, &LbcPlan::for_problem(n, s).unwrap()).unwrap();
    for (name, schedule) in seed_and_optimized("lbc", seed) {
        audit_cholesky(&name, &schedule, n, s);
    }
}

/// The closed-form paper bounds (`bounds.rs`) agree with the OI formulation
/// on traced instances: the measured transfer totals dominate both.
#[test]
fn traced_totals_dominate_closed_form_bounds() {
    let traced_total = |schedule: &Schedule<f64>| {
        let (loads, stores, _) = traced_volume(&modelled_run_trace(
            schedule,
            &MachineModel::dram(),
            0,
            None,
        ));
        (loads + stores) as f64
    };
    let (n, m, s) = (144, 24, 150);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let schedule =
        ooc_syrk_schedule::<f64>(&a_ref, &c_ref, 1.0, &OocSyrkPlan::for_memory(s).unwrap())
            .unwrap();
    assert!(traced_total(&schedule) >= bounds::syrk_lower_bound(n as f64, m as f64, s as f64));

    let (n, s) = (72, 100);
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    let schedule = lbc_schedule::<f64>(&window, &LbcPlan::for_problem(n, s).unwrap()).unwrap();
    assert!(traced_total(&schedule) >= bounds::cholesky_lower_bound(n as f64, s as f64));
}
