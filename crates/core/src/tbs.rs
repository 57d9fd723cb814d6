//! TBS — Triangular Block SYRK (Algorithm 4 of the paper), the
//! communication-optimal out-of-core SYRK schedule, and its tiled variant
//! (Section 5.1.4).
//!
//! The result matrix is partitioned into triangle blocks built from the
//! cyclic indexing family (Section 5.1): each block holds `k(k−1)/2` result
//! elements touching only `k` rows, so updating it with one column of `A`
//! costs `k` loads for `k(k−1)/2` multiply–adds — the `√(S/2)` operational
//! intensity that matches the lower bound. Diagonal zones are handled by
//! recursion, the ragged bottom strip by the square-block baseline.
//!
//! Leading-order I/O (Theorem 5.6):
//! `N²M/(√2·√S) + N²/2 + O(NM·log N)` — a `√2` improvement over Béreux's
//! square-block OOC_SYRK.
//!
//! Element TBS only engages once `N ⪆ 2S`. Tiled TBS replaces individual
//! result elements by `b×b` tiles, so the triangle-block phase already
//! engages when `N ⪆ √(2S)·√(k(k−1))`, at the price of a `√(k/(k−1))`
//! factor on the leading I/O term:
//!
//! `Q ≤ N²M/√(2S) · √(k/(k−1)) + N²/2 + O(NM log N)`.
//!
//! Both are one schedule family: a [`TbsPlan`] with `b = 1` is element TBS.
//! The builder keeps a `b = 1` block as one packed pairs region updated by
//! one `TrianglePairs` op per column of `A`, and a `b > 1` block as its
//! `k(k−1)/2` tiles updated by one `Ger` op each.

use crate::plan::TbsPlan;
use symla_baselines::error::{OocError, Result};
use symla_baselines::params::{tile_extents, IoEstimate};
use symla_baselines::{
    ooc_syrk_build, ooc_syrk_cost, ooc_syrk_rect_build, ooc_syrk_rects_cost, OocSyrkPlan,
};
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;
use symla_memory::{OocMachine, PanelRef, SymWindowRef};
use symla_sched::indexing::CyclicIndexing;
use symla_sched::{BufSlice, ComputeOp, Engine, Schedule, ScheduleBuilder};

/// Describes how a TBS invocation decomposes a problem of order `n`
/// (used by the experiments to report the structure of Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbsDecomposition {
    /// Triangle-block side length `k`, in tiles.
    pub k: usize,
    /// Tile side length `b` (`1` for element TBS).
    pub b: usize,
    /// Tile-grid size `c` (zone side length in tiles), when the triangle
    /// phase engages.
    pub grid: Option<usize>,
    /// Rows covered by triangle blocks (`c·k·b`), 0 if not applicable.
    pub covered: usize,
    /// Leftover rows handled by the square-block baseline.
    pub leftover: usize,
    /// Number of triangle blocks (`c²`).
    pub blocks: usize,
}

/// Computes the top-level decomposition of a TBS call of order `n`.
pub fn tbs_decomposition(n: usize, plan: &TbsPlan) -> TbsDecomposition {
    let (k, b) = (plan.k, plan.b);
    let grid = plan.engaged_grid(n);
    let covered = grid.map_or(0, |c| c * k * b);
    TbsDecomposition {
        k,
        b,
        grid,
        covered,
        leftover: n - covered,
        blocks: grid.map_or(0, |c| c * c),
    }
}

/// Validates the plan and returns the square-block plan of its fallback and
/// leftover strip.
fn square_plan(plan: &TbsPlan) -> Result<OocSyrkPlan> {
    plan.validate()?;
    OocSyrkPlan::for_memory(plan.capacity.max(plan.working_set()))
}

/// Predicted I/O of [`tbs_execute`] for a result window of order `n` and an
/// input panel with `m` columns. Mirrors the executor exactly.
pub fn tbs_cost(n: usize, m: usize, plan: &TbsPlan) -> Result<IoEstimate> {
    let sq = square_plan(plan)?;
    Ok(zone_cost(n, m, plan, &sq))
}

fn zone_cost(n: usize, m: usize, plan: &TbsPlan, sq: &OocSyrkPlan) -> IoEstimate {
    let decomp = tbs_decomposition(n, plan);
    let Some(c) = decomp.grid else {
        return ooc_syrk_cost(n, m, sq);
    };
    let (k, b) = (plan.k, plan.b);
    let (covered, leftover) = (decomp.covered, decomp.leftover);
    let mut est = IoEstimate::default();

    // 1. leftover strip: rectangle part + trailing diagonal part
    if leftover > 0 {
        est = est.merge(&ooc_syrk_rects_cost(leftover, covered, m, sq.tile));
        est = est.merge(&ooc_syrk_cost(leftover, m, sq));
    }

    // 2. recursive diagonal zones (order c·b each)
    let zone = zone_cost(c * b, m, plan, sq);
    for _ in 0..k {
        est = est.merge(&zone);
    }

    // 3. triangle blocks: k(k−1)/2 tiles of b² elements each, plus k·b
    //    elements of A per column.
    let tile_pairs = (k * (k - 1) / 2) as u128;
    let blocks = (c * c) as u128;
    est.loads += blocks * (tile_pairs * (b * b) as u128 + (m * k * b) as u128);
    est.stores += blocks * tile_pairs * (b * b) as u128;
    let block_flops = tile_pairs * (m * b * b) as u128;
    est.flops = est
        .flops
        .merge(&FlopCount::new(blocks * block_flops, blocks * block_flops));
    est
}

/// Appends the TBS schedule for `C[window] += alpha · A · Aᵀ` to an existing
/// builder, recursing into the diagonal zones. Operands are assumed
/// validated; the plan is checked.
pub fn tbs_build<T: Scalar>(
    sched: &mut ScheduleBuilder<T>,
    a: &PanelRef,
    c: &SymWindowRef,
    alpha: T,
    plan: &TbsPlan,
) -> Result<()> {
    let sq = square_plan(plan)?;
    build_zone(sched, a, c, alpha, plan, &sq);
    Ok(())
}

fn build_zone<T: Scalar>(
    sched: &mut ScheduleBuilder<T>,
    a: &PanelRef,
    c: &SymWindowRef,
    alpha: T,
    plan: &TbsPlan,
    sq: &OocSyrkPlan,
) {
    let m = a.cols();
    let decomp = tbs_decomposition(c.order(), plan);
    let Some(cgrid) = decomp.grid else {
        ooc_syrk_build(sched, a, c, alpha, sq);
        return;
    };
    let (k, b) = (plan.k, plan.b);
    let (covered, leftover) = (decomp.covered, decomp.leftover);

    // 1. leftover strip: the rectangle below the covered rows, then its
    //    diagonal part
    if leftover > 0 {
        for &(i0, ic) in &tile_extents(leftover, sq.tile) {
            for &(j0, jc) in &tile_extents(covered, sq.tile) {
                ooc_syrk_rect_build(sched, a, c, (covered + i0, ic), (j0, jc), alpha);
            }
        }
        let a_bot = a.window(covered, 0, leftover, m);
        let c_bot = c.subwindow(covered, leftover);
        ooc_syrk_build(sched, &a_bot, &c_bot, alpha, sq);
    }

    // 2. recursive diagonal zones
    let zone = cgrid * b;
    for u in 0..k {
        let a_sub = a.window(u * zone, 0, zone, m);
        let c_sub = c.subwindow(u * zone, zone);
        build_zone(sched, &a_sub, &c_sub, alpha, plan, sq);
    }

    // 3. triangle blocks, whose tile pairs (u, v), u > v, run row by row
    let family = CyclicIndexing::new(cgrid, k);
    let pairs: Vec<(usize, usize)> = (1..k).flat_map(|u| (0..u).map(move |v| (u, v))).collect();
    let block_flops = (pairs.len() * m * b * b) as u128;
    let (mut rows, mut tiles) = (Vec::with_capacity(k * b), Vec::with_capacity(pairs.len()));
    for i in 0..cgrid {
        for j in 0..cgrid {
            sched.begin_group();
            let tile_rows = family.row_indices(i, j);
            // The matrix rows of the block, in tile-row order.
            rows.clear();
            rows.extend(tile_rows.iter().flat_map(|&t| t * b..(t + 1) * b));
            // One packed pairs region at b = 1, else one buffer per tile.
            tiles.clear();
            if b == 1 {
                tiles.push(sched.load(c.id, c.pairs_region(&rows)));
            } else {
                for &(u, v) in &pairs {
                    let region = c.rect_region(tile_rows[u] * b, tile_rows[v] * b, b, b);
                    tiles.push(sched.load(c.id, region));
                }
            }
            for q in 0..m {
                let abuf = sched.load(a.id, a.rows_region(&rows, q, 1));
                if b == 1 {
                    sched.compute(ComputeOp::TrianglePairs {
                        alpha,
                        x: BufSlice::whole(abuf, k),
                        dst: tiles[0],
                    });
                } else {
                    for (&(u, v), &dst) in pairs.iter().zip(&tiles) {
                        sched.compute(ComputeOp::Ger {
                            alpha,
                            x: BufSlice::new(abuf, u * b, b),
                            y: BufSlice::new(abuf, v * b, b),
                            dst,
                        });
                    }
                }
                sched.discard(abuf);
            }
            sched.flops(FlopCount::new(block_flops, block_flops));
            for &tile in &tiles {
                sched.store(tile);
            }
        }
    }
}

/// Builds the TBS schedule for `C[window] += alpha · A · Aᵀ`, validating the
/// operand shapes and the plan.
pub fn tbs_schedule<T: Scalar>(
    a: &PanelRef,
    c: &SymWindowRef,
    alpha: T,
    plan: &TbsPlan,
) -> Result<Schedule<T>> {
    if a.rows() != c.order() {
        return Err(OocError::Invalid(format!(
            "TBS operand mismatch: A has {} rows but C has order {}",
            a.rows(),
            c.order()
        )));
    }
    let mut sched = ScheduleBuilder::new();
    tbs_build(&mut sched, a, c, alpha, plan)?;
    Ok(sched.finish())
}

/// Executes `C[window] += alpha · A · Aᵀ` with the TBS schedule.
///
/// * `a` — the `n × m` input panel (dense, or a lower-triangle window of a
///   symmetric matrix as in LBC);
/// * `c` — the order-`n` diagonal window of a symmetric matrix receiving the
///   update;
/// * `alpha` — scaling of the product (LBC passes `-1`).
///
/// When the applicability condition `c ≥ k − 1` of Algorithm 4 fails (the
/// matrix is too small relative to the memory), the schedule degrades to the
/// square-block baseline, exactly as the paper specifies. The schedule is
/// emitted by [`tbs_build`] and replayed by the generic [`Engine`].
pub fn tbs_execute<T: Scalar>(
    machine: &mut OocMachine<T>,
    a: &PanelRef,
    c: &SymWindowRef,
    alpha: T,
    plan: &TbsPlan,
) -> Result<()> {
    let schedule = tbs_schedule(a, c, alpha, plan)?;
    Engine::execute(machine, &schedule)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use symla_matrix::generate::{random_matrix_seeded, random_symmetric, seeded_rng};
    use symla_matrix::kernels::syrk_sym;
    use symla_matrix::{Matrix, SymMatrix};

    /// Seeds of `A` and `C` (offset by `n`) of the element and tiled runs.
    const ELEMENT_SEEDS: [u64; 2] = [7000, 8000];
    const TILED_SEEDS: [u64; 2] = [9100, 9200];

    fn run(
        n: usize,
        m: usize,
        plan: &TbsPlan,
        capacity: usize,
        alpha: f64,
        [a_seed, c_seed]: [u64; 2],
    ) -> (
        SymMatrix<f64>,
        SymMatrix<f64>,
        IoEstimate,
        symla_memory::IoStats,
    ) {
        let a: Matrix<f64> = random_matrix_seeded(n, m, a_seed + n as u64);
        let mut rng = seeded_rng(c_seed + n as u64);
        let c0: SymMatrix<f64> = random_symmetric(n, &mut rng);

        let mut expected = c0.clone();
        syrk_sym(alpha, &a, 1.0, &mut expected).unwrap();

        let mut machine = OocMachine::with_capacity(capacity);
        let a_id = machine.insert_dense(a);
        let c_id = machine.insert_symmetric(c0);
        tbs_execute(
            &mut machine,
            &PanelRef::dense(a_id, n, m),
            &SymWindowRef::full(c_id, n),
            alpha,
            plan,
        )
        .unwrap();
        let est = tbs_cost(n, m, plan).unwrap();
        let stats = machine.stats().clone();
        let got = machine.take_symmetric(c_id).unwrap();
        (got, expected, est, stats)
    }

    /// Element TBS planned for a memory of `s` elements.
    fn run_tbs(
        n: usize,
        m: usize,
        s: usize,
        alpha: f64,
    ) -> (
        SymMatrix<f64>,
        SymMatrix<f64>,
        IoEstimate,
        symla_memory::IoStats,
    ) {
        let plan = TbsPlan::for_memory(s).unwrap();
        run(n, m, &plan, s, alpha, ELEMENT_SEEDS)
    }

    #[test]
    fn engaged_tbs_is_correct_and_matches_cost() {
        // S = 10 -> k = 4; n = 30 -> c = 7 (coprime with 2), covered 28,
        // leftover 2. The triangle phase genuinely engages here.
        let plan = TbsPlan::for_memory(10).unwrap();
        assert_eq!(plan.k, 4);
        assert!(plan.applicable(30));

        let (got, expected, est, stats) = run_tbs(30, 6, 10, 1.0);
        assert!(got.approx_eq(&expected, 1e-11));
        assert_eq!(est.loads, stats.volume.loads as u128);
        assert_eq!(est.stores, stats.volume.stores as u128);
        assert_eq!(est.flops, stats.flops);
        assert!(stats.peak_resident <= 10);
    }

    #[test]
    fn fallback_path_matches_square_baseline() {
        // n far below the applicability threshold: TBS must behave exactly
        // like OOC_SYRK.
        let s = 64;
        let plan = TbsPlan::for_memory(s).unwrap();
        assert!(!plan.applicable(20));
        let (got, expected, est, stats) = run_tbs(20, 5, s, 1.0);
        assert!(got.approx_eq(&expected, 1e-11));
        assert_eq!(est.loads, stats.volume.loads as u128);
        let sq = OocSyrkPlan::for_memory(s).unwrap();
        assert_eq!(est, ooc_syrk_cost(20, 5, &sq));
    }

    #[test]
    fn negative_alpha_and_various_sizes() {
        for &(n, m, s) in &[
            (25_usize, 4_usize, 10_usize),
            (37, 3, 10),
            (52, 5, 15),
            (48, 7, 21),
        ] {
            let (got, expected, est, stats) = run_tbs(n, m, s, -1.0);
            assert!(got.approx_eq(&expected, 1e-10), "n={n} m={m} s={s}");
            assert_eq!(est.loads, stats.volume.loads as u128, "n={n} m={m} s={s}");
            assert_eq!(est.stores, stats.volume.stores as u128);
            assert_eq!(est.flops, stats.flops);
            assert!(stats.peak_resident <= s);
        }
    }

    #[test]
    fn decomposition_structure() {
        let plan = TbsPlan::with_k(5).unwrap(); // S = 15
        let d = tbs_decomposition(60, &plan);
        // n/k = 12 -> largest coprime with {2,3} below 12 is 11
        assert_eq!(d.grid, Some(11));
        assert_eq!(d.covered, 55);
        assert_eq!(d.leftover, 5);
        assert_eq!(d.blocks, 121);

        let small = tbs_decomposition(12, &plan);
        assert_eq!(small.grid, None);
        assert_eq!(small.leftover, 12);
        assert_eq!(small.blocks, 0);
    }

    #[test]
    fn cost_equals_dry_run_across_leftover_strips() {
        // The closed-form strip below the triangle blocks, at the top level
        // and inside the recursive zones, against the replayed schedule.
        let [x, y] = [0, 1].map(symla_memory::MatrixId::synthetic);
        let mut strips = 0;
        for (k, b) in [(2, 1), (3, 1), (4, 1), (5, 1), (2, 3), (3, 4), (4, 2)] {
            let plan = TbsPlan::with_params(k, b).unwrap();
            for n in (0..=90).step_by(7) {
                for m in [1, 4] {
                    let (a, c) = (PanelRef::dense(x, n, m), SymWindowRef::full(y, n));
                    let schedule = tbs_schedule::<f64>(&a, &c, 1.0, &plan).unwrap();
                    let dry = IoEstimate::from_stats(&Engine::dry_run(&schedule, "main"));
                    let ctx = format!("k={k} b={b} n={n} m={m}");
                    assert_eq!(tbs_cost(n, m, &plan).unwrap(), dry, "{ctx}");
                    let d = tbs_decomposition(n, &plan);
                    strips += usize::from(d.grid.is_some() && d.leftover > 0);
                }
            }
        }
        assert!(strips >= 20, "only {strips} engaged instances with a strip");
    }

    #[test]
    fn tbs_beats_square_blocks_and_respects_lower_bound() {
        // At a size where the triangle phase dominates, the measured loads of
        // TBS must be below the square-block baseline and above the paper's
        // lower bound.
        let s = 36; // k = 8
        let plan = TbsPlan::for_memory(s).unwrap();
        let n = 280; // >> min_applicable_n
        let m = 32;
        assert!(plan.applicable(n));

        let tbs = tbs_cost(n, m, &plan).unwrap();
        let sq = ooc_syrk_cost(n, m, &OocSyrkPlan::for_memory(s).unwrap());
        assert!(
            tbs.loads < sq.loads,
            "TBS loads {} should beat square-block {}",
            tbs.loads,
            sq.loads
        );
        let lb = bounds::syrk_lower_bound(n as f64, m as f64, s as f64);
        assert!(
            tbs.loads as f64 >= lb,
            "TBS {} below lower bound {lb}",
            tbs.loads
        );
    }

    #[test]
    fn leading_term_approaches_the_optimal_constant() {
        // For a large analytic instance, loads(TBS) - N^2/2 over N^2 M /
        // sqrt(S) approaches 1/sqrt(2) (within the low-order terms).
        let s = 5050; // k = 100
        let plan = TbsPlan::for_memory(s).unwrap();
        assert_eq!(plan.k, 100);
        let n = 60_000;
        let m = 2_000;
        assert!(plan.applicable(n));
        let est = tbs_cost(n, m, &plan).unwrap();
        let c_loads = (n as f64) * (n as f64) / 2.0;
        let normalized =
            (est.loads as f64 - c_loads) / ((n as f64).powi(2) * m as f64 / (s as f64).sqrt());
        let target = 1.0 / std::f64::consts::SQRT_2;
        assert!(
            (normalized - target).abs() / target < 0.06,
            "normalized constant {normalized} vs {target}"
        );
    }

    /// A 4x3 panel against a 5x5 window must be rejected as invalid.
    fn assert_shape_mismatch_rejected(plan: &TbsPlan) {
        let mut machine = OocMachine::<f64>::with_capacity(100);
        let a_id = machine.insert_dense(Matrix::zeros(4, 3));
        let c_id = machine.insert_symmetric(SymMatrix::zeros(5));
        let err = tbs_execute(
            &mut machine,
            &PanelRef::dense(a_id, 4, 3),
            &SymWindowRef::full(c_id, 5),
            1.0,
            plan,
        )
        .unwrap_err();
        assert!(matches!(err, OocError::Invalid(_)));
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert_shape_mismatch_rejected(&TbsPlan::with_k(3).unwrap());
    }

    #[test]
    fn tiled_shape_mismatch_rejected() {
        assert_shape_mismatch_rejected(&TbsPlan::with_params(2, 2).unwrap());
    }

    #[test]
    fn degenerate_plans_are_rejected() {
        // k < 2 would recurse into a zone of the same order; b = 0 has no
        // rows. Every entry point rejects them instead.
        let [x, y] = [0, 1].map(symla_memory::MatrixId::synthetic);
        let (a, c) = (PanelRef::dense(x, 30, 4), SymWindowRef::full(y, 30));
        for (k, b) in [(1, 1), (3, 0), (1, 2)] {
            let plan = TbsPlan { k, b, capacity: 10 };
            let invalid = |e: OocError| matches!(e, OocError::Invalid(_));
            assert!(invalid(tbs_cost(30, 4, &plan).unwrap_err()), "{plan:?}");
            assert!(invalid(tbs_schedule(&a, &c, 1.0, &plan).unwrap_err()));
            let mut sched = ScheduleBuilder::<f64>::new();
            assert!(invalid(
                tbs_build(&mut sched, &a, &c, 1.0, &plan).unwrap_err()
            ));
            assert!(TbsPlan::with_params(k, b).is_err());
        }
    }

    #[test]
    fn element_tbs_is_tiled_tbs_at_b_one() {
        // The b = 1 tiled plan emits exactly the element schedule, in the
        // engaged, recursive and fallback regimes.
        let [x, y] = [0, 1].map(symla_memory::MatrixId::synthetic);
        for k in [2, 3, 4, 5, 8] {
            for (n, m) in [(60, 4), (25, 3), (7, 2)] {
                let (a, c) = (PanelRef::dense(x, n, m), SymWindowRef::full(y, n));
                let tiled = tbs_schedule::<f64>(&a, &c, 1.5, &TbsPlan::with_params(k, 1).unwrap());
                let element = tbs_schedule::<f64>(&a, &c, 1.5, &TbsPlan::with_k(k).unwrap());
                assert!(tiled.unwrap() == element.unwrap(), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn engaged_tiled_tbs_is_correct_and_matches_cost() {
        // k = 3, b = 4: working set = 3*16 + 12 = 60. With n = 40 the tile
        // grid is c = largest coprime below 40/12 = 3 -> 3 >= k-1 = 2, so the
        // triangle phase engages (covered 36, leftover 4).
        let plan = TbsPlan::with_params(3, 4).unwrap();
        assert!(plan.applicable(40));
        let cap = plan.working_set().max(60);
        let (got, expected, est, stats) = run(40, 6, &plan, cap, 1.0, TILED_SEEDS);
        assert!(got.approx_eq(&expected, 1e-11));
        assert_eq!(est.loads, stats.volume.loads as u128);
        assert_eq!(est.stores, stats.volume.stores as u128);
        assert_eq!(est.flops, stats.flops);
        assert!(stats.peak_resident <= cap);
    }

    #[test]
    fn fallback_matches_square_baseline() {
        let plan = TbsPlan::with_params(4, 3).unwrap();
        assert!(!plan.applicable(20));
        let cap = plan.working_set();
        let (got, expected, est, _stats) = run(20, 5, &plan, cap, 1.0, TILED_SEEDS);
        assert!(got.approx_eq(&expected, 1e-11));
        let sq = OocSyrkPlan::for_memory(cap).unwrap();
        assert_eq!(est, ooc_syrk_cost(20, 5, &sq));
    }

    #[test]
    fn negative_alpha_and_recursion_depth() {
        // k = 2, b = 3: kb = 6; with n = 60 the grid is c = 9 (coprime range
        // empty for k = 2), covered 54; the recursion gets zones of order 27,
        // which themselves engage again (27/6 = 4 >= 1).
        let plan = TbsPlan::with_params(2, 3).unwrap();
        let cap = plan.working_set().max(24);
        let (got, expected, est, stats) = run(60, 4, &plan, cap, -1.0, TILED_SEEDS);
        assert!(got.approx_eq(&expected, 1e-10));
        assert_eq!(est.loads, stats.volume.loads as u128);
        assert_eq!(est.stores, stats.volume.stores as u128);
        assert!(stats.peak_resident <= cap);
    }

    #[test]
    fn planner_driven_run_matches_cost_and_beats_baseline() {
        let s = 600;
        let n = 180;
        let m = 24;
        let plan = TbsPlan::for_problem(s, n).unwrap();
        assert!(plan.applicable(n), "plan {plan:?}");
        let (got, expected, est, stats) = run(n, m, &plan, s, 1.0, TILED_SEEDS);
        assert!(got.approx_eq(&expected, 1e-10));
        assert_eq!(est.loads, stats.volume.loads as u128);
        assert!(stats.peak_resident <= s);

        // At this size, element-level TBS cannot engage (needs N >= ~2S), but
        // tiled TBS still beats the plain square-block baseline on loads of A
        // (total loads including C are compared here).
        let sq = ooc_syrk_cost(n, m, &OocSyrkPlan::for_memory(s).unwrap());
        assert!(
            est.loads < sq.loads,
            "tiled TBS {} should beat square blocks {}",
            est.loads,
            sq.loads
        );
        let lb = bounds::syrk_lower_bound(n as f64, m as f64, s as f64);
        assert!(est.loads as f64 >= lb);
    }

    #[test]
    fn decomposition_reports_structure() {
        let plan = TbsPlan::with_params(3, 4).unwrap();
        let d = tbs_decomposition(40, &plan);
        assert_eq!(d.grid, Some(3));
        assert_eq!(d.covered, 36);
        assert_eq!(d.leftover, 4);
        assert_eq!(d.blocks, 9);
        let none = tbs_decomposition(10, &plan);
        assert_eq!(none.grid, None);
        assert_eq!(none.blocks, 0);
    }

    #[test]
    fn overhead_factor_matches_section_5_1_4() {
        // For a large analytic instance the leading constant of tiled TBS is
        // 1/sqrt(2) * sqrt(k/(k-1)) (normalized by N^2 M / sqrt(S) with S
        // equal to the plan's exact working set).
        let plan = TbsPlan::with_params(5, 30).unwrap();
        let s_exact = plan.working_set() as f64;
        let n = 30_000;
        let m = 1_000;
        assert!(plan.applicable(n));
        let est = tbs_cost(n, m, &plan).unwrap();
        let c_loads = (n as f64) * (n as f64) / 2.0;
        let normalized =
            (est.loads as f64 - c_loads) / ((n as f64).powi(2) * m as f64 / s_exact.sqrt());
        let target = (plan.k as f64 / (plan.k as f64 - 1.0)).sqrt() / std::f64::consts::SQRT_2;
        assert!(
            (normalized - target).abs() / target < 0.12,
            "normalized {normalized} vs target {target}"
        );
    }
}
