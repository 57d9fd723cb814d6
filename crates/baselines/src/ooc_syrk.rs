//! Out-of-core SYRK with square result blocks (Béreux's `OOC_SYRK`, the
//! baseline the paper improves upon).
//!
//! The schedule follows the generic Algorithm 3 of the paper with square
//! blocks of side `t` (where `t² + 2t ≤ S`): each block of the lower triangle
//! of `C` is loaded once, every column of `A` is streamed against it (two
//! length-`t` segments per column for an off-diagonal block, one for a
//! diagonal block), and the block is written back.
//!
//! Leading-order I/O: `N²M/√S` loads from `A` plus one read and one write of
//! the lower triangle of `C` — the `OCS` cost `Q_OCS = N²M/√S + O(NM)` quoted
//! in Section 5 of the paper. The triangle-block schedule (TBS, in
//! `symla-core`) improves the leading constant by `√2`.

use crate::error::{OocError, Result};
use crate::params::{square_tile_for_capacity, tile_extents, IoEstimate};
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;
use symla_memory::{OocMachine, PanelRef, SymWindowRef};
use symla_sched::{BufSlice, ComputeOp, Engine, Schedule, ScheduleBuilder};

/// Parameters of the square-block out-of-core SYRK schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocSyrkPlan {
    /// Side length of the square result blocks.
    pub tile: usize,
}

impl OocSyrkPlan {
    /// Chooses the largest tile that fits a fast memory of `s` elements
    /// (`t² + 2t ≤ s`).
    pub fn for_memory(s: usize) -> Result<Self> {
        Ok(Self {
            tile: square_tile_for_capacity(s)?,
        })
    }

    /// Uses an explicit tile size (mainly for tests and ablations; `tile = 1`
    /// degenerates to the completely unblocked streaming schedule).
    pub fn with_tile(tile: usize) -> Result<Self> {
        if tile == 0 {
            return Err(OocError::Invalid("tile size must be positive".into()));
        }
        Ok(Self { tile })
    }

    /// Fast-memory working set of this plan (`t² + 2t`).
    pub fn working_set(&self) -> usize {
        self.tile * self.tile + 2 * self.tile
    }
}

/// Predicted I/O volume of `ooc_syrk_execute` for a result of order `n` and
/// an input panel with `m` columns. Mirrors the executor exactly: one pass
/// over the block columns, each adding its diagonal block and, in closed
/// form, the off-diagonal blocks below it.
pub fn ooc_syrk_cost(n: usize, m: usize, plan: &OocSyrkPlan) -> IoEstimate {
    let t = plan.tile;
    let mut est = IoEstimate::default();
    for (j0, jc) in tile_extents(n, t) {
        let tri = (jc * (jc + 1) / 2) as u128;
        let pairs = m as u128 * tri;
        est.loads += tri + (m * jc) as u128;
        est.stores += tri;
        est.flops = est.flops.merge(&FlopCount::new(pairs, pairs));
        est = est.merge(&ooc_syrk_rects_cost(n - j0 - jc, jc, m, t));
    }
    est
}

/// Predicted I/O of the [`ooc_syrk_rect_build`] blocks that cover a
/// `rows × cols` rectangle with blocks of side at most `tile`, as OOC_SYRK
/// and the strip below TBS's triangle blocks emit them. Each block loads and
/// stores its elements once and streams its rows and columns of `A` once per
/// column of `A`, so the sum depends only on the rectangle and its block
/// counts.
pub fn ooc_syrk_rects_cost(rows: usize, cols: usize, m: usize, tile: usize) -> IoEstimate {
    let tiles = |len: usize| len.div_ceil(tile) as u128;
    let (row_tiles, col_tiles) = (tiles(rows), tiles(cols));
    let (rows, cols, m) = (rows as u128, cols as u128, m as u128);
    let elems = rows * cols;
    IoEstimate {
        loads: elems + m * (rows * col_tiles + cols * row_tiles),
        stores: elems,
        flops: FlopCount::new(m * elems, m * elems),
    }
}

/// The paper's closed-form leading-order cost of `OOC_SYRK`:
/// `N²M/√S + N²/2` loads (plus the `N²/2` stores of `C`).
pub fn ooc_syrk_leading_loads(n: f64, m: f64, s: f64) -> f64 {
    n * n * m / s.sqrt() + n * n / 2.0
}

/// Appends the square-block OOC_SYRK schedule for
/// `C[window] += alpha · A · Aᵀ` to an existing builder (one task group per
/// result block). Operands are assumed validated; use
/// [`ooc_syrk_schedule`] / [`ooc_syrk_execute`] for the checked entry points.
pub fn ooc_syrk_build<T: Scalar>(
    sched: &mut ScheduleBuilder<T>,
    a: &PanelRef,
    c: &SymWindowRef,
    alpha: T,
    plan: &OocSyrkPlan,
) {
    let n = c.order();
    let m = a.cols();
    let t = plan.tile;
    let extents = tile_extents(n, t);

    for (tj, &(j0, jc)) in extents.iter().enumerate() {
        for (ti, &(i0, ic)) in extents.iter().enumerate().skip(tj) {
            if ti == tj {
                // Diagonal block: packed lower triangle of side ic.
                sched.begin_group();
                let cbuf = sched.load(c.id, c.lower_triangle_region(i0, ic));
                for k in 0..m {
                    let acol = sched.load(a.id, a.col_segment_region(k, i0, ic));
                    sched.compute(ComputeOp::SprLower {
                        alpha,
                        x: BufSlice::whole(acol, ic),
                        dst: cbuf,
                    });
                    sched.discard(acol);
                }
                let pairs = (m * ic * (ic + 1) / 2) as u128;
                sched.flops(FlopCount::new(pairs, pairs));
                sched.store(cbuf);
            } else {
                ooc_syrk_rect_build(sched, a, c, (i0, ic), (j0, jc), alpha);
            }
        }
    }
}

/// Appends the task group of one off-diagonal block: the `ic × jc`
/// rectangle `C[i0.., j0..]` strictly below the diagonal of the window,
/// updated by `alpha · A[i0..i0+ic, :] · A[j0..j0+jc, :]ᵀ` one column of `A`
/// at a time (TBS reuses it for the strip below its triangle blocks).
pub fn ooc_syrk_rect_build<T: Scalar>(
    sched: &mut ScheduleBuilder<T>,
    a: &PanelRef,
    c: &SymWindowRef,
    (i0, ic): (usize, usize),
    (j0, jc): (usize, usize),
    alpha: T,
) {
    let m = a.cols();
    sched.begin_group();
    let cbuf = sched.load(c.id, c.rect_region(i0, j0, ic, jc));
    for k in 0..m {
        let arow = sched.load(a.id, a.col_segment_region(k, i0, ic));
        let acol = sched.load(a.id, a.col_segment_region(k, j0, jc));
        sched.compute(ComputeOp::Ger {
            alpha,
            x: BufSlice::whole(arow, ic),
            y: BufSlice::whole(acol, jc),
            dst: cbuf,
        });
        sched.discard(arow);
        sched.discard(acol);
    }
    let pairs = (m * ic * jc) as u128;
    sched.flops(FlopCount::new(pairs, pairs));
    sched.store(cbuf);
}

/// Builds the square-block OOC_SYRK schedule for
/// `C[window] += alpha · A · Aᵀ`, validating the operand shapes.
pub fn ooc_syrk_schedule<T: Scalar>(
    a: &PanelRef,
    c: &SymWindowRef,
    alpha: T,
    plan: &OocSyrkPlan,
) -> Result<Schedule<T>> {
    if a.rows() != c.order() {
        return Err(OocError::Invalid(format!(
            "OOC_SYRK operand mismatch: A has {} rows but C has order {}",
            a.rows(),
            c.order()
        )));
    }
    let mut sched = ScheduleBuilder::new();
    ooc_syrk_build(&mut sched, a, c, alpha, plan);
    Ok(sched.finish())
}

/// Executes `C[window] += alpha · A · Aᵀ` out of core with square blocks.
///
/// * `a` — the `n × m` input panel;
/// * `c` — the order-`n` diagonal window of a symmetric matrix receiving the
///   update;
/// * `alpha` — scaling of the product (LBC passes `-1`).
///
/// The schedule is emitted by [`ooc_syrk_build`] and replayed by the generic
/// [`Engine`]. The caller chooses the machine's phase label beforehand; this
/// function never changes it, so LBC can attribute the traffic of its
/// trailing updates to a dedicated phase.
pub fn ooc_syrk_execute<T: Scalar>(
    machine: &mut OocMachine<T>,
    a: &PanelRef,
    c: &SymWindowRef,
    alpha: T,
    plan: &OocSyrkPlan,
) -> Result<()> {
    let schedule = ooc_syrk_schedule(a, c, alpha, plan)?;
    Engine::execute(machine, &schedule)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use symla_matrix::generate::{random_matrix_seeded, random_symmetric, seeded_rng};
    use symla_matrix::kernels::syrk_sym;
    use symla_matrix::{Matrix, SymMatrix};
    use symla_memory::MachineConfig;

    fn run_case(
        n: usize,
        m: usize,
        s: usize,
        alpha: f64,
    ) -> (SymMatrix<f64>, IoEstimate, symla_memory::IoStats) {
        let a: Matrix<f64> = random_matrix_seeded(n, m, 1000 + n as u64);
        let mut rng = seeded_rng(2000 + n as u64);
        let c0: SymMatrix<f64> = random_symmetric(n, &mut rng);

        let mut expected = c0.clone();
        syrk_sym(alpha, &a, 1.0, &mut expected).unwrap();

        let plan = OocSyrkPlan::for_memory(s).unwrap();
        let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
        let a_id = machine.insert_dense(a);
        let c_id = machine.insert_symmetric(c0);
        let a_ref = PanelRef::dense(a_id, n, m);
        let c_ref = SymWindowRef::full(c_id, n);
        ooc_syrk_execute(&mut machine, &a_ref, &c_ref, alpha, &plan).unwrap();

        let est = ooc_syrk_cost(n, m, &plan);
        let stats = machine.stats().clone();
        let result = machine.take_symmetric(c_id).unwrap();
        assert!(
            result.approx_eq(&expected, 1e-10),
            "numerical mismatch (n={n}, m={m}, s={s})"
        );
        (result, est, stats)
    }

    #[test]
    fn correct_and_predicted_io_matches_measured() {
        for &(n, m, s) in &[
            (13_usize, 7_usize, 24_usize),
            (16, 16, 35),
            (20, 5, 120),
            (9, 12, 1000),
        ] {
            let (_, est, stats) = run_case(n, m, s, 1.0);
            assert_eq!(
                est.loads, stats.volume.loads as u128,
                "loads n={n} m={m} s={s}"
            );
            assert_eq!(
                est.stores, stats.volume.stores as u128,
                "stores n={n} m={m} s={s}"
            );
            assert_eq!(est.flops, stats.flops, "flops n={n} m={m} s={s}");
        }
    }

    /// One off-diagonal block, as `ooc_syrk_rect_build` emits it.
    fn block_cost(ic: usize, jc: usize, m: usize) -> IoEstimate {
        let c_elems = (ic * jc) as u128;
        let pairs = (m * ic * jc) as u128;
        IoEstimate {
            loads: c_elems + (m * (ic + jc)) as u128,
            stores: c_elems,
            flops: FlopCount::new(pairs, pairs),
        }
    }

    /// The oracle of the closed forms: a loop over every block the builder
    /// emits.
    fn cost_by_blocks(n: usize, m: usize, t: usize) -> IoEstimate {
        let mut est = IoEstimate::default();
        let extents = tile_extents(n, t);
        for (tj, &(_, jc)) in extents.iter().enumerate() {
            for (ti, &(_, ic)) in extents.iter().enumerate().skip(tj) {
                if ti == tj {
                    let c_elems = (ic * (ic + 1) / 2) as u128;
                    est.loads += c_elems + (m * ic) as u128;
                    est.stores += c_elems;
                    let pairs = (m * ic * (ic + 1) / 2) as u128;
                    est.flops = est.flops.merge(&FlopCount::new(pairs, pairs));
                } else {
                    est = est.merge(&block_cost(ic, jc, m));
                }
            }
        }
        est
    }

    #[test]
    fn closed_form_costs_equal_the_block_loop() {
        for t in 1..=20 {
            let plan = OocSyrkPlan::with_tile(t).unwrap();
            for n in 0..=90 {
                for m in (0..=130).step_by(5) {
                    let ctx = format!("t={t} n={n} m={m}");
                    assert_eq!(ooc_syrk_cost(n, m, &plan), cost_by_blocks(n, m, t), "{ctx}");
                }
                for cols in [0, 1, 7, 16, 45, 90] {
                    for m in [0, 1, 5, 64] {
                        let mut by_blocks = IoEstimate::default();
                        for (_, ic) in tile_extents(n, t) {
                            for (_, jc) in tile_extents(cols, t) {
                                by_blocks = by_blocks.merge(&block_cost(ic, jc, m));
                            }
                        }
                        let ctx = format!("t={t} rows={n} cols={cols} m={m}");
                        assert_eq!(ooc_syrk_rects_cost(n, cols, m, t), by_blocks, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn negative_alpha_supported() {
        let (_, _, _) = run_case(11, 6, 48, -1.0);
    }

    #[test]
    fn capacity_is_respected_and_peak_close_to_working_set() {
        let s = 63;
        let (_, _, stats) = run_case(18, 9, s, 1.0);
        assert!(stats.peak_resident <= s);
        let plan = OocSyrkPlan::for_memory(s).unwrap();
        assert!(stats.peak_resident >= plan.tile * plan.tile);
    }

    #[test]
    fn cost_leading_term_matches_closed_form() {
        // For large N, measured loads / (N^2 M / sqrt(S) + N^2/2) -> 1.
        let s = 10_000;
        let plan = OocSyrkPlan::for_memory(s).unwrap();
        let n = 3000;
        let m = 1500;
        let est = ooc_syrk_cost(n, m, &plan);
        let closed = ooc_syrk_leading_loads(n as f64, m as f64, s as f64);
        let ratio = est.loads as f64 / closed;
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "loads {} vs closed form {closed} (ratio {ratio})",
            est.loads
        );
    }

    #[test]
    fn stores_equal_lower_triangle_once() {
        let plan = OocSyrkPlan::with_tile(4).unwrap();
        let est = ooc_syrk_cost(10, 3, &plan);
        assert_eq!(est.stores, 55);
        // loads include the triangle once plus the A streams
        assert!(est.loads > 55);
        // flops count every multiply of the (full, diagonal-inclusive) kernel
        assert_eq!(est.flops.mults, 3 * 55);
    }

    #[test]
    fn plan_validation() {
        assert!(OocSyrkPlan::with_tile(0).is_err());
        assert!(OocSyrkPlan::for_memory(1).is_err());
        let p = OocSyrkPlan::for_memory(35).unwrap();
        assert_eq!(p.tile, 5);
        assert_eq!(p.working_set(), 35);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut machine = OocMachine::<f64>::with_capacity(100);
        let a_id = machine.insert_dense(Matrix::zeros(4, 3));
        let c_id = machine.insert_symmetric(SymMatrix::zeros(5));
        let err = ooc_syrk_execute(
            &mut machine,
            &PanelRef::dense(a_id, 4, 3),
            &SymWindowRef::full(c_id, 5),
            1.0,
            &OocSyrkPlan::with_tile(2).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, OocError::Invalid(_)));
    }

    #[test]
    fn works_on_a_symmetric_subwindow() {
        // Update only the trailing 6x6 window of a 10x10 symmetric matrix
        // with a panel that itself lives in the lower triangle (the LBC
        // usage pattern).
        let n = 10;
        let mut base = SymMatrix::<f64>::from_lower_fn(n, |i, j| (i + j) as f64 * 0.1);
        // fill the panel block rows 4..10, cols 0..4 with known values
        let panel_vals = random_matrix_seeded::<f64>(6, 4, 77);
        for i in 0..6 {
            for j in 0..4 {
                base.set(4 + i, j, panel_vals[(i, j)]);
            }
        }
        let mut expected = base.clone();
        // expected trailing update: C[4.., 4..] += -1 * P * P^T
        {
            let mut trailing =
                SymMatrix::<f64>::from_lower_fn(6, |i, j| expected.get(4 + i, 4 + j));
            syrk_sym(-1.0, &panel_vals, 1.0, &mut trailing).unwrap();
            for i in 0..6 {
                for j in 0..=i {
                    expected.set(4 + i, 4 + j, trailing.get(i, j));
                }
            }
        }

        let s = 48;
        let plan = OocSyrkPlan::for_memory(s).unwrap();
        let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
        let id = machine.insert_symmetric(base);
        let a_ref = PanelRef::sym_window(id, 4, 0, 6, 4);
        let c_ref = SymWindowRef::window(id, 4, 6);
        ooc_syrk_execute(&mut machine, &a_ref, &c_ref, -1.0, &plan).unwrap();
        let got = machine.take_symmetric(id).unwrap();
        assert!(got.approx_eq(&expected, 1e-10));
    }
}
