//! Out-of-core triangular solve `X ← X · L⁻ᵀ` (Béreux's `OOC_TRSM`, one-tile
//! variant), the panel-solve building block of the blocked Cholesky
//! factorizations.
//!
//! `L` is the (already factorized) lower-triangular diagonal block of order
//! `b`; `X` is an `m × b` panel transformed in place. The schedule holds one
//! `t×t` tile of `X` in fast memory; for each tile it first applies the
//! contributions of the already-final columns to its left (streaming one
//! column of `X` and one column segment of `L` at a time — 2`t` elements per
//! step), then performs the in-tile solve streaming the columns of the
//! corresponding diagonal block of `L`.
//!
//! Leading-order I/O: `b²·m/√S + O(b·m)` loads, the `Q_OCT` cost quoted in
//! Section 5 of the paper.

use crate::error::{OocError, Result};
use crate::params::{square_tile_for_capacity, tile_extents, IoEstimate};
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;
use symla_memory::{OocMachine, PanelRef, SymWindowRef};
use symla_sched::{BufSlice, ComputeOp, Engine, Schedule, ScheduleBuilder};

/// Parameters of the one-tile out-of-core TRSM schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocTrsmPlan {
    /// Side length of the square panel tiles.
    pub tile: usize,
}

impl OocTrsmPlan {
    /// Chooses the largest tile fitting a fast memory of `s` elements.
    pub fn for_memory(s: usize) -> Result<Self> {
        Ok(Self {
            tile: square_tile_for_capacity(s)?,
        })
    }

    /// Uses an explicit tile size.
    pub fn with_tile(tile: usize) -> Result<Self> {
        if tile == 0 {
            return Err(OocError::Invalid("tile size must be positive".into()));
        }
        Ok(Self { tile })
    }
}

/// Predicted I/O of `ooc_trsm_execute` for an `m × b` panel and an order-`b`
/// triangular block. Mirrors the executor exactly: one pass over the tile
/// columns of `X`, with the tiles of each column summed in closed form.
pub fn ooc_trsm_cost(m: usize, b: usize, plan: &OocTrsmPlan) -> IoEstimate {
    let t = plan.tile;
    let (mu, tiles) = (m as u128, m.div_ceil(t) as u128);
    let mut est = IoEstimate::default();
    for (c0, cc) in tile_extents(b, t) {
        let (c0u, ccu) = (c0 as u128, cc as u128);
        let tri = ccu * (ccu + 1) / 2;
        // load + store the X tiles; phase A streams one column of X and one
        // column segment of L per previous column; phase B streams the
        // columns of the diagonal block of L
        est.loads += mu * ccu + c0u * (mu + tiles * ccu) + tiles * tri;
        est.stores += mu * ccu;
        let pairs = c0u * mu * ccu;
        est.flops = est.flops.merge(&FlopCount::new(
            pairs + mu * tri,
            pairs + mu * (ccu * (ccu - 1) / 2),
        ));
    }
    est
}

/// The closed-form leading-order load volume of `OOC_TRSM`: `b²·m/√S`.
pub fn ooc_trsm_leading_loads(m: f64, b: f64, s: f64) -> f64 {
    b * b * m / s.sqrt()
}

/// Appends the one-tile OOC_TRSM schedule for `X ← X · L⁻ᵀ` to an existing
/// builder (one task group per panel tile). Operands are assumed validated.
pub fn ooc_trsm_build<T: Scalar>(
    sched: &mut ScheduleBuilder<T>,
    l: &SymWindowRef,
    x: &PanelRef,
    plan: &OocTrsmPlan,
) {
    let b = l.order();
    let m = x.rows();
    let t = plan.tile;

    for &(r0, rc) in &tile_extents(m, t) {
        for &(c0, cc) in &tile_extents(b, t) {
            sched.begin_group();
            let xbuf = sched.load(x.id, x.rect_region(r0, c0, rc, cc));

            // Phase A: apply the already-final columns 0..c0 of X.
            for k in 0..c0 {
                let xk = sched.load(x.id, x.col_segment_region(k, r0, rc));
                let lk = sched.load(l.id, l.rect_region(c0, k, cc, 1));
                // X[:, j] -= X[:, k] * L[c0 + j, k]
                sched.compute(ComputeOp::Ger {
                    alpha: -T::ONE,
                    x: BufSlice::whole(xk, rc),
                    y: BufSlice::whole(lk, cc),
                    dst: xbuf,
                });
                sched.discard(xk);
                sched.discard(lk);
            }
            let pairs = (c0 * rc * cc) as u128;
            sched.flops(FlopCount::new(pairs, pairs));

            // Phase B: in-tile solve against the diagonal block L[c0.., c0..],
            // streaming one column segment of L at a time.
            for kk in 0..cc {
                let lseg = sched.load(l.id, l.rect_region(c0 + kk, c0 + kk, cc - kk, 1));
                sched.compute(ComputeOp::TrsmRightStep {
                    seg: lseg,
                    dst: xbuf,
                    col: kk,
                    pivot: c0 + kk,
                });
                sched.discard(lseg);
                let updates = (rc * (cc - kk - 1)) as u128;
                sched.flops(FlopCount::new(updates + rc as u128, updates));
            }

            sched.store(xbuf);
        }
    }
}

/// Builds the one-tile OOC_TRSM schedule for `X ← X · L⁻ᵀ`, validating the
/// operand shapes.
pub fn ooc_trsm_schedule<T: Scalar>(
    l: &SymWindowRef,
    x: &PanelRef,
    plan: &OocTrsmPlan,
) -> Result<Schedule<T>> {
    if x.cols() != l.order() {
        return Err(OocError::Invalid(format!(
            "OOC_TRSM operand mismatch: X has {} columns but L has order {}",
            x.cols(),
            l.order()
        )));
    }
    let mut sched = ScheduleBuilder::new();
    ooc_trsm_build(&mut sched, l, x, plan);
    Ok(sched.finish())
}

/// Executes `X ← X · L⁻ᵀ` out of core.
///
/// * `l` — order-`b` diagonal window of a symmetric matrix whose lower
///   triangle holds the triangular factor `L`;
/// * `x` — the `m × b` panel to transform in place.
///
/// The schedule is emitted by [`ooc_trsm_build`] and replayed by the generic
/// [`Engine`].
pub fn ooc_trsm_execute<T: Scalar>(
    machine: &mut OocMachine<T>,
    l: &SymWindowRef,
    x: &PanelRef,
    plan: &OocTrsmPlan,
) -> Result<()> {
    let schedule = ooc_trsm_schedule(l, x, plan)?;
    Engine::execute(machine, &schedule)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use symla_matrix::generate::{random_lower_triangular, random_matrix_seeded, seeded_rng};
    use symla_matrix::kernels::{trsm_right_lower_transpose, trsm_right_lt_residual};
    use symla_matrix::{Matrix, SymMatrix};

    fn sym_from_lower(l: &symla_matrix::LowerTriangular<f64>) -> SymMatrix<f64> {
        SymMatrix::from_lower_fn(l.order(), |i, j| l.get(i, j))
    }

    #[test]
    fn matches_reference_and_cost() {
        for &(m, b, s) in &[
            (9_usize, 6_usize, 24_usize),
            (14, 10, 48),
            (7, 7, 200),
            (20, 4, 15),
        ] {
            let mut rng = seeded_rng(900 + m as u64);
            let lfac = random_lower_triangular::<f64>(b, &mut rng);
            let x0: Matrix<f64> = random_matrix_seeded(m, b, 910 + b as u64);

            let mut expected = x0.clone();
            trsm_right_lower_transpose(&lfac, &mut expected).unwrap();

            let plan = OocTrsmPlan::for_memory(s).unwrap();
            let mut machine = OocMachine::with_capacity(s);
            let l_id = machine.insert_symmetric(sym_from_lower(&lfac));
            let x_id = machine.insert_dense(x0.clone());
            ooc_trsm_execute(
                &mut machine,
                &SymWindowRef::full(l_id, b),
                &PanelRef::dense(x_id, m, b),
                &plan,
            )
            .unwrap();

            let est = ooc_trsm_cost(m, b, &plan);
            assert_eq!(
                est.loads,
                machine.stats().volume.loads as u128,
                "m={m} b={b} s={s}"
            );
            assert_eq!(est.stores, machine.stats().volume.stores as u128);
            assert_eq!(est.flops, machine.stats().flops);
            assert!(machine.stats().peak_resident <= s);

            let got = machine.take_dense(x_id).unwrap();
            assert!(got.approx_eq(&expected, 1e-9), "m={m} b={b} s={s}");
            assert!(trsm_right_lt_residual(&lfac, &x0, &got) < 1e-9);
        }
    }

    /// The oracle of the closed form: a loop over every tile the builder
    /// emits, and over every column its in-tile solve streams.
    fn cost_by_tiles(m: usize, b: usize, t: usize) -> IoEstimate {
        let mut est = IoEstimate::default();
        for &(_, rc) in &tile_extents(m, t) {
            for &(c0, cc) in &tile_extents(b, t) {
                est.loads += (rc * cc) as u128;
                est.stores += (rc * cc) as u128;
                est.loads += (c0 * (rc + cc)) as u128;
                let pairs = (c0 * rc * cc) as u128;
                est.flops = est.flops.merge(&FlopCount::new(pairs, pairs));
                for kk in 0..cc {
                    est.loads += (cc - kk) as u128;
                    let updates = (rc * (cc - kk - 1)) as u128;
                    est.flops = est
                        .flops
                        .merge(&FlopCount::new(updates + rc as u128, updates));
                }
            }
        }
        est
    }

    #[test]
    fn closed_form_cost_equals_the_tile_loop() {
        for t in 1..=20 {
            let plan = OocTrsmPlan::with_tile(t).unwrap();
            for b in 0..=90 {
                for m in (0..=130).step_by(5) {
                    let ctx = format!("t={t} m={m} b={b}");
                    assert_eq!(ooc_trsm_cost(m, b, &plan), cost_by_tiles(m, b, t), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn leading_loads_match_closed_form() {
        let s = 40_000;
        let plan = OocTrsmPlan::for_memory(s).unwrap();
        let (m, b) = (6000, 3000);
        let est = ooc_trsm_cost(m, b, &plan);
        let closed = ooc_trsm_leading_loads(m as f64, b as f64, s as f64);
        // lower-order terms (X tile loads, diagonal streaming) add O(bm)
        let ratio = est.loads as f64 / closed;
        assert!(ratio > 0.95 && ratio < 1.25, "ratio {ratio}");
    }

    #[test]
    fn singular_diagonal_is_reported() {
        let b = 4;
        let mut sym = SymMatrix::<f64>::zeros(b);
        for i in 0..b {
            sym.set(i, i, if i == 2 { 0.0 } else { 1.0 });
        }
        let mut machine = OocMachine::<f64>::with_capacity(100);
        let l_id = machine.insert_symmetric(sym);
        let x_id = machine.insert_dense(Matrix::filled(3, b, 1.0));
        let err = ooc_trsm_execute(
            &mut machine,
            &SymWindowRef::full(l_id, b),
            &PanelRef::dense(x_id, 3, b),
            &OocTrsmPlan::with_tile(2).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            OocError::Matrix(symla_matrix::MatrixError::SingularPivot { pivot: 2 })
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut machine = OocMachine::<f64>::with_capacity(100);
        let l_id = machine.insert_symmetric(SymMatrix::zeros(4));
        let x_id = machine.insert_dense(Matrix::zeros(3, 5));
        let err = ooc_trsm_execute(
            &mut machine,
            &SymWindowRef::full(l_id, 4),
            &PanelRef::dense(x_id, 3, 5),
            &OocTrsmPlan::with_tile(2).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, OocError::Invalid(_)));
        assert!(OocTrsmPlan::with_tile(0).is_err());
    }
}
