//! Out-of-core Cholesky factorization (Béreux's `OOC_CHOL`, one-tile
//! left-looking variant).
//!
//! The target is a diagonal window of a symmetric matrix; on exit its lower
//! triangle holds the Cholesky factor `L`. The schedule holds one `t×t` tile
//! of the target in fast memory. Processing tile `(ti, tj)` (tile columns
//! left to right, the diagonal tile of each column first):
//!
//! 1. *left-looking update*: for every already-final column `k < tj·t`,
//!    stream the two length-`t` column segments `L[Iᵢ, k]` and `L[Iⱼ, k]`
//!    (just one for a diagonal tile) and apply a rank-1 update;
//! 2. *in-tile factorization*: a diagonal tile is factorized in place; an
//!    off-diagonal tile is solved against the diagonal block of its column,
//!    whose columns are streamed one segment at a time.
//!
//! Leading-order I/O: `b³/(3√S) + O(b²)` loads — the `Q_OCC` cost quoted in
//! Section 5 of the paper. LBC (in `symla-core`) lowers the overall Cholesky
//! constant to `1/(3√2)` by delegating the bulk of the trailing updates to
//! the triangle-block SYRK instead.

use crate::error::{OocError, Result};
use crate::params::{square_tile_for_capacity, tile_extents, IoEstimate};
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;
use symla_memory::{OocMachine, SymWindowRef};
use symla_sched::{BufSlice, ComputeOp, Engine, Schedule, ScheduleBuilder};

/// Parameters of the one-tile out-of-core Cholesky schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocCholPlan {
    /// Side length of the square tiles.
    pub tile: usize,
}

impl OocCholPlan {
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

/// Predicted I/O of `ooc_chol_execute` on a window of order `b`. Mirrors
/// the executor exactly: one pass over the tile columns, each adding its
/// diagonal tile and, in closed form, the off-diagonal tiles below it.
pub fn ooc_chol_cost(b: usize, plan: &OocCholPlan) -> IoEstimate {
    let t = plan.tile;
    let mut est = IoEstimate::default();
    for (c0, cc) in tile_extents(b, t) {
        let (c0u, ccu) = (c0 as u128, cc as u128);
        let tri = ccu * (ccu + 1) / 2;
        // diagonal tile: load and store it, stream the `c0` final columns
        // (one segment each), then factorize it in place (~cc³/6 updates)
        est.loads += tri + c0u * ccu;
        est.stores += tri;
        let scalings = ccu * (ccu - 1) / 2;
        let updates = ccu * (ccu * ccu - 1) / 6;
        est.flops = est.flops.merge(&FlopCount::new(
            c0u * tri + scalings + updates,
            c0u * tri + updates,
        ));
        // the `tiles` tiles of `rows` rows below it: load and store each,
        // stream two segments per final column, then the diagonal block's
        // columns for the in-tile solve
        let below = b - c0 - cc;
        let (rows, tiles) = (below as u128, below.div_ceil(t) as u128);
        est.loads += ccu * rows + c0u * (rows + tiles * ccu) + tiles * tri;
        est.stores += ccu * rows;
        let pairs = c0u * rows * ccu;
        est.flops = est
            .flops
            .merge(&FlopCount::new(pairs + rows * tri, pairs + rows * scalings));
    }
    est
}

/// The closed-form leading-order load volume of `OOC_CHOL`: `b³/(3√S)`.
pub fn ooc_chol_leading_loads(b: f64, s: f64) -> f64 {
    b * b * b / (3.0 * s.sqrt())
}

/// Appends the one-tile left-looking OOC_CHOL schedule for the diagonal
/// window `a` to an existing builder (one task group per tile).
pub fn ooc_chol_build<T: Scalar>(
    sched: &mut ScheduleBuilder<T>,
    a: &SymWindowRef,
    plan: &OocCholPlan,
) {
    let b = a.order();
    let t = plan.tile;
    let extents = tile_extents(b, t);

    for (tj, &(c0, cc)) in extents.iter().enumerate() {
        for (ti, &(r0, rc)) in extents.iter().enumerate().skip(tj) {
            sched.begin_group();
            if ti == tj {
                // ---- diagonal tile ----
                let cbuf = sched.load(a.id, a.lower_triangle_region(c0, cc));
                for k in 0..c0 {
                    let lk = sched.load(a.id, a.rect_region(c0, k, cc, 1));
                    sched.compute(ComputeOp::SprLower {
                        alpha: -T::ONE,
                        x: BufSlice::whole(lk, cc),
                        dst: cbuf,
                    });
                    sched.discard(lk);
                }
                let pairs = (c0 * cc * (cc + 1) / 2) as u128;
                sched.flops(FlopCount::new(pairs, pairs));

                sched.compute(ComputeOp::CholeskyInPlace {
                    dst: cbuf,
                    pivot_base: a.start + c0,
                });
                let ccu = cc as u128;
                let scalings = ccu * ccu.saturating_sub(1) / 2;
                let updates = if cc == 0 {
                    0
                } else {
                    ccu * (ccu * ccu - 1) / 6
                };
                sched.flops(FlopCount::new(scalings + updates, updates));
                sched.store(cbuf);
            } else {
                // ---- off-diagonal tile ----
                let cbuf = sched.load(a.id, a.rect_region(r0, c0, rc, cc));
                for k in 0..c0 {
                    let li = sched.load(a.id, a.rect_region(r0, k, rc, 1));
                    let lj = sched.load(a.id, a.rect_region(c0, k, cc, 1));
                    sched.compute(ComputeOp::Ger {
                        alpha: -T::ONE,
                        x: BufSlice::whole(li, rc),
                        y: BufSlice::whole(lj, cc),
                        dst: cbuf,
                    });
                    sched.discard(li);
                    sched.discard(lj);
                }
                let pairs = (c0 * rc * cc) as u128;
                sched.flops(FlopCount::new(pairs, pairs));

                // in-tile TRSM against the (already final) diagonal block of
                // this tile column, streaming its columns
                for kk in 0..cc {
                    let lseg = sched.load(a.id, a.rect_region(c0 + kk, c0 + kk, cc - kk, 1));
                    sched.compute(ComputeOp::TrsmRightStep {
                        seg: lseg,
                        dst: cbuf,
                        col: kk,
                        pivot: a.start + c0 + kk,
                    });
                    sched.discard(lseg);
                    let updates = (rc * (cc - kk - 1)) as u128;
                    sched.flops(FlopCount::new(updates + rc as u128, updates));
                }
                sched.store(cbuf);
            }
        }
    }
}

/// Builds the one-tile left-looking OOC_CHOL schedule for the diagonal
/// window `a`.
pub fn ooc_chol_schedule<T: Scalar>(a: &SymWindowRef, plan: &OocCholPlan) -> Schedule<T> {
    let mut sched = ScheduleBuilder::new();
    ooc_chol_build(&mut sched, a, plan);
    sched.finish()
}

/// Factorizes the diagonal window `a` in place (`A = L·Lᵀ`, lower triangle
/// overwritten by `L`) with the one-tile left-looking schedule, emitted by
/// [`ooc_chol_build`] and replayed by the generic [`Engine`].
pub fn ooc_chol_execute<T: Scalar>(
    machine: &mut OocMachine<T>,
    a: &SymWindowRef,
    plan: &OocCholPlan,
) -> Result<()> {
    let schedule = ooc_chol_schedule(a, plan);
    Engine::execute(machine, &schedule)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use symla_matrix::generate::{random_spd, random_spd_seeded, seeded_rng};
    use symla_matrix::kernels::{cholesky_residual, cholesky_sym};
    use symla_matrix::{LowerTriangular, SymMatrix};

    fn factor_from_sym(s: &SymMatrix<f64>) -> LowerTriangular<f64> {
        LowerTriangular::from_lower_fn(s.order(), |i, j| s.get(i, j))
    }

    #[test]
    fn matches_reference_and_cost() {
        let mut rng = seeded_rng(4242);
        for &(n, s) in &[
            (8_usize, 24_usize),
            (13, 35),
            (16, 48),
            (10, 1000),
            (21, 63),
        ] {
            let a: SymMatrix<f64> = random_spd(n, &mut rng);
            let expected = cholesky_sym(&a).unwrap();

            let plan = OocCholPlan::for_memory(s).unwrap();
            let mut machine = OocMachine::with_capacity(s);
            let id = machine.insert_symmetric(a.clone());
            ooc_chol_execute(&mut machine, &SymWindowRef::full(id, n), &plan).unwrap();

            let est = ooc_chol_cost(n, &plan);
            assert_eq!(
                est.loads,
                machine.stats().volume.loads as u128,
                "n={n} s={s}"
            );
            assert_eq!(est.stores, machine.stats().volume.stores as u128);
            assert_eq!(est.flops, machine.stats().flops);
            assert!(machine.stats().peak_resident <= s);

            let got = machine.take_symmetric(id).unwrap();
            let lfac = factor_from_sym(&got);
            assert!(
                lfac.approx_eq(&expected, 1e-8),
                "factor mismatch n={n} s={s}"
            );
            assert!(cholesky_residual(&a, &lfac) < 1e-10);
        }
    }

    /// The oracle of the closed form: a loop over every tile the builder
    /// emits, and over every column its in-tile solve streams.
    fn cost_by_tiles(b: usize, t: usize) -> IoEstimate {
        let mut est = IoEstimate::default();
        let extents = tile_extents(b, t);
        for (tj, &(c0, cc)) in extents.iter().enumerate() {
            for (ti, &(_, rc)) in extents.iter().enumerate().skip(tj) {
                let diag = ti == tj;
                let tile_elems = if diag { cc * (cc + 1) / 2 } else { rc * cc } as u128;
                est.loads += tile_elems;
                est.stores += tile_elems;
                if diag {
                    est.loads += (c0 * cc) as u128;
                    let pairs = (c0 * cc * (cc + 1) / 2) as u128;
                    est.flops = est.flops.merge(&FlopCount::new(pairs, pairs));
                    let ccu = cc as u128;
                    let scalings = ccu * ccu.saturating_sub(1) / 2;
                    let updates = ccu * (ccu * ccu - 1) / 6;
                    est.flops = est
                        .flops
                        .merge(&FlopCount::new(scalings + updates, updates));
                } else {
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
        }
        est
    }

    #[test]
    fn closed_form_cost_equals_the_tile_loop() {
        for t in 1..=20 {
            let plan = OocCholPlan::with_tile(t).unwrap();
            for b in 0..=90 {
                assert_eq!(ooc_chol_cost(b, &plan), cost_by_tiles(b, t), "t={t} b={b}");
            }
        }
    }

    #[test]
    fn leading_loads_match_closed_form() {
        let s = 40_000;
        let plan = OocCholPlan::for_memory(s).unwrap();
        let b = 4000;
        let est = ooc_chol_cost(b, &plan);
        let closed = ooc_chol_leading_loads(b as f64, s as f64);
        let ratio = est.loads as f64 / closed;
        // lower-order O(b^2) terms inflate the ratio slightly
        assert!(ratio > 0.95 && ratio < 1.2, "ratio {ratio}");
    }

    #[test]
    fn non_spd_reports_absolute_pivot() {
        let n = 9;
        let mut a: SymMatrix<f64> = random_spd_seeded(n, 11);
        a.set(6, 6, -50.0);
        let mut machine = OocMachine::<f64>::with_capacity(35);
        let id = machine.insert_symmetric(a);
        let err = ooc_chol_execute(
            &mut machine,
            &SymWindowRef::full(id, n),
            &OocCholPlan::with_tile(4).unwrap(),
        )
        .unwrap_err();
        match err {
            OocError::Matrix(symla_matrix::MatrixError::NotPositiveDefinite { pivot, .. }) => {
                assert_eq!(pivot, 6)
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn works_on_a_trailing_window() {
        // Factorize only the trailing 7x7 window of a larger symmetric
        // matrix; the rest must be untouched.
        let n = 12;
        let win = 7;
        let big: SymMatrix<f64> = random_spd_seeded(n, 90);
        let window_matrix =
            SymMatrix::<f64>::from_lower_fn(win, |i, j| big.get(n - win + i, n - win + j));
        let expected = cholesky_sym(&window_matrix).unwrap();

        let mut machine = OocMachine::<f64>::with_capacity(35);
        let id = machine.insert_symmetric(big.clone());
        let plan = OocCholPlan::for_memory(35).unwrap();
        ooc_chol_execute(&mut machine, &SymWindowRef::window(id, n - win, win), &plan).unwrap();
        let got = machine.take_symmetric(id).unwrap();

        for i in 0..win {
            for j in 0..=i {
                assert!(
                    (got.get(n - win + i, n - win + j) - expected.get(i, j)).abs() < 1e-9,
                    "window element ({i},{j})"
                );
            }
        }
        // untouched elements outside the window
        assert_eq!(got.get(2, 1), big.get(2, 1));
        assert_eq!(got.get(n - win, 0), big.get(n - win, 0));
    }

    #[test]
    fn plan_validation() {
        assert!(OocCholPlan::with_tile(0).is_err());
        assert!(OocCholPlan::for_memory(2).is_err());
    }
}
