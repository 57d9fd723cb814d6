//! LBC — Large Block Cholesky (Algorithm 5 of the paper), the
//! communication-optimal out-of-core Cholesky factorization.
//!
//! LBC is a right-looking blocked factorization with *large* panels
//! (`b = √N`): at each iteration the diagonal block is factorized with
//! `OOC_CHOL`, the panel below it is solved with `OOC_TRSM`, and the trailing
//! symmetric update — which carries virtually all of the arithmetic — is
//! delegated to the triangle-block SYRK schedule (TBS). Because TBS runs at
//! the optimal `√(S/2)` operational intensity, the whole factorization
//! reaches the paper's lower bound:
//!
//! `Q_LBC ≤ N³/(3·√2·√S) + O(N^{5/2})`  (Theorem 5.7),
//!
//! a `√2` improvement over Béreux's left-looking out-of-core Cholesky
//! (`N³/(3√S)`).
//!
//! Every phase is attributed to a machine phase label (`lbc:chol`,
//! `lbc:trsm`, `lbc:trailing`), which is how the experiments reproduce the
//! term-by-term analysis of Section 5.2.2 (Figure 3).

use crate::plan::{LbcPlan, TbsPlan, TrailingUpdate};
use crate::tbs::{tbs_build, tbs_cost};
use symla_baselines::error::{OocError, Result};
use symla_baselines::params::IoEstimate;
use symla_baselines::{
    ooc_chol_build, ooc_chol_cost, ooc_syrk_build, ooc_syrk_cost, ooc_trsm_build, ooc_trsm_cost,
    OocCholPlan, OocSyrkPlan, OocTrsmPlan,
};
use symla_matrix::Scalar;
use symla_memory::{OocMachine, SymWindowRef};
use symla_sched::{Engine, Schedule, ScheduleBuilder};

/// Phase label of the diagonal-block factorizations.
pub const PHASE_CHOL: &str = "lbc:chol";
/// Phase label of the panel solves.
pub const PHASE_TRSM: &str = "lbc:trsm";
/// Phase label of the trailing symmetric updates.
pub const PHASE_TRAILING: &str = "lbc:trailing";

/// Predicted I/O of LBC broken down by phase (the measured analogue of the
/// four-term analysis of Section 5.2.2; the paper's terms (3) and (4) both
/// live inside `trailing`, split between loads of the panel and loads/stores
/// of the trailing matrix).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LbcCostBreakdown {
    /// Diagonal-block factorizations (paper term (1)).
    pub chol: IoEstimate,
    /// Panel solves (paper term (2)).
    pub trsm: IoEstimate,
    /// Trailing updates (paper terms (3) + (4)).
    pub trailing: IoEstimate,
}

impl LbcCostBreakdown {
    /// Sum of the three phases.
    pub fn total(&self) -> IoEstimate {
        self.chol.merge(&self.trsm).merge(&self.trailing)
    }
}

/// Validates the panel width and returns the plans of the diagonal-block
/// factorizations and the panel solves.
fn panel_plans(plan: &LbcPlan) -> Result<(OocCholPlan, OocTrsmPlan)> {
    if plan.block == 0 {
        return Err(OocError::Invalid("LBC block size must be positive".into()));
    }
    Ok((
        OocCholPlan::for_memory(plan.capacity)?,
        OocTrsmPlan::for_memory(plan.capacity)?,
    ))
}

/// The TBS plan of a trailing update of order `rest`, or `None` for the
/// square-block ablation.
fn trailing_tbs_plan(rest: usize, plan: &LbcPlan) -> Result<Option<TbsPlan>> {
    match plan.trailing {
        TrailingUpdate::Tbs => TbsPlan::for_memory(plan.capacity).map(Some),
        TrailingUpdate::TbsTiled => TbsPlan::for_problem(plan.capacity, rest).map(Some),
        TrailingUpdate::OocSyrk => Ok(None),
    }
}

fn trailing_cost(rest: usize, bb: usize, plan: &LbcPlan) -> Result<IoEstimate> {
    match trailing_tbs_plan(rest, plan)? {
        Some(tbs_plan) => tbs_cost(rest, bb, &tbs_plan),
        None => Ok(ooc_syrk_cost(
            rest,
            bb,
            &OocSyrkPlan::for_memory(plan.capacity)?,
        )),
    }
}

/// Predicted, per-phase I/O of [`lbc_execute`]. Mirrors the executor exactly.
pub fn lbc_cost_breakdown(n: usize, plan: &LbcPlan) -> Result<LbcCostBreakdown> {
    let (chol_plan, trsm_plan) = panel_plans(plan)?;
    let mut breakdown = LbcCostBreakdown::default();
    let mut i0 = 0;
    while i0 < n {
        let bb = plan.block.min(n - i0);
        breakdown.chol = breakdown.chol.merge(&ooc_chol_cost(bb, &chol_plan));
        let rest = n - i0 - bb;
        if rest > 0 {
            breakdown.trsm = breakdown.trsm.merge(&ooc_trsm_cost(rest, bb, &trsm_plan));
            breakdown.trailing = breakdown.trailing.merge(&trailing_cost(rest, bb, plan)?);
        }
        i0 += bb;
    }
    Ok(breakdown)
}

/// Predicted total I/O of [`lbc_execute`].
pub fn lbc_cost(n: usize, plan: &LbcPlan) -> Result<IoEstimate> {
    Ok(lbc_cost_breakdown(n, plan)?.total())
}

/// Appends the Large Block Cholesky schedule for the window `a` to an
/// existing builder. Every task group is labelled with the phase of the LBC
/// iteration it belongs to ([`PHASE_CHOL`] / [`PHASE_TRSM`] /
/// [`PHASE_TRAILING`]), which is how the per-phase attribution of Section
/// 5.2.2 survives the engine replay.
pub fn lbc_build<T: Scalar>(
    sched: &mut ScheduleBuilder<T>,
    a: &SymWindowRef,
    plan: &LbcPlan,
) -> Result<()> {
    let (chol_plan, trsm_plan) = panel_plans(plan)?;
    let n = a.order();

    let mut i0 = 0;
    while i0 < n {
        let bb = plan.block.min(n - i0);

        sched.set_phase(PHASE_CHOL);
        ooc_chol_build(sched, &a.subwindow(i0, bb), &chol_plan);

        let rest = n - i0 - bb;
        if rest > 0 {
            let panel = a.panel(i0 + bb, i0, rest, bb);
            let diag = a.subwindow(i0, bb);
            let trailing = a.subwindow(i0 + bb, rest);

            sched.set_phase(PHASE_TRSM);
            ooc_trsm_build(sched, &diag, &panel, &trsm_plan);

            sched.set_phase(PHASE_TRAILING);
            match trailing_tbs_plan(rest, plan)? {
                Some(tbs_plan) => tbs_build(sched, &panel, &trailing, -T::ONE, &tbs_plan)?,
                None => {
                    let sq_plan = OocSyrkPlan::for_memory(plan.capacity)?;
                    ooc_syrk_build(sched, &panel, &trailing, -T::ONE, &sq_plan);
                }
            }
        }
        i0 += bb;
    }
    Ok(())
}

/// Builds the Large Block Cholesky schedule for the window `a`, validating
/// the plan.
pub fn lbc_schedule<T: Scalar>(a: &SymWindowRef, plan: &LbcPlan) -> Result<Schedule<T>> {
    let mut sched = ScheduleBuilder::new();
    lbc_build(&mut sched, a, plan)?;
    Ok(sched.finish())
}

/// Factorizes the symmetric positive definite window `a` in place
/// (`A = L·Lᵀ`, the lower triangle is overwritten by `L`) with the Large
/// Block Cholesky schedule, emitted by [`lbc_build`] and replayed by the
/// generic [`Engine`].
pub fn lbc_execute<T: Scalar>(
    machine: &mut OocMachine<T>,
    a: &SymWindowRef,
    plan: &LbcPlan,
) -> Result<()> {
    let schedule = lbc_schedule(a, plan)?;
    let outcome = Engine::execute(machine, &schedule);
    machine.set_phase("main");
    outcome?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use symla_matrix::generate::random_spd_seeded;
    use symla_matrix::kernels::{cholesky_residual, cholesky_sym};
    use symla_matrix::{LowerTriangular, SymMatrix};

    fn run_lbc(
        n: usize,
        s: usize,
        plan: LbcPlan,
    ) -> (
        SymMatrix<f64>,
        SymMatrix<f64>,
        LbcCostBreakdown,
        symla_memory::IoStats,
    ) {
        let a: SymMatrix<f64> = random_spd_seeded(n, 5100 + n as u64);
        let mut machine = OocMachine::with_capacity(s);
        let id = machine.insert_symmetric(a.clone());
        lbc_execute(&mut machine, &SymWindowRef::full(id, n), &plan).unwrap();
        let breakdown = lbc_cost_breakdown(n, &plan).unwrap();
        let stats = machine.stats().clone();
        let got = machine.take_symmetric(id).unwrap();
        (got, a, breakdown, stats)
    }

    fn factor_of(result: &SymMatrix<f64>) -> LowerTriangular<f64> {
        LowerTriangular::from_lower_fn(result.order(), |i, j| result.get(i, j))
    }

    #[test]
    fn lbc_with_engaged_tbs_is_correct_and_matches_cost() {
        // S = 10 (k = 4): the trailing TBS genuinely engages for the early
        // iterations (rest >= 12).
        let n = 36;
        let s = 10;
        let plan = LbcPlan::for_problem(n, s).unwrap();
        assert_eq!(plan.block, 6);
        let (got, a, breakdown, stats) = run_lbc(n, s, plan);

        let expected = cholesky_sym(&a).unwrap();
        let lfac = factor_of(&got);
        assert!(lfac.approx_eq(&expected, 1e-8));
        assert!(cholesky_residual(&a, &lfac) < 1e-10);

        let total = breakdown.total();
        assert_eq!(total.loads, stats.volume.loads as u128);
        assert_eq!(total.stores, stats.volume.stores as u128);
        assert_eq!(total.flops, stats.flops);
        assert!(stats.peak_resident <= s);

        // per-phase attribution matches the per-phase predictions
        assert_eq!(breakdown.chol.loads, stats.phase(PHASE_CHOL).loads as u128);
        assert_eq!(breakdown.trsm.loads, stats.phase(PHASE_TRSM).loads as u128);
        assert_eq!(
            breakdown.trailing.loads,
            stats.phase(PHASE_TRAILING).loads as u128
        );
        assert_eq!(
            breakdown.trailing.stores,
            stats.phase(PHASE_TRAILING).stores as u128
        );
    }

    #[test]
    fn all_trailing_strategies_produce_the_same_factor() {
        let n = 30;
        let s = 64;
        let a: SymMatrix<f64> = random_spd_seeded(n, 5200);
        let expected = cholesky_sym(&a).unwrap();

        for trailing in [
            TrailingUpdate::Tbs,
            TrailingUpdate::TbsTiled,
            TrailingUpdate::OocSyrk,
        ] {
            let plan = LbcPlan::for_problem(n, s).unwrap().with_trailing(trailing);
            let mut machine = OocMachine::with_capacity(s);
            let id = machine.insert_symmetric(a.clone());
            lbc_execute(&mut machine, &SymWindowRef::full(id, n), &plan).unwrap();
            let got = machine.take_symmetric(id).unwrap();
            assert!(
                factor_of(&got).approx_eq(&expected, 1e-8),
                "strategy {trailing:?}"
            );
            let total = lbc_cost_breakdown(n, &plan).unwrap().total();
            assert_eq!(total.loads, machine.stats().volume.loads as u128);
        }
    }

    #[test]
    fn ragged_blocks_and_custom_block_size() {
        let n = 29;
        let s = 48;
        let plan = LbcPlan::for_problem(n, s)
            .unwrap()
            .with_block(7)
            .unwrap()
            .with_trailing(TrailingUpdate::OocSyrk);
        let (got, a, breakdown, stats) = run_lbc(n, s, plan);
        let expected = cholesky_sym(&a).unwrap();
        assert!(factor_of(&got).approx_eq(&expected, 1e-8));
        assert_eq!(breakdown.total().loads, stats.volume.loads as u128);
        assert!(stats.peak_resident <= s);
    }

    #[test]
    fn zero_block_is_rejected_by_the_builder() {
        // lbc_build is public API; a zero block must error, not loop forever.
        let plan = LbcPlan {
            block: 0,
            capacity: 36,
            trailing: TrailingUpdate::Tbs,
        };
        let window = SymWindowRef::full(symla_memory::MatrixId::synthetic(0), 8);
        let mut sched = ScheduleBuilder::<f64>::new();
        assert!(matches!(
            lbc_build(&mut sched, &window, &plan),
            Err(OocError::Invalid(_))
        ));
        assert!(lbc_schedule::<f64>(&window, &plan).is_err());
    }

    #[test]
    fn zero_block_is_rejected_by_the_cost_model() {
        // The cost mirror rejects the plan the builder rejects instead of
        // looping forever.
        let plan = LbcPlan {
            block: 0,
            capacity: 300,
            trailing: TrailingUpdate::Tbs,
        };
        let window = SymWindowRef::full(symla_memory::MatrixId::synthetic(0), 40);
        assert!(matches!(lbc_cost(40, &plan), Err(OocError::Invalid(_))));
        assert!(matches!(
            lbc_schedule::<f64>(&window, &plan),
            Err(OocError::Invalid(_))
        ));
    }

    #[test]
    fn non_spd_input_is_reported() {
        let n = 16;
        let mut a: SymMatrix<f64> = random_spd_seeded(n, 5300);
        a.set(9, 9, -100.0);
        let mut machine = OocMachine::<f64>::with_capacity(32);
        let id = machine.insert_symmetric(a);
        let plan = LbcPlan::for_problem(n, 32).unwrap();
        let err = lbc_execute(&mut machine, &SymWindowRef::full(id, n), &plan).unwrap_err();
        match err {
            OocError::Matrix(symla_matrix::MatrixError::NotPositiveDefinite { pivot, .. }) => {
                assert_eq!(pivot, 9);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lbc_beats_bereux_and_respects_lower_bound_analytically() {
        // Analytic comparison at a size where the trailing TBS engages for
        // most iterations: S = 36 (k = 8), N = 1200, b = sqrt(N) ~ 35.
        let n = 1200;
        let s = 36;
        let plan = LbcPlan::for_problem(n, s).unwrap();
        let lbc = lbc_cost(n, &plan).unwrap();

        let bereux = symla_baselines::ooc_chol_cost(n, &OocCholPlan::for_memory(s).unwrap());
        assert!(
            lbc.loads < bereux.loads,
            "LBC loads {} should beat OOC_CHOL {}",
            lbc.loads,
            bereux.loads
        );

        let lb = bounds::cholesky_lower_bound(n as f64, s as f64);
        assert!(
            lbc.loads as f64 >= lb,
            "LBC {} below lower bound {lb}",
            lbc.loads
        );

        // The right-looking square-block ablation is worse than the TBS one.
        let ablation = lbc_cost(n, &plan.with_trailing(TrailingUpdate::OocSyrk)).unwrap();
        assert!(ablation.loads > lbc.loads);
    }
}
