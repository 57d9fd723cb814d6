//! High-level entry points: run a kernel out of core with a chosen schedule
//! and get back the result plus a full I/O report.
//!
//! These wrappers own the machine-model plumbing (registering the operands in
//! slow memory, choosing plans, extracting the result) so that examples and
//! downstream users can exercise the paper's algorithms in a couple of lines:
//!
//! ```
//! use symla_core::api::{syrk_out_of_core, SyrkAlgorithm};
//! use symla_matrix::{generate, SymMatrix};
//!
//! let a = generate::random_matrix_seeded::<f64>(64, 32, 1);
//! let mut c = SymMatrix::zeros(64);
//! let report = syrk_out_of_core(&a, &mut c, 1.0, 36, SyrkAlgorithm::Tbs).unwrap();
//! assert!(report.measured_loads() >= report.lower_bound as u64);
//! ```

use crate::bounds;
use crate::engine::{Engine, EngineConfig, Schedule};
use crate::lbc::{lbc_cost, lbc_schedule};
use crate::passes::{PassPipeline, StageOutcome};
use crate::plan::{LbcPlan, TbsPlan, TbsTiledPlan, TrailingUpdate};
use crate::service::{PlanService, ServedRun};
use crate::tbs::{tbs_cost, tbs_schedule};
use crate::tbs_tiled::{tbs_tiled_cost, tbs_tiled_schedule};
use std::fmt;
use symla_baselines::error::{OocError, Result};
use symla_baselines::params::IoEstimate;
use symla_baselines::{
    ooc_chol_cost, ooc_chol_schedule, ooc_gemm_cost, ooc_gemm_schedule, ooc_syrk_cost,
    ooc_syrk_schedule, OocCholPlan, OocGemmPlan, OocSyrkPlan,
};
use symla_matrix::{LowerTriangular, Matrix, Scalar, SymMatrix};
use symla_memory::{
    IoStats, LatencyMachine, MachineConfig, MachineModel, OocMachine, PanelRef, SymWindowRef,
    TimeStats,
};
use symla_obs::{InstrumentedMachine, RunTrace, TraceRecorder};
use symla_sched::autotune::{TuneError, Tuned, Tuner, TuningReport, TuningSpace};
use symla_sched::timing::modelled_time;

/// Out-of-core SYRK schedules exposed by the high-level API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyrkAlgorithm {
    /// The paper's element-level TBS (Algorithm 4).
    Tbs,
    /// The paper's tiled TBS (Section 5.1.4).
    TbsTiled,
    /// Béreux's square-block baseline.
    SquareBlocks,
}

impl SyrkAlgorithm {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SyrkAlgorithm::Tbs => "TBS",
            SyrkAlgorithm::TbsTiled => "TBS(tiled)",
            SyrkAlgorithm::SquareBlocks => "OOC_SYRK",
        }
    }
}

/// Out-of-core Cholesky schedules exposed by the high-level API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholeskyAlgorithm {
    /// The paper's Large Block Cholesky with element-level TBS trailing
    /// updates.
    Lbc,
    /// LBC with tiled-TBS trailing updates.
    LbcTiled,
    /// LBC with square-block trailing updates (right-looking ablation).
    LbcSquare,
    /// Béreux's one-tile left-looking out-of-core Cholesky.
    Bereux,
}

impl CholeskyAlgorithm {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CholeskyAlgorithm::Lbc => "LBC",
            CholeskyAlgorithm::LbcTiled => "LBC(tiled)",
            CholeskyAlgorithm::LbcSquare => "LBC(square trailing)",
            CholeskyAlgorithm::Bereux => "OOC_CHOL",
        }
    }
}

/// Outcome of one out-of-core run: measured statistics, the analytic
/// prediction, and the relevant bounds.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the schedule that ran.
    pub algorithm: String,
    /// Result order `N`.
    pub n: usize,
    /// Number of columns `M` of the input panel (`None` for Cholesky).
    pub m: Option<usize>,
    /// Fast-memory capacity `S` in elements.
    pub memory: usize,
    /// Measured machine statistics.
    pub stats: IoStats,
    /// Analytic prediction of the same schedule (must agree exactly).
    pub predicted: IoEstimate,
    /// The paper's lower bound for this instance.
    pub lower_bound: f64,
    /// The best previously known lower bound.
    pub prior_lower_bound: f64,
}

impl RunReport {
    /// Measured load volume (elements moved slow → fast).
    pub fn measured_loads(&self) -> u64 {
        self.stats.volume.loads
    }

    /// Measured total traffic (loads + stores).
    pub fn measured_total(&self) -> u64 {
        self.stats.total_io()
    }

    /// Measured loads divided by the paper's lower bound (≥ 1 for any valid
    /// schedule; close to 1 for the optimal ones at large sizes).
    pub fn optimality_ratio(&self) -> f64 {
        if self.lower_bound == 0.0 {
            0.0
        } else {
            self.measured_loads() as f64 / self.lower_bound
        }
    }

    /// Normalized leading constant: `measured_loads / (N²M/√S)` for SYRK or
    /// `measured_loads / (N³/√S)` for Cholesky. The paper's constants to
    /// compare against are `1/√2` (TBS), `1` (OOC_SYRK), `1/(3√2)` (LBC) and
    /// `1/3` (OOC_CHOL).
    pub fn normalized_constant(&self) -> f64 {
        let nf = self.n as f64;
        let sf = (self.memory as f64).sqrt();
        let denom = match self.m {
            Some(m) => nf * nf * m as f64 / sf,
            None => nf * nf * nf / sf,
        };
        self.measured_loads() as f64 / denom
    }

    /// Whether the analytic prediction matches the measurement exactly.
    pub fn prediction_matches(&self) -> bool {
        self.predicted.loads == self.stats.volume.loads as u128
            && self.predicted.stores == self.stats.volume.stores as u128
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on N={}{} with S={} elements:",
            self.algorithm,
            self.n,
            self.m.map(|m| format!(" M={m}")).unwrap_or_default(),
            self.memory
        )?;
        writeln!(
            f,
            "  loads {:>14}  stores {:>14}  peak resident {}",
            self.stats.volume.loads, self.stats.volume.stores, self.stats.peak_resident
        )?;
        writeln!(
            f,
            "  lower bound {:>12.4e}  optimality ratio {:.4}  normalized constant {:.4}",
            self.lower_bound,
            self.optimality_ratio(),
            self.normalized_constant()
        )
    }
}

/// Outcome of an optimized out-of-core run: the regular [`RunReport`]
/// (whose `stats` are the *measured optimized* execution) plus the seed
/// schedule's dry-run stats and the per-pass accounting.
///
/// For an optimized run, [`RunReport::prediction_matches`] compares the
/// analytic model against the optimized measurement, so it only holds when
/// the pipeline saved nothing; [`OptimizedRun::seed_prediction_matches`] is
/// the invariant that always holds.
#[derive(Debug, Clone)]
pub struct OptimizedRun {
    /// The run report; `report.stats` is the measured optimized execution.
    pub report: RunReport,
    /// Dry-run statistics of the seed (un-optimized) schedule.
    pub seed_stats: IoStats,
    /// Per-pass accounting recorded by the pass manager.
    pub stages: Vec<StageOutcome>,
}

impl OptimizedRun {
    /// Load volume saved by the pipeline (elements).
    pub fn loads_saved(&self) -> i64 {
        self.seed_stats.volume.loads as i64 - self.report.stats.volume.loads as i64
    }

    /// Transfer events (loads + stores) saved by the pipeline.
    pub fn events_saved(&self) -> i64 {
        (self.seed_stats.load_events + self.seed_stats.store_events) as i64
            - (self.report.stats.load_events + self.report.stats.store_events) as i64
    }

    /// Whether the analytic cost model matches the *seed* schedule exactly
    /// (the invariant the un-optimized API enforces via
    /// [`RunReport::prediction_matches`]).
    pub fn seed_prediction_matches(&self) -> bool {
        self.report.predicted.loads == self.seed_stats.volume.loads as u128
            && self.report.predicted.stores == self.seed_stats.volume.stores as u128
    }
}

/// Builds the schedule and analytic cost of one SYRK algorithm.
pub(crate) fn syrk_schedule_for<T: Scalar>(
    algorithm: SyrkAlgorithm,
    a_ref: &PanelRef,
    c_ref: &SymWindowRef,
    alpha: T,
    s: usize,
) -> Result<(Schedule<T>, IoEstimate)> {
    let n = c_ref.order();
    let m = a_ref.cols();
    Ok(match algorithm {
        SyrkAlgorithm::Tbs => {
            let plan = TbsPlan::for_memory(s)?;
            (
                tbs_schedule(a_ref, c_ref, alpha, &plan)?,
                tbs_cost(n, m, &plan)?,
            )
        }
        SyrkAlgorithm::TbsTiled => {
            let plan = TbsTiledPlan::for_problem(s, n)?;
            (
                tbs_tiled_schedule(a_ref, c_ref, alpha, &plan)?,
                tbs_tiled_cost(n, m, &plan)?,
            )
        }
        SyrkAlgorithm::SquareBlocks => {
            let plan = OocSyrkPlan::for_memory(s)?;
            (
                ooc_syrk_schedule(a_ref, c_ref, alpha, &plan)?,
                ooc_syrk_cost(n, m, &plan),
            )
        }
    })
}

/// Builds the schedule and analytic cost of one Cholesky algorithm.
pub(crate) fn cholesky_schedule_for<T: Scalar>(
    algorithm: CholeskyAlgorithm,
    window: &SymWindowRef,
    s: usize,
) -> Result<(Schedule<T>, IoEstimate)> {
    let n = window.order();
    Ok(match algorithm {
        CholeskyAlgorithm::Lbc => {
            let plan = LbcPlan::for_problem(n, s)?;
            (lbc_schedule(window, &plan)?, lbc_cost(n, &plan)?)
        }
        CholeskyAlgorithm::LbcTiled => {
            let plan = LbcPlan::for_problem(n, s)?.with_trailing(TrailingUpdate::TbsTiled);
            (lbc_schedule(window, &plan)?, lbc_cost(n, &plan)?)
        }
        CholeskyAlgorithm::LbcSquare => {
            let plan = LbcPlan::for_problem(n, s)?.with_trailing(TrailingUpdate::OocSyrk);
            (lbc_schedule(window, &plan)?, lbc_cost(n, &plan)?)
        }
        CholeskyAlgorithm::Bereux => {
            let plan = OocCholPlan::for_memory(s)?;
            (ooc_chol_schedule(window, &plan), ooc_chol_cost(n, &plan))
        }
    })
}

/// [`syrk_schedule_for`] with an explicit tile override: `None` delegates
/// to the planner default, `Some(t)` sets the algorithm's tile parameter
/// (`k` for TBS variants, the square block side for the baseline). The
/// override must fit the capacity `s`; infeasible tiles return an error so
/// the autotuner can skip them.
pub(crate) fn syrk_schedule_with_tile<T: Scalar>(
    algorithm: SyrkAlgorithm,
    a_ref: &PanelRef,
    c_ref: &SymWindowRef,
    alpha: T,
    s: usize,
    tile: Option<usize>,
) -> Result<(Schedule<T>, IoEstimate)> {
    let Some(t) = tile else {
        return syrk_schedule_for(algorithm, a_ref, c_ref, alpha, s);
    };
    let n = c_ref.order();
    let m = a_ref.cols();
    Ok(match algorithm {
        SyrkAlgorithm::Tbs => {
            let plan = TbsPlan::with_k(t)?;
            if plan.working_set() > s {
                return Err(OocError::Invalid(format!(
                    "TBS k = {t} needs {} elements, capacity is {s}",
                    plan.working_set()
                )));
            }
            let plan = TbsPlan { k: t, capacity: s };
            (
                tbs_schedule(a_ref, c_ref, alpha, &plan)?,
                tbs_cost(n, m, &plan)?,
            )
        }
        SyrkAlgorithm::TbsTiled => {
            let b = TbsTiledPlan::max_tile_for(t, s).ok_or_else(|| {
                OocError::Invalid(format!("no tiled-TBS tile fits k = {t} in capacity {s}"))
            })?;
            let plan = TbsTiledPlan {
                k: t,
                b,
                capacity: s,
            };
            (
                tbs_tiled_schedule(a_ref, c_ref, alpha, &plan)?,
                tbs_tiled_cost(n, m, &plan)?,
            )
        }
        SyrkAlgorithm::SquareBlocks => {
            let plan = OocSyrkPlan::with_tile(t)?;
            if plan.working_set() > s {
                return Err(OocError::Invalid(format!(
                    "square tile {t} needs {} elements, capacity is {s}",
                    plan.working_set()
                )));
            }
            (
                ooc_syrk_schedule(a_ref, c_ref, alpha, &plan)?,
                ooc_syrk_cost(n, m, &plan),
            )
        }
    })
}

/// [`cholesky_schedule_for`] with an explicit tile override (`Some(t)` =
/// LBC panel width, or the square tile side for the Béreux baseline).
pub(crate) fn cholesky_schedule_with_tile<T: Scalar>(
    algorithm: CholeskyAlgorithm,
    window: &SymWindowRef,
    s: usize,
    tile: Option<usize>,
) -> Result<(Schedule<T>, IoEstimate)> {
    let Some(t) = tile else {
        return cholesky_schedule_for(algorithm, window, s);
    };
    let n = window.order();
    let trailing = match algorithm {
        CholeskyAlgorithm::Lbc => TrailingUpdate::Tbs,
        CholeskyAlgorithm::LbcTiled => TrailingUpdate::TbsTiled,
        CholeskyAlgorithm::LbcSquare => TrailingUpdate::OocSyrk,
        CholeskyAlgorithm::Bereux => {
            let plan = OocCholPlan::with_tile(t)?;
            return Ok((ooc_chol_schedule(window, &plan), ooc_chol_cost(n, &plan)));
        }
    };
    let plan = LbcPlan::for_problem(n, s)?
        .with_block(t)?
        .with_trailing(trailing);
    Ok((lbc_schedule(window, &plan)?, lbc_cost(n, &plan)?))
}

/// [`gemm_schedule_for`] with an explicit square-tile override.
pub(crate) fn gemm_schedule_with_tile<T: Scalar>(
    a_ref: &PanelRef,
    b_ref: &PanelRef,
    c_ref: &PanelRef,
    alpha: T,
    s: usize,
    tile: Option<usize>,
) -> Result<(Schedule<T>, IoEstimate)> {
    let Some(t) = tile else {
        return gemm_schedule_for(a_ref, b_ref, c_ref, alpha, s);
    };
    let plan = OocGemmPlan::with_tile(t)?;
    let cost = ooc_gemm_cost(a_ref.rows(), a_ref.cols(), b_ref.cols(), &plan);
    Ok((ooc_gemm_schedule(a_ref, b_ref, c_ref, alpha, &plan)?, cost))
}

/// Builds the schedule and analytic cost of the square-block out-of-core
/// GEMM (the non-symmetric comparison point; there is a single schedule, so
/// no algorithm enum).
pub(crate) fn gemm_schedule_for<T: Scalar>(
    a_ref: &PanelRef,
    b_ref: &PanelRef,
    c_ref: &PanelRef,
    alpha: T,
    s: usize,
) -> Result<(Schedule<T>, IoEstimate)> {
    let plan = OocGemmPlan::for_memory(s)?;
    let cost = ooc_gemm_cost(a_ref.rows(), a_ref.cols(), b_ref.cols(), &plan);
    Ok((ooc_gemm_schedule(a_ref, b_ref, c_ref, alpha, &plan)?, cost))
}

/// Runs a pass pipeline over a schedule, translating pass errors into the
/// workspace error type. The pipeline's residency budget is clamped to the
/// machine capacity `s`: the optimized schedule must still execute within
/// the same fast memory the caller asked for, whatever budget the pipeline
/// was configured with. This clamp composes with the prefetch lookahead
/// (`*_prefetched` entry points): the passes may grow group footprints up
/// to `s`, and the prefetch planner then admits lookahead loads only into
/// whatever slack `s − footprint` the *optimized* schedule actually leaves
/// — prefetch slack is taken from the schedule the passes produced, never
/// assumed — so an optimized-and-prefetched execution still peaks within
/// `s` (asserted by the prefetch test sweep and the `ab_prefetch` gate).
/// An empty unverified pipeline (the plain API paths)
/// skips the pass manager entirely and returns `None` for the seed stats —
/// the caller reuses its measured execution stats, which the engine
/// invariants guarantee equal the dry run of the (unchanged) schedule.
pub(crate) fn optimize_schedule<T: Scalar>(
    schedule: Schedule<T>,
    pipeline: &PassPipeline,
    s: usize,
) -> Result<(Schedule<T>, Option<IoStats>, Vec<StageOutcome>)> {
    if pipeline.is_noop() && !pipeline.verify {
        return Ok((schedule, None, Vec::new()));
    }
    let clamped = match pipeline.budget {
        Some(budget) if budget > s => pipeline.clone().with_budget(Some(s)),
        _ => pipeline.clone(),
    };
    let optimized = clamped
        .manager::<T>()
        .optimize(&schedule, "main")
        .map_err(|e| OocError::Invalid(format!("pass pipeline: {e}")))?;
    Ok((
        optimized.schedule,
        Some(optimized.seed_stats),
        optimized.stages,
    ))
}

/// Runs an out-of-core SYRK (`C += alpha·A·Aᵀ`) with the requested schedule
/// under a fast memory of `s` elements, updating `c` in place and returning
/// the run report.
pub fn syrk_out_of_core<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    s: usize,
    algorithm: SyrkAlgorithm,
) -> Result<RunReport> {
    syrk_out_of_core_optimized(a, c, alpha, s, algorithm, &PassPipeline::none())
        .map(|run| run.report)
}

/// Runs an out-of-core SYRK with the requested schedule **after optimizing
/// it** with the given pass pipeline. The schedule is built, rewritten by
/// the pipeline (with per-pass dry-run accounting) and replayed by the
/// generic engine; the report's stats measure the optimized execution.
///
/// A pipeline residency budget larger than `s` is clamped to `s`: the
/// optimized schedule always executes within the fast memory the caller
/// asked for.
///
/// ```
/// use symla_core::api::{syrk_out_of_core_optimized, SyrkAlgorithm};
/// use symla_core::passes::PassPipeline;
/// use symla_matrix::{generate, SymMatrix};
///
/// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
/// let mut c = SymMatrix::zeros(40);
/// let run = syrk_out_of_core_optimized(
///     &a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &PassPipeline::standard(),
/// ).unwrap();
/// assert!(run.seed_prediction_matches());
/// assert!(run.events_saved() > 0); // coalesced contiguous loads
/// assert!(run.loads_saved() >= 0);
/// ```
pub fn syrk_out_of_core_optimized<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    s: usize,
    algorithm: SyrkAlgorithm,
    pipeline: &PassPipeline,
) -> Result<OptimizedRun> {
    syrk_out_of_core_prefetched(a, c, alpha, s, algorithm, pipeline, 0)
}

/// Runs an out-of-core SYRK with the requested schedule, optimized by the
/// given pass pipeline **and replayed with a prefetch lookahead of
/// `lookahead` task groups** (0 = plain serial replay): while one group
/// computes, the engine issues the loads of up to `lookahead` future groups
/// into the capacity slack the (optimized) schedule leaves free, so the
/// returned stats report a strictly smaller stalled-load volume whenever
/// the slack admits any overlap — see
/// [`IoStats::stalled_loads`] / [`IoStats::overlap_ratio`](symla_memory::IoStats::overlap_ratio).
/// Results are bitwise-identical to the non-prefetching run and the peak
/// residency still respects `s`.
///
/// ```
/// use symla_core::api::{syrk_out_of_core_prefetched, SyrkAlgorithm};
/// use symla_core::passes::PassPipeline;
/// use symla_matrix::{generate, SymMatrix};
///
/// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
/// let mut c = SymMatrix::zeros(40);
/// let run = syrk_out_of_core_prefetched(
///     &a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &PassPipeline::none(), 1,
/// ).unwrap();
/// // Some of the load stream overlapped the previous group's compute ...
/// assert!(run.report.stats.prefetched_elements > 0);
/// // ... within the same fast-memory capacity.
/// assert!(run.report.stats.peak_resident <= 60);
/// ```
pub fn syrk_out_of_core_prefetched<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    s: usize,
    algorithm: SyrkAlgorithm,
    pipeline: &PassPipeline,
    lookahead: usize,
) -> Result<OptimizedRun> {
    let n = c.order();
    let m = a.cols();
    if a.rows() != n {
        return Err(OocError::Invalid(format!(
            "SYRK operand mismatch: A is {}x{} but C has order {n}",
            a.rows(),
            m
        )));
    }
    let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
    let a_id = machine.insert_dense(a.clone());
    let c_id = machine.insert_symmetric(c.clone());
    let a_ref = PanelRef::dense(a_id, n, m);
    let c_ref = SymWindowRef::full(c_id, n);

    let (schedule, predicted) = syrk_schedule_for(algorithm, &a_ref, &c_ref, alpha, s)?;
    let (schedule, seed_stats, stages) = optimize_schedule(schedule, pipeline, s)?;
    Engine::execute_with(
        &mut machine,
        &schedule,
        &EngineConfig::with_lookahead(lookahead),
    )?;

    let stats = machine.stats().clone();
    let seed_stats = seed_stats.unwrap_or_else(|| stats.clone());
    *c = machine.take_symmetric(c_id)?;
    Ok(OptimizedRun {
        report: RunReport {
            algorithm: algorithm.name().to_string(),
            n,
            m: Some(m),
            memory: s,
            stats,
            predicted,
            lower_bound: bounds::syrk_lower_bound(n as f64, m as f64, s as f64),
            prior_lower_bound: bounds::syrk_lower_bound_prior(n as f64, m as f64, s as f64),
        },
        seed_stats,
        stages,
    })
}

/// Runs an out-of-core Cholesky factorization of `a` with the requested
/// schedule under a fast memory of `s` elements, returning the factor and the
/// run report.
pub fn cholesky_out_of_core<T: Scalar>(
    a: &SymMatrix<T>,
    s: usize,
    algorithm: CholeskyAlgorithm,
) -> Result<(LowerTriangular<T>, RunReport)> {
    cholesky_out_of_core_optimized(a, s, algorithm, &PassPipeline::none())
        .map(|(factor, run)| (factor, run.report))
}

/// Runs an out-of-core Cholesky factorization **after optimizing the
/// schedule** with the given pass pipeline (see
/// [`syrk_out_of_core_optimized`]).
pub fn cholesky_out_of_core_optimized<T: Scalar>(
    a: &SymMatrix<T>,
    s: usize,
    algorithm: CholeskyAlgorithm,
    pipeline: &PassPipeline,
) -> Result<(LowerTriangular<T>, OptimizedRun)> {
    cholesky_out_of_core_prefetched(a, s, algorithm, pipeline, 0)
}

/// Runs an out-of-core Cholesky factorization with the schedule optimized
/// by the given pipeline and replayed with a prefetch lookahead of
/// `lookahead` task groups (see [`syrk_out_of_core_prefetched`]). The
/// left-looking factorizations order their groups through slow memory, so
/// the planner's freshness rule keeps any load of a region still pending a
/// write at its original program point — lookahead only overlaps what is
/// provably safe, and the factor is bitwise-identical at every lookahead.
pub fn cholesky_out_of_core_prefetched<T: Scalar>(
    a: &SymMatrix<T>,
    s: usize,
    algorithm: CholeskyAlgorithm,
    pipeline: &PassPipeline,
    lookahead: usize,
) -> Result<(LowerTriangular<T>, OptimizedRun)> {
    let n = a.order();
    let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
    let id = machine.insert_symmetric(a.clone());
    let window = SymWindowRef::full(id, n);

    let (schedule, predicted) = cholesky_schedule_for(algorithm, &window, s)?;
    let (schedule, seed_stats, stages) = optimize_schedule(schedule, pipeline, s)?;
    let outcome = Engine::execute_with(
        &mut machine,
        &schedule,
        &EngineConfig::with_lookahead(lookahead),
    );
    machine.set_phase("main");
    outcome?;

    let stats = machine.stats().clone();
    let seed_stats = seed_stats.unwrap_or_else(|| stats.clone());
    let result = machine.take_symmetric(id)?;
    let factor = LowerTriangular::from_lower_fn(n, |i, j| result.get(i, j));
    Ok((
        factor,
        OptimizedRun {
            report: RunReport {
                algorithm: algorithm.name().to_string(),
                n,
                m: None,
                memory: s,
                stats,
                predicted,
                lower_bound: bounds::cholesky_lower_bound(n as f64, s as f64),
                prior_lower_bound: bounds::cholesky_lower_bound_prior(n as f64, s as f64),
            },
            seed_stats,
            stages,
        },
    ))
}

/// Runs the out-of-core GEMM (`C += alpha·A·B`, `A` `n×m`, `B` `m×p`) with
/// the square-block schedule under a fast memory of `s` elements, updating
/// `c` in place and returning the run report.
///
/// The non-symmetric comparison point of the paper, exposed with the same
/// entry-point symmetry as SYRK and Cholesky
/// ([`gemm_out_of_core_optimized`], [`gemm_out_of_core_prefetched`]). The
/// report's `lower_bound` is the tight GEMM bound `2·n·m·p/√S` (also the
/// best previously known one, so `prior_lower_bound` equals it); the
/// `m` field holds the inner dimension, so
/// [`RunReport::normalized_constant`] (which assumes an `n²m` flop count)
/// is only meaningful when `p = n`.
///
/// ```
/// use symla_core::api::gemm_out_of_core;
/// use symla_matrix::{generate, Matrix};
///
/// let a = generate::random_matrix_seeded::<f64>(24, 10, 1);
/// let b = generate::random_matrix_seeded::<f64>(10, 18, 2);
/// let mut c = Matrix::zeros(24, 18);
/// let report = gemm_out_of_core(&a, &b, &mut c, 1.0, 36).unwrap();
/// assert!(report.measured_loads() as f64 >= report.lower_bound);
/// assert!(report.prediction_matches());
/// ```
pub fn gemm_out_of_core<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    alpha: T,
    s: usize,
) -> Result<RunReport> {
    gemm_out_of_core_optimized(a, b, c, alpha, s, &PassPipeline::none()).map(|run| run.report)
}

/// Runs the out-of-core GEMM **after optimizing the schedule** with the
/// given pass pipeline (see [`syrk_out_of_core_optimized`]; the residency
/// clamp to `s` applies identically).
pub fn gemm_out_of_core_optimized<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    alpha: T,
    s: usize,
    pipeline: &PassPipeline,
) -> Result<OptimizedRun> {
    gemm_out_of_core_prefetched(a, b, c, alpha, s, pipeline, 0)
}

/// Runs the out-of-core GEMM with the schedule optimized by the given
/// pipeline and replayed with a prefetch lookahead of `lookahead` task
/// groups (see [`syrk_out_of_core_prefetched`]). Result blocks are
/// independent, so lookahead overlaps freely and the result stays
/// bitwise-identical.
pub fn gemm_out_of_core_prefetched<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    alpha: T,
    s: usize,
    pipeline: &PassPipeline,
    lookahead: usize,
) -> Result<OptimizedRun> {
    let (n, m) = (a.rows(), a.cols());
    let p = b.cols();
    if b.rows() != m || c.rows() != n || c.cols() != p {
        return Err(OocError::Invalid(format!(
            "GEMM operand mismatch: A is {n}x{m}, B is {}x{p}, C is {}x{}",
            b.rows(),
            c.rows(),
            c.cols()
        )));
    }
    let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
    let a_id = machine.insert_dense(a.clone());
    let b_id = machine.insert_dense(b.clone());
    let c_id = machine.insert_dense(c.clone());
    let a_ref = PanelRef::dense(a_id, n, m);
    let b_ref = PanelRef::dense(b_id, m, p);
    let c_ref = PanelRef::dense(c_id, n, p);

    let (schedule, predicted) = gemm_schedule_for(&a_ref, &b_ref, &c_ref, alpha, s)?;
    let (schedule, seed_stats, stages) = optimize_schedule(schedule, pipeline, s)?;
    Engine::execute_with(
        &mut machine,
        &schedule,
        &EngineConfig::with_lookahead(lookahead),
    )?;

    let stats = machine.stats().clone();
    let seed_stats = seed_stats.unwrap_or_else(|| stats.clone());
    *c = machine.take_dense(c_id)?;
    let bound = bounds::gemm_lower_bound(n as f64, m as f64, p as f64, s as f64);
    Ok(OptimizedRun {
        report: RunReport {
            algorithm: "OOC_GEMM(rect)".to_string(),
            n,
            m: Some(m),
            memory: s,
            stats,
            predicted,
            lower_bound: bound,
            prior_lower_bound: bound,
        },
        seed_stats,
        stages,
    })
}

/// Wall-clock view of one out-of-core run under a [`MachineModel`]: the
/// time a [`LatencyMachine`] accumulated while the schedule really executed
/// (`measured`) next to the prediction of [`modelled_time`] (`modelled`),
/// which replays the schedule on a data-less machine.
///
/// The two are the same replay through the same clock and must agree
/// **bitwise** — [`WallClock::consistent`] is the cheap self-check the
/// benchmarks gate on. `measured` is still *modelled* nanoseconds (the machine is simulated);
/// real elapsed time is the benchmark harness's job.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    /// Time accumulated by the [`LatencyMachine`] during the execution.
    pub measured: TimeStats,
    /// Time predicted by [`modelled_time`] from the schedule alone.
    pub modelled: TimeStats,
}

impl WallClock {
    /// Whether the measured and modelled accounts agree bitwise (they must:
    /// a mismatch means the timing model and the engine disagree about the
    /// replay's event stream).
    pub fn consistent(&self) -> bool {
        self.measured.io_ns.to_bits() == self.modelled.io_ns.to_bits()
            && self.measured.compute_ns.to_bits() == self.modelled.compute_ns.to_bits()
            && self.measured.hidden_ns.to_bits() == self.modelled.hidden_ns.to_bits()
            && self.measured.groups == self.modelled.groups
    }
}

/// [`syrk_out_of_core_prefetched`] with the machine wrapped in a
/// [`LatencyMachine`] pricing every transfer and flop against `model`:
/// returns the run plus its [`WallClock`]. The I/O accounting, results and
/// capacity behaviour are identical to the untimed entry point; prefetched
/// loads are accounted as overlapped with the issuing group's compute, so
/// sweeping `lookahead` yields a deterministic speedup curve.
///
/// ```
/// use symla_core::api::{syrk_out_of_core_timed, SyrkAlgorithm};
/// use symla_core::passes::PassPipeline;
/// use symla_matrix::{generate, SymMatrix};
/// use symla_memory::MachineModel;
///
/// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
/// let model = MachineModel::nvme();
/// let mut c = SymMatrix::zeros(40);
/// let (_, serial) = syrk_out_of_core_timed(
///     &a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &PassPipeline::none(), 0, &model,
/// ).unwrap();
/// let mut c = SymMatrix::zeros(40);
/// let (_, overlapped) = syrk_out_of_core_timed(
///     &a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &PassPipeline::none(), 1, &model,
/// ).unwrap();
/// assert!(serial.consistent() && overlapped.consistent());
/// // Same transfers, but the lookahead hides loads behind compute.
/// assert!(overlapped.measured.total_ns() < serial.measured.total_ns());
/// ```
#[allow(clippy::too_many_arguments)]
pub fn syrk_out_of_core_timed<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    s: usize,
    algorithm: SyrkAlgorithm,
    pipeline: &PassPipeline,
    lookahead: usize,
    model: &MachineModel,
) -> Result<(OptimizedRun, WallClock)> {
    let n = c.order();
    let m = a.cols();
    if a.rows() != n {
        return Err(OocError::Invalid(format!(
            "SYRK operand mismatch: A is {}x{} but C has order {n}",
            a.rows(),
            m
        )));
    }
    let mut machine = LatencyMachine::new(OocMachine::new(MachineConfig::with_capacity(s)), *model);
    let a_id = machine.inner_mut().insert_dense(a.clone());
    let c_id = machine.inner_mut().insert_symmetric(c.clone());
    let a_ref = PanelRef::dense(a_id, n, m);
    let c_ref = SymWindowRef::full(c_id, n);

    let (schedule, predicted) = syrk_schedule_for(algorithm, &a_ref, &c_ref, alpha, s)?;
    let (schedule, seed_stats, stages) = optimize_schedule(schedule, pipeline, s)?;
    Engine::execute_with(
        &mut machine,
        &schedule,
        &EngineConfig::with_lookahead(lookahead),
    )?;

    let clock = WallClock {
        measured: machine.time(),
        modelled: modelled_time(&schedule, model, lookahead, Some(s)),
    };
    let mut machine = machine.into_inner();
    let stats = machine.stats().clone();
    let seed_stats = seed_stats.unwrap_or_else(|| stats.clone());
    *c = machine.take_symmetric(c_id)?;
    Ok((
        OptimizedRun {
            report: RunReport {
                algorithm: algorithm.name().to_string(),
                n,
                m: Some(m),
                memory: s,
                stats,
                predicted,
                lower_bound: bounds::syrk_lower_bound(n as f64, m as f64, s as f64),
                prior_lower_bound: bounds::syrk_lower_bound_prior(n as f64, m as f64, s as f64),
            },
            seed_stats,
            stages,
        },
        clock,
    ))
}

/// [`cholesky_out_of_core_prefetched`] under a [`LatencyMachine`] (see
/// [`syrk_out_of_core_timed`]): returns the factor, the run and its
/// [`WallClock`].
pub fn cholesky_out_of_core_timed<T: Scalar>(
    a: &SymMatrix<T>,
    s: usize,
    algorithm: CholeskyAlgorithm,
    pipeline: &PassPipeline,
    lookahead: usize,
    model: &MachineModel,
) -> Result<(LowerTriangular<T>, OptimizedRun, WallClock)> {
    let n = a.order();
    let mut machine = LatencyMachine::new(OocMachine::new(MachineConfig::with_capacity(s)), *model);
    let id = machine.inner_mut().insert_symmetric(a.clone());
    let window = SymWindowRef::full(id, n);

    let (schedule, predicted) = cholesky_schedule_for(algorithm, &window, s)?;
    let (schedule, seed_stats, stages) = optimize_schedule(schedule, pipeline, s)?;
    let outcome = Engine::execute_with(
        &mut machine,
        &schedule,
        &EngineConfig::with_lookahead(lookahead),
    );
    machine.inner_mut().set_phase("main");
    outcome?;

    let clock = WallClock {
        measured: machine.time(),
        modelled: modelled_time(&schedule, model, lookahead, Some(s)),
    };
    let mut machine = machine.into_inner();
    let stats = machine.stats().clone();
    let seed_stats = seed_stats.unwrap_or_else(|| stats.clone());
    let result = machine.take_symmetric(id)?;
    let factor = LowerTriangular::from_lower_fn(n, |i, j| result.get(i, j));
    Ok((
        factor,
        OptimizedRun {
            report: RunReport {
                algorithm: algorithm.name().to_string(),
                n,
                m: None,
                memory: s,
                stats,
                predicted,
                lower_bound: bounds::cholesky_lower_bound(n as f64, s as f64),
                prior_lower_bound: bounds::cholesky_lower_bound_prior(n as f64, s as f64),
            },
            seed_stats,
            stages,
        },
        clock,
    ))
}

/// [`gemm_out_of_core_prefetched`] under a [`LatencyMachine`] (see
/// [`syrk_out_of_core_timed`]): returns the run and its [`WallClock`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_out_of_core_timed<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    alpha: T,
    s: usize,
    pipeline: &PassPipeline,
    lookahead: usize,
    model: &MachineModel,
) -> Result<(OptimizedRun, WallClock)> {
    let (n, m) = (a.rows(), a.cols());
    let p = b.cols();
    if b.rows() != m || c.rows() != n || c.cols() != p {
        return Err(OocError::Invalid(format!(
            "GEMM operand mismatch: A is {n}x{m}, B is {}x{p}, C is {}x{}",
            b.rows(),
            c.rows(),
            c.cols()
        )));
    }
    let mut machine = LatencyMachine::new(OocMachine::new(MachineConfig::with_capacity(s)), *model);
    let a_id = machine.inner_mut().insert_dense(a.clone());
    let b_id = machine.inner_mut().insert_dense(b.clone());
    let c_id = machine.inner_mut().insert_dense(c.clone());
    let a_ref = PanelRef::dense(a_id, n, m);
    let b_ref = PanelRef::dense(b_id, m, p);
    let c_ref = PanelRef::dense(c_id, n, p);

    let (schedule, predicted) = gemm_schedule_for(&a_ref, &b_ref, &c_ref, alpha, s)?;
    let (schedule, seed_stats, stages) = optimize_schedule(schedule, pipeline, s)?;
    Engine::execute_with(
        &mut machine,
        &schedule,
        &EngineConfig::with_lookahead(lookahead),
    )?;

    let clock = WallClock {
        measured: machine.time(),
        modelled: modelled_time(&schedule, model, lookahead, Some(s)),
    };
    let mut machine = machine.into_inner();
    let stats = machine.stats().clone();
    let seed_stats = seed_stats.unwrap_or_else(|| stats.clone());
    *c = machine.take_dense(c_id)?;
    let bound = bounds::gemm_lower_bound(n as f64, m as f64, p as f64, s as f64);
    Ok((
        OptimizedRun {
            report: RunReport {
                algorithm: "OOC_GEMM(rect)".to_string(),
                n,
                m: Some(m),
                memory: s,
                stats,
                predicted,
                lower_bound: bound,
                prior_lower_bound: bound,
            },
            seed_stats,
            stages,
        },
        clock,
    ))
}

/// Observability bundle of one `*_out_of_core_traced` run: the structured
/// event trace, the unified metrics report and the wall-clock view.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Every observable event of the replay (group spans, transfers,
    /// kernels, prefetch issue→delivery pairs), double-stamped with the
    /// real clock and the modelled timeline — export with
    /// [`RunTrace::to_chrome_trace`](symla_obs::RunTrace::to_chrome_trace).
    pub trace: RunTrace,
    /// Machine-readable metrics: the engine's [`IoStats`] under the
    /// `engine.*` namespace and both sides of `clock` under `time.measured.*`
    /// / `time.modelled.*`. The aggregate counters equal the engine's own
    /// accounting exactly (asserted by the `ab_obs` gate).
    pub report: symla_obs::RunReport,
    /// Measured-vs-modelled wall clock, bitwise-consistent as in the
    /// `*_timed` twins.
    pub clock: WallClock,
}

/// Builds the [`TracedRun::report`] metrics from a finished run.
fn observability_report(label: String, stats: &IoStats, clock: &WallClock) -> symla_obs::RunReport {
    let mut report = symla_obs::RunReport::new(label);
    report.registry.record_io_stats("engine", stats);
    report
        .registry
        .record_time_stats("time.measured", &clock.measured);
    report
        .registry
        .record_time_stats("time.modelled", &clock.modelled);
    report
}

/// [`syrk_out_of_core_timed`] with full observability: the machine is
/// wrapped in an [`InstrumentedMachine`]
/// recording every transfer, kernel and prefetch handoff into `recorder`,
/// and the returned [`TracedRun`] carries the event trace, a
/// [`RunReport`](symla_obs::RunReport) of unified metrics and the
/// [`WallClock`]. Results, [`IoStats`] and capacity behaviour are identical
/// to the unobserved entry points (asserted by the observer-invariance
/// tests); the modelled timeline is bitwise the `*_timed` twin's.
///
/// ```
/// use symla_core::api::{syrk_out_of_core_traced, SyrkAlgorithm};
/// use symla_core::passes::PassPipeline;
/// use symla_matrix::{generate, SymMatrix};
/// use symla_memory::MachineModel;
/// use symla_obs::{TimeBase, TraceRecorder};
///
/// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
/// let mut c = SymMatrix::zeros(40);
/// let recorder = TraceRecorder::new();
/// let (_, traced) = syrk_out_of_core_traced(
///     &a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &PassPipeline::none(), 2,
///     &MachineModel::nvme(), &recorder,
/// ).unwrap();
/// assert!(traced.clock.consistent());
/// let doc = traced.trace.to_chrome_trace(&[TimeBase::Measured, TimeBase::Modelled]);
/// assert!(doc.contains("\"ph\":\"B\"")); // group spans made it out
/// ```
#[allow(clippy::too_many_arguments)]
pub fn syrk_out_of_core_traced<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    s: usize,
    algorithm: SyrkAlgorithm,
    pipeline: &PassPipeline,
    lookahead: usize,
    model: &MachineModel,
    recorder: &TraceRecorder,
) -> Result<(OptimizedRun, TracedRun)> {
    let n = c.order();
    let m = a.cols();
    if a.rows() != n {
        return Err(OocError::Invalid(format!(
            "SYRK operand mismatch: A is {}x{} but C has order {n}",
            a.rows(),
            m
        )));
    }
    let mut machine = InstrumentedMachine::new(
        OocMachine::new(MachineConfig::with_capacity(s)),
        *model,
        recorder.clone(),
        0,
    );
    let a_id = machine.inner_mut().insert_dense(a.clone());
    let c_id = machine.inner_mut().insert_symmetric(c.clone());
    let a_ref = PanelRef::dense(a_id, n, m);
    let c_ref = SymWindowRef::full(c_id, n);

    let (schedule, predicted) = syrk_schedule_for(algorithm, &a_ref, &c_ref, alpha, s)?;
    let (schedule, seed_stats, stages) = optimize_schedule(schedule, pipeline, s)?;
    Engine::execute_with(
        &mut machine,
        &schedule,
        &EngineConfig::with_lookahead(lookahead),
    )?;

    let clock = WallClock {
        measured: machine.time(),
        modelled: modelled_time(&schedule, model, lookahead, Some(s)),
    };
    let mut machine = machine.into_inner();
    let stats = machine.stats().clone();
    let seed_stats = seed_stats.unwrap_or_else(|| stats.clone());
    *c = machine.take_symmetric(c_id)?;
    let traced = TracedRun {
        trace: recorder.finish(),
        report: observability_report(
            format!("{} n={n} m={m} S={s} L={lookahead}", algorithm.name()),
            &stats,
            &clock,
        ),
        clock,
    };
    Ok((
        OptimizedRun {
            report: RunReport {
                algorithm: algorithm.name().to_string(),
                n,
                m: Some(m),
                memory: s,
                stats,
                predicted,
                lower_bound: bounds::syrk_lower_bound(n as f64, m as f64, s as f64),
                prior_lower_bound: bounds::syrk_lower_bound_prior(n as f64, m as f64, s as f64),
            },
            seed_stats,
            stages,
        },
        traced,
    ))
}

/// [`cholesky_out_of_core_timed`] with full observability (see
/// [`syrk_out_of_core_traced`]): returns the factor, the run and its
/// [`TracedRun`].
pub fn cholesky_out_of_core_traced<T: Scalar>(
    a: &SymMatrix<T>,
    s: usize,
    algorithm: CholeskyAlgorithm,
    pipeline: &PassPipeline,
    lookahead: usize,
    model: &MachineModel,
    recorder: &TraceRecorder,
) -> Result<(LowerTriangular<T>, OptimizedRun, TracedRun)> {
    let n = a.order();
    let mut machine = InstrumentedMachine::new(
        OocMachine::new(MachineConfig::with_capacity(s)),
        *model,
        recorder.clone(),
        0,
    );
    let id = machine.inner_mut().insert_symmetric(a.clone());
    let window = SymWindowRef::full(id, n);

    let (schedule, predicted) = cholesky_schedule_for(algorithm, &window, s)?;
    let (schedule, seed_stats, stages) = optimize_schedule(schedule, pipeline, s)?;
    let outcome = Engine::execute_with(
        &mut machine,
        &schedule,
        &EngineConfig::with_lookahead(lookahead),
    );
    machine.inner_mut().set_phase("main");
    outcome?;

    let clock = WallClock {
        measured: machine.time(),
        modelled: modelled_time(&schedule, model, lookahead, Some(s)),
    };
    let mut machine = machine.into_inner();
    let stats = machine.stats().clone();
    let seed_stats = seed_stats.unwrap_or_else(|| stats.clone());
    let result = machine.take_symmetric(id)?;
    let factor = LowerTriangular::from_lower_fn(n, |i, j| result.get(i, j));
    let traced = TracedRun {
        trace: recorder.finish(),
        report: observability_report(
            format!("{} n={n} S={s} L={lookahead}", algorithm.name()),
            &stats,
            &clock,
        ),
        clock,
    };
    Ok((
        factor,
        OptimizedRun {
            report: RunReport {
                algorithm: algorithm.name().to_string(),
                n,
                m: None,
                memory: s,
                stats,
                predicted,
                lower_bound: bounds::cholesky_lower_bound(n as f64, s as f64),
                prior_lower_bound: bounds::cholesky_lower_bound_prior(n as f64, s as f64),
            },
            seed_stats,
            stages,
        },
        traced,
    ))
}

/// [`gemm_out_of_core_timed`] with full observability (see
/// [`syrk_out_of_core_traced`]): returns the run and its [`TracedRun`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_out_of_core_traced<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    alpha: T,
    s: usize,
    pipeline: &PassPipeline,
    lookahead: usize,
    model: &MachineModel,
    recorder: &TraceRecorder,
) -> Result<(OptimizedRun, TracedRun)> {
    let (n, m) = (a.rows(), a.cols());
    let p = b.cols();
    if b.rows() != m || c.rows() != n || c.cols() != p {
        return Err(OocError::Invalid(format!(
            "GEMM operand mismatch: A is {n}x{m}, B is {}x{p}, C is {}x{}",
            b.rows(),
            c.rows(),
            c.cols()
        )));
    }
    let mut machine = InstrumentedMachine::new(
        OocMachine::new(MachineConfig::with_capacity(s)),
        *model,
        recorder.clone(),
        0,
    );
    let a_id = machine.inner_mut().insert_dense(a.clone());
    let b_id = machine.inner_mut().insert_dense(b.clone());
    let c_id = machine.inner_mut().insert_dense(c.clone());
    let a_ref = PanelRef::dense(a_id, n, m);
    let b_ref = PanelRef::dense(b_id, m, p);
    let c_ref = PanelRef::dense(c_id, n, p);

    let (schedule, predicted) = gemm_schedule_for(&a_ref, &b_ref, &c_ref, alpha, s)?;
    let (schedule, seed_stats, stages) = optimize_schedule(schedule, pipeline, s)?;
    Engine::execute_with(
        &mut machine,
        &schedule,
        &EngineConfig::with_lookahead(lookahead),
    )?;

    let clock = WallClock {
        measured: machine.time(),
        modelled: modelled_time(&schedule, model, lookahead, Some(s)),
    };
    let mut machine = machine.into_inner();
    let stats = machine.stats().clone();
    let seed_stats = seed_stats.unwrap_or_else(|| stats.clone());
    *c = machine.take_dense(c_id)?;
    let bound = bounds::gemm_lower_bound(n as f64, m as f64, p as f64, s as f64);
    let traced = TracedRun {
        trace: recorder.finish(),
        report: observability_report(
            format!("OOC_GEMM(rect) n={n} m={m} p={p} S={s} L={lookahead}"),
            &stats,
            &clock,
        ),
        clock,
    };
    Ok((
        OptimizedRun {
            report: RunReport {
                algorithm: "OOC_GEMM(rect)".to_string(),
                n,
                m: Some(m),
                memory: s,
                stats,
                predicted,
                lower_bound: bound,
                prior_lower_bound: bound,
            },
            seed_stats,
            stages,
        },
        traced,
    ))
}

/// Runs an out-of-core SYRK through a [`PlanService`]: the schedule (and, for
/// `lookahead > 0`, its prefetch plan) is fetched from the content-addressed
/// cache — compiled at most once per problem shape — and replayed on the
/// data. Results are bitwise-identical to [`syrk_out_of_core_prefetched`]
/// with the same arguments; on a cache hit no pass-pipeline or
/// prefetch-planner work happens at all.
#[allow(clippy::too_many_arguments)]
pub fn syrk_out_of_core_cached<T: Scalar>(
    service: &PlanService<T>,
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    s: usize,
    algorithm: SyrkAlgorithm,
    pipeline: &PassPipeline,
    lookahead: usize,
) -> Result<ServedRun> {
    service.syrk(a, c, alpha, s, algorithm, pipeline, lookahead)
}

/// Runs an out-of-core Cholesky factorization through a [`PlanService`]
/// (see [`syrk_out_of_core_cached`]); bitwise-identical to
/// [`cholesky_out_of_core_prefetched`].
pub fn cholesky_out_of_core_cached<T: Scalar>(
    service: &PlanService<T>,
    a: &SymMatrix<T>,
    s: usize,
    algorithm: CholeskyAlgorithm,
    pipeline: &PassPipeline,
    lookahead: usize,
) -> Result<(LowerTriangular<T>, ServedRun)> {
    service.cholesky(a, s, algorithm, pipeline, lookahead)
}

/// Runs the out-of-core GEMM through a [`PlanService`] (see
/// [`syrk_out_of_core_cached`]); bitwise-identical to
/// [`gemm_out_of_core_prefetched`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_out_of_core_cached<T: Scalar>(
    service: &PlanService<T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    alpha: T,
    s: usize,
    pipeline: &PassPipeline,
    lookahead: usize,
) -> Result<ServedRun> {
    service.gemm(a, b, c, alpha, s, pipeline, lookahead)
}

// ---------------------------------------------------------------------------
// Autotuned entry points
// ---------------------------------------------------------------------------

/// Pushes `tile` unless it is already present (candidate lists stay short
/// and deterministic).
fn push_tile(tiles: &mut Vec<Option<usize>>, tile: Option<usize>) {
    if !tiles.contains(&tile) {
        tiles.push(tile);
    }
}

/// The stock pipeline axis every default space shares: no passes, the
/// standard pipeline, and locality reordering budgeted at the capacity.
fn default_pipelines(s: usize) -> Vec<PassPipeline> {
    vec![
        PassPipeline::none(),
        PassPipeline::standard(),
        PassPipeline::locality(Some(s)),
    ]
}

/// The default [`TuningSpace`] of a SYRK instance: the planner-default tile
/// plus neighbours of the algorithm's natural parameter (`k` for the TBS
/// variants, the square block side for the baseline), the stock pipelines,
/// lookaheads 0–2, serial replay. Always contains the
/// (`None`, [`PassPipeline::standard`], lookahead 0) point, so the tuned
/// winner is never worse than the standard optimized run in modelled time.
pub fn syrk_tuning_space(n: usize, s: usize, algorithm: SyrkAlgorithm) -> TuningSpace {
    let mut tiles = vec![None];
    match algorithm {
        SyrkAlgorithm::Tbs => {
            if let Ok(plan) = TbsPlan::for_memory(s) {
                push_tile(&mut tiles, Some(plan.k.saturating_sub(1).max(2)));
                push_tile(&mut tiles, Some((plan.k / 2).max(2)));
            }
        }
        SyrkAlgorithm::TbsTiled => {
            if let Ok(plan) = TbsTiledPlan::for_problem(s, n) {
                push_tile(&mut tiles, Some(plan.k + 1));
                push_tile(&mut tiles, Some(plan.k.saturating_sub(1).max(2)));
            }
        }
        SyrkAlgorithm::SquareBlocks => {
            if let Ok(t) = symla_baselines::params::square_tile_for_capacity(s) {
                push_tile(&mut tiles, Some((3 * t / 4).max(1)));
                push_tile(&mut tiles, Some((t / 2).max(1)));
            }
        }
    }
    TuningSpace::minimal()
        .with_tiles(tiles)
        .with_pipelines(default_pipelines(s))
        .with_lookaheads(vec![0, 1, 2])
}

/// The default [`TuningSpace`] of a Cholesky instance; see
/// [`syrk_tuning_space`].
///
/// The LBC variants keep the planner-default panel width: changing the
/// panel width changes the *order* the factor's partial sums accumulate in,
/// so the result would no longer be bitwise-identical to the other API
/// variants (the invariant the differential tests and the `ab_autotune`
/// gate hold every entry point to). The Béreux baseline's square tile only
/// re-chunks each element's ascending-`k` accumulation chain, which leaves
/// the bytes unchanged, so its tile axis is searchable. Callers who accept
/// numerically-different-but-valid factors can still pass a custom space
/// with LBC panel-width candidates.
pub fn cholesky_tuning_space(_n: usize, s: usize, algorithm: CholeskyAlgorithm) -> TuningSpace {
    let mut tiles = vec![None];
    if algorithm == CholeskyAlgorithm::Bereux {
        if let Ok(t) = symla_baselines::params::square_tile_for_capacity(s) {
            push_tile(&mut tiles, Some((3 * t / 4).max(1)));
            push_tile(&mut tiles, Some((t / 2).max(1)));
        }
    }
    TuningSpace::minimal()
        .with_tiles(tiles)
        .with_pipelines(default_pipelines(s))
        .with_lookaheads(vec![0, 1, 2])
}

/// The default [`TuningSpace`] of a GEMM instance; see
/// [`syrk_tuning_space`].
pub fn gemm_tuning_space(s: usize) -> TuningSpace {
    let mut tiles = vec![None];
    if let Ok(t) = symla_baselines::params::square_tile_for_capacity(s) {
        push_tile(&mut tiles, Some((3 * t / 4).max(1)));
        push_tile(&mut tiles, Some((t / 2).max(1)));
    }
    TuningSpace::minimal()
        .with_tiles(tiles)
        .with_pipelines(default_pipelines(s))
        .with_lookaheads(vec![0, 1, 2])
}

/// Outcome of an autotuned out-of-core run: the executed winner (a regular
/// [`OptimizedRun`]) plus the full [`TuningReport`] of the search that
/// chose it. The tuning itself never executes anything — every candidate
/// is scored by dry run and [`modelled_time`] — so the report's winner
/// stats equal the measured execution stats exactly.
#[derive(Debug, Clone)]
pub struct AutotunedRun {
    /// The executed winner; `run.report.stats` measures the real replay.
    pub run: OptimizedRun,
    /// The search: every scored candidate, the winner index, skip counts.
    pub tuning: TuningReport,
}

impl AutotunedRun {
    /// The winner's configuration.
    pub fn config(&self) -> &symla_sched::autotune::TunedConfig {
        self.tuning.best_config()
    }
}

/// Maps a tuner failure into the workspace error type.
fn tune_err(e: TuneError) -> OocError {
    OocError::Invalid(format!("autotune: {e}"))
}

/// Runs the tuner for a serial API twin: validates the worker axis (serial
/// twins replay on one machine) and hands back the winner's artifacts.
pub(crate) fn tune_serial<T: Scalar, F>(
    build: F,
    space: &TuningSpace,
    model: &MachineModel,
    s: usize,
) -> Result<Tuned<T>>
where
    F: Fn(Option<usize>) -> std::result::Result<Schedule<T>, String>,
{
    if space.workers.iter().any(|&w| w != 1) {
        return Err(OocError::Invalid(
            "serial autotuned entry points require workers == [1]; \
             tune parallel partitions directly through the Tuner"
                .into(),
        ));
    }
    Tuner::new(model, s)
        .tune_schedules(build, space)
        .map_err(tune_err)
}

/// Replays a tuned winner: `execute_planned` with the tuned prefetch plan
/// when one exists, the plain fast path otherwise (exactly the schedule and
/// plan the tuner scored — no re-planning).
fn execute_tuned<T: Scalar, M: symla_memory::MachineOps<T>>(
    machine: &mut M,
    tuned: &Tuned<T>,
) -> std::result::Result<(), symla_sched::EngineError> {
    if tuned.plan.is_empty() {
        Engine::execute(machine, &tuned.schedule)
    } else {
        Engine::execute_planned(machine, &tuned.schedule, &tuned.plan)
    }
}

/// Runs an out-of-core SYRK with the configuration an exhaustive
/// cost-model search picked from `space`: tile size, pass pipeline and
/// prefetch lookahead are chosen by scoring every candidate **without
/// executing anything** (dry-run [`IoStats`] + [`modelled_time`] against
/// `model`), then only the winner is executed on the data.
///
/// With a default space ([`syrk_tuning_space`]) the winner is never worse
/// than the [`PassPipeline::standard`] run at lookahead 0 in modelled time,
/// and the result is bitwise-identical to every other API variant.
///
/// ```
/// use symla_core::api::{syrk_out_of_core_autotuned, syrk_tuning_space, SyrkAlgorithm};
/// use symla_matrix::{generate, SymMatrix};
/// use symla_memory::MachineModel;
///
/// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
/// let mut c = SymMatrix::zeros(40);
/// let space = syrk_tuning_space(40, 60, SyrkAlgorithm::TbsTiled);
/// let model = MachineModel::nvme();
/// let run = syrk_out_of_core_autotuned(
///     &a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &space, &model,
/// ).unwrap();
/// // The measured replay is exactly what the search scored.
/// assert_eq!(run.run.report.stats, run.tuning.winner().stats);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn syrk_out_of_core_autotuned<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    s: usize,
    algorithm: SyrkAlgorithm,
    space: &TuningSpace,
    model: &MachineModel,
) -> Result<AutotunedRun> {
    let n = c.order();
    let m = a.cols();
    if a.rows() != n {
        return Err(OocError::Invalid(format!(
            "SYRK operand mismatch: A is {}x{} but C has order {n}",
            a.rows(),
            m
        )));
    }
    let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
    let a_id = machine.insert_dense(a.clone());
    let c_id = machine.insert_symmetric(c.clone());
    let a_ref = PanelRef::dense(a_id, n, m);
    let c_ref = SymWindowRef::full(c_id, n);

    let tuned = tune_serial(
        |tile| {
            syrk_schedule_with_tile(algorithm, &a_ref, &c_ref, alpha, s, tile)
                .map(|(schedule, _)| schedule)
                .map_err(|e| e.to_string())
        },
        space,
        model,
        s,
    )?;
    // Rebuild the winner's seed for the analytic prediction and seed stats
    // (data-free; the executed schedule is the tuned one, untouched).
    let winner_tile = tuned.report.best_config().tile;
    let (seed, predicted) =
        syrk_schedule_with_tile(algorithm, &a_ref, &c_ref, alpha, s, winner_tile)?;
    let seed_stats = Engine::dry_run(&seed, "main");
    execute_tuned(&mut machine, &tuned)?;

    let stats = machine.stats().clone();
    *c = machine.take_symmetric(c_id)?;
    Ok(AutotunedRun {
        run: OptimizedRun {
            report: RunReport {
                algorithm: algorithm.name().to_string(),
                n,
                m: Some(m),
                memory: s,
                stats,
                predicted,
                lower_bound: bounds::syrk_lower_bound(n as f64, m as f64, s as f64),
                prior_lower_bound: bounds::syrk_lower_bound_prior(n as f64, m as f64, s as f64),
            },
            seed_stats,
            stages: tuned.stages.clone(),
        },
        tuning: tuned.report,
    })
}

/// Runs an out-of-core Cholesky factorization with the configuration the
/// cost-model search picked from `space` (see
/// [`syrk_out_of_core_autotuned`]).
pub fn cholesky_out_of_core_autotuned<T: Scalar>(
    a: &SymMatrix<T>,
    s: usize,
    algorithm: CholeskyAlgorithm,
    space: &TuningSpace,
    model: &MachineModel,
) -> Result<(LowerTriangular<T>, AutotunedRun)> {
    let n = a.order();
    let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
    let id = machine.insert_symmetric(a.clone());
    let window = SymWindowRef::full(id, n);

    let tuned = tune_serial(
        |tile| {
            cholesky_schedule_with_tile(algorithm, &window, s, tile)
                .map(|(schedule, _)| schedule)
                .map_err(|e| e.to_string())
        },
        space,
        model,
        s,
    )?;
    let winner_tile = tuned.report.best_config().tile;
    let (seed, predicted) = cholesky_schedule_with_tile::<T>(algorithm, &window, s, winner_tile)?;
    let seed_stats = Engine::dry_run(&seed, "main");
    let outcome = execute_tuned(&mut machine, &tuned);
    machine.set_phase("main");
    outcome?;

    let stats = machine.stats().clone();
    let result = machine.take_symmetric(id)?;
    let factor = LowerTriangular::from_lower_fn(n, |i, j| result.get(i, j));
    Ok((
        factor,
        AutotunedRun {
            run: OptimizedRun {
                report: RunReport {
                    algorithm: algorithm.name().to_string(),
                    n,
                    m: None,
                    memory: s,
                    stats,
                    predicted,
                    lower_bound: bounds::cholesky_lower_bound(n as f64, s as f64),
                    prior_lower_bound: bounds::cholesky_lower_bound_prior(n as f64, s as f64),
                },
                seed_stats,
                stages: tuned.stages.clone(),
            },
            tuning: tuned.report,
        },
    ))
}

/// Runs the out-of-core GEMM with the configuration the cost-model search
/// picked from `space` (see [`syrk_out_of_core_autotuned`]).
#[allow(clippy::too_many_arguments)]
pub fn gemm_out_of_core_autotuned<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    alpha: T,
    s: usize,
    space: &TuningSpace,
    model: &MachineModel,
) -> Result<AutotunedRun> {
    let (n, m) = (a.rows(), a.cols());
    let p = b.cols();
    if b.rows() != m || c.rows() != n || c.cols() != p {
        return Err(OocError::Invalid(format!(
            "GEMM operand mismatch: A is {n}x{m}, B is {}x{p}, C is {}x{}",
            b.rows(),
            c.rows(),
            c.cols()
        )));
    }
    let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
    let a_id = machine.insert_dense(a.clone());
    let b_id = machine.insert_dense(b.clone());
    let c_id = machine.insert_dense(c.clone());
    let a_ref = PanelRef::dense(a_id, n, m);
    let b_ref = PanelRef::dense(b_id, m, p);
    let c_ref = PanelRef::dense(c_id, n, p);

    let tuned = tune_serial(
        |tile| {
            gemm_schedule_with_tile(&a_ref, &b_ref, &c_ref, alpha, s, tile)
                .map(|(schedule, _)| schedule)
                .map_err(|e| e.to_string())
        },
        space,
        model,
        s,
    )?;
    let winner_tile = tuned.report.best_config().tile;
    let (seed, predicted) = gemm_schedule_with_tile(&a_ref, &b_ref, &c_ref, alpha, s, winner_tile)?;
    let seed_stats = Engine::dry_run(&seed, "main");
    execute_tuned(&mut machine, &tuned)?;

    let stats = machine.stats().clone();
    *c = machine.take_dense(c_id)?;
    let bound = bounds::gemm_lower_bound(n as f64, m as f64, p as f64, s as f64);
    Ok(AutotunedRun {
        run: OptimizedRun {
            report: RunReport {
                algorithm: "OOC_GEMM(rect)".to_string(),
                n,
                m: Some(m),
                memory: s,
                stats,
                predicted,
                lower_bound: bound,
                prior_lower_bound: bound,
            },
            seed_stats,
            stages: tuned.stages.clone(),
        },
        tuning: tuned.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symla_matrix::generate::{random_matrix_seeded, random_spd_seeded};
    use symla_matrix::kernels::{cholesky_residual, syrk_sym};

    #[test]
    fn syrk_api_all_algorithms() {
        let n = 40;
        let m = 8;
        let s = 21; // k = 6
        let a: Matrix<f64> = random_matrix_seeded(n, m, 31);
        let c0 = SymMatrix::<f64>::zeros(n);
        let mut expected = c0.clone();
        syrk_sym(1.0, &a, 1.0, &mut expected).unwrap();

        for algo in [
            SyrkAlgorithm::Tbs,
            SyrkAlgorithm::TbsTiled,
            SyrkAlgorithm::SquareBlocks,
        ] {
            let mut c = c0.clone();
            let report = syrk_out_of_core(&a, &mut c, 1.0, s, algo).unwrap();
            assert!(c.approx_eq(&expected, 1e-10), "{}", algo.name());
            assert!(report.prediction_matches(), "{}", algo.name());
            assert!(report.optimality_ratio() >= 1.0, "{}", algo.name());
            assert!(report.stats.peak_resident <= s);
            assert!(report.to_string().contains(algo.name()));
        }
    }

    #[test]
    fn syrk_api_rejects_mismatched_shapes() {
        let a: Matrix<f64> = Matrix::zeros(4, 3);
        let mut c = SymMatrix::<f64>::zeros(5);
        assert!(syrk_out_of_core(&a, &mut c, 1.0, 20, SyrkAlgorithm::Tbs).is_err());
    }

    #[test]
    fn cholesky_api_all_algorithms() {
        let n = 30;
        let s = 28; // k = 7
        let a: SymMatrix<f64> = random_spd_seeded(n, 32);

        let mut loads = Vec::new();
        for algo in [
            CholeskyAlgorithm::Lbc,
            CholeskyAlgorithm::LbcTiled,
            CholeskyAlgorithm::LbcSquare,
            CholeskyAlgorithm::Bereux,
        ] {
            let (factor, report) = cholesky_out_of_core(&a, s, algo).unwrap();
            assert!(
                cholesky_residual(&a, &factor) < 1e-9,
                "{} residual too large",
                algo.name()
            );
            assert!(report.prediction_matches(), "{}", algo.name());
            assert!(report.optimality_ratio() >= 1.0, "{}", algo.name());
            assert!(report.m.is_none());
            loads.push((algo.name(), report.measured_loads()));
        }
        // all four produce the same factor; their I/O volumes differ
        assert_eq!(loads.len(), 4);
    }

    #[test]
    fn prefetched_api_overlaps_loads_and_preserves_results() {
        let n = 40;
        let m = 8;
        let s = 60;
        let a: Matrix<f64> = random_matrix_seeded(n, m, 35);
        let c0 = SymMatrix::<f64>::zeros(n);

        for algo in [
            SyrkAlgorithm::Tbs,
            SyrkAlgorithm::TbsTiled,
            SyrkAlgorithm::SquareBlocks,
        ] {
            let mut base = c0.clone();
            let plain = syrk_out_of_core(&a, &mut base, 1.0, s, algo).unwrap();
            for lookahead in [1usize, 2] {
                let mut c = c0.clone();
                let run = syrk_out_of_core_prefetched(
                    &a,
                    &mut c,
                    1.0,
                    s,
                    algo,
                    &PassPipeline::none(),
                    lookahead,
                )
                .unwrap();
                let ctx = format!("{} L={lookahead}", algo.name());
                assert!(c == base, "{ctx}: bitwise result");
                assert_eq!(run.report.stats.volume, plain.stats.volume, "{ctx}");
                assert!(run.report.stats.peak_resident <= s, "{ctx}");
                assert!(
                    run.report.stats.stalled_loads() <= plain.stats.volume.loads,
                    "{ctx}"
                );
            }
        }
        // Tiled TBS at this size has real slack: the overlap is strict.
        let mut c = c0.clone();
        let run = syrk_out_of_core_prefetched(
            &a,
            &mut c,
            1.0,
            s,
            SyrkAlgorithm::TbsTiled,
            &PassPipeline::none(),
            1,
        )
        .unwrap();
        assert!(run.report.stats.prefetched_elements > 0);

        // Optimized + prefetched still respects s (the clamp composes).
        let mut c = c0.clone();
        let run = syrk_out_of_core_prefetched(
            &a,
            &mut c,
            1.0,
            s,
            SyrkAlgorithm::TbsTiled,
            &PassPipeline::locality(Some(4 * s)),
            2,
        )
        .unwrap();
        assert!(run.report.stats.peak_resident <= s);
        let mut base = c0.clone();
        syrk_out_of_core(&a, &mut base, 1.0, s, SyrkAlgorithm::TbsTiled).unwrap();
        assert!(c == base, "optimized+prefetched result must not drift");
    }

    #[test]
    fn prefetched_cholesky_is_bitwise_stable() {
        let n = 30;
        let s = 28;
        let a: SymMatrix<f64> = random_spd_seeded(n, 36);
        for algo in [CholeskyAlgorithm::Lbc, CholeskyAlgorithm::Bereux] {
            let (base, _) = cholesky_out_of_core(&a, s, algo).unwrap();
            for lookahead in [1usize, 3] {
                let (factor, run) =
                    cholesky_out_of_core_prefetched(&a, s, algo, &PassPipeline::none(), lookahead)
                        .unwrap();
                let ctx = format!("{} L={lookahead}", algo.name());
                assert!(factor == base, "{ctx}");
                assert!(run.report.stats.peak_resident <= s, "{ctx}");
            }
        }
    }

    #[test]
    fn gemm_api_matches_reference_and_is_prefetch_stable() {
        use symla_matrix::kernels::gemm;
        let (n, m, p, s) = (18usize, 7usize, 13usize, 30usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 41);
        let b: Matrix<f64> = random_matrix_seeded(m, p, 42);
        let c0: Matrix<f64> = random_matrix_seeded(n, p, 43);
        let mut expected = c0.clone();
        gemm(0.75, &a, &b, 1.0, &mut expected).unwrap();

        let mut base = c0.clone();
        let report = gemm_out_of_core(&a, &b, &mut base, 0.75, s).unwrap();
        assert!(base.approx_eq(&expected, 1e-12));
        assert!(report.prediction_matches());
        assert!(report.optimality_ratio() >= 1.0);
        assert!(report.stats.peak_resident <= s);
        assert_eq!(report.m, Some(m));

        // Optimized and prefetched variants change I/O, never the bytes.
        for (pipeline, lookahead) in [
            (PassPipeline::standard(), 0usize),
            (PassPipeline::none(), 1),
            (PassPipeline::standard(), 2),
        ] {
            let mut c = c0.clone();
            let run =
                gemm_out_of_core_prefetched(&a, &b, &mut c, 0.75, s, &pipeline, lookahead).unwrap();
            assert!(c == base, "pipeline {pipeline:?} L={lookahead}");
            assert!(run.report.stats.peak_resident <= s);
            assert!(run.loads_saved() >= 0);
        }

        // Shape mismatches are rejected up front.
        let mut bad = Matrix::<f64>::zeros(n, p + 1);
        assert!(gemm_out_of_core(&a, &b, &mut bad, 1.0, s).is_err());
    }

    #[test]
    fn autotuned_syrk_matches_plain_and_beats_standard_model() {
        let (n, m, s) = (40usize, 8usize, 60usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 61);
        let c0 = SymMatrix::<f64>::zeros(n);
        let model = MachineModel::nvme();

        for algo in [
            SyrkAlgorithm::Tbs,
            SyrkAlgorithm::TbsTiled,
            SyrkAlgorithm::SquareBlocks,
        ] {
            let mut base = c0.clone();
            syrk_out_of_core(&a, &mut base, 1.0, s, algo).unwrap();

            let space = syrk_tuning_space(n, s, algo);
            let mut c = c0.clone();
            let run = syrk_out_of_core_autotuned(&a, &mut c, 1.0, s, algo, &space, &model).unwrap();
            let ctx = algo.name();
            assert!(c == base, "{ctx}: autotuned result must be bitwise-equal");
            assert!(run.run.report.stats.peak_resident <= s, "{ctx}");
            assert!(run.run.seed_prediction_matches(), "{ctx}");
            // The measured replay is exactly what the search scored.
            assert_eq!(run.run.report.stats, run.tuning.winner().stats, "{ctx}");
            // The standard pipeline at lookahead 0 is in the space; the
            // winner must model at most its time.
            let standard_l0 = run
                .tuning
                .candidates
                .iter()
                .find(|cand| {
                    cand.config.tile.is_none()
                        && cand.config.pipeline == PassPipeline::standard()
                        && cand.config.lookahead == 0
                })
                .unwrap_or_else(|| panic!("{ctx}: standard@L0 candidate missing"));
            assert!(
                run.tuning.winner().modelled_ns <= standard_l0.modelled_ns,
                "{ctx}"
            );
            assert!(run.tuning.winner().gap_to_bound.unwrap() >= 0.9, "{ctx}");
        }
    }

    #[test]
    fn autotuned_cholesky_and_gemm_match_plain() {
        let model = MachineModel::dram();

        let (n, s) = (30usize, 28usize);
        let a: SymMatrix<f64> = random_spd_seeded(n, 62);
        for algo in [CholeskyAlgorithm::Lbc, CholeskyAlgorithm::Bereux] {
            let (base, _) = cholesky_out_of_core(&a, s, algo).unwrap();
            let space = cholesky_tuning_space(n, s, algo);
            let (factor, run) =
                cholesky_out_of_core_autotuned(&a, s, algo, &space, &model).unwrap();
            assert!(factor == base, "{}: bitwise factor", algo.name());
            assert_eq!(run.run.report.stats, run.tuning.winner().stats);
        }

        let (n, m, p, s) = (18usize, 7usize, 13usize, 30usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 63);
        let b: Matrix<f64> = random_matrix_seeded(m, p, 64);
        let c0: Matrix<f64> = random_matrix_seeded(n, p, 65);
        let mut base = c0.clone();
        gemm_out_of_core(&a, &b, &mut base, 0.75, s).unwrap();
        let space = gemm_tuning_space(s);
        let mut c = c0.clone();
        let run = gemm_out_of_core_autotuned(&a, &b, &mut c, 0.75, s, &space, &model).unwrap();
        assert!(c == base, "GEMM: bitwise result");
        assert_eq!(run.run.report.stats, run.tuning.winner().stats);
    }

    #[test]
    fn autotuned_rejects_parallel_worker_axis() {
        let a: Matrix<f64> = random_matrix_seeded(20, 4, 66);
        let mut c = SymMatrix::<f64>::zeros(20);
        let space = syrk_tuning_space(20, 30, SyrkAlgorithm::SquareBlocks).with_workers(vec![1, 2]);
        let err = syrk_out_of_core_autotuned(
            &a,
            &mut c,
            1.0,
            30,
            SyrkAlgorithm::SquareBlocks,
            &space,
            &MachineModel::dram(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("workers"));
    }

    #[test]
    fn report_normalized_constant_is_sane() {
        // For the square-block baseline on a comfortably engaged size, the
        // normalized constant is near 1 (N^2 M / sqrt(S) loads) plus the C
        // term.
        let n = 60;
        let m = 30;
        let s = 99;
        let a: Matrix<f64> = random_matrix_seeded(n, m, 33);
        let mut c = SymMatrix::<f64>::zeros(n);
        let report = syrk_out_of_core(&a, &mut c, 1.0, s, SyrkAlgorithm::SquareBlocks).unwrap();
        let constant = report.normalized_constant();
        // N^2/2 loads of C add m^{-1} * sqrt(S)/2 ~ 0.17 to the constant 1.
        assert!(constant > 0.9 && constant < 1.5, "constant {constant}");
    }
}
