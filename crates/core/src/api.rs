//! High-level entry points: run a kernel out of core with a chosen schedule
//! and get back the result plus a full I/O report.
//!
//! Each kernel has one entry point — [`syrk_out_of_core_with`],
//! [`cholesky_out_of_core_with`] and [`gemm_out_of_core_with`] — taking the
//! operands, the fast-memory capacity `S`, the algorithm and one
//! [`RunOptions`], and returning one [`Run`]. The options combine freely: a
//! pass pipeline, a prefetch lookahead, a timing model (priced replay), a
//! trace recorder (instrumented replay), a tuning space (the autotuner picks
//! tile, pipeline and lookahead), a [`PlanService`] (the plan comes from
//! the content-addressed cache) and a worker count (the independent task
//! groups of a SYRK or GEMM plan replay on `P` workers of a shared slow
//! memory). All three share one private path: compile the plan, replay it,
//! fill the `Run`. [`syrk_out_of_core`],
//! [`cholesky_out_of_core`] and [`gemm_out_of_core`] are that path with the
//! default options:
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
use crate::engine::{Engine, Schedule};
use crate::lbc::{lbc_cost, lbc_schedule};
use crate::passes::{PassPipeline, StageOutcome};
use crate::plan::{LbcPlan, TbsPlan, TrailingUpdate};
use crate::service::PlanService;
use crate::tbs::{tbs_cost, tbs_schedule};
use std::fmt;
use symla_baselines::error::{OocError, Result};
use symla_baselines::params::IoEstimate;
use symla_baselines::{
    ooc_chol_cost, ooc_chol_schedule, ooc_gemm_cost, ooc_gemm_schedule, ooc_syrk_cost,
    ooc_syrk_schedule, OocCholPlan, OocGemmPlan, OocSyrkPlan,
};
use symla_matrix::{LowerTriangular, Matrix, Scalar, SymMatrix};
use symla_memory::{
    IoStats, LatencyMachine, MachineConfig, MachineModel, MatrixId, MemoryError, OocMachine,
    PanelRef, SharedSlowMemory, SymWindowRef, TimeStats,
};
use symla_obs::{InstrumentedMachine, RunTrace, TraceRecorder};
use symla_plancache::PlanSource;
use symla_sched::autotune::{Tuner, TuningReport, TuningSpace};
use symla_sched::timing::modelled_time_planned;
use symla_sched::{EngineConfig, PrefetchPlan, WorkerRun};

/// Out-of-core SYRK schedules exposed by the high-level API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyrkAlgorithm {
    /// The paper's element-level TBS (Algorithm 4): [`TbsPlan::for_memory`],
    /// `b = 1`.
    Tbs,
    /// The paper's tiled TBS (Section 5.1.4): the same builder as
    /// [`SyrkAlgorithm::Tbs`], with `(k, b)` from [`TbsPlan::for_problem`].
    /// A choice that lands on `b = 1` emits the element schedule.
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
    /// updates, at the panel width of [`LbcPlan::for_problem`]: the one its
    /// exact cost model prefers, a single panel (OOC_CHOL of the whole
    /// matrix) when the matrix is small against the memory.
    Lbc,
    /// LBC with tiled-TBS trailing updates: the same builder as
    /// [`CholeskyAlgorithm::Lbc`], with each trailing update's `(k, b)` from
    /// [`TbsPlan::for_problem`] (see [`TrailingUpdate::TbsTiled`]).
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
    /// Analytic prediction of the seed schedule (must agree exactly when
    /// no pass changed it). All zero when no cost model applies — see
    /// [`Run::predicted`].
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

/// Wall-clock view of one priced run under a [`MachineModel`]: the time a
/// [`LatencyMachine`] (or an [`InstrumentedMachine`]) accumulated while the
/// schedule really executed (`measured`) next to the prediction of
/// [`modelled_time_planned`] (`modelled`), which replays the same plan on a
/// data-less machine.
///
/// The two are the same replay through the same clock and must agree
/// **bitwise** — [`WallClock::consistent`] is the cheap self-check the
/// benchmarks gate on. `measured` is still *modelled* nanoseconds (the
/// machine is simulated); real elapsed time is the benchmark harness's job.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock {
    /// Time accumulated by the priced machine during the execution.
    pub measured: TimeStats,
    /// Time predicted by [`modelled_time_planned`] from the plan alone.
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

/// Where a served run's plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Compiled by this call, a memory or disk hit, or coalesced.
    pub source: PlanSource,
    /// The cache's content hash for the plan key.
    pub key_hash: u64,
}

/// Outcome of one out-of-core run: the [`RunReport`] plus the sections the
/// [`RunOptions`] asked for.
///
/// A plan from the cache carries only its schedule and prefetch plan, so a
/// served run reports no pass stages and no tuning report, and a served
/// tuned run no analytic prediction (the cache keeps no winning tile).
#[derive(Debug, Clone)]
pub struct Run {
    /// The run report; `report.stats` is the measured execution.
    pub report: RunReport,
    /// Per-pass accounting of the passes this call ran (empty when none
    /// ran or the plan came from the cache).
    pub stages: Vec<StageOutcome>,
    /// Measured-vs-modelled wall clock of a priced or traced serial run.
    pub clock: Option<WallClock>,
    /// The event trace of a traced run (drained from the recorder).
    pub trace: Option<RunTrace>,
    /// The search that picked a tuned plan compiled by this call.
    pub tuning: Option<TuningReport>,
    /// Plan source and key hash of a run served through a [`PlanService`].
    pub served: Option<Served>,
    /// Per-worker accounting of a parallel run (empty when serial):
    /// `report.stats` is their [`WorkerRun::merged_stats`].
    pub workers: Vec<WorkerRun>,
    predicted: bool,
}

impl Run {
    /// The analytic prediction, absent for a tuned plan served from the
    /// cache (`report.predicted` is then zero).
    pub fn predicted(&self) -> Option<&IoEstimate> {
        self.predicted.then_some(&self.report.predicted)
    }

    /// Dry-run statistics of the seed schedule: the first pass stage's
    /// input. `None` when no pass stage is recorded.
    pub fn seed_stats(&self) -> Option<&IoStats> {
        self.stages.first().map(|stage| &stage.before)
    }

    /// Load volume saved by the pipeline (elements; 0 without stages).
    pub fn loads_saved(&self) -> i64 {
        self.seed_stats().map_or(0, |seed| {
            seed.volume.loads as i64 - self.report.stats.volume.loads as i64
        })
    }

    /// Transfer events (loads + stores) saved by the pipeline.
    pub fn events_saved(&self) -> i64 {
        let events = |s: &IoStats| (s.load_events + s.store_events) as i64;
        self.seed_stats()
            .map_or(0, |seed| events(seed) - events(&self.report.stats))
    }

    /// Whether the analytic cost model matches the seed schedule exactly:
    /// the seed stats when passes ran, the measured volumes otherwise
    /// (prefetch never changes volumes). `false` without a prediction.
    pub fn seed_prediction_matches(&self) -> bool {
        let seed = self.seed_stats().unwrap_or(&self.report.stats);
        self.predicted().is_some_and(|p| {
            p.loads == seed.volume.loads as u128 && p.stores == seed.volume.stores as u128
        })
    }

    /// The run as machine-readable metrics: the engine's [`IoStats`] under
    /// `engine.*`, both sides of the clock under `time.measured.*` /
    /// `time.modelled.*`, a `plan.source.<source>` marker counter and the
    /// tuning run under `autotune.*` — each when the run has it. The
    /// aggregate counters equal the engine's own accounting exactly.
    pub fn metrics(&self, label: impl Into<String>) -> symla_obs::RunReport {
        let mut metrics = symla_obs::RunReport::new(label);
        let registry = &mut metrics.registry;
        registry.record_io_stats("engine", &self.report.stats);
        if let Some(clock) = &self.clock {
            registry.record_time_stats("time.measured", &clock.measured);
            registry.record_time_stats("time.modelled", &clock.modelled);
        }
        if let Some(served) = &self.served {
            let source = format!("{:?}", served.source).to_lowercase();
            registry.counter_add(&format!("plan.source.{source}"), 1);
        }
        if let Some(tuning) = &self.tuning {
            tuning.export_metrics("autotune", registry);
        }
        metrics
    }
}

/// The trace and clock of a `*_out_of_core_traced` call.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Every observable event of the replay (group spans, transfers,
    /// kernels, prefetch issue→delivery pairs), double-stamped with the
    /// real clock and the modelled timeline — export with
    /// [`RunTrace::to_chrome_trace`](symla_obs::RunTrace::to_chrome_trace).
    pub trace: RunTrace,
    /// Measured-vs-modelled wall clock, bitwise-consistent.
    pub clock: WallClock,
}

impl TracedRun {
    /// Moves a traced run's trace and clock out of `run`.
    fn split(mut run: Run) -> (Run, TracedRun) {
        let trace = run.trace.take().unwrap_or_default();
        let clock = run.clock.take().unwrap_or_default();
        (run, TracedRun { trace, clock })
    }
}

/// How one out-of-core run is planned, replayed and observed. The default
/// is the plain run: no passes, no prefetch, an unobserved machine, the
/// planner-default tile and a plan built for this call.
///
/// ```
/// use symla_core::api::{syrk_out_of_core_with, RunOptions, SyrkAlgorithm};
/// use symla_core::passes::PassPipeline;
/// use symla_core::PlanService;
/// use symla_matrix::{generate, SymMatrix};
/// use symla_memory::MachineModel;
/// use symla_obs::TraceRecorder;
///
/// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
/// let (model, recorder, service) = (MachineModel::nvme(), TraceRecorder::new(), PlanService::in_memory());
/// // Optimized, prefetched, traced and cached in one call.
/// let options = RunOptions::new()
///     .pipeline(PassPipeline::standard())
///     .lookahead(1)
///     .traced(&model, &recorder)
///     .cached(&service);
/// let mut c = SymMatrix::zeros(40);
/// let run = syrk_out_of_core_with(&a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &options).unwrap();
/// assert!(run.clock.unwrap().consistent());
/// assert!(run.trace.unwrap().len() > 0);
/// assert!(run.served.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct RunOptions<'a, T: Scalar> {
    pub(crate) pipeline: PassPipeline,
    pub(crate) lookahead: usize,
    pub(crate) model: Option<&'a MachineModel>,
    pub(crate) recorder: Option<&'a TraceRecorder>,
    pub(crate) tuning: Option<(&'a TuningSpace, &'a MachineModel)>,
    pub(crate) service: Option<&'a PlanService<T>>,
    pub(crate) workers: usize,
}

impl<T: Scalar> Default for RunOptions<'_, T> {
    fn default() -> Self {
        Self {
            pipeline: PassPipeline::none(),
            lookahead: 0,
            model: None,
            recorder: None,
            tuning: None,
            service: None,
            workers: 1,
        }
    }
}

impl<'a, T: Scalar> RunOptions<'a, T> {
    /// The plain run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Optimizes the seed schedule with `pipeline` before the replay; the
    /// report's stats then measure the optimized execution. A pipeline
    /// residency budget larger than `S` is clamped to `S`, so the optimized
    /// schedule always executes within the fast memory the caller asked
    /// for.
    ///
    /// ```
    /// use symla_core::api::{syrk_out_of_core_with, RunOptions, SyrkAlgorithm};
    /// use symla_core::passes::PassPipeline;
    /// use symla_matrix::{generate, SymMatrix};
    ///
    /// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
    /// let mut c = SymMatrix::zeros(40);
    /// let options = RunOptions::new().pipeline(PassPipeline::standard());
    /// let run = syrk_out_of_core_with(&a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &options)
    ///     .unwrap();
    /// assert!(run.seed_prediction_matches());
    /// assert!(run.events_saved() > 0); // coalesced contiguous loads
    /// assert!(run.loads_saved() >= 0);
    /// ```
    pub fn pipeline(mut self, pipeline: PassPipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Replays with a prefetch lookahead of `lookahead` task groups (0 =
    /// plain serial replay): while one group computes, the engine issues
    /// the loads of up to `lookahead` future groups into the capacity slack
    /// the (optimized) schedule leaves free — slack is taken from the
    /// schedule the passes produced, never assumed — so the stalled-load
    /// volume shrinks whenever the slack admits any overlap (see
    /// [`IoStats::stalled_loads`]). The prefetch planner's freshness rule
    /// keeps any load of a region still pending a write at its original
    /// program point, so results are bitwise-identical at every lookahead
    /// and the peak residency still respects `S`.
    ///
    /// ```
    /// use symla_core::api::{syrk_out_of_core_with, RunOptions, SyrkAlgorithm};
    /// use symla_matrix::{generate, SymMatrix};
    ///
    /// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
    /// let mut c = SymMatrix::zeros(40);
    /// let options = RunOptions::new().lookahead(1);
    /// let run = syrk_out_of_core_with(&a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &options)
    ///     .unwrap();
    /// // Some of the load stream overlapped the previous group's compute ...
    /// assert!(run.report.stats.prefetched_elements > 0);
    /// // ... within the same fast-memory capacity.
    /// assert!(run.report.stats.peak_resident <= 60);
    /// ```
    pub fn lookahead(mut self, lookahead: usize) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Prices every transfer and flop against `model` on a
    /// [`LatencyMachine`] and reports the run's [`WallClock`]. Prefetched
    /// loads are accounted as overlapped with the issuing group's compute,
    /// so sweeping the lookahead yields a deterministic speedup curve.
    ///
    /// ```
    /// use symla_core::api::{syrk_out_of_core_with, RunOptions, SyrkAlgorithm};
    /// use symla_matrix::{generate, SymMatrix};
    /// use symla_memory::MachineModel;
    ///
    /// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
    /// let model = MachineModel::nvme();
    /// let clock = |lookahead| {
    ///     let mut c = SymMatrix::zeros(40);
    ///     let options = RunOptions::new().lookahead(lookahead).priced(&model);
    ///     let run = syrk_out_of_core_with(&a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &options);
    ///     run.unwrap().clock.unwrap()
    /// };
    /// let (serial, overlapped) = (clock(0), clock(1));
    /// assert!(serial.consistent() && overlapped.consistent());
    /// // Same transfers, but the lookahead hides loads behind compute.
    /// assert!(overlapped.measured.total_ns() < serial.measured.total_ns());
    /// ```
    pub fn priced(mut self, model: &'a MachineModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Prices the replay like [`priced`](Self::priced) on an
    /// [`InstrumentedMachine`] that records every transfer, kernel and
    /// prefetch handoff (and, when served, the cache lookup) into
    /// `recorder`. The run's trace drains the recorder, on failure too.
    /// Results, [`IoStats`] and the modelled timeline are bitwise those of
    /// the unobserved and priced runs.
    pub fn traced(mut self, model: &'a MachineModel, recorder: &'a TraceRecorder) -> Self {
        self.model = Some(model);
        self.recorder = Some(recorder);
        self
    }

    /// Replays the configuration an exhaustive cost-model search picked
    /// from `space`: tile, pass pipeline and prefetch lookahead are chosen
    /// by scoring every candidate **without executing anything** (dry-run
    /// [`IoStats`] + modelled time against `model`), then only the winner
    /// runs on the data. The search picks the pipeline and lookahead, so a
    /// tuned run sets neither, and replays serially (`workers == [1]`).
    ///
    /// ```
    /// use symla_core::api::{syrk_out_of_core_with, syrk_tuning_space, RunOptions, SyrkAlgorithm};
    /// use symla_matrix::{generate, SymMatrix};
    /// use symla_memory::MachineModel;
    ///
    /// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
    /// let mut c = SymMatrix::zeros(40);
    /// let space = syrk_tuning_space(40, 60, SyrkAlgorithm::TbsTiled);
    /// let model = MachineModel::nvme();
    /// let options = RunOptions::new().tuned(&space, &model);
    /// let run = syrk_out_of_core_with(&a, &mut c, 1.0, 60, SyrkAlgorithm::TbsTiled, &options)
    ///     .unwrap();
    /// // The measured replay is exactly what the search scored.
    /// assert_eq!(run.report.stats, run.tuning.unwrap().winner().stats);
    /// ```
    pub fn tuned(mut self, space: &'a TuningSpace, model: &'a MachineModel) -> Self {
        self.tuning = Some((space, model));
        self
    }

    /// Takes the plan from `service`'s cache, compiling it at most once per
    /// problem shape; a hit runs no pass, prefetch-planner or tuner work.
    pub fn cached(mut self, service: &'a PlanService<T>) -> Self {
        self.service = Some(service);
        self
    }

    /// Replays the plan's task groups on `workers` threads, each a private
    /// fast memory of `S` elements against one shared slow memory (the
    /// paper's parallel model; `1`, the default, is the serial replay).
    /// Groups are dealt over work-stealing deques; at a lookahead `L > 0`
    /// each worker prefetches the loads of up to `L` groups it has claimed.
    /// The result is bitwise the serial one and `report.stats` merges the
    /// workers' accounting: volumes, events, flops and phases equal the
    /// serial run's, and at lookahead 0 so does the peak (a per-group
    /// maximum). Only SYRK and GEMM plans have independent groups; a
    /// parallel run is untuned and, when observed, traced (one track per
    /// worker, no clock). Worker count and lookahead are not plan inputs:
    /// a cached parallel run shares the serial lookahead-0 plan.
    ///
    /// ```
    /// use symla_core::api::{syrk_out_of_core_with, RunOptions, SyrkAlgorithm};
    /// use symla_matrix::{generate, SymMatrix};
    ///
    /// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
    /// let (mut serial, mut parallel) = (SymMatrix::zeros(40), SymMatrix::zeros(40));
    /// let tbs = SyrkAlgorithm::Tbs;
    /// let one = syrk_out_of_core_with(&a, &mut serial, 1.0, 15, tbs, &RunOptions::new()).unwrap();
    /// let four = RunOptions::new().workers(4);
    /// let run = syrk_out_of_core_with(&a, &mut parallel, 1.0, 15, tbs, &four).unwrap();
    /// assert!(parallel == serial);
    /// assert_eq!(run.workers.len(), 4);
    /// assert_eq!(run.report.stats, one.report.stats);
    /// ```
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The lookahead a plan is compiled for: a parallel run's workers plan
    /// their own prefetches, so it takes the lookahead-0 plan.
    pub(crate) fn plan_lookahead(&self) -> usize {
        if self.workers > 1 {
            0
        } else {
            self.lookahead
        }
    }

    /// Rejects the combinations that cannot run.
    pub(crate) fn check(&self, job: &Job<T>) -> Result<()> {
        let invalid = |msg: &str| Err(OocError::Invalid(msg.into()));
        if self.workers == 0 {
            return invalid("a run needs at least one worker");
        }
        if self.workers > 1 {
            if matches!(job, Job::Cholesky { .. }) {
                return invalid(
                    "a Cholesky plan orders its groups through slow memory: one worker",
                );
            }
            if self.tuning.is_some() {
                return invalid("a tuned run replays on one worker");
            }
            if self.model.is_some() && self.recorder.is_none() {
                return invalid("a parallel run on several workers is traced, not priced");
            }
        }
        let Some((space, _)) = self.tuning else {
            return Ok(());
        };
        if self.pipeline != PassPipeline::none() || self.lookahead != 0 {
            return Err(OocError::Invalid(
                "a tuned run picks its own pass pipeline and lookahead".into(),
            ));
        }
        if space.workers.iter().any(|&w| w != 1) {
            return Err(OocError::Invalid(
                "serial autotuned entry points require workers == [1]; \
                 tune parallel partitions directly through the Tuner"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// An operand-free description of one kernel instance: everything a plan
/// is compiled from. Plans are built against [`MatrixId::synthetic`] ids
/// in operand registration order (`A`, then `B` for GEMM, then `C`), so one
/// plan replays on any machine whose operands were inserted in that order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job<T> {
    /// `C += α·A·Aᵀ` with `A` of shape `n×m`.
    Syrk {
        /// The schedule.
        algorithm: SyrkAlgorithm,
        /// Order of `C`.
        n: usize,
        /// Columns of `A`.
        m: usize,
        /// The scaling factor `α`.
        alpha: T,
        /// Fast-memory capacity in elements.
        s: usize,
    },
    /// Cholesky factorization of a symmetric matrix of order `n`.
    Cholesky {
        /// The schedule.
        algorithm: CholeskyAlgorithm,
        /// Matrix order.
        n: usize,
        /// Fast-memory capacity in elements.
        s: usize,
    },
    /// `C += α·A·B` with `A` of shape `n×m` and `B` of shape `m×p`.
    Gemm {
        /// Rows of `A` and `C`.
        n: usize,
        /// Inner dimension.
        m: usize,
        /// Columns of `B` and `C`.
        p: usize,
        /// The scaling factor `α`.
        alpha: T,
        /// Fast-memory capacity in elements.
        s: usize,
    },
}

impl<T: Scalar> Job<T> {
    /// The fast-memory capacity the job runs under.
    pub(crate) fn capacity(&self) -> usize {
        match *self {
            Job::Syrk { s, .. } | Job::Cholesky { s, .. } | Job::Gemm { s, .. } => s,
        }
    }

    /// Plans the job with the planner default (`tile = None`) or the
    /// tuner's tile override (`k` for the TBS variants, the LBC panel width,
    /// the square tile of the baselines) and returns the analytic cost plus,
    /// when `emit` is set, the schedule. An override that does not fit the
    /// capacity is an error, so the tuner skips it.
    fn build(&self, tile: Option<usize>, emit: bool) -> Result<(IoEstimate, Option<Schedule<T>>)> {
        let [x, y, z] = [0, 1, 2].map(MatrixId::synthetic);
        let fits = |what: String, need: usize, s: usize| {
            if need <= s {
                Ok(())
            } else {
                let msg = format!("{what} needs {need} elements, capacity is {s}");
                Err(OocError::Invalid(msg))
            }
        };
        Ok(match *self {
            Job::Syrk {
                algorithm,
                n,
                m,
                alpha,
                s,
            } => {
                let (a, c) = (PanelRef::dense(x, n, m), SymWindowRef::full(y, n));
                match algorithm {
                    SyrkAlgorithm::Tbs | SyrkAlgorithm::TbsTiled => {
                        let plan = tbs_plan(algorithm, n, s, tile)?;
                        let schedule = emit.then(|| tbs_schedule(&a, &c, alpha, &plan));
                        (tbs_cost(n, m, &plan)?, schedule.transpose()?)
                    }
                    SyrkAlgorithm::SquareBlocks => {
                        let plan = match tile {
                            None => OocSyrkPlan::for_memory(s)?,
                            Some(t) => OocSyrkPlan::with_tile(t)?,
                        };
                        fits(format!("square tile {}", plan.tile), plan.working_set(), s)?;
                        let schedule = emit.then(|| ooc_syrk_schedule(&a, &c, alpha, &plan));
                        (ooc_syrk_cost(n, m, &plan), schedule.transpose()?)
                    }
                }
            }
            Job::Cholesky { algorithm, n, s } => {
                let window = SymWindowRef::full(x, n);
                let trailing = match algorithm {
                    CholeskyAlgorithm::Lbc => TrailingUpdate::Tbs,
                    CholeskyAlgorithm::LbcTiled => TrailingUpdate::TbsTiled,
                    CholeskyAlgorithm::LbcSquare => TrailingUpdate::OocSyrk,
                    CholeskyAlgorithm::Bereux => {
                        let plan = match tile {
                            None => OocCholPlan::for_memory(s)?,
                            Some(t) => OocCholPlan::with_tile(t)?,
                        };
                        let schedule = emit.then(|| ooc_chol_schedule(&window, &plan));
                        return Ok((ooc_chol_cost(n, &plan), schedule));
                    }
                };
                let plan = match tile {
                    None => LbcPlan::for_problem(n, s)?,
                    Some(t) => LbcPlan::paper(n, s)?.with_block(t)?,
                };
                let plan = plan.with_trailing(trailing);
                let schedule = emit.then(|| lbc_schedule(&window, &plan));
                (lbc_cost(n, &plan)?, schedule.transpose()?)
            }
            Job::Gemm { n, m, p, alpha, s } => {
                let plan = match tile {
                    None => OocGemmPlan::for_memory(s)?,
                    Some(t) => OocGemmPlan::with_tile(t)?,
                };
                let (a, b) = (PanelRef::dense(x, n, m), PanelRef::dense(y, m, p));
                let c = PanelRef::dense(z, n, p);
                let schedule = emit.then(|| ooc_gemm_schedule(&a, &b, &c, alpha, &plan));
                (ooc_gemm_cost(n, m, p, &plan), schedule.transpose()?)
            }
        })
    }

    /// [`build`](Self::build) with the schedule.
    pub(crate) fn schedule(&self, tile: Option<usize>) -> Result<(IoEstimate, Schedule<T>)> {
        let (cost, schedule) = self.build(tile, true)?;
        Ok((
            cost,
            schedule.expect("an emitting build returns the schedule"),
        ))
    }

    /// The run report of one execution of the job.
    fn report(&self, stats: IoStats, predicted: IoEstimate) -> RunReport {
        let (algorithm, n, m, s, lower_bound, prior_lower_bound) = match *self {
            Job::Syrk {
                algorithm, n, m, s, ..
            } => {
                let (nf, mf, sf) = (n as f64, m as f64, s as f64);
                let bound = bounds::syrk_lower_bound(nf, mf, sf);
                let prior = bounds::syrk_lower_bound_prior(nf, mf, sf);
                (algorithm.name(), n, Some(m), s, bound, prior)
            }
            Job::Cholesky { algorithm, n, s } => {
                let bound = bounds::cholesky_lower_bound(n as f64, s as f64);
                let prior = bounds::cholesky_lower_bound_prior(n as f64, s as f64);
                (algorithm.name(), n, None, s, bound, prior)
            }
            // The tight GEMM bound is also the best previously known one.
            Job::Gemm { n, m, p, s, .. } => {
                let bound = bounds::gemm_lower_bound(n as f64, m as f64, p as f64, s as f64);
                ("OOC_GEMM(rect)", n, Some(m), s, bound, bound)
            }
        };
        RunReport {
            algorithm: algorithm.to_string(),
            n,
            m,
            memory: s,
            stats,
            predicted,
            lower_bound,
            prior_lower_bound,
        }
    }
}

/// What compiling a plan recorded beside the plan itself.
pub(crate) struct Notes {
    predicted: Option<IoEstimate>,
    stages: Vec<StageOutcome>,
    tuning: Option<TuningReport>,
}

/// A compiled plan: the schedule and, at a nonzero lookahead, its prefetch
/// plan — the pair the plan cache stores.
pub(crate) type Plan<T> = (Schedule<T>, Option<PrefetchPlan>);

/// Compiles `job` under `options`: the tuner's winner, or the build, the
/// pass pipeline (clamped to the capacity) and the prefetch plan.
pub(crate) fn compile<T: Scalar>(
    job: &Job<T>,
    options: &RunOptions<'_, T>,
) -> Result<(Plan<T>, Notes)> {
    let s = job.capacity();
    if let Some((space, model)) = options.tuning {
        let build = |tile| {
            job.schedule(tile)
                .map(|(_, s)| s)
                .map_err(|e| e.to_string())
        };
        let tuned = Tuner::new(model, s)
            .tune_schedules(build, space)
            .map_err(|e| OocError::Invalid(format!("autotune: {e}")))?;
        let (predicted, _) = job.build(tuned.report.best_config().tile, false)?;
        let prefetch = (!tuned.plan.is_empty()).then_some(tuned.plan);
        let notes = Notes {
            predicted: Some(predicted),
            stages: tuned.stages,
            tuning: Some(tuned.report),
        };
        return Ok(((tuned.schedule, prefetch), notes));
    }
    let (predicted, seed) = job.schedule(None)?;
    let pipeline = &options.pipeline;
    let (schedule, stages) = if pipeline.is_noop() && !pipeline.verify {
        (seed, Vec::new())
    } else {
        let clamped = pipeline
            .clone()
            .with_budget(pipeline.budget.map(|b| b.min(s)));
        let optimized = clamped
            .manager::<T>()
            .optimize(&seed, "main")
            .map_err(|e| OocError::Invalid(format!("pass pipeline: {e}")))?;
        (optimized.schedule, optimized.stages)
    };
    let lookahead = options.plan_lookahead();
    let prefetch = (lookahead > 0).then(|| PrefetchPlan::plan(&schedule, lookahead, Some(s)));
    let notes = Notes {
        predicted: Some(predicted),
        stages,
        tuning: None,
    };
    Ok(((schedule, prefetch), notes))
}

/// A serially replayed machine with its clock and its trace.
type Serial<T> = (OocMachine<T>, Option<TimeStats>, Option<RunTrace>);

/// The serial replay of a compiled plan on `machine`, bare, priced or
/// instrumented as the options ask.
fn replay_serial<T: Scalar>(
    mut machine: OocMachine<T>,
    schedule: &Schedule<T>,
    prefetch: &PrefetchPlan,
    options: &RunOptions<'_, T>,
) -> Result<Serial<T>> {
    match (options.model, options.recorder) {
        (None, _) => {
            Engine::execute_planned(&mut machine, schedule, prefetch)?;
            Ok((machine, None, None))
        }
        (Some(model), None) => {
            let mut priced = LatencyMachine::new(machine, *model);
            Engine::execute_planned(&mut priced, schedule, prefetch)?;
            let measured = priced.time();
            Ok((priced.into_inner(), Some(measured), None))
        }
        (Some(model), Some(recorder)) => {
            let mut observed = InstrumentedMachine::new(machine, *model, recorder.clone(), 0);
            let outcome = Engine::execute_planned(&mut observed, schedule, prefetch);
            // Drained on failure too: no event leaks into the next trace.
            let trace = recorder.finish();
            outcome?;
            let measured = observed.time();
            Ok((observed.into_inner(), Some(measured), Some(trace)))
        }
    }
}

/// The parallel replay of a compiled plan: its task groups on
/// `options.workers` workers of `shared`, each with a private fast memory
/// of `s` elements, traced when the options trace.
fn replay_parallel<T: Scalar>(
    shared: &SharedSlowMemory<T>,
    schedule: &Schedule<T>,
    s: usize,
    options: &RunOptions<'_, T>,
) -> Result<(Vec<WorkerRun>, Option<RunTrace>)> {
    let (workers, config) = (options.workers, MachineConfig::with_capacity(s));
    let engine = EngineConfig::with_lookahead(options.lookahead);
    let (outcome, trace) = match (options.model, options.recorder) {
        (Some(model), Some(recorder)) => {
            let outcome = Engine::execute_parallel_traced(
                shared, schedule, workers, config, "main", &engine, model, recorder,
            );
            // Drained on failure too: no event leaks into the next trace.
            (outcome, Some(recorder.finish()))
        }
        _ => {
            let outcome =
                Engine::execute_parallel_with(shared, schedule, workers, config, "main", &engine);
            (outcome, None)
        }
    };
    Ok((outcome.map_err(|e| e.error)?, trace))
}

/// The slow memory of one run: the serial machine's, or the one the
/// workers of a parallel run share.
enum Memory<T: Scalar> {
    Serial(Box<OocMachine<T>>),
    Shared(SharedSlowMemory<T>),
}

/// Where a run keeps its operands: the serial machine's slow memory or the
/// shared slow memory of a parallel run.
trait Operands<T: Scalar> {
    fn insert_dense(&mut self, m: Matrix<T>) -> MatrixId;
    fn insert_symmetric(&mut self, s: SymMatrix<T>) -> MatrixId;
    fn take_dense(&mut self, id: MatrixId) -> std::result::Result<Matrix<T>, MemoryError>;
    fn take_symmetric(&mut self, id: MatrixId) -> std::result::Result<SymMatrix<T>, MemoryError>;
}

impl<T: Scalar> Operands<T> for OocMachine<T> {
    fn insert_dense(&mut self, m: Matrix<T>) -> MatrixId {
        OocMachine::insert_dense(self, m)
    }
    fn insert_symmetric(&mut self, s: SymMatrix<T>) -> MatrixId {
        OocMachine::insert_symmetric(self, s)
    }
    fn take_dense(&mut self, id: MatrixId) -> std::result::Result<Matrix<T>, MemoryError> {
        OocMachine::take_dense(self, id)
    }
    fn take_symmetric(&mut self, id: MatrixId) -> std::result::Result<SymMatrix<T>, MemoryError> {
        OocMachine::take_symmetric(self, id)
    }
}

impl<T: Scalar> Operands<T> for SharedSlowMemory<T> {
    fn insert_dense(&mut self, m: Matrix<T>) -> MatrixId {
        SharedSlowMemory::insert_dense(self, m)
    }
    fn insert_symmetric(&mut self, s: SymMatrix<T>) -> MatrixId {
        SharedSlowMemory::insert_symmetric(self, s)
    }
    fn take_dense(&mut self, id: MatrixId) -> std::result::Result<Matrix<T>, MemoryError> {
        SharedSlowMemory::take_dense(self, id)
    }
    fn take_symmetric(&mut self, id: MatrixId) -> std::result::Result<SymMatrix<T>, MemoryError> {
        SharedSlowMemory::take_symmetric(self, id)
    }
}

/// The path behind every entry point: register the operands in plan order
/// in a fresh slow memory (the serial machine's, or a shared one for a
/// parallel run), compile (or fetch) the plan, replay it on the bare
/// machine, its priced or instrumented wrapper or the parallel workers,
/// extract the result and fill the [`Run`].
fn run_job<T: Scalar, R>(
    job: Job<T>,
    options: &RunOptions<'_, T>,
    register: impl FnOnce(&mut dyn Operands<T>) -> Vec<MatrixId>,
    extract: impl FnOnce(&mut dyn Operands<T>) -> std::result::Result<R, MemoryError>,
) -> Result<(R, Run)> {
    options.check(&job)?;
    let s = job.capacity();
    let mut memory = if options.workers > 1 {
        Memory::Shared(SharedSlowMemory::new())
    } else {
        Memory::Serial(Box::new(OocMachine::new(MachineConfig::with_capacity(s))))
    };
    let ids = register(match &mut memory {
        Memory::Serial(machine) => machine.as_mut(),
        Memory::Shared(shared) => shared,
    });
    debug_assert!(
        (0..).zip(&ids).all(|(i, id)| *id == MatrixId::synthetic(i)),
        "operand registration order must match plan compilation"
    );
    let (built, lookup);
    let (schedule, prefetch, notes, served) = match options.service {
        None => {
            let (plan, notes) = compile(&job, options)?;
            built = plan;
            (&built.0, built.1.as_ref(), notes, None)
        }
        Some(service) => {
            // Before the lookup, which may note cache events on a trace.
            let predicted = match options.tuning {
                None => Some(job.build(None, false)?.0),
                Some(_) => None,
            };
            lookup = service.plan(&job, options)?;
            let notes = Notes {
                predicted,
                stages: Vec::new(),
                tuning: None,
            };
            let served = Served {
                source: lookup.source,
                key_hash: lookup.key_hash,
            };
            let plan = &lookup.plan;
            (plan.schedule(), plan.prefetch(), notes, Some(served))
        }
    };
    let empty = PrefetchPlan::default();
    let prefetch = prefetch.unwrap_or(&empty);
    let (stats, measured, trace, workers, result) = match memory {
        Memory::Serial(machine) => {
            let (mut machine, measured, trace) =
                replay_serial(*machine, schedule, prefetch, options)?;
            let stats = machine.stats().clone();
            (stats, measured, trace, Vec::new(), extract(&mut machine)?)
        }
        Memory::Shared(mut shared) => {
            let (workers, trace) = replay_parallel(&shared, schedule, s, options)?;
            let stats = WorkerRun::merged_stats(&workers);
            (stats, None, trace, workers, extract(&mut shared)?)
        }
    };
    let clock = match (measured, options.model) {
        (Some(measured), Some(model)) => Some(WallClock {
            measured,
            modelled: modelled_time_planned(schedule, model, prefetch)?,
        }),
        _ => None,
    };
    let run = Run {
        report: job.report(stats, notes.predicted.unwrap_or_default()),
        stages: notes.stages,
        clock,
        trace,
        tuning: notes.tuning,
        served,
        workers,
        predicted: notes.predicted.is_some(),
    };
    Ok((result, run))
}

/// Runs an out-of-core SYRK (`C += alpha·A·Aᵀ`) with the requested schedule
/// under a fast memory of `s` elements and the given options, updating `c`
/// in place. Every option combination is bitwise-identical in `c`.
pub fn syrk_out_of_core_with<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    s: usize,
    algorithm: SyrkAlgorithm,
    options: &RunOptions<'_, T>,
) -> Result<Run> {
    let (n, m) = (c.order(), a.cols());
    if a.rows() != n {
        return Err(OocError::Invalid(format!(
            "SYRK operand mismatch: A is {}x{m} but C has order {n}",
            a.rows()
        )));
    }
    let job = Job::Syrk {
        algorithm,
        n,
        m,
        alpha,
        s,
    };
    let register = |slow: &mut dyn Operands<T>| {
        vec![
            slow.insert_dense(a.clone()),
            slow.insert_symmetric(c.clone()),
        ]
    };
    let extract = |slow: &mut dyn Operands<T>| slow.take_symmetric(MatrixId::synthetic(1));
    let (result, run) = run_job(job, options, register, extract)?;
    *c = result;
    Ok(run)
}

/// Runs an out-of-core Cholesky factorization of `a` with the requested
/// schedule under a fast memory of `s` elements and the given options,
/// returning the factor.
pub fn cholesky_out_of_core_with<T: Scalar>(
    a: &SymMatrix<T>,
    s: usize,
    algorithm: CholeskyAlgorithm,
    options: &RunOptions<'_, T>,
) -> Result<(LowerTriangular<T>, Run)> {
    let n = a.order();
    let job = Job::Cholesky { algorithm, n, s };
    let register = |slow: &mut dyn Operands<T>| vec![slow.insert_symmetric(a.clone())];
    let extract = |slow: &mut dyn Operands<T>| {
        let result = slow.take_symmetric(MatrixId::synthetic(0))?;
        Ok(LowerTriangular::from_lower_fn(n, |i, j| result.get(i, j)))
    };
    run_job(job, options, register, extract)
}

/// Runs the square-block out-of-core GEMM (`C += alpha·A·B`, `A` `n×m`, `B`
/// `m×p`) under a fast memory of `s` elements and the given options,
/// updating `c` in place — the non-symmetric comparison point of the paper.
///
/// The report's `lower_bound` is the tight GEMM bound `2·n·m·p/√S` (also
/// the best previously known one, so `prior_lower_bound` equals it); the
/// `m` field holds the inner dimension, so
/// [`RunReport::normalized_constant`] (which assumes an `n²m` flop count)
/// is only meaningful when `p = n`.
pub fn gemm_out_of_core_with<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    alpha: T,
    s: usize,
    options: &RunOptions<'_, T>,
) -> Result<Run> {
    let (n, m, p) = (a.rows(), a.cols(), b.cols());
    if b.rows() != m || c.rows() != n || c.cols() != p {
        return Err(OocError::Invalid(format!(
            "GEMM operand mismatch: A is {n}x{m}, B is {}x{p}, C is {}x{}",
            b.rows(),
            c.rows(),
            c.cols()
        )));
    }
    let job = Job::Gemm { n, m, p, alpha, s };
    let register = |slow: &mut dyn Operands<T>| {
        vec![
            slow.insert_dense(a.clone()),
            slow.insert_dense(b.clone()),
            slow.insert_dense(c.clone()),
        ]
    };
    let extract = |slow: &mut dyn Operands<T>| slow.take_dense(MatrixId::synthetic(2));
    let (result, run) = run_job(job, options, register, extract)?;
    *c = result;
    Ok(run)
}

/// [`syrk_out_of_core_with`] with the default options, returning the run
/// report.
pub fn syrk_out_of_core<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    s: usize,
    algorithm: SyrkAlgorithm,
) -> Result<RunReport> {
    syrk_out_of_core_with(a, c, alpha, s, algorithm, &RunOptions::new()).map(|run| run.report)
}

/// [`cholesky_out_of_core_with`] with the default options, returning the
/// factor and the run report.
pub fn cholesky_out_of_core<T: Scalar>(
    a: &SymMatrix<T>,
    s: usize,
    algorithm: CholeskyAlgorithm,
) -> Result<(LowerTriangular<T>, RunReport)> {
    cholesky_out_of_core_with(a, s, algorithm, &RunOptions::new())
        .map(|(factor, run)| (factor, run.report))
}

/// [`gemm_out_of_core_with`] with the default options, returning the run
/// report.
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
    gemm_out_of_core_with(a, b, c, alpha, s, &RunOptions::new()).map(|run| run.report)
}

/// [`syrk_out_of_core_with`] traced (see [`RunOptions::traced`]) at the
/// given pipeline and lookahead, with the trace and clock moved into the
/// returned [`TracedRun`].
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
) -> Result<(Run, TracedRun)> {
    let options = RunOptions::new()
        .pipeline(pipeline.clone())
        .lookahead(lookahead)
        .traced(model, recorder);
    syrk_out_of_core_with(a, c, alpha, s, algorithm, &options).map(TracedRun::split)
}

/// [`cholesky_out_of_core_with`] traced (see [`syrk_out_of_core_traced`]):
/// returns the factor, the run and its [`TracedRun`].
pub fn cholesky_out_of_core_traced<T: Scalar>(
    a: &SymMatrix<T>,
    s: usize,
    algorithm: CholeskyAlgorithm,
    pipeline: &PassPipeline,
    lookahead: usize,
    model: &MachineModel,
    recorder: &TraceRecorder,
) -> Result<(LowerTriangular<T>, Run, TracedRun)> {
    let options = RunOptions::new()
        .pipeline(pipeline.clone())
        .lookahead(lookahead)
        .traced(model, recorder);
    let (factor, run) = cholesky_out_of_core_with(a, s, algorithm, &options)?;
    let (run, traced) = TracedRun::split(run);
    Ok((factor, run, traced))
}

// ---------------------------------------------------------------------------
// Default tuning spaces
// ---------------------------------------------------------------------------

/// Pushes `tile` unless it is already present (candidate lists stay short
/// and deterministic).
fn push_tile(tiles: &mut Vec<Option<usize>>, tile: Option<usize>) {
    if !tiles.contains(&tile) {
        tiles.push(tile);
    }
}

/// A space over `tiles` and the stock axes every default space shares: no
/// passes, the standard pipeline and locality reordering budgeted at the
/// capacity; lookaheads 0–2; serial replay.
fn default_space(tiles: Vec<Option<usize>>, s: usize) -> TuningSpace {
    TuningSpace::minimal()
        .with_tiles(tiles)
        .with_pipelines(vec![
            PassPipeline::none(),
            PassPipeline::standard(),
            PassPipeline::locality(Some(s)),
        ])
        .with_lookaheads(vec![0, 1, 2])
}

/// The planner-default tile plus `3t/4` and `t/2` of the square tile `t`
/// that fits `s`.
fn square_tiles(s: usize) -> Vec<Option<usize>> {
    let mut tiles = vec![None];
    if let Ok(t) = symla_baselines::params::square_tile_for_capacity(s) {
        push_tile(&mut tiles, Some((3 * t / 4).max(1)));
        push_tile(&mut tiles, Some((t / 2).max(1)));
    }
    tiles
}

/// The default [`TuningSpace`] of a SYRK instance: the planner-default tile
/// plus neighbours of the algorithm's natural parameter (`k` for the TBS
/// variants, the square block side for the baseline), the stock pipelines,
/// lookaheads 0–2, serial replay. Always contains the
/// (`None`, [`PassPipeline::standard`], lookahead 0) point, so the tuned
/// winner is never worse than the standard optimized run in modelled time.
pub fn syrk_tuning_space(n: usize, s: usize, algorithm: SyrkAlgorithm) -> TuningSpace {
    if algorithm == SyrkAlgorithm::SquareBlocks {
        return default_space(square_tiles(s), s);
    }
    let mut tiles = vec![None];
    if let Ok(TbsPlan { k, .. }) = tbs_plan(algorithm, n, s, None) {
        let neighbours = match algorithm {
            SyrkAlgorithm::TbsTiled => [k + 1, k.saturating_sub(1).max(2)],
            _ => [k.saturating_sub(1).max(2), (k / 2).max(2)],
        };
        for k in neighbours {
            push_tile(&mut tiles, Some(k));
        }
    }
    default_space(tiles, s)
}

/// The [`TbsPlan`] of a TBS-variant SYRK job of order `n` under capacity
/// `s`: the variant's planner default, or the tuner's `k` with the largest
/// tile that fits for tiled TBS (`b = 1` for element TBS). A `k` that does
/// not fit the capacity is an error.
fn tbs_plan(algorithm: SyrkAlgorithm, n: usize, s: usize, k: Option<usize>) -> Result<TbsPlan> {
    let tiled = algorithm == SyrkAlgorithm::TbsTiled;
    match k {
        None if tiled => TbsPlan::for_problem(s, n),
        None => TbsPlan::for_memory(s),
        Some(k) => {
            let b = TbsPlan::max_tile_for(k, s).ok_or_else(|| {
                OocError::Invalid(format!("no TBS tile fits k = {k} in capacity {s}"))
            })?;
            let b = if tiled { b } else { 1 };
            Ok(TbsPlan { k, b, capacity: s })
        }
    }
}

/// The default [`TuningSpace`] of a Cholesky instance; see
/// [`syrk_tuning_space`].
///
/// The LBC variants keep the planner-default panel width: changing the
/// panel width changes the *order* the factor's partial sums accumulate in,
/// so the result would no longer be bitwise-identical to the other option
/// combinations (the invariant the differential tests and the `ab_autotune`
/// gate hold every run to). The Béreux baseline's square tile only
/// re-chunks each element's ascending-`k` accumulation chain, which leaves
/// the bytes unchanged, so its tile axis is searchable. Callers who accept
/// numerically-different-but-valid factors can still pass a custom space
/// with LBC panel-width candidates.
pub fn cholesky_tuning_space(_n: usize, s: usize, algorithm: CholeskyAlgorithm) -> TuningSpace {
    let tiles = match algorithm {
        CholeskyAlgorithm::Bereux => square_tiles(s),
        _ => vec![None],
    };
    default_space(tiles, s)
}

/// The default [`TuningSpace`] of a GEMM instance; see
/// [`syrk_tuning_space`].
pub fn gemm_tuning_space(s: usize) -> TuningSpace {
    default_space(square_tiles(s), s)
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

    /// `syrk_out_of_core_with` at a pipeline and lookahead.
    fn syrk_at(
        a: &Matrix<f64>,
        c: &mut SymMatrix<f64>,
        s: usize,
        algo: SyrkAlgorithm,
        pipeline: PassPipeline,
        lookahead: usize,
    ) -> Run {
        let options = RunOptions::new().pipeline(pipeline).lookahead(lookahead);
        syrk_out_of_core_with(a, c, 1.0, s, algo, &options).unwrap()
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
                let run = syrk_at(&a, &mut c, s, algo, PassPipeline::none(), lookahead);
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
        let run = syrk_at(
            &a,
            &mut c,
            s,
            SyrkAlgorithm::TbsTiled,
            PassPipeline::none(),
            1,
        );
        assert!(run.report.stats.prefetched_elements > 0);

        // Optimized + prefetched still respects s (the clamp composes).
        let mut c = c0.clone();
        let run = syrk_at(
            &a,
            &mut c,
            s,
            SyrkAlgorithm::TbsTiled,
            PassPipeline::locality(Some(4 * s)),
            2,
        );
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
                let options = RunOptions::new().lookahead(lookahead);
                let (factor, run) = cholesky_out_of_core_with(&a, s, algo, &options).unwrap();
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
            let options = RunOptions::new()
                .pipeline(pipeline.clone())
                .lookahead(lookahead);
            let run = gemm_out_of_core_with(&a, &b, &mut c, 0.75, s, &options).unwrap();
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
            let options = RunOptions::new().tuned(&space, &model);
            let run = syrk_out_of_core_with(&a, &mut c, 1.0, s, algo, &options).unwrap();
            let tuning = run.tuning.as_ref().unwrap();
            let ctx = algo.name();
            assert!(c == base, "{ctx}: autotuned result must be bitwise-equal");
            assert!(run.report.stats.peak_resident <= s, "{ctx}");
            assert!(run.seed_prediction_matches(), "{ctx}");
            // The measured replay is exactly what the search scored.
            assert_eq!(run.report.stats, tuning.winner().stats, "{ctx}");
            // The standard pipeline at lookahead 0 is in the space; the
            // winner must model at most its time.
            let standard_l0 = tuning
                .candidates
                .iter()
                .find(|cand| {
                    cand.config.tile.is_none()
                        && cand.config.pipeline == PassPipeline::standard()
                        && cand.config.lookahead == 0
                })
                .unwrap_or_else(|| panic!("{ctx}: standard@L0 candidate missing"));
            assert!(
                tuning.winner().modelled_ns <= standard_l0.modelled_ns,
                "{ctx}"
            );
            assert!(tuning.winner().gap_to_bound.unwrap() >= 0.9, "{ctx}");
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
            let options = RunOptions::new().tuned(&space, &model);
            let (factor, run) = cholesky_out_of_core_with(&a, s, algo, &options).unwrap();
            assert!(factor == base, "{}: bitwise factor", algo.name());
            assert_eq!(run.report.stats, run.tuning.unwrap().winner().stats);
        }

        let (n, m, p, s) = (18usize, 7usize, 13usize, 30usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 63);
        let b: Matrix<f64> = random_matrix_seeded(m, p, 64);
        let c0: Matrix<f64> = random_matrix_seeded(n, p, 65);
        let mut base = c0.clone();
        gemm_out_of_core(&a, &b, &mut base, 0.75, s).unwrap();
        let space = gemm_tuning_space(s);
        let mut c = c0.clone();
        let options = RunOptions::new().tuned(&space, &model);
        let run = gemm_out_of_core_with(&a, &b, &mut c, 0.75, s, &options).unwrap();
        assert!(c == base, "GEMM: bitwise result");
        assert_eq!(run.report.stats, run.tuning.unwrap().winner().stats);
    }

    #[test]
    fn autotuned_rejects_parallel_worker_axis() {
        let a: Matrix<f64> = random_matrix_seeded(20, 4, 66);
        let mut c = SymMatrix::<f64>::zeros(20);
        let space = syrk_tuning_space(20, 30, SyrkAlgorithm::SquareBlocks).with_workers(vec![1, 2]);
        let model = MachineModel::dram();
        let options = RunOptions::new().tuned(&space, &model);
        let err = syrk_out_of_core_with(&a, &mut c, 1.0, 30, SyrkAlgorithm::SquareBlocks, &options)
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
