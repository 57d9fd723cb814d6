//! Cost-model-driven autotuning over the schedule knob space.
//!
//! The stack below this module makes every knob of an out-of-core kernel
//! *scoreable without executing anything*: a builder emits IR for a given
//! tile size, the pass layer ([`crate::passes`]) rewrites it, the prefetch
//! planner ([`crate::prefetch`]) decides the overlap, and the dry run
//! ([`Engine::dry_run_with`]) plus the bitwise-verified wall-clock model
//! ([`crate::timing::modelled_time_planned`]) price the result exactly. The
//! [`Tuner`] turns that into a search: enumerate a [`TuningSpace`]
//! (tile size × [`PassPipeline`] × prefetch lookahead × transfer level ×
//! worker count), score every candidate with dry-run [`IoStats`] and
//! modelled ns against a
//! caller-supplied [`MachineModel`], and return a machine-readable
//! [`TuningReport`] naming the winner and the gap to the paper's
//! `mults/√(S/2)` I/O lower bound for every candidate.
//!
//! ## Search shape
//!
//! The search is a **staged beam search** with a deterministic tie-break
//! (first evaluated wins; evaluation order is the cross-product order of
//! the space, tiles outermost, workers innermost):
//!
//! 1. **Tiles** — build one seed schedule per tile via the caller's builder
//!    closure; builder errors and seeds whose dry-run peak exceeds the
//!    capacity are skipped (counted in [`TuningReport::skipped`]).
//! 2. **Pipelines** — apply each [`PassPipeline`] to each surviving seed,
//!    with the residency budget clamped to the capacity (mirroring the
//!    high-level API, so the scored schedule is byte-for-byte the one a
//!    later run executes).
//! 3. **Lookahead × workers** — full scoring: prefetch plan, prefetching
//!    dry run, [`modelled_time_planned`]; worker counts above one are
//!    priced as an LPT makespan over the per-group windows of
//!    [`modelled_group_times`].
//!
//! With the default unbounded beam ([`Tuner::new`]) the stages do not prune,
//! so the search is exhaustive over the cross-product — affordable because
//! scoring is data-free — and tuning is *monotone*: enlarging the space can
//! only append candidates, so the winner's modelled ns never worsens. A
//! bounded [`Tuner::with_beam_width`] prunes stages 1–2 by a proxy score
//! (modelled ns at the first lookahead of the space) and is best-effort,
//! though still deterministic.
//!
//! ## Zero executions
//!
//! Nothing in this module moves a byte of matrix data: the only engine
//! entry points used are [`Engine::dry_run`] / [`Engine::dry_run_with`].
//! The `ab_autotune` gate asserts this by construction (tuning happens
//! before any machine exists).

use crate::engine::{Engine, EngineConfig, ParallelError, WorkerRun};
use crate::ir::Schedule;
use crate::passes::{PassPipeline, StageOutcome};
use crate::prefetch::PrefetchPlan;
use crate::timing::{modelled_group_times, modelled_time_planned};
use crate::StableHasher;
use std::fmt;
use symla_matrix::Scalar;
use symla_memory::{IoStats, Level, MachineConfig, MachineModel, SharedSlowMemory};

/// The knob space a [`Tuner`] searches: the cross-product of tile sizes,
/// pass pipelines, prefetch lookaheads and worker counts.
///
/// `tiles` entries are opaque to the tuner — `None` means "the builder's
/// own planner default" and `Some(t)` is handed to the builder closure
/// verbatim (the high-level API maps it to the algorithm's tile parameter:
/// `k` for TBS, block size for LBC, square tile for the baselines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuningSpace {
    /// Tile-size candidates; `None` = builder default.
    pub tiles: Vec<Option<usize>>,
    /// Pass-pipeline candidates.
    pub pipelines: Vec<PassPipeline>,
    /// Prefetch lookahead candidates (`0` = no prefetch).
    pub lookaheads: Vec<usize>,
    /// Transfer-level candidates: every candidate schedule is re-leveled so
    /// all its loads and stores name this tier
    /// ([`Schedule::with_transfer_level`]) and priced with the model's
    /// per-level surcharge. [`Level::default`] is the classic two-level
    /// replay.
    pub levels: Vec<Level>,
    /// Worker-count candidates (`1` = serial replay).
    pub workers: Vec<usize>,
}

impl Default for TuningSpace {
    fn default() -> Self {
        Self::minimal()
    }
}

impl TuningSpace {
    /// The smallest meaningful space: builder-default tile, the `none()`
    /// and `standard()` pipelines, lookahead 0 or 1, serial replay.
    pub fn minimal() -> Self {
        Self {
            tiles: vec![None],
            pipelines: vec![PassPipeline::none(), PassPipeline::standard()],
            lookaheads: vec![0, 1],
            levels: vec![Level::default()],
            workers: vec![1],
        }
    }

    /// Replaces the tile candidates.
    pub fn with_tiles(mut self, tiles: Vec<Option<usize>>) -> Self {
        self.tiles = tiles;
        self
    }

    /// Replaces the pipeline candidates.
    pub fn with_pipelines(mut self, pipelines: Vec<PassPipeline>) -> Self {
        self.pipelines = pipelines;
        self
    }

    /// Replaces the lookahead candidates.
    pub fn with_lookaheads(mut self, lookaheads: Vec<usize>) -> Self {
        self.lookaheads = lookaheads;
        self
    }

    /// Replaces the transfer-level candidates.
    pub fn with_levels(mut self, levels: Vec<Level>) -> Self {
        self.levels = levels;
        self
    }

    /// Replaces the worker-count candidates.
    pub fn with_workers(mut self, workers: Vec<usize>) -> Self {
        self.workers = workers;
        self
    }

    /// Number of points in the cross-product.
    pub fn len(&self) -> usize {
        self.tiles.len()
            * self.pipelines.len()
            * self.lookaheads.len()
            * self.levels.len()
            * self.workers.len()
    }

    /// Whether any axis is empty (an empty space cannot be tuned).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stable 64-bit fingerprint of the space, suitable as a plan-cache key
    /// parameter: equal spaces hash equal across processes and platforms.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.tiles.len() as u64);
        for tile in &self.tiles {
            match tile {
                None => h.write(&[0]),
                Some(t) => {
                    h.write(&[1]);
                    h.write_u64(*t as u64);
                }
            }
        }
        h.write_u64(self.pipelines.len() as u64);
        for p in &self.pipelines {
            h.write(&p.canonical_bytes());
        }
        h.write_u64(self.lookaheads.len() as u64);
        for &l in &self.lookaheads {
            h.write_u64(l as u64);
        }
        // The level axis joins the fingerprint only when it deviates from
        // the classic two-level default, so spaces predating the hierarchy
        // keep their cache keys.
        if self.levels != vec![Level::default()] {
            h.write(b"levels");
            h.write_u64(self.levels.len() as u64);
            for &l in &self.levels {
                h.write(&[l.raw()]);
            }
        }
        h.write_u64(self.workers.len() as u64);
        for &w in &self.workers {
            h.write_u64(w as u64);
        }
        h.finish()
    }
}

/// Stable 64-bit fingerprint of a [`MachineModel`]: the IEEE-754 bit
/// patterns of its four cost coefficients (plus the per-level latency
/// surcharges when any is configured), FNV-hashed. Used (with
/// [`TuningSpace::fingerprint`]) to key tuned plans in the plan cache —
/// tuning against a different machine must miss. Models without level
/// surcharges hash exactly as before the hierarchy existed, so established
/// cache keys stay valid.
pub fn model_fingerprint(model: &MachineModel) -> u64 {
    let mut h = StableHasher::new();
    for coeff in [
        model.load_ns_per_elem,
        model.store_ns_per_elem,
        model.fixed_event_ns,
        model.flop_ns,
    ] {
        h.write_u64(coeff.to_bits());
    }
    if model.level_extra_ns_per_elem.iter().any(|&e| e != 0.0) {
        h.write(b"levels");
        for e in model.level_extra_ns_per_elem {
            h.write_u64(e.to_bits());
        }
    }
    h.finish()
}

/// One point of a [`TuningSpace`]: the configuration a candidate was built
/// and scored with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunedConfig {
    /// Tile override handed to the builder (`None` = builder default).
    pub tile: Option<usize>,
    /// Pass pipeline applied to the seed schedule.
    pub pipeline: PassPipeline,
    /// Prefetch lookahead.
    pub lookahead: usize,
    /// Memory tier every transfer of the candidate was re-leveled to.
    pub level: Level,
    /// Worker count the makespan was modelled for.
    pub workers: usize,
}

/// One fully-scored candidate of a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The knob settings.
    pub config: TunedConfig,
    /// Prefetching dry-run accounting of the optimized schedule — exactly
    /// the [`IoStats`] a real replay of this configuration produces.
    pub stats: IoStats,
    /// Modelled wall-clock in ns ([`modelled_time_planned`]; LPT makespan
    /// over group windows when `config.workers > 1`).
    pub modelled_ns: f64,
    /// Measured load volume over the paper's lower bound `mults/√(S/2)`:
    /// `1.0` is optimal, `None` when the schedule performs no
    /// multiplications (no meaningful bound).
    pub gap_to_bound: Option<f64>,
}

/// Machine-readable result of one [`Tuner::tune`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningReport {
    /// Every fully-scored candidate, in deterministic evaluation order
    /// (cross-product order: tiles ▸ pipelines ▸ lookaheads ▸ levels ▸
    /// workers).
    pub candidates: Vec<Candidate>,
    /// Index into `candidates` of the winner (lowest modelled ns; ties go
    /// to the earliest evaluation).
    pub best: usize,
    /// Configurations skipped before full scoring (builder error or
    /// capacity-infeasible seed), counted as full cross-product points.
    pub skipped: usize,
    /// Beam width the search ran with (`None` = exhaustive).
    pub beam_width: Option<usize>,
    /// Fast-memory capacity (elements) the candidates were scored against.
    pub capacity: usize,
}

impl TuningReport {
    /// The winning candidate.
    pub fn winner(&self) -> &Candidate {
        &self.candidates[self.best]
    }

    /// The winning configuration.
    pub fn best_config(&self) -> &TunedConfig {
        &self.winner().config
    }

    /// Number of fully-scored candidates.
    pub fn evaluated(&self) -> usize {
        self.candidates.len()
    }

    /// Exports the tuning run into `registry` under `prefix`: counters for
    /// the candidates evaluated/skipped and the search capacity, gauges for
    /// the winner's modelled time, lookahead, workers and (when bounded)
    /// gap to the paper's lower bound, plus a histogram of every
    /// candidate's modelled ns — one namespace shared with the engine and
    /// cache metrics in a [`RunReport`](symla_obs::RunReport).
    pub fn export_metrics(&self, prefix: &str, registry: &mut symla_obs::MetricsRegistry) {
        registry.counter_add(&format!("{prefix}.candidates"), self.evaluated() as u128);
        registry.counter_add(&format!("{prefix}.skipped"), self.skipped as u128);
        registry.counter_add(&format!("{prefix}.capacity"), self.capacity as u128);
        let winner = self.winner();
        registry.gauge_set(&format!("{prefix}.best.modelled_ns"), winner.modelled_ns);
        registry.gauge_set(
            &format!("{prefix}.best.lookahead"),
            winner.config.lookahead as f64,
        );
        registry.gauge_set(
            &format!("{prefix}.best.workers"),
            winner.config.workers as f64,
        );
        if let Some(gap) = winner.gap_to_bound {
            registry.gauge_set(&format!("{prefix}.best.gap_to_bound"), gap);
        }
        for c in &self.candidates {
            registry.observe(&format!("{prefix}.modelled_ns"), c.modelled_ns);
        }
    }
}

/// Errors raised by [`Tuner::tune`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The tuning space has an empty axis.
    EmptySpace,
    /// Every configuration was skipped (builder errors or infeasible
    /// seeds); the report-to-be had no candidates.
    NoFeasibleCandidate {
        /// Number of cross-product points skipped.
        skipped: usize,
    },
    /// A pass pipeline failed on a seed schedule (pipelines are expected to
    /// be universally applicable; a failure is a bug, not a skip).
    PassFailed(String),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::EmptySpace => write!(f, "tuning space has an empty axis"),
            TuneError::NoFeasibleCandidate { skipped } => {
                write!(f, "no feasible candidate ({skipped} skipped)")
            }
            TuneError::PassFailed(msg) => write!(f, "pass pipeline failed: {msg}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// What [`Tuner::tune_schedules`] returns alongside the report: the
/// winner's ready-to-execute artifacts, so callers replay without
/// rebuilding.
#[derive(Debug, Clone)]
pub struct Tuned<T: Scalar> {
    /// The tuning report (all candidates, winner index).
    pub report: TuningReport,
    /// The winner's optimized schedule.
    pub schedule: Schedule<T>,
    /// The winner's prefetch plan (empty at lookahead 0).
    pub plan: PrefetchPlan,
    /// Per-pass outcomes of the winner's pipeline (empty for `none()`).
    pub stages: Vec<StageOutcome>,
}

impl<T: Scalar> Tuned<T> {
    /// Replays the winner end to end on `shared`, wiring the tuned
    /// configuration into
    /// [`Engine::execute_parallel_with`]: the winner's worker count drives
    /// the work-stealing replay and its lookahead the per-worker prefetch
    /// pipeline, so the run is exactly the configuration the makespan model
    /// priced. A serial winner (`workers == 1`) degenerates to a one-worker
    /// parallel run, whose accounting equals the serial replay's.
    ///
    /// The schedule must satisfy the independence contract of
    /// [`Engine::execute_parallel`] (self-contained groups, disjoint
    /// writes); the left-looking factorizations do not and must stay on
    /// [`Engine::execute`].
    pub fn execute_parallel(
        &self,
        shared: &SharedSlowMemory<T>,
        config: MachineConfig,
        default_phase: &str,
    ) -> std::result::Result<Vec<WorkerRun>, ParallelError> {
        let cfg = self.report.best_config();
        Engine::execute_parallel_with(
            shared,
            &self.schedule,
            cfg.workers.max(1),
            config,
            default_phase,
            &EngineConfig::with_lookahead(cfg.lookahead),
        )
    }
}

/// Deterministic longest-processing-time makespan: sorts jobs by
/// decreasing duration (ties by index) and greedily assigns each to the
/// least-loaded worker (ties to the lowest worker index). Returns the
/// maximum worker load. The autotuner prices `workers > 1` candidates with
/// this over the per-group windows of [`modelled_group_times`].
pub fn lpt_makespan(durations: &[f64], workers: usize) -> f64 {
    if workers <= 1 || durations.len() <= 1 {
        return durations.iter().sum();
    }
    let mut order: Vec<usize> = (0..durations.len()).collect();
    order.sort_by(|&a, &b| {
        durations[b]
            .partial_cmp(&durations[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut loads = vec![0.0_f64; workers];
    for idx in order {
        let mut target = 0usize;
        for w in 1..workers {
            if loads[w] < loads[target] {
                target = w;
            }
        }
        loads[target] += durations[idx];
    }
    loads.iter().cloned().fold(0.0, f64::max)
}

/// The beam-search autotuner: scores every point of a [`TuningSpace`]
/// against a [`MachineModel`] using only dry runs and the wall-clock model
/// — no data is moved and no schedule is executed.
///
/// ```
/// use symla_memory::{MachineModel, MatrixId, Region};
/// use symla_sched::autotune::{Tuner, TuningSpace};
/// use symla_sched::ScheduleBuilder;
/// use symla_matrix::kernels::FlopCount;
///
/// // A toy "builder": tile t splits a 8x8 load into 8x t strips.
/// let build = |tile: Option<usize>| -> Result<_, String> {
///     let t = tile.unwrap_or(8);
///     if 8 % t != 0 {
///         return Err(format!("tile {t} does not divide 8"));
///     }
///     let id = MatrixId::synthetic(0);
///     let mut b = ScheduleBuilder::<f64>::new();
///     for i in 0..8 / t {
///         b.begin_group();
///         let x = b.load(id, Region::rect(t * i, 0, t, 8));
///         b.flops(FlopCount::new(64 * t as u128, 64 * t as u128));
///         b.store(x);
///     }
///     Ok(b.finish())
/// };
///
/// let model = MachineModel::nvme();
/// let space = TuningSpace::minimal().with_tiles(vec![None, Some(2), Some(4), Some(3)]);
/// let report = Tuner::new(&model, 128).tune(build, &space).unwrap();
/// assert_eq!(report.skipped, 4); // tile 3 skipped across the 4 inner points
/// assert!(report.winner().modelled_ns <= report.candidates[0].modelled_ns);
/// ```
#[derive(Debug, Clone)]
pub struct Tuner<'a> {
    model: &'a MachineModel,
    capacity: usize,
    beam_width: Option<usize>,
}

impl<'a> Tuner<'a> {
    /// An exhaustive tuner (unbounded beam) scoring against `model` on a
    /// fast memory of `capacity` elements.
    pub fn new(model: &'a MachineModel, capacity: usize) -> Self {
        Self {
            model,
            capacity,
            beam_width: None,
        }
    }

    /// Bounds the beam: stages 1–2 keep only the `width` best survivors by
    /// proxy score. `0` is treated as `1`. Pruned points are **not**
    /// counted as skipped (they were viable, just not explored).
    pub fn with_beam_width(mut self, width: usize) -> Self {
        self.beam_width = Some(width.max(1));
        self
    }

    /// Tunes `build` over `space` and returns the report plus the winner's
    /// ready-to-replay schedule and prefetch plan.
    ///
    /// `build` maps a tile override to a seed schedule (or a reason the
    /// tile is infeasible — such points are skipped, not fatal).
    pub fn tune_schedules<T, F>(&self, build: F, space: &TuningSpace) -> Result<Tuned<T>, TuneError>
    where
        T: Scalar,
        F: Fn(Option<usize>) -> Result<Schedule<T>, String>,
    {
        if space.is_empty() {
            return Err(TuneError::EmptySpace);
        }
        let inner = space.pipelines.len() * space.lookaheads.len() * space.workers.len();
        let mut skipped = 0usize;

        // Stage 1: seeds per tile. A skipped tile forfeits its whole slab
        // of the cross-product.
        let mut seeds: Vec<(Option<usize>, Schedule<T>)> = Vec::new();
        for &tile in &space.tiles {
            match build(tile) {
                Ok(schedule) => {
                    if Engine::dry_run(&schedule, "main").peak_resident > self.capacity {
                        skipped += inner;
                    } else {
                        seeds.push((tile, schedule));
                    }
                }
                Err(_) => skipped += inner,
            }
        }
        self.prune(&mut seeds, |(_, s)| self.proxy_score(s, space));

        // Stage 2: pipelines per surviving seed. The budget clamp mirrors
        // the pass step of symla-core's `api::compile`, so the schedule
        // scored here is identical to the one a run with this config
        // executes.
        let mut optimized: Vec<(TunedConfig, Schedule<T>, Vec<StageOutcome>)> = Vec::new();
        for (tile, seed) in &seeds {
            for pipeline in &space.pipelines {
                let (schedule, stages) = apply_pipeline(seed, pipeline, self.capacity)?;
                let config = TunedConfig {
                    tile: *tile,
                    pipeline: pipeline.clone(),
                    lookahead: 0,
                    level: Level::default(),
                    workers: 1,
                };
                optimized.push((config, schedule, stages));
            }
        }
        self.prune(&mut optimized, |(_, s, _)| self.proxy_score(s, space));

        // Stage 3: full scoring of survivors × lookaheads × levels × workers.
        let mut candidates: Vec<Candidate> = Vec::new();
        // (optimized idx, level, plan) per candidate
        let mut artifacts: Vec<(usize, Level, PrefetchPlan)> = Vec::new();
        let mut best: Option<usize> = None;
        for (idx, (config, schedule, _)) in optimized.iter().enumerate() {
            for &lookahead in &space.lookaheads {
                for &level in &space.levels {
                    let leveled;
                    let schedule = if level.is_default() {
                        schedule
                    } else {
                        leveled = schedule.with_transfer_level(level);
                        &leveled
                    };
                    let plan = if lookahead == 0 {
                        PrefetchPlan::default()
                    } else {
                        PrefetchPlan::plan(schedule, lookahead, Some(self.capacity))
                    };
                    let stats = Engine::dry_run_with(
                        schedule,
                        "main",
                        &EngineConfig::with_lookahead(lookahead),
                        Some(self.capacity),
                    );
                    if stats.peak_resident > self.capacity {
                        skipped += space.workers.len();
                        continue;
                    }
                    let parallel = space.workers.iter().any(|&w| w > 1);
                    let windows =
                        parallel.then(|| modelled_group_times(schedule, self.model, &plan));
                    // A schedule the replay rejects is as infeasible as one
                    // over capacity.
                    let (Ok(time), Ok(group_times)) = (
                        modelled_time_planned(schedule, self.model, &plan),
                        windows.transpose(),
                    ) else {
                        skipped += space.workers.len();
                        continue;
                    };
                    for &workers in &space.workers {
                        let modelled_ns = if workers <= 1 {
                            time.total_ns()
                        } else {
                            lpt_makespan(group_times.as_ref().unwrap(), workers)
                        };
                        let candidate = Candidate {
                            config: TunedConfig {
                                lookahead,
                                level,
                                workers,
                                ..config.clone()
                            },
                            stats: stats.clone(),
                            modelled_ns,
                            gap_to_bound: gap_to_bound(&stats, self.capacity),
                        };
                        let at = candidates.len();
                        if best.is_none_or(|b| candidate.modelled_ns < candidates[b].modelled_ns) {
                            best = Some(at);
                        }
                        candidates.push(candidate);
                        artifacts.push((idx, level, plan.clone()));
                    }
                }
            }
        }

        let Some(best) = best else {
            return Err(TuneError::NoFeasibleCandidate { skipped });
        };
        let (winner_idx, level, plan) = artifacts.swap_remove(best);
        let (_, schedule, stages) = optimized.swap_remove(winner_idx);
        let schedule = if level.is_default() {
            schedule
        } else {
            schedule.with_transfer_level(level)
        };
        // swap_remove may have moved another entry into `winner_idx`, but
        // `optimized` is dropped immediately, so the indices in `artifacts`
        // are never read again.
        Ok(Tuned {
            report: TuningReport {
                candidates,
                best,
                skipped,
                beam_width: self.beam_width,
                capacity: self.capacity,
            },
            schedule,
            plan,
            stages,
        })
    }

    /// [`Tuner::tune_schedules`] returning only the report.
    pub fn tune<T, F>(&self, build: F, space: &TuningSpace) -> Result<TuningReport, TuneError>
    where
        T: Scalar,
        F: Fn(Option<usize>) -> Result<Schedule<T>, String>,
    {
        self.tune_schedules(build, space).map(|t| t.report)
    }

    /// Proxy score for beam pruning: modelled ns at the space's first
    /// lookahead, serial replay.
    fn proxy_score<T: Scalar>(&self, schedule: &Schedule<T>, space: &TuningSpace) -> f64 {
        let lookahead = space.lookaheads.first().copied().unwrap_or(0);
        let plan = if lookahead == 0 {
            PrefetchPlan::default()
        } else {
            PrefetchPlan::plan(schedule, lookahead, Some(self.capacity))
        };
        modelled_time_planned(schedule, self.model, &plan).map_or(f64::INFINITY, |t| t.total_ns())
    }

    /// Stable truncation to the beam width by ascending score (ties keep
    /// the earlier entry — `sort_by` is stable and scores are totals of
    /// finite model coefficients).
    fn prune<E>(&self, entries: &mut Vec<E>, score: impl Fn(&E) -> f64) {
        let Some(width) = self.beam_width else {
            return;
        };
        if entries.len() <= width {
            return;
        }
        let scores: Vec<f64> = entries.iter().map(&score).collect();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            scores[a]
                .partial_cmp(&scores[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order.truncate(width);
        order.sort_unstable(); // keep original relative order among survivors
        let mut keep = order.into_iter().peekable();
        let mut idx = 0usize;
        entries.retain(|_| {
            let keep_this = keep.peek() == Some(&idx);
            if keep_this {
                keep.next();
            }
            idx += 1;
            keep_this
        });
    }
}

/// Measured load volume over the paper's `mults/√(S/2)` lower bound.
fn gap_to_bound(stats: &IoStats, capacity: usize) -> Option<f64> {
    if stats.flops.mults == 0 || capacity < 2 {
        return None;
    }
    let bound = stats.flops.mults as f64 / (capacity as f64 / 2.0).sqrt();
    Some(stats.volume.loads as f64 / bound)
}

/// Applies `pipeline` to `seed` exactly as the high-level API does: the
/// residency budget is clamped to the capacity, and a pipeline with no
/// passes and no verification short-circuits to a clone of the seed.
fn apply_pipeline<T: Scalar>(
    seed: &Schedule<T>,
    pipeline: &PassPipeline,
    capacity: usize,
) -> Result<(Schedule<T>, Vec<StageOutcome>), TuneError> {
    if pipeline.is_noop() && !pipeline.verify {
        return Ok((seed.clone(), Vec::new()));
    }
    let mut effective = pipeline.clone();
    if let Some(budget) = effective.budget {
        effective.budget = Some(budget.min(capacity));
    }
    let optimized = effective
        .manager::<T>()
        .optimize(seed, "main")
        .map_err(|e| TuneError::PassFailed(e.to_string()))?;
    Ok((optimized.schedule, optimized.stages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ScheduleBuilder;
    use symla_matrix::kernels::FlopCount;
    use symla_memory::{MatrixId, Region};

    /// Strip-mined pass over a 8x8 matrix; tile = strip height.
    fn build_strips(tile: Option<usize>) -> Result<Schedule<f64>, String> {
        let t = tile.unwrap_or(8);
        if t == 0 || 8 % t != 0 {
            return Err(format!("tile {t} does not divide 8"));
        }
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::new();
        for i in 0..8 / t {
            b.begin_group();
            let x = b.load(id, Region::rect(t * i, 0, t, 8));
            b.flops(FlopCount::new(200 * t as u128, 200 * t as u128));
            b.store(x);
        }
        Ok(b.finish())
    }

    #[test]
    fn exhaustive_search_covers_the_cross_product() {
        let model = MachineModel::dram();
        let space = TuningSpace::minimal().with_tiles(vec![None, Some(2), Some(4)]);
        let report = Tuner::new(&model, 256).tune(build_strips, &space).unwrap();
        assert_eq!(report.evaluated(), space.len());
        assert_eq!(report.skipped, 0);
        let winner = report.winner();
        for c in &report.candidates {
            assert!(winner.modelled_ns <= c.modelled_ns);
        }
    }

    #[test]
    fn infeasible_tiles_are_skipped_not_fatal() {
        let model = MachineModel::dram();
        let space = TuningSpace::minimal().with_tiles(vec![Some(3), Some(2)]);
        let report = Tuner::new(&model, 256).tune(build_strips, &space).unwrap();
        // Tile 3 forfeits pipelines × lookaheads × workers = 4 points.
        assert_eq!(report.skipped, 4);
        assert_eq!(report.evaluated(), 4);
        assert_eq!(report.best_config().tile, Some(2));
    }

    #[test]
    fn capacity_infeasible_seed_is_skipped() {
        let model = MachineModel::dram();
        // Capacity 16 cannot hold an 8x8-sized strip of height 4 (32 elts).
        let space = TuningSpace::minimal().with_tiles(vec![Some(4), Some(2)]);
        let report = Tuner::new(&model, 16).tune(build_strips, &space).unwrap();
        assert_eq!(report.best_config().tile, Some(2));
        assert_eq!(report.skipped, 4);
    }

    #[test]
    fn all_infeasible_is_a_typed_error() {
        let model = MachineModel::dram();
        let space = TuningSpace::minimal().with_tiles(vec![Some(3), Some(5)]);
        let err = Tuner::new(&model, 256)
            .tune(build_strips, &space)
            .unwrap_err();
        assert_eq!(err, TuneError::NoFeasibleCandidate { skipped: 8 });
    }

    #[test]
    fn empty_axis_is_a_typed_error() {
        let model = MachineModel::dram();
        let space = TuningSpace::minimal().with_lookaheads(vec![]);
        let err = Tuner::new(&model, 256)
            .tune(build_strips, &space)
            .unwrap_err();
        assert_eq!(err, TuneError::EmptySpace);
    }

    #[test]
    fn tuning_is_deterministic() {
        let model = MachineModel::nvme();
        let space = TuningSpace::minimal()
            .with_tiles(vec![None, Some(2), Some(4)])
            .with_lookaheads(vec![0, 1, 2])
            .with_workers(vec![1, 2]);
        let tuner = Tuner::new(&model, 256);
        let a = tuner.tune(build_strips, &space).unwrap();
        let b = tuner.tune(build_strips, &space).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn enlarging_the_space_never_worsens_the_winner() {
        let model = MachineModel::nvme();
        let tuner = Tuner::new(&model, 256);
        let small = TuningSpace::minimal();
        let large = small
            .clone()
            .with_tiles(vec![None, Some(2), Some(4)])
            .with_lookaheads(vec![0, 1, 2, 3]);
        let a = tuner.tune(build_strips, &small).unwrap();
        let b = tuner.tune(build_strips, &large).unwrap();
        assert!(b.winner().modelled_ns <= a.winner().modelled_ns);
    }

    #[test]
    fn bounded_beam_is_deterministic_and_never_larger() {
        let model = MachineModel::nvme();
        let space = TuningSpace::minimal().with_tiles(vec![None, Some(1), Some(2), Some(4)]);
        let tuner = Tuner::new(&model, 256).with_beam_width(2);
        let a = tuner.tune(build_strips, &space).unwrap();
        let b = tuner.tune(build_strips, &space).unwrap();
        assert_eq!(a, b);
        assert!(a.evaluated() < space.len());
        assert_eq!(a.beam_width, Some(2));
    }

    #[test]
    fn winner_artifacts_replay_to_the_winner_stats() {
        let model = MachineModel::nvme();
        let space = TuningSpace::minimal()
            .with_tiles(vec![None, Some(2)])
            .with_lookaheads(vec![0, 2]);
        let tuned = Tuner::new(&model, 256)
            .tune_schedules(build_strips, &space)
            .unwrap();
        let cfg = tuned.report.best_config().clone();
        let stats = Engine::dry_run_with(
            &tuned.schedule,
            "main",
            &EngineConfig::with_lookahead(cfg.lookahead),
            Some(256),
        );
        assert_eq!(stats, tuned.report.winner().stats);
        let time = modelled_time_planned(&tuned.schedule, &model, &tuned.plan).unwrap();
        assert_eq!(
            time.total_ns().to_bits(),
            tuned.report.winner().modelled_ns.to_bits()
        );
    }

    #[test]
    fn workers_makespan_uses_lpt_over_group_windows() {
        let model = MachineModel::dram();
        let space = TuningSpace::minimal()
            .with_pipelines(vec![PassPipeline::none()])
            .with_lookaheads(vec![0])
            .with_workers(vec![1, 2, 4]);
        let report = Tuner::new(&model, 256).tune(build_strips, &space).unwrap();
        let serial = &report.candidates[0];
        assert_eq!(serial.config.workers, 1);
        for c in &report.candidates[1..] {
            assert!(c.modelled_ns <= serial.modelled_ns);
            assert!(c.modelled_ns > 0.0);
        }
        // Default strips = one group; parallel modelled ns equals serial.
        assert_eq!(report.candidates[1].config.workers, 2);
    }

    #[test]
    fn level_axis_prefers_the_cheap_tier_and_relevels_the_winner() {
        use crate::ir::Step;
        let model = MachineModel::dram().with_level_extra(Level::new(2), 50.0);
        let space = TuningSpace::minimal()
            .with_pipelines(vec![PassPipeline::none()])
            .with_lookaheads(vec![0])
            .with_levels(vec![Level::new(2), Level::default()]);
        let tuned = Tuner::new(&model, 256)
            .tune_schedules(build_strips, &space)
            .unwrap();
        assert_eq!(tuned.report.evaluated(), 2);
        // the surcharged tier loses to the classic two-level replay ...
        assert_eq!(tuned.report.best_config().level, Level::default());
        assert!(!tuned.schedule.is_leveled());
        // ... and the losing candidate was priced with the surcharge
        let l2 = &tuned.report.candidates[0];
        assert_eq!(l2.config.level, Level::new(2));
        assert!(l2.modelled_ns > tuned.report.winner().modelled_ns);
        assert_eq!(l2.stats.level(2).loads, 64);

        // With the surcharge the other way round, the winner is re-leveled.
        let model = MachineModel::dram();
        let space = space.with_levels(vec![Level::new(2)]);
        let tuned = Tuner::new(&model, 256)
            .tune_schedules(build_strips, &space)
            .unwrap();
        assert_eq!(tuned.report.best_config().level, Level::new(2));
        assert!(tuned.schedule.is_leveled());
        assert!(tuned
            .schedule
            .groups
            .iter()
            .flat_map(|g| &g.steps)
            .all(|s| {
                !matches!(s, Step::Load { level, .. } | Step::Store { level, .. }
                if *level != Level::new(2))
            }));
    }

    #[test]
    fn tuned_workers_drive_the_parallel_replay_end_to_end() {
        use symla_matrix::Matrix;
        use symla_memory::SharedSlowMemory;

        let model = MachineModel::nvme();
        let space = TuningSpace::minimal()
            .with_tiles(vec![Some(2)])
            .with_pipelines(vec![PassPipeline::none()])
            .with_lookaheads(vec![0])
            .with_workers(vec![2]);
        let tuned = Tuner::new(&model, 256)
            .tune_schedules(build_strips, &space)
            .unwrap();
        let cfg = tuned.report.best_config().clone();
        assert_eq!(cfg.workers, 2);

        let shared = SharedSlowMemory::<f64>::new();
        let id = shared.insert_dense(Matrix::identity(8));
        assert_eq!(id, MatrixId::synthetic(0));
        let runs = tuned
            .execute_parallel(&shared, MachineConfig::with_capacity(256), "main")
            .unwrap();
        assert_eq!(runs.len(), 2);

        // Every group ran exactly once across the workers.
        let mut done: Vec<usize> = runs.iter().flat_map(|r| r.groups.clone()).collect();
        done.sort_unstable();
        assert_eq!(done, (0..tuned.schedule.groups.len()).collect::<Vec<_>>());

        // Each worker's observed stats equal the dry-run oracle of exactly
        // the groups it claimed — the modelled windows it was priced with.
        for run in &runs {
            let mut sub = tuned.schedule.clone();
            sub.groups = run.groups.iter().map(|&g| sub.groups[g].clone()).collect();
            let oracle = Engine::dry_run(&sub, "main");
            assert_eq!(run.stats.volume, oracle.volume);
            assert_eq!(run.stats.load_events, oracle.load_events);
            assert_eq!(run.stats.flops, oracle.flops);
        }
        assert_eq!(
            WorkerRun::merged_stats(&runs),
            Engine::dry_run(&tuned.schedule, "main")
        );

        // The priced makespan brackets the per-worker modelled windows:
        // work stealing may assign differently than LPT, but no worker's
        // window sum can beat the longest group, and the candidate's
        // modelled ns is the LPT makespan of the same windows.
        let windows = modelled_group_times(&tuned.schedule, &model, &tuned.plan).unwrap();
        let winner_ns = tuned.report.winner().modelled_ns;
        assert_eq!(
            winner_ns.to_bits(),
            lpt_makespan(&windows, cfg.workers).to_bits()
        );
        let longest = windows.iter().cloned().fold(0.0, f64::max);
        assert!(winner_ns >= longest);
        assert!(winner_ns <= windows.iter().sum::<f64>());
        for run in &runs {
            let sum: f64 = run.groups.iter().map(|&g| windows[g]).sum();
            assert!(sum <= windows.iter().sum::<f64>());
        }
    }

    #[test]
    fn lpt_makespan_basics() {
        assert_eq!(lpt_makespan(&[], 4), 0.0);
        assert_eq!(lpt_makespan(&[3.0, 1.0], 1), 4.0);
        assert_eq!(lpt_makespan(&[3.0, 1.0, 1.0, 1.0], 2), 3.0);
        // Makespan never below the longest job or the average load.
        let d = [5.0, 4.0, 3.0, 2.0, 1.0];
        let m = lpt_makespan(&d, 3);
        assert!(m >= 5.0);
        assert!(m >= d.iter().sum::<f64>() / 3.0);
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let a = TuningSpace::minimal();
        let b = TuningSpace::minimal();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            a.fingerprint(),
            a.clone().with_tiles(vec![Some(4)]).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            a.clone().with_lookaheads(vec![0]).fingerprint()
        );
        // the level axis joins the space fingerprint only when non-default
        assert_eq!(
            a.fingerprint(),
            a.clone().with_levels(vec![Level::default()]).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            a.clone().with_levels(vec![Level::new(2)]).fingerprint()
        );
        let dram = model_fingerprint(&MachineModel::dram());
        let nvme = model_fingerprint(&MachineModel::nvme());
        assert_eq!(dram, model_fingerprint(&MachineModel::dram()));
        assert_ne!(dram, nvme);
        // level surcharges discriminate the model fingerprint, zero
        // surcharges hash exactly as the pre-hierarchy model did
        assert_ne!(
            dram,
            model_fingerprint(&MachineModel::dram().with_level_extra(Level::new(2), 1.0))
        );
    }
}
