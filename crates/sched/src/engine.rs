//! The generic out-of-core execution engine.
//!
//! [`Engine`] replays a [`Schedule`] built from the IR of [`crate::ir`]
//! through **one serial replay loop** and one parallel distribution loop.
//! What a replay *means* is decided by the [`MachineOps`] machine it drives,
//! not by the engine:
//!
//! * [`Engine::execute`] / [`Engine::execute_with`] /
//!   [`Engine::execute_planned`] run the schedule against any machine —
//!   normally the serial [`OocMachine`](symla_memory::OocMachine), where
//!   every load/store is a counted, capacity-checked transfer and every
//!   compute step runs its block kernel on the resident buffers. The seven
//!   out-of-core algorithms' `*_execute` wrappers are serial executions
//!   through these entry points.
//! * [`Engine::dry_run`] / [`Engine::dry_run_with`] replay the same loop
//!   against a data-less [`SymbolicMachine`], which keeps the capacity,
//!   residency, phase and [`IoStats`] accounting through the same ledger as
//!   `OocMachine` but holds no data, so compute steps are skipped
//!   ([`MachineOps::holds_data`]). A dry run therefore produces exactly the
//!   `IoStats` an execution of the same schedule leaves in a machine — by
//!   construction.
//! * Decorators change what a replay measures:
//!   [`LatencyMachine`](symla_memory::LatencyMachine) prices it on a
//!   modelled clock and [`InstrumentedMachine`] records a typed event
//!   stream, the [`RunTrace`](symla_obs::RunTrace); wrapped around a
//!   `SymbolicMachine` they are the static analyses of [`crate::timing`].
//! * [`Engine::execute_parallel`] distributes the schedule's [`TaskGroup`]s
//!   over `P` workers of a [`SharedSlowMemory`] through a work-stealing
//!   queue of [`std::thread::scope`] threads. Each worker is a private,
//!   capacity-checked fast memory with its own [`IoStats`]; the groups it
//!   replays run through the same per-group code path as a serial
//!   execution.
//!
//! The `*_with` entry points take an [`EngineConfig`]: with
//! `lookahead = L > 0` the engine double-buffers the load stream, issuing
//! the `Load` steps of up to `L` future task groups at the boundary of the
//! current group — i.e. while the current group computes — whenever they fit
//! in the capacity slack `S − footprint` and are legal to hoist (see
//! [`crate::prefetch`] for the planner and its admission rules). Transfer
//! *volumes* are unchanged; the prefetched share of the load stream is
//! reported in [`IoStats::prefetched_elements`] / `prefetch_events`
//! (overlapped vs stalled loads), and the residency cost of the lookahead
//! shows up in `peak_resident`, which by planner construction never exceeds
//! the machine capacity. `lookahead = 0` replays with the empty plan.
//!
//! For any schedule whose groups are independent,
//! `execute_parallel(&shared, &s, P, ..)` leaves the *sum* of the
//! per-worker [`IoStats`] equal to `dry_run(&s)`, each worker's stats equal
//! to the dry run of exactly the groups it processed, and the contents of
//! the shared slow memory bitwise-identical to what a serial `execute`
//! leaves behind (checked by the cross-crate equivalence tests).

use crate::ir::{BufId, BufSlice, ComputeOp, Schedule, Step, TaskGroup};
use crate::prefetch::{group_peak, hoistable_loads, PrefetchPlan};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use symla_matrix::kernels::micro::{ger_view_auto, spr_lower_view_auto};
use symla_matrix::kernels::views::{
    cholesky_packed_view_in_place, lu_view_in_place, triangle_pairs_update,
};
use symla_matrix::{MatrixError, Scalar};
use symla_memory::{
    FastBuf, IoStats, MachineConfig, MachineModel, MachineOps, MemoryError, SharedSlowMemory,
    SymbolicMachine,
};
use symla_obs::{InstrumentedMachine, TraceRecorder};

/// Errors raised while replaying a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An error from the memory machine (capacity exceeded, bad region, ...).
    Memory(MemoryError),
    /// A numerical error from a block kernel (non-SPD pivot, ...).
    Matrix(MatrixError),
    /// The schedule is malformed (e.g. a step references a buffer that was
    /// never loaded or was already released).
    InvalidSchedule(String),
    /// The caller passed an invalid argument (e.g. zero workers); nothing
    /// was replayed and no accounting exists.
    InvalidArgument(String),
    /// A parallel worker's machine panicked; the message is the panic's.
    WorkerPanicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Memory(e) => write!(f, "memory model error: {e}"),
            EngineError::Matrix(e) => write!(f, "kernel error: {e}"),
            EngineError::InvalidSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            EngineError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            EngineError::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Memory(e) => Some(e),
            EngineError::Matrix(e) => Some(e),
            EngineError::InvalidSchedule(_)
            | EngineError::InvalidArgument(_)
            | EngineError::WorkerPanicked(_) => None,
        }
    }
}

impl From<MemoryError> for EngineError {
    fn from(e: MemoryError) -> Self {
        EngineError::Memory(e)
    }
}

impl From<MatrixError> for EngineError {
    fn from(e: MatrixError) -> Self {
        EngineError::Matrix(e)
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;

/// The resident buffers of a replay, by id: an ordered index over a slab of
/// slots, so the per-step inserts and removes move an index rather than a
/// whole [`FastBuf`]. (Ids can come from schedules read from outside the
/// program, so the index is ordered, not hashed.)
#[derive(Default)]
struct Bufs<T: Scalar> {
    index: BTreeMap<BufId, usize>,
    slots: Vec<Option<FastBuf<T>>>,
    free: Vec<usize>,
}

impl<T: Scalar> Bufs<T> {
    /// Binds `id` to `buf`, returning the buffer `id` displaced if it was
    /// still live.
    fn insert(&mut self, id: BufId, buf: FastBuf<T>) -> Option<FastBuf<T>> {
        let slot = self.free.pop().unwrap_or(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push(None);
        }
        self.slots[slot] = Some(buf);
        let replaced = self.index.insert(id, slot)?;
        self.free.push(replaced);
        self.slots[replaced].take()
    }

    fn remove(&mut self, id: &BufId) -> Option<FastBuf<T>> {
        let slot = self.index.remove(id)?;
        self.free.push(slot);
        self.slots[slot].take()
    }

    fn get(&self, id: &BufId) -> Option<&FastBuf<T>> {
        self.index
            .get(id)
            .and_then(|&slot| self.slots[slot].as_ref())
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The buffers still held, in id order.
    fn into_values(self) -> impl Iterator<Item = FastBuf<T>> {
        let Self {
            index, mut slots, ..
        } = self;
        index
            .into_values()
            .filter_map(move |slot| slots[slot].take())
    }
}

/// Buffers loaded ahead of their group, keyed by the `(group, step)`
/// coordinate of the `Load` they stand in for (buffer ids are only unique
/// within one builder, so they cannot key cross-group state).
type PrefetchedBufs<T> = BTreeMap<(usize, usize), FastBuf<T>>;

/// Per-group prefetch analysis of the parallel path: the group's standalone
/// peak footprint (`None` = not self-contained) and its hoistable loads as
/// `(step index, elements)` pairs.
type GroupAnalysis = (Option<usize>, Vec<(usize, usize)>);

/// Replay configuration of the engine's `*_with` entry points.
///
/// The only knob today is the prefetch lookahead: with `lookahead = L > 0`
/// the engine issues the `Load` steps of up to `L` future task groups at
/// the current group's boundary (double-buffering at `L = 1`), admitted by
/// the [`PrefetchPlan`] against the capacity
/// slack. `lookahead = 0` (the default) reproduces the plain serial replay
/// exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// How many future task groups' loads may be in flight while the
    /// current group computes.
    pub lookahead: usize,
}

impl EngineConfig {
    /// A config prefetching up to `lookahead` groups ahead.
    pub fn with_lookahead(lookahead: usize) -> Self {
        Self { lookahead }
    }
}

/// Accounting of one worker of an [`Engine::execute_parallel`] run.
#[derive(Debug, Clone, Default)]
pub struct WorkerRun {
    /// The worker's I/O statistics: exactly the dry-run accounting of the
    /// task groups in `groups` (asserted by the equivalence tests).
    pub stats: IoStats,
    /// Indices (into [`Schedule::groups`]) of the task groups this worker
    /// completed, in the order it claimed them.
    pub groups: Vec<usize>,
}

impl WorkerRun {
    /// Sums the statistics of a set of worker runs (phases merge by name,
    /// the peak residency is the **maximum over the workers**).
    ///
    /// For a schedule with self-contained groups the volumes, events, flops
    /// and phase split equal the serial [`Engine::dry_run`] of the whole
    /// schedule (every group is processed by exactly one worker), and the
    /// merged `peak_resident` equals the serial peak (both are per-group
    /// maxima). Note what the merged peak is *not*: the fleet-wide memory
    /// in use. The workers' private fast memories coexist, so at any
    /// instant the fleet may hold up to the **sum** of the per-worker
    /// residencies — see [`WorkerRun::aggregate_peak`] for that upper
    /// bound.
    pub fn merged_stats(runs: &[WorkerRun]) -> IoStats {
        let mut total = IoStats::new();
        for run in runs {
            total.merge(&run.stats);
        }
        total
    }

    /// Upper bound on the fleet-wide peak residency: the sum of the
    /// per-worker peaks. The true concurrent peak lies between the busiest
    /// single worker's peak (what [`WorkerRun::merged_stats`] reports) and
    /// this sum — the workers' fast memories are private and coexist, but
    /// their individual peaks need not be simultaneous, so the sum is an
    /// upper bound, not an exact measurement.
    pub fn aggregate_peak(runs: &[WorkerRun]) -> usize {
        runs.iter().map(|r| r.stats.peak_resident).sum()
    }
}

/// Error of an [`Engine::execute_parallel`] run.
///
/// Carries the accounting of every worker at the moment the run aborted, so
/// callers can still audit the traffic of the groups that did complete (the
/// failing worker's stats include the partial traffic of the failed group;
/// its buffers were released back without store traffic).
#[derive(Debug)]
pub struct ParallelError {
    /// The first replay error observed.
    pub error: EngineError,
    /// Index of the worker whose group replay failed. `None` when the run
    /// was rejected before any worker started (e.g. `workers == 0` — see
    /// [`EngineError::InvalidArgument`]); no worker index is fabricated for
    /// failures that never happened on a worker.
    pub worker: Option<usize>,
    /// Index (into [`Schedule::groups`]) of the task group that failed;
    /// `None` when no group was ever attempted, or when a worker panicked
    /// outside a group replay.
    pub group: Option<usize>,
    /// Per-worker accounting up to the abort. Workers that were mid-group
    /// when the abort flag rose finish that group normally, so every run
    /// in this list is consistent (its stats equal the dry-run of its
    /// completed groups plus, for the failing worker, the partial group).
    pub runs: Vec<WorkerRun>,
}

impl fmt::Display for ParallelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.worker, self.group) {
            (Some(worker), Some(group)) => write!(
                f,
                "worker {} failed on task group {}: {}",
                worker, group, self.error
            ),
            (Some(worker), None) => write!(f, "worker {worker} failed: {}", self.error),
            _ => write!(f, "parallel execution rejected: {}", self.error),
        }
    }
}

impl std::error::Error for ParallelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<ParallelError> for EngineError {
    fn from(e: ParallelError) -> Self {
        e.error
    }
}

/// The per-worker deques of a parallel run: each worker drains its own deque
/// from the front and steals from the back of the others when it runs dry.
/// Groups are dealt round-robin, so a schedule of uniform groups starts out
/// balanced and stealing only kicks in under real imbalance.
struct StealQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueue {
    fn deal(groups: usize, workers: usize) -> Self {
        Self {
            deques: (0..workers)
                .map(|w| Mutex::new((w..groups).step_by(workers).collect()))
                .collect(),
        }
    }

    fn lock(&self, w: usize) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
        // Recover from poisoning (a worker panicking elsewhere): the deques
        // hold plain indices, so the data cannot be inconsistent.
        self.deques[w]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Next group for worker `w`: its own front, else a steal from the back
    /// of the first non-empty victim (the flag in the pair is `true` for a
    /// steal). `None` means all deques are empty — no new work can appear,
    /// so the worker is done.
    fn pop(&self, w: usize) -> Option<(usize, bool)> {
        if let Some(g) = self.lock(w).pop_front() {
            return Some((g, false));
        }
        let n = self.deques.len();
        for v in (w + 1..n).chain(0..w) {
            if let Some(g) = self.lock(v).pop_back() {
                return Some((g, true));
            }
        }
        None
    }

    /// Next group from worker `w`'s own deque only. Filling a prefetch
    /// lookahead window uses this instead of [`StealQueue::pop`]: a worker
    /// must not *steal* groups it will merely park behind its current one —
    /// that would serialize work other workers could run now.
    fn pop_local(&self, w: usize) -> Option<usize> {
        self.lock(w).pop_front()
    }
}

/// The schedule replayer. See the module docs for its entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

fn missing(buf: BufId) -> EngineError {
    EngineError::InvalidSchedule(format!("step references unknown or released buffer {buf}"))
}

fn short_segment(op: &str, got: usize, needed: usize) -> EngineError {
    EngineError::InvalidSchedule(format!(
        "{op}: segment buffer has {got} element(s), step needs {needed} \
         (column/row index out of range for the destination tile)"
    ))
}

/// The phase each group's traffic is attributed to under the serial phase
/// semantics: a group's own label if set, else the label of the nearest
/// labeled group before it, else `default` (the machine's phase at entry).
/// Precomputed so prefetched loads can be charged to the phase of the group
/// that consumes them, independent of where they are issued.
fn effective_phases<'a, T: Scalar>(schedule: &'a Schedule<T>, default: &'a str) -> Vec<&'a str> {
    let mut current = default;
    schedule
        .groups
        .iter()
        .map(|group| {
            if let Some(phase) = &group.phase {
                current = phase;
            }
            current
        })
        .collect()
}

/// The message of a caught panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
        .to_string()
}

fn slice_of<'a, T: Scalar>(bufs: &'a Bufs<T>, s: &BufSlice) -> Result<&'a [T]> {
    let buf = bufs.get(&s.buf).ok_or_else(|| missing(s.buf))?;
    buf.as_slice().get(s.start..s.start + s.len).ok_or_else(|| {
        EngineError::InvalidSchedule(format!(
            "slice {}..+{} exceeds buffer {} of {} elements",
            s.start,
            s.len,
            s.buf,
            buf.len()
        ))
    })
}

impl Engine {
    /// Replays `schedule` against `machine`, running every block kernel on
    /// real data. Transfers are counted and capacity-checked by the machine
    /// exactly as the hand-rolled executors counted them. Works against any
    /// [`MachineOps`] implementation: the serial
    /// [`OocMachine`](symla_memory::OocMachine) or one
    /// [`WorkerMachine`](symla_memory::WorkerMachine) of a shared slow
    /// memory.
    ///
    /// On error, buffers the failed schedule still held are released back to
    /// the machine (without store traffic), so its residency accounting and
    /// leases stay consistent and the matrices can still be taken out.
    ///
    /// ```
    /// use symla_matrix::Matrix;
    /// use symla_memory::{OocMachine, Region};
    /// use symla_sched::{BufSlice, ComputeOp, Engine, ScheduleBuilder};
    ///
    /// let mut machine = OocMachine::<f64>::with_capacity(6);
    /// let id = machine.insert_dense(Matrix::identity(4));
    /// // One rank-1 update: C[0..2, 0..2] += 2 · a · aᵀ with a = A[0..2, 3].
    /// let mut b = ScheduleBuilder::new();
    /// let c = b.load(id, Region::rect(0, 0, 2, 2));
    /// let a = b.load(id, Region::col_segment(3, 0, 2));
    /// b.compute(ComputeOp::Ger {
    ///     alpha: 2.0,
    ///     x: BufSlice::whole(a, 2),
    ///     y: BufSlice::whole(a, 2),
    ///     dst: c,
    /// });
    /// b.discard(a);
    /// b.store(c);
    /// Engine::execute(&mut machine, &b.finish()).unwrap();
    /// // Transfers were counted and capacity-checked (6 resident at peak) ...
    /// assert_eq!(machine.stats().volume.loads, 6);
    /// assert_eq!(machine.stats().volume.stores, 4);
    /// assert_eq!(machine.stats().peak_resident, 6);
    /// // ... and the kernel really ran on slow memory's data.
    /// let out = machine.take_dense(id).unwrap();
    /// assert_eq!(out[(0, 0)], 1.0); // A[0,3] = 0, so nothing changed
    /// ```
    pub fn execute<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        schedule: &Schedule<T>,
    ) -> Result<()> {
        Self::execute_with(machine, schedule, &EngineConfig::default())
    }

    /// [`Engine::execute`] with a replay configuration: `config.lookahead > 0`
    /// turns on double-buffered prefetching — at every group boundary the
    /// engine first *fills* the prefetch window (issuing the planned `Load`
    /// steps of up to `lookahead` future groups, counted as load traffic and
    /// marked prefetched in the machine's [`IoStats`]) and then *drains* the
    /// current group, whose prefetched loads find their buffers already
    /// resident. The [`PrefetchPlan`] admits
    /// a load only when it fits the capacity slack and reads fresh data, so
    /// the machine's peak residency never exceeds its capacity and results
    /// are bitwise-identical to the plain replay.
    ///
    /// Prefetched loads are attributed to the phase of the group that
    /// *consumes* them (issuing a load early does not change which
    /// sub-algorithm needs the data), so the per-phase split is identical
    /// at every lookahead.
    pub fn execute_with<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        schedule: &Schedule<T>,
        config: &EngineConfig,
    ) -> Result<()> {
        let plan = PrefetchPlan::plan(schedule, config.lookahead, machine.capacity());
        Self::replay(machine, schedule, &plan, |_| {})
    }

    /// Replays `schedule` with an **already-computed** prefetch plan,
    /// skipping the planning step of [`Engine::execute_with`] entirely.
    ///
    /// This is the replay-many half of the plan cache's
    /// compile-once/replay-many contract: a plan computed (and serialized)
    /// at compile time is handed back verbatim, so a cache hit performs
    /// zero prefetch-planner work. The plan must have been produced by
    /// [`PrefetchPlan::plan`] for this schedule under a capacity no larger
    /// than the machine's — a plan for a different schedule is rejected
    /// when its boundary count disagrees, and its per-step coordinates are
    /// validated during the replay.
    ///
    /// Results and accounting are identical to `execute_with` at the
    /// lookahead the plan was computed for; the empty plan is the plain
    /// serial replay.
    pub fn execute_planned<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        schedule: &Schedule<T>,
        plan: &PrefetchPlan,
    ) -> Result<()> {
        Self::replay(machine, schedule, plan, |_| {})
    }

    /// The one serial replay loop behind every execution and analysis.
    ///
    /// Validates `plan` against `schedule`, then replays group by group: at
    /// every boundary it first *fills* (issues the loads `plan` places
    /// there, overlapping this group's compute in the two-phase model) and
    /// then *drains* the group itself, calling `group_end` with the machine
    /// after each group. Buffers a failed replay still holds are released
    /// back to the machine (without store traffic), so its residency
    /// accounting and leases stay consistent.
    pub(crate) fn replay<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        schedule: &Schedule<T>,
        plan: &PrefetchPlan,
        mut group_end: impl FnMut(&M),
    ) -> Result<()> {
        if !plan.is_empty() && plan.num_boundaries() != schedule.num_groups() {
            return Err(EngineError::InvalidArgument(format!(
                "prefetch plan covers {} group boundary(ies), schedule has {} group(s)",
                plan.num_boundaries(),
                schedule.num_groups()
            )));
        }
        // A plan may come from disk: reject out-of-range coordinates here
        // rather than index-panicking inside the replay, and reject issues
        // that do not stand for exactly one later group's `Load` (a
        // repeated issue would load a buffer nothing consumes).
        let mut issues = 0;
        for boundary in 0..plan.num_boundaries() {
            for issue in plan.issues_at(boundary) {
                let step = schedule
                    .groups
                    .get(issue.group)
                    .and_then(|g| g.steps.get(issue.step));
                if issue.group <= boundary || !matches!(step, Some(Step::Load { .. })) {
                    return Err(EngineError::InvalidArgument(format!(
                        "prefetch plan at boundary {boundary} targets step {} of group {}, \
                         not a load of a later group of this schedule",
                        issue.step, issue.group
                    )));
                }
                issues += 1;
            }
        }
        if issues != plan.distinct_issues() {
            return Err(EngineError::InvalidArgument(
                "prefetch plan issues one load more than once".to_string(),
            ));
        }
        let default_phase = machine.phase().to_string();
        let phases = effective_phases(schedule, &default_phase);
        let mut bufs = Bufs::default();
        let mut prefetched: PrefetchedBufs<T> = BTreeMap::new();
        let mut run = || -> Result<()> {
            for (g, group) in schedule.groups.iter().enumerate() {
                machine.note_group_boundary();
                machine.note_group_start(g);
                // Fill: issue the loads planned at this boundary (they
                // overlap with this group's compute in the two-phase model).
                for issue in plan.issues_at(g) {
                    let Step::Load {
                        matrix,
                        region,
                        level,
                        ..
                    } = &schedule.groups[issue.group].steps[issue.step]
                    else {
                        return Err(EngineError::InvalidSchedule(format!(
                            "prefetch plan targets non-load step {} of group {}",
                            issue.step, issue.group
                        )));
                    };
                    machine.set_phase(phases[issue.group]);
                    let buf = machine.load_from(*matrix, region.clone(), *level)?;
                    machine.note_prefetch(region.len());
                    machine.note_prefetch_issue(issue.group, issue.step, region.len());
                    prefetched.insert((issue.group, issue.step), buf);
                }
                // Drain: replay the group itself.
                machine.set_phase(phases[g]);
                Self::replay_group(machine, g, group, &mut bufs, &mut prefetched)?;
                machine.note_group_end(g);
                group_end(machine);
            }
            machine.note_group_boundary();
            if !bufs.is_empty() || !prefetched.is_empty() {
                return Err(EngineError::InvalidSchedule(format!(
                    "{} buffer(s) left resident at end of schedule",
                    bufs.len() + prefetched.len()
                )));
            }
            Ok(())
        };
        let outcome = run();
        for buf in bufs.into_values().chain(prefetched.into_values()) {
            // A discard can only fail for foreign buffers, which cannot be
            // in the tables.
            let _ = machine.discard(buf);
        }
        outcome
    }

    /// Replays the steps of one task group. Shared verbatim between the
    /// serial path (where `bufs` persists across groups, tolerating legacy
    /// schedules whose buffers straddle group boundaries) and the parallel
    /// path (where each group gets a fresh table and must be self-contained).
    /// A load whose `(group, step)` coordinate is in `prefetched` was issued
    /// (and counted) at an earlier group boundary and replays as a handoff —
    /// coordinates, not buffer ids, key the handoff because concatenated
    /// schedules legally reuse ids across groups.
    fn replay_group<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        group_index: usize,
        group: &TaskGroup<T>,
        bufs: &mut Bufs<T>,
        prefetched: &mut PrefetchedBufs<T>,
    ) -> Result<()> {
        for (idx, step) in group.steps.iter().enumerate() {
            match step {
                Step::Load {
                    matrix,
                    region,
                    dst,
                    level,
                } => {
                    let buf = match prefetched.remove(&(group_index, idx)) {
                        Some(buf) => {
                            machine.note_prefetch_delivery(group_index, idx);
                            buf
                        }
                        None => machine.load_from(*matrix, region.clone(), *level)?,
                    };
                    Self::bind(machine, bufs, *dst, buf)?;
                }
                Step::Alloc {
                    matrix,
                    region,
                    dst,
                } => {
                    let buf = machine.allocate_zeroed(*matrix, region.clone())?;
                    Self::bind(machine, bufs, *dst, buf)?;
                }
                Step::Flops(flops) => machine.record_flops(*flops),
                Step::Store { buf, level } => {
                    let b = bufs.remove(buf).ok_or_else(|| missing(*buf))?;
                    machine.store_to(b, *level)?;
                }
                Step::Discard { buf } => {
                    let b = bufs.remove(buf).ok_or_else(|| missing(*buf))?;
                    machine.discard(b)?;
                }
                Step::Compute(op) => {
                    machine.note_compute(op.kind());
                    if machine.holds_data() {
                        Self::compute(bufs, op)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Binds a freshly loaded or allocated buffer to `dst`. A schedule that
    /// writes a `dst` still live is malformed: the displaced buffer is
    /// released through the machine (so no lease outlives the replay) and
    /// the step is rejected.
    fn bind<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        bufs: &mut Bufs<T>,
        dst: BufId,
        buf: FastBuf<T>,
    ) -> Result<()> {
        let Some(displaced) = bufs.insert(dst, buf) else {
            return Ok(());
        };
        let _ = machine.discard(displaced);
        Err(EngineError::InvalidSchedule(format!(
            "step rebinds buffer {dst} while it is still live"
        )))
    }

    /// Executes `schedule` with `workers` concurrent workers sharing the
    /// slow memory `shared`, each with a private fast memory configured by
    /// `config`.
    ///
    /// [`TaskGroup`]s are the unit of distribution: they are dealt
    /// round-robin onto per-worker deques and re-balanced by work stealing
    /// (a worker that drains its own deque steals from the back of the
    /// others). **The caller asserts that the groups are independent** —
    /// i.e. no group reads or writes a slow-memory region another group
    /// writes. The SYRK-family schedules of this workspace (square-block,
    /// TBS, tiled TBS and GEMM — what `symla_core`'s `RunOptions::workers`
    /// replays here) satisfy this: each group owns a disjoint block of the
    /// result and only reads the shared input panel. The left-looking
    /// factorizations (Cholesky, LU, TRSM) order their groups *through*
    /// slow memory and must stay on the serial [`Engine::execute`] path.
    ///
    /// Two semantic differences from a serial execution, both irrelevant to
    /// schedules with independent groups:
    ///
    /// * every group must be self-contained (create and release all its
    ///   buffers) — the serial path tolerates buffers straddling groups;
    /// * a group without a phase label is attributed to `default_phase`,
    ///   not to the label of the textually preceding group (which may be
    ///   replaying on a different worker).
    ///
    /// On success, returns one [`WorkerRun`] per worker (its [`IoStats`] and
    /// the groups it completed). On failure, the first error aborts the run:
    /// other workers finish the group they are on and stop claiming; the
    /// returned [`ParallelError`] carries the error, the failing
    /// worker/group and every worker's accounting.
    ///
    /// ```
    /// use symla_matrix::Matrix;
    /// use symla_memory::{MachineConfig, MatrixId, Region, SharedSlowMemory};
    /// use symla_sched::engine::{Engine, WorkerRun};
    /// use symla_sched::ScheduleBuilder;
    ///
    /// let shared = SharedSlowMemory::<f64>::new();
    /// let id = shared.insert_dense(Matrix::identity(8));
    /// // Four independent groups, one per diagonal 2x2 block.
    /// let mut b = ScheduleBuilder::new();
    /// for i in 0..4 {
    ///     b.begin_group();
    ///     let buf = b.load(id, Region::rect(2 * i, 2 * i, 2, 2));
    ///     b.store(buf);
    /// }
    /// let schedule = b.finish();
    ///
    /// let runs =
    ///     Engine::execute_parallel(&shared, &schedule, 2, MachineConfig::with_capacity(4), "main")
    ///         .unwrap();
    /// assert_eq!(runs.len(), 2);
    /// // Every group ran on exactly one worker ...
    /// let done: usize = runs.iter().map(|r| r.groups.len()).sum();
    /// assert_eq!(done, 4);
    /// // ... and the summed per-worker accounting equals the serial dry run.
    /// assert_eq!(WorkerRun::merged_stats(&runs), Engine::dry_run(&schedule, "main"));
    /// ```
    pub fn execute_parallel<T: Scalar>(
        shared: &SharedSlowMemory<T>,
        schedule: &Schedule<T>,
        workers: usize,
        config: MachineConfig,
        default_phase: &str,
    ) -> std::result::Result<Vec<WorkerRun>, ParallelError> {
        Self::execute_parallel_with(
            shared,
            schedule,
            workers,
            config,
            default_phase,
            &EngineConfig::default(),
        )
    }

    /// [`Engine::execute_parallel`] with a replay configuration: with
    /// `engine.lookahead = L > 0` every worker pipelines its group handoff —
    /// it claims up to `L` additional groups from *its own deque* (never
    /// stealing ahead: parked lookahead groups would serialize work other
    /// workers could run now) and, before
    /// draining the current group, issues the hoistable loads of those
    /// claimed groups into its private fast memory (counted and marked
    /// prefetched in its [`IoStats`]), so the next group's input stream
    /// overlaps the current group's compute. Admission is conservative: a
    /// load is only issued while the resident prefetch window plus the
    /// largest claimed group footprint still fits the worker's capacity, and
    /// a load that the (serialized) shared memory rejects anyway falls back
    /// to its original program point instead of failing the run. Groups that
    /// are not self-contained disable prefetching around them, and the
    /// caller's independence contract (no group touches a region another
    /// group writes) is what makes cross-group hoisting safe — exactly the
    /// contract [`Engine::execute_parallel`] already imposes.
    ///
    /// Per-worker transfer volumes, group coverage and numerical results are
    /// identical to the non-prefetching run; only the overlapped/stalled
    /// split and (within capacity) the per-worker peak residency change.
    pub fn execute_parallel_with<T: Scalar>(
        shared: &SharedSlowMemory<T>,
        schedule: &Schedule<T>,
        workers: usize,
        config: MachineConfig,
        default_phase: &str,
        engine: &EngineConfig,
    ) -> std::result::Result<Vec<WorkerRun>, ParallelError> {
        Self::execute_parallel_core(
            schedule,
            workers,
            engine.lookahead,
            default_phase,
            |_w| shared.worker(config),
            |m| m.into_accounting(),
        )
    }

    /// [`Engine::execute_parallel_with`] with observability: every worker's
    /// machine is wrapped in an
    /// [`InstrumentedMachine`] reporting to
    /// (a clone of) `recorder`, so the run produces one
    /// [`RunTrace`](symla_obs::RunTrace) covering all workers — group spans,
    /// transfers, kernels, claims/steals and prefetch issue→delivery pairs,
    /// each stamped with both the real clock and the modelled timeline of
    /// `model`. Accounting, results and scheduling semantics are identical
    /// to the unobserved entry point (asserted by the observer-invariance
    /// tests).
    #[allow(clippy::too_many_arguments)]
    pub fn execute_parallel_traced<T: Scalar>(
        shared: &SharedSlowMemory<T>,
        schedule: &Schedule<T>,
        workers: usize,
        config: MachineConfig,
        default_phase: &str,
        engine: &EngineConfig,
        model: &MachineModel,
        recorder: &TraceRecorder,
    ) -> std::result::Result<Vec<WorkerRun>, ParallelError> {
        Self::execute_parallel_core(
            schedule,
            workers,
            engine.lookahead,
            default_phase,
            |w| InstrumentedMachine::new(shared.worker(config), *model, recorder.clone(), w),
            |m| m.into_inner().into_accounting(),
        )
    }

    /// The parallel replay loop, generic over how a worker's machine is
    /// built and how it is torn down into accounting — the unobserved and
    /// traced entry points share everything else (machines are built inside
    /// the spawned threads, so they need not be `Send`).
    fn execute_parallel_core<T, M, B, F>(
        schedule: &Schedule<T>,
        workers: usize,
        lookahead: usize,
        default_phase: &str,
        build: B,
        finish: F,
    ) -> std::result::Result<Vec<WorkerRun>, ParallelError>
    where
        T: Scalar,
        M: MachineOps<T>,
        B: Fn(usize) -> M + Sync,
        F: Fn(M) -> IoStats + Sync,
    {
        if workers == 0 {
            return Err(ParallelError {
                error: EngineError::InvalidArgument(
                    "execute_parallel needs at least one worker".to_string(),
                ),
                worker: None,
                group: None,
                runs: Vec::new(),
            });
        }
        // Per-group prefetch analysis, shared read-only by all workers:
        // the group's own peak footprint (None = not self-contained, do not
        // prefetch around it) and the loads hoistable to its start.
        let analysis: Vec<GroupAnalysis> = if lookahead > 0 {
            schedule
                .groups
                .iter()
                .map(|g| (group_peak(g), hoistable_loads(g)))
                .collect()
        } else {
            Vec::new()
        };
        let queue = StealQueue::deal(schedule.groups.len(), workers);
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<(usize, Option<usize>, EngineError)>> = Mutex::new(None);
        let fail = |worker: usize, group: Option<usize>, error: EngineError| {
            failure
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .get_or_insert((worker, group, error));
            abort.store(true, Ordering::Release);
        };

        let runs: Vec<WorkerRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (queue, abort, fail, analysis) = (&queue, &abort, &fail, &analysis);
                    let (build, finish) = (&build, &finish);
                    scope.spawn(move || {
                        let mut machine = build(w);
                        let mut groups = Vec::new();
                        let mut pending: VecDeque<(usize, bool)> = VecDeque::new();
                        let mut prefetched: PrefetchedBufs<T> = BTreeMap::new();
                        while !abort.load(Ordering::Acquire) {
                            while pending.len() < 1 + lookahead {
                                // The head of the window may be stolen (it
                                // is about to run); lookahead extras come
                                // from the worker's own deque only.
                                let next = if pending.is_empty() {
                                    queue.pop(w)
                                } else {
                                    queue.pop_local(w).map(|g| (g, false))
                                };
                                let Some(g) = next else { break };
                                pending.push_back(g);
                            }
                            let Some((g, stolen)) = pending.pop_front() else {
                                break;
                            };
                            machine.note_group_boundary();
                            machine.note_claim(g, stolen);
                            machine.note_group_start(g);
                            let group = &schedule.groups[g];
                            let mut bufs = Bufs::default();
                            // A panicking machine fails this group like an
                            // error would, so its buffers are still released.
                            let mut outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                                if lookahead > 0 {
                                    Self::fill_worker_window(
                                        &mut machine,
                                        schedule,
                                        analysis,
                                        g,
                                        &pending,
                                        default_phase,
                                        &mut prefetched,
                                    );
                                }
                                machine.set_phase(group.phase.as_deref().unwrap_or(default_phase));
                                Self::replay_group(
                                    &mut machine,
                                    g,
                                    group,
                                    &mut bufs,
                                    &mut prefetched,
                                )
                            }))
                            .unwrap_or_else(|payload| {
                                Err(EngineError::WorkerPanicked(panic_message(&*payload)))
                            });
                            if outcome.is_ok() && !bufs.is_empty() {
                                outcome = Err(EngineError::InvalidSchedule(format!(
                                    "{} buffer(s) left resident at end of task group {g}",
                                    bufs.len()
                                )));
                            }
                            for buf in bufs.into_values() {
                                let _ = machine.discard(buf);
                            }
                            machine.note_group_end(g);
                            match outcome {
                                Ok(()) => groups.push(g),
                                Err(error) => {
                                    fail(w, Some(g), error);
                                    break;
                                }
                            }
                        }
                        machine.note_group_boundary();
                        // Release any prefetched buffers whose group never
                        // drained (abort mid-pipeline).
                        for (_, buf) in prefetched {
                            let _ = machine.discard(buf);
                        }
                        WorkerRun {
                            stats: finish(machine),
                            groups,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(w, h)| {
                    // A panic outside a group replay loses the worker's
                    // accounting along with its machine.
                    h.join().unwrap_or_else(|payload| {
                        let error = EngineError::WorkerPanicked(panic_message(&*payload));
                        fail(w, None, error);
                        WorkerRun::default()
                    })
                })
                .collect()
        });

        let slot = failure
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match slot {
            Some((worker, group, error)) => Err(ParallelError {
                error,
                worker: Some(worker),
                group,
                runs,
            }),
            None => Ok(runs),
        }
    }

    /// Issues the hoistable loads of a worker's claimed-but-not-yet-drained
    /// groups (`pending`) before it drains group `current`. Admission is
    /// conservative: the live prefetch window plus the load plus the largest
    /// group footprint the worker still has in flight must fit its capacity;
    /// a rejected or failing load simply stays at its original program point
    /// (prefetching is an optimization, never a new failure mode).
    fn fill_worker_window<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        schedule: &Schedule<T>,
        analysis: &[GroupAnalysis],
        current: usize,
        pending: &VecDeque<(usize, bool)>,
        default_phase: &str,
        prefetched: &mut PrefetchedBufs<T>,
    ) {
        let capacity = machine.capacity();
        let mut window: u64 = prefetched.values().map(|b| b.len() as u64).sum();
        // The bound must cover every group the worker drains while the
        // prefetched buffer is alive: the current group and all claimed ones.
        let mut max_peak = 0u64;
        for g in std::iter::once(current).chain(pending.iter().map(|&(g, _)| g)) {
            match analysis[g].0 {
                Some(peak) => max_peak = max_peak.max(peak as u64),
                // A non-self-contained group has no standalone footprint;
                // prefetching around it is off the table entirely.
                None => return,
            }
        }
        for &(h, _) in pending {
            for &(step_idx, size) in &analysis[h].1 {
                let Step::Load {
                    matrix,
                    region,
                    level,
                    ..
                } = &schedule.groups[h].steps[step_idx]
                else {
                    continue;
                };
                if prefetched.contains_key(&(h, step_idx)) {
                    continue;
                }
                if let Some(cap) = capacity {
                    if window + size as u64 + max_peak > cap as u64 {
                        continue;
                    }
                }
                machine.set_phase(schedule.groups[h].phase.as_deref().unwrap_or(default_phase));
                let Ok(buf) = machine.load_from(*matrix, region.clone(), *level) else {
                    continue; // fall back to loading at the original point
                };
                machine.note_prefetch(region.len());
                machine.note_prefetch_issue(h, step_idx, region.len());
                window += size as u64;
                prefetched.insert((h, step_idx), buf);
            }
        }
    }

    /// Runs one compute step on the resident buffers.
    ///
    /// The destination buffer is taken out of the table for the duration of
    /// the kernel so operand slices (which may alias each other, but never
    /// the destination) can be borrowed immutably.
    fn compute<T: Scalar>(bufs: &mut Bufs<T>, op: &ComputeOp<T>) -> Result<()> {
        let dst_id = match op {
            ComputeOp::Ger { dst, .. }
            | ComputeOp::SprLower { dst, .. }
            | ComputeOp::TrianglePairs { dst, .. }
            | ComputeOp::CholeskyInPlace { dst, .. }
            | ComputeOp::LuInPlace { dst, .. }
            | ComputeOp::TrsmRightStep { dst, .. }
            | ComputeOp::LuColSolveStep { dst, .. }
            | ComputeOp::LuRowElimStep { dst, .. } => *dst,
        };
        let mut dst = bufs.remove(&dst_id).ok_or_else(|| missing(dst_id))?;
        let outcome = Self::compute_on(bufs, op, &mut dst);
        // `dst_id` was just removed, so nothing is displaced.
        bufs.insert(dst_id, dst);
        outcome
    }

    fn compute_on<T: Scalar>(
        bufs: &Bufs<T>,
        op: &ComputeOp<T>,
        dst: &mut FastBuf<T>,
    ) -> Result<()> {
        match op {
            ComputeOp::Ger { alpha, x, y, .. } => {
                let xs = slice_of(bufs, x)?;
                let ys = slice_of(bufs, y)?;
                let mut view = dst.rect_view_mut().map_err(EngineError::Memory)?;
                // Cache-blocked micro-kernel, bitwise-equal to `ger_view`
                // (asserted by the `kernel_equivalence` sweep).
                ger_view_auto(*alpha, xs, ys, &mut view)?;
            }
            ComputeOp::SprLower { alpha, x, .. } => {
                let xs = slice_of(bufs, x)?;
                let mut view = dst.packed_view_mut().map_err(EngineError::Memory)?;
                spr_lower_view_auto(*alpha, xs, &mut view)?;
            }
            ComputeOp::TrianglePairs { alpha, x, .. } => {
                let xs = slice_of(bufs, x)?;
                triangle_pairs_update(*alpha, xs, dst.as_mut_slice())?;
            }
            ComputeOp::CholeskyInPlace { pivot_base, .. } => {
                let mut view = dst.packed_view_mut().map_err(EngineError::Memory)?;
                cholesky_packed_view_in_place(&mut view).map_err(|e| match e {
                    MatrixError::NotPositiveDefinite { pivot, value } => {
                        EngineError::Matrix(MatrixError::NotPositiveDefinite {
                            pivot: pivot + pivot_base,
                            value,
                        })
                    }
                    other => EngineError::Matrix(other),
                })?;
            }
            ComputeOp::LuInPlace { pivot_base, .. } => {
                let mut view = dst.rect_view_mut().map_err(EngineError::Memory)?;
                lu_view_in_place(&mut view).map_err(|e| match e {
                    MatrixError::SingularPivot { pivot } => {
                        EngineError::Matrix(MatrixError::SingularPivot {
                            pivot: pivot + pivot_base,
                        })
                    }
                    other => EngineError::Matrix(other),
                })?;
            }
            ComputeOp::TrsmRightStep {
                seg, col, pivot, ..
            } => {
                let seg = bufs.get(seg).ok_or_else(|| missing(*seg))?.as_slice();
                let mut xv = dst.rect_view_mut().map_err(EngineError::Memory)?;
                let (rc, cc) = (xv.rows(), xv.cols());
                let kk = *col;
                if kk >= cc || seg.len() < cc - kk {
                    return Err(short_segment(
                        "TrsmRightStep",
                        seg.len(),
                        cc.saturating_sub(kk),
                    ));
                }
                let diag = seg[0];
                if diag == T::ZERO || !diag.is_finite_scalar() {
                    return Err(EngineError::Matrix(MatrixError::SingularPivot {
                        pivot: *pivot,
                    }));
                }
                let inv = diag.recip();
                for r in 0..rc {
                    let v = xv.get(r, kk) * inv;
                    xv.set(r, kk, v);
                }
                for j in (kk + 1)..cc {
                    let ljk = seg[j - kk];
                    if ljk == T::ZERO {
                        continue;
                    }
                    for r in 0..rc {
                        let v = xv.get(r, j) - xv.get(r, kk) * ljk;
                        xv.set(r, j, v);
                    }
                }
            }
            ComputeOp::LuColSolveStep {
                seg, col, pivot, ..
            } => {
                let seg = bufs.get(seg).ok_or_else(|| missing(*seg))?.as_slice();
                let kk = *col;
                let mut tv = dst.rect_view_mut().map_err(EngineError::Memory)?;
                if kk >= tv.cols() || seg.len() < kk + 1 {
                    return Err(short_segment("LuColSolveStep", seg.len(), kk + 1));
                }
                let diag = seg[kk];
                if diag == T::ZERO || !diag.is_finite_scalar() {
                    return Err(EngineError::Matrix(MatrixError::SingularPivot {
                        pivot: *pivot,
                    }));
                }
                let inv = diag.recip();
                let ic = tv.rows();
                for (q, &uqk) in seg.iter().enumerate().take(kk) {
                    if uqk == T::ZERO {
                        continue;
                    }
                    for r in 0..ic {
                        let v = tv.get(r, kk) - tv.get(r, q) * uqk;
                        tv.set(r, kk, v);
                    }
                }
                for r in 0..ic {
                    let v = tv.get(r, kk) * inv;
                    tv.set(r, kk, v);
                }
            }
            ComputeOp::LuRowElimStep { seg, row, .. } => {
                let seg = bufs.get(seg).ok_or_else(|| missing(*seg))?.as_slice();
                let kk = *row;
                let mut tv = dst.rect_view_mut().map_err(EngineError::Memory)?;
                if kk >= tv.rows() || seg.len() > tv.rows() - kk - 1 {
                    return Err(short_segment(
                        "LuRowElimStep",
                        seg.len(),
                        tv.rows().saturating_sub(kk + 1),
                    ));
                }
                let jc = tv.cols();
                for (off, &lik) in seg.iter().enumerate() {
                    if lik == T::ZERO {
                        continue;
                    }
                    let i = kk + 1 + off;
                    for c in 0..jc {
                        let v = tv.get(i, c) - lik * tv.get(kk, c);
                        tv.set(i, c, v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Replays `schedule` against a data-less [`SymbolicMachine`]: the
    /// returned [`IoStats`] are what [`Engine::execute`] leaves in a
    /// machine's counters (same loads, stores, events, flops, peak residency
    /// and per-phase attribution) — by construction, since both machines
    /// count through the same ledger — computed without data or capacity
    /// limits. A step the replay rejects ends the accounting there.
    ///
    /// Transfers of groups with no phase label are attributed to
    /// `default_phase` — pass the machine's current phase (usually
    /// `"main"`).
    ///
    /// ```
    /// use symla_memory::{MatrixId, Region};
    /// use symla_sched::{Engine, ScheduleBuilder};
    ///
    /// // Dry runs need no machine: synthetic ids are enough.
    /// let id = MatrixId::synthetic(0);
    /// let mut b = ScheduleBuilder::<f64>::new();
    /// let c = b.load(id, Region::rect(0, 0, 3, 3));
    /// let a = b.load(id, Region::col_segment(3, 0, 3));
    /// b.discard(a);
    /// b.store(c);
    /// let stats = Engine::dry_run(&b.finish(), "main");
    /// assert_eq!(stats.volume.loads, 12);
    /// assert_eq!(stats.volume.stores, 9);
    /// assert_eq!(stats.peak_resident, 12);
    /// assert_eq!(stats.phase("main").loads, 12);
    /// ```
    pub fn dry_run<T: Scalar>(schedule: &Schedule<T>, default_phase: &str) -> IoStats {
        Self::dry_run_with(schedule, default_phase, &EngineConfig::default(), None)
    }

    /// [`Engine::dry_run`] of the **prefetching** replay: models the exact
    /// accounting [`Engine::execute_with`] leaves in a machine of capacity
    /// `capacity` — same volumes, events, flops and per-phase split as the
    /// plain dry run, plus the overlapped/stalled load split
    /// ([`IoStats::prefetched_elements`] / `prefetch_events` /
    /// [`IoStats::stalled_loads`]) and the *prefetch-inflated* peak
    /// residency (which by planner admission never exceeds `capacity`).
    /// This is how the benefit of a lookahead is quantified without timing
    /// noise: the modelled overlap is the load volume removed from the
    /// critical path.
    ///
    /// ```
    /// use symla_memory::{MatrixId, Region};
    /// use symla_sched::{Engine, EngineConfig, ScheduleBuilder};
    ///
    /// let id = MatrixId::synthetic(0);
    /// let mut b = ScheduleBuilder::<f64>::new();
    /// for i in 0..2 {
    ///     b.begin_group();
    ///     let x = b.load(id, Region::rect(2 * i, 0, 2, 2));
    ///     b.store(x);
    /// }
    /// let schedule = b.finish();
    /// let stats = Engine::dry_run_with(
    ///     &schedule, "main", &EngineConfig::with_lookahead(1), Some(8),
    /// );
    /// // Group 1's load was issued while group 0 computed ...
    /// assert_eq!(stats.prefetched_elements, 4);
    /// assert_eq!(stats.stalled_loads(), 4);
    /// // ... at the price of double-buffered residency.
    /// assert_eq!(stats.peak_resident, 8);
    /// assert_eq!(stats.volume.loads, 8); // volumes never change
    /// ```
    pub fn dry_run_with<T: Scalar>(
        schedule: &Schedule<T>,
        default_phase: &str,
        config: &EngineConfig,
        capacity: Option<usize>,
    ) -> IoStats {
        let mut machine = SymbolicMachine::new(MachineConfig::unlimited());
        machine.set_phase(default_phase);
        let plan = PrefetchPlan::plan(schedule, config.lookahead, capacity);
        let _ = Self::execute_planned(&mut machine, schedule, &plan);
        machine.into_accounting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ScheduleBuilder;
    use crate::timing::modelled_run_trace;
    use symla_matrix::kernels::FlopCount;
    use symla_matrix::Matrix;
    use symla_memory::{Level, MachineConfig, MatrixId, OocMachine, Region};
    use symla_obs::{EventKind, RunTrace};

    /// A tiny rank-1 update schedule used by the mode-equivalence tests.
    fn rank1_schedule(id: MatrixId) -> Schedule<f64> {
        let mut b = ScheduleBuilder::new();
        b.begin_group();
        let c = b.load(id, Region::rect(0, 0, 3, 3));
        let x = b.load(id, Region::col_segment(3, 0, 3));
        b.compute(ComputeOp::Ger {
            alpha: 2.0,
            x: BufSlice::whole(x, 3),
            y: BufSlice::whole(x, 3),
            dst: c,
        });
        b.flops(FlopCount::new(9, 9));
        b.discard(x);
        b.store(c);
        b.finish()
    }

    #[test]
    fn execute_dry_run_and_trace_agree() {
        let a = Matrix::<f64>::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let mut machine = OocMachine::new(MachineConfig::with_capacity(16));
        let id = machine.insert_dense(a.clone());
        let schedule = rank1_schedule(id);

        Engine::execute(&mut machine, &schedule).unwrap();
        let stats = machine.stats().clone();
        assert_eq!(stats, Engine::dry_run(&schedule, "main"));
        assert_eq!(stats.volume.loads, 12);
        assert_eq!(stats.volume.stores, 9);
        assert_eq!(stats.peak_resident, 12);
        assert_eq!(stats.flops.mults, 9);

        // the kernel really ran: C[0,0] += 2 * A[0,3]^2
        let out = machine.take_dense(id).unwrap();
        assert_eq!(out[(0, 0)], a[(0, 0)] + 2.0 * a[(0, 3)] * a[(0, 3)]);
    }

    #[test]
    fn phases_are_attributed_per_group() {
        let mut b = ScheduleBuilder::<f64>::new();
        let id = MatrixId::synthetic(0);
        b.set_phase("alpha");
        b.begin_group();
        let x = b.load(id, Region::rect(0, 0, 2, 2));
        b.discard(x);
        b.set_phase("beta");
        b.begin_group();
        let y = b.load(id, Region::rect(0, 0, 5, 1));
        b.store(y);
        let schedule = b.finish();

        let stats = Engine::dry_run(&schedule, "main");
        assert_eq!(stats.phase("alpha").loads, 4);
        assert_eq!(stats.phase("beta").loads, 5);
        assert_eq!(stats.phase("beta").stores, 5);
        assert_eq!(stats.phase("main").total(), 0);
        assert_eq!(stats.peak_resident, 5);
    }

    #[test]
    fn unphased_groups_inherit_the_default_phase() {
        let mut b = ScheduleBuilder::<f64>::new();
        let id = MatrixId::synthetic(0);
        let x = b.load(id, Region::rect(0, 0, 2, 3));
        b.store(x);
        let schedule = b.finish();
        let stats = Engine::dry_run(&schedule, "lbc:trailing");
        assert_eq!(stats.phase("lbc:trailing").loads, 6);
        assert_eq!(stats.phase("lbc:trailing").stores, 6);
    }

    #[test]
    fn execute_rejects_malformed_schedules() {
        let mut machine = OocMachine::<f64>::with_capacity(100);
        let id = machine.insert_dense(Matrix::zeros(4, 4));

        // store of a never-loaded buffer
        let mut b = ScheduleBuilder::<f64>::new();
        b.store(99);
        let err = Engine::execute(&mut machine, &b.finish()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSchedule(_)));
        assert!(err.to_string().contains("99"));

        // buffer left resident at the end
        let mut b = ScheduleBuilder::<f64>::new();
        b.load(id, Region::rect(0, 0, 1, 1));
        let err = Engine::execute(&mut machine, &b.finish()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSchedule(_)));
    }

    #[test]
    fn failed_execution_releases_resident_buffers() {
        // A schedule that errors mid-flight (second load exceeds capacity
        // while the first buffer is resident) must leave the machine's
        // accounting clean: nothing resident, no leases outstanding.
        let mut machine = OocMachine::<f64>::with_capacity(10);
        let id = machine.insert_dense(Matrix::zeros(4, 4));
        let mut b = ScheduleBuilder::<f64>::new();
        let x = b.load(id, Region::rect(0, 0, 3, 3));
        let y = b.load(id, Region::rect(0, 0, 2, 2)); // 9 + 4 > 10
        b.discard(y);
        b.discard(x);
        let err = Engine::execute(&mut machine, &b.finish()).unwrap_err();
        assert!(matches!(err, EngineError::Memory(_)));
        assert_eq!(machine.resident(), 0);
        assert!(machine.take_dense(id).is_ok(), "no leases left behind");
    }

    /// `load b0 <- A[0..2, 0..2]; load b0 <- A[2..4, 2..4]; store b0`: the
    /// second load rebinds a buffer that is still live.
    fn rebinding_group(id: MatrixId) -> TaskGroup<f64> {
        let load = |r0| Step::Load {
            matrix: id,
            region: Region::rect(r0, r0, 2, 2),
            dst: 0,
            level: Level::default(),
        };
        let store = Step::Store {
            buf: 0,
            level: Level::default(),
        };
        TaskGroup {
            phase: None,
            steps: vec![load(0), load(2), store],
        }
    }

    #[test]
    fn rebinding_a_live_buffer_is_rejected_and_strands_nothing() {
        let mut machine = OocMachine::<f64>::with_capacity(100);
        let id = machine.insert_dense(Matrix::zeros(4, 4));
        let schedule = Schedule {
            groups: vec![rebinding_group(id)],
        };
        let err = Engine::execute(&mut machine, &schedule).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSchedule(_)), "{err}");
        assert!(err.to_string().contains("buffer 0"), "{err}");
        assert_eq!(machine.resident(), 0);
        assert!(machine.take_dense(id).is_ok(), "no leases left behind");

        // The same group on a parallel worker.
        let shared = SharedSlowMemory::new();
        let id = shared.insert_dense(Matrix::<f64>::zeros(4, 4));
        let schedule = Schedule {
            groups: vec![rebinding_group(id)],
        };
        let config = MachineConfig::with_capacity(100);
        let err = Engine::execute_parallel(&shared, &schedule, 2, config, "main").unwrap_err();
        assert!(
            matches!(err.error, EngineError::InvalidSchedule(_)),
            "{err}"
        );
        assert_eq!(err.group, Some(0));
        assert!(shared.take_dense(id).is_ok(), "no leases left behind");
    }

    #[test]
    fn a_repeated_prefetch_issue_from_bytes_is_rejected_and_strands_nothing() {
        let mut machine = OocMachine::<f64>::with_capacity(100);
        let id = machine.insert_dense(Matrix::zeros(4, 4));
        let mut b = ScheduleBuilder::<f64>::new();
        for i in 0..2 {
            b.begin_group();
            let x = b.load(id, Region::rect(2 * i, 2 * i, 2, 2));
            b.store(x);
        }
        let schedule = b.finish();
        let plan = PrefetchPlan::plan(&schedule, 1, Some(100));
        assert_eq!(plan.issues_at(0).len(), 1);

        // The plan-cache disk form of the plan, with its boundary-0 issue
        // doubled.
        let mut issues = plan.issues.clone();
        let first = issues[0][0];
        issues[0].push(first);
        let doubled = PrefetchPlan::from_parts(issues, 8, 2);
        let bytes = schedule.to_bytes_with_plan(&doubled);
        let (decoded, decoded_plan) = Schedule::<f64>::from_bytes_with_plan(&bytes).unwrap();
        let err =
            Engine::execute_planned(&mut machine, &decoded, &decoded_plan.unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidArgument(_)), "{err}");
        assert_eq!(
            machine.stats().volume.loads,
            0,
            "rejected before any replay"
        );
        assert_eq!(machine.resident(), 0);
        assert!(machine.take_dense(id).is_ok(), "no leases left behind");

        // An issue at its own group's boundary is rejected the same way.
        let own = PrefetchPlan::from_parts(vec![vec![], plan.issues_at(0).to_vec()], 4, 1);
        let err = Engine::execute_planned(&mut machine, &schedule, &own).unwrap_err();
        assert!(matches!(err, EngineError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn short_solve_segments_are_rejected_not_panics() {
        let mut machine = OocMachine::<f64>::with_capacity(100);
        let id = machine.insert_dense(Matrix::zeros(6, 6));
        let mut b = ScheduleBuilder::<f64>::new();
        let tile = b.load(id, Region::rect(0, 0, 3, 3));
        let seg = b.load(id, Region::rect(0, 3, 1, 1)); // 1 element, needs 3
        b.compute(ComputeOp::TrsmRightStep {
            seg,
            dst: tile,
            col: 0,
            pivot: 0,
        });
        b.discard(seg);
        b.discard(tile);
        let err = Engine::execute(&mut machine, &b.finish()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSchedule(_)), "{err}");
        assert_eq!(machine.resident(), 0);
    }

    /// One independent group per diagonal `t x t` block of an `n x n` dense
    /// matrix: load the block, scale it by 2 with a Ger against a loaded
    /// one-column probe, store it back.
    fn diagonal_block_schedule(id: MatrixId, n: usize, t: usize) -> Schedule<f64> {
        let mut b = ScheduleBuilder::new();
        for i0 in (0..n).step_by(t) {
            let tc = t.min(n - i0);
            b.begin_group();
            let c = b.load(id, Region::rect(i0, i0, tc, tc));
            let x = b.load(id, Region::col_segment(i0, i0, tc));
            b.compute(ComputeOp::Ger {
                alpha: 1.0,
                x: BufSlice::whole(x, tc),
                y: BufSlice::whole(x, tc),
                dst: c,
            });
            b.flops(FlopCount::new((tc * tc) as u128, (tc * tc) as u128));
            b.discard(x);
            b.store(c);
        }
        b.finish()
    }

    /// Dry-run accounting of exactly the groups a worker processed.
    fn dry_run_of_groups(schedule: &Schedule<f64>, groups: &[usize]) -> IoStats {
        let picked = Schedule {
            groups: groups.iter().map(|&g| schedule.groups[g].clone()).collect(),
        };
        Engine::dry_run(&picked, "main")
    }

    #[test]
    fn parallel_execution_equals_serial_for_all_worker_counts() {
        let n = 24;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| ((i * n + j) % 13) as f64 - 6.0);
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);
        assert_eq!(schedule.num_groups(), 6);

        // Serial reference execution.
        let mut machine = OocMachine::new(MachineConfig::with_capacity(20));
        let serial_id = machine.insert_dense(a.clone());
        Engine::execute(&mut machine, &schedule).unwrap();
        let expected = machine.take_dense(serial_id).unwrap();
        let dry = Engine::dry_run(&schedule, "main");

        for workers in [1, 2, 4, 8] {
            let shared = SharedSlowMemory::new();
            let id = shared.insert_dense(a.clone());
            let runs = Engine::execute_parallel(
                &shared,
                &schedule,
                workers,
                MachineConfig::with_capacity(20),
                "main",
            )
            .unwrap();
            assert_eq!(runs.len(), workers);

            // Every group ran exactly once.
            let mut all: Vec<usize> = runs.iter().flat_map(|r| r.groups.clone()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..schedule.num_groups()).collect::<Vec<_>>());

            // Summed per-worker accounting equals the serial dry run, and
            // each worker's stats equal the dry run of its own groups.
            assert_eq!(WorkerRun::merged_stats(&runs), dry, "P={workers}");
            for (w, run) in runs.iter().enumerate() {
                assert_eq!(
                    run.stats,
                    dry_run_of_groups(&schedule, &run.groups),
                    "P={workers} worker {w}"
                );
            }

            // The computed result is bitwise-equal to the serial execution.
            let got = shared.take_dense(id).unwrap();
            assert_eq!(got, expected, "P={workers}");
        }
    }

    #[test]
    fn single_worker_reproduces_the_serial_trace() {
        let n = 12;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| (i + 2 * j) as f64);
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);
        let shared = SharedSlowMemory::new();
        shared.insert_dense(a);
        let (model, recorder) = (MachineModel::dram(), TraceRecorder::new());
        let runs = Engine::execute_parallel_traced(
            &shared,
            &schedule,
            1,
            MachineConfig::with_capacity(20),
            "main",
            &EngineConfig::default(),
            &model,
            &recorder,
        )
        .unwrap();
        // One worker claims the groups in order, so apart from its claims
        // it records the event stream of the serial replay.
        let kinds = |trace: RunTrace| -> Vec<EventKind> {
            let events = trace.events().iter().map(|e| e.kind);
            events
                .filter(|k| !matches!(k, EventKind::Claim { .. }))
                .collect()
        };
        let serial = kinds(modelled_run_trace(&schedule, &model, 0, None));
        // Per group: its span, two loads, the kernel, flops, discard, store.
        assert_eq!(serial.len(), 3 * 8);
        assert_eq!(kinds(recorder.finish()), serial);
        assert_eq!(runs[0].groups, vec![0, 1, 2]);
    }

    #[test]
    fn more_workers_than_groups_leaves_spare_workers_idle_but_consistent() {
        let n = 8;
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);
        assert_eq!(schedule.num_groups(), 2);
        let shared = SharedSlowMemory::new();
        shared.insert_dense(Matrix::<f64>::identity(n));
        let runs = Engine::execute_parallel(
            &shared,
            &schedule,
            8,
            MachineConfig::with_capacity(20),
            "main",
        )
        .unwrap();
        assert_eq!(runs.len(), 8);
        let busy: usize = runs.iter().filter(|r| !r.groups.is_empty()).count();
        assert!(busy <= 2, "only two groups exist");
        for run in &runs {
            if run.groups.is_empty() {
                assert_eq!(run.stats, IoStats::new(), "idle workers count nothing");
            }
        }
        assert_eq!(
            WorkerRun::merged_stats(&runs),
            Engine::dry_run(&schedule, "main")
        );
    }

    #[test]
    fn an_empty_group_and_an_empty_schedule_execute_trivially() {
        let shared = SharedSlowMemory::<f64>::new();
        shared.insert_dense(Matrix::zeros(2, 2));

        // A hand-built schedule holding one empty group (the builder drops
        // empty groups, so construct it directly).
        let schedule = Schedule {
            groups: vec![TaskGroup::default()],
        };
        let runs =
            Engine::execute_parallel(&shared, &schedule, 4, MachineConfig::unlimited(), "main")
                .unwrap();
        let done: usize = runs.iter().map(|r| r.groups.len()).sum();
        assert_eq!(done, 1, "the empty group still counts as processed");
        assert_eq!(WorkerRun::merged_stats(&runs), IoStats::new());

        let empty = Schedule::<f64>::default();
        let runs = Engine::execute_parallel(&shared, &empty, 3, MachineConfig::unlimited(), "main")
            .unwrap();
        assert!(runs.iter().all(|r| r.groups.is_empty()));
    }

    #[test]
    fn zero_workers_are_rejected_without_fabricated_indices() {
        let shared = SharedSlowMemory::<f64>::new();
        let err = Engine::execute_parallel(
            &shared,
            &Schedule::default(),
            0,
            MachineConfig::unlimited(),
            "main",
        )
        .unwrap_err();
        assert!(matches!(err.error, EngineError::InvalidArgument(_)));
        // Regression: the invalid-argument rejection used to claim worker 0
        // failed on group 0 — indices that never existed. No worker ran and
        // no group was attempted, and the error says so.
        assert_eq!(err.worker, None);
        assert_eq!(err.group, None);
        assert!(err.runs.is_empty());
        assert!(err.to_string().contains("rejected"), "{err}");
        assert!(!err.to_string().contains("worker 0"), "{err}");
    }

    #[test]
    fn failing_group_aborts_propagates_and_keeps_other_workers_consistent() {
        let n = 24;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| (i * n + j + 1) as f64);
        let id = MatrixId::synthetic(0);
        let mut schedule = diagonal_block_schedule(id, n, 4);
        // Corrupt group 3: its compute references a buffer that is never
        // loaded, so replay fails mid-group with two buffers resident.
        let poisoned_buf = 9999;
        schedule.groups[3].steps.insert(
            2,
            Step::Compute(ComputeOp::Ger {
                alpha: 1.0,
                x: BufSlice::whole(poisoned_buf, 4),
                y: BufSlice::whole(poisoned_buf, 4),
                dst: poisoned_buf,
            }),
        );

        let shared = SharedSlowMemory::new();
        let sid = shared.insert_dense(a.clone());
        let err = Engine::execute_parallel(
            &shared,
            &schedule,
            2,
            MachineConfig::with_capacity(20),
            "main",
        )
        .unwrap_err();

        // The error names the failing group and propagates the cause.
        assert_eq!(err.group, Some(3));
        assert!(matches!(err.error, EngineError::InvalidSchedule(_)));
        assert!(err.to_string().contains("task group 3"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(err.runs.len(), 2);

        // Completed groups are fully accounted on their workers: each run's
        // stats equal the dry run of its completed groups, plus — for the
        // failing worker only — the partial loads of group 3.
        let failing_worker = err.worker.expect("a worker replayed the poisoned group");
        let failing = &err.runs[failing_worker];
        assert!(!failing.groups.contains(&3));
        let mut expected = dry_run_of_groups(&schedule, &failing.groups);
        // group 3 loaded its 4x4 block and its 4-element probe before dying
        expected.record_load(16, "main");
        expected.record_load(4, "main");
        expected.observe_resident(20);
        assert_eq!(failing.stats.volume, expected.volume);
        assert_eq!(failing.stats.load_events, expected.load_events);
        for (w, run) in err.runs.iter().enumerate() {
            if w != failing_worker {
                assert_eq!(
                    run.stats,
                    dry_run_of_groups(&schedule, &run.groups),
                    "worker {w}"
                );
            }
        }

        // The failed group's buffers were released: no leases are left, the
        // matrix can be taken out, and only completed groups touched it.
        let got = shared.take_dense(sid).unwrap();
        let done: Vec<usize> = err.runs.iter().flat_map(|r| r.groups.clone()).collect();
        for g in 0..schedule.num_groups() {
            let i0 = g * 4;
            let untouched = a[(i0, i0)];
            if done.contains(&g) {
                assert_ne!(got[(i0, i0)], untouched, "group {g} should have landed");
            } else {
                assert_eq!(got[(i0, i0)], untouched, "group {g} must not have landed");
            }
        }
    }

    #[test]
    fn parallel_groups_must_be_self_contained() {
        // A buffer loaded in one group and stored in the next is legal in
        // serial mode but rejected by the parallel path.
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let buf = b.load(id, Region::rect(0, 0, 2, 2));
        b.begin_group();
        b.store(buf);
        let schedule = b.finish();

        let shared = SharedSlowMemory::new();
        shared.insert_dense(Matrix::<f64>::zeros(4, 4));
        let err =
            Engine::execute_parallel(&shared, &schedule, 1, MachineConfig::unlimited(), "main")
                .unwrap_err();
        assert!(matches!(err.error, EngineError::InvalidSchedule(_)));
        assert!(err.to_string().contains("left resident"), "{err}");

        // The serial path still accepts it.
        let mut machine = OocMachine::<f64>::with_capacity(16);
        let mid = machine.insert_dense(Matrix::zeros(4, 4));
        let schedule2 = {
            let mut b = ScheduleBuilder::<f64>::new();
            b.begin_group();
            let buf = b.load(mid, Region::rect(0, 0, 2, 2));
            b.begin_group();
            b.store(buf);
            b.finish()
        };
        Engine::execute(&mut machine, &schedule2).unwrap();
    }

    #[test]
    fn prefetching_execute_matches_its_dry_run_and_trace() {
        let n = 24;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| ((i * n + j) % 11) as f64 - 5.0);
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);

        // Reference: plain replay.
        let mut plain = OocMachine::new(MachineConfig::with_capacity(40));
        let plain_id = plain.insert_dense(a.clone());
        Engine::execute(&mut plain, &schedule).unwrap();
        let expected = plain.take_dense(plain_id).unwrap();

        for lookahead in [1usize, 2, 5] {
            let config = EngineConfig::with_lookahead(lookahead);
            let mut machine = OocMachine::new(MachineConfig::with_capacity(40));
            let id = machine.insert_dense(a.clone());
            Engine::execute_with(&mut machine, &schedule, &config).unwrap();

            // execute == dry-run, at the same config and capacity.
            let dry = Engine::dry_run_with(&schedule, "main", &config, Some(40));
            assert_eq!(machine.stats(), &dry, "lookahead {lookahead}");

            // Overlap is real, volumes and phases unchanged, capacity held.
            let plain_dry = Engine::dry_run(&schedule, "main");
            assert!(dry.prefetched_elements > 0, "lookahead {lookahead}");
            assert_eq!(dry.volume, plain_dry.volume);
            assert_eq!(dry.load_events, plain_dry.load_events);
            assert_eq!(dry.per_phase, plain_dry.per_phase);
            assert!(dry.peak_resident <= 40);
            assert!(dry.peak_resident >= plain_dry.peak_resident);

            // The computed result is bitwise-equal to the plain replay.
            assert_eq!(machine.take_dense(id).unwrap(), expected);
        }

        // Lookahead 0 is exactly the plain mode.
        assert_eq!(
            Engine::dry_run_with(&schedule, "main", &EngineConfig::default(), Some(40)),
            Engine::dry_run(&schedule, "main")
        );
    }

    #[test]
    fn prefetch_respects_a_tight_capacity() {
        // Capacity exactly one group's footprint: no slack, no prefetch,
        // and the replay still succeeds.
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), 12, 4);
        let dry = Engine::dry_run(&schedule, "main");
        let cap = dry.peak_resident;
        let config = EngineConfig::with_lookahead(1);
        let mut machine = OocMachine::new(MachineConfig::with_capacity(cap));
        machine.insert_dense(Matrix::<f64>::identity(12));
        Engine::execute_with(&mut machine, &schedule, &config).unwrap();
        assert_eq!(machine.stats().prefetched_elements, 0);
        assert_eq!(machine.stats().peak_resident, dry.peak_resident);
    }

    #[test]
    fn prefetching_phase_attribution_is_unchanged() {
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        b.set_phase("alpha");
        b.begin_group();
        let x = b.load(id, Region::rect(0, 0, 2, 2));
        b.discard(x);
        b.set_phase("beta");
        b.begin_group();
        let y = b.load(id, Region::rect(4, 4, 2, 2));
        b.discard(y);
        let schedule = b.finish();
        let config = EngineConfig::with_lookahead(1);
        let stats = Engine::dry_run_with(&schedule, "main", &config, Some(8));
        // Group 1's load was prefetched at group 0's boundary but stays
        // attributed to its consuming phase.
        assert_eq!(stats.prefetched_elements, 4);
        assert_eq!(stats.phase("alpha").loads, 4);
        assert_eq!(stats.phase("beta").loads, 4);
        assert_eq!(stats.peak_resident, 8);
    }

    #[test]
    fn parallel_prefetch_keeps_results_volumes_and_capacity() {
        let n = 24;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 9) as f64 - 4.0);
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);
        let dry = Engine::dry_run(&schedule, "main");

        // Serial reference.
        let mut machine = OocMachine::new(MachineConfig::with_capacity(40));
        let serial_id = machine.insert_dense(a.clone());
        Engine::execute(&mut machine, &schedule).unwrap();
        let expected = machine.take_dense(serial_id).unwrap();

        for workers in [1usize, 2, 4] {
            for lookahead in [1usize, 2] {
                let shared = SharedSlowMemory::new();
                let id = shared.insert_dense(a.clone());
                let runs = Engine::execute_parallel_with(
                    &shared,
                    &schedule,
                    workers,
                    MachineConfig::with_capacity(40),
                    "main",
                    &EngineConfig::with_lookahead(lookahead),
                )
                .unwrap();
                let ctx = format!("P={workers} L={lookahead}");

                let merged = WorkerRun::merged_stats(&runs);
                assert_eq!(merged.volume, dry.volume, "{ctx}");
                assert_eq!(merged.load_events, dry.load_events, "{ctx}");
                assert_eq!(merged.flops, dry.flops, "{ctx}");
                for (w, run) in runs.iter().enumerate() {
                    assert!(run.stats.peak_resident <= 40, "{ctx} worker {w}");
                }
                // A single pipelined worker genuinely overlaps.
                if workers == 1 {
                    assert!(merged.prefetched_elements > 0, "{ctx}");
                }
                assert!(WorkerRun::aggregate_peak(&runs) >= merged.peak_resident);

                let got = shared.take_dense(id).unwrap();
                assert_eq!(got, expected, "{ctx}");
            }
        }
    }

    /// A worker machine that panics when it is asked to load `poison`.
    struct PanicsOnLoad<'m> {
        inner: symla_memory::WorkerMachine<'m, f64>,
        poison: Region,
    }

    impl MachineOps<f64> for PanicsOnLoad<'_> {
        fn load(&mut self, id: MatrixId, region: Region) -> symla_memory::Result<FastBuf<f64>> {
            assert!(region != self.poison, "injected load failure");
            self.inner.load(id, region)
        }
        fn allocate_zeroed(
            &mut self,
            id: MatrixId,
            region: Region,
        ) -> symla_memory::Result<FastBuf<f64>> {
            self.inner.allocate_zeroed(id, region)
        }
        fn store(&mut self, buf: FastBuf<f64>) -> symla_memory::Result<()> {
            self.inner.store(buf)
        }
        fn discard(&mut self, buf: FastBuf<f64>) -> symla_memory::Result<()> {
            self.inner.discard(buf)
        }
        fn record_flops(&mut self, flops: FlopCount) {
            self.inner.record_flops(flops);
        }
        fn set_phase(&mut self, phase: &str) {
            self.inner.set_phase(phase);
        }
        fn phase(&self) -> &str {
            MachineOps::phase(&self.inner)
        }
        fn capacity(&self) -> Option<usize> {
            MachineOps::capacity(&self.inner)
        }
        fn note_prefetch(&mut self, elements: usize) {
            self.inner.note_prefetch(elements);
        }
    }

    #[test]
    fn a_panicking_worker_fails_the_run_instead_of_the_caller() {
        let n = 24;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| (i * n + j) as f64);
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);
        let shared = SharedSlowMemory::new();
        let id = shared.insert_dense(a);
        // Whichever worker claims group 3 panics on that group's first load.
        let err = Engine::execute_parallel_core(
            &schedule,
            2,
            0,
            "main",
            |_| PanicsOnLoad {
                inner: shared.worker(MachineConfig::with_capacity(20)),
                poison: Region::rect(12, 12, 4, 4),
            },
            |m| m.inner.into_accounting(),
        )
        .unwrap_err();

        let failing = err.worker.expect("the error names the worker");
        assert_eq!(err.group, Some(3));
        assert!(matches!(&err.error, EngineError::WorkerPanicked(msg) if msg.contains("injected")));
        assert!(
            err.to_string().contains(&format!("worker {failing}")),
            "{err}"
        );
        // Every worker's accounting is kept: each equals the dry run of the
        // groups it completed (the poisoned load moved nothing).
        assert_eq!(err.runs.len(), 2);
        for (w, run) in err.runs.iter().enumerate() {
            assert!(!run.groups.contains(&3));
            assert_eq!(
                run.stats,
                dry_run_of_groups(&schedule, &run.groups),
                "worker {w}"
            );
        }
        // No lease was left behind.
        assert!(shared.take_dense(id).is_ok());
    }

    #[test]
    fn capacity_violations_surface_as_memory_errors() {
        let mut machine = OocMachine::<f64>::with_capacity(4);
        let id = machine.insert_dense(Matrix::zeros(4, 4));
        let mut b = ScheduleBuilder::<f64>::new();
        let x = b.load(id, Region::rect(0, 0, 3, 3));
        b.discard(x);
        let err = Engine::execute(&mut machine, &b.finish()).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Memory(MemoryError::CapacityExceeded { .. })
        ));
        assert!(std::error::Error::source(&err).is_some());
    }
}
