//! The schedule-IR execution engine, re-exported at the workspace's
//! top level.
//!
//! All seven out-of-core algorithms of this workspace — [`crate::tbs`]
//! (element and tiled TBS), [`crate::lbc`] and the five baselines of
//! `symla_baselines` — are *schedule builders*: they emit the IR of
//! [`symla_sched::ir`] instead of driving the machine directly. The
//! [`Engine`] replays a built [`Schedule`] through one replay loop; the
//! machine it drives decides what the replay means:
//!
//! * **execute** — [`Engine::execute`] runs the schedule against any
//!   [`symla_memory::MachineOps`] machine (normally the serial
//!   [`symla_memory::OocMachine`]), with real kernels on real buffers and
//!   capacity-checked, counted transfers. This is what every `*_execute`
//!   wrapper does.
//! * **execute-parallel** — [`Engine::execute_parallel`] distributes a
//!   schedule with independent task groups over `P` workers of a
//!   [`symla_memory::SharedSlowMemory`] through a work-stealing queue; each
//!   worker has a private capacity-checked fast memory counting its own
//!   [`symla_memory::IoStats`]. `symla_core::parallel` builds on this for
//!   the parallel SYRK extension.
//! * **dry-run** — [`Engine::dry_run`] replays the schedule against a
//!   data-less [`symla_memory::SymbolicMachine`] and returns its
//!   [`symla_memory::IoStats`]: exactly what an execution produces (loads,
//!   stores, events, flops, peak residency, per-phase split), since both
//!   machines count through the same ledger, without touching data. Dry
//!   runs agree element-for-element with the analytic `*_cost` models,
//!   which the equivalence tests assert.
//! * **trace** — [`Engine::trace`] reads the [`symla_memory::Trace`] of the
//!   same symbolic replay, for schedule inspection and bound verification,
//!   again without executing kernels.
//! * **execute-prefetch** — every replay above also exists in a prefetching
//!   variant ([`Engine::execute_with`], [`Engine::dry_run_with`],
//!   [`Engine::trace_with`], [`Engine::execute_parallel_with`]) taking an
//!   [`EngineConfig`]: with `lookahead = L > 0` the engine double-buffers
//!   the load stream, issuing the `Load` steps of up to `L` future task
//!   groups while the current group computes. The
//!   [`symla_sched::prefetch`] planner admits only loads that fit the
//!   capacity slack `S − footprint` and read fresh data, so results stay
//!   bitwise-identical and peak residency never exceeds the capacity; the
//!   overlapped/stalled split is reported in
//!   [`symla_memory::IoStats::prefetched_elements`].
//!
//! The cross-mode invariant (checked by `tests/engine_equivalence.rs`): a
//! serial execution leaves the machine's stats equal to the dry run and its
//! trace equal to the synthesized trace; a parallel execution leaves the
//! *sum* of the per-worker stats equal to the dry run, each worker's stats
//! equal to the dry run of the groups it processed, and the slow-memory
//! contents bitwise-identical to the serial execution's.
//!
//! Between the builders and the engine sits the **pass layer**
//! ([`crate::passes`], re-exported from `symla_sched::passes`): IR-to-IR
//! rewrites that eliminate redundant loads, coalesce contiguous transfers,
//! kill dead stores and reorder independent task groups for locality. The
//! engine replays an optimized schedule through the very same entry points —
//! serial and parallel — with no special cases; the equivalence tests hold
//! optimized schedules to bitwise-identical execution results and
//! never-increased dry-run transfers.
//!
//! The engine itself lives in `symla-sched` (below `symla-baselines` in the
//! dependency order, so the baselines can build on it); this module is its
//! canonical access point for downstream users.
//!
//! ## Example: dry-running TBS
//!
//! ```
//! use symla_core::engine::Engine;
//! use symla_core::{tbs_schedule, tbs_cost, TbsPlan};
//! use symla_baselines::IoEstimate;
//! use symla_memory::{MatrixId, PanelRef, SymWindowRef};
//!
//! let (n, m, s) = (30, 6, 10);
//! let plan = TbsPlan::for_memory(s).unwrap();
//! // Schedules can be built (and analyzed) without a machine: ids only need
//! // to be consistent within the schedule.
//! let a = PanelRef::dense(MatrixId::synthetic(0), n, m);
//! let c = SymWindowRef::full(MatrixId::synthetic(1), n);
//! let schedule = tbs_schedule::<f64>(&a, &c, 1.0, &plan).unwrap();
//! let stats = Engine::dry_run(&schedule, "main");
//! assert_eq!(IoEstimate::from_stats(&stats), tbs_cost(n, m, &plan).unwrap());
//! ```

pub use symla_sched::engine::{Engine, EngineConfig, EngineError, ParallelError, WorkerRun};
pub use symla_sched::ir::{
    BufId, BufSlice, ComputeOp, Schedule, ScheduleBuilder, ScheduleParseError, Step, TaskGroup,
};
pub use symla_sched::prefetch::{PrefetchIssue, PrefetchPlan};
pub use symla_sched::timing::{modelled_run_trace, modelled_time, modelled_time_planned};
