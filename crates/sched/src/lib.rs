//! # symla-sched
//!
//! Combinatorial machinery behind the lower bounds and the triangle-block
//! schedules of *"I/O-Optimal Algorithms for Symmetric Linear Algebra
//! Kernels"* (SPAA'22):
//!
//! * [`ops`] — the operation sets `S` (SYRK) and `C` (Cholesky updates);
//! * [`footprint`] — restrictions `E|k`, symmetric footprints `τ(·)` and the
//!   data-access count `D(E)` of Proposition 3.4;
//! * [`triangle`] — triangle blocks, `σ(m)` and the canonical sets `T(m)`;
//! * [`balanced`] — balanced solutions (Definition 4.2, Lemma 4.3);
//! * [`opt`] — the optimization problems `P′ / P′′` and the closed-form
//!   Theorem 4.1 bound, plus the resulting maximal operational intensities;
//! * [`indexing`] — cyclic indexing families and the coprimality machinery
//!   used to choose the TBS grid size `c` (Lemma 5.5);
//! * [`partition`] — the exact tiling of the result matrix by triangle
//!   blocks and diagonal zones (Figures 1–2);
//! * [`ir`] — the schedule intermediate representation: load / alloc /
//!   compute / store / discard [`ir::Step`]s grouped into independent
//!   [`ir::TaskGroup`]s, with a compact textual dump
//!   ([`ir::Schedule::dump`]);
//! * [`engine`] — the generic engine replaying a schedule against the
//!   machine model of `symla-memory` in execute or dry-run mode, and
//!   distributing independent task groups over the workers of a shared slow
//!   memory in execute-parallel mode; every mode has a prefetching variant
//!   (`*_with` + [`engine::EngineConfig`]) that double-buffers the load
//!   stream;
//! * [`prefetch`] — the lookahead planner behind those variants: per group
//!   boundary it admits the future loads that fit the capacity slack
//!   `S − footprint` and read fresh data;
//! * [`timing`] — the modelled wall-clock of a replay: prices a schedule's
//!   events against a `MachineModel` with the engine's per-group overlap
//!   windows, bitwise-equal to what a `LatencyMachine` measures during a
//!   real execution;
//! * [`autotune`] — the cost-model-driven autotuner: a beam search over
//!   tile size × pass pipeline × prefetch lookahead × worker count, every
//!   candidate scored *without execution* via dry-run stats and the
//!   modelled wall-clock, reported with its gap to the paper's
//!   `mults/√(S/2)` I/O lower bound;
//! * [`passes`] — the schedule-optimization layer: IR-to-IR rewrites
//!   (redundant-load elimination and coalescing, dead-store elimination,
//!   locality-driven group reordering) chained by a
//!   [`passes::PassManager`] that accounts every pass with engine dry runs
//!   and verifies semantic equivalence symbolically.
//!
//! The combinatorial modules are exact integer mathematics; the IR, engine
//! and passes are the execution substrate every out-of-core algorithm of
//! `symla-baselines` / `symla-core` is built on (those crates contain only
//! *schedule builders*): builders emit straightforward IR, the pass layer
//! recovers locality mechanically, the engine replays the result in any
//! mode.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autotune;
pub mod balanced;
pub mod binary;
pub mod engine;
pub mod footprint;
pub mod indexing;
pub mod ir;
pub mod ops;
pub mod opt;
pub mod partition;
pub mod passes;
pub mod prefetch;
pub mod timing;
pub mod triangle;

pub use autotune::{
    model_fingerprint, Candidate, TuneError, TunedConfig, Tuner, TuningReport, TuningSpace,
};
pub use balanced::BalancedSolution;
pub use binary::{stable_hash, BinaryError, StableHasher, FORMAT_VERSION};
pub use engine::{Engine, EngineConfig, EngineError, ParallelError, WorkerRun};
pub use footprint::{data_access, DataAccess};
pub use indexing::{largest_coprime_below, CyclicIndexing};
pub use ir::{BufId, BufSlice, ComputeOp, Schedule, ScheduleBuilder, Step, TaskGroup};
pub use ops::{Op, OpSet};
pub use opt::{max_oi_nonsymmetric_mults, max_oi_symmetric_mults, max_subcomputation_bound};
pub use partition::{partition_groups, NodeAssignment, PartitionStats, TbsPartition};
pub use passes::{Pass, PassError, PassManager, PassPipeline, PassReport};
pub use prefetch::{PrefetchIssue, PrefetchPlan};
pub use timing::{modelled_group_times, modelled_run_trace, modelled_time, modelled_time_planned};
pub use triangle::{canonical_t, sigma, triangle_block};
