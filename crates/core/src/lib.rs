//! # symla-core
//!
//! The primary contribution of *"I/O-Optimal Algorithms for Symmetric Linear
//! Algebra Kernels"* (Beaumont, Eyraud-Dubois, Vérité, Langou — SPAA 2022),
//! reproduced as an executable library:
//!
//! * [`tbs`] — **TBS**, the Triangular Block SYRK schedule (Algorithm 4),
//!   with I/O `N²M/(√2·√S) + N²/2 + O(NM log N)`, matching the paper's new
//!   lower bound, and its tiled variant (Section 5.1.4) usable at practical
//!   matrix sizes: one builder over one [`TbsPlan`], element TBS being
//!   tiled TBS with `b = 1`;
//! * [`lbc`] — **LBC**, the Large Block Cholesky factorization
//!   (Algorithm 5), with I/O `N³/(3·√2·√S) + O(N^{5/2})`;
//! * [`bounds`] — the paper's lower bounds, the prior bounds of the
//!   literature and the closed-form costs of every schedule;
//! * [`plan`] — parameter planners (`k`, `b`, block sizes) derived from the
//!   fast-memory capacity;
//! * [`oi`] — the operational-intensity comparison against GEMM / LU
//!   (the `√2` headline);
//! * [`api`] — one entry point per kernel (`*_out_of_core_with`) returning
//!   the factor/result together with a full I/O report, its modes
//!   (passes, prefetch, pricing, tracing, tuning, plan cache, parallel
//!   workers) chosen by one [`api::RunOptions`];
//! * [`engine`] — the schedule-IR execution engine: every algorithm above is
//!   a *schedule builder* whose IR the engine replays in execute, dry-run,
//!   trace or execute-parallel mode;
//! * [`passes`] — the schedule-optimization layer (re-exported from
//!   `symla_sched::passes`): a [`passes::PassManager`] chaining
//!   equivalence-verified IR rewrites (redundant-load elimination and
//!   coalescing, dead-store elimination, locality reordering), exposed as
//!   [`api::RunOptions::pipeline`] and A/B-accounted by the experiment
//!   harness;
//! * [`parallel`] — the paper's "future work" direction: SYRK on a
//!   sharded slow memory, whose task groups (the same ones a serial or
//!   [`api::RunOptions::workers`] run replays) are assigned statically to
//!   nodes, with per-node cross-shard accounting;
//! * [`service`] — the compile-once/replay-many serve layer: a
//!   [`service::PlanService`] backed by the content-addressed plan cache of
//!   `symla-plancache` (in-memory LRU + optional disk tier) that acquires
//!   plans by problem shape ([`api::Job`]) and replays cache hits with zero
//!   planner work ([`api::RunOptions::cached`]).
//!
//! All schedules execute on the capacity-enforced two-level machine of
//! `symla-memory` through the generic engine; their measured I/O is tested
//! to match their analytic cost models element for element, and their
//! numerical output is verified against the reference kernels of
//! `symla-matrix`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod bounds;
pub mod engine;
pub mod lbc;
pub mod oi;
pub mod parallel;
pub mod plan;
pub mod service;
pub mod tbs;

/// The schedule-optimization pass layer (see `symla_sched::passes`).
pub use symla_sched::passes;

/// The cost-model-driven autotuner (see `symla_sched::autotune`).
pub use symla_sched::autotune;

pub use api::{
    cholesky_out_of_core, cholesky_out_of_core_traced, cholesky_out_of_core_with,
    cholesky_tuning_space, gemm_out_of_core, gemm_out_of_core_with, gemm_tuning_space,
    syrk_out_of_core, syrk_out_of_core_traced, syrk_out_of_core_with, syrk_tuning_space,
    CholeskyAlgorithm, Job, Run, RunOptions, RunReport, Served, SyrkAlgorithm, TracedRun,
    WallClock,
};
pub use autotune::{Tuner, TuningReport, TuningSpace};
pub use engine::{Engine, EngineConfig, EngineError, Schedule, ScheduleBuilder};
pub use lbc::{
    lbc_build, lbc_cost, lbc_cost_breakdown, lbc_execute, lbc_schedule, LbcCostBreakdown,
};
pub use passes::{PassManager, PassPipeline};
pub use plan::{LbcPlan, TbsPlan, TrailingUpdate};
pub use service::{PlanService, SharedPlanService};
pub use tbs::{
    tbs_build, tbs_cost, tbs_decomposition, tbs_execute, tbs_schedule, TbsDecomposition,
};

/// The tiled-TBS names of the single TBS builder, for callers written
/// against them: a tiled plan is a [`TbsPlan`] whose `b` may exceed 1.
pub use crate::{
    plan::TbsPlan as TbsTiledPlan,
    tbs::{tbs_cost as tbs_tiled_cost, tbs_schedule as tbs_tiled_schedule},
};

// Re-export the companion crates so that downstream users (and the root
// `symla` facade) can reach the whole stack through one dependency.
pub use symla_baselines as baselines;
pub use symla_baselines::error::{OocError, Result};
pub use symla_baselines::params::IoEstimate;
pub use symla_matrix as matrix;
pub use symla_memory as memory;
pub use symla_plancache as plancache;
pub use symla_sched as sched;
