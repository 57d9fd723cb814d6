//! # symla-memory
//!
//! The two-level (fast/slow) out-of-core machine model of the SPAA'22 paper
//! *"I/O-Optimal Algorithms for Symmetric Linear Algebra Kernels"*.
//!
//! * Slow memory ([`storage::SlowMatrix`]) is unbounded and holds whole
//!   matrices.
//! * Fast memory has a capacity of `S` elements, enforced on every
//!   [`machine::OocMachine::load`].
//! * Every transfer is counted in [`stats::IoStats`]; the measured volumes
//!   are what the experiments compare against the paper's lower bounds and
//!   closed-form algorithm costs.
//! * An LRU / Belady-OPT [`cache`] replay simulator supports the
//!   "explicit control vs automatic caching" ablations.
//! * [`shared::SharedSlowMemory`] extends the model to the paper's parallel
//!   machine: one slow memory shared (behind interior synchronization) by
//!   `P` [`shared::WorkerMachine`] workers, each with a private
//!   capacity-checked fast memory and its own accounting. The slow memory
//!   can be split into shards ([`shared::SharedSlowMemory::with_shards`]),
//!   with per-shard lease accounting and a per-shard traffic breakdown.
//! * [`symbolic::SymbolicMachine`] is a machine without data: it keeps the
//!   same ledger (capacity, residency, phase, `IoStats`) but its
//!   buffers are empty, so replaying a schedule against it is a dry run.
//!   Wrapped in [`latency::LatencyMachine`], which prices through the
//!   [`clock::ModelClock`], it models a replay's time.
//! * [`level::Level`] generalizes transfers to a memory *hierarchy*:
//!   [`tiered::TieredMachine`] stacks capacity-checked tiers below the
//!   classic slow memory, [`model::MachineModel`] prices each tier, and
//!   [`stats::IoStats`] breaks traffic down per level. Default-level
//!   transfers stay bit-for-bit the two-level model.
//!
//! ## Example
//!
//! ```
//! use symla_memory::{OocMachine, Region};
//! use symla_matrix::Matrix;
//!
//! let mut machine = OocMachine::<f64>::with_capacity(64);
//! let id = machine.insert_dense(Matrix::identity(16));
//! // Load an 8x8 block (64 elements = the whole fast memory), modify, store.
//! let mut buf = machine.load(id, Region::rect(0, 0, 8, 8)).unwrap();
//! buf.as_mut_slice()[0] = 5.0;
//! machine.store(buf).unwrap();
//! assert_eq!(machine.stats().volume.loads, 64);
//! assert_eq!(machine.stats().volume.stores, 64);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod clock;
pub mod error;
#[cfg(feature = "file-backed")]
pub mod file;
pub mod latency;
pub mod level;
pub mod machine;
pub mod model;
pub mod operand;
pub mod region;
pub mod shared;
pub mod stats;
pub mod storage;
pub mod symbolic;
pub mod tiered;

pub use clock::ModelClock;
pub use error::{MemoryError, Result};
#[cfg(feature = "file-backed")]
pub use file::FileSlowMemory;
pub use latency::LatencyMachine;
pub use level::Level;
pub use machine::{FastBuf, MachineConfig, MachineOps, MatrixId, OocMachine};
pub use model::{MachineModel, TimeStats, MAX_EXTRA_LEVELS};
pub use operand::{PanelRef, SymWindowRef};
pub use region::{Region, RegionParseError};
pub use shared::{SharedSlowMemory, WorkerMachine};
pub use stats::{IoStats, IoVolume};
pub use symbolic::SymbolicMachine;
pub use tiered::TieredMachine;
