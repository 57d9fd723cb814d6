//! Execution observability for the out-of-core engine: structured run
//! traces, a metrics registry and Perfetto timeline export.
//!
//! The engine crates (`symla-memory`, `symla-sched`, `symla-core`) execute
//! schedules against a [`MachineOps`](symla_memory::MachineOps) machine and
//! report aggregate [`IoStats`](symla_memory::IoStats) /
//! [`TimeStats`](symla_memory::TimeStats). This crate adds the *event*
//! level underneath those aggregates:
//!
//! * [`ExecutionObserver`] — the sink trait. [`NullObserver`] is the
//!   zero-cost disabled path (`enabled()` is `false` and instrumented
//!   wrappers skip all bookkeeping); [`TraceRecorder`] is a thread-safe
//!   in-memory recorder whose clones share one buffer, so one recorder can
//!   collect from every worker of a parallel run.
//! * [`EventKind`] / [`ObsRecord`] — the typed event taxonomy: group
//!   start/end, load/alloc/store/discard, flops, compute kernels, prefetch
//!   issue/delivery, worker claims/steals, plan-cache traffic. Each record
//!   is double-stamped: real nanoseconds since the recorder's epoch *and*
//!   the position on the modelled timeline.
//! * [`InstrumentedMachine`] — wraps any `MachineOps` machine, forwards
//!   every call, and emits records stamped by a [`ModelClock`] (re-exported
//!   from `symla_memory`, where
//!   [`LatencyMachine`](symla_memory::LatencyMachine) prices through the same
//!   clock).
//! * [`RunTrace`] → [`RunTrace::to_chrome_trace`] — Chrome trace-event /
//!   Perfetto export with one track per worker and async arrows from each
//!   prefetch issue to its consuming group.
//! * [`MetricsRegistry`] / [`RunReport`] — named counters, gauges and
//!   log₂-bucketed [`Histogram`]s with a hand-rolled JSON export, unifying
//!   the per-subsystem stats structs into one machine-readable report.
//!
//! Everything here is dependency-free by design (no serde); [`json`] holds
//! the escaping, formatting and validation helpers the exporters use.
//!
//! ```
//! use symla_obs::{EventKind, TraceRecorder, TimeBase};
//!
//! let rec = TraceRecorder::new();
//! rec.note(0, EventKind::GroupStart { group: 0 });
//! rec.note(0, EventKind::Compute { kind: "ger" });
//! rec.note(0, EventKind::GroupEnd { group: 0 });
//! let trace = rec.finish();
//! let doc = trace.to_chrome_trace(&[TimeBase::Measured]);
//! assert!(symla_obs::json::validate(&doc).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod instrument;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod perfetto;

pub use event::{EventKind, ObsRecord};
pub use instrument::InstrumentedMachine;
pub use metrics::{Histogram, MetricsRegistry, RunReport};
pub use observer::{ExecutionObserver, NullObserver, RunTrace, TraceRecorder};
pub use perfetto::TimeBase;
pub use symla_memory::ModelClock;
