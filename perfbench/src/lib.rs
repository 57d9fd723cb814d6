//! Wall-clock benchmark of the symla out-of-core kernels.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in a closed loop (one caller, one thread) for the
//! given time and prints, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a separate
//! traced run (`--trace 1`). Every call's output is checked against an
//! in-core reference computed once at set-up. See `README.md` next to this
//! crate for the workloads and what each metric should move.

pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

/// A metric the benchmark reports: name, unit and which direction is
/// better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name printed in the result object.
    pub name: &'static str,
    /// Unit printed with the value.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Metrics of the untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    lower("solve_ms_p50", "ms"),
    lower("solve_ms_tail", "ms"),
    higher("gflops", "GF/s"),
    lower("loads_over_bound", "ratio"),
    lower("peak_rss_mb", "MB"),
    higher("ok_frac", "fraction"),
    lower("setup_s", "s"),
];

/// Metrics of the traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    lower("core.build_ms", "ms"),
    lower("core.steps", "count"),
    lower("core.groups", "count"),
    lower("core.baseline_loads_over_bound", "ratio"),
    lower("engine.execute_ms", "ms"),
    lower("engine.ns_per_step", "ns"),
    lower("engine.dry_run_ms", "ms"),
    lower("kernels.incore_ref_ms", "ms"),
    higher("kernels.incore_gflops", "GF/s"),
    lower("memory.register_ms", "ms"),
    lower("memory.take_ms", "ms"),
    lower("memory.loads", "count"),
    lower("memory.stores", "count"),
    lower("memory.transfer_events", "count"),
    lower("memory.peak_resident", "count"),
    lower("memory.file_execute_ms", "ms"),
    lower("prefetch.plan_ms", "ms"),
    higher("prefetch.overlap_ratio", "ratio"),
    lower("passes.optimize_ms", "ms"),
    higher("passes.events_saved", "count"),
    higher("passes.loads_saved", "count"),
    lower("binary.encode_ms", "ms"),
    lower("binary.decode_ms", "ms"),
    lower("binary.plan_bytes", "bytes"),
    lower("service.cold_ms", "ms"),
    lower("service.warm_ms", "ms"),
    lower("obs.traced_ms", "ms"),
    lower("obs.events", "count"),
    lower("trace.solve_ms", "ms"),
    lower("trace.untraced_solve_ms", "ms"),
    lower("trace.spans_ms", "ms"),
    higher("trace.coverage", "ratio"),
    lower("trace.overhead_frac", "ratio"),
];

/// Metrics whose value is an exact count and must repeat across runs and
/// seeds.
pub const EXACT: &[&str] = &[
    "core.steps",
    "core.groups",
    "core.baseline_loads_over_bound",
    "memory.loads",
    "memory.stores",
    "memory.transfer_events",
    "memory.peak_resident",
    "binary.plan_bytes",
    "loads_over_bound",
];
