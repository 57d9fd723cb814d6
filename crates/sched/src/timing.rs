//! Modelled wall-clock time of a schedule replay, without executing it.
//!
//! Every function here replays the schedule through the engine's one replay
//! loop against a data-less [`SymbolicMachine`] wrapped in a pricing
//! decorator:
//!
//! * [`modelled_time`] and [`modelled_time_planned`] wrap it in a
//!   [`LatencyMachine`] and read its [`TimeStats`]: per-group windows of the
//!   engine's two-phase overlap model (see [`TimeStats::add_window`]), where
//!   prefetched loads overlap the window's compute and demand loads and
//!   stores do not;
//! * [`modelled_group_times`] reads each group's window contribution off the
//!   same machine's [`ModelClock`](symla_memory::ModelClock) as the group
//!   ends;
//! * [`modelled_run_trace`] wraps it in an [`InstrumentedMachine`] whose
//!   observer keeps no real clock.
//!
//! A [`LatencyMachine`] wrapping a real machine during
//! [`Engine::execute_with`] under the same model, lookahead and capacity
//! therefore accumulates bitwise the same `f64`s: both replays make the same
//! machine calls in the same order and price them on the same clock. The
//! cross-crate test `tests/wallclock_model.rs` checks this for every
//! builder.

use crate::engine::{Engine, EngineError};
use crate::ir::Schedule;
use crate::prefetch::PrefetchPlan;
use symla_matrix::Scalar;
use symla_memory::{LatencyMachine, MachineConfig, MachineModel, SymbolicMachine, TimeStats};
use symla_obs::{ExecutionObserver, InstrumentedMachine, ObsRecord, RunTrace, TraceRecorder};

/// Models the wall-clock of [`Engine::execute_with`] on a machine of
/// `capacity`, pricing transfers and flops with `model`.
///
/// `lookahead = 0` models the plain serial replay (every load is a demand
/// load; nothing overlaps). With `lookahead = L > 0` the same
/// [`PrefetchPlan`] the engine would compute decides which loads are issued
/// at a group boundary and therefore overlap that group's compute. A step
/// the replay rejects (a malformed schedule) ends the pricing there.
///
/// ```
/// use symla_memory::{MachineModel, MatrixId, Region};
/// use symla_sched::timing::modelled_time;
/// use symla_sched::ScheduleBuilder;
/// use symla_matrix::kernels::FlopCount;
///
/// let id = MatrixId::synthetic(0);
/// let mut b = ScheduleBuilder::<f64>::new();
/// for i in 0..4 {
///     b.begin_group();
///     let x = b.load(id, Region::rect(4 * i, 0, 4, 4));
///     b.flops(FlopCount::new(4096, 4096));
///     b.store(x);
/// }
/// let s = b.finish();
/// let model = MachineModel::dram();
/// let serial = modelled_time(&s, &model, 0, Some(64));
/// let overlapped = modelled_time(&s, &model, 1, Some(64));
/// // Volumes are unchanged, but prefetched loads hide behind compute.
/// assert_eq!(serial.io_ns, overlapped.io_ns);
/// assert!(overlapped.total_ns() < serial.total_ns());
/// ```
pub fn modelled_time<T: Scalar>(
    schedule: &Schedule<T>,
    model: &MachineModel,
    lookahead: usize,
    capacity: Option<usize>,
) -> TimeStats {
    let plan = PrefetchPlan::plan(schedule, lookahead, capacity);
    let mut machine = priced(model);
    let _ = Engine::execute_planned(&mut machine, schedule, &plan);
    machine.time()
}

/// [`modelled_time`] with an already-computed [`PrefetchPlan`] (the
/// modelled-time analogue of [`Engine::execute_planned`], which also
/// rejects a plan computed for another schedule). An empty plan models the
/// plain serial replay.
pub fn modelled_time_planned<T: Scalar>(
    schedule: &Schedule<T>,
    model: &MachineModel,
    plan: &PrefetchPlan,
) -> Result<TimeStats, EngineError> {
    let mut machine = priced(model);
    Engine::execute_planned(&mut machine, schedule, plan)?;
    Ok(machine.time())
}

/// Synthesizes the [`RunTrace`] a serial [`Engine::execute_with`] on an
/// [`InstrumentedMachine`] would record, without executing anything: the
/// trace of a schedule that has not run.
///
/// The replay is the engine's own, against a [`SymbolicMachine`] wrapped in
/// an `InstrumentedMachine`, so the synthesized events match an executed
/// trace exactly in kind and order and bitwise in their modelled
/// timestamps. Real-clock stamps are `0` (nothing ran) and all events sit
/// on worker track `0`; exporting both traces with
/// [`TimeBase::Modelled`](symla_obs::TimeBase) yields byte-identical
/// documents — the `ab_obs` gate asserts exactly that.
pub fn modelled_run_trace<T: Scalar>(
    schedule: &Schedule<T>,
    model: &MachineModel,
    lookahead: usize,
    capacity: Option<usize>,
) -> RunTrace {
    let plan = PrefetchPlan::plan(schedule, lookahead, capacity);
    let recorder = TraceRecorder::new();
    let symbolic = SymbolicMachine::<T>::new(MachineConfig::unlimited());
    let mut machine = InstrumentedMachine::new(symbolic, *model, Unclocked(recorder.clone()), 0);
    let _ = Engine::execute_planned(&mut machine, schedule, &plan);
    recorder.finish()
}

/// Per-group wall-clock contributions under the same window model as
/// [`modelled_time_planned`]: entry `g` is the modelled ns group `g` adds to
/// the serial critical path, `demand + max(prefetch, compute)` (prefetched
/// loads are charged to the group whose boundary issues them). Groups whose
/// window is empty contribute `0.0`.
///
/// Summing the entries recovers [`TimeStats::total_ns`] of
/// [`modelled_time_planned`] up to floating-point association order; the
/// per-group view exists for schedulers that need the *distribution* of the
/// time — notably the autotuner's parallel makespan model
/// ([`crate::autotune`]), which assigns group windows to workers.
pub fn modelled_group_times<T: Scalar>(
    schedule: &Schedule<T>,
    model: &MachineModel,
    plan: &PrefetchPlan,
) -> Result<Vec<f64>, EngineError> {
    let mut machine = priced(model);
    let mut windows = Vec::with_capacity(schedule.num_groups());
    Engine::replay(&mut machine, schedule, plan, |m| {
        windows.push(m.clock().window_ns())
    })?;
    Ok(windows)
}

/// A data-less machine of unchecked capacity, priced with `model`.
fn priced<T: Scalar>(model: &MachineModel) -> LatencyMachine<T, SymbolicMachine<T>> {
    LatencyMachine::new(SymbolicMachine::new(MachineConfig::unlimited()), *model)
}

/// Forwards records to a [`TraceRecorder`] without reading its real clock,
/// so every real stamp of a synthesized trace is `0`.
struct Unclocked(TraceRecorder);

impl ExecutionObserver for Unclocked {
    fn record(&self, record: ObsRecord) {
        self.0.record(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::ir::ScheduleBuilder;
    use symla_matrix::kernels::FlopCount;
    use symla_matrix::Matrix;
    use symla_memory::{LatencyMachine, MatrixId, OocMachine, Region};

    /// Two groups touching disjoint 3x3 blocks of one 6x6 matrix, with
    /// enough flops that a prefetched load hides completely.
    fn two_group_schedule() -> Schedule<f64> {
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::new();
        for i in 0..2 {
            b.begin_group();
            let x = b.load(id, Region::rect(3 * i, 0, 3, 3));
            b.flops(FlopCount::new(500, 500));
            b.store(x);
        }
        b.finish()
    }

    #[test]
    fn serial_time_is_priced_per_event() {
        let s = two_group_schedule();
        let model = MachineModel::dram();
        let t = modelled_time(&s, &model, 0, Some(64));
        let per_group = model.load_ns(9) + model.store_ns(9);
        assert_eq!(t.groups, 2);
        assert_eq!(t.io_ns, 2.0 * per_group);
        assert_eq!(t.compute_ns, 2.0 * model.compute_ns(1000));
        assert_eq!(t.hidden_ns, 0.0);
    }

    #[test]
    fn lookahead_hides_prefetched_loads() {
        let s = two_group_schedule();
        let model = MachineModel::dram();
        let serial = modelled_time(&s, &model, 0, Some(64));
        let overlapped = modelled_time(&s, &model, 1, Some(64));
        assert_eq!(serial.io_ns, overlapped.io_ns);
        assert!(overlapped.hidden_ns > 0.0);
        assert!(overlapped.total_ns() < serial.total_ns());
    }

    #[test]
    fn capacity_zero_slack_means_no_overlap() {
        let s = two_group_schedule();
        let model = MachineModel::dram();
        // Capacity 9 fits exactly one 3x3 block: no slack, no prefetch.
        let t = modelled_time(&s, &model, 1, Some(9));
        assert_eq!(t.hidden_ns, 0.0);
        assert_eq!(
            t.total_ns(),
            modelled_time(&s, &model, 0, Some(9)).total_ns()
        );
    }

    /// The core invariant: the model predicts exactly what a
    /// `LatencyMachine` measures during a real replay — bitwise, as `f64`s.
    #[test]
    fn model_matches_latency_machine_bitwise() {
        let s = two_group_schedule();
        let model = MachineModel::nvme();
        for lookahead in 0..3 {
            let mut machine = LatencyMachine::new(OocMachine::<f64>::with_capacity(64), model);
            let id = machine.inner_mut().insert_dense(Matrix::identity(6));
            assert_eq!(id, MatrixId::synthetic(0));
            Engine::execute_with(&mut machine, &s, &EngineConfig::with_lookahead(lookahead))
                .unwrap();
            let measured = machine.time();
            let modelled = modelled_time(&s, &model, lookahead, Some(64));
            assert_eq!(measured.io_ns.to_bits(), modelled.io_ns.to_bits());
            assert_eq!(measured.compute_ns.to_bits(), modelled.compute_ns.to_bits());
            assert_eq!(measured.hidden_ns.to_bits(), modelled.hidden_ns.to_bits());
            assert_eq!(measured.groups, modelled.groups);
        }
    }

    /// The leveled variant of the bitwise invariant: a schedule whose
    /// transfers name deeper tiers is priced with the per-level latency
    /// surcharges, and the prediction still matches a `LatencyMachine`
    /// replay over a `TieredMachine` bit for bit.
    #[test]
    fn leveled_model_matches_tiered_latency_machine_bitwise() {
        use symla_memory::{Level, TieredMachine};
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        for i in 0..2 {
            b.begin_group();
            let x = b.load_from(id, Region::rect(3 * i, 0, 3, 3), Level::new(2 + i as u8));
            let y = b.load(id, Region::rect(0, 3, 2, 2));
            b.flops(FlopCount::new(500, 500));
            b.discard(y);
            b.store_to(x, Level::new(2 + i as u8));
        }
        let s = b.finish();
        assert!(s.is_leveled());
        let model = MachineModel::nvme()
            .with_level_extra(Level::new(2), 8.0)
            .with_level_extra(Level::new(3), 4000.0);
        for lookahead in 0..3 {
            let inner = {
                let mut m = OocMachine::<f64>::with_capacity(64);
                let mid = m.insert_dense(Matrix::identity(6));
                assert_eq!(mid, id);
                TieredMachine::new(m).with_tier(None).with_tier(None)
            };
            let mut machine = LatencyMachine::new(inner, model);
            Engine::execute_with(&mut machine, &s, &EngineConfig::with_lookahead(lookahead))
                .unwrap();
            let measured = machine.time();
            let modelled = modelled_time(&s, &model, lookahead, Some(64));
            assert_eq!(measured.io_ns.to_bits(), modelled.io_ns.to_bits());
            assert_eq!(measured.compute_ns.to_bits(), modelled.compute_ns.to_bits());
            assert_eq!(measured.hidden_ns.to_bits(), modelled.hidden_ns.to_bits());
            assert_eq!(measured.groups, modelled.groups);
            // leveled transfers cost strictly more than the two-level read
            // of the same volume under a surcharged model
            let collapsed = {
                let mut c = ScheduleBuilder::<f64>::new();
                for i in 0..2 {
                    c.begin_group();
                    let x = c.load(id, Region::rect(3 * i, 0, 3, 3));
                    let y = c.load(id, Region::rect(0, 3, 2, 2));
                    c.flops(FlopCount::new(500, 500));
                    c.discard(y);
                    c.store(x);
                }
                c.finish()
            };
            let flat = modelled_time(&collapsed, &model, lookahead, Some(64));
            assert!(modelled.io_ns > flat.io_ns);
        }
    }

    /// The observability analogue of the bitwise invariant: a synthesized
    /// trace exports byte-identically to the trace of a real instrumented
    /// replay (same events, same order, bitwise-equal modelled stamps).
    #[test]
    fn synthesized_trace_matches_executed_trace_bytewise() {
        use symla_obs::{InstrumentedMachine, TimeBase, TraceRecorder};
        let s = two_group_schedule();
        let model = MachineModel::nvme();
        for lookahead in 0..3 {
            let recorder = TraceRecorder::new();
            let mut inner = OocMachine::<f64>::with_capacity(64);
            let id = inner.insert_dense(Matrix::identity(6));
            assert_eq!(id, MatrixId::synthetic(0));
            let mut machine = InstrumentedMachine::new(inner, model, recorder.clone(), 0);
            Engine::execute_with(&mut machine, &s, &EngineConfig::with_lookahead(lookahead))
                .unwrap();
            let executed = recorder.finish();
            let synthesized = modelled_run_trace(&s, &model, lookahead, Some(64));
            assert_eq!(
                executed.to_chrome_trace(&[TimeBase::Modelled]),
                synthesized.to_chrome_trace(&[TimeBase::Modelled]),
                "lookahead {lookahead}"
            );
        }
    }

    /// Regression: the lookahead-1 plan of a 3-group schedule priced
    /// against its 2-group prefix used to index-panic; the replay rejects
    /// it like `Engine::execute_planned` does.
    #[test]
    fn planned_pricing_rejects_a_plan_of_another_schedule() {
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        for i in 0..3 {
            b.begin_group();
            let x = b.load(id, Region::rect(3 * i, 0, 3, 3));
            b.flops(FlopCount::new(500, 500));
            b.store(x);
        }
        let three = b.finish();
        let plan = PrefetchPlan::plan(&three, 1, Some(64));
        assert!(!plan.is_empty());
        let prefix = Schedule {
            groups: three.groups[..2].to_vec(),
        };
        let model = MachineModel::dram();
        assert!(matches!(
            modelled_time_planned(&prefix, &model, &plan),
            Err(EngineError::InvalidArgument(_))
        ));
        assert!(matches!(
            modelled_group_times(&prefix, &model, &plan),
            Err(EngineError::InvalidArgument(_))
        ));
        // The schedule's own plan still prices, one window per group.
        let windows = modelled_group_times(&three, &model, &plan).unwrap();
        assert_eq!(windows.len(), 3);
        assert!(windows.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn planned_variant_matches_inline_planning() {
        let s = two_group_schedule();
        let model = MachineModel::dram();
        let plan = PrefetchPlan::plan(&s, 1, Some(64));
        let a = modelled_time(&s, &model, 1, Some(64));
        let b = modelled_time_planned(&s, &model, &plan).unwrap();
        assert_eq!(a.total_ns().to_bits(), b.total_ns().to_bits());
    }
}
