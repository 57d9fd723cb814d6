//! The observing decorator over any [`MachineOps`] machine.
//!
//! [`InstrumentedMachine`] wraps a counting machine exactly like
//! [`LatencyMachine`](symla_memory::LatencyMachine) does — results,
//! [`IoStats`](symla_memory::IoStats) and errors are those of the inner
//! machine, untouched — and additionally emits one [`ObsRecord`] per
//! observable action into an [`ExecutionObserver`], stamped on both the real
//! clock (the observer's epoch) and the [`ModelClock`] modelled timeline.
//!
//! When the observer is disabled ([`ExecutionObserver::enabled`] is
//! `false`, e.g. [`NullObserver`](crate::NullObserver)), every hook reduces
//! to the inner call plus one boolean test: no clock is read, no event is
//! built, no time is charged. The `ab_obs` benchmark gates on this.
//!
//! One subtlety: the engine reports a prefetched load by calling
//! [`MachineOps::note_prefetch`] *after* the load returns. The machine
//! therefore holds each load event *pending* until the next observable
//! action; a `note_prefetch` arriving first flips the pending event's
//! `prefetched` flag (and reclassifies its modelled cost) before it is
//! flushed. Event order is unchanged — the pending load is always flushed
//! before the next record is emitted.

use crate::event::{EventKind, ObsRecord};
use crate::observer::ExecutionObserver;
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;
use symla_memory::{
    FastBuf, Level, MachineModel, MachineOps, MatrixId, ModelClock, Region, Result, TimeStats,
};

#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    real_ns: u64,
    elements: usize,
    prefetched: bool,
    level: u8,
}

/// Wraps a [`MachineOps`] machine, emitting timestamped [`ObsRecord`]s for
/// every transfer, kernel, group span and prefetch handoff.
///
/// ```
/// use symla_matrix::Matrix;
/// use symla_memory::{MachineModel, MachineOps, OocMachine, Region};
/// use symla_obs::{EventKind, InstrumentedMachine, TraceRecorder};
///
/// let mut inner = OocMachine::<f64>::with_capacity(64);
/// let id = inner.insert_dense(Matrix::zeros(8, 8));
/// let recorder = TraceRecorder::new();
/// let mut machine = InstrumentedMachine::new(inner, MachineModel::dram(), recorder.clone(), 0);
/// let buf = machine.load(id, Region::rect(0, 0, 4, 4)).unwrap();
/// machine.store(buf).unwrap();
/// let trace = recorder.finish();
/// assert_eq!(trace.count(|k| matches!(k, EventKind::Load { .. })), 1);
/// assert_eq!(trace.count(|k| matches!(k, EventKind::Store { .. })), 1);
/// ```
#[derive(Debug)]
pub struct InstrumentedMachine<T: Scalar, M: MachineOps<T>, O: ExecutionObserver> {
    inner: M,
    model: MachineModel,
    observer: O,
    worker: usize,
    clock: ModelClock,
    pending: Option<PendingLoad>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Scalar, M: MachineOps<T>, O: ExecutionObserver> InstrumentedMachine<T, M, O> {
    /// Wraps `inner`, stamping events against `model` and emitting them to
    /// `observer` on worker track `worker`.
    pub fn new(inner: M, model: MachineModel, observer: O, worker: usize) -> Self {
        Self {
            inner,
            model,
            observer,
            worker,
            clock: ModelClock::new(),
            pending: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// The wrapped machine.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the wrapped machine (e.g. to register matrices).
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Unwraps into the inner machine, discarding the observation state.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// The modelled time accumulated so far — bitwise what a
    /// [`LatencyMachine`](symla_memory::LatencyMachine) would report for
    /// the same replay (all zeros when the observer is disabled).
    pub fn time(&self) -> TimeStats {
        self.clock.time()
    }

    fn emit(&mut self, kind: EventKind) {
        self.observer.record(ObsRecord {
            worker: self.worker,
            real_ns: self.observer.timestamp_ns(),
            model_ns: self.clock.now_ns(),
            kind,
        });
    }

    /// Emits the held load event, if any. Called before every other
    /// observable action so event order matches program order.
    fn flush_pending(&mut self) {
        if let Some(p) = self.pending.take() {
            self.observer.record(ObsRecord {
                worker: self.worker,
                real_ns: p.real_ns,
                model_ns: self.clock.now_ns(),
                kind: EventKind::Load {
                    elements: p.elements,
                    prefetched: p.prefetched,
                    level: p.level,
                },
            });
        }
    }
}

impl<T: Scalar, M: MachineOps<T>, O: ExecutionObserver> MachineOps<T>
    for InstrumentedMachine<T, M, O>
{
    fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.load_from(id, region, Level::default())
    }

    fn load_from(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        let buf = self.inner.load_from(id, region, level)?;
        if self.observer.enabled() {
            self.flush_pending();
            self.clock
                .charge_load(self.model.load_ns_at(level, buf.len()));
            self.pending = Some(PendingLoad {
                real_ns: self.observer.timestamp_ns(),
                elements: buf.len(),
                prefetched: false,
                level: level.raw(),
            });
        }
        Ok(buf)
    }

    fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        let buf = self.inner.allocate_zeroed(id, region)?;
        if self.observer.enabled() {
            self.flush_pending();
            // No transfer: allocation is free on the modelled timeline too.
            self.emit(EventKind::Alloc {
                elements: buf.len(),
            });
        }
        Ok(buf)
    }

    fn store(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.store_to(buf, Level::default())
    }

    fn store_to(&mut self, buf: FastBuf<T>, level: Level) -> Result<()> {
        let elements = buf.len();
        self.inner.store_to(buf, level)?;
        if self.observer.enabled() {
            self.flush_pending();
            self.clock
                .charge_store(self.model.store_ns_at(level, elements));
            self.emit(EventKind::Store {
                elements,
                level: level.raw(),
            });
        }
        Ok(())
    }

    fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        let elements = buf.len();
        self.inner.discard(buf)?;
        if self.observer.enabled() {
            self.flush_pending();
            self.emit(EventKind::Discard { elements });
        }
        Ok(())
    }

    fn record_flops(&mut self, flops: FlopCount) {
        self.inner.record_flops(flops);
        if self.observer.enabled() {
            self.flush_pending();
            self.clock
                .charge_compute(self.model.compute_ns(flops.total()));
            self.emit(EventKind::flops(flops));
        }
    }

    fn set_phase(&mut self, phase: &str) {
        self.inner.set_phase(phase);
    }

    fn phase(&self) -> &str {
        self.inner.phase()
    }

    fn capacity(&self) -> Option<usize> {
        self.inner.capacity()
    }

    fn note_prefetch(&mut self, elements: usize) {
        self.inner.note_prefetch(elements);
        if self.observer.enabled() {
            self.clock.reclassify_last_load();
            if let Some(p) = &mut self.pending {
                p.prefetched = true;
            }
        }
    }

    fn note_group_boundary(&mut self) {
        self.inner.note_group_boundary();
        if self.observer.enabled() {
            self.flush_pending();
            self.clock.settle();
        }
    }

    fn note_group_start(&mut self, group: usize) {
        self.inner.note_group_start(group);
        if self.observer.enabled() {
            self.flush_pending();
            self.emit(EventKind::GroupStart { group });
        }
    }

    fn note_group_end(&mut self, group: usize) {
        self.inner.note_group_end(group);
        if self.observer.enabled() {
            self.flush_pending();
            self.emit(EventKind::GroupEnd { group });
        }
    }

    fn note_compute(&mut self, kind: &'static str) {
        self.inner.note_compute(kind);
        if self.observer.enabled() {
            self.flush_pending();
            self.emit(EventKind::Compute { kind });
        }
    }

    fn note_prefetch_issue(&mut self, group: usize, step: usize, elements: usize) {
        self.inner.note_prefetch_issue(group, step, elements);
        if self.observer.enabled() {
            self.flush_pending();
            self.emit(EventKind::PrefetchIssue {
                group,
                step,
                elements,
            });
        }
    }

    fn note_prefetch_delivery(&mut self, group: usize, step: usize) {
        self.inner.note_prefetch_delivery(group, step);
        if self.observer.enabled() {
            self.flush_pending();
            self.emit(EventKind::PrefetchDelivery { group, step });
        }
    }

    fn note_claim(&mut self, group: usize, stolen: bool) {
        self.inner.note_claim(group, stolen);
        if self.observer.enabled() {
            self.flush_pending();
            self.emit(EventKind::Claim { group, stolen });
        }
    }

    fn holds_data(&self) -> bool {
        self.inner.holds_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{NullObserver, TraceRecorder};
    use symla_matrix::Matrix;
    use symla_memory::OocMachine;

    fn machine_with_matrix<O: ExecutionObserver>(
        observer: O,
    ) -> (InstrumentedMachine<f64, OocMachine<f64>, O>, MatrixId) {
        let mut inner = OocMachine::<f64>::with_capacity(100);
        let id = inner.insert_dense(Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64));
        (
            InstrumentedMachine::new(inner, MachineModel::dram(), observer, 0),
            id,
        )
    }

    #[test]
    fn inner_accounting_is_untouched() {
        let recorder = TraceRecorder::new();
        let (mut m, id) = machine_with_matrix(recorder.clone());
        let buf = m.load(id, Region::rect(0, 0, 2, 5)).unwrap();
        m.store(buf).unwrap();
        assert_eq!(m.inner().stats().volume.loads, 10);
        assert_eq!(m.inner().stats().volume.stores, 10);
        assert_eq!(m.into_inner().stats().peak_resident, 10);
    }

    #[test]
    fn pending_load_is_flushed_in_program_order() {
        let recorder = TraceRecorder::new();
        let (mut m, id) = machine_with_matrix(recorder.clone());
        let buf = m.load(id, Region::rect(0, 0, 3, 3)).unwrap();
        m.record_flops(FlopCount::new(10, 10));
        m.discard(buf).unwrap();
        let trace = recorder.finish();
        let kinds: Vec<_> = trace.events().iter().map(|e| e.kind).collect();
        assert!(matches!(
            kinds[0],
            EventKind::Load {
                elements: 9,
                prefetched: false,
                level: 1
            }
        ));
        assert!(matches!(kinds[1], EventKind::Flops { .. }));
        assert!(matches!(kinds[2], EventKind::Discard { elements: 9 }));
    }

    #[test]
    fn note_prefetch_flags_the_pending_load() {
        let recorder = TraceRecorder::new();
        let (mut m, id) = machine_with_matrix(recorder.clone());
        let buf = m.load(id, Region::rect(0, 0, 4, 4)).unwrap();
        MachineOps::<f64>::note_prefetch(&mut m, 16);
        m.note_prefetch_issue(2, 0, 16);
        m.discard(buf).unwrap();
        let trace = recorder.finish();
        let kinds: Vec<_> = trace.events().iter().map(|e| e.kind).collect();
        assert!(matches!(
            kinds[0],
            EventKind::Load {
                elements: 16,
                prefetched: true,
                level: 1
            }
        ));
        assert!(matches!(
            kinds[1],
            EventKind::PrefetchIssue {
                group: 2,
                step: 0,
                elements: 16
            }
        ));
        // The reclassified load sits on the overlapped lane of the model.
        let t = m.time();
        assert_eq!(t.hidden_ns, 0.0); // no compute yet: nothing hidden
        assert_eq!(t.io_ns, MachineModel::dram().load_ns(16));
    }

    #[test]
    fn modelled_time_matches_latency_machine() {
        use symla_memory::LatencyMachine;
        let model = MachineModel::nvme();
        let drive = |m: &mut dyn MachineOps<f64>, id: MatrixId| {
            m.note_group_boundary();
            let buf = m.load(id, Region::rect(0, 0, 4, 4)).unwrap();
            m.note_prefetch(16);
            m.record_flops(FlopCount::new(500, 500));
            m.discard(buf).unwrap();
            m.note_group_boundary();
            let buf = m.load(id, Region::rect(4, 0, 2, 2)).unwrap();
            m.store(buf).unwrap();
            m.note_group_boundary();
        };

        let mut inner = OocMachine::<f64>::with_capacity(100);
        let id = inner.insert_dense(Matrix::zeros(8, 8));
        let mut latency = LatencyMachine::new(inner, model);
        drive(&mut latency, id);

        let recorder = TraceRecorder::new();
        let mut inner = OocMachine::<f64>::with_capacity(100);
        let id = inner.insert_dense(Matrix::zeros(8, 8));
        let mut instrumented = InstrumentedMachine::new(inner, model, recorder, 0);
        drive(&mut instrumented, id);

        let (a, b) = (latency.time(), instrumented.time());
        assert_eq!(a.io_ns.to_bits(), b.io_ns.to_bits());
        assert_eq!(a.compute_ns.to_bits(), b.compute_ns.to_bits());
        assert_eq!(a.hidden_ns.to_bits(), b.hidden_ns.to_bits());
        assert_eq!(a.groups, b.groups);
    }

    #[test]
    fn leveled_transfers_carry_their_tier_and_surcharge() {
        let model = MachineModel::dram().with_level_extra(Level::new(2), 8.0);
        let recorder = TraceRecorder::new();
        let mut inner = OocMachine::<f64>::with_capacity(100);
        let id = inner.insert_dense(Matrix::zeros(8, 8));
        let mut m = InstrumentedMachine::new(inner, model, recorder.clone(), 0);
        let buf = m
            .load_from(id, Region::rect(0, 0, 3, 3), Level::new(2))
            .unwrap();
        m.store_to(buf, Level::new(2)).unwrap();
        m.note_group_boundary();
        let trace = recorder.finish();
        let kinds: Vec<_> = trace.events().iter().map(|e| e.kind).collect();
        assert!(matches!(
            kinds[0],
            EventKind::Load {
                elements: 9,
                prefetched: false,
                level: 2
            }
        ));
        assert!(matches!(
            kinds[1],
            EventKind::Store {
                elements: 9,
                level: 2
            }
        ));
        assert_eq!(
            m.time().io_ns,
            model.load_ns_at(Level::new(2), 9) + model.store_ns_at(Level::new(2), 9)
        );
        assert_eq!(m.inner().stats().level(2).loads, 9);
        assert_eq!(m.inner().stats().level(2).stores, 9);
    }

    #[test]
    fn disabled_observer_keeps_no_clock() {
        let (mut m, id) = machine_with_matrix(NullObserver);
        let buf = m.load(id, Region::rect(0, 0, 4, 4)).unwrap();
        m.record_flops(FlopCount::new(100, 100));
        m.store(buf).unwrap();
        m.note_group_boundary();
        assert_eq!(m.time().total_ns(), 0.0);
        assert_eq!(m.inner().stats().volume.loads, 16);
    }

    #[test]
    fn model_stamps_are_monotone() {
        let recorder = TraceRecorder::new();
        let (mut m, id) = machine_with_matrix(recorder.clone());
        for g in 0..3 {
            m.note_group_boundary();
            m.note_group_start(g);
            let buf = m.load(id, Region::rect(g, 0, 2, 2)).unwrap();
            m.record_flops(FlopCount::new(50, 50));
            m.store(buf).unwrap();
            m.note_group_end(g);
        }
        m.note_group_boundary();
        let trace = recorder.finish();
        let stamps: Vec<f64> = trace.events().iter().map(|e| e.model_ns).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    }
}
