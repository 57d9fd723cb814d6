//! A latency-injecting wrapper over any [`MachineOps`] implementation.
//!
//! [`LatencyMachine`] decorates a counting machine (the simulated
//! [`crate::OocMachine`], a worker of [`crate::shared::SharedSlowMemory`], or
//! the file-backed machine of [`crate::file`]) and charges modelled
//! nanoseconds from a [`MachineModel`] for every transfer and every recorded
//! flop, without changing the wrapped machine's behaviour in any way: results,
//! `IoStats` and errors are exactly those of the inner machine.
//!
//! Time is accumulated on a [`ModelClock`] per *window* — the engine
//! brackets each task group with [`MachineOps::note_group_boundary`] calls.
//! Within a window, the cost of demand loads and stores is serial, while
//! loads flagged by [`MachineOps::note_prefetch`] are accounted as overlapped
//! with the window's compute: the window contributes
//! `demand + max(compute, prefetch)` (see [`TimeStats`]). Replaying the same
//! schedule at increasing lookahead therefore yields a deterministic modelled
//! speedup curve.
//!
//! Wrapped around a [`SymbolicMachine`](crate::SymbolicMachine), it prices a
//! schedule without executing it: that is how `symla_sched::timing` models
//! time.
//!
//! ```
//! use symla_memory::{LatencyMachine, MachineModel, MachineOps, OocMachine, Region};
//! use symla_matrix::Matrix;
//!
//! let mut inner = OocMachine::<f64>::with_capacity(64);
//! let id = inner.insert_dense(Matrix::zeros(8, 8));
//! let mut machine = LatencyMachine::new(inner, MachineModel::dram());
//! let buf = machine.load(id, Region::rect(0, 0, 4, 4)).unwrap();
//! machine.store(buf).unwrap();
//! assert!(machine.time().total_ns() > 0.0);
//! ```

use crate::clock::ModelClock;
use crate::error::Result;
use crate::level::Level;
use crate::machine::{FastBuf, MachineOps, MatrixId};
use crate::model::{MachineModel, TimeStats};
use crate::region::Region;
use std::marker::PhantomData;
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;

/// Wraps a [`MachineOps`] implementation and prices every operation with a
/// [`MachineModel`] on a [`ModelClock`], which settles one window per group
/// boundary.
#[derive(Debug)]
pub struct LatencyMachine<T: Scalar, M: MachineOps<T>> {
    inner: M,
    model: MachineModel,
    clock: ModelClock,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Scalar, M: MachineOps<T>> LatencyMachine<T, M> {
    /// Wraps `inner`, pricing its operations with `model`.
    pub fn new(inner: M, model: MachineModel) -> Self {
        Self {
            inner,
            model,
            clock: ModelClock::new(),
            _marker: PhantomData,
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

    /// Unwraps into the inner machine, discarding the timing state.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// The pricing model in use.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// The clock the operations are charged to (its
    /// [`ModelClock::window_ns`] is the open window's contribution).
    pub fn clock(&self) -> &ModelClock {
        &self.clock
    }

    /// The modelled time so far, including the not-yet-settled window (so it
    /// is meaningful both mid-replay and after the final boundary).
    pub fn time(&self) -> TimeStats {
        self.clock.time()
    }
}

impl<T: Scalar, M: MachineOps<T>> MachineOps<T> for LatencyMachine<T, M> {
    fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.load_from(id, region, Level::SLOW)
    }

    fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        // No transfer: allocation is free in the latency model too.
        self.inner.allocate_zeroed(id, region)
    }

    fn store(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.store_to(buf, Level::SLOW)
    }

    fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.inner.discard(buf)
    }

    fn load_from(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        let buf = self.inner.load_from(id, region, level)?;
        self.clock
            .charge_load(self.model.load_ns_at(level, buf.len()));
        Ok(buf)
    }

    fn store_to(&mut self, buf: FastBuf<T>, level: Level) -> Result<()> {
        let elements = buf.len();
        self.inner.store_to(buf, level)?;
        self.clock
            .charge_store(self.model.store_ns_at(level, elements));
        Ok(())
    }

    fn record_flops(&mut self, flops: FlopCount) {
        self.clock
            .charge_compute(self.model.compute_ns(flops.total()));
        self.inner.record_flops(flops);
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
        // The engine calls this immediately after a prefetched load: move
        // that load's cost from the stalling (demand) side of the window to
        // the overlapped (prefetch) side.
        self.clock.reclassify_last_load();
        self.inner.note_prefetch(elements);
    }

    fn note_group_boundary(&mut self) {
        self.clock.settle();
        self.inner.note_group_boundary();
    }

    fn note_group_start(&mut self, group: usize) {
        self.inner.note_group_start(group);
    }

    fn note_group_end(&mut self, group: usize) {
        self.inner.note_group_end(group);
    }

    fn note_compute(&mut self, kind: &'static str) {
        self.inner.note_compute(kind);
    }

    fn note_prefetch_issue(&mut self, group: usize, step: usize, elements: usize) {
        self.inner.note_prefetch_issue(group, step, elements);
    }

    fn note_prefetch_delivery(&mut self, group: usize, step: usize) {
        self.inner.note_prefetch_delivery(group, step);
    }

    fn note_claim(&mut self, group: usize, stolen: bool) {
        self.inner.note_claim(group, stolen);
    }

    fn holds_data(&self) -> bool {
        self.inner.holds_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::OocMachine;
    use symla_matrix::Matrix;

    fn machine_with_matrix(
        n: usize,
        cap: usize,
    ) -> (LatencyMachine<f64, OocMachine<f64>>, MatrixId) {
        let mut inner = OocMachine::<f64>::with_capacity(cap);
        let id = inner.insert_dense(Matrix::from_fn(n, n, |i, j| (i * n + j) as f64));
        (LatencyMachine::new(inner, MachineModel::dram()), id)
    }

    #[test]
    fn load_and_store_are_priced() {
        let (mut m, id) = machine_with_matrix(6, 100);
        let model = *m.model();
        let buf = m.load(id, Region::rect(0, 0, 3, 3)).unwrap();
        m.store(buf).unwrap();
        let t = m.time();
        assert_eq!(t.io_ns, model.load_ns(9) + model.store_ns(9));
        assert_eq!(t.compute_ns, 0.0);
        assert_eq!(t.hidden_ns, 0.0);
    }

    #[test]
    fn inner_accounting_is_untouched() {
        let (mut m, id) = machine_with_matrix(6, 100);
        let buf = m.load(id, Region::rect(0, 0, 2, 5)).unwrap();
        m.store(buf).unwrap();
        assert_eq!(m.inner().stats().volume.loads, 10);
        assert_eq!(m.inner().stats().volume.stores, 10);
        let inner = m.into_inner();
        assert_eq!(inner.stats().peak_resident, 10);
    }

    #[test]
    fn prefetched_load_overlaps_compute() {
        let (mut m, id) = machine_with_matrix(8, 100);
        let model = *m.model();
        // Window 1: prefetched load + enough compute to hide it fully.
        m.note_group_boundary();
        let buf = m.load(id, Region::rect(0, 0, 4, 4)).unwrap();
        MachineOps::<f64>::note_prefetch(&mut m, 16);
        m.record_flops(FlopCount::new(100_000, 100_000));
        m.discard(buf).unwrap();
        m.note_group_boundary();
        let t = m.time();
        let load = model.load_ns(16);
        assert_eq!(t.io_ns, load);
        assert_eq!(t.hidden_ns, load);
        assert_eq!(t.total_ns(), t.compute_ns);
        assert_eq!(t.groups, 1);
    }

    #[test]
    fn demand_load_does_not_overlap() {
        let (mut m, id) = machine_with_matrix(8, 100);
        m.note_group_boundary();
        let buf = m.load(id, Region::rect(0, 0, 4, 4)).unwrap();
        m.record_flops(FlopCount::new(100_000, 100_000));
        m.discard(buf).unwrap();
        m.note_group_boundary();
        let t = m.time();
        assert_eq!(t.hidden_ns, 0.0);
        assert_eq!(t.total_ns(), t.io_ns + t.compute_ns);
    }

    #[test]
    fn store_resets_the_reclassifiable_load() {
        let (mut m, id) = machine_with_matrix(8, 100);
        let buf = m.load(id, Region::rect(0, 0, 2, 2)).unwrap();
        m.store(buf).unwrap();
        // A note_prefetch arriving after a store must not reclassify the
        // store (or the already-consumed load).
        MachineOps::<f64>::note_prefetch(&mut m, 4);
        let t = m.time();
        assert_eq!(t.hidden_ns, 0.0);
        assert!(t.io_ns > 0.0);
    }

    #[test]
    fn time_includes_pending_window() {
        let (mut m, id) = machine_with_matrix(8, 100);
        let buf = m.load(id, Region::rect(0, 0, 2, 2)).unwrap();
        let mid = m.time();
        assert!(mid.total_ns() > 0.0);
        m.discard(buf).unwrap();
        m.note_group_boundary();
        assert_eq!(m.time().total_ns(), mid.total_ns());
    }

    #[test]
    fn leveled_transfers_pay_the_tier_surcharge() {
        let model = MachineModel::dram().with_level_extra(Level::new(2), 5.0);
        let mut inner = OocMachine::<f64>::with_capacity(100);
        let id = inner.insert_dense(Matrix::zeros(6, 6));
        let mut m = LatencyMachine::new(inner, model);

        let buf = m
            .load_from(id, Region::rect(0, 0, 3, 3), Level::new(2))
            .unwrap();
        m.store_to(buf, Level::new(2)).unwrap();
        let t = m.time();
        assert_eq!(
            t.io_ns,
            model.load_ns_at(Level::new(2), 9) + model.store_ns_at(Level::new(2), 9)
        );
        assert_eq!(m.inner().stats().level(2).loads, 9);

        // Default-tier leveled calls price bitwise like load/store.
        let mut inner = OocMachine::<f64>::with_capacity(100);
        let id = inner.insert_dense(Matrix::zeros(6, 6));
        let mut m2 = LatencyMachine::new(inner, model);
        let buf = m2
            .load_from(id, Region::rect(0, 0, 3, 3), Level::SLOW)
            .unwrap();
        m2.store_to(buf, Level::SLOW).unwrap();
        assert_eq!(
            m2.time().io_ns.to_bits(),
            (model.load_ns(9) + model.store_ns(9)).to_bits()
        );
    }

    #[test]
    fn empty_boundaries_do_not_create_windows() {
        let (mut m, _id) = machine_with_matrix(4, 100);
        m.note_group_boundary();
        m.note_group_boundary();
        m.note_group_boundary();
        assert_eq!(m.time().groups, 0);
    }
}
