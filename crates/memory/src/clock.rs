//! The modelled timeline: the one implementation of the window arithmetic.
//!
//! [`ModelClock`] keeps per-window demand / prefetch / compute accumulators
//! that settle into a [`TimeStats`] at group boundaries (the bucket model of
//! [`crate::model`]), and exposes a **position** on that timeline:
//! [`ModelClock::now_ns`], the window's start plus
//! `demand + max(prefetch, compute)` accumulated so far. The position is
//! monotone (accumulators only grow within a window, and settling advances
//! the window start by exactly the window's contribution), so per-worker
//! event stamps are monotone by construction.
//!
//! Both pricing decorators charge through it:
//! [`LatencyMachine`](crate::LatencyMachine) accumulates a replay's
//! [`TimeStats`], and `symla_obs::InstrumentedMachine` stamps events on the
//! modelled timeline. A prefetched load is charged to the demand side first
//! and then moved (`demand -= cost; prefetch += cost`), because the replayer
//! announces it as prefetched only after the load returns.

use crate::model::{MachineModel, TimeStats};

/// A per-worker position on the modelled timeline, windowed like the
/// bucket model of [`TimeStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelClock {
    window_start: f64,
    demand: f64,
    prefetch: f64,
    compute: f64,
    /// Cost of the most recent load, still on the demand side;
    /// [`ModelClock::reclassify_last_load`] moves it to the prefetch side.
    last_load: f64,
    settled: TimeStats,
}

impl ModelClock {
    /// A clock at position zero with no settled windows.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current position in modelled ns: the window's start plus its
    /// contribution so far (`demand + max(prefetch, compute)`).
    pub fn now_ns(&self) -> f64 {
        self.window_start + self.demand + self.prefetch.max(self.compute)
    }

    /// Charges one load event of `cost` ns (demand side; a following
    /// [`ModelClock::reclassify_last_load`] may move it).
    pub fn charge_load(&mut self, cost: f64) {
        self.demand += cost;
        self.last_load = cost;
    }

    /// Charges one store event of `cost` ns (always demand).
    pub fn charge_store(&mut self, cost: f64) {
        self.demand += cost;
        self.last_load = 0.0;
    }

    /// Charges compute of `cost` ns (overlaps the window's prefetch lane).
    pub fn charge_compute(&mut self, cost: f64) {
        self.compute += cost;
    }

    /// Moves the most recent load from the demand lane to the overlapped
    /// (prefetch) lane — the clock analogue of
    /// [`MachineOps::note_prefetch`](crate::MachineOps::note_prefetch).
    pub fn reclassify_last_load(&mut self) {
        self.demand -= self.last_load;
        self.prefetch += self.last_load;
        self.last_load = 0.0;
    }

    /// The current window's contribution to the timeline so far:
    /// `demand + max(prefetch, compute)`.
    pub fn window_ns(&self) -> f64 {
        self.demand + self.prefetch.max(self.compute)
    }

    /// Settles the current window at a group boundary: the position jumps
    /// to the window's end and the window is accounted into
    /// [`ModelClock::time`].
    pub fn settle(&mut self) {
        self.window_start += self.window_ns();
        self.settled
            .add_window(self.demand, self.prefetch, self.compute);
        self.demand = 0.0;
        self.prefetch = 0.0;
        self.compute = 0.0;
        self.last_load = 0.0;
    }

    /// The accumulated [`TimeStats`], including the not-yet-settled window
    /// (meaningful both mid-replay and after the final boundary).
    pub fn time(&self) -> TimeStats {
        let mut t = self.settled;
        t.add_window(self.demand, self.prefetch, self.compute);
        t
    }

    /// Prices and charges a load of `elements` under `model` and returns
    /// the clock position after it.
    pub fn load(&mut self, model: &MachineModel, elements: usize) -> f64 {
        self.charge_load(model.load_ns(elements));
        self.now_ns()
    }

    /// Prices and charges a store of `elements` under `model` and returns
    /// the clock position after it.
    pub fn store(&mut self, model: &MachineModel, elements: usize) -> f64 {
        self.charge_store(model.store_ns(elements));
        self.now_ns()
    }

    /// Prices and charges `flops` operations under `model` and returns the
    /// clock position after them.
    pub fn flops(&mut self, model: &MachineModel, flops: u128) -> f64 {
        self.charge_compute(model.compute_ns(flops));
        self.now_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_is_monotone_across_windows() {
        let model = MachineModel::dram();
        let mut c = ModelClock::new();
        let mut last = 0.0;
        for _ in 0..3 {
            c.settle();
            for &elements in &[16usize, 4, 25] {
                let now = c.load(&model, elements);
                assert!(now >= last);
                last = now;
            }
            let now = c.flops(&model, 1000);
            assert!(now >= last);
            last = now;
        }
        c.settle();
        assert!(c.now_ns() >= last);
        assert_eq!(c.time().groups, 3);
    }

    #[test]
    fn reclassified_load_overlaps_compute() {
        let model = MachineModel::nvme();
        let mut c = ModelClock::new();
        c.load(&model, 100);
        c.reclassify_last_load();
        c.flops(&model, 1_000_000);
        c.settle();
        let t = c.time();
        assert_eq!(t.io_ns, model.load_ns(100));
        assert_eq!(t.hidden_ns, model.load_ns(100));
        // The window contributed max(prefetch, compute) = compute.
        assert_eq!(c.now_ns(), t.compute_ns);
    }

    #[test]
    fn time_includes_pending_window_and_store_resets_last_load() {
        let model = MachineModel::dram();
        let mut c = ModelClock::new();
        c.load(&model, 9);
        c.store(&model, 9);
        // A reclassify after a store must move nothing.
        c.reclassify_last_load();
        let t = c.time();
        assert_eq!(t.io_ns, model.load_ns(9) + model.store_ns(9));
        assert_eq!(t.hidden_ns, 0.0);
        assert_eq!(t.groups, 1);
    }
}
