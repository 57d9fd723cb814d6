//! A multi-level machine: capacity-checked tiers stacked over any backend.
//!
//! [`TieredMachine`] wraps an inner [`MachineOps`] implementation (the
//! simulated [`OocMachine`], a worker of
//! [`crate::SharedSlowMemory`], or — under `--features file-backed` — the
//! file-backed [`FileSlowMemory`](crate::file::FileSlowMemory) as the bottom
//! of the stack) and adds *intermediate tiers* between fast memory (level 0)
//! and the tier a transfer names. Each tier has an optional staging capacity
//! in elements: a leveled transfer from level `L` must fit the staging
//! window of every tier it passes through (levels `2..L`), otherwise it
//! fails with [`MemoryError::TierCapacityExceeded`] before touching the
//! inner machine.
//!
//! Two identities make the hierarchy safe to adopt incrementally:
//!
//! * **Collapse identity** — a `TieredMachine` with no tiers (or with
//!   default-level transfers only) forwards every call unchanged, so its
//!   results, errors and [`IoStats`](crate::IoStats) are bit-for-bit those
//!   of the inner machine. The `ab_multilevel` gate pins this in CI.
//! * **Accounting identity** — per-level traffic is attributed by the inner
//!   machine (see [`MachineOps::load_from`]); the tiered wrapper only adds
//!   the capacity checks, so stacking it never changes what is counted.
//!
//! ```
//! use symla_memory::{Level, MachineOps, MemoryError, OocMachine, Region, TieredMachine};
//! use symla_matrix::Matrix;
//!
//! let mut inner = OocMachine::<f64>::with_capacity(64);
//! let id = inner.insert_dense(Matrix::identity(8));
//! // A three-level hierarchy: fast (l0) — slow (l1) — an 8-element tier (l2).
//! let mut machine = TieredMachine::new(inner).with_tier(Some(8));
//! // Loading from l3 stages through the l2 tier: 9 elements don't fit.
//! let err = machine
//!     .load_from(id, Region::rect(0, 0, 3, 3), Level::new(3))
//!     .unwrap_err();
//! assert!(matches!(err, MemoryError::TierCapacityExceeded { level: 2, .. }));
//! // A default-level load is exactly the inner machine's load.
//! let buf = machine.load(id, Region::rect(0, 0, 3, 3)).unwrap();
//! machine.store(buf).unwrap();
//! assert_eq!(machine.inner().stats().volume.loads, 9);
//! ```

use crate::error::{MemoryError, Result};
use crate::level::Level;
use crate::machine::{FastBuf, MachineOps, MatrixId, OocMachine};
use crate::region::Region;
use std::marker::PhantomData;
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;

/// A stack of capacity-checked memory tiers over an inner machine.
///
/// Tier `i` of [`TieredMachine::with_tier`] is hierarchy level `i + 2`
/// (level 0 is fast memory, level 1 the inner machine's slow memory);
/// `None` marks an unbounded tier. See the module docs for the staging
/// rule and the collapse identity.
#[derive(Debug)]
pub struct TieredMachine<T: Scalar, M: MachineOps<T> = OocMachine<T>> {
    inner: M,
    tiers: Vec<Option<usize>>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Scalar, M: MachineOps<T>> TieredMachine<T, M> {
    /// Wraps `inner` with an empty tier stack (a degenerate hierarchy that
    /// behaves exactly like `inner`).
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            tiers: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Appends one tier below the current stack; builder style. The first
    /// call describes level 2, the second level 3, and so on. `None` is an
    /// unbounded tier (no staging check).
    pub fn with_tier(mut self, capacity: Option<usize>) -> Self {
        self.tiers.push(capacity);
        self
    }

    /// Number of tiers stacked below the classic slow memory.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Staging capacity of hierarchy level `level`, if that level is a
    /// configured, bounded tier.
    pub fn tier_capacity(&self, level: Level) -> Option<usize> {
        if level.raw() < 2 {
            return None;
        }
        self.tiers
            .get((level.raw() - 2) as usize)
            .copied()
            .flatten()
    }

    /// The wrapped machine.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the wrapped machine (e.g. to register matrices).
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Unwraps into the inner machine, discarding the tier stack.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Checks that a transfer of `elements` elements against `level` fits
    /// the staging window of every intermediate tier it passes through
    /// (levels `2..level`).
    fn check_tiers(&self, level: Level, elements: usize) -> Result<()> {
        for raw in 2..level.raw() {
            if let Some(cap) = self.tier_capacity(Level::new(raw)) {
                if elements > cap {
                    return Err(MemoryError::TierCapacityExceeded {
                        level: raw,
                        requested: elements,
                        capacity: cap,
                    });
                }
            }
        }
        Ok(())
    }
}

impl<T: Scalar, M: MachineOps<T>> MachineOps<T> for TieredMachine<T, M> {
    fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.inner.load(id, region)
    }

    fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.inner.allocate_zeroed(id, region)
    }

    fn store(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.inner.store(buf)
    }

    fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.inner.discard(buf)
    }

    fn load_from(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        self.check_tiers(level, region.len())?;
        self.inner.load_from(id, region, level)
    }

    fn store_to(&mut self, buf: FastBuf<T>, level: Level) -> Result<()> {
        if let Err(e) = self.check_tiers(level, buf.len()) {
            // The call consumes the buffer either way; release its fast
            // memory through the inner machine (no store traffic) so a
            // failed staging check cannot strand the lease.
            self.inner.discard(buf)?;
            return Err(e);
        }
        self.inner.store_to(buf, level)
    }

    fn record_flops(&mut self, flops: FlopCount) {
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
        self.inner.note_prefetch(elements);
    }

    fn note_group_boundary(&mut self) {
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
    use symla_matrix::generate::random_matrix_seeded;
    use symla_matrix::Matrix;

    fn tiered(
        n: usize,
        cap: usize,
        tiers: &[Option<usize>],
    ) -> (TieredMachine<f64>, MatrixId, Matrix<f64>) {
        let a: Matrix<f64> = random_matrix_seeded(n, n, 17);
        let mut inner = OocMachine::<f64>::with_capacity(cap);
        let id = inner.insert_dense(a.clone());
        let mut m = TieredMachine::new(inner);
        for t in tiers {
            m = m.with_tier(*t);
        }
        (m, id, a)
    }

    #[test]
    fn degenerate_hierarchy_is_the_inner_machine() {
        let (mut m, id, a) = tiered(6, 100, &[]);
        assert_eq!(m.num_tiers(), 0);
        let mut buf = m.load(id, Region::rect(0, 0, 3, 3)).unwrap();
        buf.as_mut_slice()[0] += 1.0;
        m.store(buf).unwrap();

        let mut plain = OocMachine::<f64>::with_capacity(100);
        let pid = plain.insert_dense(a.clone());
        let mut buf = plain.load(pid, Region::rect(0, 0, 3, 3)).unwrap();
        buf.as_mut_slice()[0] += 1.0;
        plain.store(buf).unwrap();

        // Field-for-field identical accounting and bitwise-identical results.
        assert_eq!(m.inner().stats(), plain.stats());
        let out = m.into_inner().take_dense(id).unwrap();
        let expected = plain.take_dense(pid).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(out[(i, j)].to_bits(), expected[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn intermediate_tiers_gate_deep_transfers() {
        let (mut m, id, _) = tiered(6, 100, &[Some(8), None]);
        assert_eq!(m.num_tiers(), 2);
        assert_eq!(m.tier_capacity(Level::new(2)), Some(8));
        assert_eq!(m.tier_capacity(Level::new(3)), None);
        assert_eq!(m.tier_capacity(Level::SLOW), None);

        // Level 2 is the transfer's source: no intermediate tier, no check.
        let b = m
            .load_from(id, Region::rect(0, 0, 3, 3), Level::new(2))
            .unwrap();
        m.store_to(b, Level::new(2)).unwrap();

        // Level 3 stages through the 8-element level-2 tier: 9 is too many.
        let err = m
            .load_from(id, Region::rect(0, 0, 3, 3), Level::new(3))
            .unwrap_err();
        assert!(matches!(
            err,
            MemoryError::TierCapacityExceeded {
                level: 2,
                requested: 9,
                capacity: 8
            }
        ));
        // ... but 8 elements fit, and are attributed to level 3.
        let b = m
            .load_from(id, Region::rect(0, 0, 4, 2), Level::new(3))
            .unwrap();
        m.store_to(b, Level::new(3)).unwrap();
        assert_eq!(m.inner().stats().level(3).loads, 8);
        assert_eq!(m.inner().stats().level(3).stores, 8);

        // A deep *store* stages through the l2 tier too: load 9 elements
        // from l2 (the source tier itself is unchecked), then fail to push
        // them down to l3.
        let b = m
            .load_from(id, Region::rect(0, 0, 3, 3), Level::new(2))
            .unwrap();
        let err = m.store_to(b, Level::new(3)).map(|_| ()).unwrap_err();
        assert!(matches!(
            err,
            MemoryError::TierCapacityExceeded {
                level: 2,
                requested: 9,
                ..
            }
        ));
        // The failed store discarded the buffer: no store traffic added, no
        // stranded lease, residency back to zero.
        assert_eq!(m.inner().stats().volume.stores, 9 + 8);
        assert_eq!(m.inner().resident(), 0);
    }

    #[test]
    fn failed_tier_check_leaves_inner_accounting_untouched() {
        let (mut m, id, _) = tiered(6, 100, &[Some(4)]);
        let err = m
            .load_from(id, Region::rect(0, 0, 3, 3), Level::new(3))
            .unwrap_err();
        assert!(matches!(err, MemoryError::TierCapacityExceeded { .. }));
        assert_eq!(m.inner().stats().volume.loads, 0);
        assert_eq!(m.inner().resident(), 0);
    }

    #[cfg(feature = "file-backed")]
    #[test]
    fn file_backed_bottom_tier_mirrors_the_simulated_stack() {
        use crate::file::FileSlowMemory;

        let a: Matrix<f64> = random_matrix_seeded(6, 6, 18);

        let mut sim_inner = OocMachine::<f64>::with_capacity(64);
        let sim_id = sim_inner.insert_dense(a.clone());
        let mut sim = TieredMachine::new(sim_inner).with_tier(Some(16));

        let mut fil_inner = FileSlowMemory::<f64>::with_capacity(64).unwrap();
        let fil_id = fil_inner.insert_dense(a.clone()).unwrap();
        let mut fil = TieredMachine::new(fil_inner).with_tier(Some(16));

        for (machine, id) in [
            (&mut sim as &mut dyn MachineOps<f64>, sim_id),
            (&mut fil as &mut dyn MachineOps<f64>, fil_id),
        ] {
            let mut b = machine
                .load_from(id, Region::rect(0, 0, 4, 3), Level::new(2))
                .unwrap();
            for v in b.as_mut_slice() {
                *v *= 2.0;
            }
            machine.store_to(b, Level::new(2)).unwrap();
        }
        assert_eq!(sim.inner().stats(), fil.inner().stats());
        assert_eq!(sim.inner().stats().level(2).loads, 12);
    }
}
