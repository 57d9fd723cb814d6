//! A machine without data, for analyzing schedules by replaying them.
//!
//! [`SymbolicMachine`] has no matrices and its [`FastBuf`]s hold no data, but
//! it keeps the capacity, residency, phase and [`IoStats`] accounting through
//! the same ledger as [`OocMachine`](crate::OocMachine). Replaying a schedule
//! against it therefore yields exactly the `IoStats` an execution of that
//! schedule leaves in a real machine, without moving a byte. Since it holds
//! no data ([`MachineOps::holds_data`] is `false`), replayers skip compute
//! kernels on it; any [`MatrixId`] is accepted, so schedules built against
//! [`MatrixId::synthetic`] ids replay unchanged.
//!
//! `symla_sched` builds every analysis on this machine: dry runs read its
//! stats, modelled time wraps it in a
//! [`LatencyMachine`](crate::LatencyMachine), and a synthesized run trace
//! wraps it in the observing decorator of `symla_obs`.
//!
//! ```
//! use symla_memory::{MachineConfig, MachineOps, MatrixId, Region, SymbolicMachine};
//!
//! let mut machine = SymbolicMachine::<f64>::new(MachineConfig::unlimited());
//! let buf = machine.load(MatrixId::synthetic(3), Region::rect(0, 0, 4, 4)).unwrap();
//! assert_eq!(buf.len(), 16);
//! assert!(buf.as_slice().is_empty());
//! machine.store(buf).unwrap();
//! assert_eq!(machine.stats().volume.total(), 32);
//! assert_eq!(machine.stats().peak_resident, 16);
//! ```

use crate::error::Result;
use crate::level::Level;
use crate::machine::{FastBuf, Ledger, MachineConfig, MachineOps, MatrixId};
use crate::region::Region;
use crate::stats::IoStats;
use std::marker::PhantomData;
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;

/// A data-less machine that only accounts: see the module docs.
#[derive(Debug)]
pub struct SymbolicMachine<T: Scalar> {
    ledger: Ledger,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Scalar> SymbolicMachine<T> {
    /// Creates a machine with the given capacity.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            ledger: Ledger::new(config),
            _marker: PhantomData,
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &IoStats {
        self.ledger.stats()
    }

    /// Consumes the machine and returns its accounting.
    pub fn into_accounting(self) -> IoStats {
        self.ledger.into_accounting()
    }
}

impl<T: Scalar> MachineOps<T> for SymbolicMachine<T> {
    fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.load_from(id, region, Level::SLOW)
    }

    fn load_from(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        self.ledger.check_capacity(region.len())?;
        self.ledger.admit_load(region.len(), level);
        Ok(FastBuf::from_parts(
            Vec::new(),
            id,
            region,
            self.ledger.tag(),
        ))
    }

    fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.ledger.check_capacity(region.len())?;
        self.ledger.admit_alloc(region.len());
        Ok(FastBuf::from_parts(
            Vec::new(),
            id,
            region,
            self.ledger.tag(),
        ))
    }

    fn store(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.store_to(buf, Level::SLOW)
    }

    fn store_to(&mut self, buf: FastBuf<T>, level: Level) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag())?;
        self.ledger.settle_store(buf.len(), level, Ok(()))
    }

    fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag())?;
        self.ledger.release(buf.len());
        Ok(())
    }

    fn record_flops(&mut self, flops: FlopCount) {
        self.ledger.stats_mut().record_flops(flops);
    }

    fn set_phase(&mut self, phase: &str) {
        self.ledger.set_phase(phase);
    }

    fn phase(&self) -> &str {
        self.ledger.phase()
    }

    fn capacity(&self) -> Option<usize> {
        self.ledger.capacity()
    }

    fn note_prefetch(&mut self, elements: usize) {
        self.ledger.stats_mut().note_prefetch(elements);
    }

    fn holds_data(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::OocMachine;
    use symla_matrix::Matrix;

    /// The symbolic machine's ledger is the real machine's: the same
    /// operations leave field-for-field equal stats.
    #[test]
    fn accounting_matches_the_simulated_machine() {
        let config = MachineConfig::with_capacity(20);
        let mut real = OocMachine::<f64>::new(config);
        let id = real.insert_dense(Matrix::zeros(6, 6));
        let mut sym = SymbolicMachine::<f64>::new(config);
        for m in [&mut real as &mut dyn MachineOps<f64>, &mut sym] {
            m.set_phase("p");
            let a = m
                .load_from(id, Region::rect(0, 0, 3, 3), Level::new(2))
                .unwrap();
            let b = m.allocate_zeroed(id, Region::rect(3, 3, 2, 2)).unwrap();
            m.note_prefetch(9);
            m.record_flops(FlopCount::new(4, 4));
            m.store(b).unwrap();
            m.store_to(a, Level::new(2)).unwrap();
        }
        assert_eq!(sym.stats().level(2).loads, 9);
        assert_eq!(real.stats(), &sym.into_accounting());
    }

    #[test]
    fn capacity_and_ownership_are_enforced() {
        let mut sym = SymbolicMachine::<f64>::new(MachineConfig::with_capacity(8));
        let id = MatrixId::synthetic(0);
        let a = sym.load(id, Region::rect(0, 0, 2, 3)).unwrap();
        assert!(sym.load(id, Region::rect(0, 0, 2, 2)).is_err());
        let mut other = SymbolicMachine::<f64>::new(MachineConfig::unlimited());
        assert!(other.discard(a).is_err());
        assert!(!sym.holds_data());
    }
}
