//! The shared-slow-memory machine: `P` workers against one slow memory.
//!
//! The parallel machine model of Section 2.2 of the paper is `P` workers,
//! each with a *private* fast memory of `S` elements, exchanging data with a
//! single *shared* slow memory. [`SharedSlowMemory`] is that shared level:
//! one image of the registered matrices behind interior synchronization, so
//! any number of [`WorkerMachine`]s — each with its own capacity check and
//! its own [`IoStats`] — can load and store against it concurrently from
//! scoped threads.
//!
//! The design mirrors the serial [`OocMachine`](crate::machine::OocMachine)
//! exactly:
//!
//! * the only way to read slow memory is a counted [`WorkerMachine::load`],
//!   and the only way to persist results is a counted
//!   [`WorkerMachine::store`];
//! * every worker's resident footprint is checked against *its* capacity on
//!   every allocation — the shared level imposes no capacity of its own
//!   (slow memory is unbounded in the model);
//! * buffer leases are tagged per worker, so a buffer loaded by one worker
//!   cannot be released against another worker's accounting; and matrix-level
//!   lease counts are tracked at the shared level, so
//!   [`SharedSlowMemory::take_dense`] / [`take_symmetric`](SharedSlowMemory::take_symmetric)
//!   fail while any worker still holds a buffer.
//!
//! Transfers serialize on the shared memory's lock — the model's single
//! channel to slow memory. The *counting* is per worker, which is the
//! quantity the paper's parallel analysis constrains (the busiest worker's
//! communication volume).
//!
//! Workers implement [`MachineOps`], so the generic engine of `symla-sched`
//! replays unmodified schedules against them; see
//! `symla_sched::engine::Engine::execute_parallel` for the distribution loop.

use crate::error::{MemoryError, Result};
use crate::level::Level;
use crate::machine::{FastBuf, Ledger, MachineConfig, MachineOps, MatrixId};
use crate::region::Region;
use crate::stats::IoStats;
use crate::storage::SlowMatrix;
use std::collections::BTreeMap;
use std::sync::Mutex;
use symla_matrix::kernels::FlopCount;
use symla_matrix::{Matrix, Scalar, SymMatrix};

/// One shard of the slow memory: its matrices and their lease counts.
///
/// Lease accounting is *per shard*: a lease taken on one shard lives and
/// dies in that shard's `leases` map, so releasing a buffer homed on shard
/// `i` structurally cannot free capacity (or unblock a take) on shard `j`.
/// Matrix ids are issued from one global counter and mapped to their home
/// shard by `SharedState::homes`, so an id can never be resolved against
/// the wrong shard.
#[derive(Debug)]
struct ShardState<T: Scalar> {
    matrices: BTreeMap<u64, SlowMatrix<T>>,
    leases: BTreeMap<u64, usize>,
}

/// The shards and the id→shard directory behind the shared lock.
#[derive(Debug)]
struct SharedState<T: Scalar> {
    shards: Vec<ShardState<T>>,
    homes: BTreeMap<u64, usize>,
    next_id: u64,
}

impl<T: Scalar> SharedState<T> {
    /// The shard holding matrix `id`, or `UnknownMatrix`.
    fn home_of(&self, id: u64) -> Result<usize> {
        self.homes
            .get(&id)
            .copied()
            .ok_or(MemoryError::UnknownMatrix { id })
    }
}

/// One slow memory shared by many workers.
///
/// All methods take `&self`: the state lives behind a [`Mutex`], so a
/// `SharedSlowMemory` can be handed to scoped worker threads by shared
/// reference. Matrix ids are issued in insertion order starting at 0 (the
/// same convention as the serial machine), so schedules built against
/// [`MatrixId::synthetic`] ids work unchanged when the matrices are inserted
/// in the same order.
///
/// # Example
///
/// ```
/// use symla_memory::{MachineConfig, MachineOps, Region, SharedSlowMemory};
/// use symla_matrix::Matrix;
///
/// let shared = SharedSlowMemory::<f64>::new();
/// let id = shared.insert_dense(Matrix::identity(8));
/// // Two workers with private fast memories of 16 elements each.
/// let mut w0 = shared.worker(MachineConfig::with_capacity(16));
/// let mut w1 = shared.worker(MachineConfig::with_capacity(16));
/// let b0 = w0.load(id, Region::rect(0, 0, 4, 4)).unwrap();
/// let b1 = w1.load(id, Region::rect(4, 4, 4, 4)).unwrap();
/// w0.store(b0).unwrap();
/// w1.discard(b1).unwrap();
/// // I/O is counted per worker.
/// assert_eq!(w0.stats().volume.stores, 16);
/// assert_eq!(w1.stats().volume.stores, 0);
/// drop((w0, w1));
/// assert!(shared.take_dense(id).is_ok());
/// ```
#[derive(Debug)]
pub struct SharedSlowMemory<T: Scalar> {
    state: Mutex<SharedState<T>>,
}

impl<T: Scalar> Default for SharedSlowMemory<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> SharedSlowMemory<T> {
    /// Creates an empty shared slow memory with a single shard (the classic
    /// one-slow-memory model).
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// Creates an empty shared slow memory split into `shards` shards
    /// (at least 1). Matrices are homed on a shard at insertion
    /// ([`SharedSlowMemory::insert_dense_on`]); workers record a per-shard
    /// traffic breakdown ([`crate::IoStats::per_shard`]) whenever more than
    /// one shard exists.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            state: Mutex::new(SharedState {
                shards: (0..shards)
                    .map(|_| ShardState {
                        matrices: BTreeMap::new(),
                        leases: BTreeMap::new(),
                    })
                    .collect(),
                homes: BTreeMap::new(),
                next_id: 0,
            }),
        }
    }

    /// Number of shards the slow memory is split into (≥ 1).
    pub fn num_shards(&self) -> usize {
        self.lock().shards.len()
    }

    /// The shard a matrix is homed on.
    pub fn shard_of(&self, id: MatrixId) -> Result<usize> {
        self.lock().home_of(id.0)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SharedState<T>> {
        // A worker can only poison the lock by panicking inside a gather /
        // scatter, i.e. on an internal bug; the matrix data itself is still
        // consistent (scatter writes element-wise), so recover the guard and
        // let the remaining workers finish their accounting.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn insert(&self, m: SlowMatrix<T>, shard: usize) -> MatrixId {
        let mut state = self.lock();
        assert!(
            shard < state.shards.len(),
            "shard {shard} out of range ({} shards)",
            state.shards.len()
        );
        let id = state.next_id;
        state.next_id += 1;
        state.homes.insert(id, shard);
        state.shards[shard].matrices.insert(id, m);
        state.shards[shard].leases.insert(id, 0);
        MatrixId(id)
    }

    /// Registers a dense matrix in the shared slow memory (on shard 0).
    pub fn insert_dense(&self, m: Matrix<T>) -> MatrixId {
        self.insert(SlowMatrix::Dense(m), 0)
    }

    /// Registers a symmetric matrix in the shared slow memory (on shard 0).
    pub fn insert_symmetric(&self, s: SymMatrix<T>) -> MatrixId {
        self.insert(SlowMatrix::Symmetric(s), 0)
    }

    /// Registers a dense matrix homed on shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is not a valid shard index.
    pub fn insert_dense_on(&self, shard: usize, m: Matrix<T>) -> MatrixId {
        self.insert(SlowMatrix::Dense(m), shard)
    }

    /// Registers a symmetric matrix homed on shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is not a valid shard index.
    pub fn insert_symmetric_on(&self, shard: usize, s: SymMatrix<T>) -> MatrixId {
        self.insert(SlowMatrix::Symmetric(s), shard)
    }

    /// Logical shape of a registered matrix.
    pub fn shape(&self, id: MatrixId) -> Result<(usize, usize)> {
        let state = self.lock();
        let shard = state.home_of(id.0)?;
        state.shards[shard]
            .matrices
            .get(&id.0)
            .map(|m| m.shape())
            .ok_or(MemoryError::UnknownMatrix { id: id.0 })
    }

    /// Creates a worker with a private fast memory configured by `config`.
    ///
    /// Each worker counts its own [`IoStats`] and enforces its own capacity;
    /// any number of workers may be driven concurrently from scoped threads.
    pub fn worker(&self, config: MachineConfig) -> WorkerMachine<'_, T> {
        self.worker_on(config, 0)
    }

    /// Creates a worker whose *home* shard is `home`: transfers against
    /// matrices homed on other shards are the worker's cross-shard traffic
    /// (the quantity the node partitioner minimizes).
    ///
    /// # Panics
    ///
    /// Panics when `home` is not a valid shard index.
    pub fn worker_on(&self, config: MachineConfig, home: usize) -> WorkerMachine<'_, T> {
        let num_shards = self.num_shards();
        assert!(
            home < num_shards,
            "home shard {home} out of range ({num_shards} shards)"
        );
        WorkerMachine {
            shared: self,
            home,
            num_shards,
            ledger: Ledger::new(config),
        }
    }

    /// Takes one matrix-level lease on a valid `region` of `id`, reading
    /// its data when `gather` is set (the worker load path; the allocate
    /// path only validates). Returns the data and the matrix's home shard.
    fn lease(&self, id: MatrixId, region: &Region, gather: bool) -> Result<(Vec<T>, usize)> {
        let mut state = self.lock();
        let shard = state.home_of(id.0)?;
        let matrix = state.shards[shard]
            .matrices
            .get(&id.0)
            .ok_or(MemoryError::UnknownMatrix { id: id.0 })?;
        let data = if gather {
            matrix.gather(region)?
        } else {
            matrix.validate_region(region)?;
            Vec::new()
        };
        *state.shards[shard]
            .leases
            .get_mut(&id.0)
            .expect("lease entry exists") += 1;
        Ok((data, shard))
    }

    /// Scatters a buffer back and releases its lease (worker store path).
    /// Returns the matrix's home shard.
    ///
    /// The lease is released even when the scatter fails: the caller
    /// consumes the buffer either way, so keeping the lease would strand
    /// the matrix in a never-takeable state. A failed scatter writes
    /// nothing (it validates the region before touching elements). The
    /// lease is released on the matrix's *home* shard — by construction it
    /// was taken there, so no other shard's accounting can be touched.
    fn scatter_release(&self, id: MatrixId, region: &Region, data: &[T]) -> Result<usize> {
        let mut state = self.lock();
        let shard = state.home_of(id.0)?;
        let outcome = match state.shards[shard].matrices.get_mut(&id.0) {
            Some(matrix) => matrix.scatter(region, data),
            None => Err(MemoryError::UnknownMatrix { id: id.0 }),
        };
        if let Some(count) = state.shards[shard].leases.get_mut(&id.0) {
            *count = count.saturating_sub(1);
        }
        outcome.map(|()| shard)
    }

    /// Releases a lease without writing back (worker discard path).
    fn release(&self, id: MatrixId) {
        let mut state = self.lock();
        if let Ok(shard) = state.home_of(id.0) {
            if let Some(count) = state.shards[shard].leases.get_mut(&id.0) {
                *count = count.saturating_sub(1);
            }
        }
    }

    fn check_takeable(state: &SharedState<T>, shard: usize, id: MatrixId) -> Result<()> {
        match state.shards[shard].leases.get(&id.0) {
            None => Err(MemoryError::UnknownMatrix { id: id.0 }),
            Some(&count) if count > 0 => Err(MemoryError::LeasesOutstanding { id: id.0, count }),
            Some(_) => Ok(()),
        }
    }

    /// Removes a dense matrix from the shared slow memory and returns it
    /// (fails while any worker still holds a buffer leased from it).
    pub fn take_dense(&self, id: MatrixId) -> Result<Matrix<T>> {
        let mut state = self.lock();
        let shard = state.home_of(id.0)?;
        Self::check_takeable(&state, shard, id)?;
        match state.shards[shard].matrices.remove(&id.0) {
            Some(SlowMatrix::Dense(m)) => {
                state.homes.remove(&id.0);
                Ok(m)
            }
            Some(other) => {
                let kind = other.kind();
                state.shards[shard].matrices.insert(id.0, other);
                Err(MemoryError::RegionKindMismatch {
                    region: "take_dense".to_string(),
                    storage: kind,
                })
            }
            None => Err(MemoryError::UnknownMatrix { id: id.0 }),
        }
    }

    /// Removes a symmetric matrix from the shared slow memory and returns it.
    pub fn take_symmetric(&self, id: MatrixId) -> Result<SymMatrix<T>> {
        let mut state = self.lock();
        let shard = state.home_of(id.0)?;
        Self::check_takeable(&state, shard, id)?;
        match state.shards[shard].matrices.remove(&id.0) {
            Some(SlowMatrix::Symmetric(s)) => {
                state.homes.remove(&id.0);
                Ok(s)
            }
            Some(other) => {
                let kind = other.kind();
                state.shards[shard].matrices.insert(id.0, other);
                Err(MemoryError::RegionKindMismatch {
                    region: "take_symmetric".to_string(),
                    storage: kind,
                })
            }
            None => Err(MemoryError::UnknownMatrix { id: id.0 }),
        }
    }
}

/// One worker of a [`SharedSlowMemory`]: a private, capacity-checked fast
/// memory with its own I/O accounting.
///
/// A worker is the parallel counterpart of the serial
/// [`OocMachine`](crate::machine::OocMachine): it exposes the same
/// load / allocate / store / discard surface (via [`MachineOps`]) and keeps
/// its [`IoStats`] in the same ledger — but its loads
/// and stores move data through the *shared* slow memory, so concurrent
/// workers observe each other's stored results.
#[derive(Debug)]
pub struct WorkerMachine<'m, T: Scalar> {
    shared: &'m SharedSlowMemory<T>,
    home: usize,
    num_shards: usize,
    ledger: Ledger,
}

impl<'m, T: Scalar> WorkerMachine<'m, T> {
    /// The worker's configured fast-memory capacity.
    pub fn capacity(&self) -> Option<usize> {
        self.ledger.capacity()
    }

    /// The worker's home shard (0 for workers of an unsharded memory).
    pub fn home(&self) -> usize {
        self.home
    }

    /// Records a transfer's shard attribution; only meaningful (and only
    /// recorded) when the slow memory actually has more than one shard, so
    /// unsharded runs keep their pre-hierarchy `IoStats` field-for-field.
    fn note_shard(&mut self, shard: usize, elements: usize, is_load: bool) {
        if self.num_shards > 1 {
            let stats = self.ledger.stats_mut();
            if is_load {
                stats.record_shard_load(shard, elements);
            } else {
                stats.record_shard_store(shard, elements);
            }
        }
    }

    /// Load volume against shards other than the worker's home shard: the
    /// worker's cross-shard input traffic. Zero for unsharded memories.
    pub fn cross_shard_loads(&self) -> u64 {
        self.stats()
            .per_shard
            .iter()
            .filter(|(shard, _)| **shard != self.home)
            .map(|(_, vol)| vol.loads)
            .sum()
    }

    /// Elements currently resident in this worker's fast memory.
    pub fn resident(&self) -> usize {
        self.ledger.resident()
    }

    /// The currently active phase label.
    pub fn phase(&self) -> &str {
        self.ledger.phase()
    }

    /// This worker's accumulated statistics.
    pub fn stats(&self) -> &IoStats {
        self.ledger.stats()
    }

    /// Consumes the worker and returns its accounting.
    pub fn into_accounting(self) -> IoStats {
        self.ledger.into_accounting()
    }
}

impl<'m, T: Scalar> MachineOps<T> for WorkerMachine<'m, T> {
    fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.load_from(id, region, Level::SLOW)
    }

    fn load_from(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        self.ledger.check_capacity(region.len())?;
        let (data, shard) = self.shared.lease(id, &region, true)?;
        self.ledger.admit_load(region.len(), level);
        self.note_shard(shard, region.len(), true);
        Ok(FastBuf::from_parts(data, id, region, self.ledger.tag()))
    }

    fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        let elements = region.len();
        self.ledger.check_capacity(elements)?;
        self.shared.lease(id, &region, false)?;
        self.ledger.admit_alloc(elements);
        Ok(FastBuf::from_parts(
            vec![T::ZERO; elements],
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
        let outcome = self
            .shared
            .scatter_release(buf.matrix_id(), buf.region(), buf.as_slice());
        // The buffer leaves fast memory whether or not the scatter landed
        // (it is consumed by this call), so the residency drops either way;
        // a failed transfer moves no elements and counts no traffic.
        self.ledger.release(buf.len());
        let shard = outcome?;
        self.ledger.note_store(buf.len(), level);
        self.note_shard(shard, buf.len(), false);
        Ok(())
    }

    fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag())?;
        self.ledger.release(buf.len());
        self.shared.release(buf.matrix_id());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use symla_matrix::generate::random_matrix_seeded;

    #[test]
    fn workers_count_io_privately_against_one_image() {
        let a: Matrix<f64> = random_matrix_seeded(6, 6, 7);
        let shared = SharedSlowMemory::new();
        let id = shared.insert_dense(a.clone());
        assert_eq!(shared.shape(id).unwrap(), (6, 6));

        let mut w0 = shared.worker(MachineConfig::with_capacity(12));
        let mut w1 = shared.worker(MachineConfig::with_capacity(12));

        let mut b0 = w0.load(id, Region::rect(0, 0, 3, 3)).unwrap();
        for v in b0.as_mut_slice() {
            *v += 1.0;
        }
        w0.store(b0).unwrap();

        let b1 = w1.load(id, Region::rect(0, 0, 3, 3)).unwrap();
        // w1 sees w0's stored result: the slow memory is shared.
        assert_eq!(b1.as_slice()[0], a[(0, 0)] + 1.0);
        w1.discard(b1).unwrap();

        assert_eq!(w0.stats().volume.loads, 9);
        assert_eq!(w0.stats().volume.stores, 9);
        assert_eq!(w1.stats().volume.loads, 9);
        assert_eq!(w1.stats().volume.stores, 0);
        assert_eq!(w0.resident(), 0);
        assert_eq!(w1.resident(), 0);
    }

    #[test]
    fn per_worker_capacity_is_enforced() {
        let shared = SharedSlowMemory::new();
        let id = shared.insert_dense(Matrix::<f64>::zeros(8, 8));
        let mut w = shared.worker(MachineConfig::with_capacity(10));
        let b = w.load(id, Region::rect(0, 0, 3, 3)).unwrap();
        let err = w.load(id, Region::rect(0, 0, 2, 2)).unwrap_err();
        assert!(matches!(err, MemoryError::CapacityExceeded { .. }));
        assert_eq!(w.capacity(), Some(10));
        w.discard(b).unwrap();
        // the failed load took no lease
        assert!(shared.take_dense(id).is_ok());
    }

    #[test]
    fn leases_are_tracked_at_the_shared_level() {
        let shared = SharedSlowMemory::new();
        let id = shared.insert_symmetric(SymMatrix::<f64>::zeros(6));
        let mut w0 = shared.worker(MachineConfig::unlimited());
        let mut w1 = shared.worker(MachineConfig::unlimited());
        let b0 = w0
            .load(id, Region::SymLowerTriangle { start: 0, size: 3 })
            .unwrap();
        let b1 = w1.load(id, Region::sym_rect(3, 0, 2, 2)).unwrap();
        assert!(matches!(
            shared.take_symmetric(id),
            Err(MemoryError::LeasesOutstanding { count: 2, .. })
        ));
        w0.store(b0).unwrap();
        assert!(matches!(
            shared.take_symmetric(id),
            Err(MemoryError::LeasesOutstanding { count: 1, .. })
        ));
        w1.discard(b1).unwrap();
        assert!(shared.take_symmetric(id).is_ok());
    }

    #[test]
    fn cross_worker_release_is_rejected() {
        let shared = SharedSlowMemory::new();
        let id = shared.insert_dense(Matrix::<f64>::zeros(4, 4));
        let mut w0 = shared.worker(MachineConfig::unlimited());
        let mut w1 = shared.worker(MachineConfig::unlimited());
        let b = w0.load(id, Region::rect(0, 0, 2, 2)).unwrap();
        assert!(matches!(w1.store(b), Err(MemoryError::ForeignBuffer)));
        let b = w0.load(id, Region::rect(0, 0, 1, 1)).unwrap();
        assert!(matches!(w1.discard(b), Err(MemoryError::ForeignBuffer)));
    }

    #[test]
    fn serial_machine_buffers_are_foreign_to_workers() {
        let mut machine = crate::machine::OocMachine::<f64>::with_capacity(16);
        let mid = machine.insert_dense(Matrix::zeros(3, 3));
        let buf = machine.load(mid, Region::rect(0, 0, 2, 2)).unwrap();

        let shared = SharedSlowMemory::new();
        let _sid = shared.insert_dense(Matrix::<f64>::zeros(3, 3));
        let mut w = shared.worker(MachineConfig::unlimited());
        assert!(matches!(w.store(buf), Err(MemoryError::ForeignBuffer)));
    }

    #[test]
    fn concurrent_disjoint_stores_all_land() {
        let n = 32;
        let shared = SharedSlowMemory::new();
        let id = shared.insert_dense(Matrix::<f64>::zeros(n, n));
        std::thread::scope(|scope| {
            for w in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    let mut machine = shared.worker(MachineConfig::with_capacity(n * n / 4));
                    for col in (w..n).step_by(4) {
                        let mut buf = machine.load(id, Region::rect(0, col, n, 1)).unwrap();
                        for (i, v) in buf.as_mut_slice().iter_mut().enumerate() {
                            *v = (col * n + i) as f64;
                        }
                        machine.store(buf).unwrap();
                    }
                    assert_eq!(machine.stats().volume.stores, (n * n / 4) as u64);
                });
            }
        });
        let out = shared.take_dense(id).unwrap();
        for col in 0..n {
            for row in 0..n {
                assert_eq!(out[(row, col)], (col * n + row) as f64);
            }
        }
    }

    #[test]
    fn unknown_matrix_and_kind_mismatch_errors() {
        let shared = SharedSlowMemory::<f64>::new();
        let sym = shared.insert_symmetric(SymMatrix::zeros(3));
        let bogus = MatrixId::synthetic(99);
        let mut w = shared.worker(MachineConfig::unlimited());
        assert!(w.load(bogus, Region::rect(0, 0, 1, 1)).is_err());
        assert!(w.allocate_zeroed(bogus, Region::rect(0, 0, 1, 1)).is_err());
        assert!(shared.shape(bogus).is_err());
        assert!(shared.take_dense(sym).is_err());
        assert!(shared.take_symmetric(bogus).is_err());
        assert!(shared.take_symmetric(sym).is_ok());
    }

    #[test]
    fn failed_scatter_release_still_releases_the_lease() {
        // A write-back that fails must still release the lease the buffer
        // held — the buffer is consumed either way, and keeping the lease
        // would strand the matrix un-takeable forever. Unreachable through
        // the worker surface (loads validate regions up front), so drive
        // the internal path with a hand-taken lease.
        let shared = SharedSlowMemory::new();
        let id = shared.insert_dense(Matrix::<f64>::zeros(4, 4));
        *shared.lock().shards[0].leases.get_mut(&id.0).unwrap() += 1;
        let err = shared
            .scatter_release(id, &Region::rect(3, 3, 2, 2), &[0.0; 4])
            .unwrap_err();
        assert!(matches!(err, MemoryError::RegionOutOfBounds { .. }));
        assert!(shared.take_dense(id).is_ok(), "lease must be released");
    }

    #[test]
    fn sharded_memory_homes_matrices_and_attributes_traffic() {
        let shared = SharedSlowMemory::<f64>::with_shards(2);
        assert_eq!(shared.num_shards(), 2);
        let local = shared.insert_dense_on(0, Matrix::zeros(4, 4));
        let remote = shared.insert_dense_on(1, Matrix::zeros(4, 4));
        assert_eq!(shared.shard_of(local).unwrap(), 0);
        assert_eq!(shared.shard_of(remote).unwrap(), 1);

        let mut w = shared.worker_on(MachineConfig::unlimited(), 0);
        assert_eq!(w.home(), 0);
        let b0 = w.load(local, Region::rect(0, 0, 2, 2)).unwrap();
        let b1 = w.load(remote, Region::rect(0, 0, 4, 1)).unwrap();
        w.store(b0).unwrap();
        w.discard(b1).unwrap();
        assert_eq!(w.stats().shard(0).loads, 4);
        assert_eq!(w.stats().shard(0).stores, 4);
        assert_eq!(w.stats().shard(1).loads, 4);
        assert_eq!(w.cross_shard_loads(), 4);
        // The aggregate volume is shard-blind, as before.
        assert_eq!(w.stats().volume.loads, 8);
        drop(w);
        assert!(shared.take_dense(local).is_ok());
        assert!(shared.take_dense(remote).is_ok());
    }

    #[test]
    fn unsharded_workers_record_no_shard_breakdown() {
        let shared = SharedSlowMemory::<f64>::new();
        assert_eq!(shared.num_shards(), 1);
        let id = shared.insert_dense(Matrix::zeros(4, 4));
        let mut w = shared.worker(MachineConfig::unlimited());
        let b = w.load(id, Region::rect(0, 0, 2, 2)).unwrap();
        w.store(b).unwrap();
        assert!(w.stats().per_shard.is_empty());
        assert_eq!(w.cross_shard_loads(), 0);
    }

    /// Regression for the sharded lease-accounting audit: a lease released
    /// on one shard must not free capacity (unblock a take) on another.
    /// Matrix ids are globally unique and each shard keeps its own lease
    /// map, so churning leases against shard 1 leaves shard 0's
    /// `LeasesOutstanding` intact.
    #[test]
    fn lease_release_on_one_shard_does_not_free_another() {
        let shared = SharedSlowMemory::<f64>::with_shards(2);
        let m0 = shared.insert_dense_on(0, Matrix::zeros(4, 4));
        let m1 = shared.insert_dense_on(1, Matrix::zeros(4, 4));

        let mut w = shared.worker_on(MachineConfig::unlimited(), 0);
        let held = w.load(m0, Region::rect(0, 0, 2, 2)).unwrap();
        // Churn many lease take/release cycles against the *other* shard.
        for _ in 0..10 {
            let b = w.load(m1, Region::rect(0, 0, 2, 2)).unwrap();
            w.discard(b).unwrap();
        }
        // Shard 0's lease is still outstanding; shard 1 is free.
        assert!(matches!(
            shared.take_dense(m0),
            Err(MemoryError::LeasesOutstanding { count: 1, .. })
        ));
        assert!(shared.take_dense(m1).is_ok());
        w.discard(held).unwrap();
        assert!(shared.take_dense(m0).is_ok());
    }

    /// Regression for concurrent cross-shard lease churn: workers homed on
    /// different shards hammer loads/stores/discards against *both* shards
    /// concurrently; every lease must come home, every store must land, and
    /// each worker's per-shard breakdown must sum to its aggregate volume.
    #[test]
    fn concurrent_cross_shard_lease_churn_stays_consistent() {
        let n = 16;
        let shards = 3;
        let shared = SharedSlowMemory::<f64>::with_shards(shards);
        let ids: Vec<_> = (0..shards)
            .map(|s| shared.insert_dense_on(s, Matrix::zeros(n, n)))
            .collect();

        std::thread::scope(|scope| {
            for w in 0..shards {
                let shared = &shared;
                let ids = &ids;
                scope.spawn(move || {
                    let mut machine = shared.worker_on(MachineConfig::with_capacity(n), w);
                    for round in 0..40 {
                        // Rotate over every shard, own and foreign.
                        let target = ids[(w + round) % shards];
                        let col = (w * 40 + round) % n;
                        let mut buf = machine.load(target, Region::rect(0, col, n, 1)).unwrap();
                        if round % 2 == 0 {
                            for v in buf.as_mut_slice() {
                                *v += 1.0;
                            }
                            machine.store(buf).unwrap();
                        } else {
                            machine.discard(buf).unwrap();
                        }
                    }
                    let per_shard_loads: u64 =
                        (0..shards).map(|s| machine.stats().shard(s).loads).sum();
                    assert_eq!(per_shard_loads, machine.stats().volume.loads);
                    assert_eq!(machine.resident(), 0);
                });
            }
        });

        // Every lease came home: every matrix is takeable from its shard.
        for (s, id) in ids.iter().enumerate() {
            assert_eq!(shared.shard_of(*id).unwrap(), s);
            assert!(shared.take_dense(*id).is_ok());
        }
    }

    #[test]
    fn allocate_zeroed_charges_no_load_per_worker() {
        let shared = SharedSlowMemory::new();
        let id = shared.insert_symmetric(SymMatrix::<f64>::zeros(8));
        let mut w = shared.worker(MachineConfig::with_capacity(16));
        let buf = w
            .allocate_zeroed(id, Region::SymLowerTriangle { start: 0, size: 4 })
            .unwrap();
        assert_eq!(buf.len(), 10);
        assert_eq!(w.stats().volume.loads, 0);
        assert_eq!(w.resident(), 10);
        w.store(buf).unwrap();
        assert_eq!(w.stats().volume.stores, 10);
        assert_eq!(w.stats().peak_resident, 10);
    }
}
