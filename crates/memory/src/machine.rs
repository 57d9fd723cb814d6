//! The two-level out-of-core machine.
//!
//! [`OocMachine`] simulates the machine model of Section 3 of the paper: an
//! unbounded slow memory holding the matrices, and a fast memory of capacity
//! `S` elements in which all computation must happen. Schedules interact with
//! the machine exclusively through [`OocMachine::load`],
//! [`OocMachine::allocate_zeroed`], [`OocMachine::store`] and
//! [`OocMachine::discard`]; every load and store is counted, and the resident
//! footprint is checked against the capacity on every allocation, so a
//! schedule that claims to run in memory `S` provably does.
//!
//! The buffers handed out ([`FastBuf`]) own their data: the only way to get
//! values out of slow memory is a counted load, and the only way to persist
//! results is a counted store. Computation happens directly on the buffers
//! (usually through the view kernels of
//! [`symla_matrix::kernels::views`]), never on hidden copies.

use crate::error::{MemoryError, Result};
use crate::level::Level;
use crate::region::Region;
use crate::stats::IoStats;
use crate::storage::SlowMatrix;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use symla_matrix::kernels::FlopCount;
use symla_matrix::views::{MatView, MatViewMut, PackedLowerView, PackedLowerViewMut};
use symla_matrix::{Matrix, Scalar, SymMatrix};

/// Issues the process-unique tag of every [`Ledger`], which ties the
/// buffers a machine mints to it.
static MACHINE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Identifier of a matrix registered in slow memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatrixId(pub(crate) u64);

impl MatrixId {
    /// Raw numeric id (used in schedule dumps and error messages).
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// A free-standing id for schedules that are analyzed (dry-run, traced,
    /// distributed) without a backing machine. Ids handed out by a machine
    /// start at 0 per machine, so synthetic ids are only meaningful within
    /// the schedule that uses them.
    pub const fn synthetic(raw: u64) -> Self {
        Self(raw)
    }
}

/// Configuration of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Fast-memory capacity in elements; `None` disables the check (useful
    /// for reference executions and for measuring what a schedule *would*
    /// transfer regardless of feasibility).
    pub capacity: Option<usize>,
}

impl MachineConfig {
    /// A machine with fast-memory capacity `s` elements.
    pub fn with_capacity(s: usize) -> Self {
        Self { capacity: Some(s) }
    }

    /// A machine without a capacity check.
    pub fn unlimited() -> Self {
        Self { capacity: None }
    }
}

/// A buffer resident in fast memory, leased from an [`OocMachine`].
#[derive(Debug)]
pub struct FastBuf<T: Scalar> {
    data: Vec<T>,
    matrix: MatrixId,
    region: Region,
    machine_tag: u64,
}

impl<T: Scalar> FastBuf<T> {
    /// Assembles a buffer lease. Only the machines of this crate (the serial
    /// [`OocMachine`] and the shared-slow-memory workers of [`crate::shared`])
    /// may mint leases; `machine_tag` ties the buffer to its issuer so a
    /// buffer can never be released against a machine that did not account
    /// for it.
    pub(crate) fn from_parts(
        data: Vec<T>,
        matrix: MatrixId,
        region: Region,
        machine_tag: u64,
    ) -> Self {
        Self {
            data,
            matrix,
            region,
            machine_tag,
        }
    }

    /// Tag of the machine (or worker) that issued this lease.
    pub(crate) fn machine_tag(&self) -> u64 {
        self.machine_tag
    }

    /// Number of elements in the buffer: its region's element count, which
    /// a [`SymbolicMachine`](crate::symbolic::SymbolicMachine) buffer reports
    /// without holding the data.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// The region of the source matrix this buffer mirrors.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The matrix this buffer was leased from.
    pub fn matrix_id(&self) -> MatrixId {
        self.matrix
    }

    /// Read-only access to the raw buffer (layout documented on [`Region`];
    /// empty for a symbolic buffer).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the raw buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Shape of the buffer when interpreted as a column-major rectangle
    /// (valid for `Rect`, `Rows` and `SymRect` regions).
    pub fn rect_shape(&self) -> Option<(usize, usize)> {
        match &self.region {
            Region::Rect { rows, cols, .. } | Region::SymRect { rows, cols, .. } => {
                Some((*rows, *cols))
            }
            Region::Rows { rows, cols, .. } | Region::SymRows { rows, cols, .. } => {
                Some((rows.len(), *cols))
            }
            _ => None,
        }
    }

    /// Column-major matrix view of a rectangular buffer.
    pub fn rect_view(&self) -> Result<MatView<'_, T>> {
        let (r, c) = self
            .rect_shape()
            .ok_or_else(|| MemoryError::RegionKindMismatch {
                region: self.region.to_string(),
                storage: "rectangular view",
            })?;
        Ok(MatView::new(&self.data, r, c)?)
    }

    /// Mutable column-major matrix view of a rectangular buffer.
    pub fn rect_view_mut(&mut self) -> Result<MatViewMut<'_, T>> {
        let (r, c) = self
            .rect_shape()
            .ok_or_else(|| MemoryError::RegionKindMismatch {
                region: self.region.to_string(),
                storage: "rectangular view",
            })?;
        Ok(MatViewMut::new(&mut self.data, r, c)?)
    }

    /// Packed lower-triangular view of a `SymLowerTriangle` buffer.
    pub fn packed_view(&self) -> Result<PackedLowerView<'_, T>> {
        match &self.region {
            Region::SymLowerTriangle { size, .. } => Ok(PackedLowerView::new(&self.data, *size)?),
            other => Err(MemoryError::RegionKindMismatch {
                region: other.to_string(),
                storage: "packed lower view",
            }),
        }
    }

    /// Mutable packed lower-triangular view of a `SymLowerTriangle` buffer.
    pub fn packed_view_mut(&mut self) -> Result<PackedLowerViewMut<'_, T>> {
        match &self.region {
            Region::SymLowerTriangle { size, .. } => {
                Ok(PackedLowerViewMut::new(&mut self.data, *size)?)
            }
            other => Err(MemoryError::RegionKindMismatch {
                region: other.to_string(),
                storage: "packed lower view",
            }),
        }
    }
}

/// The capacity, residency, phase and statistics bookkeeping shared by
/// every machine of this crate.
///
/// The simulated [`OocMachine`], the file-backed
/// [`FileSlowMemory`](crate::file::FileSlowMemory), the workers of
/// [`crate::shared::SharedSlowMemory`] and the data-less
/// [`SymbolicMachine`](crate::symbolic::SymbolicMachine) differ only in where
/// the bytes live, or whether there are any. The accounting contract —
/// element-exact load/store counting, capacity checks on every admission,
/// per-phase and per-level attribution — lives here, so their `IoStats`
/// cannot drift apart.
#[derive(Debug)]
pub(crate) struct Ledger {
    config: MachineConfig,
    resident: usize,
    stats: IoStats,
    phase: String,
    tag: u64,
}

impl Ledger {
    pub(crate) fn new(config: MachineConfig) -> Self {
        Self {
            config,
            resident: 0,
            stats: IoStats::new(),
            phase: "main".to_string(),
            tag: MACHINE_COUNTER.fetch_add(1, Ordering::Relaxed),
        }
    }

    pub(crate) fn tag(&self) -> u64 {
        self.tag
    }

    pub(crate) fn capacity(&self) -> Option<usize> {
        self.config.capacity
    }

    pub(crate) fn resident(&self) -> usize {
        self.resident
    }

    pub(crate) fn set_phase(&mut self, phase: &str) {
        // Replays re-declare the phase at every group: reuse the buffer.
        self.phase.clear();
        self.phase.push_str(phase);
    }

    pub(crate) fn phase(&self) -> &str {
        &self.phase
    }

    pub(crate) fn check_capacity(&self, extra: usize) -> Result<()> {
        if let Some(cap) = self.config.capacity {
            if self.resident + extra > cap {
                return Err(MemoryError::CapacityExceeded {
                    requested: extra,
                    resident: self.resident,
                    capacity: cap,
                });
            }
        }
        Ok(())
    }

    /// Rejects buffers minted by another machine.
    pub(crate) fn check_owned(&self, machine_tag: u64) -> Result<()> {
        if machine_tag != self.tag {
            return Err(MemoryError::ForeignBuffer);
        }
        Ok(())
    }

    /// Accounts a completed load of `elements` at tier `level`: residency
    /// and load traffic (per phase and, off the default tier, per level).
    pub(crate) fn admit_load(&mut self, elements: usize, level: Level) {
        self.resident += elements;
        self.stats.observe_resident(self.resident);
        self.stats.record_load(elements, &self.phase);
        if !level.is_default() {
            self.stats.record_level_load(level.raw(), elements);
        }
    }

    /// Accounts a zero-fill allocation of `elements` (no load traffic).
    pub(crate) fn admit_alloc(&mut self, elements: usize) {
        self.resident += elements;
        self.stats.observe_resident(self.resident);
    }

    /// Releases `elements` of residency.
    pub(crate) fn release(&mut self, elements: usize) {
        self.resident -= elements;
    }

    /// Accounts a completed store of `elements` at tier `level`.
    pub(crate) fn note_store(&mut self, elements: usize, level: Level) {
        self.stats.record_store(elements, &self.phase);
        if !level.is_default() {
            self.stats.record_level_store(level.raw(), elements);
        }
    }

    pub(crate) fn stats(&self) -> &IoStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut IoStats {
        &mut self.stats
    }

    pub(crate) fn into_accounting(self) -> IoStats {
        self.stats
    }
}

/// Per-matrix lease counts of a machine that owns its matrices: a matrix
/// with buffers still out in fast memory cannot be taken out.
#[derive(Debug, Default)]
pub(crate) struct Leases(BTreeMap<u64, usize>);

impl Leases {
    /// Opens the account of a newly registered matrix.
    pub(crate) fn register(&mut self, id: u64) {
        self.0.insert(id, 0);
    }

    pub(crate) fn take(&mut self, id: MatrixId) {
        *self.0.get_mut(&id.0).expect("lease entry exists") += 1;
    }

    pub(crate) fn release(&mut self, id: MatrixId) {
        if let Some(count) = self.0.get_mut(&id.0) {
            *count = count.saturating_sub(1);
        }
    }

    pub(crate) fn check_takeable(&self, id: u64) -> Result<()> {
        match self.0.get(&id) {
            None => Err(MemoryError::UnknownMatrix { id }),
            Some(&count) if count > 0 => Err(MemoryError::LeasesOutstanding { id, count }),
            Some(_) => Ok(()),
        }
    }
}

/// The simulated two-level memory machine.
#[derive(Debug)]
pub struct OocMachine<T: Scalar> {
    matrices: BTreeMap<u64, SlowMatrix<T>>,
    next_id: u64,
    ledger: Ledger,
    leases: Leases,
}

impl<T: Scalar> OocMachine<T> {
    /// Creates a machine with the given configuration.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            matrices: BTreeMap::new(),
            next_id: 0,
            ledger: Ledger::new(config),
            leases: Leases::default(),
        }
    }

    /// Convenience constructor: capacity `s`.
    pub fn with_capacity(s: usize) -> Self {
        Self::new(MachineConfig::with_capacity(s))
    }

    /// The configured capacity.
    pub fn capacity(&self) -> Option<usize> {
        self.ledger.capacity()
    }

    /// Elements currently resident in fast memory.
    pub fn resident(&self) -> usize {
        self.ledger.resident()
    }

    /// Registers a dense matrix in slow memory.
    pub fn insert_dense(&mut self, m: Matrix<T>) -> MatrixId {
        self.insert(SlowMatrix::Dense(m))
    }

    /// Registers a symmetric matrix in slow memory.
    pub fn insert_symmetric(&mut self, s: SymMatrix<T>) -> MatrixId {
        self.insert(SlowMatrix::Symmetric(s))
    }

    fn insert(&mut self, m: SlowMatrix<T>) -> MatrixId {
        let id = self.next_id;
        self.next_id += 1;
        self.matrices.insert(id, m);
        self.leases.register(id);
        MatrixId(id)
    }

    /// Logical shape of a registered matrix.
    pub fn shape(&self, id: MatrixId) -> Result<(usize, usize)> {
        self.matrices
            .get(&id.0)
            .map(|m| m.shape())
            .ok_or(MemoryError::UnknownMatrix { id: id.0 })
    }

    /// Declares the current phase; subsequent transfers are attributed to it.
    pub fn set_phase(&mut self, phase: &str) {
        self.ledger.set_phase(phase);
    }

    /// The currently active phase label.
    pub fn phase(&self) -> &str {
        self.ledger.phase()
    }

    /// Loads a region of a matrix into fast memory, charging its element
    /// count as load traffic and checking the capacity.
    pub fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.load_at(id, region, Level::SLOW)
    }

    fn load_at(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        self.ledger.check_capacity(region.len())?;
        let matrix = self
            .matrices
            .get(&id.0)
            .ok_or(MemoryError::UnknownMatrix { id: id.0 })?;
        let data = matrix.gather(&region)?;
        self.ledger.admit_load(region.len(), level);
        self.leases.take(id);
        Ok(FastBuf::from_parts(data, id, region, self.ledger.tag()))
    }

    /// Reserves fast-memory space for a region *without reading it* (no load
    /// traffic). Used for output blocks whose previous contents are
    /// irrelevant because the schedule overwrites every element.
    pub fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        let elements = region.len();
        self.ledger.check_capacity(elements)?;
        let matrix = self
            .matrices
            .get(&id.0)
            .ok_or(MemoryError::UnknownMatrix { id: id.0 })?;
        // Validate the region against the matrix without transferring data.
        matrix.validate_region(&region)?;
        self.ledger.admit_alloc(elements);
        self.leases.take(id);
        Ok(FastBuf::from_parts(
            vec![T::ZERO; elements],
            id,
            region,
            self.ledger.tag(),
        ))
    }

    /// Writes a buffer back to slow memory (charging store traffic) and
    /// releases its fast-memory space.
    pub fn store(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.store_at(buf, Level::SLOW)
    }

    fn store_at(&mut self, buf: FastBuf<T>, level: Level) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag)?;
        let matrix = self
            .matrices
            .get_mut(&buf.matrix.0)
            .ok_or(MemoryError::UnknownMatrix { id: buf.matrix.0 })?;
        matrix.scatter(&buf.region, &buf.data)?;
        self.ledger.release(buf.len());
        self.leases.release(buf.matrix);
        self.ledger.note_store(buf.len(), level);
        Ok(())
    }

    /// Releases a buffer without writing it back (no store traffic).
    pub fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag)?;
        self.ledger.release(buf.len());
        self.leases.release(buf.matrix);
        Ok(())
    }

    /// Records arithmetic work performed by the schedule.
    pub fn record_flops(&mut self, flops: FlopCount) {
        self.ledger.stats_mut().record_flops(flops);
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &IoStats {
        self.ledger.stats()
    }

    /// Removes a dense matrix from slow memory and returns it (fails if any
    /// fast-memory buffer leased from it is still outstanding, or if the
    /// matrix is not dense).
    pub fn take_dense(&mut self, id: MatrixId) -> Result<Matrix<T>> {
        self.leases.check_takeable(id.0)?;
        match self.matrices.remove(&id.0) {
            Some(SlowMatrix::Dense(m)) => Ok(m),
            Some(other) => {
                let kind = other.kind();
                self.matrices.insert(id.0, other);
                Err(MemoryError::RegionKindMismatch {
                    region: "take_dense".to_string(),
                    storage: kind,
                })
            }
            None => Err(MemoryError::UnknownMatrix { id: id.0 }),
        }
    }

    /// Removes a symmetric matrix from slow memory and returns it.
    pub fn take_symmetric(&mut self, id: MatrixId) -> Result<SymMatrix<T>> {
        self.leases.check_takeable(id.0)?;
        match self.matrices.remove(&id.0) {
            Some(SlowMatrix::Symmetric(s)) => Ok(s),
            Some(other) => {
                let kind = other.kind();
                self.matrices.insert(id.0, other);
                Err(MemoryError::RegionKindMismatch {
                    region: "take_symmetric".to_string(),
                    storage: kind,
                })
            }
            None => Err(MemoryError::UnknownMatrix { id: id.0 }),
        }
    }

    /// Read-only access to a dense matrix still registered in slow memory
    /// (for verification at the end of a run; does not count as I/O since it
    /// is an out-of-band inspection, not part of the schedule).
    pub fn peek_dense(&self, id: MatrixId) -> Result<&Matrix<T>> {
        match self.matrices.get(&id.0) {
            Some(SlowMatrix::Dense(m)) => Ok(m),
            Some(other) => Err(MemoryError::RegionKindMismatch {
                region: "peek_dense".to_string(),
                storage: other.kind(),
            }),
            None => Err(MemoryError::UnknownMatrix { id: id.0 }),
        }
    }

    /// Read-only access to a symmetric matrix still registered in slow
    /// memory.
    pub fn peek_symmetric(&self, id: MatrixId) -> Result<&SymMatrix<T>> {
        match self.matrices.get(&id.0) {
            Some(SlowMatrix::Symmetric(s)) => Ok(s),
            Some(other) => Err(MemoryError::RegionKindMismatch {
                region: "peek_symmetric".to_string(),
                storage: other.kind(),
            }),
            None => Err(MemoryError::UnknownMatrix { id: id.0 }),
        }
    }
}

/// The machine surface a schedule replayer drives.
///
/// The serial [`OocMachine`], the per-worker machines of
/// [`crate::shared::SharedSlowMemory`] and the data-less
/// [`SymbolicMachine`](crate::symbolic::SymbolicMachine) implement this
/// trait, so the one replay loop of `symla-sched` executes a schedule against
/// any of them: one private slow memory (serial execution), one slow memory
/// shared by `P` workers (parallel execution), or no data at all (dry runs,
/// traces and modelled time). Every implementation must uphold the accounting
/// contract of [`OocMachine`]: loads and stores are counted element-exactly,
/// the resident footprint is capacity-checked on every allocation, and a
/// buffer can only be released against the machine that issued it.
pub trait MachineOps<T: Scalar> {
    /// Transfers a region from slow memory into a new fast-memory buffer,
    /// charging its element count as load traffic.
    fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>>;

    /// Reserves fast-memory space for a region without reading it (no load
    /// traffic); used for outputs the schedule fully overwrites.
    fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>>;

    /// Writes a buffer back to slow memory (charging store traffic) and
    /// releases its fast-memory space.
    fn store(&mut self, buf: FastBuf<T>) -> Result<()>;

    /// Releases a buffer without writing it back (no store traffic).
    fn discard(&mut self, buf: FastBuf<T>) -> Result<()>;

    /// Transfers a region from memory tier `level` into a new fast-memory
    /// buffer. At the default tier ([`Level::SLOW`]) this is exactly
    /// [`MachineOps::load`] — the default implementation forwards there, so
    /// hierarchy-unaware machines keep working unchanged; hierarchy-aware
    /// machines override it to check tier capacities and attribute per-level
    /// traffic (see [`IoStats::per_level`]).
    fn load_from(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        let _ = level;
        self.load(id, region)
    }

    /// Writes a buffer back to memory tier `level` and releases its
    /// fast-memory space. At the default tier this is exactly
    /// [`MachineOps::store`] (the default implementation); the leveled
    /// counterpart of [`MachineOps::load_from`].
    fn store_to(&mut self, buf: FastBuf<T>, level: Level) -> Result<()> {
        let _ = level;
        self.store(buf)
    }

    /// Records arithmetic work performed by the schedule.
    fn record_flops(&mut self, flops: FlopCount);

    /// Declares the current phase; subsequent transfers are attributed to it.
    fn set_phase(&mut self, phase: &str);

    /// The currently active phase label.
    fn phase(&self) -> &str;

    /// The machine's fast-memory capacity in elements (`None` = unchecked).
    /// Prefetching replayers plan their lookahead against this bound.
    fn capacity(&self) -> Option<usize>;

    /// Attributes the most recent load to the overlapped (prefetched) side
    /// of the stall/overlap split (see [`IoStats::note_prefetch`]).
    fn note_prefetch(&mut self, elements: usize);

    /// Marks the boundary between two task-group windows during a replay.
    /// The engine calls this at the start of every group and once after the
    /// last one; timing wrappers (e.g. `LatencyMachine`) settle their
    /// per-window accumulators here. Counting machines ignore it.
    fn note_group_boundary(&mut self) {}

    /// Announces that a replayer is about to execute task group `group`.
    /// Observability wrappers open a timeline span here; counting and
    /// timing machines ignore it (default no-op).
    fn note_group_start(&mut self, _group: usize) {}

    /// Announces that task group `group` finished replaying (closes the
    /// span opened by [`MachineOps::note_group_start`]). Default no-op.
    fn note_group_end(&mut self, _group: usize) {}

    /// Announces a compute kernel about to run, identified by its schedule
    /// mnemonic (`"ger"`, `"chol"`, …). The flop accounting still flows
    /// through [`MachineOps::record_flops`]; this hook only names the
    /// kernel for tracing. Default no-op.
    fn note_compute(&mut self, _kind: &'static str) {}

    /// Announces that a prefetching replayer issued a load of `elements`
    /// elements ahead of time, destined for step `step` of group `group`.
    /// Paired with [`MachineOps::note_prefetch_delivery`]. Default no-op.
    fn note_prefetch_issue(&mut self, _group: usize, _step: usize, _elements: usize) {}

    /// Announces that step `step` of group `group` consumed a buffer that
    /// an earlier [`MachineOps::note_prefetch_issue`] staged. Default
    /// no-op.
    fn note_prefetch_delivery(&mut self, _group: usize, _step: usize) {}

    /// Announces that a parallel worker claimed task group `group`;
    /// `stolen` is `true` when the group came off another worker's queue.
    /// Default no-op.
    fn note_claim(&mut self, _group: usize, _stolen: bool) {}

    /// Whether the machine's buffers carry data. Replayers skip compute
    /// kernels on a machine that answers `false` (a
    /// [`SymbolicMachine`](crate::symbolic::SymbolicMachine)); decorators
    /// forward their inner machine's answer.
    fn holds_data(&self) -> bool {
        true
    }
}

impl<T: Scalar> MachineOps<T> for OocMachine<T> {
    fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        OocMachine::load(self, id, region)
    }

    fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        OocMachine::allocate_zeroed(self, id, region)
    }

    fn store(&mut self, buf: FastBuf<T>) -> Result<()> {
        OocMachine::store(self, buf)
    }

    fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        OocMachine::discard(self, buf)
    }

    fn record_flops(&mut self, flops: FlopCount) {
        OocMachine::record_flops(self, flops)
    }

    fn set_phase(&mut self, phase: &str) {
        OocMachine::set_phase(self, phase)
    }

    fn phase(&self) -> &str {
        OocMachine::phase(self)
    }

    fn capacity(&self) -> Option<usize> {
        OocMachine::capacity(self)
    }

    fn note_prefetch(&mut self, elements: usize) {
        self.ledger.stats_mut().note_prefetch(elements);
    }

    fn load_from(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        self.load_at(id, region, level)
    }

    fn store_to(&mut self, buf: FastBuf<T>, level: Level) -> Result<()> {
        self.store_at(buf, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symla_matrix::generate::random_matrix_seeded;

    #[test]
    fn load_store_roundtrip_counts_io() {
        let a: Matrix<f64> = random_matrix_seeded(6, 6, 90);
        let mut machine = OocMachine::with_capacity(100);
        let id = machine.insert_dense(a.clone());
        assert_eq!(machine.shape(id).unwrap(), (6, 6));

        machine.set_phase("update");
        let mut buf = machine.load(id, Region::rect(0, 0, 3, 3)).unwrap();
        assert_eq!(machine.resident(), 9);
        assert_eq!(machine.stats().volume.loads, 9);
        for v in buf.as_mut_slice() {
            *v += 1.0;
        }
        machine.store(buf).unwrap();
        assert_eq!(machine.resident(), 0);
        assert_eq!(machine.stats().volume.stores, 9);
        assert_eq!(machine.stats().phase("update").loads, 9);
        assert_eq!(machine.stats().peak_resident, 9);

        let out = machine.take_dense(id).unwrap();
        assert_eq!(out[(0, 0)], a[(0, 0)] + 1.0);
        assert_eq!(out[(5, 5)], a[(5, 5)]);
    }

    #[test]
    fn capacity_is_enforced() {
        let a: Matrix<f64> = random_matrix_seeded(10, 10, 91);
        let mut machine = OocMachine::with_capacity(30);
        let id = machine.insert_dense(a);
        let _b1 = machine.load(id, Region::rect(0, 0, 5, 5)).unwrap();
        let err = machine.load(id, Region::rect(0, 5, 5, 5)).unwrap_err();
        assert!(matches!(err, MemoryError::CapacityExceeded { .. }));
        // a smaller region still fits
        let b2 = machine.load(id, Region::rect(0, 5, 5, 1)).unwrap();
        assert_eq!(machine.resident(), 30);
        machine.discard(b2).unwrap();
        assert_eq!(machine.resident(), 25);
    }

    #[test]
    fn unlimited_machine_never_rejects() {
        let a: Matrix<f64> = random_matrix_seeded(20, 20, 92);
        let mut machine = OocMachine::new(MachineConfig::unlimited());
        let id = machine.insert_dense(a);
        let buf = machine.load(id, Region::rect(0, 0, 20, 20)).unwrap();
        assert_eq!(buf.len(), 400);
        assert!(machine.capacity().is_none());
        machine.discard(buf).unwrap();
    }

    #[test]
    fn discard_does_not_write_back() {
        let a: Matrix<f64> = random_matrix_seeded(4, 4, 93);
        let mut machine = OocMachine::with_capacity(16);
        let id = machine.insert_dense(a.clone());
        let mut buf = machine.load(id, Region::rect(0, 0, 4, 4)).unwrap();
        buf.as_mut_slice()[0] = 999.0;
        machine.discard(buf).unwrap();
        assert_eq!(machine.stats().volume.stores, 0);
        let out = machine.take_dense(id).unwrap();
        assert!(out.approx_eq(&a, 0.0));
    }

    #[test]
    fn allocate_zeroed_charges_no_load() {
        let mut machine = OocMachine::with_capacity(50);
        let id = machine.insert_symmetric(SymMatrix::<f64>::zeros(8));
        let buf = machine
            .allocate_zeroed(id, Region::SymLowerTriangle { start: 0, size: 4 })
            .unwrap();
        assert_eq!(buf.len(), 10);
        assert_eq!(machine.stats().volume.loads, 0);
        assert_eq!(machine.resident(), 10);
        machine.store(buf).unwrap();
        assert_eq!(machine.stats().volume.stores, 10);
    }

    #[test]
    fn symmetric_load_views_and_writeback() {
        let s = SymMatrix::<f64>::from_lower_fn(6, |i, j| (i * 6 + j) as f64);
        let mut machine = OocMachine::with_capacity(64);
        let id = machine.insert_symmetric(s.clone());

        let mut tri = machine
            .load(id, Region::SymLowerTriangle { start: 2, size: 3 })
            .unwrap();
        {
            let mut v = tri.packed_view_mut().unwrap();
            assert_eq!(v.get(0, 0), s.get(2, 2));
            v.set(2, 0, -1.0);
        }
        machine.store(tri).unwrap();

        let mut rect = machine.load(id, Region::sym_rect(4, 0, 2, 2)).unwrap();
        {
            let v = rect.rect_view().unwrap();
            assert_eq!(v.get(1, 1), s.get(5, 1));
            let mut vm = rect.rect_view_mut().unwrap();
            vm.set(0, 0, 42.0);
        }
        machine.store(rect).unwrap();

        let out = machine.take_symmetric(id).unwrap();
        assert_eq!(out.get(4, 2), -1.0);
        assert_eq!(out.get(4, 0), 42.0);
        assert_eq!(out.get(1, 0), s.get(1, 0));
    }

    #[test]
    fn pairs_region_roundtrip_through_machine() {
        let s = SymMatrix::<f64>::from_lower_fn(10, |i, j| (i + 10 * j) as f64);
        let mut machine = OocMachine::with_capacity(16);
        let id = machine.insert_symmetric(s.clone());
        let rows = vec![1, 4, 7, 9];
        let mut buf = machine
            .load(id, Region::SymPairs { rows: rows.clone() })
            .unwrap();
        assert_eq!(buf.len(), 6);
        assert!(buf.rect_view().is_err());
        assert!(buf.packed_view().is_err());
        buf.as_mut_slice()[5] = -7.0; // pair (9, 7)
        machine.store(buf).unwrap();
        let out = machine.take_symmetric(id).unwrap();
        assert_eq!(out.get(9, 7), -7.0);
        assert_eq!(out.get(4, 1), s.get(4, 1));
    }

    #[test]
    fn take_while_leased_fails() {
        let mut machine = OocMachine::with_capacity(100);
        let id = machine.insert_dense(Matrix::<f64>::zeros(5, 5));
        let buf = machine.load(id, Region::rect(0, 0, 2, 2)).unwrap();
        assert!(matches!(
            machine.take_dense(id),
            Err(MemoryError::LeasesOutstanding { count: 1, .. })
        ));
        machine.discard(buf).unwrap();
        assert!(machine.take_dense(id).is_ok());
        assert!(matches!(
            machine.take_dense(id),
            Err(MemoryError::UnknownMatrix { .. })
        ));
    }

    #[test]
    fn kind_mismatch_on_take_and_peek() {
        let mut machine = OocMachine::<f64>::with_capacity(10);
        let d = machine.insert_dense(Matrix::zeros(2, 2));
        let s = machine.insert_symmetric(SymMatrix::zeros(2));
        assert!(machine.take_symmetric(d).is_err());
        assert!(machine.take_dense(s).is_err());
        assert!(machine.peek_dense(s).is_err());
        assert!(machine.peek_symmetric(d).is_err());
        assert!(machine.peek_dense(d).is_ok());
        assert!(machine.peek_symmetric(s).is_ok());
        // both still present after failed takes
        assert!(machine.take_dense(d).is_ok());
        assert!(machine.take_symmetric(s).is_ok());
    }

    #[test]
    fn foreign_buffers_are_rejected() {
        let mut m1 = OocMachine::<f64>::with_capacity(10);
        let mut m2 = OocMachine::<f64>::with_capacity(10);
        let id1 = m1.insert_dense(Matrix::zeros(2, 2));
        let _id2 = m2.insert_dense(Matrix::zeros(2, 2));
        let buf = m1.load(id1, Region::rect(0, 0, 2, 2)).unwrap();
        assert!(matches!(m2.store(buf), Err(MemoryError::ForeignBuffer)));
    }

    #[test]
    fn flops_are_accumulated() {
        let mut machine = OocMachine::<f64>::with_capacity(1);
        machine.record_flops(FlopCount::new(10, 5));
        machine.record_flops(FlopCount::new(1, 1));
        assert_eq!(machine.stats().flops.mults, 11);
        assert_eq!(machine.stats().flops.adds, 6);
    }

    #[test]
    fn leveled_transfers_attribute_per_level_traffic() {
        let a: Matrix<f64> = random_matrix_seeded(6, 6, 94);
        let mut machine = OocMachine::with_capacity(100);
        let id = machine.insert_dense(a);

        // Default-tier leveled calls are exactly load/store: no breakdown.
        let buf =
            MachineOps::load_from(&mut machine, id, Region::rect(0, 0, 2, 2), Level::SLOW).unwrap();
        MachineOps::store_to(&mut machine, buf, Level::SLOW).unwrap();
        assert!(machine.stats().per_level.is_empty());

        let buf = MachineOps::load_from(&mut machine, id, Region::rect(0, 0, 3, 3), Level::new(2))
            .unwrap();
        MachineOps::store_to(&mut machine, buf, Level::new(2)).unwrap();
        assert_eq!(machine.stats().level(2).loads, 9);
        assert_eq!(machine.stats().level(2).stores, 9);
        // The aggregate volume counts leveled and default transfers alike.
        assert_eq!(machine.stats().volume.loads, 13);
        assert_eq!(machine.stats().volume.stores, 13);
    }

    #[test]
    fn unknown_matrix_errors() {
        let mut machine = OocMachine::<f64>::with_capacity(10);
        let bogus = MatrixId(99);
        assert!(machine.load(bogus, Region::rect(0, 0, 1, 1)).is_err());
        assert!(machine.shape(bogus).is_err());
        assert!(machine
            .allocate_zeroed(bogus, Region::rect(0, 0, 1, 1))
            .is_err());
        assert_eq!(bogus.raw(), 99);
    }
}
