//! A slow memory whose operands live in a real on-disk file.
//!
//! [`FileSlowMemory`] is the file-backed twin of [`crate::OocMachine`]: the
//! canonical storage of every registered matrix (column-major for dense,
//! packed lower for symmetric) is written to one temporary file, and every
//! [`FileSlowMemory::load`] / [`FileSlowMemory::store`] performs real
//! `seek`/`read`/`write` syscalls against it. The accounting — element-exact
//! I/O counting, capacity checks, leases — is the shared ledger of
//! [`crate::machine`] and the matrix registry of [`crate::storage`], so
//! `IoStats` from a file-backed run are directly comparable (and, for the
//! same schedule, identical) to the simulated machine's.
//!
//! The point of this backend is wall-clock evidence: replaying a schedule
//! against it makes the prefetch engine hide *actual* storage latency, not
//! just modelled nanoseconds. It is gated behind the `file-backed` cargo
//! feature and is not used by any default-build code path.
//!
//! Elements are stored as little-endian `f64` (8 bytes each) through
//! [`Scalar::to_f64`]/[`Scalar::from_f64`], which are exact for both `f32`
//! and `f64`. A transfer reads or writes each of its region's storage runs
//! (the maximal stretches of consecutive storage indices, which the
//! in-memory machines copy as slices) with one seek and one read or write,
//! so a column-shaped region costs one syscall pair per column rather than
//! one per element.

use crate::error::{MemoryError, Result};
use crate::level::Level;
use crate::machine::{FastBuf, Ledger, MachineConfig, MachineOps, MatrixId};
use crate::region::Region;
use crate::stats::IoStats;
use crate::storage::{Layout, Registry, Stored};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::PathBuf;
use symla_matrix::kernels::FlopCount;
use symla_matrix::{Matrix, Scalar, SymMatrix};

/// Bytes per stored element (little-endian `f64`).
const ELEM_BYTES: u64 = 8;

/// Where one matrix lives in the backing file.
#[derive(Debug, Clone, Copy)]
struct FileMatrix {
    layout: Layout,
    /// Offset of the matrix's first element, in elements.
    offset: u64,
}

impl Stored for FileMatrix {
    fn layout(&self) -> Layout {
        self.layout
    }
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> MemoryError {
    move |e| MemoryError::Io {
        context,
        message: e.to_string(),
    }
}

/// Reads `count` elements from element `offset` of `file` onto the end of
/// `out`: one seek and one read.
fn read_into<T: Scalar>(
    file: &mut File,
    offset: u64,
    count: usize,
    out: &mut Vec<T>,
    context: &'static str,
) -> Result<()> {
    file.seek(SeekFrom::Start(offset * ELEM_BYTES))
        .map_err(io_err(context))?;
    let mut bytes = vec![0u8; count * ELEM_BYTES as usize];
    file.read_exact(&mut bytes).map_err(io_err(context))?;
    out.extend(
        bytes
            .chunks_exact(ELEM_BYTES as usize)
            .map(|c| T::from_f64(f64::from_le_bytes(c.try_into().expect("8-byte chunk")))),
    );
    Ok(())
}

/// Writes `data` at element `offset` of `file`: one seek and one write.
fn write_at<T: Scalar>(
    file: &mut File,
    offset: u64,
    data: &[T],
    context: &'static str,
) -> Result<()> {
    file.seek(SeekFrom::Start(offset * ELEM_BYTES))
        .map_err(io_err(context))?;
    let mut bytes = Vec::with_capacity(data.len() * ELEM_BYTES as usize);
    for &v in data {
        bytes.extend_from_slice(&v.to_f64().to_le_bytes());
    }
    file.write_all(&bytes).map_err(io_err(context))
}

/// The file-backed two-level memory machine (mirror of [`crate::OocMachine`]).
#[derive(Debug)]
pub struct FileSlowMemory<T: Scalar> {
    file: File,
    path: PathBuf,
    matrices: Registry<FileMatrix>,
    next_id: u64,
    /// Next free element offset in the file.
    next_offset: u64,
    ledger: Ledger,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Scalar> FileSlowMemory<T> {
    /// Creates a file-backed machine with the given configuration. The
    /// backing file is created in the system temp directory and removed on
    /// drop.
    pub fn new(config: MachineConfig) -> Result<Self> {
        // The ledger's tag is process-unique, so it names the file even if
        // two machines share a temp dir.
        let ledger = Ledger::new(config);
        let path = std::env::temp_dir().join(format!(
            "symla-slow-{}-{}.bin",
            std::process::id(),
            ledger.tag()
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(io_err("creating the backing file"))?;
        Ok(Self {
            file,
            path,
            matrices: Registry::default(),
            next_id: 0,
            next_offset: 0,
            ledger,
            _marker: PhantomData,
        })
    }

    /// Convenience constructor: capacity `s`.
    pub fn with_capacity(s: usize) -> Result<Self> {
        Self::new(MachineConfig::with_capacity(s))
    }

    /// Path of the backing file (useful for diagnostics).
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// The configured capacity.
    pub fn capacity(&self) -> Option<usize> {
        self.ledger.capacity()
    }

    /// Elements currently resident in fast memory.
    pub fn resident(&self) -> usize {
        self.ledger.resident()
    }

    /// Registers a dense matrix: its column-major storage is appended to the
    /// backing file.
    pub fn insert_dense(&mut self, m: Matrix<T>) -> Result<MatrixId> {
        let layout = Layout::Dense {
            rows: m.rows(),
            cols: m.cols(),
        };
        self.insert(layout, m.as_slice())
    }

    /// Registers a symmetric matrix: its packed lower storage is appended to
    /// the backing file.
    pub fn insert_symmetric(&mut self, s: SymMatrix<T>) -> Result<MatrixId> {
        self.insert(Layout::Packed { n: s.order() }, s.as_packed())
    }

    fn insert(&mut self, layout: Layout, storage: &[T]) -> Result<MatrixId> {
        debug_assert_eq!(storage.len(), layout.stored_len());
        let offset = self.next_offset;
        write_at(
            &mut self.file,
            offset,
            storage,
            "writing a registered matrix",
        )?;
        let id = self.next_id;
        self.next_id += 1;
        self.matrices.insert(id, FileMatrix { layout, offset });
        self.next_offset += storage.len() as u64;
        Ok(MatrixId(id))
    }

    /// Logical shape of a registered matrix.
    pub fn shape(&self, id: MatrixId) -> Result<(usize, usize)> {
        Ok(self.matrices.get(id)?.layout.shape())
    }

    /// Declares the current phase; subsequent transfers are attributed to it.
    pub fn set_phase(&mut self, phase: &str) {
        self.ledger.set_phase(phase);
    }

    /// The currently active phase label.
    pub fn phase(&self) -> &str {
        self.ledger.phase()
    }

    /// Loads a region of a matrix into fast memory — a real file read —
    /// charging its element count as load traffic and checking the capacity.
    pub fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.load_at(id, region, Level::SLOW)
    }

    fn load_at(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        self.ledger.check_capacity(region.len())?;
        let file = &mut self.file;
        let data = self.matrices.lease(id, |m| {
            m.layout.validate(&region)?;
            let mut data = Vec::with_capacity(region.len());
            let mut read = Ok(());
            m.layout.for_each_run(&region, |start, len| {
                if read.is_ok() {
                    let offset = m.offset + start as u64;
                    read = read_into(file, offset, len, &mut data, "reading a region");
                }
            });
            read.map(|()| data)
        })?;
        self.ledger.admit_load(region.len(), level);
        Ok(FastBuf::from_parts(data, id, region, self.ledger.tag()))
    }

    /// Reserves fast-memory space for a region without reading the file (no
    /// load traffic).
    pub fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        let elements = region.len();
        self.ledger.check_capacity(elements)?;
        self.matrices.lease(id, |m| m.layout.validate(&region))?;
        self.ledger.admit_alloc(elements);
        Ok(FastBuf::from_parts(
            vec![T::ZERO; elements],
            id,
            region,
            self.ledger.tag(),
        ))
    }

    /// Writes a buffer back to the file (charging store traffic) and releases
    /// its fast-memory space. The buffer leaves fast memory even when the
    /// write fails; the region may then be partly written.
    pub fn store(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.store_at(buf, Level::SLOW)
    }

    fn store_at(&mut self, buf: FastBuf<T>, level: Level) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag())?;
        let file = &mut self.file;
        let written = self.matrices.release(buf.matrix_id(), |m| {
            let mut rest = buf.as_slice();
            m.layout.validate_buffer(buf.region(), rest.len())?;
            let mut written = Ok(());
            m.layout.for_each_run(buf.region(), |start, len| {
                let (run, tail) = rest.split_at(len);
                rest = tail;
                if written.is_ok() {
                    let offset = m.offset + start as u64;
                    written = write_at(file, offset, run, "writing a region");
                }
            });
            written
        });
        self.ledger.settle_store(buf.len(), level, written)
    }

    /// Releases a buffer without writing it back (no store traffic).
    pub fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag())?;
        self.ledger.release(buf.len());
        self.matrices.release(buf.matrix_id(), |_| Ok(()))
    }

    /// Records arithmetic work performed by the schedule.
    pub fn record_flops(&mut self, flops: FlopCount) {
        self.ledger.stats_mut().record_flops(flops);
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &IoStats {
        self.ledger.stats()
    }

    /// Reads a matrix's storage out of the file and deregisters it, once no
    /// lease is out on it and it is dense when `dense` is set, symmetric
    /// otherwise (`op` names the caller in a kind mismatch). A failed read
    /// leaves it registered.
    fn take_storage(&mut self, id: MatrixId, op: &str, dense: bool) -> Result<(Layout, Vec<T>)> {
        let m = self.matrices.take(id, op, |m| {
            if matches!(m.layout, Layout::Dense { .. }) == dense {
                Ok(m)
            } else {
                Err(m)
            }
        })?;
        let len = m.layout.stored_len();
        let mut data = Vec::with_capacity(len);
        read_into(&mut self.file, m.offset, len, &mut data, "reading a matrix")
            .inspect_err(|_| self.matrices.insert(id.0, m))?;
        Ok((m.layout, data))
    }

    /// Reads a dense matrix out of the file and deregisters it (fails if any
    /// lease is outstanding or the matrix is not dense).
    pub fn take_dense(&mut self, id: MatrixId) -> Result<Matrix<T>> {
        let (layout, data) = self.take_storage(id, "take_dense", true)?;
        let (rows, cols) = layout.shape();
        Ok(Matrix::from_col_major(rows, cols, data)?)
    }

    /// Reads a symmetric matrix out of the file and deregisters it.
    pub fn take_symmetric(&mut self, id: MatrixId) -> Result<SymMatrix<T>> {
        let (layout, data) = self.take_storage(id, "take_symmetric", false)?;
        Ok(SymMatrix::from_packed(layout.shape().0, data)?)
    }
}

impl<T: Scalar> Drop for FileSlowMemory<T> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl<T: Scalar> MachineOps<T> for FileSlowMemory<T> {
    fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        FileSlowMemory::load(self, id, region)
    }

    fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        FileSlowMemory::allocate_zeroed(self, id, region)
    }

    fn store(&mut self, buf: FastBuf<T>) -> Result<()> {
        FileSlowMemory::store(self, buf)
    }

    fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        FileSlowMemory::discard(self, buf)
    }

    fn record_flops(&mut self, flops: FlopCount) {
        FileSlowMemory::record_flops(self, flops)
    }

    fn set_phase(&mut self, phase: &str) {
        FileSlowMemory::set_phase(self, phase)
    }

    fn phase(&self) -> &str {
        FileSlowMemory::phase(self)
    }

    fn capacity(&self) -> Option<usize> {
        FileSlowMemory::capacity(self)
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
    use crate::machine::OocMachine;
    use crate::shared::SharedSlowMemory;
    use symla_matrix::generate::{random_matrix_seeded, random_symmetric, seeded_rng};
    use symla_matrix::packed::packed_lower_index;

    /// The file tier's old run algorithm, kept as the oracle for
    /// [`Layout::for_each_run`]: every cell of `region` through its storage
    /// index, split into maximal runs of consecutive indices.
    fn runs_of_cells(layout: Layout, region: &Region) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (i, j) in region.cells() {
            let index = match layout {
                Layout::Dense { rows, .. } => i + j * rows,
                Layout::Packed { n } => packed_lower_index(n, i, j),
            };
            match runs.last_mut() {
                Some((start, len)) if *start + *len == index => *len += 1,
                _ => runs.push((index, 1)),
            }
        }
        runs
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Sweeps every region kind (empty regions, single cells, regions on the
    /// last row and column, a `SymRect` ending on the diagonal, consecutive
    /// and scattered row sets, `SymPairs` of 0, 1, 2 and many rows) through
    /// the same load/mutate/store sequence on the simulated machine, a
    /// shared-slow-memory worker and the file-backed machine. Each region's
    /// storage runs must equal the maximal runs of its cells, and buffers,
    /// results and stats must agree bitwise across the three.
    #[test]
    fn mirrors_the_simulated_machine() {
        let a: Matrix<f64> = random_matrix_seeded(8, 6, 710);
        let mut rng = seeded_rng(711);
        let s: SymMatrix<f64> = random_symmetric(7, &mut rng);

        let mut sim = OocMachine::<f64>::with_capacity(64);
        let shared = SharedSlowMemory::<f64>::new();
        let mut fil = FileSlowMemory::<f64>::with_capacity(64).unwrap();
        let sa = sim.insert_dense(a.clone());
        let ss = sim.insert_symmetric(s.clone());
        assert_eq!(shared.insert_dense(a.clone()), sa);
        assert_eq!(shared.insert_symmetric(s.clone()), ss);
        let mut work = shared.worker(MachineConfig::with_capacity(64));
        let fa = fil.insert_dense(a.clone()).unwrap();
        let fs = fil.insert_symmetric(s.clone()).unwrap();
        assert_eq!(sa, fa);
        assert_eq!(ss, fs);
        assert_eq!(fil.shape(fa).unwrap(), (8, 6));
        assert_eq!(fil.shape(fs).unwrap(), (7, 7));

        let rows = |rows: &[usize], col0, cols| Region::Rows {
            rows: rows.to_vec(),
            col0,
            cols,
        };
        let sym_rows = |rows: &[usize], col0, cols| Region::SymRows {
            rows: rows.to_vec(),
            col0,
            cols,
        };
        let pairs = |rows: &[usize]| Region::SymPairs {
            rows: rows.to_vec(),
        };
        let tri = |start, size| Region::SymLowerTriangle { start, size };
        let regions: Vec<(MatrixId, Region)> = vec![
            (sa, Region::rect(0, 0, 0, 3)),
            (sa, Region::rect(8, 6, 0, 0)),
            (sa, Region::rect(3, 2, 1, 1)),
            (sa, Region::rect(1, 2, 4, 3)),
            (sa, Region::rect(5, 3, 3, 3)),
            (sa, Region::rect(0, 1, 8, 3)),
            (sa, Region::rect(0, 0, 8, 6)),
            (sa, rows(&[], 1, 2)),
            (sa, rows(&[2, 5], 4, 0)),
            (sa, rows(&[7], 5, 1)),
            (sa, rows(&[0, 3, 7], 1, 2)),
            (sa, rows(&[2, 3, 4, 5], 0, 3)),
            (sa, rows(&[6, 7, 0, 1], 4, 2)),
            (ss, Region::sym_rect(4, 0, 0, 2)),
            (ss, Region::sym_rect(6, 6, 1, 1)),
            (ss, Region::sym_rect(4, 0, 3, 2)),
            (ss, Region::sym_rect(3, 2, 4, 2)),
            (ss, Region::sym_rect(2, 0, 5, 3)),
            (ss, tri(3, 0)),
            (ss, tri(6, 1)),
            (ss, tri(2, 3)),
            (ss, tri(4, 3)),
            (ss, tri(0, 7)),
            (ss, pairs(&[])),
            (ss, pairs(&[4])),
            (ss, pairs(&[2, 6])),
            (ss, pairs(&[0, 1, 2])),
            (ss, pairs(&[0, 2, 5, 6])),
            (ss, pairs(&[1, 2, 3, 4, 5, 6])),
            (ss, sym_rows(&[], 0, 2)),
            (ss, sym_rows(&[6], 6, 1)),
            (ss, sym_rows(&[5, 6], 0, 2)),
            (ss, sym_rows(&[3, 4, 5, 6], 2, 2)),
            (ss, sym_rows(&[6, 3, 5], 1, 3)),
        ];
        for (id, region) in regions {
            let layout = fil.matrices.get(id).unwrap().layout;
            let mut runs = Vec::new();
            layout.for_each_run(&region, |start, len| runs.push((start, len)));
            assert_eq!(runs, runs_of_cells(layout, &region), "{region}");

            sim.set_phase("mix");
            work.set_phase("mix");
            fil.set_phase("mix");
            let mut bufs = [
                sim.load(id, region.clone()).unwrap(),
                work.load(id, region.clone()).unwrap(),
                fil.load(id, region.clone()).unwrap(),
            ];
            let gathered = bits(bufs[0].as_slice());
            assert_eq!(gathered.len(), region.len(), "{region}");
            for buf in &mut bufs {
                assert_eq!(bits(buf.as_slice()), gathered, "{region}");
                for x in buf.as_mut_slice() {
                    *x = 2.0 * *x + 1.0;
                }
            }
            let [sb, wb, fb] = bufs;
            sim.store(sb).unwrap();
            work.store(wb).unwrap();
            fil.store(fb).unwrap();
        }
        assert_eq!(sim.stats(), work.stats());
        assert_eq!(sim.stats(), fil.stats());
        assert_eq!(fil.stats().phase("mix").loads, fil.stats().volume.loads);
        drop(work);

        let sim_a = sim.take_dense(sa).unwrap();
        assert_eq!(
            bits(shared.take_dense(sa).unwrap().as_slice()),
            bits(sim_a.as_slice())
        );
        assert_eq!(
            bits(fil.take_dense(fa).unwrap().as_slice()),
            bits(sim_a.as_slice())
        );
        let sim_s = sim.take_symmetric(ss).unwrap();
        assert_eq!(
            bits(shared.take_symmetric(ss).unwrap().as_packed()),
            bits(sim_s.as_packed())
        );
        assert_eq!(
            bits(fil.take_symmetric(fs).unwrap().as_packed()),
            bits(sim_s.as_packed())
        );
    }

    /// A write-back that fails (here: the backing file reopened read-only)
    /// still takes the buffer out of fast memory and returns its lease, as
    /// the shared memory's workers do, and counts no store traffic.
    #[test]
    fn failed_write_releases_residency_and_the_lease() {
        let mut fil = FileSlowMemory::<f64>::with_capacity(16).unwrap();
        let id = fil.insert_dense(Matrix::zeros(4, 4)).unwrap();
        let buf = fil.load(id, Region::rect(0, 0, 2, 2)).unwrap();
        fil.file = File::open(&fil.path).unwrap();
        assert!(matches!(fil.store(buf), Err(MemoryError::Io { .. })));
        assert_eq!(fil.resident(), 0);
        assert_eq!(fil.stats().volume.stores, 0);
        assert!(fil.take_dense(id).is_ok());
    }

    #[test]
    fn capacity_and_leases_are_enforced() {
        let mut fil = FileSlowMemory::<f64>::with_capacity(10).unwrap();
        let id = fil.insert_dense(Matrix::zeros(4, 4)).unwrap();
        let buf = fil.load(id, Region::rect(0, 0, 3, 3)).unwrap();
        assert!(matches!(
            fil.load(id, Region::rect(0, 0, 2, 2)),
            Err(MemoryError::CapacityExceeded { .. })
        ));
        assert!(matches!(
            fil.take_dense(id),
            Err(MemoryError::LeasesOutstanding { count: 1, .. })
        ));
        fil.discard(buf).unwrap();
        assert_eq!(fil.resident(), 0);
        assert_eq!(fil.stats().volume.stores, 0);
        assert!(fil.take_dense(id).is_ok());
        assert!(matches!(
            fil.take_dense(id),
            Err(MemoryError::UnknownMatrix { .. })
        ));
    }

    #[test]
    fn allocate_zeroed_reads_nothing() {
        let mut fil = FileSlowMemory::<f64>::with_capacity(32).unwrap();
        let id = fil.insert_symmetric(SymMatrix::zeros(6)).unwrap();
        let mut buf = fil
            .allocate_zeroed(id, Region::SymLowerTriangle { start: 0, size: 3 })
            .unwrap();
        assert_eq!(fil.stats().volume.loads, 0);
        buf.as_mut_slice().fill(5.0);
        fil.store(buf).unwrap();
        assert_eq!(fil.stats().volume.stores, 6);
        let out = fil.take_symmetric(id).unwrap();
        assert_eq!(out.get(2, 1), 5.0);
        assert_eq!(out.get(4, 0), 0.0);
    }

    #[test]
    fn kind_and_bounds_errors_match_the_simulated_machine() {
        let mut fil = FileSlowMemory::<f64>::with_capacity(64).unwrap();
        let d = fil.insert_dense(Matrix::zeros(4, 4)).unwrap();
        let s = fil.insert_symmetric(SymMatrix::zeros(4)).unwrap();
        assert!(matches!(
            fil.load(d, Region::SymLowerTriangle { start: 0, size: 2 }),
            Err(MemoryError::RegionKindMismatch { .. })
        ));
        assert!(matches!(
            fil.load(s, Region::rect(0, 0, 2, 2)),
            Err(MemoryError::RegionKindMismatch { .. })
        ));
        assert!(matches!(
            fil.load(d, Region::rect(2, 0, 4, 2)),
            Err(MemoryError::RegionOutOfBounds { .. })
        ));
        // An end that overflows `usize` does not wrap back in bounds.
        for region in [
            Region::rect(usize::MAX, 0, 2, 1),
            Region::Rows {
                rows: vec![0],
                col0: usize::MAX,
                cols: 2,
            },
        ] {
            assert!(matches!(
                fil.load(d, region),
                Err(MemoryError::RegionOutOfBounds { .. })
            ));
        }
        assert_eq!(fil.resident(), 0);
        assert!(fil.take_symmetric(d).is_err());
        assert!(fil.take_dense(s).is_err());
        // Still present after the failed takes.
        assert!(fil.take_dense(d).is_ok());
        assert!(fil.take_symmetric(s).is_ok());
    }

    #[test]
    fn foreign_buffers_are_rejected() {
        let mut m1 = FileSlowMemory::<f64>::with_capacity(10).unwrap();
        let mut m2 = FileSlowMemory::<f64>::with_capacity(10).unwrap();
        let id1 = m1.insert_dense(Matrix::zeros(2, 2)).unwrap();
        let buf = m1.load(id1, Region::rect(0, 0, 2, 2)).unwrap();
        assert!(matches!(m2.store(buf), Err(MemoryError::ForeignBuffer)));
    }

    #[test]
    fn backing_file_is_removed_on_drop() {
        let fil = FileSlowMemory::<f64>::with_capacity(10).unwrap();
        let path = fil.path().to_path_buf();
        assert!(path.exists());
        drop(fil);
        assert!(!path.exists());
    }
}
