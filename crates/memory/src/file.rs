//! A slow memory whose operands live in a real on-disk file.
//!
//! [`FileSlowMemory`] is the file-backed twin of [`crate::OocMachine`]: the
//! canonical storage of every registered matrix (column-major for dense,
//! packed lower for symmetric) is written to one temporary file, and every
//! [`FileSlowMemory::load`] / [`FileSlowMemory::store`] performs real
//! `seek`/`read`/`write` syscalls against it. The accounting — element-exact
//! I/O counting, capacity checks, leases — is the shared ledger and
//! lease table of [`crate::machine`], so `IoStats` from a file-backed run are
//! directly comparable (and, for the same schedule, identical) to the
//! simulated machine's.
//!
//! The point of this backend is wall-clock evidence: replaying a schedule
//! against it makes the prefetch engine hide *actual* storage latency, not
//! just modelled nanoseconds. It is gated behind the `file-backed` cargo
//! feature and is not used by any default-build code path.
//!
//! Elements are stored as little-endian `f64` (8 bytes each) through
//! [`Scalar::to_f64`]/[`Scalar::from_f64`], which are exact for both `f32`
//! and `f64`. Transfers coalesce consecutive storage indices into single
//! contiguous reads/writes, so column-shaped regions cost one syscall per
//! column rather than one per element.

use crate::error::{MemoryError, Result};
use crate::level::Level;
use crate::machine::{FastBuf, Leases, Ledger, MachineConfig, MachineOps, MatrixId};
use crate::region::Region;
use crate::stats::IoStats;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::PathBuf;
use symla_matrix::kernels::FlopCount;
use symla_matrix::packed::packed_lower_index;
use symla_matrix::{Matrix, Scalar, SymMatrix};

/// Bytes per stored element (little-endian `f64`).
const ELEM_BYTES: u64 = 8;

/// Storage kind and layout of one matrix in the backing file.
#[derive(Debug, Clone, Copy)]
enum FileKind {
    /// Column-major dense storage of shape `rows x cols`.
    Dense {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Packed lower-triangular storage of the given order.
    Symmetric {
        /// Matrix order.
        order: usize,
    },
}

impl FileKind {
    fn shape(&self) -> (usize, usize) {
        match self {
            FileKind::Dense { rows, cols } => (*rows, *cols),
            FileKind::Symmetric { order } => (*order, *order),
        }
    }

    fn kind_str(&self) -> &'static str {
        match self {
            FileKind::Dense { .. } => "dense",
            FileKind::Symmetric { .. } => "symmetric",
        }
    }

    fn stored_len(&self) -> usize {
        match self {
            FileKind::Dense { rows, cols } => rows * cols,
            FileKind::Symmetric { order } => order * (order + 1) / 2,
        }
    }

    /// Storage index of one matrix cell (symmetric cells arrive as
    /// lower-triangle coordinates from [`Region::cells`]).
    fn storage_index(&self, i: usize, j: usize) -> usize {
        match self {
            FileKind::Dense { rows, .. } => i + j * rows,
            FileKind::Symmetric { order } => packed_lower_index(*order, i, j),
        }
    }
}

/// Where one matrix lives in the backing file.
#[derive(Debug, Clone, Copy)]
struct FileMatrixMeta {
    kind: FileKind,
    /// Offset of the matrix's first element, in elements.
    offset: u64,
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> MemoryError {
    move |e| MemoryError::Io {
        context,
        message: e.to_string(),
    }
}

/// The file-backed two-level memory machine (mirror of [`crate::OocMachine`]).
#[derive(Debug)]
pub struct FileSlowMemory<T: Scalar> {
    file: File,
    path: PathBuf,
    metas: BTreeMap<u64, FileMatrixMeta>,
    next_id: u64,
    /// Next free element offset in the file.
    next_offset: u64,
    ledger: Ledger,
    leases: Leases,
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
            metas: BTreeMap::new(),
            next_id: 0,
            next_offset: 0,
            ledger,
            leases: Leases::default(),
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
        let kind = FileKind::Dense {
            rows: m.rows(),
            cols: m.cols(),
        };
        self.insert(kind, m.as_slice())
    }

    /// Registers a symmetric matrix: its packed lower storage is appended to
    /// the backing file.
    pub fn insert_symmetric(&mut self, s: SymMatrix<T>) -> Result<MatrixId> {
        let kind = FileKind::Symmetric { order: s.order() };
        self.insert(kind, s.as_packed())
    }

    fn insert(&mut self, kind: FileKind, storage: &[T]) -> Result<MatrixId> {
        debug_assert_eq!(storage.len(), kind.stored_len());
        let offset = self.next_offset;
        self.write_elements(offset, storage, "writing a registered matrix")?;
        let id = self.next_id;
        self.next_id += 1;
        self.metas.insert(id, FileMatrixMeta { kind, offset });
        self.next_offset += storage.len() as u64;
        self.leases.register(id);
        Ok(MatrixId(id))
    }

    fn meta(&self, id: MatrixId) -> Result<FileMatrixMeta> {
        self.metas
            .get(&id.0)
            .copied()
            .ok_or(MemoryError::UnknownMatrix { id: id.0 })
    }

    /// Logical shape of a registered matrix.
    pub fn shape(&self, id: MatrixId) -> Result<(usize, usize)> {
        Ok(self.meta(id)?.kind.shape())
    }

    /// Declares the current phase; subsequent transfers are attributed to it.
    pub fn set_phase(&mut self, phase: &str) {
        self.ledger.set_phase(phase);
    }

    /// The currently active phase label.
    pub fn phase(&self) -> &str {
        self.ledger.phase()
    }

    /// Same region validation as the simulated machine (kind compatibility,
    /// bounds) so the two backends fail identically.
    fn validate_region(&self, meta: &FileMatrixMeta, region: &Region) -> Result<()> {
        let compatible = match meta.kind {
            FileKind::Dense { .. } => region.is_dense_region(),
            FileKind::Symmetric { .. } => region.is_symmetric_region(),
        };
        if !compatible {
            return Err(MemoryError::RegionKindMismatch {
                region: region.to_string(),
                storage: meta.kind.kind_str(),
            });
        }
        region
            .validate(meta.kind.shape())
            .map_err(|_| MemoryError::RegionOutOfBounds {
                region: region.to_string(),
                shape: meta.kind.shape(),
            })
    }

    /// Storage indices of `region`, in buffer-layout order.
    fn storage_indices(meta: &FileMatrixMeta, region: &Region) -> Vec<usize> {
        region
            .cells()
            .into_iter()
            .map(|(i, j)| meta.kind.storage_index(i, j))
            .collect()
    }

    /// Splits a storage-index sequence into maximal consecutive runs
    /// `(start_index, len)` so each run is one contiguous file access.
    fn runs(indices: &[usize]) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut iter = indices.iter().copied();
        let Some(first) = iter.next() else {
            return runs;
        };
        let (mut start, mut len) = (first, 1usize);
        for idx in iter {
            if idx == start + len {
                len += 1;
            } else {
                runs.push((start, len));
                start = idx;
                len = 1;
            }
        }
        runs.push((start, len));
        runs
    }

    fn read_elements(
        &mut self,
        offset: u64,
        count: usize,
        context: &'static str,
    ) -> Result<Vec<T>> {
        self.file
            .seek(SeekFrom::Start(offset * ELEM_BYTES))
            .map_err(io_err(context))?;
        let mut bytes = vec![0u8; count * ELEM_BYTES as usize];
        self.file.read_exact(&mut bytes).map_err(io_err(context))?;
        Ok(bytes
            .chunks_exact(ELEM_BYTES as usize)
            .map(|c| T::from_f64(f64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
            .collect())
    }

    fn write_elements(&mut self, offset: u64, data: &[T], context: &'static str) -> Result<()> {
        self.file
            .seek(SeekFrom::Start(offset * ELEM_BYTES))
            .map_err(io_err(context))?;
        let mut bytes = Vec::with_capacity(data.len() * ELEM_BYTES as usize);
        for &v in data {
            bytes.extend_from_slice(&v.to_f64().to_le_bytes());
        }
        self.file.write_all(&bytes).map_err(io_err(context))
    }

    /// Reads a region from the backing file, in buffer-layout order.
    fn gather(&mut self, meta: &FileMatrixMeta, region: &Region) -> Result<Vec<T>> {
        let indices = Self::storage_indices(meta, region);
        let mut out = Vec::with_capacity(indices.len());
        for (start, len) in Self::runs(&indices) {
            out.extend(self.read_elements(meta.offset + start as u64, len, "reading a region")?);
        }
        Ok(out)
    }

    /// Writes a region back to the backing file from buffer-layout order.
    fn scatter(&mut self, meta: &FileMatrixMeta, region: &Region, data: &[T]) -> Result<()> {
        if data.len() != region.len() {
            return Err(MemoryError::Matrix(
                symla_matrix::MatrixError::InvalidBufferLength {
                    expected: region.len(),
                    actual: data.len(),
                },
            ));
        }
        let indices = Self::storage_indices(meta, region);
        let mut consumed = 0usize;
        for (start, len) in Self::runs(&indices) {
            self.write_elements(
                meta.offset + start as u64,
                &data[consumed..consumed + len],
                "writing a region",
            )?;
            consumed += len;
        }
        Ok(())
    }

    /// Loads a region of a matrix into fast memory — a real file read —
    /// charging its element count as load traffic and checking the capacity.
    pub fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.load_at(id, region, Level::SLOW)
    }

    fn load_at(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        self.ledger.check_capacity(region.len())?;
        let meta = self.meta(id)?;
        self.validate_region(&meta, &region)?;
        let data = self.gather(&meta, &region)?;
        self.ledger.admit_load(region.len(), level);
        self.leases.take(id);
        Ok(FastBuf::from_parts(data, id, region, self.ledger.tag()))
    }

    /// Reserves fast-memory space for a region without reading the file (no
    /// load traffic).
    pub fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        let elements = region.len();
        self.ledger.check_capacity(elements)?;
        let meta = self.meta(id)?;
        self.validate_region(&meta, &region)?;
        self.ledger.admit_alloc(elements);
        self.leases.take(id);
        Ok(FastBuf::from_parts(
            vec![T::ZERO; elements],
            id,
            region,
            self.ledger.tag(),
        ))
    }

    /// Writes a buffer back to the file (charging store traffic) and releases
    /// its fast-memory space.
    pub fn store(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.store_at(buf, Level::SLOW)
    }

    fn store_at(&mut self, buf: FastBuf<T>, level: Level) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag())?;
        let meta = self.meta(buf.matrix_id())?;
        self.validate_region(&meta, buf.region())?;
        self.scatter(&meta, buf.region(), buf.as_slice())?;
        self.ledger.release(buf.len());
        self.leases.release(buf.matrix_id());
        self.ledger.note_store(buf.len(), level);
        Ok(())
    }

    /// Releases a buffer without writing it back (no store traffic).
    pub fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag())?;
        self.ledger.release(buf.len());
        self.leases.release(buf.matrix_id());
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

    /// Reads a dense matrix out of the file and deregisters it (fails if any
    /// lease is outstanding or the matrix is not dense).
    pub fn take_dense(&mut self, id: MatrixId) -> Result<Matrix<T>> {
        self.leases.check_takeable(id.0)?;
        let meta = self.meta(id)?;
        let FileKind::Dense { rows, cols } = meta.kind else {
            return Err(MemoryError::RegionKindMismatch {
                region: "take_dense".to_string(),
                storage: meta.kind.kind_str(),
            });
        };
        let data = self.read_elements(meta.offset, meta.kind.stored_len(), "reading a matrix")?;
        self.metas.remove(&id.0);
        Ok(Matrix::from_col_major(rows, cols, data)?)
    }

    /// Reads a symmetric matrix out of the file and deregisters it.
    pub fn take_symmetric(&mut self, id: MatrixId) -> Result<SymMatrix<T>> {
        self.leases.check_takeable(id.0)?;
        let meta = self.meta(id)?;
        let FileKind::Symmetric { order } = meta.kind else {
            return Err(MemoryError::RegionKindMismatch {
                region: "take_symmetric".to_string(),
                storage: meta.kind.kind_str(),
            });
        };
        let data = self.read_elements(meta.offset, meta.kind.stored_len(), "reading a matrix")?;
        self.metas.remove(&id.0);
        Ok(SymMatrix::from_packed(order, data)?)
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
    use symla_matrix::generate::{random_matrix_seeded, random_symmetric, seeded_rng};

    /// Runs the same load/mutate/store sequence against the simulated and the
    /// file-backed machine; results and stats must agree exactly.
    #[test]
    fn mirrors_the_simulated_machine() {
        let a: Matrix<f64> = random_matrix_seeded(8, 6, 710);
        let mut rng = seeded_rng(711);
        let s: SymMatrix<f64> = random_symmetric(7, &mut rng);

        let mut sim = OocMachine::<f64>::with_capacity(64);
        let mut fil = FileSlowMemory::<f64>::with_capacity(64).unwrap();
        let sa = sim.insert_dense(a.clone());
        let ss = sim.insert_symmetric(s.clone());
        let fa = fil.insert_dense(a.clone()).unwrap();
        let fs = fil.insert_symmetric(s.clone()).unwrap();
        assert_eq!(sa, fa);
        assert_eq!(ss, fs);
        assert_eq!(fil.shape(fa).unwrap(), (8, 6));
        assert_eq!(fil.shape(fs).unwrap(), (7, 7));

        let regions: Vec<(MatrixId, Region)> = vec![
            (sa, Region::rect(1, 2, 4, 3)),
            (
                sa,
                Region::Rows {
                    rows: vec![0, 3, 7],
                    col0: 1,
                    cols: 2,
                },
            ),
            (ss, Region::SymLowerTriangle { start: 2, size: 3 }),
            (ss, Region::sym_rect(4, 0, 3, 2)),
            (
                ss,
                Region::SymPairs {
                    rows: vec![0, 2, 5, 6],
                },
            ),
            (
                ss,
                Region::SymRows {
                    rows: vec![5, 6],
                    col0: 0,
                    cols: 2,
                },
            ),
        ];
        for (id, region) in regions {
            sim.set_phase("mix");
            fil.set_phase("mix");
            let mut sb = sim.load(id, region.clone()).unwrap();
            let mut fb = fil.load(id, region).unwrap();
            assert_eq!(sb.as_slice(), fb.as_slice(), "gather order must match");
            for (x, y) in sb.as_mut_slice().iter_mut().zip(fb.as_mut_slice()) {
                *x = 2.0 * *x + 1.0;
                *y = 2.0 * *y + 1.0;
            }
            sim.store(sb).unwrap();
            fil.store(fb).unwrap();
        }
        assert_eq!(sim.stats(), fil.stats());
        assert_eq!(fil.stats().phase("mix").loads, fil.stats().volume.loads);

        let (sim_a, fil_a) = (sim.take_dense(sa).unwrap(), fil.take_dense(fa).unwrap());
        let (sim_s, fil_s) = (
            sim.take_symmetric(ss).unwrap(),
            fil.take_symmetric(fs).unwrap(),
        );
        assert_eq!(sim_a.as_slice(), fil_a.as_slice());
        assert_eq!(sim_s.as_packed(), fil_s.as_packed());
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

    #[test]
    fn runs_coalesce_consecutive_indices() {
        assert_eq!(
            FileSlowMemory::<f64>::runs(&[3, 4, 5, 9, 10, 2]),
            vec![(3, 3), (9, 2), (2, 1)]
        );
        assert!(FileSlowMemory::<f64>::runs(&[]).is_empty());
    }
}
