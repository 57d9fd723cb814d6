//! Slow-memory storage: the unbounded memory holding whole matrices.
//!
//! Slow memory owns matrices in either dense ([`symla_matrix::Matrix`]) or
//! symmetric packed ([`symla_matrix::SymMatrix`]) form, and knows how to
//! gather a [`Region`] into a flat fast-memory buffer and scatter it back.
//!
//! Three crate-private pieces give every slow memory (the serial
//! [`crate::OocMachine`], each shard of [`crate::SharedSlowMemory`] and the
//! file tier) one data path:
//!
//! * the region's run visitor states buffer order once;
//! * `Layout` states storage order once: shape, kind, stored length, region
//!   validation, and a region's *runs*, the maximal stretches of consecutive
//!   storage indices, so a gather or scatter is one slice copy per run;
//! * `Registry` keeps each registered matrix with its lease count and owns
//!   lease, release and the checks on take.

use crate::error::{MemoryError, Result};
use crate::machine::MatrixId;
use crate::region::Region;
use std::collections::btree_map::{BTreeMap, Entry};
use symla_matrix::packed::{packed_len, packed_lower_index};
use symla_matrix::{Matrix, MatrixError, Scalar, SymMatrix};

/// A matrix resident in slow memory.
#[derive(Debug, Clone)]
pub enum SlowMatrix<T: Scalar> {
    /// Dense column-major storage.
    Dense(Matrix<T>),
    /// Symmetric packed-lower storage.
    Symmetric(SymMatrix<T>),
}

impl<T: Scalar> SlowMatrix<T> {
    /// Logical shape of the stored matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.layout().shape()
    }

    /// Human-readable storage kind (used in error messages).
    pub fn kind(&self) -> &'static str {
        self.layout().kind()
    }

    /// Number of scalars physically stored in slow memory.
    pub fn stored_len(&self) -> usize {
        self.layout().stored_len()
    }

    /// Validates `region` against this matrix (storage-kind compatibility
    /// and bounds) without transferring any data.
    pub fn validate_region(&self, region: &Region) -> Result<()> {
        self.layout().validate(region)
    }

    /// Copies the elements of `region` into a flat buffer using the layout
    /// documented on [`Region`].
    pub fn gather(&self, region: &Region) -> Result<Vec<T>> {
        let layout = self.layout();
        layout.validate(region)?;
        let storage = match self {
            SlowMatrix::Dense(m) => m.as_slice(),
            SlowMatrix::Symmetric(s) => s.as_packed(),
        };
        // Zero-filled first, so a run is one slice copy as in `scatter`. Not
        // `vec![T::ZERO; n]`, which allocates through `calloc`: that read a
        // higher peak RSS in the benchmark than this allocate-and-fill.
        let mut out = Vec::with_capacity(region.len());
        out.resize(region.len(), T::ZERO);
        let mut rest = &mut out[..];
        layout.for_each_run(region, |start, len| {
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
            copy_run(run, &storage[start..start + len]);
            rest = tail;
        });
        Ok(out)
    }

    /// Writes a flat buffer (with the layout documented on [`Region`]) back
    /// into the elements of `region`.
    pub fn scatter(&mut self, region: &Region, data: &[T]) -> Result<()> {
        let layout = self.layout();
        layout.validate_buffer(region, data.len())?;
        let storage = match self {
            SlowMatrix::Dense(m) => m.as_mut_slice(),
            SlowMatrix::Symmetric(s) => s.as_packed_mut(),
        };
        let mut rest = data;
        layout.for_each_run(region, |start, len| {
            let (run, tail) = rest.split_at(len);
            copy_run(&mut storage[start..start + len], run);
            rest = tail;
        });
        Ok(())
    }

    /// The dense matrix, or `self` back when it is symmetric.
    pub(crate) fn into_dense(self) -> std::result::Result<Matrix<T>, Self> {
        match self {
            SlowMatrix::Dense(m) => Ok(m),
            other => Err(other),
        }
    }

    /// The symmetric matrix, or `self` back when it is dense.
    pub(crate) fn into_symmetric(self) -> std::result::Result<SymMatrix<T>, Self> {
        match self {
            SlowMatrix::Symmetric(s) => Ok(s),
            other => Err(other),
        }
    }
}

/// `dst.copy_from_slice(src)`, minus the `memcpy` call for the one-element
/// runs that row gathers and `SymPairs` consist of.
#[inline(always)]
fn copy_run<T: Copy>(dst: &mut [T], src: &[T]) {
    match dst {
        [one] => *one = src[0],
        _ => dst.copy_from_slice(src),
    }
}

/// A registered matrix: anything that knows its [`Layout`].
pub(crate) trait Stored {
    fn layout(&self) -> Layout;
}

impl<T: Scalar> Stored for SlowMatrix<T> {
    fn layout(&self) -> Layout {
        match self {
            SlowMatrix::Dense(m) => Layout::Dense {
                rows: m.rows(),
                cols: m.cols(),
            },
            SlowMatrix::Symmetric(s) => Layout::Packed { n: s.order() },
        }
    }
}

/// Where a registered matrix keeps its elements in its flat storage (a
/// `Vec` in memory, a stretch of the backing file on disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// Column-major `rows x cols`: a dense matrix.
    Dense { rows: usize, cols: usize },
    /// Packed lower triangle of order `n`, column by column: a symmetric
    /// matrix.
    Packed { n: usize },
}

impl Layout {
    pub(crate) fn shape(self) -> (usize, usize) {
        match self {
            Layout::Dense { rows, cols } => (rows, cols),
            Layout::Packed { n } => (n, n),
        }
    }

    /// The storage kind, as error messages name it.
    pub(crate) fn kind(self) -> &'static str {
        match self {
            Layout::Dense { .. } => "dense",
            Layout::Packed { .. } => "symmetric",
        }
    }

    pub(crate) fn stored_len(self) -> usize {
        match self {
            Layout::Dense { rows, cols } => rows * cols,
            Layout::Packed { n } => packed_len(n),
        }
    }

    /// Checks that `region` addresses this kind of storage and lies in
    /// bounds.
    pub(crate) fn validate(self, region: &Region) -> Result<()> {
        let compatible = match self {
            Layout::Dense { .. } => region.is_dense_region(),
            Layout::Packed { .. } => region.is_symmetric_region(),
        };
        if !compatible {
            return Err(MemoryError::RegionKindMismatch {
                region: region.to_string(),
                storage: self.kind(),
            });
        }
        region
            .validate(self.shape())
            .map_err(|_| MemoryError::RegionOutOfBounds {
                region: region.to_string(),
                shape: self.shape(),
            })
    }

    /// [`Layout::validate`], then checks that a buffer of `len` elements
    /// holds exactly `region` (the write-back path).
    pub(crate) fn validate_buffer(self, region: &Region, len: usize) -> Result<()> {
        self.validate(region)?;
        if len != region.len() {
            return Err(MemoryError::Matrix(MatrixError::InvalidBufferLength {
                expected: region.len(),
                actual: len,
            }));
        }
        Ok(())
    }

    /// Visits the storage of a validated `region` in buffer layout order as
    /// runs: `f(start, len)` stands for the storage indices
    /// `start..start + len`, which fill the next `len` buffer offsets. Runs
    /// are maximal, so no run starts where the one before it ends.
    pub(crate) fn for_each_run(self, region: &Region, f: impl FnMut(usize, usize)) {
        // One loop per layout, so the cell index is not re-dispatched per
        // cell; a symmetric cell comes in lower-triangle coordinates.
        match self {
            Layout::Dense { rows, .. } => runs(region, |i, j| i + j * rows, f),
            Layout::Packed { n } => runs(region, |i, j| packed_lower_index(n, i, j), f),
        }
    }
}

/// [`Layout::for_each_run`] for the storage index `index`. Forced inline,
/// with [`Region::for_each_run`], so the per-cell closure below inlines
/// into each of the region's loops instead of costing a call per cell.
#[inline(always)]
fn runs(region: &Region, index: impl Fn(usize, usize) -> usize, mut f: impl FnMut(usize, usize)) {
    let mut run = (0, 0);
    region.for_each_run(|i, j, len| {
        if len == 0 {
            return;
        }
        let start = index(i, j);
        if start != run.0 + run.1 {
            if run.1 > 0 {
                f(run.0, run.1);
            }
            run = (start, 0);
        }
        run.1 += len;
    });
    if run.1 > 0 {
        f(run.0, run.1);
    }
}

/// The matrices one slow memory holds, each with its lease count: the
/// number of its buffers currently in fast memory. A matrix with a lease
/// out cannot be taken out.
#[derive(Debug)]
pub(crate) struct Registry<M> {
    entries: BTreeMap<u64, (M, usize)>,
}

impl<M> Default for Registry<M> {
    fn default() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }
}

impl<M: Stored> Registry<M> {
    pub(crate) fn insert(&mut self, id: u64, matrix: M) {
        self.entries.insert(id, (matrix, 0));
    }

    pub(crate) fn get(&self, id: MatrixId) -> Result<&M> {
        self.entries
            .get(&id.0)
            .map(|(matrix, _)| matrix)
            .ok_or(MemoryError::UnknownMatrix { id: id.0 })
    }

    /// Runs `f` (the transfer into fast memory) on matrix `id`, and takes a
    /// lease on the matrix only when `f` succeeds.
    pub(crate) fn lease<R>(&mut self, id: MatrixId, f: impl FnOnce(&M) -> Result<R>) -> Result<R> {
        let (matrix, leases) = self.entry(id)?;
        let out = f(matrix)?;
        *leases += 1;
        Ok(out)
    }

    /// Returns a lease on matrix `id`, then runs `f` (the write-back, if
    /// any) on it. The lease comes back even when `f` fails: the buffer has
    /// left fast memory either way, and keeping its lease would leave the
    /// matrix never takeable.
    pub(crate) fn release<R>(
        &mut self,
        id: MatrixId,
        f: impl FnOnce(&mut M) -> Result<R>,
    ) -> Result<R> {
        let (matrix, leases) = self.entry(id)?;
        *leases = leases.saturating_sub(1);
        f(matrix)
    }

    fn entry(&mut self, id: MatrixId) -> Result<&mut (M, usize)> {
        self.entries
            .get_mut(&id.0)
            .ok_or(MemoryError::UnknownMatrix { id: id.0 })
    }

    /// Matrix `id` seen through `f`, which answers `None` when the matrix is
    /// not of the kind `op` (the caller's name) wants.
    pub(crate) fn peek<'a, R>(
        &'a self,
        id: MatrixId,
        op: &str,
        f: impl FnOnce(&'a M) -> Option<R>,
    ) -> Result<R> {
        let matrix = self.get(id)?;
        f(matrix).ok_or_else(|| kind_mismatch(op, matrix))
    }

    /// Removes matrix `id` once no lease is out on it, converted by `f`,
    /// which hands back a matrix not of the kind `op` (the caller's name)
    /// wants; that matrix stays registered.
    pub(crate) fn take<R>(
        &mut self,
        id: MatrixId,
        op: &str,
        f: impl FnOnce(M) -> std::result::Result<R, M>,
    ) -> Result<R> {
        let Entry::Occupied(entry) = self.entries.entry(id.0) else {
            return Err(MemoryError::UnknownMatrix { id: id.0 });
        };
        let count = entry.get().1;
        if count > 0 {
            return Err(MemoryError::LeasesOutstanding { id: id.0, count });
        }
        f(entry.remove().0).map_err(|matrix| {
            let err = kind_mismatch(op, &matrix);
            self.insert(id.0, matrix);
            err
        })
    }
}

fn kind_mismatch(op: &str, matrix: &impl Stored) -> MemoryError {
    MemoryError::RegionKindMismatch {
        region: op.to_string(),
        storage: matrix.layout().kind(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symla_matrix::generate::random_matrix_seeded;

    #[test]
    fn dense_rect_gather_scatter_roundtrip() {
        let m: Matrix<f64> = random_matrix_seeded(6, 5, 81);
        let mut slow = SlowMatrix::Dense(m.clone());
        let region = Region::rect(1, 2, 3, 2);
        let buf = slow.gather(&region).unwrap();
        assert_eq!(buf.len(), 6);
        // column-major layout of the block
        assert_eq!(buf[0], m[(1, 2)]);
        assert_eq!(buf[1], m[(2, 2)]);
        assert_eq!(buf[3], m[(1, 3)]);

        let doubled: Vec<f64> = buf.iter().map(|x| x * 2.0).collect();
        slow.scatter(&region, &doubled).unwrap();
        if let SlowMatrix::Dense(d) = &slow {
            assert_eq!(d[(1, 2)], 2.0 * m[(1, 2)]);
            assert_eq!(d[(0, 0)], m[(0, 0)]);
        } else {
            panic!("storage kind changed");
        }
    }

    #[test]
    fn dense_rows_gather_layout() {
        let m: Matrix<f64> = random_matrix_seeded(8, 4, 82);
        let slow = SlowMatrix::Dense(m.clone());
        let region = Region::Rows {
            rows: vec![1, 4, 7],
            col0: 1,
            cols: 2,
        };
        let buf = slow.gather(&region).unwrap();
        // layout: rows-major within a column, columns outer
        assert_eq!(buf[0], m[(1, 1)]);
        assert_eq!(buf[1], m[(4, 1)]);
        assert_eq!(buf[2], m[(7, 1)]);
        assert_eq!(buf[3], m[(1, 2)]);
    }

    #[test]
    fn symmetric_regions_roundtrip() {
        let s = SymMatrix::<f64>::from_lower_fn(8, |i, j| (i * 8 + j) as f64);
        let mut slow = SlowMatrix::Symmetric(s.clone());

        let rect = Region::sym_rect(4, 0, 2, 3);
        let buf = slow.gather(&rect).unwrap();
        assert_eq!(buf[0], s.get(4, 0));
        assert_eq!(buf[2], s.get(4, 1));

        let tri = Region::SymLowerTriangle { start: 2, size: 3 };
        let tbuf = slow.gather(&tri).unwrap();
        assert_eq!(tbuf.len(), 6);
        assert_eq!(tbuf[0], s.get(2, 2));
        assert_eq!(tbuf[1], s.get(3, 2));
        assert_eq!(tbuf[3], s.get(3, 3));

        let pairs = Region::SymPairs {
            rows: vec![1, 3, 6],
        };
        let pbuf = slow.gather(&pairs).unwrap();
        assert_eq!(pbuf, vec![s.get(3, 1), s.get(6, 1), s.get(6, 3)]);

        // scatter the pairs back with new values and check placement
        slow.scatter(&pairs, &[100.0, 200.0, 300.0]).unwrap();
        if let SlowMatrix::Symmetric(sm) = &slow {
            assert_eq!(sm.get(3, 1), 100.0);
            assert_eq!(sm.get(6, 1), 200.0);
            assert_eq!(sm.get(6, 3), 300.0);
            assert_eq!(sm.get(2, 1), s.get(2, 1));
        } else {
            panic!("storage kind changed");
        }
    }

    #[test]
    fn kind_mismatch_and_bounds_errors() {
        let dense = SlowMatrix::Dense(Matrix::<f64>::zeros(4, 4));
        assert!(matches!(
            dense.gather(&Region::SymLowerTriangle { start: 0, size: 2 }),
            Err(MemoryError::RegionKindMismatch { .. })
        ));
        assert!(matches!(
            dense.gather(&Region::rect(0, 0, 5, 1)),
            Err(MemoryError::RegionOutOfBounds { .. })
        ));

        let sym = SlowMatrix::Symmetric(SymMatrix::<f64>::zeros(4));
        assert!(matches!(
            sym.gather(&Region::rect(0, 0, 2, 2)),
            Err(MemoryError::RegionKindMismatch { .. })
        ));

        let mut sym2 = SlowMatrix::Symmetric(SymMatrix::<f64>::zeros(4));
        assert!(matches!(
            sym2.scatter(&Region::SymLowerTriangle { start: 0, size: 2 }, &[0.0]),
            Err(MemoryError::Matrix(_))
        ));
    }

    #[test]
    fn shape_kind_and_len_report() {
        let dense = SlowMatrix::Dense(Matrix::<f64>::zeros(3, 5));
        assert_eq!(dense.shape(), (3, 5));
        assert_eq!(dense.kind(), "dense");
        assert_eq!(dense.stored_len(), 15);
        let sym = SlowMatrix::Symmetric(SymMatrix::<f64>::zeros(4));
        assert_eq!(sym.shape(), (4, 4));
        assert_eq!(sym.kind(), "symmetric");
        assert_eq!(sym.stored_len(), 10);
    }
}
