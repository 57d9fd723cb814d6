//! Regions: the units of data transfer between slow and fast memory.
//!
//! A [`Region`] describes which elements of a slow-memory matrix are moved by
//! one load or store. The element count of a region is exactly the I/O volume
//! charged for transferring it, so every schedule's measured communication
//! volume is the sum of the sizes of the regions it moves.
//!
//! Regions addressing **dense** matrices:
//! * [`Region::Rect`] — a contiguous rectangular block.
//! * [`Region::Rows`] — an arbitrary set of rows restricted to a contiguous
//!   column range (the "gather" pattern of the triangle-block schedules).
//!
//! Regions addressing **symmetric** (packed lower) matrices:
//! * [`Region::SymRect`] — a rectangular block lying entirely inside the
//!   lower triangle (off-diagonal tile).
//! * [`Region::SymLowerTriangle`] — the packed lower triangle of a diagonal
//!   block.
//! * [`Region::SymPairs`] — a *triangle block* `TB(R)` in the paper's sense:
//!   every strictly-subdiagonal pair of a row-index set `R`.
//!
//! The documentation of each variant states the buffer layout used when the
//! region is materialized in fast memory. One crate-private visitor walks
//! that layout as column runs; [`Region::cells`] and the gather and scatter
//! of every slow memory (in memory, sharded or file-backed) derive from it.

use std::fmt;

/// A set of elements of one matrix, transferred as a unit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Region {
    /// Rectangular block of a dense matrix: rows `row0..row0+rows`, columns
    /// `col0..col0+cols`. Buffer layout: column-major `rows x cols`.
    Rect {
        /// First row.
        row0: usize,
        /// First column.
        col0: usize,
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// An explicit set of rows of a dense matrix restricted to the column
    /// range `col0..col0+cols`. Buffer layout: column-major
    /// `rows.len() x cols`, rows ordered as given.
    Rows {
        /// The gathered row indices (order is preserved in the buffer).
        rows: Vec<usize>,
        /// First column.
        col0: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Rectangular block of the lower triangle of a symmetric matrix
    /// (requires `row0 >= col0 + cols - 1` so the block never crosses the
    /// diagonal). Buffer layout: column-major `rows x cols`.
    SymRect {
        /// First row.
        row0: usize,
        /// First column.
        col0: usize,
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Packed lower triangle (diagonal included) of the diagonal block
    /// starting at `start` with side `size` of a symmetric matrix. Buffer
    /// layout: packed lower column-major of order `size`.
    SymLowerTriangle {
        /// First row/column of the diagonal block.
        start: usize,
        /// Side length of the diagonal block.
        size: usize,
    },
    /// Triangle block `TB(rows)` of a symmetric matrix: all pairs `(r, r')`
    /// with `r > r'` and both in `rows`. Buffer layout: row-major over the
    /// ordered pair list `(1,0), (2,0), (2,1), (3,0), ...` where indices
    /// refer to positions in the **sorted ascending** `rows` vector.
    SymPairs {
        /// Row-index set `R` (must be strictly increasing).
        rows: Vec<usize>,
    },
    /// An explicit set of rows of a symmetric matrix restricted to the column
    /// range `col0..col0+cols`, every element lying in the lower triangle
    /// (requires `min(rows) >= col0 + cols - 1`). Buffer layout: column-major
    /// `rows.len() x cols`, rows ordered as given. This is the gather pattern
    /// TBS uses on the `A` panel when that panel is itself a window of the
    /// symmetric matrix being factorized (inside LBC).
    SymRows {
        /// The gathered row indices (order is preserved in the buffer).
        rows: Vec<usize>,
        /// First column.
        col0: usize,
        /// Number of columns.
        cols: usize,
    },
}

impl Region {
    /// Convenience constructor for a dense rectangular region.
    pub fn rect(row0: usize, col0: usize, rows: usize, cols: usize) -> Self {
        Region::Rect {
            row0,
            col0,
            rows,
            cols,
        }
    }

    /// Convenience constructor for a dense column segment (a `rows x 1`
    /// rectangle).
    pub fn col_segment(col: usize, row0: usize, rows: usize) -> Self {
        Region::Rect {
            row0,
            col0: col,
            rows,
            cols: 1,
        }
    }

    /// Convenience constructor for a symmetric rectangular region.
    pub fn sym_rect(row0: usize, col0: usize, rows: usize, cols: usize) -> Self {
        Region::SymRect {
            row0,
            col0,
            rows,
            cols,
        }
    }

    /// Number of elements the region covers (= I/O volume of transferring
    /// it).
    pub fn len(&self) -> usize {
        match self {
            Region::Rect { rows, cols, .. } => rows * cols,
            Region::Rows { rows, cols, .. } => rows.len() * cols,
            Region::SymRect { rows, cols, .. } => rows * cols,
            Region::SymLowerTriangle { size, .. } => size * (size + 1) / 2,
            Region::SymPairs { rows } => rows.len() * rows.len().saturating_sub(1) / 2,
            Region::SymRows { rows, cols, .. } => rows.len() * cols,
        }
    }

    /// Whether the region covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The matrix coordinates the region covers, in **buffer layout order**:
    /// `cells()[i]` is the element a fast-memory buffer holding this region
    /// stores at offset `i`. Symmetric regions report lower-triangle
    /// coordinates (`row >= col`). The order comes from the crate's one
    /// run visitor over the region, which every machine also gathers and
    /// scatters by, so no consumer can disagree with the buffers.
    ///
    /// This is what the schedule-optimization passes and the trace audits
    /// use to reason about overlap and provenance at element granularity.
    pub fn cells(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_run(|i, j, len| out.extend((i..i + len).map(|r| (r, j))));
        debug_assert_eq!(out.len(), self.len());
        out
    }

    /// Visits the region's cells in buffer layout order as column runs:
    /// `f(i, j, len)` stands for the cells `(i..i + len, j)`, the next `len`
    /// offsets of the buffer. This is the one definition of buffer order;
    /// [`Region::cells`] and every machine's gather and scatter derive from
    /// it. Forced inline, so that a gather's per-cell closure inlines into
    /// these loops.
    #[inline(always)]
    pub(crate) fn for_each_run(&self, mut f: impl FnMut(usize, usize, usize)) {
        match self {
            Region::Rect {
                row0,
                col0,
                rows,
                cols,
            }
            | Region::SymRect {
                row0,
                col0,
                rows,
                cols,
            } => (0..*cols).for_each(|j| f(*row0, col0 + j, *rows)),
            Region::Rows { rows, col0, cols } | Region::SymRows { rows, col0, cols } => {
                for j in 0..*cols {
                    rows.iter().for_each(|&r| f(r, col0 + j, 1));
                }
            }
            Region::SymLowerTriangle { start, size } => {
                (0..*size).for_each(|j| f(start + j, start + j, size - j))
            }
            Region::SymPairs { rows } => {
                for (a, &r) in rows.iter().enumerate() {
                    rows[..a].iter().for_each(|&rp| f(r, rp, 1));
                }
            }
        }
    }

    /// Whether this region may only be applied to dense storage.
    pub fn is_dense_region(&self) -> bool {
        matches!(self, Region::Rect { .. } | Region::Rows { .. })
    }

    /// Whether this region may only be applied to symmetric (packed lower)
    /// storage.
    pub fn is_symmetric_region(&self) -> bool {
        !self.is_dense_region()
    }

    /// Checks structural validity against a matrix of shape
    /// `(rows, cols)`: bounds, lower-triangle containment for symmetric
    /// regions, and strictly increasing row sets. Returns a human-readable
    /// reason when invalid.
    pub fn validate(&self, shape: (usize, usize)) -> std::result::Result<(), String> {
        let (m, n) = shape;
        match self {
            Region::Rect {
                row0,
                col0,
                rows,
                cols,
            } => {
                if overruns(*row0, *rows, m) || overruns(*col0, *cols, n) {
                    return Err(format!(
                        "rect {row0}+{rows} x {col0}+{cols} exceeds {m}x{n}"
                    ));
                }
                Ok(())
            }
            Region::Rows { rows, col0, cols } => {
                if overruns(*col0, *cols, n) {
                    return Err(format!("column range {col0}+{cols} exceeds {n}"));
                }
                for &r in rows {
                    if r >= m {
                        return Err(format!("row {r} exceeds {m}"));
                    }
                }
                Ok(())
            }
            Region::SymRect {
                row0,
                col0,
                rows,
                cols,
            } => {
                if m != n {
                    return Err("symmetric region on a non-square matrix".to_string());
                }
                if overruns(*row0, *rows, m) || overruns(*col0, *cols, n) {
                    return Err(format!(
                        "sym rect {row0}+{rows} x {col0}+{cols} exceeds {m}x{n}"
                    ));
                }
                if *rows > 0 && *cols > 0 && *row0 < col0 + cols - 1 {
                    return Err(format!(
                        "sym rect starting at row {row0} crosses the diagonal (cols end at {})",
                        col0 + cols - 1
                    ));
                }
                Ok(())
            }
            Region::SymLowerTriangle { start, size } => {
                if m != n {
                    return Err("symmetric region on a non-square matrix".to_string());
                }
                if overruns(*start, *size, m) {
                    return Err(format!("diagonal block {start}+{size} exceeds {m}"));
                }
                Ok(())
            }
            Region::SymPairs { rows } => {
                if m != n {
                    return Err("symmetric region on a non-square matrix".to_string());
                }
                for w in rows.windows(2) {
                    if w[0] >= w[1] {
                        return Err("row set of SymPairs must be strictly increasing".to_string());
                    }
                }
                if let Some(&last) = rows.last() {
                    if last >= m {
                        return Err(format!("row {last} exceeds {m}"));
                    }
                }
                Ok(())
            }
            Region::SymRows { rows, col0, cols } => {
                if m != n {
                    return Err("symmetric region on a non-square matrix".to_string());
                }
                if overruns(*col0, *cols, n) {
                    return Err(format!("column range {col0}+{cols} exceeds {n}"));
                }
                for &r in rows {
                    if r >= m {
                        return Err(format!("row {r} exceeds {m}"));
                    }
                    if *cols > 0 && r < col0 + cols - 1 {
                        return Err(format!(
                            "row {r} crosses the diagonal (columns end at {})",
                            col0 + cols - 1
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Whether the range `start..start + len` ends past `bound`; a range whose
/// end overflows `usize` does.
fn overruns(start: usize, len: usize, bound: usize) -> bool {
    start.checked_add(len).is_none_or(|end| end > bound)
}

/// Renders a row-index set as `{r1,r2,...}` (the form `Region`'s `FromStr` impl
/// parses back).
fn fmt_rows(f: &mut fmt::Formatter<'_>, rows: &[usize]) -> fmt::Result {
    write!(f, "{{")?;
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{r}")?;
    }
    write!(f, "}}")
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Rect {
                row0,
                col0,
                rows,
                cols,
            } => write!(f, "Rect[{row0}..+{rows}, {col0}..+{cols}]"),
            Region::Rows { rows, col0, cols } => {
                write!(f, "Rows[")?;
                fmt_rows(f, rows)?;
                write!(f, ", {col0}..+{cols}]")
            }
            Region::SymRect {
                row0,
                col0,
                rows,
                cols,
            } => write!(f, "SymRect[{row0}..+{rows}, {col0}..+{cols}]"),
            Region::SymLowerTriangle { start, size } => {
                write!(f, "SymLowerTriangle[{start}..+{size}]")
            }
            Region::SymPairs { rows } => {
                write!(f, "SymPairs[")?;
                fmt_rows(f, rows)?;
                write!(f, "]")
            }
            Region::SymRows { rows, col0, cols } => {
                write!(f, "SymRows[")?;
                fmt_rows(f, rows)?;
                write!(f, ", {col0}..+{cols}]")
            }
        }
    }
}

/// Error returned by parsing a [`Region`] from text (`str::parse`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionParseError(String);

impl fmt::Display for RegionParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unparseable region: {}", self.0)
    }
}

impl std::error::Error for RegionParseError {}

/// Parses `start..+len` into `(start, len)`.
fn parse_range(text: &str) -> std::result::Result<(usize, usize), RegionParseError> {
    let err = || RegionParseError(format!("bad range `{text}` (expected `start..+len`)"));
    let (start, len) = text.split_once("..+").ok_or_else(err)?;
    Ok((
        start.trim().parse().map_err(|_| err())?,
        len.trim().parse().map_err(|_| err())?,
    ))
}

/// Parses `{r1,r2,...}` into a row-index vector.
fn parse_rows(text: &str) -> std::result::Result<Vec<usize>, RegionParseError> {
    let err = || RegionParseError(format!("bad row set `{text}` (expected `{{r1,r2,...}}`)"));
    let inner = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(err)?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|r| r.trim().parse().map_err(|_| err()))
        .collect()
}

impl std::str::FromStr for Region {
    type Err = RegionParseError;

    /// Parses the exact form [`Region`]'s `Display` renders, so
    /// `text.parse::<Region>()` is the inverse of `region.to_string()`
    /// (used by `Schedule::parse` in `symla-sched`).
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        let s = s.trim();
        let err = || RegionParseError(s.to_string());
        let (kind, rest) = s.split_once('[').ok_or_else(err)?;
        let body = rest.strip_suffix(']').ok_or_else(err)?;
        match kind {
            "Rect" | "SymRect" => {
                let (rows_part, cols_part) = body.split_once(", ").ok_or_else(err)?;
                let (row0, rows) = parse_range(rows_part)?;
                let (col0, cols) = parse_range(cols_part)?;
                Ok(if kind == "Rect" {
                    Region::Rect {
                        row0,
                        col0,
                        rows,
                        cols,
                    }
                } else {
                    Region::SymRect {
                        row0,
                        col0,
                        rows,
                        cols,
                    }
                })
            }
            "Rows" | "SymRows" => {
                let close = body.rfind('}').ok_or_else(err)?;
                let rows = parse_rows(&body[..=close])?;
                let tail = body[close + 1..].strip_prefix(", ").ok_or_else(err)?;
                let (col0, cols) = parse_range(tail)?;
                Ok(if kind == "Rows" {
                    Region::Rows { rows, col0, cols }
                } else {
                    Region::SymRows { rows, col0, cols }
                })
            }
            "SymLowerTriangle" => {
                let (start, size) = parse_range(body)?;
                Ok(Region::SymLowerTriangle { start, size })
            }
            "SymPairs" => Ok(Region::SymPairs {
                rows: parse_rows(body)?,
            }),
            _ => Err(err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths() {
        assert_eq!(Region::rect(0, 0, 3, 4).len(), 12);
        assert_eq!(Region::col_segment(2, 1, 5).len(), 5);
        assert_eq!(
            Region::Rows {
                rows: vec![1, 5, 9],
                col0: 0,
                cols: 4
            }
            .len(),
            12
        );
        assert_eq!(Region::sym_rect(5, 0, 2, 3).len(), 6);
        assert_eq!(Region::SymLowerTriangle { start: 0, size: 4 }.len(), 10);
        assert_eq!(
            Region::SymPairs {
                rows: vec![0, 3, 7, 9]
            }
            .len(),
            6
        );
        assert!(Region::SymPairs { rows: vec![2] }.is_empty());
        assert!(!Region::rect(0, 0, 1, 1).is_empty());
    }

    #[test]
    fn cells_match_gather_layout_order() {
        assert_eq!(
            Region::rect(1, 2, 2, 2).cells(),
            vec![(1, 2), (2, 2), (1, 3), (2, 3)]
        );
        assert_eq!(
            Region::Rows {
                rows: vec![1, 4],
                col0: 1,
                cols: 2
            }
            .cells(),
            vec![(1, 1), (4, 1), (1, 2), (4, 2)]
        );
        assert_eq!(
            Region::SymLowerTriangle { start: 2, size: 3 }.cells(),
            vec![(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (4, 4)]
        );
        assert_eq!(
            Region::SymPairs {
                rows: vec![1, 3, 6]
            }
            .cells(),
            vec![(3, 1), (6, 1), (6, 3)]
        );
        assert_eq!(
            Region::SymRows {
                rows: vec![5, 7],
                col0: 0,
                cols: 2
            }
            .cells(),
            vec![(5, 0), (7, 0), (5, 1), (7, 1)]
        );
        assert_eq!(Region::sym_rect(4, 0, 2, 1).cells(), vec![(4, 0), (5, 0)]);
        assert!(Region::SymPairs { rows: vec![3] }.cells().is_empty());
    }

    #[test]
    fn kind_classification() {
        assert!(Region::rect(0, 0, 1, 1).is_dense_region());
        assert!(Region::Rows {
            rows: vec![0],
            col0: 0,
            cols: 1
        }
        .is_dense_region());
        assert!(Region::sym_rect(1, 0, 1, 1).is_symmetric_region());
        assert!(Region::SymLowerTriangle { start: 0, size: 2 }.is_symmetric_region());
        assert!(Region::SymPairs { rows: vec![0, 1] }.is_symmetric_region());
    }

    #[test]
    fn validation_rect_and_rows() {
        assert!(Region::rect(0, 0, 4, 4).validate((4, 4)).is_ok());
        assert!(Region::rect(1, 0, 4, 4).validate((4, 4)).is_err());
        assert!(Region::Rows {
            rows: vec![0, 3],
            col0: 2,
            cols: 2
        }
        .validate((4, 4))
        .is_ok());
        assert!(Region::Rows {
            rows: vec![0, 4],
            col0: 0,
            cols: 1
        }
        .validate((4, 4))
        .is_err());
        assert!(Region::Rows {
            rows: vec![0],
            col0: 4,
            cols: 1
        }
        .validate((4, 4))
        .is_err());
    }

    #[test]
    fn validation_symmetric_regions() {
        // A 3x2 block starting at row 4, col 0 of an 8x8 symmetric matrix is
        // entirely below the diagonal.
        assert!(Region::sym_rect(4, 0, 3, 2).validate((8, 8)).is_ok());
        // Block touching the diagonal is rejected: rows 1.., cols 0..3 has
        // element (1, 2) above the diagonal.
        assert!(Region::sym_rect(1, 0, 3, 3).validate((8, 8)).is_err());
        // Non-square target.
        assert!(Region::sym_rect(4, 0, 2, 2).validate((8, 9)).is_err());
        // Out of bounds.
        assert!(Region::sym_rect(7, 0, 3, 1).validate((8, 8)).is_err());

        assert!(Region::SymLowerTriangle { start: 4, size: 4 }
            .validate((8, 8))
            .is_ok());
        assert!(Region::SymLowerTriangle { start: 5, size: 4 }
            .validate((8, 8))
            .is_err());

        assert!(Region::SymPairs {
            rows: vec![0, 2, 5]
        }
        .validate((8, 8))
        .is_ok());
        assert!(Region::SymPairs {
            rows: vec![0, 2, 2]
        }
        .validate((8, 8))
        .is_err());
        assert!(Region::SymPairs { rows: vec![0, 9] }
            .validate((8, 8))
            .is_err());
        assert!(Region::SymPairs { rows: vec![0, 1] }
            .validate((8, 7))
            .is_err());
    }

    #[test]
    fn validation_sym_rows() {
        let ok = Region::SymRows {
            rows: vec![4, 6, 7],
            col0: 0,
            cols: 3,
        };
        assert!(ok.validate((8, 8)).is_ok());
        assert_eq!(ok.len(), 9);
        assert!(ok.is_symmetric_region());
        assert_eq!(ok.to_string(), "SymRows[{4,6,7}, 0..+3]");
        // row 1 would cross the diagonal for columns 0..3
        assert!(Region::SymRows {
            rows: vec![1, 6],
            col0: 0,
            cols: 3
        }
        .validate((8, 8))
        .is_err());
        // out of bounds
        assert!(Region::SymRows {
            rows: vec![9],
            col0: 0,
            cols: 1
        }
        .validate((8, 8))
        .is_err());
        assert!(Region::SymRows {
            rows: vec![7],
            col0: 7,
            cols: 2
        }
        .validate((8, 8))
        .is_err());
        // non-square target
        assert!(Region::SymRows {
            rows: vec![4],
            col0: 0,
            cols: 1
        }
        .validate((8, 7))
        .is_err());
    }

    /// An origin near `usize::MAX` must not wrap its end back in bounds
    /// (decoded schedules carry arbitrary coordinates).
    #[test]
    fn validation_rejects_ends_that_overflow() {
        let max = usize::MAX;
        for region in [
            Region::rect(max, 0, 2, 1),
            Region::rect(0, max, 1, 2),
            Region::Rows {
                rows: vec![0],
                col0: max,
                cols: 2,
            },
            Region::sym_rect(max, 0, 2, 1),
            Region::sym_rect(3, max, 1, 2),
            Region::SymLowerTriangle {
                start: max,
                size: 2,
            },
            Region::SymRows {
                rows: vec![3],
                col0: max,
                cols: 2,
            },
        ] {
            assert!(region.validate((4, 4)).is_err(), "{region}");
        }
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Region::rect(1, 2, 3, 4).to_string(), "Rect[1..+3, 2..+4]");
        assert_eq!(
            Region::SymPairs {
                rows: vec![1, 2, 3]
            }
            .to_string(),
            "SymPairs[{1,2,3}]"
        );
        assert_eq!(
            Region::Rows {
                rows: vec![1, 2],
                col0: 0,
                cols: 3
            }
            .to_string(),
            "Rows[{1,2}, 0..+3]"
        );
        assert!(Region::sym_rect(3, 0, 1, 1).to_string().contains("SymRect"));
        assert!(Region::SymLowerTriangle { start: 2, size: 3 }
            .to_string()
            .contains("2..+3"));
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let regions = [
            Region::rect(1, 2, 3, 4),
            Region::col_segment(7, 0, 5),
            Region::sym_rect(6, 0, 2, 3),
            Region::SymLowerTriangle { start: 4, size: 3 },
            Region::Rows {
                rows: vec![1, 5, 9],
                col0: 2,
                cols: 4,
            },
            Region::SymRows {
                rows: vec![4, 6, 7],
                col0: 0,
                cols: 3,
            },
            Region::SymPairs {
                rows: vec![0, 3, 7, 9],
            },
            Region::SymPairs { rows: vec![2] },
        ];
        for region in regions {
            let text = region.to_string();
            let parsed: Region = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, region, "{text}");
        }
    }

    #[test]
    fn from_str_rejects_malformed_text() {
        for bad in [
            "Rect[1..+3]",
            "Rect[a..+3, 0..+1]",
            "Rows[3 rows, 0..+1]",
            "SymPairs[1,2]",
            "Blob[0..+1]",
            "Rect 1..+3, 0..+1",
        ] {
            assert!(bad.parse::<Region>().is_err(), "{bad} should not parse");
        }
    }
}
