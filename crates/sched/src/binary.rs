//! Binary serialization of schedules and prefetch plans.
//!
//! The text form ([`Schedule::dump`] / [`Schedule::parse`]) is the
//! human-auditable serialization; this module is its compact binary twin,
//! specified against it: `Schedule::from_bytes(&s.to_bytes()) == s` for
//! exactly the schedules whose text round-trip holds, and both forms share
//! one version story: a schedule encodes with the lowest version able to
//! express it ([`Schedule::text_version`] — 1 for plain two-level
//! schedules, byte-identical to what older builds wrote; 2 when leveled
//! transfers are present), and decoders accept everything up to
//! [`FORMAT_VERSION`].
//!
//! The encoding is a tag-length-value layout:
//!
//! ```text
//! magic   b"SYPB"                      4 bytes
//! version u16 LE  (≤ FORMAT_VERSION)   2 bytes
//! scalar  u8      (size_of::<T>())     1 byte
//! flags   u8      (bit 0: prefetch plan present)
//! [tag 0x01] [u64 LE length] schedule payload
//! [tag 0x02] [u64 LE length] prefetch-plan payload   (only if flag set)
//! ```
//!
//! Within the schedule payload every step is one tag byte plus fixed-width
//! little-endian operands (`u64` for indices, IEEE-754 `f64` bits for
//! scalars — the same widening the text form uses, lossless for `f32` and
//! `f64`). Decoding is total: every read is bounds-checked and every
//! malformed input returns a typed [`BinaryError`]; no input can panic the
//! decoder. This is what the plan cache (`symla-plancache`) stores on disk.
//!
//! ```
//! use symla_memory::{MatrixId, Region};
//! use symla_sched::{Schedule, ScheduleBuilder};
//!
//! let mut b = ScheduleBuilder::<f64>::new();
//! let x = b.load(MatrixId::synthetic(0), Region::rect(0, 0, 2, 2));
//! b.store(x);
//! let schedule = b.finish();
//! let bytes = schedule.to_bytes();
//! assert_eq!(Schedule::<f64>::from_bytes(&bytes).unwrap(), schedule);
//! ```

use crate::ir::{BufSlice, ComputeOp, Schedule, Step, TaskGroup};
use crate::prefetch::{PrefetchIssue, PrefetchPlan};
use std::fmt;
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;
use symla_memory::{Level, MatrixId, Region};

/// Newest version of the schedule serialization formats (text **and**
/// binary) this build understands. Version 2 added leveled transfers
/// (memory-hierarchy [`Level`] annotations on
/// load/store steps); encoders still emit version 1 for schedules without
/// them, and decoders reject anything newer than this constant.
pub const FORMAT_VERSION: u16 = 2;

/// Magic bytes opening every binary-serialized plan.
pub const MAGIC: [u8; 4] = *b"SYPB";

const SECTION_SCHEDULE: u8 = 0x01;
const SECTION_PREFETCH: u8 = 0x02;

const FLAG_PREFETCH: u8 = 0b0000_0001;

/// Typed decoding error: every way a byte buffer can fail to be a plan.
///
/// Offsets are byte positions into the input, for debugging corrupt cache
/// files. Decoding never panics; it returns one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// The buffer ended before a read of `needed` bytes at `offset`.
    Truncated {
        /// Byte position of the read.
        offset: usize,
        /// Bytes the read required.
        needed: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header carries a version newer than [`FORMAT_VERSION`].
    UnsupportedVersion(u16),
    /// The plan was encoded for a scalar of a different width.
    ScalarWidthMismatch {
        /// Width this decoder's scalar type has.
        expected: u8,
        /// Width recorded in the header.
        found: u8,
    },
    /// Structurally invalid content (unknown tag, bad UTF-8, length
    /// mismatch, trailing bytes, ...).
    Corrupt {
        /// Byte position the problem was detected at.
        offset: usize,
        /// Human-readable reason.
        message: String,
    },
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::Truncated { offset, needed } => {
                write!(
                    f,
                    "truncated plan: {needed} byte(s) missing at offset {offset}"
                )
            }
            BinaryError::BadMagic(found) => {
                write!(f, "bad magic {found:02x?} (expected {MAGIC:02x?})")
            }
            BinaryError::UnsupportedVersion(v) => write!(
                f,
                "plan format version {v} is newer than supported version {FORMAT_VERSION}"
            ),
            BinaryError::ScalarWidthMismatch { expected, found } => write!(
                f,
                "plan encoded for {found}-byte scalars, decoder expects {expected}-byte"
            ),
            BinaryError::Corrupt { offset, message } => {
                write!(f, "corrupt plan at offset {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for BinaryError {}

type Result<T> = std::result::Result<T, BinaryError>;

// ---------------------------------------------------------------------------
// Stable hashing
// ---------------------------------------------------------------------------

/// A stable 64-bit streaming hasher (FNV-1a) for content addresses.
///
/// Unlike `std::hash::DefaultHasher`, the digest is identical across
/// processes, platforms and runs — it can name files on disk. The plan
/// cache derives its cache keys with this.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write(&[u8::from(v)]);
    }

    /// Absorbs a string, length-prefixed so concatenations cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot stable hash of a byte slice.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self { out: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u128(&mut self, v: u128) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }

    fn rows(&mut self, rows: &[usize]) {
        self.usize(rows.len());
        for &r in rows {
            self.usize(r);
        }
    }

    fn region(&mut self, region: &Region) {
        match region {
            Region::Rect {
                row0,
                col0,
                rows,
                cols,
            } => {
                self.u8(1);
                self.usize(*row0);
                self.usize(*col0);
                self.usize(*rows);
                self.usize(*cols);
            }
            Region::Rows { rows, col0, cols } => {
                self.u8(2);
                self.rows(rows);
                self.usize(*col0);
                self.usize(*cols);
            }
            Region::SymRect {
                row0,
                col0,
                rows,
                cols,
            } => {
                self.u8(3);
                self.usize(*row0);
                self.usize(*col0);
                self.usize(*rows);
                self.usize(*cols);
            }
            Region::SymLowerTriangle { start, size } => {
                self.u8(4);
                self.usize(*start);
                self.usize(*size);
            }
            Region::SymPairs { rows } => {
                self.u8(5);
                self.rows(rows);
            }
            Region::SymRows { rows, col0, cols } => {
                self.u8(6);
                self.rows(rows);
                self.usize(*col0);
                self.usize(*cols);
            }
        }
    }

    fn slice(&mut self, s: &BufSlice) {
        self.usize(s.buf);
        self.usize(s.start);
        self.usize(s.len);
    }

    fn compute<T: Scalar>(&mut self, op: &ComputeOp<T>) {
        match op {
            ComputeOp::Ger { alpha, x, y, dst } => {
                self.u8(1);
                self.f64(alpha.to_f64());
                self.slice(x);
                self.slice(y);
                self.usize(*dst);
            }
            ComputeOp::SprLower { alpha, x, dst } => {
                self.u8(2);
                self.f64(alpha.to_f64());
                self.slice(x);
                self.usize(*dst);
            }
            ComputeOp::TrianglePairs { alpha, x, dst } => {
                self.u8(3);
                self.f64(alpha.to_f64());
                self.slice(x);
                self.usize(*dst);
            }
            ComputeOp::CholeskyInPlace { dst, pivot_base } => {
                self.u8(4);
                self.usize(*dst);
                self.usize(*pivot_base);
            }
            ComputeOp::LuInPlace { dst, pivot_base } => {
                self.u8(5);
                self.usize(*dst);
                self.usize(*pivot_base);
            }
            ComputeOp::TrsmRightStep {
                seg,
                dst,
                col,
                pivot,
            } => {
                self.u8(6);
                self.usize(*seg);
                self.usize(*dst);
                self.usize(*col);
                self.usize(*pivot);
            }
            ComputeOp::LuColSolveStep {
                seg,
                dst,
                col,
                pivot,
            } => {
                self.u8(7);
                self.usize(*seg);
                self.usize(*dst);
                self.usize(*col);
                self.usize(*pivot);
            }
            ComputeOp::LuRowElimStep { seg, dst, row } => {
                self.u8(8);
                self.usize(*seg);
                self.usize(*dst);
                self.usize(*row);
            }
        }
    }

    fn step<T: Scalar>(&mut self, step: &Step<T>) {
        match step {
            // Default-level transfers keep the version-1 tags so two-level
            // schedules encode byte-identically to what older builds wrote.
            Step::Load {
                matrix,
                region,
                dst,
                level,
            } => {
                if level.is_default() {
                    self.u8(1);
                } else {
                    self.u8(7);
                }
                self.u64(matrix.raw());
                self.region(region);
                self.usize(*dst);
                if !level.is_default() {
                    self.u8(level.raw());
                }
            }
            Step::Alloc {
                matrix,
                region,
                dst,
            } => {
                self.u8(2);
                self.u64(matrix.raw());
                self.region(region);
                self.usize(*dst);
            }
            Step::Store { buf, level } => {
                if level.is_default() {
                    self.u8(3);
                } else {
                    self.u8(8);
                }
                self.usize(*buf);
                if !level.is_default() {
                    self.u8(level.raw());
                }
            }
            Step::Discard { buf } => {
                self.u8(4);
                self.usize(*buf);
            }
            Step::Flops(fl) => {
                self.u8(5);
                self.u128(fl.mults);
                self.u128(fl.adds);
            }
            Step::Compute(op) => {
                self.u8(6);
                self.compute(op);
            }
        }
    }
}

fn encode_schedule<T: Scalar>(schedule: &Schedule<T>) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(schedule.groups.len());
    for group in &schedule.groups {
        match &group.phase {
            Some(p) => {
                w.u8(1);
                w.str(p);
            }
            None => w.u8(0),
        }
        w.usize(group.steps.len());
        for step in &group.steps {
            w.step(step);
        }
    }
    w.out
}

fn encode_prefetch(plan: &PrefetchPlan) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(plan.issues.len());
    for boundary in &plan.issues {
        w.usize(boundary.len());
        for issue in boundary {
            w.usize(issue.group);
            w.usize(issue.step);
        }
    }
    w.u64(plan.planned_elements);
    w.u64(plan.planned_events);
    w.out
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(BinaryError::Truncated {
                offset: self.pos,
                needed: n,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn corrupt(&self, message: impl Into<String>) -> BinaryError {
        BinaryError::Corrupt {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("index {v} exceeds usize")))
    }

    /// A `usize` used as an element count: additionally bounded by the
    /// remaining input so a corrupt length cannot trigger a huge
    /// pre-allocation (every counted element is at least one byte).
    fn count(&mut self) -> Result<usize> {
        let v = self.usize()?;
        if v > self.buf.len() - self.pos {
            return Err(BinaryError::Truncated {
                offset: self.pos,
                needed: v,
            });
        }
        Ok(v)
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.count()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| BinaryError::Corrupt {
            offset: self.pos - len,
            message: "phase label is not UTF-8".to_string(),
        })
    }

    fn rows(&mut self) -> Result<Vec<usize>> {
        let len = self.count()?;
        (0..len).map(|_| self.usize()).collect()
    }

    fn region(&mut self) -> Result<Region> {
        let tag = self.u8()?;
        let region = match tag {
            1 => Region::Rect {
                row0: self.usize()?,
                col0: self.usize()?,
                rows: self.usize()?,
                cols: self.usize()?,
            },
            2 => Region::Rows {
                rows: self.rows()?,
                col0: self.usize()?,
                cols: self.usize()?,
            },
            3 => Region::SymRect {
                row0: self.usize()?,
                col0: self.usize()?,
                rows: self.usize()?,
                cols: self.usize()?,
            },
            4 => Region::SymLowerTriangle {
                start: self.usize()?,
                size: self.usize()?,
            },
            5 => Region::SymPairs { rows: self.rows()? },
            6 => Region::SymRows {
                rows: self.rows()?,
                col0: self.usize()?,
                cols: self.usize()?,
            },
            other => return Err(self.corrupt(format!("unknown region tag {other}"))),
        };
        if len_overflows(&region) {
            return Err(self.corrupt(format!("region {region} covers more than usize::MAX cells")));
        }
        Ok(region)
    }

    fn slice(&mut self) -> Result<BufSlice> {
        Ok(BufSlice {
            buf: self.usize()?,
            start: self.usize()?,
            len: self.usize()?,
        })
    }

    fn scalar<T: Scalar>(&mut self) -> Result<T> {
        Ok(T::from_f64(self.f64()?))
    }

    fn compute<T: Scalar>(&mut self) -> Result<ComputeOp<T>> {
        let tag = self.u8()?;
        Ok(match tag {
            1 => ComputeOp::Ger {
                alpha: self.scalar()?,
                x: self.slice()?,
                y: self.slice()?,
                dst: self.usize()?,
            },
            2 => ComputeOp::SprLower {
                alpha: self.scalar()?,
                x: self.slice()?,
                dst: self.usize()?,
            },
            3 => ComputeOp::TrianglePairs {
                alpha: self.scalar()?,
                x: self.slice()?,
                dst: self.usize()?,
            },
            4 => ComputeOp::CholeskyInPlace {
                dst: self.usize()?,
                pivot_base: self.usize()?,
            },
            5 => ComputeOp::LuInPlace {
                dst: self.usize()?,
                pivot_base: self.usize()?,
            },
            6 => ComputeOp::TrsmRightStep {
                seg: self.usize()?,
                dst: self.usize()?,
                col: self.usize()?,
                pivot: self.usize()?,
            },
            7 => ComputeOp::LuColSolveStep {
                seg: self.usize()?,
                dst: self.usize()?,
                col: self.usize()?,
                pivot: self.usize()?,
            },
            8 => ComputeOp::LuRowElimStep {
                seg: self.usize()?,
                dst: self.usize()?,
                row: self.usize()?,
            },
            other => return Err(self.corrupt(format!("unknown compute tag {other}"))),
        })
    }

    fn step<T: Scalar>(&mut self) -> Result<Step<T>> {
        let tag = self.u8()?;
        Ok(match tag {
            1 => Step::Load {
                matrix: MatrixId::synthetic(self.u64()?),
                region: self.region()?,
                dst: self.usize()?,
                level: Level::default(),
            },
            2 => Step::Alloc {
                matrix: MatrixId::synthetic(self.u64()?),
                region: self.region()?,
                dst: self.usize()?,
            },
            3 => Step::Store {
                buf: self.usize()?,
                level: Level::default(),
            },
            4 => Step::Discard { buf: self.usize()? },
            5 => Step::Flops(FlopCount::new(self.u128()?, self.u128()?)),
            6 => Step::Compute(self.compute()?),
            7 => Step::Load {
                matrix: MatrixId::synthetic(self.u64()?),
                region: self.region()?,
                dst: self.usize()?,
                level: Level::new(self.u8()?),
            },
            8 => Step::Store {
                buf: self.usize()?,
                level: Level::new(self.u8()?),
            },
            other => return Err(self.corrupt(format!("unknown step tag {other}"))),
        })
    }
}

/// Whether [`Region::len`] of `region` overflows `usize`. A decoded region
/// can carry any extents, and a length that wrapped to a small number would
/// pass every capacity check.
fn len_overflows(region: &Region) -> bool {
    match region {
        Region::Rect { rows, cols, .. } | Region::SymRect { rows, cols, .. } => {
            rows.checked_mul(*cols).is_none()
        }
        Region::Rows { rows, cols, .. } | Region::SymRows { rows, cols, .. } => {
            rows.len().checked_mul(*cols).is_none()
        }
        Region::SymLowerTriangle { size, .. } => size
            .checked_add(1)
            .and_then(|s| s.checked_mul(*size))
            .is_none(),
        Region::SymPairs { rows } => {
            let k = rows.len();
            k.checked_mul(k.saturating_sub(1)).is_none()
        }
    }
}

fn decode_schedule<T: Scalar>(bytes: &[u8]) -> Result<Schedule<T>> {
    let mut r = Reader::new(bytes);
    let num_groups = r.count()?;
    let mut groups = Vec::with_capacity(num_groups);
    for _ in 0..num_groups {
        let phase = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            other => return Err(r.corrupt(format!("bad phase marker {other}"))),
        };
        let num_steps = r.count()?;
        let mut steps = Vec::with_capacity(num_steps);
        for _ in 0..num_steps {
            steps.push(r.step::<T>()?);
        }
        groups.push(TaskGroup { phase, steps });
    }
    if r.pos != bytes.len() {
        return Err(r.corrupt(format!(
            "{} trailing byte(s) after schedule payload",
            bytes.len() - r.pos
        )));
    }
    Ok(Schedule { groups })
}

fn decode_prefetch(bytes: &[u8]) -> Result<PrefetchPlan> {
    let mut r = Reader::new(bytes);
    let boundaries = r.count()?;
    let mut issues = Vec::with_capacity(boundaries);
    for _ in 0..boundaries {
        let n = r.count()?;
        let mut at = Vec::with_capacity(n);
        for _ in 0..n {
            at.push(PrefetchIssue {
                group: r.usize()?,
                step: r.usize()?,
            });
        }
        issues.push(at);
    }
    let planned_elements = r.u64()?;
    let planned_events = r.u64()?;
    if r.pos != bytes.len() {
        return Err(r.corrupt(format!(
            "{} trailing byte(s) after prefetch payload",
            bytes.len() - r.pos
        )));
    }
    Ok(PrefetchPlan::from_parts(
        issues,
        planned_elements,
        planned_events,
    ))
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

fn encode_container(sections: &[(u8, Vec<u8>)], scalar_width: u8, version: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        8 + sections
            .iter()
            .map(|(_, payload)| 9 + payload.len())
            .sum::<usize>(),
    );
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.push(scalar_width);
    let flags = if sections.iter().any(|(t, _)| *t == SECTION_PREFETCH) {
        FLAG_PREFETCH
    } else {
        0
    };
    out.push(flags);
    for (tag, payload) in sections {
        out.push(*tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Decodes the container framing, returning the schedule payload and the
/// optional prefetch payload.
fn decode_container(bytes: &[u8], scalar_width: u8) -> Result<(&[u8], Option<&[u8]>)> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(BinaryError::BadMagic(magic.try_into().unwrap()));
    }
    let version = r.u16()?;
    if version > FORMAT_VERSION {
        return Err(BinaryError::UnsupportedVersion(version));
    }
    let width = r.u8()?;
    if width != scalar_width {
        return Err(BinaryError::ScalarWidthMismatch {
            expected: scalar_width,
            found: width,
        });
    }
    let flags = r.u8()?;

    let mut section = |expected: u8| -> Result<&[u8]> {
        let tag = r.u8()?;
        if tag != expected {
            return Err(BinaryError::Corrupt {
                offset: r.pos - 1,
                message: format!("expected section tag {expected:#04x}, found {tag:#04x}"),
            });
        }
        let len = r.count()?;
        r.take(len)
    };

    let schedule = section(SECTION_SCHEDULE)?;
    let prefetch = if flags & FLAG_PREFETCH != 0 {
        Some(section(SECTION_PREFETCH)?)
    } else {
        None
    };
    if r.pos != bytes.len() {
        return Err(BinaryError::Corrupt {
            offset: r.pos,
            message: format!(
                "{} trailing byte(s) after last section",
                bytes.len() - r.pos
            ),
        });
    }
    Ok((schedule, prefetch))
}

impl<T: Scalar> Schedule<T> {
    /// Serializes the schedule to the compact binary form.
    ///
    /// Deterministic: equal schedules produce byte-identical encodings, so
    /// the bytes (or their [`stable_hash`]) can content-address a plan.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_container(
            &[(SECTION_SCHEDULE, encode_schedule(self))],
            std::mem::size_of::<T>() as u8,
            self.text_version(),
        )
    }

    /// Serializes the schedule together with a prefetch plan, so a
    /// compiled-and-planned artifact round-trips as one unit (this is the
    /// on-disk form of the plan cache).
    pub fn to_bytes_with_plan(&self, plan: &PrefetchPlan) -> Vec<u8> {
        encode_container(
            &[
                (SECTION_SCHEDULE, encode_schedule(self)),
                (SECTION_PREFETCH, encode_prefetch(plan)),
            ],
            std::mem::size_of::<T>() as u8,
            self.text_version(),
        )
    }

    /// Decodes a schedule from [`Schedule::to_bytes`] (a trailing prefetch
    /// section, if present, is decoded and dropped).
    pub fn from_bytes(bytes: &[u8]) -> std::result::Result<Self, BinaryError> {
        Self::from_bytes_with_plan(bytes).map(|(schedule, _)| schedule)
    }

    /// Decodes a schedule plus the optional prefetch plan encoded with it.
    pub fn from_bytes_with_plan(
        bytes: &[u8],
    ) -> std::result::Result<(Self, Option<PrefetchPlan>), BinaryError> {
        let (sched_payload, plan_payload) =
            decode_container(bytes, std::mem::size_of::<T>() as u8)?;
        let schedule = decode_schedule::<T>(sched_payload)?;
        let plan = plan_payload.map(decode_prefetch).transpose()?;
        Ok((schedule, plan))
    }

    /// Stable content hash of the binary encoding: two schedules hash
    /// equal iff their serialized forms are byte-identical.
    pub fn content_hash(&self) -> u64 {
        stable_hash(&self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ScheduleBuilder;

    fn sample_schedule() -> Schedule<f64> {
        let m = MatrixId::synthetic(2);
        let mut b = ScheduleBuilder::<f64>::new();
        b.set_phase("update");
        b.begin_group();
        let c = b.load(m, Region::rect(0, 0, 3, 3));
        let x = b.load(
            m,
            Region::Rows {
                rows: vec![0, 2, 5],
                col0: 1,
                cols: 2,
            },
        );
        b.compute(ComputeOp::Ger {
            alpha: -0.5,
            x: BufSlice::new(x, 0, 3),
            y: BufSlice::new(x, 3, 3),
            dst: c,
        });
        b.flops(FlopCount::new(9, 9));
        b.discard(x);
        b.store(c);
        b.begin_group();
        let tri = b.load(m, Region::SymLowerTriangle { start: 1, size: 2 });
        b.compute(ComputeOp::CholeskyInPlace {
            dst: tri,
            pivot_base: 1,
        });
        b.store(tri);
        b.finish()
    }

    #[test]
    fn round_trip_preserves_schedule() {
        let schedule = sample_schedule();
        let bytes = schedule.to_bytes();
        assert_eq!(Schedule::<f64>::from_bytes(&bytes).unwrap(), schedule);
        // determinism: encoding is a pure function of the schedule
        assert_eq!(schedule.to_bytes(), bytes);
        assert_eq!(schedule.content_hash(), stable_hash(&bytes));
        // empty schedules round-trip
        let empty = Schedule::<f64>::default();
        assert_eq!(
            Schedule::<f64>::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn round_trip_with_prefetch_plan() {
        let schedule = sample_schedule();
        let plan = PrefetchPlan::plan(&schedule, 1, Some(64));
        let bytes = schedule.to_bytes_with_plan(&plan);
        let (decoded, decoded_plan) = Schedule::<f64>::from_bytes_with_plan(&bytes).unwrap();
        assert_eq!(decoded, schedule);
        assert_eq!(decoded_plan.as_ref(), Some(&plan));
        // from_bytes tolerates (and drops) the plan section
        assert_eq!(Schedule::<f64>::from_bytes(&bytes).unwrap(), schedule);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let schedule = sample_schedule();
        let plan = PrefetchPlan::plan(&schedule, 1, Some(64));
        let bytes = schedule.to_bytes_with_plan(&plan);
        for len in 0..bytes.len() {
            let err = Schedule::<f64>::from_bytes_with_plan(&bytes[..len])
                .expect_err("every prefix must fail to decode");
            // must be a typed error, not a panic; most prefixes truncate
            let _ = err.to_string();
        }
    }

    #[test]
    fn rejects_bad_magic_and_future_version() {
        let schedule = sample_schedule();
        let mut bytes = schedule.to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Schedule::<f64>::from_bytes(&bad),
            Err(BinaryError::BadMagic(_))
        ));
        bytes[4] = 0xFF; // version low byte
        assert!(matches!(
            Schedule::<f64>::from_bytes(&bytes),
            Err(BinaryError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn rejects_wrong_scalar_width_and_trailing_bytes() {
        let schedule = sample_schedule();
        let bytes = schedule.to_bytes();
        assert!(matches!(
            Schedule::<f32>::from_bytes(&bytes),
            Err(BinaryError::ScalarWidthMismatch {
                expected: 4,
                found: 8
            })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            Schedule::<f64>::from_bytes(&trailing),
            Err(BinaryError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_unknown_tags() {
        // Corrupt the first step tag inside the schedule payload. The
        // payload starts after magic(4) + version(2) + width(1) + flags(1)
        // + tag(1) + len(8) = 17 bytes; the first 8 payload bytes are the
        // group count, the next byte the phase marker.
        let schedule = sample_schedule();
        let mut bytes = schedule.to_bytes();
        let phase_marker = 17 + 8;
        assert_eq!(bytes[phase_marker], 1, "sample has a phase label");
        bytes[phase_marker] = 9;
        assert!(matches!(
            Schedule::<f64>::from_bytes(&bytes),
            Err(BinaryError::Corrupt { .. })
        ));
    }

    /// A region whose cell count wraps (here `rows * cols` wraps to 2, the
    /// shape a one-byte flip of an encoded plan produced) is corrupt: its
    /// `len()` would let it past every capacity check.
    #[test]
    fn rejects_regions_whose_cell_count_overflows() {
        let wrapping = [
            Region::SymRect {
                row0: 9,
                col0: 9,
                rows: 2,
                cols: (1 << 63) + 1,
            },
            Region::Rect {
                row0: 0,
                col0: 0,
                rows: 1 << 32,
                cols: 1 << 32,
            },
            Region::SymLowerTriangle {
                start: 0,
                size: 1 << 32,
            },
        ];
        for region in wrapping {
            let crafted = Schedule::<f64> {
                groups: vec![TaskGroup {
                    phase: None,
                    steps: vec![
                        Step::Load {
                            matrix: MatrixId::synthetic(0),
                            region: region.clone(),
                            dst: 0,
                            level: Level::default(),
                        },
                        Step::Discard { buf: 0 },
                    ],
                }],
            };
            let err = Schedule::<f64>::from_bytes(&crafted.to_bytes()).unwrap_err();
            assert!(
                matches!(err, BinaryError::Corrupt { .. }),
                "{region}: {err}"
            );
        }
    }

    #[test]
    fn leveled_schedules_encode_as_version_2_and_round_trip() {
        let m = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        let x = b.load_from(m, Region::rect(0, 0, 2, 2), Level::new(3));
        let y = b.load(m, Region::col_segment(0, 0, 2));
        b.discard(y);
        b.store_to(x, Level::new(2));
        let leveled = b.finish();

        let bytes = leveled.to_bytes();
        // container version is 2 for leveled schedules...
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        assert_eq!(Schedule::<f64>::from_bytes(&bytes).unwrap(), leveled);

        // ...and stays 1 for plain two-level schedules (old readers still
        // decode what we write)
        let plain = sample_schedule();
        let bytes = plain.to_bytes();
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 1);
        assert_eq!(Schedule::<f64>::from_bytes(&bytes).unwrap(), plain);

        // the plan section composes with leveled payloads
        let plan = PrefetchPlan::plan(&leveled, 1, Some(64));
        let (decoded, decoded_plan) =
            Schedule::<f64>::from_bytes_with_plan(&leveled.to_bytes_with_plan(&plan)).unwrap();
        assert_eq!(decoded, leveled);
        assert_eq!(decoded_plan.as_ref(), Some(&plan));
    }

    #[test]
    fn stable_hasher_is_stable() {
        let mut h = StableHasher::new();
        h.write_str("tbs");
        h.write_u64(64);
        h.write_bool(true);
        // FNV-1a is fully deterministic: pin the digest so any accidental
        // change to the hashing scheme (which would orphan every on-disk
        // cache entry) fails loudly.
        let again = {
            let mut h = StableHasher::new();
            h.write_str("tbs");
            h.write_u64(64);
            h.write_bool(true);
            h.finish()
        };
        assert_eq!(h.finish(), again);
        assert_ne!(stable_hash(b"a"), stable_hash(b"b"));
        assert_eq!(stable_hash(b""), 0xcbf2_9ce4_8422_2325);
    }
}
