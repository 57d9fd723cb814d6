//! The schedule intermediate representation (IR).
//!
//! An out-of-core algorithm in this workspace is expressed as a [`Schedule`]:
//! a sequence of [`TaskGroup`]s, each a self-contained unit of work whose
//! [`Step`]s move regions between slow and fast memory ([`Step::Load`] /
//! [`Step::Alloc`] / [`Step::Store`] / [`Step::Discard`]) and run block
//! kernels on the resident buffers ([`Step::Compute`]). The algorithms of
//! `symla-baselines` and `symla-core` are *schedule builders* that emit this
//! IR; the generic [`crate::engine::Engine`] then replays a schedule through
//! one loop against a real, parallel or data-less machine (execute,
//! execute-parallel, dry-run, trace, and the prefetching `*_with`
//! variants).
//!
//! Schedules serialize to a compact one-line-per-step text form
//! ([`Schedule::dump`]) and parse back losslessly ([`Schedule::parse`]), so
//! experiment runs can be replayed from disk without rebuilding.
//!
//! Separating "what moves when" (the IR) from "how it runs" (the engine)
//! makes every schedule:
//!
//! * **dry-runnable** — I/O and flop accounting without touching data, which
//!   subsumes per-algorithm cost bookkeeping;
//! * **traceable** — the exact transfer stream can be synthesized for bound
//!   verification without executing kernels;
//! * **distributable** — a [`TaskGroup`] only references buffers it created,
//!   so groups are the unit of placement for multi-worker execution
//!   ([`crate::engine::Engine::execute_parallel`] distributes independent
//!   groups over the workers of a shared slow memory through a
//!   work-stealing queue; a parallel `symla_core` run replays the serial
//!   SYRK and GEMM plans this way, group for group).
//!
//! Buffers are named by [`BufId`]s issued by the [`ScheduleBuilder`]. A
//! buffer is created by exactly one `Load`/`Alloc` step and consumed by
//! exactly one `Store`/`Discard` step of the same group.

use std::fmt;
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;
use symla_memory::{Level, MatrixId, Region};

/// Identifier of a fast-memory buffer within a schedule.
pub type BufId = usize;

/// Prefix of the version line opening every text dump
/// (`symla-schedule text v{FORMAT_VERSION}`).
pub(crate) const TEXT_HEADER_PREFIX: &str = "symla-schedule text v";

/// A contiguous slice of a fast-memory buffer, used as a kernel operand
/// (e.g. one tile-row segment of a loaded `A` gather).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufSlice {
    /// The buffer the slice lives in.
    pub buf: BufId,
    /// First element of the slice.
    pub start: usize,
    /// Number of elements.
    pub len: usize,
}

impl BufSlice {
    /// A slice covering `len` elements of `buf` from `start`.
    pub fn new(buf: BufId, start: usize, len: usize) -> Self {
        Self { buf, start, len }
    }

    /// A slice covering the whole of a buffer of `len` elements.
    pub fn whole(buf: BufId, len: usize) -> Self {
        Self { buf, start: 0, len }
    }
}

/// A block kernel applied to resident fast-memory buffers.
///
/// Each variant mirrors one of the in-core view kernels of
/// `symla_matrix::kernels::views` (or one streaming solve step of the
/// left-looking baselines). Compute steps never touch slow memory.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeOp<T: Scalar> {
    /// Rank-1 update `dst += alpha · x · yᵀ` on a rectangular buffer.
    Ger {
        /// Scaling of the product.
        alpha: T,
        /// Column operand.
        x: BufSlice,
        /// Row operand.
        y: BufSlice,
        /// Rectangular destination buffer.
        dst: BufId,
    },
    /// Symmetric rank-1 update `dst += alpha · x · xᵀ` on a packed lower
    /// triangle buffer.
    SprLower {
        /// Scaling of the product.
        alpha: T,
        /// The vector operand.
        x: BufSlice,
        /// Packed lower-triangle destination buffer.
        dst: BufId,
    },
    /// Strict-lower triangle-block update of TBS:
    /// `dst[(u,v)] += alpha · x[u] · x[v]` for `u > v`.
    TrianglePairs {
        /// Scaling of the product.
        alpha: T,
        /// One column of `A` restricted to the block's row set.
        x: BufSlice,
        /// Pair buffer (layout of [`Region::SymPairs`]).
        dst: BufId,
    },
    /// In-place Cholesky factorization of a packed lower-triangle buffer.
    CholeskyInPlace {
        /// The packed diagonal-block buffer.
        dst: BufId,
        /// Added to in-tile pivot indices when reporting a non-SPD pivot.
        pivot_base: usize,
    },
    /// In-place LU factorization (no pivoting) of a rectangular buffer.
    LuInPlace {
        /// The square tile buffer.
        dst: BufId,
        /// Added to in-tile pivot indices when reporting a singular pivot.
        pivot_base: usize,
    },
    /// One streamed column step of the right triangular solve
    /// `X ← X · L⁻ᵀ`: with `seg` holding column `col` of the diagonal block
    /// of `L` from its diagonal element down, divides `dst[:, col]` by
    /// `seg[0]` and subtracts `dst[:, col] · seg[j - col]` from every later
    /// column `j`.
    TrsmRightStep {
        /// The streamed `L` column segment.
        seg: BufId,
        /// The panel tile being solved.
        dst: BufId,
        /// In-tile column index being finalized.
        col: usize,
        /// Pivot index reported if `seg[0]` is zero or non-finite.
        pivot: usize,
    },
    /// One streamed column step of the LU sub-diagonal solve
    /// `X · U₁₁ = tile`: with `seg` holding rows `0..=col` of column `col`
    /// of `U₁₁`, eliminates the contributions of columns `q < col` and
    /// divides by the diagonal `seg[col]`.
    LuColSolveStep {
        /// The streamed `U` column segment.
        seg: BufId,
        /// The tile being solved.
        dst: BufId,
        /// In-tile column index being finalized.
        col: usize,
        /// Pivot index reported if the diagonal is zero or non-finite.
        pivot: usize,
    },
    /// One streamed column step of the LU super-diagonal solve
    /// `L₁₁ · X = tile` (unit diagonal): with `seg` holding the strictly
    /// sub-diagonal part of column `row` of `L₁₁`, eliminates row `row` from
    /// every row below it.
    LuRowElimStep {
        /// The streamed `L` column segment (may be empty for the last row).
        seg: BufId,
        /// The tile being solved.
        dst: BufId,
        /// In-tile row index whose value is final.
        row: usize,
    },
}

impl<T: Scalar> ComputeOp<T> {
    /// The kernel's schedule-dump mnemonic (`"ger"`, `"spr"`, …) — the same
    /// token the textual IR uses, reused by tracing observers to name
    /// compute events.
    pub fn kind(&self) -> &'static str {
        match self {
            ComputeOp::Ger { .. } => "ger",
            ComputeOp::SprLower { .. } => "spr",
            ComputeOp::TrianglePairs { .. } => "tripairs",
            ComputeOp::CholeskyInPlace { .. } => "chol",
            ComputeOp::LuInPlace { .. } => "lu",
            ComputeOp::TrsmRightStep { .. } => "trsmstep",
            ComputeOp::LuColSolveStep { .. } => "lucol",
            ComputeOp::LuRowElimStep { .. } => "lurow",
        }
    }
}

/// One primitive action of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Step<T: Scalar> {
    /// Transfer a region from slow memory into a new fast-memory buffer
    /// (counted as load traffic).
    Load {
        /// Source matrix.
        matrix: MatrixId,
        /// Region transferred.
        region: Region,
        /// Buffer created by this step.
        dst: BufId,
        /// Memory tier the region is read from. [`Level::SLOW`] (the
        /// default) is the classic two-level slow memory; deeper tiers
        /// stage through every intermediate level.
        level: Level,
    },
    /// Reserve fast-memory space for a region without reading it (no load
    /// traffic); used for outputs that are fully overwritten.
    Alloc {
        /// Matrix the buffer will be stored back to.
        matrix: MatrixId,
        /// Region the buffer mirrors.
        region: Region,
        /// Buffer created by this step.
        dst: BufId,
    },
    /// Run a block kernel on resident buffers.
    Compute(ComputeOp<T>),
    /// Attribute arithmetic work to the schedule (kept as an explicit step so
    /// dry runs account flops exactly like executions).
    Flops(FlopCount),
    /// Write a buffer back to slow memory (counted as store traffic) and
    /// release its fast-memory space.
    Store {
        /// The buffer consumed.
        buf: BufId,
        /// Memory tier the buffer is written to ([`Level::SLOW`] by
        /// default).
        level: Level,
    },
    /// Release a buffer without writing it back (no store traffic).
    Discard {
        /// The buffer consumed.
        buf: BufId,
    },
}

/// A self-contained unit of work: a sequence of steps that creates, uses and
/// releases its own buffers.
///
/// A group never references a buffer created by another group, so groups are
/// the granularity of placement for multi-worker execution. For the update
/// kernels (SYRK / GEMM) the groups' output regions are disjoint and any
/// assignment of whole groups to workers is valid; the left-looking
/// factorizations (Cholesky / LU) additionally order their groups through
/// slow memory, so those must replay in sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskGroup<T: Scalar> {
    /// Phase label the group's traffic is attributed to. `None` leaves the
    /// machine's current phase untouched (so a caller like LBC can attribute
    /// a whole sub-schedule to one phase).
    pub phase: Option<String>,
    /// The steps, in program order.
    pub steps: Vec<Step<T>>,
}

impl<T: Scalar> TaskGroup<T> {
    /// Elements this group loads from slow memory.
    pub fn loaded_elements(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Load { region, .. } => region.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Elements this group stores back to slow memory.
    pub fn stored_elements(&self) -> u64 {
        let mut sizes = std::collections::BTreeMap::new();
        let mut stored = 0u64;
        for step in &self.steps {
            match step {
                Step::Load { region, dst, .. } | Step::Alloc { region, dst, .. } => {
                    sizes.insert(*dst, region.len() as u64);
                }
                Step::Store { buf, .. } => stored += sizes.remove(buf).unwrap_or(0),
                _ => {}
            }
        }
        stored
    }
}

/// A complete schedule: an ordered sequence of task groups.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule<T: Scalar> {
    /// The task groups, in sequential execution order.
    pub groups: Vec<TaskGroup<T>>,
}

impl<T: Scalar> Schedule<T> {
    /// Number of task groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total number of steps over all groups.
    pub fn num_steps(&self) -> usize {
        self.groups.iter().map(|g| g.steps.len()).sum()
    }

    /// Whether any transfer step targets a non-default memory tier.
    ///
    /// Leveled schedules dump with text header version 2 and encode with
    /// binary container version 2; plain two-level schedules keep the
    /// version-1 forms byte-identical to what older builds wrote.
    pub fn is_leveled(&self) -> bool {
        self.groups.iter().flat_map(|g| &g.steps).any(|s| {
            matches!(s,
                Step::Load { level, .. } | Step::Store { level, .. } if !level.is_default())
        })
    }

    /// The text-dump version this schedule serializes with: 2 when leveled
    /// transfers are present, 1 otherwise.
    pub fn text_version(&self) -> u16 {
        if self.is_leveled() {
            2
        } else {
            1
        }
    }

    /// Returns a copy with every transfer re-pointed at `level`: all `Load`
    /// and `Store` steps name the given tier, everything else (groups,
    /// phases, computes, allocs, discards) is unchanged. Re-leveling to
    /// [`Level::default`] collapses a leveled schedule back to the classic
    /// two-level form; the autotuner uses this to score one schedule across
    /// the staging tiers of a hierarchy.
    pub fn with_transfer_level(&self, level: Level) -> Self {
        let mut out = self.clone();
        for group in &mut out.groups {
            for step in &mut group.steps {
                match step {
                    Step::Load { level: l, .. } | Step::Store { level: l, .. } => *l = level,
                    _ => {}
                }
            }
        }
        out
    }
}

impl<T: Scalar> fmt::Display for Schedule<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule: {} group(s), {} step(s)",
            self.num_groups(),
            self.num_steps()
        )
    }
}

impl fmt::Display for BufSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}[{}..+{}]", self.buf, self.start, self.len)
    }
}

impl<T: Scalar> fmt::Display for ComputeOp<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeOp::Ger { alpha, x, y, dst } => {
                write!(f, "ger      alpha={alpha} x={x} y={y} -> b{dst}")
            }
            ComputeOp::SprLower { alpha, x, dst } => {
                write!(f, "spr      alpha={alpha} x={x} -> b{dst}")
            }
            ComputeOp::TrianglePairs { alpha, x, dst } => {
                write!(f, "tripairs alpha={alpha} x={x} -> b{dst}")
            }
            ComputeOp::CholeskyInPlace { dst, pivot_base } => {
                write!(f, "chol     b{dst} (pivot base {pivot_base})")
            }
            ComputeOp::LuInPlace { dst, pivot_base } => {
                write!(f, "lu       b{dst} (pivot base {pivot_base})")
            }
            ComputeOp::TrsmRightStep {
                seg,
                dst,
                col,
                pivot,
            } => write!(f, "trsmstep seg=b{seg} col={col} pivot={pivot} -> b{dst}"),
            ComputeOp::LuColSolveStep {
                seg,
                dst,
                col,
                pivot,
            } => write!(f, "lucol    seg=b{seg} col={col} pivot={pivot} -> b{dst}"),
            ComputeOp::LuRowElimStep { seg, dst, row } => {
                write!(f, "lurow    seg=b{seg} row={row} -> b{dst}")
            }
        }
    }
}

impl<T: Scalar> fmt::Display for Step<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Load {
                matrix,
                region,
                dst,
                level,
            } => {
                write!(f, "load     m{} {region} -> b{dst}", matrix.raw())?;
                if !level.is_default() {
                    write!(f, " @{level}")?;
                }
                Ok(())
            }
            Step::Alloc {
                matrix,
                region,
                dst,
            } => write!(f, "alloc    m{} {region} -> b{dst}", matrix.raw()),
            Step::Compute(op) => write!(f, "{op}"),
            Step::Flops(fl) => write!(f, "flops    mults={} adds={}", fl.mults, fl.adds),
            Step::Store { buf, level } => {
                write!(f, "store    b{buf}")?;
                if !level.is_default() {
                    write!(f, " @{level}")?;
                }
                Ok(())
            }
            Step::Discard { buf } => write!(f, "discard  b{buf}"),
        }
    }
}

impl<T: Scalar> Schedule<T> {
    /// Compact textual dump: a version header line, a header per task group
    /// and one line per step, stable enough to diff optimized-vs-seed
    /// schedules by eye (and locked by a golden-file test).
    /// [`Schedule::parse`] is its exact inverse, so the dump doubles as the
    /// on-disk schedule serialization. The version line carries
    /// [`Schedule::text_version`]: plain two-level schedules keep emitting
    /// `v1` byte-identically to older builds (golden files stay valid),
    /// while schedules with leveled transfers ([`Schedule::is_leveled`])
    /// emit `v2` and annotate those steps with an ` @l{n}` suffix.
    ///
    /// ```
    /// use symla_memory::{MatrixId, Region};
    /// use symla_sched::ScheduleBuilder;
    ///
    /// let mut b = ScheduleBuilder::<f64>::new();
    /// let x = b.load(MatrixId::synthetic(0), Region::rect(0, 0, 2, 2));
    /// b.store(x);
    /// let text = b.finish().dump();
    /// assert!(text.starts_with("symla-schedule text v1\n"));
    /// assert!(text.contains("load     m0 Rect[0..+2, 0..+2] -> b0"));
    /// assert!(text.contains("store    b0"));
    /// ```
    pub fn dump(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{TEXT_HEADER_PREFIX}{}", self.text_version());
        let _ = writeln!(out, "{self}");
        for (g, group) in self.groups.iter().enumerate() {
            match &group.phase {
                Some(p) => {
                    let _ = writeln!(out, "group {g} phase={p}");
                }
                None => {
                    let _ = writeln!(out, "group {g}");
                }
            }
            for step in &group.steps {
                let _ = writeln!(out, "  {step}");
            }
        }
        out
    }

    /// Parses the text form produced by [`Schedule::dump`] back into a
    /// schedule: `Schedule::parse(&s.dump()) == Ok(s)` for every schedule
    /// (the second slice of the ROADMAP's serialization item — dumped
    /// experiment schedules can now be replayed and distributed without
    /// rebuilding them).
    ///
    /// The leading `symla-schedule text v{N}` version line is optional on
    /// input: headerless dumps written before the version header existed
    /// still parse. A version newer than
    /// [`crate::binary::FORMAT_VERSION`] is rejected with a typed error,
    /// mirroring the binary decoder.
    ///
    /// ```
    /// use symla_memory::{MatrixId, Region};
    /// use symla_sched::{Schedule, ScheduleBuilder};
    ///
    /// let mut b = ScheduleBuilder::<f64>::new();
    /// let x = b.load(MatrixId::synthetic(0), Region::rect(0, 0, 2, 2));
    /// b.store(x);
    /// let schedule = b.finish();
    /// assert_eq!(Schedule::parse(&schedule.dump()).unwrap(), schedule);
    /// // legacy dumps without the version line still parse
    /// let headerless = schedule.dump().lines().skip(1).collect::<Vec<_>>().join("\n");
    /// assert_eq!(Schedule::parse(&headerless).unwrap(), schedule);
    /// ```
    pub fn parse(text: &str) -> std::result::Result<Self, ScheduleParseError> {
        let mut lines = text.lines().enumerate().peekable();
        if let Some((_, first)) = lines.peek() {
            if let Some(version_text) = first.strip_prefix(TEXT_HEADER_PREFIX) {
                let (idx, _) = lines.next().expect("peeked line exists");
                let version: u16 = version_text.trim().parse().map_err(|_| {
                    ScheduleParseError::new(idx + 1, format!("bad version `{version_text}`"))
                })?;
                if version > crate::binary::FORMAT_VERSION {
                    return Err(ScheduleParseError::new(
                        idx + 1,
                        format!(
                            "dump version {version} is newer than supported version {}",
                            crate::binary::FORMAT_VERSION
                        ),
                    ));
                }
            }
        }
        let (header_line, header) = lines
            .next()
            .ok_or_else(|| ScheduleParseError::new(0, "empty dump"))?;
        let (want_groups, want_steps) = parse::header(header).ok_or_else(|| {
            ScheduleParseError::new(header_line + 1, format!("bad header `{header}`"))
        })?;

        let mut groups: Vec<TaskGroup<T>> = Vec::new();
        for (idx, line) in lines {
            let err = |msg: String| ScheduleParseError::new(idx + 1, msg);
            if let Some(rest) = line.strip_prefix("group ") {
                let (index_text, phase) = match rest.split_once(" phase=") {
                    Some((i, p)) => (i, Some(p.to_string())),
                    None => (rest, None),
                };
                let index: usize = index_text
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("bad group index `{index_text}`")))?;
                if index != groups.len() {
                    return Err(err(format!(
                        "group {index} out of order (expected {})",
                        groups.len()
                    )));
                }
                groups.push(TaskGroup {
                    phase,
                    steps: Vec::new(),
                });
            } else if let Some(step_text) = line.strip_prefix("  ") {
                let group = groups
                    .last_mut()
                    .ok_or_else(|| err("step before any group header".to_string()))?;
                group.steps.push(parse::step::<T>(step_text).map_err(&err)?);
            } else if !line.trim().is_empty() {
                return Err(err(format!("unrecognized line `{line}`")));
            }
        }

        let schedule = Schedule { groups };
        if schedule.num_groups() != want_groups || schedule.num_steps() != want_steps {
            return Err(ScheduleParseError::new(
                header_line + 1,
                format!(
                    "header claims {want_groups} group(s) / {want_steps} step(s), \
                     body has {} / {}",
                    schedule.num_groups(),
                    schedule.num_steps()
                ),
            ));
        }
        Ok(schedule)
    }
}

/// Error returned by [`Schedule::parse`], carrying the 1-based line number
/// the parse failed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleParseError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// Human-readable reason.
    pub message: String,
}

impl ScheduleParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ScheduleParseError {}

/// Line-level parsers for [`Schedule::parse`], inverting the `Display`
/// impls of [`Step`], [`ComputeOp`], [`BufSlice`] and
/// [`Region`](symla_memory::Region) exactly.
mod parse {
    use super::{BufId, BufSlice, ComputeOp, Step};
    use symla_matrix::kernels::FlopCount;
    use symla_matrix::Scalar;
    use symla_memory::{Level, MatrixId, Region};

    type Result<T> = std::result::Result<T, String>;

    /// Parses `schedule: N group(s), M step(s)`.
    pub(super) fn header(line: &str) -> Option<(usize, usize)> {
        let rest = line.strip_prefix("schedule: ")?;
        let (groups, steps) = rest.split_once(", ")?;
        Some((
            groups.strip_suffix(" group(s)")?.parse().ok()?,
            steps.strip_suffix(" step(s)")?.parse().ok()?,
        ))
    }

    /// Parses `b{id}`.
    fn buf(text: &str) -> Result<BufId> {
        text.strip_prefix('b')
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad buffer `{text}`"))
    }

    /// Parses `b{id}[{start}..+{len}]`.
    fn slice(text: &str) -> Result<BufSlice> {
        let err = || format!("bad buffer slice `{text}`");
        let (b, range) = text.split_once('[').ok_or_else(err)?;
        let (start, len) = range
            .strip_suffix(']')
            .and_then(|r| r.split_once("..+"))
            .ok_or_else(err)?;
        Ok(BufSlice {
            buf: buf(b)?,
            start: start.parse().map_err(|_| err())?,
            len: len.parse().map_err(|_| err())?,
        })
    }

    /// Parses an ` @l{n}` level token.
    fn level_token(text: &str) -> Result<Level> {
        text.strip_prefix("@l")
            .and_then(|t| t.parse::<u8>().ok())
            .map(Level::new)
            .ok_or_else(|| format!("bad level `{text}`"))
    }

    /// Splits an optional trailing ` @l{n}` level annotation off a step's
    /// operand text (the v2 leveled-transfer suffix).
    fn split_level(rest: &str) -> Result<(&str, Level)> {
        match rest.rsplit_once(' ') {
            Some((left, last)) if last.starts_with("@l") => Ok((left, level_token(last)?)),
            _ => Ok((rest, Level::default())),
        }
    }

    /// Strips `key=` from a token.
    fn kv<'a>(token: &'a str, key: &str) -> Result<&'a str> {
        token
            .strip_prefix(key)
            .and_then(|t| t.strip_prefix('='))
            .ok_or_else(|| format!("expected `{key}=...`, got `{token}`"))
    }

    /// Parses a scalar through its `f64` text form (the `Display` of `f32`
    /// and `f64` round-trips through shortest-decimal output).
    fn scalar<T: Scalar>(text: &str) -> Result<T> {
        text.parse::<f64>()
            .map(T::from_f64)
            .map_err(|_| format!("bad scalar `{text}`"))
    }

    /// Parses `m{id} {region} -> b{dst}` (the operand form of load/alloc).
    fn transfer(rest: &str) -> Result<(MatrixId, Region, BufId)> {
        let err = || format!("bad transfer operands `{rest}`");
        let (left, dst) = rest.rsplit_once(" -> ").ok_or_else(err)?;
        let (matrix, region) = left.split_once(' ').ok_or_else(err)?;
        let id: u64 = matrix
            .strip_prefix('m')
            .and_then(|m| m.parse().ok())
            .ok_or_else(err)?;
        let region: Region = region.parse().map_err(|e| format!("{e}"))?;
        Ok((MatrixId::synthetic(id), region, buf(dst)?))
    }

    /// Parses the last token of a `... -> b{dst}` line plus the preceding
    /// key=value tokens.
    fn arrow_dst<'a>(tokens: &[&'a str]) -> Result<(BufId, Vec<&'a str>)> {
        match tokens {
            [init @ .., "->", dst] => Ok((buf(dst)?, init.to_vec())),
            _ => Err("missing `-> b{dst}` tail".to_string()),
        }
    }

    /// Parses one (already unindented) step line.
    pub(super) fn step<T: Scalar>(line: &str) -> Result<Step<T>> {
        let line = line.trim_end();
        let (op, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad step `{line}`"))?;
        let rest = rest.trim_start();
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        match op {
            "load" => {
                let (operands, level) = split_level(rest)?;
                let (matrix, region, dst) = transfer(operands)?;
                Ok(Step::Load {
                    matrix,
                    region,
                    dst,
                    level,
                })
            }
            "alloc" => {
                let (matrix, region, dst) = transfer(rest)?;
                Ok(Step::Alloc {
                    matrix,
                    region,
                    dst,
                })
            }
            "store" => match tokens.as_slice() {
                [b] => Ok(Step::Store {
                    buf: buf(b)?,
                    level: Level::default(),
                }),
                [b, lvl] => Ok(Step::Store {
                    buf: buf(b)?,
                    level: level_token(lvl)?,
                }),
                _ => Err(format!("bad store operands `{rest}`")),
            },
            "discard" => Ok(Step::Discard { buf: buf(rest)? }),
            "flops" => match tokens.as_slice() {
                [mults, adds] => Ok(Step::Flops(FlopCount::new(
                    kv(mults, "mults")?
                        .parse()
                        .map_err(|_| format!("bad flop count `{mults}`"))?,
                    kv(adds, "adds")?
                        .parse()
                        .map_err(|_| format!("bad flop count `{adds}`"))?,
                ))),
                _ => Err(format!("bad flops operands `{rest}`")),
            },
            "ger" => {
                let (dst, init) = arrow_dst(&tokens)?;
                match init.as_slice() {
                    [alpha, x, y] => Ok(Step::Compute(ComputeOp::Ger {
                        alpha: scalar(kv(alpha, "alpha")?)?,
                        x: slice(kv(x, "x")?)?,
                        y: slice(kv(y, "y")?)?,
                        dst,
                    })),
                    _ => Err(format!("bad ger operands `{rest}`")),
                }
            }
            "spr" | "tripairs" => {
                let (dst, init) = arrow_dst(&tokens)?;
                match init.as_slice() {
                    [alpha, x] => {
                        let alpha = scalar(kv(alpha, "alpha")?)?;
                        let x = slice(kv(x, "x")?)?;
                        Ok(Step::Compute(if op == "spr" {
                            ComputeOp::SprLower { alpha, x, dst }
                        } else {
                            ComputeOp::TrianglePairs { alpha, x, dst }
                        }))
                    }
                    _ => Err(format!("bad {op} operands `{rest}`")),
                }
            }
            "chol" | "lu" => match tokens.as_slice() {
                [dst, "(pivot", "base", base] => {
                    let dst = buf(dst)?;
                    let pivot_base = base
                        .strip_suffix(')')
                        .and_then(|b| b.parse().ok())
                        .ok_or_else(|| format!("bad pivot base `{base}`"))?;
                    Ok(Step::Compute(if op == "chol" {
                        ComputeOp::CholeskyInPlace { dst, pivot_base }
                    } else {
                        ComputeOp::LuInPlace { dst, pivot_base }
                    }))
                }
                _ => Err(format!("bad {op} operands `{rest}`")),
            },
            "trsmstep" | "lucol" => {
                let (dst, init) = arrow_dst(&tokens)?;
                match init.as_slice() {
                    [seg, col, pivot] => {
                        let seg = buf(kv(seg, "seg")?)?;
                        let col = kv(col, "col")?
                            .parse()
                            .map_err(|_| format!("bad column `{col}`"))?;
                        let pivot = kv(pivot, "pivot")?
                            .parse()
                            .map_err(|_| format!("bad pivot `{pivot}`"))?;
                        Ok(Step::Compute(if op == "trsmstep" {
                            ComputeOp::TrsmRightStep {
                                seg,
                                dst,
                                col,
                                pivot,
                            }
                        } else {
                            ComputeOp::LuColSolveStep {
                                seg,
                                dst,
                                col,
                                pivot,
                            }
                        }))
                    }
                    _ => Err(format!("bad {op} operands `{rest}`")),
                }
            }
            "lurow" => {
                let (dst, init) = arrow_dst(&tokens)?;
                match init.as_slice() {
                    [seg, row] => Ok(Step::Compute(ComputeOp::LuRowElimStep {
                        seg: buf(kv(seg, "seg")?)?,
                        dst,
                        row: kv(row, "row")?
                            .parse()
                            .map_err(|_| format!("bad row `{row}`"))?,
                    })),
                    _ => Err(format!("bad lurow operands `{rest}`")),
                }
            }
            other => Err(format!("unknown step `{other}`")),
        }
    }
}

/// Incremental constructor for [`Schedule`]s.
///
/// Builders mirror the shape of the original executor loops: where the seed
/// code called `machine.load(...)`, a builder calls [`ScheduleBuilder::load`]
/// and receives a [`BufId`] to thread through the compute steps. Buffer ids
/// are unique across the whole schedule.
#[derive(Debug)]
pub struct ScheduleBuilder<T: Scalar> {
    groups: Vec<TaskGroup<T>>,
    current: TaskGroup<T>,
    started: bool,
    phase: Option<String>,
    next_buf: BufId,
}

impl<T: Scalar> Default for ScheduleBuilder<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> ScheduleBuilder<T> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            groups: Vec::new(),
            current: TaskGroup::default(),
            started: false,
            phase: None,
            next_buf: 0,
        }
    }

    /// Sets the phase label assigned to task groups begun from now on.
    pub fn set_phase(&mut self, phase: &str) {
        self.phase = Some(phase.to_string());
    }

    /// Closes the current group (if it has steps) and begins a new one
    /// carrying the current phase label.
    pub fn begin_group(&mut self) {
        self.flush_group();
        self.started = true;
    }

    fn flush_group(&mut self) {
        if !self.current.steps.is_empty() {
            self.groups.push(std::mem::take(&mut self.current));
        }
        self.current.phase = self.phase.clone();
    }

    fn push(&mut self, step: Step<T>) {
        if !self.started {
            self.begin_group();
        }
        self.current.steps.push(step);
    }

    /// Emits a load step from the default slow tier and returns the id of
    /// the created buffer.
    pub fn load(&mut self, matrix: MatrixId, region: Region) -> BufId {
        self.load_from(matrix, region, Level::default())
    }

    /// Emits a load step from an explicit memory tier and returns the id of
    /// the created buffer. `Level::default()` is exactly [`Self::load`].
    pub fn load_from(&mut self, matrix: MatrixId, region: Region, level: Level) -> BufId {
        let dst = self.next_buf;
        self.next_buf += 1;
        self.push(Step::Load {
            matrix,
            region,
            dst,
            level,
        });
        dst
    }

    /// Emits an allocate-without-reading step and returns the buffer id.
    pub fn alloc(&mut self, matrix: MatrixId, region: Region) -> BufId {
        let dst = self.next_buf;
        self.next_buf += 1;
        self.push(Step::Alloc {
            matrix,
            region,
            dst,
        });
        dst
    }

    /// Emits a compute step.
    pub fn compute(&mut self, op: ComputeOp<T>) {
        self.push(Step::Compute(op));
    }

    /// Emits a flop-accounting step.
    pub fn flops(&mut self, flops: FlopCount) {
        self.push(Step::Flops(flops));
    }

    /// Emits a store step consuming `buf`, writing to the default slow tier.
    pub fn store(&mut self, buf: BufId) {
        self.store_to(buf, Level::default());
    }

    /// Emits a store step consuming `buf`, writing to an explicit memory
    /// tier. `Level::default()` is exactly [`Self::store`].
    pub fn store_to(&mut self, buf: BufId, level: Level) {
        self.push(Step::Store { buf, level });
    }

    /// Emits a discard step consuming `buf`.
    pub fn discard(&mut self, buf: BufId) {
        self.push(Step::Discard { buf });
    }

    /// Finishes the build and returns the schedule.
    pub fn finish(mut self) -> Schedule<T> {
        self.flush_group();
        Schedule {
            groups: self.groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_groups_and_buffer_ids() {
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let m = MatrixId::synthetic(0);
        let c = b.load(m, Region::rect(0, 0, 2, 2));
        let x = b.load(m, Region::col_segment(0, 0, 2));
        b.compute(ComputeOp::Ger {
            alpha: 1.0,
            x: BufSlice::whole(x, 2),
            y: BufSlice::whole(x, 2),
            dst: c,
        });
        b.flops(FlopCount::new(4, 4));
        b.discard(x);
        b.store(c);

        b.set_phase("p2");
        b.begin_group();
        let d = b.load(m, Region::rect(2, 2, 1, 1));
        b.discard(d);

        let schedule = b.finish();
        assert_eq!(schedule.num_groups(), 2);
        assert_eq!(schedule.num_steps(), 8);
        assert_eq!(schedule.groups[0].phase, None);
        assert_eq!(schedule.groups[1].phase.as_deref(), Some("p2"));
        assert_ne!(c, x);
        assert_ne!(d, c);
        assert_ne!(d, x);
        assert!(schedule.to_string().contains("2 group(s)"));
    }

    #[test]
    fn group_volume_helpers() {
        let mut b = ScheduleBuilder::<f64>::new();
        let m = MatrixId::synthetic(1);
        let c = b.load(m, Region::rect(0, 0, 3, 3));
        let z = b.alloc(m, Region::rect(3, 0, 1, 3));
        let x = b.load(m, Region::col_segment(0, 0, 3));
        b.discard(x);
        b.store(c);
        b.store(z);
        let schedule = b.finish();
        let group = &schedule.groups[0];
        assert_eq!(group.loaded_elements(), 12);
        assert_eq!(group.stored_elements(), 12);
    }

    /// A schedule exercising every step and compute-op variant, every
    /// region kind and a phase label, for the dump/parse round trip.
    fn kitchen_sink_schedule() -> Schedule<f64> {
        let m = MatrixId::synthetic(3);
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let c = b.load(m, Region::rect(0, 0, 3, 3));
        let x = b.load(
            m,
            Region::Rows {
                rows: vec![1, 4, 6],
                col0: 0,
                cols: 2,
            },
        );
        b.compute(ComputeOp::Ger {
            alpha: -1.5,
            x: BufSlice::new(x, 0, 3),
            y: BufSlice::new(x, 3, 3),
            dst: c,
        });
        b.flops(FlopCount::new(9, 9));
        b.discard(x);
        b.store(c);

        b.set_phase("solve");
        b.begin_group();
        let tri = b.load(m, Region::SymLowerTriangle { start: 2, size: 3 });
        b.compute(ComputeOp::CholeskyInPlace {
            dst: tri,
            pivot_base: 2,
        });
        let pairs = b.alloc(
            m,
            Region::SymPairs {
                rows: vec![0, 2, 5],
            },
        );
        b.compute(ComputeOp::TrianglePairs {
            alpha: 0.25,
            x: BufSlice::whole(tri, 3),
            dst: pairs,
        });
        b.compute(ComputeOp::SprLower {
            alpha: 2.0,
            x: BufSlice::whole(pairs, 3),
            dst: tri,
        });
        b.store(pairs);
        b.store(tri);

        b.begin_group();
        let tile = b.load(m, Region::sym_rect(5, 0, 2, 2));
        let seg = b.load(
            m,
            Region::SymRows {
                rows: vec![6, 7],
                col0: 0,
                cols: 1,
            },
        );
        b.compute(ComputeOp::TrsmRightStep {
            seg,
            dst: tile,
            col: 0,
            pivot: 4,
        });
        b.compute(ComputeOp::LuColSolveStep {
            seg,
            dst: tile,
            col: 1,
            pivot: 5,
        });
        b.compute(ComputeOp::LuRowElimStep {
            seg,
            dst: tile,
            row: 0,
        });
        b.compute(ComputeOp::LuInPlace {
            dst: tile,
            pivot_base: 1,
        });
        b.discard(seg);
        b.store(tile);
        b.finish()
    }

    #[test]
    fn parse_inverts_dump_for_every_step_kind() {
        let schedule = kitchen_sink_schedule();
        let dump = schedule.dump();
        let parsed = Schedule::<f64>::parse(&dump).unwrap_or_else(|e| panic!("{e}\n{dump}"));
        assert_eq!(parsed, schedule);
        // and the round trip is a fixed point of dump
        assert_eq!(parsed.dump(), dump);
        // empty schedules round-trip too
        let empty = Schedule::<f64>::default();
        assert_eq!(Schedule::<f64>::parse(&empty.dump()).unwrap(), empty);
    }

    #[test]
    fn parse_rejects_malformed_dumps() {
        let schedule = kitchen_sink_schedule();
        let dump = schedule.dump();

        // header/body mismatch (the schedule header sits on line 2, after
        // the version line)
        let truncated: String = dump.lines().take(4).collect::<Vec<_>>().join("\n");
        let err = Schedule::<f64>::parse(&truncated).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("header claims"), "{err}");

        // a step before any group header
        let bad = "schedule: 0 group(s), 1 step(s)\n  store    b0\n";
        assert!(Schedule::<f64>::parse(bad).is_err());

        // garbage step
        let bad = "schedule: 1 group(s), 1 step(s)\ngroup 0\n  teleport b0\n";
        let err = Schedule::<f64>::parse(bad).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("teleport"));

        // bad header
        assert!(Schedule::<f64>::parse("schedules: a, b\n").is_err());
        assert!(Schedule::<f64>::parse("").is_err());

        // out-of-order group index
        let bad = "schedule: 1 group(s), 0 step(s)\ngroup 1\n";
        assert!(Schedule::<f64>::parse(bad).is_err());
    }

    #[test]
    fn parse_versioned_and_legacy_headers() {
        let schedule = kitchen_sink_schedule();
        let dump = schedule.dump();
        assert!(dump.starts_with("symla-schedule text v1\n"), "{dump}");

        // A pre-version-header dump (no first line) still parses.
        let legacy: String = dump
            .lines()
            .skip(1)
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        assert_eq!(Schedule::<f64>::parse(&legacy).unwrap(), schedule);

        // A future version is rejected with the line number of the header.
        let future = format!("symla-schedule text v9999\n{legacy}");
        let err = Schedule::<f64>::parse(&future).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("newer than supported"), "{err}");

        // A malformed version number is rejected, not silently skipped.
        let garbled = format!("symla-schedule text vX\n{legacy}");
        assert!(Schedule::<f64>::parse(&garbled).is_err());
    }

    #[test]
    fn leveled_steps_round_trip_with_a_v2_header() {
        let m = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let x = b.load_from(m, Region::rect(0, 0, 2, 2), Level::new(3));
        let y = b.load(m, Region::col_segment(0, 0, 2));
        b.discard(y);
        b.store_to(x, Level::new(2));
        let schedule = b.finish();

        assert!(schedule.is_leveled());
        assert_eq!(schedule.text_version(), 2);
        let dump = schedule.dump();
        assert!(dump.starts_with("symla-schedule text v2\n"), "{dump}");
        assert!(
            dump.contains("load     m0 Rect[0..+2, 0..+2] -> b0 @l3"),
            "{dump}"
        );
        assert!(dump.contains("store    b0 @l2"), "{dump}");
        // the default-level load carries no suffix
        assert!(
            dump.contains("load     m0 Rect[0..+2, 0..+1] -> b1\n"),
            "{dump}"
        );

        let parsed = Schedule::<f64>::parse(&dump).unwrap_or_else(|e| panic!("{e}\n{dump}"));
        assert_eq!(parsed, schedule);
        assert_eq!(parsed.dump(), dump);

        // a garbled level annotation is rejected, not silently defaulted
        let bad = "schedule: 1 group(s), 1 step(s)\ngroup 0\n  store    b0 @lX\n";
        let err = Schedule::<f64>::parse(bad).unwrap_err();
        assert!(err.message.contains("bad level"), "{err}");
    }

    #[test]
    fn default_level_schedules_keep_the_v1_dump() {
        // builder `load`/`store` and explicit default-level `load_from`/
        // `store_to` produce identical, version-1 dumps
        let m = MatrixId::synthetic(0);
        let mut a = ScheduleBuilder::<f64>::new();
        let x = a.load(m, Region::rect(0, 0, 2, 2));
        a.store(x);
        let mut b = ScheduleBuilder::<f64>::new();
        let y = b.load_from(m, Region::rect(0, 0, 2, 2), Level::default());
        b.store_to(y, Level::default());
        let (a, b) = (a.finish(), b.finish());
        assert_eq!(a, b);
        assert!(!a.is_leveled());
        assert_eq!(a.text_version(), 1);
        assert!(a.dump().starts_with("symla-schedule text v1\n"));
        assert_eq!(a.dump(), b.dump());
    }

    #[test]
    fn empty_groups_are_dropped() {
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        b.begin_group();
        let schedule = b.finish();
        assert_eq!(schedule.num_groups(), 0);
        assert_eq!(Schedule::<f64>::default().num_steps(), 0);
    }
}
