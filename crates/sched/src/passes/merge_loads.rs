//! Redundant-load elimination and load coalescing.
//!
//! Two families of rewrites, both confined to a single task group (so the
//! optimized schedule stays valid for `Engine::execute_parallel`; run
//! [`super::ReorderLocality`] with fusion first to harvest reuse across
//! former group boundaries):
//!
//! 1. **Redundant-load elimination** — a `Load` of a region that is already
//!    resident in a *clean* buffer (loaded, never computed into, no
//!    intervening store overlapping it) is dropped and its uses aliased to
//!    the resident buffer. If the clean buffer was already discarded, the
//!    discard is *deferred* instead — the buffer stays resident across the
//!    gap — provided the residency over the gap stays within the pass
//!    budget. This is what turns fast-memory slack into saved transfers.
//! 2. **Load coalescing** — consecutive `Load` steps of contiguous regions
//!    of the same matrix merge into one transfer event (same element volume,
//!    fewer transfers). Only buffers used exclusively through `BufSlice`
//!    operands and released by `Discard` participate, so every use can be
//!    re-pointed at an offset of the merged buffer.
//!
//! Residency never exceeds `max(seed schedule peak, budget)`; load volume
//! and event counts never increase.

use super::analysis::{
    buffer_table, remap_op, residency_profile, BufInfo, CellSet, ConsumeKind, OriginKind,
};
use super::{Pass, PassReport, Result};
use crate::engine::Engine;
use crate::ir::{BufId, Schedule, Step};
use std::collections::HashMap;
use symla_matrix::Scalar;
use symla_memory::{Level, MatrixId, Region};

/// The merge/eliminate pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeLoads {
    /// Fast-memory residency the pass may use when deferring discards.
    /// `None` caps residency at the seed schedule's own peak, so the
    /// optimized schedule fits wherever the seed fits.
    pub budget: Option<usize>,
}

impl MergeLoads {
    /// A pass instance with an explicit residency budget.
    pub fn with_budget(budget: usize) -> Self {
        Self {
            budget: Some(budget),
        }
    }
}

impl<T: Scalar> Pass<T> for MergeLoads {
    fn name(&self) -> &'static str {
        "merge-loads"
    }

    fn run(&self, mut schedule: Schedule<T>) -> Result<(Schedule<T>, PassReport)> {
        let cap = self
            .budget
            .unwrap_or_else(|| Engine::dry_run(&schedule, "main").peak_resident);
        let mut report = PassReport::new("merge-loads");
        // Buffers may straddle groups in legacy serial schedules: track the
        // carried residency so per-group profiles stay exact.
        let mut live_outside: HashMap<BufId, usize> = HashMap::new();
        let mut resident_in = 0usize;
        for group in &mut schedule.groups {
            let steps = std::mem::take(&mut group.steps);
            let steps = dedup_loads(steps, resident_in, cap, &mut report)?;
            let steps = coalesce_loads(steps, resident_in, cap, &mut report)?;
            for step in &steps {
                match step {
                    Step::Load { region, dst, .. } | Step::Alloc { region, dst, .. } => {
                        live_outside.insert(*dst, region.len());
                        resident_in += region.len();
                    }
                    Step::Store { buf, .. } | Step::Discard { buf } => {
                        resident_in -= live_outside.remove(buf).unwrap_or(0);
                    }
                    _ => {}
                }
            }
            group.steps = steps;
        }
        Ok((schedule, report))
    }
}

/// Whether a buffer can serve as a reuse source / alias target: loaded from
/// slow memory, never written by a compute, and consumed inside the group.
fn reusable(info: &BufInfo) -> bool {
    info.origin == OriginKind::Load && !info.is_dirty() && info.consumed.is_some()
}

/// Rewrites `step`'s buffer references through the alias map (offsets are
/// always zero for whole-buffer aliases).
fn apply_aliases<T: Scalar>(step: &mut Step<T>, alias: &HashMap<BufId, BufId>) {
    match step {
        Step::Store { buf, .. } | Step::Discard { buf } => {
            if let Some(&n) = alias.get(buf) {
                *buf = n;
            }
        }
        Step::Compute(op) => remap_op(op, |b| alias.get(&b).map(|&n| (n, 0))),
        _ => {}
    }
}

/// Phase 1: duplicate-resident elimination and deferred-discard revival.
fn dedup_loads<T: Scalar>(
    steps: Vec<Step<T>>,
    resident_in: usize,
    cap: usize,
    report: &mut PassReport,
) -> Result<Vec<Step<T>>> {
    let table = buffer_table(&steps)?;
    let mut res = residency_profile(&steps, resident_in);
    let mut out: Vec<Option<Step<T>>> = steps.into_iter().map(Some).collect();

    // (matrix, region) -> clean resident buffer
    let mut avail: HashMap<(MatrixId, Region), BufId> = HashMap::new();
    // (matrix, region) -> (clean discarded buffer, discard step index)
    let mut deferred: HashMap<(MatrixId, Region), (BufId, usize)> = HashMap::new();
    let mut alias: HashMap<BufId, BufId> = HashMap::new();
    // dynamic consume position/kind per surviving buffer
    let mut consume_of: HashMap<BufId, (usize, ConsumeKind)> = table
        .iter()
        .filter_map(|(b, info)| info.consumed.map(|c| (*b, c)))
        .collect();

    for i in 0..out.len() {
        if out[i].is_none() {
            continue; // dropped by an earlier rewrite
        }
        {
            let step = out[i].as_mut().expect("checked above");
            apply_aliases(step, &alias);
        }
        match out[i].as_ref().expect("checked above") {
            Step::Load {
                matrix,
                region,
                dst,
                level,
            } => {
                let dst = *dst;
                let info = &table[&dst];
                // Leveled loads are never merged: two transfers from
                // different tiers have distinct per-level accounting even
                // when they read the same cells.
                if !reusable(info) || !level.is_default() {
                    continue;
                }
                let key = (*matrix, region.clone());
                let len = region.len();
                if let Some(&src) = avail.get(&key) {
                    // The region is resident in a clean buffer: alias.
                    let (c_src, k_src) = consume_of[&src];
                    let (c_dst, k_dst) = consume_of[&dst];
                    let (first, first_kind, last, last_kind) = if c_src < c_dst {
                        (c_src, k_src, c_dst, k_dst)
                    } else {
                        (c_dst, k_dst, c_src, k_src)
                    };
                    // The earlier consume is dropped, so it must be a
                    // discard; the surviving consume keeps its kind.
                    if first_kind == ConsumeKind::Discard {
                        out[i] = None;
                        out[first] = None;
                        alias.insert(dst, src);
                        consume_of.insert(src, (last, last_kind));
                        for r in res.iter_mut().take(first).skip(i) {
                            *r -= len;
                        }
                        report.loads_eliminated += len as u64;
                        report.steps_removed += 2;
                        continue;
                    }
                } else if let Some(&(src, didx)) = deferred.get(&key) {
                    // The region was resident in a clean buffer that has
                    // been discarded: defer that discard instead, if the
                    // extra residency over the gap fits the budget.
                    let fits = res[didx..i].iter().all(|&r| r + len <= cap);
                    if fits {
                        out[didx] = None;
                        out[i] = None;
                        alias.insert(dst, src);
                        consume_of.insert(src, consume_of[&dst]);
                        for r in res.iter_mut().take(i).skip(didx) {
                            *r += len;
                        }
                        deferred.remove(&key);
                        avail.insert(key, src);
                        report.loads_eliminated += len as u64;
                        report.steps_removed += 2;
                        continue;
                    }
                }
                avail.insert(key, dst);
            }
            Step::Store { buf, .. } => {
                let buf = *buf;
                match table.get(&buf) {
                    Some(info) => {
                        // A store changes slow memory: every cached clean
                        // region of the same matrix overlapping it is stale.
                        let mut stored = CellSet::default();
                        stored.insert_region(info.matrix, &info.region);
                        avail.retain(|(m, r), _| !stored.overlaps_region(*m, r));
                        deferred.retain(|(m, r), _| !stored.overlaps_region(*m, r));
                    }
                    None => {
                        // A buffer created outside this group: unknown
                        // region, invalidate everything.
                        avail.clear();
                        deferred.clear();
                    }
                }
                avail.retain(|_, b| *b != buf);
            }
            Step::Discard { buf } => {
                let buf = *buf;
                if let Some(key) = avail
                    .iter()
                    .find(|(_, b)| **b == buf)
                    .map(|(k, _)| k.clone())
                {
                    avail.remove(&key);
                    deferred.insert(key, (buf, i));
                }
            }
            _ => {}
        }
    }
    Ok(out.into_iter().flatten().collect())
}

/// Result of merging two contiguous regions: the merged region and the
/// buffer offsets of the existing chain and of the newly added region.
fn merge_regions(a: &Region, b: &Region) -> Option<(Region, usize, usize)> {
    match (a, b) {
        (
            Region::Rect {
                row0: r1,
                col0: c1,
                rows: h1,
                cols: w1,
            },
            Region::Rect {
                row0: r2,
                col0: c2,
                rows: h2,
                cols: w2,
            },
        ) => merge_rects(false, *r1, *c1, *h1, *w1, *r2, *c2, *h2, *w2),
        (
            Region::SymRect {
                row0: r1,
                col0: c1,
                rows: h1,
                cols: w1,
            },
            Region::SymRect {
                row0: r2,
                col0: c2,
                rows: h2,
                cols: w2,
            },
        ) => merge_rects(true, *r1, *c1, *h1, *w1, *r2, *c2, *h2, *w2),
        (
            Region::Rows {
                rows: rows1,
                col0: c1,
                cols: w1,
            },
            Region::Rows {
                rows: rows2,
                col0: c2,
                cols: w2,
            },
        ) if rows1 == rows2 => merge_row_sets(false, rows1, *c1, *w1, *c2, *w2),
        (
            Region::SymRows {
                rows: rows1,
                col0: c1,
                cols: w1,
            },
            Region::SymRows {
                rows: rows2,
                col0: c2,
                cols: w2,
            },
        ) if rows1 == rows2 => merge_row_sets(true, rows1, *c1, *w1, *c2, *w2),
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn merge_rects(
    sym: bool,
    r1: usize,
    c1: usize,
    h1: usize,
    w1: usize,
    r2: usize,
    c2: usize,
    h2: usize,
    w2: usize,
) -> Option<(Region, usize, usize)> {
    let mk = |row0, col0, rows, cols| {
        if sym {
            Region::SymRect {
                row0,
                col0,
                rows,
                cols,
            }
        } else {
            Region::Rect {
                row0,
                col0,
                rows,
                cols,
            }
        }
    };
    if h1 == 0 || h2 == 0 || w1 == 0 || w2 == 0 {
        return None;
    }
    // single-column segments stacked vertically (column-major layout keeps
    // each part contiguous only for one column)
    if c1 == c2 && w1 == 1 && w2 == 1 {
        if r1 + h1 == r2 {
            return Some((mk(r1, c1, h1 + h2, 1), 0, h1));
        }
        if r2 + h2 == r1 {
            return Some((mk(r2, c2, h1 + h2, 1), h2, 0));
        }
    }
    // equal row ranges side by side (whole columns stay contiguous)
    if r1 == r2 && h1 == h2 {
        if c1 + w1 == c2 {
            return Some((mk(r1, c1, h1, w1 + w2), 0, h1 * w1));
        }
        if c2 + w2 == c1 {
            return Some((mk(r1, c2, h1, w1 + w2), h1 * w2, 0));
        }
    }
    None
}

fn merge_row_sets(
    sym: bool,
    rows: &[usize],
    c1: usize,
    w1: usize,
    c2: usize,
    w2: usize,
) -> Option<(Region, usize, usize)> {
    let mk = |col0, cols| {
        if sym {
            Region::SymRows {
                rows: rows.to_vec(),
                col0,
                cols,
            }
        } else {
            Region::Rows {
                rows: rows.to_vec(),
                col0,
                cols,
            }
        }
    };
    if rows.is_empty() || w1 == 0 || w2 == 0 {
        return None;
    }
    if c1 + w1 == c2 {
        return Some((mk(c1, w1 + w2), 0, rows.len() * w1));
    }
    if c2 + w2 == c1 {
        return Some((mk(c2, w1 + w2), rows.len() * w2, 0));
    }
    None
}

/// Phase 2: coalesce consecutive loads of contiguous regions.
fn coalesce_loads<T: Scalar>(
    steps: Vec<Step<T>>,
    resident_in: usize,
    cap: usize,
    report: &mut PassReport,
) -> Result<Vec<Step<T>>> {
    let table = buffer_table(&steps)?;
    let mut res = residency_profile(&steps, resident_in);
    let mut out: Vec<Option<Step<T>>> = steps.into_iter().map(Some).collect();
    // member buffer -> (head buffer, element offset in the merged buffer)
    let mut remap: HashMap<BufId, (BufId, usize)> = HashMap::new();

    // A buffer can be re-pointed at a slice offset only if every use is a
    // BufSlice operand and it is released by a plain discard.
    let sliceable = |b: BufId| -> bool {
        let info = &table[&b];
        info.origin == OriginKind::Load
            && !info.is_dirty()
            && info.whole_uses.is_empty()
            && matches!(info.consumed, Some((_, ConsumeKind::Discard)))
    };

    let mut i = 0;
    while i < out.len() {
        let Some(Step::Load {
            matrix,
            region,
            dst,
            level,
        }) = out[i].clone()
        else {
            i += 1;
            continue;
        };
        // Leveled loads never coalesce: the chain would lose which tier each
        // member read from.
        if !sliceable(dst) || region.is_empty() || !level.is_default() {
            i += 1;
            continue;
        }
        // grow a chain over the directly following loads
        let mut chain: Vec<(BufId, usize, usize)> = vec![(dst, 0, i)]; // (buf, offset, load idx)
        let mut chain_region = region.clone();
        let mut j = i + 1;
        while j < out.len() {
            let Some(Step::Load {
                matrix: m2,
                region: r2,
                dst: d2,
                level: l2,
            }) = out[j].clone()
            else {
                break;
            };
            if m2 != matrix || !sliceable(d2) || r2.is_empty() || !l2.is_default() {
                break;
            }
            let Some((merged, shift_existing, off_new)) = merge_regions(&chain_region, &r2) else {
                break;
            };
            // deferring the earlier discards must stay within the budget
            let mut candidate = chain.clone();
            candidate.push((d2, off_new, j));
            if !discard_extension_fits(&candidate, &table, &res, cap) {
                break;
            }
            for (_, off, _) in &mut chain {
                *off += shift_existing;
            }
            chain.push((d2, off_new, j));
            chain_region = merged;
            j += 1;
        }
        if chain.len() > 1 {
            let head = chain[0].0;
            let extended = chain.len() as u64 - 1;
            // merged load at the head position
            out[i] = Some(Step::Load {
                matrix,
                region: chain_region,
                dst: head,
                level: Level::default(),
            });
            // member loads disappear
            for &(_, _, load_idx) in &chain[1..] {
                out[load_idx] = None;
            }
            // all but the last discard disappear; residency bookkeeping
            let discards: Vec<(usize, usize)> = chain
                .iter()
                .map(|&(b, _, _)| {
                    let (d, _) = table[&b].consumed.expect("sliceable implies consumed");
                    (d, table[&b].region.len())
                })
                .collect();
            let last_d = discards.iter().map(|&(d, _)| d).max().expect("non-empty");
            for &(d, len) in &discards {
                if d != last_d {
                    out[d] = None;
                    for r in res.iter_mut().take(last_d).skip(d) {
                        *r += len;
                    }
                }
            }
            if let Some(Step::Discard { buf }) = out[last_d].as_mut() {
                *buf = head;
            }
            // member loads moved to the head: early-resident bookkeeping
            for &(b, _, load_idx) in &chain[1..] {
                let len = table[&b].region.len();
                for r in res.iter_mut().take(load_idx).skip(i) {
                    *r += len;
                }
            }
            for &(b, off, _) in &chain {
                remap.insert(b, (head, off));
            }
            report.load_events_merged += extended;
            report.steps_removed += 2 * extended;
        }
        i = j.max(i + 1);
    }

    // re-point every slice use at the merged buffers
    for step in out.iter_mut().flatten() {
        if let Step::Compute(op) = step {
            remap_op(op, |b| remap.get(&b).copied());
        }
    }
    Ok(out.into_iter().flatten().collect())
}

/// Whether releasing all chain members at the last member's discard keeps
/// residency within `cap` over the extension window.
fn discard_extension_fits(
    chain: &[(BufId, usize, usize)],
    table: &HashMap<BufId, BufInfo>,
    res: &[usize],
    cap: usize,
) -> bool {
    let discards: Vec<(usize, usize)> = chain
        .iter()
        .map(|&(b, _, _)| {
            let (d, _) = table[&b].consumed.expect("sliceable implies consumed");
            (d, table[&b].region.len())
        })
        .collect();
    let last_d = discards.iter().map(|&(d, _)| d).max().expect("non-empty");
    let min_d = discards.iter().map(|&(d, _)| d).min().expect("non-empty");
    for (t, &res_t) in res.iter().enumerate().take(last_d).skip(min_d) {
        let extra: usize = discards
            .iter()
            .filter(|&&(d, _)| d <= t && d != last_d)
            .map(|&(_, len)| len)
            .sum();
        if res_t + extra > cap {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::ir::{BufSlice, ComputeOp, ScheduleBuilder};
    use crate::passes::verify::check_equivalent;

    fn id() -> MatrixId {
        MatrixId::synthetic(1)
    }

    fn run_pass(schedule: &Schedule<f64>, budget: Option<usize>) -> (Schedule<f64>, PassReport) {
        let pass = MergeLoads { budget };
        let (opt, report) = pass.run(schedule.clone()).unwrap();
        check_equivalent(schedule, &opt).unwrap();
        (opt, report)
    }

    #[test]
    fn duplicate_resident_load_is_eliminated() {
        let mut b = ScheduleBuilder::<f64>::new();
        let c = b.load(id(), Region::rect(0, 0, 2, 2));
        let x = b.load(id(), Region::col_segment(4, 0, 2));
        let y = b.load(id(), Region::col_segment(4, 0, 2)); // duplicate of x
        b.compute(ComputeOp::Ger {
            alpha: 1.0,
            x: BufSlice::whole(x, 2),
            y: BufSlice::whole(y, 2),
            dst: c,
        });
        b.discard(x);
        b.discard(y);
        b.store(c);
        let seed = b.finish();

        let (opt, report) = run_pass(&seed, None);
        assert_eq!(report.loads_eliminated, 2);
        assert_eq!(report.steps_removed, 2);
        let dry = Engine::dry_run(&opt, "m");
        let seed_dry = Engine::dry_run(&seed, "m");
        assert_eq!(dry.volume.loads, seed_dry.volume.loads - 2);
        assert_eq!(dry.load_events, seed_dry.load_events - 1);
        assert!(dry.peak_resident <= seed_dry.peak_resident);
    }

    #[test]
    fn revival_requires_budget_headroom() {
        // load x, discard, load big, discard, reload x
        let mk = || {
            let mut b = ScheduleBuilder::<f64>::new();
            let x = b.load(id(), Region::col_segment(0, 0, 4));
            b.discard(x);
            let big = b.load(id(), Region::rect(0, 1, 4, 2));
            b.discard(big);
            let x2 = b.load(id(), Region::col_segment(0, 0, 4));
            b.discard(x2);
            b.finish()
        };
        let seed = mk();
        let seed_peak = Engine::dry_run(&seed, "m").peak_resident;
        assert_eq!(seed_peak, 8);

        // default cap = seed peak: reviving x would need 8 + 4 = 12
        let (_, report) = run_pass(&seed, None);
        assert_eq!(report.loads_eliminated, 0);

        // with headroom the reload disappears
        let (opt, report) = run_pass(&seed, Some(12));
        assert_eq!(report.loads_eliminated, 4);
        let dry = Engine::dry_run(&opt, "m");
        assert_eq!(dry.volume.loads, 12);
        assert_eq!(dry.peak_resident, 12);
    }

    #[test]
    fn store_to_overlapping_region_blocks_reuse() {
        // x is loaded, then the same region is stored through another
        // buffer, then reloaded: the reload must survive.
        let mut b = ScheduleBuilder::<f64>::new();
        let x = b.load(id(), Region::rect(0, 0, 2, 1));
        b.discard(x);
        let w = b.load(id(), Region::rect(0, 0, 2, 1));
        let z = b.load(id(), Region::col_segment(3, 0, 2));
        b.compute(ComputeOp::Ger {
            alpha: 1.0,
            x: BufSlice::whole(z, 2),
            y: BufSlice::new(z, 0, 1),
            dst: w,
        });
        b.discard(z);
        b.store(w); // overwrites rect(0,0,2,1)
        let x2 = b.load(id(), Region::rect(0, 0, 2, 1));
        b.discard(x2);
        let seed = b.finish();
        let (opt, report) = run_pass(&seed, Some(100));
        assert_eq!(report.loads_eliminated, 0, "{report}");
        assert_eq!(
            Engine::dry_run(&opt, "m").volume,
            Engine::dry_run(&seed, "m").volume
        );
    }

    #[test]
    fn adjacent_contiguous_loads_coalesce() {
        // the OOC_SYRK off-diagonal pattern with adjacent tiles: two column
        // segments of the same column, contiguous rows, loaded back to back
        let mut b = ScheduleBuilder::<f64>::new();
        let c = b.load(id(), Region::rect(2, 0, 2, 2));
        let arow = b.load(id(), Region::col_segment(5, 2, 2));
        let acol = b.load(id(), Region::col_segment(5, 0, 2));
        b.compute(ComputeOp::Ger {
            alpha: 1.0,
            x: BufSlice::whole(arow, 2),
            y: BufSlice::whole(acol, 2),
            dst: c,
        });
        b.discard(arow);
        b.discard(acol);
        b.store(c);
        let seed = b.finish();

        let (opt, report) = run_pass(&seed, None);
        assert_eq!(report.load_events_merged, 1);
        let dry = Engine::dry_run(&opt, "m");
        let seed_dry = Engine::dry_run(&seed, "m");
        assert_eq!(dry.volume.loads, seed_dry.volume.loads, "volume unchanged");
        assert_eq!(dry.load_events, seed_dry.load_events - 1);
        assert_eq!(dry.peak_resident, seed_dry.peak_resident);
        // the merged load covers rows 0..4 of column 5
        let merged = opt.groups[0]
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Load { region, .. } => Some(region.clone()),
                _ => None,
            })
            .any(|r| r == Region::col_segment(5, 0, 4));
        assert!(merged, "merged region missing: {opt:?}");
    }

    #[test]
    fn chains_of_three_loads_merge_into_one_event() {
        let mut b = ScheduleBuilder::<f64>::new();
        let s1 = b.load(id(), Region::col_segment(0, 0, 2));
        let s2 = b.load(id(), Region::col_segment(0, 2, 2));
        let s3 = b.load(id(), Region::col_segment(0, 4, 2));
        let c = b.load(id(), Region::rect(0, 1, 2, 2));
        b.compute(ComputeOp::Ger {
            alpha: 2.0,
            x: BufSlice::whole(s1, 2),
            y: BufSlice::whole(s3, 2),
            dst: c,
        });
        b.compute(ComputeOp::Ger {
            alpha: 1.0,
            x: BufSlice::whole(s2, 2),
            y: BufSlice::whole(s2, 2),
            dst: c,
        });
        b.discard(s1);
        b.discard(s2);
        b.discard(s3);
        b.store(c);
        let seed = b.finish();
        let (opt, report) = run_pass(&seed, None);
        assert_eq!(report.load_events_merged, 2);
        assert_eq!(Engine::dry_run(&opt, "m").load_events, 2);
    }

    #[test]
    fn buffers_used_whole_or_dirty_are_left_alone() {
        // seg is referenced whole by a solver step: no coalescing with the
        // adjacent load, no elimination.
        let mut b = ScheduleBuilder::<f64>::new();
        let tile = b.load(id(), Region::rect(0, 0, 2, 2));
        let seg = b.load(id(), Region::rect(0, 4, 2, 1));
        b.compute(ComputeOp::TrsmRightStep {
            seg,
            dst: tile,
            col: 0,
            pivot: 0,
        });
        b.discard(seg);
        b.store(tile);
        let seed = b.finish();
        let (opt, report) = run_pass(&seed, Some(1000));
        assert!(report.is_noop(), "{report}");
        assert_eq!(opt, seed);
    }

    #[test]
    fn cross_group_buffers_are_tolerated() {
        // legacy serial schedule: buffer loaded in one group, stored in the
        // next — the pass must not touch it or crash
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let x = b.load(id(), Region::rect(0, 0, 2, 2));
        b.begin_group();
        b.store(x);
        let seed = b.finish();
        let (opt, report) = run_pass(&seed, None);
        assert!(report.is_noop());
        assert_eq!(opt, seed);
    }
}
