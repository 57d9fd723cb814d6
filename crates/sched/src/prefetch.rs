//! Double-buffered prefetch planning over the schedule IR.
//!
//! The paper's machine model makes out-of-core kernels transfer-bound: the
//! wall clock of a schedule is dominated by its load stream, not its flops.
//! A real machine hides that latency by *overlapping* communication with
//! computation. Because the IR of [`crate::ir`] makes the load stream
//! explicit, an engine variant can issue the [`Step::Load`]s of task group
//! `g+1` while group `g` computes — classic double buffering — and the
//! residency price of the lookahead can be measured exactly against the
//! fast-memory capacity `S`.
//!
//! [`PrefetchPlan::plan`] decides, ahead of any replay, which loads are
//! hoisted and to which group boundary. The plan is deterministic, so the
//! prefetching execute and dry-run modes of
//! [`Engine`](crate::engine::Engine) agree step for step (the same
//! equivalence contract the non-prefetching modes already satisfy).
//!
//! ## Admission rules
//!
//! A load of group `h` may be issued at the boundary of an earlier group
//! `g >= h - lookahead` only when all of the following hold:
//!
//! 1. **Capacity** — at every point between the issue boundary and the
//!    load's original program point, the baseline residency plus all
//!    admitted prefetch buffers plus this load still fits in `S`: prefetch
//!    only consumes the *slack* `S − footprint`, so the peak residency of a
//!    prefetched replay never exceeds the capacity the schedule was built
//!    for.
//! 2. **Freshness** — no store between the issue boundary and the load's
//!    original position writes a region of the same matrix that overlaps
//!    the loaded region (checked at element granularity via
//!    [`Region::cells`]); prefetching such a load would read stale data.
//!    Stores *earlier in the target group itself* count: a group that
//!    writes a region before re-reading it keeps that load un-hoisted.
//! 3. **Self-containment** — the target group creates and releases all its
//!    own buffers. Groups that share buffers across boundaries (legal in
//!    the serial replay) are skipped entirely: their residency is already
//!    entangled with their neighbours, and they are exactly the groups the
//!    parallel engine rejects too.
//!
//! [`Step::Alloc`] steps are never prefetched: they move no data, so
//! hoisting them buys no overlap and only wastes slack.
//!
//! ## Placement: just-in-time
//!
//! An admitted load is issued at the **latest** feasible boundary. Both
//! admission checks test a window from the issue boundary to the load's
//! original position, so they only grow stricter as the boundary moves
//! earlier — the latest boundary is always the most admissible one, and it
//! pairs the transfer with the compute of the group directly preceding the
//! load's own, which is what maximizes the overlap under the wall-clock
//! model of [`crate::timing`]. A consequence worth naming: the modelled
//! wall-clock is monotone non-increasing in the lookahead, because deepening
//! the window never moves an already-feasible issue and (by the nesting of
//! the admission windows) never admits a load the shallower window could
//! not.

use crate::ir::{BufId, Schedule, Step, TaskGroup};
use crate::passes::analysis::{residency_profile, CellSet};
use std::collections::{BTreeMap, BTreeSet};
use symla_matrix::Scalar;
use symla_memory::{MatrixId, Region};

/// One planned prefetch: the `Load` step at `schedule.groups[group].steps[step]`
/// is issued ahead of its group, at the boundary recorded by the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchIssue {
    /// Index of the task group the load belongs to.
    pub group: usize,
    /// Index of the `Load` step within that group.
    pub step: usize,
}

/// A complete prefetch plan for one schedule: for every group boundary `g`,
/// the future loads issued there (in schedule order), plus the aggregate
/// volume the plan overlaps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefetchPlan {
    /// `issues[g]` = loads issued at the boundary of group `g` (i.e. while
    /// group `g` computes), in schedule order.
    pub(crate) issues: Vec<Vec<PrefetchIssue>>,
    /// `(group, step)` coordinates of prefetched loads (their original
    /// `Load` steps replay as handoffs). Keyed by position, not by
    /// [`BufId`]: buffer ids are only unique within one builder, and
    /// schedules concatenated from several builders legally reuse them
    /// across groups.
    prefetched_steps: BTreeSet<(usize, usize)>,
    /// Total elements the plan loads ahead of their group.
    pub planned_elements: u64,
    /// Total load transfers the plan issues ahead of their group.
    pub planned_events: u64,
}

impl PrefetchPlan {
    /// Plans the prefetches of `schedule` for a lookahead window of
    /// `lookahead` groups under a fast memory of `capacity` elements
    /// (`None` = unlimited). A `lookahead` of 0 yields the empty plan.
    pub fn plan<T: Scalar>(
        schedule: &Schedule<T>,
        lookahead: usize,
        capacity: Option<usize>,
    ) -> Self {
        let groups = schedule.num_groups();
        let mut plan = PrefetchPlan {
            issues: vec![Vec::new(); groups],
            ..Self::default()
        };
        if lookahead == 0 || groups < 2 {
            return plan;
        }

        // One pass over the flattened schedule collects everything the
        // admission checks need: `after[i]` is the residency after the
        // first `i` steps (so `after[group_start[g]]` is the residency at
        // the boundary where group `g`'s prefetches issue), and `stores`
        // records every write-back with the (matrix, region) binding its
        // buffer id had *at that point* — bindings are resolved in program
        // order because concatenated schedules legally rebind ids later.
        let mut group_start = Vec::with_capacity(groups);
        let mut after = vec![0i64];
        let mut stores: Vec<StoreRecord> = Vec::new();
        let mut sizes: BTreeMap<BufId, usize> = BTreeMap::new();
        let mut buf_meta: BTreeMap<BufId, (MatrixId, Region)> = BTreeMap::new();
        for group in &schedule.groups {
            group_start.push(after.len() - 1);
            for step in &group.steps {
                let pos = after.len() - 1;
                let mut resident = *after.last().expect("after is non-empty");
                match step {
                    Step::Load {
                        matrix,
                        region,
                        dst,
                        ..
                    }
                    | Step::Alloc {
                        matrix,
                        region,
                        dst,
                    } => {
                        resident += region.len() as i64;
                        sizes.insert(*dst, region.len());
                        buf_meta.insert(*dst, (*matrix, region.clone()));
                    }
                    Step::Store { buf, .. } => {
                        resident -= sizes.get(buf).copied().unwrap_or(0) as i64;
                        if let Some((matrix, region)) = buf_meta.get(buf) {
                            stores.push(StoreRecord {
                                pos,
                                matrix: *matrix,
                                region: region.clone(),
                            });
                        }
                    }
                    Step::Discard { buf } => {
                        resident -= sizes.get(buf).copied().unwrap_or(0) as i64;
                    }
                    Step::Flops(_) | Step::Compute(_) => {}
                }
                after.push(resident);
            }
        }
        let self_contained: Vec<bool> = schedule.groups.iter().map(is_self_contained).collect();

        // Extra residency already committed by admitted prefetches, indexed
        // like `after`.
        let mut extra = vec![0i64; after.len()];

        for h in 1..groups {
            if !self_contained[h] {
                continue;
            }
            let mut pos = group_start[h];
            for (step_idx, step) in schedule.groups[h].steps.iter().enumerate() {
                pos += 1; // `after[pos]` is now the residency after this step
                let Step::Load { matrix, region, .. } = step else {
                    continue;
                };
                let size = region.len() as i64;
                if size == 0 {
                    continue;
                }
                // The candidate's element set, materialized once per load
                // (boundaries only shrink the window it is tested against).
                let mut candidate: Option<CellSet> = None;
                let earliest = h.saturating_sub(lookahead);
                // Latest boundary first: the admission windows nest, so the
                // first feasible boundary found this way is also the one
                // that overlaps best (see the module docs).
                for g in (earliest..h).rev() {
                    let boundary = group_start[g];
                    // Capacity: the buffer is resident from the boundary of
                    // `g` until its original load point (where the baseline
                    // already accounts for it).
                    let window = boundary..pos;
                    let fits = capacity.is_none_or(|cap| {
                        window
                            .clone()
                            .all(|i| after[i] + extra[i] + size <= cap as i64)
                    });
                    if !fits {
                        continue;
                    }
                    let candidate = candidate.get_or_insert_with(|| {
                        let mut set = CellSet::default();
                        set.insert_region(*matrix, region);
                        set
                    });
                    if !fresh_over(&stores, candidate, boundary, pos) {
                        continue;
                    }
                    for i in window {
                        extra[i] += size;
                    }
                    plan.issues[g].push(PrefetchIssue {
                        group: h,
                        step: step_idx,
                    });
                    plan.prefetched_steps.insert((h, step_idx));
                    plan.planned_elements += size as u64;
                    plan.planned_events += 1;
                    break;
                }
            }
        }
        plan
    }

    /// The loads issued at the boundary of group `g` (empty past the end).
    pub fn issues_at(&self, g: usize) -> &[PrefetchIssue] {
        self.issues.get(g).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the `Load` at `schedule.groups[group].steps[step]` is issued
    /// ahead of its group (its original position replays as a handoff).
    pub fn is_prefetched(&self, group: usize, step: usize) -> bool {
        self.prefetched_steps.contains(&(group, step))
    }

    /// Number of distinct `(group, step)` loads the plan issues; less than
    /// the total length of the issue lists exactly when an issue repeats.
    pub(crate) fn distinct_issues(&self) -> usize {
        self.prefetched_steps.len()
    }

    /// Whether the plan prefetches nothing.
    pub fn is_empty(&self) -> bool {
        self.planned_events == 0
    }

    /// Number of group boundaries the plan covers (the group count of the
    /// schedule it was planned for; 0 for the empty default plan).
    pub fn num_boundaries(&self) -> usize {
        self.issues.len()
    }

    /// Reassembles a plan from its serialized parts, rebuilding the
    /// prefetched-step index from the issue lists (used by the binary
    /// decoder in [`crate::binary`]).
    pub(crate) fn from_parts(
        issues: Vec<Vec<PrefetchIssue>>,
        planned_elements: u64,
        planned_events: u64,
    ) -> Self {
        let prefetched_steps = issues
            .iter()
            .flatten()
            .map(|issue| (issue.group, issue.step))
            .collect();
        Self {
            issues,
            prefetched_steps,
            planned_elements,
            planned_events,
        }
    }
}

/// One write-back observed while flattening the schedule: its flat step
/// position and the (matrix, region) binding its buffer id had *there*.
struct StoreRecord {
    pos: usize,
    matrix: MatrixId,
    region: Region,
}

/// Whether prefetching the `candidate` element set across the flat step
/// positions `[from, to)` reads fresh data: no store in that window writes
/// an overlapping region of the same matrix. `stores` is sorted by
/// position, so the window is a binary-searched slice.
fn fresh_over(stores: &[StoreRecord], candidate: &CellSet, from: usize, to: usize) -> bool {
    let start = stores.partition_point(|s| s.pos < from);
    stores[start..]
        .iter()
        .take_while(|s| s.pos < to)
        .all(|s| !candidate.overlaps_region(s.matrix, &s.region))
}

/// Whether a group creates and consumes all of its own buffers (the same
/// requirement `Engine::execute_parallel` enforces at replay time).
pub(crate) fn is_self_contained<T: Scalar>(group: &TaskGroup<T>) -> bool {
    let mut live: BTreeSet<BufId> = BTreeSet::new();
    for step in &group.steps {
        match step {
            Step::Load { dst, .. } | Step::Alloc { dst, .. } => {
                live.insert(*dst);
            }
            Step::Store { buf, .. } | Step::Discard { buf } => {
                if !live.remove(buf) {
                    return false; // consumes a buffer it did not create
                }
            }
            Step::Compute(_) | Step::Flops(_) => {}
        }
    }
    live.is_empty()
}

/// Peak residency of one self-contained group's own trajectory (`None` when
/// the group is not self-contained). Used by the parallel engine to admit
/// prefetches against the per-worker capacity.
pub(crate) fn group_peak<T: Scalar>(group: &TaskGroup<T>) -> Option<usize> {
    if !is_self_contained(group) {
        return None;
    }
    Some(
        residency_profile(&group.steps, 0)
            .into_iter()
            .max()
            .unwrap_or(0),
    )
}

/// The loads of a self-contained group that may legally be hoisted to the
/// group's start: loads not preceded (within the group) by a store writing
/// an overlapping region of the same matrix. Returned as
/// `(step index, elements)` pairs in schedule order. Used by the parallel
/// engine, whose caller already asserts cross-group independence.
pub(crate) fn hoistable_loads<T: Scalar>(group: &TaskGroup<T>) -> Vec<(usize, usize)> {
    let mut buf_meta: BTreeMap<BufId, (MatrixId, Region)> = BTreeMap::new();
    let mut stored = CellSet::default();
    let mut out = Vec::new();
    for (idx, step) in group.steps.iter().enumerate() {
        match step {
            Step::Load {
                matrix,
                region,
                dst,
                ..
            } => {
                if !region.is_empty() && !stored.overlaps_region(*matrix, region) {
                    out.push((idx, region.len()));
                }
                buf_meta.insert(*dst, (*matrix, region.clone()));
            }
            Step::Alloc {
                matrix,
                region,
                dst,
            } => {
                buf_meta.insert(*dst, (*matrix, region.clone()));
            }
            Step::Store { buf, .. } => {
                if let Some((matrix, region)) = buf_meta.get(buf) {
                    stored.insert_region(*matrix, region);
                }
            }
            Step::Discard { .. } | Step::Compute(_) | Step::Flops(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ScheduleBuilder;
    use symla_memory::{Level, MatrixId};

    /// Two groups, each loading a disjoint block: with lookahead 1 and
    /// enough slack, group 1's loads are issued at group 0's boundary.
    fn two_group_schedule() -> Schedule<f64> {
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let x = b.load(id, Region::rect(0, 0, 2, 2));
        b.store(x);
        b.begin_group();
        let y = b.load(id, Region::rect(2, 2, 2, 2));
        b.store(y);
        b.finish()
    }

    #[test]
    fn lookahead_zero_plans_nothing() {
        let plan = PrefetchPlan::plan(&two_group_schedule(), 0, Some(100));
        assert!(plan.is_empty());
        assert_eq!(plan.planned_elements, 0);
        assert!(plan.issues_at(0).is_empty());
        assert!(plan.issues_at(99).is_empty());
    }

    #[test]
    fn disjoint_groups_prefetch_under_slack() {
        let plan = PrefetchPlan::plan(&two_group_schedule(), 1, Some(8));
        assert_eq!(plan.planned_events, 1);
        assert_eq!(plan.planned_elements, 4);
        assert_eq!(plan.issues_at(0), &[PrefetchIssue { group: 1, step: 0 }]);
        assert!(plan.is_prefetched(1, 0));
        assert!(!plan.is_prefetched(0, 0));
    }

    #[test]
    fn no_slack_means_no_prefetch() {
        // Capacity 4 holds exactly one 2x2 block: the prefetch would overlap
        // with group 0's resident buffer and is rejected.
        let plan = PrefetchPlan::plan(&two_group_schedule(), 1, Some(4));
        assert!(plan.is_empty());
        // capacity 7 is one element short of the 4 + 4 the overlap needs
        assert!(PrefetchPlan::plan(&two_group_schedule(), 1, Some(7)).is_empty());
        // unlimited capacity admits everything
        assert!(!PrefetchPlan::plan(&two_group_schedule(), 1, None).is_empty());
    }

    #[test]
    fn overlapping_store_blocks_the_prefetch() {
        // Group 0 stores the very region group 1 re-loads: hoisting the load
        // above that store would read stale data.
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let x = b.load(id, Region::rect(0, 0, 2, 2));
        b.store(x);
        b.begin_group();
        let y = b.load(id, Region::rect(1, 1, 2, 2)); // overlaps cell (1,1)
        b.discard(y);
        let schedule = b.finish();
        let plan = PrefetchPlan::plan(&schedule, 1, Some(100));
        assert!(plan.is_empty());

        // A store to a *different matrix* does not block it.
        let other = MatrixId::synthetic(1);
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let x = b.load(id, Region::rect(0, 0, 2, 2));
        b.store(x);
        b.begin_group();
        let y = b.load(other, Region::rect(1, 1, 2, 2));
        b.discard(y);
        let plan = PrefetchPlan::plan(&b.finish(), 1, Some(100));
        assert_eq!(plan.planned_events, 1);
    }

    #[test]
    fn stores_inside_the_target_group_block_reloads() {
        // Group 1 stores a region and loads it back within the same group:
        // the second load must not be hoisted above the store.
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let w = b.load(id, Region::rect(4, 4, 1, 1));
        b.discard(w);
        b.begin_group();
        let x = b.load(id, Region::rect(0, 0, 2, 2));
        b.store(x);
        let y = b.load(id, Region::rect(0, 0, 2, 2));
        b.discard(y);
        let schedule = b.finish();
        let plan = PrefetchPlan::plan(&schedule, 1, Some(100));
        // the first load of group 1 is prefetched, the reload is not
        assert_eq!(plan.planned_events, 1);
        assert_eq!(plan.issues_at(0), &[PrefetchIssue { group: 1, step: 0 }]);
    }

    #[test]
    fn freshness_uses_the_binding_live_at_the_store() {
        // Concatenated schedules legally rebind buffer ids across groups.
        // Group 0 stores Rect[0,0,2,2] through b0; a later group rebinds b0
        // to a disjoint region. The freshness check must compare group 1's
        // re-load against the binding b0 had AT THE STORE, not its last
        // binding — otherwise the hoist is wrongly admitted and reads stale
        // data.
        let m = MatrixId::synthetic(0);
        let schedule: Schedule<f64> = Schedule {
            groups: vec![
                TaskGroup {
                    phase: None,
                    steps: vec![
                        Step::Load {
                            matrix: m,
                            region: Region::rect(0, 0, 2, 2),
                            dst: 0,
                            level: Level::default(),
                        },
                        Step::Store {
                            buf: 0,
                            level: Level::default(),
                        },
                    ],
                },
                TaskGroup {
                    phase: None,
                    steps: vec![
                        Step::Load {
                            matrix: m,
                            region: Region::rect(0, 0, 2, 2),
                            dst: 1,
                            level: Level::default(),
                        },
                        Step::Discard { buf: 1 },
                    ],
                },
                TaskGroup {
                    phase: None,
                    steps: vec![
                        Step::Load {
                            matrix: m,
                            region: Region::rect(10, 10, 1, 1),
                            dst: 0, // rebinds b0 to a disjoint region
                            level: Level::default(),
                        },
                        Step::Discard { buf: 0 },
                    ],
                },
            ],
        };
        let plan = PrefetchPlan::plan(&schedule, 1, None);
        assert!(
            !plan.is_prefetched(1, 0),
            "group 1 re-reads what group 0 stores; hoisting it is stale"
        );
        // group 2's disjoint load is still free to prefetch
        assert!(plan.is_prefetched(2, 0));
    }

    #[test]
    fn non_self_contained_groups_are_skipped() {
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let x = b.load(id, Region::rect(0, 0, 2, 2));
        b.begin_group();
        let y = b.load(id, Region::rect(2, 2, 2, 2));
        b.store(y);
        b.store(x); // consumes a group-0 buffer: group 1 is not self-contained
        let schedule = b.finish();
        assert!(!is_self_contained(&schedule.groups[1]));
        assert!(PrefetchPlan::plan(&schedule, 1, None).is_empty());
    }

    #[test]
    fn placement_is_just_in_time() {
        // Three tiny groups with plenty of slack: even at lookahead 2 each
        // load stays at its latest feasible boundary (directly before its
        // own group), where the issue overlaps the preceding group's
        // compute. Deepening the lookahead changes nothing — the admission
        // windows nest, so a load the one-group window cannot place has no
        // earlier home either.
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        for i in 0..3 {
            b.begin_group();
            let x = b.load(id, Region::rect(2 * i, 2 * i, 1, 1));
            b.store(x);
        }
        let schedule = b.finish();
        let one = PrefetchPlan::plan(&schedule, 1, Some(10));
        assert_eq!(one.planned_events, 2);
        assert_eq!(one.issues_at(0), &[PrefetchIssue { group: 1, step: 0 }]);
        assert_eq!(one.issues_at(1), &[PrefetchIssue { group: 2, step: 0 }]);
        let two = PrefetchPlan::plan(&schedule, 2, Some(10));
        assert_eq!(two, one, "deeper lookahead never moves a feasible issue");
    }

    #[test]
    fn group_analysis_helpers() {
        let schedule = two_group_schedule();
        assert!(is_self_contained(&schedule.groups[0]));
        assert_eq!(group_peak(&schedule.groups[0]), Some(4));
        assert_eq!(hoistable_loads(&schedule.groups[0]), vec![(0, 4)]);

        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        let x = b.load(id, Region::rect(0, 0, 2, 2));
        let y = b.load(id, Region::rect(0, 2, 2, 2));
        b.discard(x);
        b.store(y);
        let g = b.finish();
        assert_eq!(group_peak(&g.groups[0]), Some(8));
    }
}
