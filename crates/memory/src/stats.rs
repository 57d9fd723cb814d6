//! I/O accounting: the quantity every experiment in this workspace measures.
//!
//! [`IoStats`] records the number of elements moved in each direction between
//! slow and fast memory, the peak fast-memory residency, the arithmetic
//! operations performed, and a per-phase breakdown so the experiment harness
//! can attribute traffic to the sub-algorithms of LBC (OOC_CHOL / OOC_TRSM /
//! TBS), reproducing the term-by-term analysis of Section 5.2.2 of the paper.

use std::collections::BTreeMap;
use std::fmt;
use symla_matrix::kernels::FlopCount;

/// Element counts moved in each direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoVolume {
    /// Elements transferred from slow to fast memory.
    pub loads: u64,
    /// Elements transferred from fast to slow memory.
    pub stores: u64,
}

impl IoVolume {
    /// Total traffic in both directions.
    pub fn total(&self) -> u64 {
        self.loads + self.stores
    }

    /// Component-wise sum.
    pub fn merge(&self, other: &IoVolume) -> IoVolume {
        IoVolume {
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
        }
    }
}

/// Complete I/O statistics of one out-of-core execution.
///
/// **Zero-denominator convention.** Every derived-ratio accessor
/// ([`IoStats::overlap_ratio`], [`IoStats::operational_intensity_mults`],
/// [`IoStats::operational_intensity_total`],
/// [`IoStats::operational_intensity_loads`]) is *total*: when its
/// denominator is zero — a run that moved or computed nothing — it returns
/// `0.0` rather than `NaN`/`∞`. The rationale: these ratios feed directly
/// into JSON metric exports and plotted trajectories, where a single
/// non-finite value poisons downstream aggregation (JSON has no `NaN`), and
/// `0.0` is the honest reading of "no overlap achieved" / "no intensity
/// achieved" for an empty run. Code that must distinguish "no traffic" from
/// "ratio is genuinely zero" should test the underlying counters, which are
/// always exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoStats {
    /// Aggregate element traffic.
    pub volume: IoVolume,
    /// Number of load operations (region transfers), irrespective of size.
    pub load_events: u64,
    /// Number of store operations (region transfers), irrespective of size.
    pub store_events: u64,
    /// Largest number of elements simultaneously resident in fast memory.
    pub peak_resident: usize,
    /// Elements of load traffic issued *ahead* of the task group that
    /// consumes them (double-buffered prefetch): this volume is overlapped
    /// with the previous group's compute instead of stalling its own group.
    /// Always `<= volume.loads`; zero for a non-prefetching replay.
    pub prefetched_elements: u64,
    /// Number of load transfers issued as prefetches.
    pub prefetch_events: u64,
    /// Arithmetic operations recorded by the schedule.
    pub flops: FlopCount,
    /// Traffic attributed to each named phase (in the order phases were
    /// declared).
    pub per_phase: BTreeMap<String, IoVolume>,
    /// Traffic attributed to each non-default memory level (keyed by the raw
    /// tier number). Transfers at the default tier ([`crate::Level::SLOW`])
    /// are *not* recorded here, so a two-level run leaves this map empty and
    /// its `IoStats` are field-for-field identical to the pre-hierarchy ones.
    pub per_level: BTreeMap<u8, IoVolume>,
    /// Traffic attributed to each shard of a sharded slow memory. Only
    /// recorded by workers of a [`crate::SharedSlowMemory`] with more than
    /// one shard; empty for serial, unsharded and dry runs.
    pub per_shard: BTreeMap<usize, IoVolume>,
}

impl IoStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a load of `elements` elements under phase `phase`.
    pub fn record_load(&mut self, elements: usize, phase: &str) {
        self.volume.loads += elements as u64;
        self.load_events += 1;
        self.phase_mut(phase).loads += elements as u64;
    }

    /// Records a store of `elements` elements under phase `phase`.
    pub fn record_store(&mut self, elements: usize, phase: &str) {
        self.volume.stores += elements as u64;
        self.store_events += 1;
        self.phase_mut(phase).stores += elements as u64;
    }

    /// The traffic entry of `phase`, allocating its name only the first
    /// time the phase is seen.
    fn phase_mut(&mut self, phase: &str) -> &mut IoVolume {
        if !self.per_phase.contains_key(phase) {
            self.per_phase
                .insert(phase.to_string(), IoVolume::default());
        }
        self.per_phase
            .get_mut(phase)
            .expect("the entry was just ensured")
    }

    /// Attributes a load of `elements` elements to memory level `level`
    /// (the raw tier number). Call *in addition to* [`IoStats::record_load`]
    /// for transfers against a non-default tier; default-tier transfers must
    /// not be recorded here (see [`IoStats::per_level`]).
    pub fn record_level_load(&mut self, level: u8, elements: usize) {
        self.per_level.entry(level).or_default().loads += elements as u64;
    }

    /// Attributes a store of `elements` elements to memory level `level`.
    /// The counterpart of [`IoStats::record_level_load`].
    pub fn record_level_store(&mut self, level: u8, elements: usize) {
        self.per_level.entry(level).or_default().stores += elements as u64;
    }

    /// Attributes a load of `elements` elements to shard `shard` of a
    /// sharded slow memory. Only sharded workers call this (see
    /// [`IoStats::per_shard`]).
    pub fn record_shard_load(&mut self, shard: usize, elements: usize) {
        self.per_shard.entry(shard).or_default().loads += elements as u64;
    }

    /// Attributes a store of `elements` elements to shard `shard`. The
    /// counterpart of [`IoStats::record_shard_load`].
    pub fn record_shard_store(&mut self, shard: usize, elements: usize) {
        self.per_shard.entry(shard).or_default().stores += elements as u64;
    }

    /// Marks the most recent load as a prefetch: `elements` of its traffic
    /// were issued ahead of the consuming task group and overlap with the
    /// previous group's compute. The load itself must still be recorded via
    /// [`IoStats::record_load`]; this only attributes it to the overlapped
    /// (rather than stalled) side of the split.
    pub fn note_prefetch(&mut self, elements: usize) {
        self.prefetched_elements += elements as u64;
        self.prefetch_events += 1;
    }

    /// Load volume that stalled its consuming group (issued at its original
    /// program point, not overlapped): `loads − prefetched_elements`.
    pub fn stalled_loads(&self) -> u64 {
        self.volume.loads.saturating_sub(self.prefetched_elements)
    }

    /// Fraction of the load volume that was overlapped with compute by
    /// prefetching (`prefetched_elements / loads`; `0.0` when nothing was
    /// loaded).
    pub fn overlap_ratio(&self) -> f64 {
        if self.volume.loads == 0 {
            return 0.0;
        }
        self.prefetched_elements as f64 / self.volume.loads as f64
    }

    /// Records arithmetic work.
    pub fn record_flops(&mut self, flops: FlopCount) {
        self.flops = self.flops.merge(&flops);
    }

    /// Updates the peak residency watermark.
    pub fn observe_resident(&mut self, resident: usize) {
        self.peak_resident = self.peak_resident.max(resident);
    }

    /// Total element traffic (loads + stores).
    pub fn total_io(&self) -> u64 {
        self.volume.total()
    }

    /// Operational intensity counting only multiplications (the paper's
    /// convention): multiplications per element moved.
    pub fn operational_intensity_mults(&self) -> f64 {
        if self.total_io() == 0 {
            return 0.0;
        }
        self.flops.mults as f64 / self.total_io() as f64
    }

    /// Operational intensity counting every arithmetic operation.
    pub fn operational_intensity_total(&self) -> f64 {
        if self.total_io() == 0 {
            return 0.0;
        }
        self.flops.total() as f64 / self.total_io() as f64
    }

    /// Operational intensity with respect to loads only (the paper's lower
    /// bounds constrain reads of the input operands).
    pub fn operational_intensity_loads(&self) -> f64 {
        if self.volume.loads == 0 {
            return 0.0;
        }
        self.flops.mults as f64 / self.volume.loads as f64
    }

    /// Merges another run's statistics into this one (phases are merged by
    /// name, the peak is the max of the two peaks).
    pub fn merge(&mut self, other: &IoStats) {
        self.volume = self.volume.merge(&other.volume);
        self.load_events += other.load_events;
        self.store_events += other.store_events;
        self.peak_resident = self.peak_resident.max(other.peak_resident);
        self.prefetched_elements += other.prefetched_elements;
        self.prefetch_events += other.prefetch_events;
        self.flops = self.flops.merge(&other.flops);
        for (phase, vol) in &other.per_phase {
            let entry = self.per_phase.entry(phase.clone()).or_default();
            *entry = entry.merge(vol);
        }
        for (level, vol) in &other.per_level {
            let entry = self.per_level.entry(*level).or_default();
            *entry = entry.merge(vol);
        }
        for (shard, vol) in &other.per_shard {
            let entry = self.per_shard.entry(*shard).or_default();
            *entry = entry.merge(vol);
        }
    }

    /// Traffic of a single named phase (zero if the phase never ran).
    pub fn phase(&self, name: &str) -> IoVolume {
        self.per_phase.get(name).copied().unwrap_or_default()
    }

    /// Traffic against a single non-default memory level (zero for the
    /// default tier and for levels never touched).
    pub fn level(&self, level: u8) -> IoVolume {
        self.per_level.get(&level).copied().unwrap_or_default()
    }

    /// Traffic against a single shard of a sharded slow memory (zero if the
    /// run was unsharded or never touched the shard).
    pub fn shard(&self, shard: usize) -> IoVolume {
        self.per_shard.get(&shard).copied().unwrap_or_default()
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "loads: {} elements ({} events), stores: {} elements ({} events), peak resident: {}",
            self.volume.loads,
            self.load_events,
            self.volume.stores,
            self.store_events,
            self.peak_resident
        )?;
        writeln!(
            f,
            "flops: {} mults, {} adds; OI(mults/elt): {:.3}",
            self.flops.mults,
            self.flops.adds,
            self.operational_intensity_mults()
        )?;
        if self.prefetch_events > 0 {
            writeln!(
                f,
                "prefetched: {} elements ({} events), stalled loads: {}, overlap: {:.1}%",
                self.prefetched_elements,
                self.prefetch_events,
                self.stalled_loads(),
                100.0 * self.overlap_ratio()
            )?;
        }
        for (phase, vol) in &self.per_phase {
            writeln!(
                f,
                "  phase {phase}: {} loads, {} stores",
                vol.loads, vol.stores
            )?;
        }
        for (level, vol) in &self.per_level {
            writeln!(
                f,
                "  level l{level}: {} loads, {} stores",
                vol.loads, vol.stores
            )?;
        }
        for (shard, vol) in &self.per_shard {
            writeln!(
                f,
                "  shard {shard}: {} loads, {} stores",
                vol.loads, vol.stores
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = IoStats::new();
        s.record_load(100, "tbs");
        s.record_load(50, "tbs");
        s.record_store(30, "flush");
        s.observe_resident(80);
        s.observe_resident(40);
        assert_eq!(s.volume.loads, 150);
        assert_eq!(s.volume.stores, 30);
        assert_eq!(s.load_events, 2);
        assert_eq!(s.store_events, 1);
        assert_eq!(s.total_io(), 180);
        assert_eq!(s.peak_resident, 80);
        assert_eq!(s.phase("tbs").loads, 150);
        assert_eq!(s.phase("flush").stores, 30);
        assert_eq!(s.phase("missing").total(), 0);
    }

    #[test]
    fn operational_intensity() {
        let mut s = IoStats::new();
        assert_eq!(s.operational_intensity_mults(), 0.0);
        assert_eq!(s.operational_intensity_loads(), 0.0);
        s.record_load(10, "x");
        s.record_store(10, "x");
        s.record_flops(FlopCount::new(200, 100));
        assert!((s.operational_intensity_mults() - 10.0).abs() < 1e-12);
        assert!((s.operational_intensity_total() - 15.0).abs() < 1e-12);
        assert!((s.operational_intensity_loads() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_split_and_overlap_ratio() {
        let mut s = IoStats::new();
        assert_eq!(s.overlap_ratio(), 0.0);
        assert_eq!(s.stalled_loads(), 0);
        s.record_load(40, "p");
        s.note_prefetch(40);
        s.record_load(60, "p");
        assert_eq!(s.prefetched_elements, 40);
        assert_eq!(s.prefetch_events, 1);
        assert_eq!(s.stalled_loads(), 60);
        assert!((s.overlap_ratio() - 0.4).abs() < 1e-12);
        assert!(s.to_string().contains("overlap"));

        let mut other = IoStats::new();
        other.record_load(10, "p");
        other.note_prefetch(10);
        s.merge(&other);
        assert_eq!(s.prefetched_elements, 50);
        assert_eq!(s.prefetch_events, 2);
        assert_eq!(s.stalled_loads(), 60);
    }

    /// Regression pin for the documented zero-denominator convention: every
    /// ratio accessor of an empty (or partially-empty) `IoStats` is a finite
    /// `0.0` — never `NaN` or `∞` — so metric exports stay valid JSON.
    #[test]
    fn ratio_accessors_are_total_on_zero_denominators() {
        let empty = IoStats::new();
        for ratio in [
            empty.overlap_ratio(),
            empty.operational_intensity_mults(),
            empty.operational_intensity_total(),
            empty.operational_intensity_loads(),
        ] {
            assert_eq!(ratio, 0.0);
            assert!(ratio.is_finite());
        }

        // Flops but no traffic: intensities must stay finite (a naive
        // `flops / io` would be `∞` here).
        let mut compute_only = IoStats::new();
        compute_only.record_flops(FlopCount::new(1_000, 500));
        assert_eq!(compute_only.operational_intensity_mults(), 0.0);
        assert_eq!(compute_only.operational_intensity_total(), 0.0);
        assert_eq!(compute_only.operational_intensity_loads(), 0.0);

        // Stores but no loads: the load-denominated ratios are the edge.
        let mut store_only = IoStats::new();
        store_only.record_store(32, "flush");
        assert_eq!(store_only.overlap_ratio(), 0.0);
        assert_eq!(store_only.operational_intensity_loads(), 0.0);
        assert!(store_only.operational_intensity_mults().is_finite());
    }

    #[test]
    fn merge_combines_phases_and_peaks() {
        let mut a = IoStats::new();
        a.record_load(5, "p1");
        a.observe_resident(10);
        a.record_flops(FlopCount::new(1, 2));
        let mut b = IoStats::new();
        b.record_load(7, "p1");
        b.record_store(3, "p2");
        b.observe_resident(25);
        b.record_flops(FlopCount::new(10, 20));

        a.merge(&b);
        assert_eq!(a.volume.loads, 12);
        assert_eq!(a.volume.stores, 3);
        assert_eq!(a.peak_resident, 25);
        assert_eq!(a.phase("p1").loads, 12);
        assert_eq!(a.phase("p2").stores, 3);
        assert_eq!(a.flops.mults, 11);
        assert_eq!(a.flops.adds, 22);
    }

    #[test]
    fn level_and_shard_breakdowns_record_and_merge() {
        let mut s = IoStats::new();
        // A two-level run records nothing here.
        s.record_load(10, "p");
        assert!(s.per_level.is_empty());
        assert!(s.per_shard.is_empty());
        assert_eq!(s.level(2).total(), 0);
        assert_eq!(s.shard(0).total(), 0);

        s.record_level_load(2, 10);
        s.record_level_store(2, 4);
        s.record_level_load(3, 7);
        s.record_shard_load(1, 5);
        s.record_shard_store(0, 6);
        assert_eq!(s.level(2).loads, 10);
        assert_eq!(s.level(2).stores, 4);
        assert_eq!(s.level(3).loads, 7);
        assert_eq!(s.shard(1).loads, 5);
        assert_eq!(s.shard(0).stores, 6);

        let mut other = IoStats::new();
        other.record_level_load(2, 1);
        other.record_shard_load(1, 2);
        s.merge(&other);
        assert_eq!(s.level(2).loads, 11);
        assert_eq!(s.shard(1).loads, 7);

        let text = s.to_string();
        assert!(text.contains("level l2"));
        assert!(text.contains("shard 1"));
    }

    #[test]
    fn volume_helpers_and_display() {
        let v = IoVolume {
            loads: 3,
            stores: 4,
        };
        assert_eq!(v.total(), 7);
        assert_eq!(v.merge(&v).loads, 6);

        let mut s = IoStats::new();
        s.record_load(1, "alpha");
        let text = s.to_string();
        assert!(text.contains("alpha"));
        assert!(text.contains("loads: 1"));
    }
}
