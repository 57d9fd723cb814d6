//! Parameter planners: how the algorithms of the paper choose their block
//! sizes from the fast-memory capacity `S` and the problem size.

use symla_baselines::error::{OocError, Result};
use symla_baselines::params::square_tile_for_capacity;
use symla_sched::indexing::largest_coprime_below;

/// Parameters of the TBS schedule (Algorithm 4) and of its tiled variant
/// (Section 5.1.4): element TBS is tiled TBS with `b = 1`.
///
/// `S ≥ b²·k(k−1)/2 + k·b`: fast memory holds a triangle block of
/// `k(k−1)/2` tiles of `b×b` result elements plus the `k·b` elements of one
/// column of `A` restricted to the block's rows. At `b = 1` that is
/// `S ≥ k(k+1)/2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbsPlan {
    /// Triangle-block side length, in tiles.
    pub k: usize,
    /// Tile side length (`1` for element TBS).
    pub b: usize,
    /// Fast-memory capacity the plan was derived from (sizes the
    /// square-block fallback and leftover strip).
    pub capacity: usize,
}

impl TbsPlan {
    /// Element TBS: the largest `k` with `k(k+1)/2 ≤ s`, and `b = 1`.
    pub fn for_memory(s: usize) -> Result<Self> {
        if s < 3 {
            return Err(OocError::Invalid(format!(
                "memory of {s} elements is too small for TBS (need at least 3)"
            )));
        }
        let mut k = ((2.0 * s as f64).sqrt().floor()) as usize;
        while k * (k + 1) / 2 > s {
            k -= 1;
        }
        while (k + 1) * (k + 2) / 2 <= s {
            k += 1;
        }
        Ok(Self {
            k,
            b: 1,
            capacity: s,
        })
    }

    /// Element TBS with an explicit `k`: [`with_params`](Self::with_params)
    /// `(k, 1)`.
    pub fn with_k(k: usize) -> Result<Self> {
        Self::with_params(k, 1)
    }

    /// Uses explicit `(k, b)`; the capacity is set to the exact working set.
    pub fn with_params(k: usize, b: usize) -> Result<Self> {
        let plan = Self { k, b, capacity: 0 };
        plan.validate()?;
        Ok(Self {
            capacity: plan.working_set(),
            ..plan
        })
    }

    /// Rejects plans whose triangle blocks cannot shrink a zone: `k < 2`
    /// recurses into a zone of the same order, `b = 0` has no rows.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.k < 2 || self.b == 0 {
            return Err(OocError::Invalid(format!(
                "TBS needs k >= 2 and b >= 1, got k = {} and b = {}",
                self.k, self.b
            )));
        }
        Ok(())
    }

    /// Largest tile size `b` for a given `k` and capacity `s`
    /// (`b²·k(k−1)/2 + k·b ≤ s`), if any.
    pub fn max_tile_for(k: usize, s: usize) -> Option<usize> {
        if k < 2 {
            return None;
        }
        let half = k * (k - 1) / 2;
        // solve half*b^2 + k*b <= s
        let disc = (k * k + 4 * half * s) as f64;
        let mut b = ((disc.sqrt() - k as f64) / (2.0 * half as f64)).floor() as usize;
        while b > 0 && half * b * b + k * b > s {
            b -= 1;
        }
        while half * (b + 1) * (b + 1) + k * (b + 1) <= s {
            b += 1;
        }
        if b == 0 {
            None
        } else {
            Some(b)
        }
    }

    /// Picks `(k, b)` for a memory of `s` elements and a matrix of order `n`:
    /// among all feasible `(k, b)` pairs whose triangle-block phase engages
    /// for this `n` (grid size `c ≥ k − 1`), the one maximizing `(k−1)·b`
    /// — the quantity whose inverse multiplies the leading I/O term.
    /// Falls back to the best feasible pair even if none engages.
    pub fn for_problem(s: usize, n: usize) -> Result<Self> {
        if s < 5 {
            return Err(OocError::Invalid(format!(
                "memory of {s} elements is too small for tiled TBS"
            )));
        }
        let mut best: Option<(usize, usize, bool)> = None; // (k, b, applicable)
        let mut k = 2;
        while let Some(b) = Self::max_tile_for(k, s) {
            let candidate = Self { k, b, capacity: s };
            let applicable = candidate.applicable(n);
            let score = (k - 1) * b;
            let better = match best {
                None => true,
                Some((bk, bb, bap)) => {
                    let best_score = (bk - 1) * bb;
                    (applicable && !bap) || (applicable == bap && score > best_score)
                }
            };
            if better {
                best = Some((k, b, applicable));
            }
            k += 1;
        }
        let (k, b, _) = best.ok_or_else(|| {
            OocError::Invalid(format!("no feasible tiled TBS parameters for S = {s}"))
        })?;
        Ok(Self { k, b, capacity: s })
    }

    /// Fast-memory working set of the triangle-block phase:
    /// `b²·k(k−1)/2 + k·b` (`k(k+1)/2` at `b = 1`).
    pub fn working_set(&self) -> usize {
        self.b * self.b * self.k * (self.k - 1) / 2 + self.k * self.b
    }

    /// The tile-grid size `c` for a matrix of order `n`: the largest integer
    /// `≤ n/(k·b)` coprime with every integer in `[2, k−2]`, or `None` if
    /// `n < k·b`.
    pub fn grid_size(&self, n: usize) -> Option<usize> {
        let kb = self.k * self.b;
        if kb == 0 || n < kb {
            return None;
        }
        largest_coprime_below(n / kb, self.k)
    }

    /// Whether the triangle-block phase is applicable for a matrix of order
    /// `n` (Algorithm 4's test `c ≥ k − 1`).
    pub fn applicable(&self, n: usize) -> bool {
        self.grid_size(n).map(|c| c + 1 >= self.k).unwrap_or(false)
    }

    /// Smallest matrix order for which the triangle-block phase engages:
    /// `k·b·c₀` where `c₀` is the smallest integer `≥ k − 1` coprime with
    /// `[2, k − 2]`. At `b = 1` this is `≈ k(k−1) ≈ 2S`, the paper's
    /// observation that element TBS only engages once the matrix is much
    /// larger than the fast memory; tiles lower it to `≈ √(2S)·√(k(k−1))`.
    pub fn min_applicable_n(&self) -> usize {
        let mut c0 = self.k.saturating_sub(1).max(1);
        while !symla_sched::indexing::is_coprime_with_range(c0, self.k.saturating_sub(2)) {
            c0 += 1;
        }
        self.k * self.b * c0
    }
}

/// Strategy used by LBC for its trailing update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrailingUpdate {
    /// TBS with [`TbsPlan::for_memory`] (element TBS, `b = 1`); falls back
    /// internally to square blocks when its applicability condition fails.
    Tbs,
    /// TBS with [`TbsPlan::for_problem`] for each trailing order (tiled
    /// TBS, Section 5.1.4). The same builder as [`TrailingUpdate::Tbs`]:
    /// only the choice of `(k, b)` differs.
    TbsTiled,
    /// Square-block OOC_SYRK (this reproduces a conventional right-looking
    /// out-of-core Cholesky, the ablation point of experiment E3/E7).
    OocSyrk,
}

/// Parameters of the Large Block Cholesky algorithm (Algorithm 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbcPlan {
    /// Panel width `b` (the paper chooses `b = √N`).
    pub block: usize,
    /// Fast-memory capacity.
    pub capacity: usize,
    /// Trailing-update strategy.
    pub trailing: TrailingUpdate,
}

impl LbcPlan {
    /// The paper's choice: `b = ⌈√N⌉`, element-level TBS trailing updates.
    pub fn for_problem(n: usize, s: usize) -> Result<Self> {
        // validate that the one-tile baselines can run at all
        square_tile_for_capacity(s)?;
        let block = (n as f64).sqrt().ceil().max(1.0) as usize;
        Ok(Self {
            block,
            capacity: s,
            trailing: TrailingUpdate::Tbs,
        })
    }

    /// Overrides the block size.
    pub fn with_block(mut self, block: usize) -> Result<Self> {
        if block == 0 {
            return Err(OocError::Invalid("LBC block size must be positive".into()));
        }
        self.block = block;
        Ok(self)
    }

    /// Overrides the trailing-update strategy.
    pub fn with_trailing(mut self, trailing: TrailingUpdate) -> Self {
        self.trailing = trailing;
        self
    }

    /// Number of panel iterations for a matrix of order `n`.
    pub fn iterations(&self, n: usize) -> usize {
        n.div_ceil(self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tbs_plan_k_is_maximal() {
        for s in 3..3000 {
            let p = TbsPlan::for_memory(s).unwrap();
            assert!(p.working_set() <= s, "s = {s}");
            assert!((p.k + 1) * (p.k + 2) / 2 > s, "s = {s}: k not maximal");
        }
        assert!(TbsPlan::for_memory(2).is_err());
        assert_eq!(TbsPlan::for_memory(3).unwrap().k, 2);
        assert_eq!(TbsPlan::for_memory(105).unwrap().k, 14);
        assert!(TbsPlan::with_k(1).is_err());
        assert_eq!(TbsPlan::with_k(5).unwrap().working_set(), 15);
        assert_eq!(
            TbsPlan::with_k(5).unwrap(),
            TbsPlan::with_params(5, 1).unwrap()
        );
        assert_eq!(TbsPlan::for_memory(105).unwrap().b, 1);
    }

    #[test]
    fn tbs_grid_size_and_applicability() {
        let p = TbsPlan::with_k(5).unwrap();
        // n = 40 -> n/k = 8, largest coprime with [2,3] below 8 is 7
        assert_eq!(p.grid_size(40), Some(7));
        assert!(p.applicable(40));
        // n = 10 -> n/k = 2 < k-1 = 4
        assert_eq!(p.grid_size(10), Some(1));
        assert!(!p.applicable(10));
        assert_eq!(p.grid_size(3), None);
        assert!(!p.applicable(0));
        // smallest coprime-with-[2,3] value >= 4 is 5, so TBS engages at 25
        assert_eq!(p.min_applicable_n(), 25);
        assert!(p.applicable(p.min_applicable_n()));
        assert!(!p.applicable(p.min_applicable_n() - p.k));

        // Tiles scale the threshold by b: k = 3, b = 4 engages at 3·4·2 = 24.
        let tiled = TbsPlan::with_params(3, 4).unwrap();
        assert_eq!(tiled.min_applicable_n(), 24);
        assert!(tiled.applicable(24));
        assert!(!tiled.applicable(23));
    }

    #[test]
    fn tiled_plan_tile_is_maximal() {
        for &(k, s) in &[(2_usize, 100_usize), (3, 500), (4, 1000), (6, 10_000)] {
            let b = TbsPlan::max_tile_for(k, s).unwrap();
            let ws = b * b * k * (k - 1) / 2 + k * b;
            assert!(ws <= s, "k={k} s={s}");
            let ws_next = (b + 1) * (b + 1) * k * (k - 1) / 2 + k * (b + 1);
            assert!(ws_next > s, "k={k} s={s}: b={b} not maximal");
        }
        assert!(TbsPlan::max_tile_for(1, 100).is_none());
        assert!(TbsPlan::max_tile_for(30, 10).is_none());
    }

    #[test]
    fn tiled_plan_for_problem_prefers_applicable() {
        // With S = 1000 and a small matrix, large k is not applicable; the
        // planner should pick parameters that actually engage.
        let plan = TbsPlan::for_problem(1000, 256).unwrap();
        assert!(plan.applicable(256), "plan {plan:?} should engage at n=256");
        assert!(plan.working_set() <= 1000);

        // For a big matrix it should pick a larger (k-1)*b product than k=2.
        let plan_big = TbsPlan::for_problem(1000, 100_000).unwrap();
        let k2 = TbsPlan::max_tile_for(2, 1000).unwrap();
        assert!(
            (plan_big.k - 1) * plan_big.b >= k2,
            "planner must not be worse than k=2"
        );
        assert!(TbsPlan::for_problem(4, 100).is_err());
        assert!(TbsPlan::with_params(1, 4).is_err());
        assert!(TbsPlan::with_params(3, 0).is_err());
    }

    #[test]
    fn lbc_plan_defaults() {
        let p = LbcPlan::for_problem(1024, 500).unwrap();
        assert_eq!(p.block, 32);
        assert_eq!(p.trailing, TrailingUpdate::Tbs);
        assert_eq!(p.iterations(1024), 32);
        assert_eq!(p.iterations(1000), 32);
        let p2 = p
            .with_block(100)
            .unwrap()
            .with_trailing(TrailingUpdate::OocSyrk);
        assert_eq!(p2.block, 100);
        assert_eq!(p2.trailing, TrailingUpdate::OocSyrk);
        assert!(p.with_block(0).is_err());
        assert!(LbcPlan::for_problem(100, 1).is_err());
    }
}
