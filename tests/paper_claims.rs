//! Quantitative claims of the paper, checked end to end against the analytic
//! cost models (which the unit tests verify to match executed schedules
//! exactly).

use symla::prelude::*;
use symla_core::bounds;

const SQRT2: f64 = std::f64::consts::SQRT_2;

/// Abstract of the paper: both lower bounds improve the literature by √2, and
/// both new algorithms improve the best known algorithms by √2.
#[test]
fn sqrt2_improvements_of_bounds_and_algorithms() {
    let (n, m, s) = (1.0e5_f64, 4.0e4_f64, 1.0e4_f64);
    assert!(
        (bounds::syrk_lower_bound(n, m, s) / bounds::syrk_lower_bound_prior(n, m, s) - SQRT2).abs()
            < 1e-12
    );
    assert!(
        (bounds::cholesky_lower_bound(n, s) / bounds::cholesky_lower_bound_prior(n, s) - SQRT2)
            .abs()
            < 1e-12
    );
    assert!(
        (bounds::syrk_upper_bereux(n, m, s) / (bounds::tbs_upper_bound(n, m, s) - n * n / 2.0)
            - SQRT2)
            .abs()
            < 1e-9
    );
    assert!(
        (bounds::cholesky_upper_bereux(n, s) / bounds::lbc_upper_bound(n, s) - SQRT2).abs() < 1e-9
    );
    // upper bound matches lower bound at leading order: optimality
    assert_eq!(
        bounds::lbc_upper_bound(n, s),
        bounds::cholesky_lower_bound(n, s)
    );
    assert!(
        ((bounds::tbs_upper_bound(n, m, s) - n * n / 2.0) / bounds::syrk_lower_bound(n, m, s)
            - 1.0)
            .abs()
            < 1e-12
    );
}

/// Theorem 5.6: the measured (analytic) TBS constant converges to 1/√2 from
/// above as N grows, while the square-block baseline stays at 1.
#[test]
fn tbs_constant_converges_to_inverse_sqrt2() {
    let s = 5050; // k = 100
    let plan = TbsPlan::for_memory(s).unwrap();
    let m = 2000;
    for &n in &[30_000_usize, 60_000, 120_000] {
        assert!(plan.applicable(n));
        let est = symla_core::tbs_cost(n, m, &plan).unwrap();
        // subtract the N^2/2 loads of C to isolate the A traffic
        let constant = (est.loads as f64 - (n as f64) * (n as f64) / 2.0)
            / ((n as f64).powi(2) * m as f64 / (s as f64).sqrt());
        // (the constant is not exactly monotone in N because the coprime grid
        // size c and the leftover strip vary with N, but it stays pinned in a
        // narrow band just above 1/sqrt(2))
        assert!(
            constant >= 1.0 / SQRT2 - 1e-9,
            "n={n}: constant {constant} below optimal"
        );
        assert!(
            constant < 0.78,
            "n={n}: constant {constant} too far from 1/sqrt(2)"
        );
    }
    // square-block baseline constant is ~1
    let sq = OocSyrkPlan::for_memory(s).unwrap();
    let est = symla_baselines::ooc_syrk_cost(60_000, m, &sq);
    let constant = (est.loads as f64 - 60_000.0_f64.powi(2) / 2.0)
        / (60_000.0_f64.powi(2) * m as f64 / (s as f64).sqrt());
    assert!(
        (constant - 1.0).abs() < 0.05,
        "baseline constant {constant}"
    );
}

/// Theorem 5.7: the LBC constant approaches 1/(3√2) ≈ 0.2357, clearly below
/// Béreux's 1/3, once the trailing TBS engages for most iterations.
#[test]
fn lbc_constant_approaches_optimal() {
    let s = 105; // k = 14
    let n = 20_000;
    let plan = LbcPlan::paper(n, s).unwrap();
    let est = symla_core::lbc_cost(n, &plan).unwrap();
    let constant = est.loads as f64 / ((n as f64).powi(3) / (s as f64).sqrt());
    let optimal = 1.0 / (3.0 * SQRT2);
    assert!(constant >= optimal - 1e-9, "constant {constant}");
    assert!(
        constant < 0.30,
        "constant {constant} should be well below Béreux's 1/3"
    );

    let bereux = symla_baselines::ooc_chol_cost(n, &OocCholPlan::for_memory(s).unwrap());
    let bereux_constant = bereux.loads as f64 / ((n as f64).powi(3) / (s as f64).sqrt());
    assert!(
        constant < bereux_constant,
        "LBC {constant} must beat Béreux {bereux_constant}"
    );
}

/// Theorem 5.7 at the benchmark's Cholesky size (N = 768, S = 300): the
/// default LBC plan loads less than Béreux's OOC_CHOL. At the paper's
/// asymptotic b = ⌈√N⌉ it would load more (1.80 against 1.56 times the lower
/// bound), so this holds because the planner picks b by the exact cost.
#[test]
fn default_lbc_beats_bereux_at_the_benchmark_size() {
    let (n, s) = (768, 300);
    let lbc = symla_core::lbc_cost(n, &LbcPlan::for_problem(n, s).unwrap()).unwrap();
    let bereux = symla_baselines::ooc_chol_cost(n, &OocCholPlan::for_memory(s).unwrap());
    assert!(
        lbc.loads < bereux.loads,
        "LBC loads {} must beat OOC_CHOL's {}",
        lbc.loads,
        bereux.loads
    );
}

/// Kwasniewski et al.'s 1/3 constant is *not* a lower bound once symmetry is
/// exploited: LBC's measured traffic drops below it (the "surprising result"
/// of the introduction).
#[test]
fn lbc_beats_the_no_symmetry_bound() {
    let s = 105;
    let n = 20_000;
    let plan = LbcPlan::paper(n, s).unwrap();
    let est = symla_core::lbc_cost(n, &plan).unwrap();
    let no_symmetry = bounds::cholesky_lower_bound_no_symmetry(n as f64, s as f64);
    assert!(
        (est.loads as f64) < no_symmetry,
        "LBC loads {} should be below the no-symmetry bound {no_symmetry}",
        est.loads
    );
    // ... while of course staying above the correct bound.
    assert!(est.loads as f64 >= bounds::cholesky_lower_bound(n as f64, s as f64));
}

/// Section 5.1.4: the tiled variant costs a factor √(k/(k−1)) more than the
/// element-level schedule but engages at much smaller N.
#[test]
fn tiled_tradeoff() {
    let s = 4656; // k = 96 for the element version
    let element = TbsPlan::for_memory(s).unwrap();
    let tiled = TbsPlan::for_problem(s, 4000).unwrap();
    // tiled engages at n = 4000, element-level does not
    assert!(tiled.applicable(4000));
    assert!(!element.applicable(4000));
    // element-level needs N >= ~2S
    assert!(element.min_applicable_n() >= 2 * s - 2 * element.k);
}

/// The operational-intensity table: the symmetric kernels' maximal intensity
/// exceeds GEMM / LU by exactly √2.
#[test]
fn operational_intensity_table() {
    let table = symla_core::oi::oi_table(100_000, 16_384);
    assert_eq!(table.len(), 4);
    let adv = symla_core::oi::symmetric_advantage(&table);
    assert!((adv - SQRT2).abs() < 1e-9, "advantage {adv}");
}

/// Theorem 4.1 via the exact integer search: no balanced subcomputation under
/// a data budget X exceeds √2/(3√3)·X^{3/2}, and the best ones approach it.
#[test]
fn max_subcomputation_bound_is_tight() {
    use symla::sched::opt::{best_integer_balanced, max_subcomputation_bound};
    let mut best_ratio: f64 = 0.0;
    for &x in &[300_usize, 3_000, 30_000, 300_000] {
        let cand = best_integer_balanced(x, None, None);
        let bound = max_subcomputation_bound(x as f64);
        let ratio = cand.operations as f64 / bound;
        assert!(ratio <= 1.0 + 1e-12, "x={x}");
        best_ratio = best_ratio.max(ratio);
    }
    assert!(
        best_ratio > 0.97,
        "best ratio {best_ratio} should approach 1"
    );
}

/// The explicit-control model beats an LRU cache fed with the naive loop
/// order, and blocked access orders beat naive ones even under LRU
/// (the E11 ablation, small instance).
#[test]
fn cache_ablation_small_instance() {
    use symla::memory::cache::{
        simulate_lru, simulate_opt, syrk_blocked_access_stream, syrk_naive_access_stream,
    };
    let (n, m, s) = (48_usize, 24_usize, 64_usize);
    let naive = simulate_lru(syrk_naive_access_stream(n, m), s);
    let blocked_stream = syrk_blocked_access_stream(n, m, 6);
    let blocked = simulate_lru(blocked_stream.clone(), s);
    let opt = simulate_opt(&blocked_stream, s);
    assert!(blocked.misses < naive.misses);
    assert!(opt.misses <= blocked.misses);

    // The explicit TBS schedule (counted loads) moves less data than even the
    // LRU-cached blocked stream.
    let plan = TbsPlan::for_memory(s).unwrap();
    let est = symla_core::tbs_cost(n, m, &plan).unwrap();
    assert!(
        (est.loads as u64) < blocked.misses,
        "explicit schedule {} vs LRU blocked {}",
        est.loads,
        blocked.misses
    );
}
