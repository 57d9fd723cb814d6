//! Bitwise-equivalence sweep: the cache-blocked micro-kernels of
//! `kernels::micro` must produce bit-for-bit the same output as the naive
//! view kernels of `kernels::views`, across shapes, tile sizes (including
//! ragged edges where the tile does not divide the extent), zero-valued
//! operand entries (exercising the skip paths), and non-finite inputs.
//!
//! This is the safety net that lets the engine dispatch the blocked kernels
//! unconditionally: every out-of-core result stays bitwise identical to the
//! seed implementations. On an x86-64 CPU with fma and avx2 the public `Ger`
//! kernel runs its FMA/AVX2 clone, so this sweep checks the clone; the
//! crate's unit tests compare the clone with the portable body.

use symla_matrix::generate::{random_matrix_seeded, seeded_rng};
use symla_matrix::kernels::micro::{
    gemm_nt_view_blocked, ger_view_auto, ger_view_blocked, spr_lower_view_auto,
    spr_lower_view_blocked, DEFAULT_ROW_TILE,
};
use symla_matrix::kernels::views::{gemm_nt_view, ger_view, spr_lower_view};
use symla_matrix::packed::packed_len;
use symla_matrix::views::{MatView, MatViewMut, PackedLowerViewMut};
use symla_matrix::Matrix;

/// Deterministic vector with structure: sign changes, zeros (to hit the
/// zero-multiplier skip), and optionally a NaN and an infinity.
fn test_vector(n: usize, seed: u64, poison: bool) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
    for (i, x) in v.iter_mut().enumerate() {
        if i % 5 == 3 {
            *x = 0.0;
        }
    }
    if poison && n > 2 {
        v[1] = f64::NAN;
        v[n - 1] = f64::INFINITY;
    }
    v
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

#[test]
fn ger_blocked_equals_naive_across_shapes_and_tiles() {
    for &(m, n) in &[(1, 1), (3, 8), (17, 5), (64, 3), (65, 7), (128, 2)] {
        for poison in [false, true] {
            let x = test_vector(m, 1000 + m as u64, poison);
            let y = test_vector(n, 2000 + n as u64, false);
            let c0: Vec<f64> = random_matrix_seeded(m, n, 3000).as_slice().to_vec();

            let mut naive = c0.clone();
            let mut cv = MatViewMut::new(&mut naive, m, n).unwrap();
            ger_view(1.25, &x, &y, &mut cv).unwrap();

            for tile in [1, 2, 3, 7, 16, 64, 1000, DEFAULT_ROW_TILE] {
                let mut fast = c0.clone();
                let mut cv = MatViewMut::new(&mut fast, m, n).unwrap();
                ger_view_blocked(1.25, &x, &y, &mut cv, tile).unwrap();
                assert_bits_eq(&naive, &fast, &format!("ger {m}x{n} tile {tile}"));
            }
            let mut auto = c0.clone();
            let mut cv = MatViewMut::new(&mut auto, m, n).unwrap();
            ger_view_auto(1.25, &x, &y, &mut cv).unwrap();
            assert_bits_eq(&naive, &auto, &format!("ger auto {m}x{n}"));
        }
    }
}

#[test]
fn spr_blocked_equals_naive_across_orders_and_tiles() {
    for &n in &[1, 2, 5, 16, 33, 64, 100] {
        for poison in [false, true] {
            let x = test_vector(n, 4000 + n as u64, poison);
            let mut rng = seeded_rng(5000 + n as u64);
            let c0: Vec<f64> = (0..packed_len(n))
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();

            let mut naive = c0.clone();
            let mut v = PackedLowerViewMut::new(&mut naive, n).unwrap();
            spr_lower_view(-0.75, &x, &mut v).unwrap();

            for tile in [1, 2, 3, 7, 16, 64, 1000] {
                let mut fast = c0.clone();
                let mut v = PackedLowerViewMut::new(&mut fast, n).unwrap();
                spr_lower_view_blocked(-0.75, &x, &mut v, tile).unwrap();
                assert_bits_eq(&naive, &fast, &format!("spr n={n} tile {tile}"));
            }
            let mut auto = c0.clone();
            let mut v = PackedLowerViewMut::new(&mut auto, n).unwrap();
            spr_lower_view_auto(-0.75, &x, &mut v).unwrap();
            assert_bits_eq(&naive, &auto, &format!("spr auto n={n}"));
        }
    }
}

#[test]
fn gemm_nt_blocked_equals_naive_across_shapes_and_tiles() {
    for &(m, k, n) in &[(1, 1, 1), (4, 3, 5), (17, 6, 9), (33, 4, 12), (64, 2, 7)] {
        for poison in [false, true] {
            let mut a: Matrix<f64> = random_matrix_seeded(m, k, 6000 + m as u64);
            if poison && m > 1 && k > 1 {
                a[(0, 0)] = f64::NAN;
                a[(m - 1, k - 1)] = f64::NEG_INFINITY;
            }
            // Zeros in B exercise the zero-multiplier skip (which the blocked
            // kernel must replicate, not just approximate).
            let mut b: Matrix<f64> = random_matrix_seeded(n, k, 7000 + n as u64);
            for j in 0..n {
                if j % 3 == 1 {
                    b[(j, 0)] = 0.0;
                }
            }
            let c0: Vec<f64> = random_matrix_seeded(m, n, 8000).as_slice().to_vec();

            let mut naive = c0.clone();
            {
                let av = MatView::new(a.as_slice(), m, k).unwrap();
                let bv = MatView::new(b.as_slice(), n, k).unwrap();
                let mut cv = MatViewMut::new(&mut naive, m, n).unwrap();
                gemm_nt_view(1.5, &av, &bv, &mut cv).unwrap();
            }

            for tile in [1, 2, 5, 16, 33, 1000] {
                let mut fast = c0.clone();
                let av = MatView::new(a.as_slice(), m, k).unwrap();
                let bv = MatView::new(b.as_slice(), n, k).unwrap();
                let mut cv = MatViewMut::new(&mut fast, m, n).unwrap();
                gemm_nt_view_blocked(1.5, &av, &bv, &mut cv, tile).unwrap();
                assert_bits_eq(&naive, &fast, &format!("gemm_nt {m}x{k}x{n} tile {tile}"));
            }
        }
    }
}

/// The blocked kernels must preserve the reference's zero-multiplier skip:
/// with `alpha = 0` and finite operands nothing is touched. (With NaN in the
/// operands the multiplier `0 · NaN = NaN` defeats the skip — in the blocked
/// and reference kernels alike, which the sweeps above verify bitwise.)
#[test]
fn zero_alpha_skips_preserve_existing_values() {
    let n = 9;
    let x = test_vector(n, 1, false);
    let c0: Vec<f64> = random_matrix_seeded(n, n, 2).as_slice().to_vec();
    let mut out = c0.clone();
    let mut cv = MatViewMut::new(&mut out, n, n).unwrap();
    ger_view_blocked(0.0, &x, &x, &mut cv, 4).unwrap();
    assert_bits_eq(&c0, &out, "ger alpha=0");

    let mut packed: Vec<f64> = (0..packed_len(n)).map(|i| i as f64).collect();
    let before = packed.clone();
    let mut v = PackedLowerViewMut::new(&mut packed, n).unwrap();
    spr_lower_view_blocked(0.0, &x, &mut v, 4).unwrap();
    assert_bits_eq(&before, &packed, "spr alpha=0");
}
