//! LBC block-size sweep (the executable version of Figure 3 / experiment E7):
//! how the four terms of the Section 5.2.2 analysis trade off as the panel
//! width `b` changes, why `b = √N` is the paper's asymptotic choice, and
//! which `b` the planner picks at this size.
//!
//! ```text
//! cargo run --release --example blocksize_sweep
//! ```

use symla::prelude::*;
use symla_core::bounds::LbcTermBreakdown;
use symla_core::{lbc_cost, lbc_cost_breakdown};

fn main() {
    let n = 1024;
    let s = 66; // k = 11 for the trailing TBS
    println!("LBC predicted I/O vs block size b (N = {n}, S = {s})\n");
    println!(
        "{:>6} | {:>12} {:>12} {:>12} | {:>12} | {:>14}",
        "b", "chol", "trsm", "trailing", "total", "closed form"
    );

    let mut best: Option<(usize, u128)> = None;
    for &b in &[4_usize, 8, 16, 24, 32, 48, 64, 96, 128, 256, 512] {
        let plan = LbcPlan::paper(n, s)
            .expect("plan")
            .with_block(b)
            .expect("block");
        let breakdown = lbc_cost_breakdown(n, &plan).expect("cost");
        let total = breakdown.total().loads;
        let closed = LbcTermBreakdown::new(n as f64, s as f64, b as f64).total();
        println!(
            "{:>6} | {:>12} {:>12} {:>12} | {:>12} | {:>14.0}",
            b, breakdown.chol.loads, breakdown.trsm.loads, breakdown.trailing.loads, total, closed
        );
        if best.map(|(_, t)| total < t).unwrap_or(true) {
            best = Some((b, total));
        }
    }

    let (best_b, best_total) = best.unwrap();
    println!("\nbest block size in the sweep: b = {best_b} ({best_total} loads)");
    for (name, plan) in [
        (
            "the planner's exact argmin over every b",
            LbcPlan::for_problem(n, s),
        ),
        ("the paper's choice b = ⌈√N⌉", LbcPlan::paper(n, s)),
    ] {
        let plan = plan.expect("plan");
        let loads = lbc_cost(n, &plan).expect("cost").loads;
        println!("{name}: b = {} ({loads} loads)", plan.block);
    }
    println!("\nsmall b inflates the reload term (4); large b inflates the TRSM term (2).");
    println!("b = √N keeps both below the TBS term (3) as N/S grows, which makes LBC");
    println!("optimal asymptotically; at a given size they still count, so the planner");
    println!("picks b by the exact cost instead.");
}
