//! Experiment driver: regenerates every quantitative table of the paper
//! reproduction (the doc comment of each `eN_*` function in the
//! `symla_bench` library says which part of the paper it covers).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p symla-bench --bin experiments            # run everything
//! cargo run --release -p symla-bench --bin experiments -- e2 e3   # selected experiments
//! cargo run --release -p symla-bench --bin experiments -- --list  # list identifiers
//! ```

use std::time::Instant;
use symla_bench::{all_experiment_ids, run_experiment};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--list" || a == "-l") {
        println!("available experiments:");
        for id in all_experiment_ids() {
            println!("  {id}");
        }
        return;
    }

    let selected: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all_experiment_ids().iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    let overall = Instant::now();
    let mut failures = Vec::new();
    for id in &selected {
        let start = Instant::now();
        match run_experiment(id) {
            Some(tables) => {
                for table in tables {
                    println!("{}", table.render());
                }
                println!(
                    "[{} completed in {:.2} s]\n",
                    id,
                    start.elapsed().as_secs_f64()
                );
            }
            None => {
                eprintln!("unknown experiment id: {id} (use --list)");
                failures.push(id.clone());
            }
        }
    }
    println!(
        "ran {} experiment(s) in {:.2} s",
        selected.len() - failures.len(),
        overall.elapsed().as_secs_f64()
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
