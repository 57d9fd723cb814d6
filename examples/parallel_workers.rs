//! Real multi-worker SYRK on a shared slow memory: observed vs analytic
//! per-worker I/O for the square-block and TBS schedules at P = 4 (the
//! executable version of experiment E12, with every transfer actually
//! performed).
//!
//! ```text
//! cargo run --release --example parallel_workers
//! ```
//!
//! `RunOptions::workers(P)` registers `A` and `C` in a `SharedSlowMemory`
//! and deals the schedule's task groups over P capacity-checked workers
//! through the engine's work-stealing queue. Each worker's *measured*
//! `IoStats` is compared against the dry run of exactly the groups it
//! processed.

use symla::prelude::*;
use symla_sched::WorkerRun;

fn main() {
    let n = 240;
    let m = 32;
    let s = 15; // per-worker fast memory (k = 5 for TBS)
    let workers = 4;
    let a = generate::random_matrix_seeded::<f64>(n, m, 7);

    let mut reference = SymMatrix::<f64>::zeros(n);
    kernels::syrk_sym(1.0, &a, 1.0, &mut reference).expect("reference kernel");

    println!("Parallel SYRK, N = {n}, M = {m}, S/worker = {s}, P = {workers}");
    println!("(all transfers executed against one shared slow memory)");

    let service = PlanService::<f64>::in_memory();
    for algorithm in [SyrkAlgorithm::SquareBlocks, SyrkAlgorithm::Tbs] {
        let mut c = SymMatrix::<f64>::zeros(n);
        let options = RunOptions::new().workers(workers).cached(&service);
        let run = syrk_out_of_core_with(&a, &mut c, 1.0, s, algorithm, &options)
            .expect("parallel execution");
        assert!(c.approx_eq(&reference, 1e-9), "result must match reference");

        // The plan the workers replayed, for the per-worker oracle.
        let job = Job::Syrk {
            algorithm,
            n,
            m,
            alpha: 1.0,
            s,
        };
        let plan = service.plan(&job, &options).expect("cached plan").plan;
        let schedule = plan.schedule();
        let merged = WorkerRun::merged_stats(&run.workers);
        assert_eq!(merged, Engine::dry_run(schedule, "main"));

        let loads: Vec<u64> = run.workers.iter().map(|w| w.stats.volume.loads).collect();
        let max = loads.iter().copied().max().unwrap_or(0);
        let mean = merged.volume.loads as f64 / workers as f64;
        println!();
        println!(
            "schedule: {:<9} total loads {:>8}  max/worker {:>8}  imbalance {:.3}",
            algorithm.name(),
            merged.volume.loads,
            max,
            max as f64 / mean
        );
        println!(
            "  {:>6} | {:>10} {:>10} {:>7} {:>5} | observed = analytic?",
            "worker", "loads", "stores", "groups", "peak"
        );
        for (w, worker) in run.workers.iter().enumerate() {
            // Each worker's stats equal the dry run of the groups it ran.
            let picked = Schedule {
                groups: worker
                    .groups
                    .iter()
                    .map(|&g| schedule.groups[g].clone())
                    .collect(),
            };
            assert_eq!(worker.stats, Engine::dry_run(&picked, "main"));
            println!(
                "  {:>6} | {:>10} {:>10} {:>7} {:>5} | yes (dry run of its {} groups)",
                w,
                worker.stats.volume.loads,
                worker.stats.volume.stores,
                worker.groups.len(),
                worker.stats.peak_resident,
                worker.groups.len()
            );
        }
        println!(
            "  merged: {} loads / {} stores == serial dry run of {} groups",
            merged.volume.loads,
            merged.volume.stores,
            schedule.num_groups()
        );
    }

    println!();
    println!("TBS triangle blocks move ~1/sqrt(2) of the square-block input volume per worker —");
    println!("the paper's sequential headline, preserved under parallel distribution.");
}
