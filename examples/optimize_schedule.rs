//! Optimizing a schedule with the pass layer: build a seed schedule, run
//! the stock pipelines, and read the per-pass accounting — then do the
//! same through the one-call API and check the result is bitwise identical
//! to the un-optimized run.
//!
//! ```text
//! cargo run --release --example optimize_schedule
//! ```

use symla::prelude::*;

fn main() {
    // --- 1. A seed schedule: tiled TBS on a mid-size SYRK instance. ---
    let (n, m, s) = (40, 6, 60);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let plan = TbsPlan::for_problem(s, n).unwrap();
    let seed = tbs_schedule::<f64>(&a_ref, &c_ref, 1.0, &plan).unwrap();
    println!("seed     : {seed}");
    println!("--- first task group of the seed dump ---");
    for line in seed.dump().lines().skip(1).take(12) {
        println!("{line}");
    }

    // --- 2. Run the stock pipelines and read the per-pass accounting. ---
    let budget = 2 * Engine::dry_run(&seed, "main").peak_resident;
    for (name, pipeline) in [
        ("standard", PassPipeline::standard()),
        ("locality", PassPipeline::locality(Some(budget))),
    ] {
        let optimized = pipeline
            .manager::<f64>()
            .optimize(&seed, "main")
            .expect("pipelines verify equivalence symbolically");
        println!("\npipeline `{name}`: {}", optimized.schedule);
        for stage in &optimized.stages {
            println!("  {}", stage.report);
        }
        println!(
            "  transfers: {} -> {} elements, {} -> {} events (saved {} / {})",
            optimized.seed_stats.total_io(),
            optimized.final_stats.total_io(),
            optimized.seed_stats.load_events + optimized.seed_stats.store_events,
            optimized.final_stats.load_events + optimized.final_stats.store_events,
            optimized.loads_saved() + optimized.stores_saved(),
            optimized.events_saved(),
        );
        assert!(!optimized.regressed());
    }

    // --- 3. The same through the one-call API: bitwise-equal results. ---
    let a = generate::random_matrix_seeded::<f64>(n, m, 7);
    let mut c_plain = SymMatrix::<f64>::zeros(n);
    let report = syrk_out_of_core(&a, &mut c_plain, 1.0, s, SyrkAlgorithm::TbsTiled).unwrap();

    let mut c_opt = SymMatrix::<f64>::zeros(n);
    let options = RunOptions::new().pipeline(PassPipeline::standard());
    let run =
        syrk_out_of_core_with(&a, &mut c_opt, 1.0, s, SyrkAlgorithm::TbsTiled, &options).unwrap();

    assert!(
        c_opt.approx_eq(&c_plain, 0.0),
        "optimized result must be bitwise equal"
    );
    assert!(run.seed_prediction_matches());
    println!(
        "\napi: seed {} loads predicted = measured {}, optimized run measured {} loads / {} \
         events ({} events saved), result bitwise equal: true",
        report.predicted.loads,
        run.seed_stats().expect("the pipeline ran").volume.loads,
        run.report.stats.volume.loads,
        run.report.stats.load_events + run.report.stats.store_events,
        run.events_saved(),
    );
}
