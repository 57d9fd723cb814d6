//! Tracing a run end to end: execute an out-of-core SYRK under an
//! instrumented machine, export the timeline as Chrome-trace JSON, and
//! print the unified metrics report.
//!
//! ```text
//! cargo run --release --example trace_run
//! ```
//!
//! Writes `trace_serial.json` (serial prefetched run, measured + modelled
//! process tracks) and `trace_parallel.json` (P = 4 workers, one thread
//! track each, with flow arrows from every prefetch issue to the load that
//! consumes it) into the system temporary directory and prints both paths.
//! Open either file at <https://ui.perfetto.dev> — no conversion needed.
//!
//! Observation changes nothing: a traced run returns bitwise the same
//! results and `IoStats` as an unobserved one, and the modelled
//! timestamps on every event are the wall-clock model of section 7 of
//! `docs/ARCHITECTURE.md`, bit for bit (both facts CI-gated by
//! `ab_obs --smoke`).

use symla::prelude::*;
use symla_core::parallel::{parallel_syrk_traced, BlockStrategy};

fn main() {
    let model = MachineModel::nvme();

    let out_dir = std::env::temp_dir();

    // --- Serial: traced prefetched SYRK through the high-level API. ------
    let (n, m, s) = (96, 16, 160);
    let a = generate::random_matrix_seeded::<f64>(n, m, 11);
    let mut c = SymMatrix::<f64>::zeros(n);
    let recorder = TraceRecorder::new();
    let options = RunOptions::new()
        .pipeline(PassPipeline::standard())
        .lookahead(2)
        .traced(&model, &recorder);
    let run = syrk_out_of_core_with(&a, &mut c, 1.0, s, SyrkAlgorithm::TbsTiled, &options).unwrap();

    // Two clocks per event; the modelled one is the static price, bitwise.
    assert!(run.clock.expect("a traced run is priced").consistent());
    let trace = run.trace.as_ref().expect("a traced run keeps its trace");
    let export = trace.to_chrome_trace(&[TimeBase::Measured, TimeBase::Modelled]);
    let serial_path = out_dir.join("trace_serial.json");
    std::fs::write(&serial_path, &export).unwrap();
    println!(
        "serial  TbsTiled N={n} M={m} S={s} L=2: {} events, {} loads hidden behind compute",
        trace.len(),
        run.report.stats.prefetched_elements,
    );
    println!(
        "        wrote {} ({} bytes)",
        serial_path.display(),
        export.len()
    );

    // The metrics mirror the engine's accounting exactly.
    let metrics = run.metrics(format!("TBS(tiled) n={n} m={m} S={s} L=2"));
    assert_eq!(
        metrics.registry.counter("engine.loads.elements"),
        run.report.stats.volume.loads as u128,
    );
    println!();
    println!("{}", metrics.to_json());
    println!();

    // --- Parallel: P = 4 workers, one timeline track each. ---------------
    let (pn, pm, ps, workers, lookahead) = (280, 64, 400, 4, 2);
    let pa = generate::random_matrix_seeded::<f64>(pn, pm, 12);
    let mut pc = SymMatrix::<f64>::zeros(pn);
    let precorder = TraceRecorder::new();
    let report = parallel_syrk_traced(
        &pa,
        &mut pc,
        1.0,
        workers,
        ps,
        BlockStrategy::TriangleBlocks,
        lookahead,
        &model,
        &precorder,
    )
    .unwrap();
    let ptrace = precorder.finish();
    let pexport = ptrace.to_chrome_trace(&[TimeBase::Measured]);
    let parallel_path = out_dir.join("trace_parallel.json");
    std::fs::write(&parallel_path, &pexport).unwrap();

    let issues = ptrace.count(|k| matches!(k, EventKind::PrefetchIssue { .. }));
    let steals = ptrace.count(|k| matches!(k, EventKind::Claim { stolen: true, .. }));
    println!(
        "parallel TriangleBlocks N={pn} M={pm} S={ps} P={workers} L={lookahead}: \
         {} events on {} worker tracks, {issues} prefetch arrows, {steals} steals",
        ptrace.len(),
        ptrace.workers(),
    );
    for (w, io) in report.per_worker.iter().enumerate() {
        println!(
            "        worker {w}: {} groups, {} loads, {} stores",
            io.tasks, io.loads, io.stores
        );
    }
    println!(
        "        wrote {} ({} bytes)",
        parallel_path.display(),
        pexport.len()
    );
    println!();
    println!("open either file at https://ui.perfetto.dev");
}
