//! The traced run: one solve rebuilt from the layers' public functions,
//! each call wrapped in a span, plus one timed call into every layer the
//! solve does not pass through.

use crate::spans::Spans;
use crate::workload::{register, take, timed_solve, Inputs, Kind, Solved, Workload};
use std::collections::BTreeMap;
use symla_core::api::{cholesky_out_of_core_traced, syrk_out_of_core_traced, CholeskyAlgorithm};
use symla_core::PlanService;
use symla_matrix::kernels::{cholesky_sym, syrk_sym};
use symla_memory::{FileSlowMemory, MachineModel, OocMachine};
use symla_obs::TraceRecorder;
use symla_sched::{Engine, EngineConfig, PassPipeline, PrefetchPlan, Schedule};

/// Samples of every per-layer metric, one per traced iteration.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

fn or_fail<T>(r: Result<T, String>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Runs iteration `solve` of the traced run: an untraced API call (the
/// reference for coverage and overhead), the traced solve, then the side
/// layers. Appends one sample per metric and returns the check of every
/// call that produced a result.
pub fn iteration(
    w: &Workload,
    inputs: &Inputs,
    solve: usize,
    spans: &mut Spans,
    samples: &mut Samples,
) -> Vec<Result<(), String>> {
    // Untraced reference call, checked like the end-to-end run's calls.
    let (ms, solved) = timed_solve(w, inputs);
    push(samples, "trace.untraced_solve_ms", ms);
    let mut checks = vec![solved.and_then(|s| inputs.check(w, &s))];

    let traced = if w.kind == Kind::SyrkTiledFile {
        traced_solve::<FileSlowMemory<f64>>(w, inputs, solve, spans, samples)
    } else {
        traced_solve::<OocMachine<f64>>(w, inputs, solve, spans, samples)
    };
    match traced {
        Ok((schedule, solved)) => {
            checks.push(inputs.check(w, &solved));
            // Side layers, under their own root span.
            let root = spans.begin("layers", None, solve);
            checks.extend(side_layers(w, inputs, &schedule, root, spans, samples));
            spans.end(root);
        }
        Err(e) => checks.push(Err(e)),
    }
    checks
}

/// One solve through the layers' public functions, in the order the API
/// calls them: register, build, (plan prefetch,) execute, take.
fn traced_solve<B: crate::workload::Backend>(
    w: &Workload,
    inputs: &Inputs,
    solve: usize,
    spans: &mut Spans,
    samples: &mut Samples,
) -> Result<(Schedule<f64>, Solved), String> {
    let root = spans.begin("solve", None, solve);
    let (registered, register_ms) =
        spans.time("memory.register", root, || register::<B>(w, inputs));
    let (mut machine, ids) = or_fail(registered, "register")?;
    let (built, build_ms) = spans.time("core.build", root, || w.build(&ids));
    let (schedule, predicted) = or_fail(built, "build")?;
    let executed = if w.kind.lookahead() > 0 {
        let (plan, plan_ms) = spans.time("prefetch.plan", root, || {
            PrefetchPlan::plan(&schedule, w.kind.lookahead(), Some(w.s))
        });
        push(samples, "prefetch.plan_ms", plan_ms);
        let (r, ms) = spans.time("memory.file_execute", root, || {
            Engine::execute_planned(&mut machine, &schedule, &plan)
        });
        push(samples, "memory.file_execute_ms", ms);
        r
    } else {
        let (r, ms) = spans.time("engine.execute", root, || {
            let r = Engine::execute_with(&mut machine, &schedule, &EngineConfig::default());
            machine.set_phase("main");
            r
        });
        push_engine(samples, ms, &schedule);
        r
    };
    or_fail(executed.map_err(|e| e.to_string()), "execute")?;
    let (taken, take_ms) = spans.time("memory.take", root, || {
        let taken = take(w, &mut machine, &ids);
        drop(machine);
        taken
    });
    let (output, stats) = or_fail(taken, "take")?;
    let solve_ms = spans.end(root);
    if w.kind.lookahead() > 0 {
        push(samples, "prefetch.overlap_ratio", stats.overlap_ratio());
    }

    push(samples, "memory.register_ms", register_ms);
    push(samples, "memory.take_ms", take_ms);
    push(samples, "core.build_ms", build_ms);
    push(samples, "core.steps", schedule.num_steps() as f64);
    push(samples, "core.groups", schedule.num_groups() as f64);
    push(samples, "memory.loads", stats.volume.loads as f64);
    push(samples, "memory.stores", stats.volume.stores as f64);
    push(
        samples,
        "memory.transfer_events",
        (stats.load_events + stats.store_events) as f64,
    );
    push(samples, "memory.peak_resident", stats.peak_resident as f64);
    push(samples, "trace.solve_ms", solve_ms);
    push(samples, "trace.spans_ms", spans.children_ms(root));
    Ok((
        schedule,
        Solved {
            output,
            stats,
            predicted,
        },
    ))
}

fn push_engine(samples: &mut Samples, ms: f64, schedule: &Schedule<f64>) {
    push(samples, "engine.execute_ms", ms);
    push(
        samples,
        "engine.ns_per_step",
        ms * 1e6 / schedule.num_steps().max(1) as f64,
    );
}

/// One timed call into every layer the workload's solve does not pass
/// through, on the workload's own schedule and inputs. Returns the checks
/// of the calls that produce a result.
fn side_layers(
    w: &Workload,
    inputs: &Inputs,
    schedule: &Schedule<f64>,
    root: usize,
    spans: &mut Spans,
    samples: &mut Samples,
) -> Vec<Result<(), String>> {
    let mut checks = Vec::new();
    let lookahead = w.kind.lookahead();

    let (_, ms) = spans.time("engine.dry_run", root, || Engine::dry_run(schedule, "main"));
    push(samples, "engine.dry_run_ms", ms);

    if w.kind == Kind::SyrkTiledFile {
        // The in-memory replay the API workloads time on their solve path.
        match register::<OocMachine<f64>>(w, inputs) {
            Ok((mut machine, _)) => {
                let (r, ms) = spans.time("engine.execute", root, || {
                    Engine::execute_with(&mut machine, schedule, &EngineConfig::default())
                });
                push_engine(samples, ms, schedule);
                checks.push(r.map_err(|e| format!("engine.execute: {e}")));
            }
            Err(e) => checks.push(Err(e)),
        }
    } else {
        // Prefetch planning at lookahead 1 and the file-backed replay with
        // that plan, which the file workload times on its solve path.
        let (plan, ms) = spans.time("prefetch.plan", root, || {
            PrefetchPlan::plan(schedule, 1, Some(w.s))
        });
        push(samples, "prefetch.plan_ms", ms);
        match register::<FileSlowMemory<f64>>(w, inputs) {
            Ok((mut machine, _)) => {
                let (r, ms) = spans.time("memory.file_execute", root, || {
                    Engine::execute_planned(&mut machine, schedule, &plan)
                });
                push(samples, "memory.file_execute_ms", ms);
                let overlap = machine.stats().overlap_ratio();
                push(samples, "prefetch.overlap_ratio", overlap);
                checks.push(r.map_err(|e| format!("file replay: {e}")));
            }
            Err(e) => checks.push(Err(e)),
        }
    }

    // In-core reference kernel on the same inputs.
    let (r, ms) = match inputs {
        Inputs::Syrk { a, c0, .. } => {
            let mut c = c0.clone();
            spans.time("kernels.incore_ref", root, || {
                syrk_sym(1.0, a, 1.0, &mut c).map(|_| ())
            })
        }
        Inputs::Chol { a, .. } => {
            spans.time("kernels.incore_ref", root, || cholesky_sym(a).map(|_| ()))
        }
    };
    checks.push(r.map_err(|e| format!("in-core kernel: {e}")));
    push(samples, "kernels.incore_ref_ms", ms);
    push(
        samples,
        "kernels.incore_gflops",
        w.useful_flops() / (ms * 1e6),
    );

    // The standard pass pipeline (not on any solve path).
    let (optimized, ms) = spans.time("passes.optimize", root, || {
        PassPipeline::standard()
            .manager::<f64>()
            .optimize(schedule, "main")
    });
    push(samples, "passes.optimize_ms", ms);
    match optimized {
        Ok(o) => {
            push(samples, "passes.events_saved", o.events_saved() as f64);
            push(samples, "passes.loads_saved", o.loads_saved() as f64);
        }
        Err(e) => checks.push(Err(format!("passes: {e}"))),
    }

    // Binary encode/decode of the schedule.
    let (bytes, ms) = spans.time("binary.encode", root, || schedule.to_bytes());
    push(samples, "binary.encode_ms", ms);
    push(samples, "binary.plan_bytes", bytes.len() as f64);
    let (decoded, ms) = spans.time("binary.decode", root, || {
        Schedule::<f64>::from_bytes(&bytes).map(|s| s.num_steps())
    });
    push(samples, "binary.decode_ms", ms);
    checks.push(match decoded {
        Ok(steps) if steps == schedule.num_steps() => Ok(()),
        Ok(steps) => Err(format!(
            "decoded {steps} steps, encoded {}",
            schedule.num_steps()
        )),
        Err(e) => Err(format!("decode: {e}")),
    });

    // Plan service: a cold compile-and-replay, then a warm hit with replay.
    let service = PlanService::<f64>::in_memory();
    for (name, metric) in [
        ("service.cold", "service.cold_ms"),
        ("service.warm", "service.warm_ms"),
    ] {
        let (solved, ms) = spans.time(name, root, || serve(w, inputs, &service, lookahead));
        push(samples, metric, ms);
        checks.push(solved.and_then(|o| inputs.residual(&o).and_then(within_tolerance)));
    }

    // The observed twin of the API call.
    let recorder = TraceRecorder::new();
    let (traced, ms) = spans.time("obs.traced", root, || {
        observed(w, inputs, lookahead, &recorder)
    });
    push(samples, "obs.traced_ms", ms);
    match traced {
        Ok((output, events)) => {
            push(samples, "obs.events", events as f64);
            checks.push(inputs.residual(&output).and_then(within_tolerance));
        }
        Err(e) => checks.push(Err(format!("obs: {e}"))),
    }
    checks
}

fn within_tolerance(residual: f64) -> Result<(), String> {
    if residual <= crate::workload::TOLERANCE {
        Ok(())
    } else {
        Err(format!("residual {residual:e}"))
    }
}

/// One `PlanService` call on the workload's operands.
fn serve(
    w: &Workload,
    inputs: &Inputs,
    service: &PlanService<f64>,
    lookahead: usize,
) -> Result<crate::workload::Output, String> {
    use crate::workload::Output;
    let none = PassPipeline::none();
    match inputs {
        Inputs::Syrk { a, c0, .. } => {
            let mut c = c0.clone();
            service
                .syrk(
                    a,
                    &mut c,
                    1.0,
                    w.s,
                    w.kind.syrk_algorithm(),
                    &none,
                    lookahead,
                )
                .map_err(|e| e.to_string())?;
            Ok(Output::Sym(c))
        }
        Inputs::Chol { a, .. } => service
            .cholesky(a, w.s, CholeskyAlgorithm::Lbc, &none, lookahead)
            .map(|(l, _)| Output::Factor(l))
            .map_err(|e| e.to_string()),
    }
}

/// One `*_out_of_core_traced` call; returns the result and the number of
/// recorded events.
fn observed(
    w: &Workload,
    inputs: &Inputs,
    lookahead: usize,
    recorder: &TraceRecorder,
) -> Result<(crate::workload::Output, usize), String> {
    use crate::workload::Output;
    let none = PassPipeline::none();
    let model = MachineModel::nvme();
    match inputs {
        Inputs::Syrk { a, c0, .. } => {
            let mut c = c0.clone();
            let (_, traced) = syrk_out_of_core_traced(
                a,
                &mut c,
                1.0,
                w.s,
                w.kind.syrk_algorithm(),
                &none,
                lookahead,
                &model,
                recorder,
            )
            .map_err(|e| e.to_string())?;
            Ok((Output::Sym(c), traced.trace.len()))
        }
        Inputs::Chol { a, .. } => {
            let (l, _, traced) = cholesky_out_of_core_traced(
                a,
                w.s,
                CholeskyAlgorithm::Lbc,
                &none,
                lookahead,
                &model,
                recorder,
            )
            .map_err(|e| e.to_string())?;
            Ok((Output::Factor(l), traced.trace.len()))
        }
    }
}
