//! Command-line arguments, set-up, the measured loop and the result
//! object.

use crate::layers::{self, Samples};
use crate::spans::Spans;
use crate::stats::{median, tail};
use crate::workload::{timed_solve, Inputs, Kind, Workload};
use crate::{MetricDef, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How many times set-up runs; `setup_s` is their median. A fixed count
/// keeps `peak_rss_mb`, which set-up's allocations reach, the same on
/// every run.
pub const SETUP_ROUNDS: usize = 3;

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Reduced sizes (the benchmark's own test).
    pub small: bool,
    /// Where the traced run writes its Chrome-trace file.
    pub out_dir: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perfbench --workload <syrk-tiled|syrk-square|chol-lbc|syrk-tiled-file> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|small] [--out-dir <dir>]";

impl Args {
    /// Parses `--flag value` pairs.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut small, mut out_dir) = (false, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = |what: &str| format!("bad {what} {value:?}\n{USAGE}");
            match flag.as_str() {
                "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                "--scale" => {
                    small = match value.as_str() {
                        "full" => false,
                        "small" => true,
                        _ => return Err(bad("scale")),
                    }
                }
                "--out-dir" => out_dir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        let missing = |f: &str| format!("missing {f}\n{USAGE}");
        Ok(Self {
            kind: kind.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            small,
            out_dir,
        })
    }
}

/// The result object and the human-readable lines that precede it.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed and no accounting was broken.
    pub correct: bool,
    /// Checked calls made.
    pub attempted: u64,
    /// Checked calls that errored or failed their check.
    pub failed: u64,
    /// `(metric, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(MetricDef, f64)>,
    /// Lines printed before the result object.
    pub lines: Vec<String>,
}

impl Report {
    /// The result object, one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name,
                    symla_obs::json::number(*value),
                    def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Tally of checked calls.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            // Keep the report short: the first few failures say enough.
            if self.failed <= 5 {
                self.lines.push(format!("FAILED {what}: {e}"));
            }
        }
    }
}

/// Runs set-up [`SETUP_ROUNDS`] times: input generation, the reference
/// result and one checked warm-up call. Returns the last inputs and the
/// duration of each round in seconds.
fn setup(w: &Workload, seed: u64, tally: &mut Tally) -> Result<(Inputs, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_ROUNDS);
    let mut inputs = None;
    for _ in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        let generated = Inputs::generate(w, seed)?;
        let (_, solved) = timed_solve(w, &generated);
        times.push(t0.elapsed().as_secs_f64());
        tally.record("warm-up", solved.and_then(|s| generated.check(w, &s)));
        inputs = Some(generated);
    }
    Ok((inputs.expect("SETUP_ROUNDS > 0"), times))
}

/// Runs the benchmark as `args` say.
pub fn run(args: &Args) -> Result<Report, String> {
    let w = Workload::new(args.kind, args.small);
    let mut tally = Tally::default();
    tally.lines.push(format!(
        "workload {} seed={} seconds={} trace={} (closed loop, 1 caller, 1 thread)",
        w.describe(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let (inputs, setup_times) = setup(&w, args.seed, &mut tally)?;
    let baseline = w.baseline_loads_over_bound()?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut measured = if args.trace {
        traced(&w, args, &inputs, baseline, deadline, &mut tally)?
    } else {
        untraced(&w, &inputs, &setup_times, deadline, &mut tally)
    };

    let ratio = measured.loads / w.lower_bound();
    measured.lines.push(format!(
        "paper claim: {} loads/bound {ratio:.4} vs comparator {} {baseline:.4}",
        w.describe(),
        w.comparator_name(),
    ));
    let accounting_ok = ratio >= 1.0 && baseline >= 1.0;
    if !accounting_ok {
        measured
            .lines
            .push("FAILED accounting: loads/bound below 1 means broken I/O counting".into());
    }
    let mut lines = tally.lines;
    lines.append(&mut measured.lines);
    Ok(Report {
        correct: tally.failed == 0 && accounting_ok,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: measured.metrics,
        lines,
    })
}

/// What one mode measured.
struct Measured {
    metrics: Vec<(MetricDef, f64)>,
    lines: Vec<String>,
    /// Loads of one solve, for the accounting check.
    loads: f64,
}

/// The end-to-end run: timed calls until the deadline.
fn untraced(
    w: &Workload,
    inputs: &Inputs,
    setup_times: &[f64],
    deadline: Instant,
    tally: &mut Tally,
) -> Measured {
    let mut times = Vec::new();
    let mut loads = 0u64;
    while times.is_empty() || Instant::now() < deadline {
        let (ms, solved) = timed_solve(w, inputs);
        times.push(ms);
        let check = solved.and_then(|s| {
            inputs.check(w, &s)?;
            loads = s.stats.volume.loads;
            Ok(())
        });
        tally.record("solve", check);
    }
    let p50 = median(&times);
    let t = tail(&times, TAIL_BEYOND);
    let ok_frac = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    let values = [
        p50,
        t.value,
        w.useful_flops() / (p50 * 1e6),
        loads as f64 / w.lower_bound(),
        peak_rss_mb(),
        ok_frac,
        median(setup_times),
    ];
    let mut lines = vec![format!(
        "solve_ms_tail is p{:.1} of {} samples ({} beyond it)",
        t.percentile, t.samples, t.beyond
    )];
    let metrics: Vec<(MetricDef, f64)> = END_TO_END.iter().copied().zip(values).collect();
    for (def, value) in &metrics {
        lines.push(format!("{:<18} {:>14.4} {}", def.name, value, def.unit));
    }
    lines.push(format!(
        "{:<18} {:>14.4} fraction ({} of {} calls)",
        "failed_frac",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    ));
    Measured {
        metrics,
        lines,
        loads: loads as f64,
    }
}

/// The traced run: traced iterations until the deadline, then the
/// per-layer medians and the Chrome-trace file.
fn traced(
    w: &Workload,
    args: &Args,
    inputs: &Inputs,
    baseline_loads_over_bound: f64,
    deadline: Instant,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let mut spans = Spans::new();
    let mut samples = Samples::new();
    let mut solve = 0;
    while solve == 0 || Instant::now() < deadline {
        for check in layers::iteration(w, inputs, solve, &mut spans, &mut samples) {
            tally.record("layer call", check);
        }
        solve += 1;
    }
    // A layer whose every call failed leaves no samples: an error, not a
    // panic, so the run still exits cleanly without a result.
    let sampled = |name: &str| {
        samples
            .get(name)
            .map(|values| median(values))
            .ok_or_else(|| format!("no samples of {name}"))
    };
    let untraced = sampled("trace.untraced_solve_ms")?;
    let coverage = sampled("trace.spans_ms")? / untraced;
    let overhead = sampled("trace.solve_ms")? / untraced - 1.0;
    let loads = sampled("memory.loads")?;
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for def in PER_LAYER {
        let value = match def.name {
            "trace.coverage" => coverage,
            "trace.overhead_frac" => overhead,
            "core.baseline_loads_over_bound" => baseline_loads_over_bound,
            name => sampled(name)?,
        };
        metrics.push((*def, value));
    }
    let mut lines = vec![format!("{solve} traced iterations")];
    for (def, value) in &metrics {
        lines.push(format!("{:<32} {:>16.4} {}", def.name, value, def.unit));
    }
    lines.push(format!(
        "spans of one solve cover {:.1}% of the untraced call ({untraced:.3} ms); \
         tracing overhead {:+.1}%",
        coverage * 100.0,
        overhead * 100.0
    ));
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{}.trace.json", w.kind.name(), args.seed));
        std::fs::write(&path, spans.to_chrome_trace(&w.describe()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        lines.push(format!("spans written to {}", path.display()));
    }
    Ok(Measured {
        metrics,
        lines,
        loads,
    })
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
