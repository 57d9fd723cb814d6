//! Runs every workload at reduced size and checks the result object: every
//! metric prints with its unit, the outputs check out, and the exact
//! counts repeat across two runs and two seeds.

use std::path::PathBuf;
use std::process::Command;
use symla_perfbench::{MetricDef, END_TO_END, EXACT, PER_LAYER};

/// Runs the benchmark binary and returns its standard output.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{workload}"));
    std::fs::create_dir_all(&tmp).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "small", "--out-dir"])
        .arg(tmp.join("traces"))
        .env("TMPDIR", &tmp)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The value of metric `def` in the result object, checking its unit.
fn value(result: &str, def: &MetricDef) -> f64 {
    let key = format!("\"{}\": {{\"value\": ", def.name);
    let start = result
        .find(&key)
        .unwrap_or_else(|| panic!("{} missing from {result}", def.name))
        + key.len();
    let rest = &result[start..];
    let end = rest.find(',').expect("value ends");
    let unit = format!(", \"unit\": \"{}\"}}", def.unit);
    assert!(
        rest[end..].starts_with(&unit),
        "{} lacks unit {}",
        def.name,
        def.unit
    );
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{} is not a number: {}", def.name, &rest[..end]))
}

/// Checks one run's result object and returns its exact counts.
fn check(stdout: &str, defs: &[MetricDef]) -> Vec<(&'static str, f64)> {
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": true, "), "{stdout}");
    assert_eq!(result.matches("\"unit\": ").count(), defs.len(), "{result}");
    let mut exact = Vec::new();
    for def in defs {
        let v = value(result, def);
        assert!(v.is_finite(), "{} = {v}", def.name);
        if EXACT.contains(&def.name) {
            exact.push((def.name, v));
        }
    }
    exact
}

fn workload(name: &str) {
    // End-to-end run: seven metrics, failed_frac among the printed lines.
    let e2e = [
        run(name, 1, false),
        run(name, 1, false),
        run(name, 2, false),
    ];
    let counts: Vec<_> = e2e.iter().map(|out| check(out, END_TO_END)).collect();
    let ratio = END_TO_END
        .iter()
        .find(|d| d.name == "loads_over_bound")
        .expect("loads_over_bound is an end-to-end metric");
    for out in &e2e {
        assert!(out.contains("\nfailed_frac "), "{out}");
        assert!(value(out.lines().last().unwrap(), ratio) >= 1.0);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");

    // Traced run: every per-layer metric, the same counts again.
    let traced = [run(name, 1, true), run(name, 1, true), run(name, 2, true)];
    let counts: Vec<_> = traced.iter().map(|out| check(out, PER_LAYER)).collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    assert!(traced[0].contains("spans written to "), "{}", traced[0]);
}

#[test]
fn syrk_tiled() {
    workload("syrk-tiled");
}

#[test]
fn syrk_square() {
    workload("syrk-square");
}

#[test]
fn chol_lbc() {
    workload("chol-lbc");
}

#[test]
fn syrk_tiled_file() {
    workload("syrk-tiled-file");
}

/// `BENCHMARK.json` names every metric with the unit the binary prints.
#[test]
fn benchmark_json_lists_the_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
        assert!(doc.contains(&entry), "{entry} missing from BENCHMARK.json");
    }
    assert_eq!(
        doc.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}
