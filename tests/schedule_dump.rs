//! Golden-file test of the compact textual schedule dump
//! (`Schedule::dump`), on a seed schedule and its pass-optimized form.
//!
//! The dump is the first slice of the ROADMAP's schedule-serialization
//! item: one header line per task group and one line per step, stable
//! enough that an optimized-vs-seed `diff` of the two golden files shows
//! exactly what a pipeline did (here: adjacent loads of contiguous `A`
//! block columns coalesced into one transfer per group).
//!
//! To regenerate after an intentional IR or pass change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test schedule_dump
//! git diff tests/golden/   # review the schedule diff by eye
//! ```

use std::path::PathBuf;
use symla::prelude::*;
use symla_baselines::ooc_syrk_schedule;
use symla_core::passes::PassPipeline;
use symla_sched::FORMAT_VERSION;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {}: {e}; regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from its golden file; if the change is intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test --test schedule_dump` \
         and review the diff"
    );
}

/// A small deterministic OOC_SYRK instance: three block-columns of `C`, so
/// the per-group `A` loads are contiguous and the merge pass has visible
/// work to do.
fn tiny_syrk_schedule() -> Schedule<f64> {
    let (n, m, s) = (8, 2, 18);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    ooc_syrk_schedule(&a_ref, &c_ref, 1.0, &OocSyrkPlan::for_memory(s).unwrap()).unwrap()
}

#[test]
fn seed_and_optimized_dumps_match_golden_files() {
    let seed = tiny_syrk_schedule();
    check_golden("ooc_syrk_seed.dump", &seed.dump());

    let optimized = PassPipeline::standard()
        .manager::<f64>()
        .optimize(&seed, "main")
        .unwrap();
    assert!(
        optimized.events_saved() > 0,
        "the tiny instance must show a reviewable optimization"
    );
    check_golden("ooc_syrk_optimized.dump", &optimized.schedule.dump());
}

/// `Schedule::parse` inverts `Schedule::dump` over the golden files: the
/// on-disk text reconstructs the schedule exactly (and re-dumps to the
/// identical bytes), so dumped schedules can be replayed from disk without
/// rebuilding them.
#[test]
fn golden_files_parse_back_losslessly() {
    let seed = tiny_syrk_schedule();
    let golden = std::fs::read_to_string(golden_path("ooc_syrk_seed.dump")).unwrap();
    let parsed = Schedule::<f64>::parse(&golden).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(parsed, seed, "golden seed dump reconstructs the schedule");
    assert_eq!(parsed.dump(), golden, "re-dump is byte-identical");

    let optimized_golden = std::fs::read_to_string(golden_path("ooc_syrk_optimized.dump")).unwrap();
    let parsed = Schedule::<f64>::parse(&optimized_golden).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(parsed.dump(), optimized_golden);
    // The parsed optimized schedule is executable and equivalent: same
    // dry-run volumes as re-optimizing the seed in process.
    let reoptimized = PassPipeline::standard()
        .manager::<f64>()
        .optimize(&seed, "main")
        .unwrap();
    assert_eq!(parsed, reoptimized.schedule);
}

/// `parse(dump(s)) == s` for every schedule builder, not just the golden
/// instance — the dump is a faithful serialization of the whole IR surface
/// the builders emit (all region kinds, compute ops and phase labels).
#[test]
fn parse_round_trips_every_builder() {
    use symla_baselines::{
        ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_trsm_schedule,
    };

    let (n, m, s) = (30, 5, 40);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    let schedules: Vec<(&str, Schedule<f64>)> = vec![
        (
            "ooc_syrk",
            symla_baselines::ooc_syrk_schedule(
                &a_ref,
                &c_ref,
                1.5,
                &OocSyrkPlan::for_memory(s).unwrap(),
            )
            .unwrap(),
        ),
        (
            "tbs",
            tbs_schedule(&a_ref, &c_ref, -0.5, &TbsPlan::for_memory(s).unwrap()).unwrap(),
        ),
        (
            "tbs_tiled",
            tbs_schedule(&a_ref, &c_ref, 1.0, &TbsPlan::for_problem(s, n).unwrap()).unwrap(),
        ),
        (
            "lbc",
            lbc_schedule(&window, &LbcPlan::for_problem(n, s).unwrap()).unwrap(),
        ),
        (
            "ooc_chol",
            ooc_chol_schedule(&window, &OocCholPlan::for_memory(s).unwrap()),
        ),
        (
            "ooc_trsm",
            ooc_trsm_schedule(
                &SymWindowRef::full(MatrixId::synthetic(0), 8),
                &PanelRef::dense(MatrixId::synthetic(1), 9, 8),
                &OocTrsmPlan::for_memory(24).unwrap(),
            )
            .unwrap(),
        ),
        (
            "ooc_gemm",
            ooc_gemm_schedule(
                &PanelRef::dense(MatrixId::synthetic(0), 9, 7),
                &PanelRef::dense(MatrixId::synthetic(1), 7, 11),
                &PanelRef::dense(MatrixId::synthetic(2), 9, 11),
                1.0,
                &OocGemmPlan::for_memory(35).unwrap(),
            )
            .unwrap(),
        ),
        (
            "ooc_lu",
            ooc_lu_schedule(
                &PanelRef::dense(MatrixId::synthetic(0), 12, 12),
                &OocLuPlan::for_memory(35).unwrap(),
            )
            .unwrap(),
        ),
    ];
    for (name, schedule) in schedules {
        let dump = schedule.dump();
        let parsed = Schedule::<f64>::parse(&dump).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(parsed, schedule, "{name}: parse(dump(s)) == s");
    }
}

/// The dump's shape is structural, not incidental: one format-version line,
/// one summary header, one line per group, one (indented) line per step.
#[test]
fn dump_has_one_line_per_group_and_step() {
    let schedule = tiny_syrk_schedule();
    let dump = schedule.dump();
    let lines: Vec<&str> = dump.lines().collect();
    assert_eq!(
        lines.len(),
        2 + schedule.num_groups() + schedule.num_steps()
    );
    // Two-level schedules keep the v1 text header even though the binary
    // container's FORMAT_VERSION has moved on; only leveled schedules dump v2.
    assert_eq!(schedule.text_version(), 1);
    assert_eq!(lines[0], "symla-schedule text v1");
    assert!(FORMAT_VERSION >= schedule.text_version());
    assert_eq!(lines[1], format!("{schedule}"));
    assert_eq!(
        lines.iter().filter(|l| l.starts_with("group ")).count(),
        schedule.num_groups()
    );
    assert_eq!(
        lines.iter().filter(|l| l.starts_with("  ")).count(),
        schedule.num_steps()
    );
}
