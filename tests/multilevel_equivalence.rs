//! Multi-level hierarchy equivalence: the tier stack must be invisible
//! when degenerate and honestly accounted when engaged.
//!
//! For every one of the eight schedule builders this asserts:
//!
//! 1. **collapse identity** — replaying the (default-level) schedule
//!    through a [`TieredMachine`] with two uncapped deep tiers produces
//!    bitwise-identical slow-memory results and field-for-field equal
//!    [`IoStats`] to the plain [`OocMachine`] replay;
//! 2. **leveled attribution** — re-leveling every transfer to tier 2
//!    ([`Schedule::with_transfer_level`]) still reproduces the results
//!    bitwise, moves exactly the same total volume, and attributes all of
//!    it to the tier in the per-level counters (which stay empty on the
//!    flat replay);
//! 3. **staging windows are enforced** — against a capped intermediate
//!    tier, a tier-3 replay fails with
//!    [`MemoryError::TierCapacityExceeded`] while the same schedule at the
//!    default level sails through untouched.
//!
//! The A/B binary `ab_multilevel` gates 1 and 2 in CI on every push; this
//! test keeps them enforced under a plain `cargo test` as well.

use symla::matrix::generate::{
    random_lower_triangular, random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla::prelude::*;
use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
};
use symla_core::engine::{Engine, Schedule};
use symla_memory::{IoStats, Level, MemoryError, TieredMachine};
use symla_sched::EngineError;

/// A slow-memory operand in registration order (position = machine id).
#[derive(Clone, PartialEq)]
enum Mat {
    Dense(Matrix<f64>),
    Sym(SymMatrix<f64>),
}

struct Case {
    name: &'static str,
    memory: usize,
    schedule: Schedule<f64>,
    mats: Vec<Mat>,
}

fn insert_all(machine: &mut OocMachine<f64>, mats: &[Mat]) {
    for (i, mat) in mats.iter().enumerate() {
        let got = match mat {
            Mat::Dense(m) => machine.insert_dense(m.clone()),
            Mat::Sym(s) => machine.insert_symmetric(s.clone()),
        };
        assert_eq!(got, MatrixId::synthetic(i as u64));
    }
}

fn take_all(machine: &mut OocMachine<f64>, mats: &[Mat]) -> Vec<Mat> {
    mats.iter()
        .enumerate()
        .map(|(i, mat)| {
            let id = MatrixId::synthetic(i as u64);
            match mat {
                Mat::Dense(_) => Mat::Dense(machine.take_dense(id).unwrap()),
                Mat::Sym(_) => Mat::Sym(machine.take_symmetric(id).unwrap()),
            }
        })
        .collect()
}

impl Case {
    /// Plain replay through an [`OocMachine`]: results and stats.
    fn run_flat(&self) -> (Vec<Mat>, IoStats) {
        let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(self.memory));
        insert_all(&mut machine, &self.mats);
        Engine::execute(&mut machine, &self.schedule)
            .unwrap_or_else(|e| panic!("{}: flat replay: {e}", self.name));
        let stats = machine.stats().clone();
        (take_all(&mut machine, &self.mats), stats)
    }

    /// Replay through a [`TieredMachine`] with two uncapped deep tiers,
    /// optionally re-leveling every transfer first.
    fn run_tiered(&self, level: Option<Level>) -> (Vec<Mat>, IoStats) {
        let inner = OocMachine::<f64>::new(MachineConfig::with_capacity(self.memory));
        let mut machine = TieredMachine::new(inner).with_tier(None).with_tier(None);
        insert_all(machine.inner_mut(), &self.mats);
        let schedule = match level {
            Some(l) => self.schedule.with_transfer_level(l),
            None => self.schedule.clone(),
        };
        Engine::execute(&mut machine, &schedule)
            .unwrap_or_else(|e| panic!("{}: tiered replay: {e}", self.name));
        let stats = machine.inner().stats().clone();
        let mut inner = machine.into_inner();
        (take_all(&mut inner, &self.mats), stats)
    }
}

/// The eight schedule builders on small instances with real operands.
fn builder_cases() -> Vec<Case> {
    let (n, m, s) = (30, 6, 60);
    let a: Matrix<f64> = random_matrix_seeded(n, m, 9100);
    let c: SymMatrix<f64> = random_symmetric(n, &mut seeded_rng(9101));
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let update_mats = vec![Mat::Dense(a), Mat::Sym(c)];

    let spd: SymMatrix<f64> = random_spd_seeded(24, 9102);
    let window = SymWindowRef::full(MatrixId::synthetic(0), 24);

    let lfac = random_lower_triangular::<f64>(8, &mut seeded_rng(9103));
    let lsym = SymMatrix::from_lower_fn(8, |i, j| lfac.get(i, j));
    let x: Matrix<f64> = random_matrix_seeded(9, 8, 9104);

    let ga: Matrix<f64> = random_matrix_seeded(9, 7, 9105);
    let gb: Matrix<f64> = random_matrix_seeded(7, 11, 9106);
    let gc: Matrix<f64> = random_matrix_seeded(9, 11, 9107);

    let mut lu = random_matrix_seeded::<f64>(12, 12, 9108);
    for i in 0..12 {
        lu[(i, i)] += 12.0;
    }

    vec![
        Case {
            name: "ooc_syrk",
            memory: s,
            schedule: ooc_syrk_schedule(&a_ref, &c_ref, 1.5, &OocSyrkPlan::for_memory(s).unwrap())
                .unwrap(),
            mats: update_mats.clone(),
        },
        Case {
            name: "tbs",
            memory: s,
            schedule: tbs_schedule(&a_ref, &c_ref, -0.5, &TbsPlan::for_memory(s).unwrap()).unwrap(),
            mats: update_mats.clone(),
        },
        Case {
            name: "tbs_tiled",
            memory: s,
            schedule: tbs_schedule(&a_ref, &c_ref, 1.0, &TbsPlan::for_problem(s, n).unwrap())
                .unwrap(),
            mats: update_mats,
        },
        Case {
            name: "lbc",
            memory: 48,
            schedule: lbc_schedule(
                &SymWindowRef::full(MatrixId::synthetic(0), 36),
                &LbcPlan::for_problem(36, 48).unwrap(),
            )
            .unwrap(),
            mats: vec![Mat::Sym(random_spd_seeded(36, 9109))],
        },
        Case {
            name: "ooc_chol",
            memory: 35,
            schedule: ooc_chol_schedule(&window, &OocCholPlan::for_memory(35).unwrap()),
            mats: vec![Mat::Sym(spd)],
        },
        Case {
            name: "ooc_trsm",
            memory: 24,
            schedule: ooc_trsm_schedule(
                &SymWindowRef::full(MatrixId::synthetic(0), 8),
                &PanelRef::dense(MatrixId::synthetic(1), 9, 8),
                &OocTrsmPlan::for_memory(24).unwrap(),
            )
            .unwrap(),
            mats: vec![Mat::Sym(lsym), Mat::Dense(x)],
        },
        Case {
            name: "ooc_gemm",
            memory: 35,
            schedule: ooc_gemm_schedule(
                &PanelRef::dense(MatrixId::synthetic(0), 9, 7),
                &PanelRef::dense(MatrixId::synthetic(1), 7, 11),
                &PanelRef::dense(MatrixId::synthetic(2), 9, 11),
                1.0,
                &OocGemmPlan::for_memory(35).unwrap(),
            )
            .unwrap(),
            mats: vec![Mat::Dense(ga), Mat::Dense(gb), Mat::Dense(gc)],
        },
        Case {
            name: "ooc_lu",
            memory: 35,
            schedule: ooc_lu_schedule(
                &PanelRef::dense(MatrixId::synthetic(0), 12, 12),
                &OocLuPlan::for_memory(35).unwrap(),
            )
            .unwrap(),
            mats: vec![Mat::Dense(lu)],
        },
    ]
}

/// Invariant 1: a degenerate hierarchy changes nothing — bitwise results
/// and field-for-field IoStats (volume, events, peak, phases, levels).
#[test]
fn degenerate_hierarchy_is_invisible_for_every_builder() {
    for case in builder_cases() {
        let (flat_result, flat_stats) = case.run_flat();
        let (collapsed_result, collapsed_stats) = case.run_tiered(None);
        assert!(
            collapsed_result == flat_result,
            "{}: collapse result diverged",
            case.name
        );
        assert_eq!(collapsed_stats, flat_stats, "{}: collapse stats", case.name);
        // The flat replay never touches a non-default tier.
        assert_eq!(flat_stats.level(2), Default::default(), "{}", case.name);
    }
}

/// Invariant 2: re-leveling every transfer to tier 2 reproduces the
/// results bitwise, moves the same volume, and attributes all of it to
/// the tier.
#[test]
fn tier2_replay_is_bitwise_equal_and_fully_attributed() {
    let deep = Level::new(2);
    for case in builder_cases() {
        let (flat_result, flat_stats) = case.run_flat();
        let (leveled_result, leveled_stats) = case.run_tiered(Some(deep));
        assert!(
            leveled_result == flat_result,
            "{}: leveled result diverged",
            case.name
        );
        assert_eq!(
            leveled_stats.volume, flat_stats.volume,
            "{}: leveled total volume",
            case.name
        );
        let tier = leveled_stats.level(deep.raw());
        assert_eq!(
            tier.loads, flat_stats.volume.loads,
            "{}: tier loads",
            case.name
        );
        assert_eq!(
            tier.stores, flat_stats.volume.stores,
            "{}: tier stores",
            case.name
        );
    }
}

/// Invariant 3: a capped intermediate tier rejects tier-3 transfers with a
/// typed error, while the default-level schedule never touches the tier
/// stack and executes unchanged on the same machine shape.
#[test]
fn capped_staging_windows_reject_deep_transfers() {
    let case = &builder_cases()[0];

    // Tier 2 capped at zero elements: any tier-3 transfer must fail.
    let inner = OocMachine::<f64>::new(MachineConfig::with_capacity(case.memory));
    let mut machine = TieredMachine::new(inner).with_tier(Some(0)).with_tier(None);
    insert_all(machine.inner_mut(), &case.mats);
    let deep = case.schedule.with_transfer_level(Level::new(3));
    let err = Engine::execute(&mut machine, &deep).expect_err("capped tier accepted a transfer");
    assert!(
        matches!(
            err,
            EngineError::Memory(MemoryError::TierCapacityExceeded { level: 2, .. })
        ),
        "unexpected error: {err:?}"
    );

    // The same capped machine executes the default-level schedule in full:
    // level-1 transfers pass through no staging window.
    let inner = OocMachine::<f64>::new(MachineConfig::with_capacity(case.memory));
    let mut machine = TieredMachine::new(inner).with_tier(Some(0)).with_tier(None);
    insert_all(machine.inner_mut(), &case.mats);
    Engine::execute(&mut machine, &case.schedule).expect("default level hit the tier stack");
    let (flat_result, flat_stats) = case.run_flat();
    assert_eq!(machine.inner().stats(), &flat_stats, "capped-machine stats");
    let mut inner = machine.into_inner();
    assert!(
        take_all(&mut inner, &case.mats) == flat_result,
        "capped-machine result diverged"
    );
}
