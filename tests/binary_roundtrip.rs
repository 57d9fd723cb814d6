//! Integration sweep of the binary schedule serialization
//! (`Schedule::to_bytes` / `from_bytes`): every builder round-trips exactly,
//! the binary path agrees with the text dump/parse path, the kitchen-sink IR
//! (every region kind, every compute op) survives, and corrupted input of
//! any shape yields a typed [`BinaryError`] — never a panic and never a
//! silently wrong schedule.

use symla::prelude::*;
use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
};
use symla_matrix::kernels::FlopCount;
use symla_memory::MemoryError;
use symla_sched::{BinaryError, BufSlice, ComputeOp, EngineError, PrefetchPlan, FORMAT_VERSION};

/// The eight schedule builders on small, structurally interesting instances.
fn builder_schedules() -> Vec<(&'static str, Schedule<f64>)> {
    let (n, m, s) = (30, 5, 40);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    vec![
        (
            "ooc_syrk",
            ooc_syrk_schedule(&a_ref, &c_ref, 1.5, &OocSyrkPlan::for_memory(s).unwrap()).unwrap(),
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
    ]
}

/// `from_bytes(to_bytes(s)) == s` for every builder, the encoding is
/// deterministic, and the binary path reconstructs the same schedule as the
/// independent text dump/parse path.
#[test]
fn every_builder_round_trips_binary_and_matches_text_path() {
    let mut hashes = Vec::new();
    for (name, schedule) in builder_schedules() {
        let bytes = schedule.to_bytes();
        assert_eq!(bytes, schedule.to_bytes(), "{name}: encoding deterministic");
        let decoded = Schedule::<f64>::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, schedule, "{name}: binary round trip");

        let texted = Schedule::<f64>::parse(&schedule.dump())
            .unwrap_or_else(|e| panic!("{name}: text path: {e}"));
        assert_eq!(decoded, texted, "{name}: binary and text paths agree");

        hashes.push((name, schedule.content_hash()));
    }
    // The content hash separates the builders (and is intact after decode).
    for (i, (a_name, a_hash)) in hashes.iter().enumerate() {
        for (b_name, b_hash) in &hashes[i + 1..] {
            assert_ne!(a_hash, b_hash, "{a_name} vs {b_name}: hash collision");
        }
    }
}

/// A compiled prefetch plan rides along with its schedule and round-trips
/// exactly, at several lookaheads.
#[test]
fn prefetch_plan_rides_along_and_round_trips() {
    for (name, schedule) in builder_schedules() {
        for lookahead in [1usize, 2] {
            let plan = PrefetchPlan::plan(&schedule, lookahead, Some(64));
            let bytes = schedule.to_bytes_with_plan(&plan);
            let (decoded, decoded_plan) = Schedule::<f64>::from_bytes_with_plan(&bytes)
                .unwrap_or_else(|e| panic!("{name} L={lookahead}: {e}"));
            assert_eq!(decoded, schedule, "{name} L={lookahead}");
            assert_eq!(
                decoded_plan.as_ref(),
                Some(&plan),
                "{name} L={lookahead}: prefetch plan round trip"
            );
        }
        // Plain encoding decodes with no plan attached.
        let (_, none) = Schedule::<f64>::from_bytes_with_plan(&schedule.to_bytes()).unwrap();
        assert!(none.is_none(), "{name}: plain bytes carry no plan");
    }
}

/// A hand-built schedule exercising every region kind and every compute op
/// (beyond what any single builder emits) survives the binary round trip.
#[test]
fn kitchen_sink_ir_round_trips() {
    let a = MatrixId::synthetic(0);
    let c = MatrixId::synthetic(7);
    let mut b = ScheduleBuilder::<f64>::new();

    b.set_phase("phase one");
    let rect = b.load(
        a,
        Region::Rect {
            row0: 1,
            col0: 2,
            rows: 3,
            cols: 4,
        },
    );
    let rows = b.load(
        a,
        Region::Rows {
            rows: vec![0, 2, 5],
            col0: 1,
            cols: 2,
        },
    );
    let dst = b.alloc(
        c,
        Region::SymRect {
            row0: 4,
            col0: 0,
            rows: 2,
            cols: 2,
        },
    );
    b.compute(ComputeOp::Ger {
        alpha: -1.25,
        x: BufSlice::new(rect, 0, 2),
        y: BufSlice::whole(rows, 2),
        dst,
    });
    b.flops(FlopCount::new(4, 4));
    b.store(dst);
    b.discard(rect);
    b.discard(rows);

    b.begin_group();
    b.set_phase("phase two — ünïcode");
    let tri = b.load(c, Region::SymLowerTriangle { start: 0, size: 3 });
    let pairs = b.load(
        c,
        Region::SymPairs {
            rows: vec![1, 3, 6],
        },
    );
    let srows = b.load(
        c,
        Region::SymRows {
            rows: vec![2, 4],
            col0: 0,
            cols: 2,
        },
    );
    b.compute(ComputeOp::SprLower {
        alpha: 0.5,
        x: BufSlice::new(srows, 0, 3),
        dst: tri,
    });
    b.compute(ComputeOp::TrianglePairs {
        alpha: 2.0,
        x: BufSlice::whole(srows, 3),
        dst: pairs,
    });
    b.compute(ComputeOp::CholeskyInPlace {
        dst: tri,
        pivot_base: 9,
    });
    b.compute(ComputeOp::LuInPlace {
        dst: pairs,
        pivot_base: 11,
    });
    b.compute(ComputeOp::TrsmRightStep {
        seg: srows,
        dst: tri,
        col: 1,
        pivot: 3,
    });
    b.compute(ComputeOp::LuColSolveStep {
        seg: srows,
        dst: pairs,
        col: 0,
        pivot: 5,
    });
    b.compute(ComputeOp::LuRowElimStep {
        seg: srows,
        dst: tri,
        row: 2,
    });
    b.flops(FlopCount::new(123_456_789_012_345, 987));
    b.store(tri);
    b.discard(pairs);
    b.discard(srows);
    let schedule = b.finish();

    let bytes = schedule.to_bytes();
    let decoded = Schedule::<f64>::from_bytes(&bytes).unwrap();
    assert_eq!(decoded, schedule);
    // The text path carries the same IR surface.
    let texted = Schedule::<f64>::parse(&schedule.dump()).unwrap();
    assert_eq!(texted, schedule);
}

/// Leveled variants of every builder round-trip in both formats, encode as
/// container version 2, and collapsing back to the default level restores
/// the exact version-1 bytes an older build would have written.
#[test]
fn leveled_builders_round_trip_and_collapse_to_v1_bytes() {
    use symla_memory::Level;
    for (name, schedule) in builder_schedules() {
        let flat_bytes = schedule.to_bytes();
        assert_eq!(flat_bytes[4..6], [1, 0], "{name}: two-level encodes v1");

        let leveled = schedule.with_transfer_level(Level::new(3));
        assert!(leveled.is_leveled(), "{name}");
        let bytes = leveled.to_bytes();
        assert_eq!(bytes[4..6], [2, 0], "{name}: leveled encodes v2");
        let decoded = Schedule::<f64>::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, leveled, "{name}: binary round trip");
        let texted = Schedule::<f64>::parse(&leveled.dump())
            .unwrap_or_else(|e| panic!("{name}: text path: {e}"));
        assert_eq!(texted, leveled, "{name}: text round trip");

        // Collapsing the hierarchy restores the pre-hierarchy encodings
        // byte for byte, in both formats.
        let collapsed = leveled.with_transfer_level(Level::default());
        assert_eq!(collapsed.to_bytes(), flat_bytes, "{name}: bytes collapse");
        assert_eq!(collapsed.dump(), schedule.dump(), "{name}: dump collapses");
    }
}

/// Version cross-parsing: a v1 dump parses under a v2 header (versions are
/// upper bounds, not exact matches), and the binary v1/v2 tag sets decode
/// to the same steps where they overlap.
#[test]
fn v1_dumps_parse_under_a_v2_header() {
    for (name, schedule) in builder_schedules() {
        let dump = schedule.dump();
        assert!(dump.starts_with("symla-schedule text v1\n"), "{name}");
        let relabeled = dump.replacen("v1", "v2", 1);
        let parsed = Schedule::<f64>::parse(&relabeled)
            .unwrap_or_else(|e| panic!("{name}: v2-relabeled dump: {e}"));
        assert_eq!(parsed, schedule, "{name}: header version is an upper bound");
    }
}

/// The leveled TLV tags (7/8) survive the corruption sweep like the rest of
/// the format: every strict prefix is rejected with a typed error and no
/// single-byte flip anywhere in a leveled encoding can panic the decoder —
/// including flips that land on the trailing level byte itself.
#[test]
fn leveled_encoding_survives_the_corruption_sweep() {
    use symla_memory::Level;
    let (_, schedule) = builder_schedules().swap_remove(0);
    let leveled = schedule.with_transfer_level(Level::new(2));
    let bytes = leveled.to_bytes();

    for cut in 0..bytes.len() {
        let err = Schedule::<f64>::from_bytes(&bytes[..cut])
            .expect_err(&format!("leveled prefix of {cut} bytes decoded"));
        assert!(
            matches!(
                err,
                BinaryError::Truncated { .. }
                    | BinaryError::BadMagic(_)
                    | BinaryError::Corrupt { .. }
            ),
            "leveled prefix {cut}: unexpected error {err:?}"
        );
    }

    for mask in [0x40u8, 0x01] {
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= mask;
            let _ = Schedule::<f64>::from_bytes(&flipped);
        }
    }
}

/// Corrupted input always yields a typed error: truncation at *every*
/// prefix, bad magic, a future format version, a scalar-width mismatch and
/// trailing garbage all report the matching [`BinaryError`] variant, and
/// single-byte corruption anywhere never panics.
/// A decoded load whose region end overflows `usize` is out of bounds for
/// the serial machine and for a parallel worker alike: a typed error with
/// nothing left resident or leased, not a wrapped index into the matrix.
#[test]
fn decoded_regions_whose_end_overflows_replay_as_typed_errors() {
    let out_of_bounds = |e: &EngineError| {
        matches!(
            e,
            EngineError::Memory(MemoryError::RegionOutOfBounds { .. })
        )
    };
    for region in [
        Region::rect(usize::MAX, 0, 2, 1),
        Region::Rows {
            rows: vec![0],
            col0: usize::MAX,
            cols: 2,
        },
    ] {
        let mut b = ScheduleBuilder::<f64>::new();
        let buf = b.load(MatrixId::synthetic(0), region.clone());
        b.store(buf);
        let schedule = Schedule::<f64>::from_bytes(&b.finish().to_bytes()).unwrap();

        let mut machine = OocMachine::with_capacity(16);
        let id = machine.insert_dense(Matrix::zeros(4, 4));
        let err = Engine::execute(&mut machine, &schedule).unwrap_err();
        assert!(out_of_bounds(&err), "{region}: {err}");
        assert_eq!(machine.resident(), 0);
        assert!(machine.take_dense(id).is_ok(), "{region}: no lease left");

        let shared = SharedSlowMemory::new();
        let id = shared.insert_dense(Matrix::<f64>::zeros(4, 4));
        let config = MachineConfig::with_capacity(16);
        let err = Engine::execute_parallel(&shared, &schedule, 1, config, "main").unwrap_err();
        assert!(out_of_bounds(&err.error), "{region}: {err}");
        assert_eq!(err.runs[0].stats.volume.total(), 0);
        assert!(shared.take_dense(id).is_ok(), "{region}: no lease left");
    }
}

#[test]
fn corruption_reports_typed_errors_and_never_panics() {
    let (_, schedule) = builder_schedules().swap_remove(0);
    let bytes = schedule.to_bytes();

    // Every strict prefix is rejected (nothing decodes "by luck").
    for cut in 0..bytes.len() {
        let err = Schedule::<f64>::from_bytes(&bytes[..cut])
            .expect_err(&format!("prefix of {cut} bytes decoded"));
        assert!(
            matches!(
                err,
                BinaryError::Truncated { .. }
                    | BinaryError::BadMagic(_)
                    | BinaryError::Corrupt { .. }
            ),
            "prefix {cut}: unexpected error {err:?}"
        );
    }

    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        Schedule::<f64>::from_bytes(&bad),
        Err(BinaryError::BadMagic(_))
    ));

    // A future format version is refused, not misread.
    let mut future = bytes.clone();
    future[4] = 0xff;
    future[5] = 0xff;
    match Schedule::<f64>::from_bytes(&future) {
        Err(BinaryError::UnsupportedVersion(v)) => assert!(v > FORMAT_VERSION),
        other => panic!("future version decoded as {other:?}"),
    }

    // f64-encoded bytes refuse an f32 decoder.
    match Schedule::<f32>::from_bytes(&bytes) {
        Err(BinaryError::ScalarWidthMismatch { expected, found }) => {
            assert_eq!((expected, found), (4, 8));
        }
        other => panic!("width mismatch decoded as {other:?}"),
    }

    // Trailing garbage is corrupt, not ignored.
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(matches!(
        Schedule::<f64>::from_bytes(&trailing),
        Err(BinaryError::Corrupt { .. })
    ));

    // Flipping any single byte either fails with a typed error or decodes
    // into *some* schedule — but never panics. (A flip in a scalar payload
    // can legitimately decode; structural bytes must not.)
    for pos in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x40;
        let _ = Schedule::<f64>::from_bytes(&flipped);
    }
}
