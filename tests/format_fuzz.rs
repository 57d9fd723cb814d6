//! Seeded fuzz sweep of the serialization formats: random byte mutations,
//! truncations and splices of `Schedule::to_bytes` (with and without an
//! attached prefetch plan) must never panic — every input either decodes
//! into *some* well-formed schedule or reports a typed [`BinaryError`] — and
//! the text `dump()` path survives the same treatment through `parse()`.
//! Whenever a corrupted input does decode, re-encoding it must round-trip,
//! i.e. the decoder never fabricates a schedule it cannot itself represent,
//! and replaying it at lookahead 0 against the builder's operands must end
//! in `Ok` or a typed error with nothing left resident.
//!
//! This extends the fixed corruption cases of `binary_roundtrip.rs` with a
//! deterministic (seeded) randomized sweep across every builder's encoding.

use symla::prelude::*;
use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
};
use symla_matrix::generate::{random_matrix_seeded, random_spd_seeded, seeded_rng};
use symla_sched::{EngineError, PrefetchPlan};

/// A slow-memory operand of a builder's instance.
enum Operand {
    Dense(Matrix<f64>),
    Sym(SymMatrix<f64>),
}

/// One builder's schedule on a small, structurally interesting instance,
/// with the operands it was built against (in synthetic-id order) and the
/// fast-memory capacity it was planned for.
struct Instance {
    name: &'static str,
    schedule: Schedule<f64>,
    operands: Vec<Operand>,
    capacity: usize,
}

/// The builders' instances.
fn instances() -> Vec<Instance> {
    let (n, m, s) = (30, 5, 40);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    let update = || {
        vec![
            Operand::Dense(random_matrix_seeded(n, m, 1)),
            Operand::Sym(random_spd_seeded(n, 2)),
        ]
    };
    let factor = || vec![Operand::Sym(random_spd_seeded(n, 3))];
    let instance = |name, schedule, operands, capacity| Instance {
        name,
        schedule,
        operands,
        capacity,
    };
    vec![
        instance(
            "ooc_syrk",
            ooc_syrk_schedule(&a_ref, &c_ref, 1.5, &OocSyrkPlan::for_memory(s).unwrap()).unwrap(),
            update(),
            s,
        ),
        instance(
            "tbs",
            tbs_schedule(&a_ref, &c_ref, -0.5, &TbsPlan::for_memory(s).unwrap()).unwrap(),
            update(),
            s,
        ),
        instance(
            "tbs_tiled",
            tbs_schedule(&a_ref, &c_ref, 1.0, &TbsPlan::for_problem(s, n).unwrap()).unwrap(),
            update(),
            s,
        ),
        instance(
            "lbc",
            lbc_schedule(&window, &LbcPlan::paper(n, s).unwrap()).unwrap(),
            factor(),
            s,
        ),
        instance(
            "ooc_chol",
            ooc_chol_schedule(&window, &OocCholPlan::for_memory(s).unwrap()),
            factor(),
            s,
        ),
        instance(
            "ooc_trsm",
            ooc_trsm_schedule(
                &SymWindowRef::full(MatrixId::synthetic(0), 8),
                &PanelRef::dense(MatrixId::synthetic(1), 9, 8),
                &OocTrsmPlan::for_memory(24).unwrap(),
            )
            .unwrap(),
            vec![
                Operand::Sym(random_spd_seeded(8, 4)),
                Operand::Dense(random_matrix_seeded(9, 8, 5)),
            ],
            24,
        ),
        instance(
            "ooc_gemm",
            ooc_gemm_schedule(
                &PanelRef::dense(MatrixId::synthetic(0), 9, 7),
                &PanelRef::dense(MatrixId::synthetic(1), 7, 11),
                &PanelRef::dense(MatrixId::synthetic(2), 9, 11),
                1.0,
                &OocGemmPlan::for_memory(35).unwrap(),
            )
            .unwrap(),
            vec![
                Operand::Dense(random_matrix_seeded(9, 7, 6)),
                Operand::Dense(random_matrix_seeded(7, 11, 7)),
                Operand::Dense(random_matrix_seeded(9, 11, 8)),
            ],
            35,
        ),
        instance(
            "ooc_lu",
            ooc_lu_schedule(
                &PanelRef::dense(MatrixId::synthetic(0), 12, 12),
                &OocLuPlan::for_memory(35).unwrap(),
            )
            .unwrap(),
            vec![Operand::Dense(random_matrix_seeded(12, 12, 9))],
            35,
        ),
    ]
}

/// Decoding `bytes` must either fail with a typed error or produce a
/// schedule the encoder can reproduce exactly (no "unrepresentable"
/// schedules leak out of the decoder) and that replays cleanly.
fn assert_decode_is_total(inst: &Instance, tag: &str, bytes: &[u8]) {
    let name = inst.name;
    if let Ok(decoded) = Schedule::<f64>::from_bytes(bytes) {
        let reencoded = decoded.to_bytes();
        let again = Schedule::<f64>::from_bytes(&reencoded)
            .unwrap_or_else(|e| panic!("{name}/{tag}: re-encode of accepted input failed: {e}"));
        assert_eq!(again, decoded, "{name}/{tag}: accepted input round-trips");
        let _ = assert_replay_is_clean(inst, tag, &decoded);
    }
    // The plan-carrying decoder must be equally total on the same input.
    if let Ok((decoded, plan)) = Schedule::<f64>::from_bytes_with_plan(bytes) {
        let reencoded = match &plan {
            Some(p) => decoded.to_bytes_with_plan(p),
            None => decoded.to_bytes(),
        };
        let (again, plan_again) = Schedule::<f64>::from_bytes_with_plan(&reencoded)
            .unwrap_or_else(|e| panic!("{name}/{tag}: plan re-encode failed: {e}"));
        assert_eq!(again, decoded, "{name}/{tag}: plan path round-trips");
        assert_eq!(plan_again, plan, "{name}/{tag}: plan survives");
    }
}

/// Replays an accepted input at lookahead 0 on a fresh machine holding the
/// instance's operands: the replay returns `Ok` or a typed error (a panic
/// fails the test) and leaves nothing resident either way.
fn assert_replay_is_clean(
    inst: &Instance,
    tag: &str,
    schedule: &Schedule<f64>,
) -> Result<(), EngineError> {
    let mut machine = OocMachine::with_capacity(inst.capacity);
    for operand in &inst.operands {
        match operand {
            Operand::Dense(m) => machine.insert_dense(m.clone()),
            Operand::Sym(s) => machine.insert_symmetric(s.clone()),
        };
    }
    let outcome = Engine::execute(&mut machine, schedule);
    assert_eq!(
        machine.resident(),
        0,
        "{}/{tag}: replay ({outcome:?}) left elements resident",
        inst.name
    );
    outcome
}

/// Random single- and multi-byte mutations of every builder's encoding
/// never panic; accepted mutants round-trip.
#[test]
fn random_mutations_never_panic() {
    let mut rng = seeded_rng(0xF0221);
    for inst in instances() {
        let schedule = &inst.schedule;
        // The unmutated instance replays, so the mutants' errors are theirs.
        assert_replay_is_clean(&inst, "seed", schedule).unwrap();
        for bytes in [
            schedule.to_bytes(),
            schedule.to_bytes_with_plan(&PrefetchPlan::plan(schedule, 2, Some(64))),
        ] {
            for round in 0..200 {
                let mut mutated = bytes.clone();
                // 1..=4 independent byte mutations per round.
                let hits = 1 + (rng.next_u64() % 4) as usize;
                for _ in 0..hits {
                    let pos = (rng.next_u64() % bytes.len() as u64) as usize;
                    mutated[pos] = rng.next_u64() as u8;
                }
                assert_decode_is_total(&inst, &format!("mutate round {round}"), &mutated);
            }
        }
    }
}

/// Random truncations (including to the empty input) and random-tail
/// extensions never panic; every strict truncation of a valid encoding that
/// still decodes must round-trip.
#[test]
fn random_truncations_and_extensions_never_panic() {
    let mut rng = seeded_rng(0xF0222);
    for inst in instances() {
        let bytes = inst.schedule.to_bytes();
        for round in 0..200 {
            let cut = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
            assert_decode_is_total(&inst, &format!("truncate to {cut}"), &bytes[..cut]);

            let mut extended = bytes.clone();
            let tail = (rng.next_u64() % 16) as usize + 1;
            for _ in 0..tail {
                extended.push(rng.next_u64() as u8);
            }
            assert_decode_is_total(&inst, &format!("extend round {round}"), &extended);
        }
    }
}

/// Random splices — a window of one builder's encoding pasted into
/// another's — never panic. This is the shape of corruption a partial file
/// write or a cache collision would produce.
#[test]
fn random_splices_never_panic() {
    let mut rng = seeded_rng(0xF0223);
    let instances = instances();
    let encodings: Vec<(&Instance, Vec<u8>)> = instances
        .iter()
        .map(|inst| (inst, inst.schedule.to_bytes()))
        .collect();
    for round in 0..400 {
        let (a_inst, a) = &encodings[(rng.next_u64() % encodings.len() as u64) as usize];
        let (_, b) = &encodings[(rng.next_u64() % encodings.len() as u64) as usize];
        let mut spliced = a.clone();
        let dst = (rng.next_u64() % a.len() as u64) as usize;
        let src = (rng.next_u64() % b.len() as u64) as usize;
        let len = (rng.next_u64() % 64) as usize + 1;
        for i in 0..len {
            if dst + i >= spliced.len() || src + i >= b.len() {
                break;
            }
            spliced[dst + i] = b[src + i];
        }
        assert_decode_is_total(a_inst, &format!("splice round {round}"), &spliced);
    }
}

/// The leveled (container v2) encodings fuzz like the flat ones: random
/// mutations of every builder's tier-3 variant — which exercises the
/// leveled Load/Store TLV tags and the v2 text header — never panic, and
/// accepted mutants round-trip. Mutations that land on a level byte must
/// decode into *some* level (levels are total over `u8`), never panic.
#[test]
fn leveled_encodings_fuzz_like_flat_ones() {
    use symla_memory::Level;
    let mut rng = seeded_rng(0xF0225);
    for inst in instances() {
        let name = inst.name;
        let leveled = inst.schedule.with_transfer_level(Level::new(3));
        let bytes = leveled.to_bytes();
        let text = leveled.dump();
        for round in 0..150 {
            // Binary: 1..=4 byte mutations per round.
            let mut mutated = bytes.clone();
            let hits = 1 + (rng.next_u64() % 4) as usize;
            for _ in 0..hits {
                let pos = (rng.next_u64() % bytes.len() as u64) as usize;
                mutated[pos] = rng.next_u64() as u8;
            }
            assert_decode_is_total(&inst, &format!("leveled mutate round {round}"), &mutated);

            // Binary: random truncation.
            let cut = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
            assert_decode_is_total(&inst, &format!("leveled truncate to {cut}"), &bytes[..cut]);

            // Text: mutate a handful of characters of the v2 dump. The
            // replacement alphabet includes `@` and `l` so the ` @l3`
            // suffixes themselves get corrupted, not just the step bodies.
            let mut chars: Vec<char> = text.chars().collect();
            for _ in 0..4 {
                let pos = (rng.next_u64() % chars.len() as u64) as usize;
                chars[pos] = b" 0123456789azAZ#:x,-@l"[(rng.next_u64() % 22) as usize] as char;
            }
            let mutated_text: String = chars.into_iter().collect();
            if let Ok(parsed) = Schedule::<f64>::parse(&mutated_text) {
                let redumped = parsed.dump();
                let again = Schedule::<f64>::parse(&redumped).unwrap_or_else(|e| {
                    panic!("{name}: leveled round {round}: accepted text failed to re-parse: {e}")
                });
                assert_eq!(
                    again, parsed,
                    "{name}: leveled round {round}: text round trip"
                );
            }
        }
    }
}

/// The text path is equally total: random character mutations, line drops,
/// line duplications and truncations of `dump()` either parse into a
/// schedule whose own dump re-parses, or report a typed parse error — never
/// a panic.
#[test]
fn text_dump_fuzz_never_panics() {
    let mut rng = seeded_rng(0xF0224);
    for inst in instances() {
        let name = inst.name;
        let text = inst.schedule.dump();
        let lines: Vec<&str> = text.lines().collect();
        for round in 0..200 {
            let mutated: String = match round % 4 {
                // Mutate a handful of characters.
                0 => {
                    let mut chars: Vec<char> = text.chars().collect();
                    for _ in 0..4 {
                        let pos = (rng.next_u64() % chars.len() as u64) as usize;
                        let replacement =
                            b" 0123456789azAZ#:x,-"[(rng.next_u64() % 20) as usize] as char;
                        chars[pos] = replacement;
                    }
                    chars.into_iter().collect()
                }
                // Drop a random line.
                1 => {
                    let drop = (rng.next_u64() % lines.len() as u64) as usize;
                    lines
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != drop)
                        .map(|(_, l)| *l)
                        .collect::<Vec<_>>()
                        .join("\n")
                }
                // Duplicate a random line in place.
                2 => {
                    let dup = (rng.next_u64() % lines.len() as u64) as usize;
                    let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
                    for (i, l) in lines.iter().enumerate() {
                        out.push(l);
                        if i == dup {
                            out.push(l);
                        }
                    }
                    out.join("\n")
                }
                // Truncate mid-character-stream.
                _ => {
                    let cut = (rng.next_u64() % (text.len() as u64 + 1)) as usize;
                    let mut cut = cut;
                    while !text.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    text[..cut].to_string()
                }
            };
            if let Ok(parsed) = Schedule::<f64>::parse(&mutated) {
                let redumped = parsed.dump();
                let again = Schedule::<f64>::parse(&redumped).unwrap_or_else(|e| {
                    panic!("{name}: round {round}: accepted text failed to re-parse: {e}")
                });
                assert_eq!(again, parsed, "{name}: round {round}: text round trip");
            }
        }
    }
}
