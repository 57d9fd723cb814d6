//! Wall-clock as a first-class metric: price a schedule in modelled
//! nanoseconds, execute it under a latency-modelled machine, and watch the
//! prefetch lookahead turn stalled I/O time into hidden time.
//!
//! ```text
//! cargo run --release --example wallclock
//! ```
//!
//! The element-exact `IoStats` say how *much* data moves; the
//! [`MachineModel`] says how *long* it takes. A [`LatencyMachine`] wraps any
//! machine and charges modelled nanoseconds per transfer and per flop as the
//! engine replays — and `modelled_time` prices the same schedule statically,
//! without executing anything. The two agree bitwise, so the wall-clock
//! column of a report is as trustworthy (and as CI-gateable) as the element
//! counts. Prefetched loads are charged against the issuing group's compute:
//! per window the model hides `min(prefetch, compute)`, which is where the
//! lookahead's speedup comes from.

use symla::prelude::*;

fn main() {
    let n = 96;
    let m = 16;
    let s = 160;
    let a = generate::random_matrix_seeded::<f64>(n, m, 11);

    // An NVMe-backed slow memory: ~8 ns per loaded element, ~10 ns per
    // stored element, a 4 µs setup cost per transfer, 0.25 ns per flop.
    let model = MachineModel::nvme();

    println!("Timed out-of-core SYRK, N = {n}, M = {m}, S = {s} (NVMe model)");
    println!();
    println!(
        "{:<12} {:>2} {:>14} {:>12} {:>12} {:>8}",
        "algorithm", "L", "modelled ns", "io ns", "hidden ns", "speedup"
    );

    for algorithm in [SyrkAlgorithm::Tbs, SyrkAlgorithm::TbsTiled] {
        let mut serial_ns = 0.0;
        for lookahead in [0usize, 1, 2] {
            let mut c = SymMatrix::<f64>::zeros(n);
            let options = RunOptions::new().lookahead(lookahead).priced(&model);
            let run = syrk_out_of_core_with(&a, &mut c, 1.0, s, algorithm, &options).unwrap();
            let wall = run.clock.expect("a priced run reports its clock");

            // The static price and the measured model time agree bitwise.
            assert!(wall.consistent());
            let t = wall.measured;
            if lookahead == 0 {
                serial_ns = t.total_ns();
            }
            println!(
                "{:<12} {:>2} {:>14.1} {:>12.1} {:>12.1} {:>7.3}x",
                format!("{algorithm:?}"),
                lookahead,
                t.total_ns(),
                t.io_ns,
                t.hidden_ns,
                serial_ns / t.total_ns(),
            );
        }
        println!();
    }

    // The same model also prices a schedule you never execute: plan TBS for
    // a bigger instance and ask what a lookahead of 1 would buy.
    let (big_n, big_m, big_s) = (256, 32, 400);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), big_n, big_m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), big_n);
    let schedule =
        tbs_schedule::<f64>(&a_ref, &c_ref, 1.0, &TbsPlan::for_memory(big_s).unwrap()).unwrap();
    let serial = modelled_time(&schedule, &model, 0, Some(big_s));
    let overlapped = modelled_time(&schedule, &model, 1, Some(big_s));
    println!(
        "static price, TBS N = {big_n}: serial {:.0} ns, lookahead 1 hides {:.0} ns ({:.4}x)",
        serial.total_ns(),
        overlapped.hidden_ns,
        serial.total_ns() / overlapped.total_ns(),
    );
}
