//! Experiment harness of the `symla` workspace.
//!
//! Every quantitative claim of the SPAA'22 paper is regenerated by one of the
//! experiment functions below, whose doc comments say which part of the
//! paper each one covers. Each function returns one or more [`Table`]s; the
//! `experiments` binary prints them, and CI runs it for every experiment
//! id.
//!
//! Two measurement modes are used and clearly labelled:
//!
//! * **executed** — the schedule really runs on data inside the
//!   capacity-enforced machine model of `symla-memory`; the reported numbers
//!   are the machine's counters;
//! * **analytic** — the schedule's cost model is evaluated (exact loop-level
//!   mirror of the executor, unit-tested to match executed runs element for
//!   element); used for sizes where executing element-granularity schedules
//!   would be needlessly slow.

#![warn(missing_docs)]

pub mod harness;

use std::fmt::Write as _;

use symla_baselines::{
    ooc_chol_cost, ooc_gemm_cost, ooc_lu_cost, ooc_syrk_cost, OocCholPlan, OocGemmPlan, OocLuPlan,
    OocSyrkPlan,
};
use symla_core::api::{
    cholesky_out_of_core, syrk_out_of_core, syrk_out_of_core_with, CholeskyAlgorithm, RunOptions,
    SyrkAlgorithm,
};
use symla_core::bounds::{self, LbcTermBreakdown};
use symla_core::{
    lbc_cost, lbc_cost_breakdown, tbs_cost, tbs_decomposition, LbcPlan, TbsPlan, TrailingUpdate,
};
use symla_matrix::generate;
use symla_matrix::SymMatrix;
use symla_memory::cache::{
    simulate_lru, simulate_opt, syrk_blocked_access_stream, syrk_naive_access_stream,
};
use symla_sched::opt::{best_integer_balanced, max_subcomputation_bound, relaxed_optimum_value};
use symla_sched::TbsPartition;

/// A printable experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier (e.g. `"E2"`).
    pub id: String,
    /// Human-readable title, including the fixed parameters.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed below the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Appends a note.
    pub fn push_note(&mut self, note: &str) {
        self.notes.push(note.to_string());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let mut header_line = String::new();
        for (h, w) in self.headers.iter().zip(widths.iter()) {
            let _ = write!(header_line, "{h:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", header_line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header_line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(widths.iter()) {
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }
}

fn fmt_u(v: u128) -> String {
    v.to_string()
}

fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 {
        format!("{v:.3e}")
    } else {
        format!("{v:.1}")
    }
}

fn fmt_ratio(v: f64) -> String {
    format!("{v:.4}")
}

/// All experiment identifiers, in order.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e11", "e12",
    ]
}

/// Runs an experiment by identifier; returns `None` for unknown identifiers.
pub fn run_experiment(id: &str) -> Option<Vec<Table>> {
    match id.to_ascii_lowercase().as_str() {
        "e1" => Some(vec![e1_operational_intensity()]),
        "e2" => Some(vec![e2_syrk_io()]),
        "e3" => Some(vec![e3_cholesky_io()]),
        "e4" => Some(vec![e4_asymptotic_constants()]),
        "e5" => Some(vec![e5_partition_structure()]),
        "e6" => Some(vec![e6_tiled_tradeoff()]),
        "e7" => Some(vec![e7_lbc_blocksize()]),
        "e8" => Some(vec![e8_memory_sweep()]),
        "e9" => Some(vec![e9_max_subcomputation()]),
        "e11" => Some(vec![e11_cache_ablation()]),
        "e12" => Some(vec![e12_parallel()]),
        _ => None,
    }
}

/// E1 — maximal operational intensity of the four kernels (the paper's
/// introduction / conclusion comparison), plus the intensity actually
/// achieved by the best schedule of this workspace (analytic, large size).
pub fn e1_operational_intensity() -> Table {
    let s = 4096;
    let n = 65_536;
    let mut table = Table::new(
        "E1",
        &format!("Operational intensity (mults per transferred element), S = {s}, N = M = {n}"),
        &[
            "kernel",
            "max OI (bound)",
            "theory",
            "best schedule",
            "achieved OI",
            "achieved/max",
        ],
    );
    let oi_rows = symla_core::oi::oi_table(n, s);

    // achieved OI of the best schedules (analytic costs, loads only)
    let nf = n as f64;
    let tbs_plan = TbsPlan::for_memory(s).expect("plan");
    let tbs = tbs_cost(n, n, &tbs_plan).expect("cost");
    let tbs_oi = tbs.flops.mults as f64 / tbs.loads as f64;

    let lbc_plan = LbcPlan::paper(n, s).expect("plan");
    let lbc = lbc_cost(n, &lbc_plan).expect("cost");
    let lbc_oi = lbc.flops.mults as f64 / lbc.loads as f64;

    let gemm = ooc_gemm_cost(n, n, n, &OocGemmPlan::for_memory(s).expect("plan"));
    let gemm_oi = gemm.flops.mults as f64 / gemm.loads as f64;

    let lu = ooc_lu_cost(n, &OocLuPlan::for_memory(s).expect("plan"));
    let lu_oi = lu.flops.mults as f64 / lu.loads as f64;

    let achieved = [
        ("OOC_GEMM", gemm_oi),
        ("OOC_LU", lu_oi),
        ("TBS", tbs_oi),
        ("LBC", lbc_oi),
    ];
    for (row, (sched, oi)) in oi_rows.iter().zip(achieved.iter()) {
        table.push_row(vec![
            row.kernel.name().to_string(),
            fmt_ratio(row.max_oi),
            if row.kernel.is_symmetric() {
                "sqrt(S/2)".to_string()
            } else {
                "sqrt(S)/2".to_string()
            },
            sched.to_string(),
            fmt_ratio(*oi),
            fmt_ratio(oi / row.max_oi),
        ]);
    }
    table.push_note(&format!(
        "symmetric / non-symmetric max-OI ratio = {:.4} (paper: sqrt(2) = {:.4})",
        symla_core::oi::symmetric_advantage(&oi_rows),
        std::f64::consts::SQRT_2
    ));
    table.push_note(&format!(
        "nf sanity: N^3 mults of GEMM = {:.3e}",
        nf * nf * nf
    ));
    table
}

/// E2 — SYRK I/O volume vs N (Corollary 4.7 + Theorem 5.6): executed runs for
/// moderate sizes, analytic for the larger ones.
pub fn e2_syrk_io() -> Table {
    let s = 36;
    let mut table = Table::new(
        "E2",
        &format!("SYRK I/O volume (loads, elements) vs N; S = {s}, M = N/4"),
        &[
            "N",
            "M",
            "mode",
            "OOC_SYRK",
            "TBS(tiled,k=4)",
            "TBS",
            "LB(paper)",
            "LB(prior)",
            "TBS/LB",
            "OOC/LB",
        ],
    );
    let sq_plan = OocSyrkPlan::for_memory(s).expect("plan");
    let tbs_plan = TbsPlan::for_memory(s).expect("plan");
    // A fixed k = 4 tiled plan: it engages much earlier than the element
    // schedule and pays the sqrt(4/3) overhead of Section 5.1.4, which is
    // exactly the band the table is meant to show. (The automatic planner
    // would pick k = 8, b = 1 — i.e. the element-level schedule — at this S.)
    let tiled_b = TbsPlan::max_tile_for(4, s).expect("tile");
    let tiled_plan = TbsPlan::with_params(4, tiled_b).expect("plan");

    for &n in &[96_usize, 192, 256, 512, 1024, 2048, 4096, 8192] {
        let m = n / 4;
        let executed = n <= 256;
        let (ooc, tiled, tbs) = if executed {
            let a = generate::random_matrix_seeded::<f64>(n, m, n as u64);
            let mut loads = Vec::new();
            for algo in [SyrkAlgorithm::SquareBlocks, SyrkAlgorithm::Tbs] {
                let mut c = SymMatrix::<f64>::zeros(n);
                let report = syrk_out_of_core(&a, &mut c, 1.0, s, algo).expect("run");
                assert!(report.prediction_matches());
                loads.push(report.measured_loads() as u128);
            }
            // run the fixed-k tiled plan through the machine directly
            let tiled_loads = {
                let a_m = generate::random_matrix_seeded::<f64>(n, m, n as u64);
                let mut machine = symla_memory::OocMachine::<f64>::with_capacity(s);
                let a_id = machine.insert_dense(a_m);
                let c_id = machine.insert_symmetric(SymMatrix::zeros(n));
                symla_core::tbs_execute(
                    &mut machine,
                    &symla_memory::PanelRef::dense(a_id, n, m),
                    &symla_memory::SymWindowRef::full(c_id, n),
                    1.0,
                    &tiled_plan,
                )
                .expect("tiled run");
                machine.stats().volume.loads as u128
            };
            (loads[0], tiled_loads, loads[1])
        } else {
            (
                ooc_syrk_cost(n, m, &sq_plan).loads,
                tbs_cost(n, m, &tiled_plan).expect("cost").loads,
                tbs_cost(n, m, &tbs_plan).expect("cost").loads,
            )
        };
        let lb = bounds::syrk_lower_bound(n as f64, m as f64, s as f64);
        let lb_prior = bounds::syrk_lower_bound_prior(n as f64, m as f64, s as f64);
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            if executed { "executed" } else { "analytic" }.to_string(),
            fmt_u(ooc),
            fmt_u(tiled),
            fmt_u(tbs),
            fmt_f(lb),
            fmt_f(lb_prior),
            fmt_ratio(tbs as f64 / lb),
            fmt_ratio(ooc as f64 / lb),
        ]);
    }
    table.push_note("executed and analytic modes are unit-tested to agree exactly");
    table.push_note("element-level TBS engages its triangle phase once N >~ 2S (here N >= 72)");
    table
}

/// E3 — Cholesky I/O volume vs N (Corollary 4.8 + Theorem 5.7).
pub fn e3_cholesky_io() -> Table {
    let s = 36;
    let mut table = Table::new(
        "E3",
        &format!("Cholesky I/O volume (loads, elements) vs N; S = {s}"),
        &[
            "N",
            "mode",
            "OOC_CHOL",
            "LBC(square)",
            "LBC",
            "LB(paper)",
            "LB(prior)",
            "LBC/LB",
            "OOC/LB",
        ],
    );
    for &n in &[96_usize, 192, 288, 768, 1536, 3072, 6144] {
        let executed = n <= 288;
        let plan = LbcPlan::paper(n, s).expect("plan");
        let square = plan.with_trailing(TrailingUpdate::OocSyrk);
        let (bereux, lbc_sq, lbc) = if executed {
            let a = generate::random_spd_seeded::<f64>(n, n as u64);
            let (_, report) = cholesky_out_of_core(&a, s, CholeskyAlgorithm::Bereux).expect("run");
            assert!(report.prediction_matches());
            // The API plans its own panel width, so LBC at the paper's b
            // runs through the machine directly.
            let run_lbc = |plan: &LbcPlan| {
                let mut machine = symla_memory::OocMachine::<f64>::with_capacity(s);
                let id = machine.insert_symmetric(a.clone());
                let window = symla_memory::SymWindowRef::full(id, n);
                symla_core::lbc_execute(&mut machine, &window, plan).expect("LBC run");
                let loads = machine.stats().volume.loads as u128;
                assert_eq!(loads, lbc_cost(n, plan).expect("cost").loads);
                loads
            };
            (
                report.measured_loads() as u128,
                run_lbc(&square),
                run_lbc(&plan),
            )
        } else {
            (
                ooc_chol_cost(n, &OocCholPlan::for_memory(s).expect("plan")).loads,
                lbc_cost(n, &square).expect("cost").loads,
                lbc_cost(n, &plan).expect("cost").loads,
            )
        };
        let lb = bounds::cholesky_lower_bound(n as f64, s as f64);
        let lb_prior = bounds::cholesky_lower_bound_prior(n as f64, s as f64);
        table.push_row(vec![
            n.to_string(),
            if executed { "executed" } else { "analytic" }.to_string(),
            fmt_u(bereux),
            fmt_u(lbc_sq),
            fmt_u(lbc),
            fmt_f(lb),
            fmt_f(lb_prior),
            fmt_ratio(lbc as f64 / lb),
            fmt_ratio(bereux as f64 / lb),
        ]);
    }
    table.push_note("LBC(square) is the right-looking ablation with square-block trailing updates");
    table
}

/// E4 — asymptotic leading constants: measured loads normalized by
/// `N²M/√S` (SYRK) or `N³/√S` (Cholesky). Paper constants: 1 (OOC_SYRK),
/// 1/√2 ≈ 0.707 (TBS), 1/3 ≈ 0.333 (OOC_CHOL), 1/(3√2) ≈ 0.2357 (LBC).
pub fn e4_asymptotic_constants() -> Table {
    let s = 5050; // k = 100: small low-order effects
    let mut table = Table::new(
        "E4",
        &format!("Normalized leading constants (analytic), S = {s}"),
        &[
            "N",
            "OOC_SYRK",
            "TBS",
            "target 1/sqrt2",
            "OOC_CHOL",
            "LBC",
            "target 1/(3sqrt2)",
        ],
    );
    let m_ratio = 8;
    let tbs_plan = TbsPlan::for_memory(s).expect("plan");
    let sq_plan = OocSyrkPlan::for_memory(s).expect("plan");
    let chol_plan = OocCholPlan::for_memory(s).expect("plan");
    for &n in &[30_000_usize, 60_000, 120_000] {
        let m = n / m_ratio;
        let denom_syrk = (n as f64).powi(2) * m as f64 / (s as f64).sqrt();
        let c_loads = (n as f64).powi(2) / 2.0;
        let ooc = (ooc_syrk_cost(n, m, &sq_plan).loads as f64 - c_loads) / denom_syrk;
        let tbs = (tbs_cost(n, m, &tbs_plan).expect("cost").loads as f64 - c_loads) / denom_syrk;

        let denom_chol = (n as f64).powi(3) / (s as f64).sqrt();
        let chol = ooc_chol_cost(n, &chol_plan).loads as f64 / denom_chol;
        let lbc_plan = LbcPlan::paper(n, s).expect("plan");
        let lbc = lbc_cost(n, &lbc_plan).expect("cost").loads as f64 / denom_chol;

        table.push_row(vec![
            n.to_string(),
            fmt_ratio(ooc),
            fmt_ratio(tbs),
            fmt_ratio(1.0 / std::f64::consts::SQRT_2),
            fmt_ratio(chol),
            fmt_ratio(lbc),
            fmt_ratio(1.0 / (3.0 * std::f64::consts::SQRT_2)),
        ]);
    }
    table.push_note("SYRK columns subtract the N^2/2 loads of C before normalizing");
    table.push_note("LBC retains O(N^{5/2}/sqrt(S) + N^2 sqrt(N)) lower-order terms, so its constant sits slightly above 1/(3·sqrt(2)) at these sizes");
    table
}

/// E5 — structure of the TBS partition (Figures 1–2): grid size, leftover
/// rows, block counts, and the exact-cover verification.
pub fn e5_partition_structure() -> Table {
    let mut table = Table::new(
        "E5",
        "TBS partition structure (element-level), selected (S, N)",
        &[
            "S",
            "k",
            "N",
            "c",
            "covered",
            "leftover",
            "blocks",
            "block elems",
            "cover check",
        ],
    );
    for &(s, n) in &[
        (36_usize, 300_usize),
        (36, 1024),
        (105, 2048),
        (210, 8192),
        (1035, 65536),
    ] {
        let plan = TbsPlan::for_memory(s).expect("plan");
        let d = tbs_decomposition(n, &plan);
        let cover = match d.grid {
            Some(c) if c <= 60 => TbsPartition::build(c, plan.k)
                .and_then(|p| p.verify_exact_cover().map(|_| "exact".to_string()))
                .unwrap_or_else(|e| format!("FAILED: {e}")),
            Some(_) => "exact (verified for c <= 60)".to_string(),
            None => "n/a (fallback)".to_string(),
        };
        table.push_row(vec![
            s.to_string(),
            plan.k.to_string(),
            n.to_string(),
            d.grid.map(|c| c.to_string()).unwrap_or_else(|| "-".into()),
            d.covered.to_string(),
            d.leftover.to_string(),
            d.blocks.to_string(),
            (plan.k * (plan.k - 1) / 2).to_string(),
            cover,
        ]);
    }
    table.push_note(
        "leftover = N - c*k rows are handled by the square-block baseline (lower-order cost)",
    );
    table.push_note("the exhaustive cover check is run for every grid size c <= 60; larger cases rely on Lemma 5.3/5.5 (unit-tested)");
    table
}

/// E6 — the tiled-TBS trade-off (Section 5.1.4): overhead factor vs
/// applicability threshold as a function of `k`.
pub fn e6_tiled_tradeoff() -> Table {
    let s = 4656;
    let mut table = Table::new(
        "E6",
        &format!("Tiled TBS trade-off, S = {s}: overhead factor vs applicability"),
        &[
            "k",
            "b",
            "working set",
            "(k-1)b",
            "overhead sqrt(k/(k-1))",
            "min N (tiled)",
            "min N (element)",
        ],
    );
    let element = TbsPlan::for_memory(s).expect("plan");
    for k in [2_usize, 3, 4, 6, 8, 12, 24, 48, 96] {
        let Some(b) = TbsPlan::max_tile_for(k, s) else {
            continue;
        };
        let plan = TbsPlan::with_params(k, b).expect("plan");
        table.push_row(vec![
            k.to_string(),
            b.to_string(),
            plan.working_set().to_string(),
            ((k - 1) * b).to_string(),
            fmt_ratio((k as f64 / (k as f64 - 1.0)).sqrt()),
            plan.min_applicable_n().to_string(),
            element.min_applicable_n().to_string(),
        ]);
    }
    table.push_note(
        "larger k approaches the optimal constant but requires larger matrices before engaging",
    );
    table.push_note("k = 96 with b = 1 coincides with the element-level schedule (k ~ sqrt(2S))");
    table
}

/// E7 — LBC block-size sweep (Figure 3 / Section 5.2.2): predicted per-phase
/// traffic vs the closed-form four-term analysis.
pub fn e7_lbc_blocksize() -> Table {
    let n = 4096;
    let s = 105;
    let mut table = Table::new(
        "E7",
        &format!("LBC I/O (loads) vs block size b; N = {n}, S = {s}"),
        &[
            "b",
            "chol",
            "trsm",
            "trailing",
            "total",
            "closed form",
            "total/closed",
        ],
    );
    let sqrt_n = (n as f64).sqrt() as usize;
    let mut block_sizes = vec![8_usize, 16, 32, 64, sqrt_n, 128, 256, 512, 1024, 2048];
    block_sizes.dedup();
    for &b in &block_sizes {
        let plan = LbcPlan::paper(n, s)
            .expect("plan")
            .with_block(b)
            .expect("block");
        let breakdown = lbc_cost_breakdown(n, &plan).expect("cost");
        let total = breakdown.total().loads;
        let closed = LbcTermBreakdown::new(n as f64, s as f64, b as f64).total();
        table.push_row(vec![
            b.to_string(),
            fmt_u(breakdown.chol.loads),
            fmt_u(breakdown.trsm.loads),
            fmt_u(breakdown.trailing.loads),
            fmt_u(total),
            fmt_f(closed),
            fmt_ratio(total as f64 / closed),
        ]);
    }
    table.push_note(&format!("the paper's choice is b = sqrt(N) = {sqrt_n}"));
    let planned = LbcPlan::for_problem(n, s).expect("plan");
    let planned_loads = lbc_cost(n, &planned).expect("cost").loads;
    table.push_note(&format!(
        "the planner's exact argmin over every b is b = {} with {} loads",
        planned.block,
        fmt_u(planned_loads)
    ));
    table.push_note("small b inflates the trailing reload term, large b inflates the TRSM term");
    table
}

/// E8 — I/O vs memory size `S` at fixed problem size (the `1/√S` scaling of
/// Lemma 3.1 with the paper's constants).
pub fn e8_memory_sweep() -> Table {
    let n = 2048;
    let m = 512;
    let mut table = Table::new(
        "E8",
        &format!("I/O (loads) vs memory size S; SYRK N = {n}, M = {m}; Cholesky N = {n}"),
        &[
            "S",
            "SYRK: OOC",
            "SYRK: TBS",
            "SYRK LB",
            "CHOL: OOC",
            "CHOL: LBC",
            "CHOL LB",
        ],
    );
    for &s in &[21_usize, 55, 105, 210, 496, 1035] {
        let sq = ooc_syrk_cost(n, m, &OocSyrkPlan::for_memory(s).expect("plan"));
        let tbs = tbs_cost(n, m, &TbsPlan::for_memory(s).expect("plan")).expect("cost");
        let chol = ooc_chol_cost(n, &OocCholPlan::for_memory(s).expect("plan"));
        let lbc = lbc_cost(n, &LbcPlan::paper(n, s).expect("plan")).expect("cost");
        table.push_row(vec![
            s.to_string(),
            fmt_u(sq.loads),
            fmt_u(tbs.loads),
            fmt_f(bounds::syrk_lower_bound(n as f64, m as f64, s as f64)),
            fmt_u(chol.loads),
            fmt_u(lbc.loads),
            fmt_f(bounds::cholesky_lower_bound(n as f64, s as f64)),
        ]);
    }
    table.push_note("for large S relative to N the element-level TBS falls back to square blocks (its advantage needs N >~ 2S)");
    table.push_note("similarly, once S is large relative to N the trailing TBS inside LBC stops engaging and LBC's right-looking reload overhead makes it cross above OOC_CHOL — the paper's optimality statements are asymptotic in N/S");
    table
}

/// E9 — Theorem 4.1: size of the largest subcomputation under a data budget
/// X, exact integer search vs the relaxed optimum vs the closed-form bound.
pub fn e9_max_subcomputation() -> Table {
    let mut table = Table::new(
        "E9",
        "Largest subcomputation under a data-access budget X (Theorem 4.1)",
        &[
            "X",
            "best integer (I,J,K)",
            "operations",
            "relaxed optimum",
            "bound sqrt2/(3sqrt3) X^1.5",
            "integer/bound",
        ],
    );
    for &x in &[50_usize, 200, 1_000, 5_000, 20_000, 100_000] {
        let cand = best_integer_balanced(x, None, None);
        let relaxed = relaxed_optimum_value(x as f64);
        let bound = max_subcomputation_bound(x as f64);
        table.push_row(vec![
            x.to_string(),
            format!("({}, {}, {})", cand.side, cand.remainder_side, cand.layers),
            cand.operations.to_string(),
            fmt_f(relaxed),
            fmt_f(bound),
            fmt_ratio(cand.operations as f64 / bound),
        ]);
    }
    table.push_note("with X = 3S this is the subcomputation bound that yields the sqrt(S/2) operational intensity");
    table.push_note(
        "randomized subsets are additionally checked against the bound by property tests",
    );
    table
}

/// E11 — ablation: explicit out-of-core scheduling vs an LRU/OPT cache fed
/// with the classical loop orders (same fast-memory size).
pub fn e11_cache_ablation() -> Table {
    let n = 64;
    let m = 32;
    let mut table = Table::new(
        "E11",
        &format!("Explicit scheduling vs automatic caching; SYRK N = {n}, M = {m}"),
        &[
            "S",
            "LRU naive order",
            "LRU blocked order",
            "OPT blocked order",
            "explicit OOC_SYRK",
            "explicit TBS",
            "paper LB",
        ],
    );
    for &s in &[36_usize, 66, 105, 210] {
        let naive = simulate_lru(syrk_naive_access_stream(n, m), s);
        let tile = OocSyrkPlan::for_memory(s).expect("plan").tile;
        let blocked_stream = syrk_blocked_access_stream(n, m, tile);
        let blocked = simulate_lru(blocked_stream.clone(), s);
        let opt = simulate_opt(&blocked_stream, s);
        let explicit_sq = ooc_syrk_cost(n, m, &OocSyrkPlan::for_memory(s).expect("plan"));
        let explicit_tbs = tbs_cost(n, m, &TbsPlan::for_memory(s).expect("plan")).expect("cost");
        table.push_row(vec![
            s.to_string(),
            naive.misses.to_string(),
            blocked.misses.to_string(),
            opt.misses.to_string(),
            fmt_u(explicit_sq.loads),
            fmt_u(explicit_tbs.loads),
            fmt_f(bounds::syrk_lower_bound(n as f64, m as f64, s as f64)),
        ]);
    }
    table.push_note("cache columns count misses (loads) when the element access stream of the given loop order is served by an LRU / Belady-optimal cache of S elements");
    table.push_note("the explicit schedules control placement and therefore need fewer transfers than even OPT on the blocked stream");
    table
}

/// E12 — parallel extension: per-worker communication volume of the
/// triangle-block (TBS) vs square-block distribution of a SYRK. Every row
/// is a *real* multi-worker execution against a shared slow memory (the
/// workers move the data and run the kernels) through
/// [`RunOptions::workers`]; the reported volumes are measured per worker.
pub fn e12_parallel() -> Table {
    let n = 240;
    let m = 32;
    let s = 15; // per-worker fast memory (k = 5)
    let mut table = Table::new(
        "E12",
        &format!("Parallel SYRK, per-worker traffic; N = {n}, M = {m}, S/worker = {s}"),
        &[
            "workers",
            "schedule",
            "total loads",
            "max per-worker",
            "mean per-worker",
            "imbalance",
        ],
    );
    let a = generate::random_matrix_seeded::<f64>(n, m, 99);
    let mut reference = SymMatrix::<f64>::zeros(n);
    symla_matrix::kernels::syrk_sym(1.0, &a, 1.0, &mut reference).expect("reference");

    for &workers in &[1_usize, 2, 4, 8] {
        for algorithm in [SyrkAlgorithm::SquareBlocks, SyrkAlgorithm::Tbs] {
            let mut c = SymMatrix::<f64>::zeros(n);
            let options = RunOptions::new().workers(workers);
            let run =
                syrk_out_of_core_with(&a, &mut c, 1.0, s, algorithm, &options).expect("parallel");
            assert!(c.approx_eq(&reference, 1e-9));
            let total = run.report.stats.volume.loads;
            // A one-worker run is the serial replay: its one worker moved it all.
            let max = run.workers.iter().map(|w| w.stats.volume.loads).max();
            let max = max.unwrap_or(total);
            let mean = total as f64 / workers as f64;
            table.push_row(vec![
                workers.to_string(),
                algorithm.name().to_string(),
                total.to_string(),
                max.to_string(),
                fmt_f(mean),
                fmt_ratio(if total == 0 { 1.0 } else { max as f64 / mean }),
            ]);
        }
    }
    table.push_note("the triangle-block distribution moves ~1/sqrt(2) of the input volume of the square-tile distribution (paper's future-work direction)");
    table.push_note("volumes are measured on executing workers (shared slow memory, private capacity-checked fast memories), not dry-run estimates");
    table.push_note("the max per-worker and imbalance columns depend on which worker steals which group, so they vary from run to run; the total does not");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_is_aligned() {
        let mut t = Table::new("EX", "demo", &["a", "bbbb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_note("a note");
        let rendered = t.render();
        assert!(rendered.contains("## EX — demo"));
        assert!(rendered.contains("note: a note"));
        assert!(rendered.lines().count() >= 4);
    }

    #[test]
    fn every_experiment_id_runs() {
        // Smoke test: cheap experiments run end to end. The expensive ones
        // (executed sweeps) are exercised by the binary and the benches.
        for id in ["e5", "e6", "e7", "e9"] {
            let tables = run_experiment(id).expect("known id");
            assert!(!tables.is_empty());
            for t in tables {
                assert!(!t.rows.is_empty(), "{id} produced an empty table");
            }
        }
        assert!(run_experiment("nope").is_none());
        assert_eq!(all_experiment_ids().len(), 11);
    }

    #[test]
    fn e11_and_e12_are_consistent() {
        let t = e11_cache_ablation();
        assert_eq!(t.rows.len(), 4);
        let t = e12_parallel();
        assert_eq!(t.rows.len(), 8);
    }
}
