//! The four workloads: their inputs, the schedules they run, the untraced
//! timed call, and the output check.

use std::time::Instant;
use symla_core::api::{cholesky_out_of_core, syrk_out_of_core, CholeskyAlgorithm, SyrkAlgorithm};
use symla_core::baselines::{
    ooc_chol_schedule, ooc_syrk_cost, ooc_syrk_schedule, OocCholPlan, OocSyrkPlan,
};
use symla_core::{
    bounds, lbc_cost, lbc_schedule, tbs_tiled_cost, tbs_tiled_schedule, IoEstimate, LbcPlan,
    TbsTiledPlan,
};
use symla_matrix::kernels::{cholesky_residual, cholesky_sym, flops, syrk_sym};
use symla_matrix::{generate, LowerTriangular, Matrix, SymMatrix};
use symla_memory::{
    FileSlowMemory, IoStats, MachineConfig, MachineOps, MatrixId, OocMachine, PanelRef,
    SymWindowRef,
};
use symla_sched::{Engine, EngineConfig, Schedule};

/// Residual tolerance of every `f64` output check (the tests' tolerance).
pub const TOLERANCE: f64 = 1e-10;

/// Which workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `syrk_out_of_core` with the tiled TBS schedule.
    SyrkTiled,
    /// `syrk_out_of_core` with Béreux's square blocks, same inputs.
    SyrkSquare,
    /// `cholesky_out_of_core` with LBC.
    CholLbc,
    /// The tiled TBS schedule replayed on `FileSlowMemory` at lookahead 1.
    SyrkTiledFile,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::SyrkTiled,
        Kind::SyrkSquare,
        Kind::CholLbc,
        Kind::SyrkTiledFile,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SyrkTiled => "syrk-tiled",
            Kind::SyrkSquare => "syrk-square",
            Kind::CholLbc => "chol-lbc",
            Kind::SyrkTiledFile => "syrk-tiled-file",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn is_cholesky(self) -> bool {
        self == Kind::CholLbc
    }

    /// The SYRK schedule of a SYRK workload (tiled TBS unless square).
    pub fn syrk_algorithm(self) -> SyrkAlgorithm {
        if self == Kind::SyrkSquare {
            SyrkAlgorithm::SquareBlocks
        } else {
            SyrkAlgorithm::TbsTiled
        }
    }

    /// Prefetch lookahead of the workload's solve path.
    pub fn lookahead(self) -> usize {
        usize::from(self == Kind::SyrkTiledFile)
    }
}

/// Problem sizes of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Order of `C` (SYRK) or of `A` (Cholesky).
    pub n: usize,
    /// Columns of the SYRK panel `A` (unused by Cholesky).
    pub m: usize,
    /// Fast-memory capacity in elements.
    pub s: usize,
}

impl Workload {
    /// The benchmark sizes; `small` gives the reduced sizes of the
    /// benchmark's own test.
    pub fn new(kind: Kind, small: bool) -> Self {
        let (n, m, s) = match (kind.is_cholesky(), small) {
            (false, false) => (1024, 64, 2000),
            (false, true) => (160, 16, 2000),
            (true, false) => (768, 0, 300),
            (true, true) => (96, 0, 300),
        };
        Self { kind, n, m, s }
    }

    /// One-line description for the report.
    pub fn describe(&self) -> String {
        match self.kind {
            Kind::CholLbc => format!("{} (LBC) n={} S={} f64", self.kind.name(), self.n, self.s),
            k => format!(
                "{} ({}) n={} m={} S={} f64 L={}",
                k.name(),
                k.syrk_algorithm().name(),
                self.n,
                self.m,
                self.s,
                k.lookahead()
            ),
        }
    }

    /// Name of the paper's comparator schedule for this workload.
    pub fn comparator_name(&self) -> &'static str {
        match self.kind {
            Kind::SyrkSquare => SyrkAlgorithm::TbsTiled.name(),
            Kind::CholLbc => CholeskyAlgorithm::Bereux.name(),
            _ => SyrkAlgorithm::SquareBlocks.name(),
        }
    }

    /// The paper's I/O lower bound for this instance, in elements.
    pub fn lower_bound(&self) -> f64 {
        let (n, m, s) = (self.n as f64, self.m as f64, self.s as f64);
        if self.kind.is_cholesky() {
            bounds::cholesky_lower_bound(n, s)
        } else {
            bounds::syrk_lower_bound(n, m, s)
        }
    }

    /// Useful flops of one solve.
    pub fn useful_flops(&self) -> f64 {
        let count = if self.kind.is_cholesky() {
            flops::cholesky_flops(self.n)
        } else {
            flops::syrk_flops(self.n, self.m)
        };
        count.total() as f64
    }

    /// Builds the workload's schedule and analytic cost against operand ids
    /// `ids` (`[A, C]` for SYRK, `[A]` for Cholesky).
    pub fn build(&self, ids: &[MatrixId]) -> Result<(Schedule<f64>, IoEstimate), String> {
        let (n, m, s) = (self.n, self.m, self.s);
        let err = |e: symla_core::OocError| e.to_string();
        match self.kind {
            Kind::CholLbc => {
                let plan = LbcPlan::for_problem(n, s).map_err(err)?;
                let window = SymWindowRef::full(ids[0], n);
                Ok((
                    lbc_schedule(&window, &plan).map_err(err)?,
                    lbc_cost(n, &plan).map_err(err)?,
                ))
            }
            Kind::SyrkSquare => {
                let plan = OocSyrkPlan::for_memory(s).map_err(err)?;
                let (a, c) = syrk_refs(ids, n, m);
                Ok((
                    ooc_syrk_schedule(&a, &c, 1.0, &plan).map_err(err)?,
                    ooc_syrk_cost(n, m, &plan),
                ))
            }
            Kind::SyrkTiled | Kind::SyrkTiledFile => {
                let plan = TbsTiledPlan::for_problem(s, n).map_err(err)?;
                let (a, c) = syrk_refs(ids, n, m);
                Ok((
                    tbs_tiled_schedule(&a, &c, 1.0, &plan).map_err(err)?,
                    tbs_tiled_cost(n, m, &plan).map_err(err)?,
                ))
            }
        }
    }

    /// Operand ids a fresh machine issues, in registration order.
    pub fn synthetic_ids(&self) -> Vec<MatrixId> {
        let count = if self.kind.is_cholesky() { 1 } else { 2 };
        (0..count).map(MatrixId::synthetic).collect()
    }

    /// Dry-run loads of the comparator schedule over the lower bound.
    pub fn baseline_loads_over_bound(&self) -> Result<f64, String> {
        let ids = self.synthetic_ids();
        let schedule: Schedule<f64> = match self.kind {
            Kind::CholLbc => {
                let plan = OocCholPlan::for_memory(self.s).map_err(|e| e.to_string())?;
                ooc_chol_schedule(&SymWindowRef::full(ids[0], self.n), &plan)
            }
            Kind::SyrkSquare => {
                Workload {
                    kind: Kind::SyrkTiled,
                    ..*self
                }
                .build(&ids)?
                .0
            }
            Kind::SyrkTiled | Kind::SyrkTiledFile => {
                Workload {
                    kind: Kind::SyrkSquare,
                    ..*self
                }
                .build(&ids)?
                .0
            }
        };
        let loads = Engine::dry_run(&schedule, "main").volume.loads;
        Ok(loads as f64 / self.lower_bound())
    }
}

fn syrk_refs(ids: &[MatrixId], n: usize, m: usize) -> (PanelRef, SymWindowRef) {
    (PanelRef::dense(ids[0], n, m), SymWindowRef::full(ids[1], n))
}

/// The generated operands of one workload and the reference result they
/// are checked against.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// `C += A·Aᵀ` with `C` starting at zero.
    Syrk {
        /// The `n × m` panel.
        a: Matrix<f64>,
        /// The initial `C`.
        c0: SymMatrix<f64>,
        /// In-core `syrk_sym` result.
        reference: SymMatrix<f64>,
        /// Frobenius norm of `reference`.
        norm: f64,
    },
    /// `A = L·Lᵀ`.
    Chol {
        /// The SPD input.
        a: SymMatrix<f64>,
        /// In-core `cholesky_sym` factor.
        reference: LowerTriangular<f64>,
        /// Frobenius norm of `reference`.
        norm: f64,
    },
}

/// A solve's result, extracted from slow memory.
#[derive(Debug, Clone)]
pub enum Output {
    /// The updated `C`.
    Sym(SymMatrix<f64>),
    /// The Cholesky factor.
    Factor(LowerTriangular<f64>),
}

/// One checked call.
#[derive(Debug, Clone)]
pub struct Solved {
    /// Result of the call.
    pub output: Output,
    /// Machine statistics of the call.
    pub stats: IoStats,
    /// Analytic cost of the schedule (must equal the measurement).
    pub predicted: IoEstimate,
}

impl Inputs {
    /// Generates the inputs of `w` from `seed` and computes the in-core
    /// reference, whose own residual is checked.
    pub fn generate(w: &Workload, seed: u64) -> Result<Self, String> {
        if w.kind.is_cholesky() {
            let a = generate::random_spd_seeded::<f64>(w.n, seed);
            let reference = cholesky_sym(&a).map_err(|e| e.to_string())?;
            let residual = cholesky_residual(&a, &reference);
            if residual.is_nan() || residual > TOLERANCE {
                return Err(format!("in-core reference residual {residual:e}"));
            }
            let norm = frobenius(reference.as_packed());
            Ok(Inputs::Chol { a, reference, norm })
        } else {
            let a = generate::random_matrix_seeded::<f64>(w.n, w.m, seed);
            let c0 = SymMatrix::zeros(w.n);
            let mut reference = c0.clone();
            syrk_sym(1.0, &a, 1.0, &mut reference).map_err(|e| e.to_string())?;
            let norm = reference.frobenius_norm();
            Ok(Inputs::Syrk {
                a,
                c0,
                reference,
                norm,
            })
        }
    }

    /// Residual of `output` against the reference, scaled like the tests'
    /// `syrk_residual`: `max|out − ref| · n / ‖ref‖_F`.
    pub fn residual(&self, output: &Output) -> Result<f64, String> {
        let (diff, n, norm) = match (self, output) {
            (
                Inputs::Syrk {
                    reference, norm, ..
                },
                Output::Sym(c),
            ) => (c.max_abs_diff(reference), reference.order(), *norm),
            (
                Inputs::Chol {
                    reference, norm, ..
                },
                Output::Factor(l),
            ) => (l.max_abs_diff(reference), reference.order(), *norm),
            _ => return Err("output kind does not match the workload".into()),
        };
        let diff = diff.map_err(|e| e.to_string())?;
        Ok(diff * n as f64 / norm.max(1e-300))
    }

    /// Checks one call: residual within [`TOLERANCE`], measured I/O equal
    /// to the analytic prediction, peak residency within `S`.
    pub fn check(&self, w: &Workload, solved: &Solved) -> Result<(), String> {
        let residual = self.residual(&solved.output)?;
        if residual.is_nan() || residual > TOLERANCE {
            return Err(format!("residual {residual:e} exceeds {TOLERANCE:e}"));
        }
        let stats = &solved.stats;
        if solved.predicted.loads != stats.volume.loads as u128
            || solved.predicted.stores != stats.volume.stores as u128
        {
            return Err(format!(
                "I/O {}/{} differs from the prediction {}/{}",
                stats.volume.loads,
                stats.volume.stores,
                solved.predicted.loads,
                solved.predicted.stores
            ));
        }
        if stats.peak_resident > w.s {
            return Err(format!(
                "peak residency {} exceeds S = {}",
                stats.peak_resident, w.s
            ));
        }
        Ok(())
    }

    /// The operands to register, in registration order.
    pub fn operands(&self) -> (Option<&Matrix<f64>>, &SymMatrix<f64>) {
        match self {
            Inputs::Syrk { a, c0, .. } => (Some(a), c0),
            Inputs::Chol { a, .. } => (None, a),
        }
    }
}

fn frobenius(values: &[f64]) -> f64 {
    values.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// A slow memory the benchmark can register operands in and take results
/// from: the simulated [`OocMachine`] or the file-backed [`FileSlowMemory`].
pub trait Backend: MachineOps<f64> + Sized {
    /// A fresh machine of capacity `s`.
    fn create(s: usize) -> Result<Self, String>;
    /// Registers a dense matrix.
    fn put_dense(&mut self, m: Matrix<f64>) -> Result<MatrixId, String>;
    /// Registers a symmetric matrix.
    fn put_symmetric(&mut self, m: SymMatrix<f64>) -> Result<MatrixId, String>;
    /// Takes a symmetric matrix back out.
    fn take(&mut self, id: MatrixId) -> Result<SymMatrix<f64>, String>;
    /// The machine's statistics so far.
    fn io_stats(&self) -> &IoStats;
}

impl Backend for OocMachine<f64> {
    fn create(s: usize) -> Result<Self, String> {
        Ok(OocMachine::new(MachineConfig::with_capacity(s)))
    }
    fn put_dense(&mut self, m: Matrix<f64>) -> Result<MatrixId, String> {
        Ok(self.insert_dense(m))
    }
    fn put_symmetric(&mut self, m: SymMatrix<f64>) -> Result<MatrixId, String> {
        Ok(self.insert_symmetric(m))
    }
    fn take(&mut self, id: MatrixId) -> Result<SymMatrix<f64>, String> {
        self.take_symmetric(id).map_err(|e| e.to_string())
    }
    fn io_stats(&self) -> &IoStats {
        self.stats()
    }
}

impl Backend for FileSlowMemory<f64> {
    fn create(s: usize) -> Result<Self, String> {
        FileSlowMemory::with_capacity(s).map_err(|e| e.to_string())
    }
    fn put_dense(&mut self, m: Matrix<f64>) -> Result<MatrixId, String> {
        self.insert_dense(m).map_err(|e| e.to_string())
    }
    fn put_symmetric(&mut self, m: SymMatrix<f64>) -> Result<MatrixId, String> {
        self.insert_symmetric(m).map_err(|e| e.to_string())
    }
    fn take(&mut self, id: MatrixId) -> Result<SymMatrix<f64>, String> {
        self.take_symmetric(id).map_err(|e| e.to_string())
    }
    fn io_stats(&self) -> &IoStats {
        self.stats()
    }
}

/// Registers the operands on a fresh machine (clones included, as the API
/// clones them) and returns it with their ids.
pub fn register<B: Backend>(w: &Workload, inputs: &Inputs) -> Result<(B, Vec<MatrixId>), String> {
    let mut machine = B::create(w.s)?;
    let (dense, sym) = inputs.operands();
    let mut ids = Vec::with_capacity(2);
    if let Some(a) = dense {
        ids.push(machine.put_dense(a.clone())?);
    }
    ids.push(machine.put_symmetric(sym.clone())?);
    Ok((machine, ids))
}

/// Extracts the result operand (the last registered) and the statistics.
pub fn take<B: Backend>(
    w: &Workload,
    machine: &mut B,
    ids: &[MatrixId],
) -> Result<(Output, IoStats), String> {
    let stats = machine.io_stats().clone();
    let result = machine.take(*ids.last().expect("at least one operand"))?;
    let output = if w.kind.is_cholesky() {
        Output::Factor(LowerTriangular::from_lower_fn(w.n, |i, j| result.get(i, j)))
    } else {
        Output::Sym(result)
    };
    Ok((output, stats))
}

/// The untraced timed call of the workload. Returns the wall time in ms of
/// the call alone (operand preparation happens before the clock starts)
/// and its result.
pub fn timed_solve(w: &Workload, inputs: &Inputs) -> (f64, Result<Solved, String>) {
    match (w.kind, inputs) {
        (Kind::SyrkTiled | Kind::SyrkSquare, Inputs::Syrk { a, c0, .. }) => {
            let mut c = c0.clone();
            let t0 = Instant::now();
            let report = syrk_out_of_core(a, &mut c, 1.0, w.s, w.kind.syrk_algorithm());
            let ms = elapsed_ms(t0);
            let solved = report.map_err(|e| e.to_string()).map(|r| Solved {
                output: Output::Sym(c),
                stats: r.stats,
                predicted: r.predicted,
            });
            (ms, solved)
        }
        (Kind::CholLbc, Inputs::Chol { a, .. }) => {
            let t0 = Instant::now();
            let result = cholesky_out_of_core(a, w.s, CholeskyAlgorithm::Lbc);
            let ms = elapsed_ms(t0);
            let solved = result.map_err(|e| e.to_string()).map(|(l, r)| Solved {
                output: Output::Factor(l),
                stats: r.stats,
                predicted: r.predicted,
            });
            (ms, solved)
        }
        (Kind::SyrkTiledFile, _) => {
            let t0 = Instant::now();
            let solved = file_solve(w, inputs);
            (elapsed_ms(t0), solved)
        }
        _ => (0.0, Err("inputs do not match the workload".into())),
    }
}

/// The `syrk-tiled-file` call: register on `FileSlowMemory`, build, replay
/// at lookahead 1, take the result. The machine (and its backing file) is
/// dropped inside the call.
fn file_solve(w: &Workload, inputs: &Inputs) -> Result<Solved, String> {
    let (mut machine, ids) = register::<FileSlowMemory<f64>>(w, inputs)?;
    let (schedule, predicted) = w.build(&ids)?;
    Engine::execute_with(
        &mut machine,
        &schedule,
        &EngineConfig::with_lookahead(w.kind.lookahead()),
    )
    .map_err(|e| e.to_string())?;
    let (output, stats) = take(w, &mut machine, &ids)?;
    Ok(Solved {
        output,
        stats,
        predicted,
    })
}

/// Milliseconds since `t0`.
pub fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
