//! Parallel SYRK on a **sharded** slow memory — the paper's "future work"
//! direction (communication-efficient *parallel* symmetric kernels),
//! explored as an extension.
//!
//! The model follows Section 2.2 of the paper: `P` nodes, each with a
//! private fast memory of `S` elements, exchange data with a slow memory.
//! A SYRK plan already is a set of independent task groups — one per square
//! block ([`SyrkAlgorithm::SquareBlocks`]) or per TBS triangle block
//! ([`SyrkAlgorithm::Tbs`]) — so the serial schedule is the parallel work
//! list. A shared-slow-memory run is the `workers` option of the one run
//! path ([`RunOptions::workers`](crate::api::RunOptions::workers)), which
//! deals the groups over a work-stealing queue. [`parallel_syrk_sharded`]
//! is the distributed variant: the slow memory is split into shards, the
//! groups are assigned to nodes *statically* by [`partition_groups`], and
//! each node's cross-shard traffic is measured.
//!
//! Comparing the two schedules reproduces the paper's headline at the
//! parallel level: distributing **triangle blocks** needs ≈ `1/√2` of the
//! cross-shard input traffic of distributing square blocks.

use crate::api::{Job, SyrkAlgorithm};
use std::collections::BTreeMap;
use symla_baselines::error::{OocError, Result};
use symla_matrix::{Matrix, Scalar, SymMatrix};
use symla_memory::{MachineConfig, SharedSlowMemory};
use symla_sched::{partition_groups, Engine, NodeAssignment, Schedule};

/// Communication volume of one node of a sharded parallel run, split into
/// traffic against the node's home shard and traffic against every other
/// shard (the distributed-memory cost the partitioner minimizes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeIo {
    /// Elements moved to or from the node's home shard.
    pub local: u64,
    /// Elements moved to or from every other shard.
    pub cross: u64,
    /// Total elements the node read from slow memory (all shards).
    pub loads: u64,
    /// Total elements the node wrote back (all shards).
    pub stores: u64,
    /// Number of task groups the node processed.
    pub tasks: usize,
}

/// Outcome of a sharded parallel run ([`parallel_syrk_sharded`]).
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Number of nodes.
    pub nodes: usize,
    /// The SYRK schedule whose task groups were distributed.
    pub strategy: SyrkAlgorithm,
    /// Per-node fast-memory budget.
    pub memory_per_node: usize,
    /// Per-node communication volumes, *observed* by each node's
    /// capacity-checked machine and asserted equal to the partitioner's
    /// analytic prediction.
    pub per_node: Vec<NodeIo>,
    /// The static group-to-node assignment the run executed.
    pub assignment: NodeAssignment,
}

impl ShardedReport {
    /// Total cross-shard volume over all nodes.
    pub fn total_cross(&self) -> u64 {
        self.per_node.iter().map(|n| n.cross).sum()
    }

    /// The busiest node's cross-shard volume (the communication
    /// bottleneck of a bandwidth-bound distributed run).
    pub fn max_cross(&self) -> u64 {
        self.per_node.iter().map(|n| n.cross).max().unwrap_or(0)
    }

    /// Total loads over all nodes.
    pub fn total_loads(&self) -> u64 {
        self.per_node.iter().map(|n| n.loads).sum()
    }

    /// Total stores over all nodes.
    pub fn total_stores(&self) -> u64 {
        self.per_node.iter().map(|n| n.stores).sum()
    }
}

/// Computes `C += alpha · A · Aᵀ` on `nodes` nodes against a **sharded**
/// slow memory: `A` lives on shard 1, `C` on shard 0 (every node's home),
/// so each node's cross-shard traffic is exactly the input rows it streams
/// — the quantity the paper's communication analysis bounds.
///
/// The task groups of the serial `strategy` schedule are assigned to nodes
/// *statically* by [`partition_groups`] (a distributed run cannot
/// rebalance cheaply), and every node replays its groups on its own
/// capacity-checked worker of the [`SharedSlowMemory`] in a scoped thread.
/// Each node's observed per-shard traffic is asserted equal to the
/// partitioner's analytic volumes, so the assignment the report carries can
/// never drift from what was executed. The numerical result is bitwise the
/// serial run's (groups cover disjoint entries of `C`); on error `c` is
/// left unchanged.
pub fn parallel_syrk_sharded<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    nodes: usize,
    memory_per_node: usize,
    strategy: SyrkAlgorithm,
) -> Result<ShardedReport> {
    let (n, m) = (c.order(), a.cols());
    if a.rows() != n {
        return Err(OocError::Invalid(format!(
            "sharded SYRK operand mismatch: A has {} rows but C has order {n}",
            a.rows()
        )));
    }
    if nodes == 0 {
        return Err(OocError::Invalid("need at least one node".into()));
    }
    let job = Job::Syrk {
        algorithm: strategy,
        n,
        m,
        alpha,
        s: memory_per_node,
    };
    let (_, schedule) = job.schedule(None)?;

    // Insertion order matches the synthetic ids the plan was built against.
    let shared = SharedSlowMemory::with_shards(2);
    let a_id = shared.insert_dense_on(1, a.clone());
    let c_id = shared.insert_symmetric_on(0, c.clone());
    let shard_of: BTreeMap<u64, usize> = [(a_id.raw(), 1), (c_id.raw(), 0)].into();
    let homes = vec![0usize; nodes];
    let assignment = partition_groups(&schedule, &shard_of, &homes);

    let config = MachineConfig::with_capacity(memory_per_node);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = assignment
            .nodes
            .iter()
            .enumerate()
            .map(|(node, groups)| {
                let (shared, schedule) = (&shared, &schedule);
                let home = homes[node];
                scope.spawn(move || {
                    let sub = Schedule {
                        groups: groups.iter().map(|&g| schedule.groups[g].clone()).collect(),
                    };
                    let mut machine = shared.worker_on(config, home);
                    Engine::execute(&mut machine, &sub)?;
                    Ok::<_, symla_sched::EngineError>((machine.into_accounting(), groups.len()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sharded node panicked"))
            .collect()
    });

    let mut per_node = Vec::with_capacity(nodes);
    for (node, outcome) in outcomes.into_iter().enumerate() {
        let (stats, tasks) = outcome?;
        let home = homes[node];
        let (mut local, mut cross) = (0u64, 0u64);
        for shard in 0..2 {
            let vol = stats.shard(shard);
            if shard == home {
                local += vol.loads + vol.stores;
            } else {
                cross += vol.loads + vol.stores;
            }
        }
        assert_eq!(
            (local, cross),
            (assignment.local_volume[node], assignment.cross_volume[node]),
            "node {node}: observed per-shard traffic diverged from the partitioner"
        );
        per_node.push(NodeIo {
            local,
            cross,
            loads: stats.volume.loads,
            stores: stats.volume.stores,
            tasks,
        });
    }
    *c = shared.take_symmetric(c_id)?;

    Ok(ShardedReport {
        nodes,
        strategy,
        memory_per_node,
        per_node,
        assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{syrk_out_of_core_with, Run, RunOptions};
    use symla_matrix::generate::random_matrix_seeded;
    use symla_matrix::kernels::syrk_sym;
    use symla_memory::IoStats;
    use symla_sched::WorkerRun;

    /// The square-block and triangle-block SYRK schedules.
    const SCHEDULES: [SyrkAlgorithm; 2] = [SyrkAlgorithm::SquareBlocks, SyrkAlgorithm::Tbs];

    fn reference(n: usize, m: usize, alpha: f64, seed: u64) -> (Matrix<f64>, SymMatrix<f64>) {
        let a: Matrix<f64> = random_matrix_seeded(n, m, seed);
        let mut c = SymMatrix::zeros(n);
        syrk_sym(alpha, &a, 1.0, &mut c).unwrap();
        (a, c)
    }

    /// `C = A·Aᵀ` from zero under `options`.
    fn syrk(
        a: &Matrix<f64>,
        s: usize,
        algorithm: SyrkAlgorithm,
        options: &RunOptions<'_, f64>,
    ) -> (SymMatrix<f64>, Run) {
        let mut c = SymMatrix::zeros(a.rows());
        let run = syrk_out_of_core_with(a, &mut c, 1.0, s, algorithm, options).unwrap();
        (c, run)
    }

    /// The plan a SYRK run replays (`A` = id 0, `C` = id 1).
    fn schedule(n: usize, m: usize, s: usize, algorithm: SyrkAlgorithm) -> Schedule<f64> {
        let job = Job::Syrk {
            algorithm,
            n,
            m,
            alpha: 1.0,
            s,
        };
        job.schedule(None).unwrap().1
    }

    /// The dry run of exactly the task groups at `groups`: the analytic
    /// accounting of the worker that processed them.
    fn dry_run_of(schedule: &Schedule<f64>, groups: &[usize]) -> IoStats {
        let picked = Schedule {
            groups: groups.iter().map(|&g| schedule.groups[g].clone()).collect(),
        };
        Engine::dry_run(&picked, "main")
    }

    #[test]
    fn parallel_result_matches_reference_for_both_strategies() {
        let (n, m, s) = (40, 8, 10);
        let (a, expected) = reference(n, m, 1.0, 71);
        for algorithm in SCHEDULES {
            for workers in [1, 3, 4] {
                let (c, run) = syrk(&a, s, algorithm, &RunOptions::new().workers(workers));
                let ctx = format!("{} P={workers}", algorithm.name());
                assert!(c.approx_eq(&expected, 1e-11), "{ctx}");
                // A serial run has no workers to report.
                let reported = if workers > 1 { workers } else { 0 };
                assert_eq!(run.workers.len(), reported, "{ctx}");
                let tasks: usize = run.workers.iter().map(|w| w.groups.len()).sum();
                assert_eq!(tasks > 0, workers > 1, "{ctx}");
            }
        }
    }

    #[test]
    fn triangle_blocks_reduce_total_input_traffic() {
        // At a size where the TBS partition engages, the triangle-block
        // distribution moves less input data in total than square blocks.
        let (n, m, s) = (120, 16, 10); // k = 4, t = 2
        let (a, expected) = reference(n, m, 1.0, 72);
        let options = RunOptions::new().workers(4);
        let (c1, square) = syrk(&a, s, SyrkAlgorithm::SquareBlocks, &options);
        let (c2, triangle) = syrk(&a, s, SyrkAlgorithm::Tbs, &options);
        assert!(c1.approx_eq(&expected, 1e-10));
        assert!(c2.approx_eq(&expected, 1e-10));
        let (square, triangle) = (square.report.stats.volume, triangle.report.stats.volume);
        assert!(
            triangle.loads < square.loads,
            "triangle {} vs square {}",
            triangle.loads,
            square.loads
        );
    }

    #[test]
    fn prefetched_parallel_run_matches_plain_run_bitwise() {
        let (n, m, s) = (40, 8, 12);
        let (a, expected) = reference(n, m, 1.0, 75);
        for algorithm in SCHEDULES {
            let (plain_c, plain) = syrk(&a, s, algorithm, &RunOptions::new().workers(3));
            assert_eq!(plain.report.stats.prefetched_elements, 0);
            for lookahead in [1usize, 2] {
                let options = RunOptions::new().workers(3).lookahead(lookahead);
                let (c, run) = syrk(&a, s, algorithm, &options);
                let ctx = format!("{} L={lookahead}", algorithm.name());
                assert!(c.approx_eq(&expected, 1e-11), "{ctx}");
                assert!(c == plain_c, "{ctx}: bitwise vs plain parallel run");
                // Volumes are placement-independent and overlap is part of
                // them, not on top of them; every worker respects S.
                let stats = &run.report.stats;
                assert_eq!(stats.volume, plain.report.stats.volume, "{ctx}");
                assert!(stats.prefetched_elements <= stats.volume.loads, "{ctx}");
                assert!(stats.peak_resident <= s, "{ctx}");
            }
        }
    }

    #[test]
    fn worker_accounting_equals_the_serial_dry_run() {
        // The merged per-worker accounting equals the dry run of the whole
        // plan field for field: every group ran on exactly one worker, and
        // the merged peak is a per-group maximum like the serial one.
        let (n, m, s) = (48, 6, 10);
        let (a, _) = reference(n, m, 1.0, 73);
        for algorithm in SCHEDULES {
            let (_, serial) = syrk(&a, s, algorithm, &RunOptions::new());
            let (_, run) = syrk(&a, s, algorithm, &RunOptions::new().workers(3));
            let dry = Engine::dry_run(&schedule(n, m, s, algorithm), "main");
            assert_eq!(run.report.stats, dry, "{}", algorithm.name());
            assert_eq!(
                run.report.stats,
                serial.report.stats,
                "{}",
                algorithm.name()
            );
            assert_eq!(WorkerRun::merged_stats(&run.workers), run.report.stats);
        }
    }

    #[test]
    fn stores_cover_the_lower_triangle_exactly_once() {
        // Groups partition the result: total stores equal the packed size
        // of C for both schedules.
        let (n, m, s) = (60, 4, 10);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 76);
        for algorithm in SCHEDULES {
            let (_, run) = syrk(&a, s, algorithm, &RunOptions::new().workers(3));
            let stores = run.report.stats.volume.stores;
            assert_eq!(stores, (n * (n + 1) / 2) as u64, "{}", algorithm.name());
        }
    }

    #[test]
    fn parallel_execution_is_bitwise_equal_to_serial_replay() {
        // Groups are disjoint, so no accumulation order differs between the
        // serial replay and any worker count, only the placement of the
        // work.
        let (n, m, s) = (48, 6, 10);
        let (a, _) = reference(n, m, 1.0, 74);
        for algorithm in SCHEDULES {
            let (serial_c, serial) = syrk(&a, s, algorithm, &RunOptions::new());
            for workers in [2, 4, 8] {
                let (c, run) = syrk(&a, s, algorithm, &RunOptions::new().workers(workers));
                let ctx = format!("{} P={workers}", algorithm.name());
                assert!(c == serial_c, "{ctx}");
                assert_eq!(run.report.stats.volume, serial.report.stats.volume, "{ctx}");
            }
        }
    }

    #[test]
    fn analytic_worker_io_sums_to_the_full_schedule() {
        let (n, m, s) = (36, 5, 10);
        let schedule = schedule(n, m, s, SyrkAlgorithm::Tbs);
        let all: Vec<usize> = (0..schedule.num_groups()).collect();
        let whole = Engine::dry_run(&schedule, "main");
        assert_eq!(dry_run_of(&schedule, &all), whole);
        // Splitting the groups arbitrarily conserves the totals.
        let (left, right) = all.split_at(all.len() / 3);
        let (left, right) = (dry_run_of(&schedule, left), dry_run_of(&schedule, right));
        assert_eq!(left.volume.loads + right.volume.loads, whole.volume.loads);
        assert_eq!(
            left.volume.stores + right.volume.stores,
            whole.volume.stores
        );
        assert_eq!(dry_run_of(&schedule, &[]), IoStats::new());

        // Each worker of a real run observed exactly the dry run of the
        // groups it processed.
        let a: Matrix<f64> = random_matrix_seeded(n, m, 77);
        let (_, run) = syrk(&a, s, SyrkAlgorithm::Tbs, &RunOptions::new().workers(3));
        for (w, worker) in run.workers.iter().enumerate() {
            assert_eq!(
                worker.stats,
                dry_run_of(&schedule, &worker.groups),
                "worker {w}"
            );
        }
    }

    #[test]
    fn sharded_run_matches_reference_and_the_partitioner_accounting() {
        let (n, m, s) = (40, 8, 10);
        let (a, expected) = reference(n, m, 1.0, 81);
        for strategy in SCHEDULES {
            let (plain_c, plain) = syrk(&a, s, strategy, &RunOptions::new().workers(2));
            let plain = plain.report.stats.volume;
            for nodes in [1usize, 2, 4] {
                let mut c = SymMatrix::zeros(n);
                let report = parallel_syrk_sharded(&a, &mut c, 1.0, nodes, s, strategy).unwrap();
                let ctx = format!("{} N={nodes}", strategy.name());
                assert!(c.approx_eq(&expected, 1e-11), "{ctx}");
                // Groups cover disjoint entries, so placement cannot change
                // the arithmetic: bitwise equal to the work-stealing run.
                assert!(c == plain_c, "{ctx}");
                assert_eq!(report.nodes, nodes, "{ctx}");
                assert_eq!(report.per_node.len(), nodes, "{ctx}");
                assert_eq!(report.total_loads(), plain.loads, "{ctx}");
                assert_eq!(report.total_stores(), plain.stores, "{ctx}");
                // C lives on the home shard and is loaded and stored once
                // per group; everything else is cross-shard A traffic.
                assert_eq!(
                    report.total_cross(),
                    report.total_loads() - report.total_stores(),
                    "{ctx}"
                );
                assert_eq!(
                    report.total_cross(),
                    report.assignment.total_cross(),
                    "{ctx}"
                );
                assert_eq!(report.max_cross(), report.assignment.max_cross(), "{ctx}");
                let tasks: usize = report.per_node.iter().map(|n| n.tasks).sum();
                assert_eq!(tasks, report.assignment.nodes.iter().map(Vec::len).sum());
            }
        }
    }

    #[test]
    fn sharded_triangle_blocks_cut_cross_shard_traffic_toward_the_paper_ratio() {
        // The cross-shard volume of a sharded run is exactly the A traffic,
        // so the triangle-block advantage shows up undiluted by the C
        // traffic: at (120, 16, 10) TBS (k = 4) streams t/(k-1) = 2/3 of
        // the square tiling's input rows plus its diagonal zones — the
        // finite-size shadow of the paper's asymptotic 1/sqrt(2) ~ 0.707.
        let (n, m, s) = (120, 16, 10);
        let (a, expected) = reference(n, m, 1.0, 82);
        let mut c1 = SymMatrix::zeros(n);
        let square =
            parallel_syrk_sharded(&a, &mut c1, 1.0, 4, s, SyrkAlgorithm::SquareBlocks).unwrap();
        let mut c2 = SymMatrix::zeros(n);
        let triangle = parallel_syrk_sharded(&a, &mut c2, 1.0, 4, s, SyrkAlgorithm::Tbs).unwrap();
        assert!(c1.approx_eq(&expected, 1e-10));
        assert!(c2.approx_eq(&expected, 1e-10));

        assert_eq!(
            (triangle.total_cross(), square.total_cross()),
            (83_840, 115_200)
        );
        let ratio = triangle.total_cross() as f64 / square.total_cross() as f64;
        assert!(
            (0.6..=0.78).contains(&ratio),
            "cross-shard ratio {ratio} outside the 1/sqrt(2) band"
        );
        // The bottleneck node improves too, not just the total.
        assert_eq!((triangle.max_cross(), square.max_cross()), (20_960, 28_800));
    }

    #[test]
    fn sharded_errors_on_bad_arguments() {
        let a: Matrix<f64> = Matrix::zeros(4, 2);
        let mut c = SymMatrix::zeros(5);
        let square = SyrkAlgorithm::SquareBlocks;
        assert!(parallel_syrk_sharded(&a, &mut c, 1.0, 2, 10, square).is_err());
        let mut c4 = SymMatrix::zeros(4);
        assert!(parallel_syrk_sharded(&a, &mut c4, 1.0, 0, 10, square).is_err());
        assert!(parallel_syrk_sharded(&a, &mut c4, 1.0, 2, 1, square).is_err());
    }

    #[test]
    fn errors_on_bad_arguments() {
        let a: Matrix<f64> = Matrix::zeros(4, 2);
        let invalid = |c: &mut SymMatrix<f64>, workers: usize, s: usize| {
            let options = RunOptions::new().workers(workers);
            let run = syrk_out_of_core_with(&a, c, 1.0, s, SyrkAlgorithm::SquareBlocks, &options);
            assert!(
                matches!(run, Err(OocError::Invalid(_))),
                "P={workers} S={s}"
            );
        };
        invalid(&mut SymMatrix::zeros(5), 2, 10);
        invalid(&mut SymMatrix::zeros(4), 0, 10);
        invalid(&mut SymMatrix::zeros(4), 2, 1);
    }

    #[test]
    fn report_helpers() {
        let node = |cross, loads, stores| NodeIo {
            local: stores,
            cross,
            loads,
            stores,
            tasks: 1,
        };
        let report = ShardedReport {
            nodes: 2,
            strategy: SyrkAlgorithm::Tbs,
            memory_per_node: 16,
            per_node: vec![node(10, 12, 2), node(30, 34, 4)],
            assignment: NodeAssignment {
                nodes: vec![vec![0], vec![1]],
                local_volume: vec![2, 4],
                cross_volume: vec![10, 30],
            },
        };
        assert_eq!(report.total_cross(), 40);
        assert_eq!(report.max_cross(), 30);
        assert_eq!(report.total_loads(), 46);
        assert_eq!(report.total_stores(), 6);
        let empty = ShardedReport {
            nodes: 0,
            per_node: vec![],
            ..report
        };
        assert_eq!(empty.max_cross(), 0);
        assert_eq!(empty.total_cross(), 0);
    }
}
