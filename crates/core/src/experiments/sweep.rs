//! Shared machinery for the Figure 6–9 strategy sweeps.
//!
//! A sweep decomposes into independent [`SweepJob`]s — one per
//! (x-value, strategy) pair — each carrying everything its simulation needs.
//! [`run_jobs`] fans them across cores via [`crate::parallel`]; because every
//! job is seeded and self-contained, the output is byte-identical to the
//! serial [`run_point`] loop it generalizes. [`run_grid`] is the same fan-out
//! with each grid point's workload built inside the pool, once, by the
//! point's first strategy, in a round that runs every point's first strategy
//! before any second one.

use lfm_simcluster::node::NodeSpec;
use lfm_workloads::common::Workload;
use lfm_workqueue::allocate::Strategy;
use lfm_workqueue::master::{run_prepared, MasterConfig};
use lfm_workqueue::prepared::PreparedWorkload;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One plotted point: x-value (tasks or workers), strategy, completion time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Meaning depends on the sweep: task count or worker count.
    pub x: u64,
    pub strategy: String,
    pub makespan_secs: f64,
    pub retry_fraction: f64,
    pub core_efficiency: f64,
}

/// The standard four-strategy set for a workload (Figures 6–8).
pub fn standard_strategies(w: &Workload) -> Vec<Strategy> {
    vec![
        w.oracle_strategy(),
        Strategy::Auto(Default::default()),
        w.guess_strategy(),
        Strategy::Unmanaged,
    ]
}

/// One self-contained simulation: a single (x-value, strategy) cell of a
/// sweep grid. The workload is prepared once per grid point and shared: the
/// four strategies of a point read one checked, indexed task table.
#[derive(Debug, Clone)]
pub struct SweepJob {
    pub x: u64,
    pub strategy: Strategy,
    pub tasks: Arc<PreparedWorkload>,
    pub config: MasterConfig,
    pub workers: u32,
    pub spec: NodeSpec,
}

/// Decompose one grid point (one workload, all strategies) into jobs. Copies
/// the workload's tasks; [`point_jobs_owned`] does not.
pub fn point_jobs(
    x: u64,
    workload: &Workload,
    strategies: &[Strategy],
    config_for: &dyn Fn(Strategy) -> MasterConfig,
    workers: u32,
    spec: NodeSpec,
) -> Vec<SweepJob> {
    let tasks = Arc::new(PreparedWorkload::new(workload.tasks.clone()));
    jobs_over(x, tasks, strategies, config_for, workers, spec)
}

/// [`point_jobs`] under the [`standard_strategies`], taking the workload by
/// value: its task vector moves into the shared prepared table.
pub fn point_jobs_owned(
    x: u64,
    workload: Workload,
    config_for: &dyn Fn(Strategy) -> MasterConfig,
    workers: u32,
    spec: NodeSpec,
) -> Vec<SweepJob> {
    let strategies = standard_strategies(&workload);
    let tasks = Arc::new(PreparedWorkload::new(workload.tasks));
    jobs_over(x, tasks, &strategies, config_for, workers, spec)
}

fn jobs_over(
    x: u64,
    tasks: Arc<PreparedWorkload>,
    strategies: &[Strategy],
    config_for: &dyn Fn(Strategy) -> MasterConfig,
    workers: u32,
    spec: NodeSpec,
) -> Vec<SweepJob> {
    strategies
        .iter()
        .map(|s| SweepJob {
            x,
            strategy: s.clone(),
            tasks: Arc::clone(&tasks),
            config: config_for(s.clone()),
            workers,
            spec,
        })
        .collect()
}

/// Pre-interned names for the per-job sweep span (one emission per grid
/// point, across every fig6-fig9 runner).
struct SweepKeys {
    run_job: lfm_telemetry::Name,
    cat_sweep: lfm_telemetry::Name,
    a_strategy: lfm_telemetry::Name,
    a_x: lfm_telemetry::Name,
}

fn sk() -> &'static SweepKeys {
    static KEYS: std::sync::OnceLock<SweepKeys> = std::sync::OnceLock::new();
    KEYS.get_or_init(|| SweepKeys {
        run_job: lfm_telemetry::Name::intern("run_job"),
        cat_sweep: lfm_telemetry::Name::intern("sweep"),
        a_strategy: lfm_telemetry::Name::intern("strategy"),
        a_x: lfm_telemetry::Name::intern("x"),
    })
}

/// Execute one job. Panics if the simulated workload fails to complete,
/// exactly as the serial runners always have.
pub fn run_job(job: SweepJob) -> SweepPoint {
    let mut span = lfm_telemetry::global().wall_span_key(sk().run_job, sk().cat_sweep);
    span.attr_key(sk().a_strategy, job.strategy.name());
    span.attr_key(sk().a_x, job.x);
    let report = run_prepared(&job.config, &job.tasks, job.workers, job.spec);
    assert_eq!(
        report.abandoned_tasks,
        0,
        "{}: workload must complete (x={})",
        job.strategy.name(),
        job.x
    );
    SweepPoint {
        x: job.x,
        strategy: job.strategy.name().to_string(),
        makespan_secs: report.makespan_secs,
        retry_fraction: report.retry_fraction(),
        core_efficiency: report.core_efficiency(),
    }
}

/// Run a batch of jobs across all available cores, output in job order.
pub fn run_jobs(jobs: Vec<SweepJob>) -> Vec<SweepPoint> {
    crate::parallel::run_sweep_parallel(jobs, |_| (), |job| vec![run_job(job)])
}

/// How many jobs [`standard_strategies`] makes of a grid point.
const STANDARD_STRATEGIES: usize = 4;

/// Run a whole grid under the [`standard_strategies`]: `jobs_of` builds one
/// point's workload and decomposes it ([`point_jobs_owned`]) inside the pool,
/// once per point, and the last of the point's jobs to finish frees it.
/// Output is exactly `points.iter().flat_map(jobs_of).map(run_job)`. Cells
/// are dispatched strategy-major — round `s` is strategy `s` of every point —
/// so round 0 builds every point, and no later cell waits on a build another
/// thread is doing unless the grid has fewer points than threads.
pub fn run_grid<P: Sync>(
    points: &[P],
    jobs_of: impl Fn(&P) -> Vec<SweepJob> + Sync,
) -> Vec<SweepPoint> {
    grid_cells(points, jobs_of, run_job)
}

/// [`run_grid`] over any job type and runner.
fn grid_cells<P: Sync, J: Send>(
    points: &[P],
    jobs_of: impl Fn(&P) -> Vec<J> + Sync,
    run: impl Fn(J) -> SweepPoint + Sync,
) -> Vec<SweepPoint> {
    // Per point, its jobs once built (empty until then), each taken by the
    // cell that runs it.
    let built: Vec<Mutex<Vec<Option<J>>>> = points.iter().map(|_| Mutex::new(Vec::new())).collect();
    let cells = (0..points.len())
        .flat_map(|p| (0..STANDARD_STRATEGIES).map(move |s| (p, s)))
        .collect();
    crate::parallel::run_sweep_parallel(
        cells,
        |&(_, s)| s,
        |(p, s)| {
            let job = {
                let mut jobs = built[p].lock();
                if jobs.is_empty() {
                    jobs.extend(jobs_of(&points[p]).into_iter().map(Some));
                    assert_eq!(jobs.len(), STANDARD_STRATEGIES, "one job per strategy");
                }
                jobs[s].take().expect("each cell runs once")
            };
            vec![run(job)]
        },
    )
}

/// Run every strategy over one workload instance, serially. Kept as the
/// reference implementation the parallel engine is tested against.
pub fn run_point(
    x: u64,
    workload: &Workload,
    strategies: &[Strategy],
    config_for: &dyn Fn(Strategy) -> MasterConfig,
    workers: u32,
    spec: NodeSpec,
) -> Vec<SweepPoint> {
    point_jobs(x, workload, strategies, config_for, workers, spec)
        .into_iter()
        .map(run_job)
        .collect()
}

/// Fetch one strategy's series from a point cloud, ordered by x.
pub fn series<'a>(points: &'a [SweepPoint], strategy: &str) -> Vec<&'a SweepPoint> {
    let mut s: Vec<&SweepPoint> = points.iter().filter(|p| p.strategy == strategy).collect();
    s.sort_by_key(|p| p.x);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::with_threads;
    use lfm_workloads::hep;

    /// One fig6 `by_tasks` point, as that runner decomposes it.
    fn hep_jobs(&n: &u64) -> Vec<SweepJob> {
        let seed = 2021;
        point_jobs_owned(
            n,
            hep::build(n, seed ^ n),
            &|s| hep::master_config(s, seed),
            4,
            hep::worker_spec(8),
        )
    }

    #[test]
    fn grid_and_jobs_match_the_serial_loop_at_2_and_4_threads() {
        let points = [12u64, 36, 24];
        let serial: Vec<SweepPoint> = points.iter().flat_map(hep_jobs).map(run_job).collect();
        for threads in [2, 4] {
            let grid = with_threads(threads, || run_grid(&points, hep_jobs));
            assert_eq!(grid, serial, "run_grid, {threads} threads");
            let jobs = points.iter().flat_map(hep_jobs).collect();
            let jobs = with_threads(threads, || run_jobs(jobs));
            assert_eq!(jobs, serial, "run_jobs, {threads} threads");
        }
    }

    #[derive(Debug, PartialEq)]
    enum Step {
        Build(usize),
        Run(usize, usize),
    }

    #[test]
    fn one_thread_builds_every_point_before_any_second_strategy() {
        let points: Vec<usize> = (0..5).collect();
        let cell = |p: usize, s: usize| SweepPoint {
            x: (10 * p + s) as u64,
            strategy: format!("s{s}"),
            makespan_secs: 1.0,
            retry_fraction: 0.0,
            core_efficiency: 1.0,
        };
        let in_point_order: Vec<SweepPoint> = (points.iter())
            .flat_map(|&p| (0..STANDARD_STRATEGIES).map(move |s| cell(p, s)))
            .collect();
        for threads in [1, 2, 4] {
            let log = Mutex::new(Vec::new());
            let out = with_threads(threads, || {
                grid_cells(
                    &points,
                    |&p| {
                        log.lock().push(Step::Build(p));
                        (0..STANDARD_STRATEGIES).map(|s| (p, s)).collect()
                    },
                    |(p, s)| {
                        log.lock().push(Step::Run(p, s));
                        cell(p, s)
                    },
                )
            });
            assert_eq!(out, in_point_order, "{threads} threads");
            if threads == 1 {
                // Round 0 builds and runs each point; rounds 1-3 only run.
                let rounds: Vec<Step> = (points.iter())
                    .flat_map(|&p| [Step::Build(p), Step::Run(p, 0)])
                    .chain(
                        (1..STANDARD_STRATEGIES)
                            .flat_map(|s| points.iter().map(move |&p| Step::Run(p, s))),
                    )
                    .collect();
                assert_eq!(log.into_inner(), rounds);
            }
        }
    }

    #[test]
    fn run_point_covers_all_strategies() {
        let w = hep::build(12, 1);
        let strategies = standard_strategies(&w);
        let points = run_point(
            12,
            &w,
            &strategies,
            &|s| MasterConfig::new(s).with_seed(1),
            4,
            hep::worker_spec(8),
        );
        assert_eq!(points.len(), 4);
        let names: Vec<_> = points.iter().map(|p| p.strategy.as_str()).collect();
        assert_eq!(names, vec!["Oracle", "Auto", "Guess", "Unmanaged"]);
        assert!(points.iter().all(|p| p.makespan_secs > 0.0));
    }

    #[test]
    fn series_sorted_by_x() {
        let mk = |x, s: &str| SweepPoint {
            x,
            strategy: s.into(),
            makespan_secs: 1.0,
            retry_fraction: 0.0,
            core_efficiency: 1.0,
        };
        let points = vec![mk(30, "Auto"), mk(10, "Auto"), mk(20, "Oracle")];
        let s = series(&points, "Auto");
        assert_eq!(s.iter().map(|p| p.x).collect::<Vec<_>>(), vec![10, 30]);
    }
}
