//! Figure 9: funcX image-classification benchmark — LFM (Auto, Guess)
//! vs. non-LFM containers (Unmanaged), varying tasks and workers.

use crate::experiments::sweep::SweepPoint;
use crate::parallel::run_sweep_parallel;
use lfm_funcx::container::ActivationTech;
use lfm_funcx::registry::FunctionRegistry;
use lfm_funcx::service::{Endpoint, ExecutionMode, FuncXService};
use lfm_workloads::faas;
use lfm_workqueue::allocate::Strategy;
use lfm_workqueue::files::FileRef;
use std::cmp::Reverse;

/// The three Figure 9 configurations.
fn modes() -> Vec<(&'static str, ExecutionMode)> {
    vec![
        (
            "Auto",
            ExecutionMode::Lfm(Strategy::Auto(Default::default())),
        ),
        ("Guess", ExecutionMode::Lfm(Strategy::Guess(faas::guess()))),
        (
            "Unmanaged",
            ExecutionMode::Container(ActivationTech::Singularity),
        ),
    ]
}

/// One (batch-size, mode) cell of the Figure 9 grid.
struct BatchJob {
    x: u64,
    name: &'static str,
    mode: ExecutionMode,
    n_tasks: u64,
    workers: u32,
    seed: u64,
}

const FUNCTION: &str = "classify_image";

/// The classifier's packed environment as the service prepares it for a
/// registered function. It depends on the function alone, so a grid prepares
/// it once and every cell borrows it.
fn classifier_env() -> FileRef {
    let mut reg = FunctionRegistry::new();
    let id = reg
        .register(FUNCTION, faas::source())
        .expect("source registers");
    FuncXService::new()
        .environment_for(&reg, id)
        .expect("classifier environment resolves")
}

fn run_batch_job(job: BatchJob, env_file: &FileRef) -> SweepPoint {
    let ep = Endpoint::new("hpc-endpoint", faas::worker_spec(), job.workers);
    let report = FuncXService::run_batch_with_env(
        FUNCTION,
        env_file,
        job.n_tasks,
        &ep,
        &job.mode,
        faas::resnet_profile(),
        faas::image_bytes(),
        job.seed,
    );
    assert_eq!(report.abandoned_tasks, 0, "{}", job.name);
    SweepPoint {
        x: job.x,
        strategy: job.name.to_string(),
        makespan_secs: report.makespan_secs,
        retry_fraction: report.retry_fraction(),
        core_efficiency: report.core_efficiency(),
    }
}

fn batch_jobs(x: u64, n_tasks: u64, workers: u32, seed: u64) -> Vec<BatchJob> {
    modes()
        .into_iter()
        .map(|(name, mode)| BatchJob {
            x,
            name,
            mode,
            n_tasks,
            workers,
            seed,
        })
        .collect()
}

fn run_batch_jobs(jobs: Vec<BatchJob>) -> Vec<SweepPoint> {
    let env_file = classifier_env();
    // Most tasks first, so the fork-join ends on small batches.
    let largest_first = |job: &BatchJob| Reverse(job.n_tasks);
    run_sweep_parallel(jobs, largest_first, |job| {
        vec![run_batch_job(job, &env_file)]
    })
}

/// Left panel: vary task count on a fixed pool.
pub fn by_tasks(task_counts: &[u64], workers: u32, seed: u64) -> Vec<SweepPoint> {
    run_batch_jobs(
        task_counts
            .iter()
            .flat_map(|&n| batch_jobs(n, n, workers, seed ^ n))
            .collect(),
    )
}

/// Right panel: vary workers with tasks proportional to workers.
pub fn by_workers(worker_counts: &[u32], tasks_per_worker: u64, seed: u64) -> Vec<SweepPoint> {
    run_batch_jobs(
        worker_counts
            .iter()
            .flat_map(|&w| batch_jobs(w as u64, tasks_per_worker * w as u64, w, seed ^ w as u64))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::series;
    use crate::parallel::tests::with_threads;

    #[test]
    fn batches_match_the_serial_loop_at_2_and_4_threads() {
        let (counts, workers, seed) = ([16u64, 48, 32], 4, 9);
        let env_file = classifier_env();
        let serial: Vec<SweepPoint> = (counts.iter())
            .flat_map(|&n| batch_jobs(n, n, workers, seed ^ n))
            .map(|job| run_batch_job(job, &env_file))
            .collect();
        for threads in [2, 4] {
            let parallel = with_threads(threads, || by_tasks(&counts, workers, seed));
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn lfm_auto_near_oracle_beats_unmanaged() {
        let points = by_tasks(&[64], 4, 3);
        let get = |s: &str| series(&points, s)[0].makespan_secs;
        assert!(
            get("Unmanaged") > 2.0 * get("Auto"),
            "unmanaged {} vs auto {}",
            get("Unmanaged"),
            get("Auto")
        );
        assert!(get("Auto") <= get("Guess") * 1.05);
    }

    #[test]
    fn three_lines_per_point() {
        let points = by_workers(&[2, 4], 8, 5);
        assert_eq!(points.len(), 6);
        for s in ["Auto", "Guess", "Unmanaged"] {
            assert_eq!(series(&points, s).len(), 2, "{s}");
        }
    }

    #[test]
    fn makespan_grows_with_tasks() {
        let points = by_tasks(&[32, 128], 4, 7);
        for s in ["Auto", "Unmanaged"] {
            let ser = series(&points, s);
            assert!(ser[1].makespan_secs > ser[0].makespan_secs, "{s}");
        }
    }
}
