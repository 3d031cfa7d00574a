//! Figure 6: HEP completion time under the four strategies, varying task
//! count, worker count, and worker size (2/4/8-core workers with 1 GB
//! memory + 2 GB disk per core).

use crate::experiments::sweep::{point_jobs_owned, run_grid, SweepPoint};
use lfm_workloads::hep;

/// Vary the number of analysis tasks on a fixed pool.
pub fn by_tasks(
    task_counts: &[u64],
    workers: u32,
    worker_cores: u32,
    seed: u64,
) -> Vec<SweepPoint> {
    run_grid(task_counts, |&n| {
        point_jobs_owned(
            n,
            hep::build(n, seed ^ n),
            &|s| hep::master_config(s, seed),
            workers,
            hep::worker_spec(worker_cores),
        )
    })
}

/// Vary the worker count with workload proportional to workers.
pub fn by_workers(
    worker_counts: &[u32],
    tasks_per_worker: u64,
    worker_cores: u32,
    seed: u64,
) -> Vec<SweepPoint> {
    run_grid(worker_counts, |&workers| {
        let n = tasks_per_worker * workers as u64 * worker_cores as u64;
        point_jobs_owned(
            workers as u64,
            hep::build(n, seed ^ n),
            &|s| hep::master_config(s, seed),
            workers,
            hep::worker_spec(worker_cores),
        )
    })
}

/// Vary the worker size (2/4/8 cores) at fixed tasks and workers.
pub fn by_worker_size(tasks: u64, workers: u32, seed: u64) -> Vec<SweepPoint> {
    run_grid(&[2u32, 4, 8], |&cores| {
        point_jobs_owned(
            cores as u64,
            hep::build(tasks, seed ^ cores as u64),
            &|s| hep::master_config(s, seed),
            workers,
            hep::worker_spec(cores),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::series;

    #[test]
    fn ordering_oracle_auto_guess_unmanaged() {
        let points = by_tasks(&[160], 6, 8, 42);
        let get = |s: &str| series(&points, s)[0].makespan_secs;
        let (oracle, auto, guess, unmanaged) =
            (get("Oracle"), get("Auto"), get("Guess"), get("Unmanaged"));
        // The paper's headline ordering.
        assert!(oracle <= auto * 1.05, "oracle {oracle} vs auto {auto}");
        assert!(auto < guess, "auto {auto} vs guess {guess}");
        assert!(guess < unmanaged, "guess {guess} vs unmanaged {unmanaged}");
        assert!(
            unmanaged > 2.0 * oracle,
            "several-fold gap expected: unmanaged {unmanaged} vs oracle {oracle}"
        );
    }

    #[test]
    fn auto_retries_below_one_percent() {
        // "less than 1% of tasks were retried because of resource
        // exhaustion" — the HEP workload is uniform.
        let points = by_tasks(&[100], 6, 8, 7);
        let auto = series(&points, "Auto")[0];
        assert!(
            auto.retry_fraction < 0.01,
            "retries {}",
            auto.retry_fraction
        );
    }

    #[test]
    fn makespan_grows_with_tasks() {
        let points = by_tasks(&[24, 96], 4, 8, 3);
        for s in ["Oracle", "Auto", "Unmanaged"] {
            let ser = series(&points, s);
            assert!(ser[1].makespan_secs > ser[0].makespan_secs, "{s}");
        }
    }

    #[test]
    fn more_workers_help() {
        let points = by_workers(&[2, 8], 2, 4, 5);
        let oracle = series(&points, "Oracle");
        // Workload scales with workers, so perfect scaling would be flat;
        // accept mild growth but require the big pool to stay in the same
        // regime rather than exploding.
        assert!(oracle[1].makespan_secs < 3.0 * oracle[0].makespan_secs);
    }

    #[test]
    fn io_bound_tasks_limit_big_worker_benefit() {
        // "increasing the degree of parallelism on individual workers is of
        // limited benefit": going 2→8 cores must help Oracle less than 4×.
        let points = by_worker_size(64, 6, 11);
        let oracle = series(&points, "Oracle");
        let t2 = oracle[0].makespan_secs;
        let t8 = oracle[2].makespan_secs;
        assert!(t8 < t2, "bigger workers should still help");
        assert!(t2 / t8 < 4.0, "speedup {:.2} should be sub-linear", t2 / t8);
    }
}
