//! Figure 7: drug-screening completion time on Theta. Left panel: varying
//! the number of molecule batches on 14 nodes. Right panel: varying worker
//! count with workload proportional to workers.

use crate::experiments::sweep::{point_jobs_owned, run_grid, SweepPoint};
use lfm_workloads::drug;

/// Left panel: vary total batches on a fixed 14-worker pool.
pub fn by_tasks(batch_counts: &[u64], seed: u64) -> Vec<SweepPoint> {
    run_grid(batch_counts, |&n| {
        point_jobs_owned(
            n * 6, // 6 tasks per batch — x-axis is task count
            drug::build(n, seed ^ n),
            &|s| drug::master_config(s, seed),
            14,
            drug::worker_spec(),
        )
    })
}

/// Right panel: vary workers with ~4 tasks per worker.
pub fn by_workers(worker_counts: &[u32], seed: u64) -> Vec<SweepPoint> {
    run_grid(worker_counts, |&workers| {
        // 4 tasks/worker ≈ 2/3 batch per worker (6 tasks per batch).
        let batches = ((4 * workers as u64) / 6).max(1);
        point_jobs_owned(
            workers as u64,
            drug::build(batches, seed ^ workers as u64),
            &|s| drug::master_config(s, seed),
            workers,
            drug::worker_spec(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::series;

    #[test]
    fn oracle_first_auto_close_unmanaged_worst() {
        // 120 batches = 720 tasks saturates the 14-node pool; below
        // saturation the strategies converge (as in the paper's left edge).
        let points = by_tasks(&[120], 21);
        let get = |s: &str| series(&points, s)[0].makespan_secs;
        assert!(get("Oracle") <= get("Auto") * 1.1);
        assert!(get("Unmanaged") > get("Oracle") * 1.5);
        assert!(get("Unmanaged") > get("Auto"));
    }

    #[test]
    fn completion_grows_with_batches() {
        let points = by_tasks(&[10, 120], 9);
        let oracle = series(&points, "Oracle");
        assert!(oracle[1].makespan_secs > oracle[0].makespan_secs);
    }

    #[test]
    fn worker_sweep_produces_all_strategies() {
        let points = by_workers(&[4, 8], 13);
        assert_eq!(points.len(), 8);
        for s in ["Oracle", "Auto", "Guess", "Unmanaged"] {
            assert_eq!(series(&points, s).len(), 2, "{s}");
        }
    }
}
