//! Journal bytes grow with the run, not with its square: a compacting image
//! writes what its record tail changed, not the whole run so far.

use lfm_core::prelude::*;
use lfm_core::workloads::drug;

#[test]
fn journal_bytes_grow_linearly_with_the_run() {
    // A compacting image costs what its record tail changed (plus the live
    // placements, which the two workers bound), not the run so far: twice
    // the tasks, and so twice the backlog, may write little more than twice
    // the bytes. While every image was a full one, image bytes grew with
    // tasks² ÷ snapshot interval and this ratio was 3.9.
    let bytes = |pipelines| {
        let w = drug::build(pipelines, 7);
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_durability(DurabilityConfig::journal_with_snapshots(64))
            .with_seed(16);
        let report = run_workload(&cfg, w.tasks.clone(), 2, drug::worker_spec());
        assert_eq!(report.abandoned_tasks, 0);
        report.journal_bytes as f64
    };
    let (one, two) = (bytes(200), bytes(400));
    assert!(two > 1.8 * one, "{two} vs {one}: the run did double");
    assert!(
        two < 2.5 * one,
        "{two} vs {one}: journal bytes are not linear"
    );
}
