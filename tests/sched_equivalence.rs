//! The paper's own workloads under the indexed scheduler, pinned by report
//! digest: an FNV-1a of `format!("{report:?}")` — every field, every result
//! row, bit-exact floats — for runs that were asserted equal to the
//! reference greedy matcher's for the same seed when that matcher still
//! built outside its crate. It is a test-only oracle of `lfm-workqueue` now,
//! which races it live on synthetic twins of these shapes
//! (`crates/workqueue/src/sched_equivalence.rs`). A digest that moves means
//! the indexed scheduler no longer places these workloads as the reference
//! did.

use lfm_core::prelude::*;
use lfm_core::pyenv::pack::Fnv1a;
use lfm_core::workloads::{drug, hep};
use std::collections::BTreeSet;
use std::fmt::Write;

/// FNV-1a of the report's `Debug` rendering.
fn digest(report: &RunReport) -> u64 {
    let mut h = Fnv1a::new();
    write!(h, "{report:?}").expect("hashing never fails");
    h.finish()
}

#[test]
fn hep_workload_matches_under_churn() {
    let w = hep::build(64, 7);
    let spec = hep::worker_spec(8);
    let cfg = MasterConfig::new(w.oracle_strategy())
        .with_faults(FaultPlan::evicting(100.0))
        .with_seed(5);
    let report = run_workload(&cfg, w.tasks.clone(), 4, spec);
    assert_eq!(digest(&report), 0xeda9_66c9_75b5_bf93, "hep/evicting");
    let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
        .with_faults(FaultPlan::evicting(140.0))
        .with_provisioning(Provisioning::Elastic {
            initial: 1,
            max_workers: 6,
            batch: 2,
        })
        .with_seed(8);
    let report = run_workload(&cfg, w.tasks.clone(), 6, spec);
    assert_eq!(
        digest(&report),
        0x2476_1c75_9896_3ada,
        "hep/auto-elastic-evicting"
    );
}

#[test]
fn drug_workload_with_shared_fs_direct_matches() {
    let w = drug::build(16, 3);
    let spec = drug::worker_spec();
    for (dist, pinned) in [
        (DistMode::PackedTransfer, 0xb2f9_549a_151f_ac9c),
        (DistMode::SharedFsDirect, 0x00a7_9c54_f118_0df3),
    ] {
        let cfg = MasterConfig::new(w.oracle_strategy())
            .with_dist_mode(dist)
            .with_seed(17);
        let report = run_workload(&cfg, w.tasks.clone(), 4, spec);
        assert_eq!(digest(&report), pinned, "drug/{dist:?}");
    }
}

#[test]
fn ledger_replay_equals_live_at_every_crash() {
    // Every crash of a journaled master folds `snapshot ⊕ tail` and, in a
    // debug build, asserts the folded ledger equals the live one before the
    // live one is discarded. That holds only if every change to journaled
    // state went through `Master::commit`: swap one commit for a direct
    // field write and replay no longer sees it, so this run panics at the
    // next crash. The drug-screening DAG under all seven fault kinds
    // reaches every record kind a batch run writes; four crashes check the
    // fold from a fresh ledger, from a snapshot, and from an image that was
    // itself restored.
    let w = drug::build(16, 7);
    let plan = FaultPlan::reliable()
        .with(FaultSpec::master_crash(25.0, 4))
        .with(FaultSpec::worker_churn(1500.0))
        .with(FaultSpec::straggler(0.2, 1.5, 3.0))
        .with(FaultSpec::message_delay(0.1, 1.0))
        .with(FaultSpec::message_loss(0.05))
        .with(FaultSpec::stage_in_failure(0.1))
        .with(FaultSpec::unpack_disk_full(0.1))
        .with(FaultSpec::spurious_kill(0.1));
    for (durability, pinned) in [
        (DurabilityConfig::journal_only(), 0x910f_223f_0d9d_2628),
        (
            DurabilityConfig::journal_with_snapshots(64),
            0xd625_7118_b7d6_dd45,
        ),
    ] {
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_faults(plan.clone())
            .with_durability(durability)
            .with_seed(16);
        let label = format!("ledger/snap={:?}", durability.snapshot_every);
        let report = run_workload(&cfg, w.tasks.clone(), 6, drug::worker_spec());
        assert_eq!(digest(&report), pinned, "{label}");
        assert_eq!(report.master_crashes, 4, "{label}: crashes fired");
        assert_eq!(report.recoveries, 4, "{label}: every crash recovered");
        let succeeded: BTreeSet<_> = (report.results.iter())
            .filter(|r| r.outcome.is_success())
            .map(|r| r.task)
            .collect();
        assert_eq!(
            succeeded.len() as u64 + report.abandoned_tasks,
            w.tasks.len() as u64,
            "{label}: successes + abandoned == submitted"
        );
    }
}
