//! Seed-equivalence: the indexed scheduler (`SchedImpl::Indexed`) must
//! reproduce the reference greedy matcher's `RunReport` exactly — same
//! placement sequence, same `results` order, bit-identical floats — for the
//! same seed, on every policy × provisioning × failure combination. The
//! reference matcher is the oracle; any divergence is a scheduler bug.

use lfm_core::prelude::*;
use lfm_core::workloads::{drug, hep};
use std::collections::BTreeMap;

fn assert_equivalent(
    label: &str,
    cfg: &MasterConfig,
    tasks: &[TaskSpec],
    workers: u32,
    spec: NodeSpec,
) {
    let reference = run_workload(
        &cfg.clone().with_sched(SchedImpl::Reference),
        tasks.to_vec(),
        workers,
        spec,
    );
    let indexed = run_workload(
        &cfg.clone().with_sched(SchedImpl::Indexed),
        tasks.to_vec(),
        workers,
        spec,
    );
    // Compare the headline numbers first for a readable failure, then the
    // whole report (including the results vector and its order).
    assert_eq!(
        reference.makespan_secs, indexed.makespan_secs,
        "{label}: makespan diverged"
    );
    assert_eq!(
        reference.results.len(),
        indexed.results.len(),
        "{label}: attempt count diverged"
    );
    for (i, (r, x)) in reference.results.iter().zip(&indexed.results).enumerate() {
        assert_eq!(r, x, "{label}: result #{i} diverged");
    }
    assert_eq!(reference, indexed, "{label}: full report diverged");
}

/// Mixed-memory categories with dependencies, cacheable shared inputs, and
/// per-task data: exercises policy ordering, slow-start parking, NoFit
/// parking, the file-affinity index, and dependency release.
fn mixed_tasks(n: u64) -> Vec<TaskSpec> {
    let env = FileRef::environment("mix-env", 200 << 20, 500 << 20, 4000, 700);
    let calib = FileRef::shared_data("mix-calib", 2 << 20);
    (0..n)
        .map(|i| {
            let (cat, mem) = match i % 4 {
                0 => ("big", 5200),
                1 | 2 => ("small", 900),
                _ => ("mid", 2100),
            };
            let mut t = TaskSpec::new(
                TaskId(i),
                cat,
                vec![
                    env.clone(),
                    calib.clone(),
                    FileRef::data(format!("mix-in-{i}"), 256 << 10),
                ],
                20 << 20,
                SimTaskProfile::new(35.0 + (i % 7) as f64, 1.0, mem, 400),
            );
            if i % 5 == 4 {
                t = t.after(vec![TaskId(i - 2)]);
            }
            t
        })
        .collect()
}

fn mixed_oracle() -> Strategy {
    let mut map = BTreeMap::new();
    map.insert("big".to_string(), Resources::new(1, 5200, 400));
    map.insert("small".to_string(), Resources::new(1, 900, 400));
    map.insert("mid".to_string(), Resources::new(1, 2100, 400));
    Strategy::Oracle(map)
}

const POLICIES: [SchedulePolicy; 3] = [
    SchedulePolicy::Fifo,
    SchedulePolicy::LargestFirst,
    SchedulePolicy::SmallestFirst,
];

#[test]
fn auto_strategy_full_matrix() {
    let spec = NodeSpec::new(8, 8192, 16384);
    for policy in POLICIES {
        for failures in [FaultPlan::reliable(), FaultPlan::evicting(150.0)] {
            for provisioning in [
                Provisioning::Static,
                Provisioning::Elastic {
                    initial: 1,
                    max_workers: 4,
                    batch: 1,
                },
            ] {
                let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                    .with_policy(policy)
                    .with_faults(failures.clone())
                    .with_provisioning(provisioning)
                    .with_seed(11);
                let label = format!("Auto/{policy:?}/{failures:?}/{provisioning:?}");
                assert_equivalent(&label, &cfg, &mixed_tasks(60), 4, spec);
            }
        }
    }
}

#[test]
fn oracle_strategy_full_matrix() {
    let spec = NodeSpec::new(8, 8192, 16384);
    for policy in POLICIES {
        for failures in [FaultPlan::reliable(), FaultPlan::evicting(130.0)] {
            for provisioning in [
                Provisioning::Static,
                Provisioning::Elastic {
                    initial: 2,
                    max_workers: 5,
                    batch: 2,
                },
            ] {
                let cfg = MasterConfig::new(mixed_oracle())
                    .with_policy(policy)
                    .with_faults(failures.clone())
                    .with_provisioning(provisioning)
                    .with_seed(23);
                let label = format!("Oracle/{policy:?}/{failures:?}/{provisioning:?}");
                assert_equivalent(&label, &cfg, &mixed_tasks(60), 5, spec);
            }
        }
    }
}

#[test]
fn guess_with_retries_matches() {
    // A too-small guess kills every first attempt: retries re-enter at the
    // queue front at whole-worker size, the hardest ordering to preserve.
    let spec = NodeSpec::new(8, 8192, 16384);
    for policy in POLICIES {
        let cfg = MasterConfig::new(Strategy::Guess(Resources::new(1, 700, 2048)))
            .with_policy(policy)
            .with_seed(31);
        let label = format!("Guess-retry/{policy:?}");
        assert_equivalent(&label, &cfg, &mixed_tasks(40), 3, spec);
    }
}

#[test]
fn hep_workload_matches_under_churn() {
    let w = hep::build(64, 7);
    let spec = hep::worker_spec(8);
    let cfg = MasterConfig::new(w.oracle_strategy())
        .with_faults(FaultPlan::evicting(100.0))
        .with_seed(5);
    assert_equivalent("hep/evicting", &cfg, &w.tasks, 4, spec);
    let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
        .with_faults(FaultPlan::evicting(140.0))
        .with_provisioning(Provisioning::Elastic {
            initial: 1,
            max_workers: 6,
            batch: 2,
        })
        .with_seed(8);
    assert_equivalent("hep/auto-elastic-evicting", &cfg, &w.tasks, 6, spec);
}

#[test]
fn drug_workload_with_shared_fs_direct_matches() {
    let w = drug::build(16, 3);
    let spec = drug::worker_spec();
    for dist in [DistMode::PackedTransfer, DistMode::SharedFsDirect] {
        let cfg = MasterConfig::new(w.oracle_strategy())
            .with_dist_mode(dist)
            .with_seed(17);
        assert_equivalent(&format!("drug/{dist:?}"), &cfg, &w.tasks, 4, spec);
    }
}

#[test]
fn fault_plan_full_matrix() {
    // Every fault kind, alone and layered, on both strategies: fault draws
    // must happen at placement-identical points (or be keyed by entity id),
    // so the indexed scheduler stays bit-identical under chaos.
    let spec = NodeSpec::new(8, 8192, 16384);
    let plans: [(&str, FaultPlan); 6] = [
        (
            "churn",
            FaultPlan::reliable().with(FaultSpec::worker_churn(140.0)),
        ),
        (
            "straggler",
            FaultPlan::reliable().with(FaultSpec::straggler(0.3, 2.0, 5.0)),
        ),
        (
            "lossy-net",
            FaultPlan::reliable()
                .with(FaultSpec::message_delay(0.2, 2.0))
                .with(FaultSpec::message_loss(0.1)),
        ),
        (
            "flaky-staging",
            FaultPlan::reliable()
                .with(FaultSpec::stage_in_failure(0.2))
                .with(FaultSpec::unpack_disk_full(0.2)),
        ),
        (
            "spurious-kill",
            FaultPlan::reliable().with(FaultSpec::spurious_kill(0.2)),
        ),
        (
            "everything",
            FaultPlan::reliable()
                .with(FaultSpec::worker_churn(200.0))
                .with(FaultSpec::straggler(0.2, 1.5, 3.0))
                .with(FaultSpec::message_delay(0.1, 1.0))
                .with(FaultSpec::message_loss(0.05))
                .with(FaultSpec::stage_in_failure(0.1))
                .with(FaultSpec::unpack_disk_full(0.1))
                .with(FaultSpec::spurious_kill(0.1)),
        ),
    ];
    for (name, plan) in plans {
        for strategy in [Strategy::Auto(AutoConfig::default()), mixed_oracle()] {
            let cfg = MasterConfig::new(strategy)
                .with_faults(plan.clone())
                .with_seed(19);
            let label = format!("faults/{name}");
            assert_equivalent(&label, &cfg, &mixed_tasks(48), 4, spec);
        }
    }
}

#[test]
fn master_crash_recovery_matrix() {
    // Crash/recovery must be placement-invisible: journal records are
    // written at placement-identical points, so the Reference and Indexed
    // schedulers write byte-identical journals, recover to the same state,
    // and the whole crashed-and-recovered run stays bitwise-equivalent —
    // with or without compacting snapshots, alone or layered under chaos.
    let spec = NodeSpec::new(8, 8192, 16384);
    let plans: [(&str, FaultPlan); 3] = [
        (
            "crash-only",
            FaultPlan::reliable().with(FaultSpec::master_crash(20.0, 2)),
        ),
        (
            "crash+churn",
            FaultPlan::reliable()
                .with(FaultSpec::master_crash(25.0, 2))
                .with(FaultSpec::worker_churn(160.0)),
        ),
        (
            "crash+chaos",
            FaultPlan::reliable()
                .with(FaultSpec::master_crash(22.0, 3))
                .with(FaultSpec::straggler(0.2, 1.5, 3.0))
                .with(FaultSpec::message_loss(0.05))
                .with(FaultSpec::stage_in_failure(0.1)),
        ),
    ];
    for (name, plan) in plans {
        for durability in [
            DurabilityConfig::journal_only(),
            DurabilityConfig::journal_with_snapshots(48),
        ] {
            let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                .with_faults(plan.clone())
                .with_durability(durability)
                .with_seed(29);
            let label = format!("recovery/{name}/snap={:?}", durability.snapshot_every);
            assert_equivalent(&label, &cfg, &mixed_tasks(48), 4, spec);
            // The matrix is only meaningful if the crashes actually fire.
            let report = run_workload(
                &cfg.clone().with_sched(SchedImpl::Indexed),
                mixed_tasks(48),
                4,
                spec,
            );
            assert!(report.master_crashes > 0, "{label}: no crash fired");
            assert_eq!(report.recoveries, report.master_crashes, "{label}");
        }
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
    for durability in [
        DurabilityConfig::journal_only(),
        DurabilityConfig::journal_with_snapshots(64),
    ] {
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_faults(plan.clone())
            .with_durability(durability)
            .with_seed(16);
        let label = format!("ledger/snap={:?}", durability.snapshot_every);
        assert_equivalent(&label, &cfg, &w.tasks, 6, drug::worker_spec());
        let report = run_workload(&cfg, w.tasks.clone(), 6, drug::worker_spec());
        assert_eq!(report.master_crashes, 4, "{label}: crashes fired");
        assert_eq!(report.recoveries, 4, "{label}: every crash recovered");
        let succeeded: std::collections::BTreeSet<_> = (report.results.iter())
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

#[test]
fn unmanaged_whole_worker_matches() {
    // Whole-worker allocations park as NoFit until a worker fully drains —
    // the wake-on-fitting-capacity path under maximum contention.
    let spec = NodeSpec::new(8, 8192, 16384);
    let cfg = MasterConfig::new(Strategy::Unmanaged).with_seed(41);
    assert_equivalent("unmanaged", &cfg, &mixed_tasks(30), 2, spec);
}
