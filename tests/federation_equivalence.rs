//! Federation equivalence and conservation: a 1-shard federation must be
//! *bitwise identical* to the single master (same `RunReport`, same
//! results order, bit-identical floats) across the policy × provisioning ×
//! fault matrix, and an N-shard federation must conserve tasks
//! — successes plus abandoned equals submitted, no double completion —
//! under random fault plans including per-shard master crashes with
//! journal recovery.

use lfm_core::prelude::*;
use lfm_core::workloads::hep;
use lfm_core::workqueue::allocate::Strategy;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The mixed shape of the in-crate scheduler matrix: mixed-memory categories,
/// cacheable shared inputs, and a chain dependency every fifth task (which
/// round-robin partitioning turns into a cross-shard handoff).
fn mixed_tasks(n: u64) -> Vec<TaskSpec> {
    let env = FileRef::environment("fedeq-env", 200 << 20, 500 << 20, 4000, 700);
    let calib = FileRef::shared_data("fedeq-calib", 2 << 20);
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
                    FileRef::data(format!("fedeq-in-{i}"), 256 << 10),
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

fn assert_one_shard_bitwise(label: &str, cfg: &MasterConfig, tasks: &[TaskSpec], workers: u32) {
    let spec = NodeSpec::new(8, 8192, 16384);
    let single = run_workload(cfg, tasks.to_vec(), workers, spec);
    let fed = run_federated(
        cfg,
        &FederationConfig::new(1),
        tasks.to_vec(),
        workers,
        spec,
    );
    assert_eq!(
        single.makespan_secs, fed.merged.makespan_secs,
        "{label}: makespan diverged"
    );
    for (i, (s, f)) in single.results.iter().zip(&fed.merged.results).enumerate() {
        assert_eq!(s, f, "{label}: result #{i} diverged");
    }
    assert_eq!(single, fed.merged, "{label}: full report diverged");
    assert_eq!(
        fed.steals, 0,
        "{label}: 1-shard federation stole from itself"
    );
    assert_eq!(
        fed.cross_shard_releases, 0,
        "{label}: 1-shard federation sent itself a handoff"
    );
}

/// Successes + abandoned must equal the workload size exactly: nothing
/// lost in a handoff, nothing completed twice after a steal.
fn assert_conserves(label: &str, fed: &lfm_core::workqueue::federation::FederationReport, n: u64) {
    let successes = fed
        .merged
        .results
        .iter()
        .filter(|r| r.outcome.is_success())
        .count() as u64;
    assert_eq!(
        successes + fed.merged.abandoned_tasks,
        n,
        "{label}: tasks not conserved (successes {successes} + abandoned {})",
        fed.merged.abandoned_tasks
    );
    let mut succeeded: Vec<u64> = fed
        .merged
        .results
        .iter()
        .filter(|r| r.outcome.is_success())
        .map(|r| r.task.0)
        .collect();
    succeeded.sort_unstable();
    let before = succeeded.len();
    succeeded.dedup();
    assert_eq!(before, succeeded.len(), "{label}: a task succeeded twice");
}

/// The reference matcher's half of this matrix runs in-crate, where that
/// matcher is built (`one_shard_reference_matrix_is_bitwise_identical`).
#[test]
fn one_shard_matrix_is_bitwise_identical() {
    for policy in POLICIES {
        for provisioning in [
            Provisioning::Static,
            Provisioning::Elastic {
                initial: 1,
                max_workers: 4,
                batch: 1,
            },
        ] {
            for failures in [FaultPlan::reliable(), FaultPlan::evicting(150.0)] {
                let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                    .with_policy(policy)
                    .with_provisioning(provisioning)
                    .with_faults(failures.clone())
                    .with_seed(11);
                let label = format!("1shard/{policy:?}/{provisioning:?}/{failures:?}");
                assert_one_shard_bitwise(&label, &cfg, &mixed_tasks(48), 4);
            }
        }
    }
}

#[test]
fn one_shard_oracle_under_crashes_is_bitwise_identical() {
    let plan = FaultPlan::reliable()
        .with(FaultSpec::master_crash(20.0, 2))
        .with(FaultSpec::worker_churn(160.0));
    let cfg = MasterConfig::new(mixed_oracle())
        .with_faults(plan)
        .with_durability(DurabilityConfig::journal_with_snapshots(48))
        .with_seed(29);
    assert_one_shard_bitwise("1shard/oracle-crash", &cfg, &mixed_tasks(48), 4);
}

#[test]
fn one_shard_hep_workload_is_bitwise_identical() {
    let w = hep::build(48, 7);
    let spec = hep::worker_spec(8);
    let cfg = MasterConfig::new(w.oracle_strategy())
        .with_faults(FaultPlan::evicting(120.0))
        .with_seed(5);
    let single = run_workload(&cfg, w.tasks.clone(), 4, spec);
    let fed = run_federated(&cfg, &FederationConfig::new(1), w.tasks.clone(), 4, spec);
    assert_eq!(single, fed.merged, "hep 1-shard diverged");
}

#[test]
fn n_shard_conserves_under_full_fault_matrix() {
    let plans: [(&str, FaultPlan); 5] = [
        ("reliable", FaultPlan::reliable()),
        (
            "churn",
            FaultPlan::reliable().with(FaultSpec::worker_churn(140.0)),
        ),
        (
            "lossy-net",
            FaultPlan::reliable()
                .with(FaultSpec::message_delay(0.2, 2.0))
                .with(FaultSpec::message_loss(0.1)),
        ),
        (
            "chaos",
            FaultPlan::reliable()
                .with(FaultSpec::worker_churn(200.0))
                .with(FaultSpec::straggler(0.2, 1.5, 3.0))
                .with(FaultSpec::message_loss(0.05))
                .with(FaultSpec::stage_in_failure(0.1))
                .with(FaultSpec::unpack_disk_full(0.1))
                .with(FaultSpec::spurious_kill(0.1)),
        ),
        (
            "per-shard-crash",
            FaultPlan::reliable()
                .with(FaultSpec::master_crash(25.0, 2))
                .with(FaultSpec::worker_churn(180.0)),
        ),
    ];
    for (name, plan) in plans {
        for shards in [2u32, 3] {
            for partition in [PartitionPolicy::RoundRobin, PartitionPolicy::ByComponent] {
                let mut cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                    .with_faults(plan.clone())
                    .with_seed(19);
                if name == "per-shard-crash" {
                    cfg = cfg.with_durability(DurabilityConfig::journal_only());
                }
                let fed = run_federated(
                    &cfg,
                    &FederationConfig::new(shards).with_partition(partition),
                    mixed_tasks(48),
                    6,
                    NodeSpec::new(8, 8192, 16384),
                );
                let label = format!("conserve/{name}/{shards}shards/{partition:?}");
                assert_conserves(&label, &fed, 48);
                if name == "per-shard-crash" {
                    assert!(
                        fed.merged.master_crashes > 0,
                        "{label}: no shard master ever crashed"
                    );
                    assert_eq!(
                        fed.merged.recoveries, fed.merged.master_crashes,
                        "{label}: crash without recovery"
                    );
                }
            }
        }
    }
}

#[test]
fn n_shard_runs_are_deterministic() {
    let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
        .with_faults(FaultPlan::evicting(140.0))
        .with_seed(37);
    let f = FederationConfig::new(3).with_partition(PartitionPolicy::RoundRobin);
    let spec = NodeSpec::new(8, 8192, 16384);
    let a = run_federated(&cfg, &f, mixed_tasks(48), 6, spec);
    let b = run_federated(&cfg, &f, mixed_tasks(48), 6, spec);
    assert_eq!(a.merged, b.merged);
    assert_eq!(a.stolen_tasks, b.stolen_tasks);
    assert_eq!(a.cross_shard_releases, b.cross_shard_releases);
}

/// A one-category workload under `ByCategory` lands entirely on shard 0:
/// the only way shard 1 finishes anything is the stealing path.
#[test]
fn stealing_migrates_and_conserves() {
    let tasks: Vec<TaskSpec> = mixed_tasks(40)
        .into_iter()
        .map(|mut t| {
            t.category = "only".to_string();
            t.deps.clear();
            t
        })
        .collect();
    let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default())).with_seed(53);
    let fed = run_federated(
        &cfg,
        &FederationConfig::new(2).with_partition(PartitionPolicy::ByCategory),
        tasks,
        4,
        NodeSpec::new(8, 8192, 16384),
    );
    assert!(fed.stolen_tasks > 0, "balancer never fired");
    assert_conserves("stealing", &fed, 40);
    assert!(
        fed.shard_completed.iter().all(|&c| c > 0),
        "an idle shard did no work: {:?}",
        fed.shard_completed
    );
}

/// The same one-category workload with per-shard journals that compact
/// every few records and shard masters that crash: `Stolen` records land in
/// tails that delta images compact, and the victim's image chain must still
/// decode to a queue without the migrated tasks (asserted at every
/// compaction of a debug build) or recovery would run them twice.
#[test]
fn stealing_across_delta_images_conserves_and_recovers() {
    let tasks: Vec<TaskSpec> = mixed_tasks(40)
        .into_iter()
        .map(|mut t| {
            t.category = "only".to_string();
            t.deps.clear();
            t
        })
        .collect();
    for every in [1, 6, 48] {
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(25.0, 2)))
            .with_durability(DurabilityConfig::journal_with_snapshots(every))
            .with_seed(53);
        let fed = run_federated(
            &cfg,
            &FederationConfig::new(2).with_partition(PartitionPolicy::ByCategory),
            tasks.clone(),
            4,
            NodeSpec::new(8, 8192, 16384),
        );
        let label = format!("stealing/snap={every}");
        assert!(fed.stolen_tasks > 0, "{label}: balancer never fired");
        assert_conserves(&label, &fed, 40);
        assert!(fed.merged.master_crashes > 0, "{label}: no crash fired");
        assert_eq!(
            fed.merged.recoveries, fed.merged.master_crashes,
            "{label}: crash without recovery"
        );
    }
}

/// Regression: a master-side timer (task backoff) whose deadline passed
/// while a shard's master was down used to be re-armed at the recovery
/// instant but *behind* the `Recovered` event in the FIFO tie — the timer
/// popped while the master was still down and was silently discarded,
/// leaving the task in limbo and its cross-shard dependents waiting
/// forever. This seed reproduced the livelock before the fix.
#[test]
fn clamped_backoff_timer_survives_per_shard_crash() {
    let plan = FaultPlan::reliable()
        .with(FaultSpec::worker_churn(150.0))
        .with(FaultSpec::message_delay(0.15, 1.5))
        .with(FaultSpec::message_loss(0.08))
        .with(FaultSpec::stage_in_failure(0.15))
        .with(FaultSpec::master_crash(25.0, 2));
    let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
        .with_faults(plan)
        .with_seed(634)
        .with_durability(DurabilityConfig::journal_only());
    let fed = run_federated(
        &cfg,
        &FederationConfig::new(4).with_partition(PartitionPolicy::RoundRobin),
        mixed_tasks(42),
        8,
        NodeSpec::new(8, 8192, 16384),
    );
    assert_conserves("repro", &fed, 42);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Task conservation holds for arbitrary seeds, shard counts,
    /// partitions, and randomly composed fault plans — always including
    /// per-shard master crashes with journaled recovery.
    #[test]
    fn prop_n_shard_conserves_tasks(
        seed in 0u64..1_000,
        shards in 2u32..=4,
        n in 24u64..56,
        partition_sel in 0usize..3,
        churn in any::<bool>(),
        lossy in any::<bool>(),
        flaky_staging in any::<bool>(),
        crash in any::<bool>(),
        snapshots in any::<bool>(),
    ) {
        let mut plan = FaultPlan::reliable();
        if churn {
            plan = plan.with(FaultSpec::worker_churn(150.0));
        }
        if lossy {
            plan = plan
                .with(FaultSpec::message_delay(0.15, 1.5))
                .with(FaultSpec::message_loss(0.08));
        }
        if flaky_staging {
            plan = plan.with(FaultSpec::stage_in_failure(0.15));
        }
        if crash {
            plan = plan.with(FaultSpec::master_crash(25.0, 2));
        }
        let partition = [
            PartitionPolicy::RoundRobin,
            PartitionPolicy::ByCategory,
            PartitionPolicy::ByComponent,
        ][partition_sel];
        let mut cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_faults(plan)
            .with_seed(seed);
        if crash {
            // With snapshots, cross-shard `RemoteDep` and `Stolen` records
            // reach recovery through delta images rather than replay.
            cfg = cfg.with_durability(if snapshots {
                DurabilityConfig::journal_with_snapshots(7)
            } else {
                DurabilityConfig::journal_only()
            });
        }
        let fed = run_federated(
            &cfg,
            &FederationConfig::new(shards).with_partition(partition),
            mixed_tasks(n),
            shards * 2,
            NodeSpec::new(8, 8192, 16384),
        );
        let label = format!("prop/{seed}/{shards}/{partition:?}");
        assert_conserves(&label, &fed, n);
        if crash {
            prop_assert_eq!(fed.merged.recoveries, fed.merged.master_crashes);
        }
    }
}
