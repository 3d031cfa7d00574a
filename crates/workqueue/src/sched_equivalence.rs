//! Seed-equivalence: the indexed scheduler must reproduce the reference
//! matcher's `RunReport` exactly — same placement sequence, same `results`
//! order, bit-identical floats — for the same seed, on every policy ×
//! provisioning × failure combination, alone and as a one-shard federation.
//! The reference matcher (`master::reference`) is the oracle; any divergence
//! is a scheduler bug. It exists in test builds of this crate only, so the
//! matrix runs here; the integration suite pins the paper's own workloads
//! by report digest instead (`tests/sched_equivalence.rs`), and the last
//! three cases below race the oracle on synthetic workloads of their shapes.

#![cfg(test)]

use crate::allocate::{AutoConfig, Strategy};
use crate::faults::{FaultPlan, FaultSpec};
use crate::federation::{run_federated, FederationConfig};
use crate::files::FileRef;
use crate::journal::DurabilityConfig;
use crate::master::tests::{hep_tasks, oracle};
use crate::master::{run_workload, DistMode, MasterConfig, Provisioning, SchedulePolicy};
use crate::sched::SchedImpl;
use crate::task::{TaskId, TaskSpec};
use lfm_monitor::sim::SimTaskProfile;
use lfm_simcluster::node::{NodeSpec, Resources};
use lfm_simcluster::rng::SimRng;
use std::collections::{BTreeMap, BTreeSet};

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
/// parking, the file-affinity index, and dependency release (and, under
/// round-robin partitioning, cross-shard handoff).
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

/// The 8-core worker every mixed case runs on.
fn node() -> NodeSpec {
    NodeSpec::new(8, 8192, 16384)
}

#[test]
fn auto_strategy_full_matrix() {
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
                assert_equivalent(&label, &cfg, &mixed_tasks(60), 4, node());
            }
        }
    }
}

#[test]
fn oracle_strategy_full_matrix() {
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
                assert_equivalent(&label, &cfg, &mixed_tasks(60), 5, node());
            }
        }
    }
}

#[test]
fn guess_with_retries_matches() {
    // A too-small guess kills every first attempt: retries re-enter at the
    // queue front at whole-worker size, the hardest ordering to preserve.
    for policy in POLICIES {
        let cfg = MasterConfig::new(Strategy::Guess(Resources::new(1, 700, 2048)))
            .with_policy(policy)
            .with_seed(31);
        let label = format!("Guess-retry/{policy:?}");
        assert_equivalent(&label, &cfg, &mixed_tasks(40), 3, node());
    }
}

#[test]
fn fault_plan_full_matrix() {
    // Every fault kind, alone and layered, on both strategies: fault draws
    // must happen at placement-identical points (or be keyed by entity id),
    // so the indexed scheduler stays bit-identical under chaos.
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
            assert_equivalent(&label, &cfg, &mixed_tasks(48), 4, node());
        }
    }
}

#[test]
fn master_crash_recovery_matrix() {
    // Crash/recovery must be placement-invisible: journal records are
    // written at placement-identical points, so the Reference and Indexed
    // schedulers write byte-identical journals, recover to the same state,
    // and the whole crashed-and-recovered run stays bitwise-equivalent —
    // with or without compacting snapshots, alone or layered under chaos,
    // under every policy (replay must rank what it requeues as live did).
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
    for policy in POLICIES {
        for (name, plan) in &plans {
            for durability in [
                DurabilityConfig::journal_only(),
                DurabilityConfig::journal_with_snapshots(48),
            ] {
                let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                    .with_policy(policy)
                    .with_faults(plan.clone())
                    .with_durability(durability)
                    .with_seed(29);
                let snap = durability.snapshot_every;
                let label = format!("recovery/{policy:?}/{name}/snap={snap:?}");
                assert_equivalent(&label, &cfg, &mixed_tasks(48), 4, node());
                // The matrix is only meaningful if the crashes actually fire.
                let report = run_workload(&cfg, mixed_tasks(48), 4, node());
                assert!(report.master_crashes > 0, "{label}: no crash fired");
                assert_eq!(report.recoveries, report.master_crashes, "{label}");
            }
        }
    }
}

#[test]
fn unmanaged_whole_worker_matches() {
    // Whole-worker allocations park as NoFit until a worker fully drains —
    // the wake-on-fitting-capacity path under maximum contention.
    let cfg = MasterConfig::new(Strategy::Unmanaged).with_seed(41);
    assert_equivalent("unmanaged", &cfg, &mixed_tasks(30), 2, node());
}

/// The reference matcher behind a one-shard federation is the standalone
/// reference master, bit for bit, across the policy × provisioning × fault
/// matrix (the indexed half is `tests/federation_equivalence.rs`).
#[test]
fn one_shard_reference_matrix_is_bitwise_identical() {
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
                    .with_sched(SchedImpl::Reference)
                    .with_faults(failures.clone())
                    .with_seed(11);
                let label = format!("1shard/{policy:?}/{provisioning:?}/{failures:?}");
                let single = run_workload(&cfg, mixed_tasks(48), 4, node());
                let fed =
                    run_federated(&cfg, &FederationConfig::new(1), mixed_tasks(48), 4, node());
                assert_eq!(single, fed.merged, "{label}: full report diverged");
                assert_eq!(
                    (fed.steals, fed.cross_shard_releases),
                    (0, 0),
                    "{label}: a 1-shard federation stole or handed off"
                );
            }
        }
    }
}

// ---- the integration suite's workload cases, on synthetic twins ----

#[test]
fn hep_shape_matches_under_churn() {
    // Independent IO-heavy tasks on a cacheable environment, under churn:
    // the Oracle on a static pool, and Auto on an elastic one.
    let tasks = hep_tasks(64);
    let cfg = MasterConfig::new(oracle())
        .with_faults(FaultPlan::evicting(100.0))
        .with_seed(5);
    assert_equivalent("hep/evicting", &cfg, &tasks, 4, node());
    let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
        .with_faults(FaultPlan::evicting(140.0))
        .with_provisioning(Provisioning::Elastic {
            initial: 1,
            max_workers: 6,
            batch: 2,
        })
        .with_seed(8);
    assert_equivalent("hep/auto-elastic-evicting", &cfg, &tasks, 6, node());
}

/// A 64-core node of the kind the staged DAG runs on.
fn theta_node() -> NodeSpec {
    NodeSpec::new(64, 192 * 1024, 128 * 1024)
}

/// A staged DAG of the drug-screening pipeline's shape: per batch, one
/// canonicalize task feeds three featurizers, which both models consume.
/// Every stage imports its own environment pack, the models share a
/// weights file, and the Oracle knows each stage's peak.
fn staged_dag(batches: u64, seed: u64) -> (Vec<TaskSpec>, Strategy) {
    // (category, mean seconds, cores, peak memory MB, disk MB)
    const STAGES: [(&str, f64, f64, u64, u64); 6] = [
        ("canonicalize", 12.0, 1.0, 600, 256),
        ("descriptor", 65.0, 4.0, 4200, 1024),
        ("fingerprint", 30.0, 1.0, 2100, 512),
        ("mol_image", 18.0, 1.0, 1400, 768),
        ("model_a", 95.0, 8.0, 14000, 3000),
        ("model_b", 80.0, 8.0, 11500, 2800),
    ];
    let mut rng = SimRng::seeded(seed);
    let weights = FileRef::shared_data("weights", 180 << 20);
    let mut tasks: Vec<TaskSpec> = Vec::new();
    let mut task = |stage: usize, extra: Option<FileRef>, out_mb: u64, deps: Vec<TaskId>| {
        let (cat, mean, cores, mem, disk) = STAGES[stage];
        let mb = 60 + 40 * stage as u64;
        let env = FileRef::environment(format!("{cat}-env"), mb << 20, (3 * mb) << 20, 3000, 500);
        let duration = rng.normal_trunc(mean, mean / 5.0, mean * 0.4);
        let memory = (rng.uniform(0.7, 1.0) * mem as f64) as u64;
        let id = TaskId(tasks.len() as u64);
        let inputs = std::iter::once(env).chain(extra).collect();
        let profile = SimTaskProfile::new(duration, cores, memory, disk);
        tasks.push(TaskSpec::new(id, cat, inputs, out_mb << 20, profile).after(deps));
        id
    };
    for batch in 0..batches {
        let smiles = FileRef::data(format!("smiles-{batch}"), 2 << 20);
        let canon = task(0, Some(smiles), 1, vec![]);
        let feats: Vec<TaskId> = (1..=3).map(|s| task(s, None, 8, vec![canon])).collect();
        for stage in 4..6 {
            task(stage, Some(weights.clone()), 1, feats.clone());
        }
    }
    let oracle = (STAGES.iter())
        .map(|&(cat, _, cores, mem, disk)| {
            let peak = Resources::new(cores.ceil() as u32, mem, disk);
            (cat.to_string(), peak)
        })
        .collect();
    (tasks, Strategy::Oracle(oracle))
}

#[test]
fn drug_shape_with_shared_fs_direct_matches() {
    let (tasks, oracle) = staged_dag(16, 3);
    for dist in [DistMode::PackedTransfer, DistMode::SharedFsDirect] {
        let cfg = MasterConfig::new(oracle.clone())
            .with_dist_mode(dist)
            .with_seed(17);
        assert_equivalent(&format!("dag/{dist:?}"), &cfg, &tasks, 4, theta_node());
    }
}

#[test]
fn staged_dag_replay_equals_live_at_every_crash() {
    // Every crash of a journaled master folds `snapshot ⊕ tail` and, in this
    // debug build, asserts the folded ledger equals the live one. The staged
    // DAG under all seven fault kinds reaches every record kind a batch run
    // writes; four crashes check the fold from a fresh ledger, from a
    // snapshot, and from an image that was itself restored — on both
    // schedulers, which must agree throughout.
    let (tasks, _) = staged_dag(16, 7);
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
        assert_equivalent(&label, &cfg, &tasks, 6, theta_node());
        let report = run_workload(&cfg, tasks.clone(), 6, theta_node());
        assert_eq!(report.master_crashes, 4, "{label}: crashes fired");
        assert_eq!(report.recoveries, 4, "{label}: every crash recovered");
        let succeeded: BTreeSet<_> = (report.results.iter())
            .filter(|r| r.outcome.is_success())
            .map(|r| r.task)
            .collect();
        assert_eq!(
            succeeded.len() as u64 + report.abandoned_tasks,
            tasks.len() as u64,
            "{label}: successes + abandoned == submitted"
        );
    }
}
