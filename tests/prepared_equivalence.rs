//! `prepared ≡ owned`: a run over one shared `Arc<PreparedWorkload>` — the
//! path every sweep job, federation shard and `run_workload` call now takes —
//! must produce the same `RunReport`, bit for bit, as `run_workload` over its
//! own deep copy of the tasks; from two threads at once, under faults with a
//! journal, snapshots and master crashes, and through an 8-shard federation.
//! A malformed workload is refused where it is prepared.

use lfm_core::experiments::sweep::standard_strategies;
use lfm_core::prelude::*;
use lfm_core::workloads::common::Workload;
use lfm_core::workloads::{drug, genomic, hep};
use lfm_core::workqueue::allocate::Strategy;
use std::sync::{Arc, Barrier};

/// The three paper workloads at two sizes each, with the pool and master
/// configuration their figures use.
type ConfigFor = fn(Strategy, u64) -> MasterConfig;

fn cases() -> Vec<(String, Workload, ConfigFor, u32, NodeSpec)> {
    let mut cases: Vec<(String, Workload, ConfigFor, u32, NodeSpec)> = Vec::new();
    for n in [12u64, 60] {
        let w = hep::build(n, 3 ^ n);
        cases.push((
            format!("hep/{n}"),
            w,
            hep::master_config,
            4,
            hep::worker_spec(8),
        ));
    }
    for n in [2u64, 9] {
        let w = drug::build(n, 5 ^ n);
        cases.push((
            format!("drug/{n}"),
            w,
            drug::master_config,
            6,
            drug::worker_spec(),
        ));
    }
    for n in [2u64, 7] {
        let w = genomic::build(n, 7 ^ n);
        let node = genomic::worker_spec();
        cases.push((format!("genomic/{n}"), w, genomic::master_config, 5, node));
    }
    cases
}

/// Run `cfg` over `work` from two threads released together, and over a
/// deep clone through `run_workload`: three equal reports.
fn assert_prepared_equals_owned(
    label: &str,
    cfg: &MasterConfig,
    work: &Arc<PreparedWorkload>,
    workers: u32,
    node: NodeSpec,
) -> RunReport {
    let owned = run_workload(cfg, work.tasks().to_vec(), workers, node);
    let gate = Barrier::new(2);
    let shared = || {
        gate.wait();
        run_prepared(cfg, work, workers, node)
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(shared);
        (shared(), other.join().expect("concurrent run panicked"))
    });
    assert_eq!(a, owned, "{label}: prepared run diverged from owned");
    assert_eq!(b, owned, "{label}: concurrent prepared run diverged");
    owned
}

#[test]
fn prepared_equals_owned_for_every_workload_and_strategy() {
    for (name, w, config_for, workers, node) in cases() {
        let strategies = standard_strategies(&w);
        let work = Arc::new(PreparedWorkload::new(w.tasks));
        for s in strategies {
            let label = format!("{name}/{}", s.name());
            let report =
                assert_prepared_equals_owned(&label, &config_for(s, 11), &work, workers, node);
            assert_eq!(report.abandoned_tasks, 0, "{label}");
        }
        assert_eq!(Arc::strong_count(&work), 1, "{name}: a run kept the table");
    }
}

#[test]
fn prepared_equals_owned_under_faults_journal_and_crashes() {
    let chaos = FaultPlan::reliable()
        .with(FaultSpec::master_crash(30.0, 3))
        .with(FaultSpec::worker_churn(900.0))
        .with(FaultSpec::straggler(0.2, 1.5, 3.0))
        .with(FaultSpec::message_loss(0.05))
        .with(FaultSpec::stage_in_failure(0.1))
        .with(FaultSpec::spurious_kill(0.05));
    for (name, w, config_for, workers, node) in cases() {
        let strategies = standard_strategies(&w);
        let work = Arc::new(PreparedWorkload::new(w.tasks));
        for s in strategies {
            let label = format!("chaos/{name}/{}", s.name());
            let cfg = config_for(s, 13)
                .with_faults(chaos.clone())
                .with_durability(DurabilityConfig::journal_with_snapshots(32));
            let report = assert_prepared_equals_owned(&label, &cfg, &work, workers, node);
            assert_eq!(report.recoveries, report.master_crashes, "{label}");
            assert!(report.journal_bytes > 0, "{label}: nothing journaled");
            if work.len() > 30 {
                assert!(report.master_crashes > 0, "{label}: no crash fired");
            }
        }
    }
}

#[test]
fn prepared_equals_owned_through_an_eight_shard_federation() {
    for (name, w, config_for, _, node) in cases() {
        let cfg = config_for(w.oracle_strategy(), 17).with_shards(8);
        let fed = run_federated(&cfg, &FederationConfig::new(8), w.tasks.clone(), 16, node);
        let work = Arc::new(PreparedWorkload::new(w.tasks));
        let report = assert_prepared_equals_owned(&format!("fed8/{name}"), &cfg, &work, 16, node);
        assert_eq!(report, fed.merged, "fed8/{name}: run_federated diverged");
        assert_eq!(fed.shards, 8);
    }
}

fn task(id: u64, deps: Vec<u64>) -> TaskSpec {
    let profile = SimTaskProfile::new(1.0, 1.0, 64, 64);
    TaskSpec::new(TaskId(id), "t", vec![], 0, profile).after(deps.into_iter().map(TaskId).collect())
}

#[test]
#[should_panic(expected = "duplicate task ids in workload")]
fn duplicate_ids_are_refused_at_preparation() {
    PreparedWorkload::new(vec![task(0, vec![]), task(2, vec![]), task(2, vec![0])]);
}

#[test]
#[should_panic(expected = "task t1 depends on unknown t7")]
fn unknown_dependency_is_refused_at_preparation() {
    PreparedWorkload::new(vec![task(0, vec![]), task(1, vec![7])]);
}

#[test]
#[should_panic(expected = "duplicate task ids in workload")]
fn run_workload_still_refuses_a_malformed_workload() {
    let node = NodeSpec::new(4, 4096, 4096);
    let cfg = MasterConfig::new(Strategy::Unmanaged);
    run_workload(&cfg, vec![task(5, vec![]), task(5, vec![])], 2, node);
}
