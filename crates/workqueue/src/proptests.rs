//! Crate-level property tests for scheduling and labeling invariants.

#![cfg(test)]

use crate::allocate::{AllocationDecision, Allocator, AutoConfig, Strategy};
use crate::faults::{FaultPlan, FaultSpec};
use crate::files::FileRef;
use crate::journal::DurabilityConfig;
use crate::master::{run_workload, MasterConfig, SchedulePolicy};
use crate::sched::SchedImpl;
use crate::task::{TaskId, TaskSpec};
use lfm_monitor::report::ResourceReport;
use lfm_monitor::sim::SimTaskProfile;
use lfm_simcluster::node::{NodeSpec, Resources};
use proptest::prelude::*;

const CAP: Resources = Resources::new(16, 32 * 1024, 64 * 1024);

fn report(mem: u64, disk: u64) -> ResourceReport {
    ResourceReport {
        peak_cores: 1.0,
        peak_rss_mb: mem,
        peak_disk_mb: disk,
        cpu_secs: 10.0,
        wall_secs: 10.0,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The Auto label always lands within [min observed, max observed ×
    /// headroom] on the memory axis, for any sample set.
    #[test]
    fn auto_label_within_observed_bounds(
        mems in prop::collection::vec(1u64..8192, 2..40)
    ) {
        let cfg = AutoConfig { min_samples: 1, headroom: 1.25, slow_start_until: 0 };
        let mut a = Allocator::new(Strategy::Auto(cfg));
        for &m in &mems {
            a.observe("cat", &report(m, 100), true);
        }
        match a.decide("cat", 0, &CAP) {
            AllocationDecision::Sized(r) => {
                let lo = *mems.iter().min().unwrap();
                let hi = *mems.iter().max().unwrap();
                prop_assert!(r.memory_mb >= lo, "label {} below min {}", r.memory_mb, lo);
                let ceiling = (hi as f64 * 1.25).ceil() as u64 + 1;
                prop_assert!(
                    r.memory_mb <= ceiling,
                    "label {} above max x headroom {}",
                    r.memory_mb,
                    ceiling
                );
            }
            other => prop_assert!(false, "expected sized allocation, got {other:?}"),
        }
    }

    /// The chosen label minimizes the expected-cost objective — verified by
    /// brute force over all candidates.
    #[test]
    fn auto_label_is_cost_optimal(
        mems in prop::collection::vec(1u64..4096, 2..30)
    ) {
        let cfg = AutoConfig { min_samples: 1, headroom: 1.0, slow_start_until: 0 };
        let mut a = Allocator::new(Strategy::Auto(cfg));
        for &m in &mems {
            a.observe("cat", &report(m, 100), true);
        }
        let AllocationDecision::Sized(r) = a.decide("cat", 0, &CAP) else {
            return Err(TestCaseError::fail("expected sized"));
        };
        let retry_cost = CAP.memory_mb as f64;
        let cost = |a: f64| -> f64 {
            let p = mems.iter().filter(|&&m| (m as f64) <= a).count() as f64
                / mems.len() as f64;
            p * a + (1.0 - p) * (a + retry_cost)
        };
        let chosen = cost(r.memory_mb as f64);
        for &m in &mems {
            prop_assert!(
                chosen <= cost(m as f64) + 1e-6,
                "candidate {} (cost {}) beats chosen {} (cost {})",
                m,
                cost(m as f64),
                r.memory_mb,
                chosen
            );
        }
    }

    /// Retries always get a whole worker, whatever the history.
    #[test]
    fn retries_always_whole_worker(mems in prop::collection::vec(1u64..4096, 0..10)) {
        let mut a = Allocator::new(Strategy::Auto(AutoConfig::default()));
        for &m in &mems {
            a.observe("cat", &report(m, 100), true);
        }
        for attempt in 1..4 {
            prop_assert_eq!(a.decide("cat", attempt, &CAP), AllocationDecision::WholeWorker);
        }
    }

    /// Whatever mix of task shapes arrives, the master completes every task
    /// that fits a node, never oversubscribes (enforced by Node asserts),
    /// and the makespan is at least the longest task.
    #[test]
    fn scheduler_completes_arbitrary_workloads(
        shapes in prop::collection::vec(
            (5.0f64..60.0, 1u32..4, 64u64..4096, 64u64..4096),
            1..30
        ),
        workers in 1u32..6,
    ) {
        let tasks: Vec<TaskSpec> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(dur, cores, mem, disk))| {
                TaskSpec::new(
                    TaskId(i as u64),
                    format!("cat{}", i % 3),
                    vec![FileRef::data(format!("in-{i}"), 1024)],
                    1024,
                    SimTaskProfile::new(dur, cores as f64, mem, disk),
                )
            })
            .collect();
        let longest = shapes.iter().map(|s| s.0).fold(0.0, f64::max);
        let spec = NodeSpec::new(8, 8192, 16384);
        let report = run_workload(
            &MasterConfig::new(Strategy::Auto(AutoConfig::default())),
            tasks,
            workers,
            spec,
        );
        prop_assert_eq!(report.abandoned_tasks, 0);
        let ok = report.results.iter().filter(|r| r.outcome.is_success()).count();
        prop_assert_eq!(ok, shapes.len());
        prop_assert!(report.makespan_secs >= longest);
        // Used CPU never exceeds allocated capacity integral.
        prop_assert!(report.used_core_secs <= report.allocated_core_secs + 1e-6);
    }

    /// The indexed scheduler is placement-for-placement equivalent to the
    /// reference matcher on arbitrary DAG workloads: random task shapes,
    /// random (acyclic, backward-pointing) dependency edges, random shared
    /// cacheable inputs, any policy, with or without worker churn.
    #[test]
    fn indexed_sched_equals_reference_on_random_dags(
        shapes in prop::collection::vec(
            // (duration, cores, mem, disk, dep offset, shared-input id)
            (5.0f64..60.0, 1u32..4, 64u64..6000, 64u64..4096, 0usize..8, 0u8..4),
            1..40
        ),
        workers in 1u32..6,
        policy_idx in 0u8..3,
        evict in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let tasks: Vec<TaskSpec> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(dur, cores, mem, disk, dep_off, shared))| {
                let mut t = TaskSpec::new(
                    TaskId(i as u64),
                    format!("cat{}", i % 3),
                    vec![
                        FileRef::shared_data(format!("shared-{shared}"), 4 << 20),
                        FileRef::data(format!("in-{i}"), 1024),
                    ],
                    1024,
                    SimTaskProfile::new(dur, cores as f64, mem, disk),
                );
                // Edges only point backwards: the DAG is acyclic by
                // construction.
                if dep_off > 0 && dep_off <= i {
                    t = t.after(vec![TaskId((i - dep_off) as u64)]);
                }
                t
            })
            .collect();
        let policy = [
            SchedulePolicy::Fifo,
            SchedulePolicy::LargestFirst,
            SchedulePolicy::SmallestFirst,
        ][policy_idx as usize];
        let failures = if evict {
            FaultPlan::evicting(200.0)
        } else {
            FaultPlan::reliable()
        };
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_policy(policy)
            .with_faults(failures)
            .with_seed(seed);
        let spec = NodeSpec::new(8, 8192, 16384);
        let reference = run_workload(
            &cfg.clone().with_sched(SchedImpl::Reference),
            tasks.clone(),
            workers,
            spec,
        );
        let indexed = run_workload(
            &cfg.clone().with_sched(SchedImpl::Indexed),
            tasks,
            workers,
            spec,
        );
        prop_assert_eq!(reference, indexed);
    }

    /// Chaos: under arbitrary fault plans (churn + stragglers + network
    /// delay/loss + staging failures + disk-full + spurious kills), on both
    /// scheduler implementations:
    ///   1. the Reference and Indexed schedulers stay bitwise equivalent;
    ///   2. no task is lost and none completes twice — every task either
    ///      succeeds exactly once or is counted abandoned;
    ///   3. the RunReport's totals are conserved and fault counters match
    ///      the per-attempt log.
    #[test]
    fn chaos_plans_conserve_tasks_and_keep_scheds_equivalent(
        shapes in prop::collection::vec(
            (5.0f64..45.0, 1u32..3, 64u64..4096, 64u64..2048),
            1..22
        ),
        workers in 1u32..5,
        // Bit i of `mask` enables fault spec i (the vendored proptest
        // subset has no `prop::option`, so optionality is a bitmask).
        mask in 0u8..128,
        churn_mean in 100.0f64..400.0,
        straggle in (0.05f64..0.5, 1.5f64..4.0),
        delay in (0.05f64..0.3, 0.2f64..5.0),
        probs in (0.02f64..0.25, 0.02f64..0.3, 0.05f64..0.5, 0.05f64..0.3),
        seed in 0u64..1000,
    ) {
        let (loss, stage_fail, disk_full, spurious) = probs;
        let churn = (mask & 1 != 0).then_some(churn_mean);
        let straggle = (mask & 2 != 0).then_some(straggle);
        let delay = (mask & 4 != 0).then_some(delay);
        let loss = (mask & 8 != 0).then_some(loss);
        let stage_fail = (mask & 16 != 0).then_some(stage_fail);
        let disk_full = (mask & 32 != 0).then_some(disk_full);
        let spurious = (mask & 64 != 0).then_some(spurious);
        let env = FileRef::environment("env", 16 << 20, 64 << 20, 500, 50);
        let tasks: Vec<TaskSpec> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(dur, cores, mem, disk))| {
                TaskSpec::new(
                    TaskId(i as u64),
                    format!("cat{}", i % 2),
                    vec![env.clone(), FileRef::data(format!("in-{i}"), 256 << 10)],
                    1024,
                    SimTaskProfile::new(dur, cores as f64, mem, disk),
                )
            })
            .collect();
        let mut plan = FaultPlan::reliable();
        if let Some(mean) = churn {
            plan = plan.with(FaultSpec::worker_churn(mean));
        }
        if let Some((p, f)) = straggle {
            plan = plan.with(FaultSpec::straggler(p, f, f + 1.0));
        }
        if let Some((p, d)) = delay {
            plan = plan.with(FaultSpec::message_delay(p, d));
        }
        if let Some(p) = loss {
            plan = plan.with(FaultSpec::message_loss(p));
        }
        if let Some(p) = stage_fail {
            plan = plan.with(FaultSpec::stage_in_failure(p));
        }
        if let Some(p) = disk_full {
            plan = plan.with(FaultSpec::unpack_disk_full(p));
        }
        if let Some(p) = spurious {
            plan = plan.with(FaultSpec::spurious_kill(p));
        }
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_faults(plan)
            .with_seed(seed);
        let spec = NodeSpec::new(8, 8192, 16384);
        let reference = run_workload(
            &cfg.clone().with_sched(SchedImpl::Reference),
            tasks.clone(),
            workers,
            spec,
        );
        let indexed = run_workload(
            &cfg.clone().with_sched(SchedImpl::Indexed),
            tasks.clone(),
            workers,
            spec,
        );
        // (1) bitwise-equivalent schedulers, fault counters included.
        prop_assert_eq!(&reference, &indexed);
        let report = reference;
        // (2) conservation: every task succeeds exactly once or is
        // abandoned; nothing is lost, nothing double-completes.
        let mut ok_ids: Vec<TaskId> = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .map(|r| r.task)
            .collect();
        let successes = ok_ids.len();
        ok_ids.sort();
        ok_ids.dedup();
        prop_assert_eq!(ok_ids.len(), successes, "a task completed twice");
        prop_assert_eq!(
            successes as u64 + report.abandoned_tasks,
            tasks.len() as u64,
            "tasks lost: {} ok + {} abandoned != {}",
            successes,
            report.abandoned_tasks,
            tasks.len()
        );
        // (3) totals conserved: fault counters match the attempt log, and
        // the accounting integrals are sane.
        let spurious_logged = report
            .results
            .iter()
            .filter(|r| r.outcome.is_spurious_kill())
            .count() as u64;
        prop_assert_eq!(spurious_logged, report.spurious_kills);
        prop_assert!(report.lost_core_secs >= 0.0);
        prop_assert!(report.allocated_core_secs >= 0.0);
        prop_assert!(report.core_efficiency().is_finite());
        if !cfg.faults.is_active() {
            prop_assert_eq!(report.lease_reclaims, 0);
            prop_assert_eq!(report.stage_in_failures, 0);
        }
        // Spurious kills and infra failures never corrupt the resource
        // retry ledger: a resource retry needs a real limit kill.
        if report.retried_tasks > 0 {
            prop_assert!(report.results.iter().any(|r| r.outcome.is_limit_exceeded()));
        }
    }

    /// Crash-point recovery: crash the master at random event indices (an
    /// arbitrary draw of exponential crash points, possibly none) on a
    /// random DAG under a random fault plan, recover from the journal at
    /// every snapshot cadence from "after each record" to "never", and the
    /// run must still conserve tasks — every task succeeds exactly once or
    /// is abandoned — with the Reference and Indexed schedulers
    /// bitwise-identical (journal bytes included) through every crash. In
    /// this debug build every compaction also asserts that the image chain
    /// decodes to the live master's image, and every crash that replay
    /// reproduces the live ledger.
    #[test]
    fn crashed_and_recovered_runs_conserve_tasks(
        shapes in prop::collection::vec(
            (5.0f64..45.0, 1u32..3, 64u64..4096, 64u64..2048, 0usize..64, 0usize..64),
            1..22
        ),
        workers in 1u32..5,
        crash_mean in 4.0f64..40.0,
        max_crashes in 0u32..4,
        snapshot_sel in 0usize..5,
        (churn, lossy, flaky_staging, spurious) in
            (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        seed in 0u64..1000,
    ) {
        let env = FileRef::environment("env", 16 << 20, 64 << 20, 500, 50);
        let tasks: Vec<TaskSpec> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(dur, cores, mem, disk, d1, d2))| {
                // A third of the draws name an earlier task to wait for.
                let deps = [d1, d2]
                    .into_iter()
                    .filter(|d| i > 0 && d % 3 == 0)
                    .map(|d| TaskId((d / 3 % i) as u64))
                    .collect();
                TaskSpec::new(
                    TaskId(i as u64),
                    format!("cat{}", i % 2),
                    vec![env.clone(), FileRef::data(format!("in-{i}"), 256 << 10)],
                    1024,
                    SimTaskProfile::new(dur, cores as f64, mem, disk),
                )
                .after(deps)
            })
            .collect();
        let mut plan = FaultPlan::reliable()
            .with(FaultSpec::master_crash(crash_mean, max_crashes));
        if churn {
            plan = plan.with(FaultSpec::worker_churn(250.0));
        }
        if lossy {
            plan = plan.with(FaultSpec::message_loss(0.05));
        }
        if flaky_staging {
            plan = plan.with(FaultSpec::stage_in_failure(0.1));
        }
        if spurious {
            plan = plan.with(FaultSpec::spurious_kill(0.1));
        }
        let snapshot_every = [None, Some(1), Some(7), Some(64), Some(4096)][snapshot_sel];
        let snapshot = snapshot_every.is_some();
        let durability = DurabilityConfig {
            snapshot_every,
            ..DurabilityConfig::journal_only()
        };
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_faults(plan)
            .with_durability(durability)
            .with_seed(seed);
        let spec = NodeSpec::new(8, 8192, 16384);
        let reference = run_workload(
            &cfg.clone().with_sched(SchedImpl::Reference),
            tasks.clone(),
            workers,
            spec,
        );
        let indexed = run_workload(
            &cfg.clone().with_sched(SchedImpl::Indexed),
            tasks.clone(),
            workers,
            spec,
        );
        prop_assert_eq!(&reference, &indexed);
        let report = reference;
        // Every crash recovered from the journal (never a full restart).
        prop_assert_eq!(report.recoveries, report.master_crashes);
        // Conservation across crashes: no task lost, none done twice.
        let mut ok_ids: Vec<TaskId> = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .map(|r| r.task)
            .collect();
        let successes = ok_ids.len();
        ok_ids.sort();
        ok_ids.dedup();
        prop_assert_eq!(ok_ids.len(), successes, "a task completed twice");
        prop_assert_eq!(
            successes as u64 + report.abandoned_tasks,
            tasks.len() as u64,
            "tasks lost across recovery: {} ok + {} abandoned != {}",
            successes,
            report.abandoned_tasks,
            tasks.len()
        );
        prop_assert!(report.journal_bytes > 0);
        if report.master_crashes > 0 && !snapshot {
            // Journal-only recovery replays the whole history.
            prop_assert!(report.replayed_events > 0);
        }
    }

    /// Journal decoding is total: arbitrary bytes either decode or return
    /// a typed error — never a panic (mirror of the telemetry wire
    /// proptests from PR 8). Bounded-allocation too: every length prefix
    /// is validated against the remaining buffer before materializing.
    #[test]
    fn journal_decode_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        let _ = crate::journal::bench_api::try_decode_records(&bytes);
    }

    /// Truncating a valid record stream at any point yields a clean prefix
    /// count or a typed error, never a panic.
    #[test]
    fn journal_decode_survives_truncation(n in 1u64..40, cut_frac in 0.0f64..1.0) {
        let buf = crate::journal::bench_api::encode_records(n);
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        if let Ok(k) = crate::journal::bench_api::try_decode_records(&buf[..cut]) {
            prop_assert!(k <= n as usize);
        }
    }

    /// Flipping any byte of a valid stream decodes or errors, never panics
    /// — corrupt tags, lengths, and times all surface as `JournalError`.
    #[test]
    fn journal_decode_survives_corruption(
        n in 1u64..30, pos_frac in 0.0f64..1.0, xor in 1u8..=255
    ) {
        let mut buf = crate::journal::bench_api::encode_records(n);
        let pos = (((buf.len() - 1) as f64) * pos_frac) as usize;
        buf[pos] ^= xor;
        let _ = crate::journal::bench_api::try_decode_records(&buf);
    }

    /// Delta images decode as totally as records do: a truncated or
    /// byte-flipped delta, or arbitrary bytes in its place, folds into the
    /// full image it follows or returns a typed error — never a panic.
    #[test]
    fn delta_decode_survives_truncation_and_corruption(
        records in 0u64..40,
        pos_frac in 0.0f64..1.0,
        xor in 0u8..=255,
        junk in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        use crate::journal::bench_api;
        let full = bench_api::encode_image(12);
        let mut delta = bench_api::DeltaCase::new(12, records).encode_delta();
        let pos = (((delta.len() - 1) as f64) * pos_frac) as usize;
        prop_assert!(bench_api::try_chain_decodes(&full, &delta).is_ok());
        prop_assert!(bench_api::try_chain_decodes(&full, &delta[..pos]).is_err());
        delta[pos] ^= xor;
        let _ = bench_api::try_chain_decodes(&full, &delta);
        let _ = bench_api::try_chain_decodes(&full, &junk);
        let _ = bench_api::try_chain_decodes(&junk, &delta);
    }

    /// Determinism: identical config + workload ⇒ identical report.
    #[test]
    fn runs_are_deterministic(seed in 0u64..1000) {
        let tasks: Vec<TaskSpec> = (0..10)
            .map(|i| {
                TaskSpec::new(
                    TaskId(i),
                    "c",
                    vec![],
                    0,
                    SimTaskProfile::new(10.0 + i as f64, 1.0, 100, 100),
                )
            })
            .collect();
        let cfg = MasterConfig::new(Strategy::Unmanaged).with_seed(seed);
        let a = run_workload(&cfg, tasks.clone(), 2, NodeSpec::new(4, 4096, 8192));
        let b = run_workload(&cfg, tasks, 2, NodeSpec::new(4, 4096, 8192));
        prop_assert_eq!(a.makespan_secs, b.makespan_secs);
        prop_assert_eq!(a.results.len(), b.results.len());
    }
}
