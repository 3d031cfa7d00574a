//! The master's two resilience sweeps on the HEP workload, as seeded
//! sim-clock claims: under moderate chaos the resilient master (leases,
//! backoff, quarantine, degradation) finishes ahead of naive retry, and
//! under injected master crashes a journal with snapshots finishes ahead of
//! a full restart at every crash count. Goodput is successful tasks per
//! simulated hour, so neither claim depends on the host.

use lfm_core::prelude::*;
use lfm_core::workloads::hep;

/// 240 analysis tasks (242 with the workflow's fixed stages) on 8 workers.
const ANALYSIS_TASKS: u64 = 240;
const WORKERS: u32 = 8;

/// One run of the sweep shape — Auto labelling, seed 97 — with `configure`
/// adding the faults and the resilience or durability under test.
fn run(tasks: &[TaskSpec], configure: impl FnOnce(MasterConfig) -> MasterConfig) -> RunReport {
    let cfg = configure(hep::master_config(Strategy::Auto(AutoConfig::default()), 3)).with_seed(97);
    run_workload(&cfg, tasks.to_vec(), WORKERS, hep::worker_spec(8))
}

fn successes(report: &RunReport) -> usize {
    report
        .results
        .iter()
        .filter(|r| r.outcome.is_success())
        .count()
}

/// Successful tasks per simulated hour.
fn goodput(report: &RunReport) -> f64 {
    successes(report) as f64 / (report.makespan_secs / 3600.0)
}

/// Fault intensity `x`: stragglers dominate the mix — they are
/// worker-correlated (a slow node stays slow), the failure mode quarantine
/// exists for — over uncorrelated stage-in failures, lost results and
/// spurious monitor kills that stress the retry budget instead.
fn chaos_plan(x: f64) -> FaultPlan {
    if x == 0.0 {
        return FaultPlan::reliable();
    }
    FaultPlan::reliable()
        .with(FaultSpec::straggler((1.5 * x).min(0.5), 5.0, 10.0))
        .with(FaultSpec::stage_in_failure(x / 4.0))
        .with(FaultSpec::message_loss(0.15 * x))
        .with(FaultSpec::spurious_kill(0.15 * x))
}

/// Both modes run the identical plan and seed; only `ResilienceConfig`
/// differs. Every run finishes every task. At 0.05–0.2 the resilient master
/// is strictly ahead; at 0.3 it has quarantined enough of the eight workers
/// that naive retry finishes first (EXPERIMENTS.md, "Chaos sweep"), so
/// that point asserts completion only.
#[test]
fn resilient_master_outruns_naive_retry_under_chaos() {
    let tasks = hep::build(ANALYSIS_TASKS, 3).tasks;
    assert_eq!(tasks.len(), 242);
    for x in [0.0, 0.05, 0.1, 0.2, 0.3] {
        let resilient = run(&tasks, |c| {
            c.with_faults(chaos_plan(x))
                .with_resilience(ResilienceConfig::default())
        });
        let naive = run(&tasks, |c| {
            c.with_faults(chaos_plan(x))
                .with_resilience(ResilienceConfig::naive_retry())
        });
        for (mode, r) in [("resilient", &resilient), ("naive", &naive)] {
            assert_eq!(
                successes(r),
                tasks.len(),
                "x={x} {mode}: not every task succeeded"
            );
            assert_eq!(r.abandoned_tasks, 0, "x={x} {mode}");
        }
        if [0.05, 0.1, 0.2].contains(&x) {
            assert!(
                goodput(&resilient) > goodput(&naive),
                "x={x}: resilient {:.1} tasks/h not ahead of naive retry {:.1}",
                goodput(&resilient),
                goodput(&naive)
            );
        }
    }
}

/// `k` master crashes at exponentially spaced event indices, the mean gap
/// chosen so the k-th lands inside an uninterrupted run (one `TaskDone` per
/// attempt plus the workers' arrivals). Both modes run the identical plan
/// and seed; only `DurabilityConfig` differs, so the gap is the cost of
/// lost state against replaying the tail since the last snapshot.
#[test]
fn snapshot_recovery_outruns_full_restart_at_every_crash_count() {
    let tasks = hep::build(ANALYSIS_TASKS, 3).tasks;
    let est_events = ANALYSIS_TASKS as f64 * 1.1 + WORKERS as f64;
    for crashes in [1u32, 2, 4, 8] {
        let mean = (est_events / (crashes as f64 + 1.0)).max(1.0);
        let plan = FaultPlan::reliable().with(FaultSpec::master_crash(mean, crashes));
        let journaled = run(&tasks, |c| {
            c.with_faults(plan.clone())
                .with_durability(DurabilityConfig::journal_with_snapshots(64))
        });
        let restart = run(&tasks, |c| {
            c.with_faults(plan.clone())
                .with_durability(DurabilityConfig::none())
        });
        for (mode, r) in [("snap64", &journaled), ("full restart", &restart)] {
            assert!(r.master_crashes > 0, "k={crashes} {mode}: no crash fired");
            assert_eq!(successes(r), tasks.len(), "k={crashes} {mode}");
        }
        assert!(
            goodput(&journaled) > goodput(&restart),
            "k={crashes}: snapshot recovery {:.1} tasks/h not ahead of full restart {:.1}",
            goodput(&journaled),
            goodput(&restart)
        );
    }
}
