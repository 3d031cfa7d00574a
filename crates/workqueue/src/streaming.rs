//! Streaming submission into a *running* master.
//!
//! Every batch entry point in this crate ([`run_workload`],
//! [`run_federated`](crate::federation::run_federated)) takes the whole
//! task DAG up front and runs it to completion — the Work Queue deployment
//! model. A FaaS serving tier (see the `lfm-serving` crate) needs the
//! opposite shape: a long-running master that accepts a continuous stream
//! of independent invocations while earlier ones execute.
//!
//! [`StreamingMaster`] wraps the standalone master for that use. Task
//! batches are injected as `Event::Submit` calendar events, so arrivals
//! ride the same discrete-event loop as completions and worker churn, and
//! a streamed run remains a pure function of its inputs: identical
//! submissions at identical times under one seed reproduce the run
//! byte-for-byte. A driver advances the clock with [`run_until`]
//! (bounded by a horizon so the master can idle between arrivals without
//! deadlock panics) and reads completions incrementally with
//! [`take_new_results`].
//!
//! Equivalence discipline: submitting an entire workload at time zero
//! before the first clock advance produces a [`RunReport`] identical to
//! [`run_workload`]'s — the `Submit` event lands ahead of the pilot
//! start-ups in the FIFO calendar, so the pending queue is seeded in the
//! same order the batch path seeds it (pinned by a test below).
//!
//! Scope: streamed tasks must be dependency-free (asserted at admission),
//! and streaming runs a single master — federation sharding is refused
//! with a typed [`ConfigError`] at construction instead of silently
//! downgrading. The durability layer *is* supported: every streamed
//! admission journals a `Record::Submitted` carrying the full spec, so a
//! crashed master recovers `snapshot ⊕ tail` exactly as the batch path
//! does — per-task state vectors re-grow in admission order, unprocessed
//! `Submit` events survive in the calendar as world events, and leases
//! reclaim orphaned placements. Without a journal a master crash is a
//! full restart: the result log is wiped, the wrapper's cursor re-clamps,
//! and every admitted invocation re-runs (the serving tier's recovery
//! baseline).
//!
//! [`run_until`]: StreamingMaster::run_until
//! [`take_new_results`]: StreamingMaster::take_new_results
//! [`run_workload`]: crate::master::run_workload

use crate::master::{Event, Master, MasterConfig, RunReport};
use crate::prepared::PreparedWorkload;
use crate::task::{TaskResult, TaskSpec};
use lfm_simcluster::node::NodeSpec;
use lfm_simcluster::time::SimTime;
use std::sync::Arc;

/// Why a [`MasterConfig`] cannot drive a streaming master. Unsupported
/// configurations fail loudly at construction instead of quietly
/// downgrading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Streaming runs a single master: the foreman federation partitions a
    /// *fixed* task vector across shards at start-up, which streamed
    /// admissions would invalidate.
    ShardedStreaming {
        /// The shard count the config asked for.
        shards: u32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ShardedStreaming { shards } => write!(
                f,
                "streaming masters run a single shard, not {shards}: the \
                 federation partitions a fixed task vector at start-up"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A long-running master accepting streamed task batches.
pub struct StreamingMaster {
    master: Master,
    started: bool,
    results_cursor: usize,
    submitted: usize,
}

impl StreamingMaster {
    /// Start a master with an (initially) empty workload on `worker_count`
    /// workers of `spec`. Pilots are provisioned on the first clock
    /// advance; submissions may be scheduled before that. Returns a
    /// [`ConfigError`] for configurations streaming cannot honor.
    pub fn new(
        config: &MasterConfig,
        worker_count: u32,
        spec: NodeSpec,
    ) -> Result<Self, ConfigError> {
        if config.shards > 1 {
            return Err(ConfigError::ShardedStreaming {
                shards: config.shards,
            });
        }
        Ok(StreamingMaster {
            master: Master::new(
                config.clone(),
                Arc::new(PreparedWorkload::new(Vec::new())),
                worker_count,
                spec,
            ),
            started: false,
            results_cursor: 0,
            submitted: 0,
        })
    }

    /// Schedule a batch of dependency-free tasks to arrive at absolute
    /// time `at` (not before the master's current clock). The batch lands
    /// as one `Event::Submit` — one calendar event per submission group,
    /// however many invocations it carries.
    pub fn submit(&mut self, at: SimTime, specs: Vec<TaskSpec>) {
        assert!(!specs.is_empty(), "empty submission batch");
        assert!(
            at >= self.master.now(),
            "submission at {:?} is in the master's past (now {:?})",
            at,
            self.master.now()
        );
        self.submitted += specs.len();
        self.master.inject_at(at, Event::Submit(specs));
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.master.start();
            self.started = true;
        }
    }

    /// Process every calendar event with timestamp ≤ `horizon`, then stop.
    /// Safe to call with nothing scheduled: the master simply idles.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.ensure_started();
        while let Some(t) = self.master.next_time() {
            if t > horizon {
                break;
            }
            self.master.step();
        }
    }

    /// Run until every submitted task reached a terminal state. The count
    /// of submissions is tracked in the wrapper — the master's own task
    /// vector only grows when a `Submit` event is *processed*, so it
    /// cannot be used as the drain target.
    pub fn drain(&mut self) {
        self.ensure_started();
        while self.master.completed_count() < self.submitted {
            self.master.step();
        }
    }

    /// The master's current clock.
    pub fn now(&self) -> SimTime {
        self.master.now()
    }

    /// Total invocations submitted so far.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Tasks that reached a terminal state so far.
    pub fn completed(&self) -> usize {
        self.master.completed_count()
    }

    /// Ready tasks waiting in the master's pending queue.
    pub fn queued(&self) -> usize {
        self.master.queued_len()
    }

    /// Attempts currently placed on workers.
    pub fn in_flight(&self) -> usize {
        self.master.in_flight_count()
    }

    /// Master crashes fired so far (injected `FaultSpec::master_crash`).
    pub fn crashes(&self) -> u32 {
        self.master.crash_count()
    }

    /// Journaled recoveries completed so far. Equal to [`crashes`] when
    /// the config carries a journal; 0 when crashes fall back to a full
    /// restart.
    ///
    /// [`crashes`]: StreamingMaster::crashes
    pub fn recoveries(&self) -> u32 {
        self.master.recovery_count()
    }

    /// Journal bytes flushed so far (records plus snapshots); 0 without a
    /// journal.
    pub fn journal_bytes(&self) -> u64 {
        self.master.journal_bytes()
    }

    /// Attempt records appended since the last call (completion order).
    pub fn take_new_results(&mut self) -> Vec<TaskResult> {
        let all = self.master.results_so_far();
        // A journal-less master crash wipes the result log (full restart);
        // clamp the cursor so the re-run's rows stream out again.
        self.results_cursor = self.results_cursor.min(all.len());
        let new = all[self.results_cursor..].to_vec();
        self.results_cursor = all.len();
        new
    }

    /// Close the stream and assemble the final [`RunReport`]. Panics if
    /// submitted work remains unfinished — call [`StreamingMaster::drain`]
    /// first.
    pub fn finish(mut self) -> RunReport {
        self.ensure_started();
        assert!(
            self.master.completed_count() >= self.submitted,
            "finish() with unfinished streamed tasks; drain() first"
        );
        self.master.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::{AutoConfig, Strategy};
    use crate::faults::{FaultPlan, FaultSpec};
    use crate::files::FileRef;
    use crate::journal::DurabilityConfig;
    use crate::master::run_workload;
    use crate::sched::SchedImpl;
    use crate::task::TaskId;
    use lfm_monitor::sim::SimTaskProfile;
    use std::collections::BTreeMap;

    fn node() -> NodeSpec {
        NodeSpec::new(8, 8192, 16384)
    }

    fn invocations(n: u64, start_id: u64) -> Vec<TaskSpec> {
        let env = FileRef::environment("stream-env", 150 << 20, 400 << 20, 3000, 500);
        (0..n)
            .map(|i| {
                let id = start_id + i;
                TaskSpec::new(
                    TaskId(id),
                    if id.is_multiple_of(2) {
                        "classify"
                    } else {
                        "embed"
                    },
                    vec![env.clone(), FileRef::data(format!("in-{id}"), 128 << 10)],
                    4 << 10,
                    SimTaskProfile::new(4.0 + (id % 3) as f64, 1.0, 1024, 256),
                )
            })
            .collect()
    }

    fn oracle() -> Strategy {
        let mut map = BTreeMap::new();
        map.insert(
            "classify".to_string(),
            lfm_simcluster::node::Resources::new(1, 1024, 256),
        );
        map.insert(
            "embed".to_string(),
            lfm_simcluster::node::Resources::new(1, 1024, 256),
        );
        Strategy::Oracle(map)
    }

    fn streaming(cfg: &MasterConfig, workers: u32) -> StreamingMaster {
        StreamingMaster::new(cfg, workers, node()).expect("config supported")
    }

    #[test]
    fn submit_all_at_zero_matches_batch_run() {
        for sched in [SchedImpl::Indexed, SchedImpl::Reference] {
            let cfg = MasterConfig::new(oracle()).with_sched(sched).with_seed(11);
            let tasks = invocations(40, 0);
            let batch = run_workload(&cfg, tasks.clone(), 4, node());
            let mut sm = streaming(&cfg, 4);
            sm.submit(SimTime::ZERO, tasks);
            sm.drain();
            let streamed = sm.finish();
            assert_eq!(streamed, batch, "{sched:?} streaming != batch");
        }
    }

    #[test]
    fn auto_strategy_submit_all_matches_batch_run() {
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default())).with_seed(23);
        let tasks = invocations(30, 0);
        let batch = run_workload(&cfg, tasks.clone(), 4, node());
        let mut sm = streaming(&cfg, 4);
        sm.submit(SimTime::ZERO, tasks);
        sm.drain();
        assert_eq!(sm.finish(), batch);
    }

    #[test]
    fn staggered_submissions_all_complete() {
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default())).with_seed(7);
        let mut sm = streaming(&cfg, 4);
        let mut id = 0;
        for wave in 0..10u64 {
            let at = SimTime::from_secs(wave as f64 * 3.0);
            sm.submit(at, invocations(6, id));
            id += 6;
            sm.run_until(at);
        }
        sm.drain();
        assert_eq!(sm.completed(), 60);
        assert_eq!(sm.submitted(), 60);
        let report = sm.finish();
        assert_eq!(report.task_count, 60);
        assert_eq!(report.abandoned_tasks, 0);
        let ok = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count();
        assert_eq!(ok, 60);
    }

    #[test]
    fn incremental_results_cursor_sees_everything_once() {
        let cfg = MasterConfig::new(oracle()).with_seed(3);
        let mut sm = streaming(&cfg, 2);
        sm.submit(SimTime::ZERO, invocations(10, 0));
        sm.submit(SimTime::from_secs(5.0), invocations(10, 10));
        let mut seen = 0;
        let mut t = 1.0;
        while sm.completed() < 20 {
            sm.run_until(SimTime::from_secs(t));
            seen += sm.take_new_results().len();
            t += 1.0;
            assert!(t < 1e4, "runaway clock");
        }
        seen += sm.take_new_results().len();
        assert_eq!(seen, 20, "every attempt surfaced exactly once");
        assert!(sm.take_new_results().is_empty());
    }

    #[test]
    fn streamed_runs_are_deterministic() {
        let run = || {
            let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default())).with_seed(99);
            let mut sm = streaming(&cfg, 3);
            for wave in 0..5u64 {
                sm.submit(
                    SimTime::from_secs(wave as f64 * 2.5),
                    invocations(8, wave * 8),
                );
                sm.run_until(SimTime::from_secs(wave as f64 * 2.5));
            }
            sm.drain();
            sm.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn idle_master_advances_without_panicking() {
        let cfg = MasterConfig::new(oracle()).with_seed(1);
        let mut sm = streaming(&cfg, 2);
        sm.run_until(SimTime::from_secs(100.0));
        assert_eq!(sm.completed(), 0);
        sm.submit(SimTime::from_secs(200.0), invocations(4, 0));
        sm.run_until(SimTime::from_secs(1000.0));
        assert_eq!(sm.completed(), 4);
    }

    #[test]
    #[should_panic(expected = "has dependencies")]
    fn dependent_tasks_are_rejected() {
        let cfg = MasterConfig::new(oracle()).with_seed(1);
        let mut sm = streaming(&cfg, 2);
        let mut tasks = invocations(2, 0);
        tasks[1] = tasks[1].clone().after(vec![TaskId(0)]);
        sm.submit(SimTime::ZERO, tasks);
        sm.drain();
    }

    #[test]
    fn sharded_streaming_is_a_typed_error() {
        let cfg = MasterConfig::new(oracle()).with_shards(4);
        let err = StreamingMaster::new(&cfg, 2, node())
            .err()
            .expect("shards > 1 must be refused");
        assert_eq!(err, ConfigError::ShardedStreaming { shards: 4 });
        assert!(err.to_string().contains("single shard"));
        // One shard is the streaming shape, not an error.
        assert!(StreamingMaster::new(&MasterConfig::new(oracle()), 2, node()).is_ok());
    }

    #[test]
    fn journaled_streaming_matches_unjournaled() {
        // The journal is write-only until a crash: a fault-free streamed
        // run behaves identically with and without it.
        let run = |durability: DurabilityConfig| {
            let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                .with_seed(17)
                .with_durability(durability);
            let mut sm = streaming(&cfg, 3);
            for wave in 0..6u64 {
                let at = SimTime::from_secs(wave as f64 * 2.0);
                sm.submit(at, invocations(7, wave * 7));
                sm.run_until(at);
            }
            sm.drain();
            sm.finish()
        };
        let mut journaled = run(DurabilityConfig::journal_with_snapshots(128));
        let plain = run(DurabilityConfig::none());
        assert!(journaled.journal_bytes > 0, "journal actually wrote");
        journaled.journal_bytes = 0;
        assert_eq!(journaled, plain);
    }

    #[test]
    fn probe_restore_mid_stream_is_invisible() {
        // Snapshot → wipe → restore through the full encode/decode path at
        // a quiescent point mid-stream: the restored master (including
        // tasks admitted via `Record::Submitted` replay growth) must be
        // bitwise-indistinguishable from an uninterrupted one.
        let run = |probe_at: Option<u64>| {
            let mut dur = DurabilityConfig::journal_only();
            dur.probe_restore_at = probe_at;
            let cfg = MasterConfig::new(oracle())
                .with_seed(29)
                .with_durability(dur);
            let mut sm = streaming(&cfg, 2);
            for wave in 0..5u64 {
                let at = SimTime::from_secs(wave as f64 * 8.0);
                sm.submit(at, invocations(6, wave * 6));
                sm.run_until(SimTime::from_secs(wave as f64 * 8.0 + 7.5));
            }
            sm.drain();
            sm.finish()
        };
        assert_eq!(run(Some(40)), run(None));
    }

    #[test]
    fn crashed_journaled_stream_recovers_and_conserves() {
        for sched in [SchedImpl::Indexed, SchedImpl::Reference] {
            let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                .with_sched(sched)
                .with_seed(41)
                .with_durability(DurabilityConfig::journal_with_snapshots(200))
                .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(60.0, 3)));
            let mut sm = streaming(&cfg, 4);
            for wave in 0..10u64 {
                let at = SimTime::from_secs(wave as f64 * 3.0);
                sm.submit(at, invocations(6, wave * 6));
                sm.run_until(at);
            }
            sm.drain();
            assert!(sm.crashes() > 0, "{sched:?}: crash points never fired");
            assert_eq!(sm.recoveries(), sm.crashes(), "{sched:?}");
            let report = sm.finish();
            assert_eq!(report.task_count, 60, "{sched:?}");
            assert_eq!(report.abandoned_tasks, 0, "{sched:?}");
            let ok = report
                .results
                .iter()
                .filter(|r| r.outcome.is_success())
                .count();
            assert_eq!(ok, 60, "{sched:?}: every invocation completes once");
        }
    }

    #[test]
    fn streamed_admissions_grow_the_ledger_between_images() {
        // With an image every few records, every wave's `Submitted` records
        // land in a tail that a delta image compacts: the per-task vectors
        // (and, from the fourth wave on, the per-category ones — "late" is
        // a category the run had not seen) grow between images. Each
        // compaction of this debug build asserts the chain decodes to the
        // live image, each crash that replay equals live; the run must
        // finish every invocation once at every cadence.
        for every in [1, 5, 16] {
            let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                .with_seed(41)
                .with_durability(DurabilityConfig::journal_with_snapshots(every))
                .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(60.0, 3)));
            let mut sm = streaming(&cfg, 4);
            for wave in 0..10u64 {
                let at = SimTime::from_secs(wave as f64 * 3.0);
                let mut batch = invocations(6, wave * 6);
                if wave >= 3 {
                    batch[0].category = "late".to_string();
                }
                sm.submit(at, batch);
                sm.run_until(at);
            }
            sm.drain();
            assert!(sm.crashes() > 0, "every {every}: crash points never fired");
            assert_eq!(sm.recoveries(), sm.crashes(), "every {every}");
            let report = sm.finish();
            let ok = (report.results.iter())
                .filter(|r| r.outcome.is_success())
                .count();
            assert_eq!((ok, report.abandoned_tasks), (60, 0), "every {every}");
        }
    }

    #[test]
    fn crashed_journaled_stream_is_deterministic() {
        let run = || {
            let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                .with_seed(53)
                .with_durability(DurabilityConfig::journal_only())
                .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(80.0, 2)));
            let mut sm = streaming(&cfg, 3);
            for wave in 0..8u64 {
                let at = SimTime::from_secs(wave as f64 * 2.5);
                sm.submit(at, invocations(5, wave * 5));
                sm.run_until(at);
            }
            sm.drain();
            sm.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn submit_grows_the_masters_own_task_vector() {
        // The prepared workload sits behind an `Arc` (federation shards
        // and sweep jobs share one). A streaming master is its table's sole
        // owner, so every admission appends in place — `Arc::make_mut`
        // never copies — before and after a journaled crash recovery.
        let cfg = MasterConfig::new(oracle())
            .with_seed(41)
            .with_durability(DurabilityConfig::journal_with_snapshots(200))
            .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(60.0, 3)));
        let mut sm = streaming(&cfg, 4);
        assert!(sm.master.shared_work().is_empty());
        for wave in 0..10u64 {
            let at = SimTime::from_secs(wave as f64 * 3.0);
            sm.submit(at, invocations(6, wave * 6));
            sm.run_until(at);
            assert_eq!(Arc::strong_count(sm.master.shared_work()), 1);
        }
        sm.drain();
        assert!(sm.recoveries() > 0, "crash points never fired");
        let work = sm.master.shared_work();
        assert_eq!(Arc::strong_count(work), 1);
        let ids: Vec<u64> = work.tasks().iter().map(|t| t.id.0).collect();
        assert_eq!(ids, (0..60).collect::<Vec<u64>>(), "admission order");
    }

    #[test]
    fn crashed_unjournaled_stream_full_restarts_and_still_finishes() {
        let cfg = MasterConfig::new(oracle())
            .with_seed(13)
            .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(90.0, 1)));
        let mut sm = streaming(&cfg, 3);
        let mut collected = 0usize;
        for wave in 0..8u64 {
            let at = SimTime::from_secs(wave as f64 * 3.0);
            sm.submit(at, invocations(5, wave * 5));
            sm.run_until(at);
            collected += sm.take_new_results().len();
        }
        sm.drain();
        collected += sm.take_new_results().len();
        assert!(sm.crashes() > 0, "crash point never fired");
        assert_eq!(sm.recoveries(), 0, "no journal, no recovery");
        // The full restart wiped the result log and re-ran everything the
        // master had admitted; the cursor re-clamps, so the driver sees at
        // least one terminal row per invocation (pre-crash rows may
        // surface twice — that is the baseline's documented lossiness).
        assert!(collected >= 40, "saw {collected} of 40 invocations");
        let report = sm.finish();
        assert_eq!(report.task_count, 40);
        assert!(report.master_crashes >= 1);
    }
}
