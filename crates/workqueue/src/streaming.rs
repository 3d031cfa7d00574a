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
//! deadlock panics) and reads each task's end with [`take_terminals`]: one
//! [`Terminal`] per task, whatever its attempts did, logged where the
//! master commits the task `Finished` or `Abandoned`
//! ([`take_new_results`] still hands out attempt rows).
//!
//! A task arrives as a row: a [`ShapeId`], its id and its duration. A
//! shape ([`TaskShape`]) is what every task of one kind shares, interned
//! once ([`intern_shape`]) into the master, so admitting a row copies the
//! shape's columns into the table and builds, hashes and frees no name. A
//! shape's names get their ids when its first row is admitted, the order
//! a spec's would. [`submit`] keeps taking specs: it interns each one's
//! shape and takes the same path. A journaled admission writes the spec a
//! row stands for from its shape, byte for byte what the spec would write.
//!
//! Equivalence discipline: submitting an entire workload at time zero
//! before the first clock advance produces a [`RunReport`] identical to
//! [`run_workload`]'s — the `Submit` event lands ahead of the pilot
//! start-ups in the FIFO calendar, so the pending queue is seeded in the
//! same order the batch path seeds it (pinned by a test below).
//!
//! Scope: streamed tasks must be dependency-free (asserted at submission),
//! and streaming runs a single master — federation sharding is refused
//! with a typed [`ConfigError`] at construction instead of silently
//! downgrading. The durability layer *is* supported: every streamed
//! admission journals a `Record::Submitted` carrying the full spec, so a
//! crashed master recovers `snapshot ⊕ tail` exactly as the batch path
//! does — per-task state vectors re-grow in admission order, unprocessed
//! `Submit` events survive in the calendar as world events, and leases
//! reclaim orphaned placements. Replay reads only the record's `task_idx`
//! and `cat`, never its spec: recovery keeps the master's prepared table
//! (one row per admitted task, and the shapes) from live memory, and rebuilding it
//! from the journaled specs is part of recovering from bytes alone
//! (ROADMAP item 1). Without a journal a master crash is a
//! full restart: the result log is wiped, the wrapper's cursor re-clamps,
//! and every admitted invocation re-runs (the serving tier's recovery
//! baseline); the terminal log is not wiped, so a re-run task ends twice
//! in it.
//!
//! [`run_until`]: StreamingMaster::run_until
//! [`take_terminals`]: StreamingMaster::take_terminals
//! [`take_new_results`]: StreamingMaster::take_new_results
//! [`intern_shape`]: StreamingMaster::intern_shape
//! [`submit`]: StreamingMaster::submit
//! [`run_workload`]: crate::master::run_workload

use crate::files::FileRef;
use crate::journal;
use crate::master::{Event, Master, MasterConfig, RunReport};
use crate::prepared::{PreparedWorkload, Shape};
use crate::task::{TaskId, TaskResult, TaskSpec};
use lfm_monitor::sim::SimTaskProfile;
use lfm_simcluster::node::NodeSpec;
use lfm_simcluster::time::SimTime;
use lfm_telemetry::codec::{put_bool, put_bytes_u64, put_u64};
use std::collections::HashMap;
use std::sync::Arc;

/// What every streamed task of one kind shares: a [`TaskSpec`] but for its
/// id, its duration and the names of its own inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskShape {
    pub category: String,
    /// In spec order. A non-cacheable input is each task's own: its `name`
    /// is a prefix, and task `id`'s copy is named the prefix followed by
    /// `id` in decimal (`"req-"` names task 42's `"req-42"`).
    pub inputs: Vec<FileRef>,
    pub output_bytes: u64,
    /// The behaviour of every task of the shape; each row brings its own
    /// `duration_secs`, which this one's is not read for.
    pub profile: SimTaskProfile,
}

/// A shape interned into one streaming master ([`StreamingMaster::intern_shape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeId(u32);

impl ShapeId {
    #[cfg(test)]
    pub(crate) fn new(index: u32) -> Self {
        ShapeId(index)
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One streamed task: a task of `shape` with its own id and duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRow {
    pub shape: ShapeId,
    pub id: TaskId,
    pub duration_secs: f64,
}

/// A task's end: it succeeded, or it failed for good (its last attempt
/// failed with no retry left, or the infrastructure used up its retry
/// budget, which writes no attempt row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Terminal {
    pub task: TaskId,
    pub success: bool,
    pub finished_at: SimTime,
}

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
    /// Ends the last [`StreamingMaster::take_terminals`] returned.
    terminals_read: usize,
    submitted: usize,
    /// Every shape interned so far, by its key ([`shape_key`]), and the
    /// buffer keys are written into.
    shape_ids: HashMap<Vec<u8>, ShapeId>,
    key: Vec<u8>,
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
        let mut master = Master::new(
            config.clone(),
            Arc::new(PreparedWorkload::new(Vec::new())),
            worker_count,
            spec,
        );
        master.stream();
        Ok(StreamingMaster {
            master,
            started: false,
            results_cursor: 0,
            terminals_read: 0,
            submitted: 0,
            shape_ids: HashMap::new(),
            key: Vec::new(),
        })
    }

    /// The id of `shape` in this master: rows of it can then be submitted.
    /// An equal shape interned before keeps its id.
    pub fn intern_shape(&mut self, shape: TaskShape) -> ShapeId {
        self.intern(Shape::new(shape))
    }

    fn intern(&mut self, shape: Shape) -> ShapeId {
        self.key.clear();
        shape_key(&mut self.key, &shape);
        if let Some(&id) = self.shape_ids.get(self.key.as_slice()) {
            return id;
        }
        let id = ShapeId(self.master.add_shape(shape));
        self.shape_ids.insert(self.key.clone(), id);
        id
    }

    /// Schedule a batch of dependency-free tasks to arrive at absolute
    /// time `at` (not before the master's current clock), as rows of the
    /// shapes of their specs ([`StreamingMaster::submit_rows`]).
    pub fn submit(&mut self, at: SimTime, specs: Vec<TaskSpec>) {
        let rows = (specs.into_iter())
            .map(|spec| {
                let (shape, id, duration_secs) = Shape::of_spec(spec);
                TaskRow {
                    shape: self.intern(shape),
                    id,
                    duration_secs,
                }
            })
            .collect();
        self.submit_rows(at, rows);
    }

    /// Schedule a batch of tasks, each a row of an interned shape, to
    /// arrive at absolute time `at` (not before the master's current
    /// clock). The batch lands as one `Event::Submit` — one calendar event
    /// per submission group, however many invocations it carries.
    pub fn submit_rows(&mut self, at: SimTime, rows: Vec<TaskRow>) {
        assert!(!rows.is_empty(), "empty submission batch");
        assert!(
            at >= self.master.now(),
            "submission at {:?} is in the master's past (now {:?})",
            at,
            self.master.now()
        );
        let shapes = self.shape_ids.len();
        assert!(
            rows.iter().all(|r| r.shape.index() < shapes),
            "a row of a shape this master did not intern"
        );
        self.submitted += rows.len();
        self.master.inject_at(at, Event::Submit(rows));
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

    /// The tasks that ended since the last call, in the order they ended.
    /// The log drops what the previous call returned, so it holds one
    /// call's worth.
    pub fn take_terminals(&mut self) -> &[Terminal] {
        let log = self.master.terminals();
        log.drain(..self.terminals_read);
        self.terminals_read = log.len();
        log
    }

    /// Attempt records appended since the last call (completion order): a
    /// task can have several, and one abandoned by the infrastructure none
    /// ([`StreamingMaster::take_terminals`] has one per task).
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

/// `shape` as bytes, in the journal's spec layout but for the duration,
/// which is a row's: equal shapes, and only they, write equal keys.
fn shape_key(out: &mut Vec<u8>, shape: &Shape) {
    put_bytes_u64(out, shape.category.as_bytes());
    put_u64(out, shape.inputs.len() as u64);
    for i in &shape.inputs {
        put_bytes_u64(out, i.file.name.as_bytes());
        put_bool(out, i.per_task);
        journal::put_file_after_name(out, &i.file);
    }
    put_u64(out, shape.output_bytes);
    let profile = SimTaskProfile {
        duration_secs: 0.0,
        ..shape.profile
    };
    journal::put_profile(out, &profile);
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
        let ids: Vec<u64> = work.ids.iter().map(|t| t.0).collect();
        assert_eq!(ids, (0..60).collect::<Vec<u64>>(), "admission order");
    }

    /// The shape `invocations` gives category `cat`.
    fn shape(cat: &str) -> TaskShape {
        let env = FileRef::environment("stream-env", 150 << 20, 400 << 20, 3000, 500);
        TaskShape {
            category: cat.to_string(),
            inputs: vec![env, FileRef::data("in-", 128 << 10)],
            output_bytes: 4 << 10,
            profile: SimTaskProfile::new(0.0, 1.0, 1024, 256),
        }
    }

    #[test]
    fn rows_of_interned_shapes_run_as_their_specs() {
        // Journaled, compacting and crashing: the rows write the specs'
        // bytes, so even the journal's byte count agrees.
        let run = |rows: bool| {
            let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                .with_seed(41)
                .with_durability(DurabilityConfig::journal_with_snapshots(64))
                .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(60.0, 3)));
            let mut sm = streaming(&cfg, 4);
            for wave in 0..10u64 {
                let at = SimTime::from_secs(wave as f64 * 3.0);
                let specs = invocations(6, wave * 6);
                if rows {
                    let rows = (specs.iter())
                        .map(|t| TaskRow {
                            shape: sm.intern_shape(shape(&t.category)),
                            id: t.id,
                            duration_secs: t.profile.duration_secs,
                        })
                        .collect();
                    sm.submit_rows(at, rows);
                } else {
                    sm.submit(at, specs);
                }
                sm.run_until(at);
            }
            sm.drain();
            assert!(sm.recoveries() > 0, "crash points never fired");
            assert_eq!(sm.shape_ids.len(), 2, "one shape per category");
            sm.finish()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn every_task_ends_once_in_the_terminal_log() {
        // Staging failures past the infra budget abandon tasks without a
        // row, spurious kills retry succeeding ones: each task ends once,
        // as its last attempt did, and the log holds one read's worth.
        let cfg = MasterConfig::new(oracle()).with_seed(5).with_faults(
            FaultPlan::reliable()
                .with(FaultSpec::stage_in_failure(0.6))
                .with(FaultSpec::spurious_kill(0.3)),
        );
        let mut sm = streaming(&cfg, 4);
        let mut ended = BTreeMap::new();
        let mut read = |sm: &mut StreamingMaster| {
            let new = sm.take_terminals().to_vec();
            assert_eq!(
                sm.master.terminals().len(),
                new.len(),
                "the log keeps one read"
            );
            for t in new {
                assert!(ended.insert(t.task, t).is_none(), "{} ended twice", t.task);
            }
        };
        let mut t = 0.0;
        for wave in 0..10u64 {
            t = wave as f64 * 3.0;
            sm.submit(SimTime::from_secs(t), invocations(6, wave * 6));
            sm.run_until(SimTime::from_secs(t));
            read(&mut sm);
        }
        while sm.completed() < 60 {
            t += 10.0;
            assert!(t < 1e6, "runaway clock");
            sm.run_until(SimTime::from_secs(t));
            read(&mut sm);
        }
        assert_eq!(ended.len(), 60);
        let report = sm.finish();
        let failed = ended.values().filter(|t| !t.success).count();
        assert!(failed > 0 && report.retried_tasks + report.infra_retried_tasks > 0);
        assert_eq!(failed as u64, report.abandoned_tasks);
        for (task, t) in &ended {
            let rows = || report.results.iter().filter(|r| r.task == *task);
            let success = rows().find(|r| r.outcome.is_success());
            assert_eq!(success.is_some(), t.success, "{task}");
            let last = rows().map(|r| r.finished_at).next_back();
            assert!(last.is_none_or(|at| at <= t.finished_at), "{task}");
            if let Some(row) = success {
                assert_eq!(row.finished_at, t.finished_at, "{task}");
            }
        }
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
