//! The Work Queue master: a discrete-event scheduler.
//!
//! Drives a full run: provisions workers through the batch system, matches
//! pending tasks to workers under the active allocation [`Strategy`], stages
//! input files (environment packs, shared data, per-task data) with cache
//! awareness, executes each task under the simulated LFM, retries tasks
//! killed for resource exhaustion at full-worker size, and produces a
//! [`RunReport`] with the makespan/utilization numbers Figures 6–9 plot.

use crate::allocate::{AllocationDecision, Allocator, ObservationEffects, Strategy};
use crate::faults::{backoff_delay, FaultPlan, FaultState, InfraFault, ResilienceConfig};
use crate::files::FileKind;
use crate::journal::{
    observe_into, CategorySnap, CounterKey, DepGraph, DurabilityConfig, Journal, Ledger,
    MasterImage, PendingFold, Record,
};
use crate::prepared::PreparedWorkload;
use crate::sched::{policy_rank, IndexedSched, ParkReason, Pending, SchedImpl, Src};
use crate::task::{TaskResult, TaskSpec};
use crate::worker::{Worker, WorkerTable};
use lfm_monitor::limits::ResourceLimits;
use lfm_monitor::report::MonitorOutcome;
use lfm_monitor::sim::{SimMonitor, SimTaskProfile};
use lfm_simcluster::batch::{BatchParams, BatchSystem};
use lfm_simcluster::event::EventQueue;
use lfm_simcluster::metrics::Histogram;
use lfm_simcluster::network::{Network, NetworkParams};
use lfm_simcluster::node::{NodeSpec, Resources};
use lfm_simcluster::rng::SimRng;
use lfm_simcluster::sharedfs::{SharedFs, SharedFsParams};
use lfm_simcluster::storage::LocalDisk;
use lfm_simcluster::time::SimTime;
use lfm_telemetry::{InstantBuilder, Name, Recorder, SpanBuilder};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

#[cfg(test)]
pub(crate) mod reference;

/// Pre-interned telemetry names for the master's emission sites.
///
/// Interning happens once per process (first use); every emission after
/// that carries a `u32` id instead of hashing a string, which is what
/// keeps full instrumentation within the <5% overhead budget at
/// federation/serving scale (see `lfm_telemetry::intern`).
struct TelKeys {
    // categories
    cat_master: Name,
    cat_worker: Name,
    cat_lfm: Name,
    cat_faults: Name,
    // counters / gauges / observations
    event_worker_up: Name,
    event_worker_down: Name,
    event_task_done: Name,
    event_submit: Name,
    fed_stolen_in: Name,
    journal_snapshot: Name,
    journal_replayed_events: Name,
    master_crash: Name,
    master_recovered: Name,
    master_retry: Name,
    master_abandoned: Name,
    master_task_done: Name,
    master_pending_tasks: Name,
    worker_cache_hit: Name,
    worker_cache_miss: Name,
    worker_transfer_bytes: Name,
    turnaround_s: Name,
    // span / instant names
    queue_wait: Name,
    dispatch: Name,
    task_lost: Name,
    result_lost: Name,
    lease_reclaim: Name,
    quarantine: Name,
    quarantine_release: Name,
    infra_requeue: Name,
    degrade_to_shared_fs: Name,
    spurious_kill: Name,
    retry: Name,
    limit_kill: Name,
    stage_in: Name,
    exec: Name,
    stage_out: Name,
    task: Name,
    // attr keys
    a_category: Name,
    a_cores: Name,
    a_memory_mb: Name,
    a_zombie: Name,
    a_backoff_s: Name,
    a_status: Name,
    a_polls: Name,
    a_peak_rss_mb: Name,
    a_peak_disk_mb: Name,
    a_cpu_s: Name,
    a_monitor_overhead_s: Name,
    a_limit: Name,
}

fn tk() -> &'static TelKeys {
    static KEYS: OnceLock<TelKeys> = OnceLock::new();
    KEYS.get_or_init(|| TelKeys {
        cat_master: Name::intern("master"),
        cat_worker: Name::intern("worker"),
        cat_lfm: Name::intern("lfm"),
        cat_faults: Name::intern("faults"),
        event_worker_up: Name::intern("event.worker_up"),
        event_worker_down: Name::intern("event.worker_down"),
        event_task_done: Name::intern("event.task_done"),
        event_submit: Name::intern("event.submit"),
        fed_stolen_in: Name::intern("fed.stolen_in"),
        journal_snapshot: Name::intern("journal.snapshot"),
        journal_replayed_events: Name::intern("journal.replayed_events"),
        master_crash: Name::intern("master.crash"),
        master_recovered: Name::intern("master.recovered"),
        master_retry: Name::intern("master.retry"),
        master_abandoned: Name::intern("master.abandoned"),
        master_task_done: Name::intern("master.task_done"),
        master_pending_tasks: Name::intern("master.pending_tasks"),
        worker_cache_hit: Name::intern("worker.cache_hit"),
        worker_cache_miss: Name::intern("worker.cache_miss"),
        worker_transfer_bytes: Name::intern("worker.transfer_bytes"),
        turnaround_s: Name::intern("turnaround_s"),
        queue_wait: Name::intern("queue_wait"),
        dispatch: Name::intern("dispatch"),
        task_lost: Name::intern("task_lost"),
        result_lost: Name::intern("result_lost"),
        lease_reclaim: Name::intern("lease_reclaim"),
        quarantine: Name::intern("quarantine"),
        quarantine_release: Name::intern("quarantine_release"),
        infra_requeue: Name::intern("infra_requeue"),
        degrade_to_shared_fs: Name::intern("degrade_to_shared_fs"),
        spurious_kill: Name::intern("spurious_kill"),
        retry: Name::intern("retry"),
        limit_kill: Name::intern("limit_kill"),
        stage_in: Name::intern("stage_in"),
        exec: Name::intern("exec"),
        stage_out: Name::intern("stage_out"),
        task: Name::intern("task"),
        a_category: Name::intern("category"),
        a_cores: Name::intern("cores"),
        a_memory_mb: Name::intern("memory_mb"),
        a_zombie: Name::intern("zombie"),
        a_backoff_s: Name::intern("backoff_s"),
        a_status: Name::intern("status"),
        a_polls: Name::intern("polls"),
        a_peak_rss_mb: Name::intern("peak_rss_mb"),
        a_peak_disk_mb: Name::intern("peak_disk_mb"),
        a_cpu_s: Name::intern("cpu_s"),
        a_monitor_overhead_s: Name::intern("monitor_overhead_s"),
        a_limit: Name::intern("limit"),
    })
}

/// How environments reach workers (§V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistMode {
    /// Every task imports straight from the shared filesystem — the
    /// conventional deployment the paper argues against.
    SharedFsDirect,
    /// The packed environment is transferred once per worker, unpacked to
    /// node-local storage, and cached (the LFM approach).
    PackedTransfer,
}

/// Order in which ready tasks are considered for placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulePolicy {
    /// Submission order.
    Fifo,
    /// Largest memory request first (classic bin-packing heuristic: big
    /// items placed while space is plentiful).
    LargestFirst,
    /// Smallest first (maximizes early task throughput, risks stranding
    /// big tasks).
    SmallestFirst,
}

/// How the worker pool is provisioned (§III "cluster provisioning").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Provisioning {
    /// Submit the whole pool up front.
    Static,
    /// Start with `initial` pilots; whenever ready tasks outnumber free
    /// slots, submit another `batch` pilots up to `max_workers` total.
    Elastic {
        initial: u32,
        max_workers: u32,
        batch: u32,
    },
}

/// How files, environments, and bytes reach workers: distribution mode,
/// batch system, shared filesystem, network fabric, and worker-local I/O
/// interference, grouped under one `Default`-able knob.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagingConfig {
    pub dist_mode: DistMode,
    pub batch: BatchParams,
    pub fs: SharedFsParams,
    pub net: NetworkParams,
    /// Fractional slowdown per co-resident task (I/O interference on a
    /// worker; HEP's IO-heavy tasks use a non-zero value).
    pub io_interference: f64,
}

impl Default for StagingConfig {
    /// Packed distribution on a responsive campus cluster.
    fn default() -> Self {
        StagingConfig {
            dist_mode: DistMode::PackedTransfer,
            batch: BatchParams::instant(),
            fs: SharedFsParams::campus_nfs(),
            net: NetworkParams::campus_10g(),
            io_interference: 0.0,
        }
    }
}

/// Master configuration. Grouped into three sub-configs — [`StagingConfig`]
/// (how bytes move), [`FaultPlan`] (what breaks), [`ResilienceConfig`] (how
/// the master recovers) — plus the allocation strategy, scheduler, and
/// seed. The flat `with_*` setters forward into the groups, so existing
/// call sites keep compiling.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    pub strategy: Strategy,
    pub monitor: SimMonitor,
    /// Distribution mode, batch system, shared FS, network, I/O model.
    pub staging: StagingConfig,
    /// Injected fault sources (empty = reliable cluster).
    pub faults: FaultPlan,
    /// Leases, backoff, quarantine, degradation, and retry ceilings.
    pub resilience: ResilienceConfig,
    /// Write-ahead journal, snapshot cadence, and crash/recovery costs.
    pub durability: DurabilityConfig,
    pub provisioning: Provisioning,
    pub policy: SchedulePolicy,
    /// Dispatch implementation: the indexed scheduler, the one a
    /// production build has (see [`SchedImpl`]).
    pub sched: SchedImpl,
    /// Shard count for the foreman federation (`federation.rs`). `1` (the
    /// default) runs the classic single master; `> 1` makes
    /// [`run_workload`] route through
    /// [`run_federated`](crate::federation::run_federated) with this many
    /// sub-masters. Initialized from the process-global default installed
    /// by [`set_default_shards`](crate::federation::set_default_shards).
    pub shards: u32,
    pub seed: u64,
    /// Tracing/metrics sink. Defaults to the process-wide recorder (the
    /// no-op recorder unless a runner installed one via `--trace`).
    /// Recording is strictly observational: the simulation's behaviour and
    /// its `RunReport` are identical whether this is live or
    /// [`Recorder::disabled`].
    pub telemetry: Recorder,
}

impl MasterConfig {
    /// A reasonable default: packed distribution on a responsive, reliable
    /// cluster with the default resilience knobs.
    pub fn new(strategy: Strategy) -> Self {
        MasterConfig {
            strategy,
            monitor: SimMonitor::default(),
            staging: StagingConfig::default(),
            faults: FaultPlan::reliable(),
            resilience: ResilienceConfig::default(),
            durability: DurabilityConfig::none(),
            provisioning: Provisioning::Static,
            policy: SchedulePolicy::Fifo,
            sched: SchedImpl::Indexed,
            shards: crate::federation::default_shards(),
            seed: 0x1f2e3d4c,
            telemetry: lfm_telemetry::global(),
        }
    }

    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_sched(mut self, sched: SchedImpl) -> Self {
        self.sched = sched;
        self
    }

    /// Run this workload across `shards` federated sub-masters (1 = the
    /// classic single master).
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    pub fn with_provisioning(mut self, p: Provisioning) -> Self {
        self.provisioning = p;
        self
    }

    /// Replace the whole staging group.
    #[cfg(test)]
    pub(crate) fn with_staging(mut self, staging: StagingConfig) -> Self {
        self.staging = staging;
        self
    }

    /// Install a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the resilience knobs.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Configure the durability layer (journal, snapshots, restart costs).
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    pub fn with_dist_mode(mut self, mode: DistMode) -> Self {
        self.staging.dist_mode = mode;
        self
    }

    pub fn with_batch(mut self, batch: BatchParams) -> Self {
        self.staging.batch = batch;
        self
    }

    pub fn with_fs(mut self, fs: SharedFsParams) -> Self {
        self.staging.fs = fs;
        self
    }

    pub fn with_io_interference(mut self, f: f64) -> Self {
        self.staging.io_interference = f;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_monitor(mut self, monitor: SimMonitor) -> Self {
        self.monitor = monitor;
        self
    }

    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// The outcome of a whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    pub strategy: String,
    pub dist_mode: DistMode,
    /// Workflow completion time, seconds.
    pub makespan_secs: f64,
    pub task_count: usize,
    /// Tasks that exhausted an allocation at least once.
    pub retried_tasks: u64,
    /// Tasks abandoned after `max_attempts`.
    pub abandoned_tasks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Integral of granted allocations (core-seconds).
    pub allocated_core_secs: f64,
    /// CPU-seconds actually consumed.
    pub used_core_secs: f64,
    /// CPU-seconds consumed *beyond* the granted allocations
    /// (`max(0, used - allocated)`). Non-zero means tasks overcommitted
    /// their grants — an accounting surface the old clamped
    /// `core_efficiency` silently hid.
    pub overcommit_core_secs: f64,
    /// Shared-FS metadata operations issued over the run.
    pub fs_md_ops: u64,
    /// Bytes moved over the master's network.
    pub net_bytes: u64,
    /// Pilots submitted over the run (≥ worker_count under elastic
    /// provisioning or failures).
    pub workers_provisioned: u32,
    /// Workers lost to eviction.
    pub workers_lost: u32,
    /// In-flight task placements lost with their workers (rescheduled).
    pub tasks_lost: u64,
    /// Tasks that consumed at least one infrastructure retry (staging
    /// failure, lost result, lease reclaim, or spurious kill).
    pub infra_retried_tasks: u64,
    /// Placements reclaimed by lease expiry (zombies whose result message
    /// was lost, and stragglers running past their lease).
    pub lease_reclaims: u64,
    /// Stage-in attempts that failed (lost transfers, injected staging
    /// failures, disk-full unpacks).
    pub stage_in_failures: u64,
    /// Executions falsely killed by an injected monitor fault.
    pub spurious_kills: u64,
    /// Completed executions whose result message was lost in transit.
    pub result_messages_lost: u64,
    /// Quarantine entries over the run (a worker re-quarantined counts
    /// again).
    pub quarantines: u32,
    /// Core-seconds held by attempts that produced no result: evictions,
    /// lease reclaims, staging failures, and lost results. The complement
    /// of `allocated_core_secs`, which integrates only attempts that
    /// reported back.
    pub lost_core_secs: f64,
    /// Did packed-environment distribution degrade to the shared
    /// filesystem mid-run?
    pub degraded_to_shared_fs: bool,
    /// Master crashes injected over the run.
    pub master_crashes: u32,
    /// Crashes recovered from the journal (the rest were full restarts).
    pub recoveries: u32,
    /// Total bytes flushed to the write-ahead journal (records plus
    /// compacting snapshots). Zero when journaling is off.
    pub journal_bytes: u64,
    /// Journal records replayed across all recoveries — what snapshot
    /// compaction buys down.
    pub replayed_events: u64,
    /// Every attempt's record.
    pub results: Vec<TaskResult>,
}

impl RunReport {
    /// Fraction of tasks retried *for resource-limit kills* (the paper's
    /// "<1% of tasks were retried"). Infrastructure retries — staging
    /// failures, lost results, lease reclaims, spurious kills — are
    /// deliberately excluded: the task did nothing wrong, so they count in
    /// [`RunReport::infra_retried_tasks`] instead. The two sets are tracked
    /// independently and one task can appear in both.
    pub fn retry_fraction(&self) -> f64 {
        if self.task_count == 0 {
            0.0
        } else {
            self.retried_tasks as f64 / self.task_count as f64
        }
    }

    /// Fraction of tasks that consumed at least one infrastructure retry.
    /// See [`RunReport::retry_fraction`] for the resource-kill counterpart
    /// and the boundary between the two.
    pub(crate) fn infra_retry_fraction(&self) -> f64 {
        if self.task_count == 0 {
            0.0
        } else {
            self.infra_retried_tasks as f64 / self.task_count as f64
        }
    }

    /// Allocated-core efficiency. The single definition every report and
    /// bench uses: `used / (allocated + lost)`, where *allocated*
    /// integrates grants of attempts that reported back and *lost*
    /// ([`RunReport::lost_core_secs`]) integrates grants held by attempts
    /// that produced no result (evictions, lease reclaims, staging
    /// failures, lost results) — wasted cores are efficiency losses, not
    /// invisible. Fault-free runs have `lost = 0` and reduce to the
    /// classic `used / allocated`. Deliberately *not* clamped to 1.0 — a
    /// ratio above one means tasks consumed more CPU than their grants
    /// (see [`RunReport::overcommit_core_secs`]), and hiding that behind a
    /// clamp masked the accounting bug surface.
    pub fn core_efficiency(&self) -> f64 {
        let denom = self.allocated_core_secs + self.lost_core_secs;
        if denom <= 0.0 {
            0.0
        } else {
            self.used_core_secs / denom
        }
    }

    /// Serialize the run's headline numbers as a JSON object (the master's
    /// end-of-run log line).
    pub fn summary_json(&self) -> String {
        let mut o = lfm_monitor::summary::JsonObject::new();
        o.field_str("strategy", &self.strategy)
            .field_str(
                "dist_mode",
                match self.dist_mode {
                    DistMode::PackedTransfer => "packed_transfer",
                    DistMode::SharedFsDirect => "shared_fs_direct",
                },
            )
            .field_f64("makespan_s", self.makespan_secs)
            .field_u64("tasks", self.task_count as u64)
            .field_u64("retried_tasks", self.retried_tasks)
            .field_u64("abandoned_tasks", self.abandoned_tasks)
            .field_f64("retry_fraction", self.retry_fraction())
            .field_f64("core_efficiency", self.core_efficiency())
            .field_f64("overcommit_core_secs", self.overcommit_core_secs)
            .field_f64("mean_turnaround_s", self.mean_turnaround_secs())
            .field_f64("p95_turnaround_s", self.turnaround_percentile(95.0))
            .field_f64("p99_turnaround_s", self.turnaround_percentile(99.0))
            .field_u64("cache_hits", self.cache_hits)
            .field_u64("cache_misses", self.cache_misses)
            .field_u64("fs_md_ops", self.fs_md_ops)
            .field_u64("net_bytes", self.net_bytes)
            .field_u64("workers_provisioned", self.workers_provisioned as u64)
            .field_u64("workers_lost", self.workers_lost as u64)
            .field_u64("tasks_lost", self.tasks_lost)
            .field_u64("infra_retried_tasks", self.infra_retried_tasks)
            .field_f64("infra_retry_fraction", self.infra_retry_fraction())
            .field_u64("lease_reclaims", self.lease_reclaims)
            .field_u64("stage_in_failures", self.stage_in_failures)
            .field_u64("spurious_kills", self.spurious_kills)
            .field_u64("result_messages_lost", self.result_messages_lost)
            .field_u64("quarantines", self.quarantines as u64)
            .field_f64("lost_core_secs", self.lost_core_secs)
            .field_u64("degraded_to_shared_fs", self.degraded_to_shared_fs as u64)
            .field_u64("master_crashes", self.master_crashes as u64)
            .field_u64("recoveries", self.recoveries as u64)
            .field_u64("journal_bytes", self.journal_bytes)
            .field_u64("replayed_events", self.replayed_events);
        o.finish()
    }

    /// Sample the run at `dt` resolution: (time, running tasks, allocated
    /// cores). Useful for utilization plots and packing inspection.
    pub fn utilization_timeline(&self, dt: f64) -> Vec<(f64, u32, u32)> {
        assert!(dt > 0.0, "dt must be positive");
        let mut out = Vec::new();
        let mut t = 0.0;
        while t <= self.makespan_secs {
            let mut running = 0u32;
            let mut cores = 0u32;
            for r in &self.results {
                if r.started_at.as_secs() <= t && t < r.finished_at.as_secs() {
                    running += 1;
                    cores += r.allocated.cores;
                }
            }
            out.push((t, running, cores));
            t += dt;
        }
        out
    }

    /// Mean task turnaround (submit → final completion), successful final
    /// attempts only.
    pub fn mean_turnaround_secs(&self) -> f64 {
        let finals: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .map(|r| r.finished_at - r.submitted_at)
            .collect();
        if finals.is_empty() {
            0.0
        } else {
            finals.iter().sum::<f64>() / finals.len() as f64
        }
    }

    /// Distribution of task turnaround (submit → completion) over
    /// successful final attempts — the paper reports tails, not just means.
    pub(crate) fn turnaround_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in self.results.iter().filter(|r| r.outcome.is_success()) {
            h.record(r.finished_at - r.submitted_at);
        }
        h
    }

    /// Turnaround percentile `p` in [0, 100]; 0.0 when nothing succeeded.
    pub fn turnaround_percentile(&self, p: f64) -> f64 {
        let mut h = self.turnaround_histogram();
        h.percentile(p)
    }
}

/// Simulation events.
pub(crate) enum Event {
    WorkerUp {
        id: u32,
    },
    WorkerDown {
        id: u32,
    },
    TaskDone(Box<DoneInfo>),
    /// A placement's lease ran out: reclaim it if still live.
    LeaseExpired {
        placement: u64,
    },
    /// A backed-off infrastructure requeue lands in the pending queue.
    Requeue {
        task_idx: usize,
        attempt: u32,
    },
    /// A quarantined worker rejoins the pool.
    QuarantineRelease {
        id: u32,
    },
    /// A dependency of `task_idx` reached a terminal state on another
    /// shard: `success` decrements the remaining-dependency count,
    /// failure cancels `task_idx` and its downstream (federation handoff).
    RemoteRelease {
        task_idx: usize,
        success: bool,
    },
    /// A ready task migrated from a hot shard lands in this shard's
    /// pending queue (federation work stealing).
    StolenArrive {
        task_idx: usize,
        attempt: u32,
    },
    /// The master comes back up after a crash: process the world events
    /// that arrived while it was down, then resume dispatching.
    Recovered,
    /// A batch of new dependency-free tasks arrives at a *running* master
    /// (streaming submission — see `streaming.rs`). The batch is appended
    /// to the task vector and enqueued like any other ready work.
    Submit(Vec<TaskSpec>),
}

impl Event {
    /// Events the *world* produces (pilots starting/dying, completions in
    /// flight, cross-shard handoffs and stolen-task arrivals). These
    /// survive a master crash in the calendar; everything else is a
    /// master-owned timer that dies with the master's memory and is
    /// re-armed from the recovered image.
    fn is_world(&self) -> bool {
        matches!(
            self,
            Event::WorkerUp { .. }
                | Event::WorkerDown { .. }
                | Event::TaskDone(_)
                | Event::RemoteRelease { .. }
                | Event::StolenArrive { .. }
                | Event::Submit(_)
        )
    }
}

/// A cross-shard effect produced by one shard's event handling, drained by
/// the federation driver after every step and delivered to the owning
/// shard's event queue (see `federation.rs`).
#[derive(Debug)]
pub(crate) enum OutMsg {
    /// A remote dependency of `task_idx` completed successfully at `at`;
    /// `bytes` is the producer's output size riding the handoff path.
    Release {
        task_idx: usize,
        at: SimTime,
        bytes: u64,
    },
    /// A remote dependency of `task_idx` permanently failed at `at`.
    Cancel { task_idx: usize, at: SimTime },
}

/// Federation role state: which shard this master is, the static ownership
/// map over the full task vector, and the outbox of cross-shard effects
/// produced since the federation driver last drained it.
pub(crate) struct FedState {
    pub shard: u32,
    pub owner: Arc<Vec<u32>>,
    /// The indices `owner` maps to this shard, ascending.
    pub owned: Arc<[u32]>,
    pub outbox: Vec<OutMsg>,
    /// Stolen-task arrivals injected but not yet handled — the stealing
    /// balancer must not treat a shard as hungry while work is in flight
    /// toward it.
    pub inbound_pending: u32,
}

pub(crate) struct DoneInfo {
    worker: u32,
    /// Unique placement id; stale events for lost placements are dropped.
    placement: u64,
    task_idx: usize,
    attempt: u32,
    allocated: Resources,
    started_at: SimTime,
    stage_in_secs: f64,
    exec_secs: f64,
    outcome: MonitorOutcome,
    /// The attempt failed for infrastructure reasons before/around the
    /// execution; `outcome` is a placeholder when this is a stage-in
    /// fault.
    infra: Option<InfraFault>,
    /// An environment pack was transferred (cache-missed) during this
    /// stage-in — feeds the packed-env degradation counter on failure.
    env_transfer: bool,
}

#[cfg(test)]
thread_local! {
    /// Span and instant builders constructed (see [`Master::span`]).
    static BUILDERS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Placements examined by `evict_worker`, for the linearity regression
    /// test (eviction must scan only the evicted worker's own placements).
    static EVICT_SCANNED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Attempts examined for placement, failing or not (see
    /// [`Master::examine`]): the count the wake rule decides.
    static EXAMINATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Run a workload to completion under `config`, on `worker_count` workers of
/// `spec`. Panics on deadlock (tasks pending with no worker able to ever fit
/// them would indicate a workload/config bug). When `config.shards > 1` the
/// run routes through the foreman federation and returns the merged report.
pub fn run_workload(
    config: &MasterConfig,
    tasks: Vec<TaskSpec>,
    worker_count: u32,
    spec: NodeSpec,
) -> RunReport {
    assert!(!tasks.is_empty(), "empty workload");
    let work = Arc::new(PreparedWorkload::new(tasks));
    run_prepared(config, &work, worker_count, spec)
}

/// [`run_workload`] over a workload prepared once and shared: every run over
/// the same tasks (a grid point's four strategies, concurrent sweep jobs)
/// reads the one checked, indexed table and copies nothing.
pub fn run_prepared(
    config: &MasterConfig,
    work: &Arc<PreparedWorkload>,
    worker_count: u32,
    spec: NodeSpec,
) -> RunReport {
    assert!(!work.is_empty(), "empty workload");
    if config.shards > 1 {
        let fed = crate::federation::FederationConfig::new(config.shards);
        let work = Arc::clone(work);
        return crate::federation::run_shards(config, &fed, work, worker_count, spec).merged;
    }
    Master::new(config.clone(), Arc::clone(work), worker_count, spec).run()
}

/// An allocator that has learned nothing and knows every category of `work`
/// under the workload's own id — the invariant the id-keyed calls of the
/// per-task path rest on, re-established wherever a crash replaces the
/// allocator.
fn fresh_allocator(strategy: &Strategy, work: &PreparedWorkload) -> Allocator {
    let mut allocator = Allocator::new(strategy.clone());
    for (cat, name) in work.cat_names.iter().enumerate() {
        let id = allocator.intern(name);
        debug_assert_eq!(id as usize, cat, "allocator ids are category ids");
    }
    allocator
}

pub(crate) struct Master {
    config: MasterConfig,
    /// The workload and what is derived from it alone, shared by every run
    /// over it (per-task *state* below stays per master). Only streamed
    /// admission writes it, and a streaming master is its table's sole
    /// owner.
    work: Arc<PreparedWorkload>,
    workers: WorkerTable,
    sched: IndexedSched,
    queue: EventQueue<Event>,
    allocator: Allocator,
    fs: SharedFs,
    net: Network,
    disk_model: LocalDisk,
    spec: NodeSpec,
    worker_count: u32,
    in_flight: usize,
    /// Attempts running per category id (`work.cat_of[task_idx]`).
    running_by_cat: Vec<u32>,
    /// Sum of free cores across live workers, maintained on worker
    /// up/place/finish/evict so elastic scaling never re-sums the pool.
    free_cores: u64,
    batch: BatchSystem,
    /// Compiled fault-injection state (streams + keyed draws).
    faults: FaultState,
    /// The network disturbance draw stream.
    net_rng: SimRng,
    /// Everything journaled that is plain data. Changed only through
    /// [`Master::commit`], so replaying the journal reproduces it.
    ledger: Ledger,
    /// The write-ahead journal (`None` when durability is off).
    journal: Option<Journal>,
    /// Events handled so far — the crash clock `FaultKind::MasterCrash`
    /// points index into. Identical for both scheduler implementations.
    processed_events: u64,
    /// Next unconsumed index into `faults.crash_points()`.
    next_crash: usize,
    /// The master is down: world events buffer in `deferred` until the
    /// `Recovered` event drains them.
    down: bool,
    deferred: Vec<Event>,
    master_crashes: u32,
    recoveries: u32,
    replayed_events: u64,
    /// Task/category counts at construction. Streamed admissions grow
    /// `tasks`/`cat_names` past these, so recovery's fresh-image fallback
    /// must start from the *constructed* sizes and let `Record::Submitted`
    /// replay re-grow the per-task vectors in admission order.
    initial_task_count: usize,
    initial_cat_count: usize,
    /// The `probe_restore_at` test hook already fired.
    probe_done: bool,
    /// Federation role (`None` for the classic standalone master). See
    /// `FedState` and `federation.rs`.
    fed: Option<FedState>,
    /// The shortest time any placement so far held its worker.
    min_hold: f64,
}

impl Master {
    /// Construct a master. An empty workload is allowed only for streaming
    /// mode (`streaming.rs`), where tasks arrive via [`Event::Submit`];
    /// batch entry points assert non-emptiness.
    pub(crate) fn new(
        config: MasterConfig,
        work: Arc<PreparedWorkload>,
        worker_count: u32,
        spec: NodeSpec,
    ) -> Self {
        assert!(worker_count > 0, "need at least one worker");
        let allocator = fresh_allocator(&config.strategy, &work);
        let fs = SharedFs::new(config.staging.fs);
        let faults = FaultState::new(&config.faults, config.seed);
        let net_rng = SimRng::seeded(faults.net_seed);
        let mut net = Network::new(config.staging.net);
        if let Some(d) = faults.disturbance {
            net.set_disturbance(d);
        }
        let mut seed_rng = SimRng::seeded(config.seed);
        let batch = BatchSystem::new(config.staging.batch, seed_rng.fork(1));
        // Event volume is predictable from the workload: each task produces
        // a handful of lifecycle events and each worker a provision/poll
        // stream; pre-size the calendar to skip heap regrowth.
        let event_capacity = work.len() * 4 + worker_count as usize * 2;
        Master {
            ledger: Ledger::fresh(work.dep_counts.clone(), work.cat_names.len()),
            running_by_cat: vec![0u32; work.cat_names.len()],
            initial_task_count: work.len(),
            initial_cat_count: work.cat_names.len(),
            free_cores: 0,
            batch,
            faults,
            net_rng,
            work,
            workers: WorkerTable::default(),
            sched: config.sched.build(config.policy),
            queue: EventQueue::with_capacity(event_capacity),
            allocator,
            fs,
            net,
            disk_model: LocalDisk::nvme(u64::MAX),
            spec,
            worker_count,
            in_flight: 0,
            journal: config.durability.journal.then(Journal::default),
            processed_events: 0,
            next_crash: 0,
            down: false,
            deferred: Vec::new(),
            master_crashes: 0,
            recoveries: 0,
            replayed_events: 0,
            probe_done: false,
            fed: None,
            min_hold: f64::INFINITY,
            config,
        }
    }

    /// Construct a federated sub-master: shard `shard` of the ownership map
    /// `owner` (one entry per task of `work`, value = owning shard), whose
    /// indices for this shard are `owned`. All shards share one workload.
    pub(crate) fn new_shard(
        config: MasterConfig,
        work: Arc<PreparedWorkload>,
        worker_count: u32,
        spec: NodeSpec,
        shard: u32,
        owner: Arc<Vec<u32>>,
        owned: Arc<[u32]>,
    ) -> Self {
        debug_assert_eq!(owner.len(), work.len());
        let mut m = Master::new(config, work, worker_count, spec);
        m.fed = Some(FedState {
            shard,
            owner,
            owned,
            outbox: Vec::new(),
            inbound_pending: 0,
        });
        m
    }

    /// Every span the master describes starts here (and every instant in
    /// [`Master::instant`]), so a test can count the builders a run
    /// constructs: a disabled recorder must cost the per-attempt path a
    /// branch, not a builder.
    fn span(&self, name: Name, cat: Name) -> SpanBuilder<'_> {
        #[cfg(test)]
        BUILDERS.with(|c| c.set(c.get() + 1));
        self.config.telemetry.span_key(name, cat)
    }

    fn instant(&self, name: Name, cat: Name) -> InstantBuilder<'_> {
        #[cfg(test)]
        BUILDERS.with(|c| c.set(c.get() + 1));
        self.config.telemetry.instant_key(name, cat)
    }

    /// Is `task_idx` owned by this master? Always true for the standalone
    /// master; federated sub-masters own the tasks the partition assigned
    /// them (stolen tasks run here but stay owned by their home shard).
    fn owned(&self, task_idx: usize) -> bool {
        self.fed
            .as_ref()
            .is_none_or(|f| f.owner[task_idx] == f.shard)
    }

    /// Start the run: journal the header, provision the initial pool, and
    /// enqueue the owned zero-dependency roots.
    pub(crate) fn start(&mut self) {
        // Provision the initial pool.
        let initial = match self.config.provisioning {
            Provisioning::Static => self.worker_count,
            Provisioning::Elastic { initial, .. } => initial.min(self.worker_count).max(1),
        };
        self.commit(Record::RunStart {
            seed: self.config.seed,
            task_count: self.work.len() as u64,
            worker_count: self.worker_count,
        });
        self.submit_pilots(SimTime::ZERO, initial);
        // One result row per task this master will run: a batch master its
        // whole workload, a streaming master nothing yet, a shard its
        // partition and an eighth more — a shard that runs dry steals, and
        // one stolen row past an exact reserve doubles the vector at the end
        // of the run, when memory peaks. Unused capacity is never touched.
        let rows = match &self.fed {
            None => self.work.len(),
            Some(f) => f.owned.len() + f.owned.len() / 8,
        };
        self.ledger.results.reserve(rows);
        self.enqueue_roots(SimTime::ZERO);
    }

    /// Enqueue every owned task with no dependencies left, in index order.
    fn enqueue_roots(&mut self, since: SimTime) {
        let root = |m: &mut Self, task_idx: usize| {
            if m.ledger.dep_remaining[task_idx] == 0 {
                m.enqueue_back(Pending {
                    task_idx,
                    attempt: 0,
                    since,
                });
            }
        };
        match self.fed.as_ref().map(|f| Arc::clone(&f.owned)) {
            Some(owned) => owned.iter().for_each(|&i| root(self, i as usize)),
            None => (0..self.work.len()).for_each(|i| root(self, i)),
        }
    }

    /// Process exactly one calendar event (the standalone run loop body).
    /// Panics on deadlock if the calendar is empty with work unfinished —
    /// the federation driver checks `next_time()` first and supplies its
    /// own cross-shard deadlock diagnosis.
    pub(crate) fn step(&mut self) {
        let Some((now, event)) = self.queue.pop() else {
            panic!(
                "deadlock: {} of {} tasks unfinished with no events pending",
                self.work.len() - self.ledger.completed,
                self.work.len()
            );
        };
        if self.down {
            match event {
                Event::Recovered => self.come_back_up(now),
                // The physical cluster keeps moving while the master is
                // down: buffer its events for the recovery drain.
                ev if ev.is_world() => self.deferred.push(ev),
                // Any other timer belonged to the dead process.
                _ => {}
            }
            return;
        }
        self.handle_event(now, event);
        self.after_event();
    }

    fn run(mut self) -> RunReport {
        self.start();
        while self.ledger.completed < self.work.len() {
            self.step();
        }
        self.finish()
    }

    /// Assemble the final report (the standalone run's epilogue).
    pub(crate) fn finish(self) -> RunReport {
        let makespan = self.queue.now().as_secs();
        let ledger = self.ledger;
        let counters = ledger.counters;
        let allocated: f64 = ledger.results.iter().map(|r| r.allocated_core_secs()).sum();
        let used: f64 = ledger.results.iter().map(|r| r.used_core_secs()).sum();
        let (hits, misses) = self.workers.values().fold((0, 0), |acc, w| {
            (acc.0 + w.cache_hits, acc.1 + w.cache_misses)
        });
        RunReport {
            strategy: self.config.strategy.name().to_string(),
            dist_mode: self.config.staging.dist_mode,
            makespan_secs: makespan,
            task_count: self.work.len(),
            retried_tasks: ledger.retried.len() as u64,
            abandoned_tasks: ledger.abandoned,
            cache_hits: hits,
            cache_misses: misses,
            allocated_core_secs: allocated,
            used_core_secs: used,
            overcommit_core_secs: (used - allocated).max(0.0),
            fs_md_ops: self.fs.md_ops_served,
            net_bytes: self.net.bytes_moved,
            workers_provisioned: counters.workers_provisioned,
            workers_lost: counters.workers_lost,
            tasks_lost: counters.tasks_lost,
            infra_retried_tasks: ledger.infra_retried.len() as u64,
            lease_reclaims: counters.lease_reclaims,
            stage_in_failures: counters.stage_in_failures,
            spurious_kills: counters.spurious_kills,
            result_messages_lost: counters.result_msgs_lost,
            quarantines: ledger.quarantines,
            lost_core_secs: counters.lost_core_secs,
            degraded_to_shared_fs: ledger.degraded,
            master_crashes: self.master_crashes,
            recoveries: self.recoveries,
            journal_bytes: self.journal.as_ref().map_or(0, |j| j.bytes_written()),
            replayed_events: self.replayed_events,
            results: ledger.results,
        }
    }

    /// Process one simulation event while the master is up. Every arm ends
    /// with a dispatch so freed or added capacity is reused immediately.
    fn handle_event(&mut self, now: SimTime, event: Event) {
        match event {
            Event::WorkerUp { id } => {
                self.config
                    .telemetry
                    .counter_at_key(tk().event_worker_up, 1, now);
                let mut worker = Worker::new(id, self.spec);
                // Per-worker fault properties are keyed by worker id,
                // not drawn from a shared stream, so they are identical
                // across scheduler implementations.
                worker.slowdown = self.faults.worker_slowdown(id);
                let replaced = self.workers.insert(worker);
                debug_assert!(replaced.is_none(), "the batch system reuses no id");
                self.free_cores += self.spec.resources.cores as u64;
                self.sched.worker_added(id, self.spec.resources.cores);
                // An empty worker fits any resolved allocation: every NoFit
                // certificate is void.
                self.sched.wake_all_nofit();
                // Sample an eviction time for unreliable pools.
                if let Some(lifetime) = self.faults.worker_lifetime(id) {
                    self.queue.schedule_in(lifetime, Event::WorkerDown { id });
                }
                self.dispatch(now);
            }
            Event::WorkerDown { id } => {
                self.config
                    .telemetry
                    .counter_at_key(tk().event_worker_down, 1, now);
                self.evict_worker(now, id);
                self.dispatch(now);
            }
            Event::TaskDone(info) => {
                self.config
                    .telemetry
                    .counter_at_key(tk().event_task_done, 1, now);
                // A placement lost with its worker (or reclaimed by its
                // lease) was already rescheduled; drop the stale
                // completion.
                if self.ledger.placements.get(info.placement).is_none() {
                    return;
                }
                if info.infra == Some(InfraFault::ResultLost) {
                    // The task ran, but its completion message vanished:
                    // free the worker and leave a zombie placement for
                    // the lease to reclaim.
                    self.result_lost(now, &info);
                } else {
                    self.commit(Record::Freed {
                        placement: info.placement,
                    });
                    self.finish_task(now, *info);
                }
                self.dispatch(now);
            }
            Event::LeaseExpired { placement } => {
                self.reclaim_lease(now, placement);
                self.dispatch(now);
            }
            Event::Requeue { task_idx, attempt } => {
                // The armed backoff fires: the front-enqueue's record also
                // retires its ledger entry.
                self.enqueue_front(Pending {
                    task_idx,
                    attempt,
                    since: now,
                });
                self.dispatch(now);
            }
            Event::QuarantineRelease { id } => {
                self.release_quarantine(now, id);
                self.dispatch(now);
            }
            Event::RemoteRelease { task_idx, success } => {
                self.handle_remote_release(now, task_idx, success);
                self.dispatch(now);
            }
            Event::StolenArrive { task_idx, attempt } => {
                if let Some(f) = self.fed.as_mut() {
                    f.inbound_pending = f.inbound_pending.saturating_sub(1);
                }
                self.config
                    .telemetry
                    .counter_at_key(tk().fed_stolen_in, 1, now);
                self.enqueue_back(Pending {
                    task_idx,
                    attempt,
                    since: now,
                });
                self.dispatch(now);
            }
            Event::Recovered => unreachable!("Recovered is only delivered while down"),
            Event::Submit(specs) => {
                self.config
                    .telemetry
                    .counter_at_key(tk().event_submit, specs.len() as u64, now);
                for spec in specs {
                    self.admit_streamed(now, spec);
                }
                self.dispatch(now);
            }
        }
    }

    /// Append one streamed task to a running master and enqueue it. The
    /// per-task ledger vectors (dependency counts, infra budgets) grow with
    /// its `Submitted` record, and a first-seen category is interned on the
    /// fly — the allocator then learns its label from scratch exactly as it
    /// would have for an up-front batch.
    fn admit_streamed(&mut self, now: SimTime, spec: TaskSpec) {
        assert!(
            spec.deps.is_empty(),
            "streamed task {} has dependencies; streaming submission is for \
             independent invocations",
            spec.id
        );
        let task_idx = self.work.len();
        // The record carries a copy of the spec for the journal to keep.
        let kept = self.journal.is_some().then(|| Box::new(spec.clone()));
        // Sole owner: `make_mut` appends in place, it never copies.
        let cat = Arc::make_mut(&mut self.work).admit(spec);
        if cat as usize == self.running_by_cat.len() {
            self.running_by_cat.push(0);
            let id = self.allocator.intern(&self.work.cat_names[cat as usize]);
            debug_assert_eq!(id, cat, "allocator ids are category ids");
        }
        self.commit(Record::Submitted {
            task_idx: task_idx as u64,
            cat,
            spec: kept,
        });
        self.enqueue_back(Pending {
            task_idx,
            attempt: 0,
            since: now,
        });
    }

    /// A dependency of `task_idx` reached a terminal state on another shard.
    /// Mirrors the local `release_dependents` / `cancel_dependents` paths,
    /// deduplicating against already-cancelled dependents.
    fn handle_remote_release(&mut self, now: SimTime, task_idx: usize, success: bool) {
        if self.ledger.dep_remaining[task_idx] == usize::MAX {
            // Already cancelled by another failed upstream.
            return;
        }
        if success {
            let ready = self.commit(Record::RemoteDep {
                task_idx: task_idx as u64,
            });
            self.enqueue_ready(now, ready);
        } else {
            self.commit(Record::Cancelled {
                task_idx: task_idx as u64,
            });
            self.cancel_dependents(task_idx);
        }
    }

    /// Bookkeeping after every event processed while up: the crash-point
    /// check, the restore-equivalence probe, snapshot compaction, elastic
    /// scaling, and the queue-depth gauge.
    fn after_event(&mut self) {
        self.processed_events += 1;
        if let Some(&point) = self.faults.crash_points().get(self.next_crash) {
            if self.processed_events >= point {
                self.crash(self.queue.now());
                return;
            }
        }
        if let Some(at) = self.config.durability.probe_restore_at {
            if !self.probe_done && self.processed_events >= at && self.is_quiescent() {
                self.probe_restore(self.queue.now());
                self.probe_done = true;
            }
        }
        let every = self.config.durability.snapshot_every;
        if (self.journal.as_ref()).is_some_and(|j| j.wants_snapshot(every)) {
            self.compact();
        }
        self.maybe_scale(self.queue.now());
        self.config.telemetry.gauge_key(
            tk().master_pending_tasks,
            self.queued_len() as f64,
            self.queue.now(),
        );
    }

    /// No armed master-side timers (leases, backoffs, quarantine releases):
    /// restoring here re-arms nothing, so the event queue is untouched and a
    /// probe restore must be bit-exact. In-flight placements are fine — they
    /// live in the image, not the queue — as long as their leases are
    /// unarmed (always true on a fault-free cluster).
    fn is_quiescent(&self) -> bool {
        self.ledger.backoffs.is_empty()
            && self.ledger.quarantined_until.is_empty()
            && (self.ledger.placements.iter()).all(|(_, p)| p.lease_at.is_none())
    }

    // ---- durability: journaling, crash, and recovery ----

    /// The one way journaled state changes: append a copy of the record to
    /// the write-ahead journal (when durability is on), then apply it to the
    /// ledger through the same [`Ledger::apply`] that recovery folds the
    /// journal with. Returns the tasks whose last dependency the record
    /// satisfied.
    fn commit(&mut self, rec: Record) -> Vec<usize> {
        let graph = DepGraph {
            work: &self.work,
            shard: self.fed.as_ref().map(|f| (f.owner.as_slice(), f.shard)),
        };
        match &mut self.journal {
            Some(journal) => {
                journal.append(&rec);
                self.ledger.apply(rec, &graph)
            }
            None => {
                let ready = self.ledger.apply(rec, &graph);
                // No journal, no delta image to carry it to.
                self.ledger.dirty.clear();
                ready
            }
        }
    }

    /// Install a compacting image in the journal, encoded from the live
    /// ledger and views as they stand — nothing is cloned to be written.
    fn compact(&mut self) {
        let mut journal = self.journal.take().expect("the journal asked for it");
        journal.compact(&self.ledger, &self.worker_faults(), || {
            (self.sched.snapshot_pending(), self.alloc_stats())
        });
        self.ledger.dirty.clear();
        self.config
            .telemetry
            .counter_at_key(tk().journal_snapshot, 1, self.queue.now());
        // The guard that a delta missed nothing: the chain, read back from
        // its bytes, is the live master's full image (once its pending
        // queue, which deltas leave in deque order, is ranked like one).
        if cfg!(debug_assertions) {
            let mut chain = (journal.base_image())
                .expect("image chain decodes")
                .expect("just compacted");
            self.sort_by_rank(chain.pending.make_contiguous());
            assert_eq!(
                chain,
                self.snapshot_image(),
                "image chain diverged from live"
            );
        }
        self.journal = Some(journal);
    }

    /// Commit a plain report-counter delta.
    fn count(&mut self, key: CounterKey, amount: f64) {
        self.commit(Record::Counter { key, amount });
    }

    /// The master process dies. Its logical state is wiped; the physical
    /// cluster (workers, caches, running executions, in-flight transfers)
    /// keeps moving. With a journal the master recovers `images ⊕ tail`;
    /// without one it restarts the run from scratch (the bench baseline).
    /// Either way the master stays down for the restart latency plus the
    /// per-record replay cost, buffering world events until `Recovered`.
    fn crash(&mut self, now: SimTime) {
        self.master_crashes += 1;
        self.next_crash += 1;
        self.config
            .telemetry
            .counter_at_key(tk().master_crash, 1, now);
        // Master-side timers (leases, backoffs, quarantine releases) died
        // with the process; only the physical world's events survive.
        self.queue.retain(Event::is_world);
        let tail = self.journal.as_ref().map(|j| j.tail().len() as u64);
        let downtime = self.config.durability.restart_secs
            + self.config.durability.replay_secs_per_event * tail.unwrap_or(0) as f64;
        let resume_at = now + downtime;
        // Recovery re-arms master timers whose deadlines passed while down
        // by clamping them to the recovery instant. Ties break FIFO, so
        // `Recovered` must be inserted first: otherwise a clamped timer
        // pops while the master is still down and is discarded as a
        // dead-process timer, leaving its ledger entry armed forever.
        self.queue.schedule_at(resume_at, Event::Recovered);
        match tail {
            Some(replayed) => {
                let img = self.recover_image();
                // The guard that no site changed the ledger without
                // committing a record: what the journal folds to is what
                // the live master held.
                debug_assert_eq!(img.ledger, self.ledger, "replay diverged from live");
                self.replayed_events += replayed;
                self.config
                    .telemetry
                    .counter_at_key(tk().journal_replayed_events, replayed, now);
                self.restore_from_image(img, resume_at);
                self.recoveries += 1;
            }
            None => self.full_restart(resume_at),
        }
        self.down = true;
        self.deferred.clear();
    }

    /// The master process is back up: drain the world events that arrived
    /// while it was down (in their original order), then resume dispatching.
    fn come_back_up(&mut self, now: SimTime) {
        self.down = false;
        self.config
            .telemetry
            .counter_at_key(tk().master_recovered, 1, now);
        let deferred = std::mem::take(&mut self.deferred);
        for ev in deferred {
            self.handle_event(now, ev);
            self.processed_events += 1;
        }
        self.dispatch(now);
        self.maybe_scale(now);
        self.config
            .telemetry
            .gauge_key(tk().master_pending_tasks, self.queued_len() as f64, now);
    }

    /// Fold the journal (image chain plus record tail) into the image the
    /// crashed master must resume from.
    fn recover_image(&self) -> MasterImage {
        let journal = self.journal.as_ref().expect("journaled recovery");
        let mut img = journal
            .base_image()
            .expect("snapshot decodes")
            .unwrap_or_else(|| MasterImage {
                // Start from the *constructed* task/category sizes: tasks
                // streamed in after run start re-grow the ledger as their
                // `Submitted` records replay.
                ledger: Ledger::fresh(
                    self.work.dep_counts[..self.initial_task_count].to_vec(),
                    self.initial_cat_count,
                ),
                ..MasterImage::default()
            });
        let graph = DepGraph {
            work: &self.work,
            shard: self.fed.as_ref().map(|f| (f.owner.as_slice(), f.shard)),
        };
        let mut queue = PendingFold::new(std::mem::take(&mut img.pending));
        for rec in journal.tail() {
            img.ledger.apply(rec.clone(), &graph);
            queue.apply(rec);
            self.replay_views(&mut img, rec);
        }
        img.pending = queue.finish();
        img
    }

    /// Replay one record into the image views that are neither ledger state
    /// nor the pending queue (a [`PendingFold`]'s job). The live master
    /// never runs this: fault attribution lives on each `Worker`, and
    /// observations go straight into the `Allocator`'s multisets.
    fn replay_views(&self, img: &mut MasterImage, rec: &Record) {
        match rec {
            Record::RunStart {
                seed,
                task_count,
                worker_count,
            } => {
                debug_assert_eq!(*seed, self.config.seed, "journal from another run");
                // `self.work.tasks` may have grown past the header count via
                // streamed admissions; the header pins the constructed size.
                debug_assert_eq!(*task_count, self.initial_task_count as u64);
                debug_assert_eq!(*worker_count, self.worker_count);
            }
            Record::WorkerFault { worker, count } => {
                img.worker_faults.insert(*worker, *count);
            }
            Record::QuarantineLifted { worker } => {
                img.worker_faults.remove(worker);
            }
            Record::Observe { .. } => observe_into(&mut img.alloc_stats, rec),
            _ => {}
        }
    }

    /// Stable sort into examination order: by policy rank, queue order
    /// within a rank.
    fn sort_by_rank(&self, pending: &mut [Pending]) {
        pending.sort_by_key(|p| {
            policy_rank(
                self.config.policy,
                self.work.tasks[p.task_idx].profile.peak_memory_mb,
            )
        });
    }

    /// Per-worker infra-failure attribution, as an image carries it.
    fn worker_faults(&self) -> BTreeMap<u32, u32> {
        (self.workers.values())
            .filter(|w| w.infra_failures > 0)
            .map(|w| (w.id(), w.infra_failures))
            .collect()
    }

    /// The allocator's sample stores, dense by category id and in canonical
    /// order (see [`Allocator::snapshot_category`]).
    fn alloc_stats(&self) -> Vec<CategorySnap> {
        self.work
            .cat_names
            .iter()
            .map(|cat| {
                self.allocator
                    .snapshot_category(cat)
                    .map(|(cores, memory_mb, disk_mb, completed)| CategorySnap {
                        cores,
                        memory_mb,
                        disk_mb,
                        completed: completed as u64,
                    })
                    .unwrap_or_default()
            })
            .collect()
    }

    /// The master's complete logical state as one materialised full image —
    /// for the probe restore and for checking what the journal's chain
    /// decodes to; compaction encodes from the same parts without this copy.
    fn snapshot_image(&self) -> MasterImage {
        MasterImage {
            ledger: self.ledger.clone(),
            pending: self.sched.snapshot_pending().into(),
            alloc_stats: self.alloc_stats(),
            worker_faults: self.worker_faults(),
        }
    }

    /// Overwrite the master's logical state from an image: take its ledger,
    /// rebuild everything derived from it and the active scheduler
    /// implementation, and re-arm master-side timers clamped to the recovery
    /// instant. World state (workers, caches, running executions) is
    /// untouched — it survived the crash — and so is the prepared workload,
    /// which no run ever writes.
    fn restore_from_image(&mut self, img: MasterImage, resume_at: SimTime) {
        self.ledger = img.ledger;

        // The allocator's labels are a pure function of the sample multiset,
        // so replaying the exported samples reproduces every decision.
        self.allocator = fresh_allocator(&self.config.strategy, &self.work);
        for (cat, s) in self.work.cat_names.iter().zip(&img.alloc_stats) {
            if s.cores.is_empty()
                && s.memory_mb.is_empty()
                && s.disk_mb.is_empty()
                && s.completed == 0
            {
                continue;
            }
            self.allocator.restore_category(
                cat,
                &s.cores,
                &s.memory_mb,
                &s.disk_mb,
                s.completed as usize,
            );
        }

        for w in self.workers.values_mut() {
            w.placements.clear();
            w.infra_failures = img.worker_faults.get(&w.id()).copied().unwrap_or(0);
            w.quarantined = (self.ledger.quarantined_until.iter()).any(|&(q, _)| q == w.id());
        }
        self.running_by_cat.fill(0);
        self.in_flight = 0;
        for (id, p) in self.ledger.placements.iter() {
            if !p.zombie {
                // Zombies already freed their resources; they stay live only
                // to block duplicate completions until the lease reclaims.
                let worker = (self.workers.get_mut(p.worker))
                    .expect("a live placement's worker is connected");
                worker.placements.push(id);
                self.in_flight += 1;
                self.running_by_cat[self.work.cat_of[p.task_idx] as usize] += 1;
            }
        }
        self.free_cores = self.pool_free_cores();
        self.rebuild_sched(img.pending.into());

        // Re-arm master-side timers, clamping deadlines that passed while
        // the master was down to the recovery instant. Each class re-arms
        // in its original arm order, so equal-time timers keep their FIFO
        // tie-break.
        for (placement, p) in self.ledger.placements.iter() {
            if let Some(t) = p.lease_at {
                self.queue
                    .schedule_at(t.max(resume_at), Event::LeaseExpired { placement });
            }
        }
        for &(task_idx, attempt, at) in &self.ledger.backoffs {
            self.queue
                .schedule_at(at.max(resume_at), Event::Requeue { task_idx, attempt });
        }
        for &(id, t) in &self.ledger.quarantined_until {
            self.queue
                .schedule_at(t.max(resume_at), Event::QuarantineRelease { id });
        }
    }

    /// Free cores across the workers the scheduler may use.
    fn pool_free_cores(&self) -> u64 {
        (self.workers.values())
            .filter(|w| !w.quarantined)
            .map(|w| w.node.available().cores as u64)
            .sum()
    }

    /// Crash recovery without a journal: the restarted master knows nothing.
    /// Orphaned placements are torn down (their completions will be dropped
    /// as stale), every learned label and result row is lost, and the whole
    /// workload re-enqueues from its roots — only worker caches survive to
    /// soften the re-run. This deliberately breaks run conservation; it is
    /// the baseline the recovery bench measures the journal against.
    fn full_restart(&mut self, resume_at: SimTime) {
        // The restarted master's ledger is a fresh one, except for what
        // describes the world rather than the run: placement ids keep
        // counting (a pre-crash completion still in flight must find its id
        // dead, never reissued), and the report still owes the pilots
        // submitted, the workers and attempts lost, and the quarantines
        // served before the crash.
        let old = std::mem::take(&mut self.ledger);
        self.ledger = Ledger {
            next_placement: old.next_placement,
            quarantines: old.quarantines,
            counters: old.counters,
            ..Ledger::fresh(self.work.dep_counts.clone(), self.work.cat_names.len())
        };
        for (_, p) in old.placements.iter().filter(|(_, p)| !p.zombie) {
            if let Some(w) = self.workers.get_mut(p.worker) {
                w.node.free(p.allocated);
                w.running -= 1;
                // Forget in-flight staging marks for torn-down placements
                // so the re-run re-stages cleanly.
                for file in self
                    .work
                    .inputs_of(p.task_idx)
                    .iter()
                    .filter_map(|r| r.file())
                {
                    w.abort_staging(file);
                }
            }
        }
        self.in_flight = 0;
        self.running_by_cat.fill(0);
        for w in self.workers.values_mut() {
            w.placements.clear();
            w.quarantined = false;
            w.infra_failures = 0;
        }
        self.free_cores = self.pool_free_cores();
        self.allocator = fresh_allocator(&self.config.strategy, &self.work);
        self.rebuild_sched(Vec::new());
        self.enqueue_roots(resume_at);
    }

    /// Point a fresh scheduler at a restored pending sequence (already in
    /// examination order) and the surviving worker pool.
    fn rebuild_sched(&mut self, pending: Vec<Pending>) {
        let mut sched = self.config.sched.build(self.config.policy);
        for w in self.workers.values() {
            if !w.quarantined {
                sched.worker_added(w.id(), w.node.available().cores);
            }
            // The file index keeps quarantined workers' caches (they rejoin
            // with caches intact), matching live maintenance.
            for f in w.cached_files() {
                sched.file_cached(f, w.id());
            }
        }
        self.sched = sched;
        for item in pending {
            self.sched.push_back(&self.work.tasks[item.task_idx], item);
        }
    }

    /// Test hook (`DurabilityConfig::probe_restore_at`): serialize the
    /// full master image through the encode/decode path, wipe, and restore
    /// in place. A restored master must be bitwise-indistinguishable from
    /// an uninterrupted one — the recovery-equivalence suites compare the
    /// final `RunReport`s.
    fn probe_restore(&mut self, now: SimTime) {
        let img = self.snapshot_image();
        let bytes = img.encode();
        let mut decoded = MasterImage::decode(&bytes).expect("image round-trips");
        // Not image state: the dirty list goes with the journal's record
        // tail, which a probe leaves in place.
        decoded.ledger.dirty.clone_from(&img.ledger.dirty);
        debug_assert_eq!(img, decoded, "image encode/decode must round-trip");
        // Mirror a real crash's timer purge. At a quiescent point there are
        // no master-side timers, so this keeps the code path honest at zero
        // observable cost.
        self.queue.retain(Event::is_world);
        self.restore_from_image(decoded, now);
    }

    fn submit_pilots(&mut self, now: SimTime, count: u32) {
        for pilot in self.batch.submit(now, self.spec, count) {
            self.count(CounterKey::WorkersProvisioned, 1.0);
            self.queue
                .schedule_at(pilot.starts_at, Event::WorkerUp { id: pilot.id });
        }
    }

    /// Elastic scale-up: if ready tasks outnumber free slots and we are
    /// under the cap, submit another batch of pilots.
    fn maybe_scale(&mut self, now: SimTime) {
        let Provisioning::Elastic {
            max_workers, batch, ..
        } = self.config.provisioning
        else {
            return;
        };
        let pending = self.queued_len();
        let provisioned = self.ledger.counters.workers_provisioned;
        if pending == 0 || provisioned >= max_workers {
            return;
        }
        // `free_cores` is maintained incrementally on worker up, place,
        // finish, and evict — identical to re-summing the pool, without the
        // per-event O(workers) scan.
        if (pending as u64) > self.free_cores {
            let want = batch.min(max_workers - provisioned);
            if want > 0 {
                self.submit_pilots(now, want);
            }
        }
    }

    /// A pilot was evicted: requeue its in-flight tasks (not counted as
    /// resource retries — the task did nothing wrong) and optionally submit
    /// a replacement.
    fn evict_worker(&mut self, now: SimTime, id: u32) {
        let Some(mut worker) = self.workers.remove(id) else {
            return;
        };
        self.count(CounterKey::WorkersLost, 1.0);
        // A quarantined worker's free cores were already withdrawn from the
        // pool (and from the capacity index) when it was quarantined.
        if !worker.quarantined {
            self.free_cores -= worker.node.available().cores as u64;
        }
        // For quarantined workers the capacity entry is already gone; removal
        // is a no-op there but still tears down the file index.
        self.sched
            .worker_removed(id, worker.node.available().cores, worker.cached_files());
        // Only the evicted worker's own placements are touched, in ascending
        // placement id: the order they are freed and requeued in is journal
        // bytes and queue order, and the worker's list keeps none.
        let mut lost = std::mem::take(&mut worker.placements);
        lost.sort_unstable();
        for placement in lost {
            #[cfg(test)]
            EVICT_SCANNED.with(|c| c.set(c.get() + 1));
            let p = *(self.ledger.placements.get(placement)).expect("indexed placement is live");
            debug_assert_eq!(p.worker, id);
            self.commit(Record::Freed { placement });
            self.count(CounterKey::TasksLost, 1.0);
            self.in_flight -= 1;
            let lost_secs = p.allocated.cores as f64 * (now - p.started_at);
            self.count(CounterKey::LostCoreSecs, lost_secs);
            let cat = self.work.cat_of[p.task_idx];
            self.running_by_cat[cat as usize] -= 1;
            // The category's running count fell: a slow-start verdict for
            // its parked first attempts is stale.
            self.sched.wake_category(cat, false);
            self.instant(tk().task_lost, tk().cat_master)
                .at(now)
                .track(id as u64)
                .task(self.work.tasks[p.task_idx].id.0)
                .attempt(p.attempt)
                .emit();
            self.enqueue_front(Pending {
                task_idx: p.task_idx,
                attempt: p.attempt,
                since: now,
            });
        }
        drop(worker);
        if self.faults.replace_evicted() {
            self.submit_pilots(now, 1);
        }
    }

    // ---- queue plumbing ----

    /// Ready tasks queued (the stealing balancer's heat measure).
    pub(crate) fn queued_len(&self) -> usize {
        self.sched.len()
    }

    fn enqueue_back(&mut self, item: Pending) {
        self.commit(Record::Enqueue {
            task_idx: item.task_idx as u64,
            attempt: item.attempt,
            front: false,
            since: item.since,
        });
        self.sched.push_back(&self.work.tasks[item.task_idx], item);
    }

    fn enqueue_front(&mut self, item: Pending) {
        self.commit(Record::Enqueue {
            task_idx: item.task_idx as u64,
            attempt: item.attempt,
            front: true,
            since: item.since,
        });
        self.sched.push_front(&self.work.tasks[item.task_idx], item);
    }

    /// Examine one queued attempt: decide its allocation, apply the
    /// slow-start gate, and pick a worker. `Err` carries why placement is
    /// impossible right now.
    ///
    /// The allocation decision is recomputed at every examination: under
    /// Auto, tasks waiting while the first (whole-worker, monitored) runs of
    /// their category complete pick up the learned label the moment it
    /// exists.
    fn examine(
        &mut self,
        item: &Pending,
    ) -> Result<(u32, AllocationDecision, Resources), ParkReason> {
        #[cfg(test)]
        EXAMINATIONS.with(|c| c.set(c.get() + 1));
        let cat = self.work.cat_of[item.task_idx] as usize;
        let capacity = self.spec.resources;
        let decision = (self.allocator).decide_id(cat as u32, item.attempt, &capacity);
        // Slow-start: immature Auto labels dispatch gradually so one bad
        // label cannot kill an entire wave at once.
        if matches!(decision, AllocationDecision::Sized(_)) && item.attempt == 0 {
            if let Some(cap) = self.allocator.concurrency_cap_id(cat as u32) {
                if self.running_by_cat[cat] >= cap {
                    return Err(ParkReason::SlowStart);
                }
            }
        }
        let alloc = self.resolve_allocation(decision);
        let inputs = self.work.inputs_of(item.task_idx);
        match self.sched.pick_worker(&self.workers, inputs, &alloc) {
            Some(wid) => Ok((wid, decision, alloc)),
            None => Err(ParkReason::NoFit(alloc)),
        }
    }

    /// The dispatch pass: a k-way merge over the ready queue and the woken
    /// park groups' heads, in exactly the reference examination order. One
    /// failed head examination settles its whole group for the pass (within
    /// a pass capacity only shrinks and per-category running counts only
    /// grow, so every later member would fail identically): the failure
    /// leaves the group non-empty and asleep under the fresh verdict, and
    /// nothing inside a pass wakes a group, so fresh arrivals of the group
    /// are parked directly under that standing certificate — as are those
    /// of a group asleep since an earlier pass.
    fn dispatch(&mut self, now: SimTime) {
        #[cfg(test)]
        if self.sched.reference.is_some() {
            return self.dispatch_reference(now);
        }
        while let Some(src) = self.sched.peek_min() {
            match src {
                Src::Ready => {
                    let (key, item) = self.sched.pop_ready();
                    let gk = (self.work.cat_of[item.task_idx], item.attempt > 0);
                    if self.sched.is_asleep(gk) {
                        self.sched.park(gk, None, key, item);
                        continue;
                    }
                    match self.examine(&item) {
                        Ok((wid, decision, alloc)) => self.place(now, wid, &item, decision, alloc),
                        Err(reason) => self.sched.park(gk, Some(reason), key, item),
                    }
                }
                Src::Group(gk) => {
                    let item = self.sched.group_head(gk).clone();
                    match self.examine(&item) {
                        Ok((wid, decision, alloc)) => {
                            self.sched.pop_group_head(gk);
                            self.place(now, wid, &item, decision, alloc);
                        }
                        Err(reason) => self.sched.sleep_group(gk, reason),
                    }
                }
            }
        }
    }

    /// Convert a decision into a concrete vector on this pool's node spec.
    fn resolve_allocation(&self, decision: AllocationDecision) -> Resources {
        match decision {
            AllocationDecision::WholeWorker => self.spec.resources,
            AllocationDecision::Sized(r) => {
                // A label larger than the node clamps to a whole worker.
                if r.fits_in(&self.spec.resources) {
                    r
                } else {
                    self.spec.resources
                }
            }
        }
    }

    fn place(
        &mut self,
        now: SimTime,
        wid: u32,
        item: &Pending,
        decision: AllocationDecision,
        alloc: Resources,
    ) {
        let (task_idx, attempt) = (item.task_idx, item.attempt);
        let concurrent = self.in_flight.max(1);
        // ---- schedule/dispatch telemetry ----
        if self.config.telemetry.is_enabled() {
            let tid = self.work.tasks[task_idx].id.0;
            if now > item.since {
                self.span(tk().queue_wait, tk().cat_master)
                    .at(item.since, now)
                    .track(wid as u64)
                    .task(tid)
                    .attempt(attempt)
                    .emit();
            }
            self.instant(tk().dispatch, tk().cat_master)
                .at(now)
                .track(wid as u64)
                .task(tid)
                .attempt(attempt)
                .attr_key(
                    tk().a_category,
                    self.work.cat_attr(self.work.cat_of[task_idx]),
                )
                .attr_key(tk().a_cores, alloc.cores as u64)
                .attr_key(tk().a_memory_mb, alloc.memory_mb)
                .emit();
        }
        // Staging works on the worker's row where it lives: the network,
        // filesystem and fault models it draws on are other fields.
        let direct_env = self.effective_dist_mode() == DistMode::SharedFsDirect;
        let worker = self.workers.get_mut(wid).expect("picked worker exists");
        let co_resident = worker.running;
        let old_free = worker.node.available().cores;
        assert!(worker.node.allocate(alloc), "pick_worker guaranteed fit");
        self.sched
            .update_free(wid, old_free, worker.node.available().cores);
        self.free_cores -= alloc.cores as u64;
        worker.running += 1;
        self.in_flight += 1;
        self.running_by_cat[self.work.cat_of[task_idx] as usize] += 1;
        // The placement itself enters the ledger with its `Placed` record,
        // once the lease deadline is known.
        let placement = self.ledger.next_placement;
        worker.placements.push(placement);

        // ---- stage-in ----
        // Cacheable files (environments, shared data) transfer once per
        // worker; tasks arriving while the transfer is in flight wait for it.
        // Per-task data files always transfer. All fault-stream draws below
        // happen at placement-identical points, so both scheduler
        // implementations consume identical fault sequences.
        let mut cacheable_wait = 0.0f64;
        let mut data_bytes = 0u64;
        let mut direct_import = 0.0f64;
        let mut infra: Option<InfraFault> = None;
        let mut transferred = false;
        let mut env_transfer = false;
        let inputs = &self.work.tasks[task_idx].inputs;
        for (f, row) in inputs.iter().zip(self.work.inputs_of(task_idx)) {
            let is_env = row.is_env();
            if is_env && direct_env {
                // Conventional deployment: every task imports the whole
                // environment straight from the shared filesystem.
                if let FileKind::EnvironmentPack {
                    unpacked_files,
                    unpacked_bytes,
                    ..
                } = &f.kind
                {
                    direct_import +=
                        self.fs
                            .import_cost(*unpacked_files, *unpacked_bytes, concurrent);
                    worker.cache_misses += 1;
                    self.config
                        .telemetry
                        .counter_at_key(tk().worker_cache_miss, 1, now);
                }
                continue;
            }
            if let Some(file) = row.file() {
                if worker.has_cached(file) {
                    worker.cache_hits += 1;
                    self.config
                        .telemetry
                        .counter_at_key(tk().worker_cache_hit, 1, now);
                } else if let Some(ready) = worker.staging_ready(file) {
                    // Share the in-flight transfer.
                    worker.cache_hits += 1;
                    self.config
                        .telemetry
                        .counter_at_key(tk().worker_cache_hit, 1, now);
                    cacheable_wait = cacheable_wait.max((ready - now).max(0.0));
                } else {
                    worker.cache_misses += 1;
                    self.config
                        .telemetry
                        .counter_at_key(tk().worker_cache_miss, 1, now);
                    self.config.telemetry.counter_at_key(
                        tk().worker_transfer_bytes,
                        f.size_bytes,
                        now,
                    );
                    transferred = true;
                    if is_env {
                        env_transfer = true;
                    }
                    let tr = self
                        .net
                        .transfer(f.size_bytes, concurrent, &mut self.net_rng);
                    if tr.lost {
                        // The bytes never landed: the time is spent, the
                        // attempt fails, nothing is marked staging.
                        infra.get_or_insert(InfraFault::StageInFailed);
                        cacheable_wait = cacheable_wait.max(tr.secs);
                        continue;
                    }
                    let mut cost = tr.secs;
                    if let FileKind::EnvironmentPack {
                        unpacked_files,
                        relocation_ops,
                        unpacked_bytes,
                    } = &f.kind
                    {
                        if self.faults.unpack_disk_full() {
                            infra.get_or_insert(InfraFault::DiskFull);
                            cacheable_wait = cacheable_wait.max(cost);
                            continue;
                        }
                        cost += self.disk_model.unpack_cost(
                            *unpacked_bytes,
                            *unpacked_files,
                            *relocation_ops,
                        );
                    }
                    worker.mark_staging(file, now + cost);
                    cacheable_wait = cacheable_wait.max(cost);
                }
            } else {
                data_bytes += f.size_bytes;
            }
        }
        let mut stage_in = cacheable_wait + direct_import;
        if data_bytes > 0 {
            self.config
                .telemetry
                .counter_at_key(tk().worker_transfer_bytes, data_bytes, now);
            transferred = true;
            let tr = self.net.transfer(data_bytes, concurrent, &mut self.net_rng);
            stage_in += tr.secs;
            if tr.lost {
                infra.get_or_insert(InfraFault::StageInFailed);
            }
        }
        // The injected staging-failure stream draws once per attempt that
        // actually moved data.
        if infra.is_none() && transferred && self.faults.stage_in_fails() {
            infra = Some(InfraFault::StageInFailed);
        }
        let straggler = worker.slowdown;

        if let Some(fault) = infra {
            // Stage-in failed: the attempt ends when the wasted transfer
            // time elapses, without ever executing. The `outcome` is a
            // placeholder — infra completions never reach the allocator or
            // the results log.
            self.queue.schedule_in(
                stage_in,
                Event::TaskDone(Box::new(DoneInfo {
                    worker: wid,
                    placement,
                    task_idx,
                    attempt,
                    allocated: alloc,
                    started_at: now,
                    stage_in_secs: stage_in,
                    exec_secs: 0.0,
                    outcome: MonitorOutcome::Failed {
                        exit_code: -86,
                        report: Default::default(),
                    },
                    infra: Some(fault),
                    env_transfer,
                })),
            );
            self.min_hold = self.min_hold.min(stage_in);
            // No execution, no lease: the stage-in failure event itself
            // bounds the attempt.
            self.commit(Record::Placed {
                placement,
                worker: wid,
                task_idx: task_idx as u64,
                attempt,
                alloc,
                started_at: now,
                lease_at: None,
            });
            return;
        }

        // ---- execution under the simulated LFM ----
        let limits = match decision {
            AllocationDecision::WholeWorker => ResourceLimits::unlimited(),
            AllocationDecision::Sized(r) => ResourceLimits::unlimited()
                .with_cores(r.cores as f64)
                .with_memory_mb(r.memory_mb)
                .with_disk_mb(r.disk_mb),
        };
        let io_slow = 1.0 + self.config.staging.io_interference * co_resident as f64;
        let slowdown = io_slow * straggler;
        let profile = SimTaskProfile {
            duration_secs: self.work.tasks[task_idx].profile.duration_secs * slowdown,
            ..self.work.tasks[task_idx].profile
        };
        let mut sim = self.config.monitor.run(&profile, &limits);
        if sim.outcome.is_success() {
            if let Some(frac) = self.faults.spurious_kill() {
                sim = self
                    .config
                    .monitor
                    .killed_at(&profile, frac * sim.occupied_secs);
            }
        }

        // ---- stage-out ----
        let output_bytes = self.work.tasks[task_idx].output_bytes;
        let mut infra_out: Option<InfraFault> = None;
        let stage_out = if output_bytes > 0 && sim.outcome.is_success() {
            let tr = self
                .net
                .transfer(output_bytes, concurrent, &mut self.net_rng);
            if tr.lost {
                infra_out = Some(InfraFault::ResultLost);
            }
            tr.secs
        } else {
            0.0
        };

        let total = stage_in + sim.occupied_secs + stage_out;
        self.min_hold = self.min_hold.min(total);
        self.queue.schedule_in(
            total,
            Event::TaskDone(Box::new(DoneInfo {
                worker: wid,
                placement,
                task_idx,
                attempt,
                allocated: alloc,
                started_at: now,
                stage_in_secs: stage_in,
                exec_secs: sim.occupied_secs,
                outcome: sim.outcome,
                infra: infra_out,
                env_transfer,
            })),
        );

        // ---- lease ----
        // Only armed under an active fault plan, so fault-free runs
        // schedule no extra events. The lease is a multiple of the
        // attempt's *nominal* time (actual stage-in + unslowed execution +
        // nominal output transfer): stragglers running far past nominal
        // and zombies whose completion never arrives both get reclaimed.
        let lease_at = if self.faults.active() {
            let nominal = stage_in
                + self.work.tasks[task_idx].profile.duration_secs * io_slow
                + output_bytes as f64 / self.net.params.per_link_bw;
            let r = &self.config.resilience;
            let lease = (r.lease_factor * nominal).max(r.min_lease_secs);
            let deadline = now + lease;
            self.queue
                .schedule_at(deadline, Event::LeaseExpired { placement });
            Some(deadline)
        } else {
            None
        };
        self.commit(Record::Placed {
            placement,
            worker: wid,
            task_idx: task_idx as u64,
            attempt,
            alloc,
            started_at: now,
            lease_at,
        });
    }

    /// What distribution mode is in force right now — the configured one,
    /// unless repeated packed-env staging failures degraded the run to the
    /// shared filesystem.
    fn effective_dist_mode(&self) -> DistMode {
        if self.ledger.degraded {
            DistMode::SharedFsDirect
        } else {
            self.config.staging.dist_mode
        }
    }

    /// A placement stops occupying its worker (done, reclaimed, or turned
    /// zombie): release its resources and wake parked work. Mirrors the
    /// allocation bookkeeping in `place()`; quarantined workers keep their
    /// capacity withdrawn from the pool and the index.
    fn free_placement(&mut self, wid: u32, placement: u64, task_idx: usize, allocated: Resources) {
        let cat = self.work.cat_of[task_idx];
        let worker = self.workers.get_mut(wid).expect("worker exists");
        let listed = (worker.placements.iter().position(|&p| p == placement))
            .expect("a live placement is on its worker's list");
        worker.placements.swap_remove(listed);
        let old_free = worker.node.available().cores;
        worker.node.free(allocated);
        let avail = worker.node.available();
        let quarantined = worker.quarantined;
        worker.running -= 1;
        if !quarantined {
            self.free_cores += allocated.cores as u64;
        }
        self.in_flight -= 1;
        self.running_by_cat[cat as usize] -= 1;
        // The category's running count fell: a slow-start verdict for its
        // parked first attempts is stale.
        self.sched.wake_category(cat, false);
        if !quarantined {
            self.sched.update_free(wid, old_free, avail.cores);
            // Freed capacity can unblock any group whose allocation now fits
            // this worker.
            self.sched.wake_fitting(&avail);
        }
    }

    /// Cacheable inputs staged during a completed execution are now local.
    /// In (effective) direct mode environments are never materialized
    /// locally, but ordinary shared data still caches.
    fn cache_staged_inputs(&mut self, wid: u32, task_idx: usize) {
        let packed = self.effective_dist_mode() == DistMode::PackedTransfer;
        let worker = self.workers.get_mut(wid).expect("worker exists");
        for row in self.work.inputs_of(task_idx) {
            let Some(file) = row.file() else { continue };
            if (!row.is_env() || packed) && worker.insert_cached(file) {
                self.sched.file_cached(file, wid);
            }
        }
    }

    /// The task ran to completion on its worker, but the result message was
    /// lost. Free the worker (the work is done there, and its staged inputs
    /// are cached), but keep the placement live as a zombie: its lease will
    /// reclaim and requeue it, and no duplicate completion can slip in.
    fn result_lost(&mut self, now: SimTime, info: &DoneInfo) {
        self.commit(Record::Zombie {
            placement: info.placement,
        });
        self.free_placement(info.worker, info.placement, info.task_idx, info.allocated);
        self.cache_staged_inputs(info.worker, info.task_idx);
        self.count(CounterKey::ResultMsgsLost, 1.0);
        let lost_secs = info.allocated.cores as f64 * (now - info.started_at);
        self.count(CounterKey::LostCoreSecs, lost_secs);
        self.instant(tk().result_lost, tk().cat_faults)
            .at(now)
            .track(info.worker as u64)
            .task(self.work.tasks[info.task_idx].id.0)
            .attempt(info.attempt)
            .emit();
        self.note_worker_fault(now, info.worker);
    }

    /// A placement's lease expired. If it is still live, the attempt is
    /// written off: a zombie (result lost — resources already freed) or a
    /// straggler still running (whose eventual completion will be dropped
    /// as stale). Either way the task is requeued with backoff.
    fn reclaim_lease(&mut self, now: SimTime, placement: u64) {
        let Some(p) = self.ledger.placements.get(placement).copied() else {
            return; // completed (or was lost with its worker) long ago
        };
        self.commit(Record::Freed { placement });
        self.count(CounterKey::LeaseReclaims, 1.0);
        if !p.zombie {
            self.free_placement(p.worker, placement, p.task_idx, p.allocated);
            let lost_secs = p.allocated.cores as f64 * (now - p.started_at);
            self.count(CounterKey::LostCoreSecs, lost_secs);
        }
        self.instant(tk().lease_reclaim, tk().cat_faults)
            .at(now)
            .track(p.worker as u64)
            .task(self.work.tasks[p.task_idx].id.0)
            .attempt(p.attempt)
            .attr_key(tk().a_zombie, if p.zombie { 1u64 } else { 0u64 })
            .emit();
        self.note_worker_fault(now, p.worker);
        self.requeue_with_backoff(now, p.task_idx, p.attempt);
    }

    /// Attribute an infrastructure failure to a worker; past the threshold
    /// the worker is quarantined — withdrawn from scheduling (its running
    /// tasks drain normally) until its release event.
    fn note_worker_fault(&mut self, now: SimTime, wid: u32) {
        let Some(threshold) = self.config.resilience.quarantine_threshold else {
            return;
        };
        let Some(worker) = self.workers.get_mut(wid) else {
            return; // already evicted
        };
        worker.infra_failures += 1;
        let count = worker.infra_failures;
        let quarantine = count >= threshold && !worker.quarantined;
        if quarantine {
            worker.quarantined = true;
        }
        self.commit(Record::WorkerFault { worker: wid, count });
        if quarantine {
            let worker = self.workers.get_mut(wid).expect("worker exists");
            let avail = worker.node.available();
            self.free_cores -= avail.cores as u64;
            self.sched.worker_offline(wid, avail.cores);
            self.instant(tk().quarantine, tk().cat_faults)
                .at(now)
                .track(wid as u64)
                .emit();
            let release_at = now + self.config.resilience.quarantine_secs;
            self.commit(Record::Quarantined {
                worker: wid,
                release_at,
            });
            self.queue
                .schedule_at(release_at, Event::QuarantineRelease { id: wid });
        }
    }

    /// A quarantined worker sits out its penalty and rejoins the pool with
    /// a clean flakiness score (and its file cache intact).
    fn release_quarantine(&mut self, now: SimTime, id: u32) {
        let Some(worker) = self.workers.get_mut(id) else {
            return; // evicted while quarantined
        };
        if !worker.quarantined {
            return;
        }
        worker.quarantined = false;
        worker.infra_failures = 0;
        let avail = worker.node.available();
        self.commit(Record::QuarantineLifted { worker: id });
        self.free_cores += avail.cores as u64;
        self.sched.worker_online(id, avail.cores);
        self.sched.wake_fitting(&avail);
        self.instant(tk().quarantine_release, tk().cat_faults)
            .at(now)
            .track(id as u64)
            .emit();
    }

    /// Requeue a task after an infrastructure failure: same attempt number
    /// (the task did nothing wrong), bounded by the infra retry budget,
    /// delayed by the category's exponential-backoff streak.
    fn requeue_with_backoff(&mut self, now: SimTime, task_idx: usize, attempt: u32) {
        let count = self.ledger.infra_fail_count[task_idx] + 1;
        self.commit(Record::InfraRetried {
            task_idx: task_idx as u64,
            count,
        });
        if count > self.config.resilience.infra_retry_budget {
            self.commit(Record::Abandoned {
                task_idx: task_idx as u64,
            });
            self.config
                .telemetry
                .counter_at_key(tk().master_abandoned, 1, now);
            self.cancel_dependents(task_idx);
            return;
        }
        let cat = self.work.cat_of[task_idx] as usize;
        // Saturate rather than wrap: a pathological streak past u32::MAX
        // attempts must pin at the backoff ceiling, not reset to zero.
        let streak = self.ledger.cat_streak[cat].saturating_add(1);
        self.commit(Record::Streak {
            cat: cat as u32,
            value: streak,
        });
        let delay = backoff_delay(streak, &self.config.resilience);
        self.instant(tk().infra_requeue, tk().cat_faults)
            .at(now)
            .task(self.work.tasks[task_idx].id.0)
            .attempt(attempt)
            .attr_key(tk().a_backoff_s, delay)
            .emit();
        if delay <= 0.0 {
            self.enqueue_front(Pending {
                task_idx,
                attempt,
                since: now,
            });
        } else {
            let at = now + delay;
            self.commit(Record::BackoffArm {
                task_idx: task_idx as u64,
                attempt,
                at,
            });
            self.queue
                .schedule_at(at, Event::Requeue { task_idx, attempt });
        }
    }

    /// A stage-in attempt failed (lost transfer, injected failure, or
    /// disk-full unpack): nothing landed, nothing executed. Forget the
    /// in-flight staging marks, account the wasted core-time, advance the
    /// degradation counter, and requeue.
    fn infra_finish(&mut self, now: SimTime, info: DoneInfo) {
        let fault = info.infra.expect("infra completion");
        let worker = self.workers.get_mut(info.worker).expect("worker exists");
        for file in (self.work.inputs_of(info.task_idx).iter()).filter_map(|r| r.file()) {
            worker.abort_staging(file);
        }
        self.count(CounterKey::StageInFailures, 1.0);
        let lost_secs = info.allocated.cores as f64 * info.stage_in_secs;
        self.count(CounterKey::LostCoreSecs, lost_secs);
        if info.env_transfer
            && self.config.staging.dist_mode == DistMode::PackedTransfer
            && !self.ledger.degraded
        {
            let count = self.ledger.env_failures + 1;
            self.commit(Record::EnvFailure { count });
            if let Some(th) = self.config.resilience.degrade_env_failures {
                if count >= th {
                    self.commit(Record::Degraded);
                    self.instant(tk().degrade_to_shared_fs, tk().cat_faults)
                        .at(now)
                        .emit();
                }
            }
        }
        self.instant(Name::intern(fault.label()), tk().cat_faults)
            .at(now)
            .track(info.worker as u64)
            .task(self.work.tasks[info.task_idx].id.0)
            .attempt(info.attempt)
            .emit();
        self.note_worker_fault(now, info.worker);
        self.requeue_with_backoff(now, info.task_idx, info.attempt);
    }

    fn finish_task(&mut self, now: SimTime, info: DoneInfo) {
        let cat = self.work.cat_of[info.task_idx];
        self.free_placement(info.worker, info.placement, info.task_idx, info.allocated);
        if info.infra.is_some() {
            self.infra_finish(now, info);
            return;
        }
        self.cache_staged_inputs(info.worker, info.task_idx);
        let worker = self.workers.get_mut(info.worker).expect("worker exists");
        let completed = info.outcome.is_success();
        if completed {
            worker.tasks_completed += 1;
        }
        let spurious = info.outcome.is_spurious_kill();
        let violated = match &info.outcome {
            MonitorOutcome::LimitExceeded { kind, .. } => Some(*kind),
            _ => None,
        };
        // Spurious kills are infrastructure noise: the allocator never
        // sees them, so injected monitor faults cannot corrupt learned
        // labels.
        let effects = if spurious {
            ObservationEffects::default()
        } else {
            let report = info.outcome.report();
            self.commit(Record::Observe {
                cat,
                peak_cores: report.peak_cores,
                peak_rss_mb: report.peak_rss_mb,
                peak_disk_mb: report.peak_disk_mb,
                completed,
                violated,
            });
            self.allocator.observe_outcome_notify_id(
                cat,
                info.outcome.report(),
                completed,
                violated,
                &self.spec.resources,
            )
        };
        if effects.label_changed {
            // On a label change the category's NoFit parks hold a stale
            // allocation vector: wake them for re-examination.
            self.sched.wake_category(cat, true);
        }
        let task = &self.work.tasks[info.task_idx];
        let task_id = task.id;

        // Per-attempt trace spans. Nothing below touches sim state: the
        // recorder is strictly observational, so a disabled recorder yields
        // a bit-identical RunReport, at the cost of this one branch.
        if self.config.telemetry.is_enabled() {
            let tid = task.id.0;
            let track = info.worker as u64;
            let stage_in_end = info.started_at + info.stage_in_secs;
            let exec_end = stage_in_end + info.exec_secs;
            if info.stage_in_secs > 0.0 {
                self.span(tk().stage_in, tk().cat_worker)
                    .at(info.started_at, stage_in_end)
                    .track(track)
                    .task(tid)
                    .attempt(info.attempt)
                    .emit();
            }
            let report = info.outcome.report();
            let status = match &info.outcome {
                MonitorOutcome::Completed(_) => "completed",
                MonitorOutcome::LimitExceeded { .. } => "limit_exceeded",
                MonitorOutcome::SpuriousKill { .. } => "spurious_kill",
                MonitorOutcome::Failed { .. } => "failed",
            };
            self.span(tk().exec, tk().cat_lfm)
                .at(stage_in_end, exec_end)
                .track(track)
                .task(tid)
                .attempt(info.attempt)
                .attr_key(tk().a_category, self.work.cat_attr(cat))
                .attr_key(tk().a_status, status)
                .attr_key(tk().a_polls, report.polls)
                .attr_key(tk().a_peak_rss_mb, report.peak_rss_mb)
                .attr_key(tk().a_peak_disk_mb, report.peak_disk_mb)
                .attr_key(tk().a_cpu_s, report.cpu_secs)
                .attr_key(tk().a_monitor_overhead_s, report.monitor_overhead_secs)
                .emit();
            if let Some(kind) = violated {
                self.instant(tk().limit_kill, tk().cat_lfm)
                    .at(exec_end)
                    .track(track)
                    .task(tid)
                    .attempt(info.attempt)
                    .attr_key(tk().a_limit, kind.to_string())
                    .emit();
            }
            if now > exec_end {
                self.span(tk().stage_out, tk().cat_worker)
                    .at(exec_end, now)
                    .track(track)
                    .task(tid)
                    .attempt(info.attempt)
                    .emit();
            }
            self.span(tk().task, tk().cat_master)
                .at(info.started_at, now)
                .track(track)
                .task(tid)
                .attempt(info.attempt)
                .attr_key(tk().a_status, status)
                .emit();
        }

        self.commit(Record::Result(Box::new(TaskResult {
            task: task.id,
            category: task.category.clone(),
            worker: info.worker,
            allocated: info.allocated,
            submitted_at: SimTime::ZERO,
            started_at: info.started_at,
            finished_at: now,
            stage_in_secs: info.stage_in_secs,
            exec_secs: info.exec_secs,
            outcome: info.outcome,
            attempt: info.attempt,
        })));

        if spurious {
            // An injected monitor fault killed a healthy execution: retry
            // the *same* attempt against the infra budget, never the
            // resource-retry ceiling.
            self.count(CounterKey::SpuriousKills, 1.0);
            self.instant(tk().spurious_kill, tk().cat_faults)
                .at(now)
                .track(info.worker as u64)
                .task(task_id.0)
                .attempt(info.attempt)
                .emit();
            self.note_worker_fault(now, info.worker);
            self.requeue_with_backoff(now, info.task_idx, info.attempt);
        } else if violated.is_some() {
            self.commit(Record::Retried {
                task_idx: info.task_idx as u64,
            });
            if info.attempt + 1 < self.config.resilience.max_attempts {
                self.config
                    .telemetry
                    .counter_at_key(tk().master_retry, 1, now);
                self.instant(tk().retry, tk().cat_master)
                    .at(now)
                    .track(info.worker as u64)
                    .task(task_id.0)
                    .attempt(info.attempt + 1)
                    .emit();
                // Retry at the front, at full size (the allocator returns
                // WholeWorker for attempt > 0).
                self.enqueue_front(Pending {
                    task_idx: info.task_idx,
                    attempt: info.attempt + 1,
                    since: now,
                });
            } else {
                self.commit(Record::Abandoned {
                    task_idx: info.task_idx as u64,
                });
                self.config
                    .telemetry
                    .counter_at_key(tk().master_abandoned, 1, now);
                self.cancel_dependents(info.task_idx);
            }
        } else {
            let ready = self.commit(Record::Finished {
                task_idx: info.task_idx as u64,
                success: completed,
            });
            self.config
                .telemetry
                .counter_at_key(tk().master_task_done, 1, now);
            if completed {
                // A success ends the category's infra-failure streak.
                self.commit(Record::Streak { cat, value: 0 });
                // All tasks submit at t=0, so turnaround is just `now`.
                self.config
                    .telemetry
                    .observe_key(tk().turnaround_s, now.as_secs());
                self.release_dependents(now, info.task_idx, ready);
            } else {
                // The function itself failed: its dependents can never run.
                self.cancel_dependents(info.task_idx);
            }
        }
    }

    /// Enqueue tasks whose last dependency was just satisfied.
    fn enqueue_ready(&mut self, now: SimTime, ready: Vec<usize>) {
        for task_idx in ready {
            self.enqueue_back(Pending {
                task_idx,
                attempt: 0,
                since: now,
            });
        }
    }

    /// A task succeeded and its `Finished` record counted it off its
    /// locally-owned dependents: those now `ready` are enqueued;
    /// remotely-owned dependents get a `Release` handoff message carrying
    /// the producer's output size (the owner decrements its own count when
    /// the message lands).
    fn release_dependents(&mut self, now: SimTime, task_idx: usize, ready: Vec<usize>) {
        self.enqueue_ready(now, ready);
        let Some(f) = self.fed.as_mut() else {
            return;
        };
        let bytes = self.work.tasks[task_idx].output_bytes;
        for dep_idx in self.work.dependents(task_idx) {
            if f.owner[dep_idx] != f.shard {
                f.outbox.push(OutMsg::Release {
                    task_idx: dep_idx,
                    at: now,
                    bytes,
                });
            }
        }
    }

    /// A task permanently failed: transitively cancel everything downstream
    /// so the run still terminates, counting the casualties as abandoned.
    /// Remotely-owned dependents get a `Cancel` handoff message instead —
    /// the owning shard accounts for them and continues the cascade there.
    ///
    /// The graph is shared and read-only, so nothing is pruned behind the
    /// walk; no node is walked twice all the same. A node enters the stack
    /// either as the root — a task that ran to a permanent failure, or one a
    /// remote `Cancel` just marked, each once per task — or right behind its
    /// own fresh `Cancelled` commit, which the `usize::MAX` marker allows
    /// once. A task cannot be both: it only runs once every dependency has
    /// succeeded. So no remote dependent is sent a second `Cancel`.
    fn cancel_dependents(&mut self, task_idx: usize) {
        let now = self.queue.now();
        let work = Arc::clone(&self.work);
        let mut stack = vec![task_idx];
        while let Some(idx) = stack.pop() {
            for dep_idx in work.dependents(idx) {
                if !self.owned(dep_idx) {
                    if let Some(f) = self.fed.as_mut() {
                        f.outbox.push(OutMsg::Cancel {
                            task_idx: dep_idx,
                            at: now,
                        });
                    }
                    continue;
                }
                if self.ledger.dep_remaining[dep_idx] == usize::MAX {
                    continue; // already cancelled
                }
                self.commit(Record::Cancelled {
                    task_idx: dep_idx as u64,
                });
                stack.push(dep_idx);
            }
        }
    }

    // ---- federation driver surface (see `federation.rs`) ----

    /// The timestamp of the next calendar event, if any.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Current simulation time on this shard's clock.
    pub(crate) fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Tasks that reached a terminal state on this shard (successes plus
    /// abandoned), the federation's termination currency.
    pub(crate) fn completed_count(&self) -> usize {
        self.ledger.completed
    }

    /// The master process is currently crashed (buffering world events).
    pub(crate) fn is_down(&self) -> bool {
        self.down
    }

    /// Every core this master may ever hold or have free.
    pub(crate) fn capacity_cores(&self) -> usize {
        self.worker_count as usize * self.spec.resources.cores as usize
    }

    /// The shortest time any placement so far held its worker.
    pub(crate) fn min_hold(&self) -> f64 {
        self.min_hold
    }

    /// Up, with nothing queued or stolen toward it: the balancer robs for it.
    pub(crate) fn hungry(&self) -> bool {
        let inbound = self.fed.as_ref().map_or(0, |f| f.inbound_pending);
        !self.down && self.queued_len() == 0 && inbound == 0
    }

    /// Record an in-flight stolen-task arrival (the balancer injected a
    /// `StolenArrive` toward this shard).
    pub(crate) fn note_inbound(&mut self) {
        if let Some(f) = self.fed.as_mut() {
            f.inbound_pending += 1;
        }
    }

    /// Drain the cross-shard effects produced since the last drain.
    pub(crate) fn drain_outbox(&mut self) -> Vec<OutMsg> {
        self.fed
            .as_mut()
            .map(|f| std::mem::take(&mut f.outbox))
            .unwrap_or_default()
    }

    /// Schedule `event` on this shard's calendar at absolute time `at`.
    pub(crate) fn inject_at(&mut self, at: SimTime, event: Event) {
        self.queue.schedule_at(at, event);
    }

    /// Events handled so far (federation telemetry).
    pub(crate) fn events_processed(&self) -> u64 {
        self.processed_events
    }

    /// The prepared workload's `Arc`, for the sharing guards (federation
    /// shards share one; a streaming master owns its own alone).
    #[cfg(test)]
    pub(crate) fn shared_work(&self) -> &Arc<PreparedWorkload> {
        &self.work
    }

    // ---- streaming driver surface (see `streaming.rs`) ----

    /// Every attempt record produced so far, in completion order. Streaming
    /// drivers read incrementally from a cursor; the slice only ever grows.
    pub(crate) fn results_so_far(&self) -> &[TaskResult] {
        &self.ledger.results
    }

    /// Attempts currently placed on workers.
    pub(crate) fn in_flight_count(&self) -> usize {
        self.in_flight
    }

    /// Master crashes fired so far (`FaultKind::MasterCrash`).
    pub(crate) fn crash_count(&self) -> u32 {
        self.master_crashes
    }

    /// Journaled recoveries completed so far (≤ `crash_count`; the gap is
    /// full restarts).
    pub(crate) fn recovery_count(&self) -> u32 {
        self.recoveries
    }

    /// Journal bytes flushed so far (records plus snapshots); 0 without a
    /// journal.
    pub(crate) fn journal_bytes(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.bytes_written())
    }

    /// Give up to `max` queued first-attempt tasks from the back of the
    /// pending queue (the coldest work under every policy ordering) to a
    /// work-stealing balancer. Retries and backoff re-entries stay put —
    /// their accounting is anchored to this shard. Each migration journals
    /// a `Stolen` record so crash recovery does not resurrect the task
    /// here.
    pub(crate) fn steal_back(&mut self, max: usize) -> Vec<(usize, u32)> {
        if max == 0 || self.down {
            return Vec::new();
        }
        (self.sched.steal_last(max).into_iter())
            .map(|p| {
                self.commit(Record::Stolen {
                    task_idx: p.task_idx as u64,
                    attempt: p.attempt,
                });
                (p.task_idx, p.attempt)
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::allocate::AutoConfig;
    use crate::files::FileRef;
    use crate::task::TaskId;

    /// A uniform batch of HEP-like tasks (§VI-C1's numbers).
    pub(crate) fn hep_tasks(n: u64) -> Vec<TaskSpec> {
        let env = FileRef::environment("hep-env", 240 << 20, 600 << 20, 5000, 800);
        let common = FileRef::shared_data("calib", 1 << 20);
        (0..n)
            .map(|i| {
                TaskSpec::new(
                    TaskId(i),
                    "hep",
                    vec![
                        env.clone(),
                        common.clone(),
                        FileRef::data(format!("in-{i}"), 512 << 10),
                    ],
                    50 << 20,
                    SimTaskProfile::new(55.0, 1.0, 110, 1024),
                )
            })
            .collect()
    }

    fn prepared(tasks: Vec<TaskSpec>) -> Arc<PreparedWorkload> {
        Arc::new(PreparedWorkload::new(tasks))
    }

    pub(crate) fn oracle() -> Strategy {
        let mut map = BTreeMap::new();
        map.insert("hep".to_string(), Resources::new(1, 110, 1024));
        Strategy::Oracle(map)
    }

    fn node() -> NodeSpec {
        NodeSpec::new(8, 8192, 16384)
    }

    #[test]
    fn all_tasks_complete() {
        let report = run_workload(&MasterConfig::new(oracle()), hep_tasks(40), 4, node());
        assert_eq!(report.task_count, 40);
        let successes = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count();
        assert_eq!(successes, 40);
        assert_eq!(report.abandoned_tasks, 0);
        assert!(report.makespan_secs > 0.0);
    }

    #[test]
    fn oracle_packs_tasks_per_worker() {
        // 8-core workers, 1-core tasks: Oracle packs 8 per worker, so 40
        // tasks on 4 workers ≈ 2 waves of execution (~110 s + staging), far
        // below the 40-wave unmanaged serial bound.
        let oracle_rep = run_workload(&MasterConfig::new(oracle()), hep_tasks(40), 4, node());
        let unmanaged_rep = run_workload(
            &MasterConfig::new(Strategy::Unmanaged),
            hep_tasks(40),
            4,
            node(),
        );
        assert!(
            unmanaged_rep.makespan_secs > 3.0 * oracle_rep.makespan_secs,
            "unmanaged {} vs oracle {}",
            unmanaged_rep.makespan_secs,
            oracle_rep.makespan_secs
        );
    }

    #[test]
    fn auto_converges_close_to_oracle() {
        let auto_rep = run_workload(
            &MasterConfig::new(Strategy::Auto(AutoConfig::default())),
            hep_tasks(160),
            4,
            node(),
        );
        let oracle_rep = run_workload(&MasterConfig::new(oracle()), hep_tasks(160), 4, node());
        assert!(
            auto_rep.makespan_secs < 1.5 * oracle_rep.makespan_secs,
            "auto {} vs oracle {}",
            auto_rep.makespan_secs,
            oracle_rep.makespan_secs
        );
        // Uniform workload: almost nothing should be retried.
        assert!(
            auto_rep.retry_fraction() <= 0.05,
            "retries {}",
            auto_rep.retry_fraction()
        );
    }

    #[test]
    fn tight_guess_triggers_retries_but_completes() {
        // Guess below the true 110 MB peak → every task gets killed once,
        // then succeeds at full size.
        let guess = Strategy::Guess(Resources::new(1, 64, 2048));
        let report = run_workload(&MasterConfig::new(guess), hep_tasks(10), 2, node());
        assert_eq!(report.retried_tasks, 10);
        assert_eq!(report.abandoned_tasks, 0);
        let successes = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count();
        assert_eq!(successes, 10);
        // Each task has a failed attempt and a successful one.
        assert_eq!(report.results.len(), 20);
    }

    #[test]
    fn env_cached_after_first_task_per_worker() {
        let report = run_workload(&MasterConfig::new(oracle()), hep_tasks(30), 3, node());
        // The env + calib are cacheable: each transfers exactly once per
        // worker (3 workers × 2 files = 6 misses); every other access —
        // whether the file is already local or still in flight — is a hit.
        assert_eq!(
            report.cache_misses, 6,
            "cacheable files must stage once per worker"
        );
        assert_eq!(report.cache_hits, 30 * 2 - 6);
        // The environment archive (240 MB) moved only 3 times.
        let env_bytes = 3 * (240u64 << 20);
        assert!(
            report.net_bytes < env_bytes + (60 << 20) * 30 + (1 << 20) * 30,
            "net bytes {} implies duplicate env transfers",
            report.net_bytes
        );
    }

    #[test]
    fn shared_fs_direct_is_slower_than_packed() {
        let packed = run_workload(
            &MasterConfig::new(oracle()).with_dist_mode(DistMode::PackedTransfer),
            hep_tasks(40),
            4,
            node(),
        );
        let direct = run_workload(
            &MasterConfig::new(oracle()).with_dist_mode(DistMode::SharedFsDirect),
            hep_tasks(40),
            4,
            node(),
        );
        assert!(
            direct.makespan_secs > packed.makespan_secs,
            "direct {} should exceed packed {}",
            direct.makespan_secs,
            packed.makespan_secs
        );
        assert!(direct.fs_md_ops > packed.fs_md_ops * 10);
    }

    #[test]
    fn more_workers_reduce_makespan() {
        let cfg = MasterConfig::new(oracle());
        let w2 = run_workload(&cfg, hep_tasks(64), 2, node());
        let w8 = run_workload(&cfg, hep_tasks(64), 8, node());
        assert!(
            w8.makespan_secs < w2.makespan_secs / 2.0,
            "2w: {} 8w: {}",
            w2.makespan_secs,
            w8.makespan_secs
        );
    }

    #[test]
    fn core_efficiency_ordering() {
        // Oracle allocates exactly what's used; Unmanaged wastes 7 of 8
        // cores per task.
        let o = run_workload(&MasterConfig::new(oracle()), hep_tasks(24), 2, node());
        let u = run_workload(
            &MasterConfig::new(Strategy::Unmanaged),
            hep_tasks(24),
            2,
            node(),
        );
        assert!(
            o.core_efficiency() > 2.0 * u.core_efficiency(),
            "oracle {} vs unmanaged {}",
            o.core_efficiency(),
            u.core_efficiency()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = MasterConfig::new(oracle()).with_seed(99);
        let a = run_workload(&cfg, hep_tasks(20), 3, node());
        let b = run_workload(&cfg, hep_tasks(20), 3, node());
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.results.len(), b.results.len());
    }

    #[test]
    fn io_interference_slows_packed_workers() {
        let quiet = run_workload(
            &MasterConfig::new(oracle()).with_io_interference(0.0),
            hep_tasks(32),
            2,
            node(),
        );
        let noisy = run_workload(
            &MasterConfig::new(oracle()).with_io_interference(0.15),
            hep_tasks(32),
            2,
            node(),
        );
        assert!(noisy.makespan_secs > quiet.makespan_secs);
    }

    #[test]
    #[should_panic(expected = "empty workload")]
    fn empty_workload_panics() {
        let _ = run_workload(&MasterConfig::new(oracle()), Vec::new(), 1, node());
    }

    #[test]
    fn dependencies_execute_in_order() {
        // A 3-stage chain per "genome": align → call → annotate.
        let mk = |id: u64, cat: &str, deps: Vec<TaskId>| {
            TaskSpec::new(
                TaskId(id),
                cat,
                vec![],
                0,
                SimTaskProfile::new(20.0, 1.0, 100, 100),
            )
            .after(deps)
        };
        let tasks = vec![
            mk(0, "align", vec![]),
            mk(1, "call", vec![TaskId(0)]),
            mk(2, "annotate", vec![TaskId(1)]),
            mk(3, "align", vec![]),
            mk(4, "call", vec![TaskId(3)]),
            mk(5, "annotate", vec![TaskId(4)]),
        ];
        let report = run_workload(&MasterConfig::new(Strategy::Unmanaged), tasks, 2, node());
        assert_eq!(report.abandoned_tasks, 0);
        let finish = |id: u64| {
            report
                .results
                .iter()
                .find(|r| r.task == TaskId(id))
                .unwrap()
                .finished_at
        };
        let start = |id: u64| {
            report
                .results
                .iter()
                .find(|r| r.task == TaskId(id))
                .unwrap()
                .started_at
        };
        for chain in [[0u64, 1, 2], [3, 4, 5]] {
            assert!(start(chain[1]) >= finish(chain[0]));
            assert!(start(chain[2]) >= finish(chain[1]));
        }
        // Two chains on two whole-node workers run concurrently: makespan is
        // about one chain's length, not both.
        assert!(report.makespan_secs < 2.0 * 3.0 * 20.0 + 30.0);
    }

    #[test]
    fn elastic_provisioning_scales_up() {
        // 64 tasks, elastic pool growing 1 -> 6 in batches of 1: the run
        // must finish and submit more pilots than the initial one.
        let cfg = MasterConfig::new(oracle()).with_provisioning(Provisioning::Elastic {
            initial: 1,
            max_workers: 6,
            batch: 1,
        });
        let report = run_workload(&cfg, hep_tasks(64), 6, node());
        assert_eq!(report.abandoned_tasks, 0);
        assert!(
            report.workers_provisioned > 1,
            "pool never grew: {}",
            report.workers_provisioned
        );
        assert!(report.workers_provisioned <= 6);
        let ok = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count();
        assert_eq!(ok, 64);
    }

    #[test]
    fn elastic_never_exceeds_cap() {
        let cfg = MasterConfig::new(oracle()).with_provisioning(Provisioning::Elastic {
            initial: 2,
            max_workers: 3,
            batch: 4, // batch larger than remaining headroom
        });
        let report = run_workload(&cfg, hep_tasks(40), 3, node());
        assert!(
            report.workers_provisioned <= 3,
            "{}",
            report.workers_provisioned
        );
        assert_eq!(report.abandoned_tasks, 0);
    }

    #[test]
    fn evicted_workers_lose_tasks_but_workflow_completes() {
        // Mean pilot lifetime shorter than the workload: evictions are
        // guaranteed; replacements keep the run alive and every task still
        // completes exactly once.
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::evicting(120.0))
            .with_seed(5);
        let report = run_workload(&cfg, hep_tasks(48), 4, node());
        assert!(report.workers_lost > 0, "expected evictions");
        assert!(report.tasks_lost > 0, "expected in-flight losses");
        assert_eq!(report.abandoned_tasks, 0);
        let ok: Vec<_> = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .collect();
        assert_eq!(ok.len(), 48, "every task completes despite churn");
        // Lost placements are not resource retries.
        assert_eq!(report.retried_tasks, 0);
        // Each task succeeds exactly once.
        let mut ids: Vec<_> = ok.iter().map(|r| r.task).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 48);
    }

    #[test]
    fn failures_cost_makespan() {
        let reliable = run_workload(
            &MasterConfig::new(oracle()).with_seed(5),
            hep_tasks(48),
            4,
            node(),
        );
        let flaky = run_workload(
            &MasterConfig::new(oracle())
                .with_faults(FaultPlan::evicting(100.0))
                .with_seed(5),
            hep_tasks(48),
            4,
            node(),
        );
        assert!(flaky.makespan_secs > reliable.makespan_secs);
        // Lost placements surface in the efficiency denominator now.
        assert!(flaky.lost_core_secs > 0.0);
        assert!(flaky.core_efficiency() < reliable.core_efficiency());
    }

    #[test]
    fn summary_json_is_complete() {
        let report = run_workload(&MasterConfig::new(oracle()), hep_tasks(8), 2, node());
        let j = report.summary_json();
        for key in [
            "strategy",
            "dist_mode",
            "makespan_s",
            "tasks",
            "retry_fraction",
            "core_efficiency",
            "cache_hits",
            "workers_provisioned",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}: {j}");
        }
        assert!(j.contains("\"strategy\":\"Oracle\""));
        assert!(j.contains("\"tasks\":8"));
    }

    #[test]
    fn utilization_timeline_tracks_packing() {
        let report = run_workload(&MasterConfig::new(oracle()), hep_tasks(16), 2, node());
        let timeline = report.utilization_timeline(5.0);
        assert!(!timeline.is_empty());
        // Peak concurrency with Oracle packing: up to 8 per 8-core worker.
        let peak_running = timeline.iter().map(|&(_, r, _)| r).max().unwrap();
        assert!(peak_running > 2, "no packing visible: peak {peak_running}");
        // Never more allocated cores than the pool has.
        assert!(timeline.iter().all(|&(_, _, c)| c <= 16));
        // First and last samples bracket the run.
        assert_eq!(timeline[0].0, 0.0);
        assert!(timeline.last().unwrap().0 <= report.makespan_secs);
    }

    #[test]
    fn schedule_policies_all_complete_and_differ() {
        // Mixed big/small memory tasks on memory-tight workers.
        let tasks: Vec<TaskSpec> = (0..30)
            .map(|i| {
                let mem = if i % 3 == 0 { 6000 } else { 1000 };
                TaskSpec::new(
                    TaskId(i),
                    if i % 3 == 0 { "big" } else { "small" },
                    vec![],
                    0,
                    SimTaskProfile::new(30.0, 1.0, mem, 100),
                )
            })
            .collect();
        let mut map = BTreeMap::new();
        map.insert("big".to_string(), Resources::new(1, 6000, 100));
        map.insert("small".to_string(), Resources::new(1, 1000, 100));
        let oracle = Strategy::Oracle(map);
        let mut spans = Vec::new();
        for policy in [
            SchedulePolicy::Fifo,
            SchedulePolicy::LargestFirst,
            SchedulePolicy::SmallestFirst,
        ] {
            let cfg = MasterConfig::new(oracle.clone()).with_policy(policy);
            let rep = run_workload(&cfg, tasks.clone(), 2, node());
            assert_eq!(rep.abandoned_tasks, 0, "{policy:?}");
            let ok = rep
                .results
                .iter()
                .filter(|r| r.outcome.is_success())
                .count();
            assert_eq!(ok, 30, "{policy:?}");
            spans.push(rep.makespan_secs);
        }
        // Policies must actually change the schedule.
        assert!(
            spans.iter().any(|&s| (s - spans[0]).abs() > 1e-9),
            "all policies produced identical makespans: {spans:?}"
        );
    }

    #[test]
    fn indexed_matches_reference_exactly() {
        // Same seed → same placement sequence → identical report, results
        // order included. The broader matrix lives in the integration suite;
        // this is the in-crate smoke check.
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_faults(FaultPlan::evicting(130.0))
            .with_seed(3);
        let reference = run_workload(
            &cfg.clone().with_sched(SchedImpl::Reference),
            hep_tasks(48),
            4,
            node(),
        );
        let indexed = run_workload(
            &cfg.clone().with_sched(SchedImpl::Indexed),
            hep_tasks(48),
            4,
            node(),
        );
        assert_eq!(reference, indexed);
    }

    /// The benchmark's `master_batch` workload (`lfm_benchmark`'s
    /// `batch_tasks`, `batch_config`, `batch_node` and its seed derivation):
    /// `n` one-core tasks in four categories sharing an environment pack
    /// and a calibration file, each with an input of its own, under Auto on
    /// 16-core nodes.
    pub(crate) fn batch_shape(n: u64, seed: u64) -> (MasterConfig, Vec<TaskSpec>, NodeSpec) {
        let derive = |salt: u64| {
            let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut rng = SimRng::seeded(derive(1));
        let env = FileRef::environment("bench-env", 100 << 20, 300 << 20, 2000, 400);
        let calib = FileRef::shared_data("bench-calib", 4 << 20);
        let tasks = (0..n)
            .map(|i| {
                let cat = i % 4;
                let duration = rng.uniform(30.0, 41.0);
                let memory = (rng.uniform(0.8, 1.0) * (300 + 50 * cat) as f64) as u64;
                TaskSpec::new(
                    TaskId(i),
                    format!("cat{cat}"),
                    vec![
                        FileRef::data(format!("in-{i}"), 64 << 10),
                        env.clone(),
                        calib.clone(),
                    ],
                    1 << 20,
                    SimTaskProfile::new(duration, 1.0, memory, 200),
                )
            })
            .collect();
        let config = MasterConfig::new(Strategy::Auto(AutoConfig::default())).with_seed(derive(2));
        (config, tasks, NodeSpec::new(16, 64 * 1024, 128 * 1024))
    }

    #[test]
    fn examinations_per_completion_are_pinned() {
        // How many attempts a run examines is decided by the wake rule
        // (every freed slot wakes every group whose allocation fits), not
        // by what an examination costs. These two counts are the baseline a
        // change to that rule is judged against.
        let examined = |n: u64, workers: u32| {
            let (config, tasks, node) = batch_shape(n, 7);
            EXAMINATIONS.with(|c| c.set(0));
            let report = run_workload(&config, tasks, workers, node);
            assert_eq!(report.results.len() as u64, n + report.retried_tasks);
            EXAMINATIONS.with(|c| c.get())
        };
        assert_eq!(examined(2_000, 10), 9_221);
        // `master_batch` itself: 4.689 examinations per completion.
        assert_eq!(examined(50_000, 256), 234_466);
    }

    #[test]
    fn a_run_resolves_no_name() {
        use crate::prepared::NAME_WORK;
        // Names are compared and copied where tasks enter — one interned
        // entry per distinct category and cacheable file, the 50 000
        // per-task input names never — and nowhere on the way to 50 000
        // completions.
        let (config, tasks, node) = batch_shape(50_000, 7);
        NAME_WORK.with(|c| c.set((0, 0)));
        let work = prepared(tasks);
        let (_, interned) = NAME_WORK.with(|c| c.get());
        assert_eq!(interned, 4 + 2, "four categories, two cacheable files");
        let mut m = Master::new(config, work, 256, node);
        let at_the_door = NAME_WORK.with(|c| c.get());
        assert_eq!(at_the_door.1, interned + 4, "the allocator's own table");
        m.start();
        while m.ledger.completed < m.work.len() {
            m.step();
        }
        assert_eq!(NAME_WORK.with(|c| c.get()), at_the_door);
        assert_eq!(m.finish().results.len(), 50_000);
    }

    #[test]
    fn results_are_reserved_for_the_tasks_a_master_owns() {
        let cfg = MasterConfig::new(oracle());
        let work = prepared(hep_tasks(40));
        let mut whole = Master::new(cfg.clone(), Arc::clone(&work), 2, node());
        assert_eq!(whole.ledger.results.capacity(), 0, "not before `start`");
        whole.start();
        assert!(whole.ledger.results.capacity() >= 40);
        // A shard reserves its partition, not the workload.
        let owner = Arc::new((0..40).map(|i| u32::from(i >= 10)).collect::<Vec<u32>>());
        let owned: Arc<[u32]> = (0..10).collect();
        let mut shard = Master::new_shard(cfg.clone(), work, 2, node(), 0, owner, owned);
        shard.start();
        assert!((10..20).contains(&shard.ledger.results.capacity()));
        // A streaming master owns nothing yet.
        let mut streaming = Master::new(cfg, prepared(Vec::new()), 2, node());
        streaming.start();
        assert_eq!(streaming.ledger.results.capacity(), 0);
    }

    #[test]
    fn eviction_scan_is_linear_in_lost_placements() {
        // Eviction must only touch the evicted worker's own placements (via
        // the per-worker index), not scan every live placement in the
        // cluster. The thread-local counter increments once per placement
        // examined during evictions; linearity means it equals tasks_lost.
        EVICT_SCANNED.with(|c| c.set(0));
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::evicting(120.0))
            .with_seed(5);
        let report = run_workload(&cfg, hep_tasks(48), 4, node());
        assert!(report.tasks_lost > 0, "expected in-flight losses");
        let scanned = EVICT_SCANNED.with(|c| c.get());
        assert_eq!(
            scanned, report.tasks_lost,
            "evict_worker examined placements on other workers"
        );
    }

    #[test]
    fn eviction_requeues_lost_placements_in_placement_order() {
        // A worker's placement list keeps no order (a completion moves the
        // last entry into the hole), but an eviction must free and requeue
        // what it loses in ascending placement id: the `Freed`/`Enqueue`
        // records are journal bytes and the front-enqueues are queue order.
        let cfg = MasterConfig::new(oracle()).with_durability(DurabilityConfig::journal_only());
        let mut m = Master::new(cfg, prepared(hep_tasks(5)), 1, node());
        m.start();
        m.step(); // the pilot starts and takes every task
        let list = &mut m.workers.get_mut(0).unwrap().placements;
        assert_eq!(
            *list,
            [0, 1, 2, 3, 4],
            "one placement per task, all on worker 0"
        );
        // The order a few completions and re-placements could leave behind.
        *list = vec![3, 0, 4, 2, 1];
        let before = m.journal.as_ref().unwrap().tail().len();
        m.evict_worker(SimTime::from_secs(1.0), 0);
        let tail = &m.journal.as_ref().unwrap().tail()[before..];
        let freed: Vec<u64> = (tail.iter())
            .filter_map(|r| match r {
                Record::Freed { placement } => Some(*placement),
                _ => None,
            })
            .collect();
        assert_eq!(freed, [0, 1, 2, 3, 4]);
        // Each loss is enqueued in front of the one before it.
        let queued: Vec<usize> = (m.sched.snapshot_pending().iter())
            .map(|p| p.task_idx)
            .collect();
        assert_eq!(queued, [4, 3, 2, 1, 0]);
        assert_eq!((m.in_flight, m.ledger.placements.len()), (0, 0));
    }

    #[test]
    fn stale_events_for_absent_workers_are_dropped() {
        // What the calendar can still deliver about a worker that is not in
        // the table: a `WorkerDown` for an id that never started or is
        // already gone, the completions of placements lost with an evicted
        // worker, and the quarantine release of a worker evicted while
        // quarantined.
        let cfg = MasterConfig::new(oracle()).with_resilience(ResilienceConfig {
            quarantine_threshold: Some(1),
            ..ResilienceConfig::default()
        });
        let mut m = Master::new(cfg, prepared(hep_tasks(12)), 2, node());
        m.start();
        m.step();
        m.step(); // both pilots up: eight tasks on worker 0, four on worker 1
        assert_eq!(m.workers.get(0).unwrap().placements.len(), 8);
        let t = SimTime::from_secs(1.0);
        m.note_worker_fault(t, 0);
        assert!(m.workers.get(0).unwrap().quarantined);
        for id in [0, 0, 7, 4096] {
            m.handle_event(t, Event::WorkerDown { id });
        }
        assert!(m.workers.get(0).is_none() && m.workers.get(7).is_none());
        assert_eq!(m.ledger.counters.workers_lost, 1);
        assert_eq!(m.ledger.counters.tasks_lost, 8);
        // The eight stale `TaskDone`s and the `QuarantineRelease` pop as the
        // run drains on worker 1.
        while m.ledger.completed < 12 {
            m.step();
        }
        let report = m.finish();
        assert_eq!(distinct_successes(&report), 12);
        assert_eq!((report.abandoned_tasks, report.tasks_lost), (0, 8));
        assert_eq!(report.quarantines, 1);
    }

    #[test]
    fn disabled_recorder_builds_nothing_and_enabled_trace_is_pinned() {
        use lfm_pyenv::pack::fnv1a;
        let work = Arc::new(PreparedWorkload::new(hep_tasks(2000)));
        let run = |tel: Recorder| {
            let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                .with_telemetry(tel)
                .with_seed(7);
            run_prepared(&cfg, &work, 16, node())
        };
        // A recorder that keeps nothing must not be handed descriptions of
        // what it will not keep, nor have a category name resolved for it.
        BUILDERS.with(|c| c.set(0));
        let off = run(Recorder::disabled());
        assert_eq!(BUILDERS.with(|c| c.get()), 0);
        assert!(work.cat_attrs.iter().all(|name| name.get().is_none()));
        let tel = Recorder::enabled();
        let on = run(tel.clone());
        assert!(BUILDERS.with(|c| c.get()) > 4 * 2000);
        assert_eq!(off, on, "recording is observational");
        // The trace itself, names resolved: length and FNV-1a computed at
        // the commit before the per-attempt blocks were gated.
        assert_eq!(tel.dropped(), 0);
        let trace = lfm_telemetry::export::jsonl(&tel.take());
        assert_eq!(
            (trace.len(), fnv1a(trace.as_bytes())),
            (3_751_854, 0x750c_ddcd_8116_ac3f),
            "the enabled-recorder trace moved"
        );
    }

    /// Distinct successful task ids; asserts no task completed twice.
    fn distinct_successes(report: &RunReport) -> usize {
        let mut ids: Vec<_> = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .map(|r| r.task)
            .collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "a task completed more than once");
        ids.len()
    }

    #[test]
    fn lost_results_are_reclaimed_by_leases() {
        use crate::faults::FaultSpec;
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::message_loss(0.15)))
            .with_seed(11);
        let report = run_workload(&cfg, hep_tasks(30), 3, node());
        assert!(
            report.result_messages_lost > 0 || report.stage_in_failures > 0,
            "loss at p=0.15 must hit something"
        );
        assert_eq!(report.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&report), 30);
        if report.result_messages_lost > 0 {
            // Every zombie placement must have been reclaimed by its lease.
            assert!(report.lease_reclaims > 0, "zombies never reclaimed");
            assert!(report.lost_core_secs > 0.0);
        }
        // Infra recovery is not a resource retry.
        assert_eq!(report.retried_tasks, 0);
        assert!(report.infra_retried_tasks > 0);
    }

    #[test]
    fn spurious_kills_retry_on_the_infra_path() {
        use crate::faults::FaultSpec;
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::spurious_kill(0.3)))
            .with_seed(2);
        let report = run_workload(&cfg, hep_tasks(40), 4, node());
        assert!(report.spurious_kills > 0, "p=0.3 over 40 tasks must fire");
        // Spurious kills are infrastructure noise: no resource retries, no
        // abandoned tasks, and every task still succeeds exactly once.
        assert_eq!(report.retried_tasks, 0);
        assert_eq!(report.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&report), 40);
        // The killed attempts are in the log, distinguishable from real
        // limit kills.
        let spurious_logged = report
            .results
            .iter()
            .filter(|r| r.outcome.is_spurious_kill())
            .count() as u64;
        assert_eq!(spurious_logged, report.spurious_kills);
        assert!(!report.results.iter().any(|r| r.outcome.is_limit_exceeded()));
    }

    #[test]
    fn repeated_env_failures_degrade_to_shared_fs() {
        use crate::faults::FaultSpec;
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::unpack_disk_full(1.0)))
            .with_seed(7);
        let report = run_workload(&cfg, hep_tasks(20), 2, node());
        // Packed-env staging can never succeed; the master must fall back
        // to shared-FS imports and still finish everything.
        assert!(report.degraded_to_shared_fs, "never degraded");
        assert_eq!(report.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&report), 20);
        assert!(
            report.stage_in_failures >= 6,
            "{}",
            report.stage_in_failures
        );
        // The configured mode is still reported; degradation is its own
        // flag.
        assert_eq!(report.dist_mode, DistMode::PackedTransfer);
    }

    #[test]
    fn flaky_staging_triggers_quarantine_and_backoff() {
        use crate::faults::FaultSpec;
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::stage_in_failure(0.4)))
            .with_seed(3);
        let report = run_workload(&cfg, hep_tasks(40), 4, node());
        assert!(report.stage_in_failures > 0);
        assert!(report.quarantines > 0, "threshold 3 at p=0.4 must trip");
        assert_eq!(report.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&report), 40);
        assert!(report.lost_core_secs > 0.0);
    }

    #[test]
    fn straggler_placements_are_reclaimed_and_rerun() {
        use crate::faults::FaultSpec;
        // Half the workers run 6-10x slow; the lease (4x nominal) reclaims
        // their placements and the retries land on healthy workers.
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::straggler(0.5, 6.0, 10.0)))
            .with_seed(4);
        let report = run_workload(&cfg, hep_tasks(24), 4, node());
        assert!(report.lease_reclaims > 0, "stragglers never reclaimed");
        assert_eq!(report.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&report), 24);
    }

    #[test]
    fn grouped_config_setters() {
        assert!(!FaultPlan::reliable().is_active());
        let plan = FaultPlan::evicting(250.0);
        assert!(plan.is_active());
        assert_eq!(plan.specs().len(), 1);
        // Grouped setters write through to the nested configs.
        let cfg = MasterConfig::new(oracle())
            .with_dist_mode(DistMode::SharedFsDirect)
            .with_io_interference(0.2)
            .with_resilience(ResilienceConfig::naive_retry())
            .with_staging(StagingConfig {
                io_interference: 0.1,
                ..StagingConfig::default()
            });
        // with_staging replaced the whole group, including the earlier
        // io_interference and dist_mode writes.
        assert_eq!(cfg.staging.dist_mode, DistMode::PackedTransfer);
        assert_eq!(cfg.staging.io_interference, 0.1);
        assert!(cfg.resilience.quarantine_threshold.is_none());
    }

    #[test]
    fn quarantine_release_rejoins_pool_exactly_once() {
        // Regression: a timed release must restore the worker's capacity to
        // the pool and the capacity index exactly once — a duplicate release
        // event (e.g. re-armed after a recovery) must be a no-op.
        let cfg = MasterConfig::new(oracle()).with_resilience(ResilienceConfig {
            quarantine_threshold: Some(1),
            ..ResilienceConfig::default()
        });
        let mut m = Master::new(cfg, prepared(hep_tasks(1)), 1, node());
        m.handle_event(SimTime::ZERO, Event::WorkerUp { id: 0 });
        let full = m.free_cores;
        assert_eq!(full, 8);
        m.note_worker_fault(SimTime::from_secs(1.0), 0);
        assert!(
            m.workers.get(0).unwrap().quarantined,
            "threshold 1 must quarantine"
        );
        assert_eq!(m.free_cores, 0, "capacity withdrawn from the pool");
        assert_eq!(m.ledger.quarantined_until.len(), 1);
        m.release_quarantine(SimTime::from_secs(2.0), 0);
        assert!(!m.workers.get(0).unwrap().quarantined);
        assert_eq!(
            m.workers.get(0).unwrap().infra_failures,
            0,
            "flakiness score reset"
        );
        assert_eq!(m.free_cores, full, "capacity restored");
        assert!(m.ledger.quarantined_until.is_empty());
        // The duplicate release: nothing may be added twice.
        m.release_quarantine(SimTime::from_secs(3.0), 0);
        assert_eq!(m.free_cores, full, "double release re-added capacity");
        // Placements resume on the released worker.
        m.enqueue_back(Pending {
            task_idx: 0,
            attempt: 0,
            since: SimTime::from_secs(3.0),
        });
        m.dispatch(SimTime::from_secs(3.0));
        assert_eq!(m.ledger.placements.len(), 1, "released worker unused");
        assert_eq!(m.ledger.placements.iter().next().unwrap().1.worker, 0);
    }

    #[test]
    fn allocator_labels_survive_snapshot_restore() {
        // AC3: the learned first-allocation labels are the paper's core
        // asset — a snapshot→restore cycle must reproduce the sample stores
        // (and therefore the labels) exactly, not re-pay exploration.
        let mut m = Master::new(
            MasterConfig::new(Strategy::Auto(AutoConfig::default())),
            prepared(hep_tasks(4)),
            1,
            node(),
        );
        for mem in [100u64, 104, 108, 112, 120] {
            let rep = lfm_monitor::report::ResourceReport {
                peak_cores: 1.0,
                peak_rss_mb: mem,
                peak_disk_mb: 900,
                cpu_secs: 50.0,
                wall_secs: 55.0,
                ..Default::default()
            };
            m.allocator.observe("hep", &rep, true);
        }
        let cap = node().resources;
        let label = m.allocator.peek_decision("hep", &cap);
        assert!(
            matches!(label, AllocationDecision::Sized(_)),
            "5 samples must label"
        );
        let stats = m.allocator.snapshot_category("hep").expect("stats");
        let img = m.snapshot_image();
        m.restore_from_image(img, SimTime::ZERO);
        assert_eq!(
            m.allocator.snapshot_category("hep").expect("stats"),
            stats,
            "sample stores diverged across restore"
        );
        assert_eq!(
            m.allocator.peek_decision("hep", &cap),
            label,
            "label diverged across restore"
        );
    }

    #[test]
    fn restore_lands_every_category_on_its_own_id() {
        // The per-task path calls the allocator by category *id*, so a
        // restored allocator must know every category under the workload's
        // id again — also one the image carries no sample of.
        let profile = SimTaskProfile::new(50.0, 1.0, 100, 900);
        let tasks = (["hep", "drug", "idle", "genomic"].iter().enumerate())
            .map(|(i, cat)| TaskSpec::new(TaskId(i as u64), *cat, vec![], 0, profile))
            .collect();
        let mut m = Master::new(
            MasterConfig::new(Strategy::Auto(AutoConfig::default())),
            prepared(tasks),
            1,
            node(),
        );
        let rep = |mem: u64| lfm_monitor::report::ResourceReport {
            peak_cores: 1.0,
            peak_rss_mb: mem,
            peak_disk_mb: 900,
            ..Default::default()
        };
        let cap = node().resources;
        // Observed out of id order; `idle` (id 2) never.
        for (cat, mem) in [
            (3u32, 700u64),
            (0, 100),
            (3, 720),
            (1, 300),
            (0, 104),
            (1, 310),
        ] {
            m.allocator
                .observe_outcome_notify_id(cat, &rep(mem), true, None, &cap);
        }
        let names = m.work.cat_names.clone();
        let before: Vec<_> = (names.iter())
            .map(|n| {
                (
                    m.allocator.snapshot_category(n),
                    m.allocator.peek_decision(n, &cap),
                )
            })
            .collect();
        let img = m.snapshot_image();
        assert_eq!(
            img.alloc_stats[2],
            CategorySnap::default(),
            "never observed"
        );
        m.restore_from_image(img, SimTime::ZERO);
        for (cat, name) in names.iter().enumerate() {
            assert_eq!(m.allocator.intern(name), cat as u32, "{name}");
            assert_eq!(
                (
                    m.allocator.snapshot_category(name),
                    m.allocator.peek_decision(name, &cap)
                ),
                before[cat],
                "{name}"
            );
            // The id-keyed read is the by-name read.
            assert_eq!(
                m.allocator.concurrency_cap_id(cat as u32),
                m.allocator.concurrency_cap(name)
            );
        }
        assert_eq!(
            m.allocator.decide_id(2, 0, &cap),
            AllocationDecision::WholeWorker
        );
        assert!(
            matches!(m.allocator.decide_id(3, 0, &cap), AllocationDecision::Sized(r) if r.memory_mb >= 720)
        );
    }

    #[test]
    fn probe_restore_is_bitwise_invisible() {
        // AC1: snapshot → encode → decode → restore at a quiescent point
        // must leave the run bitwise-identical to one that never restored,
        // for both scheduler implementations, with and without faults.
        for sched in [SchedImpl::Reference, SchedImpl::Indexed] {
            for plan in [FaultPlan::reliable(), FaultPlan::evicting(150.0)] {
                let plain_cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                    .with_faults(plan.clone())
                    .with_sched(sched)
                    .with_seed(13)
                    .with_durability(DurabilityConfig::journal_only());
                let probed_cfg = plain_cfg.clone().with_durability(DurabilityConfig {
                    probe_restore_at: Some(40),
                    ..DurabilityConfig::journal_only()
                });
                let plain = run_workload(&plain_cfg, hep_tasks(48), 4, node());
                let probed = run_workload(&probed_cfg, hep_tasks(48), 4, node());
                assert_eq!(plain, probed, "{sched:?} under {plan:?}");
            }
        }
    }

    #[test]
    fn journaled_recovery_conserves_tasks_and_matches_across_scheds() {
        use crate::faults::FaultSpec;
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(12.0, 3)))
            .with_durability(DurabilityConfig::journal_with_snapshots(64))
            .with_seed(21);
        let reference = run_workload(
            &cfg.clone().with_sched(SchedImpl::Reference),
            hep_tasks(48),
            4,
            node(),
        );
        let indexed = run_workload(
            &cfg.clone().with_sched(SchedImpl::Indexed),
            hep_tasks(48),
            4,
            node(),
        );
        // Journals are written at placement-identical points, so recovery
        // lands both implementations in the same state.
        assert_eq!(reference, indexed);
        assert!(reference.master_crashes > 0, "crash points never fired");
        assert_eq!(reference.recoveries, reference.master_crashes);
        assert!(reference.journal_bytes > 0);
        // Conservation: every task succeeds exactly once.
        assert_eq!(reference.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&reference), 48);
    }

    #[test]
    fn zero_snapshot_interval_runs_as_interval_one() {
        // The struct literal bypasses `journal_with_snapshots`' check. Read
        // as written, an interval of 0 asked for an image after every event
        // whether or not it had journaled a record.
        use crate::faults::FaultSpec;
        let run = |every| {
            let durability = DurabilityConfig {
                snapshot_every: Some(every),
                ..DurabilityConfig::journal_only()
            };
            let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(12.0, 3)))
                .with_durability(durability)
                .with_seed(21);
            run_workload(&cfg, hep_tasks(48), 4, node())
        };
        let zero = run(0);
        assert!(zero.recoveries > 0, "crash points never fired");
        assert_eq!(zero, run(1));
    }

    #[test]
    fn crash_without_journal_is_a_full_restart() {
        use crate::faults::FaultSpec;
        let crash_plan = FaultPlan::reliable().with(FaultSpec::master_crash(12.0, 1));
        let base = MasterConfig::new(oracle()).with_seed(9);
        let no_crash = run_workload(&base, hep_tasks(40), 4, node());
        let restarted = run_workload(
            &base.clone().with_faults(crash_plan.clone()),
            hep_tasks(40),
            4,
            node(),
        );
        assert!(restarted.master_crashes > 0, "crash point never fired");
        assert_eq!(restarted.recoveries, 0, "no journal, no recovery");
        assert_eq!(restarted.journal_bytes, 0);
        // The restarted run still finishes everything exactly once (the
        // pre-crash results were wiped with the rest of the master state),
        // but re-pays the lost work.
        assert_eq!(distinct_successes(&restarted), 40);
        assert!(
            restarted.makespan_secs > no_crash.makespan_secs,
            "restart {} must cost more than uninterrupted {}",
            restarted.makespan_secs,
            no_crash.makespan_secs
        );
        // A journaled master recovers in place: strictly less rework.
        let journaled = run_workload(
            &base
                .clone()
                .with_faults(crash_plan)
                .with_durability(DurabilityConfig::journal_with_snapshots(64)),
            hep_tasks(40),
            4,
            node(),
        );
        assert_eq!(journaled.recoveries, 1);
        assert!(
            journaled.makespan_secs < restarted.makespan_secs,
            "journaled {} must beat full restart {}",
            journaled.makespan_secs,
            restarted.makespan_secs
        );

        // What a full restart keeps: the ledger starts over except for what
        // describes the world rather than the run. Placement ids keep
        // counting — a completion in flight across the restart must find
        // its id dead, never reissued to a new attempt — and the workers and
        // core-seconds lost before the crash stay on the report.
        let churned = base.with_faults(
            FaultPlan::reliable()
                .with(FaultSpec::master_crash(40.0, 1))
                .with(FaultSpec::worker_churn(60.0)),
        );
        let mut m = Master::new(churned, prepared(hep_tasks(40)), 4, node());
        m.start();
        let mut before = m.ledger.clone();
        while m.master_crashes == 0 {
            before = m.ledger.clone();
            m.step();
        }
        assert!(before.counters.workers_lost > 0 && before.counters.lost_core_secs > 0.0);
        assert!(before.placements.len() > 0 && !before.results.is_empty());
        let fence = m.ledger.next_placement;
        assert!(before.placements.iter().all(|(id, _)| id < fence));
        assert!(m.ledger.counters.workers_lost >= before.counters.workers_lost);
        assert!(m.ledger.counters.lost_core_secs >= before.counters.lost_core_secs);
        assert!(m.ledger.counters.workers_provisioned >= before.counters.workers_provisioned);
        // Everything about the run itself is gone.
        assert!(m.ledger.placements.len() == 0 && m.ledger.results.is_empty());
        assert_eq!((m.ledger.completed, m.ledger.abandoned), (0, 0));
        while m.ledger.completed < m.work.len() {
            m.step();
            assert!(
                m.ledger.placements.iter().all(|(id, _)| id >= fence),
                "a pre-restart placement id was reissued"
            );
        }
        let report = m.finish();
        assert_eq!(distinct_successes(&report), 40);
        assert!(report.workers_lost >= before.counters.workers_lost);
    }

    #[test]
    fn cancelled_dependent_is_abandoned_once() {
        // Task 3 depends on 0, 1 and 2. Task 0 is abandoned first (3 is
        // cancelled with it), then 1 succeeds, then 2 is abandoned. The
        // success in between must leave 3 cancelled, or 2's failure cancels
        // it — and counts it — a second time.
        let task = |id: u64, secs: f64, memory_mb: u64, deps: Vec<u64>| {
            let profile = SimTaskProfile::new(secs, 1.0, memory_mb, 10);
            TaskSpec::new(TaskId(id), "x", vec![], 0, profile)
                .after(deps.into_iter().map(TaskId).collect())
        };
        // 900 MB against a 100 MB guess is killed a few percent into the
        // memory ramp: at 2.5 s for task 0, at 247 s for task 2.
        let tasks = vec![
            task(0, 10.0, 900, vec![]),
            task(1, 30.0, 50, vec![]),
            task(2, 100_000.0, 900, vec![]),
            task(3, 5.0, 50, vec![0, 1, 2]),
        ];
        let cfg = MasterConfig::new(Strategy::Guess(Resources::new(1, 100, 100))).with_resilience(
            ResilienceConfig {
                max_attempts: 1,
                ..ResilienceConfig::default()
            },
        );
        let report = run_workload(&cfg, tasks, 1, node());
        assert_eq!(distinct_successes(&report), 1);
        assert_eq!(report.abandoned_tasks, 3, "successes + abandoned == 4");
    }

    #[test]
    fn duplicate_ids_rejected() {
        let t = TaskSpec::new(
            TaskId(7),
            "x",
            vec![],
            0,
            SimTaskProfile::new(1.0, 1.0, 1, 1),
        );
        let result = std::panic::catch_unwind(|| {
            run_workload(
                &MasterConfig::new(Strategy::Unmanaged),
                vec![t.clone(), t],
                1,
                node(),
            )
        });
        assert!(result.is_err());
    }
}
