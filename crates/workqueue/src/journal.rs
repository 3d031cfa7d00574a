//! Write-ahead journal and compacting snapshots for the durable master.
//!
//! The master is a single point of failure: worker churn, lost messages,
//! and staging faults are all survivable (PR 4), but losing the master
//! loses the run — including the converged allocator labels the paper's
//! automatic allocation spent a whole exploration phase learning. This
//! module makes the master's *logical* state durable:
//!
//! * **Records** — every state-changing transition appends one `Record`
//!   to the journal: task (re-)enqueues, placements, attempt outcomes,
//!   allocator observations, quarantine entries/releases, degradation, and
//!   plain counter bumps. Records are written at placement-identical points,
//!   so the Reference and Indexed schedulers produce byte-identical
//!   journals — the equivalence suites pin recovery for free.
//! * **The ledger** — a `Ledger` is the one home of the master's journaled
//!   plain data (dependency countdowns, live placements with lease
//!   deadlines, result rows, retry sets, backoff and quarantine timers,
//!   report counters), and `Ledger::apply` is the one place that says what
//!   a record does to it. The live master and journal replay both go
//!   through it, so live ≡ replay holds by construction.
//! * **Snapshots** — a `MasterImage` is the ledger plus the three views
//!   whose live form is an index or lives in another module (pending queue
//!   in examination order, allocator sample stores, per-worker fault
//!   counts). Installing an image compacts the journal: recovery replays
//!   only the record tail written since. The journal keeps images as a
//!   chain of encoded segments — one *full* image, then *delta* images that
//!   carry what their record tail changed — so a compaction costs the tail,
//!   not the run; the chain rebases onto a new full image once its deltas
//!   outweigh the old one.
//! * **Recovery** — `image = decode(full) ⊕ deltas ⊕ replay(tail)`, from
//!   the encoded bytes and the tail alone, then the master rebuilds either
//!   scheduler implementation from the image. World state (workers, caches,
//!   the shared filesystem, the network, in-flight completions) survives a
//!   master crash by definition — only the coordinator's memory is lost.
//!
//! Everything is encoded with a small hand-rolled little-endian binary
//! format (the vendored serde is a stub): `u8` tags, fixed-width LE
//! integers, `f64` as raw bits (exact round-trip), and length-prefixed
//! strings. See DESIGN.md §5e for the format and the recovery invariants.

use crate::allocate::censored_samples;
use crate::files::{FileKind, FileRef};
use crate::prepared::PreparedWorkload;
use crate::sched::Pending;
use crate::task::{TaskId, TaskResult, TaskSpec};
use lfm_monitor::report::{MonitorOutcome, ResourceKind, ResourceReport};
use lfm_monitor::sim::SimTaskProfile;
use lfm_simcluster::node::Resources;
use lfm_simcluster::time::SimTime;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Durability knobs for the master. Defaults to journaling off — a
/// fault-free run writes no journal and behaves bit-identically to the
/// pre-durability master.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityConfig {
    /// Append a write-ahead record per state-changing event. Without a
    /// journal a master crash is a full restart: the run starts over and
    /// every pre-crash completion is lost (the bench baseline).
    pub journal: bool,
    /// Install a compacting snapshot every this many journal records.
    /// `None` never snapshots: recovery replays the whole journal.
    pub snapshot_every: Option<u64>,
    /// Fixed downtime per master crash (process restart, reconnects).
    pub restart_secs: f64,
    /// Additional downtime per replayed journal record — what snapshot
    /// compaction buys down.
    pub replay_secs_per_event: f64,
    /// Test hook: at the first quiescent point (no live placements) at or
    /// after this many processed events, snapshot → wipe → restore the
    /// master through the full encode/decode path and keep running. Used by
    /// the recovery-equivalence suites to pin that a restored master is
    /// bitwise-indistinguishable from an uninterrupted one.
    pub probe_restore_at: Option<u64>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            journal: false,
            snapshot_every: None,
            restart_secs: 5.0,
            replay_secs_per_event: 1e-3,
            probe_restore_at: None,
        }
    }
}

impl DurabilityConfig {
    /// No durability at all: a crash is a full restart (the default).
    pub fn none() -> Self {
        DurabilityConfig::default()
    }

    /// Write-ahead journal without snapshots: recovery replays every record
    /// since run start.
    pub fn journal_only() -> Self {
        DurabilityConfig {
            journal: true,
            ..DurabilityConfig::default()
        }
    }

    /// Journal plus a compacting snapshot every `every` records.
    pub fn journal_with_snapshots(every: u64) -> Self {
        assert!(every > 0, "snapshot interval must be positive");
        DurabilityConfig {
            journal: true,
            snapshot_every: Some(every),
            ..DurabilityConfig::default()
        }
    }
}

/// Report counters that journal as plain deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CounterKey {
    WorkersProvisioned,
    WorkersLost,
    TasksLost,
    LeaseReclaims,
    StageInFailures,
    SpuriousKills,
    ResultMsgsLost,
    LostCoreSecs,
}

impl CounterKey {
    fn tag(self) -> u8 {
        match self {
            CounterKey::WorkersProvisioned => 0,
            CounterKey::WorkersLost => 1,
            CounterKey::TasksLost => 2,
            CounterKey::LeaseReclaims => 3,
            CounterKey::StageInFailures => 4,
            CounterKey::SpuriousKills => 5,
            CounterKey::ResultMsgsLost => 6,
            CounterKey::LostCoreSecs => 7,
        }
    }

    fn from_tag(t: u8) -> Result<Self, JournalError> {
        Ok(match t {
            0 => CounterKey::WorkersProvisioned,
            1 => CounterKey::WorkersLost,
            2 => CounterKey::TasksLost,
            3 => CounterKey::LeaseReclaims,
            4 => CounterKey::StageInFailures,
            5 => CounterKey::SpuriousKills,
            6 => CounterKey::ResultMsgsLost,
            7 => CounterKey::LostCoreSecs,
            _ => return Err(JournalError::BadTag("counter", t)),
        })
    }
}

/// One write-ahead record. Each variant is exactly one state-changing
/// transition in the master; [`Ledger::apply`] says what it does, for the
/// live master and for replay alike.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Record {
    /// Journal header: sanity-checks that a journal is replayed against the
    /// run that wrote it.
    RunStart {
        seed: u64,
        task_count: u64,
        worker_count: u32,
    },
    /// A task attempt entered the pending queue (front or back). Replaying
    /// an enqueue also retires any armed backoff timer for the same
    /// attempt: the timer fired.
    Enqueue {
        task_idx: u64,
        attempt: u32,
        front: bool,
        since: SimTime,
    },
    /// A backed-off infra requeue was armed to fire at `at`.
    BackoffArm {
        task_idx: u64,
        attempt: u32,
        at: SimTime,
    },
    /// An attempt was placed on a worker; `lease_at` is the absolute lease
    /// deadline (None when leases are unarmed).
    Placed {
        placement: u64,
        worker: u32,
        task_idx: u64,
        attempt: u32,
        alloc: Resources,
        started_at: SimTime,
        lease_at: Option<SimTime>,
    },
    /// A live placement turned zombie (its result message was lost).
    Zombie { placement: u64 },
    /// A placement left the live set (completion, lease reclaim, eviction).
    Freed { placement: u64 },
    /// An attempt produced a result row.
    Result(Box<TaskResult>),
    /// A task finished for good: success releases dependents, failure
    /// leaves them to the `Cancelled` records that follow.
    Finished { task_idx: u64, success: bool },
    /// A task was abandoned (retry or infra budget exhausted).
    Abandoned { task_idx: u64 },
    /// A downstream task was transitively cancelled.
    Cancelled { task_idx: u64 },
    /// The allocator observed an attempt's measured usage — the raw inputs
    /// of `Allocator::observe_outcome`, so replay reproduces the sample
    /// stores (and therefore the learned labels) exactly.
    Observe {
        cat: u32,
        peak_cores: f64,
        peak_rss_mb: u64,
        peak_disk_mb: u64,
        completed: bool,
        violated: Option<ResourceKind>,
    },
    /// A task consumed a resource-limit retry.
    Retried { task_idx: u64 },
    /// A task consumed an infrastructure retry; `count` is its new total.
    InfraRetried { task_idx: u64, count: u32 },
    /// A category's backoff streak moved.
    Streak { cat: u32, value: u32 },
    /// A worker's infra-failure attribution count moved.
    WorkerFault { worker: u32, count: u32 },
    /// A worker entered quarantine until `release_at`.
    Quarantined { worker: u32, release_at: SimTime },
    /// A worker left quarantine (timed release).
    QuarantineLifted { worker: u32 },
    /// The packed-env failure counter moved.
    EnvFailure { count: u32 },
    /// Packed-env distribution degraded to the shared FS for good.
    Degraded,
    /// A plain report-counter delta.
    Counter { key: CounterKey, amount: f64 },
    /// A queued first attempt migrated to another shard (federation work
    /// stealing): replay removes it from the pending queue so recovery
    /// cannot resurrect it here.
    Stolen { task_idx: u64, attempt: u32 },
    /// A dependency of `task_idx` completed on another shard: replay
    /// decrements its remaining-dependency count (the matching `Enqueue`
    /// follows when the count reaches zero).
    RemoteDep { task_idx: u64 },
    /// A streamed task was admitted mid-run (`Event::Submit`). The full spec
    /// travels in the record so replay can re-grow the per-task state vectors
    /// (and intern a brand-new category at index `cat`) exactly as the live
    /// master did; the `Enqueue` for the fresh attempt follows immediately.
    /// A master without a journal commits it with no spec: nothing would
    /// keep the copy.
    Submitted {
        task_idx: u64,
        cat: u32,
        spec: Option<Box<TaskSpec>>,
    },
}

/// Why a journal or snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JournalError {
    /// Ran out of bytes mid-record.
    Truncated,
    /// An unknown tag byte for the named field.
    BadTag(&'static str, u8),
    /// A length-prefixed string was not UTF-8.
    BadString,
    /// A delta image does not fit the image it extends, in the named field.
    Inconsistent(&'static str),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Truncated => write!(f, "journal truncated mid-record"),
            JournalError::BadTag(what, t) => write!(f, "bad {what} tag byte {t:#x}"),
            JournalError::BadString => write!(f, "journal string is not UTF-8"),
            JournalError::Inconsistent(what) => {
                write!(f, "delta image does not fit its base: {what}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

// ---- encoding primitives ----

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_time(out: &mut Vec<u8>, t: SimTime) {
    put_f64(out, t.as_secs());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_resources(out: &mut Vec<u8>, r: &Resources) {
    put_u32(out, r.cores);
    put_u64(out, r.memory_mb);
    put_u64(out, r.disk_mb);
}

/// A little-endian byte reader over an encoded journal/snapshot.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let end = self.pos.checked_add(n).ok_or(JournalError::Truncated)?;
        if end > self.buf.len() {
            return Err(JournalError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, JournalError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, JournalError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, JournalError> {
        Ok(self.u8()? != 0)
    }

    fn time(&mut self) -> Result<SimTime, JournalError> {
        let secs = self.f64()?;
        if !(secs.is_finite() && secs >= 0.0) {
            return Err(JournalError::BadTag("sim-time", 0));
        }
        Ok(SimTime::from_secs(secs))
    }

    fn string(&mut self) -> Result<String, JournalError> {
        let len = self.u64()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| JournalError::BadString)
    }

    fn resources(&mut self) -> Result<Resources, JournalError> {
        let cores = self.u32()?;
        let memory_mb = self.u64()?;
        let disk_mb = self.u64()?;
        Ok(Resources::new(cores, memory_mb, disk_mb))
    }
}

fn put_resource_kind(out: &mut Vec<u8>, k: Option<ResourceKind>) {
    put_u8(
        out,
        match k {
            None => 0,
            Some(ResourceKind::Cores) => 1,
            Some(ResourceKind::Memory) => 2,
            Some(ResourceKind::Disk) => 3,
            Some(ResourceKind::WallTime) => 4,
        },
    );
}

fn read_resource_kind(r: &mut Reader<'_>) -> Result<Option<ResourceKind>, JournalError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(ResourceKind::Cores),
        2 => Some(ResourceKind::Memory),
        3 => Some(ResourceKind::Disk),
        4 => Some(ResourceKind::WallTime),
        t => return Err(JournalError::BadTag("resource-kind", t)),
    })
}

fn put_lease(out: &mut Vec<u8>, lease_at: Option<SimTime>) {
    match lease_at {
        None => put_u8(out, 0),
        Some(t) => {
            put_u8(out, 1);
            put_time(out, t);
        }
    }
}

fn read_lease(r: &mut Reader<'_>) -> Result<Option<SimTime>, JournalError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.time()?)),
        t => Err(JournalError::BadTag("lease-at", t)),
    }
}

fn put_report(out: &mut Vec<u8>, r: &ResourceReport) {
    put_f64(out, r.wall_secs);
    put_f64(out, r.cpu_secs);
    put_f64(out, r.peak_cores);
    put_u64(out, r.peak_rss_mb);
    put_u32(out, r.peak_processes);
    put_u64(out, r.peak_disk_mb);
    put_u64(out, r.read_bytes);
    put_u64(out, r.write_bytes);
    put_u64(out, r.polls);
    put_f64(out, r.monitor_overhead_secs);
}

fn read_report(r: &mut Reader<'_>) -> Result<ResourceReport, JournalError> {
    Ok(ResourceReport {
        wall_secs: r.f64()?,
        cpu_secs: r.f64()?,
        peak_cores: r.f64()?,
        peak_rss_mb: r.u64()?,
        peak_processes: r.u32()?,
        peak_disk_mb: r.u64()?,
        read_bytes: r.u64()?,
        write_bytes: r.u64()?,
        polls: r.u64()?,
        monitor_overhead_secs: r.f64()?,
    })
}

fn put_outcome(out: &mut Vec<u8>, o: &MonitorOutcome) {
    match o {
        MonitorOutcome::Completed(rep) => {
            put_u8(out, 0);
            put_report(out, rep);
        }
        MonitorOutcome::LimitExceeded { kind, report } => {
            put_u8(out, 1);
            put_resource_kind(out, Some(*kind));
            put_report(out, report);
        }
        MonitorOutcome::SpuriousKill { report } => {
            put_u8(out, 2);
            put_report(out, report);
        }
        MonitorOutcome::Failed { exit_code, report } => {
            put_u8(out, 3);
            put_i32(out, *exit_code);
            put_report(out, report);
        }
    }
}

fn read_outcome(r: &mut Reader<'_>) -> Result<MonitorOutcome, JournalError> {
    Ok(match r.u8()? {
        0 => MonitorOutcome::Completed(read_report(r)?),
        1 => {
            let kind =
                read_resource_kind(r)?.ok_or(JournalError::BadTag("limit-exceeded-kind", 0))?;
            MonitorOutcome::LimitExceeded {
                kind,
                report: read_report(r)?,
            }
        }
        2 => MonitorOutcome::SpuriousKill {
            report: read_report(r)?,
        },
        3 => MonitorOutcome::Failed {
            exit_code: r.i32()?,
            report: read_report(r)?,
        },
        t => return Err(JournalError::BadTag("monitor-outcome", t)),
    })
}

fn put_result(out: &mut Vec<u8>, tr: &TaskResult) {
    put_u64(out, tr.task.0);
    put_str(out, &tr.category);
    put_u32(out, tr.worker);
    put_resources(out, &tr.allocated);
    put_time(out, tr.submitted_at);
    put_time(out, tr.started_at);
    put_time(out, tr.finished_at);
    put_f64(out, tr.stage_in_secs);
    put_f64(out, tr.exec_secs);
    put_outcome(out, &tr.outcome);
    put_u32(out, tr.attempt);
}

fn read_result(r: &mut Reader<'_>) -> Result<TaskResult, JournalError> {
    Ok(TaskResult {
        task: TaskId(r.u64()?),
        category: r.string()?,
        worker: r.u32()?,
        allocated: r.resources()?,
        submitted_at: r.time()?,
        started_at: r.time()?,
        finished_at: r.time()?,
        stage_in_secs: r.f64()?,
        exec_secs: r.f64()?,
        outcome: read_outcome(r)?,
        attempt: r.u32()?,
    })
}

fn put_file_ref(out: &mut Vec<u8>, f: &FileRef) {
    put_str(out, &f.name);
    put_u64(out, f.size_bytes);
    put_bool(out, f.cacheable);
    match &f.kind {
        FileKind::Data => put_u8(out, 0),
        FileKind::EnvironmentPack {
            unpacked_files,
            relocation_ops,
            unpacked_bytes,
        } => {
            put_u8(out, 1);
            put_u64(out, *unpacked_files);
            put_u64(out, *relocation_ops);
            put_u64(out, *unpacked_bytes);
        }
    }
}

fn read_file_ref(r: &mut Reader<'_>) -> Result<FileRef, JournalError> {
    let name = r.string()?;
    let size_bytes = r.u64()?;
    let cacheable = r.bool()?;
    let kind = match r.u8()? {
        0 => FileKind::Data,
        1 => FileKind::EnvironmentPack {
            unpacked_files: r.u64()?,
            relocation_ops: r.u64()?,
            unpacked_bytes: r.u64()?,
        },
        t => return Err(JournalError::BadTag("file-kind", t)),
    };
    Ok(FileRef {
        name,
        size_bytes,
        cacheable,
        kind,
    })
}

fn put_spec(out: &mut Vec<u8>, spec: &TaskSpec) {
    put_u64(out, spec.id.0);
    put_str(out, &spec.category);
    put_u64(out, spec.inputs.len() as u64);
    for f in &spec.inputs {
        put_file_ref(out, f);
    }
    put_u64(out, spec.output_bytes);
    put_f64(out, spec.profile.duration_secs);
    put_f64(out, spec.profile.cores_used);
    put_u64(out, spec.profile.base_memory_mb);
    put_u64(out, spec.profile.peak_memory_mb);
    put_f64(out, spec.profile.mem_ramp_fraction);
    put_u64(out, spec.profile.peak_disk_mb);
    put_u64(out, spec.deps.len() as u64);
    for d in &spec.deps {
        put_u64(out, d.0);
    }
}

fn read_spec(r: &mut Reader<'_>) -> Result<TaskSpec, JournalError> {
    let id = TaskId(r.u64()?);
    let category = r.string()?;
    let mut inputs = Vec::new();
    for _ in 0..r.u64()? {
        inputs.push(read_file_ref(r)?);
    }
    let output_bytes = r.u64()?;
    let profile = SimTaskProfile {
        duration_secs: r.f64()?,
        cores_used: r.f64()?,
        base_memory_mb: r.u64()?,
        peak_memory_mb: r.u64()?,
        mem_ramp_fraction: r.f64()?,
        peak_disk_mb: r.u64()?,
    };
    let mut deps = Vec::new();
    for _ in 0..r.u64()? {
        deps.push(TaskId(r.u64()?));
    }
    Ok(TaskSpec {
        id,
        category,
        inputs,
        output_bytes,
        profile,
        deps,
    })
}

impl Record {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::RunStart {
                seed,
                task_count,
                worker_count,
            } => {
                put_u8(out, 0);
                put_u64(out, *seed);
                put_u64(out, *task_count);
                put_u32(out, *worker_count);
            }
            Record::Enqueue {
                task_idx,
                attempt,
                front,
                since,
            } => {
                put_u8(out, 1);
                put_u64(out, *task_idx);
                put_u32(out, *attempt);
                put_bool(out, *front);
                put_time(out, *since);
            }
            Record::BackoffArm {
                task_idx,
                attempt,
                at,
            } => {
                put_u8(out, 2);
                put_u64(out, *task_idx);
                put_u32(out, *attempt);
                put_time(out, *at);
            }
            Record::Placed {
                placement,
                worker,
                task_idx,
                attempt,
                alloc,
                started_at,
                lease_at,
            } => {
                put_u8(out, 3);
                put_u64(out, *placement);
                put_u32(out, *worker);
                put_u64(out, *task_idx);
                put_u32(out, *attempt);
                put_resources(out, alloc);
                put_time(out, *started_at);
                put_lease(out, *lease_at);
            }
            Record::Zombie { placement } => {
                put_u8(out, 4);
                put_u64(out, *placement);
            }
            Record::Freed { placement } => {
                put_u8(out, 5);
                put_u64(out, *placement);
            }
            Record::Result(tr) => {
                put_u8(out, 6);
                put_result(out, tr);
            }
            Record::Finished { task_idx, success } => {
                put_u8(out, 7);
                put_u64(out, *task_idx);
                put_bool(out, *success);
            }
            Record::Abandoned { task_idx } => {
                put_u8(out, 8);
                put_u64(out, *task_idx);
            }
            Record::Cancelled { task_idx } => {
                put_u8(out, 9);
                put_u64(out, *task_idx);
            }
            Record::Observe {
                cat,
                peak_cores,
                peak_rss_mb,
                peak_disk_mb,
                completed,
                violated,
            } => {
                put_u8(out, 10);
                put_u32(out, *cat);
                put_f64(out, *peak_cores);
                put_u64(out, *peak_rss_mb);
                put_u64(out, *peak_disk_mb);
                put_bool(out, *completed);
                put_resource_kind(out, *violated);
            }
            Record::Retried { task_idx } => {
                put_u8(out, 11);
                put_u64(out, *task_idx);
            }
            Record::InfraRetried { task_idx, count } => {
                put_u8(out, 12);
                put_u64(out, *task_idx);
                put_u32(out, *count);
            }
            Record::Streak { cat, value } => {
                put_u8(out, 13);
                put_u32(out, *cat);
                put_u32(out, *value);
            }
            Record::WorkerFault { worker, count } => {
                put_u8(out, 14);
                put_u32(out, *worker);
                put_u32(out, *count);
            }
            Record::Quarantined { worker, release_at } => {
                put_u8(out, 15);
                put_u32(out, *worker);
                put_time(out, *release_at);
            }
            Record::QuarantineLifted { worker } => {
                put_u8(out, 16);
                put_u32(out, *worker);
            }
            Record::EnvFailure { count } => {
                put_u8(out, 17);
                put_u32(out, *count);
            }
            Record::Degraded => put_u8(out, 18),
            Record::Counter { key, amount } => {
                put_u8(out, 19);
                put_u8(out, key.tag());
                put_f64(out, *amount);
            }
            Record::Stolen { task_idx, attempt } => {
                put_u8(out, 20);
                put_u64(out, *task_idx);
                put_u32(out, *attempt);
            }
            Record::RemoteDep { task_idx } => {
                put_u8(out, 21);
                put_u64(out, *task_idx);
            }
            Record::Submitted {
                task_idx,
                cat,
                spec,
            } => {
                put_u8(out, 22);
                put_u64(out, *task_idx);
                put_u32(out, *cat);
                put_spec(
                    out,
                    spec.as_deref().expect("a journaled admission has its spec"),
                );
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Record, JournalError> {
        Ok(match r.u8()? {
            0 => Record::RunStart {
                seed: r.u64()?,
                task_count: r.u64()?,
                worker_count: r.u32()?,
            },
            1 => Record::Enqueue {
                task_idx: r.u64()?,
                attempt: r.u32()?,
                front: r.bool()?,
                since: r.time()?,
            },
            2 => Record::BackoffArm {
                task_idx: r.u64()?,
                attempt: r.u32()?,
                at: r.time()?,
            },
            3 => Record::Placed {
                placement: r.u64()?,
                worker: r.u32()?,
                task_idx: r.u64()?,
                attempt: r.u32()?,
                alloc: r.resources()?,
                started_at: r.time()?,
                lease_at: read_lease(r)?,
            },
            4 => Record::Zombie {
                placement: r.u64()?,
            },
            5 => Record::Freed {
                placement: r.u64()?,
            },
            6 => Record::Result(Box::new(read_result(r)?)),
            7 => Record::Finished {
                task_idx: r.u64()?,
                success: r.bool()?,
            },
            8 => Record::Abandoned { task_idx: r.u64()? },
            9 => Record::Cancelled { task_idx: r.u64()? },
            10 => Record::Observe {
                cat: r.u32()?,
                peak_cores: r.f64()?,
                peak_rss_mb: r.u64()?,
                peak_disk_mb: r.u64()?,
                completed: r.bool()?,
                violated: read_resource_kind(r)?,
            },
            11 => Record::Retried { task_idx: r.u64()? },
            12 => Record::InfraRetried {
                task_idx: r.u64()?,
                count: r.u32()?,
            },
            13 => Record::Streak {
                cat: r.u32()?,
                value: r.u32()?,
            },
            14 => Record::WorkerFault {
                worker: r.u32()?,
                count: r.u32()?,
            },
            15 => Record::Quarantined {
                worker: r.u32()?,
                release_at: r.time()?,
            },
            16 => Record::QuarantineLifted { worker: r.u32()? },
            17 => Record::EnvFailure { count: r.u32()? },
            18 => Record::Degraded,
            19 => Record::Counter {
                key: CounterKey::from_tag(r.u8()?)?,
                amount: r.f64()?,
            },
            20 => Record::Stolen {
                task_idx: r.u64()?,
                attempt: r.u32()?,
            },
            21 => Record::RemoteDep { task_idx: r.u64()? },
            22 => Record::Submitted {
                task_idx: r.u64()?,
                cat: r.u32()?,
                spec: Some(Box::new(read_spec(r)?)),
            },
            t => return Err(JournalError::BadTag("record", t)),
        })
    }
}

// ---- the ledger: the master's journaled state and what records do to it ----

/// A live placement, for loss recovery and lease reclamation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlacementInfo {
    pub worker: u32,
    pub task_idx: usize,
    pub attempt: u32,
    pub allocated: Resources,
    pub started_at: SimTime,
    /// The task ran but its result message was lost: worker resources are
    /// already freed, and the placement stays live (so a duplicate
    /// completion can never slip in) until its lease reclaims it.
    pub zombie: bool,
    /// Absolute lease deadline, when leases are armed; recovery re-arms the
    /// reclamation timer at `max(lease_at, now)`.
    pub lease_at: Option<SimTime>,
}

/// The live placements by id. Ids only grow and most placements die young,
/// so the live ones sit in a narrow band below the newest: `window[i]` is
/// the slot of id `base + i`, found by subtraction. What outlives the band
/// — a zombie awaiting its lease, one long attempt among many short ones —
/// moves to `spill`, so the slots held are O(live) whatever span the ids
/// cover.
///
/// Every spilled id is below `base`, every held id below `base +
/// window.len()`, `spill` ascends, and a non-empty window starts on a live
/// slot: spill then window is ascending id, the order of the map this
/// replaces — hence its bytes, its equality and its timer re-arm order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Placements {
    window: VecDeque<Option<PlacementInfo>>,
    base: u64,
    spill: Vec<(u64, PlacementInfo)>,
    len: usize,
}

impl Placements {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Where `id` would be: its window slot, or its place in the spill.
    fn slot(&self, id: u64) -> Result<usize, Result<usize, usize>> {
        match id.checked_sub(self.base) {
            Some(i) => Ok(usize::try_from(i).unwrap_or(usize::MAX)),
            None => Err(self.spill.binary_search_by_key(&id, |&(i, _)| i)),
        }
    }

    pub(crate) fn get(&self, id: u64) -> Option<&PlacementInfo> {
        match self.slot(id) {
            Ok(i) => self.window.get(i)?.as_ref(),
            Err(at) => Some(&self.spill[at.ok()?].1),
        }
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut PlacementInfo> {
        match self.slot(id) {
            Ok(i) => self.window.get_mut(i)?.as_mut(),
            Err(at) => Some(&mut self.spill[at.ok()?].1),
        }
    }

    /// Add a placement whose id is above every id held so far; any other id
    /// is refused (`false`).
    pub(crate) fn insert(&mut self, id: u64, info: PlacementInfo) -> bool {
        if id < self.base + self.window.len() as u64 {
            return false;
        }
        // A few slots per live placement: while `id` would stretch the
        // window past that, its oldest entry — above all that spilled
        // before it — spills.
        while id - self.base >= 4 * self.len as u64 + 64 {
            let Some(oldest) = self.window.pop_front() else {
                break;
            };
            let oldest = oldest.expect("a window starts on a live slot");
            self.spill.push((self.base, oldest));
            self.base += 1;
            self.trim();
        }
        if self.window.is_empty() {
            self.base = id;
        }
        let gap = (id - self.base) as usize - self.window.len();
        self.window.extend(std::iter::repeat_n(None, gap));
        self.window.push_back(Some(info));
        self.len += 1;
        true
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<PlacementInfo> {
        let gone = match self.slot(id) {
            Ok(i) => self.window.get_mut(i)?.take()?,
            Err(at) => self.spill.remove(at.ok()?).1,
        };
        self.trim();
        self.len -= 1;
        Some(gone)
    }

    /// Drop the dead slots a window starts with.
    fn trim(&mut self) {
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
    }

    /// `(id, placement)` in ascending id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &PlacementInfo)> {
        let window = (self.window.iter().enumerate())
            .filter_map(|(i, p)| Some((self.base + i as u64, p.as_ref()?)));
        self.spill.iter().map(|(id, p)| (*id, p)).chain(window)
    }
}

/// Equal when they hold the same placements: where the window starts and
/// what has spilled is history, not state.
impl PartialEq for Placements {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// The report counters that journal as [`Record::Counter`] deltas. They
/// count what happened in the *world* (pilots submitted, workers and
/// attempts lost), so a journal-less full restart carries them over whole.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Counters {
    pub workers_provisioned: u32,
    pub workers_lost: u32,
    pub tasks_lost: u64,
    pub lease_reclaims: u64,
    pub stage_in_failures: u64,
    pub spurious_kills: u64,
    pub result_msgs_lost: u64,
    pub lost_core_secs: f64,
}

/// The master's journaled plain-data state, in the representation the live
/// master works on. `Master` owns one and changes it only by committing
/// records; a snapshot carries one; replay folds the record tail into one.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Ledger {
    /// Unsatisfied-dependency counts per task; a task enters the pending
    /// queue only at zero. `usize::MAX` = cancelled.
    pub dep_remaining: Vec<usize>,
    /// Tasks that reached a terminal state (successes plus abandoned).
    pub completed: usize,
    pub abandoned: u64,
    /// Every attempt's result row, in completion order.
    pub results: Vec<TaskResult>,
    /// Tasks that consumed a resource-limit retry / an infrastructure retry.
    pub retried: BTreeSet<usize>,
    pub infra_retried: BTreeSet<usize>,
    /// Per-task infrastructure-failure counts, against the infra budget.
    pub infra_fail_count: Vec<u32>,
    /// Consecutive infra failures per category — the backoff streak, reset
    /// on any success in the category.
    pub cat_streak: Vec<u32>,
    pub placements: Placements,
    /// Never reset, not even by a full restart: a stale completion is
    /// recognised by its placement id no longer being live.
    pub next_placement: u64,
    /// Armed backoff timers `(task_idx, attempt, fire_at)` in arm order (not
    /// task order), so recovery re-arms equal-time timers in their original
    /// FIFO tie-break.
    pub backoffs: Vec<(usize, u32, SimTime)>,
    /// Quarantined workers and their release deadlines, in entry order for
    /// the same reason.
    pub quarantined_until: Vec<(u32, SimTime)>,
    pub quarantines: u32,
    /// Packed-env distribution degraded to the shared FS for the rest of
    /// the run, after `env_failures` packed-env staging failures.
    pub degraded: bool,
    pub env_failures: u32,
    pub counters: Counters,
    /// Tasks whose per-task entries (`dep_remaining`, `infra_fail_count`,
    /// retry-set membership) changed since the journal's last image — what
    /// the next delta image carries instead of the whole vectors. Not part
    /// of any image: [`apply`](Ledger::apply) pushes (duplicates allowed)
    /// and the master clears it when an image is installed.
    pub dirty: Vec<usize>,
}

/// The dependency topology [`Ledger::apply`] reads to release a finished
/// task's dependents: the prepared workload's table, borrowed.
pub(crate) struct DepGraph<'a> {
    pub work: &'a PreparedWorkload,
    /// `(ownership map, this shard)` on a federated sub-master. Only
    /// locally-owned dependents count down here; remote ones are released
    /// through the federation outbox and their owner's own journal.
    pub shard: Option<(&'a [u32], u32)>,
}

impl Ledger {
    /// The ledger of a freshly constructed master (nothing enqueued yet —
    /// the root enqueues are the first journal records).
    pub(crate) fn fresh(dep_remaining: Vec<usize>, cat_count: usize) -> Self {
        Ledger {
            infra_fail_count: vec![0; dep_remaining.len()],
            cat_streak: vec![0; cat_count],
            dep_remaining,
            ..Ledger::default()
        }
    }

    /// What one record does to the journaled state — the only code that
    /// changes a ledger field. Returns the tasks whose last dependency the
    /// record satisfied (the live master enqueues them; in a journal their
    /// `Enqueue` records follow). The record comes by value so that what it
    /// carries (a result row) moves in; a journal keeps its own copy.
    pub(crate) fn apply(&mut self, rec: Record, graph: &DepGraph<'_>) -> Vec<usize> {
        match rec {
            // An enqueue of an attempt retires any armed backoff for it:
            // the timer fired.
            Record::Enqueue {
                task_idx, attempt, ..
            } => self
                .backoffs
                .retain(|&(t, a, _)| !(t == task_idx as usize && a == attempt)),
            Record::BackoffArm {
                task_idx,
                attempt,
                at,
            } => self.backoffs.push((task_idx as usize, attempt, at)),
            Record::Placed {
                placement,
                worker,
                task_idx,
                attempt,
                alloc,
                started_at,
                lease_at,
            } => {
                let info = PlacementInfo {
                    worker,
                    task_idx: task_idx as usize,
                    attempt,
                    allocated: alloc,
                    started_at,
                    zombie: false,
                    lease_at,
                };
                assert!(
                    self.placements.insert(placement, info),
                    "placement ids only grow"
                );
                self.next_placement = placement + 1;
            }
            Record::Zombie { placement } => {
                if let Some(p) = self.placements.get_mut(placement) {
                    p.zombie = true;
                }
            }
            Record::Freed { placement } => {
                self.placements.remove(placement);
            }
            Record::Result(row) => self.results.push(*row),
            Record::Finished { task_idx, success } => {
                self.completed += 1;
                if success {
                    return self.satisfy(
                        graph.work.dependents(task_idx as usize).filter(|&d| {
                            graph.shard.is_none_or(|(owner, shard)| owner[d] == shard)
                        }),
                    );
                }
            }
            Record::RemoteDep { task_idx } => return self.satisfy([task_idx as usize]),
            Record::Abandoned { .. } => {
                self.abandoned += 1;
                self.completed += 1;
            }
            Record::Cancelled { task_idx } => {
                self.dep_remaining[task_idx as usize] = usize::MAX;
                self.abandoned += 1;
                self.completed += 1;
                self.dirty.push(task_idx as usize);
            }
            Record::Retried { task_idx } => {
                self.retried.insert(task_idx as usize);
                self.dirty.push(task_idx as usize);
            }
            Record::InfraRetried { task_idx, count } => {
                self.infra_retried.insert(task_idx as usize);
                self.infra_fail_count[task_idx as usize] = count;
                self.dirty.push(task_idx as usize);
            }
            Record::Streak { cat, value } => self.cat_streak[cat as usize] = value,
            Record::Quarantined { worker, release_at } => {
                self.quarantined_until.push((worker, release_at));
                self.quarantines += 1;
            }
            Record::QuarantineLifted { worker } => {
                self.quarantined_until.retain(|&(w, _)| w != worker)
            }
            Record::EnvFailure { count } => self.env_failures = count,
            Record::Degraded => self.degraded = true,
            // A streamed admission grows the per-task vectors by one
            // dependency-free slot, and a first-seen category the
            // per-category one. The spec itself lives in the master's task
            // vector; the record's copy keeps the journal self-contained.
            Record::Submitted { task_idx, cat, .. } => {
                debug_assert_eq!(
                    task_idx,
                    self.dep_remaining.len() as u64,
                    "streamed admissions apply in admission order"
                );
                self.dep_remaining.push(0);
                self.infra_fail_count.push(0);
                self.dirty.push(task_idx as usize);
                if self.cat_streak.len() <= cat as usize {
                    self.cat_streak.resize(cat as usize + 1, 0);
                }
            }
            Record::Counter { key, amount } => {
                let c = &mut self.counters;
                match key {
                    CounterKey::WorkersProvisioned => c.workers_provisioned += amount as u32,
                    CounterKey::WorkersLost => c.workers_lost += amount as u32,
                    CounterKey::TasksLost => c.tasks_lost += amount as u64,
                    CounterKey::LeaseReclaims => c.lease_reclaims += amount as u64,
                    CounterKey::StageInFailures => c.stage_in_failures += amount as u64,
                    CounterKey::SpuriousKills => c.spurious_kills += amount as u64,
                    CounterKey::ResultMsgsLost => c.result_msgs_lost += amount as u64,
                    CounterKey::LostCoreSecs => c.lost_core_secs += amount,
                }
            }
            // No ledger state: the header is a sanity check, a steal only
            // leaves the pending queue, an observation feeds the allocator,
            // and fault attribution lives on the `Worker`.
            Record::RunStart { .. }
            | Record::Stolen { .. }
            | Record::Observe { .. }
            | Record::WorkerFault { .. } => {}
        }
        Vec::new()
    }

    /// Count one satisfied dependency off each of `dependents` and report
    /// those that reached zero, each once — a task listing one dependency
    /// twice counts down twice and becomes ready once. A cancelled
    /// dependent stays cancelled: counting its marker down would let a
    /// second failing upstream cancel (and count) it again.
    fn satisfy(&mut self, dependents: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let mut ready = Vec::new();
        for idx in dependents {
            if self.dep_remaining[idx] == usize::MAX {
                continue;
            }
            self.dep_remaining[idx] -= 1;
            self.dirty.push(idx);
            if self.dep_remaining[idx] == 0 {
                ready.push(idx);
            }
        }
        ready
    }
}

// ---- the serialized master image (snapshot payload / replay target) ----

/// One category's allocator state: the raw sample stores (already including
/// the censored-axis inflation applied at observation time) plus the
/// completed count. Restoring replays the values through `record()`, which
/// reproduces labels exactly — the Auto label is a pure function of the
/// sample multiset.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CategorySnap {
    pub cores: Vec<f64>,
    pub memory_mb: Vec<f64>,
    pub disk_mb: Vec<f64>,
    pub completed: u64,
}

/// Fold one `Observe` record into sample stores dense by category id — the
/// replay of `Allocator::observe_outcome`, through the same censoring rule.
/// Any other record leaves the stores alone.
pub(crate) fn observe_into(stats: &mut Vec<CategorySnap>, rec: &Record) {
    let Record::Observe {
        cat,
        peak_cores,
        peak_rss_mb,
        peak_disk_mb,
        completed,
        violated,
    } = rec
    else {
        return;
    };
    // A category first seen mid-stream has no slot yet.
    if stats.len() <= *cat as usize {
        stats.resize_with(*cat as usize + 1, CategorySnap::default);
    }
    let s = &mut stats[*cat as usize];
    let [cores, memory_mb, disk_mb] =
        censored_samples(*peak_cores, *peak_rss_mb, *peak_disk_mb, *violated);
    s.cores.extend(cores);
    s.memory_mb.extend(memory_mb);
    s.disk_mb.extend(disk_mb);
    s.completed += *completed as u64;
}

/// The complete serializable image of the master's logical state: the
/// ledger, plus the three views whose live form is an index
/// (`IndexedSched`) or lives in another module (`Allocator`, `Worker`). The
/// journal's image chain decodes to one; journal replay folds records into
/// one; recovery rebuilds either scheduler implementation from one.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MasterImage {
    pub ledger: Ledger,
    /// Pending queue in examination order. A full image enumerates the
    /// policy-sorted order (identical for both scheduler implementations);
    /// delta images and replay fold queue operations into it, which keeps
    /// deque order. Either preserves the within-rank relative order that
    /// determines dispatch.
    pub pending: VecDeque<Pending>,
    /// Allocator sample stores, dense by interned category id.
    pub alloc_stats: Vec<CategorySnap>,
    /// Per-worker infra-failure attribution.
    pub worker_faults: BTreeMap<u32, u32>,
}

/// A pending queue that records are being folded into: what `Enqueue`,
/// `Placed` and `Stolen` do to it, for delta images and tail replay alike.
/// A departure is a map lookup and a vacated slot — searching a deque for
/// each one would cost the whole backlog per record.
pub(crate) struct PendingFold {
    /// Slot `i` holds queue position `first + i`; a departed attempt
    /// leaves `None`.
    slots: VecDeque<Option<Pending>>,
    first: i64,
    /// Queue position of each waiting `(task, attempt)` — an attempt is
    /// pending at most once.
    position: BTreeMap<(usize, u32), i64>,
}

impl PendingFold {
    pub(crate) fn new(queue: VecDeque<Pending>) -> Self {
        PendingFold {
            position: (queue.iter().enumerate())
                .map(|(i, p)| ((p.task_idx, p.attempt), i as i64))
                .collect(),
            slots: queue.into_iter().map(Some).collect(),
            first: 0,
        }
    }

    pub(crate) fn apply(&mut self, rec: &Record) {
        match rec {
            Record::Enqueue {
                task_idx,
                attempt,
                front,
                since,
            } => {
                let item = Pending {
                    task_idx: *task_idx as usize,
                    attempt: *attempt,
                    since: *since,
                };
                let at = if *front {
                    self.first -= 1;
                    self.slots.push_front(Some(item));
                    self.first
                } else {
                    self.slots.push_back(Some(item));
                    self.first + self.slots.len() as i64 - 1
                };
                self.position.insert((*task_idx as usize, *attempt), at);
            }
            // The attempt left the queue — for a worker, or for the thief
            // shard.
            Record::Placed {
                task_idx, attempt, ..
            }
            | Record::Stolen { task_idx, attempt } => {
                if let Some(at) = self.position.remove(&(*task_idx as usize, *attempt)) {
                    self.slots[(at - self.first) as usize] = None;
                }
            }
            _ => {}
        }
    }

    pub(crate) fn finish(self) -> VecDeque<Pending> {
        self.slots.into_iter().flatten().collect()
    }
}

// Both kinds of image are written from borrowed state — the live ledger and
// the three views — so a compaction copies nothing it does not encode. A
// *full* image is the whole state in a fixed field order, with indices as
// `u64` (a cancelled dependency count as `u64::MAX`) and times as `f64`
// seconds. A *delta* image is what the record tail changed since the
// previous image: the sections bounded by the cluster (placements, timers,
// scalars) whole, and for the sections that grow with the run or its
// backlog — result rows, allocator samples, the per-task vectors, the
// pending queue — only the changes.

fn put_dep(out: &mut Vec<u8>, d: usize) {
    put_u64(out, if d == usize::MAX { u64::MAX } else { d as u64 });
}

fn read_dep(r: &mut Reader<'_>) -> Result<usize, JournalError> {
    let d = r.u64()?;
    Ok(if d == u64::MAX {
        usize::MAX
    } else {
        d as usize
    })
}

/// Armed backoffs, live placements and the placement-id counter. Whole in
/// both kinds.
fn put_live(out: &mut Vec<u8>, l: &Ledger) {
    put_u64(out, l.backoffs.len() as u64);
    for &(t, a, at) in &l.backoffs {
        put_u64(out, t as u64);
        put_u32(out, a);
        put_time(out, at);
    }
    put_u64(out, l.placements.len() as u64);
    for (id, p) in l.placements.iter() {
        put_u64(out, id);
        put_u32(out, p.worker);
        put_u64(out, p.task_idx as u64);
        put_u32(out, p.attempt);
        put_resources(out, &p.allocated);
        put_time(out, p.started_at);
        put_bool(out, p.zombie);
        put_lease(out, p.lease_at);
    }
    put_u64(out, l.next_placement);
}

/// Inverse of [`put_live`], replacing what `l` held.
fn read_live(r: &mut Reader<'_>, l: &mut Ledger) -> Result<(), JournalError> {
    l.backoffs.clear();
    for _ in 0..r.u64()? {
        l.backoffs.push((r.u64()? as usize, r.u32()?, r.time()?));
    }
    l.placements = Placements::default();
    for _ in 0..r.u64()? {
        let id = r.u64()?;
        let info = PlacementInfo {
            worker: r.u32()?,
            task_idx: r.u64()? as usize,
            attempt: r.u32()?,
            allocated: r.resources()?,
            started_at: r.time()?,
            zombie: r.bool()?,
            lease_at: read_lease(r)?,
        };
        if !l.placements.insert(id, info) {
            return Err(JournalError::Inconsistent("placement ids do not ascend"));
        }
    }
    l.next_placement = r.u64()?;
    Ok(())
}

fn put_samples(out: &mut Vec<u8>, s: &CategorySnap) {
    for axis in [&s.cores, &s.memory_mb, &s.disk_mb] {
        put_u64(out, axis.len() as u64);
        for &v in axis {
            put_f64(out, v);
        }
    }
    put_u64(out, s.completed);
}

/// Inverse of [`put_samples`], adding to what `s` held.
fn read_samples(r: &mut Reader<'_>, s: &mut CategorySnap) -> Result<(), JournalError> {
    for axis in [&mut s.cores, &mut s.memory_mb, &mut s.disk_mb] {
        for _ in 0..r.u64()? {
            axis.push(r.f64()?);
        }
    }
    s.completed = (s.completed.checked_add(r.u64()?))
        .ok_or(JournalError::Inconsistent("completed-sample count"))?;
    Ok(())
}

/// Streaks, fault attribution, quarantine, the scalars and the report
/// counters. Whole in both kinds.
fn put_footer(out: &mut Vec<u8>, l: &Ledger, worker_faults: &BTreeMap<u32, u32>) {
    put_u64(out, l.cat_streak.len() as u64);
    for &c in &l.cat_streak {
        put_u32(out, c);
    }
    put_u64(out, worker_faults.len() as u64);
    for (&w, &c) in worker_faults {
        put_u32(out, w);
        put_u32(out, c);
    }
    put_u64(out, l.quarantined_until.len() as u64);
    for &(w, t) in &l.quarantined_until {
        put_u32(out, w);
        put_time(out, t);
    }
    put_u32(out, l.quarantines);
    put_bool(out, l.degraded);
    put_u32(out, l.env_failures);
    put_u32(out, l.counters.workers_provisioned);
    put_u32(out, l.counters.workers_lost);
    put_u64(out, l.counters.tasks_lost);
    put_u64(out, l.counters.lease_reclaims);
    put_u64(out, l.counters.stage_in_failures);
    put_u64(out, l.counters.spurious_kills);
    put_u64(out, l.counters.result_msgs_lost);
    put_f64(out, l.counters.lost_core_secs);
}

/// Inverse of [`put_footer`], replacing what `img` held.
fn read_footer(r: &mut Reader<'_>, img: &mut MasterImage) -> Result<(), JournalError> {
    let l = &mut img.ledger;
    l.cat_streak.clear();
    for _ in 0..r.u64()? {
        l.cat_streak.push(r.u32()?);
    }
    img.worker_faults.clear();
    for _ in 0..r.u64()? {
        img.worker_faults.insert(r.u32()?, r.u32()?);
    }
    l.quarantined_until.clear();
    for _ in 0..r.u64()? {
        l.quarantined_until.push((r.u32()?, r.time()?));
    }
    l.quarantines = r.u32()?;
    l.degraded = r.bool()?;
    l.env_failures = r.u32()?;
    l.counters = Counters {
        workers_provisioned: r.u32()?,
        workers_lost: r.u32()?,
        tasks_lost: r.u64()?,
        lease_reclaims: r.u64()?,
        stage_in_failures: r.u64()?,
        spurious_kills: r.u64()?,
        result_msgs_lost: r.u64()?,
        lost_core_secs: r.f64()?,
    };
    Ok(())
}

fn encode_full(
    out: &mut Vec<u8>,
    l: &Ledger,
    pending: &[Pending],
    alloc_stats: &[CategorySnap],
    worker_faults: &BTreeMap<u32, u32>,
) {
    put_u64(out, pending.len() as u64);
    for p in pending {
        put_u64(out, p.task_idx as u64);
        put_u32(out, p.attempt);
        put_time(out, p.since);
    }
    put_live(out, l);
    put_u64(out, alloc_stats.len() as u64);
    for s in alloc_stats {
        put_samples(out, s);
    }
    put_u64(out, l.dep_remaining.len() as u64);
    for &d in &l.dep_remaining {
        put_dep(out, d);
    }
    put_u64(out, l.completed as u64);
    put_u64(out, l.abandoned);
    put_u64(out, l.results.len() as u64);
    for tr in &l.results {
        put_result(out, tr);
    }
    for set in [&l.retried, &l.infra_retried] {
        put_u64(out, set.len() as u64);
        for &t in set {
            put_u64(out, t as u64);
        }
    }
    put_u64(out, l.infra_fail_count.len() as u64);
    for &c in &l.infra_fail_count {
        put_u32(out, c);
    }
    put_footer(out, l, worker_faults);
}

/// Encode what `tail` — every record since the previous image — changed.
/// Result rows, allocator samples and queue operations come from the
/// tail's own records; the per-task entries are those of `l.dirty`.
fn encode_delta(
    out: &mut Vec<u8>,
    l: &Ledger,
    worker_faults: &BTreeMap<u32, u32>,
    tail: &[Record],
) {
    // What happened to the pending queue, as the records [`PendingFold`]
    // reads: enqueues verbatim, a placement cut down to the departure it is
    // to the queue.
    let queue_ops = tail.iter().filter_map(|rec| match *rec {
        Record::Enqueue { .. } => Some(rec.clone()),
        Record::Placed {
            task_idx, attempt, ..
        }
        | Record::Stolen { task_idx, attempt } => Some(Record::Stolen { task_idx, attempt }),
        _ => None,
    });
    put_u64(out, queue_ops.clone().count() as u64);
    for op in queue_ops {
        op.encode(out);
    }
    put_live(out, l);
    put_u64(out, l.completed as u64);
    put_u64(out, l.abandoned);
    put_footer(out, l, worker_faults);
    let mut observed = Vec::new();
    for rec in tail {
        observe_into(&mut observed, rec);
    }
    put_u64(out, observed.len() as u64);
    for s in &observed {
        put_samples(out, s);
    }
    // Ascending, so a streamed admission's new slot reaches the decoder as
    // the entry one past the end of the vectors it grows.
    let mut touched = l.dirty.clone();
    touched.sort_unstable();
    touched.dedup();
    put_u64(out, touched.len() as u64);
    for &t in &touched {
        put_u64(out, t as u64);
        put_dep(out, l.dep_remaining[t]);
        put_u32(out, l.infra_fail_count[t]);
        let retried = l.retried.contains(&t) as u8;
        put_u8(out, retried | (l.infra_retried.contains(&t) as u8) << 1);
    }
    put_u64(out, l.dep_remaining.len() as u64);
    let rows = tail.iter().filter_map(|rec| match rec {
        Record::Result(tr) => Some(&**tr),
        _ => None,
    });
    put_u64(out, rows.clone().count() as u64);
    for tr in rows {
        put_result(out, tr);
    }
}

impl MasterImage {
    /// Encode as a full image.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let pending: Vec<Pending> = self.pending.iter().cloned().collect();
        encode_full(
            &mut out,
            &self.ledger,
            &pending,
            &self.alloc_stats,
            &self.worker_faults,
        );
        out
    }

    /// Decode a full image.
    pub(crate) fn decode(buf: &[u8]) -> Result<Self, JournalError> {
        let mut r = Reader::new(buf);
        let mut img = MasterImage::default();
        for _ in 0..r.u64()? {
            img.pending.push_back(Pending {
                task_idx: r.u64()? as usize,
                attempt: r.u32()?,
                since: r.time()?,
            });
        }
        read_live(&mut r, &mut img.ledger)?;
        for _ in 0..r.u64()? {
            let mut s = CategorySnap::default();
            read_samples(&mut r, &mut s)?;
            img.alloc_stats.push(s);
        }
        let l = &mut img.ledger;
        for _ in 0..r.u64()? {
            l.dep_remaining.push(read_dep(&mut r)?);
        }
        l.completed = r.u64()? as usize;
        l.abandoned = r.u64()?;
        for _ in 0..r.u64()? {
            l.results.push(read_result(&mut r)?);
        }
        for set in [&mut l.retried, &mut l.infra_retried] {
            for _ in 0..r.u64()? {
                set.insert(r.u64()? as usize);
            }
        }
        for _ in 0..r.u64()? {
            l.infra_fail_count.push(r.u32()?);
        }
        read_footer(&mut r, &mut img)?;
        Ok(img)
    }

    /// Fold one delta image into the image it was written against, its
    /// queue operations into `queue`. Sample stores come out in arrival
    /// order; [`Journal::base_image`] restores the canonical order once the
    /// whole chain is in.
    fn apply_delta(&mut self, queue: &mut PendingFold, buf: &[u8]) -> Result<(), JournalError> {
        let mut r = Reader::new(buf);
        for _ in 0..r.u64()? {
            match Record::decode(&mut r)? {
                rec @ (Record::Enqueue { .. } | Record::Stolen { .. }) => queue.apply(&rec),
                _ => return Err(JournalError::Inconsistent("queue operation")),
            }
        }
        read_live(&mut r, &mut self.ledger)?;
        self.ledger.completed = r.u64()? as usize;
        self.ledger.abandoned = r.u64()?;
        read_footer(&mut r, self)?;
        // Streamed admissions may have interned categories since.
        let cats = self.ledger.cat_streak.len().max(self.alloc_stats.len());
        self.alloc_stats.resize_with(cats, CategorySnap::default);
        let observed = r.u64()?;
        if observed > cats as u64 {
            return Err(JournalError::Inconsistent("observed category"));
        }
        for s in &mut self.alloc_stats[..observed as usize] {
            read_samples(&mut r, s)?;
        }
        let l = &mut self.ledger;
        for _ in 0..r.u64()? {
            let t = r.u64()? as usize;
            let dep = read_dep(&mut r)?;
            let infra_fails = r.u32()?;
            match t.cmp(&l.dep_remaining.len()) {
                std::cmp::Ordering::Less => {
                    l.dep_remaining[t] = dep;
                    l.infra_fail_count[t] = infra_fails;
                }
                std::cmp::Ordering::Equal => {
                    l.dep_remaining.push(dep);
                    l.infra_fail_count.push(infra_fails);
                }
                std::cmp::Ordering::Greater => {
                    return Err(JournalError::Inconsistent("task index"));
                }
            }
            let sets = r.u8()?;
            if sets > 3 {
                return Err(JournalError::BadTag("retry-sets", sets));
            }
            if sets & 1 != 0 {
                l.retried.insert(t);
            }
            if sets & 2 != 0 {
                l.infra_retried.insert(t);
            }
        }
        if r.u64()? != l.dep_remaining.len() as u64 {
            return Err(JournalError::Inconsistent("task count"));
        }
        for _ in 0..r.u64()? {
            l.results.push(read_result(&mut r)?);
        }
        Ok(())
    }
}

// ---- the journal store ----

/// The master's in-memory model of its on-disk write-ahead journal: the
/// image chain (if any image was written yet) plus every record appended
/// since its last image. `bytes_written` integrates everything ever flushed
/// — records *and* images — which is the `journal_bytes` the report and the
/// recovery bench account.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    /// Encoded images recovery starts from: one full image, then the delta
    /// images written since, each against the state the ones before it
    /// decode to.
    chain: Vec<Vec<u8>>,
    /// Bytes of the chain's delta images.
    delta_bytes: usize,
    tail: Vec<Record>,
    bytes_written: u64,
    scratch: Vec<u8>,
}

impl Journal {
    /// Append one record: its bytes are flushed and the tail keeps a copy.
    pub(crate) fn append(&mut self, rec: &Record) {
        self.scratch.clear();
        rec.encode(&mut self.scratch);
        if cfg!(debug_assertions) {
            // Every record written must read back exactly — catching an
            // encoding drift at append time, not at the next recovery.
            let mut r = Reader::new(&self.scratch);
            let back = Record::decode(&mut r).expect("appended record decodes");
            assert!(r.is_empty(), "record encoding has trailing bytes");
            assert_eq!(&back, rec, "record encoding must round-trip");
        }
        self.bytes_written += self.scratch.len() as u64;
        self.tail.push(rec.clone());
    }

    pub(crate) fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Should the master install a compacting image now? An interval of 0
    /// (reachable by struct literal) reads as 1.
    pub(crate) fn wants_snapshot(&self, every: Option<u64>) -> bool {
        every.is_some_and(|k| self.tail.len() as u64 >= k.max(1))
    }

    /// Install a compacting image of the state the record tail led to; it
    /// replaces the tail. Normally a delta image, which costs what the tail
    /// changed. Once the chain's deltas outweigh its full image, a new full
    /// image replaces the chain instead: full images then at least double
    /// in size from one to the next, so all images together stay linear in
    /// the run and a recovery reads at most about two full images' worth.
    /// `full_views` — the pending queue in canonical order and the
    /// allocator's sample stores — is called for a full image only: a delta
    /// takes queue operations and samples from the tail.
    pub(crate) fn compact(
        &mut self,
        ledger: &Ledger,
        worker_faults: &BTreeMap<u32, u32>,
        full_views: impl FnOnce() -> (Vec<Pending>, Vec<CategorySnap>),
    ) {
        let mut bytes = Vec::new();
        let rebase = (self.chain.first()).is_none_or(|full| self.delta_bytes > full.len());
        if rebase {
            let (pending, alloc_stats) = full_views();
            encode_full(&mut bytes, ledger, &pending, &alloc_stats, worker_faults);
            self.chain.clear();
            self.delta_bytes = 0;
        } else {
            encode_delta(&mut bytes, ledger, worker_faults, &self.tail);
            self.delta_bytes += bytes.len();
        }
        self.bytes_written += bytes.len() as u64;
        self.chain.push(bytes);
        self.tail.clear();
    }

    /// The image to start recovery from — the chain's full image with its
    /// deltas folded in, read from the encoded bytes alone — or `None` when
    /// recovery must replay from the fresh image. Once a delta is folded in
    /// the pending queue is in deque order, as after tail replay.
    pub(crate) fn base_image(&self) -> Result<Option<MasterImage>, JournalError> {
        let Some((full, deltas)) = self.chain.split_first() else {
            return Ok(None);
        };
        let mut img = MasterImage::decode(full)?;
        if deltas.is_empty() {
            return Ok(Some(img));
        }
        let mut queue = PendingFold::new(std::mem::take(&mut img.pending));
        for delta in deltas {
            img.apply_delta(&mut queue, delta)?;
        }
        img.pending = queue.finish();
        // Back to the canonical (sorted) order a full image exports.
        for s in &mut img.alloc_stats {
            for axis in [&mut s.cores, &mut s.memory_mb, &mut s.disk_mb] {
                axis.sort_unstable_by(f64::total_cmp);
            }
        }
        Ok(Some(img))
    }

    /// Records appended since the last image (what a recovery replays).
    pub(crate) fn tail(&self) -> &[Record] {
        &self.tail
    }
}

/// Representative record streams, images and deltas built through the
/// journal's crate-private types, for the in-crate codec tests (the pinned
/// wire layout, and the never-panic decoders in `proptests.rs`).
#[cfg(test)]
pub(crate) mod bench_api {
    use super::*;

    fn sample_record(i: u64) -> Record {
        // A rotating mix weighted toward the hot-path records a real run
        // writes most: enqueues, placements, results, finishes.
        match i % 6 {
            0 => Record::Enqueue {
                task_idx: i,
                attempt: (i % 3) as u32,
                front: i.is_multiple_of(2),
                since: SimTime::from_secs(i as f64 * 0.25),
            },
            1 => Record::Placed {
                placement: i,
                worker: (i % 64) as u32,
                task_idx: i,
                attempt: 0,
                alloc: Resources::new(1, 110 + i % 512, 1024),
                started_at: SimTime::from_secs(i as f64 * 0.5),
                lease_at: i
                    .is_multiple_of(2)
                    .then(|| SimTime::from_secs(i as f64 * 0.5 + 300.0)),
            },
            2 => Record::Result(Box::new(TaskResult {
                task: TaskId(i),
                category: "hep".to_string(),
                worker: (i % 64) as u32,
                allocated: Resources::new(1, 110, 1024),
                submitted_at: SimTime::ZERO,
                started_at: SimTime::from_secs(5.0),
                finished_at: SimTime::from_secs(60.0),
                stage_in_secs: 4.0,
                exec_secs: 51.0,
                outcome: MonitorOutcome::Completed(ResourceReport {
                    wall_secs: 51.0,
                    cpu_secs: 50.0,
                    peak_cores: 1.01,
                    peak_rss_mb: 108,
                    peak_processes: 2,
                    peak_disk_mb: 850,
                    read_bytes: 1 << 28,
                    write_bytes: 1 << 22,
                    polls: 51,
                    monitor_overhead_secs: 0.005,
                }),
                attempt: 0,
            })),
            3 => Record::Finished {
                task_idx: i,
                success: true,
            },
            4 => Record::Freed { placement: i },
            _ => Record::Observe {
                cat: (i % 4) as u32,
                peak_cores: 1.01,
                peak_rss_mb: 108 + i % 64,
                peak_disk_mb: 850,
                completed: true,
                violated: None,
            },
        }
    }

    /// Encode `n` representative records, returning the byte stream.
    pub(crate) fn encode_records(n: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            sample_record(i).encode(&mut out);
        }
        out
    }

    /// Decode an arbitrary byte stream as journal records, returning how
    /// many decoded cleanly before the stream ended or the first error.
    /// Never panics: the decoder-robustness proptests drive it with
    /// corrupt and truncated input.
    pub(crate) fn try_decode_records(buf: &[u8]) -> Result<usize, crate::journal::JournalError> {
        let mut r = Reader::new(buf);
        let mut n = 0;
        while !r.is_empty() {
            Record::decode(&mut r)?;
            n += 1;
        }
        Ok(n)
    }

    /// A populated `MasterImage` for a `tasks`-task run.
    fn sample_image(tasks: usize) -> MasterImage {
        let mut img = MasterImage {
            ledger: Ledger::fresh((0..tasks).map(|i| i % 3).collect(), 4),
            alloc_stats: vec![CategorySnap::default(); 4],
            ..MasterImage::default()
        };
        for i in 0..tasks {
            let at = SimTime::from_secs(i as f64);
            match i % 3 {
                0 => img.pending.push_back(Pending {
                    task_idx: i,
                    attempt: 0,
                    since: at,
                }),
                1 => {
                    img.ledger.placements.insert(
                        i as u64,
                        PlacementInfo {
                            worker: (i % 64) as u32,
                            task_idx: i,
                            attempt: 0,
                            allocated: Resources::new(1, 110, 1024),
                            started_at: at,
                            zombie: false,
                            lease_at: Some(at + 300.0),
                        },
                    );
                }
                _ => img.ledger.completed += 1,
            }
        }
        for s in &mut img.alloc_stats {
            for v in 0..64 {
                s.cores.push(1.0 + v as f64 * 0.01);
                s.memory_mb.push(100.0 + v as f64);
                s.disk_mb.push(800.0 + v as f64);
            }
            s.completed = 64;
        }
        img
    }

    /// Encode a populated full image for a `tasks`-task run.
    pub(crate) fn encode_image(tasks: usize) -> Vec<u8> {
        sample_image(tasks).encode()
    }

    /// A master state and the record tail that led to it: the
    /// [`encode_image`] state of a `tasks`-task run after `records` more
    /// records of the [`encode_records`] mix.
    pub(crate) struct DeltaCase {
        img: MasterImage,
        tail: Vec<Record>,
    }

    impl DeltaCase {
        pub(crate) fn new(tasks: usize, records: u64) -> Self {
            let mut img = sample_image(tasks);
            let tail: Vec<Record> = (0..records).map(sample_record).collect();
            for rec in &tail {
                // A finished task counts one dependent down.
                if let Record::Finished { task_idx, .. } = rec {
                    img.ledger.dirty.push(*task_idx as usize % tasks);
                }
            }
            DeltaCase { img, tail }
        }

        /// Encode the state as a delta image over the one before the tail:
        /// cost and size follow `records` (plus the live placements), not
        /// `tasks`.
        pub(crate) fn encode_delta(&self) -> Vec<u8> {
            let mut out = Vec::new();
            let img = &self.img;
            encode_delta(&mut out, &img.ledger, &img.worker_faults, &self.tail);
            out
        }
    }

    /// Decode `full ⊕ delta` the way recovery does, returning the result
    /// rows plus pending attempts the image ends up with — or an error,
    /// never a panic, for the decoder-robustness proptests.
    pub(crate) fn try_chain_decodes(
        full: &[u8],
        delta: &[u8],
    ) -> Result<usize, crate::journal::JournalError> {
        let mut img = MasterImage::decode(full)?;
        let mut queue = PendingFold::new(std::mem::take(&mut img.pending));
        img.apply_delta(&mut queue, delta)?;
        Ok(img.ledger.results.len() + queue.finish().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> TaskResult {
        TaskResult {
            task: TaskId(7),
            category: "hep".to_string(),
            worker: 3,
            allocated: Resources::new(2, 512, 1024),
            submitted_at: SimTime::ZERO,
            started_at: SimTime::from_secs(10.5),
            finished_at: SimTime::from_secs(99.25),
            stage_in_secs: 4.5,
            exec_secs: 80.0,
            outcome: MonitorOutcome::LimitExceeded {
                kind: ResourceKind::Memory,
                report: ResourceReport {
                    wall_secs: 80.0,
                    cpu_secs: 79.5,
                    peak_cores: 1.01,
                    peak_rss_mb: 620,
                    peak_processes: 3,
                    peak_disk_mb: 900,
                    read_bytes: 1 << 30,
                    write_bytes: 1 << 20,
                    polls: 80,
                    monitor_overhead_secs: 0.008,
                },
            },
            attempt: 1,
        }
    }

    fn all_records() -> Vec<Record> {
        vec![
            Record::RunStart {
                seed: 0xdead_beef,
                task_count: 100,
                worker_count: 8,
            },
            Record::Enqueue {
                task_idx: 3,
                attempt: 1,
                front: true,
                since: SimTime::from_secs(2.5),
            },
            Record::BackoffArm {
                task_idx: 4,
                attempt: 0,
                at: SimTime::from_secs(60.0),
            },
            Record::Placed {
                placement: 42,
                worker: 2,
                task_idx: 3,
                attempt: 1,
                alloc: Resources::new(1, 110, 1024),
                started_at: SimTime::from_secs(5.0),
                lease_at: Some(SimTime::from_secs(305.0)),
            },
            Record::Placed {
                placement: 43,
                worker: 2,
                task_idx: 5,
                attempt: 0,
                alloc: Resources::new(8, 8192, 16384),
                started_at: SimTime::from_secs(5.0),
                lease_at: None,
            },
            Record::Zombie { placement: 42 },
            Record::Freed { placement: 42 },
            Record::Result(Box::new(sample_result())),
            Record::Finished {
                task_idx: 3,
                success: true,
            },
            Record::Abandoned { task_idx: 9 },
            Record::Cancelled { task_idx: 10 },
            Record::Observe {
                cat: 1,
                peak_cores: 1.5,
                peak_rss_mb: 110,
                peak_disk_mb: 900,
                completed: true,
                violated: Some(ResourceKind::Disk),
            },
            Record::Retried { task_idx: 3 },
            Record::InfraRetried {
                task_idx: 4,
                count: 2,
            },
            Record::Streak { cat: 0, value: 3 },
            Record::WorkerFault {
                worker: 2,
                count: 4,
            },
            Record::Quarantined {
                worker: 2,
                release_at: SimTime::from_secs(400.0),
            },
            Record::QuarantineLifted { worker: 2 },
            Record::EnvFailure { count: 5 },
            Record::Degraded,
            Record::Counter {
                key: CounterKey::LostCoreSecs,
                amount: 123.75,
            },
            Record::Stolen {
                task_idx: 11,
                attempt: 0,
            },
            Record::RemoteDep { task_idx: 12 },
            Record::Submitted {
                task_idx: 100,
                cat: 2,
                spec: Some(Box::new(
                    TaskSpec::new(
                        TaskId(100),
                        "stream",
                        vec![
                            FileRef::data("in.pkl", 4096),
                            FileRef::environment("env.tar.gz", 1 << 20, 4 << 20, 500, 80),
                        ],
                        1 << 16,
                        SimTaskProfile {
                            duration_secs: 12.5,
                            cores_used: 1.25,
                            base_memory_mb: 64,
                            peak_memory_mb: 256,
                            mem_ramp_fraction: 0.4,
                            peak_disk_mb: 512,
                        },
                    )
                    .after(vec![TaskId(3)]),
                )),
            },
        ]
    }

    #[test]
    fn every_record_roundtrips() {
        for rec in all_records() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let mut r = Reader::new(&buf);
            let back = Record::decode(&mut r).expect("decodes");
            assert!(r.is_empty(), "trailing bytes after {rec:?}");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn record_stream_roundtrips() {
        let recs = all_records();
        let mut buf = Vec::new();
        for rec in &recs {
            rec.encode(&mut buf);
        }
        let mut r = Reader::new(&buf);
        let mut back = Vec::new();
        while !r.is_empty() {
            back.push(Record::decode(&mut r).expect("decodes"));
        }
        assert_eq!(back, recs);
    }

    #[test]
    fn truncated_record_reports_error() {
        let mut buf = Vec::new();
        Record::Result(Box::new(sample_result())).encode(&mut buf);
        for cut in [1, buf.len() / 2, buf.len() - 1] {
            let mut r = Reader::new(&buf[..cut]);
            assert!(Record::decode(&mut r).is_err(), "cut at {cut}");
        }
        let mut r = Reader::new(&[0xff]);
        assert_eq!(
            Record::decode(&mut r),
            Err(JournalError::BadTag("record", 0xff))
        );
    }

    fn graph(work: &PreparedWorkload) -> DepGraph<'_> {
        DepGraph { work, shard: None }
    }

    #[test]
    fn image_roundtrips_bitwise() {
        let mut img = MasterImage {
            ledger: Ledger::fresh(vec![0, 2, usize::MAX], 2),
            alloc_stats: vec![CategorySnap::default(); 2],
            ..MasterImage::default()
        };
        img.pending.push_back(Pending {
            task_idx: 0,
            attempt: 0,
            since: SimTime::ZERO,
        });
        img.pending.push_front(Pending {
            task_idx: 2,
            attempt: 1,
            since: SimTime::from_secs(3.0),
        });
        img.alloc_stats[0].cores.push(1.25);
        img.alloc_stats[0].memory_mb.push(110.0);
        img.alloc_stats[0].disk_mb.push(900.0);
        img.alloc_stats[0].completed = 1;
        img.worker_faults.insert(1, 4);
        let l = &mut img.ledger;
        l.backoffs.push((1, 0, SimTime::from_secs(90.0)));
        l.placements.insert(
            5,
            PlacementInfo {
                worker: 1,
                task_idx: 2,
                attempt: 0,
                allocated: Resources::new(1, 110, 1024),
                started_at: SimTime::from_secs(4.0),
                zombie: true,
                lease_at: Some(SimTime::from_secs(304.0)),
            },
        );
        l.next_placement = 6;
        l.completed = 1;
        l.abandoned = 1;
        l.results.push(sample_result());
        l.retried.insert(2);
        l.infra_retried.insert(1);
        l.infra_fail_count[1] = 3;
        l.cat_streak[1] = 2;
        l.quarantined_until.push((3, SimTime::from_secs(500.0)));
        l.quarantines = 1;
        l.degraded = true;
        l.env_failures = 6;
        l.counters = Counters {
            workers_provisioned: 9,
            workers_lost: 2,
            tasks_lost: 3,
            lease_reclaims: 1,
            stage_in_failures: 2,
            spurious_kills: 1,
            result_msgs_lost: 1,
            lost_core_secs: 55.5,
        };
        let bytes = img.encode();
        let back = MasterImage::decode(&bytes).expect("decodes");
        assert_eq!(back, img);
        // Same image → same bytes (snapshots are deterministic, so the
        // scheduler-equivalence suites pin journal byte-identity too).
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn wire_layout_is_pinned() {
        // Round-trip tests cannot see a layout change made to encoder and
        // decoder together. The record and full-image constants were
        // computed at the commit before the ledger refactor and have not
        // moved since; the delta image's were computed when it was added.
        use crate::faults::{FaultPlan, FaultSpec};
        use crate::master::{run_workload, MasterConfig};
        use lfm_pyenv::pack::fnv1a;
        let records = bench_api::encode_records(64);
        assert_eq!(
            (records.len(), fnv1a(&records)),
            (3161, 0xda16_6f30_a06d_81cd)
        );
        let image = bench_api::encode_image(64);
        assert_eq!((image.len(), fnv1a(&image)), (8983, 0xc72d_6dbd_c0e1_612b));
        let delta = bench_api::DeltaCase::new(64, 64).encode_delta();
        assert_eq!((delta.len(), fnv1a(&delta)), (4275, 0x6b4d_54d7_b633_27ac));

        // One fixed journaled chaos run: a small two-category DAG under
        // churn, loss, staging failures, spurious kills and three master
        // crashes, with a compacting snapshot every 64 records.
        let env = FileRef::environment("hep-env", 240 << 20, 600 << 20, 5000, 800);
        let tasks: Vec<TaskSpec> = (0..48u64)
            .map(|i| {
                let spec = TaskSpec::new(
                    TaskId(i),
                    if i % 3 == 0 { "reduce" } else { "map" },
                    vec![env.clone(), FileRef::data(format!("in-{i}"), 512 << 10)],
                    1 << 20,
                    SimTaskProfile::new(40.0 + i as f64, 1.0, 110 + 8 * (i % 5), 1024),
                );
                if i % 3 == 0 && i > 0 {
                    spec.after(vec![TaskId(i - 1), TaskId(i - 2)])
                } else {
                    spec
                }
            })
            .collect();
        let plan = FaultPlan::reliable()
            .with(FaultSpec::master_crash(30.0, 3))
            .with(FaultSpec::worker_churn(400.0))
            .with(FaultSpec::message_loss(0.05))
            .with(FaultSpec::stage_in_failure(0.1))
            .with(FaultSpec::spurious_kill(0.1));
        let cfg = MasterConfig::new(crate::allocate::Strategy::Auto(Default::default()))
            .with_faults(plan)
            .with_durability(DurabilityConfig::journal_with_snapshots(64))
            .with_seed(0x16);
        let node = lfm_simcluster::node::NodeSpec::new(8, 8192, 16384);
        let report = run_workload(&cfg, tasks, 4, node);
        assert_eq!((report.master_crashes, report.recoveries), (3, 3));
        // `journal_bytes` was 61985 while every compaction wrote a full
        // image; re-pinned once when all but the rebasing ones became delta
        // images. The tail is cleared at the same points, so what a
        // recovery replays did not move.
        assert_eq!((report.journal_bytes, report.replayed_events), (45178, 98));
    }

    /// The parts of a master an image is made of, driven the way the master
    /// drives them: every record is appended, applied to the ledger and —
    /// standing in for the live scheduler and allocator — to a plain deque
    /// and the sample stores.
    #[derive(Default)]
    struct Live {
        journal: Journal,
        ledger: Ledger,
        pending: VecDeque<Pending>,
        stats: Vec<CategorySnap>,
        faults: BTreeMap<u32, u32>,
    }

    impl Live {
        fn commit(&mut self, rec: Record, graph: &DepGraph<'_>) {
            self.journal.append(&rec);
            observe_into(&mut self.stats, &rec);
            match rec {
                Record::Enqueue {
                    task_idx,
                    attempt,
                    front,
                    since,
                } => {
                    let item = Pending {
                        task_idx: task_idx as usize,
                        attempt,
                        since,
                    };
                    if front {
                        self.pending.push_front(item);
                    } else {
                        self.pending.push_back(item);
                    }
                }
                Record::Placed {
                    task_idx, attempt, ..
                }
                | Record::Stolen { task_idx, attempt } => {
                    let at = (self.pending.iter())
                        .position(|p| p.task_idx as u64 == task_idx && p.attempt == attempt);
                    self.pending.remove(at.expect("departures were queued"));
                }
                _ => {}
            }
            self.ledger.apply(rec, graph);
        }

        /// Sample stores as `Allocator::snapshot_category` exports them.
        fn canonical_stats(&self) -> Vec<CategorySnap> {
            let mut stats = self.stats.clone();
            stats.resize_with(self.ledger.cat_streak.len(), CategorySnap::default);
            for s in &mut stats {
                for axis in [&mut s.cores, &mut s.memory_mb, &mut s.disk_mb] {
                    axis.sort_unstable_by(f64::total_cmp);
                }
            }
            stats
        }

        fn compact(&mut self) {
            let views = (
                self.pending.iter().cloned().collect(),
                self.canonical_stats(),
            );
            (self.journal).compact(&self.ledger, &self.faults, || views);
            self.ledger.dirty.clear();
        }

        fn image(&self) -> MasterImage {
            MasterImage {
                ledger: self.ledger.clone(),
                pending: self.pending.clone(),
                alloc_stats: self.canonical_stats(),
                worker_faults: self.faults.clone(),
            }
        }
    }

    fn enqueue(task_idx: u64, attempt: u32, front: bool) -> Record {
        Record::Enqueue {
            task_idx,
            attempt,
            front,
            since: SimTime::from_secs(task_idx as f64),
        }
    }

    fn placed(task_idx: u64, attempt: u32) -> Record {
        Record::Placed {
            // A fresh id per attempt, as the master's counter hands out.
            placement: 2 * task_idx + u64::from(attempt),
            worker: 0,
            task_idx,
            attempt,
            alloc: Resources::new(1, 1, 1),
            started_at: SimTime::ZERO,
            lease_at: None,
        }
    }

    #[test]
    fn journal_compaction_drops_tail_and_counts_bytes() {
        let mut live = Live {
            ledger: Ledger::fresh(vec![0, 0], 1),
            ..Live::default()
        };
        let j = &mut live.journal;
        assert!(!j.wants_snapshot(Some(2)));
        j.append(&Record::Degraded);
        j.append(&Record::Freed { placement: 1 });
        assert!(j.wants_snapshot(Some(2)));
        assert!(!j.wants_snapshot(None));
        assert_eq!(j.tail().len(), 2);
        let bytes_before = j.bytes_written();
        assert!(bytes_before > 0);
        live.compact();
        let j = &live.journal;
        assert_eq!(j.tail().len(), 0);
        assert!(!j.wants_snapshot(Some(2)));
        assert!(j.bytes_written() > bytes_before, "snapshot bytes count");
        let base = j.base_image().expect("decodes").expect("present");
        assert_eq!(base, live.image());
        // A fresh journal has no base image.
        assert!(Journal::default().base_image().unwrap().is_none());
    }

    #[test]
    fn zero_snapshot_interval_reads_as_one() {
        // `journal_with_snapshots` refuses 0, a struct literal does not.
        let mut j = Journal::default();
        assert!(!j.wants_snapshot(Some(0)), "nothing to compact yet");
        j.append(&Record::Degraded);
        assert!(j.wants_snapshot(Some(0)));
        assert!(j.wants_snapshot(Some(1)));
    }

    #[test]
    fn pending_fold_equals_deque_replay() {
        // Front and back arrivals, departures from the imaged queue and from
        // the arrivals, a requeue of a departed attempt, a departure of an
        // attempt that is not queued: the fold ends where a deque that
        // searches for every departure does.
        let imaged: VecDeque<Pending> = (0..4)
            .map(|task_idx| Pending {
                task_idx,
                attempt: 0,
                since: SimTime::ZERO,
            })
            .collect();
        let ops = [
            placed(2, 0),
            enqueue(7, 0, true),
            enqueue(8, 0, false),
            enqueue(2, 0, true),
            placed(0, 0),
            placed(8, 0),
            enqueue(9, 1, false),
            placed(5, 0),
            Record::Stolen {
                task_idx: 7,
                attempt: 0,
            },
            enqueue(7, 0, false),
            Record::Degraded,
        ];
        let mut fold = PendingFold::new(imaged);
        for rec in &ops {
            fold.apply(rec);
        }
        let order: Vec<(usize, u32)> = (fold.finish().iter())
            .map(|p| (p.task_idx, p.attempt))
            .collect();
        assert_eq!(order, vec![(2, 0), (1, 0), (3, 0), (9, 1), (7, 0)]);
    }

    #[test]
    fn delta_chain_decodes_to_the_full_image() {
        // Two constructed tasks (1 depends on 0) and, later, two streamed
        // ones — the second in a category the run had not seen.
        let profile = SimTaskProfile::new(1.0, 1.0, 1, 1);
        let spec = |id: u64, cat: &str| TaskSpec::new(TaskId(id), cat, vec![], 0, profile);
        let mut work =
            PreparedWorkload::new(vec![spec(0, "a"), spec(1, "a").after(vec![TaskId(0)])]);
        let observe = |cat, rss, violated: Option<ResourceKind>| Record::Observe {
            cat,
            peak_cores: 1.0,
            peak_rss_mb: rss,
            peak_disk_mb: 10,
            completed: violated.is_none(),
            violated,
        };
        let mut live = Live {
            ledger: Ledger::fresh(vec![0, 1], 1),
            ..Live::default()
        };
        let g = graph(&work);
        live.commit(observe(0, 300, None), &g);
        live.commit(Record::Result(Box::new(sample_result())), &g);
        live.commit(enqueue(0, 0, false), &g);
        live.commit(enqueue(1, 0, false), &g);
        live.compact();
        assert_eq!(live.journal.chain.len(), 1, "the first image is a full one");
        assert_eq!(live.journal.base_image().unwrap(), Some(live.image()));

        // A tail that touches every kind of delta content: queue traffic
        // (a departure from the imaged queue, a front requeue of the same
        // attempt, an arrival that leaves again), a smaller sample than the
        // one imaged (canonical order must be restored), a kill (one
        // censored axis), a countdown, retry sets, and a result row.
        live.commit(placed(0, 0), &g);
        live.commit(enqueue(0, 0, true), &g);
        live.commit(enqueue(0, 1, false), &g);
        live.commit(placed(0, 1), &g);
        live.commit(observe(0, 200, None), &g);
        live.commit(observe(0, 250, Some(ResourceKind::Memory)), &g);
        live.commit(
            Record::Finished {
                task_idx: 0,
                success: true,
            },
            &g,
        );
        live.commit(Record::Retried { task_idx: 1 }, &g);
        live.commit(
            Record::InfraRetried {
                task_idx: 1,
                count: 2,
            },
            &g,
        );
        live.commit(Record::Result(Box::new(sample_result())), &g);
        live.faults.insert(3, 1);
        assert_eq!(live.ledger.dirty, vec![1, 1, 1]);
        live.compact();
        assert_eq!(live.journal.chain.len(), 2, "then deltas");
        let queued: Vec<usize> = live.pending.iter().map(|p| p.task_idx).collect();
        assert_eq!(queued, vec![0, 1]);
        assert_eq!(live.journal.base_image().unwrap(), Some(live.image()));

        // Streamed admissions grow the per-task and per-category vectors
        // between images; one of the new tasks is cancelled right away.
        for (idx, cat, name) in [(2u64, 0u32, "a"), (3, 1, "b")] {
            assert_eq!(work.admit(spec(idx, name)), cat);
            live.commit(
                Record::Submitted {
                    task_idx: idx,
                    cat,
                    spec: Some(Box::new(spec(idx, name))),
                },
                &graph(&work),
            );
        }
        let g = graph(&work);
        live.commit(Record::Cancelled { task_idx: 2 }, &g);
        live.commit(observe(1, 50, None), &g);
        live.commit(enqueue(3, 0, false), &g);
        live.compact();
        let img = live.image();
        assert_eq!(img.ledger.dep_remaining, vec![0, 0, usize::MAX, 0]);
        assert_eq!((img.alloc_stats.len(), img.ledger.cat_streak.len()), (2, 2));
        assert_eq!(live.journal.base_image().unwrap(), Some(img));
    }

    #[test]
    fn chain_rebases_once_deltas_outweigh_the_full_image() {
        // Each tail adds one result row, so full images grow and deltas do
        // not: the chain must keep resetting to one segment, total bytes
        // must stay within a constant of the last full image plus the rows,
        // and what it decodes to must be the live image throughout.
        let work = PreparedWorkload::new(Vec::new());
        let g = graph(&work);
        let mut live = Live {
            ledger: Ledger::fresh(Vec::new(), 1),
            ..Live::default()
        };
        let (mut fulls, mut longest) = (0, 0);
        for _ in 0..200 {
            live.commit(Record::Result(Box::new(sample_result())), &g);
            live.compact();
            let j = &live.journal;
            fulls += (j.chain.len() == 1) as usize;
            longest = longest.max(j.chain.len());
            let deltas: usize = j.chain[1..].iter().map(Vec::len).sum();
            assert_eq!(deltas, j.delta_bytes);
            let one_delta = j.chain.last().map_or(0, Vec::len);
            assert!(
                deltas <= j.chain[0].len() + one_delta,
                "recovery reads at most about two full images"
            );
            assert_eq!(j.base_image().unwrap(), Some(live.image()));
        }
        assert!(longest > 4, "deltas are the common case");
        assert!((4..=12).contains(&fulls), "{fulls} full images in 200");
        let row = {
            let mut buf = Vec::new();
            put_result(&mut buf, &sample_result());
            buf.len() as u64
        };
        // Every image a full one would have written ~200²/2 rows.
        assert!(live.journal.bytes_written() < 200 * row * 12);
    }

    #[test]
    fn truncated_or_misfitting_delta_reports_error() {
        let full = bench_api::encode_image(12);
        let delta = bench_api::DeltaCase::new(12, 24).encode_delta();
        let base = MasterImage::decode(&full).expect("decodes");
        let apply = |delta: &[u8]| {
            (base.clone()).apply_delta(&mut PendingFold::new(VecDeque::new()), delta)
        };
        apply(&delta).expect("whole delta applies");
        for cut in 0..full.len() {
            assert!(MasterImage::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        for cut in 0..delta.len() {
            assert_eq!(
                apply(&delta[..cut]),
                Err(JournalError::Truncated),
                "cut at {cut}"
            );
        }
        // Deltas that decode but do not fit the image they are applied to.
        let l = Ledger::fresh(vec![0; 12], 4);
        let entry_at = |touched: usize| {
            let mut l = l.clone();
            l.dirty.push(touched);
            l.dep_remaining.resize(touched + 1, 0);
            l.infra_fail_count.resize(touched + 1, 0);
            let mut out = Vec::new();
            encode_delta(&mut out, &l, &BTreeMap::new(), &[]);
            out
        };
        apply(&entry_at(11)).expect("in range");
        apply(&entry_at(12)).expect("one past the end");
        assert_eq!(
            apply(&entry_at(13)),
            Err(JournalError::Inconsistent("task index"))
        );
        let mut shrunk = Vec::new();
        let small = Ledger::fresh(vec![0; 11], 4);
        encode_delta(&mut shrunk, &small, &BTreeMap::new(), &[]);
        assert_eq!(
            apply(&shrunk),
            Err(JournalError::Inconsistent("task count"))
        );
        let tail = [Record::Observe {
            cat: 4,
            peak_cores: 1.0,
            peak_rss_mb: 1,
            peak_disk_mb: 1,
            completed: true,
            violated: None,
        }];
        let mut foreign = Vec::new();
        encode_delta(&mut foreign, &l, &BTreeMap::new(), &tail);
        assert_eq!(
            apply(&foreign),
            Err(JournalError::Inconsistent("observed category"))
        );
        // A queue section holds nothing but queue operations.
        let mut not_an_op = vec![1, 0, 0, 0, 0, 0, 0, 0];
        Record::Degraded.encode(&mut not_an_op);
        assert_eq!(
            apply(&not_an_op),
            Err(JournalError::Inconsistent("queue operation"))
        );
    }

    #[test]
    fn fresh_ledger_mirrors_dep_state() {
        let l = Ledger::fresh(vec![0, 1, usize::MAX], 2);
        assert_eq!(l.dep_remaining, vec![0, 1, usize::MAX]);
        assert_eq!(l.infra_fail_count, vec![0, 0, 0]);
        assert_eq!(l.cat_streak, vec![0, 0]);
        assert_eq!(l.completed, 0);
    }

    #[test]
    fn finished_releases_each_dependent_once() {
        // Task 2 lists task 0 twice and task 1 once; task 3 is another
        // shard's. A success of 0 counts 2 down twice without readying it;
        // a failure of 0 would have left the counts alone.
        let profile = SimTaskProfile::new(1.0, 1.0, 1, 1);
        let task = |id: u64, deps: Vec<u64>| {
            TaskSpec::new(TaskId(id), "x", vec![], 0, profile)
                .after(deps.into_iter().map(TaskId).collect())
        };
        let work = PreparedWorkload::new(vec![
            task(0, vec![]),
            task(1, vec![]),
            task(2, vec![0, 0, 1]),
            task(3, vec![0]),
        ]);
        let owner = [0, 0, 0, 1];
        let sharded = DepGraph {
            shard: Some((&owner, 0)),
            ..graph(&work)
        };
        let finished = |task_idx, success| Record::Finished { task_idx, success };
        let mut l = Ledger::fresh(vec![0, 0, 3, 1], 1);
        assert!(l.apply(finished(0, false), &sharded).is_empty());
        assert_eq!((l.completed, &l.dep_remaining[..]), (1, &[0, 0, 3, 1][..]));
        assert!(l.apply(finished(0, true), &sharded).is_empty());
        assert_eq!(l.dep_remaining, vec![0, 0, 1, 1], "3 is remote");
        assert_eq!(l.apply(finished(1, true), &sharded), vec![2]);
        // Unsharded, the same success also releases task 3.
        let mut l = Ledger::fresh(vec![0, 0, 3, 1], 1);
        assert_eq!(l.apply(finished(0, true), &graph(&work)), vec![3]);
        // A cancelled dependent stays cancelled.
        let mut l = Ledger::fresh(vec![0, 0, usize::MAX, 1], 1);
        assert!(l.apply(finished(1, true), &sharded).is_empty());
        assert_eq!(l.dep_remaining[2], usize::MAX);
        // A remote dependency completing is the same countdown.
        let mut l = Ledger::fresh(vec![0, 0, 3, 1], 1);
        assert_eq!(
            l.apply(Record::RemoteDep { task_idx: 3 }, &sharded),
            vec![3]
        );
    }

    // ---- oracle: the id-ordered map the placement window replaced ----

    fn info(id: u64) -> PlacementInfo {
        PlacementInfo {
            worker: (id % 7) as u32,
            task_idx: id as usize * 3,
            attempt: (id % 2) as u32,
            allocated: Resources::new(1, 100 + id, 1000),
            started_at: SimTime::from_secs(id as f64 * 0.5),
            zombie: false,
            lease_at: id
                .is_multiple_of(3)
                .then(|| SimTime::from_secs(id as f64 + 90.0)),
        }
    }

    /// [`put_live`] as it was written over `BTreeMap<u64, PlacementInfo>`
    /// (no backoffs armed).
    fn put_live_oracle(map: &BTreeMap<u64, PlacementInfo>, next_placement: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, 0);
        put_u64(&mut out, map.len() as u64);
        for (&id, p) in map {
            put_u64(&mut out, id);
            put_u32(&mut out, p.worker);
            put_u64(&mut out, p.task_idx as u64);
            put_u32(&mut out, p.attempt);
            put_resources(&mut out, &p.allocated);
            put_time(&mut out, p.started_at);
            put_bool(&mut out, p.zombie);
            put_lease(&mut out, p.lease_at);
        }
        put_u64(&mut out, next_placement);
        out
    }

    /// Slots held, live or not.
    fn slots(p: &Placements) -> usize {
        p.window.len() + p.spill.len()
    }

    fn live_bytes(l: &Ledger) -> Vec<u8> {
        let mut out = Vec::new();
        put_live(&mut out, l);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The window is the map it replaced for everything the master and
        /// the codec do with it — `get`, `len`, ascending
        /// iteration, the bytes `put_live` writes and what `read_live` makes
        /// of them — under ids that only grow (now and then by a jump) and
        /// removals of the oldest, the newest, a uniform pick or an absent
        /// id, with zombies marked along the way. Slots stay O(live).
        #[test]
        fn placement_window_equals_the_btreemap_oracle(
            ops in proptest::collection::vec((0u8..9, 0u64..1 << 20, 0u64..40), 1..400),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut l = Ledger::default();
            let mut oracle: BTreeMap<u64, PlacementInfo> = BTreeMap::new();
            for (kind, pick, jump) in ops {
                let live: Vec<u64> = oracle.keys().copied().collect();
                // One of the four oldest, or of the four newest.
                let nth = |from_old: bool| {
                    let i = (pick % 4) as usize % live.len().max(1);
                    let at = if from_old { i } else { live.len().wrapping_sub(1 + i) };
                    live.get(at).copied()
                };
                match kind {
                    // Arrivals outnumber departures, so the live set grows.
                    0..=3 => {
                        // Mostly the next id; sometimes a jump, small or vast.
                        let id = l.next_placement + match jump {
                            0 => pick << 20,
                            1..=4 => jump,
                            _ => 0,
                        };
                        prop_assert!(l.placements.insert(id, info(id)));
                        oracle.insert(id, info(id));
                        l.next_placement = id + 1;
                    }
                    4 => if let Some(id) = nth(true) {
                        prop_assert_eq!(l.placements.remove(id), oracle.remove(&id));
                    },
                    5 => if let Some(id) = nth(false) {
                        prop_assert_eq!(l.placements.remove(id), oracle.remove(&id));
                    },
                    6 => if let Some(&id) = live.get(pick as usize % live.len().max(1)) {
                        prop_assert_eq!(l.placements.remove(id), oracle.remove(&id));
                    },
                    7 => if let Some(&id) = live.get(pick as usize % live.len().max(1)) {
                        l.placements.get_mut(id).expect("live").zombie = true;
                        oracle.get_mut(&id).expect("live").zombie = true;
                    },
                    // An id that is not held: dead, never issued, or stale.
                    _ => {
                        let id = if jump % 2 == 0 { pick } else { l.next_placement + jump };
                        prop_assert_eq!(l.placements.remove(id), oracle.remove(&id));
                        // No id at or below one ever held is taken back.
                        if let Some(&newest) = live.last() {
                            let reissued = newest - pick % (newest + 1);
                            prop_assert!(!l.placements.insert(reissued, info(0)));
                        }
                    }
                }
                prop_assert_eq!(l.placements.len(), oracle.len());
                for id in live.iter().copied().chain([pick, l.next_placement, l.next_placement + jump]) {
                    prop_assert_eq!(l.placements.get(id), oracle.get(&id));
                }
                prop_assert_eq!(
                    l.placements.iter().map(|(id, p)| (id, *p)).collect::<Vec<_>>(),
                    oracle.iter().map(|(&id, p)| (id, *p)).collect::<Vec<_>>()
                );
                let bytes = live_bytes(&l);
                prop_assert_eq!(&bytes, &put_live_oracle(&oracle, l.next_placement));
                prop_assert!(
                    slots(&l.placements) <= 5 * oracle.len() + 64,
                    "{} slots for {} live", slots(&l.placements), oracle.len()
                );
                // Decoded, it is the same set of placements (whatever its
                // window and spill look like) and writes the same bytes.
                let mut back = Ledger::default();
                read_live(&mut Reader::new(&bytes), &mut back).expect("decodes");
                prop_assert_eq!(&back.placements, &l.placements);
                prop_assert_eq!(live_bytes(&back), bytes);
            }
        }
    }

    #[test]
    fn pinned_old_placements_cost_no_slots_for_the_ids_between() {
        // Two zombies await their leases while 10^5 placements come and go,
        // at most eight live at a time.
        let mut p = Placements::default();
        for id in 0..8 {
            assert!(p.insert(id, info(id)));
        }
        for id in [1, 5] {
            p.get_mut(id).unwrap().zombie = true;
        }
        for id in [0, 2, 3, 4, 6, 7] {
            assert_eq!(p.remove(id), Some(info(id)));
        }
        for id in 8..100_008u64 {
            assert!(p.insert(id, info(id)));
            if id >= 16 {
                assert!(p.remove(id - 8).is_some());
            }
            assert!(slots(&p) <= 5 * p.len() + 64, "{} slots", slots(&p));
        }
        assert_eq!(p.len(), 2 + 8);
        let ids: Vec<u64> = p.iter().map(|(id, _)| id).collect();
        assert_eq!(ids[..2], [1, 5]);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending: {ids:?}");
        assert!(p.get(1).unwrap().zombie && p.get(5).is_some() && p.get(6).is_none());
        assert_eq!(p.remove(5).map(|z| z.zombie), Some(true));
        assert_eq!(p.len(), 9);
    }

    #[test]
    fn read_live_takes_any_id_sequence_without_panic_or_span_allocation() {
        let live_section = |ids: &[u64]| {
            let mut out = Vec::new();
            put_u64(&mut out, 0);
            put_u64(&mut out, ids.len() as u64);
            for &id in ids {
                put_u64(&mut out, id);
                put_u32(&mut out, 1);
                put_u64(&mut out, 2);
                put_u32(&mut out, 0);
                put_resources(&mut out, &Resources::new(1, 1, 1));
                put_time(&mut out, SimTime::ZERO);
                put_bool(&mut out, false);
                put_lease(&mut out, None);
            }
            put_u64(&mut out, ids.last().map_or(0, |id| id.wrapping_add(1)));
            out
        };
        let decode = |ids: &[u64]| {
            let mut l = Ledger::default();
            read_live(&mut Reader::new(&live_section(ids)), &mut l).map(|()| l.placements)
        };
        // A vast gap decodes into a handful of slots.
        let far = decode(&[0, 1 << 60, (1 << 60) + 3, u64::MAX]).expect("ascending ids decode");
        assert_eq!(far.len(), 4);
        assert!(slots(&far) <= 8, "{} slots", slots(&far));
        assert!([0, 1 << 60, u64::MAX]
            .iter()
            .all(|&id| far.get(id).is_some()));
        // Ids out of order or repeated are a typed error.
        let bad = Err(JournalError::Inconsistent("placement ids do not ascend"));
        assert_eq!(decode(&[5, 3]), bad);
        assert_eq!(decode(&[4, 4]), bad);
        assert_eq!(decode(&[0, 1 << 60, 7]), bad);
        // A count the bytes cannot back is a truncation, not an allocation.
        let mut lying = live_section(&[1, 2]);
        lying[8..16].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let mut l = Ledger::default();
        assert_eq!(
            read_live(&mut Reader::new(&lying), &mut l),
            Err(JournalError::Truncated)
        );
    }

    #[test]
    fn durability_presets() {
        let none = DurabilityConfig::none();
        assert!(!none.journal);
        let j = DurabilityConfig::journal_only();
        assert!(j.journal && j.snapshot_every.is_none());
        let s = DurabilityConfig::journal_with_snapshots(256);
        assert_eq!(s.snapshot_every, Some(256));
        assert!(s.restart_secs > 0.0);
    }
}
