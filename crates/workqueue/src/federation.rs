//! Hierarchical foreman federation: many masters instead of a faster one.
//!
//! The single Work Queue master is an event-loop bottleneck — the indexed
//! scheduler (PR 3) made each event cheap, but every event still funnels
//! through one queue. This module shards the master Work-Queue-foreman
//! style: a root driver partitions the task DAG across `N` sub-masters,
//! each owning its own event loop, journal, fault machinery, scheduler,
//! and worker pool slice. Three mechanisms stitch the shards back into one
//! logical run:
//!
//! * **Partitioning** ([`PartitionPolicy`]) — [`PartitionPolicy::ByComponent`]
//!   (the default) keeps weakly-connected DAG components together (zero
//!   cross-shard dependency edges), balancing components across shards by
//!   total duration. `ByCategory` and `RoundRobin` trade cross-shard edges
//!   for spread.
//! * **Handoff** ([`HandoffConfig`]) — when a producer finishes on one
//!   shard and its dependent is owned by another, a `Release` message rides
//!   a simulated inter-shard link (latency + output bytes over bandwidth)
//!   and lands as a world event on the owner's calendar. Permanent failures
//!   ship `Cancel` the same way; the owner accounts the abandonment and
//!   continues the cascade.
//! * **Work stealing** ([`StealingConfig`]) — after every step, shards with
//!   an empty pending queue steal batches of queued *first attempts* from
//!   the hottest shard (coldest-policy-order tasks first). Migrations are
//!   journaled on the victim (`Stolen`) so a crash cannot resurrect the
//!   task there, and complete on the thief.
//!
//! **Equivalence discipline:** a 1-shard federation runs the exact
//! single-master code path (the ownership filter is vacuous, the outbox
//! stays empty) and produces a bitwise-identical [`RunReport`]. N-shard
//! runs conserve tasks — successes plus abandoned equals submitted, no
//! double completion — under the full fault matrix; per-shard master
//! crashes require journaled durability (a journal-less full restart only
//! re-enqueues *owned* roots and would lose stolen tasks and remote
//! releases, so [`run_federated`] rejects that configuration).
//!
//! The driver itself is deterministic: shards advance strictly in global
//! event-time order (ties to the lowest shard index), so a federated run
//! is a pure function of its inputs, exactly like the single master — also
//! when the shards advance on several threads between steals, in *parallel
//! windows* that replay the run sequentially if a steal turns out due.

use crate::faults::FaultKind;
use crate::master::{Event, Master, MasterConfig, OutMsg, RunReport};
use crate::prepared::PreparedWorkload;
use crate::task::{TaskId, TaskSpec};
use lfm_simcluster::node::NodeSpec;
use lfm_simcluster::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Instant;

/// Process-global default shard count, read by [`MasterConfig::new`] so
/// the `paper` binary can turn `--shards N` into federated runs without
/// threading a parameter through every call site.
static DEFAULT_SHARDS: AtomicU32 = AtomicU32::new(1);

/// Install the default shard count for subsequently constructed
/// [`MasterConfig`]s (clamped to at least 1). Used by `paper --shards N`.
pub fn set_default_shards(n: u32) {
    DEFAULT_SHARDS.store(n.max(1), Ordering::Relaxed);
}

pub(crate) fn default_shards() -> u32 {
    DEFAULT_SHARDS.load(Ordering::Relaxed)
}

/// How the task space is split across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionPolicy {
    /// `task_idx % shards`. Maximizes spread and cross-shard dependency
    /// edges — the handoff stress test.
    RoundRobin,
    /// Tasks of one category stay together (first-appearance order modulo
    /// shards), so each shard's allocator learns its categories from the
    /// full sample stream.
    ByCategory,
    /// Weakly-connected DAG components stay together (zero cross-shard
    /// dependency edges); components are balanced across shards by total
    /// profile duration, heaviest first (default).
    #[default]
    ByComponent,
}

/// The simulated inter-shard link that `Release`/`Cancel` handoffs and
/// stolen tasks ride.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoffConfig {
    /// One-way message latency, seconds.
    pub latency_secs: f64,
    /// Link bandwidth for dependency outputs (bytes/second).
    pub bandwidth_bytes_per_sec: f64,
}

impl Default for HandoffConfig {
    fn default() -> Self {
        HandoffConfig {
            latency_secs: 0.05,
            bandwidth_bytes_per_sec: 1.25e9,
        }
    }
}

/// Work-stealing balancer knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealingConfig {
    /// Most tasks migrated per steal (0 disables stealing).
    pub max_batch: usize,
    /// A victim must have at least this many queued tasks to be robbed.
    pub min_victim: usize,
}

impl Default for StealingConfig {
    fn default() -> Self {
        StealingConfig {
            max_batch: 8,
            min_victim: 2,
        }
    }
}

/// Federation shape: shard count plus the partition, handoff, and stealing
/// policies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FederationConfig {
    pub shards: u32,
    pub partition: PartitionPolicy,
    pub handoff: HandoffConfig,
    pub stealing: StealingConfig,
}

impl FederationConfig {
    pub fn new(shards: u32) -> Self {
        FederationConfig {
            shards: shards.max(1),
            ..FederationConfig::default()
        }
    }

    pub fn with_partition(mut self, p: PartitionPolicy) -> Self {
        self.partition = p;
        self
    }
}

/// Assign every task an owning shard under `policy`. Deterministic in the
/// task order. A dependency on an id outside `tasks` is ignored.
pub fn partition(tasks: &[TaskSpec], shards: u32, policy: PartitionPolicy) -> Vec<u32> {
    assert!(shards > 0, "need at least one shard");
    if shards == 1 {
        return vec![0; tasks.len()];
    }
    match policy {
        PartitionPolicy::RoundRobin => (0..tasks.len()).map(|i| i as u32 % shards).collect(),
        PartitionPolicy::ByCategory => {
            // Category ids in first-seen order, as a prepared workload has them.
            let mut ids: BTreeMap<&str, u32> = BTreeMap::new();
            (tasks.iter())
                .map(|t| {
                    let next = ids.len() as u32;
                    *ids.entry(&t.category).or_insert(next) % shards
                })
                .collect()
        }
        PartitionPolicy::ByComponent => {
            let ids: HashMap<TaskId, usize> =
                tasks.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
            let ids = &ids;
            let edges = (tasks.iter().enumerate())
                .flat_map(|(i, t)| t.deps.iter().filter_map(move |d| Some((i, *ids.get(d)?))));
            by_component(tasks.len(), shards, edges, |i| {
                tasks[i].profile.duration_secs
            })
        }
    }
}

/// [`partition`] of a prepared workload: categories are already ids in
/// first-seen order, dependency edges a table by index.
pub(crate) fn partition_prepared(
    work: &PreparedWorkload,
    shards: u32,
    policy: PartitionPolicy,
) -> Vec<u32> {
    assert!(shards > 0, "need at least one shard");
    let n = work.len();
    if shards == 1 {
        return vec![0; n];
    }
    match policy {
        PartitionPolicy::RoundRobin => (0..n).map(|i| i as u32 % shards).collect(),
        PartitionPolicy::ByCategory => work.cat_of.iter().map(|&c| c % shards).collect(),
        PartitionPolicy::ByComponent => {
            let edges = (0..n).flat_map(|i| work.dependents(i).map(move |d| (i, d)));
            by_component(n, shards, edges, |i| work.tasks[i].profile.duration_secs)
        }
    }
}

/// `ByComponent` over `n` tasks joined by `edges` (index pairs, any order):
/// whole weakly-connected components by summed `duration`, heaviest first
/// (ties: earliest), onto the least-loaded shard.
fn by_component(
    n: usize,
    shards: u32,
    edges: impl Iterator<Item = (usize, usize)>,
    duration: impl Fn(usize) -> f64,
) -> Vec<u32> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (i, j) in edges {
        let (a, b) = (find(&mut parent, i), find(&mut parent, j));
        if a != b {
            parent[a.max(b)] = a.min(b);
        }
    }
    // A root is its component's first index, so per-component data are flat
    // arrays indexed by root.
    let mut weight = vec![0.0f64; n];
    for i in 0..n {
        weight[find(&mut parent, i)] += duration(i);
    }
    // Heaviest first, ties to the earliest root. A weight's bits with the
    // sign flipped (all of them when negative) order like the number; a sum
    // from +0.0 is never -0.0, the one value where they would not.
    let mut comps: Vec<(Reverse<u64>, usize)> = (0..n)
        .filter(|&i| parent[i] == i)
        .map(|root| {
            let bits = weight[root].to_bits();
            assert!(!weight[root].is_nan(), "durations are finite");
            (Reverse(bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)), root)
        })
        .collect();
    comps.sort_unstable();
    let mut load = vec![0.0f64; shards as usize];
    let mut comp_shard = vec![0u32; n];
    for (_, root) in comps {
        let s = load.iter().enumerate().fold(
            0usize,
            |best, (i, &l)| if l < load[best] { i } else { best },
        );
        load[s] += weight[root];
        comp_shard[root] = s as u32;
    }
    (0..n).map(|i| comp_shard[find(&mut parent, i)]).collect()
}

/// The result of a federated run: the merged report plus per-shard
/// attribution and balancer telemetry.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// The run as a single logical report. For 1 shard this is the shard's
    /// report verbatim (bitwise-identical to the standalone master); for N
    /// shards counters are summed, makespan is the max, and results are
    /// concatenated shard-major.
    pub merged: RunReport,
    /// Each shard's own report. Note `task_count` on these equals the full
    /// workload size — the shards share one task vector (addressed by
    /// global index) and each enqueues only its owned slice. For N > 1
    /// shards their `results` are empty: the rows were moved into `merged`.
    pub shard_reports: Vec<RunReport>,
    pub shards: u32,
    /// Steal batches executed.
    pub steals: u64,
    /// Tasks migrated by the balancer.
    pub stolen_tasks: u64,
    /// `Release` + `Cancel` handoff messages delivered across shards.
    pub cross_shard_releases: u64,
    /// Dependency-output bytes that rode the inter-shard link.
    pub handoff_bytes: u64,
    /// Simulation events processed per shard.
    pub shard_events: Vec<u64>,
    /// Tasks that reached a terminal state per shard (stolen tasks count on
    /// the thief).
    pub shard_completed: Vec<u64>,
    /// Host wall-clock seconds spent stepping each shard's event loop. Shards
    /// step concurrently inside parallel windows, so the sum may exceed the
    /// wall seconds of the whole run.
    pub shard_wall_secs: Vec<f64>,
}

/// Run `tasks` across a federation of sub-masters. `worker_count` workers
/// are split as evenly as possible across shards (the shard count is
/// clamped so every shard gets at least one worker).
pub fn run_federated(
    config: &MasterConfig,
    fed: &FederationConfig,
    tasks: Vec<TaskSpec>,
    worker_count: u32,
    spec: NodeSpec,
) -> FederationReport {
    assert!(!tasks.is_empty(), "empty workload");
    let work = Arc::new(PreparedWorkload::new(tasks));
    run_shards(config, fed, work, worker_count, spec)
}

/// [`run_federated`] over a workload already prepared: every shard shares
/// the one table. The shards step on up to one host thread per core.
pub(crate) fn run_shards(
    config: &MasterConfig,
    fed: &FederationConfig,
    work: Arc<PreparedWorkload>,
    worker_count: u32,
    spec: NodeSpec,
) -> FederationReport {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    run_shards_on(config, fed, work, worker_count, spec, threads)
}

/// [`run_shards`] on at most `threads` host threads: the same report.
fn run_shards_on(
    config: &MasterConfig,
    fed: &FederationConfig,
    work: Arc<PreparedWorkload>,
    worker_count: u32,
    spec: NodeSpec,
    threads: usize,
) -> FederationReport {
    assert!(worker_count > 0, "need at least one worker");
    assert!(!work.is_empty(), "empty workload");
    let shards = fed.shards.clamp(1, worker_count);
    let has_master_crash = config
        .faults
        .specs()
        .iter()
        .any(|s| matches!(s.kind, FaultKind::MasterCrash { .. }));
    assert!(
        shards == 1 || !has_master_crash || config.durability.journal,
        "N-shard federation under master crashes requires journaled durability: \
         a journal-less full restart re-enqueues only owned roots and would lose \
         stolen tasks and remote releases (breaking task conservation)"
    );

    let owner = partition_prepared(&work, shards, fed.partition);
    let mut owned = vec![Vec::new(); shards as usize];
    for (i, &s) in owner.iter().enumerate() {
        owned[s as usize].push(i as u32);
    }
    let owned: Vec<Arc<[u32]>> = owned.into_iter().map(Arc::from).collect();
    // Windows need shards that message no one, and an unshared recorder.
    let windows = shards > 1
        && threads > 1
        && !config.telemetry.is_enabled()
        && (0..work.len()).all(|i| work.dependents(i).all(|d| owner[d] == owner[i]));
    let owner = Arc::new(owner);
    let build = || build_shards(config, &work, &owner, &owned, worker_count, spec);
    if windows {
        if let Some(report) = drive(fed, &owner, build(), threads.min(shards as usize)) {
            return report;
        }
        #[cfg(test)]
        tests::tally(|d| d.aborts += 1);
    }
    drive(fed, &owner, build(), 1).expect("the sequential driver never aborts")
}

/// Step `masters` (started here) until every task is terminal, and report.
/// Given `threads > 1` it also runs parallel windows where no steal can
/// fire (DESIGN.md §5f), and `None` once a window broke that assumption.
fn drive(
    fed: &FederationConfig,
    owner: &[u32],
    mut masters: Vec<Master>,
    threads: usize,
) -> Option<FederationReport> {
    let n = masters.len();
    for m in &mut masters {
        m.start();
    }
    let total = owner.len();
    let mut wall = vec![0.0f64; n];
    let mut steals = 0u64;
    let mut stolen_tasks = 0u64;
    let mut releases = 0u64;
    let mut handoff_bytes = 0u64;
    let mut done = 0usize;
    let mut hungry: Vec<bool> = masters.iter().map(Master::hungry).collect();

    std::thread::scope(|scope| {
        let helpers: Vec<Helper> = (1..threads).map(|_| spawn_helper(scope)).collect();
        while done < total {
            if !helpers.is_empty() && !hungry.contains(&true) {
                if let Some(until) = window_end(&masters) {
                    #[cfg(test)]
                    tests::tally(|d| d.windows += 1);
                    let held = run_window(&mut masters, &mut wall, until, &helpers);
                    done = masters.iter().map(Master::completed_count).sum();
                    // The sequential driver stops the moment the last task
                    // ends, so a window must not contain that moment either.
                    if !held || done >= total {
                        return None;
                    }
                    continue;
                }
            }
            // Globally minimal next event, ties to the lowest shard index —
            // every pop is monotone in global time, so handoff deliveries
            // can never land in a destination shard's past.
            let pick = (masters.iter().enumerate())
                .filter_map(|(i, m)| Some((m.next_time()?, i)))
                .min();
            let Some((_, i)) = pick else {
                panic!(
                    "federation deadlock: {} of {total} tasks unfinished with no \
                     events pending on any shard",
                    total - done
                );
            };
            #[cfg(test)]
            tests::tally(|d| d.steps += 1);
            let t0 = Instant::now();
            let before = masters[i].completed_count();
            masters[i].step();
            wall[i] += t0.elapsed().as_secs_f64();
            done = done - before + masters[i].completed_count();
            hungry[i] = masters[i].hungry();
            let now = masters[i].now();

            // Route this shard's cross-shard effects to their owners.
            for msg in masters[i].drain_outbox() {
                let (task_idx, deliver, success) = match msg {
                    OutMsg::Release {
                        task_idx,
                        at,
                        bytes,
                    } => {
                        handoff_bytes += bytes;
                        let link = bytes as f64 / fed.handoff.bandwidth_bytes_per_sec;
                        (task_idx, at + fed.handoff.latency_secs + link, true)
                    }
                    OutMsg::Cancel { task_idx, at } => {
                        (task_idx, at + fed.handoff.latency_secs, false)
                    }
                };
                releases += 1;
                let event = Event::RemoteRelease { task_idx, success };
                masters[owner[task_idx] as usize].inject_at(deliver, event);
            }

            // Work stealing: hungry shards rob the hottest victim (ties to
            // the lowest index). Hunger changes only on a shard's own steps
            // and in this pass, so with no hungry shard it would do nothing.
            if n > 1 && fed.stealing.max_batch > 0 && hungry.contains(&true) {
                for thief in 0..n {
                    if !masters[thief].hungry() {
                        continue;
                    }
                    let victim = (masters.iter().enumerate())
                        .filter(|&(v, m)| v != thief && !m.is_down())
                        .map(|(v, m)| (Reverse(m.queued_len()), v))
                        .filter(|&(Reverse(q), _)| q >= fed.stealing.min_victim.max(1))
                        .min();
                    let Some((Reverse(q), v)) = victim else {
                        continue;
                    };
                    let moved = masters[v].steal_back(fed.stealing.max_batch.min(q / 2).max(1));
                    if moved.is_empty() {
                        continue;
                    }
                    steals += 1;
                    stolen_tasks += moved.len() as u64;
                    let arrive = now + fed.handoff.latency_secs;
                    for (task_idx, attempt) in moved {
                        masters[thief].note_inbound();
                        masters[thief].inject_at(arrive, Event::StolenArrive { task_idx, attempt });
                    }
                }
                hungry = masters.iter().map(Master::hungry).collect();
            }
        }
        Some(())
    })?;

    let shard_events: Vec<u64> = masters.iter().map(Master::events_processed).collect();
    let shard_completed: Vec<u64> = masters.iter().map(|m| m.completed_count() as u64).collect();
    let mut shard_reports: Vec<RunReport> = masters.into_iter().map(Master::finish).collect();
    let merged = if n == 1 {
        shard_reports[0].clone()
    } else {
        merge_reports(&mut shard_reports, total)
    };

    Some(FederationReport {
        merged,
        shard_reports,
        shards: n as u32,
        steals,
        stolen_tasks,
        cross_shard_releases: releases,
        handoff_bytes,
        shard_events,
        shard_completed,
        shard_wall_secs: wall,
    })
}

/// Where a window may end, if one may start here: shorter than any placement
/// so far, it will hardly drain a queue longer than its shard's cores.
fn window_end(masters: &[Master]) -> Option<SimTime> {
    if masters.iter().any(|m| m.queued_len() <= m.capacity_cores()) {
        return None;
    }
    let hold = (masters.iter().map(Master::min_hold)).fold(f64::INFINITY, f64::min);
    let gvt = masters.iter().filter_map(Master::next_time).min()?;
    let until = gvt + hold.is_finite().then_some(hold)?;
    (until > gvt).then_some(until)
}

/// A thread for the run's lifetime: it steps the shards (and wall seconds)
/// it is sent through a window and sends them back, with whether it held.
type Helper = (
    Sender<(SimTime, Vec<Master>, Vec<f64>)>,
    Receiver<(Vec<Master>, Vec<f64>, bool)>,
);

fn spawn_helper<'scope>(scope: &'scope Scope<'scope, '_>) -> Helper {
    let (to, windows) = mpsc::channel::<(SimTime, Vec<Master>, Vec<f64>)>();
    let (back, from) = mpsc::channel();
    scope.spawn(move || {
        for (until, mut masters, mut wall) in windows {
            let held = step_window(&mut masters, &mut wall, until);
            back.send((masters, wall, held)).ok();
        }
    });
    (to, from)
}

/// One window, the caller stepping the first shards; false if one broke it.
fn run_window(
    masters: &mut Vec<Master>,
    wall: &mut Vec<f64>,
    until: SimTime,
    helpers: &[Helper],
) -> bool {
    let per = masters.len().div_ceil(helpers.len() + 1);
    for (k, (to, _)) in helpers.iter().enumerate().rev() {
        let at = masters.len().min(per * (k + 1));
        let lent = (until, masters.split_off(at), wall.split_off(at));
        to.send(lent).expect("helpers outlive the run");
    }
    let mut held = step_window(masters, wall, until);
    for (_, from) in helpers {
        let (mut lent, mut secs, ok) = from.recv().expect("a shard panicked on a helper");
        masters.append(&mut lent);
        wall.append(&mut secs);
        held &= ok;
    }
    held
}

/// Step each shard through every event before `until`; false, stepping no
/// more, once a step leaves its shard hungry or sends a message.
fn step_window(masters: &mut [Master], wall: &mut [f64], until: SimTime) -> bool {
    for (m, secs) in masters.iter_mut().zip(wall) {
        let t0 = Instant::now();
        while m.next_time().is_some_and(|t| t < until) {
            m.step();
            if m.hungry() || !m.drain_outbox().is_empty() {
                return false;
            }
        }
        *secs += t0.elapsed().as_secs_f64();
    }
    true
}

/// One sub-master per shard, shard `s` owning `owned[s]` (at most
/// `worker_count` shards). Every shard shares the one prepared workload and
/// ownership map; only the per-task state each master keeps is per shard.
fn build_shards(
    config: &MasterConfig,
    work: &Arc<PreparedWorkload>,
    owner: &Arc<Vec<u32>>,
    owned: &[Arc<[u32]>],
    worker_count: u32,
    spec: NodeSpec,
) -> Vec<Master> {
    let shards = owned.len() as u32;
    let mut masters: Vec<Master> = Vec::with_capacity(owned.len());
    for (s, own) in (0..shards).zip(owned) {
        let mut cfg = config.clone();
        cfg.shards = 1;
        if shards > 1 {
            // Independent per-shard fault/draw streams, derived
            // deterministically from the run seed. A 1-shard federation
            // keeps the seed untouched for bitwise equivalence.
            cfg.seed = crate::faults::mix(config.seed ^ (0x5eed_f0e0 + s as u64));
        }
        let base = worker_count / shards;
        let w = base + u32::from(s < worker_count % shards);
        masters.push(Master::new_shard(
            cfg,
            Arc::clone(work),
            w,
            spec,
            s,
            Arc::clone(owner),
            Arc::clone(own),
        ));
    }
    masters
}

/// Sum counters, max the makespan, move the results in shard-major, and
/// recompute the derived overcommit from the summed integrals.
fn merge_reports(reports: &mut [RunReport], total_tasks: usize) -> RunReport {
    let mut results = Vec::with_capacity(reports.iter().map(|r| r.results.len()).sum());
    for r in reports.iter_mut() {
        results.extend(std::mem::take(&mut r.results));
    }
    let first = &reports[0];
    let allocated: f64 = reports.iter().map(|r| r.allocated_core_secs).sum();
    let used: f64 = reports.iter().map(|r| r.used_core_secs).sum();
    RunReport {
        strategy: first.strategy.clone(),
        dist_mode: first.dist_mode,
        makespan_secs: reports.iter().map(|r| r.makespan_secs).fold(0.0, f64::max),
        task_count: total_tasks,
        retried_tasks: reports.iter().map(|r| r.retried_tasks).sum(),
        abandoned_tasks: reports.iter().map(|r| r.abandoned_tasks).sum(),
        cache_hits: reports.iter().map(|r| r.cache_hits).sum(),
        cache_misses: reports.iter().map(|r| r.cache_misses).sum(),
        allocated_core_secs: allocated,
        used_core_secs: used,
        overcommit_core_secs: (used - allocated).max(0.0),
        fs_md_ops: reports.iter().map(|r| r.fs_md_ops).sum(),
        net_bytes: reports.iter().map(|r| r.net_bytes).sum(),
        workers_provisioned: reports.iter().map(|r| r.workers_provisioned).sum(),
        workers_lost: reports.iter().map(|r| r.workers_lost).sum(),
        tasks_lost: reports.iter().map(|r| r.tasks_lost).sum(),
        infra_retried_tasks: reports.iter().map(|r| r.infra_retried_tasks).sum(),
        lease_reclaims: reports.iter().map(|r| r.lease_reclaims).sum(),
        stage_in_failures: reports.iter().map(|r| r.stage_in_failures).sum(),
        spurious_kills: reports.iter().map(|r| r.spurious_kills).sum(),
        result_messages_lost: reports.iter().map(|r| r.result_messages_lost).sum(),
        quarantines: reports.iter().map(|r| r.quarantines).sum(),
        lost_core_secs: reports.iter().map(|r| r.lost_core_secs).sum(),
        degraded_to_shared_fs: reports.iter().any(|r| r.degraded_to_shared_fs),
        master_crashes: reports.iter().map(|r| r.master_crashes).sum(),
        recoveries: reports.iter().map(|r| r.recoveries).sum(),
        journal_bytes: reports.iter().map(|r| r.journal_bytes).sum(),
        replayed_events: reports.iter().map(|r| r.replayed_events).sum(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::Strategy;
    use crate::files::FileRef;
    use crate::master::run_workload;
    use lfm_monitor::sim::SimTaskProfile;
    use lfm_simcluster::node::{NodeSpec, Resources};

    fn chain_tasks(n: u64, chain_every: u64) -> Vec<TaskSpec> {
        let env = FileRef::environment("fed-env", 200 << 20, 500 << 20, 4000, 700);
        (0..n)
            .map(|i| {
                let mut t = TaskSpec::new(
                    TaskId(i),
                    if i % 3 == 0 { "big" } else { "small" },
                    vec![env.clone(), FileRef::data(format!("fed-in-{i}"), 256 << 10)],
                    20 << 20,
                    SimTaskProfile::new(
                        30.0 + (i % 5) as f64,
                        1.0,
                        if i % 3 == 0 { 2000 } else { 700 },
                        400,
                    ),
                );
                if chain_every > 0 && i % chain_every == chain_every - 1 {
                    t = t.after(vec![TaskId(i - 1)]);
                }
                t
            })
            .collect()
    }

    fn oracle() -> Strategy {
        let mut map = BTreeMap::new();
        map.insert("big".to_string(), Resources::new(1, 2000, 400));
        map.insert("small".to_string(), Resources::new(1, 700, 400));
        Strategy::Oracle(map)
    }

    fn node() -> NodeSpec {
        NodeSpec::new(8, 8192, 16384)
    }

    #[test]
    fn partition_round_robin_and_category_are_deterministic() {
        let tasks = chain_tasks(12, 0);
        let rr = partition(&tasks, 3, PartitionPolicy::RoundRobin);
        assert_eq!(rr, (0..12).map(|i| i % 3).collect::<Vec<u32>>());
        let by_cat = partition(&tasks, 2, PartitionPolicy::ByCategory);
        // "big" first appears at index 0 → shard 0; "small" at 1 → shard 1.
        for (i, t) in tasks.iter().enumerate() {
            let want = if t.category == "big" { 0 } else { 1 };
            assert_eq!(by_cat[i], want);
        }
        assert_eq!(by_cat, partition(&tasks, 2, PartitionPolicy::ByCategory));
    }

    #[test]
    fn by_component_never_splits_a_dependency_edge() {
        let tasks = chain_tasks(40, 4);
        let owner = partition(&tasks, 4, PartitionPolicy::ByComponent);
        let ids: BTreeMap<TaskId, usize> =
            tasks.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
        for (i, t) in tasks.iter().enumerate() {
            for d in &t.deps {
                assert_eq!(owner[i], owner[ids[d]], "dependency edge split");
            }
        }
        // All four shards actually own work.
        for s in 0..4u32 {
            assert!(owner.contains(&s), "shard {s} owns nothing");
        }
    }

    /// `partition` as it stood before the flat-array rewrite, verbatim: the
    /// reference [`flat_partition_matches_the_btreemap_oracle`] compares
    /// against.
    fn partition_oracle(tasks: &[TaskSpec], shards: u32, policy: PartitionPolicy) -> Vec<u32> {
        assert!(shards > 0, "need at least one shard");
        if shards == 1 {
            return vec![0; tasks.len()];
        }
        match policy {
            PartitionPolicy::RoundRobin => (0..tasks.len()).map(|i| i as u32 % shards).collect(),
            PartitionPolicy::ByCategory => {
                let mut cat_shard: BTreeMap<&str, u32> = BTreeMap::new();
                let mut next = 0u32;
                tasks
                    .iter()
                    .map(|t| {
                        *cat_shard.entry(&t.category).or_insert_with(|| {
                            let s = next % shards;
                            next += 1;
                            s
                        })
                    })
                    .collect()
            }
            PartitionPolicy::ByComponent => {
                // Union-find over weakly-connected dependency components.
                let ids: BTreeMap<TaskId, usize> =
                    tasks.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
                let mut parent: Vec<usize> = (0..tasks.len()).collect();
                fn find(parent: &mut [usize], mut x: usize) -> usize {
                    while parent[x] != x {
                        parent[x] = parent[parent[x]];
                        x = parent[x];
                    }
                    x
                }
                for (i, t) in tasks.iter().enumerate() {
                    for d in &t.deps {
                        if let Some(&j) = ids.get(d) {
                            let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                            if a != b {
                                parent[a.max(b)] = a.min(b);
                            }
                        }
                    }
                }
                // Component weight = total profile duration; the greedy bin
                // packer hands the heaviest component to the least-loaded shard.
                let mut weight: BTreeMap<usize, f64> = BTreeMap::new();
                let mut first_idx: BTreeMap<usize, usize> = BTreeMap::new();
                for (i, task) in tasks.iter().enumerate() {
                    let root = find(&mut parent, i);
                    *weight.entry(root).or_insert(0.0) += task.profile.duration_secs;
                    first_idx.entry(root).or_insert(i);
                }
                let mut comps: Vec<(usize, f64)> = weight.into_iter().collect();
                comps.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .expect("durations are finite")
                        .then(first_idx[&a.0].cmp(&first_idx[&b.0]))
                });
                let mut load = vec![0.0f64; shards as usize];
                let mut comp_shard: BTreeMap<usize, u32> = BTreeMap::new();
                for (root, w) in comps {
                    let s =
                        load.iter().enumerate().fold(
                            0usize,
                            |best, (i, &l)| if l < load[best] { i } else { best },
                        );
                    load[s] += w;
                    comp_shard.insert(root, s as u32);
                }
                (0..tasks.len())
                    .map(|i| comp_shard[&find(&mut parent, i)])
                    .collect()
            }
        }
    }

    const POLICIES: [PartitionPolicy; 3] = [
        PartitionPolicy::RoundRobin,
        PartitionPolicy::ByCategory,
        PartitionPolicy::ByComponent,
    ];

    fn assert_matches_oracle(tasks: &[TaskSpec]) {
        for policy in POLICIES {
            for shards in 1..=9 {
                assert_eq!(
                    partition(tasks, shards, policy),
                    partition_oracle(tasks, shards, policy),
                    "{policy:?} over {shards} shards, {} tasks",
                    tasks.len()
                );
            }
        }
    }

    /// One task per `(duration, category, dependency shape, a, b)` row. Ids
    /// differ from indices; durations are small integers, so component
    /// totals are exact and collide often (the first-index tie-break
    /// decides). Shapes: independent, chain on the previous task, diamond
    /// join on two arbitrary tasks, and a dependency on an id outside the
    /// batch (alone or beside a real one).
    fn shaped_tasks(rows: &[(u64, u64, u8, usize, usize)]) -> Vec<TaskSpec> {
        let id = |i: usize| TaskId(i as u64 * 7 + 3);
        let n = rows.len();
        rows.iter()
            .enumerate()
            .map(|(i, &(dur, cat, shape, a, b))| {
                let t = TaskSpec::new(
                    id(i),
                    format!("cat{cat}"),
                    Vec::new(),
                    1 << 10,
                    SimTaskProfile::new(dur as f64 * 10.0, 1.0, 500, 100),
                );
                let foreign = TaskId(1_000_000 + a as u64);
                match shape {
                    3 if i > 0 => t.after(vec![id(i - 1)]),
                    4 => t.after(vec![id(a % n), id(b % n)]),
                    5 => t.after(vec![foreign]),
                    6 => t.after(vec![foreign, id(b % n)]),
                    _ => t,
                }
            })
            .collect()
    }

    #[test]
    fn equal_weight_components_tie_break_on_first_index() {
        // Three 2-task chains and three singletons, every component exactly
        // 60 s, chains and singletons interleaved.
        let rows = [
            (3, 0, 0, 0, 0),
            (3, 1, 3, 0, 0),
            (6, 0, 0, 0, 0),
            (3, 2, 0, 0, 0),
            (3, 2, 3, 0, 0),
            (6, 1, 0, 0, 0),
            (2, 0, 0, 0, 0),
            (4, 0, 3, 0, 0),
            (6, 2, 0, 0, 0),
        ];
        let tasks = shaped_tasks(&rows);
        assert_matches_oracle(&tasks);
        // Earliest component first onto the (all-empty) lowest shard.
        let owner = partition(&tasks, 6, PartitionPolicy::ByComponent);
        assert_eq!(owner, vec![0, 0, 1, 2, 2, 3, 4, 4, 5]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn flat_partition_matches_the_btreemap_oracle(
            rows in proptest::collection::vec(
                (1u64..4, 0u64..4, 0u8..7, 0usize..64, 0usize..64),
                1..48,
            )
        ) {
            assert_matches_oracle(&shaped_tasks(&rows));
        }
    }

    #[test]
    fn shards_share_one_task_vector() {
        let cfg = MasterConfig::new(oracle()).with_seed(9);
        let work = Arc::new(PreparedWorkload::new(chain_tasks(24, 4)));
        let owner = Arc::new(partition(work.tasks(), 4, PartitionPolicy::ByComponent));
        let owned: Vec<Arc<[u32]>> = (0..4)
            .map(|s| (0..24).filter(|&i| owner[i as usize] == s).collect())
            .collect();
        let masters = build_shards(&cfg, &work, &owner, &owned, 8, node());
        assert_eq!(Arc::strong_count(&work), 4 + 1, "a shard copied the tasks");
        for m in &masters {
            assert!(Arc::ptr_eq(m.shared_work(), &work));
        }
    }

    #[test]
    fn one_shard_federation_is_bitwise_identical() {
        let cfg = MasterConfig::new(oracle()).with_seed(13);
        let tasks = chain_tasks(30, 5);
        let single = run_workload(&cfg, tasks.clone(), 4, node());
        let fed = run_federated(&cfg, &FederationConfig::new(1), tasks, 4, node());
        assert_eq!(fed.merged, single);
        assert_eq!(fed.shards, 1);
        assert_eq!(fed.steals, 0);
        assert_eq!(fed.cross_shard_releases, 0);
    }

    #[test]
    fn n_shard_run_conserves_tasks() {
        let cfg = MasterConfig::new(oracle()).with_seed(21);
        let tasks = chain_tasks(60, 5);
        let fed = run_federated(
            &cfg,
            &FederationConfig::new(3).with_partition(PartitionPolicy::RoundRobin),
            tasks,
            6,
            node(),
        );
        let successes = fed
            .merged
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count() as u64;
        assert_eq!(successes + fed.merged.abandoned_tasks, 60);
        assert_eq!(fed.merged.task_count, 60);
        // Round-robin over chained tasks must exercise the handoff path.
        assert!(fed.cross_shard_releases > 0, "no handoff fired");
    }

    #[test]
    fn skewed_partition_triggers_stealing() {
        // Everything owned by shard 0: shard 1 can only get work by
        // stealing it.
        let cfg = MasterConfig::new(oracle()).with_seed(31);
        let tasks = chain_tasks(40, 0);
        let fed = run_federated(
            &cfg,
            &FederationConfig::new(2).with_partition(PartitionPolicy::ByComponent),
            tasks.clone(),
            4,
            node(),
        );
        // Independent tasks: ByComponent balances, so force the skew with
        // a category partition where every task shares one category.
        let skewed: Vec<TaskSpec> = tasks
            .iter()
            .cloned()
            .map(|mut t| {
                t.category = "only".to_string();
                t
            })
            .collect();
        let fed2 = run_federated(
            &cfg,
            &FederationConfig::new(2).with_partition(PartitionPolicy::ByCategory),
            skewed,
            4,
            node(),
        );
        assert!(fed2.stolen_tasks > 0, "balancer never fired");
        let successes = fed2
            .merged
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count() as u64;
        assert_eq!(successes + fed2.merged.abandoned_tasks, 40);
        // Both shards did terminal work.
        assert!(fed2.shard_completed.iter().all(|&c| c > 0));
        drop(fed);
    }

    #[test]
    fn federated_runs_are_deterministic() {
        let cfg = MasterConfig::new(oracle()).with_seed(43);
        let tasks = chain_tasks(48, 4);
        let f = FederationConfig::new(3).with_partition(PartitionPolicy::RoundRobin);
        let a = run_federated(&cfg, &f, tasks.clone(), 6, node());
        let b = run_federated(&cfg, &f, tasks, 6, node());
        assert_eq!(a.merged, b.merged);
        assert_eq!(a.stolen_tasks, b.stolen_tasks);
        assert_eq!(a.cross_shard_releases, b.cross_shard_releases);
        assert_eq!(a.shard_events, b.shard_events);
    }

    #[test]
    fn shards_clamp_to_worker_count() {
        let cfg = MasterConfig::new(oracle()).with_seed(7);
        let fed = run_federated(
            &cfg,
            &FederationConfig::new(16),
            chain_tasks(12, 0),
            3,
            node(),
        );
        assert_eq!(fed.shards, 3);
        let successes = fed
            .merged
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count() as u64;
        assert_eq!(successes + fed.merged.abandoned_tasks, 12);
    }

    #[test]
    #[should_panic(expected = "requires journaled durability")]
    fn n_shard_master_crash_without_journal_is_rejected() {
        use crate::faults::{FaultPlan, FaultSpec};
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(20.0, 1)))
            .with_seed(3);
        run_federated(
            &cfg,
            &FederationConfig::new(2),
            chain_tasks(12, 0),
            2,
            node(),
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The prepared table's partition is the public one: the same
        /// components from the dependents table instead of an id map, and
        /// the same category order from the interned ids. A dependency on
        /// an id outside the batch, which `partition` ignores and a prepared
        /// workload rejects, is dropped first. Durations of -10, 0 and 10 s
        /// give components negative and zero weights too.
        #[test]
        fn prepared_partition_matches_partition_and_the_oracle(
            rows in proptest::collection::vec(
                (1u64..4, 0u64..4, 0u8..7, 0usize..64, 0usize..64),
                1..48,
            )
        ) {
            let mut tasks = shaped_tasks(&rows);
            for t in &mut tasks {
                t.profile.duration_secs -= 20.0;
            }
            let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
            let known: Vec<TaskSpec> = (tasks.iter().cloned())
                .map(|mut t| {
                    t.deps.retain(|d| ids.contains(d));
                    t
                })
                .collect();
            let work = PreparedWorkload::new(known);
            for policy in POLICIES {
                for shards in 1..=9 {
                    let flat = partition(&tasks, shards, policy);
                    proptest::prop_assert_eq!(&flat, &partition_oracle(&tasks, shards, policy));
                    proptest::prop_assert_eq!(&partition_prepared(&work, shards, policy), &flat);
                }
            }
        }
    }

    /// Windows hand shards to other threads.
    const _: fn() = || {
        fn send<T: Send>() {}
        send::<Master>();
    };

    /// What the drivers on one thread did: parallel windows run, sequential
    /// steps taken, runs aborted to the sequential driver.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Driven {
        pub windows: u64,
        pub steps: u64,
        pub aborts: u64,
    }

    thread_local! {
        static DRIVEN: std::cell::Cell<Driven> = std::cell::Cell::new(Driven::default());
    }

    pub(super) fn tally(count: impl FnOnce(&mut Driven)) {
        DRIVEN.with(|d| {
            let mut driven = d.get();
            count(&mut driven);
            d.set(driven);
        });
    }

    /// A run on `threads` host threads, and what its drivers did.
    fn run_on(
        cfg: &MasterConfig,
        fed: &FederationConfig,
        tasks: Vec<TaskSpec>,
        workers: u32,
        spec: NodeSpec,
        threads: usize,
    ) -> (FederationReport, Driven) {
        let before = DRIVEN.with(|d| d.take());
        let work = Arc::new(PreparedWorkload::new(tasks));
        let report = run_shards_on(cfg, fed, work, workers, spec, threads);
        let driven = DRIVEN.with(|d| d.replace(before));
        (report, driven)
    }

    /// Everything a federated run reports that the host clock does not
    /// decide.
    fn assert_same_run(label: &str, a: &FederationReport, b: &FederationReport) {
        assert_eq!(a.merged, b.merged, "{label}: merged report");
        assert_eq!(a.shard_reports, b.shard_reports, "{label}: shard reports");
        assert_eq!(
            (a.steals, a.stolen_tasks),
            (b.steals, b.stolen_tasks),
            "{label}: steals"
        );
        assert_eq!(
            (a.cross_shard_releases, a.handoff_bytes),
            (b.cross_shard_releases, b.handoff_bytes),
            "{label}: handoffs"
        );
        assert_eq!(a.shard_events, b.shard_events, "{label}: events");
        assert_eq!(a.shard_completed, b.shard_completed, "{label}: completions");
    }

    #[test]
    fn parallel_windows_equal_the_sequential_driver() {
        use crate::faults::{FaultPlan, FaultSpec};
        use crate::journal::DurabilityConfig;
        use crate::sched::SchedImpl;
        let chaos = FaultPlan::reliable()
            .with(FaultSpec::worker_churn(400.0))
            .with(FaultSpec::straggler(0.2, 1.5, 3.0))
            .with(FaultSpec::message_loss(0.05))
            .with(FaultSpec::stage_in_failure(0.05))
            .with(FaultSpec::spurious_kill(0.05));
        let crashes = FaultPlan::reliable().with(FaultSpec::master_crash(60.0, 2));
        let plans = [
            ("reliable", FaultPlan::reliable()),
            ("chaos", chaos),
            ("crash", crashes),
        ];
        for (name, plan) in &plans {
            for sched in [SchedImpl::Reference, SchedImpl::Indexed] {
                for policy in POLICIES {
                    for shards in [2u32, 3, 4, 8] {
                        for seed in 1..=3u64 {
                            let mut cfg = MasterConfig::new(oracle())
                                .with_sched(sched)
                                .with_faults(plan.clone())
                                .with_seed(seed);
                            if *name == "crash" {
                                cfg = cfg
                                    .with_durability(DurabilityConfig::journal_with_snapshots(64));
                            }
                            // Chains for the partition that keeps them whole;
                            // the other two would cut them and never take a
                            // window, so they get a batch without edges.
                            let chain = if policy == PartitionPolicy::ByComponent {
                                4
                            } else {
                                0
                            };
                            let tasks = chain_tasks(40 * u64::from(shards), chain);
                            let f = FederationConfig::new(shards).with_partition(policy);
                            let label = format!("{name}/{sched:?}/{policy:?}/{shards}/{seed}");
                            let (seq, _) = run_on(&cfg, &f, tasks.clone(), shards, node(), 1);
                            let threads = shards.min(3) as usize;
                            let (par, driven) = run_on(&cfg, &f, tasks, shards, node(), threads);
                            assert_same_run(&label, &seq, &par);
                            // Two categories leave ByCategory's third shard
                            // onwards empty, hence hungry from the start.
                            if policy != PartitionPolicy::ByCategory || shards == 2 {
                                assert!(driven.windows > 0, "{label}: no window ran");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_window_that_drains_a_queue_aborts_to_the_sequential_run() {
        // Shard 1 runs 100 s tasks, so windows are 100 s wide. Shard 0's
        // first placements hold their cores for 120 s and the one-second
        // tasks behind them drain its queue well inside a window, where the
        // sequential driver would have had it steal from shard 1.
        let tasks: Vec<TaskSpec> = chain_tasks(400, 0)
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                t.profile.duration_secs = match (i % 2, i < 16) {
                    (1, _) => 100.0,
                    (_, true) => 120.0,
                    _ => 1.0,
                };
                t
            })
            .collect();
        let cfg = MasterConfig::new(oracle()).with_seed(3);
        let f = FederationConfig::new(2).with_partition(PartitionPolicy::RoundRobin);
        let (seq, _) = run_on(&cfg, &f, tasks.clone(), 2, node(), 1);
        let (par, driven) = run_on(&cfg, &f, tasks, 2, node(), 2);
        assert_eq!(driven.aborts, 1, "{driven:?}");
        assert_same_run("abort", &seq, &par);
    }

    #[test]
    fn a_window_that_sends_a_release_aborts_to_the_sequential_run() {
        // Two-task chains of one category on shard 0, four loose tasks of
        // the other on shard 1, one core each: shard 1 runs dry, steals
        // chain heads, and finishing one inside a window sends shard 0 a
        // `Release` although no edge crosses the partition.
        let tasks: Vec<TaskSpec> = chain_tasks(64, 2)
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                t.category = if i < 60 { "big" } else { "small" }.to_string();
                if i >= 60 {
                    t.deps.clear();
                }
                t
            })
            .collect();
        let cfg = MasterConfig::new(oracle()).with_seed(5);
        let f = FederationConfig::new(2).with_partition(PartitionPolicy::ByCategory);
        let spec = NodeSpec::new(1, 8192, 16384);
        let (seq, _) = run_on(&cfg, &f, tasks.clone(), 2, spec, 1);
        let (par, driven) = run_on(&cfg, &f, tasks, 2, spec, 2);
        assert!(seq.cross_shard_releases > 0, "no stolen head released");
        assert_eq!(driven.aborts, 1, "{driven:?}");
        assert_same_run("release", &seq, &par);
    }

    #[test]
    fn the_eight_shard_batch_runs_mostly_in_windows() {
        // `federation_8shard` at a fifth of its tasks and cores, six workers
        // a shard: the run steps sequentially only before its first
        // placement and once a queue is down to a shard's cores.
        let (cfg, tasks, spec) = crate::master::tests::batch_shape(20_000, 7);
        let f = FederationConfig::new(8).with_partition(PartitionPolicy::ByComponent);
        let (report, driven) = run_on(&cfg, &f, tasks, 48, spec, 2);
        let events: u64 = report.shard_events.iter().sum();
        assert_eq!(driven.aborts, 0, "{driven:?}");
        // Nothing crashes, so every sequential step handled one event.
        let in_windows = events - driven.steps;
        assert!(
            in_windows as f64 >= 0.85 * events as f64,
            "{driven:?}: {in_windows} of {events} events in windows"
        );
    }
}
