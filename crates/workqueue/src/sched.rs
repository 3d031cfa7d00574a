//! Indexed incremental scheduling state for the Work Queue master.
//!
//! The reference matcher re-runs a full greedy pass over the entire pending
//! queue on every event, and every placement attempt scans every worker and
//! re-probes every input file for cache affinity — O(events × pending ×
//! workers × inputs). It survives only in this crate's tests, as the oracle
//! (`master::reference`). This module replaces it with event-driven state:
//!
//! * **Order keys** — the reference examination order (stable policy sort
//!   over a deque fed by `push_back`/`push_front`) is a total order
//!   `(policy_rank, seq)`: ranks are `0` (Fifo), `!peak_mem` (LargestFirst)
//!   or `peak_mem` (SmallestFirst), and seqs grow at the back / shrink at
//!   the front. Ready tasks live in a `BTreeMap` keyed by it, so a dispatch
//!   pass is a k-way merge instead of a drain-sort-refill.
//! * **Park groups** — a task that fails examination is parked under its
//!   `(category, is_retry)` group together with *why* it failed (slow-start
//!   cap, or no worker fits its allocation). All members of a group resolve
//!   to the same decision at any instant, so one head examination decides
//!   the whole group; groups are re-examined ("woken") only when an event
//!   could change the verdict — see the wake methods.
//! * **Capacity index** — one worker-id bitset per free-core count, so the
//!   most-free-cores preference is a walk down the buckets with early exit
//!   instead of a full-pool sweep, and a worker changing its free cores is
//!   two bit flips.
//! * **File index** — inverted cache map (file id → workers holding it),
//!   so the cached-inputs preference is a bit test per worker the capacity
//!   scan visits instead of a probe of that worker's cache for every
//!   input.
//!
//! Exactness: see `DESIGN.md` §Scheduler for the argument that every skipped
//! examination would have failed in the reference matcher, and that failed
//! reference examinations have no observable side effects — which together
//! make the indexed scheduler placement-for-placement identical.

#[cfg(test)]
use crate::master::reference::{self, RefQueue};
use crate::master::SchedulePolicy;
use crate::prepared::InputRow;
use crate::task::TaskSpec;
use crate::worker::WorkerTable;
use lfm_simcluster::node::Resources;
use lfm_simcluster::time::SimTime;
use std::collections::BTreeMap;

/// Which dispatch implementation a run uses. A production build has one,
/// the indexed scheduler. The reference matcher it is proven
/// placement-for-placement equal against is compiled into this crate's own
/// tests only, so nothing outside the crate can select it:
///
/// ```compile_fail
/// use lfm_workqueue::allocate::Strategy;
/// use lfm_workqueue::master::MasterConfig;
/// use lfm_workqueue::sched::SchedImpl;
///
/// MasterConfig::new(Strategy::Unmanaged).with_sched(SchedImpl::Reference);
/// ```
///
/// while the same call naming the indexed scheduler compiles:
///
/// ```
/// use lfm_workqueue::allocate::Strategy;
/// use lfm_workqueue::master::MasterConfig;
/// use lfm_workqueue::sched::SchedImpl;
///
/// MasterConfig::new(Strategy::Unmanaged).with_sched(SchedImpl::Indexed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedImpl {
    /// The original rescan-everything greedy matcher: the oracle of the
    /// seed-equivalence suites.
    #[cfg(test)]
    Reference,
    /// The indexed, event-driven scheduler.
    #[default]
    Indexed,
}

impl SchedImpl {
    /// An empty scheduler of this implementation, examining in `policy`
    /// order.
    pub(crate) fn build(self, policy: SchedulePolicy) -> IndexedSched {
        let sched = IndexedSched::new(policy);
        match self {
            #[cfg(test)]
            SchedImpl::Reference => IndexedSched {
                reference: Some(RefQueue::default()),
                ..sched
            },
            SchedImpl::Indexed => sched,
        }
    }
}

/// A queued task attempt.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Pending {
    pub task_idx: usize,
    pub attempt: u32,
    /// When this attempt became ready (for queue-wait spans).
    pub since: SimTime,
}

/// Total examination order: `(policy_rank, seq)`. Smaller examines first.
pub(crate) type OrderKey = (u64, i64);

/// Park-group identity: `(category id, attempt > 0)`. Every member of a
/// group receives the same allocation decision at any instant, because the
/// allocator decides per category and treats all retries alike.
pub(crate) type GroupKey = (u32, bool);

/// The policy component of an [`OrderKey`]. Bitwise NOT turns "largest
/// first" into an ascending sort key.
pub(crate) fn policy_rank(policy: SchedulePolicy, peak_memory_mb: u64) -> u64 {
    match policy {
        SchedulePolicy::Fifo => 0,
        SchedulePolicy::LargestFirst => !peak_memory_mb,
        SchedulePolicy::SmallestFirst => peak_memory_mb,
    }
}

/// Why a group failed its last examination. The stored reason is a
/// *certificate* that re-examining the group is pointless until a wake
/// condition specific to the reason occurs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) enum ParkReason {
    /// Sized first attempts hit the slow-start concurrency cap. Invalidated
    /// by any completion/eviction of the category (running count fell, or
    /// the cap itself moved with the new sample).
    #[default]
    SlowStart,
    /// No worker could fit this resolved allocation. Invalidated by a
    /// worker arrival, by freed capacity that fits the stored vector, or by
    /// the category's label changing (the vector itself is stale then).
    NoFit(Resources),
}

/// One slot of the park table. A group *exists* while it has members; an
/// empty slot's reason and flag mean nothing.
#[derive(Debug, Default)]
struct ParkGroup {
    reason: ParkReason,
    members: BTreeMap<OrderKey, Pending>,
    /// A wake is pending: the head competes with `ready` in the next
    /// dispatch pass. Waking is lazy — members never move.
    runnable: bool,
}

/// A group's slot in the park table: `2·cat + retry`, so that slot order is
/// the `(category id, retry)` order of [`GroupKey`].
fn slot(gk: GroupKey) -> usize {
    gk.0 as usize * 2 + gk.1 as usize
}

/// Where the next-in-order candidate lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    Ready,
    Group(GroupKey),
}

/// The indexed scheduler state, owned by the master.
#[derive(Debug)]
pub(crate) struct IndexedSched {
    policy: SchedulePolicy,
    /// Tasks awaiting their first examination since (re-)enqueue.
    ready: BTreeMap<OrderKey, Pending>,
    /// Tasks whose last examination failed, grouped by (category, retry):
    /// the group of `gk` is `groups[slot(gk)]`.
    groups: Vec<ParkGroup>,
    /// Total members across all groups (so `len` is O(1)).
    parked: usize,
    /// `push_front` seqs: start at -1 and decrease.
    front_seq: i64,
    /// `push_back` seqs: start at 0 and increase.
    back_seq: i64,
    /// Every schedulable worker under its free-core count.
    cap_index: CapIndex,
    /// file id → workers with it cached (mirrors `Worker::insert_cached`).
    file_index: Vec<IdSet>,
    /// Under [`SchedImpl::Reference`], the oracle's queue: pending work,
    /// `len`, the pending snapshot, steals and the pick all route to it.
    #[cfg(test)]
    pub(crate) reference: Option<RefQueue>,
}

impl IndexedSched {
    pub(crate) fn new(policy: SchedulePolicy) -> Self {
        IndexedSched {
            policy,
            ready: BTreeMap::new(),
            groups: Vec::new(),
            parked: 0,
            front_seq: -1,
            back_seq: 0,
            cap_index: CapIndex::default(),
            file_index: Vec::new(),
            #[cfg(test)]
            reference: None,
        }
    }

    /// Ready + parked tasks (the reference queue length).
    pub(crate) fn len(&self) -> usize {
        #[cfg(test)]
        if let Some(q) = &self.reference {
            return q.len();
        }
        self.ready.len() + self.parked
    }

    /// Every pending task — ready and parked alike — in global examination
    /// order (merged by [`OrderKey`]). This is the durability snapshot's
    /// canonical pending enumeration: the reference scheduler produces the
    /// identical sequence by stable-sorting its deque by
    /// [`policy_rank`], because within a rank, deque order always equals
    /// seq order.
    pub(crate) fn snapshot_pending(&self) -> Vec<Pending> {
        #[cfg(test)]
        if let Some(q) = &self.reference {
            return q.in_order();
        }
        let mut all: Vec<(OrderKey, Pending)> = self
            .ready
            .iter()
            .chain(self.groups.iter().flat_map(|g| g.members.iter()))
            .map(|(&k, p)| (k, p.clone()))
            .collect();
        all.sort_by_key(|&(k, _)| k);
        all.into_iter().map(|(_, p)| p).collect()
    }

    fn rank(&self, task: &TaskSpec) -> u64 {
        policy_rank(self.policy, task.profile.peak_memory_mb)
    }

    /// Enqueue at the back of the examination order (new arrivals).
    pub(crate) fn push_back(&mut self, task: &TaskSpec, item: Pending) {
        let key = (self.rank(task), self.back_seq);
        self.back_seq += 1;
        self.enqueue(key, item);
    }

    /// Enqueue at the front of the examination order (retries, evictions).
    pub(crate) fn push_front(&mut self, task: &TaskSpec, item: Pending) {
        let key = (self.rank(task), self.front_seq);
        self.front_seq -= 1;
        self.enqueue(key, item);
    }

    fn enqueue(&mut self, key: OrderKey, item: Pending) {
        #[cfg(test)]
        if let Some(q) = &mut self.reference {
            return q.push(key, item);
        }
        self.ready.insert(key, item);
    }

    // ---- dispatch-pass primitives ----

    /// The source holding the smallest order key among `ready` and all
    /// runnable group heads, or None when nothing is examinable.
    pub(crate) fn peek_min(&self) -> Option<Src> {
        let mut best: Option<(OrderKey, Src)> = self.ready.keys().next().map(|&k| (k, Src::Ready));
        for (i, g) in self.groups.iter().enumerate() {
            if !g.runnable {
                continue;
            }
            let head = *(g.members.keys().next()).expect("runnable group is non-empty");
            if best.is_none_or(|(bk, _)| head < bk) {
                best = Some((head, Src::Group((i as u32 / 2, i % 2 == 1))));
            }
        }
        best.map(|(_, src)| src)
    }

    pub(crate) fn pop_ready(&mut self) -> (OrderKey, Pending) {
        self.ready.pop_first().expect("peek_min said ready")
    }

    /// The head of a runnable group, left in place: most head examinations
    /// fail, and a failed one only renews the group's certificate.
    pub(crate) fn group_head(&self, gk: GroupKey) -> &Pending {
        let g = &self.groups[slot(gk)];
        g.members.values().next().expect("runnable group non-empty")
    }

    /// Take the head of a runnable group for placement. A group emptied
    /// this way is gone, its pending wake with it.
    pub(crate) fn pop_group_head(&mut self, gk: GroupKey) -> (OrderKey, Pending) {
        let g = &mut self.groups[slot(gk)];
        let (key, item) = g.members.pop_first().expect("runnable group non-empty");
        g.runnable &= !g.members.is_empty();
        self.parked -= 1;
        (key, item)
    }

    /// The examined head failed: the group sleeps under the fresh verdict.
    pub(crate) fn sleep_group(&mut self, gk: GroupKey, reason: ParkReason) {
        let g = &mut self.groups[slot(gk)];
        g.reason = reason;
        g.runnable = false;
    }

    /// Is this group parked and *not* scheduled for re-examination? Fresh
    /// arrivals for such groups are parked directly: no wake event has
    /// occurred since the group's last failed examination, so the same
    /// failure certificate covers them.
    pub(crate) fn is_asleep(&self, gk: GroupKey) -> bool {
        (self.groups.get(slot(gk))).is_some_and(|g| !g.members.is_empty() && !g.runnable)
    }

    /// Park `item` under `gk`. `reason: Some` records a fresh failure
    /// verdict (overwriting any stale one) and puts the group to sleep;
    /// `None` joins an existing group without touching its certificate.
    pub(crate) fn park(
        &mut self,
        gk: GroupKey,
        reason: Option<ParkReason>,
        key: OrderKey,
        item: Pending,
    ) {
        if self.groups.len() <= slot(gk) {
            self.groups.resize_with(slot(gk) + 1, ParkGroup::default);
        }
        let g = &mut self.groups[slot(gk)];
        match reason {
            Some(r) => {
                g.reason = r;
                g.runnable = false;
            }
            None => debug_assert!(!g.members.is_empty(), "joining an existing group"),
        }
        g.members.insert(key, item);
        self.parked += 1;
    }

    // ---- wake protocol ----

    /// A task of `cat` finished (or was evicted): its running count fell and
    /// — on finishes — its sample set grew, so a slow-start verdict for the
    /// category's first attempts is stale. `label_changed` additionally
    /// invalidates a NoFit verdict: the parked allocation vector itself is
    /// no longer what the group would be offered.
    pub(crate) fn wake_category(&mut self, cat: u32, label_changed: bool) {
        if let Some(g) = self.groups.get_mut(slot((cat, false))) {
            if !g.members.is_empty() && (label_changed || g.reason == ParkReason::SlowStart) {
                g.runnable = true;
            }
        }
    }

    /// Capacity was freed on a worker now offering `avail`: wake every
    /// NoFit group whose stored allocation fits it. Groups whose vector
    /// still doesn't fit keep their certificate — no other worker's
    /// capacity grew since they parked.
    pub(crate) fn wake_fitting(&mut self, avail: &Resources) {
        for g in &mut self.groups {
            if let ParkReason::NoFit(r) = &g.reason {
                if !g.members.is_empty() && r.fits_in(avail) {
                    g.runnable = true;
                }
            }
        }
    }

    /// A fresh worker arrived: every resolved allocation fits an empty
    /// worker (resolution clamps to the node spec), so every NoFit
    /// certificate is void.
    pub(crate) fn wake_all_nofit(&mut self) {
        for g in &mut self.groups {
            if !g.members.is_empty() && matches!(g.reason, ParkReason::NoFit(_)) {
                g.runnable = true;
            }
        }
    }

    // ---- worker capacity / file-cache indexes ----

    pub(crate) fn worker_added(&mut self, id: u32, free_cores: u32) {
        self.cap_index.insert(free_cores, id);
    }

    pub(crate) fn worker_removed(
        &mut self,
        id: u32,
        free_cores: u32,
        cached_files: impl Iterator<Item = u32>,
    ) {
        self.cap_index.remove(free_cores, id);
        for f in cached_files {
            if let Some(set) = self.file_index.get_mut(f as usize) {
                set.remove(id);
            }
        }
    }

    /// Take a worker out of the capacity index without tearing down its
    /// file index (quarantine: the worker is alive, its cache intact, but
    /// it must not receive placements).
    pub(crate) fn worker_offline(&mut self, id: u32, free_cores: u32) {
        self.cap_index.remove(free_cores, id);
    }

    /// Put a quarantined worker back into the capacity index on release.
    pub(crate) fn worker_online(&mut self, id: u32, free_cores: u32) {
        self.cap_index.insert(free_cores, id);
    }

    pub(crate) fn update_free(&mut self, id: u32, old_free: u32, new_free: u32) {
        if old_free != new_free {
            self.cap_index.remove(old_free, id);
            self.cap_index.insert(new_free, id);
        }
    }

    /// `file` newly entered `id`'s cache.
    pub(crate) fn file_cached(&mut self, file: u32, id: u32) {
        if self.file_index.len() <= file as usize {
            self.file_index
                .resize_with(file as usize + 1, IdSet::default);
        }
        self.file_index[file as usize].insert(id);
    }

    /// Give up to `max` first-attempt pending items from the *back* of the
    /// global examination order — the coldest work under every policy — to
    /// a federation work-stealing balancer. Retries (attempt > 0) are never
    /// taken: their accounting is anchored to the home shard. Returns the
    /// stolen items warm-first (ascending order key), matching the
    /// reference scheduler's policy-view enumeration.
    pub(crate) fn steal_last(&mut self, max: usize) -> Vec<Pending> {
        #[cfg(test)]
        if let Some(q) = &mut self.reference {
            return q.steal_last(max);
        }
        let mut out: Vec<Pending> = Vec::new();
        while out.len() < max {
            // The largest order key among stealable (attempt == 0) items in
            // `ready` and in every park group. Groups are searched whether
            // runnable or asleep — parked work is exactly what a hot shard
            // cannot start soon.
            let mut best: Option<(OrderKey, Option<usize>)> = None;
            if let Some((&k, _)) = self.ready.iter().rev().find(|(_, p)| p.attempt == 0) {
                best = Some((k, None));
            }
            for (slot, g) in self.groups.iter().enumerate() {
                if let Some((&k, _)) = g.members.iter().rev().find(|(_, p)| p.attempt == 0) {
                    if best.is_none_or(|(bk, _)| k > bk) {
                        best = Some((k, Some(slot)));
                    }
                }
            }
            let Some((key, src)) = best else { break };
            let item = match src {
                None => self.ready.remove(&key).expect("found in ready"),
                Some(slot) => {
                    let g = &mut self.groups[slot];
                    let item = g.members.remove(&key).expect("found member");
                    self.parked -= 1;
                    g.runnable &= !g.members.is_empty();
                    item
                }
            };
            out.push(item);
        }
        out.reverse();
        out
    }

    /// Choose a worker for a task with `inputs` under `alloc`: prefer one
    /// with all the task's cacheable inputs already local, then the one with
    /// most free cores, lowest id breaking ties — exactly the reference
    /// preference, as one descending walk of the capacity index. The walk
    /// order *is* the `(free cores, id)` preference, so the first fitting
    /// worker found holding every input is the answer, and the first fitting
    /// worker of any kind is the fallback when no holder fits. Quarantined
    /// workers are absent from the index.
    pub(crate) fn pick_worker(
        &self,
        workers: &WorkerTable,
        inputs: &[InputRow],
        alloc: &Resources,
    ) -> Option<u32> {
        #[cfg(test)]
        if self.reference.is_some() {
            return reference::pick(workers, inputs, alloc);
        }
        // A full pool answers before any per-input work: when even the
        // freest worker has too few cores the walk below has no bucket to
        // visit.
        if self.cap_index.max_free().is_none_or(|f| f < alloc.cores) {
            return None;
        }
        let files = || inputs.iter().filter_map(|row| row.file());
        // With an input nobody holds no worker is preferred over another,
        // and the first fitting worker wins outright (as it does with no
        // cacheable input at all).
        let held = |f: u32| {
            self.file_index
                .get(f as usize)
                .is_some_and(|set| set.len > 0)
        };
        let preference = files().all(held);
        let mut fallback = None;
        // Below `alloc.cores` free cores nothing can fit.
        for (_, id) in self.cap_index.iter_desc(alloc.cores) {
            #[cfg(test)]
            PICK_PROBES.with(|c| c.set(c.get() + 1));
            let cached = !preference || files().all(|f| self.file_index[f as usize].contains(id));
            if !cached && fallback.is_some() {
                continue;
            }
            let worker = workers.get(id).expect("indexed worker is connected");
            if !worker.node.can_fit(alloc) {
                continue;
            }
            if cached {
                return Some(id);
            }
            fallback = Some(id);
        }
        fallback
    }
}

/// Dense ids (workers here, files in a worker's cache) as a bitset: bit
/// `id % 64` of word `id / 64`.
#[derive(Debug, Default, Clone)]
pub(crate) struct IdSet {
    words: Vec<u64>,
    len: u32,
}

impl IdSet {
    pub(crate) fn contains(&self, id: u32) -> bool {
        (self.words.get(id as usize / 64)).is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    pub(crate) fn insert(&mut self, id: u32) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.len += u32::from(self.words[w] & bit == 0);
        self.words[w] |= bit;
    }

    fn remove(&mut self, id: u32) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        if let Some(word) = self.words.get_mut(w) {
            self.len -= u32::from(*word & bit != 0);
            *word &= !bit;
        }
    }

    /// Members in ascending id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    w as u32 * 64 + bit
                })
            })
        })
    }
}

/// The capacity index: the set of `(free cores, worker id)` pairs of the
/// workers placements may go to, held as one [`IdSet`] per free-core count
/// (`0..=node cores`). Walking the buckets from the highest count down,
/// each in ascending id, is the reference `pick_worker` preference — most
/// free cores first, lowest id breaking ties. Removing a pair that is not
/// there is a no-op: a quarantined worker's entry is withdrawn once and its
/// later eviction withdraws it again.
#[derive(Debug, Default)]
struct CapIndex {
    buckets: Vec<IdSet>,
    /// The highest non-empty bucket (0 while every bucket is empty), kept
    /// current so a full pool is recognised without a scan.
    top: usize,
}

impl CapIndex {
    fn insert(&mut self, free: u32, id: u32) {
        let free = free as usize;
        if self.buckets.len() <= free {
            self.buckets.resize_with(free + 1, IdSet::default);
        }
        self.buckets[free].insert(id);
        self.top = self.top.max(free);
    }

    fn remove(&mut self, free: u32, id: u32) {
        if let Some(bucket) = self.buckets.get_mut(free as usize) {
            bucket.remove(id);
            while self.top > 0 && self.buckets[self.top].len == 0 {
                self.top -= 1;
            }
        }
    }

    /// The most free cores any indexed worker has.
    fn max_free(&self) -> Option<u32> {
        let top = self.buckets.get(self.top)?;
        (top.len > 0).then_some(self.top as u32)
    }

    /// `(free cores, id)` of every indexed worker with at least `min_free`
    /// free cores: most free first, lowest id first among equals.
    fn iter_desc(&self, min_free: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let live = &self.buckets[..self.buckets.len().min(self.top + 1)];
        let floor = (min_free as usize).min(live.len());
        (live[floor..].iter().enumerate().rev())
            .flat_map(move |(i, b)| b.iter().map(move |id| ((floor + i) as u32, id)))
    }
}

#[cfg(test)]
thread_local! {
    /// Workers examined by `pick_worker`, for the scaling guards (a failing
    /// examination on a full pool must not walk the pool).
    static PICK_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::FileRef;
    use crate::prepared::PreparedWorkload;
    use crate::task::TaskId;
    use crate::worker::Worker;
    use lfm_monitor::sim::SimTaskProfile;
    use lfm_simcluster::node::NodeSpec;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BTreeSet;

    fn task(id: u64, mem: u64, inputs: Vec<FileRef>) -> TaskSpec {
        TaskSpec::new(
            TaskId(id),
            "cat",
            inputs,
            0,
            SimTaskProfile::new(10.0, 1.0, mem, 100),
        )
    }

    /// The cacheable files these tests name, interned as a master's workload
    /// would intern them.
    fn file_table() -> PreparedWorkload {
        let files = vec![
            FileRef::environment("env", 100, 600, 10, 1),
            FileRef::shared_data("calib", 50),
            FileRef::shared_data("unheld", 10),
        ];
        PreparedWorkload::new(vec![task(0, 1, files)])
    }

    fn fid(file: &FileRef) -> u32 {
        (file_table().file_id(&file.name)).expect("a file of the table")
    }

    /// `task`'s input rows under [`file_table`]'s ids.
    fn rows(task: &TaskSpec) -> Vec<InputRow> {
        let mut table = file_table();
        table.admit(task.clone());
        table.inputs_of(table.len() - 1).to_vec()
    }

    fn pending(idx: usize) -> Pending {
        Pending {
            task_idx: idx,
            attempt: 0,
            since: SimTime::ZERO,
        }
    }

    #[test]
    fn order_keys_reproduce_policy_order() {
        // LargestFirst: bigger memory → smaller rank → examined first, with
        // insertion order breaking ties.
        let mut ix = IndexedSched::new(SchedulePolicy::LargestFirst);
        ix.push_back(&task(0, 100, vec![]), pending(0));
        ix.push_back(&task(1, 500, vec![]), pending(1));
        ix.push_back(&task(2, 500, vec![]), pending(2));
        let mut order = Vec::new();
        while ix.peek_min() == Some(Src::Ready) {
            order.push(ix.pop_ready().1.task_idx);
        }
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn push_front_examines_before_everything() {
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        ix.push_back(&task(0, 1, vec![]), pending(0));
        ix.push_front(&task(1, 1, vec![]), pending(1));
        ix.push_front(&task(2, 1, vec![]), pending(2));
        // Later front pushes land in front of earlier ones (deque order).
        let mut order = Vec::new();
        while ix.peek_min().is_some() {
            order.push(ix.pop_ready().1.task_idx);
        }
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn parked_groups_hidden_until_woken() {
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        ix.push_back(&task(0, 1, vec![]), pending(0));
        let (key, item) = ix.pop_ready();
        ix.park((0, false), Some(ParkReason::SlowStart), key, item);
        assert_eq!(ix.len(), 1);
        assert!(ix.is_asleep((0, false)));
        assert_eq!(ix.peek_min(), None);
        ix.wake_category(0, false);
        assert_eq!(ix.peek_min(), Some(Src::Group((0, false))));
        let (_, item) = ix.pop_group_head((0, false));
        assert_eq!(item.task_idx, 0);
        assert_eq!(ix.len(), 0);
    }

    #[test]
    fn nofit_wakes_only_on_fitting_capacity() {
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        ix.push_back(&task(0, 1, vec![]), pending(0));
        let (key, item) = ix.pop_ready();
        let want = Resources::new(4, 1000, 1000);
        ix.park((0, false), Some(ParkReason::NoFit(want)), key, item);
        ix.wake_category(0, false); // not a SlowStart park, no label change
        assert!(ix.is_asleep((0, false)));
        ix.wake_fitting(&Resources::new(2, 8000, 8000)); // too few cores
        assert!(ix.is_asleep((0, false)));
        ix.wake_fitting(&Resources::new(4, 1000, 1000));
        assert!(!ix.is_asleep((0, false)));
    }

    #[test]
    fn label_change_wakes_nofit_group() {
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        ix.push_back(&task(0, 1, vec![]), pending(0));
        let (key, item) = ix.pop_ready();
        ix.park(
            (0, false),
            Some(ParkReason::NoFit(Resources::new(8, 1, 1))),
            key,
            item,
        );
        ix.wake_category(0, true);
        assert!(!ix.is_asleep((0, false)));
    }

    #[test]
    fn pick_worker_prefers_cached_then_free_cores() {
        let spec = NodeSpec::new(8, 8192, 16384);
        let mut workers = WorkerTable::default();
        for id in 0..3u32 {
            workers.insert(Worker::new(id, spec));
        }
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        for id in 0..3u32 {
            ix.worker_added(id, 8);
        }
        let env = FileRef::environment("env", 100, 600, 10, 1);
        // Worker 2 holds the env; worker 0 has more free cores.
        assert!(workers.get_mut(2).unwrap().insert_cached(fid(&env)));
        ix.file_cached(fid(&env), 2);
        assert!(workers
            .get_mut(2)
            .unwrap()
            .node
            .allocate(Resources::new(4, 1, 1)));
        ix.update_free(2, 8, 4);
        let t = task(0, 1, vec![env.clone()]);
        let alloc = Resources::new(1, 100, 100);
        // Cached worker wins despite fewer free cores.
        assert_eq!(ix.pick_worker(&workers, &rows(&t), &alloc), Some(2));
        // Without cacheable inputs, most free cores + lowest id wins.
        let t2 = task(1, 1, vec![]);
        assert_eq!(ix.pick_worker(&workers, &rows(&t2), &alloc), Some(0));
        // Cached worker full: fall back to the most-free fitting worker.
        assert!(workers
            .get_mut(2)
            .unwrap()
            .node
            .allocate(Resources::new(4, 1, 1)));
        ix.update_free(2, 4, 0);
        assert_eq!(ix.pick_worker(&workers, &rows(&t), &alloc), Some(0));
    }

    #[test]
    fn steal_last_takes_coldest_first_attempts_only() {
        let mut ix = IndexedSched::new(SchedulePolicy::SmallestFirst);
        // Examination order by memory: 1 (100) < 0 (300) < 2 (900).
        ix.push_back(&task(0, 300, vec![]), pending(0));
        ix.push_back(&task(1, 100, vec![]), pending(1));
        ix.push_back(&task(2, 900, vec![]), pending(2));
        // A retry at the very back of the order must not be stealable.
        let retry = Pending {
            task_idx: 3,
            attempt: 2,
            since: SimTime::ZERO,
        };
        ix.push_back(&task(3, 5000, vec![]), retry);
        // Park one candidate: parked work is stealable too.
        let (key, item) = ix.pop_ready(); // task 1, warmest
        ix.park((0, false), Some(ParkReason::SlowStart), key, item);
        let stolen = ix.steal_last(2);
        let idxs: Vec<usize> = stolen.iter().map(|p| p.task_idx).collect();
        // Coldest two first attempts (0 then 2), warm-first order.
        assert_eq!(idxs, vec![0, 2]);
        // The retry and the parked task remain.
        assert_eq!(ix.len(), 2);
        let rest: Vec<usize> = ix.snapshot_pending().iter().map(|p| p.task_idx).collect();
        assert_eq!(rest, vec![1, 3]);
    }

    #[test]
    fn worker_removal_tears_down_indexes() {
        let spec = NodeSpec::new(8, 8192, 16384);
        let mut workers = WorkerTable::default();
        workers.insert(Worker::new(1, spec));
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        ix.worker_added(1, 8);
        ix.worker_added(2, 8);
        let env = FileRef::environment("env", 100, 600, 10, 1);
        workers.get_mut(1).unwrap().insert_cached(fid(&env));
        ix.file_cached(fid(&env), 2);
        ix.worker_removed(2, 8, std::iter::once(fid(&env)));
        let t = task(0, 1, vec![env]);
        // Worker 2 gone from both indexes: the env holder set is empty, and
        // capacity falls back to worker 1.
        assert_eq!(
            ix.pick_worker(&workers, &rows(&t), &Resources::new(1, 1, 1)),
            Some(1)
        );
    }

    // ---- placement oracle and scaling guards ----

    /// A pool and its mirrored index, built through the same calls the
    /// master makes (`worker_added`, `update_free`, `file_cached`,
    /// `worker_offline`).
    struct Pool {
        workers: WorkerTable,
        ix: IndexedSched,
    }

    impl Pool {
        fn new(n: u32, spec: NodeSpec) -> Self {
            let mut pool = Pool {
                workers: WorkerTable::default(),
                ix: IndexedSched::new(SchedulePolicy::Fifo),
            };
            for id in 0..n {
                pool.workers.insert(Worker::new(id, spec));
                pool.ix.worker_added(id, spec.resources.cores);
            }
            pool
        }

        fn free_cores(&self, id: u32) -> u32 {
            self.workers.get(id).unwrap().node.available().cores
        }

        fn allocate(&mut self, id: u32, r: Resources) {
            let old = self.free_cores(id);
            assert!(self.workers.get_mut(id).unwrap().node.allocate(r));
            self.ix.update_free(id, old, self.free_cores(id));
        }

        fn free(&mut self, id: u32, r: Resources) {
            let old = self.free_cores(id);
            self.workers.get_mut(id).unwrap().node.free(r);
            self.ix.update_free(id, old, self.free_cores(id));
        }

        fn cache(&mut self, id: u32, file: &FileRef) {
            if self.workers.get_mut(id).unwrap().insert_cached(fid(file)) {
                self.ix.file_cached(fid(file), id);
            }
        }

        fn quarantine(&mut self, id: u32) {
            self.workers.get_mut(id).unwrap().quarantined = true;
            self.ix.worker_offline(id, self.free_cores(id));
        }

        fn pick(&self, task: &TaskSpec, alloc: &Resources) -> Option<u32> {
            self.ix.pick_worker(&self.workers, &rows(task), alloc)
        }

        fn reference_pick(&self, task: &TaskSpec, alloc: &Resources) -> Option<u32> {
            reference::pick(&self.workers, &rows(task), alloc)
        }
    }

    fn probes_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
        PICK_PROBES.with(|c| c.set(0));
        let out = f();
        (out, PICK_PROBES.with(|c| c.get()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fused capacity-ordered scan picks the worker the reference
        /// scan picks, on random pools: partially cached inputs, no
        /// cacheable inputs, an input nobody holds (empty `file_index`
        /// entry), non-holders with the most free cores, workers with cores
        /// to spare but no memory, quarantined holders.
        #[test]
        fn pick_worker_equals_reference_scan(
            shape in prop::collection::vec(
                (0u32..=8, 0u64..=8, 0u8..6, any::<bool>(), any::<bool>()),
                1..24,
            ),
            inputs in 0u8..6,
            want_cores in 1u32..=4,
            want_mem in 1u64..=8,
        ) {
            let env = FileRef::environment("env", 100, 600, 10, 1);
            let calib = FileRef::shared_data("calib", 50);
            let mut pool = Pool::new(shape.len() as u32, NodeSpec::new(8, 8192, 16384));
            for (id, &(cores, mem, quarantine, has_env, has_calib)) in shape.iter().enumerate() {
                let id = id as u32;
                pool.allocate(id, Resources::new(cores, mem * 1024, 1));
                if has_env {
                    pool.cache(id, &env);
                }
                if has_calib {
                    pool.cache(id, &calib);
                }
                if quarantine == 0 {
                    pool.quarantine(id);
                }
            }
            let inputs = match inputs {
                0 => vec![],
                1 => vec![FileRef::data("in", 10)],
                2 => vec![env],
                3 => vec![env, FileRef::data("in", 10), calib],
                4 => vec![env, FileRef::shared_data("unheld", 10)],
                _ => vec![FileRef::shared_data("unheld", 10)],
            };
            let t = task(0, 1, inputs);
            let alloc = Resources::new(want_cores, want_mem * 1024, 100);
            let (got, probes) = probes_of(|| pool.pick(&t, &alloc));
            prop_assert_eq!(got, pool.reference_pick(&t, &alloc));
            let could_fit_cores = pool
                .workers
                .values()
                .filter(|w| !w.quarantined && w.node.available().cores >= want_cores)
                .count() as u64;
            prop_assert!(probes <= could_fit_cores, "{probes} probes > {could_fit_cores}");
        }
    }

    // ---- oracle: file cache, staging and file index keyed by file *name* ----

    /// A worker's cache and in-flight staging as `Worker` kept them.
    #[derive(Default)]
    struct NameCache {
        cache: BTreeSet<String>,
        staging: BTreeMap<String, SimTime>,
    }

    impl NameCache {
        fn has_cached(&self, name: &str) -> bool {
            self.cache.contains(name)
        }

        fn insert_cached(&mut self, file: &FileRef) -> bool {
            let newly_cached = file.cacheable
                && !self.cache.contains(&file.name)
                && self.cache.insert(file.name.clone());
            self.staging.remove(&file.name);
            newly_cached
        }

        fn staging_ready(&self, name: &str) -> Option<SimTime> {
            self.staging.get(name).copied()
        }

        fn mark_staging(&mut self, name: &str, ready: SimTime) {
            self.staging.insert(name.to_string(), ready);
        }

        fn abort_staging(&mut self, name: &str) {
            if !self.cache.contains(name) {
                self.staging.remove(name);
            }
        }
    }

    /// The scheduler's file index as it was, with the holder-set walk of
    /// `pick_worker` over it (the capacity index is the live one's).
    #[derive(Default)]
    struct NameIndex(BTreeMap<String, BTreeSet<u32>>);

    impl NameIndex {
        fn file_cached(&mut self, file: &str, id: u32) {
            self.0.entry(file.to_string()).or_default().insert(id);
        }

        fn worker_removed<'a>(&mut self, id: u32, cached_files: impl Iterator<Item = &'a str>) {
            for f in cached_files {
                if let Some(set) = self.0.get_mut(f) {
                    set.remove(&id);
                    if set.is_empty() {
                        self.0.remove(f);
                    }
                }
            }
        }

        fn pick_worker(
            &self,
            cap_index: &CapIndex,
            workers: &WorkerTable,
            task: &TaskSpec,
            alloc: &Resources,
        ) -> Option<u32> {
            if cap_index.max_free().is_none_or(|f| f < alloc.cores) {
                return None;
            }
            let mut holder_sets: Vec<&BTreeSet<u32>> = Vec::new();
            for f in task.inputs.iter().filter(|f| f.cacheable) {
                match self.0.get(&f.name) {
                    Some(set) => holder_sets.push(set),
                    None => {
                        holder_sets.clear();
                        break;
                    }
                }
            }
            let mut fallback = None;
            for (_, id) in cap_index.iter_desc(alloc.cores) {
                let cached = holder_sets.iter().all(|s| s.contains(&id));
                if !cached && fallback.is_some() {
                    continue;
                }
                let worker = workers.get(id).expect("indexed worker is connected");
                if !worker.node.can_fit(alloc) {
                    continue;
                }
                if cached {
                    return Some(id);
                }
                fallback = Some(id);
            }
            fallback
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Worker caches, in-flight staging and the scheduler's file index
        /// by interned file id are the name-keyed trio they replaced, under
        /// the calls the master makes — cache, stage, abort, evict,
        /// quarantine, `rebuild_sched` after a crash — with one file first
        /// named by a streamed admission: equal answers per worker and file,
        /// equal holder sets, and the same worker picked for every task.
        #[test]
        fn file_ids_equal_the_name_keyed_oracle(
            ops in prop::collection::vec((0u8..10, 0u32..5, 0usize..4, 1u32..50), 1..150),
        ) {
            let files = [
                FileRef::environment("env", 100, 600, 10, 1),
                FileRef::shared_data("calib", 50),
                FileRef::shared_data("ref", 70),
                FileRef::shared_data("late", 10),
            ];
            let own = FileRef::data("in", 10);
            let mut work = PreparedWorkload::new(vec![
                task(0, 1, vec![own.clone(), files[0].clone(), files[1].clone()]),
                task(1, 1, vec![files[2].clone()]),
                task(2, 1, vec![own.clone()]),
                task(3, 1, vec![files[1].clone(), files[2].clone(), files[0].clone()]),
            ]);
            let streamed = task(4, 1, vec![files[3].clone(), own, files[0].clone()]);
            let spec = NodeSpec::new(8, 8192, 16384);
            let alloc = Resources::new(2, 1024, 10);

            let mut workers = WorkerTable::default();
            let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
            let mut caches: BTreeMap<u32, NameCache> = BTreeMap::new();
            let mut index = NameIndex::default();
            // Slot `i` of the pool is worker `pool[i]`; an evicted worker's
            // replacement comes under a fresh id.
            let mut pool: Vec<u32> = Vec::new();
            let mut next_id = 0u32;
            let join = |workers: &mut WorkerTable, ix: &mut IndexedSched, caches: &mut BTreeMap<u32, NameCache>, id: u32| {
                let mut w = Worker::new(id, spec);
                assert!(w.node.allocate(Resources::new(id % 4 * 2, 1, 1)));
                ix.worker_added(id, w.node.available().cores);
                workers.insert(w);
                caches.insert(id, NameCache::default());
            };
            for _ in 0..5 {
                join(&mut workers, &mut ix, &mut caches, next_id);
                pool.push(next_id);
                next_id += 1;
            }

            for (kind, slot, file, t) in ops {
                let wid = pool[slot as usize];
                let f = &files[file];
                // A file no admitted task names has no id — and no way to be
                // staged or cached.
                let fid = work.file_id(&f.name);
                let ready = SimTime::ZERO + t as f64;
                let w = workers.get_mut(wid).expect("pooled");
                let c = caches.get_mut(&wid).expect("pooled");
                match (kind, fid) {
                    (0..=2, Some(fid)) => {
                        let newly = w.insert_cached(fid);
                        prop_assert_eq!(newly, c.insert_cached(f));
                        if newly {
                            ix.file_cached(fid, wid);
                            index.file_cached(&f.name, wid);
                        }
                    }
                    (3 | 4, Some(fid)) => {
                        w.mark_staging(fid, ready);
                        c.mark_staging(&f.name, ready);
                    }
                    (5, Some(fid)) => {
                        w.abort_staging(fid);
                        c.abort_staging(&f.name);
                    }
                    (6, _) => {
                        let free = w.node.available().cores;
                        let gone = workers.remove(wid).expect("pooled");
                        ix.worker_removed(wid, free, gone.cached_files());
                        let c = caches.remove(&wid).expect("pooled");
                        index.worker_removed(wid, c.cache.iter().map(String::as_str));
                        join(&mut workers, &mut ix, &mut caches, next_id);
                        pool[slot as usize] = next_id;
                        next_id += 1;
                    }
                    (7, _) if !w.quarantined => {
                        w.quarantined = true;
                        ix.worker_offline(wid, w.node.available().cores);
                    }
                    // `Master::rebuild_sched`, and the index it rebuilt then.
                    (8, _) => {
                        ix = IndexedSched::new(SchedulePolicy::Fifo);
                        index = NameIndex::default();
                        for w in workers.values() {
                            if !w.quarantined {
                                ix.worker_added(w.id(), w.node.available().cores);
                            }
                            for f in w.cached_files() {
                                ix.file_cached(f, w.id());
                            }
                            for name in &caches[&w.id()].cache {
                                index.file_cached(name, w.id());
                            }
                        }
                    }
                    (9, None) => {
                        work.admit(streamed.clone());
                        prop_assert_eq!(work.file_id("late"), Some(3));
                    }
                    _ => {}
                }

                let known: Vec<(&FileRef, u32)> = (files.iter())
                    .filter_map(|f| Some((f, work.file_id(&f.name)?)))
                    .collect();
                for w in workers.values() {
                    let c = &caches[&w.id()];
                    for &(f, fid) in &known {
                        prop_assert_eq!(w.has_cached(fid), c.has_cached(&f.name));
                        prop_assert_eq!(w.staging_ready(fid), c.staging_ready(&f.name));
                    }
                    let cached: BTreeSet<&str> = (w.cached_files())
                        .map(|fid| known.iter().find(|k| k.1 == fid).expect("a known id").0.name.as_str())
                        .collect();
                    prop_assert_eq!(cached, c.cache.iter().map(String::as_str).collect::<BTreeSet<_>>());
                }
                for &(f, fid) in &known {
                    let holders: BTreeSet<u32> =
                        ix.file_index.get(fid as usize).map(|s| s.iter().collect()).unwrap_or_default();
                    prop_assert_eq!(&holders, index.0.get(&f.name).unwrap_or(&BTreeSet::new()), "{}", &f.name);
                }
                for (i, t) in work.tasks().iter().enumerate() {
                    prop_assert_eq!(
                        ix.pick_worker(&workers, work.inputs_of(i), &alloc),
                        index.pick_worker(&ix.cap_index, &workers, t, &alloc),
                        "task {}", i
                    );
                }
            }
        }
    }

    // ---- oracle: park groups as an ordered map plus an ordered wake set ----

    struct MapGroup {
        reason: ParkReason,
        members: BTreeMap<OrderKey, Pending>,
    }

    /// The queue half of `IndexedSched` as it was before the park table:
    /// `groups` a `BTreeMap` that holds a group only while it has members
    /// (or is between a successful pop and `drop_group_if_empty`),
    /// `runnable` a `BTreeSet`. Order keys come from the caller.
    #[derive(Default)]
    struct MapGroups {
        ready: BTreeMap<OrderKey, Pending>,
        groups: BTreeMap<GroupKey, MapGroup>,
        runnable: BTreeSet<GroupKey>,
        parked: usize,
    }

    impl MapGroups {
        fn len(&self) -> usize {
            self.ready.len() + self.parked
        }

        fn snapshot_pending(&self) -> Vec<Pending> {
            let mut all: Vec<(OrderKey, Pending)> = self
                .ready
                .iter()
                .chain(self.groups.values().flat_map(|g| g.members.iter()))
                .map(|(&k, p)| (k, p.clone()))
                .collect();
            all.sort_by_key(|&(k, _)| k);
            all.into_iter().map(|(_, p)| p).collect()
        }

        fn peek_min(&self) -> Option<Src> {
            let mut best: Option<(OrderKey, Src)> =
                self.ready.keys().next().map(|&k| (k, Src::Ready));
            for &gk in &self.runnable {
                let head = *self.groups[&gk]
                    .members
                    .keys()
                    .next()
                    .expect("runnable group is non-empty");
                if best.is_none_or(|(bk, _)| head < bk) {
                    best = Some((head, Src::Group(gk)));
                }
            }
            best.map(|(_, src)| src)
        }

        fn pop_ready(&mut self) -> (OrderKey, Pending) {
            self.ready.pop_first().expect("peek_min said ready")
        }

        fn group_head(&self, gk: GroupKey) -> &Pending {
            let g = self.groups.get(&gk).expect("runnable group exists");
            g.members.values().next().expect("runnable group non-empty")
        }

        fn pop_group_head(&mut self, gk: GroupKey) -> (OrderKey, Pending) {
            let g = self.groups.get_mut(&gk).expect("runnable group exists");
            let (key, item) = g.members.pop_first().expect("runnable group non-empty");
            self.parked -= 1;
            (key, item)
        }

        fn sleep_group(&mut self, gk: GroupKey, reason: ParkReason) {
            self.groups.get_mut(&gk).expect("group exists").reason = reason;
            self.runnable.remove(&gk);
        }

        fn drop_group_if_empty(&mut self, gk: GroupKey) {
            if self.groups.get(&gk).is_some_and(|g| g.members.is_empty()) {
                self.groups.remove(&gk);
                self.runnable.remove(&gk);
            }
        }

        fn is_asleep(&self, gk: GroupKey) -> bool {
            self.groups.contains_key(&gk) && !self.runnable.contains(&gk)
        }

        fn park(&mut self, gk: GroupKey, reason: Option<ParkReason>, key: OrderKey, item: Pending) {
            match reason {
                Some(r) => {
                    let g = self.groups.entry(gk).or_insert_with(|| MapGroup {
                        reason: r.clone(),
                        members: BTreeMap::new(),
                    });
                    g.reason = r;
                    self.runnable.remove(&gk);
                    g.members.insert(key, item);
                }
                None => {
                    let g = self.groups.get_mut(&gk).expect("joining an existing group");
                    g.members.insert(key, item);
                }
            }
            self.parked += 1;
        }

        fn wake_category(&mut self, cat: u32, label_changed: bool) {
            let gk = (cat, false);
            if let Some(g) = self.groups.get(&gk) {
                if label_changed || g.reason == ParkReason::SlowStart {
                    self.runnable.insert(gk);
                }
            }
        }

        fn wake_fitting(&mut self, avail: &Resources) {
            for (gk, g) in &self.groups {
                if let ParkReason::NoFit(r) = &g.reason {
                    if r.fits_in(avail) {
                        self.runnable.insert(*gk);
                    }
                }
            }
        }

        fn wake_all_nofit(&mut self) {
            for (gk, g) in &self.groups {
                if matches!(g.reason, ParkReason::NoFit(_)) {
                    self.runnable.insert(*gk);
                }
            }
        }

        fn steal_last(&mut self, max: usize) -> Vec<Pending> {
            let mut out: Vec<Pending> = Vec::new();
            while out.len() < max {
                let mut best: Option<(OrderKey, Option<GroupKey>)> = None;
                if let Some((&k, _)) = self.ready.iter().rev().find(|(_, p)| p.attempt == 0) {
                    best = Some((k, None));
                }
                for (&gk, g) in &self.groups {
                    if let Some((&k, _)) = g.members.iter().rev().find(|(_, p)| p.attempt == 0) {
                        if best.is_none_or(|(bk, _)| k > bk) {
                            best = Some((k, Some(gk)));
                        }
                    }
                }
                let Some((key, src)) = best else { break };
                let item = match src {
                    None => self.ready.remove(&key).expect("found in ready"),
                    Some(gk) => {
                        let g = self.groups.get_mut(&gk).expect("found in group");
                        let item = g.members.remove(&key).expect("found member");
                        self.parked -= 1;
                        if g.members.is_empty() {
                            self.groups.remove(&gk);
                            self.runnable.remove(&gk);
                        }
                        item
                    }
                };
                out.push(item);
            }
            out.reverse();
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The park table is the map-and-set pair it replaced: over random
        /// arrivals at both ends, dispatch steps that place, park or put to
        /// sleep as `Master::dispatch` does, the three wakes and steals,
        /// across six categories x {first, retry}, both yield the same
        /// `peek_min` sequence, the same wake set and sleepers, the same
        /// `snapshot_pending` and the same stolen items.
        #[test]
        fn park_table_equals_the_map_and_set_oracle(
            ops in prop::collection::vec(
                (0u8..12, 0u32..6, any::<bool>(), 1u64..4, any::<bool>()),
                1..250,
            ),
        ) {
            let nofit = |cores: u64| ParkReason::NoFit(Resources::new(cores as u32, 100 * cores, 10));
            let mut ix = IndexedSched::new(SchedulePolicy::SmallestFirst);
            let mut oracle = MapGroups::default();
            // (category, attempt) of every task pushed so far, by task index.
            let mut tasks: Vec<(u32, u32)> = Vec::new();
            let (mut front_seq, mut back_seq) = (-1i64, 0i64);
            for (kind, cat, retry, size, coin) in ops {
                let gk_of = |item: &Pending| (tasks[item.task_idx].0, item.attempt > 0);
                match kind {
                    0..=3 => {
                        let item = Pending { task_idx: tasks.len(), attempt: retry as u32, since: SimTime::ZERO };
                        tasks.push((cat, item.attempt));
                        let spec = task(0, size * 100, vec![]);
                        let rank = policy_rank(SchedulePolicy::SmallestFirst, size * 100);
                        if kind == 0 {
                            ix.push_front(&spec, item.clone());
                            oracle.ready.insert((rank, front_seq), item);
                            front_seq -= 1;
                        } else {
                            ix.push_back(&spec, item.clone());
                            oracle.ready.insert((rank, back_seq), item);
                            back_seq += 1;
                        }
                    }
                    // One step of a dispatch pass.
                    4..=7 => {
                        let src = ix.peek_min();
                        prop_assert_eq!(src, oracle.peek_min());
                        let reason = if coin { ParkReason::SlowStart } else { nofit(size) };
                        match src {
                            None => {}
                            Some(Src::Ready) => {
                                let (key, item) = ix.pop_ready();
                                prop_assert_eq!((key, item.clone()), oracle.pop_ready());
                                let gk = gk_of(&item);
                                prop_assert_eq!(ix.is_asleep(gk), oracle.is_asleep(gk));
                                if ix.is_asleep(gk) {
                                    ix.park(gk, None, key, item.clone());
                                    oracle.park(gk, None, key, item);
                                } else if kind == 4 {
                                    // Placed: the old pass then swept the group.
                                    oracle.drop_group_if_empty(gk);
                                } else {
                                    ix.park(gk, Some(reason.clone()), key, item.clone());
                                    oracle.park(gk, Some(reason), key, item);
                                }
                            }
                            Some(Src::Group(gk)) => {
                                prop_assert_eq!(ix.group_head(gk), oracle.group_head(gk));
                                if kind <= 5 {
                                    prop_assert_eq!(ix.pop_group_head(gk), oracle.pop_group_head(gk));
                                    oracle.drop_group_if_empty(gk);
                                } else {
                                    ix.sleep_group(gk, reason.clone());
                                    oracle.sleep_group(gk, reason);
                                }
                            }
                        }
                    }
                    8 => {
                        ix.wake_category(cat, coin);
                        oracle.wake_category(cat, coin);
                    }
                    9 => {
                        let avail = Resources::new(size as u32, 100 * size, 10);
                        ix.wake_fitting(&avail);
                        oracle.wake_fitting(&avail);
                    }
                    10 => {
                        ix.wake_all_nofit();
                        oracle.wake_all_nofit();
                    }
                    _ => prop_assert_eq!(ix.steal_last(size as usize), oracle.steal_last(size as usize)),
                }
                prop_assert_eq!(ix.len(), oracle.len());
                prop_assert_eq!(ix.peek_min(), oracle.peek_min());
                prop_assert_eq!(ix.snapshot_pending(), oracle.snapshot_pending());
                let woken: Vec<GroupKey> = (0..6)
                    .flat_map(|c| [(c, false), (c, true)])
                    .filter(|&gk| ix.groups.get(slot(gk)).is_some_and(|g| g.runnable))
                    .collect();
                prop_assert_eq!(woken, oracle.runnable.iter().copied().collect::<Vec<_>>());
                for gk in (0..6).flat_map(|c| [(c, false), (c, true)]) {
                    prop_assert_eq!(ix.is_asleep(gk), oracle.is_asleep(gk), "{:?}", gk);
                }
            }
        }
    }

    /// The capacity index this module kept before the bucketed one: an
    /// ordered set of `(free cores, Reverse(worker id))`, read backwards.
    #[derive(Default)]
    struct CapOracle(BTreeSet<(u32, Reverse<u32>)>);

    impl CapOracle {
        fn worker_added(&mut self, id: u32, free_cores: u32) {
            self.0.insert((free_cores, Reverse(id)));
        }
        fn worker_removed(&mut self, id: u32, free_cores: u32) {
            self.0.remove(&(free_cores, Reverse(id)));
        }
        fn worker_offline(&mut self, id: u32, free_cores: u32) {
            self.0.remove(&(free_cores, Reverse(id)));
        }
        fn worker_online(&mut self, id: u32, free_cores: u32) {
            self.0.insert((free_cores, Reverse(id)));
        }
        fn update_free(&mut self, id: u32, old_free: u32, new_free: u32) {
            if old_free != new_free {
                self.0.remove(&(old_free, Reverse(id)));
                self.0.insert((new_free, Reverse(id)));
            }
        }
        fn max_free(&self) -> Option<u32> {
            self.0.last().map(|&(free, _)| free)
        }
        fn iter_desc(&self) -> Vec<(u32, u32)> {
            (self.0.iter().rev())
                .map(|&(free, Reverse(id))| (free, id))
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bucketed index holds the pairs the ordered set held and walks
        /// them in its order, under the calls the master makes and under
        /// ones it must shrug off: a removal or a move of a pair that is not
        /// there (a stale free-core count, a worker withdrawn twice).
        #[test]
        fn capacity_buckets_equal_the_ordered_set_oracle(
            ops in prop::collection::vec(
                (0u8..5, 0u32..300, 0u32..=64, 0u32..=64, any::<bool>()),
                1..200,
            ),
            cores in 1u32..=64,
        ) {
            let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
            let mut oracle = CapOracle::default();
            // Where each id was last put, so most removals hit an entry.
            let mut last: BTreeMap<u32, u32> = BTreeMap::new();
            for (kind, id, a, b, stale) in ops {
                let (a, b) = (a % (cores + 1), b % (cores + 1));
                let known = if stale { a } else { last.get(&id).copied().unwrap_or(a) };
                match kind {
                    0 => {
                        ix.worker_added(id, cores);
                        oracle.worker_added(id, cores);
                        last.insert(id, cores);
                    }
                    1 => {
                        ix.update_free(id, known, b);
                        oracle.update_free(id, known, b);
                        last.insert(id, b);
                    }
                    2 => {
                        ix.worker_offline(id, known);
                        oracle.worker_offline(id, known);
                    }
                    3 => {
                        ix.worker_online(id, known);
                        oracle.worker_online(id, known);
                        last.insert(id, known);
                    }
                    _ => {
                        ix.worker_removed(id, known, std::iter::empty());
                        oracle.worker_removed(id, known);
                    }
                }
                prop_assert_eq!(ix.cap_index.max_free(), oracle.max_free());
                prop_assert_eq!(
                    ix.cap_index.iter_desc(0).collect::<Vec<_>>(),
                    oracle.iter_desc()
                );
            }
            // A floor cuts the walk where the ordered set's scan broke off.
            let floor = cores / 2;
            let above: Vec<_> =
                (oracle.iter_desc().into_iter()).filter(|&(free, _)| free >= floor).collect();
            prop_assert_eq!(ix.cap_index.iter_desc(floor).collect::<Vec<_>>(), above);
        }
    }

    #[test]
    fn full_warm_pool_examinations_do_not_walk_the_pool() {
        // 256 x 16 cores, every worker holding the environment and fully
        // busy with 1-core tasks: the steady state of a large batch.
        let env = FileRef::environment("env", 100, 600, 10, 1);
        let one = Resources::new(1, 512, 512);
        let mut pool = Pool::new(256, NodeSpec::new(16, 65536, 65536));
        for id in 0..256 {
            pool.cache(id, &env);
            for _ in 0..16 {
                pool.allocate(id, one);
            }
        }
        let t = task(0, 1, vec![env]);
        // The settling examination after a placement: nothing fits, and the
        // scan knows from the index head alone.
        assert_eq!(probes_of(|| pool.pick(&t, &one)), (None, 0));
        // A completion frees one slot: only that worker is examined.
        pool.free(200, one);
        assert_eq!(probes_of(|| pool.pick(&t, &one)), (Some(200), 1));
        // Several free slots, the freest without the memory to use theirs:
        // the scan is bounded by the workers with enough free cores.
        pool.free(7, one);
        pool.free(7, one);
        pool.allocate(7, Resources::new(0, 65536 - 14 * 512, 0));
        pool.free(90, one);
        let (got, probes) = probes_of(|| pool.pick(&t, &one));
        assert_eq!(got, Some(90));
        assert!(
            probes <= 3,
            "{probes} probes for 3 workers with a free core"
        );
    }
}
