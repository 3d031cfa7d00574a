//! Automatic resource labeling (§VI-B2, after Tovar et al. \[21\]).
//!
//! Four strategies, matching the paper's evaluation matrix:
//!
//! * **Oracle** — perfect knowledge: request exactly the task's true peak
//!   (supplied per category by the experiment).
//! * **Guess** — a fixed user-provided estimate for every task.
//! * **Unmanaged** — a whole worker per task, no limits.
//! * **Auto** — no prior knowledge: run the first task(s) of each category
//!   under a whole-worker allocation with monitoring, then choose a
//!   first-allocation label that maximizes expected throughput from the
//!   empirical peak-usage distribution; tasks that exhaust the label retry
//!   once at the full worker size.
//!
//! The Auto label for each resource axis is the candidate value `a`
//! minimizing the expected resource·time cost per completed task:
//!
//! ```text
//! E[cost](a) = P(u ≤ a)·a + (1 − P(u ≤ a))·(a + A_retry)
//! ```
//!
//! i.e. successes occupy `a`, failures occupy `a` then retry at the
//! *retry allocation* `A_retry` — a whole worker, whose per-axis capacity
//! the scheduler supplies. Minimizing this trades retry waste against
//! packing density exactly as \[21\] describes.

use crate::prepared::Interner;
use lfm_monitor::report::{ResourceKind, ResourceReport};
use lfm_simcluster::node::Resources;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which allocation strategy a run uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Request the per-category resources supplied here (perfect knowledge).
    Oracle(BTreeMap<String, Resources>),
    /// Request this fixed vector for every task.
    Guess(Resources),
    /// A whole worker per task.
    Unmanaged,
    /// Monitor, label, retry — the paper's contribution.
    Auto(AutoConfig),
}

impl Strategy {
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Oracle(_) => "Oracle",
            Strategy::Guess(_) => "Guess",
            Strategy::Unmanaged => "Unmanaged",
            Strategy::Auto(_) => "Auto",
        }
    }
}

/// Tuning for the Auto strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoConfig {
    /// Completed samples required per category before labeling starts.
    pub min_samples: usize,
    /// Safety multiplier applied to the chosen memory/disk label (small
    /// headroom avoids over-fitting to the samples seen so far).
    pub headroom: f64,
    /// Slow-start: while a category has fewer than this many completed
    /// samples, at most `max(4, 2·samples)` of its sized first attempts run
    /// concurrently. Prevents an immature label from killing a whole wave
    /// at once when the usage distribution has a tail.
    pub slow_start_until: usize,
}

impl Default for AutoConfig {
    fn default() -> Self {
        // Label only after a handful of whole-worker measurement runs, and
        // keep real headroom above the observed max: premature labeling
        // from one sample turns the whole first batch into retries.
        AutoConfig {
            min_samples: 2,
            headroom: 1.25,
            slow_start_until: 16,
        }
    }
}

/// What the allocator tells the master to do for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocationDecision {
    /// Request this vector, enforce it as a limit.
    Sized(Resources),
    /// Take a whole worker, unlimited (measurement run or retry).
    WholeWorker,
}

/// What one observation changed, from the scheduler's point of view. The
/// master's indexed dispatcher parks tasks it cannot place and re-examines
/// them only when an event could change the outcome; this is the allocator's
/// side of that protocol (see `sched.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObservationEffects {
    /// The category's first-attempt decision changed (an Auto label was
    /// learned or revised) — parked tasks of the category must be re-sized.
    pub label_changed: bool,
    /// The slow-start concurrency cap changed (grew or lifted).
    pub cap_changed: bool,
}

/// Observed peaks on one axis as an ordered multiset: `(value, count)` runs
/// in ascending value order, plus the total. Peaks are whole megabytes, so
/// the runs stay few however many tasks finish, and both recording and
/// labeling cost O(distinct values) rather than O(samples).
#[derive(Debug, Default, Clone)]
struct PeakCounts {
    runs: Vec<(f64, usize)>,
    total: usize,
}

impl PeakCounts {
    fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample");
        let i = self.runs.partition_point(|&(v, _)| v < x);
        match self.runs.get_mut(i) {
            Some((v, n)) if *v == x => *n += 1,
            _ => self.runs.insert(i, (x, 1)),
        }
        self.total += 1;
    }

    fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Every sample, ascending (the snapshot's canonical order).
    fn expanded(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.total);
        for &(v, n) in &self.runs {
            out.extend(std::iter::repeat_n(v, n));
        }
        out
    }

    /// Choose the throughput-maximizing first allocation from observed peaks.
    ///
    /// Candidates are the distinct observed values. Returns the candidate
    /// minimizing `P(u≤a)·a + (1−P(u≤a))·(a + retry_cost)`, where
    /// `retry_cost` is the per-axis size of the whole-worker retry
    /// allocation; the smallest minimizer wins ties. One ascending pass: the
    /// running count is the empirical CDF's numerator at each candidate.
    fn choose_label(&self, retry_cost: f64) -> Option<f64> {
        let mut best = self.runs.last()?.0;
        let mut best_cost = f64::INFINITY;
        let mut at_or_below = 0usize;
        for &(a, n) in &self.runs {
            #[cfg(test)]
            LABEL_VISITS.with(|c| c.set(c.get() + 1));
            at_or_below += n;
            let p = at_or_below as f64 / self.total as f64;
            let cost = p * a + (1.0 - p) * (a + retry_cost);
            if cost < best_cost {
                best_cost = cost;
                best = a;
            }
        }
        Some(best)
    }
}

#[cfg(test)]
thread_local! {
    /// Multiset entries visited by `choose_label`, for the scaling guard
    /// (one evaluation must cost O(distinct values), not O(samples)).
    static LABEL_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Per-category observed peak samples.
#[derive(Debug, Default, Clone)]
struct CategoryStats {
    /// Raw core peaks, kept only for the durability snapshot: the label
    /// needs just their maximum.
    cores: Vec<f64>,
    cores_max: Option<f64>,
    memory_mb: PeakCounts,
    disk_mb: PeakCounts,
    completed: usize,
    /// [`Strategy::Oracle`]'s entry for the category, resolved when it is
    /// interned.
    oracle: Option<Resources>,
    /// Memoized Auto label for a given worker capacity, invalidated on every
    /// new observation. The scheduler consults the label once per dispatch
    /// examination and twice per completion (the change-notification hook);
    /// the memo makes every consultation between two observations O(1)
    /// instead of a pass over both multisets.
    label_memo: Option<(Resources, Option<Resources>)>,
}

impl CategoryStats {
    fn record_cores(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample");
        self.cores.push(x);
        self.cores_max = Some(self.cores_max.map_or(x, |m| m.max(x)));
    }
}

/// The samples one observation adds to a category's stores, as
/// `[cores, memory_mb, disk_mb]`. A clean run contributes its floored peak
/// on every axis. A killed run observed only partial usage: its
/// non-violated axes are truncated lower bounds that would drag the labels
/// down, so only the violated axis counts — censored, hence doubled (see
/// [`Allocator::observe`]). Journal replay rebuilds sample stores with the
/// same function, so recovered labels are the live ones.
pub(crate) fn censored_samples(
    peak_cores: f64,
    peak_rss_mb: u64,
    peak_disk_mb: u64,
    violated: Option<ResourceKind>,
) -> [Option<f64>; 3] {
    let factor = |axis| match violated {
        None => Some(1.0),
        Some(kind) if kind == axis => Some(2.0),
        Some(_) => None,
    };
    [
        factor(ResourceKind::Cores).map(|f| peak_cores.max(0.01) * f),
        factor(ResourceKind::Memory).map(|f| peak_rss_mb.max(1) as f64 * f),
        factor(ResourceKind::Disk).map(|f| peak_disk_mb.max(1) as f64 * f),
    ]
}

/// The allocator: owns strategy state and learns from reports.
/// One category's exported sample stores, in canonical (sorted) order:
/// `(cores, memory_mb, disk_mb, completed)`.
pub(crate) type CategorySnapshot = (Vec<f64>, Vec<f64>, Vec<f64>, usize);

/// Categories are dense ids, handed out by [`intern`](Allocator::intern) in
/// first-seen order. A master interns its workload's category table in
/// order, so its category ids *are* the allocator's; the by-name methods
/// resolve the name and call the id form.
#[derive(Debug)]
pub struct Allocator {
    strategy: Strategy,
    ids: Interner,
    /// By category id.
    stats: Vec<CategoryStats>,
    /// Count of label-exceeded retries, for the <1%-retries claim.
    pub retries: u64,
    /// Total first-attempt dispatches.
    pub first_attempts: u64,
}

impl Allocator {
    pub fn new(strategy: Strategy) -> Self {
        Allocator {
            strategy,
            ids: Interner::default(),
            stats: Vec::new(),
            retries: 0,
            first_attempts: 0,
        }
    }

    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The id of `category`, assigned on first sight.
    pub fn intern(&mut self, category: &str) -> u32 {
        let id = self.ids.intern(category);
        if id as usize == self.stats.len() {
            let oracle = match &self.strategy {
                Strategy::Oracle(map) => map.get(category).copied(),
                _ => None,
            };
            self.stats.push(CategoryStats {
                oracle,
                ..CategoryStats::default()
            });
        }
        id
    }

    /// Decide the allocation for an attempt of `category`, on workers of
    /// per-node `capacity` (the retry cost the label optimization weighs).
    ///
    /// `attempt` 0 is the first try; higher attempts (after a resource kill)
    /// always get a whole worker, per the paper's retry policy.
    pub fn decide(
        &mut self,
        category: &str,
        attempt: u32,
        capacity: &Resources,
    ) -> AllocationDecision {
        let cat = self.intern(category);
        self.decide_id(cat, attempt, capacity)
    }

    /// [`decide`](Self::decide) for an interned category.
    pub(crate) fn decide_id(
        &mut self,
        cat: u32,
        attempt: u32,
        capacity: &Resources,
    ) -> AllocationDecision {
        if attempt == 0 {
            self.first_attempts += 1;
        } else {
            self.retries += 1;
            return AllocationDecision::WholeWorker;
        }
        self.peek_decision_id(cat, capacity)
    }

    /// The first-attempt decision [`decide`](Self::decide) would return,
    /// without bumping the attempt counters (`&mut` because Auto labeling
    /// fills the category's memo).
    #[cfg(test)]
    pub(crate) fn peek_decision(
        &mut self,
        category: &str,
        capacity: &Resources,
    ) -> AllocationDecision {
        let cat = self.intern(category);
        self.peek_decision_id(cat, capacity)
    }

    fn peek_decision_id(&mut self, cat: u32, capacity: &Resources) -> AllocationDecision {
        let label = match &self.strategy {
            Strategy::Unmanaged => None,
            Strategy::Guess(r) => Some(*r),
            Strategy::Oracle(_) => self.stats[cat as usize].oracle,
            Strategy::Auto(cfg) => {
                let cfg = *cfg;
                self.auto_label(cat, &cfg, capacity)
            }
        };
        label.map_or(AllocationDecision::WholeWorker, AllocationDecision::Sized)
    }

    /// Feed back a finished attempt's measured usage.
    ///
    /// `violated` names the axis a killed attempt exceeded, if any. A kill
    /// observation is *censored*: the task was still growing when the
    /// monitor stopped it, so its peak on that axis is only a lower bound.
    /// Recording it verbatim makes the label creep up one kill at a time;
    /// instead the censored axis is inflated (doubled), the exponential
    /// growth step of the retry policy in \[21\], so labels converge in
    /// O(log) kills rather than O(n).
    pub fn observe(&mut self, category: &str, report: &ResourceReport, completed: bool) {
        self.observe_outcome(category, report, completed, None)
    }

    /// [`observe`](Self::observe) with the violated axis of a killed attempt.
    pub(crate) fn observe_outcome(
        &mut self,
        category: &str,
        report: &ResourceReport,
        completed: bool,
        violated: Option<ResourceKind>,
    ) {
        let cat = self.intern(category);
        self.observe_id(cat, report, completed, violated)
    }

    fn observe_id(
        &mut self,
        cat: u32,
        report: &ResourceReport,
        completed: bool,
        violated: Option<ResourceKind>,
    ) {
        let s = &mut self.stats[cat as usize];
        s.label_memo = None;
        let [cores, memory_mb, disk_mb] = censored_samples(
            report.peak_cores,
            report.peak_rss_mb,
            report.peak_disk_mb,
            violated,
        );
        if let Some(x) = cores {
            s.record_cores(x);
        }
        if let Some(x) = memory_mb {
            s.memory_mb.record(x);
        }
        if let Some(x) = disk_mb {
            s.disk_mb.record(x);
        }
        if completed {
            s.completed += 1;
        }
    }

    /// `observe_outcome`, reporting whether the observation changed the
    /// category's first-attempt decision or its slow-start cap. This is the
    /// notification hook the indexed scheduler uses to wake parked tasks of
    /// `category` exactly when an allocation they would be offered has
    /// actually changed.
    pub fn observe_outcome_notify(
        &mut self,
        category: &str,
        report: &ResourceReport,
        completed: bool,
        violated: Option<ResourceKind>,
        capacity: &Resources,
    ) -> ObservationEffects {
        let cat = self.intern(category);
        self.observe_outcome_notify_id(cat, report, completed, violated, capacity)
    }

    /// [`observe_outcome_notify`](Self::observe_outcome_notify) for an
    /// interned category.
    pub(crate) fn observe_outcome_notify_id(
        &mut self,
        cat: u32,
        report: &ResourceReport,
        completed: bool,
        violated: Option<ResourceKind>,
        capacity: &Resources,
    ) -> ObservationEffects {
        let label_before = self.peek_decision_id(cat, capacity);
        let cap_before = self.concurrency_cap_id(cat);
        self.observe_id(cat, report, completed, violated);
        ObservationEffects {
            label_changed: self.peek_decision_id(cat, capacity) != label_before,
            cap_changed: self.concurrency_cap_id(cat) != cap_before,
        }
    }

    /// Snapshot one category's sample stores for the durability journal.
    /// Values are exported in canonical (sorted) order — the label is a pure
    /// function of the sample *multiset*, so snapshot bytes are identical
    /// wherever the multiset is, whatever order the samples arrived in. The
    /// memory and disk multisets are already in that order; only the raw
    /// core peaks need sorting. An interned category never observed exports
    /// empty stores; a name never seen, none.
    pub(crate) fn snapshot_category(&self, category: &str) -> Option<CategorySnapshot> {
        let s = &self.stats[self.ids.get(category)? as usize];
        let mut cores = s.cores.clone();
        cores.sort_unstable_by(f64::total_cmp);
        Some((
            cores,
            s.memory_mb.expanded(),
            s.disk_mb.expanded(),
            s.completed,
        ))
    }

    /// Rebuild one category's stats from a snapshot — the inverse of
    /// [`snapshot_category`](Self::snapshot_category). Only valid on a
    /// category this allocator has never observed (recovery starts from a
    /// fresh allocator).
    pub(crate) fn restore_category(
        &mut self,
        category: &str,
        cores: &[f64],
        memory_mb: &[f64],
        disk_mb: &[f64],
        completed: usize,
    ) {
        let cat = self.intern(category);
        let s = &mut self.stats[cat as usize];
        assert!(
            s.cores.is_empty() && s.memory_mb.is_empty() && s.disk_mb.is_empty(),
            "restore_category over live stats for {category}"
        );
        for &v in cores {
            s.record_cores(v);
        }
        for &v in memory_mb {
            s.memory_mb.record(v);
        }
        for &v in disk_mb {
            s.disk_mb.record(v);
        }
        s.completed = completed;
    }

    /// Completed-sample count for a category (0 until first observation).
    pub fn samples_for(&self, category: &str) -> usize {
        (self.ids.get(category)).map_or(0, |cat| self.stats[cat as usize].completed)
    }

    /// Slow-start concurrency cap for sized first attempts of `category`,
    /// or `None` once the category has matured (or for non-Auto strategies).
    #[cfg(test)]
    pub(crate) fn concurrency_cap(&self, category: &str) -> Option<u32> {
        self.slow_start_cap(self.samples_for(category))
    }

    /// The slow-start concurrency cap of an interned category: `None` once
    /// it has matured (or for non-Auto strategies).
    pub(crate) fn concurrency_cap_id(&self, cat: u32) -> Option<u32> {
        self.slow_start_cap(self.stats[cat as usize].completed)
    }

    fn slow_start_cap(&self, samples: usize) -> Option<u32> {
        let Strategy::Auto(cfg) = &self.strategy else {
            return None;
        };
        if samples >= cfg.slow_start_until {
            None
        } else {
            Some((2 * samples).max(4) as u32)
        }
    }

    fn auto_label(
        &mut self,
        cat: u32,
        cfg: &AutoConfig,
        capacity: &Resources,
    ) -> Option<Resources> {
        let s = &mut self.stats[cat as usize];
        if s.completed < cfg.min_samples {
            return None;
        }
        if let Some((memo_cap, label)) = &s.label_memo {
            if memo_cap == capacity {
                return *label;
            }
        }
        let label = (|| {
            let mem = s.memory_mb.choose_label(capacity.memory_mb as f64)? * cfg.headroom;
            let disk = s.disk_mb.choose_label(capacity.disk_mb as f64)? * cfg.headroom;
            let cores = s.cores_max?.ceil().max(1.0);
            Some(Resources::new(
                cores as u32,
                mem.ceil() as u64,
                disk.ceil() as u64,
            ))
        })();
        s.label_memo = Some((*capacity, label));
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // Named so the enum wins over the proptest prelude's `Strategy` trait.
    use super::Strategy;
    use lfm_simcluster::metrics::Samples;
    use proptest::prelude::*;

    /// Worker capacity used by the tests (8 cores / 8 GB / 16 GB).
    const CAP: Resources = Resources::new(8, 8192, 16384);

    fn report(cores: f64, mem: u64, disk: u64) -> ResourceReport {
        ResourceReport {
            peak_cores: cores,
            peak_rss_mb: mem,
            peak_disk_mb: disk,
            cpu_secs: cores * 10.0,
            wall_secs: 10.0,
            ..Default::default()
        }
    }

    #[test]
    fn unmanaged_always_whole_worker() {
        let mut a = Allocator::new(Strategy::Unmanaged);
        assert_eq!(a.decide("x", 0, &CAP), AllocationDecision::WholeWorker);
        a.observe("x", &report(1.0, 100, 100), true);
        assert_eq!(a.decide("x", 0, &CAP), AllocationDecision::WholeWorker);
    }

    #[test]
    fn guess_returns_fixed_vector() {
        let guess = Resources::new(1, 1536, 2048);
        let mut a = Allocator::new(Strategy::Guess(guess));
        assert_eq!(a.decide("x", 0, &CAP), AllocationDecision::Sized(guess));
    }

    #[test]
    fn oracle_uses_category_map() {
        let mut map = BTreeMap::new();
        map.insert("hep".to_string(), Resources::new(1, 110, 1024));
        let mut a = Allocator::new(Strategy::Oracle(map));
        assert_eq!(
            a.decide("hep", 0, &CAP),
            AllocationDecision::Sized(Resources::new(1, 110, 1024))
        );
        // Unknown category degrades to whole worker rather than guessing.
        assert_eq!(
            a.decide("unknown", 0, &CAP),
            AllocationDecision::WholeWorker
        );
    }

    #[test]
    fn auto_first_run_is_whole_worker_then_labeled() {
        let cfg = AutoConfig {
            min_samples: 1,
            headroom: 1.05,
            slow_start_until: 0,
        };
        let mut a = Allocator::new(Strategy::Auto(cfg));
        assert_eq!(a.decide("hep", 0, &CAP), AllocationDecision::WholeWorker);
        a.observe("hep", &report(1.0, 84, 880), true);
        match a.decide("hep", 0, &CAP) {
            AllocationDecision::Sized(r) => {
                assert_eq!(r.cores, 1);
                // 84 MB × 1.05 headroom, ceiled.
                assert!(
                    r.memory_mb >= 84 && r.memory_mb <= 95,
                    "mem {}",
                    r.memory_mb
                );
                assert!(r.disk_mb >= 880 && r.disk_mb <= 930, "disk {}", r.disk_mb);
            }
            other => panic!("expected sized allocation, got {other:?}"),
        }
    }

    #[test]
    fn default_config_waits_for_samples_and_adds_headroom() {
        let mut a = Allocator::new(Strategy::Auto(AutoConfig::default()));
        a.observe("hep", &report(1.0, 84, 880), true);
        assert_eq!(a.decide("hep", 0, &CAP), AllocationDecision::WholeWorker);
        a.observe("hep", &report(1.0, 84, 880), true);
        match a.decide("hep", 0, &CAP) {
            AllocationDecision::Sized(r) => {
                assert!(r.memory_mb >= 105, "headroom applied: {}", r.memory_mb)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn auto_retry_gets_whole_worker_and_counts() {
        let mut a = Allocator::new(Strategy::Auto(AutoConfig {
            min_samples: 1,
            headroom: 1.05,
            slow_start_until: 0,
        }));
        a.observe("hep", &report(1.0, 84, 880), true);
        assert_eq!(a.decide("hep", 1, &CAP), AllocationDecision::WholeWorker);
        assert_eq!(a.retries, 1);
    }

    #[test]
    fn auto_label_balances_retry_cost() {
        // 9 tasks peak at 100 MB, 1 at 1000 MB: labeling at 100 costs
        // 0.9·100 + 0.1·1100 = 200; labeling at 1000 costs 1000. The small
        // label wins.
        let mut a = Allocator::new(Strategy::Auto(AutoConfig {
            min_samples: 10,
            headroom: 1.0,
            slow_start_until: 0,
        }));
        for _ in 0..9 {
            a.observe("g", &report(1.0, 100, 10), true);
        }
        a.observe("g", &report(1.0, 1000, 10), true);
        match a.decide("g", 0, &CAP) {
            AllocationDecision::Sized(r) => assert_eq!(r.memory_mb, 100),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn auto_label_avoids_overfitting_when_tail_is_common() {
        // Half the tasks need the big size: retrying half of everything is
        // worse than just allocating big. 0.5·100+0.5·1100 = 600 > 1000? No:
        // 600 < 1000 — so with equal split the small label still wins until
        // the tail dominates. With 90% at 1000: 0.1·100+0.9·1100 = 1000 vs
        // 1000 at the big label — tie broken toward the small-cost candidate;
        // make the tail strictly dominant.
        let mut a = Allocator::new(Strategy::Auto(AutoConfig {
            min_samples: 10,
            headroom: 1.0,
            slow_start_until: 0,
        }));
        a.observe("g", &report(1.0, 100, 10), true);
        for _ in 0..19 {
            a.observe("g", &report(1.0, 1000, 10), true);
        }
        // E[cost](100) = 0.05·100 + 0.95·1100 = 1050 > E[cost](1000) = 1000.
        match a.decide("g", 0, &CAP) {
            AllocationDecision::Sized(r) => assert_eq!(r.memory_mb, 1000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn min_samples_gate() {
        let mut a = Allocator::new(Strategy::Auto(AutoConfig {
            min_samples: 3,
            headroom: 1.0,
            slow_start_until: 0,
        }));
        a.observe("x", &report(1.0, 50, 50), true);
        a.observe("x", &report(1.0, 60, 50), true);
        assert_eq!(a.decide("x", 0, &CAP), AllocationDecision::WholeWorker);
        a.observe("x", &report(1.0, 55, 50), true);
        assert!(matches!(
            a.decide("x", 0, &CAP),
            AllocationDecision::Sized(_)
        ));
    }

    #[test]
    fn categories_are_independent() {
        let mut a = Allocator::new(Strategy::Auto(AutoConfig {
            min_samples: 1,
            headroom: 1.05,
            slow_start_until: 0,
        }));
        a.observe("small", &report(1.0, 50, 50), true);
        assert!(matches!(
            a.decide("small", 0, &CAP),
            AllocationDecision::Sized(_)
        ));
        assert_eq!(a.decide("big", 0, &CAP), AllocationDecision::WholeWorker);
    }

    #[test]
    fn choose_label_single_sample() {
        let mut s = PeakCounts::default();
        s.record(42.0);
        assert_eq!(s.choose_label(8192.0), Some(42.0));
        assert_eq!(PeakCounts::default().choose_label(8192.0), None);
    }

    // ---- oracle: the `Samples`-backed labeler the multiset replaced ----

    /// The previous `choose_label`, verbatim: sort the whole store, collect
    /// the distinct candidates, binary-search the CDF at each.
    fn choose_label_oracle(samples: &mut Samples, retry_cost: f64) -> Option<f64> {
        let a_max = samples.max()?;
        let candidates = samples.distinct_sorted();
        let mut best = a_max;
        let mut best_cost = f64::INFINITY;
        for a in candidates {
            let p = samples.cdf(a);
            let cost = p * a + (1.0 - p) * (a + retry_cost);
            if cost < best_cost {
                best_cost = cost;
                best = a;
            }
        }
        Some(best)
    }

    /// One category of the previous allocator: three `Samples` stores, no
    /// memo. Mirrors `observe_outcome`, `auto_label`, `concurrency_cap` and
    /// `snapshot_category` as they were.
    #[derive(Default)]
    struct OracleCategory {
        cores: Samples,
        memory_mb: Samples,
        disk_mb: Samples,
        completed: usize,
    }

    impl OracleCategory {
        fn observe(
            &mut self,
            report: &ResourceReport,
            completed: bool,
            violated: Option<ResourceKind>,
        ) {
            match violated {
                None => {
                    self.cores.record(report.peak_cores.max(0.01));
                    self.memory_mb.record(report.peak_rss_mb.max(1) as f64);
                    self.disk_mb.record(report.peak_disk_mb.max(1) as f64);
                }
                Some(ResourceKind::Cores) => self.cores.record(report.peak_cores.max(0.01) * 2.0),
                Some(ResourceKind::Memory) => self
                    .memory_mb
                    .record(report.peak_rss_mb.max(1) as f64 * 2.0),
                Some(ResourceKind::Disk) => {
                    self.disk_mb.record(report.peak_disk_mb.max(1) as f64 * 2.0)
                }
                Some(ResourceKind::WallTime) => {}
            }
            if completed {
                self.completed += 1;
            }
        }

        fn decision(&mut self, cfg: &AutoConfig, capacity: &Resources) -> AllocationDecision {
            if self.completed < cfg.min_samples {
                return AllocationDecision::WholeWorker;
            }
            let label = (|| {
                let mem = choose_label_oracle(&mut self.memory_mb, capacity.memory_mb as f64)?
                    * cfg.headroom;
                let disk =
                    choose_label_oracle(&mut self.disk_mb, capacity.disk_mb as f64)? * cfg.headroom;
                let cores = self.cores.max()?.ceil().max(1.0);
                Some(Resources::new(
                    cores as u32,
                    mem.ceil() as u64,
                    disk.ceil() as u64,
                ))
            })();
            label.map_or(AllocationDecision::WholeWorker, AllocationDecision::Sized)
        }

        fn cap(&self, cfg: &AutoConfig) -> Option<u32> {
            (self.completed < cfg.slow_start_until).then(|| (2 * self.completed).max(4) as u32)
        }

        fn snapshot(&self) -> CategorySnapshot {
            let canonical = |samples: &Samples| {
                let mut v: Vec<f64> = samples.iter().collect();
                v.sort_by(|a, b| a.total_cmp(b));
                v
            };
            (
                canonical(&self.cores),
                canonical(&self.memory_mb),
                canonical(&self.disk_mb),
                self.completed,
            )
        }
    }

    fn bits(snap: &CategorySnapshot) -> (Vec<u64>, Vec<u64>, Vec<u64>, usize) {
        let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (b(&snap.0), b(&snap.1), b(&snap.2), snap.3)
    }

    /// Capacities the labels are compared under; the first is the one the
    /// notification hook runs on, so the others also exercise memo misses.
    const CAPS: [Resources; 3] = [
        CAP,
        Resources::new(16, 32 * 1024, 64 * 1024),
        Resources::new(1, 48, 96),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The multiset picks the bit-identical label the sort-and-search
        /// labeler picked, for any sample set — whole, inflated (×2) and
        /// fractional values, with heavy duplication.
        #[test]
        fn multiset_label_equals_samples_oracle(
            values in prop::collection::vec((1u64..40, 0u8..4), 1..120),
            retry_cost in 1u64..20_000,
        ) {
            let mut counts = PeakCounts::default();
            let mut samples = Samples::new();
            for &(v, shape) in &values {
                let x = match shape {
                    0 | 1 => v as f64,
                    2 => v as f64 * 2.0,
                    _ => v as f64 / 3.0,
                };
                counts.record(x);
                samples.record(x);
                let got = counts.choose_label(retry_cost as f64).map(f64::to_bits);
                let want = choose_label_oracle(&mut samples, retry_cost as f64).map(f64::to_bits);
                prop_assert_eq!(got, want);
            }
            let mut sorted: Vec<f64> = samples.iter().collect();
            sorted.sort_by(f64::total_cmp);
            prop_assert_eq!(counts.expanded(), sorted);
        }

        /// Over a random observation stream — duplicates, kill-inflated
        /// values on every axis, streams that cross the `min_samples` and
        /// `slow_start_until` boundaries — the allocator's decisions under
        /// several capacities, its observation effects and its snapshots all
        /// equal the `Samples`-backed oracle's; and a snapshot restored into
        /// a fresh allocator snapshots to the same bytes.
        #[test]
        fn allocator_equals_samples_oracle_on_observation_streams(
            stream in prop::collection::vec(
                (1u64..24, 1u64..6, 1u32..40, 0u8..8, any::<bool>()),
                1..80,
            ),
            min_samples in 0usize..6,
            slow_start_until in 0usize..12,
            wide in any::<bool>(),
        ) {
            let cfg = AutoConfig { min_samples, headroom: 1.25, slow_start_until };
            let mut a = Allocator::new(Strategy::Auto(cfg));
            let mut oracle = OracleCategory::default();
            for &(mem, disk, cores, kind, completed) in &stream {
                // Narrow streams repeat a handful of values; wide ones
                // spread them so most candidates are distinct.
                let scale = if wide { 97 } else { 1 };
                let r = report(cores as f64 / 8.0, mem * scale, disk * scale);
                let violated = match kind {
                    0 => Some(ResourceKind::Cores),
                    1 => Some(ResourceKind::Memory),
                    2 => Some(ResourceKind::Disk),
                    3 => Some(ResourceKind::WallTime),
                    _ => None,
                };
                let completed = completed || violated.is_none();
                let (label_before, cap_before) = (oracle.decision(&cfg, &CAPS[0]), oracle.cap(&cfg));
                oracle.observe(&r, completed, violated);
                let want = ObservationEffects {
                    label_changed: oracle.decision(&cfg, &CAPS[0]) != label_before,
                    cap_changed: oracle.cap(&cfg) != cap_before,
                };
                let got = a.observe_outcome_notify("cat", &r, completed, violated, &CAPS[0]);
                prop_assert_eq!(got, want);
                prop_assert_eq!(a.concurrency_cap("cat"), oracle.cap(&cfg));
                for cap in &CAPS {
                    prop_assert_eq!(a.peek_decision("cat", cap), oracle.decision(&cfg, cap));
                }
            }
            let snap = a.snapshot_category("cat").expect("observed");
            prop_assert_eq!(bits(&snap), bits(&oracle.snapshot()));
            let mut restored = Allocator::new(Strategy::Auto(cfg));
            restored.restore_category("cat", &snap.0, &snap.1, &snap.2, snap.3);
            prop_assert_eq!(bits(&restored.snapshot_category("cat").expect("restored")), bits(&snap));
            for cap in &CAPS {
                prop_assert_eq!(restored.peek_decision("cat", cap), a.peek_decision("cat", cap));
            }
        }
    }

    // ---- oracle: the allocator keyed by category *name* ----

    /// The allocator as it was before categories were interned: the same
    /// stores behind a `BTreeMap<String, _>`, resolved by name on every
    /// call.
    #[derive(Debug)]
    struct NameKeyedAllocator {
        strategy: Strategy,
        stats: BTreeMap<String, CategoryStats>,
        retries: u64,
        first_attempts: u64,
    }

    impl NameKeyedAllocator {
        fn new(strategy: Strategy) -> Self {
            NameKeyedAllocator {
                strategy,
                stats: BTreeMap::new(),
                retries: 0,
                first_attempts: 0,
            }
        }

        fn decide(
            &mut self,
            category: &str,
            attempt: u32,
            capacity: &Resources,
        ) -> AllocationDecision {
            if attempt == 0 {
                self.first_attempts += 1;
            } else {
                self.retries += 1;
                return AllocationDecision::WholeWorker;
            }
            self.peek_decision(category, capacity)
        }

        fn peek_decision(&mut self, category: &str, capacity: &Resources) -> AllocationDecision {
            match &self.strategy {
                Strategy::Unmanaged => AllocationDecision::WholeWorker,
                Strategy::Guess(r) => AllocationDecision::Sized(*r),
                Strategy::Oracle(map) => map
                    .get(category)
                    .map(|r| AllocationDecision::Sized(*r))
                    .unwrap_or(AllocationDecision::WholeWorker),
                Strategy::Auto(cfg) => {
                    let cfg = *cfg;
                    match self.auto_label(category, &cfg, capacity) {
                        Some(r) => AllocationDecision::Sized(r),
                        None => AllocationDecision::WholeWorker,
                    }
                }
            }
        }

        fn observe_outcome(
            &mut self,
            category: &str,
            report: &ResourceReport,
            completed: bool,
            violated: Option<ResourceKind>,
        ) {
            // Allocate the key only on a category's first observation.
            if !self.stats.contains_key(category) {
                self.stats
                    .insert(category.to_string(), CategoryStats::default());
            }
            let s = self
                .stats
                .get_mut(category)
                .expect("present or just inserted");
            s.label_memo = None;
            let [cores, memory_mb, disk_mb] = censored_samples(
                report.peak_cores,
                report.peak_rss_mb,
                report.peak_disk_mb,
                violated,
            );
            if let Some(x) = cores {
                s.record_cores(x);
            }
            if let Some(x) = memory_mb {
                s.memory_mb.record(x);
            }
            if let Some(x) = disk_mb {
                s.disk_mb.record(x);
            }
            if completed {
                s.completed += 1;
            }
        }

        fn observe_outcome_notify(
            &mut self,
            category: &str,
            report: &ResourceReport,
            completed: bool,
            violated: Option<ResourceKind>,
            capacity: &Resources,
        ) -> ObservationEffects {
            let label_before = self.peek_decision(category, capacity);
            let cap_before = self.concurrency_cap(category);
            self.observe_outcome(category, report, completed, violated);
            ObservationEffects {
                label_changed: self.peek_decision(category, capacity) != label_before,
                cap_changed: self.concurrency_cap(category) != cap_before,
            }
        }

        fn snapshot_category(&self, category: &str) -> Option<CategorySnapshot> {
            let s = self.stats.get(category)?;
            let mut cores = s.cores.clone();
            cores.sort_unstable_by(f64::total_cmp);
            Some((
                cores,
                s.memory_mb.expanded(),
                s.disk_mb.expanded(),
                s.completed,
            ))
        }

        fn samples_for(&self, category: &str) -> usize {
            self.stats.get(category).map(|s| s.completed).unwrap_or(0)
        }

        fn concurrency_cap(&self, category: &str) -> Option<u32> {
            let Strategy::Auto(cfg) = &self.strategy else {
                return None;
            };
            let samples = self.samples_for(category);
            if samples >= cfg.slow_start_until {
                None
            } else {
                Some((2 * samples).max(4) as u32)
            }
        }

        fn auto_label(
            &mut self,
            category: &str,
            cfg: &AutoConfig,
            capacity: &Resources,
        ) -> Option<Resources> {
            let s = self.stats.get_mut(category)?;
            if s.completed < cfg.min_samples {
                return None;
            }
            if let Some((memo_cap, label)) = &s.label_memo {
                if memo_cap == capacity {
                    return *label;
                }
            }
            let label = (|| {
                let mem = s.memory_mb.choose_label(capacity.memory_mb as f64)? * cfg.headroom;
                let disk = s.disk_mb.choose_label(capacity.disk_mb as f64)? * cfg.headroom;
                let cores = s.cores_max?.ceil().max(1.0);
                Some(Resources::new(
                    cores as u32,
                    mem.ceil() as u64,
                    disk.ceil() as u64,
                ))
            })();
            s.label_memo = Some((*capacity, label));
            label
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Under each of the four strategies, on random interleavings of
        /// decisions, observations and cap reads over five categories — two
        /// of them first seen mid-stream, as a streamed admission interns
        /// them — the id-keyed calls answer what the name-keyed allocator
        /// answers, the by-name wrappers agree with both, the attempt
        /// counters match, and every category snapshots alike: one interned
        /// but never observed exactly as the map's absent one,
        /// `CategorySnapshot`'s default.
        #[test]
        fn id_keyed_allocator_equals_the_name_keyed_oracle(
            ops in prop::collection::vec(
                (0u8..5, 0usize..5, 0u32..2, (1u64..24, 1u64..6, 1u32..40), 0u8..8, any::<bool>()),
                1..120,
            ),
            strategy in 0u8..4,
            min_samples in 0usize..4,
            slow_start_until in 0usize..12,
        ) {
            const NAMES: [&str; 5] = ["hep", "drug", "genomic", "late-a", "late-b"];
            let strategy = match strategy {
                0 => Strategy::Oracle(BTreeMap::from([
                    ("hep".to_string(), Resources::new(1, 110, 1024)),
                    ("late-a".to_string(), Resources::new(2, 900, 64)),
                ])),
                1 => Strategy::Guess(Resources::new(1, 1536, 2048)),
                2 => Strategy::Unmanaged,
                _ => Strategy::Auto(AutoConfig { min_samples, headroom: 1.25, slow_start_until }),
            };
            let mut a = Allocator::new(strategy.clone());
            let mut oracle = NameKeyedAllocator::new(strategy);
            // A master interns its workload's table up front, in order.
            let mut ids: Vec<u32> = NAMES[..3].iter().map(|name| a.intern(name)).collect();
            prop_assert_eq!(&ids, &[0, 1, 2]);
            for (kind, cat, attempt, (mem, disk, cores), outcome, completed) in ops {
                let name = NAMES[cat.min(ids.len())];
                if cat >= ids.len() {
                    ids.push(a.intern(name));
                }
                let id = ids[cat.min(ids.len() - 1)];
                prop_assert_eq!(id, a.intern(name), "an id is for good");
                match kind {
                    0 => prop_assert_eq!(
                        a.decide_id(id, attempt, &CAPS[0]),
                        oracle.decide(name, attempt, &CAPS[0])
                    ),
                    1 | 2 => {
                        let violated = match outcome {
                            0 => Some(ResourceKind::Cores),
                            1 => Some(ResourceKind::Memory),
                            2 => Some(ResourceKind::Disk),
                            3 => Some(ResourceKind::WallTime),
                            _ => None,
                        };
                        let completed = completed || violated.is_none();
                        let r = report(cores as f64 / 8.0, mem * 13, disk * 97);
                        prop_assert_eq!(
                            a.observe_outcome_notify_id(id, &r, completed, violated, &CAPS[0]),
                            oracle.observe_outcome_notify(name, &r, completed, violated, &CAPS[0])
                        );
                    }
                    3 => prop_assert_eq!(a.concurrency_cap_id(id), oracle.concurrency_cap(name)),
                    // The frozen by-name surface resolves to the same rows.
                    _ => {
                        prop_assert_eq!(a.decide(name, attempt, &CAPS[1]), oracle.decide(name, attempt, &CAPS[1]));
                        prop_assert_eq!(a.concurrency_cap(name), oracle.concurrency_cap(name));
                        prop_assert_eq!(a.samples_for(name), oracle.samples_for(name));
                    }
                }
                for cap in &CAPS {
                    prop_assert_eq!(a.peek_decision(name, cap), oracle.peek_decision(name, cap));
                }
                prop_assert_eq!((a.retries, a.first_attempts), (oracle.retries, oracle.first_attempts));
            }
            for name in &NAMES[..ids.len()] {
                let got = a.snapshot_category(name).expect("interned");
                let want = oracle.snapshot_category(name).unwrap_or_default();
                prop_assert_eq!(bits(&got), bits(&want), "{}", name);
            }
            // A name neither has seen reads as nothing learned.
            prop_assert_eq!(a.snapshot_category("never"), None);
            prop_assert_eq!((a.samples_for("never"), a.concurrency_cap("never")), (0, oracle.concurrency_cap("never")));
        }
    }

    #[test]
    fn label_evaluation_visits_distinct_values_not_samples() {
        // 20 000 completions drawn from 37 memory and 11 disk sizes: one
        // evaluation walks the 48 multiset entries, not the 40 000 samples,
        // and consultations until the next observation walk nothing.
        let mut a = Allocator::new(Strategy::Auto(AutoConfig::default()));
        for i in 0..20_000u64 {
            a.observe("cat", &report(1.0, 100 + i % 37, 500 + i % 11), true);
        }
        LABEL_VISITS.with(|c| c.set(0));
        assert!(matches!(
            a.peek_decision("cat", &CAP),
            AllocationDecision::Sized(_)
        ));
        let visits = LABEL_VISITS.with(|c| c.get());
        assert!(
            (1..=37 + 11).contains(&visits),
            "one evaluation visited {visits} entries"
        );
        a.peek_decision("cat", &CAP);
        a.decide("cat", 0, &CAP);
        assert_eq!(LABEL_VISITS.with(|c| c.get()), visits, "memo missed");
    }
}
