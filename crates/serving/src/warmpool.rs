//! Warm environment pools: the container-reuse model at gateway scale.
//!
//! funcX keeps containers warm on endpoints so repeat invocations skip
//! namespace/mount setup (Table I); the packed-env analog keeps activated
//! environments resident in worker scratch space. The pool tracks one
//! entry per resident environment instance, globally capped at
//! `capacity` (≈ workers × slots-per-worker):
//!
//! * **Hit** — an entry for the function exists that was last used on an
//!   *earlier* tick. Claiming it stamps the entry with the current tick,
//!   so one entry serves at most one invocation per tick — warm
//!   concurrency is bounded by how many instances are actually resident.
//! * **Miss** — no claimable entry; the invocation pays the cold cost and
//!   a new entry becomes resident (evicting the least-recently-used
//!   *idle* entry when the pool is full; if every entry was used this
//!   tick, nothing is retained).
//!
//! Entries idle longer than `ttl_secs` are reclaimed at tick boundaries.
//! Mutation is driven solely by the gateway's deterministic dispatch order,
//! so pool behaviour is reproducible bit-for-bit.
//!
//! Which instance a claim or an eviction takes is the oldest candidate by
//! (last use, id). Each function's instances are kept in that order, so
//! its oldest is the front of its queue, and the pool-wide oldest is the
//! oldest of those fronts: nothing is scanned but one front per function.
//! A claim restamps the front and moves it to its place among this tick's
//! instances. Candidates are the instances last used before `now`, which
//! in (last use, id) order are a prefix of every queue, so a queue whose
//! front is not a candidate holds none.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Pool sizing and lifetime knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmPoolConfig {
    /// Total resident environment instances across the cluster.
    pub capacity: usize,
    /// Idle lifetime before an instance is reclaimed.
    pub ttl_secs: f64,
}

impl WarmPoolConfig {
    pub fn new(capacity: usize, ttl_secs: f64) -> Self {
        assert!(capacity > 0, "zero warm-pool capacity");
        assert!(ttl_secs > 0.0, "non-positive warm TTL");
        WarmPoolConfig { capacity, ttl_secs }
    }
}

/// One resident environment instance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Instance {
    id: u64,
    last_used_secs: f64,
}

impl Instance {
    /// The order candidates are taken in: least recently used first, ties
    /// to the older instance.
    fn cmp(&self, other: &Instance) -> Ordering {
        (self.last_used_secs.total_cmp(&other.last_used_secs)).then(self.id.cmp(&other.id))
    }
}

/// The pool. `function` keys are gateway function-table indices. Everything
/// but the TTL is mutable state (the control loop moves the capacity), and
/// the gateway's state codec reads and writes it in place, so a recovered
/// gateway keeps its resident warm instances instead of cold-starting every
/// tenant after a crash.
#[derive(Debug, Clone)]
pub struct WarmPool {
    pub(crate) config: WarmPoolConfig,
    /// Per function, its resident instances in (last use, id) order.
    queues: Vec<VecDeque<Instance>>,
    resident: usize,
    pub(crate) next_id: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) expirations: u64,
}

impl WarmPool {
    pub fn new(config: WarmPoolConfig) -> Self {
        WarmPool {
            config,
            queues: Vec::new(),
            resident: 0,
            next_id: 0,
            hits: 0,
            misses: 0,
            expirations: 0,
        }
    }

    /// Reclaim entries idle past the TTL. Call once per gateway tick.
    pub fn expire(&mut self, now_secs: f64) {
        let ttl = self.config.ttl_secs;
        let live = |e: &Instance| now_secs - e.last_used_secs <= ttl;
        for q in &mut self.queues {
            while q.front().is_some_and(|e| !live(e)) {
                q.pop_front();
                self.resident -= 1;
                self.expirations += 1;
            }
        }
    }

    /// Claim a warm instance of `function` at `now_secs`; returns true on
    /// a warm hit. A miss makes the new instance resident when possible.
    pub fn acquire(&mut self, function: usize, now_secs: f64) -> bool {
        // Oldest claimable instance of this function (used before this
        // tick — an instance serves one invocation per tick).
        let queue = self.queues.get_mut(function);
        if let Some(q) = queue.filter(|q| q.front().is_some_and(|e| e.last_used_secs < now_secs)) {
            let mut claimed = q.pop_front().expect("a front");
            claimed.last_used_secs = now_secs;
            self.place(function, claimed);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.resident >= self.config.capacity {
            // Evict the globally least-recently-used *idle* instance.
            match self.oldest(|e| e.last_used_secs < now_secs) {
                Some(victim) => self.evict(victim),
                // Every instance was claimed this tick: the cluster is
                // saturated with warm work; don't retain this one.
                None => return false,
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.resident += 1;
        self.place(
            function,
            Instance {
                id,
                last_used_secs: now_secs,
            },
        );
        false
    }

    /// Put `instance` into `function`'s queue at its place in the order.
    fn place(&mut self, function: usize, instance: Instance) {
        if function >= self.queues.len() {
            self.queues.resize_with(function + 1, VecDeque::new);
        }
        let q = &mut self.queues[function];
        let at = q.partition_point(|e| e.cmp(&instance) == Ordering::Less);
        q.insert(at, instance);
    }

    /// The function whose oldest instance is the oldest of all that pass
    /// `candidate`.
    fn oldest(&self, candidate: impl Fn(&Instance) -> bool) -> Option<usize> {
        let fronts = self.queues.iter().enumerate();
        let fronts = fronts.filter_map(|(f, q)| q.front().filter(|e| candidate(e)).map(|e| (f, e)));
        fronts.min_by(|(_, a), (_, b)| a.cmp(b)).map(|(f, _)| f)
    }

    fn evict(&mut self, function: usize) {
        self.queues[function].pop_front();
        self.resident -= 1;
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// Hits / (hits + misses); 0 before any acquire.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Currently resident instances.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Current capacity cap (the control loop may have moved it off the
    /// configured base).
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Retarget the capacity cap (the control loop's pool lever). A shrink
    /// below the resident count reclaims least-recently-used instances
    /// immediately, counted as expirations — staged degradation frees the
    /// scratch space now, not on some later miss.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "zero warm-pool capacity");
        self.config.capacity = capacity;
        while self.resident > capacity {
            let victim = self.oldest(|_| true).expect("non-empty above capacity");
            self.evict(victim);
            self.expirations += 1;
        }
    }

    /// Every resident instance as `(id, function, last used)`, by id: the
    /// order the gateway image lists them in.
    pub(crate) fn instances(&self) -> Vec<(u64, usize, f64)> {
        let mut all: Vec<_> = (self.queues.iter().enumerate())
            .flat_map(|(f, q)| q.iter().map(move |e| (e.id, f, e.last_used_secs)))
            .collect();
        all.sort_unstable_by_key(|&(id, ..)| id);
        all
    }

    /// Make an instance resident as a decoded image lists it. The caller
    /// checks what the order needs: ids unique and below `next_id`, and a
    /// last use that is a number.
    pub(crate) fn restore(&mut self, id: u64, function: usize, last_used_secs: f64) {
        debug_assert!(!last_used_secs.is_nan());
        self.resident += 1;
        self.place(function, Instance { id, last_used_secs });
    }
}

impl PartialEq for WarmPool {
    /// Equal pools hold the same instances: a queue that emptied equals one
    /// never made.
    fn eq(&self, other: &Self) -> bool {
        let used = |p: &WarmPool| {
            p.queues
                .iter()
                .rposition(|q| !q.is_empty())
                .map_or(0, |f| f + 1)
        };
        let counts = |p: &WarmPool| (p.resident, p.next_id, p.hits, p.misses, p.expirations);
        self.config == other.config
            && counts(self) == counts(other)
            && self.queues[..used(self)] == other.queues[..used(other)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_use_is_cold_then_warm() {
        let mut p = WarmPool::new(WarmPoolConfig::new(8, 100.0));
        assert!(!p.acquire(0, 1.0), "first use must be cold");
        assert!(p.acquire(0, 2.0), "second use must be warm");
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 1);
        assert!((p.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn one_instance_serves_one_invocation_per_tick() {
        let mut p = WarmPool::new(WarmPoolConfig::new(8, 100.0));
        p.acquire(0, 1.0); // cold, resident
                           // Same tick: one warm claim, second is a concurrent cold start.
        p.expire(2.0);
        assert!(p.acquire(0, 2.0));
        assert!(!p.acquire(0, 2.0));
        // Next tick both instances are claimable.
        assert!(p.acquire(0, 3.0));
        assert!(p.acquire(0, 3.0));
    }

    #[test]
    fn capacity_evicts_lru_function() {
        let mut p = WarmPool::new(WarmPoolConfig::new(2, 1000.0));
        assert!(!p.acquire(0, 1.0));
        assert!(!p.acquire(1, 2.0));
        // Pool full {0,1}; a third function evicts function 0 (LRU).
        assert!(!p.acquire(2, 3.0));
        assert_eq!(p.resident(), 2);
        assert!(!p.acquire(0, 4.0), "evicted function must cold-start");
        // Function 2 survived (used at t=3, newer than 1's t=2 → 1 evicted).
        assert!(p.acquire(2, 5.0));
    }

    #[test]
    fn ttl_expires_idle_instances() {
        let mut p = WarmPool::new(WarmPoolConfig::new(8, 10.0));
        p.acquire(0, 0.0);
        p.expire(5.0);
        assert_eq!(p.resident(), 1);
        p.expire(11.0);
        assert_eq!(p.resident(), 0);
        assert_eq!(p.expirations(), 1);
        assert!(!p.acquire(0, 12.0), "expired instance is gone");
    }

    #[test]
    fn capacity_shrink_reclaims_lru_immediately() {
        let mut p = WarmPool::new(WarmPoolConfig::new(4, 1000.0));
        for (f, t) in [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)] {
            p.acquire(f, t);
        }
        assert_eq!(p.resident(), 4);
        p.set_capacity(2);
        assert_eq!(p.capacity(), 2);
        assert_eq!(p.resident(), 2, "shrink reclaims immediately");
        assert_eq!(p.expirations(), 2);
        // The newest instances survived.
        assert!(p.acquire(3, 5.0));
        assert!(p.acquire(2, 5.0));
        assert!(!p.acquire(0, 6.0), "LRU victims are gone");
        // Growing back just raises the cap.
        p.set_capacity(8);
        assert_eq!(p.capacity(), 8);
    }

    #[test]
    fn saturated_pool_with_no_idle_entry_retains_nothing() {
        let mut p = WarmPool::new(WarmPoolConfig::new(1, 1000.0));
        assert!(!p.acquire(0, 1.0));
        assert!(p.acquire(0, 2.0)); // claims the only entry at t=2
        assert!(!p.acquire(1, 2.0)); // miss; no idle victim this tick
        assert_eq!(p.resident(), 1, "claimed entry must not be evicted");
        assert!(p.acquire(0, 3.0), "original instance still resident");
    }

    /// The pool as it was before its per-function queues: every decision a
    /// linear scan over a B-tree of entries by id. The oracle the queues
    /// must agree with.
    #[derive(Default)]
    struct ScanPool {
        entries: std::collections::BTreeMap<u64, (usize, f64)>,
        capacity: usize,
        ttl: f64,
        next_id: u64,
        counts: (u64, u64, u64),
    }

    impl ScanPool {
        fn oldest(&self, candidate: impl Fn(usize, f64) -> bool) -> Option<u64> {
            (self.entries.iter())
                .filter(|(_, &(f, t))| candidate(f, t))
                .min_by(|(ia, a), (ib, b)| a.1.total_cmp(&b.1).then(ia.cmp(ib)))
                .map(|(&id, _)| id)
        }

        fn acquire(&mut self, function: usize, now: f64) -> bool {
            if let Some(id) = self.oldest(|f, t| f == function && t < now) {
                self.entries.get_mut(&id).unwrap().1 = now;
                self.counts.0 += 1;
                return true;
            }
            self.counts.1 += 1;
            if self.entries.len() >= self.capacity {
                match self.oldest(|_, t| t < now) {
                    Some(id) => self.entries.remove(&id),
                    None => return false,
                };
            }
            self.entries.insert(self.next_id, (function, now));
            self.next_id += 1;
            false
        }

        fn expire(&mut self, now: f64) {
            let before = self.entries.len();
            self.entries.retain(|_, e| now - e.1 <= self.ttl);
            self.counts.2 += (before - self.entries.len()) as u64;
        }

        fn set_capacity(&mut self, capacity: usize) {
            self.capacity = capacity;
            while self.entries.len() > capacity {
                let id = self.oldest(|_, _| true).unwrap();
                self.entries.remove(&id);
                self.counts.2 += 1;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random acquires over four functions on a tick clock (several to
        /// a tick, so instances are claimed and created at equal times and
        /// ids break the ties), expiries and capacity moves: every hit,
        /// miss, eviction and expiry picks what the linear scan picks.
        #[test]
        fn queues_pick_what_the_linear_scan_picks(
            ops in proptest::collection::vec((0u8..16, 0usize..4, 0u32..3), 1..400),
            capacity in 1usize..12,
        ) {
            let mut pool = WarmPool::new(WarmPoolConfig::new(capacity, 2.0));
            let mut scan = ScanPool { capacity, ttl: 2.0, ..ScanPool::default() };
            let mut now = 0.0;
            for (op, function, step) in ops {
                now += f64::from(step) * 0.25;
                match op {
                    0 => {
                        pool.expire(now);
                        scan.expire(now);
                    }
                    1 => {
                        let c = 1 + (function * 5 + step as usize) % 10;
                        pool.set_capacity(c);
                        scan.set_capacity(c);
                    }
                    _ => proptest::prop_assert_eq!(
                        pool.acquire(function, now),
                        scan.acquire(function, now)
                    ),
                }
                let listed: Vec<_> = (scan.entries.iter()).map(|(&id, &(f, t))| (id, f, t)).collect();
                proptest::prop_assert_eq!(pool.instances(), listed);
                proptest::prop_assert_eq!((pool.hits, pool.misses, pool.expirations), scan.counts);
                proptest::prop_assert_eq!(pool.resident(), scan.entries.len());
            }
        }
    }

    #[test]
    fn restored_instances_equal_the_live_pool() {
        let mut live = WarmPool::new(WarmPoolConfig::new(4, 100.0));
        for (f, t) in [(0, 1.0), (2, 1.0), (0, 1.0), (0, 2.0), (2, 3.0), (1, 3.0)] {
            live.acquire(f, t);
        }
        live.acquire(1, 4.0);
        let mut restored = WarmPool::new(WarmPoolConfig::new(4, 100.0));
        for (id, f, t) in live.instances() {
            restored.restore(id, f, t);
        }
        (restored.next_id, restored.hits, restored.misses) = (live.next_id, live.hits, live.misses);
        restored.expirations = live.expirations;
        assert_eq!(restored, live);
        // Function 1's only instance expires: its emptied queue is no state.
        live.expire(200.0);
        restored.expire(200.0);
        restored.queues.truncate(1);
        assert_eq!(restored, live);
    }
}
