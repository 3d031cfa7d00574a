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
//! All state is `BTreeMap`-ordered and mutation is driven solely by the
//! gateway's deterministic dispatch order, so pool behaviour is
//! reproducible bit-for-bit.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Entry {
    pub(crate) function: usize,
    pub(crate) last_used_secs: f64,
}

/// The pool. `function` keys are gateway function-table indices. Everything
/// but the TTL is mutable state (the control loop moves the capacity), and
/// the gateway's state codec reads and writes it in place, so a recovered
/// gateway keeps its resident warm instances instead of cold-starting every
/// tenant after a crash.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmPool {
    pub(crate) config: WarmPoolConfig,
    pub(crate) entries: BTreeMap<u64, Entry>,
    pub(crate) next_id: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) expirations: u64,
}

impl WarmPool {
    pub fn new(config: WarmPoolConfig) -> Self {
        WarmPool {
            config,
            entries: BTreeMap::new(),
            next_id: 0,
            hits: 0,
            misses: 0,
            expirations: 0,
        }
    }

    /// Reclaim entries idle past the TTL. Call once per gateway tick.
    pub fn expire(&mut self, now_secs: f64) {
        let ttl = self.config.ttl_secs;
        let before = self.entries.len();
        self.entries
            .retain(|_, e| now_secs - e.last_used_secs <= ttl);
        self.expirations += (before - self.entries.len()) as u64;
    }

    /// Claim a warm instance of `function` at `now_secs`; returns true on
    /// a warm hit. A miss makes the new instance resident when possible.
    pub fn acquire(&mut self, function: usize, now_secs: f64) -> bool {
        // Oldest claimable instance of this function (used before this
        // tick — an instance serves one invocation per tick).
        let hit = self
            .entries
            .iter()
            .filter(|(_, e)| e.function == function && e.last_used_secs < now_secs)
            .min_by(|(ia, a), (ib, b)| {
                a.last_used_secs
                    .total_cmp(&b.last_used_secs)
                    .then(ia.cmp(ib))
            })
            .map(|(&id, _)| id);
        if let Some(id) = hit {
            self.entries.get_mut(&id).unwrap().last_used_secs = now_secs;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() >= self.config.capacity {
            // Evict the globally least-recently-used *idle* instance.
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.last_used_secs < now_secs)
                .min_by(|(ia, a), (ib, b)| {
                    a.last_used_secs
                        .total_cmp(&b.last_used_secs)
                        .then(ia.cmp(ib))
                })
                .map(|(&id, _)| id);
            match victim {
                Some(id) => {
                    self.entries.remove(&id);
                }
                // Every instance was claimed this tick: the cluster is
                // saturated with warm work; don't retain this one.
                None => return false,
            }
        }
        self.entries.insert(
            self.next_id,
            Entry {
                function,
                last_used_secs: now_secs,
            },
        );
        self.next_id += 1;
        false
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
        self.entries.len()
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
        while self.entries.len() > capacity {
            let victim = self
                .entries
                .iter()
                .min_by(|(ia, a), (ib, b)| {
                    a.last_used_secs
                        .total_cmp(&b.last_used_secs)
                        .then(ia.cmp(ib))
                })
                .map(|(&id, _)| id)
                .expect("non-empty above capacity");
            self.entries.remove(&victim);
            self.expirations += 1;
        }
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
}
