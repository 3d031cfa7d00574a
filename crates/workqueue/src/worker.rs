//! Workers: a node plus a file cache.

use crate::files::{FileKind, FileRef};
use lfm_simcluster::node::{Node, NodeSpec};
use lfm_simcluster::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// A connected worker.
#[derive(Debug, Clone)]
pub struct Worker {
    pub node: Node,
    cache: BTreeSet<String>,
    cache_bytes: u64,
    /// Files currently being transferred to this worker → time they land.
    /// Concurrent tasks needing the same file wait on the in-flight transfer
    /// instead of starting another (Work Queue transfers each cached file
    /// once per worker).
    staging: BTreeMap<String, SimTime>,
    /// Tasks currently executing here.
    pub running: u32,
    /// Ids of the live placements here (zombies excluded), in no particular
    /// order: at most one per core, so membership is a short scan.
    pub(crate) placements: Vec<u64>,
    /// Injected execution slowdown factor (1.0 = healthy; a fault plan's
    /// straggler spec can set it above 1).
    pub slowdown: f64,
    /// Quarantined workers are excluded from scheduling until released;
    /// their in-flight tasks drain normally.
    pub quarantined: bool,
    /// Infrastructure failures attributed to this worker (staging failures,
    /// lost results, lease reclaims, spurious kills) — the flakiness score
    /// the quarantine threshold compares against. Reset on release.
    pub infra_failures: u32,
    /// Lifetime counters.
    pub tasks_completed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Worker {
    pub fn new(id: u32, spec: NodeSpec) -> Self {
        Worker {
            node: Node::new(id, spec),
            cache: BTreeSet::new(),
            cache_bytes: 0,
            staging: BTreeMap::new(),
            running: 0,
            placements: Vec::new(),
            slowdown: 1.0,
            quarantined: false,
            infra_failures: 0,
            tasks_completed: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    pub fn id(&self) -> u32 {
        self.node.id
    }

    /// Is this file already on local storage?
    pub fn has_cached(&self, name: &str) -> bool {
        self.cache.contains(name)
    }

    /// Record a cacheable file as present locally. Returns true when the
    /// file newly entered the cache (callers maintaining a file → workers
    /// inverted index mirror exactly these insertions).
    pub fn insert_cached(&mut self, file: &FileRef) -> bool {
        // Probe first: the common case is a file already cached, and the
        // owned key is only needed when it is not.
        let newly_cached = file.cacheable
            && !self.cache.contains(&file.name)
            && self.cache.insert(file.name.clone());
        if newly_cached {
            self.cache_bytes += file.disk_footprint();
        }
        self.staging.remove(&file.name);
        newly_cached
    }

    /// Names of every cached file (for index teardown when the worker is
    /// evicted).
    pub fn cached_files(&self) -> impl Iterator<Item = &str> {
        self.cache.iter().map(String::as_str)
    }

    /// If `name` is already being transferred here, when does it land?
    pub fn staging_ready(&self, name: &str) -> Option<SimTime> {
        self.staging.get(name).copied()
    }

    /// Record an in-flight transfer of `name`, landing at `ready`.
    pub fn mark_staging(&mut self, name: &str, ready: SimTime) {
        self.staging.insert(name.to_string(), ready);
    }

    /// A staging attempt failed: forget the in-flight transfer of `name`
    /// (the bytes never landed) unless the file is already cached.
    pub fn abort_staging(&mut self, name: &str) {
        if !self.cache.contains(name) {
            self.staging.remove(name);
        }
    }

    /// Bytes of cached content.
    pub fn cache_bytes(&self) -> u64 {
        self.cache_bytes
    }

    /// Split `files` into (cached, to_stage), updating hit counters.
    pub fn classify_inputs<'f>(
        &mut self,
        files: &'f [FileRef],
    ) -> (Vec<&'f FileRef>, Vec<&'f FileRef>) {
        let mut cached = Vec::new();
        let mut to_stage = Vec::new();
        for f in files {
            if f.cacheable && self.has_cached(&f.name) {
                self.cache_hits += 1;
                cached.push(f);
            } else {
                self.cache_misses += 1;
                to_stage.push(f);
            }
        }
        (cached, to_stage)
    }

    /// How much of the env-pack work does this task need, given the cache?
    /// Returns (transfer_bytes, unpack_files, relocation_ops, unpack_bytes)
    /// summed over env inputs that are not yet cached.
    pub fn env_stage_work(&self, to_stage: &[&FileRef]) -> (u64, u64, u64, u64) {
        let mut out = (0u64, 0u64, 0u64, 0u64);
        for f in to_stage {
            if let FileKind::EnvironmentPack {
                unpacked_files,
                relocation_ops,
                unpacked_bytes,
            } = &f.kind
            {
                out.0 += f.size_bytes;
                out.1 += unpacked_files;
                out.2 += relocation_ops;
                out.3 += unpacked_bytes;
            }
        }
        out
    }
}

/// The master's connected workers, indexed by worker id. The batch system
/// hands ids out 0, 1, 2, …, so a worker's row is an array read where an
/// ordered map paid a tree descent; iterating the rows is id order, the
/// order of the map this replaces. An id never seen, or seen and evicted,
/// reads as absent.
#[derive(Debug, Default)]
pub(crate) struct WorkerTable {
    rows: Vec<Option<Worker>>,
}

impl WorkerTable {
    /// Add a worker under its own id, returning the one it replaced.
    pub fn insert(&mut self, worker: Worker) -> Option<Worker> {
        let id = worker.id() as usize;
        if self.rows.len() <= id {
            self.rows.resize_with(id + 1, || None);
        }
        self.rows[id].replace(worker)
    }

    pub fn get(&self, id: u32) -> Option<&Worker> {
        self.rows.get(id as usize)?.as_ref()
    }

    pub fn get_mut(&mut self, id: u32) -> Option<&mut Worker> {
        self.rows.get_mut(id as usize)?.as_mut()
    }

    pub fn remove(&mut self, id: u32) -> Option<Worker> {
        self.rows.get_mut(id as usize)?.take()
    }

    /// The connected workers in ascending id.
    pub fn values(&self) -> impl Iterator<Item = &Worker> {
        self.rows.iter().flatten()
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Worker> {
        self.rows.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfm_simcluster::node::Resources;

    fn worker() -> Worker {
        Worker::new(0, NodeSpec::new(8, 8192, 16384))
    }

    #[test]
    fn cache_insert_and_hit() {
        let mut w = worker();
        let env = FileRef::environment("hep-env", 240 << 20, 600 << 20, 5000, 800);
        let data = FileRef::data("chunk-1", 500_000);
        assert!(!w.has_cached("hep-env"));
        assert!(w.insert_cached(&env));
        assert!(!w.insert_cached(&data)); // not cacheable — ignored
        assert!(w.has_cached("hep-env"));
        assert!(!w.has_cached("chunk-1"));
        assert_eq!(w.cache_bytes(), env.disk_footprint());
        // Re-inserting doesn't double count (and is not "newly cached").
        assert!(!w.insert_cached(&env));
        assert_eq!(w.cache_bytes(), env.disk_footprint());
        assert_eq!(w.cached_files().collect::<Vec<_>>(), vec!["hep-env"]);
    }

    #[test]
    fn classify_inputs_counts_hits() {
        let mut w = worker();
        let env = FileRef::environment("env", 100, 600, 10, 1);
        let common = FileRef::shared_data("calib", 1_000_000);
        let unique = FileRef::data("in-42", 500_000);
        w.insert_cached(&env);
        let files = vec![env.clone(), common.clone(), unique.clone()];
        let (cached, to_stage) = w.classify_inputs(&files);
        assert_eq!(cached.len(), 1);
        assert_eq!(to_stage.len(), 2);
        assert_eq!(w.cache_hits, 1);
        assert_eq!(w.cache_misses, 2);
    }

    #[test]
    fn env_stage_work_sums_uncached_envs() {
        let w = worker();
        let env = FileRef::environment("env", 100, 600, 10, 3);
        let data = FileRef::data("d", 50);
        let binding = [&env, &data];
        let (bytes, files, reloc, unpacked) = w.env_stage_work(&binding);
        assert_eq!((bytes, files, reloc, unpacked), (100, 10, 3, 600));
    }

    #[test]
    fn abort_staging_forgets_in_flight_transfers() {
        use lfm_simcluster::time::SimTime;
        let mut w = worker();
        let env = FileRef::environment("env", 100, 600, 10, 1);
        w.mark_staging("env", SimTime::ZERO + 5.0);
        assert!(w.staging_ready("env").is_some());
        w.abort_staging("env");
        assert!(w.staging_ready("env").is_none());
        // Cached files are immune to aborts.
        w.insert_cached(&env);
        w.mark_staging("env", SimTime::ZERO + 5.0);
        w.abort_staging("env");
        assert!(w.staging_ready("env").is_some());
    }

    proptest::proptest! {
        /// The table is the ordered map it replaced, for the four things
        /// the master does with it: a never-seen or removed id is absent,
        /// re-inserting an id replaces its row, and the rows come in id
        /// order. `running` stamps each insertion so rows are told apart.
        #[test]
        fn worker_table_equals_the_btreemap_oracle(
            ops in proptest::collection::vec((0u8..4, 0u32..40), 1..120),
        ) {
            let stamp = |w: &Worker| (w.id(), w.running);
            let mut table = WorkerTable::default();
            let mut oracle: BTreeMap<u32, Worker> = BTreeMap::new();
            for (n, (kind, id)) in ops.into_iter().enumerate() {
                match kind {
                    0 | 1 => {
                        let mut w = Worker::new(id, NodeSpec::new(8, 8192, 16384));
                        w.running = n as u32;
                        let replaced = table.insert(w.clone());
                        proptest::prop_assert_eq!(
                            replaced.as_ref().map(stamp),
                            oracle.insert(id, w).as_ref().map(stamp)
                        );
                    }
                    2 => proptest::prop_assert_eq!(
                        table.remove(id).as_ref().map(stamp),
                        oracle.remove(&id).as_ref().map(stamp)
                    ),
                    _ => {
                        if let Some(w) = table.get_mut(id) {
                            w.running += 1000;
                        }
                        if let Some(w) = oracle.get_mut(&id) {
                            w.running += 1000;
                        }
                    }
                }
                proptest::prop_assert_eq!(table.get(id).map(stamp), oracle.get(&id).map(stamp));
                proptest::prop_assert_eq!(
                    table.values().map(stamp).collect::<Vec<_>>(),
                    oracle.values().map(stamp).collect::<Vec<_>>()
                );
                proptest::prop_assert_eq!(
                    table.values_mut().map(|w| stamp(w)).collect::<Vec<_>>(),
                    oracle.values_mut().map(|w| stamp(w)).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn resource_accounting_delegates_to_node() {
        let mut w = worker();
        assert!(w.node.allocate(Resources::new(8, 8192, 16384)));
        assert!(!w.node.allocate(Resources::new(1, 1, 1)));
    }
}
