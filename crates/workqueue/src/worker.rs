//! Workers: a node plus a file cache.

use crate::sched::IdSet;
use lfm_simcluster::node::{Node, NodeSpec};
use lfm_simcluster::time::SimTime;

/// A connected worker. Files are named by the dense ids the prepared
/// workload interned for cacheable inputs
/// ([`InputRow::file`](crate::prepared::InputRow::file)).
#[derive(Debug, Clone)]
pub(crate) struct Worker {
    pub node: Node,
    cache: IdSet,
    /// Files currently being transferred to this worker and the time they
    /// land, in no particular order: a handful at most. Concurrent tasks
    /// needing the same file wait on the in-flight transfer instead of
    /// starting another (Work Queue transfers each cached file once per
    /// worker).
    staging: Vec<(u32, SimTime)>,
    /// Tasks currently executing here.
    pub running: u32,
    /// Ids of the live placements here (zombies excluded), in no particular
    /// order: at most one per core, so membership is a short scan.
    pub(crate) placements: Vec<u64>,
    /// Injected execution slowdown factor (1.0 = healthy; a fault plan's
    /// straggler spec can set it above 1).
    pub slowdown: f64,
    /// Lifetime counters.
    pub tasks_completed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Worker {
    pub(crate) fn new(id: u32, spec: NodeSpec) -> Self {
        Worker {
            node: Node::new(id, spec),
            cache: IdSet::default(),
            staging: Vec::new(),
            running: 0,
            placements: Vec::new(),
            slowdown: 1.0,
            tasks_completed: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    pub(crate) fn id(&self) -> u32 {
        self.node.id
    }

    /// Is this file already on local storage?
    pub(crate) fn has_cached(&self, file: u32) -> bool {
        self.cache.contains(file)
    }

    /// Record a cacheable file as present locally: whatever transfer of it
    /// was in flight has landed. Returns true when the file newly entered
    /// the cache (callers maintaining a file → workers inverted index
    /// mirror exactly these insertions).
    pub(crate) fn insert_cached(&mut self, file: u32) -> bool {
        let newly_cached = !self.cache.contains(file);
        if newly_cached {
            self.cache.insert(file);
        }
        self.staging.retain(|&(f, _)| f != file);
        newly_cached
    }

    /// Every cached file, ascending (for index teardown when the worker is
    /// evicted).
    pub(crate) fn cached_files(&self) -> impl Iterator<Item = u32> + '_ {
        self.cache.iter()
    }

    /// If `file` is already being transferred here, when does it land?
    pub(crate) fn staging_ready(&self, file: u32) -> Option<SimTime> {
        (self.staging.iter()).find_map(|&(f, ready)| (f == file).then_some(ready))
    }

    /// Record an in-flight transfer of `file`, landing at `ready`.
    pub(crate) fn mark_staging(&mut self, file: u32, ready: SimTime) {
        match self.staging.iter_mut().find(|(f, _)| *f == file) {
            Some(entry) => entry.1 = ready,
            None => self.staging.push((file, ready)),
        }
    }

    /// A staging attempt failed: forget the in-flight transfer of `file`
    /// (the bytes never landed) unless the file is already cached.
    pub(crate) fn abort_staging(&mut self, file: u32) {
        if !self.cache.contains(file) {
            self.staging.retain(|&(f, _)| f != file);
        }
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
    pub(crate) fn insert(&mut self, worker: Worker) -> Option<Worker> {
        let id = worker.id() as usize;
        if self.rows.len() <= id {
            self.rows.resize_with(id + 1, || None);
        }
        self.rows[id].replace(worker)
    }

    pub(crate) fn get(&self, id: u32) -> Option<&Worker> {
        self.rows.get(id as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: u32) -> Option<&mut Worker> {
        self.rows.get_mut(id as usize)?.as_mut()
    }

    pub(crate) fn remove(&mut self, id: u32) -> Option<Worker> {
        self.rows.get_mut(id as usize)?.take()
    }

    /// The connected workers in ascending id.
    pub(crate) fn values(&self) -> impl Iterator<Item = &Worker> {
        self.rows.iter().flatten()
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut Worker> {
        self.rows.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfm_simcluster::node::Resources;
    use std::collections::BTreeMap;

    fn worker() -> Worker {
        Worker::new(0, NodeSpec::new(8, 8192, 16384))
    }

    #[test]
    fn cache_insert_and_hit() {
        let mut w = worker();
        assert!(!w.has_cached(3));
        assert!(w.insert_cached(3));
        assert!(w.has_cached(3));
        assert!(!w.has_cached(2) && !w.has_cached(67));
        // Re-inserting is not "newly cached".
        assert!(!w.insert_cached(3));
        assert!(w.insert_cached(67));
        assert_eq!(w.cached_files().collect::<Vec<_>>(), vec![3, 67]);
    }

    #[test]
    fn abort_staging_forgets_in_flight_transfers() {
        let mut w = worker();
        w.mark_staging(1, SimTime::ZERO + 5.0);
        assert!(w.staging_ready(1).is_some());
        w.abort_staging(1);
        assert!(w.staging_ready(1).is_none());
        // Cached files are immune to aborts.
        w.insert_cached(1);
        w.mark_staging(1, SimTime::ZERO + 5.0);
        w.abort_staging(1);
        assert!(w.staging_ready(1).is_some());
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
