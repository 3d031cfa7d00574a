//! A workload, checked and indexed once: everything a master derives from
//! the task vector *alone*, so that every run over the same tasks — the four
//! strategies of a fig grid point, the shards of a federation — shares one
//! copy behind an `Arc` instead of re-deriving (or deep-cloning) it.
//!
//! Per-task *state* (dependency countdowns, retry sets, results) stays in
//! each master's journaled ledger; nothing here changes during a batch run.
//! A streaming master owns its table alone and grows it one dependency-free
//! task at a time.

use crate::task::{TaskId, TaskSpec};
use std::collections::{BTreeMap, HashMap};

/// The task vector plus what is derived from it: the malformed-workload
/// checks (done, by construction), the interned category table, the initial
/// dependency counts, and the dependents graph in CSR form indexed by task
/// *index*.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    pub(crate) tasks: Vec<TaskSpec>,
    /// `cat_of[task_idx]` indexes `cat_names`, so the dispatch hot path
    /// never clones or hashes a category string.
    pub(crate) cat_of: Vec<u32>,
    pub(crate) cat_names: Vec<String>,
    /// `deps.len()` per task: the countdown a fresh ledger starts from.
    pub(crate) dep_counts: Vec<usize>,
    /// Task `i`'s dependents are `dep_targets[dep_offsets[i]..dep_offsets[i + 1]]`,
    /// ascending, a task that lists `i` twice appearing twice.
    dep_offsets: Vec<u32>,
    dep_targets: Vec<u32>,
}

impl PreparedWorkload {
    /// Check and index `tasks`. Panics on a malformed workload: duplicate
    /// ids, or a dependency on an id not in the batch.
    pub fn new(tasks: Vec<TaskSpec>) -> Self {
        let n = tasks.len();
        assert!(n < u32::MAX as usize, "workload too large to index");
        // Generated workloads number their tasks 0..n in order; anything
        // else pays for a map.
        let dense = tasks.iter().enumerate().all(|(i, t)| t.id.0 == i as u64);
        let ids: HashMap<TaskId, u32> = if dense {
            HashMap::new()
        } else {
            let ids: HashMap<TaskId, u32> = (tasks.iter().enumerate())
                .map(|(i, t)| (t.id, i as u32))
                .collect();
            assert_eq!(ids.len(), n, "duplicate task ids in workload");
            ids
        };
        let index_of = |id: TaskId| {
            if dense {
                (id.0 < n as u64).then_some(id.0 as u32)
            } else {
                ids.get(&id).copied()
            }
        };

        let mut dep_offsets = vec![0u32; n + 1];
        let mut edges = Vec::new();
        for t in &tasks {
            for &d in &t.deps {
                let Some(j) = index_of(d) else {
                    panic!("task {} depends on unknown {d}", t.id);
                };
                dep_offsets[j as usize + 1] += 1;
                edges.push(j);
            }
        }
        for i in 0..n {
            dep_offsets[i + 1] += dep_offsets[i];
        }
        let mut cursor = dep_offsets.clone();
        let mut dep_targets = vec![0u32; edges.len()];
        let mut edge = edges.iter();
        for (i, t) in tasks.iter().enumerate() {
            for &j in edge.by_ref().take(t.deps.len()) {
                dep_targets[cursor[j as usize] as usize] = i as u32;
                cursor[j as usize] += 1;
            }
        }

        let mut cat_ids: BTreeMap<&str, u32> = BTreeMap::new();
        let mut cat_names: Vec<String> = Vec::new();
        let cat_of = tasks
            .iter()
            .map(|t| {
                *cat_ids.entry(&t.category).or_insert_with(|| {
                    cat_names.push(t.category.clone());
                    (cat_names.len() - 1) as u32
                })
            })
            .collect();
        PreparedWorkload {
            dep_counts: tasks.iter().map(|t| t.deps.len()).collect(),
            cat_of,
            cat_names,
            dep_offsets,
            dep_targets,
            tasks,
        }
    }

    /// The tasks, in submission order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks that list `task_idx` as a dependency, by index.
    pub(crate) fn dependents(&self, task_idx: usize) -> impl Iterator<Item = usize> + '_ {
        let (lo, hi) = (self.dep_offsets[task_idx], self.dep_offsets[task_idx + 1]);
        self.dep_targets[lo as usize..hi as usize]
            .iter()
            .map(|&d| d as usize)
    }

    /// Append one streamed, dependency-free task; a first-seen category is
    /// interned on the fly. Returns its category id.
    pub(crate) fn admit(&mut self, spec: TaskSpec) -> u32 {
        debug_assert!(spec.deps.is_empty());
        let cat = match self.cat_names.iter().position(|c| c == &spec.category) {
            Some(i) => i as u32,
            None => {
                self.cat_names.push(spec.category.clone());
                (self.cat_names.len() - 1) as u32
            }
        };
        self.cat_of.push(cat);
        self.dep_counts.push(0);
        self.dep_offsets.push(self.dep_targets.len() as u32);
        self.tasks.push(spec);
        cat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfm_monitor::sim::SimTaskProfile;

    fn task(id: u64, cat: &str, deps: &[u64]) -> TaskSpec {
        TaskSpec::new(
            TaskId(id),
            cat,
            vec![],
            0,
            SimTaskProfile::new(1.0, 1.0, 1, 1),
        )
        .after(deps.iter().map(|&d| TaskId(d)).collect())
    }

    /// The container the CSR table replaced: dependents listed per task id.
    fn dependents_oracle(tasks: &[TaskSpec]) -> BTreeMap<TaskId, Vec<usize>> {
        let mut dependents: BTreeMap<TaskId, Vec<usize>> = BTreeMap::new();
        for (i, t) in tasks.iter().enumerate() {
            for d in &t.deps {
                dependents.entry(*d).or_default().push(i);
            }
        }
        dependents
    }

    fn assert_matches_oracle(tasks: Vec<TaskSpec>) {
        let oracle = dependents_oracle(&tasks);
        let w = PreparedWorkload::new(tasks);
        for (i, t) in w.tasks().iter().enumerate() {
            let expect = oracle.get(&t.id).cloned().unwrap_or_default();
            assert_eq!(w.dependents(i).collect::<Vec<_>>(), expect, "task {i}");
            assert_eq!(w.dep_counts[i], t.deps.len());
            assert_eq!(w.cat_names[w.cat_of[i] as usize], t.category);
        }
    }

    #[test]
    fn csr_dependents_match_the_id_keyed_map() {
        // Dense ids: fan-out, a diamond, a dependency listed twice.
        assert_matches_oracle(vec![
            task(0, "a", &[]),
            task(1, "b", &[0]),
            task(2, "b", &[0, 0]),
            task(3, "c", &[1, 2]),
            task(4, "a", &[]),
        ]);
        // Sparse, unordered ids, a forward reference.
        assert_matches_oracle(vec![
            task(40, "x", &[7]),
            task(7, "y", &[]),
            task(19, "x", &[7, 40]),
        ]);
        assert_matches_oracle(Vec::new());
    }

    #[test]
    fn admit_extends_every_table() {
        let mut w = PreparedWorkload::new(Vec::new());
        assert_eq!(w.admit(task(0, "f", &[])), 0);
        assert_eq!(w.admit(task(1, "g", &[])), 1);
        assert_eq!(w.admit(task(2, "f", &[])), 0);
        assert_eq!((w.len(), w.cat_names.len()), (3, 2));
        assert_eq!(w.dep_counts, vec![0, 0, 0]);
        assert!((0..3).all(|i| w.dependents(i).next().is_none()));

        let mut grown = PreparedWorkload::new(vec![task(0, "a", &[]), task(1, "a", &[0])]);
        grown.admit(task(2, "a", &[]));
        assert_eq!(grown.dependents(0).collect::<Vec<_>>(), vec![1]);
        assert!(grown.dependents(2).next().is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate task ids in workload")]
    fn duplicate_ids_rejected() {
        PreparedWorkload::new(vec![task(3, "a", &[]), task(3, "a", &[])]);
    }

    #[test]
    #[should_panic(expected = "depends on unknown t9")]
    fn unknown_dependency_rejected() {
        PreparedWorkload::new(vec![task(0, "a", &[]), task(1, "a", &[9])]);
    }
}
