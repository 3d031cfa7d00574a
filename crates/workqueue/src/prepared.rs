//! A workload, checked and indexed once: everything a master derives from
//! the task vector *alone*, so that every run over the same tasks — the four
//! strategies of a fig grid point, the shards of a federation — shares one
//! copy behind an `Arc` instead of re-deriving (or deep-cloning) it.
//!
//! Per-task *state* (dependency countdowns, retry sets, results) stays in
//! each master's journaled ledger; nothing here changes during a batch run.
//! A streaming master owns its table alone and grows it one dependency-free
//! task at a time.

use crate::files::FileKind;
use crate::task::{TaskId, TaskSpec};
use lfm_telemetry::Name;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// Names to dense ids in first-seen order: the one place a category or file
/// *name* is compared. Everything past submission runs on the ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner(BTreeMap<String, u32>);

impl Interner {
    /// The id of `name`; a name not seen before gets the next one.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        self.get(name).unwrap_or_else(|| {
            #[cfg(test)]
            NAME_WORK.with(|c| c.set((c.get().0, c.get().1 + 1)));
            let id = self.0.len() as u32;
            self.0.insert(name.to_string(), id);
            id
        })
    }

    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        #[cfg(test)]
        NAME_WORK.with(|c| c.set((c.get().0 + 1, c.get().1)));
        self.0.get(name).copied()
    }
}

#[cfg(test)]
thread_local! {
    /// `(probes, names interned)` by this thread's [`Interner`]s: a probe
    /// compares names, an interned name allocates one; a run does neither.
    pub(crate) static NAME_WORK: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// One input of one task as the per-task path reads it: the dense id of a
/// cacheable file (per-task data files get the `NO_FILE` sentinel, so their
/// names never enter a table) and, in the top bit, whether it is an
/// environment pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InputRow(u32);

impl InputRow {
    const ENV: u32 = 1 << 31;
    const NO_FILE: u32 = Self::ENV - 1;

    /// The file's id when it is cacheable.
    pub(crate) fn file(self) -> Option<u32> {
        let id = self.0 & Self::NO_FILE;
        (id != Self::NO_FILE).then_some(id)
    }

    pub(crate) fn is_env(self) -> bool {
        self.0 & Self::ENV != 0
    }
}

/// The task vector plus what is derived from it: the malformed-workload
/// checks (done, by construction), the interned category and file tables,
/// the initial dependency counts, and the dependents graph in CSR form
/// indexed by task *index*.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    pub(crate) tasks: Vec<TaskSpec>,
    /// `cat_of[task_idx]` indexes `cat_names`, so the dispatch hot path
    /// never clones or hashes a category string.
    pub(crate) cat_of: Vec<u32>,
    pub(crate) cat_names: Vec<String>,
    /// Per category, its telemetry name once a traced run resolved it.
    pub(crate) cat_attrs: Vec<OnceLock<Name>>,
    cat_ids: Interner,
    file_ids: Interner,
    /// Task `i`'s inputs are `input_rows[input_offsets[i]..input_offsets[i + 1]]`,
    /// parallel to `tasks[i].inputs`.
    input_offsets: Vec<u32>,
    input_rows: Vec<InputRow>,
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

        let mut w = PreparedWorkload {
            dep_counts: tasks.iter().map(|t| t.deps.len()).collect(),
            cat_of: Vec::with_capacity(n),
            cat_names: Vec::new(),
            cat_attrs: Vec::new(),
            cat_ids: Interner::default(),
            file_ids: Interner::default(),
            input_offsets: vec![0],
            input_rows: Vec::new(),
            dep_offsets,
            dep_targets,
            tasks: Vec::new(),
        };
        for t in &tasks {
            w.intern_names(t);
        }
        w.tasks = tasks;
        w
    }

    /// Resolve an entering task's names: its category id onto `cat_of`, its
    /// input rows onto the CSR table. Returns the category id.
    fn intern_names(&mut self, spec: &TaskSpec) -> u32 {
        let cat = self.cat_ids.intern(&spec.category);
        if cat as usize == self.cat_names.len() {
            self.cat_names.push(spec.category.clone());
            self.cat_attrs.push(OnceLock::new());
        }
        self.cat_of.push(cat);
        for f in &spec.inputs {
            let id = match f.cacheable {
                true => self.file_ids.intern(&f.name),
                false => InputRow::NO_FILE,
            };
            let env = matches!(f.kind, FileKind::EnvironmentPack { .. });
            self.input_rows
                .push(InputRow(id | if env { InputRow::ENV } else { 0 }));
        }
        // File ids are handed out one per row at most, so this bounds both.
        assert!(
            self.input_rows.len() < InputRow::NO_FILE as usize,
            "too many inputs to index"
        );
        self.input_offsets.push(self.input_rows.len() as u32);
        cat
    }

    /// Category `cat`'s telemetry name (a span's `category` attr), interned
    /// the first time a traced run asks, so an untraced run never does.
    pub(crate) fn cat_attr(&self, cat: u32) -> Name {
        let cat = cat as usize;
        *self.cat_attrs[cat].get_or_init(|| Name::intern(&self.cat_names[cat]))
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

    /// Task `task_idx`'s inputs, parallel to its spec's `inputs`.
    pub(crate) fn inputs_of(&self, task_idx: usize) -> &[InputRow] {
        let (lo, hi) = (
            self.input_offsets[task_idx],
            self.input_offsets[task_idx + 1],
        );
        &self.input_rows[lo as usize..hi as usize]
    }

    /// The id of a cacheable file some task names, if any does.
    #[cfg(test)]
    pub(crate) fn file_id(&self, name: &str) -> Option<u32> {
        self.file_ids.get(name)
    }

    /// Append one streamed, dependency-free task; a first-seen category or
    /// cacheable file is interned on the fly. Returns its category id.
    pub(crate) fn admit(&mut self, spec: TaskSpec) -> u32 {
        debug_assert!(spec.deps.is_empty());
        let cat = self.intern_names(&spec);
        self.dep_counts.push(0);
        self.dep_offsets.push(self.dep_targets.len() as u32);
        self.tasks.push(spec);
        cat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::FileRef;
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
    fn input_rows_intern_cacheable_names_only() {
        let env = FileRef::environment("env", 100, 600, 10, 1);
        let calib = FileRef::shared_data("calib", 50);
        let with = |id: u64, inputs: Vec<FileRef>| TaskSpec {
            inputs,
            ..task(id, "a", &[])
        };
        // A pack someone marked uncacheable is still an environment.
        let loose_env = FileRef {
            cacheable: false,
            ..env.clone()
        };
        let mut w = PreparedWorkload::new(vec![
            with(
                0,
                vec![FileRef::data("in-0", 1), env.clone(), calib.clone()],
            ),
            with(1, vec![]),
            with(2, vec![calib.clone(), FileRef::data("in-2", 1), loose_env]),
        ]);
        let rows = |w: &PreparedWorkload, i: usize| -> Vec<(Option<u32>, bool)> {
            assert_eq!(w.inputs_of(i).len(), w.tasks()[i].inputs.len());
            (w.inputs_of(i).iter())
                .map(|r| (r.file(), r.is_env()))
                .collect()
        };
        assert_eq!(
            rows(&w, 0),
            vec![(None, false), (Some(0), true), (Some(1), false)]
        );
        assert_eq!(rows(&w, 1), vec![]);
        assert_eq!(
            rows(&w, 2),
            vec![(Some(1), false), (None, false), (None, true)]
        );
        assert_eq!((w.file_id("env"), w.file_id("calib")), (Some(0), Some(1)));
        assert_eq!((w.file_id("in-0"), w.file_id("late")), (None, None));
        // A streamed task names a known file and a new one.
        let late = FileRef::shared_data("late", 5);
        w.admit(with(3, vec![late, env]));
        assert_eq!(rows(&w, 3), vec![(Some(2), false), (Some(0), true)]);
        assert_eq!(w.file_id("late"), Some(2));
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
