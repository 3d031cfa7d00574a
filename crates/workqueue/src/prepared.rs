//! A workload, checked and indexed once: everything a master derives from
//! the task vector *alone*, kept as columns by task index, so that every run
//! over the same tasks — the four strategies of a fig grid point, the shards
//! of a federation — shares one copy behind an `Arc` instead of re-deriving
//! (or deep-cloning) it. The specs themselves are consumed on the way in.
//!
//! Per-task *state* (dependency countdowns, retry sets, results) stays in
//! each master's journaled ledger; nothing here changes during a batch run.
//! A streaming master owns its table alone and grows it one dependency-free
//! task at a time: each is a row of a shape, so admitting it copies the
//! shape's columns and touches no name.

use crate::files::{FileKind, FileRef};
use crate::streaming::{TaskRow, TaskShape};
use crate::task::{TaskId, TaskSpec};
use lfm_monitor::sim::SimTaskProfile;
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

/// What a run reads of a task vector, as columns by task index: each
/// task's id, output size and true profile, its category id, its input rows
/// with their sizes and kinds, and its dependency count and dependents (a
/// CSR table). Building it checks the workload and interns every category
/// and cacheable file name; the specs themselves are not kept.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    pub(crate) ids: Vec<TaskId>,
    /// Bytes each task sends back to the master.
    pub(crate) output_bytes: Vec<u64>,
    /// Each task's true resource behaviour.
    pub(crate) profiles: Vec<SimTaskProfile>,
    /// `cat_of[task_idx]` indexes `cat_names`, so the dispatch hot path
    /// never clones or hashes a category string.
    pub(crate) cat_of: Vec<u32>,
    pub(crate) cat_names: Vec<String>,
    /// Per category, its telemetry name once a traced run resolved it.
    pub(crate) cat_attrs: Vec<OnceLock<Name>>,
    cat_ids: Interner,
    file_ids: Interner,
    /// Task `i`'s inputs are rows `input_offsets[i]..input_offsets[i + 1]`
    /// of `input_rows`, `input_sizes` and `input_kinds`, in its spec's order.
    input_offsets: Vec<u32>,
    input_rows: Vec<InputRow>,
    /// Each input's own transfer size: a cacheable name listed with two
    /// sizes keeps both, as the specs did.
    input_sizes: Vec<u64>,
    /// Each input's index into `kinds`.
    input_kinds: Vec<u32>,
    /// The distinct file kinds the inputs name, in first-seen order.
    kinds: Vec<FileKind>,
    kind_ids: HashMap<FileKind, u32>,
    /// `deps.len()` per task: the countdown a fresh ledger starts from.
    pub(crate) dep_counts: Vec<usize>,
    /// Task `i`'s dependents are `dep_targets[dep_offsets[i]..dep_offsets[i + 1]]`,
    /// ascending, a task that lists `i` twice appearing twice.
    dep_offsets: Vec<u32>,
    dep_targets: Vec<u32>,
}

/// What every streamed task of one kind shares: a spec but for its id and
/// its duration. Its names are interned when its first row is admitted, in
/// the order a spec's would be.
#[derive(Debug, Clone)]
pub(crate) struct Shape {
    pub(crate) category: String,
    pub(crate) inputs: Vec<ShapeInput>,
    pub(crate) output_bytes: u64,
    /// Every field but `duration_secs`, which each row brings.
    pub(crate) profile: SimTaskProfile,
    /// Once a row is admitted: the category id, and per input its row and
    /// kind id.
    ids: Option<(u32, Vec<(InputRow, u32)>)>,
}

/// One input of a [`Shape`].
#[derive(Debug, Clone)]
pub(crate) struct ShapeInput {
    pub(crate) file: FileRef,
    /// Each task has its own copy, named `file.name` followed by the task
    /// id in decimal.
    pub(crate) per_task: bool,
}

impl Shape {
    /// The shape a public [`TaskShape`] describes: its non-cacheable inputs
    /// are per task.
    pub(crate) fn new(shape: TaskShape) -> Self {
        let inputs = (shape.inputs.into_iter())
            .map(|file| ShapeInput {
                per_task: !file.cacheable,
                file,
            })
            .collect();
        Shape {
            category: shape.category,
            inputs,
            output_bytes: shape.output_bytes,
            profile: shape.profile,
            ids: None,
        }
    }

    /// `spec` as a shape, and the id and duration of the row of it that
    /// stands for `spec`: a non-cacheable input named with the task's id at
    /// its end is per task, any other name is kept whole.
    pub(crate) fn of_spec(spec: TaskSpec) -> (Self, TaskId, f64) {
        assert!(
            spec.deps.is_empty(),
            "streamed task {} has dependencies; streaming submission is for \
             independent invocations",
            spec.id
        );
        let mut digits = [0; 20];
        let id = lfm_telemetry::codec::decimal(spec.id.0, &mut digits);
        let inputs = (spec.inputs.into_iter())
            .map(|mut file| {
                let per_task = !file.cacheable && file.name.as_bytes().ends_with(id);
                if per_task {
                    file.name.truncate(file.name.len() - id.len());
                }
                ShapeInput { file, per_task }
            })
            .collect();
        let shape = Shape {
            category: spec.category,
            inputs,
            output_bytes: spec.output_bytes,
            profile: spec.profile,
            ids: None,
        };
        (shape, spec.id, spec.profile.duration_secs)
    }

    /// The spec `row` of this shape stands for.
    pub(crate) fn spec(&self, row: &TaskRow) -> TaskSpec {
        let inputs = (self.inputs.iter())
            .map(|i| match i.per_task {
                true => FileRef {
                    name: format!("{}{}", i.file.name, row.id.0),
                    ..i.file.clone()
                },
                false => i.file.clone(),
            })
            .collect();
        let profile = SimTaskProfile {
            duration_secs: row.duration_secs,
            ..self.profile
        };
        TaskSpec::new(row.id, &self.category, inputs, self.output_bytes, profile)
    }
}

impl PreparedWorkload {
    /// Check and index `tasks`, consuming them. Panics on a malformed
    /// workload: duplicate ids, or a dependency on an id not in the batch.
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

        let inputs: usize = tasks.iter().map(|t| t.inputs.len()).sum();
        let mut w = PreparedWorkload {
            ids: Vec::with_capacity(n),
            output_bytes: Vec::with_capacity(n),
            profiles: Vec::with_capacity(n),
            cat_of: Vec::with_capacity(n),
            cat_names: Vec::new(),
            cat_attrs: Vec::new(),
            cat_ids: Interner::default(),
            file_ids: Interner::default(),
            input_offsets: Vec::with_capacity(n + 1),
            input_rows: Vec::with_capacity(inputs),
            input_sizes: Vec::with_capacity(inputs),
            input_kinds: Vec::with_capacity(inputs),
            kinds: Vec::new(),
            kind_ids: HashMap::new(),
            dep_counts: tasks.iter().map(|t| t.deps.len()).collect(),
            dep_offsets,
            dep_targets,
        };
        w.input_offsets.push(0);
        // Each spec is freed as soon as its row is in.
        for t in tasks {
            w.push_row(t);
        }
        w
    }

    /// Append `spec`'s row: its id, output size and profile, its category id
    /// onto `cat_of`, its inputs onto the input columns. Its names are
    /// interned on the way.
    fn push_row(&mut self, mut spec: TaskSpec) {
        let cat = self.intern_category(&mut spec.category);
        self.ids.push(spec.id);
        self.output_bytes.push(spec.output_bytes);
        self.profiles.push(spec.profile);
        self.cat_of.push(cat);
        for f in spec.inputs {
            let (row, kind) = self.intern_input(&f);
            self.input_rows.push(row);
            self.input_sizes.push(f.size_bytes);
            self.input_kinds.push(kind);
        }
        self.end_row();
    }

    /// `name`'s category id. A first-seen name is moved into the table; a
    /// known one stays with the caller, so a spec's category is still freed
    /// after its inputs' names. Freeing it first reordered every row's frees
    /// and moved the repetition at which `master_batch`'s results no longer
    /// fit a free heap chunk (peak RSS +9 MB from there on).
    fn intern_category(&mut self, name: &mut String) -> u32 {
        let cat = self.cat_ids.intern(name);
        if cat as usize == self.cat_names.len() {
            self.cat_names.push(std::mem::take(name));
            self.cat_attrs.push(OnceLock::new());
        }
        cat
    }

    /// `f`'s input row (its cacheable name interned) and kind id.
    fn intern_input(&mut self, f: &FileRef) -> (InputRow, u32) {
        let id = match f.cacheable {
            true => self.file_ids.intern(&f.name),
            false => InputRow::NO_FILE,
        };
        let env = matches!(f.kind, FileKind::EnvironmentPack { .. });
        let row = InputRow(id | if env { InputRow::ENV } else { 0 });
        let kind = match self.kind_ids.get(&f.kind) {
            Some(&kind) => kind,
            None => {
                let kind = self.kinds.len() as u32;
                self.kind_ids.insert(f.kind.clone(), kind);
                self.kinds.push(f.kind.clone());
                kind
            }
        };
        (row, kind)
    }

    /// Close the row whose inputs were just pushed.
    fn end_row(&mut self) {
        // File ids are handed out one per row at most, so this bounds both.
        assert!(
            self.input_rows.len() < InputRow::NO_FILE as usize,
            "too many inputs to index"
        );
        self.input_offsets.push(self.input_rows.len() as u32);
    }

    /// Category `cat`'s telemetry name (a span's `category` attr), interned
    /// the first time a traced run asks, so an untraced run never does.
    pub(crate) fn cat_attr(&self, cat: u32) -> Name {
        let cat = cat as usize;
        *self.cat_attrs[cat].get_or_init(|| Name::intern(&self.cat_names[cat]))
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The tasks that list `task_idx` as a dependency, by index.
    pub(crate) fn dependents(&self, task_idx: usize) -> impl Iterator<Item = usize> + '_ {
        let (lo, hi) = (self.dep_offsets[task_idx], self.dep_offsets[task_idx + 1]);
        self.dep_targets[lo as usize..hi as usize]
            .iter()
            .map(|&d| d as usize)
    }

    /// Task `task_idx`'s rows in the input columns.
    fn input_range(&self, task_idx: usize) -> std::ops::Range<usize> {
        self.input_offsets[task_idx] as usize..self.input_offsets[task_idx + 1] as usize
    }

    /// Task `task_idx`'s inputs, in its spec's order.
    pub(crate) fn inputs_of(&self, task_idx: usize) -> &[InputRow] {
        &self.input_rows[self.input_range(task_idx)]
    }

    /// Task `task_idx`'s inputs with what staging them costs: each row, its
    /// transfer size and its kind.
    pub(crate) fn staged_inputs_of(
        &self,
        task_idx: usize,
    ) -> impl Iterator<Item = (InputRow, u64, &FileKind)> + '_ {
        self.input_range(task_idx).map(|r| {
            let kind = &self.kinds[self.input_kinds[r] as usize];
            (self.input_rows[r], self.input_sizes[r], kind)
        })
    }

    /// The id of a cacheable file some task names, if any does.
    #[cfg(test)]
    pub(crate) fn file_id(&self, name: &str) -> Option<u32> {
        self.file_ids.get(name)
    }

    /// Append one streamed, dependency-free task of `shape`: the shape's
    /// columns, with the task's id and duration. The shape's first task
    /// interns its names. Returns the task's category id.
    pub(crate) fn admit(&mut self, shape: &mut Shape, id: TaskId, duration_secs: f64) -> u32 {
        if shape.ids.is_none() {
            let cat = self.intern_category(&mut shape.category.clone());
            let inputs = (shape.inputs.iter()).map(|i| self.intern_input(&i.file));
            shape.ids = Some((cat, inputs.collect()));
        }
        let (cat, inputs) = shape.ids.as_ref().expect("resolved above");
        let cat = *cat;
        self.ids.push(id);
        self.output_bytes.push(shape.output_bytes);
        self.profiles.push(SimTaskProfile {
            duration_secs,
            ..shape.profile
        });
        self.cat_of.push(cat);
        for (input, &(row, kind)) in shape.inputs.iter().zip(inputs) {
            self.input_rows.push(row);
            self.input_sizes.push(input.file.size_bytes);
            self.input_kinds.push(kind);
        }
        self.end_row();
        self.dep_counts.push(0);
        self.dep_offsets.push(self.dep_targets.len() as u32);
        cat
    }

    /// Admit `spec` as a task of a shape of its own.
    #[cfg(test)]
    pub(crate) fn admit_spec(&mut self, spec: TaskSpec) -> u32 {
        let (mut shape, id, duration_secs) = Shape::of_spec(spec);
        self.admit(&mut shape, id, duration_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::FileRef;

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
        let w = PreparedWorkload::new(tasks.clone());
        for (i, t) in tasks.iter().enumerate() {
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
        assert_eq!(w.admit_spec(task(0, "f", &[])), 0);
        assert_eq!(w.admit_spec(task(1, "g", &[])), 1);
        assert_eq!(w.admit_spec(task(2, "f", &[])), 0);
        assert_eq!((w.len(), w.cat_names.len()), (3, 2));
        assert_eq!(w.dep_counts, vec![0, 0, 0]);
        assert!((0..3).all(|i| w.dependents(i).next().is_none()));

        let mut grown = PreparedWorkload::new(vec![task(0, "a", &[]), task(1, "a", &[0])]);
        grown.admit_spec(task(2, "a", &[]));
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
        w.admit_spec(with(3, vec![late, env]));
        assert_eq!(rows(&w, 3), vec![(Some(2), false), (Some(0), true)]);
        assert_eq!(w.file_id("late"), Some(2));
    }

    /// Every column of `w` equals the spec field it came from, row for row.
    fn assert_rows_match(w: &PreparedWorkload, specs: &[TaskSpec]) {
        assert_eq!(w.len(), specs.len());
        for (i, t) in specs.iter().enumerate() {
            assert_eq!(w.ids[i], t.id, "task {i}");
            assert_eq!(w.output_bytes[i], t.output_bytes, "task {i}");
            assert_eq!(w.profiles[i], t.profile, "task {i}");
            assert_eq!(w.cat_names[w.cat_of[i] as usize], t.category, "task {i}");
            assert_eq!(w.dep_counts[i], t.deps.len(), "task {i}");
            let staged: Vec<_> = w.staged_inputs_of(i).collect();
            assert_eq!(staged.len(), t.inputs.len(), "task {i}");
            for ((row, size, kind), f) in staged.into_iter().zip(&t.inputs) {
                assert_eq!(size, f.size_bytes, "task {i} {}", f.name);
                assert_eq!(kind, &f.kind, "task {i} {}", f.name);
                let env = matches!(f.kind, FileKind::EnvironmentPack { .. });
                assert_eq!(row.is_env(), env, "task {i} {}", f.name);
                let file = f.cacheable.then(|| w.file_id(&f.name).expect("interned"));
                assert_eq!(row.file(), file, "task {i} {}", f.name);
            }
        }
    }

    #[test]
    fn rows_equal_the_specs_they_came_from() {
        let env = FileRef::environment("env", 100, 600, 10, 1);
        let other_env = FileRef::environment("env-b", 200, 900, 20, 3);
        let with = |id: u64, cat: &str, deps: &[u64], inputs: Vec<FileRef>| TaskSpec {
            inputs,
            output_bytes: id * 7,
            profile: SimTaskProfile::new(id as f64 + 0.5, 1.0, 100 + id, 10 + id),
            ..task(id, cat, deps)
        };
        // Sparse, unordered ids; one cacheable name at two sizes; an
        // environment pack someone marked uncacheable.
        let mut specs = vec![
            with(
                40,
                "x",
                &[7],
                vec![env.clone(), FileRef::shared_data("calib", 50)],
            ),
            with(7, "y", &[], vec![FileRef::data("in-7", 3)]),
            with(
                19,
                "x",
                &[7, 40],
                vec![
                    FileRef::shared_data("calib", 70),
                    FileRef {
                        cacheable: false,
                        ..other_env.clone()
                    },
                ],
            ),
        ];
        let mut w = PreparedWorkload::new(specs.clone());
        assert_rows_match(&w, &specs);
        assert_eq!(w.kinds.len(), 3, "Data and two packs, each kept once");
        // Admitted: a first-seen category and file, and known ones.
        for t in [
            with(3, "z", &[], vec![FileRef::shared_data("late", 5), env]),
            with(4, "y", &[], vec![other_env, FileRef::data("in-4", 1)]),
        ] {
            specs.push(t.clone());
            w.admit_spec(t);
            assert_rows_match(&w, &specs);
        }
        assert_eq!((w.cat_names.len(), w.kinds.len()), (3, 3));
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
