//! Lowering Parsl apps to Work Queue tasks — the paper's new
//! Parsl-WorkQueue executor module (§III-A).
//!
//! For each app: run static dependency analysis over its source, pin the
//! imported packages against the user's environment, resolve the transitive
//! closure, build + pack a *minimal* environment, and attach the packed
//! archive as a cacheable input file to every invocation of that app.
//! Invocations then become [`TaskSpec`]s whose dependency edges come from
//! the dataflow DAG.

use crate::app::App;
use lfm_monitor::sim::SimTaskProfile;
use lfm_pyenv::environment::Environment;
use lfm_pyenv::error::Result as PyResult;
use lfm_pyenv::index::PackageIndex;
use lfm_pyenv::pack::pack_cached;
use lfm_pyenv::requirements::RequirementSet;
use lfm_pyenv::resolve::resolve_cached;
use lfm_workqueue::files::FileRef;
use lfm_workqueue::task::{TaskId, TaskSpec};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// What environment preparation produced for one app (Table II's row
/// ingredients: dependency count, sizes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvPlan {
    pub app: String,
    /// Direct requirements discovered by static analysis.
    pub direct_requirements: usize,
    /// Distributions in the resolved closure.
    pub resolved_dists: usize,
    /// Packed archive bytes.
    pub archive_bytes: u64,
    /// Installed bytes after unpack.
    pub installed_bytes: u64,
    /// Files after unpack.
    pub installed_files: u64,
    /// Analyzer warnings (dynamic imports, star imports).
    pub warnings: usize,
}

/// One remembered [`WqWorkflowBuilder::prepare_environment`] result, with
/// the parts of its key the map does not hash.
struct MemoEntry {
    index: u64,
    user_env: u64,
    source: Option<String>,
    file: FileRef,
    plan: EnvPlan,
}

impl MemoEntry {
    fn is_for(&self, index: u64, user_env: u64, app: &App) -> bool {
        self.index == index && self.user_env == user_env && self.source == app.source
    }
}

/// Process-wide memo of environment preparation. What `prepare_environment`
/// returns is a pure function of the index's contents, the versions the user
/// environment pins, and the app's name and source, so it is keyed by
/// (index fingerprint, user-environment fingerprint, app name, app source):
/// every builder after the first over the same four does a lookup, not an
/// analysis. No size bound and no off switch — an entry is two small structs
/// per distinct (index, environment, app), and errors are never kept.
#[derive(Default)]
pub struct EnvMemo {
    state: Mutex<MemoState>,
}

#[derive(Default)]
struct MemoState {
    /// By app name; the few entries of a name are told apart by scanning.
    entries: HashMap<String, Vec<MemoEntry>>,
    stats: EnvMemoStats,
}

/// Observability counters for the [`EnvMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvMemoStats {
    pub hits: u64,
    /// Preparations actually performed: each is one source analysis, one
    /// trip to the resolve cache and one to the pack cache.
    pub misses: u64,
}

impl EnvMemo {
    fn get(&self, index: u64, user_env: u64, app: &App) -> Option<(FileRef, EnvPlan)> {
        let mut state = self.state.lock();
        let e = (state.entries.get(&app.name)?.iter()).find(|e| e.is_for(index, user_env, app))?;
        let hit = (e.file.clone(), e.plan.clone());
        state.stats.hits += 1;
        Some(hit)
    }

    fn insert(&self, index: u64, user_env: u64, app: &App, file: &FileRef, plan: &EnvPlan) {
        let mut state = self.state.lock();
        state.stats.misses += 1;
        let of_name = state.entries.entry(app.name.clone()).or_default();
        // Two builders may have prepared the same app side by side.
        if !of_name.iter().any(|e| e.is_for(index, user_env, app)) {
            of_name.push(MemoEntry {
                index,
                user_env,
                source: app.source.clone(),
                file: file.clone(),
                plan: plan.clone(),
            });
        }
    }

    pub fn stats(&self) -> EnvMemoStats {
        self.state.lock().stats
    }
}

/// The memo every [`WqWorkflowBuilder`] in the process shares.
pub fn env_memo() -> &'static EnvMemo {
    static MEMO: OnceLock<EnvMemo> = OnceLock::new();
    MEMO.get_or_init(EnvMemo::default)
}

/// Builds a Work Queue workload from app invocations.
pub struct WqWorkflowBuilder {
    index: Arc<PackageIndex>,
    user_env: Arc<Environment>,
    env_files: BTreeMap<String, FileRef>,
    plans: Vec<EnvPlan>,
    tasks: Vec<TaskSpec>,
    next_id: u64,
}

impl WqWorkflowBuilder {
    /// `user_env` is the environment the analysis pins versions against —
    /// typically [`lfm_pyenv::environment::user_environment`]. Both come by
    /// value or as shared handles; a builder only reads them.
    pub fn new(index: impl Into<Arc<PackageIndex>>, user_env: impl Into<Arc<Environment>>) -> Self {
        WqWorkflowBuilder {
            index: index.into(),
            user_env: user_env.into(),
            env_files: BTreeMap::new(),
            plans: Vec::new(),
            tasks: Vec::new(),
            next_id: 0,
        }
    }

    /// Analyze + resolve + pack the environment for `app`, once per app
    /// name in this builder and, through the [`EnvMemo`], once per process
    /// for the same index, user environment and source. Returns the
    /// cacheable input file representing the packed env.
    pub fn prepare_environment(&mut self, app: &App) -> PyResult<FileRef> {
        if let Some(f) = self.env_files.get(&app.name) {
            return Ok(f.clone());
        }
        let (index, user_env) = (self.index.fingerprint(), self.user_env.fingerprint());
        let (file, plan) = match env_memo().get(index, user_env, app) {
            Some(hit) => hit,
            None => {
                let prepared = self.prepare_uncached(app)?;
                env_memo().insert(index, user_env, app, &prepared.0, &prepared.1);
                prepared
            }
        };
        self.plans.push(plan);
        self.env_files.insert(app.name.clone(), file.clone());
        Ok(file)
    }

    fn prepare_uncached(&self, app: &App) -> PyResult<(FileRef, EnvPlan)> {
        let analysis = app.analyze()?;
        let direct = RequirementSet::from_analysis(&analysis, &self.index)?;
        // Pin against the user's environment where installed; fall back to
        // the index's newest for anything absent locally.
        let mut pinned = RequirementSet::new();
        for r in direct.iter() {
            match self.user_env.installed_version(&r.dist) {
                Some(v) => pinned.add(lfm_pyenv::requirements::Requirement::exact(
                    r.dist.clone(),
                    v,
                )),
                None => pinned.add(r.clone()),
            }
        }
        // The leaf caches stay underneath: apps with different sources
        // often pin the same closure, and the fig 4–5 and Table II runners
        // resolve and pack without a builder.
        let resolution = resolve_cached(&self.index, &pinned)?;
        let env = Environment::from_resolution(
            format!("{}-env", app.name),
            format!("/envs/{}", app.name),
            &self.index,
            &resolution,
        )?;
        let packed = pack_cached(&env);
        let file = FileRef::environment(
            format!("{}-env.tar.gz", app.name),
            packed.archive_bytes(),
            packed.installed_bytes(),
            packed.file_count(),
            packed.relocation_ops("/scratch"),
        );
        let plan = EnvPlan {
            app: app.name.clone(),
            direct_requirements: direct.len(),
            resolved_dists: resolution.len(),
            archive_bytes: packed.archive_bytes(),
            installed_bytes: packed.installed_bytes(),
            installed_files: packed.file_count(),
            warnings: analysis.warnings.len(),
        };
        Ok((file, plan))
    }

    /// Add one invocation of `app` with the given true behaviour profile.
    pub fn add_invocation(
        &mut self,
        app: &App,
        profile: SimTaskProfile,
        mut extra_inputs: Vec<FileRef>,
        output_bytes: u64,
        deps: Vec<TaskId>,
    ) -> PyResult<TaskId> {
        let env_file = self.prepare_environment(app)?;
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let mut inputs = vec![env_file];
        inputs.append(&mut extra_inputs);
        self.tasks
            .push(TaskSpec::new(id, app.name.clone(), inputs, output_bytes, profile).after(deps));
        Ok(id)
    }

    /// Environment plans computed so far.
    pub fn plans(&self) -> &[EnvPlan] {
        &self.plans
    }

    /// Finish, returning the task list for [`lfm_workqueue::master::run_workload`].
    pub fn build(self) -> Vec<TaskSpec> {
        self.tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfm_pyenv::environment::user_environment;
    use lfm_pyenv::source::hep_process_source;

    fn builder() -> WqWorkflowBuilder {
        let index = PackageIndex::builtin();
        let env = user_environment(&index).unwrap();
        WqWorkflowBuilder::new(index, env)
    }

    fn hep_app() -> App {
        App::python("process_chunk", hep_process_source(), |_| {
            Ok(lfm_pyenv::pickle::PyValue::None)
        })
    }

    #[test]
    fn environment_prepared_once_per_app() {
        let mut b = builder();
        let app = hep_app();
        let f1 = b.prepare_environment(&app).unwrap();
        let f2 = b.prepare_environment(&app).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(b.plans().len(), 1);
        let plan = &b.plans()[0];
        assert!(plan.resolved_dists > plan.direct_requirements);
        assert!(plan.archive_bytes > 0);
        assert!(plan.installed_bytes > plan.archive_bytes);
    }

    #[test]
    fn minimal_env_is_smaller_than_user_env() {
        let mut b = builder();
        let app = hep_app();
        b.prepare_environment(&app).unwrap();
        let plan = &b.plans()[0];
        let index = PackageIndex::builtin();
        let full = user_environment(&index).unwrap();
        assert!(
            plan.installed_bytes < full.total_bytes() / 2,
            "minimal env {} should be far below the kitchen-sink env {}",
            plan.installed_bytes,
            full.total_bytes()
        );
    }

    #[test]
    fn invocations_share_env_and_chain_deps() {
        let mut b = builder();
        let app = hep_app();
        let t0 = b
            .add_invocation(
                &app,
                SimTaskProfile::new(60.0, 1.0, 110, 1024),
                vec![],
                0,
                vec![],
            )
            .unwrap();
        let t1 = b
            .add_invocation(
                &app,
                SimTaskProfile::new(60.0, 1.0, 110, 1024),
                vec![],
                0,
                vec![t0],
            )
            .unwrap();
        let tasks = b.build();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].inputs[0], tasks[1].inputs[0]); // same env file
        assert_eq!(tasks[1].deps, vec![t0]);
        assert_ne!(t0, t1);
    }

    #[test]
    fn pinned_versions_come_from_user_env() {
        let index = PackageIndex::builtin();
        let user = user_environment(&index).unwrap();
        let expected_numpy = user.installed_version("numpy").unwrap();
        let mut b = WqWorkflowBuilder::new(index, user);
        let app = App::python(
            "np_task",
            "def np_task(x):\n    import numpy\n    return x\n",
            |_| Ok(lfm_pyenv::pickle::PyValue::None),
        );
        b.prepare_environment(&app).unwrap();
        // Rebuild the resolution the builder performed to check the pin.
        let plan = &b.plans()[0];
        assert!(plan.resolved_dists >= 2);
        // numpy in the user env is the newest; the plan must have used it.
        assert_eq!(expected_numpy, "1.18.5".parse().unwrap());
    }

    #[test]
    fn memo_hit_equals_the_cold_preparation_in_each_builders_order() {
        // App names no other test uses, so the first builder here is cold.
        let np = |name: &str| {
            let source = format!("def {name}(x):\n    import numpy\n    return x\n");
            App::python(name, source, |_| Ok(lfm_pyenv::pickle::PyValue::None))
        };
        let (a, b) = (np("memo_order_a"), np("memo_order_b"));
        let mut cold = builder();
        let files = [
            cold.prepare_environment(&a).unwrap(),
            cold.prepare_environment(&b).unwrap(),
        ];
        let misses = env_memo().stats().misses;
        assert!(misses >= 2);

        // A second builder, other order: served from the memo, same files
        // and plans, listed in *its* order of first use.
        let mut warm = builder();
        assert_eq!(warm.prepare_environment(&b).unwrap(), files[1]);
        assert_eq!(warm.prepare_environment(&a).unwrap(), files[0]);
        assert_eq!(warm.prepare_environment(&b).unwrap(), files[1]);
        let reversed: Vec<EnvPlan> = cold.plans().iter().rev().cloned().collect();
        assert_eq!(warm.plans(), reversed);

        // The same name over another source is another entry.
        let heavier = App::python(
            "memo_order_a",
            "def memo_order_a(x):\n    import tensorflow\n    return x\n",
            |_| Ok(lfm_pyenv::pickle::PyValue::None),
        );
        let mut other = builder();
        other.prepare_environment(&heavier).unwrap();
        assert!(other.plans()[0].installed_bytes > cold.plans()[0].installed_bytes);
    }

    #[test]
    fn unknown_import_is_an_error() {
        let mut b = builder();
        let app = App::python(
            "mystery",
            "def mystery():\n    import package_that_does_not_exist\n    return 0\n",
            |_| Ok(lfm_pyenv::pickle::PyValue::None),
        );
        assert!(b.prepare_environment(&app).is_err());
    }
}
