//! Installed Python environments (the Conda-environment stand-in).

use crate::error::{PyEnvError, Result};
use crate::index::{DistRelease, PackageIndex};
use crate::requirements::{Requirement, RequirementSet};
use crate::resolve::Resolution;
use crate::version::Version;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// A concrete installed environment: a set of pinned releases plus the prefix
/// path it was installed into (relevant for relocation when packing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// Environment name (e.g. `hep-analysis`).
    pub name: String,
    /// Install prefix, e.g. `/home/user/conda/envs/hep-analysis`.
    pub prefix: String,
    installed: BTreeMap<String, DistRelease>,
    module_map: BTreeMap<String, String>,
    /// See [`Environment::fingerprint`]; fixed at construction, as the
    /// installed set is.
    fingerprint: u64,
}

impl Environment {
    /// Materialize an environment from a resolution.
    pub fn from_resolution(
        name: impl Into<String>,
        prefix: impl Into<String>,
        index: &PackageIndex,
        resolution: &Resolution,
    ) -> Result<Self> {
        let mut installed = BTreeMap::new();
        let mut module_map = BTreeMap::new();
        for rel in resolution.releases(index)? {
            for m in &rel.modules {
                module_map.insert(m.clone(), rel.name.clone());
            }
            installed.insert(rel.name.clone(), rel.clone());
        }
        Ok(Self::construct(
            name.into(),
            prefix.into(),
            installed,
            module_map,
        ))
    }

    /// Crate-internal constructor (used by archive unpacking, where the
    /// release records come from the manifest rather than an index).
    pub(crate) fn construct(
        name: String,
        prefix: String,
        installed: BTreeMap<String, DistRelease>,
        module_map: BTreeMap<String, String>,
    ) -> Self {
        let mut h = crate::pack::Fnv1a::new();
        for r in installed.values() {
            write!(h, "{}={};", r.name, r.version).expect("hashing cannot fail");
        }
        Environment {
            name,
            prefix,
            installed,
            module_map,
            fingerprint: h.finish(),
        }
    }

    /// The installed version of `dist`, if present.
    pub fn installed_version(&self, dist: &str) -> Option<Version> {
        self.installed.get(dist).map(|r| r.version)
    }

    /// The release record for `dist`.
    pub fn release(&self, dist: &str) -> Result<&DistRelease> {
        self.installed
            .get(dist)
            .ok_or_else(|| PyEnvError::MissingFromEnvironment(dist.to_string()))
    }

    /// Which installed distribution provides import name `module`?
    pub fn dist_for_module(&self, module: &str) -> Option<&str> {
        self.module_map.get(module).map(String::as_str)
    }

    /// Iterate installed releases in name order.
    pub fn releases(&self) -> impl Iterator<Item = &DistRelease> {
        self.installed.values()
    }

    /// Number of installed distributions.
    pub fn dist_count(&self) -> usize {
        self.installed.len()
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.installed.values().map(|r| r.size_bytes).sum()
    }

    /// Total file count — what shared-filesystem metadata load scales with.
    pub fn total_files(&self) -> u64 {
        self.installed.values().map(|r| r.file_count as u64).sum()
    }

    /// Files belonging to native libraries, which need prefix rewriting when
    /// the environment is relocated (conda-pack's main unpack cost).
    pub fn native_lib_files(&self) -> u64 {
        self.installed
            .values()
            .filter(|r| r.has_native_libs)
            .map(|r| r.file_count as u64)
            .sum()
    }

    /// A content fingerprint of what is installed (name and version per
    /// distribution) — what pinning against this environment can observe.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Exact pins for reproducing this environment elsewhere.
    pub fn as_requirements(&self) -> RequirementSet {
        self.installed
            .values()
            .map(|r| Requirement::exact(r.name.clone(), r.version))
            .collect()
    }

    /// Look up the installed versions of the given direct requirements —
    /// the paper's "query the user's current Python environment to identify
    /// the installed version of each imported package" step. The result is a
    /// *pinned* requirement set suitable for recreating a minimal env.
    pub fn pin_requirements(&self, direct: &RequirementSet) -> Result<RequirementSet> {
        let mut out = RequirementSet::new();
        for r in direct.iter() {
            let v = self
                .installed_version(&r.dist)
                .ok_or_else(|| PyEnvError::MissingFromEnvironment(r.dist.clone()))?;
            out.add(Requirement::exact(r.dist.clone(), v));
        }
        Ok(out)
    }
}

/// Build the kind of kitchen-sink personal environment the paper warns about
/// ("users install many packages in their personal environment that are not
/// needed for every application, let alone function").
pub fn user_environment(index: &PackageIndex) -> Result<Environment> {
    let everything: RequirementSet = [
        "python",
        "numpy",
        "scipy",
        "pandas",
        "scikit-learn",
        "matplotlib",
        "sympy",
        "tensorflow",
        "mxnet",
        "coffea",
        "rdkit",
        "biopython",
        "requests",
        "parsl",
        "work-queue",
    ]
    .iter()
    .map(|s| Requirement::any(*s))
    .collect();
    let resolution = crate::resolve::resolve_cached(index, &everything)?;
    Environment::from_resolution("base", "/home/user/conda/envs/base", index, &resolution)
}

/// [`user_environment`] memoized per index fingerprint, as a shared handle.
/// Every experiment's workflow builder starts from this environment, so
/// across a sweep the kitchen-sink resolve + materialization runs once and
/// no builder copies the result.
pub fn user_environment_cached(index: &PackageIndex) -> Result<Arc<Environment>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<Environment>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = index.fingerprint();
    if let Some(env) = cache.lock().get(&key) {
        return Ok(Arc::clone(env));
    }
    let env = Arc::new(user_environment(index)?);
    Ok(Arc::clone(cache.lock().entry(key).or_insert(env)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::resolve;

    fn env_for(reqs: &[&str]) -> Environment {
        let ix = PackageIndex::builtin();
        let set: RequirementSet = reqs
            .iter()
            .map(|s| s.parse::<Requirement>().unwrap())
            .collect();
        let r = resolve(&ix, &set).unwrap();
        Environment::from_resolution("test", "/tmp/envs/test", &ix, &r).unwrap()
    }

    #[test]
    fn environment_exposes_installed_versions() {
        let env = env_for(&["numpy"]);
        assert_eq!(
            env.installed_version("numpy").unwrap(),
            "1.18.5".parse().unwrap()
        );
        assert!(env.installed_version("pandas").is_none());
    }

    #[test]
    fn module_lookup_within_environment() {
        let env = env_for(&["scikit-learn"]);
        assert_eq!(env.dist_for_module("sklearn").unwrap(), "scikit-learn");
        assert_eq!(env.dist_for_module("numpy").unwrap(), "numpy");
        assert!(env.dist_for_module("tensorflow").is_none());
    }

    #[test]
    fn totals_and_counts() {
        let env = env_for(&["numpy"]);
        assert!(env.dist_count() >= 4); // numpy, python, blas, mkl + python deps
        assert!(env.total_bytes() > 0);
        assert!(env.total_files() > 0);
        assert!(env.native_lib_files() > 0);
    }

    #[test]
    fn pinned_requirements_reproduce_environment() {
        let ix = PackageIndex::builtin();
        let env = env_for(&["tensorflow"]);
        let pins = env.as_requirements();
        let r2 = resolve(&ix, &pins).unwrap();
        let env2 = Environment::from_resolution("copy", "/tmp/envs/copy", &ix, &r2).unwrap();
        assert_eq!(env.dist_count(), env2.dist_count());
        assert_eq!(env.total_bytes(), env2.total_bytes());
    }

    #[test]
    fn pin_requirements_uses_installed_versions() {
        let env = env_for(&["numpy<1.18"]);
        let mut direct = RequirementSet::new();
        direct.add(Requirement::any("numpy"));
        let pinned = env.pin_requirements(&direct).unwrap();
        let r = pinned.iter().find(|r| r.dist == "numpy").unwrap();
        assert!(r.req.matches("1.17.4".parse().unwrap()));
        assert!(!r.req.matches("1.18.5".parse().unwrap()));
    }

    #[test]
    fn pin_requirements_missing_dist_errors() {
        let env = env_for(&["numpy"]);
        let mut direct = RequirementSet::new();
        direct.add(Requirement::any("tensorflow"));
        assert!(env.pin_requirements(&direct).is_err());
    }

    #[test]
    fn user_environment_is_large() {
        let ix = PackageIndex::builtin();
        let env = user_environment(&ix).unwrap();
        // The bloated base env dwarfs a minimal numpy env.
        let minimal = env_for(&["numpy"]);
        assert!(env.total_bytes() > 4 * minimal.total_bytes());
        assert!(env.dist_count() > 30);
    }
}
