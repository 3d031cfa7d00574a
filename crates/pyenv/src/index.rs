//! Synthetic package index (the stand-in for PyPI/Conda channels).
//!
//! Each distribution release records the facts the paper's evaluation
//! depends on: payload size, file count (which drives shared-filesystem
//! metadata load), dependency edges, and the import names it provides
//! (e.g. the `scikit-learn` distribution provides the `sklearn` module).
//!
//! [`PackageIndex::builtin`] seeds the ecosystem used throughout the repo:
//! the interpreter, the Table II package set (NumPy + five high-download
//! SCIENTIFIC/ENGINEERING packages + TensorFlow/MXNet), and the three
//! application stacks (HEP/Coffea, drug screening, GDC genomics).

use crate::error::{PyEnvError, Result};
use crate::version::{Version, VersionReq};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// A single release of a distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistRelease {
    /// Distribution name as it appears in requirement files.
    pub name: String,
    pub version: Version,
    /// Installed payload size in bytes.
    pub size_bytes: u64,
    /// Number of files the installed distribution contains. Shared-FS import
    /// cost scales with this (metadata operations per import).
    pub file_count: u32,
    /// Direct dependencies.
    pub deps: Vec<(String, VersionReq)>,
    /// Import names this distribution provides (first entry is canonical).
    pub modules: Vec<String>,
    /// True when the payload includes native shared libraries (affects
    /// relocation work during unpack, per conda-pack's prefix rewriting).
    pub has_native_libs: bool,
}

impl DistRelease {
    /// Key used in maps and resolutions.
    pub fn key(&self) -> (String, Version) {
        (self.name.clone(), self.version)
    }
}

/// An in-memory package index mapping distribution names to their releases.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PackageIndex {
    /// name → releases sorted by ascending version.
    releases: BTreeMap<String, Vec<DistRelease>>,
    /// import module name → distribution name.
    module_map: BTreeMap<String, String>,
    /// [`fingerprint`](PackageIndex::fingerprint), once computed; `add`
    /// empties it. A clone carries the value along with the contents.
    fingerprint: OnceLock<u64>,
}

impl PackageIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a release. Keeps the per-name list sorted by version.
    pub fn add(&mut self, release: DistRelease) {
        self.fingerprint.take();
        for m in &release.modules {
            self.module_map.insert(m.clone(), release.name.clone());
        }
        let list = self.releases.entry(release.name.clone()).or_default();
        let pos = list.partition_point(|r| r.version < release.version);
        list.insert(pos, release);
    }

    /// All releases of `name`, ascending by version.
    pub fn releases(&self, name: &str) -> &[DistRelease] {
        self.releases.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every distribution name in the index.
    pub fn dist_names(&self) -> impl Iterator<Item = &str> {
        self.releases.keys().map(String::as_str)
    }

    /// The newest release of `name`.
    pub fn latest(&self, name: &str) -> Option<&DistRelease> {
        self.releases(name).last()
    }

    /// The newest release of `name` satisfying `req`.
    pub fn latest_matching(&self, name: &str, req: &VersionReq) -> Option<&DistRelease> {
        self.releases(name)
            .iter()
            .rev()
            .find(|r| req.matches(r.version))
    }

    /// A specific release.
    pub fn get(&self, name: &str, version: Version) -> Option<&DistRelease> {
        self.releases(name).iter().find(|r| r.version == version)
    }

    /// A content fingerprint over every release's identity and dependency
    /// edges. Part of every cache key derived from an index, so a mutated
    /// index (tests add releases with [`PackageIndex::add`], and every `add`
    /// contributes a line) never serves a stale cached entry. Computed once
    /// per index and kept until the next `add`.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = crate::pack::Fnv1a::new();
            for (name, releases) in &self.releases {
                for r in releases {
                    write!(h, "{name}={};{}b{}f", r.version, r.size_bytes, r.file_count)
                        .expect("hashing cannot fail");
                    for (dep, req) in &r.deps {
                        write!(h, ",{dep}{req}").expect("hashing cannot fail");
                    }
                    h.update(b"\n");
                }
            }
            h.finish()
        })
    }

    /// Which distribution provides import name `module`?
    pub fn dist_for_module(&self, module: &str) -> Result<&str> {
        self.module_map
            .get(module)
            .map(String::as_str)
            .ok_or_else(|| PyEnvError::UnknownModule(module.to_string()))
    }

    /// Number of distributions in the transitive dependency closure of the
    /// newest release of `name` (including itself) — the "dependency count"
    /// column of Table II.
    pub fn dependency_count(&self, name: &str) -> Result<usize> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![name.to_string()];
        while let Some(n) = stack.pop() {
            if !seen.insert(n.clone()) {
                continue;
            }
            let rel = self
                .latest(&n)
                .ok_or_else(|| PyEnvError::UnknownDistribution(n.clone()))?;
            for (dep, _) in &rel.deps {
                if !seen.contains(dep) {
                    stack.push(dep.clone());
                }
            }
        }
        Ok(seen.len())
    }

    /// Total installed bytes and file count over the transitive closure of
    /// the newest releases (approximation used for planning; the resolver
    /// computes the exact pinned set).
    pub fn closure_footprint(&self, name: &str) -> Result<(u64, u64)> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![name.to_string()];
        let (mut bytes, mut files) = (0u64, 0u64);
        while let Some(n) = stack.pop() {
            if !seen.insert(n.clone()) {
                continue;
            }
            let rel = self
                .latest(&n)
                .ok_or_else(|| PyEnvError::UnknownDistribution(n.clone()))?;
            bytes += rel.size_bytes;
            files += rel.file_count as u64;
            for (dep, _) in &rel.deps {
                if !seen.contains(dep) {
                    stack.push(dep.clone());
                }
            }
        }
        Ok((bytes, files))
    }

    /// The builtin ecosystem as one process-wide shared value: what every
    /// experiment's workflow builder reads, without rebuilding (or
    /// re-fingerprinting) the index per builder.
    pub fn builtin_shared() -> Arc<PackageIndex> {
        static BUILTIN: OnceLock<Arc<PackageIndex>> = OnceLock::new();
        Arc::clone(BUILTIN.get_or_init(|| Arc::new(PackageIndex::builtin())))
    }

    /// The builtin synthetic ecosystem.
    pub fn builtin() -> Self {
        let mut ix = PackageIndex::new();
        let mb = |m: u64| m * 1024 * 1024;
        let any = VersionReq::any;
        let req = |s: &str| s.parse::<VersionReq>().expect("seed requirement parses");

        let mut add = |name: &str,
                       version: &str,
                       size: u64,
                       files: u32,
                       deps: Vec<(&str, VersionReq)>,
                       modules: Vec<&str>,
                       native: bool| {
            ix.add(DistRelease {
                name: name.to_string(),
                version: version.parse().expect("seed version parses"),
                size_bytes: size,
                file_count: files,
                deps: deps.into_iter().map(|(n, r)| (n.to_string(), r)).collect(),
                modules: modules.into_iter().map(str::to_string).collect(),
                has_native_libs: native,
            });
        };

        // --- Interpreter. The `python` distribution provides the standard
        // library import names used by our workloads.
        let stdlib: Vec<&str> = vec![
            "python",
            "os",
            "sys",
            "math",
            "json",
            "re",
            "time",
            "io",
            "itertools",
            "functools",
            "collections",
            "pickle",
            "importlib",
            "subprocess",
            "multiprocessing",
            "concurrent",
            "pathlib",
            "random",
            "statistics",
            "csv",
            "gzip",
            "hashlib",
            "logging",
            "typing",
            "shutil",
            "tempfile",
            "glob",
            "argparse",
            "base64",
            "struct",
            "socket",
            "threading",
            "queue",
            "warnings",
            "copy",
            "textwrap",
            "string",
            "datetime",
        ];
        for v in ["3.7.4", "3.8.2"] {
            add(
                "python",
                v,
                mb(98),
                4178,
                vec![
                    ("openssl", any()),
                    ("zlib", any()),
                    ("readline", any()),
                    ("sqlite", any()),
                ],
                stdlib.clone(),
                true,
            );
        }
        // Non-Python packages Conda provides alongside the interpreter.
        add("openssl", "1.1.1", mb(4), 42, vec![], vec![], true);
        add("zlib", "1.2.11", mb(1), 12, vec![], vec![], true);
        add("readline", "8.0.0", mb(1), 14, vec![], vec![], true);
        add("sqlite", "3.31.1", mb(4), 11, vec![], vec![], true);
        add("libblas", "3.8.0", mb(11), 18, vec![], vec![], true);
        add("mkl", "2020.0.0", mb(230), 49, vec![], vec![], true);
        add(
            "hdf5",
            "1.10.4",
            mb(12),
            53,
            vec![("zlib", any())],
            vec![],
            true,
        );
        add("libprotobuf", "3.11.4", mb(9), 31, vec![], vec![], true);

        // --- Foundation wheels.
        add(
            "setuptools",
            "46.1.3",
            mb(2),
            320,
            vec![("python", req(">=3.7"))],
            vec!["setuptools", "pkg_resources"],
            false,
        );
        add(
            "wheel",
            "0.34.2",
            mb(1),
            38,
            vec![("python", req(">=3.7"))],
            vec!["wheel"],
            false,
        );
        add(
            "six",
            "1.14.0",
            mb(1),
            8,
            vec![("python", any())],
            vec!["six"],
            false,
        );
        add(
            "certifi",
            "2020.4.5",
            mb(1),
            9,
            vec![("python", any())],
            vec!["certifi"],
            false,
        );
        add(
            "idna",
            "2.9.0",
            mb(1),
            15,
            vec![("python", any())],
            vec!["idna"],
            false,
        );
        add(
            "chardet",
            "3.0.4",
            mb(1),
            40,
            vec![("python", any())],
            vec!["chardet"],
            false,
        );
        add(
            "urllib3",
            "1.25.8",
            mb(1),
            98,
            vec![("python", any()), ("certifi", any())],
            vec!["urllib3"],
            false,
        );
        add(
            "requests",
            "2.23.0",
            mb(1),
            62,
            vec![
                ("python", any()),
                ("urllib3", req(">=1.21")),
                ("idna", any()),
                ("chardet", any()),
                ("certifi", any()),
            ],
            vec!["requests"],
            false,
        );
        add(
            "pytz",
            "2019.3.0",
            mb(2),
            612,
            vec![("python", any())],
            vec!["pytz"],
            false,
        );
        add(
            "python-dateutil",
            "2.8.1",
            mb(1),
            25,
            vec![("python", any()), ("six", req(">=1.5"))],
            vec!["dateutil"],
            false,
        );
        add(
            "pyparsing",
            "2.4.7",
            mb(1),
            11,
            vec![("python", any())],
            vec!["pyparsing"],
            false,
        );
        add(
            "cycler",
            "0.10.0",
            mb(1),
            6,
            vec![("python", any()), ("six", any())],
            vec!["cycler"],
            false,
        );
        add(
            "kiwisolver",
            "1.2.0",
            mb(1),
            7,
            vec![("python", any())],
            vec!["kiwisolver"],
            true,
        );
        add(
            "joblib",
            "0.14.1",
            mb(2),
            210,
            vec![("python", any())],
            vec!["joblib"],
            false,
        );
        add(
            "threadpoolctl",
            "2.0.0",
            mb(1),
            5,
            vec![("python", any())],
            vec!["threadpoolctl"],
            false,
        );
        add(
            "cloudpickle",
            "1.3.0",
            mb(1),
            9,
            vec![("python", any())],
            vec!["cloudpickle"],
            false,
        );
        add(
            "protobuf",
            "3.11.4",
            mb(3),
            77,
            vec![("python", any()), ("six", any()), ("libprotobuf", any())],
            vec!["google"],
            true,
        );
        add(
            "absl-py",
            "0.9.0",
            mb(1),
            102,
            vec![("python", any()), ("six", any())],
            vec!["absl"],
            false,
        );
        add(
            "grpcio",
            "1.27.2",
            mb(7),
            423,
            vec![("python", any()), ("six", any())],
            vec!["grpc"],
            true,
        );
        add(
            "h5py",
            "2.10.0",
            mb(5),
            121,
            vec![
                ("python", any()),
                ("numpy", req(">=1.7")),
                ("hdf5", any()),
                ("six", any()),
            ],
            vec!["h5py"],
            true,
        );
        add(
            "pillow",
            "7.1.2",
            mb(6),
            190,
            vec![("python", any())],
            vec!["PIL"],
            true,
        );
        add(
            "lz4",
            "3.0.2",
            mb(1),
            18,
            vec![("python", any())],
            vec!["lz4"],
            true,
        );
        add(
            "tqdm",
            "4.45.0",
            mb(1),
            64,
            vec![("python", any())],
            vec!["tqdm"],
            false,
        );
        add(
            "psutil",
            "5.7.0",
            mb(2),
            88,
            vec![("python", any())],
            vec!["psutil"],
            true,
        );
        add(
            "llvmlite",
            "0.32.0",
            mb(58),
            90,
            vec![("python", any())],
            vec!["llvmlite"],
            true,
        );

        // --- NumPy: two versions to exercise the resolver.
        for v in ["1.17.4", "1.18.5"] {
            add(
                "numpy",
                v,
                mb(168),
                789,
                vec![("python", req(">=3.7")), ("libblas", any()), ("mkl", any())],
                vec!["numpy"],
                true,
            );
        }
        add(
            "numba",
            "0.49.0",
            mb(12),
            480,
            vec![
                ("python", any()),
                ("numpy", req(">=1.15")),
                ("llvmlite", req(">=0.32")),
            ],
            vec!["numba"],
            true,
        );

        // --- Table II's five SCIENTIFIC/ENGINEERING PyPI picks.
        add(
            "scipy",
            "1.4.1",
            mb(242),
            1432,
            vec![("python", req(">=3.7")), ("numpy", req(">=1.13"))],
            vec!["scipy"],
            true,
        );
        add(
            "pandas",
            "1.0.3",
            mb(219),
            1280,
            vec![
                ("python", req(">=3.7")),
                ("numpy", req(">=1.13")),
                ("pytz", any()),
                ("python-dateutil", req(">=2.6")),
            ],
            vec!["pandas"],
            true,
        );
        add(
            "scikit-learn",
            "0.22.1",
            mb(261),
            1104,
            vec![
                ("python", req(">=3.7")),
                ("numpy", req(">=1.11")),
                ("scipy", req(">=0.17")),
                ("joblib", req(">=0.11")),
                ("threadpoolctl", any()),
            ],
            vec!["sklearn"],
            true,
        );
        add(
            "matplotlib",
            "3.2.1",
            mb(201),
            2113,
            vec![
                ("python", req(">=3.7")),
                ("numpy", req(">=1.11")),
                ("cycler", any()),
                ("kiwisolver", any()),
                ("pyparsing", any()),
                ("python-dateutil", any()),
                ("pillow", any()),
            ],
            vec!["matplotlib", "mpl_toolkits"],
            true,
        );
        add(
            "sympy",
            "1.5.1",
            mb(93),
            2711,
            vec![("python", req(">=3.7")), ("mpmath", any())],
            vec!["sympy"],
            false,
        );
        add(
            "mpmath",
            "1.1.0",
            mb(2),
            180,
            vec![("python", any())],
            vec!["mpmath"],
            false,
        );

        // --- ML frameworks (the heavy hitters of Figures 4/5).
        add(
            "tensorflow",
            "2.1.0",
            mb(1180),
            7648,
            vec![
                ("python", req(">=3.7")),
                ("numpy", req(">=1.16,<2.0")),
                ("six", req(">=1.12")),
                ("protobuf", req(">=3.8")),
                ("absl-py", req(">=0.7")),
                ("grpcio", req(">=1.8")),
                ("h5py", any()),
                ("wheel", any()),
                ("keras", req(">=2.3")),
            ],
            vec!["tensorflow"],
            true,
        );
        add(
            "keras",
            "2.3.1",
            mb(12),
            312,
            vec![
                ("python", any()),
                ("numpy", req(">=1.9")),
                ("six", any()),
                ("h5py", any()),
            ],
            vec!["keras"],
            false,
        );
        add(
            "mxnet",
            "1.6.0",
            mb(912),
            5210,
            vec![
                ("python", req(">=3.7")),
                ("numpy", req(">=1.16,<2.0")),
                ("requests", any()),
                ("graphviz", any()),
            ],
            vec!["mxnet"],
            true,
        );
        add(
            "graphviz",
            "0.13.2",
            mb(1),
            19,
            vec![("python", any())],
            vec!["graphviz"],
            false,
        );

        // --- HEP stack (Coffea).
        add(
            "uproot-methods",
            "0.7.3",
            mb(1),
            34,
            vec![("python", any()), ("numpy", any()), ("awkward", any())],
            vec!["uproot_methods"],
            false,
        );
        add(
            "awkward",
            "0.12.20",
            mb(3),
            61,
            vec![("python", any()), ("numpy", req(">=1.13"))],
            vec!["awkward"],
            false,
        );
        add(
            "uproot",
            "3.11.3",
            mb(4),
            118,
            vec![
                ("python", any()),
                ("numpy", any()),
                ("awkward", any()),
                ("uproot-methods", any()),
                ("lz4", any()),
            ],
            vec!["uproot"],
            false,
        );
        add(
            "coffea",
            "0.6.39",
            mb(9),
            247,
            vec![
                ("python", req(">=3.7")),
                ("numpy", req(">=1.15")),
                ("scipy", req(">=1.1")),
                ("uproot", req(">=3.8")),
                ("awkward", any()),
                ("matplotlib", req(">=3")),
                ("tqdm", any()),
                ("cloudpickle", any()),
            ],
            vec!["coffea"],
            false,
        );

        // --- Drug-screening stack.
        add(
            "rdkit",
            "2019.9.3",
            mb(412),
            2871,
            vec![
                ("python", req(">=3.7")),
                ("numpy", req(">=1.13")),
                ("pillow", any()),
            ],
            vec!["rdkit"],
            true,
        );
        add(
            "openbabel",
            "3.0.0",
            mb(88),
            402,
            vec![("python", any())],
            vec!["openbabel"],
            true,
        );
        add(
            "mordred",
            "1.2.0",
            mb(6),
            391,
            vec![
                ("python", any()),
                ("numpy", any()),
                ("rdkit", any()),
                ("six", any()),
            ],
            vec!["mordred"],
            false,
        );

        // --- Genomics stack (GDC DNA-Seq pipeline tools, Conda-provided).
        add(
            "biopython",
            "1.76.0",
            mb(14),
            1243,
            vec![("python", req(">=3.7")), ("numpy", any())],
            vec!["Bio"],
            true,
        );
        add(
            "pysam",
            "0.15.4",
            mb(21),
            270,
            vec![("python", req(">=3.7")), ("zlib", any())],
            vec!["pysam"],
            true,
        );
        add(
            "bwa",
            "0.7.17",
            mb(2),
            6,
            vec![("zlib", any())],
            vec![],
            true,
        );
        add(
            "samtools",
            "1.9.0",
            mb(5),
            29,
            vec![("zlib", any())],
            vec![],
            true,
        );
        add(
            "gatk4",
            "4.1.4",
            mb(310),
            412,
            vec![("openjdk", any())],
            vec![],
            false,
        );
        add("openjdk", "11.0.6", mb(178), 489, vec![], vec![], true);
        add(
            "ensembl-vep",
            "99.2.0",
            mb(61),
            903,
            vec![("perl", any()), ("samtools", any())],
            vec![],
            false,
        );
        add("perl", "5.26.2", mb(46), 2146, vec![], vec![], true);

        // --- Parallel frameworks themselves (ship with every LFM env).
        add(
            "parsl",
            "0.9.0",
            mb(3),
            214,
            vec![
                ("python", req(">=3.7")),
                ("cloudpickle", any()),
                ("six", any()),
            ],
            vec!["parsl"],
            false,
        );
        add(
            "work-queue",
            "7.1.2",
            mb(6),
            44,
            vec![("python", any())],
            vec!["work_queue", "ndcctools"],
            true,
        );
        add(
            "funcx",
            "0.0.3",
            mb(2),
            87,
            vec![("python", any()), ("requests", any()), ("parsl", any())],
            vec!["funcx"],
            false,
        );

        // --- The three application stacks as meta-distributions (Table II's
        // last three rows).
        add(
            "hep-coffea-app",
            "1.0.0",
            mb(240),
            612,
            vec![
                ("python", req(">=3.7")),
                ("coffea", any()),
                ("uproot", any()),
                ("numpy", any()),
                ("parsl", any()),
                ("work-queue", any()),
            ],
            vec!["hep_app"],
            false,
        );
        add(
            "drug-screen-app",
            "1.0.0",
            mb(105),
            388,
            vec![
                ("python", req(">=3.7")),
                ("rdkit", any()),
                ("openbabel", any()),
                ("mordred", any()),
                ("tensorflow", any()),
                ("pandas", any()),
                ("parsl", any()),
                ("work-queue", any()),
            ],
            vec!["drug_app"],
            false,
        );
        add(
            "gdc-genomic-app",
            "1.0.0",
            mb(152),
            441,
            vec![
                ("python", req(">=3.7")),
                ("biopython", any()),
                ("pysam", any()),
                ("bwa", any()),
                ("samtools", any()),
                ("gatk4", any()),
                ("ensembl-vep", any()),
                ("parsl", any()),
                ("work-queue", any()),
            ],
            vec!["gdc_app"],
            false,
        );

        ix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_index_is_consistent() {
        let ix = PackageIndex::builtin();
        // Every dependency edge points at a distribution that exists.
        for name in ix.dist_names().map(str::to_string).collect::<Vec<_>>() {
            for rel in ix.releases(&name) {
                for (dep, req) in &rel.deps {
                    let found = ix.latest_matching(dep, req);
                    assert!(
                        found.is_some(),
                        "{name} {} depends on {dep} {req} which no release satisfies",
                        rel.version
                    );
                }
            }
        }
    }

    /// `fingerprint` as it was computed before it fed the hash state
    /// incrementally: one string per index, then hashed.
    fn fingerprint_oracle(ix: &PackageIndex) -> u64 {
        let mut acc = String::new();
        for (name, releases) in &ix.releases {
            for r in releases {
                acc.push_str(name);
                acc.push('=');
                acc.push_str(&r.version.to_string());
                acc.push_str(&format!(";{}b{}f", r.size_bytes, r.file_count));
                for (dep, req) in &r.deps {
                    acc.push_str(&format!(",{dep}{req}"));
                }
                acc.push('\n');
            }
        }
        crate::pack::fnv1a(acc.as_bytes())
    }

    #[test]
    fn fingerprint_is_the_string_built_value_and_add_invalidates_it() {
        let mut ix = PackageIndex::builtin();
        let before = ix.fingerprint();
        assert_eq!(before, fingerprint_oracle(&ix));
        assert_eq!(before, PackageIndex::builtin_shared().fingerprint());
        assert_eq!(before, ix.clone().fingerprint(), "a clone keeps it");
        ix.add(DistRelease {
            name: "numpy".to_string(),
            version: "9.0.0".parse().unwrap(),
            size_bytes: 1,
            file_count: 1,
            deps: vec![("python".to_string(), VersionReq::any())],
            modules: vec!["numpy".to_string()],
            has_native_libs: false,
        });
        assert_ne!(ix.fingerprint(), before, "a kept value outlived an add");
        assert_eq!(ix.fingerprint(), fingerprint_oracle(&ix));
    }

    #[test]
    fn module_mapping() {
        let ix = PackageIndex::builtin();
        assert_eq!(ix.dist_for_module("sklearn").unwrap(), "scikit-learn");
        assert_eq!(ix.dist_for_module("PIL").unwrap(), "pillow");
        assert_eq!(ix.dist_for_module("Bio").unwrap(), "biopython");
        assert_eq!(ix.dist_for_module("os").unwrap(), "python");
        assert!(ix.dist_for_module("nonexistent_module_xyz").is_err());
    }

    #[test]
    fn versions_sorted_and_latest() {
        let ix = PackageIndex::builtin();
        let numpy = ix.releases("numpy");
        assert_eq!(numpy.len(), 2);
        assert!(numpy[0].version < numpy[1].version);
        assert_eq!(
            ix.latest("numpy").unwrap().version,
            "1.18.5".parse().unwrap()
        );
    }

    #[test]
    fn latest_matching_respects_req() {
        let ix = PackageIndex::builtin();
        let req: VersionReq = "<1.18".parse().unwrap();
        assert_eq!(
            ix.latest_matching("numpy", &req).unwrap().version,
            "1.17.4".parse().unwrap()
        );
    }

    #[test]
    fn dependency_counts_ordered_as_in_table2() {
        let ix = PackageIndex::builtin();
        let py = ix.dependency_count("python").unwrap();
        let np = ix.dependency_count("numpy").unwrap();
        let tf = ix.dependency_count("tensorflow").unwrap();
        let app = ix.dependency_count("drug-screen-app").unwrap();
        assert!(
            py < np,
            "python ({py}) should have fewer deps than numpy ({np})"
        );
        assert!(
            np < tf,
            "numpy ({np}) should have fewer deps than tensorflow ({tf})"
        );
        assert!(
            tf < app,
            "tensorflow ({tf}) should have fewer deps than the drug app ({app})"
        );
    }

    #[test]
    fn closure_footprint_monotone() {
        let ix = PackageIndex::builtin();
        let (py_b, py_f) = ix.closure_footprint("python").unwrap();
        let (tf_b, tf_f) = ix.closure_footprint("tensorflow").unwrap();
        assert!(tf_b > py_b);
        assert!(tf_f > py_f);
    }

    #[test]
    fn add_keeps_sorted_order() {
        let mut ix = PackageIndex::new();
        for v in ["2.0.0", "1.0.0", "1.5.0"] {
            ix.add(DistRelease {
                name: "pkg".into(),
                version: v.parse().unwrap(),
                size_bytes: 1,
                file_count: 1,
                deps: vec![],
                modules: vec!["pkg".into()],
                has_native_libs: false,
            });
        }
        let vs: Vec<_> = ix
            .releases("pkg")
            .iter()
            .map(|r| r.version.to_string())
            .collect();
        assert_eq!(vs, vec!["1.0.0", "1.5.0", "2.0.0"]);
    }
}
