//! # lfm-pyenv — Python environment substrate for LFM
//!
//! This crate stands in for the CPython + PyPI/Conda ecosystem in the LFM
//! reproduction (Shaffer et al., IPDPS 2021, §V "Distributing Python
//! Environments"):
//!
//! * [`lexer`] / [`parser`] / [`ast`] — a mini-Python subset front-end, rich
//!   enough to express real Parsl application functions.
//! * [`analyze`] — static dependency analysis: find every import in a code
//!   fragment and reduce it to top-level modules (§V-B).
//! * [`index`] — a synthetic package index seeded with the paper's package
//!   set (sizes, file counts, dependency edges).
//! * [`requirements`] / [`resolve`] — requirement lists and a deterministic
//!   backtracking version resolver.
//! * [`environment`] — installed environments with module→distribution maps.
//! * [`pack`] — relocatable environment archives (the `conda-pack`
//!   equivalent, §V-C/D).
//! * [`pickle`] — function argument/result serialization.
//! * [`source`] — synthetic source generation for benchmarks and workloads.
//!
//! Nothing here executes Python: the paper needs only the static analysis
//! of a function's source (§V-B).
//!
//! The typical pipeline, end to end:
//!
//! ```
//! use lfm_pyenv::prelude::*;
//!
//! // 1. A user writes a Parsl function.
//! let src = "
//! @python_app
//! def f(x):
//!     import numpy as np
//!     return np.sum(x)
//! ";
//! // 2. Static analysis finds its imports.
//! let analysis = analyze_source(src).unwrap();
//! // 3. Imports map to distributions, producing a minimal requirement set.
//! let index = PackageIndex::builtin();
//! let reqs = RequirementSet::from_analysis(&analysis, &index).unwrap();
//! // 4. The resolver pins the transitive closure.
//! let resolution = resolve(&index, &reqs).unwrap();
//! // 5. An environment is built and packed for distribution to workers.
//! let env = Environment::from_resolution("f-env", "/tmp/envs/f", &index, &resolution).unwrap();
//! let packed = PackedEnv::pack(&env);
//! assert!(packed.archive_bytes() > 0);
//! // 6. Workers unpack onto node-local storage.
//! let local = packed.unpack("/scratch/node07/envs/f").unwrap();
//! assert_eq!(local.dist_for_module("numpy"), Some("numpy"));
//! ```

pub mod analyze;
pub mod ast;
pub mod environment;
pub mod error;
pub mod index;
pub mod lexer;
pub mod pack;
pub mod parser;
pub mod pickle;
#[cfg(test)]
mod proptests;
pub mod requirements;
pub mod resolve;
pub mod source;
#[cfg(test)]
mod unparse;
pub mod version;

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::analyze::{analyze_function, analyze_source, Analysis};
    pub use crate::environment::{user_environment, Environment};
    pub use crate::error::{PyEnvError, Result as PyEnvResult};
    pub use crate::index::{DistRelease, PackageIndex};
    pub use crate::pack::PackedEnv;
    pub use crate::parser::parse_module;
    pub use crate::pickle::PyValue;
    pub use crate::requirements::{Requirement, RequirementSet};
    pub use crate::resolve::{resolve, resolve_with_stats, Resolution};
    pub use crate::version::{Version, VersionReq};
}
