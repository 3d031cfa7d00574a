//! # lfm-core — the Lightweight Function Monitor stack, assembled
//!
//! Facade over the full reproduction of *"Lightweight Function Monitors for
//! Fine-Grained Management in Large Scale Python Applications"* (Shaffer et
//! al., IPDPS 2021):
//!
//! | layer | crate |
//! |---|---|
//! | mini-Python + packages + envs + packing | `lfm-pyenv` |
//! | cluster/filesystem/network simulation | `lfm-simcluster` |
//! | the function monitor itself | `lfm-monitor` |
//! | master/worker scheduling + auto labeling | `lfm-workqueue` |
//! | Parsl-style dataflow + executor lowering | `lfm-dataflow` |
//! | FaaS layer + container cost models | `lfm-funcx` |
//! | multi-tenant serving gateway | `lfm-serving` |
//! | the four evaluation applications | `lfm-workloads` |
//!
//! This crate adds:
//! * [`experiments`] — one module per paper table/figure, each producing
//!   the data one `paper` subcommand prints (`src/bin/paper.rs`);
//! * [`planner`] — environment-distribution planning (direct shared-FS vs.
//!   packed transfer);
//! * [`render`] — text-table rendering for `paper`.
//!
//! ## Quickstart
//!
//! ```
//! use lfm_core::prelude::*;
//!
//! // Analyze a function, build its minimal environment, and pack it.
//! let analysis = analyze_source(
//!     "def f(x):\n    import numpy\n    return x\n").unwrap();
//! let index = PackageIndex::builtin();
//! let reqs = RequirementSet::from_analysis(&analysis, &index).unwrap();
//! let resolution = resolve(&index, &reqs).unwrap();
//! assert!(resolution.version_of("numpy").is_some());
//! ```

pub mod experiments;
pub mod parallel;
pub mod planner;
pub mod render;

pub use lfm_dataflow as dataflow;
pub use lfm_funcx as funcx;
pub use lfm_monitor as monitor;
pub use lfm_pyenv as pyenv;
pub use lfm_serving as serving;
pub use lfm_simcluster as simcluster;
pub use lfm_telemetry as telemetry;
pub use lfm_workloads as workloads;
pub use lfm_workqueue as workqueue;

/// Everything a downstream user typically needs.
pub mod prelude {
    pub use crate::planner::{plan, PlanEstimate};
    pub use crate::render::{fmt_bytes, fmt_secs, render_table};
    pub use lfm_dataflow::prelude::*;
    pub use lfm_funcx::prelude::*;
    pub use lfm_monitor::prelude::*;
    pub use lfm_pyenv::prelude::*;
    pub use lfm_serving::prelude::*;
    pub use lfm_simcluster::prelude::*;
    pub use lfm_workloads::prelude::*;
    pub use lfm_workqueue::prelude::*;
}
