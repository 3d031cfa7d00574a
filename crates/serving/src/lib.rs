//! # lfm-serving — a multi-tenant FaaS gateway over the Work Queue master
//!
//! The funcX integration (§VI-C4) is the paper's millions-of-users story:
//! many tenants submitting *continuous streams* of function invocations to
//! a long-running service, not one batch DAG per run. This crate is that
//! serving tier. It reuses the `lfm-funcx` registry and packed-environment
//! containers for function identity and distribution, and drives the
//! `lfm-workqueue` master through its streaming-submission surface
//! ([`lfm_workqueue::streaming::StreamingMaster`]) so invocations arrive
//! while earlier ones execute.
//!
//! * [`tenant`] — tenant identity, weights, priority classes, quotas.
//! * [`arrivals`] — seeded open-loop traffic: Poisson × diurnal × bursts.
//! * [`admission`] — explicit backpressure: quota / depth / shed outcomes
//!   decided at submit time, plus the no-admission baseline.
//! * [`fair`] — stride-scheduled weighted fair share within strict
//!   priority classes.
//! * [`warmpool`] — warm environment instances with TTL + LRU eviction;
//!   cold vs warm activation costs from the funcX container models.
//! * [`gateway`] — the tick loop tying it together: accept → advance
//!   master → collect → dispatch batched task groups; with a journal it
//!   puts its one `GatewayState` through its own codec at every injected
//!   master crash, and without one a crash is the full-restart baseline
//!   (lost work counted, never hidden).
//! * [`control`] — the alert-driven admission loop: SLO burn-rate alert
//!   edges stage per-tenant degradation (depth, quota, warm-pool size)
//!   with cooldown hysteresis.
//! * [`report`] — per-tenant + aggregate accounting over bounded
//!   [`lfm_simcluster::metrics::SparseHistogram`] latency sketches, with
//!   deterministic JSON export.
//!
//! Determinism discipline matches the rest of the stack: every random
//! stream forks from the config seed, every container is ordered, and
//! identical seeds yield byte-identical reports and telemetry traces.

pub mod admission;
pub mod arrivals;
pub mod control;
pub mod fair;
pub mod gateway;
pub mod report;
pub mod tenant;
pub mod warmpool;

pub mod prelude {
    pub use crate::admission::{AdmissionConfig, AdmissionOutcome};
    pub use crate::arrivals::{ArrivalConfig, ArrivalProcess};
    pub use crate::control::{ControlConfig, ControlDecision, ControlPolicy};
    pub use crate::fair::FairScheduler;
    pub use crate::gateway::{ServingConfig, ServingFunction, ServingGateway};
    pub use crate::report::{
        AlertReport, ControlActionReport, LatencyStats, ServingReport, TenantReport,
    };
    pub use crate::tenant::{PriorityClass, RateQuota, TenantConfig, TenantId};
    pub use crate::warmpool::{WarmPool, WarmPoolConfig};
}
