//! # lfm-workqueue — master/worker task scheduling with LFMs
//!
//! The Work Queue substrate (§III-A, §VI): a master matches tasks to
//! workers by resource vector, stages explicit input/output files with
//! worker-side caching, executes every task inside a (simulated) lightweight
//! function monitor, and learns per-category resource labels with the
//! automatic allocation algorithm of Tovar et al. \[21\].
//!
//! * [`task`] — task specs (category, files, true usage profile) + results.
//! * [`files`] — input/output files; environment packs are cacheable inputs.
//! * [`worker`] — a node plus its file cache.
//! * [`allocate`] — the four strategies: Oracle / Guess / Unmanaged / Auto.
//! * [`faults`] — composable, seedable fault injection ([`faults::FaultPlan`])
//!   and the master's resilience knobs ([`faults::ResilienceConfig`]).
//! * [`sched`] — indexed incremental dispatch state (order keys, park
//!   groups, capacity/file indexes) behind [`sched::SchedImpl`].
//! * [`journal`] — write-ahead journal + compacting snapshots making the
//!   master crash-recoverable ([`journal::DurabilityConfig`]).
//! * [`prepared`] — a workload checked and indexed once
//!   ([`prepared::PreparedWorkload`]), shared by every run over it.
//! * [`master`] — the discrete-event scheduler producing [`master::RunReport`]s.
//! * [`federation`] — the hierarchical foreman layer: N sub-masters over a
//!   partitioned DAG with cross-shard handoff and work stealing.
//! * [`streaming`] — streaming submission into a long-running master
//!   ([`streaming::StreamingMaster`]), the substrate for the serving tier.

pub mod allocate;
pub mod faults;
pub mod federation;
pub mod files;
pub mod journal;
pub mod master;
pub mod prepared;
#[cfg(test)]
mod proptests;
pub mod sched;
#[cfg(test)]
mod sched_equivalence;
pub mod streaming;
pub mod task;
pub mod worker;

pub mod prelude {
    pub use crate::allocate::{AllocationDecision, Allocator, AutoConfig, Strategy};
    pub use crate::faults::{FaultKind, FaultPlan, FaultSpec, ResilienceConfig};
    pub use crate::federation::{
        run_federated, set_default_shards, FederationConfig, FederationReport, PartitionPolicy,
    };
    pub use crate::files::{FileKind, FileRef};
    pub use crate::journal::DurabilityConfig;
    pub use crate::master::{
        run_prepared, run_workload, DistMode, MasterConfig, Provisioning, RunReport,
        SchedulePolicy, StagingConfig,
    };
    pub use crate::prepared::PreparedWorkload;
    pub use crate::sched::SchedImpl;
    pub use crate::streaming::StreamingMaster;
    pub use crate::task::{TaskId, TaskResult, TaskSpec};
}
