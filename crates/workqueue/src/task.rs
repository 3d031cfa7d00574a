//! Tasks: the unit the master schedules.

use crate::files::FileRef;
use lfm_monitor::report::MonitorOutcome;
use lfm_monitor::sim::SimTaskProfile;
use lfm_simcluster::node::Resources;
use lfm_simcluster::time::SimTime;
use serde::{Deserialize, Serialize};

/// Task identifier, unique within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A schedulable task: category, file set, and its *true* behaviour profile
/// (what the simulated monitor observes when the task runs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    pub id: TaskId,
    /// Category for resource labeling: tasks of the same category share an
    /// allocation model ("function name" in the paper).
    pub category: String,
    pub inputs: Vec<FileRef>,
    /// Output size transferred back to the master.
    pub output_bytes: u64,
    /// The true resource behaviour.
    pub profile: SimTaskProfile,
    /// Tasks that must complete before this one becomes ready (the dataflow
    /// DAG, lowered from futures by the Parsl layer).
    pub deps: Vec<TaskId>,
}

impl TaskSpec {
    /// A dependency-free task.
    pub fn new(
        id: TaskId,
        category: impl Into<String>,
        inputs: Vec<FileRef>,
        output_bytes: u64,
        profile: SimTaskProfile,
    ) -> Self {
        TaskSpec {
            id,
            category: category.into(),
            inputs,
            output_bytes,
            profile,
            deps: Vec::new(),
        }
    }

    /// Add dependencies.
    pub fn after(mut self, deps: Vec<TaskId>) -> Self {
        self.deps = deps;
        self
    }
}

impl TaskSpec {
    /// Peak resources the task truly uses (what an Oracle would request).
    pub fn true_peak(&self) -> Resources {
        Resources::new(
            self.profile.cores_used.ceil() as u32,
            self.profile.peak_memory_mb,
            self.profile.peak_disk_mb,
        )
    }
}

/// One attempt's outcome, as recorded by the master.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskResult {
    pub task: TaskId,
    pub category: String,
    pub worker: u32,
    /// Resources the attempt was granted.
    pub allocated: Resources,
    pub submitted_at: SimTime,
    pub started_at: SimTime,
    pub finished_at: SimTime,
    /// Stage-in seconds (env + data transfer, unpack).
    pub stage_in_secs: f64,
    /// Execution seconds (until completion or kill).
    pub exec_secs: f64,
    pub outcome: MonitorOutcome,
    /// Which attempt this was (0 = first).
    pub attempt: u32,
}

impl TaskResult {
    /// Core-seconds this attempt held allocated.
    pub(crate) fn allocated_core_secs(&self) -> f64 {
        self.allocated.cores as f64 * (self.finished_at - self.started_at)
    }

    /// Core-seconds actually used (CPU time).
    pub(crate) fn used_core_secs(&self) -> f64 {
        self.outcome.report().cpu_secs
    }

    /// Memory·seconds held vs used, for waste accounting.
    #[cfg(test)]
    pub(crate) fn allocated_mb_secs(&self) -> f64 {
        self.allocated.memory_mb as f64 * (self.finished_at - self.started_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfm_monitor::report::ResourceReport;

    #[test]
    fn true_peak_rounds_cores_up() {
        let t = TaskSpec::new(
            TaskId(1),
            "hep",
            vec![],
            0,
            SimTaskProfile::new(60.0, 1.4, 110, 1024),
        );
        assert_eq!(t.true_peak(), Resources::new(2, 110, 1024));
    }

    #[test]
    fn waste_accounting() {
        let r = TaskResult {
            task: TaskId(1),
            category: "hep".into(),
            worker: 0,
            allocated: Resources::new(4, 1000, 1000),
            submitted_at: SimTime::ZERO,
            started_at: SimTime::from_secs(10.0),
            finished_at: SimTime::from_secs(70.0),
            stage_in_secs: 5.0,
            exec_secs: 55.0,
            outcome: MonitorOutcome::Completed(ResourceReport {
                cpu_secs: 55.0,
                ..Default::default()
            }),
            attempt: 0,
        };
        assert_eq!(r.allocated_core_secs(), 240.0);
        assert_eq!(r.used_core_secs(), 55.0);
        assert_eq!(r.allocated_mb_secs(), 60_000.0);
    }
}
