//! Shared workload scaffolding.

use lfm_dataflow::app::App;
use lfm_dataflow::lowering::WqWorkflowBuilder;
use lfm_pyenv::environment::user_environment_cached;
use lfm_pyenv::index::PackageIndex;
use lfm_pyenv::pickle::PyValue;
use lfm_simcluster::node::Resources;
use lfm_workqueue::allocate::Strategy;
use std::collections::BTreeMap;

/// A fully-described workload: tasks plus the strategy inputs the
/// evaluation compares.
pub struct Workload {
    /// Human name (figure caption).
    pub name: &'static str,
    /// The lowered task list.
    pub tasks: Vec<lfm_workqueue::task::TaskSpec>,
    /// Per-category true peaks for the Oracle strategy.
    pub oracle: BTreeMap<String, Resources>,
    /// The paper's Guess configuration for this application.
    pub guess: Resources,
}

impl Workload {
    pub fn oracle_strategy(&self) -> Strategy {
        Strategy::Oracle(self.oracle.clone())
    }

    pub fn guess_strategy(&self) -> Strategy {
        Strategy::Guess(self.guess)
    }
}

/// A builder primed with the builtin index and the kitchen-sink user env —
/// the starting state of every experiment. Both are process-wide shared
/// values: only the first call builds the index and pays the solver.
pub fn workflow_builder() -> WqWorkflowBuilder {
    let index = PackageIndex::builtin_shared();
    let env = user_environment_cached(&index).expect("builtin user environment resolves");
    WqWorkflowBuilder::new(index, env)
}

/// A python app whose native implementation is a no-op (behaviour in the
/// simulator comes from the task profile, not the function body).
pub fn sim_app(name: &str, source: &str) -> App {
    App::python(name, source, |_| Ok(PyValue::None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_app_compose() {
        let mut b = workflow_builder();
        let app = sim_app("t", "def t(x):\n    import numpy\n    return x\n");
        let f = b.prepare_environment(&app).unwrap();
        assert!(f.size_bytes > 0);
    }
}
