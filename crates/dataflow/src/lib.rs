//! # lfm-dataflow — the Parsl-equivalent dataflow layer
//!
//! Implements the paper's parallel-framework tier (§III) as far as the
//! figures need it: decorated apps whose mini-Python source is analyzed
//! statically (§V-B), and the lowering that turns app invocations into
//! Work Queue tasks with per-function packed environments. The lowered
//! tasks run in the cluster simulator, not on this host.
//!
//! * [`app`] — apps: mini-Python source (for dependency analysis) + native
//!   implementation.
//! * [`lowering`] — the Parsl→WorkQueue executor: analyze → resolve → pack →
//!   attach env as cacheable input → emit [`lfm_workqueue::task::TaskSpec`]s.

pub mod app;
pub mod lowering;

pub mod prelude {
    pub use crate::app::App;
    pub use crate::lowering::{EnvPlan, WqWorkflowBuilder};
}
