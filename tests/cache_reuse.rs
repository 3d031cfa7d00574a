//! Repeated environment setup is paid for once per process: across a sweep,
//! every point rebuilds the same user environment and the same per-app
//! environments, so only the first build may analyse a source, run the
//! solver or pack an archive. Later builds are served by the environment
//! memo and never reach the resolve and pack caches underneath it.
//!
//! Kept as the sole test in this binary so the global-cache counters are
//! not perturbed by concurrent tests.

use lfm_core::dataflow::lowering::{env_memo, EnvPlan, WqWorkflowBuilder};
use lfm_core::pyenv::environment::user_environment;
use lfm_core::pyenv::index::{DistRelease, PackageIndex};
use lfm_core::pyenv::pack::global_pack_cache;
use lfm_core::pyenv::resolve::global_cache;
use lfm_core::workloads::common::sim_app;
use lfm_core::workloads::{drug, hep};

/// The HEP workload's three apps: preprocess, process, postprocess.
const HEP_SOURCES: u64 = 3;

#[test]
fn repeated_workload_builds_hit_resolve_and_pack_caches() {
    // First build pays: it populates the caches (user env + HEP app envs).
    let first = hep::build(8, 1);
    let after_first = global_cache().stats();
    assert!(
        after_first.misses > 0,
        "first build must populate the resolve cache"
    );
    assert!(
        after_first.solver_candidates_tried > 0,
        "first build must run the real solver"
    );
    let packs_after_first = global_pack_cache().len();
    assert!(
        packs_after_first > 0,
        "first build must populate the pack cache"
    );
    let memo_after_first = env_memo().stats();
    assert_eq!(
        (memo_after_first.misses, memo_after_first.hits),
        (HEP_SOURCES, 0),
        "first build analyses each of its sources once"
    );

    // Second identical build: zero solver work, zero packs, zero analyses —
    // it is answered above the leaf caches and never reaches them.
    let pack_hits_after_first = global_pack_cache().hits();
    let second = hep::build(8, 1);
    assert_eq!(
        global_cache().stats(),
        after_first,
        "second build must not reach the resolve cache, let alone the solver"
    );
    assert_eq!(
        (global_pack_cache().len(), global_pack_cache().hits()),
        (packs_after_first, pack_hits_after_first),
        "second build must not reach the pack cache, let alone pack"
    );
    assert_eq!(
        env_memo().stats().misses,
        HEP_SOURCES,
        "second build must not analyse a source"
    );
    assert_eq!(env_memo().stats().hits, HEP_SOURCES);
    assert_eq!(first.tasks, second.tasks);

    // A hundred more, at other sizes and seeds: still one analysis per
    // source, and still nothing underneath is touched.
    for i in 0..100 {
        hep::build(5 + i % 7, i);
    }
    let memo = env_memo().stats();
    assert_eq!(
        (memo.misses, memo.hits),
        (HEP_SOURCES, 101 * HEP_SOURCES),
        "102 builds analyse each source once"
    );
    assert_eq!(global_cache().stats(), after_first);

    // A builder over an index with one more release is never served the
    // builtin's entry: it misses, analyses again, and — the release being
    // in the app's closure — its plan shows it.
    let app = sim_app("hep_process", hep::analysis_source());
    let plan_of = |index: PackageIndex| -> EnvPlan {
        let user_env = user_environment(&index).unwrap();
        let mut b = WqWorkflowBuilder::new(index, user_env);
        b.prepare_environment(&app).unwrap();
        b.plans()[0].clone()
    };
    let builtin_plan = plan_of(PackageIndex::builtin());
    assert_eq!(
        env_memo().stats().misses,
        HEP_SOURCES,
        "an equal index built apart shares the builtin's entries"
    );
    const HEAVIER: u64 = 36 << 20;
    let mut grown = PackageIndex::builtin();
    let newest = grown.latest("uproot").unwrap().clone();
    grown.add(DistRelease {
        version: "3.12.0".parse().unwrap(),
        size_bytes: newest.size_bytes + HEAVIER,
        ..newest
    });
    let hits_before = env_memo().stats().hits;
    let grown_plan = plan_of(grown);
    let memo = env_memo().stats();
    assert_eq!(
        (memo.misses, memo.hits),
        (HEP_SOURCES + 1, hits_before),
        "a mutated index must miss"
    );
    assert_eq!(
        grown_plan.installed_bytes,
        builtin_plan.installed_bytes + HEAVIER,
        "the plan must reflect the added release"
    );
    assert_eq!(grown_plan.resolved_dists, builtin_plan.resolved_dists);

    // A different application resolves different requirement sets: misses
    // grow, but previously cached entries still serve.
    let after_hep = global_cache().stats();
    let _ = drug::build(2, 3);
    let after_drug = global_cache().stats();
    assert!(after_drug.misses > after_hep.misses || after_drug.hits > after_hep.hits);
}
