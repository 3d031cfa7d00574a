//! End-to-end integration: user source → analysis → environment → packed
//! archive → scheduled batch → resource reports, across every crate.

use lfm_core::prelude::*;

const SOURCE: &str = r#"
@python_app
def screen(smiles, model_path):
    import numpy as np
    from rdkit import Chem
    from tensorflow.keras.models import load_model
    mol = Chem.MolFromSmiles(smiles)
    fp = np.array(Chem.RDKFingerprint(mol))
    return float(load_model(model_path).predict(fp)[0][0])
"#;

fn build_env_file() -> (FileRef, Resolution) {
    let analysis = analyze_source(SOURCE).expect("parses");
    let index = PackageIndex::builtin();
    let reqs = RequirementSet::from_analysis(&analysis, &index).expect("all deps known");
    let resolution = resolve(&index, &reqs).expect("resolvable");
    let env = Environment::from_resolution("screen", "/envs/screen", &index, &resolution)
        .expect("builds");
    let packed = PackedEnv::pack(&env);
    // Round-trip the archive through bytes, as the wire transfer would.
    let packed = PackedEnv::from_bytes(&packed.to_bytes()).expect("archive intact");
    let file = FileRef::environment(
        "screen-env.tar.gz",
        packed.archive_bytes(),
        packed.installed_bytes(),
        packed.file_count(),
        packed.relocation_ops("/scratch"),
    );
    (file, resolution)
}

#[test]
fn source_to_schedule_to_reports() {
    let (env_file, resolution) = build_env_file();
    // The minimal env must contain exactly what the function needs.
    assert!(resolution.version_of("numpy").is_some());
    assert!(resolution.version_of("rdkit").is_some());
    assert!(resolution.version_of("tensorflow").is_some());
    assert!(
        resolution.version_of("pandas").is_none(),
        "unneeded package escaped minimality"
    );

    let tasks: Vec<TaskSpec> = (0..50)
        .map(|i| {
            TaskSpec::new(
                TaskId(i),
                "screen",
                vec![
                    env_file.clone(),
                    FileRef::data(format!("smiles-{i}"), 64 << 10),
                ],
                4 << 10,
                SimTaskProfile::new(20.0, 1.0, 900, 512),
            )
        })
        .collect();
    let report = run_workload(
        &MasterConfig::new(Strategy::Auto(AutoConfig::default())),
        tasks,
        4,
        NodeSpec::new(8, 16 * 1024, 32 * 1024),
    );
    assert_eq!(report.task_count, 50);
    assert_eq!(report.abandoned_tasks, 0);
    let successes = report
        .results
        .iter()
        .filter(|r| r.outcome.is_success())
        .count();
    assert_eq!(successes, 50);
    // Every successful attempt carries a usable resource report.
    for r in &report.results {
        if r.outcome.is_success() {
            let rep = r.outcome.report();
            assert!(rep.wall_secs > 0.0);
            assert!(rep.peak_rss_mb > 0);
            assert!(
                rep.monitor_overhead_secs < rep.wall_secs / 100.0,
                "monitor not lightweight"
            );
        }
    }
    // The environment transferred once per worker (4 workers).
    assert_eq!(report.cache_misses, 4);
}

#[test]
fn workflow_builder_lowers_whole_pipeline() {
    let index = PackageIndex::builtin();
    let user_env = user_environment(&index).unwrap();
    let mut builder = WqWorkflowBuilder::new(index, user_env);
    let app = App::python("screen", SOURCE, |_| Ok(PyValue::None));
    let first = builder
        .add_invocation(
            &app,
            SimTaskProfile::new(20.0, 1.0, 900, 512),
            vec![],
            0,
            vec![],
        )
        .unwrap();
    let second = builder
        .add_invocation(
            &app,
            SimTaskProfile::new(20.0, 1.0, 900, 512),
            vec![],
            0,
            vec![first],
        )
        .unwrap();
    assert_ne!(first, second);
    let plan = builder.plans()[0].clone();
    assert!(plan.resolved_dists >= 4);
    let tasks = builder.build();
    let report = run_workload(
        &MasterConfig::new(Strategy::Unmanaged),
        tasks,
        2,
        NodeSpec::new(8, 16 * 1024, 32 * 1024),
    );
    assert_eq!(report.abandoned_tasks, 0);
}
