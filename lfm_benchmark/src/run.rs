//! One measuring process: a workload, a seed, a duration.
//!
//! `--trace 0` repeats the workload untraced and reports every end-to-end
//! metric; `--trace 1` makes one traced pass plus the per-layer replays
//! and reports every per-layer metric. The last line of standard output
//! is the result object the contract names.

use crate::json::{obj, str, Value};
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, peak_rss_mb};
use crate::trace::Tracer;
use crate::workloads::{
    self, batch_as_one_shard, dag_chaos_inputs, DagVariant, Inputs, Outcome, Workload, BATCH_TASKS,
    BATCH_WORKERS,
};
use std::path::Path;
use std::time::Instant;

/// Timed repetitions a `--trace 0` run never goes below.
const MIN_REPS: usize = 5;
/// A stop for workloads a later change makes very fast.
const MAX_REPS: usize = 200;
/// Pairs of (untraced, traced) passes a `--trace 1` run makes.
const TRACE_PAIRS: usize = 3;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<std::path::PathBuf>,
}

struct Rep {
    setup_s: f64,
    wall_s: f64,
    outcome: Outcome,
}

/// Build the inputs, run the product over them, check the outputs.
/// `setup_s` covers the build, `wall_s` the run up to the returned report.
/// Inputs that take microseconds to build are built `builds` times and the
/// time divided: a single build is too short to time steadily.
fn repetition(builds: u32, build: impl Fn() -> Inputs) -> Result<Rep, String> {
    let t = Instant::now();
    for _ in 1..builds {
        drop(build());
    }
    let inputs = build();
    let setup_s = t.elapsed().as_secs_f64() / f64::from(builds);
    let t = Instant::now();
    let report = workloads::run(inputs);
    let wall_s = t.elapsed().as_secs_f64();
    let outcome = workloads::evaluate(&report)?;
    Ok(Rep {
        setup_s,
        wall_s,
        outcome,
    })
}

/// Repetitions of one seed must agree on every simulated statistic.
fn same_outcome(first: &Outcome, rep: &Outcome, n: usize) -> Result<(), String> {
    if first.same_simulation(rep) {
        Ok(())
    } else {
        Err(format!(
            "repetition {n} differs from the first: sim_digest {:016x} against {:016x}",
            rep.digest, first.digest
        ))
    }
}

/// What a run hands to its caller and prints as its last line.
pub struct RunResult {
    /// Host seconds of each untraced repetition, in order.
    pub walls: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub reps: usize,
    /// `(name, value)` for every metric of the mode, in table order.
    pub metrics: Vec<(&'static str, f64)>,
}

fn end_to_end(args: &RunArgs) -> Result<RunResult, String> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    while reps.len() < MAX_REPS && (reps.len() < MIN_REPS || measured < args.seconds) {
        let rep = repetition(args.workload.setup_builds(), || {
            workloads::build(args.workload, args.seed, 1)
        })?;
        if let Some(first) = reps.first() {
            same_outcome(&first.outcome, &rep.outcome, reps.len() + 1)?;
        }
        measured += rep.setup_s + rep.wall_s;
        reps.push(rep);
    }
    let o = &reps[0].outcome;
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let value = |name: &str| match name {
        "wall_s" => median(&walls),
        "setup_s" => median(&setups),
        "peak_rss_mb" => peak_rss_mb(),
        "sim_mean_s" => o.sim_mean_s,
        "sim_p99_s" => o.sim_p99_s,
        "sim_goodput_per_s" => o.sim_ops as f64 / o.sim_span_s,
        "success_fraction" => o.sim_ops as f64 / o.attempted as f64,
        "sim_ops" => o.sim_ops as f64,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    Ok(RunResult {
        walls: walls.clone(),
        attempted: o.attempted,
        failed: o.failed,
        digest: o.digest,
        reps: reps.len(),
        metrics: END_TO_END.iter().map(|m| (m.name, value(m.name))).collect(),
    })
}

/// One untimed-by-the-caller run of a chaos-workload variant: host seconds.
fn dag_variant_wall(seed: u64, variant: DagVariant) -> Result<f64, String> {
    Ok(repetition(1, || dag_chaos_inputs(seed, 1, variant))?.wall_s)
}

/// The value of `name` in a metric list; 0 when absent.
fn value_of(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// The untraced reference of a traced run, as the replays need it.
struct Reference<'a> {
    outcome: &'a Outcome,
    /// Median wall and set-up of the untraced passes.
    wall_s: f64,
    setup_s: f64,
    /// Median wall of the traced passes.
    traced_wall_s: f64,
}

/// The replays and ratios that belong to `w`, by per-layer metric name.
fn layer_metrics(
    tracer: &mut Tracer,
    w: Workload,
    seed: u64,
    r: &Reference,
) -> Result<layers::Metrics, String> {
    let mut m: layers::Metrics = r.outcome.counts.clone();
    m.extend(r.outcome.host.iter().copied());
    let per_op_us = r.wall_s * 1e6 / r.outcome.attempted as f64;
    match w {
        Workload::MasterBatch => {
            let one_shard = repetition(1, || batch_as_one_shard(seed))?.outcome;
            let sim = |o: &Outcome| (o.sim_mean_s, o.sim_p99_s, o.sim_span_s);
            if sim(&one_shard) != sim(r.outcome) {
                return Err("a one-shard federation no longer equals the single master".into());
            }
            let events = value_of(&one_shard.counts, "workqueue.federation.events_total") as u64;
            m.push(("workqueue.master.wall_us_per_task", per_op_us));
            m.extend(layers::master_batch_layers(
                seed,
                BATCH_TASKS,
                BATCH_WORKERS,
                r.wall_s,
                events,
            ));
        }
        Workload::MasterDagChaos => {
            m.push(("workqueue.master.wall_us_per_task", per_op_us));
            let without_telemetry = dag_variant_wall(
                seed,
                DagVariant {
                    telemetry: false,
                    ..DagVariant::FULL
                },
            )?;
            m.push((
                "telemetry.overhead_share",
                (r.wall_s - without_telemetry) / r.wall_s,
            ));
            // Journal cost on a crash-free run: identical simulation with
            // and without the write-ahead log.
            let quiet = DagVariant {
                crashes: false,
                journal: true,
                telemetry: false,
            };
            let journaled = dag_variant_wall(seed, quiet)?;
            let plain = dag_variant_wall(
                seed,
                DagVariant {
                    journal: false,
                    ..quiet
                },
            )?;
            m.push(("workqueue.journal.overhead_s", journaled - plain));
            m.push((
                "workqueue.journal.overhead_share",
                (journaled - plain) / journaled,
            ));
            m.extend(layers::telemetry_layer());
            m.extend(layers::environment_layers(
                workloads::derive_seed(seed, 3),
                workloads::DAG_BATCHES,
            ));
        }
        Workload::Federation8Shard => {
            m.push(("workqueue.master.wall_us_per_task", per_op_us));
            // Shard stepping is the product's own host timing of the last
            // traced pass, so the overhead is taken against traced walls.
            let shard_step_s = value_of(&r.outcome.host, "workqueue.federation.shard_step_s");
            m.push((
                "workqueue.federation.driver_overhead_s",
                r.traced_wall_s - shard_step_s,
            ));
            m.push((
                "workqueue.federation.driver_overhead_share",
                (r.traced_wall_s - shard_step_s) / r.traced_wall_s,
            ));
        }
        Workload::ServingSteady => {
            m.push(("serving.gateway.wall_us_per_invocation", per_op_us));
            let streaming = layers::streaming_layer(
                tracer,
                seed,
                workloads::SERVING_HORIZON_SECS,
                &workloads::serving_function(),
                workloads::SERVING_WORKERS,
            );
            let direct = value_of(&streaming, "workqueue.streaming.direct_wall_s");
            m.push(("serving.gateway.over_streaming_s", r.wall_s - direct));
            m.extend(streaming);
            m.extend(layers::serving_micro(
                workloads::derive_seed(seed, 40),
                workloads::SERVING_WORKERS,
            ));
        }
        Workload::ServingOverload => {
            m.push(("serving.gateway.wall_us_per_invocation", per_op_us));
        }
        Workload::PaperFigs => {
            m.push(("core.experiments.us_per_job", per_op_us));
            m.push(("workloads.build_s", r.setup_s));
            m.extend(layers::core_layers(seed));
        }
    }
    Ok(m)
}

fn traced(args: &RunArgs) -> Result<RunResult, String> {
    let w = args.workload;
    let seed = args.seed;
    // Untraced and traced passes alternate, so drift in the host's speed
    // falls on both sides of `trace_overhead_pct` alike.
    let mut tracer = Tracer::new(w.name());
    let mut untraced: Vec<Rep> = Vec::new();
    let mut outcome = None;
    for _ in 0..TRACE_PAIRS {
        untraced.push(repetition(w.setup_builds(), || {
            workloads::build(w, seed, 1)
        })?);
        let inputs = tracer.span("setup", |_| workloads::build(w, seed, 1));
        let report = tracer.span("run", |_| workloads::run(inputs));
        let traced = tracer.span("check", |_| workloads::evaluate(&report))?;
        same_outcome(&untraced[0].outcome, &traced, untraced.len())?;
        outcome = Some(traced);
    }
    let outcome = outcome.expect("at least one traced pass");
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let reference = Reference {
        outcome: &outcome,
        wall_s: median(&walls),
        setup_s: median(&untraced.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        traced_wall_s: median(&tracer.durations("run")),
    };
    let mut m = tracer.span("report", |tracer| {
        layer_metrics(tracer, w, seed, &reference)
    })?;
    let per_pass = TRACE_PAIRS as f64;
    m.extend([
        ("bench.setup_self_s", tracer.self_secs("setup") / per_pass),
        ("bench.run_self_s", tracer.self_secs("run") / per_pass),
        ("bench.check_self_s", tracer.self_secs("check") / per_pass),
        ("bench.report_self_s", tracer.self_secs("report")),
        (
            "trace_overhead_pct",
            (reference.traced_wall_s - reference.wall_s) / reference.wall_s * 100.0,
        ),
    ]);
    if let Some(path) = &args.trace_out {
        write_validated(path, &tracer.chrome_json())?;
    }
    for (name, _) in &m {
        assert!(
            PER_LAYER.iter().any(|p| p.name == *name),
            "{name} is not in the per-layer table"
        );
    }
    Ok(RunResult {
        walls,
        attempted: outcome.attempted,
        failed: outcome.failed,
        digest: outcome.digest,
        reps: 2 * TRACE_PAIRS,
        metrics: PER_LAYER
            .iter()
            .map(|p| (p.name, value_of(&m, p.name)))
            .collect(),
    })
}

/// Write `text` to `path` once it passes the repository's JSON validator.
pub fn write_validated(path: &Path, text: &str) -> Result<(), String> {
    lfm_core::telemetry::export::validate_json(text)
        .map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn unit_and_clock(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.clock))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.clock)))
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, clock)| (unit, clock.name()))
        .expect("every reported metric is in a table")
}

/// The contract's result object.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, v)| {
            (
                name.to_string(),
                obj([
                    ("value", Value::Num(*v)),
                    ("unit", str(unit_and_clock(name).0)),
                ]),
            )
        })
        .collect();
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .to_json()
}

/// Run, print every metric by name with unit and clock, then the result
/// line. Returns whether the outputs were correct.
pub fn run(args: &RunArgs) -> bool {
    let name = args.workload.name();
    let result = if args.trace {
        traced(args)
    } else {
        end_to_end(args)
    };
    match result {
        Ok(r) => {
            println!(
                "workload {name} seed {} reps {} threads {}",
                args.seed,
                r.reps,
                std::thread::available_parallelism().map_or(1, usize::from)
            );
            println!("sim_digest {:016x}", r.digest);
            println!("{name} untraced repetitions wall_s {:?}", r.walls);
            for (metric, v) in &r.metrics {
                let (unit, clock) = unit_and_clock(metric);
                println!("{name} {metric} {v} {unit} {clock}");
            }
            println!("{}", result_line(true, r.attempted, r.failed, &r.metrics));
            true
        }
        Err(e) => {
            eprintln!("{name}: output check failed: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
            false
        }
    }
}
