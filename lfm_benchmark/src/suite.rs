//! The whole benchmark in one command: a child process per (workload,
//! repetition), one at a time, then one traced child per workload. Clean
//! `VmHWM` per child and no heap state shared across workloads. Prints
//! every metric and writes the results file `--compare` reads.

use crate::json::{self, obj, str, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::write_validated;
use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use std::path::PathBuf;
use std::process::{Command, Stdio};

pub const RESULTS_SCHEMA: &str = "lfm-benchmark-results/1";

pub struct SuiteArgs {
    pub out: PathBuf,
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub only: Option<Workload>,
    pub trace_out: Option<PathBuf>,
}

/// What one child printed: its result object and its `sim_digest` line.
struct Child {
    result: Value,
    digest: String,
}

fn child(workload: Workload, args: &SuiteArgs, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let (true, Some(base)) = (trace, &args.trace_out) {
        let mut path = base.clone().into_os_string();
        path.push(format!(".{}.json", workload.name()));
        cmd.arg("--trace-out").arg(path);
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result =
        json::parse(last).map_err(|e| format!("{}: child result line: {e}", workload.name()))?;
    if !out.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{}: child failed its output checks ({})",
            workload.name(),
            out.status
        ));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .ok_or_else(|| format!("{}: child printed no sim_digest", workload.name()))?
        .to_string();
    Ok(Child { result, digest })
}

fn metric_value(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("child result lacks metric {name}"))
}

fn workload_results(workload: Workload, args: &SuiteArgs) -> Result<Value, String> {
    let name = workload.name();
    let mut children = Vec::new();
    for rep in 0..args.reps {
        eprintln!("[{name}] repetition {}/{}", rep + 1, args.reps);
        let c = child(workload, args, false)?;
        if let Some(first) = children.first() {
            let first: &Child = first;
            if first.digest != c.digest {
                return Err(format!(
                    "{name}: sim_digest {} in repetition {} against {} in the first",
                    c.digest,
                    rep + 1,
                    first.digest
                ));
            }
        }
        children.push(c);
    }
    eprintln!("[{name}] traced pass");
    let traced = child(workload, args, true)?;
    if traced.digest != children[0].digest {
        return Err(format!("{name}: the traced pass changed the sim_digest"));
    }

    let mut end_to_end = Vec::new();
    for m in &END_TO_END {
        let values = children
            .iter()
            .map(|c| metric_value(&c.result, m.name))
            .collect::<Result<Vec<f64>, String>>()?;
        let (q1, q3) = quartiles(&values);
        println!(
            "{name} {} median {} q1 {q1} q3 {q3} n {} {} {} bound {}",
            m.name,
            median(&values),
            values.len(),
            m.unit,
            m.clock.name(),
            m.bound
        );
        end_to_end.push(obj([
            ("name", str(m.name)),
            ("unit", str(m.unit)),
            ("clock", str(m.clock.name())),
            ("better", str(m.better.name())),
            ("bound", Value::Num(m.bound)),
            ("floor", Value::Num(m.floor)),
            ("n", Value::Num(values.len() as f64)),
            ("median", Value::Num(median(&values))),
            ("q1", Value::Num(q1)),
            ("q3", Value::Num(q3)),
            (
                "values",
                Value::Arr(values.into_iter().map(Value::Num).collect()),
            ),
        ]));
    }
    let mut per_layer = Vec::new();
    for m in PER_LAYER {
        let v = metric_value(&traced.result, m.name)?;
        println!("{name} {} {v} {} {}", m.name, m.unit, m.clock.name());
        per_layer.push(obj([
            ("name", str(m.name)),
            ("unit", str(m.unit)),
            ("clock", str(m.clock.name())),
            ("better", str(m.better.name())),
            ("value", Value::Num(v)),
        ]));
    }
    let int = |key: &str| children[0].result.get(key).cloned().unwrap_or(Value::Null);
    Ok(obj([
        ("name", str(name)),
        ("sim_digest", str(&children[0].digest)),
        ("attempted", int("attempted")),
        ("failed", int("failed")),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ]))
}

/// Run every workload (or `--only` one), print every metric by name with
/// unit and clock, write the results file.
pub fn run(args: &SuiteArgs) -> Result<(), String> {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        if args.only.is_none_or(|only| only == w) {
            workloads.push(workload_results(w, args)?);
        }
    }
    let results = obj([
        ("schema", str(RESULTS_SCHEMA)),
        ("seed", str(&args.seed.to_string())),
        ("reps", Value::Num(args.reps as f64)),
        ("seconds", Value::Num(args.seconds)),
        (
            "threads",
            Value::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("workloads", Value::Arr(workloads)),
    ]);
    // One workload per line keeps the file diffable.
    let text = results
        .to_json()
        .replace("{\"name\": \"", "\n{\"name\": \"")
        + "\n";
    write_validated(&args.out, &text)?;
    println!("wrote {}", args.out.display());
    Ok(())
}
