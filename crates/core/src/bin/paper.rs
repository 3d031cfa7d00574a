//! `paper` — regenerates the paper's figures and tables, plus the design
//! ablations and a Pynamic-style front-end stress table.
//!
//! ```text
//! paper <fig4|fig5|fig6|fig7|fig8|fig9|table1|table2|table3|ablations|pynamic|all>
//!       [--trace <chrome|jsonl|perfetto>[:stream]=<path>]... [--shards <n>]
//! ```
//!
//! Each subcommand renders its tables into a `String` that `main` prints;
//! the strategy sweeps (Figures 6–9) also write their point clouds as CSV
//! under `target/experiments/`. `all` runs every subcommand in the order
//! above, each behind a `== paper <name> ==` line. Everything except
//! `table2` and `pynamic`, whose cells are host-timed, is a pure function
//! of its seeds.
//!
//! `--trace` (repeatable) installs the process-wide telemetry recorder and
//! writes the run's records in the given format once the figures are done;
//! with `:stream` a background thread tails the recorder while the run is
//! live instead. `--shards <n>` routes every master the figures build
//! through an `n`-shard federation. An unknown subcommand or flag prints
//! the usage to stderr and exits with status 2.

use lfm_core::experiments::fig5::Method;
use lfm_core::experiments::sweep::SweepPoint;
use lfm_core::experiments::{fig4, fig5, fig6, fig7, fig8, fig9, table1, table2, table3};
use lfm_core::monitor::sim::SimMonitor;
use lfm_core::parallel::par_map;
use lfm_core::render::{fmt_bytes, fmt_secs, render_table};
use lfm_core::telemetry::export::{
    self, ChromeSink, JsonlSink, PerfettoSink, PerfettoStreamSink, TraceSink,
};
use lfm_core::telemetry::{MetricsRegistry, Recorder};
use lfm_core::workloads::{drug, genomic, hep};
use lfm_core::workqueue::allocate::{AutoConfig, Strategy};
use lfm_core::workqueue::master::{run_workload, DistMode, MasterConfig, SchedulePolicy};
use std::fmt::{self, Write as _};
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str =
    "usage: paper <fig4|fig5|fig6|fig7|fig8|fig9|table1|table2|table3|ablations|pynamic|all> \
[--trace <chrome|jsonl|perfetto>[:stream]=<path>]... [--shards <n>]";

/// A subcommand: renders one figure or table into the output string.
type Render = fn(&mut String) -> fmt::Result;

/// Every subcommand, in the order `all` runs them.
const FIGURES: [(&str, Render); 11] = [
    ("fig4", render_fig4),
    ("fig5", render_fig5),
    ("fig6", render_fig6),
    ("fig7", render_fig7),
    ("fig8", render_fig8),
    ("fig9", render_fig9),
    ("table1", render_table1),
    ("table2", render_table2),
    ("table3", render_table3),
    ("ablations", render_ablations),
    ("pynamic", render_pynamic),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("paper: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let trace = TraceOpts::install(args.trace);
    lfm_core::workqueue::federation::set_default_shards(args.shards);
    if args.shards > 1 {
        println!("[federation: {} foreman shards]", args.shards);
    }
    let all = args.figures.len() > 1;
    for name in args.figures {
        if all {
            println!("== paper {name} ==");
        }
        print!("{}", render(name));
    }
    trace.finish();
}

/// The output of subcommand `name`.
fn render(name: &str) -> String {
    let (_, render) = FIGURES
        .iter()
        .find(|(n, _)| *n == name)
        .expect("a known subcommand");
    let mut out = String::new();
    render(&mut out).expect("writing to a String cannot fail");
    out
}

/// The parsed command line.
#[derive(Debug)]
struct Args {
    /// Subcommand names, in run order.
    figures: Vec<&'static str>,
    trace: Vec<TraceSpec>,
    /// Foreman shards per master, at least 1.
    shards: u32,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut figures = None;
        let mut trace = Vec::new();
        let mut shards = 1;
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--trace" => {
                    let spec = it
                        .next()
                        .ok_or("--trace needs <chrome|jsonl|perfetto>[:stream]=<path>")?;
                    trace.push(TraceSpec::parse(spec)?);
                }
                "--shards" => {
                    let n = it.next().ok_or("--shards needs a count")?;
                    let n: u32 = n
                        .parse()
                        .map_err(|_| format!("--shards needs a count, not `{n}`"))?;
                    shards = n.max(1);
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                name if figures.is_none() => {
                    figures = Some(if name == "all" {
                        FIGURES.iter().map(|(n, _)| *n).collect()
                    } else {
                        let (n, _) = FIGURES
                            .iter()
                            .find(|(n, _)| *n == name)
                            .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
                        vec![*n]
                    });
                }
                extra => return Err(format!("unexpected argument `{extra}`")),
            }
        }
        Ok(Args {
            figures: figures.ok_or("missing subcommand")?,
            trace,
            shards,
        })
    }
}

fn render_fig4(out: &mut String) -> fmt::Result {
    let points = fig4::run();
    writeln!(
        out,
        "Figure 4 — per-core import time on Theta (64 cores/node)\n"
    )?;
    let mut headers: Vec<&str> = vec!["cores"];
    headers.extend_from_slice(fig4::MODULES);
    let rows: Vec<Vec<String>> = fig4::NODE_COUNTS
        .iter()
        .map(|&nodes| {
            let mut row = vec![(nodes * 64).to_string()];
            for m in fig4::MODULES {
                let p = points
                    .iter()
                    .find(|p| p.nodes == nodes && p.module == *m)
                    .expect("full grid");
                row.push(fmt_secs(p.import_secs));
            }
            row
        })
        .collect();
    out.push_str(&render_table(&headers, &rows));
    writeln!(
        out,
        "\nShape check: small modules stay flat; TensorFlow climbs with scale."
    )
}

/// Cumulative import time of `method` at `nodes` on `site`.
fn fig5_secs(points: &[fig5::DistPoint], site: &str, nodes: u32, method: Method) -> f64 {
    points
        .iter()
        .find(|p| p.site == site && p.nodes == nodes && p.method == method)
        .expect("full grid")
        .cumulative_secs
}

fn render_fig5(out: &mut String) -> fmt::Result {
    let points = fig5::run();
    writeln!(
        out,
        "Figure 5 — cumulative import time (TensorFlow environment)\n"
    )?;
    let mut sites: Vec<&str> = points.iter().map(|p| p.site.as_str()).collect();
    sites.dedup();
    for site in sites {
        writeln!(out, "{site}:")?;
        let rows: Vec<Vec<String>> = fig5::NODE_COUNTS
            .iter()
            .map(|&n| {
                let direct = fig5_secs(&points, site, n, Method::DirectAccess);
                let unpack = fig5_secs(&points, site, n, Method::LocalUnpack);
                vec![
                    n.to_string(),
                    fmt_secs(direct),
                    fmt_secs(unpack),
                    format!("{:.1}x", direct / unpack),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["nodes", "direct access", "local unpack", "speedup"],
            &rows,
        ));
        writeln!(out)?;
    }
    Ok(())
}

/// One panel of a strategy sweep: caption, CSV name, x-axis label, points.
type Panel = (&'static str, &'static str, &'static str, Vec<SweepPoint>);

/// A strategy-sweep figure: each panel's point cloud saved as CSV and
/// pivoted to one makespan row per x value, and the first panel's retry
/// table (the < 1 %-retries evidence).
fn sweep_figure(out: &mut String, title: &str, panels: &[Panel]) -> fmt::Result {
    writeln!(out, "{title}\n")?;
    for (i, (caption, csv, x_label, points)) in panels.iter().enumerate() {
        if i > 0 {
            writeln!(out)?;
        }
        writeln!(out, "{caption}")?;
        writeln!(out, "[csv: {}]", save_sweep_csv(csv, points).display())?;
        out.push_str(&pivot_sweep(points, x_label));
        if i == 0 {
            writeln!(out)?;
            out.push_str(&retry_summary(points));
        }
    }
    Ok(())
}

fn render_fig6(out: &mut String) -> fmt::Result {
    sweep_figure(
        out,
        "Figure 6 — HEP workflow (ND-CRC)",
        &[
            (
                "(a) varying analysis tasks, 6 workers x 8 cores:",
                "fig6_by_tasks",
                "tasks",
                fig6::by_tasks(&[50, 100, 200, 400], 6, 8, 2021),
            ),
            (
                "(b) varying workers (16 tasks/core-worker), 8-core workers:",
                "fig6_by_workers",
                "workers",
                fig6::by_workers(&[2, 4, 8, 16], 2, 8, 2021),
            ),
            (
                "(c) varying worker size, 200 tasks on 6 workers:",
                "fig6_by_worker_size",
                "cores/worker",
                fig6::by_worker_size(200, 6, 2021),
            ),
        ],
    )
}

fn render_fig7(out: &mut String) -> fmt::Result {
    sweep_figure(
        out,
        "Figure 7 — drug screening (Theta)",
        &[
            (
                "(left) varying total tasks on 14 workers:",
                "fig7_by_tasks",
                "tasks",
                fig7::by_tasks(&[20, 60, 120, 240], 2021),
            ),
            (
                "(right) varying workers, ~4 tasks per worker:",
                "fig7_by_workers",
                "workers",
                fig7::by_workers(&[4, 8, 16, 32], 2021),
            ),
        ],
    )
}

fn render_fig8(out: &mut String) -> fmt::Result {
    sweep_figure(
        out,
        "Figure 8 — genomic analysis (NSCC Aspire)",
        &[
            (
                "(left) varying genomes on 14 workers:",
                "fig8_by_genomes",
                "genomes",
                fig8::by_genomes(&[4, 10, 20, 40], 2021),
            ),
            (
                "(right) varying workers, one genome per worker:",
                "fig8_by_workers",
                "workers",
                fig8::by_workers(&[1, 2, 4, 8, 16], 2021),
            ),
        ],
    )
}

fn render_fig9(out: &mut String) -> fmt::Result {
    sweep_figure(
        out,
        "Figure 9 — funcX ResNet image classification",
        &[
            (
                "(left) varying tasks on 4 workers:",
                "fig9_by_tasks",
                "tasks",
                fig9::by_tasks(&[32, 64, 128, 256], 4, 2021),
            ),
            (
                "(right) varying workers, 16 tasks per worker:",
                "fig9_by_workers",
                "workers",
                fig9::by_workers(&[1, 2, 4, 8], 16, 2021),
            ),
        ],
    )
}

fn render_table1(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Table I — environment activation latency (50 trials)\n"
    )?;
    let rows: Vec<Vec<String>> = table1::run(50, 2021)
        .into_iter()
        .map(|r| {
            vec![
                r.site,
                format!("{:.2} ± {:.2} s", r.conda.mean_secs, r.conda.std_secs),
                r.container.tech.name().to_string(),
                format!(
                    "{:.2} ± {:.2} s",
                    r.container.mean_secs, r.container.std_secs
                ),
                format!("{:.1}x", r.container.mean_secs / r.conda.mean_secs),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["site", "Conda", "container tech", "container", "ratio"],
        &rows,
    ));
    Ok(())
}

fn render_table2(out: &mut String) -> fmt::Result {
    writeln!(out, "Table II — packaging costs\n")?;
    let rows: Vec<Vec<String>> = table2::run()
        .into_iter()
        .map(|r| {
            vec![
                r.package,
                format!("{:.2} ms", r.analyze_secs * 1e3),
                fmt_secs(r.create_secs),
                fmt_secs(r.run_secs),
                fmt_bytes(r.size_bytes),
                r.dep_count.to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["package", "analyze", "create", "run", "size", "deps"],
        &rows,
    ));
    Ok(())
}

fn render_table3(out: &mut String) -> fmt::Result {
    writeln!(out, "Table III — evaluation sites\n")?;
    out.push_str(&render_table(table3::HEADERS, &table3::rows()));
    Ok(())
}

/// The design ablations: each parameter fan-out runs through
/// [`par_map`], one independent seeded simulation per cell, so the tables
/// do not depend on the core count.
fn render_ablations(out: &mut String) -> fmt::Result {
    ablate_poll_interval(out)?;
    ablate_headroom(out)?;
    ablate_min_samples(out)?;
    ablate_distribution(out)?;
    ablate_schedule_policy(out)
}

/// Finer polls kill runaway tasks earlier (less wasted occupancy) at the
/// cost of more monitor work.
fn ablate_poll_interval(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Ablation 1 — polling interval (genomic, tight Guess)\n"
    )?;
    let w = genomic::build(20, 11);
    // A guess tight enough that heavy stages exceed it: enforcement
    // latency (how fast the poll notices) becomes visible in the makespan.
    let tight = Strategy::Guess(lfm_core::simcluster::node::Resources::new(
        12,
        8 * 1024,
        5 * 1024,
    ));
    let rows = par_map(vec![0.25, 1.0, 5.0, 20.0], |interval| {
        let cfg = MasterConfig::new(tight.clone())
            .with_monitor(SimMonitor {
                poll_interval: interval,
                per_poll_cost: 0.5e-3,
            })
            .with_seed(11);
        let rep = run_workload(&cfg, w.tasks.clone(), 10, genomic::worker_spec());
        let overhead: f64 = rep
            .results
            .iter()
            .map(|r| r.outcome.report().monitor_overhead_secs)
            .sum();
        vec![
            format!("{interval} s"),
            fmt_secs(rep.makespan_secs),
            format!("{:.1}%", rep.retry_fraction() * 100.0),
            fmt_secs(overhead),
        ]
    });
    out.push_str(&render_table(
        &["poll interval", "makespan", "retries", "total monitor cpu"],
        &rows,
    ));
    writeln!(out)
}

/// Headroom trades retry storms (too small) against wasted packing slots
/// (too large).
fn ablate_headroom(out: &mut String) -> fmt::Result {
    writeln!(out, "Ablation 2 — Auto label headroom (HEP)\n")?;
    let w = hep::build(200, 13);
    let rows = par_map(vec![1.0, 1.1, 1.25, 1.5, 2.0], |headroom| {
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig {
            min_samples: 4,
            headroom,
            slow_start_until: 16,
        }))
        .with_seed(13);
        let rep = run_workload(&cfg, w.tasks.clone(), 6, hep::worker_spec(8));
        vec![
            format!("{headroom:.2}"),
            fmt_secs(rep.makespan_secs),
            format!("{:.1}%", rep.retry_fraction() * 100.0),
            format!("{:.1}%", rep.core_efficiency() * 100.0),
        ]
    });
    out.push_str(&render_table(
        &["headroom", "makespan", "retries", "core efficiency"],
        &rows,
    ));
    writeln!(out)
}

/// More measurement runs give better labels but occupy whole workers longer.
fn ablate_min_samples(out: &mut String) -> fmt::Result {
    writeln!(out, "Ablation 3 — Auto min_samples (HEP)\n")?;
    let w = hep::build(200, 17);
    let rows = par_map(vec![1usize, 2, 4, 8, 16], |min_samples| {
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig {
            min_samples,
            headroom: 1.25,
            slow_start_until: 16,
        }))
        .with_seed(17);
        let rep = run_workload(&cfg, w.tasks.clone(), 6, hep::worker_spec(8));
        vec![
            min_samples.to_string(),
            fmt_secs(rep.makespan_secs),
            format!("{:.1}%", rep.retry_fraction() * 100.0),
        ]
    });
    out.push_str(&render_table(
        &["min samples", "makespan", "retries"],
        &rows,
    ));
    writeln!(out)
}

/// The worker cache is what makes packed distribution pay: with it off
/// (direct mode) every task re-imports; the crossover vs. node count is
/// Figure 5's underlying economics.
fn ablate_distribution(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Ablation 4 — distribution mode (HEP, Oracle strategy)\n"
    )?;
    let w = hep::build(120, 19);
    let rows = par_map(
        vec![DistMode::PackedTransfer, DistMode::SharedFsDirect],
        |mode| {
            let cfg = MasterConfig::new(w.oracle_strategy())
                .with_dist_mode(mode)
                .with_seed(19);
            let rep = run_workload(&cfg, w.tasks.clone(), 6, hep::worker_spec(8));
            vec![
                format!("{mode:?}"),
                fmt_secs(rep.makespan_secs),
                rep.cache_hits.to_string(),
                rep.fs_md_ops.to_string(),
            ]
        },
    );
    out.push_str(&render_table(
        &["mode", "makespan", "cache hits", "shared-FS md ops"],
        &rows,
    ));

    writeln!(
        out,
        "\npack-vs-direct cumulative crossover (TensorFlow env, Theta):"
    )?;
    let points = fig5::run();
    let rows: Vec<Vec<String>> = fig5::NODE_COUNTS
        .iter()
        .map(|&n| {
            vec![
                n.to_string(),
                fmt_secs(fig5_secs(&points, "Theta (ALCF)", n, Method::DirectAccess)),
                fmt_secs(fig5_secs(&points, "Theta (ALCF)", n, Method::LocalUnpack)),
            ]
        })
        .collect();
    out.push_str(&render_table(&["nodes", "direct", "packed+unpack"], &rows));
    Ok(())
}

/// Placement-order heuristics on a memory-heterogeneous workload.
fn ablate_schedule_policy(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "\nAblation 5 — placement policy (drug screening, Oracle)\n"
    )?;
    let w = drug::build(40, 23);
    let policies = vec![
        SchedulePolicy::Fifo,
        SchedulePolicy::LargestFirst,
        SchedulePolicy::SmallestFirst,
    ];
    let rows = par_map(policies, |policy| {
        let cfg = MasterConfig::new(w.oracle_strategy())
            .with_policy(policy)
            .with_seed(23);
        let rep = run_workload(&cfg, w.tasks.clone(), 6, drug::worker_spec());
        vec![
            format!("{policy:?}"),
            fmt_secs(rep.makespan_secs),
            format!("{:.1}%", rep.core_efficiency() * 100.0),
        ]
    });
    out.push_str(&render_table(
        &["policy", "makespan", "core efficiency"],
        &rows,
    ));
    Ok(())
}

/// Best of 3 wall-clock seconds of `f`, to shave scheduler noise — with
/// the shapes fanned across cores, the minimum also absorbs cross-shape
/// interference.
fn time_it(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Pynamic-style front-end stress (the paper cites the Pynamic benchmark
/// for Python-at-scale costs): progressively larger synthetic modules,
/// with tokenizer, parser, analyzer and interpreter-load time measured
/// for real on the host.
fn render_pynamic(out: &mut String) -> fmt::Result {
    use lfm_core::pyenv::analyze::analyze_source;
    use lfm_core::pyenv::interp::{Interp, ModuleBuilder};
    use lfm_core::pyenv::lexer::Lexer;
    use lfm_core::pyenv::parser::parse_module;
    use lfm_core::pyenv::source::synthetic_module;

    writeln!(out, "Pynamic-style front-end stress (real measurements)\n")?;
    let shapes = vec![(8, 4, 4), (32, 16, 8), (128, 64, 12), (512, 256, 16)];
    let rows: Vec<Vec<String>> = par_map(shapes, |(imports, functions, stmts)| {
        let src = synthetic_module(imports, functions, stmts);
        let kb = src.len() as f64 / 1024.0;
        let lex = time_it(|| {
            Lexer::tokenize(&src).expect("the synthetic module lexes");
        });
        let parse = time_it(|| {
            parse_module(&src).expect("the synthetic module parses");
        });
        let analyze = time_it(|| {
            analyze_source(&src).expect("the synthetic module analyzes");
        });
        let load = time_it(|| {
            // Interpreter module-load: defs + imports execute. The
            // synthetic module imports only registered stdlib modules
            // plus science stubs, so stub them out.
            let mut interp = Interp::new();
            for m in [
                "numpy",
                "scipy",
                "pandas",
                "sklearn",
                "matplotlib",
                "os",
                "sys",
                "json",
                "re",
                "time",
                "itertools",
                "functools",
                "collections",
                "tensorflow",
                "keras",
            ] {
                interp.register_module(ModuleBuilder::new(m));
            }
            interp
                .load_source(&src)
                .expect("the synthetic module loads with its imports stubbed");
        });
        vec![
            format!("{imports}i/{functions}f"),
            format!("{kb:.1} KB"),
            format!("{:.2} ms ({:.1} MB/s)", lex * 1e3, kb / 1024.0 / lex),
            format!("{:.2} ms", parse * 1e3),
            format!("{:.2} ms", analyze * 1e3),
            format!("{:.2} ms", load * 1e3),
        ]
    });
    out.push_str(&render_table(
        &["module", "size", "lex", "parse", "analyze", "interp load"],
        &rows,
    ));
    writeln!(
        out,
        "\nThe 'analyze' column is the per-function cost the LFM pipeline"
    )?;
    writeln!(
        out,
        "pays at submit time (Table II's analyze column at scale)."
    )
}

/// Write a CSV file under `target/experiments/`, returning its path.
fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.csv"));
    let mut f = BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    let quote = |cell: &str| -> String {
        if cell.contains(',') || cell.contains('"') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    writeln!(f, "{}", headers.join(",")).expect("write csv");
    for row in rows {
        let line: Vec<String> = row.iter().map(|c| quote(c)).collect();
        writeln!(f, "{}", line.join(",")).expect("write csv");
    }
    f.flush().expect("write csv");
    path
}

/// Dump a sweep-point cloud as long-format CSV (x, strategy, makespan_s,
/// retry_fraction, core_efficiency).
fn save_sweep_csv(name: &str, points: &[SweepPoint]) -> PathBuf {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.x.to_string(),
                p.strategy.clone(),
                format!("{:.3}", p.makespan_secs),
                format!("{:.5}", p.retry_fraction),
                format!("{:.5}", p.core_efficiency),
            ]
        })
        .collect();
    write_csv(
        name,
        &[
            "x",
            "strategy",
            "makespan_s",
            "retry_fraction",
            "core_efficiency",
        ],
        &rows,
    )
}

/// The strategies of a sweep, in first-appearance order.
fn strategies(points: &[SweepPoint]) -> Vec<&str> {
    let mut strategies: Vec<&str> = Vec::new();
    for p in points {
        if !strategies.contains(&p.strategy.as_str()) {
            strategies.push(&p.strategy);
        }
    }
    strategies
}

/// Pivot a sweep-point cloud into a table: one row per x value, one
/// makespan column per strategy.
fn pivot_sweep(points: &[SweepPoint], x_label: &str) -> String {
    let strategies = strategies(points);
    let mut xs: Vec<u64> = points.iter().map(|p| p.x).collect();
    xs.sort_unstable();
    xs.dedup();
    let mut headers = vec![x_label];
    headers.extend(&strategies);
    let rows: Vec<Vec<String>> = xs
        .iter()
        .map(|&x| {
            let mut row = vec![x.to_string()];
            for s in &strategies {
                let cell = points
                    .iter()
                    .find(|p| p.x == x && p.strategy == *s)
                    .map(|p| fmt_secs(p.makespan_secs))
                    .unwrap_or_else(|| "-".to_string());
                row.push(cell);
            }
            row
        })
        .collect();
    render_table(&headers, &rows)
}

/// Per strategy: the worst retry fraction and the mean core efficiency.
fn retry_summary(points: &[SweepPoint]) -> String {
    let rows: Vec<Vec<String>> = strategies(points)
        .into_iter()
        .map(|s| {
            let mine: Vec<&SweepPoint> = points.iter().filter(|p| p.strategy == s).collect();
            let max_retry = mine.iter().map(|p| p.retry_fraction).fold(0.0f64, f64::max);
            let mean_eff =
                mine.iter().map(|p| p.core_efficiency).sum::<f64>() / mine.len().max(1) as f64;
            vec![
                s.to_string(),
                format!("{:.2}%", max_retry * 100.0),
                format!("{:.1}%", mean_eff * 100.0),
            ]
        })
        .collect();
    render_table(&["strategy", "max retries", "mean core efficiency"], &rows)
}

/// Trace output formats accepted by `--trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
    Chrome,
    /// One JSON object per record, flat.
    Jsonl,
    /// Binary Perfetto protobuf (ui.perfetto.dev).
    Perfetto,
}

/// One parsed `--trace <chrome|jsonl|perfetto>[:stream]=<path>` spec.
#[derive(Debug)]
struct TraceSpec {
    format: TraceFormat,
    /// Stream records to the sink while the run is live (bounded buffered
    /// memory) instead of buffering the full run and writing at the end.
    stream: bool,
    path: PathBuf,
}

impl TraceSpec {
    /// Parse `<chrome|jsonl|perfetto>[:stream]=<path>`.
    fn parse(s: &str) -> Result<TraceSpec, String> {
        let (head, path) = s
            .split_once('=')
            .ok_or_else(|| format!("trace spec `{s}` is missing `=<path>`"))?;
        if path.is_empty() {
            return Err(format!("trace spec `{s}` has an empty path"));
        }
        let (fmt, stream) = match head.split_once(':') {
            Some((f, "stream")) => (f, true),
            Some((_, mode)) => {
                return Err(format!(
                    "unknown trace mode `{mode}` in `{s}` (only `stream`)"
                ))
            }
            None => (head, false),
        };
        let format = match fmt {
            "chrome" => TraceFormat::Chrome,
            "jsonl" => TraceFormat::Jsonl,
            "perfetto" => TraceFormat::Perfetto,
            other => {
                return Err(format!(
                    "unknown trace format `{other}` in `{s}` (chrome|jsonl|perfetto)"
                ))
            }
        };
        Ok(TraceSpec {
            format,
            stream,
            path: PathBuf::from(path),
        })
    }

    /// Open the sink this spec describes. Non-stream Perfetto buffers the
    /// whole run for a globally time-sorted trace; everything else writes
    /// incrementally with O(1) buffered records.
    fn open(&self) -> std::io::Result<Box<dyn TraceSink + Send>> {
        let w = BufWriter::new(std::fs::File::create(&self.path)?);
        Ok(match (self.format, self.stream) {
            (TraceFormat::Chrome, _) => Box::new(ChromeSink::new(w)),
            (TraceFormat::Jsonl, _) => Box::new(JsonlSink::new(w)),
            (TraceFormat::Perfetto, false) => Box::new(PerfettoSink::new(w)),
            (TraceFormat::Perfetto, true) => Box::new(PerfettoStreamSink::new(w)),
        })
    }

    fn report_line(&self, records: u64) -> String {
        match self.format {
            TraceFormat::Chrome => format!("[trace: {} ({records} records)]", self.path.display()),
            TraceFormat::Jsonl => format!("[trace-jsonl: {}]", self.path.display()),
            TraceFormat::Perfetto => format!("[trace-perfetto: {}]", self.path.display()),
        }
    }
}

/// What the background streamer hands back at shutdown.
struct StreamResult {
    records: u64,
    dropped: u64,
    /// High-water mark of undecoded bytes plus reorder-pending records
    /// held by the tail cursor — bounded by ring capacity, not run
    /// length (reported so long runs can see the bound holding).
    peak_buffered_bytes: usize,
    peak_pending_records: usize,
    registry: MetricsRegistry,
}

/// Handle to the live-tailing thread: one draining tail consumer feeding
/// every requested sink incrementally.
struct Streamer {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<StreamResult>,
}

/// The streamer body: poll the recorder's ring buffers, push each merged
/// record into every sink (and the metrics registry), repeat until told
/// to stop, then take the final tail — including records stuck behind a
/// cross-shard gap — and close the sinks. Buffered memory is bounded by
/// the ring capacity plus each sink's own state, independent of run
/// length; overflow between polls surfaces as a synthesized
/// `telemetry.dropped_events` count, never a decode error.
fn stream_loop(
    recorder: Recorder,
    stop: Arc<AtomicBool>,
    mut sinks: Vec<Box<dyn TraceSink + Send>>,
) -> StreamResult {
    let mut cursor = recorder.cursor();
    let mut registry = MetricsRegistry::new();
    let mut records = 0u64;
    let mut dropped = 0u64;
    let mut peak_buffered_bytes = 0usize;
    let mut peak_pending_records = 0usize;
    for sink in &mut sinks {
        sink.begin().expect("trace sink begin");
    }
    loop {
        let done = stop.load(Ordering::Acquire);
        let batch = if done {
            recorder.finish_tail(&mut cursor)
        } else {
            recorder.drain_since(&mut cursor)
        };
        dropped += batch.dropped_delta;
        records += batch.records.len() as u64;
        peak_buffered_bytes = peak_buffered_bytes.max(cursor.buffered_bytes());
        peak_pending_records = peak_pending_records.max(cursor.pending_len());
        for record in &batch.records {
            registry.observe_record(record);
            for sink in &mut sinks {
                sink.record(record).expect("trace sink write");
            }
        }
        if done {
            if let Some(record) = recorder.synthesize_dropped(dropped) {
                registry.observe_record(&record);
                records += 1;
                for sink in &mut sinks {
                    sink.record(&record).expect("trace sink write");
                }
            }
            for sink in &mut sinks {
                sink.finish().expect("trace sink finish");
            }
            return StreamResult {
                records,
                dropped,
                peak_buffered_bytes,
                peak_pending_records,
                registry,
            };
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A trace session over the `--trace` specs.
///
/// Without `:stream`, records accumulate in the recorder's ring buffers
/// and are written in one pass at [`TraceOpts::finish`]. With at least
/// one `:stream` spec, a background thread tails the ring buffers while
/// the run is live and feeds **all** requested sinks incrementally, so
/// buffered-record memory stays bounded regardless of run length (the
/// chrome and jsonl formats produce byte-identical files either way).
struct TraceOpts {
    specs: Vec<TraceSpec>,
    recorder: Recorder,
    streamer: Option<Streamer>,
}

impl TraceOpts {
    /// Start a session over the process-wide recorder — which every
    /// `MasterConfig::new()`, cache, and the parallel engine report into —
    /// installing it if any spec was given.
    fn install(specs: Vec<TraceSpec>) -> Self {
        let recorder = if specs.is_empty() {
            Recorder::disabled()
        } else {
            lfm_core::telemetry::install_global()
        };
        Self::start(specs, recorder)
    }

    /// Start a session draining `recorder`; opens the sinks and spawns the
    /// streamer now if any spec streams.
    fn start(specs: Vec<TraceSpec>, recorder: Recorder) -> Self {
        let streamer = if recorder.is_enabled() && specs.iter().any(|s| s.stream) {
            let sinks: Vec<Box<dyn TraceSink + Send>> = specs
                .iter()
                .map(|s| {
                    s.open()
                        .unwrap_or_else(|e| panic!("open trace sink {}: {e}", s.path.display()))
                })
                .collect();
            let stop = Arc::new(AtomicBool::new(false));
            let handle = {
                let recorder = recorder.clone();
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("trace-stream".into())
                    .spawn(move || stream_loop(recorder, stop, sinks))
                    .expect("spawn trace streamer")
            };
            Some(Streamer { stop, handle })
        } else {
            None
        };
        TraceOpts {
            specs,
            recorder,
            streamer,
        }
    }

    /// Whether any trace output was requested.
    fn enabled(&self) -> bool {
        self.recorder.is_enabled() && !self.specs.is_empty()
    }

    /// Close out tracing: stop the live streamer (if any) or drain the
    /// recorder and write each requested file, then print the aggregated
    /// metrics as one JSON line. No-op without trace flags.
    fn finish(self) {
        if !self.enabled() {
            return;
        }
        if let Some(streamer) = self.streamer {
            streamer.stop.store(true, Ordering::Release);
            let result = streamer.handle.join().expect("trace streamer panicked");
            for spec in &self.specs {
                println!("{}", spec.report_line(result.records));
            }
            if result.dropped > 0 {
                println!(
                    "[trace-stream] {} events dropped on ring overflow",
                    result.dropped
                );
            }
            println!(
                "[trace-stream] peak buffer: {} bytes undecoded, {} records pending",
                result.peak_buffered_bytes, result.peak_pending_records
            );
            let mut registry = result.registry;
            println!("[metrics] {}", registry.to_json());
            return;
        }
        let records = self.recorder.take();
        for spec in &self.specs {
            match spec.format {
                TraceFormat::Chrome => {
                    export::write_chrome_trace(&spec.path, &records).expect("write chrome trace");
                }
                TraceFormat::Jsonl => {
                    export::write_jsonl(&spec.path, &records).expect("write jsonl trace");
                }
                TraceFormat::Perfetto => {
                    export::write_perfetto_trace(&spec.path, &records)
                        .expect("write perfetto trace");
                }
            }
            println!("{}", spec.report_line(records.len() as u64));
        }
        let mut metrics = MetricsRegistry::from_records(&records);
        println!("[metrics] {}", metrics.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&strings(args))
    }

    fn pt(x: u64, s: &str, m: f64) -> SweepPoint {
        SweepPoint {
            x,
            strategy: s.into(),
            makespan_secs: m,
            retry_fraction: 0.004,
            core_efficiency: 0.8,
        }
    }

    /// The deterministic figures, byte for byte. `UPDATE_GOLDEN=1`
    /// rewrites the files.
    #[test]
    fn deterministic_figures_match_golden_files() {
        let goldens = [
            (
                "table1",
                include_str!("../../../../tests/golden/paper_table1.txt"),
            ),
            (
                "table3",
                include_str!("../../../../tests/golden/paper_table3.txt"),
            ),
            (
                "fig4",
                include_str!("../../../../tests/golden/paper_fig4.txt"),
            ),
            (
                "fig5",
                include_str!("../../../../tests/golden/paper_fig5.txt"),
            ),
        ];
        for (name, golden) in goldens {
            let actual = render(name);
            if std::env::var_os("UPDATE_GOLDEN").is_some() {
                let path = format!(
                    "{}/../../tests/golden/paper_{name}.txt",
                    env!("CARGO_MANIFEST_DIR")
                );
                std::fs::write(path, &actual).expect("rewrite golden file");
            }
            assert_eq!(
                actual, golden,
                "`paper {name}` drifted from its golden file"
            );
        }
    }

    #[test]
    fn subcommands_and_all_parse_in_run_order() {
        let args = parse(&["fig7"]).unwrap();
        assert_eq!(args.figures, ["fig7"]);
        assert!(args.trace.is_empty());
        assert_eq!(args.shards, 1);
        let all = parse(&["all"]).unwrap().figures;
        let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        assert_eq!(all, names);
        assert_eq!(all.first(), Some(&"fig4"));
        assert_eq!(all.last(), Some(&"pynamic"));
        // Flags may come before or after the subcommand, and repeat.
        let args = parse(&[
            "--trace",
            "jsonl=a.jsonl",
            "fig6",
            "--shards",
            "2",
            "--trace",
            "chrome:stream=b.json",
        ])
        .unwrap();
        assert_eq!(args.figures, ["fig6"]);
        assert_eq!(args.shards, 2);
        assert_eq!(args.trace.len(), 2);
        assert!(args.trace[1].stream);
    }

    #[test]
    fn unknown_subcommands_and_flags_are_usage_errors() {
        let bad: [&[&str]; 10] = [
            &[],                           // no subcommand
            &["fig10"],                    // unknown subcommand
            &["fig6", "--shard", "4"],     // misspelt flag
            &["fig6", "--help"],           // no such flag either
            &["fig6", "fig7"],             // one subcommand only
            &["fig6", "--trace"],          // flag without its value
            &["fig6", "--trace", "svg=x"], // malformed spec
            &["fig6", "--shards"],         // flag without its value
            &["fig6", "--shards", "four"], // not a count
            &["fig6", "--shards", "-1"],   // not a count
        ];
        for bad in bad {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_shards_reads_flag_and_clamps() {
        assert_eq!(parse(&["fig6"]).unwrap().shards, 1);
        assert_eq!(parse(&["fig6", "--shards", "4"]).unwrap().shards, 4);
        assert_eq!(
            parse(&["--shards", "0", "fig6"]).unwrap().shards,
            1,
            "clamped to at least 1"
        );
    }

    #[test]
    fn pivot_shape() {
        let points = vec![
            pt(10, "Oracle", 100.0),
            pt(10, "Auto", 110.0),
            pt(20, "Oracle", 180.0),
        ];
        let t = pivot_sweep(&points, "tasks");
        assert!(t.contains("tasks"));
        assert!(t.contains("Oracle"));
        assert!(t.contains("Auto"));
        // Missing cell renders as dash.
        assert!(t.contains('-'));
    }

    #[test]
    fn csv_writer_quotes_and_persists() {
        let rows = vec![vec!["a,b".to_string(), "pla\"in".to_string()]];
        let path = write_csv("test_csv_writer", &["c1", "c2"], &rows);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("c1,c2\n"));
        assert!(body.contains("\"a,b\""));
        assert!(body.contains("\"pla\"\"in\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_csv_long_format() {
        let points = vec![pt(10, "Oracle", 100.0)];
        let path = save_sweep_csv("test_sweep_csv", &points);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("x,strategy,makespan_s"));
        assert!(body.contains("10,Oracle,100.000"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn retry_table_has_all_strategies() {
        let points = vec![pt(1, "Oracle", 1.0), pt(1, "Auto", 1.0)];
        let t = retry_summary(&points);
        assert!(t.contains("0.40%"));
        assert!(t.contains("80.0%"));
    }

    #[test]
    fn trace_opts_absent_flags_stay_disabled() {
        let opts = TraceOpts::install(parse(&["fig4"]).unwrap().trace);
        assert!(!opts.enabled());
        opts.finish(); // no-op, must not write anything or panic
    }

    #[test]
    fn trace_spec_parser_matrix() {
        use TraceFormat::*;
        let ok = [
            ("chrome=/tmp/a.json", Chrome, false, "/tmp/a.json"),
            ("jsonl=/tmp/a.jsonl", Jsonl, false, "/tmp/a.jsonl"),
            ("perfetto=/tmp/a.pftrace", Perfetto, false, "/tmp/a.pftrace"),
            ("chrome:stream=/tmp/s.json", Chrome, true, "/tmp/s.json"),
            ("jsonl:stream=rel/path.jsonl", Jsonl, true, "rel/path.jsonl"),
            (
                "perfetto:stream=/tmp/s.pftrace",
                Perfetto,
                true,
                "/tmp/s.pftrace",
            ),
            // Only the first `=` splits: paths may contain `=`.
            ("chrome=/tmp/run=7.json", Chrome, false, "/tmp/run=7.json"),
        ];
        for (input, format, stream, path) in ok {
            let spec = TraceSpec::parse(input).unwrap_or_else(|e| panic!("{input}: {e}"));
            assert_eq!(spec.format, format, "{input}");
            assert_eq!(spec.stream, stream, "{input}");
            assert_eq!(spec.path, PathBuf::from(path), "{input}");
        }
        for bad in [
            "chrome",                  // no path
            "chrome=",                 // empty path
            "=/tmp/x.json",            // empty format
            "svg=/tmp/x.svg",          // unknown format
            "chrome:live=/tmp/x.json", // unknown mode
            "chrome:stream",           // stream but no path
        ] {
            assert!(TraceSpec::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    fn specs(args: &[&str]) -> Vec<TraceSpec> {
        args.iter().map(|s| TraceSpec::parse(s).unwrap()).collect()
    }

    #[test]
    fn streamed_chrome_trace_matches_buffered_output() {
        use lfm_core::simcluster::time::SimTime;
        let emit = |rec: &Recorder| {
            for i in 0..500u64 {
                rec.counter("paper.stream_counter", 1 + i % 3);
                let t = i as f64 * 0.01;
                rec.span("work", "paper")
                    .at(SimTime::from_secs(t), SimTime::from_secs(t + 0.005))
                    .task(i)
                    .emit();
            }
        };
        // Reference: same emission order, post-hoc slice export.
        let reference = Recorder::enabled();
        emit(&reference);
        let expect = export::chrome_trace(&reference.take());

        let path = std::env::temp_dir().join("lfm_paper_stream_chrome.json");
        let rec = Recorder::enabled();
        let opts = TraceOpts::start(
            specs(&[&format!("chrome:stream={}", path.display())]),
            rec.clone(),
        );
        assert!(opts.enabled());
        emit(&rec);
        opts.finish();
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed, expect, "live tail must match post-hoc export");
        // The streamer drained everything; nothing is left to take.
        assert!(rec.take().is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn stream_mode_feeds_buffered_and_streaming_sinks_together() {
        use lfm_core::simcluster::time::SimTime;
        let chrome = std::env::temp_dir().join("lfm_paper_mixed_chrome.json");
        let pftrace = std::env::temp_dir().join("lfm_paper_mixed.pftrace");
        let rec = Recorder::enabled();
        let opts = TraceOpts::start(
            specs(&[
                &format!("chrome={}", chrome.display()),
                &format!("perfetto:stream={}", pftrace.display()),
            ]),
            rec.clone(),
        );
        for i in 0..50u64 {
            let t = i as f64 * 0.1;
            rec.span("step", "paper")
                .at(SimTime::from_secs(t), SimTime::from_secs(t + 0.05))
                .emit();
            rec.gauge("paper.depth", (i % 7) as f64, SimTime::from_secs(t));
        }
        opts.finish();
        let body = std::fs::read_to_string(&chrome).unwrap();
        export::validate_json(&body).unwrap();
        assert!(body.contains("paper.depth"));
        let trace = std::fs::read(&pftrace).unwrap();
        export::validate_trace(&trace).unwrap();
        std::fs::remove_file(chrome).ok();
        std::fs::remove_file(pftrace).ok();
    }

    #[test]
    fn trace_opts_install_write_and_validate() {
        let path = std::env::temp_dir().join("lfm_paper_trace_opts_test.json");
        let pftrace = std::env::temp_dir().join("lfm_paper_trace_opts_test.pftrace");
        let opts = TraceOpts::install(specs(&[
            &format!("chrome={}", path.display()),
            &format!("perfetto={}", pftrace.display()),
        ]));
        assert!(opts.enabled());
        lfm_core::telemetry::global().counter("paper.test_counter", 3);
        opts.finish();
        let body = std::fs::read_to_string(&path).unwrap();
        export::validate_json(&body).unwrap();
        assert!(body.contains("traceEvents"));
        assert!(body.contains("paper.test_counter"));
        let trace = std::fs::read(&pftrace).unwrap();
        export::validate_trace(&trace).unwrap();
        std::fs::remove_file(path).ok();
        std::fs::remove_file(pftrace).ok();
    }
}
