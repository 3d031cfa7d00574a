//! Host cost of a federated run vs shard count: runs the same workload
//! under 1, 2, 4, and 8 foreman shards and writes `BENCH_federation.json`.
//! The headline is end to end — tasks ÷ `driver_wall_secs`, the host
//! seconds of the whole `run_federated` call, whose shards step on up to
//! one thread per host core — and
//! `speedup_vs_1shard` is the ratio of those walls. Each row also keeps
//! `aggregate_tasks_per_sec` (sum over shards of terminal tasks ÷ wall
//! seconds stepping that shard's event loop): a derived per-shard figure,
//! not a throughput.
//!
//! The workload is the dispatch-stress shape from `sched_bench` (deep
//! pending queue of 1-core tasks in four categories); tasks are
//! independent, so `PartitionPolicy::ByComponent` balances them by
//! duration.
//!
//! Invoked by `scripts/bench_federation.sh`. Flags:
//!
//! * `--out <path>`     output JSON path (default `BENCH_federation.json`)
//! * `--tasks <n>`      workload size (default 100000; paper-scale 1000000)
//! * `--shards <list>`  comma-separated shard counts (default `1,2,4,8`)
//! * `--quick`          20k tasks over shards 1,2,4 (smoke mode for CI)

use lfm_bench::sched_bench::{bench_config, bench_tasks};
use lfm_core::simcluster::node::NodeSpec;
use lfm_core::workqueue::federation::{run_federated, FederationConfig, FederationReport};
use lfm_core::workqueue::sched::SchedImpl;
use std::io::Write as _;
use std::time::Instant;

fn measure(shards: u32, tasks_n: u64, workers: u32) -> (FederationReport, f64) {
    let tasks = bench_tasks(tasks_n, true);
    let spec = NodeSpec::new(16, 64 * 1024, 128 * 1024);
    let cfg = bench_config(SchedImpl::Indexed);
    let t = Instant::now();
    let report = run_federated(&cfg, &FederationConfig::new(shards), tasks, workers, spec);
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(report.merged.abandoned_tasks, 0);
    assert_eq!(report.merged.task_count as u64, tasks_n);
    (report, wall)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_federation.json");
    let mut tasks_n = 100_000u64;
    let mut shard_counts = vec![1u32, 2, 4, 8];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--tasks" => {
                tasks_n = it
                    .next()
                    .expect("--tasks needs a count")
                    .parse()
                    .expect("--tasks must be an integer")
            }
            "--shards" => {
                shard_counts = it
                    .next()
                    .expect("--shards needs a comma-separated list")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--shards entries must be integers"))
                    .collect()
            }
            "--quick" => {
                tasks_n = 20_000;
                shard_counts = vec![1, 2, 4];
            }
            other => panic!(
                "unknown flag {other:?} \
                 (expected --out <path> | --tasks <n> | --shards <list> | --quick)"
            ),
        }
    }
    let workers = 256u32;

    let mut rows = Vec::new();
    let mut base_wall = 0.0f64;
    for &s in &shard_counts {
        eprintln!("measuring {tasks_n} tasks across {s} shard(s) x {workers} workers ...");
        let (report, wall) = measure(s, tasks_n, workers);
        if s == 1 {
            base_wall = wall;
        }
        let speedup = base_wall / wall;
        eprintln!(
            "  {:.0} tasks/s end to end  wall {wall:.3}s  steals {}  \
             cross-shard releases {}  speedup vs 1 shard {speedup:.2}x",
            tasks_n as f64 / wall,
            report.steals,
            report.cross_shard_releases
        );
        // Splice the driver-level fields into the report's own summary.
        let summary = report.summary_json();
        rows.push(format!(
            "{}, \"driver_wall_secs\": {:.6}, \"speedup_vs_1shard\": {:.3}}}",
            &summary[..summary.len() - 1],
            wall,
            speedup,
        ));
    }

    let mut json = format!(
        "{{\n  \"bench\": \"federation\",\n  \"tasks\": {tasks_n},\n  \"workers\": {workers},\n  \"configs\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!("    {row}{sep}\n"));
    }
    json.push_str("  ]\n}\n");

    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output");
    println!("wrote {out_path}");
}
