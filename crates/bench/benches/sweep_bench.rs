//! Serial vs. parallel sweep execution over a Figure-6-sized HEP grid.
//!
//! On a multi-core machine the `parallel` rows should approach
//! `serial / min(cores, 16)`; on one core they match, since `par_map`
//! degrades to the serial loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lfm_core::experiments::sweep::{point_jobs, run_job, run_jobs, standard_strategies, SweepJob};
use lfm_core::workloads::hep;

/// A 4-point × 4-strategy HEP grid, the acceptance-benchmark shape.
fn build_jobs() -> Vec<SweepJob> {
    let (workers, cores, seed) = (6u32, 8u32, 2021u64);
    let mut jobs = Vec::new();
    for &n in &[40u64, 50, 60, 70] {
        let w = hep::build(n, seed ^ n);
        let strategies = standard_strategies(&w);
        jobs.extend(point_jobs(
            n,
            &w,
            &strategies,
            &|s| hep::master_config(s, seed),
            workers,
            hep::worker_spec(cores),
        ));
    }
    jobs
}

fn sweep_bench(c: &mut Criterion) {
    let jobs = build_jobs();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.len() as u64));
    group.bench_with_input(BenchmarkId::new("serial", "4x4"), &jobs, |b, jobs| {
        b.iter(|| jobs.clone().into_iter().map(run_job).collect::<Vec<_>>())
    });
    group.bench_with_input(BenchmarkId::new("parallel", "4x4"), &jobs, |b, jobs| {
        b.iter(|| run_jobs(jobs.clone()))
    });
    group.finish();
}

/// Cost of a live recorder on one simulated workload: `enabled` should sit
/// within a few percent of `disabled` — recording is a seq fetch-add plus a
/// shard push per event, nothing on the sim's hot paths.
fn telemetry_overhead_bench(c: &mut Criterion) {
    use lfm_core::telemetry::Recorder;
    use lfm_core::workqueue::master::run_prepared;
    let job = build_jobs().remove(0);
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    for (label, recorder) in [
        ("disabled", Recorder::disabled()),
        ("enabled", Recorder::enabled()),
        // Tiny shards exercise the binary path's overflow check + drop
        // counting on most emissions: the cap must not add measurable cost.
        ("enabled_bounded", Recorder::enabled_with_capacity(64)),
    ] {
        let config = job.config.clone().with_telemetry(recorder.clone());
        group.bench_function(label, |b| {
            b.iter(|| {
                let report = run_prepared(&config, &job.tasks, job.workers, job.spec);
                // Drain so buffers don't grow across iterations.
                let _ = recorder.take();
                report.makespan_secs
            })
        });
    }
    group.finish();
}

criterion_group!(benches, sweep_bench, telemetry_overhead_bench);
criterion_main!(benches);
