//! The parallel sweep engine's core contract: fanning sweep jobs across
//! cores produces byte-identical output to the serial reference loop, and
//! on a multi-core machine it is materially faster.

use lfm_core::experiments::{fig6, sweep};
use lfm_core::parallel::{par_map, par_map_with_threads, run_sweep_parallel};
use lfm_core::workloads::hep;
use std::time::Instant;

/// A Figure-6-sized HEP sweep run both ways must agree exactly — same
/// points, same order, same floating-point values.
#[test]
fn parallel_sweep_matches_serial_reference() {
    let task_counts = [12u64, 24, 36];
    let (workers, cores, seed) = (4u32, 8u32, 2021u64);

    let mut serial = Vec::new();
    for &n in &task_counts {
        let w = hep::build(n, seed ^ n);
        let strategies = sweep::standard_strategies(&w);
        serial.extend(sweep::run_point(
            n,
            &w,
            &strategies,
            &|s| hep::master_config(s, seed),
            workers,
            hep::worker_spec(cores),
        ));
    }

    let parallel = fig6::by_tasks(&task_counts, workers, cores, seed);
    assert_eq!(serial, parallel);

    // Force 4 worker threads so the injector/scoped-thread machinery runs
    // even on a single-core machine where par_map would go serial.
    let mut jobs = Vec::new();
    for &n in &task_counts {
        let w = hep::build(n, seed ^ n);
        let strategies = sweep::standard_strategies(&w);
        jobs.extend(sweep::point_jobs(
            n,
            &w,
            &strategies,
            &|s| hep::master_config(s, seed),
            workers,
            hep::worker_spec(cores),
        ));
    }
    let threaded: Vec<_> = par_map_with_threads(jobs, 4, sweep::run_job);
    assert_eq!(serial, threaded);
}

/// `run_sweep_parallel` must flatten per-job outputs in job order even when
/// job runtimes are wildly uneven.
#[test]
fn flatten_order_is_job_order_under_skew() {
    let jobs: Vec<u64> = (0..32).rev().collect();
    let points = run_sweep_parallel(
        jobs.clone(),
        |_| (),
        |n| {
            // Heavier work for larger n: late-submitted small jobs finish first.
            let mut acc = 0u64;
            for i in 0..(n * 20_000) {
                acc = acc.wrapping_add(i);
            }
            vec![sweep::SweepPoint {
                x: n,
                strategy: format!("acc{}", acc % 2),
                makespan_secs: 1.0,
                retry_fraction: 0.0,
                core_efficiency: 1.0,
            }]
        },
    );
    let xs: Vec<u64> = points.iter().map(|p| p.x).collect();
    assert_eq!(xs, jobs);
}

/// On a ≥4-core machine, a 4-point × 4-strategy HEP sweep must run at least
/// 2× faster through the engine than through the serial loop. Skipped on
/// smaller machines (e.g. single-core CI), where `par_map` intentionally
/// degrades to the serial path.
#[test]
fn parallel_speedup_on_multicore() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s) available");
        return;
    }
    let task_counts = [60u64, 70, 80, 90];
    let (workers, worker_cores, seed) = (6u32, 8u32, 77u64);
    let mut jobs = Vec::new();
    for &n in &task_counts {
        let w = hep::build(n, seed ^ n);
        let strategies = sweep::standard_strategies(&w);
        jobs.extend(sweep::point_jobs(
            n,
            &w,
            &strategies,
            &|s| hep::master_config(s, seed),
            workers,
            hep::worker_spec(worker_cores),
        ));
    }
    assert_eq!(jobs.len(), 16);

    // Warm both paths once so neither measurement pays one-time setup.
    let _ = sweep::run_jobs(jobs.clone());

    let t = Instant::now();
    let serial: Vec<_> = jobs.clone().into_iter().map(sweep::run_job).collect();
    let serial_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let parallel = sweep::run_jobs(jobs);
    let parallel_secs = t.elapsed().as_secs_f64();

    assert_eq!(serial, parallel);
    assert!(
        serial_secs >= 2.0 * parallel_secs,
        "expected ≥2× speedup on {cores} cores: serial {serial_secs:.3}s vs parallel {parallel_secs:.3}s"
    );
}

/// `par_map` propagates panics from worker threads instead of hanging or
/// silently dropping jobs.
#[test]
fn par_map_propagates_panics() {
    let result = std::panic::catch_unwind(|| {
        par_map(vec![1u32, 2, 3, 4], |x| {
            assert!(x != 3, "boom");
            x
        })
    });
    assert!(result.is_err());
}
