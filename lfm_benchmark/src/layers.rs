//! Per-layer replays: each calls one layer's public API with the operation
//! count and value stream of the workload it is attributed to, and times
//! it from outside. Host clock throughout; counts come from the report
//! structs in `workloads.rs`.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    batch_config, batch_node, batch_tasks, derive_seed, serving_node, serving_tenants,
    SERVING_TICK_SECS, STEADY_RATE,
};
use lfm_core::experiments::sweep::{point_jobs, run_job, run_jobs, standard_strategies};
use lfm_core::funcx::container::{measure_activation, ActivationModel, ActivationTech};
use lfm_core::monitor::limits::ResourceLimits;
use lfm_core::monitor::report::{MonitorOutcome, ResourceReport};
use lfm_core::monitor::sim::{SimMonitor, SimTaskProfile};
use lfm_core::pyenv::analyze::analyze_source;
use lfm_core::pyenv::environment::Environment;
use lfm_core::pyenv::index::PackageIndex;
use lfm_core::pyenv::pack::PackedEnv;
use lfm_core::pyenv::requirements::RequirementSet;
use lfm_core::pyenv::resolve::resolve;
use lfm_core::pyenv::source;
use lfm_core::serving::arrivals::ArrivalProcess;
use lfm_core::serving::fair::FairScheduler;
use lfm_core::serving::gateway::ServingFunction;
use lfm_core::serving::tenant::PriorityClass;
use lfm_core::serving::warmpool::{WarmPool, WarmPoolConfig};
use lfm_core::simcluster::event::EventQueue;
use lfm_core::simcluster::metrics::{Samples, SparseHistogram};
use lfm_core::simcluster::rng::SimRng;
use lfm_core::simcluster::time::SimTime;
use lfm_core::telemetry::export::{chrome_trace, perfetto_trace};
use lfm_core::telemetry::Recorder;
use lfm_core::workloads::{drug, hep};
use lfm_core::workqueue::allocate::{AllocationDecision, Allocator, AutoConfig, Strategy};
use lfm_core::workqueue::files::FileRef;
use lfm_core::workqueue::master::{run_workload, MasterConfig};
use lfm_core::workqueue::streaming::StreamingMaster;
use lfm_core::workqueue::task::{TaskId, TaskSpec};
use std::hint::black_box;
use std::time::Instant;

pub type Metrics = Vec<(&'static str, f64)>;

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// `simcluster.event`: the classic hold model. 4096 events pending, 2 M
/// pop-then-reschedule operations; nanoseconds per pop + schedule pair.
pub fn event_hold_ns(seed: u64) -> f64 {
    const PENDING: usize = 4096;
    const OPS: usize = 2_000_000;
    let mut rng = SimRng::seeded(seed);
    let delays: Vec<f64> = (0..PENDING).map(|_| rng.uniform(0.001, 100.0)).collect();
    let mut q = EventQueue::<u32>::with_capacity(PENDING);
    for (i, d) in delays.iter().enumerate() {
        q.schedule_at(SimTime::from_secs(*d), i as u32);
    }
    let t = secs(|| {
        for i in 0..OPS {
            let (at, e) = q.pop().expect("the hold model never drains");
            q.schedule_at(SimTime::from_secs(at.as_secs() + delays[i % PENDING]), e);
        }
    });
    black_box(q.len());
    t * 1e9 / OPS as f64
}

/// `simcluster.metrics`: `Samples` under the allocator's access pattern
/// (one `record`, one `quantile`, alternating, grown to one category's
/// share of `master_batch`), and `SparseHistogram::record`.
pub fn metrics_layer(seed: u64) -> Metrics {
    const N: usize = 12_500;
    let mut rng = SimRng::seeded(seed);
    let values: Vec<f64> = (0..N).map(|_| rng.uniform(240.0, 450.0)).collect();
    let mut samples = Samples::new();
    let pair = secs(|| {
        for v in &values {
            samples.record(*v);
            black_box(samples.quantile(0.95));
        }
    });
    const H: usize = 1_000_000;
    let mut hist = SparseHistogram::new();
    let record = secs(|| {
        for i in 0..H {
            hist.record(values[i % N] * 0.01);
        }
    });
    black_box(hist.p99());
    vec![
        (
            "simcluster.metrics.samples_record_query_ns",
            pair * 1e9 / N as f64,
        ),
        (
            "simcluster.metrics.sparse_hist_record_ns",
            record * 1e9 / H as f64,
        ),
    ]
}

/// `monitor.sim`: `SimMonitor::run` over the workload's profiles, without
/// limits. Returns the reports (the allocator replay consumes them) and
/// nanoseconds per task.
fn monitor_reports(tasks: &[TaskSpec]) -> (Vec<ResourceReport>, f64) {
    let monitor = SimMonitor::default();
    let limits = ResourceLimits::unlimited();
    let mut reports = Vec::with_capacity(tasks.len());
    let t = secs(|| {
        for task in tasks {
            match monitor.run(&task.profile, &limits).outcome {
                MonitorOutcome::Completed(r) => reports.push(r),
                other => panic!("an unlimited run cannot be killed: {other:?}"),
            }
        }
    });
    (reports, t * 1e9 / tasks.len().max(1) as f64)
}

/// One allocator replay over `n` tasks of the `master_batch` shape:
/// `decide` then `observe_outcome_notify` per task, as the master calls
/// them once the cluster is full (one completion frees one slot, one
/// dispatch fills it, so every decision follows a memo-invalidating
/// observation). Returns (seconds in the allocator, label changes,
/// monitor ns per task).
fn allocate_replay(n: u64, seed: u64) -> (f64, u64, f64) {
    let tasks = batch_tasks(n, seed);
    let (reports, monitor_ns) = monitor_reports(&tasks);
    let capacity = batch_node().resources;
    let mut alloc = Allocator::new(Strategy::Auto(AutoConfig::default()));
    let mut label_changes = 0u64;
    let t = secs(|| {
        for (task, report) in tasks.iter().zip(&reports) {
            let decision = alloc.decide(&task.category, 0, &capacity);
            black_box(matches!(decision, AllocationDecision::WholeWorker));
            let effects =
                alloc.observe_outcome_notify(&task.category, report, true, None, &capacity);
            label_changes += u64::from(effects.label_changed);
        }
    });
    (t, label_changes, monitor_ns)
}

/// The layers under `master_batch`: allocator, monitor, calendar, and the
/// master's own scaling. `wall_s` is the workload's untraced median,
/// `events` the calendar events one run processes.
pub fn master_batch_layers(seed: u64, n: u64, workers: u32, wall_s: f64, events: u64) -> Metrics {
    let task_seed = derive_seed(seed, 1);
    let (half_s, _, _) = allocate_replay(n / 2, task_seed);
    let (replay_s, label_changes, monitor_ns) = allocate_replay(n, task_seed);
    let hold_ns = event_hold_ns(derive_seed(seed, 20));
    let event_s = events as f64 * hold_ns / 1e9;
    let monitor_s = n as f64 * monitor_ns / 1e9;
    // The same shape at half the size, once: the master's own exponent.
    let half_tasks = batch_tasks(n / 2, task_seed);
    let half_wall = secs(|| {
        let r = run_workload(
            &batch_config(derive_seed(seed, 2)),
            half_tasks,
            workers,
            batch_node(),
        );
        assert_eq!(r.abandoned_tasks, 0);
    });
    let mut m = metrics_layer(derive_seed(seed, 21));
    m.extend([
        ("simcluster.event.hold_ns_per_op", hold_ns),
        ("simcluster.event.share_of_wall", event_s / wall_s),
        ("monitor.sim.run_ns_per_task", monitor_ns),
        ("workqueue.allocate.replay_s", replay_s),
        (
            "workqueue.allocate.ns_per_completion",
            replay_s * 1e9 / n as f64,
        ),
        (
            "workqueue.allocate.scaling_exponent",
            (replay_s / half_s).log2(),
        ),
        ("workqueue.allocate.share_of_wall", replay_s / wall_s),
        ("workqueue.allocate.label_changes", label_changes as f64),
        (
            "workqueue.master.scaling_exponent",
            (wall_s / half_wall).log2(),
        ),
        // Dispatch, `sched` and `place` have no public entry: they stay a
        // residual until the product carries its own spans.
        (
            "workqueue.master.residual_s",
            wall_s - replay_s - event_s - monitor_s,
        ),
        ("workqueue.master.events", events as f64),
    ]);
    m
}

/// `telemetry`: 1.2 M mixed span/instant/counter events through the
/// recorder's builder API, then decode (`take`), live tail
/// (`cursor`/`drain_since`) and the two exporters.
pub fn telemetry_layer() -> Metrics {
    const TRIPLES: u64 = 400_000;
    const EVENTS: f64 = (TRIPLES * 3) as f64;
    const EXPORTED: usize = 200_000;
    let emit = |rec: &Recorder, from: u64, to: u64| {
        for i in from..to {
            let t0 = SimTime::from_secs(i as f64 * 0.01);
            let t1 = SimTime::from_secs(i as f64 * 0.01 + 30.0);
            rec.span("exec", "wq")
                .at(t0, t1)
                .track(i % 256)
                .task(i)
                .attempt(0)
                .attr("category", "cat1")
                .emit();
            rec.instant("placed", "wq").at(t0).task(i).emit();
            rec.counter_at("wq.tasks_done", 1, t1);
        }
    };
    let rec = Recorder::enabled_with_capacity(1 << 22);
    let emit_s = secs(|| emit(&rec, 0, TRIPLES));
    let bytes = rec.buffered_bytes() as f64;
    let mut records = Vec::new();
    let decode_s = secs(|| records = rec.take());
    assert_eq!(records.len() as f64, EVENTS, "recorder dropped records");
    let chrome_s = secs(|| {
        black_box(chrome_trace(&records[..EXPORTED]).len());
    });
    let perfetto_s = secs(|| {
        black_box(perfetto_trace(&records[..EXPORTED]).len());
    });
    drop(records);

    // Live tail: drain every 10 000 triples, as a per-tick consumer does.
    let live = Recorder::enabled_with_capacity(1 << 22);
    let mut cursor = live.cursor();
    let mut tailed = 0usize;
    let mut tail_s = 0.0;
    for chunk in 0..TRIPLES / 10_000 {
        emit(&live, chunk * 10_000, (chunk + 1) * 10_000);
        tail_s += secs(|| tailed += live.drain_since(&mut cursor).records.len());
    }
    tail_s += secs(|| tailed += live.finish_tail(&mut cursor).records.len());
    assert_eq!(tailed as f64, EVENTS, "tail lost records");
    vec![
        ("telemetry.emit.ns_per_event", emit_s * 1e9 / EVENTS),
        ("telemetry.decode.ns_per_event", decode_s * 1e9 / EVENTS),
        ("telemetry.tail.ns_per_event", tail_s * 1e9 / EVENTS),
        (
            "telemetry.export.chrome_ns_per_event",
            chrome_s * 1e9 / EXPORTED as f64,
        ),
        (
            "telemetry.export.perfetto_ns_per_event",
            perfetto_s * 1e9 / EXPORTED as f64,
        ),
        ("telemetry.bytes_per_event", bytes / EVENTS),
    ]
}

/// `pyenv` and `dataflow`: what building the drug DAG goes through.
/// Analysis, resolution and packing on the paper's four application
/// sources; lowering as `drug::build` per task.
pub fn environment_layers(seed: u64, dag_batches: u64) -> Metrics {
    let sources = [
        source::hep_process_source(),
        source::drug_featurize_source(),
        source::genomic_vep_source(),
        source::funcx_classify_source(),
    ];
    const ROUNDS: usize = 50;
    let index = PackageIndex::builtin();
    let analyze_s = secs(|| {
        for _ in 0..ROUNDS {
            for src in sources {
                black_box(analyze_source(src).expect("paper source parses"));
            }
        }
    });
    let reqs: Vec<RequirementSet> = sources
        .iter()
        .map(|src| {
            RequirementSet::from_analysis(&analyze_source(src).expect("parses"), &index)
                .expect("imports map to distributions")
        })
        .collect();
    let resolve_s = secs(|| {
        for _ in 0..ROUNDS {
            for r in &reqs {
                black_box(resolve(&index, r).expect("resolves"));
            }
        }
    });
    let envs: Vec<Environment> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let resolution = resolve(&index, r).expect("resolves");
            Environment::from_resolution(
                format!("env{i}"),
                format!("/envs/{i}"),
                &index,
                &resolution,
            )
            .expect("materializes")
        })
        .collect();
    // Packing encodes and checksums the manifest (archive bytes are
    // modelled, not produced), so its cost is per pack, not per byte.
    let pack_s = secs(|| {
        for _ in 0..ROUNDS {
            for env in &envs {
                black_box(PackedEnv::pack(env).archive_bytes());
            }
        }
    });
    let mut lowered = 0usize;
    let lower_s = secs(|| lowered = drug::build(dag_batches, seed).tasks.len());
    let calls = (ROUNDS * sources.len()) as f64;
    vec![
        ("pyenv.analyze.us_per_source", analyze_s * 1e6 / calls),
        ("pyenv.resolve.us_per_resolve", resolve_s * 1e6 / calls),
        ("pyenv.pack.us_per_pack", pack_s * 1e6 / calls),
        (
            "dataflow.lower.us_per_task",
            lower_s * 1e6 / lowered.max(1) as f64,
        ),
    ]
}

/// Arrival times of the three `serving_steady` tenants over `horizon`,
/// merged in time order.
fn arrival_schedule(seed: u64, horizon: f64) -> Vec<f64> {
    let mut all = Vec::new();
    for (i, tenant) in serving_tenants(STEADY_RATE, horizon)
        .into_iter()
        .enumerate()
    {
        let mut p = ArrivalProcess::new(tenant.arrivals, derive_seed(seed, 30 + i as u64));
        loop {
            let at_secs = p.next_arrival().as_secs();
            if at_secs >= horizon {
                break;
            }
            all.push(at_secs);
        }
    }
    all.sort_by(f64::total_cmp);
    all
}

/// `workqueue.streaming`: drive `StreamingMaster` directly with the
/// `serving_steady` arrival schedule (no admission, fair share or warm
/// pool), a span around every call. What the gateway adds on top is
/// `serving.gateway.over_streaming_s`.
pub fn streaming_layer(
    tracer: &mut Tracer,
    seed: u64,
    horizon: f64,
    function: &ServingFunction,
    workers: u32,
) -> Metrics {
    let arrivals = arrival_schedule(seed, horizon);
    let config = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
        .with_seed(derive_seed(seed, 7))
        .with_shards(1)
        .with_telemetry(Recorder::disabled());
    // Every invocation warm: the profile plus the in-container set-up.
    let mut profile: SimTaskProfile = function.profile;
    profile.duration_secs += ActivationModel::for_tech(ActivationTech::Docker).warm_overhead();
    let spans_before = tracer.spans().len();
    let mut submitted = 0usize;
    let direct_wall_s = secs(|| {
        tracer.span("streaming.drive", |tracer| {
            let mut master =
                StreamingMaster::new(&config, workers, serving_node()).expect("one shard streams");
            let mut next = 0usize;
            let mut t = 0.0;
            while t < horizon {
                let t_end = (t + SERVING_TICK_SECS).min(horizon);
                let mut batch = Vec::new();
                while next < arrivals.len() && arrivals[next] < t_end {
                    batch.push(TaskSpec::new(
                        TaskId(next as u64),
                        function.name.clone(),
                        vec![
                            function.env.clone(),
                            FileRef::data(format!("req-{next}"), function.input_bytes),
                        ],
                        4 << 10,
                        profile,
                    ));
                    next += 1;
                }
                if !batch.is_empty() {
                    submitted += batch.len();
                    tracer.span("streaming.submit", |_| {
                        master.submit(SimTime::from_secs(t_end), batch)
                    });
                }
                tracer.span("streaming.run_until", |_| {
                    master.run_until(SimTime::from_secs(t_end))
                });
                tracer.span("streaming.take_new_results", |_| {
                    black_box(master.take_new_results().len())
                });
                t = t_end;
            }
            tracer.span("streaming.drain", |_| master.drain());
            let report = tracer.span("streaming.finish", |_| master.finish());
            assert_eq!(report.abandoned_tasks, 0, "direct drive abandoned tasks");
            assert_eq!(report.task_count, submitted, "direct drive lost tasks");
        })
    });
    let spans = &tracer.spans()[spans_before..];
    let of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .collect()
    };
    let run_until = of("streaming.run_until");
    let tenth = (run_until.len() / 10).max(1);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let take = of("streaming.take_new_results");
    vec![
        (
            "workqueue.streaming.submit_us_per_task",
            of("streaming.submit").iter().sum::<f64>() * 1e6 / submitted.max(1) as f64,
        ),
        (
            "workqueue.streaming.run_until_us_per_tick_p50",
            median(&run_until) * 1e6,
        ),
        (
            "workqueue.streaming.run_until_us_per_tick_p99",
            percentile(&run_until, 99.0) * 1e6,
        ),
        (
            "workqueue.streaming.take_results_us_per_tick",
            mean(&take) * 1e6,
        ),
        (
            "workqueue.streaming.finish_s",
            of("streaming.finish").iter().sum(),
        ),
        (
            "workqueue.streaming.tick_cost_growth",
            mean(&run_until[run_until.len() - tenth..]) / mean(&run_until[..tenth]),
        ),
        ("workqueue.streaming.direct_wall_s", direct_wall_s),
    ]
}

/// The serving policy structures, each alone: arrival sampling, the
/// stride pick over the three tenants, and warm-pool acquisition at the
/// pool size the gateway defaults to.
pub fn serving_micro(seed: u64, workers: u32) -> Metrics {
    const ARRIVALS: usize = 200_000;
    let tenant = serving_tenants(STEADY_RATE, 200.0)
        .pop()
        .expect("three tenants");
    let mut process = ArrivalProcess::new(tenant.arrivals, seed);
    let arrivals_s = secs(|| {
        for _ in 0..ARRIVALS {
            black_box(process.next_arrival());
        }
    });
    const PICKS: usize = 1_000_000;
    let mut fair = FairScheduler::new(&[
        (PriorityClass::Standard, 1),
        (PriorityClass::Standard, 2),
        (PriorityClass::Standard, 4),
    ]);
    let fair_s = secs(|| {
        for _ in 0..PICKS {
            black_box(fair.pick(|_| true));
        }
    });
    const ACQUIRES: usize = 200_000;
    let mut pool = WarmPool::new(WarmPoolConfig::new(workers as usize * 8, 30.0));
    let pool_s = secs(|| {
        for i in 0..ACQUIRES {
            // 44 dispatches per 0.25 s tick, as at the steady rate.
            black_box(pool.acquire(0, (i / 44) as f64 * SERVING_TICK_SECS));
        }
    });
    vec![
        (
            "serving.arrivals.ns_per_arrival",
            arrivals_s * 1e9 / ARRIVALS as f64,
        ),
        ("serving.fair.ns_per_pick", fair_s * 1e9 / PICKS as f64),
        (
            "serving.warmpool.ns_per_acquire",
            pool_s * 1e9 / ACQUIRES as f64,
        ),
    ]
}

/// `funcx` and `core.parallel`: the activation model's sampling loop, and
/// the serial `run_job` loop against `run_jobs` on the fig6 task grid.
pub fn core_layers(seed: u64) -> Metrics {
    const CALLS: u32 = 200;
    let activation_s = secs(|| {
        for i in 0..CALLS {
            black_box(measure_activation(
                ActivationTech::Singularity,
                "site",
                1000,
                seed.wrapping_add(u64::from(i)),
            ));
        }
    });
    let jobs = || {
        let mut jobs = Vec::new();
        for s in seed..seed.wrapping_add(4) {
            for n in [50u64, 100, 200, 400] {
                let w = hep::build(n, s ^ n);
                jobs.extend(point_jobs(
                    n,
                    &w,
                    &standard_strategies(&w),
                    &|strategy| hep::master_config(strategy, s),
                    6,
                    hep::worker_spec(8),
                ));
            }
        }
        jobs
    };
    let (serial_jobs, parallel_jobs) = (jobs(), jobs());
    let mut serial = Vec::new();
    let serial_s = secs(|| serial = serial_jobs.into_iter().map(run_job).collect());
    let mut parallel = Vec::new();
    let parallel_s = secs(|| parallel = run_jobs(parallel_jobs));
    assert_eq!(
        serial, parallel,
        "parallel sweep must equal the serial loop"
    );
    vec![
        (
            "funcx.activation.us_per_call",
            activation_s * 1e6 / f64::from(CALLS),
        ),
        ("core.parallel.speedup", serial_s / parallel_s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_replay_counts_label_changes() {
        let (secs, changes, monitor_ns) = allocate_replay(400, 7);
        assert!(secs > 0.0 && monitor_ns > 0.0);
        // Four categories each learn a label at least once.
        assert!(changes >= 4, "{changes} label changes");
        assert_eq!(allocate_replay(400, 7).1, changes, "counts repeat exactly");
    }

    #[test]
    fn direct_drive_serves_the_whole_schedule() {
        let function = ServingFunction::synthetic(
            "classify",
            50 << 20,
            ActivationTech::Docker,
            SimTaskProfile::new(0.5, 1.0, 1024, 256),
            64 << 10,
        );
        let mut tracer = Tracer::new("unit");
        let m = streaming_layer(&mut tracer, 3, 2.0, &function, 16);
        let get = |name: &str| m.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("workqueue.streaming.direct_wall_s") > 0.0);
        assert!(
            get("workqueue.streaming.run_until_us_per_tick_p99")
                >= get("workqueue.streaming.run_until_us_per_tick_p50")
        );
        // 8 ticks of 0.25 s: one run_until and one take per tick, all
        // children of the drive span.
        assert_eq!(tracer.durations("streaming.run_until").len(), 8);
        assert!(tracer.self_secs("streaming.drive") >= 0.0);
    }
}
