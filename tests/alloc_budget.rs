//! Allocation budget: what a run allocates and how many bytes it holds live
//! at its peak, counted by this binary's global allocator and pinned as exact
//! counts. Four shapes: the benchmark's `master_batch` at 20 000 tasks (per
//! task), its `master_dag_chaos` at a twentieth of its size (per task: the
//! journal, its images and its recoveries), a streamed serving horizon at
//! `serving_steady`'s rate (per invocation) and `serving_overload` whole
//! (per offered invocation: the live telemetry tail, the SLO monitor and
//! the control loop it drives, the journal and two crashes). No count depends on the
//! host, so a change that moves one moves it on purpose and re-pins it
//! here, saying why.
//!
//! The tally is per thread: the test harness runs tests side by side, and
//! both runs here stay on the thread that starts them. Each test warms up
//! on a small run first, so process-wide lazies (interned telemetry names,
//! environment memos) are already built when counting starts.

use lfm_core::prelude::*;
use lfm_core::serving::admission::AdmissionConfig;
use lfm_core::telemetry::slo::{BurnWindow, Severity, SloConfig};
use lfm_core::telemetry::{DecodeError, Name, Recorder, ShardDecoder};
use lfm_core::workloads::drug;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation counts of one thread since its last [`measure`] began.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    allocs: u64,
    /// Bytes those calls asked for (a `realloc` its new size).
    bytes: u64,
    /// Bytes allocated and not yet freed; below zero once the measured code
    /// frees what was live before it began.
    live: i64,
    /// The highest `live` reached.
    peak: i64,
}

thread_local! {
    // Const-initialised and without a destructor: touching it never
    // allocates, which the allocator itself depends on.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocs: 0, bytes: 0, live: 0, peak: 0 })
    };
}

struct Counting;

impl Counting {
    fn note(grown: Option<usize>, delta: i64) {
        let _ = TALLY.try_with(|t| {
            let mut v = t.get();
            if let Some(bytes) = grown {
                v.allocs += 1;
                v.bytes += bytes as u64;
            }
            v.live += delta;
            v.peak = v.peak.max(v.live);
            t.set(v);
        });
    }
}

// SAFETY: every method forwards its own arguments to `System` and returns
// what `System` returns, so `System`'s guarantees are this allocator's. The
// tally beside it is a thread-local `Cell` that never allocates and touches
// no memory a caller owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(Some(layout.size()), layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(Some(layout.size()), layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::note(None, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(Some(new_size), new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` from a zeroed tally; its result and what it allocated.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|t| t.set(Tally::default()));
    let out = f();
    (out, TALLY.with(Cell::get))
}

/// `lfm_benchmark`'s seed derivation (splitmix64 of `seed + salt`).
fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `lfm_benchmark`'s `batch_tasks`: `n` one-core tasks in four categories
/// sharing an environment pack and a calibration file, each with an input
/// of its own. With `distinct_peaks` task `i` peaks at `200 + i` MB instead
/// (durations unchanged).
fn batch_tasks(n: u64, seed: u64, distinct_peaks: bool) -> Vec<TaskSpec> {
    let mut rng = SimRng::seeded(seed);
    let env = FileRef::environment("bench-env", 100 << 20, 300 << 20, 2000, 400);
    let calib = FileRef::shared_data("bench-calib", 4 << 20);
    (0..n)
        .map(|i| {
            let cat = i % 4;
            let duration = rng.uniform(30.0, 41.0);
            let memory = (rng.uniform(0.8, 1.0) * (300 + 50 * cat) as f64) as u64;
            let memory = if distinct_peaks { 200 + i } else { memory };
            TaskSpec::new(
                TaskId(i),
                format!("cat{cat}"),
                vec![
                    FileRef::data(format!("in-{i}"), 64 << 10),
                    env.clone(),
                    calib.clone(),
                ],
                1 << 20,
                SimTaskProfile::new(duration, 1.0, memory, 200),
            )
        })
        .collect()
}

/// One `master_batch`-shaped run at seed 7 (256 workers of 16 cores, Auto,
/// journal and telemetry off) examining in `policy` order: what the
/// caller's task vector holds, and what the run allocates with it.
fn batch_run(n: u64, policy: SchedulePolicy, distinct_peaks: bool) -> (Tally, Tally, RunReport) {
    let (tasks, input) = measure(|| batch_tasks(n, derive_seed(7, 1), distinct_peaks));
    let config = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
        .with_policy(policy)
        .with_seed(derive_seed(7, 2))
        .with_sched(SchedImpl::Indexed)
        .with_shards(1)
        .with_telemetry(Recorder::disabled());
    let node = NodeSpec::new(16, 64 * 1024, 128 * 1024);
    let (report, run) = measure(|| run_workload(&config, tasks, 256, node));
    (input, run, report)
}

#[test]
fn master_batch_allocations_and_peak_live_bytes_are_pinned() {
    batch_run(200, SchedulePolicy::Fifo, false);
    const N: u64 = 20_000;
    let (input, run, report) = batch_run(N, SchedulePolicy::Fifo, false);
    assert_eq!(report.results.len() as u64, N + report.retried_tasks);
    // The run's peak counts the caller's task vector it consumes: the
    // specs are freed as their rows go into the prepared table, so the peak
    // is where both are live at once.
    let peak = input.live + run.peak;
    eprintln!(
        "master_batch {N}: input {} B/task; run {} allocs/task, {} B allocated/task, \
         peak live {} B/task ({} B/task above the input)",
        input.live / N as i64,
        run.allocs as f64 / N as f64,
        run.bytes / N,
        peak / N as i64,
        run.peak / N as i64,
    );
    // 389.7 B per task of input; 3.08 allocations and 526 B live at the
    // peak per task (921 B while the table kept every spec and the calendar
    // was sized by the task count). 68 099 allocations while the ready
    // queue and the park groups were B-trees: under Fifo each is one deque
    // now, which grows by doubling where a tree allocated a node per eleven
    // attempts.
    assert_eq!(
        (input.live, run.allocs, peak),
        (7_794_000, 61_502, 10_515_097),
        "input live bytes, run allocations, run peak live bytes"
    );

    // The scheduler's worst case: largest first over a distinct peak per
    // task, so every pending attempt has an order rank of its own. 5.38
    // allocations and 565 B live at the peak per task. Each rank's deque
    // is a buffer of its own, allocated once in the ready queue and once
    // in a park group: 2 allocations per task more than the B-trees keyed
    // by (rank, seq) the queues were (67 596 and 10 515 097, the peak then
    // inside the table's build).
    let (input, run, report) = batch_run(N, SchedulePolicy::LargestFirst, true);
    assert_eq!(report.results.len() as u64, N + report.retried_tasks);
    let peak = input.live + run.peak;
    eprintln!(
        "master_batch {N}, largest first, distinct peaks: {} allocs/task, \
         peak live {} B/task",
        run.allocs as f64 / N as f64,
        peak / N as i64,
    );
    assert_eq!(
        (input.live, run.allocs, peak),
        (7_794_000, 107_595, 11_294_104),
        "largest first, distinct peaks: input live bytes, run allocations, run peak live bytes"
    );
}

/// One `master_dag_chaos`-shaped run at seed 7 over `batches` drug
/// pipelines: 14 Theta nodes, Auto, the benchmark's background faults and
/// four master crashes, a journal compacting every 4 096 records, no
/// telemetry. What the caller's task vector holds, and what the run
/// allocates with it, and the task count.
fn dag_chaos_run(batches: u64) -> (Tally, Tally, RunReport, u64) {
    let (tasks, input) = measure(|| drug::build(batches, derive_seed(7, 3)).tasks);
    let n = tasks.len() as u64;
    // `lfm_benchmark`'s `chaos_plan`: crash gaps average a twelfth of an
    // underestimate of the run's events.
    let est_events = tasks.len() as f64 * 2.0;
    let plan = FaultPlan::reliable()
        .with(FaultSpec::straggler(1.0, 1.0, 1.25))
        .with(FaultSpec::stage_in_failure(0.025))
        .with(FaultSpec::message_loss(0.015))
        .with(FaultSpec::spurious_kill(0.015))
        .with(FaultSpec::master_crash((est_events / 12.0).max(1.0), 4));
    let config = drug::master_config(Strategy::Auto(AutoConfig::default()), derive_seed(7, 4))
        .with_shards(1)
        .with_faults(plan)
        .with_resilience(ResilienceConfig {
            degrade_env_failures: None,
            ..ResilienceConfig::default()
        })
        .with_durability(DurabilityConfig::journal_with_snapshots(4096))
        .with_telemetry(Recorder::disabled());
    let (report, run) = measure(|| run_workload(&config, tasks, 14, drug::worker_spec()));
    (input, run, report, n)
}

#[test]
fn journaled_chaos_allocations_and_peak_live_bytes_are_pinned() {
    dag_chaos_run(20);
    let (input, run, report, n) = dag_chaos_run(400);
    assert_eq!(report.abandoned_tasks, 0);
    assert_eq!((report.master_crashes, report.recoveries), (4, 4));
    let peak = input.live + run.peak;
    eprintln!(
        "master_dag_chaos {n}: input {} B/task; run {} allocs/task, {} B allocated/task, \
         peak live {} B/task ({} B/task above the input); journal {} B, {} replayed",
        input.live / n as i64,
        run.allocs as f64 / n as f64,
        run.bytes / n,
        peak / n as i64,
        run.peak / n as i64,
        report.journal_bytes,
        report.replayed_events,
    );
    // With debug assertions the journal's guards allocate too: every
    // appended record decodes again, every compaction decodes the image
    // chain and compares it with the live state, and every crash checks
    // replay against the live ledger, sample stores and queue. Release:
    // 8.25 allocations and 1 204 B live at the peak per task; debug: 12.78
    // and 1 611 B. Both
    // moved twice since first pinned (20 937 / 2 910 456 release, 37 137 /
    // 4 260 343 debug), when the ledger stopped keeping a list of the tasks
    // each compaction must carry (a vector whose capacity followed the
    // busiest tail) and full images took the delta layout (other image
    // buffer sizes). Moved again when the ready queue and the park groups
    // became one deque per order rank (20 882 / 2 892 840 release, 37 101
    // / 4 243 335 debug): 109 fewer allocations than B-tree nodes, and a
    // peak 25 280 B higher, which a doubled deque holds in spare capacity.
    // Moved again when replay began folding the queue into the scheduler
    // it restores (20 773 / 2 918 120 release, 36 992 / 4 268 615 debug):
    // no slot deque, position map and re-push per recovery, 616 fewer
    // allocations at an unchanged peak. In debug the compaction guard
    // stopped copying the live ledger into an image to compare against.
    // Moved again when the image's sample stores became an allocator that
    // recovery installs (20 157 / 2 918 120 release, 30 949 / 3 820 180
    // debug): no sample vectors grown while decoding and then replayed into
    // a second, fresh allocator per recovery, no vector of per-category
    // copies behind a full image, and a delta that groups its samples by
    // sorting one (category, place) pair per observation instead of growing
    // three vectors per category — 364 fewer allocations, a peak 26 848 B
    // lower. In debug every crash now also compares the replayed sample
    // stores with the live ones, copying both: a peak 46 128 B higher.
    // Moved again when the journal's tail became the bytes it flushed
    // (19 793 / 2 891 272 release, 30 678 / 3 866 308 debug): no record
    // is cloned to be kept — a row's box and category — and a delta copies
    // its rows from the tail's bytes, 4 879 fewer allocations. With no
    // clones held, and each segment joining the image chain without the
    // spare capacity its buffer grew by, the peak is 567 170 B lower
    // (593 945 debug).
    let pinned = if cfg!(debug_assertions) {
        (1_111_456, 25_799, 3_272_363)
    } else {
        (1_111_456, 14_914, 2_324_102)
    };
    assert_eq!(
        (input.live, run.allocs, peak),
        pinned,
        "input live bytes, run allocations, run peak live bytes"
    );
}

/// `lfm_benchmark`'s serving tenants: free/pro/enterprise at weights
/// 1/2/4 sharing `rate`, enterprise swinging ±25 % over the horizon and
/// bursting.
fn serving_tenants(rate: f64, horizon: f64) -> Vec<TenantConfig> {
    let unit = rate / 7.0;
    vec![
        TenantConfig::new("free", 1, ArrivalConfig::poisson(unit)).with_max_queue_depth(256),
        TenantConfig::new("pro", 2, ArrivalConfig::poisson(2.0 * unit)).with_max_queue_depth(256),
        TenantConfig::new(
            "enterprise",
            4,
            ArrivalConfig::poisson(4.0 * unit)
                .with_diurnal(0.25, horizon)
                .with_bursts(0.01, 2.0, 2.0),
        )
        .with_max_queue_depth(256),
    ]
}

/// One 0.5 s, 1-core function in a 50 MB Docker environment.
fn serving_function() -> ServingFunction {
    ServingFunction::synthetic(
        "classify",
        50 << 20,
        ActivationTech::Docker,
        SimTaskProfile::new(0.5, 1.0, 1024, 256),
        64 << 10,
    )
}

/// 16 workers of 16 cores, 0.25 s ticks, the benchmark's dispatch window
/// and admission limit, over `horizon` simulated seconds.
fn serving_config(seed: u64, horizon: f64) -> ServingConfig {
    ServingConfig::new(16, NodeSpec::new(16, 64 * 1024, 100 * 1024))
        .with_seed(seed)
        .with_horizon(horizon)
        .with_tick(0.25)
        .with_dispatch_window(1024)
        .with_admission(AdmissionConfig::new(1200))
}

/// A gateway on `serving_steady`'s shape (three tenants at 175
/// invocations a second), unjournaled and untraced, over `horizon`
/// simulated seconds.
fn serving_run(horizon: f64) -> (Tally, ServingReport) {
    let config = serving_config(derive_seed(7, 7), horizon).with_telemetry(Recorder::disabled());
    let (function, tenants) = (serving_function(), serving_tenants(175.0, horizon));
    let (report, run) = measure(|| ServingGateway::new(config, vec![function], tenants).run());
    (run, report)
}

#[test]
fn streamed_allocations_and_peak_live_bytes_are_pinned() {
    serving_run(2.0);
    let (run, report) = serving_run(100.0);
    let n = report.admitted;
    assert!(n > 15_000, "admitted only {n}");
    assert_eq!(report.completed, n, "steady load completes what it admits");
    eprintln!(
        "serving 100 s: {n} invocations; {} allocs/invocation, {} B allocated/invocation, \
         peak live {} B/invocation",
        run.allocs as f64 / n as f64,
        run.bytes / n,
        run.peak / n as i64,
    );
    // 8.87 allocations and 623 B live at the peak per invocation (894 B
    // while the streamed table kept every admitted spec). One allocation
    // and 160 B of peak fewer since the ledger stopped keeping a list of
    // the tasks each admission touched. 654 allocations fewer (158 054)
    // since the ready queue and the park groups became deques: a tick's
    // arrivals fill one buffer, not a B-tree's nodes. 3.25 allocations per
    // invocation since an invocation is a row (157 400 and 11 058 321
    // before): the gateway submits (shape, id, duration) rows where it
    // built a spec of four allocations, the master copies the shape's
    // columns where it interned and freed the spec's names, the gateway
    // reads task ends by reference where it copied each tick's result
    // rows, and neither the in-flight table, the warm pool nor the latency
    // sketches allocate a B-tree node per entry. The peak is 23 042 B
    // higher: the sketches hold their buckets as one run from the lowest to
    // the highest, and the in-flight table is a hash table sized to the
    // dispatch window.
    assert_eq!(
        (n, run.allocs, run.peak),
        (17_739, 57_626, 11_081_363),
        "invocations, allocations, peak live bytes"
    );
}

/// A gateway on `serving_overload`'s shape at seed 7 over `horizon`
/// simulated seconds: 380 invocations a second (1.5× capacity), a recorder
/// on, the SLO monitor tailing it live every tick and driving the control
/// loop, a journal, and two master crashes. The recorder is built inside
/// the measured run, as the workload builds it beside the gateway.
fn overload_run(horizon: f64) -> (ServingReport, Tally) {
    measure(|| {
        let config = serving_config(derive_seed(7, 8), horizon)
            .with_slo(
                SloConfig::new(0.95)
                    .with_bucket_secs(1.0)
                    .with_latency_threshold(3.0)
                    .with_windows(vec![BurnWindow::new(3.0, 9.0, 2.0, Severity::Page)]),
            )
            .with_control(
                ControlConfig::new()
                    .with_cooldown(2.0)
                    .with_depth_factor(0.25)
                    .with_max_level(5),
            )
            .with_durability(DurabilityConfig {
                restart_secs: 0.5,
                ..DurabilityConfig::journal_with_snapshots(256)
            })
            .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(6000.0, 2)))
            .with_telemetry(Recorder::enabled_with_capacity(1 << 22));
        let tenants = serving_tenants(380.0, horizon);
        ServingGateway::new(config, vec![serving_function()], tenants).run()
    })
}

#[test]
fn slo_tailed_overload_allocations_and_peak_live_bytes_are_pinned() {
    overload_run(2.0);
    let (report, run) = overload_run(200.0);
    let n = report.offered;
    assert_eq!(
        (report.master_crashes, report.gateway_recoveries),
        (2, 2),
        "both crashes fire and the gateway recovers from each"
    );
    assert!(!report.control_actions.is_empty(), "alerts drive control");
    eprintln!(
        "serving_overload 200 s: {n} offered, {} admitted, {} control actions, {} lost; \
         {} allocs/offered, {} B allocated/offered, peak live {} B",
        report.admitted,
        report.control_actions.len(),
        report.lost,
        run.allocs as f64 / n as f64,
        run.bytes / n,
        run.peak,
    );
    // 5.91 allocations and 1 624 B allocated per offered invocation in
    // release (124.7 MB in all), 18.79 MB live at the peak. The SLO monitor
    // takes each 0.25 s tick's records at the id level from the reader's
    // visitor, so no record is resolved or collected on the way. 1 707 815
    // allocations, 200.8 MB and an 18.86 MB peak (22.2 per offered
    // invocation, debug 8 003 830 and 26 978 983) while every tick drained
    // the whole recorder into owned records (a `String` per name, category
    // and attr) before the monitor looked at 27 % of them. Debug builds
    // also count the journal's guards. The monitor's id table is as long as
    // the highest id it sees, and ids are handed out process-wide in
    // first-intern order: the figures are this binary's whole run, and a
    // run filtered to this test alone reads a few allocations and bytes
    // differently. Moved when the journal image's sample stores became an
    // allocator that recovery installs (459 806 / 18 793 159 release,
    // 6 755 821 / 26 985 703 debug): each of the two recoveries decodes
    // samples into the allocator it keeps instead of into vectors it then
    // replays into a fresh one. Moved again when the journal's tail
    // became the bytes it flushed (453 728 / 18 791 303 release, 6 740 381
    // / 26 903 311 debug): no `Submitted` record's spec and no result row
    // is cloned to be kept, 139 051 fewer allocations. With no clones
    // held, and each segment joining the image chain without its buffer's
    // spare capacity — the deltas between two rebases held up to 0.4 MB of
    // it — the peak is 2 336 874 B lower (2 320 390 debug). Moved again
    // when an invocation became a row (314 677 / 16 454 429 release,
    // 6 601 330 / 24 582 921 debug): no spec built per dispatch and no name
    // interned per admission, a journaled admission writing its spec's
    // bytes from the shape and the row, no result rows copied per tick, and
    // no B-tree nodes in the in-flight table, the warm pool or the latency
    // sketches; 217 612 fewer allocations. The peak is 4 268 B higher
    // (5 632 debug): the sketches' contiguous bucket runs and the in-flight
    // hash table's spare capacity. A debug build still builds the spec each
    // journaled admission stands for, to check its bytes read back as it.
    let pinned = if cfg!(debug_assertions) {
        (76_766, 20_674, 15, 340, 6_516_396, 24_588_553)
    } else {
        (76_766, 20_674, 15, 340, 97_065, 16_458_697)
    };
    assert_eq!(
        (
            n,
            report.admitted,
            report.control_actions.len() as u64,
            report.lost,
            run.allocs,
            run.peak
        ),
        pinned,
        "offered, admitted, control actions, lost, allocations, peak live bytes"
    );
}

/// A corrupt attr count allocates nothing for the attrs it claims: the
/// decoder checks it against the bytes left (an attr takes at least two)
/// before reading one. Eleven bytes: a span with every field zero (name and
/// category id 0) and the attr flag, whose count says 2^20. Sizing a list
/// for that count first asked for 48 MiB.
#[test]
fn a_corrupt_attr_count_allocates_nothing_for_its_attrs() {
    Name::intern("alloc.test.name");
    let span = [0x40, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x40];
    let (first, tally) = measure(|| ShardDecoder::new(&span).next());
    assert!(
        matches!(first, Some(Err(DecodeError::Codec(_)))),
        "{first:?}"
    );
    assert!(tally.bytes < 1024, "decoding 11 bytes allocated {tally:?}");
}
