//! The six workloads: seed-derived input generators, one run of the
//! product over them, and the output checks.
//!
//! Every generator takes `scale`, a divisor on the workload's size: 1 is
//! the benchmark, 100 is the smoke run the unit tests make. The product
//! receives only the generated inputs and configs; `--seed` is the only
//! source of randomness.

use crate::stats::{fnv1a64, percentile};
use lfm_core::experiments::sweep::SweepPoint;
use lfm_core::experiments::{fig6, fig7, fig8, fig9};
use lfm_core::funcx::container::ActivationTech;
use lfm_core::monitor::sim::SimTaskProfile;
use lfm_core::serving::admission::AdmissionConfig;
use lfm_core::serving::arrivals::ArrivalConfig;
use lfm_core::serving::control::ControlConfig;
use lfm_core::serving::gateway::{ServingConfig, ServingFunction, ServingGateway};
use lfm_core::serving::report::ServingReport;
use lfm_core::serving::tenant::TenantConfig;
use lfm_core::simcluster::node::NodeSpec;
use lfm_core::simcluster::rng::SimRng;
use lfm_core::telemetry::slo::{BurnWindow, Severity, SloConfig};
use lfm_core::telemetry::Recorder;
use lfm_core::workloads::{drug, genomic, hep};
use lfm_core::workqueue::allocate::{AutoConfig, Strategy};
use lfm_core::workqueue::faults::{FaultPlan, FaultSpec, ResilienceConfig};
use lfm_core::workqueue::federation::{
    partition, run_federated, FederationConfig, FederationReport, PartitionPolicy,
};
use lfm_core::workqueue::files::FileRef;
use lfm_core::workqueue::journal::DurabilityConfig;
use lfm_core::workqueue::master::{run_workload, MasterConfig, RunReport};
use lfm_core::workqueue::sched::SchedImpl;
use lfm_core::workqueue::task::{TaskId, TaskSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MasterBatch,
    MasterDagChaos,
    Federation8Shard,
    ServingSteady,
    ServingOverload,
    PaperFigs,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::MasterBatch,
        Workload::MasterDagChaos,
        Workload::Federation8Shard,
        Workload::ServingSteady,
        Workload::ServingOverload,
        Workload::PaperFigs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MasterBatch => "master_batch",
            Workload::MasterDagChaos => "master_dag_chaos",
            Workload::Federation8Shard => "federation_8shard",
            Workload::ServingSteady => "serving_steady",
            Workload::ServingOverload => "serving_overload",
            Workload::PaperFigs => "paper_figs",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds of the inputs per `setup_s` sample, so that a sample takes
    /// tens of milliseconds: serving inputs are a handful of config
    /// structs (a fraction of a microsecond), the task vectors ≈10 ms,
    /// `partition` and the figure grids a third of a second and more.
    pub fn setup_builds(self) -> u32 {
        match self {
            Workload::ServingSteady | Workload::ServingOverload => 4096,
            Workload::MasterBatch | Workload::MasterDagChaos => 8,
            Workload::Federation8Shard | Workload::PaperFigs => 1,
        }
    }
}

pub const BATCH_TASKS: u64 = 50_000;
pub const BATCH_WORKERS: u32 = 256;
pub const DAG_BATCHES: u64 = 8_000;
const DAG_WORKERS: u32 = 14;
const FEDERATION_TASKS: u64 = 100_000;
const FEDERATION_SHARDS: u32 = 8;
pub const SERVING_WORKERS: u32 = 16;
pub const SERVING_HORIZON_SECS: f64 = 200.0;
pub const SERVING_TICK_SECS: f64 = 0.25;
/// ≈0.7× and ≈1.5× of what 16 × 16 cores serve of the 0.5 s function.
pub const STEADY_RATE: f64 = 175.0;
const OVERLOAD_RATE: f64 = 380.0;
const FIG_SEEDS: u64 = 40;
/// Ring capacity per recorder shard: a run emits from one thread, so one
/// shard takes every record, and a full-scale run emits ≈0.7 M of them.
const RECORDER_SHARD_CAPACITY: usize = 1 << 22;

// The fig6–fig9 grids, exactly as the `fig*_` regenerators pass them.
const FIG6_TASKS: [u64; 4] = [50, 100, 200, 400];
const FIG6_WORKERS: [u32; 4] = [2, 4, 8, 16];
const FIG6_SIZES: [u32; 3] = [2, 4, 8];
const FIG7_BATCHES: [u64; 4] = [20, 60, 120, 240];
const FIG7_WORKERS: [u32; 4] = [4, 8, 16, 32];
const FIG8_GENOMES: [u64; 4] = [4, 10, 20, 40];
const FIG8_WORKERS: [u32; 5] = [1, 2, 4, 8, 16];
const FIG9_TASKS: [u64; 4] = [32, 64, 128, 256];
const FIG9_WORKERS: [u32; 4] = [1, 2, 4, 8];

/// splitmix64 of `seed + salt`: every sub-seed of a run derives from
/// `--seed` through this, so streams never alias.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 16-core nodes of the batch and federation clusters.
pub fn batch_node() -> NodeSpec {
    NodeSpec::new(16, 64 * 1024, 128 * 1024)
}

/// `n` independent 1-core tasks in four categories sharing an environment
/// pack and a calibration file, each with its own input: many more tasks
/// than slots (deep pending queue), label churn under Auto, and a
/// cache-affinity choice on every placement. Durations and memory peaks
/// are drawn from `seed`.
pub fn batch_tasks(n: u64, seed: u64) -> Vec<TaskSpec> {
    let mut rng = SimRng::seeded(seed);
    let env = FileRef::environment("bench-env", 100 << 20, 300 << 20, 2000, 400);
    let calib = FileRef::shared_data("bench-calib", 4 << 20);
    (0..n)
        .map(|i| {
            let cat = i % 4;
            let duration = rng.uniform(30.0, 41.0);
            let memory = (rng.uniform(0.8, 1.0) * (300 + 50 * cat) as f64) as u64;
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

/// Auto labelling on the indexed scheduler, one shard, journal and
/// telemetry off: the engine hot path alone.
pub fn batch_config(seed: u64) -> MasterConfig {
    MasterConfig::new(Strategy::Auto(AutoConfig::default()))
        .with_seed(seed)
        .with_sched(SchedImpl::Indexed)
        .with_shards(1)
        .with_telemetry(Recorder::disabled())
}

/// Background faults that average over the run (per-transfer and
/// per-execution draws, every worker mildly and differently slow) plus
/// `crashes` master crashes. A plan with a few heavy stragglers makes the
/// makespan swing by ±40 % with which of 14 workers the seed slows, and
/// abandons tasks on unlucky seeds; the benchmark needs runs that differ
/// by seed yet agree within a bound, and no failed operation.
fn chaos_plan(crashes: u32, est_events: f64) -> FaultPlan {
    let mut plan = FaultPlan::reliable()
        .with(FaultSpec::straggler(1.0, 1.0, 1.25))
        .with(FaultSpec::stage_in_failure(0.025))
        .with(FaultSpec::message_loss(0.015))
        .with(FaultSpec::spurious_kill(0.015));
    if crashes > 0 {
        // Gaps are exponential: a mean of a twelfth of the run leaves the
        // fourth crash point inside it on ≈99 % of seeds.
        plan = plan.with(FaultSpec::master_crash(
            (est_events / 12.0).max(1.0),
            crashes,
        ));
    }
    plan
}

/// One 0.5 s, 1-core function in a Docker container with a 50 MB packed
/// environment.
pub fn serving_function() -> ServingFunction {
    ServingFunction::synthetic(
        "classify",
        50 << 20,
        ActivationTech::Docker,
        SimTaskProfile::new(0.5, 1.0, 1024, 256),
        64 << 10,
    )
}

/// free/pro/enterprise at weights 1/2/4, sharing `rate` in that ratio;
/// enterprise traffic swings ±25 % over the horizon and bursts.
pub fn serving_tenants(rate: f64, horizon: f64) -> Vec<TenantConfig> {
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

pub fn serving_node() -> NodeSpec {
    NodeSpec::new(16, 64 * 1024, 100 * 1024)
}

fn serving_config(seed: u64, horizon: f64) -> ServingConfig {
    ServingConfig::new(SERVING_WORKERS, serving_node())
        .with_seed(seed)
        .with_horizon(horizon)
        .with_tick(SERVING_TICK_SECS)
        .with_dispatch_window(1024)
        .with_admission(AdmissionConfig::new(1200))
}

/// The hep/drug/genomic workloads of one seed's grids, as the fig runners
/// build them; their count fixes how many sweep jobs a seed must return.
fn fig_grid(seed: u64) -> Vec<lfm_core::workloads::common::Workload> {
    let mut workloads = Vec::new();
    for n in FIG6_TASKS {
        workloads.push(hep::build(n, seed ^ n));
    }
    for w in FIG6_WORKERS {
        let n = 2 * u64::from(w) * 8;
        workloads.push(hep::build(n, seed ^ n));
    }
    for cores in FIG6_SIZES {
        workloads.push(hep::build(200, seed ^ u64::from(cores)));
    }
    for n in FIG7_BATCHES {
        workloads.push(drug::build(n, seed ^ n));
    }
    for w in FIG7_WORKERS {
        workloads.push(drug::build(
            ((4 * u64::from(w)) / 6).max(1),
            seed ^ u64::from(w),
        ));
    }
    for n in FIG8_GENOMES {
        workloads.push(genomic::build(n, seed ^ n));
    }
    for w in FIG8_WORKERS {
        workloads.push(genomic::build(u64::from(w), seed ^ u64::from(w)));
    }
    workloads
}

/// What one repetition consumes. Built fresh per repetition (that is
/// `setup_s`) and moved into [`run`], so no clone is timed.
pub struct Inputs {
    job: Job,
    expect: Expect,
}

/// What the product is handed.
enum Job {
    Batch {
        tasks: Vec<TaskSpec>,
        config: MasterConfig,
        workers: u32,
        node: NodeSpec,
    },
    Federation {
        tasks: Vec<TaskSpec>,
        config: MasterConfig,
        fed: FederationConfig,
        workers: u32,
        node: NodeSpec,
    },
    Serving {
        config: ServingConfig,
        functions: Vec<ServingFunction>,
        tenants: Vec<TenantConfig>,
    },
    Figs {
        seeds: std::ops::Range<u64>,
    },
}

/// What the generator knows that the output checks need.
#[derive(Default)]
struct Expect {
    /// Operations the run must account for: tasks submitted, or sweep
    /// jobs the grids must return (serving counts its own arrivals).
    attempted: u64,
    /// The product's recorder, where the workload turns telemetry on.
    recorder: Option<Recorder>,
    /// At least one master crash must fire (not at smoke scale, where the
    /// run ends before the first crash point).
    crash: bool,
    /// Serving above capacity: refusals and control actions are expected.
    overload: bool,
    /// Host seconds `partition` took at set-up (the run partitions again
    /// inside `run_federated`; this is the layer's own number).
    partition_s: f64,
    /// Tasks across the hep/drug/genomic grid points of all seeds.
    grid_tasks: u64,
}

/// Which of the chaos workload's costly features are on. The workload is
/// [`DagVariant::FULL`]; the per-layer attribution turns one off at a time
/// and reads the difference in host seconds.
#[derive(Debug, Clone, Copy)]
pub struct DagVariant {
    pub crashes: bool,
    pub journal: bool,
    pub telemetry: bool,
}

impl DagVariant {
    pub const FULL: DagVariant = DagVariant {
        crashes: true,
        journal: true,
        telemetry: true,
    };
}

pub fn dag_chaos_inputs(seed: u64, scale: u64, variant: DagVariant) -> Inputs {
    let scale = scale.max(1);
    let tasks = drug::build((DAG_BATCHES / scale).max(1), derive_seed(seed, 3)).tasks;
    let recorder = variant
        .telemetry
        .then(|| Recorder::enabled_with_capacity(RECORDER_SHARD_CAPACITY));
    // An underestimate (a task takes ≈6 calendar events), so that four
    // crash points land well inside the run.
    let est_events = tasks.len() as f64 * 2.0;
    let crashes = if variant.crashes { 4 } else { 0 };
    let durability = if variant.journal {
        DurabilityConfig::journal_with_snapshots(4096)
    } else {
        DurabilityConfig::none()
    };
    let config = drug::master_config(Strategy::Auto(AutoConfig::default()), derive_seed(seed, 4))
        .with_shards(1)
        .with_faults(chaos_plan(crashes, est_events))
        // Falling back to the shared filesystem after six failed env
        // stage-ins is a one-way door some seeds go through and some do
        // not (makespan 21 k s or 29 k s); the benchmark keeps it shut.
        .with_resilience(ResilienceConfig {
            degrade_env_failures: None,
            ..ResilienceConfig::default()
        })
        .with_durability(durability)
        .with_telemetry(recorder.clone().unwrap_or_else(Recorder::disabled));
    Inputs {
        expect: Expect {
            attempted: tasks.len() as u64,
            recorder,
            crash: variant.crashes && scale == 1,
            ..Expect::default()
        },
        job: Job::Batch {
            tasks,
            config,
            workers: DAG_WORKERS,
            node: drug::worker_spec(),
        },
    }
}

/// `master_batch` through a one-shard federation: the same run (pinned
/// bitwise-equal by the product's tests), whose report also carries the
/// number of calendar events processed.
pub fn batch_as_one_shard(seed: u64) -> Inputs {
    Inputs {
        expect: Expect {
            attempted: BATCH_TASKS,
            ..Expect::default()
        },
        job: Job::Federation {
            tasks: batch_tasks(BATCH_TASKS, derive_seed(seed, 1)),
            config: batch_config(derive_seed(seed, 2)),
            fed: FederationConfig::new(1),
            workers: BATCH_WORKERS,
            node: batch_node(),
        },
    }
}

pub fn build(workload: Workload, seed: u64, scale: u64) -> Inputs {
    let scale = scale.max(1);
    let shrink = |n: u64| (n / scale).max(1);
    match workload {
        Workload::MasterBatch => {
            let tasks = batch_tasks(shrink(BATCH_TASKS), derive_seed(seed, 1));
            Inputs {
                expect: Expect {
                    attempted: tasks.len() as u64,
                    ..Expect::default()
                },
                job: Job::Batch {
                    tasks,
                    config: batch_config(derive_seed(seed, 2)),
                    workers: shrink(u64::from(BATCH_WORKERS)).max(2) as u32,
                    node: batch_node(),
                },
            }
        }
        Workload::MasterDagChaos => dag_chaos_inputs(seed, scale, DagVariant::FULL),
        Workload::Federation8Shard => {
            let tasks = batch_tasks(shrink(FEDERATION_TASKS), derive_seed(seed, 5));
            let fed = FederationConfig::new(FEDERATION_SHARDS)
                .with_partition(PartitionPolicy::ByComponent);
            let t = std::time::Instant::now();
            let owners = partition(&tasks, fed.shards, fed.partition);
            let partition_s = t.elapsed().as_secs_f64();
            assert_eq!(owners.len(), tasks.len());
            Inputs {
                expect: Expect {
                    attempted: tasks.len() as u64,
                    partition_s,
                    ..Expect::default()
                },
                job: Job::Federation {
                    tasks,
                    config: batch_config(derive_seed(seed, 6)),
                    fed,
                    workers: shrink(u64::from(BATCH_WORKERS)).max(u64::from(FEDERATION_SHARDS))
                        as u32,
                    node: batch_node(),
                },
            }
        }
        Workload::ServingSteady => {
            let horizon = SERVING_HORIZON_SECS / scale as f64;
            Inputs {
                expect: Expect::default(),
                job: Job::Serving {
                    config: serving_config(derive_seed(seed, 7), horizon),
                    functions: vec![serving_function()],
                    tenants: serving_tenants(STEADY_RATE, horizon),
                },
            }
        }
        Workload::ServingOverload => {
            let horizon = SERVING_HORIZON_SECS / scale as f64;
            let recorder = Recorder::enabled_with_capacity(RECORDER_SHARD_CAPACITY);
            let config = serving_config(derive_seed(seed, 8), horizon)
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
                // With the default 5 s restart, whether a crash lands in
                // the busiest 1 % decides p99 (5 s or 14 s by seed).
                .with_durability(DurabilityConfig {
                    restart_secs: 0.5,
                    ..DurabilityConfig::journal_with_snapshots(256)
                })
                // The full-scale run handles ≈45 k master events; a mean
                // gap of 6 k puts both crash points inside it.
                .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(6000.0, 2)))
                .with_telemetry(recorder.clone());
            Inputs {
                expect: Expect {
                    recorder: Some(recorder),
                    crash: scale == 1,
                    overload: true,
                    ..Expect::default()
                },
                job: Job::Serving {
                    config,
                    functions: vec![serving_function()],
                    tenants: serving_tenants(OVERLOAD_RATE, horizon),
                },
            }
        }
        Workload::PaperFigs => {
            // A window of consecutive seeds, as the regenerators' own
            // `seed ^ n` scheme expects, placed by `--seed` so that the
            // windows of neighbouring `--seed` values do not overlap.
            let first = derive_seed(seed, 9) >> 1;
            let seeds = first..first + shrink(FIG_SEEDS);
            // Four strategies per hep/drug/genomic point, three funcX
            // modes per fig9 point.
            let mut attempted = 0u64;
            let mut grid_tasks = 0u64;
            for s in seeds.clone() {
                let grid = fig_grid(s);
                attempted +=
                    4 * grid.len() as u64 + 3 * (FIG9_TASKS.len() + FIG9_WORKERS.len()) as u64;
                grid_tasks += grid.iter().map(|w| w.tasks.len() as u64).sum::<u64>();
            }
            Inputs {
                expect: Expect {
                    attempted,
                    grid_tasks,
                    ..Expect::default()
                },
                job: Job::Figs { seeds },
            }
        }
    }
}

/// What one repetition produced, on the simulated clock, plus the exact
/// counts the per-layer table reports. Everything here repeats exactly for
/// a given seed; `digest` is the proof.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations offered: tasks, offered invocations or sweep jobs.
    pub attempted: u64,
    /// Operations that reached a successful terminal state.
    pub sim_ops: u64,
    /// Operations that failed: abandoned tasks, failed or unaccounted
    /// invocations. A refusal by admission control is an answer, not a
    /// failure; it lowers `success_fraction` instead.
    pub failed: u64,
    pub sim_mean_s: f64,
    pub sim_p99_s: f64,
    /// Simulated seconds the successes are divided by for goodput.
    pub sim_span_s: f64,
    /// FNV-1a-64 of the run's summary: equal digests mean every simulated
    /// statistic is identical.
    pub digest: u64,
    /// Per-layer counts by metric name: exact, from the report structs.
    pub counts: Vec<(&'static str, f64)>,
    /// Per-layer host seconds the product itself reports (federation).
    pub host: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Do two runs agree on every simulated statistic? (`host` differs
    /// from run to run by nature.)
    pub fn same_simulation(&self, other: &Outcome) -> bool {
        let sim = |o: &Outcome| Outcome {
            host: Vec::new(),
            ..o.clone()
        };
        sim(self) == sim(other)
    }
}

fn master_counts(r: &RunReport, counts: &mut Vec<(&'static str, f64)>) {
    counts.extend([
        ("workqueue.master.makespan_s", r.makespan_secs),
        ("workqueue.master.attempts", r.results.len() as f64),
        ("workqueue.master.retried_tasks", r.retried_tasks as f64),
        ("workqueue.master.cache_hits", r.cache_hits as f64),
        ("workqueue.master.cache_misses", r.cache_misses as f64),
        ("workqueue.master.net_bytes", r.net_bytes as f64),
        ("workqueue.master.lease_reclaims", r.lease_reclaims as f64),
        (
            "workqueue.master.infra_retried_tasks",
            r.infra_retried_tasks as f64,
        ),
    ]);
}

fn journal_counts(
    bytes: u64,
    replayed: u64,
    recoveries: u32,
    ops: u64,
    counts: &mut Vec<(&'static str, f64)>,
) {
    counts.extend([
        (
            "workqueue.journal.bytes_per_op",
            bytes as f64 / ops.max(1) as f64,
        ),
        ("workqueue.journal.replayed_events", replayed as f64),
        ("workqueue.journal.recoveries", f64::from(recoveries)),
    ]);
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn batch_outcome(
    r: &RunReport,
    submitted: u64,
    digest_extra: &str,
    mut counts: Vec<(&'static str, f64)>,
    host: Vec<(&'static str, f64)>,
) -> Result<Outcome, String> {
    let successes = r.results.iter().filter(|x| x.outcome.is_success()).count() as u64;
    check(r.task_count as u64 == submitted, || {
        format!("report covers {} of {submitted} tasks", r.task_count)
    })?;
    check(successes + r.abandoned_tasks == submitted, || {
        format!(
            "{successes} successes + {} abandoned != {submitted} submitted",
            r.abandoned_tasks
        )
    })?;
    master_counts(r, &mut counts);
    let summary = r.summary_json() + digest_extra;
    Ok(Outcome {
        attempted: submitted,
        sim_ops: successes,
        failed: r.abandoned_tasks,
        sim_mean_s: r.mean_turnaround_secs(),
        sim_p99_s: r.turnaround_percentile(99.0),
        sim_span_s: r.makespan_secs,
        digest: fnv1a64(summary.as_bytes()),
        counts,
        host,
    })
}

fn federation_outcome(r: &FederationReport, expect: &Expect) -> Result<Outcome, String> {
    let submitted = expect.attempted;
    let completed: u64 = r.shard_completed.iter().sum();
    check(completed == submitted, || {
        format!("shards completed {completed} of {submitted} tasks")
    })?;
    check(r.merged.abandoned_tasks == 0, || {
        format!("{} tasks abandoned", r.merged.abandoned_tasks)
    })?;
    let shard_step_s: f64 = r.shard_wall_secs.iter().sum();
    let host = vec![
        ("workqueue.federation.partition_s", expect.partition_s),
        ("workqueue.federation.shard_step_s", shard_step_s),
    ];
    let counts = vec![
        ("workqueue.federation.steals", r.steals as f64),
        ("workqueue.federation.stolen_tasks", r.stolen_tasks as f64),
        (
            "workqueue.federation.events_total",
            r.shard_events.iter().sum::<u64>() as f64,
        ),
    ];
    // `FederationReport::summary_json` carries host seconds; the digest
    // takes the simulated fields only.
    let extra = format!(
        "|{}|{}|{}|{}|{:?}|{:?}",
        r.steals,
        r.stolen_tasks,
        r.cross_shard_releases,
        r.handoff_bytes,
        r.shard_events,
        r.shard_completed
    );
    batch_outcome(&r.merged, submitted, &extra, counts, host)
}

fn serving_outcome(r: &ServingReport, expect: &Expect) -> Result<Outcome, String> {
    let (overload, expect_crash) = (expect.overload, expect.crash);
    check(r.invocations_conserved(), || {
        format!(
            "admitted {} != completed {} + failed {} + lost {}",
            r.admitted, r.completed, r.failed, r.lost
        )
    })?;
    let refused = r.rejected_rate + r.rejected_queue_full + r.shed;
    check(r.offered == r.admitted + refused, || {
        format!(
            "offered {} != admitted {} + refused {refused}",
            r.offered, r.admitted
        )
    })?;
    check(r.master_recoveries == r.master_crashes, || {
        format!(
            "{} master crashes, {} journaled recoveries",
            r.master_crashes, r.master_recoveries
        )
    })?;
    if overload {
        check(r.gateway_recoveries == r.master_crashes, || {
            format!(
                "{} master crashes, {} gateway recoveries",
                r.master_crashes, r.gateway_recoveries
            )
        })?;
        check(!expect_crash || r.master_crashes > 0, || {
            "no master crash fired".to_string()
        })?;
        check(!expect_crash || !r.control_actions.is_empty(), || {
            "overload drove no control action".to_string()
        })?;
    } else {
        check(r.lost == 0 && refused == 0, || {
            format!("below capacity, yet {} lost and {refused} refused", r.lost)
        })?;
    }
    let dropped = expect.recorder.as_ref().map_or(0, Recorder::dropped);
    check(dropped == 0, || {
        format!("telemetry dropped {dropped} records")
    })?;
    let mut counts = vec![
        ("workqueue.master.makespan_s", r.master_makespan_secs),
        ("workqueue.master.cache_hits", r.master_cache_hits as f64),
        (
            "workqueue.master.cache_misses",
            r.master_cache_misses as f64,
        ),
        ("workqueue.master.net_bytes", r.master_net_bytes as f64),
        ("serving.admission.rejected_rate", r.rejected_rate as f64),
        (
            "serving.admission.rejected_queue_full",
            r.rejected_queue_full as f64,
        ),
        ("serving.admission.shed", r.shed as f64),
        ("serving.warmpool.hit_rate", r.warm_hit_rate),
        (
            "serving.gateway.batches_submitted",
            r.batches_submitted as f64,
        ),
        (
            "serving.gateway.recoveries",
            f64::from(r.gateway_recoveries),
        ),
        ("serving.gateway.lost", r.lost as f64),
        ("serving.control.actions", r.control_actions.len() as f64),
        ("telemetry.dropped", dropped as f64),
    ];
    if overload {
        // The gateway does not report replayed records; 0 is "not known".
        journal_counts(
            r.journal_bytes,
            0,
            r.master_recoveries,
            r.admitted,
            &mut counts,
        );
    }
    Ok(Outcome {
        attempted: r.offered,
        sim_ops: r.completed,
        // Invocations the master failed. Refusals and control trims are
        // the admission layer's answer under overload, and an admission
        // the gateway cannot account for fails the conservation check.
        failed: r.failed,
        sim_mean_s: r.latency.mean,
        sim_p99_s: r.latency.p99,
        sim_span_s: r.end_secs,
        digest: fnv1a64(r.summary_json().as_bytes()),
        counts,
        host: Vec::new(),
    })
}

/// Mean makespan of `strategy` over `points`.
fn mean_makespan(points: &[&SweepPoint], strategy: &str) -> f64 {
    let mine: Vec<f64> = points
        .iter()
        .filter(|p| p.strategy == strategy)
        .map(|p| p.makespan_secs)
        .collect();
    mine.iter().sum::<f64>() / mine.len().max(1) as f64
}

fn figs_outcome(
    points: &[SweepPoint],
    fig6_400: &[SweepPoint],
    expect: &Expect,
) -> Result<Outcome, String> {
    let attempted = expect.attempted;
    check(points.len() as u64 == attempted, || {
        format!("grids returned {} of {attempted} sweep jobs", points.len())
    })?;
    // The paper's ordering on the largest fig6 point, on the mean over
    // the seeds (a single seed can put Auto a hair past Oracle).
    let at400: Vec<&SweepPoint> = fig6_400.iter().collect();
    let [oracle, auto, guess, unmanaged] =
        ["Oracle", "Auto", "Guess", "Unmanaged"].map(|s| mean_makespan(&at400, s));
    check(
        oracle <= 1.05 * auto && auto < guess && guess < unmanaged,
        || {
            format!(
                "fig6 ordering broken at 400 tasks: Oracle {oracle:.1} Auto {auto:.1} \
                 Guess {guess:.1} Unmanaged {unmanaged:.1}"
            )
        },
    )?;
    let auto_retry = {
        let a: Vec<f64> = fig6_400
            .iter()
            .filter(|p| p.strategy == "Auto")
            .map(|p| p.retry_fraction)
            .collect();
        a.iter().sum::<f64>() / a.len().max(1) as f64
    };
    check(auto_retry < 0.01, || {
        format!("fig6 Auto retried {auto_retry:.4} of tasks at 400 tasks (paper: < 1 %)")
    })?;
    let all: Vec<&SweepPoint> = points.iter().collect();
    let makespans: Vec<f64> = points.iter().map(|p| p.makespan_secs).collect();
    let mut text = String::new();
    for p in points {
        use std::fmt::Write as _;
        write!(
            text,
            "{},{},{},{},{};",
            p.x, p.strategy, p.makespan_secs, p.retry_fraction, p.core_efficiency
        )
        .expect("write to String");
    }
    Ok(Outcome {
        attempted,
        sim_ops: points.len() as u64,
        failed: 0,
        sim_mean_s: mean_makespan(&all, "Auto"),
        sim_p99_s: percentile(&makespans, 99.0),
        sim_span_s: makespans.iter().sum(),
        digest: fnv1a64(text.as_bytes()),
        counts: vec![
            ("core.experiments.jobs", points.len() as f64),
            ("core.experiments.grid_tasks", expect.grid_tasks as f64),
            ("core.experiments.fig6_auto_over_oracle", auto / oracle),
            (
                "core.experiments.fig6_unmanaged_over_oracle",
                unmanaged / oracle,
            ),
            ("core.experiments.fig6_auto_retry_fraction", auto_retry),
        ],
        host: Vec::new(),
    })
}

/// The product's report, untouched, with what the checks need beside it.
pub struct Report {
    product: Product,
    expect: Expect,
}

enum Product {
    Batch(RunReport),
    Federation(FederationReport),
    Serving(ServingReport),
    Figs {
        points: Vec<SweepPoint>,
        /// The fig6 `by_tasks` points at 400 tasks, for the ordering check.
        fig6_400: Vec<SweepPoint>,
    },
}

/// Run the product once over `inputs`: the timed region of a repetition.
pub fn run(inputs: Inputs) -> Report {
    let product = match inputs.job {
        Job::Batch {
            tasks,
            config,
            workers,
            node,
        } => Product::Batch(run_workload(&config, tasks, workers, node)),
        Job::Federation {
            tasks,
            config,
            fed,
            workers,
            node,
        } => Product::Federation(run_federated(&config, &fed, tasks, workers, node)),
        Job::Serving {
            config,
            functions,
            tenants,
        } => Product::Serving(ServingGateway::new(config, functions, tenants).run()),
        Job::Figs { seeds } => {
            let mut points = Vec::new();
            let mut fig6_400 = Vec::new();
            for s in seeds {
                let by_tasks = fig6::by_tasks(&FIG6_TASKS, 6, 8, s);
                fig6_400.extend(by_tasks.iter().filter(|p| p.x == 400).cloned());
                points.extend(by_tasks);
                points.extend(fig6::by_workers(&FIG6_WORKERS, 2, 8, s));
                points.extend(fig6::by_worker_size(200, 6, s));
                points.extend(fig7::by_tasks(&FIG7_BATCHES, s));
                points.extend(fig7::by_workers(&FIG7_WORKERS, s));
                points.extend(fig8::by_genomes(&FIG8_GENOMES, s));
                points.extend(fig8::by_workers(&FIG8_WORKERS, s));
                points.extend(fig9::by_tasks(&FIG9_TASKS, 4, s));
                points.extend(fig9::by_workers(&FIG9_WORKERS, 16, s));
            }
            Product::Figs { points, fig6_400 }
        }
    };
    Report {
        product,
        expect: inputs.expect,
    }
}

/// `master_batch` and `master_dag_chaos`: one master's report.
fn master_outcome(r: &RunReport, expect: &Expect) -> Result<Outcome, String> {
    let submitted = expect.attempted;
    let mut counts = Vec::new();
    if r.journal_bytes > 0 {
        journal_counts(
            r.journal_bytes,
            r.replayed_events,
            r.recoveries,
            submitted,
            &mut counts,
        );
    }
    check(r.recoveries == r.master_crashes, || {
        format!(
            "{} master crashes, {} recoveries",
            r.master_crashes, r.recoveries
        )
    })?;
    check(!expect.crash || r.master_crashes > 0, || {
        "no master crash fired".to_string()
    })?;
    if let Some(rec) = &expect.recorder {
        check(rec.dropped() == 0, || {
            format!("telemetry dropped {} records", rec.dropped())
        })?;
        counts.extend([
            (
                "telemetry.events_per_op",
                rec.len() as f64 / submitted.max(1) as f64,
            ),
            ("telemetry.dropped", rec.dropped() as f64),
        ]);
    } else {
        check(r.abandoned_tasks == 0, || {
            format!(
                "{} tasks abandoned on a reliable cluster",
                r.abandoned_tasks
            )
        })?;
    }
    batch_outcome(r, submitted, "", counts, Vec::new())
}

/// Check the report and reduce it to an [`Outcome`]. An `Err` names the
/// output check that failed.
pub fn evaluate(report: &Report) -> Result<Outcome, String> {
    let expect = &report.expect;
    match &report.product {
        Product::Batch(r) => master_outcome(r, expect),
        Product::Federation(r) => federation_outcome(r, expect),
        Product::Serving(r) => serving_outcome(r, expect),
        Product::Figs { points, fig6_400 } => figs_outcome(points, fig6_400, expect),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn sub_seeds_differ_by_salt_and_seed() {
        assert_ne!(derive_seed(2021, 1), derive_seed(2021, 2));
        assert_ne!(derive_seed(2021, 1), derive_seed(2022, 1));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    /// Every generator and every output check at 1/100 scale, and the
    /// digest's promise: the same seed gives the same run, another seed
    /// another one.
    #[test]
    fn smoke_run_of_every_workload() {
        for w in Workload::ALL {
            let a =
                evaluate(&run(build(w, 2021, 100))).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(a.attempted > 0 && a.sim_ops > 0, "{}", w.name());
            assert_eq!(a.failed, 0, "{}", w.name());
            assert!(a.sim_ops <= a.attempted, "{}", w.name());
            assert!(a.sim_mean_s > 0.0 && a.sim_p99_s >= a.sim_mean_s * 0.5);
            assert!(a.sim_span_s > 0.0);
            let again = evaluate(&run(build(w, 2021, 100))).unwrap();
            assert!(
                a.same_simulation(&again),
                "{} must repeat exactly",
                w.name()
            );
            let other = evaluate(&run(build(w, 2022, 100))).unwrap();
            assert_ne!(a.digest, other.digest, "{} ignores its seed", w.name());
        }
    }
}
