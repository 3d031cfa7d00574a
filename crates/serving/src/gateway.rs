//! The serving gateway: a long-running multi-tenant front end over a
//! streaming Work Queue master.
//!
//! The gateway owns the *policy* layers of the serving tier; the master
//! stays the mechanism. Each simulated tick (default 100 ms) it:
//!
//! 1. **Accepts arrivals** — merges every tenant's open-loop arrival
//!    stream in global time order and classifies each arrival through
//!    [`admission`](crate::admission) (quota → depth bound → global
//!    shed). Admitted invocations join their tenant's bounded queue.
//! 2. **Advances the backend** — runs the [`StreamingMaster`] up to the
//!    tick boundary and matches completions back to invocations,
//!    recording invocation latency (arrival→completion) and queue wait
//!    (arrival→dispatch) into bounded [`SparseHistogram`]s.
//! 3. **Dispatches fairly** — while the master's outstanding window has
//!    room, picks tenants via stride fair-share with strict priority
//!    classes ([`FairScheduler`]), charges each dispatch a warm or cold
//!    environment-activation cost from the [`WarmPool`], and submits the
//!    whole tick's picks as **one** master task group (one `Submit`
//!    calendar event — request batching).
//!
//! After the arrival horizon the gateway stops accepting and drains: every
//! admitted invocation completes, so overload shows up as latency, not as
//! silently vanished work. The run is a pure function of
//! (config, functions, tenants, seed): every RNG stream is forked from the
//! config seed, every map is ordered, and ties break on ids — identical
//! seeds give byte-identical [`ServingReport`]s and telemetry traces.
//!
//! ## Crash safety
//!
//! What a crash carries over is one private `GatewayState` — per-tenant
//! queues, the in-flight match table, stride passes, token buckets, depth
//! bounds, counters, `lost`, the warm pool — in the representation the
//! tick loop works on. It is its own image: it encodes its borrowed fields
//! and decodes over `GatewayState::fresh`, the one cold start that
//! [`ServingGateway::new`], an unjournaled restart and the decoder share.
//!
//! With [`ServingConfig::with_durability`] the streaming master journals
//! every admission and the gateway rides its crash points: at each one it
//! encodes the state, decodes the bytes (corrupt input is a typed error,
//! never a panic), requires decoded ≡ live and carries on from the decoded
//! one, so `admitted == completed + failed + lost` holds with nothing lost
//! to the crash. Recovery still restores from live memory at the crash
//! instant: it proves the codec, not durability (the write-ahead half is
//! ROADMAP item 1). Without a journal a crash is a full restart — the
//! master re-runs everything it had admitted while the gateway is `fresh`
//! again but for invocation ids, counters and `lost`; the forgotten
//! invocations are counted in [`ServingReport::lost`] (the recovery
//! bench's baseline) and the conservation invariant still balances.
//!
//! ## Alert-driven control
//!
//! With [`ServingConfig::with_control`] (requires an SLO), each tick's
//! burn-rate alert *edges* feed a [`ControlPolicy`]: a rising edge
//! tightens the offending tenant's admission (queue-depth bound, token
//! refill) and grows the warm pool; while the alert stays raised the
//! loop keeps escalating one stage per cooldown (a sustained burn emits
//! no further edges); a falling edge relaxes one stage. Cooldown
//! hysteresis plus edge dedup at the monitor make the action log
//! ([`ServingReport::control_actions`]) deterministic and byte-stable.

use crate::admission::{admit, AdmissionConfig, AdmissionOutcome, TokenBucket};
use crate::arrivals::ArrivalProcess;
use crate::control::{ControlConfig, ControlDecision, ControlPolicy};
use crate::fair::FairScheduler;
use crate::report::{AlertReport, ControlActionReport, LatencyStats, ServingReport, TenantReport};
use crate::tenant::{TenantConfig, TenantId};
use crate::warmpool::{Entry, WarmPool, WarmPoolConfig};
use lfm_funcx::container::{ActivationModel, ActivationTech};
use lfm_funcx::registry::{FunctionId, FunctionRegistry};
use lfm_funcx::service::FuncXService;
use lfm_monitor::sim::SimTaskProfile;
use lfm_simcluster::metrics::SparseHistogram;
use lfm_simcluster::node::NodeSpec;
use lfm_simcluster::rng::SimRng;
use lfm_simcluster::time::SimTime;
use lfm_telemetry::slo::{SloConfig, SloMonitor};
use lfm_telemetry::{Name, Recorder, TailCursor};
use lfm_workqueue::allocate::{AutoConfig, Strategy};
use lfm_workqueue::faults::FaultPlan;
use lfm_workqueue::files::FileRef;
use lfm_workqueue::journal::DurabilityConfig;
use lfm_workqueue::master::MasterConfig;
use lfm_workqueue::streaming::StreamingMaster;
use lfm_workqueue::task::{TaskId, TaskSpec};
use std::collections::{BTreeMap, VecDeque};

/// A function the gateway can serve: registry identity, packed
/// environment, per-invocation behaviour, and activation cost model.
#[derive(Debug, Clone)]
pub struct ServingFunction {
    pub name: String,
    pub id: FunctionId,
    /// Packed-environment input staged (and cached) on workers.
    pub env: FileRef,
    /// True per-invocation behaviour (the LFM-observed profile).
    pub profile: SimTaskProfile,
    /// Request payload size staged per invocation.
    pub input_bytes: u64,
    /// Cold/warm activation cost model charged at dispatch.
    pub activation: ActivationModel,
}

impl ServingFunction {
    /// Register `source` with the funcX registry and build its packed
    /// environment from the statically-analyzed dependency list — the
    /// production path.
    pub fn from_source(
        service: &FuncXService,
        registry: &mut FunctionRegistry,
        name: &str,
        source: &str,
        tech: ActivationTech,
        profile: SimTaskProfile,
        input_bytes: u64,
    ) -> Result<Self, String> {
        let id = registry.register(name, source).map_err(|e| e.to_string())?;
        let env = service.environment_for(registry, id)?;
        Ok(ServingFunction {
            name: name.to_string(),
            id,
            env,
            profile,
            input_bytes,
            activation: ActivationModel::for_tech(tech),
        })
    }

    /// A hand-built function with a synthetic environment file — unit
    /// tests and benchmarks that don't need real dependency resolution.
    pub fn synthetic(
        name: &str,
        env_archive_bytes: u64,
        tech: ActivationTech,
        profile: SimTaskProfile,
        input_bytes: u64,
    ) -> Self {
        ServingFunction {
            name: name.to_string(),
            id: FunctionId(lfm_pyenv::pack::fnv1a(name.as_bytes())),
            env: FileRef::environment(
                format!("{name}-env.tar.gz"),
                env_archive_bytes,
                env_archive_bytes * 3,
                2000,
                400,
            ),
            profile,
            input_bytes,
            activation: ActivationModel::for_tech(tech),
        }
    }
}

/// Gateway-level configuration (tenants and functions are passed
/// separately).
#[derive(Debug, Clone)]
pub struct ServingConfig {
    pub seed: u64,
    /// Arrival horizon: arrivals stop here; the gateway then drains.
    pub horizon_secs: f64,
    /// Gateway control-loop period.
    pub tick_secs: f64,
    /// Max invocations outstanding in the master (submitted, not yet
    /// terminal). The gateway holds the rest so dispatch order — and
    /// therefore fairness — is decided by its scheduler, not the
    /// master's FIFO.
    pub dispatch_window: usize,
    /// Max invocations per master task group (one `Submit` per tick).
    pub batch_max: usize,
    pub admission: AdmissionConfig,
    pub warm_pool: WarmPoolConfig,
    /// Master allocation strategy for invocation placement.
    pub strategy: Strategy,
    pub workers: u32,
    pub node: NodeSpec,
    pub telemetry: Recorder,
    /// When set, the gateway tails its own telemetry stream live and
    /// evaluates multi-window SLO burn-rate alerts each tick (see
    /// [`lfm_telemetry::slo`]). Alerts land in
    /// [`ServingReport::alerts`].
    pub slo: Option<SloConfig>,
    /// Master + gateway durability: with the journal on, every admission
    /// is logged and crashes recover; off, a crash is a full restart.
    pub durability: DurabilityConfig,
    /// Fault injection for the backing master (crashes, churn, chaos).
    pub faults: FaultPlan,
    /// When set (requires [`ServingConfig::with_slo`]), burn-rate alert
    /// edges drive staged admission tightening and warm-pool sizing.
    pub control: Option<ControlConfig>,
}

impl ServingConfig {
    pub fn new(workers: u32, node: NodeSpec) -> Self {
        ServingConfig {
            seed: 0,
            horizon_secs: 60.0,
            tick_secs: 0.1,
            dispatch_window: 256,
            batch_max: 64,
            admission: AdmissionConfig::default(),
            warm_pool: WarmPoolConfig::new((workers as usize) * 8, 30.0),
            // LFM-managed invocations: per-function labels learned from
            // monitor reports, so invocations pack instead of taking
            // whole workers (the paper's core claim, applied to serving).
            strategy: Strategy::Auto(AutoConfig::default()),
            workers,
            node,
            telemetry: Recorder::disabled(),
            slo: None,
            durability: DurabilityConfig::none(),
            faults: FaultPlan::reliable(),
            control: None,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_horizon(mut self, horizon_secs: f64) -> Self {
        assert!(horizon_secs > 0.0, "non-positive horizon");
        self.horizon_secs = horizon_secs;
        self
    }

    pub fn with_tick(mut self, tick_secs: f64) -> Self {
        assert!(tick_secs > 0.0, "non-positive tick");
        self.tick_secs = tick_secs;
        self
    }

    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    pub fn with_warm_pool(mut self, warm_pool: WarmPoolConfig) -> Self {
        self.warm_pool = warm_pool;
        self
    }

    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn with_dispatch_window(mut self, window: usize) -> Self {
        assert!(window > 0, "zero dispatch window");
        self.dispatch_window = window;
        self
    }

    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        assert!(batch_max > 0, "zero batch size");
        self.batch_max = batch_max;
        self
    }

    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enable live SLO burn-rate alerting. The gateway becomes the one
    /// draining tail consumer of the configured recorder (see
    /// [`Recorder::cursor`]): `serving.*` records are consumed
    /// incrementally each tick, so a post-run `take()` on a shared
    /// recorder only sees records emitted after the final drain. If
    /// telemetry is disabled the gateway swaps in a private enabled
    /// recorder so alerting works without an exported trace.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Journal the serving run. The master logs every admission and
    /// recovers from injected crashes; the gateway rides the same crash
    /// points, putting its state through its own codec (see the module
    /// docs, "Crash safety") so recovery loses nothing.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Inject master faults ([`FaultSpec::master_crash`] is the one the
    /// recovery bench sweeps; churn and chaos compose with it).
    ///
    /// [`FaultSpec::master_crash`]: lfm_workqueue::faults::FaultSpec::master_crash
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Close the loop from SLO alerts to admission. Requires
    /// [`ServingConfig::with_slo`]; actions land in
    /// [`ServingReport::control_actions`].
    pub fn with_control(mut self, control: ControlConfig) -> Self {
        self.control = Some(control);
        self
    }
}

/// Live SLO evaluation state: the tailed recorder, the incremental
/// cursor, and the burn-rate monitor fed from each drained batch.
struct SloRuntime {
    recorder: Recorder,
    cursor: TailCursor,
    monitor: SloMonitor,
}

/// An admitted invocation waiting in its tenant queue.
#[derive(Debug, Clone, PartialEq)]
struct Queued {
    invocation: u64,
    function: usize,
    arrival_secs: f64,
}

/// Everything known about a dispatched invocation until it completes.
#[derive(Debug, Clone, PartialEq)]
struct InFlight {
    tenant: u32,
    arrival_secs: f64,
    dispatch_secs: f64,
    warm: bool,
}

/// Per-tenant accounting counters.
#[derive(Debug, Clone, Default, PartialEq)]
struct TenantCounters {
    offered: u64,
    admitted: u64,
    rejected_rate: u64,
    rejected_queue_full: u64,
    shed: u64,
    /// Dispatches during the arrival phase — the steady-state window the
    /// fairness acceptance check measures.
    dispatched_steady: u64,
    completed: u64,
    failed: u64,
}

/// The gateway's journaled policy state (module docs, "Crash safety"):
/// [`ServingGateway`] owns one and reaches these fields nowhere else.
#[derive(Debug, Clone, PartialEq)]
struct GatewayState {
    next_invocation: u64,
    /// Admitted invocations dropped before completion: forgotten by an
    /// unjournaled crash restart, or trimmed by a control-loop tighten.
    lost: u64,
    /// Per tenant, admitted and not yet dispatched, in arrival order.
    queues: Vec<VecDeque<Queued>>,
    /// Dispatched and not yet terminal, by invocation.
    in_flight: BTreeMap<u64, InFlight>,
    sched: FairScheduler,
    buckets: Vec<Option<TokenBucket>>,
    /// Effective per-tenant depth bound (config baseline unless the
    /// control loop tightened it).
    depth_limit: Vec<usize>,
    counters: Vec<TenantCounters>,
    pool: WarmPool,
}

/// Why bytes are not the image of a state of this gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StateError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// The named field does not fit the gateway the bytes are decoded for.
    Inconsistent(&'static str),
}

fn fits(ok: bool, field: &'static str) -> Result<(), StateError> {
    ok.then_some(()).ok_or(StateError::Inconsistent(field))
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// The bytes of an image not yet read.
struct StateReader<'a>(&'a [u8]);

impl StateReader<'_> {
    fn u64(&mut self) -> Result<u64, StateError> {
        let (word, rest) = self.0.split_first_chunk().ok_or(StateError::Truncated)?;
        self.0 = rest;
        Ok(u64::from_le_bytes(*word))
    }

    fn f64(&mut self) -> Result<f64, StateError> {
        self.u64().map(f64::from_bits)
    }

    /// An index, a bound or a length prefix. Nothing is allocated from a
    /// length: the caller reads that many entries, each at least one word,
    /// and runs out of bytes first if the prefix lied.
    fn usize(&mut self) -> Result<usize, StateError> {
        usize::try_from(self.u64()?).map_err(|_| StateError::Inconsistent("word above usize"))
    }
}

impl GatewayState {
    /// The cold start. Nothing else builds the gateway's scheduler,
    /// buckets, depth bounds or warm pool.
    fn fresh(config: &ServingConfig, tenants: &[TenantConfig]) -> Self {
        let classes: Vec<_> = tenants.iter().map(|t| (t.class, t.weight)).collect();
        GatewayState {
            next_invocation: 0,
            lost: 0,
            queues: vec![VecDeque::new(); tenants.len()],
            in_flight: BTreeMap::new(),
            sched: FairScheduler::new(&classes),
            buckets: tenants
                .iter()
                .map(|t| t.quota.map(TokenBucket::new))
                .collect(),
            depth_limit: tenants.iter().map(|t| t.max_queue_depth).collect(),
            counters: vec![TenantCounters::default(); tenants.len()],
            pool: WarmPool::new(config.warm_pool),
        }
    }

    /// The state's image, length-prefixed little-endian words (pinned by
    /// `gateway_image_layout_is_pinned`). Strides, classes, burst and TTL
    /// are configuration: not written, they come back from `fresh`.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.next_invocation);
        put_u64(&mut buf, self.lost);
        put_u64(&mut buf, self.queues.len() as u64);
        for q in &self.queues {
            put_u64(&mut buf, q.len() as u64);
            for e in q {
                put_u64(&mut buf, e.invocation);
                put_u64(&mut buf, e.function as u64);
                put_f64(&mut buf, e.arrival_secs);
            }
        }
        put_u64(&mut buf, self.in_flight.len() as u64);
        for (&invocation, f) in &self.in_flight {
            put_u64(&mut buf, invocation);
            put_u64(&mut buf, f.tenant as u64);
            put_f64(&mut buf, f.arrival_secs);
            put_f64(&mut buf, f.dispatch_secs);
            put_u64(&mut buf, f.warm as u64);
        }
        put_u64(&mut buf, self.sched.tenants.len() as u64);
        for t in &self.sched.tenants {
            put_u64(&mut buf, t.pass);
        }
        put_u64(&mut buf, self.buckets.len() as u64);
        for b in &self.buckets {
            match b {
                Some(b) => {
                    put_u64(&mut buf, 1);
                    put_f64(&mut buf, b.tokens);
                    put_f64(&mut buf, b.last_refill_secs);
                    put_f64(&mut buf, b.quota.rate_per_sec);
                }
                None => put_u64(&mut buf, 0),
            }
        }
        put_u64(&mut buf, self.depth_limit.len() as u64);
        for &d in &self.depth_limit {
            put_u64(&mut buf, d as u64);
        }
        put_u64(&mut buf, self.counters.len() as u64);
        for c in &self.counters {
            for v in [
                c.offered,
                c.admitted,
                c.rejected_rate,
                c.rejected_queue_full,
                c.shed,
                c.dispatched_steady,
                c.completed,
                c.failed,
            ] {
                put_u64(&mut buf, v);
            }
        }
        put_u64(&mut buf, self.pool.entries.len() as u64);
        for (&id, e) in &self.pool.entries {
            put_u64(&mut buf, id);
            put_u64(&mut buf, e.function as u64);
            put_f64(&mut buf, e.last_used_secs);
        }
        put_u64(&mut buf, self.pool.next_id);
        put_u64(&mut buf, self.pool.config.capacity as u64);
        put_u64(&mut buf, self.pool.hits);
        put_u64(&mut buf, self.pool.misses);
        put_u64(&mut buf, self.pool.expirations);
        buf
    }

    /// Read an image back over `fresh`, the cold start of the gateway the
    /// bytes claim to describe (`functions`: the size of its function
    /// table). Whatever the gateway would index with or assert on is
    /// checked here, so corrupt input is an error and never a later panic.
    fn decode(bytes: &[u8], fresh: GatewayState, functions: usize) -> Result<Self, StateError> {
        let mut state = fresh;
        let tenants = state.queues.len();
        let mut r = StateReader(bytes);
        state.next_invocation = r.u64()?;
        state.lost = r.u64()?;
        fits(r.usize()? == tenants, "queue count")?;
        for q in &mut state.queues {
            for _ in 0..r.usize()? {
                let (invocation, function, arrival_secs) = (r.u64()?, r.usize()?, r.f64()?);
                fits(function < functions, "queued function")?;
                q.push_back(Queued {
                    invocation,
                    function,
                    arrival_secs,
                });
            }
        }
        for _ in 0..r.usize()? {
            let (invocation, tenant) = (r.u64()?, r.usize()?);
            fits(tenant < tenants, "in-flight tenant")?;
            let entry = InFlight {
                tenant: tenant as u32,
                arrival_secs: r.f64()?,
                dispatch_secs: r.f64()?,
                warm: r.u64()? != 0,
            };
            // A repeat would silently drop an entry.
            let repeat = state.in_flight.insert(invocation, entry);
            fits(repeat.is_none(), "repeated in-flight invocation")?;
        }
        fits(r.usize()? == tenants, "pass count")?;
        for t in &mut state.sched.tenants {
            t.pass = r.u64()?;
        }
        fits(r.usize()? == tenants, "bucket count")?;
        for bucket in &mut state.buckets {
            fits((r.u64()? != 0) == bucket.is_some(), "bucket presence")?;
            if let Some(b) = bucket {
                (b.tokens, b.last_refill_secs, b.quota.rate_per_sec) =
                    (r.f64()?, r.f64()?, r.f64()?);
                // Both written so that a NaN fails them.
                fits((0.0..=b.quota.burst).contains(&b.tokens), "token level")?;
                let rate = b.quota.rate_per_sec;
                fits(rate > 0.0 && rate.is_finite(), "quota rate")?;
            }
        }
        fits(r.usize()? == tenants, "depth-limit count")?;
        for d in &mut state.depth_limit {
            *d = r.usize()?;
        }
        fits(r.usize()? == tenants, "counter count")?;
        for c in &mut state.counters {
            *c = TenantCounters {
                offered: r.u64()?,
                admitted: r.u64()?,
                rejected_rate: r.u64()?,
                rejected_queue_full: r.u64()?,
                shed: r.u64()?,
                dispatched_steady: r.u64()?,
                completed: r.u64()?,
                failed: r.u64()?,
            };
        }
        for _ in 0..r.usize()? {
            let id = r.u64()?;
            let entry = Entry {
                function: r.usize()?,
                last_used_secs: r.f64()?,
            };
            let repeat = state.pool.entries.insert(id, entry);
            fits(repeat.is_none(), "repeated warm instance")?;
        }
        state.pool.next_id = r.u64()?;
        state.pool.config.capacity = r.usize()?;
        state.pool.hits = r.u64()?;
        state.pool.misses = r.u64()?;
        state.pool.expirations = r.u64()?;
        fits(r.0.is_empty(), "trailing bytes")?;
        Ok(state)
    }
}

/// Per-tenant pre-interned telemetry names. The admission path runs once
/// per arrival and the queue-depth gauge once per tenant per tick; the
/// old `format!("serving.admitted.{tenant}")` strings allocated and
/// hashed on every emission, so the names are interned once at gateway
/// construction instead — as are the `tenant` and `function` attrs of every
/// completed invocation's spans (a tenant invokes one function).
struct TenantTelKeys {
    admitted: Name,
    rejected: Name,
    shed: Name,
    queue_depth: Name,
    tenant: Name,
    function: Name,
}

impl TenantTelKeys {
    fn new(tenant: &str, function: &str) -> Self {
        TenantTelKeys {
            admitted: Name::intern(&format!("serving.admitted.{tenant}")),
            rejected: Name::intern(&format!("serving.rejected.{tenant}")),
            shed: Name::intern(&format!("serving.shed.{tenant}")),
            queue_depth: Name::intern(&format!("serving.queue_depth.{tenant}")),
            tenant: Name::intern(tenant),
            function: Name::intern(function),
        }
    }
}

/// Tenant-independent serving telemetry names, interned once per process.
struct ServingTelKeys {
    queue: Name,
    invoke: Name,
    cat_serving: Name,
    a_tenant: Name,
    a_function: Name,
    a_warm: Name,
}

fn stk() -> &'static ServingTelKeys {
    static KEYS: std::sync::OnceLock<ServingTelKeys> = std::sync::OnceLock::new();
    KEYS.get_or_init(|| ServingTelKeys {
        queue: Name::intern("serving.queue"),
        invoke: Name::intern("serving.invoke"),
        cat_serving: Name::intern("serving"),
        a_tenant: Name::intern("tenant"),
        a_function: Name::intern("function"),
        a_warm: Name::intern("warm"),
    })
}

/// The gateway. Construct, then [`ServingGateway::run`] to completion.
pub struct ServingGateway {
    config: ServingConfig,
    functions: Vec<ServingFunction>,
    tenants: Vec<TenantConfig>,
    master: StreamingMaster,
    /// Everything a journaled crash carries over; see [`GatewayState`].
    state: GatewayState,
    arrivals: Vec<ArrivalProcess>,
    /// Peeked next arrival per tenant (for the global merge).
    next_arrival: Vec<f64>,
    overhead_rng: SimRng,
    tel_keys: Vec<TenantTelKeys>,
    latency: SparseHistogram,
    queue_wait: SparseHistogram,
    tenant_latency: Vec<SparseHistogram>,
    batches_submitted: u64,
    in_steady_phase: bool,
    slo_rt: Option<SloRuntime>,
    control: Option<ControlPolicy>,
    control_log: Vec<ControlActionReport>,
    /// Per-tenant count of alert windows currently raised (rising edges
    /// minus falling edges). While > 0 the control loop keeps escalating
    /// one level per cooldown even though no new edges arrive.
    alert_raised: Vec<u32>,
    /// Master crashes already handled by the gateway.
    seen_crashes: u32,
    gateway_recoveries: u32,
    gateway_journal_bytes: u64,
}

impl ServingGateway {
    pub fn new(
        config: ServingConfig,
        functions: Vec<ServingFunction>,
        tenants: Vec<TenantConfig>,
    ) -> Self {
        assert!(!functions.is_empty(), "no serving functions");
        assert!(!tenants.is_empty(), "no tenants");
        for t in &tenants {
            assert!(
                t.function < functions.len(),
                "tenant {} references unknown function {}",
                t.name,
                t.function
            );
        }
        let mut config = config;
        let slo_rt = config.slo.clone().map(|slo_cfg| {
            if !config.telemetry.is_enabled() {
                // Alerting needs a live stream even when the caller did
                // not ask for a trace.
                config.telemetry = Recorder::enabled();
            }
            let recorder = config.telemetry.clone();
            let cursor = recorder.cursor();
            SloRuntime {
                recorder,
                cursor,
                monitor: SloMonitor::new(slo_cfg),
            }
        });
        assert!(
            config.control.is_none() || config.slo.is_some(),
            "alert-driven control requires an SLO (ServingConfig::with_slo)"
        );
        let master_cfg = MasterConfig::new(config.strategy.clone())
            .with_seed(config.seed)
            .with_telemetry(config.telemetry.clone())
            .with_durability(config.durability)
            .with_faults(config.faults.clone());
        let master = StreamingMaster::new(&master_cfg, config.workers, config.node)
            .expect("single-shard streaming config");
        let mut arrivals = Vec::with_capacity(tenants.len());
        let mut next_arrival = Vec::with_capacity(tenants.len());
        for (i, t) in tenants.iter().enumerate() {
            let seed = config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x5eed + i as u64);
            let mut p = ArrivalProcess::new(t.arrivals.clone(), seed);
            next_arrival.push(p.next_arrival().as_secs());
            arrivals.push(p);
        }
        let tel_keys = tenants
            .iter()
            .map(|t| TenantTelKeys::new(&t.name, &functions[t.function].name))
            .collect();
        let overhead_rng = SimRng::seeded(config.seed).fork(0xac71_7a7e);
        let n = tenants.len();
        let control = config.control.map(|c| ControlPolicy::new(c, n));
        ServingGateway {
            state: GatewayState::fresh(&config, &tenants),
            config,
            functions,
            tenants,
            master,
            arrivals,
            next_arrival,
            overhead_rng,
            tel_keys,
            latency: SparseHistogram::new(),
            queue_wait: SparseHistogram::new(),
            tenant_latency: vec![SparseHistogram::new(); n],
            batches_submitted: 0,
            in_steady_phase: true,
            slo_rt,
            control,
            control_log: Vec::new(),
            alert_raised: vec![0; n],
            seen_crashes: 0,
            gateway_recoveries: 0,
            gateway_journal_bytes: 0,
        }
    }

    fn total_queued(&self) -> usize {
        self.state.queues.iter().map(VecDeque::len).sum()
    }

    /// Accept every arrival strictly before `until_secs`, merging tenant
    /// streams in global time order (ties: lowest tenant id first).
    fn accept_arrivals(&mut self, until_secs: f64) {
        loop {
            let mut best: Option<(f64, usize)> = None;
            for (i, &t) in self.next_arrival.iter().enumerate() {
                if t < until_secs && best.is_none_or(|(bt, bi)| (t, i) < (bt, bi)) {
                    best = Some((t, i));
                }
            }
            let Some((at, tenant)) = best else { return };
            self.next_arrival[tenant] = self.arrivals[tenant].next_arrival().as_secs();
            self.on_arrival(tenant, at);
        }
    }

    fn on_arrival(&mut self, tenant: usize, at_secs: f64) {
        self.state.counters[tenant].offered += 1;
        let total_depth = self.total_queued();
        let outcome = admit(
            &self.config.admission,
            at_secs,
            self.state.queues[tenant].len(),
            self.state.depth_limit[tenant],
            total_depth,
            self.state.buckets[tenant].as_mut(),
        );
        let at = SimTime::from_secs(at_secs);
        match outcome {
            AdmissionOutcome::Admitted => {
                self.state.counters[tenant].admitted += 1;
                self.config
                    .telemetry
                    .counter_at_key(self.tel_keys[tenant].admitted, 1, at);
                let was_empty = self.state.queues[tenant].is_empty();
                self.state.queues[tenant].push_back(Queued {
                    invocation: self.state.next_invocation,
                    function: self.tenants[tenant].function,
                    arrival_secs: at_secs,
                });
                self.state.next_invocation += 1;
                if was_empty {
                    self.state.sched.on_tenant_active(TenantId(tenant as u32));
                }
            }
            AdmissionOutcome::RejectedRate => {
                self.state.counters[tenant].rejected_rate += 1;
                self.config
                    .telemetry
                    .counter_at_key(self.tel_keys[tenant].rejected, 1, at);
            }
            AdmissionOutcome::RejectedQueueFull => {
                self.state.counters[tenant].rejected_queue_full += 1;
                self.config
                    .telemetry
                    .counter_at_key(self.tel_keys[tenant].rejected, 1, at);
            }
            AdmissionOutcome::ShedOverload => {
                self.state.counters[tenant].shed += 1;
                self.config
                    .telemetry
                    .counter_at_key(self.tel_keys[tenant].shed, 1, at);
            }
        }
    }

    /// Fill the master's outstanding window in fair-share order and
    /// submit the picks as one task group.
    fn dispatch(&mut self, now_secs: f64) {
        let outstanding = self.master.submitted() - self.master.completed();
        let mut budget = self
            .config
            .dispatch_window
            .saturating_sub(outstanding)
            .min(self.config.batch_max);
        let mut batch = Vec::new();
        let state = &mut self.state;
        while budget > 0 {
            let queues = &state.queues;
            let Some(tid) = state.sched.pick(|id| !queues[id.0 as usize].is_empty()) else {
                break;
            };
            let tenant = tid.0 as usize;
            let q = state.queues[tenant]
                .pop_front()
                .expect("picked empty queue");
            let f = &self.functions[q.function];
            let warm = state.pool.acquire(q.function, now_secs);
            let overhead = if warm {
                f.activation.sample_warm(&mut self.overhead_rng)
            } else {
                f.activation.sample(&mut self.overhead_rng)
            };
            let mut profile = f.profile;
            profile.duration_secs += overhead;
            batch.push(TaskSpec::new(
                TaskId(q.invocation),
                f.name.clone(),
                vec![
                    f.env.clone(),
                    FileRef::data(format!("req-{}", q.invocation), f.input_bytes),
                ],
                4 << 10,
                profile,
            ));
            state.in_flight.insert(
                q.invocation,
                InFlight {
                    tenant: tid.0,
                    arrival_secs: q.arrival_secs,
                    dispatch_secs: now_secs,
                    warm,
                },
            );
            if self.in_steady_phase {
                state.counters[tenant].dispatched_steady += 1;
            }
            budget -= 1;
        }
        if !batch.is_empty() {
            self.master.submit(SimTime::from_secs(now_secs), batch);
            self.batches_submitted += 1;
        }
    }

    /// Match newly-terminal master results back to invocations.
    fn collect(&mut self) {
        for result in self.master.take_new_results() {
            let Some(inv) = self.state.in_flight.remove(&result.task.0) else {
                // Retried attempt already accounted on its terminal record.
                continue;
            };
            let tenant = inv.tenant as usize;
            let finish = result.finished_at.as_secs();
            if result.outcome.is_success() {
                self.state.counters[tenant].completed += 1;
                let latency = finish - inv.arrival_secs;
                let wait = inv.dispatch_secs - inv.arrival_secs;
                self.latency.record(latency);
                self.tenant_latency[tenant].record(latency);
                self.queue_wait.record(wait);
                let keys = &self.tel_keys[tenant];
                debug_assert_eq!(
                    result.category,
                    self.functions[self.tenants[tenant].function].name
                );
                let rec = &self.config.telemetry;
                rec.span_key(stk().queue, stk().cat_serving)
                    .at(
                        SimTime::from_secs(inv.arrival_secs),
                        SimTime::from_secs(inv.dispatch_secs),
                    )
                    .task(result.task.0)
                    .attr_key(stk().a_tenant, keys.tenant)
                    .emit();
                rec.span_key(stk().invoke, stk().cat_serving)
                    .at(SimTime::from_secs(inv.arrival_secs), result.finished_at)
                    .task(result.task.0)
                    .attr_key(stk().a_tenant, keys.tenant)
                    .attr_key(stk().a_function, keys.function)
                    .attr_key(stk().a_warm, u64::from(inv.warm))
                    .emit();
            } else {
                self.state.counters[tenant].failed += 1;
            }
        }
    }

    fn emit_queue_gauges(&self, now_secs: f64) {
        if !self.config.telemetry.is_enabled() {
            return;
        }
        for (i, q) in self.state.queues.iter().enumerate() {
            self.config.telemetry.gauge_key(
                self.tel_keys[i].queue_depth,
                q.len() as f64,
                SimTime::from_secs(now_secs),
            );
        }
    }

    /// Drain the telemetry tail accumulated since the last tick into the
    /// burn-rate monitor and re-evaluate every (tenant, window) rule at
    /// `now_secs`. Alert firing is a pure function of the drained record
    /// stream, which is itself seed-deterministic — identical runs fire
    /// byte-identical alerts.
    fn observe_slo(&mut self, now_secs: f64) {
        let Some(rt) = &mut self.slo_rt else { return };
        let batch = rt.recorder.drain_since(&mut rt.cursor);
        for record in &batch.records {
            rt.monitor.consume(record);
        }
        rt.monitor.evaluate(now_secs);
    }

    /// Durable recovery: the state goes through its own codec — encode,
    /// decode over a cold start, require equality, replace — so every
    /// injected crash also proves the image is lossless. What is encoded is
    /// still live memory at the crash instant, not bytes written before it.
    fn recover_from_journal(&mut self) {
        let bytes = self.state.encode();
        let fresh = GatewayState::fresh(&self.config, &self.tenants);
        let decoded = GatewayState::decode(&bytes, fresh, self.functions.len())
            .expect("the gateway's own image decodes");
        assert_eq!(decoded, self.state, "gateway state must round-trip");
        self.state = decoded;
        self.gateway_journal_bytes += bytes.len() as u64;
        self.gateway_recoveries += 1;
    }

    /// Unjournaled crash: the process restarts from configuration.
    /// Admitted-but-incomplete invocations are forgotten (counted in
    /// `lost`; the master's own full restart re-runs whatever it had
    /// accepted, but the gateway can no longer match those results), and
    /// every policy structure cold-starts. Invocation ids keep counting (a
    /// re-run task must never share one with a new admission) and the
    /// report still owes what was counted before the crash.
    fn full_restart(&mut self) {
        let forgotten = self.total_queued() + self.state.in_flight.len();
        self.state = GatewayState {
            next_invocation: self.state.next_invocation,
            lost: self.state.lost + forgotten as u64,
            counters: std::mem::take(&mut self.state.counters),
            ..GatewayState::fresh(&self.config, &self.tenants)
        };
        let tenants = self.tenants.len();
        self.control = self.config.control.map(|c| ControlPolicy::new(c, tenants));
    }

    /// React to master crashes that fired since the last tick.
    fn handle_crashes(&mut self) {
        let crashes = self.master.crashes();
        while self.seen_crashes < crashes {
            self.seen_crashes += 1;
            if self.config.durability.journal {
                self.recover_from_journal();
            } else {
                self.full_restart();
            }
        }
    }

    /// Apply queued SLO alert edges to the admission knobs (see the
    /// module docs and [`ControlPolicy`]), then keep escalating any
    /// tenant whose alert is still raised: a sustained burn produces no
    /// further edges, so staged degradation past level 1 is driven by the
    /// raised state, one level per cooldown, until the falling edge
    /// arrives and relaxes.
    fn apply_control(&mut self, now_secs: f64) {
        if self.control.is_none() {
            return;
        }
        let Some(rt) = self.slo_rt.as_mut() else {
            return;
        };
        for tr in rt.monitor.take_transitions() {
            let Some(tenant) = self.tenants.iter().position(|t| t.name == tr.tenant) else {
                continue;
            };
            if tr.rising {
                self.alert_raised[tenant] += 1;
            } else {
                self.alert_raised[tenant] = self.alert_raised[tenant].saturating_sub(1);
            }
            self.control_step(tenant, tr.rising, now_secs);
        }
        for tenant in 0..self.tenants.len() {
            if self.alert_raised[tenant] > 0 {
                self.control_step(tenant, true, now_secs);
            }
        }
    }

    /// One step of the control policy for `tenant`: consult the policy
    /// (which enforces cooldown hysteresis and the level cap), then apply
    /// the resulting depth / quota / warm-pool settings and log the
    /// action. A `Hold` decision applies nothing.
    fn control_step(&mut self, tenant: usize, rising: bool, now_secs: f64) {
        let Some(policy) = self.control.as_mut() else {
            return;
        };
        let (action, level) = match policy.on_transition(tenant, rising, now_secs) {
            ControlDecision::Tighten { level } => ("tighten", level),
            ControlDecision::Relax { level } => ("relax", level),
            ControlDecision::Hold => return,
        };
        let depth = policy.depth_for(tenant, self.tenants[tenant].max_queue_depth);
        self.state.depth_limit[tenant] = depth;
        let quota_rate = self.tenants[tenant].quota.map(|q| {
            let rate = policy.rate_for(tenant, q.rate_per_sec);
            if let Some(bucket) = self.state.buckets[tenant].as_mut() {
                bucket.set_rate(rate);
            }
            rate
        });
        let pool_capacity = policy.pool_capacity(self.config.warm_pool.capacity);
        self.state.pool.set_capacity(pool_capacity);
        // Staged degradation: a tighten sheds the over-bound backlog
        // now instead of serving it at unbounded latency. Oldest first:
        // those entries carry the largest accrued wait (the SLO is
        // already burned on them), so the survivors are the freshest.
        let mut trimmed = 0u64;
        while self.state.queues[tenant].len() > depth {
            self.state.queues[tenant].pop_front();
            trimmed += 1;
        }
        self.state.lost += trimmed;
        self.control_log.push(ControlActionReport {
            at_secs: now_secs,
            tenant: self.tenants[tenant].name.clone(),
            action: action.to_string(),
            level,
            queue_depth: depth,
            quota_rate,
            pool_capacity,
            trimmed,
        });
    }

    fn tick(&mut self, t_end: f64, accept: bool) {
        if accept {
            self.accept_arrivals(t_end);
        }
        self.master.run_until(SimTime::from_secs(t_end));
        self.handle_crashes();
        self.collect();
        self.state.pool.expire(t_end);
        self.dispatch(t_end);
        self.emit_queue_gauges(t_end);
        self.observe_slo(t_end);
        self.apply_control(t_end);
    }

    /// Drive the gateway: accept arrivals until the horizon, then drain
    /// every admitted invocation and assemble the report.
    pub fn run(mut self) -> ServingReport {
        let tick = self.config.tick_secs;
        let horizon = self.config.horizon_secs;
        let mut t = 0.0;
        while t < horizon {
            let t_end = (t + tick).min(horizon);
            self.tick(t_end, true);
            t = t_end;
        }
        self.in_steady_phase = false;
        let mut guard: u64 = 0;
        // Drain until every admission is accounted for (completed, failed,
        // or lost to a crash/trim) *and* the master has no outstanding
        // work — an unjournaled restart re-runs tasks whose invocations
        // the gateway already wrote off, and those must still finish.
        loop {
            let admitted: u64 = self.state.counters.iter().map(|c| c.admitted).sum();
            let done: u64 = self
                .state
                .counters
                .iter()
                .map(|c| c.completed + c.failed)
                .sum::<u64>()
                + self.state.lost;
            if done >= admitted && self.master.completed() >= self.master.submitted() {
                break;
            }
            t += tick;
            self.tick(t, false);
            guard += 1;
            assert!(
                guard < 100_000_000,
                "drain diverged: {done} of {admitted} done at t={t}"
            );
        }
        self.finish(t)
    }

    fn finish(mut self, end_secs: f64) -> ServingReport {
        let alerts: Vec<AlertReport> = match self.slo_rt.take() {
            Some(mut rt) => {
                let batch = rt.recorder.finish_tail(&mut rt.cursor);
                for record in &batch.records {
                    rt.monitor.consume(record);
                }
                rt.monitor.evaluate(end_secs);
                rt.monitor
                    .alerts()
                    .iter()
                    .map(|a| AlertReport {
                        tenant: a.tenant.clone(),
                        severity: a.severity.as_str().to_string(),
                        short_secs: a.short_secs,
                        long_secs: a.long_secs,
                        threshold: a.threshold,
                        fired_at_secs: a.fired_at_secs,
                        resolved_at_secs: a.resolved_at_secs,
                        peak_burn: a.peak_burn,
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        let tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .zip(&self.state.counters)
            .zip(&self.tenant_latency)
            .map(|((cfg, c), hist)| TenantReport {
                name: cfg.name.clone(),
                weight: cfg.weight,
                class: cfg.class.name().to_string(),
                offered: c.offered,
                admitted: c.admitted,
                rejected_rate: c.rejected_rate,
                rejected_queue_full: c.rejected_queue_full,
                shed: c.shed,
                dispatched_steady: c.dispatched_steady,
                completed: c.completed,
                failed: c.failed,
                latency: LatencyStats::from_histogram(hist),
            })
            .collect();
        let totals = |f: fn(&TenantCounters) -> u64| self.state.counters.iter().map(f).sum::<u64>();
        let master_crashes = self.master.crashes();
        let master_recoveries = self.master.recoveries();
        let journal_bytes = self.master.journal_bytes() + self.gateway_journal_bytes;
        let report = self.master.finish();
        ServingReport {
            seed: self.config.seed,
            horizon_secs: self.config.horizon_secs,
            end_secs,
            offered: totals(|c| c.offered),
            admitted: totals(|c| c.admitted),
            rejected_rate: totals(|c| c.rejected_rate),
            rejected_queue_full: totals(|c| c.rejected_queue_full),
            shed: totals(|c| c.shed),
            completed: totals(|c| c.completed),
            failed: totals(|c| c.failed),
            latency: LatencyStats::from_histogram(&self.latency),
            queue_wait: LatencyStats::from_histogram(&self.queue_wait),
            warm_hits: self.state.pool.hits(),
            warm_misses: self.state.pool.misses(),
            warm_hit_rate: self.state.pool.hit_rate(),
            warm_expirations: self.state.pool.expirations(),
            batches_submitted: self.batches_submitted,
            master_makespan_secs: report.makespan_secs,
            master_cache_hits: report.cache_hits,
            master_cache_misses: report.cache_misses,
            master_net_bytes: report.net_bytes,
            master_crashes,
            master_recoveries,
            gateway_recoveries: self.gateway_recoveries,
            journal_bytes,
            lost: self.state.lost,
            alerts,
            control_actions: self.control_log,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalConfig;
    use crate::tenant::{PriorityClass, RateQuota};

    fn node() -> NodeSpec {
        NodeSpec::new(16, 64 * 1024, 100 * 1024)
    }

    fn fast_fn() -> ServingFunction {
        // 0.5s, 1 core: 4 workers x 16 cores => ~128 inv/s capacity.
        ServingFunction::synthetic(
            "classify",
            50 << 20,
            ActivationTech::Docker,
            SimTaskProfile::new(0.5, 1.0, 1024, 256),
            64 << 10,
        )
    }

    fn base_config() -> ServingConfig {
        ServingConfig::new(4, node())
            .with_seed(11)
            .with_horizon(30.0)
            .with_tick(0.25)
    }

    fn one_tenant(rate: f64) -> Vec<TenantConfig> {
        vec![TenantConfig::new("acme", 1, ArrivalConfig::poisson(rate))]
    }

    #[test]
    fn underloaded_run_completes_everything_quickly() {
        let report = ServingGateway::new(base_config(), vec![fast_fn()], one_tenant(20.0)).run();
        assert!(report.offered > 400, "offered {}", report.offered);
        assert_eq!(report.admitted, report.offered);
        assert_eq!(report.completed, report.admitted);
        assert_eq!(report.failed, 0);
        assert!(report.success_rate() > 0.999);
        // Latency = queue wait (< 2 ticks) + activation + 0.5s exec.
        assert!(
            report.latency.p50 < 3.0,
            "p50 {} too high for underload",
            report.latency.p50
        );
        assert!(report.warm_hit_rate > 0.5, "warm {}", report.warm_hit_rate);
    }

    #[test]
    fn identical_seeds_identical_reports() {
        let run = || {
            let cfg = base_config().with_horizon(10.0);
            let tenants = vec![
                TenantConfig::new(
                    "web",
                    2,
                    ArrivalConfig::poisson(30.0).with_diurnal(0.4, 20.0),
                )
                .with_class(PriorityClass::Critical),
                TenantConfig::new(
                    "batch",
                    1,
                    ArrivalConfig::poisson(40.0).with_bursts(0.05, 2.0, 3.0),
                )
                .with_class(PriorityClass::Batch)
                .with_quota(RateQuota::new(35.0, 50.0)),
            ];
            ServingGateway::new(cfg, vec![fast_fn()], tenants).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.summary_json(), b.summary_json());
    }

    #[test]
    fn overload_with_admission_bounds_latency() {
        // ~3x capacity with small queues: waits stay bounded by depth.
        let cfg = base_config()
            .with_admission(AdmissionConfig::new(512))
            .with_horizon(20.0);
        let tenants =
            vec![TenantConfig::new("flood", 1, ArrivalConfig::poisson(400.0))
                .with_max_queue_depth(128)];
        let report = ServingGateway::new(cfg, vec![fast_fn()], tenants).run();
        assert!(
            report.rejected_queue_full > 0,
            "expected queue-full rejections"
        );
        assert!(report.success_rate() < 0.9, "overload must shed load");
        assert!(report.success_rate() > 0.1, "but not collapse");
        // Wait is bounded by (queue depth + dispatch window) / service
        // rate — a few seconds — while the no-admission baseline's p99
        // grows with the horizon (pinned comparatively in bench_serving).
        assert!(
            report.latency.p99 < 15.0,
            "admission failed to bound p99: {}",
            report.latency.p99
        );
    }

    #[test]
    fn rate_quota_is_enforced() {
        let cfg = base_config().with_horizon(20.0);
        let tenants = vec![one_tenant(50.0)
            .pop()
            .unwrap()
            .with_quota(RateQuota::new(10.0, 5.0))];
        let report = ServingGateway::new(cfg, vec![fast_fn()], tenants).run();
        assert!(report.rejected_rate > 0);
        // Admitted rate ~ quota rate (plus initial burst).
        let admitted_rate = report.admitted as f64 / 20.0;
        assert!(
            admitted_rate < 12.0,
            "quota leak: admitted {admitted_rate}/s against 10/s quota"
        );
    }

    #[test]
    fn fair_share_tracks_weights_under_saturation() {
        let cfg = base_config()
            .with_horizon(40.0)
            .with_admission(AdmissionConfig::new(100_000));
        // Three equal floods, weights 1/2/4, all Standard.
        let tenants: Vec<TenantConfig> = [("w1", 1u32), ("w2", 2), ("w4", 4)]
            .iter()
            .map(|&(name, w)| {
                TenantConfig::new(name, w, ArrivalConfig::poisson(200.0))
                    .with_max_queue_depth(100_000)
            })
            .collect();
        let report = ServingGateway::new(cfg, vec![fast_fn()], tenants).run();
        let total: u64 = report.tenants.iter().map(|t| t.dispatched_steady).sum();
        for (t, expect) in report.tenants.iter().zip([1.0 / 7.0, 2.0 / 7.0, 4.0 / 7.0]) {
            let share = t.dispatched_steady as f64 / total as f64;
            assert!(
                (share - expect).abs() / expect < 0.05,
                "{}: share {share:.4} vs weight share {expect:.4}",
                t.name
            );
        }
    }

    #[test]
    fn critical_class_preempts_batch() {
        let cfg = base_config().with_horizon(20.0);
        let tenants = vec![
            TenantConfig::new("interactive", 1, ArrivalConfig::poisson(60.0))
                .with_class(PriorityClass::Critical)
                .with_max_queue_depth(10_000),
            TenantConfig::new("analytics", 1, ArrivalConfig::poisson(200.0))
                .with_class(PriorityClass::Batch)
                .with_max_queue_depth(10_000),
        ];
        let report = ServingGateway::new(cfg, vec![fast_fn()], tenants).run();
        let crit = &report.tenants[0];
        let batch = &report.tenants[1];
        // Critical under capacity: near-zero queueing. Batch absorbs all delay.
        assert!(
            crit.latency.p99 < batch.latency.p99 / 2.0,
            "critical p99 {} vs batch p99 {}",
            crit.latency.p99,
            batch.latency.p99
        );
    }

    #[test]
    fn funcx_registered_function_serves() {
        let svc = FuncXService::new();
        let mut reg = FunctionRegistry::new();
        let f = ServingFunction::from_source(
            &svc,
            &mut reg,
            "classify_image",
            lfm_pyenv::source::funcx_classify_source(),
            ActivationTech::Singularity,
            SimTaskProfile::new(1.0, 1.0, 2048, 512),
            150 << 10,
        )
        .unwrap();
        assert!(f.env.size_bytes > 100 << 20, "real packed env expected");
        let cfg = base_config().with_horizon(10.0);
        let report = ServingGateway::new(cfg, vec![f], one_tenant(10.0)).run();
        assert_eq!(report.completed, report.admitted);
        assert!(report.completed > 50);
        assert!(report.warm_hit_rate > 0.0);
    }

    #[test]
    fn telemetry_counters_and_spans_emitted() {
        let rec = Recorder::enabled();
        let cfg = base_config().with_horizon(5.0).with_telemetry(rec.clone());
        let report = ServingGateway::new(cfg, vec![fast_fn()], one_tenant(20.0)).run();
        let records = rec.take();
        let names: std::collections::BTreeSet<String> = records
            .iter()
            .filter_map(|r| match r {
                lfm_telemetry::Record::Metric(m) => Some(m.name.clone()),
                lfm_telemetry::Record::Span(s) => Some(s.name.clone()),
                _ => None,
            })
            .collect();
        assert!(names.contains("serving.admitted.acme"), "{names:?}");
        assert!(names.contains("serving.queue_depth.acme"), "{names:?}");
        assert!(names.contains("serving.queue"), "{names:?}");
        assert!(names.contains("serving.invoke"), "{names:?}");
        let invokes = records
            .iter()
            .filter(|r| matches!(r, lfm_telemetry::Record::Span(s) if s.name == "serving.invoke"))
            .count() as u64;
        assert_eq!(invokes, report.completed);
    }

    #[test]
    fn telemetry_trace_is_byte_stable_across_runs() {
        let run = || {
            let rec = Recorder::enabled();
            let cfg = base_config().with_horizon(5.0).with_telemetry(rec.clone());
            ServingGateway::new(cfg, vec![fast_fn()], one_tenant(30.0)).run();
            lfm_telemetry::export::chrome_trace(&rec.take())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "references unknown function")]
    fn unknown_function_index_rejected() {
        let tenants = vec![one_tenant(1.0).pop().unwrap().with_function(3)];
        ServingGateway::new(base_config(), vec![fast_fn()], tenants);
    }

    /// Windows scaled to test horizons: fire when the error ratio burns
    /// the 5% budget at 2x over both a 5s and a 15s window.
    fn burn_slo() -> SloConfig {
        use lfm_telemetry::slo::{BurnWindow, Severity};
        SloConfig::new(0.95)
            .with_bucket_secs(1.0)
            .with_windows(vec![BurnWindow::new(5.0, 15.0, 2.0, Severity::Page)])
    }

    fn flood_tenants() -> Vec<TenantConfig> {
        vec![TenantConfig::new("flood", 1, ArrivalConfig::poisson(400.0)).with_max_queue_depth(128)]
    }

    #[test]
    fn slo_alerts_fire_deterministically_on_overload() {
        // ~3x capacity: most arrivals bounce off the depth bound, so the
        // error ratio burns the budget within a few seconds.
        let run = || {
            let cfg = base_config()
                .with_admission(AdmissionConfig::new(512))
                .with_horizon(20.0)
                .with_slo(burn_slo());
            ServingGateway::new(cfg, vec![fast_fn()], flood_tenants()).run()
        };
        let a = run();
        let b = run();
        assert!(!a.alerts.is_empty(), "overload must fire a burn alert");
        let alert = &a.alerts[0];
        assert_eq!(alert.tenant, "flood");
        assert_eq!(alert.severity, "page");
        assert!(
            alert.fired_at_secs < 20.0,
            "alert should fire during the arrival phase, not at {}",
            alert.fired_at_secs
        );
        assert!(alert.peak_burn >= 2.0, "peak burn {}", alert.peak_burn);
        assert_eq!(a, b, "seeded alert firing must be deterministic");
        assert_eq!(a.summary_json(), b.summary_json());
        assert!(a
            .summary_json()
            .contains("\"alerts\":[{\"tenant\":\"flood\",\"severity\":\"page\""));
    }

    #[test]
    fn slo_quiet_on_at_capacity_baseline() {
        // Same rules, calibrated load: nothing rejected, nothing fires.
        let cfg = base_config().with_slo(burn_slo());
        let report = ServingGateway::new(cfg, vec![fast_fn()], one_tenant(20.0)).run();
        assert_eq!(report.completed, report.admitted);
        assert!(report.alerts.is_empty(), "{:?}", report.alerts);
        assert!(report.summary_json().contains("\"alerts\":[]"));
    }

    #[test]
    fn slo_tailing_drains_a_shared_recorder() {
        let rec = Recorder::enabled();
        let cfg = base_config()
            .with_admission(AdmissionConfig::new(512))
            .with_horizon(20.0)
            .with_telemetry(rec.clone())
            .with_slo(burn_slo());
        let report = ServingGateway::new(cfg, vec![fast_fn()], flood_tenants()).run();
        assert!(!report.alerts.is_empty());
        // The SLO tail is the one draining consumer: by the time the run
        // returns, every record has been consumed incrementally.
        assert!(rec.take().is_empty());
    }

    use lfm_workqueue::faults::{FaultPlan, FaultSpec};
    use lfm_workqueue::journal::DurabilityConfig;

    /// Crash roughly twice during a ~20s run (thousands of master events).
    fn crashy(mean_events: f64, max: u32) -> FaultPlan {
        FaultPlan::reliable().with(FaultSpec::master_crash(mean_events, max))
    }

    #[test]
    fn journaled_crashes_recover_the_gateway_and_lose_nothing() {
        let cfg = base_config()
            .with_horizon(20.0)
            .with_durability(DurabilityConfig::journal_with_snapshots(256))
            .with_faults(crashy(600.0, 3));
        let tenants = vec![one_tenant(40.0)
            .pop()
            .unwrap()
            .with_quota(RateQuota::new(30.0, 40.0))];
        let report = ServingGateway::new(cfg, vec![fast_fn()], tenants).run();
        assert!(report.master_crashes > 0, "crash points never fired");
        assert_eq!(report.master_recoveries, report.master_crashes);
        assert_eq!(
            report.gateway_recoveries, report.master_crashes,
            "gateway must ride every master recovery"
        );
        assert!(report.journal_bytes > 0);
        assert_eq!(report.lost, 0, "journaled recovery loses nothing");
        assert!(report.invocations_conserved(), "{report:?}");
        assert_eq!(report.completed, report.admitted);
    }

    #[test]
    fn unjournaled_crash_is_a_full_restart_with_counted_loss() {
        let cfg = base_config()
            .with_horizon(20.0)
            .with_faults(crashy(2000.0, 2));
        let report = ServingGateway::new(cfg, vec![fast_fn()], one_tenant(60.0)).run();
        assert!(report.master_crashes > 0, "crash points never fired");
        assert_eq!(report.master_recoveries, 0, "no journal, no recovery");
        assert_eq!(report.gateway_recoveries, 0);
        assert_eq!(report.journal_bytes, 0);
        assert!(
            report.lost > 0,
            "a restart must forget in-flight admissions"
        );
        assert!(
            report.invocations_conserved(),
            "conservation must hold through loss: {report:?}"
        );
        assert!(report.completed < report.admitted);
    }

    #[test]
    fn crashed_serving_runs_are_deterministic() {
        for durable in [false, true] {
            let run = || {
                let mut cfg = base_config()
                    .with_horizon(15.0)
                    .with_faults(crashy(1500.0, 2));
                if durable {
                    cfg = cfg.with_durability(DurabilityConfig::journal_only());
                }
                ServingGateway::new(cfg, vec![fast_fn()], one_tenant(50.0)).run()
            };
            let a = run();
            let b = run();
            assert!(a.master_crashes > 0, "durable={durable}: no crash fired");
            assert_eq!(a, b, "durable={durable}");
            assert_eq!(a.summary_json(), b.summary_json(), "durable={durable}");
        }
    }

    #[test]
    fn control_loop_stages_degradation_on_overload() {
        // ~3x capacity with generous base depth: without control the
        // backlog rides at the depth bound; with it, the first burn alert
        // tightens the flood tenant's admission.
        let run = || {
            let cfg = base_config()
                .with_admission(AdmissionConfig::new(100_000))
                .with_horizon(20.0)
                .with_slo(burn_slo())
                .with_control(ControlConfig::new().with_cooldown(4.0));
            let tenants = vec![TenantConfig::new("flood", 1, ArrivalConfig::poisson(400.0))
                .with_max_queue_depth(2048)
                .with_quota(RateQuota::new(300.0, 400.0))];
            ServingGateway::new(cfg, vec![fast_fn()], tenants).run()
        };
        let a = run();
        assert!(!a.alerts.is_empty(), "overload must fire the burn alert");
        assert!(
            !a.control_actions.is_empty(),
            "alert edges must produce control actions"
        );
        let first = &a.control_actions[0];
        assert_eq!(first.action, "tighten");
        assert_eq!(first.tenant, "flood");
        assert_eq!(first.level, 1);
        assert!(first.queue_depth < 2048, "depth bound must shrink");
        assert!(
            first.quota_rate.unwrap() < 300.0,
            "token refill must shrink"
        );
        assert!(
            first.pool_capacity > 32,
            "warm pool must grow past base (4 workers x 8)"
        );
        assert!(a.invocations_conserved(), "{a:?}");
        // Tightening must actually bite: rejections beyond what the base
        // config produced, and actions land in the JSON summary.
        assert!(a
            .summary_json()
            .contains("\"control_actions\":[{\"at_secs\":"));
        let b = run();
        assert_eq!(a, b, "control actions must be seed-deterministic");
    }

    #[test]
    #[should_panic(expected = "requires an SLO")]
    fn control_requires_slo() {
        let cfg = base_config().with_control(ControlConfig::new());
        ServingGateway::new(cfg, vec![fast_fn()], one_tenant(1.0));
    }

    /// The gateway [`pinned_state`] is a state of: two tenants over two
    /// functions, the second tenant quota'd.
    fn pinned_gateway() -> (ServingConfig, Vec<TenantConfig>) {
        let cfg = ServingConfig::new(1, node()).with_warm_pool(WarmPoolConfig::new(8, 30.0));
        let tenants = vec![
            TenantConfig::new("web", 2, ArrivalConfig::poisson(1.0))
                .with_class(PriorityClass::Critical)
                .with_max_queue_depth(64),
            TenantConfig::new("batch", 1, ArrivalConfig::poisson(1.0))
                .with_max_queue_depth(64)
                .with_quota(RateQuota::new(9.0, 12.0))
                .with_function(1),
        ];
        (cfg, tenants)
    }

    fn pinned_fresh() -> GatewayState {
        let (cfg, tenants) = pinned_gateway();
        GatewayState::fresh(&cfg, &tenants)
    }

    /// A hand-built state mid-run: a backlog behind the quota'd tenant, two
    /// invocations in flight, three warm instances, and the control loop's
    /// marks on it (depth 64 → 16, refill 9 → 4.5 /s, pool 8 → 6).
    fn pinned_state() -> GatewayState {
        let mut s = pinned_fresh();
        s.next_invocation = 9;
        s.lost = 2;
        for (invocation, arrival_secs) in [(7, 1.5), (8, 1.75)] {
            s.queues[1].push_back(Queued {
                invocation,
                function: 1,
                arrival_secs,
            });
        }
        for (invocation, tenant, arrival_secs, dispatch_secs, warm) in
            [(3, 0, 0.5, 0.75, true), (5, 1, 1.0, 1.25, false)]
        {
            let entry = InFlight {
                tenant,
                arrival_secs,
                dispatch_secs,
                warm,
            };
            s.in_flight.insert(invocation, entry);
        }
        s.sched.tenants[0].pass = 3 << 19;
        s.sched.tenants[1].pass = 2 << 20;
        let bucket = s.buckets[1].as_mut().unwrap();
        bucket.tokens = 2.5;
        bucket.last_refill_secs = 1.75;
        bucket.quota.rate_per_sec = 4.5;
        s.depth_limit[1] = 16;
        for (c, base) in s.counters.iter_mut().zip([11, 21]) {
            *c = TenantCounters {
                offered: base,
                admitted: base + 1,
                rejected_rate: base + 2,
                rejected_queue_full: base + 3,
                shed: base + 4,
                dispatched_steady: base + 5,
                completed: base + 6,
                failed: base + 7,
            };
        }
        for (id, function, last_used_secs) in [(0, 0, 0.25), (2, 1, 0.75), (3, 0, 1.25)] {
            let entry = Entry {
                function,
                last_used_secs,
            };
            s.pool.entries.insert(id, entry);
        }
        s.pool.next_id = 4;
        s.pool.config.capacity = 6;
        s.pool.hits = 5;
        s.pool.misses = 4;
        s.pool.expirations = 1;
        s
    }

    fn decode_pinned(bytes: &[u8]) -> Result<GatewayState, StateError> {
        GatewayState::decode(bytes, pinned_fresh(), 2)
    }

    #[test]
    fn gateway_image_layout_is_pinned() {
        // A round trip cannot see a layout change made to encoder and
        // decoder together; these bytes were written by the encoder of the
        // commit before `GatewayState` existed.
        let state = pinned_state();
        assert_eq!(state.encode(), PINNED_IMAGE);
        assert_eq!(decode_pinned(&PINNED_IMAGE), Ok(state));

        // Damaged bytes are an error or some other well-formed state
        // (every count in the layout is followed by that many entries, so
        // a state that decodes re-encodes to the same length); no panic.
        for cut in 0..PINNED_IMAGE.len() {
            assert_eq!(
                decode_pinned(&PINNED_IMAGE[..cut]),
                Err(StateError::Truncated),
                "prefix of {cut} bytes"
            );
        }
        for at in 0..PINNED_IMAGE.len() {
            for mask in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff] {
                let mut bytes = PINNED_IMAGE;
                bytes[at] ^= mask;
                if let Ok(state) = decode_pinned(&bytes) {
                    assert_eq!(state.encode().len(), bytes.len(), "byte {at} ^ {mask:#x}");
                }
            }
        }
    }

    #[test]
    fn decode_rejects_what_restore_used_to_trip_on() {
        // (word of `PINNED_IMAGE`, what to put there, the field refused).
        let nan = f64::NAN.to_bits();
        let cases: [(usize, u64, &str); 24] = [
            // A section one tenant short used to be silently zipped short;
            // one long was dropped (or, for passes, panicked).
            (2, 1, "queue count"),
            (2, 3, "queue count"),
            (22, 1, "pass count"),
            (22, 3, "pass count"),
            (25, 1, "bucket count"),
            (25, 3, "bucket count"),
            (31, 1, "depth-limit count"),
            (31, 3, "depth-limit count"),
            (34, 1, "counter count"),
            (34, 3, "counter count"),
            // `dispatch` indexes the function table with it.
            (6, 2, "queued function"),
            // `collect` indexes the counters with it; the check comes
            // before any narrowing to 32 bits.
            (13, 2, "in-flight tenant"),
            (13, (1 << 32) | 1, "in-flight tenant"),
            (17, 3, "repeated in-flight invocation"),
            (55, 0, "repeated warm instance"),
            // A bucket for the unmetered tenant, none for the quota'd one.
            (26, 1, "bucket presence"),
            (27, 0, "bucket presence"),
            // `TokenBucket::restore` asserted on the first two.
            (28, nan, "token level"),
            (28, (-1.0f64).to_bits(), "token level"),
            (28, 12.5f64.to_bits(), "token level"),
            // `TokenBucket::set_rate` asserted on these.
            (30, nan, "quota rate"),
            (30, 0.0f64.to_bits(), "quota rate"),
            (30, (-4.5f64).to_bits(), "quota rate"),
            (30, f64::INFINITY.to_bits(), "quota rate"),
        ];
        for (word, value, field) in cases {
            let mut bytes = PINNED_IMAGE;
            bytes[word * 8..][..8].copy_from_slice(&value.to_le_bytes());
            assert_eq!(
                decode_pinned(&bytes),
                Err(StateError::Inconsistent(field)),
                "word {word} = {value:#x}"
            );
        }
        let mut long = PINNED_IMAGE.to_vec();
        long.push(0);
        assert_eq!(
            decode_pinned(&long),
            Err(StateError::Inconsistent("trailing bytes"))
        );
        // The same bytes against a gateway they were not written by.
        assert_eq!(
            GatewayState::decode(&PINNED_IMAGE, pinned_fresh(), 1),
            Err(StateError::Inconsistent("queued function"))
        );
    }

    #[test]
    fn journaled_crash_run_is_pinned() {
        // The overloaded, controlled, journaled run of
        // `control_loop_stages_degradation_on_overload` with crashes in it.
        // The numbers are the ones the commit before `GatewayState`
        // printed: the image bytes (inside `journal_bytes`), the recoveries
        // and everything downstream of a recovered state did not move.
        let cfg = base_config()
            .with_admission(AdmissionConfig::new(100_000))
            .with_horizon(20.0)
            .with_slo(burn_slo())
            .with_control(ControlConfig::new().with_cooldown(4.0))
            .with_durability(DurabilityConfig::journal_with_snapshots(256))
            .with_faults(crashy(600.0, 3));
        let tenants = vec![TenantConfig::new("flood", 1, ArrivalConfig::poisson(400.0))
            .with_max_queue_depth(2048)
            .with_quota(RateQuota::new(300.0, 400.0))];
        let r = ServingGateway::new(cfg, vec![fast_fn()], tenants).run();
        assert_eq!(
            (
                r.journal_bytes,
                r.gateway_recoveries,
                r.lost,
                r.completed,
                r.control_actions.len()
            ),
            (701_377, 2, 1898, 668, 5)
        );
    }

    #[test]
    fn full_restart_is_fresh_plus_what_it_carries() {
        // Two seconds of overload: a backlog, a full dispatch window, warm
        // instances, a drained bucket and advanced passes, none of which
        // may survive the restart `handle_crashes` runs without a journal.
        let tenants = vec![TenantConfig::new("flood", 1, ArrivalConfig::poisson(400.0))
            .with_max_queue_depth(128)
            .with_quota(RateQuota::new(300.0, 400.0))];
        let mut gw = ServingGateway::new(base_config(), vec![fast_fn()], tenants);
        for tick in 1..=8 {
            gw.tick(tick as f64 * 0.25, true);
        }
        let before = gw.state.clone();
        let fresh = GatewayState::fresh(&gw.config, &gw.tenants);
        let forgotten = (gw.total_queued() + before.in_flight.len()) as u64;
        assert!(!before.queues[0].is_empty() && !before.in_flight.is_empty());
        assert_ne!(before.sched, fresh.sched);
        assert_ne!(before.buckets, fresh.buckets);
        assert_ne!(before.pool, fresh.pool);
        gw.full_restart();
        assert_eq!(
            gw.state,
            GatewayState {
                next_invocation: before.next_invocation,
                lost: before.lost + forgotten,
                counters: before.counters,
                ..fresh
            }
        );
    }

    /// What the hand-mirrored image type of the commit before `GatewayState`
    /// encoded for [`pinned_state`], one little-endian word per line.
    #[rustfmt::skip]
    const PINNED_IMAGE: [u8; 528] = [
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // next_invocation = 9
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lost = 2
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // queues: 2 tenants
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0: empty
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1: 2 queued
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //     invocation 7
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //     function 1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, //     arrival 1.5
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //     invocation 8
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //     function 1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfc, 0x3f, //     arrival 1.75
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // in_flight: 2
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   invocation 3
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, //   arrival 0.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f, //   dispatch 0.75
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   warm
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   invocation 5
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, //   arrival 1.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf4, 0x3f, //   dispatch 1.25
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   cold
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // passes: 2
        0x00, 0x00, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00, //   3 << 19
        0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, //   2 << 20
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // buckets: 2
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0: unmetered
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1: quota'd
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, //     tokens 2.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfc, 0x3f, //     last refill 1.75
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x12, 0x40, //     rate 4.5
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // depth_limit: 2
        0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   64
        0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   16
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // counters: 2 tenants
        0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0 offered
        0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0 admitted
        0x0d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0 rejected_rate
        0x0e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0 rejected_queue_full
        0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0 shed
        0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0 dispatched_steady
        0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0 completed
        0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 0 failed
        0x15, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1 offered
        0x16, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1 admitted
        0x17, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1 rejected_rate
        0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1 rejected_queue_full
        0x19, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1 shed
        0x1a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1 dispatched_steady
        0x1b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1 completed
        0x1c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   tenant 1 failed
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // pool entries: 3
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   id 0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   function 0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, //   last used 0.25
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   id 2
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   function 1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f, //   last used 0.75
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   id 3
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   function 0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf4, 0x3f, //   last used 1.25
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // pool next_id
        0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // pool capacity
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // pool hits
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // pool misses
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // pool expirations
    ];

    /// Satellite regression: alert firing must not depend on whether the
    /// caller exports a telemetry trace — the gateway swaps in a private
    /// recorder when telemetry is off, and the drained record stream (and
    /// so every alert and control action) is identical either way.
    #[test]
    fn alerts_identical_with_telemetry_on_and_off() {
        let run = |telemetry: Option<Recorder>| {
            let mut cfg = base_config()
                .with_admission(AdmissionConfig::new(512))
                .with_horizon(20.0)
                .with_slo(burn_slo())
                .with_control(ControlConfig::new());
            if let Some(rec) = telemetry {
                cfg = cfg.with_telemetry(rec);
            }
            ServingGateway::new(cfg, vec![fast_fn()], flood_tenants()).run()
        };
        let with_trace = run(Some(Recorder::enabled()));
        let without = run(None);
        assert!(!with_trace.alerts.is_empty());
        assert_eq!(with_trace.alerts, without.alerts);
        assert_eq!(with_trace.control_actions, without.control_actions);
        assert_eq!(with_trace, without, "the full report must match");
        assert_eq!(with_trace.summary_json(), without.summary_json());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::arrivals::ArrivalConfig;
    use crate::tenant::RateQuota;
    use lfm_funcx::container::ActivationTech;
    use lfm_workqueue::faults::{FaultPlan, FaultSpec};
    use lfm_workqueue::journal::DurabilityConfig;
    use proptest::prelude::*;

    fn gateway(seed: u64, durable: bool, faults: FaultPlan) -> ServingGateway {
        let mut cfg = ServingConfig::new(3, NodeSpec::new(8, 32 * 1024, 64 * 1024))
            .with_seed(seed)
            .with_horizon(8.0)
            .with_tick(0.25)
            .with_faults(faults);
        if durable {
            cfg = cfg.with_durability(DurabilityConfig::journal_with_snapshots(128));
        }
        let f = ServingFunction::synthetic(
            "classify",
            20 << 20,
            ActivationTech::Docker,
            SimTaskProfile::new(0.4, 1.0, 512, 128),
            16 << 10,
        );
        let tenants = vec![
            TenantConfig::new("steady", 2, ArrivalConfig::poisson(25.0)).with_max_queue_depth(64),
            TenantConfig::new(
                "bursty",
                1,
                ArrivalConfig::poisson(20.0).with_bursts(0.1, 2.0, 3.0),
            )
            .with_quota(RateQuota::new(18.0, 25.0)),
        ];
        ServingGateway::new(cfg, vec![f], tenants)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The conservation invariant under the crash × churn × chaos
        /// matrix: every admitted invocation is completed, failed, or
        /// counted lost — journaled or not, whatever else is failing.
        #[test]
        fn admissions_conserved_under_crash_churn_chaos(
            seed in 0u64..1000,
            durable in any::<bool>(),
            crash_mean in 400f64..4000.0,
            max_crashes in 1u32..4,
            churn in any::<bool>(),
            chaos in any::<bool>(),
        ) {
            let mut faults = FaultPlan::reliable()
                .with(FaultSpec::master_crash(crash_mean, max_crashes));
            if churn {
                faults = faults.with(FaultSpec::worker_churn(60.0));
            }
            if chaos {
                faults = faults
                    .with(FaultSpec::message_delay(0.05, 0.2))
                    .with(FaultSpec::straggler(0.1, 1.5, 3.0));
            }
            let report = gateway(seed, durable, faults).run();
            prop_assert!(
                report.invocations_conserved(),
                "admitted {} != completed {} + failed {} + lost {} \
                 (durable={durable}, crashes={})",
                report.admitted, report.completed, report.failed,
                report.lost, report.master_crashes
            );
            if durable {
                prop_assert_eq!(report.lost, 0, "journaled runs lose nothing");
                prop_assert_eq!(report.gateway_recoveries, report.master_crashes);
            } else if report.master_crashes > 0 {
                prop_assert_eq!(report.gateway_recoveries, 0);
            }
        }
    }
}
