//! Serving-gateway integration: the full stack — funcX registration,
//! packed environments, the streaming master, admission, fair share, warm
//! pools, telemetry — driven end-to-end through `lfm_core`.

use lfm_core::prelude::*;
use lfm_core::telemetry::export::{chrome_trace, validate_json};
use lfm_core::telemetry::Recorder;

fn node() -> NodeSpec {
    NodeSpec::new(16, 64 * 1024, 100 * 1024)
}

fn classify_fn() -> ServingFunction {
    ServingFunction::synthetic(
        "classify",
        50 << 20,
        ActivationTech::Docker,
        SimTaskProfile::new(0.5, 1.0, 1024, 256),
        64 << 10,
    )
}

fn mixed_tenants() -> Vec<TenantConfig> {
    vec![
        TenantConfig::new(
            "web",
            2,
            ArrivalConfig::poisson(15.0).with_diurnal(0.4, 20.0),
        )
        .with_class(PriorityClass::Critical),
        TenantConfig::new("api", 1, ArrivalConfig::poisson(10.0))
            .with_quota(RateQuota::new(8.0, 16.0)),
        TenantConfig::new(
            "batch",
            1,
            ArrivalConfig::poisson(12.0).with_bursts(0.05, 2.0, 3.0),
        )
        .with_class(PriorityClass::Batch),
    ]
}

fn config(seed: u64) -> ServingConfig {
    ServingConfig::new(4, node())
        .with_seed(seed)
        .with_horizon(20.0)
        .with_tick(0.25)
}

#[test]
fn identical_seeds_give_identical_summaries_and_traces() {
    let run = |seed: u64| {
        let rec = Recorder::enabled();
        let cfg = config(seed).with_telemetry(rec.clone());
        let report = ServingGateway::new(cfg, vec![classify_fn()], mixed_tenants()).run();
        (report, chrome_trace(&rec.take()))
    };
    let (report_a, trace_a) = run(42);
    let (report_b, trace_b) = run(42);
    assert_eq!(report_a, report_b, "reports must be identical");
    assert_eq!(
        report_a.summary_json(),
        report_b.summary_json(),
        "summaries must be byte-identical"
    );
    assert_eq!(trace_a, trace_b, "traces must be byte-identical");
    validate_json(&trace_a).expect("chrome trace is well-formed JSON");
    validate_json(&report_a.summary_json()).expect("summary is well-formed JSON");

    let (report_c, _) = run(43);
    assert_ne!(
        report_a.summary_json(),
        report_c.summary_json(),
        "different seeds must explore different arrivals"
    );
}

#[test]
fn fair_share_holds_across_the_full_stack() {
    // All tenants flooded far past capacity with unbounded admission:
    // dispatches during the arrival phase must split by stride weight.
    let cfg = ServingConfig::new(4, node())
        .with_seed(7)
        .with_horizon(40.0)
        .with_tick(0.25)
        .with_admission(AdmissionConfig::new(1_000_000));
    let tenants: Vec<TenantConfig> = [("bronze", 1u32), ("silver", 2), ("gold", 5)]
        .iter()
        .map(|&(name, w)| {
            TenantConfig::new(name, w, ArrivalConfig::poisson(150.0))
                .with_max_queue_depth(1_000_000)
        })
        .collect();
    let report = ServingGateway::new(cfg, vec![classify_fn()], tenants).run();
    let total: u64 = report.tenants.iter().map(|t| t.dispatched_steady).sum();
    assert!(total > 1000, "saturated run should dispatch plenty");
    for (t, expect) in report.tenants.iter().zip([1.0 / 8.0, 2.0 / 8.0, 5.0 / 8.0]) {
        let share = t.dispatched_steady as f64 / total as f64;
        assert!(
            (share - expect).abs() / expect < 0.05,
            "{}: share {share:.4} vs weight share {expect:.4}",
            t.name
        );
    }
}

#[test]
fn warm_pool_serves_repeat_invocations() {
    let report = ServingGateway::new(config(3), vec![classify_fn()], mixed_tenants()).run();
    assert!(report.completed > 200, "completed {}", report.completed);
    assert!(
        report.warm_hit_rate > 0.5,
        "steady traffic should mostly hit warm environments, got {}",
        report.warm_hit_rate
    );
    assert!(report.warm_hits + report.warm_misses >= report.completed);
}

#[test]
fn funcx_registration_through_core_prelude() {
    // The production path: register mini-Python source, pack its real
    // dependency closure, and serve invocations of it.
    let svc = FuncXService::new();
    let mut reg = FunctionRegistry::new();
    let f = ServingFunction::from_source(
        &svc,
        &mut reg,
        "classify_image",
        lfm_core::pyenv::source::funcx_classify_source(),
        ActivationTech::Singularity,
        SimTaskProfile::new(1.0, 1.0, 2048, 512),
        150 << 10,
    )
    .expect("registration + packing succeeds");
    assert_eq!(reg.len(), 1);
    let report = ServingGateway::new(
        config(5).with_horizon(10.0),
        vec![f],
        vec![TenantConfig::new("ml", 1, ArrivalConfig::poisson(10.0))],
    )
    .run();
    assert_eq!(report.completed, report.admitted);
    assert_eq!(report.failed, 0);
    assert!(report.completed > 50);
}

#[test]
fn admission_bounds_overload_while_baseline_buffers() {
    let flood = || {
        vec![TenantConfig::new("flood", 1, ArrivalConfig::poisson(300.0)).with_max_queue_depth(256)]
    };
    let bounded = ServingGateway::new(
        config(9).with_admission(AdmissionConfig::new(300)),
        vec![classify_fn()],
        flood(),
    )
    .run();
    let unbounded = ServingGateway::new(
        config(9).with_admission(AdmissionConfig::unlimited()),
        vec![classify_fn()],
        flood(),
    )
    .run();
    assert!(bounded.rejection_rate() > 0.0, "overload must shed");
    assert_eq!(unbounded.rejected_rate + unbounded.rejected_queue_full, 0);
    assert!(
        unbounded.latency.p99 > 1.5 * bounded.latency.p99,
        "buffering baseline p99 {} should exceed bounded p99 {}",
        unbounded.latency.p99,
        bounded.latency.p99
    );
    assert!(
        bounded.end_secs < unbounded.end_secs,
        "the baseline drains its backlog long after the horizon"
    );

    // The same claim across offered load, as fractions of a calibrated
    // capacity: three tenants (weights 1/2/4, the heaviest with a diurnal
    // cycle and bursts) on 4 × 16 cores, with admission (shed threshold 300
    // behind a 256-invocation dispatch window) and without.
    const SHED: usize = 300;
    const WINDOW: usize = 256;
    let horizon = 60.0;
    let run = |tenants: Vec<TenantConfig>, admission: AdmissionConfig| {
        let cfg = config(11)
            .with_horizon(horizon)
            .with_dispatch_window(WINDOW)
            .with_admission(admission);
        ServingGateway::new(cfg, vec![classify_fn()], tenants).run()
    };
    // Capacity: steady completions per sim-second under a bounded flood.
    let flood =
        vec![TenantConfig::new("cal", 1, ArrivalConfig::poisson(2000.0)).with_max_queue_depth(512)];
    let cal = run(flood, AdmissionConfig::new(SHED));
    let capacity = cal.completed as f64 / cal.end_secs;
    assert!(capacity > 0.0, "calibration completed nothing");
    let tenants = |rate: f64| {
        let unit = rate / 7.0;
        vec![
            TenantConfig::new("free", 1, ArrivalConfig::poisson(unit)).with_max_queue_depth(256),
            TenantConfig::new("pro", 2, ArrivalConfig::poisson(2.0 * unit))
                .with_max_queue_depth(256),
            TenantConfig::new(
                "enterprise",
                4,
                ArrivalConfig::poisson(4.0 * unit)
                    .with_diurnal(0.25, horizon)
                    .with_bursts(0.01, 2.0, 2.0),
            )
            .with_max_queue_depth(256),
        ]
    };
    // With admission, queue wait is bounded by queued plus in-flight work
    // over the service rate.
    let p99_bound = (SHED + WINDOW) as f64 / capacity + 3.0;
    for frac in [0.25, 0.5, 0.75, 1.0, 1.5, 2.0] {
        let rate = frac * capacity;
        let with = run(tenants(rate), AdmissionConfig::new(SHED));
        let without = run(tenants(rate), AdmissionConfig::unlimited());
        if frac == 0.25 {
            let again = run(tenants(rate), AdmissionConfig::new(SHED));
            assert_eq!(with.summary_json(), again.summary_json());
        }
        assert_eq!(
            with.failed, 0,
            "{frac}x: admitted invocations must all complete"
        );
        assert!(with.warm_hit_rate > 0.0, "{frac}x: warm pool never hit");
        assert!(
            with.latency.p99 < p99_bound,
            "{frac}x: admission p99 {} above its bound {p99_bound:.1}",
            with.latency.p99
        );
        if frac <= 0.75 {
            assert!(
                with.success_rate() > 0.99,
                "{frac}x is underloaded, yet success {}",
                with.success_rate()
            );
        }
        if frac >= 1.5 {
            // Without admission the backlog, and the wait, grows with how
            // long the overload lasts: ~(frac - 1) * horizon by the end.
            assert!(
                without.latency.p99 > 1.5 * with.latency.p99,
                "{frac}x: baseline p99 {} does not diverge from {}",
                without.latency.p99,
                with.latency.p99
            );
            assert!(
                without.latency.p99 > with.latency.p99 + 0.2 * (frac - 1.0) * horizon,
                "{frac}x: baseline p99 {} does not grow with the overload",
                without.latency.p99
            );
            // Graceful degradation: goodput tracks capacity, not collapse.
            assert!(
                with.success_rate() > 0.6 / frac,
                "{frac}x: success {} collapsed",
                with.success_rate()
            );
            assert!(
                with.rejection_rate() > 0.0,
                "{frac}x: no explicit rejection"
            );
        }
    }
}
