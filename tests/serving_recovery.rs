//! Crash-safe serving, end to end through the `lfm-core` facade: the
//! journaled gateway recovers from injected master crashes without losing
//! admissions, the unjournaled baseline full-restarts with its loss
//! explicitly counted, the whole crash × control stack is byte-stable
//! under a fixed seed, and the `ServingReport` JSON schema — including
//! the durability, alert, and control-action sections — is pinned
//! against a golden file.

use lfm_core::prelude::*;
use lfm_core::telemetry::slo::{BurnWindow, Severity, SloConfig};

fn classify_fn() -> ServingFunction {
    ServingFunction::synthetic(
        "classify",
        40 << 20,
        ActivationTech::Docker,
        SimTaskProfile::new(0.5, 1.0, 1024, 256),
        64 << 10,
    )
}

fn config(seed: u64) -> ServingConfig {
    ServingConfig::new(4, NodeSpec::new(16, 64 * 1024, 100 * 1024))
        .with_seed(seed)
        .with_horizon(20.0)
        .with_tick(0.25)
}

fn crash_plan(mean_events: f64, max: u32) -> FaultPlan {
    FaultPlan::reliable().with(FaultSpec::master_crash(mean_events, max))
}

/// Completions per simulated second.
fn goodput(r: &ServingReport) -> f64 {
    r.completed as f64 / r.end_secs
}

#[test]
fn journaled_recovery_conserves_where_full_restart_loses() {
    // Up to `max` crash points at mean gaps of `mean_events`, so that about
    // `max` of them land inside the 20 s run.
    for (mean_events, max) in [(800.0, 2), (1000.0, 1), (400.0, 4), (220.0, 8)] {
        let run = |durability: DurabilityConfig| {
            let cfg = config(11)
                .with_durability(durability)
                .with_faults(crash_plan(mean_events, max));
            let tenants = vec![TenantConfig::new("acme", 1, ArrivalConfig::poisson(50.0))];
            ServingGateway::new(cfg, vec![classify_fn()], tenants).run()
        };
        let journaled = run(DurabilityConfig::journal_with_snapshots(256));
        let restart = run(DurabilityConfig::none());
        for (name, r) in [("journaled", &journaled), ("restart", &restart)] {
            assert!(
                r.master_crashes > 0,
                "{name} ({max}): crash points never fired"
            );
            assert!(r.invocations_conserved(), "{name} ({max}): {r:?}");
        }
        // The journaled gateway rides every crash and forgets nothing.
        assert_eq!(journaled.gateway_recoveries, journaled.master_crashes);
        assert_eq!(journaled.lost, 0);
        assert_eq!(journaled.completed, journaled.admitted);
        assert!(journaled.journal_bytes > 0);
        // The baseline restarts from scratch: admitted work is lost (counted,
        // not hidden) and nothing was journaled.
        assert_eq!(restart.gateway_recoveries, 0);
        assert!(restart.lost > 0, "a full restart must forget admissions");
        assert!(restart.completed < restart.admitted);
        assert_eq!(restart.journal_bytes, 0);
        assert!(
            goodput(&journaled) > goodput(&restart),
            "{max} crashes: journaled goodput {:.1} not ahead of full restart {:.1}",
            goodput(&journaled),
            goodput(&restart)
        );
    }
}

/// Offered load past a calibrated capacity into deep queues with no shed
/// bound: static admission buffers the excess, so its p99 grows with how
/// long the overload lasts, while the alert-driven control loop (latency
/// burn alert → staged depth tightening, trimming the burned backlog)
/// keeps p99 bounded.
#[test]
fn control_bounds_p99_where_static_admission_buffers() {
    let horizon = 30.0;
    let flood =
        vec![TenantConfig::new("cal", 1, ArrivalConfig::poisson(2000.0)).with_max_queue_depth(512)];
    let cal = ServingGateway::new(
        config(11)
            .with_horizon(horizon)
            .with_admission(AdmissionConfig::new(300)),
        vec![classify_fn()],
        flood,
    )
    .run();
    let capacity = goodput(&cal);
    assert!(capacity > 0.0, "calibration completed nothing");
    for factor in [2.0, 3.0] {
        let run = |controlled: bool| {
            // A tight dispatch window keeps the backlog in the gateway
            // queue, where a control trim can reach it.
            let mut cfg = config(11)
                .with_horizon(horizon)
                .with_admission(AdmissionConfig::new(1_000_000))
                .with_dispatch_window(96);
            if controlled {
                cfg = cfg
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
                    );
            }
            let tenants =
                vec![
                    TenantConfig::new("flood", 1, ArrivalConfig::poisson(factor * capacity))
                        .with_max_queue_depth(4096),
                ];
            ServingGateway::new(cfg, vec![classify_fn()], tenants).run()
        };
        let control = run(true);
        let fixed = run(false);
        assert!(
            control.invocations_conserved(),
            "{factor}x control: {control:?}"
        );
        assert!(fixed.invocations_conserved(), "{factor}x static: {fixed:?}");
        assert!(
            !control.alerts.is_empty(),
            "{factor}x must fire the burn alert"
        );
        assert!(
            !control.control_actions.is_empty(),
            "{factor}x: alert edges must drive control actions"
        );
        assert!(
            control.latency.p99 < 0.5 * fixed.latency.p99,
            "{factor}x: control p99 {:.1} s not bounded against static {:.1} s",
            control.latency.p99,
            fixed.latency.p99
        );
        assert!(
            fixed.latency.p99 > 0.2 * (factor - 1.0) * horizon,
            "{factor}x: static p99 {:.1} s does not grow with the overload",
            fixed.latency.p99
        );
    }
}

#[test]
fn crash_control_stack_is_deterministic_through_core_prelude() {
    let run = || {
        let cfg = config(23)
            .with_admission(AdmissionConfig::new(100_000))
            .with_durability(DurabilityConfig::journal_only())
            .with_faults(crash_plan(1000.0, 2))
            .with_slo(
                SloConfig::new(0.95)
                    .with_bucket_secs(1.0)
                    .with_windows(vec![BurnWindow::new(5.0, 15.0, 2.0, Severity::Page)]),
            )
            .with_control(ControlConfig::new().with_cooldown(4.0));
        let tenants = vec![
            TenantConfig::new("flood", 1, ArrivalConfig::poisson(300.0))
                .with_max_queue_depth(1024)
                .with_quota(RateQuota::new(250.0, 300.0)),
            TenantConfig::new("steady", 2, ArrivalConfig::poisson(20.0)),
        ];
        ServingGateway::new(cfg, vec![classify_fn()], tenants).run()
    };
    let a = run();
    let b = run();
    assert!(a.master_crashes > 0, "crash points never fired");
    assert!(!a.alerts.is_empty(), "overload must fire the burn alert");
    assert!(!a.control_actions.is_empty(), "alerts must drive actions");
    assert!(a.invocations_conserved(), "{a:?}");
    assert_eq!(a, b);
    assert_eq!(a.summary_json(), b.summary_json());
}

/// Golden-file pin of the `ServingReport::summary_json` schema: field
/// names, order, float formatting, and the alert / control-action /
/// durability sections. A mismatch means the serialized schema changed —
/// update `golden/serving_report.json` deliberately if so.
#[test]
fn summary_json_schema_matches_golden_file() {
    let stats = |count: u64, scale: f64| LatencyStats {
        count,
        mean: 1.5 * scale,
        p50: scale,
        p95: 2.0 * scale,
        p99: 2.5 * scale,
        p999: 2.75 * scale,
        max: 3.0 * scale,
    };
    let report = ServingReport {
        seed: 42,
        horizon_secs: 30.0,
        end_secs: 32.5,
        offered: 1000,
        admitted: 900,
        rejected_rate: 40,
        rejected_queue_full: 35,
        shed: 25,
        completed: 880,
        failed: 5,
        latency: stats(880, 1.0),
        queue_wait: stats(880, 0.25),
        warm_hits: 600,
        warm_misses: 280,
        warm_hit_rate: 600.0 / 880.0,
        warm_expirations: 12,
        batches_submitted: 120,
        master_makespan_secs: 32.0,
        master_cache_hits: 800,
        master_cache_misses: 80,
        master_net_bytes: 123456789,
        master_crashes: 2,
        master_recoveries: 2,
        gateway_recoveries: 2,
        journal_bytes: 65536,
        lost: 15,
        alerts: vec![AlertReport {
            tenant: "flood".into(),
            severity: "page".into(),
            short_secs: 5.0,
            long_secs: 15.0,
            threshold: 2.0,
            fired_at_secs: 6.25,
            resolved_at_secs: None,
            peak_burn: 4.5,
        }],
        control_actions: vec![
            ControlActionReport {
                at_secs: 6.25,
                tenant: "flood".into(),
                action: "tighten".into(),
                level: 1,
                queue_depth: 512,
                quota_rate: Some(125.0),
                pool_capacity: 48,
                trimmed: 15,
            },
            ControlActionReport {
                at_secs: 14.5,
                tenant: "flood".into(),
                action: "relax".into(),
                level: 0,
                queue_depth: 1024,
                quota_rate: Some(250.0),
                pool_capacity: 32,
                trimmed: 0,
            },
        ],
        tenants: vec![TenantReport {
            name: "flood".into(),
            weight: 1,
            class: "standard".into(),
            offered: 1000,
            admitted: 900,
            rejected_rate: 40,
            rejected_queue_full: 35,
            shed: 25,
            dispatched_steady: 870,
            completed: 880,
            failed: 5,
            latency: stats(880, 1.0),
        }],
    };
    assert!(report.invocations_conserved());
    let actual = report.summary_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/golden/serving_report.json"),
            format!("{actual}\n"),
        )
        .expect("rewrite golden file");
    }
    let golden = include_str!("golden/serving_report.json").trim_end();
    assert_eq!(
        actual, golden,
        "ServingReport::summary_json schema drifted from the golden file"
    );
}
