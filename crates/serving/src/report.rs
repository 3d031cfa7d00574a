//! Serving run reports: per-tenant and aggregate accounting with bounded
//! latency sketches, serialized as deterministic JSON.
//!
//! `summary_json` writes through [`JsonObject`] with a fixed field order
//! and Rust's shortest-roundtrip float formatting, so two runs with
//! identical seeds produce byte-identical strings — the determinism
//! acceptance check compares these directly — and names are escaped.

use lfm_monitor::summary::JsonObject;
use lfm_simcluster::metrics::SparseHistogram;
use serde::{Deserialize, Serialize};

/// Percentile summary extracted from a [`SparseHistogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

impl LatencyStats {
    pub fn from_histogram(h: &SparseHistogram) -> Self {
        LatencyStats {
            count: h.count(),
            mean: h.mean(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            p999: h.p999(),
            max: h.max(),
        }
    }

    fn json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("count", self.count)
            .field_f64("mean", self.mean)
            .field_f64("p50", self.p50)
            .field_f64("p95", self.p95)
            .field_f64("p99", self.p99)
            .field_f64("p999", self.p999)
            .field_f64("max", self.max);
        o.finish()
    }
}

/// One tenant's slice of the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    pub name: String,
    pub weight: u32,
    pub class: String,
    pub offered: u64,
    pub admitted: u64,
    pub rejected_rate: u64,
    pub rejected_queue_full: u64,
    pub shed: u64,
    /// Dispatches during the arrival (steady-state) phase — the fairness
    /// check's measurement window.
    pub dispatched_steady: u64,
    pub completed: u64,
    pub failed: u64,
    pub latency: LatencyStats,
}

/// One SLO burn-rate alert fired during the run (see
/// `lfm_telemetry::slo`): which tenant, which window rule, when it fired
/// and (if it did) recovered, and how hard the budget burned at peak.
/// Deterministic for identical seeds — the alert section of
/// [`ServingReport::summary_json`] is part of the byte-stability
/// guarantee.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertReport {
    pub tenant: String,
    /// "page" or "ticket".
    pub severity: String,
    pub short_secs: f64,
    pub long_secs: f64,
    pub threshold: f64,
    pub fired_at_secs: f64,
    /// `None` = still firing when the run ended.
    pub resolved_at_secs: Option<f64>,
    pub peak_burn: f64,
}

impl AlertReport {
    fn json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("tenant", &self.tenant)
            .field_str("severity", &self.severity)
            .field_f64("short_secs", self.short_secs)
            .field_f64("long_secs", self.long_secs)
            .field_f64("threshold", self.threshold)
            .field_f64("fired_at_secs", self.fired_at_secs);
        field_opt_f64(&mut o, "resolved_at_secs", self.resolved_at_secs);
        o.field_f64("peak_burn", self.peak_burn);
        o.finish()
    }
}

/// `v`, or `null` when there is none.
fn field_opt_f64(o: &mut JsonObject, key: &str, v: Option<f64>) {
    match v {
        Some(v) => o.field_f64(key, v),
        None => o.field_raw(key, "null"),
    };
}

/// One accepted control-loop action (see [`crate::control`]): which
/// tenant's degradation level moved, when, and the knob values now in
/// effect. Ordered by action time; deterministic for identical seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlActionReport {
    pub at_secs: f64,
    pub tenant: String,
    /// "tighten" or "relax".
    pub action: String,
    /// The tenant's degradation level after the action.
    pub level: u32,
    /// Effective queue-depth bound now enforced for the tenant.
    pub queue_depth: usize,
    /// Effective token refill rate, when the tenant carries a quota.
    pub quota_rate: Option<f64>,
    /// Warm-pool capacity now in effect (global).
    pub pool_capacity: usize,
    /// Queued invocations shed by this action's depth trim.
    pub trimmed: u64,
}

impl ControlActionReport {
    fn json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_f64("at_secs", self.at_secs)
            .field_str("tenant", &self.tenant)
            .field_str("action", &self.action)
            .field_u64("level", self.level.into())
            .field_u64("queue_depth", self.queue_depth as u64);
        field_opt_f64(&mut o, "quota_rate", self.quota_rate);
        o.field_u64("pool_capacity", self.pool_capacity as u64)
            .field_u64("trimmed", self.trimmed);
        o.finish()
    }
}

/// The whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    pub seed: u64,
    pub horizon_secs: f64,
    /// Simulated time when the drain finished (≥ horizon).
    pub end_secs: f64,
    pub offered: u64,
    pub admitted: u64,
    pub rejected_rate: u64,
    pub rejected_queue_full: u64,
    pub shed: u64,
    pub completed: u64,
    pub failed: u64,
    /// Invocation latency (arrival → completion), successes only.
    pub latency: LatencyStats,
    /// Gateway queue wait (arrival → dispatch).
    pub queue_wait: LatencyStats,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub warm_hit_rate: f64,
    pub warm_expirations: u64,
    /// Master task groups submitted (one `Submit` event each).
    pub batches_submitted: u64,
    pub master_makespan_secs: f64,
    pub master_cache_hits: u64,
    pub master_cache_misses: u64,
    pub master_net_bytes: u64,
    /// Master crashes injected during the run (`FaultSpec::master_crash`).
    pub master_crashes: u32,
    /// Journaled master recoveries (equals `master_crashes` when the
    /// config carries a journal; 0 when crashes fall back to full
    /// restarts).
    pub master_recoveries: u32,
    /// Gateway-state recoveries: crashes survived by restoring the
    /// gateway image (queues, passes, bucket levels, warm entries)
    /// through the journal's encode/decode path.
    pub gateway_recoveries: u32,
    /// Journal bytes written, master records/snapshots plus gateway
    /// images; 0 without a journal.
    pub journal_bytes: u64,
    /// Admitted invocations lost to unjournaled crashes (queued or
    /// in-flight state the restarted gateway forgot). Always 0 with a
    /// journal — the conservation invariant
    /// `admitted == completed + failed + lost` holds either way.
    pub lost: u64,
    /// SLO burn-rate alerts, in firing order (empty when no SLO was
    /// configured or nothing fired).
    pub alerts: Vec<AlertReport>,
    /// Accepted control-loop actions, in action order (empty without an
    /// alert-driven control policy).
    pub control_actions: Vec<ControlActionReport>,
    pub tenants: Vec<TenantReport>,
}

impl ServingReport {
    /// Completed / offered — the goodput fraction clients experienced.
    pub fn success_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Fraction of offered load turned away (rejections + shed).
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.rejected_rate + self.rejected_queue_full + self.shed) as f64 / self.offered as f64
        }
    }

    /// Did the run conserve invocations? Every admitted invocation must
    /// be accounted for: completed, failed, or (unjournaled crashes only)
    /// explicitly lost.
    pub fn invocations_conserved(&self) -> bool {
        self.admitted == self.completed + self.failed + self.lost
    }

    /// Deterministic single-line JSON summary (fixed field order).
    pub fn summary_json(&self) -> String {
        fn array<T>(items: &[T], json: impl Fn(&T) -> String) -> String {
            format!("[{}]", items.iter().map(json).collect::<Vec<_>>().join(","))
        }
        let tenant = |t: &TenantReport| {
            let mut o = JsonObject::new();
            o.field_str("name", &t.name)
                .field_u64("weight", t.weight.into())
                .field_str("class", &t.class)
                .field_u64("offered", t.offered)
                .field_u64("admitted", t.admitted)
                .field_u64("rejected_rate", t.rejected_rate)
                .field_u64("rejected_queue_full", t.rejected_queue_full)
                .field_u64("shed", t.shed)
                .field_u64("dispatched_steady", t.dispatched_steady)
                .field_u64("completed", t.completed)
                .field_u64("failed", t.failed)
                .field_raw("latency", &t.latency.json());
            o.finish()
        };
        let mut o = JsonObject::new();
        o.field_u64("seed", self.seed)
            .field_f64("horizon_secs", self.horizon_secs)
            .field_f64("end_secs", self.end_secs)
            .field_u64("offered", self.offered)
            .field_u64("admitted", self.admitted)
            .field_u64("rejected_rate", self.rejected_rate)
            .field_u64("rejected_queue_full", self.rejected_queue_full)
            .field_u64("shed", self.shed)
            .field_u64("completed", self.completed)
            .field_u64("failed", self.failed)
            .field_f64("success_rate", self.success_rate())
            .field_raw("latency", &self.latency.json())
            .field_raw("queue_wait", &self.queue_wait.json())
            .field_u64("warm_hits", self.warm_hits)
            .field_u64("warm_misses", self.warm_misses)
            .field_f64("warm_hit_rate", self.warm_hit_rate)
            .field_u64("warm_expirations", self.warm_expirations)
            .field_u64("batches_submitted", self.batches_submitted)
            .field_f64("master_makespan_secs", self.master_makespan_secs)
            .field_u64("master_cache_hits", self.master_cache_hits)
            .field_u64("master_cache_misses", self.master_cache_misses)
            .field_u64("master_net_bytes", self.master_net_bytes)
            .field_u64("master_crashes", self.master_crashes.into())
            .field_u64("master_recoveries", self.master_recoveries.into())
            .field_u64("gateway_recoveries", self.gateway_recoveries.into())
            .field_u64("journal_bytes", self.journal_bytes)
            .field_u64("lost", self.lost)
            .field_raw("alerts", &array(&self.alerts, AlertReport::json))
            .field_raw(
                "control_actions",
                &array(&self.control_actions, ControlActionReport::json),
            )
            .field_raw("tenants", &array(&self.tenants, tenant));
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> LatencyStats {
        let mut h = SparseHistogram::new();
        for i in 1..=100 {
            h.record(i as f64 / 10.0);
        }
        LatencyStats::from_histogram(&h)
    }

    #[test]
    fn latency_stats_capture_percentiles() {
        let s = stats();
        assert_eq!(s.count, 100);
        assert!((s.p50 - 5.0).abs() < 0.06);
        assert!((s.p99 - 9.9).abs() < 0.11);
        assert_eq!(s.max, 10.0);
    }

    fn sample_report() -> ServingReport {
        ServingReport {
            seed: 7,
            horizon_secs: 60.0,
            end_secs: 61.5,
            offered: 100,
            admitted: 90,
            rejected_rate: 4,
            rejected_queue_full: 3,
            shed: 3,
            completed: 90,
            failed: 0,
            latency: stats(),
            queue_wait: stats(),
            warm_hits: 60,
            warm_misses: 30,
            warm_hit_rate: 60.0 / 90.0,
            warm_expirations: 2,
            batches_submitted: 12,
            master_makespan_secs: 61.0,
            master_cache_hits: 80,
            master_cache_misses: 10,
            master_net_bytes: 1 << 30,
            master_crashes: 2,
            master_recoveries: 2,
            gateway_recoveries: 2,
            journal_bytes: 9000,
            lost: 0,
            alerts: vec![
                AlertReport {
                    tenant: "acme".into(),
                    severity: "page".into(),
                    short_secs: 5.0,
                    long_secs: 30.0,
                    threshold: 2.0,
                    fired_at_secs: 12.25,
                    resolved_at_secs: Some(19.5),
                    peak_burn: 8.75,
                },
                AlertReport {
                    tenant: "acme".into(),
                    severity: "ticket".into(),
                    short_secs: 10.0,
                    long_secs: 60.0,
                    threshold: 1.0,
                    fired_at_secs: 14.0,
                    resolved_at_secs: None,
                    peak_burn: 3.5,
                },
            ],
            control_actions: vec![ControlActionReport {
                at_secs: 13.0,
                tenant: "acme".into(),
                action: "tighten".into(),
                level: 1,
                queue_depth: 256,
                quota_rate: None,
                pool_capacity: 48,
                trimmed: 12,
            }],
            tenants: vec![TenantReport {
                name: "acme".into(),
                weight: 2,
                class: "standard".into(),
                offered: 100,
                admitted: 90,
                rejected_rate: 4,
                rejected_queue_full: 3,
                shed: 3,
                dispatched_steady: 88,
                completed: 90,
                failed: 0,
                latency: stats(),
            }],
        }
    }

    #[test]
    fn summary_json_is_valid_and_deterministic() {
        let report = sample_report();
        let a = report.summary_json();
        let b = report.clone().summary_json();
        assert_eq!(a, b);
        lfm_telemetry::export::validate_json(&a).expect("summary must be valid JSON");
        assert!((report.success_rate() - 0.9).abs() < 1e-12);
        assert!((report.rejection_rate() - 0.1).abs() < 1e-12);
        // Alert section: fixed order, null for unresolved, before tenants.
        assert!(a.contains(
            "\"alerts\":[{\"tenant\":\"acme\",\"severity\":\"page\",\"short_secs\":5,\
             \"long_secs\":30,\"threshold\":2,\"fired_at_secs\":12.25,\
             \"resolved_at_secs\":19.5,\"peak_burn\":8.75}"
        ));
        assert!(a.contains("\"resolved_at_secs\":null"));
        assert!(a.find("\"alerts\":").unwrap() < a.find("\"tenants\":").unwrap());
        // Durability and control sections sit between master stats and
        // alerts, in fixed order.
        assert!(a.contains(
            "\"master_crashes\":2,\"master_recoveries\":2,\"gateway_recoveries\":2,\
             \"journal_bytes\":9000,\"lost\":0"
        ));
        assert!(a.contains(
            "\"control_actions\":[{\"at_secs\":13,\"tenant\":\"acme\",\"action\":\"tighten\",\
             \"level\":1,\"queue_depth\":256,\"quota_rate\":null,\"pool_capacity\":48,\
             \"trimmed\":12}]"
        ));
        assert!(report.invocations_conserved());
    }

    #[test]
    fn names_are_escaped() {
        let name = "a\"b\\";
        let mut report = sample_report();
        report.alerts[0].tenant = name.into();
        report.control_actions[0].tenant = name.into();
        report.tenants[0].name = name.into();
        let json = report.summary_json();
        lfm_telemetry::export::validate_json(&json).expect("summary must be valid JSON");
        assert_eq!(json.matches(r#":"a\"b\\""#).count(), 3, "{json}");
    }
}
