//! Multi-window SLO burn-rate alerting over the live telemetry stream.
//!
//! The SRE playbook's burn-rate alert, applied to the serving tier: an
//! availability objective (say 99% of requests admitted and served fast
//! enough) defines an error *budget* of `1 - objective`. The **burn
//! rate** over a window is the observed error ratio divided by that
//! budget — burn 1.0 exhausts the budget exactly at the objective
//! period's end, burn 14.4 exhausts a 30-day budget in ~2 days. An alert
//! fires only when a *short* and a *long* window both exceed the
//! threshold: the long window filters blips, the short window makes the
//! alert reset quickly once the incident ends.
//!
//! [`SloMonitor`] consumes the live record stream at the id level (fed by
//! [`crate::Recorder::drain_with`], which hands out [`WireRecord`]s) and
//! buckets per-tenant good/bad events by simulated time:
//!
//! * `serving.admitted.<tenant>` counters are **good** events,
//!   `serving.rejected.<tenant>` / `serving.shed.<tenant>` are **bad** —
//!   the availability half of the objective.
//! * `serving.invoke` spans (one per completed invocation, tenant in the
//!   attrs) are latency events when
//!   [`SloConfig::latency_threshold_secs`] is set: an invocation slower
//!   than the threshold is a bad event at its completion time.
//!
//! The monitor classifies a record by its [`Name`] id: a table indexed by
//! id, filled the first time each distinct id arrives, says whether it is
//! a tenant's good or bad counter, the invoke span, or nothing to the
//! monitor, and holds the id's string (a tenant's name, for the `tenant`
//! attr's value). The `tenant` key is interned once. So consuming a record
//! builds no string and takes no lock, and a tenant's name is copied only
//! at its first event. Most of a shared recorder's stream is other
//! layers' records: on `serving_overload` the monitor uses 27 % of what
//! it is handed.
//!
//! [`SloMonitor::evaluate`] runs at tick boundaries with simulated time
//! as the clock, so alert firing is a pure function of the record stream:
//! identical seeds give identical alert sections, byte for byte. Old
//! buckets are pruned past the longest window — memory is bounded by
//! `tenants x windows`, independent of run length.

use crate::intern::Name;
use crate::record::MetricKind;
use crate::wire::{WireKind, WireRecord, WireVal};
use std::collections::BTreeMap;

/// Alert urgency, ordered by how fast the budget is burning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Slow burn: file a ticket, look during business hours.
    Ticket,
    /// Fast burn: the budget dies within the response time — page.
    Page,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Ticket => "ticket",
            Severity::Page => "page",
        }
    }
}

/// One multi-window burn-rate rule: fire when both windows burn faster
/// than `threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnWindow {
    pub short_secs: f64,
    pub long_secs: f64,
    /// Burn-rate threshold (in budgets-per-objective-period).
    pub threshold: f64,
    pub severity: Severity,
}

impl BurnWindow {
    pub fn new(short_secs: f64, long_secs: f64, threshold: f64, severity: Severity) -> Self {
        assert!(
            short_secs > 0.0 && long_secs >= short_secs,
            "windows must be positive with short <= long"
        );
        assert!(threshold > 0.0, "non-positive burn threshold");
        BurnWindow {
            short_secs,
            long_secs,
            threshold,
            severity,
        }
    }
}

/// SLO definition plus the alerting rules evaluated against it.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Success-ratio objective in (0, 1), e.g. 0.99 = "99% of requests
    /// good". The error budget is `1 - objective`.
    pub objective: f64,
    /// When set, completed `serving.invoke` spans slower than this count
    /// as bad events (the latency half of the SLO). When `None` the SLO
    /// is availability-only.
    pub latency_threshold_secs: Option<f64>,
    /// Bucket granularity of the good/bad event rings. Window sums are
    /// bucket-aligned, so windows should be multiples of this.
    pub bucket_secs: f64,
    /// Rules, evaluated in order every [`SloMonitor::evaluate`].
    pub windows: Vec<BurnWindow>,
}

impl SloConfig {
    /// SRE-textbook defaults for the given objective: page on a 5m/1h
    /// fast burn (14.4x), ticket on a 30m/6h slow burn (6x).
    pub fn new(objective: f64) -> Self {
        assert!(
            objective > 0.0 && objective < 1.0,
            "objective must be in (0, 1)"
        );
        SloConfig {
            objective,
            latency_threshold_secs: None,
            bucket_secs: 5.0,
            windows: vec![
                BurnWindow::new(300.0, 3600.0, 14.4, Severity::Page),
                BurnWindow::new(1800.0, 21600.0, 6.0, Severity::Ticket),
            ],
        }
    }

    /// Replace the window rules (simulation horizons are seconds, not
    /// days, so tests and benches scale the windows down).
    pub fn with_windows(mut self, windows: Vec<BurnWindow>) -> Self {
        assert!(!windows.is_empty(), "no burn windows");
        self.windows = windows;
        self
    }

    pub fn with_bucket_secs(mut self, bucket_secs: f64) -> Self {
        assert!(bucket_secs > 0.0, "non-positive bucket");
        self.bucket_secs = bucket_secs;
        self
    }

    pub fn with_latency_threshold(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "non-positive latency threshold");
        self.latency_threshold_secs = Some(secs);
        self
    }

    fn budget(&self) -> f64 {
        1.0 - self.objective
    }

    fn longest_window_secs(&self) -> f64 {
        self.windows.iter().fold(0.0, |m, w| m.max(w.long_secs))
    }
}

/// One fired burn-rate alert (possibly since resolved).
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    pub tenant: String,
    pub severity: Severity,
    pub short_secs: f64,
    pub long_secs: f64,
    pub threshold: f64,
    /// Simulated time of the evaluation tick that fired the alert.
    pub fired_at_secs: f64,
    /// Set when a later evaluation saw both windows back under the
    /// threshold; `None` = still firing at end of run.
    pub resolved_at_secs: Option<f64>,
    /// Highest short-window burn rate observed while the alert was
    /// active.
    pub peak_burn: f64,
}

/// One edge of an alert's lifecycle, emitted exactly once per transition:
/// `rising = true` the evaluation tick a (tenant, window) rule started
/// firing, `rising = false` the tick it resolved. Consumers that *act* on
/// alerts (the serving control loop) drain these with
/// [`SloMonitor::take_transitions`] instead of diffing the alert log —
/// the rising-edge dedup lives here, in one place, so repeated firing
/// ticks never produce repeated actions.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    pub tenant: String,
    pub severity: Severity,
    /// Index into [`SloConfig::windows`] of the rule that transitioned.
    pub window: usize,
    /// True when the alert fired, false when it resolved.
    pub rising: bool,
    /// Evaluation time of the transition.
    pub at_secs: f64,
    /// Short-window burn rate observed at the transition tick.
    pub burn: f64,
}

/// Good/bad event counts in one time bucket.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    good: u64,
    bad: u64,
}

/// Per-tenant alerting state.
#[derive(Debug, Default)]
struct TenantState {
    /// Time-bucketed ring: bucket index -> counts, pruned past the
    /// longest window.
    buckets: BTreeMap<u64, Bucket>,
    /// Index into [`SloMonitor::alerts`] of the active alert per window
    /// rule (by position in `config.windows`), `None` when quiet.
    active: Vec<Option<usize>>,
}

/// What a record name means to the monitor.
#[derive(Debug, Clone, Copy)]
enum Class {
    /// A `serving.admitted.<tenant>` (good) or `serving.rejected.<tenant>`
    /// / `serving.shed.<tenant>` (bad) counter.
    Event {
        tenant: &'static str,
        good: bool,
    },
    /// The `serving.invoke` span.
    Invoke,
    Other,
}

/// An id the monitor has seen: its string and what it means as a name.
#[derive(Debug, Clone, Copy)]
struct Seen {
    str: &'static str,
    class: Class,
}

impl Seen {
    fn of(name: Name) -> Seen {
        let str = name.as_str();
        let event = |prefix, good| {
            str.strip_prefix(prefix)
                .map(|tenant| Class::Event { tenant, good })
        };
        let class = (event("serving.admitted.", true))
            .or_else(|| event("serving.rejected.", false))
            .or_else(|| event("serving.shed.", false))
            .unwrap_or(if str == "serving.invoke" {
                Class::Invoke
            } else {
                Class::Other
            });
        Seen { str, class }
    }
}

/// Streaming burn-rate evaluator: feed records with
/// [`SloMonitor::consume`], evaluate at tick boundaries with
/// [`SloMonitor::evaluate`], read the deterministic alert log with
/// [`SloMonitor::alerts`].
#[derive(Debug)]
pub struct SloMonitor {
    config: SloConfig,
    /// Indexed by [`Name`] id, filled once per distinct id.
    names: Vec<Option<Seen>>,
    /// The invoke span's tenant attr key.
    tenant_key: Name,
    tenants: BTreeMap<String, TenantState>,
    alerts: Vec<SloAlert>,
    /// Un-drained alert edges since the last [`take_transitions`].
    ///
    /// [`take_transitions`]: SloMonitor::take_transitions
    transitions: Vec<AlertTransition>,
}

impl SloMonitor {
    pub fn new(config: SloConfig) -> Self {
        SloMonitor {
            config,
            names: Vec::new(),
            tenant_key: Name::intern("tenant"),
            tenants: BTreeMap::new(),
            alerts: Vec::new(),
            transitions: Vec::new(),
        }
    }

    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    fn bucket_index(&self, at_secs: f64) -> u64 {
        (at_secs.max(0.0) / self.config.bucket_secs) as u64
    }

    fn record_event(&mut self, tenant: &str, at_secs: f64, good: bool, count: u64) {
        let idx = self.bucket_index(at_secs);
        if !self.tenants.contains_key(tenant) {
            let state = TenantState {
                buckets: BTreeMap::new(),
                active: vec![None; self.config.windows.len()],
            };
            self.tenants.insert(tenant.to_string(), state);
        }
        let state = self.tenants.get_mut(tenant).expect("inserted above");
        let b = state.buckets.entry(idx).or_default();
        if good {
            b.good += count;
        } else {
            b.bad += count;
        }
    }

    /// `name`'s entry in the id table, filled on first sight.
    fn seen(&mut self, name: Name) -> Seen {
        let i = name.0 as usize;
        if i >= self.names.len() {
            self.names.resize(i + 1, None);
        }
        *self.names[i].get_or_insert_with(|| Seen::of(name))
    }

    /// Feed one record from the live stream. Non-serving records are
    /// ignored, so the monitor can share a recorder with every other
    /// layer of the stack.
    pub fn consume(&mut self, record: &WireRecord) {
        match record.kind {
            WireKind::Metric(MetricKind::Counter) => {
                let Some(at) = record.at_secs else { return };
                let Class::Event { tenant, good } = self.seen(record.name).class else {
                    return;
                };
                // Counters carry a delta (always 1 from the gateway, but
                // honour larger deltas from other emitters).
                let count = record.value.max(0.0) as u64;
                if count > 0 {
                    self.record_event(tenant, at, good, count);
                }
            }
            WireKind::Span if matches!(self.seen(record.name).class, Class::Invoke) => {
                let Some(threshold) = self.config.latency_threshold_secs else {
                    return;
                };
                let Some(tenant) = record.attrs.iter().find_map(|&(k, v)| match v {
                    WireVal::Str(t) if k == self.tenant_key => Some(t),
                    _ => None,
                }) else {
                    return;
                };
                let tenant = self.seen(tenant).str;
                let start = record.at_secs.unwrap_or_default();
                let slow = record.end_secs - start > threshold;
                self.record_event(tenant, record.end_secs, !slow, 1);
            }
            _ => {}
        }
    }

    /// Error ratio over `(now - window_secs, now]`, bucket-aligned.
    fn error_ratio(&self, state: &TenantState, now_secs: f64, window_secs: f64) -> f64 {
        let now_idx = self.bucket_index(now_secs);
        let from = now_secs - window_secs;
        let from_idx = if from <= 0.0 {
            0
        } else {
            self.bucket_index(from)
        };
        let (mut good, mut bad) = (0u64, 0u64);
        for (_, b) in state.buckets.range(from_idx..=now_idx) {
            good += b.good;
            bad += b.bad;
        }
        let total = good + bad;
        if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        }
    }

    /// Evaluate every (tenant, window) rule at simulated time `now_secs`:
    /// fire rising edges, resolve falling ones, track peak burn, prune
    /// buckets past the longest window. Call at tick boundaries with
    /// non-decreasing times.
    pub fn evaluate(&mut self, now_secs: f64) {
        let budget = self.config.budget();
        let windows = self.config.windows.clone();
        // Split-borrow dance: evaluation appends to `alerts` while
        // iterating tenants, so take both maps apart explicitly.
        let mut tenants = std::mem::take(&mut self.tenants);
        for (tenant, state) in tenants.iter_mut() {
            for (wi, w) in windows.iter().enumerate() {
                let burn_short = self.error_ratio(state, now_secs, w.short_secs) / budget;
                let burn_long = self.error_ratio(state, now_secs, w.long_secs) / budget;
                let firing = burn_short >= w.threshold && burn_long >= w.threshold;
                match (state.active[wi], firing) {
                    (None, true) => {
                        state.active[wi] = Some(self.alerts.len());
                        self.alerts.push(SloAlert {
                            tenant: tenant.clone(),
                            severity: w.severity,
                            short_secs: w.short_secs,
                            long_secs: w.long_secs,
                            threshold: w.threshold,
                            fired_at_secs: now_secs,
                            resolved_at_secs: None,
                            peak_burn: burn_short,
                        });
                        self.transitions.push(AlertTransition {
                            tenant: tenant.clone(),
                            severity: w.severity,
                            window: wi,
                            rising: true,
                            at_secs: now_secs,
                            burn: burn_short,
                        });
                    }
                    (Some(ai), true) => {
                        let a = &mut self.alerts[ai];
                        if burn_short > a.peak_burn {
                            a.peak_burn = burn_short;
                        }
                    }
                    (Some(ai), false) => {
                        self.alerts[ai].resolved_at_secs = Some(now_secs);
                        state.active[wi] = None;
                        self.transitions.push(AlertTransition {
                            tenant: tenant.clone(),
                            severity: w.severity,
                            window: wi,
                            rising: false,
                            at_secs: now_secs,
                            burn: burn_short,
                        });
                    }
                    (None, false) => {}
                }
            }
            // Prune: everything strictly older than the longest window
            // can never influence another evaluation.
            let horizon = now_secs - self.config.longest_window_secs();
            if horizon > 0.0 {
                let keep_from = self.bucket_index(horizon);
                state.buckets = state.buckets.split_off(&keep_from);
            }
        }
        self.tenants = tenants;
    }

    /// The alert log so far, in firing order (deterministic: tenants are
    /// iterated in name order, windows in config order, at monotone tick
    /// times).
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Drain the alert edges (rising + falling) recorded since the last
    /// call, in evaluation order (tenant name, then window index, at
    /// monotone tick times). Each transition is delivered exactly once —
    /// an alert that keeps firing across many ticks yields one rising
    /// edge, which is what makes edge-driven control deterministic.
    pub fn take_transitions(&mut self) -> Vec<AlertTransition> {
        std::mem::take(&mut self.transitions)
    }

    /// Buckets currently held (memory-bound diagnostics).
    pub fn buckets_held(&self) -> usize {
        self.tenants.values().map(|s| s.buckets.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AttrValue, Record};
    use crate::{Recorder, TailCursor};
    use lfm_simcluster::time::SimTime;
    use proptest::prelude::*;

    /// The owned-record `consume` the id-level one replaced: the oracle it
    /// must agree with.
    fn consume_record(mon: &mut SloMonitor, record: &Record) {
        match record {
            Record::Metric(m) if m.kind == MetricKind::Counter => {
                let Some(at) = m.at_secs else { return };
                let (good, prefix) = if let Some(t) = m.name.strip_prefix("serving.admitted.") {
                    (true, t)
                } else if let Some(t) = m.name.strip_prefix("serving.rejected.") {
                    (false, t)
                } else if let Some(t) = m.name.strip_prefix("serving.shed.") {
                    (false, t)
                } else {
                    return;
                };
                let count = m.value.max(0.0) as u64;
                if count > 0 {
                    mon.record_event(prefix, at, good, count);
                }
            }
            Record::Span(s) if s.name == "serving.invoke" => {
                let Some(threshold) = mon.config.latency_threshold_secs else {
                    return;
                };
                let Some(tenant) = s.attrs.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("tenant", AttrValue::Str(t)) => Some(t.clone()),
                    _ => None,
                }) else {
                    return;
                };
                let slow = s.duration_secs() > threshold;
                mon.record_event(&tenant, s.end_secs, !slow, 1);
            }
            _ => {}
        }
    }

    /// A monitor fed the way the gateway feeds it: records emitted to a
    /// recorder, drained at the id level before every evaluation.
    struct Fed {
        r: Recorder,
        cursor: TailCursor,
        mon: SloMonitor,
    }

    impl Fed {
        fn new(config: SloConfig) -> Self {
            let r = Recorder::enabled();
            let cursor = r.cursor();
            Fed {
                r,
                cursor,
                mon: SloMonitor::new(config),
            }
        }

        fn counter(&self, name: &str, delta: u64, at: f64) {
            self.r.counter_at(name, delta, SimTime::from_secs(at));
        }

        fn invoke(&self, tenant: &str, start: f64, end: f64) {
            (self.r.span("serving.invoke", "serving"))
                .between_secs(start, end)
                .task(1)
                .attr("tenant", tenant)
                .emit();
        }

        fn evaluate(&mut self, now: f64) {
            let mon = &mut self.mon;
            self.r
                .drain_with(&mut self.cursor, false, &mut |w| mon.consume(w));
            self.mon.evaluate(now);
        }
    }

    fn test_config() -> SloConfig {
        // Scaled for second-scale sims: 95% objective, page on 2x burn
        // over 5s/15s windows, 1s buckets.
        SloConfig::new(0.95)
            .with_bucket_secs(1.0)
            .with_windows(vec![BurnWindow::new(5.0, 15.0, 2.0, Severity::Page)])
    }

    #[test]
    fn quiet_stream_never_fires() {
        let mut fed = Fed::new(test_config());
        for t in 0..30 {
            fed.counter("serving.admitted.acme", 1, t as f64);
            fed.evaluate(t as f64);
        }
        assert!(fed.mon.alerts().is_empty());
    }

    #[test]
    fn sustained_errors_fire_and_resolve() {
        let mut fed = Fed::new(test_config());
        // 50% errors for 20s: burn = 0.5 / 0.05 = 10x >> 2x threshold.
        for t in 0..20 {
            fed.counter("serving.admitted.acme", 1, t as f64);
            fed.counter("serving.rejected.acme", 1, t as f64);
            fed.evaluate(t as f64);
        }
        assert_eq!(fed.mon.alerts().len(), 1, "one alert, not one per tick");
        let a = &fed.mon.alerts()[0];
        assert_eq!(a.tenant, "acme");
        assert_eq!(a.severity, Severity::Page);
        assert!(a.resolved_at_secs.is_none(), "still firing");
        assert!(a.peak_burn >= 9.0, "peak burn {}", a.peak_burn);
        // Recovery: clean traffic until both windows decay under 2x.
        for t in 20..60 {
            fed.counter("serving.admitted.acme", 4, t as f64);
            fed.evaluate(t as f64);
        }
        let a = &fed.mon.alerts()[0];
        assert!(
            a.resolved_at_secs.is_some(),
            "alert must resolve after recovery"
        );
        assert_eq!(fed.mon.alerts().len(), 1);
    }

    #[test]
    fn short_blip_filtered_by_long_window() {
        let mut fed = Fed::new(test_config());
        // 14s of clean traffic, then a single 1s error burst: the short
        // window spikes but the long window stays under threshold.
        for t in 0..14 {
            fed.counter("serving.admitted.blip", 10, t as f64);
            fed.evaluate(t as f64);
        }
        fed.counter("serving.rejected.blip", 3, 14.0);
        fed.counter("serving.admitted.blip", 7, 14.0);
        fed.evaluate(14.0);
        assert!(
            fed.mon.alerts().is_empty(),
            "long window must veto a 1-bucket blip: {:?}",
            fed.mon.alerts()
        );
    }

    #[test]
    fn latency_slo_counts_slow_invokes_as_bad() {
        let mut fed = Fed::new(test_config().with_latency_threshold(1.0));
        for t in 0..20 {
            // Every invocation takes 3s: all bad against a 1s threshold.
            fed.invoke("lat", t as f64, t as f64 + 3.0);
            fed.evaluate(t as f64 + 3.0);
        }
        assert_eq!(fed.mon.alerts().len(), 1);
        assert_eq!(fed.mon.alerts()[0].tenant, "lat");
    }

    #[test]
    fn per_tenant_isolation() {
        let mut fed = Fed::new(test_config());
        for t in 0..20 {
            fed.counter("serving.admitted.good", 5, t as f64);
            fed.counter("serving.rejected.bad", 5, t as f64);
            fed.evaluate(t as f64);
        }
        let tenants: Vec<&str> = fed.mon.alerts().iter().map(|a| a.tenant.as_str()).collect();
        assert_eq!(tenants, vec!["bad"], "only the failing tenant pages");
    }

    #[test]
    fn buckets_prune_to_constant_memory() {
        let mut fed = Fed::new(test_config());
        for t in 0..10_000 {
            fed.counter("serving.admitted.mem", 1, t as f64);
            fed.evaluate(t as f64);
        }
        // Longest window 15s at 1s buckets: ~16 live buckets + slack.
        assert!(
            fed.mon.buckets_held() <= 20,
            "buckets must prune: {}",
            fed.mon.buckets_held()
        );
    }

    #[test]
    fn transitions_are_edge_deduped_and_drained_once() {
        let mut fed = Fed::new(test_config());
        // 20s of 50% errors: fires once, despite firing on many ticks.
        for t in 0..20 {
            fed.counter("serving.admitted.acme", 1, t as f64);
            fed.counter("serving.rejected.acme", 1, t as f64);
            fed.evaluate(t as f64);
        }
        let rising = fed.mon.take_transitions();
        assert_eq!(rising.len(), 1, "one rising edge: {rising:?}");
        assert!(rising[0].rising);
        assert_eq!(rising[0].tenant, "acme");
        assert_eq!(rising[0].window, 0);
        assert!(
            fed.mon.take_transitions().is_empty(),
            "drained exactly once"
        );
        // Recovery produces exactly one falling edge.
        for t in 20..60 {
            fed.counter("serving.admitted.acme", 4, t as f64);
            fed.evaluate(t as f64);
        }
        let falling = fed.mon.take_transitions();
        assert_eq!(falling.len(), 1, "{falling:?}");
        assert!(!falling[0].rising);
        assert!(falling[0].at_secs > rising[0].at_secs);
    }

    #[test]
    fn untimed_and_foreign_records_ignored() {
        let mut fed = Fed::new(test_config().with_latency_threshold(1.0));
        fed.r.counter("serving.admitted.x", 1);
        fed.counter("master.submitted", 1, 1.0);
        fed.r
            .gauge("serving.queue_depth.x", 9.0, SimTime::from_secs(1.0));
        fed.r
            .gauge("serving.admitted.x", 9.0, SimTime::from_secs(1.0));
        (fed.r.instant("serving.invoke", "serving"))
            .at(SimTime::from_secs(1.0))
            .attr("tenant", "x")
            .emit();
        fed.evaluate(1.0);
        assert!(fed.mon.tenants.is_empty());
    }

    #[test]
    fn a_tenant_is_copied_once() {
        let mut fed = Fed::new(test_config().with_latency_threshold(1.0));
        for t in 0..50 {
            fed.counter("serving.admitted.once", 1, t as f64);
            fed.invoke("once", t as f64, t as f64 + 0.5);
            fed.evaluate(t as f64 + 0.5);
        }
        assert_eq!(fed.mon.tenants.len(), 1);
        let seen = fed.mon.names.iter().flatten().count();
        assert_eq!(seen, 3, "admitted counter, invoke span, tenant value");
    }

    const TENANTS: [&str; 3] = ["t0", "t1", "t2"];

    /// One step of a drawn stream, from 64 random bits: serving counters
    /// of every outcome with deltas 0, 1 and above, invoke spans with the
    /// `tenant` attr anywhere in the list or missing (and other `Str`
    /// attrs around it), an admitted *gauge*, an invoke *instant*, an
    /// untimed admitted counter, other layers' records, and ticks.
    fn emit(r: &Recorder, bits: u64, now: f64) -> Option<f64> {
        let tenant = TENANTS[(bits >> 8) as usize % TENANTS.len()];
        let at = now + ((bits >> 16) % 1000) as f64 / 1000.0;
        let delta = [0, 1, 1, 1, 2, 7][(bits >> 32) as usize % 6];
        match bits % 12 {
            0 => r.counter_at(
                &format!("serving.admitted.{tenant}"),
                delta,
                SimTime::from_secs(at),
            ),
            1 => r.counter_at(
                &format!("serving.rejected.{tenant}"),
                delta,
                SimTime::from_secs(at),
            ),
            2 => r.counter_at(
                &format!("serving.shed.{tenant}"),
                delta,
                SimTime::from_secs(at),
            ),
            3 | 4 => {
                let attrs = (bits >> 40) % 5;
                let tenant_at = (bits >> 44) % (attrs + 2);
                let mut span = (r.span("serving.invoke", "serving"))
                    .between_secs(at - ((bits >> 48) % 8) as f64, at)
                    .task(bits >> 50);
                for i in 0..=attrs {
                    if i == tenant_at {
                        span = span.attr("tenant", tenant);
                    }
                    span = match i % 3 {
                        0 => span.attr("function", "classify"),
                        1 => span.attr("warm", i),
                        _ => span.attr("tenant_hint", "t9"),
                    };
                }
                if (bits >> 56).is_multiple_of(4) {
                    span = span.attr("tenant", 3u64);
                }
                span.emit();
            }
            5 => r.gauge(
                &format!("serving.admitted.{tenant}"),
                delta as f64,
                SimTime::from_secs(at),
            ),
            6 => (r.instant("serving.invoke", "serving"))
                .at(SimTime::from_secs(at))
                .attr("tenant", tenant)
                .emit(),
            7 => r.counter(&format!("serving.rejected.{tenant}"), delta),
            8 => r.counter_at("master.task_done", delta, SimTime::from_secs(at)),
            9 => (r.span("journal.append", "journal"))
                .between_secs(at, at + 0.1)
                .attr("tenant", tenant)
                .emit(),
            _ => return Some(now + 1.0),
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The id-level monitor fires and resolves exactly what the
        /// owned-record one did, on the stream the gateway's drain hands
        /// it, for any interleaving of serving and foreign records and
        /// tick boundaries.
        #[test]
        fn id_level_consume_matches_the_owned_record_oracle(
            steps in prop::collection::vec(any::<u64>(), 1..400),
            latency in any::<bool>(),
        ) {
            let mut config = test_config();
            if latency {
                config = config.with_latency_threshold(2.5);
            }
            let r = Recorder::enabled();
            let mut cursor = r.cursor();
            let mut mon = SloMonitor::new(config.clone());
            let mut oracle = SloMonitor::new(config);
            let mut now = 0.0;
            for (i, &bits) in steps.iter().enumerate() {
                let tick = emit(&r, bits, now);
                if tick.is_none() && i + 1 < steps.len() {
                    continue;
                }
                r.drain_with(&mut cursor, false, &mut |w| {
                    mon.consume(w);
                    consume_record(&mut oracle, &w.to_record());
                });
                mon.evaluate(now);
                oracle.evaluate(now);
                prop_assert_eq!(mon.take_transitions(), oracle.take_transitions());
                now = tick.unwrap_or(now);
            }
            prop_assert_eq!(mon.alerts(), oracle.alerts());
        }
    }
}
