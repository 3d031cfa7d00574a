//! Alert-driven admission control: the policy that closes the loop from
//! SLO burn-rate alerts back to the gateway's knobs.
//!
//! A firing burn-rate alert (see [`lfm_telemetry::slo`]) means a tenant is
//! burning its error budget faster than the objective allows — the
//! gateway is already saturated and buffering more of that tenant's work
//! only deepens the hole. [`ControlPolicy`] converts alert *edges* into
//! staged degradation levels:
//!
//! * **Rising edge** (alert fires) → the offending tenant's degradation
//!   level steps up: its effective queue-depth bound and token-bucket
//!   refill rate shrink geometrically (admission tightens), and the warm
//!   pool's capacity grows so the work that *is* admitted runs warm —
//!   shedding load and raising the service rate at the same time.
//! * **Falling edge** (alert resolves) → one level back down, never below
//!   the configured baseline.
//!
//! Two mechanisms keep control actions deterministic and non-thrashing:
//! rising-edge dedup happens at the source (the monitor emits one
//! transition per edge, however many ticks the alert stays firing — see
//! [`SloMonitor::take_transitions`]), and a per-tenant **cooldown**
//! provides hysteresis: a tenant's level moves at most once per
//! `cooldown_secs`, so a page-then-resolve flap cannot oscillate the
//! knobs every tick. Every accepted action lands in the
//! [`ServingReport`](crate::report::ServingReport) control log, byte-for-
//! byte reproducible under a fixed seed.
//!
//! The policy is pure bookkeeping: it owns no queues, buckets, or pools.
//! The gateway drains transitions each tick, asks the policy for the
//! effective knob values, and applies them — which keeps every effect at
//! one call site and lets the policy be tested in isolation.
//!
//! [`SloMonitor::take_transitions`]: lfm_telemetry::slo::SloMonitor::take_transitions

use serde::{Deserialize, Serialize};

/// Degradation-staging knobs. Factors apply per level: at level `n` a
/// tenant's depth bound is `base × depth_factor^n` (floored) and its
/// quota refill `base × quota_factor^n`, while the warm pool grows to
/// `base × pool_factor^total_levels` — all clamped to the floors and
/// ceilings below.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlConfig {
    /// Per-level multiplier on the offending tenant's queue-depth bound.
    pub depth_factor: f64,
    /// Per-level multiplier on the offending tenant's token refill rate.
    pub quota_factor: f64,
    /// Depth bound never tightens below this many queued invocations.
    pub min_depth: usize,
    /// Refill rate never tightens below this fraction of the base quota.
    pub min_rate_fraction: f64,
    /// Warm-pool growth multiplier per active degradation level (summed
    /// over tenants).
    pub pool_factor: f64,
    /// Warm-pool ceiling as a multiple of the configured base capacity.
    pub max_pool_factor: f64,
    /// Hysteresis: a tenant's level moves at most once per this many
    /// simulated seconds.
    pub cooldown_secs: f64,
    /// Deepest degradation stage per tenant.
    pub max_level: u32,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            depth_factor: 0.5,
            quota_factor: 0.5,
            min_depth: 8,
            min_rate_fraction: 0.125,
            pool_factor: 1.5,
            max_pool_factor: 4.0,
            cooldown_secs: 5.0,
            max_level: 4,
        }
    }
}

impl ControlConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_cooldown(mut self, cooldown_secs: f64) -> Self {
        assert!(cooldown_secs >= 0.0, "negative cooldown");
        self.cooldown_secs = cooldown_secs;
        self
    }

    pub fn with_depth_factor(mut self, depth_factor: f64) -> Self {
        assert!(
            depth_factor > 0.0 && depth_factor < 1.0,
            "depth factor must tighten"
        );
        self.depth_factor = depth_factor;
        self
    }

    pub fn with_quota_factor(mut self, quota_factor: f64) -> Self {
        assert!(
            quota_factor > 0.0 && quota_factor < 1.0,
            "quota factor must tighten"
        );
        self.quota_factor = quota_factor;
        self
    }

    pub fn with_max_level(mut self, max_level: u32) -> Self {
        assert!(max_level > 0, "zero max level");
        self.max_level = max_level;
        self
    }
}

/// One tenant's control state.
#[derive(Debug, Clone)]
struct TenantControl {
    level: u32,
    last_change_secs: f64,
}

/// What the policy decided about one alert edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlDecision {
    /// Level stepped up: tighten this tenant's admission, grow the pool.
    Tighten { level: u32 },
    /// Level stepped down: relax one stage toward the baseline.
    Relax { level: u32 },
    /// Edge ignored (cooldown still running, or already at a bound).
    Hold,
}

/// The degradation-staging policy. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct ControlPolicy {
    config: ControlConfig,
    tenants: Vec<TenantControl>,
}

impl ControlPolicy {
    pub fn new(config: ControlConfig, tenant_count: usize) -> Self {
        ControlPolicy {
            config,
            tenants: vec![
                TenantControl {
                    level: 0,
                    last_change_secs: f64::NEG_INFINITY,
                };
                tenant_count
            ],
        }
    }

    /// Feed one alert edge for `tenant` at `now_secs`; `rising` is true
    /// when the alert fired, false when it resolved. Returns what (if
    /// anything) changed — the caller applies the new knob values.
    pub fn on_transition(&mut self, tenant: usize, rising: bool, now_secs: f64) -> ControlDecision {
        let t = &mut self.tenants[tenant];
        if now_secs - t.last_change_secs < self.config.cooldown_secs {
            return ControlDecision::Hold;
        }
        if rising {
            if t.level >= self.config.max_level {
                return ControlDecision::Hold;
            }
            t.level += 1;
            t.last_change_secs = now_secs;
            ControlDecision::Tighten { level: t.level }
        } else {
            if t.level == 0 {
                return ControlDecision::Hold;
            }
            t.level -= 1;
            t.last_change_secs = now_secs;
            ControlDecision::Relax { level: t.level }
        }
    }

    /// Current degradation level of one tenant.
    pub fn level(&self, tenant: usize) -> u32 {
        self.tenants[tenant].level
    }

    /// Sum of levels across tenants — drives warm-pool sizing.
    pub fn total_level(&self) -> u32 {
        self.tenants.iter().map(|t| t.level).sum()
    }

    /// Effective queue-depth bound for a tenant with configured bound
    /// `base` at its current level.
    pub fn depth_for(&self, tenant: usize, base: usize) -> usize {
        let level = self.tenants[tenant].level;
        if level == 0 {
            return base;
        }
        let scaled = (base as f64 * self.config.depth_factor.powi(level as i32)).floor() as usize;
        scaled.max(self.config.min_depth).min(base)
    }

    /// Effective token refill rate for a tenant with base quota rate
    /// `base` at its current level.
    pub fn rate_for(&self, tenant: usize, base: f64) -> f64 {
        let level = self.tenants[tenant].level;
        if level == 0 {
            return base;
        }
        let scaled = base * self.config.quota_factor.powi(level as i32);
        scaled.max(base * self.config.min_rate_fraction)
    }

    /// Effective warm-pool capacity for configured base capacity `base`
    /// under the summed degradation level.
    pub fn pool_capacity(&self, base: usize) -> usize {
        let total = self.total_level();
        if total == 0 {
            return base;
        }
        let ceiling = (base as f64 * self.config.max_pool_factor).round() as usize;
        let scaled = (base as f64 * self.config.pool_factor.powi(total as i32)).round() as usize;
        scaled.min(ceiling).max(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rising_edges_step_levels_with_cooldown() {
        let mut p = ControlPolicy::new(ControlConfig::default().with_cooldown(5.0), 2);
        assert_eq!(
            p.on_transition(0, true, 1.0),
            ControlDecision::Tighten { level: 1 }
        );
        // Within cooldown: held, even for a fresh edge.
        assert_eq!(p.on_transition(0, true, 3.0), ControlDecision::Hold);
        assert_eq!(p.level(0), 1);
        // Past cooldown: steps again.
        assert_eq!(
            p.on_transition(0, true, 7.0),
            ControlDecision::Tighten { level: 2 }
        );
        // Other tenants are independent.
        assert_eq!(
            p.on_transition(1, true, 7.0),
            ControlDecision::Tighten { level: 1 }
        );
        assert_eq!(p.total_level(), 3);
    }

    #[test]
    fn falling_edges_relax_toward_baseline() {
        let mut p = ControlPolicy::new(ControlConfig::default().with_cooldown(2.0), 1);
        p.on_transition(0, true, 0.0);
        p.on_transition(0, true, 10.0);
        assert_eq!(p.level(0), 2);
        assert_eq!(
            p.on_transition(0, false, 20.0),
            ControlDecision::Relax { level: 1 }
        );
        assert_eq!(p.on_transition(0, false, 21.0), ControlDecision::Hold);
        assert_eq!(
            p.on_transition(0, false, 30.0),
            ControlDecision::Relax { level: 0 }
        );
        // At baseline a resolve is a no-op.
        assert_eq!(p.on_transition(0, false, 40.0), ControlDecision::Hold);
        assert_eq!(p.level(0), 0);
    }

    #[test]
    fn level_caps_and_knob_floors_hold() {
        let cfg = ControlConfig::default()
            .with_cooldown(0.0)
            .with_max_level(3);
        let mut p = ControlPolicy::new(cfg, 1);
        for i in 0..10 {
            p.on_transition(0, true, i as f64);
        }
        assert_eq!(p.level(0), 3, "level capped");
        // Depth: 256 → 128 → 64 → 32, never below min_depth or above base.
        assert_eq!(p.depth_for(0, 256), 32);
        assert_eq!(p.depth_for(0, 16), 8, "floored at min_depth");
        // Rate: 8 → 1 at level 3, floored at min_rate_fraction.
        assert!((p.rate_for(0, 8.0) - 1.0).abs() < 1e-12);
        assert!((p.rate_for(0, 1.0) - 0.125).abs() < 1e-12, "rate floored");
        // Pool: 1.5^3 = 3.375x, under the 4x ceiling.
        assert_eq!(p.pool_capacity(32), 108);
        let deep = ControlPolicy::new(
            ControlConfig {
                max_level: 10,
                cooldown_secs: 0.0,
                ..ControlConfig::default()
            },
            1,
        );
        let mut deep = deep;
        for i in 0..10 {
            deep.on_transition(0, true, i as f64);
        }
        assert_eq!(deep.pool_capacity(32), 128, "pool capped at 4x");
    }

    #[test]
    fn baseline_level_leaves_knobs_untouched() {
        let p = ControlPolicy::new(ControlConfig::default(), 3);
        assert_eq!(p.depth_for(1, 512), 512);
        assert_eq!(p.rate_for(2, 40.0), 40.0);
        assert_eq!(p.pool_capacity(64), 64);
    }
}
