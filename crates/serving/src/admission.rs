//! Admission control: the gateway's explicit-backpressure front door.
//!
//! Every arrival is classified *immediately* into one of four outcomes —
//! queued work is bounded, so a client always learns its fate at submit
//! time instead of discovering an hour-deep queue later:
//!
//! * **Admitted** — enqueue into the tenant's submission queue.
//! * **RejectedRate** — the tenant's token-bucket quota is empty.
//! * **RejectedQueueFull** — the tenant's queue is at its depth bound.
//! * **ShedOverload** — the gateway's *global* backlog crossed the shed
//!   threshold; load is dropped regardless of per-tenant headroom to
//!   protect latency for work already admitted.
//!
//! Checks run in that order (quota, then depth, then shed) so a
//! misbehaving tenant is charged against its own limits before the global
//! one. [`AdmissionConfig::unlimited`] disables all three — the
//! no-admission baseline whose tail latency the benchmark shows diverging.

use crate::tenant::RateQuota;
use serde::{Deserialize, Serialize};

/// What happened to one arrival at the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionOutcome {
    Admitted,
    RejectedRate,
    RejectedQueueFull,
    ShedOverload,
}

impl AdmissionOutcome {
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionOutcome::Admitted => "admitted",
            AdmissionOutcome::RejectedRate => "rejected_rate",
            AdmissionOutcome::RejectedQueueFull => "rejected_queue_full",
            AdmissionOutcome::ShedOverload => "shed_overload",
        }
    }
}

/// Gateway-level admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Enforce per-tenant queue-depth bounds and rate quotas.
    pub enforce_limits: bool,
    /// Shed arrivals while total queued gateway-wide exceeds this
    /// (`usize::MAX` disables shedding).
    pub shed_threshold: usize,
}

impl AdmissionConfig {
    pub fn new(shed_threshold: usize) -> Self {
        AdmissionConfig {
            enforce_limits: true,
            shed_threshold,
        }
    }

    /// The no-admission baseline: everything is admitted and buffered,
    /// however deep the backlog grows.
    pub fn unlimited() -> Self {
        AdmissionConfig {
            enforce_limits: false,
            shed_threshold: usize::MAX,
        }
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self::new(4096)
    }
}

/// Runtime token bucket for one tenant's [`RateQuota`]. The fill, the
/// refill clock and the (retargetable) rate are the bucket's whole mutable
/// state; the gateway's state codec reads and writes them in place.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    pub(crate) quota: RateQuota,
    pub(crate) tokens: f64,
    pub(crate) last_refill_secs: f64,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(quota: RateQuota) -> Self {
        TokenBucket {
            quota,
            tokens: quota.burst,
            last_refill_secs: 0.0,
        }
    }

    /// Try to take one token at time `now_secs` (monotone across calls).
    pub fn try_take(&mut self, now_secs: f64) -> bool {
        let dt = (now_secs - self.last_refill_secs).max(0.0);
        self.tokens = (self.tokens + dt * self.quota.rate_per_sec).min(self.quota.burst);
        self.last_refill_secs = now_secs;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Retarget the refill rate (the control loop's quota-tightening
    /// lever). Accrued tokens and the refill clock are untouched, so a
    /// tightened tenant keeps what it already earned but earns slower.
    pub fn set_rate(&mut self, rate_per_sec: f64) {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "non-positive quota rate"
        );
        self.quota.rate_per_sec = rate_per_sec;
    }
}

/// Classify one arrival. `tenant_depth` is the tenant's current queue
/// length, `total_depth` the gateway-wide queued total; `bucket` is the
/// tenant's token bucket if it has a quota.
pub fn admit(
    config: &AdmissionConfig,
    now_secs: f64,
    tenant_depth: usize,
    max_tenant_depth: usize,
    total_depth: usize,
    bucket: Option<&mut TokenBucket>,
) -> AdmissionOutcome {
    if !config.enforce_limits {
        return AdmissionOutcome::Admitted;
    }
    if let Some(bucket) = bucket {
        if !bucket.try_take(now_secs) {
            return AdmissionOutcome::RejectedRate;
        }
    }
    if tenant_depth >= max_tenant_depth {
        return AdmissionOutcome::RejectedQueueFull;
    }
    if total_depth >= config.shed_threshold {
        return AdmissionOutcome::ShedOverload;
    }
    AdmissionOutcome::Admitted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        let mut b = TokenBucket::new(RateQuota::new(2.0, 4.0));
        // Starts full: 4 immediate takes, then empty.
        for _ in 0..4 {
            assert!(b.try_take(0.0));
        }
        assert!(!b.try_take(0.0));
        // After 1s, 2 tokens refilled.
        assert!(b.try_take(1.0));
        assert!(b.try_take(1.0));
        assert!(!b.try_take(1.0));
        // Refill caps at burst.
        assert!(b.try_take(100.0));
    }

    #[test]
    fn admission_order_quota_then_depth_then_shed() {
        let cfg = AdmissionConfig::new(10);
        let mut bucket = TokenBucket::new(RateQuota::new(1.0, 1.0));
        assert_eq!(
            admit(&cfg, 0.0, 0, 8, 0, Some(&mut bucket)),
            AdmissionOutcome::Admitted
        );
        // Bucket now empty → rate rejection even though depth is fine.
        assert_eq!(
            admit(&cfg, 0.0, 0, 8, 0, Some(&mut bucket)),
            AdmissionOutcome::RejectedRate
        );
        // Full tenant queue.
        assert_eq!(
            admit(&cfg, 100.0, 8, 8, 0, None),
            AdmissionOutcome::RejectedQueueFull
        );
        // Global shed.
        assert_eq!(
            admit(&cfg, 100.0, 0, 8, 10, None),
            AdmissionOutcome::ShedOverload
        );
    }

    #[test]
    fn set_rate_keeps_accrued_tokens() {
        let mut a = TokenBucket::new(RateQuota::new(2.0, 4.0));
        assert!(a.try_take(0.5));
        assert!(a.try_take(0.5));
        // Halving the rate halves the refill, not the accrued tokens.
        let before = a.clone();
        a.set_rate(1.0);
        assert_eq!(a.quota.rate_per_sec, 1.0);
        assert_eq!((a.tokens, a.last_refill_secs), (2.0, 0.5));
        // One second refills one token at the new rate (two at the old).
        let (mut fast, mut slow) = (before, a);
        for bucket in [&mut fast, &mut slow] {
            for _ in 0..2 {
                assert!(bucket.try_take(0.5));
            }
            assert!(!bucket.try_take(0.5));
        }
        assert!(fast.try_take(1.5) && fast.try_take(1.5));
        assert!(slow.try_take(1.5) && !slow.try_take(1.5));
    }

    #[test]
    fn unlimited_admits_everything() {
        let cfg = AdmissionConfig::unlimited();
        let mut bucket = TokenBucket::new(RateQuota::new(0.001, 1.0));
        bucket.try_take(0.0);
        assert_eq!(
            admit(&cfg, 0.0, 1_000_000, 8, 1_000_000, Some(&mut bucket)),
            AdmissionOutcome::Admitted
        );
    }
}
