//! Weighted fair-share dispatch order: stride scheduling across tenants,
//! strict priority between classes.
//!
//! Each tenant carries a *pass* value; picking a tenant advances its pass
//! by `STRIDE_SCALE / weight`, so over any backlogged interval tenant
//! service counts converge to the weight ratio (the classic stride
//! scheduler). Classes are strictly ordered: while any `Critical` tenant
//! has queued work, no `Standard` or `Batch` tenant is served. Ties break
//! on tenant id, keeping the order — and therefore the whole simulation —
//! deterministic.
//!
//! The scheduler only *orders* dispatch; queue state lives in the gateway,
//! which reports per-tenant backlog through the `backlogged` callback.

use crate::tenant::{PriorityClass, TenantId};

/// Numerator for stride computation. Large enough that integer strides
/// for distinct small weights stay distinct.
const STRIDE_SCALE: u64 = 1 << 20;

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TenantSched {
    class: PriorityClass,
    stride: u64,
    /// The only mutable part: class and stride are pure configuration, so
    /// the gateway's state codec carries the passes alone.
    pub(crate) pass: u64,
}

/// Stride scheduler state over a fixed tenant set.
#[derive(Debug, Clone, PartialEq)]
pub struct FairScheduler {
    pub(crate) tenants: Vec<TenantSched>,
}

impl FairScheduler {
    /// `tenants[i]` is `(class, weight)` for `TenantId(i)`.
    pub fn new(tenants: &[(PriorityClass, u32)]) -> Self {
        FairScheduler {
            tenants: tenants
                .iter()
                .map(|&(class, weight)| {
                    assert!(weight > 0, "zero fair-share weight");
                    TenantSched {
                        class,
                        stride: STRIDE_SCALE / weight as u64,
                        pass: 0,
                    }
                })
                .collect(),
        }
    }

    /// Pick the next tenant to serve among those `backlogged` reports
    /// non-empty, or `None` if none are. Advances the winner's pass.
    pub fn pick(&mut self, backlogged: impl Fn(TenantId) -> bool) -> Option<TenantId> {
        let mut best: Option<(PriorityClass, u64, usize)> = None;
        for (i, t) in self.tenants.iter().enumerate() {
            if !backlogged(TenantId(i as u32)) {
                continue;
            }
            let key = (t.class, t.pass, i);
            if best.is_none_or(|b| key < (b.0, b.1, b.2)) {
                best = Some(key);
            }
        }
        let (_, _, idx) = best?;
        self.tenants[idx].pass += self.tenants[idx].stride;
        Some(TenantId(idx as u32))
    }

    /// Reset a returning tenant's pass to the current minimum of its
    /// class, so an idle period doesn't bank unbounded credit.
    pub fn on_tenant_active(&mut self, id: TenantId) {
        let class = self.tenants[id.0 as usize].class;
        let floor = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(i, t)| t.class == class && *i != id.0 as usize)
            .map(|(_, t)| t.pass)
            .min()
            .unwrap_or(0);
        let t = &mut self.tenants[id.0 as usize];
        t.pass = t.pass.max(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn run_picks(sched: &mut FairScheduler, n: usize) -> BTreeMap<u32, usize> {
        let mut counts = BTreeMap::new();
        for _ in 0..n {
            let id = sched.pick(|_| true).unwrap();
            *counts.entry(id.0).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn shares_track_weights() {
        let mut s = FairScheduler::new(&[
            (PriorityClass::Standard, 1),
            (PriorityClass::Standard, 2),
            (PriorityClass::Standard, 4),
        ]);
        let counts = run_picks(&mut s, 7000);
        let share = |i: u32| counts[&i] as f64 / 7000.0;
        assert!((share(0) - 1.0 / 7.0).abs() < 0.01, "w1 {}", share(0));
        assert!((share(1) - 2.0 / 7.0).abs() < 0.01, "w2 {}", share(1));
        assert!((share(2) - 4.0 / 7.0).abs() < 0.01, "w4 {}", share(2));
    }

    #[test]
    fn higher_class_starves_lower_while_backlogged() {
        let mut s =
            FairScheduler::new(&[(PriorityClass::Batch, 100), (PriorityClass::Critical, 1)]);
        for _ in 0..50 {
            assert_eq!(s.pick(|_| true), Some(TenantId(1)));
        }
        // Critical empties → batch gets served.
        assert_eq!(s.pick(|id| id.0 == 0), Some(TenantId(0)));
    }

    #[test]
    fn empty_backlog_yields_none_and_skips() {
        let mut s =
            FairScheduler::new(&[(PriorityClass::Standard, 1), (PriorityClass::Standard, 1)]);
        assert_eq!(s.pick(|_| false), None);
        // Only tenant 1 backlogged — always picked, pass advances for it only.
        for _ in 0..5 {
            assert_eq!(s.pick(|id| id.0 == 1), Some(TenantId(1)));
        }
        // Tenant 0 returns with pass 0 → served until it catches up.
        assert_eq!(s.pick(|_| true), Some(TenantId(0)));
    }

    #[test]
    fn returning_tenant_does_not_bank_credit() {
        let mut s =
            FairScheduler::new(&[(PriorityClass::Standard, 1), (PriorityClass::Standard, 1)]);
        for _ in 0..100 {
            assert_eq!(s.pick(|id| id.0 == 1), Some(TenantId(1)));
        }
        s.on_tenant_active(TenantId(0));
        let counts = run_picks(&mut s, 200);
        // Equal weights: near 50/50 despite tenant 1's long solo run.
        assert!(
            counts[&0].abs_diff(counts[&1]) <= 2,
            "banked credit: {counts:?}"
        );
    }

    #[test]
    fn deterministic_tie_break_on_id() {
        let mut a =
            FairScheduler::new(&[(PriorityClass::Standard, 3), (PriorityClass::Standard, 3)]);
        let mut b = a.clone();
        assert_eq!(run_picks(&mut a, 500), run_picks(&mut b, 500));
        assert_eq!(a.pick(|_| true), b.pick(|_| true));
    }
}
