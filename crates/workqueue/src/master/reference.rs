//! The reference matcher: the greedy rescan the indexed scheduler replaced,
//! kept in this crate's tests as the oracle the indexed scheduler is proven
//! placement-for-placement equal against (`sched_equivalence.rs`,
//! `proptests.rs`).
//!
//! [`SchedImpl::Reference`](crate::sched::SchedImpl) selects it. The
//! master's scheduler then holds a [`RefQueue`], to which its queue
//! operations route; every examination picks with [`pick`], and every
//! dispatch is [`Master::dispatch_reference`]: one pass over the whole
//! queue.

use super::Master;
use crate::prepared::InputRow;
use crate::sched::{OrderKey, Pending};
use crate::worker::WorkerTable;
use lfm_simcluster::node::Resources;
use lfm_simcluster::time::SimTime;
use std::collections::VecDeque;

/// The reference matcher's plain deque, each attempt beside its policy rank
/// (the first half of its [`OrderKey`]).
#[derive(Debug, Default)]
pub(crate) struct RefQueue(VecDeque<(u64, Pending)>);

impl RefQueue {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Enqueue at the front for a front sequence number (negative), at the
    /// back for a back one.
    pub fn push(&mut self, (rank, seq): OrderKey, item: Pending) {
        if seq < 0 {
            self.0.push_front((rank, item));
        } else {
            self.0.push_back((rank, item));
        }
    }

    /// Take the first attempt `named` picks; returns whether there was one.
    pub fn remove(&mut self, named: impl Fn(&Pending) -> bool) -> bool {
        let at = self.0.iter().position(|(_, p)| named(p));
        at.and_then(|at| self.0.remove(at)).is_some()
    }

    /// Stable-sort into examination order: by policy rank, queue order
    /// within a rank.
    fn sort(&mut self) {
        self.0.make_contiguous().sort_by_key(|&(rank, _)| rank);
    }

    /// Queue positions in examination order.
    fn order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.0.len()).collect();
        order.sort_by_key(|&i| self.0[i].0);
        order
    }

    /// The queue in examination order, left as it stands.
    pub fn in_order(&self) -> Vec<Pending> {
        self.order()
            .into_iter()
            .map(|i| self.0[i].1.clone())
            .collect()
    }

    /// Take the last `max` first attempts of the examination order, handed
    /// over warm-first, as the indexed scheduler's steal does.
    pub fn steal_last(&mut self, max: usize) -> Vec<Pending> {
        // Picked in descending policy-view order; the output keeps that
        // order, reversed at the end.
        let picked: Vec<usize> = (self.order().into_iter().rev())
            .filter(|&i| self.0[i].1.attempt == 0)
            .take(max)
            .collect();
        let mut out: Vec<Pending> = picked.iter().map(|&i| self.0[i].1.clone()).collect();
        // Remove back-to-front so earlier indices stay valid.
        let mut doomed = picked;
        doomed.sort_unstable();
        for i in doomed.into_iter().rev() {
            self.0.remove(i);
        }
        // Coldest (policy-last) task last: the thief enqueues in warm-first
        // order.
        out.reverse();
        out
    }
}

/// Choose a worker by scanning them all, skipping the `quarantined`: prefer
/// one with the task's cacheable inputs already local (Work Queue "prefers
/// to schedule tasks where needed data is cached"), then the one with most
/// free cores, lowest id breaking ties.
pub(crate) fn pick(
    workers: &WorkerTable,
    quarantined: impl Fn(u32) -> bool,
    inputs: &[InputRow],
    alloc: &Resources,
) -> Option<u32> {
    let mut best: Option<(bool, u32, u32)> = None; // (cached, free_cores, id)
    for w in workers.values() {
        if quarantined(w.id()) || !w.node.can_fit(alloc) {
            continue;
        }
        let cached = (inputs.iter().filter_map(|r| r.file())).all(|f| w.has_cached(f));
        let free = w.node.available().cores;
        let key = (cached, free, w.id());
        match best {
            Some((bc, bf, _)) if (bc, bf) >= (cached, free) => {}
            _ => best = Some(key),
        }
    }
    best.map(|(_, _, id)| id)
}

impl Master {
    /// One greedy pass over the whole pending queue: sort it into
    /// examination order, then examine every item once, placing what fits
    /// and sending the rest to the back.
    pub(super) fn dispatch_reference(&mut self, now: SimTime) {
        self.queue().sort();
        for _ in 0..self.queue().len() {
            let Some((rank, item)) = self.queue().0.pop_front() else {
                break;
            };
            match self.examine(&item) {
                Ok((wid, decision, alloc)) => self.place(now, wid, &item, decision, alloc),
                Err(_) => self.queue().0.push_back((rank, item)),
            }
        }
    }

    fn queue(&mut self) -> &mut RefQueue {
        self.sched.reference.as_mut().expect("a reference run")
    }
}
