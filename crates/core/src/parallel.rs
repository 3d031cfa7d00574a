//! Deterministic parallel execution engine for the experiment stack.
//!
//! Every figure/table runner is a sweep: a grid of independent simulation
//! configurations, each of which is deterministic given its seed. That makes
//! the whole stack embarrassingly parallel — the only thing the engine has to
//! guarantee is that fanning jobs across cores does not change the *order* or
//! *content* of the output relative to the serial loop it replaces.
//!
//! [`par_map`] delivers exactly that contract: results come back in input
//! order, byte-identical to `items.into_iter().map(f).collect()`. Jobs are
//! distributed through a [`crossbeam::deque::Injector`] so a long-running
//! point (e.g. an Unmanaged strategy with many retries) does not serialize the
//! rest of its batch behind it, and worker threads are scoped
//! (`std::thread::scope`) so `f` can borrow from the caller's stack. The
//! calling thread is one of the workers.
//!
//! [`run_sweep_parallel`] is the sweep-shaped entry point used by the fig6–9
//! runners and the ablation binary: each job yields a `Vec<SweepPoint>`, and
//! the engine flattens them in job order so downstream CSV/pivot code sees
//! the same stream the serial loops produced.

use crate::experiments::sweep::SweepPoint;
use crossbeam::deque::{Injector, Steal};
use parking_lot::Mutex;
use std::num::NonZeroUsize;

/// Number of worker threads `par_map` will use for `n` items: one per
/// available core, never more than there are items.
pub fn worker_threads(n: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    cores.min(n).max(1)
}

/// Map `f` over `items` across all available cores, preserving input order.
///
/// The result is exactly `items.into_iter().map(f).collect()` — same order,
/// same values — regardless of how many threads run or how work interleaves.
/// With one core (or one item) this degrades to the plain serial loop, so
/// single-core CI produces identical output by construction, not just by
/// test assertion.
///
/// A panic in `f` propagates to the caller once all threads have stopped.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = worker_threads(items.len());
    par_map_with_threads(items, threads, f)
}

/// Pre-interned telemetry names for the parallel engine. `job` spans are
/// emitted once per work item, so the names are interned once per process
/// instead of hashed per emission.
struct ParKeys {
    jobs: lfm_telemetry::Name,
    steal_retry: lfm_telemetry::Name,
    job: lfm_telemetry::Name,
    run_sweep: lfm_telemetry::Name,
    cat_parallel: lfm_telemetry::Name,
    cat_sweep: lfm_telemetry::Name,
    a_index: lfm_telemetry::Name,
    a_jobs: lfm_telemetry::Name,
}

fn pk() -> &'static ParKeys {
    static KEYS: std::sync::OnceLock<ParKeys> = std::sync::OnceLock::new();
    KEYS.get_or_init(|| ParKeys {
        jobs: lfm_telemetry::Name::intern("parallel.jobs"),
        steal_retry: lfm_telemetry::Name::intern("parallel.steal_retry"),
        job: lfm_telemetry::Name::intern("job"),
        run_sweep: lfm_telemetry::Name::intern("run_sweep"),
        cat_parallel: lfm_telemetry::Name::intern("parallel"),
        cat_sweep: lfm_telemetry::Name::intern("sweep"),
        a_index: lfm_telemetry::Name::intern("index"),
        a_jobs: lfm_telemetry::Name::intern("jobs"),
    })
}

/// [`par_map`] with an explicit thread count. Exists so the threaded path
/// (injector queue, scoped workers, slot writes) can be exercised and
/// equivalence-tested even on machines where `available_parallelism` is 1
/// and [`par_map`] would take the serial fallback.
pub fn par_map_with_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let tel = lfm_telemetry::global();
    if n > 0 {
        tel.counter_key(pk().jobs, n as u64);
    }
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let mut span = tel.wall_span_key(pk().job, pk().cat_parallel);
                span.attr_key(pk().a_index, i as u64);
                f(item)
            })
            .collect();
    }
    let threads = threads.min(n);

    // Index every item so results can be written straight into their output
    // slot no matter which thread picks them up.
    let queue: Injector<(usize, T)> = Injector::new();
    for pair in items.into_iter().enumerate() {
        queue.push(pair);
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(&mut slots);

    let work = || loop {
        let (i, item) = match queue.steal() {
            Steal::Success(pair) => pair,
            Steal::Empty => break,
            Steal::Retry => {
                tel.counter_key(pk().steal_retry, 1);
                continue;
            }
        };
        let result = {
            let mut span = tel.wall_span_key(pk().job, pk().cat_parallel);
            span.attr_key(pk().a_index, i as u64);
            f(item)
        };
        slots.lock()[i] = Some(result);
    };
    // The caller is one of the `threads` workers, not a parked spectator: it
    // starts on the queue while the helpers are still being spawned, and what
    // the jobs allocate lands in `threads` allocator arenas, not one more.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });

    slots
        .into_inner()
        .iter_mut()
        .map(|slot| slot.take().expect("every index produced exactly once"))
        .collect()
}

/// Run a sweep: execute `run` on every job in parallel and flatten the
/// per-job point vectors in job order.
///
/// This is the engine behind all fig6–fig9 grid runners and the ablation
/// binary. Each job is one self-contained simulation batch (a grid point, or
/// a (grid point, strategy) pair); `run` must be a pure function of its job,
/// which every runner in this workspace satisfies because the simulations
/// are seeded and share no mutable state.
pub fn run_sweep_parallel<J, F>(jobs: Vec<J>, run: F) -> Vec<SweepPoint>
where
    J: Send,
    F: Fn(J) -> Vec<SweepPoint> + Sync,
{
    let mut span = lfm_telemetry::global().wall_span_key(pk().run_sweep, pk().cat_sweep);
    span.attr_key(pk().a_jobs, jobs.len() as u64);
    par_map(jobs, run).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_order_and_values() {
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let parallel = par_map(items, |x| x * x + 1);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn forced_threads_match_serial_even_on_one_core() {
        // Drives the real threaded machinery regardless of the machine's
        // core count.
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        for threads in [2, 4, 8] {
            let parallel = par_map_with_threads(items.clone(), threads, |x| x.wrapping_mul(31) ^ 7);
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn run_sweep_parallel_flattens_in_job_order() {
        let jobs: Vec<u64> = vec![3, 1, 2];
        let points = run_sweep_parallel(jobs, |n| {
            (0..n)
                .map(|i| SweepPoint {
                    x: n * 10 + i,
                    strategy: format!("s{n}"),
                    makespan_secs: n as f64,
                    retry_fraction: 0.0,
                    core_efficiency: 1.0,
                })
                .collect()
        });
        let xs: Vec<u64> = points.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![30, 31, 32, 10, 20, 21]);
    }

    #[test]
    fn par_map_uses_at_most_item_count_threads() {
        assert_eq!(worker_threads(0), 1);
        assert_eq!(worker_threads(1), 1);
        assert!(worker_threads(1000) >= 1);
    }
}
