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
//! runners: each job yields a `Vec<SweepPoint>`, and the engine flattens them
//! in job order so downstream CSV/pivot code sees the same stream the serial
//! loops produced, whatever order a caller-given key hands the jobs out in.

use crate::experiments::sweep::SweepPoint;
use crossbeam::deque::{Injector, Steal};
use parking_lot::Mutex;
use std::num::NonZeroUsize;

/// Number of worker threads `par_map` will use for `n` items: one per
/// available core, never more than there are items.
fn worker_threads(n: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    #[cfg(test)]
    let cores = tests::FORCED_THREADS.get().unwrap_or(cores);
    cores.min(n).max(1)
}

/// Map `f` over `items` across all available cores, preserving input order.
///
/// The result is exactly `items.into_iter().map(f).collect()` — same order,
/// same values — regardless of how many threads run or how work interleaves.
/// With one core (or one item) the caller alone drains the queue in input
/// order, so it runs the same calls in the same order as the serial loop and
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
/// and [`par_map`] would run on the calling thread alone.
pub fn par_map_with_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_in_order(items.into_iter().enumerate().collect(), threads, f)
}

/// The pool behind every map here: hands `queue` out front to back, each item
/// beside its input index `i`, and returns item `i`'s result in slot `i` (its
/// `job` span says `index = i`). One thread is the serial loop over `queue`.
fn map_in_order<T, R, F>(queue: Vec<(usize, T)>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = queue.len();
    let tel = lfm_telemetry::global();
    if n > 0 {
        tel.counter_key(pk().jobs, n as u64);
    }
    let threads = threads.min(n);
    let injector: Injector<(usize, T)> = Injector::new();
    for pair in queue {
        injector.push(pair);
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(&mut slots);

    let work = || loop {
        let (i, item) = match injector.steal() {
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
/// This is the engine behind all fig6–fig9 grid runners. Each job is one
/// self-contained simulation batch (a (grid point, strategy) cell, or a
/// funcX batch); `run` must be a pure function of its job, which every
/// runner in this workspace satisfies because the simulations are seeded and
/// share no mutable state.
///
/// Jobs are handed to the pool in ascending `dispatch_key` order, ties in
/// job order (`|_| ()` keeps job order). The key decides only which job a
/// free thread takes next: the output is the same for every key.
pub fn run_sweep_parallel<J, K, F>(
    jobs: Vec<J>,
    dispatch_key: impl Fn(&J) -> K,
    run: F,
) -> Vec<SweepPoint>
where
    J: Send,
    K: Ord,
    F: Fn(J) -> Vec<SweepPoint> + Sync,
{
    let n = jobs.len();
    let mut span = lfm_telemetry::global().wall_span_key(pk().run_sweep, pk().cat_sweep);
    span.attr_key(pk().a_jobs, n as u64);
    let mut queue: Vec<(usize, J)> = jobs.into_iter().enumerate().collect();
    queue.sort_by_key(|(_, job)| dispatch_key(job));
    let points = map_in_order(queue, worker_threads(n), run);
    points.into_iter().flatten().collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// The core count this thread's pools see while [`with_threads`] runs.
        pub(super) static FORCED_THREADS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    }

    /// Run `f` as if the host had `threads` cores: every pool it starts from
    /// this thread uses that many workers, so a test drives the threaded path
    /// at 2 or 4 threads on any host.
    pub(crate) fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        FORCED_THREADS.set(Some(threads));
        let result = f();
        FORCED_THREADS.set(None);
        result
    }

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

    fn point(x: u64) -> SweepPoint {
        SweepPoint {
            x,
            strategy: format!("s{x}"),
            makespan_secs: x as f64,
            retry_fraction: 0.0,
            core_efficiency: 1.0,
        }
    }

    #[test]
    fn run_sweep_parallel_flattens_in_job_order() {
        let jobs: Vec<u64> = vec![3, 1, 2];
        // Dispatched smallest first; flattened in job order all the same.
        for threads in [1, 2, 4] {
            let points = with_threads(threads, || {
                run_sweep_parallel(
                    jobs.clone(),
                    |&n| n,
                    |n| (0..n).map(|i| point(n * 10 + i)).collect(),
                )
            });
            let xs: Vec<u64> = points.iter().map(|p| p.x).collect();
            assert_eq!(xs, vec![30, 31, 32, 10, 20, 21], "{threads} threads");
        }
    }

    /// Sizes in job order, the order one thread ran them in, and the output.
    fn largest_first(sizes: &[u64], threads: usize) -> (Vec<u64>, Vec<SweepPoint>) {
        let ran = Mutex::new(Vec::new());
        let points = with_threads(threads, || {
            run_sweep_parallel(
                sizes.to_vec(),
                |&size| std::cmp::Reverse(size),
                |size| {
                    ran.lock().push(size);
                    vec![point(size)]
                },
            )
        });
        (ran.into_inner(), points)
    }

    #[test]
    fn dispatch_follows_the_key_and_output_keeps_job_order() {
        let sizes = [3, 9, 1, 7, 5, 7];
        let (ran, points) = largest_first(&sizes, 1);
        assert_eq!(ran, vec![9, 7, 7, 5, 3, 1]);
        let in_job_order: Vec<SweepPoint> = sizes.iter().map(|&s| point(s)).collect();
        assert_eq!(points, in_job_order);
        for threads in [2, 4] {
            assert_eq!(
                largest_first(&sizes, threads).1,
                in_job_order,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn largest_first_is_decided_by_size_not_position() {
        let sizes = [40, 10, 30, 20, 50];
        let reversed: Vec<u64> = sizes.iter().rev().copied().collect();
        let (forward, _) = largest_first(&sizes, 1);
        let (backward, points) = largest_first(&reversed, 1);
        assert_eq!(forward, vec![50, 40, 30, 20, 10]);
        assert_eq!(backward, forward, "the same jobs go first");
        assert_eq!(points.iter().map(|p| p.x).collect::<Vec<_>>(), reversed);
    }

    #[test]
    fn par_map_uses_at_most_item_count_threads() {
        assert_eq!(worker_threads(0), 1);
        assert_eq!(worker_threads(1), 1);
        assert!(worker_threads(1000) >= 1);
        assert_eq!(with_threads(4, || worker_threads(3)), 3);
        assert_eq!(with_threads(4, || worker_threads(1000)), 4);
    }
}
