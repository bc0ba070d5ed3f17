//! Offline stand-in for the `rayon` crate (API subset used by `xsc`).
//!
//! The build container has no crates.io access, so this crate reimplements
//! the data-parallel surface the workspace actually calls: `par_iter`,
//! `par_iter_mut`, `into_par_iter` (ranges and vectors), `par_chunks`,
//! `par_chunks_mut`, with `map` / `enumerate` / `for_each` / `collect` on
//! the result, [`broadcast`] (one call per pool thread), plus
//! `ThreadPoolBuilder::install` for thread-count sweeps.
//!
//! Unlike rayon's lazy work-stealing iterators, [`ParIter`] materializes
//! its items and fans them out as contiguous stripes, one per thread,
//! order-preserving. That is exactly the bulk-synchronous shape every
//! `xsc` call site uses, so semantics match; only the scheduling (static
//! stripes vs work stealing) differs. Stripes and [`broadcast`] calls share
//! one spawn loop, whose first call runs on the calling thread, so `p`
//! threads start `p − 1`. Panics in worker closures propagate to the
//! caller, as with rayon.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`]
    /// (0 = use the hardware default).
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The hardware default thread count, read once: on Linux
/// `available_parallelism` reads cgroup files on every call, which costs
/// more than a small kernel.
fn default_num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Number of worker threads parallel operations currently target.
pub fn current_num_threads() -> usize {
    let installed = POOL_THREADS.with(Cell::get);
    if installed > 0 {
        installed
    } else {
        default_num_threads()
    }
}

/// Runs `op` once per input, all calls live at once, and returns the
/// results in input order. The first call runs on the calling thread; the
/// others run on scoped threads that inherit the caller's
/// [`ThreadPool::install`] count. This is the only place the shim starts
/// threads. A panic in any call propagates to the caller once all calls
/// have returned.
fn run_each<I: Send, R: Send>(inputs: Vec<I>, op: impl Fn(I) -> R + Sync) -> Vec<R> {
    let installed = POOL_THREADS.with(Cell::get);
    let op = &op;
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .map(|input| {
                s.spawn(move || {
                    POOL_THREADS.with(|c| c.set(installed));
                    op(input)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(op(first));
        for h in handles {
            out.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

/// Applies `f` to every item in one contiguous stripe per thread,
/// preserving input order in the output.
fn run_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let len = items.len();
    let base = len / threads;
    let extra = len % threads;
    let mut rest = items;
    let mut stripes: Vec<Vec<T>> = Vec::with_capacity(threads);
    for t in 0..threads {
        let take = base + usize::from(t < extra);
        let tail = rest.split_off(take);
        stripes.push(std::mem::replace(&mut rest, tail));
    }
    run_each(stripes, |stripe| {
        stripe.into_iter().map(&f).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// What one [`broadcast`] call knows about where it runs.
#[derive(Debug, Clone, Copy)]
pub struct BroadcastContext<'a> {
    index: usize,
    num_threads: usize,
    _scope: PhantomData<&'a ()>,
}

impl BroadcastContext<'_> {
    /// This call's thread index, in `0..num_threads()`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of threads the broadcast runs on.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Runs `op` once on each of [`current_num_threads`] threads, all at the
/// same time, and returns the results in index order. Index 0 runs on
/// the calling thread; the others run on scoped threads that inherit the
/// caller's [`ThreadPool::install`] override. Unlike the iterator
/// methods, every call is live at once, so the calls may wait for each
/// other (a barrier between phases). A panic in any call propagates to
/// the caller once all calls have returned.
pub fn broadcast<OP, R>(op: OP) -> Vec<R>
where
    OP: Fn(BroadcastContext<'_>) -> R + Sync,
    R: Send,
{
    let num_threads = current_num_threads();
    let contexts = (0..num_threads)
        .map(|index| BroadcastContext {
            index,
            num_threads,
            _scope: PhantomData,
        })
        .collect();
    run_each(contexts, op)
}

/// A materialized "parallel iterator": holds its items and runs terminal
/// operations striped across scoped threads.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Pairs each item with its index (order-preserving).
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Applies `f` to every item **in parallel** (eagerly — this is where
    /// the fork happens in a `map(...).collect()` chain).
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        ParIter {
            items: run_map(self.items, f),
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_map(self.items, f);
    }

    /// Collects the (already computed) items in order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sums the items in order.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }
}

/// Conversion into a [`ParIter`] by value.
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Shared-slice parallel views (`par_iter`, `par_chunks`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> ParIter<&T>;
    /// Parallel iterator over `chunk`-sized shared sub-slices.
    fn par_chunks(&self, chunk: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }

    fn par_chunks(&self, chunk: usize) -> ParIter<&[T]> {
        assert!(chunk > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk).collect(),
        }
    }
}

/// Mutable-slice parallel views (`par_iter_mut`, `par_chunks_mut`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over exclusive references.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    /// Parallel iterator over `chunk`-sized exclusive sub-slices.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }

    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]> {
        assert!(chunk > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk).collect(),
        }
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`] (construction never fails
/// in the shim; the type exists for signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (hardware) thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the worker count (0 = hardware default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.num_threads,
        })
    }
}

/// A "pool" that scopes a thread-count override: parallel operations run
/// inside [`ThreadPool::install`] use this pool's worker count.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count installed.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|c| c.replace(self.threads));
        let out = f();
        POOL_THREADS.with(|c| c.set(prev));
        out
    }

    /// This pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            default_num_threads()
        }
    }
}

/// Glob-import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, (0..1000).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_visits_everything() {
        let count = AtomicUsize::new(0);
        let v = vec![1u64; 777];
        v.par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 777);
    }

    #[test]
    fn chunks_mut_writes_disjoint() {
        let mut v = vec![0usize; 100];
        v.par_chunks_mut(7).enumerate().for_each(|(k, chunk)| {
            for x in chunk.iter_mut() {
                *x = k;
            }
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[7], 1);
        assert_eq!(v[98], 14);
    }

    #[test]
    fn collect_into_result_short_circuits_value() {
        let r: Result<Vec<usize>, &str> = (0..10usize)
            .into_par_iter()
            .map(|i| if i == 5 { Err("boom") } else { Ok(i) })
            .collect();
        assert_eq!(r, Err("boom"));
    }

    #[test]
    fn install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn parallel_actually_uses_multiple_threads_when_available() {
        let ids = std::sync::Mutex::new(std::collections::HashSet::new());
        (0..64usize).into_par_iter().for_each(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let distinct = ids.into_inner().unwrap().len();
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        if hw > 1 {
            assert!(
                distinct > 1,
                "expected parallel execution, got {distinct} thread(s)"
            );
        }
    }

    #[test]
    fn map_stripes_inherit_install() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let seen: Vec<usize> = pool.install(|| {
            (0..3usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert_eq!(seen, vec![3; 3]);
    }

    #[test]
    fn map_runs_its_first_stripe_on_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let caller = std::thread::current().id();
        let ids: Vec<_> = pool.install(|| {
            (0..4usize)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert_eq!(ids[..2], [caller; 2]);
        assert!(ids[2..].iter().all(|&id| id != caller));
    }

    #[test]
    fn panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            (0..8usize).into_par_iter().for_each(|i| {
                if i == 3 {
                    panic!("stripe panic");
                }
            });
        });
        assert!(r.is_err());
    }
    #[test]
    fn broadcast_runs_every_index_exactly_once() {
        for n in 1..=4 {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = pool.install(|| {
                broadcast(|ctx| {
                    assert_eq!(ctx.num_threads(), n);
                    hits[ctx.index()].fetch_add(1, Ordering::Relaxed);
                    ctx.index()
                })
            });
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn broadcast_honours_install_and_passes_it_on() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let seen = pool.install(|| broadcast(|ctx| (ctx.num_threads(), current_num_threads())));
        assert_eq!(seen, vec![(3, 3); 3]);
        // The calls are live together: a three-way rendezvous completes.
        let arrived = AtomicUsize::new(0);
        pool.install(|| {
            broadcast(|_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < 3 {
                    std::thread::yield_now();
                }
            })
        });
    }

    #[test]
    fn broadcast_panic_propagates() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        for bad in 0..3 {
            let r = std::panic::catch_unwind(|| {
                pool.install(|| {
                    broadcast(|ctx| {
                        if ctx.index() == bad {
                            panic!("broadcast panic");
                        }
                    })
                })
            });
            assert!(r.is_err(), "panic on index {bad} must reach the caller");
        }
    }
}
