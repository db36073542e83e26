//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors minimal shims for its external dependencies. This shim keeps
//! rayon's *shape* — `prelude::*` parallel iterators, [`ThreadPool`] +
//! [`ThreadPoolBuilder`], [`current_num_threads`] — over a much smaller
//! executor:
//!
//! * every parallel combinator splits its items into at most
//!   [`current_num_threads`] contiguous chunks and assembles the outputs
//!   by chunk index, preserving item order;
//! * the chunks run on one process-wide set of parked worker threads,
//!   started lazily and grown to the most chunks any call has split into
//!   minus one, so no thread is started that no call could use (at most
//!   the largest budget minus one). The calling thread runs chunk 0
//!   itself and then claims every chunk no worker has started yet, so a
//!   call never waits idle behind another caller's work; it waits only
//!   for chunks already running elsewhere, and returns after all of them
//!   have finished;
//! * [`ThreadPool::install`] scopes the effective thread count via a
//!   thread-local — pools here are a concurrency budget over the shared
//!   workers, not thread sets of their own;
//! * nested parallel calls inside a chunk run sequentially, bounding the
//!   total thread count by the installed budget (rayon bounds it via work
//!   stealing; we bound it by running nested calls inline).
//!
//! Real rayon's `in_worker`/latch design (a registry of workers, a job
//! the caller waits on through a latch) is the model; this shim keeps
//! only what fixed contiguous chunks need: one job list under one mutex,
//! a per-job claim counter, and two condition variables.
//!
//! The result is deterministic for `map`/`collect` pipelines (order is by
//! index, independent of scheduling) and genuinely parallel for the
//! kernels that matter (GEMM rows, CSR rows, per-constraint dots).

#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

thread_local! {
    /// Effective concurrency budget for parallel calls on this thread.
    /// `None` means "not set": use the machine's available parallelism.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of threads parallel operations on this thread may use.
pub fn current_num_threads() -> usize {
    BUDGET.with(|b| b.get()).unwrap_or_else(default_threads)
}

/// The budget outside any [`ThreadPool::install`], fixed at first use as
/// real rayon fixes its global pool's size.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        // Real rayon sizes its global pool from RAYON_NUM_THREADS; honor it
        // so CI can run the suite under an explicit thread matrix (invalid
        // or zero values fall back to the machine's parallelism, as rayon
        // does).
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

fn with_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = BUDGET.with(|b| b.replace(Some(n)));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// A concurrency budget masquerading as a thread pool.
///
/// Unlike real rayon a pool owns no threads: every pool shares the
/// process-wide parked workers, and `install` only scopes
/// [`current_num_threads`] so parallel combinators invoked inside split
/// into that many chunks (run by the caller and up to that many minus one
/// workers).
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread budget and return its result.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        with_budget(self.threads, f)
    }

    /// The thread budget this pool was built with.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Error type returned by [`ThreadPoolBuilder::build`]; construction never
/// fails in the shim, the type exists for API compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error (unreachable in shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Start a fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the pool's thread count; `0` (or unset) means auto-detect.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Build the pool. Infallible in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.threads {
            Some(0) | None => default_threads(),
            Some(n) => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// Runs chunk `ci` of one call; borrowed from that call's stack frame.
type Body = &'static (dyn Fn(usize) + Sync);

/// One published call: its chunks are claimed in index order.
struct Job {
    id: u64,
    body: Body,
    chunks: usize,
    /// Next chunk nobody has claimed yet.
    next: usize,
    /// Chunks claimed by workers and not finished yet.
    running: usize,
}

struct State {
    jobs: Vec<Job>,
    workers: usize,
    next_id: u64,
}

impl State {
    fn job(&mut self, id: u64) -> &mut Job {
        self.jobs.iter_mut().find(|j| j.id == id).expect("a job stays listed until its call joins")
    }
}

/// The process-wide workers' shared state.
struct Pool {
    state: Mutex<State>,
    /// Workers park here until a job has an unclaimed chunk.
    work: Condvar,
    /// Callers wait here for their workers' chunks to finish.
    done: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State { jobs: Vec::new(), workers: 0, next_id: 0 }),
    work: Condvar::new(),
    done: Condvar::new(),
};

impl Pool {
    /// No user code runs under this lock, so a poisoned lock still holds
    /// consistent state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish `body`'s chunks 1.. to the workers (the caller keeps chunk
    /// 0), growing the worker set to `chunks - 1` first.
    fn publish(&self, body: Body, chunks: usize) -> u64 {
        let mut st = self.lock();
        while st.workers + 1 < chunks {
            let name = format!("rayon-shim-worker-{}", st.workers);
            // Workers are never joined: they park between jobs for the
            // life of the process, and a chunk's panic is caught inside
            // `body`, so none ends early. One that cannot start costs
            // parallelism, not progress: the caller claims every chunk
            // nobody else has.
            if std::thread::Builder::new().name(name).spawn(|| POOL.work_loop()).is_err() {
                break;
            }
            st.workers += 1;
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.push(Job { id, body, chunks, next: 1, running: 0 });
        drop(st);
        for _ in 1..chunks {
            self.work.notify_one();
        }
        id
    }

    /// The caller's claim on its own job: the next chunk nobody started.
    fn claim_own(&self, id: u64) -> Option<usize> {
        let mut st = self.lock();
        let job = st.job(id);
        (job.next < job.chunks).then(|| {
            job.next += 1;
            job.next - 1
        })
    }

    /// Close the job to new claims, wait for the chunks workers are still
    /// running, and withdraw it.
    fn join(&self, id: u64) {
        let mut st = self.lock();
        let job = st.job(id);
        job.next = job.chunks;
        while st.job(id).running > 0 {
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.jobs.retain(|j| j.id != id);
    }

    fn work_loop(&self) {
        let mut st = self.lock();
        loop {
            let claim = st.jobs.iter_mut().find(|j| j.next < j.chunks).map(|job| {
                job.next += 1;
                job.running += 1;
                (job.id, job.body, job.next - 1)
            });
            let Some((id, body, ci)) = claim else {
                st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(st);
            body(ci);
            st = self.lock();
            st.job(id).running -= 1;
            self.done.notify_all();
        }
    }
}

/// Withdraws a published job when the call's frame is left, on unwind
/// too, so no worker can reach the borrowed body afterwards.
struct Joined(u64);

impl Drop for Joined {
    fn drop(&mut self) {
        POOL.join(self.0);
    }
}

/// Split `items` into at most [`current_num_threads`] contiguous chunks and
/// map `f(index, item)` over them on the caller and the pool's workers,
/// preserving order. A panic in any chunk is re-raised on the caller once
/// every chunk has finished.
fn par_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = current_num_threads();
    let len = items.len();
    if threads <= 1 || len <= 1 {
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let chunk = len.div_ceil(threads);
    let mut parts: Vec<Mutex<Option<Vec<T>>>> = Vec::with_capacity(threads);
    let mut rest = items;
    while rest.len() > chunk {
        let tail = rest.split_off(chunk);
        parts.push(Mutex::new(Some(std::mem::replace(&mut rest, tail))));
    }
    parts.push(Mutex::new(Some(rest)));
    let chunks = parts.len();
    let outs: Vec<Mutex<Option<std::thread::Result<Vec<R>>>>> =
        (0..chunks).map(|_| Mutex::new(None)).collect();

    let run = |ci: usize| {
        let part = parts[ci].lock().unwrap_or_else(PoisonError::into_inner).take();
        let part = part.expect("each chunk is claimed once");
        // Nested parallel calls inside a chunk run sequentially so the
        // total thread count stays within the budget.
        let out = catch_unwind(AssertUnwindSafe(|| {
            with_budget(1, || {
                part.into_iter().enumerate().map(|(j, x)| f(ci * chunk + j, x)).collect()
            })
        }));
        *outs[ci].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    };
    let body: &(dyn Fn(usize) + Sync) = &run;
    // Only the lifetime is erased. Workers reach `body` solely through
    // this call's job, and `run` catches the chunks' panics.
    // SAFETY: `Joined` withdraws the job, after waiting for every chunk a
    // worker claimed to finish, before this frame is left (on unwind as
    // well as on return), so no use of `body` outlives the borrow.
    let body: Body = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Body>(body) };
    let joined = Joined(POOL.publish(body, chunks));
    run(0);
    while let Some(ci) = POOL.claim_own(joined.0) {
        run(ci);
    }
    drop(joined);

    let mut flat = Vec::with_capacity(len);
    for out in outs {
        match out.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok(mut part)) => flat.append(&mut part),
            Some(Err(payload)) => resume_unwind(payload),
            None => unreachable!("every chunk ran before the join"),
        }
    }
    flat
}

/// Parallel iterator traits and adapters.
pub mod iter {
    use super::par_map_vec;
    use std::ops::Range;

    /// A parallel iterator: drives `f(index, item)` over all items on the
    /// caller and the pool's workers, returning results in item order.
    pub trait ParallelIterator: Sized {
        /// The element type.
        type Item: Send;

        /// Consume the iterator, mapping every `(index, item)` pair through
        /// `f` in parallel and collecting results in order. All adapters and
        /// terminal operations are defined on top of this one primitive.
        fn drive<R, F>(self, f: F) -> Vec<R>
        where
            R: Send,
            F: Fn(usize, Self::Item) -> R + Sync;

        /// Map each item through `f`.
        fn map<R, F>(self, f: F) -> Map<Self, F>
        where
            R: Send,
            F: Fn(Self::Item) -> R + Sync,
        {
            Map { base: self, f }
        }

        /// Pair each item with its index.
        fn enumerate(self) -> Enumerate<Self> {
            Enumerate { base: self }
        }

        /// Map each item to a sequential iterator and flatten the results,
        /// preserving order. The per-item `f` calls run in parallel; the
        /// produced iterators are drained on the worker that created them.
        fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
        where
            U: IntoIterator,
            U::Item: Send,
            F: Fn(Self::Item) -> U + Sync,
        {
            FlatMapIter { base: self, f }
        }

        /// Run `f` on every item for its side effects.
        fn for_each<F>(self, f: F)
        where
            F: Fn(Self::Item) + Sync,
        {
            self.drive(|_, x| f(x));
        }

        /// Collect all items, in order.
        fn collect<C: FromIterator<Self::Item>>(self) -> C {
            self.drive(|_, x| x).into_iter().collect()
        }

        /// Sum all items.
        fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
            self.drive(|_, x| x).into_iter().sum()
        }

        /// Fold-free reduction: combine all items with `op`, or `identity()`
        /// if the iterator is empty.
        fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
        where
            ID: Fn() -> Self::Item + Sync,
            OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
        {
            self.drive(|_, x| x).into_iter().fold(identity(), op)
        }

        /// Minimum by an `f64` key (used for argmin scans).
        fn min_by_key_f64<F>(self, key: F) -> Option<Self::Item>
        where
            F: Fn(&Self::Item) -> f64 + Sync,
        {
            self.drive(|_, x| x)
                .into_iter()
                .min_by(|a, b| key(a).partial_cmp(&key(b)).unwrap_or(std::cmp::Ordering::Equal))
        }
    }

    /// Map adapter (see [`ParallelIterator::map`]).
    pub struct Map<B, F> {
        base: B,
        f: F,
    }

    impl<B, R, F> ParallelIterator for Map<B, F>
    where
        B: ParallelIterator,
        R: Send,
        F: Fn(B::Item) -> R + Sync,
    {
        type Item = R;

        fn drive<R2, G>(self, g: G) -> Vec<R2>
        where
            R2: Send,
            G: Fn(usize, R) -> R2 + Sync,
        {
            let f = self.f;
            self.base.drive(move |i, x| g(i, f(x)))
        }
    }

    /// Enumerate adapter (see [`ParallelIterator::enumerate`]).
    pub struct Enumerate<B> {
        base: B,
    }

    impl<B: ParallelIterator> ParallelIterator for Enumerate<B> {
        type Item = (usize, B::Item);

        fn drive<R, G>(self, g: G) -> Vec<R>
        where
            R: Send,
            G: Fn(usize, (usize, B::Item)) -> R + Sync,
        {
            self.base.drive(move |i, x| g(i, (i, x)))
        }
    }

    /// Flat-map adapter (see [`ParallelIterator::flat_map_iter`]).
    pub struct FlatMapIter<B, F> {
        base: B,
        f: F,
    }

    impl<B, U, F> ParallelIterator for FlatMapIter<B, F>
    where
        B: ParallelIterator,
        U: IntoIterator,
        U::Item: Send,
        F: Fn(B::Item) -> U + Sync,
    {
        type Item = U::Item;

        fn drive<R, G>(self, g: G) -> Vec<R>
        where
            R: Send,
            G: Fn(usize, U::Item) -> R + Sync,
        {
            let f = self.f;
            let nested: Vec<Vec<U::Item>> = self.base.drive(move |_, x| f(x).into_iter().collect());
            nested.into_iter().flatten().enumerate().map(|(i, x)| g(i, x)).collect()
        }
    }

    /// Conversion into an owning parallel iterator.
    pub trait IntoParallelIterator {
        /// The element type.
        type Item: Send;
        /// The resulting iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Convert `self`.
        fn into_par_iter(self) -> Self::Iter;
    }

    /// Parallel iterator over a materialized list of items.
    pub struct VecPar<T> {
        items: Vec<T>,
    }

    impl<T: Send> ParallelIterator for VecPar<T> {
        type Item = T;

        fn drive<R, F>(self, f: F) -> Vec<R>
        where
            R: Send,
            F: Fn(usize, T) -> R + Sync,
        {
            par_map_vec(self.items, f)
        }
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Iter = VecPar<T>;

        fn into_par_iter(self) -> VecPar<T> {
            VecPar { items: self }
        }
    }

    macro_rules! impl_range_into_par {
        ($($t:ty),*) => {$(
            impl IntoParallelIterator for Range<$t> {
                type Item = $t;
                type Iter = VecPar<$t>;

                fn into_par_iter(self) -> VecPar<$t> {
                    VecPar { items: self.collect() }
                }
            }
        )*};
    }

    impl_range_into_par!(usize, u64, u32, i64, i32);

    /// `.par_iter()` on slices (and, via deref, `Vec`s).
    pub trait IntoParallelRefIterator<'data> {
        /// The element type (a shared reference).
        type Item: Send + 'data;
        /// The resulting iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Borrowing conversion.
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Item = &'data T;
        type Iter = VecPar<&'data T>;

        fn par_iter(&'data self) -> VecPar<&'data T> {
            VecPar { items: self.iter().collect() }
        }
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Item = &'data T;
        type Iter = VecPar<&'data T>;

        fn par_iter(&'data self) -> VecPar<&'data T> {
            VecPar { items: self.iter().collect() }
        }
    }

    /// `.par_iter_mut()` / `.par_chunks_mut()` on mutable slices.
    pub trait ParallelSliceMut<T: Send> {
        /// Parallel iterator over non-overlapping mutable chunks of length
        /// `chunk_size` (last chunk may be shorter).
        fn par_chunks_mut(&mut self, chunk_size: usize) -> VecPar<&mut [T]>;

        /// Parallel iterator over mutable element references.
        fn par_iter_mut(&mut self) -> VecPar<&mut T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> VecPar<&mut [T]> {
            assert!(chunk_size > 0, "chunk size must be positive");
            VecPar { items: self.chunks_mut(chunk_size).collect() }
        }

        fn par_iter_mut(&mut self) -> VecPar<&mut T> {
            VecPar { items: self.iter_mut().collect() }
        }
    }

    /// `.par_chunks()` on shared slices.
    pub trait ParallelSlice<T: Sync> {
        /// Parallel iterator over non-overlapping chunks of length
        /// `chunk_size` (last chunk may be shorter).
        fn par_chunks(&self, chunk_size: usize) -> VecPar<&[T]>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk_size: usize) -> VecPar<&[T]> {
            assert!(chunk_size > 0, "chunk size must be positive");
            VecPar { items: self.chunks(chunk_size).collect() }
        }
    }
}

/// Glob-import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::IntoParallelIterator;
    pub use crate::iter::IntoParallelRefIterator;
    pub use crate::iter::ParallelIterator;
    pub use crate::iter::ParallelSlice;
    pub use crate::iter::ParallelSliceMut;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sum_matches_sequential() {
        let s: u64 = (0..1000u64).into_par_iter().sum();
        assert_eq!(s, 499_500);
    }

    #[test]
    fn chunks_mut_writes_disjoint() {
        let mut v = vec![0usize; 10];
        v.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x = i;
            }
        });
        assert_eq!(v, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn install_scopes_thread_budget() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        // Budget restored after install returns.
        let outer = current_num_threads();
        assert!(outer >= 1);
    }

    #[test]
    fn par_iter_on_refs() {
        let data = vec![1.0_f64, 2.0, 3.0];
        let doubled: Vec<f64> = data.par_iter().map(|x| x * 2.0).collect();
        assert_eq!(doubled, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn workers_run_nested_calls_sequentially() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let nested: Vec<usize> =
            pool.install(|| (0..6usize).into_par_iter().map(|_| current_num_threads()).collect());
        // Every chunk — the caller's and the workers' — sees a budget of 1.
        assert_eq!(nested, vec![1; 6]);
        // And the caller's own budget is back once the call returns.
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn panic_in_a_later_chunk_reaches_the_caller_and_the_pool_recovers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0..16usize)
                    .into_par_iter()
                    .map(|i| {
                        assert!(i != 13, "chunk three fails");
                        ran.fetch_add(1, Ordering::Relaxed);
                    })
                    .collect::<Vec<_>>()
            })
        }));
        let payload = caught.expect_err("the chunk's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk three fails"));
        // Chunks 0-2 and item 12 all finished before the panic was re-raised.
        assert_eq!(ran.load(Ordering::Relaxed), 13);
        let v: Vec<usize> = pool.install(|| (0..16usize).into_par_iter().map(|i| i * 3).collect());
        assert_eq!(v, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_get_their_own_ordered_results() {
        let start = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let start = start.clone();
                std::thread::spawn(move || {
                    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
                    let data: Vec<usize> = (0..500).map(|i| i * 8 + t).collect();
                    start.wait();
                    for _ in 0..50 {
                        let got: Vec<usize> =
                            pool.install(|| data.par_iter().map(|x| x + 1).collect());
                        assert_eq!(got, data.iter().map(|x| x + 1).collect::<Vec<_>>());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller thread");
        }
    }

    #[test]
    fn a_wide_budget_over_few_items_starts_no_idle_workers() {
        let pool = ThreadPoolBuilder::new().num_threads(256).build().unwrap();
        let v: Vec<usize> = pool.install(|| (0..2usize).into_par_iter().map(|i| i + 1).collect());
        assert_eq!(v, vec![1, 2]);
        // The call split into 2 chunks, so it needed 1 worker. Other tests
        // here split into at most 4 chunks, or the default budget's.
        let widest = default_threads().max(4);
        assert!(POOL.lock().workers < widest, "workers beyond any call's chunks");
    }

    #[test]
    fn closures_borrow_the_callers_stack() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let offset = 1000usize;
        let weights = [2usize, 3, 5];
        let v: Vec<usize> = pool
            .install(|| (0..9usize).into_par_iter().map(|i| offset + i * weights[i % 3]).collect());
        assert_eq!(v, (0..9).map(|i| offset + i * weights[i % 3]).collect::<Vec<_>>());
    }
}
