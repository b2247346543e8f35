//! The persistent work-stealing worker pool behind every sharded
//! computation in the selection engine.
//!
//! The paper observes (Section III-F) that the hot loops of CrowdFusion —
//! per-pattern Equation 2 sums, per-candidate greedy evaluations,
//! per-entity experiment rounds — are all embarrassingly parallel. This
//! module gives those call sites one shared primitive instead of bespoke
//! thread plumbing: a [`Pool`] of `threads` workers with
//! [`Pool::for_each_chunk`] (shard a mutable slice) and
//! [`Pool::map_reduce`] (map an index range, fold the results in index
//! order).
//!
//! # Architecture: persistent workers, channel-fed jobs, chunk stealing
//!
//! Workers are spawned **once**, when the pool is built, and live until the
//! last [`Pool`] clone drops. Each parallel call packages its work as one
//! *job* — an atomic cursor over `0..num_chunks` index-range chunks plus a
//! lifetime-erased closure that executes one chunk — and submits it to the
//! shared mpmc injector channel (`crossbeam::channel`). Every worker holds
//! a clone of the same receiver, so idle workers *steal* jobs from the
//! injector, and workers on the same job steal chunks from its cursor via
//! `fetch_add` until it is exhausted. The submitting thread participates
//! as a worker on its own job (an N-way sharding keeps costing N − 1
//! *helpers*, now woken instead of spawned), which also makes nested and
//! concurrent submissions deadlock-free: a caller never blocks while its
//! job has unclaimed chunks.
//!
//! Determinism is the design constraint: which thread executes a chunk
//! never affects *what* the chunk computes (chunks write disjoint slice
//! ranges), and every reduction happens on the caller in strict index
//! order — so results are identical for any thread count. The property
//! tests in `tests/engine_parallel.rs` and `tests/batched_rounds.rs` pin
//! this down bit for bit. See DESIGN.md §4 for the full determinism
//! contract and job lifecycle.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crossbeam::channel;

/// Environment variable overriding [`Pool::from_env`]'s thread count.
pub const THREADS_ENV: &str = "CROWDFUSION_THREADS";

/// The one clamping code path behind every thread-count entry point
/// ([`Pool::new`], [`threads_from_value`], and through them the CLI's
/// `--threads` fallback): a non-positive request is clamped to 1 worker
/// with a single stderr warning naming its origin. Callers that can prove
/// positivity at the type level ([`Pool::new_nonzero`]) skip it entirely.
fn clamp_threads(requested: Option<usize>, origin: &str) -> usize {
    match requested {
        Some(t) if t > 0 => t,
        _ => {
            eprintln!("warning: {origin} is not a positive thread count; clamping to 1 worker");
            1
        }
    }
}

/// The thread count requested via [`THREADS_ENV`]. The CLI's
/// `refine --threads` fallback and [`Pool::from_env`] both resolve the
/// variable through this one lookup.
///
/// Returns `None` when the variable is unset, [`threads_from_value`]
/// otherwise — so a *set but malformed* value (`0`, non-numeric,
/// whitespace-only) clamps to 1 worker with a warning on stderr instead
/// of being silently ignored (which would fall back to the machine's
/// full parallelism, the opposite of what a value like `0` plausibly
/// asked for).
pub fn threads_from_env() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .map(|raw| threads_from_value(&raw))
}

/// Parses one [`THREADS_ENV`]-style value. Surrounding whitespace is
/// ignored (`" 4 "` is 4); anything that does not parse to a positive
/// integer — `0`, the empty string, whitespace, non-numeric text — goes
/// through the same `clamp_threads` path as [`Pool::new`]: clamped to 1
/// with one warning on stderr.
pub fn threads_from_value(raw: &str) -> usize {
    clamp_threads(
        raw.trim().parse::<usize>().ok(),
        &format!("{THREADS_ENV}={raw:?}"),
    )
}

/// One submitted parallel call: an atomic cursor over its index-range
/// chunks, a completion latch, and the lifetime-erased chunk executor.
///
/// # Lifecycle and safety
///
/// The `task` pointer references a closure on the submitting caller's
/// stack. The caller guarantees its validity by blocking in
/// [`Job::wait`] until `remaining == 0`, i.e. until every chunk has been
/// claimed *and* finished. A worker that pops this job from the injector
/// *after* completion (the `Arc` keeps the struct itself alive in the
/// queue) finds the cursor exhausted and never touches `task` — the
/// cursor can only yield an in-range chunk while `remaining > 0`, which
/// is exactly while the caller is still pinned in `wait`.
struct Job {
    /// Next chunk index to claim; `fetch_add` is the work-stealing step.
    next: AtomicUsize,
    /// Total chunks in `0..num_chunks`.
    num_chunks: usize,
    /// Chunks not yet finished; the transition to 0 releases the caller.
    remaining: AtomicUsize,
    /// Set when a chunk panicked; the caller re-raises after the join.
    poisoned: AtomicBool,
    /// The first caught panic payload, re-raised on the caller by
    /// `resume_unwind` so assertion messages survive the pool boundary
    /// exactly as they would on the serial inline path.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Lifetime-erased `run(chunk_index)` closure on the caller's stack.
    task: *const (dyn Fn(usize) + Sync),
    /// Completion latch (`remaining == 0`).
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: the raw `task` pointer is what blocks the auto-impl. It is only
// dereferenced while the submitting caller is blocked in `Job::wait` (see
// the struct docs), so the pointee outlives every dereference on any
// thread the job moves to; all other fields are `Send` themselves.
unsafe impl Send for Job {}
// SAFETY: shared access is sound for the same reason: the pointee is
// `Sync`, so `&Job` handed to several workers only ever yields `&dyn
// Fn(usize)` calls the closure itself declares safe to run concurrently.
unsafe impl Sync for Job {}

impl Job {
    /// Steals chunks off the cursor until it is exhausted. Run by pool
    /// workers that popped the job from the injector and by the
    /// submitting caller itself. A panicking chunk poisons the job
    /// (remaining chunks are claimed but skipped) instead of unwinding
    /// through the worker loop, so the caller can re-raise after all
    /// in-flight chunks drained — never while workers might still hold
    /// references into its stack frame.
    fn run(&self) {
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.num_chunks {
                return;
            }
            if !self.poisoned.load(Ordering::Acquire) {
                // SAFETY: `chunk < num_chunks` implies `remaining > 0`,
                // so the caller is still parked in `wait` and the task
                // closure is alive.
                let task = unsafe { &*self.task };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(chunk))) {
                    let mut slot = self.panic_payload.lock().expect("pool latch poisoned");
                    slot.get_or_insert(payload);
                    drop(slot);
                    self.poisoned.store(true, Ordering::Release);
                }
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().expect("pool latch poisoned") = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Parks the caller until every chunk has finished.
    fn wait(&self) {
        let mut done = self.done.lock().expect("pool latch poisoned");
        while !*done {
            done = self.done_cv.wait(done).expect("pool latch poisoned");
        }
    }
}

/// The shared half of a pool: the injector sender plus the worker handles,
/// torn down when the last [`Pool`] clone drops.
struct PoolShared {
    /// `Some` until drop; taking it disconnects the channel, which is the
    /// workers' shutdown signal.
    injector: Option<channel::Sender<Arc<Job>>>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        // Disconnect: workers drain any stale queued jobs (all of them
        // already complete, so the pops are no-ops) and exit their recv
        // loop, then join. A panic inside a worker's chunk was caught and
        // converted to job poisoning, so joins only fail if a worker died
        // outside any job — which is a bug worth surfacing loudly.
        self.injector = None;
        for handle in self.workers.drain(..) {
            handle.join().expect("pool worker died outside a job");
        }
    }
}

/// A persistent channel-fed work-stealing pool with a fixed worker count.
///
/// `Pool::new(1)` (or [`Pool::serial`]) never spawns threads — every
/// primitive degrades to a plain loop — so serial callers pay no
/// synchronisation cost and the parallel code path is the only code path.
/// Clones share the same workers (the handle is an `Arc`); the threads
/// shut down when the last clone drops.
#[derive(Clone)]
pub struct Pool {
    threads: usize,
    /// `None` for the serial pool; `Some` holds the injector + workers.
    shared: Option<Arc<PoolShared>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("persistent", &self.shared.is_some())
            .finish()
    }
}

/// Pools compare by worker count — the only observable behavioural
/// parameter, since results are identical for any thread count.
impl PartialEq for Pool {
    fn eq(&self, other: &Pool) -> bool {
        self.threads == other.threads
    }
}

impl Eq for Pool {}

impl Default for Pool {
    fn default() -> Pool {
        Pool::serial()
    }
}

impl Pool {
    /// A pool with exactly `threads` workers. A zero request goes through
    /// the same clamping path as a malformed [`THREADS_ENV`] value: one
    /// stderr warning, clamped to 1.
    pub fn new(threads: usize) -> Pool {
        let threads = match NonZeroUsize::new(threads) {
            Some(t) => t,
            None => NonZeroUsize::new(clamp_threads(Some(threads), "Pool::new(0)"))
                .expect("clamp_threads returns at least 1"),
        };
        Pool::new_nonzero(threads)
    }

    /// A pool with exactly `threads` workers, positivity proven at the
    /// type level — the no-clamp construction path.
    pub fn new_nonzero(threads: NonZeroUsize) -> Pool {
        let threads = threads.get();
        if threads == 1 {
            return Pool {
                threads: 1,
                shared: None,
            };
        }
        let (injector, jobs) = channel::unbounded::<Arc<Job>>();
        // The submitting caller always participates in its own job, so
        // N-way sharding needs N − 1 persistent helpers.
        let workers = (0..threads - 1)
            .map(|i| {
                let jobs = jobs.clone();
                // analyze: allow(adhoc-thread) — this IS the pool: the one
                // place allowed to create threads; everything else routes
                // its parallelism through here.
                std::thread::Builder::new()
                    .name(format!("crowdfusion-pool-{i}"))
                    .spawn(move || {
                        while let Ok(job) = jobs.recv() {
                            job.run();
                        }
                    })
                    .expect("spawning pool worker")
            })
            .collect();
        Pool {
            threads,
            shared: Some(Arc::new(PoolShared {
                injector: Some(injector),
                workers,
            })),
        }
    }

    /// The single-threaded pool: primitives run inline, no threads spawn.
    pub fn serial() -> Pool {
        Pool {
            threads: 1,
            shared: None,
        }
    }

    /// A pool sized from the environment: `CROWDFUSION_THREADS` if set to
    /// a positive integer, otherwise the machine's available parallelism.
    pub fn from_env() -> Pool {
        match threads_from_env() {
            Some(threads) => Pool::new(threads),
            None => {
                Pool::new_nonzero(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
            }
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `data` into contiguous chunks of `chunk_size` and runs
    /// `f(base_index, chunk)` on each, in parallel across the workers.
    ///
    /// The caller picks `chunk_size` because some workloads need
    /// alignment (the butterfly stages shard on whole transform blocks);
    /// use [`Pool::chunk_size`] for an even split. At most
    /// [`Pool::threads`] workers run regardless of the chunk count
    /// (excess chunks are *stolen* off the job's cursor by whichever
    /// worker frees up first). Chunking never affects results: each
    /// element is written by exactly one worker.
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let len = data.len();
        let shared = match &self.shared {
            Some(shared) if len > chunk_size => shared,
            _ => {
                for (c, chunk) in data.chunks_mut(chunk_size).enumerate() {
                    f(c * chunk_size, chunk);
                }
                return;
            }
        };
        let num_chunks = len.div_ceil(chunk_size);

        // Chunk executor: rematerialise the disjoint sub-slice for chunk
        // `c` from the raw parts. Raw parts (not the `&mut [T]` itself)
        // cross the thread boundary because distinct chunks alias no
        // elements — each index is claimed by exactly one cursor step.
        struct SendPtr<T>(*mut T);
        // SAFETY: the wrapper only crosses threads inside this function,
        // where each worker touches the pairwise-disjoint chunk range it
        // claimed off the cursor — no element is reachable from two
        // threads; `T: Send` makes moving those elements' access sound.
        unsafe impl<T: Send> Send for SendPtr<T> {}
        // SAFETY: `&SendPtr` exposes only the raw pointer value (`get`),
        // never a `&T`/`&mut T`; dereferences go through the per-chunk
        // disjointness argument above.
        unsafe impl<T: Send> Sync for SendPtr<T> {}
        impl<T> SendPtr<T> {
            // Accessor (rather than field access) so closures capture the
            // whole wrapper — a closure capturing the bare `*mut T` field
            // would lose the Send/Sync opt-in.
            fn get(&self) -> *mut T {
                self.0
            }
        }
        let base_ptr = SendPtr(data.as_mut_ptr());
        let run = move |c: usize| {
            let start = c * chunk_size;
            let end = (start + chunk_size).min(len);
            // SAFETY: `start < len` (the cursor only yields c <
            // num_chunks) and chunk ranges are pairwise disjoint, so this
            // is the unique live reference to these elements.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base_ptr.get().add(start), end - start) };
            f(start, chunk);
        };

        let task: &(dyn Fn(usize) + Sync) = &run;
        // SAFETY: lifetime erasure only — the `'static` is a lie the Job
        // never acts on: the caller stays on this stack frame until
        // `wait` returns, and `Job::run` holds the only dereferences (the
        // validity argument spelled out on `Job`), so `run` outlives every
        // use of the erased pointer.
        let task: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<_, &'static (dyn Fn(usize) + Sync)>(task) };
        let job = Arc::new(Job {
            next: AtomicUsize::new(0),
            num_chunks,
            remaining: AtomicUsize::new(num_chunks),
            poisoned: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            task,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });

        // Wake up to N − 1 helpers (never more than the chunks the caller
        // can't take itself), then work the job from this thread too.
        let helpers = (self.threads - 1).min(num_chunks - 1);
        if let Some(injector) = &shared.injector {
            for _ in 0..helpers {
                if injector.send(job.clone()).is_err() {
                    unreachable!("pool workers outlive every live Pool clone");
                }
            }
        }
        job.run();
        job.wait();
        if job.poisoned.load(Ordering::Acquire) {
            // Every chunk has drained (wait returned), so re-raising the
            // first caught payload here — with its original assertion
            // message — is exactly what an inline panic would have done.
            let payload = job
                .panic_payload
                .lock()
                .expect("pool latch poisoned")
                .take();
            match payload {
                Some(payload) => std::panic::resume_unwind(payload),
                None => panic!("pool worker panicked"),
            }
        }
    }

    /// Maps every index in `0..n` through `map` in parallel, then folds
    /// the results **in index order** with `fold` — so the reduction is
    /// deterministic regardless of the thread count or completion order.
    pub fn map_reduce<T, A, M, F>(&self, n: usize, map: M, init: A, mut fold: F) -> A
    where
        T: Send,
        M: Fn(usize) -> T + Sync,
        F: FnMut(A, T) -> A,
    {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        self.for_each_chunk(&mut slots, self.chunk_size(n), |base, chunk| {
            for (offset, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(map(base + offset));
            }
        });
        let mut acc = init;
        for slot in slots {
            acc = fold(acc, slot.expect("every index mapped"));
        }
        acc
    }

    /// The chunk size that spreads `n` items evenly over the workers.
    pub fn chunk_size(&self, n: usize) -> usize {
        n.div_ceil(self.threads).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_chunking_agree() {
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let mut data = vec![0u64; 37];
            let chunk_size = pool.chunk_size(data.len());
            pool.for_each_chunk(&mut data, chunk_size, |base, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = (base + i) as u64 * 3;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
        }
    }

    #[test]
    fn chunk_alignment_is_respected() {
        // Butterfly-style sharding: chunks must hold whole 8-blocks.
        let pool = Pool::new(4);
        let mut data = vec![0usize; 64];
        pool.for_each_chunk(&mut data, 16, |base, chunk| {
            assert_eq!(base % 16, 0);
            assert_eq!(chunk.len(), 16);
            for slot in chunk.iter_mut() {
                *slot = base;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[63], 48);
    }

    #[test]
    fn many_small_chunks_stay_within_the_worker_budget() {
        // 34 chunks on a 4-thread pool: chunks are stolen off one cursor,
        // and every element is still written exactly once with the right
        // base.
        let pool = Pool::new(4);
        let mut data = vec![0usize; 100];
        pool.for_each_chunk(&mut data, 3, |base, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                assert_eq!(*slot, 0, "element written twice");
                *slot = base + i + 1;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn workers_are_reused_across_many_jobs() {
        // The persistent-pool contract: thousands of parallel calls on
        // one pool reuse the same workers (under the scoped design this
        // test would fork ~6000 threads).
        let pool = Pool::new(3);
        let mut total = 0u64;
        for round in 0..2_000u64 {
            let mut data = vec![0u64; 12];
            pool.for_each_chunk(&mut data, 4, |base, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = round + (base + i) as u64;
                }
            });
            total += data.iter().sum::<u64>();
        }
        let per_round: u64 = (0..12).sum();
        assert_eq!(total, (0..2_000u64).map(|r| r * 12 + per_round).sum());
    }

    #[test]
    fn concurrent_submissions_share_one_pool() {
        // Several threads submitting to the same pool at once (the shape
        // of a pooled selector running inside a sharded experiment).
        let pool = Pool::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        let mut data = vec![0u64; 40];
                        pool.for_each_chunk(&mut data, 7, |base, chunk| {
                            for (i, slot) in chunk.iter_mut().enumerate() {
                                *slot = t * 1000 + (base + i) as u64;
                            }
                        });
                        assert!(data
                            .iter()
                            .enumerate()
                            .all(|(i, &x)| x == t * 1000 + i as u64));
                    }
                });
            }
        });
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        // A chunk of an outer job submits an inner job to the same pool:
        // the inner caller steals its own chunks, so it completes even
        // with every helper busy.
        let pool = Pool::new(2);
        let inner_pool = pool.clone();
        let mut outer = vec![0u64; 8];
        pool.for_each_chunk(&mut outer, 4, |base, chunk| {
            let mut inner = vec![0u64; 16];
            inner_pool.for_each_chunk(&mut inner, 4, |b, c| {
                for (i, slot) in c.iter_mut().enumerate() {
                    *slot = (b + i) as u64;
                }
            });
            let sum: u64 = inner.iter().sum();
            for slot in chunk.iter_mut() {
                *slot = sum + base as u64;
            }
        });
        let expect: u64 = (0..16).sum();
        assert_eq!(outer[0], expect);
        assert_eq!(outer[7], expect + 4);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let pool = Pool::new(3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut data = vec![0u8; 32];
            pool.for_each_chunk(&mut data, 4, |base, _| {
                if base == 16 {
                    panic!("boom");
                }
            });
        }));
        // The original payload crosses the pool boundary intact — an
        // assertion message reads the same at any thread count.
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool survives a poisoned job and stays usable.
        let mut data = vec![0usize; 10];
        pool.for_each_chunk(&mut data, 2, |base, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = base + i;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn map_reduce_folds_in_index_order() {
        for threads in [1usize, 2, 5] {
            let pool = Pool::new(threads);
            let order = pool.map_reduce(
                10,
                |i| i,
                Vec::new(),
                |mut acc: Vec<usize>, i| {
                    acc.push(i);
                    acc
                },
            );
            assert_eq!(order, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_reduce_handles_empty_and_single() {
        let pool = Pool::new(3);
        assert_eq!(pool.map_reduce(0, |i| i, 7usize, |a, b| a + b), 7);
        assert_eq!(pool.map_reduce(1, |_| 5usize, 0, |a, b| a + b), 5);
    }

    #[test]
    fn env_values_parse_with_explicit_clamping() {
        // Well-formed values, including surrounding whitespace.
        assert_eq!(threads_from_value("4"), 4);
        assert_eq!(threads_from_value(" 8 "), 8);
        assert_eq!(threads_from_value("1"), 1);
        // Malformed values clamp to 1 (with a stderr warning) instead of
        // silently deferring to the machine's full parallelism.
        assert_eq!(threads_from_value("0"), 1);
        assert_eq!(threads_from_value(""), 1);
        assert_eq!(threads_from_value("   "), 1);
        assert_eq!(threads_from_value("two"), 1);
        assert_eq!(threads_from_value("-3"), 1);
        assert_eq!(threads_from_value("4.5"), 1);
    }

    #[test]
    fn zero_and_nonzero_construction_share_one_clamp_boundary() {
        // `Pool::new(0)` routes through the same clamp as a malformed env
        // value; `new_nonzero` is the no-clamp path; both land on the
        // same 1-worker serial pool at the boundary.
        let clamped = Pool::new(0);
        assert_eq!(clamped.threads(), 1);
        assert!(clamped.shared.is_none(), "clamped pool must be serial");
        assert_eq!(clamped, Pool::serial());
        assert_eq!(
            Pool::new_nonzero(NonZeroUsize::MIN).threads(),
            Pool::new(1).threads()
        );
        let four = Pool::new_nonzero(NonZeroUsize::new(4).unwrap());
        assert_eq!(four.threads(), 4);
        assert_eq!(four, Pool::new(4));
    }

    #[test]
    fn clones_share_workers_and_compare_by_thread_count() {
        let pool = Pool::new(3);
        let clone = pool.clone();
        assert_eq!(pool, clone);
        assert!(Arc::ptr_eq(
            pool.shared.as_ref().unwrap(),
            clone.shared.as_ref().unwrap()
        ));
        assert_eq!(Pool::default(), Pool::serial());
        assert_ne!(Pool::new(2), Pool::new(3));
    }

    #[test]
    fn constructors_clamp_and_read_env() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::serial().threads(), 1);
        assert_eq!(Pool::default(), Pool::serial());
        // The env-var mutation lives in the same test as every other
        // CROWDFUSION_THREADS *read* in this binary, so no concurrent
        // test can observe (or race with) the temporary values.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(threads_from_env(), Some(3));
        assert_eq!(Pool::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(threads_from_env(), Some(1));
        assert_eq!(Pool::from_env().threads(), 1);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(threads_from_env(), Some(1));
        std::env::remove_var(THREADS_ENV);
        assert_eq!(threads_from_env(), None);
        assert!(Pool::from_env().threads() >= 1);
    }
}
