//! The worker pool: resident morsel-driven workers pulling from per-run
//! claim counters.
//!
//! Dispatch is the morsel-driven scheme: workers `fetch_add` a shared
//! cursor to claim the next morsel, so fast workers naturally absorb skewed
//! morsels without any static assignment. Each worker owns private scratch
//! state for the whole run (per-worker hash tables, stat counters, frame
//! buffers) — the "per-worker state" half of the NUMA-friendly design, minus
//! the NUMA placement `std` cannot express.
//!
//! A [`WorkerPool`] starts its workers once and parks them between runs;
//! each [`WorkerPool::fold_morsels`] call *attaches* a run to the shared
//! pool and *detaches* when its morsels drain. Workers rotate round-robin
//! across every attached run, claiming one morsel at a time, so concurrent
//! queries time-slice the same workers at morsel granularity instead of
//! oversubscribing the machine with per-query threads. A 1-worker pool
//! starts no thread and runs every grid inline on the caller.
//!
//! A panic inside a morsel is contained at the attach boundary: the run
//! fails as it would on an `Err`, the worker thread lives on, and the
//! submitting thread re-raises the panic once the run has detached.
//!
//! Results come back **in morsel order**, not completion order, which is
//! what makes downstream merges deterministic — at every worker count, with
//! any number of concurrently attached runs.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Instant;
use vida_trace::global_metrics;
use vida_types::sync::{CachePadded, Mutex};

/// A pool of `threads` workers executing morsel runs.
///
/// The handle is cheap to clone: clones share one set of parked worker
/// threads, which shut down (and are joined) when the last handle drops.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
    /// `None` for a 1-worker pool, whose runs execute inline.
    workers: Option<Arc<ResidentPool>>,
}

impl WorkerPool {
    /// A pool with `threads` workers (minimum 1). With more than one, the
    /// workers start now and park between runs; concurrent runs from
    /// different threads interleave on them, one morsel claim at a time. A
    /// 1-worker pool starts no thread: its runs always execute inline on the
    /// caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        WorkerPool {
            threads,
            workers: (threads > 1).then(|| Arc::new(ResidentPool::start(threads))),
        }
    }

    /// Alias of [`WorkerPool::new`], kept because the benchmark package
    /// compiles against both names.
    #[doc(hidden)]
    pub fn resident(threads: usize) -> Self {
        Self::new(threads)
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `morsels` work items and collect their results in morsel
    /// order.
    ///
    /// `init(worker)` builds one scratch value per worker; `work(&mut
    /// scratch, morsel)` processes one morsel. The first error cancels the
    /// run: in-flight morsels finish, unclaimed ones are skipped, and the
    /// error is returned. A panic in `init` or `work` cancels the run the
    /// same way and is then re-raised on the caller with its original
    /// payload. A one-worker run executes inline on the caller with zero
    /// synchronization; a multi-worker run always attaches to the pool so
    /// concurrent callers share the workers fairly.
    ///
    /// [`WorkerPool::fold_morsels`] is the pool's entry; this collecting
    /// form stays public only because the benchmark package's pool probes
    /// (`parallel.morsel_claim_ns`, `parallel.attach_run_us`) call it.
    #[doc(hidden)]
    pub fn run_morsels<S, R, E, I, W>(
        &self,
        morsels: usize,
        init: I,
        work: W,
    ) -> std::result::Result<Vec<R>, E>
    where
        S: Send,
        R: Send,
        E: Send,
        I: Fn(usize) -> S + Sync,
        W: Fn(&mut S, usize) -> std::result::Result<R, E> + Sync,
    {
        if morsels == 0 {
            return Ok(Vec::new());
        }
        match &self.workers {
            Some(pool) => pool.attach_run(morsels, &init, &work),
            // One worker claims every morsel in order, so run it inline.
            // Concurrent callers of a 1-worker pool each drive their own
            // morsels on their own thread; the OS scheduler is the time
            // slicer.
            None => {
                let mut scratch = init(0);
                (0..morsels).map(|m| work(&mut scratch, m)).collect()
            }
        }
    }

    /// Run `work` per morsel and fold the partials into one accumulator
    /// **in morsel order** — the merge half of push-pipeline parallelism.
    ///
    /// `work(worker, morsel)` also receives the executing worker's index
    /// (`0..threads`), so callers can attribute per-morsel output — trace
    /// spans, scratch stats — to the worker that produced it. Workers race
    /// on morsel claims and may complete out of order, but the fold the
    /// caller sees is always the serial left fold over morsel-indexed
    /// partials, so the result is identical at every worker count (the
    /// determinism contract). A one-worker pool folds each partial into the
    /// accumulator the moment it is produced — at most one un-merged
    /// partial is ever alive, and the first `Err` (from `work` or `merge`)
    /// stops the run before the next morsel starts. With more workers the
    /// caller parks on the run's completion latch while the shared workers
    /// drain its morsels (interleaved with any other attached runs), then
    /// merges on its own thread.
    pub fn fold_morsels<A, P, E, W, M>(
        &self,
        morsels: usize,
        work: W,
        init: A,
        mut merge: M,
    ) -> std::result::Result<A, E>
    where
        P: Send,
        E: Send,
        W: Fn(usize, usize) -> std::result::Result<P, E> + Sync,
        M: FnMut(A, P) -> std::result::Result<A, E>,
    {
        if self.workers.is_none() {
            return (0..morsels).try_fold(init, |acc, m| merge(acc, work(0, m)?));
        }
        let partials = self.run_morsels(morsels, |w| w, |w, m| work(*w, m))?;
        partials.into_iter().try_fold(init, merge)
    }
}

/// One morsel of one attached run, seen untyped by the pool workers.
///
/// The typed closures, scratch, and result slots live on the *submitting*
/// thread's stack inside [`ResidentPool::attach_run`]; workers reach them
/// through the erased `job` pointer in [`RunEntry`].
trait MorselJob: Sync {
    /// Process morsel `m` as pool worker `worker`. Returns `false` when the
    /// morsel failed — an `Err` or a panic, which the job records itself.
    /// Never unwinds.
    fn run_morsel(&self, worker: usize, m: usize) -> bool;
}

/// Why a run stopped early: the first morsel to fail decides.
enum Failure<E> {
    Error(E),
    Panic(Box<dyn Any + Send>),
}

/// The typed half of an attached run, borrowed from the submitter's stack.
struct Job<'a, S, R, E, I, W> {
    init: &'a I,
    work: &'a W,
    /// Per-pool-worker scratch, created lazily on a worker's first claim.
    /// Slot `w` is only ever touched by pool worker `w`, but the mutex
    /// keeps the (cold, once-per-worker-per-run) access obviously safe.
    scratch: Vec<Mutex<Option<S>>>,
    /// Results in morsel order — the determinism contract.
    slots: Vec<Mutex<Option<R>>>,
    failure: Mutex<Option<Failure<E>>>,
    /// Nanoseconds spent inside `init` and `work`, summed across workers.
    busy_ns: AtomicU64,
}

impl<S, R, E, I, W> MorselJob for Job<'_, S, R, E, I, W>
where
    S: Send,
    R: Send,
    E: Send,
    I: Fn(usize) -> S + Sync,
    W: Fn(&mut S, usize) -> std::result::Result<R, E> + Sync,
{
    fn run_morsel(&self, worker: usize, m: usize) -> bool {
        let mut slot = self.scratch[worker].lock();
        let t0 = Instant::now();
        // Unwinding stops here, inside the scratch guard's scope, so no
        // guard or pool lock is dropped mid-panic (nothing is poisoned) and
        // the worker thread survives. A scratch a panic left torn is never
        // used again: this worker marks the run failed before its next
        // claim, and a failed run's results are discarded.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let scratch = slot.get_or_insert_with(|| (self.init)(worker));
            (self.work)(scratch, m)
        }));
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let failure = match outcome {
            Ok(Ok(r)) => {
                *self.slots[m].lock() = Some(r);
                return true;
            }
            Ok(Err(e)) => Failure::Error(e),
            Err(payload) => Failure::Panic(payload),
        };
        self.failure.lock().get_or_insert(failure);
        false
    }
}

/// Claim/progress state of one attached run, shared between the submitter
/// and the pool workers.
///
/// The protocol that keeps `job` valid: a worker increments `users` only
/// under the pool lock and only while the entry is on the attached list,
/// and decrements it (Release) after its last `run_morsel` call returns.
/// The submitter takes the entry off the list — under the same lock, in
/// the same critical section — only once it reads `finished()` and
/// `users == 0` (Acquire), and only then leaves `attach_run`. So every
/// dereference of `job` happens-before the submitter's stack frame dies.
/// `in_flight` is what makes a *failed* run wait: it retires only when no
/// morsel is still inside `run_morsel`.
struct RunEntry {
    /// Erased pointer to the submitter's stack-held [`Job`]; see above.
    job: *const (dyn MorselJob + 'static),
    morsels: usize,
    /// The shared claim counter — the `fetch_add` scheme that lets several
    /// runs' cursors coexist on one pool.
    cursor: CachePadded<AtomicUsize>,
    /// Morsels claimed and fully processed (success or failure).
    completed: AtomicUsize,
    /// Morsels claimed but still inside `run_morsel`.
    in_flight: AtomicUsize,
    failed: AtomicBool,
    /// Workers currently between claim and release on this entry; guards
    /// the `job` pointer (see above).
    users: AtomicUsize,
    /// Per-pool-worker claim counts: the spread metric, and which workers
    /// served the run (their idle time is charged to it).
    claims: Vec<CachePadded<AtomicUsize>>,
}

// SAFETY: every field but `job` is atomics or owned data, Send + Sync on
// its own. `job` is only dereferenced by workers holding a `users`
// registration (the protocol on `RunEntry`), which keeps the pointee alive,
// and only to call `run_morsel(&self)`, which `MorselJob: Sync` makes safe
// from any thread. Moving or dropping an entry never touches the pointee.
unsafe impl Send for RunEntry {}
// SAFETY: as for `Send`: shared access reads atomics, and the pointee is
// `Sync` and kept alive by the `users` protocol.
unsafe impl Sync for RunEntry {}

impl RunEntry {
    /// Does this entry still have unclaimed morsels worth a claim attempt?
    fn claimable(&self) -> bool {
        !self.failed.load(Ordering::Relaxed) && self.cursor.load(Ordering::Relaxed) < self.morsels
    }

    /// Has the run retired — every morsel processed, or failed with no
    /// morsel still in flight?
    fn finished(&self) -> bool {
        if self.failed.load(Ordering::Relaxed) {
            self.in_flight.load(Ordering::Relaxed) == 0
        } else {
            self.completed.load(Ordering::Relaxed) == self.morsels
        }
    }
}

struct PoolState {
    /// Runs currently attached, in attach order.
    runs: Vec<Arc<RunEntry>>,
    /// Round-robin pick position — the rotation that time-slices workers
    /// across attached runs.
    next: usize,
    shutdown: bool,
}

/// The long-lived half of a multi-worker [`WorkerPool`]: parked worker
/// threads plus the attached-run list they serve.
#[derive(Debug)]
struct ResidentPool {
    threads: usize,
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes parked workers on attach/shutdown and parked submitters on run
    /// completion.
    cv: Condvar,
    /// Count of attached runs, readable without the state lock. Workers
    /// use it to pick a claim strategy: while it reads 1, a worker drains
    /// its current run with lock-free cursor claims; at ≥2 every claim goes
    /// through the locked round-robin pick — the morsel-granularity time
    /// slice between concurrent queries.
    active: AtomicUsize,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared").finish_non_exhaustive()
    }
}

impl ResidentPool {
    fn start(threads: usize) -> ResidentPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                runs: Vec::new(),
                next: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            active: AtomicUsize::new(0),
        });
        let handles = (0..threads)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vida-worker-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawn resident pool worker")
            })
            .collect();
        // Workers are counted once, here — a zero delta of this counter
        // across a query is the "no per-query spawns" proof.
        global_metrics().pool_thread_spawns.add(threads as u64);
        ResidentPool {
            threads,
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Attach a run to the pool, park until its morsels drain, detach, and
    /// collect the results in morsel order — or return the first error, or
    /// re-raise the first panic.
    fn attach_run<S, R, E, I, W>(
        &self,
        morsels: usize,
        init: &I,
        work: &W,
    ) -> std::result::Result<Vec<R>, E>
    where
        S: Send,
        R: Send,
        E: Send,
        I: Fn(usize) -> S + Sync,
        W: Fn(&mut S, usize) -> std::result::Result<R, E> + Sync,
    {
        let job = Job {
            init,
            work,
            scratch: (0..self.threads).map(|_| Mutex::new(None)).collect(),
            slots: (0..morsels).map(|_| Mutex::new(None)).collect(),
            failure: Mutex::new(None),
            busy_ns: AtomicU64::new(0),
        };
        // SAFETY: erases the stack borrow so long-lived workers can hold
        // it. `job` outlives every dereference: workers reach the pointer
        // only through `entry` under the `users` protocol (see `RunEntry`),
        // and this function neither returns nor unwinds before the entry is
        // detached with `users == 0` — nothing between here and the detach
        // runs caller code (`run_morsel` catches every unwind on the
        // workers), and the pool lock is never held across caller code, so
        // it cannot be poisoned.
        let erased: *const (dyn MorselJob + 'static) = unsafe {
            std::mem::transmute::<&(dyn MorselJob + '_), *const (dyn MorselJob + 'static)>(&job)
        };
        let entry = Arc::new(RunEntry {
            job: erased,
            morsels,
            cursor: CachePadded::new(AtomicUsize::new(0)),
            completed: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            users: AtomicUsize::new(0),
            claims: (0..self.threads)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
        });

        let attached = Instant::now();
        {
            let mut state = self.shared.state.lock();
            state.runs.push(Arc::clone(&entry));
            self.shared
                .active
                .store(state.runs.len(), Ordering::Relaxed);
            self.shared.cv.notify_all();
            // Park on the completion latch: every morsel processed (or the
            // run failed and drained) and no worker still inside the job.
            // The Acquire load pairs with each worker's Release decrement,
            // ordering the worker's last job access before our return.
            while !(entry.finished() && entry.users.load(Ordering::Acquire) == 0) {
                state = match self.shared.cv.wait(state) {
                    Ok(g) => g,
                    Err(e) => e.into_inner(),
                };
            }
            state.runs.retain(|r| !Arc::ptr_eq(r, &entry));
            self.shared
                .active
                .store(state.runs.len(), Ordering::Relaxed);
        }
        let attached = attached.elapsed().as_nanos() as u64;

        // Claim accounting over the workers that actually served this run
        // (parked-elsewhere workers are not idle on our account, so they
        // enter neither the spread nor the idle time).
        let counts: Vec<usize> = entry
            .claims
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .filter(|&c| c > 0)
            .collect();
        let busy = job.busy_ns.load(Ordering::Relaxed);
        let metrics = global_metrics();
        metrics.pool_runs.inc();
        metrics.worker_busy_ns.add(busy);
        // Idle = each serving worker's attach→detach window minus the time
        // it spent in morsels: claim overhead plus the tail wait for slower
        // siblings.
        metrics
            .worker_idle_ns
            .add((counts.len() as u64 * attached).saturating_sub(busy));
        for &c in &counts {
            metrics.worker_morsel_claims.record(c as u64);
        }
        let spread =
            counts.iter().max().copied().unwrap_or(0) - counts.iter().min().copied().unwrap_or(0);
        metrics.morsel_claim_spread.record(spread as u64);

        match job.failure.into_inner() {
            Some(Failure::Panic(payload)) => resume_unwind(payload),
            Some(Failure::Error(e)) => Err(e),
            None => Ok(job
                .slots
                .into_iter()
                .map(|s| s.into_inner().expect("run completed without error"))
                .collect()),
        }
    }
}

impl Drop for ResidentPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.cv.notify_all();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// The parked-worker loop: pick the next claimable run round-robin, claim
/// one morsel, process it, repeat; park when nothing is claimable.
fn worker_loop(shared: &PoolShared, worker: usize) {
    let mut state = shared.state.lock();
    loop {
        if state.shutdown {
            return;
        }
        // Round-robin across attached runs: one claim per pick is the
        // morsel-granularity time slice between concurrent queries.
        let n = state.runs.len();
        let mut picked = None;
        for i in 0..n {
            let idx = (state.next + i) % n;
            if state.runs[idx].claimable() {
                state.next = (idx + 1) % n;
                picked = Some((Arc::clone(&state.runs[idx]), n));
                break;
            }
        }
        let Some((entry, active_runs)) = picked else {
            state = match shared.cv.wait(state) {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            continue;
        };
        // Register as a user under the lock, while the entry is still on
        // the attached list (so the submitter cannot retire the job while
        // we hold the pointer), then work unlocked.
        entry.users.fetch_add(1, Ordering::Relaxed);
        drop(state);

        let mut did_work = false;
        let mut multiplexed = active_runs >= 2;
        loop {
            if entry.failed.load(Ordering::Relaxed) {
                break;
            }
            let m = entry.cursor.fetch_add(1, Ordering::Relaxed);
            if m >= entry.morsels {
                break;
            }
            entry.in_flight.fetch_add(1, Ordering::Relaxed);
            entry.claims[worker].fetch_add(1, Ordering::Relaxed);
            if multiplexed {
                global_metrics().pool_multiplexed_claims.inc();
            }
            // SAFETY: our `users` registration keeps the submitter parked
            // in `attach_run`, so the job pointer is live (the protocol on
            // `RunEntry`). `run_morsel` never unwinds, so the `in_flight`
            // and `users` decrements below always run.
            let ok = unsafe { (*entry.job).run_morsel(worker, m) };
            if !ok {
                entry.failed.store(true, Ordering::Relaxed);
            }
            entry.completed.fetch_add(1, Ordering::Relaxed);
            entry.in_flight.fetch_sub(1, Ordering::Relaxed);
            did_work = true;
            // Solo fast path: while this is the pool's only attached run
            // there is nothing to time-slice against, so keep draining it
            // with lock-free claims. The moment another run attaches, fall
            // back to the locked round-robin pick so concurrent queries
            // interleave at morsel granularity.
            multiplexed = shared.active.load(Ordering::Relaxed) >= 2;
            if multiplexed {
                break;
            }
        }
        let remaining = entry.users.fetch_sub(1, Ordering::Release) - 1;

        state = shared.state.lock();
        // Wake the submitter when its run may have retired. `did_work`
        // covers the last-morsel case; `remaining == 0` covers the
        // cancelled-claim case where we were the user keeping a finished
        // run pinned.
        if (did_work || remaining == 0) && entry.finished() {
            shared.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_morsel_order() {
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            let out: Vec<usize> = pool
                .run_morsels(20, |_| (), |_, m| Ok::<_, ()>(m * m))
                .unwrap();
            assert_eq!(
                out,
                (0..20).map(|m| m * m).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn every_morsel_is_claimed_exactly_once() {
        let pool = WorkerPool::new(4);
        let out: Vec<usize> = pool
            .run_morsels(100, |_| (), |_, m| Ok::<_, ()>(m))
            .unwrap();
        let distinct: HashSet<_> = out.iter().copied().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn scratch_is_per_worker() {
        // Each worker counts the morsels it processed into its scratch; the
        // per-morsel results carry the worker id so we can check no scratch
        // was shared across workers mid-run.
        let pool = WorkerPool::new(3);
        let out = pool
            .run_morsels(
                50,
                |worker| (worker, 0usize),
                |scratch, _| {
                    scratch.1 += 1;
                    Ok::<_, ()>(scratch.0)
                },
            )
            .unwrap();
        assert_eq!(out.len(), 50);
        for w in out {
            assert!(w < 3);
        }
    }

    #[test]
    fn first_error_cancels_the_run() {
        let pool = WorkerPool::new(4);
        let r: std::result::Result<Vec<()>, String> = pool.run_morsels(
            1000,
            |_| (),
            |_, m| {
                if m == 5 {
                    Err("boom".to_string())
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(r.unwrap_err(), "boom");
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = pool
            .run_morsels(3, |_| 10usize, |s, m| Ok::<_, ()>(*s + m))
            .unwrap();
        assert_eq!(out, vec![10, 11, 12]);
    }

    #[test]
    fn fold_morsels_merges_in_morsel_order() {
        // A non-commutative fold (string concatenation) exposes any
        // completion-order merge: the result must equal the serial left
        // fold at every worker count.
        let expected: String = (0..32).map(|m| format!("[{m}]")).collect();
        for threads in [1, 2, 8] {
            let folded = WorkerPool::new(threads)
                .fold_morsels(
                    32,
                    |_, m| Ok::<_, ()>(format!("[{m}]")),
                    String::new(),
                    |mut acc, p| {
                        acc.push_str(&p);
                        Ok(acc)
                    },
                )
                .unwrap();
            assert_eq!(folded, expected, "threads={threads}");
        }
    }

    #[test]
    fn fold_morsels_propagates_errors() {
        let r = WorkerPool::new(4).fold_morsels(
            10,
            |_, m| if m == 3 { Err("bad morsel") } else { Ok(m) },
            0usize,
            |acc, p| Ok(acc + p),
        );
        assert_eq!(r.unwrap_err(), "bad morsel");
    }

    #[test]
    fn one_worker_fold_streams_partials() {
        // Serial execution is the 1-worker grid, so its peak memory must
        // not grow with the morsel count: each partial is merged (and
        // dropped) before the next morsel runs.
        struct Partial<'a>(&'a AtomicUsize);
        impl Drop for Partial<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let pool = WorkerPool::new(1);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let merged = pool
            .fold_morsels(
                64,
                |_, _| {
                    let now = live.fetch_add(1, Ordering::Relaxed) + 1;
                    peak.fetch_max(now, Ordering::Relaxed);
                    Ok::<_, ()>(Partial(&live))
                },
                0usize,
                |acc, _partial| Ok(acc + 1),
            )
            .unwrap();
        assert_eq!(merged, 64);
        assert_eq!(peak.load(Ordering::Relaxed), 1, "partials piled up");
        assert_eq!(live.load(Ordering::Relaxed), 0);

        // The first error stops the run: no later morsel starts.
        let ran = AtomicUsize::new(0);
        let r = pool.fold_morsels(
            64,
            |_, m| {
                ran.fetch_add(1, Ordering::Relaxed);
                if m == 3 {
                    Err("bad morsel")
                } else {
                    Ok(m)
                }
            },
            0usize,
            |acc, p| Ok(acc + p),
        );
        assert_eq!(r.unwrap_err(), "bad morsel");
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn fold_morsels_reports_worker_indexes() {
        for threads in [1, 2, 4] {
            let workers = WorkerPool::new(threads)
                .fold_morsels(
                    64,
                    |w, _| Ok::<_, ()>(w),
                    Vec::new(),
                    |mut acc, w| {
                        acc.push(w);
                        Ok(acc)
                    },
                )
                .unwrap();
            assert_eq!(workers.len(), 64);
            assert!(workers.iter().all(|&w| w < threads), "threads={threads}");
        }
    }

    #[test]
    fn threaded_runs_meter_worker_time_and_claims() {
        // Metrics are global and shared across concurrently-running tests,
        // so assert on deltas, not absolutes.
        let pool = WorkerPool::new(2);
        // Morsels 0 and 1 wait for each other, so two distinct workers
        // must serve the run.
        let both = std::sync::Barrier::new(2);
        let before = global_metrics().snapshot();
        let out: Vec<usize> = pool
            .run_morsels(
                16,
                |_| (),
                |_, m| {
                    if m < 2 {
                        both.wait();
                    }
                    Ok::<_, ()>(m)
                },
            )
            .unwrap();
        assert_eq!(out.len(), 16);
        let delta = global_metrics().snapshot().since(&before);
        assert!(delta.pool_runs >= 1);
        // Both workers published a claim count, and all 16 claims landed.
        assert!(delta.worker_morsel_claims.count() >= 2);
        assert!(delta.worker_morsel_claims.sum >= 16);
    }

    #[test]
    fn zero_morsels_is_empty() {
        for threads in [1, 8] {
            let out: Vec<u8> = WorkerPool::new(threads)
                .run_morsels(0, |_| (), |_, _| Ok::<_, ()>(0))
                .unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn resident_pool_spawns_nothing_per_run() {
        let pool = WorkerPool::new(4);
        let before = global_metrics().snapshot();
        for _ in 0..10 {
            let out: Vec<usize> = pool.run_morsels(32, |_| (), |_, m| Ok::<_, ()>(m)).unwrap();
            assert_eq!(out.len(), 32);
        }
        let delta = global_metrics().snapshot().since(&before);
        // Other tests start pools concurrently, so count this pool's
        // activity positively through the run counter instead of asserting
        // a global spawn delta of zero (that exact assertion lives in
        // vida-exec's resident_engine integration test, which controls its
        // whole process).
        assert!(delta.pool_runs >= 10);
    }

    #[test]
    fn resident_runs_from_concurrent_submitters_multiplex() {
        // Two submitters attach sleepy runs back-to-back; with both runs in
        // flight on one 2-worker pool, the round-robin claim loop must take
        // claims while ≥2 runs are active. Retry the whole scenario a few
        // times to absorb scheduler noise on tiny machines.
        let pool = WorkerPool::new(2);
        let mut saw_multiplex = false;
        for _ in 0..10 {
            let before = global_metrics().snapshot();
            let barrier = std::sync::Barrier::new(2);
            let expected: String = (0..8).map(|m| format!("[{m}]")).collect();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let pool = pool.clone();
                    let barrier = &barrier;
                    let expected = expected.clone();
                    scope.spawn(move || {
                        barrier.wait();
                        let folded = pool
                            .fold_morsels(
                                8,
                                |_, m| {
                                    std::thread::sleep(Duration::from_millis(8));
                                    Ok::<_, ()>(format!("[{m}]"))
                                },
                                String::new(),
                                |mut acc, p| {
                                    acc.push_str(&p);
                                    Ok(acc)
                                },
                            )
                            .unwrap();
                        // Interleaved claims must not disturb per-run
                        // morsel-order determinism.
                        assert_eq!(folded, expected);
                    });
                }
            });
            let delta = global_metrics().snapshot().since(&before);
            // Lower bound, not equality: the registry is process-global and
            // sibling tests may attach runs concurrently.
            assert!(delta.pool_runs >= 2);
            if delta.pool_multiplexed_claims > 0 {
                saw_multiplex = true;
                break;
            }
        }
        assert!(
            saw_multiplex,
            "no claim overlapped two in-flight runs in 10 attempts"
        );
    }

    #[test]
    fn resident_pool_shuts_down_on_last_handle_drop() {
        for threads in [1, 2] {
            let pool = WorkerPool::new(threads);
            let clone = pool.clone();
            let out: Vec<usize> = clone.run_morsels(4, |_| (), |_, m| Ok::<_, ()>(m)).unwrap();
            assert_eq!(out.len(), 4);
            drop(clone);
            // Still serviceable through the surviving handle...
            let out: Vec<usize> = pool.run_morsels(4, |_| (), |_, m| Ok::<_, ()>(m)).unwrap();
            assert_eq!(out.len(), 4);
            // ...and the final drop joins the workers (hangs here = regression).
            drop(pool);
        }
    }

    /// Run `f` on a thread of its own and fail if it has not returned
    /// within 10 s: a submitter parked forever is the bug these tests pin.
    fn within_timeout<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the submitter never returned")
    }

    #[test]
    fn a_panicking_morsel_unwinds_the_submitter_and_the_pool_survives() {
        for threads in [1, 2, 8] {
            for site in ["work", "init", "fold"] {
                let pool = WorkerPool::new(threads);
                let run = pool.clone();
                let outcome = within_timeout(move || {
                    catch_unwind(AssertUnwindSafe(|| match site {
                        "work" => run.run_morsels(
                            64,
                            |_| (),
                            |_, m| {
                                if m == 5 {
                                    panic!("boom in work");
                                }
                                Ok::<_, ()>(m)
                            },
                        ),
                        "init" => run.run_morsels(
                            64,
                            |_| -> usize { panic!("boom in init") },
                            |_, m| Ok::<_, ()>(m),
                        ),
                        _ => run
                            .fold_morsels(
                                64,
                                |_, m| {
                                    if m == 5 {
                                        panic!("boom in work");
                                    }
                                    Ok::<_, ()>(m)
                                },
                                0,
                                |acc, p| Ok(acc + p),
                            )
                            .map(|sum| vec![sum]),
                    }))
                });
                let payload = outcome.expect_err("the panic must reach the submitter");
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                assert!(
                    message.contains("boom in"),
                    "threads={threads} site={site}: lost the original payload: {message:?}"
                );
                // The same workers keep serving, with correct results.
                for _ in 0..10 {
                    let run = pool.clone();
                    let out = within_timeout(move || {
                        run.run_morsels(32, |_| (), |_, m| Ok::<_, ()>(m * 2))
                            .unwrap()
                    });
                    assert_eq!(out, (0..32).map(|m| m * 2).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn no_worker_is_inside_the_job_after_a_failed_run_returns() {
        // The `users`/`in_flight` protocol guarding the erased job pointer:
        // when `run_morsels` returns an error or unwinds, every morsel that
        // started has finished, so no worker still borrows the stack-held
        // job. Morsel 5 fails while a sibling sleeps mid-morsel.
        struct Finish<'a>(&'a AtomicUsize);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        for threads in [2, 8] {
            for panics in [false, true] {
                let pool = WorkerPool::new(threads);
                let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pool.run_morsels(
                        64,
                        |_| (),
                        |_, m| {
                            started.fetch_add(1, Ordering::SeqCst);
                            let _finish = Finish(&finished);
                            if m != 5 {
                                std::thread::sleep(Duration::from_millis(2));
                                return Ok(m);
                            }
                            // Fail only once a sibling is mid-morsel.
                            loop {
                                let done = finished.load(Ordering::SeqCst);
                                if started.load(Ordering::SeqCst) - done >= 2 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            if panics {
                                panic!("morsel 5");
                            }
                            Err("morsel 5")
                        },
                    )
                }));
                let (started, finished) = (started.into_inner(), finished.into_inner());
                assert_eq!(
                    started, finished,
                    "threads={threads} panics={panics}: a worker outlived the run"
                );
                assert!(
                    started > 5 && started < 64,
                    "the failure cancelled no claims"
                );
                match outcome {
                    Ok(r) => assert!(!panics && r.unwrap_err() == "morsel 5"),
                    Err(_) => assert!(panics),
                }
            }
        }
    }
}
