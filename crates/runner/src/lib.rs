//! # mg-runner — the sweep-execution engine
//!
//! Parameter sweeps (PM × sample-size × seed grids, one simulation per
//! point) are the cost center of every experiment in this workspace. This
//! crate makes them cheap and resumable with three pieces, all
//! zero-dependency:
//!
//! * [`run_grid`] — a **flat task grid**: the caller declares every task up
//!   front and one work-stealing pool drains them, so cores never idle at
//!   parameter-point boundaries and slow tasks overlap with fast ones.
//!   Results come back in task order, deterministically.
//! * [`CacheKey`] — a **canonical content key** for a task: named fields
//!   (rendered through `Debug`, so every config field participates) behind
//!   an FNV-1a 64-bit hash. Any field change changes the key.
//! * [`Cache`] + [`Runner`] — a **content-keyed result cache**: completed
//!   task results serialize to `<dir>/<fnv64>.json` via [`mg_trace::json`],
//!   so re-running a sweep replays cached points and an interrupted sweep
//!   resumes where it stopped. Hits and misses are counted through a
//!   [`Metrics`] handle owned by the runner — never mixed into the trial
//!   results themselves, which keeps cold and warm sweep outputs
//!   byte-identical.
//!
//! ```
//! use mg_runner::{Cache, CacheKey, CacheMode, Codec, Runner};
//! use mg_trace::json::Json;
//!
//! let dir = std::env::temp_dir().join("mg-runner-doc");
//! let runner = Runner::new(Cache::new(dir.clone(), CacheMode::ReadWrite));
//! let tasks: Vec<u64> = (0..8).collect();
//! let codec = Codec {
//!     encode: |r: &u64| Json::from(*r),
//!     decode: |j: &Json| j.as_u64(),
//! };
//! let key = |t: &u64| CacheKey::new("doc", 1).field("task", t);
//! let out = runner.sweep(&tasks, key, codec, |&t| t * t);
//! assert_eq!(out[3], 9);
//! let again = runner.sweep(&tasks, key, codec, |_| unreachable!("all cached"));
//! assert_eq!(out, again);
//! # let _ = std::fs::remove_dir_all(dir);
//! ```

#![warn(missing_docs)]

mod cache;
mod grid;
mod key;

pub use cache::{Cache, CacheLookup, CacheMode};
pub use grid::run_grid;
pub use key::{fnv64, CacheKey};
pub use mg_fault::RunnerFaults;

use mg_trace::json::Json;
use mg_trace::{Counter, Metrics};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// How a result type crosses the cache boundary: a pair of plain function
/// pointers (so the codec stays `Copy` and trivially `Sync`).
///
/// `decode` returning `None` marks the cached value as unusable — the runner
/// recomputes and overwrites it, so a decoder can be strict.
pub struct Codec<R> {
    /// Serializes a result for storage.
    pub encode: fn(&R) -> Json,
    /// Rebuilds a result from storage; `None` means "recompute".
    pub decode: fn(&Json) -> Option<R>,
}

impl<R> Clone for Codec<R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for Codec<R> {}

/// Why a grid cell failed instead of producing a result.
///
/// A failed cell poisons only itself: the pool keeps draining, every other
/// cell completes normally, and nothing is cached for the failed key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrialError {
    /// The task's run closure panicked.
    Panicked {
        /// Flat grid index of the task.
        task: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The task exceeded the watchdog timeout on every allowed attempt.
    TimedOut {
        /// Flat grid index of the task.
        task: usize,
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The per-attempt timeout that was exceeded.
        timeout_ms: u64,
    },
}

impl std::fmt::Display for TrialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrialError::Panicked { task, message } => {
                write!(f, "task {task} panicked: {message}")
            }
            TrialError::TimedOut { task, attempts, timeout_ms } => {
                write!(f, "task {task} timed out ({attempts} attempts × {timeout_ms} ms)")
            }
        }
    }
}

/// Watchdog settings for [`Runner::try_sweep`].
///
/// With a timeout set, each task attempt runs on its own thread — spawned
/// on the *sweep's* [`std::thread::scope`], not a detached thread — and is
/// abandoned (not killed — safe Rust cannot kill a thread) once the
/// deadline passes. The worker that was watching it moves on immediately:
/// every other cell completes and the hung cell is reported as
/// [`TrialError::TimedOut`]. Because the scope joins *all* of its threads
/// on exit, a *genuinely* infinite task still delays `try_sweep`'s return;
/// simulated hangs are finite, so sweeps under fault injection always
/// terminate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepPolicy {
    /// Per-attempt wall-clock timeout; `None` disables the watchdog.
    pub timeout_ms: Option<u64>,
    /// Extra attempts granted after a timeout (panics never retry — they
    /// are deterministic).
    pub retries: u32,
}

/// Executes task grids against a result cache, counting hits and misses.
pub struct Runner {
    cache: Cache,
    metrics: Metrics,
    faults: RunnerFaults,
    policy: SweepPolicy,
}

impl Runner {
    /// A runner over `cache`. The hit/miss metrics are the runner's own —
    /// they never leak into task results.
    pub fn new(cache: Cache) -> Runner {
        Runner {
            cache,
            metrics: Metrics::new(1),
            faults: RunnerFaults::default(),
            policy: SweepPolicy::default(),
        }
    }

    /// Arms deterministic runner-layer fault injection (worker panics,
    /// simulated hangs, post-store cache corruption), keyed by task index.
    pub fn with_faults(mut self, faults: RunnerFaults) -> Runner {
        if self.policy.timeout_ms.is_none() {
            self.policy.timeout_ms = faults.timeout_ms;
            self.policy.retries = faults.retries;
        }
        self.faults = faults;
        self
    }

    /// The cache this runner consults.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The runner's own metrics handle (cache hit/miss counters).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Tasks replayed from the cache so far.
    pub fn hits(&self) -> u64 {
        self.metrics.node_counter(0, Counter::CacheHits)
    }

    /// Tasks actually computed so far.
    pub fn misses(&self) -> u64 {
        self.metrics.node_counter(0, Counter::CacheMisses)
    }

    /// Cache entries found corrupt and degraded to misses so far.
    pub fn corrupt(&self) -> u64 {
        self.metrics.node_counter(0, Counter::CacheCorrupt)
    }

    /// Grid cells poisoned by a panic or watchdog timeout so far.
    pub fn errors(&self) -> u64 {
        self.metrics.node_counter(0, Counter::TrialErrors)
    }

    /// One-line human summary of the cache traffic, for stderr.
    pub fn summary(&self) -> String {
        format!(
            "cache: {} hits, {} misses, {} corrupt ({})",
            self.hits(),
            self.misses(),
            self.corrupt(),
            self.cache.describe()
        )
    }

    /// Drains `tasks` through the work-stealing pool, consulting the cache
    /// around each one.
    ///
    /// For every task: build its [`CacheKey`], try [`Cache::load`] +
    /// `codec.decode` (a hit bypasses `run` entirely), otherwise call
    /// `run` and store the encoded result. Results return in task order —
    /// cached and computed tasks are indistinguishable in the output.
    ///
    /// A failed cell (panic or timeout, see [`Runner::try_sweep`]) panics
    /// here with the cell's [`TrialError`]; callers that want to keep the
    /// healthy cells use `try_sweep` directly.
    pub fn sweep<T, R>(
        &self,
        tasks: &[T],
        key: impl Fn(&T) -> CacheKey + Sync,
        codec: Codec<R>,
        run: impl Fn(&T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.try_sweep(tasks, key, codec, run)
            .into_iter()
            .map(|cell| cell.unwrap_or_else(|e| panic!("sweep failed: {e}")))
            .collect()
    }

    /// Fault-tolerant sweep: like [`Runner::sweep`], but a panicking or
    /// hung task poisons only its own grid cell.
    ///
    /// Each cell comes back as `Ok(result)` or `Err(TrialError)`; the pool
    /// keeps draining after a failure, failed cells are never cached, and
    /// corrupt cache entries degrade to misses with a warning on stderr.
    /// With [`SweepPolicy::timeout_ms`] set, every attempt runs under a
    /// watchdog and timed-out tasks retry up to [`SweepPolicy::retries`]
    /// times.
    pub fn try_sweep<T, R>(
        &self,
        tasks: &[T],
        key: impl Fn(&T) -> CacheKey + Sync,
        codec: Codec<R>,
        run: impl Fn(&T) -> R + Sync,
    ) -> Vec<Result<R, TrialError>>
    where
        T: Sync,
        R: Send,
    {
        let n = tasks.len();
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(n.max(1));
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<R, TrialError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // A private scope (rather than delegating to `run_grid`, which owns
        // its scope internally) so workers can hand `scope` itself to
        // `run_cell`, which spawns watchdog attempt threads on it. Workers
        // capture plain copies of these references (`move`), which is what
        // lets the nested spawn borrow-check against the same `'scope`.
        let (this, cursor_ref, slots_ref, key_ref, run_ref) =
            (self, &cursor, &slots, &key, &run);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(move || loop {
                    let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cell = this.run_cell(scope, i, &tasks[i], key_ref, codec, run_ref);
                    *slots_ref[i].lock().expect("slot poisoned") = Some(cell);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("slot poisoned").expect("all tasks ran"))
            .collect()
    }

    /// One grid cell: cache consult, fault injection, watchdog, store.
    fn run_cell<'scope, T, R>(
        &'scope self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        i: usize,
        task: &'scope T,
        key: &impl Fn(&T) -> CacheKey,
        codec: Codec<R>,
        run: &'scope (impl Fn(&T) -> R + Sync),
    ) -> Result<R, TrialError>
    where
        T: Sync,
        R: Send + 'scope,
    {
        let k = key(task);
        match self.cache.lookup(&k) {
            CacheLookup::Hit(v) => {
                if let Some(cached) = (codec.decode)(&v) {
                    self.metrics.bump(0, Counter::CacheHits);
                    return Ok(cached);
                }
                // Well-formed entry, stale codec: recompute as a plain miss.
            }
            CacheLookup::Corrupt(reason) => {
                self.metrics.bump(0, Counter::CacheCorrupt);
                eprintln!(
                    "mg-runner: warning: corrupt cache entry for task {i} ({reason}); recomputing"
                );
            }
            CacheLookup::Miss => {}
        }
        let faults = &self.faults;
        let attempt = move || {
            if faults.panics(i) {
                panic!("mg-fault: injected panic in task {i}");
            }
            if faults.hangs(i) {
                std::thread::sleep(Duration::from_millis(faults.hang_ms));
            }
            run(task)
        };
        let outcome = match self.policy.timeout_ms {
            None => catch_unwind(AssertUnwindSafe(attempt))
                .map_err(|p| TrialError::Panicked { task: i, message: panic_message(&*p) }),
            Some(timeout_ms) => {
                let mut attempts = 0u32;
                loop {
                    attempts += 1;
                    let (tx, rx) = mpsc::channel();
                    let this_attempt = attempt;
                    scope.spawn(move || {
                        let _ = tx.send(catch_unwind(AssertUnwindSafe(this_attempt)));
                    });
                    match rx.recv_timeout(Duration::from_millis(timeout_ms)) {
                        Ok(Ok(r)) => break Ok(r),
                        Ok(Err(p)) => {
                            break Err(TrialError::Panicked {
                                task: i,
                                message: panic_message(&*p),
                            })
                        }
                        Err(_) if attempts <= self.policy.retries => continue,
                        Err(_) => {
                            break Err(TrialError::TimedOut { task: i, attempts, timeout_ms })
                        }
                    }
                }
            }
        };
        match outcome {
            Ok(result) => {
                self.cache.store(&k, &(codec.encode)(&result));
                if faults.corrupts_cache(i) {
                    self.cache.truncate_entry(&k);
                }
                self.metrics.bump(0, Counter::CacheMisses);
                Ok(result)
            }
            Err(e) => {
                self.metrics.bump(0, Counter::TrialErrors);
                Err(e)
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mg-runner-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn u64_codec() -> Codec<u64> {
        Codec { encode: |r| Json::from(*r), decode: |j| j.as_u64() }
    }

    #[test]
    fn sweep_computes_then_replays() {
        let dir = tmp_dir("replay");
        let runner = Runner::new(Cache::new(dir.clone(), CacheMode::ReadWrite));
        let tasks: Vec<u64> = (0..20).collect();
        let calls = AtomicU64::new(0);
        let key = |t: &u64| CacheKey::new("t", 1).field("task", t);
        let run = |t: &u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            t * 3
        };
        let first = runner.sweep(&tasks, key, u64_codec(), run);
        assert_eq!(first, (0..20).map(|t| t * 3).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 20);
        assert_eq!((runner.hits(), runner.misses()), (0, 20));

        let second = runner.sweep(&tasks, key, u64_codec(), run);
        assert_eq!(second, first);
        assert_eq!(calls.load(Ordering::Relaxed), 20, "second pass must be all hits");
        assert_eq!((runner.hits(), runner.misses()), (20, 20));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cache_off_always_recomputes() {
        let dir = tmp_dir("off");
        let runner = Runner::new(Cache::new(dir.clone(), CacheMode::Off));
        let tasks: Vec<u64> = (0..5).collect();
        let calls = AtomicU64::new(0);
        let key = |t: &u64| CacheKey::new("t", 1).field("task", t);
        let run = |t: &u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            *t
        };
        runner.sweep(&tasks, key, u64_codec(), run);
        runner.sweep(&tasks, key, u64_codec(), run);
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        assert!(!dir.exists(), "Off mode must not create the cache dir");
    }

    #[test]
    fn refresh_overwrites_but_never_reads() {
        let dir = tmp_dir("refresh");
        let rw = Runner::new(Cache::new(dir.clone(), CacheMode::ReadWrite));
        let key = |t: &u64| CacheKey::new("t", 1).field("task", t);
        rw.sweep(&[7u64], key, u64_codec(), |_| 1);
        assert_eq!(rw.sweep(&[7u64], key, u64_codec(), |_| 2), vec![1]);

        let refresh = Runner::new(Cache::new(dir.clone(), CacheMode::Refresh));
        assert_eq!(refresh.sweep(&[7u64], key, u64_codec(), |_| 3), vec![3]);
        // The refreshed value is what ReadWrite now sees.
        assert_eq!(rw.sweep(&[7u64], key, u64_codec(), |_| 4), vec![3]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn panicking_and_hanging_tasks_poison_only_their_own_cells() {
        let dir = tmp_dir("poison");
        let faults = RunnerFaults {
            panic_tasks: vec![3],
            hang_tasks: vec![5],
            hang_ms: 400,
            timeout_ms: Some(25),
            retries: 1,
            ..RunnerFaults::default()
        };
        let tasks: Vec<u64> = (0..8).collect();
        let key = |t: &u64| CacheKey::new("t", 1).field("task", t);
        let run = |t: &u64| t * 10;

        let faulty = Runner::new(Cache::new(dir.clone(), CacheMode::Off)).with_faults(faults);
        let out = faulty.try_sweep(&tasks, key, u64_codec(), run);
        let clean = Runner::new(Cache::new(dir.clone(), CacheMode::Off))
            .try_sweep(&tasks, key, u64_codec(), run);

        for (i, cell) in out.iter().enumerate() {
            match i {
                3 => match cell {
                    Err(TrialError::Panicked { task, message }) => {
                        assert_eq!(*task, 3);
                        assert!(message.contains("injected panic"), "{message}");
                    }
                    other => panic!("cell 3 must be Panicked, got {other:?}"),
                },
                5 => match cell {
                    Err(TrialError::TimedOut { task, attempts, timeout_ms }) => {
                        assert_eq!((*task, *attempts, *timeout_ms), (5, 2, 25));
                    }
                    other => panic!("cell 5 must be TimedOut, got {other:?}"),
                },
                _ => assert_eq!(cell, &clean[i], "healthy cell {i} must match a fault-free run"),
            }
        }
        assert_eq!(faulty.errors(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_cache_entries_degrade_to_recomputed_misses() {
        let dir = tmp_dir("degrade");
        let runner = Runner::new(Cache::new(dir.clone(), CacheMode::ReadWrite));
        let key = |t: &u64| CacheKey::new("t", 1).field("task", t);
        runner.sweep(&[1u64, 2], key, u64_codec(), |t| t + 100);
        runner.cache().truncate_entry(&key(&1));

        let out = runner.sweep(&[1u64, 2], key, u64_codec(), |t| t + 100);
        assert_eq!(out, vec![101, 102]);
        assert_eq!(runner.corrupt(), 1, "the torn entry must be counted");
        assert_eq!(runner.hits(), 1, "the intact entry must still replay");
        // The recompute healed the entry on disk.
        runner.sweep(&[1u64], key, u64_codec(), |_| unreachable!("healed entry must hit"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn injected_cache_corruption_is_self_inflicted_and_survivable() {
        let dir = tmp_dir("self-corrupt");
        let faults =
            RunnerFaults { corrupt_cache_tasks: vec![0], ..RunnerFaults::default() };
        let runner =
            Runner::new(Cache::new(dir.clone(), CacheMode::ReadWrite)).with_faults(faults);
        let key = |t: &u64| CacheKey::new("t", 1).field("task", t);
        assert_eq!(runner.sweep(&[9u64], key, u64_codec(), |t| t + 1), vec![10]);
        // The stored entry was truncated right after the store: next pass
        // classifies it corrupt, recomputes, and (re-corrupts) again.
        assert_eq!(runner.sweep(&[9u64], key, u64_codec(), |t| t + 1), vec![10]);
        assert_eq!(runner.corrupt(), 1);
        assert_eq!(runner.hits(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_panics_with_the_cell_error() {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let dir = tmp_dir("sweep-panic");
            let faults = RunnerFaults { panic_tasks: vec![1], ..RunnerFaults::default() };
            let runner = Runner::new(Cache::new(dir, CacheMode::Off)).with_faults(faults);
            let key = |t: &u64| CacheKey::new("t", 1).field("task", t);
            runner.sweep(&[0u64, 1], key, u64_codec(), |t| *t)
        }));
        let msg = panic_message(result.unwrap_err().as_ref());
        assert!(msg.contains("task 1"), "sweep must name the failed cell: {msg}");
    }

    #[test]
    fn undecodable_entries_are_recomputed() {
        let dir = tmp_dir("undecodable");
        let runner = Runner::new(Cache::new(dir.clone(), CacheMode::ReadWrite));
        let key = |t: &u64| CacheKey::new("t", 1).field("task", t);
        let strict: Codec<u64> = Codec { encode: |r| Json::from(*r), decode: |_| None };
        runner.sweep(&[1u64], key, strict, |_| 5);
        // decode always fails → the stored value is ignored, task recomputed.
        let out = runner.sweep(&[1u64], key, strict, |_| 6);
        assert_eq!(out, vec![6]);
        assert_eq!(runner.hits(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
