//! # mg-runner — the sweep-execution engine
//!
//! Parameter sweeps (PM × sample-size × seed grids, one simulation per
//! point) are the cost center of every experiment in this workspace. This
//! crate runs them with one function, [`try_sweep`]:
//!
//! * a **flat task grid**: the caller declares every task up front and one
//!   work-stealing pool drains them, so cores never idle at
//!   parameter-point boundaries and slow tasks overlap with fast ones.
//!   Results come back in task order, deterministically;
//! * **per-cell fault isolation**: a panicking task poisons only its own
//!   cell ([`TrialError::Panicked`]), and with a watchdog armed a hung task
//!   is abandoned and reported ([`TrialError::TimedOut`]) while every other
//!   cell completes;
//! * **deterministic runner faults** ([`RunnerFaults`], from `mg-fault`):
//!   injected panics and hangs keyed by task index, which is how CI proves
//!   the two properties above.
//!
//! Every grid is computed cold: a result cache costs more than it saves at
//! this suite's speed (DESIGN.md §4 has the measurement).
//!
//! ```
//! use mg_runner::{try_sweep, RunnerFaults, TrialError};
//!
//! let tasks: Vec<u64> = (0..8).collect();
//! let out = try_sweep(&tasks, &RunnerFaults::default(), |&t| t * t);
//! assert_eq!(out[3], Ok(9));
//!
//! let faults = RunnerFaults { panic_tasks: vec![2], ..RunnerFaults::default() };
//! let out = try_sweep(&tasks, &faults, |&t| t * t);
//! assert!(matches!(out[2], Err(TrialError::Panicked { task: 2, .. })));
//! assert_eq!(out[3], Ok(9));
//! ```

#![warn(missing_docs)]

pub use mg_fault::RunnerFaults;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Why a grid cell failed instead of producing a result.
///
/// A failed cell poisons only itself: the pool keeps draining and every
/// other cell completes normally.
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

/// Drains `tasks` through a work-stealing pool and returns one cell per
/// task, in task order: `Ok(run(task))`, or the [`TrialError`] that
/// poisoned it.
///
/// Scheduling is one shared atomic cursor on [`std::thread::scope`], with
/// one worker per available core. `run` executes on worker threads, so the
/// output is deterministic when `run` is a pure function of its task.
///
/// `faults` injects panics and hangs by task index. Its
/// [`RunnerFaults::timeout_ms`] arms the watchdog: each attempt then runs
/// on its own thread, spawned on the sweep's scope, and is abandoned (not
/// killed — safe Rust cannot kill a thread) once the deadline passes. The
/// worker that was watching it moves on at once, and a timed-out task is
/// retried up to [`RunnerFaults::retries`] times; panics never retry, they
/// are deterministic. Because the scope joins *all* of its threads on
/// exit, a genuinely infinite task still delays the return; simulated
/// hangs are finite, so sweeps under fault injection always terminate.
pub fn try_sweep<T, R>(
    tasks: &[T],
    faults: &RunnerFaults,
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
    // Workers capture plain copies of these references (`move`), which is
    // what lets `run_cell` spawn watchdog attempts on the same `'scope`.
    let (cursor_ref, slots_ref, run_ref) = (&cursor, &slots, &run);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || loop {
                let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = run_cell(scope, i, &tasks[i], faults, run_ref);
                *slots_ref[i].lock().expect("slot poisoned") = Some(cell);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot poisoned").expect("all tasks ran"))
        .collect()
}

/// One grid cell: fault injection, then the run under the watchdog if one
/// is armed.
fn run_cell<'scope, T, R>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    i: usize,
    task: &'scope T,
    faults: &'scope RunnerFaults,
    run: &'scope (impl Fn(&T) -> R + Sync),
) -> Result<R, TrialError>
where
    T: Sync,
    R: Send + 'scope,
{
    let attempt = move || {
        if faults.panics(i) {
            panic!("mg-fault: injected panic in task {i}");
        }
        if faults.hangs(i) {
            std::thread::sleep(Duration::from_millis(faults.hang_ms));
        }
        run(task)
    };
    let Some(timeout_ms) = faults.timeout_ms else {
        return catch_unwind(AssertUnwindSafe(attempt))
            .map_err(|p| TrialError::Panicked { task: i, message: panic_message(&*p) });
    };
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let (tx, rx) = mpsc::channel();
        scope.spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(attempt)));
        });
        match rx.recv_timeout(Duration::from_millis(timeout_ms)) {
            Ok(Ok(r)) => return Ok(r),
            Ok(Err(p)) => {
                return Err(TrialError::Panicked { task: i, message: panic_message(&*p) })
            }
            Err(_) if attempts <= faults.retries => continue,
            Err(_) => return Err(TrialError::TimedOut { task: i, attempts, timeout_ms }),
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

    /// A fault-free sweep, unwrapped: every cell must succeed.
    fn sweep<T: Sync, R: Send>(tasks: &[T], run: impl Fn(&T) -> R + Sync) -> Vec<R> {
        try_sweep(tasks, &RunnerFaults::default(), run)
            .into_iter()
            .map(|cell| cell.expect("fault-free cell"))
            .collect()
    }

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<u64> = (0..100).map(|i| i * 7).collect();
        let out = sweep(&tasks, |&t| t + 1);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, tasks[i] + 1);
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u64> = sweep(&[] as &[u64], |&t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_task_durations_still_complete() {
        // Tasks with wildly different costs: stealing must still cover all.
        let tasks: Vec<u64> = (0..64).collect();
        let out = sweep(&tasks, |&t| {
            if t % 7 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            t * t
        });
        assert_eq!(out, tasks.iter().map(|t| t * t).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_and_hanging_tasks_poison_only_their_own_cells() {
        let faults = RunnerFaults {
            panic_tasks: vec![3],
            hang_tasks: vec![5],
            hang_ms: 400,
            timeout_ms: Some(25),
            retries: 1,
        };
        let tasks: Vec<u64> = (0..8).collect();
        let run = |t: &u64| t * 10;

        let out = try_sweep(&tasks, &faults, run);
        let clean = try_sweep(&tasks, &RunnerFaults::default(), run);

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
        assert_eq!(out.iter().filter(|c| c.is_err()).count(), 2);
    }
}
