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
//!   cell ([`TrialError::Panicked`]) while every other cell completes;
//! * **deterministic runner faults** ([`RunnerFaults`], from `mg-fault`):
//!   injected panics keyed by task index, which is how CI proves the
//!   property above.
//!
//! Every grid is computed cold: a result cache costs more than it saves at
//! this suite's speed (DESIGN.md §4 has the measurement). There is no
//! watchdog: a trial is a pure function of its task, so a retry would only
//! repeat a slow cell (DESIGN.md §3).
//!
//! ```
//! use mg_runner::{try_sweep, RunnerFaults, TrialError};
//!
//! let tasks: Vec<u64> = (0..8).collect();
//! let out = try_sweep(&tasks, &RunnerFaults::default(), |&t| t * t);
//! assert_eq!(out[3], Ok(9));
//!
//! let faults = RunnerFaults { panic_tasks: vec![2] };
//! let out = try_sweep(&tasks, &faults, |&t| t * t);
//! assert!(matches!(out[2], Err(TrialError::Panicked { task: 2, .. })));
//! assert_eq!(out[3], Ok(9));
//! ```

#![warn(missing_docs)]

pub use mg_fault::RunnerFaults;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
}

impl std::fmt::Display for TrialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrialError::Panicked { task, message } => {
                write!(f, "task {task} panicked: {message}")
            }
        }
    }
}

/// Drains `tasks` through a work-stealing pool and returns one cell per
/// task, in task order: `Ok(run(task))`, or the [`TrialError`] that
/// poisoned it.
///
/// Scheduling is one shared atomic cursor on [`std::thread::scope`], with
/// one worker per available core. `run` executes on worker threads under
/// `catch_unwind`, so the output is deterministic when `run` is a pure
/// function of its task, and a panic poisons only its own cell. `faults`
/// injects panics by task index.
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
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = catch_unwind(AssertUnwindSafe(|| {
                    if faults.panics(i) {
                        panic!("mg-fault: injected panic in task {i}");
                    }
                    run(&tasks[i])
                }))
                .map_err(|p| TrialError::Panicked {
                    task: i,
                    message: panic_message(&*p),
                });
                *slots[i].lock().expect("slot poisoned") = Some(cell);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot poisoned").expect("all tasks ran"))
        .collect()
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
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            t * t
        });
        assert_eq!(out, tasks.iter().map(|t| t * t).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_tasks_poison_only_their_own_cells() {
        let tasks: Vec<u64> = (0..8).collect();
        let run = |t: &u64| t * 10;
        let clean = try_sweep(&tasks, &RunnerFaults::default(), run);
        let faults = RunnerFaults {
            panic_tasks: vec![3],
        };
        let out = try_sweep(&tasks, &faults, run);
        match &out[3] {
            Err(TrialError::Panicked { task, message }) => {
                assert_eq!(*task, 3);
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("cell 3 must be Panicked, got {other:?}"),
        }
        // Every other cell equals a fault-free run, and the one injected
        // fault is the only error.
        for (i, cell) in out.iter().enumerate().filter(|&(i, _)| i != 3) {
            assert_eq!(cell, &clean[i], "healthy cell {i}");
        }
        assert_eq!(out.iter().filter(|c| c.is_err()).count(), 1);
    }
}
