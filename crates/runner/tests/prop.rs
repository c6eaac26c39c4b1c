//! Property-based tests for the mg-runner sweep engine (mg-testkit
//! harness): grid completion under work stealing and deterministic
//! ordering.

use mg_runner::{try_sweep, RunnerFaults};
use mg_testkit::prop::{check, Gen, TkResult};
use mg_testkit::tk_assert_eq;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every task of a random-size grid completes exactly once, and results
/// land at their task's index regardless of how threads steal the work.
#[test]
fn grid_completes_every_task_in_order() {
    check("grid_completes_every_task_in_order", |g: &mut Gen| -> TkResult {
        let n = g.usize_in(0..200);
        let tasks: Vec<(usize, u64)> =
            (0..n).map(|i| (i, (i as u64).wrapping_mul(0x9e37))).collect();
        let calls = AtomicU64::new(0);
        let out = try_sweep(&tasks, &RunnerFaults::default(), |&(i, t)| {
            calls.fetch_add(1, Ordering::Relaxed);
            t ^ (i as u64)
        });
        tk_assert_eq!(calls.load(Ordering::Relaxed), n as u64);
        tk_assert_eq!(out.len(), n);
        for (i, v) in out.into_iter().enumerate() {
            tk_assert_eq!(v, Ok(tasks[i].1 ^ (i as u64)));
        }
        Ok(())
    });
}

/// The task→result mapping is deterministic: two drains of the same grid
/// produce identical result vectors even though scheduling differs.
#[test]
fn grid_ordering_is_deterministic_across_runs() {
    check("grid_ordering_is_deterministic_across_runs", |g: &mut Gen| -> TkResult {
        let tasks: Vec<(usize, u64)> =
            g.vec(1..64, |g| g.any_u64()).into_iter().enumerate().collect();
        let f = |&(i, t): &(usize, u64)| t.wrapping_mul(31).wrapping_add(i as u64);
        let a = try_sweep(&tasks, &RunnerFaults::default(), f);
        let b = try_sweep(&tasks, &RunnerFaults::default(), f);
        tk_assert_eq!(a, b);
        Ok(())
    });
}
