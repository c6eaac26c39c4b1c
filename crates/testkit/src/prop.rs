//! Seeded property testing with shrink-by-halving.
//!
//! A property is a function `Fn(&mut Gen) -> TkResult`. The [`Gen`] hands
//! out values drawn from a reproducible RNG and records every raw 64-bit
//! draw on a *tape*. When a case fails, the harness shrinks the tape by
//! repeatedly halving individual raw draws (which halves integer values,
//! pulls floats toward their range start, shortens generated vectors, and
//! flips booleans to `false`) while the property keeps failing, then reports
//! the minimal counterexample together with the seed that reproduces it.

use mg_sim::rng::{Rng, SplitMix64, Xoshiro256};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a property case did not pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TkError {
    /// The case's preconditions were not met; draw another case.
    Assume,
    /// The property failed with the given message.
    Fail(String),
}

/// Result of one property case.
pub type TkResult = Result<(), TkError>;

/// Asserts a condition inside a property, with an optional format message.
#[macro_export]
macro_rules! tk_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TkError::Fail(format!(
                "assertion failed at {}:{}: {}",
                file!(),
                line!(),
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TkError::Fail(format!(
                "assertion failed at {}:{}: {}: {}",
                file!(),
                line!(),
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Asserts two expressions are equal inside a property.
#[macro_export]
macro_rules! tk_assert_eq {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err($crate::TkError::Fail(format!(
                "assertion failed at {}:{}: {} == {}\n  left: {:?}\n right: {:?}",
                file!(),
                line!(),
                stringify!($a),
                stringify!($b),
                va,
                vb
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err($crate::TkError::Fail(format!(
                "assertion failed at {}:{}: {} == {} ({})\n  left: {:?}\n right: {:?}",
                file!(),
                line!(),
                stringify!($a),
                stringify!($b),
                format!($($fmt)+),
                va,
                vb
            )));
        }
    }};
}

/// Asserts two expressions are unequal inside a property.
#[macro_export]
macro_rules! tk_assert_ne {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if va == vb {
            return Err($crate::TkError::Fail(format!(
                "assertion failed at {}:{}: {} != {} (both {:?})",
                file!(),
                line!(),
                stringify!($a),
                stringify!($b),
                va
            )));
        }
    }};
}

/// Rejects the current case (precondition not met); the harness draws a
/// replacement case without counting this one.
#[macro_export]
macro_rules! tk_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TkError::Assume);
        }
    };
}

enum Mode {
    /// Drawing fresh values and recording them.
    Record(Xoshiro256),
    /// Replaying a (possibly mutated) tape; exhausted positions yield 0.
    Replay,
}

/// The value source handed to properties.
///
/// Every raw 64-bit draw is recorded so failures can be shrunk and replayed.
/// All generator methods derive their value monotonically from one raw draw:
/// halving the raw draw can only move the generated value toward the "small"
/// end of its range (range start, `false`, shorter vector).
pub struct Gen {
    mode: Mode,
    tape: Vec<u64>,
    pos: usize,
}

impl Gen {
    fn record(seed: u64) -> Self {
        Gen {
            mode: Mode::Record(Xoshiro256::new(seed)),
            tape: Vec::new(),
            pos: 0,
        }
    }

    fn replay(tape: Vec<u64>) -> Self {
        Gen {
            mode: Mode::Replay,
            tape,
            pos: 0,
        }
    }

    /// The next raw 64-bit draw (recorded on the tape).
    pub fn bits(&mut self) -> u64 {
        let v = match &mut self.mode {
            Mode::Record(rng) => {
                let v = rng.next_u64();
                self.tape.push(v);
                v
            }
            Mode::Replay => self.tape.get(self.pos).copied().unwrap_or(0),
        };
        self.pos += 1;
        v
    }

    /// Any `u64` whatsoever.
    pub fn any_u64(&mut self) -> u64 {
        self.bits()
    }

    /// A uniform `u64` in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        range.start + self.bits() % span
    }

    /// A uniform `usize` in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// A uniform `u16` in `[range.start, range.end)`.
    pub fn u16_in(&mut self, range: Range<u16>) -> u16 {
        self.u64_in(u64::from(range.start)..u64::from(range.end)) as u16
    }

    /// A uniform `u8` in `[range.start, range.end)`.
    pub fn u8_in(&mut self, range: Range<u8>) -> u8 {
        self.u64_in(u64::from(range.start)..u64::from(range.end)) as u8
    }

    /// Any byte.
    pub fn any_u8(&mut self) -> u8 {
        (self.bits() & 0xFF) as u8
    }

    /// A uniform `f64` in `[range.start, range.end)`.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.bits() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + (range.end - range.start) * unit
    }

    /// A boolean (shrinks toward `false`).
    pub fn bool(&mut self) -> bool {
        self.bits() & 1 == 1
    }

    /// A vector with length drawn from `len` and elements from `elem`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut elem: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| elem(self)).collect()
    }

    /// A vector of uniform `f64` values (the most common case).
    pub fn vec_f64(&mut self, len: Range<usize>, each: Range<f64>) -> Vec<f64> {
        self.vec(len, |g| g.f64_in(each.clone()))
    }
}

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Accepted (non-rejected) cases required for the property to pass.
    pub cases: u32,
    /// Base seed; every property and case derives its own stream from it.
    pub seed: u64,
    /// Upper bound on shrink attempts once a failure is found.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: env_u64("TESTKIT_CASES", 64) as u32,
            seed: env_u64("TESTKIT_SEED", 0x1CDC_2006_5EED),
            max_shrink_steps: 512,
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Checks a property under the default [`Config`].
///
/// # Panics
///
/// Panics with the shrunk counterexample and its seed if the property fails.
pub fn check(name: &str, prop: impl Fn(&mut Gen) -> TkResult) {
    check_with(Config::default(), name, prop);
}

/// Checks a property under an explicit [`Config`].
///
/// # Panics
///
/// Panics with the shrunk counterexample and its seed if the property fails,
/// or if too many cases in a row are rejected by `tk_assume!`.
pub fn check_with(cfg: Config, name: &str, prop: impl Fn(&mut Gen) -> TkResult) {
    // Derive a per-property base seed so properties are independent.
    let mut h = SplitMix64::mix(cfg.seed);
    for &b in name.as_bytes() {
        h = SplitMix64::mix(h ^ u64::from(b));
    }
    let mut accepted = 0u32;
    let mut attempts = 0u32;
    let max_attempts = cfg.cases.saturating_mul(20).max(100);
    while accepted < cfg.cases {
        assert!(
            attempts < max_attempts,
            "property '{name}': gave up after {attempts} attempts \
             ({accepted}/{} accepted) — tk_assume! rejects too much",
            cfg.cases
        );
        let case_seed = SplitMix64::mix(h ^ u64::from(attempts).wrapping_mul(0x9E37_79B9));
        attempts += 1;
        let mut g = Gen::record(case_seed);
        match run_case(&prop, &mut g) {
            Ok(()) => accepted += 1,
            Err(TkError::Assume) => {}
            Err(TkError::Fail(first_msg)) => {
                let (tape, steps) = shrink(&prop, g.tape, cfg.max_shrink_steps);
                let minimal_msg = match run_case(&prop, &mut Gen::replay(tape)) {
                    Err(TkError::Fail(m)) => m,
                    // The shrunk tape must still fail (shrink only keeps
                    // failing candidates), but be defensive.
                    _ => first_msg,
                };
                panic!(
                    "property '{name}' failed (case {} of {}, seed {case_seed:#018x}, \
                     {steps} shrink steps)\n{minimal_msg}\n\
                     replay the whole run with TESTKIT_SEED={}",
                    attempts,
                    cfg.cases,
                    cfg.seed
                );
            }
        }
    }
}

/// Runs one case, converting panics inside the property (or the code under
/// test) into failures so they shrink like ordinary assertion misses.
fn run_case(prop: &impl Fn(&mut Gen) -> TkResult, g: &mut Gen) -> TkResult {
    match catch_unwind(AssertUnwindSafe(|| prop(g))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked".to_string());
            Err(TkError::Fail(format!("panic: {msg}")))
        }
    }
}

/// Shrinks a failing tape by halving raw draws while the failure persists.
fn shrink(
    prop: &impl Fn(&mut Gen) -> TkResult,
    mut tape: Vec<u64>,
    budget: u32,
) -> (Vec<u64>, u32) {
    let fails = |t: &[u64]| matches!(run_case(prop, &mut Gen::replay(t.to_vec())), Err(TkError::Fail(_)));
    let mut steps = 0u32;
    let mut improved = true;
    while improved && steps < budget {
        improved = false;
        // Try dropping the whole tail first (cheapest big win: shorter
        // vectors, earlier defaults), then halve individual draws.
        let mut cut = tape.len() / 2;
        while cut > 0 && steps < budget {
            steps += 1;
            let candidate = tape[..tape.len() - cut].to_vec();
            if fails(&candidate) {
                tape = candidate;
                improved = true;
            }
            cut /= 2;
        }
        for i in 0..tape.len() {
            let orig = tape[i];
            if orig == 0 {
                continue;
            }
            // Halve while the failure persists; remember the first passing
            // value so the exact boundary can be bisected afterwards.
            let mut hi = orig; // smallest known failing value
            let mut lo = None; // largest known passing value
            while hi > 0 && steps < budget {
                steps += 1;
                let cand = hi / 2;
                tape[i] = cand;
                if fails(&tape) {
                    hi = cand;
                    if cand == 0 {
                        break;
                    }
                } else {
                    lo = Some(cand);
                    break;
                }
            }
            if let Some(mut lo) = lo {
                while hi - lo > 1 && steps < budget {
                    steps += 1;
                    let mid = lo + (hi - lo) / 2;
                    tape[i] = mid;
                    if fails(&tape) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
            }
            tape[i] = hi;
            if hi != orig {
                improved = true;
            }
        }
    }
    (tape, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        check("tautology", |g| {
            let x = g.u64_in(0..100);
            tk_assert!(x < 100);
            Ok(())
        });
    }

    #[test]
    fn generators_respect_ranges() {
        check("ranges", |g| {
            tk_assert!(g.u64_in(5..10) >= 5 && g.u64_in(5..10) < 10);
            let f = g.f64_in(-2.0..3.0);
            tk_assert!((-2.0..3.0).contains(&f), "{f}");
            let v = g.vec_f64(1..7, 0.0..1.0);
            tk_assert!(!v.is_empty() && v.len() < 7);
            tk_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            let b = g.u8_in(1..4);
            tk_assert!((1..4).contains(&b));
            Ok(())
        });
    }

    #[test]
    fn failure_is_shrunk_to_the_boundary() {
        // x >= 1000 fails for x in [1000, 10000); halving must land exactly
        // on the smallest failing value.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            check("boundary", |g| {
                let x = g.u64_in(0..10_000);
                tk_assert!(x < 1_000, "x = {x}");
                Ok(())
            });
        }));
        let msg = match caught {
            Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("x = 1000"), "not shrunk to boundary: {msg}");
        assert!(msg.contains("seed"), "seed missing from report: {msg}");
    }

    #[test]
    fn assume_rejects_without_failing() {
        let accepted = std::cell::Cell::new(0u32);
        check_with(
            Config {
                cases: 10,
                ..Config::default()
            },
            "assume",
            |g| {
                let x = g.u64_in(0..4);
                tk_assume!(x != 1);
                tk_assert!(x != 1, "assumed-away values must never reach here");
                accepted.set(accepted.get() + 1);
                Ok(())
            },
        );
        assert_eq!(accepted.get(), 10);
    }

    #[test]
    fn panics_inside_property_are_reported_with_seed() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            check("panicky", |g| {
                let v = g.vec_f64(0..10, 0.0..1.0);
                if v.len() > 3 {
                    let _ = v[100]; // out-of-bounds panic
                }
                Ok(())
            });
        }));
        let msg = match caught {
            Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("panic"), "{msg}");
        assert!(msg.contains("seed"), "{msg}");
    }

    #[test]
    fn replay_is_deterministic() {
        // The same (seed, name) always generates the same first case.
        let one = |_: ()| {
            let mut g = Gen::record(42);
            (g.any_u64(), g.f64_in(0.0..1.0), g.bool())
        };
        assert_eq!(one(()), one(()));
    }
}
