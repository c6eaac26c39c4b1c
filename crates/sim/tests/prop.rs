//! Property-based tests for the simulation kernel (mg-testkit harness).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use mg_sim::rng::{Rng, RngDirectory, Xoshiro256};
use mg_sim::{EventHandle, Scheduler, SimDuration, SimTime};
use mg_testkit::prop::{check, Gen, TkResult};
use mg_testkit::{tk_assert, tk_assert_eq, tk_assert_ne};
use mg_trace::{EventKind, TraceConfig, Tracer};

/// The scheduler's calendar geometry, private to it: 2^12 ns buckets, 4,096
/// of them. The properties hold whatever the geometry; these constants only
/// aim the drawn times at this one's edges.
const BUCKET_NS: u64 = 1 << 12;
const HORIZON_NS: u64 = BUCKET_NS * 4096;

/// Events always pop in (time, insertion) order regardless of insertion
/// order, near times (in buckets) and far ones (in the heap) alike.
#[test]
fn scheduler_is_a_stable_priority_queue() {
    check(
        "scheduler_is_a_stable_priority_queue",
        |g: &mut Gen| -> TkResult {
            let times = g.vec(1..200, |g| match g.u8_in(0..3) {
                0 => g.u64_in(0..50) * 1_000,
                1 => g.u64_in(0..10_000) * 1_000,
                _ => g.u64_in(0..4 * HORIZON_NS),
            });
            let mut s: Scheduler<(u64, usize)> = Scheduler::new();
            for (i, &t) in times.iter().enumerate() {
                s.schedule_at(SimTime::from_nanos(t), (t, i));
            }
            let mut popped = Vec::new();
            while let Some((at, (t, i))) = s.pop() {
                tk_assert_eq!(at, SimTime::from_nanos(t));
                popped.push((t, i));
            }
            let mut expected = times
                .iter()
                .copied()
                .enumerate()
                .map(|(i, t)| (t, i))
                .collect::<Vec<_>>();
            expected.sort();
            tk_assert_eq!(popped, expected);
            Ok(())
        },
    );
}

/// Rejecting an arbitrary subset of handles delivers exactly the
/// complement.
#[test]
fn cancellation_is_exact() {
    check("cancellation_is_exact", |g: &mut Gen| -> TkResult {
        let times = g.vec(1..100, |g| g.u64_in(0..1000));
        let cancel_mask = g.vec(1..100, |g| g.bool());
        let mut s: Scheduler<usize> = Scheduler::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| s.schedule_at(SimTime::from_micros(t), i))
            .collect();
        let mut dead = Vec::new();
        let mut expected: Vec<usize> = Vec::new();
        for (i, h) in handles.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                dead.push(*h);
            } else {
                expected.push(i);
            }
        }
        let mut delivered: Vec<usize> = Vec::new();
        while let Some((_, i)) = s.pop_until(SimTime::MAX, |h, _| !dead.contains(&h)) {
            delivered.push(i);
        }
        delivered.sort_unstable();
        expected.sort_unstable();
        tk_assert_eq!(delivered, expected);
        tk_assert_eq!(s.events_fired(), expected.len() as u64);
        Ok(())
    });
}

/// The lazy-cancel queue the scheduler used to be: a heap plus a set of
/// cancelled sequence numbers, probed on every peek and pop. Kept as the
/// reference `pop_until` must match.
struct LazyCancel {
    now: SimTime,
    heap: BinaryHeap<Reverse<(SimTime, u64, Tag)>>,
    cancelled: HashSet<u64>,
    next_seq: u64,
    dispatched: Vec<u64>,
}

impl LazyCancel {
    fn new() -> Self {
        LazyCancel {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            dispatched: Vec::new(),
        }
    }

    fn schedule_at(&mut self, at: SimTime, tag: Tag) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, tag)));
        seq
    }

    fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(Reverse((t, seq, _))) = self.heap.peek() {
            let (t, seq) = (*t, *seq);
            if self.cancelled.remove(&seq) {
                self.heap.pop();
                continue;
            }
            return Some(t);
        }
        None
    }

    fn pop(&mut self) -> Option<(SimTime, Tag)> {
        while let Some(Reverse((t, seq, tag))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.now = t;
            self.dispatched.push(seq);
            return Some((t, tag));
        }
        None
    }
}

/// An event payload: a timer slot's expiry, or a free event. The number
/// tells entries apart.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Tag {
    Timer(usize, u32),
    Free(u32),
}

/// A delay from the clock, drawn before the tape runs and resolved against
/// the clock when its op does, so that edge cases stay edge cases.
#[derive(Clone, Copy, Debug)]
enum Delay {
    Zero,
    /// Under one bucket.
    Short(u64),
    /// `off` − 8 ns from the start of the bucket `buckets` past the clock's:
    /// across a bucket boundary, or across the horizon.
    Edge {
        buckets: u64,
        off: u64,
    },
    /// Up to four horizons: far entries, and runs that wrap the ring.
    Long(u64),
}

impl Delay {
    fn draw(g: &mut Gen) -> Delay {
        match g.u8_in(0..5) {
            0 => Delay::Zero,
            1 => Delay::Short(g.u64_in(0..BUCKET_NS)),
            2 => Delay::Edge {
                buckets: g.u64_in(1..4),
                off: g.u64_in(0..16),
            },
            3 => Delay::Edge {
                buckets: g.u64_in(4094..4099),
                off: g.u64_in(0..16),
            },
            _ => Delay::Long(g.u64_in(0..4 * HORIZON_NS)),
        }
    }

    /// Nanoseconds from `now`.
    fn ns_from(self, now: SimTime) -> u64 {
        let now = now.as_nanos();
        match self {
            Delay::Zero => 0,
            Delay::Short(ns) | Delay::Long(ns) => ns,
            Delay::Edge { buckets, off } => {
                let edge = (now / BUCKET_NS + buckets) * BUCKET_NS;
                (edge + off).saturating_sub(now + 8)
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Arm(usize, Delay),
    Disarm(usize),
    Schedule(Delay),
    RunUntil(Delay),
}

const SLOTS: usize = 8;

/// `pop_until` with a timer-slot predicate behaves exactly as the lazy-cancel
/// queue it replaced: random tapes of arm (re-arm overwrites the slot; the
/// reference cancels the old handle first), disarm, free schedules and
/// runs to a time pop the same `(time, payload)` sequence, journal the same
/// dispatch seqs, count the same events and leave the same clock. A fired
/// timer's slot is cleared, as `World` clears it. Delays mix zero, within a
/// bucket, across a bucket boundary, across the horizon and up to four
/// horizons, so entries land in buckets and in the heap, heap entries come
/// near as the clock moves, and runs wrap the ring.
#[test]
fn pop_until_matches_lazy_cancel_reference() {
    check(
        "pop_until_matches_lazy_cancel_reference",
        |g: &mut Gen| -> TkResult {
            let tape = g.vec(1..400, |g| match g.u8_in(0..4) {
                0 => Op::Arm(g.usize_in(0..SLOTS), Delay::draw(g)),
                1 => Op::Disarm(g.usize_in(0..SLOTS)),
                2 => Op::Schedule(Delay::draw(g)),
                _ => Op::RunUntil(Delay::draw(g)),
            });
            let tracer = Tracer::new(TraceConfig::verbose());
            let mut s: Scheduler<Tag> = Scheduler::new();
            s.set_tracer(tracer.clone());
            let mut slots: [Option<EventHandle>; SLOTS] = [None; SLOTS];
            let mut reference = LazyCancel::new();
            let mut ref_slots: [Option<u64>; SLOTS] = [None; SLOTS];
            let (mut popped, mut ref_popped) = (Vec::new(), Vec::new());
            let ops = tape
                .iter()
                .copied()
                .chain([Op::RunUntil(Delay::Long(u64::MAX))]);
            for (n, op) in ops.enumerate() {
                let n = n as u32;
                let at = |now: SimTime, d: Delay| now + SimDuration::from_nanos(d.ns_from(now));
                match op {
                    Op::Arm(k, d) => {
                        slots[k] = Some(s.schedule_at(at(s.now(), d), Tag::Timer(k, n)));
                        if let Some(old) = ref_slots[k].take() {
                            reference.cancel(old);
                        }
                        let seq = reference.schedule_at(at(reference.now, d), Tag::Timer(k, n));
                        ref_slots[k] = Some(seq);
                    }
                    Op::Disarm(k) => {
                        slots[k] = None;
                        if let Some(old) = ref_slots[k].take() {
                            reference.cancel(old);
                        }
                    }
                    Op::Schedule(d) => {
                        s.schedule_at(at(s.now(), d), Tag::Free(n));
                        reference.schedule_at(at(reference.now, d), Tag::Free(n));
                    }
                    Op::RunUntil(d) => {
                        let until = s.now().as_nanos().saturating_add(d.ns_from(s.now()));
                        let until = SimTime::from_nanos(until);
                        while let Some((t, tag)) = s.pop_until(until, |h, tag| match *tag {
                            Tag::Timer(k, _) => slots[k] == Some(h),
                            Tag::Free(_) => true,
                        }) {
                            if let Tag::Timer(k, _) = tag {
                                slots[k] = None;
                            }
                            popped.push((t, tag));
                        }
                        while let Some(t) = reference.peek_time() {
                            if t > until {
                                break;
                            }
                            let (t, tag) = reference.pop().expect("peeked entry exists");
                            if let Tag::Timer(k, _) = tag {
                                ref_slots[k] = None;
                            }
                            ref_popped.push((t, tag));
                        }
                    }
                }
                tk_assert_eq!(s.now(), reference.now);
            }
            tk_assert_eq!(popped, ref_popped);
            let seqs: Vec<u64> = tracer
                .events()
                .iter()
                .map(|e| match e.kind {
                    EventKind::SchedDispatch { seq } => seq,
                    ref other => panic!("unexpected journal record {other:?}"),
                })
                .collect();
            tk_assert_eq!(seqs, reference.dispatched);
            tk_assert_eq!(s.events_fired(), reference.dispatched.len() as u64);
            tk_assert!(s.is_empty() && reference.heap.is_empty());
            Ok(())
        },
    );
}

/// Durations: div_periods is consistent with multiplication.
#[test]
fn div_periods_inverse() {
    check("div_periods_inverse", |g: &mut Gen| -> TkResult {
        let period_us = g.u64_in(1..10_000);
        let k = g.u64_in(0..10_000);
        let rem_ns = g.u64_in(0..1000);
        let period = SimDuration::from_micros(period_us);
        let rem = SimDuration::from_nanos(rem_ns % period.as_nanos());
        let total = period * k + rem;
        tk_assert_eq!(total.div_periods(period), k);
        Ok(())
    });
}

/// Derived RNG streams with the same key replay; different keys differ.
#[test]
fn rng_directory_streams() {
    check("rng_directory_streams", |g: &mut Gen| -> TkResult {
        let seed = g.any_u64();
        let a = g.u64_in(0..1000);
        let b = g.u64_in(0..1000);
        let dir = RngDirectory::new(seed);
        let take = |mut r: Xoshiro256| -> Vec<u64> { (0..4).map(|_| r.next_u64()).collect() };
        tk_assert_eq!(take(dir.stream("x", a)), take(dir.stream("x", a)));
        if a != b {
            tk_assert_ne!(take(dir.stream("x", a)), take(dir.stream("x", b)));
        }
        tk_assert_ne!(take(dir.stream("x", a)), take(dir.stream("y", a)));
        Ok(())
    });
}

/// Uniform draws honor their bounds.
#[test]
fn rng_bounds() {
    check("rng_bounds", |g: &mut Gen| -> TkResult {
        let seed = g.any_u64();
        let lo = g.f64_in(-1e6..1e6);
        let width = g.f64_in(0.001..1e6);
        let n = g.u64_in(1..1000);
        let mut r = Xoshiro256::new(seed);
        let hi = lo + width;
        for _ in 0..100 {
            let u = r.uniform(lo, hi);
            tk_assert!((lo..hi).contains(&u), "{u} not in [{lo}, {hi})");
        }
        for _ in 0..100 {
            tk_assert!(r.below(n) < n);
        }
        Ok(())
    });
}

/// Bernoulli draws at p = 0 and p = 1 are degenerate; mid-p frequencies are
/// sane over a short run.
#[test]
fn rng_bernoulli_bounds() {
    check("rng_bernoulli_bounds", |g: &mut Gen| -> TkResult {
        let seed = g.any_u64();
        let p = g.f64_in(0.2..0.8);
        let mut r = Xoshiro256::new(seed);
        tk_assert!(!(0..50).any(|_| r.bernoulli(0.0)));
        tk_assert!((0..50).all(|_| r.bernoulli(1.0)));
        let hits = (0..2000).filter(|_| r.bernoulli(p)).count() as f64 / 2000.0;
        tk_assert!((hits - p).abs() < 0.1, "p={p}, freq={hits}");
        Ok(())
    });
}
