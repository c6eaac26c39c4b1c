//! The event queue at the heart of the simulator.
//!
//! Events are arbitrary payloads `E` scheduled for a [`SimTime`]. Two events
//! scheduled for the same instant pop in the order they were scheduled
//! (strict FIFO), which — together with seeded RNG streams — makes every
//! simulation run fully deterministic.
//!
//! The queue keeps no cancellation state: the caller keeps each timer's
//! newest [`EventHandle`] and hands [`Scheduler::pop_until`] a predicate
//! that rejects stale ones, which are dropped when they reach the top of
//! the heap. Handles are never reused, so a dead entry stays dead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;

use mg_trace::{EventKind, Tracer};

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event, so that a [`Scheduler::pop_until`]
/// predicate can tell a timer's newest entry from the ones it replaced.
///
/// Handles are unique for the lifetime of a [`Scheduler`]. A handle holds
/// its event's sequence number plus one, so an `Option<EventHandle>` takes
/// 8 bytes — per-node timer tables stay compact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventHandle(NonZeroU64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic pending-event queue with a virtual clock.
///
/// The clock ([`Scheduler::now`]) advances only when events are popped; there
/// is no wall-clock coupling, so simulations run as fast as the host allows
/// and always reproduce exactly.
///
/// # Example
///
/// ```
/// use mg_sim::{Scheduler, SimDuration, SimTime};
///
/// let mut s: Scheduler<u32> = Scheduler::new();
/// let h = s.schedule_in(SimDuration::from_micros(50), 1);
/// s.schedule_in(SimDuration::from_micros(50), 2); // same instant: FIFO
/// let live = |e, _: &u32| e != h; // the caller's record of live entries
/// assert_eq!(s.pop_until(SimTime::MAX, live).map(|(_, e)| e), Some(2));
/// assert!(s.pop().is_none());
/// ```
pub struct Scheduler<E> {
    now: SimTime,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    popped: u64,
    tracer: Tracer,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Journals every dispatch (at `Debug` level for the `sched` subsystem)
    /// through `tracer`. Disabled by default.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event, or [`SimTime::ZERO`] if nothing has fired yet.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far (diagnostic).
    pub fn events_fired(&self) -> u64 {
        self.popped
    }

    /// Number of entries queued, dead ones included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries are queued.
    ///
    /// Dead entries count until they surface, so `is_empty` may report
    /// `false` for a queue that will deliver nothing;
    /// [`Scheduler::pop_until`] is the authoritative check.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`Scheduler::now`]: scheduling into the
    /// past would silently corrupt causality, so it is rejected loudly.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={:?}, at={:?}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            payload,
        }));
        EventHandle(NonZeroU64::MIN.saturating_add(seq))
    }

    /// Schedules `payload` to fire `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, payload: E) -> EventHandle {
        self.schedule_at(self.now + after, payload)
    }

    /// Pops the next entry `live` accepts if it is due at or before `until`,
    /// advancing the clock to its timestamp.
    ///
    /// Every entry `live` rejects is dropped as soon as it reaches the top
    /// of the heap, whatever its time: it moves no clock, is not counted in
    /// [`Scheduler::events_fired`] and is not journaled. Returns `None` when
    /// the queue holds no live entry due by `until`; a live entry due later
    /// stays queued.
    pub fn pop_until(
        &mut self,
        until: SimTime,
        mut live: impl FnMut(EventHandle, &E) -> bool,
    ) -> Option<(SimTime, E)> {
        while let Some(Reverse(top)) = self.heap.peek() {
            let handle = EventHandle(NonZeroU64::MIN.saturating_add(top.seq));
            if !live(handle, &top.payload) {
                self.heap.pop();
                continue;
            }
            if top.time > until {
                return None;
            }
            let Reverse(entry) = self.heap.pop().expect("the top entry exists");
            debug_assert!(entry.time >= self.now, "event queue went backwards");
            self.now = entry.time;
            self.popped += 1;
            self.tracer
                .emit(entry.time.as_nanos(), None, EventKind::SchedDispatch { seq: entry.seq });
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// [`Scheduler::pop_until`] for a queue whose every entry is live:
    /// `None` once it has drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX, |_, _| true)
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("fired", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_micros(30), 3);
        s.schedule_at(SimTime::from_micros(10), 1);
        s.schedule_at(SimTime::from_micros(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(s.now(), SimTime::from_micros(30));
    }

    #[test]
    fn fifo_at_equal_times() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..100 {
            s.schedule_at(SimTime::from_micros(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn dead_handle_never_fires() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let h = s.schedule_in(SimDuration::from_micros(10), "dead");
        s.schedule_in(SimDuration::from_micros(20), "alive");
        let live = |e, _: &&str| e != h;
        let popped = s.pop_until(SimTime::MAX, live);
        assert_eq!(popped.map(|(_, e)| e), Some("alive"));
        assert!(s.pop_until(SimTime::MAX, live).is_none());
        assert_eq!(s.events_fired(), 1);
    }

    #[test]
    fn fired_handle_never_fires_again() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let h = s.schedule_in(SimDuration::from_micros(1), 7);
        assert_eq!(s.pop().map(|(_, e)| e), Some(7));
        let next = s.schedule_in(SimDuration::from_micros(1), 8);
        assert_ne!(next, h, "handles are never reused");
        // Rejecting the fired handle suppresses nothing later, and the
        // fired entry is never offered again.
        let mut offered = Vec::new();
        let popped = s.pop_until(SimTime::MAX, |e, _| {
            offered.push(e);
            e != h
        });
        assert_eq!(popped.map(|(_, e)| e), Some(8));
        assert_eq!(offered, vec![next]);
        assert!(s.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_micros(10), 0);
        s.pop();
        s.schedule_at(SimTime::from_micros(5), 1);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut s: Scheduler<u64> = Scheduler::new();
        // Interleave scheduling and popping.
        s.schedule_at(SimTime::from_micros(10), 10);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(10));
        s.schedule_in(SimDuration::from_micros(5), 15);
        s.schedule_in(SimDuration::from_micros(1), 11);
        assert_eq!(s.pop().unwrap().0, SimTime::from_micros(11));
        assert_eq!(s.pop().unwrap().0, SimTime::from_micros(15));
        assert_eq!(s.events_fired(), 3);
    }

    #[test]
    fn dispatches_are_journaled_when_traced() {
        use mg_trace::{EventKind, TraceConfig, Tracer};
        let tracer = Tracer::new(TraceConfig::verbose());
        let mut s: Scheduler<u8> = Scheduler::new();
        s.set_tracer(tracer.clone());
        let h = s.schedule_at(SimTime::from_micros(5), 1);
        s.schedule_at(SimTime::from_micros(9), 2);
        // Dead entries must not be journaled.
        while s.pop_until(SimTime::MAX, |e, _| e != h).is_some() {}
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t_ns, 9_000);
        assert_eq!(events[0].kind, EventKind::SchedDispatch { seq: 1 });
    }

    #[test]
    fn optional_handles_take_eight_bytes() {
        assert_eq!(std::mem::size_of::<Option<EventHandle>>(), 8);
    }

    #[test]
    fn entry_due_after_until_stays_queued() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let h = s.schedule_in(SimDuration::from_micros(5), 1);
        s.schedule_in(SimDuration::from_micros(9), 2);
        let live = |e, _: &u8| e != h;
        // The dead entry at 5 µs is dropped although it is due after
        // `until`; the live one at 9 µs stays, and the clock does not move.
        assert!(s.pop_until(SimTime::from_micros(3), live).is_none());
        assert_eq!(s.len(), 1);
        assert_eq!(s.now(), SimTime::ZERO);
        assert!(s.pop_until(SimTime::from_micros(8), live).is_none());
        let popped = s.pop_until(SimTime::from_micros(9), live);
        assert_eq!(popped.map(|(_, e)| e), Some(2));
        assert!(s.pop_until(SimTime::MAX, live).is_none());
        assert_eq!(s.events_fired(), 1);
    }
}
