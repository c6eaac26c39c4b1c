//! The event queue at the heart of the simulator.
//!
//! Events are arbitrary payloads `E` scheduled for a [`SimTime`]. Two events
//! scheduled for the same instant pop in the order they were scheduled
//! (strict FIFO), which — together with seeded RNG streams — makes every
//! simulation run fully deterministic.
//!
//! Cancellation is *lazy*: [`Scheduler::cancel`] marks the handle dead in
//! O(log n) amortized time and the entry is discarded when it reaches the top
//! of the heap. This matches the access pattern of MAC timers, which are
//! re-armed and cancelled constantly.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use mg_trace::{EventKind, Tracer};

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled before it fires.
///
/// Handles are unique for the lifetime of a [`Scheduler`] and are invalidated
/// once the event fires or is cancelled; cancelling a stale handle is a
/// harmless no-op.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventHandle(u64);

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
/// use mg_sim::{Scheduler, SimDuration};
///
/// let mut s: Scheduler<u32> = Scheduler::new();
/// let h = s.schedule_in(SimDuration::from_micros(50), 1);
/// s.schedule_in(SimDuration::from_micros(50), 2); // same instant: FIFO
/// s.cancel(h);
/// assert_eq!(s.pop().map(|(_, e)| e), Some(2));
/// assert!(s.pop().is_none());
/// ```
pub struct Scheduler<E> {
    now: SimTime,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    cancelled: HashSet<u64>,
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
            cancelled: HashSet::new(),
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

    /// Number of events currently pending (including lazily-cancelled ones).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    ///
    /// Note that lazily-cancelled events still count until they surface, so
    /// `is_empty` may briefly report `false` for a queue that will deliver
    /// nothing; [`Scheduler::pop`] is the authoritative check.
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
        EventHandle(seq)
    }

    /// Schedules `payload` to fire `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, payload: E) -> EventHandle {
        self.schedule_at(self.now + after, payload)
    }

    /// Cancels a pending event. Cancelling an event that already fired (or
    /// was already cancelled) is a no-op.
    pub fn cancel(&mut self, handle: EventHandle) {
        self.cancelled.insert(handle.0);
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue has drained (cancelled entries are
    /// skipped transparently).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.time >= self.now, "event queue went backwards");
            self.now = entry.time;
            self.popped += 1;
            self.tracer
                .emit(entry.time.as_nanos(), None, EventKind::SchedDispatch { seq: entry.seq });
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// The timestamp of the next live event without popping it, or `None`
    /// if the queue is (effectively) empty.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
                continue;
            }
            return Some(entry.time);
        }
        None
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
    fn cancel_suppresses_delivery() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let h = s.schedule_in(SimDuration::from_micros(10), "dead");
        s.schedule_in(SimDuration::from_micros(20), "alive");
        s.cancel(h);
        assert_eq!(s.pop().map(|(_, e)| e), Some("alive"));
        assert!(s.pop().is_none());
    }

    #[test]
    fn cancel_stale_handle_is_noop() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let h = s.schedule_in(SimDuration::from_micros(1), 7);
        assert_eq!(s.pop().map(|(_, e)| e), Some(7));
        s.cancel(h); // already fired
        s.schedule_in(SimDuration::from_micros(1), 8);
        assert_eq!(s.pop().map(|(_, e)| e), Some(8));
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
        s.cancel(h); // cancelled entries must not be journaled
        while s.pop().is_some() {}
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t_ns, 9_000);
        assert_eq!(events[0].kind, EventKind::SchedDispatch { seq: 1 });
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let h = s.schedule_in(SimDuration::from_micros(5), 1);
        s.schedule_in(SimDuration::from_micros(9), 2);
        s.cancel(h);
        assert_eq!(s.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(s.pop().map(|(_, e)| e), Some(2));
        assert_eq!(s.peek_time(), None);
    }
}
