//! The event queue at the heart of the simulator.
//!
//! Events are arbitrary payloads `E` scheduled for a [`SimTime`]. Two events
//! scheduled for the same instant pop in the order they were scheduled
//! (strict FIFO), which — together with seeded RNG streams — makes every
//! simulation run fully deterministic.
//!
//! The queue is a calendar (R. Brown, "Calendar Queues", CACM 31(10),
//! 1988): an entry due within `BUCKETS` buckets of 2^`SHIFT` ns from
//! the clock's bucket joins that bucket's list, kept ascending by
//! `(time, seq)`, and a later one waits in a binary heap. DCF timers are
//! short fixed delays, so nearly every entry lands in a bucket, where
//! scheduling and popping take O(1).
//!
//! The queue keeps no cancellation state: the caller keeps each timer's
//! newest [`EventHandle`] and hands [`Scheduler::pop_until`] a predicate
//! that rejects stale ones, which are dropped when they reach the front of
//! the queue. Handles are never reused, so a dead entry stays dead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;

use mg_trace::{EventKind, Tracer};

use crate::time::{SimDuration, SimTime};

/// A bucket spans 2^`SHIFT` ns of virtual time.
const SHIFT: u32 = 12;
/// Buckets in the ring, a power of two: absolute bucket `b` lives in ring
/// slot `b % BUCKETS`, and the ring covers `BUCKETS << SHIFT` ns (16.8 ms)
/// from the clock's bucket on.
const BUCKETS: usize = 4096;
/// Occupancy words, one bit per bucket.
const WORDS: usize = BUCKETS / 64;
/// The end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// Identifies a scheduled event, so that a [`Scheduler::pop_until`]
/// predicate can tell a timer's newest entry from the ones it replaced.
///
/// Handles are unique for the lifetime of a [`Scheduler`]. A handle holds
/// its event's sequence number plus one, so an `Option<EventHandle>` takes
/// 8 bytes — per-node timer tables stay compact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventHandle(NonZeroU64);

impl EventHandle {
    fn of(seq: u64) -> Self {
        EventHandle(NonZeroU64::MIN.saturating_add(seq))
    }
}

/// An entry of the far heap.
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

/// A slab slot: a bucket entry linked to the next one of its bucket, or a
/// free slot (`payload` taken) linked to the next free one.
struct Node<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    payload: Option<E>,
}

/// The first and last slab slot of a bucket's list, meaningful only while
/// the bucket's occupancy bit is set.
#[derive(Clone, Copy, Default)]
struct Ends {
    head: u32,
    tail: u32,
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
    /// Bucket entries and free slots; the free list starts at `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Each ring slot's list, ascending by `(time, seq)`. Every bucket
    /// entry is due in `[bucket(now), bucket(now) + BUCKETS)`, so a slot
    /// holds one absolute bucket.
    ends: Box<[Ends]>,
    /// Bit `b % 64` of word `b / 64` is set while ring slot `b` is not
    /// empty.
    occupied: [u64; WORDS],
    /// Entries in buckets.
    near: usize,
    /// Entries due beyond the ring when they were scheduled.
    far: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    popped: u64,
    tracer: Tracer,
}

/// The absolute bucket `t` falls in.
fn bucket(t: SimTime) -> u64 {
    t.as_nanos() >> SHIFT
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            nodes: Vec::new(),
            free: NIL,
            ends: vec![Ends::default(); BUCKETS].into_boxed_slice(),
            occupied: [0; WORDS],
            near: 0,
            far: BinaryHeap::new(),
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
        self.near + self.far.len()
    }

    /// True when no entries are queued.
    ///
    /// Dead entries count until they surface, so `is_empty` may report
    /// `false` for a queue that will deliver nothing;
    /// [`Scheduler::pop_until`] is the authoritative check.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        if bucket(at) - bucket(self.now) < BUCKETS as u64 {
            self.insert_near(at, seq, payload);
        } else {
            self.far.push(Reverse(Entry {
                time: at,
                seq,
                payload,
            }));
        }
        EventHandle::of(seq)
    }

    /// Schedules `payload` to fire `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, payload: E) -> EventHandle {
        self.schedule_at(self.now + after, payload)
    }

    /// Pops the next entry `live` accepts if it is due at or before `until`,
    /// advancing the clock to its timestamp.
    ///
    /// Every entry `live` rejects is dropped as soon as it reaches the front
    /// of the queue, whatever its time: it moves no clock, is not counted in
    /// [`Scheduler::events_fired`] and is not journaled. Returns `None` when
    /// the queue holds no live entry due by `until`; a live entry due later
    /// stays queued.
    pub fn pop_until(
        &mut self,
        until: SimTime,
        mut live: impl FnMut(EventHandle, &E) -> bool,
    ) -> Option<(SimTime, E)> {
        loop {
            let near = self
                .first_occupied()
                .map(|b| (b, &self.nodes[self.ends[b].head as usize]));
            let far = self.far.peek().map(|Reverse(top)| top);
            // The front: the earlier of the first bucket's head and the heap
            // top, and the ring slot it leaves from if it is the head.
            let (time, seq, payload, slot) = match (near, far) {
                (Some((_, n)), Some(f)) if (f.time, f.seq) < (n.time, n.seq) => {
                    (f.time, f.seq, &f.payload, None)
                }
                (Some((b, n)), _) => {
                    let payload = n.payload.as_ref().expect("a queued node holds its payload");
                    (n.time, n.seq, payload, Some(b))
                }
                (None, Some(f)) => (f.time, f.seq, &f.payload, None),
                (None, None) => return None,
            };
            let accepted = live(EventHandle::of(seq), payload);
            if accepted && time > until {
                return None;
            }
            let payload = match slot {
                Some(b) => self.unlink_head(b),
                None => self.far.pop().expect("the heap top exists").0.payload,
            };
            if accepted {
                debug_assert!(time >= self.now, "event queue went backwards");
                self.now = time;
                self.popped += 1;
                self.tracer
                    .emit(time.as_nanos(), None, EventKind::SchedDispatch { seq });
                return Some((time, payload));
            }
        }
    }

    /// [`Scheduler::pop_until`] for a queue whose every entry is live:
    /// `None` once it has drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX, |_, _| true)
    }

    /// Links a new entry into its bucket's list. It carries the largest
    /// `seq` yet, so it goes after every entry due at or before `at`: at
    /// the tail unless the tail is due later, and only then by a walk from
    /// the head.
    fn insert_near(&mut self, at: SimTime, seq: u64, payload: E) {
        let node = Node {
            time: at,
            seq,
            next: NIL,
            payload: Some(payload),
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.nodes.len()).expect("fewer than 2^32 - 1 bucket entries");
            self.nodes.push(node);
            i
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        self.near += 1;
        let b = bucket(at) as usize % BUCKETS;
        let (word, bit) = (b / 64, 1u64 << (b % 64));
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            self.ends[b] = Ends { head: i, tail: i };
            return;
        }
        let Ends { head, tail } = self.ends[b];
        if self.nodes[tail as usize].time <= at {
            self.nodes[tail as usize].next = i;
            self.ends[b].tail = i;
        } else if self.nodes[head as usize].time > at {
            self.nodes[i as usize].next = head;
            self.ends[b].head = i;
        } else {
            // The tail is due later, so the walk stops before it.
            let mut prev = head;
            loop {
                let next = self.nodes[prev as usize].next;
                if self.nodes[next as usize].time > at {
                    break;
                }
                prev = next;
            }
            self.nodes[i as usize].next = self.nodes[prev as usize].next;
            self.nodes[prev as usize].next = i;
        }
    }

    /// The ring slot holding the earliest bucket entry: the first occupied
    /// slot at or after the clock's, wrapping round the ring.
    fn first_occupied(&self) -> Option<usize> {
        if self.near == 0 {
            return None;
        }
        let start = bucket(self.now) as usize % BUCKETS;
        let w0 = start / 64;
        let word = self.occupied[w0] & (!0u64 << (start % 64));
        if word != 0 {
            return Some(w0 * 64 + word.trailing_zeros() as usize);
        }
        // The last probe is word `w0` again: its bits below `start` are the
        // ring's latest buckets, one revolution ahead of the clock's slot.
        (1..=WORDS).map(|k| (w0 + k) % WORDS).find_map(|w| {
            let word = self.occupied[w];
            (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
        })
    }

    /// Unlinks ring slot `b`'s head and frees its slab slot.
    fn unlink_head(&mut self, b: usize) -> E {
        let i = self.ends[b].head;
        let node = &mut self.nodes[i as usize];
        let payload = node
            .payload
            .take()
            .expect("a queued node holds its payload");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = i;
        self.near -= 1;
        if next == NIL {
            self.occupied[b / 64] &= !(1u64 << (b % 64));
        } else {
            self.ends[b].head = next;
        }
        payload
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
            .field("pending", &self.len())
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

    /// The span the ring covers from the clock's bucket on.
    const HORIZON_NS: u64 = (BUCKETS as u64) << SHIFT;

    #[test]
    fn an_instant_queued_far_then_near_pops_in_seq_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let at = SimTime::from_nanos(2 * HORIZON_NS + 123);
        s.schedule_at(at, 0); // beyond the horizon: the heap
        s.schedule_at(SimTime::from_nanos(2 * HORIZON_NS - 5_000), 9);
        assert_eq!(s.pop().map(|(_, e)| e), Some(9)); // the clock nears `at`
        s.schedule_at(at, 1); // within the horizon now: a bucket
        s.schedule_at(at, 2);
        let (far_at, far) = (SimTime::from_nanos(at.as_nanos() + HORIZON_NS), 3);
        s.schedule_at(far_at, far);
        let order: Vec<(SimTime, u32)> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(order, vec![(at, 0), (at, 1), (at, 2), (far_at, far)]);
    }

    #[test]
    fn a_thousand_entry_burst_at_one_instant_pops_fifo() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let at = (1 << SHIFT) * 3 + 7;
        for i in 1..=1_000 {
            s.schedule_at(SimTime::from_nanos(at), i);
        }
        // After the burst, the bucket takes a new tail, an entry the list
        // is walked for, a new head, and one more at the burst's instant.
        for (dt, i) in [(10, 1_001), (5, 1_002), (-1, 1_003), (0, 1_004)] {
            s.schedule_at(SimTime::from_nanos(at.saturating_add_signed(dt)), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        let expected: Vec<u32> = std::iter::once(1_003)
            .chain(1..=1_000)
            .chain([1_004, 1_002, 1_001])
            .collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn len_counts_bucket_and_heap_entries() {
        let mut s: Scheduler<u8> = Scheduler::new();
        assert!(s.is_empty());
        s.schedule_at(SimTime::from_micros(5), 0);
        s.schedule_at(SimTime::from_micros(5), 1);
        s.schedule_at(SimTime::from_nanos(3 * HORIZON_NS), 2);
        assert_eq!((s.near, s.far.len(), s.len()), (2, 1, 3));
        assert!(!s.is_empty());
        s.pop();
        assert_eq!(s.len(), 2);
        s.pop();
        s.pop();
        assert!(s.is_empty());
        assert!(format!("{s:?}").contains("pending: 0, fired: 3"));
    }

    #[test]
    fn stale_bucket_head_is_dropped_silently() {
        use mg_trace::{TraceConfig, Tracer};
        let tracer = Tracer::new(TraceConfig::verbose());
        let mut s: Scheduler<u8> = Scheduler::new();
        s.set_tracer(tracer.clone());
        let dead = s.schedule_at(SimTime::from_micros(5), 1);
        s.schedule_at(SimTime::from_micros(5), 2);
        s.schedule_at(SimTime::from_nanos(2 * HORIZON_NS), 3);
        let live = |e, _: &u8| e != dead;
        // The dead head is dropped although it is due after `until`.
        assert!(s.pop_until(SimTime::from_micros(4), live).is_none());
        assert_eq!((s.len(), s.now(), s.events_fired()), (2, SimTime::ZERO, 0));
        assert!(tracer.is_empty());
        assert_eq!(s.pop_until(SimTime::MAX, live).map(|(_, e)| e), Some(2));
        assert_eq!(tracer.len(), 1);
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
