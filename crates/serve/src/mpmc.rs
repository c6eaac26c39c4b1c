//! A bounded multi-producer multi-consumer channel with explicit
//! back-pressure — the only queue the serving layer uses.
//!
//! The daemon gives each worker its own queue, so no two workers share
//! one: every daemon queue has exactly one consumer. The semantics the
//! daemon relies on are also those of `std::sync::mpsc::sync_channel`,
//! whose `send` blocks while the queue is full and whose
//! `SyncSender::try_send` hands the value back in `TrySendError::Full`.
//! What this channel adds — cloneable receivers and the consumer-side
//! [`Receiver::close`] — only this crate's tests use. It is built on
//! [`Mutex`]`<`[`VecDeque`]`>` plus two [`Condvar`]s, the textbook
//! construction.
//!
//! Semantics:
//!
//! * [`Sender::send`] **blocks** while the queue is at capacity
//!   (back-pressure propagates to the producer — the *Block* policy);
//! * [`Sender::try_send`] never blocks and hands the value back in
//!   [`TrySendError::Full`] so the producer can shed it and account the
//!   drop (the *Shed* policy);
//! * [`Receiver::recv`] blocks until a value or disconnection: once every
//!   sender is gone **and** the queue is empty it returns `None`, so a
//!   worker naturally drains the queue before exiting;
//! * [`Receiver::close`] poisons the channel from the consumer side:
//!   producers get [`SendError`] immediately, pending values stay readable;
//! * dropping the last [`Receiver`] (a worker that exits or panics) drops
//!   every queued value with it, so whatever a value owns — a reply
//!   channel a producer waits on — is released rather than kept alive by
//!   the senders.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// The channel refused a value because every receiver closed the channel.
/// The unsent value is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// [`Sender::try_send`] failure: the value is handed back either way.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity right now — shed or retry.
    Full(T),
    /// The channel is closed; no retry can ever succeed.
    Closed(T),
}

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    cap: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Producer half of a [`bounded`] channel. Clone freely.
pub struct Sender<T>(Arc<Shared<T>>);

/// Consumer half of a [`bounded`] channel. Clone freely.
pub struct Receiver<T>(Arc<Shared<T>>);

/// Creates a bounded channel holding at most `cap` values (`cap` ≥ 1 is
/// enforced by clamping).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        cap: cap.max(1),
        state: Mutex::new(State {
            queue: VecDeque::new(),
            closed: false,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(shared.clone()), Receiver(shared))
}

impl<T> Sender<T> {
    /// Blocking send: waits for queue space (the *Block* back-pressure
    /// policy). Fails only when the channel is closed or every receiver is
    /// gone, handing the value back.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.0.state.lock().expect("mpmc lock");
        loop {
            if st.closed || st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.queue.len() < self.0.cap {
                st.queue.push_back(value);
                drop(st);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            st = self.0.not_full.wait(st).expect("mpmc lock");
        }
    }

    /// Non-blocking send: a full queue returns [`TrySendError::Full`] with
    /// the value, letting the producer shed it (and account the drop).
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.0.state.lock().expect("mpmc lock");
        if st.closed || st.receivers == 0 {
            return Err(TrySendError::Closed(value));
        }
        if st.queue.len() >= self.0.cap {
            return Err(TrySendError::Full(value));
        }
        st.queue.push_back(value);
        drop(st);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Values currently queued (racy by nature; for metrics only).
    pub fn len(&self) -> usize {
        self.0.state.lock().expect("mpmc lock").queue.len()
    }

    /// Whether the queue is empty right now (racy; for metrics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().expect("mpmc lock").senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().expect("mpmc lock");
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            // Wake every parked consumer so it can observe disconnection.
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocking receive. `None` means *drained and disconnected*: the
    /// channel is closed (or every sender dropped) and the queue is empty —
    /// the worker-exit condition.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.0.state.lock().expect("mpmc lock");
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.0.not_full.notify_one();
                return Some(v);
            }
            if st.closed || st.senders == 0 {
                return None;
            }
            st = self.0.not_empty.wait(st).expect("mpmc lock");
        }
    }

    /// Closes the channel from the consumer side: producers fail fast,
    /// already-queued values remain receivable.
    pub fn close(&self) {
        let mut st = self.0.state.lock().expect("mpmc lock");
        st.closed = true;
        drop(st);
        self.0.not_empty.notify_all();
        self.0.not_full.notify_all();
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().expect("mpmc lock").receivers += 1;
        Receiver(self.0.clone())
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().expect("mpmc lock");
        st.receivers -= 1;
        if st.receivers == 0 {
            // No one can receive the queued values any more; they are
            // dropped after the lock is released, as their drops may run
            // arbitrary code.
            let orphans = std::mem::take(&mut st.queue);
            drop(st);
            // Producers blocked in send() must observe disconnection.
            self.0.not_full.notify_all();
            drop(orphans);
        }
    }
}
