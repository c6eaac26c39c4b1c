//! Channel-occupancy tracking from busy/idle edges.
//!
//! The medium reports *edges* (state changes); these trackers integrate them
//! into durations, slot counts and the joint statistics the paper's Figures
//! 3–4 are built from.

use mg_sim::{SimDuration, SimTime};

/// Integrates one node's carrier-sense timeline.
///
/// Feed it every busy/idle edge for the node (and, optionally, the node's
/// own transmissions, which the node perceives as occupied air even though
/// its receiver is off).
#[derive(Clone, Debug)]
pub struct ChannelTracker {
    busy: bool,
    /// The node's own transmission occupies the channel until this instant.
    own_until: SimTime,
    last: SimTime,
    busy_ns: u64,
    idle_ns: u64,
    busy_runs: u64,
}

impl ChannelTracker {
    /// A tracker starting idle at `t = 0`.
    pub fn new() -> Self {
        ChannelTracker {
            busy: false,
            own_until: SimTime::ZERO,
            last: SimTime::ZERO,
            busy_ns: 0,
            idle_ns: 0,
            busy_runs: 0,
        }
    }

    /// Integrates up to `now` under the current state.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last {
            return;
        }
        // Split the segment at the own-tx boundary if it falls inside.
        if self.last < self.own_until && self.own_until < now {
            let own_part = (self.own_until - self.last).as_nanos();
            self.busy_ns += own_part;
            self.last = self.own_until;
        }
        let seg = (now - self.last).as_nanos();
        if self.busy || now <= self.own_until {
            self.busy_ns += seg;
        } else {
            self.idle_ns += seg;
        }
        self.last = now;
    }

    /// Records a carrier-sense edge at `now`.
    pub fn on_edge(&mut self, busy: bool, now: SimTime) {
        // A busy→idle transition only counts as a completed busy run if the
        // busy period actually overlapped this tracker's accumulation span
        // (windows fork mid-stream; a run that ended at or before the fork
        // belongs to the previous window).
        let overlapped = now > self.last;
        self.advance(now);
        if self.busy && !busy && overlapped {
            self.busy_runs += 1;
        }
        self.busy = busy;
    }

    /// Records that the node transmits over `[start, end]`.
    pub fn on_own_tx(&mut self, start: SimTime, end: SimTime) {
        self.advance(start);
        if end > self.own_until {
            self.own_until = end;
        }
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.busy_ns)
    }

    /// Total idle time accumulated.
    pub fn idle_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.idle_ns)
    }

    /// Number of completed busy periods (busy→idle transitions) — a proxy
    /// for how many times a neighbor froze and re-deferred (each resume
    /// costs it one DIFS of idle that is not a back-off decrement).
    pub fn busy_runs(&self) -> u64 {
        self.busy_runs
    }

    /// Busy fraction ∈ [0, 1] — the paper's measured traffic intensity
    /// ρ = B/N.
    pub fn rho(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }

    /// Resets the accumulated durations (state and clock are kept) — used
    /// when a measurement window closes.
    pub fn reset_counts(&mut self) {
        self.busy_ns = 0;
        self.idle_ns = 0;
        self.busy_runs = 0;
    }

    /// A fresh tracker that inherits this one's *state* (busy flag, own-tx
    /// deadline) but starts accumulating at `t` — the primitive behind the
    /// monitor's per-back-off measurement windows. `t` must not precede this
    /// tracker's integration point.
    pub fn fork_at(&self, t: SimTime) -> ChannelTracker {
        ChannelTracker {
            busy: self.busy,
            own_until: self.own_until,
            last: t.max(self.last),
            busy_ns: 0,
            idle_ns: 0,
            busy_runs: 0,
        }
    }
}

impl Default for ChannelTracker {
    fn default() -> Self {
        Self::new()
    }
}

/// Joint carrier-sense statistics for a (sender, monitor) pair — the ground
/// truth for the paper's conditional probabilities in Figures 3–4.
///
/// Periods in which either node is itself transmitting are excluded: a
/// transmitting node is not *sensing*, and the paper's quantities condition
/// on both nodes listening.
#[derive(Clone, Debug)]
pub struct JointTracker {
    s_busy: bool,
    r_busy: bool,
    s_tx_until: SimTime,
    r_tx_until: SimTime,
    last: SimTime,
    /// Durations (ns) indexed by [s_busy][r_busy].
    t: [[u64; 2]; 2],
}

impl JointTracker {
    /// A tracker with both nodes idle at `t = 0`.
    pub fn new() -> Self {
        JointTracker {
            s_busy: false,
            r_busy: false,
            s_tx_until: SimTime::ZERO,
            r_tx_until: SimTime::ZERO,
            last: SimTime::ZERO,
            t: [[0; 2]; 2],
        }
    }

    fn integrate(&mut self, now: SimTime) {
        if now <= self.last {
            return;
        }
        // Split at tx-end boundaries that fall inside the segment, so the
        // exclusion window is exact.
        let mut cuts = [self.s_tx_until, self.r_tx_until];
        cuts.sort();
        for cut in cuts {
            if self.last < cut && cut < now {
                self.account(self.last, cut);
                self.last = cut;
            }
        }
        self.account(self.last, now);
        self.last = now;
    }

    fn account(&mut self, from: SimTime, to: SimTime) {
        if from >= to {
            return;
        }
        // Exclude sub-segments where either node transmits. Segment bounds
        // are already split at tx ends, so a simple midpoint test suffices.
        if from < self.s_tx_until || from < self.r_tx_until {
            return;
        }
        let ns = (to - from).as_nanos();
        self.t[usize::from(self.s_busy)][usize::from(self.r_busy)] += ns;
    }

    /// Records a carrier-sense edge for the sender.
    pub fn on_s_edge(&mut self, busy: bool, now: SimTime) {
        self.integrate(now);
        self.s_busy = busy;
    }

    /// Records a carrier-sense edge for the monitor.
    pub fn on_r_edge(&mut self, busy: bool, now: SimTime) {
        self.integrate(now);
        self.r_busy = busy;
    }

    /// Records that the sender transmits over `[start, end]`.
    pub fn on_s_tx(&mut self, start: SimTime, end: SimTime) {
        self.integrate(start);
        self.s_tx_until = self.s_tx_until.max(end);
    }

    /// Records that the monitor transmits over `[start, end]`.
    pub fn on_r_tx(&mut self, start: SimTime, end: SimTime) {
        self.integrate(start);
        self.r_tx_until = self.r_tx_until.max(end);
    }

    /// Flushes the timeline up to `now` (call before reading probabilities).
    pub fn finish(&mut self, now: SimTime) {
        self.integrate(now);
    }

    /// Empirical `P(S busy | R idle)` — what Fig. 3(a)/4(a) plot from
    /// simulation.
    pub fn p_busy_given_idle(&self) -> f64 {
        ratio(self.t[1][0], self.t[1][0] + self.t[0][0])
    }

    /// Empirical `P(S idle | R busy)` — what Fig. 3(b)/4(b) plot.
    pub fn p_idle_given_busy(&self) -> f64 {
        ratio(self.t[0][1], self.t[0][1] + self.t[1][1])
    }

    /// The monitor-side traffic intensity over the joint-listening time.
    pub fn r_rho(&self) -> f64 {
        let busy = self.t[0][1] + self.t[1][1];
        let idle = self.t[0][0] + self.t[1][0];
        ratio(busy, busy + idle)
    }

    /// Total time both nodes were listening.
    pub fn observed(&self) -> SimDuration {
        SimDuration::from_nanos(self.t.iter().flatten().sum())
    }
}

impl Default for JointTracker {
    fn default() -> Self {
        Self::new()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    #[test]
    fn tracker_integrates_edges() {
        let mut c = ChannelTracker::new();
        c.on_edge(true, us(100)); // idle 0..100
        c.on_edge(false, us(350)); // busy 100..350
        c.advance(us(500)); // idle 350..500
        assert_eq!(c.idle_time(), SimDuration::from_micros(250));
        assert_eq!(c.busy_time(), SimDuration::from_micros(250));
        assert!((c.rho() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn own_tx_counts_as_busy_and_splits_segments() {
        let mut c = ChannelTracker::new();
        c.on_own_tx(us(100), us(200));
        // Integrate far past the tx end: 0..100 idle, 100..200 own (busy),
        // 200..400 idle.
        c.advance(us(400));
        assert_eq!(c.busy_time(), SimDuration::from_micros(100));
        assert_eq!(c.idle_time(), SimDuration::from_micros(300));
    }

    #[test]
    fn reset_counts_keeps_state() {
        let mut c = ChannelTracker::new();
        c.on_edge(true, us(10));
        c.advance(us(20));
        c.reset_counts();
        assert_eq!(c.busy_time(), SimDuration::ZERO);
        c.advance(us(30));
        assert_eq!(c.busy_time(), SimDuration::from_micros(10));
    }

    #[test]
    fn joint_conditionals() {
        let mut j = JointTracker::new();
        // 0..100: both idle. 100..200: S busy, R idle. 200..300: both busy.
        // 300..400: S idle, R busy.
        j.on_s_edge(true, us(100));
        j.on_r_edge(true, us(200));
        j.on_s_edge(false, us(300));
        j.on_r_edge(false, us(400));
        j.finish(us(400));
        // P(S busy | R idle) = 100 / (100 + 100) = 0.5
        assert!((j.p_busy_given_idle() - 0.5).abs() < 1e-12);
        // P(S idle | R busy) = 100 / (100 + 100) = 0.5
        assert!((j.p_idle_given_busy() - 0.5).abs() < 1e-12);
        assert_eq!(j.observed(), SimDuration::from_micros(400));
    }

    #[test]
    fn joint_excludes_tx_periods() {
        let mut j = JointTracker::new();
        j.on_s_tx(us(100), us(200));
        j.finish(us(300));
        // Only 0..100 and 200..300 count.
        assert_eq!(j.observed(), SimDuration::from_micros(200));
    }

    #[test]
    fn joint_handles_empty() {
        let j = JointTracker::new();
        assert_eq!(j.p_busy_given_idle(), 0.0);
        assert_eq!(j.p_idle_given_busy(), 0.0);
    }
}
