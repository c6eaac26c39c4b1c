//! # mg-fault — deterministic fault injection
//!
//! The detector in this workspace is supposed to survive exactly the
//! conditions a clean simulator never exercises: monitors that miss RTS
//! commitments, collisions that corrupt observed offsets, and partially
//! observable periods. This crate provides a **seeded, fully deterministic
//! fault model** for exercising those conditions on demand:
//!
//! * [`FaultPlan`] — one plain-data plan covering four layers:
//!   * **phy/channel** ([`PhyFaults`]): per-frame observation loss, burst
//!     loss via a two-state Gilbert–Elliott chain ([`BurstLoss`]), and
//!     periodic monitor deafness windows ([`DeafWindows`]).
//!   * **mac/frame** ([`MacFaults`]): tagged-RTS commitment drops and
//!     bit-flips, so deterministic checks see garbage instead of clean
//!     violations.
//!   * **runner** ([`RunnerFaults`]): worker panics, keyed by task index.
//!   * **quorum** ([`QuorumFaults`]): adversarial (Byzantine) monitors for
//!     the collaborative-detection layer — vantages seeded into the
//!     [`MonitorRole::FalseAccuser`], [`MonitorRole::Mute`] or
//!     [`MonitorRole::Flip`] roles, so a gossip round tolerating `f` liars
//!     can be replayed byte-identically from the plan seed alone.
//! * [`ObsFaults`] — a per-monitor injector derived from the plan and the
//!   monitor's vantage node. Every draw comes from a private
//!   `xoshiro256**` stream seeded by `(plan.seed, vantage)`, so a monitor
//!   makes identical fault decisions whether it runs alone or fanned out
//!   beside others in the same world: equal seeds produce byte-identical
//!   journals, and fan-out equivalence survives injection.
//!
//! Faults apply at the **observer boundary** — what a monitor *perceives* —
//! never to the world itself, so the simulated medium evolves identically
//! with and without a plan attached. Deafness is a pure function of virtual
//! time (no RNG draw), which keeps monitors with different plans aligned on
//! the frames they both observe.
//!
//! Plans parse from a compact profile string (`MG_FAULT_PROFILE` /
//! `detect --faults`): comma-separated tokens where a bare word is a preset
//! (`off`, `light`, `heavy`) and `key=value` overrides one knob. See
//! [`FaultPlan::parse`].

#![warn(missing_docs)]

use mg_sim::rng::{Rng, SplitMix64, Xoshiro256};

/// Gilbert–Elliott two-state burst-loss chain.
///
/// The chain toggles between a *good* and a *bad* state once per observed
/// frame; each state carries its own loss probability. When present it
/// replaces the flat [`PhyFaults::loss`] probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLoss {
    /// P(good → bad) per observed frame.
    pub p_enter_bad: f64,
    /// P(bad → good) per observed frame.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub good_loss: f64,
    /// Loss probability while in the bad state.
    pub bad_loss: f64,
}

/// Periodic monitor deafness windows on the virtual clock.
///
/// The monitor hears nothing during `[k·period + phase, k·period + phase +
/// deaf)` for every integer `k` — a pure function of virtual time, so it
/// consumes no randomness and never desynchronizes fault streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeafWindows {
    /// Window repetition period, virtual nanoseconds (0 disables).
    pub period_ns: u64,
    /// Deaf span at the start of each period, virtual nanoseconds.
    pub deaf_ns: u64,
    /// Phase offset of the first window, virtual nanoseconds.
    pub phase_ns: u64,
}

impl DeafWindows {
    /// True when the monitor is deaf at virtual time `t_ns`.
    pub fn is_deaf(&self, t_ns: u64) -> bool {
        self.period_ns > 0 && (t_ns.wrapping_add(self.phase_ns)) % self.period_ns < self.deaf_ns
    }
}

/// Channel-layer observation faults (what a monitor's radio fails to hear).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct PhyFaults {
    /// Flat per-frame loss probability (ignored when `burst` is set).
    pub loss: f64,
    /// Burst loss; replaces `loss` when present.
    pub burst: Option<BurstLoss>,
    /// Periodic deafness windows.
    pub deaf: Option<DeafWindows>,
}

impl PhyFaults {
    /// True when no channel-layer fault can ever fire.
    pub fn is_noop(&self) -> bool {
        self.loss <= 0.0
            && self.burst.is_none()
            && self.deaf.is_none_or(|d| d.period_ns == 0 || d.deaf_ns == 0)
    }
}

/// Frame-layer faults against the tagged node's RTS commitments.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct MacFaults {
    /// Probability a tagged RTS (that survived the channel) is still missed.
    pub rts_drop: f64,
    /// Probability a tagged RTS arrives with bit-flipped commitment fields.
    pub rts_corrupt: f64,
}

impl MacFaults {
    /// True when no frame-layer fault can ever fire.
    pub fn is_noop(&self) -> bool {
        self.rts_drop <= 0.0 && self.rts_corrupt <= 0.0
    }
}

/// Sweep-engine faults, keyed by flat task index.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RunnerFaults {
    /// Task indices whose run closure panics.
    pub panic_tasks: Vec<usize>,
}

impl RunnerFaults {
    /// True when task `i` must panic.
    pub fn panics(&self, i: usize) -> bool {
        self.panic_tasks.contains(&i)
    }

    /// True when no runner-layer fault is configured.
    pub fn is_noop(&self) -> bool {
        self.panic_tasks.is_empty()
    }
}

/// Adversarial-monitor (Byzantine) fault modes for the collaborative
/// detection layer.
///
/// The three fields are *role probabilities*: each vantage independently
/// draws one role from its private `(plan seed, vantage)` stream — see
/// [`FaultPlan::monitor_role`] — so the realized set of Byzantine monitors
/// is a pure function of the plan, replayable byte-for-byte. Quorum faults
/// corrupt what a monitor *says*, never what it *observes*, so they do not
/// count as observation faults and do not trigger the confirmation-harden
/// path.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct QuorumFaults {
    /// Probability a vantage is a [`MonitorRole::FalseAccuser`].
    pub lie: f64,
    /// Probability a vantage is a [`MonitorRole::Mute`].
    pub mute: f64,
    /// Probability a vantage is a [`MonitorRole::Flip`].
    pub flip: f64,
}

impl QuorumFaults {
    /// True when every vantage is guaranteed honest.
    pub fn is_noop(&self) -> bool {
        self.lie <= 0.0 && self.mute <= 0.0 && self.flip <= 0.0
    }
}

/// The behavioral role of one monitor in a gossip quorum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorRole {
    /// Accuses exactly when its local detector produces evidence.
    Honest,
    /// Sends real evidence *and* fabricates accusations against the tagged
    /// node on a seeded cadence, independent of any evidence.
    FalseAccuser,
    /// Never sends an accusation (suppresses true evidence); still listens
    /// and tallies honestly.
    Mute,
    /// Both Byzantine failure modes at once: fabricates like a
    /// [`MonitorRole::FalseAccuser`] and suppresses real evidence like a
    /// [`MonitorRole::Mute`].
    Flip,
}

impl MonitorRole {
    /// True for the roles that fabricate accusations without evidence.
    pub fn lies(self) -> bool {
        matches!(self, MonitorRole::FalseAccuser | MonitorRole::Flip)
    }

    /// True for the roles that suppress real evidence.
    pub fn suppresses(self) -> bool {
        matches!(self, MonitorRole::Mute | MonitorRole::Flip)
    }

    /// Stable lowercase tag (transcripts, tables).
    pub fn tag(self) -> &'static str {
        match self {
            MonitorRole::Honest => "honest",
            MonitorRole::FalseAccuser => "false-accuser",
            MonitorRole::Mute => "mute",
            MonitorRole::Flip => "flip",
        }
    }
}

/// A complete, seeded fault plan across all four layers.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Root seed for every per-monitor fault stream.
    pub seed: u64,
    /// Channel-layer observation faults.
    pub phy: PhyFaults,
    /// Frame-layer commitment faults.
    pub mac: MacFaults,
    /// Sweep-engine faults.
    pub runner: RunnerFaults,
    /// Adversarial-monitor (Byzantine) faults for the quorum layer.
    pub quorum: QuorumFaults,
}

/// Domain constant separating quorum-role draws from observation-fault
/// draws ("mg-qrole" in ASCII): the same `(seed, vantage)` pair must yield
/// independent streams for the two layers.
const QUORUM_ROLE_DOMAIN: u64 = 0x6D67_2D71_726F_6C65;

impl FaultPlan {
    /// True when the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.phy.is_noop() && self.mac.is_noop() && self.runner.is_noop() && self.quorum.is_noop()
    }

    /// True when monitors would perceive faults (phy or mac layer active).
    /// Quorum faults deliberately do not count: a Byzantine monitor
    /// *observes* faithfully and lies afterwards, so the confirmation-harden
    /// path must not engage for them.
    pub fn has_observation_faults(&self) -> bool {
        !self.phy.is_noop() || !self.mac.is_noop()
    }

    /// The Byzantine role of the monitor at `vantage` under this plan: one
    /// uniform draw from a private stream seeded by `(plan seed, vantage)`
    /// compared against the cumulative [`QuorumFaults`] probabilities.
    /// Equal plans assign equal roles, whatever order vantages are queried
    /// in.
    pub fn monitor_role(&self, vantage: u64) -> MonitorRole {
        if self.quorum.is_noop() {
            return MonitorRole::Honest;
        }
        let mut rng = self.quorum_rng(vantage);
        let u = rng.uniform01();
        let q = self.quorum;
        if u < q.lie {
            MonitorRole::FalseAccuser
        } else if u < q.lie + q.mute {
            MonitorRole::Mute
        } else if u < q.lie + q.mute + q.flip {
            MonitorRole::Flip
        } else {
            MonitorRole::Honest
        }
    }

    /// The private quorum-layer RNG stream for `vantage` (role draw plus any
    /// per-member fabrication cadence). Distinct from the [`ObsFaults`]
    /// stream of the same vantage by domain separation.
    pub fn quorum_rng(&self, vantage: u64) -> Xoshiro256 {
        let seed = SplitMix64::mix(
            SplitMix64::mix(self.seed ^ QUORUM_ROLE_DOMAIN)
                ^ vantage.wrapping_mul(0xA24B_AED4_963E_E407),
        );
        Xoshiro256::new(seed)
    }

    /// Returns `self` with the root seed replaced.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// The per-monitor injector for a monitor at `vantage`, or `None` when
    /// the plan carries no observation faults.
    pub fn observer(&self, vantage: u64) -> Option<ObsFaults> {
        if !self.has_observation_faults() {
            return None;
        }
        Some(ObsFaults::new(self, vantage))
    }

    /// Parses a fault-profile string.
    ///
    /// Comma-separated tokens, applied left to right. A bare word selects a
    /// preset (`off`, `light`, `heavy`); `key=value` overrides one knob:
    ///
    /// | key | value | meaning |
    /// |-----|-------|---------|
    /// | `seed` | u64 | root stream seed |
    /// | `loss` | probability | flat per-frame observation loss |
    /// | `burst` | `pe:px:gl:bl` | Gilbert–Elliott enter/exit/good-loss/bad-loss |
    /// | `deaf` | `period:span[:phase]` (ms) | periodic deafness windows |
    /// | `drop` | probability | tagged-RTS drop |
    /// | `corrupt` | probability | tagged-RTS commitment bit-flips |
    /// | `panic` | `i[:j...]` | panicking task indices |
    /// | `lie` | probability | P(vantage is a false accuser) |
    /// | `mute` | probability | P(vantage suppresses accusations) |
    /// | `flip` | probability | P(vantage both lies and suppresses) |
    ///
    /// `FaultPlan::parse("light,seed=7,drop=0.2")` starts from the `light`
    /// preset and overrides two knobs. Malformed tokens are an error naming
    /// the offending token and the expected shape.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for raw in spec.split(',') {
            let token = raw.trim();
            if token.is_empty() {
                continue;
            }
            match token.split_once('=') {
                None => plan.apply_preset(token)?,
                Some((key, value)) => plan.apply_knob(key.trim(), value.trim(), token)?,
            }
        }
        Ok(plan)
    }

    fn apply_preset(&mut self, name: &str) -> Result<(), String> {
        match name {
            "off" | "none" => {
                let seed = self.seed;
                *self = FaultPlan { seed, ..FaultPlan::default() };
            }
            "light" => {
                self.phy.loss = 0.05;
                self.mac.rts_drop = 0.05;
            }
            "heavy" => {
                self.phy.loss = 0.10;
                self.phy.burst = Some(BurstLoss {
                    p_enter_bad: 0.05,
                    p_exit_bad: 0.40,
                    good_loss: 0.02,
                    bad_loss: 0.50,
                });
                self.phy.deaf = Some(DeafWindows {
                    period_ns: 250_000_000,
                    deaf_ns: 25_000_000,
                    phase_ns: 0,
                });
                self.mac.rts_drop = 0.15;
                self.mac.rts_corrupt = 0.05;
            }
            other => {
                return Err(format!(
                    "unknown fault preset {other:?}: expected \"off\", \"light\" or \"heavy\""
                ))
            }
        }
        Ok(())
    }

    fn apply_knob(&mut self, key: &str, value: &str, token: &str) -> Result<(), String> {
        match key {
            "seed" => self.seed = parse_u64(value, token)?,
            "loss" => self.phy.loss = parse_prob(value, token)?,
            "drop" => self.mac.rts_drop = parse_prob(value, token)?,
            "corrupt" => self.mac.rts_corrupt = parse_prob(value, token)?,
            "burst" => {
                let parts = parse_f64_list(value, token)?;
                if parts.len() != 4 {
                    return Err(format!(
                        "invalid fault token {token:?}: expected burst=pe:px:gl:bl (four probabilities)"
                    ));
                }
                for &p in &parts {
                    check_prob(p, token)?;
                }
                self.phy.burst = Some(BurstLoss {
                    p_enter_bad: parts[0],
                    p_exit_bad: parts[1],
                    good_loss: parts[2],
                    bad_loss: parts[3],
                });
            }
            "deaf" => {
                let parts = parse_u64_list(value, token)?;
                if parts.len() != 2 && parts.len() != 3 {
                    return Err(format!(
                        "invalid fault token {token:?}: expected deaf=period:span[:phase] in milliseconds"
                    ));
                }
                self.phy.deaf = Some(DeafWindows {
                    period_ns: parts[0] * 1_000_000,
                    deaf_ns: parts[1] * 1_000_000,
                    phase_ns: parts.get(2).copied().unwrap_or(0) * 1_000_000,
                });
            }
            "panic" => self.runner.panic_tasks = parse_usize_list(value, token)?,
            "lie" => self.quorum.lie = parse_prob(value, token)?,
            "mute" => self.quorum.mute = parse_prob(value, token)?,
            "flip" => self.quorum.flip = parse_prob(value, token)?,
            other => {
                return Err(format!(
                    "unknown fault knob {other:?} in token {token:?}: expected one of \
                     seed/loss/burst/deaf/drop/corrupt/panic/lie/mute/flip"
                ))
            }
        }
        Ok(())
    }
}

fn parse_u64(value: &str, token: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("invalid fault token {token:?}: expected an unsigned integer"))
}

fn parse_prob(value: &str, token: &str) -> Result<f64, String> {
    let p = value
        .parse::<f64>()
        .map_err(|_| format!("invalid fault token {token:?}: expected a probability in [0, 1]"))?;
    check_prob(p, token)?;
    Ok(p)
}

fn check_prob(p: f64, token: &str) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("invalid fault token {token:?}: probability {p} is outside [0, 1]"))
    }
}

fn parse_f64_list(value: &str, token: &str) -> Result<Vec<f64>, String> {
    value
        .split(':')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("invalid fault token {token:?}: {s:?} is not a number"))
        })
        .collect()
}

fn parse_u64_list(value: &str, token: &str) -> Result<Vec<u64>, String> {
    value
        .split(':')
        .map(|s| {
            s.trim()
                .parse::<u64>()
                .map_err(|_| format!("invalid fault token {token:?}: {s:?} is not an unsigned integer"))
        })
        .collect()
}

fn parse_usize_list(value: &str, token: &str) -> Result<Vec<usize>, String> {
    parse_u64_list(value, token).map(|v| v.into_iter().map(|n| n as usize).collect())
}

/// Which commitment bits a corrupted tagged RTS arrives with flipped.
///
/// Exactly one of the three fields is nonzero per spec: the 13-bit sequence
/// offset, the 3-bit attempt counter, or one byte of the MD5 commitment.
/// Carrying raw XOR masks keeps this crate ignorant of frame layouts — the
/// MAC layer applies the mask to its own wire fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CorruptSpec {
    /// XOR mask over the 13-bit wire sequence offset.
    pub seq_xor: u16,
    /// XOR mask over the 3-bit attempt counter.
    pub attempt_xor: u8,
    /// Index of the MD5 commitment byte to flip.
    pub md_index: usize,
    /// XOR mask over that commitment byte.
    pub md_mask: u8,
}

impl CorruptSpec {
    /// Total number of bits this spec flips.
    pub fn bits_flipped(&self) -> u32 {
        self.seq_xor.count_ones() + self.attempt_xor.count_ones() + self.md_mask.count_ones()
    }
}

/// What happens to one observed frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFate {
    /// The monitor perceives the frame unchanged.
    Deliver,
    /// The monitor never hears the frame; the tag names the fault that ate it.
    Drop(&'static str),
    /// A tagged RTS arrives with the given commitment bits flipped.
    Corrupt(CorruptSpec),
}

/// A per-monitor fault injector: one private RNG stream per `(plan seed,
/// vantage)` pair, consulted once per frame the monitor would decode.
///
/// Decisions depend only on the plan, the vantage and the sequence of
/// observed frames — never on wall-clock time or other monitors — so a
/// monitor's fate sequence is identical across solo and fanned-out runs of
/// the same world.
#[derive(Clone, Debug)]
pub struct ObsFaults {
    phy: PhyFaults,
    mac: MacFaults,
    rng: Xoshiro256,
    in_bad: bool,
}

impl ObsFaults {
    /// An injector for a monitor at `vantage` under `plan`.
    pub fn new(plan: &FaultPlan, vantage: u64) -> ObsFaults {
        let seed = SplitMix64::mix(
            SplitMix64::mix(plan.seed ^ 0x6D67_2D66_6175_6C74) // "mg-fault"
                ^ vantage.wrapping_mul(0xA24B_AED4_963E_E407),
        );
        ObsFaults {
            phy: plan.phy,
            mac: plan.mac,
            rng: Xoshiro256::new(seed),
            in_bad: false,
        }
    }

    /// Decides the fate of one observed frame at virtual time `t_ns`.
    ///
    /// `is_tagged_rts` is true when the frame is an RTS from the node this
    /// monitor watches — only those are eligible for the mac-layer drop and
    /// corruption faults.
    pub fn frame_fate(&mut self, t_ns: u64, is_tagged_rts: bool) -> FrameFate {
        if let Some(d) = self.phy.deaf {
            if d.is_deaf(t_ns) {
                return FrameFate::Drop("deaf");
            }
        }
        let loss = match self.phy.burst {
            Some(b) => {
                self.in_bad = if self.in_bad {
                    !self.rng.bernoulli(b.p_exit_bad)
                } else {
                    self.rng.bernoulli(b.p_enter_bad)
                };
                if self.in_bad {
                    b.bad_loss
                } else {
                    b.good_loss
                }
            }
            None => self.phy.loss,
        };
        if loss > 0.0 && self.rng.bernoulli(loss) {
            return FrameFate::Drop(if self.in_bad { "burst-loss" } else { "loss" });
        }
        if is_tagged_rts {
            if self.mac.rts_drop > 0.0 && self.rng.bernoulli(self.mac.rts_drop) {
                return FrameFate::Drop("rts-drop");
            }
            if self.mac.rts_corrupt > 0.0 && self.rng.bernoulli(self.mac.rts_corrupt) {
                return FrameFate::Corrupt(self.draw_corruption());
            }
        }
        FrameFate::Deliver
    }

    fn draw_corruption(&mut self) -> CorruptSpec {
        match self.rng.below(3) {
            0 => CorruptSpec {
                seq_xor: 1 + self.rng.below(0x1FFF) as u16, // nonzero, 13-bit
                ..CorruptSpec::default()
            },
            1 => CorruptSpec {
                attempt_xor: 1 + self.rng.below(7) as u8, // nonzero, 3-bit
                ..CorruptSpec::default()
            },
            _ => CorruptSpec {
                md_index: self.rng.below(16) as usize,
                md_mask: 1 << self.rng.below(8),
                ..CorruptSpec::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_has_no_observer() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(!plan.has_observation_faults());
        assert!(plan.observer(3).is_none());
    }

    #[test]
    fn presets_parse_and_compose_with_overrides() {
        let light = FaultPlan::parse("light").unwrap();
        assert_eq!(light.phy.loss, 0.05);
        assert_eq!(light.mac.rts_drop, 0.05);
        assert!(light.has_observation_faults());

        let heavy = FaultPlan::parse("heavy,seed=9,drop=0.2").unwrap();
        assert_eq!(heavy.seed, 9);
        assert_eq!(heavy.mac.rts_drop, 0.2);
        assert!(heavy.phy.burst.is_some());
        assert!(heavy.phy.deaf.is_some());

        // `off` resets the faults but keeps the seed.
        let off = FaultPlan::parse("seed=5,heavy,off").unwrap();
        assert_eq!(off.seed, 5);
        assert!(off.is_noop());
    }

    #[test]
    fn knob_grammar_covers_all_three_layers() {
        let plan = FaultPlan::parse(
            "loss=0.1,burst=0.05:0.4:0.02:0.5,deaf=200:50:10,drop=0.15,corrupt=0.01,\
             panic=3:7",
        )
        .unwrap();
        assert_eq!(plan.phy.loss, 0.1);
        let b = plan.phy.burst.unwrap();
        assert_eq!((b.p_enter_bad, b.p_exit_bad, b.good_loss, b.bad_loss), (0.05, 0.4, 0.02, 0.5));
        let d = plan.phy.deaf.unwrap();
        assert_eq!((d.period_ns, d.deaf_ns, d.phase_ns), (200_000_000, 50_000_000, 10_000_000));
        assert_eq!(plan.mac.rts_corrupt, 0.01);
        assert!(plan.runner.panics(3) && plan.runner.panics(7) && !plan.runner.panics(4));
        // Runner faults are panics only: hang and watchdog knobs are unknown.
        for gone in ["hang=5", "hang-ms=40", "timeout-ms=100", "retries=1"] {
            let err = FaultPlan::parse(gone).unwrap_err();
            assert!(err.starts_with("unknown fault knob"), "{gone}: {err}");
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_offending_token() {
        for bad in [
            "bogus",
            "loss=1.5",
            "loss=abc",
            "burst=0.1:0.2",
            "deaf=100",
            "panic=x",
            "seed=-1",
            "volume=11",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(
                err.contains(bad.split(',').next().unwrap().split('=').next().unwrap())
                    || err.contains(bad),
                "error for {bad:?} should name the token, got: {err}"
            );
        }
    }

    #[test]
    fn equal_seed_and_vantage_replay_identical_fates() {
        let plan = FaultPlan::parse("heavy,seed=42").unwrap();
        let mut a = ObsFaults::new(&plan, 7);
        let mut b = ObsFaults::new(&plan, 7);
        for i in 0..500u64 {
            let t = i * 1_700_000;
            assert_eq!(a.frame_fate(t, i % 3 == 0), b.frame_fate(t, i % 3 == 0));
        }
    }

    #[test]
    fn different_vantages_get_independent_streams() {
        let plan = FaultPlan::parse("loss=0.5,seed=1").unwrap();
        let mut a = ObsFaults::new(&plan, 1);
        let mut b = ObsFaults::new(&plan, 2);
        let fates_a: Vec<_> = (0..64).map(|i| a.frame_fate(i, false)).collect();
        let fates_b: Vec<_> = (0..64).map(|i| b.frame_fate(i, false)).collect();
        assert_ne!(fates_a, fates_b, "distinct vantages must not share a stream");
    }

    #[test]
    fn deafness_is_a_pure_function_of_virtual_time() {
        let d = DeafWindows { period_ns: 100, deaf_ns: 25, phase_ns: 0 };
        assert!(d.is_deaf(0));
        assert!(d.is_deaf(24));
        assert!(!d.is_deaf(25));
        assert!(!d.is_deaf(99));
        assert!(d.is_deaf(100));
        let phased = DeafWindows { period_ns: 100, deaf_ns: 25, phase_ns: 10 };
        assert!(phased.is_deaf(90)); // 90 + 10 = 100 ≡ 0 (mod 100)
        assert!(!phased.is_deaf(20));
        // Deaf drops consume no randomness: an injector that sat through a
        // deaf window makes the same later decisions as one that never saw
        // those frames at all.
        let plan = FaultPlan::parse("deaf=2:1,loss=0.5,seed=3").unwrap();
        let mut sat_through = ObsFaults::new(&plan, 0);
        for t in (0..1_000_000).step_by(10_000) {
            assert_eq!(sat_through.frame_fate(t, false), FrameFate::Drop("deaf"));
        }
        let mut fresh = ObsFaults::new(&plan, 0);
        for i in 0..256u64 {
            let awake = 1_000_000 + i * 7_000; // inside the second half of each period
            assert_eq!(sat_through.frame_fate(awake, false), fresh.frame_fate(awake, false));
        }
    }

    #[test]
    fn burst_chain_visits_both_states() {
        let plan = FaultPlan::parse("burst=0.3:0.3:0.0:1.0,seed=11").unwrap();
        let mut obs = ObsFaults::new(&plan, 0);
        let fates: Vec<_> = (0..400).map(|i| obs.frame_fate(i, false)).collect();
        assert!(fates.contains(&FrameFate::Drop("burst-loss")), "bad state must drop");
        assert!(fates.contains(&FrameFate::Deliver), "good state must deliver");
    }

    #[test]
    fn quorum_knobs_parse_and_do_not_count_as_observation_faults() {
        let plan = FaultPlan::parse("seed=4,lie=0.3,mute=0.1,flip=0.05").unwrap();
        assert_eq!(plan.quorum, QuorumFaults { lie: 0.3, mute: 0.1, flip: 0.05 });
        assert!(!plan.is_noop(), "quorum faults make the plan non-noop");
        assert!(
            !plan.has_observation_faults(),
            "Byzantine monitors observe faithfully — no confirmation harden"
        );
        assert!(plan.observer(3).is_none());
        // `off` resets the quorum layer along with everything else.
        assert!(FaultPlan::parse("lie=0.5,off").unwrap().is_noop());
        // Probabilities outside [0, 1] are rejected like any other knob.
        assert!(FaultPlan::parse("lie=1.5").is_err());
    }

    #[test]
    fn monitor_roles_are_seeded_per_vantage_and_cover_all_roles() {
        let plan = FaultPlan::parse("seed=7,lie=0.25,mute=0.25,flip=0.25").unwrap();
        let roles: Vec<MonitorRole> = (0..64).map(|v| plan.monitor_role(v)).collect();
        let again: Vec<MonitorRole> = (0..64).map(|v| plan.monitor_role(v)).collect();
        assert_eq!(roles, again, "equal plans must assign equal roles");
        for want in [
            MonitorRole::Honest,
            MonitorRole::FalseAccuser,
            MonitorRole::Mute,
            MonitorRole::Flip,
        ] {
            assert!(roles.contains(&want), "role {want:?} never drawn in 64 vantages");
        }
        // A different seed reshuffles the assignment.
        let other = FaultPlan::parse("seed=8,lie=0.25,mute=0.25,flip=0.25").unwrap();
        let shuffled: Vec<MonitorRole> = (0..64).map(|v| other.monitor_role(v)).collect();
        assert_ne!(roles, shuffled);
        // A clean plan is all-honest without consuming any randomness.
        let clean = FaultPlan::default();
        assert!((0..16).all(|v| clean.monitor_role(v) == MonitorRole::Honest));
    }

    #[test]
    fn role_semantics_partition_lying_and_suppressing() {
        assert!(!MonitorRole::Honest.lies() && !MonitorRole::Honest.suppresses());
        assert!(MonitorRole::FalseAccuser.lies() && !MonitorRole::FalseAccuser.suppresses());
        assert!(!MonitorRole::Mute.lies() && MonitorRole::Mute.suppresses());
        assert!(MonitorRole::Flip.lies() && MonitorRole::Flip.suppresses());
        assert_eq!(MonitorRole::FalseAccuser.tag(), "false-accuser");
    }

    #[test]
    fn corruption_specs_flip_exactly_one_commitment_field() {
        let plan = FaultPlan::parse("corrupt=1.0,seed=2").unwrap();
        let mut obs = ObsFaults::new(&plan, 0);
        let mut kinds = [false; 3];
        for i in 0..200 {
            match obs.frame_fate(i, true) {
                FrameFate::Corrupt(spec) => {
                    assert!(spec.bits_flipped() > 0);
                    let fields = [spec.seq_xor != 0, spec.attempt_xor != 0, spec.md_mask != 0];
                    assert_eq!(fields.iter().filter(|&&f| f).count(), 1, "{spec:?}");
                    assert!(spec.seq_xor <= 0x1FFF, "13-bit field");
                    assert!(spec.attempt_xor <= 7, "3-bit field");
                    assert!(spec.md_index < 16);
                    for (slot, hit) in kinds.iter_mut().zip(fields) {
                        *slot |= hit;
                    }
                }
                other => panic!("corrupt=1.0 must corrupt every tagged RTS, got {other:?}"),
            }
        }
        assert_eq!(kinds, [true; 3], "all three corruption kinds must occur");
    }
}
