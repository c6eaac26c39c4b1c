//! The paper's analytical model: Equations 1–5 of Section 3.
//!
//! A monitor R watching a sender S cannot see S's channel; it sees its own.
//! The model supplies the two conditional probabilities that bridge the gap:
//!
//! * `p_{B|I}` (Eq. 3) — S senses **busy** given R senses **idle**: some
//!   node in region A2 (heard by S only) is transmitting while all of R's
//!   region is quiet.
//! * `p_{I|B}` (Eq. 4) — S senses **idle** given R senses **busy**: the
//!   transmitter R hears sits in A5 (heard by R only), and nobody S can hear
//!   is active.
//!
//! With them, R converts its own idle/busy slot counts (I, B) into estimates
//! of S's counts (Eqs. 1–2):
//!
//! ```text
//! I_est = p_{I|I}·I + p_{I|B}·B          (Eq. 1)
//! B_est = N − I_est                      (Eq. 2)
//! ```
//!
//! The queueing part assumes each neighbor's MAC queue is independently
//! non-empty with probability ρ (the locally measured traffic intensity), so
//! `P(no transmitter among x nodes) = (1−ρ)^x` — the paper's second and
//! third approximations.
//!
//! A monitor evaluates the model once per back-off window, and the window
//! needs both `I_est` and `p_{I|B}` (the latter also weighs the resume
//! overhead). `AnalyticModel::window_estimate` yields the two from one
//! evaluation of `(1−ρ)^(n+k)`, with the same expressions, in the same
//! order, as the per-equation methods, so its values equal theirs bit for
//! bit. The region geometry is the caller's to keep: a monitor recomputes
//! its `RegionModel` only when the pair distance changes.

use mg_geom::{PreclusionRule, RegionModel};

/// Equations 1–5, bound to a concrete geometry and node counts.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AnalyticModel {
    /// The A1–A5 areas for the S–R pair.
    pub regions: RegionModel,
    /// Nodes in A2 (heard by S only) — the paper's `n`.
    pub n: f64,
    /// Nodes in A1 (A2's preclusion zone) — the paper's `k`.
    pub k: f64,
    /// Nodes in A4 (A5's preclusion zone) — the paper's `m`.
    pub m: f64,
    /// Nodes in A5 (heard by R only) — the paper's `j`.
    pub j: f64,
}

impl AnalyticModel {
    /// The paper's grid configuration: fixed `n = k = m = j = 5` (Section 5:
    /// "we have deterministically set n = 5, k = 5, since they are fixed in
    /// the grid topology"; higher values "do not play a significant role").
    pub fn grid_paper(distance: f64, cs_range: f64, rule: PreclusionRule) -> Self {
        Self::uniform_counts(RegionModel::new(distance, cs_range, rule), 5.0)
    }

    /// `regions` with every node count (`n`, `k`, `m`, `j`) set to `count`.
    pub(crate) fn uniform_counts(regions: RegionModel, count: f64) -> Self {
        AnalyticModel {
            regions,
            n: count,
            k: count,
            m: count,
            j: count,
        }
    }

    /// Node counts estimated from a uniform density (nodes/m²) — the random
    /// topology path, where the monitor estimates density online.
    pub fn from_density(distance: f64, cs_range: f64, rule: PreclusionRule, density: f64) -> Self {
        Self::density_counts(RegionModel::new(distance, cs_range, rule), density)
    }

    /// [`AnalyticModel::from_density`] over regions computed beforehand.
    pub(crate) fn density_counts(regions: RegionModel, density: f64) -> Self {
        AnalyticModel {
            regions,
            n: RegionModel::expected_nodes(regions.a2, density),
            k: RegionModel::expected_nodes(regions.a1, density),
            m: RegionModel::expected_nodes(regions.a4, density),
            j: RegionModel::expected_nodes(regions.a5, density),
        }
    }

    /// `P(no transmitter among x independent nodes)` at intensity ρ.
    fn all_quiet(rho: f64, x: f64) -> f64 {
        (1.0 - rho.clamp(0.0, 1.0)).powf(x.max(0.0))
    }

    /// Eq. 3 given `quiet` = `(1−ρ)^(n+k)`, the chance that nobody in
    /// A1∪A2 transmits.
    fn busy_given_idle(&self, quiet: f64) -> f64 {
        self.regions.ratio_a2() * (1.0 - quiet)
    }

    /// Eq. 4 given `quiet` = `(1−ρ)^(n+k)`.
    fn idle_given_busy(&self, quiet: f64) -> f64 {
        self.regions.ratio_a5() * (self.regions.ratio_a1() * (1.0 - quiet) + quiet)
    }

    /// Equation 3: `p_{B|I} = [A2/(A1+A2)] · [1 − (1−ρ)^(n+k)]`.
    pub fn p_busy_given_idle(&self, rho: f64) -> f64 {
        self.busy_given_idle(Self::all_quiet(rho, self.n + self.k))
    }

    /// Equation 5: `p_{I|I} = 1 − p_{B|I}`.
    pub fn p_idle_given_idle(&self, rho: f64) -> f64 {
        1.0 - self.p_busy_given_idle(rho)
    }

    /// Equation 4: `p_{I|B} = [A5/(A4+A5)] · [ (A1/(A1+A2))·(1−(1−ρ)^(n+k))
    /// + (1−ρ)^(n+k) ]`.
    ///
    /// First factor: the transmitter R hears is in A5 (so S cannot hear it)
    /// rather than A4. Second factor: either nobody in A1∪A2 transmits, or
    /// the one who does sits in A1 — outside S's sensing disk either way.
    pub fn p_idle_given_busy(&self, rho: f64) -> f64 {
        self.idle_given_busy(Self::all_quiet(rho, self.n + self.k))
    }

    /// Equations 1–2: estimate the sender's (idle, busy) slot counts from
    /// the monitor's own counts over a window of `idle + busy` slots.
    pub fn estimate_sender_slots(&self, rho: f64, idle: f64, busy: f64) -> (f64, f64) {
        let (i_est, _) = self.window_estimate(rho, idle, busy);
        let total = idle + busy;
        (i_est, total - i_est)
    }

    /// One back-off window's `(I_est, p_{I|B})`: Eq. 1 over `idle` and
    /// `busy` slots, and Eq. 4, sharing one evaluation of `(1−ρ)^(n+k)`.
    /// Each value equals the per-equation methods' bit for bit.
    pub(crate) fn window_estimate(&self, rho: f64, idle: f64, busy: f64) -> (f64, f64) {
        let quiet = Self::all_quiet(rho, self.n + self.k);
        let p_ii = 1.0 - self.busy_given_idle(quiet);
        let p_ib = self.idle_given_busy(quiet);
        (p_ii * idle + p_ib * busy, p_ib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AnalyticModel {
        AnalyticModel::grid_paper(240.0, 550.0, PreclusionRule::paper_calibrated())
    }

    #[test]
    fn probabilities_are_probabilities() {
        let m = model();
        let mut rho = 0.0;
        while rho <= 1.0 {
            for p in [
                m.p_busy_given_idle(rho),
                m.p_idle_given_idle(rho),
                m.p_idle_given_busy(rho),
            ] {
                assert!((0.0..=1.0).contains(&p), "rho={rho}: {p}");
            }
            rho += 0.01;
        }
    }

    #[test]
    fn eq3_shape_matches_figure_3a() {
        // Rises with ρ; ≈ 0 at ρ = 0; ≈ 0.6 at ρ = 0.8 (paper's Fig. 3a).
        let m = model();
        assert!(m.p_busy_given_idle(0.0) < 1e-12);
        let mut prev = -1.0;
        for i in 0..=8 {
            let p = m.p_busy_given_idle(i as f64 / 10.0);
            assert!(p >= prev, "not monotone at {i}");
            prev = p;
        }
        let top = m.p_busy_given_idle(0.8);
        assert!((0.55..0.68).contains(&top), "p_BI(0.8)={top}");
        let low = m.p_busy_given_idle(0.1);
        assert!((0.2..0.45).contains(&low), "p_BI(0.1)={low}");
    }

    #[test]
    fn eq4_shape_matches_figure_3b() {
        // Falls with ρ; ≈ 0.18 at low load, ≈ 0.05 at ρ = 0.8 (Fig. 3b).
        let m = model();
        let mut prev = 2.0;
        for i in 1..=8 {
            let p = m.p_idle_given_busy(i as f64 / 10.0);
            assert!(p <= prev, "not decreasing at {i}");
            prev = p;
        }
        // The paper's printed Fig. 3b low-load value (~0.18) is not jointly
        // reachable with Fig. 3a's magnitudes under Eq. 4 for any single
        // region set; we calibrate to the high-load end and accept a lower
        // low-load magnitude (shape preserved). See EXPERIMENTS.md.
        let low_load = m.p_idle_given_busy(0.1);
        assert!((0.05..0.25).contains(&low_load), "p_IB(0.1)={low_load}");
        let high_load = m.p_idle_given_busy(0.8);
        assert!((0.02..0.09).contains(&high_load), "p_IB(0.8)={high_load}");
    }

    #[test]
    fn eq5_complement() {
        let m = model();
        for i in 0..=10 {
            let rho = i as f64 / 10.0;
            assert!(
                (m.p_busy_given_idle(rho) + m.p_idle_given_idle(rho) - 1.0).abs() < 1e-12
            );
        }
    }

    #[test]
    fn isolated_pair_sees_identical_channels() {
        // No third-party nodes: S idle ⟺ R idle.
        let m = AnalyticModel {
            n: 0.0,
            k: 0.0,
            m: 0.0,
            j: 0.0,
            ..model()
        };
        assert_eq!(m.p_busy_given_idle(0.9), 0.0);
        assert_eq!(m.p_idle_given_idle(0.9), 1.0);
        let (i_est, b_est) = m.estimate_sender_slots(0.9, 100.0, 0.0);
        assert_eq!(i_est, 100.0);
        assert_eq!(b_est, 0.0);
    }

    #[test]
    fn estimates_partition_the_window() {
        let m = model();
        let (i_est, b_est) = m.estimate_sender_slots(0.5, 300.0, 200.0);
        assert!((i_est + b_est - 500.0).abs() < 1e-9);
        assert!(i_est > 0.0 && b_est > 0.0);
        // More observed busy slots → more estimated idle leakage via p_IB,
        // but still far fewer estimated idle than observed idle contributes.
        assert!(i_est < 300.0 + 200.0 * 0.5);
    }

    #[test]
    fn density_variant_scales_counts() {
        let sparse = AnalyticModel::from_density(
            240.0,
            550.0,
            PreclusionRule::paper_calibrated(),
            1e-7,
        );
        let dense = AnalyticModel::from_density(
            240.0,
            550.0,
            PreclusionRule::paper_calibrated(),
            1e-5,
        );
        assert!(dense.n > sparse.n * 50.0);
        // Sparser network ⇒ weaker cross-coupling at equal ρ.
        assert!(dense.p_busy_given_idle(0.3) > sparse.p_busy_given_idle(0.3));
    }

    #[test]
    fn rho_is_clamped() {
        let m = model();
        assert_eq!(m.p_busy_given_idle(-0.5), m.p_busy_given_idle(0.0));
        assert_eq!(m.p_busy_given_idle(1.5), m.p_busy_given_idle(1.0));
    }
}
