//! Radio propagation models (the same trio ns-2 ships).

use mg_sim::rng::Rng;

/// Speed of light, m/s.
const C: f64 = 299_792_458.0;
/// Carrier frequency (ns-2's default 914 MHz WaveLAN).
const FREQ_HZ: f64 = 914e6;
/// Reference distance for the shadowing model, meters.
const D0: f64 = 1.0;

/// A large-scale path-loss model: mean received power as a function of
/// distance, plus (for the shadowing model) a log-normal random component
/// drawn per transmission per receiver.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum PropagationModel {
    /// Friis free-space propagation (path-loss exponent 2).
    #[default]
    FreeSpace,
    /// Two-ray ground reflection: free space up to the crossover distance
    /// `4π·ht·hr/λ`, then a fourth-power law. Antenna heights in meters.
    TwoRayGround {
        /// Transmitter antenna height (m). ns-2 default: 1.5.
        ht: f64,
        /// Receiver antenna height (m). ns-2 default: 1.5.
        hr: f64,
    },
    /// The paper's channel: log-distance path loss with exponent `beta`
    /// referenced to free space at 1 m, plus a zero-mean Gaussian dB term
    /// with standard deviation `sigma_db` (log-normal shadowing).
    ///
    /// The paper's experiments use `beta = 2, sigma_db = 0` ("for free space
    /// propagation, we set β = 2 and σ_dB = 0").
    Shadowing {
        /// Path-loss exponent β.
        beta: f64,
        /// Shadowing standard deviation σ in dB (0 ⇒ deterministic).
        sigma_db: f64,
    },
}

impl PropagationModel {
    /// Free-space propagation — the paper's evaluation channel.
    pub fn free_space() -> Self {
        PropagationModel::FreeSpace
    }

    /// The paper's shadowing channel with the given exponent and σ.
    pub fn shadowing(beta: f64, sigma_db: f64) -> Self {
        assert!(beta > 0.0, "path-loss exponent must be positive");
        assert!(sigma_db >= 0.0, "sigma must be non-negative");
        PropagationModel::Shadowing { beta, sigma_db }
    }

    /// Carrier wavelength (m).
    pub fn wavelength() -> f64 {
        C / FREQ_HZ
    }

    /// Deterministic (mean) path loss in dB at distance `d` meters.
    ///
    /// Distances below 1 m are clamped to 1 m — the far-field models are not
    /// meaningful closer than the reference distance.
    pub fn mean_path_loss_db(&self, d: f64) -> f64 {
        let d = d.max(D0);
        let lambda = Self::wavelength();
        let fs = |d: f64| 20.0 * (4.0 * std::f64::consts::PI * d / lambda).log10();
        match *self {
            PropagationModel::FreeSpace => fs(d),
            PropagationModel::TwoRayGround { ht, hr } => {
                let crossover = 4.0 * std::f64::consts::PI * ht * hr / lambda;
                if d <= crossover {
                    fs(d)
                } else {
                    // Pr = Pt Gt Gr ht² hr² / d⁴  ⇒  PL = 40·log d − 20·log(ht·hr)
                    40.0 * d.log10() - 20.0 * (ht * hr).log10()
                }
            }
            PropagationModel::Shadowing { beta, .. } => fs(D0) + 10.0 * beta * (d / D0).log10(),
        }
    }

    /// `true` when path loss is a pure function of distance — no
    /// per-receiver random draw. Shadowing with `σ > 0` is the only
    /// stochastic model; everything else (including `σ = 0` shadowing, the
    /// paper's channel) is deterministic.
    pub fn is_deterministic(&self) -> bool {
        !matches!(*self, PropagationModel::Shadowing { sigma_db, .. } if sigma_db > 0.0)
    }

    /// The largest distance whose *mean* path loss stays within `budget_db`,
    /// over-approximated to the safe side (the returned distance is ≥ the
    /// exact boundary) and capped at 100 000 km. With a deterministic model
    /// this bounds the sensing footprint: no receiver farther than
    /// `max_distance_for_loss(tx_power − cs_thresh)` can perceive the
    /// transmission, which is what lets a spatial index skip it entirely.
    pub fn max_distance_for_loss(&self, budget_db: f64) -> f64 {
        const CAP: f64 = 1e8;
        if self.mean_path_loss_db(CAP) <= budget_db {
            return CAP;
        }
        // Path loss is constant below the 1 m reference distance.
        let (mut lo, mut hi) = (1.0_f64, CAP);
        if self.mean_path_loss_db(lo) > budget_db {
            return lo;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.mean_path_loss_db(mid) <= budget_db {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Path loss for one concrete transmission, including the shadowing draw
    /// when the model has one.
    pub fn sample_path_loss_db<R: Rng>(&self, d: f64, rng: &mut R) -> f64 {
        let mean = self.mean_path_loss_db(d);
        match *self {
            PropagationModel::Shadowing { sigma_db, .. } if sigma_db > 0.0 => {
                mean + sigma_db * rng.standard_normal()
            }
            _ => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sim::rng::Xoshiro256;

    #[test]
    fn free_space_inverse_square() {
        let p = PropagationModel::free_space();
        // Doubling the distance costs 6.02 dB.
        let d1 = p.mean_path_loss_db(100.0);
        let d2 = p.mean_path_loss_db(200.0);
        assert!((d2 - d1 - 6.0206).abs() < 1e-3, "{d1} {d2}");
    }

    #[test]
    fn shadowing_beta2_sigma0_equals_free_space() {
        let fs = PropagationModel::free_space();
        let sh = PropagationModel::shadowing(2.0, 0.0);
        for d in [1.0, 50.0, 250.0, 550.0, 1000.0] {
            assert!(
                (fs.mean_path_loss_db(d) - sh.mean_path_loss_db(d)).abs() < 1e-9,
                "d={d}"
            );
        }
    }

    #[test]
    fn two_ray_matches_free_space_below_crossover() {
        let p = PropagationModel::TwoRayGround { ht: 1.5, hr: 1.5 };
        let fs = PropagationModel::free_space();
        let crossover = 4.0 * std::f64::consts::PI * 2.25 / PropagationModel::wavelength();
        assert!(
            (p.mean_path_loss_db(crossover * 0.5) - fs.mean_path_loss_db(crossover * 0.5)).abs()
                < 1e-9
        );
        // Beyond crossover: 12 dB per doubling.
        let a = p.mean_path_loss_db(crossover * 2.0);
        let b = p.mean_path_loss_db(crossover * 4.0);
        assert!((b - a - 12.041).abs() < 0.01, "{a} {b}");
    }

    #[test]
    fn path_loss_is_monotone_in_distance() {
        for model in [
            PropagationModel::free_space(),
            PropagationModel::TwoRayGround { ht: 1.5, hr: 1.5 },
            PropagationModel::shadowing(2.7, 0.0),
        ] {
            let mut prev = f64::NEG_INFINITY;
            for i in 1..200 {
                let pl = model.mean_path_loss_db(i as f64 * 10.0);
                assert!(pl >= prev, "{model:?} at {}", i * 10);
                prev = pl;
            }
        }
    }

    #[test]
    fn near_field_clamped() {
        let p = PropagationModel::free_space();
        assert_eq!(p.mean_path_loss_db(0.0), p.mean_path_loss_db(1.0));
        assert_eq!(p.mean_path_loss_db(0.5), p.mean_path_loss_db(1.0));
    }

    #[test]
    fn shadowing_draws_have_requested_spread() {
        let p = PropagationModel::shadowing(2.0, 4.0);
        let mut rng = Xoshiro256::new(42);
        let mean = p.mean_path_loss_db(100.0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| p.sample_path_loss_db(100.0, &mut rng) - mean)
            .collect();
        let m = samples.iter().sum::<f64>() / n as f64;
        let v = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!(m.abs() < 0.1, "mean {m}");
        assert!((v.sqrt() - 4.0).abs() < 0.1, "sd {}", v.sqrt());
    }

    #[test]
    #[should_panic(expected = "exponent must be positive")]
    fn bad_beta_rejected() {
        PropagationModel::shadowing(0.0, 1.0);
    }

    #[test]
    fn determinism_classification() {
        assert!(PropagationModel::free_space().is_deterministic());
        assert!(PropagationModel::TwoRayGround { ht: 1.5, hr: 1.5 }.is_deterministic());
        assert!(PropagationModel::shadowing(2.0, 0.0).is_deterministic());
        assert!(!PropagationModel::shadowing(2.0, 4.0).is_deterministic());
    }

    #[test]
    fn max_distance_brackets_the_loss_boundary() {
        for model in [
            PropagationModel::free_space(),
            PropagationModel::TwoRayGround { ht: 1.5, hr: 1.5 },
            PropagationModel::shadowing(2.7, 0.0),
        ] {
            for budget in [60.0, 86.0, 110.0] {
                let d = model.max_distance_for_loss(budget);
                // Safe side: just beyond d the loss exceeds the budget,
                // and d itself is within (or a hair past) the boundary.
                assert!(model.mean_path_loss_db(d * 1.001) > budget, "{model:?}");
                assert!(model.mean_path_loss_db(d * 0.999) <= budget, "{model:?}");
            }
        }
        // The paper's radio: 550 m sensing disk ⇒ the horizon brackets it.
        let prop = PropagationModel::free_space();
        let budget = prop.mean_path_loss_db(550.0);
        let d = prop.max_distance_for_loss(budget);
        assert!((d - 550.0).abs() < 0.1, "horizon {d} should sit at 550 m");
        // Unreachable budgets clamp to the reference distance / the cap.
        assert_eq!(prop.max_distance_for_loss(-1.0), 1.0);
        assert_eq!(prop.max_distance_for_loss(1e9), 1e8);
    }
}
