//! # mg-stats — statistics for misbehavior detection
//!
//! Everything statistical the detection framework needs, implemented from
//! scratch (no external stats crates):
//!
//! * [`rank::midranks`] — ranking with midrank tie handling, the first step
//!   of both Wilcoxon tests (the rank-sum test ranks the same way inside
//!   its reusable [`wilcoxon::RankSumScratch`]);
//! * [`wilcoxon`] — the **Wilcoxon rank-sum test** the paper uses to compare
//!   the dictated back-off population *x* against the estimated observed
//!   population *y*: exact small-sample null distribution (dynamic
//!   programming over rank subsets) with a normal approximation (tie and
//!   continuity corrected) for larger samples;
//! * [`signed_rank`] — the *paired* Wilcoxon signed-rank test, an extension
//!   beyond the paper that exploits the natural pairing of (dictated,
//!   estimated) back-off samples;
//! * [`ttest`] — Welch's t-test, included because the paper argues t-tests
//!   are the *wrong* tool here (Gaussianity assumption); the
//!   `ablation_tests` bench quantifies that claim;
//! * [`normal`] — standard-normal CDF/quantile;
//! * [`filter::Arma`] — the paper's Eq. 6 ARMA traffic-intensity estimator
//!   (`ρ(t+1) = α·ρ(t) + (1−α)·mean of the last s slot samples`, α = 0.995).
//!
//! # Example
//!
//! ```
//! use mg_stats::wilcoxon::{rank_sum_test, Alternative};
//!
//! let dictated = [12.0, 7.0, 31.0, 24.0, 3.0, 18.0, 9.0, 27.0, 15.0, 21.0];
//! let observed = [2.0, 1.0, 6.0, 4.0, 0.0, 3.0, 1.0, 5.0, 2.0, 4.0];
//! // Is the observed population stochastically SMALLER than dictated?
//! let t = rank_sum_test(&observed, &dictated, Alternative::Less);
//! assert!(t.p_value < 0.01); // blatant back-off shrinking
//! ```

#![warn(missing_docs)]

pub mod filter;
pub mod normal;
pub mod rank;
pub mod signed_rank;
pub mod ttest;
pub mod wilcoxon;
