//! The Wilcoxon rank-sum test (Mann–Whitney).
//!
//! This is the hypothesis test at the heart of the paper's statistical
//! detector (Section 4): the monitor compares the *dictated* back-off
//! population (replayed from the tagged node's verifiable PRS) with the
//! *estimated observed* population and asks whether the observed values are
//! stochastically smaller — the signature of a node that transmits before
//! its timer should have expired.
//!
//! Being non-parametric, the test needs no Gaussianity assumption — the
//! paper's stated reason for preferring it over a t-test (back-off values
//! are uniform-ish, not normal).
//!
//! Two evaluation paths:
//! * **exact** — for `n·m ≤` [`EXACT_LIMIT`] and tie-free data, the null
//!   distribution of the rank sum is computed exactly by dynamic programming
//!   (once per thread and sample-size pair, then reused);
//! * **normal approximation** — otherwise, with tie-variance correction and
//!   a 0.5 continuity correction.
//!
//! Ranking takes one sort of the pooled sample: each run of equal values in
//! sorted order is a tie group, and its members share the mean of the ranks
//! it spans. A detector judges batch after batch, so it keeps a
//! [`RankSumScratch`] whose buffers are reused from one test to the next and
//! stop allocating once they have held the largest batch;
//! [`rank_sum_test`] is the one-shot form over a fresh scratch.

use crate::normal;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Above this product `n·m` of sample sizes the exact enumeration switches
/// to the normal approximation (the exact DP costs `O((n·m)²)`).
pub const EXACT_LIMIT: usize = 400;

/// The direction of the alternative hypothesis, phrased about the *first*
/// sample passed to [`rank_sum_test`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Alternative {
    /// First sample is stochastically **smaller** than the second.
    Less,
    /// First sample is stochastically **greater** than the second.
    Greater,
    /// The samples differ in location (either direction).
    TwoSided,
}

/// How the p-value was computed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// Exact null distribution (tie-free, small samples).
    Exact,
    /// Normal approximation with tie and continuity corrections.
    NormalApprox,
}

/// Result of a rank-sum test.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RankSumResult {
    /// Rank sum of the first sample (the test statistic `W`).
    pub w: f64,
    /// Mann–Whitney `U` statistic of the first sample (`W − n(n+1)/2`).
    pub u: f64,
    /// Significance probability for the requested alternative.
    pub p_value: f64,
    /// Which computational path produced `p_value`.
    pub method: Method,
    /// Size of the first sample.
    pub n1: usize,
    /// Size of the second sample.
    pub n2: usize,
}

impl RankSumResult {
    /// Convenience: `p_value < alpha`.
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Runs the Wilcoxon rank-sum test of `first` against `second`.
///
/// Returns the rank sum of `first`, the corresponding Mann–Whitney `U`, and
/// the p-value under the null hypothesis that both samples come from the
/// same distribution. A caller running many tests keeps a
/// [`RankSumScratch`] instead; the results are the same bit for bit.
///
/// # Panics
///
/// Panics if either sample is empty or contains NaN.
///
/// # Example
///
/// ```
/// use mg_stats::wilcoxon::{rank_sum_test, Alternative};
///
/// let a = [1.0, 2.0, 3.0];
/// let b = [10.0, 11.0, 12.0];
/// let r = rank_sum_test(&a, &b, Alternative::Less);
/// assert!(r.p_value < 0.06); // exact p = 1/C(6,3) = 0.05
/// ```
pub fn rank_sum_test(first: &[f64], second: &[f64], alt: Alternative) -> RankSumResult {
    RankSumScratch::default().test(first, second, alt)
}

/// Reusable buffers for rank-sum tests. After a test of `n1 + n2`
/// observations, later tests of at most that many allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct RankSumScratch {
    /// The pooled sample: `first`, then `second`.
    all: Vec<f64>,
    /// Indices into `all`, sorted by value.
    order: Vec<usize>,
    /// The midrank of each element of `all`.
    ranks: Vec<f64>,
    /// Tie-group sizes in ascending value order (groups of one included).
    ties: Vec<usize>,
}

impl RankSumScratch {
    /// An empty scratch; its buffers grow on first use.
    pub fn new() -> RankSumScratch {
        RankSumScratch::default()
    }

    /// [`rank_sum_test`] of `first` against `second`, in this scratch's
    /// buffers.
    ///
    /// # Panics
    ///
    /// Panics if either sample is empty or contains NaN.
    pub fn test(&mut self, first: &[f64], second: &[f64], alt: Alternative) -> RankSumResult {
        assert!(
            !first.is_empty() && !second.is_empty(),
            "rank-sum test requires non-empty samples"
        );
        let n1 = first.len();
        let n2 = second.len();
        self.all.clear();
        self.all.extend_from_slice(first);
        self.all.extend_from_slice(second);
        assert!(self.all.iter().all(|v| !v.is_nan()), "samples must not contain NaN");

        self.rank();
        let w: f64 = self.ranks[..n1].iter().sum();
        let u = w - (n1 * (n1 + 1)) as f64 / 2.0;
        let has_ties = self.ties.iter().any(|&t| t > 1);

        let (p, method) = if !has_ties && n1 * n2 <= EXACT_LIMIT {
            (exact_p(w as u64, n1, n2, alt), Method::Exact)
        } else {
            (approx_p(w, n1, n2, &self.ties, alt), Method::NormalApprox)
        };

        RankSumResult {
            w,
            u,
            p_value: p.clamp(0.0, 1.0),
            method,
            n1,
            n2,
        }
    }

    /// Fills `ranks` and `ties` from one sort of `all`. Equal values form
    /// one contiguous run in sorted order (`-0.0` and `0.0` too: they
    /// compare equal and nothing sorts between them), so the order inside a
    /// run, which an unstable sort leaves open, changes no rank.
    fn rank(&mut self) {
        let all = &self.all;
        let n = all.len();
        self.order.clear();
        self.order.extend(0..n);
        self.order.sort_unstable_by(|&a, &b| all[a].total_cmp(&all[b]));
        self.ranks.clear();
        self.ranks.resize(n, 0.0);
        self.ties.clear();
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && all[self.order[j + 1]] == all[self.order[i]] {
                j += 1;
            }
            // Elements order[i..=j] are tied; they occupy ranks i+1 ..= j+1.
            let midrank = (i + 1 + j + 1) as f64 / 2.0;
            for &k in &self.order[i..=j] {
                self.ranks[k] = midrank;
            }
            self.ties.push(j - i + 1);
            i = j + 1;
        }
    }
}

/// The exact null distribution of the rank sum of a first sample of `n1`
/// among `n1 + n2` tie-free observations.
///
/// `counts[u]` is the number of ways to choose `n1` ranks from `1..=N`
/// whose sum is `n1(n1+1)/2 + u` (`u` is the Mann–Whitney U). Counts are
/// held in `f64`; the largest, `total = C(N, n1) ≤ C(40, 20) ≈ 1.4e11`
/// under [`EXACT_LIMIT`], is far inside the exact-integer range, so every
/// sum of counts is exact and no summation order can change a bit.
struct NullCounts {
    counts: Vec<f64>,
    total: f64,
}

impl NullCounts {
    /// Builds the counts by the recurrence on the largest observation: it
    /// belongs to the first sample (and exceeds all `j` of the second, so
    /// adds `j` to U) or to the second. With `f(i, j, u)` the count for
    /// samples of `i` and `j`, `f(i, j, u) = f(i-1, j, u-j) + f(i, j-1, u)`.
    /// `O(n1·n2·U)` time for `U = n1·n2`.
    fn new(n1: usize, n2: usize) -> NullCounts {
        let top = n1 * n2;
        // f[j][u] = f(i, j, u), updated in place from i = 0, where only
        // u = 0 is possible.
        let mut f = vec![vec![0.0f64; top + 1]; n2 + 1];
        for row in &mut f {
            row[0] = 1.0;
        }
        for i in 1..=n1 {
            // j ascending: f[j - 1] already holds row i. u descending:
            // f[j][u - j] still holds row i - 1.
            for j in 1..=n2 {
                for u in (0..=i * j).rev() {
                    let first = if u >= j { f[j][u - j] } else { 0.0 };
                    f[j][u] = first + f[j - 1][u];
                }
            }
        }
        let counts = f.swap_remove(n2);
        let total = counts.iter().sum();
        NullCounts { counts, total }
    }

    /// The distribution for `(n1, n2)`, built once per thread and reused
    /// by every later test of that size.
    fn cached(n1: usize, n2: usize) -> Rc<NullCounts> {
        thread_local! {
            static BY_SIZE: RefCell<HashMap<(usize, usize), Rc<NullCounts>>> =
                RefCell::new(HashMap::new());
        }
        BY_SIZE.with(|by_size| {
            Rc::clone(
                by_size
                    .borrow_mut()
                    .entry((n1, n2))
                    .or_insert_with(|| Rc::new(NullCounts::new(n1, n2))),
            )
        })
    }

    /// The p-value of rank sum `w` for a first sample of `n1`.
    fn p_value(&self, w: u64, n1: usize, alt: Alternative) -> f64 {
        let min_w = (n1 * (n1 + 1) / 2) as u64;
        let last = self.counts.len() - 1;
        // P(W <= x)
        let cdf_at = |x: u64| -> f64 {
            match x.checked_sub(min_w) {
                None => 0.0,
                Some(u) => {
                    self.counts[..=(u as usize).min(last)].iter().sum::<f64>() / self.total
                }
            }
        };
        // P(W >= x)
        let sf_at = |x: u64| -> f64 {
            let u = x.saturating_sub(min_w) as usize;
            if u > last {
                0.0
            } else {
                self.counts[u..].iter().sum::<f64>() / self.total
            }
        };
        match alt {
            Alternative::Less => cdf_at(w),
            Alternative::Greater => sf_at(w),
            Alternative::TwoSided => (2.0 * cdf_at(w).min(sf_at(w))).min(1.0),
        }
    }
}

/// Exact p-value of rank sum `w` from the cached null distribution.
fn exact_p(w: u64, n1: usize, n2: usize, alt: Alternative) -> f64 {
    NullCounts::cached(n1, n2).p_value(w, n1, alt)
}

/// Normal approximation with tie-variance and continuity corrections.
fn approx_p(w: f64, n1: usize, n2: usize, ties: &[usize], alt: Alternative) -> f64 {
    let n1f = n1 as f64;
    let n2f = n2 as f64;
    let nf = n1f + n2f;
    let mean = n1f * (nf + 1.0) / 2.0;
    let tie_term: f64 = ties
        .iter()
        .map(|&t| {
            let t = t as f64;
            t * t * t - t
        })
        .sum();
    let var = n1f * n2f / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)));
    if var <= 0.0 {
        // All observations identical: no evidence either way.
        return 1.0;
    }
    let sd = var.sqrt();
    match alt {
        Alternative::Less => normal::cdf((w - mean + 0.5) / sd),
        Alternative::Greater => 1.0 - normal::cdf((w - mean - 0.5) / sd),
        Alternative::TwoSided => {
            let z = (w - mean).abs() - 0.5;
            (2.0 * (1.0 - normal::cdf(z.max(0.0) / sd))).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extreme_separation_exact_p() {
        // All of `a` below all of `b`: W = 1+2+3 = 6, the unique minimum.
        // P = 1 / C(6,3) = 0.05.
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let r = rank_sum_test(&a, &b, Alternative::Less);
        assert_eq!(r.method, Method::Exact);
        assert_eq!(r.w, 6.0);
        assert_eq!(r.u, 0.0);
        assert!((r.p_value - 0.05).abs() < 1e-12, "p={}", r.p_value);
        // Opposite direction: p = 1.
        let g = rank_sum_test(&a, &b, Alternative::Greater);
        assert!((g.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_null_two_sided() {
        let a = [1.0, 4.0, 5.0, 8.0];
        let b = [2.0, 3.0, 6.0, 7.0];
        let r = rank_sum_test(&a, &b, Alternative::TwoSided);
        assert_eq!(r.method, Method::Exact);
        assert!(r.p_value > 0.5, "balanced samples should not reject: {r:?}");
    }

    #[test]
    fn exact_matches_r_wilcox_test() {
        // R: wilcox.test(c(1,3,5,7,9), c(2,4,6,8,10), alternative="less")
        // gives W (Mann-Whitney U of x) = 10 and p = 0.3452381; verified by
        // exhaustive enumeration of all C(10,5) rank subsets.
        let a = [1.0, 3.0, 5.0, 7.0, 9.0];
        let b = [2.0, 4.0, 6.0, 8.0, 10.0];
        let r = rank_sum_test(&a, &b, Alternative::Less);
        assert_eq!(r.u, 10.0);
        assert!((r.p_value - 0.345_238_1).abs() < 1e-6, "p={}", r.p_value);
    }

    #[test]
    fn exact_small_case_hand_computed() {
        // n1=2, n2=2, values 1,2 vs 3,4: W=3 is the minimum; P(W<=3)=1/6.
        let r = rank_sum_test(&[1.0, 2.0], &[3.0, 4.0], Alternative::Less);
        assert!((r.p_value - 1.0 / 6.0).abs() < 1e-12);
        // W=7 is the maximum; P(W>=7)=1/6.
        let r = rank_sum_test(&[3.0, 4.0], &[1.0, 2.0], Alternative::Greater);
        assert!((r.p_value - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ties_fall_back_to_approx() {
        let a = [1.0, 2.0, 2.0, 3.0];
        let b = [2.0, 4.0, 5.0, 6.0];
        let r = rank_sum_test(&a, &b, Alternative::Less);
        assert_eq!(r.method, Method::NormalApprox);
        assert!(r.p_value > 0.0 && r.p_value < 1.0);
    }

    #[test]
    fn large_samples_use_approx_and_detect_shift() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| i as f64 + 15.0).collect();
        let r = rank_sum_test(&a, &b, Alternative::Less);
        assert_eq!(r.method, Method::NormalApprox);
        assert!(r.p_value < 0.001, "p={}", r.p_value);
        assert!(r.rejects_at(0.01));
    }

    #[test]
    fn approx_agrees_with_exact_near_boundary() {
        // Tie-free samples with n*m just under the limit: compare both paths.
        let a: Vec<f64> = (0..20).map(|i| (2 * i) as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| (2 * i + 1) as f64 + 6.0).collect();
        let exact = rank_sum_test(&a, &b, Alternative::Less);
        assert_eq!(exact.method, Method::Exact);
        let w = exact.w;
        let approx = super::approx_p(w, 20, 20, &vec![1; 40], Alternative::Less);
        let rel = (approx - exact.p_value).abs() / exact.p_value.max(1e-12);
        assert!(
            rel < 0.15,
            "exact={} approx={approx}",
            exact.p_value
        );
    }

    #[test]
    fn identical_constant_samples_do_not_reject() {
        let a = [5.0; 10];
        let b = [5.0; 10];
        let r = rank_sum_test(&a, &b, Alternative::Less);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn null_uniformity_of_exact_p_values() {
        // Under H0 the exact test is conservative-or-exact: P(p <= alpha) <=
        // alpha (up to distribution discreteness). Check by enumeration-ish
        // Monte Carlo with a deterministic LCG.
        let mut s: u64 = 12345;
        let mut unif = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let trials = 2000;
        let mut rejections = 0;
        for _ in 0..trials {
            let a: Vec<f64> = (0..10).map(|_| unif()).collect();
            let b: Vec<f64> = (0..10).map(|_| unif()).collect();
            if rank_sum_test(&a, &b, Alternative::Less).rejects_at(0.05) {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / trials as f64;
        assert!(rate < 0.075, "false rejection rate {rate} too high");
    }

    const ALTERNATIVES: [Alternative; 3] =
        [Alternative::Less, Alternative::Greater, Alternative::TwoSided];

    #[test]
    fn cached_exact_p_equals_the_uncached_dp_bit_for_bit() {
        for n1 in 1..=EXACT_LIMIT {
            for n2 in 1..=EXACT_LIMIT / n1 {
                // The uncached distribution, as exact running sums: counts
                // are integers far below 2^53, so a running sum is bit for
                // bit the slice sum `exact_p` takes, at O(1) per p-value.
                let fresh = NullCounts::new(n1, n2);
                let total = fresh.total;
                let mut below = 0.0; // P(W < w) · total
                let min_w = (n1 * (n1 + 1) / 2) as u64;
                for (u, &count) in fresh.counts.iter().enumerate() {
                    let w = min_w + u as u64;
                    let cdf = (below + count) / total;
                    let sf = (total - below) / total;
                    let want = [cdf, sf, (2.0 * cdf.min(sf)).min(1.0)];
                    for (alt, want) in ALTERNATIVES.into_iter().zip(want) {
                        assert_eq!(
                            exact_p(w, n1, n2, alt).to_bits(),
                            want.to_bits(),
                            "n1={n1} n2={n2} w={w} {alt:?}"
                        );
                    }
                    below += count;
                }
            }
        }
    }

    /// An independent oracle for the U-count recurrence, the DP over rank
    /// subsets: `count[i][s]` = ways to choose `i` ranks from `1..=N` with
    /// sum `s`. Returns the `i = n1` row, indexed by the rank sum itself.
    fn rank_subset_row(n1: usize, n2: usize) -> Vec<f64> {
        let n = n1 + n2;
        let max_sum = n1 * n; // loose upper bound on any rank sum
        let mut count = vec![vec![0.0f64; max_sum + 1]; n1 + 1];
        count[0][0] = 1.0;
        for rank in 1..=n {
            let top = n1.min(rank);
            for i in (1..=top).rev() {
                for s in (rank..=max_sum).rev() {
                    let add = count[i - 1][s - rank];
                    if add != 0.0 {
                        count[i][s] += add;
                    }
                }
            }
        }
        count.swap_remove(n1)
    }

    /// The p-value of rank sum `w`, summed over a [`rank_subset_row`].
    fn rank_subset_p(row: &[f64], w: u64, alt: Alternative) -> f64 {
        let max_sum = row.len() - 1;
        let total: f64 = row.iter().sum();
        let cdf_at =
            |x: u64| -> f64 { row[..=(x as usize).min(max_sum)].iter().sum::<f64>() / total };
        let sf_at = |x: u64| -> f64 {
            if x as usize > max_sum {
                0.0
            } else {
                row[(x as usize)..].iter().sum::<f64>() / total
            }
        };
        match alt {
            Alternative::Less => cdf_at(w),
            Alternative::Greater => sf_at(w),
            Alternative::TwoSided => (2.0 * cdf_at(w).min(sf_at(w))).min(1.0),
        }
    }

    #[test]
    fn exact_p_matches_the_rank_subset_dp() {
        // Every size pair up to 24 observations (the detector's n = 10
        // among them), every rank sum in the support and one either side.
        for n1 in 1..=12 {
            for n2 in 1..=12 {
                let row = rank_subset_row(n1, n2);
                let lo = (n1 * (n1 + 1) / 2) as u64;
                for w in lo - 1..=lo + (n1 * n2) as u64 + 1 {
                    for alt in ALTERNATIVES {
                        assert_eq!(
                            exact_p(w, n1, n2, alt).to_bits(),
                            rank_subset_p(&row, w, alt).to_bits(),
                            "n1={n1} n2={n2} w={w} {alt:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sample_rejected() {
        rank_sum_test(&[], &[1.0], Alternative::Less);
    }
}
