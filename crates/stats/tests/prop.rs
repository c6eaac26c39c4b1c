//! Property-based tests for the statistics crate (mg-testkit harness).

use mg_stats::filter::Arma;
use mg_stats::normal;
use mg_stats::rank::midranks;
use mg_stats::ttest::welch_t_test;
use mg_stats::wilcoxon::{
    rank_sum_test, Alternative, Method, RankSumResult, RankSumScratch, EXACT_LIMIT,
};
use mg_testkit::prop::{check, Gen, TkResult};
use mg_testkit::{tk_assert, tk_assert_eq};
use std::cell::RefCell;

fn sample(g: &mut Gen, max_len: usize) -> Vec<f64> {
    g.vec_f64(2..max_len, -1e3..1e3)
}

/// Midranks always sum to n(n+1)/2 and lie in [1, n].
#[test]
fn midrank_sum_invariant() {
    check("midrank_sum_invariant", |g: &mut Gen| -> TkResult {
        let values = sample(g, 60);
        let ranks = midranks(&values);
        let n = values.len() as f64;
        let sum: f64 = ranks.iter().sum();
        tk_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        for &r in &ranks {
            tk_assert!((1.0..=n).contains(&r));
        }
        Ok(())
    });
}

/// Ranking is invariant under order-preserving (affine, positive-slope)
/// transformations.
#[test]
fn midranks_affine_invariant() {
    check("midranks_affine_invariant", |g: &mut Gen| -> TkResult {
        let values = sample(g, 40);
        let scale = g.f64_in(0.1..10.0);
        let shift = g.f64_in(-100.0..100.0);
        let transformed: Vec<f64> = values.iter().map(|v| v * scale + shift).collect();
        tk_assert_eq!(midranks(&values), midranks(&transformed));
        Ok(())
    });
}

/// p-values are probabilities, and Less/Greater are complementary up to
/// the point mass at the observed statistic.
#[test]
fn rank_sum_p_bounds() {
    check("rank_sum_p_bounds", |g: &mut Gen| -> TkResult {
        let a = sample(g, 30);
        let b = sample(g, 30);
        for alt in [Alternative::Less, Alternative::Greater, Alternative::TwoSided] {
            let r = rank_sum_test(&a, &b, alt);
            tk_assert!((0.0..=1.0).contains(&r.p_value), "{alt:?}: {}", r.p_value);
        }
        let less = rank_sum_test(&a, &b, Alternative::Less).p_value;
        let greater = rank_sum_test(&a, &b, Alternative::Greater).p_value;
        // P(W <= w) + P(W >= w) = 1 + P(W = w) >= 1 (exact); approximately
        // holds for the normal path too (continuity correction overlaps).
        tk_assert!(less + greater >= 0.95, "less {less} + greater {greater}");
        Ok(())
    });
}

/// Shifting one sample down can only make the Less-p smaller (or equal).
#[test]
fn rank_sum_monotone_under_shift() {
    check("rank_sum_monotone_under_shift", |g: &mut Gen| -> TkResult {
        let a = sample(g, 25);
        let b = sample(g, 25);
        let shift = g.f64_in(0.0..500.0);
        let shifted: Vec<f64> = a.iter().map(|v| v - shift).collect();
        let p0 = rank_sum_test(&a, &b, Alternative::Less).p_value;
        let p1 = rank_sum_test(&shifted, &b, Alternative::Less).p_value;
        tk_assert!(p1 <= p0 + 1e-9, "shift {shift}: {p0} -> {p1}");
        Ok(())
    });
}

/// Swapping the samples swaps the roles of Less and Greater.
#[test]
fn rank_sum_swap_symmetry() {
    check("rank_sum_swap_symmetry", |g: &mut Gen| -> TkResult {
        let a = sample(g, 20);
        let b = sample(g, 20);
        let ab = rank_sum_test(&a, &b, Alternative::Less).p_value;
        let ba = rank_sum_test(&b, &a, Alternative::Greater).p_value;
        tk_assert!((ab - ba).abs() < 1e-9, "{ab} vs {ba}");
        Ok(())
    });
}

/// Welch t p-values are probabilities and the statistic is antisymmetric.
#[test]
fn welch_antisymmetric() {
    check("welch_antisymmetric", |g: &mut Gen| -> TkResult {
        let a = sample(g, 20);
        let b = sample(g, 20);
        let r1 = welch_t_test(&a, &b, Alternative::TwoSided);
        let r2 = welch_t_test(&b, &a, Alternative::TwoSided);
        tk_assert!((0.0..=1.0).contains(&r1.p_value));
        tk_assert!((r1.t + r2.t).abs() < 1e-9);
        tk_assert!((r1.p_value - r2.p_value).abs() < 1e-9);
        Ok(())
    });
}

/// The normal CDF is monotone and its quantile inverts it.
#[test]
fn normal_cdf_quantile_inverse() {
    check("normal_cdf_quantile_inverse", |g: &mut Gen| -> TkResult {
        let p = g.f64_in(0.0005..0.9995);
        let x = normal::quantile(p);
        tk_assert!((normal::cdf(x) - p).abs() < 1e-6);
        Ok(())
    });
}

/// The ARMA estimate always stays inside the convex hull of its inputs.
#[test]
fn arma_stays_in_input_hull() {
    check("arma_stays_in_input_hull", |g: &mut Gen| -> TkResult {
        let alpha = g.f64_in(0.0..0.999);
        let window = g.usize_in(1..50);
        let inputs = g.vec_f64(1..500, 0.0..1.0);
        let mut f = Arma::new(alpha, window);
        for &x in &inputs {
            f.push(x);
        }
        tk_assert!((0.0..=1.0).contains(&f.value()), "{}", f.value());
        Ok(())
    });
}

/// push_n(x, k) equals k pushes of x.
#[test]
fn arma_push_n_equivalence() {
    check("arma_push_n_equivalence", |g: &mut Gen| -> TkResult {
        let alpha = g.f64_in(0.0..0.999);
        let window = g.usize_in(1..20);
        let runs = g.vec(1..20, |g| (g.f64_in(0.0..1.0), g.u64_in(1..40)));
        let mut a = Arma::new(alpha, window);
        let mut b = Arma::new(alpha, window);
        for &(v, k) in &runs {
            a.push_n(v, k);
            for _ in 0..k {
                b.push(v);
            }
        }
        tk_assert_eq!(a.updates(), b.updates());
        tk_assert!((a.value() - b.value()).abs() < 1e-9);
        Ok(())
    });
}

/// The tie-group sizes of `values` (groups of equal values, in ascending
/// value order; groups of one included), from a sort of its own: the
/// second sort of the two-sort oracle below.
fn tie_groups(values: &[f64]) -> Vec<usize> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mut groups = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j + 1 < sorted.len() && sorted[j + 1] == sorted[i] {
            j += 1;
        }
        groups.push(j - i + 1);
        i = j + 1;
    }
    groups
}

#[test]
fn tie_groups_oracle_counts() {
    assert_eq!(tie_groups(&[3.0, 1.0, 3.0, 3.0, 2.0, 2.0]), vec![1, 2, 3]);
    assert_eq!(tie_groups(&[4.0]), vec![1]);
    assert_eq!(tie_groups(&[0.0, -0.0, 1.0]), vec![2, 1]);
    assert!(tie_groups(&[]).is_empty());
}

/// The exact p-value of rank sum `w`, by the DP over rank subsets (the
/// number of ways to pick `n1` of the ranks `1..=n1+n2` with each sum). Its
/// counts are integers below 2^53, so its sums are exact in any order.
fn rank_subset_p(w: f64, n1: usize, n2: usize, alt: Alternative) -> f64 {
    let n = n1 + n2;
    let max_sum = n1 * n;
    let mut count = vec![vec![0.0f64; max_sum + 1]; n1 + 1];
    count[0][0] = 1.0;
    for rank in 1..=n {
        for i in (1..=n1.min(rank)).rev() {
            for s in (rank..=max_sum).rev() {
                count[i][s] += count[i - 1][s - rank];
            }
        }
    }
    let row = &count[n1];
    let total: f64 = row.iter().sum();
    let w = w as usize;
    let cdf = row[..=w.min(max_sum)].iter().sum::<f64>() / total;
    let sf = if w > max_sum { 0.0 } else { row[w..].iter().sum::<f64>() / total };
    match alt {
        Alternative::Less => cdf,
        Alternative::Greater => sf,
        Alternative::TwoSided => (2.0 * cdf.min(sf)).min(1.0),
    }
}

/// The normal approximation with tie-variance and continuity corrections.
fn normal_approx_p(w: f64, n1: usize, n2: usize, ties: &[usize], alt: Alternative) -> f64 {
    let (n1f, n2f) = (n1 as f64, n2 as f64);
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

/// The rank-sum test the two-sort way: `midranks` for the statistic and
/// `tie_groups` for the tie correction, each sorting the pooled sample.
fn two_sort_rank_sum(first: &[f64], second: &[f64], alt: Alternative) -> RankSumResult {
    let (n1, n2) = (first.len(), second.len());
    let all: Vec<f64> = first.iter().chain(second).copied().collect();
    let w: f64 = midranks(&all)[..n1].iter().sum();
    let u = w - (n1 * (n1 + 1)) as f64 / 2.0;
    let ties = tie_groups(&all);
    let (p, method) = if ties.iter().all(|&t| t == 1) && n1 * n2 <= EXACT_LIMIT {
        (rank_subset_p(w, n1, n2, alt), Method::Exact)
    } else {
        (normal_approx_p(w, n1, n2, &ties, alt), Method::NormalApprox)
    };
    RankSumResult { w, u, p_value: p.clamp(0.0, 1.0), method, n1, n2 }
}

/// A batch the way a pool judges one: `xs` dictated back-offs (integers in
/// `0..32`), `ys` estimated ones. `ties` picks the estimates: 1 clamped at
/// zero with a share rounded to integers (many ties with each other and
/// with `xs`), 2 a few integers with `-0.0` next to `0.0`. At 0 both
/// samples are continuous, so they are tie-free and batches of 10 and 20
/// take the exact path.
fn pool_batch(g: &mut Gen, n: usize, ties: u8) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = match ties {
        0 => (0..n).map(|_| g.f64_in(0.0..32.0)).collect(),
        _ => (0..n).map(|_| g.u64_in(0..32) as f64).collect(),
    };
    let ys = (0..n)
        .map(|_| match ties {
            0 => g.f64_in(-5.0..40.0),
            1 => {
                let y = g.f64_in(-10.0..40.0).max(0.0);
                if g.bool() {
                    y.round()
                } else {
                    y
                }
            }
            _ => match g.u8_in(0..4) {
                0 => -0.0,
                1 => 0.0,
                k => f64::from(k),
            },
        })
        .collect();
    (xs, ys)
}

/// One reused `RankSumScratch` agrees bit for bit with the two-sort path
/// (`w`, `u`, `p_value`, `method`), for every alternative, over batches of
/// 10, 20, 50 and 100 (both sides of `EXACT_LIMIT`), with and without ties.
#[test]
fn rank_sum_scratch_matches_two_sort_path() {
    let scratch = RefCell::new(RankSumScratch::new());
    check("rank_sum_scratch_matches_two_sort_path", |g: &mut Gen| -> TkResult {
        let n = [10, 20, 50, 100][g.usize_in(0..4)];
        let ties = g.u8_in(0..3);
        let (xs, ys) = pool_batch(g, n, ties);
        for alt in [Alternative::Less, Alternative::Greater, Alternative::TwoSided] {
            let got = scratch.borrow_mut().test(&ys, &xs, alt);
            let want = two_sort_rank_sum(&ys, &xs, alt);
            tk_assert_eq!(got.w.to_bits(), want.w.to_bits(), "w, n {n}, {alt:?}");
            tk_assert_eq!(got.u.to_bits(), want.u.to_bits(), "u, n {n}, {alt:?}");
            tk_assert_eq!(
                got.p_value.to_bits(),
                want.p_value.to_bits(),
                "p {} vs {}, n {n}, {alt:?}",
                got.p_value,
                want.p_value
            );
            tk_assert_eq!(got.method, want.method, "n {n}, {alt:?}");
            tk_assert_eq!((got.n1, got.n2), (n, n));
            tk_assert_eq!(rank_sum_test(&ys, &xs, alt), got);
        }
        Ok(())
    });
}
