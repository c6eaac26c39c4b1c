//! Ranking with midrank tie handling.

/// Assigns ranks `1..=n` to `values`, resolving ties by assigning each tied
/// group the average of the ranks it spans (midranks) — the convention the
/// Wilcoxon rank-sum test requires.
///
/// Returns the rank of each input element, in input order.
///
/// # Panics
///
/// Panics if any value is NaN (NaN has no rank).
///
/// # Example
///
/// ```
/// use mg_stats::rank::midranks;
///
/// assert_eq!(midranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
/// ```
pub fn midranks(values: &[f64]) -> Vec<f64> {
    assert!(
        values.iter().all(|v| !v.is_nan()),
        "cannot rank NaN values"
    );
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("no NaN"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // Elements idx[i..=j] are tied; they occupy ranks i+1 ..= j+1.
        let midrank = (i + 1 + j + 1) as f64 / 2.0;
        for &k in &idx[i..=j] {
            ranks[k] = midrank;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_ties_is_a_permutation_of_1_to_n() {
        let r = midranks(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(r, vec![5.0, 1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn all_tied_share_the_mean_rank() {
        let r = midranks(&[7.0, 7.0, 7.0, 7.0]);
        assert_eq!(r, vec![2.5, 2.5, 2.5, 2.5]);
    }

    #[test]
    fn mixed_ties() {
        // sorted: 1 2 2 3 3 3 9 -> ranks 1, 2.5, 2.5, 5, 5, 5, 7
        let r = midranks(&[3.0, 1.0, 2.0, 3.0, 9.0, 2.0, 3.0]);
        assert_eq!(r, vec![5.0, 1.0, 2.5, 5.0, 7.0, 2.5, 5.0]);
    }

    #[test]
    fn rank_sum_is_invariant() {
        // Σ ranks = n(n+1)/2 regardless of ties.
        for values in [
            vec![1.0, 2.0, 3.0, 4.0],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![2.0, 2.0, 8.0, 8.0],
        ] {
            let s: f64 = midranks(&values).iter().sum();
            assert_eq!(s, 10.0);
        }
    }

    #[test]
    fn empty_input() {
        assert!(midranks(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot rank NaN")]
    fn nan_rejected() {
        midranks(&[1.0, f64::NAN]);
    }
}
