//! Top-k selection over a rank vector.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A candidate ordered so that `a < b` means `a` ranks ahead of `b`: higher
/// rank first, ties by ascending vertex id, NaN after every other rank.
#[derive(Clone, Copy)]
struct Ranked(u32, f32);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.1
            .is_nan()
            .cmp(&other.1.is_nan())
            .then_with(|| other.1.partial_cmp(&self.1).unwrap_or(Ordering::Equal))
            .then(self.0.cmp(&other.0))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The `k` highest-ranked vertices as `(id, rank)`, rank descending, ties
/// by ascending id; NaN ranks sort after every other rank. One scan keeps
/// the best `k` seen so far in a bounded heap whose top is the weakest
/// kept entry, so the cost is O(n log k) and a NaN never panics.
pub fn top_k(ranks: &[f32], k: usize) -> Vec<(u32, f32)> {
    let k = k.min(ranks.len());
    if k == 0 {
        return Vec::new();
    }
    let mut kept = BinaryHeap::with_capacity(k);
    for (v, &r) in (0u32..).zip(ranks) {
        let cand = Ranked(v, r);
        if kept.len() < k {
            kept.push(cand);
        } else if let Some(mut weakest) = kept.peek_mut() {
            if cand < *weakest {
                *weakest = cand;
            }
        }
    }
    kept.into_sorted_vec().into_iter().map(|Ranked(v, r)| (v, r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Full-sort oracle: the sort `top_k` replaced, with NaN placed last.
    fn top_k_by_sort(ranks: &[f32], k: usize) -> Vec<(u32, f32)> {
        let mut idx: Vec<u32> = (0..ranks.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            let (ra, rb) = (ranks[a as usize], ranks[b as usize]);
            match (ra.is_nan(), rb.is_nan()) {
                (false, false) => rb.partial_cmp(&ra).unwrap().then(a.cmp(&b)),
                (nan_a, nan_b) => nan_a.cmp(&nan_b).then(a.cmp(&b)),
            }
        });
        idx.into_iter().take(k).map(|v| (v, ranks[v as usize])).collect()
    }

    /// Bitwise view, so NaN entries compare equal to themselves.
    fn bits(top: &[(u32, f32)]) -> Vec<(u32, u32)> {
        top.iter().map(|&(v, r)| (v, r.to_bits())).collect()
    }

    #[test]
    fn ties_break_by_id_and_nan_sorts_last() {
        let ranks = [0.5f32, f32::NAN, 0.5, 1.0, f32::NEG_INFINITY, f32::NAN, 0.0];
        let got: Vec<u32> = top_k(&ranks, 7).into_iter().map(|(v, _)| v).collect();
        assert_eq!(got, [3, 0, 2, 6, 4, 1, 5]);
        assert!(top_k(&ranks, 0).is_empty());
        assert_eq!(top_k(&ranks, 100).len(), ranks.len());
        assert!(top_k(&[], 3).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_full_sort(
            // A few distinct values force ties; code 4 stands for NaN and
            // code 5 for -0.0, which ties with 0.0.
            codes in prop::collection::vec(0u8..6, 0..60),
            k in 0usize..70,
        ) {
            let ranks: Vec<f32> =
                codes.iter().map(|&c| match c {
                    4 => f32::NAN,
                    5 => -0.0,
                    _ => c as f32 * 0.25,
                }).collect();
            prop_assert_eq!(bits(&top_k(&ranks, k)), bits(&top_k_by_sort(&ranks, k)));
        }
    }
}
