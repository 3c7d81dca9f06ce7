use crate::{IntervalSet, TssLabeling};

/// Precomputed merged interval sets for the *dyadic ranges* of the
/// topologically sorted domain `A_TO` (§IV-B, first optimization).
///
/// The MBB t-dominance check needs, for an arbitrary ordinal range `r`, the
/// normalized union of the interval sets of all values in `r`. Computing it
/// on the fly touches `|r|` sets; precomputing *every* range costs
/// `O(|A_TO|²)` space. The paper's middle ground stores only the dyadic
/// ranges — the nodes of a binary tree over the domain — so that any range
/// decomposes into `O(log |r|)` precomputed pieces at linear storage.
///
/// The index is a classic segment tree: node 1 covers the whole (padded,
/// power-of-two) domain, node `i` has children `2i` and `2i+1`. Leaves hold
/// `L(v)` for the value `v` with that ordinal (empty for padding).
#[derive(Debug, Clone)]
pub struct DyadicIndex {
    /// Segment tree nodes, 1-based; `sets[0]` unused.
    sets: Vec<IntervalSet>,
    /// Padded size (power of two) of the leaf level.
    size: usize,
    /// Actual domain cardinality.
    domain: usize,
}

impl DyadicIndex {
    /// Builds the index from a [`TssLabeling`].
    pub fn build(labeling: &TssLabeling) -> Self {
        let domain = labeling.len();
        let size = domain.next_power_of_two().max(1);
        let mut sets = vec![IntervalSet::empty(); 2 * size];
        for ord in 1..=domain as u32 {
            let v = labeling.topo().value_at(ord);
            sets[size + (ord as usize - 1)] = labeling.intervals(v).clone();
        }
        for i in (1..size).rev() {
            sets[i] = sets[2 * i].union(&sets[2 * i + 1]);
        }
        DyadicIndex { sets, size, domain }
    }

    /// The interval set of the value holding ordinal `ord` (1-based): the
    /// range `[ord, ord]`, read off its leaf without a merge.
    #[inline]
    pub fn at(&self, ord: u32) -> &IntervalSet {
        assert!(
            ord >= 1 && ord as usize <= self.domain,
            "ordinal {ord} out of domain 1..={}",
            self.domain
        );
        &self.sets[self.size + (ord as usize - 1)]
    }

    /// Merged interval set of the ordinal range `[lo, hi]` (1-based,
    /// inclusive), assembled from `O(log)` precomputed dyadic sets.
    pub fn range(&self, lo: u32, hi: u32) -> IntervalSet {
        assert!(
            lo >= 1 && lo <= hi && hi as usize <= self.domain,
            "ordinal range [{lo},{hi}] out of domain 1..={}",
            self.domain
        );
        let mut acc = IntervalSet::empty();
        // Standard iterative segment-tree walk over [l, r).
        let mut l = self.size + (lo as usize - 1);
        let mut r = self.size + hi as usize; // exclusive
        while l < r {
            if l & 1 == 1 {
                acc.union_in_place(&self.sets[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                acc.union_in_place(&self.sets[r]);
            }
            l /= 2;
            r /= 2;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dag, SpanningTree, TssLabeling};
    use proptest::prelude::*;

    fn paper_labeling() -> (Dag, TssLabeling) {
        let dag = Dag::paper_example();
        let tree = SpanningTree::paper_example(&dag);
        let lab = TssLabeling::build(&dag, tree);
        (dag, lab)
    }

    #[test]
    fn matches_naive_on_paper_example() {
        let (_, lab) = paper_labeling();
        let idx = DyadicIndex::build(&lab);
        for lo in 1..=9u32 {
            assert_eq!(
                idx.at(lo),
                lab.intervals(lab.topo().value_at(lo)),
                "leaf {lo}"
            );
            for hi in lo..=9u32 {
                assert_eq!(
                    idx.range(lo, hi),
                    lab.range_intervals(lo, hi),
                    "range [{lo},{hi}]"
                );
            }
        }
    }

    /// The worked example of §IV-A step 7: MBB N4 spans values f..g
    /// (ordinals 6..7); their intervals {[1,1],[3,3]} ∪ {[3,5]} merge to
    /// {[1,1],[3,5]}.
    #[test]
    fn n4_range_from_the_table2_walkthrough() {
        let (_, lab) = paper_labeling();
        let idx = DyadicIndex::build(&lab);
        assert_eq!(idx.range(6, 7).to_string(), "{[1,1] [3,5]}");
    }

    #[test]
    fn single_value_domain() {
        let dag = Dag::from_edges(1, &[]).unwrap();
        let lab = TssLabeling::build_default(&dag);
        let idx = DyadicIndex::build(&lab);
        assert_eq!(idx.range(1, 1), lab.range_intervals(1, 1));
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_range_panics() {
        let (_, lab) = paper_labeling();
        let idx = DyadicIndex::build(&lab);
        let _ = idx.range(1, 10);
    }

    #[test]
    fn non_power_of_two_domain() {
        // 6 values in a chain: every range is a single interval.
        let dag = Dag::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let lab = TssLabeling::build_default(&dag);
        let idx = DyadicIndex::build(&lab);
        for lo in 1..=6u32 {
            for hi in lo..=6u32 {
                assert_eq!(idx.range(lo, hi), lab.range_intervals(lo, hi));
            }
        }
    }

    fn arb_dag(max_n: usize) -> impl Strategy<Value = Dag> {
        (2..=max_n).prop_flat_map(|n| {
            let pairs: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
                .collect();
            let len = pairs.len();
            proptest::collection::vec(proptest::bool::weighted(0.25), len).prop_map(move |mask| {
                let edges: Vec<(u32, u32)> = pairs
                    .iter()
                    .zip(mask)
                    .filter_map(|(&e, keep)| keep.then_some(e))
                    .collect();
                Dag::from_edges(n as u32, &edges).unwrap()
            })
        })
    }

    proptest! {
        /// Dyadic assembly is exactly the naive union for every range.
        #[test]
        fn dyadic_equals_naive(dag in arb_dag(14)) {
            let lab = TssLabeling::build_default(&dag);
            let idx = DyadicIndex::build(&lab);
            let n = lab.len() as u32;
            for lo in 1..=n {
                for hi in lo..=n {
                    prop_assert_eq!(idx.range(lo, hi), lab.range_intervals(lo, hi));
                }
            }
        }
    }
}
