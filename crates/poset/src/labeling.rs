use crate::{Dag, IntervalSet, SpanningTree, TopoOrder, ValueId};

/// The complete TSS labeling of a partially ordered domain (§III-B):
/// topological ordinals for *precedence* plus propagated, merged interval
/// sets for *exactness*.
///
/// For each value `v` the labeling stores the normalized interval set
///
/// ```text
/// L(v) = minimal intervals covering { post(u) : u reachable from v }
/// ```
///
/// computed by a reverse-topological DP
/// `L(v) = {[minpost(v), post(v)]} ∪ ⋃_{(v,w) ∈ E} L(w)` with
/// normalize-merge after each union. This is the "propagate intervals along
/// non-tree edges, then merge/subsume" procedure of the paper (Fig. 2(d)) —
/// propagating along tree edges as well is harmless (a tree child's own
/// interval is subsumed by the parent's) and is what carries foreign
/// intervals upward, exactly as the paper's narration ("`[3,3]` is copied to f
/// and subsequently to c, b and a").
///
/// # Exactness
///
/// Because post numbers are unique per node, `L(y) ⊆ L(x)` (as integer sets)
/// iff `post(y) ∈ L(x)` iff `x` reaches `y`. Hence the t-preference test of
/// Definition 1 — every run of `y` contained in a run of `x` — decides
/// reachability with neither false hits nor false misses. Property-tested
/// against [`crate::Reachability`] in this module.
#[derive(Debug, Clone)]
pub struct TssLabeling {
    topo: TopoOrder,
    tree: SpanningTree,
    sets: Vec<IntervalSet>,
}

impl TssLabeling {
    /// Builds the labeling with an explicitly chosen spanning tree.
    pub fn build(dag: &Dag, tree: SpanningTree) -> Self {
        let topo = TopoOrder::build(dag);
        let mut sets: Vec<IntervalSet> = vec![IntervalSet::empty(); dag.len()];
        // Reverse topological order: all successors are labeled before v.
        for v in topo.iter_rev() {
            let mut set = IntervalSet::single(tree.tree_interval(v));
            for &w in dag.children(v) {
                set.union_in_place(&sets[w.idx()]);
            }
            sets[v.idx()] = set;
        }
        TssLabeling { topo, tree, sets }
    }

    /// Builds with the DFS spanning tree ([`SpanningTree::build`]).
    pub fn build_default(dag: &Dag) -> Self {
        Self::build(dag, SpanningTree::build(dag))
    }

    /// Number of values in the domain.
    #[inline]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True iff the domain is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The topological order used for the `A_TO` mapping.
    #[inline]
    pub fn topo(&self) -> &TopoOrder {
        &self.topo
    }

    /// The spanning tree underlying the interval labels.
    #[inline]
    pub fn tree(&self) -> &SpanningTree {
        &self.tree
    }

    /// The 1-based ordinal of `v` in the topologically sorted domain.
    #[inline]
    pub fn ordinal(&self, v: ValueId) -> u32 {
        self.topo.ordinal(v)
    }

    /// The final (propagated + merged) interval set of `v` — the "Final"
    /// column of Fig. 2(d).
    #[inline]
    pub fn intervals(&self, v: ValueId) -> &IntervalSet {
        &self.sets[v.idx()]
    }

    /// The postorder number of `v` under the spanning tree.
    #[inline]
    pub fn post(&self, v: ValueId) -> u32 {
        self.tree.post(v)
    }

    /// *t-preference* (Definition 1): `x` is t-preferred over `y` iff
    /// `x ≠ y` and every interval of `y` is contained in (or coincides with)
    /// an interval of `x`. Exact: equivalent to "`x` is preferred over `y`".
    #[inline]
    pub fn t_pref(&self, x: ValueId, y: ValueId) -> bool {
        x != y && self.sets[x.idx()].covers_set(&self.sets[y.idx()])
    }

    /// Merged interval set for a *range of ordinals* `[lo, hi]` (1-based,
    /// inclusive): the normalized union of `L(v)` over every value whose
    /// topological ordinal falls in the range.
    ///
    /// This is the quantity the MBB t-dominance check needs (§IV-A): an MBB
    /// whose `A_TO` extent is `[lo, hi]` may contain points with any of those
    /// values. Computed naively here in `O(range)`; [`crate::DyadicIndex`]
    /// answers the same query in `O(log)` from precomputed dyadic ranges.
    pub fn range_intervals(&self, lo: u32, hi: u32) -> IntervalSet {
        debug_assert!(lo >= 1 && hi as usize <= self.len() && lo <= hi);
        let mut acc = IntervalSet::empty();
        for ord in lo..=hi {
            acc.union_in_place(&self.sets[self.topo.value_at(ord).idx()]);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::tests::descendants;
    use crate::{Interval, Reachability};
    use proptest::prelude::*;

    /// Asserts the complete "Final" column of Fig. 2(d).
    #[test]
    fn fig2d_final_column() {
        let dag = Dag::paper_example();
        let tree = SpanningTree::paper_example(&dag);
        let lab = TssLabeling::build(&dag, tree);
        let set = |s: &str| lab.intervals(dag.id_of(s).unwrap()).to_string();
        assert_eq!(set("a"), "{[1,9]}");
        assert_eq!(set("b"), "{[1,8]}");
        assert_eq!(set("c"), "{[1,5]}"); // [1,2] ∪ [3,3] ∪ [3,5] merged
        assert_eq!(set("d"), "{[3,6]}");
        assert_eq!(set("e"), "{[3,5] [7,7]}");
        assert_eq!(set("f"), "{[1,1] [3,3]}");
        assert_eq!(set("g"), "{[3,5]}");
        assert_eq!(set("h"), "{[3,3]}");
        assert_eq!(set("i"), "{[4,4]}");
    }

    /// The paper's worked t-preference example: "The single interval [3,3]
    /// associated with h coincides with one of f's intervals; hence, f is
    /// t-preferred over h."
    #[test]
    fn f_is_t_preferred_over_h() {
        let dag = Dag::paper_example();
        let lab = TssLabeling::build(&dag, SpanningTree::paper_example(&dag));
        let id = |s: &str| dag.id_of(s).unwrap();
        assert!(lab.t_pref(id("f"), id("h")));
        assert!(!lab.t_pref(id("h"), id("f")));
        // §III-B: c and d are incomparable despite adjacent ordinals.
        assert!(!lab.t_pref(id("c"), id("d")));
        assert!(!lab.t_pref(id("d"), id("c")));
        // Not reflexive.
        assert!(!lab.t_pref(id("c"), id("c")));
    }

    #[test]
    fn exactness_on_paper_example() {
        let dag = Dag::paper_example();
        let reach = Reachability::build(&dag);
        for (name, tree) in [
            ("dfs", SpanningTree::build(&dag)),
            ("fig2a", SpanningTree::paper_example(&dag)),
        ] {
            let lab = TssLabeling::build(&dag, tree);
            for x in dag.values() {
                for y in dag.values() {
                    assert_eq!(
                        lab.t_pref(x, y),
                        reach.preferred(x, y),
                        "{name}: {} vs {}",
                        dag.label(x),
                        dag.label(y)
                    );
                }
            }
        }
    }

    #[test]
    fn range_intervals_match_pointwise_union() {
        let dag = Dag::paper_example();
        let lab = TssLabeling::build(&dag, SpanningTree::paper_example(&dag));
        // Range of ordinals {f..h} = 6..8 (f, g, h).
        let got = lab.range_intervals(6, 8);
        let mut expect = IntervalSet::empty();
        for s in ["f", "g", "h"] {
            expect.union_in_place(lab.intervals(dag.id_of(s).unwrap()));
        }
        assert_eq!(got, expect);
        // Full-domain range covers every post number.
        let full = lab.range_intervals(1, 9);
        assert_eq!(full.intervals(), &[Interval::new(1, 9)]);
    }

    #[test]
    fn interval_set_cardinality_equals_descendant_count() {
        let dag = Dag::paper_example();
        let reach = Reachability::build(&dag);
        let lab = TssLabeling::build_default(&dag);
        for v in dag.values() {
            assert_eq!(
                lab.intervals(v).cardinality() as usize,
                descendants(&reach, v).len(),
                "L({}) must cover exactly the reachable posts",
                dag.label(v)
            );
        }
    }

    /// Random-DAG strategy for property tests: `n` nodes, each edge
    /// `(i, j), i < j` present independently — always acyclic.
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
                Dag::from_edges(n as u32, &edges).expect("forward edges are acyclic")
            })
        })
    }

    proptest! {
        /// The central invariant of the paper: the propagated labeling is
        /// EXACT — t-preference coincides with reachability for every pair,
        /// on random DAGs, under random spanning forests: each value's tree
        /// parent is one of its DAG parents, or none.
        #[test]
        fn t_pref_equals_reachability(
            dag in arb_dag(18),
            picks in proptest::collection::vec(0usize..4, 18),
        ) {
            let parents = dag
                .values()
                .map(|v| match (dag.parents(v), picks[v.idx()]) {
                    ([], _) | (_, 0) => None,
                    (ps, k) => Some(ps[(k - 1) % ps.len()]),
                })
                .collect();
            let tree = SpanningTree::from_parents(&dag, parents).unwrap();
            let reach = Reachability::build(&dag);
            let lab = TssLabeling::build(&dag, tree);
            for x in dag.values() {
                for y in dag.values() {
                    prop_assert_eq!(lab.t_pref(x, y), reach.preferred(x, y));
                }
            }
        }

        /// L(v) covers exactly the posts of reachable nodes.
        #[test]
        fn label_covers_exactly_reachable_posts(dag in arb_dag(16)) {
            let reach = Reachability::build(&dag);
            let lab = TssLabeling::build_default(&dag);
            for v in dag.values() {
                let expect: std::collections::BTreeSet<u32> = descendants(&reach, v)
                    .into_iter()
                    .map(|u| lab.post(u))
                    .collect();
                let got: std::collections::BTreeSet<u32> = lab
                    .intervals(v)
                    .intervals()
                    .iter()
                    .flat_map(|iv| iv.lo..=iv.hi)
                    .collect();
                prop_assert_eq!(got, expect);
            }
        }

        /// Topological ordinals extend the partial order.
        #[test]
        fn ordinals_extend_preferences(dag in arb_dag(16)) {
            let reach = Reachability::build(&dag);
            let lab = TssLabeling::build_default(&dag);
            for x in dag.values() {
                for y in dag.values() {
                    if reach.preferred(x, y) {
                        prop_assert!(lab.ordinal(x) < lab.ordinal(y));
                    }
                }
            }
        }

        /// Range queries equal the pointwise union over the range.
        #[test]
        fn range_union_correct(dag in arb_dag(12), lo in 1u32..6, width in 0u32..6) {
            let lab = TssLabeling::build_default(&dag);
            let n = lab.len() as u32;
            let lo = lo.min(n);
            let hi = (lo + width).min(n);
            let got = lab.range_intervals(lo, hi);
            let mut expect = IntervalSet::empty();
            for ord in lo..=hi {
                expect.union_in_place(lab.intervals(lab.topo().value_at(ord)));
            }
            prop_assert_eq!(got, expect);
        }
    }
}
