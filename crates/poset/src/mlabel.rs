use crate::{Dag, Interval, SpanningTree, TopoOrder, ValueId};

/// The single-interval labeling of Chan et al. (described in §II-B/§II-C)
/// that underlies **m-dominance** and the SDC family of baselines.
///
/// Each value carries only its spanning-tree interval `[minpost, post]`, so
/// only the preferences along *tree paths* are captured:
///
/// * containment ⟹ preference (never a false preference), but
/// * preference via a path with a non-tree edge is **missed**, which is what
///   makes m-dominance stronger than real dominance and forces the SDC
///   algorithms to cross-examine candidate skyline points.
///
/// The labeling also computes the *uncovered level* of every node — the
/// maximum number of non-tree edges on any incoming path (§II-C) — used by
/// SDC (2 strata: level 0 vs. the rest) and SDC+ (one stratum per level).
#[derive(Debug, Clone)]
pub struct MLabeling {
    topo: TopoOrder,
    tree: SpanningTree,
    uncovered: Vec<u32>,
    max_uncovered: u32,
}

impl MLabeling {
    /// Builds the labeling for `dag` with an explicit spanning tree.
    pub fn build(dag: &Dag, tree: SpanningTree) -> Self {
        let topo = TopoOrder::build(dag);
        // ul(v) = max over in-edges (u,v) of ul(u) + [edge is non-tree],
        // computed in topological order (all predecessors first).
        let mut uncovered = vec![0u32; dag.len()];
        let mut max_uncovered = 0;
        for v in topo.iter() {
            let mut best = 0u32;
            for &p in dag.parents(v) {
                let step = if tree.is_tree_edge(p, v) { 0 } else { 1 };
                best = best.max(uncovered[p.idx()] + step);
            }
            uncovered[v.idx()] = best;
            max_uncovered = max_uncovered.max(best);
        }
        MLabeling {
            topo,
            tree,
            uncovered,
            max_uncovered,
        }
    }

    /// Builds with the DFS spanning tree ([`SpanningTree::build`]).
    pub fn build_default(dag: &Dag) -> Self {
        Self::build(dag, SpanningTree::build(dag))
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.uncovered.len()
    }

    /// True iff the domain is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.uncovered.is_empty()
    }

    /// The topological order (shared convention with [`crate::TssLabeling`]).
    #[inline]
    pub fn topo(&self) -> &TopoOrder {
        &self.topo
    }

    /// The spanning tree.
    #[inline]
    pub fn tree(&self) -> &SpanningTree {
        &self.tree
    }

    /// The single `[minpost, post]` interval of `v`.
    #[inline]
    pub fn interval(&self, v: ValueId) -> Interval {
        self.tree.tree_interval(v)
    }

    /// m-preference: `x` is at least as good as `y` under the *tree-captured*
    /// order — their intervals coincide (same value) or `x`'s interval covers
    /// `y`'s. Sound (implies real preference-or-equality) but incomplete.
    #[inline]
    pub fn m_pref_or_equal(&self, x: ValueId, y: ValueId) -> bool {
        self.interval(x).contains(&self.interval(y))
    }

    /// Strict m-preference: proper containment of intervals (distinct values
    /// always have distinct intervals because post numbers are unique).
    #[inline]
    pub fn m_pref(&self, x: ValueId, y: ValueId) -> bool {
        x != y && self.m_pref_or_equal(x, y)
    }

    /// The uncovered level of `v`: the maximum number of non-tree edges on
    /// any incoming path. Level 0 ⟺ *completely covered* (every incoming
    /// path uses tree edges only), in which case m-dominance restricted to
    /// such values is exact.
    #[inline]
    pub fn uncovered_level(&self, v: ValueId) -> u32 {
        self.uncovered[v.idx()]
    }

    /// True iff `v` is completely covered (uncovered level 0).
    #[inline]
    pub fn completely_covered(&self, v: ValueId) -> bool {
        self.uncovered[v.idx()] == 0
    }

    /// The largest uncovered level in the domain; SDC+ creates
    /// `max_uncovered_level() + 1` strata.
    #[inline]
    pub fn max_uncovered_level(&self) -> u32 {
        self.max_uncovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reachability;
    use proptest::prelude::*;

    /// Fig. 2(a): the small numbers on top of the nodes are the uncovered
    /// levels — a,b,c,d have 0; e,f have 1; g,h,i have 2.
    #[test]
    fn paper_example_uncovered_levels() {
        let dag = Dag::paper_example();
        let ml = MLabeling::build(&dag, SpanningTree::paper_example(&dag));
        let ul = |s: &str| ml.uncovered_level(dag.id_of(s).unwrap());
        assert_eq!(ul("a"), 0);
        assert_eq!(ul("b"), 0);
        assert_eq!(ul("c"), 1); // non-tree a→c
        assert_eq!(ul("d"), 0);
        assert_eq!(ul("e"), 0);
        assert_eq!(ul("f"), 1); // via c
        assert_eq!(ul("g"), 2); // path a→c→g: two non-tree edges
        assert_eq!(ul("h"), 2); // via g (or f→h non-tree after c)
        assert_eq!(ul("i"), 2); // via g
        assert_eq!(ml.max_uncovered_level(), 2);
        assert!(ml.completely_covered(dag.id_of("a").unwrap()));
        assert!(!ml.completely_covered(dag.id_of("g").unwrap()));
    }

    #[test]
    fn m_pref_soundness_on_example() {
        let dag = Dag::paper_example();
        let reach = Reachability::build(&dag);
        let ml = MLabeling::build(&dag, SpanningTree::paper_example(&dag));
        let id = |s: &str| dag.id_of(s).unwrap();
        // Tree path: captured.
        assert!(ml.m_pref(id("a"), id("i")));
        // Non-tree-only path f ⤳ h: missed by the single interval...
        assert!(!ml.m_pref(id("f"), id("h")));
        // ...but real:
        assert!(reach.preferred(id("f"), id("h")));
    }

    fn arb_dag(max_n: usize) -> impl Strategy<Value = Dag> {
        (2..=max_n).prop_flat_map(|n| {
            let pairs: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
                .collect();
            let len = pairs.len();
            proptest::collection::vec(proptest::bool::weighted(0.3), len).prop_map(move |mask| {
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
        /// m-preference is SOUND: it never claims a preference that the real
        /// partial order lacks (m-dominance is *stronger* than dominance).
        #[test]
        fn m_pref_implies_reachability(dag in arb_dag(16)) {
            let reach = Reachability::build(&dag);
            let ml = MLabeling::build_default(&dag);
            for x in dag.values() {
                for y in dag.values() {
                    if ml.m_pref(x, y) {
                        prop_assert!(reach.preferred(x, y));
                    }
                }
            }
        }

        /// The stratum property SDC+ relies on (§II-C): a value can only be
        /// preferred over values of an equal-or-higher uncovered level, so
        /// points in later strata can never dominate earlier ones.
        #[test]
        fn uncovered_level_monotone_under_preference(dag in arb_dag(16)) {
            let reach = Reachability::build(&dag);
            let ml = MLabeling::build_default(&dag);
            for x in dag.values() {
                for y in dag.values() {
                    if reach.preferred(x, y) {
                        prop_assert!(
                            ml.uncovered_level(x) <= ml.uncovered_level(y),
                            "ul({:?})={} > ul({:?})={}",
                            x, ml.uncovered_level(x), y, ml.uncovered_level(y)
                        );
                    }
                }
            }
        }

        /// For completely covered values, m-preference is EXACT (the
        /// property that lets SDC output stratum-0 points progressively).
        #[test]
        fn m_pref_exact_on_completely_covered(dag in arb_dag(16)) {
            let reach = Reachability::build(&dag);
            let ml = MLabeling::build_default(&dag);
            for x in dag.values() {
                for y in dag.values() {
                    if ml.completely_covered(y) {
                        prop_assert_eq!(ml.m_pref(x, y), reach.preferred(x, y));
                    }
                }
            }
        }
    }
}
