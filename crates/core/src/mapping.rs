use poset::{Dag, DyadicIndex, IntervalSet, Reachability, TssLabeling, ValueId};
use std::sync::Arc;

/// Everything TSS precomputes about one partially ordered domain: the DAG,
/// its exact interval labeling (topological ordinals + propagated interval
/// sets), the dyadic range index over the topologically sorted domain, and
/// the bitset transitive closure (ground truth, used by oracles and by the
/// baselines' exact cross-checks).
///
/// The structures are immutable once built and shared behind one [`Arc`]:
/// a clone is a reference count, so a session cache hands its labelings
/// to every query without copying them.
#[derive(Debug, Clone)]
pub struct PoDomain(Arc<Parts>);

/// The precomputed structures of a [`PoDomain`].
#[derive(Debug, Clone)]
struct Parts {
    dag: Dag,
    labeling: TssLabeling,
    dyadic: DyadicIndex,
    reach: Reachability,
}

impl PoDomain {
    /// Precomputes all structures for `dag` (DFS spanning tree).
    pub fn new(dag: Dag) -> Self {
        let labeling = TssLabeling::build_default(&dag);
        let dyadic = DyadicIndex::build(&labeling);
        let reach = Reachability::build(&dag);
        PoDomain(Arc::new(Parts {
            dag,
            labeling,
            dyadic,
            reach,
        }))
    }

    /// A copy that shares nothing with this domain, every part allocated at
    /// its exact size: a freshly built domain still holds spare capacity
    /// from its construction, which a cache should not keep alive.
    pub(crate) fn compact(&self) -> PoDomain {
        PoDomain(Arc::new((*self.0).clone()))
    }

    /// The domain DAG.
    #[inline]
    pub fn dag(&self) -> &Dag {
        &self.0.dag
    }

    /// The exact TSS labeling.
    #[inline]
    pub fn labeling(&self) -> &TssLabeling {
        &self.0.labeling
    }

    /// The transitive closure.
    #[inline]
    pub fn reach(&self) -> &Reachability {
        &self.0.reach
    }

    /// Domain cardinality.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.dag.len()
    }

    /// True iff the domain is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.dag.is_empty()
    }

    /// The topological ordinal (1-based) of a raw value id — the value's
    /// coordinate in the constructed `A_TO` dimension.
    #[inline]
    pub fn ordinal(&self, raw: u32) -> u32 {
        self.0.labeling.ordinal(ValueId(raw))
    }

    /// The interval set of a raw value id.
    #[inline]
    pub fn intervals(&self, raw: u32) -> &IntervalSet {
        self.0.labeling.intervals(ValueId(raw))
    }

    /// Merged interval set for an ordinal range, via the dyadic index.
    #[inline]
    pub fn range_intervals(&self, lo: u32, hi: u32) -> IntervalSet {
        self.0.dyadic.range(lo, hi)
    }

    /// "At least as good": equal values or exact preference.
    ///
    /// Answered with one bit probe of the precomputed transitive closure —
    /// the cheapest exact decision for a *value pair*. The interval labels
    /// (whose job is the range/MBB queries a closure cannot answer) remain
    /// the decision procedure for everything range-shaped; their pair form
    /// is kept as [`pref_labeled`](Self::pref_labeled) for cross-checks.
    #[inline]
    pub fn pref_or_equal(&self, a: u32, b: u32) -> bool {
        self.0.reach.preferred_or_equal(ValueId(a), ValueId(b))
    }

    /// Strict exact preference (one closure bit probe, see
    /// [`pref_or_equal`](Self::pref_or_equal)).
    #[inline]
    pub fn pref(&self, a: u32, b: u32) -> bool {
        self.0.reach.preferred(ValueId(a), ValueId(b))
    }

    /// Strict exact preference decided by interval-label containment — the
    /// paper's Definition 1 procedure. Equivalent to [`pref`](Self::pref)
    /// by the exactness theorem; kept as an independent cross-check.
    #[inline]
    pub fn pref_labeled(&self, a: u32, b: u32) -> bool {
        self.0.labeling.t_pref(ValueId(a), ValueId(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_consistent_structures() {
        let dag = Dag::paper_example();
        let dom = PoDomain::new(dag);
        assert_eq!(dom.len(), 9);
        // Ordinals: deterministic topo sort is alphabetical here.
        assert_eq!(dom.ordinal(0), 1); // a
        assert_eq!(dom.ordinal(8), 9); // i
                                       // The closure-bit pair preference and
                                       // the interval-label decision
                                       // procedure agree on every pair (the
                                       // exactness theorem).
        for x in 0..9u32 {
            for y in 0..9u32 {
                assert_eq!(dom.pref(x, y), dom.pref_labeled(x, y), "({x}, {y})");
                assert_eq!(
                    dom.pref_or_equal(x, y),
                    x == y || dom.pref_labeled(x, y),
                    "({x}, {y})"
                );
            }
        }
        // Dyadic range equals labeling range.
        assert_eq!(
            dom.range_intervals(2, 7),
            dom.labeling().range_intervals(2, 7)
        );
    }
}
