use poset::{Dag, Reachability, TopoOrder, ValueId};
use std::sync::Arc;

/// What every engine reads about one partially ordered domain: the DAG,
/// its topological ordinals (the value's `A_TO` coordinate, which gives
/// precedence, §III-B) and its bitset transitive closure (the exact test of
/// a value pair).
///
/// Interval labels merged over ordinal ranges answer only sTSS's MBB checks
/// (§IV-B), so sTSS builds them with its index
/// ([`Stss::range_labels`](crate::Stss::range_labels)); dTSS, the query
/// session, streaming, the merge and every point check read the ordinals
/// and the closure alone.
///
/// The structures are immutable once built and shared behind one [`Arc`]:
/// a clone is a reference count, so a session cache hands its domains to
/// every query without copying them.
#[derive(Debug, Clone)]
pub struct PoDomain(Arc<Parts>);

/// The precomputed structures of a [`PoDomain`].
#[derive(Debug)]
struct Parts {
    dag: Dag,
    topo: TopoOrder,
    reach: Reachability,
}

impl PoDomain {
    /// Sorts `dag` topologically and computes its transitive closure.
    pub fn new(dag: Dag) -> Self {
        let topo = TopoOrder::build(&dag);
        let reach = Reachability::build(&dag);
        PoDomain(Arc::new(Parts { dag, topo, reach }))
    }

    /// The domain DAG.
    #[inline]
    pub fn dag(&self) -> &Dag {
        &self.0.dag
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
        self.0.topo.ordinal(ValueId(raw))
    }

    /// "At least as good": equal values or exact preference.
    ///
    /// Answered with one bit probe of the precomputed transitive closure —
    /// the cheapest exact decision for a *value pair*. Interval-label
    /// containment decides the same pairs (the exactness theorem, checked
    /// against the closure by poset's labeling tests); its job is the
    /// range/MBB queries a closure cannot answer.
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

        // The two closure probes agree: preferred-or-equal is equality or
        // strict preference.
        for x in 0..9u32 {
            for y in 0..9u32 {
                assert_eq!(
                    dom.pref_or_equal(x, y),
                    x == y || dom.pref(x, y),
                    "({x}, {y})"
                );
            }
        }
    }
}
