use crate::{PoDomain, Table};

/// Dominance evaluator over mixed TO/PO tuples, parameterized by the
/// precomputed [`PoDomain`]s. Since the TSS labeling is exact, the
/// t-dominance it implements *is* the ground-truth Pareto dominance; the
/// separate reachability-based path exists for oracle cross-checks.
#[derive(Debug, Clone, Copy)]
pub struct Dominance<'a> {
    domains: &'a [PoDomain],
}

impl<'a> Dominance<'a> {
    /// A dominance evaluator over the given PO domains (one per PO dim).
    pub fn new(domains: &'a [PoDomain]) -> Self {
        Dominance { domains }
    }

    /// **t-dominance** (Definition 2, with condition (ii) corrected to the
    /// form the paper's own Table II applies — see
    /// [`t_dominates_weak_printed`]): `a` t-dominates `b` iff
    /// * `a.to[d] <= b.to[d]` on every TO dimension,
    /// * `a.po[d]` equals or is t-preferred over `b.po[d]` on every PO
    ///   dimension, and
    /// * at least one comparison is strict.
    #[inline]
    pub fn t_dominates(&self, to_a: &[u32], po_a: &[u32], to_b: &[u32], po_b: &[u32]) -> bool {
        t_dominates(self.domains, to_a, po_a, to_b, po_b)
    }

    /// Ground-truth dominance via the bitset transitive closure (identical
    /// to [`t_dominates`] by the exactness theorem; kept as an independent
    /// oracle).
    pub fn dominates_oracle(&self, to_a: &[u32], po_a: &[u32], to_b: &[u32], po_b: &[u32]) -> bool {
        let mut strict = false;
        for (x, y) in to_a.iter().zip(to_b.iter()) {
            if x > y {
                return false;
            }
            if x < y {
                strict = true;
            }
        }
        for (d, dom) in self.domains.iter().enumerate() {
            let (x, y) = (po_a[d], po_b[d]);
            if x == y {
                continue;
            }
            if dom.reach().preferred(poset::ValueId(x), poset::ValueId(y)) {
                strict = true;
            } else {
                return false;
            }
        }
        strict
    }
}

/// Free-function form of exact t-dominance (see [`Dominance::t_dominates`]).
///
/// This is the pair primitive of the batched kernels in
/// [`PointStore`](crate::PointStore): the TO comparison accumulates both
/// flags branch-free (no per-dimension exit — dimensionalities are small
/// and mispredictions cost more than the spare compares), and the PO loop
/// iterates the zipped triple so its bound is the hoisted `domains` length
/// — the `debug_assert`s guarantee the rows are exactly that wide, so no
/// per-pair index bounds remain.
#[inline]
pub fn t_dominates(
    domains: &[PoDomain],
    to_a: &[u32],
    po_a: &[u32],
    to_b: &[u32],
    po_b: &[u32],
) -> bool {
    debug_assert_eq!(to_a.len(), to_b.len());
    debug_assert_eq!(po_a.len(), domains.len());
    debug_assert_eq!(po_b.len(), domains.len());
    let mut le = true;
    let mut strict = false;
    for (&x, &y) in to_a.iter().zip(to_b.iter()) {
        le &= x <= y;
        strict |= x < y;
    }
    if !le {
        return false;
    }
    po_tail(domains, po_a, po_b, strict)
}

/// The PO half of [`t_dominates`], entered once the TO part is known to be
/// `<=` everywhere with strictness `to_strict`. The key-block point check
/// ([`KeyBlock::first_match`](crate::store::KeyBlock::first_match) under
/// `PointStore::t_dominated_by_keys`) finishes every in-box member
/// through this exact tail, so both kernel variants share one PO decision
/// path.
#[inline]
pub(crate) fn po_tail(domains: &[PoDomain], po_a: &[u32], po_b: &[u32], to_strict: bool) -> bool {
    let mut strict = to_strict;
    for (dom, (&x, &y)) in domains.iter().zip(po_a.iter().zip(po_b.iter())) {
        if x == y {
            continue;
        }
        if dom.pref(x, y) {
            strict = true;
        } else {
            return false;
        }
    }
    strict
}

/// Definition 2 *as printed* in the paper: condition (ii) only requires that
/// `b` is **not** t-preferred over `a` per PO dimension, so PO-incomparable
/// pairs can still dominate through a TO dimension.
///
/// This contradicts the paper's own worked example (Table II step 6 keeps
/// `p2` although `p1` beats it on the TO attribute and is merely
/// incomparable on the PO one) and is provided only so the discrepancy can
/// be studied; the `table2_pairs` test below pins it.
pub fn t_dominates_weak_printed(
    domains: &[PoDomain],
    to_a: &[u32],
    po_a: &[u32],
    to_b: &[u32],
    po_b: &[u32],
) -> bool {
    let mut strict = false;
    for (x, y) in to_a.iter().zip(to_b.iter()) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    for (d, dom) in domains.iter().enumerate() {
        let (x, y) = (po_a[d], po_b[d]);
        if x == y {
            continue;
        }
        if dom.pref(y, x) {
            return false; // (ii): b must not be preferred over a
        }
        if dom.pref(x, y) {
            strict = true; // (iii)(b)
        }
    }
    strict
}

/// `O(n²)` skyline oracle over a [`Table`]: record indices of all tuples not
/// dominated (ground-truth reachability dominance), in input order.
pub fn brute_force_po_skyline(domains: &[PoDomain], table: &Table) -> Vec<u32> {
    let dom = Dominance::new(domains);
    let n = table.len() as u32;
    (0..n)
        .filter(|&i| {
            !(0..n).any(|j| {
                j != i && dom.dominates_oracle(table.to(j), table.po(j), table.to(i), table.po(i))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use poset::Dag;
    use proptest::prelude::*;

    fn paper_domain() -> Vec<PoDomain> {
        vec![PoDomain::new(Dag::paper_example())]
    }

    // Fig. 3(a) ids: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8.

    #[test]
    fn table2_pairs() {
        let doms = paper_domain();
        // p1 = (2, c), p9 = (2, f): c preferred over f, same A1 -> dominates.
        assert!(t_dominates(&doms, &[2], &[2], &[2], &[5]));
        // p1 = (2, c), p2 = (3, d): incomparable PO values -> no dominance
        // despite the better TO value (the step-6 observation).
        assert!(!t_dominates(&doms, &[2], &[2], &[3], &[3]));
        assert!(!t_dominates(&doms, &[3], &[3], &[2], &[2]));
        // ... but the PRINTED Definition 2 would claim dominance, which
        // contradicts Table II step 6:
        assert!(t_dominates_weak_printed(&doms, &[2], &[2], &[3], &[3]));
    }

    #[test]
    fn strictness_and_duplicates() {
        let doms = paper_domain();
        // Identical tuples never dominate each other.
        assert!(!t_dominates(&doms, &[5], &[2], &[5], &[2]));
        // Equal TO, strictly better PO.
        assert!(t_dominates(&doms, &[5], &[0], &[5], &[2])); // a over c
                                                             // Equal PO, strictly better TO.
        assert!(t_dominates(&doms, &[4], &[2], &[5], &[2]));
    }

    #[test]
    fn multi_po_dimension_requires_all() {
        let dag1 = Dag::paper_example();
        let dag2 = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap(); // chain v0<v1<v2
        let doms = vec![PoDomain::new(dag1), PoDomain::new(dag2)];
        // Better on dim 1, worse on dim 2: incomparable.
        assert!(!t_dominates(&doms, &[1], &[0, 2], &[1], &[2, 0]));
        // Better on dim 1, equal on dim 2: dominates.
        assert!(t_dominates(&doms, &[1], &[0, 1], &[1], &[2, 1]));
    }

    #[test]
    fn oracle_skyline_flight_example() {
        // Table I, first order: a < b, a < c, b < d, c < d.
        let dag = Dag::from_labeled(
            ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect(),
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        let doms = vec![PoDomain::new(dag)];
        let mut t = Table::new(2, 1);
        // (Price, Stops, Airline) per Fig. 1(a).
        for (pr, st, al) in [
            (1800, 0, 0), // p1 a
            (2000, 0, 0), // p2 a
            (1800, 0, 1), // p3 b
            (1200, 1, 1), // p4 b
            (1400, 1, 0), // p5 a
            (1000, 1, 1), // p6 b
            (1000, 1, 3), // p7 d
            (1800, 1, 2), // p8 c
            (500, 2, 3),  // p9 d
            (1200, 2, 2), // p10 c
        ] {
            t.push(&[pr, st], &[al]);
        }
        // Table I: skyline = {p1, p5, p6, p9, p10} (0-based: 0, 4, 5, 8, 9).
        assert_eq!(brute_force_po_skyline(&doms, &t), vec![0, 4, 5, 8, 9]);
    }

    proptest! {
        /// t-dominance coincides with the reachability oracle on random
        /// inputs (the exactness theorem, end to end).
        #[test]
        fn t_dominance_equals_oracle(
            seed in 0u64..500,
            to_a in proptest::collection::vec(0u32..5, 2),
            to_b in proptest::collection::vec(0u32..5, 2),
            pa in 0u32..9, pb in 0u32..9,
        ) {
            let _ = seed;
            let doms = paper_domain();
            let d = Dominance::new(&doms);
            prop_assert_eq!(
                t_dominates(&doms, &to_a, &[pa], &to_b, &[pb]),
                d.dominates_oracle(&to_a, &[pa], &to_b, &[pb])
            );
        }

        /// Dominance is a strict partial order: irreflexive and asymmetric.
        #[test]
        fn dominance_is_strict_order(
            to_a in proptest::collection::vec(0u32..4, 2),
            to_b in proptest::collection::vec(0u32..4, 2),
            pa in 0u32..9, pb in 0u32..9,
        ) {
            let doms = paper_domain();
            prop_assert!(!t_dominates(&doms, &to_a, &[pa], &to_a, &[pa]));
            if t_dominates(&doms, &to_a, &[pa], &to_b, &[pb]) {
                prop_assert!(!t_dominates(&doms, &to_b, &[pb], &to_a, &[pa]));
            }
        }
    }
}
