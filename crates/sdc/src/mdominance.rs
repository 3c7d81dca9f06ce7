use poset::{Dag, MLabeling, Reachability, ValueId};

/// Per-domain machinery for the m-dominance baselines: the single-interval
/// labeling (with uncovered levels) plus the exact reachability oracle used
/// for false-hit elimination.
#[derive(Debug)]
pub struct MdContext {
    mlabels: Vec<MLabeling>,
    reaches: Vec<Reachability>,
    to_dims: usize,
}

impl MdContext {
    /// Builds labelings for every PO domain over its DFS spanning tree.
    pub fn new(dags: &[Dag], to_dims: usize) -> Self {
        let mlabels = dags.iter().map(MLabeling::build_default).collect();
        let reaches = dags.iter().map(Reachability::build).collect();
        MdContext {
            mlabels,
            reaches,
            to_dims,
        }
    }

    /// Number of PO dimensions.
    #[inline]
    pub fn po_dims(&self) -> usize {
        self.mlabels.len()
    }

    /// Number of TO dimensions.
    #[inline]
    pub fn to_dims(&self) -> usize {
        self.to_dims
    }

    /// The m-labeling of PO dimension `d`.
    #[inline]
    pub fn mlabel(&self, d: usize) -> &MLabeling {
        &self.mlabels[d]
    }

    /// Dimensionality of the transformed space: `|TO| + 2·|PO|`.
    #[inline]
    pub fn transformed_dims(&self) -> usize {
        self.to_dims + 2 * self.mlabels.len()
    }

    /// Maps a tuple into the transformed space: TO coordinates, then per PO
    /// dimension `(minpost, |V| - post)`. The post axis is flipped so that
    /// *smaller is better* on every transformed dimension, which turns
    /// m-dominance into plain coordinate dominance (and lets the standard
    /// BBS machinery run unchanged).
    pub fn transform(&self, to: &[u32], po: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.transformed_dims());
        self.transform_into(to, po, &mut out);
        out
    }

    /// Appends a tuple's transformed coordinates to `out` — the columnar
    /// form of [`transform`](Self::transform), used to materialize whole
    /// strata as flat matrices without per-point rows.
    pub fn transform_into(&self, to: &[u32], po: &[u32], out: &mut Vec<u32>) {
        debug_assert_eq!(to.len(), self.to_dims);
        debug_assert_eq!(po.len(), self.mlabels.len());
        out.extend_from_slice(to);
        for (d, &v) in po.iter().enumerate() {
            let ml = &self.mlabels[d];
            let iv = ml.interval(ValueId(v));
            out.push(iv.lo);
            out.push(ml.len() as u32 - iv.hi);
        }
    }

    /// m-dominance in the transformed space: strict Pareto dominance of the
    /// transformed coordinates. Sound (implies real dominance), incomplete.
    pub fn m_dominates(&self, ta: &[u32], tb: &[u32]) -> bool {
        skyline::dominates(ta, tb)
    }

    /// Exact (ground truth) dominance on the original tuples, via the
    /// reachability closure — what the cross-examination steps use.
    pub fn exact_dominates(&self, to_a: &[u32], po_a: &[u32], to_b: &[u32], po_b: &[u32]) -> bool {
        let mut strict = false;
        for (x, y) in to_a.iter().zip(to_b.iter()) {
            if x > y {
                return false;
            }
            if x < y {
                strict = true;
            }
        }
        for (d, r) in self.reaches.iter().enumerate() {
            let (x, y) = (po_a[d], po_b[d]);
            if x == y {
                continue;
            }
            if r.preferred(ValueId(x), ValueId(y)) {
                strict = true;
            } else {
                return false;
            }
        }
        strict
    }

    /// The stratum of a tuple: the maximum uncovered level over its PO
    /// values. Monotone under dominance (a dominator's stratum is never
    /// higher), which is what lets the strata be processed in order.
    pub fn stratum(&self, po: &[u32]) -> u32 {
        po.iter()
            .enumerate()
            .map(|(d, &v)| self.mlabels[d].uncovered_level(ValueId(v)))
            .max()
            .unwrap_or(0)
    }

    /// Largest possible stratum for these domains.
    pub fn max_stratum(&self) -> u32 {
        self.mlabels
            .iter()
            .map(|ml| ml.max_uncovered_level())
            .max()
            .unwrap_or(0)
    }

    /// True iff the tuple is completely covered (stratum 0), where
    /// m-dominance is exact.
    pub fn completely_covered(&self, po: &[u32]) -> bool {
        self.stratum(po) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poset::Dag;
    use proptest::prelude::*;

    fn ctx() -> (Dag, MdContext) {
        let dag = Dag::paper_example();
        (dag.clone(), MdContext::new(&[dag], 1))
    }

    #[test]
    fn transform_flips_post_axis() {
        let (dag, c) = ctx();
        assert_eq!(c.transformed_dims(), 3);
        // Root a has interval [1, 9] under any spanning tree of this DAG.
        let a = dag.id_of("a").unwrap().0;
        let t = c.transform(&[7], &[a]);
        assert_eq!(t, vec![7, 1, 0]); // minpost=1, 9-post(a)=0 — the best corner
    }

    #[test]
    fn m_dominance_is_sound_but_incomplete() {
        let (dag, c) = ctx();
        let id = |s: &str| dag.id_of(s).unwrap().0;
        // a tree-dominates i: captured.
        let ta = c.transform(&[1], &[id("a")]);
        let ti = c.transform(&[1], &[id("i")]);
        assert!(c.m_dominates(&ta, &ti));
        assert!(c.exact_dominates(&[1], &[id("a")], &[1], &[id("i")]));
        // f really dominates h only via the non-tree edge: m misses it.
        let tf = c.transform(&[1], &[id("f")]);
        let th = c.transform(&[1], &[id("h")]);
        assert!(c.exact_dominates(&[1], &[id("f")], &[1], &[id("h")]));
        assert!(!c.m_dominates(&tf, &th), "the false-hit source");
    }

    #[test]
    fn strata_follow_uncovered_levels() {
        let (dag, c) = ctx();
        let id = |s: &str| dag.id_of(s).unwrap().0;
        assert_eq!(c.stratum(&[id("a")]), 0);
        assert!(c.completely_covered(&[id("b")]));
        assert!(c.stratum(&[id("h")]) >= 1);
        assert!(c.max_stratum() >= 1);
    }

    #[test]
    fn multi_dim_stratum_is_max() {
        let dag = Dag::paper_example();
        let c = MdContext::new(&[dag.clone(), dag.clone()], 0);
        let h = dag.id_of("h").unwrap().0;
        let a = dag.id_of("a").unwrap().0;
        assert_eq!(c.stratum(&[a, a]), 0);
        assert_eq!(c.stratum(&[a, h]), c.stratum(&[h, a]));
        assert_eq!(c.stratum(&[a, h]), c.mlabel(1).uncovered_level(ValueId(h)));
    }

    proptest! {
        /// m-dominance implies exact dominance for arbitrary tuples.
        #[test]
        fn m_implies_exact(
            to_a in proptest::collection::vec(0u32..6, 2),
            to_b in proptest::collection::vec(0u32..6, 2),
            pa in 0u32..9, pb in 0u32..9,
        ) {
            let dag = Dag::paper_example();
            let c = MdContext::new(&[dag], 2);
            let ta = c.transform(&to_a, &[pa]);
            let tb = c.transform(&to_b, &[pb]);
            if c.m_dominates(&ta, &tb) {
                prop_assert!(c.exact_dominates(&to_a, &[pa], &to_b, &[pb]));
            }
        }

        /// Stratum monotonicity under exact dominance (the SDC+ invariant).
        #[test]
        fn stratum_monotone(
            pa in 0u32..9, pb in 0u32..9,
        ) {
            let dag = Dag::paper_example();
            let c = MdContext::new(&[dag], 1);
            if c.exact_dominates(&[0], &[pa], &[1], &[pb]) {
                prop_assert!(c.stratum(&[pa]) <= c.stratum(&[pb]));
            }
        }
    }
}
