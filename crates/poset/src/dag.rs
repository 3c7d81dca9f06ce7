use crate::PosetError;

/// Identifier of a value in a partially ordered domain.
///
/// Values are dense `0..n` indices into the owning [`Dag`]. The newtype keeps
/// them from being confused with topological ordinals or post numbers, which
/// are also small integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for ValueId {
    fn from(v: u32) -> Self {
        ValueId(v)
    }
}

/// A partially ordered domain represented as a directed acyclic graph.
///
/// An edge `x -> y` states that *x is preferred over y* (`x < y` in the
/// paper's notation, where smaller is better). The full preference relation
/// is the transitive closure: `x` is preferred over `y` iff a directed path
/// `x ⤳ y` exists. A [`Dag`] does **not** have to be transitively reduced
/// (a Hasse diagram); [`Dag::transitive_reduction`] produces the reduced
/// form when one is wanted.
///
/// Construction validates acyclicity, so every `Dag` in existence is a
/// genuine partial order.
#[derive(Debug, Clone)]
pub struct Dag {
    labels: Vec<String>,
    children: Vec<Vec<ValueId>>,
    parents: Vec<Vec<ValueId>>,
    num_edges: usize,
}

impl Dag {
    /// Builds a domain of `n` values (labeled `"v0"`, `"v1"`, …) with the
    /// given preference edges `(better, worse)`.
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Result<Self, PosetError> {
        let labels = (0..n).map(|i| format!("v{i}")).collect();
        Self::from_labeled(labels, edges)
    }

    /// Builds a domain with explicit labels and preference edges
    /// `(better, worse)` given as indices into `labels`.
    pub fn from_labeled(labels: Vec<String>, edges: &[(u32, u32)]) -> Result<Self, PosetError> {
        let n = labels.len() as u32;
        let mut children: Vec<Vec<ValueId>> = vec![Vec::new(); n as usize];
        for &(u, v) in edges {
            if u == v {
                return Err(PosetError::SelfLoop { node: u });
            }
            for node in [u, v] {
                if node >= n {
                    return Err(PosetError::NodeOutOfRange { node, len: n });
                }
            }
            children[u as usize].push(ValueId(v));
        }
        // Duplicate parallel edges carry no extra preference: sort and
        // dedup each child list, then derive the parents (ascending, since
        // `u` is) and the edge count from what is left.
        let mut parents: Vec<Vec<ValueId>> = vec![Vec::new(); n as usize];
        let mut num_edges = 0usize;
        for (u, list) in children.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            num_edges += list.len();
            for v in list.iter() {
                parents[v.idx()].push(ValueId(u as u32));
            }
        }
        let dag = Dag {
            labels,
            children,
            parents,
            num_edges,
        };
        if let Some(witness) = dag.find_cycle_witness() {
            return Err(PosetError::Cycle { witness: witness.0 });
        }
        Ok(dag)
    }

    /// Number of values in the domain (`|V|` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the domain has no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of preference edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The label of a value.
    #[inline]
    pub fn label(&self, v: ValueId) -> &str {
        &self.labels[v.idx()]
    }

    /// Looks a value up by label (linear scan; domains are small).
    pub fn id_of(&self, label: &str) -> Option<ValueId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| ValueId(i as u32))
    }

    /// Direct successors of `v` — the values `v` is *immediately* preferred
    /// over (sorted by id).
    #[inline]
    pub fn children(&self, v: ValueId) -> &[ValueId] {
        &self.children[v.idx()]
    }

    /// Direct predecessors of `v` (sorted by id).
    #[inline]
    pub fn parents(&self, v: ValueId) -> &[ValueId] {
        &self.parents[v.idx()]
    }

    /// True iff the edge `u -> v` is present.
    pub fn has_edge(&self, u: ValueId, v: ValueId) -> bool {
        self.children[u.idx()].binary_search(&v).is_ok()
    }

    /// All values with no incoming edge — the maximal (most preferred)
    /// elements, the "roots" of the diagram.
    pub fn roots(&self) -> impl Iterator<Item = ValueId> + '_ {
        (0..self.len() as u32)
            .map(ValueId)
            .filter(move |v| self.parents[v.idx()].is_empty())
    }

    /// Iterates over all values.
    pub fn values(&self) -> impl Iterator<Item = ValueId> {
        (0..self.len() as u32).map(ValueId)
    }

    /// Iterates over all edges `(better, worse)`.
    pub fn edges(&self) -> impl Iterator<Item = (ValueId, ValueId)> + '_ {
        self.values()
            .flat_map(move |u| self.children(u).iter().map(move |&v| (u, v)))
    }

    /// A structural fingerprint of the DAG: a toolchain-stable FNV-1a hash
    /// over the domain cardinality and the (deterministically ordered) edge
    /// set.
    ///
    /// Two DAGs with the same value count and the same edges always share a
    /// fingerprint (labels are ignored — preferences, not names, decide
    /// dominance). The converse does **not** hold: this is a 64-bit hash,
    /// so structurally different DAGs *can* collide, and anything keyed on
    /// a fingerprint must verify a hit against the actual structure — see
    /// [`same_structure`](Self::same_structure), which is exactly that
    /// guard. Note also that it hashes the *edge set*, not the preference
    /// relation: an equivalent order written with redundant shortcut edges
    /// hashes differently — canonicalize with
    /// [`transitive_reduction`](Self::transitive_reduction) first when that
    /// matters.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::Fnv64::new();
        self.len().hash(&mut h);
        for (u, v) in self.edges() {
            (u.0, v.0).hash(&mut h);
        }
        h.finish()
    }

    /// Exact structural equality: same value count and same edge set
    /// (labels ignored, like [`fingerprint`](Self::fingerprint)). This is
    /// the collision guard every fingerprint-keyed cache runs on a hit —
    /// two DAGs are interchangeable for dominance purposes iff this holds.
    pub fn same_structure(&self, other: &Dag) -> bool {
        self.len() == other.len()
            && self.num_edges == other.num_edges
            && self.edges().eq(other.edges())
    }

    /// Length of the longest directed path, in edges (the paper's DAG
    /// *height* `h` is the diameter of the lattice this was sampled from;
    /// for a full lattice the two coincide).
    pub fn height(&self) -> usize {
        let order = self.topo_node_order();
        let mut depth = vec![0usize; self.len()];
        let mut best = 0;
        for &v in &order {
            for &c in self.children(v) {
                let d = depth[v.idx()] + 1;
                if d > depth[c.idx()] {
                    depth[c.idx()] = d;
                    best = best.max(d);
                }
            }
        }
        best
    }

    /// Produces the transitive reduction (Hasse diagram): drops every edge
    /// `u -> v` for which another path `u ⤳ v` exists.
    ///
    /// Complexity `O(V · E)` with bitset reachability — fine for the domain
    /// sizes of the paper (≤ ~1000 values).
    pub fn transitive_reduction(&self) -> Dag {
        let reach = crate::Reachability::build(self);
        let mut kept: Vec<(u32, u32)> = Vec::with_capacity(self.num_edges);
        for (u, v) in self.edges() {
            // The edge is redundant iff some *other* child of u reaches v.
            let redundant = self
                .children(u)
                .iter()
                .any(|&c| c != v && reach.reaches(c, v));
            if !redundant {
                kept.push((u.0, v.0));
            }
        }
        Dag::from_labeled(self.labels.clone(), &kept)
            .expect("reduction of an acyclic graph is acyclic")
    }

    /// A topological order over nodes computed with deterministic (smallest
    /// id first) Kahn's algorithm. Internal helper; the public, ordinal-aware
    /// interface is [`crate::TopoOrder`].
    pub(crate) fn topo_node_order(&self) -> Vec<ValueId> {
        let n = self.len();
        let mut indeg: Vec<u32> = (0..n).map(|i| self.parents[i].len() as u32).collect();
        // A simple binary heap keyed by id keeps the order deterministic and
        // matches the paper's convention of breaking ties by label order.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = (0..n as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(u)) = ready.pop() {
            let u = ValueId(u);
            order.push(u);
            for &c in self.children(u) {
                indeg[c.idx()] -= 1;
                if indeg[c.idx()] == 0 {
                    ready.push(std::cmp::Reverse(c.0));
                }
            }
        }
        order
    }

    /// Returns a node on a cycle if one exists (used during validation).
    fn find_cycle_witness(&self) -> Option<ValueId> {
        let order = self.topo_node_order();
        if order.len() == self.len() {
            None
        } else {
            // Any node missing from the Kahn order lies on (or behind) a cycle.
            let mut seen = vec![false; self.len()];
            for v in &order {
                seen[v.idx()] = true;
            }
            (0..self.len() as u32).map(ValueId).find(|v| !seen[v.idx()])
        }
    }

    /// The 9-value example domain of the paper's Fig. 2(a). The spanning
    /// tree the paper draws (`a→b`, `b→{c,d,e}`, `c→f`, `d→g`, `g→{h,i}`;
    /// non-tree edges `a→c`, `c→g`, `e→g`, `f→h`) is available as
    /// [`crate::SpanningTree::paper_example`].
    ///
    /// Used pervasively by tests and doc examples.
    pub fn paper_example() -> Dag {
        let labels: Vec<String> = ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // Ids:  a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8
        let edges = [
            (0, 1), // a -> b   (tree)
            (0, 2), // a -> c   (non-tree)
            (1, 2), // b -> c   (tree)
            (1, 3), // b -> d   (tree)
            (1, 4), // b -> e   (tree)
            (2, 5), // c -> f   (tree)
            (2, 6), // c -> g   (non-tree)
            (3, 6), // d -> g   (tree)
            (4, 6), // e -> g   (non-tree)
            (5, 7), // f -> h   (non-tree)
            (6, 7), // g -> h   (tree)
            (6, 8), // g -> i   (tree)
        ];
        Dag::from_labeled(labels, &edges).expect("example DAG is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_exposes_edges() {
        let d = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.num_edges(), 2);
        assert!(d.has_edge(ValueId(0), ValueId(1)));
        assert!(!d.has_edge(ValueId(0), ValueId(2)));
        assert_eq!(d.children(ValueId(0)), &[ValueId(1)]);
        assert_eq!(d.parents(ValueId(2)), &[ValueId(1)]);
    }

    #[test]
    fn rejects_self_loop() {
        let err = Dag::from_edges(2, &[(0, 0)]).unwrap_err();
        assert_eq!(err, PosetError::SelfLoop { node: 0 });
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Dag::from_edges(2, &[(0, 5)]).unwrap_err();
        assert_eq!(err, PosetError::NodeOutOfRange { node: 5, len: 2 });
    }

    #[test]
    fn rejects_cycle() {
        let err = Dag::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap_err();
        assert!(matches!(err, PosetError::Cycle { .. }));
    }

    #[test]
    fn duplicate_edges_are_coalesced() {
        let d = Dag::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(d.num_edges(), 1);
        // Duplicates interleaved across several source vertices.
        let edges = [
            (0, 3),
            (1, 3),
            (0, 2),
            (2, 4),
            (0, 3),
            (1, 4),
            (2, 4),
            (1, 3),
            (0, 2),
            (0, 3),
            (3, 4),
            (1, 4),
        ];
        let d = Dag::from_edges(5, &edges).unwrap();
        assert_eq!(d.num_edges(), 6);
        let ids = |xs: &[u32]| xs.iter().map(|&x| ValueId(x)).collect::<Vec<_>>();
        assert_eq!(d.children(ValueId(0)), ids(&[2, 3]));
        assert_eq!(d.children(ValueId(1)), ids(&[3, 4]));
        assert_eq!(d.children(ValueId(2)), ids(&[4]));
        assert_eq!(d.parents(ValueId(3)), ids(&[0, 1]));
        assert_eq!(d.parents(ValueId(4)), ids(&[1, 2, 3]));
        assert_eq!(d.edges().count(), 6);
        let once = Dag::from_edges(5, &[(0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (3, 4)]).unwrap();
        assert_eq!(
            d.edges().collect::<Vec<_>>(),
            once.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn roots_are_maximal_elements() {
        let d = Dag::from_edges(4, &[(0, 2), (1, 2), (2, 3)]).unwrap();
        let roots: Vec<_> = d.roots().collect();
        assert_eq!(roots, vec![ValueId(0), ValueId(1)]);
    }

    #[test]
    fn isolated_nodes_are_roots_and_leaves() {
        let d = Dag::from_edges(3, &[(0, 1)]).unwrap();
        let roots: Vec<_> = d.roots().collect();
        assert!(roots.contains(&ValueId(2)));
        assert!(d.children(ValueId(2)).is_empty());
    }

    #[test]
    fn height_of_chain_and_diamond() {
        let chain = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(chain.height(), 3);
        let diamond = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(diamond.height(), 2);
        let empty = Dag::from_edges(3, &[]).unwrap();
        assert_eq!(empty.height(), 0);
    }

    #[test]
    fn transitive_reduction_drops_shortcut() {
        let d = Dag::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let h = d.transitive_reduction();
        assert_eq!(h.num_edges(), 2);
        assert!(h.has_edge(ValueId(0), ValueId(1)));
        assert!(h.has_edge(ValueId(1), ValueId(2)));
        assert!(!h.has_edge(ValueId(0), ValueId(2)));
    }

    #[test]
    fn transitive_reduction_keeps_diamond() {
        let d = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let h = d.transitive_reduction();
        assert_eq!(h.num_edges(), 4);
    }

    #[test]
    fn paper_example_shape() {
        let d = Dag::paper_example();
        assert_eq!(d.len(), 9);
        assert_eq!(d.num_edges(), 12);
        assert_eq!(d.roots().count(), 1);
        assert_eq!(d.label(ValueId(0)), "a");
        assert_eq!(d.id_of("i"), Some(ValueId(8)));
    }

    #[test]
    fn fingerprint_tracks_the_preference_relation() {
        let a = Dag::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let same = Dag::from_edges(4, &[(1, 2), (0, 1), (0, 1)]).unwrap();
        assert_eq!(a.fingerprint(), same.fingerprint(), "edge order/dups");
        // Labels are ignored: only ids and edges matter.
        let relabeled = Dag::from_labeled(
            vec!["w".into(), "x".into(), "y".into(), "z".into()],
            &[(0, 1), (1, 2)],
        )
        .unwrap();
        assert_eq!(a.fingerprint(), relabeled.fingerprint());
        // Any structural change moves the fingerprint.
        let more = Dag::from_edges(4, &[(0, 1), (1, 2), (0, 3)]).unwrap();
        let bigger = Dag::from_edges(5, &[(0, 1), (1, 2)]).unwrap();
        assert_ne!(a.fingerprint(), more.fingerprint());
        assert_ne!(a.fingerprint(), bigger.fingerprint());
    }

    #[test]
    fn same_structure_is_exact_and_label_blind() {
        let a = Dag::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let relabeled = Dag::from_labeled(
            vec!["w".into(), "x".into(), "y".into(), "z".into()],
            &[(1, 2), (0, 1)],
        )
        .unwrap();
        assert!(a.same_structure(&relabeled), "labels and edge input order");
        let more = Dag::from_edges(4, &[(0, 1), (1, 2), (0, 3)]).unwrap();
        let bigger = Dag::from_edges(5, &[(0, 1), (1, 2)]).unwrap();
        let shifted = Dag::from_edges(4, &[(0, 1), (1, 3)]).unwrap();
        assert!(!a.same_structure(&more));
        assert!(!a.same_structure(&bigger));
        assert!(!a.same_structure(&shifted), "same counts, different edges");
    }

    #[test]
    fn fingerprint_is_toolchain_stable() {
        // FNV-1a with pinned constants: this exact value must never move
        // across toolchains or platforms, or every persisted cache key and
        // golden digest moves with it.
        let d = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(d.fingerprint(), 0x3ecd_4d99_6119_82d4);
    }

    #[test]
    fn topo_node_order_respects_edges() {
        let d = Dag::paper_example();
        let order = d.topo_node_order();
        assert_eq!(order.len(), d.len());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for (u, v) in d.edges() {
            assert!(pos[&u] < pos[&v], "edge {u:?}->{v:?} violated");
        }
    }
}
