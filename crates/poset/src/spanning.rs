use crate::{Dag, Interval, PosetError, ValueId};

/// A spanning forest of a [`Dag`] together with the postorder interval
/// labels `[minpost, post]` of Agrawal et al. (§II-B).
///
/// * Every node has at most one *tree parent*; tree edges are a subset of the
///   DAG's edges, so tree-ancestorship implies preference.
/// * `post` numbers come from a postorder traversal of the forest (roots and
///   children visited in deterministic order), 1-based.
/// * `minpost(v)` is the smallest post number in `v`'s subtree, so the
///   subtree of `v` occupies exactly the label interval
///   `[minpost(v), post(v)]`, and interval containment ⟺ tree ancestry.
#[derive(Debug, Clone)]
pub struct SpanningTree {
    parent: Vec<Option<ValueId>>,
    tree_children: Vec<Vec<ValueId>>,
    post: Vec<u32>,
    minpost: Vec<u32>,
}

impl SpanningTree {
    /// Extracts the depth-first discovery forest: roots in id order,
    /// children in id order; the edge that first discovers a node becomes
    /// its tree edge.
    ///
    /// Any spanning forest whose edges are DAG edges yields a *correct*
    /// labeling; the choice only affects how many preferences the
    /// single-interval m-labeling captures (and hence how many false hits
    /// the SDC baselines suffer). [`from_parents`](Self::from_parents)
    /// takes any other forest.
    pub fn build(dag: &Dag) -> Self {
        let n = dag.len();
        let mut parent: Vec<Option<ValueId>> = vec![None; n];
        let mut discovered = vec![false; n];
        let mut stack: Vec<ValueId> = Vec::new();
        for root in dag.roots() {
            if discovered[root.idx()] {
                continue;
            }
            discovered[root.idx()] = true;
            stack.push(root);
            while let Some(u) = stack.pop() {
                // Push children in reverse id order so they are *visited*
                // in ascending id order.
                for &c in dag.children(u).iter().rev() {
                    if !discovered[c.idx()] {
                        discovered[c.idx()] = true;
                        parent[c.idx()] = Some(u);
                        stack.push(c);
                    }
                }
            }
        }
        Self::from_parent_array(dag, parent)
    }

    /// Builds a spanning forest from an explicit tree-parent assignment.
    ///
    /// Validates that every assigned parent edge is a real DAG edge. Nodes
    /// with `None` become forest roots (mandatory for DAG roots, legal for
    /// any node — remaining in-edges are simply classified non-tree).
    pub fn from_parents(dag: &Dag, parents: Vec<Option<ValueId>>) -> Result<Self, PosetError> {
        assert_eq!(parents.len(), dag.len(), "one parent slot per value");
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                if p.idx() >= dag.len() {
                    return Err(PosetError::NodeOutOfRange {
                        node: p.0,
                        len: dag.len() as u32,
                    });
                }
                if !dag.has_edge(*p, ValueId(i as u32)) {
                    return Err(PosetError::UnknownLabel {
                        label: format!(
                            "tree edge {} -> {} is not a DAG edge",
                            dag.label(*p),
                            dag.label(ValueId(i as u32))
                        ),
                    });
                }
            }
        }
        Ok(Self::from_parent_array(dag, parents))
    }

    fn from_parent_array(dag: &Dag, parent: Vec<Option<ValueId>>) -> Self {
        let n = dag.len();
        let mut tree_children: Vec<Vec<ValueId>> = vec![Vec::new(); n];
        for v in dag.values() {
            if let Some(p) = parent[v.idx()] {
                tree_children[p.idx()].push(v);
            }
        }
        for list in &mut tree_children {
            list.sort_unstable();
        }
        let (post, minpost) = postorder(n, &parent, &tree_children);
        SpanningTree {
            parent,
            tree_children,
            post,
            minpost,
        }
    }

    /// The tree parent of `v`, or `None` for forest roots.
    #[inline]
    pub fn parent(&self, v: ValueId) -> Option<ValueId> {
        self.parent[v.idx()]
    }

    /// The tree children of `v`, sorted by id.
    #[inline]
    pub fn tree_children(&self, v: ValueId) -> &[ValueId] {
        &self.tree_children[v.idx()]
    }

    /// True iff `u -> v` is a tree edge.
    #[inline]
    pub fn is_tree_edge(&self, u: ValueId, v: ValueId) -> bool {
        self.parent[v.idx()] == Some(u)
    }

    /// The 1-based postorder number of `v`.
    #[inline]
    pub fn post(&self, v: ValueId) -> u32 {
        self.post[v.idx()]
    }

    /// The smallest postorder number in `v`'s subtree.
    #[inline]
    pub fn minpost(&self, v: ValueId) -> u32 {
        self.minpost[v.idx()]
    }

    /// The `[minpost, post]` label of `v` — the "Initial" column of
    /// Fig. 2(d).
    #[inline]
    pub fn tree_interval(&self, v: ValueId) -> Interval {
        Interval::new(self.minpost[v.idx()], self.post[v.idx()])
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.post.len()
    }

    /// True iff the forest is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.post.is_empty()
    }

    /// The exact spanning tree the paper draws in Fig. 2(a) for
    /// [`Dag::paper_example`]: tree edges `a→b, b→{c,d,e}, c→f, d→g, g→{h,i}`.
    ///
    /// (The DFS forest of [`build`](Self::build) differs — it makes `a`
    /// the parent of `c`; the paper's choice among equally valid parents is
    /// arbitrary — so tests that check Fig. 2(d) verbatim use this explicit
    /// assignment.)
    pub fn paper_example(dag: &Dag) -> Self {
        let id = |s: &str| dag.id_of(s).expect("paper example label");
        let mut parents = vec![None; dag.len()];
        for (child, parent) in [
            ("b", "a"),
            ("c", "b"),
            ("d", "b"),
            ("e", "b"),
            ("f", "c"),
            ("g", "d"),
            ("h", "g"),
            ("i", "g"),
        ] {
            parents[id(child).idx()] = Some(id(parent));
        }
        Self::from_parents(dag, parents).expect("paper tree edges are DAG edges")
    }
}

/// Iterative postorder over the forest; returns 1-based `post` and `minpost`.
fn postorder(
    n: usize,
    parent: &[Option<ValueId>],
    tree_children: &[Vec<ValueId>],
) -> (Vec<u32>, Vec<u32>) {
    let mut post = vec![0u32; n];
    let mut minpost = vec![u32::MAX; n];
    let mut counter = 0u32;
    // Frame: (node, next child index to visit).
    let mut stack: Vec<(ValueId, usize)> = Vec::new();
    for (root_idx, par) in parent.iter().enumerate().take(n) {
        if par.is_some() {
            continue;
        }
        stack.push((ValueId(root_idx as u32), 0));
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            let kids = &tree_children[v.idx()];
            if *ci < kids.len() {
                let child = kids[*ci];
                *ci += 1;
                stack.push((child, 0));
            } else {
                counter += 1;
                post[v.idx()] = counter;
                let own_min = tree_children[v.idx()]
                    .iter()
                    .map(|c| minpost[c.idx()])
                    .min()
                    .unwrap_or(counter)
                    .min(counter);
                minpost[v.idx()] = own_min;
                stack.pop();
            }
        }
    }
    debug_assert_eq!(counter as usize, n, "postorder must number every node");
    (post, minpost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tree_reproduces_fig2d_initial_column() {
        let dag = Dag::paper_example();
        let st = SpanningTree::paper_example(&dag);
        let iv = |s: &str| st.tree_interval(dag.id_of(s).unwrap());
        assert_eq!(iv("a"), Interval::new(1, 9));
        assert_eq!(iv("b"), Interval::new(1, 8));
        assert_eq!(iv("c"), Interval::new(1, 2));
        assert_eq!(iv("d"), Interval::new(3, 6));
        assert_eq!(iv("e"), Interval::new(7, 7));
        assert_eq!(iv("f"), Interval::new(1, 1));
        assert_eq!(iv("g"), Interval::new(3, 5));
        assert_eq!(iv("h"), Interval::new(3, 3));
        assert_eq!(iv("i"), Interval::new(4, 4));
    }

    #[test]
    fn tree_edges_are_dag_edges() {
        let dag = Dag::paper_example();
        let st = SpanningTree::build(&dag);
        for v in dag.values() {
            if let Some(p) = st.parent(v) {
                assert!(dag.has_edge(p, v), "tree edge must be DAG edge");
            }
        }
    }

    #[test]
    fn every_non_root_gets_a_parent() {
        let dag = Dag::paper_example();
        let st = SpanningTree::build(&dag);
        for v in dag.values() {
            assert_eq!(st.parent(v).is_none(), dag.parents(v).is_empty());
        }
    }

    #[test]
    fn posts_are_a_permutation_and_subtrees_are_contiguous() {
        let dag = Dag::paper_example();
        let st = SpanningTree::build(&dag);
        let mut posts: Vec<_> = dag.values().map(|v| st.post(v)).collect();
        posts.sort_unstable();
        assert_eq!(posts, (1..=9).collect::<Vec<_>>());
        // Child subtree interval nested in parent's.
        for v in dag.values() {
            if let Some(p) = st.parent(v) {
                assert!(st.tree_interval(p).contains(&st.tree_interval(v)));
                assert!(st.post(p) > st.post(v), "postorder: parent after child");
            }
        }
    }

    #[test]
    fn containment_iff_tree_ancestry() {
        let dag = Dag::paper_example();
        let st = SpanningTree::build(&dag);
        // Oracle: walk parents.
        let is_ancestor = |a: ValueId, d: ValueId| {
            let mut cur = Some(d);
            while let Some(x) = cur {
                if x == a {
                    return true;
                }
                cur = st.parent(x);
            }
            false
        };
        for a in dag.values() {
            for d in dag.values() {
                assert_eq!(
                    st.tree_interval(a).contains(&st.tree_interval(d)),
                    is_ancestor(a, d),
                    "{} vs {}",
                    dag.label(a),
                    dag.label(d)
                );
            }
        }
    }

    #[test]
    fn from_parents_rejects_non_edges() {
        let dag = Dag::paper_example();
        let mut parents = vec![None; dag.len()];
        // h's parent set is {f, g}; "a" is not a DAG parent of h.
        parents[dag.id_of("h").unwrap().idx()] = Some(dag.id_of("a").unwrap());
        assert!(SpanningTree::from_parents(&dag, parents).is_err());
    }

    #[test]
    fn forest_with_multiple_roots() {
        // Two disjoint chains.
        let dag = Dag::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let st = SpanningTree::build(&dag);
        assert_eq!(st.parent(ValueId(0)), None);
        assert_eq!(st.parent(ValueId(2)), None);
        let mut posts: Vec<_> = dag.values().map(|v| st.post(v)).collect();
        posts.sort_unstable();
        assert_eq!(posts, vec![1, 2, 3, 4]);
    }

    #[test]
    fn single_node_domain() {
        let dag = Dag::from_edges(1, &[]).unwrap();
        let st = SpanningTree::build(&dag);
        assert_eq!(st.tree_interval(ValueId(0)), Interval::new(1, 1));
        assert!(!st.is_empty());
        assert_eq!(st.len(), 1);
    }
}
