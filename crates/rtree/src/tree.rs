use crate::node::{Node, NodeId, NodeKind};
use crate::{ChildEntry, Mbb};
use std::ops::Range;

/// Smallest node capacity a tree accepts: a node must hold two entries.
pub const MIN_CAPACITY: usize = 2;

/// An R-tree over `u32` coordinates: plain read-only data once built, so
/// any number of traversals may share it, each counting its own page reads
/// ([`BestFirst::reads`](crate::BestFirst::reads)).
///
/// See the [crate docs](crate) for the design rationale. Build one with
/// [`RTree::bulk_load`] (STR) or — for reproducing the paper's worked
/// examples — assemble an exact structure with [`RTree::from_structure`].
#[derive(Debug, Clone)]
pub struct RTree {
    pub(crate) dims: usize,
    pub(crate) cap: usize,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: Option<NodeId>,
    pub(crate) height: usize,
    /// Every leaf entry's coordinates, row-major with stride `dims`, in
    /// leaf order: a leaf holds a range of rows, so the tree keeps all its
    /// points in one allocation rather than one per point.
    pub(crate) points: Vec<u32>,
    /// The record id of each row of `points`.
    pub(crate) records: Vec<u32>,
}

impl RTree {
    /// An empty tree with the given dimensionality and node capacity.
    pub fn new(dims: usize, cap: usize) -> Self {
        assert!(dims >= 1, "R-tree needs at least one dimension");
        assert!(cap >= MIN_CAPACITY, "node capacity must be at least 2");
        RTree {
            dims,
            cap,
            nodes: Vec::new(),
            root: None,
            height: 0,
            points: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Dimensionality of indexed points.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Maximum entries per node (page capacity).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff no points are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Tree height in levels (0 for empty, 1 for a single leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of nodes (pages) in the tree.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root node id, if any.
    #[inline]
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// The MBB of a node.
    #[inline]
    pub fn mbb(&self, id: NodeId) -> &Mbb {
        &self.nodes[id.idx()].mbb
    }

    /// A node's children: subtrees with their MBBs, or a leaf's points.
    /// Reading a node here charges no page read; traversals count their
    /// own (see [`BestFirst::reads`](crate::BestFirst::reads)).
    pub fn children(&self, id: NodeId) -> Vec<ChildEntry<'_>> {
        let node = &self.nodes[id.idx()];
        match &node.kind {
            NodeKind::Leaf(rows) => rows
                .clone()
                .map(|i| ChildEntry::Record {
                    point: self.row(i),
                    record: self.records[i],
                })
                .collect(),
            NodeKind::Inner(children) => children
                .iter()
                .map(|&c| ChildEntry::Node {
                    id: c,
                    mbb: &self.nodes[c.idx()].mbb,
                })
                .collect(),
        }
    }

    /// Iterates over all `(point, record)` pairs (a debug and test
    /// convenience).
    pub fn iter_records(&self) -> Vec<(&[u32], u32)> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack: Vec<NodeId> = self.root.into_iter().collect();
        while let Some(id) = stack.pop() {
            match &self.nodes[id.idx()].kind {
                NodeKind::Leaf(rows) => {
                    out.extend(rows.clone().map(|i| (self.row(i), self.records[i])));
                }
                NodeKind::Inner(children) => stack.extend(children.iter().copied()),
            }
        }
        out
    }

    /// Row `i` of the point block: the coordinates of one leaf entry.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.points[i * self.dims..][..self.dims]
    }

    pub(crate) fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Appends a leaf over the rows pushed to the point block since row
    /// `start` (at least one).
    pub(crate) fn push_leaf(&mut self, start: usize) -> NodeId {
        let rows = start..self.records.len();
        let mbb = self.rows_mbb(rows.clone());
        self.push_node(Node {
            mbb,
            kind: NodeKind::Leaf(rows),
        })
    }

    /// The tight MBB of a non-empty range of rows.
    fn rows_mbb(&self, rows: Range<usize>) -> Mbb {
        let mut mbb = Mbb::from_point(self.row(rows.start));
        for i in rows.start + 1..rows.end {
            mbb.expand_point(self.row(i));
        }
        mbb
    }

    /// Recomputes a leaf/inner node's MBB from its entries.
    pub(crate) fn recompute_mbb(&self, id: NodeId) -> Mbb {
        let node = &self.nodes[id.idx()];
        match &node.kind {
            NodeKind::Leaf(rows) => self.rows_mbb(rows.clone()),
            NodeKind::Inner(children) => {
                let mut mbb = self.nodes[children[0].idx()].mbb.clone();
                for c in &children[1..] {
                    mbb.expand_mbb(&self.nodes[c.idx()].mbb);
                }
                mbb
            }
        }
    }

    /// Checks structural invariants (test/debug aid): MBB tightness and
    /// containment, uniform leaf depth, capacity bounds.
    pub fn validate(&self) -> Result<(), String> {
        let Some(root) = self.root else {
            return if self.is_empty() {
                Ok(())
            } else {
                Err("len > 0 but no root".into())
            };
        };
        let mut leaf_depths = Vec::new();
        let mut count = 0usize;
        self.validate_node(root, 1, &mut leaf_depths, &mut count)?;
        if !leaf_depths.windows(2).all(|w| w[0] == w[1]) {
            return Err(format!("non-uniform leaf depths: {leaf_depths:?}"));
        }
        if let Some(&d) = leaf_depths.first() {
            if d != self.height {
                return Err(format!("height {} but leaves at depth {d}", self.height));
            }
        }
        if count != self.len() {
            return Err(format!("len {} but {count} records reachable", self.len()));
        }
        Ok(())
    }

    fn validate_node(
        &self,
        id: NodeId,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
        count: &mut usize,
    ) -> Result<(), String> {
        let node = &self.nodes[id.idx()];
        let n = node.entry_count();
        if n == 0 {
            return Err(format!("empty node {id:?}"));
        }
        if n > self.cap {
            return Err(format!("node {id:?} overflows: {n} > {}", self.cap));
        }
        let tight = self.recompute_mbb(id);
        if tight != node.mbb {
            return Err(format!(
                "node {id:?} MBB not tight: {} vs {}",
                node.mbb, tight
            ));
        }
        match &node.kind {
            NodeKind::Leaf(rows) => {
                *count += rows.len();
                leaf_depths.push(depth);
            }
            NodeKind::Inner(children) => {
                for &c in children {
                    if !node.mbb.contains_mbb(&self.nodes[c.idx()].mbb) {
                        return Err(format!("child {c:?} escapes parent {id:?}"));
                    }
                    self.validate_node(c, depth + 1, leaf_depths, count)?;
                }
            }
        }
        Ok(())
    }
}

/// Explicit tree description for [`RTree::from_structure`] — used by tests
/// that reproduce the paper's hand-drawn trees (Fig. 3(c), Fig. 5(c)).
#[derive(Debug, Clone)]
pub enum BuildNode {
    /// A leaf holding `(point, record)` entries.
    Leaf(Vec<(Vec<u32>, u32)>),
    /// An inner node over child structures.
    Inner(Vec<BuildNode>),
}

impl RTree {
    /// Builds a tree with an exact, caller-specified structure. MBBs are
    /// computed bottom-up; all leaves must sit at the same depth and each
    /// node must hold between 1 and `cap` entries.
    pub fn from_structure(dims: usize, cap: usize, structure: BuildNode) -> Self {
        let mut tree = RTree::new(dims, cap);
        let (root, depth) = tree.build_structure(&structure, 1);
        tree.root = Some(root);
        tree.height = depth;
        tree
    }

    fn build_structure(&mut self, b: &BuildNode, depth: usize) -> (NodeId, usize) {
        match b {
            BuildNode::Leaf(points) => {
                assert!(!points.is_empty() && points.len() <= self.cap, "leaf size");
                let start = self.records.len();
                for (p, r) in points {
                    assert_eq!(p.len(), self.dims, "point dimensionality");
                    self.points.extend_from_slice(p);
                    self.records.push(*r);
                }
                (self.push_leaf(start), depth)
            }
            BuildNode::Inner(children) => {
                assert!(!children.is_empty() && children.len() <= self.cap, "fanout");
                let (first, leaf_depth) = self.build_structure(&children[0], depth + 1);
                let mut ids = Vec::with_capacity(children.len());
                ids.push(first);
                for c in &children[1..] {
                    let (id, d) = self.build_structure(c, depth + 1);
                    assert_eq!(leaf_depth, d, "uneven leaf depths");
                    ids.push(id);
                }
                let mut mbb = self.nodes[ids[0].idx()].mbb.clone();
                for id in &ids[1..] {
                    mbb.expand_mbb(&self.nodes[id.idx()].mbb);
                }
                (
                    self.push_node(Node {
                        mbb,
                        kind: NodeKind::Inner(ids),
                    }),
                    leaf_depth,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t = RTree::new(2, 4);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn from_structure_builds_fig3_tree() {
        // The R-tree of Fig. 3(c): capacity 3, seven leaves/inner nodes.
        // Points are (A1, ATO) with ATO ordinals a=1..i=9.
        let n2 = BuildNode::Leaf(vec![(vec![2, 3], 1), (vec![3, 4], 2), (vec![6, 5], 5)]);
        let n4 = BuildNode::Leaf(vec![(vec![2, 6], 9), (vec![3, 7], 10)]);
        let n5 = BuildNode::Leaf(vec![(vec![1, 8], 3), (vec![4, 9], 8)]);
        let n6 = BuildNode::Leaf(vec![(vec![8, 1], 4), (vec![7, 3], 6), (vec![9, 2], 7)]);
        let n7 = BuildNode::Leaf(vec![(vec![5, 7], 11), (vec![7, 6], 12), (vec![9, 8], 13)]);
        let n1 = BuildNode::Inner(vec![n2, n4, n5]);
        let n3 = BuildNode::Inner(vec![n6, n7]);
        let root = BuildNode::Inner(vec![n1, n3]);
        let t = RTree::from_structure(2, 3, root);
        assert_eq!(t.len(), 13);
        assert_eq!(t.height(), 3);
        t.validate().unwrap();
        // Root children mindists match Table II step 1: e1=4, e3=6.
        let kids = t.children(t.root().unwrap());
        let mut mds: Vec<u64> = kids
            .iter()
            .map(|c| match c {
                ChildEntry::Node { mbb, .. } => mbb.mindist_l1(),
                _ => panic!("root children are nodes"),
            })
            .collect();
        mds.sort_unstable();
        assert_eq!(mds, vec![4, 6]);
    }

    #[test]
    #[should_panic(expected = "uneven leaf depths")]
    fn uneven_structure_rejected() {
        let _ = RTree::from_structure(
            1,
            3,
            BuildNode::Inner(vec![
                BuildNode::Leaf(vec![(vec![1], 1)]),
                BuildNode::Inner(vec![BuildNode::Leaf(vec![(vec![2], 2)])]),
            ]),
        );
    }

    #[test]
    fn iter_records_sees_everything() {
        let t = RTree::from_structure(
            2,
            3,
            BuildNode::Inner(vec![
                BuildNode::Leaf(vec![(vec![1, 1], 10), (vec![2, 2], 20)]),
                BuildNode::Leaf(vec![(vec![3, 3], 30)]),
            ]),
        );
        let mut recs: Vec<u32> = t.iter_records().iter().map(|&(_, r)| r).collect();
        recs.sort_unstable();
        assert_eq!(recs, vec![10, 20, 30]);
    }
}
