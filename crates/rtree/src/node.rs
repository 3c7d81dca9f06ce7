use crate::Mbb;
use std::ops::Range;

/// Handle to a node in the tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Node payload: either data points (leaf) or child node ids (inner).
#[derive(Debug, Clone)]
pub(crate) enum NodeKind {
    /// A leaf's entries: this range of rows of the tree's point block.
    Leaf(Range<usize>),
    Inner(Vec<NodeId>),
}

/// An R-tree node: its MBB plus its entries. One node models one disk page
/// for IO accounting purposes.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub mbb: Mbb,
    pub kind: NodeKind,
}

impl Node {
    pub fn entry_count(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(rows) => rows.len(),
            NodeKind::Inner(cs) => cs.len(),
        }
    }
}

/// A child of an inner node (or an entry of a leaf) as seen by traversals.
#[derive(Debug, Clone, Copy)]
pub enum ChildEntry<'a> {
    /// A subtree, summarized by its MBB.
    Node { id: NodeId, mbb: &'a Mbb },
    /// A data point.
    Record { point: &'a [u32], record: u32 },
}
