//! The caller-driven best-first traversal that BBS-family algorithms are
//! built on.

use crate::geom::{point_mindist_l1, point_mindist_l1_from};
use crate::node::{NodeId, NodeKind};
use crate::{Mbb, RTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

impl RTree {
    /// Starts a best-first (ascending L1 mindist) traversal. The caller
    /// pops entries and decides, per node, whether to [`BestFirst::expand`]
    /// it or prune the whole subtree — exactly the control flow of BBS.
    pub fn best_first(&self) -> BestFirst<'_> {
        self.best_first_from(None)
    }

    /// Best-first traversal by ascending L1 distance to an arbitrary
    /// reference point — the traversal order of *dynamic* skylines, where
    /// the most preferable point is the query itself (§V-B). `None` means
    /// the origin.
    pub fn best_first_from(&self, origin: Option<&[u32]>) -> BestFirst<'_> {
        let origin: Option<Vec<u32>> = origin.map(|o| {
            assert_eq!(o.len(), self.dims, "reference dimensionality");
            o.to_vec()
        });
        let mut bf = BestFirst {
            tree: self,
            heap: BinaryHeap::new(),
            seq: 1,
            origin,
            reads: 0,
        };
        if let Some(root) = self.root {
            let mindist = bf.node_mindist(root);
            bf.heap.push(Reverse(HeapEntry {
                mindist,
                seq: 0,
                kind: HeapKind::Node(root),
            }));
        }
        bf
    }
}

/// Entry kind inside the best-first heap.
#[derive(Debug, Clone, PartialEq, Eq)]
enum HeapKind {
    Node(NodeId),
    /// A row of the tree's point block — points are referenced, not
    /// copied.
    Record(u32),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct HeapEntry {
    mindist: u64,
    /// Insertion sequence breaks mindist ties FIFO, keeping traversal
    /// deterministic (the paper's tables assume a stable order).
    seq: u64,
    kind: HeapKind,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.mindist, self.seq).cmp(&(other.mindist, other.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What the best-first heap hands back on each pop.
#[derive(Debug, Clone, Copy)]
pub enum Popped<'a> {
    /// An internal or leaf *node* entry; expand it with
    /// [`BestFirst::expand`] or drop it to prune the subtree.
    Node {
        id: NodeId,
        mbb: &'a Mbb,
        mindist: u64,
    },
    /// A data point.
    Record {
        point: &'a [u32],
        record: u32,
        mindist: u64,
    },
}

/// Caller-driven best-first traversal (see [`RTree::best_first`]).
///
/// The traversal counts its own page reads: one per [`expand`](Self::expand),
/// the paper's one IO per node access with no buffer (§VI). Any number of
/// traversals may walk one tree at once, each with its own count.
///
/// ```
/// # use rtree::{RTree, Popped};
/// let t = RTree::bulk_load(2, 4, vec![(vec![3, 3], 0), (vec![1, 1], 1)]);
/// let mut bf = t.best_first();
/// let mut order = Vec::new();
/// while let Some(popped) = bf.pop() {
///     match popped {
///         Popped::Node { id, .. } => bf.expand(id),
///         Popped::Record { record, .. } => order.push(record),
///     }
/// }
/// assert_eq!(order, vec![1, 0]); // ascending mindist
/// assert_eq!(bf.reads(), 1); // one leaf, read once
/// ```
pub struct BestFirst<'a> {
    tree: &'a RTree,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    seq: u64,
    /// Reference point for mindists (`None` = the origin).
    origin: Option<Vec<u32>>,
    /// Nodes expanded so far: this traversal's page reads.
    reads: u64,
}

impl<'a> BestFirst<'a> {
    /// Pops the entry with the smallest mindist (FIFO among ties). Popping
    /// performs no IO by itself.
    pub fn pop(&mut self) -> Option<Popped<'a>> {
        let Reverse(entry) = self.heap.pop()?;
        Some(match entry.kind {
            HeapKind::Node(id) => Popped::Node {
                id,
                mbb: &self.tree.nodes[id.idx()].mbb,
                mindist: entry.mindist,
            },
            HeapKind::Record(row) => Popped::Record {
                point: self.tree.row(row as usize),
                record: self.tree.records[row as usize],
                mindist: entry.mindist,
            },
        })
    }

    /// Expands a node previously popped: reads it (one page read) and
    /// enqueues its children / points.
    pub fn expand(&mut self, id: NodeId) {
        self.reads += 1;
        match &self.tree.nodes[id.idx()].kind {
            NodeKind::Leaf(rows) => {
                for i in rows.clone() {
                    let point = self.tree.row(i);
                    let mindist = match &self.origin {
                        None => point_mindist_l1(point),
                        Some(o) => point_mindist_l1_from(point, o),
                    };
                    self.push(HeapEntry {
                        mindist,
                        seq: 0,
                        kind: HeapKind::Record(i as u32),
                    });
                }
            }
            NodeKind::Inner(children) => {
                for &c in children {
                    let mindist = self.node_mindist(c);
                    self.push(HeapEntry {
                        mindist,
                        seq: 0,
                        kind: HeapKind::Node(c),
                    });
                }
            }
        }
    }

    /// Pages this traversal has read: the nodes it expanded.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    fn node_mindist(&self, id: NodeId) -> u64 {
        let mbb = &self.tree.nodes[id.idx()].mbb;
        match &self.origin {
            None => mbb.mindist_l1(),
            Some(o) => mbb.mindist_l1_from(o),
        }
    }

    fn push(&mut self, mut e: HeapEntry) {
        e.seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_tree(cap: usize) -> RTree {
        let pts: Vec<(Vec<u32>, u32)> = (0..300u32)
            .map(|i| (vec![(i * 17) % 100, (i * 31) % 100], i))
            .collect();
        RTree::bulk_load(2, cap, pts)
    }

    #[test]
    fn best_first_visits_points_in_mindist_order() {
        let t = sample_tree(4);
        let mut bf = t.best_first();
        let mut last = 0u64;
        let mut count = 0;
        while let Some(p) = bf.pop() {
            match p {
                Popped::Node { id, mindist, .. } => {
                    assert!(mindist >= last);
                    bf.expand(id);
                }
                Popped::Record { mindist, .. } => {
                    assert!(mindist >= last, "mindist regressed: {mindist} < {last}");
                    last = mindist;
                    count += 1;
                }
            }
        }
        assert_eq!(count, 300);
    }

    /// Expanding everything reads every node once, also when a second
    /// traversal of the same tree runs in between: each counts its own.
    #[test]
    fn best_first_io_equals_node_count_when_expanding_everything() {
        let t = sample_tree(4);
        let expand_all = |bf: &mut BestFirst| {
            while let Some(p) = bf.pop() {
                if let Popped::Node { id, .. } = p {
                    bf.expand(id);
                }
            }
        };
        let mut a = t.best_first();
        for _ in 0..3 {
            if let Some(Popped::Node { id, .. }) = a.pop() {
                a.expand(id);
            }
        }
        let mut b = t.best_first();
        expand_all(&mut b);
        expand_all(&mut a);
        assert_eq!(a.reads() as usize, t.node_count());
        assert_eq!(b.reads() as usize, t.node_count());
    }

    #[test]
    fn best_first_on_empty_tree() {
        let t = RTree::new(3, 4);
        assert!(t.best_first().pop().is_none());
    }

    #[test]
    fn pruning_skips_subtrees() {
        let t = sample_tree(4);
        // Prune everything: only the root entry pops, zero expansions.
        let mut bf = t.best_first();
        let popped = bf.pop().unwrap();
        assert!(matches!(popped, Popped::Node { .. }));
        // Dropping without expand = prune. Nothing further pops.
        assert!(bf.pop().is_none());
        assert_eq!(bf.reads(), 0);
    }

    proptest! {
        /// Best-first yields every record exactly once, in ascending mindist.
        #[test]
        fn best_first_complete_and_ordered(
            pts in proptest::collection::vec((0u32..40, 0u32..40), 1..80),
            cap in 2usize..8,
        ) {
            let data: Vec<(Vec<u32>, u32)> = pts
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (vec![x, y], i as u32))
                .collect();
            let t = RTree::bulk_load(2, cap, data.clone());
            t.validate().unwrap();
            let mut bf = t.best_first();
            let mut seen = Vec::new();
            let mut last = 0u64;
            while let Some(p) = bf.pop() {
                match p {
                    Popped::Node { id, .. } => bf.expand(id),
                    Popped::Record { record, mindist, .. } => {
                        prop_assert!(mindist >= last);
                        last = mindist;
                        seen.push(record);
                    }
                }
            }
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..data.len() as u32).collect::<Vec<_>>());
        }
    }
}
