//! Read-side algorithms: axis-aligned range queries and the caller-driven
//! best-first traversal that BBS-family algorithms are built on.

use crate::geom::{point_mindist_l1, point_mindist_l1_from};
use crate::node::{NodeId, NodeKind};
use crate::{Mbb, RTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

impl RTree {
    /// Collects every `(point, record)` inside the closed box `[lo, hi]`.
    /// Charges one IO per node visited.
    pub fn range_query(&self, lo: &[u32], hi: &[u32]) -> Vec<(Vec<u32>, u32)> {
        let mut out = Vec::new();
        self.range_visit(lo, hi, &mut |point, record| {
            out.push((point.to_vec(), record))
        });
        out
    }

    /// Counts points inside the closed box.
    pub fn range_count(&self, lo: &[u32], hi: &[u32]) -> usize {
        let mut n = 0usize;
        self.range_visit(lo, hi, &mut |_, _| n += 1);
        n
    }

    /// Shared traversal: calls `visit(point, record)` for every match.
    fn range_visit(&self, lo: &[u32], hi: &[u32], visit: &mut dyn FnMut(&[u32], u32)) {
        assert_eq!(lo.len(), self.dims, "query dimensionality");
        assert_eq!(hi.len(), self.dims, "query dimensionality");
        let query = Mbb::new(lo.to_vec(), hi.to_vec());
        let Some(root) = self.root else { return };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            self.access_node(id);
            match &self.nodes[id.idx()].kind {
                NodeKind::Leaf(rows) => {
                    for i in rows.clone() {
                        let point = self.row(i);
                        if query.contains_point(point) {
                            visit(point, self.records[i]);
                        }
                    }
                }
                NodeKind::Inner(children) => {
                    for &c in children {
                        if query.intersects(&self.nodes[c.idx()].mbb) {
                            stack.push(c);
                        }
                    }
                }
            }
        }
    }

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
/// ```
pub struct BestFirst<'a> {
    tree: &'a RTree,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    seq: u64,
    /// Reference point for mindists (`None` = the origin).
    origin: Option<Vec<u32>>,
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

    /// Expands a node previously popped: reads it (one IO) and enqueues its
    /// children / points.
    pub fn expand(&mut self, id: NodeId) {
        self.tree.access_node(id);
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

    fn sample_tree(cap: usize) -> (RTree, Vec<(Vec<u32>, u32)>) {
        let pts: Vec<(Vec<u32>, u32)> = (0..300u32)
            .map(|i| (vec![(i * 17) % 100, (i * 31) % 100], i))
            .collect();
        (RTree::bulk_load(2, cap, pts.clone()), pts)
    }

    #[test]
    fn range_query_matches_scan() {
        let (t, pts) = sample_tree(8);
        let lo = [20u32, 30];
        let hi = [60u32, 70];
        let mut got: Vec<u32> = t.range_query(&lo, &hi).iter().map(|&(_, r)| r).collect();
        got.sort_unstable();
        let mut expect: Vec<u32> = pts
            .iter()
            .filter(|(p, _)| (lo[0]..=hi[0]).contains(&p[0]) && (lo[1]..=hi[1]).contains(&p[1]))
            .map(|&(_, r)| r)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert_eq!(t.range_count(&lo, &hi), expect.len());
    }

    #[test]
    fn best_first_visits_points_in_mindist_order() {
        let (t, _) = sample_tree(4);
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

    #[test]
    fn best_first_io_equals_node_count_when_expanding_everything() {
        let (t, _) = sample_tree(4);
        t.reset_io();
        let mut bf = t.best_first();
        while let Some(p) = bf.pop() {
            if let Popped::Node { id, .. } = p {
                bf.expand(id);
            }
        }
        assert_eq!(t.io_count() as usize, t.node_count());
    }

    #[test]
    fn best_first_on_empty_tree() {
        let t = RTree::new(3, 4);
        assert!(t.best_first().pop().is_none());
    }

    #[test]
    fn pruning_skips_subtrees() {
        let (t, _) = sample_tree(4);
        t.reset_io();
        // Prune everything: only the root entry pops, zero expansions.
        let mut bf = t.best_first();
        let popped = bf.pop().unwrap();
        assert!(matches!(popped, Popped::Node { .. }));
        // Dropping without expand = prune. Nothing further pops.
        assert_eq!(t.io_count(), 0);
    }

    proptest! {
        /// Range queries agree with a linear scan on arbitrary data/boxes.
        #[test]
        fn range_query_equals_scan(
            pts in proptest::collection::vec((0u32..50, 0u32..50), 1..120),
            q in ((0u32..50), (0u32..50), (0u32..50), (0u32..50)),
            cap in 2usize..10,
        ) {
            let data: Vec<(Vec<u32>, u32)> = pts
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (vec![x, y], i as u32))
                .collect();
            let t = RTree::bulk_load(2, cap, data.clone());
            t.validate().unwrap();
            let lo = [q.0.min(q.2), q.1.min(q.3)];
            let hi = [q.0.max(q.2), q.1.max(q.3)];
            let mut got: Vec<u32> = t.range_query(&lo, &hi).iter().map(|&(_, r)| r).collect();
            got.sort_unstable();
            let mut expect: Vec<u32> = data
                .iter()
                .filter(|(p, _)| lo[0] <= p[0] && p[0] <= hi[0] && lo[1] <= p[1] && p[1] <= hi[1])
                .map(|&(_, r)| r)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(&got, &expect);
        }

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
