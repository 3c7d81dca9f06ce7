//! STR (Sort-Tile-Recursive) bulk loading — the standard way to build a
//! packed R-tree over a static data set, as the paper's disk indexes are.

use crate::node::{Node, NodeId, NodeKind};
use crate::RTree;

impl RTree {
    /// Bulk-loads `points` (each `(coords, record)`) into a packed tree
    /// using Sort-Tile-Recursive. Points may repeat; order is irrelevant.
    ///
    /// Leaves are filled to capacity, so the tree has roughly
    /// `⌈n / cap⌉` pages at the leaf level — the disk-footprint model the
    /// paper's IO counts assume.
    pub fn bulk_load(dims: usize, cap: usize, points: Vec<(Vec<u32>, u32)>) -> Self {
        for (p, _) in &points {
            assert_eq!(p.len(), dims, "point dimensionality mismatch");
        }
        let mut coords = Vec::with_capacity(points.len() * dims);
        let mut records = Vec::with_capacity(points.len());
        for (p, r) in &points {
            coords.extend_from_slice(p);
            records.push(*r);
        }
        Self::bulk_load_flat(dims, cap, &coords, &records)
    }

    /// Columnar STR bulk load: `coords` is the row-major flat coordinate
    /// matrix (`records.len() * dims` values), `records[i]` the record id of
    /// row `i`. The tiling sorts an index array over the flat matrix, and
    /// the leaves are cut out of one copy of the matrix in tiled order, so
    /// no per-point row is ever materialized; the resulting tree is
    /// identical to [`bulk_load`](Self::bulk_load) on the same rows in the
    /// same order.
    pub fn bulk_load_flat(dims: usize, cap: usize, coords: &[u32], records: &[u32]) -> Self {
        let mut tree = RTree::new(dims, cap);
        let n = records.len();
        assert_eq!(coords.len(), n * dims, "flat matrix shape");
        if n == 0 {
            return tree;
        }
        // --- Leaf level: tile (row, record) index pairs over the flat
        // matrix, then copy each leaf's rows into the tree's point block in
        // tiled order. ----------------------------------------------------
        let mut items: Vec<(u32, u32)> = records
            .iter()
            .enumerate()
            .map(|(row, &r)| (row as u32, r))
            .collect();
        let mut bounds = Vec::new();
        str_tile_flat(&mut items, coords, dims, cap, 0, 0, &mut bounds);
        tree.points.reserve_exact(coords.len());
        tree.records.reserve_exact(n);
        let mut level: Vec<NodeId> = bounds
            .into_iter()
            .map(|(lo, hi)| {
                let start = tree.records.len();
                for &(row, record) in &items[lo..hi] {
                    tree.points
                        .extend_from_slice(&coords[row as usize * dims..][..dims]);
                    tree.records.push(record);
                }
                tree.push_leaf(start)
            })
            .collect();
        let mut height = 1usize;
        // --- Upper levels: STR-pack child MBB centers ----------------------
        while level.len() > 1 {
            let mut centers: Vec<(Vec<u32>, u32)> = level
                .iter()
                .map(|&id| {
                    let mbb = &tree.nodes[id.idx()].mbb;
                    let center: Vec<u32> = (0..dims)
                        .map(|d| mbb.lo()[d] / 2 + mbb.hi()[d] / 2)
                        .collect();
                    (center, id.0)
                })
                .collect();
            let groups = str_tile(&mut centers, dims, cap, 0);
            level = groups
                .into_iter()
                .map(|group| {
                    let children: Vec<NodeId> =
                        group.into_iter().map(|(_, id)| NodeId(id)).collect();
                    let mut mbb = tree.nodes[children[0].idx()].mbb.clone();
                    for c in &children[1..] {
                        mbb.expand_mbb(&tree.nodes[c.idx()].mbb);
                    }
                    tree.push_node(Node {
                        mbb,
                        kind: NodeKind::Inner(children),
                    })
                })
                .collect();
            height += 1;
        }
        tree.root = Some(level[0]);
        tree.height = height;
        tree
    }
}

/// The flat-matrix twin of [`str_tile`]: recursively reorders `(row,
/// record)` index pairs over the row-major `coords` matrix and records the
/// final leaf cut points in `bounds` as `[lo, hi)` ranges into `items`.
/// Sort keys (coordinate, then record id) match `str_tile`, so both tilings
/// produce identical trees.
fn str_tile_flat(
    items: &mut [(u32, u32)],
    coords: &[u32],
    dims: usize,
    cap: usize,
    dim: usize,
    base: usize,
    bounds: &mut Vec<(usize, usize)>,
) {
    let n = items.len();
    if n <= cap {
        bounds.push((base, base + n));
        return;
    }
    items.sort_unstable_by(|a, b| {
        coords[a.0 as usize * dims + dim]
            .cmp(&coords[b.0 as usize * dims + dim])
            .then_with(|| a.1.cmp(&b.1))
    });
    if dim + 1 == dims {
        // Last dimension: chunk straight into pages.
        let mut off = 0;
        while off < n {
            let end = (off + cap).min(n);
            bounds.push((base + off, base + end));
            off = end;
        }
        return;
    }
    let pages = n.div_ceil(cap);
    let k = (dims - dim) as f64;
    let slabs = (pages as f64).powf(1.0 / k).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    let mut off = 0;
    while off < n {
        let end = (off + slab_size).min(n);
        str_tile_flat(
            &mut items[off..end],
            coords,
            dims,
            cap,
            dim + 1,
            base + off,
            bounds,
        );
        off = end;
    }
}

/// Recursively tiles `items` into groups of at most `cap`, sorting by one
/// dimension per recursion level (classic STR). Retained for the upper
/// levels, which tile child-MBB centers (few, already materialized).
fn str_tile(
    items: &mut [(Vec<u32>, u32)],
    dims: usize,
    cap: usize,
    dim: usize,
) -> Vec<Vec<(Vec<u32>, u32)>> {
    let n = items.len();
    if n <= cap {
        return vec![items.to_vec()];
    }
    items.sort_unstable_by(|a, b| a.0[dim].cmp(&b.0[dim]).then_with(|| a.1.cmp(&b.1)));
    if dim + 1 == dims {
        // Last dimension: chunk straight into pages.
        return items.chunks(cap).map(|c| c.to_vec()).collect();
    }
    // Number of pages overall, slabs along this dimension = ceil(P^(1/k))
    // where k = remaining dimensions.
    let pages = n.div_ceil(cap);
    let k = (dims - dim) as f64;
    let slabs = (pages as f64).powf(1.0 / k).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    let mut out = Vec::new();
    for chunk in items.chunks_mut(slab_size) {
        out.extend(str_tile(chunk, dims, cap, dim + 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tests::entries;

    fn grid_points(side: u32) -> Vec<(Vec<u32>, u32)> {
        let mut pts = Vec::new();
        for x in 0..side {
            for y in 0..side {
                pts.push((vec![x, y], x * side + y));
            }
        }
        pts
    }

    #[test]
    fn loads_empty_and_tiny() {
        let t = RTree::bulk_load(2, 4, vec![]);
        assert!(t.is_empty());
        t.validate().unwrap();

        let t = RTree::bulk_load(2, 4, vec![(vec![1, 2], 7)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        t.validate().unwrap();
        assert_eq!(entries(&t), vec![(&[1u32, 2][..], 7)]);
    }

    #[test]
    fn loads_grid_and_validates() {
        for cap in [2usize, 3, 8, 64] {
            let t = RTree::bulk_load(2, cap, grid_points(20));
            assert_eq!(t.len(), 400, "cap={cap}");
            t.validate().unwrap();
            // STR packs leaves tightly: node count near n/cap.
            let min_leaves = 400usize.div_ceil(cap);
            assert!(
                t.node_count() >= min_leaves,
                "cap={cap}: {} nodes",
                t.node_count()
            );
        }
    }

    #[test]
    fn preserves_all_records_including_duplicates() {
        let mut pts = grid_points(8);
        pts.extend(grid_points(8).into_iter().map(|(p, r)| (p, r + 1000)));
        let t = RTree::bulk_load(2, 5, pts);
        assert_eq!(t.len(), 128);
        let mut recs: Vec<u32> = entries(&t).iter().map(|&(_, r)| r).collect();
        recs.sort_unstable();
        let mut expect: Vec<u32> = (0..64).chain(1000..1064).collect();
        expect.sort_unstable();
        assert_eq!(recs, expect);
    }

    #[test]
    fn handles_higher_dimensions() {
        let pts: Vec<(Vec<u32>, u32)> = (0..500u32)
            .map(|i| (vec![i % 7, i % 11, i % 13, i % 17], i))
            .collect();
        let t = RTree::bulk_load(4, 10, pts);
        assert_eq!(t.len(), 500);
        t.validate().unwrap();
        assert!(t.height() >= 2);
    }

    #[test]
    fn flat_load_matches_pairwise_load() {
        let pts = grid_points(9);
        let mut coords = Vec::new();
        let mut records = Vec::new();
        for (p, r) in &pts {
            coords.extend_from_slice(p);
            records.push(*r);
        }
        for cap in [2usize, 4, 16] {
            let flat = RTree::bulk_load_flat(2, cap, &coords, &records);
            let pairs = RTree::bulk_load(2, cap, pts.clone());
            flat.validate().unwrap();
            assert_eq!(flat.node_count(), pairs.node_count(), "cap={cap}");
            assert_eq!(entries(&flat), entries(&pairs), "cap={cap}");
        }
        // Empty flat load.
        let t = RTree::bulk_load_flat(3, 4, &[], &[]);
        assert!(t.is_empty());
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "flat matrix shape")]
    fn flat_load_rejects_ragged_matrix() {
        let _ = RTree::bulk_load_flat(2, 4, &[1, 2, 3], &[0, 1]);
    }

    #[test]
    fn single_full_leaf_has_height_one() {
        let pts: Vec<(Vec<u32>, u32)> = (0..10u32).map(|i| (vec![i], i)).collect();
        let t = RTree::bulk_load(1, 10, pts);
        assert_eq!(t.height(), 1);
        t.validate().unwrap();
    }
}
