use crate::store::PointBlock;
use crate::types::Stats;
use rtree::{Popped, RTree};

/// Branch-and-Bound Skyline (Papadias et al., §II-A) over an [`RTree`]:
/// entries are popped from a heap in ascending L1 mindist to the origin;
/// nodes whose lower-left corner is dominated are pruned wholesale; data
/// points that survive the skyline-list check are emitted immediately
/// (optimal progressiveness via precedence).
///
/// Returns `(record ids in discovery order, stats)`. `stats.io_reads` counts
/// the R-tree nodes **this run** expanded ([`rtree::BestFirst::reads`]),
/// which is how the paper reports BBS's IO optimality.
///
/// # Pruning and duplicates
///
/// An MBB with lower-left corner `c` is pruned iff some skyline point `s`
/// satisfies `s <= c` *and* `s != c`. Then for any point `p` inside the MBB,
/// `s <= c <= p` and `p = s` would force `c = s` — a contradiction — so `s`
/// strictly improves on `p` somewhere and every point in the subtree is
/// dominated. Requiring `s != c` keeps the rule exact even when the data
/// contains exact duplicates of skyline points.
pub fn bbs(tree: &RTree) -> (Vec<u32>, Stats) {
    let mut bf = tree.best_first();
    // Confirmed skyline coordinates, columnar (the batched-kernel window).
    let mut skyline = PointBlock::new(tree.dims());
    let mut result = Vec::new();
    let mut stats = Stats::default();
    while let Some(popped) = bf.pop() {
        match popped {
            Popped::Node { id, mbb, .. } => {
                let (pruned, examined) = skyline.corner_pruned(mbb.lo());
                stats.batch(examined);
                if !pruned {
                    bf.expand(id);
                }
            }
            Popped::Record { point, record, .. } => {
                let (dominated, examined) = skyline.dominated(point);
                stats.batch(examined);
                if !dominated {
                    // Precedence: no later entry can dominate `point` (any
                    // dominator has a strictly smaller mindist, except
                    // exact duplicates, which do not dominate) — confirm
                    // now.
                    skyline.push(point);
                    result.push(record);
                }
            }
        }
    }
    stats.io_reads = bf.reads();
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;
    use crate::types::monotone_sum;
    use proptest::prelude::*;

    fn tree_of(data: &PointBlock, cap: usize) -> RTree {
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        RTree::bulk_load_flat(data.dims(), cap, data.flat(), &ids)
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_oracle_small() {
        let data = PointBlock::from_rows(&[
            vec![5, 1],
            vec![1, 5],
            vec![3, 3],
            vec![4, 4],
            vec![2, 4],
            vec![3, 3],
        ]);
        let (got, stats) = bbs(&tree_of(&data, 3));
        assert_eq!(sorted(got), brute_force(&data));
        assert!(stats.io_reads >= 1);
    }

    #[test]
    fn progressive_output_in_mindist_order() {
        let data = PointBlock::from_rows(
            &(0..64u32)
                .map(|i| vec![i % 8 * 3, (i / 8) * 3])
                .collect::<Vec<_>>(),
        );
        let (got, _) = bbs(&tree_of(&data, 4));
        let dists: Vec<u64> = got
            .iter()
            .map(|&i| monotone_sum(data.point(i as usize)))
            .collect();
        assert!(
            dists.windows(2).all(|w| w[0] <= w[1]),
            "emitted out of order: {dists:?}"
        );
    }

    #[test]
    fn duplicates_of_skyline_points_survive() {
        let data = PointBlock::from_rows(&[vec![2, 2], vec![2, 2], vec![5, 5], vec![1, 4]]);
        let (got, _) = bbs(&tree_of(&data, 2));
        assert_eq!(sorted(got), vec![0, 1, 3]);
    }

    #[test]
    fn io_optimality_prunes_dominated_subtrees() {
        // A tight cluster at the origin dominates a distant cloud; BBS must
        // touch far fewer pages than a full traversal.
        let mut rows = vec![vec![0u32, 0]];
        for i in 0..1000u32 {
            rows.push(vec![500 + i % 100, 500 + (i * 13) % 100]);
        }
        let data = PointBlock::from_rows(&rows);
        let t = tree_of(&data, 8);
        let (got, stats) = bbs(&t);
        assert_eq!(got, vec![0]);
        assert!(
            (stats.io_reads as usize) < t.node_count() / 4,
            "io {} vs {} nodes",
            stats.io_reads,
            t.node_count()
        );
    }

    #[test]
    fn empty_tree() {
        let t = RTree::new(2, 4);
        let (got, stats) = bbs(&t);
        assert!(got.is_empty());
        assert_eq!(stats.io_reads, 0);
    }

    proptest! {
        #[test]
        fn equals_brute_force(
            pts in proptest::collection::vec(
                proptest::collection::vec(0u32..20, 2), 1..100),
            cap in 2usize..8,
        ) {
            let data = PointBlock::from_rows(&pts);
            let (got, _) = bbs(&tree_of(&data, cap));
            prop_assert_eq!(sorted(got), brute_force(&data));
        }

        /// Three dimensions, with duplicates injected.
        #[test]
        fn equals_brute_force_3d_with_dups(
            pts in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 3), 1..60),
        ) {
            let mut rows = pts.clone();
            rows.extend(pts.iter().take(5).cloned());
            let data = PointBlock::from_rows(&rows);
            let (got, _) = bbs(&tree_of(&data, 4));
            prop_assert_eq!(sorted(got), brute_force(&data));
        }
    }
}
