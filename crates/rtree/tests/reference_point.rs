//! Integration tests for the reference-point best-first traversal (dynamic
//! skylines).

use rtree::{Popped, RTree};

fn grid_tree(cap: usize) -> (RTree, Vec<Vec<u32>>) {
    let mut pts = Vec::new();
    for x in 0..20u32 {
        for y in 0..20u32 {
            pts.push(vec![x * 5, y * 5]);
        }
    }
    let data: Vec<(Vec<u32>, u32)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u32))
        .collect();
    (RTree::bulk_load(2, cap, data), pts)
}

#[test]
fn best_first_from_reference_orders_by_folded_distance() {
    let (tree, pts) = grid_tree(6);
    let q = [48u32, 52];
    let mut bf = tree.best_first_from(Some(&q));
    let mut last = 0u64;
    let mut seen = 0;
    while let Some(p) = bf.pop() {
        match p {
            Popped::Node { id, mbb, mindist } => {
                assert_eq!(mindist, mbb.mindist_l1_from(&q));
                bf.expand(id);
            }
            Popped::Record {
                point,
                record,
                mindist,
            } => {
                let expect: u64 = point
                    .iter()
                    .zip(q.iter())
                    .map(|(&a, &b)| a.abs_diff(b) as u64)
                    .sum();
                assert_eq!(mindist, expect);
                assert_eq!(point, pts[record as usize].as_slice());
                assert!(mindist >= last, "folded mindist regressed");
                last = mindist;
                seen += 1;
            }
        }
    }
    assert_eq!(seen, 400);
}

#[test]
fn folded_corner_lower_bounds_every_point() {
    let (tree, _) = grid_tree(4);
    let q = [33u32, 71];
    // For every node, the folded corner must dominate-or-equal the folded
    // coordinates of every contained point.
    let root = tree.root().unwrap();
    let mut stack = vec![root];
    let mut corner = [0u32; 2];
    while let Some(id) = stack.pop() {
        tree.mbb(id).folded_corner(&q, &mut corner);
        for child in tree.children(id) {
            match child {
                rtree::ChildEntry::Node { id, .. } => stack.push(id),
                rtree::ChildEntry::Record { point, .. } => {
                    for d in 0..2 {
                        assert!(corner[d] <= point[d].abs_diff(q[d]));
                    }
                }
            }
        }
    }
}

#[test]
fn origin_reference_equals_plain_best_first() {
    let (tree, _) = grid_tree(5);
    let run = |mut bf: rtree::BestFirst| {
        let mut order = Vec::new();
        while let Some(p) = bf.pop() {
            match p {
                Popped::Node { id, .. } => bf.expand(id),
                Popped::Record { record, .. } => order.push(record),
            }
        }
        order
    };
    let plain = run(tree.best_first());
    let zero = run(tree.best_first_from(Some(&[0, 0])));
    assert_eq!(plain, zero);
}
