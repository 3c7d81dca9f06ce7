//! Reproduces the paper's §IV-A worked example end to end: the data set of
//! Fig. 3(a), the hand-drawn R-tree of Fig. 3(c) (node capacity 3), and the
//! step-by-step execution of Table II.
//!
//! The trace is deterministic given (i) L1 mindist ordering, (ii) FIFO
//! tie-breaking among equal mindists — both guaranteed by `rtree` — so we
//! can assert the emission order, the number of heap pops (16: the root
//! plus the 15 table steps) and the exact page reads (6 of the 8 nodes;
//! N4 and N7 are pruned unread).

use tss::core::{PoDomain, Stss, StssConfig, Table};
use tss::poset::Dag;
use tss::rtree::{BuildNode, RTree};

/// Fig. 3(a): (A1, A2) tuples; A2 ids: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8.
fn fig3_table() -> Table {
    let mut t = Table::new(1, 1);
    for (a1, a2) in [
        (2u32, 2u32), // p1  c
        (3, 3),       // p2  d
        (1, 7),       // p3  h
        (8, 0),       // p4  a
        (6, 4),       // p5  e
        (7, 2),       // p6  c
        (9, 1),       // p7  b
        (4, 8),       // p8  i
        (2, 5),       // p9  f
        (3, 6),       // p10 g
        (5, 6),       // p11 g
        (7, 5),       // p12 f
        (9, 7),       // p13 h
    ] {
        t.push(&[a1], &[a2]);
    }
    t
}

/// Fig. 3(c), with points already in the transformed A1 × A_TO space
/// (ordinals are alphabetical: a=1 … i=9).
fn fig3_tree() -> RTree {
    let n2 = BuildNode::Leaf(vec![(vec![2, 3], 0), (vec![3, 4], 1), (vec![6, 5], 4)]);
    let n4 = BuildNode::Leaf(vec![(vec![2, 6], 8), (vec![3, 7], 9)]);
    let n5 = BuildNode::Leaf(vec![(vec![1, 8], 2), (vec![4, 9], 7)]);
    let n6 = BuildNode::Leaf(vec![(vec![8, 1], 3), (vec![7, 3], 5), (vec![9, 2], 6)]);
    let n7 = BuildNode::Leaf(vec![(vec![5, 7], 10), (vec![7, 6], 11), (vec![9, 8], 12)]);
    let n1 = BuildNode::Inner(vec![n2, n4, n5]);
    let n3 = BuildNode::Inner(vec![n6, n7]);
    RTree::from_structure(2, 3, BuildNode::Inner(vec![n1, n3]))
}

#[test]
fn table2_step_by_step() {
    let stss = Stss::with_tree(fig3_table(), vec![Dag::paper_example()], fig3_tree()).unwrap();
    let run = stss.run();

    // Final skyline: p1..p5, emitted in ascending mindist. p3 and p4 tie at
    // mindist 9 and are mutually incomparable; Table II shows p3 first, but
    // its own tie order is not FIFO-consistent (p5/e7/p7 at mindist 11 are
    // FIFO), so either of the two admissible orders is correct. Our FIFO
    // rule emits p4 (en-heaped at step 8) before p3 (step 9).
    let recs = run.skyline_records();
    assert_eq!(recs[..2], [0, 1]);
    assert_eq!(recs[4], 4);
    let mut mid = recs[2..4].to_vec();
    mid.sort_unstable();
    assert_eq!(mid, vec![2, 3]);

    // 16 heap pops: the root plus one per table step.
    assert_eq!(run.metrics.heap_pops, 16);

    // Page reads: R, N1, N2, N3, N6, N5 are expanded; N4 (step 7) and N7
    // (step 14) are t-dominated and pruned without being read.
    assert_eq!(run.metrics.io_reads, 6);

    assert_eq!(run.metrics.results, 5);
}

#[test]
fn table2_emission_mindists() {
    // The mindists at which results pop: p1 at 5, p2 at 7, p3 at 9, p4 at
    // 9, p5 at 11 (the ⟨entry, mindist⟩ pairs of Table II).
    let stss = Stss::with_tree(fig3_table(), vec![Dag::paper_example()], fig3_tree()).unwrap();
    let run = stss.run();
    let mindists: Vec<u64> = run
        .skyline
        .iter()
        .map(|p| {
            // Transformed point: A1 + ordinal (= id + 1 alphabetically).
            (p.to[0] + p.po[0] + 1) as u64
        })
        .collect();
    assert_eq!(mindists, vec![5, 7, 9, 9, 11]);
}

#[test]
fn bulk_loaded_tree_gives_same_skyline() {
    // The STR-built index differs from the hand-drawn one, but the result —
    // and optimal progressiveness in mindist order — must not.
    let stss = Stss::build(
        fig3_table(),
        vec![Dag::paper_example()],
        StssConfig {
            node_capacity: Some(3),
        },
    )
    .unwrap();
    let run = stss.run();
    let mut recs = run.skyline_records();
    recs.sort_unstable();
    assert_eq!(recs, vec![0, 1, 2, 3, 4]);
}

#[test]
fn range_strategies_reproduce_the_trace_results() {
    // sTSS builds an MBB's run sets from the dyadic range index (§IV-B), its
    // one range strategy. On every ordinal range of the domain it equals
    // the naive merge of the per-value sets, and the hand-drawn tree's run
    // reproduces the trace's skyline.
    let dom = PoDomain::new(Dag::paper_example());
    for lo in 1..=9 {
        for hi in lo..=9 {
            assert_eq!(
                dom.range_intervals(lo, hi),
                dom.labeling().range_intervals(lo, hi),
                "[{lo}, {hi}]"
            );
        }
    }
    let stss = Stss::with_tree(fig3_table(), vec![Dag::paper_example()], fig3_tree()).unwrap();
    let mut recs = stss.run().skyline_records();
    recs.sort_unstable();
    assert_eq!(recs, vec![0, 1, 2, 3, 4]);
}
