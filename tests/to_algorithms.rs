//! The totally ordered substrate (§II-A): BBS over the R-tree must agree
//! with the brute-force oracle on the paper's generated workloads and keep
//! its signature IO frugality.

use tss::datagen::{gen_to_matrix, Distribution, TupleConfig};
use tss::rtree::RTree;
use tss::skyline::{bbs, brute_force, PointBlock};

fn workload(n: usize, dims: usize, domain: u32, dist: Distribution, seed: u64) -> PointBlock {
    // The generated flat matrix is the columnar layout already: zero-copy.
    PointBlock::from_flat(
        dims,
        gen_to_matrix(TupleConfig {
            n,
            dims,
            domain,
            dist,
            seed,
        }),
    )
}

fn tree_of(data: &PointBlock) -> RTree {
    let ids: Vec<u32> = (0..data.len() as u32).collect();
    RTree::bulk_load_flat(data.dims(), 16, data.flat(), &ids)
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

#[test]
fn all_algorithms_agree() {
    for (dist, seed) in [
        (Distribution::Independent, 1u64),
        (Distribution::AntiCorrelated, 2),
        (Distribution::Correlated, 3),
    ] {
        for dims in [2usize, 3, 4] {
            let data = workload(800, dims, 50, dist, seed);
            let expect = brute_force(&data);
            assert_eq!(
                sorted(bbs(&tree_of(&data)).0),
                expect,
                "BBS {dist:?} d={dims}"
            );
        }
    }
}

#[test]
fn bbs_is_io_frugal_on_clustered_data() {
    // Correlated data: a tight skyline near the origin lets BBS prune
    // nearly the whole tree.
    let data = workload(5000, 2, 10_000, Distribution::Correlated, 11);
    let tree = tree_of(&data);
    let (sky, stats) = bbs(&tree);
    assert!(!sky.is_empty());
    assert!(
        (stats.io_reads as usize) < tree.node_count() / 2,
        "BBS read {} of {} pages",
        stats.io_reads,
        tree.node_count()
    );
}
