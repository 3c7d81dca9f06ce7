//! Cross-algorithm agreement on generated workloads: every algorithm in the
//! workspace — sTSS in all configurations, the three SDC baselines, dTSS in
//! all configurations, and the brute-force oracle — must produce the same
//! skyline on the paper's synthetic data.

use tss::core::{
    brute_force_po_skyline, Dtss, DtssConfig, PoDomain, PoQuery, RangeStrategy, Stss, StssConfig,
    Table,
};
use tss::datagen::{gen_po_matrix, gen_to_matrix, Distribution, TupleConfig};
use tss::poset::generator::{subset_lattice, DensityMode, LatticeParams};
use tss::poset::Dag;
use tss::sdc::{SdcConfig, SdcIndex, Variant};

fn workload(
    n: usize,
    to_dims: usize,
    po_dims: usize,
    height: u32,
    dist: Distribution,
    seed: u64,
) -> (Table, Vec<Dag>) {
    let dags: Vec<Dag> = (0..po_dims)
        .map(|d| {
            subset_lattice(LatticeParams {
                height,
                density: 0.8,
                seed: seed + d as u64,
                mode: DensityMode::Literal,
            })
            .unwrap()
        })
        .collect();
    let to = gen_to_matrix(TupleConfig {
        n,
        dims: to_dims,
        domain: 100,
        dist,
        seed,
    });
    let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
    let po = gen_po_matrix(n, &sizes, seed + 99);
    (Table::from_parts(to_dims, po_dims, to, po).unwrap(), dags)
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

fn check_all(table: &Table, dags: &[Dag], label: &str) {
    let domains: Vec<PoDomain> = dags.iter().cloned().map(PoDomain::new).collect();
    let expect = sorted(brute_force_po_skyline(&domains, table));

    for cfg in [
        StssConfig::default(),
        StssConfig {
            range_strategy: RangeStrategy::Naive,
            ..Default::default()
        },
        StssConfig {
            range_strategy: RangeStrategy::Full,
            ..Default::default()
        },
    ] {
        let stss = Stss::build(table.clone(), dags.to_vec(), cfg).unwrap();
        assert_eq!(
            sorted(stss.run().skyline_records()),
            expect,
            "{label}: sTSS {cfg:?}"
        );
    }

    for variant in [Variant::BbsPlus, Variant::Sdc, Variant::SdcPlus] {
        let idx =
            SdcIndex::build(table.clone(), dags.to_vec(), variant, SdcConfig::default()).unwrap();
        assert_eq!(sorted(idx.run().skyline), expect, "{label}: {variant:?}");
    }

    let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
    for cfg in [
        DtssConfig {
            precompute_local: false,
            ..Default::default()
        },
        DtssConfig::default(),
    ] {
        let dtss = Dtss::build(table.clone(), sizes.clone(), cfg).unwrap();
        let run = dtss.query(&PoQuery::new(dags.to_vec())).unwrap();
        assert_eq!(
            sorted(run.skyline_records()),
            expect,
            "{label}: dTSS {cfg:?}"
        );
    }
}

#[test]
fn independent_one_po_dim() {
    let (t, dags) = workload(600, 2, 1, 4, Distribution::Independent, 1);
    check_all(&t, &dags, "indep 2+1");
}

#[test]
fn anti_correlated_one_po_dim() {
    let (t, dags) = workload(500, 2, 1, 4, Distribution::AntiCorrelated, 2);
    check_all(&t, &dags, "anti 2+1");
}

#[test]
fn independent_two_po_dims() {
    let (t, dags) = workload(400, 2, 2, 3, Distribution::Independent, 3);
    check_all(&t, &dags, "indep 2+2");
}

#[test]
fn anti_correlated_three_to_dims() {
    let (t, dags) = workload(400, 3, 1, 5, Distribution::AntiCorrelated, 4);
    check_all(&t, &dags, "anti 3+1");
}

#[test]
fn correlated_tall_sparse_dag() {
    let (t, dags) = workload(500, 2, 1, 6, Distribution::Correlated, 5);
    check_all(&t, &dags, "corr 2+1 h=6");
}

#[test]
fn tiny_edge_cases() {
    // Single tuple; all-duplicate table; single-value domain.
    let dag = Dag::from_edges(1, &[]).unwrap();
    let mut t = Table::new(1, 1);
    t.push(&[5], &[0]);
    check_all(&t, std::slice::from_ref(&dag), "single tuple");

    let mut t2 = Table::new(1, 1);
    for _ in 0..7 {
        t2.push(&[3], &[0]);
    }
    check_all(&t2, &[dag], "all duplicates");
}
