//! The pull-based execution model, end to end: every engine in the
//! workspace is consumed through its own `SkylineCursor`, cursors agree
//! with the draining `run()`/`query()` paths, early termination is sound
//! (a `k`-prefix equals the progressive order's prefix) and cheaper
//! (strictly fewer page reads than a full run), each cursor counts its own
//! page reads however many share an index, and `QuerySession` reuses DAG
//! labelings across dynamic queries.

use tss::core::{Dtss, DtssConfig, PoQuery, QuerySession, SkylineCursor, Stss, StssConfig, Table};
use tss::datagen::{gen_po_matrix, gen_to_matrix, Distribution, TupleConfig};
use tss::poset::generator::{subset_lattice, LatticeParams};
use tss::poset::Dag;
use tss::sdc::{SdcConfig, SdcIndex, Variant};

const SCALED_CAPACITY: usize = 32;

fn workload(n: usize, seed: u64) -> (Table, Dag) {
    let dag = subset_lattice(LatticeParams {
        height: 5,
        density: 0.8,
        seed,
    })
    .unwrap();
    let to = gen_to_matrix(TupleConfig {
        n,
        dims: 2,
        domain: 1000,
        dist: Distribution::Independent,
        seed,
    });
    let po = gen_po_matrix(n, &[dag.len() as u32], seed + 7);
    (Table::from_parts(2, 1, to, po).unwrap(), dag)
}

/// dTSS's two plain-query paths: the paper's tree walk (no
/// pre-processing), then the default scan of precomputed local skylines.
fn dtss_configs() -> [DtssConfig; 2] {
    [
        DtssConfig {
            precompute_local: false,
            ..Default::default()
        },
        DtssConfig::default(),
    ]
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

fn drain(mut c: impl SkylineCursor) -> Vec<u32> {
    let mut out = Vec::new();
    while let Some(p) = c.next() {
        out.push(p.record);
    }
    out
}

/// Every engine, one workload: the cursor's collected result set equals the
/// engine's own draining `run()`/`query()` result set.
#[test]
fn cursor_equals_run_for_every_engine() {
    let (table, dag) = workload(1500, 3);

    // sTSS.
    let stss = Stss::build(
        table.clone(),
        vec![dag.clone()],
        StssConfig {
            node_capacity: Some(SCALED_CAPACITY),
        },
    )
    .unwrap();
    let expect = stss.run().skyline_records();
    assert_eq!(drain(stss.cursor()), expect, "sTSS cursor vs run");
    assert!(!expect.is_empty());

    // dTSS, queried with the same DAG.
    for cfg in dtss_configs() {
        let dtss = Dtss::build(table.clone(), vec![dag.len() as u32], cfg).unwrap();
        let q = PoQuery::new(vec![dag.clone()]);
        let d_expect = dtss.query(&q).unwrap().skyline_records();
        assert_eq!(
            drain(dtss.query_cursor(&q).unwrap()),
            d_expect,
            "dTSS cursor vs query {cfg:?}"
        );
        assert_eq!(
            sorted(d_expect),
            sorted(expect.clone()),
            "static and dynamic TSS agree on the same order {cfg:?}"
        );
    }

    // The three m-dominance baselines.
    for variant in [Variant::BbsPlus, Variant::Sdc, Variant::SdcPlus] {
        let idx = SdcIndex::build(
            table.clone(),
            vec![dag.clone()],
            variant,
            SdcConfig {
                node_capacity: Some(SCALED_CAPACITY),
            },
        )
        .unwrap();
        let s_expect = idx.run().skyline;
        assert_eq!(drain(idx.cursor()), s_expect, "{variant:?} cursor vs run");
        assert_eq!(sorted(s_expect), sorted(expect.clone()), "{variant:?}");
    }
}

/// The batched dominance kernels must do the *same pair work* as the seed's
/// scalar loops, just faster: on the fixed `workload(1500, 3)` the seed
/// (pre-columnar) implementation performed exactly 10 839 sTSS and 11 218
/// dTSS scalar `t_dominates` calls. The kernels examine pairs in the same
/// order with the same early exit, so their `dominance_checks` may never
/// exceed those ceilings — and every check must now flow through a batched
/// kernel invocation (`dominance_batch_calls > 0`). The dTSS ceiling was
/// set by the tree walk, so it binds the paper's configuration first; the
/// default scan of precomputed local skylines must stay under it too.
#[test]
fn batched_kernel_spends_no_more_checks_than_the_seed_scalar_path() {
    const SEED_STSS_SCALAR_CHECKS: u64 = 10_839;
    const SEED_DTSS_SCALAR_CHECKS: u64 = 11_218;
    let (table, dag) = workload(1500, 3);

    let stss = Stss::build(
        table.clone(),
        vec![dag.clone()],
        StssConfig {
            node_capacity: Some(SCALED_CAPACITY),
        },
    )
    .unwrap();
    let m = stss.run().metrics;
    assert!(
        m.dominance_checks <= SEED_STSS_SCALAR_CHECKS,
        "sTSS batched kernel examined {} pairs, seed scalar path paid {}",
        m.dominance_checks,
        SEED_STSS_SCALAR_CHECKS
    );
    assert!(
        m.dominance_batch_calls > 0,
        "sTSS must use the batched kernel"
    );
    assert!(
        m.dominance_batch_calls <= m.dominance_checks + m.results,
        "kernel calls are per-candidate, checks per pair examined"
    );

    for cfg in dtss_configs() {
        let dtss = Dtss::build(table.clone(), vec![dag.len() as u32], cfg).unwrap();
        let mut c = dtss.query_cursor(&PoQuery::new(vec![dag.clone()])).unwrap();
        while c.next().is_some() {}
        let dm = c.metrics();
        assert!(
            dm.dominance_checks <= SEED_DTSS_SCALAR_CHECKS,
            "dTSS batched kernel examined {} pairs, seed scalar path paid {} ({cfg:?})",
            dm.dominance_checks,
            SEED_DTSS_SCALAR_CHECKS
        );
        assert!(
            dm.dominance_batch_calls > 0,
            "dTSS must use the batched kernel ({cfg:?})"
        );
    }
}

/// Early-termination soundness: for the progressive engines, the first `k`
/// pulled points are exactly the first `k` of the full progressive order.
#[test]
fn k_prefix_is_a_prefix_of_the_progressive_order() {
    let (table, dag) = workload(2000, 11);
    let k = 7;

    let stss = Stss::build(
        table.clone(),
        vec![dag.clone()],
        StssConfig {
            node_capacity: Some(SCALED_CAPACITY),
        },
    )
    .unwrap();
    let full = stss.run().skyline_records();
    let prefix: Vec<u32> = stss.cursor().take_k(k).iter().map(|p| p.record).collect();
    assert_eq!(prefix, full[..k], "sTSS prefix");

    let q = PoQuery::new(vec![dag.clone()]);
    for cfg in dtss_configs() {
        let dtss = Dtss::build(table.clone(), vec![dag.len() as u32], cfg).unwrap();
        let d_full = dtss.query(&q).unwrap().skyline_records();
        let d_prefix: Vec<u32> = dtss
            .query_cursor(&q)
            .unwrap()
            .take_k(k)
            .iter()
            .map(|p| p.record)
            .collect();
        assert_eq!(d_prefix, d_full[..k], "dTSS prefix {cfg:?}");
    }
}

/// The acceptance property: pulling `k` results off an sTSS cursor performs
/// strictly fewer node accesses than a full run.
#[test]
fn k_pull_reads_strictly_fewer_pages_than_a_full_run() {
    let (table, dag) = workload(3000, 23);
    let stss = Stss::build(
        table,
        vec![dag],
        StssConfig {
            node_capacity: Some(SCALED_CAPACITY),
        },
    )
    .unwrap();
    let full = stss.run();
    assert!(full.skyline.len() > 10, "need a non-trivial skyline");
    let mut cursor = stss.cursor();
    let pulled = cursor.take_k(5);
    assert_eq!(pulled.len(), 5);
    let prefix_reads = cursor.metrics().io_reads;
    assert!(
        prefix_reads < full.metrics.io_reads,
        "5-prefix must read strictly fewer pages: {} vs {}",
        prefix_reads,
        full.metrics.io_reads
    );
}

/// Page reads of one drain of an `open`ed cursor, and of another that is
/// interrupted after 5 points while a second cursor, opened then, drains
/// the same index.
fn lone_and_interleaved_reads<C: SkylineCursor>(open: impl Fn() -> C) -> (u64, u64) {
    let mut lone = open();
    while lone.next().is_some() {}
    let mut a = open();
    assert_eq!(a.take_k(5).len(), 5);
    drain(open());
    while a.next().is_some() {}
    (lone.metrics().io_reads, a.metrics().io_reads)
}

/// Each cursor counts its own page reads: a cursor that another cursor's
/// full drain over the same index interrupts reads exactly what a lone
/// drain reads. Covers sTSS, dTSS's group-tree walk and SDC+, at a node
/// capacity small enough that every walk spans many pages.
#[test]
fn interleaved_cursors_count_their_own_reads() {
    const CAPACITY: usize = 8;
    let (table, dag) = workload(4000, 5);

    let stss = Stss::build(
        table.clone(),
        vec![dag.clone()],
        StssConfig {
            node_capacity: Some(CAPACITY),
        },
    )
    .unwrap();
    let (lone, interleaved) = lone_and_interleaved_reads(|| stss.cursor());
    assert!(lone > 0);
    assert_eq!(interleaved, lone, "sTSS");

    let dtss = Dtss::build(
        table.clone(),
        vec![dag.len() as u32],
        DtssConfig {
            node_capacity: Some(CAPACITY),
            precompute_local: false,
        },
    )
    .unwrap();
    let q = PoQuery::new(vec![dag.clone()]);
    let (lone, interleaved) = lone_and_interleaved_reads(|| dtss.query_cursor(&q).unwrap());
    assert_eq!(interleaved, lone, "dTSS");

    let sdc = SdcIndex::build(
        table,
        vec![dag],
        Variant::SdcPlus,
        SdcConfig {
            node_capacity: Some(CAPACITY),
        },
    )
    .unwrap();
    let (lone, interleaved) = lone_and_interleaved_reads(|| sdc.cursor());
    assert_eq!(interleaved, lone, "SDC+");
}

/// The static indexes, dTSS and the R-tree hold no interior mutability,
/// so threads may share one index or operator and run cursors over it at
/// once. A compile time check: the test body only names the bounds.
#[test]
fn static_indexes_are_sync() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Stss>();
    assert_sync::<SdcIndex>();
    assert_sync::<Dtss>();
    assert_sync::<tss::rtree::RTree>();
}

/// The acceptance property: a repeated-DAG dTSS query through
/// `QuerySession` reports a labeling-cache hit and skips relabeling.
#[test]
fn query_session_reuses_labelings_across_queries() {
    let (table, dag) = workload(1500, 31);
    let dtss = Dtss::build(table, vec![dag.len() as u32], DtssConfig::default()).unwrap();
    let mut session = QuerySession::new(&dtss);

    let q = PoQuery::new(vec![dag.clone()]);
    let cold = session.query(&q).unwrap();
    assert_eq!(cold.metrics.label_cache_misses, 1, "first sight labels");
    assert_eq!(cold.metrics.label_cache_hits, 0);

    // The "same" DAG arriving as a fresh object (a user re-submitting their
    // preferences) hits the cache — no relabeling.
    let resubmitted = PoQuery::new(vec![dag.clone()]);
    let warm = session.query(&resubmitted).unwrap();
    assert_eq!(warm.metrics.label_cache_hits, 1, "repeat skips relabeling");
    assert_eq!(warm.metrics.label_cache_misses, 0);
    assert_eq!(cold.skyline_records(), warm.skyline_records());

    // Cursors draw from the same cache.
    let mut c = session.cursor(&q).unwrap();
    assert_eq!(c.metrics().label_cache_hits, 1);
    let first = c.next().unwrap();
    assert_eq!(first.record, cold.skyline_records()[0]);

    assert_eq!(session.stats().hits, 2);
    assert_eq!(session.stats().misses, 1);
    assert_eq!(session.stats().entries, 1);
}

/// Engines are uniform: the same workload through boxed `dyn SkylineCursor`
/// trait objects yields one agreed-upon skyline for all five PO-capable
/// engines.
#[test]
fn trait_object_engines_agree() {
    let (table, dag) = workload(1000, 43);
    let stss = Stss::build(table.clone(), vec![dag.clone()], StssConfig::default()).unwrap();
    let dtss = Dtss::build(table.clone(), vec![dag.len() as u32], DtssConfig::default()).unwrap();
    let q = PoQuery::new(vec![dag.clone()]);
    let baseline = sorted(stss.run().skyline_records());
    assert!(!baseline.is_empty());
    let sdc: Vec<SdcIndex> = [Variant::BbsPlus, Variant::Sdc, Variant::SdcPlus]
        .into_iter()
        .map(|v| {
            SdcIndex::build(table.clone(), vec![dag.clone()], v, SdcConfig::default()).unwrap()
        })
        .collect();
    let mut cursors: Vec<(String, Box<dyn SkylineCursor + '_>)> = vec![
        ("sTSS".into(), Box::new(stss.cursor())),
        ("dTSS".into(), Box::new(dtss.query_cursor(&q).unwrap())),
    ];
    cursors.extend(
        sdc.iter()
            .map(|i| (format!("{:?}", i.variant()), Box::new(i.cursor()) as Box<_>)),
    );

    for (name, cursor) in &mut cursors {
        let pts = cursor.take_k(usize::MAX);
        let got = sorted(pts.iter().map(|p| p.record).collect());
        assert_eq!(got, baseline, "{name}");
        assert_eq!(cursor.metrics().results as usize, baseline.len(), "{name}");
    }
}
