//! Reproduces the paper's §V-A dynamic-skyline walkthrough: the data set of
//! Fig. 5(a), its three PO-value groups, and the two successive queries
//! (Fig. 5 and Fig. 6), including the group-dismissal behavior.

use tss::core::{Dtss, DtssConfig, PoQuery, Table};
use tss::poset::PartialOrderBuilder;
use tss::sdc::{DynamicSdc, SdcConfig};

/// Fig. 5(a): (A1, A2, A3); A3 ∈ {a=0, b=1, c=2}.
fn fig5_table() -> Table {
    let mut t = Table::new(2, 1);
    for (a1, a2, a3) in [
        (1, 2, 0), // p1
        (3, 1, 0), // p2
        (3, 4, 0), // p3
        (4, 5, 0), // p4
        (2, 2, 1), // p5
        (1, 5, 1), // p6
        (2, 5, 2), // p7
        (3, 4, 2), // p8
        (4, 4, 2), // p9
        (5, 2, 2), // p10
    ] {
        t.push(&[a1, a2], &[a3]);
    }
    t
}

fn query(prefs: &[(&str, &str)]) -> PoQuery {
    let mut b = PartialOrderBuilder::new();
    b.values(["a", "b", "c"]);
    for &(x, y) in prefs {
        b.prefer(x, y).unwrap();
    }
    PoQuery::new(vec![b.build().unwrap()])
}

/// dTSS's two plain-query paths: the paper's tree walk (no
/// pre-processing), then the default scan of precomputed local skylines.
fn configs() -> [DtssConfig; 2] {
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

#[test]
fn first_query_b_over_c() {
    // §V-A: Ga yields p1, p2; Gb yields p5, p6; Gc is dismissed wholesale
    // ("the execution terminates without considering the group's R-tree
    // entries at all").
    for cfg in configs() {
        let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
        assert_eq!(dtss.group_count(), 3);
        let run = dtss.query(&query(&[("b", "c")])).unwrap();
        assert_eq!(sorted(run.skyline_records()), vec![0, 1, 4, 5], "{cfg:?}");
        assert_eq!(run.groups_skipped, 1, "{cfg:?}");
        // Emission order respects the group precedence: Ga (ordinal 1
        // value) before Gb.
        assert_eq!(run.skyline_records()[..2], [0, 1], "{cfg:?}");
    }
}

#[test]
fn second_query_a_c_over_b() {
    // Fig. 6: skyline p7, p8, p10 (Gc) and p1, p2 (Ga); Gb dismissed — "the
    // R-tree associated with this group is not examined".
    for cfg in configs() {
        let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
        let run = dtss.query(&query(&[("a", "b"), ("c", "b")])).unwrap();
        assert_eq!(
            sorted(run.skyline_records()),
            vec![0, 1, 6, 7, 9],
            "{cfg:?}"
        );
        assert_eq!(run.groups_skipped, 1, "{cfg:?}");
    }
}

#[test]
fn no_rebuild_between_queries() {
    // dTSS's defining property: the second query reuses what the build
    // made (the group trees, and the local skylines by default). Its IO
    // cost must therefore be a handful of node reads, while the dynamic
    // SDC+ baseline pays full data passes per query.
    let dsdc = DynamicSdc::new(fig5_table(), SdcConfig::default());
    let b1 = dsdc.query(query(&[("b", "c")]).dags()).unwrap();
    let b2 = dsdc.query(query(&[("a", "b"), ("c", "b")]).dags()).unwrap();
    assert!(b1.metrics.io_writes > 0 && b2.metrics.io_writes > 0);

    for cfg in configs() {
        let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
        let r1 = dtss.query(&query(&[("b", "c")])).unwrap();
        let r2 = dtss.query(&query(&[("a", "b"), ("c", "b")])).unwrap();

        // Same skylines.
        assert_eq!(sorted(r1.skyline_records()), sorted(b1.skyline.clone()));
        assert_eq!(sorted(r2.skyline_records()), sorted(b2.skyline.clone()));
        // dTSS never writes; the baseline rebuilds per query.
        assert_eq!(r1.metrics.io_writes + r2.metrics.io_writes, 0, "{cfg:?}");
        assert!(b1.metrics.io_total() > r1.metrics.io_total(), "{cfg:?}");
    }
}

#[test]
fn optimizations_do_not_change_results() {
    let queries = [
        query(&[("b", "c")]),
        query(&[("a", "b"), ("c", "b")]),
        query(&[]),
        query(&[("a", "b"), ("b", "c")]),
        query(&[("c", "a")]),
    ];
    let plain = Dtss::build(
        fig5_table(),
        vec![3],
        DtssConfig {
            precompute_local: false,
            ..Default::default()
        },
    )
    .unwrap();
    // The default serves plain queries from local skylines.
    let tuned = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
    for q in &queries {
        let a = plain.query(q).unwrap();
        let b = tuned.query(q).unwrap();
        assert_eq!(sorted(a.skyline_records()), sorted(b.skyline_records()));
    }
}

#[test]
fn local_skyline_optimization_reduces_work() {
    // §V-B: with precomputed local skylines, only local-skyline points are
    // examined — fewer dominance checks on a group-heavy workload.
    let mut t = fig5_table();
    // Inflate Gc with locally dominated points.
    for i in 0..40u32 {
        t.push(&[6 + i % 5, 6 + i % 7], &[2]);
    }
    let q = query(&[("a", "b"), ("c", "b")]);
    let plain = Dtss::build(
        t.clone(),
        vec![3],
        DtssConfig {
            precompute_local: false,
            ..Default::default()
        },
    )
    .unwrap();
    let local = Dtss::build(
        t,
        vec![3],
        DtssConfig {
            precompute_local: true,
            ..Default::default()
        },
    )
    .unwrap();
    let rp = plain.query(&q).unwrap();
    let rl = local.query(&q).unwrap();
    assert_eq!(sorted(rp.skyline_records()), sorted(rl.skyline_records()));
    assert!(
        rl.metrics.dominance_checks < rp.metrics.dominance_checks,
        "local {} vs plain {}",
        rl.metrics.dominance_checks,
        rp.metrics.dominance_checks
    );
}
