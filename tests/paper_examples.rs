//! End-to-end reproduction of the paper's motivating example: the flight
//! reservation data of Fig. 1 and the two airline partial orders of
//! Table I, evaluated by every algorithm in the workspace.

use tss::core::{
    brute_force_po_skyline, Dtss, DtssConfig, PoDomain, PoQuery, Stss, StssConfig, Table,
};
use tss::poset::{Dag, PartialOrderBuilder};
use tss::sdc::{SdcConfig, SdcIndex, Variant};

/// Fig. 1(a): (Price, Stops, Airline) with airlines a=0 b=1 c=2 d=3.
fn tickets() -> Table {
    let mut t = Table::new(2, 1);
    for (price, stops, airline) in [
        (1800, 0, 0), // p1 a
        (2000, 0, 0), // p2 a
        (1800, 0, 1), // p3 b
        (1200, 1, 1), // p4 b
        (1400, 1, 0), // p5 a
        (1000, 1, 1), // p6 b
        (1000, 1, 3), // p7 d
        (1800, 1, 2), // p8 c
        (500, 2, 3),  // p9 d
        (1200, 2, 2), // p10 c
    ] {
        t.push(&[price, stops], &[airline]);
    }
    t
}

/// Table I, row 1: a over b and c; any company over d; b ~ c.
fn order_one() -> Dag {
    let mut b = PartialOrderBuilder::new();
    b.values(["a", "b", "c", "d"]);
    b.prefer("a", "b").unwrap();
    b.prefer("a", "c").unwrap();
    b.prefer("b", "d").unwrap();
    b.prefer("c", "d").unwrap();
    b.build().unwrap()
}

/// Table I, row 2: the only preference is b over a.
fn order_two() -> Dag {
    let mut b = PartialOrderBuilder::new();
    b.values(["a", "b", "c", "d"]);
    b.prefer("b", "a").unwrap();
    b.build().unwrap()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

#[test]
fn fig1b_totally_ordered_skyline() {
    // Ignoring airlines: skyline tickets are p1, p3, p6, p7, p9. The TO
    // block of the store is the columnar input, zero-copy.
    let tickets = tickets();
    let data = tss::skyline::PointBlock::from_flat(tickets.to_dims(), tickets.to_block().to_vec());
    assert_eq!(tss::skyline::brute_force(&data), vec![0, 2, 5, 6, 8]);
}

#[test]
fn table1_row1_all_algorithms() {
    // Skyline tickets: p1, p5, p6, p9, p10 -> records {0, 4, 5, 8, 9}.
    let expect = vec![0u32, 4, 5, 8, 9];
    let dag = order_one();

    let oracle = brute_force_po_skyline(&[PoDomain::new(dag.clone())], &tickets());
    assert_eq!(sorted(oracle), expect);

    let stss = Stss::build(tickets(), vec![dag.clone()], StssConfig::default()).unwrap();
    assert_eq!(sorted(stss.run().skyline_records()), expect);

    for variant in [Variant::BbsPlus, Variant::Sdc, Variant::SdcPlus] {
        let idx =
            SdcIndex::build(tickets(), vec![dag.clone()], variant, SdcConfig::default()).unwrap();
        assert_eq!(sorted(idx.run().skyline), expect, "{variant:?}");
    }

    let dtss = Dtss::build(tickets(), vec![4], DtssConfig::default()).unwrap();
    let run = dtss.query(&PoQuery::new(vec![dag])).unwrap();
    assert_eq!(sorted(run.skyline_records()), expect);
}

#[test]
fn table1_row2_all_algorithms() {
    // Skyline tickets: p3, p6, p7, p8, p9, p10 -> {2, 5, 6, 7, 8, 9}.
    let expect = vec![2u32, 5, 6, 7, 8, 9];
    let dag = order_two();

    let oracle = brute_force_po_skyline(&[PoDomain::new(dag.clone())], &tickets());
    assert_eq!(sorted(oracle), expect);

    let stss = Stss::build(tickets(), vec![dag.clone()], StssConfig::default()).unwrap();
    assert_eq!(sorted(stss.run().skyline_records()), expect);

    for variant in [Variant::BbsPlus, Variant::Sdc, Variant::SdcPlus] {
        let idx =
            SdcIndex::build(tickets(), vec![dag.clone()], variant, SdcConfig::default()).unwrap();
        assert_eq!(sorted(idx.run().skyline), expect, "{variant:?}");
    }

    let dtss = Dtss::build(tickets(), vec![4], DtssConfig::default()).unwrap();
    let run = dtss.query(&PoQuery::new(vec![dag])).unwrap();
    assert_eq!(sorted(run.skyline_records()), expect);
}

#[test]
fn changing_the_order_changes_the_skyline() {
    // The paper's point: p3, p7 leave and p5, p10 enter between "no
    // preference" (Fig. 1(b) + any-airline) and order one.
    let dtss = Dtss::build(tickets(), vec![4], DtssConfig::default()).unwrap();
    let free = Dag::from_edges(4, &[]).unwrap();
    let r_free = dtss.query(&PoQuery::new(vec![free])).unwrap();
    let r_one = dtss.query(&PoQuery::new(vec![order_one()])).unwrap();
    let s_free = sorted(r_free.skyline_records());
    let s_one = sorted(r_one.skyline_records());
    assert!(s_free.contains(&2) && s_free.contains(&6)); // p3, p7 in
    assert!(!s_one.contains(&2) && !s_one.contains(&6)); // p3, p7 out
    assert!(s_one.contains(&4) && s_one.contains(&9)); // p5, p10 in
}
