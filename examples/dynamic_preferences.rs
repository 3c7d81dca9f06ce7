//! Dynamic skyline queries (§V): the data is indexed once; every query
//! brings its own partial order. Reproduces the two-query session of
//! Fig. 5 / Fig. 6 and compares it with the SDC+ baseline, which rebuilds
//! its index for every query.
//!
//! Run with: `cargo run --example dynamic_preferences`

use tss::core::{Dtss, DtssConfig, DtssRun, PoQuery, Table};
use tss::poset::PartialOrderBuilder;
use tss::sdc::{DynamicSdc, SdcConfig};

fn data() -> Table {
    // Fig. 5(a): (A1, A2) totally ordered, A3 ∈ {a, b, c} partially ordered.
    let mut t = Table::new(2, 1);
    for (a1, a2, a3) in [
        (1, 2, 0),
        (3, 1, 0),
        (3, 4, 0),
        (4, 5, 0),
        (2, 2, 1),
        (1, 5, 1),
        (2, 5, 2),
        (3, 4, 2),
        (4, 4, 2),
        (5, 2, 2),
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

fn show(name: &str, run: &DtssRun) {
    let points: Vec<String> = run
        .skyline
        .iter()
        .map(|p| format!("p{}", p.record + 1))
        .collect();
    println!(
        "  {name}: {{{}}}  — {}/{} groups dismissed, {} page reads",
        points.join(", "),
        run.groups_skipped,
        run.groups_total,
        run.metrics.io_reads,
    );
}

fn main() {
    let dtss = Dtss::build(data(), vec![3], DtssConfig::default()).unwrap();
    println!(
        "Indexed {} tuples into {} PO-value groups (built once, reused by every query).\n",
        dtss.table().len(),
        dtss.group_count()
    );

    println!("Query 1 — 'b is better than c' (Fig. 5):");
    let q1 = query(&[("b", "c")]);
    show("dTSS", &dtss.query(&q1).unwrap());

    println!("\nQuery 2 — 'a and c are both better than b' (Fig. 6):");
    let q2 = query(&[("a", "b"), ("c", "b")]);
    show("dTSS", &dtss.query(&q2).unwrap());

    // The baseline must rebuild its interval labels, strata and R-trees for
    // every single query; the rebuild passes are charged as IOs.
    println!("\nThe SDC+ baseline pays a full rebuild per query:");
    let baseline = DynamicSdc::new(data(), SdcConfig::default());
    for (name, q) in [("query 1", &q1), ("query 2", &q2)] {
        let run = baseline.query(q.dags()).unwrap();
        let pts: Vec<String> = run.skyline.iter().map(|r| format!("p{}", r + 1)).collect();
        println!(
            "  {name}: {{{}}} — {} reads + {} writes",
            pts.join(", "),
            run.metrics.io_reads,
            run.metrics.io_writes
        );
    }
}
