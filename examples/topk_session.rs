//! The pull-based serving path: top-k skyline prefixes off live cursors,
//! and a `QuerySession` amortizing per-user preference DAGs across repeated
//! dynamic queries.
//!
//! Run with: `cargo run --release --example topk_session`

use tss::core::{
    CostModel, Dtss, DtssConfig, PoQuery, QuerySession, SkylineCursor, Stss, StssConfig, Table,
};
use tss::datagen::{gen_po_matrix, gen_to_matrix, Distribution, TupleConfig};
use tss::poset::generator::{subset_lattice, LatticeParams};
use tss::poset::Dag;

/// A different preference order with the same shape: the DAG with its node
/// identities permuted (what a changed user preference looks like).
fn permute(dag: &Dag, salt: u32) -> Dag {
    let n = dag.len() as u32;
    let map = |v: u32| (v + salt) % n;
    let edges: Vec<(u32, u32)> = dag.edges().map(|(u, v)| (map(u.0), map(v.0))).collect();
    Dag::from_edges(n, &edges).expect("relabeling preserves acyclicity")
}

fn main() {
    let n = 30_000;
    let dag = subset_lattice(LatticeParams {
        height: 5,
        density: 0.8,
        seed: 42,
    })
    .unwrap();
    let to = gen_to_matrix(TupleConfig {
        n,
        dims: 2,
        domain: 10_000,
        dist: Distribution::AntiCorrelated,
        seed: 42,
    });
    let po = gen_po_matrix(n, &[dag.len() as u32], 43);
    let table = Table::from_parts(2, 1, to, po).unwrap();
    let model = CostModel::default();
    println!("workload: N={n}, anti-correlated, |V|={}\n", dag.len());

    // --- Top-k off an sTSS cursor -----------------------------------------
    // A result page wants 10 options, not the whole skyline: pull 10 and
    // stop. The unexpanded subtrees are never read.
    let stss = Stss::build(table.clone(), vec![dag.clone()], StssConfig::default()).unwrap();
    let full = stss.run();
    let mut cursor = stss.cursor();
    let top10 = cursor.take_k(10);
    println!(
        "sTSS top-10: {} of {} results pulled — {} page reads vs {} for the full run ({:.1}%)",
        top10.len(),
        full.skyline.len(),
        cursor.metrics().io_reads,
        full.metrics.io_reads,
        100.0 * cursor.metrics().io_reads as f64 / full.metrics.io_reads as f64
    );
    println!(
        "  simulated latency to 10th result: {:?} (full run {:?})\n",
        cursor.progress().elapsed_total(model),
        model.total_time(&full.metrics),
    );

    // --- A query session over dTSS ----------------------------------------
    // One user, three queries: their preference DAG is labeled once and
    // reused; switching preferences labels the new DAG and caches it too.
    let dtss = Dtss::build(table, vec![dag.len() as u32], DtssConfig::default()).unwrap();
    let mut session = QuerySession::new(&dtss);
    let monday = PoQuery::new(vec![dag.clone()]);
    // The same preferences resubmitted as a fresh object on tuesday…
    let tuesday = PoQuery::new(vec![dag.clone()]);
    // …and genuinely changed preferences (the permuted DAG) on friday.
    let friday = PoQuery::new(vec![permute(&dag, 99)]);

    for (label, q) in [
        ("monday (new DAG)", &monday),
        ("tuesday (same preferences)", &tuesday),
        ("friday (changed preferences)", &friday),
    ] {
        let run = session.query(q).unwrap();
        println!(
            "dTSS {label}: {} results, labeling cache {} hit(s) / {} miss(es)",
            run.metrics.results, run.metrics.label_cache_hits, run.metrics.label_cache_misses
        );
    }
    let stats = session.stats();
    println!(
        "\nsession totals: {} hits / {} misses, {} labelings cached",
        stats.hits, stats.misses, stats.entries
    );

    // Top-k works on the dynamic path too.
    let mut c = session.cursor(&monday).unwrap();
    let top5 = c.take_k(5);
    println!(
        "dTSS top-5 off a session cursor: {} results after {} page reads",
        top5.len(),
        c.metrics().io_reads
    );
}
