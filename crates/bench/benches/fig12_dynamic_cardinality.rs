//! Fig. 12 — dynamic skyline: per-query cost vs. cardinality. dTSS reuses
//! its group trees; the SDC+ baseline rebuilds per query (the rebuild CPU is
//! inside the timed section — its IO charge shows up in `harness fig12`).

mod common;

use criterion::{criterion_main, Criterion};
use datagen::Distribution;
use sdc::{DynamicSdc, SdcConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_dynamic_cardinality");
    for n in [5_000usize, 10_000, 20_000] {
        let mut p = common::dynamic_params(Distribution::Independent);
        p.n = n;
        let (dtss, query) = common::build_dtss(&p, bench::params::paper_dtss());
        g.bench_function(format!("dtss/{n}"), |b| {
            b.iter(|| dtss.query(&query).unwrap().skyline.len())
        });
        let w = bench::runner::generate(&p);
        let qdags: Vec<_> = w
            .dags
            .iter()
            .map(|d| bench::runner::permuted_order(d, 11))
            .collect();
        let dsdc = DynamicSdc::new(w.table, SdcConfig::default());
        g.bench_function(format!("dyn-sdc+/{n}"), |b| {
            b.iter(|| dsdc.query(&qdags).unwrap().skyline.len())
        });
    }
    g.finish();
}

fn benches() {
    let mut c = common::config();
    bench(&mut c);
}
criterion_main!(benches);
