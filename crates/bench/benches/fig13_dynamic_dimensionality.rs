//! Fig. 13 — dynamic skyline: per-query cost vs. dimensionality.

mod common;

use criterion::{criterion_main, Criterion};
use datagen::Distribution;
use sdc::{DynamicSdc, SdcConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13_dynamic_dimensionality");
    for (to_d, po_d) in [(2usize, 1usize), (4, 1), (3, 2)] {
        let mut p = common::dynamic_params(Distribution::Independent);
        p.to_dims = to_d;
        p.po_dims = po_d;
        let (dtss, query) = common::build_dtss(&p, bench::params::paper_dtss());
        g.bench_function(format!("dtss/to{to_d}_po{po_d}"), |b| {
            b.iter(|| dtss.query(&query).unwrap().skyline.len())
        });
        let w = bench::runner::generate(&p);
        let qdags: Vec<_> = w
            .dags
            .iter()
            .map(|d| bench::runner::permuted_order(d, 11))
            .collect();
        let dsdc = DynamicSdc::new(w.table, SdcConfig::default());
        g.bench_function(format!("dyn-sdc+/to{to_d}_po{po_d}"), |b| {
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
