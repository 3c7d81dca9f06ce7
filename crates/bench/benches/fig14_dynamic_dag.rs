//! Fig. 14 — dynamic skyline: per-query cost vs. DAG height and density
//! (anti-correlated).

mod common;

use criterion::{criterion_main, Criterion};
use datagen::Distribution;
use sdc::{DynamicSdc, SdcConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14_dynamic_dag");
    for h in [2u32, 6, 10] {
        let mut p = common::dynamic_params(Distribution::AntiCorrelated);
        p.dag_height = h;
        let (dtss, query) = common::build_dtss(&p, bench::params::paper_dtss());
        g.bench_function(format!("dtss/h{h}"), |b| {
            b.iter(|| dtss.query(&query).unwrap().skyline.len())
        });
        let w = bench::runner::generate(&p);
        let qdags: Vec<_> = w
            .dags
            .iter()
            .map(|d| bench::runner::permuted_order(d, 11))
            .collect();
        let dsdc = DynamicSdc::new(w.table, SdcConfig::default());
        g.bench_function(format!("dyn-sdc+/h{h}"), |b| {
            b.iter(|| dsdc.query(&qdags).unwrap().skyline.len())
        });
    }
    for d10 in [2u32, 10] {
        let mut p = common::dynamic_params(Distribution::AntiCorrelated);
        p.dag_density = d10 as f64 / 10.0;
        let (dtss, query) = common::build_dtss(&p, bench::params::paper_dtss());
        g.bench_function(format!("dtss/d0{d10}"), |b| {
            b.iter(|| dtss.query(&query).unwrap().skyline.len())
        });
    }
    g.finish();
}

fn benches() {
    let mut c = common::config();
    bench(&mut c);
}
criterion_main!(benches);
