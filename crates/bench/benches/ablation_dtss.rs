//! Ablation — the §V-B design choices of dTSS: local-skyline
//! precomputation and the query cache.

mod common;

use criterion::{criterion_main, Criterion};
use datagen::Distribution;
use tss_core::DtssConfig;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_dtss");
    let p = common::dynamic_params(Distribution::Independent);
    for (name, cfg) in [
        ("plain", bench::params::paper_dtss()),
        (
            "local_skylines",
            DtssConfig {
                precompute_local: true,
                ..Default::default()
            },
        ),
        (
            "cache_warm",
            DtssConfig {
                cache: true,
                ..Default::default()
            },
        ),
    ] {
        let (dtss, query) = common::build_dtss(&p, cfg);
        if name == "cache_warm" {
            let _ = dtss.query(&query).unwrap(); // warm the cache
        }
        g.bench_function(format!("dtss/{name}"), |b| {
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
