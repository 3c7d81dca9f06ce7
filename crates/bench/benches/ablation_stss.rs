//! Ablation — sTSS at its defaults against the SDC-family ladder (BBS+ vs
//! SDC vs SDC+) on identical data.

mod common;

use criterion::{criterion_main, Criterion};
use datagen::Distribution;
use sdc::Variant;
use tss_core::StssConfig;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_stss");
    let p = common::static_params(Distribution::Independent);
    let stss = common::build_stss(&p, StssConfig::default());
    g.bench_function("tss/default", |b| b.iter(|| stss.run().skyline.len()));
    for variant in [Variant::BbsPlus, Variant::Sdc, Variant::SdcPlus] {
        let idx = common::build_sdc(&p, variant);
        g.bench_function(format!("baseline/{variant:?}"), |b| {
            b.iter(|| idx.run().skyline.len())
        });
    }
    g.finish();
}

fn benches() {
    let mut c = common::config();
    bench(&mut c);
}
criterion_main!(benches);
