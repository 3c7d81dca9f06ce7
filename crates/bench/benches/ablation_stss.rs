//! Ablation — the §IV-B range-set strategies of sTSS (naive merging, the
//! dyadic index, the full range table), plus the SDC-family ladder (BBS+ vs
//! SDC vs SDC+) on identical data.

mod common;

use criterion::{criterion_main, Criterion};
use datagen::Distribution;
use sdc::Variant;
use tss_core::{RangeStrategy, StssConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_stss");
    let p = common::static_params(Distribution::Independent);
    for (name, cfg) in [
        ("default", StssConfig::default()),
        (
            "naive_ranges",
            StssConfig {
                range_strategy: RangeStrategy::Naive,
                ..Default::default()
            },
        ),
        (
            "full_ranges",
            StssConfig {
                range_strategy: RangeStrategy::Full,
                ..Default::default()
            },
        ),
    ] {
        let stss = common::build_stss(&p, cfg);
        g.bench_function(format!("tss/{name}"), |b| {
            b.iter(|| stss.run().skyline.len())
        });
    }
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
