//! Merge phase in isolation: the sorted merge vs the all-pairs fold
//! over prebuilt per-shard local skylines, across local-skyline ratios.
//!
//! The distribution is the ratio dial — independent data keeps local
//! skylines small (merge is cheap either way), anti-correlated data makes
//! almost every tuple locally skyline (the all-pairs fold's worst case,
//! the regime the sorted filter exists for). Locals are computed once per
//! configuration; only the merge is timed.

mod common;

use criterion::{criterion_main, Criterion};
use datagen::{Distribution, ExperimentParams};
use tss_core::parallel::{merge_shard_skylines, merge_shard_skylines_all_pairs};
use tss_core::{PoDomain, RecordId, Stss, StssConfig, Table};

const SHARDS: usize = 8;

/// One merge workload: the table, its domains, and the per-shard local
/// skylines an actual sharded run would feed the merge.
struct MergeInput {
    table: Table,
    domains: Vec<PoDomain>,
    locals: Vec<Vec<RecordId>>,
}

fn build(dist: Distribution, n: usize) -> MergeInput {
    let mut p = ExperimentParams::paper_static_default(dist, 42);
    p.n = n;
    p.dag_height = 6;
    let (table, dags) = p.materialize();
    let domains: Vec<PoDomain> = dags.iter().cloned().map(PoDomain::new).collect();
    let locals = table
        .shards(SHARDS)
        .iter()
        .map(|v| {
            let stss =
                Stss::build(v.to_store(), dags.clone(), StssConfig::default()).expect("shard");
            stss.run()
                .skyline_records()
                .into_iter()
                .map(|r| r + v.start())
                .collect()
        })
        .collect();
    MergeInput {
        table,
        domains,
        locals,
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge_phase");
    for (dist, n) in [
        (Distribution::Independent, 10_000usize),
        (Distribution::AntiCorrelated, 4_000),
    ] {
        let input = build(dist, n);
        let ratio =
            input.locals.iter().map(Vec::len).sum::<usize>() as f64 / input.table.len() as f64;
        eprintln!(
            "[merge_phase {}/{n}: local-skyline ratio {ratio:.3}]",
            dist.short()
        );
        g.bench_function(format!("all_pairs/{}/{n}", dist.short()), |b| {
            b.iter(|| {
                merge_shard_skylines_all_pairs(&input.table, &input.domains, &input.locals)
                    .0
                    .len()
            })
        });
        g.bench_function(format!("sorted/{}/{n}", dist.short()), |b| {
            b.iter(|| {
                merge_shard_skylines(&input.table, &input.domains, &input.locals, 1)
                    .0
                    .len()
            })
        });
    }
    g.finish();
}

fn benches() {
    let mut c = common::config();
    bench(&mut c);
}
criterion_main!(benches);
