//! Facade acceptance for the sharded parallel execution layer: for random
//! stores, random partial-order domains and every shard count 1..=8, the
//! parallel skyline record-id set equals the single-threaded result for
//! every engine, and the merged [`Metrics`] are the exact componentwise
//! sum of the per-shard locals plus the merge phase — nothing estimated,
//! nothing dependent on the worker count.

use proptest::prelude::*;
use tss::core::parallel::{
    all_pairs_merge_bound, merge_shard_skylines, merge_shard_skylines_all_pairs, sum_metrics,
};
use tss::core::{
    brute_force_po_skyline, sharded_skyline_exec, Budget, Dtss, DtssConfig, ExecPolicy, Metrics,
    PoDomain, PoQuery, RecordId, ShardPlan, ShardSpec, Stss, StssConfig, Table,
};
use tss::datagen::{Distribution, ExperimentParams};
use tss::poset::Dag;
use tss::sdc::{SdcConfig, SdcIndex, Variant};

/// A random 5-value partial order from a 10-bit forward-edge mask (forward
/// edges only, hence acyclic).
fn mask_dag(edge_mask: u32) -> Dag {
    let mut edges = Vec::new();
    let mut bit = 0;
    for i in 0..5u32 {
        for j in (i + 1)..5u32 {
            if edge_mask >> bit & 1 == 1 {
                edges.push((i, j));
            }
            bit += 1;
        }
    }
    Dag::from_edges(5, &edges).expect("forward edges are acyclic")
}

/// The exactness identity every [`ParallelRun`] must satisfy: total
/// metrics are the merge-fold of the per-shard locals plus the merge
/// phase, with `results` reporting the final merged skyline (a plain sum
/// would double-count shard-local confirmations).
fn assert_exact_sum(run: &tss::core::ParallelRun) {
    let mut by_hand = sum_metrics(&run.shard_metrics).merge(&run.merge_metrics);
    by_hand.results = run.records.len() as u64;
    assert_eq!(run.metrics(), by_hand);
}

/// Count-bearing fields that must be invariant to the worker count.
fn work_counts(m: &Metrics) -> (u64, u64, u64, u64, u64) {
    (
        m.dominance_checks,
        m.dominance_batch_calls,
        m.io_reads,
        m.heap_pops,
        m.results,
    )
}

/// Per-shard local skylines by brute force (global ids) — the inputs the
/// merge-phase tests feed the merge functions directly.
fn brute_locals(t: &Table, domains: &[PoDomain], shards: usize) -> Vec<Vec<RecordId>> {
    t.shards(shards)
        .iter()
        .map(|v| {
            let sub = v.to_store();
            brute_force_po_skyline(domains, &sub)
                .into_iter()
                .map(|r| r + v.start())
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed TO/PO stores through sTSS, SDC+ and dTSS, one engine per
    /// shard: the merged record set equals both the single-thread sharded
    /// run and the ground-truth oracle, for every shard count.
    #[test]
    fn po_engines_shard_merge_equivalence(
        rows in proptest::collection::vec((0u32..12, 0u32..12, 0u32..5), 1..48),
        edge_mask in 0u32..1024,
        shards in 1usize..=8,
        threads in 2usize..=4,
    ) {
        let mut t = Table::new(2, 1);
        for &(a, b, v) in &rows {
            t.push(&[a, b], &[v]);
        }
        let dag = mask_dag(edge_mask);
        let domains = vec![PoDomain::new(dag.clone())];
        let mut expect = brute_force_po_skyline(&domains, &t);
        expect.sort_unstable();

        type ShardRunner<'a> = Box<dyn Fn(tss::core::ShardCtx, &tss::core::ShardView<'_>) -> (Vec<u32>, Metrics) + Sync + 'a>;
        let query = PoQuery::new(vec![dag.clone()]);
        let engines: Vec<(&str, ShardRunner<'_>)> = vec![
            ("sTSS", Box::new(|_ctx, view: &tss::core::ShardView<'_>| {
                let stss = Stss::build(view.to_store(), vec![dag.clone()], StssConfig::default())
                    .expect("shard build");
                let r = stss.run();
                (r.skyline_records(), r.metrics)
            })),
            ("SDC+", Box::new(|_ctx, view: &tss::core::ShardView<'_>| {
                let idx = SdcIndex::build(
                    view.to_store(),
                    vec![dag.clone()],
                    Variant::SdcPlus,
                    SdcConfig::default(),
                )
                .expect("shard build");
                let r = idx.run();
                (r.skyline, r.metrics)
            })),
            ("dTSS", Box::new(|_ctx, view: &tss::core::ShardView<'_>| {
                let dtss = Dtss::build(view.to_store(), vec![5], DtssConfig::default())
                    .expect("shard build");
                let r = dtss.query(&query).expect("valid query");
                (r.skyline_records(), r.metrics)
            })),
        ];
        for (name, run_shard) in &engines {
            let run = |threads| {
                sharded_skyline_exec(
                    &t,
                    &domains,
                    ShardSpec::Fixed(shards),
                    threads,
                    ExecPolicy::default(),
                    Budget::UNLIMITED,
                    run_shard,
                )
                .expect("no faults active in this test")
            };
            let (single, multi) = (run(1), run(threads));
            // Parallel set == single-thread set == oracle.
            prop_assert_eq!(&multi.records, &single.records, "{}", name);
            prop_assert_eq!(&multi.locals, &single.locals, "{}", name);
            let mut got = multi.records.clone();
            got.sort_unstable();
            prop_assert_eq!(&got, &expect, "{} shards={}", name, shards);
            // Merged metrics are the exact per-shard sum, worker-invariant.
            assert_exact_sum(&single);
            assert_exact_sum(&multi);
            prop_assert_eq!(
                work_counts(&multi.metrics()),
                work_counts(&single.metrics()),
                "{}", name
            );
            prop_assert_eq!(multi.shard_metrics.len(), shards.min(t.len()));
        }
    }

    /// Classic (TO-only, no PO attribute) stores through one sTSS per
    /// shard, each built on the attempt's kernel so a fallback runs the
    /// scalar oracle.
    #[test]
    fn classic_shard_merge_equivalence(
        rows in proptest::collection::vec((0u32..15, 0u32..15), 1..60),
        shards in 1usize..=8,
        threads in 2usize..=4,
    ) {
        let mut t = Table::new(2, 0);
        for &(a, b) in &rows {
            t.push(&[a, b], &[]);
        }
        let mut expect = brute_force_po_skyline(&[], &t);
        expect.sort_unstable();

        let run = |threads| {
            sharded_skyline_exec(
                &t,
                &[],
                ShardSpec::Fixed(shards),
                threads,
                ExecPolicy::default(),
                Budget::UNLIMITED,
                |ctx, view| {
                    let store = view.to_store().with_kernel(ctx.kernel);
                    let r = Stss::build(store, vec![], StssConfig::default())
                        .expect("shard build")
                        .run();
                    (r.skyline_records(), r.metrics)
                },
            )
            .expect("no faults active in this test")
        };
        let (single, multi) = (run(1), run(threads));
        prop_assert_eq!(&multi.records, &single.records);
        let mut got = multi.records.clone();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
        assert_exact_sum(&multi);
        prop_assert_eq!(
            work_counts(&multi.metrics()),
            work_counts(&single.metrics())
        );
    }

    /// Merge-focused equivalence: for random stores, DAGs and shard
    /// counts — duplicates included — the sorted merge, the all-pairs merge
    /// and the single-shard oracle agree on the record set; the sorted
    /// merge's record *vector* is invariant to the shard partition; and its
    /// pair work never exceeds the all-pairs bound
    /// `Σᵢ |localᵢ| · Σⱼ≠ᵢ |localⱼ|`.
    #[test]
    fn sorted_merge_equivalence(
        rows in proptest::collection::vec((0u32..10, 0u32..10, 0u32..5), 1..40),
        dup in (0usize..8, 1usize..4),
        edge_mask in 0u32..1024,
        shards in 1usize..=8,
    ) {
        let mut t = Table::new(2, 1);
        for &(a, b, v) in &rows {
            t.push(&[a, b], &[v]);
        }
        // Exact duplicates of one row, appended at the end so they tend to
        // land in a different shard than the original.
        let (dup_row, dup_count) = dup;
        let src = (dup_row % rows.len()) as u32;
        for _ in 0..dup_count {
            t.push(t.to(src).to_vec().as_slice(), t.po(src).to_vec().as_slice());
        }
        let dag = mask_dag(edge_mask);
        let domains = vec![PoDomain::new(dag)];

        // Per-shard local skylines by brute force (the merge inputs).
        let locals = brute_locals(&t, &domains, shards);

        let mut oracle = brute_force_po_skyline(&domains, &t);
        oracle.sort_unstable();

        let (old, old_m) = merge_shard_skylines_all_pairs(&t, &domains, &locals);
        let mut old_sorted = old.clone();
        old_sorted.sort_unstable();
        prop_assert_eq!(&old_sorted, &oracle, "all-pairs merge vs oracle");

        let (new, new_m) = merge_shard_skylines(&t, &domains, &locals, 1);
        let mut new_sorted = new.clone();
        new_sorted.sort_unstable();
        prop_assert_eq!(&new_sorted, &oracle, "sorted merge vs oracle");

        // Pair-work pin: never above the all-pairs bound, and the bound
        // also caps the all-pairs fold's own examined count.
        let bound = all_pairs_merge_bound(&locals);
        prop_assert!(new_m.merge_pair_checks <= bound,
            "sorted {} > bound {}", new_m.merge_pair_checks, bound);
        prop_assert!(old_m.merge_pair_checks <= bound);
        prop_assert_eq!(new_m.results, old_m.results);

        // Plan invariance: a different partition of the same store merges
        // to the byte-identical record vector ((score, id) emission order).
        let other_shards = shards % 8 + 1;
        let other_locals = brute_locals(&t, &domains, other_shards);
        let (other, _) = merge_shard_skylines(&t, &domains, &other_locals, 1);
        prop_assert_eq!(&other, &new,
            "shard plans {} and {} must emit identical vectors", shards, other_shards);
    }
}

/// Acceptance: on an anti-correlated fig07-style workload (the paper's
/// §VI stress case, where almost every tuple is skyline and merge cost
/// dominates), the sorted merge does strictly less pair work than the
/// all-pairs fold.
#[test]
fn anti_correlated_merge_does_less_pair_work() {
    let mut p = ExperimentParams::paper_static_default(Distribution::AntiCorrelated, 42);
    p.n = 4000;
    p.dag_height = 4;
    let (table, dags) = p.materialize();
    let domains: Vec<PoDomain> = dags.iter().cloned().map(PoDomain::new).collect();
    let shards = 8usize;
    let locals: Vec<Vec<RecordId>> = table
        .shards(shards)
        .iter()
        .map(|v| {
            let sub = v.to_store();
            let stss = Stss::build(sub, dags.clone(), StssConfig::default()).expect("shard build");
            stss.run()
                .skyline_records()
                .into_iter()
                .map(|r| r + v.start())
                .collect()
        })
        .collect();
    let total: usize = locals.iter().map(Vec::len).sum();
    assert!(total > 500, "anti-correlated locals must be skyline-heavy");

    let (old, old_m) = merge_shard_skylines_all_pairs(&table, &domains, &locals);
    let (new, new_m) = merge_shard_skylines(&table, &domains, &locals, 1);
    let mut a = old.clone();
    let mut b = new.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "same merged skyline");
    assert!(
        new_m.merge_pair_checks < old_m.merge_pair_checks,
        "sorted {} must beat all-pairs {}",
        new_m.merge_pair_checks,
        old_m.merge_pair_checks
    );
    assert!(new_m.merge_pair_checks < all_pairs_merge_bound(&locals));
    assert!(new_m.merge_strata > 0);
}

/// The adaptive shard count is a rule: one shard unless the run has more
/// than one worker, then one per worker up to `max` — at one worker the
/// shards would run back to back, so sharding could only add merge work.
/// The rule never reads the store: the Fig. 7 point (independent data,
/// n = 10 000, seed 42) and an empty store get the same plans, and no
/// plan carries estimates.
#[test]
fn one_worker_plans_stay_unsharded() {
    let mut p = ExperimentParams::paper_static_default(Distribution::Independent, 42);
    p.n = 10_000;
    let (table, dags) = p.materialize();
    let domains: Vec<PoDomain> = dags.into_iter().map(PoDomain::new).collect();
    let empty = Table::new(table.to_dims(), table.po_dims());
    for (max, workers, shards) in [
        (8usize, 0usize, 1usize),
        (8, 1, 1),
        (8, 2, 2),
        (8, 4, 4),
        (8, 16, 8),
        (0, 4, 1),
    ] {
        let spec = ShardSpec::Adaptive { max, workers };
        let plan = spec.resolve(&table, &domains);
        assert_eq!(
            plan,
            ShardPlan {
                shards,
                adaptive: true,
                workers: workers.max(1),
                est_run_checks: 0,
                est_merge_checks: 0,
            },
            "max={max} workers={workers}"
        );
        assert_eq!(
            spec.resolve(&empty, &domains),
            plan,
            "the store is never read"
        );
    }
    // A fixed count passes through, clamped to one shard.
    assert_eq!(
        ShardSpec::Fixed(0).resolve(&table, &domains),
        ShardPlan {
            shards: 1,
            adaptive: false,
            workers: 0,
            est_run_checks: 0,
            est_merge_checks: 0,
        }
    );
}
