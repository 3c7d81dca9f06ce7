//! Facade acceptance for fault-tolerant shard execution and work budgets:
//! for random stores, partial orders, seeded [`FaultPlan`]s (seeds ×
//! rates × shard counts 1..=8) and worker counts, a fault-injected run
//! recovers to the **byte-identical** skyline record-id vector of the
//! fault-free run with every non-fault counter identical — injected
//! panics and corrupted local skylines are observable only through
//! `shard_retries` / `shard_fallbacks` / `faults_injected`. And for
//! every budgeted run, an `Exhausted { confirmed_prefix }` outcome is a
//! *true prefix* of the exact cursor emission — sound, never wrong, just
//! shorter (the anytime guarantee).

use proptest::prelude::*;
use tss::core::{
    brute_force_po_skyline, sharded_skyline_exec, Budget, BudgetOutcome, BudgetedCursor,
    ExecPolicy, FaultPlan, Metrics, PoDomain, ShardSpec, SkylineCursor, Stss, StssConfig, Table,
};
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

fn table_of(rows: &[(u32, u32, u32)]) -> Table {
    let mut t = Table::new(2, 1);
    for &(a, b, v) in rows {
        t.push(&[a, b], &[v]);
    }
    t
}

/// Every counter except the wall clock and the fault-recovery trio — the
/// set that must be byte-identical between fault-injected and fault-free
/// runs.
fn non_fault_counts(m: &Metrics) -> Metrics {
    let mut m = *m;
    m.cpu = std::time::Duration::ZERO;
    m.shard_retries = 0;
    m.shard_fallbacks = 0;
    m.faults_injected = 0;
    m
}

/// The sTSS-per-shard job every sharded test here runs: honors
/// `ctx.kernel` so fallback attempts genuinely recompute on the scalar
/// oracle.
fn stss_shard(
    dag: &Dag,
) -> impl Fn(tss::core::ShardCtx, &tss::core::ShardView<'_>) -> (Vec<u32>, Metrics) + Sync + '_ {
    move |ctx, view| {
        let stss = Stss::build(
            view.to_store().with_kernel(ctx.kernel),
            vec![dag.clone()],
            StssConfig::default(),
        )
        .expect("shard build");
        let r = stss.run();
        (r.skyline_records(), r.metrics)
    }
}

/// Budgets `numer`/4 of a full run's pair checks, then the full cost plus
/// one, then no limit, over fresh cursors from `open`: each outcome's
/// points are a prefix of the unbudgeted emission, and the last two are the
/// whole of it.
fn budgeted_runs_prefix_the_full_emission<C: SkylineCursor>(
    name: &str,
    open: impl Fn() -> C,
    numer: u64,
) {
    let mut c = open();
    let full = c.take_k(usize::MAX);
    let full_checks = c.metrics().dominance_checks;
    let out = BudgetedCursor::run(open(), Budget::pair_checks(full_checks * numer / 4));
    let got = out.points();
    assert!(got.len() <= full.len());
    assert_eq!(
        got,
        &full[..got.len()],
        "{name}: budgeted emission must prefix the exact one"
    );
    if out.is_complete() {
        assert_eq!(got.len(), full.len());
    }
    let complete = BudgetedCursor::run(open(), Budget::pair_checks(full_checks + 1));
    assert!(complete.is_complete(), "{name}");
    assert_eq!(complete.points(), &full[..]);
    match BudgetedCursor::run(open(), Budget::UNLIMITED) {
        BudgetOutcome::Complete { skyline, .. } => assert_eq!(&skyline[..], &full[..]),
        BudgetOutcome::Exhausted { .. } => panic!("{name}: unlimited budgets never exhaust"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The recovery contract: whatever a seeded fault plan injects —
    /// panics, corrupted local skylines, at any rate, under any shard
    /// partition and worker count — the recovered run emits the
    /// byte-identical record-id vector, identical per-shard locals and
    /// identical non-fault counters as the fault-free run of the same
    /// jobs.
    #[test]
    fn fault_injected_runs_recover_byte_identically(
        rows in proptest::collection::vec((0u32..12, 0u32..12, 0u32..5), 1..40),
        edge_mask in 0u32..1024,
        seed in 0u64..u64::MAX,
        rate_ppm in 50_000u32..=1_000_000,
        shards in 1usize..=8,
        threads in 1usize..=4,
    ) {
        let t = table_of(&rows);
        let dag = mask_dag(edge_mask);
        let domains = vec![PoDomain::new(dag.clone())];
        let run_shard = stss_shard(&dag);

        let clean = sharded_skyline_exec(
            &t, &domains, ShardSpec::Fixed(shards), threads,
            ExecPolicy::fault_free(), Budget::UNLIMITED, &run_shard,
        ).expect("fault-free runs cannot fail");
        let faulty = sharded_skyline_exec(
            &t, &domains, ShardSpec::Fixed(shards), threads,
            ExecPolicy::with_faults(Some(FaultPlan { seed, rate_ppm })),
            Budget::UNLIMITED, &run_shard,
        ).expect("every injected fault must be recovered");

        prop_assert_eq!(&faulty.records, &clean.records,
            "recovered skyline must be byte-identical");
        prop_assert_eq!(&faulty.locals, &clean.locals,
            "recovered per-shard locals must be identical");
        prop_assert_eq!(
            non_fault_counts(&faulty.metrics()),
            non_fault_counts(&clean.metrics()),
            "non-fault counters must not see the faults"
        );
        let fm = faulty.metrics();
        let cm = clean.metrics();
        prop_assert_eq!(cm.faults_injected, 0);
        prop_assert_eq!(cm.shard_retries, 0);
        prop_assert_eq!(cm.shard_fallbacks, 0);
        // Every injected fault forced a retry (or the fallback), and
        // recovery work is only ever counted when something was injected.
        prop_assert!(fm.shard_retries + fm.shard_fallbacks >= fm.faults_injected.min(1));
        if fm.faults_injected == 0 {
            prop_assert_eq!(fm.shard_retries, 0);
            prop_assert_eq!(fm.shard_fallbacks, 0);
        }
        // Determinism of the injection itself: the same plan replays to
        // the same recovery counters.
        let replay = sharded_skyline_exec(
            &t, &domains, ShardSpec::Fixed(shards), threads,
            ExecPolicy::with_faults(Some(FaultPlan { seed, rate_ppm })),
            Budget::UNLIMITED, &run_shard,
        ).expect("replay recovers too");
        prop_assert_eq!(non_fault_counts(&replay.metrics()), non_fault_counts(&fm));
        prop_assert_eq!(replay.metrics().faults_injected, fm.faults_injected);
        prop_assert_eq!(replay.metrics().shard_retries, fm.shard_retries);
        prop_assert_eq!(replay.metrics().shard_fallbacks, fm.shard_fallbacks);
    }

    /// The anytime guarantee, cursor side: for the sTSS and SDC+ engines,
    /// every `Exhausted { confirmed_prefix }` outcome equals the first
    /// `len` points of the untruncated emission sequence, and a complete
    /// outcome equals the whole skyline.
    #[test]
    fn exhausted_outcomes_are_true_prefixes(
        rows in proptest::collection::vec((0u32..12, 0u32..12, 0u32..5), 1..40),
        edge_mask in 0u32..1024,
        numer in 0u64..=4,
    ) {
        let t = table_of(&rows);
        let dag = mask_dag(edge_mask);
        let stss = Stss::build(t.clone(), vec![dag.clone()], StssConfig::default())
            .expect("valid workload");
        let sdc = SdcIndex::build(t, vec![dag], Variant::SdcPlus, SdcConfig::default())
            .expect("valid workload");
        budgeted_runs_prefix_the_full_emission("sTSS", || stss.cursor(), numer);
        budgeted_runs_prefix_the_full_emission("SDC+", || sdc.cursor(), numer);
    }

    /// The anytime guarantee, sharded side: a budgeted
    /// `sharded_skyline_exec` whose allowance runs out mid-merge reports
    /// `exhausted` and a record vector that is a true prefix of the
    /// unbudgeted merged emission — under faults or not.
    #[test]
    fn budgeted_sharded_runs_emit_sound_prefixes(
        rows in proptest::collection::vec((0u32..12, 0u32..12, 0u32..5), 1..40),
        edge_mask in 0u32..1024,
        seed in 0u64..u64::MAX,
        inject in proptest::bool::ANY,
        numer in 0u64..=4,
        shards in 1usize..=8,
        threads in 1usize..=4,
    ) {
        let t = table_of(&rows);
        let dag = mask_dag(edge_mask);
        let domains = vec![PoDomain::new(dag.clone())];
        let run_shard = stss_shard(&dag);
        let policy = || if inject {
            ExecPolicy::with_faults(Some(FaultPlan::new(seed, 0.5)))
        } else {
            ExecPolicy::fault_free()
        };

        let full = sharded_skyline_exec(
            &t, &domains, ShardSpec::Fixed(shards), threads,
            policy(), Budget::UNLIMITED, &run_shard,
        ).expect("recovers");
        prop_assert!(!full.exhausted, "unlimited budgets never exhaust");

        let total = full.metrics().dominance_checks;
        let limit = total * numer / 4;
        let budgeted = sharded_skyline_exec(
            &t, &domains, ShardSpec::Fixed(shards), threads,
            policy(), Budget::pair_checks(limit), &run_shard,
        ).expect("recovers");
        prop_assert!(budgeted.records.len() <= full.records.len());
        prop_assert_eq!(
            &budgeted.records[..],
            &full.records[..budgeted.records.len()],
            "budgeted merge must prefix the exact emission"
        );
        if !budgeted.exhausted {
            prop_assert_eq!(budgeted.records.len(), full.records.len());
        }
        // Sound: every confirmed record really is skyline.
        let oracle = brute_force_po_skyline(&domains, &t);
        for &r in &budgeted.records {
            prop_assert!(oracle.contains(&r), "record {} is not skyline", r);
        }
    }
}

/// Acceptance: a saturating fault plan (rate 1.0 — every attempt of every
/// shard faults until the ladder's scalar fallback, which is never
/// injected) still recovers the exact skyline, and the recovery counters
/// say exactly what happened.
#[test]
fn saturated_fault_plan_recovers_through_the_fallback() {
    let rows: Vec<(u32, u32, u32)> = (0..40u32).map(|i| (i % 13, (40 - i) % 11, i % 5)).collect();
    let t = table_of(&rows);
    let dag = mask_dag(0b1010101010);
    let domains = vec![PoDomain::new(dag.clone())];
    let run_shard = stss_shard(&dag);
    let shards = 4usize;

    let clean = sharded_skyline_exec(
        &t,
        &domains,
        ShardSpec::Fixed(shards),
        2,
        ExecPolicy::fault_free(),
        Budget::UNLIMITED,
        &run_shard,
    )
    .expect("fault-free");
    for threads in [1usize, 2, 4] {
        let faulty = sharded_skyline_exec(
            &t,
            &domains,
            ShardSpec::Fixed(shards),
            threads,
            ExecPolicy::with_faults(Some(FaultPlan::new(7, 1.0))),
            Budget::UNLIMITED,
            &run_shard,
        )
        .expect("the fallback is never injected");
        assert_eq!(faulty.records, clean.records, "threads={threads}");
        assert_eq!(
            non_fault_counts(&faulty.metrics()),
            non_fault_counts(&clean.metrics())
        );
        let m = faulty.metrics();
        assert_eq!(
            m.shard_retries,
            shards as u64 * (ExecPolicy::DEFAULT_RETRIES as u64 + 1),
            "every shard exhausts its ladder"
        );
        assert_eq!(m.shard_fallbacks, shards as u64);
        assert_eq!(m.faults_injected, m.shard_retries);
    }
}
