//! Workload construction and algorithm runners shared by the harness binary
//! and the Criterion benches.

use crate::ipcbench::{
    bench_deadline, bench_executor, encode_engine_task, ExecutorChoice, TASK_DTSS,
    TASK_DYNAMIC_SDC, TASK_SDC_PLUS, TASK_STSS,
};
use datagen::ExperimentParams;
use poset::Dag;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sdc::{DynamicSdc, SdcConfig, SdcIndex, Variant};
use std::sync::Mutex;
use std::time::Instant;
use tss_core::parallel::merge_jobs_exec;
use tss_core::{
    Budget, CostModel, Dtss, DtssConfig, ExecPolicy, Kernel, Metrics, PoDomain, PoQuery,
    ProgressSample, ShardJob, ShardPlan, ShardSpec, ShardView, SkylineCursor, Stss, StssConfig,
    SubprocessExecutor, Table, ThreadShardExecutor, WorkerSpec,
};

/// A generated workload: the table plus its PO domains.
pub struct Workload {
    pub table: Table,
    pub dags: Vec<Dag>,
    pub params: ExperimentParams,
}

/// Generates the workload for one parameter setting, materialized directly
/// into the columnar store.
pub fn generate(params: &ExperimentParams) -> Workload {
    let (table, dags) = params.materialize();
    Workload {
        table,
        dags,
        params: *params,
    }
}

/// One algorithm's measured run.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    pub name: &'static str,
    pub metrics: Metrics,
    pub skyline: usize,
    /// Skyline record ids in emission order, when the runner kept them
    /// (`None` for aggregated results) — what the bench grid's
    /// byte-identity assertions compare across worker counts and shard
    /// plans.
    pub records: Option<Vec<u32>>,
    /// The shard-count decision of a sharded run (`None` for the serial
    /// engines) — recorded into every JSON bench row.
    pub plan: Option<ShardPlan>,
}

impl AlgoResult {
    /// Simulated total seconds under the paper's cost model.
    pub fn total_secs(&self, model: CostModel) -> f64 {
        model.total_time(&self.metrics).as_secs_f64()
    }

    /// CPU share of the simulated total.
    pub fn cpu_share(&self, model: CostModel) -> f64 {
        model.cpu_fraction(&self.metrics)
    }
}

/// Builds the sTSS index (untimed — both systems index offline in the
/// static experiments) and measures one run.
pub fn run_stss(w: &Workload, cfg: StssConfig) -> AlgoResult {
    let stss = Stss::build(w.table.clone(), w.dags.clone(), cfg).expect("valid workload");
    let run = stss.run();
    AlgoResult {
        name: "TSS",
        metrics: run.metrics,
        skyline: run.skyline.len(),
        records: Some(run.skyline_records()),
        plan: None,
    }
}

/// Builds the SDC+ strata (untimed) and measures one run.
pub fn run_sdc_plus(w: &Workload) -> AlgoResult {
    let idx = SdcIndex::build(
        w.table.clone(),
        w.dags.clone(),
        Variant::SdcPlus,
        SdcConfig::default(),
    )
    .expect("valid workload");
    let run = idx.run();
    AlgoResult {
        name: "SDC+",
        metrics: run.metrics,
        skyline: run.skyline.len(),
        records: Some(run.skyline.clone()),
        plan: None,
    }
}

/// Default shard budget of the sharded parallel runners: the fixed count
/// when `BENCH_SHARDS` is pinned, the adaptive cap when it is not.
/// Deliberately decoupled from the worker count: for a given plan every
/// `--threads N` run partitions the data identically and does identical
/// work, so skyline record sets and dominance-check counts are
/// byte-for-byte comparable across `N` — only the wall clock moves.
pub const BENCH_SHARDS: usize = 8;

/// The shard spec the bench grid runs under, from the `BENCH_SHARDS`
/// environment variable: set → that fixed shard count; unset →
/// [`ShardSpec::Adaptive`] with this machine's observed parallelism `P`,
/// i.e. `min(P, BENCH_SHARDS)` shards. Grid rows are therefore
/// reproducible per machine class; the worker input is recorded in every
/// row (`plan_workers`).
pub fn bench_shard_spec() -> ShardSpec {
    shard_spec_from(
        std::env::var("BENCH_SHARDS").ok().as_deref(),
        crate::jsonbench::available_parallelism(),
    )
}

/// The pure mapping behind [`bench_shard_spec`]: `None` (variable unset)
/// → adaptive under `workers`, `Some(count)` → fixed.
fn shard_spec_from(var: Option<&str>, workers: usize) -> ShardSpec {
    match var {
        Some(v) => {
            let n = v
                .trim()
                .parse::<usize>()
                .unwrap_or_else(|_| panic!("BENCH_SHARDS must be a shard count, got {v:?}"));
            assert!(n >= 1, "BENCH_SHARDS must be >= 1, got {n}");
            ShardSpec::Fixed(n)
        }
        None => ShardSpec::Adaptive {
            max: BENCH_SHARDS,
            workers,
        },
    }
}

/// The bench grid's pair-check [`Budget`], from the `TSS_BUDGET`
/// environment variable (an allowance in `dominance_checks` units; unset
/// → unlimited). Read per call, like `BENCH_SHARDS`, so tests can probe
/// the mapping without mutating the process environment.
pub fn bench_budget() -> Budget {
    budget_from(std::env::var("TSS_BUDGET").ok().as_deref())
}

/// The pure mapping behind [`bench_budget`].
fn budget_from(var: Option<&str>) -> Budget {
    match var {
        Some(v) => Budget::pair_checks(
            v.trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("TSS_BUDGET must be a pair-check allowance, got {v:?}")),
        ),
        None => Budget::UNLIMITED,
    }
}

/// Shared body of the sharded runners: takes the resolved shard plan and
/// builds one engine per shard *untimed* (both systems index offline), then
/// executes the shards on up to `threads` scoped workers behind the
/// fault-tolerant [`ThreadShardExecutor`], folds the local skylines with
/// the sorted parallel merge under the [`bench_budget`] allowance, and
/// reports the *wall clock* of the timed phase as `metrics.cpu`. All
/// counts are the exact sum of the per-shard metrics plus the merge
/// phase.
///
/// Each prebuilt engine serves attempt 0 of its shard; recovery attempts
/// (retries after an injected or genuine panic, and the scalar-oracle
/// fallback of last resort) rebuild the shard's engine inside the timed
/// phase at [`ShardCtx::kernel`](tss_core::ShardCtx::kernel) — recovery
/// work is genuinely part of the run. Kernel equivalence (bit-identical
/// results and counters across kernels) keeps the recovered rows
/// byte-comparable with fault-free ones.
///
/// Every job also carries its wire payload (`wire`, one of the
/// [`crate::ipcbench`] engine codecs): under `TSS_EXECUTOR=subprocess`
/// the shards run in a supervised pool of re-exec'd worker processes
/// ([`SubprocessExecutor`]) instead of scoped threads, with byte-identical
/// records and non-wall counters — worker processes rebuild the same
/// engine from the shipped window and run the same deterministic code.
#[allow(clippy::too_many_arguments)]
fn run_sharded<E: Send>(
    name: &'static str,
    table: &Table,
    domains: &[PoDomain],
    plan: ShardPlan,
    threads: usize,
    build: impl Fn(&ShardView<'_>, Kernel) -> E + Sync,
    run: impl Fn(&E) -> (Vec<u32>, Metrics) + Sync,
    wire: impl Fn(&ShardView<'_>) -> Vec<u8> + Send + Sync,
) -> AlgoResult {
    let views = table.shards(plan.shards);
    let base_kernel = table.kernel();
    let engines: Vec<Mutex<Option<E>>> = views
        .iter()
        .map(|v| Mutex::new(Some(build(v, base_kernel))))
        .collect();
    let t0 = Instant::now();
    let (build, run, engines, wire) = (&build, &run, &engines, &wire);
    let jobs: Vec<ShardJob<'_>> = views
        .iter()
        .map(|&view| {
            ShardJob::new(view.range(), move |ctx| {
                // The prebuilt engine is taken (not borrowed): a panicking
                // attempt drops it mid-unwind, so retries never observe an
                // engine whose interior IO counters were left mid-run.
                let prebuilt = if ctx.kernel == base_kernel {
                    engines[ctx.shard]
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .take()
                } else {
                    None
                };
                let engine = prebuilt.unwrap_or_else(|| build(&view, ctx.kernel));
                let (local, m) = run(&engine);
                let global: Vec<u32> = local.into_iter().map(|r| r + view.start()).collect();
                (global, m)
            })
            .with_wire(move || wire(&view))
        })
        .collect();
    let parallel = match bench_executor() {
        ExecutorChoice::InProc => {
            let executor = ThreadShardExecutor::new(threads);
            merge_jobs_exec(table, domains, &executor, threads, bench_budget(), jobs)
        }
        ExecutorChoice::Subprocess => {
            // Re-exec this binary behind the harness's hidden `tss-worker`
            // subcommand. If the executable path cannot be resolved the
            // empty program fails to spawn and the supervisor degrades the
            // whole batch to the in-process ladder — same records, same
            // counters, `ipc_bytes: 0`.
            let spec = WorkerSpec::current_exe(["tss-worker"])
                .unwrap_or_else(|_| WorkerSpec::new(std::path::PathBuf::new(), ["tss-worker"]));
            let mut policy = ExecPolicy::default();
            if let Some(deadline) = bench_deadline() {
                policy = policy.with_deadline(deadline);
            }
            let executor = SubprocessExecutor::with_policy(spec, threads, policy);
            merge_jobs_exec(table, domains, &executor, threads, bench_budget(), jobs)
        }
    }
    .unwrap_or_else(|e| {
        // lint:allow(panic-path): a shard that fails its retries AND the scalar-oracle fallback has no recovery left — the bench run is unreportable and must abort loudly
        panic!("{name}: unrecoverable shard failure: {e}")
    });
    let wall = t0.elapsed();
    let mut metrics = parallel.metrics();
    metrics.cpu = wall;
    AlgoResult {
        name,
        metrics,
        skyline: parallel.records.len(),
        records: Some(parallel.records),
        plan: Some(plan),
    }
}

/// Sharded parallel sTSS: one index per shard (built untimed), run on up
/// to `threads` workers, local skylines merged with the sorted parallel
/// merge. `spec` is a fixed shard count or [`ShardSpec::Adaptive`].
pub fn run_stss_sharded(
    w: &Workload,
    cfg: StssConfig,
    spec: impl Into<ShardSpec>,
    threads: usize,
) -> AlgoResult {
    let domains: Vec<PoDomain> = w.dags.iter().cloned().map(PoDomain::new).collect();
    let plan = spec.into().resolve(&w.table, &domains);
    run_sharded(
        "TSS",
        &w.table,
        &domains,
        plan,
        threads,
        |v, k| {
            Stss::build(v.to_store().with_kernel(k), w.dags.clone(), cfg).expect("valid workload")
        },
        |e| {
            let r = e.run();
            (r.skyline_records(), r.metrics)
        },
        |v| encode_engine_task(TASK_STSS, v, &w.dags, None),
    )
}

/// Sharded parallel SDC+ (same contract as [`run_stss_sharded`]).
pub fn run_sdc_plus_sharded(
    w: &Workload,
    spec: impl Into<ShardSpec>,
    threads: usize,
) -> AlgoResult {
    let domains: Vec<PoDomain> = w.dags.iter().cloned().map(PoDomain::new).collect();
    let plan = spec.into().resolve(&w.table, &domains);
    run_sharded(
        "SDC+",
        &w.table,
        &domains,
        plan,
        threads,
        |v, k| {
            SdcIndex::build(
                v.to_store().with_kernel(k),
                w.dags.clone(),
                Variant::SdcPlus,
                SdcConfig::default(),
            )
            .expect("valid workload")
        },
        |e| {
            let r = e.run();
            (r.skyline.clone(), r.metrics)
        },
        |v| encode_engine_task(TASK_SDC_PLUS, v, &w.dags, None),
    )
}

/// Sharded parallel dTSS in the paper's configuration
/// ([`paper_dtss`](crate::params::paper_dtss), which the subprocess worker
/// rebuilds too): group structures built per shard (untimed,
/// order-independent), then one dynamic query evaluated per shard and
/// merged under the *query's* partial orders, which define merge-time
/// dominance.
pub fn run_dtss_sharded(
    w: &Workload,
    query_seed: u64,
    spec: impl Into<ShardSpec>,
    threads: usize,
) -> AlgoResult {
    let cfg = crate::params::paper_dtss();
    let sizes: Vec<u32> = w.dags.iter().map(|d| d.len() as u32).collect();
    let query = PoQuery::new(
        w.dags
            .iter()
            .map(|d| permuted_order(d, query_seed))
            .collect(),
    );
    let domains: Vec<PoDomain> = query.dags().iter().cloned().map(PoDomain::new).collect();
    let plan = spec.into().resolve(&w.table, &domains);
    run_sharded(
        "TSS",
        &w.table,
        &domains,
        plan,
        threads,
        |v, k| {
            Dtss::build(v.to_store().with_kernel(k), sizes.clone(), cfg).expect("valid workload")
        },
        |e| {
            let r = e.query(&query).expect("valid query");
            (r.skyline_records(), r.metrics)
        },
        |v| encode_engine_task(TASK_DTSS, v, &w.dags, Some(query_seed)),
    )
}

/// Sharded rebuild-SDC+ baseline: each shard rebuilds its strata for the
/// query (the rebuild IO stays charged per shard), then the locals merge.
pub fn run_dynamic_sdc_sharded(
    w: &Workload,
    query_seed: u64,
    spec: impl Into<ShardSpec>,
    threads: usize,
) -> AlgoResult {
    let query: Vec<Dag> = w
        .dags
        .iter()
        .map(|d| permuted_order(d, query_seed))
        .collect();
    let domains: Vec<PoDomain> = query.iter().cloned().map(PoDomain::new).collect();
    let plan = spec.into().resolve(&w.table, &domains);
    run_sharded(
        "SDC+",
        &w.table,
        &domains,
        plan,
        threads,
        |v, k| DynamicSdc::new(v.to_store().with_kernel(k), SdcConfig::default()),
        |e| {
            let r = e.query(&query).expect("valid query");
            (r.skyline.clone(), r.metrics)
        },
        |v| encode_engine_task(TASK_DYNAMIC_SDC, v, &w.dags, Some(query_seed)),
    )
}

/// Progressiveness timelines for Fig. 11: `(samples, final metrics)`.
pub fn progressive_stss(w: &Workload) -> (Vec<ProgressSample>, Metrics) {
    let stss = Stss::build(w.table.clone(), w.dags.clone(), StssConfig::default())
        .expect("valid workload");
    let (run, log) = stss.run_progressive();
    (log.samples, run.metrics)
}

/// Progressiveness timeline of SDC+.
pub fn progressive_sdc_plus(w: &Workload) -> (Vec<ProgressSample>, Metrics) {
    let idx = SdcIndex::build(
        w.table.clone(),
        w.dags.clone(),
        Variant::SdcPlus,
        SdcConfig::default(),
    )
    .expect("valid workload");
    let mut samples = Vec::new();
    let run = idx.run_with(&mut |_, s| samples.push(s));
    (samples, run.metrics)
}

/// Latency profile of a top-k prefix pulled off a live [`SkylineCursor`]:
/// the snapshots at the first and the `k`-th confirmation, measured without
/// materializing the rest of the skyline (index build excluded, as in the
/// other runners).
#[derive(Debug, Clone)]
pub struct CursorTimings {
    /// Engine label.
    pub name: &'static str,
    /// Snapshot at the first confirmation.
    pub first: ProgressSample,
    /// Snapshot at the `min(k, |skyline|)`-th confirmation.
    pub at_k: ProgressSample,
    /// Requested prefix length.
    pub k: usize,
    /// Results actually pulled (the skyline may be smaller than `k`).
    pub pulled: usize,
}

impl CursorTimings {
    /// Simulated time to the first result under the paper's cost model.
    pub fn time_to_first(&self, model: CostModel) -> f64 {
        self.first.elapsed_total(model).as_secs_f64()
    }

    /// Simulated time to the `k`-th result under the paper's cost model.
    pub fn time_to_k(&self, model: CostModel) -> f64 {
        self.at_k.elapsed_total(model).as_secs_f64()
    }
}

/// Pulls a `k`-prefix off `cursor` and records the latency snapshots.
pub fn pull_k(mut cursor: impl SkylineCursor, name: &'static str, k: usize) -> CursorTimings {
    let mut t = CursorTimings {
        name,
        first: ProgressSample::default(),
        at_k: ProgressSample::default(),
        k,
        pulled: 0,
    };
    while t.pulled < k && cursor.next().is_some() {
        t.pulled += 1;
        if t.pulled == 1 {
            t.first = cursor.progress();
        }
        t.at_k = cursor.progress();
    }
    t
}

/// Builds the sTSS index (untimed) and pulls a `k`-prefix off its cursor.
pub fn stss_time_to_k(w: &Workload, cfg: StssConfig, k: usize) -> CursorTimings {
    let stss = Stss::build(w.table.clone(), w.dags.clone(), cfg).expect("valid workload");
    pull_k(stss.cursor(), "TSS", k)
}

/// Builds the SDC+ strata (untimed) and pulls a `k`-prefix off its cursor.
pub fn sdc_plus_time_to_k(w: &Workload, k: usize) -> CursorTimings {
    let idx = SdcIndex::build(
        w.table.clone(),
        w.dags.clone(),
        Variant::SdcPlus,
        SdcConfig::default(),
    )
    .expect("valid workload");
    pull_k(idx.cursor(), "SDC+", k)
}

/// Builds the dTSS groups (untimed) and pulls a `k`-prefix off one dynamic
/// query's cursor.
pub fn dtss_time_to_k(w: &Workload, query_seed: u64, cfg: DtssConfig, k: usize) -> CursorTimings {
    let sizes: Vec<u32> = w.dags.iter().map(|d| d.len() as u32).collect();
    let dtss = Dtss::build(w.table.clone(), sizes, cfg).expect("valid workload");
    let query = PoQuery::new(
        w.dags
            .iter()
            .map(|d| permuted_order(d, query_seed))
            .collect(),
    );
    let cursor = dtss.query_cursor(&query).expect("valid query");
    pull_k(cursor, "TSS", k)
}

/// A *dynamic* query order over the same domain: the data DAG with its
/// node identities permuted. This preserves the DAG's shape (height,
/// density — the sweep variables) while changing every preference, which is
/// exactly what a user-specified order does in §VI-C.
pub fn permuted_order(dag: &Dag, seed: u64) -> Dag {
    let n = dag.len() as u32;
    let mut perm: Vec<u32> = (0..n).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    let edges: Vec<(u32, u32)> = dag
        .edges()
        .map(|(u, v)| (perm[u.idx()], perm[v.idx()]))
        .collect();
    let labels = (0..n).map(|i| format!("q{i}")).collect();
    Dag::from_labeled(labels, &edges).expect("permutation preserves acyclicity")
}

/// Builds the dTSS groups (untimed, order-independent) and measures one
/// dynamic query.
pub fn run_dtss(w: &Workload, query_seed: u64, cfg: DtssConfig) -> AlgoResult {
    let sizes: Vec<u32> = w.dags.iter().map(|d| d.len() as u32).collect();
    let dtss = Dtss::build(w.table.clone(), sizes, cfg).expect("valid workload");
    let query = PoQuery::new(
        w.dags
            .iter()
            .map(|d| permuted_order(d, query_seed))
            .collect(),
    );
    let run = dtss.query(&query).expect("valid query");
    AlgoResult {
        name: "TSS",
        metrics: run.metrics,
        skyline: run.skyline.len(),
        records: Some(run.skyline_records()),
        plan: None,
    }
}

/// Measures one dynamic query of the SDC+ baseline, rebuild included.
pub fn run_dynamic_sdc(w: &Workload, query_seed: u64) -> AlgoResult {
    let dsdc = DynamicSdc::new(w.table.clone(), SdcConfig::default());
    let query: Vec<Dag> = w
        .dags
        .iter()
        .map(|d| permuted_order(d, query_seed))
        .collect();
    let run = dsdc.query(&query).expect("valid query");
    AlgoResult {
        name: "SDC+",
        metrics: run.metrics,
        skyline: run.skyline.len(),
        records: Some(run.skyline.clone()),
        plan: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::Distribution;
    use poset::Reachability;

    fn tiny_params() -> ExperimentParams {
        let mut p = ExperimentParams::paper_static_default(Distribution::Independent, 7);
        p.n = 2000;
        p.dag_height = 4;
        p
    }

    #[test]
    fn generate_produces_consistent_workload() {
        let w = generate(&tiny_params());
        assert_eq!(w.table.len(), 2000);
        assert_eq!(w.dags.len(), 2);
    }

    #[test]
    fn static_runners_agree() {
        let w = generate(&tiny_params());
        let a = run_stss(&w, StssConfig::default());
        let b = run_sdc_plus(&w);
        assert_eq!(a.skyline, b.skyline, "same skyline cardinality");
        assert!(a.metrics.io_reads > 0 && b.metrics.io_reads > 0);
    }

    #[test]
    fn dynamic_runners_agree() {
        let mut p = ExperimentParams::paper_dynamic_default(Distribution::Independent, 7);
        p.n = 2000;
        p.dag_height = 4;
        let w = generate(&p);
        let a = run_dtss(&w, 5, DtssConfig::default());
        let b = run_dynamic_sdc(&w, 5);
        assert_eq!(a.skyline, b.skyline);
        assert!(b.metrics.io_writes > 0, "baseline rebuild charged");
        assert_eq!(a.metrics.io_writes, 0, "dTSS never rebuilds");
    }

    #[test]
    fn permuted_order_preserves_shape() {
        let w = generate(&tiny_params());
        let q = permuted_order(&w.dags[0], 3);
        assert_eq!(q.len(), w.dags[0].len());
        assert_eq!(q.num_edges(), w.dags[0].num_edges());
        assert_eq!(q.height(), w.dags[0].height());
        // But the preferences differ (overwhelmingly likely).
        let r0 = Reachability::build(&w.dags[0]);
        let rq = Reachability::build(&q);
        let diff = w.dags[0]
            .values()
            .flat_map(|x| w.dags[0].values().map(move |y| (x, y)))
            .filter(|&(x, y)| r0.preferred(x, y) != rq.preferred(x, y))
            .count();
        assert!(diff > 0);
    }

    #[test]
    fn sharded_runners_agree_with_the_serial_engines() {
        let w = generate(&tiny_params());
        let serial = run_stss(&w, StssConfig::default());
        for threads in [1usize, 2, 4] {
            let sharded = run_stss_sharded(&w, StssConfig::default(), BENCH_SHARDS, threads);
            assert_eq!(sharded.skyline, serial.skyline, "threads={threads}");
        }
        let sdc = run_sdc_plus_sharded(&w, BENCH_SHARDS, 2);
        assert_eq!(sdc.skyline, serial.skyline);

        let mut p = ExperimentParams::paper_dynamic_default(Distribution::Independent, 7);
        p.n = 2000;
        p.dag_height = 4;
        let wd = generate(&p);
        let d_serial = run_dtss(&wd, 5, DtssConfig::default());
        let d_sharded = run_dtss_sharded(&wd, 5, BENCH_SHARDS, 2);
        assert_eq!(d_sharded.skyline, d_serial.skyline);
        let r_sharded = run_dynamic_sdc_sharded(&wd, 5, BENCH_SHARDS, 2);
        assert_eq!(r_sharded.skyline, d_serial.skyline);
        assert!(r_sharded.metrics.io_writes > 0, "rebuild charged per shard");
    }

    #[test]
    fn adaptive_plan_matches_fixed_byte_for_byte() {
        let w = generate(&tiny_params());
        let fixed = run_stss_sharded(&w, StssConfig::default(), BENCH_SHARDS, 2);
        let adaptive = run_stss_sharded(
            &w,
            StssConfig::default(),
            ShardSpec::Adaptive {
                max: BENCH_SHARDS,
                workers: 2,
            },
            2,
        );
        let (fp, ap) = (fixed.plan.unwrap(), adaptive.plan.unwrap());
        assert!(!fp.adaptive && ap.adaptive);
        assert_eq!(fp.shards, BENCH_SHARDS);
        // One shard per worker, under the cap; no estimates.
        assert_eq!((ap.shards, ap.workers), (2, 2));
        assert_eq!((ap.est_run_checks, ap.est_merge_checks), (0, 0));
        // The sorted merge emits in (score, id) order — identical vectors,
        // not merely identical sets, whatever the partition.
        assert_eq!(fixed.records, adaptive.records);
        assert_eq!(fixed.skyline, adaptive.skyline);
    }

    #[test]
    fn shard_spec_mapping_covers_set_and_unset() {
        // The pure mapping, probed directly — tests never mutate the
        // process-global environment (racy under the parallel harness).
        assert_eq!(
            shard_spec_from(None, 4),
            ShardSpec::Adaptive {
                max: BENCH_SHARDS,
                workers: 4,
            }
        );
        assert_eq!(shard_spec_from(Some("3"), 4), ShardSpec::Fixed(3));
        assert_eq!(shard_spec_from(Some(" 8 "), 1), ShardSpec::Fixed(8));
    }

    #[test]
    fn cursor_prefix_costs_less_than_a_full_run() {
        let w = generate(&tiny_params());
        let full = run_stss(&w, StssConfig::default());
        assert!(full.skyline > 10, "need a non-trivial skyline");
        let prefix = stss_time_to_k(&w, StssConfig::default(), 10);
        assert_eq!(prefix.pulled, 10);
        assert!(
            prefix.at_k.io_reads < full.metrics.io_reads,
            "10-prefix reads {} vs full {}",
            prefix.at_k.io_reads,
            full.metrics.io_reads
        );
        assert!(prefix.first.io_reads <= prefix.at_k.io_reads);
        // The dynamic path streams too.
        let mut p = ExperimentParams::paper_dynamic_default(Distribution::Independent, 7);
        p.n = 2000;
        p.dag_height = 4;
        let wd = generate(&p);
        let d_full = run_dtss(&wd, 5, DtssConfig::default());
        let d_prefix = dtss_time_to_k(&wd, 5, DtssConfig::default(), 5);
        assert!(d_prefix.pulled > 0);
        assert!(d_prefix.at_k.io_reads <= d_full.metrics.io_reads);
    }

    #[test]
    fn progressive_runners_sample_every_result() {
        let w = generate(&tiny_params());
        let (ts, tm) = progressive_stss(&w);
        let (ss, sm) = progressive_sdc_plus(&w);
        assert_eq!(ts.len() as u64, tm.results);
        assert_eq!(ss.len() as u64, sm.results);
        assert_eq!(tm.results, sm.results);
    }
}
