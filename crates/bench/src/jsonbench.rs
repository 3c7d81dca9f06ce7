//! The machine-readable perf-trajectory grid behind `harness bench --json`.
//!
//! A fixed small grid — the Fig. 7 cardinality sweep crossed with a Fig. 8
//! dimensionality subset, plus the dynamic (Fig. 12) cardinality points and
//! one two-PO dynamic (Fig. 13) point —
//! at one seed, emitted as JSON rows
//! `{algo, workload, threads, shards, wall_ns, metrics}`. Serial rows
//! (`threads = 0`) are the same measurement as `BENCH_PR3.json`, so the
//! trajectory stays comparable across PRs; a `--threads` axis re-runs the
//! grid through the sharded parallel executors (a fixed `BENCH_SHARDS`
//! count or one shard per core, `N` workers) and emits one row set per
//! worker count. Everything except `wall_ns` is asserted identical across
//! worker counts while the grid is built — the determinism contract of
//! `tss_core::parallel`, enforced at measurement time. `--smoke` shrinks
//! every cardinality so CI can do the same in seconds.

use crate::ipcbench::{bench_executor, ExecutorChoice};
use crate::params::paper_dtss;
use crate::runner::{
    bench_budget, generate, run_dtss, run_dtss_sharded, run_dynamic_sdc, run_dynamic_sdc_sharded,
    run_sdc_plus, run_sdc_plus_sharded, run_stss, run_stss_sharded, AlgoResult, Workload,
    BENCH_SHARDS,
};
use datagen::{Distribution, ExperimentParams};
use tss_core::{DtssConfig, FaultPlan, Kernel, Metrics, ShardSpec, StssConfig};

/// Worker threads the measuring machine can actually run — recorded in
/// every row so single-core artifacts (like the committed `BENCH_PR4.json`)
/// are machine-checkable instead of a prose caveat.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One measured grid point.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Engine label (`"sTSS"`, `"dTSS"`, `"SDC+"`, `"SDC+rebuild"`).
    pub algo: &'static str,
    /// Grid point key, e.g. `"fig07:n=100000"`.
    pub workload: String,
    /// Worker threads of the sharded parallel executor; `0` marks the
    /// classic serial engine.
    pub threads: usize,
    /// Shard count the parallel executor actually ran with (the resolved
    /// plan); `0` for serial rows.
    pub shards: usize,
    /// True iff `shards` came from [`ShardSpec::Adaptive`] (one shard per
    /// worker, capped at [`BENCH_SHARDS`]) rather than a fixed
    /// `BENCH_SHARDS` count.
    pub adaptive: bool,
    /// Dominance-kernel variant the whole row ran under (`"lanes"` unless
    /// `TSS_KERNEL=scalar` forced the oracle path). Reporting metadata:
    /// every counter in the row is variant-invariant by contract.
    pub kernel: &'static str,
    /// Worker count the adaptive plan was sized for (0 for serial and
    /// fixed-plan rows).
    pub plan_workers: usize,
    /// Executor the sharded run evaluated its shards through:
    /// `"inproc"` (scoped threads) or `"subprocess"` (the supervised
    /// worker-process pool behind `TSS_EXECUTOR=subprocess`). Serial rows
    /// always read `"inproc"`. Reporting metadata: every non-wall,
    /// non-IPC column is executor-invariant by the byte-identity
    /// contract, which is what the CI subprocess smoke diff checks.
    pub executor: &'static str,
    /// Worker-process pool size of a subprocess run (0 for in-process
    /// and serial rows).
    pub workers: usize,
    /// `std::thread::available_parallelism()` of the measuring machine —
    /// wall-clock columns from rows with `available_parallelism: 1` prove
    /// determinism, not speedup.
    pub available_parallelism: usize,
    /// Wall-clock nanoseconds of the measured run phase (index build
    /// excluded, as in the paper's query-time experiments).
    pub wall_ns: u128,
    /// Seed of the session's deterministic [`FaultPlan`] (`TSS_FAULTS`),
    /// `None` when fault injection is off. Reporting metadata: every
    /// non-fault counter in the row is fault-invariant by the recovery
    /// contract, so CI diffs fault-injected grids against fault-free ones.
    pub fault_seed: Option<u64>,
    /// Injection probability of the active [`FaultPlan`] (0.0 when off).
    pub fault_rate: f64,
    /// Pair-check allowance the sharded rows ran under (`TSS_BUDGET`),
    /// `None` for unlimited.
    pub budget_limit: Option<u64>,
    /// Full execution metrics of the run.
    pub metrics: Metrics,
    /// Skyline cardinality (cross-run sanity anchor).
    pub skyline: usize,
}

impl BenchRow {
    fn of(algo: &'static str, workload: String, threads: usize, r: &AlgoResult) -> Self {
        let faults = FaultPlan::active();
        // Serial rows (threads == 0) never touch the executor seam, so
        // they are in-process whatever `TSS_EXECUTOR` says.
        let choice = if threads == 0 {
            ExecutorChoice::InProc
        } else {
            bench_executor()
        };
        BenchRow {
            algo,
            workload,
            threads,
            shards: r.plan.map_or(0, |p| p.shards),
            adaptive: r.plan.is_some_and(|p| p.adaptive),
            kernel: Kernel::active().name(),
            plan_workers: r.plan.map_or(0, |p| p.workers),
            executor: choice.name(),
            workers: match choice {
                ExecutorChoice::Subprocess => threads,
                ExecutorChoice::InProc => 0,
            },
            available_parallelism: available_parallelism(),
            wall_ns: r.metrics.cpu.as_nanos(),
            fault_seed: faults.map(|f| f.seed),
            fault_rate: faults.map_or(0.0, |f| f.rate()),
            budget_limit: bench_budget().limit(),
            metrics: r.metrics,
            skyline: r.skyline,
        }
    }
}

/// Panics with a diagnostic diff — first divergent index, both values,
/// both lengths — when two skyline record-id vectors differ. The bench
/// grid's equivalence checks are hard assertions; when one trips in CI
/// the first divergent row is the fact that localizes the bug, so every
/// checker reports it instead of a bare `assertion failed`.
fn assert_records_identical(label: &str, a: &Option<Vec<u32>>, b: &Option<Vec<u32>>) {
    let (a, b) = match (a, b) {
        (Some(a), Some(b)) => (a, b),
        (a, b) => panic!(
            "{label}: a runner dropped its record vector (left: {}, right: {})",
            a.is_some(),
            b.is_some()
        ),
    };
    if a == b {
        return;
    }
    match a.iter().zip(b.iter()).position(|(x, y)| x != y) {
        Some(i) => panic!(
            "{label}: record-id vectors diverge at index {i}: {} vs {} \
             (lengths {} vs {})",
            a[i],
            b[i],
            a.len(),
            b.len()
        ),
        None => panic!(
            "{label}: record-id vectors agree on the common prefix but \
             lengths differ: {} vs {}",
            a.len(),
            b.len()
        ),
    }
}

/// Panics naming the first divergent *column* and both values when two
/// counter sets differ — the counter-side counterpart of
/// [`assert_records_identical`]. Compares every count the determinism
/// contract covers; wall clock (`cpu`) is deliberately absent. The IPC
/// counters are pool-size-invariant too: the supervisor instructs process
/// faults by (shard, attempt), never by worker slot, so retries — and
/// therefore frames and bytes — don't depend on how many workers drained
/// the queue.
fn assert_counters_identical(label: &str, a: &Metrics, b: &Metrics) {
    for ((column, x), y) in Metrics::COUNTERS.iter().zip(a.counters()).zip(b.counters()) {
        assert_eq!(x, y, "{label}: column {column} diverges: {x} vs {y}");
    }
}

/// Asserts the thread-count invariants between two runs of the same
/// `(algo, workload)` at different worker counts: byte-identical skyline
/// record-id vectors and identical work counters — only the wall clock
/// may differ.
fn assert_invariant(a: &BenchRow, ra: &AlgoResult, b: &BenchRow, rb: &AlgoResult) {
    let label = format!(
        "{}/{} (threads {} vs {})",
        a.algo, a.workload, a.threads, b.threads
    );
    assert_eq!(a.skyline, b.skyline, "{label}");
    assert_records_identical(&label, &ra.records, &rb.records);
    assert_counters_identical(&label, &a.metrics, &b.metrics);
    assert_eq!(a.shards, b.shards, "plans are deterministic per workload");
    assert_eq!(a.adaptive, b.adaptive);
    assert_eq!(a.plan_workers, b.plan_workers);
}

/// Re-runs one workload's primary engines under both dominance-kernel
/// variants — the store's per-instance [`Kernel`] override, no environment
/// races — and asserts byte-identical skyline record-id vectors and
/// identical counted work. This is the tentpole correctness contract of
/// the lane-chunked kernels, enforced on every grid point while the grid
/// measures.
fn assert_kernel_equivalence(w: &Workload, dynamic: bool) {
    let forced = |k: Kernel| Workload {
        table: w.table.clone().with_kernel(k),
        dags: w.dags.clone(),
        params: w.params,
    };
    let (scalar, lanes) = if dynamic {
        (
            run_dtss(&forced(Kernel::Scalar), 11, DtssConfig::default()),
            run_dtss(&forced(Kernel::Lanes), 11, DtssConfig::default()),
        )
    } else {
        (
            run_stss(&forced(Kernel::Scalar), StssConfig::default()),
            run_stss(&forced(Kernel::Lanes), StssConfig::default()),
        )
    };
    let label = format!("{}/kernel-equivalence", scalar.name);
    assert_records_identical(&label, &scalar.records, &lanes.records);
    assert_counters_identical(&label, &scalar.metrics, &lanes.metrics);
}

/// Runs one workload point through the serial engines and, per requested
/// worker count, through the sharded executors, appending all rows. At the
/// first worker count the point is additionally re-run under the *other*
/// shard plan (fixed `BENCH_SHARDS` when `spec` is adaptive and vice
/// versa) and the merged record-id vectors are asserted byte-identical —
/// the sorted merge emits in `(score, id)` order, which never mentions
/// shard boundaries, so a different partition must not change a single
/// byte of the output.
fn emit_point(
    rows: &mut Vec<BenchRow>,
    workload: &str,
    threads_axis: &[usize],
    spec: ShardSpec,
    serial: [(&'static str, AlgoResult); 2],
    mut sharded: impl FnMut(usize, ShardSpec) -> [(&'static str, AlgoResult); 2],
) {
    // An active `TSS_BUDGET` degrades the sharded runs to sound prefixes,
    // so equality against the unbudgeted serial engines (and across shard
    // plans, whose pair-check spend differs) weakens to soundness; the
    // cross-thread byte-identity below still holds exactly — budgets are
    // deterministic and thread-invariant.
    let budgeted = bench_budget().limit().is_some();
    let [(algo_a, a), (algo_b, b)] = serial;
    assert_eq!(a.skyline, b.skyline, "engines must agree on {workload}");
    let serial_set: Option<Vec<u32>> = a.records.clone().map(|mut r| {
        r.sort_unstable();
        r
    });
    rows.push(BenchRow::of(algo_a, workload.to_string(), 0, &a));
    rows.push(BenchRow::of(algo_b, workload.to_string(), 0, &b));
    let mut first: Option<[(BenchRow, AlgoResult); 2]> = None;
    for &t in threads_axis {
        assert!(t >= 1, "threads axis entries are worker counts (>= 1)");
        let [(algo_a, a), (algo_b, b)] = sharded(t, spec);
        if !budgeted {
            assert_eq!(a.skyline, b.skyline, "engines must agree on {workload}");
        }
        // The sharded executors must produce the serial engines' skyline
        // (emission order differs — score order vs engine order — so
        // compare as record-id sets).
        if let (Some(serial_set), Some(records)) = (&serial_set, &a.records) {
            if budgeted {
                for r in records {
                    assert!(
                        serial_set.binary_search(r).is_ok(),
                        "{algo_a}/{workload}: budgeted run emitted non-skyline record {r}"
                    );
                }
            } else {
                let mut sharded_set = records.clone();
                sharded_set.sort_unstable();
                assert_records_identical(
                    &format!("{algo_a}/{workload} (sharded vs serial, as sorted sets)"),
                    &Some(sharded_set),
                    &Some(serial_set.clone()),
                );
            }
        }
        let ra = BenchRow::of(algo_a, workload.to_string(), t, &a);
        let rb = BenchRow::of(algo_b, workload.to_string(), t, &b);
        match &first {
            None => {
                if !budgeted {
                    let other = match spec {
                        ShardSpec::Fixed(_) => ShardSpec::Adaptive {
                            max: BENCH_SHARDS,
                            workers: t,
                        },
                        ShardSpec::Adaptive { .. } => ShardSpec::Fixed(BENCH_SHARDS),
                    };
                    let [(_, oa), (_, ob)] = sharded(t, other);
                    assert_records_identical(
                        &format!(
                            "{algo_a}/{workload} (across shard plans {:?} vs {:?})",
                            a.plan, oa.plan
                        ),
                        &a.records,
                        &oa.records,
                    );
                    assert_records_identical(
                        &format!(
                            "{algo_b}/{workload} (across shard plans {:?} vs {:?})",
                            b.plan, ob.plan
                        ),
                        &b.records,
                        &ob.records,
                    );
                }
                first = Some([(ra.clone(), a), (rb.clone(), b)]);
            }
            Some([(fa, fra), (fb, frb)]) => {
                assert_invariant(fa, fra, &ra, &a);
                assert_invariant(fb, frb, &rb, &b);
            }
        }
        rows.push(ra);
        rows.push(rb);
    }
}

/// One static grid point: sTSS and SDC+ over the workload of `p`, serial
/// and sharded, after the in-process scalar-vs-lanes check.
fn static_point(
    rows: &mut Vec<BenchRow>,
    label: &str,
    p: &ExperimentParams,
    threads_axis: &[usize],
    spec: ShardSpec,
) {
    let w = generate(p);
    assert_kernel_equivalence(&w, false);
    emit_point(
        rows,
        label,
        threads_axis,
        spec,
        [
            ("sTSS", run_stss(&w, StssConfig::default())),
            ("SDC+", run_sdc_plus(&w)),
        ],
        |t, s| {
            [
                ("sTSS", run_stss_sharded(&w, StssConfig::default(), s, t)),
                ("SDC+", run_sdc_plus_sharded(&w, s, t)),
            ]
        },
    );
}

/// One dynamic grid point: dTSS and the rebuilding SDC+ baseline over the
/// workload of `p`, serial and sharded, after the in-process
/// scalar-vs-lanes check.
fn dynamic_point(
    rows: &mut Vec<BenchRow>,
    label: &str,
    p: &ExperimentParams,
    threads_axis: &[usize],
    spec: ShardSpec,
) {
    let w = generate(p);
    assert_kernel_equivalence(&w, true);
    emit_point(
        rows,
        label,
        threads_axis,
        spec,
        [
            ("dTSS", run_dtss(&w, 11, paper_dtss())),
            ("SDC+rebuild", run_dynamic_sdc(&w, 11)),
        ],
        |t, s| {
            [
                ("dTSS", run_dtss_sharded(&w, 11, s, t)),
                ("SDC+rebuild", run_dynamic_sdc_sharded(&w, 11, s, t)),
            ]
        },
    );
}

/// The fixed grid: one seed (42), Fig. 7 cardinalities x Fig. 8
/// dimensionalities plus one anti-correlated 2 TO + 2 PO point for the
/// static engines, Fig. 12 cardinalities plus one 3 TO + 2 PO Fig. 13
/// point for the dynamic ones. `smoke`
/// shrinks every `n` to 2 000 tuples. `threads_axis`
/// adds one sharded-parallel row set per entry (e.g. `[1, 2, 4]`); pass
/// `[]` for the serial grid alone. `spec` picks the shard plan of the
/// parallel rows — fixed or adaptive; either way each workload is
/// cross-checked against the other plan at the first worker count (see
/// [`emit_point` internals](self)).
pub fn grid(smoke: bool, threads_axis: &[usize], spec: ShardSpec) -> Vec<BenchRow> {
    const SEED: u64 = 42;
    let card: &[usize] = if smoke {
        &[2_000]
    } else {
        &[10_000, 50_000, 100_000]
    };
    let dims: &[(usize, usize)] = if smoke {
        &[(2, 1), (2, 2)]
    } else {
        &[(2, 1), (3, 1), (2, 2), (3, 2)]
    };
    let dims_n = if smoke { 2_000 } else { 20_000 };
    let mut rows = Vec::new();

    // Fig. 7 axis: static cardinality sweep at the paper's default dims.
    for &n in card {
        let mut p = ExperimentParams::paper_static_default(Distribution::Independent, SEED);
        p.n = n;
        if smoke {
            p.dag_height = 4;
        }
        static_point(&mut rows, &format!("fig07:n={n}"), &p, threads_axis, spec);
    }

    // Fig. 8 axis: static dimensionality sweep at a fixed cardinality.
    for &(to_d, po_d) in dims {
        let mut p = ExperimentParams::paper_static_default(Distribution::Independent, SEED);
        p.n = dims_n;
        p.to_dims = to_d;
        p.po_dims = po_d;
        if smoke {
            p.dag_height = 4;
        }
        let label = format!("fig08:n={dims_n}:dims=({to_d},{po_d})");
        static_point(&mut rows, &label, &p, threads_axis, spec);
    }

    // Anti-correlated data in the paper's default shape (2 TO + 2 PO,
    // h = 8, d = 0.8): the largest skylines, where the box filter skips
    // most PO refines. Cheap enough to keep h = 8 in the smoke grid.
    let mut p = ExperimentParams::paper_static_default(Distribution::AntiCorrelated, SEED);
    p.n = dims_n;
    let label = format!("anti:n={dims_n}:dims=(2,2)");
    static_point(&mut rows, &label, &p, threads_axis, spec);

    // Fig. 12 axis: the dynamic counterpart of the cardinality sweep.
    for &n in card {
        let mut p = ExperimentParams::paper_dynamic_default(Distribution::Independent, SEED);
        p.n = n;
        if smoke {
            p.dag_height = 4;
        }
        dynamic_point(&mut rows, &format!("fig12:n={n}"), &p, threads_axis, spec);
    }

    // Fig. 13 point: two PO attributes. With one, groups are visited in
    // ordinal order, so every confirmed member's ordinal is <= the
    // candidate's; with two, dTSS's box tests the ordinals too.
    let mut p = ExperimentParams::paper_dynamic_default(Distribution::Independent, SEED);
    p.n = dims_n;
    p.po_dims = 2;
    if smoke {
        p.dag_height = 4;
    }
    let label = format!("fig13:n={dims_n}:dims=(3,2)");
    dynamic_point(&mut rows, &label, &p, threads_axis, spec);
    rows
}

/// The `metrics` object of a bench row: every counter in
/// [`Metrics::COUNTERS`] order, then the skyline size.
pub(crate) fn metrics_json(m: &Metrics, skyline: usize) -> String {
    let mut out = String::from("{");
    for (name, v) in Metrics::COUNTERS.iter().zip(m.counters()) {
        out.push_str(&format!("\"{name}\": {v}, "));
    }
    out.push_str(&format!("\"skyline\": {skyline}}}"));
    out
}

/// Renders the rows as a JSON array (hand-rolled: the workspace builds
/// offline, so no serde). All strings are plain ASCII grid keys.
pub fn to_json(rows: &[BenchRow]) -> String {
    fn opt(v: Option<u64>) -> String {
        v.map_or_else(|| "null".to_string(), |v| v.to_string())
    }
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"algo\": \"{}\", \"workload\": \"{}\", \"threads\": {}, \"shards\": {}, \
             \"adaptive\": {}, \"kernel\": \"{}\", \"plan_workers\": {}, \
             \"executor\": \"{}\", \"workers\": {}, \
             \"available_parallelism\": {}, \
             \"wall_ns\": {}, \"fault_seed\": {}, \"fault_rate\": {}, \
             \"budget_limit\": {}, \"metrics\": {}}}{}\n",
            r.algo,
            r.workload,
            r.threads,
            r.shards,
            r.adaptive,
            r.kernel,
            r.plan_workers,
            r.executor,
            r.workers,
            r.available_parallelism,
            r.wall_ns,
            opt(r.fault_seed),
            r.fault_rate,
            opt(r.budget_limit),
            metrics_json(&r.metrics, r.skyline),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::Duration;

    /// Every counter set to a distinct three-digit value.
    pub(crate) fn distinct_counters() -> Metrics {
        let mut m = Metrics {
            cpu: Duration::from_nanos(123),
            ..Default::default()
        };
        for (v, c) in (101..).zip(m.counters_mut()) {
            *c = v;
        }
        m
    }

    /// A rendered row carries `"<name>": <value>` for every counter.
    pub(crate) fn assert_every_counter(json: &str, m: &Metrics) {
        for (name, v) in Metrics::COUNTERS.iter().zip(m.counters()) {
            let cell = format!("\"{name}\": {v},");
            assert!(json.contains(&cell), "missing {cell} in {json}");
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let rows = vec![BenchRow {
            algo: "sTSS",
            workload: "fig07:n=10".into(),
            threads: 2,
            shards: 8,
            adaptive: true,
            kernel: "lanes",
            plan_workers: 2,
            executor: "subprocess",
            workers: 2,
            available_parallelism: 4,
            wall_ns: 123,
            fault_seed: Some(7),
            fault_rate: 0.25,
            budget_limit: None,
            metrics: distinct_counters(),
            skyline: 2,
        }];
        let s = to_json(&rows);
        assert!(s.starts_with("[\n"));
        assert!(s.contains("\"algo\": \"sTSS\""));
        assert!(s.contains("\"threads\": 2"));
        assert!(s.contains("\"shards\": 8"));
        assert!(s.contains("\"adaptive\": true"));
        assert!(s.contains("\"kernel\": \"lanes\""));
        assert!(s.contains("\"plan_workers\": 2"));
        assert!(s.contains("\"available_parallelism\": 4"));
        assert!(s.contains("\"wall_ns\": 123"));
        // Fault-tolerance observability: injection config is part of the
        // row shape (unset config emits null).
        assert!(s.contains("\"fault_seed\": 7"));
        assert!(s.contains("\"fault_rate\": 0.25"));
        assert!(s.contains("\"budget_limit\": null"));
        // Out-of-process observability: the executor axis is part of the
        // row shape.
        assert!(s.contains("\"executor\": \"subprocess\""));
        assert!(s.contains("\"workers\": 2"));
        assert_every_counter(&s, &rows[0].metrics);
        assert!(s.contains("\"skyline\": 2}"));
        assert!(s.trim_end().ends_with(']'));
    }

    #[test]
    fn smoke_grid_covers_every_axis() {
        let rows = grid(true, &[], ShardSpec::Fixed(BENCH_SHARDS));
        assert!(rows.iter().any(|r| r.workload.starts_with("fig07:")));
        assert!(rows.iter().any(|r| r.workload.starts_with("fig08:")));
        assert!(rows.iter().any(|r| r.workload.starts_with("anti:")));
        assert!(rows.iter().any(|r| r.workload.starts_with("fig12:")));
        assert!(rows
            .iter()
            .any(|r| r.workload.starts_with("fig13:") && r.algo == "dTSS"));
        assert!(rows.iter().any(|r| r.algo == "sTSS"));
        assert!(rows.iter().any(|r| r.algo == "dTSS"));
        assert!(rows.iter().all(|r| r.threads == 0));
        assert!(rows.iter().all(|r| !r.adaptive), "serial rows never plan");
    }

    #[test]
    fn threaded_smoke_rows_hold_the_invariants() {
        // One smoke pass at two worker counts under the adaptive spec:
        // `emit_point` itself asserts identical skylines and work counters
        // between worker counts AND byte-identical merged record vectors
        // against the fixed-shard plan, so reaching the end *is* the
        // invariant check; spot-check the row layout.
        let rows = grid(
            true,
            &[1, 2],
            ShardSpec::Adaptive {
                max: BENCH_SHARDS,
                workers: 2,
            },
        );
        let serial = rows.iter().filter(|r| r.threads == 0).count();
        let t1 = rows.iter().filter(|r| r.threads == 1).count();
        let t2 = rows.iter().filter(|r| r.threads == 2).count();
        assert!(serial > 0);
        assert_eq!(serial, t1);
        assert_eq!(t1, t2);
        for r in rows.iter().filter(|r| r.threads > 0) {
            assert!(r.adaptive, "threaded rows carry the adaptive flag");
            // One shard per planned worker, under the cap.
            assert_eq!((r.shards, r.plan_workers), (2, 2), "{}", r.workload);
        }
    }
}
