//! The streaming-maintenance bench axis behind `harness bench --json
//! --stream`.
//!
//! Each grid point replays a generated workload as an arrival stream
//! through a [`StreamingSkyline`] with a count-based sliding window while
//! a snapshot cursor is drained periodically (the serving-path load), and
//! reports:
//!
//! * sustained **updates/sec** and the wall clock of the whole stream;
//! * **time-to-repair percentiles** (p50/p95/p99 of the wall time of the
//!   inserts whose window eviction hit a skyline member and triggered a
//!   delta repair);
//! * the **maintained-vs-recompute** column pair: the maintainer's
//!   dominance-check spend at a deterministic subsample of repair steps
//!   next to the *exact* cost of a from-scratch sTSS recompute of the
//!   surviving window at those same steps — the delta-repair saving,
//!   machine-checkable per row.
//!
//! Everything except the wall-clock columns (`wall_ns`,
//! `updates_per_sec`, `repair_ns_*`) is a pure function of the op
//! sequence: CI re-runs the grid under both dominance kernels and asserts
//! the remaining columns byte-identical. Repairs run serially, so the grid
//! has no worker-count axis.

use crate::jsonbench::{available_parallelism, metrics_json};
use crate::runner::{generate, Workload};
use datagen::{Distribution, ExperimentParams};
use std::time::Instant;
use tss_core::{
    Kernel, Metrics, PoDomain, SkylineCursor, StreamingConfig, StreamingSkyline, Stss, StssConfig,
    Table, WindowPolicy,
};

/// One measured streaming grid point.
#[derive(Debug, Clone)]
pub struct StreamBenchRow {
    /// Engine label (always `"streamTSS"`; the recompute baseline is a
    /// column, not a row — it is never asked to serve the stream).
    pub algo: &'static str,
    /// Grid point key, e.g. `"stream:anti:n=100000:w=256"`.
    pub workload: String,
    /// Sliding-window capacity (`window_n`).
    pub window: usize,
    /// Dominance-kernel variant of the run.
    pub kernel: &'static str,
    /// `std::thread::available_parallelism()` of the measuring machine —
    /// rows from a 1-CPU container prove determinism, not speedup.
    pub available_parallelism: usize,
    /// Wall nanoseconds of the whole maintained stream (inserts, window
    /// evictions, repairs, and the periodic cursor drains).
    pub wall_ns: u128,
    /// Sustained arrivals per second over the whole stream, cursor-serving
    /// load included.
    pub updates_per_sec: u64,
    /// Points served off snapshot cursors during the run (deterministic:
    /// one drain every [`CURSOR_EVERY`] arrivals).
    pub cursor_points_served: u64,
    /// Wall-time percentiles over the repair-triggering inserts (ns).
    pub repair_ns_p50: u64,
    pub repair_ns_p95: u64,
    pub repair_ns_p99: u64,
    /// Maintainer dominance checks spent at the sampled repair steps.
    pub maintained_checks_sampled: u64,
    /// Exact dominance checks a from-scratch sTSS recompute of the
    /// surviving window paid at those same steps.
    pub recompute_checks_sampled: u64,
    /// Number of repair steps in the subsample.
    pub sampled_repairs: u64,
    /// Full maintenance metrics of the run (`cpu` mirrors `wall_ns`).
    pub metrics: Metrics,
    /// Final maintained skyline cardinality.
    pub skyline: usize,
}

/// Drain a snapshot cursor every this many arrivals — the serving load
/// the updates/sec figure is measured under.
pub const CURSOR_EVERY: usize = 128;

/// Measure the exact recompute cost at every this many repairs.
pub const SAMPLE_EVERY: u64 = 32;

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
fn percentile(sample: &mut [u64], pct: u64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    let rank = (sample.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sample[rank - 1]
}

/// Replays `w` as an arrival stream through a maintained skyline and
/// measures one grid point. Everything in the returned row except the
/// wall-clock columns is a pure function of `(workload, window)`.
pub fn run_streaming(w: &Workload, window: usize) -> StreamBenchRow {
    let domains: Vec<PoDomain> = w.dags.iter().cloned().map(PoDomain::new).collect();
    let mut s = StreamingSkyline::new(
        w.params.to_dims,
        domains,
        StreamingConfig {
            window: WindowPolicy::Count(window),
        },
    );
    let mut repair_ns: Vec<u64> = Vec::new();
    let mut cursor_points_served = 0u64;
    let mut maintained_sampled = 0u64;
    let mut recompute_sampled = 0u64;
    let mut sampled_repairs = 0u64;
    let t0 = Instant::now();
    for i in 0..w.table.len() {
        let before = s.metrics();
        let t_op = Instant::now();
        s.insert(w.table.to(i as u32), w.table.po(i as u32));
        let op_ns = t_op.elapsed().as_nanos() as u64;
        let after = s.metrics();
        if after.stream_repairs > before.stream_repairs {
            repair_ns.push(op_ns);
            if after.stream_repairs.is_multiple_of(SAMPLE_EVERY) {
                sampled_repairs += 1;
                maintained_sampled += after.dominance_checks - before.dominance_checks;
                recompute_sampled += window_recompute_checks(&s, w);
            }
        }
        if (i + 1) % CURSOR_EVERY == 0 {
            let mut cursor = s.cursor();
            while cursor.next().is_some() {
                cursor_points_served += 1;
            }
        }
    }
    let wall = t0.elapsed();
    let mut metrics = s.metrics();
    metrics.cpu = wall;
    let secs = wall.as_secs_f64();
    StreamBenchRow {
        algo: "streamTSS",
        workload: format!(
            "stream:{}:n={}:w={window}",
            w.params.dist.short(),
            w.table.len()
        ),
        window,
        kernel: Kernel::active().name(),
        available_parallelism: available_parallelism(),
        wall_ns: wall.as_nanos(),
        updates_per_sec: if secs > 0.0 {
            (w.table.len() as f64 / secs) as u64
        } else {
            0
        },
        cursor_points_served,
        repair_ns_p50: percentile(&mut repair_ns, 50),
        repair_ns_p95: percentile(&mut repair_ns, 95),
        repair_ns_p99: percentile(&mut repair_ns, 99),
        maintained_checks_sampled: maintained_sampled,
        recompute_checks_sampled: recompute_sampled,
        sampled_repairs,
        metrics,
        skyline: s.skyline_records().len(),
    }
}

/// Exact cost of a from-scratch sTSS recompute of the surviving window —
/// the per-step price a recompute-on-expiry strategy would pay where the
/// maintainer ran one delta repair instead.
fn window_recompute_checks(s: &StreamingSkyline, w: &Workload) -> u64 {
    let mut window = Table::new(s.store().to_dims(), s.store().po_dims());
    for id in s.store().live_ids() {
        window.push(s.store().to(id), s.store().po(id));
    }
    let run = Stss::build(window, w.dags.clone(), StssConfig::default())
        // lint:allow(panic-path): measurement harness must crash on a window that no longer builds
        .expect("window recompute builds")
        .run();
    run.metrics.dominance_checks
}

/// Sliding-window capacity of the stream grid.
pub const STREAM_WINDOW: usize = 256;

/// The streaming grid: the fig07-style anti-correlated stress stream and
/// an independent control, at the paper's dynamic-study shape
/// (`|TO| = 3, |PO| = 1, h = 6, d = 0.8`), one row each. While
/// measuring, asserts that every stream repairs and that the sampled
/// delta repairs cost fewer checks than recomputing. `smoke` shrinks the
/// stream so CI can do the same in seconds.
pub fn stream_grid(smoke: bool) -> Vec<StreamBenchRow> {
    const SEED: u64 = 42;
    let n = if smoke { 4_000 } else { 100_000 };
    let mut rows = Vec::new();
    for dist in [Distribution::AntiCorrelated, Distribution::Independent] {
        let mut p = ExperimentParams::paper_dynamic_default(dist, SEED);
        p.n = n;
        if smoke {
            p.dag_height = 4;
        }
        let row = run_streaming(&generate(&p), STREAM_WINDOW);
        assert!(
            row.metrics.stream_repairs > 0,
            "{}: the stream must exercise the repair path",
            row.workload
        );
        if row.sampled_repairs > 0 {
            assert!(
                row.maintained_checks_sampled < row.recompute_checks_sampled,
                "{}: delta repair ({} checks) must beat recompute-on-expiry ({} checks)",
                row.workload,
                row.maintained_checks_sampled,
                row.recompute_checks_sampled
            );
        }
        rows.push(row);
    }
    rows
}

/// Renders the stream rows as a JSON array (hand-rolled like
/// [`crate::jsonbench::to_json`]: the workspace builds offline, no serde).
pub fn stream_to_json(rows: &[StreamBenchRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"algo\": \"{}\", \"workload\": \"{}\", \
             \"window\": {}, \"kernel\": \"{}\", \
             \"available_parallelism\": {}, \
             \"wall_ns\": {}, \"updates_per_sec\": {}, \"cursor_points_served\": {}, \
             \"repair_ns_p50\": {}, \"repair_ns_p95\": {}, \"repair_ns_p99\": {}, \
             \"maintained_checks_sampled\": {}, \"recompute_checks_sampled\": {}, \
             \"sampled_repairs\": {}, \"metrics\": {}}}{}\n",
            r.algo,
            r.workload,
            r.window,
            r.kernel,
            r.available_parallelism,
            r.wall_ns,
            r.updates_per_sec,
            r.cursor_points_served,
            r.repair_ns_p50,
            r.repair_ns_p95,
            r.repair_ns_p99,
            r.maintained_checks_sampled,
            r.recompute_checks_sampled,
            r.sampled_repairs,
            metrics_json(&r.metrics, r.skyline),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonbench::tests::{assert_every_counter, distinct_counters};

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = vec![10, 20, 30, 40];
        assert_eq!(percentile(&mut s, 50), 20);
        assert_eq!(percentile(&mut s, 95), 40);
        assert_eq!(percentile(&mut Vec::new(), 99), 0);
        assert_eq!(percentile(&mut [7], 50), 7);
    }

    #[test]
    fn stream_json_shape_is_stable() {
        let rows = vec![StreamBenchRow {
            algo: "streamTSS",
            workload: "stream:anti:n=100:w=16".into(),
            window: 16,
            kernel: "lanes",
            available_parallelism: 1,
            wall_ns: 123,
            updates_per_sec: 456,
            cursor_points_served: 78,
            repair_ns_p50: 1,
            repair_ns_p95: 2,
            repair_ns_p99: 3,
            maintained_checks_sampled: 9,
            recompute_checks_sampled: 90,
            sampled_repairs: 4,
            metrics: distinct_counters(),
            skyline: 6,
        }];
        let s = stream_to_json(&rows);
        assert!(s.starts_with("[\n"));
        assert!(s.contains("\"algo\": \"streamTSS\""));
        assert!(s.contains("\"window\": 16"));
        assert!(s.contains("\"updates_per_sec\": 456"));
        assert!(s.contains("\"repair_ns_p99\": 3"));
        assert!(s.contains("\"maintained_checks_sampled\": 9"));
        assert!(s.contains("\"recompute_checks_sampled\": 90"));
        assert_every_counter(&s, &rows[0].metrics);
        assert!(s.contains("\"skyline\": 6}"));
        assert!(s.trim_end().ends_with(']'));
    }

    #[test]
    fn smoke_stream_grid_holds_the_invariants() {
        let rows = stream_grid(true);
        assert_eq!(rows.len(), 2, "one row per workload");
        assert!(rows.iter().any(|r| r.workload.starts_with("stream:anti:")));
        assert!(rows.iter().any(|r| r.workload.starts_with("stream:indep:")));
        for r in &rows {
            assert!(r.metrics.stream_repairs > 0, "{}", r.workload);
            assert!(r.sampled_repairs > 0, "{}", r.workload);
            assert!(
                r.maintained_checks_sampled < r.recompute_checks_sampled,
                "{}: maintained {} vs recompute {}",
                r.workload,
                r.maintained_checks_sampled,
                r.recompute_checks_sampled
            );
            assert_eq!(r.window, STREAM_WINDOW);
            assert_eq!(r.metrics.stream_inserts, 4_000);
        }
    }
}
