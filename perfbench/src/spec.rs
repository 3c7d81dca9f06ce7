//! The benchmark's contract: workloads, metric names, units and bounds.
//! `BENCHMARK.json` at the repository root is exactly [`describe`]'s
//! output (a test pins that).

/// Seconds one run measures (summed op time of the closed-loop client).
pub const RUN_SECONDS: u64 = 30;

/// The seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;

/// A seed no tuning of this benchmark looked at: a gain claimed at
/// [`DEFAULT_SEED`] must also hold here.
#[cfg_attr(not(test), allow(dead_code))]
pub const HELD_OUT_SEED: u64 = 977;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "static_anti",
        "sTSS over anti-correlated 2 TO + 2 PO data, the largest skylines: R-tree traversal, \
         dominance kernels, shard planner and merge do most work; no labeling or streaming",
    ),
    (
        "dynamic_session",
        "dTSS behind one QuerySession with skewed repeat preference orders: the only per-op \
         labeling and session-cache work; no sTSS traversal, merge or planner",
    ),
    (
        "stream_window",
        "count-window StreamingSkyline over an anti-correlated stream with snapshot reads: \
         the only writes, insert screening, delta repair and compaction; no R-tree or planner",
    ),
];

/// Every workload reports every one of these (see README.md for what
/// each op is on each workload). The typical latency is a mean, not a
/// median: on a shared host the machine alternates between fast and slow
/// phases of a few seconds, and a median jumps from one phase's latency to
/// the other's as their shares of a run cross one half, where a mean moves
/// in proportion to the shares. `query_p90_ms` is printed but not here: a
/// `static_anti` run has about 55 queries, so its p90 rests on the 5
/// slowest and moved by a quarter within one set of runs.
pub const END_TO_END: [Metric; 7] = [
    m("setup_s", "s", "lower", 0.25),
    m("query_mean_ms", "ms", "lower", 0.25),
    m("prefix_mean_ms", "ms", "lower", 0.25),
    m("signature_mean_ms", "ms", "lower", 0.25),
    m("ops_per_s", "1/s", "higher", 0.25),
    m("peak_rss_mb", "MB", "lower", 0.1),
    m("correct_ratio", "ratio", "higher", 0.01),
];

/// Reported by the traced run. A layer a workload does not use reports 0
/// work; no time-valued metric here is structurally 0 on any workload.
pub const PER_LAYER: [Metric; 37] = [
    m("poset.label_us", "us", "lower", 0.0),
    m("poset.label_calls", "count", "lower", 0.0),
    m("session.hit_ratio", "ratio", "higher", 0.0),
    m("session.lookups", "count", "higher", 0.0),
    m("session.misses", "count", "lower", 0.0),
    m("rtree.reads_per_query", "count", "lower", 0.0),
    m("rtree.pops_per_query", "count", "lower", 0.0),
    m("rtree.reads_per_prefix", "count", "lower", 0.0),
    m("store.checks_per_query", "count", "lower", 0.0),
    m("store.batch_calls_per_query", "count", "lower", 0.0),
    m("store.chunks_per_query", "count", "lower", 0.0),
    m("store.pair_ns", "ns", "lower", 0.0),
    m("store.kernel_share", "ratio", "lower", 0.0),
    m("stss.skyline", "count", "higher", 0.0),
    m("dtss.checks_per_query", "count", "lower", 0.0),
    m("dtss.skyline_mean", "count", "higher", 0.0),
    m("parallel.shards", "count", "lower", 0.0),
    m("parallel.merge_pair_checks", "count", "lower", 0.0),
    m("parallel.merge_strata", "count", "lower", 0.0),
    m("parallel.local_to_global", "ratio", "lower", 0.0),
    m("parallel.est_error", "ratio", "lower", 0.0),
    m("executor.retries", "count", "lower", 0.0),
    m("executor.fallbacks", "count", "lower", 0.0),
    m("streaming.inserts", "count", "higher", 0.0),
    m("streaming.repair_rate", "ratio", "lower", 0.0),
    m("streaming.candidates_per_repair", "count", "lower", 0.0),
    m("streaming.checks_per_update", "count", "lower", 0.0),
    m("streaming.skyline_mean", "count", "higher", 0.0),
    m("trace.overhead_pct", "%", "lower", 0.0),
    m("trace.ops", "count", "higher", 0.0),
    m("count.dominance_checks", "count", "lower", 0.0),
    m("count.io_reads", "count", "lower", 0.0),
    m("count.heap_pops", "count", "lower", 0.0),
    m("count.merge_pair_checks", "count", "lower", 0.0),
    m("count.label_misses", "count", "lower", 0.0),
    m("count.stream_repairs", "count", "lower", 0.0),
    m("count.repair_candidates", "count", "lower", 0.0),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// The `BENCHMARK.json` text.
pub fn describe() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_described_contract() {
        assert_eq!(include_str!("../../BENCHMARK.json"), describe());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200, "{why}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }
}
