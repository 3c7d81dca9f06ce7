//! The three workloads and what they share: the closed-loop pacing, op
//! timing with failure capture, set-up timing, and the per-layer probes.
//!
//! Each workload generates its inputs from the seed, sets up (timed; a
//! median of [`SETUP_REPS`] set-ups spread over the run, see
//! [`SetupClock`]), computes reference answers with an independent engine
//! outside every timed region, then runs one client that issues each op
//! when the previous one returns, until the summed op time reaches the run
//! length. In a traced run, blocks of ops alternate
//! between tracing on and off, so the traced and untraced medians come
//! from the same process and the same data.

pub mod dynamic_session;
pub mod static_anti;
pub mod stream_window;

use crate::report::Report;
use crate::stats::{self, median};
use crate::trace::Tracer;
use datagen::ExperimentParams;
use poset::Dag;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tss_core::{Metrics, PoDomain, PointStore, RecordId};

pub const NAMES: [&str; 3] = ["static_anti", "dynamic_session", "stream_window"];

/// `Small` shrinks every input so tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub fn run(name: &str, cfg: &RunCfg, tracer: &Tracer) -> Result<Report, String> {
    match name {
        "static_anti" => static_anti::run(cfg, tracer),
        "dynamic_session" => dynamic_session::run(cfg, tracer),
        "stream_window" => stream_window::run(cfg, tracer),
        _ => Err(format!("unknown workload {name:?}")),
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Set-up timing spread over the run. The machine's speed moves in phases
/// of seconds, so set-ups timed back to back all land in one phase; here
/// one is timed before the client starts and the others at even steps of
/// its op time, and their median stands for the whole run.
pub struct SetupClock(Vec<u64>);

impl SetupClock {
    fn timed_build<T>(&mut self, build: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let state = build()?;
        self.0.push(t.elapsed().as_nanos() as u64);
        Ok(state)
    }

    /// Builds the served state: one untimed build first, so the timed ones
    /// start from a warm allocator, as every build after a process's first
    /// does; then the first timed one, which is served.
    pub fn start<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, Self), String> {
        drop(build()?);
        let mut clock = SetupClock(Vec::with_capacity(SETUP_REPS));
        let state = clock.timed_build(build)?;
        Ok((state, clock))
    }

    /// Times one more build, dropped at once, when the client has crossed
    /// the next step of its op time.
    pub fn tick<T>(
        &mut self,
        pace: &Pace,
        build: impl FnOnce() -> Result<T, String>,
    ) -> Result<(), String> {
        let due = self.0.len() as f64 / SETUP_REPS as f64;
        if self.0.len() < SETUP_REPS && pace.done_share() >= due {
            drop(self.timed_build(build)?);
        }
        Ok(())
    }

    /// The median set-up in seconds, after the builds a short run did not
    /// reach.
    pub fn median_s<T>(
        mut self,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<f64, String> {
        while self.0.len() < SETUP_REPS {
            drop(self.timed_build(&mut build)?);
        }
        Ok(median(&self.0) / 1e9)
    }
}

/// Runs one op, timing it. An `Err` or a panic comes back as a message.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> (Result<T, String>, u64) {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f));
    let ns = t.elapsed().as_nanos() as u64;
    let out = out.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    });
    (out, ns)
}

/// Closed-loop pacing: the run lasts until the client has spent the run
/// length inside ops (set-up, reference checks and probes excluded), and
/// always completes `min_ops` so the exact work counters cover a fixed op
/// prefix. A wall-clock cap keeps a slow run inside the driver's limit.
pub struct Pace {
    start: Instant,
    busy_ns: u64,
    budget_ns: u64,
    min_ops: u64,
    pub ops: u64,
}

impl Pace {
    pub fn new(seconds: f64, min_ops: u64) -> Pace {
        Pace {
            start: Instant::now(),
            busy_ns: 0,
            budget_ns: (seconds * 1e9) as u64,
            min_ops,
            ops: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.busy_ns += ns;
        self.ops += 1;
    }

    pub fn more(&self) -> bool {
        let wall_cap = self.budget_ns.saturating_mul(3) + 30_000_000_000;
        self.ops < self.min_ops
            || (self.busy_ns < self.budget_ns
                && (self.start.elapsed().as_nanos() as u64) < wall_cap)
    }

    /// The share of the run length spent inside ops so far.
    pub fn done_share(&self) -> f64 {
        stats::ratio(self.busy_ns as f64, self.budget_ns as f64)
    }

    /// Ops completed per second the client spent inside ops.
    pub fn ops_per_s(&self) -> f64 {
        stats::ratio(self.ops as f64, self.busy_ns as f64 / 1e9)
    }
}

/// Latencies (ns) of one op kind, split by whether tracing was on.
#[derive(Default)]
pub struct Lat {
    pub plain: Vec<u64>,
    pub traced: Vec<u64>,
}

impl Lat {
    pub fn push(&mut self, traced: bool, ns: u64) {
        if traced {
            self.traced.push(ns);
        } else {
            self.plain.push(ns);
        }
    }
}

/// Tracing cost: summed traced medians over summed untraced medians, in
/// percent, over the op kinds that have both.
pub fn overhead_pct(kinds: &[&Lat]) -> f64 {
    let both = kinds
        .iter()
        .filter(|l| !l.plain.is_empty() && !l.traced.is_empty());
    let (t, p) = both.fold((0.0, 0.0), |(t, p), l| {
        (t + median(&l.traced), p + median(&l.plain))
    });
    100.0 * (stats::ratio(t, p) - 1.0).max(-1.0)
}

/// Summed work counters of the ops seen so far, for per-op means.
#[derive(Default)]
pub struct Acc {
    pub m: Metrics,
    pub n: u64,
}

impl Acc {
    pub fn add(&mut self, m: &Metrics) {
        self.m = self.m.merge(m);
        self.n += 1;
    }

    pub fn per(&self, field: impl Fn(&Metrics) -> u64) -> f64 {
        stats::ratio(field(&self.m) as f64, self.n as f64)
    }
}

/// The exact counters of a fixed op prefix: identical across runs with
/// one seed, whatever the clock did.
pub fn set_counts(report: &mut Report, m: &Metrics) {
    report.set("count.dominance_checks", m.dominance_checks as f64);
    report.set("count.io_reads", m.io_reads as f64);
    report.set("count.heap_pops", m.heap_pops as f64);
    report.set("count.merge_pair_checks", m.merge_pair_checks as f64);
    report.set("count.label_misses", m.label_cache_misses as f64);
    report.set("count.stream_repairs", m.stream_repairs as f64);
    report.set("count.repair_candidates", m.repair_candidates as f64);
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd<'a> {
    pub setup_s: f64,
    pub query: &'a Lat,
    pub prefix: &'a Lat,
    pub signature: &'a Lat,
    pub pace: &'a Pace,
}

pub fn set_end_to_end(report: &mut Report, e: EndToEnd<'_>) {
    // Read before the order statistics below copy the samples.
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("setup_s", e.setup_s);
    report.set("query_mean_ms", stats::mean(&e.query.plain) / 1e6);
    report.set("prefix_mean_ms", stats::mean(&e.prefix.plain) / 1e6);
    report.set("signature_mean_ms", stats::mean(&e.signature.plain) / 1e6);
    report.info("query_p50_ms", median(&e.query.plain) / 1e6, "ms");
    report.info(
        "query_p90_ms",
        stats::percentile(&e.query.plain, 90.0) / 1e6,
        "ms",
    );
    report.info("prefix_p50_ms", median(&e.prefix.plain) / 1e6, "ms");
    report.set("ops_per_s", e.pace.ops_per_s());
    let ratio = report.correct_ratio();
    report.set("correct_ratio", ratio);
    report.info("failed_ratio", 1.0 - ratio, "ratio");
    report.info("query_samples", e.query.plain.len() as f64, "count");
    report.info("signature_samples", e.signature.plain.len() as f64, "count");
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `PoDomain::new` (the whole labeling of one order) on `dag`.
pub fn label_probe(tracer: &Tracer, dag: &Dag) {
    let dag = dag.clone();
    tracer.probe("op.label_probe", |root| {
        tracer.span("poset.label", root, |_| {
            std::hint::black_box(PoDomain::new(dag));
        })
    });
}

pub fn label_us(tracer: &Tracer) -> f64 {
    median(&tracer.durations("poset.label")) / 1e3
}

/// Nanoseconds per pair of `PointStore::t_dominated_by_any` over the first
/// `PROBE_ROWS` live records of the workload's own store. The candidate
/// (all-zero TO, a most-preferred value per PO attribute) is dominated by
/// nothing, so every call scans the whole block.
pub fn pair_ns(tracer: &Tracer, store: &PointStore, domains: &[PoDomain]) -> f64 {
    const PROBE_ROWS: usize = 4096;
    const PAIRS: u64 = 1 << 22;
    let ids: Vec<RecordId> = store.live_ids().take(PROBE_ROWS).collect();
    let to = vec![0u32; store.to_dims()];
    let po: Vec<u32> = domains
        .iter()
        .map(|d| d.dag().roots().next().map_or(0, |v| v.0))
        .collect();
    let (pairs, ns) = tracer.probe("op.pair_probe", |root| {
        tracer.span("store.t_dominated_by_any", root, |_| {
            let t = Instant::now();
            let (mut pairs, mut hits) = (0u64, 0u64);
            while pairs < PAIRS {
                let (hit, examined) = store.t_dominated_by_any(domains, &to, &po, &ids);
                pairs += examined.max(1);
                hits += u64::from(hit);
            }
            std::hint::black_box(hits);
            (pairs, t.elapsed().as_nanos() as u64)
        })
    });
    stats::ratio(ns as f64, pairs as f64)
}

/// The seed of the fixed data sets: every workload's PO domains (DAGs),
/// and the tables `static_anti` and `dynamic_session` serve. `--seed`
/// drives what the client does to them — the row order (and so the shard
/// partition), the preference orders, the arrival stream. Data drawn per
/// seed moves skyline sizes, and so every latency, by a third between
/// seeds, which would drown any change the benchmark is meant to see.
pub const DATA_SEED: u64 = 1;

/// The workload's table under `p`, over the fixed-seed DAGs.
pub fn generate(p: &ExperimentParams) -> Result<(PointStore, Vec<Dag>), String> {
    let dags = ExperimentParams {
        seed: DATA_SEED,
        ..*p
    }
    .build_dags();
    let table = PointStore::from_parts(p.to_dims, p.po_dims, p.gen_to(), p.gen_po(&dags))
        .map_err(|e| e.to_string())?;
    Ok((table, dags))
}

pub fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// `Ok` iff `got` holds exactly the records of the sorted `reference`.
pub fn same_set(got: &[u32], reference: &[u32]) -> Result<(), String> {
    if sorted(got.to_vec()) == reference {
        Ok(())
    } else {
        Err(format!(
            "{} records differ from the {}-record reference",
            got.len(),
            reference.len()
        ))
    }
}

/// `Ok` iff `got` is the first `got.len()` records of `emission`.
pub fn is_prefix(got: &[u32], emission: &[u32]) -> Result<(), String> {
    if emission.starts_with(got) {
        Ok(())
    } else {
        Err(format!(
            "{}-record prefix is not a prefix of the full emission",
            got.len()
        ))
    }
}

/// The share of the skyline a first-results op pulls (Fig. 11's "time to
/// x% of the skyline" at x = 25).
pub const PREFIX_SHARE: usize = 4;

/// The prefix a first-results op pulls: the first quarter of the skyline.
pub fn prefix_k(skyline: usize) -> usize {
    skyline.div_ceil(PREFIX_SHARE).max(1)
}

/// SplitMix64: the benchmark's own seeded stream (order choice and
/// permutations), independent of the library's generators.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::trace::{self_times, Span, NONE};
    use std::collections::BTreeMap;

    fn small(seed: u64, seconds: f64, trace: bool) -> RunCfg {
        RunCfg {
            seed,
            seconds,
            trace,
            scale: Scale::Small,
        }
    }

    fn counts(name: &str, seed: u64) -> Vec<f64> {
        let r = run(name, &small(seed, 0.0, false), &Tracer::new()).expect("runs");
        assert_eq!(r.failed, 0, "{name} seed {seed}");
        [
            "count.dominance_checks",
            "count.io_reads",
            "count.heap_pops",
            "count.merge_pair_checks",
            "count.label_misses",
            "count.stream_repairs",
            "count.repair_candidates",
        ]
        .iter()
        .map(|c| r.get(c))
        .collect()
    }

    #[test]
    fn work_counts_repeat_exactly_per_seed() {
        for name in NAMES {
            let a = counts(name, spec::DEFAULT_SEED);
            assert!(a[0] > 0.0, "{name}: no dominance checks counted");
            assert_eq!(
                a,
                counts(name, spec::DEFAULT_SEED),
                "{name}: same seed, different counts"
            );
            assert_ne!(
                a,
                counts(name, spec::HELD_OUT_SEED),
                "{name}: the seed must change the counts"
            );
        }
    }

    /// Children lie inside their parents, and each op's self times sum to
    /// its wall time plus the measured overlap of concurrent siblings —
    /// which is 0 for every op but the sharded one.
    #[test]
    fn traced_spans_nest_and_account_for_each_op() {
        for name in NAMES {
            let tracer = Tracer::new();
            let r = run(name, &small(3, 0.3, true), &tracer).expect("runs");
            assert_eq!(r.failed, 0, "{name}");
            let mut ops: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
            for s in tracer.kept() {
                ops.entry(s.op).or_default().push(s);
            }
            assert!(ops.len() > 3, "{name}: too few traced ops");
            for spans in ops.values() {
                let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == NONE).collect();
                assert_eq!(roots.len(), 1, "{name}: one root per op");
                for c in spans.iter().filter(|s| s.parent != NONE) {
                    let p = spans
                        .iter()
                        .find(|p| p.id == c.parent)
                        .expect("parent kept");
                    assert!(
                        p.start_ns <= c.start_ns && c.end_ns <= p.end_ns,
                        "{name}: {c:?} outside {p:?}"
                    );
                }
                let (selfs, overlap) = self_times(spans);
                assert_eq!(
                    selfs.iter().sum::<u64>(),
                    roots[0].dur() + overlap,
                    "{name}"
                );
                if roots[0].name != "op.sharded" {
                    assert_eq!(overlap, 0, "{name}: serial op {} overlaps", roots[0].name);
                }
            }
            assert!(
                r.get("store.pair_ns") > 0.0 && r.get("poset.label_us") > 0.0,
                "{name}"
            );
        }
    }

    #[test]
    fn seeded_stream_is_deterministic() {
        let (mut a, mut b) = (SplitMix::new(5), SplitMix::new(5));
        assert_eq!(a.next_u64(), b.next_u64());
        assert!((0.0..1.0).contains(&a.unit()));
        assert_eq!(prefix_k(0), 1);
        assert_eq!(prefix_k(101), 26);
    }
}
