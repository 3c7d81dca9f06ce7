//! `stream_window`: the streaming maintainer — a `StreamingSkyline` with a
//! count window of `W` and the default repair configuration, fed an
//! anti-correlated arrival stream (the streaming grid's shape: 3 TO +
//! 1 PO, h = 6, d = 0.8). Set-up labels the domain and prefills the
//! window; every measured arrival may evict and repair.
//!
//! Ops: each arrival (insert + eviction + repair); every [`READ_EVERY`]
//! arrivals a `query` read (a snapshot `cursor()` drained) and, half a
//! period later, a `prefix` read (the first quarter off a fresh snapshot).
//! Arrivals that triggered a delta repair are the signature op.
//!
//! Every read is checked against the maintained skyline, and at sampled
//! steps the maintained skyline against `brute_force_po_skyline` of the
//! live window.

use super::*;
use datagen::{Distribution, ExperimentParams};
use tss_core::{
    brute_force_po_skyline, SkylineCursor, StreamingConfig, StreamingSkyline, Table, WindowPolicy,
};

/// Reads of the W = 2048 window's skyline took ~0.1 ms, short enough that
/// whether a timer interrupt landed in them decided their p90, which then
/// jumped by a third between runs; at W = 8192 every read spans several.
const W_FULL: usize = 8192;
const W_SMALL: usize = 256;
const ARRIVALS_FULL: usize = 1 << 20;
const ARRIVALS_SMALL: usize = 1 << 13;

/// One full read every this many arrivals (a prefix read half-way).
const READ_EVERY: u64 = 32;

/// The maintained skyline is checked against brute force this often.
const CHECK_EVERY: u64 = 16384;

/// The exact work counters cover this many leading arrivals.
const COUNT_ARRIVALS: u64 = 4096;

fn setup(table: &Table, dags: &[Dag], window: usize) -> StreamingSkyline {
    let domains = dags.iter().cloned().map(PoDomain::new).collect();
    let mut s = StreamingSkyline::new(
        table.to_dims(),
        domains,
        StreamingConfig {
            window: WindowPolicy::Count(window),
            ..StreamingConfig::default()
        },
    );
    for id in 0..window as u32 {
        s.insert(table.to(id), table.po(id));
    }
    s
}

fn brute_check(s: &StreamingSkyline) -> Result<(), String> {
    let store = s.store();
    let live: Vec<u32> = store.live_ids().collect();
    let mut window = Table::new(store.to_dims(), store.po_dims());
    for &id in &live {
        window.push(store.to(id), store.po(id));
    }
    let want: Vec<u32> = brute_force_po_skyline(s.domains(), &window)
        .into_iter()
        .map(|i| live[i as usize])
        .collect();
    if want == s.skyline_records() {
        Ok(())
    } else {
        Err(format!(
            "maintained skyline has {} records, brute force {}",
            s.skyline_records().len(),
            want.len()
        ))
    }
}

/// The counters one arrival moved.
fn delta(after: &Metrics, before: &Metrics) -> Metrics {
    Metrics {
        dominance_checks: after.dominance_checks - before.dominance_checks,
        stream_inserts: after.stream_inserts - before.stream_inserts,
        stream_repairs: after.stream_repairs - before.stream_repairs,
        repair_candidates: after.repair_candidates - before.repair_candidates,
        shard_retries: after.shard_retries - before.shard_retries,
        shard_fallbacks: after.shard_fallbacks - before.shard_fallbacks,
        ..Metrics::default()
    }
}

pub fn run(cfg: &RunCfg, tracer: &Tracer) -> Result<Report, String> {
    let (w, arrivals) = match cfg.scale {
        Scale::Full => (W_FULL, ARRIVALS_FULL),
        Scale::Small => (W_SMALL, ARRIVALS_SMALL),
    };
    let mut p = ExperimentParams::paper_dynamic_default(Distribution::AntiCorrelated, cfg.seed);
    p.n = w + arrivals;
    let (table, dags) = generate(&p)?;
    let build = || Ok(setup(&table, &dags, w));
    let (mut s, mut setup_clock) = SetupClock::start(build)?;

    let mut report = Report::new("stream_window", cfg.seed);
    report.stamp("n", p.n);
    report.stamp("dag_seed", DATA_SEED);
    report.stamp("dims", "3 TO + 1 PO");
    report.stamp("distribution", p.dist.short());
    report.stamp(
        "dag_nodes",
        dags.iter()
            .map(|d| d.len().to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    report.stamp("window", w);
    report.outcome("prefill check", brute_check(&s));

    // Arrival samples are the one buffer that grows with the run, by as many
    // arrivals as the machine gets through. Writing all of it up front keeps
    // its reallocations out of `peak_rss_mb`, and makes its resident pages
    // the same on a fast run as on a slow one.
    let reserved = || {
        let mut plain = vec![u64::MAX; ARRIVALS_FULL];
        plain.clear();
        Lat {
            plain,
            traced: Vec::new(),
        }
    };
    let (mut repair, mut insert) = (reserved(), reserved());
    let (mut read, mut prefix) = (Lat::default(), Lat::default());
    let mut work = Acc::default();
    let mut read_sizes: Vec<u64> = Vec::new();
    let mut counts = Metrics::default();
    let mut pace = Pace::new(cfg.seconds, COUNT_ARRIVALS);
    let mut j = 0u64;
    while pace.more() {
        setup_clock.tick(&pace, build)?;
        let traced = cfg.trace && (j / READ_EVERY).is_multiple_of(2);
        tracer.set_enabled(traced);
        let row = (w + j as usize % arrivals) as u32;
        let before = s.metrics();
        let (r, ns) = timed(|| {
            tracer.op("op.arrival", |root| {
                tracer.span("streaming.insert", root, |_| {
                    s.insert(table.to(row), table.po(row));
                })
            });
            Ok(())
        });
        pace.record(ns);
        if r.is_ok() {
            let d = delta(&s.metrics(), &before);
            if d.stream_repairs > 0 {
                repair.push(traced, ns);
            } else {
                insert.push(traced, ns);
            }
            if traced {
                work.add(&d);
            }
            if j < COUNT_ARRIVALS {
                counts = counts.merge(&d);
            }
        }
        report.outcome("arrival", r);

        let phase = j % READ_EVERY;
        if phase == READ_EVERY - 1 {
            let (r, ns) = timed(|| {
                Ok(tracer.op("op.read", |root| {
                    tracer.span("streaming.cursor", root, |_| {
                        let mut c = s.cursor();
                        let mut got = Vec::with_capacity(c.len());
                        while let Some(p) = c.next() {
                            got.push(p.record);
                        }
                        got
                    })
                }))
            });
            pace.record(ns);
            let r = r.and_then(|got| {
                if got == s.skyline_records() {
                    Ok(got.len())
                } else {
                    Err("snapshot differs from the maintained skyline".into())
                }
            });
            if let Ok(len) = &r {
                read.push(traced, ns);
                if traced {
                    read_sizes.push(*len as u64);
                }
            }
            report.outcome("read", r.map(drop));
        } else if phase == READ_EVERY / 2 - 1 {
            let (r, ns) = timed(|| {
                Ok(tracer.op("op.prefix", |root| {
                    tracer.span("streaming.cursor_prefix", root, |_| {
                        let mut c = s.cursor();
                        let k = prefix_k(c.len());
                        c.take_k(k).iter().map(|p| p.record).collect::<Vec<u32>>()
                    })
                }))
            });
            pace.record(ns);
            let r = r.and_then(|got| {
                let sky = s.skyline_records();
                if got.len() != prefix_k(sky.len()).min(sky.len()) {
                    return Err(format!("pulled {} prefix records", got.len()));
                }
                is_prefix(&got, sky)
            });
            if r.is_ok() {
                prefix.push(traced, ns);
            }
            report.outcome("prefix", r);
        }
        if (j + 1).is_multiple_of(CHECK_EVERY) {
            report.outcome("window check", brute_check(&s));
        }
        j += 1;
    }
    tracer.set_enabled(false);
    let setup_s = setup_clock.median_s(build)?;
    let arrival = Lat {
        plain: [&insert.plain[..], &repair.plain[..]].concat(),
        traced: [&insert.traced[..], &repair.traced[..]].concat(),
    };

    report.stamp("skyline", s.skyline_records().len());
    report.stamp("prefix_k", prefix_k(s.skyline_records().len()));
    set_counts(&mut report, &counts);
    if !cfg.trace {
        set_end_to_end(
            &mut report,
            EndToEnd {
                setup_s,
                query: &read,
                prefix: &prefix,
                signature: &repair,
                pace: &pace,
            },
        );
        let busy_s = stats::ratio(pace.ops as f64, pace.ops_per_s());
        report.info(
            "updates_per_s",
            stats::ratio(arrival.plain.len() as f64, busy_s),
            "1/s",
        );
        report.info(
            "update_p99_us",
            stats::percentile(&arrival.plain, 99.0) / 1e3,
            "us",
        );
        report.info("read_p50_us", median(&read.plain) / 1e3, "us");
        report.info(
            "repair_share",
            stats::ratio(repair.plain.len() as f64, arrival.plain.len() as f64),
            "ratio",
        );
        return Ok(report);
    }

    for dag in &dags {
        label_probe(tracer, dag);
    }
    report.set("poset.label_us", label_us(tracer));
    report.set("poset.label_calls", dags.len() as f64);
    let pair = pair_ns(tracer, s.store(), s.domains());
    report.set("store.pair_ns", pair);
    let checks = work.per(|m| m.dominance_checks);
    let insert_ns = median(&tracer.durations("streaming.insert"));
    report.set("store.kernel_share", stats::ratio(checks * pair, insert_ns));
    report.set("executor.retries", work.m.shard_retries as f64);
    report.set("executor.fallbacks", work.m.shard_fallbacks as f64);
    report.set("streaming.inserts", work.m.stream_inserts as f64);
    report.set("streaming.repair_rate", work.per(|m| m.stream_repairs));
    report.set(
        "streaming.candidates_per_repair",
        stats::ratio(
            work.m.repair_candidates as f64,
            work.m.stream_repairs as f64,
        ),
    );
    report.set("streaming.checks_per_update", checks);
    report.set("streaming.skyline_mean", stats::mean(&read_sizes));
    report.set(
        "trace.overhead_pct",
        overhead_pct(&[&arrival, &read, &prefix]),
    );
    report.set("trace.ops", tracer.ops() as f64);

    report.info(
        "streaming.insert_us_p50",
        median(&insert.traced) / 1e3,
        "us",
    );
    report.info(
        "streaming.repair_us_p50",
        median(&repair.traced) / 1e3,
        "us",
    );
    report.info(
        "streaming.snapshot_us",
        median(&tracer.durations("streaming.cursor")) / 1e3,
        "us",
    );
    report.info("streaming.repairs", work.m.stream_repairs as f64, "count");
    Ok(report)
}
