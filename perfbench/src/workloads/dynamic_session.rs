//! `dynamic_session`: the dynamic dTSS of §V over independent data (3 TO +
//! 1 PO, the paper's largest DAG height h = 10, so labeling is a visible
//! part of a cold query), served through one `QuerySession`.
//!
//! The client issues a seeded sequence of preference orders drawn from a
//! fixed pool of [`POOL`] permutations of the data DAG. Every [`COLD_EVERY`]-th op brings a
//! first-seen order until [`POOL`] orders have been seen; the others repeat an order already seen, chosen
//! uniformly, so the earliest orders are the most popular. Ops alternate
//! `query` (`QuerySession::query`) and `prefix` (the first quarter off
//! `QuerySession::cursor`). First sightings always land on `query` ops, and
//! those cold queries are the signature op.
//!
//! Each new order's answer is checked against `DynamicSdc`, an independent
//! engine, at its first sighting; every prefix against the engine's own
//! full emission for that order.

use super::*;
use datagen::{Distribution, ExperimentParams};
use sdc::{DynamicSdc, SdcConfig};
use tss_core::{Dtss, DtssConfig, PoQuery, QuerySession, SkylineCursor};

const N_FULL: usize = 100_000;
const N_SMALL: usize = 3_000;
const HEIGHT_FULL: u32 = 10;
const HEIGHT_SMALL: u32 = 6;

/// One op in this many introduces a first-seen order, until the pool of
/// [`POOL`] orders is exhausted.
const COLD_EVERY: u64 = 4;

/// Distinct orders per run: enough that a run's medians average over
/// many orders, few enough that memory and reference checks level off.
const POOL: usize = 64;

/// The exact work counters cover this many leading ops.
const COUNT_OPS: u64 = 16;

struct Order {
    query: PoQuery,
    emission: Vec<u32>,
    reference: Vec<u32>,
}

/// The data DAG with its node identities permuted: the same shape (height,
/// density), every preference changed — what a user-specified order does
/// in §VI-C.
fn permuted(dag: &Dag, seed: u64) -> Result<Dag, String> {
    let n = dag.len();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let edges: Vec<(u32, u32)> = dag
        .edges()
        .map(|(u, v)| (perm[u.idx()], perm[v.idx()]))
        .collect();
    let labels = (0..n).map(|i| format!("q{i}")).collect();
    Dag::from_labeled(labels, &edges).map_err(|e| format!("{e:?}"))
}

pub fn run(cfg: &RunCfg, tracer: &Tracer) -> Result<Report, String> {
    let mut p = ExperimentParams::paper_dynamic_default(Distribution::Independent, cfg.seed);
    (p.n, p.dag_height) = match cfg.scale {
        Scale::Full => (N_FULL, HEIGHT_FULL),
        Scale::Small => (N_SMALL, HEIGHT_SMALL),
    };
    p.seed = DATA_SEED;
    let (table, dags) = generate(&p)?;
    let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
    let build = || {
        Dtss::build(table.clone(), sizes.clone(), DtssConfig::default()).map_err(|e| e.to_string())
    };
    let (dtss, mut setup_clock) = SetupClock::start(build)?;
    let dsdc = DynamicSdc::new(table.clone(), SdcConfig::default());
    let mut session = QuerySession::new(&dtss);

    let mut report = Report::new("dynamic_session", cfg.seed);
    report.stamp("n", p.n);
    report.stamp("data_seed", DATA_SEED);
    report.stamp("dims", "3 TO + 1 PO");
    report.stamp("distribution", p.dist.short());
    report.stamp("dag_height", p.dag_height);
    report.stamp(
        "dag_nodes",
        dags.iter()
            .map(|d| d.len().to_string())
            .collect::<Vec<_>>()
            .join(","),
    );

    // The pool is fixed like the data; the seed decides the order in which
    // its members are first seen and which one each repeat picks.
    let mut pick = SplitMix::new(cfg.seed ^ 0x5E55_1011);
    let mut sighting: Vec<usize> = (0..POOL).collect();
    for i in (1..POOL).rev() {
        let j = (pick.next_u64() % (i as u64 + 1)) as usize;
        sighting.swap(i, j);
    }
    let mut orders: Vec<Order> = Vec::new();
    let (mut query, mut prefix, mut cold) = (Lat::default(), Lat::default(), Lat::default());
    let (mut q_work, mut p_work) = (Acc::default(), Acc::default());
    let mut counts = Metrics::default();
    let mut pace = Pace::new(cfg.seconds, COUNT_OPS);
    let mut i = 0u64;
    while pace.more() {
        setup_clock.tick(&pace, build)?;
        let traced = cfg.trace && (i / COLD_EVERY).is_multiple_of(2);
        tracer.set_enabled(traced);
        let idx = if i.is_multiple_of(COLD_EVERY) && orders.len() < POOL {
            // A first sighting: its reference and the engine's own full
            // emission are computed here, outside the timed op.
            let order_seed = DATA_SEED
                .wrapping_mul(1_000_003)
                .wrapping_add(sighting[orders.len()] as u64);
            let q = PoQuery::new(
                dags.iter()
                    .enumerate()
                    .map(|(d, dag)| permuted(dag, order_seed.wrapping_add(d as u64) << 8))
                    .collect::<Result<Vec<_>, _>>()?,
            );
            let emission = dtss.query(&q).map_err(|e| e.to_string())?.skyline_records();
            let reference = sorted(dsdc.query(q.dags()).map_err(|e| e.to_string())?.skyline);
            report.outcome("reference", same_set(&emission, &reference));
            if cfg.trace {
                for dag in q.dags() {
                    label_probe(tracer, dag);
                }
            }
            orders.push(Order {
                query: q,
                emission,
                reference,
            });
            orders.len() - 1
        } else {
            let u = pick.unit();
            ((orders.len() as f64 * u) as usize).min(orders.len() - 1)
        };
        let order = &orders[idx];

        if i.is_multiple_of(2) {
            let (r, ns) = timed(|| {
                tracer
                    .op("op.query", |root| {
                        tracer.span("dtss.session_query", root, |_| session.query(&order.query))
                    })
                    .map_err(|e| e.to_string())
            });
            pace.record(ns);
            let r = r.and_then(|run| {
                same_set(&run.skyline_records(), &order.reference).map(|()| run.metrics)
            });
            if let Ok(m) = &r {
                query.push(traced, ns);
                if m.label_cache_misses > 0 {
                    cold.push(traced, ns);
                }
                if traced {
                    q_work.add(m);
                }
                if i < COUNT_OPS {
                    counts = counts.merge(m);
                }
            }
            report.outcome("query", r.map(drop));
        } else {
            let k = prefix_k(order.emission.len());
            let (r, ns) = timed(|| {
                tracer.op("op.prefix", |root| {
                    tracer.span("dtss.session_cursor", root, |_| {
                        let mut c = session.cursor(&order.query).map_err(|e| e.to_string())?;
                        let got: Vec<u32> = c.take_k(k).iter().map(|p| p.record).collect();
                        Ok((got, c.metrics()))
                    })
                })
            });
            pace.record(ns);
            let r = r.and_then(|(got, m)| {
                if got.len() != k.min(order.emission.len()) {
                    return Err(format!("pulled {} of {k} prefix records", got.len()));
                }
                is_prefix(&got, &order.emission).map(|()| m)
            });
            if let Ok(m) = &r {
                prefix.push(traced, ns);
                if traced {
                    p_work.add(m);
                }
                if i < COUNT_OPS {
                    counts = counts.merge(m);
                }
            }
            report.outcome("prefix", r.map(drop));
        }
        i += 1;
    }
    tracer.set_enabled(false);
    let setup_s = setup_clock.median_s(build)?;

    let skyline: Vec<u64> = orders.iter().map(|o| o.emission.len() as u64).collect();
    report.stamp("skyline_mean", stats::mean(&skyline));
    report.stamp(
        "prefix_k_mean",
        stats::mean(
            &skyline
                .iter()
                .map(|&s| prefix_k(s as usize) as u64)
                .collect::<Vec<_>>(),
        ),
    );
    report.stamp("pool_size", orders.len());
    report.stamp(
        "cold_share_of_ops",
        stats::ratio(
            cold.plain.len() as f64 + cold.traced.len() as f64,
            (query.plain.len() + query.traced.len() + prefix.plain.len() + prefix.traced.len())
                as f64,
        ),
    );
    set_counts(&mut report, &counts);
    if !cfg.trace {
        set_end_to_end(
            &mut report,
            EndToEnd {
                setup_s,
                query: &query,
                prefix: &prefix,
                signature: &cold,
                pace: &pace,
            },
        );
        report.info("cold_query_p50_ms", median(&cold.plain) / 1e6, "ms");
        return Ok(report);
    }

    report.set("poset.label_us", label_us(tracer));
    report.set("poset.label_calls", (orders.len() * dags.len()) as f64);
    let (hits, misses) = (
        q_work.m.label_cache_hits + p_work.m.label_cache_hits,
        q_work.m.label_cache_misses + p_work.m.label_cache_misses,
    );
    report.set(
        "session.hit_ratio",
        stats::ratio(hits as f64, (hits + misses) as f64),
    );
    report.set("session.lookups", (hits + misses) as f64);
    report.set("session.misses", misses as f64);
    report.set("rtree.reads_per_query", q_work.per(|m| m.io_reads));
    report.set("rtree.pops_per_query", q_work.per(|m| m.heap_pops));
    report.set("rtree.reads_per_prefix", p_work.per(|m| m.io_reads));
    let checks = q_work.per(|m| m.dominance_checks);
    report.set("store.checks_per_query", checks);
    report.set(
        "store.batch_calls_per_query",
        q_work.per(|m| m.dominance_batch_calls),
    );
    report.set("store.chunks_per_query", q_work.per(|m| m.kernel_chunks));
    let domains: Vec<PoDomain> = dags.iter().cloned().map(PoDomain::new).collect();
    let pair = pair_ns(tracer, dtss.table(), &domains);
    report.set("store.pair_ns", pair);
    let query_ns = median(&tracer.durations("dtss.session_query"));
    report.set("store.kernel_share", stats::ratio(checks * pair, query_ns));
    report.set("dtss.checks_per_query", checks);
    report.set("dtss.skyline_mean", q_work.per(|m| m.results));
    report.set("trace.overhead_pct", overhead_pct(&[&query, &prefix]));
    report.set("trace.ops", tracer.ops() as f64);

    report.info("dtss.query_ms", query_ns / 1e6, "ms");
    report.info(
        "dtss.prefix_ms",
        median(&tracer.durations("dtss.session_cursor")) / 1e6,
        "ms",
    );
    report.info("dtss.cold_query_ms", median(&cold.traced) / 1e6, "ms");
    Ok(report)
}
