//! `static_anti`: the static sTSS of §IV over anti-correlated data (2 TO +
//! 2 PO, the paper's static DAGs h = 8, d = 0.8) — the largest skylines, so
//! the R-tree traversal, the dominance kernels, the shard planner and the
//! sorted merge do most of their work here.
//!
//! Set-up builds the serial index and one sTSS index per shard of the
//! planner's plan. The client cycles three ops:
//! * `query` — a full serial `Stss::run`;
//! * `prefix` — the first quarter of the skyline off a fresh cursor
//!   (Fig. 11's time to x% of the skyline);
//! * `sharded` — the signature op: plan, per-shard runs on 2 executor
//!   threads, sorted merge.
//!
//! Every answer is checked against SDC+ (`SdcIndex`), an independent
//! engine; every prefix against the engine's own full emission.

use super::*;
use crate::trace::{Span, SpanId};
use datagen::{Distribution, ExperimentParams};
use sdc::{SdcConfig, SdcIndex, Variant};
use std::sync::{Mutex, PoisonError};
use tss_core::parallel::merge_shard_skylines;
use tss_core::{
    sharded_skyline_exec, Budget, ExecPolicy, ParallelRun, ShardPlan, ShardSpec, SkylineCursor,
    Stss, StssConfig, Table,
};

const N_FULL: usize = 30_000;
const N_SMALL: usize = 3_000;

/// Executor threads of the sharded op (the machine's 2 CPUs).
const THREADS: usize = 2;

/// The planner capped at 8 shards, costed for the threads it runs on.
const SPEC: ShardSpec = ShardSpec::Adaptive {
    max: 8,
    workers: THREADS,
};

struct Served {
    stss: Stss,
    plan: ShardPlan,
    shards: Vec<Mutex<Stss>>,
    dags: Vec<Dag>,
}

fn setup(table: &Table, dags: &[Dag]) -> Result<Served, String> {
    let stss = Stss::build(table.clone(), dags.to_vec(), StssConfig::default())
        .map_err(|e| e.to_string())?;
    let plan = SPEC.resolve(stss.table(), stss.domains());
    let shards = stss
        .table()
        .shards(plan.shards)
        .iter()
        .map(|v| {
            Stss::build(v.to_store(), dags.to_vec(), StssConfig::default())
                .map(Mutex::new)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Served {
        stss,
        plan,
        shards,
        dags: dags.to_vec(),
    })
}

/// The sharded op. The plan is resolved here, inside the op, exactly as
/// `sharded_skyline_exec` would resolve the adaptive spec; the prebuilt
/// per-shard indexes must match it.
fn sharded(s: &Served, tracer: &Tracer, root: SpanId) -> Result<ParallelRun, String> {
    let (table, domains) = (s.stss.table(), s.stss.domains());
    let plan = tracer.span("parallel.plan", root, |_| SPEC.resolve(table, domains));
    if plan.shards != s.shards.len() {
        return Err(format!(
            "plan moved from {} to {} shards",
            s.shards.len(),
            plan.shards
        ));
    }
    let (shards, dags) = (&s.shards, &s.dags);
    let mut run = tracer
        .span("executor.sharded_exec", root, |exec| {
            sharded_skyline_exec(
                table,
                domains,
                ShardSpec::Fixed(plan.shards),
                THREADS,
                ExecPolicy::fault_free(),
                Budget::UNLIMITED,
                |ctx, view| {
                    tracer.span("stss.shard_run", exec, |_| {
                        // A run only moves the tree's IO counter, which the
                        // next cursor resets: a poisoned index is still valid.
                        let engine = shards[ctx.shard]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        let r = if ctx.kernel == engine.table().kernel() {
                            engine.run()
                        } else {
                            // The executor's scalar-oracle fallback.
                            Stss::build(
                                view.to_store().with_kernel(ctx.kernel),
                                dags.clone(),
                                StssConfig::default(),
                            )
                            .expect("a shard of a valid table builds")
                            .run()
                        };
                        (r.skyline_records(), r.metrics)
                    })
                },
            )
        })
        .map_err(|e| e.to_string())?;
    // Record the adaptive decision, as the library does for its own.
    run.plan = plan;
    Ok(run)
}

/// Per-layer figures of the traced sharded ops.
#[derive(Default)]
struct Sharded {
    plan: Vec<u64>,
    shard_max: Vec<u64>,
    shard_sum: Vec<u64>,
    merge: Vec<u64>,
    overhead: Vec<f64>,
    work: Acc,
    local: u64,
    global: u64,
    estimated: u64,
}

impl Sharded {
    /// Folds one traced sharded op; replays its merge on the returned
    /// locals under its own span (the merge runs inside the executor call,
    /// where the benchmark cannot put a span).
    fn add(
        &mut self,
        tracer: &Tracer,
        s: &Served,
        run: &ParallelRun,
        spans: &[Span],
    ) -> Result<(), String> {
        let dur = |name: &'static str| spans.iter().filter(move |x| x.name == name).map(Span::dur);
        let op = dur("op.sharded").sum::<u64>();
        let plan = dur("parallel.plan").sum::<u64>();
        let shard_max = dur("stss.shard_run").max().unwrap_or(0);
        let (table, domains) = (s.stss.table(), s.stss.domains());
        let (records, _) = tracer.probe("op.merge_replay", |root| {
            tracer.span("parallel.merge", root, |_| {
                merge_shard_skylines(table, domains, &run.locals, THREADS)
            })
        });
        if records != run.records {
            return Err("merge replay disagrees with the sharded answer".into());
        }
        let merge = tracer
            .last_op()
            .iter()
            .find(|x| x.name == "parallel.merge")
            .map_or(0, Span::dur);
        self.plan.push(plan);
        self.shard_max.push(shard_max);
        self.shard_sum.push(dur("stss.shard_run").sum());
        self.merge.push(merge);
        self.overhead
            .push(op as f64 - plan as f64 - shard_max as f64 - merge as f64);
        self.work.add(&run.metrics());
        self.local += run.locals.iter().map(|l| l.len() as u64).sum::<u64>();
        self.global += run.records.len() as u64;
        self.estimated += run.plan.est_run_checks + run.plan.est_merge_checks;
        Ok(())
    }
}

/// The fixed table with its rows in a seeded order: the same tuples under
/// other record ids, so other shard partitions and tie orders.
fn shuffled(data: &Table, seed: u64) -> Table {
    let mut order: Vec<u32> = (0..data.len() as u32).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut table = Table::new(data.to_dims(), data.po_dims());
    for id in order {
        table.push(data.to(id), data.po(id));
    }
    table
}

pub fn run(cfg: &RunCfg, tracer: &Tracer) -> Result<Report, String> {
    let mut p = ExperimentParams::paper_static_default(Distribution::AntiCorrelated, cfg.seed);
    p.n = match cfg.scale {
        Scale::Full => N_FULL,
        Scale::Small => N_SMALL,
    };
    p.seed = DATA_SEED;
    let (data, dags) = generate(&p)?;
    let table = shuffled(&data, cfg.seed);
    let build = || setup(&table, &dags);
    let (s, mut setup_clock) = SetupClock::start(build)?;
    let reference = sorted(
        SdcIndex::build(
            table.clone(),
            dags.clone(),
            Variant::SdcPlus,
            SdcConfig::default(),
        )
        .map_err(|e| e.to_string())?
        .run()
        .skyline,
    );
    let emission = s.stss.run().skyline_records();
    let k = prefix_k(emission.len());

    let mut report = Report::new("static_anti", cfg.seed);
    report.stamp("n", p.n);
    report.stamp("data_seed", DATA_SEED);
    report.stamp("dims", "2 TO + 2 PO");
    report.stamp("distribution", p.dist.short());
    report.stamp(
        "dag_nodes",
        dags.iter()
            .map(|d| d.len().to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    report.stamp("skyline", emission.len());
    report.stamp("prefix_k", k);
    report.stamp("shards", s.plan.shards);
    report.outcome("reference", same_set(&emission, &reference));

    let (mut query, mut prefix, mut shard_lat) = (Lat::default(), Lat::default(), Lat::default());
    let (mut q_work, mut p_work) = (Acc::default(), Acc::default());
    let mut sharded_layer = Sharded::default();
    let mut counts = Metrics::default();
    let mut pace = Pace::new(cfg.seconds, 3);
    let mut cycle = 0u64;
    while pace.more() {
        setup_clock.tick(&pace, build)?;
        let traced = cfg.trace && cycle.is_multiple_of(2);
        tracer.set_enabled(traced);

        let (r, ns) = timed(|| {
            Ok(tracer.op("op.query", |root| {
                tracer.span("stss.run", root, |_| s.stss.run())
            }))
        });
        pace.record(ns);
        let r =
            r.and_then(|run| same_set(&run.skyline_records(), &reference).map(|()| run.metrics));
        if let Ok(m) = &r {
            query.push(traced, ns);
            if traced {
                q_work.add(m);
            }
            if cycle == 0 {
                counts = counts.merge(m);
            }
        }
        report.outcome("query", r.map(drop));

        let (r, ns) = timed(|| {
            Ok(tracer.op("op.prefix", |root| {
                tracer.span("stss.cursor", root, |_| {
                    let mut c = s.stss.cursor();
                    let got: Vec<u32> = c.take_k(k).iter().map(|p| p.record).collect();
                    (got, c.metrics())
                })
            }))
        });
        pace.record(ns);
        let r = r.and_then(|(got, m)| is_prefix(&got, &emission[..k]).map(|()| m));
        if let Ok(m) = &r {
            prefix.push(traced, ns);
            if traced {
                p_work.add(m);
            }
            if cycle == 0 {
                counts = counts.merge(m);
            }
        }
        report.outcome("prefix", r.map(drop));

        let (r, ns) = timed(|| tracer.op("op.sharded", |root| sharded(&s, tracer, root)));
        pace.record(ns);
        let spans = if traced { tracer.last_op() } else { Vec::new() };
        let r = r.and_then(|run| {
            same_set(&run.records, &reference)?;
            if traced {
                sharded_layer.add(tracer, &s, &run, &spans)?;
            }
            Ok(run)
        });
        if let Ok(run) = &r {
            shard_lat.push(traced, ns);
            if cycle == 0 {
                counts = counts.merge(&run.metrics());
            }
        }
        report.outcome("sharded", r.map(drop));
        cycle += 1;
    }
    tracer.set_enabled(false);
    let setup_s = setup_clock.median_s(build)?;

    set_counts(&mut report, &counts);
    if !cfg.trace {
        set_end_to_end(
            &mut report,
            EndToEnd {
                setup_s,
                query: &query,
                prefix: &prefix,
                signature: &shard_lat,
                pace: &pace,
            },
        );
        report.info("sharded_p50_ms", median(&shard_lat.plain) / 1e6, "ms");
        return Ok(report);
    }

    for dag in &dags {
        label_probe(tracer, dag);
    }
    report.set("poset.label_us", label_us(tracer));
    report.set("poset.label_calls", dags.len() as f64);
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
    let pair = pair_ns(tracer, s.stss.table(), s.stss.domains());
    report.set("store.pair_ns", pair);
    let query_ns = median(&tracer.durations("stss.run"));
    report.set("store.kernel_share", stats::ratio(checks * pair, query_ns));
    report.set("stss.skyline", emission.len() as f64);

    let sh = &sharded_layer;
    report.set("parallel.shards", s.plan.shards as f64);
    report.set(
        "parallel.merge_pair_checks",
        sh.work.per(|m| m.merge_pair_checks),
    );
    report.set("parallel.merge_strata", sh.work.per(|m| m.merge_strata));
    report.set(
        "parallel.local_to_global",
        stats::ratio(sh.local as f64, sh.global as f64),
    );
    report.set(
        "parallel.est_error",
        stats::ratio(sh.estimated as f64, sh.work.m.dominance_checks as f64),
    );
    report.set("executor.retries", sh.work.m.shard_retries as f64);
    report.set("executor.fallbacks", sh.work.m.shard_fallbacks as f64);
    report.set(
        "trace.overhead_pct",
        overhead_pct(&[&query, &prefix, &shard_lat]),
    );
    report.set("trace.ops", tracer.ops() as f64);

    report.info("stss.query_ms", query_ns / 1e6, "ms");
    report.info(
        "stss.prefix_ms",
        median(&tracer.durations("stss.cursor")) / 1e6,
        "ms",
    );
    report.info("parallel.plan_ms", median(&sh.plan) / 1e6, "ms");
    report.info("parallel.shard_ms_max", median(&sh.shard_max) / 1e6, "ms");
    report.info("parallel.shard_ms_sum", median(&sh.shard_sum) / 1e6, "ms");
    report.info("parallel.merge_ms", median(&sh.merge) / 1e6, "ms");
    let mut overhead = sh.overhead.clone();
    overhead.sort_by(f64::total_cmp);
    let mid = overhead
        .get(overhead.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0);
    report.info("executor.overhead_ms", mid / 1e6, "ms");
    report.info("parallel.sharded_ops_traced", sh.work.n as f64, "count");
    Ok(report)
}
