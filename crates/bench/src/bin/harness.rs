//! Regenerates every table and figure of the paper's evaluation (§VI) as
//! text tables.
//!
//! ```text
//! cargo run --release -p bench --bin harness -- all        # everything
//! cargo run --release -p bench --bin harness -- fig7       # one figure
//! TSS_FULL_SCALE=1 cargo run --release -p bench --bin harness -- fig7
//! ```
//!
//! Absolute numbers differ from the paper's 2009 testbed; the *shapes* —
//! who wins, by what factor, and how gaps grow with each parameter — are
//! the reproduction targets.

use bench::params;
use bench::report::{comparison_cells, comparison_header, TextTable};
use bench::runner::{
    dtss_time_to_k, generate, progressive_sdc_plus, progressive_stss, run_dtss, run_dynamic_sdc,
    run_sdc_plus, run_stss, sdc_plus_time_to_k, stss_time_to_k,
};
use datagen::{Distribution, ExperimentParams};
use tss_core::{CostModel, DtssConfig, StssConfig};

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    // Hidden worker entry: under `TSS_EXECUTOR=subprocess` the sharded
    // runners re-exec this binary with `tss-worker` and speak the frame
    // protocol over stdin/stdout. Handled before anything that could
    // write to stdout, which belongs to the supervisor.
    if cmd == "tss-worker" {
        if let Err(e) = bench::ipcbench::serve_worker() {
            eprintln!("tss-worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let t0 = std::time::Instant::now();
    match cmd.as_str() {
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "fig14" => fig14(),
        "ablations" => ablations(),
        "cursors" => cursors(),
        "smoke" => smoke(),
        "bench" => bench_json(&std::env::args().skip(2).collect::<Vec<_>>()),
        "all" => {
            fig7();
            fig8();
            fig9();
            fig10();
            fig11();
            fig12();
            fig13();
            fig14();
            ablations();
            cursors();
        }
        other => {
            eprintln!(
                "unknown figure {other:?}; expected fig7..fig14, ablations, cursors, smoke, \
                 bench or all"
            );
            std::process::exit(2);
        }
    }
    eprintln!("[harness completed in {:?}]", t0.elapsed());
}

fn model() -> CostModel {
    CostModel::default()
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
    if !params::full_scale() {
        println!("(laptop scale; TSS_FULL_SCALE=1 restores Table III values)");
    }
}

/// Fig. 7: static total time vs. data cardinality.
fn fig7() {
    for dist in params::distributions() {
        banner(&format!(
            "Fig 7 — static: total time vs N ({})",
            dist.short()
        ));
        let mut t = TextTable::new(&comparison_header("N"));
        for n in params::cardinalities() {
            let mut p = params::static_params(dist, 42);
            p.n = n;
            let w = generate(&p);
            let sdc = run_sdc_plus(&w);
            let tss = run_stss(&w, StssConfig::default());
            assert_eq!(sdc.skyline, tss.skyline);
            t.row(comparison_cells(n.to_string(), &sdc, &tss, model()));
        }
        print!("{}", t.render());
    }
}

/// Fig. 8: static total time vs. dimensionality.
fn fig8() {
    for dist in params::distributions() {
        banner(&format!(
            "Fig 8 — static: total time vs (|TO|,|PO|) ({})",
            dist.short()
        ));
        let mut t = TextTable::new(&comparison_header("dims"));
        for (to_d, po_d) in params::dimensionalities() {
            let mut p = params::static_params(dist, 42);
            p.to_dims = to_d;
            p.po_dims = po_d;
            let w = generate(&p);
            let sdc = run_sdc_plus(&w);
            let tss = run_stss(&w, StssConfig::default());
            assert_eq!(sdc.skyline, tss.skyline);
            t.row(comparison_cells(
                format!("({to_d},{po_d})"),
                &sdc,
                &tss,
                model(),
            ));
        }
        print!("{}", t.render());
    }
}

/// Fig. 9: static total time vs. DAG height.
fn fig9() {
    for dist in params::distributions() {
        banner(&format!(
            "Fig 9 — static: total time vs DAG height ({})",
            dist.short()
        ));
        let mut t = TextTable::new(&comparison_header("h"));
        for h in params::heights() {
            let mut p = params::static_params(dist, 42);
            p.dag_height = h;
            let w = generate(&p);
            let sdc = run_sdc_plus(&w);
            let tss = run_stss(&w, StssConfig::default());
            assert_eq!(sdc.skyline, tss.skyline);
            t.row(comparison_cells(h.to_string(), &sdc, &tss, model()));
        }
        print!("{}", t.render());
    }
}

/// Fig. 10: static total time vs. DAG density.
fn fig10() {
    for dist in params::distributions() {
        banner(&format!(
            "Fig 10 — static: total time vs DAG density ({})",
            dist.short()
        ));
        let mut t = TextTable::new(&comparison_header("d"));
        for d in params::densities() {
            let mut p = params::static_params(dist, 42);
            p.dag_density = d;
            let w = generate(&p);
            let sdc = run_sdc_plus(&w);
            let tss = run_stss(&w, StssConfig::default());
            assert_eq!(sdc.skyline, tss.skyline);
            t.row(comparison_cells(format!("{d:.1}"), &sdc, &tss, model()));
        }
        print!("{}", t.render());
    }
}

/// Fig. 11: progressiveness — simulated time to retrieve x% of the skyline.
fn fig11() {
    for dist in params::distributions() {
        banner(&format!(
            "Fig 11 — static: progressiveness ({})",
            dist.short()
        ));
        let mut p = params::static_params(dist, 42);
        p.n = params::progressive_n();
        let w = generate(&p);
        let (tss_s, tss_m) = progressive_stss(&w);
        let (sdc_s, sdc_m) = progressive_sdc_plus(&w);
        assert_eq!(tss_s.len(), sdc_s.len());
        let total = tss_s.len();
        println!("skyline size: {total}");
        let mut t = TextTable::new(&["results %", "SDC+ (s)", "TSS (s)", "speedup"]);
        for pct in (10..=100).step_by(10) {
            let ix = ((total * pct).div_ceil(100)).clamp(1, total) - 1;
            let (a, b) = (
                sdc_s[ix].elapsed_total(model()).as_secs_f64(),
                tss_s[ix].elapsed_total(model()).as_secs_f64(),
            );
            t.row(vec![
                format!("{pct}"),
                format!("{a:.3}"),
                format!("{b:.3}"),
                format!("{:.2}x", a / b.max(1e-9)),
            ]);
        }
        print!("{}", t.render());
        println!(
            "totals: SDC+ {} reads / {} checks; TSS {} reads / {} checks",
            sdc_m.io_reads, sdc_m.dominance_checks, tss_m.io_reads, tss_m.dominance_checks
        );
    }
}

/// Shared body of the dynamic sweeps: averages a few query orders.
fn dynamic_point(p: &ExperimentParams) -> (bench::runner::AlgoResult, bench::runner::AlgoResult) {
    let w = generate(p);
    let seeds = [11u64, 22, 33];
    let mut sdc_sum = tss_core::Metrics::default();
    let mut tss_sum = tss_core::Metrics::default();
    let mut sky = 0usize;
    for &s in &seeds {
        let a = run_dynamic_sdc(&w, s);
        let b = run_dtss(&w, s, params::paper_dtss());
        assert_eq!(a.skyline, b.skyline);
        sky = b.skyline;
        sdc_sum = sdc_sum.merge(&a.metrics);
        tss_sum = tss_sum.merge(&b.metrics);
    }
    let div = |mut m: tss_core::Metrics| {
        for c in m.counters_mut() {
            *c /= seeds.len() as u64;
        }
        m.cpu /= seeds.len() as u32;
        m
    };
    (
        bench::runner::AlgoResult {
            name: "SDC+",
            metrics: div(sdc_sum),
            skyline: sky,
            records: None, // averaged over seeds
            plan: None,
        },
        bench::runner::AlgoResult {
            name: "TSS",
            metrics: div(tss_sum),
            skyline: sky,
            records: None, // averaged over seeds
            plan: None,
        },
    )
}

/// Fig. 12: dynamic total time vs. data cardinality.
fn fig12() {
    for dist in params::distributions() {
        banner(&format!(
            "Fig 12 — dynamic: total time vs N ({})",
            dist.short()
        ));
        let mut t = TextTable::new(&comparison_header("N"));
        for n in params::cardinalities() {
            let mut p = params::dynamic_params(dist, 42);
            p.n = n;
            let (sdc, tss) = dynamic_point(&p);
            t.row(comparison_cells(n.to_string(), &sdc, &tss, model()));
        }
        print!("{}", t.render());
    }
}

/// Fig. 13: dynamic total time vs. dimensionality.
fn fig13() {
    for dist in params::distributions() {
        banner(&format!(
            "Fig 13 — dynamic: total time vs (|TO|,|PO|) ({})",
            dist.short()
        ));
        let mut t = TextTable::new(&comparison_header("dims"));
        for (to_d, po_d) in params::dimensionalities() {
            let mut p = params::dynamic_params(dist, 42);
            p.to_dims = to_d;
            p.po_dims = po_d;
            let (sdc, tss) = dynamic_point(&p);
            t.row(comparison_cells(
                format!("({to_d},{po_d})"),
                &sdc,
                &tss,
                model(),
            ));
        }
        print!("{}", t.render());
    }
}

/// Fig. 14: dynamic total time vs. DAG structure (Anti-correlated).
fn fig14() {
    let dist = Distribution::AntiCorrelated;
    banner("Fig 14(a) — dynamic: total time vs DAG height (anti)");
    let mut t = TextTable::new(&comparison_header("h"));
    for h in params::heights() {
        let mut p = params::dynamic_params(dist, 42);
        p.dag_height = h;
        let (sdc, tss) = dynamic_point(&p);
        t.row(comparison_cells(h.to_string(), &sdc, &tss, model()));
    }
    print!("{}", t.render());

    banner("Fig 14(b) — dynamic: total time vs DAG density (anti)");
    let mut t = TextTable::new(&comparison_header("d"));
    for d in params::densities() {
        let mut p = params::dynamic_params(dist, 42);
        p.dag_density = d;
        let (sdc, tss) = dynamic_point(&p);
        t.row(comparison_cells(format!("{d:.1}"), &sdc, &tss, model()));
    }
    print!("{}", t.render());
}

/// Pull-based consumption: time-to-first-result and time-to-k measured
/// directly off live [`tss_core::SkylineCursor`]s — the serving-path view
/// of Fig. 11's progressiveness claim. TSS confirms its prefix on a
/// fraction of SDC+'s work because precedence lets it stop mid-traversal.
fn cursors() {
    let k = 10usize;
    for dist in params::distributions() {
        banner(&format!(
            "Cursors — static: time to first / to k={k} ({})",
            dist.short()
        ));
        let mut p = params::static_params(dist, 42);
        p.n = params::progressive_n();
        let w = generate(&p);
        let mut t = TextTable::new(&[
            "engine",
            "first (s)",
            &format!("k={k} (s)"),
            "reads@first",
            &format!("reads@{k}"),
        ]);
        for timings in [
            sdc_plus_time_to_k(&w, k),
            stss_time_to_k(&w, StssConfig::default(), k),
        ] {
            t.row(vec![
                timings.name.to_string(),
                format!("{:.3}", timings.time_to_first(model())),
                format!("{:.3}", timings.time_to_k(model())),
                timings.first.io_reads.to_string(),
                timings.at_k.io_reads.to_string(),
            ]);
        }
        print!("{}", t.render());
    }
    banner(&format!(
        "Cursors — dynamic: time to first / to k={k} (indep)"
    ));
    let p = params::dynamic_params(Distribution::Independent, 42);
    let w = generate(&p);
    let timings = dtss_time_to_k(&w, 11, params::paper_dtss(), k);
    println!(
        "dTSS: first {:.3}s ({} reads) -> k={} {:.3}s ({} reads)",
        timings.time_to_first(model()),
        timings.first.io_reads,
        timings.pulled,
        timings.time_to_k(model()),
        timings.at_k.io_reads,
    );
}

/// CI smoke: one tiny parameter point through every measurement path —
/// static, dynamic, progressive and cursor — with the cross-engine
/// agreement assertions on. Finishes in seconds.
fn smoke() {
    banner("Smoke — tiny grid across every path");
    let mut p = ExperimentParams::paper_static_default(Distribution::Independent, 7);
    p.n = 2000;
    p.dag_height = 4;
    let w = generate(&p);
    let sdc = run_sdc_plus(&w);
    let tss = run_stss(&w, StssConfig::default());
    assert_eq!(sdc.skyline, tss.skyline, "static engines must agree");
    println!(
        "static n={}: skyline {} | SDC+ {:.3}s vs TSS {:.3}s",
        p.n,
        tss.skyline,
        sdc.total_secs(model()),
        tss.total_secs(model())
    );
    let (t_samples, _) = progressive_stss(&w);
    assert_eq!(t_samples.len(), tss.skyline, "one sample per result");
    let k = 5.min(tss.skyline);
    let prefix = stss_time_to_k(&w, StssConfig::default(), k);
    assert_eq!(prefix.pulled, k);
    assert!(
        prefix.at_k.io_reads <= tss.metrics.io_reads,
        "a k-prefix must not read more than the full run"
    );
    println!(
        "cursor: first result after {} reads, k={} after {} reads (full run {})",
        prefix.first.io_reads, k, prefix.at_k.io_reads, tss.metrics.io_reads
    );

    let mut p = ExperimentParams::paper_dynamic_default(Distribution::Independent, 7);
    p.n = 2000;
    p.dag_height = 4;
    let wd = generate(&p);
    let a = run_dtss(&wd, 5, DtssConfig::default());
    let b = run_dynamic_sdc(&wd, 5);
    assert_eq!(a.skyline, b.skyline, "dynamic engines must agree");
    let d_prefix = dtss_time_to_k(&wd, 5, DtssConfig::default(), 5);
    assert!(d_prefix.pulled > 0, "dynamic cursor must stream");
    println!(
        "dynamic n={}: skyline {} | dTSS {:.3}s vs rebuild-SDC+ {:.3}s | cursor first after {} reads",
        p.n,
        a.skyline,
        a.total_secs(model()),
        b.total_secs(model()),
        d_prefix.first.io_reads
    );
    println!("smoke OK");
}

/// `harness bench --json [--smoke] [--stream] [--threads N[,N…]]
/// [--out FILE]`: the fixed perf-trajectory grid (see
/// [`bench::jsonbench`]), written as JSON rows to stdout or `FILE`.
/// `--stream` switches to the streaming-maintenance grid (see
/// [`bench::streambench`]): sliding-window maintained skylines measured
/// while a snapshot cursor serves reads, with updates/sec, time-to-repair
/// percentiles and the maintained-vs-recompute check columns per row.
/// Streaming repairs run serially, so `--stream` takes no `--threads`
/// (a usage error); the committed `BENCH_PR9.json` is a full-scale run of
/// this subcommand from when repairs were sharded across worker threads
/// (its rows also carry that design's worker and chunk counts, and the
/// same `available_parallelism: 1` caveat as the earlier artifacts).
/// `--threads` re-runs every grid point through
/// the sharded parallel executors once per listed worker count (one shard
/// plan per workload, so all rows but `wall_ns` are asserted identical
/// across counts). The shard plan comes from the `BENCH_SHARDS`
/// environment variable — set it for a fixed count, leave it unset for
/// one shard per available core, capped at 8; either way the first
/// worker count is cross-checked byte-for-byte against the other plan
/// while measuring.
/// The committed `BENCH_PR5.json` and `BENCH_PR7.json` are full-grid
/// `--threads 1,2,4` runs of this subcommand under the sampling planner
/// this repository used to ship (`BENCH_PR4.json` is their fixed-8-shard,
/// all-pairs-merge predecessor); they record that planner's estimates
/// and a per-pair-check calibration that rows no longer carry (machine
/// caveats stay machine-checkable: rows with `available_parallelism: 1`
/// prove determinism, not speedup).
fn bench_json(args: &[String]) {
    let mut smoke = false;
    let mut stream = false;
    let mut out: Option<String> = None;
    let mut threads: Vec<usize> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {} // the only supported format; accepted for clarity
            "--smoke" => smoke = true,
            "--stream" => stream = true,
            "--threads" => {
                let list = it.next().unwrap_or_else(|| {
                    eprintln!("--threads requires N or a comma list like 1,2,4");
                    std::process::exit(2);
                });
                threads = list
                    .split(',')
                    .map(|s| {
                        let n = s.trim().parse::<usize>().unwrap_or(0);
                        if n == 0 {
                            eprintln!(
                                "--threads: {s:?} is not a worker count (>= 1; serial rows \
                                 are always emitted)"
                            );
                            std::process::exit(2);
                        }
                        n
                    })
                    .collect();
            }
            "--out" => {
                out = Some(
                    it.next()
                        .unwrap_or_else(|| {
                            eprintln!("--out requires a path");
                            std::process::exit(2);
                        })
                        .clone(),
                );
            }
            other => {
                eprintln!(
                    "unknown bench flag {other:?}; expected --json, --smoke, --stream, \
                     --threads LIST, --out FILE"
                );
                std::process::exit(2);
            }
        }
    }
    if stream && !threads.is_empty() {
        eprintln!("--threads does not apply to --stream: streaming repairs run serially");
        std::process::exit(2);
    }
    let (json, rows) = if stream {
        let rows = bench::streambench::stream_grid(smoke);
        (bench::streambench::stream_to_json(&rows), rows.len())
    } else {
        let rows = bench::jsonbench::grid(smoke, &threads, bench::runner::bench_shard_spec());
        (bench::jsonbench::to_json(&rows), rows.len())
    };
    match out {
        Some(path) => {
            std::fs::write(&path, json).expect("writable --out path");
            eprintln!("[bench grid written to {path} ({rows} rows)]");
        }
        None => print!("{json}"),
    }
}

/// Ablation over the paper's optional dTSS design choice (§V-B local
/// skylines): the paper's configuration against the default.
fn ablations() {
    banner("Ablation — dTSS optimizations (independent, defaults, 1 query)");
    let p = params::dynamic_params(Distribution::Independent, 42);
    let w = generate(&p);
    let mut t = TextTable::new(&["configuration", "total (s)", "checks", "reads"]);
    for (name, cfg) in [
        ("paper default (plain)", params::paper_dtss()),
        (
            "local skylines",
            DtssConfig {
                precompute_local: true,
                ..Default::default()
            },
        ),
    ] {
        let r = run_dtss(&w, 11, cfg);
        t.row(vec![
            name.to_string(),
            format!("{:.3}", r.total_secs(model())),
            r.metrics.dominance_checks.to_string(),
            r.metrics.io_reads.to_string(),
        ]);
    }
    print!("{}", t.render());
}
