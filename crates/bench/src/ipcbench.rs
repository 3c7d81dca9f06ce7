//! Out-of-process execution for the bench grid: the `TSS_EXECUTOR` axis.
//!
//! The sharded runners in [`crate::runner`] evaluate their shards through
//! the [`tss_core::ShardExecutor`] seam, so swapping the in-process
//! [`tss_core::ThreadShardExecutor`] for the supervised
//! [`tss_core::SubprocessExecutor`] is a policy decision, not a rewrite.
//! This module supplies the two halves that decision needs:
//!
//! * **engine task codecs** (tags [`TASK_STSS`]..[`TASK_DYNAMIC_SDC`],
//!   disjoint from the builtin codecs of `tss_core::ipc::tasks`): a shard's
//!   wire payload carries its global start offset, its record window, the
//!   data DAGs, and — for the dynamic engines — the query seed, from which
//!   a worker process rebuilds the exact engine the in-process closure
//!   would have built (default configs, the request's kernel) and runs it.
//!   Both sides construct the engine from the same blocks and run the same
//!   deterministic code, so records and counters are byte-identical across
//!   executors — the property the CI subprocess smoke diff enforces.
//! * **environment knobs**: `TSS_EXECUTOR=inproc|subprocess` picks the
//!   executor of the sharded bench rows (unset → in-process), and
//!   `TSS_DEADLINE_MS` overrides the supervisor's per-attempt deadline.
//!   Both are read per call, like `BENCH_SHARDS`, so tests probe the pure
//!   mappings without mutating the process environment.
//!
//! The harness binary hides the matching worker entry behind a
//! `tss-worker` sentinel argument ([`serve_worker`] composes these codecs
//! with the builtin ones), and the runners re-exec the current binary
//! with that argument — no second binary to ship or locate.

use crate::runner::permuted_order;
use poset::Dag;
use sdc::{DynamicSdc, SdcConfig, SdcIndex, Variant};
use std::time::Duration;
use tss_core::ipc::protocol::{
    get_dags, get_window, put_dags, put_u32, put_u64, put_window, Reader,
};
use tss_core::ipc::tasks::dispatch_builtin;
use tss_core::ipc::worker::serve_io;
use tss_core::{Dtss, DtssConfig, Metrics, PoQuery, ShardCtx, ShardView, Stss, StssConfig};

/// Wire tag of a sharded sTSS run (build the index, emit the skyline).
pub const TASK_STSS: u8 = 16;
/// Wire tag of a sharded SDC+ run.
pub const TASK_SDC_PLUS: u8 = 17;
/// Wire tag of a sharded dTSS dynamic query (payload adds the query seed).
pub const TASK_DTSS: u8 = 18;
/// Wire tag of a sharded rebuild-SDC+ dynamic query.
pub const TASK_DYNAMIC_SDC: u8 = 19;

/// Which [`tss_core::ShardExecutor`] the sharded bench rows run through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorChoice {
    /// Scoped threads in this process ([`tss_core::ThreadShardExecutor`]).
    InProc,
    /// A supervised pool of re-exec'd worker processes
    /// ([`tss_core::SubprocessExecutor`]).
    Subprocess,
}

impl ExecutorChoice {
    /// Row label (`"inproc"` / `"subprocess"`).
    pub fn name(self) -> &'static str {
        match self {
            ExecutorChoice::InProc => "inproc",
            ExecutorChoice::Subprocess => "subprocess",
        }
    }
}

/// The executor the bench grid runs its sharded rows through, from the
/// `TSS_EXECUTOR` environment variable (unset → in-process).
pub fn bench_executor() -> ExecutorChoice {
    executor_from(std::env::var("TSS_EXECUTOR").ok().as_deref())
}

/// The pure mapping behind [`bench_executor`].
fn executor_from(var: Option<&str>) -> ExecutorChoice {
    match var.map(str::trim) {
        None | Some("") | Some("inproc") => ExecutorChoice::InProc,
        Some("subprocess") => ExecutorChoice::Subprocess,
        // lint:allow(panic-path): a misspelled executor name must abort the bench run loudly, not silently measure the wrong backend
        Some(v) => panic!("TSS_EXECUTOR must be inproc or subprocess, got {v:?}"),
    }
}

/// The supervisor's per-attempt deadline override, from the
/// `TSS_DEADLINE_MS` environment variable (unset → the supervisor's
/// [`tss_core::ipc::DEFAULT_DEADLINE`]).
pub fn bench_deadline() -> Option<Duration> {
    deadline_from(std::env::var("TSS_DEADLINE_MS").ok().as_deref())
}

/// The pure mapping behind [`bench_deadline`].
fn deadline_from(var: Option<&str>) -> Option<Duration> {
    var.map(|v| {
        let ms = v.trim().parse::<u64>().unwrap_or_else(|_| {
            // lint:allow(panic-path): a malformed deadline must abort the bench run loudly, not silently run undeadlined
            panic!("TSS_DEADLINE_MS must be milliseconds, got {v:?}")
        });
        Duration::from_millis(ms.max(1))
    })
}

/// Encodes one sharded engine task: tag, the shard's global start, its
/// record window, the data DAGs, and — for the dynamic tags — the query
/// seed. The worker rebuilds the engine the in-process closure builds
/// (default configs; the request's kernel) over the identical window.
pub fn encode_engine_task(
    tag: u8,
    view: &ShardView<'_>,
    dags: &[Dag],
    query_seed: Option<u64>,
) -> Vec<u8> {
    debug_assert!(matches!(
        tag,
        TASK_STSS | TASK_SDC_PLUS | TASK_DTSS | TASK_DYNAMIC_SDC
    ));
    let store = view.store();
    let mut t = Vec::new();
    t.push(tag);
    put_u32(&mut t, view.start());
    put_window(
        &mut t,
        store.to_dims(),
        store.po_dims(),
        view.to_block(),
        view.po_block(),
    );
    put_dags(&mut t, dags);
    if let Some(seed) = query_seed {
        put_u64(&mut t, seed);
    }
    t
}

/// Decodes and runs one engine task; returns global record ids (shard
/// start applied) plus the run's metrics — the worker-side mirror of the
/// closures the sharded runners build.
fn run_engine(tag: u8, body: &[u8], ctx: ShardCtx) -> Result<(Vec<u32>, Metrics), String> {
    let mut r = Reader::new(body);
    let start = r.u32().map_err(str::to_string)?;
    let store = get_window(&mut r)
        .map_err(str::to_string)?
        .with_kernel(ctx.kernel);
    let dags = get_dags(&mut r).map_err(str::to_string)?;
    let seed = match tag {
        TASK_DTSS | TASK_DYNAMIC_SDC => Some(r.u64().map_err(str::to_string)?),
        _ => None,
    };
    if r.remaining() != 0 {
        return Err("trailing task bytes".to_string());
    }
    let (local, metrics) = match (tag, seed) {
        (TASK_STSS, None) => {
            let stss = Stss::build(store, dags, StssConfig::default())
                .map_err(|e| format!("stss build: {e}"))?;
            let run = stss.run();
            (run.skyline_records(), run.metrics)
        }
        (TASK_SDC_PLUS, None) => {
            let idx = SdcIndex::build(store, dags, Variant::SdcPlus, SdcConfig::default())
                .map_err(|e| format!("sdc build: {e}"))?;
            let run = idx.run();
            (run.skyline.clone(), run.metrics)
        }
        (TASK_DTSS, Some(seed)) => {
            let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
            let dtss = Dtss::build(store, sizes, DtssConfig::default())
                .map_err(|e| format!("dtss build: {e}"))?;
            let query = PoQuery::new(dags.iter().map(|d| permuted_order(d, seed)).collect());
            let run = dtss.query(&query).map_err(|e| format!("dtss query: {e}"))?;
            (run.skyline_records(), run.metrics)
        }
        (TASK_DYNAMIC_SDC, Some(seed)) => {
            let dsdc = DynamicSdc::new(store, SdcConfig::default());
            let query: Vec<Dag> = dags.iter().map(|d| permuted_order(d, seed)).collect();
            let run = dsdc.query(&query).map_err(|e| format!("sdc query: {e}"))?;
            (run.skyline.clone(), run.metrics)
        }
        _ => return Err(format!("unknown engine task tag {tag}")),
    };
    Ok((local.into_iter().map(|id| id + start).collect(), metrics))
}

/// The harness worker's dispatch: the bench engine codecs layered over the
/// builtin ones (`tss_core::ipc::tasks`), so one worker binary serves both
/// the bench grid and the core task shapes.
pub fn dispatch(task: &[u8], ctx: ShardCtx) -> Result<(Vec<u32>, Metrics), String> {
    match task.first().copied() {
        Some(tag @ (TASK_STSS | TASK_SDC_PLUS | TASK_DTSS | TASK_DYNAMIC_SDC)) => {
            run_engine(tag, &task[1..], ctx)
        }
        _ => dispatch_builtin(task, ctx),
    }
}

/// Serves the composed dispatch over stdin/stdout — the body of the
/// harness's hidden `tss-worker` subcommand.
pub fn serve_worker() -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_io(&mut stdin.lock(), &mut stdout.lock(), dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{generate, run_dtss_sharded, run_stss_sharded};
    use datagen::{Distribution, ExperimentParams};
    use skyline::Kernel;
    use tss_core::ShardSpec;

    fn tiny_static() -> ExperimentParams {
        let mut p = ExperimentParams::paper_static_default(Distribution::Independent, 7);
        p.n = 1200;
        p.dag_height = 4;
        p
    }

    #[test]
    fn executor_mapping_covers_set_and_unset() {
        assert_eq!(executor_from(None), ExecutorChoice::InProc);
        assert_eq!(executor_from(Some("")), ExecutorChoice::InProc);
        assert_eq!(executor_from(Some("inproc")), ExecutorChoice::InProc);
        assert_eq!(
            executor_from(Some(" subprocess ")),
            ExecutorChoice::Subprocess
        );
        assert_eq!(ExecutorChoice::Subprocess.name(), "subprocess");
    }

    #[test]
    fn deadline_mapping_covers_set_and_unset() {
        assert_eq!(deadline_from(None), None);
        assert_eq!(deadline_from(Some("250")), Some(Duration::from_millis(250)));
        assert_eq!(deadline_from(Some("0")), Some(Duration::from_millis(1)));
    }

    /// The worker-side decode path must reproduce the in-process closures
    /// byte for byte: run each engine codec directly against the sharded
    /// runner's per-shard outcome.
    #[test]
    fn engine_codecs_match_the_in_process_closures() {
        let w = generate(&tiny_static());
        let views = w.table.shards(3);
        let serial = run_stss_sharded(&w, StssConfig::default(), ShardSpec::Fixed(3), 1);
        let mut remote: Vec<u32> = Vec::new();
        for view in &views {
            let task = encode_engine_task(TASK_STSS, view, &w.dags, None);
            let ctx = ShardCtx {
                shard: 0,
                attempt: 0,
                kernel: Kernel::Scalar,
            };
            let (records, m) = dispatch(&task, ctx).expect("stss task runs");
            assert!(m.dominance_checks > 0 || records.is_empty());
            remote.extend(records);
        }
        // The runner merges local skylines; the raw locals are a superset
        // of the final skyline and every final record appears in them.
        for r in serial.records.as_deref().unwrap_or(&[]) {
            assert!(remote.contains(r), "merged record {r} missing from locals");
        }
    }

    /// Dynamic codecs ship the query seed; the worker's permuted query
    /// must agree with the in-process runner's.
    #[test]
    fn dynamic_codecs_rebuild_the_query_from_its_seed() {
        let mut p = ExperimentParams::paper_dynamic_default(Distribution::Independent, 7);
        p.n = 1200;
        p.dag_height = 4;
        let w = generate(&p);
        let serial = run_dtss_sharded(&w, 5, DtssConfig::default(), ShardSpec::Fixed(2), 1);
        let views = w.table.shards(2);
        let mut remote: Vec<u32> = Vec::new();
        for view in &views {
            let task = encode_engine_task(TASK_DTSS, view, &w.dags, Some(5));
            let ctx = ShardCtx {
                shard: 1,
                attempt: 0,
                kernel: Kernel::Lanes,
            };
            let (records, _) = dispatch(&task, ctx).expect("dtss task runs");
            remote.extend(records);
        }
        for r in serial.records.as_deref().unwrap_or(&[]) {
            assert!(remote.contains(r), "merged record {r} missing from locals");
        }
        assert_eq!(serial.skyline, serial.records.as_ref().unwrap().len());
    }

    #[test]
    fn malformed_engine_tasks_are_reported_not_panicked() {
        let ctx = ShardCtx {
            shard: 0,
            attempt: 0,
            kernel: Kernel::Scalar,
        };
        assert!(dispatch(&[TASK_STSS], ctx).is_err(), "truncated body");
        assert!(
            dispatch(&[TASK_DTSS, 1, 2, 3], ctx).is_err(),
            "torn dynamic body"
        );
        let w = generate(&tiny_static());
        let views = w.table.shards(2);
        let mut task = encode_engine_task(TASK_SDC_PLUS, &views[0], &w.dags, None);
        task.push(0xFF);
        assert!(
            dispatch(&task, ctx).unwrap_err().contains("trailing"),
            "trailing bytes are rejected"
        );
    }

    #[test]
    fn bench_knob_readers_do_not_panic_on_the_ambient_environment() {
        // Whatever CI exports, the readers resolve (the pure-mapping tests
        // above pin the interesting cases).
        let _ = bench_executor();
        let _ = bench_deadline();
    }
}
