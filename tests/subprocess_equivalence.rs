//! Facade acceptance for out-of-process shard execution: for random
//! stores, partial orders, shard counts and worker-pool sizes, the
//! [`SubprocessExecutor`] (real `tss-worker` subprocesses behind the
//! length-prefixed checksummed pipe protocol) produces **byte-identical**
//! per-shard records and non-wall, non-IPC counters to the in-process
//! [`ThreadShardExecutor`] — and keeps doing so when seeded process
//! faults kill workers mid-task, stall them past the attempt deadline or
//! flip response bytes, when the worker binary is garbage that echoes or
//! truncates frames, and when the pool cannot spawn at all (degradation
//! to fully in-process execution). Process-fault recovery is observable
//! only through `worker_crashes` / `worker_timeouts` / `frames_corrupted`
//! / `ipc_bytes` and the existing recovery trio, and is invariant to the
//! pool size.

use proptest::prelude::*;
use std::time::Duration;
use tss::core::ipc::local_skyline_job;
use tss::core::parallel::merge_shard_skylines;
use tss::core::{
    ExecPolicy, FaultPlan, Kernel, Metrics, PoDomain, RecordId, ShardExecutor, ShardJob,
    ShardOutcome, StreamingConfig, StreamingSkyline, SubprocessExecutor, Table,
    ThreadShardExecutor, WorkerSpec,
};
use tss::poset::Dag;

/// The real worker binary this package ships — the same entry a
/// production `TSS_EXECUTOR=subprocess` run re-execs.
fn worker_spec() -> WorkerSpec {
    WorkerSpec::new(env!("CARGO_BIN_EXE_tss-worker"), Vec::<String>::new())
}

/// A random 5-value partial order from a 10-bit forward-edge mask (forward
/// edges only, hence acyclic).
fn mask_dag(edge_mask: u32) -> Dag {
    let mut edges = Vec::new();
    let mut bit = 0;
    for i in 0..5u32 {
        for j in (i + 1)..5u32 {
            if edge_mask >> bit & 1 == 1 {
                edges.push((i, j));
            }
            bit += 1;
        }
    }
    Dag::from_edges(5, &edges).expect("forward edges are acyclic")
}

fn table_of(rows: &[(u32, u32, u32)]) -> Table {
    let mut t = Table::new(2, 1);
    for &(a, b, v) in rows {
        t.push(&[a, b], &[v]);
    }
    t
}

/// Every counter that must be byte-identical across executors, pool
/// sizes and fault plans: the wall clock, the fault-recovery trio and
/// the IPC quartet are the only observables of *how* a shard was
/// computed.
fn portable_counts(m: &Metrics) -> Metrics {
    let mut m = *m;
    m.cpu = Duration::ZERO;
    m.shard_retries = 0;
    m.shard_fallbacks = 0;
    m.faults_injected = 0;
    m.worker_crashes = 0;
    m.worker_timeouts = 0;
    m.frames_corrupted = 0;
    m.ipc_bytes = 0;
    m
}

/// The same metrics with only the wall clock zeroed — what deterministic
/// replay and pool-size invariance pin, recovery counters included.
fn wallless(m: &Metrics) -> Metrics {
    let mut m = *m;
    m.cpu = Duration::ZERO;
    m
}

/// Fans the store's shard windows as local-skyline jobs (in-process
/// closure + wire payload) across the executor and unwraps every shard —
/// recovery is part of the contract under test.
fn run_all(
    exec: &dyn ShardExecutor,
    t: &Table,
    domains: &[PoDomain],
    shards: usize,
) -> Vec<ShardOutcome> {
    let jobs: Vec<ShardJob<'_>> = t
        .shards(shards)
        .into_iter()
        .map(|v| local_skyline_job(v, domains))
        .collect();
    exec.execute(t, domains, &jobs)
        .into_iter()
        .map(|r| r.expect("every shard must recover"))
        .collect()
}

fn merged(outcomes: &[ShardOutcome]) -> Metrics {
    outcomes
        .iter()
        .fold(Metrics::default(), |m, o| m.merge(&o.metrics))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The byte-identity contract, fault-free: real worker subprocesses
    /// return the same per-shard records and portable counters as the
    /// in-process executor, at any shard count, pool size and kernel —
    /// and the only traces of the pipe are `ipc_bytes` (nonzero) and a
    /// clean crash/timeout/corruption scoreboard.
    #[test]
    fn subprocess_results_are_byte_identical_to_in_process(
        rows in proptest::collection::vec((0u32..12, 0u32..12, 0u32..5), 1..40),
        edge_mask in 0u32..1024,
        shards in 1usize..=6,
        workers in 1usize..=3,
        lanes in proptest::bool::ANY,
    ) {
        let kernel = if lanes { Kernel::Lanes } else { Kernel::Scalar };
        let t = table_of(&rows).with_kernel(kernel);
        let domains = vec![PoDomain::new(mask_dag(edge_mask))];

        let thread = ThreadShardExecutor::with_policy(2, ExecPolicy::fault_free());
        let sub = SubprocessExecutor::with_policy(
            worker_spec(), workers, ExecPolicy::fault_free(),
        );
        let local = run_all(&thread, &t, &domains, shards);
        let remote = run_all(&sub, &t, &domains, shards);

        prop_assert_eq!(local.len(), remote.len());
        for (i, (l, r)) in local.iter().zip(&remote).enumerate() {
            prop_assert_eq!(&l.records, &r.records,
                "shard {} records must be byte-identical", i);
            prop_assert_eq!(
                portable_counts(&l.metrics), portable_counts(&r.metrics),
                "shard {} portable counters must be byte-identical", i
            );
        }
        let rm = merged(&remote);
        prop_assert!(rm.ipc_bytes > 0, "the pipe must actually have been used");
        prop_assert_eq!(rm.worker_crashes, 0);
        prop_assert_eq!(rm.worker_timeouts, 0);
        prop_assert_eq!(rm.frames_corrupted, 0);
        prop_assert_eq!(merged(&local).ipc_bytes, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The recovery contract over real processes: a seeded plan that
    /// kills workers mid-task, stalls them past the attempt deadline and
    /// flips response bytes still recovers every shard to the
    /// byte-identical records and portable counters of a fault-free
    /// in-process run. Injection is keyed by `(shard, attempt)`, so the
    /// full recovery scoreboard — crashes, timeouts, corrupted frames,
    /// bytes moved — replays identically and is invariant to the pool
    /// size.
    #[test]
    fn process_fault_grids_recover_byte_identically(
        rows in proptest::collection::vec((0u32..12, 0u32..12, 0u32..5), 1..32),
        edge_mask in 0u32..1024,
        seed in 0u64..u64::MAX,
        rate_ppm in 50_000u32..=500_000,
        shards in 1usize..=4,
    ) {
        let t = table_of(&rows);
        let domains = vec![PoDomain::new(mask_dag(edge_mask))];
        let policy = ExecPolicy::with_faults(Some(FaultPlan { seed, rate_ppm }))
            .with_deadline(Duration::from_millis(400));

        let clean = run_all(
            &ThreadShardExecutor::with_policy(2, ExecPolicy::fault_free()),
            &t, &domains, shards,
        );
        let solo = run_all(
            &SubprocessExecutor::with_policy(worker_spec(), 1, policy),
            &t, &domains, shards,
        );
        let pooled = run_all(
            &SubprocessExecutor::with_policy(worker_spec(), 3, policy),
            &t, &domains, shards,
        );
        let replay = run_all(
            &SubprocessExecutor::with_policy(worker_spec(), 3, policy),
            &t, &domains, shards,
        );

        for (i, (c, s)) in clean.iter().zip(&solo).enumerate() {
            prop_assert_eq!(&c.records, &s.records,
                "shard {} must recover to the fault-free records", i);
            prop_assert_eq!(
                portable_counts(&c.metrics), portable_counts(&s.metrics),
                "shard {} portable counters must not see the faults", i
            );
        }
        // Pool-size invariance and deterministic replay: everything but
        // the wall clock — the recovery scoreboard included — is pinned
        // per shard.
        for (i, (s, p)) in solo.iter().zip(&pooled).enumerate() {
            prop_assert_eq!(&s.records, &p.records);
            prop_assert_eq!(wallless(&s.metrics), wallless(&p.metrics),
                "shard {} scoreboard must be pool-size invariant", i);
        }
        for (p, r) in pooled.iter().zip(&replay) {
            prop_assert_eq!(&p.records, &r.records);
            prop_assert_eq!(wallless(&p.metrics), wallless(&r.metrics));
        }
        let m = merged(&solo);
        prop_assert_eq!(
            m.faults_injected,
            m.worker_crashes + m.worker_timeouts + m.frames_corrupted,
            "every injected process fault surfaces as exactly one defect"
        );
        if m.faults_injected == 0 {
            prop_assert_eq!(m.shard_retries, 0);
            prop_assert_eq!(m.shard_fallbacks, 0);
        }
    }
}

/// Acceptance: a saturating process-fault plan (rate 1.0 — every remote
/// attempt of every shard faults) exhausts the remote ladder on each
/// shard and recovers through the in-process scalar fallback, still
/// byte-identical to the fault-free in-process run.
#[test]
fn saturated_process_faults_recover_through_the_fallback() {
    let rows: Vec<(u32, u32, u32)> = (0..40u32).map(|i| (i % 13, (40 - i) % 11, i % 5)).collect();
    let t = table_of(&rows);
    let domains = vec![PoDomain::new(mask_dag(0b1010101010))];
    let shards = 4usize;

    let clean = run_all(
        &ThreadShardExecutor::with_policy(2, ExecPolicy::fault_free()),
        &t,
        &domains,
        shards,
    );
    let policy = ExecPolicy::with_faults(Some(FaultPlan::new(7, 1.0)))
        .with_deadline(Duration::from_millis(250));
    for workers in [1usize, 3] {
        let faulty = run_all(
            &SubprocessExecutor::with_policy(worker_spec(), workers, policy),
            &t,
            &domains,
            shards,
        );
        for (c, f) in clean.iter().zip(&faulty) {
            assert_eq!(c.records, f.records, "workers={workers}");
            assert_eq!(portable_counts(&c.metrics), portable_counts(&f.metrics));
        }
        let m = merged(&faulty);
        assert_eq!(
            m.shard_retries,
            shards as u64 * (ExecPolicy::DEFAULT_RETRIES as u64 + 1),
            "every shard exhausts its remote ladder"
        );
        assert_eq!(m.shard_fallbacks, shards as u64);
        assert_eq!(m.faults_injected, m.shard_retries);
        assert_eq!(
            m.faults_injected,
            m.worker_crashes + m.worker_timeouts + m.frames_corrupted
        );
    }
}

/// A worker binary that echoes every request back verbatim (`/bin/cat`)
/// produces well-framed, correctly checksummed garbage — the supervisor
/// must reject it as frame corruption on every attempt and still deliver
/// the exact results through the fallback.
#[test]
fn echo_worker_is_detected_as_frame_corruption() {
    if !std::path::Path::new("/bin/cat").exists() {
        return;
    }
    let rows: Vec<(u32, u32, u32)> = (0..24u32).map(|i| (i % 7, (24 - i) % 9, i % 5)).collect();
    let t = table_of(&rows);
    let domains = vec![PoDomain::new(mask_dag(0b0110011001))];
    let shards = 3usize;

    let clean = run_all(&ThreadShardExecutor::new(2), &t, &domains, shards);
    let spec = WorkerSpec::new("/bin/cat", Vec::<String>::new());
    let policy = ExecPolicy::fault_free().with_deadline(Duration::from_secs(5));
    let echoed = run_all(
        &SubprocessExecutor::with_policy(spec, 2, policy),
        &t,
        &domains,
        shards,
    );
    for (c, e) in clean.iter().zip(&echoed) {
        assert_eq!(c.records, e.records);
        assert_eq!(portable_counts(&c.metrics), portable_counts(&e.metrics));
    }
    let m = merged(&echoed);
    let attempts = shards as u64 * (ExecPolicy::DEFAULT_RETRIES as u64 + 1);
    assert_eq!(
        m.frames_corrupted, attempts,
        "every echoed frame is distrusted"
    );
    assert_eq!(m.shard_retries, attempts);
    assert_eq!(m.worker_crashes, 0);
    assert_eq!(m.worker_timeouts, 0);
    assert_eq!(m.shard_fallbacks, shards as u64);
}

/// A worker that writes a truncated frame and exits (`printf abc`) is a
/// mid-frame crash: the supervisor sees EOF (or a failed request write),
/// counts a worker death per attempt and recovers through the fallback.
#[test]
fn truncating_worker_is_detected_as_a_crash() {
    if !std::path::Path::new("/bin/sh").exists() {
        return;
    }
    let rows: Vec<(u32, u32, u32)> = (0..24u32).map(|i| ((i * 3) % 11, i % 8, i % 5)).collect();
    let t = table_of(&rows);
    let domains = vec![PoDomain::new(mask_dag(0b1100110010))];
    let shards = 3usize;

    let clean = run_all(&ThreadShardExecutor::new(2), &t, &domains, shards);
    let spec = WorkerSpec::new("/bin/sh", ["-c", "printf abc"]);
    let policy = ExecPolicy::fault_free().with_deadline(Duration::from_secs(5));
    let truncated = run_all(
        &SubprocessExecutor::with_policy(spec, 2, policy),
        &t,
        &domains,
        shards,
    );
    for (c, x) in clean.iter().zip(&truncated) {
        assert_eq!(c.records, x.records);
        assert_eq!(portable_counts(&c.metrics), portable_counts(&x.metrics));
    }
    // Whether an attempt's request write lands before the worker exits
    // is a race, so `ipc_bytes` is left unasserted here.
    let m = merged(&truncated);
    let attempts = shards as u64 * (ExecPolicy::DEFAULT_RETRIES as u64 + 1);
    assert_eq!(
        m.worker_crashes, attempts,
        "truncated frames are worker deaths"
    );
    assert_eq!(m.shard_retries, attempts);
    assert_eq!(m.frames_corrupted, 0);
    assert_eq!(m.worker_timeouts, 0);
    assert_eq!(m.shard_fallbacks, shards as u64);
}

/// A pool that cannot spawn at all (nonexistent worker binary) degrades
/// the whole batch to the in-process ladder: byte-identical outcomes,
/// every IPC counter zero — out-of-process execution is an accelerant,
/// never a dependency.
#[test]
fn unspawnable_pool_degrades_to_in_process_execution() {
    let rows: Vec<(u32, u32, u32)> = (0..30u32).map(|i| (i % 9, (30 - i) % 7, i % 5)).collect();
    let t = table_of(&rows);
    let domains = vec![PoDomain::new(mask_dag(0b0011100110))];
    let shards = 4usize;

    let clean = run_all(&ThreadShardExecutor::new(2), &t, &domains, shards);
    let spec = WorkerSpec::new("/nonexistent/tss-worker-gone", Vec::<String>::new());
    let degraded = run_all(
        &SubprocessExecutor::with_policy(spec, 2, ExecPolicy::fault_free()),
        &t,
        &domains,
        shards,
    );
    for (c, d) in clean.iter().zip(&degraded) {
        assert_eq!(c.records, d.records);
        assert_eq!(portable_counts(&c.metrics), portable_counts(&d.metrics));
    }
    let m = merged(&degraded);
    assert_eq!(m.ipc_bytes, 0, "degraded batches never touch the pipe");
    assert_eq!(m.worker_crashes, 0);
    assert_eq!(m.worker_timeouts, 0);
    assert_eq!(m.frames_corrupted, 0);
    assert_eq!(m.shard_retries, 0);
    assert_eq!(m.shard_fallbacks, 0);
}

/// The live window's skyline computed out of process: `local_skyline_job`s
/// over 3 shards of the window run on `pool`, their local skylines are
/// merged with `merge_shard_skylines`, sorted and mapped back to the
/// maintainer's ids. Returns those ids and the pool's `ipc_bytes`.
fn pool_skyline(s: &StreamingSkyline, pool: &SubprocessExecutor) -> (Vec<RecordId>, u64) {
    let live: Vec<RecordId> = s.store().live_ids().collect();
    let mut window = Table::new(s.store().to_dims(), s.store().po_dims());
    for &id in &live {
        window.push(s.store().to(id), s.store().po(id));
    }
    let outcomes = run_all(pool, &window, s.domains(), 3);
    let locals: Vec<Vec<RecordId>> = outcomes.iter().map(|o| o.records.clone()).collect();
    let (mut sky, _) = merge_shard_skylines(&window, s.domains(), &locals, 1);
    sky.sort_unstable();
    let ids = sky.into_iter().map(|r| live[r as usize]).collect();
    (ids, merged(&outcomes).ipc_bytes)
}

/// Streaming maintenance against the out-of-process pool: after every
/// operation of two op sequences, the serial maintainer's skyline equals
/// the live window's skyline computed on a 2-worker `SubprocessExecutor`
/// (`local_skyline_job` over `shards` of the window, merged with
/// `merge_shard_skylines`, sorted and mapped back to the maintainer's
/// ids). The first sequence expires anti-correlated members, so repairs
/// promote what they dominated; the second expires the head of a
/// 20-record dominance chain, which must leave `[1]`. The pool's
/// `ipc_bytes` must be nonzero.
#[test]
fn streaming_repairs_over_subprocess_pool_match_in_process() {
    let pool = SubprocessExecutor::with_policy(worker_spec(), 2, ExecPolicy::fault_free());
    let mut ipc_bytes = 0u64;
    let mut check = |s: &StreamingSkyline, op: &str| {
        let (sky, bytes) = pool_skyline(s, &pool);
        assert_eq!(s.skyline_records(), &sky[..], "{op}: skylines must agree");
        ipc_bytes += bytes;
    };

    let dag = mask_dag(0b1001011010);
    let mut s = StreamingSkyline::new(2, vec![PoDomain::new(dag)], StreamingConfig::default());
    for i in 0..36u32 {
        // Anti-correlated members plus points they dominate, so member
        // expiry leaves candidates for the repair to screen.
        let (a, b) = if i % 2 == 0 {
            (i % 12, 12 - i % 12)
        } else {
            (i % 12 + 2, 14 - i % 12)
        };
        s.insert(&[a, b], &[i % 5]);
        check(&s, &format!("insert {i}"));
        if i % 3 == 2 {
            let members = s.skyline_records();
            if !members.is_empty() {
                let id = members[members.len() / 2];
                assert!(s.expire(id));
                check(&s, &format!("expire {id}"));
            }
        }
    }
    assert!(
        s.metrics().stream_repairs > 0,
        "member expiry must have repaired"
    );

    // Record 0 dominates the chain [i, i] for i in 1..20, so expiring it
    // screens all 19 against an empty skyline: only record 1 survives.
    let chain_dag = Dag::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).expect("acyclic");
    let mut s = StreamingSkyline::new(
        2,
        vec![PoDomain::new(chain_dag)],
        StreamingConfig::default(),
    );
    for i in 0..20u32 {
        s.insert(&[i, i], &[0]);
        check(&s, &format!("chain insert {i}"));
    }
    assert!(s.expire(0));
    check(&s, "chain expire 0");
    assert_eq!(s.skyline_records(), [1]);
    assert!(ipc_bytes > 0, "the window skylines must cross the pipe");
}
