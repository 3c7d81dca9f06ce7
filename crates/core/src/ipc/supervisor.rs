//! **Supervisor side** of the out-of-process executor:
//! [`SubprocessExecutor`], a supervised pool of worker subprocesses
//! behind the [`ShardExecutor`] trait.
//!
//! # The remote transport
//!
//! Scheduling and recovery live in the `executor` module: shards are
//! claimed by the claim loop both executors share — here with one worker
//! process per pool thread — and every shard walks the one recovery
//! ladder (`DEFAULT_RETRIES + 1` regular attempts, then the in-process
//! scalar-oracle fallback, every recovery tally kept by the ladder).
//! What stays here is the **remote transport** those regular attempts
//! ride: it ships the job's wire payload to the thread's worker, at the
//! plan's process-fault site, and maps everything that can go wrong onto
//! [`ShardError`]s, whose kind the ladder counts:
//!
//! * **worker death** (nonzero exit, EOF, truncated frame, failed
//!   spawn/write) → [`WorkerDied`](ShardErrorKind::WorkerDied), counted
//!   in [`Metrics::worker_crashes`], worker respawned by the next attempt;
//! * **deadline blown** (no response within [`ExecPolicy::deadline`],
//!   default [`DEFAULT_DEADLINE`]) →
//!   [`WorkerTimeout`](ShardErrorKind::WorkerTimeout), counted in
//!   [`Metrics::worker_timeouts`], worker killed;
//! * **untrusted frame** (checksum mismatch, undecodable payload,
//!   records outside the shard range) →
//!   [`FrameCorrupted`](ShardErrorKind::FrameCorrupted), counted in
//!   [`Metrics::frames_corrupted`], worker killed;
//! * **refused task** (the worker answered with an error) →
//!   [`Panicked`](ShardErrorKind::Panicked), worker kept.
//!
//! # Degradation order
//!
//! A job without a wire payload, or a pool whose very first spawn fails,
//! degrades to the in-process transport — same attempts, same (salt-0)
//! fault sites, same counters as
//! [`ThreadShardExecutor`] — so a query
//! issued with zero spawnable workers still completes byte-identically,
//! with all four IPC counters zero.
//!
//! # Determinism
//!
//! Process faults are injected by *instruction*: the transport computes
//! [`FaultPlan::injects_process`](crate::FaultPlan::injects_process) per
//! `(shard, attempt)` — salt-2 sites, independent of the in-process
//! salt-0 sites — and tells the worker what to do, so injections,
//! retries and all IPC counters are pure functions of the jobs and the
//! plan: invariant across pool sizes, thread schedules and reruns.
//! `ipc_bytes` counts complete frames only (requests written, responses
//! fully read — including complete-but-corrupt ones), which keeps it a
//! pure function too. The deadline never influences results or counters
//! — only which recovery path ran — and this module is the only place
//! in `tss_core` allowed to read the clock (`cargo run -p xtask -- lint`
//! fences it).

use super::protocol::{
    decode_response, encode_frame, encode_request, read_frame, FrameError, Response, FRAME_OVERHEAD,
};
use crate::error::{ShardError, ShardErrorKind};
use crate::executor::{
    claim_shards, run_in_process, run_ladder, Attempt, ExecPolicy, ShardCtx, ShardExecutor,
    ShardJob, ShardOutcome, ThreadShardExecutor,
};
use crate::store::{PointStore, RecordId};
use crate::{Metrics, PoDomain};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-attempt deadline when [`ExecPolicy::deadline`] is `None` —
/// generous on purpose: a production shard attempt is milliseconds, so
/// only a genuinely wedged worker ever trips it.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// How to launch one worker process: a program plus its arguments. The
/// process must speak the frame protocol on stdin/stdout (see
/// [`worker`](super::worker)).
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    program: PathBuf,
    args: Vec<String>,
}

impl WorkerSpec {
    /// A spec launching `program` with `args`.
    pub fn new(
        program: impl Into<PathBuf>,
        args: impl IntoIterator<Item = impl Into<String>>,
    ) -> WorkerSpec {
        WorkerSpec {
            program: program.into(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// A spec re-executing the current binary with `args` — the usual
    /// shape: the host binary hides a worker entry behind a sentinel
    /// first argument (the harness's `tss-worker` subcommand, the
    /// facade's `tss-worker` bin).
    pub fn current_exe(
        args: impl IntoIterator<Item = impl Into<String>>,
    ) -> std::io::Result<WorkerSpec> {
        Ok(WorkerSpec::new(std::env::current_exe()?, args))
    }

    /// The program the spec launches.
    pub fn program(&self) -> &Path {
        &self.program
    }

    /// The arguments the program is launched with.
    pub fn args(&self) -> &[String] {
        &self.args
    }
}

/// One live worker: the child process, its request pipe, and the
/// receiving end of a detached reader thread that turns the response
/// pipe into frames (`recv_timeout` is what gives the supervisor a
/// deadline over a blocking pipe read). Respawns build a fresh
/// `Worker`, so a stale frame from a killed process can never be
/// attributed to a later attempt. Dropping a worker kills and reaps its
/// process.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    frames: Receiver<Result<Vec<u8>, FrameError>>,
}

impl Worker {
    fn spawn(spec: &WorkerSpec) -> Result<Worker, String> {
        let mut child = Command::new(&spec.program)
            .args(&spec.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.program.display()))?;
        let Some(stdin) = child.stdin.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("worker stdin pipe missing".to_string());
        };
        let Some(mut stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("worker stdout pipe missing".to_string());
        };
        let (tx, frames) = std::sync::mpsc::channel();
        // Detached on purpose: the thread ends at the first read error
        // (EOF included) or when the receiver is dropped with its
        // Worker; either way it holds no locks and owns only the pipe.
        std::thread::spawn(move || loop {
            let r = read_frame(&mut stdout);
            let done = r.is_err();
            if tx.send(r).is_err() || done {
                break;
            }
        });
        Ok(Worker {
            child,
            stdin,
            frames,
        })
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The out-of-process [`ShardExecutor`]: a supervised pool of worker
/// subprocesses launched from a [`WorkerSpec`], scheduling shards with
/// the same claim loop and recovery ladder as the in-process executor,
/// under the byte-identity contract — identical records and non-fault,
/// non-IPC [`Metrics`] columns as [`ThreadShardExecutor`] at any worker
/// count. See the module docs for the remote transport and the
/// degradation order.
pub struct SubprocessExecutor {
    spec: WorkerSpec,
    workers: usize,
    policy: ExecPolicy,
}

impl SubprocessExecutor {
    /// A pool of up to `workers` processes under the environment policy
    /// ([`ExecPolicy::default`]).
    pub fn new(spec: WorkerSpec, workers: usize) -> SubprocessExecutor {
        SubprocessExecutor::with_policy(spec, workers, ExecPolicy::default())
    }

    /// A pool with an explicit policy.
    pub fn with_policy(spec: WorkerSpec, workers: usize, policy: ExecPolicy) -> SubprocessExecutor {
        SubprocessExecutor {
            spec,
            workers: workers.max(1),
            policy,
        }
    }

    /// The recovery ladder over the remote transport, on the calling
    /// pool thread's worker. Jobs without a wire payload take the
    /// in-process transport.
    fn remote_ladder(
        &self,
        slot: &mut Option<Worker>,
        store: &PointStore,
        domains: &[PoDomain],
        shard: usize,
        job: &ShardJob<'_>,
    ) -> Result<ShardOutcome, ShardError> {
        let Some(wire) = job.wire_bytes() else {
            return run_in_process(&self.policy, store, domains, shard, job);
        };
        let range = job.range();
        run_ladder(&self.policy, store, domains, shard, job, |ctx, tally| {
            self.remote_attempt(slot, &wire, &range, ctx, tally)
        })
    }

    /// The remote transport: one attempt at the plan's process-fault
    /// site, on the slot's worker. Any failure but a refused task retires
    /// the worker, so the next attempt starts on a fresh process.
    fn remote_attempt(
        &self,
        slot: &mut Option<Worker>,
        wire: &[u8],
        range: &Range<RecordId>,
        ctx: ShardCtx,
        tally: &mut Metrics,
    ) -> Attempt {
        let ShardCtx {
            shard,
            attempt,
            kernel,
        } = ctx;
        let fault = self
            .policy
            .faults
            .as_ref()
            .and_then(|p| p.injects_process(shard, attempt));
        if fault.is_some() {
            tally.faults_injected += 1;
        }
        let request = encode_frame(&encode_request(shard, attempt, kernel, fault, wire));
        let reply = self.exchange(slot, &request, range, &mut tally.ipc_bytes);
        reply.map_err(|kind| {
            if !matches!(kind, ShardErrorKind::Panicked(_)) {
                *slot = None;
            }
            ShardError::new(shard, attempt, kind).with_range(range.clone())
        })
    }

    /// Ships one request frame to the slot's worker (spawned on demand)
    /// and awaits its response within the deadline, distrusting
    /// everything: the remote failure mapping of the module docs.
    /// Complete frames count into `ipc_bytes`.
    fn exchange(
        &self,
        slot: &mut Option<Worker>,
        request: &[u8],
        range: &Range<RecordId>,
        ipc_bytes: &mut u64,
    ) -> Result<(Vec<RecordId>, Metrics), ShardErrorKind> {
        use ShardErrorKind::{FrameCorrupted, Panicked, WorkerDied, WorkerTimeout};
        let started = Instant::now();
        let worker = match slot {
            Some(w) => w,
            None => slot.insert(Worker::spawn(&self.spec).map_err(WorkerDied)?),
        };
        worker
            .stdin
            .write_all(request)
            .and_then(|()| worker.stdin.flush())
            .map_err(|e| WorkerDied(format!("request write failed: {e}")))?;
        *ipc_bytes += request.len() as u64;
        let deadline = self.policy.deadline.unwrap_or(DEFAULT_DEADLINE);
        let payload = match worker
            .frames
            .recv_timeout(deadline.saturating_sub(started.elapsed()))
        {
            Ok(Ok(payload)) => payload,
            Ok(Err(FrameError::BadChecksum { frame_bytes })) => {
                // The frame was read completely — it still counts as
                // exchanged bytes — but its payload cannot be trusted.
                *ipc_bytes += frame_bytes;
                return Err(FrameCorrupted("response checksum mismatch".into()));
            }
            Ok(Err(e)) => return Err(WorkerDied(format!("response stream: {e}"))),
            Err(RecvTimeoutError::Timeout) => return Err(WorkerTimeout),
            Err(RecvTimeoutError::Disconnected) => {
                return Err(WorkerDied("response reader ended".into()))
            }
        };
        *ipc_bytes += payload.len() as u64 + FRAME_OVERHEAD;
        match decode_response(&payload) {
            Ok(Response::Ok(records, metrics)) => {
                if let Some(out) = records.iter().find(|r| !range.contains(r)) {
                    return Err(FrameCorrupted(format!(
                        "record {out} outside the shard range"
                    )));
                }
                Ok((records, metrics))
            }
            // The worker is healthy but refused the task (undecodable
            // payload, unknown codec) — retries will exhaust into the
            // in-process fallback.
            Ok(Response::Err(msg)) => Err(Panicked(format!("worker reported: {msg}"))),
            Err(defect) => Err(FrameCorrupted(format!("undecodable response: {defect}"))),
        }
    }
}

impl ShardExecutor for SubprocessExecutor {
    fn execute(
        &self,
        store: &PointStore,
        domains: &[PoDomain],
        jobs: &[ShardJob<'_>],
    ) -> Vec<Result<ShardOutcome, ShardError>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        // Probe spawn. A pool that cannot start at all degrades the
        // whole batch to the in-process executor — byte-identical to
        // ThreadShardExecutor, IPC counters all zero.
        let Ok(probe) = Worker::spawn(&self.spec) else {
            return ThreadShardExecutor::with_policy(1, self.policy).execute(store, domains, jobs);
        };
        // Each pool thread owns one worker process; the probe goes to
        // whichever thread asks first, the rest spawn on demand.
        let probe = Mutex::new(Some(probe));
        claim_shards(
            self.workers,
            jobs.len(),
            || probe.lock().unwrap_or_else(|p| p.into_inner()).take(),
            |slot, i| self.remote_ladder(slot, store, domains, i, &jobs[i]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipc::tasks::local_skyline_job;
    use crate::{Table, ThreadShardExecutor};

    fn table(n: u32) -> Table {
        let mut t = Table::new(2, 0);
        for i in 0..n {
            t.push(&[(i * 17) % 50, (i * 31) % 50], &[]);
        }
        t
    }

    #[test]
    fn unspawnable_pools_degrade_to_in_process_byte_identity() {
        let t = table(100);
        let jobs: Vec<ShardJob<'_>> = t
            .shards(4)
            .into_iter()
            .map(|v| local_skyline_job(v, &[]))
            .collect();
        let spec = WorkerSpec::new(
            "/nonexistent/tss-worker-definitely-not-here",
            Vec::<String>::new(),
        );
        let policy = ExecPolicy::with_faults(Some(crate::FaultPlan::new(77, 0.6)));
        let sub = SubprocessExecutor::with_policy(spec, 3, policy);
        let inproc = ThreadShardExecutor::with_policy(1, policy);
        let got = sub.execute(&t, &[], &jobs);
        let want = inproc.execute(&t, &[], &jobs);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            let (g, w) = (g.as_ref().expect("recovers"), w.as_ref().expect("recovers"));
            assert_eq!(g.records, w.records);
            assert_eq!(g.metrics, w.metrics, "degraded mode replays salt-0 sites");
            assert_eq!(g.metrics.worker_crashes, 0);
            assert_eq!(g.metrics.ipc_bytes, 0);
        }
    }

    #[test]
    fn jobs_without_wire_payloads_run_in_process() {
        let t = table(40);
        // Plain closure jobs (no wire): even with a live-looking spec
        // the executor must not need it — but use an unspawnable one so
        // this test cannot accidentally depend on a real binary.
        let jobs: Vec<ShardJob<'_>> = t
            .shards(2)
            .into_iter()
            .map(|v| {
                ShardJob::new(v.range(), move |_ctx| {
                    (v.range().collect(), Metrics::default())
                })
            })
            .collect();
        let spec = WorkerSpec::new("/nonexistent/worker", Vec::<String>::new());
        let sub = SubprocessExecutor::with_policy(spec, 2, ExecPolicy::fault_free());
        for (i, r) in sub.execute(&t, &[], &jobs).into_iter().enumerate() {
            let o = r.expect("in-process path");
            assert_eq!(o.records, jobs[i].range().collect::<Vec<_>>());
            assert_eq!(o.metrics.ipc_bytes, 0);
        }
    }

    #[test]
    fn worker_spec_exposes_its_launch_shape() {
        let spec = WorkerSpec::new("/bin/echo", ["tss-worker"]);
        assert_eq!(spec.program(), Path::new("/bin/echo"));
        assert_eq!(spec.args(), ["tss-worker".to_string()]);
        let exe = WorkerSpec::current_exe(["tss-worker"]).expect("current exe resolves");
        assert!(exe.program().is_absolute());
    }
}
