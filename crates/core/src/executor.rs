//! **Fault-tolerant shard execution** — the robustness layer between the
//! sharded fronts in [`parallel`](crate::parallel) and the per-shard
//! engine runs.
//!
//! Every shard job runs behind the [`ShardExecutor`] trait and returns
//! `Result<ShardOutcome, ShardError>`. Both executors — the in-process
//! [`ThreadShardExecutor`] and the out-of-process
//! [`SubprocessExecutor`](crate::SubprocessExecutor) — schedule shards
//! with one claim loop (`claim_shards`) and recover each shard through one
//! deterministic ladder (`run_ladder`):
//!
//! 1. **Regular attempts** — `retries + 1` attempts
//!    ([`ExecPolicy::retries`]) on the store's configured kernel, each
//!    through a *transport*:
//!    * **in process**, the job's closure under
//!      [`std::panic::catch_unwind`] (this module is the only place in the
//!      workspace allowed to call it — `cargo run -p xtask -- lint` fences
//!      it), so a panicking shard becomes a [`ShardError::Panicked`]
//!      value, not a process abort;
//!    * **out of process**, the job's wire payload on a supervised worker
//!      process, whose crash, timeout or untrusted reply becomes a
//!      `WorkerDied` / `WorkerTimeout` / `FrameCorrupted` error (see
//!      [`crate::ipc::supervisor`]).
//! 2. **Minimality validation** — whenever a fault plan is set, every
//!    job's result (a local skyline) is checked after each successful
//!    attempt; a dominated member fails the attempt like a panic.
//! 3. **Scalar-oracle fallback** — a shard that failed every regular
//!    attempt is recomputed once more, in process, with
//!    [`ShardCtx::kernel`] forced to [`Kernel::Scalar`], the reference
//!    path. Kernel equivalence guarantees the fallback's records *and
//!    counters* match what the regular path would have produced, so
//!    recovery is invisible to every byte-identity invariant.
//!
//! The ladder keeps every recovery tally and folds it into the successful
//! attempt's [`Metrics`]: [`shard_retries`](Metrics::shard_retries) per
//! failed attempt, [`shard_fallbacks`](Metrics::shard_fallbacks) for the
//! fallback, and [`worker_crashes`](Metrics::worker_crashes) /
//! [`worker_timeouts`](Metrics::worker_timeouts) /
//! [`frames_corrupted`](Metrics::frames_corrupted) by the failed
//! attempt's [`ShardErrorKind`] — always zero in process, where attempts
//! only panic or fail validation. The transport adds what only it sees:
//! [`faults_injected`](Metrics::faults_injected) at its fault sites and,
//! out of process, [`ipc_bytes`](Metrics::ipc_bytes). Failed attempts'
//! work counters are discarded, which is what keeps `dominance_checks` et
//! al. identical to a fault-free run.
//!
//! # Deterministic fault injection
//!
//! A seeded [`FaultPlan`] (env `TSS_FAULTS=seed:rate`, plumbed like
//! `TSS_KERNEL`; or passed explicitly through [`ExecPolicy`]) decides —
//! by hashing `(seed, shard, attempt)` with the pinned
//! [`poset::Fnv64`] — whether a given attempt is sabotaged and how. In
//! process that is an **injected panic** or a **corrupted local skyline**
//! (a deterministically chosen dominated record appended to the local
//! result), which the minimality validation catches: a check of the local
//! skyline with the scalar list loop
//! ([`PointStore::t_dominated_by_any`]). Out of process it is a
//! worker kill, stall or flipped reply byte
//! ([`FaultPlan::injects_process`]). The plan never injects into the
//! fallback attempt, so a fault-injected run always terminates with the
//! fault-free answer. No clock is consulted here (the xtask time-fencing
//! lint holds), so the same plan on the same store produces the same
//! injections, retries and counters at any thread count.
//!
//! Validation pair work is deliberately **not** charged to
//! [`Metrics::dominance_checks`]: it is recovery overhead, not query
//! work, and charging it would break the byte-identity contract between
//! fault-injected and fault-free runs that CI enforces.

use crate::error::{ShardError, ShardErrorKind};
use crate::store::{PointStore, RecordId};
use crate::{Metrics, PoDomain};
use skyline::Kernel;
use std::hash::Hasher;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What a planned fault does to its attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt panics before producing a result.
    Panic,
    /// The attempt's local skyline is corrupted (a dominated record is
    /// appended), exercising the ladder's minimality validation.
    Corrupt,
}

/// A seeded, rate-controlled schedule of injected faults.
///
/// The plan is a pure function: whether `(shard, attempt)` is sabotaged —
/// and how — depends only on `(seed, rate, shard, attempt)` via the
/// pinned FNV-1a hash, never on scheduling, thread count or clock. Two
/// runs under the same plan inject identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every site hash.
    pub seed: u64,
    /// Injection probability in parts-per-million of sites (`1_000_000`
    /// saturates every site).
    pub rate_ppm: u32,
}

impl FaultPlan {
    /// A plan from a seed and a rate in `[0, 1]` (clamped).
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate_ppm: (rate.clamp(0.0, 1.0) * 1e6).round() as u32,
        }
    }

    /// Parses the `TSS_FAULTS` format `seed:rate` (e.g. `"7:0.35"`):
    /// integer seed, `:`, fraction of sites to sabotage. Returns `None`
    /// on malformed input or a rate outside `[0, 1]`.
    pub fn parse(s: &str) -> Option<FaultPlan> {
        let (seed, rate) = s.split_once(':')?;
        let seed: u64 = seed.trim().parse().ok()?;
        let rate: f64 = rate.trim().parse().ok()?;
        if !(0.0..=1.0).contains(&rate) {
            return None;
        }
        Some(FaultPlan::new(seed, rate))
    }

    /// The process-wide plan from the `TSS_FAULTS` environment variable
    /// (`seed:rate`), read once per process like `TSS_KERNEL`; `None`
    /// when unset or malformed. Per-run overrides go through
    /// [`ExecPolicy`].
    pub fn active() -> Option<FaultPlan> {
        static ACTIVE: OnceLock<Option<FaultPlan>> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            std::env::var("TSS_FAULTS")
                .ok()
                .as_deref()
                .and_then(FaultPlan::parse)
        })
    }

    /// The injection rate as a fraction in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        f64::from(self.rate_ppm) / 1e6
    }

    /// The pinned site hash: FNV-1a over `(seed, shard, attempt, salt)`.
    pub(crate) fn site_hash(&self, shard: usize, attempt: u32, salt: u64) -> u64 {
        let mut h = poset::Fnv64::new();
        h.write_u64(self.seed);
        h.write_u64(shard as u64);
        h.write_u32(attempt);
        h.write_u64(salt);
        h.finish()
    }

    /// Whether this plan sabotages `(shard, attempt)`, and how. The
    /// fault kind comes from an independent hash bit, so panics and
    /// corruptions interleave across sites.
    pub fn injects(&self, shard: usize, attempt: u32) -> Option<FaultKind> {
        let h = self.site_hash(shard, attempt, 0);
        if (h % 1_000_000) as u32 >= self.rate_ppm {
            return None;
        }
        Some(if (h >> 32) & 1 == 0 {
            FaultKind::Panic
        } else {
            FaultKind::Corrupt
        })
    }

    /// Whether this plan sabotages the **remote** execution of
    /// `(shard, attempt)`, and how. Process-level sites hash with their
    /// own salt, independent of the in-process [`injects`](Self::injects)
    /// sites, so the same `TSS_FAULTS` plan exercises both transports; the
    /// kind cycles through all three process failure modes. Only the
    /// out-of-process executor's remote attempts consult this — in-process
    /// attempts (including its degraded mode and fallback) see the
    /// in-process sites, keeping degraded runs byte-identical to
    /// [`ThreadShardExecutor`] ones.
    pub fn injects_process(&self, shard: usize, attempt: u32) -> Option<ProcessFaultKind> {
        let h = self.site_hash(shard, attempt, 2);
        if (h % 1_000_000) as u32 >= self.rate_ppm {
            return None;
        }
        Some(match (h >> 32) % 3 {
            0 => ProcessFaultKind::Kill,
            1 => ProcessFaultKind::Stall,
            _ => ProcessFaultKind::CorruptFrame,
        })
    }
}

/// What a planned **process-level** fault makes a worker subprocess do to
/// its attempt (the out-of-process counterpart of [`FaultKind`]). The
/// supervisor computes the site deterministically and instructs the worker
/// over the request frame, so injection is invariant to pool size and
/// scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessFaultKind {
    /// The worker exits without replying — exercises crash detection
    /// (EOF) and the respawn path.
    Kill,
    /// The worker parks forever — exercises the attempt deadline and
    /// kill-on-timeout.
    Stall,
    /// The worker flips one byte of its response payload while keeping
    /// the stale checksum — exercises frame-corruption detection.
    CorruptFrame,
}

/// Everything a shard job may condition on: which shard it is, which
/// attempt of the ladder this is, and which dominance kernel the executor
/// wants the attempt computed with (the store's configured kernel on
/// regular attempts, [`Kernel::Scalar`] on the fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCtx {
    /// Index of the shard being evaluated.
    pub shard: usize,
    /// Zero-based attempt number; `retries + 1` is the fallback.
    pub attempt: u32,
    /// Kernel variant the job should compute with. Honoring it is what
    /// makes the fallback a genuine oracle recompute; kernel equivalence
    /// keeps results and counters identical either way.
    pub kernel: Kernel,
}

/// A successful shard evaluation: the local skyline as **global** record
/// ids plus the metrics of the successful attempt (with the recovery
/// counters folded in by the executor).
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Local skyline of the shard, global record ids.
    pub records: Vec<RecordId>,
    /// Metrics of the successful attempt only — failed attempts' work is
    /// discarded so fault-injected totals match fault-free ones — plus
    /// `shard_retries` / `shard_fallbacks` / `faults_injected`.
    pub metrics: Metrics,
}

/// One shard's work as the executor sees it: a re-runnable closure (it
/// may be invoked several times, once per attempt, with different
/// [`ShardCtx`]s) plus the global record-id range the shard covers — the
/// scope fault injection corrupts within and validation checks against.
///
/// A job may additionally carry a **wire payload** — a lazy encoder of
/// self-contained task bytes a worker *process* can recompute the same
/// `(records, metrics)` from (see [`crate::ipc`]). Closures cannot cross
/// process boundaries, so the payload is what the out-of-process executor
/// ships; the closure stays as the in-process path every executor falls
/// back to (fallback attempts, degraded mode, jobs without a payload).
pub struct ShardJob<'a> {
    run: Box<dyn Fn(ShardCtx) -> (Vec<RecordId>, Metrics) + Send + Sync + 'a>,
    wire: Option<Box<dyn Fn() -> Vec<u8> + Send + Sync + 'a>>,
    range: Range<RecordId>,
}

impl<'a> ShardJob<'a> {
    /// Wraps a shard evaluation closure. `run` must be deterministic per
    /// `ShardCtx` and return **global** record ids — the shard's local
    /// skyline, which the ladder checks for minimality whenever a fault
    /// plan is set.
    pub fn new(
        range: Range<RecordId>,
        run: impl Fn(ShardCtx) -> (Vec<RecordId>, Metrics) + Send + Sync + 'a,
    ) -> Self {
        ShardJob {
            run: Box::new(run),
            wire: None,
            range,
        }
    }

    /// Attaches a lazy wire-payload encoder. The bytes must describe a
    /// task whose worker-side evaluation (see [`crate::ipc::worker`])
    /// returns byte-identical records and metrics to the closure at the
    /// same [`ShardCtx`] — that equivalence is what the subprocess
    /// equivalence proptests pin.
    pub fn with_wire(mut self, encode: impl Fn() -> Vec<u8> + Send + Sync + 'a) -> Self {
        self.wire = Some(Box::new(encode));
        self
    }

    /// Encodes the wire payload, if the job carries one.
    pub fn wire_bytes(&self) -> Option<Vec<u8>> {
        self.wire.as_ref().map(|encode| encode())
    }

    /// The global record-id range this shard covers.
    pub fn range(&self) -> Range<RecordId> {
        self.range.clone()
    }
}

/// Retry and fault-injection policy of an executor.
#[derive(Debug, Clone, Copy)]
pub struct ExecPolicy {
    /// Regular-path retry attempts after the first (the ladder runs
    /// `retries + 1` regular attempts, then one scalar-oracle fallback).
    pub retries: u32,
    /// Active fault plan, if any. While one is set, the ladder checks
    /// every job's result for minimality (corruption would otherwise go
    /// unnoticed); fault-free runs skip the oracle pair work.
    pub faults: Option<FaultPlan>,
    /// Per-attempt deadline of the out-of-process executor: a remote
    /// attempt that has not answered within it is killed and retried
    /// (counted in [`Metrics::worker_timeouts`]). `None` uses the
    /// supervisor's generous default. The deadline must never influence
    /// results or counters — only *which recovery path ran* — which is
    /// why in-process executors ignore it entirely and the supervisor's
    /// clock is confined to its own module.
    pub deadline: Option<Duration>,
}

impl ExecPolicy {
    /// Default bounded retry count.
    pub const DEFAULT_RETRIES: u32 = 2;

    /// A policy with the default retry budget and the given plan.
    pub fn with_faults(faults: Option<FaultPlan>) -> ExecPolicy {
        ExecPolicy {
            retries: Self::DEFAULT_RETRIES,
            faults,
            deadline: None,
        }
    }

    /// The same policy with an explicit per-attempt deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ExecPolicy {
        self.deadline = Some(deadline);
        self
    }

    /// The policy with no injection (hence no validation) — what
    /// fault-free production runs use when `TSS_FAULTS` is unset.
    pub fn fault_free() -> ExecPolicy {
        ExecPolicy::with_faults(None)
    }
}

impl Default for ExecPolicy {
    /// Follows the process environment: the [`FaultPlan::active`] plan
    /// when `TSS_FAULTS` is set, fault-free otherwise.
    fn default() -> Self {
        ExecPolicy::with_faults(FaultPlan::active())
    }
}

/// The executor seam of the sharded fronts: evaluates a batch of shard
/// jobs and reports per-shard `Result`s. The in-process implementation is
/// [`ThreadShardExecutor`]; the out-of-process one is
/// [`SubprocessExecutor`](crate::SubprocessExecutor).
pub trait ShardExecutor {
    /// Evaluates every job (order-preserving: result `i` belongs to job
    /// `i`). Implementations must be deterministic — results and metrics
    /// independent of scheduling — and must not let a job's panic escape.
    fn execute(
        &self,
        store: &PointStore,
        domains: &[PoDomain],
        jobs: &[ShardJob<'_>],
    ) -> Vec<Result<ShardOutcome, ShardError>>;
}

/// The in-process [`ShardExecutor`]: scoped OS threads claim shards off
/// an atomic cursor, and each claimed shard runs its full recovery ladder
/// (catch_unwind attempts → bounded retries → scalar-oracle fallback) on
/// the claiming worker. Results are slotted by shard index, so the output
/// — unlike the schedule — is deterministic.
#[derive(Debug, Clone, Copy)]
pub struct ThreadShardExecutor {
    threads: usize,
    policy: ExecPolicy,
}

impl ThreadShardExecutor {
    /// An executor on up to `threads` workers under the environment
    /// policy ([`ExecPolicy::default`]).
    pub fn new(threads: usize) -> ThreadShardExecutor {
        ThreadShardExecutor::with_policy(threads, ExecPolicy::default())
    }

    /// An executor with an explicit policy (tests and the fault-injection
    /// proptests drive plans through here).
    pub fn with_policy(threads: usize, policy: ExecPolicy) -> ThreadShardExecutor {
        ThreadShardExecutor {
            threads: threads.max(1),
            policy,
        }
    }
}

impl ShardExecutor for ThreadShardExecutor {
    fn execute(
        &self,
        store: &PointStore,
        domains: &[PoDomain],
        jobs: &[ShardJob<'_>],
    ) -> Vec<Result<ShardOutcome, ShardError>> {
        claim_shards(
            self.threads,
            jobs.len(),
            || (),
            |(), i| run_in_process(&self.policy, store, domains, i, &jobs[i]),
        )
    }
}

/// What one attempt yields: the records and the attempt's own work
/// counters, or why it failed.
pub(crate) type Attempt = Result<(Vec<RecordId>, Metrics), ShardError>;

/// The one shard scheduler of both executors: up to `threads` scoped
/// threads claim shard indices `0..n` off an atomic cursor, each running
/// `run` with its own state from `init` — nothing in process, one worker
/// process out of process. A single worker runs inline on the caller's
/// thread, and a shard whose thread died is rescued inline on a fresh
/// state. Results are slotted by index, so the output — unlike the
/// schedule — is deterministic.
pub(crate) fn claim_shards<S, R: Send>(
    threads: usize,
    n: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let workers = threads.min(n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|i| run(&mut state, i)).collect();
    }
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // Both executors run the panic-free ladder, so this
                        // write always happens; poisoning is impossible but
                        // handled anyway (a poisoned lock still owns its
                        // data).
                        let r = run(&mut state, i);
                        *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
                    }
                })
            })
            .collect();
        for h in handles {
            // Joining explicitly keeps an (impossible) worker panic from
            // propagating out of the scope; an abandoned shard is
            // rescued inline below instead.
            let _ = h.join();
        }
    });
    let mut rescue = None;
    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| run(rescue.get_or_insert_with(&init), i))
        })
        .collect()
}

/// [`run_ladder`] over the in-process transport: every regular attempt
/// runs the job's closure at the plan's in-process fault sites.
pub(crate) fn run_in_process(
    policy: &ExecPolicy,
    store: &PointStore,
    domains: &[PoDomain],
    shard: usize,
    job: &ShardJob<'_>,
) -> Result<ShardOutcome, ShardError> {
    run_ladder(policy, store, domains, shard, job, |ctx, tally| {
        attempt_in_process(job, ctx, policy.faults.as_ref(), tally)
    })
}

/// The one per-shard recovery ladder: `retries + 1` regular attempts on
/// the store's kernel through `transport`, then one in-process
/// scalar-oracle fallback; never panics, never loses the shard silently.
///
/// `transport` runs one regular attempt — in process or on a worker
/// process — and adds to `tally` what only it sees: `faults_injected`
/// and `ipc_bytes`. Every other recovery tally is kept here (see the
/// module docs) and folded into the successful attempt's metrics.
pub(crate) fn run_ladder(
    policy: &ExecPolicy,
    store: &PointStore,
    domains: &[PoDomain],
    shard: usize,
    job: &ShardJob<'_>,
    mut transport: impl FnMut(ShardCtx, &mut Metrics) -> Attempt,
) -> Result<ShardOutcome, ShardError> {
    let validate = policy.faults.is_some();
    let checked = |ctx: ShardCtx, attempt: Attempt| -> Attempt {
        let (records, metrics) = attempt?;
        if validate {
            if let Some(offender) = validate_minimal(store, domains, &records) {
                let e = ShardError::corrupted(ctx.shard, ctx.attempt, offender);
                return Err(e.with_range(job.range()));
            }
        }
        Ok((records, metrics))
    };
    let mut tally = Metrics::default();
    for attempt in 0..=policy.retries {
        let ctx = ShardCtx {
            shard,
            attempt,
            kernel: store.kernel(),
        };
        match checked(ctx, transport(ctx, &mut tally)) {
            Ok((records, metrics)) => {
                let metrics = metrics.merge(&tally);
                return Ok(ShardOutcome { records, metrics });
            }
            Err(e) => {
                tally.shard_retries += 1;
                match e.kind() {
                    ShardErrorKind::WorkerDied(_) => tally.worker_crashes += 1,
                    ShardErrorKind::WorkerTimeout => tally.worker_timeouts += 1,
                    ShardErrorKind::FrameCorrupted(_) => tally.frames_corrupted += 1,
                    ShardErrorKind::Panicked(_) | ShardErrorKind::Corrupted(_) => {}
                }
            }
        }
    }
    // Last resort: one in-process recompute on the scalar oracle kernel,
    // never injected and never on a worker — a fault-injected run always
    // terminates exactly.
    let ctx = ShardCtx {
        shard,
        attempt: policy.retries + 1,
        kernel: Kernel::Scalar,
    };
    let (records, metrics) = checked(ctx, attempt_in_process(job, ctx, None, &mut tally))?;
    tally.shard_fallbacks = 1;
    let metrics = metrics.merge(&tally);
    Ok(ShardOutcome { records, metrics })
}

/// The in-process transport: one attempt of one shard at `plan`'s
/// in-process fault site (if it fires), the job's closure run under
/// `catch_unwind`.
fn attempt_in_process(
    job: &ShardJob<'_>,
    ctx: ShardCtx,
    plan: Option<&FaultPlan>,
    tally: &mut Metrics,
) -> Attempt {
    let ShardCtx { shard, attempt, .. } = ctx;
    let fault = plan.and_then(|p| p.injects(shard, attempt).map(|kind| (p, kind)));
    if fault.is_some() {
        // Both kinds always fire (corruption degrades to a panic on
        // all-skyline shards), so the site counts up front.
        tally.faults_injected += 1;
    }
    // The closure only touches its own locals and `Fn` (immutable) state;
    // on a panic everything it produced is discarded and the attempt is
    // rerun from scratch, so broken invariants cannot leak.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some((_, FaultKind::Panic)) = fault {
            injected_panic(shard, attempt);
        }
        let (mut records, metrics) = (job.run)(ctx);
        if let Some((plan, FaultKind::Corrupt)) = fault {
            match corruption_target(plan, shard, attempt, &job.range, &records) {
                Some(bogus) => records.push(bogus),
                // Every shard record is locally skyline: no detectably
                // corrupt append exists, degrade to a panic so the
                // planned site still fires.
                None => injected_panic(shard, attempt),
            }
        }
        (records, metrics)
    }))
    .map_err(|payload| {
        ShardError::panicked(shard, attempt, panic_message(payload.as_ref()))
            .with_range(job.range())
    })
}

/// The single deliberate panic site of the workspace's fault injection.
fn injected_panic(shard: usize, attempt: u32) -> ! {
    // lint:allow(panic-path): deliberate fault-injection site — reachable only under an active FaultPlan and always caught by the executor's catch_unwind one frame up
    panic!("injected fault: shard {shard} attempt {attempt}")
}

/// Picks the record the corruption fault appends: a deterministic,
/// hash-chosen member of the shard that is **not** in the local skyline.
/// Any such record is dominated by some local member (dominance is a
/// strict partial order, so every non-maximal record has a maximal — i.e.
/// locally skyline — dominator by transitivity), which is exactly what
/// makes the corruption always detectable by [`validate_minimal`].
/// Returns `None` when the whole shard is skyline.
fn corruption_target(
    plan: &FaultPlan,
    shard: usize,
    attempt: u32,
    range: &Range<RecordId>,
    records: &[RecordId],
) -> Option<RecordId> {
    let len = (range.end - range.start) as usize;
    let mut members: Vec<RecordId> = records
        .iter()
        .copied()
        .filter(|r| range.contains(r))
        .collect();
    members.sort_unstable();
    members.dedup();
    let non_members = len.checked_sub(members.len())?;
    if non_members == 0 {
        return None;
    }
    let pick = (plan.site_hash(shard, attempt, 1) % non_members as u64) as usize;
    let mut seen = 0usize;
    for r in range.clone() {
        if members.binary_search(&r).is_err() {
            if seen == pick {
                return Some(r);
            }
            seen += 1;
        }
    }
    None
}

/// Minimality validation: a local skyline must be *minimal* — no member
/// dominated by another member. Checked record by record with the scalar
/// list loop (a record never dominates its own equal self, so
/// the full list is a valid reference set). Returns the first dominated
/// member found. The oracle pair work is deliberately uncounted — see the
/// module docs.
fn validate_minimal(
    store: &PointStore,
    domains: &[PoDomain],
    records: &[RecordId],
) -> Option<RecordId> {
    for &r in records {
        let (hit, _) = store.t_dominated_by_any(domains, store.to(r), store.po(r), records);
        if hit {
            return Some(r);
        }
    }
    None
}

/// Renders a caught panic payload for [`ShardError::Panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::brute_force_po_skyline;
    use crate::Table;

    fn table(n: u32) -> Table {
        let mut t = Table::new(2, 0);
        for i in 0..n {
            t.push(&[(i * 17) % 50, (i * 31) % 50], &[]);
        }
        t
    }

    /// Brute-force shard jobs over the store's shard views, honoring the
    /// ctx kernel (brute force is kernel-independent, which is fine: the
    /// contract is identical results either way).
    fn brute_jobs<'a>(
        store: &'a Table,
        domains: &'a [PoDomain],
        shards: usize,
    ) -> Vec<ShardJob<'a>> {
        store
            .shards(shards)
            .into_iter()
            .map(|view| {
                ShardJob::new(view.range(), move |_ctx| {
                    let sub = view.to_store();
                    let local: Vec<RecordId> = brute_force_po_skyline(domains, &sub)
                        .into_iter()
                        .map(|r| r + view.start())
                        .collect();
                    let m = Metrics {
                        results: local.len() as u64,
                        ..Metrics::default()
                    };
                    (local, m)
                })
            })
            .collect()
    }

    fn collect(results: Vec<Result<ShardOutcome, ShardError>>) -> (Vec<Vec<RecordId>>, Metrics) {
        let mut locals = Vec::new();
        let mut m = Metrics::default();
        for r in results {
            let o = r.expect("shard recovered");
            m = m.merge(&o.metrics);
            locals.push(o.records);
        }
        (locals, m)
    }

    #[test]
    fn fault_plan_parses_the_env_format() {
        assert_eq!(
            FaultPlan::parse("7:0.35"),
            Some(FaultPlan {
                seed: 7,
                rate_ppm: 350_000
            })
        );
        assert_eq!(FaultPlan::parse("0:1"), Some(FaultPlan::new(0, 1.0)));
        assert_eq!(
            FaultPlan::parse(" 12 : 0.5 "),
            Some(FaultPlan::new(12, 0.5))
        );
        for bad in ["", "7", "x:0.5", "7:1.5", "7:-0.1", "7:zz"] {
            assert_eq!(FaultPlan::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn injection_is_deterministic_and_rate_bounded() {
        let plan = FaultPlan::new(42, 0.5);
        let mut fired = 0usize;
        for shard in 0..64 {
            for attempt in 0..4 {
                let a = plan.injects(shard, attempt);
                assert_eq!(a, plan.injects(shard, attempt), "pure function");
                fired += usize::from(a.is_some());
            }
        }
        // 256 sites at rate 0.5: the pinned hash gives a fixed count in
        // a comfortably wide band.
        assert!((64..=192).contains(&fired), "{fired} of 256 sites fired");
        assert!(FaultPlan::new(7, 0.0).injects(3, 0).is_none());
        assert!(FaultPlan::new(7, 1.0).injects(3, 0).is_some());
        // Both kinds occur.
        let kinds: Vec<FaultKind> = (0..64)
            .filter_map(|s| FaultPlan::new(9, 1.0).injects(s, 0))
            .collect();
        assert!(kinds.contains(&FaultKind::Panic));
        assert!(kinds.contains(&FaultKind::Corrupt));
    }

    #[test]
    fn saturated_faults_recover_to_the_fault_free_answer() {
        let t = table(120);
        let jobs = brute_jobs(&t, &[], 4);
        let clean = ThreadShardExecutor::with_policy(1, ExecPolicy::fault_free());
        let (clean_locals, clean_m) = collect(clean.execute(&t, &[], &jobs));
        // Rate 1.0: every regular attempt of every shard is sabotaged, so
        // every shard walks the whole ladder and lands on the fallback.
        let policy = ExecPolicy::with_faults(Some(FaultPlan::new(1234, 1.0)));
        for threads in [1usize, 2, 4] {
            let exec = ThreadShardExecutor::with_policy(threads, policy);
            let (locals, m) = collect(exec.execute(&t, &[], &jobs));
            assert_eq!(locals, clean_locals, "threads={threads}");
            assert_eq!(m.results, clean_m.results);
            assert_eq!(m.dominance_checks, clean_m.dominance_checks);
            assert_eq!(
                m.shard_retries,
                4 * u64::from(ExecPolicy::DEFAULT_RETRIES + 1)
            );
            assert_eq!(m.shard_fallbacks, 4);
            assert_eq!(m.faults_injected, m.shard_retries);
        }
    }

    #[test]
    fn fault_free_runs_count_nothing() {
        let t = table(60);
        let jobs = brute_jobs(&t, &[], 3);
        let exec = ThreadShardExecutor::with_policy(2, ExecPolicy::fault_free());
        let (_, m) = collect(exec.execute(&t, &[], &jobs));
        assert_eq!(m.shard_retries, 0);
        assert_eq!(m.shard_fallbacks, 0);
        assert_eq!(m.faults_injected, 0);
    }

    /// Forged corrupt jobs: each appends a dominated record of its shard
    /// on regular attempts but behaves on the fallback kernel.
    fn corrupt_jobs(t: &Table) -> Vec<ShardJob<'_>> {
        t.shards(3)
            .into_iter()
            .map(|view| {
                ShardJob::new(view.range(), move |ctx: ShardCtx| {
                    let sub = view.to_store();
                    let mut local: Vec<RecordId> = brute_force_po_skyline(&[], &sub)
                        .into_iter()
                        .map(|r| r + view.start())
                        .collect();
                    if ctx.kernel != Kernel::Scalar {
                        // Sneak in some dominated record of the shard.
                        if let Some(bad) = view.range().find(|r| !local.contains(r)) {
                            local.push(bad);
                        }
                    }
                    (local, Metrics::default())
                })
            })
            .collect()
    }

    #[test]
    fn corruption_is_always_detected() {
        let t = table(90);
        // A zero-rate plan never injects, but arms validation: it must
        // catch every corrupt regular attempt.
        let policy = ExecPolicy::with_faults(Some(FaultPlan::new(3, 0.0)));
        let exec = ThreadShardExecutor::with_policy(2, policy);
        let results = exec.execute(&t, &[], &corrupt_jobs(&t));
        let clean = ThreadShardExecutor::with_policy(1, ExecPolicy::fault_free());
        let (clean_locals, _) = collect(clean.execute(&t, &[], &brute_jobs(&t, &[], 3)));
        for (r, clean_local) in results.into_iter().zip(clean_locals) {
            let o = r.expect("fallback recovers");
            assert_eq!(o.records, clean_local);
            assert_eq!(o.metrics.shard_fallbacks, 1);
            assert_eq!(
                o.metrics.shard_retries,
                u64::from(ExecPolicy::DEFAULT_RETRIES + 1)
            );
        }
    }

    #[test]
    fn unrecoverable_jobs_surface_a_shard_error() {
        let t = table(30);
        let jobs: Vec<ShardJob<'_>> = t
            .shards(2)
            .into_iter()
            .enumerate()
            .map(|(i, view)| {
                ShardJob::new(view.range(), move |_ctx| {
                    if i == 1 {
                        // lint:allow(panic-path): test-only deterministic failure (cfg(test) is ratchet-exempt anyway)
                        panic!("shard {i} is broken on every kernel");
                    }
                    (view.range().collect(), Metrics::default())
                })
            })
            .collect();
        let exec = ThreadShardExecutor::with_policy(2, ExecPolicy::fault_free());
        let results = exec.execute(&t, &[], &jobs);
        assert!(results[0].is_ok());
        match &results[1] {
            Err(e) => {
                assert_eq!(e.shard(), 1);
                assert_eq!(
                    e.attempt(),
                    ExecPolicy::DEFAULT_RETRIES + 1,
                    "failed the fallback too"
                );
                assert_eq!(e.range(), jobs[1].range(), "the error names the shard span");
                match e.kind() {
                    crate::error::ShardErrorKind::Panicked(message) => {
                        assert!(message.contains("broken on every kernel"))
                    }
                    other => unreachable!("expected Panicked, got {other:?}"),
                }
            }
            other => unreachable!("expected Err, got {other:?}"),
        }
    }

    #[test]
    fn corruption_target_is_a_dominated_non_member() {
        let t = table(40);
        let view = t.shards(1)[0];
        let local: Vec<RecordId> = brute_force_po_skyline(&[], &t);
        let plan = FaultPlan::new(5, 1.0);
        let bogus = corruption_target(&plan, 0, 0, &view.range(), &local)
            .expect("mixed shard has non-members");
        assert!(!local.contains(&bogus));
        let (dominated, _) = t.t_dominated_by_any(&[], t.to(bogus), t.po(bogus), &local);
        assert!(dominated, "appended record must be detectable");
        // All-skyline shard: no target exists.
        let mut anti = Table::new(2, 0);
        for i in 0..10u32 {
            anti.push(&[i, 10 - i], &[]);
        }
        let all: Vec<RecordId> = (0..10).collect();
        assert_eq!(
            corruption_target(&plan, 0, 0, &(0..10), &all),
            None,
            "degrades to a panic upstream"
        );
    }
}
