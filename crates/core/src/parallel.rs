//! **Sharded parallel skyline execution** — the first scaling lever of the
//! ROADMAP north star.
//!
//! The skyline operator distributes over unions: the skyline of
//! `S₁ ∪ … ∪ Sₖ` is the skyline of the union of the per-shard skylines.
//! The columnar [`PointStore`] makes the partitioning free —
//! [`PointStore::shards`] hands out zero-copy [`ShardView`] windows over
//! the flat TO/PO blocks — so any exact engine can run per shard on the
//! scoped OS threads of a [`ThreadShardExecutor`] (no extra dependencies,
//! `std::thread::scope` only) and the local skylines are folded back
//! together by [`merge_shard_skylines`], which checks candidates against
//! per-shard key blocks of confirmed members, box first.
//!
//! # Determinism contract
//!
//! Everything observable is **invariant to the worker count**:
//!
//! * the shard boundaries depend only on `(len, shard_count)`, never on
//!   `threads`;
//! * each shard job is self-contained, so its result and [`Metrics`] are
//!   the same on any thread;
//! * the merge phase partitions candidates into equal-score strata — a
//!   partition fixed by the data alone — and each stratum's checks run
//!   against the confirmed prefix *frozen* at stratum start, so every
//!   verdict and every examined-pair count is independent of how the
//!   stratum is chunked across workers; results apply in sorted order.
//!
//! Running the same store with the same shard count at 1, 2 or 4 threads
//! therefore produces byte-identical skyline record-id vectors and
//! identical `dominance_checks` / `dominance_batch_calls` /
//! `merge_pair_checks` — only the wall clock changes. Per-shard and
//! per-stratum metrics are combined with the exact componentwise
//! [`Metrics::merge`], so no count is ever estimated. The merged skyline
//! is emitted in `(score, record id)` order, which does not mention the
//! shard boundaries at all — so the record-id *vector* (not just the set)
//! is also identical across different shard plans, e.g. adaptive vs
//! fixed.
//!
//! # Duplicates across shards
//!
//! Exact duplicates never dominate each other, and every engine in the
//! workspace keeps all copies. Sharding preserves that end to end: each
//! copy is locally skyline in its own shard iff its tuple is globally
//! skyline, and the merge kernels ([`t_dominates`](crate::t_dominates)
//! semantics) treat equal tuples as non-dominating — so the final pass
//! over the concatenated local skylines retains every cross-shard copy of
//! a skyline tuple and no others.
//!
//! # Merge cost, and what contains it
//!
//! Per-shard skylines are supersets of their global contribution (a shard
//! misses dominators living elsewhere), so total work grows with the shard
//! count. The naive fold ([`merge_shard_skylines_all_pairs`]) checks every
//! candidate against every *other* shard's full local skyline —
//! `O(Σᵢ |localᵢ| · Σⱼ≠ᵢ |localⱼ|)` pair checks in the worst case, the
//! last serial section of a sharded run. Two things contain that cost:
//!
//! * **Sorted, parallel merge** ([`merge_shard_skylines`]): candidates are
//!   sorted by the strictly monotone
//!   [`monotone_score`](PointStore::monotone_score) (ties by record id),
//!   so each one needs checking only against the *already-confirmed*
//!   global-skyline prefix of the other shards — an SFS/SaLSa-style
//!   filter. Equal-score candidates can never dominate each other, so
//!   each equal-score stratum is evaluated concurrently (`map_slice`)
//!   against the prefix frozen at stratum start. Per-candidate pair work
//!   is bounded by the all-pairs bound above and is typically a fraction
//!   of it ([`Metrics::merge_pair_checks`] counts it exactly). Each
//!   shard's confirmed prefix is a key block (see the
//!   [`store` docs](crate::PointStore)) and each candidate's key is
//!   computed once, so a check runs box first: only members whose key is
//!   `<=` the candidate's on every dimension reach the exact PO test, in
//!   list order, with the list loop's verdict and pair count.
//! * **One shard per worker** ([`ShardSpec::Adaptive`]): one shard unless
//!   the run has more than one worker, then `min(workers, max)`. Shards
//!   beyond the worker count only run in later waves while every extra
//!   local skyline feeds the merge, and a one-worker run gains nothing
//!   from sharding at all. The count never depends on the data.
//!
//! # Fault tolerance
//!
//! Shard jobs run behind the [`ShardExecutor`] seam: every attempt is
//! panic-isolated (`catch_unwind` lives in the executor module alone),
//! failed shards are retried a bounded number of times and then
//! recomputed on the scalar-oracle kernel path, and a seeded
//! [`FaultPlan`] (`TSS_FAULTS=seed:rate`) can deterministically inject
//! panics and corrupted local skylines to prove the recovery ladder
//! keeps every byte-identity invariant — see the
//! [`executor` docs](ShardExecutor). The sharded front therefore returns
//! `Result<ParallelRun, ShardError>`: an `Err` means a shard failed on
//! *every* path, including the oracle — a real bug, not a transient
//! fault. A [`Budget`] (pair-check units) can bound the
//! total work; an exhausted run reports
//! [`ParallelRun::exhausted`] with a sound confirmed prefix.
//!
//! ```
//! use tss_core::{
//!     sharded_skyline_exec, Budget, ExecPolicy, ShardSpec, Stss, StssConfig, Table,
//! };
//!
//! let mut t = Table::new(2, 0);
//! for (a, b) in [(5, 1), (1, 5), (3, 3), (4, 4), (2, 6), (6, 2)] {
//!     t.push(&[a, b], &[]);
//! }
//! // One sTSS per shard, built on the attempt's kernel so a fallback
//! // recomputes on the scalar oracle.
//! let run_on = |threads| {
//!     sharded_skyline_exec(
//!         &t,
//!         &[],
//!         ShardSpec::Fixed(3),
//!         threads,
//!         ExecPolicy::default(),
//!         Budget::UNLIMITED,
//!         |ctx, view| {
//!             let store = view.to_store().with_kernel(ctx.kernel);
//!             let run = Stss::build(store, vec![], StssConfig::default()).unwrap().run();
//!             (run.skyline_records(), run.metrics)
//!         },
//!     )
//!     .unwrap()
//! };
//! let run = run_on(2);
//! let mut got = run.records.clone();
//! got.sort_unstable();
//! assert_eq!(got, vec![0, 1, 2]);
//! // The same shards at one worker produce the identical result and
//! // counts — threads only change the wall clock.
//! let serial = run_on(1);
//! assert_eq!(serial.records, run.records);
//! assert_eq!(serial.metrics().dominance_checks, run.metrics().dominance_checks);
//! ```

use crate::budget::Budget;
use crate::error::ShardError;
use crate::store::{KeyBlock, PointStore, RecordId, ShardView};
use crate::{Metrics, PoDomain};

pub use crate::executor::{
    ExecPolicy, FaultKind, FaultPlan, ProcessFaultKind, ShardCtx, ShardExecutor, ShardJob,
    ShardOutcome, ThreadShardExecutor,
};

/// Componentwise sum of a set of [`Metrics`] (exact, via
/// [`Metrics::merge`]).
pub fn sum_metrics<'a>(metrics: impl IntoIterator<Item = &'a Metrics>) -> Metrics {
    metrics
        .into_iter()
        .fold(Metrics::default(), |acc, m| acc.merge(m))
}

/// Minimum items per worker before [`map_slice`] bothers spawning.
const MIN_ITEMS_PER_THREAD: usize = 16;

/// Applies `f` to every item of a slice, fanning contiguous chunks out to
/// up to `threads` scoped threads, and returns the results in item order.
/// The chunking never changes what is computed — `f` sees each item
/// exactly once — so any per-item counting embedded in `R` is invariant to
/// the worker count. Small inputs run inline.
pub(crate) fn map_slice<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads
        .max(1)
        .min(items.len().div_ceil(MIN_ITEMS_PER_THREAD));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| (c, s.spawn(|| c.iter().map(&f).collect::<Vec<R>>())))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for (c, h) in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                // A panicked worker loses nothing: its chunk is recomputed
                // inline, in order. A deterministic panic in `f` then
                // resurfaces on the caller's thread — `f`'s own failure —
                // while every other chunk's results survive.
                Err(_) => out.extend(c.iter().map(&f)),
            }
        }
        out
    })
}

/// A resolved shard-count decision: how many shards a sharded run uses
/// and how that number was chosen. [`ShardSpec::resolve`] is the only
/// place an adaptive count is decided; see [`ShardSpec::Adaptive`] for
/// the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shards the run partitions the store into.
    pub shards: usize,
    /// True iff `shards` came from [`ShardSpec::Adaptive`] (false for
    /// fixed / caller-supplied counts).
    pub adaptive: bool,
    /// Worker count the adaptive rule sized the plan for (0 for fixed
    /// plans).
    pub workers: usize,
    /// Always 0: the rule estimates no pair checks. Kept, with
    /// [`est_merge_checks`](Self::est_merge_checks), for readers of the
    /// former planner's estimates (perfbench's `parallel.est_error`).
    pub est_run_checks: u64,
    /// Always 0, like [`est_run_checks`](Self::est_run_checks).
    pub est_merge_checks: u64,
}

impl ShardPlan {
    /// A fixed plan: use exactly `shards` shards (clamped to at least 1).
    pub fn fixed(shards: usize) -> Self {
        ShardPlan {
            shards: shards.max(1),
            adaptive: false,
            workers: 0,
            est_run_checks: 0,
            est_merge_checks: 0,
        }
    }
}

/// How a sharded executor obtains its shard count: a caller-fixed number
/// or one shard per worker under a cap. `usize` converts to `Fixed`, so
/// existing call sites read unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// Use exactly this many shards.
    Fixed(usize),
    /// One shard when `workers <= 1`, else `min(workers, max)` (at least
    /// 1) — see the module docs for why the count follows the workers.
    Adaptive {
        /// Upper bound on the shard count.
        max: usize,
        /// Worker count the run will use. Explicit — not read from the
        /// machine — so a plan is a pure function of `(max, workers)` and
        /// stays byte-identical across `--threads` settings; callers that
        /// want machine-fitted plans pass their observed parallelism.
        workers: usize,
    },
}

impl From<usize> for ShardSpec {
    fn from(shards: usize) -> Self {
        ShardSpec::Fixed(shards)
    }
}

impl ShardSpec {
    /// Resolves the spec into a [`ShardPlan`]. The store and its domains
    /// are not read: the shard count never depends on the data.
    pub fn resolve(self, _store: &PointStore, _domains: &[PoDomain]) -> ShardPlan {
        match self {
            ShardSpec::Fixed(n) => ShardPlan::fixed(n),
            ShardSpec::Adaptive { max, workers } => ShardPlan {
                shards: workers.clamp(1, max.max(1)),
                adaptive: true,
                workers: workers.max(1),
                est_run_checks: 0,
                est_merge_checks: 0,
            },
        }
    }
}

/// Result of a sharded parallel skyline run.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// Global record ids of the merged skyline, in ascending
    /// `(monotone score, record id)` order — the sorted merge's emission
    /// order. The order never mentions shard boundaries, so the vector is
    /// byte-identical across worker counts *and* across shard plans.
    pub records: Vec<RecordId>,
    /// Per-shard local skylines (global ids), before merging.
    pub locals: Vec<Vec<RecordId>>,
    /// Each shard run's own metrics, in shard order.
    pub shard_metrics: Vec<Metrics>,
    /// Metrics of the cross-shard merge phase alone.
    pub merge_metrics: Metrics,
    /// The shard-count decision this run executed under.
    pub plan: ShardPlan,
    /// True iff a [`Budget`] ran out before the merge
    /// finished: [`records`](Self::records) then holds a *sound confirmed
    /// prefix* of the exact merged skyline (every record is truly
    /// skyline; the vector is a prefix of what the unbudgeted run emits).
    /// Always `false` under [`Budget::UNLIMITED`](crate::Budget).
    pub exhausted: bool,
}

impl ParallelRun {
    /// Total metrics: the exact componentwise sum of every shard's local
    /// metrics plus the merge phase, with two deliberate exceptions —
    /// `results` is the *final* merged skyline size (a plain sum would
    /// double-count every shard's local confirmations), and `cpu` is
    /// summed CPU *work* across workers, not wall time — measure wall
    /// clock around the call when reporting speedups.
    pub fn metrics(&self) -> Metrics {
        let mut m = sum_metrics(&self.shard_metrics).merge(&self.merge_metrics);
        m.results = self.records.len() as u64;
        m
    }
}

/// The nominal all-pairs merge cost `Σᵢ |localᵢ| · Σⱼ≠ᵢ |localⱼ|` — the
/// worst-case pair count of [`merge_shard_skylines_all_pairs`] and the
/// bound [`Metrics::merge_pair_checks`] of the sorted merge never exceeds.
pub fn all_pairs_merge_bound(locals: &[Vec<RecordId>]) -> u64 {
    let total: u64 = locals.iter().map(|l| l.len() as u64).sum();
    locals
        .iter()
        .map(|l| l.len() as u64 * (total - l.len() as u64))
        .sum()
}

/// The PR4-era all-pairs merge fold, kept as the reference baseline the
/// sorted merge is equivalence-tested and benchmarked against: a candidate
/// survives iff no *other* shard's local skyline t-dominates it (its own
/// shard already guarantees that). One batched
/// [`t_dominated_by_any`](PointStore::t_dominated_by_any) kernel call per
/// `(candidate, other shard)` pair, early-exiting on the first dominating
/// shard; runs on the calling thread in shard order. Emits survivors in
/// shard-major order; pair work is counted in both `dominance_checks` and
/// [`Metrics::merge_pair_checks`].
pub fn merge_shard_skylines_all_pairs(
    store: &PointStore,
    domains: &[PoDomain],
    locals: &[Vec<RecordId>],
) -> (Vec<RecordId>, Metrics) {
    let mut m = Metrics::default();
    if locals.len() <= 1 {
        let records = locals.first().cloned().unwrap_or_default();
        m.results = records.len() as u64;
        return (records, m);
    }
    let mut records = Vec::new();
    for (i, local) in locals.iter().enumerate() {
        'candidates: for &r in local {
            let (to, po) = (store.to(r), store.po(r));
            for (j, other) in locals.iter().enumerate() {
                if j == i {
                    continue;
                }
                let (hit, examined) = store.t_dominated_by_any(domains, to, po, other);
                m.batch(examined);
                m.merge_pair_checks += examined;
                if hit {
                    continue 'candidates;
                }
            }
            records.push(r);
        }
    }
    m.results = records.len() as u64;
    (records, m)
}

/// Sorted, parallel fold of per-shard local skylines into the global
/// skyline — the SFS/SaLSa idea applied to the merge phase.
///
/// Candidates (the concatenated locals) are sorted by the strictly
/// monotone [`monotone_score`](PointStore::monotone_score), ties broken by
/// record id. Dominators always score strictly lower than their
/// dominatees, so a candidate only needs checking against the
/// **already-confirmed** global-skyline members — and only those from
/// *other* shards (its own shard's local run already cleared it), walked
/// shard by shard with the early-exiting, box-filtered key-block scan (the
/// [`t_dominated_by_any`](PointStore::t_dominated_by_any) list loop under
/// [`Kernel::Scalar`](crate::Kernel::Scalar)). Pair
/// work is therefore bounded by [`all_pairs_merge_bound`] and is usually a
/// fraction of it; every examined pair is counted in `dominance_checks`
/// and [`Metrics::merge_pair_checks`], and each equal-score stratum bumps
/// [`Metrics::merge_strata`].
///
/// Equal-score candidates can never dominate each other (strict
/// monotonicity), so each stratum is evaluated concurrently on up to
/// `threads` workers (`map_slice`) against the per-shard confirmed
/// prefixes *frozen* at stratum start — no intra-stratum reconciliation is
/// needed, survivors apply in sorted order, and every verdict and count is
/// invariant to the worker count. Exact duplicates always tie on score and
/// never dominate, so all cross-shard copies of a skyline tuple survive,
/// exactly as in the all-pairs fold.
///
/// Survivors are emitted in `(score, record id)` order — an order that
/// never mentions shard boundaries, making the returned vector
/// byte-identical across shard plans, not merely set-equal. `locals` hold
/// **global** record ids.
pub fn merge_shard_skylines(
    store: &PointStore,
    domains: &[PoDomain],
    locals: &[Vec<RecordId>],
    threads: usize,
) -> (Vec<RecordId>, Metrics) {
    let (records, m, _) =
        merge_shard_skylines_budgeted(store, domains, locals, threads, Budget::UNLIMITED);
    (records, m)
}

/// [`merge_shard_skylines`] under a [`Budget`] of merge
/// pair checks: the merge stops at the first **stratum boundary** where
/// the accumulated merge `dominance_checks` meet the allowance (the last
/// stratum may overshoot — strata are the indivisible unit of the frozen-
/// prefix parallelism). Returns `(records, metrics, exhausted)`.
///
/// Stopping early is *sound*: any dominator of a candidate scores
/// strictly lower, so it sits in an earlier stratum — either confirmed
/// (and checked against) or itself dominated by a confirmed record that
/// was checked by transitivity. Every emitted record is therefore
/// globally skyline no matter how many later strata were skipped, and
/// the emitted vector is a true prefix of the unbudgeted emission — the
/// anytime guarantee [`ParallelRun::exhausted`] advertises. The stop
/// point depends only on counts, never on threads or clocks, so budgeted
/// runs stay deterministic.
pub fn merge_shard_skylines_budgeted(
    store: &PointStore,
    domains: &[PoDomain],
    locals: &[Vec<RecordId>],
    threads: usize,
    budget: Budget,
) -> (Vec<RecordId>, Metrics, bool) {
    let mut m = Metrics::default();
    let mut exhausted = false;
    let dims = store.to_dims() + store.po_dims();
    // (score, id, shard) per candidate, sorted by (score, id).
    let mut cands: Vec<(u64, RecordId, u32)> = Vec::new();
    for (shard, local) in locals.iter().enumerate() {
        for &r in local {
            cands.push((store.monotone_score(domains, r), r, shard as u32));
        }
    }
    cands.sort_unstable_by_key(|&(score, r, _)| (score, r));
    // Each candidate's transformed key, computed once, in sorted order.
    let mut keys = Vec::with_capacity(cands.len() * dims);
    for &(_, r, _) in &cands {
        store.key_into(domains, r, &mut keys);
    }
    let key = |i: usize| &keys[i * dims..(i + 1) * dims];

    let mut records: Vec<RecordId> = Vec::with_capacity(cands.len());
    // Confirmed global-skyline members per shard, each in ascending score
    // order with its key — the candidate's own shard is skipped during
    // checks.
    let mut confirmed: Vec<KeyBlock> = vec![KeyBlock::new(dims); locals.len()];
    // Candidate positions of the current stratum.
    let mut stratum: Vec<usize> = Vec::new();
    let mut start = 0;
    while start < cands.len() {
        if budget.exhausted_by(m.dominance_checks) {
            exhausted = true;
            break;
        }
        let score = cands[start].0;
        let mut end = start + 1;
        while end < cands.len() && cands[end].0 == score {
            end += 1;
        }
        stratum.clear();
        stratum.extend(start..end);
        m.merge_strata += 1;
        // Frozen-prefix fan-out: every stratum member is checked against
        // the confirmed blocks as of stratum start, so verdicts and counts
        // depend only on the (data-determined) stratum partition.
        let frozen = &confirmed;
        let verdicts = map_slice(threads, &stratum, |&i| {
            let (_, r, shard) = cands[i];
            let po = store.po(r);
            let mut local = Metrics::default();
            let mut dominated = false;
            for (j, other) in frozen.iter().enumerate() {
                if j == shard as usize || other.is_empty() {
                    continue;
                }
                let (hit, examined) = store.t_dominated_by_keys(domains, key(i), po, other);
                local.batch(examined);
                local.merge_pair_checks += examined;
                if hit {
                    dominated = true;
                    break;
                }
            }
            (dominated, local)
        });
        for (&i, (dominated, local)) in stratum.iter().zip(&verdicts) {
            m = m.merge(local);
            if !*dominated {
                let (_, r, shard) = cands[i];
                confirmed[shard as usize].push(r, key(i));
                records.push(r);
            }
        }
        start = end;
    }
    m.results = records.len() as u64;
    (records, m, exhausted)
}

/// The lower-level sharded front: runs prepared [`ShardJob`]s — each
/// already yielding its local skyline as **global** record ids plus its
/// metrics — through a [`ShardExecutor`], then folds the recovered locals
/// with the sorted [`merge_shard_skylines_budgeted`] on `threads`
/// workers. [`sharded_skyline_exec`] and the bench runners are thin fronts
/// over this; the returned plan is the implied fixed one — callers that
/// planned adaptively overwrite [`ParallelRun::plan`].
///
/// The budget is charged against **total** pair work: whatever the shard
/// phase spent is subtracted from the allowance before the merge runs,
/// so an allowance smaller than the shard work yields an (empty but
/// sound) confirmed prefix.
pub fn merge_jobs_exec<E>(
    store: &PointStore,
    domains: &[PoDomain],
    executor: &E,
    threads: usize,
    budget: Budget,
    jobs: Vec<ShardJob<'_>>,
) -> Result<ParallelRun, ShardError>
where
    E: ShardExecutor + ?Sized,
{
    let plan = ShardPlan::fixed(jobs.len());
    let outcomes = executor.execute(store, domains, &jobs);
    let mut locals = Vec::with_capacity(jobs.len());
    let mut shard_metrics = Vec::with_capacity(jobs.len());
    for outcome in outcomes {
        let outcome = outcome?;
        locals.push(outcome.records);
        shard_metrics.push(outcome.metrics);
    }
    let shard_spent: u64 = shard_metrics.iter().map(|m| m.dominance_checks).sum();
    let remaining = match budget.limit() {
        Some(limit) => Budget::pair_checks(limit.saturating_sub(shard_spent)),
        None => Budget::UNLIMITED,
    };
    let (records, merge_metrics, exhausted) =
        merge_shard_skylines_budgeted(store, domains, &locals, threads, remaining);
    Ok(ParallelRun {
        records,
        locals,
        shard_metrics,
        merge_metrics,
        plan,
        exhausted,
    })
}

/// Runs one exact skyline engine per shard behind the fault-tolerant
/// [`ThreadShardExecutor`] and merges the local skylines — the one
/// sharded entry point every engine-specific runner builds on.
///
/// `spec` is resolved first ([`ShardSpec::resolve`]) and the decision is
/// recorded in [`ParallelRun::plan`]. The merged record-id vector is identical
/// whatever the plan resolves to — only the per-shard locals and work
/// counters depend on the partition.
///
/// `run_shard(ctx, view)` evaluates shard [`ctx.shard`](ShardCtx::shard)
/// and returns its local skyline as **shard-local** record ids
/// (`0..view.len()`, e.g. from an engine built over
/// [`ShardView::to_store`]) plus that run's metrics; ids are translated
/// back to global ones here. The closure may be invoked several times
/// per shard — once per recovery attempt — and should honor
/// [`ctx.kernel`](ShardCtx::kernel) so the final-resort fallback really
/// recomputes on the scalar oracle.
///
/// The retry / fault-injection [`ExecPolicy`] and the pair-check
/// [`Budget`] are caller-controlled: [`ExecPolicy::default`] reads the
/// environment, [`Budget::UNLIMITED`] never stops early. The partition is
/// fixed by the plan, so the result is identical for every `threads`
/// value — see the module docs for the full determinism contract.
pub fn sharded_skyline_exec<F>(
    store: &PointStore,
    domains: &[PoDomain],
    spec: ShardSpec,
    threads: usize,
    policy: ExecPolicy,
    budget: Budget,
    run_shard: F,
) -> Result<ParallelRun, ShardError>
where
    F: Fn(ShardCtx, &ShardView<'_>) -> (Vec<RecordId>, Metrics) + Sync,
{
    let plan = spec.resolve(store, domains);
    let views = store.shards(plan.shards);
    let run_shard = &run_shard;
    let jobs: Vec<ShardJob<'_>> = views
        .iter()
        .map(|&view| {
            ShardJob::new(view.range(), move |ctx| {
                let (local, metrics) = run_shard(ctx, &view);
                let global: Vec<RecordId> = local.into_iter().map(|r| r + view.start()).collect();
                (global, metrics)
            })
        })
        .collect();
    let executor = ThreadShardExecutor::with_policy(threads, policy);
    let mut run = merge_jobs_exec(store, domains, &executor, threads, budget, jobs)?;
    run.plan = plan;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::brute_force_po_skyline;
    use crate::{Stss, StssConfig, Table};
    use poset::Dag;

    fn to_only_table(n: u32) -> Table {
        let mut t = Table::new(2, 0);
        for i in 0..n {
            t.push(&[(i * 17) % 50, (i * 31) % 50], &[]);
        }
        t
    }

    /// One sTSS over a TO-only shard, built on the attempt's kernel so the
    /// fallback really recomputes on the scalar oracle.
    fn stss_shard(ctx: ShardCtx, view: &ShardView<'_>) -> (Vec<RecordId>, Metrics) {
        let store = view.to_store().with_kernel(ctx.kernel);
        let run = Stss::build(store, vec![], StssConfig::default())
            .expect("shard build")
            .run();
        (run.skyline_records(), run.metrics)
    }

    /// A TO-only store sharded by `spec`, one sTSS per shard.
    fn sharded_stss(t: &Table, spec: ShardSpec, threads: usize) -> ParallelRun {
        sharded_skyline_exec(
            t,
            &[],
            spec,
            threads,
            ExecPolicy::default(),
            Budget::UNLIMITED,
            stss_shard,
        )
        .unwrap()
    }

    #[test]
    fn map_slice_matches_serial_map() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1usize, 2, 4, 32] {
            assert_eq!(
                map_slice(threads, &items, |&x| x * 3 + 1),
                expect,
                "threads={threads}"
            );
        }
        assert!(map_slice(4, &[] as &[u64], |&x| x).is_empty());
    }

    #[test]
    fn to_only_sharded_equals_whole_run() {
        let t = to_only_table(120);
        let mut expect = brute_force_po_skyline(&[], &t);
        expect.sort_unstable();
        for shards in [1usize, 2, 3, 8] {
            let run = sharded_stss(&t, ShardSpec::Fixed(shards), 2);
            let mut got = run.records.clone();
            got.sort_unstable();
            assert_eq!(got, expect, "shards={shards}");
            assert_eq!(run.locals.len(), shards.min(t.len()));
        }
    }

    #[test]
    fn thread_count_never_changes_results_or_counts() {
        let t = to_only_table(200);
        let baseline = sharded_stss(&t, ShardSpec::Fixed(5), 1);
        for threads in [2usize, 3, 4, 8] {
            let run = sharded_stss(&t, ShardSpec::Fixed(5), threads);
            assert_eq!(run.records, baseline.records, "threads={threads}");
            assert_eq!(run.locals, baseline.locals);
            let (a, b) = (run.metrics(), baseline.metrics());
            assert_eq!(a.dominance_checks, b.dominance_checks);
            assert_eq!(a.dominance_batch_calls, b.dominance_batch_calls);
            assert_eq!(a.io_reads, b.io_reads);
            assert_eq!(a.heap_pops, b.heap_pops);
            assert_eq!(a.results, b.results);
        }
    }

    #[test]
    fn total_metrics_are_the_exact_shard_sum() {
        let t = to_only_table(90);
        let run = sharded_stss(&t, ShardSpec::Fixed(4), 3);
        let total = run.metrics();
        let mut by_hand = run
            .shard_metrics
            .iter()
            .fold(Metrics::default(), |acc, m| acc.merge(m))
            .merge(&run.merge_metrics);
        // `results` alone reports the final skyline, not the double-counting
        // shard sum.
        by_hand.results = run.records.len() as u64;
        assert_eq!(total, by_hand);
        assert_eq!(total.results, run.records.len() as u64);
        assert!(total.dominance_checks > run.merge_metrics.dominance_checks);
        assert_eq!(run.merge_metrics.results, run.records.len() as u64);
    }

    #[test]
    fn cross_shard_duplicates_all_survive() {
        // The same skyline tuple in every shard, plus per-shard fodder it
        // dominates: every copy must come back, nothing else.
        let mut t = Table::new(2, 0);
        for _ in 0..4 {
            t.push(&[1, 1], &[]); // skyline, duplicated across shards
            t.push(&[3, 3], &[]); // dominated
        }
        let run = sharded_stss(&t, ShardSpec::Fixed(4), 2);
        let mut got = run.records.clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 2, 4, 6]);
    }

    /// Per-shard local skylines by brute force — merge-phase tests drive
    /// the merge functions directly with these.
    fn brute_locals(t: &Table, domains: &[PoDomain], shards: usize) -> Vec<Vec<RecordId>> {
        t.shards(shards)
            .iter()
            .map(|v| {
                let sub = v.to_store();
                brute_force_po_skyline(domains, &sub)
                    .into_iter()
                    .map(|r| r + v.start())
                    .collect()
            })
            .collect()
    }

    fn anti_table(n: u32) -> Table {
        // Points on the anti-diagonal: every tuple is skyline.
        let mut t = Table::new(2, 0);
        for i in 0..n {
            t.push(&[i, n - i], &[]);
        }
        t
    }

    #[test]
    fn sorted_merge_equals_all_pairs_and_the_oracle() {
        let dag = Dag::paper_example();
        let domains = vec![PoDomain::new(dag)];
        let mut t = Table::new(2, 1);
        for i in 0..80u32 {
            t.push(&[(i * 13) % 31, (i * 7) % 29], &[i % 9]);
        }
        // Exact duplicates across prospective shard boundaries.
        for _ in 0..3 {
            t.push(&[0, 0], &[0]);
        }
        let mut oracle = brute_force_po_skyline(&domains, &t);
        oracle.sort_unstable();
        for shards in [1usize, 2, 3, 5, 8] {
            let locals = brute_locals(&t, &domains, shards);
            let (old, old_m) = merge_shard_skylines_all_pairs(&t, &domains, &locals);
            let mut old_sorted = old.clone();
            old_sorted.sort_unstable();
            assert_eq!(old_sorted, oracle, "all-pairs shards={shards}");
            for threads in [1usize, 2, 4] {
                let (new, new_m) = merge_shard_skylines(&t, &domains, &locals, threads);
                let mut new_sorted = new.clone();
                new_sorted.sort_unstable();
                assert_eq!(
                    new_sorted, oracle,
                    "sorted shards={shards} threads={threads}"
                );
                assert_eq!(new_m.results, old_m.results);
                assert!(
                    new_m.merge_pair_checks <= all_pairs_merge_bound(&locals),
                    "shards={shards}: {} > bound {}",
                    new_m.merge_pair_checks,
                    all_pairs_merge_bound(&locals)
                );
            }
        }
    }

    #[test]
    fn sorted_merge_is_thread_and_plan_invariant() {
        let t = to_only_table(150);
        let mut baseline: Option<Vec<RecordId>> = None;
        for shards in [1usize, 2, 4, 8] {
            let locals = brute_locals(&t, &[], shards);
            let (r1, m1) = merge_shard_skylines(&t, &[], &locals, 1);
            for threads in [2usize, 4] {
                let (rt, mt) = merge_shard_skylines(&t, &[], &locals, threads);
                assert_eq!(rt, r1, "shards={shards} threads={threads}");
                assert_eq!(mt, m1, "metrics invariant to merge threads");
            }
            // Emission order is (score, id): identical across shard plans.
            match &baseline {
                None => baseline = Some(r1),
                Some(b) => assert_eq!(&r1, b, "plan-independent emission, shards={shards}"),
            }
        }
    }

    #[test]
    fn sorted_merge_beats_all_pairs_on_anti_correlated_locals() {
        // Everything is skyline: the all-pairs fold hits its worst case
        // while the sorted filter only scans the smaller-score confirmed
        // prefix of the other shards.
        let t = anti_table(64);
        let locals = brute_locals(&t, &[], 8);
        let (old, old_m) = merge_shard_skylines_all_pairs(&t, &[], &locals);
        let (new, new_m) = merge_shard_skylines(&t, &[], &locals, 2);
        assert_eq!(old.len(), 64);
        assert_eq!(new.len(), 64);
        assert_eq!(old_m.merge_pair_checks, all_pairs_merge_bound(&locals));
        assert!(
            new_m.merge_pair_checks < old_m.merge_pair_checks,
            "sorted {} !< all-pairs {}",
            new_m.merge_pair_checks,
            old_m.merge_pair_checks
        );
    }

    #[test]
    fn adaptive_executor_matches_fixed_byte_for_byte() {
        let t = to_only_table(200);
        let fixed = sharded_stss(&t, ShardSpec::Fixed(5), 2);
        let adaptive = sharded_stss(&t, ShardSpec::Adaptive { max: 8, workers: 2 }, 2);
        assert!(adaptive.plan.adaptive);
        assert!(!fixed.plan.adaptive);
        assert_eq!(fixed.plan.shards, 5);
        // The sorted merge's (score, id) emission order holds across plans:
        // the full record-id vectors agree, not just the sets.
        assert_eq!(adaptive.records, fixed.records);
    }

    #[test]
    fn sharded_stss_matches_the_po_oracle() {
        // The generic executor with a PO-aware engine per shard: sTSS over
        // the paper domain, sharded four ways.
        let dag = Dag::paper_example();
        let mut t = Table::new(1, 1);
        for i in 0..60u32 {
            t.push(&[(i * 7) % 23], &[i % 9]);
        }
        let domains = vec![PoDomain::new(dag.clone())];
        let mut expect = brute_force_po_skyline(&domains, &t);
        expect.sort_unstable();
        let run = sharded_skyline_exec(
            &t,
            &domains,
            ShardSpec::Fixed(4),
            2,
            ExecPolicy::default(),
            Budget::UNLIMITED,
            |_ctx, view| {
                let stss = Stss::build(view.to_store(), vec![dag.clone()], StssConfig::default())
                    .expect("shard build");
                let r = stss.run();
                (r.skyline_records(), r.metrics)
            },
        )
        .unwrap();
        let mut got = run.records.clone();
        got.sort_unstable();
        assert_eq!(got, expect);
    }
}
