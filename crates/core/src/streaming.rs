//! **Streaming skyline maintenance** — delta repair over the
//! epoch-versioned [`PointStore`] instead of recomputation.
//!
//! The paper's engines are one-shot: they assume a frozen relation. A
//! monitoring deployment sees a *stream* — tuples arrive, old tuples leave
//! a sliding window — and recomputing the skyline per update wastes almost
//! all of its work: one arrival or departure perturbs the skyline locally.
//! [`StreamingSkyline`] maintains the exact skyline of the live window
//! under both mutations:
//!
//! * **Insert** ([`insert`](StreamingSkyline::insert)) screens the arrival
//!   against the current skyline with one batched dominance kernel call
//!   (the same [`Kernel`]-dispatched kernels every engine uses). An
//!   undominated arrival *demotes* the members it dominates — only members
//!   scoring strictly above it can be dominated, by the
//!   [`monotone_score`](PointStore::monotone_score) argument, so the
//!   stratum bound skips the rest without a pair check — and joins the
//!   skyline.
//! * **Expiry** ([`expire`](StreamingSkyline::expire)) tombstones the
//!   record in place. A *non-member* leaving never changes the skyline: by
//!   transitivity every non-skyline live record has a skyline dominator,
//!   so nothing was dominated *exclusively* through the departed record. A
//!   *member* leaving triggers a **delta repair**: only records the
//!   expired member t-dominated can be promoted, and a dominator scores
//!   strictly lower, so the candidate search is bounded to the live
//!   non-members scoring strictly above the expired member (the stratum
//!   bound) that fall inside its dominance region — counted in
//!   [`Metrics::repair_candidates`], the number a from-scratch recompute's
//!   `dominance_checks` is compared against.
//!
//! # The repair algorithm
//!
//! Expiring member `e` promotes exactly the live records whose *only*
//! skyline dominator was `e`:
//!
//! 1. **Candidates** — live non-members `p` with
//!    `score(p) > score(e)` that `e` t-dominates. (Complete: a promoted
//!    record was non-skyline before, so it had a skyline dominator; after
//!    the removal it has none, so that dominator was `e`.)
//! 2. **Phase A** (parallel) — screen each candidate against the fixed
//!    post-removal skyline. Candidates are sorted by `(score, id)`,
//!    partitioned into [`StreamingConfig::repair_shards`] chunks (a pure
//!    function of the candidate set — never of the thread count), and each
//!    chunk runs as a [`ShardJob`] through the [`ThreadShardExecutor`], so
//!    repairs inherit the fault ladder (catch_unwind isolation, bounded
//!    retries, scalar-oracle fallback) of every other sharded run.
//! 3. **Phase B** (sequential, deterministic) — walk the surviving
//!    candidates in global `(score, id)` order and screen each against the
//!    previously promoted only; a survivor dominated by an
//!    earlier-promoted record is discarded. (Sound: dominators sort
//!    strictly earlier, so the order sees every promoted dominator before
//!    its dominatees.)
//!
//! Failed attempts' counters are discarded by the executor and the chunk
//! partition is thread-independent, so every counter — including the four
//! `stream_*` counters — is byte-identical across thread counts, shard
//! plans, kernel variants, and fault plans.
//!
//! # Fault injection
//!
//! Repair jobs opt out of the executor ladder's minimality check
//! ([`ShardJob::without_minimality_check`]): their results are promotion
//! candidates, not local skylines, and a chunk may hold a dominance chain.
//! Instead, whenever a repair's outcomes report an injected fault (from
//! the built-in pool's plan or an injected executor's), the merge side
//! re-verifies every returned record against the repair predicate with
//! the scalar oracle (membership, liveness, dominance region,
//! post-removal screen) — uncounted, like the ladder's own validation —
//! so an injected corruption can never promote a wrong record *and*
//! never perturbs the counted work.
//!
//! # Budget bounding
//!
//! The [`Budget`] (e.g. from `TSS_BUDGET`, via
//! [`StreamingConfig::from_env`]) is an **admission-control bound**, in
//! the same pair-check currency as [`BudgetedCursor`](crate::BudgetedCursor):
//! once the accumulated `dominance_checks` spend crosses the allowance,
//! [`budget_exhausted`](StreamingSkyline::budget_exhausted) latches
//! (sticky, like an exhausted cursor). Mutations keep repairing — a repair
//! is an unsplittable unit of correctness, so truncating it would corrupt
//! the maintained skyline — which means the final unit of work may
//! overshoot, exactly as one `next()` may under a budgeted cursor.
//!
//! # Reading the skyline
//!
//! [`cursor`](StreamingSkyline::cursor) materializes a [`StreamingCursor`]
//! that owns a snapshot of the skyline points *and* the store
//! [`generation`](PointStore::generation) it was taken at — iterator
//! invalidation is impossible by construction: later mutations touch the
//! store, never the snapshot, and the stamped generation tells the reader
//! exactly which epoch it is looking at.

use crate::budget::Budget;
use crate::cursor::{SkylineCursor, SkylineEngine};
use crate::dominance::t_dominates;
use crate::executor::{ExecPolicy, ShardExecutor, ShardJob, ThreadShardExecutor};
use crate::ipc::tasks::{encode_screen, screen_part};
use crate::store::{PointStore, RecordId};
use crate::stss::SkylinePoint;
use crate::{Metrics, PoDomain, ProgressSample};
use skyline::Kernel;
use std::sync::Arc;

/// When the maintained window retires tuples automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicy {
    /// No automatic expiry: tuples leave only through explicit
    /// [`expire`](StreamingSkyline::expire) calls.
    Unbounded,
    /// Count-based sliding window: after each insert, the oldest live
    /// tuples are expired until at most `n` remain (`window_n` in the
    /// bench grid's vocabulary).
    Count(usize),
}

/// Configuration of a [`StreamingSkyline`].
#[derive(Debug, Clone, Copy)]
pub struct StreamingConfig {
    /// Automatic-expiry policy.
    pub window: WindowPolicy,
    /// Worker threads repair jobs run on. Results and counters are
    /// identical at any value — this is purely a wall-clock knob.
    pub threads: usize,
    /// Number of chunks a repair's candidate list is partitioned into —
    /// part of the deterministic work plan (like the count of a
    /// [`ShardSpec::Fixed`](crate::parallel::ShardSpec::Fixed)), fixed
    /// independently of `threads`.
    pub repair_shards: usize,
    /// Admission-control pair-check allowance — see the module docs.
    pub budget: Budget,
    /// Retry/fault policy of the built-in repair pool (repairs bring their
    /// own merge-side verification when faults are injected).
    pub exec: ExecPolicy,
}

impl Default for StreamingConfig {
    /// Unbounded window, single-threaded repairs in 4 chunks, no budget,
    /// the environment's fault policy (`TSS_FAULTS`).
    fn default() -> Self {
        StreamingConfig {
            window: WindowPolicy::Unbounded,
            threads: 1,
            repair_shards: 4,
            budget: Budget::UNLIMITED,
            exec: ExecPolicy::default(),
        }
    }
}

impl StreamingConfig {
    /// The default configuration with the `TSS_BUDGET` pair-check
    /// allowance applied when the variable is set to an integer (the
    /// bench runner rejects malformed values loudly; here a malformed
    /// value degrades to [`Budget::UNLIMITED`] so library users cannot be
    /// aborted by a stray environment variable).
    pub fn from_env() -> StreamingConfig {
        let budget = std::env::var("TSS_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map_or(Budget::UNLIMITED, Budget::pair_checks);
        StreamingConfig {
            budget,
            ..StreamingConfig::default()
        }
    }
}

/// Exact skyline maintenance over a mutable window — see the module docs
/// for the algorithm and its invariants.
///
/// The maintained skyline is kept sorted by ascending [`RecordId`];
/// [`skyline_records`](Self::skyline_records) exposes it directly, so the
/// byte-identity contract with a from-scratch recompute on the surviving
/// window is checkable with one slice comparison.
pub struct StreamingSkyline {
    store: PointStore,
    domains: Vec<PoDomain>,
    /// Current skyline of the live window, ascending record ids.
    skyline: Vec<RecordId>,
    /// Cached `monotone_score` per physical record (same indexing as the
    /// store's rows; rebuilt on compaction).
    scores: Vec<u64>,
    /// Skip cursor for [`expire_oldest`](Self::expire_oldest): every
    /// record below it is dead (arrival order equals id order, ids are
    /// append-only).
    oldest: RecordId,
    config: StreamingConfig,
    /// Repair jobs run through this executor when set (e.g. a
    /// [`SubprocessExecutor`](crate::SubprocessExecutor)); the built-in
    /// [`ThreadShardExecutor`] pool otherwise.
    executor: Option<Arc<dyn ShardExecutor + Send + Sync>>,
    metrics: Metrics,
    exhausted: bool,
}

/// Compaction trigger: at least this many tombstones *and* more dead than
/// live rows. Deterministic — a pure function of the operation sequence.
const COMPACT_MIN_DEAD: usize = 64;

impl StreamingSkyline {
    /// An empty maintained skyline over `to_dims` totally ordered
    /// attributes and one partially ordered attribute per domain in
    /// `domains`. The dominance kernel follows the process default
    /// (`TSS_KERNEL`); use [`with_kernel`](Self::with_kernel) to force a
    /// variant.
    pub fn new(to_dims: usize, domains: Vec<PoDomain>, config: StreamingConfig) -> Self {
        StreamingSkyline {
            store: PointStore::new(to_dims, domains.len()),
            domains,
            skyline: Vec::new(),
            scores: Vec::new(),
            oldest: 0,
            config,
            executor: None,
            metrics: Metrics::default(),
            exhausted: false,
        }
    }

    /// Routes repair shard jobs through `executor` instead of the
    /// built-in in-process pool — how streaming maintenance rides the
    /// out-of-process backend. The jobs carry candidate-screen wire
    /// payloads (see [`crate::ipc::tasks`]), so any executor honoring
    /// the [`ShardExecutor`] contract yields byte-identical skylines and
    /// counters. The executor's own policy applies.
    pub fn with_executor(mut self, executor: Arc<dyn ShardExecutor + Send + Sync>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Forces the dominance-kernel variant (results and counters are
    /// identical either way; tests cross-check the variants).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.store.set_kernel(kernel);
        self
    }

    /// The underlying epoch-versioned store (live *and* tombstoned rows).
    pub fn store(&self) -> &PointStore {
        &self.store
    }

    /// The PO domains the maintained dominance is evaluated under.
    pub fn domains(&self) -> &[PoDomain] {
        &self.domains
    }

    /// The store's epoch counter — stamped onto every
    /// [`StreamingCursor`].
    pub fn generation(&self) -> u64 {
        self.store.generation()
    }

    /// Number of live tuples in the window.
    pub fn live_len(&self) -> usize {
        self.store.live_len()
    }

    /// The maintained skyline, ascending record ids.
    pub fn skyline_records(&self) -> &[RecordId] {
        &self.skyline
    }

    /// Maintenance metrics accumulated so far (`results` mirrors the
    /// current skyline size).
    pub fn metrics(&self) -> Metrics {
        Metrics {
            results: self.skyline.len() as u64,
            ..self.metrics
        }
    }

    /// True once the accumulated pair-check spend has crossed the
    /// configured [`Budget`] — sticky, see the module docs.
    pub fn budget_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Latches the budget flag once the spend crosses the allowance.
    fn note_spend(&mut self) {
        if self
            .config
            .budget
            .exhausted_by(self.metrics.dominance_checks)
        {
            self.exhausted = true;
        }
    }

    /// Appends one tuple, maintains the skyline, and applies the window
    /// policy. Returns the new record's id.
    ///
    /// PO values are validated against their domains up front — an
    /// out-of-range id would silently corrupt dominance decisions.
    pub fn insert(&mut self, to_row: &[u32], po_row: &[u32]) -> RecordId {
        for (d, (&v, dom)) in po_row.iter().zip(self.domains.iter()).enumerate() {
            assert!(
                (v as usize) < dom.len(),
                "insert: PO value {v} out of range for domain {d} (size {})",
                dom.len()
            );
        }
        let id = self.store.insert(to_row, po_row);
        self.scores
            .push(self.store.monotone_score(&self.domains, id));
        self.metrics.stream_inserts += 1;
        let (dominated, examined) =
            self.store
                .t_dominated_by_any(&self.domains, to_row, po_row, &self.skyline);
        self.metrics.batch(examined);
        if !dominated {
            // Demote the members the arrival dominates. Only members
            // scoring strictly higher can be dominated (the monotone-score
            // stratum bound), and those run through the exact scalar pair
            // primitive — identical under either kernel variant.
            let new_score = self.scores[id as usize];
            let (store, domains, scores) = (&self.store, &self.domains, &self.scores);
            let mut examined = 0u64;
            self.skyline.retain(|&m| {
                if scores[m as usize] <= new_score {
                    return true;
                }
                examined += 1;
                !t_dominates(domains, to_row, po_row, store.to(m), store.po(m))
            });
            self.metrics.batch(examined);
            // Ids are append-only, so the new id keeps the ascending order.
            self.skyline.push(id);
        }
        if let WindowPolicy::Count(n) = self.config.window {
            while self.store.live_len() > n {
                self.expire_oldest();
            }
        }
        self.note_spend();
        id
    }

    /// Expires the oldest live tuple (FIFO — arrival order is id order),
    /// returning its id, or `None` on an empty window.
    pub fn expire_oldest(&mut self) -> Option<RecordId> {
        while (self.oldest as usize) < self.store.len() && !self.store.is_live(self.oldest) {
            self.oldest += 1;
        }
        if (self.oldest as usize) >= self.store.len() {
            return None;
        }
        let id = self.oldest;
        self.expire(id);
        Some(id)
    }

    /// Tombstones record `id` and repairs the skyline if a member left.
    /// Returns `true` iff the record was live; an id at or past the
    /// store's [`len`](PointStore::len) never was, so it moves no counter
    /// and no generation. A departing *non-member*
    /// never changes the skyline: its dominatees all keep a skyline
    /// dominator by transitivity, so no promotion search is needed.
    pub fn expire(&mut self, id: RecordId) -> bool {
        if !self.store.expire(id) {
            return false;
        }
        self.metrics.stream_expirations += 1;
        if let Ok(pos) = self.skyline.binary_search(&id) {
            self.skyline.remove(pos);
            self.metrics.stream_repairs += 1;
            self.repair(id);
        }
        self.maybe_compact();
        self.note_spend();
        true
    }

    /// Promotes the records whose only skyline dominator was the expired
    /// member `expired` — the module docs walk through phases and
    /// correctness.
    fn repair(&mut self, expired: RecordId) {
        let e_score = self.scores[expired as usize];
        // Tombstoned rows stay physically addressable until compaction,
        // so the expired member's coordinates are still readable; own
        // them, the store is about to be borrowed by the jobs.
        let e_to = self.store.to(expired).to_vec();
        let e_po = self.store.po(expired).to_vec();
        // 1. Stratum-bounded candidate discovery (counted: these are the
        //    candidates a recompute would not get to skip).
        let mut cands: Vec<RecordId> = Vec::new();
        let mut screened = 0u64;
        for p in self.store.live_ids() {
            if self.scores[p as usize] <= e_score || self.skyline.binary_search(&p).is_ok() {
                continue;
            }
            screened += 1;
            if t_dominates(
                &self.domains,
                &e_to,
                &e_po,
                self.store.to(p),
                self.store.po(p),
            ) {
                cands.push(p);
            }
        }
        self.metrics.repair_candidates += screened;
        self.metrics.batch(screened);
        if cands.is_empty() {
            return;
        }
        // 2. Phase A: deterministic chunks over the (score, id)-sorted
        //    candidates, one executor job per chunk — the partition is a
        //    pure function of the candidate set, never of `threads`.
        cands.sort_unstable_by_key(|&p| (self.scores[p as usize], p));
        let shards = self.config.repair_shards.clamp(1, cands.len());
        let parts: Vec<&[RecordId]> = cands.chunks(cands.len().div_ceil(shards)).collect();
        let (store, domains, skyline) = (&self.store, &self.domains, &self.skyline);
        let jobs: Vec<ShardJob<'_>> = parts
            .iter()
            .map(|&part| {
                // The id span is the scope fault injection corrupts within.
                let lo = part.iter().copied().min().unwrap_or(0);
                let hi = part.iter().copied().max().unwrap_or(0);
                // The closure honors the attempt's kernel (the fallback
                // runs the scalar oracle path; kernel equivalence keeps
                // records and counters identical); the wire payload ships
                // the same screen to a worker process — both sides call
                // `screen_one` on the same rows, in the same order.
                // Survivors are promotion candidates, not a local skyline:
                // they are verified below instead.
                ShardJob::new(lo..hi + 1, move |ctx| {
                    screen_part(store, domains, ctx.kernel, skyline, part)
                })
                .with_wire(move || encode_screen(store, domains, skyline, part))
                .without_minimality_check()
            })
            .collect();
        let pool = ThreadShardExecutor::with_policy(self.config.threads, self.config.exec);
        let exec: &dyn ShardExecutor = match self.executor.as_deref() {
            Some(e) => e,
            None => &pool,
        };
        let results = exec.execute(&self.store, &self.domains, &jobs);
        drop(jobs);
        let mut survivors: Vec<RecordId> = Vec::new();
        let mut gathered = Metrics::default();
        for (r, part) in results.into_iter().zip(parts) {
            match r {
                Ok(o) => {
                    gathered = gathered.merge(&o.metrics);
                    survivors.extend(o.records);
                }
                Err(_) => {
                    // Unreachable with either built-in executor (the
                    // uninjected in-process scalar fallback of a panic-free
                    // job always succeeds), but another executor may fail
                    // a shard: recompute the chunk inline so no repair is
                    // ever dropped.
                    let (alive, m) = screen_part(store, domains, Kernel::Scalar, skyline, part);
                    gathered = gathered.merge(&m);
                    survivors.extend(alive);
                }
            }
        }
        self.metrics = self.metrics.merge(&gathered);
        if gathered.faults_injected > 0 {
            // Merge-side verification whenever an attempt was injected,
            // whichever executor's plan did it: an injected corruption
            // appends an arbitrary in-range record, so re-check the full
            // repair predicate with the scalar oracle. Uncounted,
            // like the ladder's own validation — recovery overhead must
            // not perturb the byte-identity contract with fault-free runs.
            let (store, domains, skyline) = (&self.store, &self.domains, &self.skyline);
            survivors.retain(|&p| {
                (p as usize) < store.len()
                    && store.is_live(p)
                    && skyline.binary_search(&p).is_err()
                    && t_dominates(domains, &e_to, &e_po, store.to(p), store.po(p))
                    && !store
                        .t_dominated_by_any_oracle(domains, store.to(p), store.po(p), skyline)
                        .0
            });
        }
        // 3. Phase B: global (score, id) order; the sort also restores the
        //    order and dedups anything a corruption duplicated.
        survivors.sort_unstable_by_key(|&p| (self.scores[p as usize], p));
        survivors.dedup();
        let mut promoted: Vec<RecordId> = Vec::new();
        for &p in &survivors {
            let (hit, ex) = self.store.t_dominated_by_any(
                &self.domains,
                self.store.to(p),
                self.store.po(p),
                &promoted,
            );
            self.metrics.batch(ex);
            if !hit {
                promoted.push(p);
            }
        }
        self.skyline.extend(promoted);
        self.skyline.sort_unstable();
    }

    /// Compacts the store once tombstones outnumber live rows (and exceed
    /// [`COMPACT_MIN_DEAD`]), translating every id the maintainer holds
    /// through the survivor map. Live order is preserved, so the skyline
    /// stays ascending.
    fn maybe_compact(&mut self) {
        let dead = self.store.len() - self.store.live_len();
        if dead < COMPACT_MIN_DEAD || dead * 2 < self.store.len() {
            return;
        }
        let survivors = self.store.compact();
        // Both lists ascend, so one merge walk renumbers the skyline.
        let mut si = 0usize;
        for m in &mut self.skyline {
            while si < survivors.len() && survivors[si] < *m {
                si += 1;
            }
            debug_assert!(
                si < survivors.len() && survivors[si] == *m,
                "skyline id live"
            );
            *m = si as RecordId;
        }
        self.scores = survivors
            .iter()
            .map(|&old| self.scores[old as usize])
            .collect();
        self.oldest = survivors.partition_point(|&s| s < self.oldest) as RecordId;
    }

    /// Materializes a generation-stamped snapshot cursor over the current
    /// skyline. The cursor owns its points: later mutations cannot
    /// invalidate it, by construction.
    pub fn cursor(&self) -> StreamingCursor {
        let points = self
            .skyline
            .iter()
            .map(|&r| SkylinePoint {
                record: r,
                to: self.store.to(r).to_vec(),
                po: self.store.po(r).to_vec(),
            })
            .collect();
        StreamingCursor {
            points,
            pos: 0,
            generation: self.store.generation(),
            maintenance: self.metrics(),
        }
    }
}

impl SkylineEngine for StreamingSkyline {
    fn name(&self) -> &str {
        "streaming"
    }

    fn open(&self) -> Box<dyn SkylineCursor + '_> {
        Box::new(self.cursor())
    }
}

/// A snapshot cursor over one epoch of a [`StreamingSkyline`].
///
/// Owns its points and the [`generation`](Self::generation) they were
/// taken at; emits them in ascending record-id order. `metrics()` reports
/// the *maintenance* metrics at snapshot time with `results` counting the
/// points emitted so far — reading a maintained skyline does no dominance
/// work of its own, the maintenance already paid for it.
pub struct StreamingCursor {
    points: Vec<SkylinePoint>,
    pos: usize,
    generation: u64,
    maintenance: Metrics,
}

impl StreamingCursor {
    /// The store epoch this snapshot was taken at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of points in the snapshot (independent of the read
    /// position).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the snapshot holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl SkylineCursor for StreamingCursor {
    fn next(&mut self) -> Option<SkylinePoint> {
        let p = self.points.get(self.pos).cloned();
        self.pos += usize::from(p.is_some());
        p
    }

    fn metrics(&self) -> Metrics {
        Metrics {
            results: self.pos as u64,
            ..self.maintenance
        }
    }

    fn progress(&self) -> ProgressSample {
        ProgressSample {
            results: self.pos as u64,
            elapsed_cpu: std::time::Duration::ZERO,
            io_reads: self.maintenance.io_reads,
            dominance_checks: self.maintenance.dominance_checks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::brute_force_po_skyline;
    use crate::parallel::FaultPlan;
    use crate::Table;
    use poset::Dag;

    fn domains() -> Vec<PoDomain> {
        vec![PoDomain::new(Dag::paper_example())]
    }

    /// The maintained skyline must equal a from-scratch recompute on the
    /// surviving window — compared by *rank in live order*, so the check
    /// is compaction-proof (compaction renumbers but preserves order).
    fn assert_matches_recompute(s: &StreamingSkyline) {
        let mut window = Table::new(s.store().to_dims(), s.store().po_dims());
        let live: Vec<RecordId> = s.store().live_ids().collect();
        for &id in &live {
            window.push(s.store().to(id), s.store().po(id));
        }
        let expect: Vec<RecordId> = brute_force_po_skyline(s.domains(), &window)
            .into_iter()
            .map(|local| live[local as usize])
            .collect();
        assert_eq!(s.skyline_records(), &expect[..]);
        assert_eq!(s.metrics().results, expect.len() as u64);
    }

    /// A deterministic pseudo-random row (no RNG in tests either).
    fn row(i: u32) -> ([u32; 2], [u32; 1]) {
        ([(i * 17) % 23, (i * 31) % 19], [(i * 7) % 9])
    }

    #[test]
    fn inserts_maintain_the_exact_skyline() {
        let mut s = StreamingSkyline::new(2, domains(), StreamingConfig::default());
        for i in 0..40u32 {
            let (to, po) = row(i);
            let id = s.insert(&to, &po);
            assert_eq!(id, i);
            assert_matches_recompute(&s);
        }
        assert_eq!(s.metrics().stream_inserts, 40);
        assert_eq!(s.metrics().stream_expirations, 0);
        assert_eq!(s.generation(), 40, "one epoch per insert");
    }

    #[test]
    fn expiries_repair_instead_of_recomputing() {
        let mut s = StreamingSkyline::new(2, domains(), StreamingConfig::default());
        for i in 0..30u32 {
            let (to, po) = row(i);
            s.insert(&to, &po);
        }
        // Expire everything in a scrambled but deterministic order.
        let mut repairs = 0u64;
        for k in 0..30u32 {
            let id = (k * 11) % 30;
            let was_member = s.skyline_records().binary_search(&id).is_ok();
            assert!(s.expire(id));
            assert!(!s.expire(id), "double expiry is a no-op");
            repairs += u64::from(was_member);
            assert_matches_recompute(&s);
        }
        assert_eq!(s.live_len(), 0);
        assert!(s.skyline_records().is_empty());
        assert_eq!(s.metrics().stream_expirations, 30);
        assert_eq!(s.metrics().stream_repairs, repairs);
        assert!(repairs > 0, "some expiry must have hit a member");
    }

    #[test]
    fn non_member_expiry_is_counter_free() {
        let mut s = StreamingSkyline::new(1, domains(), StreamingConfig::default());
        s.insert(&[1], &[0]); // member

        // An id at or past the store's `len()` was never live: no panic,
        // no counter, no generation bump.
        let (generation, before) = (s.generation(), s.metrics());
        for id in [1, 7, RecordId::MAX] {
            assert!(!s.expire(id), "id {id}");
        }
        assert_eq!((s.generation(), s.metrics()), (generation, before));
        s.insert(&[5], &[0]); // dominated
        let before = s.metrics();
        assert!(s.expire(1));
        let after = s.metrics();
        assert_eq!(after.stream_repairs, 0);
        assert_eq!(after.repair_candidates, 0);
        assert_eq!(
            after.dominance_checks, before.dominance_checks,
            "a departing non-member needs no promotion search at all"
        );
        assert_matches_recompute(&s);
        // Expire dominated records until a compaction renumbers the store:
        // the last id handed out then lies past `len()`.
        for v in 0..2 * COMPACT_MIN_DEAD as u32 {
            s.insert(&[10 + v], &[0]);
        }
        let len = s.store().len();
        let mut next = 2;
        while s.store().len() == len {
            assert!(s.expire(next));
            next += 1;
        }
        let past = len as RecordId - 1;
        assert!(past as usize >= s.store().len());
        let (generation, before) = (s.generation(), s.metrics());
        assert!(!s.expire(past));
        assert_eq!((s.generation(), s.metrics()), (generation, before));
        assert_matches_recompute(&s);
    }

    #[test]
    fn sliding_window_policy_evicts_fifo() {
        let cfg = StreamingConfig {
            window: WindowPolicy::Count(8),
            ..StreamingConfig::default()
        };
        let mut s = StreamingSkyline::new(2, domains(), cfg);
        for i in 0..50u32 {
            let (to, po) = row(i);
            s.insert(&to, &po);
            assert!(s.live_len() <= 8);
            assert_matches_recompute(&s);
        }
        assert_eq!(s.live_len(), 8);
        assert_eq!(s.metrics().stream_expirations, 42, "50 arrivals, window 8");
        // Oldest live record is arrival 42.
        assert!(s
            .store()
            .live_ids()
            .next()
            .is_some_and(|id| { s.store().to(id) == row(42).0 && s.store().po(id) == row(42).1 }));
    }

    #[test]
    fn results_and_counters_are_invariant_across_threads_shards_and_kernels() {
        let run = |threads: usize, shards: usize, kernel: Kernel| {
            let cfg = StreamingConfig {
                window: WindowPolicy::Count(12),
                threads,
                repair_shards: shards,
                ..StreamingConfig::default()
            };
            let mut s = StreamingSkyline::new(2, domains(), cfg).with_kernel(kernel);
            for i in 0..90u32 {
                let (to, po) = row(i);
                s.insert(&to, &po);
            }
            (s.skyline_records().to_vec(), s.metrics())
        };
        let reference = run(1, 1, Kernel::Scalar);
        for threads in [1usize, 2, 4] {
            for shards in [1usize, 3, 8] {
                for kernel in [Kernel::Scalar, Kernel::Lanes] {
                    assert_eq!(
                        run(threads, shards, kernel),
                        reference,
                        "threads={threads} shards={shards} {kernel:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_injection_is_invisible_to_the_maintained_state() {
        // `on_executor`: the plan arms an injected executor while the
        // config stays fault-free, so only the repair outcomes can tell
        // the maintainer that faults were injected.
        let run = |faults: Option<FaultPlan>, threads: usize, on_executor: bool| {
            let policy = ExecPolicy::with_faults(faults);
            let cfg = StreamingConfig {
                window: WindowPolicy::Count(10),
                threads,
                repair_shards: 3,
                exec: if on_executor {
                    ExecPolicy::fault_free()
                } else {
                    policy
                },
                ..StreamingConfig::default()
            };
            let mut s = StreamingSkyline::new(2, domains(), cfg);
            if on_executor {
                s = s.with_executor(Arc::new(ThreadShardExecutor::with_policy(threads, policy)));
            }
            for i in 0..70u32 {
                let (to, po) = row(i);
                s.insert(&to, &po);
                assert_matches_recompute(&s);
            }
            (s.skyline_records().to_vec(), s.metrics())
        };
        let (clean_sky, clean_m) = run(None, 1, false);
        for (threads, on_executor) in [(1usize, false), (3, false), (1, true), (3, true)] {
            let (sky, m) = run(Some(FaultPlan::new(7, 1.0)), threads, on_executor);
            assert_eq!(
                sky, clean_sky,
                "threads={threads} on_executor={on_executor}"
            );
            // Work counters match the fault-free run bit for bit; only the
            // recovery counters report what the ladder absorbed.
            assert_eq!(m.dominance_checks, clean_m.dominance_checks);
            assert_eq!(m.dominance_batch_calls, clean_m.dominance_batch_calls);
            assert_eq!(m.repair_candidates, clean_m.repair_candidates);
            assert_eq!(m.stream_repairs, clean_m.stream_repairs);
            assert!(m.faults_injected > 0, "the saturated plan must fire");
        }
    }

    #[test]
    fn compaction_translates_every_held_id() {
        // Window 40 over 200 arrivals: 160 expiries, so the half-dead
        // trigger fires repeatedly; the recompute check is rank-based and
        // must stay exact across every renumbering.
        let cfg = StreamingConfig {
            window: WindowPolicy::Count(40),
            ..StreamingConfig::default()
        };
        let mut s = StreamingSkyline::new(2, domains(), cfg);
        for i in 0..200u32 {
            let (to, po) = row(i);
            s.insert(&to, &po);
            assert_matches_recompute(&s);
        }
        assert!(
            s.store().len() < 200,
            "compaction must have dropped tombstones (physical rows: {})",
            s.store().len()
        );
        // FIFO expiry still works after renumbering.
        let before = s.live_len();
        s.expire_oldest();
        assert_eq!(s.live_len(), before - 1);
        assert_matches_recompute(&s);
    }

    #[test]
    fn budget_flag_is_sticky_and_never_truncates_repairs() {
        let cfg = StreamingConfig {
            window: WindowPolicy::Count(6),
            budget: Budget::pair_checks(10),
            ..StreamingConfig::default()
        };
        let mut s = StreamingSkyline::new(2, domains(), cfg);
        for i in 0..40u32 {
            let (to, po) = row(i);
            s.insert(&to, &po);
            // Correctness is never traded for the allowance.
            assert_matches_recompute(&s);
        }
        assert!(s.budget_exhausted(), "10 pair checks cannot cover 40 rows");
        assert!(
            s.metrics().dominance_checks >= 10,
            "the flag latches at the crossing"
        );
    }

    #[test]
    fn snapshot_cursor_survives_later_mutations() {
        let mut s = StreamingSkyline::new(2, domains(), StreamingConfig::default());
        for i in 0..25u32 {
            let (to, po) = row(i);
            s.insert(&to, &po);
        }
        let gen = s.generation();
        let mut cur = s.cursor();
        assert_eq!(cur.generation(), gen);
        let frozen: Vec<RecordId> = s.skyline_records().to_vec();
        // Mutate heavily underneath the open cursor.
        for i in 25..60u32 {
            let (to, po) = row(i);
            s.insert(&to, &po);
            s.expire_oldest();
        }
        assert_ne!(s.generation(), gen, "the store moved on");
        let read: Vec<RecordId> = std::iter::from_fn(|| cur.next())
            .map(|p| p.record)
            .collect();
        assert_eq!(read, frozen, "the snapshot is immune by construction");
        assert!(cur.next().is_none(), "exhausted cursors stay exhausted");
        assert_eq!(cur.metrics().results, frozen.len() as u64);
    }

    #[test]
    fn engine_trait_reads_a_snapshot() {
        let mut s = StreamingSkyline::new(2, domains(), StreamingConfig::default());
        for i in 0..15u32 {
            let (to, po) = row(i);
            s.insert(&to, &po);
        }
        assert_eq!(s.name(), "streaming");
        let (pts, m) = s.collect_skyline();
        let records: Vec<RecordId> = pts.iter().map(|p| p.record).collect();
        assert_eq!(records, s.skyline_records());
        assert_eq!(m.results, records.len() as u64);
        for p in &pts {
            assert_eq!(p.to, s.store().to(p.record));
            assert_eq!(p.po, s.store().po(p.record));
        }
    }

    #[test]
    fn repair_candidates_stay_below_a_recompute() {
        // Even on this small stream, the stratum + dominance-region bound
        // must examine strictly fewer candidates than from-scratch
        // recomputes at every skyline-changing expiry would check.
        let cfg = StreamingConfig {
            window: WindowPolicy::Count(16),
            ..StreamingConfig::default()
        };
        let mut s = StreamingSkyline::new(2, domains(), cfg);
        let mut recompute_checks = 0u64;
        for i in 0..120u32 {
            let (to, po) = row(i);
            let repairs_before = s.metrics().stream_repairs;
            s.insert(&to, &po);
            if s.metrics().stream_repairs > repairs_before {
                // What a recompute engine would pay at this step: one
                // sorted-filter pass over the surviving window.
                let mut window = Table::new(2, 1);
                for id in s.store().live_ids() {
                    window.push(s.store().to(id), s.store().po(id));
                }
                let doms = domains();
                let mut ids: Vec<RecordId> = (0..window.len() as RecordId).collect();
                ids.sort_unstable_by_key(|&r| (window.monotone_score(&doms, r), r));
                let mut confirmed: Vec<RecordId> = Vec::new();
                for &r in &ids {
                    let (hit, ex) =
                        window.t_dominated_by_any(&doms, window.to(r), window.po(r), &confirmed);
                    recompute_checks += ex;
                    if !hit {
                        confirmed.push(r);
                    }
                }
            }
        }
        let m = s.metrics();
        assert!(m.stream_repairs > 0, "the stream must exercise repairs");
        assert!(
            m.repair_candidates < recompute_checks,
            "delta repair examined {} candidates, recomputing would have checked {}",
            m.repair_candidates,
            recompute_checks
        );
    }
}
