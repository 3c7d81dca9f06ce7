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
//!   against the current skyline with one key-block check, the
//!   [`Kernel`]-dispatched box-then-refine scan every engine uses (see
//!   [`crate::store`]). An undominated arrival *demotes* the members it
//!   dominates — only members scoring strictly above it can be dominated,
//!   by the [`monotone_score`](PointStore::monotone_score) argument, so the
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
//! 2. **Screen** — walk the candidates in `(score, id)` order and check
//!    each against the post-removal skyline, then against the candidates
//!    promoted before it; a candidate that survives both is promoted.
//!    (Sound: dominators sort strictly earlier, so the order sees every
//!    promoted dominator before its dominatees.)
//!
//! # The key block
//!
//! The skyline is a [`KeyBlock`] in ascending record-id order, keyed by
//! [`PointStore::key_into`], so the insert screen and both repair screens
//! are one [`KeyBlock::first_match`] call each. The block stays in step
//! with every mutation: a demotion or a member expiry is one compaction
//! pass, a repair's promotions are one merge pass, and a store compaction
//! renumbers the ids and keeps the keys. Since the block is rewritten in
//! place, it never builds the dimension index the other engines' blocks
//! grow: every check is the list loop under [`Kernel::Scalar`], and under
//! [`Kernel::Lanes`] it returns the list loop's answer and examined-pair
//! count, so results and every counter are identical across kernels.
//!
//! # Reading the skyline
//!
//! [`cursor`](StreamingSkyline::cursor), the one way to read the skyline,
//! materializes a [`StreamingCursor`] that owns a snapshot of the skyline
//! points *and* the store [`generation`](PointStore::generation) it was
//! taken at — iterator invalidation is impossible by construction: later
//! mutations touch the store, never the snapshot, and the stamped
//! generation tells the reader exactly which epoch it is looking at. A
//! snapshot is read once, so the cursor moves each point out to the
//! reader rather than copying it.

use crate::cursor::{ProgressSample, SkylineCursor};
use crate::dominance::t_dominates;
use crate::store::{KeyBlock, PointStore, RecordId};
use crate::stss::SkylinePoint;
use crate::{Metrics, PoDomain};
use skyline::Kernel;

/// When the maintained window retires tuples automatically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WindowPolicy {
    /// No automatic expiry: tuples leave only through explicit
    /// [`expire`](StreamingSkyline::expire) calls. The default.
    #[default]
    Unbounded,
    /// Count-based sliding window: after each insert, the oldest live
    /// tuples are expired until at most `n` remain (`window_n` in the
    /// bench grid's vocabulary).
    Count(usize),
}

/// Configuration of a [`StreamingSkyline`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamingConfig {
    /// Automatic-expiry policy.
    pub window: WindowPolicy,
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
    /// Current skyline of the live window: ascending record ids with their
    /// keys.
    sky: KeyBlock,
    /// Scratch for the key under test.
    key: Vec<u32>,
    /// Cached `monotone_score` per physical record (same indexing as the
    /// store's rows; rebuilt on compaction).
    scores: Vec<u64>,
    /// Skip cursor for [`expire_oldest`](Self::expire_oldest): every
    /// record below it is dead (arrival order equals id order, ids are
    /// append-only).
    oldest: RecordId,
    config: StreamingConfig,
    metrics: Metrics,
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
            sky: KeyBlock::unindexed(to_dims + domains.len()),
            key: Vec::new(),
            domains,
            scores: Vec::new(),
            oldest: 0,
            config,
            metrics: Metrics::default(),
        }
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
        self.sky.ids()
    }

    /// Maintenance metrics accumulated so far (`results` mirrors the
    /// current skyline size).
    pub fn metrics(&self) -> Metrics {
        Metrics {
            results: self.sky.len() as u64,
            ..self.metrics
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
        self.key.clear();
        self.store.key_into(&self.domains, id, &mut self.key);
        let (dominated, examined) =
            self.store
                .t_dominated_by_keys(&self.domains, &self.key, po_row, &self.sky);
        self.metrics.batch(examined);
        if !dominated {
            // Demote the members the arrival dominates. Only members
            // scoring strictly higher can be dominated (the monotone-score
            // stratum bound), and those run through the exact scalar pair
            // primitive — identical under either kernel variant.
            let new_score = self.scores[id as usize];
            let (store, domains, scores) = (&self.store, &self.domains, &self.scores);
            let mut examined = 0u64;
            self.sky.retain(|m, _| {
                if scores[m as usize] <= new_score {
                    return true;
                }
                examined += 1;
                !t_dominates(domains, to_row, po_row, store.to(m), store.po(m))
            });
            self.metrics.batch(examined);
            // Ids are append-only, so the new id keeps the ascending order.
            self.sky.push(id, &self.key);
        }
        if let WindowPolicy::Count(n) = self.config.window {
            while self.store.live_len() > n {
                self.expire_oldest();
            }
        }
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
        if self.sky.ids().binary_search(&id).is_ok() {
            self.sky.retain(|m, _| m != id);
            self.metrics.stream_repairs += 1;
            self.repair(id);
        }
        self.maybe_compact();
        true
    }

    /// Promotes the records whose only skyline dominator was the expired
    /// member `expired` — the module docs walk through the steps and
    /// their correctness.
    fn repair(&mut self, expired: RecordId) {
        let e_score = self.scores[expired as usize];
        // Tombstoned rows stay physically addressable until compaction,
        // so the expired member's coordinates are still readable.
        let (e_to, e_po) = (self.store.to(expired), self.store.po(expired));
        // 1. Stratum-bounded candidate discovery (counted: these are the
        //    candidates a recompute would not get to skip).
        let mut cands: Vec<RecordId> = Vec::new();
        let mut screened = 0u64;
        for p in self.store.live_ids() {
            if self.scores[p as usize] <= e_score || self.sky.ids().binary_search(&p).is_ok() {
                continue;
            }
            screened += 1;
            if t_dominates(
                &self.domains,
                e_to,
                e_po,
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
        // 2. Screen in (score, id) order: the post-removal skyline, then
        //    the candidates promoted so far.
        cands.sort_unstable_by_key(|&p| (self.scores[p as usize], p));
        let mut promoted = KeyBlock::unindexed(self.store.to_dims() + self.store.po_dims());
        for p in cands {
            self.key.clear();
            self.store.key_into(&self.domains, p, &mut self.key);
            let po = self.store.po(p);
            let (hit, ex) = self
                .store
                .t_dominated_by_keys(&self.domains, &self.key, po, &self.sky);
            self.metrics.batch(ex);
            if hit {
                continue;
            }
            let (hit, ex) = self
                .store
                .t_dominated_by_keys(&self.domains, &self.key, po, &promoted);
            self.metrics.batch(ex);
            if !hit {
                promoted.push(p, &self.key);
            }
        }
        self.sky.merge_by_id(&promoted);
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
        // Both lists ascend, so one merge walk renumbers the skyline; the
        // keys do not change.
        let mut si = 0usize;
        for m in self.sky.ids_mut() {
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
        let points: Vec<SkylinePoint> = self
            .sky
            .ids()
            .iter()
            .map(|&r| SkylinePoint {
                record: r,
                to: self.store.to(r).to_vec(),
                po: self.store.po(r).to_vec(),
            })
            .collect();
        StreamingCursor {
            len: points.len(),
            points: points.into_iter(),
            generation: self.store.generation(),
            maintenance: self.metrics(),
        }
    }
}

/// A snapshot cursor over one epoch of a [`StreamingSkyline`].
///
/// Owns its points and the [`generation`](Self::generation) they were
/// taken at; emits them in ascending record-id order, each moved out of
/// the snapshot. `metrics()` reports the *maintenance* metrics at snapshot
/// time with `results` counting the points emitted so far — reading a
/// maintained skyline does no dominance work of its own, the maintenance
/// already paid for it.
pub struct StreamingCursor {
    points: std::vec::IntoIter<SkylinePoint>,
    /// Snapshot size, independent of the read position.
    len: usize,
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
        self.len
    }

    /// True iff the snapshot holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Points emitted so far.
    fn read(&self) -> u64 {
        (self.len - self.points.len()) as u64
    }
}

impl SkylineCursor for StreamingCursor {
    fn next(&mut self) -> Option<SkylinePoint> {
        self.points.next()
    }

    fn metrics(&self) -> Metrics {
        Metrics {
            results: self.read(),
            ..self.maintenance
        }
    }

    fn progress(&self) -> ProgressSample {
        ProgressSample {
            results: self.read(),
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
    fn results_and_counters_are_invariant_across_kernels() {
        let run = |kernel: Kernel| {
            let cfg = StreamingConfig {
                window: WindowPolicy::Count(12),
            };
            let mut s = StreamingSkyline::new(2, domains(), cfg).with_kernel(kernel);
            for i in 0..90u32 {
                let (to, po) = row(i);
                s.insert(&to, &po);
            }
            (s.skyline_records().to_vec(), s.metrics())
        };
        assert_eq!(run(Kernel::Lanes), run(Kernel::Scalar));
    }

    /// The key block stays in step with the skyline through demotions,
    /// member expiries, promotions and compactions: after every operation
    /// of a seeded insert/expire sequence its ids are the skyline's, in
    /// ascending order, and each key is its record's current
    /// [`PointStore::key_into`].
    #[test]
    fn key_block_tracks_the_skyline_through_compactions() {
        let mut state = 0x5eed_u64;
        let mut next = move |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32 % m
        };
        for kernel in [Kernel::Scalar, Kernel::Lanes] {
            let mut s =
                StreamingSkyline::new(2, domains(), StreamingConfig::default()).with_kernel(kernel);
            let mut compactions = 0;
            for _ in 0..600 {
                let len = s.store().len();
                match next(4) {
                    0 | 1 => {
                        s.insert(&[next(12), next(12)], &[next(9)]);
                    }
                    2 => {
                        s.expire_oldest();
                    }
                    _ => {
                        let members = s.skyline_records();
                        if !members.is_empty() {
                            let id = members[next(members.len() as u32) as usize];
                            assert!(s.expire(id));
                        }
                    }
                }
                compactions += usize::from(s.store().len() < len);
                assert_eq!(s.sky.ids(), s.skyline_records());
                assert!(s.sky.ids().windows(2).all(|w| w[0] < w[1]), "ascending ids");
                let mut key = Vec::new();
                for (i, &id) in s.sky.ids().iter().enumerate() {
                    key.clear();
                    s.store().key_into(s.domains(), id, &mut key);
                    assert_eq!(s.sky.key(i), &key[..], "{kernel:?}: key of record {id}");
                }
                assert_matches_recompute(&s);
            }
            assert!(compactions >= 3, "{kernel:?}: {compactions} compactions");
            assert!(s.metrics().stream_repairs > 0);
        }
    }

    #[test]
    fn compaction_translates_every_held_id() {
        // Window 40 over 200 arrivals: 160 expiries, so the half-dead
        // trigger fires repeatedly; the recompute check is rank-based and
        // must stay exact across every renumbering.
        let cfg = StreamingConfig {
            window: WindowPolicy::Count(40),
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
    fn snapshot_cursor_reads_each_point_once() {
        // Anti-correlated TO values under one PO value: all 15 are skyline.
        let mut s = StreamingSkyline::new(2, domains(), StreamingConfig::default());
        for i in 0..15u32 {
            s.insert(&[i, 14 - i], &[0]);
        }
        let mut cur = s.cursor();
        let len = cur.len();
        assert_eq!(len, 15);
        let first = cur.take_k(2);
        assert_eq!((cur.len(), cur.metrics().results), (len, 2));
        assert_eq!(cur.progress().results, 2);
        let pts = [first, cur.take_k(usize::MAX)].concat();
        let records: Vec<RecordId> = pts.iter().map(|p| p.record).collect();
        assert_eq!(records, s.skyline_records());
        assert_eq!(cur.metrics().results, records.len() as u64);
        assert_eq!(cur.len(), len, "len is the snapshot's, not what is left");
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
