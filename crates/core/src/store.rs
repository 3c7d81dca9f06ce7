//! The columnar tuple store every engine computes on.
//!
//! A [`PointStore`] keeps the totally ordered coordinates and the partially
//! ordered value ids of all tuples in two flat `Vec<u32>` blocks with fixed
//! strides (`to_dims` / `po_dims`), indexed by [`RecordId`]. There are zero
//! per-tuple allocations: multi-million-tuple workloads cost two
//! allocations total, slice access by record id is `O(1)`, and a dominance
//! scan over a candidate list walks memory linearly.
//!
//! The batched kernels below test one candidate against a whole block of
//! records: the TO comparison is branch-free per pair (flag accumulation
//! instead of per-dimension exits), rows early-exit on the first dominator,
//! and every kernel returns `(answer, pairs_examined)` where one examined
//! pair equals one scalar [`t_dominates`] call of the seed implementation —
//! so the batched counts are never larger than the scalar loop's.
//!
//! Like [`skyline::PointBlock`], each kernel exists in a scalar and a
//! lane-chunked variant behind one signature, selected by the store's
//! [`Kernel`]: the lane path gathers [`LANES`] TO rows per iteration into a
//! dimension-major scratch and resolves the `le`/`lt` masks vectorially,
//! while the PO part of each surviving lane runs through the exact scalar
//! tail in record order — results *and* examined-pair counts are identical
//! across variants on every input.
//!
//! `Table` (the facade name the paper-facing API keeps) is an alias of this
//! type.

use crate::dominance::{po_tail, t_dominates};
use crate::{CoreError, PoDomain};
use skyline::{Kernel, LANES};

/// Widest TO stride the id-gather lane kernels transpose through their
/// stack scratch (matches the `PointBlock` limit); wider stores take the
/// scalar path.
const LANE_MAX_DIMS: usize = 16;

/// Index of a tuple in a [`PointStore`] — the currency engines trade in.
pub type RecordId = u32;

/// Digest of one tuple's attribute values, the key of sTSS's
/// duplicate-completion multimap (hash -> records, resolved against the
/// store by slice comparison).
///
/// Hashed with [`poset::Fnv64`] — fixed published constants — rather than
/// `DefaultHasher`, whose algorithm is explicitly unspecified across rustc
/// releases: the digest *values* must survive toolchain bumps so that
/// anything derived from them (golden numbers, persisted fingerprints) is
/// stable. Note the maps keyed on these digests are probe-only — never
/// iterate one expecting a deterministic order; `HashMap`'s iteration
/// order stays randomized per instance regardless of the hasher used for
/// the key values.
pub(crate) fn row_hash(to: &[u32], po: &[u32]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = poset::Fnv64::new();
    to.hash(&mut h);
    po.hash(&mut h);
    h.finish()
}

/// A skyline input relation: `n` tuples with `to_dims` totally ordered
/// integer attributes (smaller is better) and `po_dims` partially ordered
/// attributes stored as value ids into their domain DAGs, both held as
/// flat row-major blocks.
/// # Epoch-versioned mutation
///
/// The store doubles as the mutable substrate of
/// [`StreamingSkyline`](crate::StreamingSkyline): [`insert`](Self::insert)
/// appends to the flat blocks (record ids are append-only, never reused),
/// [`expire`](Self::expire) retires a record into a tombstone bitmap
/// without moving a byte, and [`compact`](Self::compact) rewrites the
/// blocks densely when the tombstone fraction warrants it. Every mutation
/// bumps a [`generation`](Self::generation) counter, so readers can
/// snapshot a generation and detect staleness instead of observing torn
/// state. All index-addressed accessors ([`to`](Self::to),
/// [`po`](Self::po), the batched kernels, [`shards`](Self::shards)) keep
/// operating on *physical* rows — tombstoned rows stay addressable until
/// compaction — and the streaming layer passes explicitly live id lists,
/// so `RecordId` windows, lane kernels and [`ShardView`]s work unchanged
/// on live data.
#[derive(Debug, Clone, Default)]
pub struct PointStore {
    n: usize,
    to_dims: usize,
    po_dims: usize,
    to: Vec<u32>,
    po: Vec<u32>,
    kernel: Kernel,
    /// Tombstone bitmap, one bit per physical row; may be shorter than
    /// `n.div_ceil(64)` words — missing bits mean live.
    tombstones: Vec<u64>,
    /// Tombstoned rows (`n - dead` rows are live).
    dead: usize,
    /// Epoch counter: bumped by every mutation (insert, expire, compact).
    generation: u64,
}

impl PointStore {
    /// An empty store with the given dimensionality.
    pub fn new(to_dims: usize, po_dims: usize) -> Self {
        PointStore {
            n: 0,
            to_dims,
            po_dims,
            to: Vec::new(),
            po: Vec::new(),
            kernel: Kernel::default(),
            tombstones: Vec::new(),
            dead: 0,
            generation: 0,
        }
    }

    /// The dominance-kernel variant the batched kernels dispatch to
    /// (inherited by engine-internal [`skyline::PointBlock`]s built from
    /// this store).
    #[inline]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Returns the store with the given kernel variant forced (tests and
    /// the bench harness's in-process scalar-vs-lanes cross-checks).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Forces the kernel variant in place.
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.kernel = kernel;
    }

    /// Wraps pre-generated flattened matrices (e.g. from `datagen`) without
    /// copying them.
    pub fn from_parts(
        to_dims: usize,
        po_dims: usize,
        to: Vec<u32>,
        po: Vec<u32>,
    ) -> Result<Self, CoreError> {
        if to_dims == 0 && po_dims == 0 {
            return Err(CoreError::NoDimensions);
        }
        let n = to
            .len()
            .checked_div(to_dims)
            .unwrap_or(po.len() / po_dims.max(1));
        if to_dims > 0 && to.len() != n * to_dims {
            return Err(CoreError::RaggedMatrix {
                what: "TO",
                len: to.len(),
                n,
                dims: to_dims,
            });
        }
        if po.len() != n * po_dims {
            return Err(CoreError::RaggedMatrix {
                what: "PO",
                len: po.len(),
                n,
                dims: po_dims,
            });
        }
        Ok(PointStore {
            n,
            to_dims,
            po_dims,
            to,
            po,
            kernel: Kernel::default(),
            tombstones: Vec::new(),
            dead: 0,
            generation: 0,
        })
    }

    /// Appends one tuple.
    pub fn push(&mut self, to_row: &[u32], po_row: &[u32]) {
        assert_eq!(to_row.len(), self.to_dims, "TO row width");
        assert_eq!(po_row.len(), self.po_dims, "PO row width");
        self.to.extend_from_slice(to_row);
        self.po.extend_from_slice(po_row);
        self.n += 1;
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the store holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of totally ordered attributes.
    #[inline]
    pub fn to_dims(&self) -> usize {
        self.to_dims
    }

    /// Number of partially ordered attributes.
    #[inline]
    pub fn po_dims(&self) -> usize {
        self.po_dims
    }

    /// The TO coordinates of record `id`.
    #[inline]
    pub fn to(&self, id: RecordId) -> &[u32] {
        let i = id as usize;
        &self.to[i * self.to_dims..(i + 1) * self.to_dims]
    }

    /// The PO value ids of record `id`.
    #[inline]
    pub fn po(&self, id: RecordId) -> &[u32] {
        let i = id as usize;
        &self.po[i * self.po_dims..(i + 1) * self.po_dims]
    }

    /// The TO coordinates of tuple `i` (index-typed convenience).
    #[inline]
    pub fn to_row(&self, i: usize) -> &[u32] {
        &self.to[i * self.to_dims..(i + 1) * self.to_dims]
    }

    /// The PO value ids of tuple `i` (index-typed convenience).
    #[inline]
    pub fn po_row(&self, i: usize) -> &[u32] {
        &self.po[i * self.po_dims..(i + 1) * self.po_dims]
    }

    /// The flat row-major TO block.
    #[inline]
    pub fn to_block(&self) -> &[u32] {
        &self.to
    }

    /// The flat row-major PO block.
    #[inline]
    pub fn po_block(&self) -> &[u32] {
        &self.po
    }

    /// One bounds check per TO row instead of two: split the flat matrix
    /// at the row start, then take the stride window off the tail.
    #[inline]
    fn to_window(&self, id: RecordId) -> &[u32] {
        let (_, tail) = self.to.split_at(id as usize * self.to_dims);
        &tail[..self.to_dims]
    }

    /// Validates every PO value id against per-dimension domain sizes.
    pub fn check_domains(&self, sizes: &[u32]) -> Result<(), CoreError> {
        if sizes.len() != self.po_dims {
            return Err(CoreError::DomainCountMismatch {
                dags: sizes.len(),
                po_dims: self.po_dims,
            });
        }
        for i in 0..self.n {
            let row = self.po_row(i);
            for (d, (&v, &s)) in row.iter().zip(sizes.iter()).enumerate() {
                if v >= s {
                    return Err(CoreError::PoValueOutOfRange {
                        row: i,
                        dim: d,
                        value: v,
                        domain: s,
                    });
                }
            }
        }
        Ok(())
    }

    // --- Batched dominance kernels --------------------------------------

    /// Does any of the listed records t-dominate the candidate tuple
    /// `(cand_to, cand_po)`? One linear walk over the flat blocks with
    /// early exit; each examined pair is one exact [`t_dominates`] check.
    /// Returns `(dominated, pairs_examined)`.
    #[inline]
    pub fn t_dominated_by_any(
        &self,
        domains: &[PoDomain],
        cand_to: &[u32],
        cand_po: &[u32],
        ids: &[RecordId],
    ) -> (bool, u64) {
        debug_assert_eq!(cand_to.len(), self.to_dims);
        debug_assert_eq!(cand_po.len(), self.po_dims);
        match self.kernel {
            Kernel::Scalar => self.t_dominated_by_any_scalar(domains, cand_to, cand_po, ids),
            Kernel::Lanes => self.t_dominated_by_any_lanes(domains, cand_to, cand_po, ids),
        }
    }

    /// [`t_dominated_by_any`](Self::t_dominated_by_any) forced onto the
    /// scalar oracle path, ignoring the store's configured kernel — the
    /// reference check the executor ladder's minimality validation uses,
    /// so corruption detection never depends on the kernel variant
    /// under suspicion. Returns `(dominated, pairs_examined)`; callers that
    /// must stay counter-identical to a validation-free run deliberately
    /// do **not** feed the pair count into their [`Metrics`](crate::Metrics).
    #[inline]
    pub fn t_dominated_by_any_oracle(
        &self,
        domains: &[PoDomain],
        cand_to: &[u32],
        cand_po: &[u32],
        ids: &[RecordId],
    ) -> (bool, u64) {
        self.t_dominated_by_any_scalar(domains, cand_to, cand_po, ids)
    }

    fn t_dominated_by_any_scalar(
        &self,
        domains: &[PoDomain],
        cand_to: &[u32],
        cand_po: &[u32],
        ids: &[RecordId],
    ) -> (bool, u64) {
        let mut examined = 0u64;
        for &id in ids {
            examined += 1;
            if t_dominates(domains, self.to_window(id), self.po(id), cand_to, cand_po) {
                return (true, examined);
            }
        }
        (false, examined)
    }

    /// Lane-chunked t-dominance: each group of [`LANES`] listed records
    /// transposes its TO rows into a stack scratch and resolves the TO
    /// `le`/`lt` masks vectorially; a lane whose TO part survives finishes
    /// through the exact scalar [`po_tail`] in record order, so results and
    /// examined-pair counts match the scalar walk bit for bit (pairs are
    /// counted per record, with or without a PO evaluation — exactly as
    /// [`t_dominates`] early-outs on a failed TO part).
    fn t_dominated_by_any_lanes(
        &self,
        domains: &[PoDomain],
        cand_to: &[u32],
        cand_po: &[u32],
        ids: &[RecordId],
    ) -> (bool, u64) {
        let dims = self.to_dims;
        if dims > LANE_MAX_DIMS {
            return self.t_dominated_by_any_scalar(domains, cand_to, cand_po, ids);
        }
        let mut scratch = [0u32; LANES * LANE_MAX_DIMS];
        let mut examined = 0u64;
        let groups = ids.chunks_exact(LANES);
        let tail = groups.remainder();
        for group in groups {
            for (l, &id) in group.iter().enumerate() {
                let row = self.to_window(id);
                for d in 0..dims {
                    scratch[d * LANES + l] = row[d];
                }
            }
            let mut le = [1u32; LANES];
            let mut lt = [0u32; LANES];
            for (col, &cd) in scratch[..dims * LANES]
                .chunks_exact(LANES)
                .zip(cand_to.iter())
            {
                for l in 0..LANES {
                    le[l] &= (col[l] <= cd) as u32;
                    lt[l] |= (col[l] < cd) as u32;
                }
                if dims > 4 && le.iter().fold(0u32, |a, &x| a | x) == 0 {
                    break;
                }
            }
            let any_le = le.iter().fold(0u32, |a, &x| a | x);
            if any_le != 0 {
                for (l, &id) in group.iter().enumerate() {
                    if le[l] != 0 && po_tail(domains, self.po(id), cand_po, lt[l] != 0) {
                        return (true, examined + l as u64 + 1);
                    }
                }
            }
            examined += LANES as u64;
        }
        for &id in tail {
            examined += 1;
            if t_dominates(domains, self.to_window(id), self.po(id), cand_to, cand_po) {
                return (true, examined);
            }
        }
        (false, examined)
    }

    /// A **monotone score** of one record under t-dominance: the sum of
    /// its TO coordinates plus one topological ordinal per PO attribute.
    ///
    /// If `a` t-dominates `b` then `score(a) < score(b)` *strictly*: every
    /// TO coordinate of `a` is `<=` with at least one `<`, or some PO value
    /// is strictly preferred — and a strictly preferred value precedes in
    /// the topological sort, so its ordinal is strictly smaller (the same
    /// argument that gives sTSS its precedence theorem). Two consequences
    /// the sorted merge in [`parallel`](crate::parallel) builds on:
    ///
    /// * scanning candidates in ascending score order sees every dominator
    ///   before its dominatees (an SFS/SaLSa-style filter needs only the
    ///   already-confirmed prefix), and
    /// * equal-score records can never dominate each other, so an
    ///   equal-score stratum is checkable against a frozen prefix in any
    ///   order — or concurrently.
    #[inline]
    pub fn monotone_score(&self, domains: &[PoDomain], id: RecordId) -> u64 {
        let to_sum: u64 = self.to(id).iter().map(|&x| x as u64).sum();
        let po_sum: u64 = self
            .po(id)
            .iter()
            .zip(domains.iter())
            .map(|(&v, d)| d.ordinal(v) as u64)
            .sum();
        to_sum + po_sum
    }

    /// Estimates the local-skyline ratio from the store's prefix: computes
    /// the exact skyline of the first `min(len, sample)` records with a
    /// sorted filter over [`monotone_score`](Self::monotone_score) and
    /// returns `(records_sampled, sample_skyline_size)`.
    ///
    /// Deterministic (no RNG — the rows of the generated and real-world
    /// workloads this repo targets are row-order independent, so a prefix
    /// is an unbiased sample) and cheap: `O(s log s)` to sort plus one
    /// early-exiting batched kernel scan per sampled record. This is the
    /// measurement behind [`ShardPlan`](crate::parallel::ShardPlan).
    pub fn prefix_skyline_sample(&self, domains: &[PoDomain], sample: usize) -> (usize, usize) {
        let s = self.n.min(sample);
        let mut ids: Vec<RecordId> = (0..s as RecordId).collect();
        ids.sort_unstable_by_key(|&r| (self.monotone_score(domains, r), r));
        let mut confirmed: Vec<RecordId> = Vec::new();
        for &r in &ids {
            let (hit, _) = self.t_dominated_by_any(domains, self.to(r), self.po(r), &confirmed);
            if !hit {
                confirmed.push(r);
            }
        }
        (s, confirmed.len())
    }

    // --- Sharding -------------------------------------------------------

    /// Splits the store into `n` disjoint, contiguous record-id ranges —
    /// the substrate of the data-parallel executors in
    /// [`parallel`](crate::parallel). Zero-copy: every [`ShardView`] is a
    /// window over the existing flat TO/PO blocks, record ids stay global,
    /// and the shard boundaries depend only on `(len, n)` — never on a
    /// worker count — so any execution schedule over the same shards does
    /// the same work.
    ///
    /// Shard sizes differ by at most one record (the first `len % n` shards
    /// are one longer). Empty shards are not returned, so the result holds
    /// `min(n, len)` views for a non-empty store (and none for an empty
    /// one). `n = 0` is treated as `1`.
    pub fn shards(&self, n: usize) -> Vec<ShardView<'_>> {
        let n = n.max(1);
        let base = self.n / n;
        let extra = self.n % n;
        let mut views = Vec::with_capacity(n.min(self.n));
        let mut start = 0usize;
        for i in 0..n {
            let len = base + usize::from(i < extra);
            if len == 0 {
                break;
            }
            views.push(ShardView {
                store: self,
                start: start as RecordId,
                end: (start + len) as RecordId,
            });
            start += len;
        }
        views
    }

    // --- Epoch-versioned mutation ---------------------------------------

    /// Word index and mask of one record's tombstone bit.
    #[inline]
    fn tomb_bit(id: RecordId) -> (usize, u64) {
        ((id as usize) / 64, 1u64 << ((id as usize) % 64))
    }

    /// The epoch counter: bumped by every [`insert`](Self::insert),
    /// successful [`expire`](Self::expire) and [`compact`](Self::compact).
    /// Readers snapshot it to detect staleness — equal generations imply
    /// byte-identical store contents.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True iff physical record `id` has not been tombstoned.
    #[inline]
    pub fn is_live(&self, id: RecordId) -> bool {
        debug_assert!((id as usize) < self.n);
        let (w, m) = Self::tomb_bit(id);
        self.tombstones.get(w).is_none_or(|&x| x & m == 0)
    }

    /// Number of live (non-tombstoned) records; [`len`](Self::len) keeps
    /// counting physical rows until [`compact`](Self::compact).
    #[inline]
    pub fn live_len(&self) -> usize {
        self.n - self.dead
    }

    /// True iff any record has been tombstoned since the last compaction.
    #[inline]
    pub fn has_tombstones(&self) -> bool {
        self.dead > 0
    }

    /// Iterates the live record ids in ascending physical order.
    pub fn live_ids(&self) -> impl Iterator<Item = RecordId> + '_ {
        (0..self.n as RecordId).filter(|&id| self.is_live(id))
    }

    /// Appends one tuple as a new epoch: [`push`](Self::push) plus a
    /// generation bump. Returns the new record's id — append-only, never
    /// a reused tombstone slot, so ids handed out earlier stay valid.
    pub fn insert(&mut self, to_row: &[u32], po_row: &[u32]) -> RecordId {
        let id = self.n as RecordId;
        self.push(to_row, po_row);
        self.generation += 1;
        id
    }

    /// Retires record `id` into the tombstone bitmap without moving any
    /// coordinate data. Returns `true` (and bumps the generation) iff the
    /// record was live; expiring a tombstone is a no-op reporting `false`.
    pub fn expire(&mut self, id: RecordId) -> bool {
        assert!((id as usize) < self.n, "expire: record {id} out of range");
        let (w, m) = Self::tomb_bit(id);
        if self.tombstones.len() <= w {
            self.tombstones.resize(w + 1, 0);
        }
        if self.tombstones[w] & m != 0 {
            return false;
        }
        self.tombstones[w] |= m;
        self.dead += 1;
        self.generation += 1;
        true
    }

    /// Rewrites the flat blocks densely, dropping tombstoned rows and
    /// renumbering the survivors `0..live_len()`. Returns the surviving
    /// *old* ids in ascending order — survivor `i` of the result is the
    /// new record `i`, so callers translate any ids they kept. Bumps the
    /// generation (compaction invalidates every outstanding id window).
    pub fn compact(&mut self) -> Vec<RecordId> {
        let mut survivors = Vec::with_capacity(self.live_len());
        let (td, pd) = (self.to_dims, self.po_dims);
        let mut w = 0usize;
        for r in 0..self.n {
            if !self.is_live(r as RecordId) {
                continue;
            }
            if w != r {
                self.to.copy_within(r * td..(r + 1) * td, w * td);
                self.po.copy_within(r * pd..(r + 1) * pd, w * pd);
            }
            survivors.push(r as RecordId);
            w += 1;
        }
        self.to.truncate(w * td);
        self.po.truncate(w * pd);
        self.n = w;
        self.dead = 0;
        self.tombstones.clear();
        self.generation += 1;
        survivors
    }
}

/// A zero-copy window over a contiguous record-id range of a
/// [`PointStore`] — what one worker of a sharded skyline run computes on.
///
/// The view hands out sub-slices of the parent's flat TO/PO blocks and
/// keeps **global** record ids, so per-shard results merge without any id
/// translation. Materialize an owned sub-store with
/// [`to_store`](Self::to_store) when an engine needs to own its input
/// (index builds); the view itself never copies.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    store: &'a PointStore,
    start: RecordId,
    end: RecordId,
}

impl<'a> ShardView<'a> {
    /// The parent store.
    #[inline]
    pub fn store(&self) -> &'a PointStore {
        self.store
    }

    /// The global record-id range this shard covers.
    #[inline]
    pub fn range(&self) -> std::ops::Range<RecordId> {
        self.start..self.end
    }

    /// First global record id of the shard.
    #[inline]
    pub fn start(&self) -> RecordId {
        self.start
    }

    /// Number of records in the shard.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True iff the shard holds no records (never produced by
    /// [`PointStore::shards`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The shard's window of the flat row-major TO block.
    #[inline]
    pub fn to_block(&self) -> &'a [u32] {
        let d = self.store.to_dims;
        &self.store.to[self.start as usize * d..self.end as usize * d]
    }

    /// The shard's window of the flat row-major PO block.
    #[inline]
    pub fn po_block(&self) -> &'a [u32] {
        let d = self.store.po_dims;
        &self.store.po[self.start as usize * d..self.end as usize * d]
    }

    /// Iterates the shard's global record ids.
    pub fn record_ids(&self) -> impl Iterator<Item = RecordId> {
        self.start..self.end
    }

    /// An owned copy of the shard as a standalone store (records renumbered
    /// `0..len`) — the one deliberate copy, for engines that take ownership
    /// of their input. Translate local ids back with
    /// `local + self.start()`.
    pub fn to_store(&self) -> PointStore {
        PointStore {
            n: self.len(),
            to_dims: self.store.to_dims,
            po_dims: self.store.po_dims,
            to: self.to_block().to_vec(),
            po: self.po_block().to_vec(),
            kernel: self.store.kernel,
            // The copy is a fresh epoch over the shard's physical rows:
            // tombstones do not travel (shard runs are snapshot-level).
            tombstones: Vec::new(),
            dead: 0,
            generation: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dominance;
    use poset::Dag;
    use proptest::prelude::*;

    #[test]
    fn push_and_access() {
        let mut t = PointStore::new(2, 1);
        t.push(&[1, 2], &[0]);
        t.push(&[3, 4], &[5]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.to_row(0), &[1, 2]);
        assert_eq!(t.to(1), &[3, 4]);
        assert_eq!(t.po(1), &[5]);
        assert_eq!((t.to_dims(), t.po_dims()), (2, 1));
        assert_eq!(t.to_block(), &[1, 2, 3, 4]);
        assert_eq!(t.po_block(), &[0, 5]);
    }

    #[test]
    fn from_parts_validates_shape() {
        assert!(PointStore::from_parts(2, 1, vec![1, 2, 3, 4], vec![0, 0]).is_ok());
        assert!(matches!(
            PointStore::from_parts(2, 1, vec![1, 2, 3], vec![0, 0]),
            Err(CoreError::RaggedMatrix { .. })
        ));
        assert!(matches!(
            PointStore::from_parts(2, 1, vec![1, 2, 3, 4], vec![0]),
            Err(CoreError::RaggedMatrix { .. })
        ));
        assert!(matches!(
            PointStore::from_parts(0, 0, vec![], vec![]),
            Err(CoreError::NoDimensions)
        ));
    }

    #[test]
    fn po_only_store() {
        let t = PointStore::from_parts(0, 2, vec![], vec![1, 2, 3, 4]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.po_row(0), &[1, 2]);
        assert!(t.to_row(0).is_empty());
    }

    #[test]
    fn domain_check() {
        let t = PointStore::from_parts(1, 2, vec![5, 6], vec![0, 3, 1, 2]).unwrap();
        assert!(t.check_domains(&[2, 4]).is_ok());
        assert!(matches!(
            t.check_domains(&[2, 3]),
            Err(CoreError::PoValueOutOfRange {
                row: 0,
                dim: 1,
                value: 3,
                domain: 3
            })
        ));
        assert!(matches!(
            t.check_domains(&[2]),
            Err(CoreError::DomainCountMismatch { .. })
        ));
    }

    #[test]
    fn batched_kernel_counts_and_early_exits() {
        let doms = vec![PoDomain::new(Dag::paper_example())];
        for kernel in [Kernel::Scalar, Kernel::Lanes] {
            let mut t = PointStore::new(1, 1).with_kernel(kernel);
            t.push(&[9], &[8]); // dominates nothing relevant
            t.push(&[2], &[2]); // c at cost 2: dominates (3, f)
            t.push(&[0], &[0]); // never reached once a dominator is found
            let (hit, examined) = t.t_dominated_by_any(&doms, &[3], &[5], &[0, 1, 2]);
            assert!(hit, "{kernel:?}");
            assert_eq!(examined, 2, "{kernel:?}: early exit after record two");
            let (miss, examined) = t.t_dominated_by_any(&doms, &[0], &[0], &[0, 1, 2]);
            assert!(!miss, "{kernel:?}: duplicates of record 2 not dominated");
            assert_eq!(examined, 3, "{kernel:?}");
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_past_the_chunk_boundary() {
        // Enough records that the lane path processes whole chunks plus a
        // ragged tail, with a dominator planted inside a middle chunk so the
        // early-exit pair count crosses kernel variants exactly.
        let doms = vec![PoDomain::new(Dag::paper_example())];
        let mut scalar = PointStore::new(2, 1).with_kernel(Kernel::Scalar);
        for i in 0..21u32 {
            let po = if i == 11 { 0 } else { 7 }; // record 11 holds `a`
            scalar.push(&[i % 4 + 1, 3], &[po]);
        }
        let lanes = scalar.clone().with_kernel(Kernel::Lanes);
        let ids: Vec<RecordId> = (0..21).collect();
        for cand in [([1u32, 3], 2u32), ([0, 0], 0), ([4, 3], 7)] {
            let s = scalar.t_dominated_by_any(&doms, &cand.0, &[cand.1], &ids);
            let l = lanes.t_dominated_by_any(&doms, &cand.0, &[cand.1], &ids);
            assert_eq!(s, l, "cand {cand:?}");
        }
    }

    #[test]
    fn shards_partition_the_store() {
        let mut t = PointStore::new(2, 1);
        for i in 0..10u32 {
            t.push(&[i, 10 - i], &[i % 3]);
        }
        for n in [1usize, 2, 3, 4, 7, 10, 15] {
            let views = t.shards(n);
            assert_eq!(views.len(), n.min(10), "n={n}");
            // Contiguous, disjoint, covering, balanced within one record.
            let mut next = 0u32;
            let (mut lo, mut hi) = (usize::MAX, 0usize);
            for v in &views {
                assert_eq!(v.start(), next);
                next = v.range().end;
                lo = lo.min(v.len());
                hi = hi.max(v.len());
                assert_eq!(v.to_block().len(), v.len() * 2);
                assert_eq!(v.po_block().len(), v.len());
                // Zero-copy: the window aliases the parent block.
                assert_eq!(v.to_block().as_ptr(), t.to_row(v.start() as usize).as_ptr());
                // The owned copy round-trips row for row.
                let owned = v.to_store();
                for (local, global) in v.record_ids().enumerate() {
                    assert_eq!(owned.to_row(local), t.to(global));
                    assert_eq!(owned.po_row(local), t.po(global));
                }
            }
            assert_eq!(next, 10);
            assert!(hi - lo <= 1, "n={n}: shard sizes {lo}..{hi}");
        }
        assert!(PointStore::new(1, 0).shards(4).is_empty());
        assert_eq!(t.shards(0).len(), 1, "0 shards clamps to 1");
    }

    #[test]
    fn monotone_score_is_strict_under_dominance() {
        let doms = vec![PoDomain::new(Dag::paper_example())];
        let oracle = Dominance::new(&doms);
        let mut t = PointStore::new(2, 1);
        for a in 0..4u32 {
            for b in 0..4u32 {
                for v in 0..9u32 {
                    t.push(&[a, b], &[v]);
                }
            }
        }
        let n = t.len() as u32;
        for i in 0..n {
            for j in 0..n {
                if oracle.dominates_oracle(t.to(i), t.po(i), t.to(j), t.po(j)) {
                    assert!(
                        t.monotone_score(&doms, i) < t.monotone_score(&doms, j),
                        "dominator must score strictly lower ({i} vs {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_skyline_sample_is_exact_on_the_prefix() {
        let doms = vec![PoDomain::new(Dag::paper_example())];
        let mut t = PointStore::new(2, 1);
        for i in 0..40u32 {
            t.push(&[(i * 13) % 17, (i * 5) % 11], &[i % 9]);
        }
        // Sample covering everything == the brute-force skyline size.
        let (sampled, k) = t.prefix_skyline_sample(&doms, 1000);
        assert_eq!(sampled, 40);
        assert_eq!(k, crate::dominance::brute_force_po_skyline(&doms, &t).len());
        // A shorter prefix is the exact skyline of that prefix.
        let mut head = PointStore::new(2, 1);
        for i in 0..16usize {
            head.push(t.to_row(i), t.po_row(i));
        }
        let (sampled, k) = t.prefix_skyline_sample(&doms, 16);
        assert_eq!(sampled, 16);
        assert_eq!(
            k,
            crate::dominance::brute_force_po_skyline(&doms, &head).len()
        );
        assert_eq!(PointStore::new(1, 0).prefix_skyline_sample(&[], 64), (0, 0));
    }

    #[test]
    fn epoch_mutation_tracks_generations_and_tombstones() {
        let mut t = PointStore::new(1, 1);
        assert_eq!(t.generation(), 0);
        let a = t.insert(&[1], &[0]);
        let b = t.insert(&[2], &[1]);
        let c = t.insert(&[3], &[2]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(t.generation(), 3);
        assert_eq!((t.len(), t.live_len()), (3, 3));
        assert!(!t.has_tombstones());

        assert!(t.expire(b), "first expiry succeeds");
        assert!(!t.expire(b), "double expiry is a no-op");
        assert_eq!(t.generation(), 4, "the no-op did not bump the epoch");
        assert_eq!((t.len(), t.live_len()), (3, 2));
        assert!(t.has_tombstones());
        assert!(t.is_live(a) && !t.is_live(b) && t.is_live(c));
        assert_eq!(t.live_ids().collect::<Vec<_>>(), vec![0, 2]);
        // Physical accessors still address the tombstoned row.
        assert_eq!(t.to(b), &[2]);

        let survivors = t.compact();
        assert_eq!(survivors, vec![0, 2]);
        assert_eq!(t.generation(), 5);
        assert_eq!((t.len(), t.live_len()), (2, 2));
        assert!(!t.has_tombstones());
        assert_eq!(t.to_block(), &[1, 3]);
        assert_eq!(t.po_block(), &[0, 2]);
    }

    #[test]
    fn expire_past_word_boundaries() {
        let mut t = PointStore::new(1, 0);
        for i in 0..130u32 {
            t.insert(&[i], &[]);
        }
        for id in [0u32, 63, 64, 127, 128, 129] {
            assert!(t.expire(id));
        }
        assert_eq!(t.live_len(), 124);
        assert!(!t.is_live(129) && t.is_live(65));
        let survivors = t.compact();
        assert_eq!(survivors.len(), 124);
        assert!(!survivors.contains(&64));
        // New id 0 is old id 1 after compaction.
        assert_eq!(t.to(0), &[1]);
    }

    #[test]
    fn row_hash_is_toolchain_stable() {
        // FNV-1a over the attribute slices: pinned so duplicate-map layout
        // and derived digests survive toolchain bumps.
        assert_eq!(row_hash(&[1, 2], &[3]), row_hash(&[1, 2], &[3]));
        assert_ne!(row_hash(&[1, 2], &[3]), row_hash(&[1, 2], &[4]));
        assert_ne!(row_hash(&[1, 2], &[3]), row_hash(&[1], &[2, 3]));
        assert_eq!(row_hash(&[], &[]), 0x8820_1fb9_60ff_6465);
    }

    proptest! {
        /// Both kernels agree with `Dominance::dominates_oracle` at every
        /// TO width: the PO-only lane groups (0 dims), the all-lanes-dead
        /// early break (past 4 dims) and the scalar fallback (past
        /// `LANE_MAX_DIMS`). Each pair is checked alone, and the whole
        /// rotated id list must report the oracle's first hit and the
        /// pairs examined up to it — duplicate candidates included.
        #[test]
        fn batched_kernel_agrees_with_oracle(
            to_dims in 0usize..=17,
            n in 1usize..40,
            seed in 0u64..1024,
            shape in 0u8..3,
        ) {
            // Deterministic pseudo-random fill from the seed (tight value
            // ranges force le/lt/equality collisions).
            let mut s = seed;
            let mut next = move |m: u32| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) as u32 % m
            };
            let doms = vec![PoDomain::new(Dag::paper_example())];
            let oracle = Dominance::new(&doms);
            let mut store = PointStore::new(to_dims, 1);
            for _ in 0..n {
                let to: Vec<u32> = (0..to_dims).map(|_| next(5)).collect();
                store.push(&to, &[next(9)]);
            }
            // The candidate is a fresh tuple, an exact duplicate of a stored
            // one (never dominated by its copy), or a stored one worsened on
            // some TO coordinates (dominated by it, at every width).
            let pivot = (seed / 7 % n as u64) as RecordId;
            let (cand_to, cand_po) = match shape {
                0 => ((0..to_dims).map(|_| next(5)).collect(), vec![next(9)]),
                1 => (store.to(pivot).to_vec(), store.po(pivot).to_vec()),
                _ => (
                    store.to(pivot).iter().map(|&x| x + next(2)).collect(),
                    store.po(pivot).to_vec(),
                ),
            };
            let mut ids: Vec<RecordId> = (0..n as u32).collect();
            ids.rotate_left(seed as usize % n);
            let dominates =
                |id: RecordId| oracle.dominates_oracle(store.to(id), store.po(id), &cand_to, &cand_po);
            let expect = match ids.iter().position(|&id| dominates(id)) {
                Some(i) => (true, i as u64 + 1),
                None => (false, n as u64),
            };
            for kernel in [Kernel::Scalar, Kernel::Lanes] {
                let store = store.clone().with_kernel(kernel);
                for &id in &ids {
                    prop_assert_eq!(
                        store.t_dominated_by_any(&doms, &cand_to, &cand_po, &[id]),
                        (dominates(id), 1),
                        "{:?} record {}", kernel, id
                    );
                }
                prop_assert_eq!(
                    store.t_dominated_by_any(&doms, &cand_to, &cand_po, &ids),
                    expect,
                    "{:?}", kernel
                );
            }
        }
    }
}
