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
//! # The confirmed-skyline key block
//!
//! Every engine tests candidates against a list of *confirmed* skyline
//! members, and sTSS (points and MBBs), the sharded merge and dTSS
//! (points, subtrees, group dismissal, and the prefiltered forms of the
//! first two) all keep that list as a [`KeyBlock`]: one tag per member
//! (its record id) plus a dense, dimension-major [`PointBlock`] of keys
//! (TO values — folded ones in dTSS — then one topological ordinal per PO
//! attribute). By the precedence argument of §IV-A a member can dominate a
//! candidate only if its key is `<=` the candidate's key on every
//! dimension, so every check is one call, [`KeyBlock::first_match`]: the
//! box, then the check's exact refine (PO closure probes, interval-set
//! covers or a strictness flag), in list order. [`Kernel::Scalar`] runs it
//! as the list loop, the oracle; [`Kernel::Lanes`] tests the box for
//! [`LANES`] members at a time and refines only the in-box ones. Because
//! the box is implied by each refine, both stop at the list loop's first
//! hit and return its examined-pair count.
//!
//! `Table` (the facade name the paper-facing API keeps) is an alias of this
//! type.

use crate::dominance::{po_tail, t_dominates};
use crate::{CoreError, PoDomain};
use skyline::{Kernel, PointBlock, LANES};

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

    /// Is the candidate t-dominated by a member of a confirmed
    /// [`KeyBlock`] whose keys are drawn from this store? `cand_key` is the
    /// candidate's key (see [`key_into`](Self::key_into); dTSS folds its TO
    /// values, members and candidate alike) and `cand_po` its PO value
    /// ids. A t-dominator's key is `<=` the candidate's on every dimension
    /// (TO values directly; ordinals because a preferred-or-equal value
    /// never sorts later), so [`KeyBlock::first_match`] refines only
    /// in-box members, with the exact [`po_tail`] and TO strictness read
    /// off the member's key. Returns the list loop's `(dominated,
    /// pairs_examined)` under the store's kernel.
    ///
    /// This is also dTSS's subtree check: a member prunes a subtree iff it
    /// t-dominates the corner point (TO corner, group PO values), and that
    /// strictness is the tie exclusion that keeps exact duplicates alive.
    #[inline]
    pub(crate) fn t_dominated_by_keys(
        &self,
        domains: &[PoDomain],
        cand_key: &[u32],
        cand_po: &[u32],
        block: &KeyBlock,
    ) -> (bool, u64) {
        debug_assert_eq!(cand_key.len(), self.to_dims + self.po_dims);
        let cand_to = &cand_key[..self.to_dims];
        block.first_match(self.kernel, cand_key, |r, key| {
            po_tail(
                domains,
                self.po(r),
                cand_po,
                key[..self.to_dims] != *cand_to,
            )
        })
    }

    /// The corner check without tie exclusion, dTSS's group dismissal (the
    /// paper's root-corner test): does some member have a key `<=`
    /// `corner_key` and PO values preferred-or-equal to `corner_po` on
    /// every attribute? Preferred-or-equal values never sort later, so the
    /// refine implies the box. Returns the list loop's `(covered,
    /// pairs_examined)` under the store's kernel.
    #[inline]
    pub(crate) fn covered_by_keys(
        &self,
        domains: &[PoDomain],
        corner_key: &[u32],
        corner_po: &[u32],
        block: &KeyBlock,
    ) -> (bool, u64) {
        debug_assert_eq!(corner_key.len(), self.to_dims + self.po_dims);
        block.first_match(self.kernel, corner_key, |r, _| {
            self.po(r)
                .iter()
                .zip(corner_po)
                .zip(domains)
                .all(|((&s, &c), d)| d.pref_or_equal(s, c))
        })
    }

    /// Appends record `id`'s **transformed key** to `out`: its TO values,
    /// then one topological ordinal per PO attribute — the point sTSS
    /// indexes in its R-tree, and the coordinates of a [`KeyBlock`].
    #[inline]
    pub(crate) fn key_into(&self, domains: &[PoDomain], id: RecordId, out: &mut Vec<u32>) {
        out.extend_from_slice(self.to(id));
        out.extend(self.po(id).iter().zip(domains).map(|(&v, d)| d.ordinal(v)));
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

    /// True iff physical record `id` exists and has not been tombstoned.
    /// An id at or past [`len`](Self::len) was never live.
    #[inline]
    pub fn is_live(&self, id: RecordId) -> bool {
        let (w, m) = Self::tomb_bit(id);
        (id as usize) < self.n && self.tombstones.get(w).is_none_or(|&x| x & m == 0)
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
    /// record was live; expiring a tombstone, or an id at or past
    /// [`len`](Self::len), is a no-op reporting `false`.
    pub fn expire(&mut self, id: RecordId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        let (w, m) = Self::tomb_bit(id);
        if self.tombstones.len() <= w {
            self.tombstones.resize(w + 1, 0);
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

/// Confirmed skyline members in list order: one tag per member (its
/// record id; dTSS's dominator prefilter tags its members with their PO
/// strictness instead) plus a dense, dimension-major [`PointBlock`] of
/// their keys (for record ids, TO values then one topological ordinal per
/// PO attribute; see [`PointStore::key_into`]).
///
/// Every confirmed-list check is one [`first_match`](Self::first_match)
/// call: by the precedence argument of §IV-A, a member can t-dominate a
/// candidate, or cover an MBB, only if its key is `<=` the candidate's key
/// (the MBB's low corner) on every dimension, so the box filters the list
/// ahead of each check's exact refine.
#[derive(Debug, Clone)]
pub(crate) struct KeyBlock<T = RecordId> {
    tags: Vec<T>,
    keys: PointBlock,
}

impl<T: Copy> KeyBlock<T> {
    /// An empty block of `dims`-wide keys.
    pub(crate) fn new(dims: usize) -> Self {
        KeyBlock {
            tags: Vec::new(),
            keys: PointBlock::new(dims),
        }
    }

    /// Appends a member tagged `tag` with key `key`.
    #[inline]
    pub(crate) fn push(&mut self, tag: T, key: &[u32]) {
        self.tags.push(tag);
        self.keys.push(key);
    }

    /// Number of members.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.tags.len()
    }

    /// True iff the block holds no members.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The members' `(tag, key)` pairs, in list order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (T, &[u32])> {
        self.tags.iter().copied().zip(self.keys.iter())
    }

    /// The first member, in list order, whose key is `<=` `corner` on
    /// every dimension and that `refine(tag, key)` accepts. Returns `(hit,
    /// examined)` as the list loop counts it: the hit's position plus one,
    /// or every member on a miss.
    ///
    /// [`Kernel::Scalar`] is that list loop, the oracle: the box test,
    /// then `refine`, member by member. [`Kernel::Lanes`] is
    /// [`PointBlock::first_in_box`], which tests the box for [`LANES`]
    /// members at a time and calls `refine` only on the in-box ones, in
    /// order. A refine that accepts only in-box members, as every
    /// dominance refine does, gets the same answer from both.
    #[inline]
    pub(crate) fn first_match(
        &self,
        kernel: Kernel,
        corner: &[u32],
        mut refine: impl FnMut(T, &[u32]) -> bool,
    ) -> (bool, u64) {
        match kernel {
            Kernel::Scalar => {
                for (i, (tag, key)) in self.iter().enumerate() {
                    if key.iter().zip(corner).all(|(k, c)| k <= c) && refine(tag, key) {
                        return (true, i as u64 + 1);
                    }
                }
                (false, self.len() as u64)
            }
            Kernel::Lanes => self
                .keys
                .first_in_box(corner, |i| refine(self.tags[i], self.keys.point(i))),
        }
    }
}

impl KeyBlock {
    /// The members' record ids, in list order.
    #[inline]
    pub(crate) fn ids(&self) -> &[RecordId] {
        &self.tags
    }
}

impl KeyBlock<bool> {
    /// The prefiltered check of dTSS's
    /// [`filter_dominators`](crate::DtssConfig::filter_dominators): the
    /// members are the skyline entries whose PO values are
    /// preferred-or-equal to one group's, keyed by their (folded) TO values
    /// and tagged with their PO strictness. A member dominates the TO point
    /// or subtree corner `to` iff its key is `<=` `to` and it is PO-strict
    /// or its key differs from `to`.
    #[inline]
    pub(crate) fn dominated_on_to(&self, kernel: Kernel, to: &[u32]) -> (bool, u64) {
        self.first_match(kernel, to, |strict, key| strict || key != to)
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        // Ids at or past `len()` were never live: expiring one is a no-op.
        for id in [3, 5, 64, 1000] {
            assert!(!t.is_live(id) && !t.expire(id), "id {id}");
        }
        assert_eq!(t.generation(), 4, "the no-ops did not bump the epoch");
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
        // Old id `c` fell past `len()` with the compaction.
        assert!(!t.is_live(c) && !t.expire(c));
        assert_eq!((t.generation(), t.live_len()), (5, 2));
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

    /// A store of `n` rows over the paper domain (tight TO values force
    /// `<=`/`<`/equality collisions; `max_to` pins every TO value at
    /// `u32::MAX`), the key block of a rotated id list over all rows with
    /// one repeated record, and a candidate `(key, po)` that is fresh, a
    /// copy of a listed row, or a listed row worsened on TO.
    #[allow(clippy::type_complexity)]
    pub(crate) fn box_scan_case(
        to_dims: usize,
        po_dims: usize,
        n: usize,
        seed: u64,
        max_to: bool,
    ) -> (PointStore, Vec<PoDomain>, KeyBlock, Vec<u32>, Vec<u32>) {
        let mut s = seed;
        let mut next = move |m: u32| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as u32 % m
        };
        let doms = vec![PoDomain::new(Dag::paper_example()); po_dims];
        let mut store = PointStore::new(to_dims, po_dims);
        for _ in 0..n {
            let to: Vec<u32> = (0..to_dims)
                .map(|_| if max_to { u32::MAX } else { next(4) })
                .collect();
            let po: Vec<u32> = (0..po_dims).map(|_| next(9)).collect();
            store.push(&to, &po);
        }
        let mut ids: Vec<RecordId> = (0..n as u32).collect();
        ids.rotate_left(seed as usize % n);
        // An exact duplicate member: the list repeats one record.
        ids[n / 2] = ids[0];
        let mut block = KeyBlock::new(to_dims + po_dims);
        let mut key = Vec::new();
        for &r in &ids {
            key.clear();
            store.key_into(&doms, r, &mut key);
            block.push(r, &key);
        }
        let pivot = ids[(seed / 7) as usize % n];
        let (cand_to, cand_po): (Vec<u32>, Vec<u32>) = match seed % 3 {
            0 if !max_to => (
                (0..to_dims).map(|_| next(4)).collect(),
                (0..po_dims).map(|_| next(9)).collect(),
            ),
            1 if !max_to => (
                store.to(pivot).iter().map(|&x| x + next(2)).collect(),
                store.po(pivot).to_vec(),
            ),
            _ => (store.to(pivot).to_vec(), store.po(pivot).to_vec()),
        };
        let mut cand = PointStore::new(to_dims, po_dims);
        cand.push(&cand_to, &cand_po);
        let mut cand_key = Vec::new();
        cand.key_into(&doms, 0, &mut cand_key);
        (store, doms, block, cand_key, cand_po)
    }

    /// The list lengths the box-scan equivalence tests cover: just below,
    /// at and just above multiples of [`LANES`].
    pub(crate) const BOX_SCAN_LENGTHS: [usize; 9] = [
        1,
        LANES - 1,
        LANES,
        LANES + 1,
        2 * LANES - 1,
        2 * LANES,
        2 * LANES + 1,
        3 * LANES - 1,
        5 * LANES + 3,
    ];

    /// `(to_dims, po_dims, max_to)` shapes of the box-scan equivalence
    /// tests: mixed, PO-only, TO-only (the shape of TO-only sharding),
    /// `u32::MAX` TO values with no PO dims — the one shape whose pad lanes
    /// pass the box — and no dimensions at all (a zero-width key block).
    pub(crate) const BOX_SCAN_SHAPES: [(usize, usize, bool); 9] = [
        (2, 2, false),
        (1, 1, false),
        (3, 1, false),
        (0, 1, false),
        (0, 2, false),
        (2, 0, false),
        (1, 0, false),
        (2, 0, true),
        (0, 0, false),
    ];

    #[test]
    fn key_into_is_the_stss_transformed_point() {
        let doms = vec![PoDomain::new(Dag::paper_example())];
        let mut t = PointStore::new(2, 1);
        t.push(&[4, 7], &[8]);
        let mut key = vec![99];
        t.key_into(&doms, 0, &mut key);
        assert_eq!(key, vec![99, 4, 7, doms[0].ordinal(8)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Every form of the key-block check returns, under both kernels,
        /// the `(hit, examined)` of a plain list loop over its exact
        /// predicate, on every shape and list length: the point form
        /// (t-dominance), dTSS's corner forms with tie exclusion (the
        /// subtree check, which is t-dominance of the corner) and without
        /// it (group dismissal), and dTSS's prefiltered TO block with
        /// PO-strictness flags.
        #[test]
        fn box_scan_point_form_matches_the_scalar_list_scan(seed in 0u64..1 << 20) {
            for (to_dims, po_dims, max_to) in BOX_SCAN_SHAPES {
                for n in BOX_SCAN_LENGTHS {
                    let (store, doms, block, key, po) =
                        box_scan_case(to_dims, po_dims, n, seed, max_to);
                    let to = &key[..to_dims];
                    let first = |hits: Vec<bool>| match hits.iter().position(|&h| h) {
                        Some(i) => (true, i as u64 + 1),
                        None => (false, hits.len() as u64),
                    };
                    let le = |s: &[u32]| s.iter().zip(to).all(|(s, c)| s <= c);
                    let pref_or_equal = |r: RecordId| {
                        store.po(r).iter().zip(&po).zip(&doms).all(|((&s, &c), d)| d.pref_or_equal(s, c))
                    };
                    let corner = |ties: bool| {
                        first(block.ids().iter().map(|&r| {
                            le(store.to(r))
                                && pref_or_equal(r)
                                && (ties || store.po(r) != po.as_slice() || store.to(r) != to)
                        }).collect())
                    };
                    let point = store.t_dominated_by_any_oracle(&doms, to, &po, block.ids());
                    prop_assert_eq!(corner(false), point);
                    let covered = corner(true);
                    let mut entries = Vec::new();
                    let mut filtered = KeyBlock::new(to_dims);
                    for &r in block.ids().iter().filter(|&&r| pref_or_equal(r)) {
                        let strict = store.po(r) != po.as_slice();
                        entries.push((strict, store.to(r)));
                        filtered.push(strict, store.to(r));
                    }
                    let prefiltered =
                        first(entries.iter().map(|&(strict, s)| le(s) && (strict || s != to)).collect());
                    for kernel in [Kernel::Scalar, Kernel::Lanes] {
                        let store = store.clone().with_kernel(kernel);
                        let case = format!("{kernel:?} dims=({to_dims},{po_dims}) max_to={max_to} n={n}");
                        prop_assert_eq!(store.t_dominated_by_keys(&doms, &key, &po, &block), point, "{}", case);
                        prop_assert_eq!(store.covered_by_keys(&doms, &key, &po, &block), covered, "{}", case);
                        prop_assert_eq!(filtered.dominated_on_to(kernel, to), prefiltered, "{}", case);
                    }
                }
            }
        }
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
