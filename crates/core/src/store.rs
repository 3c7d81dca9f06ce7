//! The columnar tuple store every engine computes on.
//!
//! A [`PointStore`] keeps the totally ordered coordinates and the partially
//! ordered value ids of all tuples in two flat `Vec<u32>` blocks with fixed
//! strides (`to_dims` / `po_dims`), indexed by [`RecordId`]. There are zero
//! per-tuple allocations: multi-million-tuple workloads cost two
//! allocations total, slice access by record id is `O(1)`, and a dominance
//! scan over a candidate list walks memory linearly.
//!
//! [`t_dominated_by_any`](PointStore::t_dominated_by_any) tests one
//! candidate against a list of records: the plain list loop, with early
//! exit on the first dominator, returning `(answer, pairs_examined)` where
//! one examined pair is one exact [`t_dominates`] call. The store keeps no
//! lane kernel of its own: every hot check runs against a [`KeyBlock`],
//! whose keys sit in a [`PointBlock`], the one lane kernel set.
//!
//! # The confirmed-skyline key block
//!
//! Every engine tests candidates against a list of *confirmed* skyline
//! members, and sTSS (points and MBBs), the sharded merge, dTSS (points,
//! subtrees and group dismissal) and streaming maintenance (arrivals and
//! repair candidates) all keep that list as a [`KeyBlock`]: the members'
//! record ids plus a dense, dimension-major [`PointBlock`] of keys
//! (TO values — folded ones in dTSS — then one topological ordinal per PO
//! attribute). By the precedence argument of §IV-A a member can dominate a
//! candidate only if its key is `<=` the candidate's key on every
//! dimension, so every check is one call, [`KeyBlock::first_match`]: the
//! box, then the check's exact refine (PO closure probes or interval-set
//! covers), member by member. [`Kernel::Scalar`] runs it as a plain loop,
//! the oracle; [`Kernel::Lanes`] tests the box for
//! [`LANES`](skyline::LANES) members at a time and refines only the
//! in-box ones. Because the box is implied by each refine, both stop at
//! the same first hit and return the same examined-pair count.
//!
//! Which members a check scans depends on the block's size. Below 256
//! members it scans the whole list, in list order, and `examined` is the
//! list loop's count. A block grown past that by pushes alone indexes
//! itself on every key dimension (SDI's dimension indexing, with buckets
//! bounded by quantiles of its keys): a dominator is `<=` the candidate on
//! every dimension, so the check scans only the buckets at or below the
//! candidate's on the dimension where they hold the fewest members,
//! nearest bucket first, and `examined` counts the members of that scan.
//! The answer is the list loop's either way. Streaming's block, which
//! demotions, expiries and repairs rewrite in place, never indexes itself.
//!
//! `Table` (the facade name the paper-facing API keeps) is an alias of this
//! type.

use crate::dominance::{po_tail, t_dominates};
use crate::{CoreError, PoDomain};
use skyline::{box_mask, Kernel, PointBlock, LANES};

/// Index of a tuple in a [`PointStore`] — the currency engines trade in.
pub type RecordId = u32;

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
/// [`po`](Self::po), [`t_dominated_by_any`](Self::t_dominated_by_any),
/// [`shards`](Self::shards)) keep operating on *physical* rows —
/// tombstoned rows stay addressable until compaction — and the streaming
/// layer passes explicitly live id lists, so `RecordId` windows and
/// [`ShardView`]s work unchanged on live data.
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

    /// The dominance-kernel variant the key-block checks dispatch to
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
            let row = self.po(i as RecordId);
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

    // --- Dominance checks ----------------------------------------------

    /// Does any of the listed records t-dominate the candidate tuple
    /// `(cand_to, cand_po)`? The list loop: one exact [`t_dominates`]
    /// check per listed record, in list order, stopping at the first
    /// dominator, whatever the store's kernel. Returns `(dominated,
    /// pairs_examined)`.
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
        let mut examined = 0u64;
        for &id in ids {
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
    ///   order.
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

/// Members a [`KeyBlock`] holds when it builds its dimension index.
const INDEX_AT: usize = 256;

/// Buckets per key dimension of a [`KeyBlock`]'s index.
const BUCKETS: usize = 32;

/// Chunks of [`LANES`] members per page of an index axis.
const PAGE: usize = 32;

/// Confirmed skyline members in list order: their record ids plus their
/// keys (TO values, folded ones in dTSS, then one topological ordinal per
/// PO attribute; see [`PointStore::key_into`]).
///
/// Every confirmed-list check is one [`first_match`](Self::first_match)
/// call: by the precedence argument of §IV-A, a member can t-dominate a
/// candidate, or cover an MBB, only if its key is `<=` the candidate's key
/// (the MBB's low corner) on every dimension, so the box filters the list
/// ahead of each check's exact refine.
///
/// A block made by [`new`](Self::new) and grown by [`push`](Self::push)
/// alone indexes itself once it reaches [`INDEX_AT`] members (SDI's
/// dimension indexing): per key dimension, [`BUCKETS`] buckets bounded by
/// quantiles of the keys at that moment, each listing its members in list
/// order. A member in the box lies, on every dimension, in the
/// candidate's bucket or a lower one, so a check needs to scan only one
/// dimension's buckets at or below the candidate's.
#[derive(Debug, Clone)]
pub(crate) struct KeyBlock {
    ids: Vec<RecordId>,
    keys: Keys,
}

/// A [`KeyBlock`]'s keys, before and after it indexes itself.
#[derive(Debug, Clone)]
enum Keys {
    /// One dense, dimension-major [`PointBlock`], scanned as one list. An
    /// `indexable` block indexes itself on the push that brings it to
    /// [`INDEX_AT`] members.
    List { block: PointBlock, indexable: bool },
    /// Row-major keys plus one axis per key dimension, whose buckets
    /// mirror the keys for the lane kernel; the block keeps no whole-list
    /// mirror.
    Indexed { rows: Vec<u32>, axes: Vec<Axis> },
}

/// One key dimension of a [`KeyBlock`]'s index.
#[derive(Debug, Clone)]
struct Axis {
    /// Lower bounds of buckets `1..BUCKETS`, ascending: a key value `v`
    /// lies in bucket [`bucket(v)`](Self::bucket), the number of bounds at
    /// or below `v`.
    bounds: [u32; BUCKETS - 1],
    /// `at_or_below[b]`: the members in buckets `0..=b`.
    at_or_below: [u32; BUCKETS],
    /// Per bucket, the numbers of its chunks, in list order.
    buckets: Vec<Vec<u32>>,
    /// The buckets' members, [`LANES`] to a chunk of `(1 + dims) * LANES`
    /// words: their list positions, then their keys dimension-major, as
    /// in a [`PointBlock`]'s mirror. A chunk's unfilled lanes hold
    /// `u32::MAX`. Chunk `c` is chunk `c % PAGE` of page `c / PAGE`:
    /// fixed-size pages grow the axis without copying it, so a growing
    /// block leaves no freed copies of its index behind.
    pages: Vec<Box<[u32]>>,
    /// Chunks in use.
    chunks: usize,
}

impl Axis {
    /// The axis of dimension `d` over the block's current keys: bucket
    /// bounds at the `b / BUCKETS` quantiles of the keys' values on `d`.
    fn build(keys: &PointBlock, d: usize) -> Self {
        let mut values: Vec<u32> = keys.iter().map(|key| key[d]).collect();
        values.sort_unstable();
        let n = values.len();
        let mut axis = Axis {
            bounds: std::array::from_fn(|b| values[(b + 1) * n / BUCKETS]),
            at_or_below: [0; BUCKETS],
            buckets: vec![Vec::new(); BUCKETS],
            pages: Vec::new(),
            chunks: 0,
        };
        for (pos, key) in keys.iter().enumerate() {
            axis.push(d, pos as u32, key);
        }
        axis
    }

    /// The bucket of key value `v`.
    #[inline]
    fn bucket(&self, v: u32) -> usize {
        self.bounds.partition_point(|&bound| bound <= v)
    }

    /// The members of bucket `b`.
    #[inline]
    fn count(&self, b: usize) -> usize {
        let below = if b == 0 { 0 } else { self.at_or_below[b - 1] };
        (self.at_or_below[b] - below) as usize
    }

    /// Files the member at list position `pos`, with key `key`, under its
    /// value on dimension `d`.
    fn push(&mut self, d: usize, pos: u32, key: &[u32]) {
        let stride = (1 + key.len()) * LANES;
        let b = self.bucket(key[d]);
        let (full, lane) = (self.count(b) / LANES, self.count(b) % LANES);
        if lane == 0 {
            if self.chunks.is_multiple_of(PAGE) {
                self.pages
                    .push(vec![u32::MAX; PAGE * stride].into_boxed_slice());
            }
            self.buckets[b].push(self.chunks as u32);
            self.chunks += 1;
        }
        let c = self.buckets[b][full] as usize;
        let chunk = &mut self.pages[c / PAGE][c % PAGE * stride..][..stride];
        chunk[lane] = pos;
        for (col, &v) in chunk[LANES..].chunks_exact_mut(LANES).zip(key) {
            col[lane] = v;
        }
        for count in &mut self.at_or_below[b..] {
            *count += 1;
        }
    }
}

impl KeyBlock {
    /// An empty block of `dims`-wide keys, which indexes itself once it
    /// is large enough.
    pub(crate) fn new(dims: usize) -> Self {
        KeyBlock {
            ids: Vec::new(),
            keys: Keys::List {
                block: PointBlock::new(dims),
                indexable: dims > 0,
            },
        }
    }

    /// An empty block of `dims`-wide keys that never indexes itself, for
    /// a caller that rewrites the block in place (see
    /// [`retain`](Self::retain)).
    pub(crate) fn unindexed(dims: usize) -> Self {
        KeyBlock {
            ids: Vec::new(),
            keys: Keys::List {
                block: PointBlock::new(dims),
                indexable: false,
            },
        }
    }

    /// Appends member `id` with key `key`.
    #[inline]
    pub(crate) fn push(&mut self, id: RecordId, key: &[u32]) {
        let pos = self.ids.len() as u32;
        self.ids.push(id);
        match &mut self.keys {
            Keys::List { block, indexable } => {
                block.push(key);
                if *indexable && block.len() == INDEX_AT {
                    self.keys = Keys::Indexed {
                        rows: block.flat().to_vec(),
                        axes: (0..block.dims()).map(|d| Axis::build(block, d)).collect(),
                    };
                }
            }
            Keys::Indexed { rows, axes } => {
                rows.extend_from_slice(key);
                for (d, axis) in axes.iter_mut().enumerate() {
                    axis.push(d, pos, key);
                }
            }
        }
    }

    /// Number of members.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff the block holds no members.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The members' record ids, in list order.
    #[inline]
    pub(crate) fn ids(&self) -> &[RecordId] {
        &self.ids
    }

    /// The members' record ids, for renumbering in place (keys stay).
    #[inline]
    pub(crate) fn ids_mut(&mut self) -> &mut [RecordId] {
        &mut self.ids
    }

    /// Key width.
    #[inline]
    fn dims(&self) -> usize {
        match &self.keys {
            Keys::List { block, .. } => block.dims(),
            Keys::Indexed { axes, .. } => axes.len(),
        }
    }

    /// Key of the member at list position `i`.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> &[u32] {
        match &self.keys {
            Keys::List { block, .. } => block.point(i),
            Keys::Indexed { rows, axes } => &rows[i * axes.len()..][..axes.len()],
        }
    }

    /// Takes the block's keys as one list, dropping the index if the block
    /// has one; a zero-width list is left in their place.
    fn take_list(&mut self) -> PointBlock {
        let placeholder = Keys::List {
            block: PointBlock::new(0),
            indexable: false,
        };
        match std::mem::replace(&mut self.keys, placeholder) {
            Keys::List { block, .. } => block,
            Keys::Indexed { rows, axes } => PointBlock::from_flat(axes.len(), rows),
        }
    }

    /// Keeps the members whose `(id, key)` satisfy `keep`, in order: one
    /// compaction pass over ids and keys. The block drops its index, if it
    /// has one, and answers every later check with the list loop: a block
    /// rewritten in place (streaming's skyline, on every demotion and
    /// expiry) would otherwise rebuild the index as often.
    pub(crate) fn retain(&mut self, keep: impl FnMut(RecordId, &[u32]) -> bool) {
        let mut block = self.take_list();
        block.retain_with_ids(&mut self.ids, keep);
        self.keys = Keys::List {
            block,
            indexable: false,
        };
    }

    /// Merges the members of `other`, in any order, into this block, which
    /// lists its members by ascending id: one pass, and the result lists
    /// every member by ascending id. Like a block after
    /// [`retain`](Self::retain), the merged block has no index.
    pub(crate) fn merge_by_id(&mut self, other: &KeyBlock) {
        if other.is_empty() {
            return;
        }
        let mut order: Vec<usize> = (0..other.len()).collect();
        order.sort_unstable_by_key(|&j| other.ids[j]);
        let total = self.len() + other.len();
        let mut merged = KeyBlock {
            ids: Vec::with_capacity(total),
            keys: Keys::List {
                block: PointBlock::with_capacity(self.dims(), total),
                indexable: false,
            },
        };
        let mut i = 0;
        for j in order {
            while i < self.len() && self.ids[i] < other.ids[j] {
                merged.push(self.ids[i], self.key(i));
                i += 1;
            }
            merged.push(other.ids[j], other.key(j));
        }
        for i in i..self.len() {
            merged.push(self.ids[i], self.key(i));
        }
        *self = merged;
    }

    /// The first member, in scan order, whose key is `<=` `corner` on every
    /// dimension and that `refine(id, key)` accepts. Returns `(hit,
    /// examined)`: the members scanned up to and including the hit, or
    /// every scanned member on a miss.
    ///
    /// Without an index the scan is the whole list, in list order, and
    /// `examined` is the list loop's count. With one, it is one dimension's
    /// buckets: the dimension with the fewest members in the buckets at or
    /// below the corner's (the first such on a tie), from the corner's own
    /// bucket down to bucket 0, each bucket in list order. That scan
    /// passes every in-box member, so a refine that accepts only in-box
    /// members, as every dominance refine does, gets the list loop's
    /// `hit`.
    ///
    /// [`Kernel::Scalar`] is the loop over the scan, the oracle: the box
    /// test, then `refine`, member by member. [`Kernel::Lanes`] tests the
    /// box for [`LANES`] members at a time ([`PointBlock::first_in_box`]
    /// over the whole block, or [`box_mask`] over each chunk of a scanned
    /// bucket) and calls `refine` only on the in-box ones, in order. Both
    /// return the same `(hit, examined)`.
    #[inline]
    pub(crate) fn first_match(
        &self,
        kernel: Kernel,
        corner: &[u32],
        mut refine: impl FnMut(RecordId, &[u32]) -> bool,
    ) -> (bool, u64) {
        let axes = match &self.keys {
            Keys::List { block, .. } => {
                return match kernel {
                    Kernel::Scalar => self.scan(0..self.len(), corner, &mut refine),
                    Kernel::Lanes => {
                        block.first_in_box(corner, |i| refine(self.ids[i], block.point(i)))
                    }
                };
            }
            Keys::Indexed { axes, .. } => axes,
        };
        let Some((axis, top)) = axes
            .iter()
            .zip(corner)
            .map(|(axis, &c)| (axis, axis.bucket(c)))
            .min_by_key(|&(axis, b)| axis.at_or_below[b])
        else {
            return (false, 0);
        };
        let stride = (1 + corner.len()) * LANES;
        let mut scanned = 0;
        for b in (0..=top).rev() {
            let mut left = axis.count(b);
            for &c in &axis.buckets[b] {
                let (c, page) = (c as usize % PAGE, &axis.pages[c as usize / PAGE]);
                let (pos, mirror) = page[c * stride..][..stride].split_at(LANES);
                let pos = &pos[..left.min(LANES)];
                left -= pos.len();
                let (hit, examined) = match kernel {
                    Kernel::Scalar => {
                        self.scan(pos.iter().map(|&p| p as usize), corner, &mut refine)
                    }
                    Kernel::Lanes => self.chunk_first_in_box(pos, mirror, corner, &mut refine),
                };
                scanned += examined;
                if hit {
                    return (true, scanned);
                }
            }
        }
        (false, scanned)
    }

    /// [`PointBlock::first_in_box`] over one chunk of an index bucket: the
    /// members at list positions `pos` (at most [`LANES`]), whose keys
    /// `mirror` holds dimension-major.
    #[inline]
    fn chunk_first_in_box(
        &self,
        pos: &[u32],
        mirror: &[u32],
        corner: &[u32],
        refine: &mut impl FnMut(RecordId, &[u32]) -> bool,
    ) -> (bool, u64) {
        let mut mask = box_mask(mirror, corner);
        if pos.len() < LANES {
            mask &= (1 << pos.len()) - 1;
        }
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            let p = pos[lane] as usize;
            if refine(self.ids[p], self.key(p)) {
                return (true, lane as u64 + 1);
            }
            mask &= mask - 1;
        }
        (false, pos.len() as u64)
    }

    /// True iff the block has built its dimension index.
    #[cfg(test)]
    pub(crate) fn indexed(&self) -> bool {
        matches!(self.keys, Keys::Indexed { .. })
    }

    /// The list loop over the members at list positions `positions`, in
    /// that order: the box test, then `refine`, stopping at the first hit.
    fn scan(
        &self,
        positions: impl Iterator<Item = usize>,
        corner: &[u32],
        refine: &mut impl FnMut(RecordId, &[u32]) -> bool,
    ) -> (bool, u64) {
        let mut examined = 0;
        for p in positions {
            examined += 1;
            let key = self.key(p);
            if key.iter().zip(corner).all(|(k, c)| k <= c) && refine(self.ids[p], key) {
                return (true, examined);
            }
        }
        (false, examined)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dominance::dominates_oracle;
    use poset::Dag;
    use proptest::prelude::*;

    #[test]
    fn push_and_access() {
        let mut t = PointStore::new(2, 1);
        t.push(&[1, 2], &[0]);
        t.push(&[3, 4], &[5]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.to(0), &[1, 2]);
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
        assert_eq!(t.po(0), &[1, 2]);
        assert!(t.to(0).is_empty());
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
        let mut t = PointStore::new(1, 1);
        t.push(&[9], &[8]); // dominates nothing relevant
        t.push(&[2], &[2]); // c at cost 2: dominates (3, f)
        t.push(&[0], &[0]); // never reached once a dominator is found
        let (hit, examined) = t.t_dominated_by_any(&doms, &[3], &[5], &[0, 1, 2]);
        assert!(hit);
        assert_eq!(examined, 2, "early exit after record two");
        let (miss, examined) = t.t_dominated_by_any(&doms, &[0], &[0], &[0, 1, 2]);
        assert!(!miss, "duplicates of record 2 not dominated");
        assert_eq!(examined, 3);
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
                assert_eq!(v.to_block().as_ptr(), t.to(v.start()).as_ptr());
                // The owned copy round-trips row for row.
                let owned = v.to_store();
                for (local, global) in (0..).zip(v.range()) {
                    assert_eq!(owned.to(local), t.to(global));
                    assert_eq!(owned.po(local), t.po(global));
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
                if dominates_oracle(&doms, t.to(i), t.po(i), t.to(j), t.po(j)) {
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

        assert!(t.expire(b), "first expiry succeeds");
        assert!(!t.expire(b), "double expiry is a no-op");
        // Ids at or past `len()` were never live: expiring one is a no-op.
        for id in [3, 5, 64, 1000] {
            assert!(!t.is_live(id) && !t.expire(id), "id {id}");
        }
        assert_eq!(t.generation(), 4, "the no-ops did not bump the epoch");
        assert_eq!((t.len(), t.live_len()), (3, 2));
        assert!(t.is_live(a) && !t.is_live(b) && t.is_live(c));
        assert_eq!(t.live_ids().collect::<Vec<_>>(), vec![0, 2]);
        // Physical accessors still address the tombstoned row.
        assert_eq!(t.to(b), &[2]);

        let survivors = t.compact();
        assert_eq!(survivors, vec![0, 2]);
        assert_eq!(t.generation(), 5);
        assert_eq!((t.len(), t.live_len()), (2, 2));
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

    /// How [`box_scan_case`] fills the stored rows' TO values.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum ToFill {
        /// Values in `0..4`, forcing `<=`/`<`/equality collisions. Past
        /// the index size every value a key takes is a bucket bound.
        Tight,
        /// As `Tight`, but the first TO value is `1` in every row: a key
        /// dimension on which every member is equal.
        FirstPinned,
        /// `u32::MAX` everywhere.
        Max,
    }

    /// A store of `n` rows over the paper domain, with TO values filled
    /// as `fill` says, the key block of a rotated id list over all rows
    /// with one repeated record, and a candidate `(key, po)` that is fresh,
    /// a copy of a listed row, or a listed row worsened on TO.
    #[allow(clippy::type_complexity)]
    pub(crate) fn box_scan_case(
        to_dims: usize,
        po_dims: usize,
        n: usize,
        seed: u64,
        fill: ToFill,
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
                .map(|d| match fill {
                    ToFill::Max => u32::MAX,
                    ToFill::FirstPinned if d == 0 => 1,
                    _ => next(4),
                })
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
        let max = fill == ToFill::Max;
        let (cand_to, cand_po): (Vec<u32>, Vec<u32>) = match seed % 3 {
            0 if !max => (
                (0..to_dims).map(|_| next(4)).collect(),
                (0..po_dims).map(|_| next(9)).collect(),
            ),
            1 if !max => (
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
    /// at and just above multiples of [`LANES`], and just below, at, just
    /// above and well above the size at which a block indexes itself.
    pub(crate) const BOX_SCAN_LENGTHS: [usize; 13] = [
        1,
        LANES - 1,
        LANES,
        LANES + 1,
        2 * LANES - 1,
        2 * LANES,
        2 * LANES + 1,
        3 * LANES - 1,
        5 * LANES + 3,
        INDEX_AT - 1,
        INDEX_AT,
        INDEX_AT + 1,
        4 * INDEX_AT + 3,
    ];

    /// `(to_dims, po_dims, fill)` shapes of the box-scan equivalence
    /// tests: mixed, mixed with one constant dimension, PO-only, TO-only
    /// (the shape of TO-only sharding), `u32::MAX` TO values with no PO
    /// dims — the one shape whose pad lanes pass the box — and no
    /// dimensions at all (a zero-width key block).
    pub(crate) const BOX_SCAN_SHAPES: [(usize, usize, ToFill); 10] = [
        (2, 2, ToFill::Tight),
        (2, 2, ToFill::FirstPinned),
        (1, 1, ToFill::Tight),
        (3, 1, ToFill::Tight),
        (0, 1, ToFill::Tight),
        (0, 2, ToFill::Tight),
        (2, 0, ToFill::Tight),
        (1, 0, ToFill::Tight),
        (2, 0, ToFill::Max),
        (0, 0, ToFill::Tight),
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
        /// Every form of the key-block check finds a member exactly when a
        /// plain list loop over its exact predicate does, on every shape
        /// and list length: the point form (t-dominance), and dTSS's corner
        /// forms with tie exclusion (the subtree check, which is
        /// t-dominance of the corner) and without it (group dismissal).
        /// Both kernels return the same `(hit, examined)`; below the index
        /// size that is the list loop's, and an indexed block examines no
        /// more members than it holds.
        #[test]
        fn box_scan_point_form_matches_the_scalar_list_scan(seed in 0u64..1 << 20) {
            for (to_dims, po_dims, fill) in BOX_SCAN_SHAPES {
                for n in BOX_SCAN_LENGTHS {
                    let (store, doms, block, key, po) =
                        box_scan_case(to_dims, po_dims, n, seed, fill);
                    let indexed = n >= INDEX_AT && to_dims + po_dims > 0;
                    prop_assert_eq!(block.indexed(), indexed);
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
                    let point = store.t_dominated_by_any(&doms, to, &po, block.ids());
                    prop_assert_eq!(corner(false), point);
                    let covered = corner(true);
                    let mut answers = Vec::new();
                    for kernel in [Kernel::Scalar, Kernel::Lanes] {
                        let store = store.clone().with_kernel(kernel);
                        let case = format!("{kernel:?} dims=({to_dims},{po_dims}) {fill:?} n={n}");
                        let got = (
                            store.t_dominated_by_keys(&doms, &key, &po, &block),
                            store.covered_by_keys(&doms, &key, &po, &block),
                        );
                        if indexed {
                            prop_assert_eq!((got.0 .0, got.1 .0), (point.0, covered.0), "{}", case);
                            prop_assert!(got.0 .1 <= n as u64 && got.1 .1 <= n as u64, "{}", case);
                        } else {
                            prop_assert_eq!(got, (point, covered), "{}", case);
                        }
                        answers.push(got);
                    }
                    prop_assert_eq!(answers[0], answers[1], "kernels differ: dims=({},{}) {:?} n={}", to_dims, po_dims, fill, n);
                }
            }
        }
    }

    /// A block rewritten in place drops its index: after `retain`, or
    /// after `merge_by_id` into an indexed block, every check is the list
    /// loop again, with its `(hit, examined)`, under both kernels.
    #[test]
    fn rewritten_blocks_answer_as_the_list_loop() {
        let check = |store: &PointStore, doms: &[PoDomain], block: &KeyBlock| {
            assert!(!block.indexed());
            let mut key = Vec::new();
            for r in (0..store.len() as RecordId).step_by(7) {
                // A member's own row, and that row worsened on TO.
                for worse in [0, 1] {
                    let to: Vec<u32> = store.to(r).iter().map(|&x| x + worse).collect();
                    let po = store.po(r);
                    let mut cand = PointStore::new(store.to_dims(), store.po_dims());
                    cand.push(&to, po);
                    key.clear();
                    cand.key_into(doms, 0, &mut key);
                    let expect = store.t_dominated_by_any(doms, &to, po, block.ids());
                    for kernel in [Kernel::Scalar, Kernel::Lanes] {
                        let store = store.clone().with_kernel(kernel);
                        assert_eq!(
                            store.t_dominated_by_keys(doms, &key, po, block),
                            expect,
                            "{kernel:?} record {r} worse {worse}"
                        );
                    }
                }
            }
        };
        for seed in 0..8u64 {
            let (store, doms, mut block, _, _) =
                box_scan_case(2, 2, INDEX_AT + 40, seed, ToFill::Tight);
            assert!(block.indexed());
            block.retain(|id, _| id % 5 != 0);
            check(&store, &doms, &block);

            // Even ids, ascending, past the index size; then the odd ones.
            let (store, doms, _, _, _) =
                box_scan_case(2, 2, 2 * INDEX_AT + 10, seed, ToFill::Tight);
            let mut evens = KeyBlock::new(4);
            let mut odds = KeyBlock::new(4);
            let mut key = Vec::new();
            for r in 0..store.len() as RecordId {
                key.clear();
                store.key_into(&doms, r, &mut key);
                if r % 2 == 0 { &mut evens } else { &mut odds }.push(r, &key);
            }
            assert!(evens.indexed());
            evens.merge_by_id(&odds);
            assert_eq!(
                evens.ids(),
                (0..store.len() as RecordId).collect::<Vec<_>>()
            );
            check(&store, &doms, &evens);
        }
    }

    proptest! {
        /// The list loop agrees with the closure oracle at every
        /// TO width, PO-only included. Each pair is checked alone, and the
        /// whole rotated id list must report the oracle's first hit and the
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
                |id: RecordId| dominates_oracle(&doms, store.to(id), store.po(id), &cand_to, &cand_po);
            let expect = match ids.iter().position(|&id| dominates(id)) {
                Some(i) => (true, i as u64 + 1),
                None => (false, n as u64),
            };
            for &id in &ids {
                prop_assert_eq!(
                    store.t_dominated_by_any(&doms, &cand_to, &cand_po, &[id]),
                    (dominates(id), 1),
                    "record {}", id
                );
            }
            prop_assert_eq!(store.t_dominated_by_any(&doms, &cand_to, &cand_po, &ids), expect);
        }
    }
}
