//! The columnar point layout every engine in the workspace computes on: a
//! single flat `Vec<u32>` with a fixed stride, indexed by `u32` record ids.
//!
//! Per-point `Vec<u32>` rows (the seed layout) cost one heap allocation and
//! one pointer chase per point; on the skyline-list hot loops that — not
//! the comparison work — dominates the CPU side of the paper's cost model.
//! A [`PointBlock`] stores all coordinates contiguously, so a dominance
//! scan over a candidate list walks memory linearly, and the batched
//! kernels below test one candidate against a whole block of points with a
//! branch-free inner comparison and early exit across rows.
//!
//! # Lane-chunked kernels and the SoA mirror
//!
//! Each batched kernel exists in two variants behind one signature,
//! selected by [`Kernel`]:
//!
//! * **scalar** — the seed row-major loop, kept as the oracle path;
//! * **lanes** — compares [`LANES`] rows per iteration against the
//!   candidate with `[u32; LANES]` accumulator masks (`le`/`lt` per lane)
//!   that stable rustc autovectorizes, a movemask-style any-lane test for
//!   early exit at chunk granularity, and first-set-lane resolution in
//!   record order so the hit row — and therefore the examined-pair count —
//!   is exactly the scalar loop's.
//!
//! The full-block scans read a **dimension-major (structure-of-arrays)
//! mirror** maintained alongside the row-major matrix:
//! `soa[(chunk * dims + d) * LANES + lane]` holds dimension `d` of point
//! `chunk * LANES + lane`, so one chunk's per-dimension column is
//! contiguous. Tail lanes past `len` are padded with `u32::MAX`, which can
//! tie a candidate on every dimension but never beat it strictly — a pad
//! lane's `lt` mask is always zero, so pads can never report dominance.
//! The id-gather kernel (the strictness variant) transposes each group of
//! [`LANES`] listed rows into a stack scratch instead (ids are arbitrary,
//! so no mirror window applies).
//!
//! Counting convention: every kernel returns `(answer, pairs_examined)`.
//! One *examined pair* is exactly one scalar dominance check of the seed
//! implementation — early exit means the batched count is never larger
//! than the scalar loop's, and the two kernel variants count identically
//! on every input. Callers fold the pair count into `dominance_checks`
//! and bump `dominance_batch_calls` once per kernel invocation (see
//! [`Stats::batch`](crate::Stats::batch)).

use std::sync::OnceLock;

/// Rows compared per lane-chunked kernel iteration. Eight `u32` lanes fill
/// one 256-bit vector register (AVX2) and two 128-bit ones (SSE/NEON), the
/// widths stable rustc reliably autovectorizes the accumulator loops to.
pub const LANES: usize = 8;

/// Widest stride the id-gather lane kernel transposes through its stack
/// scratch; wider blocks take the scalar path (the workloads in this repo
/// top out at 16 attributes).
const LANE_MAX_DIMS: usize = 16;

/// Which dominance-kernel variant a [`PointBlock`] (or
/// `tss_core::PointStore`) dispatches to. Both variants are byte-identical
/// in results *and* examined-pair counts; `Scalar` is the oracle path,
/// `Lanes` the autovectorized one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The seed row-major scalar loops.
    Scalar,
    /// [`LANES`]-wide chunked compares over the SoA mirror / gathered
    /// groups.
    Lanes,
}

impl Kernel {
    /// The process-wide default variant: `TSS_KERNEL=scalar` forces the
    /// oracle path, anything else (including unset) selects `Lanes`. Read
    /// once per process; per-instance overrides go through
    /// [`PointBlock::with_kernel`].
    pub fn active() -> Kernel {
        static ACTIVE: OnceLock<Kernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| match std::env::var("TSS_KERNEL") {
            Ok(v) if v.eq_ignore_ascii_case("scalar") => Kernel::Scalar,
            _ => Kernel::Lanes,
        })
    }

    /// Stable lowercase name (`"scalar"` / `"lanes"`), as spelled in
    /// `TSS_KERNEL` and bench-row JSON.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Lanes => "lanes",
        }
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::active()
    }
}

/// A flat, fixed-stride block of points: `data[i*dims .. (i+1)*dims]` are
/// the coordinates of point `i`. Zero per-point allocations; `O(1)` slice
/// access by record id. Alongside the row-major matrix the block maintains
/// the dimension-major mirror the lane-chunked kernels scan (see the
/// module docs); equality compares the logical contents only (`dims` +
/// row-major data), not the mirror or the configured [`Kernel`].
#[derive(Debug, Clone, Default)]
pub struct PointBlock {
    dims: usize,
    data: Vec<u32>,
    /// Dimension-major mirror: `soa[(chunk*dims + d)*LANES + lane]` =
    /// coordinate `d` of point `chunk*LANES + lane`; tail lanes hold
    /// `u32::MAX` pads.
    soa: Vec<u32>,
    kernel: Kernel,
}

impl PartialEq for PointBlock {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims && self.data == other.data
    }
}

impl Eq for PointBlock {}

/// Branch-free pair check: `row` dominates `cand` iff `row <= cand`
/// everywhere and `row < cand` somewhere. Both flags accumulate without
/// per-dimension branching (dimensionalities are small; mispredicted exits
/// cost more than the spare compares).
#[inline]
pub(crate) fn row_dominates(row: &[u32], cand: &[u32]) -> bool {
    let mut le = true;
    let mut lt = false;
    for (&a, &b) in row.iter().zip(cand.iter()) {
        le &= a <= b;
        lt |= a < b;
    }
    le & lt
}

impl PointBlock {
    /// An empty block of `dims`-dimensional points.
    pub fn new(dims: usize) -> Self {
        PointBlock {
            dims,
            data: Vec::new(),
            soa: Vec::new(),
            kernel: Kernel::default(),
        }
    }

    /// An empty block with room for `points` points.
    pub fn with_capacity(dims: usize, points: usize) -> Self {
        PointBlock {
            dims,
            data: Vec::with_capacity(dims * points),
            soa: Vec::with_capacity(points.div_ceil(LANES) * LANES * dims),
            kernel: Kernel::default(),
        }
    }

    /// Wraps an already-flattened row-major matrix (`data.len()` must be a
    /// multiple of `dims`).
    pub fn from_flat(dims: usize, data: Vec<u32>) -> Self {
        assert!(dims > 0, "points need at least one dimension");
        assert_eq!(data.len() % dims, 0, "flat data must be a whole matrix");
        let mut b = PointBlock {
            dims,
            data,
            soa: Vec::new(),
            kernel: Kernel::default(),
        };
        b.rebuild_soa();
        b
    }

    /// Copies per-point rows into a fresh block (test and ingestion
    /// convenience — the hot paths never materialize rows).
    pub fn from_rows(rows: &[Vec<u32>]) -> Self {
        let dims = rows.first().map_or(1, Vec::len);
        let mut b = PointBlock::with_capacity(dims, rows.len());
        for r in rows {
            b.push(r);
        }
        b
    }

    /// The dominance-kernel variant this block dispatches to.
    #[inline]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Returns the block with the given kernel variant forced (tests and
    /// the bench harness's in-process scalar-vs-lanes cross-checks).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Forces the kernel variant in place.
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.kernel = kernel;
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dims
    }

    /// True iff the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Point dimensionality (the stride).
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The coordinates of point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[u32] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// One bounds check per row instead of two: split the flat matrix at
    /// the row start, then take the stride window off the tail.
    #[inline]
    fn row(&self, id: u32) -> &[u32] {
        let (_, tail) = self.data.split_at(id as usize * self.dims);
        &tail[..self.dims]
    }

    /// Appends one point.
    #[inline]
    pub fn push(&mut self, coords: &[u32]) {
        assert_eq!(coords.len(), self.dims, "point width");
        self.data.extend_from_slice(coords);
        if self.dims == 0 {
            return;
        }
        let i = self.len() - 1;
        let (chunk, lane) = (i / LANES, i % LANES);
        if lane == 0 {
            // New chunk: open it fully padded, then fill lane 0.
            self.soa
                .resize(self.soa.len() + self.dims * LANES, u32::MAX);
        }
        for (d, &c) in coords.iter().enumerate() {
            self.soa[(chunk * self.dims + d) * LANES + lane] = c;
        }
    }

    /// Removes all points, keeping the allocations.
    pub fn clear(&mut self) {
        self.data.clear();
        self.soa.clear();
    }

    /// Moves all points of `other` (same stride) to the end of this block.
    pub fn append(&mut self, other: &mut PointBlock) {
        assert_eq!(self.dims, other.dims, "stride mismatch");
        self.data.append(&mut other.data);
        other.soa.clear();
        self.rebuild_soa();
    }

    /// Iterates over the points in record order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.data.chunks_exact(self.dims)
    }

    /// The whole flat coordinate matrix (row-major).
    #[inline]
    pub fn flat(&self) -> &[u32] {
        &self.data
    }

    /// Keeps only the points whose `(index, coords)` satisfy `keep`,
    /// compacting in place and preserving order. `ids` is a parallel vector
    /// (one entry per point) compacted identically.
    pub fn retain_with_ids(
        &mut self,
        ids: &mut Vec<u32>,
        mut keep: impl FnMut(u32, &[u32]) -> bool,
    ) {
        debug_assert_eq!(ids.len(), self.len());
        let dims = self.dims;
        let mut write = 0usize;
        for read in 0..ids.len() {
            let start = read * dims;
            let ok = keep(ids[read], &self.data[start..start + dims]);
            if ok {
                if write != read {
                    ids[write] = ids[read];
                    self.data.copy_within(start..start + dims, write * dims);
                }
                write += 1;
            }
        }
        ids.truncate(write);
        self.data.truncate(write * dims);
        self.rebuild_soa();
    }

    /// Re-derives the dimension-major mirror from the row-major matrix
    /// (bulk mutations; `push` maintains it incrementally).
    fn rebuild_soa(&mut self) {
        let dims = self.dims;
        if dims == 0 {
            self.soa.clear();
            return;
        }
        let n = self.len();
        self.soa.clear();
        self.soa.resize(n.div_ceil(LANES) * dims * LANES, u32::MAX);
        for (i, row) in self.data.chunks_exact(dims).enumerate() {
            let (chunk, lane) = (i / LANES, i % LANES);
            for (d, &c) in row.iter().enumerate() {
                self.soa[(chunk * dims + d) * LANES + lane] = c;
            }
        }
    }

    // --- Batched dominance kernels --------------------------------------

    /// Does any point of the block strictly dominate `cand`? Scans all rows
    /// in record order with early exit. Returns `(dominated,
    /// pairs_examined)`.
    #[inline]
    pub fn dominated(&self, cand: &[u32]) -> (bool, u64) {
        debug_assert_eq!(cand.len(), self.dims);
        match self.kernel {
            Kernel::Scalar => self.dominated_scalar(cand),
            Kernel::Lanes => self.dominated_lanes(cand),
        }
    }

    fn dominated_scalar(&self, cand: &[u32]) -> (bool, u64) {
        let mut examined = 0u64;
        for row in self.data.chunks_exact(self.dims) {
            examined += 1;
            if row_dominates(row, cand) {
                return (true, examined);
            }
        }
        (false, examined)
    }

    /// Full-block lane scan over the SoA mirror: one contiguous
    /// per-dimension column load per chunk, `le`/`lt` masks across
    /// [`LANES`] rows, any-lane early exit, first-set-lane resolution in
    /// record order. Pad lanes (`u32::MAX` everywhere) can never set `lt`,
    /// so they never report dominance. Past 4 dimensions the column loop
    /// bails once every lane's `le` is dead — dead `le` can never revive,
    /// so the skip is invisible to both the result and the counters, and
    /// it keeps the wide-row case competitive with the scalar kernel's
    /// per-row early exit.
    fn dominated_lanes(&self, cand: &[u32]) -> (bool, u64) {
        let dims = self.dims;
        let mut base = 0u64;
        for chunk in self.soa.chunks_exact(dims * LANES) {
            let mut le = [1u32; LANES];
            let mut lt = [0u32; LANES];
            for (col, &cd) in chunk.chunks_exact(LANES).zip(cand.iter()) {
                for l in 0..LANES {
                    le[l] &= (col[l] <= cd) as u32;
                    lt[l] |= (col[l] < cd) as u32;
                }
                if dims > 4 && le.iter().fold(0u32, |a, &x| a | x) == 0 {
                    break;
                }
            }
            let mut any = 0u32;
            for l in 0..LANES {
                any |= le[l] & lt[l];
            }
            if any != 0 {
                for l in 0..LANES {
                    if le[l] & lt[l] != 0 {
                        return (true, base + l as u64 + 1);
                    }
                }
            }
            base += LANES as u64;
        }
        (false, self.len() as u64)
    }

    /// Corner pruning: is some point `<=` the MBB corner on every dimension
    /// *and* different from it? (The strict-corner rule that keeps exact
    /// duplicates of skyline points alive — see `bbs.rs`.) Scans all rows.
    ///
    /// Single fused pass: given `row <= corner` everywhere, `row != corner`
    /// holds exactly when `row < corner` somewhere — so the corner rule *is*
    /// strict dominance of the corner, and the old second equality walk
    /// over the row is gone.
    #[inline]
    pub fn corner_pruned(&self, corner: &[u32]) -> (bool, u64) {
        self.dominated(corner)
    }

    /// The strictness-precomputed variant for same-key groups: each entry
    /// is `(point index, strict_elsewhere)`, where `strict_elsewhere`
    /// records that the entry already beats the candidate strictly on some
    /// dimension *outside* this block (e.g. a partially ordered attribute
    /// shared group-wide). The entry then dominates iff its coordinates are
    /// `<=` the candidate everywhere and, when not strict elsewhere, differ
    /// from it somewhere — and "differs under `<=` everywhere" is "strictly
    /// smaller somewhere", so one fused `le`/`lt` pass decides each pair.
    #[inline]
    pub fn dominated_with_strictness(&self, entries: &[(u32, bool)], cand: &[u32]) -> (bool, u64) {
        debug_assert_eq!(cand.len(), self.dims);
        match self.kernel {
            Kernel::Scalar => self.dominated_with_strictness_scalar(entries, cand),
            Kernel::Lanes => self.dominated_with_strictness_lanes(entries, cand),
        }
    }

    fn dominated_with_strictness_scalar(
        &self,
        entries: &[(u32, bool)],
        cand: &[u32],
    ) -> (bool, u64) {
        let mut examined = 0u64;
        for &(id, strict) in entries {
            examined += 1;
            let mut le = true;
            let mut lt = false;
            for (&a, &b) in self.row(id).iter().zip(cand.iter()) {
                le &= a <= b;
                lt |= a < b;
            }
            if le && (strict || lt) {
                return (true, examined);
            }
        }
        (false, examined)
    }

    /// Id-gather lane kernel: each group of [`LANES`] listed rows is
    /// transposed into a dimension-major stack scratch (one row slice per
    /// id), then compared with the same mask loop as the full-block scan;
    /// the sub-[`LANES`] tail runs scalar.
    fn dominated_with_strictness_lanes(
        &self,
        entries: &[(u32, bool)],
        cand: &[u32],
    ) -> (bool, u64) {
        let dims = self.dims;
        if dims > LANE_MAX_DIMS {
            return self.dominated_with_strictness_scalar(entries, cand);
        }
        let mut scratch = [0u32; LANES * LANE_MAX_DIMS];
        let mut examined = 0u64;
        let groups = entries.chunks_exact(LANES);
        let tail = groups.remainder();
        for group in groups {
            let mut strict = [0u32; LANES];
            for (l, &(id, s)) in group.iter().enumerate() {
                strict[l] = s as u32;
                let row = self.row(id);
                for d in 0..dims {
                    scratch[d * LANES + l] = row[d];
                }
            }
            let mut le = [1u32; LANES];
            let mut lt = [0u32; LANES];
            for (col, &cd) in scratch[..dims * LANES].chunks_exact(LANES).zip(cand.iter()) {
                for l in 0..LANES {
                    le[l] &= (col[l] <= cd) as u32;
                    lt[l] |= (col[l] < cd) as u32;
                }
                if dims > 4 && le.iter().fold(0u32, |a, &x| a | x) == 0 {
                    break;
                }
            }
            let mut any = 0u32;
            for l in 0..LANES {
                any |= le[l] & (strict[l] | lt[l]);
            }
            if any != 0 {
                for l in 0..LANES {
                    if le[l] & (strict[l] | lt[l]) != 0 {
                        return (true, examined + l as u64 + 1);
                    }
                }
            }
            examined += LANES as u64;
        }
        for &(id, strict) in tail {
            examined += 1;
            let mut le = true;
            let mut lt = false;
            for (&a, &b) in self.row(id).iter().zip(cand.iter()) {
                le &= a <= b;
                lt |= a < b;
            }
            if le && (strict || lt) {
                return (true, examined);
            }
        }
        (false, examined)
    }
}

impl From<Vec<Vec<u32>>> for PointBlock {
    fn from(rows: Vec<Vec<u32>>) -> Self {
        PointBlock::from_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::dominates;
    use proptest::prelude::*;

    #[test]
    fn layout_round_trips() {
        let mut b = PointBlock::new(2);
        b.push(&[1, 2]);
        b.push(&[3, 4]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.point(0), &[1, 2]);
        assert_eq!(b.point(1), &[3, 4]);
        assert_eq!(b.flat(), &[1, 2, 3, 4]);
        let again = PointBlock::from_flat(2, b.flat().to_vec());
        assert_eq!(again, b);
        assert_eq!(b.iter().count(), 2);
    }

    #[test]
    fn soa_mirror_tracks_every_mutation() {
        // Interleave pushes, retain and append across a chunk boundary and
        // check the mirror against a from-scratch rebuild each time.
        let dims = 3;
        let mut b = PointBlock::new(dims);
        let check = |b: &PointBlock| {
            let expect = PointBlock::from_flat(dims, b.flat().to_vec());
            assert_eq!(b.soa, expect.soa, "mirror out of sync: {:?}", b.flat());
            assert_eq!(b.soa.len(), b.len().div_ceil(LANES) * dims * LANES);
        };
        for i in 0..19u32 {
            b.push(&[i, 50 - i, i % 4]);
            check(&b);
        }
        let mut ids: Vec<u32> = (0..19).collect();
        b.retain_with_ids(&mut ids, |id, _| id % 3 != 0);
        check(&b);
        let mut other = PointBlock::from_rows(&[vec![9, 9, 9], vec![8, 8, 8]]);
        b.append(&mut other);
        check(&b);
        assert!(other.is_empty());
        check(&other);
        b.clear();
        check(&b);
    }

    #[test]
    fn kernels_agree_with_scalar_checks() {
        for kernel in [Kernel::Scalar, Kernel::Lanes] {
            let b =
                PointBlock::from_rows(&[vec![2, 2], vec![5, 1], vec![3, 3]]).with_kernel(kernel);
            // (3,3) is dominated by (2,2) — found after one examined pair.
            assert_eq!(b.dominated(&[3, 3]), (true, 1));
            // (1,1) is dominated by nobody; all three rows examined.
            assert_eq!(b.dominated(&[1, 1]), (false, 3));
            // Duplicates never dominate.
            assert!(!b.dominated(&[2, 2]).0);
        }
    }

    #[test]
    fn corner_rule_spares_exact_duplicates() {
        for kernel in [Kernel::Scalar, Kernel::Lanes] {
            let b = PointBlock::from_rows(&[vec![2, 2]]).with_kernel(kernel);
            assert!(b.corner_pruned(&[3, 3]).0);
            assert!(!b.corner_pruned(&[2, 2]).0, "equal corner must survive");
            assert!(!b.corner_pruned(&[1, 4]).0);
        }
    }

    #[test]
    fn strictness_variant_matches_semantics() {
        for kernel in [Kernel::Scalar, Kernel::Lanes] {
            let b = PointBlock::from_rows(&[vec![2, 2], vec![4, 4]]).with_kernel(kernel);
            // Equal coordinates dominate only when strict elsewhere.
            assert!(!b.dominated_with_strictness(&[(0, false)], &[2, 2]).0);
            assert!(b.dominated_with_strictness(&[(0, true)], &[2, 2]).0);
            // Strictly better coordinates dominate either way.
            assert!(b.dominated_with_strictness(&[(0, false)], &[3, 3]).0);
            // Worse coordinates never do.
            assert!(!b.dominated_with_strictness(&[(1, true)], &[3, 3]).0);
        }
    }

    #[test]
    fn pad_lanes_never_dominate_a_max_candidate() {
        // A candidate at u32::MAX everywhere ties the tail pads on every
        // dimension; the pads must still not count as dominators (le
        // without lt), while a real row beats it.
        let mut b = PointBlock::new(2).with_kernel(Kernel::Lanes);
        b.push(&[u32::MAX, u32::MAX]);
        assert_eq!(b.dominated(&[u32::MAX, u32::MAX]), (false, 1));
        b.push(&[0, 0]);
        assert_eq!(b.dominated(&[u32::MAX, u32::MAX]), (true, 2));
    }

    #[test]
    fn retain_compacts_in_order() {
        let mut b = PointBlock::from_rows(&[vec![1, 1], vec![2, 2], vec![3, 3], vec![4, 4]]);
        let mut ids = vec![10, 20, 30, 40];
        b.retain_with_ids(&mut ids, |id, row| id != 20 && row[0] != 4);
        assert_eq!(ids, vec![10, 30]);
        assert_eq!(b.point(0), &[1, 1]);
        assert_eq!(b.point(1), &[3, 3]);
        assert_eq!(b.len(), 2);
    }

    proptest! {
        /// The batched kernel (both variants) agrees with the scalar
        /// `dominates` loop and never examines more pairs than the scalar
        /// early-exit scan.
        #[test]
        fn batched_equals_scalar_loop(
            rows in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 3), 1..40),
            cand in proptest::collection::vec(0u32..6, 3),
        ) {
            let b = PointBlock::from_rows(&rows);
            let mut scalar = 0u64;
            let mut expect = false;
            for r in &rows {
                scalar += 1;
                if dominates(r, &cand) { expect = true; break; }
            }
            for kernel in [Kernel::Scalar, Kernel::Lanes] {
                let b = b.clone().with_kernel(kernel);
                let (got, examined) = b.dominated(&cand);
                prop_assert_eq!(got, expect);
                prop_assert_eq!(examined, scalar);
            }
        }

        /// Lane-chunked ≡ scalar ≡ oracle across every kernel, on ragged
        /// sizes (n % LANES ≠ 0 included by construction), duplicate rows
        /// and dims 1..=16 — results *and* exact examined-pair counts.
        #[test]
        fn lanes_equal_scalar_on_every_kernel(
            dims in 1usize..=16,
            n in 1usize..40,
            seed in 0u64..1024,
            dup in proptest::bool::ANY,
        ) {
            // Deterministic pseudo-random fill from the seed (tight value
            // range forces le/lt/equality collisions).
            let mut s = seed;
            let mut next = move || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); (s >> 33) as u32 % 5 };
            let mut rows: Vec<Vec<u32>> = (0..n).map(|_| (0..dims).map(|_| next()).collect()).collect();
            if dup && n >= 2 {
                let half = n / 2;
                let copy = rows[0].clone();
                rows[half] = copy; // duplicate across a likely chunk split
            }
            let cand: Vec<u32> = if dup { rows[0].clone() } else { (0..dims).map(|_| next()).collect() };
            let scalar = PointBlock::from_rows(&rows).with_kernel(Kernel::Scalar);
            let lanes = scalar.clone().with_kernel(Kernel::Lanes);

            // dominated ≡ and oracle-checked.
            let expect_hit = rows.iter().any(|r| dominates(r, &cand));
            let (s_hit, s_ex) = scalar.dominated(&cand);
            prop_assert_eq!(s_hit, expect_hit);
            prop_assert_eq!(lanes.dominated(&cand), (s_hit, s_ex));

            // corner_pruned ≡ (and ≡ dominated by the fused identity).
            prop_assert_eq!(lanes.corner_pruned(&cand), scalar.corner_pruned(&cand));
            prop_assert_eq!(scalar.corner_pruned(&cand), (s_hit, s_ex));

            // dominated_with_strictness over a permuted id list with mixed
            // strict flags.
            let mut ids: Vec<u32> = (0..n as u32).collect();
            ids.rotate_left(seed as usize % n);
            let entries: Vec<(u32, bool)> =
                ids.iter().map(|&id| (id, id % 3 == 0)).collect();
            prop_assert_eq!(
                lanes.dominated_with_strictness(&entries, &cand),
                scalar.dominated_with_strictness(&entries, &cand)
            );
        }
    }
}
