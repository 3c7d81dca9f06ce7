//! Skyline computation over **totally ordered** integer domains (smaller is
//! better in every dimension): the pieces of §II-A that TSS builds on.
//!
//! * [`brute_force`] — the `O(n²)` oracle the engines are tested against,
//! * [`bbs`] — Branch-and-Bound Skyline over an R-tree (Papadias et al.),
//!   the algorithm sTSS and dTSS instantiate (dTSS's tests check its
//!   SFS-built local skylines against it),
//! * [`PointBlock`] — the columnar point layout with the batched dominance
//!   kernels every engine in the workspace calls.
//!
//! # Data layout
//!
//! Inputs are columnar: a [`PointBlock`] stores all coordinates in one flat
//! `Vec<u32>` with a fixed stride, and skyline-list checks test candidates
//! with the block's batched, branch-free dominance kernels instead of
//! per-point `Vec<u32>` rows. Build one with
//! [`PointBlock::from_flat`] (zero-copy over an existing row-major matrix)
//! or [`PointBlock::from_rows`]. Alongside the row-major matrix the block
//! maintains a dimension-major (structure-of-arrays) mirror in
//! [`LANES`]-wide chunks, which the lane-chunked kernel variant
//! ([`Kernel::Lanes`]) scans with autovectorizable `[u32; LANES]` mask
//! ops — byte-identical results and examined-pair counts to the scalar
//! oracle path (`TSS_KERNEL=scalar`).
//!
//! # Semantics
//!
//! `p` dominates `q` iff `p[d] <= q[d]` on every dimension and `p[d] < q[d]`
//! on at least one. Exact duplicates therefore do **not** dominate each
//! other: all copies belong to the skyline. BBS, including its MBB pruning
//! rule, is exact under that convention (see `bbs.rs` for the
//! corner-equality argument).
//!
//! BBS reports [`Stats`]: pairwise dominance checks and page IOs, the two
//! efficiency measures of the paper's §III-A. It also comes as the
//! explicit-state iterator [`BbsCursor`], which confirms one skyline point
//! per `next()` call, so pulling a `k`-prefix and stopping costs
//! proportionally less work.

#![forbid(unsafe_code)]

mod bbs;
mod brute;
mod store;
mod types;

pub use bbs::{bbs, bbs_visit, BbsCursor};
pub use brute::brute_force;
pub use store::{Kernel, PointBlock, LANES};
pub use types::{dominates, monotone_sum, Stats};
