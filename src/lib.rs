//! # tss — Topologically Sorted Skylines for Partially Ordered Domains
//!
//! Facade crate for the ICDE 2009 reproduction. Re-exports the public API of
//! every workspace crate so applications can depend on `tss` alone:
//!
//! * [`poset`] — partially ordered domains: DAGs, topological sorts,
//!   spanning-tree interval labelings (exact TSS labels and the
//!   single-interval m-labels), dyadic range indexes, DAG generators.
//! * [`rtree`] — the R-tree substrate with STR bulk loading, best-first
//!   traversal, range queries and IO accounting.
//! * [`skyline`] — skylines over totally ordered domains: the brute-force
//!   oracle, BBS, and the columnar `PointBlock` with its batched dominance
//!   kernels.
//! * [`core`] (crate `tss_core`) — the paper's contribution: t-dominance,
//!   the progressive **sTSS** algorithm for static skylines and **dTSS** for
//!   dynamic (query-defined) partial orders.
//! * [`sdc`] — the baselines: m-dominance and the BBS+/SDC/SDC+ family.
//! * [`datagen`] — synthetic workloads (independent / correlated /
//!   anti-correlated) with the paper's parameter grid.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use datagen;
pub use poset;
pub use rtree;
pub use sdc;
pub use skyline;
pub use tss_core as core;
