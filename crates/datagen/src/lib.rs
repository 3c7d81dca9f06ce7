//! Synthetic skyline workloads reproducing §VI-A of the TSS paper.
//!
//! The paper modified the public `randdataset` generator (Börzsönyi et al.)
//! to produce tuples under two distributions — *Independent* and
//! *Anti-correlated* — over totally ordered integer domains of size 10 000,
//! assigning each tuple values from one or two partially ordered domains
//! sampled from subset-containment lattices. This crate reimplements those
//! distributions from the published description (the original C source is
//! not vendored; the figures depend on the distributions' shape, which the
//! description fixes, not on the original random streams) plus the
//! *Correlated* variant for completeness.
//!
//! Everything is seeded and deterministic. Matrices are returned flattened
//! (row-major) to keep multi-million-tuple workloads allocation-friendly.

#![forbid(unsafe_code)]

mod dist;
mod tuples;
pub mod workloads;

pub use dist::Distribution;
pub use tuples::{gen_po_matrix, gen_to_matrix, TupleConfig};
pub use workloads::{ExperimentParams, PAPER_TO_DOMAIN};
