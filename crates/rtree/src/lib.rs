//! An arena-based R-tree over unsigned integer coordinates, built for the
//! skyline workloads of the TSS paper (ICDE 2009 reproduction):
//!
//! * **STR bulk loading** (`Sort-Tile-Recursive`) for the static disk-style
//!   indexes the paper's algorithms traverse,
//! * **best-first traversal** ([`BestFirst`]) — the caller-driven heap walk
//!   underlying BBS and all of its descendants (entries are popped in
//!   ascending L1 *mindist* to the origin, the "most preferable point"),
//! * **IO accounting** — each traversal counts the nodes it expands
//!   ([`BestFirst::reads`]), so experiments can charge the paper's 5 ms per
//!   page IO. The tree itself is read-only data with no counter or page
//!   buffer inside, so any number of traversals, on any threads, share it.
//!
//! # Leaf layout
//!
//! A tree keeps all its leaf points in one flat row-major block, with the
//! record ids in a parallel vector. A leaf holds a range of rows of that
//! block, and a best-first record entry is a row index. So loading a tree
//! allocates per node, never per point, and popping a record reads its row
//! directly, without going through its leaf. One node still models one
//! disk page for IO accounting.
//!
//! Coordinates are `u32` throughout: the paper's totally ordered domains are
//! integers in `0..10_000`, topological ordinals are `1..=|V|`, and postorder
//! interval endpoints are `1..=|V|`. Smaller values are always preferred —
//! dimensions where larger is better (the `post` axis of interval labels)
//! are flipped by the caller before indexing.

#![forbid(unsafe_code)]

mod bulk;
mod geom;
mod node;
mod query;
mod stats;
mod tree;

pub use geom::Mbb;
pub use node::{ChildEntry, NodeId};
pub use query::{BestFirst, Popped};
pub use stats::{data_pages, page_capacity};
pub use tree::{BuildNode, RTree, MIN_CAPACITY};
