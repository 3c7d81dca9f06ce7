//! Partially ordered domains represented as DAGs (Hasse diagrams), plus the
//! labeling machinery of *Topologically Sorted Skylines for Partially Ordered
//! Domains* (Sacharidis, Papadopoulos, Papadias — ICDE 2009):
//!
//! * [`Dag`] — the domain itself: a node per value, an edge `x -> y` meaning
//!   *x is preferred over y*; `x` is preferred over `y` iff a path `x ⤳ y`
//!   exists (§I of the paper).
//! * [`TopoOrder`] — a topological sort of the DAG, mapping each value to an
//!   ordinal in an artificial totally ordered domain `A_TO` (§III-B). This is
//!   what gives TSS its *precedence* property.
//! * [`SpanningTree`] + [`TssLabeling`] — a depth-first spanning tree of
//!   the DAG (or any forest of its edges), the `[minpost, post]` interval
//!   per node (Agrawal et al., §II-B), and the propagated/merged
//!   multi-interval labeling that makes the TSS dominance check *exact*
//!   (§III-B, Fig. 2(d)).
//! * [`MLabeling`] — the single-interval labeling of Chan et al. used by the
//!   m-dominance baselines (§II-C), including *uncovered levels* and the
//!   completely/partially covered strata.
//! * [`DyadicIndex`] — precomputed merged interval sets for dyadic ranges of
//!   the topologically sorted domain (§IV-B, first optimization).
//! * [`Reachability`] — bitset transitive closure; the ground truth every
//!   labeling is validated against.
//! * [`generator`] — the subset-containment-lattice DAG generator with the
//!   height/density parameters of the paper's evaluation (§VI-A).
//! * [`PartialOrderBuilder`] — ergonomic construction from preference pairs
//!   (e.g. the airline preferences of Fig. 1 / Table I).
//!
//! # Quick example
//!
//! The first airline partial order of Table I — `a` preferred over `b` and
//! `c`, everything preferred over `d`, `b` and `c` incomparable:
//!
//! ```
//! use poset::PartialOrderBuilder;
//!
//! let mut b = PartialOrderBuilder::new();
//! for label in ["a", "b", "c", "d"] { b.value(label); }
//! b.prefer("a", "b").unwrap();
//! b.prefer("a", "c").unwrap();
//! b.prefer("b", "d").unwrap();
//! b.prefer("c", "d").unwrap();
//! let dag = b.build().unwrap();
//!
//! let labeling = poset::TssLabeling::build_default(&dag);
//! let a = dag.id_of("a").unwrap();
//! let b_ = dag.id_of("b").unwrap();
//! let c = dag.id_of("c").unwrap();
//! let d = dag.id_of("d").unwrap();
//! assert!(labeling.t_pref(a, d));   // a ≺ d via b (or c)
//! assert!(!labeling.t_pref(b_, c)); // b, c incomparable
//! assert!(!labeling.t_pref(d, a));
//! ```

#![forbid(unsafe_code)]

mod builder;
mod dag;
mod dyadic;
mod error;
mod fnv;
pub mod generator;
mod interval;
mod labeling;
mod mlabel;
mod reach;
mod spanning;
mod topo;

pub use builder::PartialOrderBuilder;
pub use dag::{Dag, ValueId};
pub use dyadic::DyadicIndex;
pub use error::PosetError;
pub use fnv::Fnv64;
pub use interval::{Interval, IntervalSet};
pub use labeling::TssLabeling;
pub use mlabel::MLabeling;
pub use reach::Reachability;
pub use spanning::SpanningTree;
pub use topo::TopoOrder;
