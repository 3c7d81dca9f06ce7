//! **TSS — Topologically Sorted Skylines for Partially Ordered Domains**
//! (Sacharidis, Papadopoulos, Papadias; ICDE 2009): exact, optimally
//! progressive skyline computation when some attributes are only partially
//! ordered.
//!
//! # The problem
//!
//! Tuples have totally ordered (TO) attributes — integers, smaller is
//! better — and partially ordered (PO) attributes whose domains are DAGs
//! (`x -> y` ⟺ *x preferred over y*). `p` **dominates** `q` iff `p` is at
//! least as good on every attribute (equal-or-smaller on TO; equal-or-
//! preferred on PO) and strictly better on at least one. The skyline is the
//! set of undominated tuples.
//!
//! # The TSS idea (§III)
//!
//! 1. **Precedence** — topologically sort each PO domain and index tuples by
//!    the resulting ordinals: any dominator of `q` then has a strictly
//!    smaller L1 *mindist*, so a best-first (BBS) traversal examines
//!    dominators first and every undominated point can be emitted
//!    immediately and permanently.
//! 2. **Exactness** — label every PO value with the minimal set of
//!    `[minpost, post]` intervals covering its reachable set (spanning-tree
//!    postorder + propagation + merging). Interval containment then decides
//!    preference with neither false hits nor false misses, unlike the
//!    single-interval *m-dominance* of earlier work.
//!
//! [`Stss`] implements the static algorithm (§IV) with the dyadic-range
//! interval index of §IV-B, checking candidates against the skyline list as
//! the paper's benchmarks do, and [`Dtss`] the dynamic variant (§V), where
//! each query supplies its own partial orders and the data-resident
//! structures are reused. §IV-B's main-memory R-tree fast check is not
//! implemented: it measured nine times slower than the list scan (README,
//! "Options measured and removed").
//!
//! ```
//! use poset::PartialOrderBuilder;
//! use tss_core::{Stss, StssConfig, Table};
//!
//! // Two attributes: price (TO) and airline (PO: a preferred over b).
//! let mut b = PartialOrderBuilder::new();
//! b.prefer("a", "b").unwrap();
//! let dag = b.build().unwrap();
//! let a = dag.id_of("a").unwrap().0;
//! let bb = dag.id_of("b").unwrap().0;
//!
//! let mut table = Table::new(1, 1);
//! table.push(&[100], &[bb]); // cheap, airline b
//! table.push(&[100], &[a]);  // same price, better airline -> dominates
//! table.push(&[90], &[bb]);  // cheaper, worse airline -> incomparable
//!
//! let stss = Stss::build(table, vec![dag], StssConfig::default()).unwrap();
//! let run = stss.run();
//! let mut sky = run.skyline_records();
//! sky.sort_unstable();
//! assert_eq!(sky, vec![1, 2]);
//! ```

#![forbid(unsafe_code)]

mod budget;
mod cursor;
mod dominance;
mod dtss;
mod error;
mod executor;
pub mod ipc;
mod mapping;
mod metrics;
pub mod parallel;
mod session;
mod store;
mod streaming;
mod stss;

pub use budget::{Budget, BudgetOutcome, BudgetedCursor};
pub use cursor::{ProgressSample, SkylineCursor, SkylinePoint};
pub use dominance::{brute_force_po_skyline, t_dominates};
pub use dtss::{Dtss, DtssConfig, DtssCursor, DtssRun, PoQuery};
pub use error::{CoreError, ShardError, ShardErrorKind};
pub use ipc::{SubprocessExecutor, WorkerSpec};
pub use mapping::PoDomain;
pub use metrics::{CostModel, Metrics};
pub use parallel::{
    sharded_skyline_exec, ExecPolicy, FaultKind, FaultPlan, ParallelRun, ProcessFaultKind,
    ShardCtx, ShardExecutor, ShardJob, ShardOutcome, ShardPlan, ShardSpec, ThreadShardExecutor,
};
pub use session::{QuerySession, SessionStats};
pub use skyline::{Kernel, LANES};
pub use store::{PointStore, RecordId, ShardView};
pub use streaming::{StreamingConfig, StreamingCursor, StreamingSkyline, WindowPolicy};
pub use stss::{node_capacity, Stss, StssConfig, StssCursor, StssRun};

/// The facade name of the columnar [`PointStore`]: the paper-facing API
/// builds a `Table`, the engines consume it as the record-id-addressed
/// store it is.
pub type Table = PointStore;
