//! The **pull-based execution model**: every skyline algorithm in the
//! workspace is drivable through a [`SkylineCursor`] — results stream out
//! one [`SkylinePoint`] per [`next`](SkylineCursor::next) call, in the
//! engine's emission order, with [`Metrics`] and a [`ProgressSample`]
//! observable mid-stream.
//!
//! The paper's headline property is *optimal progressiveness* (§IV,
//! Fig. 11): skyline points are confirmed the moment the traversal reaches
//! them. Push-style callbacks expose that property only to code willing to
//! run the traversal to completion; a pull cursor makes it *consumable* —
//! stop after the first `k` results (top-k prefixes), paginate, interleave
//! many concurrent queries, or hand the cursor to an async executor. For
//! precedence-based engines (sTSS, dTSS, BBS) stopping early also *costs*
//! less: nodes that would only produce later results are never expanded, so
//! a `k`-prefix pull performs strictly fewer page reads than a full run.
//!
//! [`SkylineEngine`] is the object-safe factory trait every engine
//! implements: sTSS, dTSS (bound to a query) and the three m-dominance
//! baselines (BBS+/SDC/SDC+ in the `sdc` crate).
//!
//! # Top-k prefix example
//!
//! ```
//! use tss_core::{SkylineCursor, SkylineEngine, Stss, StssConfig, Table};
//! use poset::Dag;
//!
//! let mut table = Table::new(1, 1);
//! for (price, airline) in [(3, 0), (1, 8), (2, 4), (9, 8), (4, 0)] {
//!     table.push(&[price], &[airline]);
//! }
//! let stss = Stss::build(table, vec![Dag::paper_example()], StssConfig::default()).unwrap();
//!
//! // Pull exactly two results and stop — the rest of the tree is never read.
//! let mut cursor = stss.open();
//! let top2 = cursor.take_k(2);
//! assert_eq!(top2.len(), 2);
//! assert!(cursor.metrics().results == 2);
//!
//! // The pulled prefix matches the full progressive order.
//! let all = stss.open().take_k(usize::MAX);
//! assert_eq!(&all[..2], &top2[..]);
//! ```

use crate::budget::{Budget, BudgetOutcome, BudgetedCursor};
use crate::stss::SkylinePoint;
use crate::{Metrics, ProgressSample};

/// A pull-based stream of confirmed skyline points.
///
/// Cursors are *lazy*: work happens inside [`next`](Self::next), and only as
/// much as needed to confirm the next point. Dropping a cursor abandons the
/// traversal — for precedence-based engines the unexpanded subtrees are
/// simply never read.
///
/// `metrics()` and `progress()` may be called at any moment, including
/// mid-stream; after the cursor is exhausted they report the final run
/// totals (and keep reporting them).
pub trait SkylineCursor {
    /// Confirms and returns the next skyline point, or `None` when the
    /// skyline is complete. Idempotent at the end: keeps returning `None`.
    fn next(&mut self) -> Option<SkylinePoint>;

    /// Metrics accumulated so far (final totals once exhausted).
    fn metrics(&self) -> Metrics;

    /// Snapshot taken when the most recent point was confirmed (all-zero
    /// before the first result).
    fn progress(&self) -> ProgressSample;

    /// Pulls at most `k` further points. `usize::MAX` drains the cursor.
    fn take_k(&mut self, k: usize) -> Vec<SkylinePoint> {
        let mut out = Vec::new();
        while out.len() < k {
            match self.next() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        out
    }
}

impl<C: SkylineCursor + ?Sized> SkylineCursor for Box<C> {
    fn next(&mut self) -> Option<SkylinePoint> {
        (**self).next()
    }

    fn metrics(&self) -> Metrics {
        (**self).metrics()
    }

    fn progress(&self) -> ProgressSample {
        (**self).progress()
    }
}

/// An engine whose skyline is consumable through a [`SkylineCursor`].
///
/// `open` starts a fresh traversal; engines are immutable indexes, so any
/// number of cursors can be opened over the lifetime of the engine (one at
/// a time if the engine tracks page IOs on a shared counter — see the
/// engine's own docs).
pub trait SkylineEngine {
    /// Human-readable engine name (`"sTSS"`, `"dTSS"`, `"SDC+"`, …).
    fn name(&self) -> &str;

    /// Opens a cursor over a fresh run of this engine.
    fn open(&self) -> Box<dyn SkylineCursor + '_>;

    /// Convenience: drains a fresh cursor into `(skyline, metrics)`.
    fn collect_skyline(&self) -> (Vec<SkylinePoint>, Metrics) {
        let mut c = self.open();
        let pts = c.take_k(usize::MAX);
        let m = c.metrics();
        (pts, m)
    }

    /// Convenience: runs a fresh cursor under a pair-check [`Budget`] —
    /// the complete skyline when it fits the allowance, otherwise a
    /// *sound confirmed prefix* of it (the anytime guarantee; see
    /// [`BudgetedCursor`]).
    fn collect_budgeted(&self, budget: Budget) -> BudgetOutcome {
        BudgetedCursor::run(self.open(), budget)
    }
}

/// Adapts any [`SkylineCursor`] into a standard [`Iterator`].
///
/// ```
/// use tss_core::{CursorIter, SkylineEngine, Stss, StssConfig, Table};
/// use poset::Dag;
///
/// let mut table = Table::new(1, 1);
/// table.push(&[1], &[0]); // cheap, best airline
/// table.push(&[0], &[8]); // cheaper, worst airline — incomparable
/// let stss = Stss::build(table, vec![Dag::paper_example()], StssConfig::default()).unwrap();
/// let records: Vec<u32> = CursorIter(stss.open()).map(|p| p.record).collect();
/// assert_eq!(records.len(), 2);
/// ```
pub struct CursorIter<C>(pub C);

impl<C: SkylineCursor> Iterator for CursorIter<C> {
    type Item = SkylinePoint;

    fn next(&mut self) -> Option<SkylinePoint> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted cursor for exercising the provided methods.
    struct Scripted {
        points: Vec<SkylinePoint>,
        m: Metrics,
    }

    impl SkylineCursor for Scripted {
        fn next(&mut self) -> Option<SkylinePoint> {
            if self.points.is_empty() {
                return None;
            }
            self.m.results += 1;
            Some(self.points.remove(0))
        }

        fn metrics(&self) -> Metrics {
            self.m
        }

        fn progress(&self) -> ProgressSample {
            ProgressSample {
                results: self.m.results,
                elapsed_cpu: std::time::Duration::ZERO,
                io_reads: 0,
                dominance_checks: 0,
            }
        }
    }

    fn scripted(n: u32) -> Scripted {
        Scripted {
            points: (0..n)
                .map(|i| SkylinePoint {
                    record: i,
                    to: vec![i],
                    po: vec![],
                })
                .collect(),
            m: Metrics::default(),
        }
    }

    #[test]
    fn take_k_stops_early_and_drains() {
        let mut c = scripted(5);
        assert_eq!(c.take_k(2).len(), 2);
        assert_eq!(c.metrics().results, 2);
        assert_eq!(c.take_k(usize::MAX).len(), 3);
        assert!(c.next().is_none(), "exhausted cursors stay exhausted");
    }

    #[test]
    fn cursor_iter_adapts() {
        let records: Vec<u32> = CursorIter(scripted(3)).map(|p| p.record).collect();
        assert_eq!(records, vec![0, 1, 2]);
    }
}
