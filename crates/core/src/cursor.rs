//! The **pull-based execution model**: every skyline engine in the
//! workspace is consumed through its [`SkylineCursor`] — results stream out
//! one [`SkylinePoint`] per [`next`](SkylineCursor::next) call, in the
//! engine's emission order, with [`Metrics`] and a [`ProgressSample`]
//! observable mid-stream.
//!
//! The paper's headline property is *optimal progressiveness* (§IV,
//! Fig. 11): skyline points are confirmed the moment the traversal reaches
//! them. A pull cursor makes that property *consumable* — stop after the
//! first `k` results (top-k prefixes), paginate, or interleave many
//! concurrent queries. For precedence-based engines (sTSS, dTSS) stopping
//! early also *costs* less: nodes that would only produce later results are
//! never expanded, so a `k`-prefix pull performs strictly fewer page reads
//! than a full run.
//!
//! The cursor is the one way to consume an engine. Each engine opens its
//! own: [`Stss::cursor`](crate::Stss::cursor),
//! [`Dtss::query_cursor`](crate::Dtss::query_cursor) and its fully dynamic
//! form, [`QuerySession::cursor`](crate::QuerySession::cursor),
//! [`StreamingSkyline::cursor`](crate::StreamingSkyline::cursor), and
//! `SdcIndex::cursor` for the m-dominance baselines of the `sdc` crate.
//! Everything else drives one of those cursors:
//!
//! * the draining `Stss::run`, `Dtss::query` and `SdcIndex::run` pull
//!   [`take_k(usize::MAX)`](SkylineCursor::take_k) off a fresh cursor;
//! * [`BudgetedCursor::run`](crate::BudgetedCursor::run) bounds a cursor's pair-check work and returns
//!   the complete skyline or a sound prefix of it;
//! * [`progress`](SkylineCursor::progress), read after each `next`, is the
//!   emission timeline of Fig. 11;
//! * a `Box<dyn SkylineCursor>` drives different engines through one type.
//!
//! # Top-k prefix example
//!
//! ```
//! use tss_core::{SkylineCursor, Stss, StssConfig, Table};
//! use poset::Dag;
//!
//! let mut table = Table::new(1, 1);
//! for (price, airline) in [(3, 0), (1, 8), (2, 4), (9, 8), (4, 0)] {
//!     table.push(&[price], &[airline]);
//! }
//! let stss = Stss::build(table, vec![Dag::paper_example()], StssConfig::default()).unwrap();
//!
//! // Pull exactly two results and stop — the rest of the tree is never read.
//! let mut cursor = stss.cursor();
//! let top2 = cursor.take_k(2);
//! assert_eq!(top2.len(), 2);
//! assert!(cursor.metrics().results == 2);
//!
//! // The pulled prefix matches the full progressive order.
//! let all = stss.run().skyline;
//! assert_eq!(&all[..2], &top2[..]);
//! ```

use crate::stss::SkylinePoint;
use crate::{CostModel, Metrics};
use std::time::Duration;

/// State of a run at the moment one skyline point was emitted — the raw
/// material of the paper's progressiveness study (Fig. 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressSample {
    /// Results emitted so far (including this one).
    pub results: u64,
    /// CPU time elapsed since the run started.
    pub elapsed_cpu: Duration,
    /// Page reads so far.
    pub io_reads: u64,
    /// Dominance checks so far.
    pub dominance_checks: u64,
}

impl ProgressSample {
    /// Simulated elapsed time under the IO-charging model.
    pub fn elapsed_total(&self, model: CostModel) -> Duration {
        self.elapsed_cpu + model.io_cost * (self.io_reads as u32)
    }
}

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
}
