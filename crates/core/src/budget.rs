//! **Work budgets and graceful degradation** — the anytime layer of the
//! cursor model.
//!
//! A [`Budget`] is an allowance of **pair checks**
//! ([`Metrics::dominance_checks`] units) — the clock-free,
//! machine-independent currency every engine counts its work in — so
//! admission control can bound a query's work deterministically: the
//! same budget on the same data always confirms the same records, at any
//! thread count, on any machine.
//!
//! [`BudgetedCursor`] wraps any [`SkylineCursor`]. Before each
//! confirmation it compares the cursor's accumulated `dominance_checks`
//! against the allowance and stops — permanently — once the allowance is
//! spent. The last confirmation may overshoot (one `next()` is the unit
//! of work and is never split); the budget bounds *when the cursor stops
//! asking for more*, which is the bound admission control needs.
//!
//! # The anytime guarantee
//!
//! Every point a cursor in this workspace emits is **confirmed**: proven
//! undominated at emission time and never retracted (the paper's
//! progressiveness property, §IV). Stopping early therefore yields a
//! *sound prefix* of the exact skyline — every returned record is truly
//! skyline, none is ever wrong — and the prefix equals the first `k`
//! entries of the untruncated emission sequence. [`BudgetOutcome`] makes
//! the distinction explicit: [`Complete`](BudgetOutcome::Complete) when
//! the skyline finished inside the allowance,
//! [`Exhausted`](BudgetOutcome::Exhausted) with the confirmed prefix
//! otherwise.

use crate::cursor::{ProgressSample, SkylineCursor, SkylinePoint};
use crate::Metrics;

/// An allowance of pair-check work ([`Metrics::dominance_checks`] units).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    limit: Option<u64>,
}

impl Budget {
    /// No limit: budgeted runs behave exactly like unbudgeted ones.
    pub const UNLIMITED: Budget = Budget { limit: None };

    /// An allowance of `limit` pair checks.
    pub fn pair_checks(limit: u64) -> Budget {
        Budget { limit: Some(limit) }
    }

    /// The allowance, `None` for [`UNLIMITED`](Self::UNLIMITED).
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// True iff `spent` pair checks exhaust this allowance.
    pub fn exhausted_by(&self, spent: u64) -> bool {
        self.limit.is_some_and(|l| spent >= l)
    }
}

impl From<Option<u64>> for Budget {
    fn from(limit: Option<u64>) -> Budget {
        Budget { limit }
    }
}

/// How a budgeted run ended.
#[derive(Debug, Clone)]
pub enum BudgetOutcome {
    /// The full skyline was confirmed within the allowance.
    Complete {
        /// The complete skyline, in the cursor's emission order.
        skyline: Vec<SkylinePoint>,
        /// Final run metrics.
        metrics: Metrics,
    },
    /// The allowance ran out first. `confirmed_prefix` is a *sound*
    /// prefix of the exact skyline: exactly the first
    /// `confirmed_prefix.len()` points the untruncated cursor would have
    /// emitted, each one a true skyline member.
    Exhausted {
        /// The confirmed points emitted before the budget was spent.
        confirmed_prefix: Vec<SkylinePoint>,
        /// Metrics at the moment the cursor stopped (the final
        /// confirmation may overshoot the allowance — see the module
        /// docs).
        metrics: Metrics,
    },
}

impl BudgetOutcome {
    /// The confirmed points, whole skyline or prefix.
    pub fn points(&self) -> &[SkylinePoint] {
        match self {
            BudgetOutcome::Complete { skyline, .. } => skyline,
            BudgetOutcome::Exhausted {
                confirmed_prefix, ..
            } => confirmed_prefix,
        }
    }

    /// The run's metrics.
    pub fn metrics(&self) -> &Metrics {
        match self {
            BudgetOutcome::Complete { metrics, .. } | BudgetOutcome::Exhausted { metrics, .. } => {
                metrics
            }
        }
    }

    /// True iff the skyline completed within the allowance.
    pub fn is_complete(&self) -> bool {
        matches!(self, BudgetOutcome::Complete { .. })
    }
}

/// A [`SkylineCursor`] decorator that stops confirming once its inner
/// cursor's `dominance_checks` spend exhausts a [`Budget`]. Works over
/// every cursor family in the workspace — sTSS, dTSS and the SDC baselines
/// all stream through the same trait.
pub struct BudgetedCursor<C> {
    inner: C,
    budget: Budget,
    exhausted: bool,
}

impl<C: SkylineCursor> BudgetedCursor<C> {
    /// Wraps `inner` under `budget`.
    pub fn new(inner: C, budget: Budget) -> BudgetedCursor<C> {
        BudgetedCursor {
            inner,
            budget,
            exhausted: false,
        }
    }

    /// True iff the budget stopped the cursor before the inner skyline
    /// completed (stays `false` for runs that finish in allowance).
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Drains the cursor and reports how the run ended.
    pub fn into_outcome(mut self) -> BudgetOutcome {
        let points = self.take_k(usize::MAX);
        let metrics = self.inner.metrics();
        if self.exhausted {
            BudgetOutcome::Exhausted {
                confirmed_prefix: points,
                metrics,
            }
        } else {
            BudgetOutcome::Complete {
                skyline: points,
                metrics,
            }
        }
    }

    /// One-shot convenience: run `inner` to completion or exhaustion.
    pub fn run(inner: C, budget: Budget) -> BudgetOutcome {
        BudgetedCursor::new(inner, budget).into_outcome()
    }
}

impl<C: SkylineCursor> SkylineCursor for BudgetedCursor<C> {
    /// Confirms the next point unless the allowance is already spent.
    /// The check happens *before* each confirmation: work inside one
    /// `next()` is never split, so the final confirmation may overshoot,
    /// after which the cursor reports `None` forever.
    fn next(&mut self) -> Option<SkylinePoint> {
        if self.exhausted {
            return None;
        }
        if self
            .budget
            .exhausted_by(self.inner.metrics().dominance_checks)
        {
            self.exhausted = true;
            return None;
        }
        self.inner.next()
    }

    fn metrics(&self) -> Metrics {
        self.inner.metrics()
    }

    fn progress(&self) -> ProgressSample {
        self.inner.progress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stss, StssConfig, StssRun, Table};
    use poset::Dag;

    fn engine() -> Stss {
        // Anti-correlated TO pair: every record is skyline on the TO
        // attributes alone, so the run has a long emission sequence with
        // plenty of pair-check spend to ration.
        let mut t = Table::new(2, 1);
        for i in 0..60u32 {
            t.push(&[i, 59 - i], &[i % 9]);
        }
        Stss::build(t, vec![Dag::paper_example()], StssConfig::default()).expect("build")
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let e = engine();
        let full = e.run();
        let out = BudgetedCursor::run(e.cursor(), Budget::UNLIMITED);
        assert!(out.is_complete());
        assert_eq!(out.points(), &full.skyline[..]);
        assert_eq!(
            out.metrics().dominance_checks,
            full.metrics.dominance_checks
        );
    }

    #[test]
    fn every_exhausted_outcome_is_a_true_prefix() {
        let e = engine();
        let StssRun {
            skyline: full,
            metrics: full_m,
        } = e.run();
        assert!(full.len() > 2, "need a non-trivial skyline");
        for limit in [
            0,
            1,
            full_m.dominance_checks / 3,
            full_m.dominance_checks / 2,
        ] {
            let out = BudgetedCursor::run(e.cursor(), Budget::pair_checks(limit));
            let got = out.points();
            assert_eq!(
                got,
                &full[..got.len()],
                "limit={limit}: prefix of the exact emission sequence"
            );
            if !out.is_complete() {
                assert!(got.len() < full.len());
            }
        }
        // A budget at least the full cost completes.
        let out = BudgetedCursor::run(e.cursor(), Budget::pair_checks(full_m.dominance_checks + 1));
        assert!(out.is_complete());
        assert_eq!(out.points().len(), full.len());
    }

    #[test]
    fn zero_budget_confirms_nothing() {
        let e = engine();
        let out = BudgetedCursor::run(e.cursor(), Budget::pair_checks(0));
        match out {
            BudgetOutcome::Exhausted {
                confirmed_prefix, ..
            } => assert!(confirmed_prefix.is_empty()),
            BudgetOutcome::Complete { .. } => {
                unreachable!("zero allowance cannot complete a non-empty run")
            }
        }
    }

    #[test]
    fn exhausted_cursor_stays_exhausted() {
        let e = engine();
        let mut c = BudgetedCursor::new(e.cursor(), Budget::pair_checks(1));
        while c.next().is_some() {}
        assert!(c.exhausted());
        assert!(c.next().is_none(), "no resurrection after exhaustion");
    }
}
