//! The **query-session cache** for the dynamic workload (§V): a
//! fingerprint-keyed store of per-attribute labelings — each one a
//! [`PoDomain`]: the DAG, its topological ordinals and its transitive
//! closure — shared across the many [`Dtss`] queries one user (or one
//! connection) issues.
//!
//! Every dTSS query must topologically sort each of its partial orders and
//! compute its closure before the group walk can start (§V-A); dTSS reads
//! no interval labels, so none are built. The paper argues this is cheap
//! *relative to the data* — but a serving system evaluating millions of
//! per-user preference DAGs pays it on every query, and real preference
//! DAGs repeat: the same user queries again, different users share canned
//! preference templates. A [`QuerySession`] memoizes the
//! labeling work by [`Dag::fingerprint`], so a repeated DAG skips the
//! relabeling entirely; the [`Metrics::label_cache_hits`] /
//! [`Metrics::label_cache_misses`] counters on every run report what the
//! cache did.
//!
//! The session caches labelings, not results: a result is only reusable
//! when *every* attribute's order repeats exactly, while labelings are
//! reusable per attribute — a query mixing one new DAG with three seen
//! ones still skips 3/4 of the labeling work. The operator itself caches
//! no results: every query runs in its own cursor.
//!
//! A labeling depends only on its DAG, never on the data, so a cached
//! entry stays valid for as long as the session lives. As everywhere in the
//! workspace, the [`cursor`](QuerySession::cursor) is the way to consume a
//! query: [`query`](QuerySession::query) drains one.
//!
//! ```
//! use poset::PartialOrderBuilder;
//! use tss_core::{Dtss, DtssConfig, PoQuery, QuerySession, Table};
//!
//! let mut table = Table::new(1, 1);
//! table.push(&[3], &[0]);
//! table.push(&[1], &[1]);
//! let dtss = Dtss::build(table, vec![2], DtssConfig::default()).unwrap();
//!
//! let mut session = QuerySession::new(&dtss);
//! let mut order = PartialOrderBuilder::new();
//! order.values(["a", "b"]);
//! order.prefer("a", "b").unwrap();
//! let q = PoQuery::new(vec![order.build().unwrap()]);
//!
//! let cold = session.query(&q).unwrap();
//! assert_eq!(cold.metrics.label_cache_misses, 1);
//!
//! // The same preference DAG again: the labeling is served from the
//! // session cache instead of being recomputed.
//! let warm = session.query(&q).unwrap();
//! assert_eq!(warm.metrics.label_cache_hits, 1);
//! assert_eq!(warm.metrics.label_cache_misses, 0);
//! assert_eq!(cold.skyline_records(), warm.skyline_records());
//! ```

use crate::dtss::PreparedDomains;
use crate::{CoreError, Dtss, DtssCursor, DtssRun, PoDomain, PoQuery};
use std::collections::HashMap;

/// Aggregate statistics of one [`QuerySession`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Labelings served from the cache across the session's lifetime.
    pub hits: u64,
    /// Labelings computed (and cached) across the session's lifetime.
    pub misses: u64,
    /// Distinct DAG fingerprints currently cached.
    pub entries: usize,
}

/// A per-user (or per-connection) context over a [`Dtss`] operator that
/// caches DAG labelings across queries — see the module-level docs for the
/// rationale and an example.
pub struct QuerySession<'a> {
    dtss: &'a Dtss,
    labelings: HashMap<u64, PoDomain>,
    hits: u64,
    misses: u64,
}

impl<'a> QuerySession<'a> {
    /// Opens a session over `dtss` with an empty labeling cache.
    pub fn new(dtss: &'a Dtss) -> Self {
        QuerySession {
            dtss,
            labelings: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The underlying operator.
    pub fn dtss(&self) -> &'a Dtss {
        self.dtss
    }

    /// Session-lifetime cache statistics.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.labelings.len(),
        }
    }

    /// Looks every query DAG up in the cache, labeling (and caching) the
    /// ones never seen before. A fingerprint hit is verified against the
    /// cached DAG's actual structure, so a 64-bit collision degrades to a
    /// miss instead of a silently wrong labeling.
    fn prepare(&mut self, q: &PoQuery) -> PreparedDomains {
        let mut domains = Vec::with_capacity(q.dags().len());
        let (mut hits, mut misses) = (0u64, 0u64);
        for dag in q.dags() {
            let fp = dag.fingerprint();
            match self.labelings.get(&fp) {
                Some(dom) if dom.dag().same_structure(dag) => {
                    hits += 1;
                    domains.push(dom.clone());
                }
                Some(_) => {
                    // Fingerprint collision: label fresh, keep the slot's
                    // first owner.
                    misses += 1;
                    domains.push(PoDomain::new(dag.clone()));
                }
                None => {
                    misses += 1;
                    let dom = PoDomain::new(dag.clone());
                    self.labelings.insert(fp, dom.clone());
                    domains.push(dom);
                }
            }
        }
        self.hits += hits;
        self.misses += misses;
        PreparedDomains {
            domains,
            hits,
            misses,
        }
    }

    /// Evaluates a dynamic skyline query, reusing cached labelings: drains
    /// a fresh [`cursor`](Self::cursor). The run's
    /// [`Metrics`](crate::Metrics) report this query's cache hits and
    /// misses.
    pub fn query(&mut self, q: &PoQuery) -> Result<DtssRun, CoreError> {
        Ok(self.cursor(q)?.drain())
    }

    /// Opens a pull-based cursor for `q`, plain or fully dynamic
    /// ([`PoQuery::with_reference`]), reusing cached labelings. The cursor
    /// borrows only the operator, so it outlives later calls on the
    /// session.
    pub fn cursor(&mut self, q: &PoQuery) -> Result<DtssCursor<'a>, CoreError> {
        let dtss = self.dtss;
        dtss.cursor_inner(q, || self.prepare(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DtssConfig, Metrics, Table};
    use poset::{Dag, PartialOrderBuilder};

    fn fig5_table() -> Table {
        let mut t = Table::new(2, 1);
        for (a1, a2, a3) in [
            (1, 2, 0),
            (3, 1, 0),
            (3, 4, 0),
            (4, 5, 0),
            (2, 2, 1),
            (1, 5, 1),
            (2, 5, 2),
            (3, 4, 2),
            (4, 4, 2),
            (5, 2, 2),
        ] {
            t.push(&[a1, a2], &[a3]);
        }
        t
    }

    fn order_b_over_c() -> Dag {
        let mut b = PartialOrderBuilder::new();
        b.values(["a", "b", "c"]);
        b.prefer("b", "c").unwrap();
        b.build().unwrap()
    }

    fn order_a_c_over_b() -> Dag {
        let mut b = PartialOrderBuilder::new();
        b.values(["a", "b", "c"]);
        b.prefer("a", "b").unwrap();
        b.prefer("c", "b").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn repeated_dag_hits_the_labeling_cache() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let mut s = QuerySession::new(&dtss);
        let q = PoQuery::new(vec![order_b_over_c()]);

        let cold = s.query(&q).unwrap();
        assert_eq!(cold.metrics.label_cache_misses, 1);
        assert_eq!(cold.metrics.label_cache_hits, 0);

        // A *structurally equal* DAG built from scratch also hits.
        let warm = s.query(&PoQuery::new(vec![order_b_over_c()])).unwrap();
        assert_eq!(warm.metrics.label_cache_hits, 1);
        assert_eq!(warm.metrics.label_cache_misses, 0);
        assert_eq!(cold.skyline_records(), warm.skyline_records());

        // A different order misses and is cached in turn.
        let other = s.query(&PoQuery::new(vec![order_a_c_over_b()])).unwrap();
        assert_eq!(other.metrics.label_cache_misses, 1);
        assert_eq!(
            s.stats(),
            SessionStats {
                hits: 1,
                misses: 2,
                entries: 2
            }
        );
    }

    #[test]
    fn session_results_match_plain_queries() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let mut s = QuerySession::new(&dtss);
        for dag_fn in [order_b_over_c as fn() -> Dag, order_a_c_over_b] {
            let q = PoQuery::new(vec![dag_fn()]);
            let plain = dtss.query(&q).unwrap();
            let via_session = s.query(&q).unwrap();
            assert_eq!(plain.skyline_records(), via_session.skyline_records());
            assert_eq!(plain.groups_skipped, via_session.groups_skipped);
        }
    }

    #[test]
    fn fully_dynamic_queries_share_the_cache() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let mut s = QuerySession::new(&dtss);
        let q = PoQuery::new(vec![order_b_over_c()]);
        let a = s.query(&q).unwrap();
        assert_eq!(a.metrics.label_cache_misses, 1);
        // Same DAG, folded query: the labeling is reused across query kinds.
        let folded = q.with_reference(vec![3, 3]);
        let b = s.query(&folded).unwrap();
        assert_eq!(b.metrics.label_cache_hits, 1);
        let plain = dtss.query(&folded).unwrap();
        assert_eq!(plain.skyline_records(), b.skyline_records());
    }

    #[test]
    fn fully_dynamic_session_query_rejects_a_wrong_width_reference() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let mut s = QuerySession::new(&dtss);
        let q = PoQuery::new(vec![order_b_over_c()]).with_reference(vec![1, 2, 3]);
        assert_eq!(
            s.query(&q).err(),
            Some(CoreError::ReferenceWidthMismatch {
                expected: 2,
                got: 3
            })
        );
        // Validation runs before labeling: the session saw no lookup.
        assert_eq!(s.stats(), SessionStats::default());
    }

    #[test]
    fn fully_dynamic_cursor_matches_the_operator_cursor() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let mut s = QuerySession::new(&dtss);
        let q = PoQuery::new(vec![order_a_c_over_b()]);
        // A wrong-width reference fails before the session looks anything up.
        assert_eq!(
            s.cursor(&q.clone().with_reference(vec![1])).err(),
            Some(CoreError::ReferenceWidthMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(s.stats(), SessionStats::default());
        // Every counter but the cache's own equals the operator cursor's.
        let work = |m: &Metrics| -> Vec<(&str, u64)> {
            Metrics::COUNTERS
                .iter()
                .copied()
                .zip(m.counters())
                .filter(|(name, _)| !name.starts_with("label_cache"))
                .collect()
        };
        for reference in [[0, 0], [3, 3], [5, 1], [2, 4]] {
            let folded = q.clone().with_reference(reference.to_vec());
            let via_session = s.cursor(&folded).unwrap().drain();
            let plain = dtss.query_cursor(&folded).unwrap().drain();
            assert_eq!(
                via_session.skyline_records(),
                plain.skyline_records(),
                "{reference:?}"
            );
            assert_eq!(via_session.groups_skipped, plain.groups_skipped);
            assert_eq!(work(&via_session.metrics), work(&plain.metrics));
        }
        assert_eq!(
            s.stats(),
            SessionStats {
                hits: 3,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn fingerprint_collision_degrades_to_a_miss() {
        // Forge a 64-bit collision: plant a *structurally different* DAG's
        // labeling under the fingerprint of the order we are about to
        // query. A key-only cache would silently reuse the wrong labeling
        // and corrupt every dominance answer; the structural guard must
        // label afresh instead (and leave the slot's first owner in place).
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let mut s = QuerySession::new(&dtss);
        let good = order_b_over_c();
        let wrong = order_a_c_over_b();
        assert!(!good.same_structure(&wrong));
        s.labelings
            .insert(good.fingerprint(), PoDomain::new(wrong.clone()));

        let q = PoQuery::new(vec![good]);
        let run = s.query(&q).unwrap();
        assert_eq!(run.metrics.label_cache_misses, 1, "collision is a miss");
        assert_eq!(run.metrics.label_cache_hits, 0);
        let plain = dtss.query(&q).unwrap();
        assert_eq!(run.skyline_records(), plain.skyline_records());
        // The forged entry keeps its slot (first owner wins)...
        assert!(s.labelings.values().any(|d| d.dag().same_structure(&wrong)));
        // ...so the same query misses again rather than ever serving it.
        let again = s.query(&q).unwrap();
        assert_eq!(again.metrics.label_cache_misses, 1);
    }

    #[test]
    fn invalid_queries_leave_the_cache_untouched() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let mut s = QuerySession::new(&dtss);
        let wrong = Dag::from_edges(5, &[]).unwrap();
        assert!(s.query(&PoQuery::new(vec![wrong])).is_err());
        assert!(s.query(&PoQuery::new(vec![])).is_err());
        assert_eq!(s.stats(), SessionStats::default());
    }
}
