//! **sTSS** — the static TSS skyline algorithm of §IV.
//!
//! Build phase: each PO attribute is topologically sorted; tuples are mapped
//! into `TO × A_TO^|PO|` (original TO coordinates plus one ordinal per PO
//! attribute) and STR-bulk-loaded into a disk-style R-tree.
//!
//! Query phase: a BBS-style best-first traversal by L1 mindist. Precedence
//! holds because dominance implies a strictly smaller mindist (ordinals
//! extend the partial orders; ties only between exact duplicates, which do
//! not dominate). Every check uses the exact interval labels, so a point
//! that survives is immediately — and permanently — a skyline point:
//! optimal progressiveness.

use crate::cursor::{SkylineCursor, SkylineEngine};
use crate::progressive::{ProgressLog, ProgressSample};
use crate::store::RecordId;
use crate::{CoreError, Metrics, PoDomain, Table};
use poset::{Dag, FullRangeIndex, IntervalSet};
use rtree::{BestFirst, Mbb, PageConfig, Popped, RTree};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// How the merged interval set of an MBB's ordinal range is obtained —
/// the space/time trade-off of §IV-B's first optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RangeStrategy {
    /// Merge the per-value sets on the fly: `O(|range|)` time, no space.
    Naive,
    /// Precomputed dyadic ranges: `O(log |range|)` time, linear space — the
    /// paper's recommended middle ground (default).
    #[default]
    Dyadic,
    /// Precompute *every* range in a table: `O(1)` time, quadratic space —
    /// the paper's first, discarded-for-space solution, kept for ablations.
    Full,
}

/// Tuning knobs for [`Stss`]. sTSS runs the configuration the paper
/// benchmarks ("for fairness we implement TSS without the main memory
/// R-tree optimization"): point checks scan the skyline list, and an MBB is
/// pruned only when one skyline point dominates all of it. The dyadic range
/// index is on by default.
#[derive(Debug, Clone, Copy)]
pub struct StssConfig {
    /// Page model used to derive the node capacity.
    pub page: PageConfig,
    /// Explicit node capacity override (else derived from `page`).
    pub node_capacity: Option<usize>,
    /// Range-set lookup strategy for MBB checks (§IV-B first optimization).
    pub range_strategy: RangeStrategy,
    /// Optional LRU page buffer (in pages) on the disk R-tree — the paper's
    /// "IO cost can be mitigated using buffers" remark; `None` (default)
    /// matches the paper's no-buffer benchmark setting.
    pub buffer_pages: Option<usize>,
}

impl Default for StssConfig {
    fn default() -> Self {
        StssConfig {
            page: PageConfig::default(),
            node_capacity: None,
            range_strategy: RangeStrategy::Dyadic,
            buffer_pages: None,
        }
    }
}

/// One skyline result: the record index plus its attribute values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkylinePoint {
    /// Row index into the input [`Table`].
    pub record: u32,
    /// TO coordinates.
    pub to: Vec<u32>,
    /// PO value ids.
    pub po: Vec<u32>,
}

/// The sTSS operator: an immutable index over a table, runnable any number
/// of times.
#[derive(Debug)]
pub struct Stss {
    table: Table,
    domains: Vec<PoDomain>,
    tree: RTree,
    cfg: StssConfig,
    /// Quadratic-space range tables, built only under
    /// [`RangeStrategy::Full`].
    full_ranges: Option<Vec<FullRangeIndex>>,
}

/// Result of a full [`Stss::run`].
#[derive(Debug, Clone)]
pub struct StssRun {
    /// Skyline points in emission (mindist) order.
    pub skyline: Vec<SkylinePoint>,
    /// Execution metrics.
    pub metrics: Metrics,
}

impl StssRun {
    /// Record indices of the skyline, in emission order.
    pub fn skyline_records(&self) -> Vec<u32> {
        self.skyline.iter().map(|p| p.record).collect()
    }
}

impl Stss {
    /// Builds the operator: validates the table against the DAGs, labels
    /// every domain, maps tuples to the transformed space and bulk-loads the
    /// R-tree.
    pub fn build(table: Table, dags: Vec<Dag>, cfg: StssConfig) -> Result<Self, CoreError> {
        if dags.len() != table.po_dims() {
            return Err(CoreError::DomainCountMismatch {
                dags: dags.len(),
                po_dims: table.po_dims(),
            });
        }
        let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
        table.check_domains(&sizes)?;
        let domains: Vec<PoDomain> = dags.into_iter().map(PoDomain::new).collect();
        let dims = table.to_dims() + table.po_dims();
        if dims == 0 {
            return Err(CoreError::NoDimensions);
        }
        let cap = cfg.node_capacity.unwrap_or_else(|| cfg.page.capacity(dims));
        // Transformed coordinates, materialized columnar: TO values then one
        // topological ordinal per PO attribute — no per-point rows.
        let mut coords = Vec::with_capacity(table.len() * dims);
        for i in 0..table.len() {
            coords.extend_from_slice(table.to_row(i));
            for (dom, &v) in domains.iter().zip(table.po_row(i)) {
                coords.push(dom.ordinal(v));
            }
        }
        let ids: Vec<u32> = (0..table.len() as u32).collect();
        let mut tree = RTree::bulk_load_flat(dims, cap, &coords, &ids);
        if let Some(pages) = cfg.buffer_pages {
            tree.enable_buffer(pages);
        }
        let full_ranges = Self::build_full_ranges(&domains, cfg);
        Ok(Stss {
            table,
            domains,
            tree,
            cfg,
            full_ranges,
        })
    }

    fn build_full_ranges(domains: &[PoDomain], cfg: StssConfig) -> Option<Vec<FullRangeIndex>> {
        (cfg.range_strategy == RangeStrategy::Full).then(|| {
            domains
                .iter()
                .map(|d| FullRangeIndex::build(d.labeling()))
                .collect()
        })
    }

    /// Builds over an explicitly structured tree (tests reproducing the
    /// paper's hand-drawn Fig. 3 index).
    pub fn with_tree(
        table: Table,
        dags: Vec<Dag>,
        tree: RTree,
        cfg: StssConfig,
    ) -> Result<Self, CoreError> {
        if dags.len() != table.po_dims() {
            return Err(CoreError::DomainCountMismatch {
                dags: dags.len(),
                po_dims: table.po_dims(),
            });
        }
        let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
        table.check_domains(&sizes)?;
        let domains: Vec<PoDomain> = dags.into_iter().map(PoDomain::new).collect();
        let full_ranges = Self::build_full_ranges(&domains, cfg);
        Ok(Stss {
            table,
            domains,
            tree,
            cfg,
            full_ranges,
        })
    }

    /// The input table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The precomputed PO domains.
    pub fn domains(&self) -> &[PoDomain] {
        &self.domains
    }

    /// The disk R-tree in the transformed space.
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Opens a pull-based cursor over a fresh traversal: skyline points are
    /// confirmed lazily, one [`StssCursor::next`] call at a time.
    ///
    /// Pulling a `k`-prefix and dropping the cursor leaves the unexpanded
    /// subtrees unread, so top-k consumption performs strictly fewer page
    /// accesses than a full run. The tree's IO counter is shared, so open
    /// one cursor at a time if the per-run IO metrics matter.
    pub fn cursor(&self) -> StssCursor<'_> {
        StssCursor::new(self)
    }

    /// Full run: collects the skyline and metrics.
    pub fn run(&self) -> StssRun {
        let mut c = self.cursor();
        let mut skyline = Vec::new();
        while let Some(p) = c.next() {
            skyline.push(p);
        }
        StssRun {
            skyline,
            metrics: c.metrics(),
        }
    }

    /// Budgeted run: confirms points until the skyline completes or the
    /// pair-check allowance runs out — the remaining allowance always
    /// buys a *sound confirmed prefix* of the exact skyline (see
    /// [`BudgetedCursor`](crate::BudgetedCursor)).
    pub fn run_budgeted(&self, budget: crate::Budget) -> crate::BudgetOutcome {
        crate::BudgetedCursor::run(self.cursor(), budget)
    }

    /// Full run that also records the emission timeline for progressiveness
    /// studies (Fig. 11).
    pub fn run_progressive(&self) -> (StssRun, ProgressLog) {
        let mut c = self.cursor();
        let mut skyline = Vec::new();
        let mut samples = Vec::new();
        while let Some(p) = c.next() {
            samples.push(c.progress());
            skyline.push(p);
        }
        let metrics = c.metrics();
        (
            StssRun { skyline, metrics },
            ProgressLog {
                samples,
                final_metrics: metrics,
            },
        )
    }

    /// Streaming run: `emit` fires the instant a skyline point is confirmed
    /// (optimal progressiveness), with a snapshot of the run state.
    pub fn run_with(&self, mut emit: impl FnMut(&SkylinePoint, ProgressSample)) -> Metrics {
        let mut c = self.cursor();
        while let Some(p) = c.next() {
            emit(&p, c.progress());
        }
        c.metrics()
    }

    /// The pure-data context of the dominance checks: everything they need
    /// except the (interior-mutable) disk R-tree.
    fn checks(&self) -> StssChecks<'_> {
        StssChecks {
            table: &self.table,
            domains: &self.domains,
            cfg: self.cfg,
            full_ranges: self.full_ranges.as_deref(),
        }
    }
}

/// The pure-data slice of an [`Stss`] operator that dominance checks run
/// on.
#[derive(Clone, Copy)]
struct StssChecks<'a> {
    table: &'a Table,
    domains: &'a [PoDomain],
    cfg: StssConfig,
    full_ranges: Option<&'a [FullRangeIndex]>,
}

impl StssChecks<'_> {
    /// Is the candidate point t-dominated by the current skyline (given as
    /// record ids; attribute values are fetched from the store)?
    fn point_dominated(
        &self,
        to: &[u32],
        po: &[u32],
        skyline: &[RecordId],
        m: &mut Metrics,
    ) -> bool {
        let (hit, examined) = self.table.t_dominated_by_any(self.domains, to, po, skyline);
        m.batch(examined);
        hit
    }

    /// Can the whole MBB be pruned?
    fn mbb_dominated(&self, mbb: &Mbb, skyline: &[u32], m: &mut Metrics) -> bool {
        if skyline.is_empty() {
            return false;
        }
        let to_dims = self.table.to_dims();
        let to_min = &mbb.lo()[..to_dims];
        // Merged interval sets of the MBB's ordinal ranges, per PO dim.
        let run_sets: Vec<IntervalSet> = (0..self.domains.len())
            .map(|d| {
                let lo = mbb.lo()[to_dims + d];
                let hi = mbb.hi()[to_dims + d];
                match self.cfg.range_strategy {
                    RangeStrategy::Naive => self.domains[d].labeling().range_intervals(lo, hi),
                    RangeStrategy::Dyadic => self.domains[d].range_intervals(lo, hi),
                    RangeStrategy::Full => self
                        .full_ranges
                        .as_ref()
                        .expect("built under RangeStrategy::Full")[d]
                        .range(lo, hi)
                        .clone(),
                }
            })
            .collect();
        // Paper-faithful single-dominator check: one skyline point must be
        // at least as good on every TO dim and cover every run on every PO
        // dim (§IV-A step 7).
        'outer: for &r in skyline {
            m.dominance_checks += 1;
            let s_to = self.table.to_row(r as usize);
            let s_po = self.table.po_row(r as usize);
            if s_to.iter().zip(to_min.iter()).any(|(sv, mv)| sv > mv) {
                continue;
            }
            for (d, runs) in run_sets.iter().enumerate() {
                if !self.domains[d].intervals(s_po[d]).covers_set(runs) {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }
}

impl SkylineEngine for Stss {
    fn name(&self) -> &str {
        "sTSS"
    }

    fn open(&self) -> Box<dyn SkylineCursor + '_> {
        Box::new(self.cursor())
    }
}

/// Pull-based sTSS executor: the best-first traversal of §IV-A as an
/// explicit-state iterator. Each [`next`](SkylineCursor::next) call resumes
/// the heap walk exactly where the previous confirmation left it, so
/// consumers control how much of the skyline — and of the index — is ever
/// touched.
///
/// Two phases: the live traversal, then the duplicate-completion scan. The
/// MBB check's bounds are closed, so it prunes a leaf that holds only exact
/// copies of a skyline point, yet copies never dominate each other; one
/// table pass restores them.
pub struct StssCursor<'a> {
    stss: &'a Stss,
    bf: BestFirst<'a>,
    start: Instant,
    m: Metrics,
    /// Confirmed skyline records in emission order; attribute values are
    /// fetched from the table on demand, so confirmation allocates exactly
    /// one owned [`SkylinePoint`] — the one handed to the caller.
    skyline: Vec<RecordId>,
    /// `Some` once the traversal is exhausted and the duplicate-completion
    /// queue has been computed.
    extras: Option<VecDeque<SkylinePoint>>,
    last_sample: ProgressSample,
    finished: bool,
}

impl<'a> StssCursor<'a> {
    fn new(stss: &'a Stss) -> Self {
        stss.tree.reset_io();
        StssCursor {
            stss,
            bf: stss.tree.best_first(),
            // lint:allow(time-source): Metrics.cpu timing site — cursor wall clock
            start: Instant::now(),
            m: Metrics::default(),
            skyline: Vec::new(),
            extras: None,
            last_sample: ProgressSample::default(),
            finished: false,
        }
    }

    /// Resumes the best-first traversal until the next confirmation.
    fn advance_traversal(&mut self) -> Option<SkylinePoint> {
        let stss = self.stss;
        let checks = stss.checks();
        let to_dims = stss.table.to_dims();
        while let Some(popped) = self.bf.pop() {
            self.m.heap_pops += 1;
            match popped {
                Popped::Node { id, mbb, .. } => {
                    if !checks.mbb_dominated(mbb, &self.skyline, &mut self.m) {
                        self.bf.expand(id);
                    }
                }
                Popped::Record { point, record, .. } => {
                    let to = &point[..to_dims];
                    let po = stss.table.po_row(record as usize);
                    if !checks.point_dominated(to, po, &self.skyline, &mut self.m) {
                        self.skyline.push(record);
                        self.m.results += 1;
                        self.m.io_reads = stss.tree.io_count();
                        self.last_sample = ProgressSample {
                            results: self.m.results,
                            elapsed_cpu: self.start.elapsed(),
                            io_reads: self.m.io_reads,
                            dominance_checks: self.m.dominance_checks,
                        };
                        return Some(SkylinePoint {
                            record,
                            to: to.to_vec(),
                            po: po.to_vec(),
                        });
                    }
                }
            }
        }
        None
    }

    /// Duplicate completion: exact copies of skyline points whose leaves
    /// were pruned are skyline iff their representative is. One table scan
    /// finds the missing copies.
    fn compute_extras(&self) -> VecDeque<SkylinePoint> {
        let stss = self.stss;
        let mut extras = VecDeque::new();
        if self.m.results == 0 {
            return extras;
        }
        let mut emitted = vec![false; stss.table.len()];
        let mut by_hash: HashMap<u64, Vec<u32>> = HashMap::new();
        for &r in &self.skyline {
            emitted[r as usize] = true;
            by_hash
                .entry(crate::store::row_hash(
                    stss.table.to_row(r as usize),
                    stss.table.po_row(r as usize),
                ))
                .or_default()
                .push(r);
        }
        for (i, &done) in emitted.iter().enumerate() {
            if done {
                continue;
            }
            let (to, po) = (stss.table.to_row(i), stss.table.po_row(i));
            let Some(cands) = by_hash.get(&crate::store::row_hash(to, po)) else {
                continue;
            };
            let is_dup = cands.iter().any(|&r| {
                stss.table.to_row(r as usize) == to && stss.table.po_row(r as usize) == po
            });
            if is_dup {
                extras.push_back(SkylinePoint {
                    record: i as u32,
                    to: to.to_vec(),
                    po: po.to_vec(),
                });
            }
        }
        extras
    }
}

impl SkylineCursor for StssCursor<'_> {
    fn next(&mut self) -> Option<SkylinePoint> {
        if self.finished {
            return None;
        }
        if self.extras.is_none() {
            if let Some(p) = self.advance_traversal() {
                return Some(p);
            }
            self.extras = Some(self.compute_extras());
        }
        if let Some(sp) = self.extras.as_mut().and_then(VecDeque::pop_front) {
            self.m.results += 1;
            self.last_sample = ProgressSample {
                results: self.m.results,
                elapsed_cpu: self.start.elapsed(),
                io_reads: self.stss.tree.io_count(),
                dominance_checks: self.m.dominance_checks,
            };
            return Some(sp);
        }
        self.m.io_reads = self.stss.tree.io_count();
        self.m.cpu = self.start.elapsed();
        self.finished = true;
        None
    }

    fn metrics(&self) -> Metrics {
        let mut m = self.m;
        if !self.finished {
            m.io_reads = self.stss.tree.io_count();
            m.cpu = self.start.elapsed();
        }
        m
    }

    fn progress(&self) -> ProgressSample {
        self.last_sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::brute_force_po_skyline;
    use poset::Dag;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Fig. 3 example: 13 points over (A1, A2) with the paper domain.
    /// Ids: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8.
    fn fig3_table() -> Table {
        let mut t = Table::new(1, 1);
        for (a1, a2) in [
            (2u32, 2u32), // p1  c
            (3, 3),       // p2  d
            (1, 7),       // p3  h
            (8, 0),       // p4  a
            (6, 4),       // p5  e
            (7, 2),       // p6  c
            (9, 1),       // p7  b
            (4, 8),       // p8  i
            (2, 5),       // p9  f
            (3, 6),       // p10 g
            (5, 6),       // p11 g
            (7, 5),       // p12 f
            (9, 7),       // p13 h
        ] {
            t.push(&[a1], &[a2]);
        }
        t
    }

    fn run_config(cfg: StssConfig) -> Vec<u32> {
        let stss = Stss::build(fig3_table(), vec![Dag::paper_example()], cfg).unwrap();
        let mut r = stss.run().skyline_records();
        r.sort_unstable();
        r
    }

    #[test]
    fn fig3_skyline_all_configs() {
        // Table II: final skyline = {p1..p5} = records 0..=4.
        let expect: Vec<u32> = (0..5).collect();
        for strategy in [
            RangeStrategy::Naive,
            RangeStrategy::Dyadic,
            RangeStrategy::Full,
        ] {
            let cfg = StssConfig {
                range_strategy: strategy,
                node_capacity: Some(3),
                ..Default::default()
            };
            assert_eq!(run_config(cfg), expect, "{strategy:?}");
        }
    }

    #[test]
    fn emission_order_is_progressive() {
        // Emission follows mindist order in the transformed space; for the
        // Fig. 3 data that is exactly p1, p2, p3, p4, p5 (Table II).
        let stss = Stss::build(
            fig3_table(),
            vec![Dag::paper_example()],
            StssConfig {
                node_capacity: Some(3),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(stss.run().skyline_records(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn progress_log_is_monotone() {
        let stss = Stss::build(
            fig3_table(),
            vec![Dag::paper_example()],
            StssConfig::default(),
        )
        .unwrap();
        let (run, log) = stss.run_progressive();
        assert_eq!(log.samples.len(), run.skyline.len());
        for w in log.samples.windows(2) {
            assert!(w[0].results < w[1].results);
            assert!(w[0].io_reads <= w[1].io_reads);
            assert!(w[0].dominance_checks <= w[1].dominance_checks);
        }
    }

    /// Regression (found by proptest): exact duplicates of a skyline point
    /// sitting in a *different leaf* used to be coalesced by the
    /// closed-bound MBB pruning; the duplicate-completion pass must restore
    /// them under keep-all semantics.
    #[test]
    fn duplicates_across_pruned_leaves_are_completed() {
        let mut t = Table::new(2, 1);
        // Seven copies of (0,0,c) scattered across tiny (cap=2) leaves, plus
        // fillers ensuring multiple nodes.
        for _ in 0..7 {
            t.push(&[0, 0], &[2]);
        }
        for (a, b, v) in [(0, 2, 0), (0, 1, 1), (10, 0, 3), (2, 8, 8), (8, 5, 8)] {
            t.push(&[a, b], &[v]);
        }
        let dag = Dag::paper_example();
        let domains = vec![PoDomain::new(dag.clone())];
        let mut expect = brute_force_po_skyline(&domains, &t);
        expect.sort_unstable();
        let cfg = StssConfig {
            node_capacity: Some(2),
            ..Default::default()
        };
        let stss = Stss::build(t, vec![dag], cfg).unwrap();
        let mut got = stss.run().skyline_records();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn duplicate_tuples_all_reported() {
        let mut t = Table::new(1, 1);
        t.push(&[5], &[2]);
        t.push(&[5], &[2]); // exact duplicate
        t.push(&[9], &[2]); // dominated
        let stss = Stss::build(t, vec![Dag::paper_example()], StssConfig::default()).unwrap();
        let mut r = stss.run().skyline_records();
        r.sort_unstable();
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let t = Table::from_parts(1, 1, vec![1, 2], vec![0, 99]).unwrap();
        assert!(matches!(
            Stss::build(t, vec![Dag::paper_example()], StssConfig::default()),
            Err(CoreError::PoValueOutOfRange { .. })
        ));
        let t2 = Table::new(1, 2);
        assert!(matches!(
            Stss::build(t2, vec![Dag::paper_example()], StssConfig::default()),
            Err(CoreError::DomainCountMismatch { .. })
        ));
    }

    #[test]
    fn empty_table_runs() {
        let stss = Stss::build(
            Table::new(2, 1),
            vec![Dag::paper_example()],
            StssConfig::default(),
        )
        .unwrap();
        let run = stss.run();
        assert!(run.skyline.is_empty());
        assert_eq!(run.metrics.results, 0);
    }

    #[test]
    fn po_only_table() {
        // No TO attributes at all: the skyline is the set of maximal values.
        let mut t = Table::new(0, 1);
        for v in 0..9u32 {
            t.push(&[], &[v]);
        }
        let stss = Stss::build(t, vec![Dag::paper_example()], StssConfig::default()).unwrap();
        let mut r = stss.run().skyline_records();
        r.sort_unstable();
        // Only "a" (id 0) is maximal in the paper domain.
        assert_eq!(r, vec![0]);
    }

    fn random_table(
        n: usize,
        to_dims: usize,
        po_dims: usize,
        domain: u32,
        v: u32,
        seed: u64,
    ) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Table::new(to_dims, po_dims);
        for _ in 0..n {
            let to: Vec<u32> = (0..to_dims).map(|_| rng.gen_range(0..domain)).collect();
            let po: Vec<u32> = (0..po_dims).map(|_| rng.gen_range(0..v)).collect();
            t.push(&to, &po);
        }
        t
    }

    #[test]
    fn matches_oracle_on_random_data_two_po_dims() {
        let dag1 = Dag::paper_example();
        let dag2 = poset::generator::subset_lattice(poset::generator::LatticeParams {
            height: 4,
            density: 0.8,
            seed: 5,
            mode: poset::generator::DensityMode::Literal,
        })
        .unwrap();
        let v2 = dag2.len() as u32;
        for seed in 0..3u64 {
            let table = random_table(400, 2, 2, 30, 9.min(v2), seed);
            let domains = vec![PoDomain::new(dag1.clone()), PoDomain::new(dag2.clone())];
            let mut expect = brute_force_po_skyline(&domains, &table);
            expect.sort_unstable();
            for cfg in [
                StssConfig::default(),
                StssConfig {
                    range_strategy: RangeStrategy::Naive,
                    ..Default::default()
                },
                StssConfig {
                    range_strategy: RangeStrategy::Full,
                    ..Default::default()
                },
            ] {
                let stss =
                    Stss::build(table.clone(), vec![dag1.clone(), dag2.clone()], cfg).unwrap();
                let mut got = stss.run().skyline_records();
                got.sort_unstable();
                assert_eq!(got, expect, "seed={seed} cfg={cfg:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// sTSS equals the ground-truth oracle on random tables over the
        /// paper domain, across configurations.
        #[test]
        fn equals_oracle(
            rows in proptest::collection::vec((0u32..12, 0u32..12, 0u32..9), 1..80),
            cap in 2usize..8,
        ) {
            let mut t = Table::new(2, 1);
            for &(a, b, v) in &rows {
                t.push(&[a, b], &[v]);
            }
            let dag = Dag::paper_example();
            let domains = vec![PoDomain::new(dag.clone())];
            let mut expect = brute_force_po_skyline(&domains, &t);
            expect.sort_unstable();
            let cfg = StssConfig { node_capacity: Some(cap), ..Default::default() };
            let stss = Stss::build(t, vec![dag], cfg).unwrap();
            let mut got = stss.run().skyline_records();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
