//! **sTSS** — the static TSS skyline algorithm of §IV.
//!
//! Build phase: each PO attribute is topologically sorted; tuples are mapped
//! into `TO × A_TO^|PO|` (original TO coordinates plus one ordinal per PO
//! attribute) and STR-bulk-loaded into a disk-style R-tree.
//!
//! Query phase: a BBS-style best-first traversal by L1 mindist. Precedence
//! holds because dominance implies a strictly smaller mindist (ordinals
//! extend the partial orders; ties only between exact duplicates, which do
//! not dominate). Every check is exact, so a point that survives is
//! immediately — and permanently — a skyline point: optimal
//! progressiveness.
//!
//! Checks run against the confirmed skyline, kept as a key block of the
//! popped points (see the [`store` docs](crate::PointStore)): box first,
//! then refine. A popped point is compared with every member's key for
//! `key <= point`; only in-box members reach the exact PO test (closure
//! probes). A popped MBB is compared the same way against its low corner;
//! only in-box members other than exact ties with the corner reach the
//! interval-set cover test of the MBB's ordinal runs (dyadic range sets,
//! built only once some member is in the box), so exact copies of a
//! skyline point are never pruned. Both checks are one
//! [`KeyBlock::first_match`] call, which under
//! [`Kernel::Scalar`](crate::Kernel::Scalar) is a plain loop, the oracle;
//! both kernels find the same first dominator after the same number of
//! examined members. Once the skyline passes 256 members, the block scans
//! only the members its dimension index leaves in reach of the candidate.

use crate::cursor::{ProgressSample, SkylineCursor};
use crate::store::KeyBlock;
use crate::{CoreError, Metrics, PoDomain, Table};
use poset::{Dag, IntervalSet};
use rtree::{BestFirst, Mbb, Popped, RTree};
use std::time::Instant;

/// Tuning knobs for [`Stss`]. sTSS runs the configuration the paper
/// benchmarks ("for fairness we implement TSS without the main memory
/// R-tree optimization"): point checks scan the skyline list, and an MBB is
/// pruned only when one skyline point dominates all of it. An MBB's run
/// sets come from the dyadic range index (§IV-B), the paper's middle ground
/// between merging per-value sets on the fly and a quadratic table of every
/// range.
#[derive(Debug, Clone, Copy, Default)]
pub struct StssConfig {
    /// Explicit node capacity override (else derived from the default page
    /// model, see [`node_capacity`]).
    pub node_capacity: Option<usize>,
}

/// Resolves an engine's R-tree node capacity: the explicit override, else
/// the page model's capacity for `dims`-wide entries
/// ([`rtree::page_capacity`]). An
/// override below [`rtree::MIN_CAPACITY`] is a
/// [`CoreError::NodeCapacityTooSmall`], not a panic inside the tree.
pub fn node_capacity(explicit: Option<usize>, dims: usize) -> Result<usize, CoreError> {
    match explicit {
        Some(capacity) if capacity < rtree::MIN_CAPACITY => {
            Err(CoreError::NodeCapacityTooSmall { capacity })
        }
        Some(capacity) => Ok(capacity),
        None => Ok(rtree::page_capacity(dims)),
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
        let domains = Self::label(&table, dags)?;
        let dims = table.to_dims() + table.po_dims();
        if dims == 0 {
            return Err(CoreError::NoDimensions);
        }
        let cap = node_capacity(cfg.node_capacity, dims)?;
        // Transformed keys, materialized columnar: TO values then one
        // topological ordinal per PO attribute — no per-point rows.
        let ids: Vec<u32> = (0..table.len() as u32).collect();
        let mut coords = Vec::with_capacity(table.len() * dims);
        for &r in &ids {
            table.key_into(&domains, r, &mut coords);
        }
        let tree = RTree::bulk_load_flat(dims, cap, &coords, &ids);
        Ok(Stss {
            table,
            domains,
            tree,
        })
    }

    /// Builds over an explicitly structured tree (tests reproducing the
    /// paper's hand-drawn Fig. 3 index). Its points must be the records'
    /// transformed keys — TO values, then one topological ordinal per PO
    /// attribute — as [`build`](Self::build) indexes them: the MBB checks
    /// and the skyline's box filter read them as such.
    pub fn with_tree(table: Table, dags: Vec<Dag>, tree: RTree) -> Result<Self, CoreError> {
        let domains = Self::label(&table, dags)?;
        Ok(Stss {
            table,
            domains,
            tree,
        })
    }

    /// Validates the table against the DAGs (their count, then every PO
    /// value) and labels every domain.
    fn label(table: &Table, dags: Vec<Dag>) -> Result<Vec<PoDomain>, CoreError> {
        let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
        table.check_domains(&sizes)?;
        Ok(dags.into_iter().map(PoDomain::new).collect())
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
    /// accesses than a full run. Each cursor counts its own page reads, so
    /// any number may be open at once.
    pub fn cursor(&self) -> StssCursor<'_> {
        StssCursor::new(self)
    }

    /// Full run: drains a fresh [`cursor`](Self::cursor) into the skyline
    /// and its metrics.
    pub fn run(&self) -> StssRun {
        let mut c = self.cursor();
        let skyline = c.take_k(usize::MAX);
        StssRun {
            skyline,
            metrics: c.metrics(),
        }
    }

    /// The context of the dominance checks: everything they need except
    /// the disk R-tree.
    fn checks(&self) -> StssChecks<'_> {
        StssChecks {
            table: &self.table,
            domains: &self.domains,
        }
    }
}

/// The slice of an [`Stss`] operator that dominance checks run on.
#[derive(Clone, Copy)]
struct StssChecks<'a> {
    table: &'a Table,
    domains: &'a [PoDomain],
}

impl StssChecks<'_> {
    /// Is the candidate (transformed key `key`, PO value ids `po`)
    /// t-dominated by the current skyline? See
    /// [`PointStore::t_dominated_by_keys`].
    fn point_dominated(
        &self,
        key: &[u32],
        po: &[u32],
        skyline: &KeyBlock,
        m: &mut Metrics,
    ) -> bool {
        let (hit, examined) = self
            .table
            .t_dominated_by_keys(self.domains, key, po, skyline);
        m.batch(examined);
        hit
    }

    /// Merged interval sets of the MBB's ordinal ranges, one per PO dim,
    /// from the dyadic range index.
    fn run_sets(&self, mbb: &Mbb) -> Vec<IntervalSet> {
        let to_dims = self.table.to_dims();
        (0..self.domains.len())
            .map(|d| self.domains[d].range_intervals(mbb.lo()[to_dims + d], mbb.hi()[to_dims + d]))
            .collect()
    }

    /// Can the whole MBB be pruned? Paper-faithful single-dominator check:
    /// one skyline point must be at least as good on every TO dim and
    /// cover every run on every PO dim (§IV-A step 7), and its key must
    /// differ from the MBB's low corner.
    ///
    /// The skyline's key block is checked against the low corner `lo` as
    /// the box. That is sound: a point that covers the runs of the ordinal
    /// range `[lo, hi]` covers the value at ordinal `lo`, so it is
    /// preferred-or-equal to that value and its own ordinal is `<= lo`. The
    /// run sets are built only once some member is in the box.
    ///
    /// Excluding a member whose key equals `lo` keeps the rule exact with
    /// duplicates, as in BBS. A member `s` that passes covers every run, so
    /// it is at least as good as every point `p` of the box on every
    /// attribute; were `s` and `p` equal, `lo <= key(p) = key(s) <= lo`
    /// would force `key(s) == lo`, so `s` dominates `p`. A leaf holding
    /// only exact copies of a skyline point has that point's key as its low
    /// corner, so it is never pruned and each copy is emitted at its own
    /// mindist.
    fn mbb_dominated(&self, mbb: &Mbb, skyline: &KeyBlock, m: &mut Metrics) -> bool {
        let mut runs: Option<Vec<IntervalSet>> = None;
        let (hit, examined) = skyline.first_match(self.table.kernel(), mbb.lo(), |r, key| {
            let s_po = self.table.po(r);
            key != mbb.lo()
                && runs
                    .get_or_insert_with(|| self.run_sets(mbb))
                    .iter()
                    .enumerate()
                    .all(|(d, runs)| self.domains[d].intervals(s_po[d]).covers_set(runs))
        });
        m.dominance_checks += examined;
        hit
    }
}

/// Pull-based sTSS executor: the best-first traversal of §IV-A as an
/// explicit-state iterator. Each [`next`](SkylineCursor::next) call resumes
/// the heap walk exactly where the previous confirmation left it, so
/// consumers control how much of the skyline — and of the index — is ever
/// touched.
///
/// Every skyline point, exact copies included, is confirmed by the walk at
/// its own mindist: the MBB check excludes ties with the box's low corner
/// and the point check is strict dominance, so no check drops a copy of a
/// skyline point.
pub struct StssCursor<'a> {
    stss: &'a Stss,
    bf: BestFirst<'a>,
    start: Instant,
    m: Metrics,
    /// Confirmed skyline records in emission order, with their transformed
    /// keys (the popped R-tree points) for the box filter; attribute values
    /// are fetched from the table on demand, so confirmation allocates one
    /// owned [`SkylinePoint`] — the one handed to the caller.
    skyline: KeyBlock,
    last_sample: ProgressSample,
    finished: bool,
}

impl<'a> StssCursor<'a> {
    fn new(stss: &'a Stss) -> Self {
        StssCursor {
            stss,
            bf: stss.tree.best_first(),
            // lint:allow(time-source): Metrics.cpu timing site — cursor wall clock
            start: Instant::now(),
            m: Metrics::default(),
            skyline: KeyBlock::new(stss.tree.dims()),
            last_sample: ProgressSample::default(),
            finished: false,
        }
    }
}

impl SkylineCursor for StssCursor<'_> {
    fn next(&mut self) -> Option<SkylinePoint> {
        if self.finished {
            return None;
        }
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
                    let po = stss.table.po_row(record as usize);
                    if !checks.point_dominated(point, po, &self.skyline, &mut self.m) {
                        self.skyline.push(record, point);
                        self.m.results += 1;
                        self.m.io_reads = self.bf.reads();
                        self.last_sample = ProgressSample {
                            results: self.m.results,
                            elapsed_cpu: self.start.elapsed(),
                            io_reads: self.m.io_reads,
                            dominance_checks: self.m.dominance_checks,
                        };
                        return Some(SkylinePoint {
                            record,
                            to: point[..to_dims].to_vec(),
                            po: po.to_vec(),
                        });
                    }
                }
            }
        }
        self.m.io_reads = self.bf.reads();
        self.m.cpu = self.start.elapsed();
        self.finished = true;
        None
    }

    fn metrics(&self) -> Metrics {
        let mut m = self.m;
        if !self.finished {
            m.io_reads = self.bf.reads();
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
    use crate::Kernel;
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

    #[test]
    fn emission_order_is_progressive() {
        // Emission follows mindist order in the transformed space; for the
        // Fig. 3 data that is exactly p1, p2, p3, p4, p5 (Table II).
        let stss = Stss::build(
            fig3_table(),
            vec![Dag::paper_example()],
            StssConfig {
                node_capacity: Some(3),
            },
        )
        .unwrap();
        assert_eq!(stss.run().skyline_records(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn progress_samples_are_monotone() {
        let stss = Stss::build(
            fig3_table(),
            vec![Dag::paper_example()],
            StssConfig::default(),
        )
        .unwrap();
        let mut c = stss.cursor();
        let mut samples = Vec::new();
        while c.next().is_some() {
            samples.push(c.progress());
        }
        assert_eq!(samples.len(), stss.run().skyline.len());
        for w in samples.windows(2) {
            assert!(w[0].results < w[1].results);
            assert!(w[0].io_reads <= w[1].io_reads);
            assert!(w[0].dominance_checks <= w[1].dominance_checks);
        }
    }

    /// Exact duplicates of a skyline point spread over tiny leaves, some
    /// holding nothing but copies: the MBB check excludes ties with the
    /// box's low corner, so the walk confirms every copy at its own
    /// mindist and emission mindists never decrease.
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
        };
        let stss = Stss::build(t, vec![dag], cfg).unwrap();
        let run = stss.run();
        let mindists: Vec<u64> = run
            .skyline
            .iter()
            .map(|p| {
                let ordinal = stss.domains()[0].ordinal(p.po[0]) as u64;
                p.to.iter().map(|&x| x as u64).sum::<u64>() + ordinal
            })
            .collect();
        assert!(
            mindists.windows(2).all(|w| w[0] <= w[1]),
            "emitted out of mindist order: {mindists:?}"
        );
        let mut got = run.skyline_records();
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
    fn node_capacity_below_two_is_a_typed_error() {
        for capacity in [0, 1] {
            let cfg = StssConfig {
                node_capacity: Some(capacity),
            };
            assert_eq!(
                Stss::build(fig3_table(), vec![Dag::paper_example()], cfg).unwrap_err(),
                CoreError::NodeCapacityTooSmall { capacity }
            );
        }
        assert!(node_capacity(Some(2), 3).is_ok());
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
        })
        .unwrap();
        let v2 = dag2.len() as u32;
        for seed in 0..3u64 {
            let table = random_table(400, 2, 2, 30, 9.min(v2), seed);
            let domains = vec![PoDomain::new(dag1.clone()), PoDomain::new(dag2.clone())];
            let mut expect = brute_force_po_skyline(&domains, &table);
            expect.sort_unstable();
            let stss = Stss::build(
                table,
                vec![dag1.clone(), dag2.clone()],
                StssConfig::default(),
            )
            .unwrap();
            let mut got = stss.run().skyline_records();
            got.sort_unstable();
            assert_eq!(got, expect, "seed={seed}");
        }
    }

    /// The lemma the MBB check's box corner rests on: a value whose
    /// interval set covers the merged runs of the ordinal range `[lo, hi]`
    /// is preferred-or-equal to the value at ordinal `lo`, so its own
    /// ordinal is `<= lo`. Checked for every range of the paper domain and
    /// of two subset lattices, under the naive and the dyadic range sets.
    #[test]
    fn covering_a_range_implies_an_ordinal_at_most_its_low_end() {
        let lattice = |height, density, seed| {
            poset::generator::subset_lattice(poset::generator::LatticeParams {
                height,
                density,
                seed,
            })
            .unwrap()
        };
        for dag in [
            Dag::paper_example(),
            lattice(4, 0.8, 5),
            lattice(5, 0.6, 11),
        ] {
            let dom = PoDomain::new(dag);
            let n = dom.len() as u32;
            for lo in 1..=n {
                for hi in lo..=n {
                    let runs = dom.range_intervals(lo, hi);
                    assert_eq!(runs, dom.labeling().range_intervals(lo, hi));
                    for v in 0..n {
                        if dom.intervals(v).covers_set(&runs) {
                            assert!(
                                dom.ordinal(v) <= lo,
                                "value {v} (ordinal {}) covers [{lo}, {hi}]",
                                dom.ordinal(v)
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The MBB check (box at the MBB's low corner, `covers_set` refine)
        /// prunes, under both kernels, exactly when a plain list loop over
        /// the paper's predicate (key other than the corner, TO values `<=`
        /// the corner, every run covered) does, on every shape and list
        /// length of the point-form test. Both kernels examine the same
        /// number of members: below the index size, the list loop's.
        #[test]
        fn box_scan_mbb_form_matches_the_scalar_list_scan(seed in 0u64..1 << 20) {
            use crate::store::tests::{box_scan_case, BOX_SCAN_LENGTHS, BOX_SCAN_SHAPES};
            for (to_dims, po_dims, fill) in BOX_SCAN_SHAPES {
                for n in BOX_SCAN_LENGTHS {
                    let (store, doms, block, lo, _) =
                        box_scan_case(to_dims, po_dims, n, seed, fill);
                    // Widen the candidate's key into an MBB: TO extents of
                    // up to 2, ordinal extents clamped to the domain.
                    let hi: Vec<u32> = lo
                        .iter()
                        .enumerate()
                        .map(|(d, &x)| {
                            let grow = ((seed >> (2 * d)) % 3) as u32;
                            if d < to_dims {
                                x.saturating_add(grow)
                            } else {
                                (x + grow).min(doms[d - to_dims].len() as u32)
                            }
                        })
                        .collect();
                    let mbb = Mbb::new(lo, hi);
                    // The reference merges the per-value sets of each
                    // ordinal range naively; the check reads the dyadic
                    // index.
                    let runs: Vec<IntervalSet> = doms
                        .iter()
                        .enumerate()
                        .map(|(d, dom)| {
                            let (lo, hi) = (mbb.lo()[to_dims + d], mbb.hi()[to_dims + d]);
                            dom.labeling().range_intervals(lo, hi)
                        })
                        .collect();
                    let prunes = |i: usize| {
                        let r = block.ids()[i];
                        block.key(i) != mbb.lo()
                            && store.to(r).iter().zip(mbb.lo()).all(|(s, c)| s <= c)
                            && runs.iter().enumerate().all(|(d, runs)| {
                                doms[d].intervals(store.po(r)[d]).covers_set(runs)
                            })
                    };
                    let expect = match (0..n).position(prunes) {
                        Some(i) => (true, i as u64 + 1),
                        None => (false, n as u64),
                    };
                    let mut answers = Vec::new();
                    for kernel in [Kernel::Scalar, Kernel::Lanes] {
                        let table = store.clone().with_kernel(kernel);
                        let checks = StssChecks { table: &table, domains: &doms };
                        let mut m = Metrics::default();
                        let got = (checks.mbb_dominated(&mbb, &block, &mut m), m.dominance_checks);
                        let case = format!("{kernel:?} dims=({to_dims},{po_dims}) {fill:?} n={n}");
                        if block.indexed() {
                            prop_assert_eq!(got.0, expect.0, "{}", case);
                            prop_assert!(got.1 <= n as u64, "{}", case);
                        } else {
                            prop_assert_eq!(got, expect, "{}", case);
                        }
                        answers.push(got);
                    }
                    prop_assert_eq!(answers[0], answers[1], "kernels differ: dims=({},{}) {:?} n={}", to_dims, po_dims, fill, n);
                }
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
            let cfg = StssConfig { node_capacity: Some(cap) };
            let stss = Stss::build(t, vec![dag], cfg).unwrap();
            let mut got = stss.run().skyline_records();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
