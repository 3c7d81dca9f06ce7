//! The stratum-processing engine shared by BBS+, SDC and SDC+ (§II-C).
//!
//! Strata are processed in increasing uncovered level. Within a stratum, a
//! BBS traversal of its R-tree (transformed space) maintains:
//!
//! * the **global list** — confirmed actual-skyline points from earlier
//!   strata (later strata can never dominate them, by stratum
//!   monotonicity), and
//! * the **local list** — candidates of the current stratum, which may
//!   contain *false hits* (m-dominance misses non-tree preferences).
//!
//! MBBs are pruned when m-dominated by any global or local entry (sound:
//! m-dominance implies dominance, and being dominated by a false hit that
//! is itself dominated still implies dominance by transitivity). A popped
//! point is discarded if m-dominated; survivors are checked for *exact*
//! dominance against both lists, evict local entries they exactly dominate
//! (cross-examination), and join the local list. At stratum end the local
//! list holds genuine skyline points and is appended to the global list.
//!
//! In *exact* strata (uncovered level 0) m-dominance equals dominance, so
//! the cross-examination is skipped and points are emitted immediately —
//! which is why SDC/SDC+ are progressive on stratum 0 and "jump" at
//! stratum boundaries thereafter (Fig. 11).

use crate::index::SdcIndex;
use rtree::Popped;
use skyline::PointBlock;
use std::collections::VecDeque;
use std::time::Instant;
use tss_core::{Metrics, ProgressSample, SkylineCursor, SkylinePoint};

/// Result of one SDC-family run.
#[derive(Debug, Clone)]
pub struct SdcRun {
    /// Skyline record ids in confirmation order.
    pub skyline: Vec<u32>,
    /// Execution metrics.
    pub metrics: Metrics,
    /// Number of points confirmed per processed stratum.
    pub per_stratum: Vec<usize>,
    /// False hits eliminated by cross-examination.
    pub false_hits_removed: u64,
}

/// A columnar confirmed-or-candidate list: record ids plus their
/// transformed coordinates in one flat block (the global and local lists of
/// the stratum engine). m-pruning and m-screening run the block's batched
/// kernels; exact checks fetch original tuples from the store by id.
#[derive(Debug)]
struct EntryList {
    ids: Vec<u32>,
    tcoords: PointBlock,
}

impl EntryList {
    fn new(dims: usize, kernel: skyline::Kernel) -> Self {
        EntryList {
            ids: Vec::new(),
            tcoords: PointBlock::new(dims).with_kernel(kernel),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn push(&mut self, record: u32, tcoords: &[u32]) {
        self.ids.push(record);
        self.tcoords.push(tcoords);
    }

    fn append(&mut self, other: &mut EntryList) {
        self.ids.append(&mut other.ids);
        self.tcoords.append(&mut other.tcoords);
    }
}

/// Pull-based executor for the SDC family: a **stratum-at-a-time** cursor.
///
/// The engine's confirmation granularity is the stratum — exact strata
/// confirm point by point during their traversal, non-exact strata only at
/// their boundary (the Fig. 11 "jumps") — so the cursor materializes one
/// stratum's confirmations at a time and streams them out; later strata run
/// only when the stream reaches them. A consumer stopping after `k` results
/// therefore never opens the R-trees of the remaining strata.
///
/// Each buffered confirmation carries the [`ProgressSample`] captured at
/// the moment the engine confirmed it, so [`progress`](SkylineCursor::progress)
/// reads the Fig. 11 timeline: a non-exact stratum's confirmations share
/// one sample's reads and checks.
pub struct SdcCursor<'a> {
    index: &'a SdcIndex,
    start: Instant,
    m: Metrics,
    global: EntryList,
    stratum_ix: usize,
    /// Confirmations of the current stratum not yet pulled.
    buffer: VecDeque<(u32, ProgressSample)>,
    per_stratum: Vec<usize>,
    false_hits_removed: u64,
    last_sample: ProgressSample,
    finished: bool,
}

impl<'a> SdcCursor<'a> {
    pub(crate) fn new(index: &'a SdcIndex) -> Self {
        SdcCursor {
            index,
            // lint:allow(time-source): Metrics.cpu timing site — cursor wall clock
            start: Instant::now(),
            m: Metrics::default(),
            global: EntryList::new(index.ctx.transformed_dims(), index.table.kernel()),
            stratum_ix: 0,
            buffer: VecDeque::new(),
            per_stratum: Vec::new(),
            false_hits_removed: 0,
            last_sample: ProgressSample::default(),
            finished: false,
        }
    }

    /// Points confirmed per processed stratum so far.
    pub fn per_stratum(&self) -> &[usize] {
        &self.per_stratum
    }

    /// False hits eliminated by cross-examination so far.
    pub fn false_hits_removed(&self) -> u64 {
        self.false_hits_removed
    }

    /// Runs one stratum to completion, pushing its confirmations (with
    /// their moment-of-confirmation samples) into the buffer.
    fn run_stratum(&mut self) {
        let index = self.index;
        let table = &index.table;
        let ctx = &index.ctx;
        let stratum = &index.strata[self.stratum_ix];
        self.stratum_ix += 1;
        let m = &mut self.m;

        let sample = |m: &Metrics, start: &Instant| ProgressSample {
            results: m.results,
            elapsed_cpu: start.elapsed(),
            io_reads: m.io_reads,
            dominance_checks: m.dominance_checks,
        };

        // Reads before this stratum; its own traversal counts the rest.
        let reads_before = m.io_reads;
        let mut local = EntryList::new(index.ctx.transformed_dims(), index.table.kernel());
        let mut bf = stratum.tree.best_first();
        while let Some(popped) = bf.pop() {
            m.heap_pops += 1;
            match popped {
                Popped::Node { id, mbb, .. } => {
                    let corner = mbb.lo();
                    // m-prune against both lists, batched (strict-corner
                    // rule keeps exact duplicates of list entries alive).
                    let (hit_g, ex_g) = self.global.tcoords.corner_pruned(corner);
                    m.batch(ex_g);
                    let pruned = hit_g || {
                        let (hit_l, ex_l) = local.tcoords.corner_pruned(corner);
                        m.batch(ex_l);
                        hit_l
                    };
                    if !pruned {
                        bf.expand(id);
                    }
                }
                Popped::Record { point, record, .. } => {
                    // 1. m-dominance screen (cheap, sound): m-dominance is
                    // plain coordinate dominance in the transformed space,
                    // so the batched block kernel decides it directly.
                    let (hit_g, ex_g) = self.global.tcoords.dominated(point);
                    m.batch(ex_g);
                    let m_dominated = hit_g || {
                        let (hit_l, ex_l) = local.tcoords.dominated(point);
                        m.batch(ex_l);
                        hit_l
                    };
                    if m_dominated {
                        continue;
                    }
                    let (to_p, po_p) = (table.to(record), table.po(record));
                    if !stratum.exact {
                        // 2. exact check against confirmed results.
                        let dominated_g = self.global.ids.iter().any(|&r| {
                            m.dominance_checks += 1;
                            ctx.exact_dominates(table.to(r), table.po(r), to_p, po_p)
                        });
                        if dominated_g {
                            continue;
                        }
                        // 3. exact check against local candidates.
                        let dominated_l = local.ids.iter().any(|&r| {
                            m.dominance_checks += 1;
                            ctx.exact_dominates(table.to(r), table.po(r), to_p, po_p)
                        });
                        if dominated_l {
                            continue;
                        }
                        // 4. cross-examination: evict local false hits that
                        // the new point exactly dominates.
                        let before = local.len();
                        local.tcoords.retain_with_ids(&mut local.ids, |r, _| {
                            m.dominance_checks += 1;
                            !ctx.exact_dominates(to_p, po_p, table.to(r), table.po(r))
                        });
                        self.false_hits_removed += (before - local.len()) as u64;
                    }
                    local.push(record, point);
                    if stratum.exact {
                        // Level-0 stratum: m-dominance is exact, the point
                        // is final — stream it out now.
                        m.results += 1;
                        m.io_reads = reads_before + bf.reads();
                        self.buffer.push_back((record, sample(m, &self.start)));
                    }
                }
            }
        }
        m.io_reads = reads_before + bf.reads();
        if !stratum.exact {
            // Stratum boundary: local candidates are now genuine results.
            for &r in &local.ids {
                m.results += 1;
                self.buffer.push_back((r, sample(m, &self.start)));
            }
        }
        self.per_stratum.push(local.len());
        self.global.append(&mut local);
    }
}

impl SkylineCursor for SdcCursor<'_> {
    fn next(&mut self) -> Option<SkylinePoint> {
        while self.buffer.is_empty() && self.stratum_ix < self.index.strata.len() {
            self.run_stratum();
        }
        let Some((record, sample)) = self.buffer.pop_front() else {
            if !self.finished {
                self.m.cpu = self.start.elapsed();
                self.finished = true;
            }
            return None;
        };
        self.last_sample = sample;
        Some(SkylinePoint { record })
    }

    fn metrics(&self) -> Metrics {
        let mut m = self.m;
        if !self.finished {
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
    use crate::{SdcConfig, SdcIndex, Variant};
    use poset::Dag;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tss_core::{brute_force_po_skyline, PoDomain, Table};

    fn fig3_table() -> Table {
        let mut t = Table::new(1, 1);
        for (a1, a2) in [
            (2u32, 2u32),
            (3, 3),
            (1, 7),
            (8, 0),
            (6, 4),
            (7, 2),
            (9, 1),
            (4, 8),
            (2, 5),
            (3, 6),
            (5, 6),
            (7, 5),
            (9, 7),
        ] {
            t.push(&[a1], &[a2]);
        }
        t
    }

    fn oracle(t: &Table, dag: &Dag) -> Vec<u32> {
        let doms = vec![PoDomain::new(dag.clone())];
        let mut r = brute_force_po_skyline(&doms, t);
        r.sort_unstable();
        r
    }

    #[test]
    fn all_variants_match_oracle_on_fig3() {
        let dag = Dag::paper_example();
        let expect = oracle(&fig3_table(), &dag);
        assert_eq!(expect, vec![0, 1, 2, 3, 4]);
        for variant in [Variant::BbsPlus, Variant::Sdc, Variant::SdcPlus] {
            let idx = SdcIndex::build(
                fig3_table(),
                vec![dag.clone()],
                variant,
                SdcConfig::default(),
            )
            .unwrap();
            let run = idx.run();
            let mut got = run.skyline.clone();
            got.sort_unstable();
            assert_eq!(got, expect, "{variant:?}");
        }
    }

    #[test]
    fn node_capacity_below_two_is_a_typed_error() {
        for capacity in [0, 1] {
            let cfg = SdcConfig {
                node_capacity: Some(capacity),
            };
            let err = SdcIndex::build(
                fig3_table(),
                vec![Dag::paper_example()],
                Variant::SdcPlus,
                cfg,
            )
            .unwrap_err();
            assert_eq!(err, tss_core::CoreError::NodeCapacityTooSmall { capacity });
        }
    }

    #[test]
    fn wrong_dag_count_is_a_typed_error() {
        for dags in [vec![], vec![Dag::paper_example(); 2]] {
            let n = dags.len();
            let err = SdcIndex::build(fig3_table(), dags, Variant::SdcPlus, SdcConfig::default())
                .unwrap_err();
            assert_eq!(
                err,
                tss_core::CoreError::DomainCountMismatch {
                    dags: n,
                    po_dims: 1
                }
            );
        }
    }

    #[test]
    fn sdc_plus_builds_multiple_strata() {
        let dag = Dag::paper_example();
        let idx = SdcIndex::build(
            fig3_table(),
            vec![dag.clone()],
            Variant::SdcPlus,
            SdcConfig::default(),
        )
        .unwrap();
        // Paper domain has uncovered levels 0, 1, 2 (all populated by fig3).
        assert_eq!(idx.strata.len(), 3);
        let sdc = SdcIndex::build(
            fig3_table(),
            vec![dag.clone()],
            Variant::Sdc,
            SdcConfig::default(),
        )
        .unwrap();
        assert_eq!(sdc.strata.len(), 2);
        let bbs = SdcIndex::build(
            fig3_table(),
            vec![dag],
            Variant::BbsPlus,
            SdcConfig::default(),
        )
        .unwrap();
        assert_eq!(bbs.strata.len(), 1);
    }

    #[test]
    fn false_hits_are_detected_and_removed() {
        // f really dominates h via a non-tree edge; give h a point that only
        // exact checking can kill, in the same stratum.
        let dag = Dag::paper_example();
        let f = dag.id_of("f").unwrap().0;
        let h = dag.id_of("h").unwrap().0;
        let mut t = Table::new(1, 1);
        t.push(&[5], &[h]); // false hit candidate (h is level >= 1)
        t.push(&[5], &[f]); // the real dominator (f is level >= 1 too)
        let idx = SdcIndex::build(
            t.clone(),
            vec![dag.clone()],
            Variant::SdcPlus,
            SdcConfig::default(),
        )
        .unwrap();
        let run = idx.run();
        let mut got = run.skyline.clone();
        got.sort_unstable();
        assert_eq!(got, oracle(&t, &dag));
        assert_eq!(got, vec![1]);
        // The h-point must have entered and left the local list (a false
        // hit) or been exactly screened, depending on pop order.
        assert!(run.false_hits_removed <= 1);
    }

    #[test]
    fn cursor_matches_run_and_stops_lazily() {
        use tss_core::SkylineCursor;
        let dag = Dag::paper_example();
        let idx = SdcIndex::build(
            fig3_table(),
            vec![dag],
            Variant::SdcPlus,
            SdcConfig::default(),
        )
        .unwrap();
        let full = idx.run();
        let mut c = idx.cursor();
        let mut got = Vec::new();
        while let Some(p) = c.next() {
            got.push(p.record);
        }
        assert_eq!(got, full.skyline);
        assert_eq!(c.metrics().results, full.metrics.results);
        assert_eq!(c.per_stratum(), full.per_stratum.as_slice());
        // A 1-prefix pull only materializes the first stratum.
        let mut c = idx.cursor();
        assert!(c.next().is_some());
        assert!(
            c.per_stratum().len() <= 1,
            "later strata must not have run: {:?}",
            c.per_stratum()
        );
    }

    #[test]
    fn progressiveness_shape() {
        use tss_core::SkylineCursor;
        // SDC+ confirms level-0 points one by one and the rest in stratum
        // bursts; totals must match.
        let dag = Dag::paper_example();
        let idx = SdcIndex::build(
            fig3_table(),
            vec![dag],
            Variant::SdcPlus,
            SdcConfig::default(),
        )
        .unwrap();
        let mut c = idx.cursor();
        let mut seen = Vec::new();
        while let Some(p) = c.next() {
            seen.push((p.record, c.progress().results));
        }
        assert_eq!(seen.len(), idx.run().skyline.len());
        // results counter strictly increases.
        for w in seen.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
    }

    fn random_table(n: usize, seed: u64, v: u32) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Table::new(2, 1);
        for _ in 0..n {
            t.push(
                &[rng.gen_range(0..15), rng.gen_range(0..15)],
                &[rng.gen_range(0..v)],
            );
        }
        t
    }

    #[test]
    fn variants_match_oracle_on_lattice_domains() {
        let dag = poset::generator::subset_lattice(poset::generator::LatticeParams {
            height: 4,
            density: 0.7,
            seed: 2,
        })
        .unwrap();
        for seed in 0..3 {
            let t = random_table(300, seed, dag.len() as u32);
            let expect = oracle(&t, &dag);
            for variant in [Variant::BbsPlus, Variant::Sdc, Variant::SdcPlus] {
                let idx =
                    SdcIndex::build(t.clone(), vec![dag.clone()], variant, SdcConfig::default())
                        .unwrap();
                let mut got = idx.run().skyline;
                got.sort_unstable();
                assert_eq!(got, expect, "{variant:?} seed={seed}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn equals_oracle(
            rows in proptest::collection::vec((0u32..10, 0u32..10, 0u32..9), 1..50),
            variant_ix in 0usize..3,
        ) {
            let mut t = Table::new(2, 1);
            for &(a, b, v) in &rows {
                t.push(&[a, b], &[v]);
            }
            let dag = Dag::paper_example();
            let expect = oracle(&t, &dag);
            let variant = [Variant::BbsPlus, Variant::Sdc, Variant::SdcPlus][variant_ix];
            let idx = SdcIndex::build(t, vec![dag], variant, SdcConfig::default()).unwrap();
            let mut got = idx.run().skyline;
            got.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
