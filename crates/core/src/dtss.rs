//! **dTSS** — dynamic skylines for partially ordered domains (§V).
//!
//! A dynamic skyline query *explicitly* specifies the partial order of every
//! PO attribute, so dominance relationships change per query. Rebuilding the
//! transformed index per query (as sTSS or the SDC baselines would need to)
//! costs passes over the whole data set; dTSS avoids that entirely:
//!
//! * **Build once:** tuples are partitioned into *groups* by their PO value
//!   combination; each group gets its own R-tree over the TO attributes.
//!   Groups and trees are *independent of any partial order*.
//! * **Per query:** the supplied DAGs are topologically sorted and their
//!   transitive closures computed (cheap — the domains are small); no
//!   interval labels are built, since only sTSS's MBB checks read them.
//!   Groups are visited in ascending sum of their values' topological
//!   ordinals, which guarantees precedence across groups: a dominating
//!   group's values are all preferred-or-equal, hence have ordinal-sum
//!   strictly below (distinct keys). Inside a group, BBS
//!   over the TO tree, or a scan of the group's local skyline in ascending
//!   coordinate sum, gives precedence as usual, so every surviving point is
//!   emitted immediately, as its record id: plain and fully dynamic
//!   queries alike leave the rows in [`Dtss::table`].
//! * **Group skipping:** before touching a group's tree, its root MBB corner
//!   is checked against the global skyline; a dominated corner dismisses the
//!   whole group without reading a single page (the Fig. 5 `Gc` moment).
//! * **The group's front, then the key block:** inside a group every tuple
//!   has the same PO values, so dominance there is plain TO dominance. The
//!   tree walk keeps the group's *front*, the folded TO values of each
//!   popped point that no earlier point of the group strictly dominates,
//!   and tests every popped point and subtree corner against it first
//!   ([`PointBlock::dominated`]). A front member `f` that strictly
//!   dominates the key under test was itself either confirmed or rejected
//!   by a confirmed member `s` that t-dominates it; `s` then t-dominates
//!   the key too (transitivity), so the front rejects nothing the global
//!   check would keep, and a front hit skips that check. A front miss
//!   runs it unchanged: the working skyline is a key block of folded TO
//!   values followed by the query's ordinals of each member's PO values.
//!   A dominator's key is `<=` the candidate's (or corner's) on every
//!   dimension, so point, subtree and group checks are all one
//!   [`KeyBlock::first_match`] call: the box, then the exact refine. Reads,
//!   pops and emission are the paper's; only the pair counts differ.
//! * **Local skylines (§V-B), on by default:** a group's local skyline does
//!   not depend on the query's orders, and only its members can reach a
//!   dynamic skyline. The build computes each one by SFS: the group's
//!   members sorted by `(TO coordinate sum, id)` and filtered through one
//!   reused [`PointBlock`]. A plain query checks just those members, in
//!   that order, against the global key block and pops no tree. Fully
//!   dynamic queries fold the TO values around their reference, which
//!   invalidates local skylines, so they walk the trees with the group
//!   front. So does every query when [`DtssConfig::precompute_local`] is
//!   `false`, the paper's §VI-C configuration.

use crate::cursor::{ProgressSample, SkylineCursor, SkylinePoint};
use crate::store::{KeyBlock, RecordId};
use crate::{CoreError, Metrics, PoDomain, Table};
use poset::{Dag, Fnv64};
use rtree::{BestFirst, Mbb, Popped, RTree};
use skyline::PointBlock;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// A dynamic skyline query: one partial order per PO attribute, over the
/// same value ids the data was loaded with, and, for a **fully dynamic**
/// query (§V-B), a reference point.
#[derive(Debug, Clone)]
pub struct PoQuery {
    dags: Vec<Dag>,
    reference: Option<Vec<u32>>,
}

impl PoQuery {
    /// Wraps the per-attribute partial orders.
    pub fn new(dags: Vec<Dag>) -> Self {
        PoQuery {
            dags,
            reference: None,
        }
    }

    /// The same query made **fully dynamic** (§V-B): besides the partial
    /// orders, it names the *ideal value* of every TO attribute, and TO
    /// dominance is taken on the folded coordinates `|x − reference|`. The
    /// precomputed local skylines are invalid under folding (the paper's
    /// observation), so such a query always scans the group trees —
    /// best-first around the reference point.
    ///
    /// A `reference` that does not name one value per TO attribute makes
    /// the query fail with [`CoreError::ReferenceWidthMismatch`] before
    /// anything is labeled.
    pub fn with_reference(mut self, reference: Vec<u32>) -> Self {
        self.reference = Some(reference);
        self
    }

    /// The partial orders.
    pub fn dags(&self) -> &[Dag] {
        &self.dags
    }

    /// The reference point of a fully dynamic query.
    pub fn reference(&self) -> Option<&[u32]> {
        self.reference.as_deref()
    }
}

/// Tuning knobs for [`Dtss`].
///
/// By default, plain dynamic queries are served from per-group local
/// skylines computed at build time (§V-B): a query checks only their
/// members against the global key block and pops no group tree. Fully
/// dynamic queries always walk the group trees.
///
/// The paper's benchmark configuration (§VI-C: "no buffers, global main
/// memory R-tree, pre-processing or caching mechanisms are used") is
/// `precompute_local: false`, which the harness's figure tables set. It
/// reproduces the paper's page reads, pruning and emission order. It does
/// not reproduce its pair-check counts, because each group's front (see
/// the module docs) answers many checks before the global key block.
/// No configuration buffers pages or caches results.
///
/// Node capacities and the page charges of the group directory and the
/// local-skyline files follow rtree's page model
/// ([`rtree::page_capacity`], [`rtree::data_pages`]).
#[derive(Debug, Clone, Copy)]
pub struct DtssConfig {
    /// Explicit node capacity override.
    pub node_capacity: Option<usize>,
    /// Serve plain queries from per-group local skylines computed at build
    /// time (§V-B). On by default; `false` is the paper's "no
    /// pre-processing" configuration, in which every query walks the group
    /// trees.
    pub precompute_local: bool,
}

impl Default for DtssConfig {
    /// Local skylines on.
    fn default() -> Self {
        DtssConfig {
            node_capacity: None,
            precompute_local: true,
        }
    }
}

/// A group's local skyline by SFS (sort-filter-skyline): the members
/// sorted by `(TO coordinate sum, id)`, each kept unless a kept member
/// strictly dominates it. A dominator's sum is strictly smaller, so it is
/// kept first, and exact duplicates never dominate each other. The result
/// is the set BBS over the group's tree confirms, in `(sum, id)` order,
/// which is the order the cursor checks it in. The sort buffer and the
/// kept block are reused across groups.
struct LocalSfs<'t> {
    table: &'t Table,
    order: Vec<(u64, RecordId)>,
    kept: PointBlock,
}

impl<'t> LocalSfs<'t> {
    fn new(table: &'t Table) -> Self {
        LocalSfs {
            table,
            order: Vec::new(),
            kept: PointBlock::new(table.to_dims()).with_kernel(table.kernel()),
        }
    }

    /// The local skyline of the group with members `records`.
    fn run(&mut self, records: &[RecordId]) -> Vec<RecordId> {
        let table = self.table;
        self.order.clear();
        self.order.extend(
            records
                .iter()
                .map(|&r| (skyline::monotone_sum(table.to(r)), r)),
        );
        self.order.sort_unstable();
        self.kept.clear();
        let mut sky = Vec::new();
        for &(_, r) in &self.order {
            let to = table.to(r);
            if !self.kept.dominated(to).0 {
                self.kept.push(to);
                sky.push(r);
            }
        }
        sky
    }
}

/// One PO-value group: key, members, TO R-tree, optional local skyline.
#[derive(Debug)]
struct Group {
    key: Vec<u32>,
    tree: RTree,
    /// The tree's root MBB, whose corner the dismissal check runs on.
    root_mbb: Mbb,
    /// Local skyline record ids sorted by `(TO coordinate sum, id)`, if
    /// precomputed.
    local_skyline: Option<Vec<u32>>,
}

/// The dTSS operator: built once over a table, queried many times with
/// different partial orders. Read-only once built: each query keeps its
/// state in its own cursor, so threads may share one operator.
#[derive(Debug)]
pub struct Dtss {
    table: Table,
    domain_sizes: Vec<u32>,
    groups: Vec<Group>,
}

/// Result of one [`Dtss::query`].
#[derive(Debug, Clone)]
pub struct DtssRun {
    /// Skyline points in emission order.
    pub skyline: Vec<SkylinePoint>,
    /// Execution metrics for this query.
    pub metrics: Metrics,
    /// Groups dismissed by the root-corner check.
    pub groups_skipped: u64,
    /// Total number of groups.
    pub groups_total: u64,
}

impl DtssRun {
    /// Record indices of the skyline, in emission order.
    pub fn skyline_records(&self) -> Vec<u32> {
        self.skyline.iter().map(|p| p.record).collect()
    }
}

impl Dtss {
    /// Partitions the table into groups and bulk-loads the per-group trees.
    /// `domain_sizes[d]` is the cardinality of PO domain `d` (queries must
    /// supply DAGs of exactly these sizes).
    pub fn build(table: Table, domain_sizes: Vec<u32>, cfg: DtssConfig) -> Result<Self, CoreError> {
        if table.to_dims() == 0 {
            return Err(CoreError::NoDimensions);
        }
        table.check_domains(&domain_sizes)?;
        // Group by borrowed PO rows, hashed with FNV-1a: one key allocation
        // per group, not per row.
        let mut by_key: HashMap<&[u32], Vec<RecordId>, BuildHasherDefault<Fnv64>> =
            HashMap::default();
        for r in 0..table.len() as RecordId {
            by_key.entry(table.po(r)).or_default().push(r);
        }
        let cap = crate::node_capacity(cfg.node_capacity, table.to_dims())?;
        // lint:allow(hash-iter): drained groups are sorted by key on the next line, so the group layout never sees the hasher's order
        let mut keyed: Vec<(&[u32], Vec<RecordId>)> = by_key.into_iter().collect();
        keyed.sort_unstable_by_key(|&(key, _)| key); // deterministic group layout

        // Buffers reused by every group: the members' TO rows, and the
        // local-skyline filter's order and kept points.
        let mut coords = Vec::new();
        let mut sfs = LocalSfs::new(&table);
        let groups = keyed
            .into_iter()
            .filter_map(|(key, records)| {
                // Columnar group load: gather the members' TO rows into one
                // flat matrix, never materializing per-point rows.
                coords.clear();
                for &r in &records {
                    coords.extend_from_slice(table.to(r));
                }
                let tree = RTree::bulk_load_flat(table.to_dims(), cap, &coords, &records);
                // Every group has a member, hence a root.
                let root_mbb = tree.mbb(tree.root()?).clone();
                let local_skyline = cfg.precompute_local.then(|| sfs.run(&records));
                Some(Group {
                    key: key.to_vec(),
                    tree,
                    root_mbb,
                    local_skyline,
                })
            })
            .collect();
        Ok(Dtss {
            table,
            domain_sizes,
            groups,
        })
    }

    /// The input table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Number of PO-value groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Cardinality of each PO domain (what query DAGs must match).
    pub fn domain_sizes(&self) -> &[u32] {
        &self.domain_sizes
    }

    /// Evaluates a dynamic skyline query, fully dynamic if it carries a
    /// reference point ([`PoQuery::with_reference`]): drains a fresh
    /// [`query_cursor`](Self::query_cursor).
    pub fn query(&self, q: &PoQuery) -> Result<DtssRun, CoreError> {
        Ok(self.query_cursor(q)?.drain())
    }

    /// Opens a pull-based cursor over a dynamic skyline query: groups are
    /// visited, dismissed and traversed lazily, one confirmation per
    /// [`next`](SkylineCursor::next) call, so a top-k consumer never touches
    /// groups ranked after its prefix. Each cursor counts its own page
    /// reads, so any number may be open at once.
    pub fn query_cursor(&self, q: &PoQuery) -> Result<DtssCursor<'_>, CoreError> {
        self.cursor_inner(q, || PreparedDomains::fresh(q))
    }

    /// Validates a query's shape (and a fully dynamic query's reference
    /// point) against the data-resident structures.
    fn validate(&self, q: &PoQuery) -> Result<(), CoreError> {
        if let Some(r) = q.reference() {
            if r.len() != self.table.to_dims() {
                return Err(CoreError::ReferenceWidthMismatch {
                    expected: self.table.to_dims(),
                    got: r.len(),
                });
            }
        }
        if q.dags.len() != self.domain_sizes.len() {
            return Err(CoreError::DomainCountMismatch {
                dags: q.dags.len(),
                po_dims: self.domain_sizes.len(),
            });
        }
        for (d, dag) in q.dags.iter().enumerate() {
            if dag.len() != self.domain_sizes[d] as usize {
                return Err(CoreError::QueryDomainMismatch {
                    dim: d,
                    expected: self.domain_sizes[d] as usize,
                    got: dag.len(),
                });
            }
        }
        Ok(())
    }

    /// Shared cursor entry point. `prepare` labels the query's DAGs, from
    /// scratch or through a session cache; it runs only once the query is
    /// valid, so a rejected query never labels anything.
    pub(crate) fn cursor_inner(
        &self,
        q: &PoQuery,
        prepare: impl FnOnce() -> PreparedDomains,
    ) -> Result<DtssCursor<'_>, CoreError> {
        self.validate(q)?;
        Ok(DtssCursor::new(self, prepare(), q.reference.clone()))
    }
}

/// Per-query labelings handed to the executor, with the session-cache
/// accounting that produced them.
pub(crate) struct PreparedDomains {
    pub(crate) domains: Vec<PoDomain>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl PreparedDomains {
    /// Labels every query DAG from scratch (no session cache).
    fn fresh(q: &PoQuery) -> Self {
        PreparedDomains {
            domains: q.dags.iter().cloned().map(PoDomain::new).collect(),
            hits: 0,
            misses: q.dags.len() as u64,
        }
    }
}

/// Where the cursor currently stands in the group-at-a-time walk.
enum DtssPhase<'a> {
    /// Pick (and possibly dismiss) the next group in ordinal-rank order.
    NextGroup,
    /// Iterating a precomputed local skyline (§V-B); `local` is the part
    /// not yet checked.
    Local {
        gi: usize,
        local: &'a [u32],
    },
    /// Best-first traversal of a group's TO R-tree.
    Tree {
        gi: usize,
        bf: BestFirst<'a>,
    },
    Done,
}

/// Pull-based dTSS executor: the §V-A group walk as an explicit-state
/// iterator. Groups are ranked, dismissed and traversed lazily — a consumer
/// that stops after `k` results never reads the trees of later groups.
///
/// Inside a group's tree walk each popped point and subtree corner meets
/// the group's front first and the working skyline only on a front miss
/// (see the module docs). The front never rejects what the working
/// skyline would keep, so reads, pops, dismissals and emission order are
/// those of the front-free walk; only the pair counts differ.
///
/// As in sTSS, exact copies of a skyline point are all confirmed by the
/// walk: node checks exclude exact ties, the front is strict TO dominance,
/// and a group's dismissal check runs before any of its own members is
/// confirmed, so no check ever drops an exact copy of a skyline point.
pub struct DtssCursor<'a> {
    dtss: &'a Dtss,
    /// Per-query labelings (built for the query, or shared with a session
    /// cache).
    domains: Vec<PoDomain>,
    reference: Option<Vec<u32>>,
    /// Group visit order by ascending ordinal-sum rank.
    order: Vec<usize>,
    order_ix: usize,
    start: Instant,
    m: Metrics,
    /// Working skyline: record ids plus keys — *folded* TO coordinates (the
    /// dominance space), then the query's ordinals of the PO values.
    sky: KeyBlock,
    /// The key under test, laid out like the skyline's: a popped point's
    /// folded TO coordinates or a subtree's folded lower corner, then the
    /// current group's ordinals (written once per group).
    cand: Vec<u32>,
    /// The current group's front: the folded TO values of every popped
    /// point that no earlier point of the group strictly dominates, on the
    /// table's kernel. Cleared when a group is entered.
    front: PointBlock,
    groups_skipped: u64,
    phase: DtssPhase<'a>,
    last_sample: ProgressSample,
    finished: bool,
}

impl<'a> DtssCursor<'a> {
    fn new(dtss: &'a Dtss, prepared: PreparedDomains, reference: Option<Vec<u32>>) -> Self {
        // lint:allow(time-source): Metrics.cpu timing site — cursor wall clock
        let start = Instant::now();
        let to_dims = dtss.table.to_dims();
        let key_dims = to_dims + dtss.domain_sizes.len();
        let domains = prepared.domains;
        let mut m = Metrics {
            label_cache_hits: prepared.hits,
            label_cache_misses: prepared.misses,
            ..Default::default()
        };
        // Reading the group directory (each group's key + root MBB) costs
        // sequential page IOs — the paper's §VI-C remark that many group
        // roots should be "stored in contiguous disk pages and retrieved
        // multiple at a time". One directory record ≈ key + 2·|TO| corner
        // coordinates.
        m.io_reads += rtree::data_pages(dtss.groups.len(), dtss.domain_sizes.len() + 2 * to_dims);
        // Visit groups by ascending sum of ordinals: precedence across groups.
        let ranks: Vec<u64> = dtss
            .groups
            .iter()
            .map(|g| {
                g.key
                    .iter()
                    .enumerate()
                    .map(|(d, &v)| domains[d].ordinal(v) as u64)
                    .sum()
            })
            .collect();
        let mut order: Vec<usize> = (0..dtss.groups.len()).collect();
        order.sort_by_key(|&gi| (ranks[gi], gi));
        DtssCursor {
            dtss,
            domains,
            reference,
            order,
            order_ix: 0,
            start,
            m,
            sky: KeyBlock::new(key_dims),
            cand: vec![0; key_dims],
            front: PointBlock::new(to_dims).with_kernel(dtss.table.kernel()),
            groups_skipped: 0,
            phase: DtssPhase::NextGroup,
            last_sample: ProgressSample::default(),
            finished: false,
        }
    }

    /// Groups dismissed by the root-corner check so far.
    pub fn groups_skipped(&self) -> u64 {
        self.groups_skipped
    }

    /// Total number of PO-value groups in the operator.
    pub fn groups_total(&self) -> u64 {
        self.dtss.groups.len() as u64
    }

    /// Pulls every remaining point: the draining [`Dtss::query`] and
    /// [`QuerySession::query`](crate::QuerySession::query) forms.
    pub(crate) fn drain(mut self) -> DtssRun {
        let skyline = self.take_k(usize::MAX);
        DtssRun {
            metrics: self.metrics(),
            groups_skipped: self.groups_skipped,
            groups_total: self.groups_total(),
            skyline,
        }
    }

    /// Records the confirmation snapshot; `extra_io` charges the in-flight
    /// group's tree reads, which move into `m.io_reads` at group end.
    fn take_sample(&mut self, extra_io: u64) {
        self.last_sample = ProgressSample {
            results: self.m.results,
            elapsed_cpu: self.start.elapsed(),
            io_reads: self.m.io_reads + extra_io,
            dominance_checks: self.m.dominance_checks,
        };
    }

    /// Writes the TO half of the key under test: `to` itself, or
    /// `|to − reference|` for fully dynamic queries.
    fn load_point(&mut self, to: &[u32]) {
        let head = &mut self.cand[..to.len()];
        match &self.reference {
            None => head.copy_from_slice(to),
            Some(r) => {
                for ((slot, &a), &b) in head.iter_mut().zip(to).zip(r) {
                    *slot = a.abs_diff(b);
                }
            }
        }
    }

    /// Writes the TO half of the key under test for a subtree: the MBB's
    /// lower corner, folded around the reference for fully dynamic queries.
    fn load_corner(&mut self, mbb: &Mbb) {
        let head = &mut self.cand[..mbb.dims()];
        match &self.reference {
            None => head.copy_from_slice(mbb.lo()),
            Some(r) => mbb.folded_corner(r, head),
        }
    }

    /// Point and subtree check of the key under test against the working
    /// skyline, for a group with PO values `key`. A member prunes a
    /// subtree iff it t-dominates the corner point, so both are exact
    /// t-dominance (see [`Table::t_dominated_by_keys`]). Strict
    /// dominance never holds between exact duplicates, so every copy of a
    /// skyline point is confirmed on its own.
    fn dominated(&mut self, key: &[u32]) -> bool {
        let (hit, examined) =
            self.dtss
                .table
                .t_dominated_by_keys(&self.domains, &self.cand, key, &self.sky);
        self.m.batch(examined);
        hit
    }

    /// The tree walk's check of the key under test: the group's front
    /// first, then [`dominated`](Self::dominated) on a front miss. A front
    /// member strictly dominates the key's TO half, and with the group's
    /// PO values that is t-dominance, so a hit rejects at once. On a miss
    /// a popped `point` joins the front, whatever the global check then
    /// decides; a subtree corner never does.
    fn dominated_in_group(&mut self, key: &[u32], point: bool) -> bool {
        let to = &self.cand[..self.dtss.table.to_dims()];
        let (hit, examined) = self.front.dominated(to);
        self.m.batch(examined);
        if hit {
            return true;
        }
        if point {
            self.front.push(to);
        }
        self.dominated(key)
    }

    /// Confirms the key under test as skyline member `record`.
    fn emit(&mut self, record: RecordId) {
        self.sky.push(record, &self.cand);
        self.m.results += 1;
    }

    /// Sets up the next group: dismissal check and the phase that will
    /// stream its points. Returns the new phase, or `None` when
    /// the group was dismissed.
    fn enter_group(&mut self, gi: usize) -> Option<DtssPhase<'a>> {
        let dtss = self.dtss;
        let group = &dtss.groups[gi];
        let key = &group.key;
        let to_dims = dtss.table.to_dims();
        for ((slot, &v), d) in self.cand[to_dims..].iter_mut().zip(key).zip(&self.domains) {
            *slot = d.ordinal(v);
        }
        self.front.clear();
        // Dismissal check against the current skyline: a member at least
        // as good as the root corner, ties included (the paper's
        // root-corner test).
        self.load_corner(&group.root_mbb);
        let (dominated, examined) =
            dtss.table
                .covered_by_keys(&self.domains, &self.cand, key, &self.sky);
        self.m.batch(examined);
        if dominated {
            self.groups_skipped += 1;
            return None;
        }

        // Local skylines are computed under origin-anchored dominance and
        // are invalid for folded queries (§V-B).
        if let (Some(local), None) = (group.local_skyline.as_ref(), self.reference.as_ref()) {
            // §V-B: only local skyline points can be global results.
            // Charge the pages of the stored local-skyline file.
            self.m.io_reads += rtree::data_pages(local.len(), dtss.table.to_dims() + key.len());
            return Some(DtssPhase::Local { gi, local });
        }
        let bf = group.tree.best_first_from(self.reference.as_deref());
        Some(DtssPhase::Tree { gi, bf })
    }

    fn finish(&mut self) {
        if !self.finished {
            self.m.cpu = self.start.elapsed();
            self.finished = true;
        }
        self.phase = DtssPhase::Done;
    }
}

impl SkylineCursor for DtssCursor<'_> {
    fn next(&mut self) -> Option<SkylinePoint> {
        loop {
            let phase = std::mem::replace(&mut self.phase, DtssPhase::Done);
            match phase {
                DtssPhase::Done => return None,
                DtssPhase::NextGroup => {
                    let Some(&gi) = self.order.get(self.order_ix) else {
                        self.finish();
                        return None;
                    };
                    self.order_ix += 1;
                    if let Some(next) = self.enter_group(gi) {
                        self.phase = next;
                    } else {
                        self.phase = DtssPhase::NextGroup;
                    }
                }
                DtssPhase::Local { gi, mut local } => {
                    let dtss = self.dtss;
                    let group = &dtss.groups[gi];
                    while let Some((&r, rest)) = local.split_first() {
                        local = rest;
                        self.load_point(dtss.table.to(r));
                        if !self.dominated(&group.key) {
                            self.emit(r);
                            self.take_sample(0);
                            self.phase = DtssPhase::Local { gi, local };
                            return Some(SkylinePoint { record: r });
                        }
                    }
                    self.phase = DtssPhase::NextGroup;
                }
                DtssPhase::Tree { gi, mut bf } => {
                    let dtss = self.dtss;
                    let group = &dtss.groups[gi];
                    let key = &group.key;
                    while let Some(popped) = bf.pop() {
                        self.m.heap_pops += 1;
                        match popped {
                            Popped::Node { id, mbb, .. } => {
                                self.load_corner(mbb);
                                if !self.dominated_in_group(key, false) {
                                    bf.expand(id);
                                }
                            }
                            Popped::Record { point, record, .. } => {
                                self.load_point(point);
                                if !self.dominated_in_group(key, true) {
                                    self.emit(record);
                                    self.take_sample(bf.reads());
                                    self.phase = DtssPhase::Tree { gi, bf };
                                    return Some(SkylinePoint { record });
                                }
                            }
                        }
                    }
                    self.m.io_reads += bf.reads();
                    self.phase = DtssPhase::NextGroup;
                }
            }
        }
    }

    fn metrics(&self) -> Metrics {
        let mut m = self.m;
        if !self.finished {
            if let DtssPhase::Tree { bf, .. } = &self.phase {
                m.io_reads += bf.reads();
            }
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
    use crate::dominance::{brute_force_po_skyline, t_dominates};
    use crate::Kernel;
    use poset::PartialOrderBuilder;
    use proptest::prelude::*;

    /// The data set of Fig. 5(a): (A1, A2, A3) with A3 ∈ {a=0, b=1, c=2}.
    fn fig5_table() -> Table {
        let mut t = Table::new(2, 1);
        for (a1, a2, a3) in [
            (1, 2, 0), // p1 a
            (3, 1, 0), // p2 a
            (3, 4, 0), // p3 a
            (4, 5, 0), // p4 a
            (2, 2, 1), // p5 b
            (1, 5, 1), // p6 b
            (2, 5, 2), // p7 c
            (3, 4, 2), // p8 c
            (4, 4, 2), // p9 c
            (5, 2, 2), // p10 c
        ] {
            t.push(&[a1, a2], &[a3]);
        }
        t
    }

    fn order_b_over_c() -> Dag {
        // First query of §V-A: "b is better than c, no other preference".
        let mut b = PartialOrderBuilder::new();
        b.values(["a", "b", "c"]);
        b.prefer("b", "c").unwrap();
        b.build().unwrap()
    }

    fn order_a_c_over_b() -> Dag {
        // Second query (Fig. 6(a)): a and c both better than b.
        let mut b = PartialOrderBuilder::new();
        b.values(["a", "b", "c"]);
        b.prefer("a", "b").unwrap();
        b.prefer("c", "b").unwrap();
        b.build().unwrap()
    }

    /// The paper's no-preprocessing configuration, then the default
    /// (local skylines).
    fn configs() -> Vec<DtssConfig> {
        vec![
            DtssConfig {
                precompute_local: false,
                ..Default::default()
            },
            DtssConfig::default(),
        ]
    }

    #[test]
    fn fig5_first_query() {
        // §V-A: skyline = {p1, p2} from Ga, {p5, p6} from Gb; Gc dismissed.
        for cfg in configs() {
            let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
            let run = dtss.query(&PoQuery::new(vec![order_b_over_c()])).unwrap();
            let mut got = run.skyline_records();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 4, 5], "{cfg:?}");
            assert_eq!(run.groups_total, 3);
            assert_eq!(run.groups_skipped, 1, "Gc must be dismissed: {cfg:?}");
        }
    }

    #[test]
    fn fig6_second_query() {
        // §V-A: skyline = {p7, p8, p10} from Gc then {p1, p2} from Ga; Gb
        // dismissed without reading its tree.
        for cfg in configs() {
            let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
            let run = dtss.query(&PoQuery::new(vec![order_a_c_over_b()])).unwrap();
            let mut got = run.skyline_records();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 6, 7, 9], "{cfg:?}");
            assert_eq!(run.groups_skipped, 1, "Gb must be dismissed: {cfg:?}");
        }
    }

    #[test]
    fn emission_respects_group_order() {
        // Second query: a and c are both roots; our deterministic
        // topological sort assigns a ordinal 1 and c ordinal 2 (the paper
        // draws the equally admissible order c, a, b — the skyline is
        // identical). Ga must therefore be fully emitted before Gc.
        for cfg in configs() {
            let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
            let run = dtss.query(&PoQuery::new(vec![order_a_c_over_b()])).unwrap();
            let recs = run.skyline_records();
            let pos = |r: u32| recs.iter().position(|&x| x == r).unwrap();
            for a_rec in [0u32, 1] {
                for c_rec in [6u32, 7, 9] {
                    assert!(pos(a_rec) < pos(c_rec), "Ga before Gc: {recs:?} {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn node_capacity_below_two_is_a_typed_error() {
        for capacity in [0, 1] {
            let cfg = DtssConfig {
                node_capacity: Some(capacity),
                ..DtssConfig::default()
            };
            assert_eq!(
                Dtss::build(fig5_table(), vec![3], cfg).unwrap_err(),
                CoreError::NodeCapacityTooSmall { capacity }
            );
        }
    }

    #[test]
    fn rejects_mismatched_queries() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        assert!(matches!(
            dtss.query(&PoQuery::new(vec![])),
            Err(CoreError::DomainCountMismatch { .. })
        ));
        let wrong = poset::Dag::from_edges(5, &[]).unwrap();
        assert!(matches!(
            dtss.query(&PoQuery::new(vec![wrong])),
            Err(CoreError::QueryDomainMismatch { .. })
        ));
    }

    #[test]
    fn empty_order_keeps_per_group_skylines() {
        // With no preferences at all, every group contributes its local
        // skyline (groups are mutually incomparable).
        let empty = poset::Dag::from_edges(3, &[]).unwrap();
        let domains = vec![PoDomain::new(empty.clone())];
        let mut expect = brute_force_po_skyline(&domains, &fig5_table());
        expect.sort_unstable();
        for cfg in configs() {
            let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
            let run = dtss.query(&PoQuery::new(vec![empty.clone()])).unwrap();
            let mut got = run.skyline_records();
            got.sort_unstable();
            assert_eq!(got, expect, "{cfg:?}");
            assert_eq!(run.groups_skipped, 0, "{cfg:?}");
        }
    }

    #[test]
    fn duplicates_within_group_survive() {
        let mut t = fig5_table();
        t.push(&[1, 2], &[0]); // duplicate of p1
        for cfg in configs() {
            let dtss = Dtss::build(t.clone(), vec![3], cfg).unwrap();
            let run = dtss.query(&PoQuery::new(vec![order_b_over_c()])).unwrap();
            let mut got = run.skyline_records();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 4, 5, 10], "{cfg:?}");
        }
    }

    /// Oracle for fully dynamic queries: Pareto dominance on folded TO
    /// coordinates plus the query partial orders.
    fn folded_oracle(t: &Table, doms: &[PoDomain], reference: &[u32]) -> Vec<u32> {
        let fold = |row: &[u32]| -> Vec<u32> {
            row.iter()
                .zip(reference.iter())
                .map(|(&a, &b)| a.abs_diff(b))
                .collect()
        };
        (0..t.len() as u32)
            .filter(|&i| {
                !(0..t.len() as u32).any(|j| {
                    j != i
                        && crate::dominance::t_dominates(
                            doms,
                            &fold(t.to(j)),
                            t.po(j),
                            &fold(t.to(i)),
                            t.po(i),
                        )
                })
            })
            .collect()
    }

    #[test]
    fn fully_dynamic_matches_folded_oracle() {
        let references: [[u32; 2]; 4] = [[0, 0], [3, 3], [5, 1], [2, 4]];
        for cfg in configs() {
            let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
            for dag_fn in [order_b_over_c as fn() -> poset::Dag, order_a_c_over_b] {
                for r in &references {
                    let dag = dag_fn();
                    let q = PoQuery::new(vec![dag.clone()]).with_reference(r.to_vec());
                    let run = dtss.query(&q).unwrap();
                    let mut got = run.skyline_records();
                    got.sort_unstable();
                    let doms = [PoDomain::new(dag.clone())];
                    let mut expect = folded_oracle(&fig5_table(), &doms, r);
                    expect.sort_unstable();
                    assert_eq!(got, expect, "cfg={cfg:?} ref={r:?}");
                }
            }
        }
    }

    #[test]
    fn fully_dynamic_at_origin_equals_plain_query() {
        let q = PoQuery::new(vec![order_b_over_c()]);
        for cfg in configs() {
            let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
            let plain = dtss.query(&q).unwrap();
            let folded = dtss.query(&q.clone().with_reference(vec![0, 0])).unwrap();
            assert_eq!(plain.skyline_records(), folded.skyline_records(), "{cfg:?}");
        }
    }

    #[test]
    fn fully_dynamic_query_rejects_a_wrong_width_reference() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let q = PoQuery::new(vec![order_b_over_c()]);
        for reference in [&[][..], &[1], &[1, 2, 3]] {
            assert_eq!(
                dtss.query(&q.clone().with_reference(reference.to_vec()))
                    .err(),
                Some(CoreError::ReferenceWidthMismatch {
                    expected: 2,
                    got: reference.len()
                })
            );
        }
    }

    #[test]
    fn fully_dynamic_cursor_rejects_a_wrong_width_reference() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let q = PoQuery::new(vec![order_b_over_c()]);
        assert_eq!(
            dtss.query_cursor(&q.clone().with_reference(vec![1])).err(),
            Some(CoreError::ReferenceWidthMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(dtss.query_cursor(&q.with_reference(vec![1, 2])).is_ok());
    }

    /// A random partial order over `size` values from the bits of `mask`:
    /// one bit per forward pair `(i, j)`, `i < j`, so the DAG is acyclic.
    fn mask_dag(size: u32, mask: u32) -> Dag {
        let mut edges = Vec::new();
        let mut bit = 0;
        for i in 0..size {
            for j in (i + 1)..size {
                if mask >> bit & 1 == 1 {
                    edges.push((i, j));
                }
                bit += 1;
            }
        }
        Dag::from_edges(size, &edges).unwrap()
    }

    /// What a tree walk did: the emitted records in order, and the work the
    /// group front must leave as it is.
    #[derive(Debug, PartialEq)]
    struct Walk {
        emitted: Vec<u32>,
        heap_pops: u64,
        io_reads: u64,
        groups_skipped: u64,
    }

    /// The front-free walk of §V-A, written without the cursor's key
    /// blocks: groups in ordinal-rank order, each dismissed when an emitted
    /// point covers its root corner (TO values `<=`, PO values
    /// preferred-or-equal), otherwise walked best-first with every subtree
    /// corner and point checked by [`t_dominates`] against the emitted
    /// list. TO values are folded around `reference` for fully dynamic
    /// queries.
    fn reference_walk(dtss: &Dtss, doms: &[PoDomain], reference: Option<&[u32]>) -> Walk {
        let table = &dtss.table;
        let fold = |to: &[u32]| -> Vec<u32> {
            match reference {
                None => to.to_vec(),
                Some(r) => to.iter().zip(r).map(|(&a, &b)| a.abs_diff(b)).collect(),
            }
        };
        let corner = |mbb: &Mbb| match reference {
            None => mbb.lo().to_vec(),
            Some(r) => {
                let mut corner = vec![0; mbb.dims()];
                mbb.folded_corner(r, &mut corner);
                corner
            }
        };
        let rank = |g: &Group| -> u64 {
            g.key
                .iter()
                .zip(doms)
                .map(|(&v, d)| d.ordinal(v) as u64)
                .sum()
        };
        let mut order: Vec<usize> = (0..dtss.groups.len()).collect();
        order.sort_by_key(|&gi| (rank(&dtss.groups[gi]), gi));
        // Emitted records with their (folded) TO values.
        let mut emitted: Vec<(u32, Vec<u32>)> = Vec::new();
        let dominated = |emitted: &[(u32, Vec<u32>)], to: &[u32], po: &[u32]| {
            emitted
                .iter()
                .any(|(s, s_to)| t_dominates(doms, s_to, table.po(*s), to, po))
        };
        let mut walk = Walk {
            emitted: Vec::new(),
            heap_pops: 0,
            io_reads: rtree::data_pages(dtss.groups.len(), doms.len() + 2 * table.to_dims()),
            groups_skipped: 0,
        };
        for gi in order {
            let group = &dtss.groups[gi];
            let root = corner(&group.root_mbb);
            let covered = emitted.iter().any(|(s, s_to)| {
                s_to.iter().zip(&root).all(|(a, c)| a <= c)
                    && table
                        .po(*s)
                        .iter()
                        .zip(&group.key)
                        .zip(doms)
                        .all(|((&a, &b), d)| d.pref_or_equal(a, b))
            });
            if covered {
                walk.groups_skipped += 1;
                continue;
            }
            let mut bf = group.tree.best_first_from(reference);
            while let Some(popped) = bf.pop() {
                walk.heap_pops += 1;
                match popped {
                    Popped::Node { id, mbb, .. } => {
                        if !dominated(&emitted, &corner(mbb), &group.key) {
                            bf.expand(id);
                        }
                    }
                    Popped::Record { point, record, .. } => {
                        let to = fold(point);
                        if !dominated(&emitted, &to, &group.key) {
                            emitted.push((record, to));
                        }
                    }
                }
            }
            walk.io_reads += bf.reads();
        }
        walk.emitted = emitted.into_iter().map(|(r, _)| r).collect();
        walk
    }

    proptest! {

        #![proptest_config(ProptestConfig::with_cases(24))]
        /// dTSS equals the oracle for random tables over one or two PO
        /// attributes and random query orders, under every configuration
        /// and both kernels, plain and fully dynamic around a random
        /// reference point; the kernels also agree on the emission order,
        /// the skipped groups and every counter. Small value ranges make
        /// exact duplicates, in plain and in folded coordinates, common;
        /// with two PO attributes a confirmed member's ordinal can exceed
        /// the candidate's, so the ordinal half of the box is exercised.
        #[test]
        fn equals_oracle(
            rows in proptest::collection::vec((0u32..10, 0u32..10, 0u32..5, 0u32..3), 1..60),
            po_dims in 1usize..=2,
            edge_masks in (0u32..1024, 0u32..8),
            folded_at in (0u32..10, 0u32..10),
        ) {
            let mut t = Table::new(2, po_dims);
            for &(a, b, v, w) in &rows {
                t.push(&[a, b], &[v, w][..po_dims]);
            }
            // 5 values on the first attribute, 3 on the second.
            let dags = [mask_dag(5, edge_masks.0), mask_dag(3, edge_masks.1)][..po_dims].to_vec();
            let sizes = [5, 3][..po_dims].to_vec();
            let doms: Vec<PoDomain> = dags.iter().cloned().map(PoDomain::new).collect();
            let q = PoQuery::new(dags);
            for reference in [None, Some([folded_at.0, folded_at.1])] {
                let mut expect = match &reference {
                    None => brute_force_po_skyline(&doms, &t),
                    Some(r) => folded_oracle(&t, &doms, r),
                };
                expect.sort_unstable();
                for cfg in configs() {
                    let [scalar, lanes] = [Kernel::Scalar, Kernel::Lanes].map(|kernel| {
                        let dtss = Dtss::build(t.clone().with_kernel(kernel), sizes.clone(), cfg).unwrap();
                        match &reference {
                            None => dtss.query(&q).unwrap(),
                            Some(r) => dtss.query(&q.clone().with_reference(r.to_vec())).unwrap(),
                        }
                    });
                    let case = format!("{cfg:?} reference={reference:?}");
                    let mut got = scalar.skyline_records();
                    got.sort_unstable();
                    prop_assert_eq!(&got, &expect, "{}", case);
                    prop_assert_eq!(scalar.skyline_records(), lanes.skyline_records(), "{}", case);
                    prop_assert_eq!(scalar.groups_skipped, lanes.groups_skipped, "{}", case);
                    prop_assert_eq!(scalar.metrics.counters(), lanes.metrics.counters(), "{}", case);
                }
            }
        }

        /// The group front changes no decision of the walk: the cursor's
        /// emission order, pops, page reads and dismissed groups equal the
        /// front-free [`reference_walk`]'s, under both kernels, plain and
        /// fully dynamic. Node capacities of 2 to 4 give the group trees
        /// inner nodes, so subtree corners meet the front too; duplicate
        /// rows are common.
        #[test]
        fn front_leaves_the_walk_unchanged(
            rows in proptest::collection::vec((0u32..12, 0u32..12, 0u32..5, 0u32..3), 1..80),
            po_dims in 1usize..=2,
            edge_masks in (0u32..1024, 0u32..8),
            folded_at in (0u32..12, 0u32..12),
            capacity in 2usize..=4,
        ) {
            let mut t = Table::new(2, po_dims);
            for &(a, b, v, w) in &rows {
                t.push(&[a, b], &[v, w][..po_dims]);
            }
            let dags = [mask_dag(5, edge_masks.0), mask_dag(3, edge_masks.1)][..po_dims].to_vec();
            let sizes = [5, 3][..po_dims].to_vec();
            let doms: Vec<PoDomain> = dags.iter().cloned().map(PoDomain::new).collect();
            let q = PoQuery::new(dags);
            let cfg = DtssConfig {
                node_capacity: Some(capacity),
                precompute_local: false,
            };
            for kernel in [Kernel::Scalar, Kernel::Lanes] {
                let dtss = Dtss::build(t.clone().with_kernel(kernel), sizes.clone(), cfg).unwrap();
                for reference in [None, Some([folded_at.0, folded_at.1])] {
                    let reference = reference.as_ref().map(|r| &r[..]);
                    let expect = reference_walk(&dtss, &doms, reference);
                    let run = match reference {
                        None => dtss.query(&q).unwrap(),
                        Some(r) => dtss.query(&q.clone().with_reference(r.to_vec())).unwrap(),
                    };
                    let got = Walk {
                        emitted: run.skyline_records(),
                        heap_pops: run.metrics.heap_pops,
                        io_reads: run.metrics.io_reads,
                        groups_skipped: run.groups_skipped,
                    };
                    prop_assert_eq!(got, expect, "{:?} reference={:?}", kernel, reference);
                }
            }
        }

        /// Each group's SFS-built local skyline is the set BBS confirms
        /// over the group's tree, in `(sum, id)` order, under both kernels.
        /// Node capacities of 2 to 4 give the group trees inner nodes, so
        /// BBS prunes subtrees; small value ranges make duplicate rows
        /// common.
        #[test]
        fn local_skylines_equal_bbs_over_the_group_trees(
            rows in proptest::collection::vec((0u32..8, 0u32..8, 0u32..8, 0u32..4), 1..100),
            to_dims in 1usize..=3,
            capacity in 2usize..=4,
        ) {
            let mut t = Table::new(to_dims, 1);
            for &(a, b, c, v) in &rows {
                t.push(&[a, b, c][..to_dims], &[v]);
            }
            let cfg = DtssConfig {
                node_capacity: Some(capacity),
                ..Default::default()
            };
            for kernel in [Kernel::Scalar, Kernel::Lanes] {
                let dtss = Dtss::build(t.clone().with_kernel(kernel), vec![4], cfg).unwrap();
                for group in &dtss.groups {
                    let (mut expect, _) = skyline::bbs(&group.tree);
                    expect.sort_by_key(|&r| (skyline::monotone_sum(t.to(r)), r));
                    prop_assert_eq!(group.local_skyline.as_deref(), Some(&expect[..]), "{:?}", kernel);
                }
            }
        }
    }
}
