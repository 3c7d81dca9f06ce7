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
//! * **Per query:** the supplied DAGs are topologically sorted and labeled
//!   (cheap — the domains are small). Groups are visited in ascending sum of
//!   their values' topological ordinals, which guarantees precedence across
//!   groups: a dominating group's values are all preferred-or-equal, hence
//!   have ordinal-sum strictly below (distinct keys). Inside a group, BBS
//!   over the TO tree gives precedence as usual, so every surviving point is
//!   emitted immediately.
//! * **Group skipping:** before touching a group's tree, its root MBB corner
//!   is checked against the global skyline; a dominated corner dismisses the
//!   whole group without reading a single page (the Fig. 5 `Gc` moment).
//! * **Optimizations (§V-B):** precomputed per-group *local skylines* (order
//!   independent!) shrink each group to the only points that can possibly
//!   qualify; a query-digest cache reuses full results of repeated orders.

use crate::cursor::{SkylineCursor, SkylineEngine};
use crate::dominance::t_dominates;
use crate::progressive::ProgressSample;
use crate::store::RecordId;
use crate::stss::SkylinePoint;
use crate::{CoreError, Metrics, PoDomain, Table};
use poset::{Dag, Fnv64};
use rtree::{BestFirst, PageConfig, Popped, RTree};
use skyline::PointBlock;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// A dynamic skyline query: one partial order per PO attribute, over the
/// same value ids the data was loaded with.
#[derive(Debug, Clone)]
pub struct PoQuery {
    dags: Vec<Dag>,
}

impl PoQuery {
    /// Wraps the per-attribute partial orders.
    pub fn new(dags: Vec<Dag>) -> Self {
        PoQuery { dags }
    }

    /// The partial orders.
    pub fn dags(&self) -> &[Dag] {
        &self.dags
    }

    /// A canonical digest of the query — the per-attribute
    /// [`Dag::fingerprint`]s combined in order with a toolchain-stable
    /// FNV-1a — used as the result-cache key. Like any 64-bit hash it can
    /// collide; the cache verifies every hit against the stored query (see
    /// [`DtssConfig::cache`]).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for dag in &self.dags {
            dag.fingerprint().hash(&mut h);
        }
        h.finish()
    }

    /// Structural equality with another query: same attribute count and
    /// [`Dag::same_structure`] per attribute — the collision guard behind
    /// every digest-cache hit.
    pub fn same_structure(&self, other: &PoQuery) -> bool {
        self.dags.len() == other.dags.len()
            && self
                .dags
                .iter()
                .zip(other.dags.iter())
                .all(|(a, b)| a.same_structure(b))
    }
}

/// Tuning knobs for [`Dtss`]. Defaults reproduce the paper's benchmark
/// configuration (§VI-C: "no buffers, global main memory R-tree,
/// pre-processing or caching mechanisms are used").
#[derive(Debug, Clone, Copy, Default)]
pub struct DtssConfig {
    /// Page model for node capacities and local-skyline page charging.
    pub page: PageConfig,
    /// Explicit node capacity override.
    pub node_capacity: Option<usize>,
    /// Precompute per-group local skylines at build time (§V-B).
    pub precompute_local: bool,
    /// Cache query results by digest (§V-B).
    pub cache: bool,
    /// Pre-filter the global skyline once per group to the entries whose PO
    /// values can dominate the group's key, turning per-point checks into
    /// TO-only comparisons. Exact; off by default (paper-plain checks).
    pub filter_dominators: bool,
}

/// One PO-value group: key, members, TO R-tree, optional local skyline.
#[derive(Debug)]
struct Group {
    key: Vec<u32>,
    tree: RTree,
    /// Local skyline record ids sorted by ascending TO coordinate sum, if
    /// precomputed.
    local_skyline: Option<Vec<u32>>,
}

impl Group {
    /// The root MBB corner the dismissal check runs on, folded around
    /// `reference` for fully dynamic queries.
    fn root_corner(&self, reference: Option<&[u32]>) -> Vec<u32> {
        let root = self.tree.root().expect("groups are non-empty");
        match reference {
            None => self.tree.mbb(root).lo().to_vec(),
            Some(r) => self.tree.mbb(root).folded_corner(r),
        }
    }
}

/// The dTSS operator: built once over a table, queried many times with
/// different partial orders.
#[derive(Debug)]
pub struct Dtss {
    table: Table,
    domain_sizes: Vec<u32>,
    groups: Vec<Group>,
    cfg: DtssConfig,
    cache: RefCell<HashMap<u64, CachedResult>>,
}

/// One memoized query result. The digest key is a 64-bit hash, so the
/// entry keeps the query (and reference point) it was computed for and
/// every hit is verified structurally — a collision degrades to a miss
/// instead of replaying the wrong skyline.
#[derive(Debug, Clone)]
struct CachedResult {
    query: PoQuery,
    reference: Option<Vec<u32>>,
    records: Vec<u32>,
}

impl CachedResult {
    fn matches(&self, q: &PoQuery, reference: Option<&[u32]>) -> bool {
        self.query.same_structure(q) && self.reference.as_deref() == reference
    }
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
    /// True iff served from the query cache.
    pub from_cache: bool,
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
        let mut by_key: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
        for i in 0..table.len() {
            by_key
                .entry(table.po_row(i).to_vec())
                .or_default()
                .push(i as u32);
        }
        let cap = cfg
            .node_capacity
            .unwrap_or_else(|| cfg.page.capacity(table.to_dims()));
        // lint:allow(hash-iter): keys are sorted on the next line, so the group layout never sees the hasher's order
        let mut group_keys: Vec<Vec<u32>> = by_key.keys().cloned().collect();
        group_keys.sort_unstable(); // deterministic group layout
        let groups = group_keys
            .into_iter()
            .map(|key| {
                let records = by_key.remove(&key).unwrap();
                // Columnar group load: gather the members' TO rows into one
                // flat matrix, never materializing per-point rows.
                let mut coords = Vec::with_capacity(records.len() * table.to_dims());
                for &r in &records {
                    coords.extend_from_slice(table.to_row(r as usize));
                }
                let tree = RTree::bulk_load_flat(table.to_dims(), cap, &coords, &records);
                let local_skyline = cfg.precompute_local.then(|| {
                    let (mut sky, _) = skyline::bbs(&tree);
                    sky.sort_by_key(|&r| (skyline::monotone_sum(table.to_row(r as usize)), r));
                    tree.reset_io();
                    sky
                });
                tree.reset_io();
                Group {
                    key,
                    tree,
                    local_skyline,
                }
            })
            .collect();
        Ok(Dtss {
            table,
            domain_sizes,
            groups,
            cfg,
            cache: RefCell::new(HashMap::new()),
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

    /// Evaluates a dynamic skyline query.
    pub fn query(&self, q: &PoQuery) -> Result<DtssRun, CoreError> {
        self.query_inner(q, None, None)
    }

    /// Opens a pull-based cursor over a dynamic skyline query: groups are
    /// visited, dismissed and traversed lazily, one confirmation per
    /// [`next`](SkylineCursor::next) call, so a top-k consumer never touches
    /// groups ranked after its prefix.
    ///
    /// With [`DtssConfig::cache`] on, a digest hit replays the memoized
    /// result; only fully materialized [`Dtss::query`] runs populate that
    /// cache. The group trees' IO counters are shared, so open one cursor at
    /// a time if per-run IO metrics matter.
    pub fn query_cursor(&self, q: &PoQuery) -> Result<DtssCursor<'_>, CoreError> {
        self.cursor_inner(q, None, None)
    }

    /// Budgeted query: drives [`query_cursor`](Self::query_cursor) under
    /// a pair-check allowance — the full dynamic skyline when it fits,
    /// otherwise a *sound confirmed prefix* of it (see
    /// [`BudgetedCursor`](crate::BudgetedCursor)).
    pub fn query_budgeted(
        &self,
        q: &PoQuery,
        budget: crate::Budget,
    ) -> Result<crate::BudgetOutcome, CoreError> {
        Ok(crate::BudgetedCursor::run(self.query_cursor(q)?, budget))
    }

    /// Cursor variant of [`Dtss::query_fully_dynamic`].
    pub fn query_cursor_fully_dynamic(
        &self,
        q: &PoQuery,
        reference: &[u32],
    ) -> Result<DtssCursor<'_>, CoreError> {
        assert_eq!(
            reference.len(),
            self.table.to_dims(),
            "reference must name one ideal value per TO attribute"
        );
        self.cursor_inner(q, Some(reference), None)
    }

    /// Binds a query to this operator as a reusable [`SkylineEngine`]
    /// (validation happens here, so [`SkylineEngine::open`] cannot fail).
    pub fn engine(&self, query: PoQuery) -> Result<DtssQueryEngine<'_>, CoreError> {
        self.validate(&query)?;
        Ok(DtssQueryEngine { dtss: self, query })
    }

    /// Evaluates a **fully dynamic** skyline query (§V-B): besides the
    /// partial orders, the query names the *ideal value* of every TO
    /// attribute; TO dominance is taken on the folded coordinates
    /// `|x − reference|`. The precomputed local skylines are invalid under
    /// folding (the paper's observation), so this path always scans the
    /// group trees — best-first around the reference point.
    ///
    /// Reported skyline points carry their **original** TO coordinates.
    pub fn query_fully_dynamic(
        &self,
        q: &PoQuery,
        reference: &[u32],
    ) -> Result<DtssRun, CoreError> {
        assert_eq!(
            reference.len(),
            self.table.to_dims(),
            "reference must name one ideal value per TO attribute"
        );
        self.query_inner(q, Some(reference), None)
    }

    /// Validates a query's shape against the data-resident structures.
    fn validate(&self, q: &PoQuery) -> Result<(), CoreError> {
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

    /// Result-cache key: the query digest, salted with the reference point
    /// for fully dynamic queries.
    fn full_digest(q: &PoQuery, reference: Option<&[u32]>) -> u64 {
        let mut digest = q.digest();
        if let Some(r) = reference {
            let mut h = Fnv64::new();
            digest.hash(&mut h);
            r.hash(&mut h);
            digest = h.finish();
        }
        digest
    }

    /// Labels every query DAG from scratch (no session cache).
    fn prepare_fresh(&self, q: &PoQuery) -> PreparedDomains {
        PreparedDomains {
            domains: q.dags.iter().cloned().map(PoDomain::new).collect(),
            hits: 0,
            misses: q.dags.len() as u64,
        }
    }

    /// Shared query entry point. `prepare` runs lazily — a result-digest
    /// cache hit skips the labeling work entirely — and is `None` for plain
    /// (sessionless) queries, which label from scratch.
    pub(crate) fn query_inner(
        &self,
        q: &PoQuery,
        reference: Option<&[u32]>,
        prepare: Option<&mut dyn FnMut() -> PreparedDomains>,
    ) -> Result<DtssRun, CoreError> {
        self.validate(q)?;
        let digest = Self::full_digest(q, reference);
        if self.cfg.cache {
            if let Some(entry) = self.cache.borrow().get(&digest) {
                // Digest collisions (different query, same hash) fall
                // through to a fresh evaluation.
                if entry.matches(q, reference) {
                    let skyline = entry
                        .records
                        .iter()
                        .map(|&r| SkylinePoint {
                            record: r,
                            to: self.table.to_row(r as usize).to_vec(),
                            po: self.table.po_row(r as usize).to_vec(),
                        })
                        .collect::<Vec<_>>();
                    return Ok(DtssRun {
                        metrics: Metrics {
                            results: skyline.len() as u64,
                            ..Default::default()
                        },
                        skyline,
                        groups_skipped: 0,
                        groups_total: self.groups.len() as u64,
                        from_cache: true,
                    });
                }
            }
        }
        let prepared = match prepare {
            Some(f) => f(),
            None => self.prepare_fresh(q),
        };
        let mut cursor = DtssCursor::new_live(self, prepared, reference.map(<[u32]>::to_vec));
        let mut skyline = Vec::new();
        while let Some(p) = cursor.next() {
            skyline.push(p);
        }
        let run = DtssRun {
            metrics: cursor.metrics(),
            groups_skipped: cursor.groups_skipped(),
            groups_total: self.groups.len() as u64,
            from_cache: false,
            skyline,
        };
        if self.cfg.cache {
            // On a digest collision the slot's first owner is kept: the
            // colliding query simply stays uncached.
            self.cache
                .borrow_mut()
                .entry(digest)
                .or_insert_with(|| CachedResult {
                    query: q.clone(),
                    reference: reference.map(<[u32]>::to_vec),
                    records: run.skyline.iter().map(|p| p.record).collect(),
                });
        }
        Ok(run)
    }

    pub(crate) fn cursor_inner(
        &self,
        q: &PoQuery,
        reference: Option<&[u32]>,
        prepare: Option<&mut dyn FnMut() -> PreparedDomains>,
    ) -> Result<DtssCursor<'_>, CoreError> {
        self.validate(q)?;
        let digest = Self::full_digest(q, reference);
        if self.cfg.cache {
            if let Some(entry) = self.cache.borrow().get(&digest) {
                if entry.matches(q, reference) {
                    return Ok(DtssCursor::new_replay(self, entry.records.clone()));
                }
            }
        }
        let prepared = match prepare {
            Some(f) => f(),
            None => self.prepare_fresh(q),
        };
        Ok(DtssCursor::new_live(
            self,
            prepared,
            reference.map(<[u32]>::to_vec),
        ))
    }

    /// Emits a confirmed skyline point, updating all side structures.
    fn emit(
        record: RecordId,
        to: &[u32],
        sky: &mut SkyList,
        filtered: Option<&mut Vec<(u32, bool)>>,
        m: &mut Metrics,
    ) {
        if let Some(filtered) = filtered {
            // Same-key entry: can dominate later points of this group via TO.
            filtered.push((sky.len() as u32, false));
        }
        sky.push(record, to);
        m.results += 1;
    }

    /// Exact point check against the global skyline. Strict dominance never
    /// holds between exact duplicates, so every copy of a skyline point is
    /// confirmed on its own.
    fn point_dominated(
        &self,
        to: &[u32],
        key: &[u32],
        domains: &[PoDomain],
        sky: &SkyList,
        filtered: Option<&[(u32, bool)]>,
        m: &mut Metrics,
    ) -> bool {
        if let Some(filtered) = filtered {
            // Same-key group: PO strictness was decided once per group, the
            // remaining comparison is the TO-only strictness kernel.
            let (hit, examined) = sky.folded.dominated_with_strictness(filtered, to);
            m.batch(examined);
            return hit;
        }
        let (hit, examined) = sky.t_dominated(domains, &self.table, to, key);
        m.batch(examined);
        hit
    }

    /// Sound subtree check: the group's PO values are fixed, so only the TO
    /// corner varies. A global entry `s` prunes the subtree iff `s.to` is at
    /// most the corner on every dimension and either `s` is PO-strictly
    /// better or `s.to` differs from the corner (the corner-equality
    /// argument of `skyline::bbs`, extended with PO strictness).
    fn node_dominated(
        &self,
        corner: &[u32],
        key: &[u32],
        domains: &[PoDomain],
        sky: &SkyList,
        filtered: Option<&[(u32, bool)]>,
        m: &mut Metrics,
    ) -> bool {
        if let Some(filtered) = filtered {
            let (hit, examined) = sky.folded.dominated_with_strictness(filtered, corner);
            m.batch(examined);
            return hit;
        }
        let (hit, examined) = sky.node_dominated(domains, &self.table, corner, key);
        m.batch(examined);
        hit
    }
}

/// The cursor's working skyline, columnar: record ids and the *folded* TO
/// coordinates (the dominance space) — PO values are fetched from the store
/// by id, and no per-point rows or owned key tuples exist anywhere.
struct SkyList {
    ids: Vec<RecordId>,
    /// Folded TO coordinates, parallel to `ids` (stride = `|TO|`).
    folded: PointBlock,
}

impl SkyList {
    fn new(to_dims: usize, kernel: skyline::Kernel) -> Self {
        SkyList {
            ids: Vec::new(),
            folded: PointBlock::new(to_dims.max(1)).with_kernel(kernel),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn push(&mut self, record: RecordId, folded_to: &[u32]) {
        self.ids.push(record);
        self.folded.push(folded_to);
    }

    /// Batched exact t-dominance of the whole list over one candidate
    /// (folded TO coordinates, PO values from the store).
    fn t_dominated(
        &self,
        domains: &[PoDomain],
        table: &Table,
        cand_to: &[u32],
        cand_po: &[u32],
    ) -> (bool, u64) {
        let mut examined = 0u64;
        for (pos, &r) in self.ids.iter().enumerate() {
            examined += 1;
            if t_dominates(
                domains,
                self.folded.point(pos),
                table.po(r),
                cand_to,
                cand_po,
            ) {
                return (true, examined);
            }
        }
        (false, examined)
    }

    /// Shared corner kernel: some entry has `s.to <= corner` everywhere,
    /// its PO values at-least-as-good on the group key, and — when
    /// `exclude_ties` — is not an exact tie on both parts.
    fn corner_dominated(
        &self,
        domains: &[PoDomain],
        table: &Table,
        corner: &[u32],
        key: &[u32],
        exclude_ties: bool,
    ) -> (bool, u64) {
        let mut examined = 0u64;
        for (pos, &r) in self.ids.iter().enumerate() {
            examined += 1;
            let s_to = self.folded.point(pos);
            let mut le = true;
            for (&a, &b) in s_to.iter().zip(corner.iter()) {
                le &= a <= b;
            }
            if !le {
                continue;
            }
            let s_po = table.po(r);
            if key
                .iter()
                .enumerate()
                .all(|(d, &kv)| domains[d].pref_or_equal(s_po[d], kv))
                && (!exclude_ties || s_po != key || s_to != corner)
            {
                return (true, examined);
            }
        }
        (false, examined)
    }

    /// Batched subtree check (see [`Dtss::node_dominated`]): the corner
    /// kernel with the tie exclusion that keeps exact duplicates alive.
    fn node_dominated(
        &self,
        domains: &[PoDomain],
        table: &Table,
        corner: &[u32],
        key: &[u32],
    ) -> (bool, u64) {
        self.corner_dominated(domains, table, corner, key, true)
    }

    /// Batched group-dismissal check: like [`Self::node_dominated`] but
    /// without the tie exclusion (the paper's root-corner test).
    fn group_dismissed(
        &self,
        domains: &[PoDomain],
        table: &Table,
        corner: &[u32],
        key: &[u32],
    ) -> (bool, u64) {
        self.corner_dominated(domains, table, corner, key, false)
    }

    /// Per-group dominator prefilter ([`DtssConfig::filter_dominators`]):
    /// positions of skyline entries whose PO values can dominate the group
    /// `key`, paired with their PO strictness — the input of the
    /// strictness-precomputed TO kernel. One dominance check per entry.
    fn filter_dominators(
        &self,
        domains: &[PoDomain],
        table: &Table,
        key: &[u32],
        m: &mut Metrics,
    ) -> Vec<(u32, bool)> {
        self.ids
            .iter()
            .enumerate()
            .filter_map(|(pos, &r)| {
                m.dominance_checks += 1;
                let s_po = table.po(r);
                let ok = key
                    .iter()
                    .enumerate()
                    .all(|(d, &kv)| domains[d].pref_or_equal(s_po[d], kv));
                ok.then(|| (pos as u32, s_po != key))
            })
            .collect()
    }
}

/// Per-query labelings handed to the executor, with the session-cache
/// accounting that produced them.
pub(crate) struct PreparedDomains {
    pub(crate) domains: Vec<PoDomain>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// A [`Dtss`] operator bound to one [`PoQuery`] — the [`SkylineEngine`]
/// view of a dynamic skyline query. Built by [`Dtss::engine`], which
/// validates the query so [`open`](SkylineEngine::open) cannot fail.
pub struct DtssQueryEngine<'a> {
    dtss: &'a Dtss,
    query: PoQuery,
}

impl DtssQueryEngine<'_> {
    /// The bound query.
    pub fn query(&self) -> &PoQuery {
        &self.query
    }
}

impl SkylineEngine for DtssQueryEngine<'_> {
    fn name(&self) -> &str {
        "dTSS"
    }

    fn open(&self) -> Box<dyn SkylineCursor + '_> {
        Box::new(
            self.dtss
                .query_cursor(&self.query)
                .expect("query validated at engine construction"),
        )
    }
}

/// Where the cursor currently stands in the group-at-a-time walk.
enum DtssPhase<'a> {
    /// Pick (and possibly dismiss) the next group in ordinal-rank order.
    NextGroup,
    /// Iterating a precomputed local skyline (§V-B).
    Local {
        gi: usize,
        filtered: Option<Vec<(u32, bool)>>,
        ix: usize,
    },
    /// Best-first traversal of a group's TO R-tree.
    Tree {
        gi: usize,
        filtered: Option<Vec<(u32, bool)>>,
        bf: BestFirst<'a>,
    },
    /// Replaying a digest-cache hit.
    Replay(VecDeque<SkylinePoint>),
    Done,
}

/// Pull-based dTSS executor: the §V-A group walk as an explicit-state
/// iterator. Groups are ranked, dismissed and traversed lazily — a consumer
/// that stops after `k` results never reads the trees of later groups.
///
/// Yielded points always carry their **original** TO coordinates, also for
/// fully dynamic (folded) queries.
///
/// Unlike sTSS, the walk needs no duplicate-completion pass: node checks
/// exclude exact ties, the prefiltered kernel needs strictness, and a
/// group's dismissal check runs before any of its own members is
/// confirmed, so no check ever drops an exact copy of a skyline point.
pub struct DtssCursor<'a> {
    dtss: &'a Dtss,
    /// Per-query labelings (owned: possibly cloned out of a session cache).
    domains: Vec<PoDomain>,
    reference: Option<Vec<u32>>,
    /// Group visit order by ascending ordinal-sum rank.
    order: Vec<usize>,
    order_ix: usize,
    start: Instant,
    m: Metrics,
    /// Working skyline in *folded* coordinates (the dominance space):
    /// record ids plus a columnar folded-TO block.
    sky: SkyList,
    /// Reused buffer for folded candidate coordinates (fully dynamic
    /// queries fold every popped point; plain queries never touch this).
    fold_scratch: Vec<u32>,
    groups_skipped: u64,
    phase: DtssPhase<'a>,
    last_sample: ProgressSample,
    from_cache: bool,
    finished: bool,
}

impl<'a> DtssCursor<'a> {
    fn new_live(dtss: &'a Dtss, prepared: PreparedDomains, reference: Option<Vec<u32>>) -> Self {
        // lint:allow(time-source): Metrics.cpu timing site — cursor wall clock
        let start = Instant::now();
        let to_dims = dtss.table.to_dims();
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
        m.io_reads += dtss
            .cfg
            .page
            .data_pages(dtss.groups.len(), dtss.domain_sizes.len() + 2 * to_dims);
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
            sky: SkyList::new(to_dims, dtss.table.kernel()),
            fold_scratch: Vec::new(),
            groups_skipped: 0,
            phase: DtssPhase::NextGroup,
            last_sample: ProgressSample::default(),
            from_cache: false,
            finished: false,
        }
    }

    fn new_replay(dtss: &'a Dtss, records: Vec<u32>) -> Self {
        let queue = records
            .into_iter()
            .map(|r| SkylinePoint {
                record: r,
                to: dtss.table.to_row(r as usize).to_vec(),
                po: dtss.table.po_row(r as usize).to_vec(),
            })
            .collect();
        DtssCursor {
            dtss,
            domains: Vec::new(),
            reference: None,
            order: Vec::new(),
            order_ix: 0,
            // lint:allow(time-source): Metrics.cpu timing site — replay-cursor wall clock
            start: Instant::now(),
            m: Metrics::default(),
            sky: SkyList::new(dtss.table.to_dims(), dtss.table.kernel()),
            fold_scratch: Vec::new(),
            groups_skipped: 0,
            phase: DtssPhase::Replay(queue),
            last_sample: ProgressSample::default(),
            from_cache: true,
            finished: true, // replay: metrics are final from the start
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

    /// True iff this cursor replays a digest-cache hit.
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// The owned point handed to the caller: original TO coordinates.
    fn yielded(&self, record: u32) -> SkylinePoint {
        SkylinePoint {
            record,
            to: self.dtss.table.to_row(record as usize).to_vec(),
            po: self.dtss.table.po_row(record as usize).to_vec(),
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

    /// Sets up the next group: dismissal check, prefilter, and the phase
    /// that will stream its points. Returns the new phase, or `None` when
    /// the group was dismissed.
    fn enter_group(&mut self, gi: usize) -> Option<DtssPhase<'a>> {
        let dtss = self.dtss;
        let group = &dtss.groups[gi];
        let key = &group.key;
        // Dismissal check against the current skyline.
        let corner = group.root_corner(self.reference.as_deref());
        let (dominated, examined) =
            self.sky
                .group_dismissed(&self.domains, &dtss.table, &corner, key);
        self.m.batch(examined);
        if dominated {
            self.groups_skipped += 1;
            return None;
        }

        // Optional per-group dominator prefilter: global entries whose PO
        // values can dominate this key, with their PO strictness. The
        // surviving positions feed the strictness-precomputed TO kernel.
        let filtered: Option<Vec<(u32, bool)>> = dtss.cfg.filter_dominators.then(|| {
            self.sky
                .filter_dominators(&self.domains, &dtss.table, key, &mut self.m)
        });

        // Local skylines are computed under origin-anchored dominance and
        // are invalid for folded queries (§V-B).
        if let (Some(local), None) = (group.local_skyline.as_ref(), self.reference.as_ref()) {
            // §V-B: only local skyline points can be global results.
            // Charge the pages of the stored local-skyline file.
            self.m.io_reads += dtss
                .cfg
                .page
                .data_pages(local.len(), dtss.table.to_dims() + key.len());
            return Some(DtssPhase::Local {
                gi,
                filtered,
                ix: 0,
            });
        }
        group.tree.reset_io();
        let bf = group.tree.best_first_from(self.reference.as_deref());
        Some(DtssPhase::Tree { gi, filtered, bf })
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
                DtssPhase::Replay(mut queue) => {
                    let sp = queue.pop_front()?;
                    self.m.results += 1;
                    self.take_sample(0);
                    self.phase = DtssPhase::Replay(queue);
                    return Some(sp);
                }
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
                DtssPhase::Local {
                    gi,
                    mut filtered,
                    mut ix,
                } => {
                    let dtss = self.dtss;
                    let group = &dtss.groups[gi];
                    let local = group
                        .local_skyline
                        .as_ref()
                        .expect("Local phase requires precomputed skylines");
                    while let Some(&r) = local.get(ix) {
                        ix += 1;
                        let to = dtss.table.to(r);
                        if !dtss.point_dominated(
                            to,
                            &group.key,
                            &self.domains,
                            &self.sky,
                            filtered.as_deref(),
                            &mut self.m,
                        ) {
                            Dtss::emit(r, to, &mut self.sky, filtered.as_mut(), &mut self.m);
                            self.take_sample(0);
                            self.phase = DtssPhase::Local { gi, filtered, ix };
                            return Some(self.yielded(r));
                        }
                    }
                    self.phase = DtssPhase::NextGroup;
                }
                DtssPhase::Tree {
                    gi,
                    mut filtered,
                    mut bf,
                } => {
                    let dtss = self.dtss;
                    let group = &dtss.groups[gi];
                    let key = &group.key;
                    while let Some(popped) = bf.pop() {
                        self.m.heap_pops += 1;
                        match popped {
                            Popped::Node { id, mbb, .. } => {
                                // Borrow the corner straight off the MBB in
                                // the common (origin-anchored) case.
                                let folded_corner;
                                let corner: &[u32] = match &self.reference {
                                    None => mbb.lo(),
                                    Some(r) => {
                                        folded_corner = mbb.folded_corner(r);
                                        &folded_corner
                                    }
                                };
                                if !dtss.node_dominated(
                                    corner,
                                    key,
                                    &self.domains,
                                    &self.sky,
                                    filtered.as_deref(),
                                    &mut self.m,
                                ) {
                                    bf.expand(id);
                                }
                            }
                            Popped::Record { point, record, .. } => {
                                // Fold into the reused scratch; the common
                                // (origin-anchored) query reads the popped
                                // slice directly — no per-record rows.
                                let folded: &[u32] = match &self.reference {
                                    None => point,
                                    Some(r) => {
                                        self.fold_scratch.clear();
                                        self.fold_scratch.extend(
                                            point
                                                .iter()
                                                .zip(r.iter())
                                                .map(|(&a, &b)| a.abs_diff(b)),
                                        );
                                        &self.fold_scratch
                                    }
                                };
                                if !dtss.point_dominated(
                                    folded,
                                    key,
                                    &self.domains,
                                    &self.sky,
                                    filtered.as_deref(),
                                    &mut self.m,
                                ) {
                                    Dtss::emit(
                                        record,
                                        folded,
                                        &mut self.sky,
                                        filtered.as_mut(),
                                        &mut self.m,
                                    );
                                    self.take_sample(group.tree.io_count());
                                    self.phase = DtssPhase::Tree { gi, filtered, bf };
                                    return Some(self.yielded(record));
                                }
                            }
                        }
                    }
                    self.m.io_reads += group.tree.io_count();
                    self.phase = DtssPhase::NextGroup;
                }
            }
        }
    }

    fn metrics(&self) -> Metrics {
        let mut m = self.m;
        if !self.finished {
            if let DtssPhase::Tree { gi, .. } = &self.phase {
                m.io_reads += self.dtss.groups[*gi].tree.io_count();
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
    use crate::dominance::brute_force_po_skyline;
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

    fn configs() -> Vec<DtssConfig> {
        vec![
            DtssConfig::default(),
            DtssConfig {
                precompute_local: true,
                ..Default::default()
            },
            DtssConfig {
                filter_dominators: true,
                ..Default::default()
            },
            DtssConfig {
                precompute_local: true,
                filter_dominators: true,
                ..Default::default()
            },
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
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let run = dtss.query(&PoQuery::new(vec![order_a_c_over_b()])).unwrap();
        let recs = run.skyline_records();
        let pos = |r: u32| recs.iter().position(|&x| x == r).unwrap();
        for a_rec in [0u32, 1] {
            for c_rec in [6u32, 7, 9] {
                assert!(pos(a_rec) < pos(c_rec), "Ga before Gc: {recs:?}");
            }
        }
    }

    #[test]
    fn cache_round_trip() {
        let cfg = DtssConfig {
            cache: true,
            ..Default::default()
        };
        let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
        let q = PoQuery::new(vec![order_b_over_c()]);
        let first = dtss.query(&q).unwrap();
        assert!(!first.from_cache);
        let second = dtss.query(&q).unwrap();
        assert!(second.from_cache);
        assert_eq!(first.skyline_records(), second.skyline_records());
        assert_eq!(second.metrics.io_reads, 0);
        // A different order is a cache miss.
        let third = dtss.query(&PoQuery::new(vec![order_a_c_over_b()])).unwrap();
        assert!(!third.from_cache);
    }

    #[test]
    fn digest_collision_is_not_served_from_the_cache() {
        // Forge a collision: plant a different query's result under the
        // digest of the one we are about to run. A key-only cache would
        // replay the wrong skyline; the structural guard must evaluate
        // afresh and leave the forged entry in place (first owner wins).
        let cfg = DtssConfig {
            cache: true,
            ..Default::default()
        };
        let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
        let q = PoQuery::new(vec![order_b_over_c()]);
        let wrong_q = PoQuery::new(vec![order_a_c_over_b()]);
        assert!(!q.same_structure(&wrong_q));
        let wrong_records = dtss.query(&wrong_q).unwrap().skyline_records();
        let digest = Dtss::full_digest(&q, None);
        dtss.cache.borrow_mut().insert(
            digest,
            CachedResult {
                query: wrong_q.clone(),
                reference: None,
                records: wrong_records.clone(),
            },
        );

        let run = dtss.query(&q).unwrap();
        assert!(!run.from_cache, "collision must not replay");
        let mut got = run.skyline_records();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 4, 5]);
        // Cursor path takes the same guard.
        let mut c = dtss.query_cursor(&q).unwrap();
        assert!(!c.from_cache());
        let mut pulled = Vec::new();
        while let Some(p) = c.next() {
            pulled.push(p.record);
        }
        pulled.sort_unstable();
        assert_eq!(pulled, vec![0, 1, 4, 5]);
        // First owner keeps the slot; the forged entry is still there.
        assert!(dtss.cache.borrow()[&digest].query.same_structure(&wrong_q));
        // The *reference point* is part of the verified identity too.
        let folded = dtss.query_fully_dynamic(&q, &[3, 3]).unwrap();
        assert!(!folded.from_cache);
        let replay = dtss.query_fully_dynamic(&q, &[3, 3]).unwrap();
        assert!(replay.from_cache);
        assert_eq!(folded.skyline_records(), replay.skyline_records());
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
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let run = dtss.query(&PoQuery::new(vec![empty.clone()])).unwrap();
        let domains = vec![PoDomain::new(empty)];
        let mut expect = brute_force_po_skyline(&domains, &fig5_table());
        expect.sort_unstable();
        let mut got = run.skyline_records();
        got.sort_unstable();
        assert_eq!(got, expect);
        assert_eq!(run.groups_skipped, 0);
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
    /// coordinates plus the query partial order.
    fn folded_oracle(t: &Table, dag: &poset::Dag, reference: &[u32]) -> Vec<u32> {
        let doms = vec![PoDomain::new(dag.clone())];
        let fold = |row: &[u32]| -> Vec<u32> {
            row.iter()
                .zip(reference.iter())
                .map(|(&a, &b)| a.abs_diff(b))
                .collect()
        };
        (0..t.len())
            .filter(|&i| {
                !(0..t.len()).any(|j| {
                    j != i
                        && crate::dominance::t_dominates(
                            &doms,
                            &fold(t.to_row(j)),
                            t.po_row(j),
                            &fold(t.to_row(i)),
                            t.po_row(i),
                        )
                })
            })
            .map(|i| i as u32)
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
                    let run = dtss
                        .query_fully_dynamic(&PoQuery::new(vec![dag.clone()]), r)
                        .unwrap();
                    let mut got = run.skyline_records();
                    got.sort_unstable();
                    let mut expect = folded_oracle(&fig5_table(), &dag, r);
                    expect.sort_unstable();
                    assert_eq!(got, expect, "cfg={cfg:?} ref={r:?}");
                    // Reported coordinates are the originals.
                    for p in &run.skyline {
                        assert_eq!(p.to, fig5_table().to_row(p.record as usize));
                    }
                }
            }
        }
    }

    #[test]
    fn fully_dynamic_at_origin_equals_plain_query() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let q = PoQuery::new(vec![order_b_over_c()]);
        let plain = dtss.query(&q).unwrap();
        let folded = dtss.query_fully_dynamic(&q, &[0, 0]).unwrap();
        assert_eq!(plain.skyline_records(), folded.skyline_records());
    }

    #[test]
    fn fully_dynamic_cache_keys_include_reference() {
        let cfg = DtssConfig {
            cache: true,
            ..Default::default()
        };
        let dtss = Dtss::build(fig5_table(), vec![3], cfg).unwrap();
        let q = PoQuery::new(vec![order_b_over_c()]);
        let a = dtss.query_fully_dynamic(&q, &[3, 3]).unwrap();
        assert!(!a.from_cache);
        let b = dtss.query_fully_dynamic(&q, &[3, 3]).unwrap();
        assert!(b.from_cache);
        assert_eq!(a.skyline_records(), b.skyline_records());
        // Same order, different reference: a miss.
        let c = dtss.query_fully_dynamic(&q, &[4, 4]).unwrap();
        assert!(!c.from_cache);
        // And the plain query is yet another key.
        let d = dtss.query(&q).unwrap();
        assert!(!d.from_cache);
    }

    #[test]
    #[should_panic(expected = "one ideal value per TO attribute")]
    fn fully_dynamic_rejects_bad_reference() {
        let dtss = Dtss::build(fig5_table(), vec![3], DtssConfig::default()).unwrap();
        let _ = dtss.query_fully_dynamic(&PoQuery::new(vec![order_b_over_c()]), &[1]);
    }

    proptest! {

        #![proptest_config(ProptestConfig::with_cases(24))]
        /// dTSS equals the oracle for random tables and random query orders,
        /// across configurations, plain or fully dynamic around a random
        /// reference point. Small value ranges make exact duplicates, in
        /// plain and in folded coordinates, common.
        #[test]
        fn equals_oracle(
            rows in proptest::collection::vec((0u32..10, 0u32..10, 0u32..5), 1..60),
            edge_mask in 0u32..1024,
            cfg_ix in 0usize..configs().len(),
            reference in (proptest::bool::ANY, 0u32..10, 0u32..10)
                .prop_map(|(some, a, b)| some.then_some([a, b])),
        ) {
            let mut t = Table::new(2, 1);
            for &(a, b, v) in &rows {
                t.push(&[a, b], &[v]);
            }
            // Random partial order over 5 values from the mask (forward
            // edges only -> acyclic).
            let mut edges = Vec::new();
            let mut bit = 0;
            for i in 0..5u32 {
                for j in (i + 1)..5u32 {
                    if edge_mask >> bit & 1 == 1 {
                        edges.push((i, j));
                    }
                    bit += 1;
                }
            }
            let dag = poset::Dag::from_edges(5, &edges).unwrap();
            let mut expect = match &reference {
                None => brute_force_po_skyline(&[PoDomain::new(dag.clone())], &t),
                Some(r) => folded_oracle(&t, &dag, r),
            };
            expect.sort_unstable();
            let cfg = configs()[cfg_ix];
            let dtss = Dtss::build(t, vec![5], cfg).unwrap();
            let q = PoQuery::new(vec![dag]);
            let run = match &reference {
                None => dtss.query(&q).unwrap(),
                Some(r) => dtss.query_fully_dynamic(&q, r).unwrap(),
            };
            let mut got = run.skyline_records();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
