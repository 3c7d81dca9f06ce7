use crate::engine::{SdcCursor, SdcRun};
use crate::MdContext;
use poset::Dag;
use rtree::RTree;
use tss_core::{CoreError, SkylineCursor, Table};

/// Which baseline algorithm to run (§II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// One stratum, cross-examination on insertion, output at termination.
    BbsPlus,
    /// Two strata: completely covered (exact, progressive) vs. the rest.
    Sdc,
    /// One stratum per uncovered level, each in its own R-tree.
    SdcPlus,
}

/// Configuration shared by the SDC family.
#[derive(Debug, Clone, Copy, Default)]
pub struct SdcConfig {
    /// Explicit node capacity override (else derived from the default page
    /// model, see [`tss_core::node_capacity`]).
    pub node_capacity: Option<usize>,
}

/// One stratum: its records live in their own R-tree over the transformed
/// space; `exact` marks strata where m-dominance is exact (level 0).
#[derive(Debug)]
pub(crate) struct Stratum {
    pub tree: RTree,
    pub exact: bool,
}

/// A built SDC-family index, runnable any number of times.
#[derive(Debug)]
pub struct SdcIndex {
    pub(crate) table: Table,
    pub(crate) ctx: MdContext,
    pub(crate) strata: Vec<Stratum>,
    variant: Variant,
}

impl SdcIndex {
    /// Transforms, stratifies and bulk-loads the table.
    pub fn build(
        table: Table,
        dags: Vec<Dag>,
        variant: Variant,
        cfg: SdcConfig,
    ) -> Result<Self, CoreError> {
        let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
        table.check_domains(&sizes)?;
        let ctx = MdContext::new(&dags, table.to_dims());
        let dims = ctx.transformed_dims();
        if dims == 0 {
            return Err(CoreError::NoDimensions);
        }
        let cap = tss_core::node_capacity(cfg.node_capacity, dims)?;

        // Partition records into strata per the variant.
        let stratum_of = |po: &[u32]| -> usize {
            match variant {
                Variant::BbsPlus => 0,
                Variant::Sdc => usize::from(!ctx.completely_covered(po)),
                Variant::SdcPlus => ctx.stratum(po) as usize,
            }
        };
        let n_strata = match variant {
            Variant::BbsPlus => 1,
            Variant::Sdc => 2,
            Variant::SdcPlus => ctx.max_stratum() as usize + 1,
        };
        // Columnar strata: one flat transformed-coordinate matrix plus a
        // record-id vector per stratum — no per-point rows on the way to
        // the bulk loader.
        let mut coords: Vec<Vec<u32>> = vec![Vec::new(); n_strata];
        let mut records: Vec<Vec<u32>> = vec![Vec::new(); n_strata];
        for i in 0..table.len() {
            let s = stratum_of(table.po_row(i));
            ctx.transform_into(table.to_row(i), table.po_row(i), &mut coords[s]);
            records[s].push(i as u32);
        }
        let strata = coords
            .into_iter()
            .zip(records)
            .enumerate()
            .filter(|(_, (_, recs))| !recs.is_empty())
            .map(|(level, (flat, recs))| Stratum {
                tree: RTree::bulk_load_flat(dims, cap, &flat, &recs),
                // m-dominance is exact among completely covered points; for
                // BBS+ a "stratum 0" mixes levels, so it is never exact.
                exact: level == 0 && variant != Variant::BbsPlus,
            })
            .collect();
        Ok(SdcIndex {
            table,
            ctx,
            strata,
            variant,
        })
    }

    /// The algorithm variant.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Number of non-empty strata.
    pub fn strata_count(&self) -> usize {
        self.strata.len()
    }

    /// The input table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Total R-tree pages across strata (for the rebuild IO model).
    pub fn index_pages(&self) -> u64 {
        self.strata.iter().map(|s| s.tree.node_count() as u64).sum()
    }

    /// Opens a pull-based, stratum-at-a-time cursor (see [`SdcCursor`]):
    /// strata are processed lazily as the stream reaches them, so stopping
    /// after `k` results leaves the remaining strata's R-trees untouched.
    pub fn cursor(&self) -> SdcCursor<'_> {
        SdcCursor::new(self)
    }

    /// Runs the algorithm: drains a fresh [`cursor`](Self::cursor) into the
    /// skyline's record ids, its metrics and its per-stratum counts.
    pub fn run(&self) -> SdcRun {
        let mut c = self.cursor();
        let skyline = std::iter::from_fn(|| c.next()).map(|p| p.record).collect();
        SdcRun {
            skyline,
            metrics: c.metrics(),
            per_stratum: c.per_stratum().to_vec(),
            false_hits_removed: c.false_hits_removed(),
        }
    }
}
