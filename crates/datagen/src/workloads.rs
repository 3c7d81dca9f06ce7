//! The experiment parameter grid of Table III, with the paper's default
//! settings for the static (§VI-B) and dynamic (§VI-C) studies.

use crate::{gen_po_matrix, gen_to_matrix, Distribution, TupleConfig};
use poset::generator::{subset_lattice, LatticeParams};
use poset::Dag;

/// The paper fixes every totally ordered domain to 10 000 values.
pub const PAPER_TO_DOMAIN: u32 = 10_000;

/// One experiment setting: the full parameter vector of Table III.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Data cardinality `N`.
    pub n: usize,
    /// Number of totally ordered attributes `|TO|`.
    pub to_dims: usize,
    /// Number of partially ordered attributes `|PO|`.
    pub po_dims: usize,
    /// DAG height `h` (subset-lattice object count).
    pub dag_height: u32,
    /// DAG density `d`.
    pub dag_density: f64,
    /// Tuple distribution.
    pub dist: Distribution,
    /// Totally ordered domain size.
    pub to_domain: u32,
    /// Master seed; per-component seeds are derived from it.
    pub seed: u64,
}

impl ExperimentParams {
    /// §VI-B defaults: `N = 1M, |TO| = 2, |PO| = 2, h = 8, d = 0.8`.
    pub fn paper_static_default(dist: Distribution, seed: u64) -> Self {
        ExperimentParams {
            n: 1_000_000,
            to_dims: 2,
            po_dims: 2,
            dag_height: 8,
            dag_density: 0.8,
            dist,
            to_domain: PAPER_TO_DOMAIN,
            seed,
        }
    }

    /// §VI-C defaults: `N = 1M, |TO| = 3, |PO| = 1, h = 6, d = 0.8`.
    pub fn paper_dynamic_default(dist: Distribution, seed: u64) -> Self {
        ExperimentParams {
            n: 1_000_000,
            to_dims: 3,
            po_dims: 1,
            dag_height: 6,
            dag_density: 0.8,
            dist,
            to_domain: PAPER_TO_DOMAIN,
            seed,
        }
    }

    /// Builds one DAG per PO attribute (independent lattice samples with
    /// per-attribute derived seeds).
    pub fn build_dags(&self) -> Vec<Dag> {
        (0..self.po_dims)
            .map(|d| {
                subset_lattice(LatticeParams {
                    height: self.dag_height,
                    density: self.dag_density,
                    seed: self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(d as u64),
                })
                .expect("height within bounds")
            })
            .collect()
    }

    /// Generates the totally ordered coordinate matrix (`n × to_dims`,
    /// row-major).
    pub fn gen_to(&self) -> Vec<u32> {
        gen_to_matrix(TupleConfig {
            n: self.n,
            dims: self.to_dims,
            domain: self.to_domain,
            dist: self.dist,
            seed: self.seed,
        })
    }

    /// Generates the PO value-id matrix (`n × po_dims`, row-major) for the
    /// given per-attribute domains.
    pub fn gen_po(&self, dags: &[Dag]) -> Vec<u32> {
        assert_eq!(dags.len(), self.po_dims);
        let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
        gen_po_matrix(self.n, &sizes, self.seed.wrapping_add(0xDA7A))
    }

    /// Materializes the whole workload straight into the columnar
    /// [`PointStore`](tss_core::PointStore): the generated flat TO/PO
    /// matrices are wrapped zero-copy, so the tuples never exist as
    /// per-point rows on the way to the engines.
    pub fn materialize(&self) -> (tss_core::PointStore, Vec<Dag>) {
        let dags = self.build_dags();
        let to = self.gen_to();
        let po = self.gen_po(&dags);
        let store = tss_core::PointStore::from_parts(self.to_dims, self.po_dims, to, po)
            .expect("generator emits well-shaped matrices");
        (store, dags)
    }

    /// The Table III sweep values for data cardinality.
    pub const CARDINALITIES: [usize; 5] = [100_000, 500_000, 1_000_000, 5_000_000, 10_000_000];
    /// The Table III sweep values for `(|TO|, |PO|)`.
    pub const DIMENSIONALITIES: [(usize, usize); 6] =
        [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)];
    /// The Table III sweep values for DAG height.
    pub const HEIGHTS: [u32; 5] = [2, 4, 6, 8, 10];
    /// The Table III sweep values for DAG density.
    pub const DENSITIES: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let s = ExperimentParams::paper_static_default(Distribution::Independent, 1);
        assert_eq!(
            (s.n, s.to_dims, s.po_dims, s.dag_height, s.dag_density),
            (1_000_000, 2, 2, 8, 0.8)
        );
        let d = ExperimentParams::paper_dynamic_default(Distribution::AntiCorrelated, 1);
        assert_eq!(
            (d.n, d.to_dims, d.po_dims, d.dag_height, d.dag_density),
            (1_000_000, 3, 1, 6, 0.8)
        );
    }

    #[test]
    fn generates_consistent_shapes() {
        let mut p = ExperimentParams::paper_static_default(Distribution::Independent, 7);
        p.n = 1000; // scaled down for the test
        let dags = p.build_dags();
        assert_eq!(dags.len(), 2);
        // h=8, d=0.8: around 205 nodes each.
        for dag in &dags {
            assert!((170..=256).contains(&dag.len()), "|V| = {}", dag.len());
        }
        let to = p.gen_to();
        let po = p.gen_po(&dags);
        assert_eq!(to.len(), 1000 * 2);
        assert_eq!(po.len(), 1000 * 2);
        for (i, row) in po.chunks(2).enumerate() {
            assert!(row[0] < dags[0].len() as u32, "row {i}");
            assert!(row[1] < dags[1].len() as u32, "row {i}");
        }
    }

    #[test]
    fn per_attribute_dags_differ() {
        let mut p = ExperimentParams::paper_static_default(Distribution::Independent, 3);
        p.n = 10;
        let dags = p.build_dags();
        // Different derived seeds: overwhelmingly different node samples.
        assert_ne!(
            dags[0]
                .values()
                .map(|v| dags[0].label(v).to_string())
                .collect::<Vec<_>>(),
            dags[1]
                .values()
                .map(|v| dags[1].label(v).to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn sweep_constants_match_paper() {
        assert_eq!(ExperimentParams::CARDINALITIES[2], 1_000_000);
        assert_eq!(ExperimentParams::DIMENSIONALITIES.len(), 6);
        assert_eq!(ExperimentParams::HEIGHTS, [2, 4, 6, 8, 10]);
        assert_eq!(ExperimentParams::DENSITIES.len(), 5);
    }
}
