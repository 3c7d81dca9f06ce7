//! Experiment scales: the paper's Table III grid, plus laptop-sized
//! defaults so `harness all` finishes in minutes.

use datagen::{Distribution, ExperimentParams};
use tss_core::DtssConfig;

/// True iff `TSS_FULL_SCALE=1` — restores the paper's exact Table III
/// sweeps (hours of runtime, multi-GB resident data at N = 10M).
pub fn full_scale() -> bool {
    std::env::var("TSS_FULL_SCALE").is_ok_and(|v| v == "1")
}

/// Cardinality sweep (Fig. 7 / Fig. 12).
pub fn cardinalities() -> Vec<usize> {
    if full_scale() {
        ExperimentParams::CARDINALITIES.to_vec()
    } else {
        vec![20_000, 50_000, 100_000, 200_000]
    }
}

/// Default cardinality for non-cardinality sweeps (paper: 1M).
pub fn default_n() -> usize {
    if full_scale() {
        1_000_000
    } else {
        50_000
    }
}

/// Cardinality for the progressiveness study (Fig. 11).
pub fn progressive_n() -> usize {
    if full_scale() {
        1_000_000
    } else {
        100_000
    }
}

/// Dimensionality grid (Fig. 8 / Fig. 13): `(|TO|, |PO|)`.
pub fn dimensionalities() -> Vec<(usize, usize)> {
    ExperimentParams::DIMENSIONALITIES.to_vec()
}

/// DAG height sweep (Fig. 9 / Fig. 14(a)).
pub fn heights() -> Vec<u32> {
    ExperimentParams::HEIGHTS.to_vec()
}

/// DAG density sweep (Fig. 10 / Fig. 14(b)).
pub fn densities() -> Vec<f64> {
    ExperimentParams::DENSITIES.to_vec()
}

/// The paper's static defaults at the chosen scale.
pub fn static_params(dist: Distribution, seed: u64) -> ExperimentParams {
    let mut p = ExperimentParams::paper_static_default(dist, seed);
    p.n = default_n();
    p
}

/// The paper's dynamic defaults at the chosen scale.
pub fn dynamic_params(dist: Distribution, seed: u64) -> ExperimentParams {
    let mut p = ExperimentParams::paper_dynamic_default(dist, seed);
    p.n = default_n();
    p
}

/// The dTSS configuration of the paper's experiments (§VI-C: "no
/// buffers, global main memory R-tree, pre-processing or caching
/// mechanisms are used"): local skylines off, so every query walks the
/// group trees. The figure tables, the JSON grid's dTSS rows and the
/// subprocess worker's dTSS task run it; [`DtssConfig::default`] serves
/// plain queries from local skylines instead.
pub fn paper_dtss() -> DtssConfig {
    DtssConfig {
        precompute_local: false,
        ..DtssConfig::default()
    }
}

/// Both distributions of the paper's evaluation.
pub fn distributions() -> [Distribution; 2] {
    [Distribution::Independent, Distribution::AntiCorrelated]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_defaults_are_laptop_sized() {
        if !full_scale() {
            assert!(default_n() <= 100_000);
            assert!(cardinalities().iter().all(|&n| n <= 200_000));
        }
    }

    #[test]
    fn grids_match_table_iii() {
        assert_eq!(dimensionalities().len(), 6);
        assert_eq!(heights(), vec![2, 4, 6, 8, 10]);
        assert_eq!(densities(), vec![0.2, 0.4, 0.6, 0.8, 1.0]);
    }

    #[test]
    fn params_carry_distribution() {
        let p = static_params(Distribution::AntiCorrelated, 3);
        assert_eq!(p.dist, Distribution::AntiCorrelated);
        assert_eq!(p.to_dims, 2);
        assert_eq!(p.po_dims, 2);
        let d = dynamic_params(Distribution::Independent, 3);
        assert_eq!(d.to_dims, 3);
        assert_eq!(d.po_dims, 1);
        assert_eq!(d.dag_height, 6);
    }
}
