use crate::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for totally ordered attribute generation.
#[derive(Debug, Clone, Copy)]
pub struct TupleConfig {
    /// Number of tuples (`N` in Table III).
    pub n: usize,
    /// Number of totally ordered dimensions (`|TO|`).
    pub dims: usize,
    /// Integer domain size per dimension (the paper fixes 10 000).
    pub domain: u32,
    /// Distribution of the tuples.
    pub dist: Distribution,
    /// RNG seed.
    pub seed: u64,
}

/// Generates the totally ordered coordinates as a flattened row-major
/// `n × dims` matrix of integers in `0..domain` (smaller is better).
pub fn gen_to_matrix(cfg: TupleConfig) -> Vec<u32> {
    assert!(cfg.dims >= 1 && cfg.domain >= 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.n * cfg.dims);
    let mut buf = vec![0.0f64; cfg.dims];
    for _ in 0..cfg.n {
        cfg.dist.sample(&mut rng, &mut buf);
        for &x in &buf {
            out.push((x * cfg.domain as f64) as u32);
        }
    }
    out
}

/// Assigns partially ordered values: a flattened row-major `n × dims` matrix
/// where column `d` holds uniform-random value ids in
/// `0..domain_sizes[d]`.
///
/// The paper does not state the PO assignment; uniform over the DAG's nodes
/// is the natural choice, since it favors no value of the domain.
pub fn gen_po_matrix(n: usize, domain_sizes: &[u32], seed: u64) -> Vec<u32> {
    assert!(domain_sizes.iter().all(|&s| s >= 1), "empty PO domain");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * domain_sizes.len());
    for _ in 0..n {
        for &size in domain_sizes {
            out.push(rng.gen_range(0..size));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_matrix_shape_and_range() {
        let cfg = TupleConfig {
            n: 1000,
            dims: 3,
            domain: 10_000,
            dist: Distribution::Independent,
            seed: 1,
        };
        let m = gen_to_matrix(cfg);
        assert_eq!(m.len(), 3000);
        assert!(m.iter().all(|&v| v < 10_000));
    }

    #[test]
    fn to_matrix_deterministic() {
        let cfg = TupleConfig {
            n: 100,
            dims: 2,
            domain: 100,
            dist: Distribution::AntiCorrelated,
            seed: 99,
        };
        assert_eq!(gen_to_matrix(cfg), gen_to_matrix(cfg));
        let other = TupleConfig { seed: 100, ..cfg };
        assert_ne!(gen_to_matrix(cfg), gen_to_matrix(other));
    }

    #[test]
    fn independent_fills_the_domain() {
        let cfg = TupleConfig {
            n: 20_000,
            dims: 1,
            domain: 10,
            dist: Distribution::Independent,
            seed: 5,
        };
        let m = gen_to_matrix(cfg);
        let mut counts = [0usize; 10];
        for &v in &m {
            counts[v as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            assert!(c > 1500, "value {v} badly underrepresented: {c}");
        }
    }

    #[test]
    fn anti_correlated_has_bigger_skyline_than_independent() {
        // The structural property every figure of the paper relies on.
        let mk = |dist| {
            let cfg = TupleConfig {
                n: 4000,
                dims: 2,
                domain: 10_000,
                dist,
                seed: 11,
            };
            let m = gen_to_matrix(cfg);
            skyline::brute_force(&skyline::PointBlock::from_flat(2, m)).len()
        };
        let indep = mk(Distribution::Independent);
        let anti = mk(Distribution::AntiCorrelated);
        let corr = mk(Distribution::Correlated);
        assert!(
            anti > 2 * indep,
            "anti-correlated skyline ({anti}) must dwarf independent ({indep})"
        );
        // Correlated skylines are smaller than anti-correlated ones (at this
        // scale they are comparable to independent, so only the ordering with
        // anti-correlated is asserted).
        assert!(
            corr < anti,
            "correlated skyline ({corr}) must be below anti ({anti})"
        );
    }

    #[test]
    fn po_matrix_shape_range_determinism() {
        let m = gen_po_matrix(500, &[7, 256], 3);
        assert_eq!(m.len(), 1000);
        for row in m.chunks(2) {
            assert!(row[0] < 7 && row[1] < 256);
        }
        assert_eq!(m, gen_po_matrix(500, &[7, 256], 3));
        // All values of a small domain appear.
        let mut seen = [false; 7];
        for row in m.chunks(2) {
            seen[row[0] as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
