//! DAG workload generators reproducing §VI-A of the paper.
//!
//! The evaluation constructs PO domains from the *containment partial order
//! for sets*: the lattice of all subsets of `h` distinct objects has height
//! `h` and `2^h` nodes (`h = 8` gives the 256-node default domain). To
//! control the density `d = |V| / 2^h`, lattice nodes are retained — along
//! with their incident edges — with probability `d`. Only Hasse edges
//! between two *retained* nodes survive, so dropping an intermediate node
//! severs the preference path through it: that is what "retain lattice
//! nodes along with their incoming and outgoing edges" implies.

use crate::{Dag, PosetError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for the subset-lattice generator (Table III).
#[derive(Debug, Clone, Copy)]
pub struct LatticeParams {
    /// Lattice height `h` — number of distinct objects; `2^h` lattice nodes.
    pub height: u32,
    /// Density `d = |V| / 2^h`; nodes retained with probability `d`.
    pub density: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl LatticeParams {
    /// The paper's static-experiment defaults: `h = 8`, `d = 0.8`.
    pub fn paper_static_default(seed: u64) -> Self {
        LatticeParams {
            height: 8,
            density: 0.8,
            seed,
        }
    }

    /// The paper's dynamic-experiment defaults: `h = 6`, `d = 0.8`.
    pub fn paper_dynamic_default(seed: u64) -> Self {
        LatticeParams {
            height: 6,
            density: 0.8,
            seed,
        }
    }
}

/// Maximum supported lattice height (2^16 nodes is far beyond the paper's
/// largest `h = 10`, i.e. 1024 nodes).
pub const MAX_HEIGHT: u32 = 16;

/// Generates a subset-containment-lattice DAG per §VI-A.
///
/// Nodes are the subsets of `{0, …, h-1}`; the value with the *fewest*
/// elements is the most preferred (the empty set is the unique root of the
/// full lattice), and Hasse edges connect each set to its one-element
/// extensions. Nodes are retained with probability `density`; labels record
/// the surviving subset masks (`"s{mask:x}"`).
pub fn subset_lattice(params: LatticeParams) -> Result<Dag, PosetError> {
    if params.height > MAX_HEIGHT {
        return Err(PosetError::TooLarge {
            requested: 1usize << params.height,
            max: 1usize << MAX_HEIGHT,
        });
    }
    assert!(
        (0.0..=1.0).contains(&params.density),
        "density must be within [0, 1]"
    );
    let h = params.height;
    let total = 1usize << h;
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Retain each lattice node with probability d; always retain at least
    // one node so the domain is non-empty.
    let mut retained: Vec<bool> = (0..total)
        .map(|_| rng.gen::<f64>() < params.density)
        .collect();
    if !retained.iter().any(|&r| r) {
        let idx = rng.gen_range(0..total);
        retained[idx] = true;
    }
    // Dense re-numbering of surviving masks.
    let mut id_of_mask = vec![u32::MAX; total];
    let mut labels = Vec::new();
    for (mask, &keep) in retained.iter().enumerate() {
        if keep {
            id_of_mask[mask] = labels.len() as u32;
            labels.push(format!("s{mask:x}"));
        }
    }

    // Hasse edges of the full lattice, kept only between survivors:
    // S -> S ∪ {x} for each x ∉ S.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for mask in 0..total {
        if !retained[mask] {
            continue;
        }
        for x in 0..h {
            let sup = mask | (1 << x);
            if sup != mask && retained[sup] {
                edges.push((id_of_mask[mask], id_of_mask[sup]));
            }
        }
    }
    Dag::from_labeled(labels, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Reachability, TssLabeling};

    #[test]
    fn full_lattice_shape() {
        let dag = subset_lattice(LatticeParams {
            height: 4,
            density: 1.0,
            seed: 7,
        })
        .unwrap();
        assert_eq!(dag.len(), 16);
        assert_eq!(dag.height(), 4);
        // Hasse edges of the boolean lattice: h * 2^(h-1) = 32.
        assert_eq!(dag.num_edges(), 32);
        // Unique root: the empty set.
        assert_eq!(dag.roots().count(), 1);
    }

    #[test]
    fn density_controls_node_count() {
        let lo = subset_lattice(LatticeParams {
            height: 8,
            density: 0.2,
            seed: 42,
        })
        .unwrap();
        let hi = subset_lattice(LatticeParams {
            height: 8,
            density: 0.9,
            seed: 42,
        })
        .unwrap();
        assert!(lo.len() < hi.len());
        // Expected counts: d * 256 ± sampling noise.
        assert!((30..=80).contains(&lo.len()), "lo.len() = {}", lo.len());
        assert!((200..=256).contains(&hi.len()), "hi.len() = {}", hi.len());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = LatticeParams {
            height: 6,
            density: 0.5,
            seed: 99,
        };
        let a = subset_lattice(p).unwrap();
        let b = subset_lattice(p).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn rejects_oversized_height() {
        let err = subset_lattice(LatticeParams {
            height: 20,
            density: 1.0,
            seed: 0,
        })
        .unwrap_err();
        assert!(matches!(err, PosetError::TooLarge { .. }));
    }

    #[test]
    fn generated_dags_label_exactly() {
        // End-to-end sanity: TSS labeling stays exact on generated domains.
        for seed in 0..3u64 {
            let dag = subset_lattice(LatticeParams {
                height: 5,
                density: 0.7,
                seed,
            })
            .unwrap();
            let reach = Reachability::build(&dag);
            let lab = TssLabeling::build_default(&dag);
            for x in dag.values() {
                for y in dag.values() {
                    assert_eq!(lab.t_pref(x, y), reach.preferred(x, y));
                }
            }
        }
    }
}
