use crate::{Dag, ValueId};

/// Bitset transitive closure of a [`Dag`] — the *ground truth* preference
/// relation that every interval labeling is validated against.
///
/// `reaches(x, y)` answers "is there a directed path `x ⤳ y`?" in `O(1)`
/// after an `O(V·E/64)` construction. For the domain sizes of the paper
/// (≤ ~1000 values, §VI-A) the closure occupies at most ~128 KiB.
#[derive(Debug, Clone)]
pub struct Reachability {
    words_per_row: usize,
    bits: Vec<u64>,
    n: usize,
}

impl Reachability {
    /// Computes the closure by a reverse-topological DP:
    /// `R(v) = {v} ∪ ⋃_{(v,w)∈E} R(w)`.
    pub fn build(dag: &Dag) -> Self {
        let n = dag.len();
        let words_per_row = n.div_ceil(64);
        let mut bits = vec![0u64; words_per_row * n];
        let order = dag.topo_node_order();
        for &v in order.iter().rev() {
            let vi = v.idx();
            // Set the self bit.
            bits[vi * words_per_row + vi / 64] |= 1u64 << (vi % 64);
            // Union in each child's row. Split the flat buffer so the child
            // row can be read while the parent row is written.
            for &c in dag.children(v) {
                let ci = c.idx();
                let (lo, hi) = (vi.min(ci), vi.max(ci));
                let (head, tail) = bits.split_at_mut(hi * words_per_row);
                let (dst, src) = if vi > ci {
                    (
                        &mut tail[..words_per_row],
                        &head[ci * words_per_row..ci * words_per_row + words_per_row],
                    )
                } else {
                    (&mut head[vi * words_per_row..], &tail[..words_per_row])
                };
                let _ = lo;
                for (d, s) in dst.iter_mut().zip(src.iter()) {
                    *d |= *s;
                }
            }
        }
        Reachability {
            words_per_row,
            bits,
            n,
        }
    }

    /// True iff a path `x ⤳ y` exists (reflexive: `reaches(x, x)` is true).
    #[inline]
    pub fn reaches(&self, x: ValueId, y: ValueId) -> bool {
        let xi = x.idx();
        let yi = y.idx();
        debug_assert!(xi < self.n && yi < self.n);
        self.bits[xi * self.words_per_row + yi / 64] >> (yi % 64) & 1 == 1
    }

    /// True iff `x` is *strictly* preferred over `y`: `x ≠ y` and `x ⤳ y`.
    #[inline]
    pub fn preferred(&self, x: ValueId, y: ValueId) -> bool {
        x != y && self.reaches(x, y)
    }

    /// True iff `x` is preferred over `y` or they are the same value.
    #[inline]
    pub fn preferred_or_equal(&self, x: ValueId, y: ValueId) -> bool {
        x == y || self.reaches(x, y)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// All values reachable from `x`, including `x`, in id order.
    pub(crate) fn descendants(r: &Reachability, x: ValueId) -> Vec<ValueId> {
        (0..r.n as u32)
            .map(ValueId)
            .filter(|&y| r.reaches(x, y))
            .collect()
    }

    #[test]
    fn chain_reachability() {
        let d = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = Reachability::build(&d);
        for i in 0..4u32 {
            for j in 0..4u32 {
                assert_eq!(r.reaches(ValueId(i), ValueId(j)), i <= j, "{i} -> {j}");
            }
        }
        assert!(r.preferred(ValueId(0), ValueId(3)));
        assert!(!r.preferred(ValueId(0), ValueId(0)));
        assert!(r.preferred_or_equal(ValueId(0), ValueId(0)));
    }

    #[test]
    fn diamond_reachability() {
        let d = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let r = Reachability::build(&d);
        assert!(r.reaches(ValueId(0), ValueId(3)));
        assert!(!r.reaches(ValueId(1), ValueId(2)));
        assert!(!r.reaches(ValueId(2), ValueId(1)));
        assert_eq!(descendants(&r, ValueId(0)).len(), 4);
        assert_eq!(descendants(&r, ValueId(1)), vec![ValueId(1), ValueId(3)]);
    }

    #[test]
    fn paper_example_spot_checks() {
        let d = Dag::paper_example();
        let r = Reachability::build(&d);
        let id = |s: &str| d.id_of(s).unwrap();
        // R(c) = {c, f, g, h, i}
        assert_eq!(
            descendants(&r, id("c")),
            ["c", "f", "g", "h", "i"]
                .iter()
                .map(|s| id(s))
                .collect::<Vec<_>>()
        );
        // R(e) = {e, g, h, i}
        assert_eq!(descendants(&r, id("e")).len(), 4);
        // f reaches h via the non-tree edge but not g or i.
        assert!(r.reaches(id("f"), id("h")));
        assert!(!r.reaches(id("f"), id("g")));
        assert!(!r.reaches(id("f"), id("i")));
    }

    #[test]
    fn matches_bfs_on_wide_graph() {
        // A moderately wide DAG exercising multi-word bitset rows (n > 64).
        let n = 130u32;
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i, i + 1));
            if i + 7 < n {
                edges.push((i, i + 7));
            }
        }
        let d = Dag::from_edges(n, &edges).unwrap();
        let r = Reachability::build(&d);
        // BFS oracle from a few sources.
        for src in [0u32, 63, 64, 65, 129] {
            let mut seen = vec![false; n as usize];
            let mut stack = vec![ValueId(src)];
            while let Some(v) = stack.pop() {
                if std::mem::replace(&mut seen[v.idx()], true) {
                    continue;
                }
                stack.extend_from_slice(d.children(v));
            }
            for j in 0..n {
                assert_eq!(r.reaches(ValueId(src), ValueId(j)), seen[j as usize]);
            }
        }
    }
}
