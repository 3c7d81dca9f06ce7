/// Execution statistics shared by all skyline algorithms — the two
/// efficiency measures of §III-A: pairwise dominance checks and page IOs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Pairwise dominance (or containment) checks performed.
    pub dominance_checks: u64,
    /// Page IOs (node reads). Zero for purely in-memory algorithms.
    pub io_reads: u64,
    /// Invocations of a batched dominance kernel (each kernel call examines
    /// zero or more pairs, all counted in `dominance_checks`).
    pub dominance_batch_calls: u64,
    /// [`LANES`](crate::LANES)-wide chunk iterations the examined pairs
    /// amount to (`Σ ⌈examined/LANES⌉` per batch call). Derived from the
    /// pair counts alone, so it is identical across kernel variants.
    pub kernel_chunks: u64,
}

impl Stats {
    /// Sums two stats (used when an algorithm composes sub-runs).
    pub fn merge(self, other: Stats) -> Stats {
        Stats {
            dominance_checks: self.dominance_checks + other.dominance_checks,
            io_reads: self.io_reads + other.io_reads,
            dominance_batch_calls: self.dominance_batch_calls + other.dominance_batch_calls,
            kernel_chunks: self.kernel_chunks + other.kernel_chunks,
        }
    }

    /// Accounts one batched-kernel invocation that examined `examined`
    /// pairs.
    #[inline]
    pub fn batch(&mut self, examined: u64) {
        self.dominance_checks += examined;
        self.dominance_batch_calls += 1;
        self.kernel_chunks += examined.div_ceil(crate::LANES as u64);
    }
}

/// Strict Pareto dominance over totally ordered dimensions, smaller is
/// better: `a` dominates `b` iff `a <= b` everywhere and `a < b` somewhere.
#[inline]
pub fn dominates(a: &[u32], b: &[u32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for (x, y) in a.iter().zip(b.iter()) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

/// The monotone preference function used for presorting: the sum of
/// coordinates (the L1 distance to the ideal point). Any point can only be
/// dominated by points with a strictly smaller — or, for duplicates and
/// permutations, equal — sum, which is what gives sorted algorithms
/// *precedence*.
#[inline]
pub fn monotone_sum(p: &[u32]) -> u64 {
    p.iter().map(|&c| c as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_dominance() {
        assert!(dominates(&[1, 2], &[1, 3]));
        assert!(dominates(&[0, 0], &[5, 5]));
        assert!(!dominates(&[1, 2], &[1, 2]), "duplicates do not dominate");
        assert!(!dominates(&[1, 3], &[2, 2]), "incomparable");
        assert!(!dominates(&[2, 2], &[1, 3]));
    }

    #[test]
    fn sum_is_monotone_under_dominance() {
        // If a dominates b, sum(a) < sum(b) (strict because of the strict
        // coordinate).
        let a = [1u32, 2, 3];
        let b = [1u32, 2, 4];
        assert!(dominates(&a, &b));
        assert!(monotone_sum(&a) < monotone_sum(&b));
    }

    #[test]
    fn stats_merge() {
        let a = Stats {
            dominance_checks: 3,
            io_reads: 1,
            dominance_batch_calls: 2,
            kernel_chunks: 1,
        };
        let b = Stats {
            dominance_checks: 4,
            io_reads: 2,
            dominance_batch_calls: 1,
            kernel_chunks: 1,
        };
        assert_eq!(
            a.merge(b),
            Stats {
                dominance_checks: 7,
                io_reads: 3,
                dominance_batch_calls: 3,
                kernel_chunks: 2,
            }
        );
    }

    #[test]
    fn batch_accounts_pairs_calls_and_chunks() {
        let mut s = Stats::default();
        s.batch(5);
        s.batch(0);
        assert_eq!(s.dominance_checks, 5);
        assert_eq!(s.dominance_batch_calls, 2);
        assert_eq!(s.kernel_chunks, 1, "5 pairs fit one 8-lane chunk");
        s.batch(9);
        assert_eq!(s.kernel_chunks, 3, "9 pairs span two chunks");
    }
}
