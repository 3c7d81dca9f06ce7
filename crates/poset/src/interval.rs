use std::fmt;

/// A closed integer interval `[lo, hi]` of postorder numbers, the
/// `[minpost, post]` labels of §II-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    pub lo: u32,
    pub hi: u32,
}

impl Interval {
    /// Creates `[lo, hi]`. Panics if `lo > hi` (empty intervals never arise
    /// from postorder labeling).
    #[inline]
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "interval [{lo},{hi}] is empty");
        Interval { lo, hi }
    }

    /// A single point `[p, p]`.
    #[inline]
    pub fn point(p: u32) -> Self {
        Interval { lo: p, hi: p }
    }

    /// True iff `self` contains `other` (covers or coincides — the relation
    /// used by Definition 1 of the paper).
    #[inline]
    pub fn contains(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// True iff `self` contains the integer `p`.
    #[inline]
    pub fn contains_point(&self, p: u32) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// Number of integers covered.
    #[inline]
    pub fn len(&self) -> u32 {
        self.hi - self.lo + 1
    }

    /// Closed intervals cover at least one integer; present for API
    /// completeness alongside [`Interval::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.lo, self.hi)
    }
}

/// A normalized set of integer intervals: sorted by `lo`, pairwise disjoint
/// and non-adjacent (so the representation of a set of integers is unique).
///
/// This is the "final" column of Fig. 2(d): after propagation, intervals that
/// overlap **or are adjacent** are merged (the paper merges `[1,2]` and
/// `[3,5]` into `[1,5]`) and subsumed intervals are dropped. An
/// `IntervalSet` therefore represents exactly a set of postorder numbers.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct IntervalSet {
    ivs: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    #[inline]
    pub fn empty() -> Self {
        IntervalSet { ivs: Vec::new() }
    }

    /// A set holding one interval.
    pub fn single(iv: Interval) -> Self {
        IntervalSet { ivs: vec![iv] }
    }

    /// Builds from arbitrary (unsorted, overlapping) intervals, normalizing.
    pub fn from_intervals(mut ivs: Vec<Interval>) -> Self {
        ivs.sort_unstable_by_key(|iv| (iv.lo, iv.hi));
        let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
        for iv in ivs {
            match out.last_mut() {
                // Merge overlapping or adjacent integer intervals:
                // [1,2] + [3,5] -> [1,5].
                Some(last) if iv.lo <= last.hi.saturating_add(1) => {
                    last.hi = last.hi.max(iv.hi);
                }
                _ => out.push(iv),
            }
        }
        IntervalSet { ivs: out }
    }

    /// The normalized intervals, sorted by `lo`.
    #[inline]
    pub fn intervals(&self) -> &[Interval] {
        &self.ivs
    }

    /// Number of maximal intervals (runs).
    #[inline]
    pub fn len(&self) -> usize {
        self.ivs.len()
    }

    /// True iff no integers are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Total number of integers covered.
    pub fn cardinality(&self) -> u64 {
        self.ivs.iter().map(|iv| iv.len() as u64).sum()
    }

    /// True iff some interval of the set fully contains `iv`.
    ///
    /// Binary search on the sorted runs: `O(log n)`.
    pub fn covers_interval(&self, iv: &Interval) -> bool {
        // Find the last run with lo <= iv.lo; only it can contain iv.
        match self.ivs.partition_point(|run| run.lo <= iv.lo) {
            0 => false,
            i => self.ivs[i - 1].contains(iv),
        }
    }

    /// True iff every run of `other` is contained in some run of `self` —
    /// i.e. `other ⊆ self` as sets of integers. This is exactly the
    /// *t-preference* test of Definition 1 once both sides are normalized.
    pub fn covers_set(&self, other: &IntervalSet) -> bool {
        // Both sides are sorted, so a linear merge beats repeated binary
        // searches when `other` has many runs.
        let mut i = 0;
        for run in &other.ivs {
            while i < self.ivs.len() && self.ivs[i].hi < run.hi {
                i += 1;
            }
            if i == self.ivs.len() || !self.ivs[i].contains(run) {
                return false;
            }
        }
        true
    }

    /// Union with another set, producing a normalized set.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut all = Vec::with_capacity(self.ivs.len() + other.ivs.len());
        all.extend_from_slice(&self.ivs);
        all.extend_from_slice(&other.ivs);
        IntervalSet::from_intervals(all)
    }

    /// In-place union used by the labeling DP hot loop.
    pub fn union_in_place(&mut self, other: &IntervalSet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.ivs.extend_from_slice(&other.ivs);
            return;
        }
        // Fast path: `other` already covered (common once labels saturate).
        if self.covers_set(other) {
            return;
        }
        let merged = self.union(other);
        *self = merged;
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.ivs.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> Self {
        IntervalSet::from_intervals(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ivs: &[(u32, u32)]) -> IntervalSet {
        ivs.iter().map(|&(l, h)| Interval::new(l, h)).collect()
    }

    #[test]
    fn interval_contains() {
        let big = Interval::new(1, 9);
        assert!(big.contains(&Interval::new(3, 6)));
        assert!(big.contains(&big));
        assert!(!Interval::new(3, 6).contains(&big));
        assert!(!Interval::new(1, 3).contains(&Interval::new(3, 5)));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_interval_panics() {
        let _ = Interval::new(5, 4);
    }

    #[test]
    fn normalization_merges_adjacent_integer_intervals() {
        // The Fig. 2(d) merge for node c: {[1,2], [3,3], [3,5]} -> [1,5].
        let s = set(&[(1, 2), (3, 3), (3, 5)]);
        assert_eq!(s.intervals(), &[Interval::new(1, 5)]);
    }

    #[test]
    fn normalization_keeps_gaps() {
        // Node f of Fig. 2(d): {[1,1], [3,3]} stays two runs (gap at 2).
        let s = set(&[(3, 3), (1, 1)]);
        assert_eq!(s.intervals(), &[Interval::new(1, 1), Interval::new(3, 3)]);
    }

    #[test]
    fn normalization_drops_subsumed() {
        let s = set(&[(1, 9), (3, 6), (1, 2)]);
        assert_eq!(s.intervals(), &[Interval::new(1, 9)]);
    }

    #[test]
    fn covers_interval_binary_search() {
        let s = set(&[(1, 2), (5, 8), (10, 10)]);
        assert!(s.covers_interval(&Interval::new(5, 8)));
        assert!(s.covers_interval(&Interval::new(6, 7)));
        assert!(s.covers_interval(&Interval::point(10)));
        assert!(!s.covers_interval(&Interval::new(2, 5)));
        assert!(!s.covers_interval(&Interval::point(3)));
        assert!(!s.covers_interval(&Interval::point(0)));
        assert!(!s.covers_interval(&Interval::point(11)));
        assert!(!IntervalSet::empty().covers_interval(&Interval::point(1)));
    }

    #[test]
    fn covers_set_is_subset_relation() {
        let big = set(&[(1, 5), (7, 9)]);
        assert!(big.covers_set(&set(&[(1, 2), (8, 9)])));
        assert!(big.covers_set(&big));
        assert!(big.covers_set(&IntervalSet::empty()));
        assert!(!big.covers_set(&set(&[(5, 7)])));
        assert!(!set(&[(1, 2)]).covers_set(&big));
    }

    #[test]
    fn union_and_cardinality() {
        let a = set(&[(1, 3)]);
        let b = set(&[(4, 6), (9, 9)]);
        let u = a.union(&b);
        assert_eq!(u.intervals(), &[Interval::new(1, 6), Interval::new(9, 9)]);
        assert_eq!(u.cardinality(), 7);
        let mut c = a.clone();
        c.union_in_place(&b);
        assert_eq!(c, u);
        // In-place union with a covered subset is a no-op.
        let before = c.clone();
        c.union_in_place(&set(&[(2, 2)]));
        assert_eq!(c, before);
    }

    #[test]
    fn display_formats() {
        let s = set(&[(1, 2), (5, 5)]);
        assert_eq!(s.to_string(), "{[1,2] [5,5]}");
        assert_eq!(Interval::new(3, 4).to_string(), "[3,4]");
    }
}
