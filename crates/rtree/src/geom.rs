use std::fmt;

/// A minimum bounding box in `dims`-dimensional non-negative integer space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mbb {
    lo: Box<[u32]>,
    hi: Box<[u32]>,
}

impl Mbb {
    /// Creates an MBB from corner coordinates. Panics if dimensions differ
    /// or any `lo > hi`.
    pub fn new(lo: Vec<u32>, hi: Vec<u32>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        assert!(
            lo.iter().zip(hi.iter()).all(|(l, h)| l <= h),
            "MBB lower corner must not exceed upper corner"
        );
        Mbb {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        }
    }

    /// A degenerate MBB covering exactly one point.
    pub fn from_point(p: &[u32]) -> Self {
        Mbb {
            lo: p.into(),
            hi: p.into(),
        }
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[u32] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[u32] {
        &self.hi
    }

    /// L1 distance from the origin to the nearest corner — the *mindist* of
    /// §IV-A ("the mindist of a node equals the mindist of the lower left
    /// corner of its MBB"). The origin is the most preferable point because
    /// all indexed dimensions are smaller-is-better.
    #[inline]
    pub fn mindist_l1(&self) -> u64 {
        self.lo.iter().map(|&c| c as u64).sum()
    }

    /// Grows the box to cover `p`.
    pub fn expand_point(&mut self, p: &[u32]) {
        debug_assert_eq!(p.len(), self.dims());
        for (d, &pv) in p.iter().enumerate() {
            if pv < self.lo[d] {
                self.lo[d] = pv;
            }
            if pv > self.hi[d] {
                self.hi[d] = pv;
            }
        }
    }

    /// Grows the box to cover `other`.
    pub fn expand_mbb(&mut self, other: &Mbb) {
        debug_assert_eq!(other.dims(), self.dims());
        for d in 0..self.lo.len() {
            if other.lo[d] < self.lo[d] {
                self.lo[d] = other.lo[d];
            }
            if other.hi[d] > self.hi[d] {
                self.hi[d] = other.hi[d];
            }
        }
    }

    /// True iff `p` lies inside the box (inclusive).
    pub fn contains_point(&self, p: &[u32]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        (0..self.dims()).all(|d| self.lo[d] <= p[d] && p[d] <= self.hi[d])
    }

    /// True iff the boxes share at least one point.
    pub fn intersects(&self, other: &Mbb) -> bool {
        debug_assert_eq!(other.dims(), self.dims());
        (0..self.dims()).all(|d| self.lo[d] <= other.hi[d] && other.lo[d] <= self.hi[d])
    }

    /// True iff `other` lies fully inside `self`.
    pub fn contains_mbb(&self, other: &Mbb) -> bool {
        (0..self.dims()).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// L1 mindist from an arbitrary reference point: per dimension, the
    /// distance from `q` to the nearest box coordinate (zero if inside).
    pub fn mindist_l1_from(&self, q: &[u32]) -> u64 {
        debug_assert_eq!(q.len(), self.dims());
        (0..self.dims())
            .map(|d| {
                if q[d] < self.lo[d] {
                    (self.lo[d] - q[d]) as u64
                } else if q[d] > self.hi[d] {
                    (q[d] - self.hi[d]) as u64
                } else {
                    0
                }
            })
            .sum()
    }

    /// The *folded lower-bound corner* w.r.t. a reference point `q`: per
    /// dimension the minimum of `|x - q_d|` over the box extent. Any point
    /// inside the box folds to coordinates dominating-or-equalling this
    /// corner, which makes it the sound pruning corner for dynamic-skyline
    /// BBS (§V-B fully dynamic queries).
    pub fn folded_corner(&self, q: &[u32]) -> Vec<u32> {
        debug_assert_eq!(q.len(), self.dims());
        (0..self.dims())
            .map(|d| {
                if q[d] < self.lo[d] {
                    self.lo[d] - q[d]
                } else {
                    q[d].saturating_sub(self.hi[d])
                }
            })
            .collect()
    }
}

impl fmt::Display for Mbb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MBB(")?;
        for d in 0..self.dims() {
            if d > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}..{}", self.lo[d], self.hi[d])?;
        }
        write!(f, ")")
    }
}

/// L1 mindist of a point to the origin.
#[inline]
pub fn point_mindist_l1(p: &[u32]) -> u64 {
    p.iter().map(|&c| c as u64).sum()
}

/// L1 distance between two points (the *dynamic skyline* mindist, where the
/// most preferable point is a query reference rather than the origin).
#[inline]
pub fn point_mindist_l1_from(p: &[u32], q: &[u32]) -> u64 {
    debug_assert_eq!(p.len(), q.len());
    p.iter()
        .zip(q.iter())
        .map(|(&a, &b)| a.abs_diff(b) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let m = Mbb::new(vec![1, 2], vec![3, 4]);
        assert_eq!(m.dims(), 2);
        assert_eq!(m.lo(), &[1, 2]);
        assert_eq!(m.hi(), &[3, 4]);
        assert_eq!(m.mindist_l1(), 3);
        assert_eq!(m.to_string(), "MBB(1..3, 2..4)");
    }

    #[test]
    #[should_panic(expected = "lower corner")]
    fn inverted_corners_panic() {
        let _ = Mbb::new(vec![5], vec![4]);
    }

    #[test]
    fn expand_and_union() {
        let mut m = Mbb::from_point(&[5, 5]);
        m.expand_point(&[2, 8]);
        assert_eq!(m.lo(), &[2, 5]);
        assert_eq!(m.hi(), &[5, 8]);
        m.expand_mbb(&Mbb::from_point(&[10, 0]));
        assert_eq!(m.lo(), &[2, 0]);
        assert_eq!(m.hi(), &[10, 8]);
    }

    #[test]
    fn containment_and_intersection() {
        let big = Mbb::new(vec![0, 0], vec![10, 10]);
        let small = Mbb::new(vec![2, 2], vec![3, 3]);
        assert!(big.contains_mbb(&small));
        assert!(!small.contains_mbb(&big));
        assert!(big.intersects(&small));
        assert!(big.contains_point(&[10, 0]));
        assert!(!big.contains_point(&[11, 0]));
        let disjoint = Mbb::new(vec![11, 11], vec![12, 12]);
        assert!(!big.intersects(&disjoint));
        // Touching boxes intersect (closed boxes).
        let touching = Mbb::new(vec![10, 10], vec![12, 12]);
        assert!(big.intersects(&touching));
    }

    #[test]
    fn point_mindist() {
        assert_eq!(point_mindist_l1(&[2, 3]), 5);
        assert_eq!(point_mindist_l1(&[]), 0);
        assert_eq!(
            point_mindist_l1(&[u32::MAX, u32::MAX]),
            2 * (u32::MAX as u64)
        );
    }
}
