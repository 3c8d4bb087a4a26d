//! Axis-aligned box regions and domain decomposition.
//!
//! A [`BoxRegion`] is a half-open box `[lo, hi)` inside an `N³` grid. The
//! paper's Step 1 splits the input grid into `k×k×k` sub-domains; the
//! [`decompose_uniform`] helper produces that partition (which worker
//! computes which is `lcc_core::Deployment`'s business).

/// A half-open axis-aligned box `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BoxRegion {
    /// Inclusive low corner.
    pub lo: [usize; 3],
    /// Exclusive high corner.
    pub hi: [usize; 3],
}

impl BoxRegion {
    /// Creates a box; panics if any `hi < lo`.
    pub fn new(lo: [usize; 3], hi: [usize; 3]) -> Self {
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "box corners inverted: lo={lo:?} hi={hi:?}"
        );
        BoxRegion { lo, hi }
    }

    /// The cube `[0, n)³`.
    pub fn cube(n: usize) -> Self {
        BoxRegion {
            lo: [0; 3],
            hi: [n; 3],
        }
    }

    /// Size along each axis.
    pub fn size(&self) -> (usize, usize, usize) {
        (
            self.hi[0] - self.lo[0],
            self.hi[1] - self.lo[1],
            self.hi[2] - self.lo[2],
        )
    }

    /// Number of grid points inside.
    pub fn volume(&self) -> usize {
        let (a, b, c) = self.size();
        a * b * c
    }

    /// True when the box has zero volume.
    pub fn is_empty(&self) -> bool {
        self.volume() == 0
    }

    /// True when `p` lies inside the half-open box.
    pub fn contains(&self, p: [usize; 3]) -> bool {
        (0..3).all(|d| self.lo[d] <= p[d] && p[d] < self.hi[d])
    }

    /// True when `other` is fully inside `self`.
    pub fn contains_box(&self, other: &BoxRegion) -> bool {
        (0..3).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Intersection, or `None` if disjoint (or touching with zero volume).
    pub fn intersect(&self, other: &BoxRegion) -> Option<BoxRegion> {
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for d in 0..3 {
            lo[d] = self.lo[d].max(other.lo[d]);
            hi[d] = self.hi[d].min(other.hi[d]);
            if lo[d] >= hi[d] {
                return None;
            }
        }
        Some(BoxRegion { lo, hi })
    }

    /// Chebyshev (L∞) distance from point `p` to the box, 0 if inside.
    ///
    /// This is the "distance from the sub-domain" that drives the paper's
    /// adaptive rate schedule (r = 2 within k/2, r = 8 within 4k, …).
    pub fn chebyshev_distance(&self, p: [usize; 3]) -> usize {
        (0..3)
            .map(|d| {
                if p[d] < self.lo[d] {
                    self.lo[d] - p[d]
                } else if p[d] >= self.hi[d] {
                    p[d] - (self.hi[d] - 1)
                } else {
                    0
                }
            })
            .max()
            .unwrap()
    }

    /// Periodic (toroidal) Chebyshev distance from `p` to the box on an
    /// `n`-periodic grid: each axis measures the shorter way around the
    /// torus. This is the right notion for cyclic convolution responses,
    /// whose decay wraps across the grid boundary.
    pub fn periodic_chebyshev_distance(&self, p: [usize; 3], n: usize) -> usize {
        (0..3)
            .map(|d| {
                let (lo, hi) = (self.lo[d], self.hi[d]);
                debug_assert!(hi <= n, "box exceeds periodic grid");
                if lo <= p[d] && p[d] < hi {
                    0
                } else {
                    let fwd = if p[d] >= hi {
                        p[d] - (hi - 1)
                    } else {
                        p[d] + n - (hi - 1)
                    };
                    let bwd = if p[d] < lo { lo - p[d] } else { lo + n - p[d] };
                    fwd.min(bwd)
                }
            })
            .max()
            .unwrap()
    }

    /// Center of the box in continuous coordinates.
    pub fn center(&self) -> [f64; 3] {
        [
            (self.lo[0] + self.hi[0]) as f64 / 2.0,
            (self.lo[1] + self.hi[1]) as f64 / 2.0,
            (self.lo[2] + self.hi[2]) as f64 / 2.0,
        ]
    }

    /// Iterates all points in row-major order.
    pub fn points(&self) -> impl Iterator<Item = [usize; 3]> + '_ {
        let (lo, hi) = (self.lo, self.hi);
        (lo[0]..hi[0]).flat_map(move |x| {
            (lo[1]..hi[1]).flat_map(move |y| (lo[2]..hi[2]).map(move |z| [x, y, z]))
        })
    }
}

/// Splits the cube `[0, n)³` into `k³`-sized sub-domains (paper Step 1).
///
/// `k` must divide `n`; returns `(n/k)³` boxes in row-major order of their
/// low corners.
pub fn decompose_uniform(n: usize, k: usize) -> Vec<BoxRegion> {
    assert!(
        k >= 1 && k <= n,
        "sub-domain size k={k} must be in 1..=n={n}"
    );
    assert_eq!(n % k, 0, "sub-domain size k={k} must divide n={n}");
    let m = n / k;
    let mut out = Vec::with_capacity(m * m * m);
    for bx in 0..m {
        for by in 0..m {
            for bz in 0..m {
                out.push(BoxRegion::new(
                    [bx * k, by * k, bz * k],
                    [(bx + 1) * k, (by + 1) * k, (bz + 1) * k],
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_covers_grid_disjointly() {
        let n = 8;
        let k = 4;
        let boxes = decompose_uniform(n, k);
        assert_eq!(boxes.len(), 8);
        let total: usize = boxes.iter().map(|b| b.volume()).sum();
        assert_eq!(total, n * n * n);
        // Disjointness: no pairwise intersections.
        for (i, a) in boxes.iter().enumerate() {
            for b in &boxes[i + 1..] {
                assert!(a.intersect(b).is_none());
            }
        }
    }

    #[test]
    fn decompose_k_equals_n_is_single_box() {
        let boxes = decompose_uniform(16, 16);
        assert_eq!(boxes, vec![BoxRegion::cube(16)]);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn decompose_rejects_non_divisor() {
        decompose_uniform(10, 3);
    }

    #[test]
    fn chebyshev_distance_inside_and_out() {
        let b = BoxRegion::new([4, 4, 4], [8, 8, 8]);
        assert_eq!(b.chebyshev_distance([5, 6, 7]), 0);
        assert_eq!(b.chebyshev_distance([0, 5, 5]), 4);
        assert_eq!(b.chebyshev_distance([9, 5, 5]), 2);
        assert_eq!(b.chebyshev_distance([0, 0, 0]), 4);
        assert_eq!(b.chebyshev_distance([11, 9, 5]), 4);
    }

    #[test]
    fn intersect_behaviour() {
        let a = BoxRegion::new([0, 0, 0], [4, 4, 4]);
        let b = BoxRegion::new([2, 2, 2], [6, 6, 6]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, BoxRegion::new([2, 2, 2], [4, 4, 4]));
        let c = BoxRegion::new([4, 0, 0], [5, 1, 1]);
        assert!(a.intersect(&c).is_none(), "touching boxes do not intersect");
    }

    #[test]
    fn points_iterates_volume() {
        let b = BoxRegion::new([1, 1, 1], [3, 2, 4]);
        let pts: Vec<_> = b.points().collect();
        assert_eq!(pts.len(), b.volume());
        assert!(pts.iter().all(|&p| b.contains(p)));
    }

    #[test]
    fn contains_box_and_center() {
        let outer = BoxRegion::cube(10);
        let inner = BoxRegion::new([2, 2, 2], [5, 5, 5]);
        assert!(outer.contains_box(&inner));
        assert!(!inner.contains_box(&outer));
        assert_eq!(inner.center(), [3.5, 3.5, 3.5]);
    }
}
