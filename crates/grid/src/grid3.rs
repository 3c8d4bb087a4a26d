//! Dense row-major 3D arrays.

use std::ops::{Index, IndexMut};

use crate::boxes::BoxRegion;

/// A dense 3D array of shape `(nx, ny, nz)` stored row-major
/// (`z` contiguous, then `y`, then `x`).
#[derive(Clone, Debug, PartialEq)]
pub struct Grid3<T> {
    shape: (usize, usize, usize),
    data: Vec<T>,
}

impl<T: Clone + Default> Grid3<T> {
    /// Creates a grid filled with `T::default()`.
    pub fn zeros(shape: (usize, usize, usize)) -> Self {
        Grid3 {
            shape,
            data: vec![T::default(); shape.0 * shape.1 * shape.2],
        }
    }
}

impl<T: Clone> Grid3<T> {
    /// Creates a grid filled with copies of `value`.
    pub fn filled(shape: (usize, usize, usize), value: T) -> Self {
        Grid3 {
            shape,
            data: vec![value; shape.0 * shape.1 * shape.2],
        }
    }

    /// Extracts the sub-box `region` into a new dense grid.
    ///
    /// Panics if `region` is not contained in this grid.
    pub fn extract(&self, region: &BoxRegion) -> Grid3<T> {
        self.assert_contains(region);
        let (sx, sy, sz) = region.size();
        let mut out = Vec::with_capacity(sx * sy * sz);
        for x in region.lo[0]..region.hi[0] {
            for y in region.lo[1]..region.hi[1] {
                let base = self.linear(x, y, region.lo[2]);
                out.extend_from_slice(&self.data[base..base + sz]);
            }
        }
        Grid3 {
            shape: (sx, sy, sz),
            data: out,
        }
    }

    /// Writes `src` into the sub-box of this grid whose low corner is
    /// `offset`. Panics on overflow past the grid bounds.
    pub fn insert(&mut self, offset: [usize; 3], src: &Grid3<T>) {
        let (sx, sy, sz) = src.shape;
        assert!(
            offset[0] + sx <= self.shape.0
                && offset[1] + sy <= self.shape.1
                && offset[2] + sz <= self.shape.2,
            "insert exceeds grid bounds"
        );
        for x in 0..sx {
            for y in 0..sy {
                let dst_base = self.linear(offset[0] + x, offset[1] + y, offset[2]);
                let src_base = src.linear(x, y, 0);
                self.data[dst_base..dst_base + sz]
                    .clone_from_slice(&src.data[src_base..src_base + sz]);
            }
        }
    }
}

impl<T> Grid3<T> {
    fn assert_contains(&self, region: &BoxRegion) {
        assert!(
            region.hi[0] <= self.shape.0
                && region.hi[1] <= self.shape.1
                && region.hi[2] <= self.shape.2,
            "region {region:?} exceeds grid shape {:?}",
            self.shape
        );
    }

    /// True when `pred` holds at every point of the sub-box `region`, read in
    /// place: the test [`Self::extract`] would need a copy for.
    ///
    /// Panics if `region` is not contained in this grid.
    pub fn all_in(&self, region: &BoxRegion, mut pred: impl FnMut(&T) -> bool) -> bool {
        self.assert_contains(region);
        let sz = region.hi[2] - region.lo[2];
        (region.lo[0]..region.hi[0]).all(|x| {
            (region.lo[1]..region.hi[1]).all(|y| {
                let base = self.linear(x, y, region.lo[2]);
                self.data[base..base + sz].iter().all(&mut pred)
            })
        })
    }

    /// Builds a grid by evaluating `f(x, y, z)` at every point.
    pub fn from_fn(
        shape: (usize, usize, usize),
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut data = Vec::with_capacity(shape.0 * shape.1 * shape.2);
        for x in 0..shape.0 {
            for y in 0..shape.1 {
                for z in 0..shape.2 {
                    data.push(f(x, y, z));
                }
            }
        }
        Grid3 { shape, data }
    }

    /// Wraps an existing row-major buffer. Panics on length mismatch.
    pub fn from_vec(shape: (usize, usize, usize), data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            shape.0 * shape.1 * shape.2,
            "buffer length does not match shape"
        );
        Grid3 { shape, data }
    }

    /// Grid shape `(nx, ny, nz)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize) {
        self.shape
    }

    /// Total number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major linear index of `(x, y, z)`.
    #[inline(always)]
    pub fn linear(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.shape.0 && y < self.shape.1 && z < self.shape.2);
        (x * self.shape.1 + y) * self.shape.2 + z
    }

    /// Inverse of [`Self::linear`].
    #[inline(always)]
    pub fn unlinear(&self, idx: usize) -> (usize, usize, usize) {
        let z = idx % self.shape.2;
        let rest = idx / self.shape.2;
        let y = rest % self.shape.1;
        let x = rest / self.shape.1;
        (x, y, z)
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Point-wise map into a new grid.
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> Grid3<U> {
        Grid3 {
            shape: self.shape,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Iterates `((x, y, z), &value)` in row-major order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = ((usize, usize, usize), &T)> {
        let shape = self.shape;
        self.data.iter().enumerate().map(move |(i, v)| {
            let z = i % shape.2;
            let rest = i / shape.2;
            ((rest / shape.1, rest % shape.1, z), v)
        })
    }
}

impl<T> Index<(usize, usize, usize)> for Grid3<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (x, y, z): (usize, usize, usize)) -> &T {
        &self.data[self.linear(x, y, z)]
    }
}

impl<T> IndexMut<(usize, usize, usize)> for Grid3<T> {
    #[inline(always)]
    fn index_mut(&mut self, (x, y, z): (usize, usize, usize)) -> &mut T {
        let i = self.linear(x, y, z);
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_roundtrip() {
        let g: Grid3<f64> = Grid3::zeros((3, 4, 5));
        for idx in 0..g.len() {
            let (x, y, z) = g.unlinear(idx);
            assert_eq!(g.linear(x, y, z), idx);
        }
    }

    #[test]
    fn from_fn_and_index() {
        let g = Grid3::from_fn((2, 3, 4), |x, y, z| (x * 100 + y * 10 + z) as i64);
        assert_eq!(g[(1, 2, 3)], 123);
        assert_eq!(g[(0, 0, 0)], 0);
    }

    #[test]
    fn extract_insert_roundtrip() {
        let g = Grid3::from_fn((4, 4, 4), |x, y, z| (x * 16 + y * 4 + z) as i32);
        let region = BoxRegion::new([1, 0, 2], [3, 2, 4]);
        let sub = g.extract(&region);
        assert_eq!(sub.shape(), (2, 2, 2));
        assert_eq!(sub[(0, 0, 0)], g[(1, 0, 2)]);
        assert_eq!(sub[(1, 1, 1)], g[(2, 1, 3)]);
        let mut h: Grid3<i32> = Grid3::zeros((4, 4, 4));
        h.insert([1, 0, 2], &sub);
        assert_eq!(h[(2, 1, 3)], g[(2, 1, 3)]);
        assert_eq!(h[(0, 0, 0)], 0);
    }

    #[test]
    fn all_in_agrees_with_extract() {
        let mut g: Grid3<f64> = Grid3::zeros((4, 4, 4));
        g[(2, 1, 3)] = 1.0;
        for region in [
            BoxRegion::new([0, 0, 0], [2, 4, 4]),
            BoxRegion::new([2, 0, 0], [4, 2, 4]),
            BoxRegion::new([2, 1, 3], [3, 2, 4]),
            BoxRegion::new([2, 1, 0], [3, 2, 3]),
            BoxRegion::new([1, 1, 1], [1, 1, 1]),
        ] {
            let copied = g.extract(&region).as_slice().iter().all(|&v| v == 0.0);
            assert_eq!(g.all_in(&region, |&v| v == 0.0), copied, "{region:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds grid shape")]
    fn all_in_out_of_bounds_panics() {
        let g: Grid3<u8> = Grid3::zeros((2, 2, 2));
        g.all_in(&BoxRegion::new([0, 0, 0], [1, 1, 3]), |_| true);
    }

    #[test]
    fn indexed_iter_visits_all() {
        let g = Grid3::from_fn((2, 2, 2), |x, y, z| x + y + z);
        let count = g.indexed_iter().count();
        assert_eq!(count, 8);
        for ((x, y, z), &v) in g.indexed_iter() {
            assert_eq!(v, x + y + z);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds grid shape")]
    fn extract_out_of_bounds_panics() {
        let g: Grid3<u8> = Grid3::zeros((2, 2, 2));
        g.extract(&BoxRegion::new([0, 0, 0], [3, 1, 1]));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        Grid3::from_vec((2, 2, 2), vec![0u8; 7]);
    }

    #[test]
    fn map_preserves_shape() {
        let g = Grid3::from_fn((2, 3, 1), |x, _, _| x as f64);
        let h = g.map(|v| v * 2.0);
        assert_eq!(h.shape(), (2, 3, 1));
        assert_eq!(h[(1, 2, 0)], 2.0);
    }
}
