//! Shapes, strides and block decomposition.

use std::fmt;

/// The extent of a dense row-major array of rank 1..=3.
///
/// Internally always stored as three extents; missing leading dimensions
/// of lower-rank arrays are 1. `rank` preserves the logical rank so that
/// predictors can distinguish a true 1-d series from a degenerate 3-d one
/// (the interpolation sweep and Lorenzo stencil both depend on it).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    extents: [usize; 3],
    rank: usize,
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dims = self.dims();
        write!(f, "Shape{dims:?}")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for d in self.dims() {
            if !first {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
            first = false;
        }
        Ok(())
    }
}

impl Shape {
    /// A 1-d shape of `n` elements.
    pub fn d1(n: usize) -> Self {
        Shape { extents: [1, 1, n], rank: 1 }
    }

    /// A 2-d shape of `ny × nx` elements (`nx` contiguous).
    pub fn d2(ny: usize, nx: usize) -> Self {
        Shape { extents: [1, ny, nx], rank: 2 }
    }

    /// A 3-d shape of `nz × ny × nx` elements (`nx` contiguous).
    pub fn d3(nz: usize, ny: usize, nx: usize) -> Self {
        Shape { extents: [nz, ny, nx], rank: 3 }
    }

    /// Build a shape from a slice of 1..=3 extents (slowest first).
    ///
    /// Returns `None` for an empty or over-rank slice or any zero extent.
    pub fn from_dims(dims: &[usize]) -> Option<Self> {
        if dims.is_empty() || dims.len() > 3 || dims.contains(&0) {
            return None;
        }
        let mut extents = [1usize; 3];
        extents[3 - dims.len()..].copy_from_slice(dims);
        Some(Shape { extents, rank: dims.len() })
    }

    /// Logical rank (1, 2 or 3).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Logical extents, slowest-varying first (`rank` entries).
    pub fn dims(&self) -> &[usize] {
        &self.extents[3 - self.rank..]
    }

    /// Extents padded to rank 3 (leading 1s), slowest first.
    pub fn dims3(&self) -> [usize; 3] {
        self.extents
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.extents[0] * self.extents[1] * self.extents[2]
    }

    /// True when the shape holds zero elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides in *elements*, padded to rank 3.
    pub fn strides3(&self) -> [usize; 3] {
        let [_, ny, nx] = self.extents;
        [ny * nx, nx, 1]
    }

    /// Linearise a rank-3 coordinate (`z, y, x`; lower-rank arrays use
    /// leading zeros).
    #[inline]
    pub fn index3(&self, z: usize, y: usize, x: usize) -> usize {
        let [sz, sy, sx] = self.strides3();
        z * sz + y * sy + x * sx
    }

    /// Decompose into blocks of `block` elements per axis (rank-3 padded;
    /// edge blocks are truncated). Iterates in row-major block order.
    pub fn blocks(&self, block: [usize; 3]) -> BlockIter {
        assert!(block.iter().all(|&b| b > 0), "block extents must be positive");
        let [nz, ny, nx] = self.extents;
        BlockIter {
            shape: *self,
            block,
            nblocks: [nz.div_ceil(block[0]), ny.div_ceil(block[1]), nx.div_ceil(block[2])],
            next: 0,
        }
    }

    /// Number of blocks per axis for the given block extents.
    pub fn block_counts(&self, block: [usize; 3]) -> [usize; 3] {
        let [nz, ny, nx] = self.extents;
        [nz.div_ceil(block[0]), ny.div_ceil(block[1]), nx.div_ceil(block[2])]
    }
}

/// One block of a block decomposition: origin and (possibly truncated)
/// extent, both rank-3 padded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Inclusive origin of the block (`z, y, x`).
    pub origin: [usize; 3],
    /// Extent of the block per axis (edge blocks are clipped to the array).
    pub extent: [usize; 3],
    /// Row-major index of the block in the block grid.
    pub index: usize,
}

impl Block {
    /// Number of elements covered by the block.
    pub fn len(&self) -> usize {
        self.extent.iter().product()
    }

    /// True when the block covers zero elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Iterator over the blocks of a [`Shape::blocks`] decomposition.
#[derive(Clone, Debug)]
pub struct BlockIter {
    shape: Shape,
    block: [usize; 3],
    nblocks: [usize; 3],
    next: usize,
}

impl BlockIter {
    /// Total number of blocks.
    pub fn total(&self) -> usize {
        self.nblocks.iter().product()
    }

    /// Block-grid extents per axis.
    pub fn grid(&self) -> [usize; 3] {
        self.nblocks
    }

    /// The `i`-th block in row-major block order.
    pub fn get(&self, i: usize) -> Option<Block> {
        if i >= self.total() {
            return None;
        }
        let [_, by, bx] = self.nblocks;
        let bz_i = i / (by * bx);
        let by_i = (i / bx) % by;
        let bx_i = i % bx;
        let origin = [bz_i * self.block[0], by_i * self.block[1], bx_i * self.block[2]];
        let dims = self.shape.dims3();
        let extent = [
            self.block[0].min(dims[0] - origin[0]),
            self.block[1].min(dims[1] - origin[1]),
            self.block[2].min(dims[2] - origin[2]),
        ];
        Some(Block { origin, extent, index: i })
    }
}

impl Iterator for BlockIter {
    type Item = Block;

    fn next(&mut self) -> Option<Block> {
        let b = self.get(self.next)?;
        self.next += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total().saturating_sub(self.next);
        (left, Some(left))
    }
}

impl ExactSizeIterator for BlockIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_constructors_and_rank() {
        assert_eq!(Shape::d1(7).dims(), &[7]);
        assert_eq!(Shape::d2(3, 4).dims(), &[3, 4]);
        assert_eq!(Shape::d3(2, 3, 4).dims(), &[2, 3, 4]);
        assert_eq!(Shape::d1(7).rank(), 1);
        assert_eq!(Shape::d2(3, 4).rank(), 2);
        assert_eq!(Shape::d3(2, 3, 4).rank(), 3);
    }

    #[test]
    fn from_dims_matches_constructors() {
        assert_eq!(Shape::from_dims(&[7]), Some(Shape::d1(7)));
        assert_eq!(Shape::from_dims(&[3, 4]), Some(Shape::d2(3, 4)));
        assert_eq!(Shape::from_dims(&[2, 3, 4]), Some(Shape::d3(2, 3, 4)));
        assert_eq!(Shape::from_dims(&[]), None);
        assert_eq!(Shape::from_dims(&[1, 2, 3, 4]), None);
        assert_eq!(Shape::from_dims(&[0, 3]), None);
    }

    #[test]
    fn len_and_strides() {
        let s = Shape::d3(2, 3, 4);
        assert_eq!(s.len(), 24);
        assert_eq!(s.strides3(), [12, 4, 1]);
        assert_eq!(s.index3(1, 2, 3), 23);
    }

    #[test]
    fn lower_rank_padding() {
        let s = Shape::d2(3, 4);
        assert_eq!(s.dims3(), [1, 3, 4]);
        assert_eq!(s.index3(0, 2, 1), 9);
        assert_eq!(s.len(), 12);
    }

    #[test]
    fn block_iteration_covers_everything_once() {
        let s = Shape::d3(5, 8, 9);
        let mut seen = vec![0u8; s.len()];
        for b in s.blocks([4, 4, 4]) {
            for z in 0..b.extent[0] {
                for y in 0..b.extent[1] {
                    for x in 0..b.extent[2] {
                        let idx =
                            s.index3(b.origin[0] + z, b.origin[1] + y, b.origin[2] + x);
                        seen[idx] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn block_iter_grid_and_total() {
        let s = Shape::d3(5, 8, 9);
        let it = s.blocks([4, 4, 4]);
        assert_eq!(it.grid(), [2, 2, 3]);
        assert_eq!(it.total(), 12);
        assert_eq!(it.count(), 12);
    }

    #[test]
    fn edge_blocks_are_truncated() {
        let s = Shape::d3(5, 8, 9);
        let last = s.blocks([4, 4, 4]).last().unwrap();
        assert_eq!(last.origin, [4, 4, 8]);
        assert_eq!(last.extent, [1, 4, 1]);
    }

    #[test]
    fn block_get_matches_iteration_order() {
        let s = Shape::d2(7, 10);
        let it = s.blocks([1, 4, 4]);
        let collected: Vec<Block> = it.clone().collect();
        for (i, b) in collected.iter().enumerate() {
            assert_eq!(it.get(i).unwrap(), *b);
            assert_eq!(b.index, i);
        }
        assert!(it.get(collected.len()).is_none());
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::d3(2, 3, 4).to_string(), "2x3x4");
        assert_eq!(Shape::d1(5).to_string(), "5");
    }
}
