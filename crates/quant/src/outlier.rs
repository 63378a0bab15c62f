//! Outlier stream compaction (paper § VI-A: "we gather them as outliers
//! and losslessly store them with trivial space and time costs using the
//! stream compaction technique").

/// Compacted `(index, exact value)` pairs for out-of-band elements.
///
/// Indices are stored in ascending order when produced by a forward
/// sweep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outliers {
    indices: Vec<u64>,
    values: Vec<f32>,
}

impl Outliers {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Outliers { indices: Vec::with_capacity(n), values: Vec::with_capacity(n) }
    }

    /// Record one outlier.
    #[inline]
    pub fn push(&mut self, index: u64, value: f32) {
        self.indices.push(index);
        self.values.push(value);
    }

    /// Number of outliers.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The compacted indices.
    pub fn indices(&self) -> &[u64] {
        &self.indices
    }

    /// The compacted exact values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Merge per-chunk outlier stores produced by parallel sweeps into a
    /// single store (chunks must be pushed in index order for the result
    /// to be ordered, as with GPU stream compaction over a prefix sum).
    pub fn concat(parts: Vec<Outliers>) -> Outliers {
        let n = parts.iter().map(Outliers::len).sum();
        let mut out = Outliers::with_capacity(n);
        for p in parts {
            out.indices.extend_from_slice(&p.indices);
            out.values.extend_from_slice(&p.values);
        }
        out
    }

    /// Rebuild from parallel index/value slices (deserialisation).
    ///
    /// Returns `None` if the slice lengths disagree.
    pub fn from_parts(indices: Vec<u64>, values: Vec<f32>) -> Option<Outliers> {
        if indices.len() != values.len() {
            return None;
        }
        Some(Outliers { indices, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_preserves_order() {
        let mut a = Outliers::new();
        a.push(0, 1.0);
        let mut b = Outliers::new();
        b.push(5, 2.0);
        b.push(7, 3.0);
        let m = Outliers::concat(vec![a, b]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.indices(), &[0, 5, 7]);
        assert_eq!(m.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(Outliers::from_parts(vec![1], vec![1.0]).is_some());
        assert!(Outliers::from_parts(vec![1, 2], vec![1.0]).is_none());
    }
}
