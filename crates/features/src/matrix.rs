//! Row-major feature matrices.

use crate::kind::FeatureKind;
use crate::normalize::Normalization;
use serde::{Deserialize, Serialize};

/// A row-major matrix of draw features: one row per draw, one column per
/// [`FeatureKind`] of its schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMatrix {
    kinds: Vec<FeatureKind>,
    data: Vec<f64>,
    rows: usize,
}

impl FeatureMatrix {
    /// Creates an empty matrix with the given schema and row capacity hint.
    pub fn with_capacity(kinds: Vec<FeatureKind>, rows: usize) -> Self {
        let dim = kinds.len();
        FeatureMatrix {
            kinds,
            data: Vec::with_capacity(rows * dim),
            rows: 0,
        }
    }

    /// The feature schema (column meanings).
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// Number of rows (draws).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether every stored value is finite (no NaN or infinity). Feature
    /// extraction must only produce finite values; invariant checkers in
    /// the testkit assert this on arbitrary workloads.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the schema width.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.kinds.len(), "row width must match schema");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// The `i`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        let d = self.cols();
        &self.data[i * d..(i + 1) * d]
    }

    /// The row-major storage: row `i` is `as_slice()[i * cols()..(i + 1) *
    /// cols()]`. Clustering reads it in place as its point set.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Iterates over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols().max(1)).take(self.rows)
    }

    /// Copies the rows into owned vectors (the input format of
    /// `subset3d_stats::Pca`).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter_rows().map(<[f64]>::to_vec).collect()
    }

    /// One column's values.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols(), "column {c} out of range");
        self.iter_rows().map(|r| r[c]).collect()
    }

    /// Per-feature descriptive summaries of the matrix columns — the
    /// workload-characterisation view of a frame's feature distribution.
    pub fn column_summaries(&self) -> Vec<(FeatureKind, subset3d_stats::Summary)> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(c, &k)| (k, subset3d_stats::Summary::of(&self.column(c))))
            .collect()
    }

    /// Multiplies every column by its schema feature's
    /// [`FeatureKind::cost_weight`], emphasising cost-driving features in
    /// subsequent distance computations. Apply *after* normalisation.
    pub fn apply_cost_weights(&mut self) {
        let dim = self.cols();
        let weights: Vec<f64> = self.kinds.iter().map(|k| k.cost_weight()).collect();
        for r in 0..self.rows {
            for (c, &w) in weights.iter().enumerate() {
                self.data[r * dim + c] *= w;
            }
        }
    }

    /// Normalises every column in place. See [`Normalization`].
    pub fn normalize(&mut self, method: Normalization) {
        if self.rows == 0 || method == Normalization::None {
            return;
        }
        let dim = self.cols();
        for c in 0..dim {
            let col = self.column(c);
            let (offset, scale) = method.parameters(&col);
            for r in 0..self.rows {
                let v = &mut self.data[r * dim + c];
                *v = (*v - offset) / scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_kinds() -> Vec<FeatureKind> {
        vec![FeatureKind::VertexCount, FeatureKind::Coverage]
    }

    #[test]
    fn push_and_read_rows() {
        let mut m = FeatureMatrix::with_capacity(two_kinds(), 2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(1), vec![2.0, 4.0]);
        assert_eq!(m.to_rows(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_rejected() {
        let mut m = FeatureMatrix::with_capacity(two_kinds(), 1);
        m.push_row(&[1.0]);
    }

    #[test]
    fn zscore_normalization_centres_columns() {
        let mut m = FeatureMatrix::with_capacity(two_kinds(), 3);
        m.push_row(&[1.0, 10.0]);
        m.push_row(&[2.0, 20.0]);
        m.push_row(&[3.0, 30.0]);
        m.normalize(Normalization::ZScore);
        for c in 0..2 {
            let col = m.column(c);
            assert!(subset3d_stats::mean(&col).abs() < 1e-12);
            assert!((subset3d_stats::std_dev(&col) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn minmax_normalization_bounds_columns() {
        let mut m = FeatureMatrix::with_capacity(two_kinds(), 3);
        m.push_row(&[5.0, -1.0]);
        m.push_row(&[10.0, 0.0]);
        m.push_row(&[15.0, 3.0]);
        m.normalize(Normalization::MinMax);
        for c in 0..2 {
            let col = m.column(c);
            assert_eq!(subset3d_stats::min(&col), Some(0.0));
            assert_eq!(subset3d_stats::max(&col), Some(1.0));
        }
    }

    #[test]
    fn constant_column_survives_normalization() {
        let mut m = FeatureMatrix::with_capacity(two_kinds(), 2);
        m.push_row(&[7.0, 1.0]);
        m.push_row(&[7.0, 2.0]);
        m.normalize(Normalization::ZScore);
        let col = m.column(0);
        assert!(col.iter().all(|v| v.is_finite()));
        assert_eq!(col[0], col[1]);
    }

    #[test]
    fn none_normalization_is_identity() {
        let mut m = FeatureMatrix::with_capacity(two_kinds(), 1);
        m.push_row(&[2.0, 3.0]);
        let before = m.clone();
        m.normalize(Normalization::None);
        assert_eq!(m, before);
    }

    #[test]
    fn column_summaries_match_columns() {
        let mut m = FeatureMatrix::with_capacity(two_kinds(), 2);
        m.push_row(&[1.0, 10.0]);
        m.push_row(&[3.0, 30.0]);
        let summaries = m.column_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].0, FeatureKind::VertexCount);
        assert_eq!(summaries[0].1.mean, 2.0);
        assert_eq!(summaries[1].1.max, 30.0);
    }

    #[test]
    fn empty_matrix_noop() {
        let mut m = FeatureMatrix::with_capacity(two_kinds(), 0);
        m.normalize(Normalization::ZScore);
        assert!(m.is_empty());
    }
}
