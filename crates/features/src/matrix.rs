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

    /// Normalises every column in place: `(v - offset) / scale` with each
    /// column's own parameters. [`Normalization::ZScore`] uses the
    /// column's mean and sample standard deviation, [`Normalization::MinMax`]
    /// its NaN-skipping minimum and range; a zero or NaN spread scales by
    /// `1.0` so a degenerate column never divides by zero.
    ///
    /// Per-column accumulators advance row by row over the row-major
    /// storage, so every column sees the operations of
    /// `subset3d_stats::{mean, std_dev, min, max}` in the same row order
    /// and the result is bit-identical to normalising column by column.
    pub fn normalize(&mut self, method: Normalization) {
        let dim = self.cols();
        if self.rows == 0 || dim == 0 {
            return;
        }
        let (offsets, scales) = match method {
            Normalization::None => return,
            Normalization::ZScore => self.zscore_parameters(),
            Normalization::MinMax => self.minmax_parameters(),
        };
        for row in self.data.chunks_exact_mut(dim) {
            for ((v, &offset), &scale) in row.iter_mut().zip(&offsets).zip(&scales) {
                *v = (*v - offset) / scale;
            }
        }
    }

    /// Per-column `(mean, sd)` for z-scoring: the Kahan mean of
    /// `subset3d_stats::mean`, then the plain sum of squared deviations
    /// of `subset3d_stats::variance`.
    fn zscore_parameters(&self) -> (Vec<f64>, Vec<f64>) {
        let dim = self.cols();
        let mut means = vec![0.0f64; dim];
        let mut comps = vec![0.0f64; dim];
        for row in self.data.chunks_exact(dim) {
            for ((acc, comp), &v) in means.iter_mut().zip(&mut comps).zip(row) {
                let y = v - *comp;
                let t = *acc + y;
                *comp = (t - *acc) - y;
                *acc = t;
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        if self.rows < 2 {
            // Sample variance of fewer than two values is 0: unit scale.
            return (means, vec![1.0; dim]);
        }
        // Sums of squared deviations, turned into scales in place.
        let mut scales = vec![0.0f64; dim];
        for row in self.data.chunks_exact(dim) {
            for ((ss, &m), &v) in scales.iter_mut().zip(&means).zip(row) {
                *ss += (v - m) * (v - m);
            }
        }
        for ss in &mut scales {
            *ss = divisor((*ss / (self.rows - 1) as f64).sqrt());
        }
        (means, scales)
    }

    /// Per-column `(min, range)` for min-max scaling, from the NaN-skipping
    /// folds of `subset3d_stats::{min, max}`; an all-NaN column reads as
    /// `0.0`.
    fn minmax_parameters(&self) -> (Vec<f64>, Vec<f64>) {
        let dim = self.cols();
        let mut lo: Vec<Option<f64>> = vec![None; dim];
        let mut hi: Vec<Option<f64>> = vec![None; dim];
        for row in self.data.chunks_exact(dim) {
            for ((lo, hi), &v) in lo.iter_mut().zip(&mut hi).zip(row) {
                if !v.is_nan() {
                    *lo = Some(lo.map_or(v, |a| a.min(v)));
                    *hi = Some(hi.map_or(v, |a| a.max(v)));
                }
            }
        }
        let offsets: Vec<f64> = lo.iter().map(|l| l.unwrap_or(0.0)).collect();
        let scales = hi
            .iter()
            .zip(&offsets)
            .map(|(h, &l)| divisor(h.unwrap_or(0.0) - l))
            .collect();
        (offsets, scales)
    }
}

/// A column's spread as its normalisation divisor: a zero or NaN spread
/// divides by `1.0`.
fn divisor(spread: f64) -> f64 {
    if spread > 0.0 {
        spread
    } else {
        1.0
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
