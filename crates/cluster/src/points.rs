//! The flat point set every fit reads: one borrowed row-major buffer.

/// A borrowed row-major point set: `len()` rows of `dim()` coordinates,
/// row `i` at `data[i * dim..(i + 1) * dim]`.
///
/// This is the input boundary of the clustering substrate. Feature
/// matrices hand their storage over as-is, so a fit never allocates one
/// vector per point.
///
/// A zero-dimensional view holds no rows.
///
/// # Examples
///
/// ```
/// use subset3d_cluster::Points;
///
/// let data = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
/// let points = Points::new(&data, 2);
/// assert_eq!(points.len(), 3);
/// assert_eq!(points.row(1), &[2.0, 3.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Points<'a> {
    data: &'a [f64],
    dim: usize,
}

impl<'a> Points<'a> {
    /// Views `data` as rows of `dim` coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`, or if `dim` is
    /// zero and `data` is not empty.
    pub fn new(data: &'a [f64], dim: usize) -> Self {
        // A zero divisor accepts only an empty buffer.
        assert!(
            data.len().is_multiple_of(dim),
            "{} values do not form rows of {dim}",
            data.len()
        );
        Points { data, dim }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Whether the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Coordinates per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The rows, in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'a, f64> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Copies the rows into owned vectors, for algorithms that work on
    /// per-row storage.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }

    /// Copies the rows at `order` into one new row-major buffer, in that
    /// order.
    pub fn gather(&self, order: &[usize]) -> Vec<f64> {
        let mut out = Vec::with_capacity(order.len() * self.dim);
        for &i in order {
            out.extend_from_slice(self.row(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_follow_the_buffer() {
        let data = [1.0, 2.0, 3.0, 4.0];
        let p = Points::new(&data, 2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.to_rows(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(p.gather(&[1, 0, 1]), vec![3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn zero_dim_view_is_empty() {
        let p = Points::new(&[], 0);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.rows().count(), 0);
    }

    #[test]
    #[should_panic(expected = "do not form rows")]
    fn ragged_buffer_rejected() {
        Points::new(&[1.0, 2.0, 3.0], 2);
    }
}
