//! Distance between feature vectors.

/// Euclidean (L2) distance between two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds if the slices differ in length.
///
/// # Examples
///
/// ```
/// let d = subset3d_features::euclidean(&[0.0, 0.0], &[3.0, 4.0]);
/// assert_eq!(d, 5.0);
/// ```
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let v = [1.0, -2.0, 3.5];
        assert_eq!(euclidean(&v, &v), 0.0);
    }

    #[test]
    fn symmetry() {
        let a = [1.0, 2.0];
        let b = [-1.0, 5.0];
        assert_eq!(euclidean(&a, &b), euclidean(&b, &a));
    }

    #[test]
    fn triangle_inequality_euclidean() {
        let a = [0.0, 0.0];
        let b = [1.0, 1.0];
        let c = [2.0, 0.0];
        assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-12);
    }
}
