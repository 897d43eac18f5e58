//! Principal component analysis via power iteration with deflation.
//!
//! Operates on plain `&[Vec<f64>]` row data so that any crate in the
//! workspace can project points without depending on the feature-matrix
//! types. The workspace's one PCA: the clustering backends use it to
//! decorrelate feature vectors before agglomerative merging, and the
//! pipeline's optional projection step (the E13 dimensionality study)
//! fits it on a frame's feature rows.

use std::fmt;

/// Error produced when PCA cannot be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcaError {
    /// Fewer than two rows were supplied.
    TooFewRows,
    /// More components requested than dimensions exist.
    TooManyComponents {
        /// Components requested.
        requested: usize,
        /// Dimensionality available.
        available: usize,
    },
    /// The rows do not all share one dimensionality.
    RaggedRows,
}

impl fmt::Display for PcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcaError::TooFewRows => write!(f, "PCA needs at least two rows"),
            PcaError::TooManyComponents {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} components but only {available} dimensions exist"
                )
            }
            PcaError::RaggedRows => write!(f, "PCA rows must share one dimensionality"),
        }
    }
}

impl std::error::Error for PcaError {}

/// A fitted PCA model: the top-k principal directions of a row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    mean: Vec<f64>,
    components: Vec<Vec<f64>>,
    explained_variance: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits the top `k` principal components of `rows`.
    ///
    /// # Errors
    ///
    /// Returns [`PcaError::TooFewRows`] for fewer than two rows,
    /// [`PcaError::TooManyComponents`] when `k` exceeds the row
    /// dimensionality, and [`PcaError::RaggedRows`] when rows disagree on
    /// dimensionality.
    pub fn fit(rows: &[Vec<f64>], k: usize) -> Result<Self, PcaError> {
        let n = rows.len();
        if n < 2 {
            return Err(PcaError::TooFewRows);
        }
        let d = rows[0].len();
        if rows.iter().any(|r| r.len() != d) {
            return Err(PcaError::RaggedRows);
        }
        if k > d {
            return Err(PcaError::TooManyComponents {
                requested: k,
                available: d,
            });
        }

        let mut mean = vec![0.0; d];
        for row in rows {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }

        // Covariance matrix (d×d), fine for the small dimensionalities the
        // feature pipeline produces (d ≈ 20).
        let mut cov = vec![vec![0.0; d]; d];
        for row in rows {
            for i in 0..d {
                let di = row[i] - mean[i];
                for j in i..d {
                    cov[i][j] += di * (row[j] - mean[j]);
                }
            }
        }
        // Index-based on purpose: the upper triangle is mirrored into the
        // lower one, so both `cov[i]` and `cov[j]` are written per step.
        #[allow(clippy::needless_range_loop)]
        for i in 0..d {
            for j in i..d {
                cov[i][j] /= (n - 1) as f64;
                cov[j][i] = cov[i][j];
            }
        }
        let total_variance: f64 = (0..d).map(|i| cov[i][i]).sum();

        let mut components = Vec::with_capacity(k);
        let mut explained = Vec::with_capacity(k);
        let mut work = cov;
        for c in 0..k {
            let (vector, value) = dominant_eigenpair(&work, 1 + c as u64);
            if value <= 1e-12 {
                // Remaining variance is numerically zero; stop early.
                break;
            }
            deflate(&mut work, &vector, value);
            components.push(vector);
            explained.push(value);
        }

        Ok(Pca {
            mean,
            components,
            explained_variance: explained,
            total_variance,
        })
    }

    /// The principal directions (unit vectors), strongest first.
    pub fn components(&self) -> &[Vec<f64>] {
        &self.components
    }

    /// Variance captured by each returned component.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of total variance captured by the returned components.
    pub fn explained_ratio(&self) -> f64 {
        if self.total_variance <= 0.0 {
            return 1.0;
        }
        self.explained_variance.iter().sum::<f64>() / self.total_variance
    }

    /// Projects one row onto the fitted components.
    pub fn project(&self, row: &[f64]) -> Vec<f64> {
        self.components
            .iter()
            .map(|c| {
                c.iter()
                    .zip(row.iter().zip(&self.mean))
                    .map(|(ci, (&v, &m))| ci * (v - m))
                    .sum()
            })
            .collect()
    }
}

/// Power iteration for the dominant eigenpair of a symmetric matrix.
fn dominant_eigenpair(m: &[Vec<f64>], seed: u64) -> (Vec<f64>, f64) {
    let d = m.len();
    // Deterministic pseudo-random start vector (splitmix-style hash).
    let mut v: Vec<f64> = (0..d)
        .map(|i| {
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58476D1CE4E5B9);
            x ^= x >> 27;
            (x as f64 / u64::MAX as f64) - 0.5
        })
        .collect();
    normalize(&mut v);
    let mut value = 0.0;
    for _ in 0..300 {
        let mut next = vec![0.0; d];
        for (i, next_i) in next.iter_mut().enumerate() {
            *next_i = m[i].iter().zip(&v).map(|(a, b)| a * b).sum();
        }
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm <= 1e-300 {
            return (v, 0.0);
        }
        for x in &mut next {
            *x /= norm;
        }
        let delta: f64 = next.iter().zip(&v).map(|(a, b)| (a - b).abs()).sum();
        v = next;
        value = norm;
        if delta < 1e-12 {
            break;
        }
    }
    (v, value)
}

fn deflate(m: &mut [Vec<f64>], vector: &[f64], value: f64) {
    let d = m.len();
    for i in 0..d {
        for j in 0..d {
            m[i][j] -= value * vector[i] * vector[j];
        }
    }
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_dominant_direction() {
        // Points along y = 2x with tiny perpendicular noise.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 10.0;
                let noise = if i % 2 == 0 { 0.01 } else { -0.01 };
                vec![t + noise * 2.0, 2.0 * t - noise]
            })
            .collect();
        let pca = Pca::fit(&rows, 1).unwrap();
        let c = &pca.components()[0];
        let slope = c[1] / c[0];
        assert!((slope - 2.0).abs() < 0.01, "slope {slope}");
        assert!(pca.explained_ratio() > 0.99);
    }

    #[test]
    fn components_are_orthonormal() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let x = (i as f64 * 0.7).sin() * 3.0;
                let y = (i as f64 * 1.3).cos() * 2.0;
                let z = (i as f64 * 2.1).sin();
                vec![x, y, z]
            })
            .collect();
        let pca = Pca::fit(&rows, 3).unwrap();
        let cs = pca.components();
        for i in 0..cs.len() {
            let norm: f64 = cs[i].iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-6, "component {i} norm {norm}");
            for j in i + 1..cs.len() {
                let dot: f64 = cs[i].iter().zip(&cs[j]).map(|(a, b)| a * b).sum();
                assert!(dot.abs() < 1e-6, "components {i},{j} dot {dot}");
            }
        }
    }

    #[test]
    fn explained_variances_descend() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i as f64 * 0.1).sin(), 0.01 * i as f64])
            .collect();
        let pca = Pca::fit(&rows, 3).unwrap();
        let ev = pca.explained_variance();
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn projection_dimension_matches_components() {
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![i as f64, 2.0 * i as f64, 0.0])
            .collect();
        let pca = Pca::fit(&rows, 2).unwrap();
        let p = pca.project(&rows[3]);
        assert_eq!(p.len(), pca.components().len());
    }

    #[test]
    fn constant_data_stops_early() {
        let rows: Vec<Vec<f64>> = (0..10).map(|_| vec![1.0, 2.0]).collect();
        let pca = Pca::fit(&rows, 2).unwrap();
        assert!(pca.components().is_empty());
        assert_eq!(pca.explained_ratio(), 1.0);
    }

    #[test]
    fn errors_on_degenerate_input() {
        let one = vec![vec![1.0, 2.0]];
        assert_eq!(Pca::fit(&one, 1), Err(PcaError::TooFewRows));
        let two = vec![vec![1.0, 2.0], vec![2.0, 3.0]];
        assert!(matches!(
            Pca::fit(&two, 5),
            Err(PcaError::TooManyComponents {
                requested: 5,
                available: 2
            })
        ));
        let ragged = vec![vec![1.0, 2.0], vec![2.0]];
        assert_eq!(Pca::fit(&ragged, 1), Err(PcaError::RaggedRows));
    }

    #[test]
    fn deterministic_across_fits() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 0.3).sin(), (i as f64 * 0.9).cos()])
            .collect();
        assert_eq!(Pca::fit(&rows, 2).unwrap(), Pca::fit(&rows, 2).unwrap());
    }
}
