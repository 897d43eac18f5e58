//! Correlation coefficients.
//!
//! The frequency-scaling validation experiment (paper abstract: "correlation
//! coefficient = 99.7%+") uses Pearson's r between the parent workload's
//! performance-improvement series and the subset's. A rank-agreement
//! helper supports the pathfinding rank-ordering experiment.

use crate::descriptive::mean;
use std::fmt;

/// Error produced by correlation routines on degenerate input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationError {
    /// Input series have different lengths.
    LengthMismatch {
        /// Length of the first series.
        left: usize,
        /// Length of the second series.
        right: usize,
    },
    /// Fewer than two paired observations were supplied.
    TooFewObservations,
    /// One of the series has zero variance, so the coefficient is undefined.
    ZeroVariance,
}

impl fmt::Display for CorrelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorrelationError::LengthMismatch { left, right } => {
                write!(f, "series lengths differ: {left} vs {right}")
            }
            CorrelationError::TooFewObservations => {
                write!(f, "need at least two paired observations")
            }
            CorrelationError::ZeroVariance => {
                write!(f, "a series has zero variance; correlation is undefined")
            }
        }
    }
}

impl std::error::Error for CorrelationError {}

/// Pearson product-moment correlation coefficient between two series.
///
/// # Errors
///
/// Returns [`CorrelationError::LengthMismatch`] when the series lengths
/// differ, [`CorrelationError::TooFewObservations`] for fewer than two pairs,
/// and [`CorrelationError::ZeroVariance`] when either series is constant.
///
/// # Examples
///
/// ```
/// let xs = [1.0, 2.0, 3.0];
/// let ys = [10.0, 20.0, 30.0];
/// let r = subset3d_stats::pearson(&xs, &ys)?;
/// assert!((r - 1.0).abs() < 1e-12);
/// # Ok::<(), subset3d_stats::CorrelationError>(())
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64, CorrelationError> {
    check_pair(xs, ys)?;
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(CorrelationError::ZeroVariance);
    }
    Ok(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Fraction of positions whose rank order agrees between two series.
///
/// Both series are ranked (descending, so index 0 of the returned ordering is
/// the largest value) and the fraction of positions at which the two rank
/// permutations place the same element is returned. `1.0` means the two
/// series rank all candidates identically — the property a good workload
/// subset must have for architecture pathfinding.
///
/// # Errors
///
/// Returns [`CorrelationError::LengthMismatch`] or
/// [`CorrelationError::TooFewObservations`] on degenerate input.
///
/// # Examples
///
/// ```
/// let parent = [3.0, 1.0, 2.0];
/// let subset = [30.0, 10.0, 20.0];
/// let a = subset3d_stats::rank_agreement(&parent, &subset)?;
/// assert_eq!(a, 1.0);
/// # Ok::<(), subset3d_stats::CorrelationError>(())
/// ```
pub fn rank_agreement(xs: &[f64], ys: &[f64]) -> Result<f64, CorrelationError> {
    check_pair(xs, ys)?;
    let ox = descending_order(xs);
    let oy = descending_order(ys);
    let agree = ox.iter().zip(&oy).filter(|(a, b)| a == b).count();
    Ok(agree as f64 / xs.len() as f64)
}

fn check_pair(xs: &[f64], ys: &[f64]) -> Result<(), CorrelationError> {
    if xs.len() != ys.len() {
        return Err(CorrelationError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(CorrelationError::TooFewObservations);
    }
    Ok(())
}

/// Indices of `values` sorted descending by value (stable on ties).
fn descending_order(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_negative() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_length_mismatch() {
        assert_eq!(
            pearson(&[1.0], &[1.0, 2.0]),
            Err(CorrelationError::LengthMismatch { left: 1, right: 2 })
        );
    }

    #[test]
    fn pearson_too_few() {
        assert_eq!(
            pearson(&[1.0], &[1.0]),
            Err(CorrelationError::TooFewObservations)
        );
    }

    #[test]
    fn pearson_zero_variance() {
        assert_eq!(
            pearson(&[1.0, 1.0], &[1.0, 2.0]),
            Err(CorrelationError::ZeroVariance)
        );
    }

    #[test]
    fn pearson_known_value() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 1.0, 4.0, 3.0, 5.0];
        let r = pearson(&xs, &ys).unwrap();
        assert!((r - 0.8).abs() < 1e-12);
    }

    #[test]
    fn rank_agreement_partial() {
        // Descending orders: xs -> [2,1,0]; ys -> [2,0,1]. Only position 0 agrees.
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 1.0, 3.0];
        let a = rank_agreement(&xs, &ys).unwrap();
        assert!((a - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_messages() {
        let e = CorrelationError::ZeroVariance;
        assert!(e.to_string().contains("zero variance"));
    }
}
