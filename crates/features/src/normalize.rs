//! Column normalisation strategies.

use serde::{Deserialize, Serialize};

/// How feature columns are rescaled before distance computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Normalization {
    /// Subtract the mean, divide by the standard deviation (the paper-style
    /// default: every feature contributes comparably to distances).
    #[default]
    ZScore,
    /// Rescale to `[0, 1]` by the column's range.
    MinMax,
    /// Leave values untouched.
    None,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zscore() {
        assert_eq!(Normalization::default(), Normalization::ZScore);
    }
}
