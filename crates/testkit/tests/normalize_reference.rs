//! Differential test of the feature normaliser: the production one-pass
//! `FeatureMatrix::normalize` against the frozen column-at-a-time
//! reference in `subset3d_testkit::reference`, compared bit for bit after
//! normalising and then cost-weighting, for every `Normalization`.
//!
//! Inputs cover 0 to 24 columns and 0 to 300 rows (1 and 2 rows, where
//! the sample variance degenerates, on their own), constant columns, and
//! `-0.0`, ±inf, NaN and magnitudes near 1e300 in any cell, so that
//! overflowing sums and Kahan compensation are both exercised.

use proptest::prelude::*;
use subset3d_features::{FeatureKind, FeatureMatrix, Normalization};
use subset3d_testkit::reference;

const METHODS: [Normalization; 3] = [
    Normalization::ZScore,
    Normalization::MinMax,
    Normalization::None,
];

/// Values a cell takes instead of its column's value, at the case's
/// special rate.
const SPECIALS: [f64; 9] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    1e300,
    -1e300,
    f64::MAX,
    f64::MIN_POSITIVE,
];

/// Column scales: unit grid values, tiny, large, and near 1e300 where a
/// few rows overflow the running sum.
const SCALES: [f64; 5] = [1.0, 1e-3, 1e8, 1e150, 1e300];

/// SplitMix64: expands one case seed into the matrix.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[-0.5, 0.5)`.
    fn centred(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// A `rows × dim` matrix. Each column is constant (one in five), on a
/// coarse grid, continuous at one of [`SCALES`], or a mix of 1e300-sized
/// and unit values; `special_per_mille` of the cells are then replaced
/// by one of [`SPECIALS`]. Column kinds cycle through every feature, so
/// cost weighting differs per column.
fn matrix(seed: u64, rows: usize, dim: usize, special_per_mille: u64) -> FeatureMatrix {
    let mut mix = Mix(seed);
    let columns: Vec<(u64, f64, f64)> = (0..dim)
        .map(|_| {
            let mode = mix.below(5);
            let scale = SCALES[mix.below(SCALES.len() as u64) as usize];
            (mode, scale, mix.centred() * scale)
        })
        .collect();
    let kinds = (0..dim)
        .map(|c| FeatureKind::ALL[c % FeatureKind::ALL.len()])
        .collect();
    let mut m = FeatureMatrix::with_capacity(kinds, rows);
    let mut row = vec![0.0; dim];
    for _ in 0..rows {
        for (v, &(mode, scale, constant)) in row.iter_mut().zip(&columns) {
            *v = match mode {
                0 => constant,
                1 => (mix.below(9) as f64 - 4.0) * 0.5 * scale,
                2 | 3 => mix.centred() * scale,
                _ if mix.below(2) == 0 => mix.centred() * 1e300,
                _ => mix.centred(),
            };
            if mix.below(1000) < special_per_mille {
                *v = SPECIALS[mix.below(SPECIALS.len() as u64) as usize];
            }
        }
        m.push_row(&row);
    }
    m
}

fn bits(m: &FeatureMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Normalises then cost-weights `m` both ways and compares every bit.
fn check(m: &FeatureMatrix, method: Normalization) -> Result<(), String> {
    let mut got = m.clone();
    got.normalize(method);
    let mut want = reference::normalize(m, method);
    if got.rows() != want.rows() || got.cols() != want.cols() {
        return Err(format!(
            "{method:?}: shape {}x{} vs reference {}x{}",
            got.rows(),
            got.cols(),
            want.rows(),
            want.cols()
        ));
    }
    for stage in ["normalize", "apply_cost_weights"] {
        if stage == "apply_cost_weights" {
            got.apply_cost_weights();
            want.apply_cost_weights();
        }
        let (g, w) = (bits(&got), bits(&want));
        if let Some(i) = (0..g.len()).find(|&i| g[i] != w[i]) {
            let dim = m.cols();
            return Err(format!(
                "{method:?} after {stage}: row {} col {} is {:#018x} ({}), reference {:#018x} ({}); \
                 input {}",
                i / dim,
                i % dim,
                g[i],
                f64::from_bits(g[i]),
                w[i],
                f64::from_bits(w[i]),
                m.as_slice()[i],
            ));
        }
    }
    Ok(())
}

/// Every column count at the row counts where the parameters degenerate:
/// no rows, one row (zero variance by definition), two and three rows.
/// Zero columns with rows must not panic either.
#[test]
fn small_matrices_match_reference_at_every_width() {
    for dim in 0..=24 {
        for rows in 0..=3 {
            for special_per_mille in [0, 300] {
                let seed = (dim * 31 + rows) as u64 ^ special_per_mille;
                let m = matrix(seed, rows, dim, special_per_mille);
                for method in METHODS {
                    check(&m, method).unwrap();
                }
            }
        }
    }
}

/// Kahan compensation decides the mean: a huge value, many unit values
/// and its negation. A naive sum loses the unit values; both normalisers
/// must keep them, and agree on every bit.
#[test]
fn compensated_mean_matches_reference() {
    let kinds = vec![FeatureKind::VertexCount, FeatureKind::Coverage];
    let mut m = FeatureMatrix::with_capacity(kinds, 1002);
    m.push_row(&[1e16, 1e300]);
    for _ in 0..1000 {
        m.push_row(&[1.0, 1.0]);
    }
    m.push_row(&[-1e16, -1e300]);
    let col = m.column(0);
    let naive = col.iter().sum::<f64>() / col.len() as f64;
    assert_ne!(
        naive.to_bits(),
        subset3d_stats::mean(&col).to_bits(),
        "input must separate a naive mean from the compensated one"
    );
    for method in METHODS {
        check(&m, method).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random shapes, column modes and special densities.
    #[test]
    fn normalize_matches_reference(
        seed in any::<u64>(),
        tiny in 0usize..8,
        rows in 0usize..=300,
        dim in 0usize..=24,
        special_per_mille in 0u64..=250,
    ) {
        // Three cases in eight use 0, 1 or 2 rows.
        let rows = if tiny < 3 { tiny } else { rows };
        let m = matrix(seed, rows, dim, special_per_mille);
        for method in METHODS {
            if let Err(msg) = check(&m, method) {
                panic!("{msg}");
            }
        }
    }
}
