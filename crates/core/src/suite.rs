//! Suite-level subsetting: the paper's actual setting.
//!
//! Pathfinding evaluates a *suite* of games (the paper's corpus spans 717
//! frames across several titles). This module orchestrates the pipeline
//! over a suite and aggregates the corpus-level metrics the paper reports
//! as averages.

use crate::config::SubsetConfig;
use crate::error::SubsetError;
use crate::pipeline::{Subsetter, SubsettingOutcome};
use subset3d_gpusim::{ArchConfig, FrequencySweep, Simulator};
use subset3d_stats::{mean, pearson};
use subset3d_trace::Workload;

/// The pipeline outcome for every game of a suite, plus aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteOutcome {
    /// `(game name, outcome)` per suite member, in input order.
    pub games: Vec<(String, SubsettingOutcome)>,
}

impl SuiteOutcome {
    /// Corpus-average per-frame prediction error (paper: 1.0 %).
    pub fn mean_prediction_error(&self) -> f64 {
        mean(
            &self
                .games
                .iter()
                .map(|(_, o)| o.evaluation.mean_prediction_error())
                .collect::<Vec<_>>(),
        )
    }

    /// Corpus-average clustering efficiency (paper: 65.8 %).
    pub fn mean_efficiency(&self) -> f64 {
        mean(
            &self
                .games
                .iter()
                .map(|(_, o)| o.evaluation.mean_efficiency())
                .collect::<Vec<_>>(),
        )
    }

    /// Corpus-average outlier fraction (paper: 3.0 %).
    pub fn mean_outlier_fraction(&self) -> f64 {
        mean(
            &self
                .games
                .iter()
                .map(|(_, o)| o.evaluation.outlier_fraction())
                .collect::<Vec<_>>(),
        )
    }

    /// Suite-wide subset size: kept draws over parent draws across all
    /// games.
    pub fn suite_draw_fraction(&self, workloads: &[Workload]) -> f64 {
        let kept: usize = self
            .games
            .iter()
            .map(|(_, o)| o.subset.selected_draw_count())
            .sum();
        let parent: usize = workloads.iter().map(Workload::total_draws).sum();
        if parent == 0 {
            0.0
        } else {
            kept as f64 / parent as f64
        }
    }

    /// Number of games in the suite.
    pub fn len(&self) -> usize {
        self.games.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.games.is_empty()
    }
}

/// Runs the subsetting pipeline over every game of a suite.
///
/// # Errors
///
/// Fails on the first game whose pipeline fails (suite evaluation is
/// all-or-nothing: a partially subset suite cannot back pathfinding
/// decisions).
///
/// # Examples
///
/// ```
/// use subset3d_core::{subset_suite, SubsetConfig};
/// use subset3d_gpusim::{ArchConfig, Simulator};
/// use subset3d_trace::gen::GameProfile;
///
/// let suite = vec![
///     GameProfile::shooter("a").frames(10).draws_per_frame(40).build(1).generate(),
///     GameProfile::rts("b").frames(10).draws_per_frame(40).build(2).generate(),
/// ];
/// let sim = Simulator::new(ArchConfig::baseline());
/// let outcome = subset_suite(&suite, &SubsetConfig::default(), &sim)?;
/// assert_eq!(outcome.len(), 2);
/// # Ok::<(), subset3d_core::SubsetError>(())
/// ```
pub fn subset_suite(
    workloads: &[Workload],
    config: &SubsetConfig,
    sim: &Simulator,
) -> Result<SuiteOutcome, SubsetError> {
    let subsetter = Subsetter::new(config.clone());
    let mut games = Vec::with_capacity(workloads.len());
    for w in workloads {
        games.push((w.name.clone(), subsetter.run(w, sim)?));
    }
    Ok(SuiteOutcome { games })
}

/// Validates the whole suite under frequency scaling: the *suite-total*
/// parent time vs the suite-total subset estimate, as a pathfinder would
/// aggregate it. Returns `(parent improvements, subset improvements,
/// Pearson r)`.
///
/// # Errors
///
/// Returns [`SubsetError::Simulation`] with
/// [`subset3d_gpusim::SimError::InvalidConfig`] when `base` is invalid at
/// any swept clock, before simulating; propagates simulator/subset
/// errors; fails when the sweep has fewer than two points.
pub fn validate_suite_scaling(
    workloads: &[Workload],
    outcome: &SuiteOutcome,
    base: &ArchConfig,
    sweep: &FrequencySweep,
) -> Result<(Vec<f64>, Vec<f64>, f64), SubsetError> {
    let configs = sweep.configs(base);
    configs.iter().try_for_each(ArchConfig::validate)?;
    let mut parent_times = Vec::with_capacity(sweep.len());
    let mut subset_times = Vec::with_capacity(sweep.len());
    for config in configs {
        let sim = Simulator::new(config);
        let mut parent = 0.0;
        let mut subset = 0.0;
        for (w, (_, o)) in workloads.iter().zip(&outcome.games) {
            parent += sim.simulate_workload(w)?.total_ns;
            subset += o.subset.replay(w, &sim)?;
        }
        parent_times.push(parent);
        subset_times.push(subset);
    }
    let parent_improvement = FrequencySweep::improvement_series(&parent_times);
    let subset_improvement = FrequencySweep::improvement_series(&subset_times);
    let r = pearson(&parent_improvement, &subset_improvement).map_err(|e| {
        SubsetError::InvalidConfig {
            reason: format!("suite correlation undefined: {e}"),
        }
    })?;
    Ok((parent_improvement, subset_improvement, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    fn suite() -> Vec<Workload> {
        vec![
            GameProfile::shooter("a")
                .frames(12)
                .draws_per_frame(60)
                .build(51)
                .generate(),
            GameProfile::racing("b")
                .frames(12)
                .draws_per_frame(60)
                .build(52)
                .generate(),
        ]
    }

    #[test]
    fn suite_outcome_aggregates() {
        let workloads = suite();
        let sim = Simulator::new(ArchConfig::baseline());
        let outcome = subset_suite(&workloads, &SubsetConfig::default(), &sim).unwrap();
        assert_eq!(outcome.len(), 2);
        assert!(!outcome.is_empty());
        assert!(outcome.mean_efficiency() > 0.0);
        assert!(outcome.mean_prediction_error() < 0.1);
        assert!(outcome.mean_outlier_fraction() < 0.2);
        let fraction = outcome.suite_draw_fraction(&workloads);
        assert!(fraction > 0.0 && fraction < 1.0);
    }

    #[test]
    fn suite_scaling_correlates() {
        let workloads = suite();
        let sim = Simulator::new(ArchConfig::baseline());
        let outcome = subset_suite(&workloads, &SubsetConfig::default(), &sim).unwrap();
        let sweep = FrequencySweep::new(vec![500.0, 900.0, 1300.0]);
        let (parent, subset, r) =
            validate_suite_scaling(&workloads, &outcome, &ArchConfig::baseline(), &sweep).unwrap();
        assert_eq!(parent.len(), 3);
        assert_eq!(subset.len(), 3);
        assert!(r > 0.99, "r = {r}");
    }

    #[test]
    fn suite_scaling_rejects_an_invalid_base() {
        let workloads = suite();
        let sim = Simulator::new(ArchConfig::baseline());
        let outcome = subset_suite(&workloads, &SubsetConfig::default(), &sim).unwrap();
        let mut base = ArchConfig::baseline();
        base.eu_count = 0;
        let sweep = FrequencySweep::new(vec![500.0, 900.0]);
        assert!(matches!(
            validate_suite_scaling(&workloads, &outcome, &base, &sweep),
            Err(SubsetError::Simulation(
                subset3d_gpusim::SimError::InvalidConfig { .. }
            ))
        ));
    }

    #[test]
    fn empty_suite_is_empty_outcome() {
        let sim = Simulator::new(ArchConfig::baseline());
        let outcome = subset_suite(&[], &SubsetConfig::default(), &sim).unwrap();
        assert!(outcome.is_empty());
        assert_eq!(outcome.suite_draw_fraction(&[]), 0.0);
    }

    #[test]
    fn suite_fails_fast_on_bad_config() {
        let workloads = suite();
        let sim = Simulator::new(ArchConfig::baseline());
        let bad = SubsetConfig::default().with_interval_len(0);
        assert!(subset_suite(&workloads, &bad, &sim).is_err());
    }
}
