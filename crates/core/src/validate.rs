//! Subset validation: does the subset respond to architecture changes like
//! its parent?

use crate::error::SubsetError;
use crate::subset::WorkloadSubset;
use serde::{Deserialize, Serialize};
use subset3d_gpusim::{sweep_configs, sweep_frequencies, ArchConfig, FrequencySweep, Simulator};
use subset3d_stats::{pearson, rank_agreement};
use subset3d_trace::Workload;

/// Result of the frequency-scaling validation (paper: correlation ≥ 99.7 %).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingValidation {
    /// Swept core clocks in MHz.
    pub points_mhz: Vec<f64>,
    /// Parent workload performance improvement per point (relative to the
    /// first point).
    pub parent_improvement: Vec<f64>,
    /// Subset performance improvement per point.
    pub subset_improvement: Vec<f64>,
    /// Pearson correlation between the two improvement series.
    pub correlation: f64,
}

/// Sweeps GPU core frequency and correlates the parent's performance
/// improvement with the subset's — the paper's headline validation.
///
/// The parent's totals come from one [`sweep_frequencies`] walk over its
/// batches; the subset is replayed on one [`Simulator`] per clock.
///
/// # Errors
///
/// Returns [`SubsetError::Simulation`] with
/// [`subset3d_gpusim::SimError::InvalidConfig`] when `base` is invalid at
/// any swept clock, before simulating;
/// propagates simulator and subset errors; also fails when the sweep has
/// fewer than two points (correlation undefined).
///
/// # Examples
///
/// ```
/// use subset3d_core::{frequency_scaling_validation, SubsetConfig, Subsetter};
/// use subset3d_gpusim::{ArchConfig, FrequencySweep, Simulator};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(20).draws_per_frame(40).build(3).generate();
/// let sim = Simulator::new(ArchConfig::baseline());
/// let outcome = Subsetter::new(SubsetConfig::default()).run(&w, &sim)?;
/// let sweep = FrequencySweep::new(vec![500.0, 800.0, 1100.0]);
/// let validation =
///     frequency_scaling_validation(&w, &outcome.subset, &ArchConfig::baseline(), &sweep)?;
/// assert!(validation.correlation > 0.9);
/// # Ok::<(), subset3d_core::SubsetError>(())
/// ```
pub fn frequency_scaling_validation(
    workload: &Workload,
    subset: &WorkloadSubset,
    base: &ArchConfig,
    sweep: &FrequencySweep,
) -> Result<ScalingValidation, SubsetError> {
    let parent_times: Vec<f64> = sweep_frequencies(workload, base, sweep)?
        .iter()
        .map(|point| point.total_ns)
        .collect();
    let subset_times = sweep
        .configs(base)
        .into_iter()
        .map(|config| subset.replay(workload, &Simulator::new(config)))
        .collect::<Result<Vec<_>, _>>()?;
    let parent_improvement = FrequencySweep::improvement_series(&parent_times);
    let subset_improvement = FrequencySweep::improvement_series(&subset_times);
    let correlation = pearson(&parent_improvement, &subset_improvement).map_err(|e| {
        SubsetError::InvalidConfig {
            reason: format!("scaling correlation undefined: {e}"),
        }
    })?;
    Ok(ScalingValidation {
        points_mhz: sweep.points_mhz().to_vec(),
        parent_improvement,
        subset_improvement,
        correlation,
    })
}

/// Ranks candidate architectures by parent simulation and by subset replay,
/// returning `(parent times, subset estimates, rank agreement)` where rank
/// agreement is the fraction of rank positions on which the two orderings
/// agree (`1.0` = the subset picks the same winner ordering).
///
/// The parent's times come from one [`sweep_configs`] walk over its
/// batches; the subset is replayed on one [`Simulator`] per candidate.
///
/// # Errors
///
/// Returns [`SubsetError::Simulation`] with
/// [`subset3d_gpusim::SimError::InvalidConfig`] for an invalid candidate,
/// before simulating; propagates simulator and subset errors; fails for
/// fewer than two candidates.
pub fn pathfinding_rank_validation(
    workload: &Workload,
    subset: &WorkloadSubset,
    candidates: &[ArchConfig],
) -> Result<(Vec<f64>, Vec<f64>, f64), SubsetError> {
    let parent: Vec<f64> = sweep_configs(workload, candidates)?
        .iter()
        .map(|point| point.total_ns)
        .collect();
    let estimate = candidates
        .iter()
        .map(|config| subset.replay(workload, &Simulator::new(config.clone())))
        .collect::<Result<Vec<_>, _>>()?;
    let agreement = rank_agreement(&parent, &estimate).map_err(|e| SubsetError::InvalidConfig {
        reason: format!("rank agreement undefined: {e}"),
    })?;
    Ok((parent, estimate, agreement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubsetConfig;
    use crate::pipeline::Subsetter;
    use crate::suite::{subset_suite, validate_suite_scaling};
    use subset3d_gpusim::SimError;
    use subset3d_trace::gen::GameProfile;

    fn setup() -> (Workload, WorkloadSubset) {
        let w = GameProfile::shooter("t")
            .frames(30)
            .draws_per_frame(80)
            .build(19)
            .generate();
        let sim = Simulator::new(ArchConfig::baseline());
        let outcome = Subsetter::new(SubsetConfig::default())
            .run(&w, &sim)
            .unwrap();
        (w, outcome.subset)
    }

    #[test]
    fn scaling_correlation_is_high() {
        let (w, subset) = setup();
        let sweep = FrequencySweep::new(vec![400.0, 700.0, 1000.0, 1300.0]);
        let v = frequency_scaling_validation(&w, &subset, &ArchConfig::baseline(), &sweep).unwrap();
        assert_eq!(v.parent_improvement.len(), 4);
        assert_eq!(v.parent_improvement[0], 1.0);
        assert!(v.correlation > 0.99, "correlation {}", v.correlation);
        // Improvements are monotone with clock for both series.
        assert!(v.parent_improvement.windows(2).all(|x| x[1] >= x[0]));
        assert!(v.subset_improvement.windows(2).all(|x| x[1] >= x[0]));
    }

    #[test]
    fn single_point_sweep_errors() {
        let (w, subset) = setup();
        let sweep = FrequencySweep::new(vec![1000.0]);
        assert!(matches!(
            frequency_scaling_validation(&w, &subset, &ArchConfig::baseline(), &sweep),
            Err(SubsetError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn rank_validation_agrees_mostly() {
        let (w, subset) = setup();
        let (parent, estimate, agreement) =
            pathfinding_rank_validation(&w, &subset, &ArchConfig::pathfinding_candidates())
                .unwrap();
        assert_eq!(parent.len(), 6);
        assert_eq!(estimate.len(), 6);
        assert!(agreement >= 0.5, "agreement {agreement}");
    }

    #[test]
    fn parent_times_match_a_simulator_per_config() {
        // 1,200 draws per game, so each sweep walk fans out over the pool.
        let suite = [GameProfile::shooter("a"), GameProfile::rts("b")]
            .map(|game| game.frames(12).draws_per_frame(100).build(23).generate());
        let sim = Simulator::new(ArchConfig::baseline());
        let outcome = subset_suite(&suite, &SubsetConfig::default(), &sim).unwrap();
        let base = ArchConfig::baseline();
        let sweep = FrequencySweep::standard();
        let candidates = ArchConfig::pathfinding_candidates();
        let total = |w: &Workload, c: &ArchConfig| {
            let sim = Simulator::new(c.clone());
            sim.simulate_workload(w).unwrap().total_ns
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut suite_times = vec![0.0; sweep.len()];
        for (w, (_, o)) in suite.iter().zip(&outcome.games) {
            let per_clock: Vec<f64> = sweep.configs(&base).iter().map(|c| total(w, c)).collect();
            let v = frequency_scaling_validation(w, &o.subset, &base, &sweep).unwrap();
            assert_eq!(
                bits(&v.parent_improvement),
                bits(&FrequencySweep::improvement_series(&per_clock))
            );
            for (sum, time) in suite_times.iter_mut().zip(&per_clock) {
                *sum += time;
            }

            let per_candidate: Vec<f64> = candidates.iter().map(|c| total(w, c)).collect();
            let (parent, _, _) = pathfinding_rank_validation(w, &o.subset, &candidates).unwrap();
            assert_eq!(bits(&parent), bits(&per_candidate));
        }
        let (parent, _, _) = validate_suite_scaling(&suite, &outcome, &base, &sweep).unwrap();
        assert_eq!(
            bits(&parent),
            bits(&FrequencySweep::improvement_series(&suite_times))
        );
    }

    fn invalid(name: &str) -> ArchConfig {
        let mut config = ArchConfig::baseline();
        config.name = name.to_string();
        config.eu_count = 0;
        config
    }

    #[test]
    fn scaling_validation_rejects_an_invalid_base() {
        let (w, subset) = setup();
        let sweep = FrequencySweep::new(vec![500.0, 1000.0]);
        // The first swept config names the failure.
        assert!(matches!(
            frequency_scaling_validation(&w, &subset, &invalid("bad"), &sweep),
            Err(SubsetError::Simulation(SimError::InvalidConfig { name })) if name == "bad@500MHz"
        ));
    }

    #[test]
    fn rank_validation_rejects_an_invalid_candidate() {
        let (w, subset) = setup();
        let candidates = [ArchConfig::baseline(), invalid("bad")];
        assert!(matches!(
            pathfinding_rank_validation(&w, &subset, &candidates),
            Err(SubsetError::Simulation(SimError::InvalidConfig { name })) if name == "bad"
        ));
    }
}
