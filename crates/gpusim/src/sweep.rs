//! Sweep drivers: simulate a workload across frequencies or design points.

use crate::config::ArchConfig;
use crate::error::SimError;
use crate::freq::FrequencySweep;
use crate::memo::{CacheMode, CacheStats};
use crate::sim::{sweep_totals, Simulator};
use serde::{Deserialize, Serialize};
use subset3d_trace::Workload;

/// One point of a frequency sweep result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Core clock of the point in MHz.
    pub core_clock_mhz: f64,
    /// Simulated total workload time in nanoseconds.
    pub total_ns: f64,
}

/// One point of a design-space sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigPoint {
    /// Name of the design point.
    pub name: String,
    /// Simulated total workload time in nanoseconds.
    pub total_ns: f64,
}

/// Simulates `workload` at every core clock of `sweep` on the `base` design.
///
/// Every point is evaluated in one walk over the workload's batches (see
/// [`SweepSession`]), fanned out over the shared [`subset3d_exec`] pool;
/// the result order and every value are identical at any thread count,
/// and each total equals a fresh [`Simulator`]'s at that clock.
///
/// # Errors
///
/// Returns [`SimError::UnknownShader`] when the workload references shaders
/// missing from its own library.
///
/// # Panics
///
/// Panics if `base` at one of the swept clocks is an invalid configuration.
///
/// # Examples
///
/// ```
/// use subset3d_gpusim::{sweep_frequencies, ArchConfig, FrequencySweep};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(2).draws_per_frame(15).build(1).generate();
/// let points = sweep_frequencies(&w, &ArchConfig::baseline(), &FrequencySweep::standard())?;
/// assert_eq!(points.len(), 9);
/// // Higher clock never makes the workload slower.
/// assert!(points.windows(2).all(|p| p[1].total_ns <= p[0].total_ns));
/// # Ok::<(), subset3d_gpusim::SimError>(())
/// ```
pub fn sweep_frequencies(
    workload: &Workload,
    base: &ArchConfig,
    sweep: &FrequencySweep,
) -> Result<Vec<SweepPoint>, SimError> {
    let sims: Vec<Simulator> = sweep
        .configs(base)
        .into_iter()
        .map(Simulator::new)
        .collect();
    let totals = sweep_totals(&sims, workload)?;
    Ok(sims
        .iter()
        .zip(totals)
        .map(|(sim, total_ns)| SweepPoint {
            core_clock_mhz: sim.config().core_clock_mhz,
            total_ns,
        })
        .collect())
}

/// Simulates `workload` on every candidate design point in one walk over
/// its batches (see [`SweepSession`]), with no batch cache; the result
/// order and every value are identical at any thread count, and each
/// total equals a fresh [`Simulator`]'s on that candidate.
///
/// # Errors
///
/// Returns [`SimError::UnknownShader`] when the workload references shaders
/// missing from its own library, and [`SimError::InvalidConfig`] for an
/// invalid candidate.
pub fn sweep_configs(
    workload: &Workload,
    candidates: &[ArchConfig],
) -> Result<Vec<ConfigPoint>, SimError> {
    // Validate up front so an invalid candidate is reported before any
    // simulation work is spent (and `Simulator::new` below cannot panic).
    if let Some(config) = candidates.iter().find(|c| !c.is_valid()) {
        return Err(SimError::InvalidConfig {
            name: config.name.clone(),
        });
    }
    let sims: Vec<Simulator> = candidates.iter().cloned().map(Simulator::new).collect();
    let totals = sweep_totals(&sims, workload)?;
    Ok(candidates
        .iter()
        .zip(totals)
        .map(|(config, total_ns)| ConfigPoint {
            name: config.name.clone(),
            total_ns,
        })
        .collect())
}

/// A reusable design-space sweep: one persistent batch cache per
/// candidate, so repeated sweeps reuse memoized batch costs.
///
/// Architecture pathfinding is iterative — the same workloads are swept
/// again and again while candidates are compared, and validation flows
/// sweep both a parent trace and its subset (whose frames are verbatim
/// copies of parent frames). With a session, every batch re-simulated
/// after the first pass is served wholesale from the batch cache, so
/// later sweeps cost a fraction of the first; results are bit-identical
/// to [`sweep_configs`].
///
/// A sweep is one walk over the workload's batches for all candidates:
/// each batch's shaders, warmths and cache key are computed once, each
/// candidate probes its own cache, and the batch's draws are prepared
/// once (`PreparedDraw`) — only if some candidate missed — then
/// evaluated on each candidate that did. A warm sweep never materialises
/// a draw.
///
/// Candidates are created in [`CacheMode::On`]: re-simulation is the
/// point of keeping a session, so batch costs are retained from the
/// cold first pass onwards.
///
/// # Examples
///
/// ```
/// use subset3d_gpusim::{ArchConfig, SweepSession};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(2).draws_per_frame(15).build(1).generate();
/// let session = SweepSession::new(&ArchConfig::pathfinding_candidates())?;
/// let first = session.sweep(&w)?;
/// let second = session.sweep(&w)?; // served from the batch caches
/// assert_eq!(first, second);
/// # Ok::<(), subset3d_gpusim::SimError>(())
/// ```
pub struct SweepSession {
    sims: Vec<Simulator>,
}

impl SweepSession {
    /// Creates a session over candidate design points (each config is
    /// cloned once, amortised over every subsequent sweep).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an invalid candidate.
    pub fn new(candidates: &[ArchConfig]) -> Result<Self, SimError> {
        if let Some(config) = candidates.iter().find(|c| !c.is_valid()) {
            return Err(SimError::InvalidConfig {
                name: config.name.clone(),
            });
        }
        let sims: Vec<Simulator> = candidates
            .iter()
            .map(|config| {
                let sim = Simulator::new(config.clone());
                sim.set_cache_mode(CacheMode::On);
                sim
            })
            .collect();
        Ok(SweepSession { sims })
    }

    /// Sets the memoization policy of every candidate
    /// (benchmarks use [`CacheMode::Off`] for an uncached baseline).
    pub fn set_cache_mode(&self, mode: CacheMode) {
        for sim in &self.sims {
            sim.set_cache_mode(mode);
        }
    }

    /// Simulates `workload` on every candidate in one walk over its
    /// batches, fanned out over the shared [`subset3d_exec`] pool. Result
    /// order and every value are identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownShader`] when the workload references
    /// shaders missing from its own library.
    pub fn sweep(&self, workload: &Workload) -> Result<Vec<ConfigPoint>, SimError> {
        let totals = sweep_totals(&self.sims, workload)?;
        Ok(self
            .sims
            .iter()
            .zip(totals)
            .map(|(sim, total_ns)| ConfigPoint {
                name: sim.config().name.clone(),
                total_ns,
            })
            .collect())
    }

    /// Aggregated hit/miss counters across every candidate's caches.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for sim in &self.sims {
            let s = sim.cache_stats();
            total.batch_hits += s.batch_hits;
            total.batch_misses += s.batch_misses;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::shooter("t")
            .frames(3)
            .draws_per_frame(30)
            .build(4)
            .generate()
    }

    #[test]
    fn frequency_sweep_is_monotone_nonincreasing() {
        let points = sweep_frequencies(
            &workload(),
            &ArchConfig::baseline(),
            &FrequencySweep::standard(),
        )
        .unwrap();
        assert!(points.windows(2).all(|p| p[1].total_ns <= p[0].total_ns));
    }

    #[test]
    fn frequency_sweep_is_sublinear() {
        // 3× clock gives < 3× speedup because memory does not scale.
        let points = sweep_frequencies(
            &workload(),
            &ArchConfig::baseline(),
            &FrequencySweep::new(vec![400.0, 1200.0]),
        )
        .unwrap();
        let speedup = points[0].total_ns / points[1].total_ns;
        assert!(speedup > 1.2 && speedup < 3.0, "speedup {speedup}");
    }

    #[test]
    fn config_sweep_reports_all_candidates() {
        let points = sweep_configs(&workload(), &ArchConfig::pathfinding_candidates()).unwrap();
        assert_eq!(points.len(), 6);
        assert!(points.iter().all(|p| p.total_ns > 0.0));
    }

    #[test]
    fn config_sweep_rejects_invalid_candidate() {
        let mut bad = ArchConfig::baseline();
        bad.rop_rate = 0;
        let err = sweep_configs(&workload(), &[bad]).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn large_config_beats_small() {
        let points =
            sweep_configs(&workload(), &[ArchConfig::small(), ArchConfig::large()]).unwrap();
        assert!(points[1].total_ns < points[0].total_ns);
    }

    #[test]
    fn session_matches_one_shot_sweep_and_hits_on_repeat() {
        let w = workload();
        let candidates = ArchConfig::pathfinding_candidates();
        let session = SweepSession::new(&candidates).unwrap();

        let first = session.sweep(&w).unwrap();
        assert_eq!(first, sweep_configs(&w, &candidates).unwrap());
        let cold = session.cache_stats();
        // 30 draws per frame < one 64-wide batch, so every frame is one
        // (ragged) batch per candidate.
        let batches = (w.frames().len() * candidates.len()) as u64;
        assert_eq!(cold.batch_misses, batches);

        // The second sweep re-sees every batch: served wholesale from the
        // batch caches, bit-identical points, no new misses.
        let second = session.sweep(&w).unwrap();
        let warm = session.cache_stats();
        assert_eq!(second, first);
        assert_eq!(warm.batch_hits, batches);
        assert_eq!(warm.batch_misses, cold.batch_misses);
    }

    #[test]
    fn session_rejects_invalid_candidate() {
        let mut bad = ArchConfig::baseline();
        bad.eu_count = 0;
        assert!(matches!(
            SweepSession::new(&[ArchConfig::baseline(), bad]),
            Err(SimError::InvalidConfig { .. })
        ));
    }
}
