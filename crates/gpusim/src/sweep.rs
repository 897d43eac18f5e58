//! Sweep drivers: simulate a workload across frequencies or design points.

use crate::config::ArchConfig;
use crate::error::SimError;
use crate::freq::FrequencySweep;
use crate::memo::{BatchCostCache, CacheMode, CacheStats};
use crate::sim::sweep_totals;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// Order-dependent digest of every draw's simulated time on this
    /// design point — [`crate::WorkloadCost::digest`] of the workload's
    /// cost. It pins each draw time where `total_ns` lets opposite
    /// one-ulp errors cancel, so comparing points compares every draw.
    pub digest: u64,
}

/// [`SimError::InvalidConfig`] for the first invalid config, reported
/// before any simulation work is spent.
fn validate(configs: &[ArchConfig]) -> Result<(), SimError> {
    match configs.iter().find(|c| !c.is_valid()) {
        Some(config) => Err(SimError::InvalidConfig {
            name: config.name.clone(),
        }),
        None => Ok(()),
    }
}

/// Names each config's `(total_ns, digest)`.
fn config_points(configs: &[ArchConfig], totals: Vec<(f64, u64)>) -> Vec<ConfigPoint> {
    configs
        .iter()
        .zip(totals)
        .map(|(config, (total_ns, digest))| ConfigPoint {
            name: config.name.clone(),
            total_ns,
            digest,
        })
        .collect()
}

/// Simulates `workload` at every core clock of `sweep` on the `base` design.
///
/// Every point is evaluated in one walk over the workload's batches (see
/// [`SweepSession`]), fanned out over the shared [`subset3d_exec`] pool;
/// the result order and every value are identical at any thread count,
/// and each total equals a fresh [`crate::Simulator`]'s at that clock.
///
/// # Errors
///
/// Returns [`SimError::UnknownShader`] when the workload references shaders
/// missing from its own library, and [`SimError::InvalidConfig`] when
/// `base` is an invalid configuration at one of the swept clocks.
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
    let configs = sweep.configs(base);
    validate(&configs)?;
    let totals = sweep_totals(&configs, workload, None)?;
    Ok(configs
        .iter()
        .zip(totals)
        .map(|(config, (total_ns, _))| SweepPoint {
            core_clock_mhz: config.core_clock_mhz,
            total_ns,
        })
        .collect())
}

/// Simulates `workload` on every candidate design point in one walk over
/// its batches (see [`SweepSession`]), with no batch cache; the result
/// order and every value are identical at any thread count, and each
/// point equals a fresh [`crate::Simulator`]'s on that candidate.
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
    validate(candidates)?;
    let totals = sweep_totals(candidates, workload, None)?;
    Ok(config_points(candidates, totals))
}

/// A reusable design-space sweep: one batch cache for all candidates, so
/// repeated sweeps reuse every candidate's draw times.
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
/// each batch's shaders, warmths and cache key are computed once and the
/// session's cache is probed once. It maps each distinct batch to one
/// row holding that batch's draw times on every candidate,
/// candidate-major — 8 bytes per draw and candidate, only what a sweep
/// reads. A missed batch's draws are prepared once (`PreparedDraw`),
/// evaluated on every candidate and retained as a row; a warm sweep
/// shares the rows and never materialises a draw.
///
/// Sessions start in [`CacheMode::On`]: re-simulation is the point of
/// keeping one, so rows are retained from the cold first pass onwards.
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
/// let second = session.sweep(&w)?; // served from the batch cache
/// assert_eq!(first, second);
/// # Ok::<(), subset3d_gpusim::SimError>(())
/// ```
pub struct SweepSession {
    candidates: Vec<ArchConfig>,
    /// Batch key → the batch's draw times on every candidate.
    rows: BatchCostCache<f64>,
    /// Whether sweeps consult `rows` ([`CacheMode::On`]).
    memoize: AtomicBool,
}

impl SweepSession {
    /// Creates a session over candidate design points (each config is
    /// cloned once, amortised over every subsequent sweep).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an invalid candidate.
    pub fn new(candidates: &[ArchConfig]) -> Result<Self, SimError> {
        validate(candidates)?;
        Ok(SweepSession {
            candidates: candidates.to_vec(),
            rows: BatchCostCache::new(candidates.len() as u64),
            memoize: AtomicBool::new(true),
        })
    }

    /// Sets the memoization policy of the session (benchmarks use
    /// [`CacheMode::Off`] for an uncached baseline). Switching to `Off`
    /// does not drop retained rows; lookups simply stop, and a sweep
    /// computes no key, makes no probe and inserts nothing.
    pub fn set_cache_mode(&self, mode: CacheMode) {
        self.memoize.store(mode == CacheMode::On, Ordering::Relaxed);
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
        let rows = self.memoize.load(Ordering::Relaxed).then_some(&self.rows);
        let totals = sweep_totals(&self.candidates, workload, rows)?;
        Ok(config_points(&self.candidates, totals))
    }

    /// Hit/miss counters of the session's batch cache, one lookup per
    /// candidate and batch — what each candidate probing a cache of its
    /// own would count.
    pub fn cache_stats(&self) -> CacheStats {
        self.rows.stats()
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
    fn frequency_sweep_rejects_invalid_base() {
        let mut bad = ArchConfig::baseline();
        bad.eu_count = 0;
        let err = sweep_frequencies(&workload(), &bad, &FrequencySweep::standard()).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn large_config_beats_small() {
        let points =
            sweep_configs(&workload(), &[ArchConfig::small(), ArchConfig::large()]).unwrap();
        assert!(points[1].total_ns < points[0].total_ns);
    }

    /// The reference model's point for every candidate.
    fn reference_points(w: &Workload, candidates: &[ArchConfig]) -> Vec<ConfigPoint> {
        candidates
            .iter()
            .map(|c| {
                let cost = crate::reference::reference_workload_cost(w, c).unwrap();
                ConfigPoint {
                    name: c.name.clone(),
                    total_ns: cost.total_ns,
                    digest: cost.digest(),
                }
            })
            .collect()
    }

    #[test]
    fn session_matches_one_shot_sweep_and_hits_on_repeat() {
        let w = workload();
        let candidates = ArchConfig::pathfinding_candidates();
        let session = SweepSession::new(&candidates).unwrap();

        let first = session.sweep(&w).unwrap();
        assert_eq!(first, sweep_configs(&w, &candidates).unwrap());
        assert_eq!(first, reference_points(&w, &candidates));
        let cold = session.cache_stats();
        // 30 draws per frame < one 64-wide batch, so every frame is one
        // (ragged) batch, counted once per candidate.
        let batches = (w.frames().len() * candidates.len()) as u64;
        assert_eq!(cold.batch_misses, batches);

        // The second sweep re-sees every batch: served wholesale from the
        // batch cache, bit-identical points, no new misses.
        let second = session.sweep(&w).unwrap();
        let warm = session.cache_stats();
        assert_eq!(second, first);
        assert_eq!(warm.batch_hits, batches);
        assert_eq!(warm.batch_misses, cold.batch_misses);
    }

    #[test]
    fn session_keeps_one_row_per_distinct_batch() {
        // 150 draws per frame: two full 64-wide batches and a ragged 22.
        let w = GameProfile::shooter("rows")
            .frames(3)
            .draws_per_frame(150)
            .build(5)
            .generate();
        let candidates = ArchConfig::pathfinding_candidates();
        let n = candidates.len();
        let mut row_lengths = Vec::new();
        for frame in w.frames() {
            let draws = frame.draw_count();
            for start in (0..draws).step_by(crate::DEFAULT_BATCH_WIDTH) {
                row_lengths.push(n * (draws - start).min(crate::DEFAULT_BATCH_WIDTH));
            }
        }
        row_lengths.sort_unstable();
        let batches = row_lengths.len();
        assert_eq!(batches, 9);

        // Cold: one row per batch, holding every candidate's draw times.
        let session = SweepSession::new(&candidates).unwrap();
        let cold = session.sweep(&w).unwrap();
        let mut kept = session.rows.lengths();
        kept.sort_unstable();
        assert_eq!(kept, row_lengths);

        // Warm: no new rows, one hit per candidate and batch.
        let warm = session.sweep(&w).unwrap();
        assert_eq!(warm, cold);
        assert_eq!(session.rows.len(), batches);
        assert_eq!(
            session.cache_stats(),
            CacheStats {
                batch_hits: (n * batches) as u64,
                batch_misses: (n * batches) as u64,
            }
        );

        // Off keeps nothing and counts nothing.
        let off = SweepSession::new(&candidates).unwrap();
        off.set_cache_mode(CacheMode::Off);
        assert_eq!(off.sweep(&w).unwrap(), cold);
        assert_eq!(off.rows.len(), 0);
        assert_eq!(off.cache_stats(), CacheStats::default());
    }

    #[test]
    fn racing_sweeps_of_one_session_match_the_reference() {
        // Over 1000 draws, so each sweep also fans out over the pool.
        let w = GameProfile::rts("race")
            .frames(4)
            .draws_per_frame(300)
            .build(6)
            .generate();
        let candidates = ArchConfig::pathfinding_candidates();
        let expected = reference_points(&w, &candidates);
        let session = SweepSession::new(&candidates).unwrap();
        // Both threads leave the barrier onto a cold session together, so
        // they race to miss and insert the same keys; every assertion
        // below holds whichever insert wins.
        let start = std::sync::Barrier::new(2);
        let sweep = || {
            start.wait();
            session.sweep(&w).unwrap()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(sweep);
            let b = s.spawn(sweep);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, expected);
        assert_eq!(b, expected);
        let batches: usize = w
            .frames()
            .iter()
            .map(|f| f.draw_count().div_ceil(crate::DEFAULT_BATCH_WIDTH))
            .sum();
        assert_eq!(session.rows.len(), batches);
        let stats = session.cache_stats();
        assert_eq!(
            stats.batch_hits + stats.batch_misses,
            (2 * candidates.len() * batches) as u64
        );
        assert_eq!(session.sweep(&w).unwrap(), expected, "warm after the race");
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
