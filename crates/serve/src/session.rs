//! One streaming subsetting session.
//!
//! A [`Session`] ingests a frame stream chunk by chunk and maintains:
//!
//! * an [`IncrementalFit`] over per-frame feature points
//!   ([`subset3d_core::frame_feature_point`], taken from the extraction
//!   that clusters the frame) — the online counterpart of
//!   [`subset3d_core::Subsetter::global_fit`];
//! * per-frame prediction quality (clustering each frame exactly as the
//!   batch pipeline does, simulating it, and scoring the prediction);
//! * an RLS-updated predicted-error bound (after *An Online Learning
//!   Methodology for Performance Modeling of Graphics Processors*): each
//!   frame contributes one `(features, observed error)` observation, and
//!   the bound is the model's prediction at the running feature mean.
//!
//! Every piece of state is updated **per frame**, keyed only on the frame's
//! position in the stream — never on chunk shape — so any chunking of the
//! same stream produces bit-identical state ([`Session::snapshot`] is the
//! proptest witness). Running error/efficiency means use the same Kahan
//! accumulation as [`subset3d_stats::mean_iter`], so after a full drain the
//! session's mean prediction error is bit-identical to the batch
//! pipeline's.

use crate::error::ServeError;
use serde::{Deserialize, Serialize};
use subset3d_cluster::{IncrementalFit, Points, SubsetterFit};
use subset3d_core::{cluster_frame_with_point, predict_frame, FrameClustering, SubsetConfig};
use subset3d_gpusim::{ArchConfig, Simulator};
use subset3d_obs::{LazyCounter, Stage};
use subset3d_stats::Rls;
use subset3d_trace::{Frame, Workload};

static OBS_FRAMES: LazyCounter = LazyCounter::new("serve.frames_ingested");
static OBS_CHUNKS: LazyCounter = LazyCounter::new("serve.chunks_ingested");
static STAGE_INGEST: Stage = Stage::new("serve", "serve.ingest", "serve.ingest_ns");

/// Default reservoir capacity: comfortably above any realistic session
/// length in this corpus, so sessions stay in the bit-identical regime
/// unless explicitly configured tighter.
pub const DEFAULT_RESERVOIR_CAPACITY: usize = 4096;

/// Documented drift bound: after a full drain, the RLS error bound lies
/// within this distance of the batch pipeline's mean prediction error.
/// The streaming oracle enforces it for every golden profile at every
/// chunk size.
pub const DEFAULT_DRIFT_BOUND: f64 = 0.05;

/// Dimensionality of the RLS feature vector
/// (`[1, efficiency, ln(1+draws), clusters/draws]`).
pub const RLS_DIM: usize = 4;

/// Initial inverse-covariance scale for the RLS estimator: a weak prior,
/// so the online fit tracks ordinary least squares closely.
const RLS_P0: f64 = 1e6;

/// Configuration of a streaming session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// The batch pipeline configuration the session mirrors (clustering
    /// method, features, seed…).
    pub subset: SubsetConfig,
    /// Architecture of the ground-truth simulator.
    pub arch: ArchConfig,
    /// Maximum frame feature points retained for the global fit. While a
    /// session has seen at most this many frames, its fit is bit-identical
    /// to the batch [`subset3d_core::Subsetter::global_fit`].
    pub reservoir_capacity: usize,
    /// RLS forgetting factor in `(0, 1]`; `1.0` weighs the whole stream.
    pub rls_forgetting: f64,
    /// Whether the session keeps every frame's [`FrameClustering`] for the
    /// drain report (the differential oracle needs them; live services
    /// should leave this off).
    pub retain_frame_fits: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            subset: SubsetConfig::default(),
            arch: ArchConfig::baseline(),
            reservoir_capacity: DEFAULT_RESERVOIR_CAPACITY,
            rls_forgetting: 1.0,
            retain_frame_fits: false,
        }
    }
}

impl ServeConfig {
    /// Checks configuration consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid subset or
    /// architecture configuration, a zero reservoir, or a forgetting
    /// factor outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), ServeError> {
        self.subset.validate()?;
        self.arch
            .validate()
            .map_err(|e| ServeError::InvalidConfig {
                reason: e.to_string(),
            })?;
        if self.reservoir_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "reservoir capacity must be at least one frame".into(),
            });
        }
        if !(self.rls_forgetting > 0.0 && self.rls_forgetting <= 1.0) {
            return Err(ServeError::InvalidConfig {
                reason: "rls forgetting factor must be in (0, 1]".into(),
            });
        }
        Ok(())
    }
}

/// Kahan-compensated running mean, bit-identical to
/// [`subset3d_stats::mean_iter`] over the same value sequence.
#[derive(Debug, Clone, Default)]
struct KahanMean {
    acc: f64,
    comp: f64,
    n: u64,
}

impl KahanMean {
    fn update(&mut self, v: f64) {
        let y = v - self.comp;
        let t = self.acc + y;
        self.comp = (t - self.acc) - y;
        self.acc = t;
        self.n += 1;
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.acc / self.n as f64
        }
    }

    fn state_bits(&self) -> [u64; 2] {
        [self.acc.to_bits(), self.comp.to_bits()]
    }
}

/// The subset a session re-emits after each ingested chunk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsetUpdate {
    /// Chunks ingested so far.
    pub chunks_ingested: usize,
    /// Frames ingested so far.
    pub frames_seen: usize,
    /// Draws ingested so far.
    pub draws_seen: usize,
    /// Clusters in the current global (cross-frame) fit.
    pub cluster_count: usize,
    /// Raw [`subset3d_trace::FrameId`]s of the current representative
    /// frames, in cluster order.
    pub representative_frames: Vec<u32>,
    /// Running mean per-frame prediction error.
    pub mean_prediction_error: f64,
    /// Running mean clustering efficiency.
    pub mean_efficiency: f64,
    /// RLS-predicted error bound (model evaluated at the running feature
    /// mean, clamped non-negative).
    pub error_bound: f64,
    /// Frame feature points currently retained.
    pub reservoir_occupancy: usize,
    /// Retention capacity.
    pub reservoir_capacity: usize,
}

/// Everything a drained session hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The state after the final chunk.
    pub final_update: SubsetUpdate,
    /// The global fit over the retained frame feature points.
    pub fit: SubsetterFit,
    /// Per-frame clusterings in stream order (empty unless
    /// [`ServeConfig::retain_frame_fits`] was set).
    pub frame_fits: Vec<FrameClustering>,
    /// Total frames the session ingested.
    pub frames_seen: usize,
}

/// Full per-session state with float fields as IEEE-754 bit patterns, so
/// equality is exact. Two chunkings of the same stream must produce equal
/// snapshots — the chunk-boundary-invariance proptests rely on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// Frames ingested.
    pub frames_seen: usize,
    /// Draws ingested.
    pub draws_seen: usize,
    /// Raw frame ids in stream order.
    pub frame_ids: Vec<u32>,
    /// Kahan state of the running error mean.
    pub error_mean_bits: [u64; 2],
    /// Kahan state of the running efficiency mean.
    pub efficiency_mean_bits: [u64; 2],
    /// Kahan states of the running RLS feature means.
    pub feature_mean_bits: Vec<[u64; 2]>,
    /// RLS weight vector bits.
    pub rls_weight_bits: Vec<u64>,
    /// RLS inverse-covariance bits.
    pub rls_covariance_bits: Vec<u64>,
    /// Retained feature points (bit patterns), in slot order.
    pub retained_bits: Vec<Vec<u64>>,
    /// Global stream index of each retained point.
    pub retained_indices: Vec<usize>,
}

/// A long-lived streaming subsetting session.
pub struct Session {
    config: ServeConfig,
    /// The stream's resource tables (shaders, textures, states) with no
    /// frames: ingested frames reference these tables exactly as batch
    /// frames reference their parent workload.
    tables: Workload,
    sim: Simulator,
    incremental: Box<dyn IncrementalFit>,
    rls: Rls,
    error_mean: KahanMean,
    efficiency_mean: KahanMean,
    feature_means: [KahanMean; RLS_DIM],
    frame_ids: Vec<u32>,
    draws_seen: usize,
    chunks_ingested: usize,
    frame_fits: Vec<FrameClustering>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("frames_seen", &self.frame_ids.len())
            .field("draws_seen", &self.draws_seen)
            .field("chunks_ingested", &self.chunks_ingested)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Opens a session over a stream whose frames reference `tables`'
    /// shader library, texture registry and pipeline-state table (the
    /// frames of `tables` itself, if any, are ignored — streams arrive via
    /// [`Session::ingest`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn new(config: ServeConfig, tables: &Workload) -> Result<Self, ServeError> {
        config.validate()?;
        let backend = subset3d_core::subsetter_for(&config.subset.method, config.subset.seed);
        let incremental = backend.incremental(config.reservoir_capacity, config.subset.seed);
        let sim = Simulator::new(config.arch.clone());
        let rls = Rls::new(RLS_DIM, config.rls_forgetting, RLS_P0);
        Ok(Session {
            tables: Workload::new(
                tables.name.clone(),
                Vec::new(),
                tables.shaders().clone(),
                tables.textures().clone(),
                tables.states().clone(),
            ),
            sim,
            incremental,
            rls,
            error_mean: KahanMean::default(),
            efficiency_mean: KahanMean::default(),
            feature_means: Default::default(),
            frame_ids: Vec::new(),
            draws_seen: 0,
            chunks_ingested: 0,
            frame_fits: Vec::new(),
            config,
        })
    }

    /// The session's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Frames ingested so far.
    pub fn frames_seen(&self) -> usize {
        self.frame_ids.len()
    }

    /// Ingests one chunk of the stream and re-emits the updated subset.
    /// Empty chunks still count as a chunk but change nothing else.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures; the session state then excludes the
    /// failed frame and every frame after it in the chunk.
    pub fn ingest(&mut self, frames: &[Frame]) -> Result<SubsetUpdate, ServeError> {
        let stage = STAGE_INGEST.enter_arg("frames", frames.len() as u64);
        // The chunk's frame points reach the global fit in one ingest, so
        // it re-elects each changed medoid once per chunk.
        let dim = self.config.subset.features.len();
        let mut points = Vec::with_capacity(frames.len() * dim);
        let ingested = frames
            .iter()
            .try_for_each(|frame| self.ingest_frame(frame, &mut points));
        let t_refit = subset3d_obs::trace_span("serve", "serve.refit");
        self.incremental.ingest(Points::new(&points, dim));
        t_refit.end();
        ingested?;
        self.chunks_ingested += 1;
        OBS_CHUNKS.incr();
        stage.end();
        Ok(self.update())
    }

    /// Ingests one frame and appends its feature point to `points`.
    fn ingest_frame(&mut self, frame: &Frame, points: &mut Vec<f64>) -> Result<(), ServeError> {
        // Mirror the batch pipeline exactly: cluster the frame, simulate
        // it, score the prediction. The frame's feature point comes from
        // the same extraction.
        let (clustering, point) =
            cluster_frame_with_point(frame, &self.tables, &self.config.subset);
        let t_frame = subset3d_obs::trace_span_arg(
            "serve",
            "frame.simulate",
            "frame",
            u64::from(frame.id.raw()),
        );
        // Complete the flow arrow `cluster_frame` started (empty frames
        // never start one).
        if !frame.is_empty() {
            subset3d_obs::trace_flow_end("pipeline", "frame.link", u64::from(frame.id.raw()));
        }
        let cost = self.sim.simulate_frame(frame, &self.tables)?;
        t_frame.end();
        let prediction = predict_frame(&clustering, &cost);
        let error = prediction.error();
        let efficiency = clustering.efficiency();
        let draws = frame.draw_count();

        self.error_mean.update(error);
        self.efficiency_mean.update(efficiency);
        let x = rls_features(efficiency, draws, clustering.cluster_count());
        for (mean, value) in self.feature_means.iter_mut().zip(&x) {
            mean.update(*value);
        }
        self.rls.update(&x, error);

        points.extend(point);
        self.frame_ids.push(frame.id.raw());
        self.draws_seen += draws;
        if self.config.retain_frame_fits {
            self.frame_fits.push(clustering);
        }
        OBS_FRAMES.incr();
        Ok(())
    }

    /// The current subset + error bound without ingesting anything.
    pub fn update(&self) -> SubsetUpdate {
        let fit = self.incremental.fit();
        SubsetUpdate {
            chunks_ingested: self.chunks_ingested,
            frames_seen: self.frame_ids.len(),
            draws_seen: self.draws_seen,
            cluster_count: fit.clustering.len(),
            representative_frames: self.representative_frames(&fit),
            mean_prediction_error: self.error_mean.mean(),
            mean_efficiency: self.efficiency_mean.mean(),
            error_bound: self.error_bound(),
            reservoir_occupancy: self.incremental.retained().len(),
            reservoir_capacity: self.incremental.capacity(),
        }
    }

    /// The RLS error bound: the online model evaluated at the running
    /// feature mean, clamped non-negative. With forgetting factor 1 and a
    /// weak prior this tracks the stream's mean observed error to within
    /// the documented [`DEFAULT_DRIFT_BOUND`].
    pub fn error_bound(&self) -> f64 {
        if self.frame_ids.is_empty() {
            return 0.0;
        }
        let mean_x: Vec<f64> = self.feature_means.iter().map(KahanMean::mean).collect();
        self.rls.predict(&mean_x).max(0.0)
    }

    fn representative_frames(&self, fit: &SubsetterFit) -> Vec<u32> {
        let slots = self.incremental.retained_stream_indices();
        fit.representatives
            .iter()
            .map(|&r| self.frame_ids[slots[r]])
            .collect()
    }

    /// Drains the session: the final update, the global fit, and (when
    /// retained) every per-frame clustering.
    pub fn drain(self) -> SessionReport {
        let final_update = self.update();
        let fit = self.incremental.fit();
        SessionReport {
            final_update,
            fit,
            frame_fits: self.frame_fits,
            frames_seen: self.frame_ids.len(),
        }
    }

    /// Captures the full per-stream state as bit patterns (see
    /// [`SessionSnapshot`]). Deliberately excludes the chunk counter: two
    /// chunkings of the same stream are equal everywhere else.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            frames_seen: self.frame_ids.len(),
            draws_seen: self.draws_seen,
            frame_ids: self.frame_ids.clone(),
            error_mean_bits: self.error_mean.state_bits(),
            efficiency_mean_bits: self.efficiency_mean.state_bits(),
            feature_mean_bits: self
                .feature_means
                .iter()
                .map(KahanMean::state_bits)
                .collect(),
            rls_weight_bits: self.rls.weights().iter().map(|w| w.to_bits()).collect(),
            rls_covariance_bits: self.rls.covariance().iter().map(|p| p.to_bits()).collect(),
            retained_bits: self
                .incremental
                .retained()
                .rows()
                .map(|p| p.iter().map(|v| v.to_bits()).collect())
                .collect(),
            retained_indices: self.incremental.retained_stream_indices().to_vec(),
        }
    }
}

/// The RLS feature vector for one frame: intercept, clustering efficiency,
/// log-compressed draw count, and cluster density.
fn rls_features(efficiency: f64, draws: usize, clusters: usize) -> [f64; RLS_DIM] {
    let density = if draws == 0 {
        0.0
    } else {
        clusters as f64 / draws as f64
    };
    [1.0, efficiency, (1.0 + draws as f64).ln(), density]
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_core::cluster_frame;
    use subset3d_trace::gen::GameProfile;

    fn workload(frames: usize) -> Workload {
        GameProfile::shooter("serve-test")
            .frames(frames)
            .draws_per_frame(40)
            .build(11)
            .generate()
    }

    #[test]
    fn session_tracks_stream_counts() {
        let w = workload(6);
        let mut s = Session::new(ServeConfig::default(), &w).unwrap();
        let u1 = s.ingest(&w.frames()[..2]).unwrap();
        assert_eq!(u1.frames_seen, 2);
        assert_eq!(u1.chunks_ingested, 1);
        let u2 = s.ingest(&w.frames()[2..]).unwrap();
        assert_eq!(u2.frames_seen, 6);
        assert_eq!(u2.chunks_ingested, 2);
        assert_eq!(u2.draws_seen, w.total_draws());
        assert!(u2.cluster_count >= 1);
        assert!(!u2.representative_frames.is_empty());
    }

    #[test]
    fn drained_fit_matches_batch_global_fit() {
        let w = workload(8);
        let mut s = Session::new(ServeConfig::default(), &w).unwrap();
        for frame in w.frames() {
            s.ingest(std::slice::from_ref(frame)).unwrap();
        }
        let report = s.drain();
        let batch = subset3d_core::Subsetter::new(SubsetConfig::default())
            .global_fit(&w)
            .unwrap();
        assert_eq!(report.fit, batch);
    }

    #[test]
    fn session_state_is_chunk_invariant() {
        let w = workload(9);
        let mut whole = Session::new(ServeConfig::default(), &w).unwrap();
        whole.ingest(w.frames()).unwrap();
        let mut chunked = Session::new(ServeConfig::default(), &w).unwrap();
        for chunk in w.frames().chunks(2) {
            chunked.ingest(chunk).unwrap();
        }
        assert_eq!(whole.snapshot(), chunked.snapshot());
    }

    #[test]
    fn error_bound_tracks_mean_error() {
        let w = workload(10);
        let mut s = Session::new(ServeConfig::default(), &w).unwrap();
        let update = s.ingest(w.frames()).unwrap();
        assert!(
            (update.error_bound - update.mean_prediction_error).abs() <= DEFAULT_DRIFT_BOUND,
            "bound {} vs mean {}",
            update.error_bound,
            update.mean_prediction_error
        );
    }

    #[test]
    fn empty_chunk_only_bumps_the_chunk_counter() {
        let w = workload(3);
        let mut s = Session::new(ServeConfig::default(), &w).unwrap();
        s.ingest(w.frames()).unwrap();
        let before = s.snapshot();
        let update = s.ingest(&[]).unwrap();
        assert_eq!(update.chunks_ingested, 2);
        assert_eq!(s.snapshot(), before);
    }

    #[test]
    fn tiny_reservoir_bounds_occupancy() {
        let w = workload(12);
        let config = ServeConfig {
            reservoir_capacity: 4,
            ..ServeConfig::default()
        };
        let mut s = Session::new(config, &w).unwrap();
        let update = s.ingest(w.frames()).unwrap();
        assert_eq!(update.reservoir_occupancy, 4);
        assert_eq!(update.reservoir_capacity, 4);
        let report = s.drain();
        report.fit.check(4).unwrap();
    }

    #[test]
    fn invalid_config_rejected() {
        let w = workload(1);
        let bad = ServeConfig {
            reservoir_capacity: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            Session::new(bad, &w),
            Err(ServeError::InvalidConfig { .. })
        ));
        let bad = ServeConfig {
            rls_forgetting: 0.0,
            ..ServeConfig::default()
        };
        assert!(Session::new(bad, &w).is_err());
    }

    #[test]
    fn invalid_arch_is_a_typed_error() {
        let mut config = ServeConfig::default();
        config.arch.eu_count = 0;
        assert!(matches!(
            Session::new(config, &workload(1)),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn retain_frame_fits_matches_batch_clusterings() {
        let w = workload(5);
        let config = ServeConfig {
            retain_frame_fits: true,
            ..ServeConfig::default()
        };
        let mut s = Session::new(config, &w).unwrap();
        s.ingest(w.frames()).unwrap();
        let report = s.drain();
        assert_eq!(report.frame_fits.len(), 5);
        for (frame, fit) in w.frames().iter().zip(&report.frame_fits) {
            assert_eq!(
                fit,
                &cluster_frame(frame, &w, &SubsetConfig::default()),
                "frame {} clustering diverged",
                frame.id.raw()
            );
        }
    }

    #[test]
    fn subset_update_round_trips_through_serde() {
        let w = workload(4);
        let mut s = Session::new(ServeConfig::default(), &w).unwrap();
        let update = s.ingest(w.frames()).unwrap();
        let json = serde_json::to_string(&update).unwrap();
        let back: SubsetUpdate = serde_json::from_str(&json).unwrap();
        assert_eq!(update, back);
    }
}
