//! Replay driver: feed a recorded corpus through streaming sessions.
//!
//! The service mode is drivable without a network: a recorded
//! [`Workload`] is cut into fixed-size chunks and streamed through `N`
//! concurrent sessions in lock-step rounds (every session receives chunk
//! `k` before any session receives chunk `k+1`), which is how the CLI
//! `serve --replay` subcommand and the `serve_replay` bench scenario
//! exercise the stack.

use crate::error::ServeError;
use crate::manager::{SessionId, SessionManager};
use crate::session::{ServeConfig, SessionReport, SubsetUpdate};
use crate::telemetry::{SloVerdict, SloWatchdog, TelemetryOptions, TelemetryReport};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use subset3d_obs::timeseries::TelemetrySampler;
use subset3d_trace::{Frame, Workload};

/// How a replay cuts and fans out the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOptions {
    /// Concurrent sessions fed the same stream.
    pub sessions: usize,
    /// Frames per ingested chunk.
    pub chunk_frames: usize,
    /// When set, sample metric deltas during the replay and attach a
    /// [`TelemetryReport`] to the outcome. Metrics collection is forced
    /// on for the duration of the replay and restored afterwards.
    pub telemetry: Option<TelemetryOptions>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            sessions: 1,
            chunk_frames: 16,
            telemetry: None,
        }
    }
}

/// Restores the process-global metrics flag when the replay exits,
/// including on the error path.
struct MetricsFlagGuard(bool);

impl Drop for MetricsFlagGuard {
    fn drop(&mut self) {
        subset3d_obs::set_enabled(self.0);
    }
}

/// Everything one replay produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Sessions that were fed.
    pub sessions: usize,
    /// Frames per chunk.
    pub chunk_frames: usize,
    /// Frames fed to *each* session.
    pub frames_per_session: usize,
    /// Chunks fed to each session.
    pub chunks_per_session: usize,
    /// Per-session, per-chunk updates (`updates[session][chunk]`).
    pub updates: Vec<Vec<SubsetUpdate>>,
    /// Drained end-of-stream reports, one per session.
    pub reports: Vec<SessionReport>,
    /// Wall time of every individual ingest call, nanoseconds
    /// (`sessions × chunks` samples); the bench latency histogram's input.
    pub ingest_ns: Vec<u64>,
    /// End-to-end replay wall time, nanoseconds.
    pub wall_ns: u64,
    /// The ids the sessions ran under, in session order — the labels of
    /// the `serve.session.*` metric families are `session-{id}`.
    pub session_ids: Vec<SessionId>,
    /// Sampled telemetry, when [`ReplayOptions::telemetry`] was set.
    pub telemetry: Option<TelemetryReport>,
}

/// Machine-readable digest of a replay — what the CLI's `serve --json`
/// prints and the bench's `serve_replay` scenario records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplaySummary {
    /// Sessions that were fed.
    pub sessions: usize,
    /// Frames per chunk.
    pub chunk_frames: usize,
    /// Frames fed to each session.
    pub frames_per_session: usize,
    /// Chunks fed to each session.
    pub chunks_per_session: usize,
    /// End-to-end wall time, nanoseconds.
    pub wall_ns: u64,
    /// Session drains per wall-clock second.
    pub sessions_per_sec: f64,
    /// Frame ingests per wall-clock second, summed over sessions.
    pub frames_per_sec: f64,
    /// Mean wall time of a single ingest call, nanoseconds.
    pub mean_ingest_ns: f64,
    /// The first session's end-of-stream state (all sessions fed the
    /// same stream agree on it).
    pub final_update: SubsetUpdate,
    /// Telemetry windows sampled during the replay (zero when telemetry
    /// was off).
    #[serde(default)]
    pub telemetry_windows: usize,
    /// The SLO watchdog's verdict, when a budget was configured.
    #[serde(default)]
    pub slo: Option<SloVerdict>,
}

impl ReplayOutcome {
    /// Condenses the outcome into its [`ReplaySummary`].
    pub fn summary(&self) -> ReplaySummary {
        let wall_s = (self.wall_ns as f64 / 1e9).max(1e-12);
        let mean_ingest_ns = if self.ingest_ns.is_empty() {
            0.0
        } else {
            self.ingest_ns.iter().sum::<u64>() as f64 / self.ingest_ns.len() as f64
        };
        ReplaySummary {
            sessions: self.sessions,
            chunk_frames: self.chunk_frames,
            frames_per_session: self.frames_per_session,
            chunks_per_session: self.chunks_per_session,
            wall_ns: self.wall_ns,
            sessions_per_sec: self.sessions as f64 / wall_s,
            frames_per_sec: (self.sessions * self.frames_per_session) as f64 / wall_s,
            mean_ingest_ns,
            final_update: self.reports[0].final_update.clone(),
            telemetry_windows: self.telemetry.as_ref().map_or(0, |t| t.windows.len()),
            slo: self.telemetry.as_ref().and_then(|t| t.slo),
        }
    }
}

/// Replays `workload` through `options.sessions` concurrent sessions in
/// lock-step chunk rounds and drains them all.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for inconsistent configurations
/// or zero sessions, and propagates the first ingest failure.
pub fn replay(
    workload: &Workload,
    config: &ServeConfig,
    options: &ReplayOptions,
) -> Result<ReplayOutcome, ServeError> {
    if options.sessions == 0 {
        return Err(ServeError::InvalidConfig {
            reason: "replay needs at least one session".into(),
        });
    }
    let chunk_frames = options.chunk_frames.max(1);
    let start = Instant::now();

    // Telemetry needs live metrics: force collection on for the replay
    // and restore the caller's setting on every exit path. Sampling is
    // delta-based, so any totals accumulated before the replay cancel
    // out of every window.
    let mut sampler = None;
    let mut watchdog = None;
    let _flag_guard = options.telemetry.as_ref().map(|t| {
        let guard = MetricsFlagGuard(subset3d_obs::enabled());
        subset3d_obs::set_enabled(true);
        sampler = Some(TelemetrySampler::new(t.sampler.clone()));
        watchdog = t.slo.map(SloWatchdog::new);
        guard
    });

    let manager = SessionManager::new();
    let ids: Vec<SessionId> = (0..options.sessions)
        .map(|_| manager.open(config.clone(), workload))
        .collect::<Result<_, _>>()?;

    let chunks: Vec<&[Frame]> = workload.frames().chunks(chunk_frames).collect();
    let mut updates: Vec<Vec<SubsetUpdate>> = vec![Vec::new(); options.sessions];
    let mut ingest_ns = Vec::with_capacity(options.sessions * chunks.len());
    for chunk in &chunks {
        let requests: Vec<(SessionId, &[Frame])> = ids.iter().map(|&id| (id, *chunk)).collect();
        for (session, result) in manager.ingest_batch(&requests).into_iter().enumerate() {
            let timed = result?;
            ingest_ns.push(timed.ingest_ns);
            updates[session].push(timed.update);
        }
        if let Some(sampler) = sampler.as_mut() {
            if let Some(window) = sampler.maybe_sample() {
                if let Some(watchdog) = watchdog.as_mut() {
                    watchdog.observe(window);
                }
            }
        }
    }

    let reports: Vec<SessionReport> = ids
        .iter()
        .map(|&id| manager.close(id))
        .collect::<Result<_, _>>()?;

    // A forced final sample so the tail of the run (including session
    // drains) is always captured, however short the replay.
    let telemetry = sampler.map(|mut sampler| {
        let window = sampler.sample_now();
        if let Some(watchdog) = watchdog.as_mut() {
            watchdog.observe(window);
        }
        let final_snapshot = subset3d_obs::snapshot();
        let series = sampler.into_series();
        TelemetryReport {
            dropped: series.dropped(),
            windows: series.into_windows(),
            slo: watchdog.map(|w| w.verdict()),
            final_snapshot,
        }
    });

    Ok(ReplayOutcome {
        sessions: options.sessions,
        chunk_frames,
        frames_per_session: workload.frames().len(),
        chunks_per_session: chunks.len(),
        updates,
        reports,
        ingest_ns,
        wall_ns: start.elapsed().as_nanos() as u64,
        session_ids: ids,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::racing("serve-replay")
            .frames(10)
            .draws_per_frame(25)
            .build(3)
            .generate()
    }

    #[test]
    fn replay_feeds_every_session_the_whole_stream() {
        let w = workload();
        let outcome = replay(
            &w,
            &ServeConfig::default(),
            &ReplayOptions {
                sessions: 3,
                chunk_frames: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.chunks_per_session, 3); // 4 + 4 + 2 frames
        assert_eq!(outcome.ingest_ns.len(), 9);
        for (session_updates, report) in outcome.updates.iter().zip(&outcome.reports) {
            assert_eq!(session_updates.len(), 3);
            assert_eq!(session_updates.last().unwrap().frames_seen, 10);
            assert_eq!(report.frames_seen, 10);
        }
    }

    #[test]
    fn all_sessions_agree_on_identical_streams() {
        let w = workload();
        let outcome = replay(
            &w,
            &ServeConfig::default(),
            &ReplayOptions {
                sessions: 4,
                chunk_frames: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let first = &outcome.reports[0];
        for report in &outcome.reports[1..] {
            assert_eq!(report, first);
        }
    }

    #[test]
    fn chunk_size_does_not_change_the_final_report() {
        let w = workload();
        let config = ServeConfig::default();
        let tiny = replay(
            &w,
            &config,
            &ReplayOptions {
                sessions: 1,
                chunk_frames: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let whole = replay(
            &w,
            &config,
            &ReplayOptions {
                sessions: 1,
                chunk_frames: 64,
                ..Default::default()
            },
        )
        .unwrap();
        // The chunk cadence differs, so chunk counters do; everything
        // stream-derived must agree bit-for-bit.
        let a = &tiny.reports[0];
        let b = &whole.reports[0];
        assert_eq!(a.fit, b.fit);
        assert_eq!(
            a.final_update.mean_prediction_error.to_bits(),
            b.final_update.mean_prediction_error.to_bits()
        );
        assert_eq!(
            a.final_update.error_bound.to_bits(),
            b.final_update.error_bound.to_bits()
        );
        assert_eq!(
            a.final_update.representative_frames,
            b.final_update.representative_frames
        );
    }

    #[test]
    fn summary_digests_the_outcome_and_round_trips() {
        let w = workload();
        let outcome = replay(
            &w,
            &ServeConfig::default(),
            &ReplayOptions {
                sessions: 2,
                chunk_frames: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let summary = outcome.summary();
        assert_eq!(summary.sessions, 2);
        assert_eq!(summary.frames_per_session, 10);
        assert_eq!(summary.chunks_per_session, 3);
        assert_eq!(summary.final_update, outcome.reports[0].final_update);
        assert!(summary.sessions_per_sec > 0.0);
        assert!(summary.frames_per_sec > 0.0);
        assert!(summary.mean_ingest_ns > 0.0);
        let json = serde_json::to_string(&summary).unwrap();
        let back: ReplaySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }

    /// Serialises tests that force the process-global metrics flag on:
    /// concurrent telemetry runs would restore each other's flag state
    /// mid-replay.
    fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An every-round sampler with room for the whole run, so rolling
    /// digests span the replay end to end.
    fn eager_telemetry(slo: Option<crate::SloPolicy>) -> TelemetryOptions {
        TelemetryOptions {
            sampler: subset3d_obs::SamplerConfig {
                interval: std::time::Duration::ZERO,
                capacity: 64,
                rolling_windows: 64,
            },
            slo,
        }
    }

    #[test]
    fn telemetry_samples_every_chunk_round_plus_a_final_window() {
        let _guard = telemetry_lock();
        let was_enabled = subset3d_obs::enabled();
        let w = workload();
        let outcome = replay(
            &w,
            &ServeConfig::default(),
            &ReplayOptions {
                sessions: 2,
                chunk_frames: 4,
                telemetry: Some(eager_telemetry(None)),
            },
        )
        .unwrap();
        assert_eq!(
            subset3d_obs::enabled(),
            was_enabled,
            "replay must restore the metrics flag"
        );
        let report = outcome.telemetry.as_ref().expect("telemetry requested");
        // One window per chunk round (interval zero) plus the forced
        // end-of-run sample.
        assert_eq!(report.windows.len(), outcome.chunks_per_session + 1);
        assert_eq!(report.dropped, 0);
        assert!(report.slo.is_none());
        subset3d_obs::validate_timeseries(&report.windows)
            .unwrap_or_else(|e| panic!("invalid series: {e}"));

        // The per-session family cells are exclusively this replay's
        // (ids are process-unique), so their deltas must sum to exactly
        // one ingest per chunk round per session — whatever other tests
        // record concurrently.
        for id in &outcome.session_ids {
            let ingests: u64 = report
                .windows
                .iter()
                .flat_map(|w| w.delta.histogram_families.get("serve.session.ingest_ns"))
                .flat_map(|fam| &fam.cells)
                .filter(|c| c.label == id.to_string())
                .map(|c| c.value.count)
                .sum();
            assert_eq!(ingests as usize, outcome.chunks_per_session);
        }

        // The final snapshot is cumulative registry state: it must hold
        // at least this replay's ingest activity.
        let total = report
            .final_snapshot
            .histograms
            .get("serve.ingest_ns")
            .map_or(0, |h| h.count);
        assert!(total as usize >= outcome.sessions * outcome.chunks_per_session);

        let summary = outcome.summary();
        assert_eq!(summary.telemetry_windows, report.windows.len());
        assert!(summary.slo.is_none());
    }

    #[test]
    fn over_cadenced_replay_breaches_the_slo() {
        let _guard = telemetry_lock();
        let w = workload();
        // A 1ns per-chunk budget is deliberately impossible: every
        // evaluated window must violate.
        let outcome = replay(
            &w,
            &ServeConfig::default(),
            &ReplayOptions {
                sessions: 2,
                chunk_frames: 2,
                telemetry: Some(eager_telemetry(Some(crate::SloPolicy { budget_ns: 1 }))),
            },
        )
        .unwrap();
        let verdict = outcome
            .telemetry
            .as_ref()
            .unwrap()
            .slo
            .expect("slo configured");
        assert!(verdict.breached);
        assert!(verdict.violations >= 1);
        assert!(verdict.windows_evaluated >= verdict.violations);
        assert!(verdict.worst_p99_ns > 1);

        // The verdict surfaces in the summary and survives JSON.
        let summary = outcome.summary();
        assert_eq!(summary.slo, Some(verdict));
        let json = serde_json::to_string(&summary).unwrap();
        let back: ReplaySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.slo, Some(verdict));
    }

    #[test]
    fn generous_slo_budget_is_never_breached() {
        let _guard = telemetry_lock();
        let w = workload();
        let outcome = replay(
            &w,
            &ServeConfig::default(),
            &ReplayOptions {
                sessions: 1,
                chunk_frames: 4,
                telemetry: Some(eager_telemetry(Some(crate::SloPolicy {
                    budget_ns: u64::MAX,
                }))),
            },
        )
        .unwrap();
        let verdict = outcome.telemetry.unwrap().slo.unwrap();
        assert!(!verdict.breached);
        assert_eq!(verdict.violations, 0);
        assert!(
            verdict.windows_evaluated >= 1,
            "ingest activity must be seen"
        );
    }

    #[test]
    fn pre_telemetry_summary_json_still_parses() {
        let w = workload();
        let outcome = replay(&w, &ServeConfig::default(), &ReplayOptions::default()).unwrap();
        let json = serde_json::to_string(&outcome.summary()).unwrap();
        // Simulate a summary written before the telemetry fields existed.
        let stripped = match serde_json::from_str::<serde::Value>(&json).unwrap() {
            serde::Value::Object(fields) => serde::Value::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "telemetry_windows" && k != "slo")
                    .collect(),
            ),
            other => other,
        };
        let back: ReplaySummary = serde_json::from_str(&serde_json::to_string(&stripped).unwrap())
            .unwrap_or_else(|e| panic!("stripped summary must parse: {e}"));
        assert_eq!(back.telemetry_windows, 0);
        assert!(back.slo.is_none());
    }

    #[test]
    fn zero_sessions_rejected() {
        let w = workload();
        assert!(matches!(
            replay(
                &w,
                &ServeConfig::default(),
                &ReplayOptions {
                    sessions: 0,
                    chunk_frames: 4,
                    ..Default::default()
                }
            ),
            Err(ServeError::InvalidConfig { .. })
        ));
    }
}
