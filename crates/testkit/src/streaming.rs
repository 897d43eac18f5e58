//! The streaming-vs-batch differential oracle.
//!
//! The serve crate promises that draining a corpus through a streaming
//! session converges to the batch pipeline's fit (see the convergence
//! contract on [`subset3d_serve`]):
//!
//! * **Bit-identical** while the stream fits in the session reservoir: the
//!   drained fit equals [`Subsetter::global_fit`], the per-frame
//!   clusterings equal the batch outcome's, and the running mean
//!   prediction error matches [`WorkloadEvaluation::mean_prediction_error`]
//!   bit for bit — at any chunk size.
//! * **Bounded drift** otherwise: the fit partitions the reservoir sample
//!   and the RLS error bound stays within [`DEFAULT_DRIFT_BOUND`] of the
//!   batch mean error.
//!
//! [`run_streaming_oracle`] enforces the first half, [`run_drift_check`]
//! the second; both return `Result<(), String>` so they slot into plain
//! `#[test]`s and `proptest!` properties alike (the [`metamorphic`]
//! convention).
//!
//! [`metamorphic`]: crate::metamorphic
//! [`WorkloadEvaluation::mean_prediction_error`]:
//!     subset3d_core::WorkloadEvaluation::mean_prediction_error

use crate::reference::same_fit_bits;
use subset3d_core::{SubsetConfig, Subsetter};
use subset3d_gpusim::{ArchConfig, Simulator};
use subset3d_serve::{replay, ReplayOptions, ServeConfig, SessionReport, DEFAULT_DRIFT_BOUND};
use subset3d_trace::Workload;

/// Chunk sizes the oracle matrix sweeps. Sizes at or above the corpus
/// length collapse to a single chunk — the chunk-equals-corpus case.
pub const ORACLE_CHUNK_FRAMES: [usize; 4] = [1, 16, 64, usize::MAX];

/// Thread counts the oracle matrix replays under.
pub const ORACLE_THREADS: [usize; 3] = [1, 2, 8];

/// Sessions per replay: enough that the batched ingest path actually
/// fans out on the pool at the higher [`ORACLE_THREADS`] entries.
pub const ORACLE_SESSIONS: usize = 4;

fn serve_config(subset: &SubsetConfig, reservoir_capacity: usize) -> ServeConfig {
    ServeConfig {
        subset: subset.clone(),
        arch: ArchConfig::baseline(),
        reservoir_capacity,
        retain_frame_fits: true,
        ..ServeConfig::default()
    }
}

fn bits(v: f64) -> String {
    format!("{v:e} (bits {:#018x})", v.to_bits())
}

fn stream(
    workload: &Workload,
    config: &ServeConfig,
    chunk_frames: usize,
    sessions: usize,
) -> Result<Vec<SessionReport>, String> {
    let outcome = replay(
        workload,
        config,
        &ReplayOptions {
            sessions,
            chunk_frames,
            ..Default::default()
        },
    )
    .map_err(|e| format!("replay failed: {e}"))?;
    Ok(outcome.reports)
}

/// Runs the bit-identical half of the oracle: every session that drained
/// `workload` (reservoir sized to hold it all) must reproduce the batch
/// pipeline's per-frame clusterings, global fit and mean prediction error
/// exactly, regardless of `chunk_frames` or the ambient thread count.
///
/// # Errors
///
/// Returns a description of the first divergence found.
pub fn run_streaming_oracle(
    context: &str,
    workload: &Workload,
    subset_config: &SubsetConfig,
    chunk_frames: usize,
) -> Result<(), String> {
    let frames = workload.frames().len();
    let config = serve_config(subset_config, frames.max(1));
    let reports = stream(workload, &config, chunk_frames, ORACLE_SESSIONS)?;

    // Batch references: the full pipeline for per-frame state, the
    // frame-level global fit for the partition.
    let subsetter = Subsetter::new(subset_config.clone());
    let sim = Simulator::new(ArchConfig::baseline());
    let outcome = subsetter
        .run(workload, &sim)
        .map_err(|e| format!("[{context}] batch pipeline failed: {e}"))?;
    let batch_fit = subsetter
        .global_fit(workload)
        .map_err(|e| format!("[{context}] batch global fit failed: {e}"))?;
    let batch_error = outcome.evaluation.mean_prediction_error();

    for (si, report) in reports.iter().enumerate() {
        let ctx = format!("{context}/session {si}/chunk {chunk_frames}");
        if report.frames_seen != frames {
            return Err(format!(
                "[{ctx}] drained {} frames, corpus has {frames}",
                report.frames_seen
            ));
        }
        if let Err(diff) = same_fit_bits(&report.fit, &batch_fit) {
            return Err(format!(
                "[{ctx}] drained fit diverges from Subsetter::global_fit: {diff}"
            ));
        }
        if report.frame_fits != outcome.clusterings {
            let first = report
                .frame_fits
                .iter()
                .zip(&outcome.clusterings)
                .position(|(a, b)| a != b);
            return Err(format!(
                "[{ctx}] per-frame clusterings diverge from the batch \
                 pipeline (first at frame {first:?})"
            ));
        }
        let streamed_error = report.final_update.mean_prediction_error;
        if streamed_error.to_bits() != batch_error.to_bits() {
            return Err(format!(
                "[{ctx}] mean prediction error diverges: streamed {} vs batch {}",
                bits(streamed_error),
                bits(batch_error)
            ));
        }
        let drift = (report.final_update.error_bound - batch_error).abs();
        if drift > DEFAULT_DRIFT_BOUND {
            return Err(format!(
                "[{ctx}] error bound {} drifted {drift:e} from batch mean \
                 error {} (bound {})",
                bits(report.final_update.error_bound),
                bits(batch_error),
                DEFAULT_DRIFT_BOUND
            ));
        }
        // Sessions fed identical streams may never disagree.
        if report != &reports[0] {
            return Err(format!("[{ctx}] sessions disagree on identical streams"));
        }
    }
    Ok(())
}

/// Runs the bounded-drift half of the oracle: with a reservoir smaller
/// than the corpus the drained fit must still be a valid partition of
/// exactly `capacity` retained frames, the (reservoir-independent)
/// running error mean must still match batch bit for bit, and the error
/// bound must stay within [`DEFAULT_DRIFT_BOUND`].
///
/// # Errors
///
/// Returns a description of the first violated bound.
pub fn run_drift_check(
    context: &str,
    workload: &Workload,
    subset_config: &SubsetConfig,
    chunk_frames: usize,
    capacity: usize,
) -> Result<(), String> {
    assert!(
        capacity < workload.frames().len(),
        "drift check needs an overflowing reservoir"
    );
    let config = serve_config(subset_config, capacity);
    let reports = stream(workload, &config, chunk_frames, 1)?;
    let report = &reports[0];
    let ctx = format!("{context}/chunk {chunk_frames}/capacity {capacity}");

    let occupancy = report.final_update.reservoir_occupancy;
    if occupancy != capacity {
        return Err(format!(
            "[{ctx}] overflowed reservoir holds {occupancy} frames, \
             expected exactly {capacity}"
        ));
    }
    if let Err(e) = report.fit.check(occupancy) {
        return Err(format!("[{ctx}] drained fit violates the contract: {e}"));
    }

    let subsetter = Subsetter::new(subset_config.clone());
    let sim = Simulator::new(ArchConfig::baseline());
    let outcome = subsetter
        .run(workload, &sim)
        .map_err(|e| format!("[{ctx}] batch pipeline failed: {e}"))?;
    let batch_error = outcome.evaluation.mean_prediction_error();
    let streamed_error = report.final_update.mean_prediction_error;
    if streamed_error.to_bits() != batch_error.to_bits() {
        return Err(format!(
            "[{ctx}] running error mean must not depend on the reservoir: \
             streamed {} vs batch {}",
            bits(streamed_error),
            bits(batch_error)
        ));
    }
    let drift = (report.final_update.error_bound - batch_error).abs();
    if drift > DEFAULT_DRIFT_BOUND {
        return Err(format!(
            "[{ctx}] error bound {} drifted {drift:e} from batch mean error \
             {} (bound {})",
            bits(report.final_update.error_bound),
            bits(batch_error),
            DEFAULT_DRIFT_BOUND
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::shooter("streaming-smoke")
            .frames(6)
            .draws_per_frame(30)
            .build(2)
            .generate()
    }

    #[test]
    fn oracle_clean_on_small_workload() {
        let w = workload();
        for chunk in [1, 4, usize::MAX] {
            run_streaming_oracle("smoke", &w, &SubsetConfig::default(), chunk).unwrap();
        }
    }

    #[test]
    fn drift_check_holds_with_tiny_reservoir() {
        let w = workload();
        run_drift_check("smoke", &w, &SubsetConfig::default(), 2, 3).unwrap();
    }

    #[test]
    fn oracle_reports_a_tampered_error_mean() {
        // The oracle must actually be able to fail: feed it a workload
        // whose batch run it computes itself, but lie about the corpus by
        // streaming a *different* workload.
        let w = workload();
        let other = GameProfile::rts("streaming-tamper")
            .frames(6)
            .draws_per_frame(30)
            .build(9)
            .generate();
        let config = serve_config(&SubsetConfig::default(), 6);
        let reports = stream(&other, &config, 2, 1).unwrap();
        let subsetter = Subsetter::new(SubsetConfig::default());
        let sim = Simulator::new(ArchConfig::baseline());
        let outcome = subsetter.run(&w, &sim).unwrap();
        let batch_error = outcome.evaluation.mean_prediction_error();
        assert_ne!(
            reports[0].final_update.mean_prediction_error.to_bits(),
            batch_error.to_bits(),
            "distinct corpora must not produce identical error means"
        );
    }
}
