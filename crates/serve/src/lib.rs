//! Streaming service mode for the subset3d pipeline.
//!
//! The batch pipeline ([`subset3d_core::Subsetter`]) needs the whole corpus
//! in memory before a single fit runs. This crate turns the same
//! methodology into a long-lived service: a [`SessionManager`] holds many
//! concurrent [`Session`]s, each ingesting a frame stream chunk by chunk
//! and re-emitting an updated subset + error bound ([`SubsetUpdate`]) after
//! every chunk.
//!
//! Per session, three pieces of state absorb each frame incrementally:
//!
//! * a streaming [`subset3d_cluster::IncrementalFit`] over per-frame
//!   feature points — online k-means centroid updates for the k-means
//!   backends, deterministic reservoir sampling for the rest;
//! * running prediction-quality means (Kahan-compensated, bit-identical to
//!   the batch evaluation's summation);
//! * a recursive-least-squares model of prediction error, whose evaluation
//!   at the running feature mean is the emitted error bound.
//!
//! # Convergence contract
//!
//! Draining a whole corpus through a session converges to the batch fit:
//!
//! * **Bit-identical** while the stream fits in the session's reservoir
//!   (`frames ≤ reservoir_capacity`): the final fit equals
//!   [`subset3d_core::Subsetter::global_fit`] exactly, the per-frame
//!   clusterings equal the batch pipeline's, and the mean prediction error
//!   matches bit for bit — at *any* chunk size, because all state is
//!   chunk-boundary invariant.
//! * **Bounded drift** otherwise: the fit partitions a uniform reservoir
//!   sample of the stream and the emitted error bound stays within
//!   [`DEFAULT_DRIFT_BOUND`] of the batch mean error.
//!
//! The testkit's streaming-vs-batch differential oracle enforces both
//! halves for every golden profile across chunk sizes and thread counts.
//!
//! # Examples
//!
//! ```
//! use subset3d_serve::{replay, ReplayOptions, ServeConfig};
//! use subset3d_trace::gen::GameProfile;
//!
//! let workload = GameProfile::shooter("live")
//!     .frames(8)
//!     .draws_per_frame(30)
//!     .build(1)
//!     .generate();
//! let outcome = replay(
//!     &workload,
//!     &ServeConfig::default(),
//!     &ReplayOptions { sessions: 2, chunk_frames: 3, ..Default::default() },
//! )?;
//! assert_eq!(outcome.reports.len(), 2);
//! assert_eq!(outcome.reports[0].frames_seen, 8);
//! # Ok::<(), subset3d_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod manager;
mod net;
mod replay;
mod session;
mod telemetry;

pub use error::ServeError;
pub use manager::{SessionId, SessionManager, TimedUpdate};
pub use net::{
    replay_remote, BackpressurePolicy, NetClient, NetServer, NetServerConfig, NetServerHandle,
    NetStats, NetUpdate, Pressure, RemoteReplay, DEFAULT_MAX_MESSAGE_BYTES, NET_MAGIC, NET_VERSION,
};
pub use replay::{replay, ReplayOptions, ReplayOutcome, ReplaySummary};
pub use session::{
    ServeConfig, Session, SessionReport, SessionSnapshot, SubsetUpdate, DEFAULT_DRIFT_BOUND,
    DEFAULT_RESERVOIR_CAPACITY, RLS_DIM,
};
pub use telemetry::{SloPolicy, SloVerdict, TelemetryOptions, TelemetryReport};
