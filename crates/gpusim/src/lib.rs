//! GPU performance simulator for 3D workload subsetting.
//!
//! Substitutes the proprietary cycle-level simulator the paper used (see
//! `DESIGN.md`). Two timing models are provided:
//!
//! * an **analytical bottleneck model** ([`Simulator`]) — O(1) per draw,
//!   used for corpus-scale experiments. Each draw's time is the maximum of
//!   its per-stage (geometry, rasteriser, pixel shading, texture, ROP) core
//!   cycles and its memory time, taken over separate **clock domains** so
//!   core-frequency scaling bends differently for compute-bound and
//!   bandwidth-bound draws; and
//! * an **event-driven pipeline model** ([`event::PipelineSim`]) — draws
//!   flow through stage queues with true overlap, used to cross-validate the
//!   analytical approximation on small workloads.
//!
//! A set-associative LRU [`cache::CacheSim`] backs the detailed texture-
//! cache study; the analytical model uses a calibrated hit-rate formula
//! plus a cross-draw *warmth* term that captures the context dependence the
//! paper's micro-architecture-independent features cannot see (this is what
//! makes intra-cluster prediction error non-zero, as in the paper).
//!
//! # Examples
//!
//! ```
//! use subset3d_gpusim::{ArchConfig, Simulator};
//! use subset3d_trace::gen::GameProfile;
//!
//! let w = GameProfile::shooter("g").frames(3).draws_per_frame(30).build(1).generate();
//! let sim = Simulator::new(ArchConfig::baseline());
//! let cost = sim.simulate_workload(&w)?;
//! assert!(cost.total_ns > 0.0);
//! assert_eq!(cost.frames.len(), 3);
//! # Ok::<(), subset3d_gpusim::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod analytic;
pub mod cache;
pub mod dram;
pub mod event;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod reference;

mod area;
mod config;
mod cost;
mod error;
mod freq;
mod memo;
mod power;
mod sim;
mod sweep;

pub use area::{pareto_front, AreaModel, DesignPoint};
pub use config::{ArchConfig, ArchConfigBuilder};
pub use cost::{DrawCost, FrameCost, Stage, WorkloadCost};
pub use error::SimError;
pub use freq::FrequencySweep;
pub use memo::CacheStats;
pub use power::{energy_delay_product, Energy, PowerModel};
pub use sim::{Simulator, DEFAULT_BATCH_WIDTH};
pub use sweep::{sweep_configs, sweep_frequencies, ConfigPoint, SweepPoint, SweepSession};
