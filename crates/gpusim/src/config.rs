//! Architecture configurations: the design points pathfinding explores.

use crate::error::SimError;
use serde::{Deserialize, Serialize};

/// A GPU architecture configuration (a pathfinding design point).
///
/// The parameters deliberately mirror the knobs an architecture pathfinding
/// study sweeps: shader-core count and width, clock domains, fixed-function
/// rates and the memory system.
///
/// # Examples
///
/// ```
/// use subset3d_gpusim::ArchConfig;
///
/// let base = ArchConfig::baseline();
/// let fast = base.with_core_clock(1200.0);
/// assert!(fast.peak_flops() > base.peak_flops());
/// assert_eq!(fast.mem_bandwidth_bytes_per_ns(), base.mem_bandwidth_bytes_per_ns());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    /// Configuration name, used in pathfinding reports.
    pub name: String,
    /// Number of execution units (shader cores).
    pub eu_count: u32,
    /// SIMD lanes per execution unit.
    pub simd_width: u32,
    /// Core (shader/fixed-function) clock in MHz.
    pub core_clock_mhz: f64,
    /// Memory clock in MHz.
    pub mem_clock_mhz: f64,
    /// Memory bus width in bytes transferred per memory clock.
    pub mem_bus_bytes: u32,
    /// Texture sampler throughput, samples per core clock.
    pub tex_rate: u32,
    /// ROP (render output) throughput, pixels per core clock.
    pub rop_rate: u32,
    /// Rasteriser throughput, pixels per core clock.
    pub raster_rate: u32,
    /// Primitive (triangle setup) throughput, primitives per core clock.
    pub prim_rate: f64,
    /// Texture cache capacity in KiB.
    pub tex_cache_kib: u32,
    /// L2 cache capacity in KiB.
    pub l2_cache_kib: u32,
    /// Fixed per-draw command-processor overhead, core cycles.
    pub draw_setup_cycles: f64,
    /// Registers available per EU thread slot (occupancy divider).
    pub register_file_per_thread: u32,
}

impl ArchConfig {
    /// The baseline integrated-GPU-class configuration every experiment
    /// scales from.
    pub fn baseline() -> Self {
        ArchConfig {
            name: "baseline".to_string(),
            eu_count: 24,
            simd_width: 8,
            core_clock_mhz: 1000.0,
            mem_clock_mhz: 800.0,
            mem_bus_bytes: 48,
            tex_rate: 16,
            rop_rate: 8,
            raster_rate: 16,
            prim_rate: 1.0,
            tex_cache_kib: 96,
            l2_cache_kib: 1024,
            draw_setup_cycles: 700.0,
            register_file_per_thread: 128,
        }
    }

    /// A low-power design point: half the EUs and fixed-function rates.
    pub fn small() -> Self {
        ArchConfig {
            name: "small".to_string(),
            eu_count: 12,
            tex_rate: 8,
            rop_rate: 4,
            raster_rate: 8,
            ..Self::baseline()
        }
    }

    /// A scaled-up design point: double EUs and fixed function.
    pub fn large() -> Self {
        ArchConfig {
            name: "large".to_string(),
            eu_count: 48,
            tex_rate: 32,
            rop_rate: 16,
            raster_rate: 32,
            prim_rate: 2.0,
            ..Self::baseline()
        }
    }

    /// Baseline compute with a doubled memory system.
    pub fn wide_memory() -> Self {
        ArchConfig {
            name: "wide-memory".to_string(),
            mem_bus_bytes: 96,
            l2_cache_kib: 2048,
            ..Self::baseline()
        }
    }

    /// High-clock, narrow design.
    pub fn speed_demon() -> Self {
        ArchConfig {
            name: "speed-demon".to_string(),
            eu_count: 16,
            core_clock_mhz: 1600.0,
            ..Self::baseline()
        }
    }

    /// Wide, low-clock design.
    pub fn wide_and_slow() -> Self {
        ArchConfig {
            name: "wide-and-slow".to_string(),
            eu_count: 64,
            tex_rate: 40,
            rop_rate: 20,
            raster_rate: 40,
            prim_rate: 2.0,
            core_clock_mhz: 650.0,
            ..Self::baseline()
        }
    }

    /// The six design points the pathfinding experiment (E10) ranks.
    pub fn pathfinding_candidates() -> Vec<ArchConfig> {
        vec![
            Self::baseline(),
            Self::small(),
            Self::large(),
            Self::wide_memory(),
            Self::speed_demon(),
            Self::wide_and_slow(),
        ]
    }

    /// Starts a builder seeded from this configuration.
    pub fn to_builder(&self) -> ArchConfigBuilder {
        ArchConfigBuilder {
            config: self.clone(),
        }
    }

    /// Returns a copy with a different core clock (name annotated).
    pub fn with_core_clock(&self, mhz: f64) -> ArchConfig {
        let mut c = self.clone();
        c.core_clock_mhz = mhz;
        c.name = format!("{}@{}MHz", self.name, mhz as u64);
        c
    }

    /// Peak multiply-add throughput in flops/ns (2 flops per lane-cycle).
    pub fn peak_flops(&self) -> f64 {
        2.0 * f64::from(self.eu_count) * f64::from(self.simd_width) * self.core_clock_mhz * 1e-3
    }

    /// Shader-core lane-cycles available per nanosecond.
    pub fn shader_lanes_per_ns(&self) -> f64 {
        f64::from(self.eu_count) * f64::from(self.simd_width) * self.core_clock_mhz * 1e-3
    }

    /// Core clock period in nanoseconds.
    pub fn core_period_ns(&self) -> f64 {
        1e3 / self.core_clock_mhz
    }

    /// Memory bandwidth in bytes per nanosecond.
    pub fn mem_bandwidth_bytes_per_ns(&self) -> f64 {
        f64::from(self.mem_bus_bytes) * self.mem_clock_mhz * 1e-3
    }

    /// Checks internal consistency; a valid config has strictly positive
    /// rates and clocks.
    pub fn is_valid(&self) -> bool {
        self.eu_count > 0
            && self.simd_width > 0
            && self.core_clock_mhz > 0.0
            && self.mem_clock_mhz > 0.0
            && self.mem_bus_bytes > 0
            && self.tex_rate > 0
            && self.rop_rate > 0
            && self.raster_rate > 0
            && self.prim_rate > 0.0
            && self.tex_cache_kib > 0
            && self.l2_cache_kib > 0
            && self.register_file_per_thread > 0
    }

    /// [`ArchConfig::is_valid`] as a typed error, so a sweep or
    /// validation over several configs can reject the first invalid one
    /// before spending any simulation work on the others.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming this config when it is
    /// invalid.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.is_valid() {
            Ok(())
        } else {
            Err(SimError::InvalidConfig {
                name: self.name.clone(),
            })
        }
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Builder for custom [`ArchConfig`]s (C-BUILDER).
///
/// # Examples
///
/// ```
/// use subset3d_gpusim::ArchConfig;
///
/// let custom = ArchConfig::baseline()
///     .to_builder()
///     .name("exp-a")
///     .eu_count(32)
///     .core_clock_mhz(1100.0)
///     .build();
/// assert_eq!(custom.name, "exp-a");
/// assert_eq!(custom.eu_count, 32);
/// ```
#[derive(Debug, Clone)]
pub struct ArchConfigBuilder {
    config: ArchConfig,
}

macro_rules! builder_setter {
    ($(#[$doc:meta])* $field:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $field(mut self, value: $ty) -> Self {
            self.config.$field = value;
            self
        }
    };
}

impl ArchConfigBuilder {
    /// Sets the configuration name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.config.name = name.into();
        self
    }

    builder_setter!(
        /// Sets the execution-unit count.
        eu_count: u32
    );
    builder_setter!(
        /// Sets the SIMD width per EU.
        simd_width: u32
    );
    builder_setter!(
        /// Sets the core clock in MHz.
        core_clock_mhz: f64
    );
    builder_setter!(
        /// Sets the memory clock in MHz.
        mem_clock_mhz: f64
    );
    builder_setter!(
        /// Sets the memory bus width in bytes per memory clock.
        mem_bus_bytes: u32
    );
    builder_setter!(
        /// Sets texture sampler throughput (samples per core clock).
        tex_rate: u32
    );
    builder_setter!(
        /// Sets ROP throughput (pixels per core clock).
        rop_rate: u32
    );
    builder_setter!(
        /// Sets rasteriser throughput (pixels per core clock).
        raster_rate: u32
    );
    builder_setter!(
        /// Sets primitive setup throughput (primitives per core clock).
        prim_rate: f64
    );
    builder_setter!(
        /// Sets texture cache capacity in KiB.
        tex_cache_kib: u32
    );
    builder_setter!(
        /// Sets L2 cache capacity in KiB.
        l2_cache_kib: u32
    );
    builder_setter!(
        /// Sets fixed per-draw setup overhead in core cycles.
        draw_setup_cycles: f64
    );

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if the resulting configuration is invalid (zero rates/clocks).
    pub fn build(self) -> ArchConfig {
        assert!(self.config.is_valid(), "invalid architecture configuration");
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        assert!(ArchConfig::baseline().is_valid());
    }

    #[test]
    fn all_candidates_valid_and_distinct() {
        let cands = ArchConfig::pathfinding_candidates();
        assert_eq!(cands.len(), 6);
        let names: std::collections::BTreeSet<_> = cands.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), 6);
        assert!(cands.iter().all(ArchConfig::is_valid));
    }

    #[test]
    fn derived_rates() {
        let c = ArchConfig::baseline();
        // 24 EU × 8 lanes × 1 GHz × 2 flops = 384 flops/ns.
        assert!((c.peak_flops() - 384.0).abs() < 1e-9);
        // 48 B × 0.8 GHz = 38.4 B/ns.
        assert!((c.mem_bandwidth_bytes_per_ns() - 38.4).abs() < 1e-9);
        assert!((c.core_period_ns() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn with_core_clock_only_changes_core_domain() {
        let base = ArchConfig::baseline();
        let turbo = base.with_core_clock(2000.0);
        assert_eq!(turbo.core_clock_mhz, 2000.0);
        assert_eq!(turbo.mem_clock_mhz, base.mem_clock_mhz);
        assert!(turbo.name.contains("2000"));
    }

    #[test]
    fn builder_roundtrip() {
        let c = ArchConfig::baseline()
            .to_builder()
            .eu_count(10)
            .simd_width(16)
            .build();
        assert_eq!(c.eu_count, 10);
        assert_eq!(c.simd_width, 16);
    }

    #[test]
    #[should_panic(expected = "invalid architecture")]
    fn builder_rejects_zero_eu() {
        ArchConfig::baseline().to_builder().eu_count(0).build();
    }

    #[test]
    fn large_beats_baseline_on_flops() {
        assert!(ArchConfig::large().peak_flops() > ArchConfig::baseline().peak_flops());
    }
}
