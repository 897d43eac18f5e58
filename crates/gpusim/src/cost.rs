//! Simulated cost structures: per-draw, per-frame and per-workload.

use crate::memo::{FNV_BASIS_A, FNV_PRIME};
use serde::{Deserialize, Serialize};

/// Pipeline stage identified as a draw's bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Vertex fetch + vertex shading.
    Geometry,
    /// Triangle setup and rasterisation.
    Raster,
    /// Pixel shading on the EU array.
    PixelShade,
    /// Texture sampling and filtering.
    Texture,
    /// Render output (blend, depth, writes).
    Rop,
    /// DRAM bandwidth.
    Memory,
    /// Fixed per-draw command-processor overhead.
    Overhead,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Geometry,
        Stage::Raster,
        Stage::PixelShade,
        Stage::Texture,
        Stage::Rop,
        Stage::Memory,
        Stage::Overhead,
    ];
}

/// Simulated cost of one draw-call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrawCost {
    /// Vertex fetch + shading core cycles.
    pub geometry_cycles: f64,
    /// Rasteriser core cycles.
    pub raster_cycles: f64,
    /// Pixel-shading core cycles.
    pub pixel_cycles: f64,
    /// Texture sampling core cycles.
    pub texture_cycles: f64,
    /// ROP core cycles.
    pub rop_cycles: f64,
    /// Fixed setup overhead core cycles.
    pub overhead_cycles: f64,
    /// Bytes moved to/from DRAM.
    pub mem_bytes: f64,
    /// Wall-clock time of the draw in nanoseconds.
    pub time_ns: f64,
    /// The limiting stage.
    pub bottleneck: Stage,
}

impl DrawCost {
    /// Core cycles of the slowest core-clock stage (excludes memory).
    pub fn max_core_cycles(&self) -> f64 {
        self.geometry_cycles
            .max(self.raster_cycles)
            .max(self.pixel_cycles)
            .max(self.texture_cycles)
            .max(self.rop_cycles)
    }

    /// Core cycles of a given stage.
    pub fn stage_cycles(&self, stage: Stage) -> f64 {
        match stage {
            Stage::Geometry => self.geometry_cycles,
            Stage::Raster => self.raster_cycles,
            Stage::PixelShade => self.pixel_cycles,
            Stage::Texture => self.texture_cycles,
            Stage::Rop => self.rop_cycles,
            Stage::Overhead => self.overhead_cycles,
            Stage::Memory => 0.0,
        }
    }
}

/// Simulated cost of one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameCost {
    /// Per-draw costs, in submission order.
    pub draws: Vec<DrawCost>,
    /// Total frame time in nanoseconds (sum of draw times).
    pub total_ns: f64,
}

impl FrameCost {
    /// Builds a frame cost from draw costs, accumulating the total.
    pub fn from_draws(draws: Vec<DrawCost>) -> Self {
        let total_ns = subset3d_stats::sum_iter(draws.iter().map(|d| d.time_ns));
        FrameCost { draws, total_ns }
    }

    /// Per-draw times in nanoseconds.
    pub fn draw_times(&self) -> Vec<f64> {
        self.draws.iter().map(|d| d.time_ns).collect()
    }
}

/// Simulated cost of a whole workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCost {
    /// Per-frame costs, in trace order.
    pub frames: Vec<FrameCost>,
    /// Total workload time in nanoseconds.
    pub total_ns: f64,
}

impl WorkloadCost {
    /// Builds a workload cost from frame costs, accumulating the total.
    pub fn from_frames(frames: Vec<FrameCost>) -> Self {
        let total_ns = subset3d_stats::sum_iter(frames.iter().map(|f| f.total_ns));
        WorkloadCost { frames, total_ns }
    }

    /// Per-frame times in nanoseconds.
    pub fn frame_times(&self) -> Vec<f64> {
        self.frames.iter().map(|f| f.total_ns).collect()
    }

    /// Total number of simulated draws.
    pub fn total_draws(&self) -> usize {
        self.frames.iter().map(|f| f.draws.len()).sum()
    }

    /// Order-dependent 64-bit digest of every draw's `time_ns` bit
    /// pattern, frames in trace order and draws in submission order —
    /// the value a sweep's `ConfigPoint::digest` carries for the same
    /// config. Unlike a total, where opposite one-ulp errors can cancel
    /// below the last bit, any one changed draw time changes the digest.
    pub fn digest(&self) -> u64 {
        let mut digest = TimeDigest::new();
        for frame in &self.frames {
            for draw in &frame.draws {
                digest.fold(draw.time_ns);
            }
        }
        digest.finish()
    }

    /// Total draw time attributed to each bottleneck stage — the
    /// workload-characterisation view ("where does this game spend its GPU
    /// time?").
    pub fn bottleneck_breakdown(&self) -> std::collections::BTreeMap<String, f64> {
        let mut map = std::collections::BTreeMap::new();
        for frame in &self.frames {
            for draw in &frame.draws {
                *map.entry(format!("{:?}", draw.bottleneck)).or_insert(0.0) += draw.time_ns;
            }
        }
        map
    }
}

/// 64-bit FNV-1a over draw times' bit patterns, one word per draw.
/// Every step is a bijection of the running state, so changing any one
/// draw time always changes the result.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimeDigest(u64);

impl TimeDigest {
    pub(crate) fn new() -> Self {
        TimeDigest(FNV_BASIS_A)
    }

    /// Folds the next draw time.
    #[inline]
    pub(crate) fn fold(&mut self, time_ns: f64) {
        self.0 = (self.0 ^ time_ns.to_bits()).wrapping_mul(FNV_PRIME);
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(time: f64) -> DrawCost {
        DrawCost {
            geometry_cycles: 10.0,
            raster_cycles: 5.0,
            pixel_cycles: 50.0,
            texture_cycles: 20.0,
            rop_cycles: 8.0,
            overhead_cycles: 1.0,
            mem_bytes: 100.0,
            time_ns: time,
            bottleneck: Stage::PixelShade,
        }
    }

    #[test]
    fn max_core_cycles_picks_largest() {
        assert_eq!(cost(1.0).max_core_cycles(), 50.0);
    }

    #[test]
    fn stage_cycles_lookup() {
        let c = cost(1.0);
        assert_eq!(c.stage_cycles(Stage::Geometry), 10.0);
        assert_eq!(c.stage_cycles(Stage::Texture), 20.0);
        assert_eq!(c.stage_cycles(Stage::Memory), 0.0);
    }

    #[test]
    fn frame_cost_totals() {
        let f = FrameCost::from_draws(vec![cost(1.0), cost(2.0), cost(3.0)]);
        assert_eq!(f.total_ns, 6.0);
        assert_eq!(f.draw_times(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn workload_cost_totals() {
        let f1 = FrameCost::from_draws(vec![cost(1.0)]);
        let f2 = FrameCost::from_draws(vec![cost(2.0), cost(3.0)]);
        let w = WorkloadCost::from_frames(vec![f1, f2]);
        assert_eq!(w.total_ns, 6.0);
        assert_eq!(w.total_draws(), 3);
        assert_eq!(w.frame_times(), vec![1.0, 5.0]);
    }

    #[test]
    fn digest_sees_every_draw_time_and_its_order() {
        let w = |times: &[&[f64]]| {
            WorkloadCost::from_frames(
                times
                    .iter()
                    .map(|f| FrameCost::from_draws(f.iter().map(|&t| cost(t)).collect()))
                    .collect(),
            )
        };
        let base = w(&[&[1.0, 2.0], &[3.0]]);
        assert_eq!(base.digest(), w(&[&[1.0, 2.0], &[3.0]]).digest());
        let flipped = f64::from_bits(2.0f64.to_bits() ^ 1);
        assert_ne!(base.digest(), w(&[&[1.0, flipped], &[3.0]]).digest());
        assert_ne!(base.digest(), w(&[&[2.0, 1.0], &[3.0]]).digest());
        // Frame boundaries are not folded: the digest is over the draw
        // sequence, as a sweep walks it.
        assert_eq!(base.digest(), w(&[&[1.0], &[2.0, 3.0]]).digest());
        assert_eq!(
            WorkloadCost::from_frames(Vec::new()).digest(),
            TimeDigest::new().finish()
        );
    }

    #[test]
    fn empty_frame_is_zero() {
        let f = FrameCost::from_draws(Vec::new());
        assert_eq!(f.total_ns, 0.0);
    }

    #[test]
    fn bottleneck_breakdown_sums_to_total() {
        let f1 = FrameCost::from_draws(vec![cost(1.0), cost(2.0)]);
        let f2 = FrameCost::from_draws(vec![cost(4.0)]);
        let w = WorkloadCost::from_frames(vec![f1, f2]);
        let breakdown = w.bottleneck_breakdown();
        let sum: f64 = breakdown.values().sum();
        assert!((sum - w.total_ns).abs() < 1e-12);
        assert_eq!(breakdown.len(), 1); // all test draws are PixelShade-bound
        assert!(breakdown.contains_key("PixelShade"));
    }
}
