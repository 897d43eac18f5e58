//! Raster stage: primitive setup and rasterisation.

use crate::config::ArchConfig;
use subset3d_trace::DrawCall;

/// Primitive area below which rasteriser efficiency degrades (a coarse
/// raster tile is wasted on a tiny triangle).
const EFFICIENT_AREA_PX: f64 = 16.0;

/// Minimum rasteriser efficiency for degenerate, sub-pixel triangles.
const MIN_EFFICIENCY: f64 = 0.125;

/// Pixels touched by the rasteriser: covered area × overdraw, before the
/// early-Z test rejects fragments. The raster, ROP and DRAM stages all
/// read it.
pub(crate) fn rasterised_pixels(draw: &DrawCall) -> f64 {
    draw.coverage * draw.render_target.pixels() as f64 * draw.overdraw
}

/// The config-independent half of the raster stage: surviving
/// primitives, rasterised pixels and the small-triangle efficiency.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RasterWork {
    prims: f64,
    pixels: f64,
    efficiency: f64,
}

impl RasterWork {
    /// `rasterised` is [`rasterised_pixels`] of `draw`.
    pub(crate) fn new(draw: &DrawCall, rasterised: f64) -> Self {
        RasterWork {
            prims: draw.primitives() as f64 * draw.cull.survival_rate(),
            pixels: rasterised,
            efficiency: (draw.avg_primitive_area() / EFFICIENT_AREA_PX).clamp(MIN_EFFICIENCY, 1.0),
        }
    }

    /// The config half: the max of setup-limited and fill-limited cycles.
    pub(crate) fn cycles(&self, config: &ArchConfig) -> f64 {
        if self.prims <= 0.0 {
            return 0.0;
        }
        let setup = self.prims / config.prim_rate;
        let fill = self.pixels / (f64::from(config.raster_rate) * self.efficiency);
        setup.max(fill)
    }
}

/// Total machine core cycles for triangle setup + rasterisation of a draw.
///
/// The stage cost is the max of setup-limited and fill-limited throughput;
/// small triangles derate the fill rate (the classic small-triangle
/// problem).
pub fn raster_cycles(draw: &DrawCall, config: &ArchConfig) -> f64 {
    RasterWork::new(draw, rasterised_pixels(draw)).cycles(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::test_support::test_draw;
    use subset3d_trace::{CullMode, PrimitiveTopology};

    #[test]
    fn zero_prims_cost_nothing() {
        let mut d = test_draw();
        d.vertex_count = 2; // no full triangle
        d.topology = PrimitiveTopology::TriangleList;
        assert_eq!(raster_cycles(&d, &ArchConfig::baseline()), 0.0);
    }

    #[test]
    fn small_triangles_cost_more_per_pixel() {
        let config = ArchConfig::baseline();
        // Same covered pixels, 100× more triangles.
        let mut coarse = test_draw();
        coarse.vertex_count = 300;
        let mut fine = test_draw();
        fine.vertex_count = 30_000;
        let a = raster_cycles(&coarse, &config);
        let b = raster_cycles(&fine, &config);
        assert!(b > a, "fine {b} should exceed coarse {a}");
    }

    #[test]
    fn setup_bound_for_huge_culled_meshes() {
        let config = ArchConfig::baseline();
        let mut d = test_draw();
        d.vertex_count = 3_000_000;
        d.coverage = 1e-4; // almost nothing visible
        let prims = d.primitives() as f64 * d.cull.survival_rate();
        let cycles = raster_cycles(&d, &config);
        assert!((cycles - prims / config.prim_rate).abs() / cycles < 1e-9);
    }

    #[test]
    fn cull_mode_reduces_cost() {
        let config = ArchConfig::baseline();
        let mut culled = test_draw();
        culled.cull = CullMode::Back;
        culled.coverage = 1e-4;
        culled.vertex_count = 300_000;
        let mut uncull = culled.clone();
        uncull.cull = CullMode::None;
        assert!(raster_cycles(&culled, &config) < raster_cycles(&uncull, &config));
    }

    #[test]
    fn faster_raster_rate_helps_fill_bound_draws() {
        let base = ArchConfig::baseline();
        let big = ArchConfig::large();
        let mut d = test_draw();
        d.coverage = 0.9;
        d.vertex_count = 900; // large triangles, fill bound
        assert!(raster_cycles(&d, &big) < raster_cycles(&d, &base));
    }
}
