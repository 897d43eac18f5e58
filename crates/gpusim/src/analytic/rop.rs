//! ROP stage: blend, depth test and render-target writes.

use crate::analytic::raster::rasterised_pixels;
use crate::config::ArchConfig;
use subset3d_trace::DrawCall;

/// The config-independent half of the ROP stage: the draw's ROP
/// operation count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RopWork {
    ops: f64,
}

impl RopWork {
    /// Blending modes that read the destination cost two ROP operations
    /// per shaded pixel; depth-enabled draws add one depth test per
    /// `rasterised` fragment (early-Z runs before shading).
    pub(crate) fn new(draw: &DrawCall, shaded: f64, rasterised: f64) -> Self {
        let color_ops = shaded
            * if draw.blend.reads_destination() {
                2.0
            } else {
                1.0
            };
        let depth_ops = if draw.depth.accesses_depth() {
            rasterised
        } else {
            0.0
        };
        RopWork {
            ops: color_ops + depth_ops,
        }
    }

    /// The config half: the operations at the machine's ROP rate.
    pub(crate) fn cycles(&self, config: &ArchConfig) -> f64 {
        self.ops / f64::from(config.rop_rate)
    }
}

/// Total machine core cycles for the render-output stage of a draw.
///
/// Blending modes that read the destination cost two ROP operations per
/// shaded pixel; depth-enabled draws additionally pay depth-test throughput
/// on every rasterised fragment (early-Z runs before shading).
pub fn rop_cycles(draw: &DrawCall, config: &ArchConfig) -> f64 {
    RopWork::new(draw, draw.shaded_pixels(), rasterised_pixels(draw)).cycles(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::test_support::test_draw;
    use subset3d_trace::{BlendMode, DepthMode};

    #[test]
    fn blending_doubles_color_ops() {
        let config = ArchConfig::baseline();
        let mut opaque = test_draw();
        opaque.blend = BlendMode::Opaque;
        opaque.depth = DepthMode::Disabled;
        let mut blended = opaque.clone();
        blended.blend = BlendMode::AlphaBlend;
        let a = rop_cycles(&opaque, &config);
        let b = rop_cycles(&blended, &config);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn depth_disabled_skips_depth_ops() {
        let config = ArchConfig::baseline();
        let mut with_depth = test_draw();
        with_depth.depth = DepthMode::TestAndWrite;
        let mut without = test_draw();
        without.depth = DepthMode::Disabled;
        assert!(rop_cycles(&with_depth, &config) > rop_cycles(&without, &config));
    }

    #[test]
    fn more_rops_reduce_cycles() {
        let base = ArchConfig::baseline();
        let big = ArchConfig::large();
        let d = test_draw();
        assert!(rop_cycles(&d, &big) < rop_cycles(&d, &base));
    }

    #[test]
    fn zero_coverage_zero_cost() {
        let config = ArchConfig::baseline();
        let mut d = test_draw();
        d.coverage = 0.0;
        assert_eq!(rop_cycles(&d, &config), 0.0);
    }
}
