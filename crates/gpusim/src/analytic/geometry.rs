//! Geometry stage: vertex fetch and vertex shading.

use crate::analytic::shading::ShaderWork;
use crate::config::ArchConfig;
use subset3d_trace::{DrawCall, ShaderProgram};

/// Vertex fetch cost in core cycles per vertex (index decode + attribute
/// gather, amortised by the post-transform cache).
const FETCH_CYCLES_PER_VERTEX: f64 = 0.25;

/// The config-independent half of the geometry stage: vertex-shading
/// work and vertex-fetch cycles.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GeometryWork {
    shading: ShaderWork,
    fetch: f64,
}

impl GeometryWork {
    pub(crate) fn new(draw: &DrawCall, vs: &ShaderProgram) -> Self {
        let invocations = draw.vertex_invocations() as f64;
        GeometryWork {
            shading: ShaderWork::new(invocations, vs),
            fetch: invocations * FETCH_CYCLES_PER_VERTEX,
        }
    }

    /// The config half: machine core cycles of shading plus fetch.
    pub(crate) fn cycles(&self, config: &ArchConfig) -> f64 {
        self.shading.cycles(config) + self.fetch
    }
}

/// Total machine core cycles for the geometry stage of a draw: vertex fetch
/// plus vertex shading across all invocations.
pub fn geometry_cycles(draw: &DrawCall, vs: &ShaderProgram, config: &ArchConfig) -> f64 {
    GeometryWork::new(draw, vs).cycles(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::test_support::{test_draw, test_vs};

    #[test]
    fn scales_linearly_with_vertices() {
        let config = ArchConfig::baseline();
        let mut small = test_draw();
        small.vertex_count = 300;
        let mut big = test_draw();
        big.vertex_count = 3000;
        let a = geometry_cycles(&small, &test_vs(), &config);
        let b = geometry_cycles(&big, &test_vs(), &config);
        assert!((b / a - 10.0).abs() < 1e-6);
    }

    #[test]
    fn instancing_multiplies_geometry() {
        let config = ArchConfig::baseline();
        let base = test_draw();
        let mut inst = test_draw();
        inst.instance_count = 5;
        assert!(
            (geometry_cycles(&inst, &test_vs(), &config)
                / geometry_cycles(&base, &test_vs(), &config)
                - 5.0)
                .abs()
                < 1e-6
        );
    }

    #[test]
    fn fetch_floor_present_for_trivial_shader() {
        // Even a zero-instruction VS pays vertex fetch.
        let config = ArchConfig::baseline();
        let mut vs = test_vs();
        vs.mix = Default::default();
        let d = test_draw();
        let cycles = geometry_cycles(&d, &vs, &config);
        assert!(cycles >= d.vertex_invocations() as f64 * FETCH_CYCLES_PER_VERTEX);
    }
}
