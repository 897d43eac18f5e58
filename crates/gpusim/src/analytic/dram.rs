//! Memory traffic: the DRAM bytes a draw moves.

use crate::analytic::raster::rasterised_pixels;
use crate::analytic::texture::TextureTraffic;
use crate::config::ArchConfig;
use subset3d_trace::{DepthMode, DrawCall, ShaderProgram};

/// Bytes fetched per vertex (position + attributes), after post-transform
/// and vertex-cache reuse.
const VERTEX_FETCH_BYTES: f64 = 12.0;

/// Framebuffer compression factor applied to colour traffic.
const COLOR_COMPRESSION: f64 = 0.6;

/// Hierarchical-Z compression factor applied to depth traffic.
const DEPTH_COMPRESSION: f64 = 0.5;

/// The config-independent half of a draw's DRAM traffic: vertex,
/// colour and depth bytes. Texture bytes depend on the config twice over
/// (texture-cache misses, then the L2), so they join in the config half.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DramWork {
    vertex_bytes: f64,
    color_bytes: f64,
    depth_bytes: f64,
}

impl DramWork {
    /// `shaded` and `rasterised` are the draw's shaded and rasterised
    /// pixel counts.
    pub(crate) fn new(draw: &DrawCall, shaded: f64, rasterised: f64) -> Self {
        let vertex_bytes = draw.vertex_invocations() as f64 * VERTEX_FETCH_BYTES;
        let write_factor = if draw.blend.reads_destination() {
            2.0
        } else {
            1.0
        };
        let color_bytes =
            shaded * draw.render_target.bytes_per_pixel() * write_factor * COLOR_COMPRESSION;
        let depth_bytes = match draw.depth {
            DepthMode::Disabled => 0.0,
            DepthMode::TestOnly => rasterised * 4.0 * DEPTH_COMPRESSION,
            // Read on every rasterised fragment, write on passing fragments.
            DepthMode::TestAndWrite => (rasterised + shaded) * 4.0 * DEPTH_COMPRESSION,
        };
        DramWork {
            vertex_bytes,
            color_bytes,
            depth_bytes,
        }
    }

    /// The config half: the texture-cache miss stream `tex` filtered by
    /// `config`'s L2, summed with the other traffic.
    pub(crate) fn bytes(&self, config: &ArchConfig, tex: &TextureTraffic) -> f64 {
        // The L2 absorbs part of the texture-cache miss stream; how much
        // depends on how the bound footprint compares to L2 capacity.
        let l2_bytes = f64::from(config.l2_cache_kib) * 1024.0;
        let l2_hit = (l2_bytes / (tex.miss_bytes + l2_bytes)) * 0.8;
        let texture_bytes = tex.miss_bytes * (1.0 - l2_hit);
        self.vertex_bytes + texture_bytes + self.color_bytes + self.depth_bytes
    }
}

/// Total DRAM bytes moved by a draw: vertex fetch, texture misses filtered
/// by the L2, colour writes and depth traffic.
pub fn dram_bytes(
    draw: &DrawCall,
    _vs: &ShaderProgram,
    config: &ArchConfig,
    tex: &TextureTraffic,
) -> f64 {
    DramWork::new(draw, draw.shaded_pixels(), rasterised_pixels(draw)).bytes(config, tex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::test_support::{test_draw, test_ps, test_textures, test_vs};
    use crate::analytic::texture::texture_traffic;
    use subset3d_trace::BlendMode;

    fn traffic(draw: &DrawCall, warmth: f64) -> TextureTraffic {
        texture_traffic(
            draw,
            &test_ps(),
            &test_textures(),
            &ArchConfig::baseline(),
            warmth,
        )
    }

    #[test]
    fn bytes_positive_for_normal_draw() {
        let d = test_draw();
        let b = dram_bytes(&d, &test_vs(), &ArchConfig::baseline(), &traffic(&d, 0.0));
        assert!(b > 0.0);
    }

    #[test]
    fn blending_increases_color_traffic() {
        let config = ArchConfig::baseline();
        let opaque = test_draw();
        let mut blended = test_draw();
        blended.blend = BlendMode::Additive;
        let a = dram_bytes(&opaque, &test_vs(), &config, &traffic(&opaque, 0.0));
        let b = dram_bytes(&blended, &test_vs(), &config, &traffic(&blended, 0.0));
        assert!(b > a);
    }

    #[test]
    fn disabled_depth_moves_fewer_bytes() {
        let config = ArchConfig::baseline();
        let with_depth = test_draw();
        let mut without = test_draw();
        without.depth = DepthMode::Disabled;
        let a = dram_bytes(&with_depth, &test_vs(), &config, &traffic(&with_depth, 0.0));
        let b = dram_bytes(&without, &test_vs(), &config, &traffic(&without, 0.0));
        assert!(a > b);
    }

    #[test]
    fn bigger_l2_absorbs_texture_misses() {
        let d = test_draw();
        let t = traffic(&d, 0.0);
        let small = ArchConfig::baseline().to_builder().l2_cache_kib(64).build();
        let big = ArchConfig::baseline()
            .to_builder()
            .l2_cache_kib(8192)
            .build();
        let a = dram_bytes(&d, &test_vs(), &small, &t);
        let b = dram_bytes(&d, &test_vs(), &big, &t);
        assert!(b < a);
    }

    #[test]
    fn vertex_traffic_floor() {
        // A draw with no pixels still fetches vertices.
        let mut d = test_draw();
        d.coverage = 0.0;
        let b = dram_bytes(&d, &test_vs(), &ArchConfig::baseline(), &traffic(&d, 0.0));
        assert!((b - d.vertex_invocations() as f64 * VERTEX_FETCH_BYTES).abs() < 1e-9);
    }
}
