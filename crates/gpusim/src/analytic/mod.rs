//! Analytical bottleneck timing model.
//!
//! Each draw's wall-clock time is derived from closed-form per-stage costs:
//!
//! ```text
//! core_time = (max(geometry, raster, pixel, texture, rop) + setup) / f_core
//! mem_time  = dram_bytes / bandwidth(f_mem)
//! time      = max(core_time, mem_time) + ε·min(core_time, mem_time)
//! ```
//!
//! The `max` expresses that GPU pipeline stages overlap within a draw; the
//! small ε term models residual contention between the core and memory
//! domains. Keeping the core and memory clocks separate is what gives
//! frequency scaling its draw-dependent shape: compute-bound draws scale
//! with the core clock, bandwidth-bound draws flatten.
//!
//! Every stage formula is split in two halves: a config-independent half
//! that reads the draw, its shaders, the texture registry and the warmth
//! context, and a config half that finishes the arithmetic on one
//! [`ArchConfig`]. `PreparedDraw` holds the first halves of a draw so a
//! design sweep computes them once and evaluates every candidate from
//! them; [`analyze_draw`] and each public stage function are a prepare
//! followed by one evaluation, so each formula exists once.

mod dram;
mod geometry;
mod raster;
mod rop;
mod shading;
mod texture;

pub use dram::dram_bytes;
pub use geometry::geometry_cycles;
pub use raster::raster_cycles;
pub use rop::rop_cycles;
pub use shading::{instruction_cycles, occupancy_factor, pixel_cycles};
pub use texture::{texture_hit_rate, texture_traffic, TextureTraffic};

use crate::config::ArchConfig;
use crate::cost::{DrawCost, Stage};
use dram::DramWork;
use geometry::GeometryWork;
use raster::{rasterised_pixels, RasterWork};
use rop::RopWork;
use shading::ShaderWork;
use subset3d_trace::{DrawCall, ShaderProgram, TextureRegistry};
use texture::TextureWork;

/// Residual core/memory contention factor of the bottleneck composition.
const CONTENTION: f64 = 0.03;

/// Computes the full analytical cost of one draw.
///
/// `warmth` in `0.0..=1.0` is the cross-draw texture-cache warmth computed
/// by the frame loop (fraction of the draw's textures touched by recent
/// draws); it is *context*, not a property of the draw, and is therefore
/// invisible to micro-architecture-independent features.
pub fn analyze_draw(
    draw: &DrawCall,
    vs: &ShaderProgram,
    ps: &ShaderProgram,
    textures: &TextureRegistry,
    config: &ArchConfig,
    warmth: f64,
) -> DrawCost {
    PreparedDraw::new(draw, vs, ps, textures, warmth).evaluate(config)
}

/// One draw in one warmth context with every config-independent half of
/// the model computed: evaluating it on a config gives exactly
/// [`analyze_draw`]'s cost, bit for bit, without touching the draw, its
/// shaders or the texture registry again.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedDraw {
    geometry: GeometryWork,
    raster: RasterWork,
    pixel: ShaderWork,
    texture: TextureWork,
    rop: RopWork,
    dram: DramWork,
}

impl PreparedDraw {
    /// Runs every stage's config-independent half once, reading the
    /// texture registry in one walk.
    pub(crate) fn new(
        draw: &DrawCall,
        vs: &ShaderProgram,
        ps: &ShaderProgram,
        textures: &TextureRegistry,
        warmth: f64,
    ) -> Self {
        let shaded = draw.shaded_pixels();
        let rasterised = rasterised_pixels(draw);
        PreparedDraw {
            geometry: GeometryWork::new(draw, vs),
            raster: RasterWork::new(draw, rasterised),
            pixel: ShaderWork::new(shaded, ps),
            texture: TextureWork::new(draw, ps, textures, warmth, shaded),
            rop: RopWork::new(draw, shaded, rasterised),
            dram: DramWork::new(draw, shaded, rasterised),
        }
    }

    /// Runs every stage's config half on `config` and composes the
    /// bottleneck.
    pub(crate) fn evaluate(&self, config: &ArchConfig) -> DrawCost {
        let geometry = self.geometry.cycles(config);
        let raster = self.raster.cycles(config);
        let pixel = self.pixel.cycles(config);
        let tex = self.texture.traffic(config);
        let rop = self.rop.cycles(config);
        let mem_bytes = self.dram.bytes(config, &tex);

        let overhead = config.draw_setup_cycles;
        let stage_cycles = [
            (Stage::Geometry, geometry),
            (Stage::Raster, raster),
            (Stage::PixelShade, pixel),
            (Stage::Texture, tex.sample_cycles),
            (Stage::Rop, rop),
        ];
        let (mut bottleneck, max_cycles) =
            stage_cycles
                .iter()
                .copied()
                .fold((Stage::Overhead, 0.0f64), |(bs, bc), (s, c)| {
                    if c > bc {
                        (s, c)
                    } else {
                        (bs, bc)
                    }
                });
        if overhead > max_cycles {
            bottleneck = Stage::Overhead;
        }

        let core_time_ns = (max_cycles + overhead) * config.core_period_ns();
        let mem_time_ns = mem_bytes / config.mem_bandwidth_bytes_per_ns();
        if mem_time_ns > core_time_ns {
            bottleneck = Stage::Memory;
        }
        let time_ns = core_time_ns.max(mem_time_ns) + CONTENTION * core_time_ns.min(mem_time_ns);

        DrawCost {
            geometry_cycles: geometry,
            raster_cycles: raster,
            pixel_cycles: pixel,
            texture_cycles: tex.sample_cycles,
            rop_cycles: rop,
            overhead_cycles: overhead,
            mem_bytes,
            time_ns,
            bottleneck,
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use subset3d_trace::{
        DrawCall, DrawId, InstructionMix, PrimitiveTopology, ShaderId, ShaderProgram, ShaderStage,
        TextureDesc, TextureFormat, TextureId, TextureRegistry,
    };

    /// A plain vertex shader for stage tests.
    pub fn test_vs() -> ShaderProgram {
        ShaderProgram::new(
            ShaderId(0),
            ShaderStage::Vertex,
            "vs",
            InstructionMix {
                alu: 16,
                mad: 8,
                transcendental: 1,
                texture_samples: 0,
                interpolants: 6,
                control_flow: 1,
            },
        )
    }

    /// A plain pixel shader for stage tests.
    pub fn test_ps() -> ShaderProgram {
        ShaderProgram::new(
            ShaderId(1),
            ShaderStage::Pixel,
            "ps",
            InstructionMix {
                alu: 24,
                mad: 12,
                transcendental: 2,
                texture_samples: 3,
                interpolants: 5,
                control_flow: 1,
            },
        )
    }

    /// A registry holding one 512² BC1 texture with id 0.
    pub fn test_textures() -> TextureRegistry {
        let mut reg = TextureRegistry::new();
        reg.insert(TextureDesc {
            id: TextureId(0),
            width: 512,
            height: 512,
            mips: 9,
            format: TextureFormat::Bc1,
        });
        reg
    }

    /// A mid-size opaque mesh draw bound to texture 0.
    pub fn test_draw() -> DrawCall {
        DrawCall::builder(DrawId(0))
            .shaders(ShaderId(0), ShaderId(1))
            .geometry(PrimitiveTopology::TriangleList, 3000)
            .textures(vec![TextureId(0)])
            .rasterization(0.02, 1.3, 0.7)
            .texel_locality(0.6)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use crate::config::ArchConfig;

    fn cost_with(config: &ArchConfig, warmth: f64) -> DrawCost {
        analyze_draw(
            &test_draw(),
            &test_vs(),
            &test_ps(),
            &test_textures(),
            config,
            warmth,
        )
    }

    #[test]
    fn cost_is_positive_and_finite() {
        let c = cost_with(&ArchConfig::baseline(), 0.0);
        assert!(c.time_ns > 0.0 && c.time_ns.is_finite());
        assert!(c.mem_bytes > 0.0);
    }

    #[test]
    fn warmth_reduces_cost() {
        let cold = cost_with(&ArchConfig::baseline(), 0.0);
        let warm = cost_with(&ArchConfig::baseline(), 1.0);
        assert!(warm.mem_bytes < cold.mem_bytes);
        assert!(warm.time_ns <= cold.time_ns);
    }

    #[test]
    fn faster_core_clock_never_slows_a_draw() {
        let base = ArchConfig::baseline();
        let turbo = base.with_core_clock(2000.0);
        let a = cost_with(&base, 0.5);
        let b = cost_with(&turbo, 0.5);
        assert!(b.time_ns < a.time_ns);
    }

    #[test]
    fn core_scaling_is_sublinear_due_to_memory() {
        // Doubling the core clock must not halve time exactly: the memory
        // domain does not scale.
        let base = ArchConfig::baseline();
        let turbo = base.with_core_clock(2000.0);
        let a = cost_with(&base, 0.0);
        let b = cost_with(&turbo, 0.0);
        let speedup = a.time_ns / b.time_ns;
        assert!(speedup > 1.0 && speedup <= 2.0, "speedup {speedup}");
    }

    #[test]
    fn bottleneck_is_reported() {
        let c = cost_with(&ArchConfig::baseline(), 0.0);
        assert!(Stage::ALL.contains(&c.bottleneck));
    }

    #[test]
    fn tiny_draw_is_overhead_bound() {
        let mut draw = test_draw();
        draw.vertex_count = 3;
        draw.coverage = 1e-6;
        let c = analyze_draw(
            &draw,
            &test_vs(),
            &test_ps(),
            &test_textures(),
            &ArchConfig::baseline(),
            0.0,
        );
        assert_eq!(c.bottleneck, Stage::Overhead);
    }

    #[test]
    fn more_eus_speed_up_shading_bound_draws() {
        let mut draw = test_draw();
        draw.coverage = 0.8; // pixel heavy
        let base = analyze_draw(
            &draw,
            &test_vs(),
            &test_ps(),
            &test_textures(),
            &ArchConfig::baseline(),
            0.0,
        );
        let large = analyze_draw(
            &draw,
            &test_vs(),
            &test_ps(),
            &test_textures(),
            &ArchConfig::large(),
            0.0,
        );
        assert!(large.pixel_cycles < base.pixel_cycles);
    }
}
