//! Shader execution cost: instruction issue cycles and EU occupancy.

use crate::config::ArchConfig;
use subset3d_trace::{DrawCall, InstructionMix, ShaderProgram};

/// Per-invocation issue cycles of an instruction mix on one SIMD lane.
///
/// Weights reflect typical relative throughputs: transcendental ops issue at
/// a quarter rate, control flow costs two issue slots, interpolant loads
/// half a slot. Texture *issue* costs one slot here; sampling latency and
/// filtering are accounted in the texture stage.
pub fn instruction_cycles(mix: &InstructionMix, divergence: f64) -> f64 {
    let base = f64::from(mix.alu)
        + f64::from(mix.mad)
        + 4.0 * f64::from(mix.transcendental)
        + f64::from(mix.texture_samples)
        + 0.5 * f64::from(mix.interpolants)
        + 2.0 * f64::from(mix.control_flow);
    base * (1.0 + divergence.clamp(0.0, 1.0))
}

/// Latency-hiding factor from register pressure, in `(0, 1]`.
///
/// Threads resident per lane slot = `register_file / registers`; below four
/// resident threads the EU cannot hide latency and throughput degrades.
pub fn occupancy_factor(registers: u32, register_file: u32) -> f64 {
    let threads = f64::from(register_file) / f64::from(registers.max(1));
    let hiding = (threads / 4.0).min(1.0);
    0.55 + 0.45 * hiding
}

/// The config-independent half of a shader stage: the lane cycles of
/// every invocation (see [`instruction_cycles`]), and the register count
/// that sets occupancy on a given machine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShaderWork {
    lane_cycles: f64,
    registers: u32,
}

impl ShaderWork {
    /// `invocations` runs of `shader`.
    pub(crate) fn new(invocations: f64, shader: &ShaderProgram) -> Self {
        ShaderWork {
            lane_cycles: invocations * instruction_cycles(&shader.mix, shader.divergence),
            registers: shader.registers,
        }
    }

    /// The config half: total machine core cycles, the work spread over
    /// every lane at the occupancy the register file allows.
    pub(crate) fn cycles(&self, config: &ArchConfig) -> f64 {
        let lanes = f64::from(config.eu_count) * f64::from(config.simd_width);
        let occ = occupancy_factor(self.registers, config.register_file_per_thread);
        self.lane_cycles / (lanes * occ)
    }
}

/// Total machine core cycles to pixel-shade a draw.
pub fn pixel_cycles(draw: &DrawCall, ps: &ShaderProgram, config: &ArchConfig) -> f64 {
    ShaderWork::new(draw.shaded_pixels(), ps).cycles(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::test_support::{test_draw, test_ps};

    #[test]
    fn instruction_cycles_weighting() {
        let mix = InstructionMix {
            alu: 10,
            mad: 0,
            transcendental: 1,
            texture_samples: 2,
            interpolants: 4,
            control_flow: 1,
        };
        // 10 + 4 + 2 + 2 + 2 = 20
        assert!((instruction_cycles(&mix, 0.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn divergence_inflates_cost() {
        let mix = InstructionMix {
            alu: 10,
            ..Default::default()
        };
        assert!(instruction_cycles(&mix, 0.5) > instruction_cycles(&mix, 0.0));
        // Clamped above 1.0.
        assert_eq!(instruction_cycles(&mix, 5.0), instruction_cycles(&mix, 1.0));
    }

    #[test]
    fn occupancy_full_at_low_pressure() {
        assert!((occupancy_factor(16, 128) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_degrades_with_pressure() {
        let low = occupancy_factor(16, 128);
        let high = occupancy_factor(128, 128);
        assert!(high < low);
        assert!(high > 0.5);
    }

    #[test]
    fn occupancy_handles_zero_registers() {
        // Defensive: registers clamped to 1.
        assert!(occupancy_factor(0, 128) > 0.0);
    }

    #[test]
    fn pixel_cycles_scale_with_coverage() {
        let mut small = test_draw();
        small.coverage = 0.01;
        let mut big = test_draw();
        big.coverage = 0.5;
        let config = crate::ArchConfig::baseline();
        let a = pixel_cycles(&small, &test_ps(), &config);
        let b = pixel_cycles(&big, &test_ps(), &config);
        assert!((b / a - 50.0).abs() < 1.0, "ratio {}", b / a);
    }

    #[test]
    fn wider_machine_shades_faster() {
        let config = crate::ArchConfig::baseline();
        let wide = crate::ArchConfig::large();
        let d = test_draw();
        assert!(pixel_cycles(&d, &test_ps(), &wide) < pixel_cycles(&d, &test_ps(), &config));
    }
}
