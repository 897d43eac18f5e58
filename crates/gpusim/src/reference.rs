//! Naive reference implementation of the analytical model — the
//! differential-testing oracle.
//!
//! Everything in this module is a deliberately simple, single-threaded,
//! allocation-straightforward re-derivation of the cost, frequency and
//! power models from the paper's formulas. It shares **no machinery** with
//! the optimized path: no memo cache, no frame digests, no thread pool, no
//! warmth ring buffer — just plain loops over plain slices. The
//! `subset3d-testkit` crate compares its output field-by-field (bitwise on
//! every `f64`) against [`crate::Simulator`] and the sweep entry points,
//! so any divergence — a stale memo row, a key collision, a
//! non-deterministic parallel reduction, an accidental formula edit — is
//! caught at the first differing bit.
//!
//! Because the comparison is bitwise, the arithmetic here mirrors the
//! production expressions operation for operation (IEEE 754 makes equal
//! expression trees produce equal bits); what differs is *how the work is
//! orchestrated*, which is exactly the layer under test.

use crate::config::ArchConfig;
use crate::cost::{DrawCost, FrameCost, Stage, WorkloadCost};
use crate::error::SimError;
use crate::power::{Energy, PowerModel};
use subset3d_trace::{DrawCall, Frame, ShaderProgram, TextureRegistry, Workload};

/// Residual core/memory contention factor (mirrors the analytic model).
const CONTENTION: f64 = 0.03;

/// Vertex fetch cost in core cycles per vertex.
const FETCH_CYCLES_PER_VERTEX: f64 = 0.25;

/// Primitive area below which rasteriser efficiency degrades.
const EFFICIENT_AREA_PX: f64 = 16.0;

/// Minimum rasteriser efficiency for sub-pixel triangles.
const MIN_EFFICIENCY: f64 = 0.125;

/// Bytes fetched from memory per texture-cache miss.
const BYTES_PER_MISS: f64 = 64.0;

/// Fraction of the raw hit rate recovered by cross-draw warmth.
const WARMTH_RECOVERY: f64 = 0.5;

/// Bytes fetched per vertex after post-transform reuse.
const VERTEX_FETCH_BYTES: f64 = 12.0;

/// Framebuffer compression factor applied to colour traffic.
const COLOR_COMPRESSION: f64 = 0.6;

/// Hierarchical-Z compression factor applied to depth traffic.
const DEPTH_COMPRESSION: f64 = 0.5;

/// How many preceding draws contribute to texture-cache warmth.
const WARMTH_WINDOW: usize = 6;

/// Per-invocation issue cycles of an instruction mix on one SIMD lane.
fn instruction_cycles(mix: &subset3d_trace::InstructionMix, divergence: f64) -> f64 {
    let base = f64::from(mix.alu)
        + f64::from(mix.mad)
        + 4.0 * f64::from(mix.transcendental)
        + f64::from(mix.texture_samples)
        + 0.5 * f64::from(mix.interpolants)
        + 2.0 * f64::from(mix.control_flow);
    base * (1.0 + divergence.clamp(0.0, 1.0))
}

/// Latency-hiding factor from register pressure.
fn occupancy_factor(registers: u32, register_file: u32) -> f64 {
    let threads = f64::from(register_file) / f64::from(registers.max(1));
    let hiding = (threads / 4.0).min(1.0);
    0.55 + 0.45 * hiding
}

/// Geometry stage: vertex fetch plus vertex shading.
fn geometry_cycles(draw: &DrawCall, vs: &ShaderProgram, config: &ArchConfig) -> f64 {
    let invocations = draw.vertex_invocations() as f64;
    let per_invocation = instruction_cycles(&vs.mix, vs.divergence);
    let lanes = f64::from(config.eu_count) * f64::from(config.simd_width);
    let occ = occupancy_factor(vs.registers, config.register_file_per_thread);
    let shading = invocations * per_invocation / (lanes * occ);
    let fetch = invocations * FETCH_CYCLES_PER_VERTEX;
    shading + fetch
}

/// Raster stage: setup-limited vs fill-limited throughput.
fn raster_cycles(draw: &DrawCall, config: &ArchConfig) -> f64 {
    let prims = draw.primitives() as f64 * draw.cull.survival_rate();
    if prims <= 0.0 {
        return 0.0;
    }
    let setup = prims / config.prim_rate;
    let raster_pixels = draw.coverage * draw.render_target.pixels() as f64 * draw.overdraw;
    let efficiency = (draw.avg_primitive_area() / EFFICIENT_AREA_PX).clamp(MIN_EFFICIENCY, 1.0);
    let fill = raster_pixels / (f64::from(config.raster_rate) * efficiency);
    setup.max(fill)
}

/// Pixel-shading stage.
fn pixel_cycles(draw: &DrawCall, ps: &ShaderProgram, config: &ArchConfig) -> f64 {
    let invocations = draw.shaded_pixels();
    let per_invocation = instruction_cycles(&ps.mix, ps.divergence);
    let lanes = f64::from(config.eu_count) * f64::from(config.simd_width);
    let occ = occupancy_factor(ps.registers, config.register_file_per_thread);
    invocations * per_invocation / (lanes * occ)
}

/// Calibrated texture-cache hit rate for a draw.
fn texture_hit_rate(
    draw: &DrawCall,
    textures: &TextureRegistry,
    config: &ArchConfig,
    warmth: f64,
) -> f64 {
    let footprint = textures.combined_footprint(&draw.textures);
    if footprint <= 0.0 {
        return 1.0;
    }
    let cache_bytes = f64::from(config.tex_cache_kib) * 1024.0;
    let residency = (cache_bytes / footprint).min(1.0).sqrt();
    let base = 0.5 + 0.5 * draw.texel_locality * (0.5 + 0.5 * residency);
    let warm = base + (1.0 - base) * WARMTH_RECOVERY * warmth.clamp(0.0, 1.0);
    warm.clamp(0.0, 1.0)
}

/// Mean bytes-per-texel of the draw's bound textures.
fn average_bytes_per_texel(draw: &DrawCall, textures: &TextureRegistry) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for id in &draw.textures {
        if let Some(t) = textures.get(*id) {
            total += t.format.bytes_per_texel();
            n += 1;
        }
    }
    if n == 0 {
        4.0
    } else {
        total / n as f64
    }
}

/// Texture stage result: `(sample_cycles, miss_bytes)`.
fn texture_traffic(
    draw: &DrawCall,
    ps: &ShaderProgram,
    textures: &TextureRegistry,
    config: &ArchConfig,
    warmth: f64,
) -> (f64, f64) {
    let samples = draw.shaded_pixels() * f64::from(ps.mix.texture_samples);
    if samples <= 0.0 {
        return (0.0, 0.0);
    }
    let hit_rate = texture_hit_rate(draw, textures, config, warmth);
    let miss_rate = 1.0 - hit_rate;
    let avg_bpt = average_bytes_per_texel(draw, textures);
    let compression = (avg_bpt / 4.0).clamp(0.125, 2.0);
    let raw_miss_bytes = samples * miss_rate * BYTES_PER_MISS * compression;
    let unique_bytes = (draw.shaded_pixels() * draw.textures.len() as f64 * avg_bpt)
        .min(textures.combined_footprint(&draw.textures));
    let refetch =
        (1.0 + (1.0 - draw.texel_locality)) * (1.0 - WARMTH_RECOVERY * warmth.clamp(0.0, 1.0));
    let miss_bytes = raw_miss_bytes.min(unique_bytes * refetch);
    let sample_cycles = samples / f64::from(config.tex_rate) * (1.0 + 0.3 * miss_rate);
    (sample_cycles, miss_bytes)
}

/// ROP stage: blend, depth test and render-target writes.
fn rop_cycles(draw: &DrawCall, config: &ArchConfig) -> f64 {
    let shaded = draw.shaded_pixels();
    let color_ops = shaded
        * if draw.blend.reads_destination() {
            2.0
        } else {
            1.0
        };
    let depth_ops = if draw.depth.accesses_depth() {
        draw.coverage * draw.render_target.pixels() as f64 * draw.overdraw
    } else {
        0.0
    };
    (color_ops + depth_ops) / f64::from(config.rop_rate)
}

/// DRAM bytes moved by a draw.
fn dram_bytes(draw: &DrawCall, config: &ArchConfig, miss_bytes: f64) -> f64 {
    let vertex_bytes = draw.vertex_invocations() as f64 * VERTEX_FETCH_BYTES;
    let l2_bytes = f64::from(config.l2_cache_kib) * 1024.0;
    let l2_hit = (l2_bytes / (miss_bytes + l2_bytes)) * 0.8;
    let texture_bytes = miss_bytes * (1.0 - l2_hit);
    let shaded = draw.shaded_pixels();
    let write_factor = if draw.blend.reads_destination() {
        2.0
    } else {
        1.0
    };
    let color_bytes =
        shaded * draw.render_target.bytes_per_pixel() * write_factor * COLOR_COMPRESSION;
    let depth_bytes = match draw.depth {
        subset3d_trace::DepthMode::Disabled => 0.0,
        subset3d_trace::DepthMode::TestOnly => {
            draw.coverage
                * draw.render_target.pixels() as f64
                * draw.overdraw
                * 4.0
                * DEPTH_COMPRESSION
        }
        subset3d_trace::DepthMode::TestAndWrite => {
            let rasterised = draw.coverage * draw.render_target.pixels() as f64 * draw.overdraw;
            (rasterised + shaded) * 4.0 * DEPTH_COMPRESSION
        }
    };
    vertex_bytes + texture_bytes + color_bytes + depth_bytes
}

/// Compensated (Kahan) summation in slice order — the same operation
/// sequence the production totals use, re-derived locally.
fn kahan_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = 0.0f64;
    let mut comp = 0.0f64;
    for v in values {
        let y = v - comp;
        let t = acc + y;
        comp = (t - acc) - y;
        acc = t;
    }
    acc
}

/// Reference cost of one draw in one warmth context.
///
/// Recomputes every stage from the closed-form model; no memoization, no
/// shared state.
pub fn reference_draw_cost(
    draw: &DrawCall,
    vs: &ShaderProgram,
    ps: &ShaderProgram,
    textures: &TextureRegistry,
    config: &ArchConfig,
    warmth: f64,
) -> DrawCost {
    let geometry = geometry_cycles(draw, vs, config);
    let raster = raster_cycles(draw, config);
    let pixel = pixel_cycles(draw, ps, config);
    let (texture, miss_bytes) = texture_traffic(draw, ps, textures, config, warmth);
    let rop = rop_cycles(draw, config);
    let mem_bytes = dram_bytes(draw, config, miss_bytes);

    let overhead = config.draw_setup_cycles;
    let stage_cycles = [
        (Stage::Geometry, geometry),
        (Stage::Raster, raster),
        (Stage::PixelShade, pixel),
        (Stage::Texture, texture),
        (Stage::Rop, rop),
    ];
    let mut bottleneck = Stage::Overhead;
    let mut max_cycles = 0.0f64;
    for (stage, cycles) in stage_cycles {
        if cycles > max_cycles {
            bottleneck = stage;
            max_cycles = cycles;
        }
    }
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
        texture_cycles: texture,
        rop_cycles: rop,
        overhead_cycles: overhead,
        mem_bytes,
        time_ns,
        bottleneck,
    }
}

/// Warmth of the draw at `index` in `draws`: the fraction of its bound
/// textures that appear in the texture sets of up to [`WARMTH_WINDOW`]
/// preceding draws. Recomputed from scratch per draw — O(n·w), no ring
/// buffer.
fn warmth_at(draws: &[DrawCall], index: usize) -> f64 {
    let draw = &draws[index];
    if draw.textures.is_empty() {
        return 0.0;
    }
    let window_start = index.saturating_sub(WARMTH_WINDOW);
    let recent = &draws[window_start..index];
    let hits = draw
        .textures
        .iter()
        .filter(|t| recent.iter().any(|d| d.textures.contains(t)))
        .count();
    hits as f64 / draw.textures.len() as f64
}

fn resolve<'w>(
    draw: &DrawCall,
    workload: &'w Workload,
) -> Result<(&'w ShaderProgram, &'w ShaderProgram), SimError> {
    let vs = workload
        .shaders()
        .get(draw.vertex_shader)
        .ok_or(SimError::UnknownShader {
            draw: draw.id,
            shader: draw.vertex_shader,
        })?;
    let ps = workload
        .shaders()
        .get(draw.pixel_shader)
        .ok_or(SimError::UnknownShader {
            draw: draw.id,
            shader: draw.pixel_shader,
        })?;
    Ok((vs, ps))
}

/// Reference cost of one frame: a plain sequential loop with per-draw
/// warmth recomputed from scratch.
///
/// # Errors
///
/// Returns [`SimError::UnknownShader`] when a draw references shaders
/// missing from the workload's library.
pub fn reference_frame_cost(
    frame: &Frame,
    workload: &Workload,
    config: &ArchConfig,
) -> Result<FrameCost, SimError> {
    let draws = frame.to_draws();
    let mut costs = Vec::with_capacity(draws.len());
    for (i, draw) in draws.iter().enumerate() {
        let (vs, ps) = resolve(draw, workload)?;
        let warmth = warmth_at(&draws, i);
        costs.push(reference_draw_cost(
            draw,
            vs,
            ps,
            workload.textures(),
            config,
            warmth,
        ));
    }
    let total_ns = kahan_sum(costs.iter().map(|c| c.time_ns));
    Ok(FrameCost {
        draws: costs,
        total_ns,
    })
}

/// Reference cost of a whole workload: frames in order, one thread, no
/// caches.
///
/// # Errors
///
/// Returns [`SimError::UnknownShader`] when a draw references shaders
/// missing from the workload's library.
pub fn reference_workload_cost(
    workload: &Workload,
    config: &ArchConfig,
) -> Result<WorkloadCost, SimError> {
    let mut frames = Vec::with_capacity(workload.frames().len());
    for frame in workload.frames() {
        frames.push(reference_frame_cost(frame, workload, config)?);
    }
    let total_ns = kahan_sum(frames.iter().map(|f| f.total_ns));
    Ok(WorkloadCost { frames, total_ns })
}

/// Reference energy of a simulated workload: a flat double loop
/// re-deriving the CMOS model per draw.
pub fn reference_workload_energy(
    cost: &WorkloadCost,
    model: &PowerModel,
    config: &ArchConfig,
) -> Energy {
    let v =
        model.v_min + model.v_slope_per_mhz * (config.core_clock_mhz - model.f_min_mhz).max(0.0);
    let mut total = Energy::default();
    for frame in &cost.frames {
        for draw in &frame.draws {
            let max_core = draw
                .geometry_cycles
                .max(draw.raster_cycles)
                .max(draw.pixel_cycles)
                .max(draw.texture_cycles)
                .max(draw.rop_cycles);
            let busy_cycles = max_core + draw.overhead_cycles;
            total.dynamic_nj += busy_cycles * model.dynamic_nj_per_lane_cycle * v * v;
            total.static_nj += model.leakage_w * (v / 1.0) * draw.time_ns * 1e-9 * 1e9;
            total.memory_nj += draw.mem_bytes * model.dram_nj_per_byte;
        }
    }
    total
}

/// Reference frequency-scaling improvement series: simulates the workload
/// at every swept core clock with [`reference_workload_cost`] and divides
/// each total into the first point's.
///
/// # Errors
///
/// Returns [`SimError::UnknownShader`] when a draw references shaders
/// missing from the workload's library.
pub fn reference_improvement_series(
    workload: &Workload,
    base: &ArchConfig,
    points_mhz: &[f64],
) -> Result<Vec<f64>, SimError> {
    let mut times = Vec::with_capacity(points_mhz.len());
    for &mhz in points_mhz {
        let config = base.with_core_clock(mhz);
        times.push(reference_workload_cost(workload, &config)?.total_ns);
    }
    let Some(&first) = times.first() else {
        return Ok(Vec::new());
    };
    Ok(times
        .iter()
        .map(|&t| if t > 0.0 { first / t } else { 0.0 })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::shooter("ref")
            .frames(3)
            .draws_per_frame(40)
            .build(5)
            .generate()
    }

    #[test]
    fn reference_matches_simulator_bitwise() {
        let w = workload();
        let config = ArchConfig::baseline();
        let reference = reference_workload_cost(&w, &config).unwrap();
        let sim = Simulator::new(config);
        let optimized = sim.simulate_workload(&w).unwrap();
        assert_eq!(reference.total_ns.to_bits(), optimized.total_ns.to_bits());
        for (rf, of) in reference.frames.iter().zip(&optimized.frames) {
            assert_eq!(rf.total_ns.to_bits(), of.total_ns.to_bits());
            for (rd, od) in rf.draws.iter().zip(&of.draws) {
                assert_eq!(rd.time_ns.to_bits(), od.time_ns.to_bits());
                assert_eq!(rd.mem_bytes.to_bits(), od.mem_bytes.to_bits());
                assert_eq!(rd.bottleneck, od.bottleneck);
            }
        }
    }

    #[test]
    fn reference_energy_matches_power_model() {
        let w = workload();
        let config = ArchConfig::baseline();
        let cost = reference_workload_cost(&w, &config).unwrap();
        let model = PowerModel::default_for(&config);
        let reference = reference_workload_energy(&cost, &model, &config);
        let optimized = model.workload_energy(&cost, &config);
        assert_eq!(
            reference.dynamic_nj.to_bits(),
            optimized.dynamic_nj.to_bits()
        );
        assert_eq!(reference.static_nj.to_bits(), optimized.static_nj.to_bits());
        assert_eq!(reference.memory_nj.to_bits(), optimized.memory_nj.to_bits());
    }

    #[test]
    fn reference_improvement_matches_sweep() {
        let w = workload();
        let base = ArchConfig::baseline();
        let points = [500.0, 800.0, 1100.0];
        let reference = reference_improvement_series(&w, &base, &points).unwrap();
        let mut times = Vec::new();
        for &mhz in &points {
            let sim = Simulator::new(base.with_core_clock(mhz));
            times.push(sim.simulate_workload(&w).unwrap().total_ns);
        }
        let optimized = crate::freq::FrequencySweep::improvement_series(&times);
        assert_eq!(reference.len(), optimized.len());
        for (r, o) in reference.iter().zip(&optimized) {
            assert_eq!(r.to_bits(), o.to_bits());
        }
    }

    #[test]
    fn unknown_shader_reported() {
        let w = workload();
        let mut frames: Vec<Frame> = w.frames().to_vec();
        let mut draws = frames[0].to_draws();
        draws[0].vertex_shader = subset3d_trace::ShaderId(4242);
        frames[0] = Frame::new(frames[0].id, draws);
        let bad = Workload::new(
            w.name.clone(),
            frames,
            w.shaders().clone(),
            w.textures().clone(),
            w.states().clone(),
        );
        assert!(matches!(
            reference_workload_cost(&bad, &ArchConfig::baseline()),
            Err(SimError::UnknownShader { .. })
        ));
    }
}
