//! Property tests on the analytical timing model: costs must respond
//! monotonically and sanely to every workload and architecture knob.

use proptest::prelude::*;
use subset3d_gpusim::analytic::analyze_draw;
use subset3d_gpusim::reference::reference_draw_cost;
use subset3d_gpusim::{ArchConfig, DrawCost, FrequencySweep, Simulator};
use subset3d_trace::gen::GameProfile;
use subset3d_trace::{
    BlendMode, CullMode, DepthMode, DrawCall, DrawId, InstructionMix, PrimitiveTopology,
    RenderTargetDesc, ShaderId, ShaderProgram, ShaderStage, StateId, TextureDesc, TextureFormat,
    TextureId, TextureRegistry, Workload,
};

fn probe() -> (Workload, DrawCall) {
    let w = GameProfile::shooter("probe")
        .frames(1)
        .draws_per_frame(20)
        .build(77)
        .generate();
    let draw = w.frames()[0]
        .to_draws()
        .into_iter()
        .find(|d| !d.textures.is_empty() && d.coverage < 0.5)
        .expect("textured draw");
    (w, draw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cost is finite and positive across the whole draw-parameter space.
    #[test]
    fn cost_always_finite_positive(
        vertices in 1u64..1_000_000,
        coverage in 0.0f64..1.0,
        overdraw in 0.0f64..16.0,
        z_pass in 0.0f64..1.0,
        locality in 0.0f64..1.0,
        instances in 1u32..1_000,
    ) {
        let (w, mut draw) = probe();
        draw.vertex_count = vertices;
        draw.coverage = coverage;
        draw.overdraw = overdraw;
        draw.z_pass_rate = z_pass;
        draw.texel_locality = locality;
        draw.instance_count = instances;
        let sim = Simulator::new(ArchConfig::baseline());
        let cost = sim.simulate_draw(&draw, &w).unwrap();
        prop_assert!(cost.time_ns.is_finite());
        prop_assert!(cost.time_ns > 0.0);
        prop_assert!(cost.mem_bytes.is_finite());
        prop_assert!(cost.mem_bytes >= 0.0);
    }

    /// More vertices never make a draw cheaper.
    #[test]
    fn cost_monotone_in_vertices(v1 in 3u64..100_000, extra in 1u64..100_000) {
        let (w, mut a) = probe();
        a.vertex_count = v1;
        let mut b = a.clone();
        b.vertex_count = v1 + extra;
        let sim = Simulator::new(ArchConfig::baseline());
        let ca = sim.simulate_draw(&a, &w).unwrap();
        let cb = sim.simulate_draw(&b, &w).unwrap();
        prop_assert!(cb.time_ns >= ca.time_ns - 1e-9);
    }

    /// More coverage never makes a draw cheaper.
    #[test]
    fn cost_monotone_in_coverage(c1 in 0.0f64..0.5, extra in 0.0f64..0.5) {
        let (w, mut a) = probe();
        a.coverage = c1;
        let mut b = a.clone();
        b.coverage = c1 + extra;
        let sim = Simulator::new(ArchConfig::baseline());
        let ca = sim.simulate_draw(&a, &w).unwrap();
        let cb = sim.simulate_draw(&b, &w).unwrap();
        prop_assert!(cb.time_ns >= ca.time_ns - 1e-9);
    }

    /// A faster core clock never slows any draw down, and the speedup never
    /// exceeds the clock ratio.
    #[test]
    fn clock_scaling_bounded(
        mhz_low in 300.0f64..1000.0,
        ratio in 1.05f64..3.0,
        coverage in 0.001f64..0.9,
    ) {
        let (w, mut draw) = probe();
        draw.coverage = coverage;
        let slow = Simulator::new(ArchConfig::baseline().with_core_clock(mhz_low));
        let fast = Simulator::new(ArchConfig::baseline().with_core_clock(mhz_low * ratio));
        let cs = slow.simulate_draw(&draw, &w).unwrap();
        let cf = fast.simulate_draw(&draw, &w).unwrap();
        let speedup = cs.time_ns / cf.time_ns;
        prop_assert!(speedup >= 1.0 - 1e-9, "speedup {speedup}");
        prop_assert!(speedup <= ratio + 1e-9, "speedup {speedup} > ratio {ratio}");
    }

    /// Higher locality never increases memory traffic.
    #[test]
    fn locality_monotone_in_traffic(l1 in 0.0f64..0.9, extra in 0.0f64..0.1) {
        let (w, mut a) = probe();
        a.texel_locality = l1;
        let mut b = a.clone();
        b.texel_locality = l1 + extra;
        let sim = Simulator::new(ArchConfig::baseline());
        let ca = sim.simulate_draw(&a, &w).unwrap();
        let cb = sim.simulate_draw(&b, &w).unwrap();
        prop_assert!(cb.mem_bytes <= ca.mem_bytes + 1e-9);
    }

    /// Scaling every throughput resource up never slows a workload down.
    #[test]
    fn wider_machine_never_slower(eu_mult in 1u32..4) {
        let (w, _) = probe();
        let base = ArchConfig::baseline();
        let wide = base
            .to_builder()
            .eu_count(base.eu_count * eu_mult)
            .tex_rate(base.tex_rate * eu_mult)
            .rop_rate(base.rop_rate * eu_mult)
            .raster_rate(base.raster_rate * eu_mult)
            .build();
        let tb = Simulator::new(base).simulate_workload(&w).unwrap().total_ns;
        let tw = Simulator::new(wide).simulate_workload(&w).unwrap().total_ns;
        prop_assert!(tw <= tb + 1e-6);
    }
}

const BLENDS: [BlendMode; 3] = [
    BlendMode::Opaque,
    BlendMode::AlphaBlend,
    BlendMode::Additive,
];
const DEPTHS: [DepthMode; 3] = [
    DepthMode::TestAndWrite,
    DepthMode::TestOnly,
    DepthMode::Disabled,
];
const CULLS: [CullMode; 3] = [CullMode::None, CullMode::Back, CullMode::Front];
const TOPOLOGIES: [PrimitiveTopology; 4] = [
    PrimitiveTopology::TriangleList,
    PrimitiveTopology::TriangleStrip,
    PrimitiveTopology::LineList,
    PrimitiveTopology::PointList,
];
const FORMATS: [TextureFormat; 6] = [
    TextureFormat::Rgba8,
    TextureFormat::Bc1,
    TextureFormat::Bc3,
    TextureFormat::Rgba16f,
    TextureFormat::Rg32f,
    TextureFormat::Depth24Stencil8,
];

/// Divergence and warmth picks: inside `0..=1`, on its ends, and outside
/// it on both sides (index 4 draws a fresh value in `0..1` instead).
const CONTEXT_EDGES: [f64; 4] = [-0.5, 0.0, 1.0, 1.5];

/// One texture per format with ids `0..6`; ids 6 and up do not resolve.
fn edge_registry() -> TextureRegistry {
    let mut reg = TextureRegistry::new();
    for (i, format) in FORMATS.into_iter().enumerate() {
        let size = 64 << i;
        reg.insert(TextureDesc {
            id: TextureId(i as u32),
            width: size,
            height: size / 2,
            mips: 1 + i as u32 * 2,
            format,
        });
    }
    reg
}

fn shader(
    stage: ShaderStage,
    mix: (u32, u32, u32),
    samples: u32,
    div: f64,
    regs: u32,
) -> ShaderProgram {
    let mut program = ShaderProgram::new(
        ShaderId(stage as u32),
        stage,
        "edge",
        InstructionMix {
            alu: mix.0,
            mad: mix.1,
            transcendental: mix.2,
            texture_samples: samples,
            interpolants: mix.0 % 7,
            control_flow: mix.1 % 3,
        },
    );
    program.divergence = div;
    program.registers = regs;
    program
}

fn pick(index: usize, fresh: f64) -> f64 {
    CONTEXT_EDGES.get(index).copied().unwrap_or(fresh)
}

fn cost_bits(c: &DrawCost) -> [u64; 8] {
    [
        c.geometry_cycles.to_bits(),
        c.raster_cycles.to_bits(),
        c.pixel_cycles.to_bits(),
        c.texture_cycles.to_bits(),
        c.rop_cycles.to_bits(),
        c.overhead_cycles.to_bits(),
        c.mem_bytes.to_bits(),
        c.time_ns.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The production model (prepared once, evaluated per config) equals
    /// the independently re-derived reference on every `DrawCost` field,
    /// bit for bit, on every config a sweep evaluates — across every
    /// fixed-function variant, zero-primitive and million-vertex draws,
    /// unbound, unknown and duplicate textures, untextured shaders, and
    /// divergence and warmth outside `0..=1`.
    #[test]
    fn analyze_draw_matches_the_reference_on_every_field(
        (blend, depth, cull, topology) in (0usize..3, 0usize..3, 0usize..3, 0usize..4),
        (tiny, vertices, instances) in (any::<bool>(), 0u64..1_000_001, 1u32..16),
        (coverage, overdraw, z_pass, locality) in (0.0f64..1.0, 0.0f64..8.0, 0.0f64..1.0, 0.0f64..1.0),
        textures in prop::collection::vec(0u32..9, 0..6),
        (rt_format, rt_samples, rt_attachments, rt_scale) in (0usize..6, 0u32..3, 1u32..5, 1u32..5),
        (vs_mix, ps_mix) in ((0u32..40, 0u32..20, 0u32..4), (0u32..40, 0u32..20, 0u32..4)),
        (samples, vs_regs, ps_regs) in (0u32..3, 0u32..160, 0u32..160),
        (vs_div, ps_div, warmth) in ((0usize..5, 0.0f64..1.0), (0usize..5, 0.0f64..1.0), (0usize..5, 0.0f64..1.0)),
    ) {
        let draw = DrawCall {
            id: DrawId(7),
            state: StateId(3),
            vertex_shader: ShaderId(ShaderStage::Vertex as u32),
            pixel_shader: ShaderId(ShaderStage::Pixel as u32),
            blend: BLENDS[blend],
            depth: DEPTHS[depth],
            cull: CULLS[cull],
            topology: TOPOLOGIES[topology],
            // Zero to two vertices make zero primitives on most topologies.
            vertex_count: if tiny { vertices % 3 } else { vertices },
            instance_count: instances,
            textures: textures.into_iter().map(TextureId).collect(),
            render_target: RenderTargetDesc {
                width: 480 * rt_scale,
                height: 270 * rt_scale,
                format: FORMATS[rt_format],
                samples: 1 << rt_samples,
                color_attachments: rt_attachments,
            },
            coverage,
            overdraw,
            z_pass_rate: z_pass,
            texel_locality: locality,
            material_tag: 0,
        };
        let vs = shader(ShaderStage::Vertex, vs_mix, 0, pick(vs_div.0, vs_div.1), vs_regs);
        let ps = shader(ShaderStage::Pixel, ps_mix, samples, pick(ps_div.0, ps_div.1), ps_regs);
        let warmth = pick(warmth.0, warmth.1);
        let registry = edge_registry();
        let mut configs = ArchConfig::pathfinding_candidates();
        configs.extend(FrequencySweep::standard().configs(&ArchConfig::baseline()));
        for config in &configs {
            let got = analyze_draw(&draw, &vs, &ps, &registry, config, warmth);
            let want = reference_draw_cost(&draw, &vs, &ps, &registry, config, warmth);
            prop_assert_eq!(cost_bits(&got), cost_bits(&want), "{}: {:?}", config.name, draw);
            prop_assert_eq!(got.bottleneck, want.bottleneck, "{}: {:?}", config.name, draw);
        }
    }
}
