//! Property-based invariants across the workspace, via proptest.

use proptest::prelude::*;
use subset3d::cluster::{medoid_of, KMeans, Points, ThresholdClustering};
use subset3d::core::{cluster_frame, predict_frame, ShaderVector, SubsetConfig};
use subset3d::features::euclidean;
use subset3d::gpusim::{ArchConfig, Simulator};
use subset3d::stats::{pearson, percentile, Histogram};
use subset3d::trace::gen::GameProfile;
use subset3d::trace::{
    BlendMode, CullMode, DepthMode, DrawCall, DrawColumns, DrawId, PrimitiveTopology,
    RenderTargetDesc, ShaderId, StateId, TextureFormat, TextureId,
};

/// Strategy: a small dataset of low-dimensional points.
fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 3), 1..60)
}

/// Strategy: one fully arbitrary draw-call, covering every column of the
/// SoA layout including NaN-free float extremes and empty/wide texture
/// binding lists.
fn draw_strategy() -> impl Strategy<Value = DrawCall> {
    let topology = (0u8..4).prop_map(|i| match i {
        0 => PrimitiveTopology::TriangleList,
        1 => PrimitiveTopology::TriangleStrip,
        2 => PrimitiveTopology::LineList,
        _ => PrimitiveTopology::PointList,
    });
    let blend = (0u8..3).prop_map(|i| match i {
        0 => BlendMode::Opaque,
        1 => BlendMode::AlphaBlend,
        _ => BlendMode::Additive,
    });
    let depth = (0u8..3).prop_map(|i| match i {
        0 => DepthMode::TestAndWrite,
        1 => DepthMode::TestOnly,
        _ => DepthMode::Disabled,
    });
    let cull = (0u8..3).prop_map(|i| match i {
        0 => CullMode::None,
        1 => CullMode::Back,
        _ => CullMode::Front,
    });
    let format = (0u8..3).prop_map(|i| match i {
        0 => TextureFormat::Rgba8,
        1 => TextureFormat::Bc1,
        _ => TextureFormat::Rgba16f,
    });
    let target = (1u32..8192, 1u32..8192, format, 1u32..=8, 1u32..=4).prop_map(
        |(width, height, format, samples, color_attachments)| RenderTargetDesc {
            width,
            height,
            format,
            samples,
            color_attachments,
        },
    );
    (
        (
            any::<u64>(),
            any::<u32>(),
            0u32..64,
            0u32..64,
            blend,
            depth,
            cull,
            topology,
        ),
        (
            0u64..10_000_000,
            1u32..=65_535,
            prop::collection::vec(0u32..256, 0..12),
            target,
            0.0f64..=1.0,
            1.0f64..=50.0,
            0.0f64..=1.0,
            0.0f64..=1.0,
            any::<u32>(),
        ),
    )
        .prop_map(
            |(
                (id, state, vs, ps, blend, depth, cull, topology),
                (
                    vertex_count,
                    instance_count,
                    textures,
                    render_target,
                    coverage,
                    overdraw,
                    z_pass_rate,
                    texel_locality,
                    material_tag,
                ),
            )| DrawCall {
                id: DrawId(id),
                state: StateId(state),
                vertex_shader: ShaderId(vs),
                pixel_shader: ShaderId(ps),
                blend,
                depth,
                cull,
                topology,
                vertex_count,
                instance_count,
                textures: textures.into_iter().map(TextureId).collect(),
                render_target,
                coverage,
                overdraw,
                z_pass_rate,
                texel_locality,
                material_tag,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn threshold_clustering_is_a_partition(points in points_strategy(), t in 0.0f64..50.0) {
        let flat = points.concat();
        let c = ThresholdClustering::new(t).fit(Points::new(&flat, 3));
        prop_assert_eq!(c.point_count(), points.len());
        let mut seen = vec![false; points.len()];
        for members in c.members() {
            for m in members {
                prop_assert!(!seen[m]);
                seen[m] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
        // Every member is within the threshold of its leader centroid.
        for (i, &a) in c.assignments().iter().enumerate() {
            let d = euclidean(&points[i], &c.centroids()[a]);
            prop_assert!(d <= t + 1e-9);
        }
    }

    #[test]
    fn kmeans_inertia_never_worse_than_single_cluster(points in points_strategy()) {
        let k1 = KMeans::new(1).fit(&points).inertia(&points);
        let k3 = KMeans::new(3).seed(1).fit(&points).inertia(&points);
        prop_assert!(k3 <= k1 + 1e-6);
    }

    #[test]
    fn medoid_is_member_and_stable(points in points_strategy()) {
        let flat = points.concat();
        let view = Points::new(&flat, 3);
        let members: Vec<usize> = (0..points.len()).collect();
        let m = medoid_of(view, &members);
        prop_assert!(m.is_some());
        prop_assert!(members.contains(&m.unwrap()));
        prop_assert_eq!(m, medoid_of(view, &members));
    }

    #[test]
    fn distances_satisfy_metric_axioms(
        a in prop::collection::vec(-50.0f64..50.0, 4),
        b in prop::collection::vec(-50.0f64..50.0, 4),
        c in prop::collection::vec(-50.0f64..50.0, 4),
    ) {
        prop_assert!(euclidean(&a, &b) >= 0.0);
        prop_assert!((euclidean(&a, &b) - euclidean(&b, &a)).abs() < 1e-9);
        prop_assert!(euclidean(&a, &a) < 1e-12);
        prop_assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-9);
    }

    #[test]
    fn percentile_is_bounded_by_extremes(
        values in prop::collection::vec(-1e6f64..1e6, 1..100),
        p in 0.0f64..100.0,
    ) {
        let v = percentile(&values, p).unwrap();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn histogram_conserves_samples(
        values in prop::collection::vec(-10.0f64..10.0, 0..200),
        bins in 1usize..20,
    ) {
        let mut h = Histogram::new(-5.0, 5.0, bins);
        h.extend(values.iter().copied());
        prop_assert_eq!(h.total(), values.len());
        let sum: usize = h.bins().iter().map(|b| b.count).sum();
        prop_assert_eq!(sum, values.len());
    }

    #[test]
    fn pearson_is_scale_invariant(
        xs in prop::collection::vec(-100.0f64..100.0, 3..30),
        scale in 0.1f64..10.0,
        offset in -100.0f64..100.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|&x| x * scale + offset).collect();
        // Perfectly linear relation with positive slope: r == 1.
        if let Ok(r) = pearson(&xs, &ys) {
            prop_assert!((r - 1.0).abs() < 1e-6, "r = {r}");
        }
    }

    #[test]
    fn columnar_layout_round_trips_losslessly(
        draws in prop::collection::vec(draw_strategy(), 0..40),
    ) {
        // SoA ↔ AoS must be bijective: scattering arbitrary draws into
        // columns and gathering them back reproduces every field bit for
        // bit, in order.
        let cols = DrawColumns::from_draws(draws.iter().cloned());
        prop_assert_eq!(cols.len(), draws.len());
        prop_assert_eq!(cols.to_draws(), draws.clone());
        // Random access agrees with the bulk gather.
        for (i, draw) in draws.iter().enumerate() {
            prop_assert_eq!(&cols.get(i).unwrap(), draw);
        }
        // And a second scatter from the gathered draws is identical —
        // the mapping is stable, not merely invertible once.
        let again = DrawColumns::from_draws(cols.to_draws());
        prop_assert_eq!(again.to_draws(), draws);
    }

    #[test]
    fn shader_vector_jaccard_bounds(
        a in prop::collection::btree_set(0u32..40, 0..20),
        b in prop::collection::btree_set(0u32..40, 0..20),
    ) {
        let va: ShaderVector = a.iter().map(|&i| ShaderId(i)).collect();
        let vb: ShaderVector = b.iter().map(|&i| ShaderId(i)).collect();
        let j = va.jaccard(&vb);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((va.jaccard(&vb) - vb.jaccard(&va)).abs() < 1e-12);
        prop_assert_eq!(va.jaccard(&va), 1.0);
        if a == b {
            prop_assert_eq!(j, 1.0);
        }
    }
}

proptest! {
    // Workload-level properties are heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pipeline_invariants_hold_for_random_profiles(
        seed in 0u64..1000,
        frames in 4usize..12,
        draws in 20usize..80,
    ) {
        let w = GameProfile::shooter("prop")
            .frames(frames)
            .draws_per_frame(draws)
            .build(seed)
            .generate();
        prop_assert!(w.validate().is_empty());
        let sim = Simulator::new(ArchConfig::baseline());
        let config = SubsetConfig::default();
        for frame in w.frames() {
            let clustering = cluster_frame(frame, &w, &config);
            prop_assert!(clustering.cluster_count() >= 1);
            prop_assert!(clustering.cluster_count() <= frame.draw_count());
            let cost = sim.simulate_frame(frame, &w).unwrap();
            let prediction = predict_frame(&clustering, &cost);
            // Prediction is positive and bounded: the representative of a
            // cluster can be at most `n×` cheaper/dearer than the truth.
            prop_assert!(prediction.predicted_ns > 0.0);
            prop_assert!(prediction.error().is_finite());
        }
    }
}
