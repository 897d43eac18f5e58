//! Criterion bench: clustering algorithms on one frame's feature matrix.
//!
//! Measures the cost of the E2/E5 clustering step — the dominant compute of
//! the pipeline — across algorithms at frame scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subset3d_cluster::{Hierarchical, KMeans, Linkage, Points, ThresholdClustering};
use subset3d_core::SubsetConfig;
use subset3d_features::{extract_frame_features, FeatureMatrix};
use subset3d_trace::gen::{GameProfile, CORPUS_SEED};

fn frame_points(draws: usize) -> FeatureMatrix {
    let w = GameProfile::shooter("bench")
        .frames(1)
        .draws_per_frame(draws)
        .build(CORPUS_SEED)
        .generate();
    let config = SubsetConfig::default();
    let mut m = extract_frame_features(&w.frames()[0], &w, config.features);
    m.normalize(config.normalization);
    m.apply_cost_weights();
    m
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering");
    for &draws in &[200usize, 1000] {
        let matrix = frame_points(draws);
        let points = Points::new(matrix.as_slice(), matrix.cols());
        group.bench_with_input(BenchmarkId::new("threshold", draws), &points, |b, &pts| {
            b.iter(|| ThresholdClustering::new(1.05).fit(pts).len())
        });
        let rows = matrix.to_rows();
        group.bench_with_input(BenchmarkId::new("kmeans_k64", draws), &rows, |b, pts| {
            b.iter(|| KMeans::new(64).seed(1).fit(pts).len())
        });
    }
    // Hierarchical is O(n²)+ — bench only the small frame.
    let small = frame_points(200).to_rows();
    group.bench_function("hierarchical_avg_200", |b| {
        b.iter(|| {
            Hierarchical::with_distance_cutoff(Linkage::Average, 1.05)
                .fit(&small)
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
