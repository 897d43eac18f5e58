//! Criterion bench: MAI feature extraction and normalisation per frame.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subset3d_features::{extract_frame_features, FeatureKind, Normalization};
use subset3d_stats::Pca;
use subset3d_trace::gen::{GameProfile, CORPUS_SEED};
use subset3d_trace::Workload;

fn workload(draws: usize) -> Workload {
    GameProfile::shooter("bench")
        .frames(1)
        .draws_per_frame(draws)
        .build(CORPUS_SEED)
        .generate()
}

fn bench_features(c: &mut Criterion) {
    let mut group = c.benchmark_group("features");
    for &draws in &[200usize, 1000] {
        let w = workload(draws);
        group.bench_with_input(BenchmarkId::new("extract", draws), &w, |b, w| {
            b.iter(|| extract_frame_features(&w.frames()[0], w, FeatureKind::standard_set()).rows())
        });
        group.bench_with_input(BenchmarkId::new("extract+normalize", draws), &w, |b, w| {
            b.iter(|| {
                let mut m = extract_frame_features(&w.frames()[0], w, FeatureKind::standard_set());
                m.normalize(Normalization::ZScore);
                m.apply_cost_weights();
                m.rows()
            })
        });
    }
    let w = workload(1000);
    let mut m = extract_frame_features(&w.frames()[0], &w, FeatureKind::standard_set());
    m.normalize(Normalization::ZScore);
    let rows = m.to_rows();
    group.bench_function("pca_top4_1000", |b| {
        b.iter(|| Pca::fit(&rows, 4).unwrap().explained_ratio())
    });
    group.finish();
}

criterion_group!(benches, bench_features);
criterion_main!(benches);
