//! The threshold backend's resumed incremental fit against the batch fit.
//!
//! The incremental fit keeps its retained points in canonical order and
//! resumes the leader scan from each inserted row. Its contract is the
//! batch fit over the retained points, bit for bit, after every ingest —
//! within reservoir capacity and past it, where each kept point replaces a
//! slot and the ingest re-runs the scan. The properties drive it with the
//! hostile rows of the threshold-kernel test, the second with finite rows
//! and one NaN, so the pruning bound is picked as rows arrive and dropped
//! mid-stream; the stream test drives a serve session with a
//! benchmark-shaped frame stream.

use proptest::prelude::*;
use subset3d_cluster::{Points, Subsetter, ThresholdSubsetter};
use subset3d_core::SubsetConfig;
use subset3d_serve::{ServeConfig, Session};
use subset3d_testkit::corpus::hostile_rows;
use subset3d_testkit::reference::same_fit_bits;
use subset3d_trace::gen::GameProfile;
use subset3d_trace::{merge_workloads, Workload};

const THRESHOLDS: [f64; 3] = [0.0, 1.02, f64::INFINITY];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random insert and replace sequences: after every ingest of a 1–5
    /// point chunk, the incremental fit equals the batch fit over its
    /// retained points by bits.
    #[test]
    fn resumed_fit_matches_the_batch_fit_after_every_ingest(
        seed in any::<u64>(),
        n in 0usize..=120,
        dim in 1usize..=24,
        spread in 0usize..3,
        specials in 0usize..3,
        threshold in 0usize..3,
        past_capacity in any::<bool>(),
        capacity_pick in any::<usize>(),
        reservoir_seed in any::<u64>(),
        chunks in prop::collection::vec(1usize..=5, 1..8),
    ) {
        let spread = [0.25, 1.0, 4.0][spread];
        let specials = [0, 5, 60][specials];
        let t = THRESHOLDS[threshold];
        let capacity = if past_capacity {
            1 + capacity_pick % (n / 2).max(1)
        } else {
            n + capacity_pick % 4
        };
        let flat = hostile_rows(seed, n, dim, spread, specials).concat();
        let backend = ThresholdSubsetter::new(t);
        let mut inc = backend.incremental(capacity, reservoir_seed);
        let mut fed = 0;
        for &chunk in chunks.iter().cycle() {
            if fed == n {
                break;
            }
            let end = (fed + chunk).min(n);
            inc.ingest(Points::new(&flat[fed * dim..end * dim], dim));
            fed = end;
            let r = same_fit_bits(&inc.fit(), &backend.fit(inc.retained()));
            prop_assert!(
                r.is_ok(),
                "n={n} dim={dim} t={t} capacity={capacity} after {fed} points: {r:?}"
            );
        }
        prop_assert_eq!(inc.points_seen(), n);
        prop_assert_eq!(inc.retained().len(), n.min(capacity.max(1)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A finite stream in 19 dimensions that starts empty, so the scan
    /// picks its bound coordinates as rows arrive, with one NaN row in
    /// mid-stream, which turns the bound off (and the sorted window too
    /// when the NaN is in coordinate 0). Within capacity every ingest
    /// resumes the scan; the fit equals the batch fit after each one.
    #[test]
    fn a_finite_stream_with_a_nan_matches_the_batch_fit_after_every_ingest(
        seed in any::<u64>(),
        n in 2usize..=240,
        nan_coord in 0usize..19,
        threshold in 0usize..3,
        chunks in prop::collection::vec(1usize..=5, 1..8),
    ) {
        let t = THRESHOLDS[threshold];
        let mut rows = hostile_rows(seed, n, 19, 1.0, 0);
        rows[n / 2][nan_coord] = f64::NAN;
        let flat = rows.concat();
        let backend = ThresholdSubsetter::new(t);
        let mut inc = backend.incremental(n, seed);
        let mut fed = 0;
        for &chunk in chunks.iter().cycle() {
            if fed == n {
                break;
            }
            let end = (fed + chunk).min(n);
            inc.ingest(Points::new(&flat[fed * 19..end * 19], 19));
            fed = end;
            let r = same_fit_bits(&inc.fit(), &backend.fit(inc.retained()));
            prop_assert!(r.is_ok(), "n={n} t={t} after {fed} points: {r:?}");
        }
    }
}

/// Frames per level of the benchmark-shaped stream.
const LEVEL_FRAMES: usize = 60;

/// The serve benchmark's stream in small: shooter levels, each from its own
/// seed, merged into one play session of about 100 draws a frame.
fn level_stream(levels: u64) -> Workload {
    let parts: Vec<Workload> = (0..levels)
        .map(|i| {
            GameProfile::shooter(format!("level-{i}"))
                .frames(LEVEL_FRAMES)
                .draws_per_frame(100)
                .build(0x5E57_0000 + i)
                .generate()
        })
        .collect();
    let parts: Vec<&Workload> = parts.iter().collect();
    merge_workloads("stream", &parts)
}

#[test]
fn every_update_matches_the_global_fit_of_its_prefix() {
    let stream = level_stream(4);
    let mut session = Session::new(ServeConfig::default(), &stream).expect("valid config");
    let subsetter = subset3d_core::Subsetter::new(SubsetConfig::default());
    let frames = stream.frames();
    for (c, chunk) in frames.chunks(4).enumerate() {
        let update = session.ingest(chunk).expect("ingest succeeds");
        let seen = c * 4 + chunk.len();
        let prefix = Workload::new(
            stream.name.clone(),
            frames[..seen].to_vec(),
            stream.shaders().clone(),
            stream.textures().clone(),
            stream.states().clone(),
        );
        let batch = subsetter.global_fit(&prefix).expect("non-empty prefix");
        let want: Vec<u32> = batch
            .representatives
            .iter()
            .map(|&r| frames[r].id.raw())
            .collect();
        assert_eq!(
            update.representative_frames, want,
            "chunk {c}: representatives diverge from the prefix's global fit"
        );
        assert_eq!(update.cluster_count, batch.clustering.len(), "chunk {c}");
    }
}
