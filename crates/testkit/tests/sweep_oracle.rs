//! Sweep differential oracle: the one-walk sweep must be invisible in
//! the totals.
//!
//! `SweepSession::sweep`, `sweep_configs` and `sweep_frequencies` cost
//! every candidate from one walk over a workload's batches: shaders,
//! warmths and cache keys computed once per batch, draws prepared once
//! and evaluated per config, frame totals streamed across batches. This
//! oracle replays the corpus plus edge workloads — empty frames between
//! non-empty ones, ragged frames of 1, 63, 64, 65 and 129 draws, and a
//! workload under the simulator's 1000-draw serial threshold — at 1, 2
//! and 8 threads, and requires every total of every entry point (cold
//! and warm session passes, both one-shot sweeps) to equal the
//! struct-at-a-time reference model's bit for bit. Every
//! entry point that returns `ConfigPoint`s must also carry the reference
//! cost's per-draw digest, so a draw time that moves is caught even when
//! the totals hide it.
//!
//! The test resizes the process-global pool, so it is the only test in
//! this binary.

use subset3d_gpusim::reference::reference_workload_cost;
use subset3d_gpusim::{
    sweep_configs, sweep_frequencies, ArchConfig, CacheStats, ConfigPoint, FrequencySweep,
    SimError, Simulator, SweepSession, DEFAULT_BATCH_WIDTH,
};
use subset3d_testkit::corpus::oracle_corpus;
use subset3d_trace::gen::GameProfile;
use subset3d_trace::{DrawCall, Frame, ShaderId, Workload};

/// A workload whose frames hold `counts` draws each, cut in order from
/// one generated draw stream (so warmth context stays realistic).
fn shaped(name: &str, counts: &[usize]) -> Workload {
    let source = GameProfile::rts(name)
        .frames(16)
        .draws_per_frame(200)
        .build(23)
        .generate();
    let mut stream = source.frames().iter().flat_map(Frame::to_draws);
    let frames: Vec<Frame> = source
        .frames()
        .iter()
        .zip(counts)
        .map(|(frame, &n)| {
            let draws: Vec<DrawCall> = stream.by_ref().take(n).collect();
            assert_eq!(draws.len(), n, "source stream too short for {name}");
            Frame::new(frame.id, draws)
        })
        .collect();
    assert_eq!(frames.len(), counts.len(), "source has too few frames");
    Workload::new(
        name,
        frames,
        source.shaders().clone(),
        source.textures().clone(),
        source.states().clone(),
    )
}

/// `workload` with the pixel shader of draw `draw` of frame `frame`
/// pointing at `shader`, which the library does not hold.
fn dangling(workload: &Workload, frame: usize, draw: usize, shader: ShaderId) -> Workload {
    let mut frames = workload.frames().to_vec();
    let mut draws = frames[frame].to_draws();
    draws[draw].pixel_shader = shader;
    frames[frame] = Frame::new(frames[frame].id, draws);
    Workload::new(
        workload.name.clone(),
        frames,
        workload.shaders().clone(),
        workload.textures().clone(),
        workload.states().clone(),
    )
}

/// Fixed-width batches `workload` splits into.
fn batch_count(workload: &Workload) -> u64 {
    workload
        .frames()
        .iter()
        .map(|f| f.draw_count().div_ceil(DEFAULT_BATCH_WIDTH) as u64)
        .sum()
}

fn reference_totals(workload: &Workload, configs: &[ArchConfig]) -> Vec<f64> {
    configs
        .iter()
        .map(|config| {
            reference_workload_cost(workload, config)
                .expect("reference")
                .total_ns
        })
        .collect()
}

fn reference_digests(workload: &Workload, configs: &[ArchConfig]) -> Vec<u64> {
    configs
        .iter()
        .map(|config| {
            reference_workload_cost(workload, config)
                .expect("reference")
                .digest()
        })
        .collect()
}

fn assert_digests(context: &str, expected: &[u64], points: &[ConfigPoint]) {
    let got: Vec<u64> = points.iter().map(|p| p.digest).collect();
    assert_eq!(got, expected, "{context}: per-draw digests");
}

fn assert_bits(context: &str, expected: &[f64], got: impl IntoIterator<Item = f64>) {
    let got: Vec<f64> = got.into_iter().collect();
    assert_eq!(got.len(), expected.len(), "{context}: point count");
    for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(
            e.to_bits(),
            g.to_bits(),
            "{context}: candidate {i} total {g:e} != reference {e:e}"
        );
    }
}

#[test]
fn every_sweep_entry_point_matches_the_reference_bit_for_bit() {
    let candidates = ArchConfig::pathfinding_candidates();
    let base = ArchConfig::baseline();
    let freq = FrequencySweep::standard();
    let freq_configs = freq.configs(&base);

    let mut workloads: Vec<(String, Workload)> = oracle_corpus()
        .into_iter()
        .map(|(name, w)| (name.to_string(), w))
        .collect();
    // Ragged batches at the default width, empty frames between non-empty
    // ones, and enough draws for the parallel path at two threads or more.
    let ragged = shaped(
        "ragged",
        &[65, 0, 1, 63, 64, 129, 0, 129, 129, 129, 129, 129, 129],
    );
    assert!(ragged.total_draws() >= 1000, "ragged must fan out");
    // The same shapes under the 1000-draw serial fallback.
    let small = shaped("small", &[1, 0, 63, 64, 65, 129]);
    assert!(small.total_draws() < 1000, "small must stay serial");
    workloads.push(("ragged".to_string(), ragged));
    workloads.push(("small".to_string(), small));

    let expected: Vec<(Vec<f64>, Vec<f64>, Vec<u64>)> = workloads
        .iter()
        .map(|(_, w)| {
            (
                reference_totals(w, &candidates),
                reference_totals(w, &freq_configs),
                reference_digests(w, &candidates),
            )
        })
        .collect();

    // Dangling pixel shaders in two later frames: the earlier one in
    // trace order must win, on every entry point, as it does for
    // `Simulator::simulate_workload`.
    let broken: Vec<Workload> = workloads[3..]
        .iter()
        .map(|(_, w)| {
            let once = dangling(w, 3, 0, ShaderId(u32::MAX - 1));
            dangling(&once, 5, 100, ShaderId(u32::MAX))
        })
        .collect();

    for threads in [1, 2, 8] {
        subset3d_exec::with_thread_count(threads, || {
            for ((name, w), (configs_ref, freq_ref, digests_ref)) in workloads.iter().zip(&expected)
            {
                let ctx = |what: &str| format!("{name}/{what}/{threads}t");
                let batches = candidates.len() as u64 * batch_count(w);

                let session = SweepSession::new(&candidates).expect("session");
                let cold = session.sweep(w).expect("cold sweep");
                assert_bits(&ctx("cold"), configs_ref, cold.iter().map(|p| p.total_ns));
                assert_digests(&ctx("cold"), digests_ref, &cold);
                assert_eq!(
                    session.cache_stats(),
                    CacheStats {
                        batch_hits: 0,
                        batch_misses: batches,
                    },
                    "{}: one miss per candidate and batch",
                    ctx("cold")
                );
                let warm = session.sweep(w).expect("warm sweep");
                assert_bits(&ctx("warm"), configs_ref, warm.iter().map(|p| p.total_ns));
                assert_digests(&ctx("warm"), digests_ref, &warm);
                assert_eq!(
                    session.cache_stats(),
                    CacheStats {
                        batch_hits: batches,
                        batch_misses: batches,
                    },
                    "{}: one hit per candidate and batch",
                    ctx("warm")
                );
                let names: Vec<&str> = warm.iter().map(|p| p.name.as_str()).collect();
                let expected_names: Vec<&str> =
                    candidates.iter().map(|c| c.name.as_str()).collect();
                assert_eq!(names, expected_names, "{}: point order", ctx("warm"));

                let configs = sweep_configs(w, &candidates).expect("sweep_configs");
                assert_bits(
                    &ctx("sweep_configs"),
                    configs_ref,
                    configs.iter().map(|p| p.total_ns),
                );
                assert_digests(&ctx("sweep_configs"), digests_ref, &configs);

                let points = sweep_frequencies(w, &base, &freq).expect("sweep_frequencies");
                assert_bits(
                    &ctx("sweep_frequencies"),
                    freq_ref,
                    points.iter().map(|p| p.total_ns),
                );
                for (point, &mhz) in points.iter().zip(freq.points_mhz()) {
                    assert_eq!(point.core_clock_mhz.to_bits(), mhz.to_bits());
                }
            }

            for bad in &broken {
                let expected = Simulator::new(base.clone())
                    .simulate_workload(bad)
                    .expect_err("dangling shader must fail");
                assert!(
                    matches!(
                        expected,
                        SimError::UnknownShader { shader, .. } if shader == ShaderId(u32::MAX - 1)
                    ),
                    "the frame-3 reference fails first, got {expected:?}"
                );
                let context = format!("{}/{threads}t", bad.name);
                let session = SweepSession::new(&candidates).expect("session");
                assert_eq!(
                    session.sweep(bad),
                    Err(expected.clone()),
                    "{context}: session"
                );
                assert_eq!(
                    sweep_configs(bad, &candidates),
                    Err(expected.clone()),
                    "{context}: sweep_configs"
                );
                assert_eq!(
                    sweep_frequencies(bad, &base, &freq),
                    Err(expected.clone()),
                    "{context}: sweep_frequencies"
                );
            }
        });
    }
}
