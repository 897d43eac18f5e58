//! End-to-end determinism across executor thread counts.
//!
//! Simulation, clustering, and sweeps all fan out over the shared
//! `subset3d-exec` pool; every result must be bit-identical whether the
//! pool runs one worker, two, or as many as the machine offers (the same
//! counts `SUBSET3D_THREADS` can pin). Metric recording must be equally
//! invisible: the same runs repeat with `subset3d_obs` enabled and are
//! held to the same reference. A single `#[test]` drives all thread
//! counts because the pool (and the metrics registry) is process-global.

use subset3d_core::{SubsetConfig, Subsetter, SubsettingOutcome};
use subset3d_gpusim::{
    sweep_configs, sweep_frequencies, ArchConfig, ConfigPoint, FrequencySweep, Simulator,
    SweepPoint, SweepSession, WorkloadCost,
};
use subset3d_trace::gen::GameProfile;
use subset3d_trace::Workload;

struct Observed {
    cost: WorkloadCost,
    outcome: SubsettingOutcome,
    freq_points: Vec<SweepPoint>,
    config_points: Vec<ConfigPoint>,
    session_points: Vec<ConfigPoint>,
}

fn observe(workload: &Workload) -> Observed {
    let sim = Simulator::new(ArchConfig::baseline());
    let candidates = ArchConfig::pathfinding_candidates();
    let session = SweepSession::new(&candidates).unwrap();
    Observed {
        cost: sim.simulate_workload(workload).unwrap(),
        outcome: Subsetter::new(SubsetConfig::default())
            .run(workload, &sim)
            .unwrap(),
        freq_points: sweep_frequencies(
            workload,
            &ArchConfig::baseline(),
            &FrequencySweep::standard(),
        )
        .unwrap(),
        config_points: sweep_configs(workload, &candidates).unwrap(),
        session_points: session.sweep(workload).unwrap(),
    }
}

#[test]
fn results_are_bit_identical_at_any_thread_count() {
    // Large enough that simulate_workload takes its parallel path.
    let workload = GameProfile::shooter("det")
        .frames(6)
        .draws_per_frame(250)
        .build(9)
        .generate();
    assert!(workload.total_draws() >= 1000);

    let max = subset3d_exec::default_threads().max(4);
    subset3d_exec::set_thread_count(1);
    let reference = observe(&workload);

    for threads in [2, max] {
        subset3d_exec::set_thread_count(threads);
        let observed = observe(&workload);
        compare(&observed, &reference, threads);
    }

    // Metrics observe, they never steer: with recording enabled the
    // results must still match the metrics-off reference bit for bit,
    // at every thread count.
    for threads in [1, 2, 8] {
        subset3d_exec::set_thread_count(threads);
        subset3d_obs::reset();
        subset3d_obs::set_enabled(true);
        let observed = observe(&workload);
        let snapshot = subset3d_obs::snapshot();
        subset3d_obs::set_enabled(false);
        compare(&observed, &reference, threads);
        // The sweep session keeps rows from its first sweep on, so its
        // cold pass probes (and misses) the batch cache once per batch.
        let batch_lookups = snapshot.counter("gpusim.batch_cache.misses").unwrap_or(0)
            + snapshot.counter("gpusim.batch_cache.hits").unwrap_or(0);
        assert!(
            batch_lookups > 0,
            "instrumented run recorded no cache traffic at {threads} threads: {snapshot:?}"
        );
    }

    // An iterated sweep session replays identical frames into warm
    // caches; the snapshot must show the hits.
    subset3d_obs::reset();
    subset3d_obs::set_enabled(true);
    let small = GameProfile::shooter("warm")
        .frames(4)
        .draws_per_frame(50)
        .build(2)
        .generate();
    let session = SweepSession::new(&ArchConfig::pathfinding_candidates()).unwrap();
    let first = session.sweep(&small).unwrap();
    let second = session.sweep(&small).unwrap();
    let snapshot = subset3d_obs::snapshot();
    subset3d_obs::set_enabled(false);
    assert_eq!(first, second, "warm sweep must be bit-identical");
    assert!(
        snapshot.counter("gpusim.batch_cache.hits").unwrap_or(0) > 0,
        "iterated sweep must hit the batch cache: {snapshot:?}"
    );
}

fn compare(observed: &Observed, reference: &Observed, threads: usize) {
    {
        assert_eq!(
            observed.cost, reference.cost,
            "WorkloadCost at {threads} threads"
        );
        assert_eq!(
            observed.outcome, reference.outcome,
            "pipeline outcome at {threads} threads"
        );
        assert_eq!(
            observed.freq_points, reference.freq_points,
            "frequency sweep at {threads} threads"
        );
        assert_eq!(
            observed.config_points, reference.config_points,
            "config sweep at {threads} threads"
        );
        assert_eq!(
            observed.session_points, reference.session_points,
            "sweep session at {threads} threads"
        );
    }
}
