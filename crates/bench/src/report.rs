//! Measurement machinery behind `bench_report`, and the report types
//! `bench_diff` reads.
//!
//! `bench_report` writes the full [`Report`] to `BENCH_pipeline.json`;
//! `bench_diff` deserialises two such reports and compares them, so
//! everything here derives both `Serialize` and `Deserialize`.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use subset3d_core::{ClusterMethod, SubsetConfig, Subsetter};
use subset3d_gpusim::{sweep_configs, ArchConfig, Simulator, SweepSession};
use subset3d_obs::SamplerConfig;
use subset3d_serve::{
    replay, replay_remote, NetServer, NetServerConfig, RemoteReplay, ReplayOptions, ReplayOutcome,
    ServeConfig, TelemetryOptions,
};
use subset3d_trace::gen::GameProfile;
use subset3d_trace::Workload;

/// Timing runs per scenario measurement; the best is reported.
pub const RUNS: usize = 3;

/// Sweep passes in the iterated-sweep scenario.
pub const SWEEP_PASSES: usize = 4;

/// Interleaved off/on repetitions behind each overhead median. Five
/// pairs, not one: a single pair is dominated by scheduling noise (the
/// committed report once claimed a *negative* metrics overhead).
pub const OVERHEAD_REPS: usize = 5;

/// One timed arm of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Wall time in milliseconds.
    pub wall_ms: f64,
    /// Simulated draws per second at that wall time.
    pub draws_per_sec: f64,
}

/// A baseline-vs-optimized comparison on one workload shape.
///
/// Reports written before the draw-grain cache was removed also carry
/// `cache_hit_rate`, `bypassed`, `auto_disables` and `reprobes`; those
/// keys are ignored on load, so old reports still diff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// One thread, no memo — the pre-executor behaviour. The iterated
    /// sweep's arm runs `sweep_configs`, the session's walk without rows.
    pub single_thread_uncached: Measurement,
    /// Default threads, the path's own memo: none for single passes (a
    /// `Simulator` keeps nothing), a `SweepSession`'s rows for the
    /// iterated sweep.
    pub parallel_memoized: Measurement,
    /// `single_thread_uncached / parallel_memoized` wall-time ratio.
    pub speedup: f64,
    /// Batch cache hit rate of the optimized arm; `null` when no batch
    /// lookup was served (zero hits), as on single-pass scenarios, which
    /// have no cache. The alias keeps pre-columnar reports (which
    /// recorded a per-frame cache) deserializable.
    #[serde(alias = "frame_cache_hit_rate")]
    pub batch_cache_hit_rate: Option<f64>,
}

/// Everything `bench_report` measures — the schema of
/// `BENCH_pipeline.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Thread count of the parallel arms.
    pub threads: usize,
    /// Frames in the bench workload.
    pub workload_frames: usize,
    /// Draws in the bench workload.
    pub workload_draws: usize,
    /// Candidate configs in the sweep scenarios.
    pub sweep_candidates: usize,
    /// Passes in the iterated-sweep scenario.
    pub sweep_passes: usize,
    /// One cold `simulate_workload` pass, out-of-the-box configuration.
    pub workload_sim: Scenario,
    /// [`SWEEP_PASSES`] passes of the pathfinding sweep via a session.
    pub iterated_sweep: Scenario,
    /// Clustering + evaluation end to end.
    pub subsetting_pipeline: Scenario,
    /// Wall-time cost of metric recording on the iterated_sweep shape (a
    /// fresh session's [`SWEEP_PASSES`] sweeps, which count every
    /// batch-cache probe, the most events any arm records): median of
    /// [`OVERHEAD_REPS`] interleaved off/on pairs, in percent,
    /// clamped at zero. A negative median is scheduling noise, and a
    /// committed negative value poisons downstream absolute-budget
    /// checks; the signed median survives in `metrics_overhead_raw_pct`.
    pub metrics_overhead_pct: f64,
    /// The unclamped signed median behind `metrics_overhead_pct`.
    /// Absent from reports predating the clamp, hence the default.
    #[serde(default)]
    pub metrics_overhead_raw_pct: f64,
    /// Interquartile range of the paired percentages behind
    /// `metrics_overhead_pct`, in percentage points: how far apart the
    /// pairs' readings lie. `bench_diff` leaves a row unresolved, not
    /// regressed, when this is wider than its budget. Absent from reports
    /// predating the field, hence the default.
    #[serde(default)]
    pub metrics_overhead_iqr_pct: f64,
    /// Wall-time cost of flight-recorder event tracing on the
    /// workload_sim shape, measured and clamped like
    /// `metrics_overhead_pct`. Absent
    /// from reports predating the tracing layer, hence the default.
    #[serde(default)]
    pub trace_overhead_pct: f64,
    /// The unclamped signed median behind `trace_overhead_pct`.
    #[serde(default)]
    pub trace_overhead_raw_pct: f64,
    /// Interquartile range behind `trace_overhead_pct`, like
    /// `metrics_overhead_iqr_pct`.
    #[serde(default)]
    pub trace_overhead_iqr_pct: f64,
    /// Wall-time cost of time-series telemetry on the serve-replay
    /// shape: a telemetry-on replay (metric recording plus an
    /// interval-zero sampler cutting a window every chunk round — the
    /// most aggressive cadence the CLI can request) against a plain
    /// replay, measured and clamped like `metrics_overhead_pct`. Absent
    /// from reports predating the telemetry layer, hence the default.
    #[serde(default)]
    pub telemetry_overhead_pct: f64,
    /// The unclamped signed median behind `telemetry_overhead_pct`.
    #[serde(default)]
    pub telemetry_overhead_raw_pct: f64,
    /// Interquartile range behind `telemetry_overhead_pct`, like
    /// `metrics_overhead_iqr_pct`.
    #[serde(default)]
    pub telemetry_overhead_iqr_pct: f64,
    /// Wall time of one differential-oracle pass over each testkit corpus
    /// workload — the price of the tier-1 `testkit` step, tracked so
    /// harness regressions are visible.
    pub oracle_check_ms: f64,
    /// Snapshot of an instrumented sweep-plus-pipeline pass.
    pub metrics: subset3d_obs::MetricsSnapshot,
    /// Cross-methodology bake-off: every clustering backend scored on
    /// every game profile (see [`collect_bakeoff`]). Absent from reports
    /// predating pluggable backends, hence the default.
    #[serde(default)]
    pub bakeoff: Vec<BackendScore>,
    /// Streaming-service replay throughput and incremental-fit latency.
    /// Absent from reports predating the serve layer, hence the default.
    #[serde(default)]
    pub serve_replay: Option<ServeReplayBench>,
    /// The same stream pushed through the loopback wire-protocol
    /// front-end, measured against `serve_replay`'s in-process ingest
    /// baseline. Absent from reports predating the network front-end,
    /// hence the default.
    #[serde(default)]
    pub serve_net: Option<ServeNetBench>,
}

/// Percentile digest of a set of per-call latencies, nanoseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyDigest {
    /// Samples the digest summarises.
    pub count: usize,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: f64,
    /// Median latency.
    pub p50_ns: u64,
    /// 90th-percentile latency.
    pub p90_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
}

impl LatencyDigest {
    /// Digests `samples` (any order); all-zero for an empty set.
    pub fn of(samples: &[u64]) -> LatencyDigest {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let pct = |p: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        LatencyDigest {
            count: sorted.len(),
            mean_ns: if sorted.is_empty() {
                0.0
            } else {
                sorted.iter().sum::<u64>() as f64 / sorted.len() as f64
            },
            p50_ns: pct(50.0),
            p90_ns: pct(90.0),
            p99_ns: pct(99.0),
            max_ns: sorted.last().copied().unwrap_or(0),
        }
    }
}

/// The streaming-service replay scenario: the bench workload cut into
/// chunks and fanned through concurrent serve sessions on the shared
/// pool (see [`collect_serve_replay`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReplayBench {
    /// Concurrent sessions fed the same stream.
    pub sessions: usize,
    /// Frames per ingested chunk.
    pub chunk_frames: usize,
    /// Frames streamed into each session.
    pub frames_per_session: usize,
    /// Session drains per wall-clock second.
    pub sessions_per_sec: f64,
    /// Frame ingests per wall-clock second, summed over sessions.
    pub frames_per_sec: f64,
    /// Per-chunk incremental-fit (ingest call) latency distribution.
    pub ingest_latency: LatencyDigest,
}

/// The wire-protocol ingestion scenario: the serve-replay stream framed
/// through a loopback TCP listener (see [`collect_serve_net`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeNetBench {
    /// Sessions streamed over the wire.
    pub sessions: usize,
    /// Frames per ingested chunk.
    pub chunk_frames: usize,
    /// Frames streamed into each session.
    pub frames_per_session: usize,
    /// Frame ingests per wall-clock second, summed over sessions.
    pub frames_per_sec: f64,
    /// Per-chunk round-trip latency: encode, loopback TCP, server
    /// ingest, JSON update reply.
    pub wire_latency: LatencyDigest,
    /// Mean wire round-trip over the in-process `serve_replay` mean
    /// ingest — the framing + loopback overhead factor; `0.0` when the
    /// baseline mean is degenerate (zero).
    pub wire_overhead_ratio: f64,
}

/// One backend × profile cell of the cross-methodology bake-off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendScore {
    /// Backend name, in its CLI `--backend` spelling.
    pub backend: String,
    /// Game profile the score was measured on.
    pub profile: String,
    /// Mean relative frame-prediction error of the subset.
    pub prediction_error: f64,
    /// Mean clustering efficiency in `[0, 1]` — the fraction of draw
    /// simulation avoided (paper target ≈ 0.658).
    pub efficiency: f64,
    /// Fraction of frames whose prediction error is an outlier.
    pub outlier_fraction: f64,
}

/// Wall time of one invocation of `f`, in milliseconds.
pub fn one_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`runs` wall time of `f`, in milliseconds.
pub fn best_ms(mut f: impl FnMut(), runs: usize) -> f64 {
    (0..runs.max(1))
        .map(|_| one_ms(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Best-of-[`RUNS`] wall times, in milliseconds, of one speedup arm's
/// two sides: `single` on one thread and `parallel` on `threads`. Each
/// repetition times one pass of each side back to back, alternating
/// which goes first, so a burst of host contention lands on both sides
/// rather than on one side's whole block. The pool is resized outside
/// the timed closures, and left at `threads`.
fn interleaved_best_ms(
    threads: usize,
    mut single: impl FnMut(),
    mut parallel: impl FnMut(),
) -> (f64, f64) {
    let (mut base, mut opt) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..RUNS {
        for single_side in [rep % 2 == 0, rep % 2 == 1] {
            if single_side {
                subset3d_exec::set_thread_count(1);
                base = base.min(one_ms(&mut single));
            } else {
                subset3d_exec::set_thread_count(threads);
                opt = opt.min(one_ms(&mut parallel));
            }
        }
    }
    subset3d_exec::set_thread_count(threads);
    (base, opt)
}

/// Median-of-`runs` wall time of `f`, in milliseconds — the noise-robust
/// timing each arm of the telemetry overhead pair takes.
pub fn median_ms(mut f: impl FnMut(), runs: usize) -> f64 {
    let samples: Vec<f64> = (0..runs.max(1)).map(|_| one_ms(&mut f)).collect();
    subset3d_stats::median(&samples).expect("wall times are never NaN")
}

/// The paired percentages behind one overhead reading, summarised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedOverhead {
    /// Signed median of the paired percentages.
    pub median_pct: f64,
    /// Their interquartile range (p75 − p25), in percentage points.
    pub iqr_pct: f64,
}

impl PairedOverhead {
    /// Median and interquartile range of `pcts`; both `0.0` for no
    /// samples.
    fn of(pcts: &[f64]) -> Self {
        let quartile = |p| subset3d_stats::percentile(pcts, p).unwrap_or(0.0);
        PairedOverhead {
            median_pct: quartile(50.0),
            iqr_pct: quartile(75.0) - quartile(25.0),
        }
    }
}

/// Relative overhead, in percent, of `with` over `without`:
/// [`OVERHEAD_REPS`] interleaved pairs so drift hits both arms equally.
/// Pairs whose baseline arm is too fast to time (0 ms on a coarse clock)
/// have no meaningful ratio and are skipped; if every pair degenerates,
/// the overhead is reported as `0.0` rather than `inf`/`NaN`.
pub fn paired_overhead_pct(
    mut without: impl FnMut() -> f64,
    mut with: impl FnMut() -> f64,
) -> PairedOverhead {
    let pcts: Vec<f64> = (0..OVERHEAD_REPS)
        .filter_map(|_| {
            let off = without();
            let on = with();
            (off > 0.0).then(|| (on - off) / off * 100.0)
        })
        .collect();
    PairedOverhead::of(&pcts)
}

/// The workload every scenario runs on.
pub fn bench_workload() -> Workload {
    GameProfile::shooter("bench")
        .frames(120)
        .draws_per_frame(400)
        .build(11)
        .generate()
}

/// Frames in each bake-off workload.
pub const BAKEOFF_FRAMES: usize = 24;

/// Draws per frame in each bake-off workload — deliberately modest: the
/// PCA + agglomerative backend is O(n³) in draws per frame.
pub const BAKEOFF_DRAWS_PER_FRAME: usize = 150;

/// The backends the bake-off compares, with the same parameters the CLI
/// `--backend` flag applies.
fn bakeoff_methods() -> Vec<(&'static str, ClusterMethod)> {
    vec![
        ("threshold", ClusterMethod::Threshold { distance: 1.05 }),
        ("kmeans", ClusterMethod::KMeansBic { max_k: 12 }),
        (
            "stratified",
            ClusterMethod::Stratified {
                strata: 8,
                rate: 0.1,
            },
        ),
        (
            "pca-agglo",
            ClusterMethod::PcaAgglo {
                components: 4,
                clusters: 16,
            },
        ),
    ]
}

fn bakeoff_scores(frames: usize, draws_per_frame: usize) -> Vec<BackendScore> {
    let mut scores = Vec::new();
    for (profile, seed) in [("shooter", 11u64), ("rts", 13), ("racing", 17)] {
        let builder = match profile {
            "shooter" => GameProfile::shooter(profile),
            "rts" => GameProfile::rts(profile),
            _ => GameProfile::racing(profile),
        };
        let workload = builder
            .frames(frames)
            .draws_per_frame(draws_per_frame)
            .build(seed)
            .generate();
        for (name, method) in bakeoff_methods() {
            let sim = Simulator::new(ArchConfig::baseline());
            let outcome = Subsetter::new(SubsetConfig::default().with_cluster_method(method))
                .run(&workload, &sim)
                .expect("bake-off pipeline");
            scores.push(BackendScore {
                backend: name.to_string(),
                profile: profile.to_string(),
                prediction_error: outcome.evaluation.mean_prediction_error(),
                efficiency: outcome.evaluation.mean_efficiency(),
                outlier_fraction: outcome.evaluation.outlier_fraction(),
            });
        }
    }
    scores
}

/// Runs the cross-methodology bake-off: every clustering backend on
/// every game profile, scored on the paper's three quality axes —
/// prediction error, subsetting efficiency and outlier fraction.
pub fn collect_bakeoff() -> Vec<BackendScore> {
    bakeoff_scores(BAKEOFF_FRAMES, BAKEOFF_DRAWS_PER_FRAME)
}

/// Concurrent sessions in the serve-replay scenario.
pub const SERVE_SESSIONS: usize = 4;

/// Frames per chunk in the serve-replay scenario.
pub const SERVE_CHUNK_FRAMES: usize = 16;

/// Streams `workload` through [`SERVE_SESSIONS`] concurrent serve
/// sessions in [`SERVE_CHUNK_FRAMES`]-frame chunks, [`RUNS`] times, and
/// digests the fastest run: drain/ingest throughput plus the per-chunk
/// incremental-fit latency distribution.
pub fn collect_serve_replay(workload: &Workload) -> ServeReplayBench {
    let config = ServeConfig::default();
    let options = ReplayOptions {
        sessions: SERVE_SESSIONS,
        chunk_frames: SERVE_CHUNK_FRAMES,
        ..Default::default()
    };
    let mut best: Option<ReplayOutcome> = None;
    for _ in 0..RUNS {
        let outcome = replay(workload, &config, &options).expect("serve replay");
        if best.as_ref().is_none_or(|b| outcome.wall_ns < b.wall_ns) {
            best = Some(outcome);
        }
    }
    let outcome = best.expect("RUNS >= 1");
    let summary = outcome.summary();
    ServeReplayBench {
        sessions: summary.sessions,
        chunk_frames: summary.chunk_frames,
        frames_per_session: summary.frames_per_session,
        sessions_per_sec: summary.sessions_per_sec,
        frames_per_sec: summary.frames_per_sec,
        ingest_latency: LatencyDigest::of(&outcome.ingest_ns),
    }
}

/// Streams `workload` through a loopback [`NetServer`] with
/// [`SERVE_SESSIONS`] sequential sessions in [`SERVE_CHUNK_FRAMES`]-frame
/// chunks, [`RUNS`] times, and digests the fastest run's per-chunk wire
/// round-trips against `baseline`'s in-process ingest latency.
pub fn collect_serve_net(workload: &Workload, baseline: &ServeReplayBench) -> ServeNetBench {
    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::default())
        .expect("bind loopback bench listener")
        .spawn()
        .expect("spawn bench listener");
    let addr = server.addr().to_string();

    let mut best: Option<RemoteReplay> = None;
    for _ in 0..RUNS {
        let run = replay_remote(&addr, workload, SERVE_SESSIONS, SERVE_CHUNK_FRAMES)
            .expect("loopback bench replay");
        if best.as_ref().is_none_or(|b| run.wall_ns < b.wall_ns) {
            best = Some(run);
        }
    }
    server.stop();

    let run = best.expect("RUNS >= 1");
    let wall_ns = run.wall_ns;
    let frames_per_session = workload.frames().len();
    let total_frames = frames_per_session * SERVE_SESSIONS;
    let wire_latency = LatencyDigest::of(&run.wire_ns);
    ServeNetBench {
        sessions: SERVE_SESSIONS,
        chunk_frames: SERVE_CHUNK_FRAMES,
        frames_per_session,
        frames_per_sec: if wall_ns > 0 {
            total_frames as f64 / (wall_ns as f64 / 1e9)
        } else {
            0.0
        },
        wire_overhead_ratio: if baseline.ingest_latency.mean_ns > 0.0 {
            wire_latency.mean_ns / baseline.ingest_latency.mean_ns
        } else {
            0.0
        },
        wire_latency,
    }
}

fn measurement(wall_ms: f64, draws: usize) -> Measurement {
    Measurement {
        wall_ms,
        // A 0 ms median (sub-millisecond stage on a coarse clock) has no
        // meaningful rate; report 0 rather than `inf` so the JSON stays
        // finite and `bench_diff` can flag the row as degenerate.
        draws_per_sec: if wall_ms > 0.0 {
            draws as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
    }
}

fn scenario(draws: usize, base: f64, opt: f64, batch_cache_hit_rate: Option<f64>) -> Scenario {
    Scenario {
        // 0.0 marks "not measurable" (optimized arm too fast to time);
        // `bench_diff` treats it as a degenerate baseline, not a ratio.
        speedup: if opt > 0.0 { base / opt } else { 0.0 },
        single_thread_uncached: measurement(base, draws),
        parallel_memoized: measurement(opt, draws),
        batch_cache_hit_rate,
    }
}

/// Runs the full measurement suite and returns the report. Every
/// scenario arm and the oracle check is the best of [`RUNS`] runs.
pub fn collect() -> Report {
    let threads = subset3d_exec::default_threads();
    let workload = bench_workload();
    let candidates = ArchConfig::pathfinding_candidates();
    let draws = workload.total_draws();

    // Each speedup arm interleaves its 1-thread and full-thread passes
    // (`interleaved_best_ms`). Thread-count changes happen OUTSIDE the
    // timed closures: resizing spawns a fresh pool, and measuring that
    // re-spawn used to shave the parallel arms' speedups below their true
    // value. The single-pass
    // scenarios run a `Simulator`, which keeps no cache, so they report
    // no hit rate.

    // -- workload simulation (cold, out-of-the-box) --------------------
    let sim_pass = || {
        let sim = Simulator::new(ArchConfig::baseline());
        sim.simulate_workload(&workload).expect("simulate");
    };
    let (base, opt) = interleaved_best_ms(threads, sim_pass, sim_pass);
    let workload_sim = scenario(draws, base, opt, None);

    // -- iterated pathfinding sweep ------------------------------------
    let sweep_hit_rate = {
        let session = SweepSession::new(&candidates).expect("session");
        for _ in 0..SWEEP_PASSES {
            session.sweep(&workload).expect("sweep");
        }
        session.cache_stats().batch_hit_rate()
    };
    // A fresh session swept `SWEEP_PASSES` times: the speedup arm's
    // optimized side, and the pass the metrics overhead times, since it
    // records the most (one batch-cache count per probe).
    let session_sweeps = || {
        let session = SweepSession::new(&candidates).expect("session");
        for _ in 0..SWEEP_PASSES {
            session.sweep(&workload).expect("sweep");
        }
    };
    let (base, opt) = interleaved_best_ms(
        threads,
        || {
            for _ in 0..SWEEP_PASSES {
                sweep_configs(&workload, &candidates).expect("sweep");
            }
        },
        session_sweeps,
    );
    let iterated_sweep = scenario(
        draws * candidates.len() * SWEEP_PASSES,
        base,
        opt,
        sweep_hit_rate,
    );

    // -- subsetting pipeline -------------------------------------------
    let pipeline_pass = || {
        let sim = Simulator::new(ArchConfig::baseline());
        Subsetter::new(SubsetConfig::default())
            .run(&workload, &sim)
            .expect("pipeline");
    };
    let (base, opt) = interleaved_best_ms(threads, pipeline_pass, pipeline_pass);
    let subsetting_pipeline = scenario(draws, base, opt, None);

    // -- observability overhead ----------------------------------------
    // Metrics on the iterated sweep's optimized arm, tracing on
    // workload_sim's; each rep interleaves an off and an on pass so
    // machine drift cancels.
    let metrics_overhead = paired_overhead_pct(
        || one_ms(session_sweeps),
        || {
            subset3d_obs::reset();
            subset3d_obs::set_enabled(true);
            let ms = one_ms(session_sweeps);
            subset3d_obs::set_enabled(false);
            ms
        },
    );
    let trace_overhead = paired_overhead_pct(
        || one_ms(sim_pass),
        || {
            subset3d_obs::start_tracing(subset3d_obs::TraceMode::Flight);
            let ms = one_ms(sim_pass);
            subset3d_obs::stop_tracing();
            ms
        },
    );

    // -- instrumented snapshot -----------------------------------------
    subset3d_obs::reset();
    subset3d_obs::set_enabled(true);
    {
        let session = SweepSession::new(&candidates).expect("session");
        for _ in 0..SWEEP_PASSES {
            session.sweep(&workload).expect("sweep");
        }
        let sim = Simulator::new(ArchConfig::baseline());
        Subsetter::new(SubsetConfig::default())
            .run(&workload, &sim)
            .expect("pipeline");
    }
    let metrics = subset3d_obs::snapshot();
    subset3d_obs::set_enabled(false);

    // -- differential-oracle wall time ---------------------------------
    let oracle_corpus = subset3d_testkit::corpus::oracle_corpus();
    let oracle_sim = Simulator::new(ArchConfig::baseline());
    let oracle_check_ms = best_ms(
        || {
            for (name, workload) in &oracle_corpus {
                subset3d_testkit::oracle::run_oracle(name, workload, &oracle_sim)
                    .expect("oracle")
                    .assert_clean();
            }
        },
        RUNS,
    );

    // -- streaming service replay --------------------------------------
    // Runs on the same default-thread pool as the parallel arms.
    let serve_replay = collect_serve_replay(&workload);

    // -- wire-protocol ingestion ---------------------------------------
    // The same stream over a loopback listener, against the in-process
    // latency baseline just collected.
    let serve_net = collect_serve_net(&workload, &serve_replay);

    // -- telemetry-sampling overhead -----------------------------------
    // Paired like the other observability overheads, on the serve-replay
    // shape: each rep interleaves a plain replay and a telemetry-on
    // replay (interval zero: a sampled window per chunk round), so the
    // measured cost is the full CLI telemetry path — metric recording
    // plus per-round registry snapshots and rolling-digest merges. Each
    // arm is itself a median of [`RUNS`] replays: a replay is ~25× the
    // wall time of the sim pass behind the trace overhead and its
    // 4-session pool scheduling is noisy enough that single-shot pairs
    // once committed a pure-noise reading over the 2 % budget.
    let serve_config = ServeConfig::default();
    let plain_options = ReplayOptions {
        sessions: SERVE_SESSIONS,
        chunk_frames: SERVE_CHUNK_FRAMES,
        ..Default::default()
    };
    let telemetry_options = ReplayOptions {
        sessions: SERVE_SESSIONS,
        chunk_frames: SERVE_CHUNK_FRAMES,
        telemetry: Some(TelemetryOptions {
            sampler: SamplerConfig {
                interval: Duration::ZERO,
                ..SamplerConfig::default()
            },
            slo: None,
        }),
    };
    let telemetry_overhead = paired_overhead_pct(
        || {
            median_ms(
                || {
                    replay(&workload, &serve_config, &plain_options).expect("replay");
                },
                RUNS,
            )
        },
        || {
            median_ms(
                || {
                    replay(&workload, &serve_config, &telemetry_options).expect("replay");
                },
                RUNS,
            )
        },
    );

    Report {
        threads,
        workload_frames: workload.frames().len(),
        workload_draws: draws,
        sweep_candidates: candidates.len(),
        sweep_passes: SWEEP_PASSES,
        workload_sim,
        iterated_sweep,
        subsetting_pipeline,
        metrics_overhead_pct: metrics_overhead.median_pct.max(0.0),
        metrics_overhead_raw_pct: metrics_overhead.median_pct,
        metrics_overhead_iqr_pct: metrics_overhead.iqr_pct,
        trace_overhead_pct: trace_overhead.median_pct.max(0.0),
        trace_overhead_raw_pct: trace_overhead.median_pct,
        trace_overhead_iqr_pct: trace_overhead.iqr_pct,
        telemetry_overhead_pct: telemetry_overhead.median_pct.max(0.0),
        telemetry_overhead_raw_pct: telemetry_overhead.median_pct,
        telemetry_overhead_iqr_pct: telemetry_overhead.iqr_pct,
        oracle_check_ms,
        metrics,
        bakeoff: collect_bakeoff(),
        serve_replay: Some(serve_replay),
        serve_net: Some(serve_net),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let m = Measurement {
            wall_ms: 1.5,
            draws_per_sec: 2e6,
        };
        let s = Scenario {
            single_thread_uncached: m.clone(),
            parallel_memoized: m,
            speedup: 1.0,
            batch_cache_hit_rate: Some(0.25),
        };
        Report {
            threads: 4,
            workload_frames: 10,
            workload_draws: 100,
            sweep_candidates: 6,
            sweep_passes: 4,
            workload_sim: s.clone(),
            iterated_sweep: s.clone(),
            subsetting_pipeline: s,
            metrics_overhead_pct: 0.0,
            metrics_overhead_raw_pct: -0.5,
            metrics_overhead_iqr_pct: 0.5,
            trace_overhead_pct: 1.25,
            trace_overhead_raw_pct: 1.25,
            trace_overhead_iqr_pct: 1.5,
            telemetry_overhead_pct: 0.75,
            telemetry_overhead_raw_pct: 0.75,
            telemetry_overhead_iqr_pct: 2.5,
            oracle_check_ms: 12.0,
            metrics: subset3d_obs::MetricsSnapshot::default(),
            bakeoff: vec![BackendScore {
                backend: "threshold".to_string(),
                profile: "shooter".to_string(),
                prediction_error: 0.05,
                efficiency: 12.5,
                outlier_fraction: 0.02,
            }],
            serve_replay: Some(ServeReplayBench {
                sessions: 4,
                chunk_frames: 16,
                frames_per_session: 120,
                sessions_per_sec: 8.0,
                frames_per_sec: 960.0,
                ingest_latency: LatencyDigest::of(&[100, 200, 300, 400]),
            }),
            serve_net: Some(ServeNetBench {
                sessions: 4,
                chunk_frames: 16,
                frames_per_session: 120,
                frames_per_sec: 800.0,
                wire_latency: LatencyDigest::of(&[150, 250, 350, 450]),
                wire_overhead_ratio: 1.2,
            }),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn reports_without_trace_overhead_still_deserialize() {
        // Committed BENCH files from before the tracing layer lack the
        // field; `#[serde(default)]` must absorb that.
        let json = serde_json::to_string_pretty(&sample_report()).unwrap();
        let stripped = json.replace("\"trace_overhead_pct\": 1.25,\n  ", "");
        assert!(!stripped.contains("trace_overhead_pct"));
        let back: Report = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.trace_overhead_pct, 0.0);
    }

    #[test]
    fn pre_columnar_scenarios_still_deserialize() {
        // Old reports recorded a frame-grain cache as a bare number
        // (pre-columnar), or carried the retired draw-grain cache keys
        // (`cache_hit_rate`, `bypassed`, `auto_disables`, `reprobes`);
        // the alias must absorb the first, the loader must ignore the
        // second, and a plain `0.25` must land as `Some(0.25)`.
        let pre_columnar = r#"{
            "single_thread_uncached": {"wall_ms": 1.0, "draws_per_sec": 1e6},
            "parallel_memoized": {"wall_ms": 0.5, "draws_per_sec": 2e6},
            "speedup": 2.0,
            "cache_hit_rate": 0.75,
            "frame_cache_hit_rate": 0.25
        }"#;
        let draw_grain = r#"{
            "single_thread_uncached": {"wall_ms": 1.0, "draws_per_sec": 1e6},
            "parallel_memoized": {"wall_ms": 0.5, "draws_per_sec": 2e6},
            "speedup": 2.0,
            "cache_hit_rate": null,
            "batch_cache_hit_rate": 0.25,
            "bypassed": 288660,
            "auto_disables": 3,
            "reprobes": 2
        }"#;
        for json in [pre_columnar, draw_grain] {
            let s: Scenario = serde_json::from_str(json).unwrap();
            assert_eq!(s.speedup, 2.0);
            assert_eq!(s.batch_cache_hit_rate, Some(0.25));
        }
    }

    #[test]
    fn unengaged_caches_serialize_as_null() {
        let mut s = sample_report().workload_sim;
        s.batch_cache_hit_rate = None;
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"batch_cache_hit_rate\":null"));
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.batch_cache_hit_rate, None);
    }

    #[test]
    fn reports_without_raw_overheads_or_bakeoff_still_deserialize() {
        // Committed BENCH files from before the clamp/bake-off lack the
        // fields; `#[serde(default)]` must absorb that.
        let json = serde_json::to_string(&sample_report()).unwrap();
        let stripped = json
            .replace("\"metrics_overhead_raw_pct\":-0.5,", "")
            .replace("\"trace_overhead_raw_pct\":1.25,", "")
            .replace("\"telemetry_overhead_raw_pct\":0.75,", "");
        let stripped = {
            // Drop the bakeoff array wholesale.
            let start = stripped.find(",\"bakeoff\":").unwrap();
            let end = stripped[start..].find(']').unwrap() + start + 1;
            format!("{}{}", &stripped[..start], &stripped[end..])
        };
        assert!(!stripped.contains("raw_pct") && !stripped.contains("bakeoff"));
        let back: Report = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.metrics_overhead_raw_pct, 0.0);
        assert_eq!(back.trace_overhead_raw_pct, 0.0);
        assert!(back.bakeoff.is_empty());
    }

    #[test]
    fn bakeoff_covers_every_backend_and_profile_with_finite_scores() {
        // Tiny workload — the real sizes live in collect_bakeoff(); this
        // exercises the exact collection path.
        let scores = bakeoff_scores(3, 40);
        assert_eq!(scores.len(), 4 * 3);
        for s in &scores {
            assert!(
                s.prediction_error.is_finite() && s.prediction_error >= 0.0,
                "{}/{}",
                s.backend,
                s.profile
            );
            assert!(
                (0.0..=1.0).contains(&s.efficiency),
                "{}/{}",
                s.backend,
                s.profile
            );
            assert!(
                (0.0..=1.0).contains(&s.outlier_fraction),
                "{}/{}",
                s.backend,
                s.profile
            );
        }
        let mut names: Vec<&str> = scores.iter().map(|s| s.backend.as_str()).collect();
        names.dedup();
        assert_eq!(
            names,
            ["threshold", "kmeans", "stratified", "pca-agglo"].repeat(3)
        );
    }

    #[test]
    fn latency_digest_orders_percentiles_and_handles_empty() {
        let d = LatencyDigest::of(&[]);
        assert_eq!((d.count, d.mean_ns, d.max_ns), (0, 0.0, 0));

        // 1..=100 in shuffled order: the digest must sort first.
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        samples.swap(3, 77);
        let d = LatencyDigest::of(&samples);
        assert_eq!(d.count, 100);
        assert_eq!(d.mean_ns, 50.5);
        assert_eq!(d.max_ns, 100);
        assert!(d.p50_ns <= d.p90_ns && d.p90_ns <= d.p99_ns && d.p99_ns <= d.max_ns);
        assert_eq!(d.p50_ns, 51); // round(0.5 * 99) = 50 → sorted[50]
        assert_eq!(d.p99_ns, 99);
    }

    #[test]
    fn serve_replay_scenario_collects_on_a_tiny_workload() {
        // Tiny stand-in for the bench workload: the exact collection
        // path, scaled down.
        let workload = GameProfile::racing("serve-bench")
            .frames(9)
            .draws_per_frame(30)
            .build(7)
            .generate();
        let s = collect_serve_replay(&workload);
        assert_eq!(s.sessions, SERVE_SESSIONS);
        assert_eq!(s.chunk_frames, SERVE_CHUNK_FRAMES);
        assert_eq!(s.frames_per_session, 9);
        // 9 frames fit one 16-frame chunk: one ingest per session.
        assert_eq!(s.ingest_latency.count, SERVE_SESSIONS);
        assert!(s.sessions_per_sec > 0.0 && s.frames_per_sec > 0.0);
        assert!(s.ingest_latency.mean_ns > 0.0);
    }

    #[test]
    fn reports_without_telemetry_overhead_still_deserialize() {
        // Committed BENCH files from before the telemetry layer lack the
        // fields; `#[serde(default)]` must absorb that.
        let json = serde_json::to_string(&sample_report()).unwrap();
        let stripped = json
            .replace("\"telemetry_overhead_pct\":0.75,", "")
            .replace("\"telemetry_overhead_raw_pct\":0.75,", "")
            .replace("\"telemetry_overhead_iqr_pct\":2.5,", "");
        assert!(!stripped.contains("telemetry_overhead"));
        let back: Report = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.telemetry_overhead_pct, 0.0);
        assert_eq!(back.telemetry_overhead_raw_pct, 0.0);
    }

    #[test]
    fn reports_without_overhead_iqrs_still_deserialize() {
        // Committed BENCH files from before the IQR fields lack them;
        // `#[serde(default)]` must absorb that.
        let json = serde_json::to_string(&sample_report()).unwrap();
        let stripped = json
            .replace("\"metrics_overhead_iqr_pct\":0.5,", "")
            .replace("\"trace_overhead_iqr_pct\":1.5,", "")
            .replace("\"telemetry_overhead_iqr_pct\":2.5,", "");
        assert!(!stripped.contains("iqr_pct"));
        let back: Report = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.metrics_overhead_iqr_pct, 0.0);
        assert_eq!(back.telemetry_overhead_iqr_pct, 0.0);
    }

    #[test]
    fn paired_overhead_reports_median_and_interquartile_range() {
        // Sorted: -1, 0.5, 1, 2, 3 — quartiles 0.5 and 2.
        let overhead = PairedOverhead::of(&[3.0, -1.0, 0.5, 2.0, 1.0]);
        let expected = PairedOverhead {
            median_pct: 1.0,
            iqr_pct: 1.5,
        };
        assert_eq!(overhead, expected);
        let none = PairedOverhead {
            median_pct: 0.0,
            iqr_pct: 0.0,
        };
        assert_eq!(PairedOverhead::of(&[]), none);
    }

    #[test]
    fn rolling_p99_stays_within_a_factor_of_two_of_the_exact_digest() {
        // Acceptance bound of the telemetry layer: rolling percentiles
        // are bucketed (power-of-two bucket upper bounds), so a
        // session's rolling p99 ingest latency must land in
        // [exact max, 2 * exact max). `LatencyDigest::of` over the
        // session's own `ingest_ns` samples is the exact reference — at
        // these sample counts p99 *is* the max (rank == count).
        let workload = GameProfile::shooter("telemetry-tolerance")
            .frames(12)
            .draws_per_frame(40)
            .build(3)
            .generate();
        let sessions = 3;
        let options = ReplayOptions {
            sessions,
            chunk_frames: 4,
            telemetry: Some(TelemetryOptions {
                sampler: SamplerConfig {
                    interval: Duration::ZERO,
                    capacity: 64,
                    rolling_windows: 64,
                },
                slo: None,
            }),
        };
        let outcome =
            replay(&workload, &ServeConfig::default(), &options).expect("telemetry replay");
        let telemetry = outcome
            .telemetry
            .as_ref()
            .expect("telemetry-enabled replay");
        let last = telemetry.windows.last().expect("at least the final window");
        let chunks = outcome.ingest_ns.len() / sessions;
        assert_eq!(chunks, 3, "12 frames in 4-frame chunks");
        for (s, id) in outcome.session_ids.iter().enumerate() {
            // Session s's exact samples: each chunk round pushes one
            // latency per session, in session order.
            let samples: Vec<u64> = (0..chunks)
                .map(|chunk| outcome.ingest_ns[chunk * sessions + s])
                .collect();
            let exact = LatencyDigest::of(&samples);
            assert!(exact.max_ns > 0, "{id} never timed an ingest");
            // Rolling digests merge the last `rolling_windows` windows,
            // which here is every window — the whole run.
            let key = format!("serve.session.ingest_ns{{session=\"{id}\"}}");
            let rolling = last
                .rolling
                .get(&key)
                .unwrap_or_else(|| panic!("no rolling digest for {key} in the final window"));
            assert_eq!(rolling.count, chunks as u64, "{key}");
            assert!(
                rolling.p99_ns >= exact.max_ns && rolling.p99_ns < 2 * exact.max_ns,
                "{key}: rolling p99 {} outside [{}, {}) — the documented \
                 factor-of-two bucket tolerance",
                rolling.p99_ns,
                exact.max_ns,
                2 * exact.max_ns,
            );
            assert!(rolling.p50_ns <= rolling.p90_ns && rolling.p90_ns <= rolling.p99_ns);
        }
    }

    #[test]
    fn reports_without_serve_replay_still_deserialize() {
        let json = serde_json::to_string(&sample_report()).unwrap();
        let start = json.find(",\"serve_replay\":").unwrap();
        let stripped = format!("{}{}", &json[..start], &json[json.len() - 1..]);
        assert!(!stripped.contains("serve_replay"));
        let back: Report = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.serve_replay, None);
    }

    #[test]
    fn reports_without_serve_net_still_deserialize() {
        let json = serde_json::to_string(&sample_report()).unwrap();
        let start = json.find(",\"serve_net\":").unwrap();
        let stripped = format!("{}{}", &json[..start], &json[json.len() - 1..]);
        assert!(!stripped.contains("serve_net"));
        let back: Report = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.serve_net, None);
        assert!(back.serve_replay.is_some(), "only serve_net was stripped");
    }

    #[test]
    fn serve_net_scenario_measures_the_wire_path() {
        let workload = GameProfile::shooter("bench-net")
            .frames(9)
            .draws_per_frame(30)
            .build(11)
            .generate();
        let baseline = collect_serve_replay(&workload);
        let s = collect_serve_net(&workload, &baseline);
        assert_eq!(s.sessions, SERVE_SESSIONS);
        assert_eq!(s.chunk_frames, SERVE_CHUNK_FRAMES);
        assert_eq!(s.frames_per_session, 9);
        // 9 frames fit one 16-frame chunk: one wire round-trip per session.
        assert_eq!(s.wire_latency.count, SERVE_SESSIONS);
        assert!(s.frames_per_sec > 0.0);
        assert!(s.wire_latency.mean_ns > 0.0);
        assert!(
            s.wire_overhead_ratio > 0.0,
            "a real baseline yields a real overhead ratio"
        );
    }

    #[test]
    fn timing_helpers_return_finite_times() {
        let t = best_ms(
            || {
                std::hint::black_box((0..1000).sum::<u64>());
            },
            2,
        );
        assert!(t.is_finite() && t >= 0.0);
        let t = median_ms(
            || {
                std::hint::black_box((0..1000).sum::<u64>());
            },
            3,
        );
        assert!(t.is_finite() && t >= 0.0);
    }
}
