//! Pipeline throughput report: measures the effect of the shared
//! work-stealing executor and a sweep session's memo rows against a
//! single-thread, uncached baseline, and records both in
//! `BENCH_pipeline.json` at the repository root.
//!
//! Three scenarios, all on the same generated game trace:
//!
//! * **workload_sim** — one cold `simulate_workload` pass at default
//!   threads. A `Simulator` keeps no cache, so any speedup here is the
//!   thread pool's;
//! * **iterated_sweep** — `SWEEP_PASSES` passes of the six-candidate
//!   pathfinding sweep through a `SweepSession`, the shape of the
//!   iterative pathfinding loop. Every pass after the first is served
//!   wholesale from the session's rows; the baseline runs the same walk
//!   with no rows (`sweep_configs`) on one thread;
//! * **subsetting_pipeline** — clustering + evaluation end to end.
//!
//! Every scenario is also run single-threaded with no memo (the
//! pre-executor behaviour); each timing is the best of three runs. Only
//! the iterated sweep engages the batch cache, so it alone reports a
//! batch hit rate.
//!
//! The report additionally measures the cost of `subset3d-obs` metric
//! recording and flight-mode event tracing (`metrics_overhead_pct` on
//! the iterated_sweep shape, the pass that records the most, and
//! `trace_overhead_pct` on the workload_sim shape: medians of five
//! interleaved off/on pairs, clamped at zero with the signed medians kept
//! in `*_raw_pct` and the pairs' interquartile ranges in `*_iqr_pct`,
//! budget < 2 %), embeds the `MetricsSnapshot` of an
//! instrumented sweep-plus-pipeline pass, and runs the backend bake-off:
//! every clustering methodology scored on prediction error, subsetting
//! efficiency and outlier fraction across the three game profiles. The
//! measurement code lives in [`subset3d_bench::report`]; `bench_diff`
//! compares two reports this binary wrote.
//!
//! The **serve_replay** scenario streams the same workload through
//! concurrent `subset3d-serve` sessions in chunks, recording session and
//! frame throughput plus the per-chunk incremental-fit latency digest.
//! The **serve_net** scenario repeats the stream through the loopback
//! wire-protocol front-end and reports the per-chunk round-trip digest
//! relative to that in-process baseline.

use subset3d_bench::report::{
    collect, Report, Scenario, BAKEOFF_DRAWS_PER_FRAME, BAKEOFF_FRAMES, OVERHEAD_REPS, RUNS,
};

fn rate(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{:.1}%", v * 100.0),
        None => "unused".to_string(),
    }
}

fn cache_summary(name: &str, s: &Scenario) {
    println!(
        "{name:<20} speedup {:.3} | batch cache {}",
        s.speedup,
        rate(s.batch_cache_hit_rate),
    );
}

fn main() {
    let report = collect();
    println!(
        "bench_report: {} frames / {} draws, {} candidate configs, {} threads",
        report.workload_frames, report.workload_draws, report.sweep_candidates, report.threads,
    );
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("{json}");
    println!("wrote BENCH_pipeline.json (best-of-{RUNS} timings)");
    cache_summary("workload_sim", &report.workload_sim);
    cache_summary("iterated_sweep", &report.iterated_sweep);
    cache_summary("subsetting_pipeline", &report.subsetting_pipeline);
    // The serialized fields are clamped at zero (negative = scheduling
    // noise); the signed medians survive in the `*_raw_pct` fields.
    println!(
        "metrics overhead: {:.2}% | trace overhead (flight mode): {:.2}% \
         (medians of {OVERHEAD_REPS} interleaved off/on pairs, clamped at 0; \
         raw {:.2}% / {:.2}%, IQR {:.2} / {:.2} pp)",
        report.metrics_overhead_pct,
        report.trace_overhead_pct,
        report.metrics_overhead_raw_pct,
        report.trace_overhead_raw_pct,
        report.metrics_overhead_iqr_pct,
        report.trace_overhead_iqr_pct,
    );
    if let Some(s) = &report.serve_replay {
        println!(
            "serve_replay: {} sessions x {} frames ({}-frame chunks) | \
             {:.1} sessions/s | {:.0} frames/s | ingest p50 {:.3}ms p99 {:.3}ms",
            s.sessions,
            s.frames_per_session,
            s.chunk_frames,
            s.sessions_per_sec,
            s.frames_per_sec,
            s.ingest_latency.p50_ns as f64 / 1e6,
            s.ingest_latency.p99_ns as f64 / 1e6,
        );
    }
    if let Some(s) = &report.serve_net {
        println!(
            "serve_net: {} sessions x {} frames ({}-frame chunks over loopback TCP) | \
             {:.0} frames/s | wire p50 {:.3}ms p99 {:.3}ms | {:.2}x in-process ingest",
            s.sessions,
            s.frames_per_session,
            s.chunk_frames,
            s.frames_per_sec,
            s.wire_latency.p50_ns as f64 / 1e6,
            s.wire_latency.p99_ns as f64 / 1e6,
            s.wire_overhead_ratio,
        );
    }
    bakeoff_table(&report);
}

fn bakeoff_table(report: &Report) {
    println!(
        "\nbackend bake-off ({BAKEOFF_FRAMES} frames x {BAKEOFF_DRAWS_PER_FRAME} \
         draws per profile):"
    );
    println!(
        "{:<12} {:<9} {:>11} {:>11} {:>9}",
        "backend", "profile", "pred error", "efficiency", "outliers"
    );
    for s in &report.bakeoff {
        println!(
            "{:<12} {:<9} {:>10.2}% {:>10.1}% {:>8.1}%",
            s.backend,
            s.profile,
            s.prediction_error * 100.0,
            s.efficiency * 100.0,
            s.outlier_fraction * 100.0,
        );
    }
}
