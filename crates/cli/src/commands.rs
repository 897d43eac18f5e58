//! Command implementations.

use crate::args::{Backend, Command, GenArgs, ServeArgs, StatsArgs, SubsetArgs, TraceProfileArgs};
use std::fmt;
use std::io::Write;
use subset3d_core::ClusterMethod;
use subset3d_core::{
    frequency_scaling_validation, SubsetConfig, Subsetter, SubsettingOutcome, Table,
};
use subset3d_gpusim::{ArchConfig, FrequencySweep, Simulator, SweepSession};
use subset3d_trace::gen::GameProfile;
use subset3d_trace::{decode_workload, encode_workload, Workload};

/// Error produced while executing a command.
#[derive(Debug)]
pub enum CliError {
    /// File I/O failed.
    Io(std::io::Error),
    /// The trace file failed to decode.
    Decode(subset3d_trace::EncodeError),
    /// The pipeline failed.
    Pipeline(subset3d_core::SubsetError),
    /// A report failed to serialise to JSON.
    Serialize(serde_json::Error),
    /// A trace file failed schema validation.
    Trace(String),
    /// A telemetry artifact failed schema validation.
    Telemetry(String),
    /// The streaming service failed.
    Serve(subset3d_serve::ServeError),
    /// A loopback differential found a divergence between the wire
    /// path and the in-process replay.
    Differential(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Decode(e) => write!(f, "trace decode error: {e}"),
            CliError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            CliError::Serialize(e) => write!(f, "serialisation error: {e}"),
            CliError::Trace(e) => write!(f, "trace error: {e}"),
            CliError::Telemetry(e) => write!(f, "telemetry error: {e}"),
            CliError::Serve(e) => write!(f, "serve error: {e}"),
            CliError::Differential(detail) => {
                write!(f, "wire/in-process differential mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<subset3d_trace::EncodeError> for CliError {
    fn from(e: subset3d_trace::EncodeError) -> Self {
        CliError::Decode(e)
    }
}

impl From<subset3d_core::SubsetError> for CliError {
    fn from(e: subset3d_core::SubsetError) -> Self {
        CliError::Pipeline(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Serialize(e)
    }
}

impl From<subset3d_gpusim::SimError> for CliError {
    fn from(e: subset3d_gpusim::SimError) -> Self {
        CliError::Pipeline(e.into())
    }
}

impl From<subset3d_serve::ServeError> for CliError {
    fn from(e: subset3d_serve::ServeError) -> Self {
        CliError::Serve(e)
    }
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] on I/O, decode or pipeline failure.
pub fn run_command(command: &Command, out: &mut dyn Write) -> Result<(), CliError> {
    match command {
        Command::Help => {
            writeln!(out, "{}", crate::USAGE)?;
            Ok(())
        }
        Command::Gen(args) => run_gen(args, out),
        Command::Info { path } => run_info(path, out),
        Command::Subset(args) => traced(args.trace_out.as_deref(), out, |out| {
            instrumented(args.metrics, out, |out| run_subset(args, out))
        }),
        Command::Sweep(args) => traced(args.trace_out.as_deref(), out, |out| {
            instrumented(args.metrics, out, |out| run_sweep(args, out))
        }),
        Command::Rank { trace, subset } => run_rank(trace, subset, out),
        Command::Merge { out: path, inputs } => run_merge(path, inputs, out),
        Command::Stats(args) => run_stats(args, out),
        Command::TraceProfile(args) => run_trace_profile(args, out),
        Command::TraceValidate { path } => run_trace_validate(path, out),
        Command::TelemetryValidate { path } => run_telemetry_validate(path, out),
        Command::Serve(args) => traced(args.trace_out.as_deref(), out, |out| {
            instrumented(args.metrics, out, |out| run_serve(args, out))
        }),
    }
}

/// Runs `f` under the event tracer (when `--trace-out` was given) and
/// writes the collected trace as Chrome trace-event JSON. When the
/// command fails, the most recent events are dumped to stderr as JSONL
/// instead — the flight-recorder contract: failed runs stay diagnosable.
fn traced(
    trace_out: Option<&str>,
    out: &mut dyn Write,
    f: impl FnOnce(&mut dyn Write) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let Some(path) = trace_out else {
        return f(out);
    };
    subset3d_obs::install_panic_dump();
    subset3d_obs::start_tracing(subset3d_obs::TraceMode::Full);
    let result = f(out);
    let events = subset3d_obs::stop_tracing();
    if let Err(e) = result {
        dump_flight_tail(&events);
        return Err(e);
    }
    let json = subset3d_obs::export_chrome(&events, &subset3d_obs::thread_names());
    std::fs::write(path, &json)?;
    writeln!(
        out,
        "wrote Chrome trace to {path} ({} events)",
        events.len()
    )?;
    Ok(())
}

/// Writes the last [`subset3d_obs::FLIGHT_CAPACITY`] events to stderr
/// as JSONL.
fn dump_flight_tail(events: &[subset3d_obs::TraceEvent]) {
    let tail = &events[events.len().saturating_sub(subset3d_obs::FLIGHT_CAPACITY)..];
    eprintln!(
        "subset3d flight recorder: {} most recent trace events follow",
        tail.len()
    );
    eprint!("{}", subset3d_obs::export_jsonl(tail));
}

/// Runs `f` with metric recording on (when requested) and appends the
/// resulting [`subset3d_obs::MetricsSnapshot`] as JSON after the
/// command's normal output, behind a `metrics:` marker line.
fn instrumented(
    metrics: bool,
    out: &mut dyn Write,
    f: impl FnOnce(&mut dyn Write) -> Result<(), CliError>,
) -> Result<(), CliError> {
    if !metrics {
        return f(out);
    }
    subset3d_obs::reset();
    subset3d_obs::set_enabled(true);
    let result = f(out);
    // Snapshot before disabling so the snapshot records that it covers
    // an instrumented run; the command's work has already completed.
    let snapshot = subset3d_obs::snapshot();
    subset3d_obs::set_enabled(false);
    result?;
    writeln!(out, "metrics:")?;
    writeln!(out, "{}", serde_json::to_string_pretty(&snapshot)?)?;
    Ok(())
}

fn run_gen(args: &GenArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let profile = match args.genre.as_str() {
        "rts" => GameProfile::rts("cli-game"),
        "racing" => GameProfile::racing("cli-game"),
        _ => GameProfile::shooter("cli-game"),
    };
    let workload = profile
        .frames(args.frames)
        .draws_per_frame(args.draws)
        .build(args.seed)
        .generate();
    let bytes = encode_workload(&workload);
    std::fs::write(&args.out, &bytes)?;
    writeln!(
        out,
        "wrote {} ({} frames, {} draws, {:.2} MiB)",
        args.out,
        workload.frames().len(),
        workload.total_draws(),
        bytes.len() as f64 / (1 << 20) as f64
    )?;
    Ok(())
}

fn load(path: &str) -> Result<Workload, CliError> {
    let bytes = std::fs::read(path)?;
    Ok(decode_workload(&bytes)?)
}

fn run_info(path: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let workload = load(path)?;
    let summary = workload.summary();
    let mut table = Table::new(vec!["property", "value"]);
    table.row(vec!["name".into(), summary.name.clone()]);
    table.row(vec!["frames".into(), summary.frames.to_string()]);
    table.row(vec!["draws".into(), summary.draws.to_string()]);
    table.row(vec![
        "draws/frame".into(),
        format!(
            "{:.1} (min {:.0}, max {:.0})",
            summary.draws_per_frame.mean, summary.draws_per_frame.min, summary.draws_per_frame.max
        ),
    ]);
    table.row(vec![
        "unique shaders".into(),
        summary.unique_shaders.to_string(),
    ]);
    table.row(vec![
        "unique textures".into(),
        summary.unique_textures.to_string(),
    ]);
    table.row(vec![
        "unique states".into(),
        summary.unique_states.to_string(),
    ]);
    writeln!(out, "{}", table.render())?;
    // Distribution of draws per frame as a sparkline.
    let per_frame: Vec<f64> = workload
        .frames()
        .iter()
        .map(|f| f.draw_count() as f64)
        .collect();
    if let (Some(lo), Some(hi)) = (
        subset3d_stats::min(&per_frame),
        subset3d_stats::max(&per_frame),
    ) {
        if hi > lo {
            let mut hist = subset3d_stats::Histogram::new(lo, hi, 24);
            hist.extend(per_frame.iter().copied());
            writeln!(
                out,
                "draws/frame distribution: {} ({:.0}..{:.0})",
                hist.sparkline(),
                lo,
                hi
            )?;
        }
    }
    let issues = workload.validate();
    if issues.is_empty() {
        writeln!(out, "trace is well-formed")?;
    } else {
        writeln!(out, "{} validation issue(s):", issues.len())?;
        for issue in issues.iter().take(20) {
            writeln!(out, "  {issue}")?;
        }
    }
    Ok(())
}

/// Maps a `--backend` selection onto its [`ClusterMethod`]. Only the
/// threshold backend consumes `--threshold`; the alternates use fixed
/// parameters matched to the bake-off defaults.
fn cluster_method(backend: Backend, threshold: f64) -> ClusterMethod {
    match backend {
        Backend::Threshold => ClusterMethod::Threshold {
            distance: threshold,
        },
        Backend::KMeans => ClusterMethod::KMeansBic { max_k: 12 },
        Backend::Stratified => ClusterMethod::Stratified {
            strata: 8,
            rate: 0.1,
        },
        Backend::PcaAgglo => ClusterMethod::PcaAgglo {
            components: 4,
            clusters: 16,
        },
    }
}

fn pipeline(args: &SubsetArgs, workload: &Workload) -> Result<SubsettingOutcome, CliError> {
    let config = SubsetConfig::default()
        .with_cluster_method(cluster_method(args.backend, args.threshold))
        .with_interval_len(args.interval)
        .with_frames_per_phase(args.frames_per_phase);
    let sim = Simulator::new(ArchConfig::baseline());
    Ok(Subsetter::new(config).run(workload, &sim)?)
}

fn run_subset(args: &SubsetArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let workload = load(&args.path)?;
    let outcome = pipeline(args, &workload)?;
    if args.json {
        let summary = outcome.summary(&workload);
        writeln!(out, "{}", serde_json::to_string_pretty(&summary)?)?;
        if let Some(path) = &args.out_subset {
            let json = serde_json::to_string_pretty(&outcome.subset)?;
            std::fs::write(path, json)?;
        }
        return Ok(());
    }
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec![
        "clustering efficiency".into(),
        format!("{:.2}%", outcome.evaluation.mean_efficiency() * 100.0),
    ]);
    table.row(vec![
        "prediction error".into(),
        format!("{:.2}%", outcome.evaluation.mean_prediction_error() * 100.0),
    ]);
    table.row(vec![
        "cluster outliers".into(),
        format!("{:.2}%", outcome.evaluation.outlier_fraction() * 100.0),
    ]);
    table.row(vec![
        "phases".into(),
        outcome.phases.phase_count().to_string(),
    ]);
    table.row(vec![
        "subset draws".into(),
        format!(
            "{} ({:.3}% of parent)",
            outcome.subset.selected_draw_count(),
            outcome.subset.draw_fraction() * 100.0
        ),
    ]);
    table.row(vec![
        "kept frames".into(),
        format!(
            "{}/{}",
            outcome.subset.frames().len(),
            workload.frames().len()
        ),
    ]);
    writeln!(out, "{}", table.render())?;
    if let Some(path) = &args.out_subset {
        let json = serde_json::to_string_pretty(&outcome.subset)?;
        std::fs::write(path, json)?;
        writeln!(out, "wrote subset to {path}")?;
    }
    Ok(())
}

fn run_merge(out_path: &str, inputs: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let workloads: Vec<Workload> = inputs.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let refs: Vec<&Workload> = workloads.iter().collect();
    let suite = subset3d_trace::merge_workloads("suite", &refs);
    let bytes = encode_workload(&suite);
    std::fs::write(out_path, &bytes)?;
    writeln!(
        out,
        "merged {} traces into {} ({} frames, {} draws)",
        inputs.len(),
        out_path,
        suite.frames().len(),
        suite.total_draws()
    )?;
    Ok(())
}

fn run_rank(trace: &str, subset_path: &str, out: &mut dyn Write) -> Result<(), CliError> {
    use subset3d_core::pathfinding_rank_validation;
    let workload = load(trace)?;
    let json = std::fs::read_to_string(subset_path)?;
    let subset: subset3d_core::WorkloadSubset = serde_json::from_str(&json).map_err(|e| {
        CliError::Pipeline(subset3d_core::SubsetError::SubsetMismatch {
            reason: format!("subset JSON invalid: {e}"),
        })
    })?;
    subset.validate(&workload)?;
    let candidates = ArchConfig::pathfinding_candidates();
    let (parent, estimate, agreement) =
        pathfinding_rank_validation(&workload, &subset, &candidates)?;
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        estimate[a]
            .partial_cmp(&estimate[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut table = Table::new(vec!["rank", "design", "subset estimate", "full-trace time"]);
    for (rank, &i) in order.iter().enumerate() {
        table.row(vec![
            (rank + 1).to_string(),
            candidates[i].name.clone(),
            format!("{:.2}ms", estimate[i] / 1e6),
            format!("{:.2}ms", parent[i] / 1e6),
        ]);
    }
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "rank agreement with full trace: {:.0}%",
        agreement * 100.0
    )?;
    Ok(())
}

fn run_sweep(args: &SubsetArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let workload = load(&args.path)?;
    let outcome = pipeline(args, &workload)?;
    let sweep = FrequencySweep::standard();
    let validation =
        frequency_scaling_validation(&workload, &outcome.subset, &ArchConfig::baseline(), &sweep)?;
    let mut table = Table::new(vec!["core MHz", "parent improvement", "subset improvement"]);
    for ((mhz, p), s) in validation
        .points_mhz
        .iter()
        .zip(&validation.parent_improvement)
        .zip(&validation.subset_improvement)
    {
        table.row(vec![
            format!("{mhz:.0}"),
            format!("{p:.4}x"),
            format!("{s:.4}x"),
        ]);
    }
    writeln!(out, "{}", table.render())?;
    writeln!(out, "correlation: r = {:.4}", validation.correlation)?;
    Ok(())
}

/// Runs an instrumented subsetting pass plus an iterated candidate sweep
/// over the trace and reports the collected metrics — nothing else.
///
/// The sweep runs twice on purpose: the second pass replays identical
/// frames into warm caches, so the report shows steady-state hit rates
/// rather than cold-start misses.
fn run_stats(args: &StatsArgs, out: &mut dyn Write) -> Result<(), CliError> {
    if args.watch {
        return run_stats_watch(args, out);
    }
    let workload = load(&args.trace)?;
    subset3d_obs::reset();
    subset3d_obs::set_enabled(true);
    let result = (|| -> Result<(), CliError> {
        let sim = Simulator::new(ArchConfig::baseline());
        Subsetter::new(SubsetConfig::default()).run(&workload, &sim)?;
        let session = SweepSession::new(&ArchConfig::pathfinding_candidates())?;
        session.sweep(&workload)?;
        session.sweep(&workload)?;
        Ok(())
    })();
    let snapshot = subset3d_obs::snapshot();
    subset3d_obs::set_enabled(false);
    result?;
    if args.json {
        writeln!(out, "{}", serde_json::to_string_pretty(&snapshot)?)?;
        return Ok(());
    }
    let mut table = Table::new(vec!["metric", "value"]);
    for (name, value) in &snapshot.counters {
        table.row(vec![name.clone(), value.to_string()]);
    }
    for (name, hist) in &snapshot.histograms {
        table.row(vec![
            name.clone(),
            format!(
                "n={} total={:.3}ms mean={:.0}ns",
                hist.count,
                hist.sum_ns as f64 / 1e6,
                hist.mean_ns
            ),
        ]);
    }
    writeln!(out, "{}", table.render())?;
    Ok(())
}

/// Formats a nanosecond latency for the watch view.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Top-like live metrics view: repeats the instrumented pass, sampling a
/// telemetry window per tick and rendering per-window counter deltas
/// plus rolling latency percentiles. `--iterations 0` runs until
/// interrupted; a non-zero `--interval` redraws the screen in place.
fn run_stats_watch(args: &StatsArgs, out: &mut dyn Write) -> Result<(), CliError> {
    use subset3d_obs::timeseries::{SamplerConfig, TelemetrySampler};
    let workload = load(&args.trace)?;
    subset3d_obs::reset();
    subset3d_obs::set_enabled(true);
    let result = (|| -> Result<(), CliError> {
        let sim = Simulator::new(ArchConfig::baseline());
        let session = SweepSession::new(&ArchConfig::pathfinding_candidates())?;
        let mut sampler = TelemetrySampler::new(SamplerConfig {
            interval: std::time::Duration::ZERO,
            capacity: 256,
            rolling_windows: 8,
        });
        let mut tick = 0usize;
        loop {
            Subsetter::new(SubsetConfig::default()).run(&workload, &sim)?;
            session.sweep(&workload)?;
            let window = sampler.sample_now();
            if !args.interval.is_zero() {
                // Interactive cadence: redraw in place, like `top`.
                write!(out, "\x1b[2J\x1b[H")?;
            }
            writeln!(
                out,
                "watch tick {tick}  window {}  {:.1}ms sampled",
                window.index,
                window.duration_ns as f64 / 1e6
            )?;
            let mut table = Table::new(vec!["metric", "Δ window", "p50", "p90", "p99 (rolling)"]);
            let mut digests: Vec<_> = window.rolling.iter().collect();
            digests.sort_by_key(|(_, d)| std::cmp::Reverse(d.count));
            for (name, d) in digests.into_iter().take(10) {
                table.row(vec![
                    name.clone(),
                    d.count.to_string(),
                    fmt_ns(d.p50_ns),
                    fmt_ns(d.p90_ns),
                    fmt_ns(d.p99_ns),
                ]);
            }
            let mut counters: Vec<_> = window.delta.counters.iter().collect();
            counters.sort_by_key(|(_, &v)| std::cmp::Reverse(v));
            for (name, value) in counters.into_iter().take(10) {
                table.row(vec![
                    name.clone(),
                    value.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
            }
            writeln!(out, "{}", table.render())?;
            tick += 1;
            if args.iterations != 0 && tick >= args.iterations {
                break;
            }
            if !args.interval.is_zero() {
                std::thread::sleep(args.interval);
            }
        }
        Ok(())
    })();
    subset3d_obs::set_enabled(false);
    result
}

/// Runs the full subsetting pipeline under the event tracer over each
/// input trace, writes the Chrome traces, and prints a self-time table
/// merged across all sources with a per-source breakdown — `perf
/// report` for pipeline runs. With one source the per-source columns
/// collapse away. Chrome traces land at `<input>.trace.json`, or — for
/// the first source only — at `--trace-out`.
fn run_trace_profile(args: &TraceProfileArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let config = SubsetConfig::default()
        .with_cluster_method(cluster_method(args.backend, args.threshold))
        .with_interval_len(args.interval)
        .with_frames_per_phase(args.frames_per_phase);
    subset3d_obs::install_panic_dump();

    // name -> (count, total_ns, merged self_ns, per-source self_ns)
    let mut merged: std::collections::BTreeMap<String, (u64, u64, u64, Vec<u64>)> =
        std::collections::BTreeMap::new();
    let sources = args.traces.len();
    for (source, input) in args.traces.iter().enumerate() {
        let workload = load(input)?;
        let sim = Simulator::new(ArchConfig::baseline());
        subset3d_obs::start_tracing(subset3d_obs::TraceMode::Full);
        let result = Subsetter::new(config.clone()).run(&workload, &sim);
        let events = subset3d_obs::stop_tracing();
        if let Err(e) = result {
            dump_flight_tail(&events);
            return Err(e.into());
        }
        for stage in subset3d_obs::self_time(&events) {
            let entry = merged
                .entry(stage.name.to_string())
                .or_insert_with(|| (0, 0, 0, vec![0; sources]));
            entry.0 += stage.count;
            entry.1 += stage.total_ns;
            entry.2 += stage.self_ns;
            entry.3[source] += stage.self_ns;
        }

        let path = match (&args.trace_out, source) {
            (Some(path), 0) => Some(path.clone()),
            (Some(_), _) => None,
            (None, _) => Some(format!("{input}.trace.json")),
        };
        if let Some(path) = path {
            let json = subset3d_obs::export_chrome(&events, &subset3d_obs::thread_names());
            std::fs::write(&path, &json)?;
            writeln!(
                out,
                "wrote Chrome trace to {path} ({} events)",
                events.len()
            )?;
        }
    }

    let mut rows: Vec<_> = merged.into_iter().collect();
    rows.sort_by_key(|(_, (_, _, self_ns, _))| std::cmp::Reverse(*self_ns));
    let total_self_ns: u64 = rows.iter().map(|(_, (_, _, self_ns, _))| self_ns).sum();
    let mut header = vec![
        "span".to_string(),
        "count".to_string(),
        "total ms".to_string(),
        "self ms".to_string(),
        "self %".to_string(),
    ];
    if sources > 1 {
        for source in 0..sources {
            header.push(format!("self ms [{source}]"));
        }
    }
    let mut table = Table::new(header);
    for (name, (count, total_ns, self_ns, per_source)) in rows {
        let mut row = vec![
            name,
            count.to_string(),
            format!("{:.3}", total_ns as f64 / 1e6),
            format!("{:.3}", self_ns as f64 / 1e6),
            format!(
                "{:.1}",
                self_ns as f64 / total_self_ns.max(1) as f64 * 100.0
            ),
        ];
        if sources > 1 {
            row.extend(
                per_source
                    .iter()
                    .map(|ns| format!("{:.3}", *ns as f64 / 1e6)),
            );
        }
        table.row(row);
    }
    writeln!(out, "{}", table.render())?;
    if sources > 1 {
        writeln!(out, "sources:")?;
        for (source, input) in args.traces.iter().enumerate() {
            writeln!(out, "  [{source}] {input}")?;
        }
        if args.trace_out.is_some() {
            writeln!(out, "note: --trace-out holds the first source's trace only")?;
        }
    }
    writeln!(
        out,
        "open it at https://ui.perfetto.dev (or chrome://tracing)"
    )?;
    Ok(())
}

/// Validates a telemetry artifact: JSONL time-series files (first
/// non-blank byte `{`) get the window-ordering lint, anything else is
/// linted as Prometheus exposition text.
fn run_telemetry_validate(path: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)?;
    if text.trim().is_empty() {
        return Err(CliError::Telemetry(format!("{path} is empty")));
    }
    if text.trim_start().starts_with('{') {
        let windows = subset3d_obs::timeseries_from_jsonl(&text).map_err(CliError::Telemetry)?;
        let stats = subset3d_obs::validate_timeseries(&windows).map_err(CliError::Telemetry)?;
        writeln!(
            out,
            "{path} is a valid telemetry time-series: {} windows spanning {}ms, {} rolling digests",
            stats.windows, stats.span_ms, stats.digests
        )?;
    } else {
        let stats = subset3d_obs::validate_prometheus(&text).map_err(CliError::Telemetry)?;
        writeln!(
            out,
            "{path} is valid Prometheus exposition: {} metrics, {} samples, {} histogram series",
            stats.types, stats.samples, stats.histogram_series
        )?;
    }
    Ok(())
}

/// Replays a recorded trace through concurrent streaming sessions and
/// prints the throughput and the drained end-of-stream subset.
/// The session configuration the serve flags describe — shared by all
/// three modes (replay, listen, connect) so a listener launched with
/// the same flags as a connecting client fits identically.
fn serve_config(args: &ServeArgs) -> subset3d_serve::ServeConfig {
    subset3d_serve::ServeConfig {
        subset: SubsetConfig::default()
            .with_cluster_method(cluster_method(args.backend, args.threshold)),
        reservoir_capacity: args.capacity,
        ..Default::default()
    }
}

fn telemetry_options(args: &ServeArgs) -> Option<subset3d_serve::TelemetryOptions> {
    args.telemetry_requested().then(|| {
        let interval = args
            .telemetry_interval
            .unwrap_or(std::time::Duration::from_millis(250));
        // The SLO budget defaults to the sampling interval — the chunk
        // cadence proxy: ingests slower than the arrival interval mean
        // sessions are falling behind.
        let budget = args.slo_budget.unwrap_or(interval);
        subset3d_serve::TelemetryOptions {
            sampler: subset3d_obs::SamplerConfig {
                interval,
                ..Default::default()
            },
            slo: Some(subset3d_serve::SloPolicy {
                budget_ns: duration_ns(budget),
            }),
        }
    })
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `serve --listen`: bind the wire-protocol front-end and block until
/// the process is killed. The resolved address is printed (and flushed)
/// first so scripts binding port 0 can discover the port.
fn run_serve_listen(args: &ServeArgs, addr: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let config = subset3d_serve::NetServerConfig {
        serve: serve_config(args),
        session_ttl: args.session_ttl,
        // `--slo-budget` doubles as the backpressure budget: sessions
        // whose rolling p99 ingest overruns it get throttled, then shed.
        backpressure: args
            .slo_budget
            .map(|budget| subset3d_serve::BackpressurePolicy {
                budget_ns: duration_ns(budget),
                ..Default::default()
            }),
        ..Default::default()
    };
    let server = subset3d_serve::NetServer::bind(addr, config)?;
    writeln!(out, "listening on {}", server.local_addr()?)?;
    out.flush()?;
    let stats = server.run();
    writeln!(
        out,
        "served {} connections ({} protocol errors, {} shed, {} evicted)",
        stats.connections, stats.protocol_errors, stats.sessions_shed, stats.sessions_evicted
    )?;
    Ok(())
}

/// `serve --connect`: stream the replay trace at a remote listener and
/// differential-check every per-chunk update against an in-process
/// replay of the same trace with the same chunking.
fn run_serve_connect(args: &ServeArgs, addr: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let workload = load(args.replay.as_deref().expect("parser requires --replay"))?;
    let config = serve_config(args);
    let options = subset3d_serve::ReplayOptions {
        sessions: args.sessions,
        chunk_frames: args.chunk,
        telemetry: telemetry_options(args),
    };
    let reference = subset3d_serve::replay(&workload, &config, &options)?;
    let remote = subset3d_serve::replay_remote(addr, &workload, args.sessions, args.chunk)?;
    check_wire_differential(&reference, &remote)?;

    if let Some(report) = &reference.telemetry {
        if let Some(path) = &args.prom_out {
            std::fs::write(path, subset3d_obs::to_prometheus(&report.final_snapshot))?;
        }
        if let Some(path) = &args.timeseries_out {
            std::fs::write(path, subset3d_obs::timeseries_to_jsonl(&report.windows))?;
        }
    }

    let chunks = remote.wire_ns.len();
    let mean_wire_ns = if chunks == 0 {
        0.0
    } else {
        remote.wire_ns.iter().sum::<u64>() as f64 / chunks as f64
    };
    let pressured = |pressure| {
        remote
            .updates
            .iter()
            .flatten()
            .filter(|u| u.pressure == pressure)
            .count() as u64
    };
    let throttled = pressured(subset3d_serve::Pressure::Throttle);
    let shed = pressured(subset3d_serve::Pressure::Shed);
    if args.json {
        let summary = NetReplaySummary {
            addr: addr.to_string(),
            sessions: args.sessions,
            chunk_frames: args.chunk,
            chunks_streamed: chunks,
            differential_ok: true,
            mean_wire_ns,
            wall_ns: remote.wall_ns,
            throttled_updates: throttled,
            sessions_shed: shed,
        };
        writeln!(out, "{}", serde_json::to_string_pretty(&summary)?)?;
        return Ok(());
    }
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["listener".into(), addr.to_string()]);
    table.row(vec!["sessions".into(), args.sessions.to_string()]);
    table.row(vec![
        "chunks streamed".into(),
        format!("{chunks} × {} frames", args.chunk),
    ]);
    table.row(vec![
        "differential".into(),
        "ok: wire updates bit-identical to in-process replay".into(),
    ]);
    table.row(vec![
        "wire latency".into(),
        format!("{:.3}ms mean per chunk", mean_wire_ns / 1e6),
    ]);
    table.row(vec![
        "backpressure".into(),
        format!("{throttled} throttled updates, {shed} sessions shed"),
    ]);
    writeln!(out, "{}", table.render())?;
    if reference.telemetry.is_some() {
        if let Some(path) = &args.prom_out {
            writeln!(out, "wrote Prometheus metrics to {path}")?;
        }
        if let Some(path) = &args.timeseries_out {
            writeln!(out, "wrote telemetry time-series to {path}")?;
        }
    }
    Ok(())
}

/// Holds every wire update to the in-process replay's in (session, chunk)
/// order, then each unshed session's final update to its drained report,
/// and fails on the first that differs by a single bit. A shed session
/// has no in-process counterpart to its final (the server closed it
/// early).
fn check_wire_differential(
    reference: &subset3d_serve::ReplayOutcome,
    remote: &subset3d_serve::RemoteReplay,
) -> Result<(), CliError> {
    for (session_idx, (wire, expected)) in remote.updates.iter().zip(&reference.updates).enumerate()
    {
        for (chunk_idx, (got, expected)) in wire.iter().zip(expected).enumerate() {
            if !bit_identical(&got.update, expected) {
                return Err(CliError::Differential(format!(
                    "session {session_idx} chunk {chunk_idx}: wire update {:?} \
                     != in-process update {expected:?} (the listener must be launched \
                     with the same --backend/--threshold/--capacity flags)",
                    got.update
                )));
            }
        }
        let shed = wire
            .last()
            .is_some_and(|u| u.pressure == subset3d_serve::Pressure::Shed);
        let final_update = &remote.finals[session_idx];
        let expected_final = &reference.reports[session_idx].final_update;
        if !shed && !bit_identical(final_update, expected_final) {
            return Err(CliError::Differential(format!(
                "session {session_idx} final update diverged: \
                 wire {final_update:?} != in-process {expected_final:?}"
            )));
        }
    }
    Ok(())
}

/// Whether two updates agree bit for bit: `to_bits` on the floats, where
/// `==` would take `-0.0` for `0.0`, and `==` on everything else.
fn bit_identical(a: &subset3d_serve::SubsetUpdate, b: &subset3d_serve::SubsetUpdate) -> bool {
    use subset3d_serve::SubsetUpdate;
    let floats = |u: &SubsetUpdate| {
        [u.mean_prediction_error, u.mean_efficiency, u.error_bound].map(f64::to_bits)
    };
    let rest = |u: &SubsetUpdate| SubsetUpdate {
        mean_prediction_error: 0.0,
        mean_efficiency: 0.0,
        error_bound: 0.0,
        ..u.clone()
    };
    floats(a) == floats(b) && rest(a) == rest(b)
}

/// Machine-readable digest of a `serve --connect` run.
#[derive(serde::Serialize)]
struct NetReplaySummary {
    addr: String,
    sessions: usize,
    chunk_frames: usize,
    chunks_streamed: usize,
    differential_ok: bool,
    mean_wire_ns: f64,
    wall_ns: u64,
    throttled_updates: u64,
    sessions_shed: u64,
}

fn run_serve(args: &ServeArgs, out: &mut dyn Write) -> Result<(), CliError> {
    if let Some(addr) = &args.listen {
        return run_serve_listen(args, addr, out);
    }
    if let Some(addr) = &args.connect {
        return run_serve_connect(args, addr, out);
    }
    let workload = load(args.replay.as_deref().expect("parser requires --replay"))?;
    let config = serve_config(args);
    let options = subset3d_serve::ReplayOptions {
        sessions: args.sessions,
        chunk_frames: args.chunk,
        telemetry: telemetry_options(args),
    };
    let outcome = subset3d_serve::replay(&workload, &config, &options)?;
    let summary = outcome.summary();
    if let Some(report) = &outcome.telemetry {
        if let Some(path) = &args.prom_out {
            std::fs::write(path, subset3d_obs::to_prometheus(&report.final_snapshot))?;
        }
        if let Some(path) = &args.timeseries_out {
            std::fs::write(path, subset3d_obs::timeseries_to_jsonl(&report.windows))?;
        }
    }
    if args.json {
        writeln!(out, "{}", serde_json::to_string_pretty(&summary)?)?;
        return Ok(());
    }
    let update = &summary.final_update;
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["sessions".into(), summary.sessions.to_string()]);
    table.row(vec![
        "chunk size".into(),
        format!("{} frames", summary.chunk_frames),
    ]);
    table.row(vec![
        "stream".into(),
        format!(
            "{} frames/session in {} chunks",
            summary.frames_per_session, summary.chunks_per_session
        ),
    ]);
    table.row(vec![
        "throughput".into(),
        format!(
            "{:.0} frames/s, {:.1} sessions/s",
            summary.frames_per_sec, summary.sessions_per_sec
        ),
    ]);
    table.row(vec![
        "ingest latency".into(),
        format!("{:.3}ms mean", summary.mean_ingest_ns / 1e6),
    ]);
    table.row(vec!["clusters".into(), update.cluster_count.to_string()]);
    table.row(vec![
        "representative frames".into(),
        format!(
            "{:?}",
            update
                .representative_frames
                .iter()
                .take(12)
                .collect::<Vec<_>>()
        ),
    ]);
    table.row(vec![
        "prediction error".into(),
        format!("{:.2}%", update.mean_prediction_error * 100.0),
    ]);
    table.row(vec![
        "error bound".into(),
        format!("{:.2}%", update.error_bound * 100.0),
    ]);
    table.row(vec![
        "reservoir".into(),
        format!(
            "{}/{} frames retained",
            update.reservoir_occupancy, update.reservoir_capacity
        ),
    ]);
    if let Some(report) = &outcome.telemetry {
        table.row(vec![
            "telemetry".into(),
            format!(
                "{} windows sampled ({} dropped)",
                report.windows.len(),
                report.dropped
            ),
        ]);
        if let Some(slo) = report.slo {
            table.row(vec![
                "slo".into(),
                format!(
                    "{}: worst p99 {:.3}ms vs {:.3}ms budget ({}/{} windows over)",
                    if slo.breached { "BREACHED" } else { "ok" },
                    slo.worst_p99_ns as f64 / 1e6,
                    slo.budget_ns as f64 / 1e6,
                    slo.violations,
                    slo.windows_evaluated
                ),
            ]);
        }
    }
    writeln!(out, "{}", table.render())?;
    if outcome.telemetry.is_some() {
        if let Some(path) = &args.prom_out {
            writeln!(out, "wrote Prometheus metrics to {path}")?;
        }
        if let Some(path) = &args.timeseries_out {
            writeln!(out, "wrote telemetry time-series to {path}")?;
        }
    }
    Ok(())
}

/// Validates a Chrome trace-event JSON file against the exporter's own
/// schema check and prints the event counts.
fn run_trace_validate(path: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let json = std::fs::read_to_string(path)?;
    let stats = subset3d_obs::validate_chrome(&json).map_err(CliError::Trace)?;
    writeln!(
        out,
        "{path} is a valid Chrome trace: {} events ({} spans, {} instants, {} flows) on {} threads",
        stats.events, stats.spans, stats.instants, stats.flows, stats.threads
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn temp_path(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("subset3d-cli-test-{name}-{}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn run(parts: &[&str]) -> Result<String, CliError> {
        let command = parse_args(parts.iter().copied()).expect("parse");
        let mut out = Vec::new();
        run_command(&command, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn help_prints_usage() {
        let text = run(&["help"]).unwrap();
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn gen_info_subset_sweep_roundtrip() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = temp_path("roundtrip");
        let text = run(&[
            "gen", "--out", &path, "--frames", "12", "--draws", "60", "--seed", "5",
        ])
        .unwrap();
        assert!(text.contains("12 frames"));

        let info = run(&["info", &path]).unwrap();
        assert!(info.contains("well-formed"));
        assert!(info.contains("cli-game"));

        let subset = run(&["subset", &path, "--interval", "4"]).unwrap();
        assert!(subset.contains("clustering efficiency"));
        assert!(subset.contains("% of parent"));

        let sweep = run(&["sweep", &path, "--interval", "4"]).unwrap();
        assert!(sweep.contains("correlation"));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn subset_runs_every_backend() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = temp_path("backends");
        run(&[
            "gen", "--out", &path, "--frames", "8", "--draws", "40", "--seed", "3",
        ])
        .unwrap();
        for backend in Backend::ALL {
            let text = run(&[
                "subset",
                &path,
                "--interval",
                "4",
                "--backend",
                backend.name(),
            ])
            .unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
            assert!(
                text.contains("clustering efficiency"),
                "{} produced no report",
                backend.name()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn subset_export_and_rank_roundtrip() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("rank-trace");
        let subset = temp_path("rank-subset");
        run(&[
            "gen", "--out", &trace, "--frames", "10", "--draws", "50", "--seed", "8",
        ])
        .unwrap();
        let text = run(&["subset", &trace, "--interval", "4", "--out-subset", &subset]).unwrap();
        assert!(text.contains("wrote subset"));
        let rank = run(&["rank", &trace, &subset]).unwrap();
        assert!(rank.contains("rank agreement"));
        assert!(rank.contains("baseline"));
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&subset).ok();
    }

    #[test]
    fn rank_rejects_mismatched_subset() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace_a = temp_path("mismatch-a");
        let trace_b = temp_path("mismatch-b");
        let subset = temp_path("mismatch-subset");
        run(&[
            "gen", "--out", &trace_a, "--frames", "10", "--draws", "50", "--seed", "1",
        ])
        .unwrap();
        run(&[
            "gen", "--out", &trace_b, "--frames", "4", "--draws", "10", "--seed", "2",
        ])
        .unwrap();
        run(&[
            "subset",
            &trace_a,
            "--interval",
            "4",
            "--out-subset",
            &subset,
        ])
        .unwrap();
        let err = run(&["rank", &trace_b, &subset]).unwrap_err();
        assert!(matches!(err, CliError::Pipeline(_)));
        for p in [&trace_a, &trace_b, &subset] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn subset_json_mode_emits_parseable_summary() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("json-trace");
        run(&[
            "gen", "--out", &trace, "--frames", "8", "--draws", "40", "--seed", "4",
        ])
        .unwrap();
        let text = run(&["subset", &trace, "--interval", "4", "--json"]).unwrap();
        let summary: subset3d_core::OutcomeSummary =
            serde_json::from_str(&text).expect("valid JSON summary");
        assert_eq!(summary.frames, 8);
        assert!(summary.subset_fraction > 0.0);
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn merge_combines_traces() {
        let a = temp_path("merge-a");
        let b = temp_path("merge-b");
        let s = temp_path("merge-suite");
        run(&[
            "gen", "--out", &a, "--frames", "3", "--draws", "15", "--seed", "1",
        ])
        .unwrap();
        run(&[
            "gen", "--out", &b, "--frames", "2", "--draws", "15", "--seed", "2",
        ])
        .unwrap();
        let text = run(&["merge", "--out", &s, &a, &b]).unwrap();
        assert!(text.contains("5 frames"));
        let info = run(&["info", &s]).unwrap();
        assert!(info.contains("well-formed"));
        for p in [&a, &b, &s] {
            std::fs::remove_file(p).ok();
        }
    }

    // Metric and trace recording are process-global, so tests that
    // enable either must not interleave with any test that runs a
    // pipeline (its events would pollute the active trace).
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Splits instrumented output at the `metrics:` marker and parses
    /// the JSON tail back into a snapshot.
    fn split_metrics(text: &str) -> (String, subset3d_obs::MetricsSnapshot) {
        let (head, tail) = text.split_once("\nmetrics:\n").expect("metrics marker");
        let snapshot = serde_json::from_str(tail).expect("snapshot JSON parses");
        (head.to_string(), snapshot)
    }

    #[test]
    fn subset_metrics_snapshot_round_trips() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("metrics-trace");
        run(&[
            "gen", "--out", &trace, "--frames", "8", "--draws", "40", "--seed", "4",
        ])
        .unwrap();
        let text = run(&["subset", &trace, "--interval", "4", "--metrics"]).unwrap();
        let (head, snapshot) = split_metrics(&text);
        assert!(head.contains("clustering efficiency"), "normal output kept");
        assert!(snapshot.enabled);
        assert!(
            snapshot
                .histograms
                .get("cluster.threshold.fit_ns")
                .is_some_and(|h| h.count > 0),
            "an instrumented run must observe clustering: {snapshot:?}"
        );
        assert!(
            snapshot.histograms.contains_key("pipeline.total_ns"),
            "stage timing missing"
        );

        // And with `--json` both documents parse independently.
        let text = run(&["subset", &trace, "--interval", "4", "--json", "--metrics"]).unwrap();
        let (head, _snapshot) = split_metrics(&text);
        let _summary: subset3d_core::OutcomeSummary =
            serde_json::from_str(&head).expect("summary JSON parses");

        // A plain run stays free of the marker.
        let text = run(&["subset", &trace, "--interval", "4"]).unwrap();
        assert!(!text.contains("metrics:"));
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn stats_reports_warm_cache_hits() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("stats-trace");
        run(&[
            "gen", "--out", &trace, "--frames", "6", "--draws", "30", "--seed", "9",
        ])
        .unwrap();
        let text = run(&["stats", &trace, "--json"]).unwrap();
        let snapshot: subset3d_obs::MetricsSnapshot =
            serde_json::from_str(&text).expect("pure snapshot JSON");
        assert!(
            snapshot.counter("gpusim.batch_cache.hits").unwrap_or(0) > 0,
            "iterated sweep must hit the batch cache: {snapshot:?}"
        );

        let table = run(&["stats", &trace]).unwrap();
        assert!(table.contains("gpusim.batch_cache.hits"));
        assert!(table.contains("pipeline.total_ns"));
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn trace_profile_emits_valid_chrome_trace() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("profile-trace");
        let out_json = temp_path("profile-chrome");
        run(&[
            "gen", "--out", &trace, "--frames", "8", "--draws", "40", "--seed", "3",
        ])
        .unwrap();
        let text = run(&[
            "trace-profile",
            &trace,
            "--interval",
            "4",
            "--trace-out",
            &out_json,
        ])
        .unwrap();
        assert!(text.contains("self %"), "self-time table missing: {text}");
        assert!(text.contains("pipeline.clustering"));
        assert!(text.contains("ui.perfetto.dev"));

        let verdict = run(&["trace-validate", &out_json]).unwrap();
        assert!(verdict.contains("valid Chrome trace"), "{verdict}");

        // All five pipeline stages must appear as spans.
        let json = std::fs::read_to_string(&out_json).unwrap();
        for stage in [
            "pipeline.feature_extraction",
            "pipeline.clustering",
            "pipeline.evaluation",
            "pipeline.phase_detection",
            "pipeline.subset_build",
        ] {
            assert!(json.contains(stage), "stage {stage} missing from trace");
        }
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&out_json).ok();
    }

    #[test]
    fn subset_trace_out_writes_validating_trace() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("traceout-trace");
        let out_json = temp_path("traceout-chrome");
        run(&[
            "gen", "--out", &trace, "--frames", "6", "--draws", "30", "--seed", "7",
        ])
        .unwrap();
        let text = run(&[
            "subset",
            &trace,
            "--interval",
            "4",
            "--trace-out",
            &out_json,
        ])
        .unwrap();
        assert!(text.contains("clustering efficiency"), "normal output kept");
        assert!(text.contains("wrote Chrome trace"));
        let json = std::fs::read_to_string(&out_json).unwrap();
        subset3d_obs::validate_chrome(&json).expect("emitted trace validates");
        assert!(
            !subset3d_obs::trace_enabled(),
            "tracing must stop with the command"
        );
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&out_json).ok();
    }

    #[test]
    fn serve_replays_a_recorded_trace() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("serve-trace");
        run(&[
            "gen", "--out", &trace, "--frames", "10", "--draws", "40", "--seed", "6",
        ])
        .unwrap();
        let text = run(&[
            "serve",
            "--replay",
            &trace,
            "--chunk",
            "3",
            "--sessions",
            "2",
        ])
        .unwrap();
        assert!(text.contains("throughput"), "{text}");
        assert!(text.contains("frames/session in 4 chunks"), "{text}");
        assert!(text.contains("reservoir"), "{text}");

        let json = run(&[
            "serve",
            "--replay",
            &trace,
            "--chunk",
            "4",
            "--sessions",
            "1",
            "--json",
        ])
        .unwrap();
        let summary: subset3d_serve::ReplaySummary =
            serde_json::from_str(&json).expect("valid serve JSON summary");
        assert_eq!(summary.frames_per_session, 10);
        assert_eq!(summary.chunks_per_session, 3);
        assert_eq!(summary.final_update.frames_seen, 10);
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn serve_trace_out_writes_validating_trace() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("serve-traceout");
        let out_json = temp_path("serve-chrome");
        run(&[
            "gen", "--out", &trace, "--frames", "8", "--draws", "30", "--seed", "1",
        ])
        .unwrap();
        let text = run(&[
            "serve",
            "--replay",
            &trace,
            "--chunk",
            "3",
            "--trace-out",
            &out_json,
        ])
        .unwrap();
        assert!(text.contains("wrote Chrome trace"));
        let json = std::fs::read_to_string(&out_json).unwrap();
        // Every frame.link flow the per-frame clustering starts must be
        // completed by the session's simulate step.
        subset3d_obs::validate_chrome(&json).expect("serve trace validates");
        assert!(json.contains("serve.ingest"));
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&out_json).ok();
    }

    #[test]
    fn serve_reservoir_capacity_is_respected() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("serve-capacity");
        run(&[
            "gen", "--out", &trace, "--frames", "9", "--draws", "30", "--seed", "2",
        ])
        .unwrap();
        let json = run(&[
            "serve",
            "--replay",
            &trace,
            "--chunk",
            "2",
            "--capacity",
            "4",
            "--json",
        ])
        .unwrap();
        let summary: subset3d_serve::ReplaySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(summary.final_update.reservoir_capacity, 4);
        assert_eq!(summary.final_update.reservoir_occupancy, 4);
        assert_eq!(summary.final_update.frames_seen, 9);
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn serve_telemetry_exports_and_flags_an_impossible_slo() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("serve-telemetry");
        let prom = temp_path("serve-telemetry-prom");
        let jsonl = temp_path("serve-telemetry-jsonl");
        run(&[
            "gen", "--out", &trace, "--frames", "10", "--draws", "40", "--seed", "11",
        ])
        .unwrap();
        // Interval zero samples every chunk round; a 1ns budget cannot
        // be met, so the watchdog must flag the run.
        let text = run(&[
            "serve",
            "--replay",
            &trace,
            "--chunk",
            "3",
            "--sessions",
            "2",
            "--telemetry-interval",
            "0ms",
            "--slo-budget",
            "1ns",
            "--prom-out",
            &prom,
            "--timeseries-out",
            &jsonl,
        ])
        .unwrap();
        assert!(text.contains("windows sampled"), "{text}");
        assert!(text.contains("BREACHED"), "{text}");
        assert!(text.contains("wrote Prometheus metrics"), "{text}");
        assert!(text.contains("wrote telemetry time-series"), "{text}");

        let verdict = run(&["telemetry-validate", &prom]).unwrap();
        assert!(verdict.contains("valid Prometheus exposition"), "{verdict}");
        assert!(verdict.contains("histogram series"), "{verdict}");
        let verdict = run(&["telemetry-validate", &jsonl]).unwrap();
        assert!(verdict.contains("valid telemetry time-series"), "{verdict}");

        // The exported exposition must carry the per-session families.
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        assert!(
            prom_text.contains("serve_session_ingest_ns_bucket{session="),
            "per-session histogram missing:\n{prom_text}"
        );
        for p in [&trace, &prom, &jsonl] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_json_summary_includes_telemetry_and_slo() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("serve-telemetry-json");
        run(&[
            "gen", "--out", &trace, "--frames", "8", "--draws", "30", "--seed", "12",
        ])
        .unwrap();
        let json = run(&[
            "serve",
            "--replay",
            &trace,
            "--chunk",
            "2",
            "--telemetry-interval",
            "0ms",
            "--json",
        ])
        .unwrap();
        let summary: subset3d_serve::ReplaySummary =
            serde_json::from_str(&json).expect("valid serve JSON summary");
        assert!(summary.telemetry_windows > 0);
        let slo = summary.slo.expect("slo defaults on with telemetry");
        assert_eq!(slo.budget_ns, 0, "budget defaults to the 0ms interval");
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn serve_connect_differential_matches_a_loopback_listener() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("serve-connect");
        run(&[
            "gen", "--out", &trace, "--frames", "10", "--draws", "40", "--seed", "21",
        ])
        .unwrap();
        // A listener configured exactly as the default serve flags
        // configure their in-process reference.
        let listen_args = match parse_args(["serve", "--listen", "127.0.0.1:0"]).unwrap() {
            Command::Serve(a) => a,
            _ => unreachable!(),
        };
        let server = subset3d_serve::NetServer::bind(
            "127.0.0.1:0",
            subset3d_serve::NetServerConfig {
                serve: serve_config(&listen_args),
                ..Default::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let addr = server.addr().to_string();

        let json = run(&[
            "serve",
            "--connect",
            &addr,
            "--replay",
            &trace,
            "--chunk",
            "3",
            "--sessions",
            "2",
            "--json",
        ])
        .unwrap();
        let summary: serde_json::Value = serde_json::from_str(&json).unwrap();
        let num = |key: &str| match summary.get(key) {
            Some(serde_json::Value::Int(i)) => *i as u64,
            Some(serde_json::Value::UInt(u)) => *u,
            other => panic!("field {key} missing or non-numeric: {other:?}"),
        };
        assert_eq!(
            summary.get("differential_ok"),
            Some(&serde_json::Value::Bool(true))
        );
        assert_eq!(num("sessions"), 2);
        assert_eq!(num("chunks_streamed"), 8);

        let text = run(&[
            "serve",
            "--connect",
            &addr,
            "--replay",
            &trace,
            "--chunk",
            "5",
        ])
        .unwrap();
        assert!(text.contains("bit-identical"), "{text}");
        server.stop();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn serve_connect_flags_a_misconfigured_listener() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("serve-connect-mismatch");
        run(&[
            "gen", "--out", &trace, "--frames", "10", "--draws", "40", "--seed", "22",
        ])
        .unwrap();
        // A listener with a tiny reservoir diverges from a client whose
        // in-process reference uses the default capacity.
        let server = subset3d_serve::NetServer::bind(
            "127.0.0.1:0",
            subset3d_serve::NetServerConfig {
                serve: subset3d_serve::ServeConfig {
                    reservoir_capacity: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let addr = server.addr().to_string();
        let err = run(&[
            "serve",
            "--connect",
            &addr,
            "--replay",
            &trace,
            "--chunk",
            "4",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Differential(_)), "got {err:?}");
        server.stop();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn wire_differential_compares_floats_by_bit_pattern() {
        let update = subset3d_serve::SubsetUpdate {
            chunks_ingested: 2,
            frames_seen: 8,
            draws_seen: 320,
            cluster_count: 3,
            representative_frames: vec![0, 4, 7],
            mean_prediction_error: 0.011,
            mean_efficiency: 0.66,
            error_bound: 0.0,
            reservoir_occupancy: 8,
            reservoir_capacity: 4096,
        };
        assert!(bit_identical(&update, &update.clone()));
        let negated = subset3d_serve::SubsetUpdate {
            error_bound: -0.0,
            ..update.clone()
        };
        assert_eq!(update, negated, "`==` takes -0.0 for 0.0");
        assert!(!bit_identical(&update, &negated));
    }

    #[test]
    fn serve_listen_rejects_an_unbindable_address() {
        let err = run(&["serve", "--listen", "256.0.0.1:0"]).unwrap_err();
        assert!(
            matches!(err, CliError::Serve(subset3d_serve::ServeError::Io { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn telemetry_validate_rejects_garbage() {
        let path = temp_path("telemetry-garbage");
        std::fs::write(&path, "metric{unclosed 1\n").unwrap();
        let err = run(&["telemetry-validate", &path]).unwrap_err();
        assert!(matches!(err, CliError::Telemetry(_)), "got {err:?}");
        std::fs::write(&path, "").unwrap();
        let err = run(&["telemetry-validate", &path]).unwrap_err();
        assert!(matches!(err, CliError::Telemetry(_)), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_watch_renders_live_ticks() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace = temp_path("stats-watch");
        run(&[
            "gen", "--out", &trace, "--frames", "5", "--draws", "25", "--seed", "13",
        ])
        .unwrap();
        let text = run(&[
            "stats",
            &trace,
            "--watch",
            "--iterations",
            "2",
            "--interval",
            "0ms",
        ])
        .unwrap();
        assert!(text.contains("watch tick 0"), "{text}");
        assert!(text.contains("watch tick 1"), "{text}");
        assert!(text.contains("p99 (rolling)"), "{text}");
        assert!(
            !text.contains('\x1b'),
            "zero interval must not clear the screen"
        );
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn trace_profile_merges_multiple_sources() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = temp_path("profile-multi-a");
        let b = temp_path("profile-multi-b");
        run(&[
            "gen", "--out", &a, "--frames", "6", "--draws", "30", "--seed", "14",
        ])
        .unwrap();
        run(&[
            "gen", "--out", &b, "--frames", "4", "--draws", "20", "--seed", "15",
        ])
        .unwrap();
        let text = run(&[
            "trace-profile",
            "--trace",
            &a,
            "--trace",
            &b,
            "--interval",
            "3",
        ])
        .unwrap();
        assert!(text.contains("self ms [0]"), "{text}");
        assert!(text.contains("self ms [1]"), "{text}");
        assert!(text.contains("sources:"), "{text}");
        assert!(text.contains(&a) && text.contains(&b), "{text}");
        assert!(text.contains("pipeline.clustering"), "{text}");
        // Each source still gets its own Chrome trace by default.
        for p in [&a, &b] {
            let chrome = format!("{p}.trace.json");
            let json = std::fs::read_to_string(&chrome)
                .unwrap_or_else(|e| panic!("missing {chrome}: {e}"));
            subset3d_obs::validate_chrome(&json).expect("per-source trace validates");
            std::fs::remove_file(&chrome).ok();
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn trace_validate_rejects_non_trace_json() {
        let path = temp_path("invalid-chrome");
        std::fs::write(&path, r#"{"notTraceEvents": []}"#).unwrap();
        let err = run(&["trace-validate", &path]).unwrap_err();
        assert!(matches!(err, CliError::Trace(_)), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn info_on_garbage_fails_cleanly() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"not a trace").unwrap();
        let err = run(&["info", &path]).unwrap_err();
        assert!(matches!(err, CliError::Decode(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = run(&["info", "/definitely/not/here.trace"]).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
