//! End-to-end and per-layer benchmark of the subset3d workspace.
//!
//! Three workloads replay the paths users run — batch
//! `Subsetter::run` over the corpus (`batch_subset`), the pathfinding
//! sweep (`pathfinding_sweep`) and loopback streaming into a
//! `NetServer` (`serve_stream`) — check their outputs, and report every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run). `README.md` in this directory explains the choices.

mod batch;
pub mod inputs;
mod ledger;
pub mod report;
mod serve;
mod stats;
mod sweep;

use inputs::Sizes;
use report::Outcome;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Default-config `Subsetter::run` over the six-title corpus.
    BatchSubset,
    /// Repeated `SweepSession` sweeps of the corpus plus subset replays.
    PathfindingSweep,
    /// Two closed-loop clients streaming into a loopback `NetServer`.
    ServeStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchSubset,
        Workload::PathfindingSweep,
        Workload::ServeStream,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchSubset => "batch_subset",
            Workload::PathfindingSweep => "pathfinding_sweep",
            Workload::ServeStream => "serve_stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Minimum measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// Runs one workload; returns its outcome and, traced, the Chrome
/// trace-event JSON of its spans.
pub fn run(run: &Run) -> (Outcome, Option<String>) {
    let mut out = Outcome::default();
    let chrome_trace = match run.workload {
        Workload::BatchSubset => batch::run(run, &mut out),
        Workload::PathfindingSweep => sweep::run(run, &mut out),
        Workload::ServeStream => serve::run(run, &mut out),
    };
    out.set("exec.threads", subset3d_exec::thread_count() as f64);
    if run.trace {
        // Layers this workload never calls read zero.
        for (name, _) in report::PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
    }
    if !out.metrics.contains_key("peak_rss_mib") {
        record_peak_rss(&mut out);
    }
    let attempted = out.attempted.max(1) as f64;
    out.set(
        "ok_pct",
        (attempted - out.failed as f64) / attempted * 100.0,
    );
    (out, chrome_trace)
}

/// Records `peak_rss_mib`, the process's peak resident set so far.
pub(crate) fn record_peak_rss(out: &mut Outcome) {
    let rss = report::peak_rss_mib();
    out.check("peak RSS is readable", rss.is_some());
    out.set("peak_rss_mib", rss.unwrap_or(0.0));
}

/// Milliseconds in a duration.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether a measuring loop that started at `start` may stop.
pub(crate) fn done(start: Instant, seconds: f64, samples: usize, min_samples: usize) -> bool {
    start.elapsed().as_secs_f64() >= seconds && samples >= min_samples
}

/// Calls `once` [`Sizes::setups`] times and until
/// [`Sizes::setup_seconds`] have passed.
pub(crate) fn repeat_setup(sizes: &Sizes, mut once: impl FnMut()) {
    let start = Instant::now();
    let mut count = 0;
    while !done(start, sizes.setup_seconds, count, sizes.setups.max(1)) {
        once();
        count += 1;
    }
}

/// Tracing overhead in percent: the median of `traced / untraced − 1`
/// over the ops of adjacent (untraced, traced) passes, paired by position.
/// The two kinds of pass alternate, so pairing cancels the host's drift
/// between them, and pairing single ops gives many ratios.
pub(crate) fn overhead_pct(untraced: &[Vec<f64>], traced: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .flat_map(|(u, t)| u.iter().zip(t))
        .filter(|(u, _)| **u > 0.0)
        .map(|(u, t)| t / u)
        .collect();
    stats::median(&ratios).map_or(0.0, |r| (r - 1.0) * 100.0)
}

/// Percent of `part` in `whole`, zero for an empty whole.
pub(crate) fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_pairs_adjacent_ops() {
        // The host slows 2× between the first and second pair of passes;
        // each traced op is 10 % over its untraced partner, which the
        // median of pair ratios keeps. An unpaired pass is ignored.
        let untraced = [vec![10.0, 30.0], vec![20.0, 60.0], vec![20.0, 60.0]];
        let traced = [vec![11.0, 33.0], vec![22.0, 66.0]];
        assert!((overhead_pct(&untraced, &traced) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&[], &[]), 0.0);
    }
}
