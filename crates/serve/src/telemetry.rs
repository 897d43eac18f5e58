//! Replay telemetry options and the SLO watchdog.
//!
//! When [`ReplayOptions::telemetry`](crate::ReplayOptions) is set, the
//! replay driver samples the metric registry once per chunk round
//! (interval-gated) plus a forced end-of-run sample, producing a
//! [`TelemetryReport`]: the window series, the final cumulative
//! snapshot, and — when an [`SloPolicy`] is configured — an
//! [`SloVerdict`].
//!
//! The watchdog evaluates each window's *rolling p99 ingest latency*
//! (global `serve.ingest_ns` plus every per-session
//! `serve.session.ingest_ns` cell) against the per-chunk budget. A
//! session whose p99 ingest exceeds the chunk cadence budget is falling
//! behind its stream — the exact signal a socket front-end needs to
//! apply backpressure or shed sessions. Violations also bump the
//! `serve.slo.violations` counter so they are visible in exported
//! metrics, not just in the summary.

use serde::{Deserialize, Serialize};
use subset3d_obs::timeseries::{SamplerConfig, TelemetryWindow};
use subset3d_obs::{LazyCounter, MetricsSnapshot};

static OBS_SLO_VIOLATIONS: LazyCounter = LazyCounter::new("serve.slo.violations");

/// The global ingest latency histogram's registry name.
const INGEST_HISTOGRAM: &str = "serve.ingest_ns";

/// The per-session ingest latency family's registry name.
const SESSION_INGEST_PREFIX: &str = "serve.session.ingest_ns{";

/// How a replay samples telemetry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryOptions {
    /// Sampling interval (zero samples every chunk round), ring capacity
    /// and rolling-digest span.
    pub sampler: SamplerConfig,
    /// Latency budget to hold rolling p99 ingest latency against; `None`
    /// disables the watchdog.
    pub slo: Option<SloPolicy>,
}

/// The watchdog's budget: rolling p99 ingest latency per chunk must stay
/// at or under this, or the window counts as a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Per-chunk ingest latency budget, nanoseconds. The natural choice
    /// is the stream's chunk cadence: ingests slower than the arrival
    /// interval mean the session is falling behind.
    pub budget_ns: u64,
}

/// End-of-run verdict of the SLO watchdog — the hook a network
/// front-end's backpressure consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloVerdict {
    /// The budget that was enforced, nanoseconds.
    pub budget_ns: u64,
    /// Windows in which ingest activity was evaluated.
    pub windows_evaluated: u64,
    /// Windows whose rolling p99 exceeded the budget.
    pub violations: u64,
    /// Worst rolling p99 observed in any evaluated window, nanoseconds.
    pub worst_p99_ns: u64,
    /// Whether any window violated the budget.
    pub breached: bool,
}

/// Evaluates windows against an [`SloPolicy`] as they are sampled.
#[derive(Debug)]
pub(crate) struct SloWatchdog {
    policy: SloPolicy,
    windows_evaluated: u64,
    violations: u64,
    worst_p99_ns: u64,
}

impl SloWatchdog {
    pub(crate) fn new(policy: SloPolicy) -> Self {
        SloWatchdog {
            policy,
            windows_evaluated: 0,
            violations: 0,
            worst_p99_ns: 0,
        }
    }

    /// Checks one window's rolling p99 ingest latency — the worst of the
    /// global histogram and every per-session cell — against the budget.
    /// Windows with no ingest activity are not evaluated.
    pub(crate) fn observe(&mut self, window: &TelemetryWindow) {
        let p99 = window
            .rolling
            .iter()
            .filter(|(key, _)| {
                key.as_str() == INGEST_HISTOGRAM || key.starts_with(SESSION_INGEST_PREFIX)
            })
            .map(|(_, digest)| digest.p99_ns)
            .max();
        if let Some(p99) = p99 {
            self.judge(p99);
        }
    }

    /// Counts one evaluated rolling p99 ingest latency against the
    /// budget — the step [`SloWatchdog::observe`] takes per window, and
    /// the one a net connection's backpressure takes per cut.
    pub(crate) fn judge(&mut self, p99_ns: u64) {
        self.windows_evaluated += 1;
        self.worst_p99_ns = self.worst_p99_ns.max(p99_ns);
        if p99_ns > self.policy.budget_ns {
            self.violations += 1;
            OBS_SLO_VIOLATIONS.incr();
        }
    }

    pub(crate) fn verdict(&self) -> SloVerdict {
        SloVerdict {
            budget_ns: self.policy.budget_ns,
            windows_evaluated: self.windows_evaluated,
            violations: self.violations,
            worst_p99_ns: self.worst_p99_ns,
            breached: self.violations > 0,
        }
    }
}

/// Everything a telemetry-enabled replay captured.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// The sampled windows, oldest first (ring-capped).
    pub windows: Vec<TelemetryWindow>,
    /// Windows evicted from the ring during the run.
    pub dropped: u64,
    /// The watchdog's verdict, when an SLO was configured.
    pub slo: Option<SloVerdict>,
    /// Cumulative metric values at the end of the run — what the
    /// Prometheus exporter renders.
    pub final_snapshot: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use subset3d_obs::timeseries::RollingDigest;

    fn window_with(key: &str, p99_ns: u64) -> TelemetryWindow {
        let digest = RollingDigest {
            windows: 1,
            count: 10,
            p50_ns: p99_ns / 4,
            p90_ns: p99_ns / 2,
            p99_ns,
        };
        TelemetryWindow {
            rolling: BTreeMap::from([(key.to_owned(), digest)]),
            ..TelemetryWindow::default()
        }
    }

    #[test]
    fn watchdog_flags_only_over_budget_windows() {
        let mut dog = SloWatchdog::new(SloPolicy { budget_ns: 1_000 });
        dog.observe(&window_with("serve.ingest_ns", 500));
        dog.observe(&window_with("serve.ingest_ns", 2_000));
        dog.observe(&window_with(
            "serve.session.ingest_ns{session=\"session-3\"}",
            4_000,
        ));
        dog.observe(&window_with("unrelated.hist_ns", 9_999));
        dog.observe(&TelemetryWindow::default()); // idle window: skipped
        let verdict = dog.verdict();
        assert_eq!(verdict.windows_evaluated, 3);
        assert_eq!(verdict.violations, 2);
        assert_eq!(verdict.worst_p99_ns, 4_000);
        assert!(verdict.breached);
    }

    #[test]
    fn verdict_round_trips_through_json() {
        let mut dog = SloWatchdog::new(SloPolicy { budget_ns: 10 });
        dog.observe(&window_with("serve.ingest_ns", 50));
        let verdict = dog.verdict();
        let json = serde_json::to_string(&verdict).unwrap();
        let back: SloVerdict = serde_json::from_str(&json).unwrap();
        assert_eq!(back, verdict);
    }
}
