//! Compares two pipeline benchmark reports and flags regressions.
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json> [--threshold PCT] [--check]
//!            [--metric SUBSTR] [--max-overhead PCT] [--min-speedup RATIO]
//! ```
//!
//! Both files are reports `bench_report` wrote, so both sides of every
//! row were timed under one policy (best of three runs). Nothing is
//! measured here.
//!
//! Wall times are machine-dependent, so absolute milliseconds are shown
//! for context but regressions are judged on the dimensionless metrics:
//! scenario speedups (lower is worse) and the observability overheads
//! (metrics, tracing, telemetry sampling; higher is worse). The default
//! threshold is 10 %.
//!
//! A degenerate baseline (a stage too fast for the clock, recorded as a
//! `0.0` speedup) has no meaningful ratio; such rows show the absolute
//! delta in the metric's own units and are never judged as regressions.
//!
//! Relative rows compare like with like only: when the two reports ran
//! at different thread counts or on different workloads (`threads`,
//! `workload_draws`), every speedup and overhead delta reads
//! `unresolved (threads or workload differ)` and is judged neither way.
//! The two absolute checks below read the candidate alone, so they still
//! apply.
//!
//! `--max-overhead` adds an absolute budget on top of the relative
//! comparison: any candidate `*_overhead_pct` above the budget fails
//! even if the baseline was equally bad. Every overhead row also shows
//! the candidate's interquartile range of paired readings; a row whose
//! IQR is wider than the budget is marked `unresolved` and judged
//! neither way, since its median cannot tell a regression from noise.
//!
//! `--min-speedup` is an absolute floor on the candidate's scenario
//! speedups: any selected speedup row below the floor fails **even
//! under `--check`** — a floor violation means the optimization itself
//! stopped winning, which is never just noise worth waving through.
//!
//! Exit status is non-zero when any regression exceeds the threshold,
//! unless `--check` (report-only dry-run for CI) is given; floor
//! violations fail regardless.

use std::process::ExitCode;
use subset3d_bench::report::Report;

/// Allowed relative regression before the diff fails, in percent.
const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

const USAGE: &str = "\
usage: bench_diff <baseline.json> <candidate.json> [--threshold PCT] [--check]
                  [--metric SUBSTR] [--max-overhead PCT] [--min-speedup RATIO]

  Compares two BENCH_pipeline.json reports written by bench_report.
  Relative rows are judged only between reports of one thread count and
  workload; the absolute budget and floor always apply.
  --threshold PCT      allowed regression on speedups/overheads (default 10)
  --metric SUBSTR      judge only metrics whose name contains SUBSTR
  --max-overhead PCT   absolute budget: candidate *_overhead_pct above PCT fails
  --min-speedup RATIO  absolute floor: candidate speedup below RATIO fails
                       even under --check
  --check              report only; exit 0 unless a speedup floor is broken
";

struct Args {
    baseline: String,
    candidate: String,
    threshold_pct: f64,
    metric_filter: Option<String>,
    max_overhead_pct: Option<f64>,
    min_speedup: Option<f64>,
    check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut threshold_pct = DEFAULT_THRESHOLD_PCT;
    let mut metric_filter = None;
    let mut max_overhead_pct = None;
    let mut min_speedup = None;
    let mut check = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a value")?;
                threshold_pct = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --threshold value: {v}"))?;
                if !threshold_pct.is_finite() || threshold_pct < 0.0 {
                    return Err(format!("bad --threshold value: {v}"));
                }
            }
            "--metric" => {
                let v = it.next().ok_or("--metric needs a value")?;
                if v.is_empty() {
                    return Err("--metric needs a non-empty value".into());
                }
                metric_filter = Some(v.clone());
            }
            "--max-overhead" => {
                let v = it.next().ok_or("--max-overhead needs a value")?;
                let pct = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --max-overhead value: {v}"))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(format!("bad --max-overhead value: {v}"));
                }
                max_overhead_pct = Some(pct);
            }
            "--min-speedup" => {
                let v = it.next().ok_or("--min-speedup needs a value")?;
                let floor = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --min-speedup value: {v}"))?;
                if !floor.is_finite() || floor < 0.0 {
                    return Err(format!("bad --min-speedup value: {v}"));
                }
                min_speedup = Some(floor);
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            path => positional.push(path.to_string()),
        }
    }
    match <[String; 2]>::try_from(positional) {
        Ok([baseline, candidate]) => Ok(Args {
            baseline,
            candidate,
            threshold_pct,
            metric_filter,
            max_overhead_pct,
            min_speedup,
            check,
        }),
        Err(paths) => Err(format!("need two report files, got {}", paths.len())),
    }
}

fn load_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not a bench report: {e}"))
}

/// How a row's baseline/candidate pair compares.
enum Delta {
    /// Relative regression in percent (positive = worse); judged against
    /// the threshold.
    RelPct(f64),
    /// Overheads hover around zero, so a ratio is meaningless; absolute
    /// percentage-point delta (positive = worse), judged against the
    /// threshold directly.
    AbsPp(f64),
    /// Degenerate baseline (zero speedup = stage too fast to time): no
    /// ratio exists, so the absolute delta in the metric's own units is
    /// shown for context and the row is never judged.
    AbsUnjudged(f64),
    /// Non-finite input; nothing meaningful to show.
    NotComparable,
}

/// One compared metric. `higher_is_better` decides the regression
/// direction: speedups regress downward, overheads regress upward.
/// `cand_iqr` is an overhead's interquartile range of paired readings
/// on the candidate, in percentage points (`0.0` for speedups and for
/// reports predating the field).
struct Row {
    name: &'static str,
    base: f64,
    cand: f64,
    cand_iqr: f64,
    higher_is_better: bool,
}

impl Row {
    fn delta(&self) -> Delta {
        if !self.base.is_finite() || !self.cand.is_finite() {
            return Delta::NotComparable;
        }
        if self.higher_is_better {
            if self.base <= 0.0 {
                return Delta::AbsUnjudged(self.cand - self.base);
            }
            Delta::RelPct((self.base - self.cand) / self.base * 100.0)
        } else {
            Delta::AbsPp(self.cand.max(0.0) - self.base.max(0.0))
        }
    }

    fn is_overhead(&self) -> bool {
        !self.higher_is_better
    }

    fn is_speedup(&self) -> bool {
        self.higher_is_better
    }

    /// Whether this overhead's candidate readings spread wider than the
    /// budget it would be judged against.
    fn unresolved(&self, budget: Option<f64>) -> bool {
        self.is_overhead() && budget.is_some_and(|b| self.cand_iqr > b)
    }
}

/// Speedup rows whose candidate value sits below the absolute floor.
/// Judged separately from [`judge`] because floor violations are fatal
/// even under `--check`.
fn below_floor(rows: &[Row], floor: f64) -> Vec<(&'static str, String)> {
    rows.iter()
        .filter(|row| row.is_speedup() && row.cand.is_finite() && row.cand < floor)
        .map(|row| {
            (
                row.name,
                format!("{:.3} below absolute floor {floor:.3}", row.cand),
            )
        })
        .collect()
}

/// Whether two reports timed the same work on the same pool size, so
/// their speedups and overheads can be compared at all.
fn like_for_like(base: &Report, cand: &Report) -> bool {
    base.threads == cand.threads && base.workload_draws == cand.workload_draws
}

fn rows(base: &Report, cand: &Report) -> Vec<Row> {
    let speedups = [
        (
            "workload_sim.speedup",
            &base.workload_sim,
            &cand.workload_sim,
        ),
        (
            "iterated_sweep.speedup",
            &base.iterated_sweep,
            &cand.iterated_sweep,
        ),
        (
            "subsetting_pipeline.speedup",
            &base.subsetting_pipeline,
            &cand.subsetting_pipeline,
        ),
    ];
    let mut out: Vec<Row> = speedups
        .into_iter()
        .map(|(name, b, c)| Row {
            name,
            base: b.speedup,
            cand: c.speedup,
            cand_iqr: 0.0,
            higher_is_better: true,
        })
        .collect();
    out.push(Row {
        name: "metrics_overhead_pct",
        base: clamp_overhead(base.metrics_overhead_pct),
        cand: clamp_overhead(cand.metrics_overhead_pct),
        cand_iqr: cand.metrics_overhead_iqr_pct,
        higher_is_better: false,
    });
    out.push(Row {
        name: "trace_overhead_pct",
        base: clamp_overhead(base.trace_overhead_pct),
        cand: clamp_overhead(cand.trace_overhead_pct),
        cand_iqr: cand.trace_overhead_iqr_pct,
        higher_is_better: false,
    });
    out.push(Row {
        name: "telemetry_overhead_pct",
        base: clamp_overhead(base.telemetry_overhead_pct),
        cand: clamp_overhead(cand.telemetry_overhead_pct),
        cand_iqr: cand.telemetry_overhead_iqr_pct,
        higher_is_better: false,
    });
    out
}

/// Overheads are clamped at load: committed baselines predating the
/// at-rest clamp can carry a negative noise median, and a negative arm
/// would inflate the percentage-point delta and distort `--max-overhead`
/// budget checks. Cost below the clock floor is zero cost.
fn clamp_overhead(pct: f64) -> f64 {
    pct.max(0.0)
}

/// Regressions found when judging `rows` under the given policy.
/// Each entry is `(metric name, human-readable reason)`. Unresolved
/// overhead rows (see [`Row::unresolved`]) are judged neither way; when
/// the reports are not [`like_for_like`], no row is judged against its
/// baseline and only the absolute budget applies.
fn judge(
    rows: &[Row],
    threshold_pct: f64,
    max_overhead_pct: Option<f64>,
    like_for_like: bool,
) -> Vec<(&'static str, String)> {
    let mut regressions = Vec::new();
    for row in rows.iter().filter(|row| !row.unresolved(max_overhead_pct)) {
        match row.delta() {
            Delta::RelPct(d) | Delta::AbsPp(d) if like_for_like && d > threshold_pct => {
                regressions.push((row.name, format!("{d:.2} worse")));
            }
            _ => {}
        }
        if let Some(budget) = max_overhead_pct {
            if row.is_overhead() && row.cand.is_finite() && row.cand > budget {
                regressions.push((
                    row.name,
                    format!("{:.2}% exceeds absolute budget {budget:.2}%", row.cand),
                ));
            }
        }
    }
    regressions
}

fn context_ms(base: &Report, cand: &Report) -> Vec<(&'static str, f64, f64)> {
    vec![
        (
            "workload_sim.parallel_memoized",
            base.workload_sim.parallel_memoized.wall_ms,
            cand.workload_sim.parallel_memoized.wall_ms,
        ),
        (
            "iterated_sweep.parallel_memoized",
            base.iterated_sweep.parallel_memoized.wall_ms,
            cand.iterated_sweep.parallel_memoized.wall_ms,
        ),
        (
            "subsetting_pipeline.parallel_memoized",
            base.subsetting_pipeline.parallel_memoized.wall_ms,
            cand.subsetting_pipeline.parallel_memoized.wall_ms,
        ),
        ("oracle_check", base.oracle_check_ms, cand.oracle_check_ms),
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("bench_diff: {msg}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let (base, cand) = match (load_report(&args.baseline), load_report(&args.candidate)) {
        (Ok(base), Ok(cand)) => (base, cand),
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("bench_diff: {msg}");
            return ExitCode::from(2);
        }
    };
    println!(
        "bench_diff: {} vs {} (threshold {:.1}%{}{})",
        args.baseline,
        args.candidate,
        args.threshold_pct,
        match args.max_overhead_pct {
            Some(b) => format!(", overhead budget {b:.1}%"),
            None => String::new(),
        },
        if args.check { ", report only" } else { "" },
    );
    let like_for_like = like_for_like(&base, &cand);
    if !like_for_like {
        println!(
            "note: workload/threads differ ({} draws x{} vs {} draws x{}) — \
             relative rows are unresolved; the budget and floor still apply",
            base.workload_draws, base.threads, cand.workload_draws, cand.threads,
        );
    }

    let all_rows = rows(&base, &cand);
    let selected: Vec<Row> = match &args.metric_filter {
        Some(substr) => all_rows
            .into_iter()
            .filter(|r| r.name.contains(substr.as_str()))
            .collect(),
        None => all_rows,
    };
    if selected.is_empty() {
        eprintln!(
            "bench_diff: --metric {} matches no metrics",
            args.metric_filter.as_deref().unwrap_or(""),
        );
        return ExitCode::from(2);
    }

    let regressions = judge(
        &selected,
        args.threshold_pct,
        args.max_overhead_pct,
        like_for_like,
    );
    let floor_failures = match args.min_speedup {
        Some(floor) => below_floor(&selected, floor),
        None => Vec::new(),
    };

    println!(
        "\n{:<34} {:>12} {:>12} {:>10} {:>10}",
        "metric", "baseline", "candidate", "delta", "cand IQR"
    );
    for row in &selected {
        let regressed = regressions.iter().any(|(name, _)| *name == row.name);
        let iqr_text = if row.is_overhead() {
            format!("{:>8.2}pp", row.cand_iqr)
        } else {
            " ".repeat(10)
        };
        let relative = if regressed {
            "REGRESSED"
        } else if like_for_like {
            ""
        } else {
            "unresolved (threads or workload differ)"
        };
        let (delta_text, verdict) = match row.delta() {
            Delta::RelPct(d) => (format!("{d:>9.2}%"), relative),
            Delta::AbsPp(d) => (format!("{d:>9.2}pp"), relative),
            Delta::AbsUnjudged(d) => (format!("{d:>+9.3} abs"), "n/a (degenerate baseline)"),
            Delta::NotComparable => ("       n/a".to_string(), "n/a"),
        };
        let verdict = if row.unresolved(args.max_overhead_pct) {
            "unresolved (IQR wider than budget)"
        } else {
            verdict
        };
        println!(
            "{:<34} {:>12.3} {:>12.3} {} {} {}",
            row.name, row.base, row.cand, delta_text, iqr_text, verdict,
        );
    }
    println!("\nwall times (machine-dependent, for context):");
    for (name, b, c) in context_ms(&base, &cand) {
        println!("{name:<34} {b:>10.2}ms {c:>10.2}ms");
    }

    if !floor_failures.is_empty() {
        println!("\n{} speedup floor violation(s):", floor_failures.len());
        for (name, reason) in &floor_failures {
            println!("  {name}: {reason}");
        }
    }
    if regressions.is_empty() {
        println!("\nno regressions beyond {:.1}%", args.threshold_pct);
        return if floor_failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            // Floor violations are absolute: --check does not wave
            // them through.
            ExitCode::FAILURE
        };
    }
    println!(
        "\n{} regression(s) beyond {:.1}%:",
        regressions.len(),
        args.threshold_pct
    );
    for (name, reason) in &regressions {
        println!("  {name}: {reason}");
    }
    if !floor_failures.is_empty() {
        ExitCode::FAILURE
    } else if args.check {
        println!("--check: reporting only, exiting 0");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_metric_and_max_overhead_flags() {
        let args = parse_args(&strs(&[
            "base.json",
            "cand.json",
            "--metric",
            "overhead",
            "--max-overhead",
            "2",
            "--check",
        ]))
        .unwrap();
        assert_eq!(args.metric_filter.as_deref(), Some("overhead"));
        assert_eq!(args.max_overhead_pct, Some(2.0));
        assert!(args.check);
    }

    #[test]
    fn parse_rejects_bad_max_overhead() {
        let bad = |flags: &[&str]| parse_args(&strs(&[&["b.json", "c.json"], flags].concat()));
        assert!(bad(&["--max-overhead", "-1"]).is_err());
        assert!(bad(&["--max-overhead", "inf"]).is_err());
        assert!(bad(&["--max-overhead"]).is_err());
        assert!(bad(&["--metric", ""]).is_err());
    }

    #[test]
    fn parse_needs_exactly_two_reports() {
        assert!(parse_args(&strs(&["b.json", "c.json"])).is_ok());
        assert!(parse_args(&strs(&["b.json", "--check"])).is_err());
        assert!(parse_args(&strs(&[])).is_err());
        assert!(parse_args(&strs(&["b.json", "c.json", "d.json"])).is_err());
    }

    #[test]
    fn zero_baseline_speedup_is_absolute_and_unjudged() {
        let row = Row {
            name: "s",
            base: 0.0,
            cand: 3.0,
            cand_iqr: 0.0,
            higher_is_better: true,
        };
        match row.delta() {
            Delta::AbsUnjudged(d) => assert_eq!(d, 3.0),
            _ => panic!("expected absolute unjudged delta"),
        }
        // Even a huge absolute swing on a degenerate baseline is not a
        // regression: there is no ratio to judge.
        let down = Row {
            name: "s",
            base: 0.0,
            cand: -100.0,
            cand_iqr: 0.0,
            higher_is_better: true,
        };
        assert!(judge(&[row, down], 0.0, None, true).is_empty());
    }

    #[test]
    fn overheads_judged_in_percentage_points() {
        let row = Row {
            name: "metrics_overhead_pct",
            base: 1.0,
            cand: 4.5,
            cand_iqr: 0.0,
            higher_is_better: false,
        };
        match row.delta() {
            Delta::AbsPp(d) => assert!((d - 3.5).abs() < 1e-12),
            _ => panic!("expected pp delta"),
        }
        assert_eq!(judge(&[row], 2.0, None, true).len(), 1);
    }

    #[test]
    fn max_overhead_budget_flags_candidate_regardless_of_baseline() {
        // Baseline is just as bad, so the relative comparison passes —
        // only the absolute budget catches it.
        let row = Row {
            name: "metrics_overhead_pct",
            base: 5.0,
            cand: 5.1,
            cand_iqr: 0.0,
            higher_is_better: false,
        };
        assert!(judge(std::slice::from_ref(&row), 2.0, None, true).is_empty());
        let hits = judge(&[row], 2.0, Some(2.0), true);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].1.contains("budget"));
    }

    #[test]
    fn parse_min_speedup_flag() {
        let parse = |flags: &[&str]| parse_args(&strs(&[&["b.json", "c.json"], flags].concat()));
        assert_eq!(
            parse(&["--min-speedup", "1.0"]).unwrap().min_speedup,
            Some(1.0)
        );
        assert!(parse(&["--min-speedup", "-1"]).is_err());
        assert!(parse(&["--min-speedup", "nan"]).is_err());
        assert!(parse(&["--min-speedup"]).is_err());
    }

    #[test]
    fn speedup_floor_catches_candidate_regardless_of_baseline() {
        // Baseline was just as slow, so the relative comparison passes;
        // only the absolute floor flags the row.
        let slow = Row {
            name: "workload_sim.speedup",
            base: 0.9,
            cand: 0.95,
            cand_iqr: 0.0,
            higher_is_better: true,
        };
        let fast = Row {
            name: "iterated_sweep.speedup",
            base: 2.0,
            cand: 2.5,
            cand_iqr: 0.0,
            higher_is_better: true,
        };
        let overhead = Row {
            name: "metrics_overhead_pct",
            base: 0.5,
            cand: 0.6,
            cand_iqr: 0.0,
            higher_is_better: false,
        };
        let rows = [slow, fast, overhead];
        assert!(judge(&rows, 10.0, None, true).is_empty());
        let fails = below_floor(&rows, 1.0);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].0, "workload_sim.speedup");
        assert!(fails[0].1.contains("floor"));
        // Overhead rows are never judged against the speedup floor.
        assert!(below_floor(&rows, 0.0).is_empty());
    }

    #[test]
    fn negative_overheads_are_clamped_at_load() {
        // A committed baseline predating the at-rest clamp (raw medians
        // like -2.32 were serialized) must not inflate the delta: the
        // candidate's true cost over a noise-negative baseline is its
        // own clamped value, not cand + |baseline|.
        let row = Row {
            name: "metrics_overhead_pct",
            base: clamp_overhead(-2.32),
            cand: clamp_overhead(0.5),
            cand_iqr: 0.0,
            higher_is_better: false,
        };
        match row.delta() {
            Delta::AbsPp(d) => assert!((d - 0.5).abs() < 1e-12),
            _ => panic!("expected pp delta"),
        }
        // A negative candidate is zero cost, not negative cost: it sits
        // exactly at a zero budget rather than under-running it, and a
        // tiny positive budget passes it.
        let neg_cand = Row {
            name: "trace_overhead_pct",
            base: clamp_overhead(1.0),
            cand: clamp_overhead(-0.3),
            cand_iqr: 0.0,
            higher_is_better: false,
        };
        assert!(judge(&[neg_cand], 10.0, Some(0.1), true).is_empty());
    }

    #[test]
    fn max_overhead_budget_ignores_speedup_rows() {
        let row = Row {
            name: "workload_sim.speedup",
            base: 3.0,
            cand: 3.0,
            cand_iqr: 0.0,
            higher_is_better: true,
        };
        assert!(judge(&[row], 10.0, Some(0.0), true).is_empty());
    }

    fn overhead(cand: f64, cand_iqr: f64) -> Row {
        Row {
            name: "telemetry_overhead_pct",
            base: 0.2,
            cand,
            cand_iqr,
            higher_is_better: false,
        }
    }

    #[test]
    fn overhead_wider_than_its_budget_is_unresolved_not_regressed() {
        // Six runs of one binary once read 0.15–3.12 %: a 2.4 % median
        // over a 2 % budget says nothing when its IQR is 2.1 pp.
        let noisy = overhead(2.4, 2.1);
        assert!(noisy.unresolved(Some(2.0)));
        assert!(judge(&[noisy], 2.0, Some(2.0), true).is_empty());
    }

    #[test]
    fn overhead_whose_iqr_fits_the_budget_is_judged_as_before() {
        let tight = overhead(2.4, 2.0);
        assert!(!tight.unresolved(Some(2.0)));
        let hits = judge(&[tight], 2.0, Some(2.0), true);
        assert_eq!(hits.len(), 2, "drift and budget: {hits:?}");
        // With no budget there is nothing to be unresolved against.
        assert_eq!(judge(&[overhead(2.4, 9.0)], 2.0, None, true).len(), 1);
    }

    /// A report at `threads` whose three scenario speedups are `speedup`.
    fn report(threads: usize, speedup: f64) -> Report {
        let scenario = format!(
            r#"{{"single_thread_uncached": {{"wall_ms": 2.0, "draws_per_sec": 1.0}},
                "parallel_memoized": {{"wall_ms": 1.0, "draws_per_sec": 2.0}},
                "speedup": {speedup}, "batch_cache_hit_rate": null}}"#
        );
        serde_json::from_str(&format!(
            r#"{{"threads": {threads}, "workload_frames": 10, "workload_draws": 100,
                "sweep_candidates": 6, "sweep_passes": 4, "workload_sim": {scenario},
                "iterated_sweep": {scenario}, "subsetting_pipeline": {scenario},
                "metrics_overhead_pct": 0.5, "telemetry_overhead_pct": 5.0,
                "oracle_check_ms": 1.0, "metrics": {{"enabled": false,
                "counters": {{}}, "gauges": {{}}, "histograms": {{}}}}}}"#
        ))
        .expect("test report parses")
    }

    #[test]
    fn reports_at_different_thread_counts_are_not_judged_against_each_other() {
        let (base, cand) = (report(1, 2.0), report(2, 1.0));
        assert!(!like_for_like(&base, &cand));
        let rows = rows(&base, &cand);
        match rows[0].delta() {
            Delta::RelPct(d) => assert_eq!(d, 50.0),
            _ => panic!("expected a relative delta"),
        }
        // 50 % worse at 2 threads than at 1 is no regression...
        assert!(judge(&rows, 10.0, None, false).is_empty());
        // ...but the budget and the floor read the candidate alone.
        let over_budget = judge(&rows, 10.0, Some(2.0), false);
        assert_eq!(over_budget.len(), 1, "{over_budget:?}");
        assert_eq!(over_budget[0].0, "telemetry_overhead_pct");
        assert!(over_budget[0].1.contains("budget"));
        assert_eq!(below_floor(&rows, 1.5).len(), 3);
    }

    #[test]
    fn reports_at_one_thread_count_are_judged_as_before() {
        let (base, cand) = (report(2, 2.0), report(2, 1.0));
        assert!(like_for_like(&base, &cand));
        let hits = judge(&rows(&base, &cand), 10.0, None, true);
        let names: Vec<_> = hits.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "workload_sim.speedup",
                "iterated_sweep.speedup",
                "subsetting_pipeline.speedup"
            ]
        );
        let mut other_workload = report(2, 1.0);
        other_workload.workload_draws = 200;
        assert!(!like_for_like(&base, &other_workload));
    }
}
