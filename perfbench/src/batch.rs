//! `batch_subset`: default-config `Subsetter::run` over the corpus, one
//! fresh `Simulator` per title.
//!
//! The traced run times the steps `Subsetter::run` takes, composed from
//! their public functions — `cluster_frame` per frame on the exec pool,
//! `simulate_frame` with `predict_frame`, `PhaseDetector::detect` and
//! `WorkloadSubset::build` — and checks that the composition equals
//! `Subsetter::run`'s outcome bit for bit.

use crate::inputs;
use crate::ledger::{by_name, subtree, Health, NameTotals, Recorder, SpanId, NO_PARENT};
use crate::report::Outcome;
use crate::stats::{median, percentile, tail_permille};
use crate::{done, ms, overhead_pct, pct, repeat_setup, Run};
use std::collections::BTreeMap;
use std::time::Instant;
use subset3d_core::{
    cluster_frame, frequency_scaling_validation, pathfinding_rank_validation, predict_frame,
    PhaseDetector, PhasePattern, SubsetConfig, SubsetError, Subsetter, SubsettingOutcome,
    WorkloadEvaluation, WorkloadSubset,
};
use subset3d_features::extract_frame_features;
use subset3d_gpusim::{ArchConfig, FrequencySweep, Simulator};
use subset3d_trace::Workload;

/// A generated corpus with its reference outcomes.
pub struct CorpusSetup {
    /// The titles.
    pub titles: Vec<Workload>,
    /// `Subsetter::run` of each title.
    pub outcomes: Vec<SubsettingOutcome>,
    /// Generation time, ms.
    pub generate_ms: f64,
    /// Σ seconds of the titles' `Subsetter::run`.
    pub subset_s: f64,
}

impl CorpusSetup {
    /// Σ draws of the titles.
    pub fn draws(&self) -> usize {
        self.titles.iter().map(Workload::total_draws).sum()
    }

    /// Σ frames of the titles.
    pub fn frames(&self) -> usize {
        self.titles.iter().map(|t| t.frames().len()).sum()
    }
}

/// `Subsetter::run` at the default configuration on a fresh baseline
/// simulator.
pub fn subset(title: &Workload) -> Result<SubsettingOutcome, SubsetError> {
    let sim = Simulator::new(ArchConfig::baseline());
    Subsetter::new(SubsetConfig::default()).run(title, &sim)
}

/// Generates the corpus from the seed and subsets every title once.
/// `None` if a title fails (counted in `out`).
pub fn setup_corpus(run: &Run, rec: &Recorder, out: &mut Outcome) -> Option<CorpusSetup> {
    let t0 = Instant::now();
    let titles = rec.span("trace.generate", NO_PARENT, &[], |_| {
        inputs::corpus(&run.sizes.corpus, run.seed)
    });
    let generate_ms = ms(t0.elapsed());
    let mut outcomes = Vec::with_capacity(titles.len());
    let mut subset_s = 0.0;
    for title in &titles {
        let t1 = Instant::now();
        outcomes.push(out.attempt("Subsetter::run", subset(title))?);
        subset_s += t1.elapsed().as_secs_f64();
    }
    Some(CorpusSetup {
        titles,
        outcomes,
        generate_ms,
        subset_s,
    })
}

/// Batch-cache lookups of one composed run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lookups {
    /// Batches served from the batch cache.
    pub hits: u64,
    /// Batch lookups in total.
    pub lookups: u64,
}

/// The steps of `Subsetter::run` composed from public calls, each in a
/// span under `parent`.
pub fn composed(
    rec: &Recorder,
    parent: SpanId,
    title: &Workload,
) -> Result<(SubsettingOutcome, Lookups), SubsetError> {
    let config = SubsetConfig::default();
    let sim = Simulator::new(ArchConfig::baseline());
    let frames = title.frames();
    let clusterings = rec.span("exec.cluster_stage", parent, &[], |stage| {
        subset3d_exec::par_map_indexed(frames, |i, frame| {
            rec.span("cluster.frame", stage, &[("frame", i as u64)], |_| {
                cluster_frame(frame, title, &config)
            })
        })
    });
    let mut predictions = Vec::with_capacity(frames.len());
    let mut efficiencies = Vec::with_capacity(frames.len());
    for (i, (frame, clustering)) in frames.iter().zip(&clusterings).enumerate() {
        let args = [("frame", i as u64)];
        let cost = rec.span("gpusim.simulate", parent, &args, |_| {
            sim.simulate_frame(frame, title)
        })?;
        predictions.push(rec.span("core.predict", parent, &args, |_| {
            predict_frame(clustering, &cost)
        }));
        efficiencies.push(clustering.efficiency());
    }
    let phases = rec.span("core.phase", parent, &[], |_| {
        PhaseDetector::new(config.interval_len)
            .with_similarity(config.phase_similarity)
            .detect(title)
    })?;
    let pattern = PhasePattern::of(&phases);
    let subset = rec.span("core.subset_build", parent, &[], |_| {
        WorkloadSubset::build(title, &phases, &clusterings, config.frames_per_phase)
    });
    let stats = sim.cache_stats();
    let lookups = Lookups {
        hits: stats.batch_hits,
        lookups: stats.batch_hits + stats.batch_misses,
    };
    let outcome = SubsettingOutcome {
        clusterings,
        evaluation: WorkloadEvaluation {
            frames: predictions,
            efficiencies,
        },
        phases,
        pattern,
        subset,
    };
    Ok((outcome, lookups))
}

/// Times `extract_frame_features` on every frame of `titles`, on the
/// exec pool as `cluster_frame` runs it, in spans under one
/// `ledger.replay` root; returns Σ call time in ms.
pub fn replay_extraction(rec: &Recorder, titles: &[&Workload]) -> f64 {
    let features = SubsetConfig::default().features;
    rec.span("ledger.replay", NO_PARENT, &[], |root| {
        let mut total = 0.0;
        for (t, title) in titles.iter().enumerate() {
            let calls = subset3d_exec::par_map_indexed(title.frames(), |i, frame| {
                let args = [("title", t as u64), ("frame", i as u64)];
                rec.span("features.extract", root, &args, |_| {
                    let t0 = Instant::now();
                    std::hint::black_box(extract_frame_features(frame, title, features.clone()));
                    ms(t0.elapsed())
                })
            });
            total += calls.iter().sum::<f64>();
        }
        total
    })
}

/// Records the paper's Table-2 quality figures and the subset size, and
/// checks every subset against its title.
pub fn record_quality(out: &mut Outcome, titles: &[&Workload], outcomes: &[&SubsettingOutcome]) {
    let per_title = |f: fn(&SubsettingOutcome) -> f64| -> f64 {
        subset3d_stats::mean(&outcomes.iter().map(|o| f(o)).collect::<Vec<_>>()) * 100.0
    };
    out.set(
        "pred_error_pct",
        per_title(|o| o.evaluation.mean_prediction_error()),
    );
    out.set(
        "efficiency_pct",
        per_title(|o| o.evaluation.mean_efficiency()),
    );
    out.set(
        "outlier_cluster_pct",
        per_title(|o| o.evaluation.outlier_fraction()),
    );
    let kept: usize = outcomes
        .iter()
        .map(|o| o.subset.selected_draw_count())
        .sum();
    let parent: usize = titles.iter().map(|t| t.total_draws()).sum();
    out.set("subset_draw_pct", pct(kept as f64, parent as f64));
    for (title, outcome) in titles.iter().zip(outcomes) {
        out.attempt("WorkloadSubset::validate", outcome.subset.validate(title));
    }
}

/// Parent times `pathfinding_rank_validation` returned for each title.
pub type ParentTimes = Vec<Vec<f64>>;

/// Frequency-scaling and rank validation of every subset (outside any
/// timed op); records `freq_scaling_corr`, `rank_agreement` and
/// `core.validate_ms`, and returns the parent times.
pub fn record_validation(
    out: &mut Outcome,
    rec: &Recorder,
    titles: &[&Workload],
    subsets: &[&WorkloadSubset],
) -> ParentTimes {
    let t0 = Instant::now();
    let candidates = ArchConfig::pathfinding_candidates();
    let sweep = FrequencySweep::standard();
    let mut corr = f64::INFINITY;
    let mut agreement = f64::INFINITY;
    let mut parents = Vec::with_capacity(titles.len());
    for (t, (title, subset)) in titles.iter().zip(subsets).enumerate() {
        let args = [("title", t as u64)];
        let freq = rec.span("core.validate", NO_PARENT, &args, |_| {
            frequency_scaling_validation(title, subset, &ArchConfig::baseline(), &sweep)
        });
        if let Some(v) = out.attempt("frequency_scaling_validation", freq) {
            corr = corr.min(v.correlation);
        }
        let rank = rec.span("core.validate", NO_PARENT, &args, |_| {
            pathfinding_rank_validation(title, subset, &candidates)
        });
        match out.attempt("pathfinding_rank_validation", rank) {
            Some((parent, _, a)) => {
                agreement = agreement.min(a);
                parents.push(parent);
            }
            None => parents.push(Vec::new()),
        }
    }
    out.set("freq_scaling_corr", corr);
    out.set("rank_agreement", agreement);
    out.set("core.validate_ms", ms(t0.elapsed()));
    parents
}

/// Records `op_p50_ms` and `op_tail_ms` with a note naming the tail
/// percentile and the counts. `passes[i][k]` is the latency of the k-th op
/// of pass i; `op_p50_ms` is the mean over op positions of each
/// position's median, because the ops of a pass differ in size (titles of
/// 950 to 1400 draws per frame, cold and warm sweep passes, early and late
/// chunks) and a median pooled over them falls between size groups and
/// flips from run to run. `op_tail_ms` is the highest percentile of
/// `tail_ms` with ten values beyond it at `min_count`, the fewest a run
/// collects, so every run of a workload reports the same percentile.
pub fn record_latency(
    out: &mut Outcome,
    what: &str,
    passes: &[Vec<f64>],
    tail_ms: &[f64],
    min_count: usize,
) {
    let width = passes.iter().map(Vec::len).max().unwrap_or(0);
    let medians: Vec<f64> = (0..width)
        .filter_map(|k| {
            let at: Vec<f64> = passes.iter().filter_map(|p| p.get(k).copied()).collect();
            median(&at)
        })
        .collect();
    out.set(
        "op_p50_ms",
        medians.iter().sum::<f64>() / medians.len() as f64,
    );
    let samples: usize = passes.iter().map(Vec::len).sum();
    let tail = tail_permille(min_count).and_then(|p| percentile(tail_ms, p));
    out.set("op_tail_ms", tail.map_or(f64::NAN, |t| t.value));
    out.note(match tail {
        Some(t) => format!(
            "op={what} samples={samples} positions={width} tail=p{} over {} values, {} beyond",
            t.percentile, t.samples, t.beyond
        ),
        None => format!("op={what} samples={samples} positions={width} tail=none"),
    });
}

/// Per-pass ledger of composed runs (the spans under `op.subset`).
fn record_ledger(
    out: &mut Outcome,
    rec: &Recorder,
    passes: usize,
    extract_ms: f64,
    per_pass: &PassCounts,
) {
    let spans = subtree(&rec.spans(), |s| s.name == "op.subset");
    let totals = by_name(&spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |ns: u64| ns as f64 / 1e6 / passes.max(1) as f64;
    let frame = get("cluster.frame");
    let stage = get("exec.cluster_stage");
    let threads = subset3d_exec::thread_count() as f64;
    let busy = per(frame.total_ns);
    let capacity = threads * per(stage.total_ns);
    let simulate = per(get("gpusim.simulate").self_ns);

    out.set("features.extract_ms", extract_ms);
    out.set("features.rows", per_pass.draws as f64);
    out.set("cluster.frame_fit_ms", per(frame.self_ns) - extract_ms);
    out.set("cluster.clusters", per_pass.clusters as f64);
    out.set("cluster.distance_evals_max", per_pass.distance_evals as f64);
    out.set("gpusim.simulate_ms", simulate);
    out.set("gpusim.draws", per_pass.draws as f64);
    out.set(
        "gpusim.draws_per_busy_s",
        per_pass.draws as f64 / (simulate / 1e3),
    );
    out.set("core.predict_ms", per(get("core.predict").self_ns));
    out.set("core.phase_ms", per(get("core.phase").self_ns));
    out.set(
        "core.subset_build_ms",
        per(get("core.subset_build").self_ns),
    );
    out.set("exec.busy_ms", busy);
    out.set("exec.idle_ms", (capacity - busy).max(0.0));
    out.set(
        "exec.efficiency",
        if capacity > 0.0 { busy / capacity } else { 0.0 },
    );
    Health::of(&totals, "op.subset", &["exec.cluster_stage"], passes, 0.0).record(out);
}

/// Work counts of one corpus pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassCounts {
    /// Draws (feature rows, simulated draws).
    pub draws: u64,
    /// Clusters over all frames.
    pub clusters: u64,
    /// Σ draws × clusters per frame: the leader scan's distance bound.
    pub distance_evals: u64,
}

impl PassCounts {
    /// Counts over a pass's outcomes.
    pub fn of(outcomes: &[&SubsettingOutcome]) -> Self {
        let mut c = PassCounts::default();
        for fc in outcomes.iter().flat_map(|o| &o.clusterings) {
            c.draws += fc.draw_count as u64;
            c.clusters += fc.cluster_count() as u64;
            c.distance_evals += (fc.draw_count * fc.cluster_count()) as u64;
        }
        c
    }
}

/// Pipeline stages compared with `subset3d trace-profile`.
const STAGES: [&str; 5] = [
    "pipeline.clustering",
    "pipeline.feature_extraction",
    "pipeline.evaluation",
    "pipeline.phase_detection",
    "pipeline.subset_build",
];

/// The ledger's time for each of [`STAGES`], ns, over one composed run of
/// `title`; checks the composition against `Subsetter::run`.
fn ledger_stages(out: &mut Outcome, title: &Workload, reference: &SubsettingOutcome) -> [f64; 5] {
    let rec = Recorder::new(true);
    let run = rec.span("op.subset", NO_PARENT, &[], |root| {
        composed(&rec, root, title)
    });
    if let Some((outcome, _)) = out.attempt("composed Subsetter::run", run) {
        out.check("composed steps equal Subsetter::run", &outcome == reference);
    }
    let extract_ns = replay_extraction(&rec, &[title]) * 1e6;
    let totals = by_name(&subtree(&rec.spans(), |s| s.name == "op.subset"));
    let m = |name: &str| totals.get(name).map_or(0, |t: &NameTotals| t.total_ns) as f64;
    [
        m("exec.cluster_stage"),
        extract_ns,
        m("gpusim.simulate") + m("core.predict"),
        m("core.phase"),
        m("core.subset_build"),
    ]
}

/// `subset3d trace-profile`'s totals for [`STAGES`], ns: `Subsetter::run`
/// on `title` under the event tracer, then `subset3d_obs::self_time`.
fn profiled_stages(out: &mut Outcome, title: &Workload) -> [f64; 5] {
    subset3d_obs::start_tracing(subset3d_obs::TraceMode::Full);
    out.attempt("Subsetter::run under the event tracer", subset(title));
    let events = subset3d_obs::stop_tracing();
    let profile: BTreeMap<&str, f64> = subset3d_obs::self_time(&events)
        .into_iter()
        .map(|s| (s.name, s.total_ns as f64))
        .collect();
    STAGES.map(|stage| profile.get(stage).copied().unwrap_or(0.0))
}

/// Rounds of the trace-profile comparison.
const PROFILE_ROUNDS: usize = 3;

/// Compares the outside-in ledger with `subset3d trace-profile`'s table on
/// the same inputs. Per title, a composed run and a profiled run go back to
/// back, so the host's drift between the two sides stays small; each side
/// keeps its fastest of [`PROFILE_ROUNDS`] per title and stage. Returns
/// `Σ |ledger − profile| / Σ profile` in percent over the summed titles.
pub fn profile_gap_pct(
    out: &mut Outcome,
    titles: &[&Workload],
    references: &[&SubsettingOutcome],
) -> f64 {
    let keep_min = |best: &mut [f64; 5], now: [f64; 5]| {
        for (b, n) in best.iter_mut().zip(now) {
            *b = b.min(n);
        }
    };
    let mut ledger = vec![[f64::INFINITY; 5]; titles.len()];
    let mut profiled = ledger.clone();
    for _ in 0..PROFILE_ROUNDS {
        for (t, (title, reference)) in titles.iter().zip(references).enumerate() {
            keep_min(&mut ledger[t], ledger_stages(out, title, reference));
            keep_min(&mut profiled[t], profiled_stages(out, title));
        }
    }
    let total =
        |per_title: &[[f64; 5]], stage: usize| -> f64 { per_title.iter().map(|t| t[stage]).sum() };
    let (mut gap, mut base) = (0.0, 0.0);
    for (i, stage) in STAGES.iter().enumerate() {
        let (l, p) = (total(&ledger, i), total(&profiled, i));
        out.note(format!(
            "profile {stage}: ledger={:.3}ms trace-profile={:.3}ms",
            l / 1e6,
            p / 1e6
        ));
        gap += (l - p).abs();
        base += p;
    }
    pct(gap, base)
}

/// The `batch_subset` workload.
pub fn run(run: &Run, out: &mut Outcome) -> Option<String> {
    let rec = Recorder::new(run.trace);
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut setup = None;
    repeat_setup(&run.sizes, || {
        // Free the previous corpus before generating the next.
        drop(setup.take());
        let t0 = Instant::now();
        setup = setup_corpus(run, &rec, out);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(s) = &setup {
            generate_ms.push(s.generate_ms);
        }
    });
    out.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    out.set(
        "trace.generate_ms",
        median(&generate_ms).unwrap_or(f64::NAN),
    );
    let setup = setup?;
    let titles: Vec<&Workload> = setup.titles.iter().collect();
    let references: Vec<&SubsettingOutcome> = setup.outcomes.iter().collect();

    // One op is one title's `Subsetter::run`; a pass runs every title and
    // returns their latencies.
    let untraced_pass = |out: &mut Outcome| -> Vec<f64> {
        let mut ops = Vec::with_capacity(titles.len());
        for (title, reference) in titles.iter().zip(&references) {
            let t0 = Instant::now();
            let result = subset(title);
            let d = ms(t0.elapsed());
            if let Some(outcome) = out.attempt("Subsetter::run", result) {
                ops.push(d);
                out.check("repeated runs are bit-identical", &outcome == *reference);
            }
        }
        ops
    };

    let start = Instant::now();
    if !run.trace {
        // Rates are medians over passes, so a burst of interference on
        // the host moves one pass, not the figure.
        let mut latencies = Vec::new();
        let mut passes = Vec::new();
        while passes.is_empty() || !done(start, run.seconds, latencies.len(), run.sizes.min_samples)
        {
            let ops = untraced_pass(out);
            latencies.extend_from_slice(&ops);
            passes.push(ops);
        }
        let pass_s: Vec<f64> = passes.iter().map(|p| p.iter().sum::<f64>() / 1e3).collect();
        let rate = |work: usize| {
            let rates: Vec<f64> = pass_s.iter().map(|s| work as f64 / s).collect();
            median(&rates).unwrap_or(f64::NAN)
        };
        out.set("subset_draws_per_s", rate(setup.draws()));
        out.set("sim_draws_per_s", rate(setup.draws()));
        out.set("frames_per_s", rate(setup.frames()));
        record_latency(
            out,
            "Subsetter::run per title",
            &passes,
            &latencies,
            run.sizes.min_samples,
        );
        record_quality(out, &titles, &references);
        let subsets: Vec<&WorkloadSubset> = references.iter().map(|o| &o.subset).collect();
        record_validation(out, &rec, &titles, &subsets);
        return None;
    }

    // Traced: alternate untraced and traced passes for the overhead, then
    // replay the nested extraction on the same inputs.
    let mut untraced_ops = Vec::new();
    let mut traced_ops = Vec::new();
    let mut lookups = Lookups::default();
    while traced_ops.len() < 2 || untraced_ops.len() < 2 || !done(start, run.seconds, 0, 0) {
        if untraced_ops.len() <= traced_ops.len() {
            untraced_ops.push(untraced_pass(out));
            continue;
        }
        let pass = traced_ops.len() as u64;
        let mut ops = Vec::with_capacity(titles.len());
        for (t, (title, reference)) in titles.iter().zip(&references).enumerate() {
            let t0 = Instant::now();
            let args = [("title", t as u64), ("pass", pass)];
            let result = rec.span("op.subset", NO_PARENT, &args, |root| {
                composed(&rec, root, title)
            });
            ops.push(ms(t0.elapsed()));
            if let Some((outcome, l)) = out.attempt("composed Subsetter::run", result) {
                out.check(
                    "composed steps equal Subsetter::run",
                    &outcome == *reference,
                );
                lookups.hits += l.hits;
                lookups.lookups += l.lookups;
            }
        }
        traced_ops.push(ops);
    }
    let passes = traced_ops.len();
    let extract_ms = replay_extraction(&rec, &titles);
    record_ledger(out, &rec, passes, extract_ms, &PassCounts::of(&references));
    out.set(
        "gpusim.batch_lookups",
        lookups.lookups as f64 / passes as f64,
    );
    out.set(
        "gpusim.batch_hit_rate",
        if lookups.lookups == 0 {
            0.0
        } else {
            lookups.hits as f64 / lookups.lookups as f64
        },
    );
    out.set(
        "trace_overhead_pct",
        overhead_pct(&untraced_ops, &traced_ops),
    );
    let gap = profile_gap_pct(out, &titles, &references);
    out.set("ledger.profile_gap_pct", gap);
    Some(crate::ledger::chrome_json(&rec.spans(), &rec.threads()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_p50_is_the_mean_of_position_medians() {
        // Two op sizes per pass; a median pooled over all six ops would
        // fall between them (6.5).
        let passes = [vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let mut out = Outcome::default();
        record_latency(&mut out, "op", &passes, &[1.0; 20], 20);
        assert_eq!(out.metrics["op_p50_ms"], 11.0);
        assert_eq!(out.metrics["op_tail_ms"], 1.0);
    }
}
