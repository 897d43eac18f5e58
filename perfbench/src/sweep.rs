//! `pathfinding_sweep`: the corpus and its subsets are built in set-up;
//! one op creates a fresh `SweepSession` over the six pathfinding
//! candidates, sweeps every title for `SWEEP_PASSES` passes (the first
//! cold, the rest served by the batch cache) and replays every title's
//! subset on each candidate.

use crate::batch::{self, CorpusSetup};
use crate::inputs::SWEEP_PASSES;
use crate::ledger::{by_name, chrome_json, subtree, Health, Recorder, NO_PARENT};
use crate::report::Outcome;
use crate::stats::median;
use crate::{done, ms, overhead_pct, repeat_setup, Run};
use std::time::Instant;
use subset3d_core::{SubsettingOutcome, WorkloadSubset};
use subset3d_gpusim::{ArchConfig, ConfigPoint, Simulator, SweepSession};
use subset3d_trace::Workload;

/// What every op must reproduce: the first pass's points per title and
/// the first replay estimates per (candidate, title).
#[derive(Default)]
struct Reference {
    points: Vec<Vec<ConfigPoint>>,
    replays: Vec<f64>,
}

/// Batch-cache counters of one op's session.
#[derive(Default, Clone, Copy)]
struct OpStats {
    batch_hits: u64,
    batch_lookups: u64,
}

/// One op; sweep-call latencies go to `latencies`.
fn op(
    rec: &Recorder,
    index: u64,
    setup: &CorpusSetup,
    candidates: &[ArchConfig],
    reference: &mut Reference,
    out: &mut Outcome,
    latencies: &mut Vec<f64>,
) -> Option<OpStats> {
    rec.span("op.sweep", NO_PARENT, &[("op", index)], |root| {
        let session = rec.span("gpusim.session_new", root, &[], |_| {
            SweepSession::new(candidates)
        });
        let session = out.attempt("SweepSession::new", session)?;
        for pass in 0..SWEEP_PASSES {
            for (t, title) in setup.titles.iter().enumerate() {
                let args = [("title", t as u64), ("pass", pass as u64)];
                let t0 = Instant::now();
                let result = rec.span("gpusim.sweep", root, &args, |_| session.sweep(title));
                let d = ms(t0.elapsed());
                let Some(points) = out.attempt("SweepSession::sweep", result) else {
                    continue;
                };
                latencies.push(d);
                match reference.points.get(t) {
                    Some(first) => out.check(
                        "every pass returns the first pass's points",
                        &points == first,
                    ),
                    None => reference.points.push(points),
                }
            }
        }
        let mut replay = 0;
        for (c, candidate) in candidates.iter().enumerate() {
            let sim = Simulator::new(candidate.clone());
            for (t, (title, outcome)) in setup.titles.iter().zip(&setup.outcomes).enumerate() {
                let args = [("title", t as u64), ("candidate", c as u64)];
                let result = rec.span("gpusim.replay", root, &args, |_| {
                    outcome.subset.replay(title, &sim)
                });
                if let Some(estimate) = out.attempt("WorkloadSubset::replay", result) {
                    match reference.replays.get(replay) {
                        Some(first) => out.check(
                            "replays are bit-identical",
                            estimate.to_bits() == first.to_bits(),
                        ),
                        None => reference.replays.push(estimate),
                    }
                }
                replay += 1;
            }
        }
        let stats = session.cache_stats();
        Some(OpStats {
            batch_hits: stats.batch_hits,
            batch_lookups: stats.batch_hits + stats.batch_misses,
        })
    })
}

/// The `pathfinding_sweep` workload.
pub fn run(run: &Run, out: &mut Outcome) -> Option<String> {
    let rec = Recorder::new(run.trace);
    let untraced = Recorder::new(false);
    let candidates = ArchConfig::pathfinding_candidates();
    let mut reference = Reference::default();
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut subset_rate = Vec::new();
    let mut setup = None;
    repeat_setup(&run.sizes, || {
        drop(setup.take());
        let t0 = Instant::now();
        setup = batch::setup_corpus(run, &rec, out);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(s) = &setup {
            generate_ms.push(s.generate_ms);
            subset_rate.push(s.draws() as f64 / s.subset_s);
        }
    });
    out.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    out.set(
        "trace.generate_ms",
        median(&generate_ms).unwrap_or(f64::NAN),
    );
    // The set-up's subsetting is this workload's: corpus draws per second
    // of each set-up's `Subsetter::run` calls, median over set-ups. Single
    // titles' rates fall into two groups (about 1000 and 1300 draws per
    // frame), and a median over them jumps between the groups.
    out.set(
        "subset_draws_per_s",
        median(&subset_rate).unwrap_or(f64::NAN),
    );
    let setup = setup?;
    // One untraced warm-up op after the last set-up, outside `setup_s`.
    op(
        &untraced,
        0,
        &setup,
        &candidates,
        &mut reference,
        out,
        &mut Vec::new(),
    );
    let titles: Vec<&Workload> = setup.titles.iter().collect();
    let outcomes: Vec<&SubsettingOutcome> = setup.outcomes.iter().collect();
    let subsets: Vec<&WorkloadSubset> = outcomes.iter().map(|o| &o.subset).collect();
    let sim_draws = (candidates.len() * SWEEP_PASSES * setup.draws()) as f64;
    let sim_frames = (candidates.len() * SWEEP_PASSES * setup.frames()) as f64;

    let start = Instant::now();
    let mut latencies = Vec::new();
    // Op wall times (untraced), and each op's sweep-call latencies.
    let mut untraced_ms = Vec::new();
    let mut untraced_ops = Vec::new();
    let mut traced_ops = Vec::new();
    let mut stats = OpStats::default();
    loop {
        let stop = if run.trace {
            traced_ops.len() >= 2 && untraced_ms.len() >= 2 && done(start, run.seconds, 0, 0)
        } else {
            !untraced_ms.is_empty()
                && done(start, run.seconds, latencies.len(), run.sizes.min_samples)
        };
        if stop {
            break;
        }
        let traced = run.trace && untraced_ms.len() > traced_ops.len();
        let t0 = Instant::now();
        let index = (untraced_ms.len() + traced_ops.len()) as u64 + 1;
        let before = latencies.len();
        let recorder = if traced { &rec } else { &untraced };
        let result = op(
            recorder,
            index,
            &setup,
            &candidates,
            &mut reference,
            out,
            &mut latencies,
        );
        let d = ms(t0.elapsed());
        let calls = latencies[before..].to_vec();
        if traced {
            traced_ops.push(calls);
            if let Some(s) = result {
                stats.batch_hits += s.batch_hits;
                stats.batch_lookups += s.batch_lookups;
            }
        } else {
            untraced_ms.push(d);
            untraced_ops.push(calls);
        }
    }

    let parents = batch::record_validation(out, &rec, &titles, &subsets);
    for (t, parent) in parents.iter().enumerate() {
        let session: Vec<f64> = reference
            .points
            .get(t)
            .map_or_else(Vec::new, |p| p.iter().map(|c| c.total_ns).collect());
        out.check(
            "rank validation's parent times equal the session's",
            parent.len() == session.len()
                && parent
                    .iter()
                    .zip(&session)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
        );
    }

    if !run.trace {
        // Medians over ops, as in batch_subset.
        let rate = |work: f64| {
            let rates: Vec<f64> = untraced_ms.iter().map(|ms| work / (ms / 1e3)).collect();
            median(&rates).unwrap_or(f64::NAN)
        };
        out.set("sim_draws_per_s", rate(sim_draws));
        out.set("frames_per_s", rate(sim_frames));
        batch::record_latency(
            out,
            "SweepSession::sweep per title and pass",
            &untraced_ops,
            &latencies,
            run.sizes.min_samples,
        );
        batch::record_quality(out, &titles, &outcomes);
        return None;
    }

    let ops = traced_ops.len();
    let spans = subtree(&rec.spans(), |s| s.name == "op.sweep");
    let totals = by_name(&spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |ns: u64| ns as f64 / 1e6 / ops as f64;
    let pass_ms = |cold: bool| {
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == "gpusim.sweep")
            .filter(|s| s.args.contains(&("pass", 0)) == cold)
            .map(|s| s.dur_ns())
            .sum();
        per(ns)
    };
    let simulate = per(get("gpusim.sweep").self_ns);
    out.set("gpusim.simulate_ms", simulate);
    out.set("gpusim.draws", sim_draws);
    out.set("gpusim.draws_per_busy_s", sim_draws / (simulate / 1e3));
    out.set("gpusim.replay_ms", per(get("gpusim.replay").self_ns));
    out.set("gpusim.cold_pass_ms", pass_ms(true));
    out.set(
        "gpusim.warm_pass_ms",
        pass_ms(false) / (SWEEP_PASSES - 1) as f64,
    );
    out.set(
        "gpusim.batch_hit_rate",
        stats.batch_hits as f64 / stats.batch_lookups.max(1) as f64,
    );
    out.set(
        "gpusim.batch_lookups",
        stats.batch_lookups as f64 / ops as f64,
    );
    Health::of(&totals, "op.sweep", &[], ops, 0.0).record(out);
    out.set(
        "trace_overhead_pct",
        overhead_pct(&untraced_ops, &traced_ops),
    );
    let gap = batch::profile_gap_pct(out, &titles, &outcomes);
    out.set("ledger.profile_gap_pct", gap);
    Some(chrome_json(&rec.spans(), &rec.threads()))
}
