//! Metamorphic invariant checkers.
//!
//! Each checker states a relation the model must satisfy between a run and
//! a transformed re-run — no ground truth needed, so they hold for *any*
//! workload. All return `Result<(), String>` with a readable violation
//! message, usable from plain `#[test]`s (`.unwrap()`) and from
//! `proptest!` properties (`prop_assert!(r.is_ok(), "{:?}", r)`).
//!
//! Two deliberate tolerance choices, both rooted in float-summation order:
//!
//! * **Draw permutation** compares *isolated* (warmth-free) draw costs —
//!   in-context costs are legitimately order-dependent through the
//!   texture-warmth window — and compares totals within a relative
//!   epsilon, because reordering the sum reorders the roundings.
//! * **Cluster relabeling** also uses an epsilon: permuting cluster order
//!   permutes the order in which per-cluster predictions are added.
//!
//! Everything else is exact.

use subset3d_cluster::{Points, Subsetter as SubsetterBackend};
use subset3d_core::{predict_frame, FrameClustering};
use subset3d_gpusim::{ArchConfig, CacheMode, FrameCost, Simulator};
use subset3d_trace::{Frame, Workload};

/// Relative tolerance for comparisons whose float-summation *order*
/// legitimately changes (see module docs). Generous for round-off, far
/// below any real model change.
pub const SUM_ORDER_EPSILON: f64 = 1e-9;

fn relative_close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= SUM_ORDER_EPSILON * scale
}

/// **Frequency monotonicity**: raising only the core clock never makes the
/// workload slower. Checks that total time is non-increasing along an
/// ascending clock sweep.
///
/// # Errors
///
/// Returns the first adjacent clock pair that violates monotonicity, or a
/// simulator failure message.
pub fn check_frequency_monotone(
    workload: &Workload,
    base: &ArchConfig,
    ascending_clocks_mhz: &[f64],
) -> Result<(), String> {
    let mut prev: Option<(f64, f64)> = None;
    for &mhz in ascending_clocks_mhz {
        if let Some((prev_mhz, _)) = prev {
            if mhz <= prev_mhz {
                return Err(format!(
                    "clock sweep must ascend: {prev_mhz} MHz then {mhz} MHz"
                ));
            }
        }
        let sim = Simulator::new(base.with_core_clock(mhz));
        let total = sim
            .simulate_workload(workload)
            .map_err(|e| format!("simulation at {mhz} MHz failed: {e}"))?
            .total_ns;
        if let Some((prev_mhz, prev_total)) = prev {
            if total > prev_total {
                return Err(format!(
                    "slower at higher clock: {prev_total} ns at {prev_mhz} MHz \
                     but {total} ns at {mhz} MHz"
                ));
            }
        }
        prev = Some((mhz, total));
    }
    Ok(())
}

/// **Cache transparency**: the memo cache is an optimisation, not a model
/// input — `On` and `Off` must produce bit-identical workload
/// costs, including on a second pass served from warm caches.
///
/// # Errors
///
/// Returns the first cache mode and pass whose total differs from the
/// `Off` baseline, or a simulator failure message.
pub fn check_cache_modes_identical(workload: &Workload, config: &ArchConfig) -> Result<(), String> {
    let baseline = {
        let sim = Simulator::new(config.clone());
        sim.set_cache_mode(CacheMode::Off);
        sim.simulate_workload(workload)
            .map_err(|e| format!("baseline simulation failed: {e}"))?
    };
    for mode in [CacheMode::On, CacheMode::Off] {
        let sim = Simulator::new(config.clone());
        sim.set_cache_mode(mode);
        for pass in 0..2 {
            let cost = sim
                .simulate_workload(workload)
                .map_err(|e| format!("{mode:?} pass {pass} failed: {e}"))?;
            if cost.total_ns.to_bits() != baseline.total_ns.to_bits() {
                return Err(format!(
                    "cache mode {mode:?} pass {pass} changed the result: \
                     {} vs baseline {}",
                    cost.total_ns, baseline.total_ns
                ));
            }
            for (fi, (f, bf)) in cost.frames.iter().zip(&baseline.frames).enumerate() {
                if f.total_ns.to_bits() != bf.total_ns.to_bits() {
                    return Err(format!(
                        "cache mode {mode:?} pass {pass} changed frame {fi}: \
                         {} vs baseline {}",
                        f.total_ns, bf.total_ns
                    ));
                }
            }
        }
    }
    Ok(())
}

/// **Draw-permutation invariance**: a frame's *isolated* cost — the sum of
/// its draws each simulated cold, outside any warmth context — does not
/// depend on submission order. (In-context frame cost legitimately does,
/// through the cross-draw texture-warmth window; that context dependence
/// is a modelled effect, not a bug.)
///
/// `permutation` maps new position → original draw index and must be a
/// permutation of `0..frame.draw_count()`.
///
/// # Errors
///
/// Returns a message when the permuted isolated total leaves the
/// [`SUM_ORDER_EPSILON`] band, when `permutation` is malformed, or when
/// simulation fails.
pub fn check_draw_permutation(
    frame: &Frame,
    workload: &Workload,
    config: &ArchConfig,
    permutation: &[usize],
) -> Result<(), String> {
    let draws = frame.to_draws();
    if permutation.len() != draws.len() {
        return Err(format!(
            "permutation length {} != draw count {}",
            permutation.len(),
            draws.len()
        ));
    }
    let mut seen = vec![false; draws.len()];
    for &p in permutation {
        if p >= draws.len() || seen[p] {
            return Err(format!("not a permutation: index {p}"));
        }
        seen[p] = true;
    }
    let sim = Simulator::new(config.clone());
    let mut original = 0.0;
    for draw in &draws {
        original += sim
            .simulate_draw(draw, workload)
            .map_err(|e| format!("isolated draw failed: {e}"))?
            .time_ns;
    }
    let mut permuted = 0.0;
    for &p in permutation {
        permuted += sim
            .simulate_draw(&draws[p], workload)
            .map_err(|e| format!("isolated draw failed: {e}"))?
            .time_ns;
    }
    if !relative_close(original, permuted) {
        return Err(format!(
            "isolated frame cost depends on draw order: {original} ns \
             original vs {permuted} ns permuted"
        ));
    }
    Ok(())
}

/// **Cluster-relabeling invariance**: prediction quality depends on the
/// partition, not on how clusters happen to be numbered or ordered.
/// Reorders `clustering.clusters` by `permutation` and checks that
/// predicted time and prediction error are unchanged (within
/// [`SUM_ORDER_EPSILON`]: the per-cluster sum is reordered).
///
/// # Errors
///
/// Returns a message when predictions move, when `permutation` is
/// malformed, or when the clustering and cost disagree on draw count.
pub fn check_cluster_relabeling(
    clustering: &FrameClustering,
    cost: &FrameCost,
    permutation: &[usize],
) -> Result<(), String> {
    if permutation.len() != clustering.clusters.len() {
        return Err(format!(
            "permutation length {} != cluster count {}",
            permutation.len(),
            clustering.clusters.len()
        ));
    }
    let mut seen = vec![false; permutation.len()];
    for &p in permutation {
        if p >= permutation.len() || seen[p] {
            return Err(format!("not a permutation: index {p}"));
        }
        seen[p] = true;
    }
    let relabeled = FrameClustering {
        clusters: permutation
            .iter()
            .map(|&p| clustering.clusters[p].clone())
            .collect(),
        draw_count: clustering.draw_count,
    };
    let before = predict_frame(clustering, cost);
    let after = predict_frame(&relabeled, cost);
    if !relative_close(before.predicted_ns, after.predicted_ns) {
        return Err(format!(
            "relabeling moved the prediction: {} ns vs {} ns",
            before.predicted_ns, after.predicted_ns
        ));
    }
    if !relative_close(before.error(), after.error()) {
        return Err(format!(
            "relabeling moved the prediction error: {} vs {}",
            before.error(),
            after.error()
        ));
    }
    Ok(())
}

/// **Backend partition contract**: a [`SubsetterBackend`] fit over any
/// point set must be a valid partition with exactly one in-cluster
/// representative per cluster ([`subset3d_cluster::SubsetterFit::check`]).
///
/// # Errors
///
/// Returns the backend name plus the first contract violation.
pub fn check_backend_partition(
    backend: &dyn SubsetterBackend,
    points: Points<'_>,
) -> Result<(), String> {
    let fit = backend.fit(points);
    fit.check(points.len())
        .map_err(|e| format!("backend {}: {e}", backend.name()))
}

/// **Backend permutation invariance**: a backend's partition depends only
/// on the multiset of feature vectors, never on submission order. Fits the
/// original and a permuted copy and checks that the label sequences
/// correspond under the permutation and that the representative *vectors*
/// (not indices) are identical.
///
/// `permutation` maps new position → original point index.
///
/// # Errors
///
/// Returns the backend name plus the divergence, or a description of a
/// malformed `permutation`.
pub fn check_backend_permutation(
    backend: &dyn SubsetterBackend,
    points: Points<'_>,
    permutation: &[usize],
) -> Result<(), String> {
    if permutation.len() != points.len() {
        return Err(format!(
            "permutation length {} != point count {}",
            permutation.len(),
            points.len()
        ));
    }
    let mut seen = vec![false; points.len()];
    for &p in permutation {
        if p >= points.len() || seen[p] {
            return Err(format!("not a permutation: index {p}"));
        }
        seen[p] = true;
    }
    let shuffled_data = points.gather(permutation);
    let shuffled = Points::new(&shuffled_data, points.dim());
    let a = backend.fit(points);
    let b = backend.fit(shuffled);
    // Point permutation[i] of the original is point i of the shuffle, so
    // under canonical labels the sequences must correspond exactly.
    let relabeled: Vec<usize> = permutation
        .iter()
        .map(|&i| a.clustering.assignments()[i])
        .collect();
    if relabeled != b.clustering.assignments() {
        return Err(format!(
            "backend {}: assignments depend on point order",
            backend.name()
        ));
    }
    let reps_a: Vec<&[f64]> = a.representatives.iter().map(|&r| points.row(r)).collect();
    let reps_b: Vec<&[f64]> = b.representatives.iter().map(|&r| shuffled.row(r)).collect();
    if reps_a != reps_b {
        return Err(format!(
            "backend {}: representative vectors depend on point order",
            backend.name()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_cluster::ThresholdSubsetter;
    use subset3d_core::{cluster_frame, SubsetConfig};
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::racing("meta")
            .frames(3)
            .draws_per_frame(30)
            .build(21)
            .generate()
    }

    #[test]
    fn all_checkers_pass_on_a_real_workload() {
        let w = workload();
        let config = ArchConfig::baseline();
        check_frequency_monotone(&w, &config, &[500.0, 800.0, 1100.0]).unwrap();
        check_cache_modes_identical(&w, &config).unwrap();

        let frame = &w.frames()[0];
        let n = frame.draw_count();
        let reversed: Vec<usize> = (0..n).rev().collect();
        check_draw_permutation(frame, &w, &config, &reversed).unwrap();

        let clustering = cluster_frame(frame, &w, &SubsetConfig::default());
        let sim = Simulator::new(config);
        let cost = sim.simulate_frame(frame, &w).unwrap();
        let k = clustering.clusters.len();
        let rotate: Vec<usize> = (0..k).map(|i| (i + 1) % k).collect();
        check_cluster_relabeling(&clustering, &cost, &rotate).unwrap();
    }

    #[test]
    fn backend_checkers_pass_and_reject() {
        let data: Vec<f64> = (0..20)
            .flat_map(|i| [(i as f64 * 0.9).sin() * 2.0, i as f64 % 3.0])
            .collect();
        let points = Points::new(&data, 2);
        let backend = ThresholdSubsetter::new(0.7);
        check_backend_partition(&backend, points).unwrap();
        let reversed: Vec<usize> = (0..points.len()).rev().collect();
        check_backend_permutation(&backend, points, &reversed).unwrap();
        let bad = vec![0; points.len()];
        let err = check_backend_permutation(&backend, points, &bad).unwrap_err();
        assert!(err.contains("not a permutation"), "{err}");
    }

    #[test]
    fn malformed_permutation_is_rejected() {
        let w = workload();
        let frame = &w.frames()[0];
        let bad = vec![0; frame.draw_count()];
        let err = check_draw_permutation(frame, &w, &ArchConfig::baseline(), &bad).unwrap_err();
        assert!(err.contains("not a permutation"), "{err}");
    }
}
