//! The differential oracle: naive reference vs optimized path, bitwise.
//!
//! [`run_oracle`] simulates a workload through the production
//! [`Simulator`] — memo cache, frame digests, thread pool and all — and
//! through the orchestration-free reference model in
//! [`subset3d_gpusim::reference`], then compares every field. Floats are
//! compared **by bit pattern** ([`f64::to_bits`]): the reference mirrors
//! the production arithmetic expression for expression, so IEEE 754
//! guarantees equality unless the optimized layer changed *what* was
//! computed — exactly the bug class under test.
//!
//! Energy, the frequency-scaling improvement series and the per-frame
//! prediction-error computation are covered by the same treatment.

use subset3d_core::{cluster_frame, predict_frame, FramePrediction, SubsetConfig};
use subset3d_gpusim::reference;
use subset3d_gpusim::{ArchConfig, CacheMode, PowerModel, SimError, Simulator, WorkloadCost};
use subset3d_trace::Workload;

/// Core clocks (MHz) swept by the oracle's improvement-series check.
pub const ORACLE_SWEEP_MHZ: [f64; 3] = [600.0, 900.0, 1200.0];

/// One field-level disagreement between the reference and optimized paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Which run the disagreement came from, e.g. `"shooter/On/8t"`.
    pub context: String,
    /// Where in the output it sits, e.g. `"frame 3, draw 17"`.
    pub location: String,
    /// The differing field, e.g. `"time_ns"`.
    pub field: String,
    /// The reference value (floats rendered with their bit pattern).
    pub reference: String,
    /// The optimized value.
    pub optimized: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} :: {}: reference {} != optimized {}",
            self.context, self.location, self.field, self.reference, self.optimized
        )
    }
}

/// Everything one oracle run checked and found.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// Field-level disagreements, in discovery order.
    pub divergences: Vec<Divergence>,
    /// Number of draw costs compared.
    pub draws_compared: usize,
}

impl OracleReport {
    /// Whether the optimized path agreed with the reference on every bit.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Panics with a readable report when any divergence was found.
    ///
    /// # Panics
    ///
    /// Panics if [`OracleReport::is_clean`] is false.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "differential oracle found {} divergence(s); first: {}",
            self.divergences.len(),
            self.divergences[0]
        );
    }
}

fn float_repr(v: f64) -> String {
    format!("{v:e} (bits {:#018x})", v.to_bits())
}

struct Comparator {
    context: String,
    out: Vec<Divergence>,
}

impl Comparator {
    fn new(context: &str) -> Self {
        Comparator {
            context: context.to_string(),
            out: Vec::new(),
        }
    }

    fn float(&mut self, location: &str, field: &str, reference: f64, optimized: f64) {
        if reference.to_bits() != optimized.to_bits() {
            self.out.push(Divergence {
                context: self.context.clone(),
                location: location.to_string(),
                field: field.to_string(),
                reference: float_repr(reference),
                optimized: float_repr(optimized),
            });
        }
    }

    fn other(&mut self, location: &str, field: &str, reference: String, optimized: String) {
        if reference != optimized {
            self.out.push(Divergence {
                context: self.context.clone(),
                location: location.to_string(),
                field: field.to_string(),
                reference,
                optimized,
            });
        }
    }
}

/// Compares two workload costs field by field, bitwise on every float.
pub fn compare_costs(
    context: &str,
    reference: &WorkloadCost,
    optimized: &WorkloadCost,
) -> Vec<Divergence> {
    let mut cmp = Comparator::new(context);
    cmp.other(
        "workload",
        "frame count",
        reference.frames.len().to_string(),
        optimized.frames.len().to_string(),
    );
    cmp.float(
        "workload",
        "total_ns",
        reference.total_ns,
        optimized.total_ns,
    );
    for (fi, (rf, of)) in reference.frames.iter().zip(&optimized.frames).enumerate() {
        let frame_loc = format!("frame {fi}");
        cmp.other(
            &frame_loc,
            "draw count",
            rf.draws.len().to_string(),
            of.draws.len().to_string(),
        );
        cmp.float(&frame_loc, "total_ns", rf.total_ns, of.total_ns);
        for (di, (rd, od)) in rf.draws.iter().zip(&of.draws).enumerate() {
            let loc = format!("frame {fi}, draw {di}");
            cmp.float(
                &loc,
                "geometry_cycles",
                rd.geometry_cycles,
                od.geometry_cycles,
            );
            cmp.float(&loc, "raster_cycles", rd.raster_cycles, od.raster_cycles);
            cmp.float(&loc, "pixel_cycles", rd.pixel_cycles, od.pixel_cycles);
            cmp.float(&loc, "texture_cycles", rd.texture_cycles, od.texture_cycles);
            cmp.float(&loc, "rop_cycles", rd.rop_cycles, od.rop_cycles);
            cmp.float(
                &loc,
                "overhead_cycles",
                rd.overhead_cycles,
                od.overhead_cycles,
            );
            cmp.float(&loc, "mem_bytes", rd.mem_bytes, od.mem_bytes);
            cmp.float(&loc, "time_ns", rd.time_ns, od.time_ns);
            cmp.other(
                &loc,
                "bottleneck",
                format!("{:?}", rd.bottleneck),
                format!("{:?}", od.bottleneck),
            );
        }
    }
    cmp.out
}

/// Naive transcription of [`subset3d_core::predict_frame`]: indexed loops,
/// no iterator adapters, same summation order (so bit-identical output is
/// expected, not approximate).
pub fn reference_predict_frame(
    clustering: &subset3d_core::FrameClustering,
    cost: &subset3d_gpusim::FrameCost,
) -> FramePrediction {
    assert_eq!(clustering.draw_count, cost.draws.len());
    let actual_ns = cost.total_ns;
    let mut predicted_ns = 0.0;
    let mut cluster_errors = Vec::with_capacity(clustering.clusters.len());
    for cluster in &clustering.clusters {
        let rep_cost = cost.draws[cluster.representative].time_ns;
        let cluster_predicted = rep_cost * cluster.len() as f64;
        let mut cluster_actual = 0.0;
        for &m in &cluster.members {
            cluster_actual += cost.draws[m].time_ns;
        }
        predicted_ns += cluster_predicted;
        cluster_errors.push(if cluster_actual > 0.0 {
            (cluster_predicted - cluster_actual).abs() / cluster_actual
        } else {
            0.0
        });
    }
    FramePrediction {
        actual_ns,
        predicted_ns,
        cluster_errors,
    }
}

/// Runs the full differential oracle for one workload under one simulator
/// configuration: costs, energy, improvement series and per-frame
/// prediction errors.
///
/// The simulator's cache mode and the ambient thread count are whatever
/// the caller set — the whole point is comparing those configurations
/// against the cache-free single-threaded reference.
///
/// # Errors
///
/// Propagates [`SimError`] when either path rejects the workload; a
/// *divergence in error behaviour* (one path fails, the other succeeds)
/// is reported as a [`Divergence`] instead.
pub fn run_oracle(
    context: &str,
    workload: &Workload,
    sim: &Simulator,
) -> Result<OracleReport, SimError> {
    run_oracle_with_config(context, workload, sim, &SubsetConfig::default())
}

/// [`run_oracle`] with an explicit pipeline configuration for the
/// prediction-layer check, so the oracle can hold *every* clustering
/// backend — not just the default threshold method — to the bitwise
/// contract.
///
/// # Errors
///
/// Propagates [`SimError`] as [`run_oracle`] does.
pub fn run_oracle_with_config(
    context: &str,
    workload: &Workload,
    sim: &Simulator,
    subset_config: &SubsetConfig,
) -> Result<OracleReport, SimError> {
    let config = sim.config().clone();
    let reference_cost = reference::reference_workload_cost(workload, &config)?;
    let optimized_cost = sim.simulate_workload(workload)?;
    let mut divergences = compare_costs(context, &reference_cost, &optimized_cost);
    let draws_compared = reference_cost.total_draws();

    // Energy: flat reference double-loop vs the production power model.
    let model = PowerModel::default_for(&config);
    let reference_energy = reference::reference_workload_energy(&reference_cost, &model, &config);
    let optimized_energy = model.workload_energy(&optimized_cost, &config);
    let mut cmp = Comparator::new(context);
    cmp.float(
        "workload energy",
        "dynamic_nj",
        reference_energy.dynamic_nj,
        optimized_energy.dynamic_nj,
    );
    cmp.float(
        "workload energy",
        "static_nj",
        reference_energy.static_nj,
        optimized_energy.static_nj,
    );
    cmp.float(
        "workload energy",
        "memory_nj",
        reference_energy.memory_nj,
        optimized_energy.memory_nj,
    );

    // Frequency scaling: both paths sweep the same clocks; the improvement
    // series must agree bit for bit.
    let reference_series =
        reference::reference_improvement_series(workload, &config, &ORACLE_SWEEP_MHZ)?;
    let mut optimized_times = Vec::with_capacity(ORACLE_SWEEP_MHZ.len());
    for &mhz in &ORACLE_SWEEP_MHZ {
        let swept = Simulator::new(config.with_core_clock(mhz));
        swept.set_cache_mode(sim.cache_mode());
        swept.set_batch_width(sim.batch_width());
        optimized_times.push(swept.simulate_workload(workload)?.total_ns);
    }
    let optimized_series = subset3d_gpusim::FrequencySweep::improvement_series(&optimized_times);
    for (i, (r, o)) in reference_series.iter().zip(&optimized_series).enumerate() {
        cmp.float(
            &format!("improvement series, point {i}"),
            "improvement",
            *r,
            *o,
        );
    }

    // Prediction error: the clustering evaluation arithmetic, naive vs
    // production, on the optimized costs (the cost layer was compared
    // above; this isolates the prediction layer).
    for (fi, frame) in workload.frames().iter().enumerate() {
        let clustering = cluster_frame(frame, workload, subset_config);
        let cost = &optimized_cost.frames[fi];
        let reference_pred = reference_predict_frame(&clustering, cost);
        let optimized_pred = predict_frame(&clustering, cost);
        let loc = format!("frame {fi} prediction");
        cmp.float(
            &loc,
            "actual_ns",
            reference_pred.actual_ns,
            optimized_pred.actual_ns,
        );
        cmp.float(
            &loc,
            "predicted_ns",
            reference_pred.predicted_ns,
            optimized_pred.predicted_ns,
        );
        cmp.float(
            &loc,
            "error",
            reference_pred.error(),
            optimized_pred.error(),
        );
        for (ci, (r, o)) in reference_pred
            .cluster_errors
            .iter()
            .zip(&optimized_pred.cluster_errors)
            .enumerate()
        {
            cmp.float(&loc, &format!("cluster_errors[{ci}]"), *r, *o);
        }
    }

    divergences.extend(cmp.out);
    Ok(OracleReport {
        divergences,
        draws_compared,
    })
}

/// Runs [`run_oracle`] twice for every cache mode — the second pass hits
/// whatever the first pass cached — and returns all divergences found.
///
/// # Errors
///
/// Propagates [`SimError`] from any pass.
pub fn run_oracle_all_modes(
    label: &str,
    workload: &Workload,
    config: &ArchConfig,
) -> Result<OracleReport, SimError> {
    run_oracle_all_modes_with_config(label, workload, config, &SubsetConfig::default())
}

/// [`run_oracle_all_modes`] with an explicit pipeline configuration, so
/// the cache-mode matrix can be swept once per clustering backend.
///
/// # Errors
///
/// Propagates [`SimError`] from any pass.
pub fn run_oracle_all_modes_with_config(
    label: &str,
    workload: &Workload,
    config: &ArchConfig,
    subset_config: &SubsetConfig,
) -> Result<OracleReport, SimError> {
    let threads = subset3d_exec::thread_count();
    let mut divergences = Vec::new();
    let mut draws_compared = 0;
    for mode in [CacheMode::On, CacheMode::Off] {
        let sim = Simulator::new(config.clone());
        sim.set_cache_mode(mode);
        for pass in 0..2 {
            let context = format!("{label}/{mode:?}/{threads}t/pass{pass}");
            let report = run_oracle_with_config(&context, workload, &sim, subset_config)?;
            divergences.extend(report.divergences);
            draws_compared += report.draws_compared;
        }
    }
    Ok(OracleReport {
        divergences,
        draws_compared,
    })
}

/// Runs [`run_oracle`] at every combination of cache mode and batch
/// width, twice each. Batching must be invisible: whether a frame is
/// executed draw by draw (`width 1`), in the default 64-draw batches, or
/// in 128-draw batches (each leaving a different ragged tail), every
/// cost bit must match the struct-at-a-time reference.
///
/// # Errors
///
/// Propagates [`SimError`] from any pass.
pub fn run_oracle_batch_widths(
    label: &str,
    workload: &Workload,
    config: &ArchConfig,
    widths: &[usize],
) -> Result<OracleReport, SimError> {
    let threads = subset3d_exec::thread_count();
    let mut divergences = Vec::new();
    let mut draws_compared = 0;
    for &width in widths {
        for mode in [CacheMode::On, CacheMode::Off] {
            let sim = Simulator::new(config.clone());
            sim.set_cache_mode(mode);
            sim.set_batch_width(width);
            for pass in 0..2 {
                let context = format!("{label}/{mode:?}/w{width}/{threads}t/pass{pass}");
                let report = run_oracle(&context, workload, &sim)?;
                divergences.extend(report.divergences);
                draws_compared += report.draws_compared;
            }
        }
    }
    Ok(OracleReport {
        divergences,
        draws_compared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    #[test]
    fn oracle_clean_on_small_workload() {
        let w = GameProfile::shooter("oracle-smoke")
            .frames(2)
            .draws_per_frame(25)
            .build(3)
            .generate();
        let report = run_oracle_all_modes("smoke", &w, &ArchConfig::baseline()).unwrap();
        assert!(report.draws_compared > 0);
        report.assert_clean();
    }

    #[test]
    fn compare_costs_flags_a_flipped_bit() {
        let w = GameProfile::rts("oracle-flip")
            .frames(1)
            .draws_per_frame(10)
            .build(4)
            .generate();
        let config = ArchConfig::baseline();
        let reference = reference::reference_workload_cost(&w, &config).unwrap();
        let mut tampered = reference.clone();
        let t = &mut tampered.frames[0].draws[3].time_ns;
        *t = f64::from_bits(t.to_bits() ^ 1);
        let divergences = compare_costs("flip", &reference, &tampered);
        assert_eq!(divergences.len(), 1);
        assert_eq!(divergences[0].field, "time_ns");
        assert_eq!(divergences[0].location, "frame 0, draw 3");
    }
}
