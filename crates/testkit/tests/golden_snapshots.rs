//! End-to-end golden-snapshot gate: the full pipeline (clustering →
//! evaluation → phases → subset → scaling validation) on the frozen
//! golden corpus, serialised and compared byte-for-byte against
//! `tests/golden/pipeline_<profile>.json`. One more input runs the
//! shooter profile with PCA projection on (`pca_components: Some(4)`),
//! pinned as `pipeline_shooter_pca4.json`, so the projection path is
//! held to the same byte-for-byte standard as the default pipeline.
//!
//! Regenerate after an intentional behaviour change:
//! `UPDATE_GOLDEN=1 cargo test -p subset3d-testkit --test golden_snapshots`

use subset3d_core::{frequency_scaling_validation, PipelineSnapshot, SubsetConfig, Subsetter};
use subset3d_gpusim::{ArchConfig, FrequencySweep, Simulator};
use subset3d_testkit::corpus::golden_corpus;
use subset3d_testkit::golden::{check_golden, GoldenOutcome};
use subset3d_trace::Workload;

/// Clocks swept by the golden scaling validation; frozen like the corpus.
const GOLDEN_SWEEP_MHZ: [f64; 3] = [500.0, 800.0, 1100.0];

/// PCA components of the projected-pipeline golden input.
const GOLDEN_PCA_COMPONENTS: usize = 4;

/// Every golden input: `(golden name, workload, pipeline config)` — the
/// corpus under the default config, plus the shooter profile projected
/// onto [`GOLDEN_PCA_COMPONENTS`] principal components.
fn golden_inputs() -> Vec<(String, Workload, SubsetConfig)> {
    let mut inputs = Vec::new();
    for (name, workload) in golden_corpus() {
        if name == "shooter" {
            inputs.push((
                format!("pipeline_{name}_pca{GOLDEN_PCA_COMPONENTS}"),
                workload.clone(),
                SubsetConfig::default().with_pca(Some(GOLDEN_PCA_COMPONENTS)),
            ));
        }
        inputs.push((
            format!("pipeline_{name}"),
            workload,
            SubsetConfig::default(),
        ));
    }
    inputs
}

fn snapshot_json(workload: &Workload, subset_config: &SubsetConfig) -> String {
    let config = ArchConfig::baseline();
    let sim = Simulator::new(config.clone());
    let outcome = Subsetter::new(subset_config.clone())
        .run(workload, &sim)
        .expect("pipeline run");
    let scaling = frequency_scaling_validation(
        workload,
        &outcome.subset,
        &config,
        &FrequencySweep::new(GOLDEN_SWEEP_MHZ.to_vec()),
    )
    .expect("scaling validation");
    let snapshot = PipelineSnapshot::capture(workload, &outcome).with_scaling(scaling);
    let mut json = serde_json::to_string_pretty(&snapshot).expect("serialise snapshot");
    json.push('\n');
    json
}

#[test]
fn pipeline_snapshots_match_golden() {
    let mut updated = 0;
    for (name, workload, config) in golden_inputs() {
        let json = snapshot_json(&workload, &config);
        match check_golden(&name, &json) {
            Ok(GoldenOutcome::Match) => {}
            Ok(GoldenOutcome::Updated) => updated += 1,
            Err(e) => panic!("{e}"),
        }
    }
    if updated > 0 {
        eprintln!("regenerated {updated} golden snapshot(s); review `git diff tests/golden/`");
    }
}

/// The snapshot payload itself must be run-to-run deterministic —
/// otherwise the golden gate would flake and `UPDATE_GOLDEN=1` would not
/// regenerate bit-identically.
#[test]
fn snapshot_json_is_bit_identical_across_runs() {
    let (_, workload) = golden_corpus().remove(0);
    let config = SubsetConfig::default();
    let a = snapshot_json(&workload, &config);
    let b = snapshot_json(&workload, &config);
    assert_eq!(a, b, "snapshot serialisation must be deterministic");
}
