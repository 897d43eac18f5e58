//! E13 — Extension figure: how many feature dimensions matter?
//!
//! Projects the per-frame MAI features onto their top-k principal
//! components before clustering and tracks the operating point as k drops,
//! plus the variance captured by each k.

use subset3d_bench::{header, pct};
use subset3d_core::{SubsetConfig, Subsetter, Table};
use subset3d_features::{extract_frame_features, Normalization};
use subset3d_gpusim::{ArchConfig, Simulator};
use subset3d_stats::Pca;
use subset3d_trace::gen::{GameProfile, CORPUS_SEED};

fn main() {
    header("E13", "PCA dimensionality of the MAI feature space");
    let workload = GameProfile::shooter("shock-1")
        .frames(40)
        .draws_per_frame(1000)
        .build(CORPUS_SEED)
        .generate();
    let sim = Simulator::new(ArchConfig::baseline());

    // Variance spectrum of one representative frame.
    let config = SubsetConfig::default();
    let mut matrix =
        extract_frame_features(&workload.frames()[20], &workload, config.features.clone());
    matrix.normalize(Normalization::ZScore);
    matrix.apply_cost_weights();
    let full_pca = Pca::fit(&matrix.to_rows(), matrix.cols()).expect("pca");
    let total: f64 = full_pca.explained_variance().iter().sum();
    print!("variance captured by top-k components: ");
    let mut acc = 0.0;
    for (k, v) in full_pca.explained_variance().iter().enumerate().take(8) {
        acc += v;
        print!("k={} {:.0}%  ", k + 1, acc / total * 100.0);
    }
    println!("\n");

    let mut table = Table::new(vec!["dims", "efficiency", "pred. error", "outliers"]);
    let mut run = |label: String, config: SubsetConfig| {
        let outcome = Subsetter::new(config)
            .run(&workload, &sim)
            .expect("pipeline");
        table.row(vec![
            label,
            pct(outcome.evaluation.mean_efficiency()),
            pct(outcome.evaluation.mean_prediction_error()),
            pct(outcome.evaluation.outlier_fraction()),
        ]);
    };
    run("full (19)".to_string(), SubsetConfig::default());
    for k in [12usize, 8, 6, 4, 2] {
        run(
            format!("pca {k}"),
            SubsetConfig::default().with_pca(Some(k)),
        );
    }
    println!("{}", table.render());
    println!("a handful of principal directions carries most of the clustering signal");
}
