//! E19 — Use-case figure: subset-driven design-space exploration.
//!
//! The closing loop of pathfinding: enumerate a grid of candidate designs,
//! position each in the (area, performance) plane, and extract the Pareto
//! front — once from full-trace simulation and once from subset replay.
//! The fronts must agree for subsets to be a sound pathfinding substrate.

use subset3d_bench::{header, ms, run_default_pipeline};
use subset3d_core::Table;
use subset3d_gpusim::{pareto_front, sweep_configs, ArchConfig, AreaModel, DesignPoint, Simulator};
use subset3d_trace::gen::{GameProfile, CORPUS_SEED};

/// A 12-point design grid: EU count × memory width.
fn design_grid() -> Vec<ArchConfig> {
    let mut grid = Vec::new();
    for &eu in &[12u32, 24, 36, 48] {
        for &bus in &[32u32, 48, 96] {
            let scale = eu / 12;
            grid.push(
                ArchConfig::baseline()
                    .to_builder()
                    .name(format!("eu{eu}-bus{bus}"))
                    .eu_count(eu)
                    .tex_rate(8 * scale)
                    .rop_rate(4 * scale)
                    .raster_rate(8 * scale)
                    .mem_bus_bytes(bus)
                    .build(),
            );
        }
    }
    grid
}

fn main() {
    header(
        "E19",
        "design-space exploration: Pareto front from subsets vs full trace",
    );
    let workload = GameProfile::shooter("shock-1")
        .frames(80)
        .draws_per_frame(900)
        .build(CORPUS_SEED)
        .generate();
    let outcome = run_default_pipeline(&workload);
    let area_model = AreaModel::default();
    let grid = design_grid();

    let parent_times = sweep_configs(&workload, &grid).expect("sweep");
    let mut parent_points = Vec::new();
    let mut subset_points = Vec::new();
    for (config, parent) in grid.iter().zip(parent_times) {
        let sim = Simulator::new(config.clone());
        let area = area_model.area_mm2(config);
        parent_points.push(DesignPoint {
            name: config.name.clone(),
            area_mm2: area,
            time_ns: parent.total_ns,
        });
        subset_points.push(DesignPoint {
            name: config.name.clone(),
            area_mm2: area,
            time_ns: outcome.subset.replay(&workload, &sim).expect("replay"),
        });
    }

    let parent_front = pareto_front(&parent_points);
    let subset_front = pareto_front(&subset_points);

    let mut table = Table::new(vec![
        "design",
        "area mm²",
        "full-trace time",
        "subset estimate",
        "on front (full)",
        "on front (subset)",
    ]);
    for (i, config) in grid.iter().enumerate() {
        table.row(vec![
            config.name.clone(),
            format!("{:.0}", parent_points[i].area_mm2),
            ms(parent_points[i].time_ns),
            ms(subset_points[i].time_ns),
            if parent_front.contains(&i) {
                "*".into()
            } else {
                String::new()
            },
            if subset_front.contains(&i) {
                "*".into()
            } else {
                String::new()
            },
        ]);
    }
    println!("{}", table.render());

    let parent_names: Vec<&str> = parent_front
        .iter()
        .map(|&i| parent_points[i].name.as_str())
        .collect();
    let subset_names: Vec<&str> = subset_front
        .iter()
        .map(|&i| subset_points[i].name.as_str())
        .collect();
    println!("full-trace Pareto front: {}", parent_names.join(" → "));
    println!("subset     Pareto front: {}", subset_names.join(" → "));
    let agree = parent_names == subset_names;
    println!(
        "fronts {} — subset replay drives the same design decisions at {:.3}% of the cost",
        if agree { "agree exactly" } else { "differ" },
        outcome.subset.draw_fraction() * 100.0
    );
}
