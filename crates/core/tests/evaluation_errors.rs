//! Error order of the parallel evaluation stage.
//!
//! `Subsetter::run` simulates frames as independent pool tasks, so a
//! later frame may fail before an earlier one in wall time. The error it
//! returns must still be the first failing frame's in trace order, at
//! every thread count. A single `#[test]` drives all thread counts
//! because the pool is process-global.

use subset3d_core::{SubsetConfig, SubsetError, Subsetter};
use subset3d_gpusim::{ArchConfig, SimError, Simulator};
use subset3d_trace::gen::GameProfile;
use subset3d_trace::{DrawId, Frame, ShaderId, Workload};

/// Rebuilds `w` with one draw of each listed frame pointing its pixel
/// shader at a dangling id, and returns the rebuilt workload plus each
/// corrupted draw's id.
fn corrupt(w: &Workload, targets: &[(usize, usize, ShaderId)]) -> (Workload, Vec<DrawId>) {
    let mut frames: Vec<Frame> = w.frames().to_vec();
    let mut ids = Vec::new();
    for &(frame, draw, shader) in targets {
        let mut draws = frames[frame].to_draws();
        draws[draw].pixel_shader = shader;
        ids.push(draws[draw].id);
        frames[frame] = Frame::new(frames[frame].id, draws);
    }
    let rebuilt = Workload::new(
        w.name.clone(),
        frames,
        w.shaders().clone(),
        w.textures().clone(),
        w.states().clone(),
    );
    (rebuilt, ids)
}

#[test]
fn first_failing_frame_in_trace_order_wins_at_any_thread_count() {
    let clean = GameProfile::shooter("errors")
        .frames(12)
        .draws_per_frame(120)
        .build(5)
        .generate();
    let early_shader = ShaderId(u32::MAX);
    let late_shader = ShaderId(u32::MAX - 1);
    // The earlier frame fails on its last draw, the later one on its
    // first, so the later frame's error is usually raised first in time.
    let last = clean.frames()[2].draw_count() - 1;
    let (workload, ids) = corrupt(&clean, &[(2, last, early_shader), (9, 0, late_shader)]);
    assert_ne!(ids[0], ids[1], "the two corrupted draws must differ");
    let expected = SubsetError::Simulation(SimError::UnknownShader {
        draw: ids[0],
        shader: early_shader,
    });

    let sim = Simulator::new(ArchConfig::baseline());
    let subsetter = Subsetter::new(SubsetConfig::default());
    let max = subset3d_exec::default_threads().max(4);
    for threads in [1, 2, max] {
        subset3d_exec::set_thread_count(threads);
        assert_eq!(
            subsetter.run(&workload, &sim),
            Err(expected.clone()),
            "error at {threads} threads"
        );
    }
}
