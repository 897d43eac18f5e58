//! Benchmark inputs, generated from the workload seed alone.

use subset3d_trace::gen::GameProfile;
use subset3d_trace::{merge_workloads, Workload};

/// Genre of one corpus title.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Genre {
    /// `GameProfile::shooter`.
    Shooter,
    /// `GameProfile::rts`.
    Rts,
    /// `GameProfile::racing`.
    Racing,
}

/// One corpus title: name, genre, frames and mean draws per frame.
pub type TitleSpec = (&'static str, Genre, usize, usize);

/// The `standard_corpus()` shapes: 717 frames, ≈833K draws. Title `i` is
/// generated from `seed + i`, so the default seed (`CORPUS_SEED`)
/// reproduces `standard_corpus()` exactly.
pub const STANDARD_CORPUS: [TitleSpec; 6] = [
    ("shock-1", Genre::Shooter, 120, 1400),
    ("shock-2", Genre::Shooter, 130, 1300),
    ("shock-infinite", Genre::Shooter, 140, 1200),
    ("stratcraft", Genre::Rts, 110, 1000),
    ("speedrush", Genre::Racing, 107, 950),
    ("cryptdepth", Genre::Shooter, 110, 980),
];

/// Offset of the serve stream's seeds from the workload seed, so the
/// stream shares no generator state with the corpus titles.
const STREAM_SEED_OFFSET: u64 = 0x5E57_0000;

/// Frames per INGEST chunk.
pub(crate) const CHUNK_FRAMES: usize = 4;

/// Closed-loop client connections.
pub(crate) const CLIENTS: usize = 2;

/// Sweep passes per pathfinding op (the first is cold).
pub(crate) const SWEEP_PASSES: usize = 3;

/// Input sizes of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Corpus titles (batch_subset, pathfinding_sweep).
    pub corpus: Vec<TitleSpec>,
    /// Frames of the recorded serve stream.
    pub stream_frames: usize,
    /// Shooter levels the stream is recorded over, each generated from
    /// its own seed.
    pub stream_levels: usize,
    /// Mean draws per stream frame.
    pub stream_draws: usize,
    /// Set-ups per run at least; `setup_s` is their median.
    pub setups: usize,
    /// Seconds a run keeps setting up at least, so a set-up of a fraction
    /// of a second (the serve stream's) is repeated often enough for a
    /// steady median.
    pub setup_seconds: f64,
    /// Minimum latency samples a batch or sweep run collects before it
    /// stops; it fixes the tail percentile (p75 at 40).
    pub min_samples: usize,
}

impl Sizes {
    /// The sizes the benchmark reports on.
    pub fn full() -> Self {
        Sizes {
            corpus: STANDARD_CORPUS.to_vec(),
            stream_frames: 3000,
            stream_levels: 24,
            stream_draws: 100,
            setups: 3,
            setup_seconds: 4.0,
            min_samples: 40,
        }
    }

    /// Small inputs for the benchmark's own tests.
    pub fn tiny() -> Self {
        Sizes {
            corpus: vec![
                ("tiny-shooter", Genre::Shooter, 24, 60),
                ("tiny-rts", Genre::Rts, 20, 50),
            ],
            stream_frames: 100,
            stream_levels: 2,
            stream_draws: 30,
            setups: 2,
            setup_seconds: 0.0,
            min_samples: 24,
        }
    }
}

fn profile(name: &str, genre: Genre) -> GameProfile {
    match genre {
        Genre::Shooter => GameProfile::shooter(name),
        Genre::Rts => GameProfile::rts(name),
        Genre::Racing => GameProfile::racing(name),
    }
}

/// Generates the corpus: title `i` from `seed + i`.
pub fn corpus(specs: &[TitleSpec], seed: u64) -> Vec<Workload> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(name, genre, frames, draws))| {
            profile(name, genre)
                .frames(frames)
                .draws_per_frame(draws)
                .build(seed.wrapping_add(i as u64))
                .generate()
        })
        .collect()
}

/// Generates the recorded shooter stream every serve client replays: one
/// play session over `stream_levels` levels, level `i` generated from
/// `seed + offset + i` and merged into one trace. Spreading the stream
/// over levels keeps its cost — the cross-frame fit's cluster count, which
/// sets the per-chunk re-fit time — from hinging on one level's draws.
pub fn stream(sizes: &Sizes, seed: u64) -> Workload {
    let levels = sizes.stream_levels.max(1);
    let parts: Vec<Workload> = (0..levels)
        .map(|i| {
            GameProfile::shooter(format!("level-{i}"))
                .frames(sizes.stream_frames / levels)
                .draws_per_frame(sizes.stream_draws)
                .build(seed.wrapping_add(STREAM_SEED_OFFSET + i as u64))
                .generate()
        })
        .collect();
    let parts: Vec<&Workload> = parts.iter().collect();
    merge_workloads("stream", &parts)
}
