//! The fixed-seed workload corpus the harness runs against, and the
//! hostile point sets the threshold-fit tests run against.
//!
//! Seeds and shapes are deliberately frozen: the oracle matrix, the golden
//! snapshots and the tier-1 `oracle_divergence` test all assume these
//! exact workloads. Changing a seed here invalidates the committed golden
//! files (regenerate with `UPDATE_GOLDEN=1`).

use subset3d_trace::gen::GameProfile;
use subset3d_trace::Workload;

/// Frames per oracle-corpus workload.
pub const ORACLE_FRAMES: usize = 8;

/// Draws per frame in the oracle corpus. The generator treats this as a
/// target that phase load curves modulate, so the realised count varies by
/// profile; 200 keeps every profile past the simulator's 1000-draw
/// threshold (racing, the lightest, lands at ~1348), so the parallel
/// fan-out path is exercised whenever the global pool has two or more
/// threads.
pub const ORACLE_DRAWS_PER_FRAME: usize = 200;

/// Frames per golden-snapshot workload (smaller: the whole pipeline runs,
/// not just the simulator).
pub const GOLDEN_FRAMES: usize = 12;

/// Draws per frame in the golden-snapshot corpus.
pub const GOLDEN_DRAWS_PER_FRAME: usize = 40;

/// The three game profiles with their frozen corpus seeds.
pub const PROFILES: [(&str, u64); 3] = [("shooter", 11), ("rts", 13), ("racing", 17)];

fn build(profile: &str, seed: u64, frames: usize, draws: usize) -> Workload {
    let builder = match profile {
        "shooter" => GameProfile::shooter(profile),
        "rts" => GameProfile::rts(profile),
        "racing" => GameProfile::racing(profile),
        other => panic!("unknown profile {other:?}"),
    };
    builder
        .frames(frames)
        .draws_per_frame(draws)
        .build(seed)
        .generate()
}

/// The oracle corpus: one 1200-draw workload per game profile.
pub fn oracle_corpus() -> Vec<(&'static str, Workload)> {
    PROFILES
        .iter()
        .map(|&(name, seed)| {
            (
                name,
                build(name, seed, ORACLE_FRAMES, ORACLE_DRAWS_PER_FRAME),
            )
        })
        .collect()
}

/// The golden-snapshot corpus: one small workload per game profile, sized
/// for full pipeline runs.
pub fn golden_corpus() -> Vec<(&'static str, Workload)> {
    PROFILES
        .iter()
        .map(|&(name, seed)| {
            (
                name,
                build(name, seed, GOLDEN_FRAMES, GOLDEN_DRAWS_PER_FRAME),
            )
        })
        .collect()
}

/// Values a coordinate of [`hostile_rows`] takes instead of a grid value,
/// at the case's special rate.
pub const SPECIALS: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// SplitMix64: expands one case seed into a point set.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Hostile input for the threshold fit: `n` rows of `dim` coordinates on a
/// coarse grid scaled by `spread`, so distances straddle the 1.02
/// threshold. About a quarter of the rows repeat an earlier row, another
/// quarter repeat only its coordinate 0, and `special_per_mille` of the
/// fresh coordinates are [`SPECIALS`].
pub fn hostile_rows(
    seed: u64,
    n: usize,
    dim: usize,
    spread: f64,
    special_per_mille: u64,
) -> Vec<Vec<f64>> {
    let mut mix = Mix(seed);
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut row: Vec<f64> = (0..dim)
            .map(|_| {
                if mix.below(1000) < special_per_mille {
                    SPECIALS[mix.below(SPECIALS.len() as u64) as usize]
                } else {
                    (mix.below(9) as f64 - 4.0) * 0.5 * spread
                }
            })
            .collect();
        if i > 0 {
            let earlier = mix.below(i as u64) as usize;
            match mix.below(4) {
                0 => row.clone_from(&out[earlier]),
                1 => row[0] = out[earlier][0],
                _ => {}
            }
        }
        out.push(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_sized_for_parallel_path() {
        let a = oracle_corpus();
        let b = oracle_corpus();
        assert_eq!(a.len(), 3);
        for ((name_a, wa), (name_b, wb)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            assert_eq!(wa, wb, "corpus generation must be deterministic");
            assert!(
                wa.total_draws() >= 1000,
                "{name_a} must cross the parallel threshold"
            );
        }
    }

    #[test]
    fn golden_corpus_covers_all_profiles() {
        let names: Vec<_> = golden_corpus().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["shooter", "rts", "racing"]);
    }
}
