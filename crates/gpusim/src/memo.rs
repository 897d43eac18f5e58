//! Batch-grain memoization of draw costs.
//!
//! The analytical cost of a draw depends only on the features
//! `analyze_draw` consumes — never on labels like the draw id, interned
//! state id, or the generator's material tag. Costs are therefore cached
//! by *content*: two batches share an entry exactly when `analyze_draw`
//! would receive bit-identical arguments for every member, in order, so a
//! memoized result is bit-identical to an uncached one by construction.
//!
//! Re-simulation — the pathfinding loop, which re-simulates the same
//! subset on every candidate design — is served at **batch** grain: the
//! simulator evaluates draws in fixed-width batches, and
//! [`CacheMode::On`] retains each batch's costs under a [`BatchKey`]. A
//! warm pass probes once per batch (not once per draw), skipping the
//! per-draw model entirely: `Simulator::simulate_workload` copies the
//! whole cost slice out, while a sweep (`SweepSession`) digests each
//! batch's key once for all its candidates, probes every candidate's
//! own cache with it, and reads only the draw times, under the read
//! lock, with no copy of the slice.
//!
//! Each draw contributes a 128-bit **shape digest** to its batch's key —
//! two independent 64-bit FNV-1a streams folded over the exact bit
//! patterns of every model input (fixed function, rasterisation
//! statistics, warmth, render target, both shader mixes, the
//! texture-registry fingerprint, and the raw bound texture ids; see
//! `shape_at` in `sim.rs`). Digesting reads the words straight out of the
//! columnar draw storage and never allocates or compares long keys; the
//! map is keyed on the 128-bit batch digest behind a pass-through hasher,
//! so a probe hashes nothing and compares 16 bytes. An accidental
//! collision is a 2⁻¹²⁸ event — the same contract the registry
//! fingerprint relies on.
//!
//! [`CacheMode::Off`], the default, computes no digest at all: single-pass
//! paths never revisit a batch, so retaining one would be pure cost.

use crate::cost::DrawCost;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use subset3d_obs::LazyCounter;
use subset3d_trace::TextureRegistry;

// Process-global mirrors of the per-cache counters (see `subset3d_obs`):
// each simulator keeps exact per-instance stats in `CacheStats`; these
// aggregate the same events across every cache in the process so a
// `MetricsSnapshot` shows cache behaviour without holding a `Simulator`.
static OBS_BATCH_HITS: LazyCounter = LazyCounter::new("gpusim.batch_cache.hits");
static OBS_BATCH_MISSES: LazyCounter = LazyCounter::new("gpusim.batch_cache.misses");

/// FNV-1a offset bases of the two independent digest streams, and the
/// shared 64-bit FNV prime.
const FNV_BASIS_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_BASIS_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Memoization policy of a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Re-simulation mode: retain every evaluated batch's costs, so
    /// repeating a pass over the same workload (sweep sessions,
    /// validation flows) is served batch-wholesale.
    On,
    /// Never memoize: every draw runs the analytical model, with no
    /// digest, probe or retained costs. The default, and the uncached
    /// baseline.
    Off,
}

/// A 128-bit FNV-1a digest of a [`TextureRegistry`]'s full contents.
///
/// Keying draws on raw texture ids is only sound within one registry;
/// folding this fingerprint into every shape digest extends that to any
/// registry whose *content* matches, and separates registries that
/// merely reuse ids. Two independent 64-bit FNV streams (distinct
/// offset bases) make an accidental cross-registry collision a 2⁻¹²⁸
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegistryFingerprint(pub(crate) [u64; 2]);

impl RegistryFingerprint {
    /// Digests every descriptor of `textures`, in registry (id) order.
    pub(crate) fn of(textures: &TextureRegistry) -> Self {
        let mut streams = ShapeHasher::new();
        for t in textures.iter() {
            streams.word(u64::from(t.id.0));
            streams.word(u64::from(t.width) | u64::from(t.height) << 32);
            streams.word(u64::from(t.mips) | (t.format as u64) << 32);
        }
        RegistryFingerprint(streams.streams)
    }
}

/// Dual-stream FNV-1a word folder: the primitive under shape digests,
/// batch digests, and the registry fingerprint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShapeHasher {
    streams: [u64; 2],
    words: u64,
}

impl ShapeHasher {
    pub(crate) fn new() -> Self {
        ShapeHasher {
            streams: [FNV_BASIS_A, FNV_BASIS_B],
            words: 0,
        }
    }

    /// Folds one 64-bit word into both streams.
    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        self.streams[0] = (self.streams[0] ^ w).wrapping_mul(FNV_PRIME);
        self.streams[1] = (self.streams[1] ^ w).wrapping_mul(FNV_PRIME);
        self.words += 1;
    }

    /// Finishes the digest: the word count is folded last so sequences
    /// of different lengths whose concatenations coincide stay distinct.
    #[inline]
    pub(crate) fn finish(mut self) -> [u64; 2] {
        let n = self.words;
        self.word(n);
        self.streams
    }
}

/// Content-addressed key of one draw in one warmth context: a 128-bit
/// digest of every `analyze_draw` input. Label fields (`id`, `state`,
/// `material_tag`, shader ids/names) are deliberately excluded by the
/// packing in `sim.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DrawShape(pub(crate) [u64; 2]);

/// Content-addressed key of one fixed-width batch: a 128-bit digest of
/// the batch's draw shapes, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchKey([u64; 2]);

impl std::hash::Hash for BatchKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0[0]);
    }
}

impl BatchKey {
    /// Digests a batch's draw shapes, in submission order. The shape
    /// count is folded by [`ShapeHasher::finish`], so a prefix batch
    /// never collides with its extension (ragged tail batches).
    pub(crate) fn of(shapes: impl IntoIterator<Item = DrawShape>) -> Self {
        let mut h = ShapeHasher::new();
        for s in shapes {
            h.word(s.0[0]);
            h.word(s.0[1]);
        }
        BatchKey(h.finish())
    }
}

/// Feeds a digest's precomputed first word straight to the map.
#[derive(Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("digest keys hash via write_u64 only");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Batch-cache counters of a simulator, taken at one instant. Lookups
/// are made only in [`CacheMode::On`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Whole batches served from the batch cache.
    pub batch_hits: u64,
    /// Batch lookups that evaluated draw by draw (and retained the
    /// result).
    pub batch_misses: u64,
}

impl CacheStats {
    /// Batch hits as a fraction of batch lookups, or `None` when the
    /// batch cache never **served** a lookup (zero hits): a cache that
    /// was never consulted and one that only missed both contributed
    /// nothing, so neither has a meaningful rate.
    pub fn batch_hit_rate(&self) -> Option<f64> {
        if self.batch_hits == 0 {
            None
        } else {
            Some(self.batch_hits as f64 / (self.batch_hits + self.batch_misses) as f64)
        }
    }
}

/// Thread-safe memo table from [`BatchKey`] to a batch's draw costs.
///
/// One entry per distinct batch per architecture configuration; a warm
/// re-simulation pass probes once per batch and reads the cost slice in
/// place, skipping the per-draw model entirely. Shared by every worker
/// simulating on one `Simulator` (or one sweep candidate), whose config
/// never changes; consulted only in [`CacheMode::On`].
pub(crate) struct BatchCostCache {
    map: RwLock<HashMap<BatchKey, Box<[DrawCost]>, BuildHasherDefault<PassThroughHasher>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BatchCostCache {
    pub(crate) fn new() -> Self {
        BatchCostCache {
            map: RwLock::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Probes for the batch `key` describes. On a hit, `read` sees the
    /// retained costs under the read lock and its result is returned, so
    /// a caller that keeps only the draw times copies nothing else.
    pub(crate) fn get<R>(&self, key: &BatchKey, read: impl FnOnce(&[DrawCost]) -> R) -> Option<R> {
        let served = self.map.read().get(key).map(|costs| {
            #[cfg(feature = "fault-injection")]
            let costs: &[DrawCost] = &costs
                .iter()
                .map(|c| crate::fault::corrupt_hit(*c))
                .collect::<Vec<_>>();
            read(costs)
        });
        if served.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            OBS_BATCH_HITS.incr();
            subset3d_obs::trace_instant("gpusim", "batch_cache.hit");
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            OBS_BATCH_MISSES.incr();
            subset3d_obs::trace_instant("gpusim", "batch_cache.miss");
        }
        served
    }

    /// Retains a freshly evaluated batch's costs. Racing inserts of the
    /// same key computed identical bits, so either winning is fine.
    pub(crate) fn insert(&self, key: BatchKey, costs: &[DrawCost]) {
        self.map.write().insert(key, costs.into());
    }

    /// Hits and misses observed so far.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            batch_hits: self.hits.load(Ordering::Relaxed),
            batch_misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of retained batches.
    pub(crate) fn len(&self) -> usize {
        self.map.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::test_support::{test_draw, test_ps, test_textures, test_vs};
    use crate::sim::{shader_pack, shape_at};
    use subset3d_trace::{DrawCall, DrawColumns};

    fn fp() -> RegistryFingerprint {
        RegistryFingerprint::of(&test_textures())
    }

    /// The batch key of a one-draw batch holding `draw`, digested through
    /// the columnar path the simulator's batch loop uses.
    fn key_of(draw: DrawCall, registry: RegistryFingerprint, warmth: f64) -> BatchKey {
        let cols = DrawColumns::from_draws([draw]);
        let (vs, ps) = (shader_pack(&test_vs()), shader_pack(&test_ps()));
        BatchKey::of([shape_at(&cols, 0, &vs, &ps, registry, warmth)])
    }

    fn key(warmth: f64) -> BatchKey {
        key_of(test_draw(), fp(), warmth)
    }

    fn compute() -> DrawCost {
        crate::analytic::analyze_draw(
            &test_draw(),
            &test_vs(),
            &test_ps(),
            &test_textures(),
            &crate::config::ArchConfig::baseline(),
            0.0,
        )
    }

    #[test]
    fn identical_inputs_share_a_shape() {
        assert_eq!(key(0.25), key(0.25));
    }

    #[test]
    fn label_fields_do_not_affect_the_shape() {
        let mut relabeled = test_draw();
        relabeled.id = subset3d_trace::DrawId(4040);
        relabeled.state = subset3d_trace::StateId(77);
        relabeled.material_tag = 1234;
        assert_eq!(key(0.5), key_of(relabeled, fp(), 0.5));
    }

    #[test]
    fn model_inputs_change_the_shape() {
        let base = key(0.5);
        assert_ne!(base, key(0.75), "warmth must be part of the shape");

        let mut heavier = test_draw();
        heavier.vertex_count += 1;
        assert_ne!(base, key_of(heavier, fp(), 0.5));

        let mut sharper = test_draw();
        sharper.coverage += 1e-9;
        assert_ne!(base, key_of(sharper, fp(), 0.5));
    }

    #[test]
    fn registry_content_changes_the_shape() {
        // Same draw, same texture ids — but the ids resolve differently
        // (here: not at all), so the fingerprint must split the keys.
        let empty = RegistryFingerprint::of(&TextureRegistry::new());
        assert_ne!(fp(), empty);
        assert_ne!(key(0.0), key_of(test_draw(), empty, 0.0));
    }

    #[test]
    fn wide_texture_bindings_are_keyable() {
        // Shape digests have no inline capacity: a draw binding dozens of
        // textures still keys (the old fixed-width key design had to
        // bypass these).
        let mut wide = test_draw();
        wide.textures = (0..32).map(subset3d_trace::TextureId).collect();
        let a = key_of(wide.clone(), fp(), 0.0);
        assert_eq!(a, key_of(wide.clone(), fp(), 0.0));
        wide.textures.pop();
        assert_ne!(
            a,
            key_of(wide, fp(), 0.0),
            "binding count must be part of the shape"
        );
    }

    #[test]
    fn hit_rate_is_none_until_a_lookup_is_served() {
        assert_eq!(CacheStats::default().batch_hit_rate(), None);
        let never_served = CacheStats {
            batch_hits: 0,
            batch_misses: 12,
        };
        assert_eq!(never_served.batch_hit_rate(), None);
        let served = CacheStats {
            batch_hits: 3,
            batch_misses: 1,
        };
        assert_eq!(served.batch_hit_rate(), Some(0.75));
    }

    #[test]
    fn batch_cache_round_trips_and_clears() {
        let cols = DrawColumns::from_draws([test_draw()]);
        let (vs, ps) = (shader_pack(&test_vs()), shader_pack(&test_ps()));
        let a = shape_at(&cols, 0, &vs, &ps, fp(), 0.0);
        let b = shape_at(&cols, 0, &vs, &ps, fp(), 0.5);
        let costs = vec![compute(), compute()];
        let cache = BatchCostCache::new();
        let key = BatchKey::of([a, b]);
        assert!(cache.get(&key, <[DrawCost]>::to_vec).is_none());
        cache.insert(key, &costs);
        assert_eq!(cache.get(&key, <[DrawCost]>::to_vec).unwrap(), costs);
        assert_eq!(
            cache.stats(),
            CacheStats {
                batch_hits: 1,
                batch_misses: 1
            }
        );
        assert_eq!(cache.len(), 1);

        // Order and count are part of the key.
        assert_ne!(key, BatchKey::of([b, a]));
        assert_ne!(key, BatchKey::of([a]));
    }
}
