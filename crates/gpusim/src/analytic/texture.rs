//! Texture stage: sampling throughput and cache behaviour.

use crate::config::ArchConfig;
use subset3d_trace::{DrawCall, ShaderProgram, TextureRegistry};

/// Bytes fetched from memory per texture-cache miss (one cache line).
const BYTES_PER_MISS: f64 = 64.0;

/// Fraction of the raw hit rate recovered by cross-draw warmth.
const WARMTH_RECOVERY: f64 = 0.5;

/// Result of the texture-stage analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextureTraffic {
    /// Core cycles spent sampling/filtering.
    pub sample_cycles: f64,
    /// Bytes of texture data missing the texture cache (toward DRAM/L2).
    pub miss_bytes: f64,
    /// Effective hit rate used.
    pub hit_rate: f64,
}

/// Calibrated texture-cache hit rate for a draw.
///
/// The hit rate combines the draw's intrinsic sampling *locality* with how
/// much of the bound textures' footprint fits in the cache, then recovers
/// part of the remaining misses proportionally to cross-draw `warmth`.
pub fn texture_hit_rate(
    draw: &DrawCall,
    textures: &TextureRegistry,
    config: &ArchConfig,
    warmth: f64,
) -> f64 {
    let (footprint, _) = bound_textures(draw, textures);
    hit_rate(
        footprint,
        draw.texel_locality,
        warmth.clamp(0.0, 1.0),
        config,
    )
}

/// The config half of [`texture_hit_rate`], over its config-independent
/// inputs (`warmth` already clamped to `0.0..=1.0`).
fn hit_rate(footprint: f64, locality: f64, warmth: f64, config: &ArchConfig) -> f64 {
    if footprint <= 0.0 {
        return 1.0;
    }
    let cache_bytes = f64::from(config.tex_cache_kib) * 1024.0;
    let residency = (cache_bytes / footprint).min(1.0).sqrt();
    // Bilinear filtering alone guarantees substantial line reuse, so the
    // hit rate has a floor; locality and residency recover the rest.
    let base = 0.5 + 0.5 * locality * (0.5 + 0.5 * residency);
    let warm = base + (1.0 - base) * WARMTH_RECOVERY * warmth;
    warm.clamp(0.0, 1.0)
}

/// Computes sampling cycles and miss traffic for a draw's texture stage.
pub fn texture_traffic(
    draw: &DrawCall,
    ps: &ShaderProgram,
    textures: &TextureRegistry,
    config: &ArchConfig,
    warmth: f64,
) -> TextureTraffic {
    TextureWork::new(draw, ps, textures, warmth, draw.shaded_pixels()).traffic(config)
}

/// The config-independent half of the texture stage: the samples taken,
/// the bound footprint, and the compression and compulsory-traffic
/// terms the miss bytes are scaled and capped by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TextureWork {
    samples: f64,
    footprint: f64,
    locality: f64,
    /// Cross-draw warmth, clamped to `0.0..=1.0`.
    warmth: f64,
    compression: f64,
    /// Unique bytes touched × the re-fetch factor: the cap on miss bytes.
    refetched_bytes: f64,
}

impl TextureWork {
    /// `shaded` is the draw's shaded pixel count. A draw that takes no
    /// samples never reads the registry.
    pub(crate) fn new(
        draw: &DrawCall,
        ps: &ShaderProgram,
        textures: &TextureRegistry,
        warmth: f64,
        shaded: f64,
    ) -> Self {
        let samples = shaded * f64::from(ps.mix.texture_samples);
        let warmth = warmth.clamp(0.0, 1.0);
        if samples <= 0.0 {
            return TextureWork {
                samples,
                footprint: 0.0,
                locality: draw.texel_locality,
                warmth,
                compression: 0.0,
                refetched_bytes: 0.0,
            };
        }
        let (footprint, avg_bpt) = bound_textures(draw, textures);
        // Compressed formats move fewer bytes per miss.
        let compression = (avg_bpt / 4.0).clamp(0.125, 2.0);
        // Miss traffic cannot exceed the unique data the draw touches (mip
        // selection matches texel to pixel density, so unique texels ≈
        // shaded pixels per bound texture), modestly re-fetched when
        // locality is poor.
        let unique_bytes = (shaded * draw.textures.len() as f64 * avg_bpt).min(footprint);
        // Warm data was already fetched by recent draws, shrinking this
        // draw's compulsory traffic too.
        let refetch = (1.0 + (1.0 - draw.texel_locality)) * (1.0 - WARMTH_RECOVERY * warmth);
        TextureWork {
            samples,
            footprint,
            locality: draw.texel_locality,
            warmth,
            compression,
            refetched_bytes: unique_bytes * refetch,
        }
    }

    /// The config half: hit rate, miss bytes and sampling cycles on
    /// `config`'s texture cache and samplers.
    pub(crate) fn traffic(&self, config: &ArchConfig) -> TextureTraffic {
        if self.samples <= 0.0 {
            return TextureTraffic {
                sample_cycles: 0.0,
                miss_bytes: 0.0,
                hit_rate: 1.0,
            };
        }
        let hit_rate = hit_rate(self.footprint, self.locality, self.warmth, config);
        let miss_rate = 1.0 - hit_rate;
        let raw_miss_bytes = self.samples * miss_rate * BYTES_PER_MISS * self.compression;
        let miss_bytes = raw_miss_bytes.min(self.refetched_bytes);
        // Filtering throughput, derated when misses stall the pipeline.
        let sample_cycles = self.samples / f64::from(config.tex_rate) * (1.0 + 0.3 * miss_rate);
        TextureTraffic {
            sample_cycles,
            miss_bytes,
            hit_rate,
        }
    }
}

/// Combined footprint and mean bytes-per-texel (4.0 when none resolve) of
/// the draw's bound textures, in one registry walk. The footprint is
/// [`TextureRegistry::combined_footprint`]'s sum, term for term.
fn bound_textures(draw: &DrawCall, textures: &TextureRegistry) -> (f64, f64) {
    let mut bpt_total = 0.0;
    let mut n = 0usize;
    let footprint: f64 = draw
        .textures
        .iter()
        .filter_map(|id| textures.get(*id))
        .map(|t| {
            bpt_total += t.format.bytes_per_texel();
            n += 1;
            t.footprint_bytes()
        })
        .sum();
    let avg_bpt = if n == 0 { 4.0 } else { bpt_total / n as f64 };
    (footprint, avg_bpt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::test_support::{test_draw, test_ps, test_textures};

    #[test]
    fn no_textures_is_free_hit() {
        let mut d = test_draw();
        d.textures.clear();
        let h = texture_hit_rate(&d, &test_textures(), &ArchConfig::baseline(), 0.0);
        assert_eq!(h, 1.0);
    }

    #[test]
    fn warmth_raises_hit_rate() {
        let d = test_draw();
        let reg = test_textures();
        let config = ArchConfig::baseline();
        let cold = texture_hit_rate(&d, &reg, &config, 0.0);
        let warm = texture_hit_rate(&d, &reg, &config, 1.0);
        assert!(warm > cold);
        assert!(warm <= 1.0);
    }

    #[test]
    fn bigger_cache_raises_hit_rate() {
        let d = test_draw();
        let reg = test_textures();
        let small = ArchConfig::baseline().to_builder().tex_cache_kib(8).build();
        let big = ArchConfig::baseline()
            .to_builder()
            .tex_cache_kib(4096)
            .build();
        assert!(texture_hit_rate(&d, &reg, &big, 0.0) > texture_hit_rate(&d, &reg, &small, 0.0));
    }

    #[test]
    fn locality_drives_hit_rate() {
        let reg = test_textures();
        let config = ArchConfig::baseline();
        let mut local = test_draw();
        local.texel_locality = 0.95;
        let mut random = test_draw();
        random.texel_locality = 0.1;
        assert!(
            texture_hit_rate(&local, &reg, &config, 0.0)
                > texture_hit_rate(&random, &reg, &config, 0.0)
        );
    }

    #[test]
    fn traffic_zero_without_samples() {
        let mut ps = test_ps();
        ps.mix.texture_samples = 0;
        let t = texture_traffic(
            &test_draw(),
            &ps,
            &test_textures(),
            &ArchConfig::baseline(),
            0.0,
        );
        assert_eq!(t.sample_cycles, 0.0);
        assert_eq!(t.miss_bytes, 0.0);
    }

    #[test]
    fn miss_bytes_fall_with_warmth() {
        let config = ArchConfig::baseline();
        let cold = texture_traffic(&test_draw(), &test_ps(), &test_textures(), &config, 0.0);
        let warm = texture_traffic(&test_draw(), &test_ps(), &test_textures(), &config, 1.0);
        assert!(warm.miss_bytes < cold.miss_bytes);
    }

    #[test]
    fn compressed_textures_move_fewer_bytes() {
        // BC1 (0.5 B/texel) vs RGBA16F (8 B/texel) miss traffic.
        use subset3d_trace::{TextureDesc, TextureFormat, TextureId, TextureRegistry};
        let config = ArchConfig::baseline();
        let mut reg = TextureRegistry::new();
        reg.insert(TextureDesc {
            id: TextureId(0),
            width: 1024,
            height: 1024,
            mips: 1,
            format: TextureFormat::Bc1,
        });
        reg.insert(TextureDesc {
            id: TextureId(1),
            width: 1024,
            height: 1024,
            mips: 1,
            format: TextureFormat::Rgba16f,
        });
        let mut bc = test_draw();
        bc.textures = vec![TextureId(0)];
        let mut fat = test_draw();
        fat.textures = vec![TextureId(1)];
        let a = texture_traffic(&bc, &test_ps(), &reg, &config, 0.0);
        let b = texture_traffic(&fat, &test_ps(), &reg, &config, 0.0);
        assert!(a.miss_bytes < b.miss_bytes);
    }
}
