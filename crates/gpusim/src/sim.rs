//! The analytical simulator front-end: fixed-width columnar batch
//! execution with cross-draw warmth tracking.
//!
//! Frames store draws column-major ([`subset3d_trace::DrawColumns`]);
//! the simulator walks each frame in fixed-width batches of
//! [`DEFAULT_BATCH_WIDTH`] draws. Per batch it streams the columns
//! directly — shader resolution through a dense per-pass table, warmth
//! from the texture pool, and (in [`CacheMode::On`]) shape digests
//! straight off the column words — and materialises an AoS [`DrawCall`]
//! only for a batch the model actually runs on, to prepare its
//! config-independent half once (`PreparedDraw`). Batches are also the
//! unit of parallel fan-out and of batch-grain memoization (see
//! [`crate::memo`]).
//!
//! One walk serves one config or many: [`Simulator::simulate_workload`]
//! keeps every draw's full cost, while the sweep walk behind
//! [`crate::SweepSession`], [`crate::sweep_configs`] and
//! [`crate::sweep_frequencies`] evaluates every candidate from the same
//! batch inputs and keeps one row of draw times per batch.

use crate::analytic::{analyze_draw, PreparedDraw};
use crate::config::ArchConfig;
use crate::cost::{DrawCost, FrameCost, TimeDigest, WorkloadCost};
use crate::error::SimError;
use crate::memo::{
    BatchCostCache, BatchKey, CacheMode, CacheStats, DrawShape, RegistryFingerprint, ShapeHasher,
};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use subset3d_trace::{
    DrawCall, DrawColumns, DrawId, Frame, ShaderId, ShaderProgram, TextureRegistry, Workload,
};

/// How many preceding draws contribute to texture-cache warmth.
const WARMTH_WINDOW: usize = 6;

/// Draws per fixed-width simulation batch: the unit of parallel fan-out
/// and of batch-grain memoization. Wide enough that one batch-cache
/// probe amortises over many draws and the per-batch setup (shader
/// resolution, warmth) stays a small fraction of the model work; narrow
/// enough that a frame splits into several tasks for the pool.
pub const DEFAULT_BATCH_WIDTH: usize = 64;

/// Analytical GPU performance simulator.
///
/// Simulation is deterministic and O(1) per draw; a full 828K-draw corpus
/// simulates in well under a second in release builds.
///
/// In [`CacheMode::On`] whole batch costs are retained by content, so
/// re-simulating a workload (validation flows) is served
/// batch-wholesale; a [`crate::SweepSession`] keeps its own cache of
/// draw times instead. The batch cache is keyed on exact bit patterns,
/// making memoized results indistinguishable from uncached ones; it is
/// shared across simulation worker threads. A simulator's configuration
/// is fixed at construction, so its cached costs never go stale. The
/// default, [`CacheMode::Off`], simply runs the model on every draw.
///
/// # Examples
///
/// ```
/// use subset3d_gpusim::{ArchConfig, Simulator};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(2).draws_per_frame(20).build(1).generate();
/// let sim = Simulator::new(ArchConfig::baseline());
/// let frame_cost = sim.simulate_frame(&w.frames()[0], &w)?;
/// assert_eq!(frame_cost.draws.len(), w.frames()[0].draw_count());
/// # Ok::<(), subset3d_gpusim::SimError>(())
/// ```
pub struct Simulator {
    config: ArchConfig,
    batches: BatchCostCache<DrawCost>,
    /// Whether the batch cache is consulted ([`CacheMode::On`]).
    memoize: AtomicBool,
    batch_width: AtomicUsize,
}

impl Simulator {
    /// Creates a simulator of an architecture configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`ArchConfig::is_valid`]
    /// to pre-check untrusted configs.
    pub fn new(config: ArchConfig) -> Self {
        assert!(
            config.is_valid(),
            "invalid architecture configuration '{}'",
            config.name
        );
        Simulator {
            config,
            batches: BatchCostCache::new(1),
            memoize: AtomicBool::new(false),
            batch_width: AtomicUsize::new(DEFAULT_BATCH_WIDTH),
        }
    }

    /// The simulated architecture configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Sets the memoization policy (default: [`CacheMode::Off`]).
    /// Switching to `Off` does not drop retained batches; lookups simply
    /// stop, which is how benchmarks measure the uncached baseline.
    /// Results are bit-identical under both modes.
    pub fn set_cache_mode(&self, mode: CacheMode) {
        self.memoize.store(mode == CacheMode::On, Ordering::Relaxed);
    }

    /// The current memoization policy.
    pub fn cache_mode(&self) -> CacheMode {
        if self.memoize.load(Ordering::Relaxed) {
            CacheMode::On
        } else {
            CacheMode::Off
        }
    }

    /// Sets the fixed batch width (clamped to at least 1). Purely an
    /// execution parameter: results are bit-identical at every width.
    /// Different widths produce different batch-cache keys, so changing
    /// it mid-session forfeits batch reuse.
    pub fn set_batch_width(&self, width: usize) {
        self.batch_width.store(width.max(1), Ordering::Relaxed);
    }

    /// The current fixed batch width.
    pub fn batch_width(&self) -> usize {
        self.batch_width.load(Ordering::Relaxed)
    }

    /// Hit/miss counters of the batch-cost cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.batches.stats()
    }

    /// Number of batch costs currently retained (populated only in
    /// [`CacheMode::On`]).
    pub fn cached_batches(&self) -> usize {
        self.batches.len()
    }

    /// Simulates a single draw in isolation (cold caches, no warmth),
    /// never memoized.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownShader`] when the draw references shaders
    /// missing from the workload's library.
    pub fn simulate_draw(
        &self,
        draw: &DrawCall,
        workload: &Workload,
    ) -> Result<DrawCost, SimError> {
        let vs = workload
            .shaders()
            .get(draw.vertex_shader)
            .ok_or(SimError::UnknownShader {
                draw: draw.id,
                shader: draw.vertex_shader,
            })?;
        let ps = workload
            .shaders()
            .get(draw.pixel_shader)
            .ok_or(SimError::UnknownShader {
                draw: draw.id,
                shader: draw.pixel_shader,
            })?;
        Ok(analyze_draw(
            draw,
            vs,
            ps,
            workload.textures(),
            &self.config,
            0.0,
        ))
    }

    /// Simulates one frame, tracking cross-draw texture warmth in
    /// submission order, batch by batch.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownShader`] when a draw references shaders
    /// missing from the workload's library.
    pub fn simulate_frame(
        &self,
        frame: &Frame,
        workload: &Workload,
    ) -> Result<FrameCost, SimError> {
        let ctx = ShaderCtx::build(workload);
        let registry = self
            .memoizing()
            .then(|| RegistryFingerprint::of(workload.textures()));
        let cols = frame.columns();
        let mut draws = Vec::with_capacity(cols.len());
        for (start, end) in batch_bounds(cols.len(), self.batch_width()) {
            let batch = Batch::new(cols, workload, &ctx, registry, start, end)?;
            draws.extend(self.simulate_batch(&batch));
        }
        Ok(FrameCost::from_draws(draws))
    }

    /// Whether this pass memoizes ([`CacheMode::On`]). Read once per
    /// pass, so a mode switch takes effect at the next pass, never
    /// halfway through one.
    fn memoizing(&self) -> bool {
        self.memoize.load(Ordering::Relaxed)
    }

    /// Costs one batch on this simulator's config — the one-config step
    /// of the hot path. With a key ([`CacheMode::On`]) the batch cache is
    /// probed once; a hit copies the whole cost slice out, a miss
    /// prepares and evaluates every draw and retains the result. Without
    /// one (`Off`) the batch computes directly, with no probe at all.
    fn simulate_batch(&self, batch: &Batch<'_, '_>) -> Vec<DrawCost> {
        if let Some(key) = &batch.key {
            if let Some(costs) = self.batches.get(key) {
                return costs.to_vec();
            }
        }
        let config = self.config();
        let costs: Vec<DrawCost> = batch.prepare().iter().map(|d| d.evaluate(config)).collect();
        if let Some(key) = batch.key {
            self.batches.insert(key, costs.as_slice().into());
        }
        costs
    }

    /// Simulates a whole workload batch by batch.
    ///
    /// Frames are independent (cache warmth is tracked within a frame)
    /// and batches within a frame are independent too (warmth looks
    /// backwards into the columns, not at other batches' outputs), so
    /// large workloads flatten into one task list of fixed-width batches
    /// and fan out over the shared [`subset3d_exec`] pool in chunks, all
    /// workers sharing one batch cache; the result is bit-identical to a
    /// sequential pass at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownShader`] when a draw references shaders
    /// missing from the workload's library.
    pub fn simulate_workload(&self, workload: &Workload) -> Result<WorkloadCost, SimError> {
        let frames = workload.frames();
        let _t = subset3d_obs::trace_span_arg(
            "gpusim",
            "gpusim.simulate_workload",
            "frames",
            frames.len() as u64,
        );
        let (list, costs) = walk(workload, self.batch_width(), self.memoizing(), |batch| {
            self.simulate_batch(batch)
        })?;
        Ok(WorkloadCost::from_frames(
            frames
                .iter()
                .zip(&list.frames)
                .map(|(frame, range)| {
                    let mut draws = Vec::with_capacity(frame.draw_count());
                    for batch in &costs[range.clone()] {
                        draws.extend_from_slice(batch);
                    }
                    FrameCost::from_draws(draws)
                })
                .collect(),
        ))
    }
}

/// Simulates `workload` on every config of `configs` in one walk over its
/// batches, returning per config, in order, its total time and the
/// digest of its draw times — bit for bit the `total_ns` and
/// [`WorkloadCost::digest`] of a [`Simulator`] of that config's
/// `simulate_workload(workload)?`.
///
/// Each batch's shaders, warmths and — with a session's `rows` cache —
/// key are computed once for every config. With `rows`, one probe serves
/// every config: a hit shares the batch's retained row of draw times, a
/// miss materialises and prepares the batch's draws once, evaluates them
/// on each config and retains the row. Without (the one-shot sweeps, or
/// a session in [`CacheMode::Off`]) there is no key, probe or insert.
/// Batches use [`DEFAULT_BATCH_WIDTH`].
///
/// Only draw times leave a batch. Per config, frame totals are
/// Kahan-summed in draw order across batches and the workload total over
/// frames in trace order — exactly the operations of
/// [`FrameCost::from_draws`] and [`WorkloadCost::from_frames`] — and the
/// same pass folds each draw time into the config's digest.
///
/// # Errors
///
/// Returns [`SimError::UnknownShader`] of the first failing batch in
/// trace order.
pub(crate) fn sweep_totals(
    configs: &[ArchConfig],
    workload: &Workload,
    rows: Option<&BatchCostCache<f64>>,
) -> Result<Vec<(f64, u64)>, SimError> {
    if configs.is_empty() {
        return Ok(Vec::new());
    }
    let _t = subset3d_obs::trace_span_arg("gpusim", "sweep", "candidates", configs.len() as u64);
    let (list, times) = walk(workload, DEFAULT_BATCH_WIDTH, rows.is_some(), |batch| {
        sweep_batch(batch, configs, rows)
    })?;
    let n = configs.len();
    Ok((0..n)
        .map(|c| {
            let mut digest = TimeDigest::new();
            let total = subset3d_stats::sum_iter(list.frames.iter().map(|range| {
                // A row is candidate-major: config `c`'s times are the
                // `c`-th of `n` equal runs.
                let draws = times[range.clone()].iter().flat_map(|row| {
                    let len = row.len() / n;
                    row[c * len..(c + 1) * len].iter().copied()
                });
                subset3d_stats::sum_iter(draws.inspect(|&time| digest.fold(time)))
            }));
            (total, digest.finish())
        })
        .collect())
}

/// Costs one batch on every config — the N-config step of the sweep
/// walk — returning the row of draw times, candidate-major.
fn sweep_batch(
    batch: &Batch<'_, '_>,
    configs: &[ArchConfig],
    rows: Option<&BatchCostCache<f64>>,
) -> Arc<[f64]> {
    let cached = rows.zip(batch.key.as_ref());
    if let Some((rows, key)) = cached {
        if let Some(row) = rows.get(key) {
            return row;
        }
    }
    let prepared = batch.prepare();
    let mut times = Vec::with_capacity(prepared.len() * configs.len());
    for config in configs {
        times.extend(prepared.iter().map(|d| d.evaluate(config).time_ns));
    }
    let row: Arc<[f64]> = times.into();
    if let Some((rows, key)) = cached {
        rows.insert(*key, Arc::clone(&row));
    }
    row
}

/// The `(frame, start, end)` batches of a workload in trace order, and
/// each frame's range of them (empty for an empty frame).
struct BatchList {
    batches: Vec<(usize, usize, usize)>,
    frames: Vec<Range<usize>>,
}

impl BatchList {
    fn new(frames: &[Frame], width: usize) -> Self {
        let mut batches = Vec::new();
        let mut ranges = Vec::with_capacity(frames.len());
        for (frame_index, frame) in frames.iter().enumerate() {
            let first = batches.len();
            batches.extend(
                batch_bounds(frame.draw_count(), width)
                    .map(|(start, end)| (frame_index, start, end)),
            );
            ranges.push(first..batches.len());
        }
        BatchList {
            batches,
            frames: ranges,
        }
    }
}

/// The `start..end` bounds of `len` draws in batches of `width`.
fn batch_bounds(len: usize, width: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(width)
        .map(move |start| (start, (start + width).min(len)))
}

/// Walks `workload` in fixed-width batches: builds the per-pass shader
/// table, the batch list and — when memoizing — the registry
/// fingerprint once, computes each batch's shared inputs (keyed when
/// memoizing) and hands them to `visit`, returning the list and every
/// batch's result in trace order.
///
/// Batches are independent, so a workload of 1000 draws or more fans out
/// over the shared [`subset3d_exec`] pool in chunks whenever it has two
/// or more threads; results are bit-identical to the sequential pass at
/// any thread count.
///
/// # Errors
///
/// Returns the [`SimError::UnknownShader`] of the first failing batch in
/// trace order.
fn walk<R: Send>(
    workload: &Workload,
    width: usize,
    memoize: bool,
    visit: impl Fn(&Batch<'_, '_>) -> R + Sync,
) -> Result<(BatchList, Vec<R>), SimError> {
    let frames = workload.frames();
    let ctx = ShaderCtx::build(workload);
    let registry = memoize.then(|| RegistryFingerprint::of(workload.textures()));
    let list = BatchList::new(frames, width);
    let run = |&(frame_index, start, end): &(usize, usize, usize)| {
        let cols = frames[frame_index].columns();
        Batch::new(cols, workload, &ctx, registry, start, end).map(|batch| visit(&batch))
    };
    // Below ~1000 draws scheduling overhead outweighs the work.
    let results = if subset3d_exec::thread_count() < 2 || workload.total_draws() < 1000 {
        list.batches
            .iter()
            .map(run)
            .collect::<Result<Vec<R>, SimError>>()?
    } else {
        // Batches are uniform and cheap; claiming a handful at a time
        // keeps the pool's shared counter off the hot path while still
        // load-balancing across workers.
        let chunk = (list.batches.len() / (subset3d_exec::thread_count() * 4)).clamp(1, 8);
        subset3d_exec::par_map_chunked(&list.batches, chunk, |_, batch| run(batch))
            .into_iter()
            .collect::<Result<Vec<R>, SimError>>()?
    };
    Ok((list, results))
}

/// The config-independent inputs of the draws `start..end` of one frame:
/// resolved shaders, warmths and — when memoizing — the batch key,
/// computed once however many configs then cost the batch.
struct Batch<'a, 'w> {
    cols: &'a DrawColumns,
    textures: &'w TextureRegistry,
    start: usize,
    shaders: Vec<(&'a ResolvedShader<'w>, &'a ResolvedShader<'w>)>,
    warmths: Vec<f64>,
    key: Option<BatchKey>,
}

impl<'a, 'w> Batch<'a, 'w> {
    /// Shader resolution for the whole range comes first, so dangling
    /// references are reported identically whether or not a cache would
    /// have served the content. With a `registry` fingerprint
    /// ([`CacheMode::On`]) the draws' shape digests fold into the key.
    fn new(
        cols: &'a DrawColumns,
        workload: &'w Workload,
        ctx: &'a ShaderCtx<'w>,
        registry: Option<RegistryFingerprint>,
        start: usize,
        end: usize,
    ) -> Result<Self, SimError> {
        let ids = cols.ids();
        let vs_ids = cols.vertex_shaders();
        let ps_ids = cols.pixel_shaders();
        let mut shaders = Vec::with_capacity(end - start);
        for i in start..end {
            let vs = ctx.resolve(ids[i], vs_ids[i])?;
            let ps = ctx.resolve(ids[i], ps_ids[i])?;
            shaders.push((vs, ps));
        }
        let warmths: Vec<f64> = (start..end).map(|i| warmth_at(cols, i)).collect();
        let key = registry.map(|registry| {
            BatchKey::of((start..end).zip(&shaders).zip(&warmths).map(
                |((i, (vs, ps)), &warmth)| shape_at(cols, i, &vs.pack, &ps.pack, registry, warmth),
            ))
        });
        Ok(Batch {
            cols,
            textures: workload.textures(),
            start,
            shaders,
            warmths,
            key,
        })
    }

    /// Materialises every draw of the batch and prepares its
    /// config-independent half.
    fn prepare(&self) -> Vec<PreparedDraw> {
        self.shaders
            .iter()
            .zip(&self.warmths)
            .enumerate()
            .map(|(k, ((vs, ps), &warmth))| {
                let draw = self.cols.get(self.start + k).expect("batch index in range");
                PreparedDraw::new(&draw, vs.program, ps.program, self.textures, warmth)
            })
            .collect()
    }
}

impl Clone for Simulator {
    /// Clones the configuration and batch width; the clone starts with
    /// an empty batch cache in the default [`CacheMode::Off`].
    fn clone(&self) -> Self {
        Simulator {
            config: self.config.clone(),
            batches: BatchCostCache::new(1),
            memoize: AtomicBool::new(false),
            batch_width: AtomicUsize::new(self.batch_width()),
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("config", &self.config)
            .field("batch_width", &self.batch_width())
            .field("cache_stats", &self.cache_stats())
            .finish()
    }
}

/// A resolved shader: the program (for `analyze_draw`) plus its packed
/// key words (for shape digests), computed once per pass.
struct ResolvedShader<'w> {
    program: &'w ShaderProgram,
    pack: [u64; 5],
}

/// Dense per-pass shader table indexed by raw [`ShaderId`], replacing a
/// `BTreeMap` walk per draw with one bounds-checked load per lookup.
struct ShaderCtx<'w> {
    programs: Vec<Option<ResolvedShader<'w>>>,
}

impl<'w> ShaderCtx<'w> {
    fn build(workload: &'w Workload) -> Self {
        // Library iteration is id-ordered, so the last program bounds
        // the table size. Generator ids are dense; a sparse library
        // merely leaves `None` holes.
        let size = workload
            .shaders()
            .iter()
            .last()
            .map(|p| p.id.raw() as usize + 1)
            .unwrap_or(0);
        let mut programs: Vec<Option<ResolvedShader<'w>>> = Vec::with_capacity(size);
        programs.resize_with(size, || None);
        for program in workload.shaders().iter() {
            programs[program.id.raw() as usize] = Some(ResolvedShader {
                program,
                pack: shader_pack(program),
            });
        }
        ShaderCtx { programs }
    }

    fn resolve(&self, draw: DrawId, shader: ShaderId) -> Result<&ResolvedShader<'w>, SimError> {
        match self.programs.get(shader.raw() as usize) {
            Some(Some(resolved)) => Ok(resolved),
            _ => Err(SimError::UnknownShader { draw, shader }),
        }
    }
}

/// Warmth of the draw at `index`: the fraction of its bound textures
/// appearing in the texture sets of the [`WARMTH_WINDOW`] preceding
/// draws of the same frame. Reads the shared texture pool directly;
/// the count-over-length division makes the value bit-identical however
/// the sets are stored.
fn warmth_at(cols: &DrawColumns, index: usize) -> f64 {
    let textures = cols.textures_of(index);
    if textures.is_empty() {
        return 0.0;
    }
    let window_start = index.saturating_sub(WARMTH_WINDOW);
    let hits = textures
        .iter()
        .filter(|t| (window_start..index).any(|j| cols.textures_of(j).contains(t)))
        .count();
    hits as f64 / textures.len() as f64
}

/// The five packed key words of one shader program: the full instruction
/// mix plus execution characteristics. Identity (id, name) is irrelevant
/// to cost and deliberately excluded.
pub(crate) fn shader_pack(shader: &ShaderProgram) -> [u64; 5] {
    let m = &shader.mix;
    [
        u64::from(m.alu) | u64::from(m.mad) << 32,
        u64::from(m.transcendental) | u64::from(m.texture_samples) << 32,
        u64::from(m.interpolants) | u64::from(m.control_flow) << 32,
        u64::from(shader.registers) | (shader.stage as u64) << 32,
        shader.divergence.to_bits(),
    ]
}

/// Digests the draw at `index` straight off the columns: every
/// `analyze_draw` input, bit for bit, and no label field. The memo tests
/// pin which inputs split a key and which do not.
pub(crate) fn shape_at(
    cols: &DrawColumns,
    index: usize,
    vs_pack: &[u64; 5],
    ps_pack: &[u64; 5],
    registry: RegistryFingerprint,
    warmth: f64,
) -> DrawShape {
    let mut h = ShapeHasher::new();
    // Fixed-function state and instance count packed exactly: 2 bits
    // per 3–4-variant enum, instance count in bits 8..40.
    h.word(
        cols.blends()[index] as u64
            | (cols.depths()[index] as u64) << 2
            | (cols.culls()[index] as u64) << 4
            | (cols.topologies()[index] as u64) << 6
            | u64::from(cols.instance_counts()[index]) << 8,
    );
    h.word(cols.vertex_counts()[index]);
    // Rasterisation statistics, bit-exact.
    h.word(cols.coverages()[index].to_bits());
    h.word(cols.overdraws()[index].to_bits());
    h.word(cols.z_pass_rates()[index].to_bits());
    h.word(cols.texel_localities()[index].to_bits());
    h.word(warmth.to_bits());
    // Render target.
    let rt = &cols.render_targets()[index];
    h.word(u64::from(rt.width) | u64::from(rt.height) << 32);
    h.word(rt.format as u64 | u64::from(rt.samples) << 32);
    h.word(u64::from(rt.color_attachments));
    for &w in vs_pack.iter().chain(ps_pack) {
        h.word(w);
    }
    // The registry fingerprint scopes the raw texture ids below.
    h.word(registry.0[0]);
    h.word(registry.0[1]);
    // Bound textures by id, in binding order (resolution — including
    // ids the registry cannot resolve — is the fingerprint's job).
    for id in cols.textures_of(index) {
        h.word(u64::from(id.0));
    }
    DrawShape(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::shooter("t")
            .frames(4)
            .draws_per_frame(50)
            .build(2)
            .generate()
    }

    /// Total number of fixed-width batches a workload splits into.
    fn batch_count(w: &Workload, width: usize) -> u64 {
        w.frames()
            .iter()
            .map(|f| f.draw_count().div_ceil(width) as u64)
            .sum()
    }

    #[test]
    fn workload_total_is_sum_of_frames() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        let cost = sim.simulate_workload(&w).unwrap();
        let sum: f64 = cost.frames.iter().map(|f| f.total_ns).sum();
        assert!((cost.total_ns - sum).abs() / cost.total_ns < 1e-12);
        assert_eq!(cost.total_draws(), w.total_draws());
    }

    #[test]
    fn deterministic_simulation() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        let a = sim.simulate_workload(&w).unwrap();
        let b = sim.simulate_workload(&w).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // Big enough to take the threaded path; compare against an explicit
        // sequential pass.
        let w = GameProfile::shooter("big")
            .frames(8)
            .draws_per_frame(300)
            .build(7)
            .generate();
        assert!(w.total_draws() >= 1000, "test needs the parallel path");
        let sim = Simulator::new(ArchConfig::baseline());
        let parallel = sim.simulate_workload(&w).unwrap();
        let sequential: Vec<FrameCost> = w
            .frames()
            .iter()
            .map(|f| sim.simulate_frame(f, &w).unwrap())
            .collect();
        assert_eq!(parallel, WorkloadCost::from_frames(sequential));
    }

    #[test]
    fn batch_width_does_not_change_results() {
        let w = workload();
        let baseline = Simulator::new(ArchConfig::baseline());
        baseline.set_cache_mode(CacheMode::Off);
        let expected = baseline.simulate_workload(&w).unwrap();
        for width in [1, 3, 64, 128, 10_000] {
            for mode in [CacheMode::On, CacheMode::Off] {
                let sim = Simulator::new(ArchConfig::baseline());
                sim.set_batch_width(width);
                sim.set_cache_mode(mode);
                let got = sim.simulate_workload(&w).unwrap();
                assert_eq!(got, expected, "width {width}, mode {mode:?} diverged");
            }
        }
    }

    #[test]
    fn memoized_results_are_bit_identical_to_uncached() {
        let w = workload();
        let cached = Simulator::new(ArchConfig::baseline());
        cached.set_cache_mode(CacheMode::On);
        let uncached = Simulator::new(ArchConfig::baseline());
        assert_eq!(uncached.cache_mode(), CacheMode::Off, "Off is the default");
        // The cold pass computes and retains; the warm pass is served
        // from the batch cache. Neither may move a single bit.
        for pass in 0..2 {
            let a = cached.simulate_workload(&w).unwrap();
            let b = uncached.simulate_workload(&w).unwrap();
            assert_eq!(
                a, b,
                "memoization must not change a single bit (pass {pass})"
            );
            // Per-draw costs too, not just the aggregates.
            for (fa, fb) in a.frames.iter().zip(b.frames.iter()) {
                for (da, db) in fa.draws.iter().zip(fb.draws.iter()) {
                    assert_eq!(da.time_ns.to_bits(), db.time_ns.to_bits());
                    assert_eq!(da.mem_bytes.to_bits(), db.mem_bytes.to_bits());
                }
            }
        }
        let stats = cached.cache_stats();
        assert!(stats.batch_hits > 0, "the warm pass must hit the cache");
        assert_eq!(stats.batch_hits, stats.batch_misses);
        assert_eq!(
            uncached.cache_stats(),
            CacheStats::default(),
            "Off mode must make no lookups"
        );
        assert_eq!(uncached.cached_batches(), 0);
    }

    #[test]
    fn cache_hits_accumulate_across_repeated_simulation() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        sim.set_cache_mode(CacheMode::On);
        let batches = batch_count(&w, sim.batch_width());
        for pass in 1..=3 {
            sim.simulate_workload(&w).unwrap();
            // Every pass after the first re-sees every batch: all hits,
            // no new misses.
            let stats = sim.cache_stats();
            assert_eq!(stats.batch_misses, batches);
            assert_eq!(stats.batch_hits, batches * (pass - 1));
        }
        assert_eq!(sim.cached_batches(), batches as usize);
    }

    #[test]
    fn on_mode_serves_repeated_batches_wholesale() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        sim.set_cache_mode(CacheMode::On);
        let batches = batch_count(&w, sim.batch_width());
        let a = sim.simulate_workload(&w).unwrap();
        let cold = sim.cache_stats();
        assert_eq!(cold.batch_misses, batches);
        assert_eq!(sim.cached_batches(), batches as usize);

        let b = sim.simulate_workload(&w).unwrap();
        let warm = sim.cache_stats();
        assert_eq!(a, b, "batch-served results must be bit-identical");
        assert_eq!(warm.batch_hits, batches);
        assert_eq!(warm.batch_misses, cold.batch_misses);

        // And the whole thing matches an uncached simulator, bit for bit.
        let uncached = Simulator::new(ArchConfig::baseline());
        uncached.set_cache_mode(CacheMode::Off);
        assert_eq!(a, uncached.simulate_workload(&w).unwrap());
    }

    #[test]
    fn ragged_tail_batches_are_distinct_cache_entries() {
        // 50 draws per frame at width 64 → every frame is one ragged
        // batch; at width 16 → three full + one ragged. Re-running at a
        // different width must miss (the key folds the member count),
        // then hit on repeat.
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        sim.set_cache_mode(CacheMode::On);
        sim.set_batch_width(16);
        let a = sim.simulate_workload(&w).unwrap();
        let cold = sim.cache_stats();
        assert_eq!(cold.batch_misses, batch_count(&w, 16));

        sim.set_batch_width(64);
        let b = sim.simulate_workload(&w).unwrap();
        assert_eq!(a, b);
        let refold = sim.cache_stats();
        assert_eq!(refold.batch_hits, 0, "different widths must not alias");
        assert_eq!(refold.batch_misses, cold.batch_misses + batch_count(&w, 64));

        sim.set_batch_width(16);
        sim.simulate_workload(&w).unwrap();
        assert_eq!(sim.cache_stats().batch_hits, batch_count(&w, 16));
    }

    #[test]
    fn unknown_shader_is_reported() {
        let mut w = workload();
        // Corrupt one draw to reference a dangling shader.
        let mut frames: Vec<Frame> = w.frames().to_vec();
        let mut draws = frames[0].to_draws();
        draws[0].pixel_shader = subset3d_trace::ShaderId(9999);
        frames[0] = Frame::new(frames[0].id, draws);
        w = Workload::new(
            w.name.clone(),
            frames,
            w.shaders().clone(),
            w.textures().clone(),
            w.states().clone(),
        );
        for mode in [CacheMode::On, CacheMode::Off] {
            let sim = Simulator::new(ArchConfig::baseline());
            sim.set_cache_mode(mode);
            assert!(
                matches!(
                    sim.simulate_workload(&w),
                    Err(SimError::UnknownShader { .. })
                ),
                "mode {mode:?} swallowed the dangling reference"
            );
        }
    }

    #[test]
    fn warmth_context_changes_repeated_draw_cost() {
        // The same draw placed after a run of draws sharing its textures
        // must be cheaper than in isolation.
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        let frame = &w.frames()[1];
        let frame_cost = sim.simulate_frame(frame, &w).unwrap();
        // Find two draws of the same material (same features) at different
        // positions; later repeats should never cost more in context than
        // the isolated (cold) cost.
        let draws = frame.to_draws();
        let mut found = false;
        for (i, d) in draws.iter().enumerate().skip(1) {
            if draws[i - 1].material_tag == d.material_tag && !d.textures.is_empty() {
                let cold = sim.simulate_draw(d, &w).unwrap();
                assert!(frame_cost.draws[i].time_ns <= cold.time_ns + 1e-9);
                found = true;
                break;
            }
        }
        assert!(found, "expected at least one repeated-material pair");
    }

    #[test]
    fn slower_config_costs_more() {
        let w = workload();
        let fast = Simulator::new(ArchConfig::large());
        let slow = Simulator::new(ArchConfig::small());
        let a = fast.simulate_workload(&w).unwrap();
        let b = slow.simulate_workload(&w).unwrap();
        assert!(b.total_ns > a.total_ns);
    }

    #[test]
    #[should_panic(expected = "invalid architecture")]
    fn invalid_config_panics() {
        let mut c = ArchConfig::baseline();
        c.eu_count = 0;
        Simulator::new(c);
    }
}
