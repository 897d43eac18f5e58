//! Incremental (streaming) subsetter fits.
//!
//! The batch [`Subsetter`] trait fits a complete point set in one call. The
//! streaming service mode instead feeds points as they arrive and asks for
//! an up-to-date [`SubsetterFit`] after every chunk. This module provides
//! that contract as [`IncrementalFit`] plus three implementations, all
//! over one deterministic Algorithm-R reservoir (after *CPU Simulation
//! Using Two-Phase Stratified Sampling*'s stratum maintenance for unknown
//! stream lengths):
//!
//! * [`ReservoirIncremental`] — wraps any batch backend behind the
//!   reservoir and re-fits it on every [`IncrementalFit::fit`]. While the
//!   stream fits in the reservoir the fit is **bit-identical** to the
//!   batch fit over the same points; past capacity the backend fits the
//!   retained sample.
//! * The threshold backend's fit — keeps the retained points in canonical
//!   order with their leader scan and medoids, and resumes the scan from
//!   each inserted point, so an ingest within capacity pays for the points
//!   it brings. Its fit equals the batch fit over the retained points bit
//!   for bit after every ingest.
//! * [`OnlineKMeans`] — MacQueen-style per-point centroid updates over the
//!   *whole* stream combined with a reservoir for partition/medoid
//!   election, so the centroids keep learning even after the reservoir
//!   stops growing.
//!
//! # Chunk-boundary invariance
//!
//! Every implementation must make its state a pure function of the point
//! *sequence*: ingesting `[a, b, c, d]` in one chunk or as `[a] + [b, c, d]`
//! must produce bit-identical state. The reservoir achieves this by keying
//! each keep/evict decision on the point's global stream index (a splitmix64
//! hash of `(seed, index)`), never on chunk shape; MacQueen updates are
//! per-point by construction. The serve-layer proptests enforce this for
//! arbitrary chunkings.

use crate::clustering::Clustering;
use crate::medoid::medoid_of;
use crate::points::Points;
use crate::subsetter::{canonical_cmp, fit_with_medoids, Subsetter, SubsetterFit};
use crate::threshold::{LeaderScan, ThresholdClustering};

/// A subsetter fit that absorbs points one chunk at a time.
///
/// Implementations are deterministic functions of the ingested point
/// sequence — chunk boundaries must not influence any retained state — and
/// [`IncrementalFit::fit`] may be called at any time between chunks.
pub trait IncrementalFit: Send {
    /// Absorbs a chunk of points, in stream order. Every chunk of one
    /// stream has the same dimensionality.
    fn ingest(&mut self, points: Points<'_>);

    /// Fits the current state into a partition + representatives over the
    /// *retained* points (see [`IncrementalFit::retained`]). Point indices
    /// in the returned fit index into the retained slice.
    fn fit(&self) -> SubsetterFit;

    /// Total points ingested over the stream's lifetime.
    fn points_seen(&self) -> usize;

    /// The retained sample the fit partitions, in slot order.
    fn retained(&self) -> Points<'_>;

    /// Global stream index of each retained point, parallel to
    /// [`IncrementalFit::retained`].
    fn retained_stream_indices(&self) -> &[usize];

    /// Maximum number of points the implementation retains.
    fn capacity(&self) -> usize;
}

/// SplitMix64: the reservoir's stateless per-index hash. Deterministic,
/// well-mixed, and dependency-free.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic Algorithm-R decision for stream index `index` (0-based)
/// into a reservoir of `capacity` slots: `None` keeps the reservoir as is,
/// `Some(slot)` replaces that slot. Indices below `capacity` always fill
/// their own slot.
fn reservoir_slot(seed: u64, index: usize, capacity: usize) -> Option<usize> {
    if index < capacity {
        return Some(index);
    }
    // Uniform draw from 0..=index via the per-index hash; keep with
    // probability capacity/(index+1), exactly Algorithm R.
    let draw =
        splitmix64(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % (index as u64 + 1);
    if (draw as usize) < capacity {
        Some(draw as usize)
    } else {
        None
    }
}

/// The deterministic Algorithm-R sample every incremental fit retains:
/// one row-major buffer in slot order, so a fit reads it without copying
/// rows out.
#[derive(Debug, Clone)]
struct Reservoir {
    seed: u64,
    capacity: usize,
    /// Retained rows, row-major, in slot order.
    points: Vec<f64>,
    /// Coordinates per row, fixed by the first point of the stream.
    dim: usize,
    stream_indices: Vec<usize>,
    seen: usize,
}

impl Reservoir {
    /// An empty sample of `capacity` slots, clamped to at least one.
    fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            seed,
            capacity: capacity.max(1),
            points: Vec::new(),
            dim: 0,
            stream_indices: Vec::new(),
            seen: 0,
        }
    }

    /// Checks a chunk's dimensionality; the stream's first chunk sets it.
    fn check_dim(&mut self, points: Points<'_>) {
        if self.seen == 0 {
            self.dim = points.dim();
        }
        assert_eq!(points.dim(), self.dim, "stream dimensionality changed");
    }

    /// Decides where the stream's next point goes: `Some(slot)` keeps it in
    /// that slot — replacing the slot's row when `slot < len()` — and
    /// `None` drops it. [`Reservoir::store`] then writes a kept point.
    fn next_slot(&mut self) -> Option<usize> {
        let index = self.seen;
        self.seen += 1;
        reservoir_slot(self.seed, index, self.capacity)
    }

    /// Writes the stream's latest point into the slot
    /// [`Reservoir::next_slot`] chose.
    fn store(&mut self, slot: usize, point: &[f64]) {
        let index = self.seen - 1;
        if slot == self.stream_indices.len() {
            self.points.extend_from_slice(point);
            self.stream_indices.push(index);
        } else {
            self.points[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(point);
            self.stream_indices[slot] = index;
        }
    }

    /// Rows retained.
    fn len(&self) -> usize {
        self.stream_indices.len()
    }

    fn retained(&self) -> Points<'_> {
        Points::new(&self.points, self.dim)
    }
}

/// Wraps a batch [`Subsetter`] behind a deterministic reservoir sample.
///
/// While `points_seen ≤ capacity` the retained sample *is* the stream, so
/// [`IncrementalFit::fit`] is bit-identical to `backend.fit(all points)`
/// (the batch fit canonicalises order, so slot order is irrelevant). Past
/// capacity the backend fits a uniform sample of the stream.
#[derive(Debug, Clone)]
pub struct ReservoirIncremental<S: Subsetter> {
    backend: S,
    reservoir: Reservoir,
}

impl<S: Subsetter> ReservoirIncremental<S> {
    /// Creates a reservoir-backed incremental fit. `capacity` is clamped to
    /// at least one slot.
    pub fn new(backend: S, capacity: usize, seed: u64) -> Self {
        ReservoirIncremental {
            backend,
            reservoir: Reservoir::new(capacity, seed),
        }
    }
}

impl<S: Subsetter + Send> IncrementalFit for ReservoirIncremental<S> {
    fn ingest(&mut self, points: Points<'_>) {
        if points.is_empty() {
            return;
        }
        self.reservoir.check_dim(points);
        for point in points.rows() {
            if let Some(slot) = self.reservoir.next_slot() {
                self.reservoir.store(slot, point);
            }
        }
    }

    fn fit(&self) -> SubsetterFit {
        self.backend.fit(self.retained())
    }

    fn points_seen(&self) -> usize {
        self.reservoir.seen
    }

    fn retained(&self) -> Points<'_> {
        self.reservoir.retained()
    }

    fn retained_stream_indices(&self) -> &[usize] {
        &self.reservoir.stream_indices
    }

    fn capacity(&self) -> usize {
        self.reservoir.capacity
    }
}

/// Medoid position of a cluster whose members changed since its election.
const STALE: usize = usize::MAX;

/// The threshold backend's incremental fit: the reservoir's rows kept in
/// canonical order together with their leader scan and medoids, so that
/// an ingested point costs one resumed scan instead of a re-fit.
///
/// A kept point is inserted at its canonical position (row under
/// `f64::total_cmp`, then slot index, as in [`canonical_order`]) and the
/// scan resumes from there. Medoids are re-elected, after each
/// [`IncrementalFit::ingest`], only for the clusters whose members
/// changed. Past capacity a kept point replaces a slot: the slot's old row
/// is spliced out of the canonical order and the new one in, and an ingest
/// that replaced any slot re-runs the scan from empty and re-elects every
/// medoid once, as the batch fit would. [`IncrementalFit::fit`] therefore
/// equals `ThresholdSubsetter::fit(retained())` bit for bit after every
/// ingest, within capacity and past it.
///
/// [`canonical_order`]: crate::canonical_order
#[derive(Debug, Clone)]
pub(crate) struct ThresholdIncremental {
    reservoir: Reservoir,
    /// Retained rows in canonical order, row-major.
    sorted: Vec<f64>,
    /// Slot of each canonical position.
    order: Vec<usize>,
    scan: LeaderScan,
    /// Canonical position of each cluster's medoid, or [`STALE`].
    medoids: Vec<usize>,
}

impl ThresholdIncremental {
    /// An empty fit at leader distance `distance`; `capacity` is clamped
    /// to at least one slot.
    pub(crate) fn new(distance: f64, capacity: usize, seed: u64) -> Self {
        let threshold = ThresholdClustering::new(distance).threshold();
        ThresholdIncremental {
            reservoir: Reservoir::new(capacity, seed),
            sorted: Vec::new(),
            order: Vec::new(),
            scan: LeaderScan::new(threshold * threshold, Points::new(&[], 0)),
            medoids: Vec::new(),
        }
    }

    fn sorted(&self) -> Points<'_> {
        Points::new(&self.sorted, self.reservoir.dim)
    }

    /// Canonical position of `row` held in `slot` among the sorted rows.
    fn position(&self, row: &[f64], slot: usize) -> usize {
        let sorted = self.sorted();
        let (mut lo, mut hi) = (0, self.order.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if canonical_cmp((sorted.row(mid), self.order[mid]), (row, slot)).is_lt() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Splices `point`, held in `slot`, into the canonical order and
    /// returns its position.
    fn sort_in(&mut self, point: &[f64], slot: usize) -> usize {
        let at = self.position(point, slot);
        let dim = self.reservoir.dim;
        self.sorted
            .splice(at * dim..at * dim, point.iter().copied());
        self.order.insert(at, slot);
        at
    }

    /// Splices the row held in `slot` out of the canonical order.
    fn sort_out(&mut self, slot: usize) {
        let at = self.position(self.reservoir.retained().row(slot), slot);
        let dim = self.reservoir.dim;
        self.sorted.drain(at * dim..(at + 1) * dim);
        self.order.remove(at);
    }

    /// Resumes the scan after a row was inserted at `at`, and carries the
    /// medoids across: the rescan's clusters and the kept ones it touched
    /// go stale, the rest keep their medoid at its moved position.
    fn resume(&mut self, at: usize) {
        let resumed = self
            .scan
            .insert(Points::new(&self.sorted, self.reservoir.dim), at);
        self.medoids.splice(
            resumed.kept..resumed.old_tail,
            std::iter::repeat_n(STALE, resumed.fresh - resumed.kept),
        );
        for id in resumed.touched {
            self.medoids[id] = STALE;
        }
        for m in self.medoids.iter_mut().filter(|m| **m != STALE) {
            *m += usize::from(*m >= at);
        }
    }

    /// Elects the stale medoids as `fit_ordered` does: [`medoid_of`] over
    /// each cluster's members in canonical order.
    fn elect(&mut self) {
        let mut members: Vec<Option<Vec<usize>>> = self
            .medoids
            .iter()
            .map(|&m| (m == STALE).then(Vec::new))
            .collect();
        if members.iter().all(Option::is_none) {
            return;
        }
        for (at, &id) in self.scan.assignments().iter().enumerate() {
            if let Some(list) = &mut members[id] {
                list.push(at);
            }
        }
        let sorted = Points::new(&self.sorted, self.reservoir.dim);
        for (medoid, list) in self.medoids.iter_mut().zip(members) {
            if let Some(list) = list {
                *medoid = medoid_of(sorted, &list).expect("every cluster holds its leader");
            }
        }
    }
}

impl IncrementalFit for ThresholdIncremental {
    fn ingest(&mut self, points: Points<'_>) {
        if points.is_empty() {
            return;
        }
        self.reservoir.check_dim(points);
        let mut replaced = false;
        for point in points.rows() {
            let Some(slot) = self.reservoir.next_slot() else {
                continue;
            };
            if slot < self.reservoir.len() {
                self.sort_out(slot);
                replaced = true;
            }
            self.reservoir.store(slot, point);
            let at = self.sort_in(point, slot);
            if !replaced {
                self.resume(at);
            }
        }
        if replaced {
            // The scan was not resumed past the first replacement.
            self.scan
                .restart(Points::new(&self.sorted, self.reservoir.dim));
            self.medoids = vec![STALE; self.scan.leaders().len()];
        }
        self.elect();
    }

    fn fit(&self) -> SubsetterFit {
        if self.order.is_empty() {
            return SubsetterFit::empty();
        }
        let sorted = self.sorted();
        let mut assignments = vec![0; self.order.len()];
        for (&slot, &id) in self.order.iter().zip(self.scan.assignments()) {
            assignments[slot] = id;
        }
        let centroids = self
            .scan
            .leaders()
            .iter()
            .map(|&l| sorted.row(l).to_vec())
            .collect();
        SubsetterFit {
            clustering: Clustering::new(assignments, centroids),
            representatives: self.medoids.iter().map(|&m| self.order[m]).collect(),
        }
    }

    fn points_seen(&self) -> usize {
        self.reservoir.seen
    }

    fn retained(&self) -> Points<'_> {
        self.reservoir.retained()
    }

    fn retained_stream_indices(&self) -> &[usize] {
        &self.reservoir.stream_indices
    }

    fn capacity(&self) -> usize {
        self.reservoir.capacity
    }
}

/// Online k-means: MacQueen per-point centroid updates over the whole
/// stream, plus a reservoir for electing concrete representatives.
///
/// Centroids spawn (up to `k`) on the first `k` distinct points, then each
/// arrival moves its nearest centroid by `(x − c)/n`. Unlike the pure
/// reservoir wrapper, the centroids summarise *every* point — evicted ones
/// included — so the partition keeps tracking the stream after the
/// reservoir saturates. While `points_seen ≤ capacity` the fit delegates to
/// the exact batch backend for bit-identical convergence.
#[derive(Debug, Clone)]
pub struct OnlineKMeans<S: Subsetter> {
    /// Batch backend used verbatim while the stream still fits in the
    /// reservoir.
    exact: S,
    /// Maximum number of online centroids.
    k: usize,
    reservoir: ReservoirIncremental<S>,
    centroids: Vec<Vec<f64>>,
    counts: Vec<u64>,
}

impl<S: Subsetter + Clone> OnlineKMeans<S> {
    /// Creates an online k-means fit with at most `k` centroids (clamped to
    /// at least one) backed by the given exact batch backend.
    pub fn new(exact: S, k: usize, capacity: usize, seed: u64) -> Self {
        OnlineKMeans {
            exact: exact.clone(),
            k: k.max(1),
            reservoir: ReservoirIncremental::new(exact, capacity, seed),
            centroids: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn nearest_centroid(&self, point: &[f64]) -> Option<(usize, f64)> {
        let mut best = None;
        for (i, c) in self.centroids.iter().enumerate() {
            let d: f64 = c.iter().zip(point).map(|(a, b)| (a - b) * (a - b)).sum();
            match best {
                Some((_, bd)) if d >= bd => {}
                _ => best = Some((i, d)),
            }
        }
        best
    }
}

impl<S: Subsetter + Clone + Send> IncrementalFit for OnlineKMeans<S> {
    fn ingest(&mut self, points: Points<'_>) {
        for point in points.rows() {
            self.reservoir.ingest(Points::new(point, points.dim()));
            match self.nearest_centroid(point) {
                // Spawn until k centroids exist; re-seeing an exact centroid
                // value updates it instead (keeps duplicates from eating k).
                Some((_, d)) if d > 0.0 && self.centroids.len() < self.k => {
                    self.centroids.push(point.to_vec());
                    self.counts.push(1);
                }
                Some((j, _)) => {
                    self.counts[j] += 1;
                    let n = self.counts[j] as f64;
                    for (c, x) in self.centroids[j].iter_mut().zip(point) {
                        *c += (x - *c) / n;
                    }
                }
                None => {
                    self.centroids.push(point.to_vec());
                    self.counts.push(1);
                }
            }
        }
    }

    fn fit(&self) -> SubsetterFit {
        let retained = self.reservoir.retained();
        if retained.is_empty() {
            return SubsetterFit::empty();
        }
        // Exact regime: the reservoir still holds the whole stream.
        if self.reservoir.points_seen() <= self.reservoir.capacity() {
            return self.exact.fit(retained);
        }
        // Streaming regime: assign each retained point to its nearest
        // online centroid, drop empty clusters, elect medoids.
        let assignments: Vec<usize> = retained
            .rows()
            .map(|p| {
                self.centroids
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let da: f64 = a.iter().zip(p).map(|(x, y)| (x - y) * (x - y)).sum();
                        let db: f64 = b.iter().zip(p).map(|(x, y)| (x - y) * (x - y)).sum();
                        da.total_cmp(&db)
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect();
        fit_with_medoids(
            retained,
            Clustering::new(assignments, self.centroids.clone()),
        )
    }

    fn points_seen(&self) -> usize {
        self.reservoir.points_seen()
    }

    fn retained(&self) -> Points<'_> {
        self.reservoir.retained()
    }

    fn retained_stream_indices(&self) -> &[usize] {
        self.reservoir.retained_stream_indices()
    }

    fn capacity(&self) -> usize {
        self.reservoir.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subsetter::{KMeansSubsetter, ThresholdSubsetter};

    const DIM: usize = 2;

    fn stream(n: usize) -> Vec<f64> {
        (0..n)
            .flat_map(|i| {
                let t = i as f64;
                [(t * 0.61).sin() * 4.0, (t * 1.7).cos() * 3.0]
            })
            .collect()
    }

    fn view(data: &[f64]) -> Points<'_> {
        Points::new(data, DIM)
    }

    #[test]
    fn reservoir_matches_batch_within_capacity() {
        let points = stream(24);
        let backend = ThresholdSubsetter::new(1.0);
        let mut inc = ReservoirIncremental::new(backend, 64, 9);
        inc.ingest(view(&points));
        assert_eq!(inc.fit(), backend.fit(view(&points)));
        assert_eq!(inc.retained(), view(&points));
        assert_eq!(
            inc.retained_stream_indices(),
            (0..24).collect::<Vec<_>>().as_slice()
        );
    }

    #[test]
    fn reservoir_occupancy_is_bounded() {
        let points = stream(500);
        let mut inc = ReservoirIncremental::new(ThresholdSubsetter::new(1.0), 16, 3);
        inc.ingest(view(&points));
        assert_eq!(inc.retained().len(), 16);
        assert_eq!(inc.points_seen(), 500);
        // Retained indices are valid stream positions, each slot distinct,
        // and each slot holds the point of its stream index.
        let mut seen = std::collections::BTreeSet::new();
        for (slot, &i) in inc.retained_stream_indices().iter().enumerate() {
            assert!(i < 500);
            assert!(seen.insert(i));
            assert_eq!(inc.retained().row(slot), view(&points).row(i));
        }
    }

    #[test]
    fn reservoir_is_chunk_invariant() {
        let points = stream(200);
        let mut whole = ReservoirIncremental::new(ThresholdSubsetter::new(1.0), 32, 5);
        whole.ingest(view(&points));
        let mut chunked = ReservoirIncremental::new(ThresholdSubsetter::new(1.0), 32, 5);
        for chunk in points.chunks(7 * DIM) {
            chunked.ingest(view(chunk));
        }
        assert_eq!(whole.retained(), chunked.retained());
        assert_eq!(
            whole.retained_stream_indices(),
            chunked.retained_stream_indices()
        );
        assert_eq!(whole.fit(), chunked.fit());
    }

    #[test]
    fn reservoir_sample_is_roughly_uniform() {
        // Feed 0..n and check the retained stream indices are spread over
        // the whole stream, not clustered at either end.
        let n = 2000;
        let points: Vec<f64> = (0..n).map(f64::from).collect();
        let mut inc = ReservoirIncremental::new(ThresholdSubsetter::new(0.5), 100, 11);
        inc.ingest(Points::new(&points, 1));
        let mean_index: f64 = inc
            .retained_stream_indices()
            .iter()
            .map(|&i| i as f64)
            .sum::<f64>()
            / 100.0;
        assert!(
            (mean_index - f64::from(n) / 2.0).abs() < f64::from(n) / 5.0,
            "mean retained index {mean_index} far from uniform"
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality changed")]
    fn reservoir_rejects_a_dimensionality_change() {
        let mut inc = ReservoirIncremental::new(ThresholdSubsetter::new(1.0), 8, 0);
        inc.ingest(view(&stream(2)));
        inc.ingest(Points::new(&[1.0, 2.0, 3.0], 3));
    }

    #[test]
    fn online_kmeans_exact_within_capacity() {
        let points = stream(30);
        let backend = KMeansSubsetter::fixed(4, 7);
        let mut inc = OnlineKMeans::new(backend, 4, 64, 7);
        inc.ingest(view(&points));
        assert_eq!(inc.fit(), backend.fit(view(&points)));
    }

    #[test]
    fn online_kmeans_streams_past_capacity() {
        let points = stream(300);
        let mut inc = OnlineKMeans::new(KMeansSubsetter::fixed(4, 7), 4, 32, 7);
        for chunk in points.chunks(13 * DIM) {
            inc.ingest(view(chunk));
        }
        let fit = inc.fit();
        fit.check(32).expect("streaming fit upholds the contract");
        assert!(fit.clustering.len() <= 4);
        assert_eq!(inc.points_seen(), 300);
    }

    #[test]
    fn online_kmeans_is_chunk_invariant() {
        let points = stream(150);
        let mut a = OnlineKMeans::new(KMeansSubsetter::fixed(3, 1), 3, 16, 1);
        a.ingest(view(&points));
        let mut b = OnlineKMeans::new(KMeansSubsetter::fixed(3, 1), 3, 16, 1);
        for chunk in points.chunks(4 * DIM) {
            b.ingest(view(chunk));
        }
        assert_eq!(a.fit(), b.fit());
    }

    #[test]
    fn incremental_factory_covers_every_backend() {
        let points = stream(40);
        let backends: Vec<Box<dyn Subsetter + Send>> = vec![
            Box::new(ThresholdSubsetter::new(0.8)),
            Box::new(KMeansSubsetter::bic(6, 42)),
            Box::new(KMeansSubsetter::fixed(4, 42)),
            Box::new(crate::subsetter::StratifiedSubsetter::new(4, 0.25, 7)),
            Box::new(crate::subsetter::PcaAggloSubsetter::new(2, 5)),
        ];
        for backend in &backends {
            let mut inc = backend.incremental(64, 3);
            inc.ingest(view(&points));
            let fit = inc.fit();
            fit.check(40).expect("contract");
            assert_eq!(fit, backend.fit(view(&points)), "{}", backend.name());
        }
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut inc = ReservoirIncremental::new(ThresholdSubsetter::new(1.0), 0, 0);
        inc.ingest(view(&stream(5)));
        assert_eq!(inc.capacity(), 1);
        assert_eq!(inc.retained().len(), 1);
    }
}
