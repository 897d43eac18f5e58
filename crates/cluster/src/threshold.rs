//! Single-pass threshold (leader) clustering.
//!
//! The production algorithm of the subsetting pipeline: each point joins the
//! first existing cluster whose *leader* lies within the distance threshold,
//! otherwise it founds a new cluster. The cluster count — and therefore the
//! clustering efficiency — emerges from the threshold, mirroring how the
//! paper reports efficiency as a measured outcome rather than a parameter.
//!
//! # The kernel
//!
//! The point–leader test is `‖p − l‖² ≤ t²`, summed coordinate by
//! coordinate from zero and rejected as soon as a partial sum exceeds
//! `t²`. One kernel runs it:
//!
//! * **Lane blocks.** Every complete run of [`LANES`] leaders is stored
//!   coordinate-major, and a point is tested against all lanes of a block
//!   at once: per-lane running sums in coordinate order with sticky
//!   `exceeded` flags. Each lane therefore sums in the same order as the
//!   scalar test and reaches the same verdict (a NaN sum never exceeds;
//!   a sum that exceeded once stays rejected). Leaders outside a complete
//!   block — the scalar head and tail — use the scalar test.
//! * **Sorted window.** When coordinate 0 is NaN-free and non-decreasing
//!   over the input (canonical order guarantees it), leaders are created in
//!   coordinate-0 order and every later point lies at or beyond the current
//!   one. A leader whose coordinate-0 gap alone exceeds the threshold is
//!   then rejected by every later point too, and those leaders form a
//!   prefix of the creation order. The kernel retires that prefix instead
//!   of re-testing it. Unsorted input scans every leader.
//!
//! Blocks and the window change only which tests run, never a verdict, so
//! the first leader that accepts a point is the one a scalar scan from
//! leader 0 would pick.

use crate::clustering::Clustering;
use crate::points::Points;
use subset3d_obs::{LazyCounter, LazyHistogram};

// Aggregate fit metrics (recorded only while `subset3d_obs` is enabled),
// complementing the per-fit trace spans: fits run and wall time each.
static OBS_FITS: LazyCounter = LazyCounter::new("cluster.threshold.fits");
static OBS_FIT_NS: LazyHistogram = LazyHistogram::new("cluster.threshold.fit_ns");

/// Leaders per lane block.
const LANES: usize = 8;

/// Leader clustering with a Euclidean distance threshold.
///
/// # Examples
///
/// ```
/// use subset3d_cluster::{Points, ThresholdClustering};
///
/// let data = [0.0, 0.2, 10.0];
/// let c = ThresholdClustering::new(1.0).fit(Points::new(&data, 1));
/// assert_eq!(c.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdClustering {
    threshold: f64,
}

impl ThresholdClustering {
    /// Creates the algorithm with a distance threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or NaN.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold >= 0.0,
            "threshold must be non-negative, got {threshold}"
        );
        ThresholdClustering { threshold }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Clusters the points. Deterministic: points are scanned in order and
    /// each joins the first leader, in creation order, within the
    /// threshold. Centroids of the result are the cluster *leaders* (first
    /// members).
    ///
    /// Input in any order is accepted; input sorted on coordinate 0 (such
    /// as canonical order) additionally skips the leaders that coordinate
    /// alone rules out. See the module docs for the kernel.
    pub fn fit(&self, points: Points<'_>) -> Clustering {
        OBS_FITS.incr();
        let _fit_timer = subset3d_obs::span(&OBS_FIT_NS);
        let _t =
            subset3d_obs::trace_span_arg("cluster", "threshold.fit", "points", points.len() as u64);
        let limit = self.threshold * self.threshold;
        let window = first_coordinate_sorted(points);
        let mut leaders = Leaders::new(points);
        let mut assignments = Vec::with_capacity(points.len());
        for (i, p) in points.rows().enumerate() {
            if window {
                leaders.retire(p[0], limit);
            }
            match leaders.find(p, limit) {
                Some(ci) => assignments.push(ci),
                None => {
                    assignments.push(leaders.rows.len());
                    leaders.push(i);
                }
            }
        }
        let centroids = leaders
            .rows
            .iter()
            .map(|&i| points.row(i).to_vec())
            .collect();
        Clustering::new(assignments, centroids)
    }
}

/// Whether coordinate 0 is NaN-free and non-decreasing down the rows: the
/// precondition of the sorted window.
fn first_coordinate_sorted(points: Points<'_>) -> bool {
    let mut prev = f64::NEG_INFINITY;
    points.rows().all(|row| {
        let ok = row[0] >= prev;
        prev = row[0];
        ok
    })
}

/// The leaders of one fit, in creation order.
struct Leaders<'a> {
    points: Points<'a>,
    /// Point index of each leader.
    rows: Vec<usize>,
    /// Every complete run of [`LANES`] leaders, coordinate-major: block
    /// `b` holds coordinate `c` of leader `b * LANES + l` at
    /// `(b * dim + c) * LANES + l`.
    blocks: Vec<f64>,
    /// First leader the sorted window has not retired.
    start: usize,
}

impl<'a> Leaders<'a> {
    fn new(points: Points<'a>) -> Self {
        Leaders {
            points,
            rows: Vec::new(),
            blocks: Vec::new(),
            start: 0,
        }
    }

    /// Appends a leader, sealing a block once [`LANES`] are pending.
    fn push(&mut self, row: usize) {
        self.rows.push(row);
        if self.rows.len().is_multiple_of(LANES) {
            let pending = &self.rows[self.rows.len() - LANES..];
            for c in 0..self.points.dim() {
                self.blocks
                    .extend(pending.iter().map(|&r| self.points.row(r)[c]));
            }
        }
    }

    /// Retires the leading leaders whose coordinate-0 gap to `x0` alone
    /// exceeds `limit` — the scalar test's verdict after one coordinate.
    /// Only valid on coordinate-0-sorted input, where those leaders form a
    /// prefix and stay rejected for every later point.
    fn retire(&mut self, x0: f64, limit: f64) {
        while let Some(&r) = self.rows.get(self.start) {
            let d = x0 - self.points.row(r)[0];
            if d * d > limit {
                self.start += 1;
            } else {
                break;
            }
        }
    }

    /// The first live leader within `limit` of `p`: scalar head up to the
    /// first block boundary, lane blocks, scalar tail.
    fn find(&self, p: &[f64], limit: f64) -> Option<usize> {
        let scalar = |from: usize, to: usize| {
            (from..to).find(|&ci| within_sq(p, self.points.row(self.rows[ci]), limit))
        };
        let n = self.rows.len();
        let sealed = n - n % LANES;
        if self.start >= sealed {
            return scalar(self.start, n);
        }
        let head_end = self.start.next_multiple_of(LANES);
        let block_len = self.points.dim() * LANES;
        scalar(self.start, head_end)
            .or_else(|| {
                (head_end / LANES..sealed / LANES).find_map(|b| {
                    let block = &self.blocks[b * block_len..(b + 1) * block_len];
                    scan_block(block, p, limit).map(|lane| b * LANES + lane)
                })
            })
            .or_else(|| scalar(sealed, n))
    }
}

/// [`within_sq`] for every lane of one block at once: the first lane whose
/// running sum never exceeded `limit`. The sticky flags are all-ones masks
/// so the whole update stays in vector registers.
fn scan_block(block: &[f64], p: &[f64], limit: f64) -> Option<usize> {
    let mut acc = [0.0f64; LANES];
    let mut exceeded = [0u64; LANES];
    let (coords, _) = block.as_chunks::<LANES>();
    for (&x, lanes) in p.iter().zip(coords) {
        for l in 0..LANES {
            let d = x - lanes[l];
            acc[l] += d * d;
            exceeded[l] |= 0u64.wrapping_sub(u64::from(acc[l] > limit));
        }
        if exceeded.iter().fold(u64::MAX, |all, &e| all & e) == u64::MAX {
            return None;
        }
    }
    exceeded.iter().position(|&e| e == 0)
}

/// Early-exit squared-distance test: `‖a − b‖² ≤ limit`.
fn within_sq(a: &[f64], b: &[f64], limit: f64) -> bool {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
        if acc > limit {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn fit(t: f64, data: &[f64], dim: usize) -> Clustering {
        ThresholdClustering::new(t).fit(Points::new(data, dim))
    }

    #[test]
    fn zero_threshold_groups_only_identical_points() {
        let c = fit(0.0, &[1.0, 1.0, 2.0, 1.0], 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.assignments(), &[0, 0, 1, 0]);
    }

    #[test]
    fn huge_threshold_single_cluster() {
        let c = fit(100.0, &[0.0, 0.0, 5.0, 5.0, -3.0, 2.0], 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn members_within_threshold_of_leader() {
        let data: Vec<f64> = (0..100).map(|i| (i % 10) as f64 * 0.05).collect();
        let t = 0.2;
        let c = fit(t, &data, 1);
        for (i, &a) in c.assignments().iter().enumerate() {
            let d = sq_dist(&data[i..=i], &c.centroids()[a]).sqrt();
            assert!(d <= t + 1e-12, "point {i} at distance {d}");
        }
    }

    #[test]
    fn cluster_count_monotone_in_threshold() {
        let data: Vec<f64> = (0..50).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let mut prev = usize::MAX;
        for t in [0.0, 0.1, 0.5, 1.0, 5.0] {
            let n = fit(t, &data, 1).len();
            assert!(n <= prev, "threshold {t} gave {n} > {prev}");
            prev = n;
        }
    }

    #[test]
    fn empty_input_empty_clustering() {
        let c = fit(1.0, &[], 3);
        assert!(c.is_empty());
        assert_eq!(c.point_count(), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_rejected() {
        ThresholdClustering::new(-1.0);
    }
}
