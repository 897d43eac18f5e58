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
//!
//! # Resuming
//!
//! [`ThresholdClustering::fit`] runs the scan from empty and drops it. The
//! threshold backend's streaming fit keeps it as a [`LeaderScan`] over
//! canonically ordered rows and resumes it after each inserted row, with
//! the same loop (see [`LeaderScan`]).

use crate::clustering::Clustering;
use crate::points::Points;
use subset3d_obs::Stage;

// Wall time per fit; the histogram's count is the number of fits.
static STAGE_FIT: Stage = Stage::new("cluster", "threshold.fit", "cluster.threshold.fit_ns");

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
        let _stage = STAGE_FIT.enter_arg("points", points.len() as u64);
        LeaderScan::new(self.threshold * self.threshold, points).into_clustering(points)
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

/// [`first_coordinate_sorted`] for rows in canonical order, without the
/// walk: `total_cmp` puts sign-negative NaNs first and positive NaNs last,
/// so only the first and last rows can turn the window off.
fn canonical_window(points: Points<'_>) -> bool {
    let mut rows = points.rows();
    let window = [rows.next(), rows.next_back()]
        .iter()
        .flatten()
        .all(|row| !row[0].is_nan());
    debug_assert_eq!(window, first_coordinate_sorted(points));
    window
}

/// A leader scan kept after it ran, so that inserting one row resumes it
/// instead of re-running it.
///
/// Rows before the inserted one keep their decisions. The scan re-runs
/// from the insertion until its live window — the leaders the sorted
/// window has not retired, or every leader when the window is off — holds
/// the same rows, in the same order, as the old run's window at the same
/// row. The scan state past that point is the same, so every later
/// decision is the old one with the cluster ids shifted by the change in
/// leader count.
#[derive(Debug, Clone)]
pub(crate) struct LeaderScan {
    /// The squared threshold.
    limit: f64,
    /// Whether the sorted window is on.
    window: bool,
    /// Cluster id of each row: its leader's creation index.
    assign: Vec<usize>,
    /// The window start each row's decision scanned from.
    starts: Vec<usize>,
    leaders: Leaders,
}

/// What resuming a [`LeaderScan`] changed, in cluster ids.
#[derive(Debug)]
pub(crate) struct Resumed {
    /// Clusters `..kept` keep their ids: their leaders precede the
    /// insertion.
    pub(crate) kept: usize,
    /// Clusters `kept..fresh` are the rescan's.
    pub(crate) fresh: usize,
    /// Old cluster `old_tail + k` is now cluster `fresh + k`, with the
    /// same leader and the same members.
    pub(crate) old_tail: usize,
    /// Kept clusters whose members changed, ascending.
    pub(crate) touched: Vec<usize>,
}

impl LeaderScan {
    /// The scan of `points` from empty at squared threshold `limit`.
    pub(crate) fn new(limit: f64, points: Points<'_>) -> Self {
        let mut scan = LeaderScan {
            limit,
            window: first_coordinate_sorted(points),
            assign: Vec::with_capacity(points.len()),
            starts: Vec::with_capacity(points.len()),
            leaders: Leaders::default(),
        };
        scan.run(points, 0, |_, _| false);
        scan
    }

    /// Re-runs the scan from empty over `points`, at the same threshold.
    pub(crate) fn restart(&mut self, points: Points<'_>) {
        *self = LeaderScan::new(self.limit, points);
    }

    /// Cluster id of each row.
    pub(crate) fn assignments(&self) -> &[usize] {
        &self.assign
    }

    /// Row of each leader, in creation (cluster id) order.
    pub(crate) fn leaders(&self) -> &[usize] {
        &self.leaders.rows
    }

    /// The clustering of the scanned `points`: assignments, and leader rows
    /// as centroids.
    fn into_clustering(self, points: Points<'_>) -> Clustering {
        let centroids = self
            .leaders
            .rows
            .iter()
            .map(|&i| points.row(i).to_vec())
            .collect();
        Clustering::new(self.assign, centroids)
    }

    /// The one leader-scan loop. Decides rows `from..` of `points` in
    /// order, continuing from the state the rows before `from` left, and
    /// stops before the first row `j` whose retirements leave
    /// `converged(j, leaders)` true. Returns that row, or `points.len()`.
    fn run(
        &mut self,
        points: Points<'_>,
        from: usize,
        mut converged: impl FnMut(usize, &Leaders) -> bool,
    ) -> usize {
        for j in from..points.len() {
            let p = points.row(j);
            if self.window {
                self.leaders.retire(points, p[0], self.limit);
            }
            if converged(j, &self.leaders) {
                return j;
            }
            let id = match self.leaders.find(points, p, self.limit) {
                Some(id) => id,
                None => {
                    self.leaders.push(points, j);
                    self.leaders.rows.len() - 1
                }
            };
            self.assign.push(id);
            self.starts.push(self.leaders.start);
        }
        points.len()
    }

    /// Resumes the scan after a row was inserted at `at`. `points` are in
    /// canonical order: the scanned rows with the new one at `at`.
    pub(crate) fn insert(&mut self, points: Points<'_>, at: usize) -> Resumed {
        if canonical_window(points) != self.window {
            // A NaN came into coordinate 0: the stored window starts
            // belong to the sorted window, so every row is rescanned.
            let old_tail = self.leaders.rows.len();
            self.restart(points);
            return Resumed {
                kept: 0,
                fresh: self.leaders.rows.len(),
                old_tail,
                touched: Vec::new(),
            };
        }
        let kept = self.leaders.rows.partition_point(|&l| l < at);
        let old_leaders = self.leaders.rows.split_off(kept);
        self.leaders
            .blocks
            .truncate(kept / LANES * LANES * points.dim());
        self.leaders.start = at.checked_sub(1).map_or(0, |i| self.starts[i]);
        let old_assign = self.assign.split_off(at);
        let old_starts = self.starts.split_off(at);
        // New row `j` past the insertion is old row `j - 1`; old row `o`
        // is new row `new_row(o)`.
        let new_row = |o: usize| o + usize::from(o >= at);
        // Leaders the old run had founded before old row `q`.
        let old_count = |q: usize| kept + old_leaders.partition_point(|&l| l < q);
        let stop = self.run(points, at, |j, leaders| {
            if j == at {
                return false;
            }
            let q = j - 1;
            let (old_start, old_end) = (old_starts[q - at], old_count(q));
            let live = &leaders.rows[leaders.start..];
            live.len() == old_end - old_start
                && live.iter().zip(old_start..old_end).all(|(&l, id)| {
                    let o = if id < kept {
                        leaders.rows[id]
                    } else {
                        old_leaders[id - kept]
                    };
                    new_row(o) == l
                })
        });
        // The old rows `at..rescanned` were decided again; `stop` is past
        // the inserted row, and is `points.len()` when nothing converged.
        let rescanned = stop - 1;
        let mut touched: Vec<usize> = self.assign[at..]
            .iter()
            .chain(&old_assign[..rescanned - at])
            .copied()
            .filter(|&id| id < kept)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let fresh = self.leaders.rows.len();
        let old_tail = old_count(rescanned);
        // Every later id and start is at least the matched window's start,
        // so the shift never underflows.
        let shift = |id: usize| id + fresh - old_tail;
        self.assign
            .extend(old_assign[rescanned - at..].iter().map(|&id| shift(id)));
        self.starts
            .extend(old_starts[rescanned - at..].iter().map(|&s| shift(s)));
        for &o in &old_leaders[old_tail - kept..] {
            self.leaders.push(points, new_row(o));
        }
        Resumed {
            kept,
            fresh,
            old_tail,
            touched,
        }
    }
}

/// The leaders of one scan, in creation order.
#[derive(Debug, Clone, Default)]
struct Leaders {
    /// Row of each leader.
    rows: Vec<usize>,
    /// Every complete run of [`LANES`] leaders, coordinate-major: block
    /// `b` holds coordinate `c` of leader `b * LANES + l` at
    /// `(b * dim + c) * LANES + l`.
    blocks: Vec<f64>,
    /// First leader the sorted window has not retired.
    start: usize,
}

impl Leaders {
    /// Appends row `row` of `points` as a leader, sealing a block once
    /// [`LANES`] are pending.
    fn push(&mut self, points: Points<'_>, row: usize) {
        self.rows.push(row);
        if self.rows.len().is_multiple_of(LANES) {
            let pending = &self.rows[self.rows.len() - LANES..];
            for c in 0..points.dim() {
                self.blocks
                    .extend(pending.iter().map(|&r| points.row(r)[c]));
            }
        }
    }

    /// Retires the leading leaders whose coordinate-0 gap to `x0` alone
    /// exceeds `limit` — the scalar test's verdict after one coordinate.
    /// Only valid on coordinate-0-sorted input, where those leaders form a
    /// prefix and stay rejected for every later point.
    fn retire(&mut self, points: Points<'_>, x0: f64, limit: f64) {
        while let Some(&r) = self.rows.get(self.start) {
            let d = x0 - points.row(r)[0];
            if d * d > limit {
                self.start += 1;
            } else {
                break;
            }
        }
    }

    /// The first live leader within `limit` of `p`: scalar head up to the
    /// first block boundary, lane blocks, scalar tail.
    fn find(&self, points: Points<'_>, p: &[f64], limit: f64) -> Option<usize> {
        let scalar = |from: usize, to: usize| {
            (from..to).find(|&ci| within_sq(p, points.row(self.rows[ci]), limit))
        };
        let n = self.rows.len();
        let sealed = n - n % LANES;
        if self.start >= sealed {
            return scalar(self.start, n);
        }
        let head_end = self.start.next_multiple_of(LANES);
        let block_len = points.dim() * LANES;
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
