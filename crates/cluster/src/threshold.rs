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
//! The point–leader test is `‖p − l‖² ≤ t²`: the *sequential sum* S of
//! the terms `t_c = fl(fl(p_c − l_c)²)` in coordinate order from zero,
//! compared with `limit = t²`. Two devices decide which leaders a point
//! runs that test against; neither changes a verdict, so the first leader
//! that accepts a point is the one a plain scan from leader 0 would pick.
//!
//! * **Sorted window.** When coordinate 0 is NaN-free and non-decreasing
//!   over the input (canonical order guarantees it), leaders are created in
//!   coordinate-0 order and every later point lies at or beyond the current
//!   one. A leader whose coordinate-0 gap alone exceeds the threshold is
//!   then rejected by every later point too, and those leaders form a
//!   prefix of the creation order. The kernel retires that prefix instead
//!   of re-testing it. Unsorted input scans every leader.
//! * **Pruning bound.** When every coordinate of the scanned rows is
//!   finite and `dim ≥ 2`, the scan picks the bound coordinates F: the
//!   `min(4, dim − 1)` coordinates other than coordinate 0 with the
//!   largest spread `Σ (x − mean)²` over the rows, ties to the lower
//!   index, stored in ascending order. Each leader's F coordinates live in
//!   padded blocks of [`LANES`] leaders, coordinate-major. A point computes
//!   per lane the bound B, the sequential sum over F in ascending order of
//!   the same terms `t_c`, and drops every lane with `B > limit`; padded
//!   and retired lanes are masked out explicitly. The survivors, in
//!   creation order, get the full sequential sum S, computed without early
//!   exit and compared once. F depends only on the rows, so it is not a
//!   setting, and any F is exact: it only changes how many survive. A
//!   block has room for four coordinates; when `|F| < 4` the spare slots
//!   hold `0.0` for point and leader alike, and their terms add exactly
//!   zero.
//!
//! Rows with a non-finite coordinate, and 1-D rows, keep the plain test
//! from the window start: the early-exit sum, rejected as soon as a
//! partial sum exceeds `limit`.
//!
//! ## Why the bound is exact
//!
//! * *No NaN on finite rows.* The difference of two finite values is
//!   finite or ±∞, and its square is finite or +∞, so every `t_c ≥ 0` and
//!   no sum of them is NaN.
//! * *B never exceeds S.* Walk the coordinates in ascending order, with
//!   partial S and partial B both starting at 0. A coordinate outside F
//!   adds `t_c ≥ 0` to S alone, and a coordinate in F adds the same `t_c`
//!   to both. Round-to-nearest is monotone, so `fl(s + t) ≥ s` and
//!   `s ≥ b ⇒ fl(s + t) ≥ fl(b + t)`: partial S stays ≥ partial B at every
//!   step, and `B ≤ S` bit for bit.
//! * *So the bound rejects only what the test rejects.* `B > limit`
//!   implies `S > limit`. The partial sums never decrease, so the early
//!   exit fires exactly when the final S exceeds `limit`, and comparing
//!   the final S once gives the same verdict. No margin is needed, at any
//!   `limit` from 0 to +∞.
//! * *Order matters.* Summing F in any other order (by spread, say) can
//!   round B above S, and the bound would then need a margin.
//! * *Non-finite rows break it.* `∞ − ∞` is NaN, and a NaN sum never
//!   exceeds, so those scans keep the plain test.
//!
//! # Resuming
//!
//! [`ThresholdClustering::fit`] runs the scan from empty and drops it. The
//! threshold backend's streaming fit keeps it as a [`LeaderScan`] over
//! canonically ordered rows and resumes it after each inserted row, with
//! the same loop (see [`LeaderScan`]). The bound blocks follow the leaders
//! through a resume. A resumed scan picks F again whenever its row count
//! reaches a power of two, so a scan that started empty gets the bound
//! once rows arrive, and drops the bound when a non-finite row arrives.
//! Neither touches a decision: F changes which tests run, never a verdict.

use crate::clustering::Clustering;
use crate::points::Points;
use subset3d_obs::Stage;

// Wall time per fit; the histogram's count is the number of fits.
static STAGE_FIT: Stage = Stage::new("cluster", "threshold.fit", "cluster.threshold.fit_ns");

/// Leaders per bound block.
const LANES: usize = 8;

/// Most coordinates the pruning bound sums.
const BOUND_COORDS: usize = 4;

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
            leaders: Leaders::new(bound_coords(points)),
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
        if !points.row(at).iter().all(|x| x.is_finite()) {
            // The bound is exact on finite rows only. It changes no
            // verdict, so dropping it keeps every stored decision.
            self.leaders.bind(points, Vec::new());
        }
        let kept = self.leaders.rows.partition_point(|&l| l < at);
        let old_leaders = self.leaders.rows.split_off(kept);
        self.leaders.truncate_blocks();
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
        if points.len().is_power_of_two() {
            // The rows doubled since F was last picked: pick it again, so a
            // scan that started empty gets the bound and F keeps following
            // the rows, at amortised O(dim) per insert.
            self.leaders.bind(points, bound_coords(points));
        }
        Resumed {
            kept,
            fresh,
            old_tail,
            touched,
        }
    }
}

/// The bound coordinates F of `points` (see the module docs): the
/// `min(4, dim − 1)` coordinates after coordinate 0 with the largest
/// spread, ascending. Empty, which turns the bound off, when `dim < 2` or
/// a coordinate is not finite.
fn bound_coords(points: Points<'_>) -> Vec<usize> {
    let dim = points.dim();
    if dim < 2 {
        return Vec::new();
    }
    let mut sums = vec![0.0; dim];
    let mut finite = true;
    for row in points.rows() {
        for (sum, &x) in sums.iter_mut().zip(row) {
            finite &= x.is_finite();
            *sum += x;
        }
    }
    if !finite {
        return Vec::new();
    }
    let n = points.len() as f64;
    let means: Vec<f64> = sums.iter().map(|&sum| sum / n).collect();
    let mut spreads = vec![0.0; dim];
    for row in points.rows() {
        for ((spread, &mean), &x) in spreads.iter_mut().zip(&means).zip(row) {
            *spread += (x - mean) * (x - mean);
        }
    }
    let mut coords: Vec<usize> = (1..dim).collect();
    coords.sort_by(|&a, &b| spreads[b].total_cmp(&spreads[a]).then(a.cmp(&b)));
    coords.truncate(BOUND_COORDS);
    // The exactness argument sums F in ascending coordinate order.
    coords.sort_unstable();
    coords
}

/// Bound coordinates of [`LANES`] leaders, coordinate-major: `[f][l]` is
/// bound coordinate `f` of lane `l`. Slots past `|F|`, and lanes past the
/// last leader, hold `0.0`.
type Block = [[f64; LANES]; BOUND_COORDS];

/// The leaders of one scan, in creation order.
#[derive(Debug, Clone)]
struct Leaders {
    /// Row of each leader.
    rows: Vec<usize>,
    /// The bound coordinates F, ascending; empty when the bound is off.
    coords: Vec<usize>,
    /// Block `b` holds the bound coordinates of leaders
    /// `b * LANES..(b + 1) * LANES`; empty when the bound is off.
    blocks: Vec<Block>,
    /// First leader the sorted window has not retired.
    start: usize,
}

impl Leaders {
    /// No leaders yet, with bound coordinates `coords`.
    fn new(coords: Vec<usize>) -> Self {
        Leaders {
            rows: Vec::new(),
            coords,
            blocks: Vec::new(),
            start: 0,
        }
    }

    /// Switches to bound coordinates `coords` and rebuilds the blocks of
    /// the leaders so far, which are rows of `points`.
    fn bind(&mut self, points: Points<'_>, coords: Vec<usize>) {
        self.coords = coords;
        self.blocks.clear();
        for id in 0..self.rows.len() {
            self.fill_lane(points, id);
        }
    }

    /// Drops the blocks past the last leader, after leaders were dropped.
    fn truncate_blocks(&mut self) {
        self.blocks.truncate(self.rows.len().div_ceil(LANES));
    }

    /// Appends row `row` of `points` as a leader.
    fn push(&mut self, points: Points<'_>, row: usize) {
        self.rows.push(row);
        self.fill_lane(points, self.rows.len() - 1);
    }

    /// Writes leader `id`'s bound coordinates into its lane, opening a
    /// block when the leader is the first of one.
    fn fill_lane(&mut self, points: Points<'_>, id: usize) {
        if self.coords.is_empty() {
            return;
        }
        if id.is_multiple_of(LANES) {
            self.blocks.push([[0.0; LANES]; BOUND_COORDS]);
        }
        let row = points.row(self.rows[id]);
        let block = &mut self.blocks[id / LANES];
        for (lanes, &c) in block.iter_mut().zip(&self.coords) {
            lanes[id % LANES] = row[c];
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

    /// The first live leader within `limit` of `p`: the bound over F drops
    /// most of each block, and the survivors take the full test. Without
    /// the bound, the plain test of every live leader.
    fn find(&self, points: Points<'_>, p: &[f64], limit: f64) -> Option<usize> {
        let n = self.rows.len();
        if self.coords.is_empty() {
            return (self.start..n).find(|&id| within_sq(p, points.row(self.rows[id]), limit));
        }
        // Unused slots are 0.0 on both sides: their terms add exactly zero.
        let mut q = [0.0; BOUND_COORDS];
        for (q, &c) in q.iter_mut().zip(&self.coords) {
            *q = p[c];
        }
        let first = self.start / LANES;
        for (b, block) in self.blocks[first..].iter().enumerate() {
            let base = (first + b) * LANES;
            let mut bound = [0.0f64; LANES];
            for (&x, lanes) in q.iter().zip(block) {
                for l in 0..LANES {
                    let d = x - lanes[l];
                    bound[l] += d * d;
                }
            }
            // Lanes of live leaders: not retired, not padding.
            let live = (1u32 << (n - base).min(LANES)) - (1u32 << self.start.saturating_sub(base));
            let mut survivors =
                (0..LANES).fold(0u32, |mask, l| mask | u32::from(bound[l] <= limit) << l) & live;
            while survivors != 0 {
                let id = base + survivors.trailing_zeros() as usize;
                if sq_dist(p, points.row(self.rows[id])) <= limit {
                    return Some(id);
                }
                survivors &= survivors - 1;
            }
        }
        None
    }
}

/// The sequential squared distance `‖a − b‖²`, without early exit. On
/// finite rows, `sq_dist(a, b) <= limit` is [`within_sq`]'s verdict.
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
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

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A finite value drawn across the whole `f64` range: arbitrary bit
    /// patterns, subnormals, magnitudes whose squares overflow to +∞, and
    /// small values.
    fn finite(rng: &mut StdRng) -> f64 {
        let sign = if rng.gen::<bool>() { -1.0 } else { 1.0 };
        match rng.gen_range(0..4) {
            0 => loop {
                let x = f64::from_bits(rng.gen());
                if x.is_finite() {
                    break x;
                }
            },
            1 => sign * f64::from_bits(rng.gen_range(1..1u64 << 52)),
            2 => sign * rng.gen_range(1e154..f64::MAX),
            _ => rng.gen_range(-4.0..4.0),
        }
    }

    /// The sequential sum of the terms of `coords`, in the given order.
    fn sum_over(p: &[f64], l: &[f64], coords: &[usize]) -> f64 {
        let mut acc = 0.0;
        for &c in coords {
            let d = p[c] - l[c];
            acc += d * d;
        }
        acc
    }

    #[test]
    fn bound_never_exceeds_the_sum_and_keeps_every_verdict() {
        let mut rng = StdRng::seed_from_u64(0x05EE_DB0D);
        for case in 0..4000 {
            let dim = rng.gen_range(1..=64usize);
            let p: Vec<f64> = (0..dim).map(|_| finite(&mut rng)).collect();
            // Leaders near the point as well as far from it, so sums land
            // on both sides of every limit.
            let l: Vec<f64> = p
                .iter()
                .map(|&x| match rng.gen_range(0..3) {
                    0 => x,
                    1 => x + rng.gen_range(-1.0..1.0),
                    _ => finite(&mut rng),
                })
                .collect();
            let s = sq_dist(&p, &l);
            assert!(s >= 0.0, "case {case}: sum {s}");
            let all: Vec<usize> = (0..dim).collect();
            assert_eq!(s.to_bits(), sum_over(&p, &l, &all).to_bits());
            // Any ascending subset, coordinate 0 included.
            let subset: Vec<usize> = (0..dim).filter(|_| rng.gen::<bool>()).collect();
            let b = sum_over(&p, &l, &subset);
            assert!(b <= s, "case {case}: bound {b} over {subset:?} > sum {s}");
            // The kernel's F: at most four ascending coordinates past 0.
            let coords: Vec<usize> = (1..dim)
                .filter(|_| rng.gen_range(0..dim) < 6)
                .take(BOUND_COORDS)
                .collect();
            let data = [l.as_slice(), p.as_slice()].concat();
            let points = Points::new(&data, dim);
            let mut leaders = Leaders::new(coords.clone());
            leaders.push(points, 0);
            for limit in [s, s.next_down(), s.next_up(), 0.0, f64::INFINITY] {
                if limit < 0.0 {
                    continue;
                }
                let want = within_sq(&p, &l, limit);
                assert_eq!(
                    leaders.find(points, &p, limit),
                    want.then_some(0),
                    "case {case}: dim {dim} F {coords:?} limit {limit:e} sum {s:e}"
                );
                // The whole scan, with F picked from the two rows' spreads.
                let scan = LeaderScan::new(limit, points);
                assert_eq!(
                    scan.assignments()[1] == 0,
                    want,
                    "case {case}: dim {dim} F {:?} limit {limit:e} sum {s:e}",
                    scan.leaders.coords
                );
            }
        }
    }

    #[test]
    fn bound_coords_take_the_widest_four_in_ascending_order() {
        let weights = [1.0, 1.0, 8.0, 2.0, 16.0, 4.0, 0.5];
        let rows: Vec<f64> = (0..50)
            .flat_map(|i| weights.map(|w| w * f64::from(i % 7)))
            .collect();
        assert_eq!(bound_coords(Points::new(&rows, 7)), [2, 3, 4, 5]);
        // Equal spreads go to the lower index; coordinate 0 never counts.
        let flat: Vec<f64> = (0..60).map(|i| f64::from(i % 6 + i / 6)).collect();
        assert_eq!(bound_coords(Points::new(&flat, 6)), [1, 2, 3, 4]);
        assert_eq!(bound_coords(Points::new(&flat, 3)), [1, 2]);
        assert!(bound_coords(Points::new(&flat, 1)).is_empty());
        let mut hostile = flat.clone();
        hostile[17] = f64::INFINITY;
        assert!(bound_coords(Points::new(&hostile, 6)).is_empty());
    }

    /// Whether every leader's lane holds its bound coordinates.
    fn blocks_in_step(leaders: &Leaders, points: Points<'_>) -> bool {
        if leaders.coords.is_empty() {
            return leaders.blocks.is_empty();
        }
        leaders.blocks.len() == leaders.rows.len().div_ceil(LANES)
            && leaders.rows.iter().enumerate().all(|(id, &r)| {
                leaders.coords.iter().enumerate().all(|(f, &c)| {
                    leaders.blocks[id / LANES][f][id % LANES].to_bits()
                        == points.row(r)[c].to_bits()
                })
            })
    }

    #[test]
    fn a_scan_that_starts_empty_picks_the_bound_and_drops_it_for_a_nan() {
        let mut rng = StdRng::seed_from_u64(0xB00D);
        let dim = 6;
        let limit = 1.0;
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut scan = LeaderScan::new(limit, Points::new(&[], 0));
        for i in 0..300 {
            let row: Vec<f64> = if i == 200 {
                vec![0.5, f64::NAN, 0.0, 0.0, 0.0, 0.0]
            } else {
                (0..dim)
                    .map(|_| f64::from(rng.gen_range(-4..=4i32)) * 0.5)
                    .collect()
            };
            let at = rows.partition_point(|r| {
                r.iter()
                    .zip(&row)
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|c| c.is_ne())
                    .is_some_and(|c| c.is_lt())
            });
            rows.insert(at, row);
            let data = rows.concat();
            let points = Points::new(&data, dim);
            scan.insert(points, at);
            let fresh = LeaderScan::new(limit, points);
            assert_eq!(scan.assignments(), fresh.assignments(), "after row {i}");
            assert_eq!(scan.leaders(), fresh.leaders(), "after row {i}");
            assert_eq!(scan.leaders.coords.is_empty(), i >= 200, "after row {i}");
            assert!(blocks_in_step(&scan.leaders, points), "after row {i}");
        }
    }
}
