//! Spans recorded around the benchmark's calls into each layer, and the
//! self-time ledger built from them.
//!
//! A span records its name, start, end, parent span, thread and request
//! arguments. Spans stay in memory until the run ends. A span's self time
//! is its duration minus the part of its interval that its children
//! cover; children may run on other threads (pool tasks under a stage
//! span), so coverage is the union of their intervals.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; [`NO_PARENT`] marks a root.
pub type SpanId = u64;

/// Parent id of root spans.
pub const NO_PARENT: SpanId = 0;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique, nonzero id.
    pub id: SpanId,
    /// Id of the span that caused this one, or [`NO_PARENT`].
    pub parent: SpanId,
    /// `layer.piece` name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Recording thread.
    pub tid: u32,
    /// Request identifiers (title, frame, pass, chunk…).
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans when enabled; when disabled, [`Recorder::span`] only
/// runs its closure.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<BTreeMap<u32, String>>,
}

impl Recorder {
    /// A recorder; `enabled` selects the traced run.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent the
    /// spans it causes.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        args: &[(&'static str, u64)],
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(NO_PARENT);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let tid = TID.with(|t| *t);
        self.threads
            .lock()
            .expect("thread table lock poisoned by a panicking span")
            .entry(tid)
            .or_insert_with(|| {
                std::thread::current()
                    .name()
                    .map_or_else(|| format!("thread-{tid}"), str::to_owned)
            });
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            tid,
            args: args.to_vec(),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking span")
            .push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// `(tid, thread name)` of every recording thread.
    pub fn threads(&self) -> Vec<(u32, String)> {
        self.threads
            .lock()
            .expect("thread table lock poisoned")
            .iter()
            .map(|(tid, name)| (*tid, name.clone()))
            .collect()
    }
}

/// Self time of every span, index-aligned with `spans`: duration minus
/// the union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Σ durations, ns.
    pub total_ns: u64,
    /// Σ self times, ns.
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The spans descending from roots accepted by `is_root`, roots included.
pub fn subtree(spans: &[Span], is_root: impl Fn(&Span) -> bool) -> Vec<Span> {
    let mut keep: std::collections::BTreeSet<SpanId> =
        spans.iter().filter(|s| is_root(s)).map(|s| s.id).collect();
    // Parents always close after their children, so completion order is
    // not topological; iterate to a fixed point instead.
    loop {
        let before = keep.len();
        for s in spans {
            if keep.contains(&s.parent) {
                keep.insert(s.id);
            }
        }
        if keep.len() == before {
            break;
        }
    }
    spans
        .iter()
        .filter(|s| keep.contains(&s.id))
        .cloned()
        .collect()
}

/// A ledger's coverage, per op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Health {
    /// Ops the ledger covers.
    pub ops: usize,
    /// Duration of one op, ms.
    pub op_ms: f64,
    /// Σ self time of one op's spans (threads summed), ms.
    pub total_ms: f64,
    /// Self time of spans no layer owns (the op's own span, stage
    /// spans), ms per op.
    pub glue_ms: f64,
    /// Time inside nested public calls that their separately timed
    /// pieces do not explain, ms per op.
    pub remainder_ms: f64,
}

impl Health {
    /// Health of the spans under `ops` roots named `root`, whose totals
    /// are `totals`; `glue` names the other spans no layer owns.
    pub fn of(
        totals: &BTreeMap<&'static str, NameTotals>,
        root: &str,
        glue: &[&str],
        ops: usize,
        remainder_ms: f64,
    ) -> Health {
        let per = |ns: u64| ns as f64 / 1e6 / ops.max(1) as f64;
        let self_of = |name: &str| totals.get(name).map_or(0, |t| t.self_ns);
        Health {
            ops,
            op_ms: per(totals.get(root).map_or(0, |t| t.total_ns)),
            total_ms: per(totals.values().map(|t| t.self_ns).sum()),
            glue_ms: per(self_of(root) + glue.iter().map(|g| self_of(g)).sum::<u64>()),
            remainder_ms,
        }
    }

    /// Share of the ledger's time no layer accounts for, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        crate::pct(self.glue_ms + self.remainder_ms, self.total_ms)
    }

    /// Records the `ledger.*` metrics and `unattributed_pct`.
    pub fn record(&self, out: &mut crate::report::Outcome) {
        out.set("ledger.op_ms", self.op_ms);
        out.set("ledger.ops", self.ops as f64);
        out.set("ledger.glue_ms", self.glue_ms);
        out.set("ledger.remainder_ms", self.remainder_ms);
        out.set("unattributed_pct", self.unattributed_pct());
    }
}

/// Chrome trace-event JSON (object form) of the spans, the form
/// `subset3d trace-validate` accepts. Times are whole microseconds
/// (floored), which keeps every child inside its parent exactly.
pub fn chrome_json(spans: &[Span], threads: &[(u32, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"subset3d-perfbench\"}}",
    );
    for (tid, name) in threads {
        let _ = write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            serde_json::to_string(name).expect("a string serialises")
        );
    }
    for s in spans {
        let (ts, end) = (s.start_ns / 1000, s.end_ns / 1000);
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{}",
            s.name,
            s.layer(),
            end - ts,
            s.tid,
            s.id,
            s.parent
        );
        for (k, v) in &s.args {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start: u64, end: u64, tid: u32) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            start_ns: start,
            end_ns: end,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children_across_threads() {
        let spans = vec![
            // A stage on thread 1 whose pool tasks run on threads 1 and 2.
            span(1, NO_PARENT, 0, 100, 1),
            span(2, 1, 10, 60, 1),
            span(3, 1, 20, 90, 2),
            // A task that outlives its parent is clipped to the parent.
            span(4, 1, 95, 120, 2),
            // Grandchild: only its own parent loses it.
            span(5, 2, 20, 30, 1),
        ];
        let st = self_times(&spans);
        // Children cover [10, 90) ∪ [95, 100) = 85 of 100.
        assert_eq!(st[0], 15);
        assert_eq!(st[1], 40);
        assert_eq!(st[2], 70);
        assert_eq!(st[3], 25);
        assert_eq!(st[4], 10);
        let totals = by_name(&spans)["t.x"];
        assert_eq!(totals.total_ns, 100 + 50 + 70 + 25 + 10);
        assert_eq!(totals.self_ns, 15 + 40 + 70 + 25 + 10);
    }

    #[test]
    fn unattributed_share_counts_glue_and_remainder() {
        let mut spans = vec![
            // Two ops; each op span's pool tasks leave 20 ns uncovered.
            span(1, NO_PARENT, 0, 100, 1),
            span(2, 1, 10, 60, 1),
            span(3, 1, 20, 90, 2),
            span(4, NO_PARENT, 200, 300, 1),
            span(5, 4, 210, 290, 2),
        ];
        for s in &mut spans {
            s.name = if s.parent == NO_PARENT {
                "op.x"
            } else {
                "layer.y"
            };
        }
        let totals = by_name(&spans);
        let h = Health::of(&totals, "op.x", &[], 2, 0.0);
        assert_eq!(h.op_ms, 100e-6);
        // Self times: op 20 + 20, tasks 50 + 70 + 80; per op 120 ns.
        assert_eq!(h.glue_ms, 20e-6);
        assert_eq!(h.total_ms, 120e-6);
        assert!((h.unattributed_pct() - 100.0 / 6.0).abs() < 1e-9);
        // A nested call's unexplained remainder adds to the glue.
        let h = Health::of(&totals, "op.x", &[], 2, 6e-6);
        assert!((h.unattributed_pct() - 100.0 * 26.0 / 120.0).abs() < 1e-9);
        let empty = Health::of(&BTreeMap::new(), "op.x", &[], 0, 0.0);
        assert_eq!(empty.unattributed_pct(), 0.0);
    }

    #[test]
    fn subtree_follows_parents() {
        let mut spans = vec![
            span(1, NO_PARENT, 0, 10, 1),
            span(2, 1, 1, 5, 1),
            span(3, 2, 2, 3, 2),
            span(4, NO_PARENT, 20, 30, 1),
        ];
        spans[0].name = "op.a";
        let kept: Vec<SpanId> = subtree(&spans, |s| s.name == "op.a")
            .iter()
            .map(|s| s.id)
            .collect();
        assert_eq!(kept, vec![1, 2, 3]);
    }

    #[test]
    fn recorder_nests_and_exports_valid_chrome_json() {
        let rec = Recorder::new(true);
        rec.span("op.root", NO_PARENT, &[("pass", 1)], |root| {
            std::thread::scope(|scope| {
                scope.spawn(|| rec.span("layer.child", root, &[("frame", 7)], |_| {}));
            });
            rec.span("layer.child", root, &[], |_| {});
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "op.root").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "layer.child")
            .all(|s| s.parent == root.id));
        let json = chrome_json(&spans, &rec.threads());
        let stats = subset3d_obs::validate_chrome(&json).expect("valid chrome trace");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.threads, 2);

        let off = Recorder::new(false);
        assert_eq!(off.span("op.root", NO_PARENT, &[], |id| id), NO_PARENT);
        assert!(off.spans().is_empty());
    }
}
