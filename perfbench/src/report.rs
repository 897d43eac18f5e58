//! Metric names, the result line, and the record of each run's
//! environment.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced run), `(name, unit)`. Every workload
/// reports every one; `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_pct", "%"),
    ("subset_draws_per_s", "draws/s"),
    ("sim_draws_per_s", "draws/s"),
    ("frames_per_s", "frames/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("pred_error_pct", "%"),
    ("efficiency_pct", "%"),
    ("outlier_cluster_pct", "%"),
    ("subset_draw_pct", "%"),
    ("freq_scaling_corr", "ratio"),
    ("rank_agreement", "ratio"),
];

/// Per-layer metrics (traced run), `(name, unit)`. Time metrics are per
/// op (corpus pass, sweep op or chunk) unless the doc says otherwise; a
/// layer a workload never calls reads zero there.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("trace.generate_ms", "ms"),
    ("trace.encode_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("trace.wire_bytes_per_frame", "bytes"),
    ("features.extract_ms", "ms"),
    ("features.rows", "count"),
    ("cluster.frame_fit_ms", "ms"),
    ("cluster.clusters", "count"),
    ("cluster.distance_evals_max", "count"),
    ("gpusim.simulate_ms", "ms"),
    ("gpusim.draws", "count"),
    ("gpusim.draws_per_busy_s", "draws/s"),
    ("gpusim.replay_ms", "ms"),
    ("gpusim.cold_pass_ms", "ms"),
    ("gpusim.warm_pass_ms", "ms"),
    ("gpusim.batch_hit_rate", "ratio"),
    ("gpusim.batch_lookups", "count"),
    ("core.predict_ms", "ms"),
    ("core.phase_ms", "ms"),
    ("core.subset_build_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("serve.ingest_ms", "ms"),
    ("serve.update_ms", "ms"),
    ("serve.frame_point_ms", "ms"),
    ("serve.json_ms", "ms"),
    ("serve.socket_ms", "ms"),
    ("serve.chunks", "count"),
    ("serve.errors", "count"),
    ("serve.shed", "count"),
    ("stats.rls_ms", "ms"),
    ("exec.threads", "count"),
    ("exec.busy_ms", "ms"),
    ("exec.idle_ms", "ms"),
    ("exec.efficiency", "ratio"),
    ("ledger.op_ms", "ms"),
    ("ledger.ops", "count"),
    ("ledger.glue_ms", "ms"),
    ("ledger.remainder_ms", "ms"),
    ("ledger.profile_gap_pct", "%"),
    ("unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Metric name → value; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (runs, passes, replays, OPEN/INGEST/CLOSE,
    /// output checks).
    pub attempted: u64,
    /// Attempted operations that errored or failed a check.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub failures: Vec<String>,
    /// Informational `key=value` notes (sample counts, percentiles…).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one attempted operation; `Err` counts it as failed.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempt(what, if ok { Ok(()) } else { Err("check failed") });
    }

    /// Adds the counts and failures of an outcome recorded on another
    /// thread.
    pub fn absorb(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an informational note.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The result line for the given metric table. Fails if a metric of
    /// the table is missing or not finite.
    pub fn result_line(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            // `{:?}` is the shortest round-trip form, every digit kept;
            // its exponent form (`1e-7`) is valid JSON.
            let text = |s: &str| serde_json::to_string(s).expect("a string serialises");
            metrics.push(format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                text(name),
                text(unit)
            ));
        }
        let correct = self.failed == 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit checked out at `root`, read from `root/.git` without
/// running git; `unknown` when the checkout is not a repository.
pub fn commit(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the library sources under `root` (`crates/` and
/// `Cargo.lock`): paths in sorted order, then contents. It names the code
/// a result was measured on when the checkout carries no `.git`.
pub fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let name = path.strip_prefix(root).unwrap_or(path);
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in name.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a metric name keeps to `[A-Za-z0-9_.-]`, starts with a letter
    /// or digit and is at most 64 characters long.
    pub fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_keep_to_the_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
        assert!(valid_name("a.b-c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names must be unique");
    }

    #[test]
    fn result_line_needs_every_metric_finite() {
        let table = [("a_ms", "ms"), ("b", "count")];
        let mut o = Outcome::default();
        o.set("a_ms", 1.25);
        assert!(o.result_line(&table).is_err());
        o.set("b", f64::NAN);
        assert!(o.result_line(&table).is_err());
        o.set("b", 3.0);
        o.check("ok", true);
        let line = o.result_line(&table).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        o.check("bad", false);
        assert!(o
            .result_line(&table)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
