//! Prometheus text exposition of a [`MetricsSnapshot`], plus the
//! structural validator behind the CLI's `telemetry-validate`.
//!
//! The exporter follows the text exposition format, version 0.0.4: one
//! `# TYPE` line per metric before its samples, metric names sanitised
//! to `[a-zA-Z_:][a-zA-Z0-9_:]*` (the registry's dots become
//! underscores), label values escaped (`\\`, `\"`, `\n`), histograms as
//! cumulative `_bucket{le="…"}` series capped by `le="+Inf"` plus
//! `_sum`/`_count`. Labeled families emit one sample per cell under the
//! family's label key.

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maps the registry's dot-separated metric name onto the Prometheus
/// name charset: `[a-zA-Z0-9_:]` kept, everything else becomes `_`, and
/// a leading digit gets a `_` prefix.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn write_histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for bucket in &h.buckets {
        cumulative += bucket.count;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
            bucket.le_ns
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", h.sum_ns);
        let _ = writeln!(out, "{name}_count {}", h.count);
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum_ns);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
    }
}

fn family_label(key: &str, value: &str) -> String {
    format!("{}=\"{}\"", sanitize_name(key), escape_label_value(value))
}

/// Renders `snap` in Prometheus text exposition format.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, fam) in &snap.gauge_families {
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        for cell in &fam.cells {
            let _ = writeln!(
                out,
                "{name}{{{}}} {}",
                family_label(&fam.label_key, &cell.label),
                cell.value
            );
        }
    }
    for (name, h) in &snap.histograms {
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        write_histogram(&mut out, &name, "", h);
    }
    for (name, fam) in &snap.histogram_families {
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        for cell in &fam.cells {
            write_histogram(
                &mut out,
                &name,
                &family_label(&fam.label_key, &cell.label),
                &cell.value,
            );
        }
    }
    out
}

/// What [`validate_prometheus`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromStats {
    /// `# TYPE` declarations seen.
    pub types: usize,
    /// Sample lines seen.
    pub samples: usize,
    /// Distinct histogram series (one per label set) checked for
    /// bucket cumulativity.
    pub histogram_series: usize,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Label pairs parsed off a sample line.
type Labels = Vec<(String, String)>;

/// Parses `{k="v",…}` starting after the `{`; returns the label pairs
/// and the rest of the line after the closing `}`.
fn parse_labels(s: &str) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches([' ', ',']);
        if let Some(stripped) = rest.strip_prefix('}') {
            return Ok((labels, stripped));
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim().to_owned();
        if !valid_name(&key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("unquoted label value after {key}"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let after = loop {
            let (i, c) = chars
                .next()
                .ok_or_else(|| format!("unterminated label value for {key}"))?;
            match c {
                '"' => break &rest[i + 1..],
                '\\' => {
                    let (_, esc) = chars
                        .next()
                        .ok_or_else(|| format!("dangling escape in label {key}"))?;
                    match esc {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        other => return Err(format!("bad escape \\{other} in label {key}")),
                    }
                }
                other => value.push(other),
            }
        };
        labels.push((key, value));
        rest = after;
    }
}

/// Structural lint of Prometheus text exposition output: every sample's
/// metric has a `# TYPE` declared before it, names and label keys stay
/// in the legal charset, label values unescape cleanly, values parse as
/// finite numbers, and every histogram series has non-decreasing
/// cumulative buckets capped by a `le="+Inf"` bucket that equals its
/// `_count`.
///
/// # Errors
///
/// Returns `"line N: …"` for the first violated invariant.
pub fn validate_prometheus(text: &str) -> Result<PromStats, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = 0usize;
    // (base name, non-le labels) → buckets / sum seen / count value.
    type Series = (Vec<(f64, f64)>, bool, Option<f64>);
    let mut histograms: BTreeMap<(String, String), Series> = BTreeMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let fail = |msg: String| format!("line {lineno}: {msg}");
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or_else(|| fail("TYPE without name".into()))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| fail("TYPE without kind".into()))?;
                if !valid_name(name) {
                    return Err(fail(format!("invalid metric name {name:?}")));
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return Err(fail(format!("unknown metric type {kind:?}")));
                }
                if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                    return Err(fail(format!("duplicate TYPE for {name}")));
                }
            }
            continue;
        }

        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| fail("sample without value".into()))?;
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(fail(format!("invalid metric name {name:?}")));
        }
        let (labels, rest) = if line[name_end..].starts_with('{') {
            parse_labels(&line[name_end + 1..]).map_err(fail)?
        } else {
            (Vec::new(), &line[name_end..])
        };
        let value_str = rest.split_whitespace().next().unwrap_or("");
        let value: f64 = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse()
                .map_err(|_| fail(format!("unparseable value {v:?} for {name}")))?,
        };
        if value.is_nan() {
            return Err(fail(format!("NaN value for {name}")));
        }
        samples += 1;

        // A histogram's component samples resolve to the base name's
        // TYPE; everything else must carry its own.
        let base = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            let stripped = name.strip_suffix(suffix)?;
            (types.get(stripped).map(String::as_str) == Some("histogram"))
                .then_some((stripped, *suffix))
        });
        match base {
            Some((base, suffix)) => {
                let series_labels: Vec<String> = labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let key = (base.to_owned(), series_labels.join(","));
                let entry = histograms.entry(key).or_default();
                match suffix {
                    "_bucket" => {
                        let le = labels
                            .iter()
                            .find(|(k, _)| k == "le")
                            .ok_or_else(|| fail(format!("{name} bucket without le label")))?;
                        let bound: f64 = match le.1.as_str() {
                            "+Inf" => f64::INFINITY,
                            v => v.parse().map_err(|_| {
                                fail(format!("unparseable le bound {:?} on {name}", le.1))
                            })?,
                        };
                        entry.0.push((bound, value));
                    }
                    "_sum" => entry.1 = true,
                    _ => entry.2 = Some(value),
                }
            }
            None => {
                if !types.contains_key(name) {
                    return Err(fail(format!("sample for {name} before any TYPE line")));
                }
            }
        }
    }

    for ((name, labels), (mut buckets, has_sum, count)) in histograms {
        let series = if labels.is_empty() {
            name.clone()
        } else {
            format!("{name}{{{labels}}}")
        };
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        if buckets.last().is_none_or(|(le, _)| le.is_finite()) {
            return Err(format!("histogram {series} lacks an le=\"+Inf\" bucket"));
        }
        let mut prev = f64::NEG_INFINITY;
        for (le, cumulative) in &buckets {
            if *cumulative < prev {
                return Err(format!(
                    "histogram {series} buckets not cumulative at le={le}"
                ));
            }
            prev = *cumulative;
        }
        let inf = buckets.last().map(|(_, v)| *v).unwrap_or(0.0);
        match count {
            None => return Err(format!("histogram {series} lacks a _count sample")),
            Some(c) if c != inf => {
                return Err(format!(
                    "histogram {series} _count {c} disagrees with le=\"+Inf\" bucket {inf}"
                ))
            }
            Some(_) => {}
        }
        if !has_sum {
            return Err(format!("histogram {series} lacks a _sum sample"));
        }
    }

    Ok(PromStats {
        types: types.len(),
        samples,
        histogram_series: text
            .lines()
            .filter(|l| l.trim_start().starts_with("# TYPE") && l.trim_end().ends_with("histogram"))
            .count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{BucketCount, FamilyCell, FamilySnapshot};

    fn sample_snapshot() -> MetricsSnapshot {
        let hist = HistogramSnapshot {
            count: 3,
            sum_ns: 1100,
            min_ns: 100,
            max_ns: 600,
            mean_ns: 1100.0 / 3.0,
            buckets: vec![
                BucketCount {
                    le_ns: 128,
                    count: 1,
                },
                BucketCount {
                    le_ns: 512,
                    count: 1,
                },
                BucketCount {
                    le_ns: 1024,
                    count: 1,
                },
            ],
        };
        MetricsSnapshot {
            enabled: true,
            counters: [("serve.frames_ingested".to_owned(), 42u64)].into(),
            gauge_families: [(
                "serve.session.reservoir_occupancy".to_owned(),
                FamilySnapshot {
                    label_key: "session".to_owned(),
                    cells: vec![FamilyCell {
                        slot: 1,
                        label: "session-1".to_owned(),
                        epoch: 1,
                        value: -1i64,
                    }],
                },
            )]
            .into(),
            histograms: [("serve.ingest_ns".to_owned(), hist.clone())].into(),
            histogram_families: [(
                "serve.session.ingest_ns".to_owned(),
                FamilySnapshot {
                    label_key: "session".to_owned(),
                    cells: vec![FamilyCell {
                        slot: 1,
                        label: "session-1".to_owned(),
                        epoch: 1,
                        value: hist,
                    }],
                },
            )]
            .into(),
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn exposition_passes_its_own_validator() {
        let text = to_prometheus(&sample_snapshot());
        let stats = validate_prometheus(&text).unwrap();
        assert_eq!(stats.types, 4);
        assert_eq!(stats.histogram_series, 2);
        assert!(stats.samples >= 10);
    }

    #[test]
    fn names_are_sanitised_and_buckets_cumulative() {
        let text = to_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE serve_ingest_ns histogram"));
        assert!(!text.contains("serve.ingest_ns"), "dots must not survive");
        assert!(text.contains("serve_ingest_ns_bucket{le=\"128\"} 1"));
        assert!(text.contains("serve_ingest_ns_bucket{le=\"512\"} 2"));
        assert!(text.contains("serve_ingest_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("serve_session_ingest_ns_bucket{session=\"session-1\",le=\"128\"} 1"));
    }

    #[test]
    fn label_values_are_escaped() {
        let snap = MetricsSnapshot {
            gauge_families: [(
                "fam.weird".to_owned(),
                FamilySnapshot {
                    label_key: "label".to_owned(),
                    cells: vec![FamilyCell {
                        slot: 1,
                        label: "a\\b\"c\nd".to_owned(),
                        epoch: 1,
                        value: 1i64,
                    }],
                },
            )]
            .into(),
            ..MetricsSnapshot::default()
        };
        let text = to_prometheus(&snap);
        assert!(
            text.contains(r#"fam_weird{label="a\\b\"c\nd"} 1"#),
            "{text}"
        );
        validate_prometheus(&text).unwrap();
    }

    #[test]
    fn validator_rejects_samples_before_type() {
        let err = validate_prometheus("loose_metric 1\n").unwrap_err();
        assert!(err.contains("before any TYPE"), "{err}");
    }

    #[test]
    fn validator_rejects_non_cumulative_buckets() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 10
h_count 5
";
        let err = validate_prometheus(text).unwrap_err();
        assert!(err.contains("not cumulative"), "{err}");
    }

    #[test]
    fn validator_rejects_count_mismatch_and_missing_inf() {
        let mismatch = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"+Inf\"} 5
h_sum 10
h_count 6
";
        assert!(validate_prometheus(mismatch)
            .unwrap_err()
            .contains("disagrees"));
        let no_inf = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_sum 10
h_count 5
";
        assert!(validate_prometheus(no_inf).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn validator_rejects_bad_names_and_duplicate_types() {
        assert!(validate_prometheus("# TYPE 9bad counter\n9bad 1\n").is_err());
        let dup = "# TYPE a counter\n# TYPE a counter\na 1\n";
        assert!(validate_prometheus(dup).unwrap_err().contains("duplicate"));
    }
}
