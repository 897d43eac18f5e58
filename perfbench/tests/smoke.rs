//! Tiny-size runs of every workload in both modes: every named metric is
//! present, finite and carries its unit, the output checks pass, and the
//! metric tables match `BENCHMARK.json`.

use serde_json::Value;
use subset3d_perfbench::inputs::{self, Sizes, STANDARD_CORPUS};
use subset3d_perfbench::report::{END_TO_END, PER_LAYER};
use subset3d_perfbench::{run, Run, Workload};

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Object(fields) => {
            &fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing key {key}"))
                .1
        }
        other => panic!("not an object: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

/// Runs one tiny workload and returns the parsed metrics object.
fn smoke(workload: Workload, trace: bool) -> Value {
    let r = Run {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        sizes: Sizes::tiny(),
    };
    let (out, chrome_trace) = run(&r);
    assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
    let table = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let line = out
        .result_line(table)
        .expect("every metric measured and finite");
    let result = serde_json::parse_value(&line).expect("result line is JSON");
    assert_eq!(field(&result, "correct"), &Value::Bool(true));
    assert!(number(field(&result, "attempted")) >= 1.0);
    assert_eq!(number(field(&result, "failed")), 0.0);
    let metrics = field(&result, "metrics");
    let Value::Object(entries) = metrics else {
        panic!("metrics is not an object");
    };
    assert_eq!(entries.len(), table.len());
    for (name, unit) in table {
        let m = field(metrics, name);
        assert!(number(field(m, "value")).is_finite(), "{name} not finite");
        assert_eq!(text(field(m, "unit")), *unit, "{name} unit");
    }
    if trace {
        let chrome = chrome_trace.expect("traced run writes spans");
        let stats = subset3d_obs::validate_chrome(&chrome).expect("trace-validate accepts it");
        assert!(stats.spans > 0);
    } else {
        assert!(chrome_trace.is_none());
        for name in [
            "setup_s",
            "subset_draws_per_s",
            "sim_draws_per_s",
            "op_p50_ms",
        ] {
            assert!(number(field(field(metrics, name), "value")) > 0.0, "{name}");
        }
    }
    metrics.clone()
}

fn value(metrics: &Value, name: &str) -> f64 {
    number(field(field(metrics, name), "value"))
}

// One test: the workloads share the process-global exec pool and event
// tracer, so they run one after another.
#[test]
fn every_workload_reports_every_metric() {
    let busy = |w: Workload, names: &[&str]| {
        smoke(w, false);
        let layers = smoke(w, true);
        for name in names {
            assert!(value(&layers, name) > 0.0, "{}: {name} is zero", w.name());
        }
    };
    busy(
        Workload::BatchSubset,
        &[
            "features.extract_ms",
            "cluster.frame_fit_ms",
            "gpusim.simulate_ms",
            "core.phase_ms",
            "exec.busy_ms",
            "ledger.op_ms",
        ],
    );
    busy(
        Workload::PathfindingSweep,
        &[
            "gpusim.simulate_ms",
            "gpusim.cold_pass_ms",
            "gpusim.warm_pass_ms",
            "gpusim.batch_lookups",
            "gpusim.replay_ms",
            "core.validate_ms",
        ],
    );
    busy(
        Workload::ServeStream,
        &[
            "serve.ingest_ms",
            "serve.update_ms",
            "trace.encode_ms",
            "trace.decode_ms",
            "stats.rls_ms",
            "serve.chunks",
        ],
    );
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text_json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let root = serde_json::parse_value(&text_json).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Value::Array(items) = field(&root, key) else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_owned(),
                    text(field(m, "unit")).to_owned(),
                )
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let Value::Array(workloads) = field(&root, "workloads") else {
        panic!("workloads is not an array");
    };
    let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn default_seed_reproduces_the_standard_corpus() {
    let ours = inputs::corpus(&STANDARD_CORPUS, subset3d_trace::gen::CORPUS_SEED);
    let standard = subset3d_trace::gen::standard_corpus();
    assert_eq!(ours.len(), standard.len());
    for (a, b) in ours.iter().zip(&standard) {
        assert!(a == b, "title {} differs from standard_corpus()", a.name);
    }
    let frames: usize = ours.iter().map(|w| w.frames().len()).sum();
    assert_eq!(frames, 717);
}
