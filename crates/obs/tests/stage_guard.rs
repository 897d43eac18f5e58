//! The stage guard records one duration into two layers: a stage entered
//! with metrics on records one histogram sample, a stage entered with
//! tracing on records one span event, and with both on the two carry the
//! same duration, read from one pair of clock samples.

use std::sync::{Mutex, MutexGuard};
use subset3d_obs::{
    events_recorded, snapshot, start_tracing, stop_tracing, trace_allocs, Stage, TraceEvent,
    TraceMode, TracePhase,
};

/// Serialises tests that flip the process-global metric and trace modes.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with metrics and tracing set as asked; returns the events
/// recorded if tracing was on.
fn run(metrics: bool, tracing: bool, f: impl FnOnce()) -> Vec<TraceEvent> {
    subset3d_obs::set_enabled(metrics);
    if tracing {
        start_tracing(TraceMode::Full);
    }
    f();
    subset3d_obs::set_enabled(false);
    if tracing {
        stop_tracing()
    } else {
        Vec::new()
    }
}

/// Samples recorded into `name` so far (0 if never registered).
fn samples(name: &str) -> (u64, u64) {
    snapshot()
        .histograms
        .get(name)
        .map_or((0, 0), |h| (h.count, h.sum_ns))
}

#[test]
fn both_layers_on_record_one_sample_equal_to_the_span() {
    static BOTH: Stage = Stage::new("test", "stage.both", "stage_test.both_ns");
    let _guard = lock();
    let events = run(true, true, || {
        let _stage = BOTH.enter_arg("items", 3);
        std::hint::black_box((0..1000u64).sum::<u64>());
    });
    assert_eq!(events.len(), 1, "{events:?}");
    let ev = &events[0];
    assert_eq!(ev.phase, TracePhase::Span);
    assert_eq!((ev.cat, ev.name), ("test", "stage.both"));
    assert_eq!((ev.arg_key, ev.arg_val), ("items", 3));
    let (count, sum_ns) = samples("stage_test.both_ns");
    assert_eq!(count, 1);
    assert_eq!(
        sum_ns, ev.dur_ns,
        "histogram and span must share one clock pair"
    );
}

#[test]
fn metrics_only_records_a_sample_and_no_event() {
    static METRICS: Stage = Stage::new("test", "stage.metrics", "stage_test.metrics_ns");
    let _guard = lock();
    let recorded = events_recorded();
    run(true, false, || {
        let _stage = METRICS.enter();
    });
    assert_eq!(samples("stage_test.metrics_ns").0, 1);
    assert_eq!(events_recorded(), recorded, "tracing was off");
}

#[test]
fn tracing_only_records_an_event_and_no_sample() {
    static TRACING: Stage = Stage::new("test", "stage.tracing", "stage_test.tracing_ns");
    let _guard = lock();
    let events = run(false, true, || {
        let _stage = TRACING.enter();
    });
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].name, "stage.tracing");
    assert_eq!(samples("stage_test.tracing_ns").0, 0, "metrics were off");
}

#[test]
fn both_layers_off_record_and_allocate_nothing() {
    static OFF: Stage = Stage::new("test", "stage.off", "stage_test.off_ns");
    let _guard = lock();
    let recorded = events_recorded();
    let allocs = trace_allocs();
    run(false, false, || {
        for _ in 0..100 {
            let mut stage = OFF.enter();
            stage.set_arg("i", 1);
        }
    });
    assert_eq!(samples("stage_test.off_ns").0, 0);
    assert_eq!(events_recorded(), recorded);
    assert_eq!(trace_allocs(), allocs, "the disabled path allocated");
}

#[test]
fn set_arg_reaches_the_stage_event() {
    static ARG: Stage = Stage::new("test", "stage.arg", "stage_test.arg_ns");
    let _guard = lock();
    let events = run(true, true, || {
        let mut stage = ARG.enter();
        stage.set_arg("iterations", 17);
        stage.end();
    });
    assert_eq!(events.len(), 1);
    assert_eq!((events[0].arg_key, events[0].arg_val), ("iterations", 17));
    assert_eq!(samples("stage_test.arg_ns").0, 1);
}
