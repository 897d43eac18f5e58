//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <batch_subset|pathfinding_sweep|serve_stream>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one JSON result as the last line of stdout; writes a record of
//! the run (and, traced, the Chrome span file) under `out/` beside this
//! package's manifest.

use std::path::PathBuf;
use std::process::ExitCode;
use subset3d_perfbench::inputs::Sizes;
use subset3d_perfbench::report::{self, END_TO_END, PER_LAYER};
use subset3d_perfbench::{Run, Workload};
use subset3d_trace::gen::CORPUS_SEED;

const USAGE: &str = "usage: perfbench --workload <batch_subset|pathfinding_sweep|serve_stream> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: Workload::BatchSubset,
        seed: CORPUS_SEED,
        seconds: 10.0,
        trace: false,
        sizes: Sizes::full(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => run.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds.is_finite() && run.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap_or(&manifest);
    let record = format!(
        "workload={} seed={} seconds={} trace={} threads={} available_parallelism={} commit={} \
         source={}",
        run.workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        subset3d_exec::thread_count(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        report::commit(root),
        report::source_digest(root),
    );
    eprintln!("perfbench: {record}");

    let (mut outcome, chrome_trace) = subset3d_perfbench::run(&run);
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    if outcome.failed > 0 {
        // A failed run still reports; metrics it could not measure read 0.
        for (name, _) in table {
            let v = outcome.metrics.entry(name).or_insert(0.0);
            if !v.is_finite() {
                *v = 0.0;
            }
        }
    }
    let line = match outcome.result_line(table) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let dir = manifest.join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        run.workload.name(),
        run.seed,
        u8::from(run.trace)
    );
    let mut files = vec![(
        dir.join(format!("{stem}.txt")),
        format!("{record}\n{}\n{line}\n", outcome.notes.join("\n")),
    )];
    if let Some(trace) = chrome_trace {
        files.push((dir.join(format!("{stem}.trace.json")), trace));
    }
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        files
            .iter()
            .try_for_each(|(path, body)| std::fs::write(path, body))
    });
    if let Err(e) = written {
        eprintln!("perfbench: writing {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for (path, _) in &files {
        eprintln!("perfbench: wrote {}", path.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}
