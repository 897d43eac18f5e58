//! `serve_stream`: an in-process `NetServer` on `127.0.0.1:0` at the
//! default `NetServerConfig`, driven by closed-loop clients. Each client
//! opens a session, streams the same recorded shooter stream in
//! `CHUNK_FRAMES`-frame chunks — sending the next chunk when the UPDATE
//! for the last one arrives — and closes it. One pass streams the whole
//! stream on every connection.

use crate::batch;
use crate::inputs::{self, CHUNK_FRAMES, CLIENTS};
use crate::ledger::{by_name, chrome_json, subtree, Health, Recorder, SpanId, NO_PARENT};
use crate::report::Outcome;
use crate::stats::median;
use crate::{done, ms, overhead_pct, record_peak_rss, repeat_setup, Run};
use std::sync::Barrier;
use std::time::Instant;
use subset3d_core::{
    cluster_frame, frame_feature_point, predict_frame, SubsetConfig, Subsetter, SubsettingOutcome,
};
use subset3d_features::extract_frame_features;
use subset3d_gpusim::Simulator;
use subset3d_serve::{
    NetClient, NetServer, NetServerConfig, NetServerHandle, Pressure, ServeConfig, Session,
    SubsetUpdate, RLS_DIM,
};
use subset3d_stats::Rls;
use subset3d_trace::{decode_frames, encode_frames, Frame, Workload};

/// Initial inverse-covariance scale of a session's RLS model.
const RLS_P0: f64 = 1e6;

/// Untraced passes a run makes at least, so every chunk position has six
/// or more round trips to take a median of.
const MIN_PASSES: usize = 3;

/// A listener with its connected clients.
struct Loopback {
    server: NetServerHandle,
    clients: Vec<NetClient>,
}

impl Loopback {
    fn stop(self) {
        // Close the connections first so the handlers see end of stream.
        drop(self.clients);
        self.server.stop();
    }
}

/// What one connection saw during a pass; its operations are counted in
/// its own `out`, merged into the run's after the pass.
#[derive(Default)]
struct ClientPass {
    out: Outcome,
    /// The connection's pass time, OPEN through CLOSE.
    wall_ms: f64,
    latencies_ms: Vec<f64>,
    updates: Vec<SubsetUpdate>,
    closed: Option<SubsetUpdate>,
    shed: u64,
}

/// What the checks compare every pass against.
struct Expected {
    /// Batch `Subsetter::run` on the stream.
    outcome: SubsettingOutcome,
    /// Frame ids of `Subsetter::global_fit`'s representatives.
    representatives: Vec<u32>,
}

/// One connection's pass: OPEN, every chunk, CLOSE.
fn client_pass(
    rec: &Recorder,
    client: &mut NetClient,
    index: usize,
    pass: u64,
    stream: &Workload,
) -> ClientPass {
    let mut p = ClientPass::default();
    let Some(session) = p.out.attempt("OPEN", client.open(stream)) else {
        return p;
    };
    for (c, chunk) in stream.frames().chunks(CHUNK_FRAMES).enumerate() {
        let args = [
            ("client", index as u64),
            ("pass", pass),
            ("chunk", c as u64),
        ];
        let t0 = Instant::now();
        let result = rec.span("op.chunk", NO_PARENT, &args, |_| {
            client.ingest(session, chunk)
        });
        let d = ms(t0.elapsed());
        let Some(reply) = p.out.attempt("INGEST", result) else {
            return p;
        };
        p.latencies_ms.push(d);
        if reply.pressure == Pressure::Shed {
            p.shed += 1;
            p.out.check("the session is not shed", false);
            return p;
        }
        p.updates.push(reply.update);
    }
    p.closed = p.out.attempt("CLOSE", client.close(session));
    p
}

/// Pass times, round trips and refusals of one pass.
#[derive(Default)]
struct PassStats {
    /// Each connection's pass time, OPEN through CLOSE.
    wall_ms: Vec<f64>,
    /// Round trips per connection, in chunk order.
    latencies_ms: Vec<Vec<f64>>,
    errors: u64,
    shed: u64,
}

/// One pass on every connection at once; folds the checks into `out`.
fn pass(
    rec: &Recorder,
    lb: &mut Loopback,
    pass: u64,
    stream: &Workload,
    expected: Option<&Expected>,
    out: &mut Outcome,
) -> PassStats {
    let barrier = Barrier::new(lb.clients.len());
    let results: Vec<ClientPass> = std::thread::scope(|scope| {
        let handles: Vec<_> = lb
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let t0 = Instant::now();
                    let mut p = client_pass(rec, client, i, pass, stream);
                    p.wall_ms = ms(t0.elapsed());
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut stats = PassStats::default();
    let chunks = stream.frames().len().div_ceil(CHUNK_FRAMES);
    for r in &results {
        out.absorb(&r.out);
        stats.wall_ms.push(r.wall_ms);
        stats.latencies_ms.push(r.latencies_ms.clone());
        stats.errors += r.out.failed;
        stats.shed += r.shed;
        out.check("an UPDATE for every chunk", r.updates.len() == chunks);
        out.check(
            "connections receive identical UPDATEs",
            r.updates == results[0].updates,
        );
        let Some(expected) = expected else { continue };
        let Some(last) = &r.closed else { continue };
        out.check(
            "final mean_prediction_error equals batch Subsetter::run",
            last.mean_prediction_error.to_bits()
                == expected
                    .outcome
                    .evaluation
                    .mean_prediction_error()
                    .to_bits(),
        );
        out.check(
            "final representatives equal Subsetter::global_fit",
            last.representative_frames == expected.representatives,
        );
    }
    stats
}

/// Binds the listener and connects the clients.
fn connect(out: &mut Outcome) -> Option<Loopback> {
    let server = out.attempt(
        "NetServer::bind",
        NetServer::bind("127.0.0.1:0", NetServerConfig::default()),
    )?;
    let server = out.attempt("NetServer::spawn", server.spawn())?;
    let addr = server.addr().to_string();
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        match out.attempt("NetClient::connect", NetClient::connect(&addr)) {
            Some(c) => clients.push(c),
            None => {
                Loopback { server, clients }.stop();
                return None;
            }
        }
    }
    Some(Loopback { server, clients })
}

/// Per-chunk means of the ingest pieces, from an in-process replay.
#[derive(Default)]
struct Pieces {
    encode: f64,
    decode: f64,
    ingest: f64,
    json: f64,
    extract: f64,
    cluster: f64,
    simulate: f64,
    predict: f64,
    rls: f64,
    frame_point: f64,
    update: f64,
    wire_bytes: f64,
    draws: f64,
    clusters: f64,
    distance_evals: f64,
}

/// Times the calls `Session::ingest` nests, in its order, on the frames
/// it receives: `cluster_frame`, `simulate_frame`, `predict_frame`,
/// `Rls::update`, `frame_feature_point`; extraction last, only to split
/// `cluster_frame`.
struct Nested<'a> {
    rec: &'a Recorder,
    root: SpanId,
    tables: &'a Workload,
    subset: &'a SubsetConfig,
    sim: Simulator,
    rls: Rls,
    frames: u64,
    draws: f64,
    clusters: f64,
    distance_evals: f64,
}

impl Nested<'_> {
    fn time(&mut self, frames: &[Frame], out: &mut Outcome) -> Option<()> {
        let (rec, root, tables, subset) = (self.rec, self.root, self.tables, self.subset);
        for frame in frames {
            let args = [("frame", self.frames)];
            self.frames += 1;
            let clustering = rec.span("cluster.frame", root, &args, |_| {
                cluster_frame(frame, tables, subset)
            });
            let cost = rec.span("gpusim.simulate", root, &args, |_| {
                self.sim.simulate_frame(frame, tables)
            });
            let cost = out.attempt("Simulator::simulate_frame", cost)?;
            let prediction = rec.span("core.predict", root, &args, |_| {
                predict_frame(&clustering, &cost)
            });
            // The session's RLS regressors: intercept, efficiency,
            // log-compressed draw count, cluster density.
            let draws = frame.draw_count();
            let clusters = clustering.cluster_count();
            let density = if draws == 0 {
                0.0
            } else {
                clusters as f64 / draws as f64
            };
            let x = [
                1.0,
                clustering.efficiency(),
                (1.0 + draws as f64).ln(),
                density,
            ];
            rec.span("stats.rls", root, &args, |_| {
                self.rls.update(&x, prediction.error())
            });
            rec.span("serve.frame_point", root, &args, |_| {
                std::hint::black_box(frame_feature_point(frame, tables, subset))
            });
            rec.span("features.extract", root, &args, |_| {
                std::hint::black_box(extract_frame_features(
                    frame,
                    tables,
                    subset.features.clone(),
                ))
            });
            self.draws += draws as f64;
            self.clusters += clusters as f64;
            self.distance_evals += (draws * clusters) as f64;
        }
        Some(())
    }
}

/// Replays one connection's stream on an in-process `Session` and times
/// the public pieces on the same inputs, chunk by chunk: the codec,
/// `Session::ingest`, the calls it nests ([`Nested`]), the UPDATE JSON
/// both ways and `Session::update`. The nested calls run before the
/// ingest on even chunks and after it on odd ones, so neither side always
/// finds the chunk's frames warm in cache.
fn replay_pieces(rec: &Recorder, stream: &Workload, out: &mut Outcome) -> Pieces {
    let config = ServeConfig::default();
    let tables = Workload::new(
        stream.name.clone(),
        Vec::new(),
        stream.shaders().clone(),
        stream.textures().clone(),
        stream.states().clone(),
    );
    let Some(mut session) = out.attempt("Session::new", Session::new(config.clone(), &tables))
    else {
        return Pieces::default();
    };
    let mut wire_bytes = 0.0;
    let chunks = stream.frames().chunks(CHUNK_FRAMES);
    let n = chunks.len().max(1) as f64;
    let counts = rec.span("ledger.replay", NO_PARENT, &[], |root| {
        let mut nested = Nested {
            rec,
            root,
            tables: &tables,
            subset: &config.subset,
            sim: Simulator::new(config.arch.clone()),
            rls: Rls::new(RLS_DIM, config.rls_forgetting, RLS_P0),
            frames: 0,
            draws: 0.0,
            clusters: 0.0,
            distance_evals: 0.0,
        };
        for (c, chunk) in chunks.enumerate() {
            let args = [("chunk", c as u64)];
            let bytes = rec.span("trace.encode", root, &args, |_| encode_frames(chunk));
            wire_bytes += bytes.len() as f64;
            let decoded = rec.span("trace.decode", root, &args, |_| decode_frames(&bytes));
            let Some(frames) = out.attempt("decode_frames", decoded) else {
                break;
            };
            out.check("decode_frames inverts encode_frames", frames == chunk);
            let nested_first = c % 2 == 0;
            if nested_first && nested.time(&frames, out).is_none() {
                break;
            }
            let ingested = rec.span("serve.ingest", root, &args, |_| session.ingest(&frames));
            let Some(update) = out.attempt("Session::ingest", ingested) else {
                break;
            };
            if !nested_first && nested.time(&frames, out).is_none() {
                break;
            }
            let json = rec.span("serve.json", root, &args, |_| {
                serde_json::to_vec(&update).and_then(|b| serde_json::from_slice::<SubsetUpdate>(&b))
            });
            if let Some(back) = out.attempt("UPDATE JSON round trip", json) {
                out.check("UPDATE JSON round-trips", back == update);
            }
            let again = rec.span("serve.update", root, &args, |_| session.update());
            out.check(
                "Session::update repeats the ingest's UPDATE",
                again == update,
            );
        }
        (
            nested.frames,
            nested.draws,
            nested.clusters,
            nested.distance_evals,
        )
    });
    let totals = by_name(&subtree(&rec.spans(), |s| s.name == "ledger.replay"));
    let per = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6 / n)
    };
    let (frames, draws, clusters, distance_evals) = counts;
    Pieces {
        encode: per("trace.encode"),
        decode: per("trace.decode"),
        ingest: per("serve.ingest"),
        json: per("serve.json"),
        extract: per("features.extract"),
        cluster: per("cluster.frame"),
        simulate: per("gpusim.simulate"),
        predict: per("core.predict"),
        rls: per("stats.rls"),
        frame_point: per("serve.frame_point"),
        update: per("serve.update"),
        wire_bytes: wire_bytes / frames.max(1) as f64,
        draws: draws / n,
        clusters: clusters / n,
        distance_evals: distance_evals / n,
    }
}

/// The `serve_stream` workload.
pub fn run(run: &Run, out: &mut Outcome) -> Option<String> {
    let rec = Recorder::new(run.trace);
    let untraced = Recorder::new(false);
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut live: Option<(Workload, Loopback)> = None;
    repeat_setup(&run.sizes, || {
        if let Some((_, lb)) = live.take() {
            lb.stop();
        }
        let t0 = Instant::now();
        let stream = rec.span("trace.generate", NO_PARENT, &[], |_| {
            inputs::stream(&run.sizes, run.seed)
        });
        generate_ms.push(ms(t0.elapsed()));
        let Some(lb) = connect(out) else {
            return;
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some((stream, lb));
    });
    out.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    out.set(
        "trace.generate_ms",
        median(&generate_ms).unwrap_or(f64::NAN),
    );
    let (stream, mut lb) = live?;
    // One untraced warm-up pass after the last set-up, outside `setup_s`.
    pass(&untraced, &mut lb, 0, &stream, None, out);

    // References for the output checks, outside any timed pass.
    let fit = Subsetter::new(SubsetConfig::default()).global_fit(&stream);
    let expected = match (
        out.attempt("Subsetter::run", batch::subset(&stream)),
        out.attempt("Subsetter::global_fit", fit),
    ) {
        (Some(outcome), Some(fit)) => Expected {
            outcome,
            representatives: fit
                .representatives
                .iter()
                .map(|&r| stream.frames()[r].id.raw())
                .collect(),
        },
        _ => {
            lb.stop();
            return None;
        }
    };

    let start = Instant::now();
    // Round trips grouped by chunk position in the stream.
    let mut by_chunk: Vec<Vec<f64>> = Vec::new();
    // Connections' pass times (untraced), and each pass's round trips.
    let mut untraced_ms = Vec::new();
    let mut untraced_ops = Vec::new();
    let mut traced_ops = Vec::new();
    let (mut errors, mut shed) = (0, 0);
    let mut pieces = None;
    loop {
        let stop = if run.trace {
            traced_ops.len() >= 2 && untraced_ms.len() >= 2 && done(start, run.seconds, 0, 0)
        } else {
            done(start, run.seconds, untraced_ms.len(), MIN_PASSES)
        };
        if stop {
            break;
        }
        // The traced run replays the pieces halfway through its passes, so
        // the host's drift between the live round trips and the replayed
        // pieces they are split into evens out.
        if run.trace
            && pieces.is_none()
            && !traced_ops.is_empty()
            && done(start, run.seconds / 2.0, 0, 0)
        {
            pieces = Some(replay_pieces(&rec, &stream, out));
        }
        let traced = run.trace && untraced_ms.len() > traced_ops.len();
        let index = (untraced_ms.len() + traced_ops.len()) as u64 + 1;
        let recorder = if traced { &rec } else { &untraced };
        let stats = pass(recorder, &mut lb, index, &stream, Some(&expected), out);
        errors += stats.errors;
        shed += stats.shed;
        if traced {
            traced_ops.push(stats.latencies_ms.concat());
        } else {
            untraced_ms.push(stats.wall_ms);
            untraced_ops.push(stats.latencies_ms.concat());
            for client in stats.latencies_ms {
                for (c, ms) in client.into_iter().enumerate() {
                    match by_chunk.get_mut(c) {
                        Some(at) => at.push(ms),
                        None => by_chunk.push(vec![ms]),
                    }
                }
            }
        }
    }
    lb.stop();
    // The serve path's own peak, before the quality corpus below is built.
    record_peak_rss(out);

    let clients = CLIENTS as f64;
    if !run.trace {
        // A pass's rate is the sum of its connections' rates, each
        // connection's stream over its own pass time; medians over passes,
        // as in batch_subset. One connection's round trips often run
        // 10–20 % slower than the other's for a whole pass, and which one
        // changes from pass to pass, so the pass's wall time — the slower
        // connection's — includes a tail in which the faster one has
        // finished and the server serves a single stream.
        let rate = |work: f64| {
            let rates: Vec<f64> = untraced_ms
                .iter()
                .map(|pass: &Vec<f64>| pass.iter().map(|ms| work / (ms / 1e3)).sum())
                .collect();
            median(&rates).unwrap_or(f64::NAN)
        };
        let draws = stream.total_draws() as f64;
        out.set("frames_per_s", rate(stream.frames().len() as f64));
        out.set("subset_draws_per_s", rate(draws));
        out.set("sim_draws_per_s", rate(draws));
        // The tail is taken over each chunk position's median round trip:
        // the raw p99 flips between the end-of-stream re-fit and host
        // scheduling hiccups that hit 1–3 % of chunks on some runs and not
        // others. The cost that grows along the stream is what repeats.
        let typical: Vec<f64> = by_chunk.iter().filter_map(|at| median(at)).collect();
        batch::record_latency(
            out,
            "NetClient::ingest round trip",
            &untraced_ops,
            &typical,
            typical.len(),
        );
        // The stream's own quality is checked above against batch
        // `Subsetter::run` bit for bit; as a figure it swings too much
        // from seed to seed (100-draw frames give a heavy-tailed per-frame
        // error), so the quality metrics describe the corpus generated
        // from the same seed, as on the other workloads.
        if let Some(corpus) = batch::setup_corpus(run, &untraced, out) {
            let titles: Vec<&Workload> = corpus.titles.iter().collect();
            let outcomes: Vec<&SubsettingOutcome> = corpus.outcomes.iter().collect();
            let subsets: Vec<_> = outcomes.iter().map(|o| &o.subset).collect();
            batch::record_quality(out, &titles, &outcomes);
            batch::record_validation(out, &untraced, &titles, &subsets);
        }
        return None;
    }

    let round_trips: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "op.chunk")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let p = pieces.unwrap_or_else(|| replay_pieces(&rec, &stream, out));
    let round_trip = round_trips.iter().sum::<f64>() / round_trips.len().max(1) as f64;
    let remainder =
        p.ingest - (p.cluster + p.simulate + p.predict + p.rls + p.frame_point + p.update);
    out.set("trace.encode_ms", p.encode);
    out.set("trace.decode_ms", p.decode);
    out.set("trace.wire_bytes_per_frame", p.wire_bytes);
    out.set("features.extract_ms", p.extract);
    out.set("features.rows", p.draws);
    out.set("cluster.frame_fit_ms", p.cluster - p.extract);
    out.set("cluster.clusters", p.clusters);
    out.set("cluster.distance_evals_max", p.distance_evals);
    out.set("gpusim.simulate_ms", p.simulate);
    out.set("gpusim.draws", p.draws);
    out.set("gpusim.draws_per_busy_s", p.draws / (p.simulate / 1e3));
    out.set("core.predict_ms", p.predict);
    out.set("serve.ingest_ms", p.ingest);
    out.set("serve.update_ms", p.update);
    out.set("serve.frame_point_ms", p.frame_point);
    out.set("serve.json_ms", p.json);
    out.set(
        "serve.socket_ms",
        round_trip - (p.encode + p.decode + p.ingest + p.json),
    );
    out.set(
        "serve.chunks",
        clients * stream.frames().len().div_ceil(CHUNK_FRAMES) as f64,
    );
    out.set("serve.errors", errors as f64);
    out.set("serve.shed", shed as f64);
    out.set("stats.rls_ms", p.rls);
    // The round trip is the whole ledger: the replayed pieces and the
    // socket remainder partition it, so only the ingest remainder is
    // unattributed.
    Health {
        ops: round_trips.len(),
        op_ms: round_trip,
        total_ms: round_trip,
        glue_ms: 0.0,
        remainder_ms: remainder,
    }
    .record(out);
    out.set(
        "trace_overhead_pct",
        overhead_pct(&untraced_ops, &traced_ops),
    );
    let gap = batch::profile_gap_pct(out, &[&stream], &[&expected.outcome]);
    out.set("ledger.profile_gap_pct", gap);
    Some(chrome_json(&rec.spans(), &rec.threads()))
}
