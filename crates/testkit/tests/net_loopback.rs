//! Loopback wire-protocol differential: streaming a golden-corpus
//! profile through the TCP front-end must reproduce the in-process
//! replay bit for bit — same per-chunk subset updates (cluster counts,
//! representative frames, error means down to the last f64 bit) and the
//! same final drained state, at every chunk size tried.
//!
//! The wire carries frames via the binary trace codec and updates as
//! JSON (whose float round-tripping is exact), so any divergence here
//! means the protocol, the codec or the server-side session plumbing
//! changed observable results — never acceptable for a transport layer.

use subset3d_serve::{
    replay, replay_remote, NetServer, NetServerConfig, Pressure, ReplayOptions, ServeConfig,
    SubsetUpdate,
};
use subset3d_testkit::corpus::golden_corpus;

const LOOPBACK_CHUNK_FRAMES: [usize; 2] = [3, 7];
const LOOPBACK_SESSIONS: usize = 2;

fn assert_updates_bit_identical(context: &str, wire: &SubsetUpdate, reference: &SubsetUpdate) {
    assert_eq!(wire, reference, "{context}: update diverged");
    // `==` on floats accepts -0.0 == 0.0; the transport must be stricter.
    assert_eq!(
        wire.mean_prediction_error.to_bits(),
        reference.mean_prediction_error.to_bits(),
        "{context}: mean prediction error lost bits on the wire"
    );
    assert_eq!(
        wire.mean_efficiency.to_bits(),
        reference.mean_efficiency.to_bits(),
        "{context}: mean efficiency lost bits on the wire"
    );
    assert_eq!(
        wire.error_bound.to_bits(),
        reference.error_bound.to_bits(),
        "{context}: error bound lost bits on the wire"
    );
    assert_eq!(
        wire.representative_frames, reference.representative_frames,
        "{context}: representative frames diverged"
    );
}

#[test]
fn loopback_stream_reproduces_in_process_replay_bit_for_bit() {
    let config = ServeConfig::default();
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            serve: config.clone(),
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback listener")
    .spawn()
    .expect("spawn listener");
    let addr = server.addr().to_string();

    for (name, workload) in golden_corpus() {
        for chunk_frames in LOOPBACK_CHUNK_FRAMES {
            let reference = replay(
                &workload,
                &config,
                &ReplayOptions {
                    sessions: LOOPBACK_SESSIONS,
                    chunk_frames,
                    telemetry: None,
                },
            )
            .expect("in-process replay");

            let remote = replay_remote(&addr, &workload, LOOPBACK_SESSIONS, chunk_frames)
                .expect("wire replay");
            for (session_idx, expected_updates) in reference.updates.iter().enumerate() {
                let context = format!("{name}/chunk{chunk_frames}/session{session_idx}");
                let wire_updates = &remote.updates[session_idx];
                assert_eq!(
                    wire_updates.len(),
                    expected_updates.len(),
                    "{context}: every chunk answered"
                );
                for (chunk_idx, got) in wire_updates.iter().enumerate() {
                    assert_eq!(
                        got.pressure,
                        Pressure::Nominal,
                        "{context}: no backpressure policy is configured"
                    );
                    assert_updates_bit_identical(
                        &format!("{context}/chunk{chunk_idx}"),
                        &got.update,
                        &expected_updates[chunk_idx],
                    );
                }
                assert_updates_bit_identical(
                    &format!("{context}/final"),
                    &remote.finals[session_idx],
                    &reference.reports[session_idx].final_update,
                );
            }
        }
    }

    assert_eq!(
        server.manager().session_count(),
        0,
        "every wire session was closed"
    );
    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 0, "clean streams only");
    assert_eq!(stats.sessions_shed, 0);
}
