//! Wire-protocol ingestion front-end over the [`SessionManager`].
//!
//! The replay driver exercises the service in-process; this module puts
//! the same stack behind a TCP socket so remote producers can stream
//! frame chunks at it. The protocol is deliberately small:
//!
//! * **Handshake** — the client opens with 5 bytes: the protocol magic
//!   (`u32` little-endian, [`NET_MAGIC`]) and a version byte
//!   ([`NET_VERSION`]).
//! * **Messages** — both directions speak length-prefixed frames:
//!   `[u32 len LE][u8 type][payload]`, where `len` counts the type byte
//!   plus the payload and must stay within the negotiated
//!   [`NetServerConfig::max_message_bytes`].
//! * **Payloads** — frame chunks ride the binary trace codec
//!   ([`subset3d_trace::encode_frames`]); the session-open message
//!   ships the stream's resource tables as a frameless
//!   [`subset3d_trace::encode_workload`]; subset updates come back as
//!   JSON (`serde_json` preserves `f64` bits, so a loopback client sees
//!   the exact floats an in-process replay produces).
//!
//! Message types: client → server `0x01 OPEN`, `0x02 INGEST`
//! (`u64` session id + encoded frames), `0x03 CLOSE` (`u64` id),
//! `0x04 PING`; server → client `0x81 OPENED` (`u64` id), `0x82 UPDATE`
//! (`u64` id + pressure byte + JSON [`SubsetUpdate`]), `0x83 CLOSED`
//! (`u64` id + JSON final update), `0x84 PONG`, `0x7F ERROR`
//! (code byte + UTF-8 detail).
//!
//! [`replay_remote`] is the one client loop that streams a workload over
//! this grammar, for the CLI, the bench and the loopback test alike.
//!
//! The server runs one blocking handler thread per connection, joined
//! by the accept loop once its connection ends. Each
//! connection owns an [`SloWatchdog`]: ingest wall times are cut into
//! rolling windows and the watchdog's [`SloVerdict`] (rolling p99 vs
//! the per-chunk budget) drives the pressure byte of every `UPDATE` —
//! `1` asks the producer to throttle, `2` sheds the session (the server
//! force-closes it and follows with `CLOSED`, or with the close's `ERROR`
//! when another holder keeps the session open). A janitor thread evicts
//! sessions idle past [`NetServerConfig::session_ttl`], so streams
//! orphaned by a dropped connection release their reservoir memory.

use crate::error::ServeError;
use crate::manager::{SessionId, SessionManager};
use crate::session::{ServeConfig, SubsetUpdate};
use crate::telemetry::{SloPolicy, SloWatchdog};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use subset3d_obs::{LazyCounter, Stage};
use subset3d_trace::{
    decode_frames, decode_workload, encode_frames, encode_workload, Frame, Workload,
};

static OBS_NET_CONNECTIONS: LazyCounter = LazyCounter::new("serve.net.connections");
static OBS_NET_MESSAGES: LazyCounter = LazyCounter::new("serve.net.messages");
static OBS_NET_BYTES_IN: LazyCounter = LazyCounter::new("serve.net.bytes_in");
static OBS_NET_PROTOCOL_ERRORS: LazyCounter = LazyCounter::new("serve.net.protocol_errors");
static OBS_NET_THROTTLES: LazyCounter = LazyCounter::new("serve.net.throttled_updates");
static OBS_NET_SHEDS: LazyCounter = LazyCounter::new("serve.net.sessions_shed");
static STAGE_NET_REQUEST: Stage = Stage::new("serve", "net.request", "serve.net.request_ns");

/// Handshake magic: `"S3NP"` (subset3d net protocol), little-endian.
pub const NET_MAGIC: u32 = 0x504e_3353;

/// Wire protocol version; bumped on any incompatible grammar change.
pub const NET_VERSION: u8 = 1;

/// Default per-message size cap: generous for frame chunks of any
/// profile in this corpus, small enough that a hostile length claim
/// cannot balloon server memory.
pub const DEFAULT_MAX_MESSAGE_BYTES: u32 = 64 * 1024 * 1024;

/// Client → server message types.
const MSG_OPEN: u8 = 0x01;
const MSG_INGEST: u8 = 0x02;
const MSG_CLOSE: u8 = 0x03;
const MSG_PING: u8 = 0x04;

/// Server → client message types.
const MSG_OPENED: u8 = 0x81;
const MSG_UPDATE: u8 = 0x82;
const MSG_CLOSED: u8 = 0x83;
const MSG_PONG: u8 = 0x84;
const MSG_ERROR: u8 = 0x7F;

/// Wire ERROR codes (the `u8` leading an ERROR payload).
const CODE_PROTOCOL: u8 = 1;
const CODE_UNKNOWN_SESSION: u8 = 2;
const CODE_SESSION_BUSY: u8 = 3;
const CODE_SIM: u8 = 4;
const CODE_TOO_LARGE: u8 = 5;
const CODE_CONFIG: u8 = 6;
const CODE_INTERNAL: u8 = 7;

/// How often handler threads re-check the shutdown flag while blocked
/// on a read, and the janitor's sleep quantum.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long a [`NetClient`] waits on one socket read or write before
/// failing it with [`ServeError::Io`]. Far above any legal reply (a
/// 4-frame chunk round-trips in about a millisecond), it only bounds the
/// wait on a listener that stopped answering.
const CLIENT_DEADLINE: Duration = Duration::from_secs(60);

/// Backpressure state a server attaches to every `UPDATE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pressure {
    /// The session is keeping up with its stream.
    Nominal,
    /// Rolling p99 ingest latency is over budget; the producer should
    /// slow its chunk cadence.
    Throttle,
    /// The session fell too far behind and was force-closed; a `CLOSED`
    /// message with the final update follows.
    Shed,
}

impl Pressure {
    fn to_byte(self) -> u8 {
        match self {
            Pressure::Nominal => 0,
            Pressure::Throttle => 1,
            Pressure::Shed => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Pressure, ServeError> {
        match b {
            0 => Ok(Pressure::Nominal),
            1 => Ok(Pressure::Throttle),
            2 => Ok(Pressure::Shed),
            other => Err(ServeError::Protocol {
                detail: format!("unknown pressure byte 0x{other:02x}"),
            }),
        }
    }
}

/// When and how hard the server pushes back on over-cadenced producers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackpressurePolicy {
    /// Rolling p99 ingest latency budget, nanoseconds — the chunk
    /// cadence the producer promised (ingests slower than the arrival
    /// interval mean the session is falling behind).
    pub budget_ns: u64,
    /// Watchdog violations after which `UPDATE`s carry
    /// [`Pressure::Throttle`].
    pub throttle_after: u64,
    /// Watchdog violations after which the session is shed.
    pub shed_after: u64,
    /// Minimum time between watchdog windows; zero cuts a window per
    /// ingest (deterministic, test-friendly).
    pub sample_interval: Duration,
    /// Windows merged into each rolling p99 evaluation.
    pub rolling_windows: usize,
}

impl Default for BackpressurePolicy {
    fn default() -> Self {
        BackpressurePolicy {
            budget_ns: 250_000_000,
            throttle_after: 1,
            shed_after: 4,
            sample_interval: Duration::from_millis(250),
            rolling_windows: 8,
        }
    }
}

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetServerConfig {
    /// Session configuration applied to every stream a client opens.
    pub serve: ServeConfig,
    /// Upper bound on one wire message (type byte + payload).
    pub max_message_bytes: u32,
    /// Backpressure policy; `None` reports [`Pressure::Nominal`] always.
    pub backpressure: Option<BackpressurePolicy>,
    /// Evict sessions idle for longer than this; `None` keeps orphaned
    /// sessions until the process exits.
    pub session_ttl: Option<Duration>,
    /// How often the janitor sweeps for idle sessions.
    pub janitor_interval: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            serve: ServeConfig::default(),
            max_message_bytes: DEFAULT_MAX_MESSAGE_BYTES,
            backpressure: None,
            session_ttl: None,
            janitor_interval: Duration::from_secs(1),
        }
    }
}

/// Everything an accept loop counted by the time it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections dropped for protocol violations (bad handshake,
    /// truncated prefix, oversized claim, undecodable payload…).
    pub protocol_errors: u64,
    /// Sessions force-closed by backpressure.
    pub sessions_shed: u64,
    /// Sessions reaped by the TTL janitor.
    pub sessions_evicted: u64,
}

/// Shared accept-loop counters (the handler threads' view of
/// [`NetStats`]).
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    protocol_errors: AtomicU64,
    sessions_shed: AtomicU64,
    sessions_evicted: AtomicU64,
}

impl Counters {
    fn stats(&self) -> NetStats {
        NetStats {
            connections: self.connections.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            sessions_shed: self.sessions_shed.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
        }
    }
}

/// A bound-but-not-yet-running ingestion front-end.
pub struct NetServer {
    listener: TcpListener,
    manager: Arc<SessionManager>,
    config: NetServerConfig,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

/// A running server: the accept loop on a background thread plus the
/// handles a driver (or test) needs to reach it.
pub struct NetServerHandle {
    addr: SocketAddr,
    manager: Arc<SessionManager>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    thread: JoinHandle<NetStats>,
}

impl NetServerHandle {
    /// The bound address (resolves `:0` to the kernel-picked port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session registry behind the socket.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// A live snapshot of the accept loop's counters.
    pub fn stats(&self) -> NetStats {
        self.counters.stats()
    }

    /// Stops the accept loop, joins every handler, and returns the
    /// final stats.
    pub fn stop(self) -> NetStats {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread.join().unwrap_or_default()
    }
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for inconsistent session
    /// configurations and [`ServeError::Io`] for bind failures.
    pub fn bind(addr: &str, config: NetServerConfig) -> Result<NetServer, ServeError> {
        config.serve.validate()?;
        if config.max_message_bytes < 16 {
            return Err(ServeError::InvalidConfig {
                reason: "max_message_bytes must be at least 16".into(),
            });
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            listener,
            manager: Arc::new(SessionManager::new()),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            counters: Arc::new(Counters::default()),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the socket is gone.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// The session registry behind the socket.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Runs the accept loop on a background thread and returns a handle.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the bound address cannot be read.
    pub fn spawn(self) -> Result<NetServerHandle, ServeError> {
        let addr = self.local_addr()?;
        let manager = Arc::clone(&self.manager);
        let shutdown = Arc::clone(&self.shutdown);
        let counters = Arc::clone(&self.counters);
        let thread = std::thread::Builder::new()
            .name("subset3d-net-accept".into())
            .spawn(move || self.run())
            .map_err(|e| ServeError::Io {
                detail: format!("spawning accept thread: {e}"),
            })?;
        Ok(NetServerHandle {
            addr,
            manager,
            shutdown,
            counters,
            thread,
        })
    }

    /// Runs the accept loop on the calling thread until another holder
    /// of the shutdown flag (see [`NetServer::spawn`]) stops it — the
    /// blocking mode `subset3d serve --listen` uses.
    pub fn run(self) -> NetStats {
        let janitor = self.config.session_ttl.map(|ttl| {
            let manager = Arc::clone(&self.manager);
            let shutdown = Arc::clone(&self.shutdown);
            let counters = Arc::clone(&self.counters);
            let interval = self.config.janitor_interval;
            std::thread::spawn(move || {
                let mut last_sweep = Instant::now();
                while !shutdown.load(Ordering::SeqCst) {
                    if last_sweep.elapsed() >= interval {
                        let evicted = manager.evict_idle(ttl).len() as u64;
                        counters
                            .sessions_evicted
                            .fetch_add(evicted, Ordering::Relaxed);
                        last_sweep = Instant::now();
                    }
                    std::thread::sleep(POLL_INTERVAL.min(interval));
                }
            })
        });

        let mut handlers = Vec::new();
        loop {
            reap_finished(&mut handlers);
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.counters.connections.fetch_add(1, Ordering::Relaxed);
                    OBS_NET_CONNECTIONS.incr();
                    let manager = Arc::clone(&self.manager);
                    let config = self.config.clone();
                    let shutdown = Arc::clone(&self.shutdown);
                    let counters = Arc::clone(&self.counters);
                    let spawned = std::thread::Builder::new().spawn(move || {
                        handle_connection(stream, &manager, &config, &shutdown, &counters);
                    });
                    // A thread the OS refuses drops the connection (the
                    // stream closes with the closure), never the loop.
                    if let Ok(handler) = spawned {
                        handlers.push(handler);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => {
                    // A failed accept (e.g. the peer vanished between
                    // SYN and accept) must never take the loop down.
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        }
        for handler in handlers {
            let _ = handler.join();
        }
        if let Some(janitor) = janitor {
            let _ = janitor.join();
        }
        self.counters.stats()
    }
}

/// Joins every handler whose connection has ended, so a long-lived
/// listener keeps threads (and their stacks) for live connections only.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handlers.len() {
        if handlers[i].is_finished() {
            let _ = handlers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Per-connection backpressure: exact ingest wall times are cut into
/// rolling windows whose p99 an [`SloWatchdog`] judges; its verdict maps
/// to the pressure byte. Window state is connection-local, so the policy
/// is deterministic and independent of the process-global metrics flag.
struct ConnectionWatch {
    policy: BackpressurePolicy,
    watchdog: SloWatchdog,
    pending: Vec<u64>,
    recent: VecDeque<Vec<u64>>,
    last_cut: Instant,
}

impl ConnectionWatch {
    fn new(policy: BackpressurePolicy) -> ConnectionWatch {
        ConnectionWatch {
            watchdog: SloWatchdog::new(SloPolicy {
                budget_ns: policy.budget_ns,
            }),
            policy,
            pending: Vec::new(),
            recent: VecDeque::new(),
            last_cut: Instant::now(),
        }
    }

    fn record(&mut self, ingest_ns: u64) -> Pressure {
        self.pending.push(ingest_ns);
        if self.last_cut.elapsed() >= self.policy.sample_interval {
            self.recent.push_back(std::mem::take(&mut self.pending));
            while self.recent.len() > self.policy.rolling_windows.max(1) {
                self.recent.pop_front();
            }
            let mut samples: Vec<u64> = self.recent.iter().flatten().copied().collect();
            samples.sort_unstable();
            // Nearest rank; the window just cut holds at least this sample.
            let idx = (0.99 * (samples.len() - 1) as f64).round() as usize;
            self.watchdog.judge(samples[idx.min(samples.len() - 1)]);
            self.last_cut = Instant::now();
        }
        let verdict = self.watchdog.verdict();
        if verdict.violations >= self.policy.shed_after {
            Pressure::Shed
        } else if verdict.violations >= self.policy.throttle_after {
            Pressure::Throttle
        } else {
            Pressure::Nominal
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    manager: &SessionManager,
    config: &NetServerConfig,
    shutdown: &AtomicBool,
    counters: &Counters,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    if let Err(e) = expect_hello(&mut stream, shutdown) {
        counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        OBS_NET_PROTOCOL_ERRORS.incr();
        let _ = send_error(&mut stream, &e);
        return;
    }
    let mut watch = config.backpressure.clone().map(ConnectionWatch::new);
    loop {
        let (ty, payload) =
            match read_message(&mut stream, config.max_message_bytes, Some(shutdown)) {
                Ok(Some(msg)) => msg,
                // Clean end of stream or server shutdown: we're done.
                Ok(None) => return,
                Err(e) => {
                    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    OBS_NET_PROTOCOL_ERRORS.incr();
                    let _ = send_error(&mut stream, &e);
                    return;
                }
            };
        OBS_NET_MESSAGES.incr();
        OBS_NET_BYTES_IN.add(4 + 1 + payload.len() as u64);
        let stage = STAGE_NET_REQUEST.enter();
        let outcome = handle_message(
            &mut stream,
            manager,
            config,
            counters,
            watch.as_mut(),
            ty,
            &payload,
        );
        stage.end();
        match outcome {
            Ok(()) => {}
            // Per-request failures (unknown session, sim rejection…)
            // were already answered with a wire ERROR; protocol-level
            // ones poison the framing, so the connection ends.
            Err(e) if is_fatal(&e) => {
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                OBS_NET_PROTOCOL_ERRORS.incr();
                let _ = send_error(&mut stream, &e);
                return;
            }
            Err(e) => {
                if send_error(&mut stream, &e).is_err() {
                    return;
                }
            }
        }
    }
}

fn handle_message(
    stream: &mut TcpStream,
    manager: &SessionManager,
    config: &NetServerConfig,
    counters: &Counters,
    watch: Option<&mut ConnectionWatch>,
    ty: u8,
    payload: &[u8],
) -> Result<(), ServeError> {
    match ty {
        MSG_OPEN => {
            let tables = decode_workload(payload).map_err(|e| ServeError::Protocol {
                detail: format!("undecodable OPEN payload: {e}"),
            })?;
            let id = manager.open(config.serve.clone(), &tables)?;
            write_message(stream, MSG_OPENED, &id.raw().to_le_bytes())?;
            Ok(())
        }
        MSG_INGEST => {
            let (id, rest) = split_session_id(payload)?;
            let t_decode = subset3d_obs::trace_span("serve", "net.decode");
            let frames = decode_frames(rest).map_err(|e| ServeError::Protocol {
                detail: format!("undecodable INGEST frames: {e}"),
            })?;
            t_decode.end();
            let timed = manager.ingest_timed(id, &frames)?;
            let update = timed.update;
            let pressure = watch.map_or(Pressure::Nominal, |w| w.record(timed.ingest_ns));
            let t_encode = subset3d_obs::trace_span("serve", "net.encode");
            let mut reply = id.raw().to_le_bytes().to_vec();
            reply.push(pressure.to_byte());
            reply.extend_from_slice(&encode_update(&update)?);
            t_encode.end();
            write_message(stream, MSG_UPDATE, &reply)?;
            match pressure {
                Pressure::Throttle => OBS_NET_THROTTLES.incr(),
                Pressure::Shed => {
                    // The producer is hopelessly over cadence: close the
                    // session and say so. A close that fails — another
                    // connection's ingest holds the session, or the janitor
                    // evicted it — is answered with its ERROR instead of
                    // CLOSED; the client waits for one or the other.
                    let report = manager.close(id)?;
                    counters.sessions_shed.fetch_add(1, Ordering::Relaxed);
                    OBS_NET_SHEDS.incr();
                    let mut closed = id.raw().to_le_bytes().to_vec();
                    closed.extend_from_slice(&encode_update(&report.final_update)?);
                    write_message(stream, MSG_CLOSED, &closed)?;
                }
                Pressure::Nominal => {}
            }
            Ok(())
        }
        MSG_CLOSE => {
            let (id, rest) = split_session_id(payload)?;
            if !rest.is_empty() {
                return Err(ServeError::Protocol {
                    detail: format!("{} trailing bytes after CLOSE id", rest.len()),
                });
            }
            let report = manager.close(id)?;
            let mut reply = id.raw().to_le_bytes().to_vec();
            reply.extend_from_slice(&encode_update(&report.final_update)?);
            write_message(stream, MSG_CLOSED, &reply)?;
            Ok(())
        }
        MSG_PING => {
            if !payload.is_empty() {
                return Err(ServeError::Protocol {
                    detail: format!("PING carries {} payload bytes", payload.len()),
                });
            }
            write_message(stream, MSG_PONG, &[])?;
            Ok(())
        }
        other => Err(ServeError::Protocol {
            detail: format!("unknown message type 0x{other:02x}"),
        }),
    }
}

fn split_session_id(payload: &[u8]) -> Result<(SessionId, &[u8]), ServeError> {
    if payload.len() < 8 {
        return Err(ServeError::Protocol {
            detail: format!("session id needs 8 bytes, got {}", payload.len()),
        });
    }
    let id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    Ok((SessionId::from_raw(id), &payload[8..]))
}

fn encode_update(update: &SubsetUpdate) -> Result<Vec<u8>, ServeError> {
    serde_json::to_vec(update).map_err(|e| ServeError::Io {
        detail: format!("encoding update: {e}"),
    })
}

fn decode_update(bytes: &[u8]) -> Result<SubsetUpdate, ServeError> {
    serde_json::from_slice(bytes).map_err(|e| ServeError::Protocol {
        detail: format!("undecodable update JSON: {e}"),
    })
}

/// Whether an error poisons the connection's framing (vs a per-request
/// rejection the conversation can survive).
fn is_fatal(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Protocol { .. }
            | ServeError::FrameTooLarge { .. }
            | ServeError::Io { .. }
            | ServeError::Disconnected
    )
}

fn error_code(e: &ServeError) -> u8 {
    match e {
        ServeError::Protocol { .. } => CODE_PROTOCOL,
        ServeError::UnknownSession { .. } => CODE_UNKNOWN_SESSION,
        ServeError::SessionBusy { .. } => CODE_SESSION_BUSY,
        ServeError::Sim(_) => CODE_SIM,
        ServeError::FrameTooLarge { .. } => CODE_TOO_LARGE,
        ServeError::InvalidConfig { .. } => CODE_CONFIG,
        _ => CODE_INTERNAL,
    }
}

fn send_error(stream: &mut TcpStream, e: &ServeError) -> Result<(), ServeError> {
    let mut payload = vec![error_code(e)];
    payload.extend_from_slice(e.to_string().as_bytes());
    write_message(stream, MSG_ERROR, &payload)
}

fn expect_hello(stream: &mut TcpStream, shutdown: &AtomicBool) -> Result<(), ServeError> {
    let mut hello = [0u8; 5];
    match read_full(stream, &mut hello, Some(shutdown))? {
        ReadOutcome::Done => {}
        ReadOutcome::Eof | ReadOutcome::Shutdown => {
            return Err(ServeError::Protocol {
                detail: "connection closed before the handshake".into(),
            })
        }
    }
    let magic = u32::from_le_bytes(hello[..4].try_into().expect("4 bytes"));
    if magic != NET_MAGIC {
        return Err(ServeError::Protocol {
            detail: format!("bad handshake magic 0x{magic:08x}"),
        });
    }
    if hello[4] != NET_VERSION {
        return Err(ServeError::Protocol {
            detail: format!("unsupported protocol version {}", hello[4]),
        });
    }
    Ok(())
}

/// Outcome of a blocking read that tolerates timeouts and shutdown.
enum ReadOutcome {
    /// The buffer was filled.
    Done,
    /// Zero bytes arrived before the first byte (clean close).
    Eof,
    /// The server is shutting down.
    Shutdown,
}

/// Fills `buf`; a half-filled buffer at EOF is a truncation
/// ([`ServeError::Protocol`]), zero bytes is a clean [`ReadOutcome::Eof`].
/// With a `shutdown` flag, a read timeout is the server's poll tick: the
/// flag is checked and the read retried. Without one, a timeout is the
/// caller's own deadline and fails the read.
fn read_full(
    reader: &mut impl Read,
    buf: &mut [u8],
    shutdown: Option<&AtomicBool>,
) -> Result<ReadOutcome, ServeError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(ReadOutcome::Eof);
                }
                return Err(ServeError::Protocol {
                    detail: format!(
                        "stream truncated: expected {} more bytes",
                        buf.len() - filled
                    ),
                });
            }
            Ok(n) => filled += n,
            Err(e)
                if shutdown.is_some()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                if shutdown.is_some_and(|s| s.load(Ordering::SeqCst)) {
                    return Ok(ReadOutcome::Shutdown);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Done)
}

/// Largest step by which [`read_message`] grows a payload buffer, so the
/// memory a message holds follows the bytes that arrived, not the
/// peer's length claim.
const READ_STEP_BYTES: usize = 64 * 1024;

/// Reads one `[u32 len][u8 type][payload]` message. `Ok(None)` means a
/// clean end of stream (or shutdown) at a message boundary.
///
/// # Errors
///
/// [`ServeError::Protocol`] for truncation or a zero-length claim,
/// [`ServeError::FrameTooLarge`] for a claim over `max_message_bytes`.
fn read_message(
    reader: &mut impl Read,
    max_message_bytes: u32,
    shutdown: Option<&AtomicBool>,
) -> Result<Option<(u8, Vec<u8>)>, ServeError> {
    let mut prefix = [0u8; 4];
    match read_full(reader, &mut prefix, shutdown)? {
        ReadOutcome::Done => {}
        ReadOutcome::Eof | ReadOutcome::Shutdown => return Ok(None),
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 {
        return Err(ServeError::Protocol {
            detail: "zero-length message".into(),
        });
    }
    if len > max_message_bytes {
        // Checked before any allocation: a hostile claim costs nothing.
        return Err(ServeError::FrameTooLarge {
            len,
            max: max_message_bytes,
        });
    }
    let mut ty = [0u8; 1];
    read_body(reader, &mut ty, shutdown)?;
    let len = len as usize - 1;
    let mut payload = Vec::new();
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(filled + (len - filled).min(READ_STEP_BYTES), 0);
        read_body(reader, &mut payload[filled..], shutdown)?;
    }
    Ok(Some((ty[0], payload)))
}

/// Fills `buf` from inside a message body, where an end of stream or a
/// shutdown is a truncation.
fn read_body(
    reader: &mut impl Read,
    buf: &mut [u8],
    shutdown: Option<&AtomicBool>,
) -> Result<(), ServeError> {
    match read_full(reader, buf, shutdown)? {
        ReadOutcome::Done => Ok(()),
        ReadOutcome::Eof | ReadOutcome::Shutdown => Err(ServeError::Protocol {
            detail: "stream truncated inside a message body".into(),
        }),
    }
}

fn write_message(stream: &mut impl Write, ty: u8, payload: &[u8]) -> Result<(), ServeError> {
    let len = u32::try_from(1 + payload.len()).map_err(|_| ServeError::FrameTooLarge {
        len: u32::MAX,
        max: u32::MAX,
    })?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(&[ty])?;
    stream.write_all(payload)?;
    stream.flush()?;
    Ok(())
}

/// One `UPDATE` as the client sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct NetUpdate {
    /// The re-emitted subset after the ingested chunk.
    pub update: SubsetUpdate,
    /// The server's backpressure signal.
    pub pressure: Pressure,
    /// The final update of a shed session ([`Pressure::Shed`] only):
    /// the server already closed it.
    pub shed_report: Option<SubsetUpdate>,
}

/// A blocking client for the wire protocol.
pub struct NetClient {
    stream: TcpStream,
    max_message_bytes: u32,
}

impl NetClient {
    /// Connects and performs the handshake with the default message cap.
    /// Every later read or write on the connection fails with
    /// [`ServeError::Io`] once it has waited 60 s, so a listener that
    /// stops answering cannot hang the client.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for connect failures.
    pub fn connect(addr: &str) -> Result<NetClient, ServeError> {
        NetClient::connect_with(addr, DEFAULT_MAX_MESSAGE_BYTES)
    }

    /// Connects with an explicit per-message size cap (must match the
    /// server's or replies over the cap are rejected client-side), under
    /// the same 60 s read and write deadline as [`NetClient::connect`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for connect failures.
    pub fn connect_with(addr: &str, max_message_bytes: u32) -> Result<NetClient, ServeError> {
        NetClient::connect_within(addr, max_message_bytes, CLIENT_DEADLINE)
    }

    /// [`NetClient::connect_with`] under a read and write deadline of
    /// `deadline` instead of [`CLIENT_DEADLINE`].
    pub(crate) fn connect_within(
        addr: &str,
        max_message_bytes: u32,
        deadline: Duration,
    ) -> Result<NetClient, ServeError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
        let mut hello = NET_MAGIC.to_le_bytes().to_vec();
        hello.push(NET_VERSION);
        stream.write_all(&hello)?;
        stream.flush()?;
        Ok(NetClient {
            stream,
            max_message_bytes,
        })
    }

    fn read_reply(&mut self) -> Result<(u8, Vec<u8>), ServeError> {
        match read_message(&mut self.stream, self.max_message_bytes, None)? {
            Some((MSG_ERROR, payload)) => {
                let (&code, detail) = payload.split_first().ok_or(ServeError::Protocol {
                    detail: "empty ERROR payload".into(),
                })?;
                Err(ServeError::Remote {
                    code,
                    detail: String::from_utf8_lossy(detail).into_owned(),
                })
            }
            Some(msg) => Ok(msg),
            None => Err(ServeError::Disconnected),
        }
    }

    fn expect_reply(&mut self, want: u8, what: &str) -> Result<Vec<u8>, ServeError> {
        let (ty, payload) = self.read_reply()?;
        if ty != want {
            return Err(ServeError::Protocol {
                detail: format!("expected {what} (0x{want:02x}), got 0x{ty:02x}"),
            });
        }
        Ok(payload)
    }

    /// Opens a session over the stream's resource tables (any frames in
    /// `tables` are stripped before transmission).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, among them a reply that misses the
    /// client's deadline ([`ServeError::Io`]), and server-side rejections
    /// ([`ServeError::Remote`]).
    pub fn open(&mut self, tables: &Workload) -> Result<u64, ServeError> {
        let frameless = Workload::new(
            tables.name.clone(),
            Vec::new(),
            tables.shaders().clone(),
            tables.textures().clone(),
            tables.states().clone(),
        );
        write_message(&mut self.stream, MSG_OPEN, &encode_workload(&frameless))?;
        let payload = self.expect_reply(MSG_OPENED, "OPENED")?;
        let (id, rest) = split_session_id(&payload)?;
        if !rest.is_empty() {
            return Err(ServeError::Protocol {
                detail: format!("{} trailing bytes after OPENED id", rest.len()),
            });
        }
        Ok(id.raw())
    }

    /// Streams one chunk into a session and returns the server's
    /// re-emitted subset plus its backpressure signal.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, among them a reply that misses the
    /// client's deadline ([`ServeError::Io`]), and server-side
    /// rejections, among them a shed whose server-side close failed
    /// ([`ServeError::Remote`]).
    pub fn ingest(&mut self, session: u64, frames: &[Frame]) -> Result<NetUpdate, ServeError> {
        let mut payload = session.to_le_bytes().to_vec();
        payload.extend_from_slice(&encode_frames(frames));
        if 1 + payload.len() > self.max_message_bytes as usize {
            return Err(ServeError::FrameTooLarge {
                len: u32::try_from(1 + payload.len()).unwrap_or(u32::MAX),
                max: self.max_message_bytes,
            });
        }
        write_message(&mut self.stream, MSG_INGEST, &payload)?;
        let reply = self.expect_reply(MSG_UPDATE, "UPDATE")?;
        let (id, rest) = split_session_id(&reply)?;
        if id.raw() != session {
            return Err(ServeError::Protocol {
                detail: format!("UPDATE for session {} answers {session}", id.raw()),
            });
        }
        let (&pressure, body) = rest.split_first().ok_or(ServeError::Protocol {
            detail: "UPDATE missing the pressure byte".into(),
        })?;
        let pressure = Pressure::from_byte(pressure)?;
        let update = decode_update(body)?;
        let shed_report = if pressure == Pressure::Shed {
            let closed = self.expect_reply(MSG_CLOSED, "CLOSED")?;
            let (_, body) = split_session_id(&closed)?;
            Some(decode_update(body)?)
        } else {
            None
        };
        Ok(NetUpdate {
            update,
            pressure,
            shed_report,
        })
    }

    /// Closes a session and returns its final update.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, among them a reply that misses the
    /// client's deadline ([`ServeError::Io`]), and server-side
    /// rejections.
    pub fn close(&mut self, session: u64) -> Result<SubsetUpdate, ServeError> {
        write_message(&mut self.stream, MSG_CLOSE, &session.to_le_bytes())?;
        let reply = self.expect_reply(MSG_CLOSED, "CLOSED")?;
        let (_, body) = split_session_id(&reply)?;
        decode_update(body)
    }

    /// Round-trips a PING.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and protocol violations.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        write_message(&mut self.stream, MSG_PING, &[])?;
        let payload = self.expect_reply(MSG_PONG, "PONG")?;
        if !payload.is_empty() {
            return Err(ServeError::Protocol {
                detail: format!("PONG carries {} payload bytes", payload.len()),
            });
        }
        Ok(())
    }
}

/// Everything [`replay_remote`] read back from a listener.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteReplay {
    /// Per-session, per-chunk `UPDATE`s (`updates[session][chunk]`). A
    /// shed session's list ends at the `UPDATE` that carried
    /// [`Pressure::Shed`].
    pub updates: Vec<Vec<NetUpdate>>,
    /// Each session's final state: the `CLOSED` reply, or the shed report
    /// of a session the server closed itself.
    pub finals: Vec<SubsetUpdate>,
    /// Round-trip time of every `INGEST`, nanoseconds, in stream order.
    pub wire_ns: Vec<u64>,
    /// Wall time from the first connect to the last close, nanoseconds.
    pub wall_ns: u64,
}

/// Streams `workload` to the listener at `addr` once per session, one
/// session after another: each connects, opens, ingests
/// `chunk_frames`-frame chunks (clamped to at least 1) and closes. A shed
/// session stops at the chunk that shed it, with no `CLOSE` (the server
/// already closed it); later sessions still stream.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for zero sessions, and the first
/// I/O failure or server-side rejection ([`ServeError::Remote`]).
pub fn replay_remote(
    addr: &str,
    workload: &Workload,
    sessions: usize,
    chunk_frames: usize,
) -> Result<RemoteReplay, ServeError> {
    if sessions == 0 {
        return Err(ServeError::InvalidConfig {
            reason: "replay needs at least one session".into(),
        });
    }
    let elapsed_ns = |since: Instant| u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let started = Instant::now();
    let mut replay = RemoteReplay {
        updates: Vec::with_capacity(sessions),
        finals: Vec::with_capacity(sessions),
        wire_ns: Vec::new(),
        wall_ns: 0,
    };
    for _ in 0..sessions {
        let mut client = NetClient::connect(addr)?;
        let session = client.open(workload)?;
        let mut updates = Vec::new();
        let mut shed_report = None;
        for chunk in workload.frames().chunks(chunk_frames.max(1)) {
            let start = Instant::now();
            let got = client.ingest(session, chunk)?;
            replay.wire_ns.push(elapsed_ns(start));
            shed_report = got.shed_report.clone();
            updates.push(got);
            if shed_report.is_some() {
                break;
            }
        }
        let final_update = match shed_report {
            Some(report) => report,
            None => client.close(session)?,
        };
        replay.updates.push(updates);
        replay.finals.push(final_update);
    }
    replay.wall_ns = elapsed_ns(started);
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use std::io::Cursor;
    use subset3d_trace::gen::GameProfile;

    fn workload(frames: usize) -> Workload {
        GameProfile::racing("serve-net")
            .frames(frames)
            .draws_per_frame(30)
            .build(19)
            .generate()
    }

    fn spawn_server(config: NetServerConfig) -> NetServerHandle {
        NetServer::bind("127.0.0.1:0", config)
            .expect("bind")
            .spawn()
            .expect("spawn")
    }

    fn raw_connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream
    }

    fn hello(stream: &mut TcpStream) {
        let mut bytes = NET_MAGIC.to_le_bytes().to_vec();
        bytes.push(NET_VERSION);
        stream.write_all(&bytes).expect("hello");
    }

    /// Polls until `cond` holds (bounded); the accept/handler threads
    /// race the assertions otherwise.
    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        for _ in 0..400 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn bind_rejects_an_invalid_arch_with_a_typed_error() {
        let mut config = NetServerConfig::default();
        config.serve.arch.eu_count = 0;
        assert!(matches!(
            NetServer::bind("127.0.0.1:0", config),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn a_listener_that_never_replies_fails_open_at_the_client_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut hello = [0u8; 5];
            stream.read_exact(&mut hello).expect("hello");
            // Never reply, but keep the socket open until the client
            // has given up.
            let _ = hold.recv();
        });
        // The client runs on its own thread, so a client that waits
        // forever fails this test instead of hanging it.
        let (done, outcome) = std::sync::mpsc::channel();
        let w = workload(1);
        std::thread::spawn(move || {
            let deadline = Duration::from_millis(200);
            let opened = NetClient::connect_within(&addr, DEFAULT_MAX_MESSAGE_BYTES, deadline)
                .and_then(|mut client| client.open(&w));
            let _ = done.send(opened);
        });
        let opened = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("open must fail at its deadline, not hang");
        assert!(
            matches!(opened, Err(ServeError::Io { .. })),
            "expected the read deadline to fail open, got {opened:?}"
        );
        drop(release);
        peer.join().expect("peer");
    }

    #[test]
    fn loopback_stream_matches_an_in_process_session_bit_for_bit() {
        let w = workload(9);
        let server = spawn_server(NetServerConfig::default());
        let addr = server.addr().to_string();

        let mut reference = Session::new(ServeConfig::default(), &w).unwrap();
        let mut client = NetClient::connect(&addr).unwrap();
        let session = client.open(&w).unwrap();
        for chunk in w.frames().chunks(4) {
            let expected = reference.ingest(chunk).unwrap();
            let got = client.ingest(session, chunk).unwrap();
            assert_eq!(got.pressure, Pressure::Nominal);
            assert_eq!(got.update, expected);
            assert_eq!(
                got.update.mean_prediction_error.to_bits(),
                expected.mean_prediction_error.to_bits(),
                "error mean must survive the wire bit-for-bit"
            );
            assert_eq!(
                got.update.error_bound.to_bits(),
                expected.error_bound.to_bits()
            );
        }
        let expected_final = reference.update();
        let final_update = client.close(session).unwrap();
        assert_eq!(final_update, expected_final);
        assert_eq!(server.manager().session_count(), 0);

        let stats = server.stop();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.protocol_errors, 0);
    }

    #[test]
    fn one_connection_interleaves_sessions_and_pings() {
        let w = workload(4);
        let server = spawn_server(NetServerConfig::default());
        let mut client = NetClient::connect(&server.addr().to_string()).unwrap();
        let a = client.open(&w).unwrap();
        let b = client.open(&w).unwrap();
        assert_ne!(a, b);
        client.ping().unwrap();
        client.ingest(a, &w.frames()[..2]).unwrap();
        client.ingest(b, w.frames()).unwrap();
        let ua = client.ingest(a, &w.frames()[2..]).unwrap();
        assert_eq!(ua.update.frames_seen, 4);
        assert_eq!(client.close(a).unwrap().frames_seen, 4);
        assert_eq!(client.close(b).unwrap().frames_seen, 4);
        // Closing again is a typed remote rejection, not a dead socket.
        let err = client.close(b).unwrap_err();
        assert!(
            matches!(err, ServeError::Remote { code, .. } if code == 2),
            "expected unknown-session code, got {err:?}"
        );
        client.ping().unwrap();
        server.stop();
    }

    #[test]
    fn impossible_budget_throttles_then_sheds_the_session() {
        let w = workload(8);
        let server = spawn_server(NetServerConfig {
            backpressure: Some(BackpressurePolicy {
                budget_ns: 1,
                throttle_after: 1,
                shed_after: 3,
                sample_interval: Duration::ZERO,
                rolling_windows: 8,
            }),
            ..NetServerConfig::default()
        });
        let mut client = NetClient::connect(&server.addr().to_string()).unwrap();
        let session = client.open(&w).unwrap();
        // Every ingest cuts a window whose p99 violates the 1 ns budget:
        // violations 1 and 2 throttle, violation 3 sheds.
        let first = client.ingest(session, &w.frames()[..2]).unwrap();
        assert_eq!(first.pressure, Pressure::Throttle);
        let second = client.ingest(session, &w.frames()[2..4]).unwrap();
        assert_eq!(second.pressure, Pressure::Throttle);
        let third = client.ingest(session, &w.frames()[4..6]).unwrap();
        assert_eq!(third.pressure, Pressure::Shed);
        let shed = third
            .shed_report
            .expect("shed sessions report their final state");
        assert_eq!(shed.frames_seen, 6);
        assert_eq!(server.manager().session_count(), 0);
        // The session is gone; the connection survives.
        let err = client.ingest(session, &w.frames()[6..]).unwrap_err();
        assert!(matches!(err, ServeError::Remote { code, .. } if code == 2));
        let stats = server.stop();
        assert_eq!(stats.sessions_shed, 1);
        assert_eq!(stats.protocol_errors, 0);
    }

    /// A client whose replies time out instead of hanging a test.
    fn bounded_client(addr: &str) -> NetClient {
        let client = NetClient::connect(addr).expect("connect");
        client
            .stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        client
    }

    #[test]
    fn shed_reply_followed_by_an_error_is_a_remote_error() {
        // A scripted peer: handshake, one INGEST, a shed UPDATE, then the
        // ERROR a failed close sends in place of CLOSED.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let mut hello = [0u8; 5];
            stream.read_exact(&mut hello).expect("hello");
            let (ty, _) = read_message(&mut stream, DEFAULT_MAX_MESSAGE_BYTES, None)
                .expect("read")
                .expect("an INGEST");
            assert_eq!(ty, MSG_INGEST);
            let update = SubsetUpdate {
                chunks_ingested: 1,
                frames_seen: 0,
                draws_seen: 0,
                cluster_count: 0,
                representative_frames: Vec::new(),
                mean_prediction_error: 0.0,
                mean_efficiency: 0.0,
                error_bound: 0.0,
                reservoir_occupancy: 0,
                reservoir_capacity: 1,
            };
            let mut reply = 7u64.to_le_bytes().to_vec();
            reply.push(Pressure::Shed.to_byte());
            reply.extend_from_slice(&encode_update(&update).expect("encode"));
            write_message(&mut stream, MSG_UPDATE, &reply).expect("UPDATE");
            send_error(&mut stream, &ServeError::SessionBusy { id: 7 }).expect("ERROR");
        });
        let mut client = bounded_client(&addr);
        let err = client.ingest(7, &[]).unwrap_err();
        assert!(
            matches!(err, ServeError::Remote { code, .. } if code == CODE_SESSION_BUSY),
            "expected the busy code, got {err:?}"
        );
        peer.join().expect("peer");
    }

    #[test]
    fn shed_whose_close_fails_answers_with_an_error() {
        let w = workload(4);
        // Every window violates the 1 ns budget: the first ingest sheds.
        let server = spawn_server(NetServerConfig {
            backpressure: Some(BackpressurePolicy {
                budget_ns: 1,
                throttle_after: 1,
                shed_after: 1,
                sample_interval: Duration::ZERO,
                rolling_windows: 8,
            }),
            ..NetServerConfig::default()
        });
        let mut client = bounded_client(&server.addr().to_string());
        let session = client.open(&w).unwrap();
        // Held the way a concurrent ingest holds it, the session cannot
        // be closed when the shed tries to.
        let held = server.manager().hold(SessionId::from_raw(session)).unwrap();
        let err = client.ingest(session, &w.frames()[..2]).unwrap_err();
        assert!(
            matches!(err, ServeError::Remote { code, .. } if code == CODE_SESSION_BUSY),
            "expected the busy code, got {err:?}"
        );
        drop(held);
        // The error was per request: the connection and session survive.
        client.ping().unwrap();
        assert_eq!(client.close(session).unwrap().frames_seen, 2);
        let stats = server.stop();
        assert_eq!(stats.sessions_shed, 0);
        assert_eq!(stats.protocol_errors, 0);
    }

    #[test]
    fn remote_replay_stops_each_shed_session_and_streams_the_next() {
        let w = workload(8);
        let server = spawn_server(NetServerConfig {
            backpressure: Some(BackpressurePolicy {
                budget_ns: 1,
                throttle_after: 1,
                shed_after: 3,
                sample_interval: Duration::ZERO,
                rolling_windows: 8,
            }),
            ..NetServerConfig::default()
        });
        let remote = replay_remote(&server.addr().to_string(), &w, 2, 2).unwrap();
        assert_eq!(remote.updates.len(), 2);
        for (updates, shed) in remote.updates.iter().zip(&remote.finals) {
            let pressures: Vec<Pressure> = updates.iter().map(|u| u.pressure).collect();
            assert_eq!(
                pressures,
                [Pressure::Throttle, Pressure::Throttle, Pressure::Shed]
            );
            assert_eq!(updates[2].shed_report.as_ref(), Some(shed));
            assert_eq!(shed.frames_seen, 6);
        }
        assert_eq!(remote.wire_ns.len(), 6);
        assert_eq!(server.manager().session_count(), 0);
        assert!(matches!(
            replay_remote(&server.addr().to_string(), &w, 0, 2),
            Err(ServeError::InvalidConfig { .. })
        ));
        let stats = server.stop();
        assert_eq!(stats.sessions_shed, 2);
        assert_eq!(stats.protocol_errors, 0);
    }

    #[test]
    fn generous_budget_stays_nominal() {
        let w = workload(6);
        let server = spawn_server(NetServerConfig {
            backpressure: Some(BackpressurePolicy {
                budget_ns: u64::MAX,
                throttle_after: 1,
                shed_after: 2,
                sample_interval: Duration::ZERO,
                rolling_windows: 8,
            }),
            ..NetServerConfig::default()
        });
        let mut client = NetClient::connect(&server.addr().to_string()).unwrap();
        let session = client.open(&w).unwrap();
        for chunk in w.frames().chunks(2) {
            assert_eq!(
                client.ingest(session, chunk).unwrap().pressure,
                Pressure::Nominal
            );
        }
        client.close(session).unwrap();
        let stats = server.stop();
        assert_eq!(stats.sessions_shed, 0);
    }

    #[test]
    fn orphaned_sessions_are_reaped_by_the_janitor() {
        let w = workload(3);
        let server = spawn_server(NetServerConfig {
            session_ttl: Some(Duration::from_millis(50)),
            janitor_interval: Duration::from_millis(10),
            ..NetServerConfig::default()
        });
        {
            let mut client = NetClient::connect(&server.addr().to_string()).unwrap();
            let session = client.open(&w).unwrap();
            client.ingest(session, w.frames()).unwrap();
            assert_eq!(server.manager().session_count(), 1);
            // Dropping the client mid-stream leaves the session open…
        }
        // …until it ages past the TTL and the janitor reaps it.
        wait_for(
            || server.manager().session_count() == 0,
            "janitor to evict the orphaned session",
        );
        let stats = server.stop();
        assert_eq!(stats.sessions_evicted, 1);
    }

    // ---- adversarial wire inputs -------------------------------------

    #[test]
    fn garbage_handshake_is_rejected_and_the_loop_survives() {
        let w = workload(2);
        let server = spawn_server(NetServerConfig::default());
        {
            let mut raw = raw_connect(server.addr());
            raw.write_all(b"GET / HTTP/1.1\r\n").expect("write");
            // The server answers with a wire ERROR and hangs up.
            let reply = read_message(&mut raw, DEFAULT_MAX_MESSAGE_BYTES, None);
            match reply {
                Ok(Some((ty, payload))) => {
                    assert_eq!(ty, MSG_ERROR);
                    assert_eq!(payload[0], CODE_PROTOCOL);
                }
                other => panic!("expected a wire ERROR, got {other:?}"),
            }
        }
        // A well-behaved client still gets served.
        let mut client = NetClient::connect(&server.addr().to_string()).unwrap();
        let session = client.open(&w).unwrap();
        client.ingest(session, w.frames()).unwrap();
        client.close(session).unwrap();
        assert_eq!(server.manager().session_count(), 0);
        let stats = server.stop();
        assert_eq!(stats.protocol_errors, 1);
    }

    #[test]
    fn truncated_length_prefix_counts_as_a_protocol_error() {
        let server = spawn_server(NetServerConfig::default());
        {
            let mut raw = raw_connect(server.addr());
            hello(&mut raw);
            // Two bytes of a four-byte prefix, then a hard disconnect.
            raw.write_all(&[0x10, 0x00]).expect("write");
        }
        wait_for(
            || server.stats().protocol_errors == 1,
            "the truncation to be counted",
        );
        assert_eq!(server.manager().session_count(), 0);
        server.stop();
    }

    #[test]
    fn oversized_length_claim_is_refused_without_allocation() {
        let server = spawn_server(NetServerConfig {
            max_message_bytes: 1024,
            ..NetServerConfig::default()
        });
        let mut raw = raw_connect(server.addr());
        hello(&mut raw);
        // Claim a 4 GiB message; the server must refuse before reading
        // (or allocating) a single payload byte.
        raw.write_all(&u32::MAX.to_le_bytes()).expect("write");
        let reply = read_message(&mut raw, DEFAULT_MAX_MESSAGE_BYTES, None)
            .expect("reply")
            .expect("reply");
        assert_eq!(reply.0, MSG_ERROR);
        assert_eq!(reply.1[0], CODE_TOO_LARGE);
        // The connection is dropped afterwards.
        assert!(matches!(
            read_message(&mut raw, DEFAULT_MAX_MESSAGE_BYTES, None),
            Ok(None) | Err(_)
        ));
        // The registry never saw a session, and new clients are fine
        // (PING keeps the liveness probe under the tiny 1 KiB cap).
        assert_eq!(server.manager().session_count(), 0);
        let mut client = NetClient::connect_with(&server.addr().to_string(), 1024).unwrap();
        client.ping().unwrap();
        let stats = server.stop();
        assert_eq!(stats.protocol_errors, 1);
    }

    #[test]
    fn garbage_payloads_get_typed_errors_and_leave_no_sessions() {
        let w = workload(2);
        let server = spawn_server(NetServerConfig::default());

        // A well-formed frameless workload whose frame count claims
        // `u32::MAX` frames: decoding it must not reserve room for them.
        let mut hostile = encode_workload(&Workload::new(
            w.name.clone(),
            Vec::new(),
            w.shaders().clone(),
            w.textures().clone(),
            w.states().clone(),
        ))
        .to_vec();
        let count_at = hostile.len() - 4;
        hostile[count_at..].copy_from_slice(&u32::MAX.to_be_bytes());

        // OPENs whose payload is noise, or a hostile count: protocol
        // error, connection dropped, nothing registered.
        let payloads = [
            vec![0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03],
            hostile,
        ];
        for payload in &payloads {
            let mut raw = raw_connect(server.addr());
            hello(&mut raw);
            let mut msg = (payload.len() as u32 + 1).to_le_bytes().to_vec();
            msg.push(MSG_OPEN);
            msg.extend_from_slice(payload);
            raw.write_all(&msg).expect("write");
            let reply = read_message(&mut raw, DEFAULT_MAX_MESSAGE_BYTES, None)
                .expect("reply")
                .expect("reply");
            assert_eq!(reply.0, MSG_ERROR);
            assert_eq!(reply.1[0], CODE_PROTOCOL);
            assert_eq!(server.manager().session_count(), 0);
        }

        // An INGEST against a session that was never opened: typed
        // rejection, conversation continues.
        let mut client = NetClient::connect(&server.addr().to_string()).unwrap();
        let err = client.ingest(123_456, w.frames()).unwrap_err();
        assert!(matches!(err, ServeError::Remote { code, .. } if code == 2));
        let session = client.open(&w).unwrap();
        client.ingest(session, w.frames()).unwrap();
        client.close(session).unwrap();
        let stats = server.stop();
        assert_eq!(stats.protocol_errors, payloads.len() as u64);
    }

    #[test]
    fn mid_stream_disconnect_keeps_the_registry_consistent() {
        let w = workload(4);
        let server = spawn_server(NetServerConfig::default());
        {
            let mut client = NetClient::connect(&server.addr().to_string()).unwrap();
            let session = client.open(&w).unwrap();
            client.ingest(session, &w.frames()[..2]).unwrap();
            // Hard disconnect mid-stream (no CLOSE).
        }
        // No TTL configured: the session stays registered and healthy…
        assert_eq!(server.manager().session_count(), 1);
        // …and an explicit sweep (what the janitor would run) reaps it.
        assert_eq!(server.manager().evict_idle(Duration::ZERO).len(), 1);
        assert_eq!(server.manager().session_count(), 0);
        // A disconnect at a message boundary is NOT a protocol error.
        let stats = server.stop();
        assert_eq!(stats.protocol_errors, 0);
    }

    #[test]
    fn reaping_joins_finished_handlers_and_keeps_live_ones() {
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        let mut handlers: Vec<JoinHandle<()>> = (0..3).map(|_| std::thread::spawn(|| {})).collect();
        handlers.push(std::thread::spawn(move || {
            let _ = blocked.recv();
        }));
        wait_for(
            || handlers[..3].iter().all(JoinHandle::is_finished),
            "the short-lived handlers to exit",
        );
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "only the blocked handler is live");
        assert!(!handlers[0].is_finished());
        release.send(()).unwrap();
        handlers.pop().unwrap().join().unwrap();
    }

    // ---- framing unit tests (no sockets) -----------------------------

    #[test]
    fn read_message_rejects_truncation_and_hostile_claims() {
        // Truncated length prefix.
        let err = read_message(&mut Cursor::new(vec![0x10, 0x00]), 1024, None).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err:?}");

        // Truncated body: claims 10 bytes, carries 3.
        let mut bytes = 10u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[MSG_PING, 1, 2]);
        let err = read_message(&mut Cursor::new(bytes), 1024, None).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err:?}");

        // Zero-length claim.
        let err =
            read_message(&mut Cursor::new(0u32.to_le_bytes().to_vec()), 1024, None).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err:?}");

        // Oversized claim: typed, and no body read is attempted.
        let err = read_message(
            &mut Cursor::new(u32::MAX.to_le_bytes().to_vec()),
            1024,
            None,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ServeError::FrameTooLarge {
                len: u32::MAX,
                max: 1024
            }
        );

        // Clean EOF at a message boundary.
        assert!(read_message(&mut Cursor::new(Vec::new()), 1024, None)
            .unwrap()
            .is_none());
    }

    /// Serves its bytes, then EOF, and records the largest buffer it is
    /// offered.
    struct OfferRecorder(Cursor<Vec<u8>>, usize);

    impl Read for OfferRecorder {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 = self.1.max(buf.len());
            self.0.read(buf)
        }
    }

    #[test]
    fn read_message_grows_the_body_as_bytes_arrive() {
        // A 32 MiB claim under the 64 MiB cap, then 100 bytes, then EOF.
        let mut bytes = (32u32 << 20).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[MSG_INGEST; 100]);
        let mut reader = OfferRecorder(Cursor::new(bytes), 0);
        let err = read_message(&mut reader, DEFAULT_MAX_MESSAGE_BYTES, None).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err:?}");
        assert!(reader.1 <= 64 * 1024, "offered a {} byte buffer", reader.1);

        // A complete body over several steps arrives whole.
        let payload: Vec<u8> = (0..150_000u32).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_message(&mut wire, MSG_INGEST, &payload).unwrap();
        let mut reader = OfferRecorder(Cursor::new(wire), 0);
        assert_eq!(
            read_message(&mut reader, DEFAULT_MAX_MESSAGE_BYTES, None).unwrap(),
            Some((MSG_INGEST, payload))
        );
        assert!(reader.1 <= 64 * 1024, "offered a {} byte buffer", reader.1);
    }

    #[test]
    fn messages_round_trip_through_the_framing() {
        let mut wire = Vec::new();
        write_message(&mut wire, MSG_INGEST, &[1, 2, 3]).unwrap();
        write_message(&mut wire, MSG_PING, &[]).unwrap();
        let mut cursor = Cursor::new(wire);
        assert_eq!(
            read_message(&mut cursor, 1024, None).unwrap(),
            Some((MSG_INGEST, vec![1, 2, 3]))
        );
        assert_eq!(
            read_message(&mut cursor, 1024, None).unwrap(),
            Some((MSG_PING, Vec::new()))
        );
        assert_eq!(read_message(&mut cursor, 1024, None).unwrap(), None);
    }
}
