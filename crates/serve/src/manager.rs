//! Registry of concurrent sessions.

use crate::error::ServeError;
use crate::session::{ServeConfig, Session, SessionReport, SubsetUpdate};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use subset3d_obs::{GaugeLease, HistogramLease, LazyCounter};
use subset3d_trace::{Frame, Workload};

static OBS_OPENED: LazyCounter = LazyCounter::new("serve.sessions_opened");
static OBS_CLOSED: LazyCounter = LazyCounter::new("serve.sessions_closed");
static OBS_EVICTED: LazyCounter = LazyCounter::new("serve.sessions_evicted");

/// Per-session ingest latency, labeled by session id. Sessions beyond
/// the family's slot budget share the `~other` overflow label.
const SESSION_INGEST_FAMILY: &str = "serve.session.ingest_ns";

/// Per-session reservoir occupancy after the latest ingest.
const SESSION_OCCUPANCY_FAMILY: &str = "serve.session.reservoir_occupancy";

/// Source of every session id in the process. The per-session telemetry
/// cells (`session="session-N"`) are process-global, so ids must be
/// unique across every live [`SessionManager`], not just within one.
static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);

/// Opaque handle to an open session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id (diagnostics, logs).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from a raw id that crossed a process or wire
    /// boundary; validity is checked at the next registry lookup.
    pub fn from_raw(id: u64) -> SessionId {
        SessionId(id)
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// A [`SubsetUpdate`] plus the wall time its ingest took; the replay
/// driver's latency histogram is built from these.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedUpdate {
    /// The re-emitted subset.
    pub update: SubsetUpdate,
    /// Wall time of the session's ingest, nanoseconds: the same sample
    /// the session's `serve.session.ingest_ns` family records.
    pub ingest_ns: u64,
}

/// Labeled-metric leases attributing one session's activity; dropping
/// them (on close) releases the label slots for recycling — the churn
/// the snapshot-delta epoch check exists for.
struct SessionObs {
    ingest: HistogramLease,
    occupancy: GaugeLease,
}

impl SessionObs {
    fn claim(id: u64) -> Self {
        let label = format!("session-{id}");
        SessionObs {
            ingest: subset3d_obs::histogram_family(
                SESSION_INGEST_FAMILY,
                "session",
                subset3d_obs::DEFAULT_FAMILY_SLOTS,
            )
            .claim(&label),
            occupancy: subset3d_obs::gauge_family(
                SESSION_OCCUPANCY_FAMILY,
                "session",
                subset3d_obs::DEFAULT_FAMILY_SLOTS,
            )
            .claim(&label),
        }
    }
}

/// One open session plus its observability leases.
struct SessionEntry {
    session: Mutex<Session>,
    obs: SessionObs,
    /// Nanoseconds since the manager's epoch at the last open/ingest/
    /// `with_session` touch — what [`SessionManager::evict_idle`] ages.
    last_touched: AtomicU64,
}

/// A long-lived registry of concurrent streaming sessions.
///
/// One lock guards the id → session map, and it covers only a lookup,
/// insert or removal: every ingest runs under its own session's lock, so
/// concurrent ingests into different sessions never wait on each other.
/// Batched ingests fan out on the shared [`subset3d_exec`] pool.
pub struct SessionManager {
    sessions: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    /// Zero point of every entry's `last_touched` age stamp.
    epoch: Instant,
}

impl Default for SessionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        SessionManager {
            sessions: Mutex::new(HashMap::new()),
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the manager's epoch, saturating after ~584
    /// years of uptime.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Number of currently open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    fn session(&self, id: SessionId) -> Result<Arc<SessionEntry>, ServeError> {
        self.sessions
            .lock()
            .get(&id.0)
            .cloned()
            .ok_or(ServeError::UnknownSession { id: id.0 })
    }

    /// Opens a session over a stream that references `tables`' resource
    /// tables (see [`Session::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn open(&self, config: ServeConfig, tables: &Workload) -> Result<SessionId, ServeError> {
        let session = Session::new(config, tables)?;
        let id = NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed);
        let entry = SessionEntry {
            session: Mutex::new(session),
            obs: SessionObs::claim(id),
            last_touched: AtomicU64::new(self.now_ns()),
        };
        self.sessions.lock().insert(id, Arc::new(entry));
        OBS_OPENED.incr();
        Ok(SessionId(id))
    }

    /// Ingests one chunk into one session.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for closed/unknown ids and
    /// propagates simulator failures.
    pub fn ingest(&self, id: SessionId, frames: &[Frame]) -> Result<SubsetUpdate, ServeError> {
        self.ingest_timed(id, frames).map(|timed| timed.update)
    }

    /// [`SessionManager::ingest`], returning the ingest time it records in
    /// the session's telemetry family. Callers ([`crate::replay()`] and the
    /// network front-end's backpressure) report that one sample; a second
    /// clock around the call would read a few microseconds more and could
    /// land in the next power-of-two bucket.
    pub(crate) fn ingest_timed(
        &self,
        id: SessionId,
        frames: &[Frame],
    ) -> Result<TimedUpdate, ServeError> {
        let entry = self.session(id)?;
        entry.last_touched.store(self.now_ns(), Ordering::Relaxed);
        let start = Instant::now();
        let update = entry.session.lock().ingest(frames)?;
        let ingest_ns = start.elapsed().as_nanos() as u64;
        entry.obs.ingest.record(ingest_ns);
        entry.obs.occupancy.set(update.reservoir_occupancy as i64);
        Ok(TimedUpdate { update, ingest_ns })
    }

    /// Ingests a batch of chunks into their sessions concurrently on the
    /// shared [`subset3d_exec`] pool. Results are in request order.
    ///
    /// Requests for distinct sessions run in parallel whenever the pool
    /// has two or more threads, from two requests up; submitting the same
    /// session twice in one batch is allowed but the two chunks land in an
    /// unspecified relative order — stream chunks to a session one batch at
    /// a time.
    pub fn ingest_batch(
        &self,
        requests: &[(SessionId, &[Frame])],
    ) -> Vec<Result<TimedUpdate, ServeError>> {
        subset3d_exec::par_map_indexed(requests, |_, (id, frames)| self.ingest_timed(*id, frames))
    }

    /// Runs a closure against a session's current state (e.g. to take a
    /// [`Session::snapshot`] or peek at [`Session::update`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for closed/unknown ids.
    pub fn with_session<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut Session) -> R,
    ) -> Result<R, ServeError> {
        let entry = self.session(id)?;
        entry.last_touched.store(self.now_ns(), Ordering::Relaxed);
        let mut session = entry.session.lock();
        Ok(f(&mut session))
    }

    /// Drops every session idle (no open/ingest/`with_session` activity)
    /// for longer than `ttl`, releasing its reservoir memory and metric
    /// label slots, and returns the evicted ids in ascending order.
    ///
    /// Eviction is a registry removal: a concurrent ingest that already
    /// cloned the entry finishes safely on its own `Arc` and the memory
    /// is freed when that clone drops. Later calls against an evicted id
    /// get [`ServeError::UnknownSession`], exactly as after a close.
    pub fn evict_idle(&self, ttl: Duration) -> Vec<SessionId> {
        let cutoff = self
            .now_ns()
            .saturating_sub(u64::try_from(ttl.as_nanos()).unwrap_or(u64::MAX));
        let mut evicted = Vec::new();
        self.sessions.lock().retain(|&id, entry| {
            let keep = entry.last_touched.load(Ordering::Relaxed) >= cutoff;
            if !keep {
                evicted.push(SessionId(id));
                OBS_EVICTED.incr();
            }
            keep
        });
        evicted.sort_unstable();
        evicted
    }

    /// Holds a session's entry the way a concurrent ingest does, so that
    /// [`SessionManager::close`] finds it busy until the guard drops.
    #[cfg(test)]
    pub(crate) fn hold(&self, id: SessionId) -> Result<impl Sized, ServeError> {
        self.session(id)
    }

    /// Closes a session and drains its final report.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for closed/unknown ids and
    /// [`ServeError::SessionBusy`] if another thread still holds the
    /// session (it stays open in that case).
    pub fn close(&self, id: SessionId) -> Result<SessionReport, ServeError> {
        let mut sessions = self.sessions.lock();
        let arc = sessions
            .remove(&id.0)
            .ok_or(ServeError::UnknownSession { id: id.0 })?;
        match Arc::try_unwrap(arc) {
            Ok(entry) => {
                OBS_CLOSED.incr();
                // Dropping `entry.obs` releases the session's label
                // slots for the next session to recycle.
                Ok(entry.session.into_inner().drain())
            }
            Err(arc) => {
                // Someone is mid-ingest; put it back rather than losing it.
                sessions.insert(id.0, arc);
                Err(ServeError::SessionBusy { id: id.0 })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    fn workload(frames: usize) -> Workload {
        GameProfile::rts("serve-mgr")
            .frames(frames)
            .draws_per_frame(30)
            .build(5)
            .generate()
    }

    #[test]
    fn open_ingest_close_lifecycle() {
        let w = workload(4);
        let mgr = SessionManager::new();
        assert_eq!(mgr.session_count(), 0);
        let id = mgr.open(ServeConfig::default(), &w).unwrap();
        assert_eq!(mgr.session_count(), 1);
        let update = mgr.ingest(id, w.frames()).unwrap();
        assert_eq!(update.frames_seen, 4);
        let report = mgr.close(id).unwrap();
        assert_eq!(report.frames_seen, 4);
        assert_eq!(mgr.session_count(), 0);
        assert_eq!(
            mgr.ingest(id, w.frames()),
            Err(ServeError::UnknownSession { id: id.raw() })
        );
    }

    #[test]
    fn open_rejects_an_invalid_arch_with_a_typed_error() {
        let mut config = ServeConfig::default();
        config.arch.eu_count = 0;
        let mgr = SessionManager::new();
        assert!(matches!(
            mgr.open(config, &workload(1)),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert_eq!(mgr.session_count(), 0);
    }

    #[test]
    fn batched_ingest_matches_sequential() {
        let w = workload(6);
        let mgr = SessionManager::new();
        let ids: Vec<SessionId> = (0..8)
            .map(|_| mgr.open(ServeConfig::default(), &w).unwrap())
            .collect();
        let requests: Vec<(SessionId, &[Frame])> = ids.iter().map(|&id| (id, w.frames())).collect();
        let results = mgr.ingest_batch(&requests);
        assert_eq!(results.len(), 8);
        let mut reference = Session::new(ServeConfig::default(), &w).unwrap();
        let expected = reference.ingest(w.frames()).unwrap();
        for result in results {
            assert_eq!(result.unwrap().update, expected);
        }
    }

    #[test]
    fn sessions_are_isolated() {
        let w = workload(5);
        let mgr = SessionManager::new();
        let a = mgr.open(ServeConfig::default(), &w).unwrap();
        let b = mgr.open(ServeConfig::default(), &w).unwrap();
        mgr.ingest(a, &w.frames()[..2]).unwrap();
        mgr.ingest(b, w.frames()).unwrap();
        let ua = mgr.with_session(a, |s| s.update()).unwrap();
        let ub = mgr.with_session(b, |s| s.update()).unwrap();
        assert_eq!(ua.frames_seen, 2);
        assert_eq!(ub.frames_seen, 5);
    }

    #[test]
    fn idle_sessions_are_evicted_and_their_memory_released() {
        let w = workload(3);
        let mgr = SessionManager::new();
        let idle = mgr.open(ServeConfig::default(), &w).unwrap();
        let live = mgr.open(ServeConfig::default(), &w).unwrap();
        mgr.ingest(idle, w.frames()).unwrap();
        // A weak handle to the idle entry: eviction must drop the last
        // strong reference, releasing the session's reservoir memory.
        let weak = {
            let sessions = mgr.sessions.lock();
            Arc::downgrade(sessions.get(&idle.raw()).unwrap())
        };
        std::thread::sleep(Duration::from_millis(30));
        // Refresh `live` right before the sweep; only `idle` has aged
        // past the TTL.
        mgr.with_session(live, |_| ()).unwrap();
        let evicted = mgr.evict_idle(Duration::from_millis(20));
        assert_eq!(evicted, vec![idle]);
        assert_eq!(mgr.session_count(), 1);
        assert!(
            weak.upgrade().is_none(),
            "evicted session memory must be released"
        );
        assert_eq!(
            mgr.ingest(idle, w.frames()),
            Err(ServeError::UnknownSession { id: idle.raw() })
        );
        // The survivor still works, and a generous TTL evicts nothing.
        mgr.ingest(live, w.frames()).unwrap();
        assert!(mgr.evict_idle(Duration::from_secs(3600)).is_empty());
        assert_eq!(mgr.session_count(), 1);
    }

    #[test]
    fn eviction_does_not_race_in_flight_ingests() {
        // A clone held across the sweep (an in-flight ingest) keeps the
        // entry alive until it finishes; the registry forgets the id
        // immediately either way.
        let w = workload(2);
        let mgr = SessionManager::new();
        let id = mgr.open(ServeConfig::default(), &w).unwrap();
        let in_flight = mgr.sessions.lock().get(&id.raw()).unwrap().clone();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(mgr.evict_idle(Duration::ZERO), vec![id]);
        assert_eq!(mgr.session_count(), 0);
        // The "ingest" finishes on its clone, then the memory goes.
        let weak = Arc::downgrade(&in_flight);
        in_flight.session.lock().ingest(w.frames()).unwrap();
        drop(in_flight);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn ids_are_unique_across_shards() {
        let w = workload(1);
        let mgr = SessionManager::new();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            assert!(seen.insert(mgr.open(ServeConfig::default(), &w).unwrap()));
        }
        assert_eq!(mgr.session_count(), seen.len());
    }
}
