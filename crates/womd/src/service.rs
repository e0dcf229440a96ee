//! The multi-tenant session multiplexer.
//!
//! A [`Service`] owns a fixed pool of worker threads. Each named
//! session is pinned to one worker by an FNV-1a hash of its name, so a
//! tenant's jobs execute in submission order on a single thread — the
//! property that makes per-tenant results independent of how many other
//! tenants are interleaved (a tenant's engine never observes the
//! others). Results are published back through a per-session mailbox:
//! epoch JSON-Lines deltas as epochs become final, then one `Finished`
//! event carrying the run's record count and a digest of its metrics.
//!
//! Resource policy, per worker:
//!
//! * at most [`ServiceConfig::max_resident`] sessions keep a live
//!   engine; beyond that the least-recently-used session is *parked* —
//!   checkpointed into a `WOMSNAP` container and its engine dropped.
//!   The next job for a parked session resumes it transparently, and
//!   determinism guarantees the results are byte-identical to a run
//!   that was never parked;
//! * at most [`ServiceConfig::max_sessions`] sessions exist at all;
//!   beyond that the least-recently-used *parked* session is dropped
//!   and replaced by an eviction tombstone. Feeding an evicted session
//!   is a typed [`ServiceError::Evicted`], and re-opening it starts
//!   fresh;
//! * each session accepts at most [`ServiceConfig::queue_batches`]
//!   queued feed batches; beyond that [`Service::feed`] returns a typed
//!   [`ServiceError::Busy`] immediately instead of blocking or
//!   dropping records — the caller owns the retry policy.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use pcm_trace::TraceRecord;
use wom_pcm::observe::push_epoch_jsonl;
use wom_pcm::session::{Session, SessionSpec};

/// Sizing and back-pressure knobs for a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads; sessions are sharded across them by name hash.
    pub workers: usize,
    /// Per-worker cap on sessions holding a live engine (LRU beyond
    /// this are parked as checkpoints).
    pub max_resident: usize,
    /// Per-worker cap on sessions in any form (LRU parked beyond this
    /// are evicted).
    pub max_sessions: usize,
    /// Per-session cap on queued feed batches before
    /// [`Service::feed`] reports [`ServiceError::Busy`].
    pub queue_batches: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_resident: 16,
            max_sessions: 256,
            queue_batches: 32,
        }
    }
}

/// FNV-1a over `bytes` (the session-sharding and digest hash).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Typed failures reported synchronously by [`Service`] calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The session's feed queue is full; retry after draining events.
    Busy {
        /// The session that is saturated.
        session: String,
        /// The queue limit that was hit.
        pending: u32,
    },
    /// The session was evicted under memory pressure; re-open it.
    Evicted {
        /// The evicted session.
        session: String,
    },
    /// No session with that name exists.
    UnknownSession {
        /// The unknown name.
        session: String,
    },
    /// An open session with that name already exists.
    AlreadyOpen {
        /// The conflicting name.
        session: String,
    },
    /// The session finished; results are drained via events.
    Finished {
        /// The finished session.
        session: String,
    },
    /// A prior simulator error ended the session (see its error event).
    Failed {
        /// The failed session.
        session: String,
    },
    /// The session's configuration was rejected.
    InvalidSpec {
        /// The session that failed to open.
        session: String,
        /// The configuration error.
        message: String,
    },
    /// Waited past the deadline for a session event.
    Timeout {
        /// The session that produced nothing in time.
        session: String,
    },
    /// The service is shutting down.
    Shutdown,
}

impl ServiceError {
    /// Stable protocol identifier for the error class.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Busy { .. } => "busy",
            Self::Evicted { .. } => "evicted",
            Self::UnknownSession { .. } => "unknown_session",
            Self::AlreadyOpen { .. } => "already_open",
            Self::Finished { .. } => "finished",
            Self::Failed { .. } => "failed",
            Self::InvalidSpec { .. } => "invalid_spec",
            Self::Timeout { .. } => "timeout",
            Self::Shutdown => "shutdown",
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Busy { session, pending } => {
                write!(f, "session '{session}' is busy ({pending} batches queued)")
            }
            Self::Evicted { session } => write!(f, "session '{session}' was evicted"),
            Self::UnknownSession { session } => write!(f, "unknown session '{session}'"),
            Self::AlreadyOpen { session } => write!(f, "session '{session}' is already open"),
            Self::Finished { session } => write!(f, "session '{session}' already finished"),
            Self::Failed { session } => write!(f, "session '{session}' failed"),
            Self::InvalidSpec { session, message } => {
                write!(f, "session '{session}' rejected: {message}")
            }
            Self::Timeout { session } => write!(f, "timed out waiting on session '{session}'"),
            Self::Shutdown => f.write_str("service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Asynchronous per-session results, drained with [`Service::poll`] /
/// [`Service::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// One newly final epoch, rendered as the exact JSON-Lines line the
    /// whole-series exporter would emit for it.
    Epoch {
        /// Index of the epoch within the session's series.
        index: usize,
        /// The rendered JSONL line (no trailing newline).
        line: String,
    },
    /// The session finished; results are final.
    Finished {
        /// Total records the session consumed.
        records: u64,
        /// FNV-1a digest of the pretty-printed final [`RunMetrics`]
        /// (`{:#?}`), the cheap cross-process identity check.
        ///
        /// [`RunMetrics`]: wom_pcm::RunMetrics
        metrics_fnv: u64,
        /// The pretty-printed final metrics the digest covers.
        metrics_debug: String,
    },
    /// The session hit a terminal error (it accepts no further feeds).
    Error {
        /// Protocol identifier for the error class.
        kind: &'static str,
        /// Human-readable description.
        message: String,
    },
}

// Lifecycle states published through `Mailbox::state`.
const ST_OPEN: u8 = 0;
const ST_FINISHED: u8 = 1;
const ST_EVICTED: u8 = 2;
const ST_FAILED: u8 = 3;

/// Client-visible side of one session: back-pressure counter, lifecycle
/// state, and the event queue.
#[derive(Debug, Default)]
struct Mailbox {
    pending: AtomicU32,
    state: AtomicU8,
    events: Mutex<VecDeque<SessionEvent>>,
    cv: Condvar,
}

impl Mailbox {
    fn push(&self, event: SessionEvent) {
        lock(&self.events).push_back(event);
        self.cv.notify_all();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

enum Job {
    Open {
        name: String,
        spec: Box<SessionSpec>,
        tags: Vec<(String, String)>,
        mailbox: Arc<Mailbox>,
        reply: Sender<Result<(), ServiceError>>,
    },
    Feed {
        name: String,
        records: Vec<TraceRecord>,
        mailbox: Arc<Mailbox>,
    },
    Finish {
        name: String,
        mailbox: Arc<Mailbox>,
    },
    Shutdown,
}

/// The multi-tenant simulation service (see module docs).
#[derive(Debug)]
pub struct Service {
    inner: Arc<Inner>,
    senders: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

#[derive(Debug)]
struct Inner {
    config: ServiceConfig,
    directory: Mutex<BTreeMap<String, Arc<Mailbox>>>,
}

impl Service {
    /// Starts the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn failures.
    pub fn start(config: ServiceConfig) -> io::Result<Self> {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            config,
            directory: Mutex::new(BTreeMap::new()),
        });
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = channel();
            let worker_inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("womd-worker-{i}"))
                .spawn(move || worker_loop(&rx, &worker_inner))?;
            senders.push(tx);
            handles.push(handle);
        }
        Ok(Self {
            inner,
            senders,
            workers: handles,
        })
    }

    /// The configuration the service was started with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    fn sender(&self, name: &str) -> Result<&Sender<Job>, ServiceError> {
        let shard = fnv1a(name.as_bytes()) as usize % self.senders.len().max(1);
        self.senders.get(shard).ok_or(ServiceError::Shutdown)
    }

    fn mailbox(&self, name: &str) -> Result<Arc<Mailbox>, ServiceError> {
        lock(&self.inner.directory)
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownSession {
                session: name.to_string(),
            })
    }

    /// The mailbox of `name` while its session is open, else the
    /// lifecycle error saying why it is not.
    fn open_mailbox(&self, name: &str) -> Result<Arc<Mailbox>, ServiceError> {
        let mailbox = self.mailbox(name)?;
        let state = mailbox.state.load(Ordering::Acquire);
        if state == ST_OPEN {
            return Ok(mailbox);
        }
        let session = name.to_string();
        Err(match state {
            ST_EVICTED => ServiceError::Evicted { session },
            ST_FAILED => ServiceError::Failed { session },
            _ => ServiceError::Finished { session },
        })
    }

    /// Opens a session named `name`. `tags` become constant leading
    /// fields of every epoch line the session emits (match them to a
    /// single-tenant exporter's tags and the lines are byte-identical).
    ///
    /// # Errors
    ///
    /// [`ServiceError::AlreadyOpen`] for a live duplicate name,
    /// [`ServiceError::InvalidSpec`] for a rejected configuration,
    /// [`ServiceError::Shutdown`] when the pool is gone.
    pub fn open(
        &self,
        name: &str,
        spec: SessionSpec,
        tags: &[(String, String)],
    ) -> Result<(), ServiceError> {
        let mailbox = Arc::new(Mailbox::default());
        {
            let mut dir = lock(&self.inner.directory);
            if let Some(existing) = dir.get(name) {
                if existing.state.load(Ordering::Acquire) == ST_OPEN {
                    return Err(ServiceError::AlreadyOpen {
                        session: name.to_string(),
                    });
                }
            }
            dir.insert(name.to_string(), Arc::clone(&mailbox));
        }
        let (reply_tx, reply_rx) = channel();
        let job = Job::Open {
            name: name.to_string(),
            spec: Box::new(spec),
            tags: tags.to_vec(),
            mailbox,
            reply: reply_tx,
        };
        self.sender(name)?
            .send(job)
            .map_err(|_| ServiceError::Shutdown)?;
        let result = reply_rx.recv().unwrap_or(Err(ServiceError::Shutdown));
        if result.is_err() {
            lock(&self.inner.directory).remove(name);
        }
        result
    }

    /// Queues one batch of records for `name`. Returns as soon as the
    /// batch is enqueued; results arrive as events.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Busy`] when the session's queue is full (the
    /// batch is *not* enqueued — retry it), plus the lifecycle errors
    /// ([`ServiceError::Evicted`] / [`ServiceError::Finished`] /
    /// [`ServiceError::Failed`] / [`ServiceError::UnknownSession`]).
    pub fn feed(&self, name: &str, records: Vec<TraceRecord>) -> Result<(), ServiceError> {
        let mailbox = self.open_mailbox(name)?;
        let limit = self.inner.config.queue_batches;
        if mailbox
            .pending
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| {
                if p >= limit {
                    None
                } else {
                    Some(p + 1)
                }
            })
            .is_err()
        {
            return Err(ServiceError::Busy {
                session: name.to_string(),
                pending: limit,
            });
        }
        let job = Job::Feed {
            name: name.to_string(),
            records,
            mailbox: Arc::clone(&mailbox),
        };
        self.sender(name)?.send(job).map_err(|_| {
            mailbox.pending.fetch_sub(1, Ordering::AcqRel);
            ServiceError::Shutdown
        })?;
        Ok(())
    }

    /// Queued batches currently outstanding for `name`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the name is unknown.
    pub fn pending(&self, name: &str) -> Result<u32, ServiceError> {
        Ok(self.mailbox(name)?.pending.load(Ordering::Acquire))
    }

    /// Queues the finish of session `name`; the final epochs and the
    /// `Finished` event arrive in its mailbox.
    ///
    /// # Errors
    ///
    /// The same lifecycle errors as [`feed`](Self::feed).
    pub fn finish(&self, name: &str) -> Result<(), ServiceError> {
        let mailbox = self.open_mailbox(name)?;
        let job = Job::Finish {
            name: name.to_string(),
            mailbox: Arc::clone(&mailbox),
        };
        self.sender(name)?
            .send(job)
            .map_err(|_| ServiceError::Shutdown)
    }

    /// Drains every queued event for `name` without blocking.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the name is unknown.
    pub fn poll(&self, name: &str) -> Result<Vec<SessionEvent>, ServiceError> {
        let mailbox = self.mailbox(name)?;
        let mut q = lock(&mailbox.events);
        Ok(q.drain(..).collect())
    }

    /// Waits up to `timeout` for the next event for `name`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the name is unknown.
    pub fn next_event(
        &self,
        name: &str,
        timeout: Duration,
    ) -> Result<Option<SessionEvent>, ServiceError> {
        let mailbox = self.mailbox(name)?;
        // Wall-clock here bounds how long a *client* blocks waiting for
        // an event; it never feeds simulated time or results.
        #[allow(clippy::disallowed_methods)]
        let deadline = std::time::Instant::now() + timeout;
        let mut q = lock(&mailbox.events);
        loop {
            if let Some(event) = q.pop_front() {
                return Ok(Some(event));
            }
            #[allow(clippy::disallowed_methods)]
            let now = std::time::Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // The condvar also fires on queue-drain notifications, so
            // wake-ups without an event loop back until the deadline.
            let (guard, _) = mailbox
                .cv
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
    }

    /// [`finish`](Self::finish) + event drain in one call: returns every
    /// remaining event through the `Finished` (or terminal error) event.
    ///
    /// # Errors
    ///
    /// The lifecycle errors of [`finish`](Self::finish), or
    /// [`ServiceError::Timeout`] when `timeout` passes between events.
    pub fn finish_wait(
        &self,
        name: &str,
        timeout: Duration,
    ) -> Result<Vec<SessionEvent>, ServiceError> {
        self.finish(name)?;
        let mut events = Vec::new();
        loop {
            match self.next_event(name, timeout)? {
                Some(event) => {
                    let done = matches!(
                        event,
                        SessionEvent::Finished { .. } | SessionEvent::Error { .. }
                    );
                    events.push(event);
                    if done {
                        return Ok(events);
                    }
                }
                None => {
                    return Err(ServiceError::Timeout {
                        session: name.to_string(),
                    })
                }
            }
        }
    }

    /// Forgets a finished (or evicted/failed) session's mailbox. Live
    /// sessions are left alone.
    pub fn close(&self, name: &str) {
        let mut dir = lock(&self.inner.directory);
        if let Some(mailbox) = dir.get(name) {
            if mailbox.state.load(Ordering::Acquire) != ST_OPEN {
                dir.remove(name);
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Job::Shutdown);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker-side tenant: its mailbox, the spec needed to resume a
/// parked checkpoint, the epoch tags, and a recency stamp for LRU.
struct Tenant {
    mailbox: Arc<Mailbox>,
    spec: SessionSpec,
    tags: Vec<(String, String)>,
    body: Body,
    last_used: u64,
}

enum Body {
    Resident(Box<Session>),
    Parked(Vec<u8>),
}

enum Slot {
    Live(Box<Tenant>),
    Evicted,
}

fn worker_loop(rx: &Receiver<Job>, inner: &Arc<Inner>) {
    let mut slots: BTreeMap<String, Slot> = BTreeMap::new();
    let mut clock: u64 = 0;
    while let Ok(job) = rx.recv() {
        clock += 1;
        match job {
            Job::Shutdown => break,
            Job::Open {
                name,
                spec,
                tags,
                mailbox,
                reply,
            } => {
                let result = match Session::open((*spec).clone()) {
                    Ok(session) => {
                        slots.insert(
                            name.clone(),
                            Slot::Live(Box::new(Tenant {
                                mailbox,
                                spec: *spec,
                                tags,
                                body: Body::Resident(Box::new(session)),
                                last_used: clock,
                            })),
                        );
                        enforce_limits(&mut slots, &inner.config, &name);
                        Ok(())
                    }
                    Err(e) => Err(ServiceError::InvalidSpec {
                        session: name.clone(),
                        message: e.to_string(),
                    }),
                };
                let _ = reply.send(result);
            }
            Job::Feed {
                name,
                records,
                mailbox,
            } => {
                feed_job(&mut slots, &name, &records, &mailbox, clock);
                enforce_limits(&mut slots, &inner.config, &name);
                mailbox.pending.fetch_sub(1, Ordering::AcqRel);
                mailbox.cv.notify_all();
            }
            Job::Finish { name, mailbox } => {
                finish_job(&mut slots, &name, &mailbox, clock);
            }
        }
    }
}

/// Parks or resumes nothing by itself: returns the resident session,
/// resuming a parked checkpoint first when needed.
fn ensure_resident(tenant: &mut Tenant) -> Result<&mut Session, String> {
    if let Body::Parked(bytes) = &tenant.body {
        match Session::resume(tenant.spec.clone(), bytes) {
            Ok(session) => tenant.body = Body::Resident(Box::new(session)),
            Err(e) => return Err(format!("resume from parked checkpoint failed: {e}")),
        }
    }
    match &mut tenant.body {
        Body::Resident(session) => Ok(session),
        Body::Parked(_) => Err("session did not become resident".to_string()),
    }
}

/// Renders and publishes every epoch that became final since the last
/// poll, as exact whole-series-exporter lines.
fn publish_epochs(session: &mut Session, tags: &[(String, String)], mailbox: &Mailbox) {
    let tag_refs: Vec<(&str, &str)> = tags.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let delta = session.poll_epochs();
    for (index, start, end, counters) in delta.iter() {
        let mut line = String::new();
        push_epoch_jsonl(&mut line, &tag_refs, index, start, end, counters);
        mailbox.push(SessionEvent::Epoch { index, line });
    }
}

fn fail_tenant(slots: &mut BTreeMap<String, Slot>, name: &str, mailbox: &Mailbox, message: String) {
    mailbox.state.store(ST_FAILED, Ordering::Release);
    mailbox.push(SessionEvent::Error {
        kind: "sim",
        message,
    });
    slots.remove(name);
}

/// The live tenant `name` on this worker, stamped with `clock`; for an
/// unknown or evicted session, posts the error event and returns `None`.
fn live_tenant<'a>(
    slots: &'a mut BTreeMap<String, Slot>,
    name: &str,
    mailbox: &Mailbox,
    clock: u64,
) -> Option<&'a mut Tenant> {
    match slots.get_mut(name) {
        None => {
            mailbox.push(SessionEvent::Error {
                kind: "unknown_session",
                message: format!("no live session '{name}' on this worker"),
            });
            None
        }
        Some(Slot::Evicted) => {
            mailbox.state.store(ST_EVICTED, Ordering::Release);
            mailbox.push(SessionEvent::Error {
                kind: "evicted",
                message: format!("session '{name}' was evicted under memory pressure"),
            });
            None
        }
        Some(Slot::Live(tenant)) => {
            tenant.last_used = clock;
            Some(tenant)
        }
    }
}

fn feed_job(
    slots: &mut BTreeMap<String, Slot>,
    name: &str,
    records: &[TraceRecord],
    mailbox: &Arc<Mailbox>,
    clock: u64,
) {
    let Some(tenant) = live_tenant(slots, name, mailbox, clock) else {
        return;
    };
    let tags = tenant.tags.clone();
    match ensure_resident(tenant) {
        Err(message) => fail_tenant(slots, name, mailbox, message),
        Ok(session) => match session.feed(records) {
            Ok(()) => publish_epochs(session, &tags, mailbox),
            Err(e) => fail_tenant(slots, name, mailbox, e.to_string()),
        },
    }
}

fn finish_job(slots: &mut BTreeMap<String, Slot>, name: &str, mailbox: &Arc<Mailbox>, clock: u64) {
    let Some(tenant) = live_tenant(slots, name, mailbox, clock) else {
        return;
    };
    let tags = tenant.tags.clone();
    match ensure_resident(tenant) {
        Err(message) => fail_tenant(slots, name, mailbox, message),
        Ok(session) => match session.finish() {
            Err(e) => fail_tenant(slots, name, mailbox, e.to_string()),
            Ok(metrics) => {
                publish_epochs(session, &tags, mailbox);
                let records = session.records_fed();
                let metrics_debug = format!("{metrics:#?}");
                let metrics_fnv = fnv1a(metrics_debug.as_bytes());
                mailbox.state.store(ST_FINISHED, Ordering::Release);
                mailbox.push(SessionEvent::Finished {
                    records,
                    metrics_fnv,
                    metrics_debug,
                });
                slots.remove(name);
            }
        },
    }
}

/// Applies the worker's residency and existence caps (module docs),
/// never touching `keep` (the session the current job just used).
fn enforce_limits(slots: &mut BTreeMap<String, Slot>, config: &ServiceConfig, keep: &str) {
    // Park LRU residents beyond the residency cap.
    loop {
        let resident = slots
            .values()
            .filter(|s| matches!(s, Slot::Live(t) if matches!(t.body, Body::Resident(_))))
            .count();
        if resident <= config.max_resident.max(1) {
            break;
        }
        let victim = slots
            .iter()
            .filter_map(|(n, s)| match s {
                Slot::Live(t) if matches!(t.body, Body::Resident(_)) && n != keep => {
                    Some((t.last_used, n.clone()))
                }
                _ => None,
            })
            .min();
        let Some((_, victim)) = victim else { break };
        let failure = match slots.get_mut(&victim) {
            Some(Slot::Live(tenant)) => match &tenant.body {
                Body::Resident(session) => match session.checkpoint() {
                    Ok(bytes) => {
                        tenant.body = Body::Parked(bytes);
                        None
                    }
                    Err(e) => Some((
                        Arc::clone(&tenant.mailbox),
                        format!("checkpoint for parking failed: {e}"),
                    )),
                },
                Body::Parked(_) => None,
            },
            _ => None,
        };
        if let Some((mailbox, message)) = failure {
            fail_tenant(slots, &victim, &mailbox, message);
        }
    }
    // Evict LRU parked sessions beyond the existence cap.
    loop {
        let live = slots
            .values()
            .filter(|s| matches!(s, Slot::Live(_)))
            .count();
        if live <= config.max_sessions.max(1) {
            break;
        }
        let victim = slots
            .iter()
            .filter_map(|(n, s)| match s {
                Slot::Live(t) if matches!(t.body, Body::Parked(_)) && n != keep => {
                    Some((t.last_used, n.clone()))
                }
                _ => None,
            })
            .min();
        let Some((_, victim)) = victim else { break };
        if let Some(Slot::Live(tenant)) = slots.get(&victim) {
            tenant.mailbox.state.store(ST_EVICTED, Ordering::Release);
            tenant.mailbox.push(SessionEvent::Error {
                kind: "evicted",
                message: format!("session '{victim}' was evicted under memory pressure"),
            });
        }
        slots.insert(victim, Slot::Evicted);
    }
}
