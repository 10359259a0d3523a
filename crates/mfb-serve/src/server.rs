//! The daemon: listeners, worker pool, job registry, and dispatch.
//!
//! Threading model: one non-blocking accept loop (which also watches the
//! termination flag and drives shutdown), one detached thread per client
//! connection (blocking reads with a short timeout so it can observe
//! shutdown), and a fixed pool of worker threads pulling job ids off the
//! [`JobQueue`]. All workers share one
//! [`StageCache`], so every submission after the first of a kind runs
//! warm — and the cache is persisted to `--cache-dir` so restarts stay
//! warm too.
//!
//! A job's life: `submit` resolves the job entry (a benchmark name or
//! inline assay source, never a server-side path), builds the job's
//! [`CancelToken`] and deadline **at admission time** (a job that waits
//! out its own deadline in the queue fails at the worker's first budget
//! checkpoint, so the 2× response-time bound holds regardless of queue
//! depth), and admits it through the bounded queue. The worker runs it
//! through [`run_batch`] under its budget; contained panics retry with
//! jittered exponential backoff up to the attempt cap, deterministic
//! errors and budget interrupts fail fast with their typed error.

use crate::protocol::{quote, ErrorKind, ProtocolError, Request, MAX_FRAME};
use crate::queue::{Admission, JobQueue};
use crate::signal;
use crate::snapshot::{self, LoadReport, SNAPSHOT_FILE};
use mfb_batch::prelude::*;
use mfb_core::prelude::*;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How the daemon is configured; see `mfb serve --help` for the flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// `host:port` for TCP, or a filesystem path (anything containing
    /// `/`) for a Unix socket.
    pub listen: String,
    /// Directory holding the persistent cache snapshot; `None` disables
    /// persistence.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads; `0` means the `MFB_THREADS` limit.
    pub workers: usize,
    /// Bounded queue capacity (admissions beyond it are `queue_full`).
    pub queue_cap: usize,
    /// Per-client in-flight cap (queued + running).
    pub client_cap: usize,
    /// Attempt cap for retrying transient (panic) failures.
    pub retry_max: u32,
    /// Completed jobs between cache snapshots (`1` = snapshot after
    /// every job; crash loses at most the last job's entries).
    pub snapshot_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_owned(),
            cache_dir: None,
            workers: 0,
            queue_cap: 64,
            client_cap: 8,
            retry_max: 3,
            snapshot_every: 1,
        }
    }
}

/// What one `run` returned after a graceful shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSummary {
    /// Jobs that reached `done`.
    pub done: u64,
    /// Jobs that reached a failure state (failed, cancelled, deadline).
    pub failed: u64,
    /// Entries in the final snapshot, when persistence is on.
    pub snapshot_entries: Option<usize>,
    /// What the startup snapshot load found.
    pub loaded: LoadReport,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
    Deadline,
}

impl JobState {
    fn token(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Deadline => "deadline",
        }
    }

    fn terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

#[derive(Debug)]
struct JobRecord {
    name: String,
    client: String,
    trace: bool,
    cancel: CancelToken,
    deadline: Option<Instant>,
    job: Option<BatchJob>,
    state: JobState,
    attempts: u32,
    outcome: Option<JobOutcome>,
    error: Option<String>,
    error_kind: Option<&'static str>,
    trace_jsonl: Option<String>,
}

#[derive(Debug)]
struct Shared {
    cfg: ServerConfig,
    cache: StageCache,
    queue: JobQueue<u64>,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    shutdown: AtomicBool,
    running: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    since_snapshot: AtomicU64,
    snap_lock: Mutex<()>,
    started: Instant,
    loaded: LoadReport,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.drain();
    }

    fn snapshot_path(&self) -> Option<PathBuf> {
        self.cfg.cache_dir.as_ref().map(|d| d.join(SNAPSHOT_FILE))
    }

    /// Writes a snapshot if one is due (or `force`). Serialized by
    /// `snap_lock` so concurrent workers cannot interleave writes; the
    /// rename itself is atomic either way.
    fn maybe_snapshot(&self, force: bool) -> Option<usize> {
        let path = self.snapshot_path()?;
        if !force {
            let due = self.since_snapshot.fetch_add(1, Ordering::AcqRel) + 1;
            if due < self.cfg.snapshot_every {
                return None;
            }
        }
        let _guard = lock(&self.snap_lock);
        self.since_snapshot.store(0, Ordering::Release);
        match snapshot::save_snapshot(&self.cache, &path) {
            Ok(n) => Some(n),
            Err(e) => {
                eprintln!("mfb-serve: snapshot write failed: {e}");
                None
            }
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, PathBuf),
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Listener::Tcp(l) => write!(f, "Tcp({:?})", l.local_addr().ok()),
            #[cfg(unix)]
            Listener::Unix(_, p) => write!(f, "Unix({})", p.display()),
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until
/// graceful shutdown.
#[derive(Debug)]
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

/// A cheap handle onto a running (or bound) server, for tests and
/// embedders: request a drain, inspect shutdown.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Stops admissions and lets the server finish its queue and exit.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// True once the server has fully shut down.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds the listener and warms the cache from `--cache-dir` (when
    /// set). Corrupt or missing snapshots never fail the bind — they
    /// just mean a colder start.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = if cfg.listen.contains('/') {
            #[cfg(unix)]
            {
                let path = PathBuf::from(&cfg.listen);
                // A stale socket file from a crashed predecessor would
                // make bind fail with AddrInUse; remove it. (A *live*
                // predecessor is indistinguishable here — deployments
                // that need that guard use a pidfile or a supervisor.)
                let _ = std::fs::remove_file(&path);
                let l = std::os::unix::net::UnixListener::bind(&path)?;
                l.set_nonblocking(true)?;
                Listener::Unix(l, path)
            }
            #[cfg(not(unix))]
            {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ));
            }
        } else {
            let addr: SocketAddr = cfg.listen.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("--listen {:?}: {e}", cfg.listen),
                )
            })?;
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Listener::Tcp(l)
        };

        let cache = StageCache::new();
        let mut loaded = LoadReport::default();
        if let Some(dir) = &cfg.cache_dir {
            std::fs::create_dir_all(dir)?;
            match snapshot::load_snapshot(&cache, &dir.join(SNAPSHOT_FILE)) {
                Ok(report) => loaded = report,
                Err(e) => eprintln!("mfb-serve: snapshot load failed, starting cold: {e}"),
            }
        }

        let workers = if cfg.workers == 0 {
            mfb_model::par::thread_limit().max(1)
        } else {
            cfg.workers
        };
        let queue = JobQueue::new(cfg.queue_cap, cfg.client_cap);
        let shared = Arc::new(Shared {
            cfg: ServerConfig { workers, ..cfg },
            cache,
            queue,
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            running: AtomicU64::new(0),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            since_snapshot: AtomicU64::new(0),
            snap_lock: Mutex::new(()),
            started: Instant::now(),
            loaded,
        });
        Ok(Server { listener, shared })
    }

    /// The bound TCP address, when listening on TCP (tests bind port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(..) => None,
        }
    }

    /// A handle for driving the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until `SIGTERM`/`SIGINT` or a `drain` request, then
    /// finishes the queue, writes a final snapshot, and returns.
    pub fn run(self) -> io::Result<ServeSummary> {
        signal::install_handlers();
        let shared = &self.shared;

        let mut workers = Vec::new();
        for i in 0..shared.cfg.workers {
            let shared = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name(format!("mfb-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))?;
            workers.push(handle);
        }

        loop {
            if (signal::termination_requested() || shared.draining.load(Ordering::SeqCst))
                && !shared.queue.is_draining()
            {
                shared.begin_drain();
            }
            if shared.queue.is_draining()
                && shared.queue.is_empty()
                && shared.running.load(Ordering::SeqCst) == 0
            {
                break;
            }
            match self.listener.accept_nonblocking() {
                Ok(Some(conn)) => {
                    let shared = Arc::clone(shared);
                    // Connection threads are detached; they exit on EOF
                    // or when the shutdown flag flips.
                    let _ = std::thread::Builder::new()
                        .name("mfb-serve-conn".to_owned())
                        .spawn(move || conn.serve(&shared));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => {
                    eprintln!("mfb-serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }

        shared.shutdown.store(true, Ordering::SeqCst);
        for w in workers {
            let _ = w.join();
        }
        let snapshot_entries = shared.maybe_snapshot(true);
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(ServeSummary {
            done: shared.done.load(Ordering::SeqCst),
            failed: shared.failed.load(Ordering::SeqCst),
            snapshot_entries,
            loaded: shared.loaded,
        })
    }
}

enum Conn {
    Tcp(std::net::TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    fn serve(self, shared: &Arc<Shared>) {
        let r = match self {
            Conn::Tcp(s) => {
                let _ = s.set_nonblocking(false);
                let _ = s.set_read_timeout(Some(Duration::from_millis(100)));
                s.try_clone()
                    .map(|w| serve_stream(BufReader::new(s), w, shared))
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.set_nonblocking(false);
                let _ = s.set_read_timeout(Some(Duration::from_millis(100)));
                s.try_clone()
                    .map(|w| serve_stream(BufReader::new(s), w, shared))
            }
        };
        if let Err(e) = r {
            eprintln!("mfb-serve: connection setup failed: {e}");
        }
    }
}

impl Listener {
    fn accept_nonblocking(&self) -> io::Result<Option<Conn>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(Conn::Tcp(s))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Ok(Some(Conn::Unix(s))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// One read frame: a complete line, an oversized line (already
/// discarded through its newline), or end-of-stream.
enum Frame {
    Line(String),
    Oversized,
    Eof,
}

/// Reads one newline-terminated frame, at most [`MAX_FRAME`] bytes.
/// Returns `Eof` when the peer closed or the server is shutting down.
fn read_frame(reader: &mut impl BufRead, shared: &Shared) -> Frame {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Frame::Eof,
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Frame::Eof;
                }
                continue;
            }
            Err(_) => return Frame::Eof,
        };
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if !discarding {
            buf.extend_from_slice(&chunk[..take.min(chunk.len())]);
        }
        reader.consume(take);
        if newline.is_some() {
            if discarding {
                return Frame::Oversized;
            }
            buf.pop(); // the newline
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return match String::from_utf8(buf) {
                Ok(s) => Frame::Line(s),
                // Invalid UTF-8 is a malformed frame, not a dead peer.
                Err(_) => Frame::Oversized,
            };
        }
        if buf.len() > MAX_FRAME {
            buf.clear();
            discarding = true;
        }
    }
}

fn serve_stream(mut reader: impl BufRead, mut writer: impl Write, shared: &Arc<Shared>) {
    loop {
        let line = match read_frame(&mut reader, shared) {
            Frame::Eof => return,
            Frame::Oversized => ProtocolError::new(
                ErrorKind::BadFrame,
                format!("frame exceeds {MAX_FRAME} bytes or is not UTF-8"),
            )
            .to_response(),
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                match crate::protocol::parse_request(&line) {
                    Ok(req) => dispatch(shared, req),
                    Err(e) => e.to_response(),
                }
            }
        };
        if writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

fn parse_job_id(id: &str) -> Option<u64> {
    id.strip_prefix('j')?.parse().ok()
}

fn error_kind_token(e: &SynthesisError) -> &'static str {
    match e {
        SynthesisError::DeadlineExceeded => "deadline_exceeded",
        SynthesisError::Cancelled => "cancelled",
        SynthesisError::StagePanic { .. } => "stage_panic",
        SynthesisError::Sched(_) => "sched",
        SynthesisError::Place(_) => "place",
        SynthesisError::Route { .. } => "route",
        _ => "synthesis",
    }
}

fn dispatch(shared: &Arc<Shared>, req: Request) -> String {
    match req {
        Request::Ping => "{\"ok\":true,\"pong\":true}".to_owned(),
        Request::Drain => {
            shared.begin_drain();
            "{\"ok\":true,\"draining\":true}".to_owned()
        }
        Request::Stats => stats_response(shared),
        Request::Submit {
            job_json,
            timeout_secs,
            priority,
            client,
            trace,
        } => submit(shared, &job_json, timeout_secs, priority, &client, trace)
            .unwrap_or_else(|e| e.to_response()),
        Request::Status { id } => with_job(shared, &id, |id, rec| {
            let mut out = format!(
                "{{\"ok\":true,\"id\":{},\"name\":{},\"state\":{},\"attempts\":{}",
                quote(&format!("j{id}")),
                quote(&rec.name),
                quote(rec.state.token()),
                rec.attempts
            );
            if let Some(err) = &rec.error {
                out.push_str(&format!(
                    ",\"error\":{},\"error_kind\":{}",
                    quote(err),
                    quote(rec.error_kind.unwrap_or("synthesis"))
                ));
            }
            out.push('}');
            Ok(out)
        }),
        Request::Result { id } => with_job(shared, &id, |id, rec| {
            if !rec.state.terminal() {
                return Err(ProtocolError::new(
                    ErrorKind::NotReady,
                    format!("job j{id} is {}", rec.state.token()),
                ));
            }
            let mut out = format!(
                "{{\"ok\":true,\"id\":{},\"state\":{},\"attempts\":{}",
                quote(&format!("j{id}")),
                quote(rec.state.token()),
                rec.attempts
            );
            if let Some(outcome) = &rec.outcome {
                match serde_json::to_string(outcome) {
                    Ok(json) => out.push_str(&format!(",\"outcome\":{json}")),
                    Err(e) => {
                        return Err(ProtocolError::new(
                            ErrorKind::JobFailed,
                            format!("outcome serialization failed: {e}"),
                        ))
                    }
                }
            }
            if let Some(err) = &rec.error {
                out.push_str(&format!(
                    ",\"error\":{},\"error_kind\":{}",
                    quote(err),
                    quote(rec.error_kind.unwrap_or("synthesis"))
                ));
            }
            if let Some(trace) = &rec.trace_jsonl {
                out.push_str(&format!(",\"trace_jsonl\":{}", quote(trace)));
            }
            out.push('}');
            Ok(out)
        }),
        Request::Cancel { id } => with_job(shared, &id, |id, rec| {
            rec.cancel.cancel();
            Ok(format!(
                "{{\"ok\":true,\"id\":{},\"state\":{}}}",
                quote(&format!("j{id}")),
                quote(rec.state.token())
            ))
        }),
        // `Request` is non_exhaustive for forward compatibility; a verb
        // added to the parser without a dispatch arm lands here.
        #[allow(unreachable_patterns)]
        _ => ProtocolError::new(ErrorKind::UnknownOp, "verb not implemented").to_response(),
    }
}

fn with_job(
    shared: &Shared,
    id: &str,
    f: impl FnOnce(u64, &mut JobRecord) -> Result<String, ProtocolError>,
) -> String {
    let Some(n) = parse_job_id(id) else {
        return ProtocolError::new(ErrorKind::UnknownJob, format!("no job {id:?}")).to_response();
    };
    let mut jobs = lock(&shared.jobs);
    match jobs.get_mut(&n) {
        Some(rec) => f(n, rec).unwrap_or_else(|e| e.to_response()),
        None => ProtocolError::new(ErrorKind::UnknownJob, format!("no job {id:?}")).to_response(),
    }
}

fn submit(
    shared: &Arc<Shared>,
    job_json: &str,
    timeout_secs: Option<f64>,
    priority: u8,
    client: &str,
    trace: bool,
) -> Result<String, ProtocolError> {
    if shared.draining.load(Ordering::SeqCst) {
        return Err(ProtocolError::new(
            ErrorKind::Draining,
            "server is draining",
        ));
    }
    let entry: serde_json::Value = serde_json::from_str(job_json)
        .map_err(|e| ProtocolError::new(ErrorKind::BadRequest, e.to_string()))?;
    if entry.get("repeat").is_some_and(|k| k.as_u64() != Some(1)) {
        return Err(ProtocolError::new(
            ErrorKind::BadRequest,
            "submit takes exactly one job (use \"repeat\": 1)",
        ));
    }
    // No base directory: a client names a benchmark or sends the assay
    // source inline, never a path on the server.
    let job = parse_entry(&entry, 0, None)
        .map_err(|e| ProtocolError::new(ErrorKind::BadRequest, e.to_string()))?;

    let cancel = CancelToken::new();
    let deadline =
        timeout_secs.and_then(|s| Instant::now().checked_add(Duration::from_secs_f64(s)));
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let record = JobRecord {
        name: job.name.clone(),
        client: client.to_owned(),
        trace,
        cancel,
        deadline,
        job: Some(job),
        state: JobState::Queued,
        attempts: 0,
        outcome: None,
        error: None,
        error_kind: None,
        trace_jsonl: None,
    };
    lock(&shared.jobs).insert(id, record);

    match shared.queue.try_push(client, priority, id) {
        Admission::Accepted => Ok(format!(
            "{{\"ok\":true,\"id\":{},\"state\":\"queued\"}}",
            quote(&format!("j{id}"))
        )),
        rejection => {
            lock(&shared.jobs).remove(&id);
            Err(match rejection {
                Admission::QueueFull { cap } => ProtocolError::new(
                    ErrorKind::QueueFull,
                    format!("queue is at its capacity of {cap}; retry later"),
                ),
                Admission::ClientSaturated { cap } => ProtocolError::new(
                    ErrorKind::ClientSaturated,
                    format!("client {client:?} already has {cap} jobs in flight"),
                ),
                Admission::Draining => {
                    ProtocolError::new(ErrorKind::Draining, "server is draining")
                }
                Admission::Accepted => unreachable!("accepted handled above"),
            })
        }
    }
}

fn stats_response(shared: &Shared) -> String {
    let (mut queued, mut running, mut done, mut failed, mut cancelled, mut deadline) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    {
        let jobs = lock(&shared.jobs);
        for rec in jobs.values() {
            match rec.state {
                JobState::Queued => queued += 1,
                JobState::Running => running += 1,
                JobState::Done => done += 1,
                JobState::Failed => failed += 1,
                JobState::Cancelled => cancelled += 1,
                JobState::Deadline => deadline += 1,
            }
        }
    }
    let cache_json =
        serde_json::to_string(&shared.cache.stats()).unwrap_or_else(|_| "null".to_owned());
    format!(
        "{{\"ok\":true,\"uptime_secs\":{:.3},\"queue_depth\":{},\"draining\":{},\
         \"jobs\":{{\"queued\":{queued},\"running\":{running},\"done\":{done},\
         \"failed\":{failed},\"cancelled\":{cancelled},\"deadline\":{deadline}}},\
         \"cache\":{{\"ready_entries\":{},\"stats\":{cache_json}}}}}",
        shared.started.elapsed().as_secs_f64(),
        shared.queue.len(),
        shared.draining.load(Ordering::SeqCst),
        shared.cache.ready_entries(),
    )
}

/// Deterministic per-(job, attempt) jitter: a splitmix64 step. "Jitter"
/// here decorrelates concurrent retries; it does not need to be random,
/// only spread out.
fn backoff(id: u64, attempt: u32) -> Duration {
    let base_ms = 20u64.saturating_mul(1 << (attempt.min(4) - 1).min(4));
    let mut z = id
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(attempt as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let jitter_ms = (z ^ (z >> 31)) % base_ms.max(1);
    Duration::from_millis((base_ms + jitter_ms).min(500))
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match shared.queue.pop_timeout(Duration::from_millis(50)) {
            Some(id) => run_job(shared, id),
            None => {
                if shared.queue.is_draining() && shared.queue.is_empty() {
                    return;
                }
            }
        }
    }
}

/// Runs one job to a terminal state: budget from its admission-time
/// deadline and cancel token, retry-with-backoff for contained panics,
/// fail-fast for typed errors.
fn run_job(shared: &Arc<Shared>, id: u64) {
    let (job, trace, client) = {
        let mut jobs = lock(&shared.jobs);
        let Some(rec) = jobs.get_mut(&id) else {
            return;
        };
        rec.state = JobState::Running;
        let mut budget = match rec.deadline {
            Some(d) => Budget::with_deadline(d),
            None => Budget::unlimited(),
        };
        budget = budget.with_cancel(rec.cancel.clone());
        let job = rec.job.take().map(|j| j.with_budget(budget));
        (job, rec.trace, rec.client.clone())
    };
    let Some(job) = job else {
        finish_job(
            shared,
            id,
            &client,
            Err(SynthesisError::StagePanic {
                stage: "serve",
                message: "job payload missing (already taken)".to_owned(),
            }),
            1,
            None,
            None,
        );
        return;
    };
    shared.running.fetch_add(1, Ordering::SeqCst);

    let mut attempts = 0u32;
    let (result, outcome, trace_jsonl) = loop {
        attempts += 1;
        let collector = if trace {
            Some(mfb_obs::TraceCollector::new())
        } else {
            None
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let run_once = || run_batch(std::slice::from_ref(&job), &shared.cache);
            match &collector {
                Some(c) => mfb_obs::with_collector(c, run_once),
                None => run_once(),
            }
        }));
        let trace_jsonl = collector.map(|c| mfb_obs::export::to_jsonl(&c.finish().events));
        match caught {
            Ok(mut run) => {
                let solution = run.solutions.pop();
                let outcome = run.report.outcomes.pop();
                match solution {
                    Some(Ok(_)) => break (Ok(()), outcome, trace_jsonl),
                    Some(Err(e)) => {
                        // Typed errors fail fast: deterministic errors
                        // reproduce on retry, and budget interrupts are
                        // the budget speaking, not a flake.
                        break (Err(e), outcome, trace_jsonl);
                    }
                    None => {
                        break (
                            Err(SynthesisError::StagePanic {
                                stage: "batch",
                                message: "executor returned no result".to_owned(),
                            }),
                            outcome,
                            trace_jsonl,
                        )
                    }
                }
            }
            Err(payload) => {
                let e = SynthesisError::StagePanic {
                    stage: "batch",
                    message: panic_message(payload),
                };
                if attempts >= shared.cfg.retry_max.max(1) {
                    break (Err(e), None, trace_jsonl);
                }
                // Transient: a contained panic may be environmental
                // (allocation pressure, a poisoned scratch arena).
                // Back off with per-(job, attempt) jitter and retry.
                std::thread::sleep(backoff(id, attempts));
            }
        }
    };

    shared.running.fetch_sub(1, Ordering::SeqCst);
    finish_job(shared, id, &client, result, attempts, outcome, trace_jsonl);
}

fn finish_job(
    shared: &Arc<Shared>,
    id: u64,
    client: &str,
    result: Result<(), SynthesisError>,
    attempts: u32,
    outcome: Option<JobOutcome>,
    trace_jsonl: Option<String>,
) {
    {
        let mut jobs = lock(&shared.jobs);
        if let Some(rec) = jobs.get_mut(&id) {
            rec.attempts = attempts;
            rec.outcome = outcome;
            rec.trace_jsonl = trace_jsonl;
            match &result {
                Ok(()) => rec.state = JobState::Done,
                Err(e) => {
                    rec.state = match e {
                        SynthesisError::DeadlineExceeded => JobState::Deadline,
                        SynthesisError::Cancelled => JobState::Cancelled,
                        _ => JobState::Failed,
                    };
                    rec.error = Some(e.to_string());
                    rec.error_kind = Some(error_kind_token(e));
                }
            }
        }
    }
    match result {
        Ok(()) => shared.done.fetch_add(1, Ordering::SeqCst),
        Err(_) => shared.failed.fetch_add(1, Ordering::SeqCst),
    };
    shared.queue.release_client(client);
    shared.maybe_snapshot(false);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_round_trip() {
        assert_eq!(parse_job_id("j42"), Some(42));
        assert_eq!(parse_job_id("42"), None);
        assert_eq!(parse_job_id("jx"), None);
    }

    #[test]
    fn backoff_grows_and_stays_bounded() {
        let a1 = backoff(7, 1);
        let a2 = backoff(7, 2);
        let a3 = backoff(7, 5);
        assert!(a1 >= Duration::from_millis(20));
        assert!(a2 >= Duration::from_millis(40));
        assert!(a3 <= Duration::from_millis(500));
        // Different jobs see different jitter at the same attempt.
        assert_ne!(backoff(1, 1), backoff(2, 1));
    }

    /// Sends one protocol line through `dispatch` and parses the reply.
    fn call(shared: &Arc<Shared>, line: &str) -> serde_json::Value {
        let req = crate::protocol::parse_request(line).expect("valid request");
        serde_json::from_str(&dispatch(shared, req)).expect("reply is JSON")
    }

    fn field<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a str> {
        v.get(key).and_then(serde_json::Value::as_str)
    }

    /// Admission control, premature results and cancellation, on a server
    /// that was bound but never run: with no worker threads every admitted
    /// job stays queued until the test itself runs it, so no outcome
    /// depends on how fast synthesis is.
    #[test]
    fn cancel_is_typed_and_admission_control_rejects() {
        let server = Server::bind(ServerConfig {
            workers: 1,
            queue_cap: 3,
            client_cap: 1,
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = &server.shared;

        let a = call(
            shared,
            r#"{"op":"submit","job":{"bench":"PCR"},"client":"a"}"#,
        );
        assert_eq!(field(&a, "id"), Some("j1"), "{a:?}");

        // Per-client cap: client "b" may hold one slot; its second submit
        // is a typed client_saturated rejection while the first is queued.
        let b1 = call(
            shared,
            r#"{"op":"submit","job":{"bench":"PCR"},"client":"b"}"#,
        );
        assert_eq!(field(&b1, "id"), Some("j2"), "{b1:?}");
        let b2 = call(
            shared,
            r#"{"op":"submit","job":{"bench":"PCR"},"client":"b"}"#,
        );
        assert_eq!(field(&b2, "error"), Some("client_saturated"), "{b2:?}");

        // A queued job has no result yet.
        let premature = call(shared, r#"{"op":"result","id":"j2"}"#);
        assert_eq!(
            field(&premature, "error"),
            Some("not_ready"),
            "{premature:?}"
        );

        // A cancelled job stops at its first budget checkpoint and reports
        // the typed `cancelled` state.
        let cancel = call(shared, r#"{"op":"cancel","id":"j1"}"#);
        assert_eq!(field(&cancel, "state"), Some("queued"), "{cancel:?}");
        run_job(shared, 1);
        let result = call(shared, r#"{"op":"result","id":"j1"}"#);
        assert_eq!(field(&result, "state"), Some("cancelled"), "{result:?}");
        assert_eq!(
            field(&result, "error_kind"),
            Some("cancelled"),
            "{result:?}"
        );
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.queue_cap > 0 && cfg.client_cap > 0 && cfg.retry_max > 0);
    }
}
