//! `semint serve` — a long-running sweep-orchestration daemon.
//!
//! One-shot `semint sweep` re-pays process startup and leaves supervision
//! to the shell.  The serve subsystem turns the existing sharded sweep
//! machinery into a service: a daemon owns a bounded FIFO [`queue`] of
//! sweep jobs, and for each job its [`supervisor`] spawns N shard workers
//! as `semint sweep --shard i/N --save` child processes, streams their
//! saved reports back, and [`merge`]s them live into rolling per-case
//! digests a client can watch with `semint status`.  The [`protocol`] is
//! hand-rolled line-JSON over localhost TCP — the workspace is offline and
//! dependency-free, so there is no serde, no tokio, no HTTP; just
//! `std::net` and the crate's own JSON reader.
//!
//! The deterministic foundation makes supervision *safe*: shards are exact
//! k-of-n seed slices and the merge is order-insensitive, so a worker that
//! crashes or wedges can be killed and its slice re-issued, and the final
//! merged digests are still byte-identical to a one-shot `semint sweep`
//! over the same range.  Failure is handled, never hidden: a shard that
//! exhausts its retry budget fails the whole job with a reason, and the
//! completeness check refuses to mark a job done unless every seed of
//! every case is accounted for.
//!
//! With a `--state-dir`, the daemon also survives *its own* death: every
//! job lifecycle transition is appended to an fsync'd JSONL [`journal`],
//! completed shard reports are checkpointed into the state dir before they
//! are journaled, and `semint serve --resume` replays the journal —
//! digest-verifying every checkpoint — so an interrupted job re-runs only
//! its unaccounted shards and still converges on the one-shot digests.
//! The [`chaos`] drill turns that invariant into a repeatable test: a
//! seed-derived fault schedule (worker crashes, wedges, corrupted reports)
//! against a live daemon that is then killed mid-job and resumed.
//!
//! The daemon has no timer polls: every thread blocks until the event it
//! serves.  The accept loop blocks in `accept`; the scheduler waits on a
//! condvar that `Submit`, `Shutdown` and a stopping daemon signal; and the
//! [`supervisor`] wakes when a worker exits or a heartbeat deadline passes.
//! Stopping wakes the blocked accept with one loopback connection.

pub mod chaos;
pub mod journal;
pub mod merge;
pub mod protocol;
pub mod queue;
pub mod supervisor;

pub use chaos::{run_drills, ChaosConfig, DrillOutcome};
pub use journal::{
    content_digest, Journal, JournalEvent, RecoveredJob, RecoveredOutcome, RecoveredState,
};
pub use merge::RollingMerge;
pub use protocol::{
    call, parse_request, parse_response, render_request, render_response, JobStatus, Request,
    Response, DEFAULT_PORT,
};
pub use queue::{FaultKind, FaultPlan, JobQueue, JobSpec, JobState};

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use semint_core::stats::SweepReport;

use crate::trace::ServeLog;

/// Everything a daemon needs to run: where to listen, how big the fleet
/// and queue are, how supervision behaves, and which binary to spawn as
/// shard workers (normally the daemon's own executable).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Worker slots per job: how many shard processes run concurrently.
    pub workers: usize,
    /// Bounded admission: at most this many unfinished jobs.
    pub queue_capacity: usize,
    /// A worker with no stderr heartbeat for this long is wedged.
    pub heartbeat_timeout: Duration,
    /// Re-issues per shard before the job is abandoned.
    pub max_retries: u64,
    /// The `semint` binary to spawn as workers.
    pub worker_binary: PathBuf,
    /// Where to write the JSONL daemon log (None = no log file).
    pub log_path: Option<PathBuf>,
    /// Mirror log events to stdout (the foreground `semint serve` mode).
    pub echo: bool,
    /// Durable state: the journal and shard checkpoints live here.
    /// `None` keeps all job state in memory, as before.
    pub state_dir: Option<PathBuf>,
    /// Replay the state dir's journal at startup and adopt its jobs.
    pub resume: bool,
}

impl ServeConfig {
    /// A config with the documented CLI defaults, spawning `worker_binary`.
    pub fn new(worker_binary: PathBuf) -> ServeConfig {
        ServeConfig {
            port: DEFAULT_PORT,
            workers: 4,
            queue_capacity: 16,
            heartbeat_timeout: Duration::from_millis(30_000),
            max_retries: 2,
            worker_binary,
            log_path: None,
            echo: false,
            state_dir: None,
            resume: false,
        }
    }
}

/// A running daemon: accept loop + scheduler thread, joined on shutdown.
pub struct Daemon {
    accept: Option<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// State shared between the accept loop and the scheduler.
struct Shared {
    queue: Mutex<JobQueue>,
    /// Paired with `queue`: signalled when a job is queued, when draining
    /// starts, and when the daemon stops — everything the idle scheduler
    /// waits for.
    wake: Condvar,
    /// Set once, by [`Shared::stop`].
    stop: AtomicBool,
    /// The listener's port, for the loopback connection that wakes the
    /// accept loop on stop.
    port: u16,
    log: ServeLog,
    cfg: ServeConfig,
    workdir: PathBuf,
    journal: Option<Journal>,
}

impl Daemon {
    /// Binds the listener, creates the scratch directory for shard reports,
    /// and starts the accept and scheduler threads.  Returns once the
    /// daemon is reachable; [`Daemon::join`] blocks until a shutdown
    /// request has drained the queue.
    pub fn spawn(cfg: ServeConfig) -> Result<Daemon, String> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))
            .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", cfg.port))?;
        let port = listener
            .local_addr()
            .map_err(|e| format!("cannot read the bound address: {e}"))?
            .port();
        let workdir =
            std::env::temp_dir().join(format!("semint-serve-{}-{port}", std::process::id()));
        std::fs::create_dir_all(&workdir)
            .map_err(|e| format!("cannot create {}: {e}", workdir.display()))?;
        let log = ServeLog::new(cfg.log_path.as_deref(), cfg.echo)
            .map_err(|e| format!("cannot open the daemon log: {e}"))?;
        let mut queue = JobQueue::new(cfg.queue_capacity, cfg.workers);
        let journal = match open_state(&cfg, &mut queue, &log) {
            Ok(journal) => journal,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&workdir);
                return Err(e);
            }
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(queue),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            port,
            log,
            cfg,
            workdir,
            journal,
        });
        shared.log.event(
            "daemon-start",
            None,
            &[
                ("port", port.to_string()),
                ("workers", shared.cfg.workers.to_string()),
                ("queue_capacity", shared.cfg.queue_capacity.to_string()),
            ],
        );
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(listener, &shared))
        };
        let scheduler = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || scheduler_loop(&shared))
        };
        Ok(Daemon {
            accept: Some(accept),
            scheduler: Some(scheduler),
            shared,
        })
    }

    /// The port the daemon actually listens on (resolves `port: 0`).
    pub fn port(&self) -> u16 {
        self.shared.port
    }

    /// Blocks until the daemon has drained and exited (a client must send
    /// a shutdown request — the daemon runs until told to stop).
    pub fn join(mut self) {
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        // The scheduler stopped the daemon on drain, which woke the accept
        // loop with a loopback connection.
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A dropped (not joined) daemon still stops its threads instead of
        // leaking them — tests that panic mid-run rely on this.
        self.shared.stop();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Shared {
    /// Stops the daemon once; later calls do nothing.  Wakes the idle
    /// scheduler through the condvar, and the accept loop, blocked in
    /// `accept`, with one loopback connection.
    fn stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Taking the lock orders the flag before the scheduler's next wait:
        // a scheduler that read the flag as unset still holds the lock until
        // it waits, so this notify cannot fall between its check and its
        // wait.  A poisoned lock unlocks all the same.
        drop(self.queue.lock());
        self.wake.notify_all();
        // If this connect fails for want of file descriptors, `accept`
        // fails for the same reason, and the loop sees the flag after its
        // error backoff.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
    }
}

/// How long the accept loop backs off after a failed `accept` (say, out of
/// file descriptors), so that a persistent error cannot spin it.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(25);

/// Opens the durable state (journal + checkpoints) per the config, and on
/// `--resume` replays the journal into `queue`.  Refuses the confusable
/// combinations outright: `--resume` without a state dir or journal has
/// nothing to recover, and a fresh (non-resume) start over an existing
/// journal would shadow recoverable work.
fn open_state(
    cfg: &ServeConfig,
    queue: &mut JobQueue,
    log: &ServeLog,
) -> Result<Option<Journal>, String> {
    let Some(state_dir) = &cfg.state_dir else {
        if cfg.resume {
            return Err("--resume requires --state-dir (the journal lives there)".into());
        }
        return Ok(None);
    };
    std::fs::create_dir_all(state_dir)
        .map_err(|e| format!("cannot create state dir {}: {e}", state_dir.display()))?;
    let journal_path = Journal::path_in(state_dir);
    let has_journal = std::fs::metadata(&journal_path)
        .map(|meta| meta.len() > 0)
        .unwrap_or(false);
    if cfg.resume && !has_journal {
        return Err(format!(
            "--resume found no journal at {}",
            journal_path.display()
        ));
    }
    if !cfg.resume && has_journal {
        return Err(format!(
            "state dir {} already holds a journal; pass --resume to recover its jobs, \
             or point --state-dir somewhere fresh",
            state_dir.display()
        ));
    }
    let journal = Journal::open(state_dir)?;
    if cfg.resume {
        let text = std::fs::read_to_string(journal.path())
            .map_err(|e| format!("cannot read journal {}: {e}", journal.path().display()))?;
        let recovered = journal::replay(&text)
            .map_err(|e| format!("journal {} does not replay: {e}", journal.path().display()))?;
        let torn = recovered.torn_lines;
        let restored = restore_jobs(queue, state_dir, log, recovered)?;
        log.event(
            "daemon-resume",
            None,
            &[
                ("jobs", restored.to_string()),
                ("torn_lines", torn.to_string()),
            ],
        );
        // The resume marker must be durable before the daemon touches any
        // recovered job: replay partitions history at the *last* marker.
        journal.append(&JournalEvent::Resumed { jobs: restored })?;
    }
    Ok(Some(journal))
}

/// Rebuilds the queue from a replayed journal.  Every journaled checkpoint
/// is re-read, digest-verified, and re-parsed before it is absorbed; a
/// checkpoint that fails any of those is logged and its shard re-issued —
/// a completed job whose checkpoints no longer verify is demoted and
/// re-run rather than trusted.
fn restore_jobs(
    queue: &mut JobQueue,
    state_dir: &Path,
    log: &ServeLog,
    recovered: RecoveredState,
) -> Result<u64, String> {
    let mut restored = 0u64;
    for job in recovered.jobs {
        let mut merge = RollingMerge::new(job.spec.shards);
        for (shard, (name, digest)) in &job.saved {
            let verified = std::fs::read(state_dir.join(name))
                .map_err(|e| e.to_string())
                .and_then(|bytes| {
                    let actual = content_digest(&bytes);
                    if actual != *digest {
                        return Err(format!(
                            "content digest mismatch (journal says {digest}, file has {actual})"
                        ));
                    }
                    String::from_utf8(bytes).map_err(|_| "checkpoint is not UTF-8".to_string())
                })
                .and_then(|text| SweepReport::from_tsv(&text))
                .and_then(|report| merge.absorb_shard(*shard, &report));
            if let Err(e) = verified {
                log.event(
                    "checkpoint-invalid",
                    Some(job.id),
                    &[
                        ("shard", shard.to_string()),
                        ("path", name.clone()),
                        ("reason", e),
                    ],
                );
            }
        }
        let state = match job.outcome {
            RecoveredOutcome::Failed(reason) => JobState::Failed(reason),
            RecoveredOutcome::Completed if merge.is_complete() => JobState::Done,
            // Incomplete, or "completed" with unverifiable checkpoints:
            // re-enqueue; the fleet re-runs only the missing shards.
            _ => JobState::Queued,
        };
        queue.restore(job.spec, state, merge, job.retries)?;
        restored += 1;
    }
    Ok(restored)
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // Checked after every accept: the connection that woke a stopped
        // daemon is its own loopback wake-up, not a client.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _addr)) => {
                let shared = Arc::clone(shared);
                // One detached thread per connection: the protocol is one
                // request line, one response line, close — nothing lingers.
                thread::spawn(move || serve_connection(stream, &shared));
            }
            Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Longest request line the daemon will buffer, in bytes (newline
/// included).  Anything longer is rejected with an `Error` envelope —
/// a garbage-sending client must never grow the reader unboundedly.
pub const MAX_REQUEST_LINE: u64 = 64 * 1024;

/// Reads one request line from a client, bounded by [`MAX_REQUEST_LINE`]
/// and the socket's read timeout.  Every failure mode — oversized line,
/// invalid UTF-8, a stalled or silent peer — comes back as an error the
/// connection handler turns into an `Error` response.
fn read_request_line(stream: TcpStream) -> Result<String, String> {
    let mut buf = Vec::new();
    BufReader::new(stream.take(MAX_REQUEST_LINE + 1))
        .read_until(b'\n', &mut buf)
        .map_err(|e| format!("cannot read the request line: {e}"))?;
    if buf.len() as u64 > MAX_REQUEST_LINE {
        return Err(format!(
            "request line exceeds {MAX_REQUEST_LINE} bytes; one request is one line"
        ));
    }
    String::from_utf8(buf).map_err(|_| "request line is not valid UTF-8".into())
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let response = match read_request_line(stream) {
        Err(e) => Response::Error(format!("bad request: {e}")),
        Ok(line) => match parse_request(line.trim_end()) {
            Err(e) => Response::Error(format!("bad request: {e}")),
            Ok(request) => handle_request(request, shared),
        },
    };
    let _ = writer.write_all(format!("{}\n", render_response(&response)).as_bytes());
    let _ = writer.flush();
}

fn handle_request(request: Request, shared: &Shared) -> Response {
    match request {
        Request::Ping => Response::Ok,
        Request::Submit(spec) => {
            let mut queue = shared.queue.lock().expect("job queue poisoned");
            match queue.submit(spec) {
                Ok(job) => {
                    // The admission must be durable before the client
                    // learns the id: an unjournaled job would silently
                    // vanish on resume, which is worse than a refusal.
                    if let Some(journal) = &shared.journal {
                        let spec = queue.job(job).expect("just admitted").spec.clone();
                        if let Err(e) = journal.append(&JournalEvent::Submitted { job, spec }) {
                            queue.fail_job(job, format!("not journaled: {e}"));
                            shared
                                .log
                                .event("journal-error", Some(job), &[("error", e.clone())]);
                            return Response::Error(format!(
                                "job was not admitted; the journal is unwritable: {e}"
                            ));
                        }
                    }
                    shared.log.event(
                        "job-queued",
                        Some(job),
                        &[("pending", queue.snapshot().len().to_string())],
                    );
                    shared.wake.notify_all();
                    Response::Submitted { job }
                }
                Err(e) => Response::Error(e),
            }
        }
        Request::Status { job } => {
            let queue = shared.queue.lock().expect("job queue poisoned");
            let draining = queue.draining();
            let jobs = match job {
                None => queue.snapshot(),
                Some(id) => match queue.job(id) {
                    Some(job) => vec![job.status()],
                    None => return Response::Error(format!("no job {id}")),
                },
            };
            Response::Status { draining, jobs }
        }
        Request::Shutdown => {
            let mut queue = shared.queue.lock().expect("job queue poisoned");
            queue.drain();
            shared.wake.notify_all();
            shared.log.event("drain", None, &[]);
            Response::Ok
        }
    }
}

/// Blocks until the scheduler has a job to run, and takes it.  `None` once
/// the daemon is stopped or has drained: an externally set stop flag (a
/// dropped daemon) wins over queued work; a clean shutdown drains the queue
/// first.
fn next_job(shared: &Shared) -> Option<u64> {
    let mut queue = shared.queue.lock().expect("job queue poisoned");
    loop {
        if shared.stop.load(Ordering::SeqCst) || queue.is_drained() {
            return None;
        }
        if let Some(job_id) = queue.take_next() {
            return Some(job_id);
        }
        queue = shared.wake.wait(queue).expect("job queue poisoned");
    }
}

fn scheduler_loop(shared: &Arc<Shared>) {
    while let Some(job_id) = next_job(shared) {
        let result = supervisor::run_job(
            &shared.cfg,
            &shared.workdir,
            shared.cfg.state_dir.as_deref(),
            &shared.queue,
            &shared.log,
            shared.journal.as_ref(),
            job_id,
        );
        // Journal the settlement before the queue flips the state:
        // a crash in between re-runs the job, never forgets it.
        let settled = match &result {
            Ok(()) => JournalEvent::JobCompleted { job: job_id },
            Err(reason) => JournalEvent::JobFailed {
                job: job_id,
                reason: reason.clone(),
            },
        };
        if let Some(journal) = &shared.journal {
            if let Err(e) = journal.append(&settled) {
                shared
                    .log
                    .event("journal-error", Some(job_id), &[("error", e)]);
            }
        }
        shared
            .queue
            .lock()
            .expect("job queue poisoned")
            .finish_active(result);
    }
    shared.log.event("daemon-exit", None, &[]);
    let _ = std::fs::remove_dir_all(&shared.workdir);
    shared.stop();
}
