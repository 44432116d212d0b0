//! The shard-fleet supervisor: drives one job's worth of `semint sweep`
//! child processes and keeps the job correct when they die.
//!
//! Each shard of a job runs as a separate `semint sweep --shard k/n --save`
//! process.  Supervision is the point of the subsystem: a worker that
//! *crashes* (nonzero exit, unreadable report) or *wedges* (no stderr
//! heartbeat within the configured timeout — workers run with `--progress`,
//! whose rolling line doubles as a liveness signal) is killed and its exact
//! seed slice re-issued, up to a retry budget.  Because shards are
//! deterministic slices and the merge is order-insensitive, a re-issued
//! shard reproduces precisely the results the dead worker would have
//! produced, so the final digests are byte-identical to a one-shot sweep no
//! matter how many workers died along the way.
//!
//! The fleet sleeps until something happens: each worker's stderr reader
//! reports the end of its stream, which comes when the worker exits, and
//! otherwise the fleet wakes at the earliest heartbeat deadline among its
//! running workers.  There is no fixed-interval poll.
//!
//! With a `--state-dir`, the fleet is also *crash-safe against the daemon
//! itself*: every validated shard report is checkpointed (written and
//! fsync'd) into the state dir **before** its `shard-saved` event is
//! journaled, and only then absorbed into the in-memory merge — the
//! write-ahead discipline that lets `--resume` trust a journaled
//! checkpoint.  Shards the journal already accounts for are skipped
//! outright: a resumed job re-runs only its unaccounted slices.
//!
//! Workers deliberately run *without* `--trace`/`--time`: stage wall-clock
//! is nondeterministic and would pollute the saved TSV; the merged report
//! carries only digest-grade facts.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use semint_core::stats::SweepReport;

use super::journal::{checkpoint_name, content_digest, Journal, JournalEvent};
use super::queue::{FaultKind, JobQueue, JobSpec};
use super::ServeConfig;
use crate::cases::AnyCase;
use crate::trace::ServeLog;

/// One unit of fleet work: shard `index` of the job, on its
/// `attempt`-th try (0 = first issue, >0 = re-issue after a death).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardTask {
    index: u64,
    attempt: u64,
}

/// A live worker process and the supervision state attached to it.
struct Worker {
    task: ShardTask,
    child: Child,
    /// Last time the worker's stderr produced bytes (the `--progress` line).
    heartbeat: Arc<Mutex<Instant>>,
    /// Rolling tail of the worker's stderr, for failure diagnostics.
    tail: Arc<Mutex<String>>,
    out_path: PathBuf,
    reader: Option<JoinHandle<()>>,
    /// The worker's stderr reached EOF: it has exited, or is exiting, so a
    /// blocking `wait` reaps it.
    stderr_closed: bool,
}

impl Worker {
    /// Kills the child (best effort), reaps it, and joins the stderr reader.
    fn kill_and_reap(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&self.out_path);
    }

    /// The stderr tail, flattened for a one-line log message.
    fn stderr_tail(&self) -> String {
        let tail = self.tail.lock().expect("stderr tail poisoned").clone();
        tail.replace(['\r', '\n'], " ").trim().to_string()
    }

    /// The worker's exit status, if it has exited.  A worker whose stderr
    /// closed is waited for; any other is only polled, since it may be
    /// wedged.
    fn exit_status(&mut self) -> std::io::Result<Option<ExitStatus>> {
        if self.stderr_closed {
            self.child.wait().map(Some)
        } else {
            self.child.try_wait()
        }
    }
}

/// Why a worker's attempt did not produce a mergeable report.
enum Death {
    /// Nonzero exit; carries the stderr tail for diagnostics.
    Crashed(ExitStatus, String),
    Wedged,
    BadReport(String),
}

impl Death {
    fn describe(&self, timeout_ms: u64) -> String {
        match self {
            Death::Crashed(status, tail) => {
                let how = match status.code() {
                    Some(code) => format!("crashed (exit code {code})"),
                    None => "crashed (killed by signal)".into(),
                };
                if tail.is_empty() {
                    how
                } else {
                    format!("{how}; stderr tail: {tail}")
                }
            }
            Death::Wedged => format!("wedged (no heartbeat for {timeout_ms} ms)"),
            Death::BadReport(e) => format!("produced an unreadable report ({e})"),
        }
    }
}

/// Everything one job's fleet needs: immutable context threaded through
/// spawn/settle/re-issue instead of a nine-argument parameter list.
struct Fleet<'a> {
    cfg: &'a ServeConfig,
    workdir: &'a Path,
    state_dir: Option<&'a Path>,
    queue: &'a Mutex<JobQueue>,
    log: &'a ServeLog,
    journal: Option<&'a Journal>,
    job_id: u64,
    spec: JobSpec,
    timeout_ms: u64,
}

/// Runs one job's shard fleet to completion.  Returns `Ok(())` once every
/// shard has been merged (possibly after re-issues), or the reason the job
/// had to be abandoned.  Shards the job's merge already holds — replayed
/// checkpoints from `--resume` — are never re-issued.
pub fn run_job(
    cfg: &ServeConfig,
    workdir: &Path,
    state_dir: Option<&Path>,
    queue: &Mutex<JobQueue>,
    log: &ServeLog,
    journal: Option<&Journal>,
    job_id: u64,
) -> Result<(), String> {
    let (spec, already_done) = {
        let queue = queue.lock().expect("job queue poisoned");
        let job = queue
            .job(job_id)
            .ok_or_else(|| format!("job {job_id} vanished from the queue"))?;
        (job.spec.clone(), job.merge.done_indices().clone())
    };
    let fleet = Fleet {
        cfg,
        workdir,
        state_dir,
        queue,
        log,
        journal,
        job_id,
        spec,
        timeout_ms: cfg.heartbeat_timeout.as_millis() as u64,
    };
    fleet.run(already_done)
}

impl Fleet<'_> {
    /// Journals one event, best effort: losing a journal entry costs a
    /// redundant (idempotent) shard re-run on resume, which is the right
    /// trade against failing a healthy job over a transient disk error.
    fn journal_event(&self, event: &JournalEvent) {
        if let Some(journal) = self.journal {
            if let Err(e) = journal.append(event) {
                self.log
                    .event("journal-error", Some(self.job_id), &[("error", e)]);
            }
        }
    }

    fn run(&self, already_done: std::collections::BTreeSet<u64>) -> Result<(), String> {
        self.log.event(
            "job-start",
            Some(self.job_id),
            &[
                ("seeds", self.spec.range().spec()),
                ("profile", self.spec.profile.clone()),
                ("case", self.spec.case.clone()),
                ("shards", self.spec.shards.to_string()),
            ],
        );
        if !already_done.is_empty() {
            self.log.event(
                "shards-skipped",
                Some(self.job_id),
                &[(
                    "recovered",
                    already_done
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                )],
            );
        }
        let mut pending: VecDeque<ShardTask> = (0..self.spec.shards)
            .filter(|index| !already_done.contains(index))
            .map(|index| ShardTask { index, attempt: 0 })
            .collect();
        let mut running: Vec<Worker> = Vec::new();
        let mut abandon: Option<String> = None;
        // Each worker's stderr reader sends its task here on EOF.
        let (closed_tx, closed_rx) = mpsc::channel();

        'fleet: while abandon.is_none() && (!pending.is_empty() || !running.is_empty()) {
            // Fill free worker slots, re-issues first (they sit at the front).
            while running.len() < self.cfg.workers.max(1) {
                let Some(task) = pending.pop_front() else {
                    break;
                };
                match self.spawn_worker(task, closed_tx.clone()) {
                    Ok(worker) => running.push(worker),
                    Err(e) => {
                        abandon = Some(e);
                        break 'fleet;
                    }
                }
            }
            // Sleep until a worker exits or a heartbeat deadline passes; then
            // reap exits and detect wedges.
            self.wait_for_event(&closed_rx, &mut running);
            let mut index = 0;
            while index < running.len() {
                let exited = match running[index].exit_status() {
                    Ok(status) => status,
                    Err(e) => {
                        abandon = Some(format!("cannot poll a worker: {e}"));
                        break 'fleet;
                    }
                };
                if let Some(status) = exited {
                    let worker = running.swap_remove(index);
                    match self.settle_exit(worker, status) {
                        Ok(()) => {}
                        Err((task, death)) => {
                            if let Some(reason) = self.reissue_or_abandon(task, death, &mut pending)
                            {
                                abandon = Some(reason);
                                break 'fleet;
                            }
                        }
                    }
                    continue;
                }
                let stale = {
                    let beat = running[index].heartbeat.lock().expect("heartbeat poisoned");
                    beat.elapsed() > self.cfg.heartbeat_timeout
                };
                if stale {
                    let worker = running.swap_remove(index);
                    let task = worker.task;
                    worker.kill_and_reap();
                    if let Some(reason) = self.reissue_or_abandon(task, Death::Wedged, &mut pending)
                    {
                        abandon = Some(reason);
                        break 'fleet;
                    }
                    continue;
                }
                index += 1;
            }
        }
        // Whatever is still running is now pointless (job failed) or already
        // done (loop exited cleanly with an empty fleet).
        for worker in running {
            worker.kill_and_reap();
        }
        if let Some(reason) = abandon {
            self.log.event(
                "job-failed",
                Some(self.job_id),
                &[("reason", reason.clone())],
            );
            return Err(reason);
        }
        // Completeness check: the merged report must account for every seed
        // of every case before the job may call itself done.
        let case_count = if self.spec.case == "all" {
            AnyCase::all(false).len() as u64
        } else {
            1
        };
        let expected = self.spec.range().count() * case_count;
        let queue = self.queue.lock().expect("job queue poisoned");
        let job = queue
            .job(self.job_id)
            .ok_or_else(|| format!("job {} vanished from the queue", self.job_id))?;
        if !job.merge.is_complete() {
            return Err(format!(
                "fleet drained with only {}/{} shards merged",
                job.merge.shards_done(),
                job.merge.shards_total()
            ));
        }
        let merged = job.merge.report().scenarios();
        if merged != expected {
            return Err(format!(
                "merged report holds {merged} scenarios but the job spans {expected}"
            ));
        }
        self.log.event(
            "job-done",
            Some(self.job_id),
            &[
                ("scenarios", merged.to_string()),
                ("retries", job.retries.to_string()),
                ("digests", job.merge.digests().join(" ")),
            ],
        );
        Ok(())
    }

    /// Builds the exact `semint sweep` invocation for one shard attempt.
    /// The worker re-derives its slice from `--seeds`/`--shard`, so a
    /// re-issued attempt is the *same* deterministic work, not an
    /// approximation.
    fn worker_command(&self, task: ShardTask) -> (Command, PathBuf) {
        let out_path = self.workdir.join(format!(
            "job{}-shard{}-attempt{}.tsv",
            self.job_id, task.index, task.attempt
        ));
        let mut cmd = Command::new(&self.cfg.worker_binary);
        cmd.arg("sweep")
            .arg("--seeds")
            .arg(self.spec.range().spec())
            .arg("--shard")
            .arg(format!("{}/{}", task.index, self.spec.shards))
            .arg("--profile")
            .arg(&self.spec.profile)
            .arg("--jobs")
            .arg(self.spec.jobs.to_string())
            .arg("--batch")
            .arg(self.spec.batch.to_string())
            .arg("--save")
            .arg(&out_path)
            // The progress line is the heartbeat.  NOT --trace: tracing
            // implies --time and timings are nondeterministic.
            .arg("--progress");
        if !self.spec.model_check {
            cmd.arg("--no-model-check");
        }
        if self.spec.case != "all" {
            cmd.arg("--case").arg(&self.spec.case);
        }
        if let Some(fault) = self.spec.fault {
            // Only the first attempt is sabotaged: the re-issue must
            // succeed, which is exactly what the recovery tests assert.
            if task.attempt == 0 && fault.shard == task.index {
                let after = fault.after.to_string();
                match fault.kind {
                    FaultKind::Crash => {
                        cmd.arg("--die-after").arg(after);
                    }
                    FaultKind::Wedge => {
                        cmd.arg("--wedge-after").arg(after);
                    }
                    FaultKind::CorruptReport => {
                        cmd.arg("--corrupt-save").arg("garbage");
                    }
                    FaultKind::TruncateReport => {
                        cmd.arg("--corrupt-save").arg("truncate");
                    }
                }
            }
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        (cmd, out_path)
    }

    /// Blocks until a running worker's stderr closes or the earliest
    /// heartbeat deadline passes, and marks every worker whose stderr has
    /// closed.  Returns at once when no worker runs: the caller then has
    /// slots to fill or nothing left to do.
    fn wait_for_event(&self, closed: &Receiver<ShardTask>, running: &mut [Worker]) {
        let Some(deadline) = running
            .iter()
            .map(|worker| *worker.heartbeat.lock().expect("heartbeat poisoned"))
            .min()
            .map(|beat| beat + self.cfg.heartbeat_timeout)
        else {
            return;
        };
        let first = closed.recv_timeout(deadline.saturating_duration_since(Instant::now()));
        // A task no longer running belongs to a worker already reaped.
        for task in first.into_iter().chain(closed.try_iter()) {
            if let Some(worker) = running.iter_mut().find(|worker| worker.task == task) {
                worker.stderr_closed = true;
            }
        }
    }

    fn spawn_worker(&self, task: ShardTask, closed: Sender<ShardTask>) -> Result<Worker, String> {
        let (mut cmd, out_path) = self.worker_command(task);
        let mut child = cmd.spawn().map_err(|e| {
            format!(
                "cannot spawn worker {}: {e}",
                self.cfg.worker_binary.display()
            )
        })?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let heartbeat = Arc::new(Mutex::new(Instant::now()));
        let tail = Arc::new(Mutex::new(String::new()));
        let beat = Arc::clone(&heartbeat);
        let tail_sink = Arc::clone(&tail);
        let reader = thread::spawn(move || {
            let mut stderr = stderr;
            let mut buf = [0u8; 512];
            loop {
                match stderr.read(&mut buf) {
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        *beat.lock().expect("heartbeat poisoned") = Instant::now();
                        let mut tail = tail_sink.lock().expect("stderr tail poisoned");
                        tail.push_str(&String::from_utf8_lossy(&buf[..n]));
                        if tail.chars().count() > 500 {
                            let keep: String = tail
                                .chars()
                                .rev()
                                .take(500)
                                .collect::<Vec<_>>()
                                .iter()
                                .rev()
                                .collect();
                            *tail = keep;
                        }
                    }
                }
            }
            // The fleet may have finished and dropped the receiver.
            let _ = closed.send(task);
        });
        self.log.event(
            "shard-start",
            Some(self.job_id),
            &[
                ("shard", format!("{}/{}", task.index, self.spec.shards)),
                ("attempt", task.attempt.to_string()),
            ],
        );
        self.journal_event(&JournalEvent::ShardStarted {
            job: self.job_id,
            shard: task.index,
            attempt: task.attempt,
        });
        Ok(Worker {
            task,
            child,
            heartbeat,
            tail,
            out_path,
            reader: Some(reader),
            stderr_closed: false,
        })
    }

    /// Handles a worker that exited on its own: validate its report,
    /// checkpoint it (write-ahead: synced to the state dir and journaled
    /// *before* the in-memory merge), or classify the death for re-issue.
    fn settle_exit(
        &self,
        mut worker: Worker,
        status: ExitStatus,
    ) -> Result<(), (ShardTask, Death)> {
        if let Some(reader) = worker.reader.take() {
            let _ = reader.join();
        }
        let task = worker.task;
        // Exit 0 = clean, 1 = sweep completed but found failures — both
        // write the report, and failures must flow into the merge.
        // Anything else (2 = usage, 42 = injected fault, signals) is a
        // crash.
        if !matches!(status.code(), Some(0 | 1)) {
            let tail = worker.stderr_tail();
            let _ = std::fs::remove_file(&worker.out_path);
            return Err((task, Death::Crashed(status, tail)));
        }
        let text = match std::fs::read_to_string(&worker.out_path) {
            Ok(text) => text,
            Err(e) => {
                let _ = std::fs::remove_file(&worker.out_path);
                return Err((task, Death::BadReport(e.to_string())));
            }
        };
        let report = SweepReport::from_tsv(&text);
        let _ = std::fs::remove_file(&worker.out_path);
        let report = match report {
            Ok(report) => report,
            Err(e) => return Err((task, Death::BadReport(e))),
        };
        // The report parsed: checkpoint it durably before the merge sees
        // it, so a journaled `shard-saved` always points at real bytes.
        if let Some(state_dir) = self.state_dir {
            let name = checkpoint_name(self.job_id, task.index);
            if let Err(e) = write_synced(&state_dir.join(&name), text.as_bytes()) {
                return Err((task, Death::BadReport(format!("checkpoint failed: {e}"))));
            }
            self.journal_event(&JournalEvent::ShardSaved {
                job: self.job_id,
                shard: task.index,
                attempt: task.attempt,
                path: name,
                digest: content_digest(text.as_bytes()),
            });
        }
        let mut queue = self.queue.lock().expect("job queue poisoned");
        let job = queue.job_mut(self.job_id).expect("running job exists");
        job.merge
            .absorb_shard(task.index, &report)
            .expect("the fleet never issues an already-merged shard");
        self.log.event(
            "shard-done",
            Some(self.job_id),
            &[
                ("shard", format!("{}/{}", task.index, self.spec.shards)),
                ("attempt", task.attempt.to_string()),
                (
                    "merged",
                    format!("{}/{}", job.merge.shards_done(), job.merge.shards_total()),
                ),
            ],
        );
        Ok(())
    }

    /// Re-issues a dead worker's slice, or — once the retry budget is
    /// spent — returns the reason the job must be abandoned.
    fn reissue_or_abandon(
        &self,
        task: ShardTask,
        death: Death,
        pending: &mut VecDeque<ShardTask>,
    ) -> Option<String> {
        let what = format!(
            "shard {}/{} attempt {} {}",
            task.index,
            self.spec.shards,
            task.attempt,
            death.describe(self.timeout_ms)
        );
        if task.attempt >= self.cfg.max_retries {
            return Some(format!(
                "{what}; retry budget ({}) exhausted",
                self.cfg.max_retries
            ));
        }
        {
            let mut queue = self.queue.lock().expect("job queue poisoned");
            if let Some(job) = queue.job_mut(self.job_id) {
                job.retries += 1;
            }
        }
        self.log.event(
            "shard-retry",
            Some(self.job_id),
            &[
                ("shard", format!("{}/{}", task.index, self.spec.shards)),
                ("attempt", task.attempt.to_string()),
                ("reason", what.clone()),
            ],
        );
        // Journaled only on an actual re-issue: abandonment is recorded as
        // the job's failure, so replayed retry counts match live ones.
        self.journal_event(&JournalEvent::ShardDied {
            job: self.job_id,
            shard: task.index,
            attempt: task.attempt,
            reason: what,
        });
        // Front of the queue: the missing slice is the job's critical path.
        pending.push_front(ShardTask {
            index: task.index,
            attempt: task.attempt + 1,
        });
        None
    }
}

/// Writes `bytes` to `path` and fsyncs before returning: checkpoint files
/// must be durable before the journal references them.
fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}
