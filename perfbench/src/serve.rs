//! The serve client: daemons spawned in-process on port 0 with a fresh
//! state dir, jobs submitted and polled over `serve::call`, and every
//! daemon stopped with `Shutdown` + `join` before the run ends.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use semint_harness::serve::{call, Daemon, JobSpec, JobStatus, Request, Response, ServeConfig};

/// Worker processes per daemon; each runs its shard with `--jobs 1`, so
/// the fleet uses the two cores the benchmark budgets for.
pub const WORKERS: usize = 2;
/// How often a job's status is polled.  Short and fixed, so the poll does
/// not quantise a job of a few hundred milliseconds.
const POLL: Duration = Duration::from_millis(2);
/// Longest a daemon may take to answer its first ping, or a job to finish.
const PATIENCE: Duration = Duration::from_secs(60);

/// A running daemon, its address and its state dir.
pub struct Running {
    daemon: Daemon,
    addr: String,
    state_dir: PathBuf,
    /// Time spent in `Daemon::spawn`.
    pub spawn: Duration,
    /// Time from `Daemon::spawn` until the first `Ping` was answered.
    pub setup: Duration,
}

/// Spawns a daemon over a fresh `state_dir` and waits for its first ping.
pub fn start(worker_binary: &Path, state_dir: PathBuf) -> Result<Running, String> {
    if state_dir.exists() {
        return Err(format!("state dir {} is not fresh", state_dir.display()));
    }
    let cfg = ServeConfig {
        port: 0,
        workers: WORKERS,
        state_dir: Some(state_dir.clone()),
        ..ServeConfig::new(worker_binary.to_path_buf())
    };
    let started = Instant::now();
    let daemon = Daemon::spawn(cfg)?;
    let spawn = started.elapsed();
    let addr = format!("127.0.0.1:{}", daemon.port());
    let running = Running {
        daemon,
        addr,
        state_dir,
        spawn,
        setup: Duration::ZERO,
    };
    loop {
        match call(&running.addr, &Request::Ping) {
            Ok(Response::Ok) => break,
            Ok(other) => {
                running.stop()?;
                return Err(format!("ping answered with {other:?}"));
            }
            Err(e) if started.elapsed() > PATIENCE => {
                running.stop()?;
                return Err(format!("the daemon never answered a ping: {e}"));
            }
            Err(_) => thread::sleep(POLL),
        }
    }
    Ok(Running {
        setup: started.elapsed(),
        ..running
    })
}

/// What one job looked like from the client's side.
pub struct JobTrace {
    /// Submit sent → `done` observed.
    pub wall: Duration,
    pub submit_rtt: Duration,
    pub status_rtts: Vec<Duration>,
    /// When each shard count was first observed, from the submit.
    pub progress: Vec<(u64, Duration)>,
    /// The final status, with the merged report.
    pub status: JobStatus,
}

impl Running {
    pub fn state_dir(&self) -> &Path {
        &self.state_dir
    }

    /// Submits `spec` and polls its status until the job is done.
    pub fn run_job(&self, spec: &JobSpec) -> Result<JobTrace, String> {
        let started = Instant::now();
        let job = match call(&self.addr, &Request::Submit(spec.clone()))? {
            Response::Submitted { job } => job,
            other => return Err(format!("submit answered with {other:?}")),
        };
        let submit_rtt = started.elapsed();
        let mut status_rtts = Vec::new();
        let mut progress = Vec::new();
        loop {
            let asked = Instant::now();
            let response = call(&self.addr, &Request::Status { job: Some(job) })?;
            status_rtts.push(asked.elapsed());
            let status = match response {
                Response::Status { mut jobs, .. } if jobs.len() == 1 => jobs.remove(0),
                other => return Err(format!("status answered with {other:?}")),
            };
            if progress.last().map(|&(done, _)| done) != Some(status.shards_done) {
                progress.push((status.shards_done, started.elapsed()));
            }
            match status.state.as_str() {
                "done" => {
                    return Ok(JobTrace {
                        wall: started.elapsed(),
                        submit_rtt,
                        status_rtts,
                        progress,
                        status,
                    })
                }
                "failed" => {
                    return Err(format!(
                        "job {job} failed: {}",
                        status.error.unwrap_or_default()
                    ))
                }
                _ if started.elapsed() > PATIENCE => {
                    return Err(format!("job {job} did not finish within {PATIENCE:?}"))
                }
                _ => thread::sleep(POLL),
            }
        }
    }

    /// Drains the daemon, joins its threads and removes its state dir.
    pub fn stop(self) -> Result<(), String> {
        let shutdown = call(&self.addr, &Request::Shutdown);
        self.daemon.join();
        let removed = std::fs::remove_dir_all(&self.state_dir)
            .map_err(|e| format!("cannot remove {}: {e}", self.state_dir.display()));
        match shutdown {
            Ok(Response::Ok) => removed,
            Ok(other) => Err(format!("shutdown answered with {other:?}")),
            Err(e) => Err(e),
        }
    }
}

/// Bytes held in `dir` (not recursive: the state dir is flat).
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("cannot stat an entry of {}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// Peak resident memory of every child process that has ended and been
/// waited for (the shard workers), in KiB.
pub fn children_peak_rss_kib() -> u64 {
    // The `struct rusage` of Linux: two `timeval`s, then fourteen `long`s,
    // the first of which is `ru_maxrss`.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C library's
    // `struct rusage` on 64-bit Linux, and `getrusage` writes only into it.
    let status = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if status == 0 {
        usage.maxrss.max(0) as u64
    } else {
        0
    }
}
