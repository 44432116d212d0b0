//! `semint chaos` — a deterministic fault-injection drill against a live
//! daemon.
//!
//! Each round derives a [`FaultPlan`] and a kill point from the drill seed
//! (splitmix64 over `seed ^ round`; no clocks, no OS randomness), spawns a
//! real `semint serve --state-dir` process, submits a sweep job carrying
//! the fault, SIGKILLs the daemon once the journal shows the scheduled
//! number of shard checkpoints, restarts it with `--resume`, and waits for
//! the job to finish.  The drill then asserts the subsystem's whole point:
//!
//! 1. the resumed job's per-case digests are byte-identical to an
//!    uninterrupted in-process [`sweep_all`] over the same seeds,
//! 2. its merged [`semint_core::VmCounters`] (and scenario counts) match
//!    that baseline exactly, and
//! 3. no shard that was checkpointed before the kill was started again
//!    after the resume — recovery re-issues only unaccounted slices.
//!
//! Every round gets its own state dir under [`ChaosConfig::state_root`];
//! the journal, `serve.log` and the scratch files of killed daemons (in
//! `tmp/`) are left behind for post-mortems (CI uploads them as
//! artifacts).

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use semint_core::case::GenProfile;
use semint_core::stats::SweepReport;

use super::journal::{self, Journal, JournalEvent, RecoveredOutcome};
use super::protocol::{call, JobStatus, Request, Response};
use super::queue::{FaultKind, FaultPlan, JobSpec};
use crate::cases::AnyCase;
use crate::engine::{sweep_all, SweepConfig};
use crate::source::SeedRange;

/// Everything one chaos run needs: which binary to torture, the sweep
/// shape every round submits, and where per-round state dirs live.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The `semint` binary to run as the daemon (and, transitively, as its
    /// shard workers) — normally the drill's own executable.
    pub binary: PathBuf,
    /// Drill seed: the fault schedule is a pure function of this and the
    /// round index.
    pub seed: u64,
    /// How many kill-and-resume rounds to run.
    pub rounds: u64,
    /// Seed range `[start, end)` each round sweeps.
    pub seeds: (u64, u64),
    /// Preset profile name each round sweeps with.
    pub profile: String,
    /// Case study name, or `all`.
    pub case: String,
    /// Shards per job (the fault schedule picks targets modulo this).
    pub shards: u64,
    /// `--jobs` threads inside each worker (and the in-process baseline).
    pub jobs: usize,
    /// Daemon worker slots.
    pub workers: usize,
    /// `--batch` size inside each worker.
    pub batch: usize,
    /// Heartbeat timeout handed to the daemon: how fast wedged workers are
    /// detected.  Keep it well above a shard's honest runtime.
    pub worker_timeout_ms: u64,
    /// Per-round state dirs (`round0`, `round1`, …) are created in here.
    pub state_root: PathBuf,
    /// Print per-round progress to stdout (the CLI mode; tests stay quiet).
    pub echo: bool,
}

/// What one kill-and-resume round observed.  The drill's verdict is
/// [`DrillOutcome::invariant_holds`]; the rest is post-mortem context.
#[derive(Debug, Clone)]
pub struct DrillOutcome {
    /// Round index (0-based).
    pub round: u64,
    /// The fault this round injected.
    pub plan: FaultPlan,
    /// How many shard checkpoints the round waited for before the kill.
    pub kill_after_saves: u64,
    /// Shards the journal showed checkpointed when the daemon was killed.
    pub saved_before_kill: BTreeSet<u64>,
    /// Checkpointed shards the resumed daemon started *again* — must be
    /// empty, or recovery re-ran work it already had.
    pub rerun_after_resume: BTreeSet<u64>,
    /// Shard re-issues across both daemon lives (the injected fault
    /// guarantees at least one unless the kill pre-empted it).
    pub retries: u64,
    /// Resumed per-case digests == uninterrupted baseline digests.
    pub digests_match: bool,
    /// Resumed per-case `VmCounters` and scenario counts == baseline.
    pub counters_match: bool,
    /// This round's state dir (journal + checkpoints + serve.log).
    pub state_dir: PathBuf,
}

impl DrillOutcome {
    /// The crash-safety invariant: digests and counters byte-identical to
    /// an uninterrupted sweep, with no checkpointed shard re-run.
    pub fn invariant_holds(&self) -> bool {
        self.digests_match && self.counters_match && self.rerun_after_resume.is_empty()
    }
}

/// splitmix64: the standard 64-bit mixer — tiny, seedable, and plenty for
/// deriving fault schedules.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives round `round`'s fault plan and kill point from the drill seed.
/// A pure function: the same `--seed` replays the same schedule.
fn schedule(cfg: &ChaosConfig, round: u64) -> (FaultPlan, u64) {
    let mut state =
        cfg.seed.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ round.wrapping_add(1);
    let kind = FaultKind::ALL[(splitmix64(&mut state) % FaultKind::ALL.len() as u64) as usize];
    let shard = splitmix64(&mut state) % cfg.shards;
    let after = 1 + splitmix64(&mut state) % 5;
    // 0 kills the daemon before any checkpoint lands; shards-1 kills it
    // with only the faulted straggler outstanding.
    let kill_after_saves = splitmix64(&mut state) % cfg.shards;
    (FaultPlan { shard, after, kind }, kill_after_saves)
}

/// A spawned `semint serve` process.  Dropping it *is* the chaos: the
/// child is SIGKILLed, never shut down cleanly.
struct DaemonProc {
    child: Child,
    port: u16,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl DaemonProc {
    fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(handle) = self.drain.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns a daemon over `state_dir` and blocks until it prints its
/// listening banner (so the port is known and the socket is live).  The
/// daemon's temporary directory is `state_dir/tmp`, so the scratch files a
/// SIGKILL leaves behind stay with the round, and every worker's `--save`
/// path names the state dir.
fn spawn_daemon(cfg: &ChaosConfig, state_dir: &Path, resume: bool) -> Result<DaemonProc, String> {
    let tmp = state_dir.join("tmp");
    let tmp = std::fs::create_dir_all(&tmp)
        .and_then(|()| std::fs::canonicalize(&tmp))
        .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let mut command = Command::new(&cfg.binary);
    command
        .env("TMPDIR", &tmp)
        .arg("serve")
        .args(["--port", "0"])
        .args(["--workers", &cfg.workers.to_string()])
        .args(["--worker-timeout-ms", &cfg.worker_timeout_ms.to_string()])
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--log")
        .arg(state_dir.join("serve.log"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if resume {
        command.arg("--resume");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot spawn {} serve: {e}", cfg.binary.display()))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let port = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                let _ = child.kill();
                let status = child.wait().map(|s| s.to_string()).unwrap_or_default();
                return Err(format!(
                    "daemon exited ({status}) before printing its listening address \
                     (see {}/serve.log)",
                    state_dir.display()
                ));
            }
            Ok(_) => {
                if let Some(port) = parse_listen_port(&line) {
                    break port;
                }
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot read the daemon's stdout: {e}"));
            }
        }
    };
    // Keep draining stdout so the daemon's log echo never fills the pipe
    // and wedges the daemon itself — this drill injects faults on purpose,
    // not by accident.
    let drain = std::thread::spawn(move || {
        let mut sink = [0u8; 4096];
        let mut stream = reader.into_inner();
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });
    Ok(DaemonProc {
        child,
        port,
        drain: Some(drain),
    })
}

/// Extracts the port from the serve banner (`… listening on 127.0.0.1:N …`).
fn parse_listen_port(line: &str) -> Option<u16> {
    let rest = &line[line.find("127.0.0.1:")? + "127.0.0.1:".len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Polls the journal until job 0 has `want` checkpointed shards (or has
/// settled first — a kill point past the job's end degenerates to "kill
/// after completion", which resume must also survive).
fn wait_for_saves(
    state_dir: &Path,
    want: u64,
    deadline: Duration,
) -> Result<BTreeSet<u64>, String> {
    let path = Journal::path_in(state_dir);
    let start = Instant::now();
    loop {
        // A concurrent append can leave a torn final line mid-read; replay
        // tolerates exactly that.
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        if let Ok(state) = journal::replay(&text) {
            if let Some(job) = state.jobs.first() {
                let saved: BTreeSet<u64> = job.saved.keys().copied().collect();
                let settled = job.outcome != RecoveredOutcome::Incomplete;
                if saved.len() as u64 >= want || settled {
                    return Ok(saved);
                }
            }
        }
        if start.elapsed() > deadline {
            return Err(format!(
                "journal {} never showed {want} checkpointed shards",
                path.display()
            ));
        }
        // Well under one shard's run time, so the kill lands mid-job.
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Polls `semint status` until the job settles; `Ok` only on `done`.
fn wait_for_job(addr: &str, job: u64, deadline: Duration) -> Result<JobStatus, String> {
    let start = Instant::now();
    loop {
        match call(addr, &Request::Status { job: Some(job) })? {
            Response::Status { jobs, .. } => {
                if let Some(status) = jobs.into_iter().next() {
                    match status.state.as_str() {
                        "done" => return Ok(status),
                        "failed" => {
                            return Err(format!(
                                "job {job} failed: {}",
                                status.error.unwrap_or_else(|| "(no reason)".into())
                            ))
                        }
                        _ => {}
                    }
                }
            }
            Response::Error(e) => return Err(format!("status for job {job} failed: {e}")),
            other => return Err(format!("unexpected status response: {other:?}")),
        }
        if start.elapsed() > deadline {
            return Err(format!("job {job} did not settle within {deadline:?}"));
        }
        std::thread::sleep(Duration::from_millis(150));
    }
}

/// Partitions the journal at its **last** `daemon-resumed` marker and
/// returns (shards checkpointed before it, checkpointed shards started
/// again after it).  The second set non-empty means recovery re-ran work
/// it had already verified.
fn analyze_journal(text: &str) -> Result<(BTreeSet<u64>, BTreeSet<u64>), String> {
    let events: Vec<JournalEvent> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| journal::parse_event(line).ok())
        .collect();
    let resume_at = events
        .iter()
        .rposition(|event| matches!(event, JournalEvent::Resumed { .. }))
        .ok_or("the journal holds no daemon-resumed marker; did --resume run?")?;
    let saved_before: BTreeSet<u64> = events[..resume_at]
        .iter()
        .filter_map(|event| match event {
            JournalEvent::ShardSaved { shard, .. } => Some(*shard),
            _ => None,
        })
        .collect();
    let started_after: BTreeSet<u64> = events[resume_at..]
        .iter()
        .filter_map(|event| match event {
            JournalEvent::ShardStarted { shard, .. } => Some(*shard),
            _ => None,
        })
        .collect();
    let rerun = saved_before.intersection(&started_after).copied().collect();
    Ok((saved_before, rerun))
}

/// The uninterrupted truth every round is compared against: an in-process
/// one-shot sweep over the drill's seed range (run-only, like the jobs the
/// drill submits).
fn baseline_report(cfg: &ChaosConfig) -> Result<SweepReport, String> {
    let cases =
        match cfg.case.as_str() {
            "all" => AnyCase::all(false),
            name => vec![AnyCase::by_name(name, false)
                .ok_or_else(|| format!("unknown case study {name:?}"))?],
        };
    let profile = GenProfile::by_name(&cfg.profile)
        .ok_or_else(|| format!("unknown profile {:?} (chaos needs a preset)", cfg.profile))?;
    let range = SeedRange::new(cfg.seeds.0, cfg.seeds.1)?;
    let sweep_cfg = SweepConfig {
        jobs: cfg.jobs,
        profile,
        model_check: false,
        batch: cfg.batch,
        ..SweepConfig::default()
    };
    Ok(sweep_all(&cases, &range, &sweep_cfg))
}

/// Compares the resumed job's merged report against the baseline:
/// per-case digests, scenario counts, and full `VmCounters`.
fn compare(baseline: &SweepReport, status: &JobStatus) -> Result<(bool, bool), String> {
    let expected: Vec<String> = baseline.cases.iter().map(|c| c.digest()).collect();
    let digests_match = status.digests == expected;
    let merged = SweepReport::from_tsv(&status.report_tsv)
        .map_err(|e| format!("the resumed job's report does not parse: {e}"))?;
    let counters_match = merged.cases.len() == baseline.cases.len()
        && merged.cases.iter().zip(&baseline.cases).all(|(got, want)| {
            got.case == want.case
                && got.scenarios == want.scenarios
                && got.counters == want.counters
        });
    Ok((digests_match, counters_match))
}

/// One kill-and-resume round: fresh state dir, fresh daemon, one faulted
/// job, a SIGKILL at the scheduled checkpoint count, a `--resume` restart,
/// and the invariance checks.
fn run_round(
    cfg: &ChaosConfig,
    baseline: &SweepReport,
    round: u64,
) -> Result<DrillOutcome, String> {
    let (plan, kill_after_saves) = schedule(cfg, round);
    let state_dir = cfg.state_root.join(format!("round{round}"));
    std::fs::create_dir_all(&state_dir)
        .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
    if cfg.echo {
        crate::outln!(
            "chaos round {round}: fault {} on shard {} after {} scenarios, \
             kill after {kill_after_saves} checkpoints",
            plan.kind.label(),
            plan.shard,
            plan.after
        );
    }

    let spec = JobSpec {
        seeds: cfg.seeds,
        profile: cfg.profile.clone(),
        case: cfg.case.clone(),
        shards: cfg.shards,
        jobs: cfg.jobs,
        batch: cfg.batch,
        model_check: false,
        fault: Some(plan),
    };
    let daemon = spawn_daemon(cfg, &state_dir, false)?;
    let job = match call(&daemon.addr(), &Request::Submit(spec))? {
        Response::Submitted { job } => job,
        Response::Error(e) => return Err(format!("submit was rejected: {e}")),
        other => return Err(format!("unexpected submit response: {other:?}")),
    };
    if job != 0 {
        return Err(format!("a fresh daemon assigned job {job}, expected 0"));
    }
    let saved_before_kill = wait_for_saves(&state_dir, kill_after_saves, Duration::from_secs(240))?;
    // SIGKILL mid-job: no drain, no cleanup — exactly what crash-safety is
    // supposed to survive.
    drop(daemon);
    if cfg.echo {
        crate::outln!(
            "chaos round {round}: daemon killed with shards {saved_before_kill:?} checkpointed; \
             resuming"
        );
    }

    let resumed = spawn_daemon(cfg, &state_dir, true)?;
    let status = wait_for_job(&resumed.addr(), 0, Duration::from_secs(600))?;
    if !status.recovered {
        return Err("the resumed daemon does not mark job 0 as recovered".into());
    }
    let (digests_match, counters_match) = compare(baseline, &status)?;
    // Ask the daemon to exit cleanly so its workdir is removed; the round's
    // evidence (journal, checkpoints, serve.log) lives in the state dir.
    let _ = call(&resumed.addr(), &Request::Shutdown);
    drop(resumed);

    let text = std::fs::read_to_string(Journal::path_in(&state_dir))
        .map_err(|e| format!("cannot read the round's journal: {e}"))?;
    let (saved_journaled, rerun_after_resume) = analyze_journal(&text)?;
    debug_assert!(saved_journaled.is_superset(&saved_before_kill));
    Ok(DrillOutcome {
        round,
        plan,
        kill_after_saves,
        saved_before_kill,
        rerun_after_resume,
        retries: status.retries,
        digests_match,
        counters_match,
        state_dir,
    })
}

/// Runs `cfg.rounds` kill-and-resume rounds and returns every outcome
/// (pass and fail alike — the caller renders and judges them).  The
/// uninterrupted baseline is swept once, in-process, up front.
pub fn run_drills(cfg: &ChaosConfig) -> Result<Vec<DrillOutcome>, String> {
    if cfg.rounds == 0 {
        return Err("chaos needs at least one round".into());
    }
    if cfg.shards == 0 {
        return Err("chaos needs at least one shard per job".into());
    }
    let baseline = baseline_report(cfg)?;
    if cfg.echo {
        crate::outln!(
            "chaos baseline: {} scenarios over seeds {}..{}",
            baseline.scenarios(),
            cfg.seeds.0,
            cfg.seeds.1
        );
    }
    let mut outcomes = Vec::with_capacity(cfg.rounds as usize);
    for round in 0..cfg.rounds {
        outcomes.push(run_round(cfg, &baseline, round)?);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ChaosConfig {
        ChaosConfig {
            binary: PathBuf::from("semint"),
            seed: 7,
            rounds: 4,
            seeds: (0, 30),
            profile: "default".into(),
            case: "all".into(),
            shards: 4,
            jobs: 2,
            workers: 2,
            batch: 4,
            worker_timeout_ms: 4000,
            state_root: PathBuf::from("chaos-state"),
            echo: false,
        }
    }

    #[test]
    fn schedules_are_deterministic_in_bounds_and_seed_sensitive() {
        let cfg = config();
        for round in 0..cfg.rounds {
            let (plan, kill) = schedule(&cfg, round);
            assert_eq!((plan, kill), schedule(&cfg, round), "pure function");
            assert!(plan.shard < cfg.shards);
            assert!((1..=5).contains(&plan.after));
            assert!(kill < cfg.shards);
        }
        let reseeded = ChaosConfig {
            seed: 8,
            ..config()
        };
        assert!(
            (0..cfg.rounds).any(|r| schedule(&cfg, r) != schedule(&reseeded, r)),
            "different seeds must produce different schedules"
        );
        // Across enough rounds the schedule exercises every fault kind.
        let many = ChaosConfig {
            rounds: 64,
            ..config()
        };
        let kinds: BTreeSet<&str> = (0..many.rounds)
            .map(|r| schedule(&many, r).0.kind.label())
            .collect();
        assert_eq!(kinds.len(), FaultKind::ALL.len(), "{kinds:?}");
    }

    #[test]
    fn the_listen_banner_parses_and_garbage_does_not() {
        let line = "semint serve: listening on 127.0.0.1:7844 · 4 workers · \
                    queue capacity 16 · worker timeout 30000 ms · 2 retries per shard\n";
        assert_eq!(parse_listen_port(line), Some(7844));
        assert_eq!(parse_listen_port("no address here\n"), None);
        assert_eq!(parse_listen_port("127.0.0.1:notaport\n"), None);
    }

    #[test]
    fn journal_analysis_partitions_at_the_last_resume() {
        let spec = JobSpec {
            seeds: (0, 30),
            profile: "default".into(),
            case: "all".into(),
            shards: 3,
            jobs: 1,
            batch: 1,
            model_check: false,
            fault: None,
        };
        let lines = [
            JournalEvent::Submitted { job: 0, spec },
            JournalEvent::ShardStarted {
                job: 0,
                shard: 0,
                attempt: 0,
            },
            JournalEvent::ShardSaved {
                job: 0,
                shard: 0,
                attempt: 0,
                path: "job0-shard0.tsv".into(),
                digest: "fnv1a:0".into(),
            },
            JournalEvent::Resumed { jobs: 1 },
            JournalEvent::ShardStarted {
                job: 0,
                shard: 1,
                attempt: 0,
            },
            JournalEvent::ShardStarted {
                job: 0,
                shard: 0,
                attempt: 1,
            },
            JournalEvent::JobCompleted { job: 0 },
        ];
        let text: String = lines
            .iter()
            .map(|e| format!("{}\n", journal::render_event(e)))
            .collect();
        let (saved, rerun) = analyze_journal(&text).expect("analyzes");
        assert_eq!(saved, BTreeSet::from([0]));
        // Shard 0 was checkpointed before the kill yet started again after
        // the resume: the invariant the drill exists to catch.
        assert_eq!(rerun, BTreeSet::from([0]));
        let clean = text.replace(
            &journal::render_event(&JournalEvent::ShardStarted {
                job: 0,
                shard: 0,
                attempt: 1,
            }),
            "",
        );
        let (_, rerun) = analyze_journal(&clean).expect("analyzes");
        assert!(rerun.is_empty());
        assert!(analyze_journal("").unwrap_err().contains("daemon-resumed"));
    }

    #[test]
    fn zero_rounds_and_zero_shards_are_rejected_before_any_spawn() {
        let err = run_drills(&ChaosConfig {
            rounds: 0,
            ..config()
        })
        .unwrap_err();
        assert!(err.contains("round"), "{err}");
        let err = run_drills(&ChaosConfig {
            shards: 0,
            ..config()
        })
        .unwrap_err();
        assert!(err.contains("shard"), "{err}");
    }

    #[test]
    fn the_invariant_requires_all_three_checks() {
        let outcome = DrillOutcome {
            round: 0,
            plan: FaultPlan {
                shard: 0,
                after: 1,
                kind: FaultKind::Crash,
            },
            kill_after_saves: 1,
            saved_before_kill: BTreeSet::from([2]),
            rerun_after_resume: BTreeSet::new(),
            retries: 1,
            digests_match: true,
            counters_match: true,
            state_dir: PathBuf::from("chaos-state/round0"),
        };
        assert!(outcome.invariant_holds());
        assert!(!DrillOutcome {
            digests_match: false,
            ..outcome.clone()
        }
        .invariant_holds());
        assert!(!DrillOutcome {
            counters_match: false,
            ..outcome.clone()
        }
        .invariant_holds());
        assert!(!DrillOutcome {
            rerun_after_resume: BTreeSet::from([2]),
            ..outcome
        }
        .invariant_holds());
    }
}
