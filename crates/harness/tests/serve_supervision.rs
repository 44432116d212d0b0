//! End-to-end supervision tests for `semint serve`: a real daemon spawning
//! real `semint sweep` worker processes (the binary Cargo built for this
//! test run), exercised over the real TCP protocol.
//!
//! The central claim, asserted twice (with and without a killed worker):
//! the daemon's merged digests and VM counters are **identical** to a
//! one-shot in-process sweep over the same seed range.

use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use semint_core::case::GenProfile;
use semint_core::stats::SweepReport;
use semint_harness::cases::AnyCase;
use semint_harness::engine::{sweep_all, SweepConfig};
use semint_harness::serve::{
    call, Daemon, FaultKind, FaultPlan, JobSpec, JobStatus, Request, Response, ServeConfig,
    MAX_REQUEST_LINE,
};
use semint_harness::source::SeedRange;

/// The spec both supervision tests submit; the baseline sweep must use the
/// same seeds/profile/model-check shape.
const SEEDS: (u64, u64) = (0, 30);

fn test_config() -> ServeConfig {
    ServeConfig {
        // Ephemeral port: tests run concurrently.
        port: 0,
        workers: 2,
        queue_capacity: 4,
        heartbeat_timeout: Duration::from_secs(60),
        max_retries: 2,
        worker_binary: PathBuf::from(env!("CARGO_BIN_EXE_semint")),
        log_path: None,
        echo: false,
        state_dir: None,
        resume: false,
    }
}

fn job_spec(fault: Option<FaultPlan>) -> JobSpec {
    JobSpec {
        seeds: SEEDS,
        profile: "default".into(),
        case: "all".into(),
        shards: 3,
        jobs: 2,
        batch: 1,
        // Off in both the job and the baseline: the supervision tests are
        // about process management, not the model checker's wall-clock.
        model_check: false,
        fault,
    }
}

fn baseline() -> SweepReport {
    let cases = AnyCase::all(false);
    let range = SeedRange::new(SEEDS.0, SEEDS.1).unwrap();
    let cfg = SweepConfig {
        jobs: 2,
        profile: GenProfile::by_name("default").unwrap(),
        model_check: false,
        ..SweepConfig::default()
    };
    sweep_all(&cases, &range, &cfg)
}

/// Polls the daemon until `job` settles (done or failed) and returns its
/// final status.  Panics after a generous deadline so a wedged daemon fails
/// the test instead of hanging it.
fn wait_for_job(addr: &str, job: u64) -> JobStatus {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        assert!(
            Instant::now() < deadline,
            "job {job} did not settle within the deadline"
        );
        match call(addr, &Request::Status { job: Some(job) }).expect("status call") {
            Response::Status { jobs, .. } => {
                let status = jobs.into_iter().next().expect("requested job exists");
                if status.state == "done" || status.state == "failed" {
                    return status;
                }
            }
            other => panic!("unexpected status response: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn submit(addr: &str, spec: JobSpec) -> u64 {
    match call(addr, &Request::Submit(spec)).expect("submit call") {
        Response::Submitted { job } => job,
        other => panic!("unexpected submit response: {other:?}"),
    }
}

fn shutdown_and_join(addr: &str, daemon: Daemon) {
    match call(addr, &Request::Shutdown).expect("shutdown call") {
        Response::Ok => {}
        other => panic!("unexpected shutdown response: {other:?}"),
    }
    daemon.join();
}

/// Asserts the daemon's merged report equals the one-shot baseline on every
/// digest-grade fact: per-case digests AND full VM counters.
fn assert_matches_baseline(status: &JobStatus, what: &str) {
    let whole = baseline();
    let expected: Vec<String> = whole.cases.iter().map(|c| c.digest()).collect();
    assert_eq!(
        status.digests, expected,
        "{what}: serve-merged digests must be byte-identical to the one-shot sweep"
    );
    let merged = SweepReport::from_tsv(&status.report_tsv).expect("daemon-sent TSV parses");
    assert_eq!(merged.cases.len(), whole.cases.len());
    for (merged_case, direct) in merged.cases.iter().zip(&whole.cases) {
        assert_eq!(merged_case.case, direct.case);
        assert_eq!(
            merged_case.counters, direct.counters,
            "{what}: case {} VM counters must survive shard merge exactly",
            direct.case
        );
        assert_eq!(merged_case.scenarios, direct.scenarios);
        assert_eq!(merged_case.failures.len(), direct.failures.len());
    }
}

#[test]
fn served_job_merges_to_the_one_shot_sweep_digests() {
    let daemon = Daemon::spawn(test_config()).expect("daemon spawns");
    let addr = format!("127.0.0.1:{}", daemon.port());
    assert!(matches!(
        call(&addr, &Request::Ping).expect("ping"),
        Response::Ok
    ));
    let job = submit(&addr, job_spec(None));
    let status = wait_for_job(&addr, job);
    assert_eq!(status.state, "done", "error: {:?}", status.error);
    assert_eq!(status.shards_done, 3);
    assert_eq!(status.shards_total, 3);
    assert_eq!(status.retries, 0, "no fault was injected");
    assert_matches_baseline(&status, "clean fleet");
    shutdown_and_join(&addr, daemon);
}

#[test]
fn killed_worker_slice_is_reissued_and_digests_still_converge() {
    let log_path = std::env::temp_dir().join(format!(
        "semint-serve-test-{}-crash.log",
        std::process::id()
    ));
    let cfg = ServeConfig {
        log_path: Some(log_path.clone()),
        ..test_config()
    };
    let daemon = Daemon::spawn(cfg).expect("daemon spawns");
    let addr = format!("127.0.0.1:{}", daemon.port());
    // Shard 1's first attempt aborts mid-sweep after 3 scenarios, leaving
    // no report — a genuine crash from the supervisor's point of view.
    let job = submit(
        &addr,
        job_spec(Some(FaultPlan {
            shard: 1,
            after: 3,
            kind: FaultKind::Crash,
        })),
    );
    let status = wait_for_job(&addr, job);
    assert_eq!(status.state, "done", "error: {:?}", status.error);
    assert!(
        status.retries >= 1,
        "the killed worker must have been re-issued"
    );
    assert_eq!(status.shards_done, 3, "all shards merged despite the crash");
    // The re-issued slice reproduced the dead worker's exact results.
    assert_matches_baseline(&status, "crash recovery");
    shutdown_and_join(&addr, daemon);
    // The daemon log recorded the supervision: a crash classified and the
    // slice re-issued.
    let log = std::fs::read_to_string(&log_path).expect("daemon log written");
    let _ = std::fs::remove_file(&log_path);
    assert!(log.contains("\"event\":\"shard-retry\""), "{log}");
    assert!(log.contains("exit code 42"), "{log}");
    assert!(log.contains("\"event\":\"job-done\""), "{log}");
}

#[test]
fn wedged_worker_is_killed_at_the_heartbeat_deadline_and_reissued() {
    let log_path = std::env::temp_dir().join(format!(
        "semint-serve-test-{}-wedge.log",
        std::process::id()
    ));
    let heartbeat_timeout = Duration::from_secs(1);
    let cfg = ServeConfig {
        heartbeat_timeout,
        log_path: Some(log_path.clone()),
        ..test_config()
    };
    let daemon = Daemon::spawn(cfg).expect("daemon spawns");
    let addr = format!("127.0.0.1:{}", daemon.port());
    // Shard 1's first attempt goes silent after 2 scenarios but never
    // exits, so its stderr stays open: only the heartbeat deadline can
    // wake the fleet to kill it.
    let started = Instant::now();
    let job = submit(
        &addr,
        job_spec(Some(FaultPlan {
            shard: 1,
            after: 2,
            kind: FaultKind::Wedge,
        })),
    );
    let status = wait_for_job(&addr, job);
    let took = started.elapsed();
    assert_eq!(status.state, "done", "error: {:?}", status.error);
    assert_eq!(status.retries, 1, "exactly the wedged worker is re-issued");
    assert!(
        took >= heartbeat_timeout,
        "the wedge was declared after {took:?}, before the {heartbeat_timeout:?} deadline"
    );
    assert_matches_baseline(&status, "wedge recovery");
    shutdown_and_join(&addr, daemon);
    let log = std::fs::read_to_string(&log_path).expect("daemon log written");
    let _ = std::fs::remove_file(&log_path);
    assert!(log.contains("wedged (no heartbeat for 1000 ms)"), "{log}");
}

/// How long one daemon lifecycle round may take before the test calls it
/// hung.
const WATCHDOG: Duration = Duration::from_secs(10);

/// Runs `round` on its own thread and fails the test if it does not finish
/// within [`WATCHDOG`]: a lost wake-up leaves a daemon thread blocked
/// forever, which must fail the test rather than stall it.
fn under_watchdog(what: &str, round: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        round();
        let _ = done_tx.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(WATCHDOG) {
        panic!("{what}: the daemon did not stop within {WATCHDOG:?}");
    }
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Submits a small job, asks for shutdown at once, and joins: the daemon
/// drains before it exits, so the job must have finished.
fn submit_then_shutdown(round: u32) {
    let log_path = std::env::temp_dir().join(format!(
        "semint-serve-test-{}-lifecycle-{round}.log",
        std::process::id()
    ));
    let cfg = ServeConfig {
        log_path: Some(log_path.clone()),
        ..test_config()
    };
    let daemon = Daemon::spawn(cfg).expect("daemon spawns");
    let addr = format!("127.0.0.1:{}", daemon.port());
    let spec = JobSpec {
        seeds: (0, 2),
        shards: 1,
        ..job_spec(None)
    };
    submit(&addr, spec);
    shutdown_and_join(&addr, daemon);
    let log = std::fs::read_to_string(&log_path).expect("daemon log written");
    let _ = std::fs::remove_file(&log_path);
    assert!(log.contains("\"event\":\"job-done\""), "{log}");
}

#[test]
fn daemon_stops_promptly_on_drop_on_idle_shutdown_and_after_a_drained_job() {
    for round in 0..50u32 {
        under_watchdog(&format!("round {round}: drop while idle"), || {
            let daemon = Daemon::spawn(test_config()).expect("daemon spawns");
            // A ping first, so that the drop finds the scheduler waiting
            // for work rather than still starting up.
            let addr = format!("127.0.0.1:{}", daemon.port());
            assert!(matches!(call(&addr, &Request::Ping), Ok(Response::Ok)));
            drop(daemon);
        });
        under_watchdog(&format!("round {round}: shutdown while idle"), || {
            let daemon = Daemon::spawn(test_config()).expect("daemon spawns");
            let addr = format!("127.0.0.1:{}", daemon.port());
            shutdown_and_join(&addr, daemon);
        });
        under_watchdog(
            &format!("round {round}: shutdown after a submit"),
            move || submit_then_shutdown(round),
        );
    }
}

#[test]
fn full_queue_applies_backpressure_and_drain_refuses_new_jobs() {
    let log_path = std::env::temp_dir().join(format!(
        "semint-serve-test-{}-drain.log",
        std::process::id()
    ));
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        log_path: Some(log_path.clone()),
        ..test_config()
    };
    let daemon = Daemon::spawn(cfg).expect("daemon spawns");
    let addr = format!("127.0.0.1:{}", daemon.port());
    let first = submit(&addr, job_spec(None));
    assert_eq!(first, 0);
    // Capacity 1 and one unfinished job: the next submit must bounce.
    match call(&addr, &Request::Submit(job_spec(None))).expect("submit call") {
        Response::Error(e) => assert!(e.contains("full"), "{e}"),
        other => panic!("expected backpressure, got {other:?}"),
    }
    // Draining refuses new jobs outright…
    match call(&addr, &Request::Shutdown).expect("shutdown call") {
        Response::Ok => {}
        other => panic!("unexpected shutdown response: {other:?}"),
    }
    // The accepted job can finish arbitrarily fast, so a post-shutdown
    // submit sees either the explicit draining refusal or a daemon that has
    // already drained and gone away — both prove admission is closed.
    match call(&addr, &Request::Submit(job_spec(None))) {
        Ok(Response::Error(e)) => assert!(e.contains("draining"), "{e}"),
        Ok(other) => panic!("expected a draining refusal, got {other:?}"),
        Err(_daemon_already_gone) => {}
    }
    // …but the accepted job still runs to completion before the daemon
    // exits.  join() only returns once the queue has drained; the daemon
    // may already be gone by then, so completion — digests included — is
    // asserted through its log rather than a status call it might no
    // longer answer.
    daemon.join();
    let log = std::fs::read_to_string(&log_path).expect("daemon log written");
    let _ = std::fs::remove_file(&log_path);
    assert!(log.contains("\"event\":\"job-done\""), "{log}");
    assert!(log.contains("\"event\":\"daemon-exit\""), "{log}");
    let expected: Vec<String> = baseline().cases.iter().map(|c| c.digest()).collect();
    assert!(
        log.contains(&expected.join(" ")),
        "job-done must record the one-shot sweep's digests\n{log}"
    );
}

/// Sends raw bytes to the daemon and returns whatever single line it answers
/// with (empty if it just hangs up), exactly like a hostile client would.
fn raw_exchange(addr: &str, payload: &[u8]) -> String {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(payload).expect("write payload");
    // Half-close so a daemon waiting for the newline sees EOF instead of
    // blocking forever on a line that never terminates.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut line = String::new();
    let _ = BufReader::new(stream).read_line(&mut line);
    line
}

#[test]
fn garbage_and_oversized_request_lines_bounce_without_killing_the_daemon() {
    let daemon = Daemon::spawn(test_config()).expect("daemon spawns");
    let addr = format!("127.0.0.1:{}", daemon.port());

    // A request line past the cap is refused with an Error envelope instead
    // of being buffered without bound.
    let oversized = vec![b'x'; MAX_REQUEST_LINE as usize + 64];
    let reply = raw_exchange(&addr, &oversized);
    assert!(
        reply.contains("\"error\"") && reply.contains("request line"),
        "oversized line must be refused explicitly, got: {reply:?}"
    );

    // Invalid UTF-8 with a proper newline is malformed, not fatal.
    let reply = raw_exchange(&addr, b"\xff\xfe{not json}\n");
    assert!(
        reply.contains("\"error\""),
        "malformed bytes must get an Error envelope, got: {reply:?}"
    );

    // Valid JSON that is not a request is also just an error.
    let reply = raw_exchange(&addr, b"{\"cmd\": \"frobnicate\"}\n");
    assert!(
        reply.contains("\"error\""),
        "unknown request must get an Error envelope, got: {reply:?}"
    );

    // A client that connects and immediately hangs up must not wedge the
    // accept loop either.
    drop(std::net::TcpStream::connect(&addr).expect("connect"));

    // After all that abuse the daemon still answers well-formed requests.
    assert!(matches!(
        call(&addr, &Request::Ping).expect("ping after abuse"),
        Response::Ok
    ));
    shutdown_and_join(&addr, daemon);
}
