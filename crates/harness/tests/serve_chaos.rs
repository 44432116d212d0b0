//! The deterministic chaos drill as a test: a real daemon is fault-injected
//! (per the seed-derived schedule), SIGKILLed mid-job, resumed with
//! `--resume`, and must still produce digests and VM counters byte-identical
//! to an uninterrupted one-shot sweep — without re-running any shard whose
//! checkpoint survived the kill.
//!
//! This is the same machinery `semint chaos` drives from the CLI (and CI
//! drives in release mode); here it runs in-process so a failed invariant
//! points straight at the round's state dir.

use std::path::PathBuf;

use semint_harness::serve::{run_drills, ChaosConfig};

#[test]
fn killed_and_resumed_daemon_matches_the_uninterrupted_sweep() {
    let state_root = std::env::temp_dir().join(format!("semint-chaos-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_root);
    let cfg = ChaosConfig {
        binary: PathBuf::from(env!("CARGO_BIN_EXE_semint")),
        seed: 1,
        rounds: 2,
        seeds: (0, 24),
        profile: "default".into(),
        case: "all".into(),
        shards: 3,
        jobs: 2,
        workers: 2,
        batch: 1,
        // Wedge rounds are only caught by this timeout; keep it short but
        // well above an honest shard's runtime.
        worker_timeout_ms: 5_000,
        state_root: state_root.clone(),
        echo: false,
    };
    let outcomes = run_drills(&cfg).expect("the drill runs to completion");
    assert_eq!(outcomes.len(), 2, "one outcome per round");
    for outcome in &outcomes {
        assert!(
            outcome.invariant_holds(),
            "round {} violated the crash-safety invariant \
             (digests_match: {}, counters_match: {}, rerun_after_resume: {:?}); \
             post-mortem state in {}",
            outcome.round,
            outcome.digests_match,
            outcome.counters_match,
            outcome.rerun_after_resume,
            outcome.state_dir.display(),
        );
    }
    let _ = std::fs::remove_dir_all(&state_root);
}

/// Pids and command lines of the live processes whose command line
/// mentions `needle` (Linux `/proc`; zombies have an empty command line).
#[cfg(target_os = "linux")]
fn processes_naming(needle: &str) -> Vec<(u32, String)> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc")
        .expect("/proc is readable")
        .flatten()
    {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(raw) = std::fs::read(entry.path().join("cmdline")) else {
            continue;
        };
        let cmdline = String::from_utf8_lossy(&raw).replace('\0', " ");
        if pid != std::process::id() && cmdline.contains(needle) {
            found.push((pid, cmdline));
        }
    }
    found
}

/// A drill whose daemon is SIGKILLed while a wedged worker is alive must
/// not leave that worker behind: with `--seed 3` and four shards, rounds 0
/// and 1 kill the daemon before the heartbeat deadline of a wedged shard.
#[cfg(target_os = "linux")]
#[test]
fn the_drill_leaves_no_worker_alive() {
    let state_root =
        std::env::temp_dir().join(format!("semint-chaos-orphans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_root);
    let cfg = ChaosConfig {
        binary: PathBuf::from(env!("CARGO_BIN_EXE_semint")),
        seed: 3,
        rounds: 3,
        seeds: (0, 40),
        profile: "default".into(),
        case: "all".into(),
        shards: 4,
        jobs: 1,
        workers: 4,
        batch: 1,
        worker_timeout_ms: 5_000,
        state_root: state_root.clone(),
        echo: false,
    };
    let outcomes = run_drills(&cfg).expect("the drill runs to completion");
    assert!(outcomes.iter().all(|o| o.invariant_holds()));
    let needle = state_root.to_string_lossy().into_owned();
    // An orphaned worker notices its new parent within its poll interval.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut alive = processes_naming(&needle);
    while !alive.is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(50));
        alive = processes_naming(&needle);
    }
    for (pid, _) in &alive {
        let _ = std::process::Command::new("kill")
            .arg("-9")
            .arg(pid.to_string())
            .status();
    }
    assert!(alive.is_empty(), "processes outlived the drill: {alive:#?}");
    let _ = std::fs::remove_dir_all(&state_root);
}
