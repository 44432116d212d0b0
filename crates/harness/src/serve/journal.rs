//! The daemon's write-ahead log: an append-only, fsync'd JSONL journal of
//! job lifecycle transitions, plus the replay logic `--resume` uses to
//! rebuild the queue after a crash.
//!
//! Durability contract, in order:
//!
//! 1. A shard's validated TSV report is written to the state dir and
//!    `sync_all`'d **before** its `shard-saved` event is journaled, so a
//!    journaled checkpoint always exists on disk (the digest in the event
//!    lets resume detect a corrupted one).
//! 2. Every journal append is a single `write_all` of one line followed by
//!    `sync_data`, so after a crash the journal is a prefix of the true
//!    history plus at most one torn final line.
//! 3. A torn final line is a transition that never became durable — replay
//!    drops it (it never happened), and [`Journal::open`] neutralizes it
//!    with a lone newline so later appends start on a fresh line.
//!
//! Replay is deliberately tolerant of *duplicates* (a shard re-run after a
//! corrupted checkpoint journals `shard-saved` again; last wins) and of
//! unparseable lines anywhere in the file (neutralized torn lines persist
//! mid-file across daemon lives), but strict about *structure*: events that
//! reference a job or shard the journal never introduced are hard errors —
//! that journal belongs to some other state dir.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use super::protocol::{parse_spec, render_spec};
use super::queue::JobSpec;
use crate::json::{escape_json, parse_stamped, stamp};

/// The journal's file name inside a `--state-dir`.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// The checkpoint file name for one job's shard inside a `--state-dir`.
pub fn checkpoint_name(job: u64, shard: u64) -> String {
    format!("job{job}-shard{shard}.tsv")
}

/// One durable job lifecycle transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// A job was admitted with this (validated, shards-resolved) spec.
    Submitted {
        /// Daemon-assigned job id (dense, starting at 0).
        job: u64,
        /// The validated spec, exactly as the queue holds it.
        spec: JobSpec,
    },
    /// A shard worker process was spawned.
    ShardStarted {
        /// The job the shard belongs to.
        job: u64,
        /// Shard index (0-based).
        shard: u64,
        /// 0 = first issue, >0 = re-issue after a death.
        attempt: u64,
    },
    /// A shard's report was validated and checkpointed to the state dir.
    ShardSaved {
        /// The job the shard belongs to.
        job: u64,
        /// Shard index (0-based).
        shard: u64,
        /// The attempt that produced the checkpoint.
        attempt: u64,
        /// Checkpoint file name, relative to the state dir.
        path: String,
        /// [`content_digest`] of the checkpoint bytes, for resume-time
        /// corruption detection.
        digest: String,
    },
    /// A shard attempt died (crash / wedge / bad report) and was re-issued.
    ShardDied {
        /// The job the shard belongs to.
        job: u64,
        /// Shard index (0-based).
        shard: u64,
        /// The attempt that died.
        attempt: u64,
        /// The supervisor's classification of the death.
        reason: String,
    },
    /// Every shard merged; the job's digests are final.
    JobCompleted {
        /// The finished job.
        job: u64,
    },
    /// The job was abandoned with this reason.
    JobFailed {
        /// The abandoned job.
        job: u64,
        /// Why it was abandoned.
        reason: String,
    },
    /// A daemon replayed this journal and took over its jobs.  Everything
    /// before the *last* such marker predates the current daemon's life.
    Resumed {
        /// How many jobs the daemon recovered.
        jobs: u64,
    },
}

/// Renders one event as its one-line journal form (no trailing newline).
pub fn render_event(event: &JournalEvent) -> String {
    let mut out = stamp("semint_journal");
    match event {
        JournalEvent::Submitted { job, spec } => {
            out.push_str(&format!(
                ", \"event\": \"job-submitted\", \"job\": {job}, \"spec\": {}",
                render_spec(spec)
            ));
        }
        JournalEvent::ShardStarted {
            job,
            shard,
            attempt,
        } => {
            out.push_str(&format!(
                ", \"event\": \"shard-started\", \"job\": {job}, \"shard\": {shard}, \
                 \"attempt\": {attempt}"
            ));
        }
        JournalEvent::ShardSaved {
            job,
            shard,
            attempt,
            path,
            digest,
        } => {
            out.push_str(&format!(
                ", \"event\": \"shard-saved\", \"job\": {job}, \"shard\": {shard}, \
                 \"attempt\": {attempt}, \"path\": \"{}\", \"digest\": \"{}\"",
                escape_json(path),
                escape_json(digest)
            ));
        }
        JournalEvent::ShardDied {
            job,
            shard,
            attempt,
            reason,
        } => {
            out.push_str(&format!(
                ", \"event\": \"shard-died\", \"job\": {job}, \"shard\": {shard}, \
                 \"attempt\": {attempt}, \"reason\": \"{}\"",
                escape_json(reason)
            ));
        }
        JournalEvent::JobCompleted { job } => {
            out.push_str(&format!(", \"event\": \"job-completed\", \"job\": {job}"));
        }
        JournalEvent::JobFailed { job, reason } => {
            out.push_str(&format!(
                ", \"event\": \"job-failed\", \"job\": {job}, \"reason\": \"{}\"",
                escape_json(reason)
            ));
        }
        JournalEvent::Resumed { jobs } => {
            out.push_str(&format!(
                ", \"event\": \"daemon-resumed\", \"jobs\": {jobs}"
            ));
        }
    }
    out.push('}');
    out
}

/// Parses one journal line, checking the journal marker and the shared
/// version field.
pub fn parse_event(line: &str) -> Result<JournalEvent, String> {
    let doc = parse_stamped(line, "semint_journal", "format")?;
    let job = || doc.require("job")?.as_u64("job");
    let shard = || doc.require("shard")?.as_u64("shard");
    let attempt = || doc.require("attempt")?.as_u64("attempt");
    let text =
        |key: &str| -> Result<String, String> { Ok(doc.require(key)?.as_str(key)?.to_string()) };
    match doc.require("event")?.as_str("event")? {
        "job-submitted" => Ok(JournalEvent::Submitted {
            job: job()?,
            spec: parse_spec(doc.require("spec")?)?,
        }),
        "shard-started" => Ok(JournalEvent::ShardStarted {
            job: job()?,
            shard: shard()?,
            attempt: attempt()?,
        }),
        "shard-saved" => Ok(JournalEvent::ShardSaved {
            job: job()?,
            shard: shard()?,
            attempt: attempt()?,
            path: text("path")?,
            digest: text("digest")?,
        }),
        "shard-died" => Ok(JournalEvent::ShardDied {
            job: job()?,
            shard: shard()?,
            attempt: attempt()?,
            reason: text("reason")?,
        }),
        "job-completed" => Ok(JournalEvent::JobCompleted { job: job()? }),
        "job-failed" => Ok(JournalEvent::JobFailed {
            job: job()?,
            reason: text("reason")?,
        }),
        "daemon-resumed" => Ok(JournalEvent::Resumed {
            jobs: doc.require("jobs")?.as_u64("jobs")?,
        }),
        other => Err(format!("unknown journal event {other:?}")),
    }
}

/// An open journal file handle, shared between the accept loop (submits)
/// and the scheduler (everything else).
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

impl Journal {
    /// Where the journal lives inside a state dir.
    pub fn path_in(state_dir: &Path) -> PathBuf {
        state_dir.join(JOURNAL_FILE)
    }

    /// Opens (creating if absent) the journal in `state_dir` for appending.
    /// If the existing file does not end in a newline — a torn final line
    /// from a previous crash — a lone newline is appended and synced first,
    /// so later entries never glue onto the torn one.
    pub fn open(state_dir: &Path) -> Result<Journal, String> {
        let path = Journal::path_in(state_dir);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let mut existing = Vec::new();
        file.read_to_end(&mut existing)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        if !existing.is_empty() && existing.last() != Some(&b'\n') {
            file.write_all(b"\n")
                .and_then(|()| file.sync_data())
                .map_err(|e| format!("cannot neutralize the torn journal tail: {e}"))?;
        }
        Ok(Journal {
            file: Mutex::new(file),
            path,
        })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event and fsyncs it: when this returns `Ok`, the
    /// transition is durable.
    pub fn append(&self, event: &JournalEvent) -> Result<(), String> {
        let line = format!("{}\n", render_event(event));
        let mut file = self.file.lock().expect("journal file poisoned");
        file.write_all(line.as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("cannot append to journal {}: {e}", self.path.display()))
    }
}

/// How a recovered job had settled by the end of the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveredOutcome {
    /// Still queued or mid-flight when the daemon died: re-enqueue it.
    Incomplete,
    /// The journal recorded `job-completed`.
    Completed,
    /// The journal recorded `job-failed` with this reason.
    Failed(String),
}

/// One job as reconstructed from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJob {
    /// The journaled job id (dense; replay enforces submission order).
    pub id: u64,
    /// The validated spec the daemon admitted.
    pub spec: JobSpec,
    /// How the job had settled, if at all.
    pub outcome: RecoveredOutcome,
    /// Checkpointed shards: index → (checkpoint file name, content digest).
    /// Last write wins — a shard re-run after checkpoint corruption
    /// re-journals its save.
    pub saved: BTreeMap<u64, (String, String)>,
    /// Shard re-issues the journal recorded.
    pub retries: u64,
}

/// Everything replay recovered from one journal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveredState {
    /// Jobs in submission order (index = id).
    pub jobs: Vec<RecoveredJob>,
    /// Unparseable lines skipped (torn tails, including neutralized ones
    /// from earlier daemon lives).
    pub torn_lines: u64,
    /// How many `daemon-resumed` markers the journal holds.
    pub resumes: u64,
}

impl RecoveredState {
    fn apply(&mut self, event: JournalEvent) -> Result<(), String> {
        match event {
            JournalEvent::Submitted { job, spec } => {
                if job != self.jobs.len() as u64 {
                    return Err(format!(
                        "journal submitted job {job} out of order (expected {})",
                        self.jobs.len()
                    ));
                }
                self.jobs.push(RecoveredJob {
                    id: job,
                    spec,
                    outcome: RecoveredOutcome::Incomplete,
                    saved: BTreeMap::new(),
                    retries: 0,
                });
            }
            JournalEvent::ShardStarted { job, shard, .. } => {
                self.shard_of(job, shard)?;
            }
            JournalEvent::ShardSaved {
                job,
                shard,
                path,
                digest,
                ..
            } => {
                let recovered = self.shard_of(job, shard)?;
                recovered.saved.insert(shard, (path, digest));
            }
            JournalEvent::ShardDied { job, shard, .. } => {
                self.shard_of(job, shard)?.retries += 1;
            }
            JournalEvent::JobCompleted { job } => {
                self.job_of(job)?.outcome = RecoveredOutcome::Completed;
            }
            JournalEvent::JobFailed { job, reason } => {
                self.job_of(job)?.outcome = RecoveredOutcome::Failed(reason);
            }
            JournalEvent::Resumed { .. } => self.resumes += 1,
        }
        Ok(())
    }

    fn job_of(&mut self, job: u64) -> Result<&mut RecoveredJob, String> {
        let known = self.jobs.len();
        self.jobs
            .get_mut(job as usize)
            .ok_or_else(|| format!("journal references job {job} but only {known} were submitted"))
    }

    fn shard_of(&mut self, job: u64, shard: u64) -> Result<&mut RecoveredJob, String> {
        let recovered = self.job_of(job)?;
        if shard >= recovered.spec.shards {
            return Err(format!(
                "journal references shard {shard} of job {job}, which has only {} shards",
                recovered.spec.shards
            ));
        }
        Ok(recovered)
    }
}

/// Replays a journal's text into the state a resuming daemon adopts.
///
/// Unparseable lines are tolerated anywhere (counted in `torn_lines`) —
/// only the final line can be torn by a crash, but a neutralized torn line
/// persists mid-file once the daemon has lived and died again.  Structural
/// inconsistencies (events referencing jobs or shards never submitted) are
/// hard errors: the journal does not describe this state dir.
pub fn replay(text: &str) -> Result<RecoveredState, String> {
    let mut state = RecoveredState::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_event(line) {
            Ok(event) => state.apply(event)?,
            Err(_torn) => state.torn_lines += 1,
        }
    }
    Ok(state)
}

/// FNV-1a 64 over raw bytes, rendered `fnv1a:{hash:016x}` — the checkpoint
/// content digest journaled with every `shard-saved` event.  (Case digests
/// from [`semint_core::stats::CaseReport::digest`] summarize *aggregates*;
/// this one fingerprints the exact bytes on disk, so resume can tell a
/// corrupted checkpoint from a valid one.)
pub fn content_digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::FORMAT_VERSION;

    fn sample_spec() -> JobSpec {
        JobSpec {
            seeds: (0, 60),
            profile: "deep".into(),
            case: "all".into(),
            shards: 3,
            jobs: 2,
            batch: 4,
            model_check: false,
            fault: None,
        }
    }

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Submitted {
                job: 0,
                spec: sample_spec(),
            },
            JournalEvent::ShardStarted {
                job: 0,
                shard: 0,
                attempt: 0,
            },
            JournalEvent::ShardDied {
                job: 0,
                shard: 0,
                attempt: 0,
                reason: "crashed (exit code 42)".into(),
            },
            JournalEvent::ShardSaved {
                job: 0,
                shard: 0,
                attempt: 1,
                path: checkpoint_name(0, 0),
                digest: content_digest(b"case\tsharedmem\n"),
            },
            JournalEvent::JobCompleted { job: 0 },
            JournalEvent::Resumed { jobs: 1 },
            JournalEvent::JobFailed {
                job: 0,
                reason: "retry budget (2) exhausted".into(),
            },
        ]
    }

    #[test]
    fn every_event_round_trips_on_one_line() {
        for event in sample_events() {
            let line = render_event(&event);
            assert!(!line.contains('\n'), "one line per event: {line}");
            assert_eq!(parse_event(&line).expect("round trip"), event);
        }
    }

    #[test]
    fn version_skew_matches_the_shared_document_policy() {
        let line = render_event(&JournalEvent::JobCompleted { job: 3 });
        let future = line.replace(&format!("\"version\": {FORMAT_VERSION}"), "\"version\": 99");
        assert!(parse_event(&future).unwrap_err().contains("newer"));
        let legacy = line.replace(&format!(", \"version\": {FORMAT_VERSION}"), "");
        assert_ne!(line, legacy);
        assert_eq!(
            parse_event(&legacy).unwrap(),
            JournalEvent::JobCompleted { job: 3 }
        );
        assert!(parse_event("{}").unwrap_err().contains("semint_journal"));
    }

    #[test]
    fn replay_reconstructs_saved_shards_outcomes_and_retries() {
        let text: String = sample_events()
            .iter()
            .map(|e| format!("{}\n", render_event(e)))
            .collect();
        let state = replay(&text).expect("valid journal");
        assert_eq!(state.jobs.len(), 1);
        assert_eq!(state.torn_lines, 0);
        assert_eq!(state.resumes, 1);
        let job = &state.jobs[0];
        assert_eq!(job.spec, sample_spec());
        assert_eq!(job.retries, 1);
        assert_eq!(job.saved.len(), 1);
        assert_eq!(job.saved[&0].0, checkpoint_name(0, 0));
        // Last outcome wins: the post-resume failure overrode the earlier
        // completion.
        assert_eq!(
            job.outcome,
            RecoveredOutcome::Failed("retry budget (2) exhausted".into())
        );
    }

    #[test]
    fn torn_lines_are_counted_and_dropped_wherever_they_sit() {
        let good = render_event(&JournalEvent::Submitted {
            job: 0,
            spec: sample_spec(),
        });
        let saved = render_event(&JournalEvent::ShardSaved {
            job: 0,
            shard: 1,
            attempt: 0,
            path: checkpoint_name(0, 1),
            digest: content_digest(b"x"),
        });
        // A neutralized torn line mid-file and a torn tail: both dropped.
        let half = &saved[..saved.len() / 2];
        let text = format!("{good}\n{half}\n{saved}\n{half}");
        let state = replay(&text).expect("torn lines are tolerated");
        assert_eq!(state.torn_lines, 2);
        assert_eq!(state.jobs[0].saved.len(), 1);
    }

    #[test]
    fn structurally_impossible_events_are_hard_errors() {
        let orphan = render_event(&JournalEvent::JobCompleted { job: 0 });
        assert!(replay(&orphan).unwrap_err().contains("job 0"));
        let wrong_id = render_event(&JournalEvent::Submitted {
            job: 5,
            spec: sample_spec(),
        });
        assert!(replay(&wrong_id).unwrap_err().contains("out of order"));
        let submitted = render_event(&JournalEvent::Submitted {
            job: 0,
            spec: sample_spec(),
        });
        let wild_shard = render_event(&JournalEvent::ShardStarted {
            job: 0,
            shard: 9,
            attempt: 0,
        });
        let err = replay(&format!("{submitted}\n{wild_shard}\n")).unwrap_err();
        assert!(err.contains("shard 9"), "{err}");
    }

    #[test]
    fn open_neutralizes_a_torn_tail_and_appends_survive_it() {
        let dir = std::env::temp_dir().join(format!("semint-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let submitted = render_event(&JournalEvent::Submitted {
            job: 0,
            spec: sample_spec(),
        });
        let torn = &submitted[..submitted.len() - 7];
        std::fs::write(Journal::path_in(&dir), format!("{submitted}\n{torn}")).unwrap();
        let journal = Journal::open(&dir).expect("opens over a torn tail");
        journal
            .append(&JournalEvent::JobCompleted { job: 0 })
            .expect("append after neutralization");
        let text = std::fs::read_to_string(journal.path()).unwrap();
        let state = replay(&text).expect("replays");
        assert_eq!(state.torn_lines, 1, "{text}");
        assert_eq!(state.jobs[0].outcome, RecoveredOutcome::Completed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_digest_is_stable_and_content_sensitive() {
        let a = content_digest(b"case\tsharedmem\nscenarios\t30\n");
        assert!(a.starts_with("fnv1a:"), "{a}");
        assert_eq!(a, content_digest(b"case\tsharedmem\nscenarios\t30\n"));
        assert_ne!(a, content_digest(b"case\tsharedmem\nscenarios\t31\n"));
        assert_eq!(content_digest(b""), "fnv1a:cbf29ce484222325");
    }
}
