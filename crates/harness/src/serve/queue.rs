//! The daemon's bounded FIFO job queue.
//!
//! `semint serve` runs **one job at a time** — parallelism lives *inside* a
//! job, as the fleet of shard workers the supervisor drives — so the queue
//! is a plain FIFO with bounded admission: a [`JobQueue`] holds at most
//! `capacity` unfinished jobs, and `submit` is rejected (backpressure, not
//! blocking) once the daemon is that far behind.  Every accepted job carries
//! its own [`RollingMerge`], so `semint status` can show digests-so-far
//! while shards are still landing.

use std::collections::VecDeque;

use semint_core::case::GenProfile;

use super::merge::RollingMerge;
use super::protocol::JobStatus;
use crate::cases::AnyCase;
use crate::engine::MAX_SEEDS_PER_SWEEP;
use crate::source::{SeedRange, Shard};

/// How an injected fault sabotages its shard's first attempt.  Each kind
/// exercises one branch of the supervisor's death classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker aborts mid-sweep with a nonzero exit (`--die-after`).
    Crash,
    /// The worker goes silent without exiting (`--wedge-after`); only the
    /// heartbeat timeout can catch it.
    Wedge,
    /// The worker exits cleanly but its saved report is garbage
    /// (`--corrupt-save garbage`).
    CorruptReport,
    /// The worker exits cleanly but its saved report is cut mid-line
    /// (`--corrupt-save truncate`).
    TruncateReport,
}

impl FaultKind {
    /// Every kind, in the order the chaos schedule cycles through them.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Crash,
        FaultKind::Wedge,
        FaultKind::CorruptReport,
        FaultKind::TruncateReport,
    ];

    /// The wire/CLI label for this kind.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Wedge => "wedge",
            FaultKind::CorruptReport => "corrupt-report",
            FaultKind::TruncateReport => "truncate-report",
        }
    }

    /// Parses a wire/CLI label back into a kind.
    pub fn from_label(label: &str) -> Result<FaultKind, String> {
        FaultKind::ALL
            .into_iter()
            .find(|kind| kind.label() == label)
            .ok_or_else(|| {
                let known: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
                format!(
                    "unknown fault kind {label:?} (expected one of: {})",
                    known.join(" | ")
                )
            })
    }
}

/// An injected fault for crash-recovery testing: shard `shard`'s *first*
/// attempt is sabotaged per `kind` once `after` scenarios have finished,
/// so the supervisor must classify the death and re-issue the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Which shard index is sabotaged (0-based).
    pub shard: u64,
    /// After how many completed scenarios the fault fires.
    pub after: u64,
    /// How the shard misbehaves.
    pub kind: FaultKind,
}

/// One sweep request as submitted over the wire: a seed range, a *preset*
/// profile name (worker processes rebuild the identical profile by name),
/// and the fan-out/execution shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Seed range `[start, end)`.
    pub seeds: (u64, u64),
    /// Preset profile name (`smoke` / `default` / `deep` / `boundary-heavy`).
    pub profile: String,
    /// Case study name, or `all`.
    pub case: String,
    /// How many shard workers to split the range across; 0 means "one per
    /// daemon worker slot", resolved at submit time.
    pub shards: u64,
    /// `--jobs` threads inside each worker.
    pub jobs: usize,
    /// `--batch` size inside each worker.
    pub batch: usize,
    /// Whether workers run the realizability-model stage.
    pub model_check: bool,
    /// Optional injected fault, for supervision tests and the chaos drill.
    pub fault: Option<FaultPlan>,
}

impl JobSpec {
    /// Validates the spec against everything a worker would reject, so bad
    /// submissions fail at the daemon's front door instead of as a dead
    /// child process.  `workers` resolves `shards == 0`; on success the
    /// returned spec carries the resolved shard count.
    pub fn validated(mut self, workers: usize) -> Result<JobSpec, String> {
        let range = SeedRange::new(self.seeds.0, self.seeds.1)?;
        if range.count() > MAX_SEEDS_PER_SWEEP {
            return Err(format!(
                "seed range {} holds {} seeds, exceeding the per-sweep cap of {MAX_SEEDS_PER_SWEEP}",
                range.spec(),
                range.count()
            ));
        }
        if GenProfile::by_name(&self.profile).is_none() {
            return Err(format!(
                "profile {:?} is not a preset (expected one of: {}); \
                 serve jobs pin preset profiles so workers rebuild them by name",
                self.profile,
                GenProfile::PRESET_NAMES.join(" | ")
            ));
        }
        if self.case != "all" && AnyCase::by_name(&self.case, false).is_none() {
            return Err(format!("unknown case {:?}", self.case));
        }
        if self.jobs == 0 {
            return Err("jobs must be at least 1".into());
        }
        if self.batch == 0 {
            return Err("batch must be at least 1".into());
        }
        if self.shards == 0 {
            self.shards = workers.max(1) as u64;
        }
        // Shard::new is the single source of truth for shard validity.
        Shard::new(range, 0, self.shards)?;
        if let Some(fault) = self.fault {
            if fault.shard >= self.shards {
                return Err(format!(
                    "fault shard {} is out of range (job has {} shards)",
                    fault.shard, self.shards
                ));
            }
            if fault.after == 0 {
                return Err("fault after must be at least 1 scenario".into());
            }
        }
        Ok(self)
    }

    /// The seed range this job sweeps.
    pub fn range(&self) -> SeedRange {
        SeedRange::new(self.seeds.0, self.seeds.1).expect("validated at submit")
    }
}

/// Where a job is in its life cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for its turn.
    Queued,
    /// The supervisor is driving its shard fleet right now.
    Running,
    /// Every shard merged; digests are final.
    Done,
    /// Gave up (a shard exhausted its retries, or results were incomplete).
    Failed(String),
}

impl JobState {
    /// The wire label for this state.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// One accepted job: its spec, life-cycle state, rolling merge, and how
/// many shard re-issues its fleet has needed so far.
#[derive(Debug)]
pub struct Job {
    /// Daemon-assigned id (dense, starting at 0).
    pub id: u64,
    /// The validated spec (shards resolved).
    pub spec: JobSpec,
    /// Current life-cycle state.
    pub state: JobState,
    /// Digests-so-far.
    pub merge: RollingMerge,
    /// Total shard attempts beyond the first, across the whole job.
    pub retries: u64,
    /// Whether this job was rebuilt from the journal by `--resume` rather
    /// than submitted to this daemon process.
    pub recovered: bool,
}

impl Job {
    /// The job's externally visible snapshot, as `semint status` shows it.
    pub fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            state: self.state.label().to_string(),
            error: match &self.state {
                JobState::Failed(e) => Some(e.clone()),
                _ => None,
            },
            shards_done: self.merge.shards_done(),
            shards_total: self.merge.shards_total(),
            retries: self.retries,
            scenarios: self.merge.report().scenarios(),
            failures: self.merge.report().failure_count() as u64,
            digests: self.merge.digests(),
            report_tsv: self.merge.report().to_tsv(),
            recovered: self.recovered,
        }
    }
}

/// The daemon's job table: a bounded FIFO of unfinished jobs plus the
/// finished ones (kept so `status` can report completed digests until
/// shutdown).
#[derive(Debug)]
pub struct JobQueue {
    capacity: usize,
    workers: usize,
    jobs: Vec<Job>,
    pending: VecDeque<u64>,
    active: Option<u64>,
    draining: bool,
}

impl JobQueue {
    /// An empty queue admitting at most `capacity` unfinished jobs, with
    /// `workers` worker slots (resolves `shards: 0` at submit).
    pub fn new(capacity: usize, workers: usize) -> JobQueue {
        JobQueue {
            capacity: capacity.max(1),
            workers: workers.max(1),
            jobs: Vec::new(),
            pending: VecDeque::new(),
            active: None,
            draining: false,
        }
    }

    /// How many jobs are accepted but not yet finished.
    fn unfinished(&self) -> usize {
        self.pending.len() + usize::from(self.active.is_some())
    }

    /// Admits a job, or rejects it: invalid specs and a full queue both
    /// bounce at the front door (backpressure is an error the client sees,
    /// never an unbounded buffer).
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, String> {
        if self.draining {
            return Err("daemon is draining; new jobs are not accepted".into());
        }
        if self.unfinished() >= self.capacity {
            return Err(format!(
                "queue is full ({} of {} jobs unfinished); retry after a job completes",
                self.unfinished(),
                self.capacity
            ));
        }
        let spec = spec.validated(self.workers)?;
        let id = self.jobs.len() as u64;
        let merge = RollingMerge::new(spec.shards);
        self.jobs.push(Job {
            id,
            spec,
            state: JobState::Queued,
            merge,
            retries: 0,
            recovered: false,
        });
        self.pending.push_back(id);
        Ok(id)
    }

    /// Re-admits a journal-recovered job during `--resume`, preserving its
    /// pre-crash merge progress and retry count.  Restores bypass the
    /// capacity check — they were admitted once already — but must arrive
    /// in id order, before the daemon starts scheduling: a restore can
    /// never displace live work.
    pub fn restore(
        &mut self,
        spec: JobSpec,
        state: JobState,
        merge: RollingMerge,
        retries: u64,
    ) -> Result<u64, String> {
        if self.active.is_some() {
            return Err("cannot restore jobs while one is running".into());
        }
        if state == JobState::Running {
            return Err("a recovered job is never mid-run; restore it as queued".into());
        }
        let id = self.jobs.len() as u64;
        let queued = state == JobState::Queued;
        self.jobs.push(Job {
            id,
            spec,
            state,
            merge,
            retries,
            recovered: true,
        });
        if queued {
            self.pending.push_back(id);
        }
        Ok(id)
    }

    /// Fails a not-yet-finished job outright (used when its `job-submitted`
    /// journal entry could not be made durable: an unjournaled job would
    /// silently vanish on resume, so it must not run).
    pub fn fail_job(&mut self, id: u64, reason: String) {
        self.pending.retain(|&pending| pending != id);
        if self.active == Some(id) {
            self.active = None;
        }
        if let Some(job) = self.jobs.get_mut(id as usize) {
            job.state = JobState::Failed(reason);
        }
    }

    /// Claims the next job for the supervisor (FIFO, one at a time).
    pub fn take_next(&mut self) -> Option<u64> {
        if self.active.is_some() {
            return None;
        }
        let id = self.pending.pop_front()?;
        self.jobs[id as usize].state = JobState::Running;
        self.active = Some(id);
        Some(id)
    }

    /// Marks the active job finished.
    pub fn finish_active(&mut self, result: Result<(), String>) {
        if let Some(id) = self.active.take() {
            self.jobs[id as usize].state = match result {
                Ok(()) => JobState::Done,
                Err(e) => JobState::Failed(e),
            };
        }
    }

    /// Stops admitting jobs; already-accepted ones still run to completion.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// Whether the daemon has begun draining.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// True when draining and every accepted job has finished — the daemon
    /// can exit.
    pub fn is_drained(&self) -> bool {
        self.draining && self.unfinished() == 0
    }

    /// Immutable access to one job.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(id as usize)
    }

    /// Mutable access to one job (the supervisor merges shard reports and
    /// bumps retry counts through this).
    pub fn job_mut(&mut self, id: u64) -> Option<&mut Job> {
        self.jobs.get_mut(id as usize)
    }

    /// Snapshots of every job, oldest first.
    pub fn snapshot(&self) -> Vec<JobStatus> {
        self.jobs.iter().map(Job::status).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            seeds: (0, 40),
            profile: "default".into(),
            case: "all".into(),
            shards: 0,
            jobs: 1,
            batch: 1,
            model_check: false,
            fault: None,
        }
    }

    #[test]
    fn fifo_order_one_active_job_and_bounded_admission() {
        let mut queue = JobQueue::new(2, 3);
        let a = queue.submit(spec()).expect("first job fits");
        let b = queue.submit(spec()).expect("second job fits");
        let err = queue.submit(spec()).expect_err("third job bounces");
        assert!(err.contains("full"), "{err}");
        assert_eq!(queue.take_next(), Some(a));
        assert_eq!(queue.take_next(), None, "one job at a time");
        // shards: 0 resolved to the worker count at submit.
        assert_eq!(queue.job(a).unwrap().spec.shards, 3);
        queue.finish_active(Ok(()));
        assert_eq!(queue.job(a).unwrap().state, JobState::Done);
        assert_eq!(queue.take_next(), Some(b));
        queue.finish_active(Err("boom".into()));
        assert_eq!(queue.job(b).unwrap().state.label(), "failed");
        // Finished jobs free capacity.
        queue.submit(spec()).expect("capacity is back");
    }

    #[test]
    fn drain_refuses_new_jobs_but_finishes_accepted_ones() {
        let mut queue = JobQueue::new(4, 2);
        queue.submit(spec()).unwrap();
        queue.drain();
        assert!(queue.draining());
        assert!(!queue.is_drained(), "the accepted job still has to run");
        let err = queue.submit(spec()).expect_err("draining refuses jobs");
        assert!(err.contains("draining"), "{err}");
        let id = queue.take_next().expect("accepted job still runs");
        queue.finish_active(Ok(()));
        assert!(queue.is_drained());
        assert_eq!(queue.job(id).unwrap().state, JobState::Done);
    }

    #[test]
    fn invalid_specs_bounce_at_submit() {
        let mut queue = JobQueue::new(4, 2);
        let cases: Vec<(JobSpec, &str)> = vec![
            (
                JobSpec {
                    seeds: (9, 3),
                    ..spec()
                },
                "seed",
            ),
            (
                JobSpec {
                    profile: "custom".into(),
                    ..spec()
                },
                "preset",
            ),
            (
                JobSpec {
                    case: "nope".into(),
                    ..spec()
                },
                "case",
            ),
            (JobSpec { jobs: 0, ..spec() }, "jobs"),
            (JobSpec { batch: 0, ..spec() }, "batch"),
            (
                JobSpec {
                    shards: 2,
                    fault: Some(FaultPlan {
                        shard: 2,
                        after: 1,
                        kind: FaultKind::Crash,
                    }),
                    ..spec()
                },
                "fault shard",
            ),
            (
                JobSpec {
                    fault: Some(FaultPlan {
                        shard: 0,
                        after: 0,
                        kind: FaultKind::Wedge,
                    }),
                    ..spec()
                },
                "at least 1",
            ),
        ];
        for (bad, needle) in cases {
            let err = queue.submit(bad.clone()).expect_err("must bounce");
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
        assert_eq!(queue.snapshot().len(), 0, "nothing was admitted");
    }

    #[test]
    fn job_status_snapshots_carry_the_rolling_merge() {
        let mut queue = JobQueue::new(4, 2);
        let id = queue
            .submit(JobSpec {
                shards: 3,
                ..spec()
            })
            .unwrap();
        let status = &queue.snapshot()[id as usize];
        assert_eq!(status.state, "queued");
        assert_eq!(status.shards_total, 3);
        assert_eq!(status.shards_done, 0);
        assert_eq!(status.scenarios, 0);
        assert!(status.digests.is_empty());
        assert!(!status.recovered, "a live submit is not a recovery");
    }

    #[test]
    fn fault_kind_labels_round_trip_and_bad_labels_bounce() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_label(kind.label()), Ok(kind));
        }
        let err = FaultKind::from_label("segfault").expect_err("unknown kind");
        assert!(err.contains("crash | wedge"), "{err}");
    }

    #[test]
    fn restore_preserves_progress_and_marks_jobs_recovered() {
        let mut queue = JobQueue::new(1, 2);
        let validated = spec().validated(2).unwrap();
        // Capacity 1 is no obstacle: restores re-admit what was already
        // admitted before the crash.
        let a = queue
            .restore(validated.clone(), JobState::Queued, RollingMerge::new(2), 1)
            .expect("queued job restores");
        let b = queue
            .restore(validated.clone(), JobState::Done, RollingMerge::new(2), 0)
            .expect("settled job restores");
        assert_eq!((a, b), (0, 1));
        let snapshot = queue.snapshot();
        assert!(snapshot.iter().all(|s| s.recovered));
        assert_eq!(snapshot[0].retries, 1, "pre-crash retries survive");
        assert_eq!(snapshot[1].state, "done");
        // Only the queued restore is scheduled; the settled one is history.
        assert_eq!(queue.take_next(), Some(a));
        assert_eq!(queue.take_next(), None);
        let err = queue
            .restore(validated.clone(), JobState::Queued, RollingMerge::new(2), 0)
            .expect_err("restores must precede scheduling");
        assert!(err.contains("running"), "{err}");
        queue.finish_active(Ok(()));
        let err = queue
            .restore(validated, JobState::Running, RollingMerge::new(2), 0)
            .expect_err("running is not a restorable state");
        assert!(err.contains("queued"), "{err}");
    }

    #[test]
    fn fail_job_unschedules_and_records_the_reason() {
        let mut queue = JobQueue::new(4, 2);
        let id = queue.submit(spec()).unwrap();
        queue.fail_job(id, "journal append failed".into());
        assert_eq!(queue.take_next(), None, "failed jobs never run");
        let status = &queue.snapshot()[id as usize];
        assert_eq!(status.state, "failed");
        assert_eq!(status.error.as_deref(), Some("journal append failed"));
        // The failed job no longer counts against capacity.
        for _ in 0..4 {
            queue.submit(spec()).expect("capacity is free again");
        }
    }
}
