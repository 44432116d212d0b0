//! The `semint` command-line interface.
//!
//! One entry point over all three case studies:
//!
//! ```text
//! semint run   --case sharedmem --seed 42           # one scenario, verbose
//! semint check --case all --seeds 0..50             # model-check a seed range
//! semint sweep --seeds 0..200 --jobs 4              # parallel sweep, aggregate report
//! semint sweep --profile deep                       # deep-type population (glue cache on the hot path)
//! semint sweep --seeds 0..200 --shard 0/2           # this process takes half the range
//! semint sweep --trace t.jsonl --progress           # JSONL event stream + live stderr line
//! semint profile t.jsonl                            # aggregate trace files offline
//! semint report a.tsv b.tsv                         # merge + re-render saved reports
//! semint serve --workers 4 --log serve.log          # sweep-orchestration daemon (localhost TCP)
//! semint serve --state-dir state                    # crash-safe daemon: journal + checkpoints
//! semint serve --state-dir state --resume           # replay the journal, finish interrupted jobs
//! semint submit --seeds 0..500 --profile deep       # queue a sweep job on the daemon
//! semint status --job 0 --wait                      # follow it to completion, digests included
//! semint submit --shutdown                          # drain accepted jobs, then exit
//! semint chaos --seed 7 --rounds 2                  # deterministic kill-and-resume drill
//! ```
//!
//! Argument parsing is hand-rolled (the workspace is offline; no clap).

use semint_core::case::{CaseStudy, GenProfile};
use semint_core::stats::SweepReport;
use semint_harness::cases::AnyCase;
use semint_harness::engine::{
    run_scenario, sweep_all, sweep_all_observed, SweepConfig, MAX_SEEDS_PER_SWEEP,
};
use semint_harness::profile::{absorb_trace, render_profile, TraceProfile};
use semint_harness::report::{render_rolling, render_sweep};
use semint_harness::serve::{
    self, ChaosConfig, Daemon, FaultKind, FaultPlan, JobSpec, JobStatus, Request, Response,
    ServeConfig, DEFAULT_PORT,
};
use semint_harness::source::{ScenarioSource, SeedRange, Shard};
use semint_harness::trace::SweepObserver;
use semint_harness::{out, outln};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
semint — unified scenario engine for the PLDI 2022 interoperability case studies

USAGE:
    semint run   [--case NAME] --seed N [options]     run one scenario, verbosely, with per-stage
                                                      wall-clock (where does this seed spend time?)
    semint check [--case NAME] [--seeds A..B] [options]
                                                      Lemma 3.1 catalogue + model-check a seed range
    semint sweep [--case NAME] [--seeds A..B] [--jobs J] [--save PATH] [options]
                                                      parallel sweep with aggregate statistics
    semint profile TRACE...                           aggregate --trace JSONL files: per-stage totals,
                                                      per-case opcode-class histograms, allocation
                                                      stats, hottest seeds by steps
    semint report PATH...                             render (and, for several PATHs, merge) reports
                                                      saved by `sweep --save`;
                                                      sharded sweeps merge into the digests of the
                                                      unsharded sweep
    semint serve  [--port P] [--workers W] [options]  long-running sweep-orchestration daemon: a FIFO
                                                      job queue whose jobs run as supervised fleets of
                                                      `semint sweep --shard` worker processes; crashed
                                                      or wedged workers are killed and their exact seed
                                                      slice re-issued, and the merged digests are
                                                      byte-identical to a one-shot sweep
    semint submit [--port P] [--seeds A..B] [options] queue a sweep job on a running daemon
                                                      (--shutdown drains it instead)
    semint status [--port P] [--job N] [--wait]       job states and rolling merged digests; with no
                                                      --job, every known job is listed (including
                                                      journal-recovered jobs after --resume);
                                                      --wait follows one job to completion
    semint chaos  [--seed S] [--rounds N] [options]   deterministic crash drill: per round, derive a
                                                      fault schedule from the seed, run a faulted job
                                                      on a real daemon, SIGKILL the daemon mid-job,
                                                      restart it with --resume, and assert the merged
                                                      digests and VM counters are byte-identical to an
                                                      uninterrupted one-shot sweep
    semint help                                       this text

SCENARIO SUPPLY:
    --seeds A..B     half-open seed range                    (default: 0..100)
    --shard K/N      take the K-th of N deterministic slices of the seed range;
                     the N shards are disjoint, cover the range, and their saved
                     reports merge (`semint report`) into the unsharded digests
    The seeds plus the generation profile below name the whole scenario
    population: generation is deterministic in (case, seed, profile), and
    the first line a sweep prints spells out both.

GENERATION PROFILE:
    --profile NAME   smoke | default | deep | boundary-heavy (default: default)
                     deep generates source types of depth >= 4, putting
                     compound-glue derivation on the sweep's critical path

OPTIONS:
    --case NAME      sharedmem | affine | memgc | all        (default: all)
    --seed N         single seed (run); the drill's fault-schedule seed (chaos)
    --jobs J         worker threads                          (default: 4)
    --batch N        compiled artifacts executed per reused machine
                     (default: 1 = one machine per scenario); batching
                     amortises machine setup and never changes digests
    --no-model-check skip the realizability-model stage (run, sweep, submit)
    --time           collect per-stage wall-clock totals
                     (generate/typecheck/compile/run/model-check);
                     deterministic VM counters are always collected
    --trace PATH     stream one JSONL event per scenario (plus periodic
                     sweep-progress heartbeats) to PATH from a dedicated
                     writer thread (sweep only); implies --time; traced and
                     untraced sweeps agree on digests and counters exactly
    --progress       rolling stderr progress line (scenarios/s, safe-rate,
                     glue hit-rate, ETA)
    --broken         sabotage a conversion rule per case study; failing
                     scenarios are reported with shrunk counterexamples
    --save PATH      save the sweep report as TSV (for `status --job N`, save
                     the job's merged report)

SERVE (daemon, submit, status):
    --port P         daemon TCP port on 127.0.0.1                (default: 7844; 0 = ephemeral)
    --workers W      concurrent shard worker processes per job   (default: 4)
    --queue-capacity C  bounded admission: at most C unfinished jobs (default: 16)
    --worker-timeout-ms T  a worker with no heartbeat for T ms is wedged,
                     killed, and its slice re-issued              (default: 30000)
    --max-retries R  re-issues per shard before the job fails     (default: 2)
    --log PATH       JSONL daemon log (job/shard lifecycle events)
    --state-dir DIR  durable state: an fsync'd JSONL job journal plus
                     checkpointed shard reports live here; with it the daemon
                     survives its own death (see --resume)
    --resume         replay the state dir's journal at startup: digest-verified
                     checkpoints are adopted as merged shards, interrupted jobs
                     are re-enqueued, and only unaccounted shards re-run
    --shards N       split a submitted job into N shard workers   (default: the
                     daemon's worker count)
    --job N          restrict `status` to job N
    --wait           poll `status --job N` until the job is done or failed
    --shutdown       `submit --shutdown` drains the daemon: accepted jobs
                     finish, new ones are refused, then it exits
    --rounds N       (chaos) kill-and-resume rounds to run        (default: 1)

FAULT INJECTION (testing):
    --die-after N    (sweep) abort the process mid-sweep after N scenarios —
                     a deterministic injected crash
    --wedge-after N  (sweep) go silent mid-sweep after N scenarios without
                     exiting — only the heartbeat timeout catches it
                     (an orphaned worker exits once its parent dies)
    --corrupt-save MODE  (sweep) sabotage the --save report after writing it:
                     `garbage` replaces it wholesale, `truncate` cuts it
                     mid-line so it cannot parse
    --fault-shard K / --fault-after N
                     (submit) sabotage shard K's first attempt after N
                     scenarios, forcing a supervised re-issue
    --fault-kind KIND  crash | wedge | corrupt-report | truncate-report —
                     how the sabotaged shard misbehaves       (default: crash)

Each subcommand takes only the flags it honours; any other flag is a usage error.

EXIT STATUS: 0 on success, 1 if any scenario or conversion check failed, 2 on usage errors.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => cmd_run(rest),
        "check" => cmd_check(rest),
        "sweep" => cmd_sweep(rest),
        "profile" => cmd_profile(rest),
        "report" => cmd_report(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "chaos" => cmd_chaos(rest),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(unknown_command(other)),
    };
    match result {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Every subcommand the dispatcher knows, for the unknown-command hint.
const COMMANDS: [&str; 10] = [
    "run", "check", "sweep", "profile", "report", "serve", "submit", "status", "chaos", "help",
];

/// Plain Levenshtein edit distance, small enough to hand-roll (the CLI is
/// dependency-free) and only ever run on two short command words.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            row.push(substitute.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The unknown-command error, with a "did you mean" hint when some known
/// subcommand is plausibly what the user typed.
fn unknown_command(given: &str) -> String {
    let closest = COMMANDS
        .iter()
        .map(|cmd| (edit_distance(given, cmd), *cmd))
        .min()
        .expect("COMMANDS is nonempty");
    // A hint beyond half the word's length would be noise, not help.
    if closest.0 * 2 <= given.chars().count() {
        format!(
            "unknown command `{given}`; did you mean `{}`? (try `semint help`)",
            closest.1
        )
    } else {
        format!("unknown command `{given}`; try `semint help`")
    }
}

/// Options shared by the scenario-driven subcommands.
#[derive(Debug)]
struct Options {
    case: String,
    range: (u64, u64),
    shard: Option<(u64, u64)>,
    seed: Option<u64>,
    jobs: usize,
    batch: usize,
    profile: GenProfile,
    /// On unless `--no-model-check`, which `check` rejects.
    model_check: bool,
    time: bool,
    broken: bool,
    save: Option<String>,
    trace: Option<String>,
    progress: bool,
    // serve / submit / status / chaos
    port: u16,
    workers: usize,
    queue_capacity: usize,
    /// Tri-state so each subcommand picks its own default (`serve`: 30000,
    /// `chaos`: 5000 — drills want wedges detected fast).
    worker_timeout_ms: Option<u64>,
    max_retries: u64,
    log: Option<String>,
    /// `--state-dir DIR`: where the daemon's journal and shard checkpoints
    /// live (chaos uses it as the root for per-round state dirs).
    state_dir: Option<String>,
    /// `--resume`: replay the state dir's journal at startup.
    resume: bool,
    shards: u64,
    job: Option<u64>,
    wait: bool,
    shutdown: bool,
    /// `--rounds N`: how many kill-and-resume rounds `chaos` runs.
    rounds: u64,
    fault_shard: Option<u64>,
    fault_after: Option<u64>,
    /// `--fault-kind`: how the sabotaged shard misbehaves (submit).
    fault_kind: Option<FaultKind>,
    /// `--die-after N` fault injection (sweep): abort the process after N
    /// scenarios, for supervision tests.
    die_after: Option<u64>,
    /// `--wedge-after N` fault injection (sweep): go silent — alive but
    /// heartbeat-less — after N scenarios, for wedge-detection tests.
    wedge_after: Option<u64>,
    /// `--corrupt-save MODE` fault injection (sweep): sabotage the saved
    /// report after writing it (`garbage` | `truncate`).
    corrupt_save: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            case: "all".into(),
            range: (0, 100),
            shard: None,
            seed: None,
            jobs: 4,
            batch: 1,
            profile: GenProfile::standard(),
            model_check: true,
            time: false,
            broken: false,
            save: None,
            trace: None,
            progress: false,
            port: DEFAULT_PORT,
            workers: 4,
            queue_capacity: 16,
            worker_timeout_ms: None,
            max_retries: 2,
            log: None,
            state_dir: None,
            resume: false,
            shards: 0,
            job: None,
            wait: false,
            shutdown: false,
            rounds: 1,
            fault_shard: None,
            fault_after: None,
            fault_kind: None,
            die_after: None,
            wedge_after: None,
            corrupt_save: None,
        }
    }
}

/// The flags each option-taking subcommand honours.  `parse_options`
/// refuses every other flag, so no subcommand silently ignores one.
#[rustfmt::skip]
const FLAGS: [(&str, &[&str]); 7] = [
    ("run", &["--case", "--seed", "--profile", "--no-model-check", "--broken"]),
    ("check", &["--case", "--seeds", "--shard", "--jobs", "--batch", "--profile", "--time", "--broken"]),
    ("sweep", &["--case", "--seeds", "--shard", "--jobs", "--batch", "--profile", "--no-model-check",
                "--time", "--broken", "--save", "--trace", "--progress", "--die-after", "--wedge-after",
                "--corrupt-save"]),
    ("serve", &["--port", "--workers", "--queue-capacity", "--worker-timeout-ms", "--max-retries", "--log",
                "--state-dir", "--resume"]),
    ("submit", &["--port", "--shutdown", "--case", "--seeds", "--profile", "--shards", "--jobs", "--batch",
                 "--no-model-check", "--fault-shard", "--fault-after", "--fault-kind"]),
    ("status", &["--port", "--job", "--wait", "--save"]),
    ("chaos", &["--seed", "--rounds", "--case", "--seeds", "--profile", "--shards", "--jobs", "--workers",
                "--batch", "--worker-timeout-ms", "--state-dir"]),
];

fn parse_options(command: &str, args: &[String]) -> Result<Options, String> {
    let (_, flags) = FLAGS
        .iter()
        .find(|(name, _)| *name == command)
        .expect("every option-taking subcommand has a flag table");
    let mut opts = Options::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if !flags.contains(&flag.as_str()) {
            return Err(format!(
                "`semint {command}` does not take `{flag}`; its flags are: {}",
                flags.join(" ")
            ));
        }
        let mut value = |name: &str| {
            iter.next()
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--case" => opts.case = value("--case")?.to_string(),
            "--seeds" => {
                let spec = value("--seeds")?;
                let (a, b) = spec
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds expects A..B, got `{spec}`"))?;
                let start: u64 = a.parse().map_err(|e| format!("--seeds start: {e}"))?;
                let end: u64 = b.parse().map_err(|e| format!("--seeds end: {e}"))?;
                SeedRange::new(start, end).map_err(|e| format!("--seeds: {e}"))?;
                if end - start > MAX_SEEDS_PER_SWEEP {
                    return Err(format!(
                        "--seeds range `{spec}` has more than {MAX_SEEDS_PER_SWEEP} seeds"
                    ));
                }
                opts.range = (start, end);
            }
            "--shard" => {
                let spec = value("--shard")?;
                let (k, n) = spec
                    .split_once('/')
                    .ok_or_else(|| format!("--shard expects K/N, got `{spec}`"))?;
                let index: u64 = k.parse().map_err(|e| format!("--shard index: {e}"))?;
                let of: u64 = n.parse().map_err(|e| format!("--shard count: {e}"))?;
                if of == 0 {
                    return Err("--shard count must be at least 1".into());
                }
                if index >= of {
                    return Err(format!(
                        "--shard index {index} is out of range for {of} shards (use 0..{of})"
                    ));
                }
                opts.shard = Some((index, of));
            }
            "--seed" => {
                opts.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--jobs" => {
                opts.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--batch" => {
                opts.batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?;
                // Rejected, never clamped.
                if opts.batch == 0 {
                    return Err(
                        "--batch must be at least 1 (a zero-scenario batch can run nothing)".into(),
                    );
                }
            }
            "--profile" => {
                let name = value("--profile")?;
                opts.profile = GenProfile::by_name(name).ok_or_else(|| {
                    format!(
                        "unknown profile `{name}` (expected one of: {})",
                        GenProfile::PRESET_NAMES.join(" | ")
                    )
                })?;
            }
            "--no-model-check" => opts.model_check = false,
            "--time" => opts.time = true,
            "--broken" => opts.broken = true,
            "--save" => opts.save = Some(value("--save")?.to_string()),
            "--trace" => opts.trace = Some(value("--trace")?.to_string()),
            "--progress" => opts.progress = true,
            "--port" => {
                opts.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
            }
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--queue-capacity" => {
                opts.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?;
                if opts.queue_capacity == 0 {
                    return Err("--queue-capacity must be at least 1".into());
                }
            }
            "--worker-timeout-ms" => {
                let ms: u64 = value("--worker-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--worker-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--worker-timeout-ms must be at least 1".into());
                }
                opts.worker_timeout_ms = Some(ms);
            }
            "--max-retries" => {
                opts.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?;
            }
            "--log" => opts.log = Some(value("--log")?.to_string()),
            "--state-dir" => opts.state_dir = Some(value("--state-dir")?.to_string()),
            "--resume" => opts.resume = true,
            "--rounds" => {
                opts.rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
                if opts.rounds == 0 {
                    return Err("--rounds must be at least 1".into());
                }
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--job" => {
                opts.job = Some(value("--job")?.parse().map_err(|e| format!("--job: {e}"))?);
            }
            "--wait" => opts.wait = true,
            "--shutdown" => opts.shutdown = true,
            "--fault-shard" => {
                opts.fault_shard = Some(
                    value("--fault-shard")?
                        .parse()
                        .map_err(|e| format!("--fault-shard: {e}"))?,
                );
            }
            "--fault-after" => {
                opts.fault_after = Some(
                    value("--fault-after")?
                        .parse()
                        .map_err(|e| format!("--fault-after: {e}"))?,
                );
            }
            "--fault-kind" => {
                opts.fault_kind = Some(FaultKind::from_label(value("--fault-kind")?)?);
            }
            "--die-after" => {
                let n: u64 = value("--die-after")?
                    .parse()
                    .map_err(|e| format!("--die-after: {e}"))?;
                if n == 0 {
                    return Err("--die-after must be at least 1 scenario".into());
                }
                opts.die_after = Some(n);
            }
            "--wedge-after" => {
                let n: u64 = value("--wedge-after")?
                    .parse()
                    .map_err(|e| format!("--wedge-after: {e}"))?;
                if n == 0 {
                    return Err("--wedge-after must be at least 1 scenario".into());
                }
                opts.wedge_after = Some(n);
            }
            "--corrupt-save" => {
                let mode = value("--corrupt-save")?;
                if !matches!(mode, "garbage" | "truncate") {
                    return Err(format!(
                        "--corrupt-save expects `garbage` or `truncate`, got `{mode}`"
                    ));
                }
                opts.corrupt_save = Some(mode.to_string());
            }
            other => unreachable!("flag table entry `{other}` has no parse arm"),
        }
    }
    Ok(opts)
}

fn selected_cases(opts: &Options) -> Result<Vec<AnyCase>, String> {
    if opts.case == "all" {
        Ok(AnyCase::all(opts.broken))
    } else {
        AnyCase::by_name(&opts.case, opts.broken)
            .map(|c| vec![c])
            .ok_or_else(|| {
                format!(
                    "unknown case study `{}` ({} | all)",
                    opts.case,
                    AnyCase::NAMES.join(" | ")
                )
            })
    }
}

/// Builds the scenario source the options describe: a shard of the seed
/// range, or the plain range.
fn build_source(opts: &Options) -> Result<Box<dyn ScenarioSource>, String> {
    let range = SeedRange::new(opts.range.0, opts.range.1).map_err(|e| format!("--seeds: {e}"))?;
    match opts.shard {
        Some((index, of)) => Ok(Box::new(
            Shard::new(range, index, of).map_err(|e| format!("--shard: {e}"))?,
        )),
        None => Ok(Box::new(range)),
    }
}

/// The friendly version of the engine's sweep-size assert: the per-range
/// check in `parse_options` cannot see the case count, so a range below
/// `MAX_SEEDS_PER_SWEEP` can still exceed it once multiplied across cases.
fn check_sweep_size(cases: &[AnyCase], source: &dyn ScenarioSource) -> Result<(), String> {
    let names: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let total = source.total(&names);
    if total > MAX_SEEDS_PER_SWEEP {
        return Err(format!(
            "{} supplies {total} scenarios across {} case studies, which exceeds the \
             per-sweep limit of {MAX_SEEDS_PER_SWEEP}; narrow the range, shard it, or \
             sweep one case at a time",
            source.describe(),
            cases.len()
        ));
    }
    Ok(())
}

fn sweep_config(opts: &Options) -> SweepConfig {
    SweepConfig {
        jobs: opts.jobs,
        profile: opts.profile,
        model_check: opts.model_check,
        time: opts.time,
        batch: opts.batch,
    }
}

/// Builds the `--trace`/`--progress` observer when either flag was given.
fn build_observer(
    opts: &Options,
    cases: &[AnyCase],
    source: &dyn ScenarioSource,
) -> Result<Option<SweepObserver>, String> {
    if opts.trace.is_none()
        && !opts.progress
        && opts.die_after.is_none()
        && opts.wedge_after.is_none()
    {
        return Ok(None);
    }
    let names: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let total = source.total(&names);
    SweepObserver::new(total, opts.trace.as_deref().map(Path::new), opts.progress)
        .map(|observer| {
            Some(
                observer
                    .with_fault(opts.die_after)
                    .with_wedge(opts.wedge_after),
            )
        })
        .map_err(|e| format!("opening trace file: {e}"))
}

/// Settles an observer at sweep end: flushes and joins the trace writer
/// thread, surfacing any I/O error it hit.
fn finish_observer(observer: Option<SweepObserver>) -> Result<(), String> {
    match observer {
        None => Ok(()),
        Some(observer) => observer.finish().map_err(|e| format!("writing trace: {e}")),
    }
}

/// `semint run`: one scenario, spelled out — always with per-stage
/// wall-clock, so a single-seed investigation shows where the time goes
/// without a whole `--time`d sweep.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("run", args)?;
    let seed = opts.seed.ok_or("`semint run` needs --seed N")?;
    let cases = selected_cases(&opts)?;
    let cfg = SweepConfig {
        time: true,
        ..sweep_config(&opts)
    };
    let mut clean = true;
    for case in &cases {
        // Generation is deterministic: this untimed copy is only printed;
        // the timed run below generates its own.
        let scenario = case.generate(seed, &opts.profile);
        outln!("case {}", case.name());
        outln!("  seed    {seed}");
        outln!("  profile {}", opts.profile);
        outln!("  type    {}", scenario.ty);
        outln!("  program {}", scenario.program);
        let record = run_scenario(case, seed, &cfg);
        if let Some(stats) = &record.stats {
            outln!("  outcome {} after {} steps", stats.outcome, stats.steps);
            let c = &stats.counters;
            outln!(
                "  heap    allocs {} · frees {} · reuses {} · peak live {}",
                c.heap_allocs,
                c.heap_frees,
                c.heap_reuses,
                c.heap_peak_live
            );
        }
        outln!("  boundaries {}", record.boundaries);
        if let Some(timings) = &record.timings {
            outln!("  stage wall-clock");
            for (label, ns) in timings.stages() {
                outln!("    {label:<11} {:.3} ms", ns as f64 / 1_000_000.0);
            }
            outln!(
                "    {:<11} {:.3} ms",
                "total",
                timings.total_ns() as f64 / 1_000_000.0
            );
        }
        match &record.failure {
            None => outln!("  verdict OK"),
            Some(failure) => {
                clean = false;
                outln!("  verdict FAILED [{}] {}", failure.stage, failure.reason);
                outln!(
                    "  shrunk counterexample ({} steps): {}",
                    failure.shrink_steps,
                    failure.shrunk
                );
            }
        }
    }
    Ok(clean)
}

/// `semint check`: the conversion catalogue (Lemma 3.1) plus a model-checked
/// scenario set.
fn cmd_check(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("check", args)?;
    let cases = selected_cases(&opts)?;
    let source = build_source(&opts)?;
    let cfg = sweep_config(&opts);
    let mut clean = true;
    for case in &cases {
        match case.check_conversions() {
            Ok(()) => outln!("case {}: conversion catalogue OK", case.name()),
            Err(failure) => {
                clean = false;
                outln!("case {}: conversion catalogue FAILED", case.name());
                outln!("  {failure}");
            }
        }
    }
    check_sweep_size(&cases, source.as_ref())?;
    let report = sweep_all(&cases, source.as_ref(), &cfg);
    out!("{}", render_sweep(&report));
    Ok(clean && report.failure_count() == 0)
}

/// `semint sweep`: the parallel batch run.
fn cmd_sweep(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("sweep", args)?;
    if opts.corrupt_save.is_some() && opts.save.is_none() {
        return Err("--corrupt-save sabotages the --save report; give --save PATH too".into());
    }
    let cases = selected_cases(&opts)?;
    let source = build_source(&opts)?;
    let mut cfg = sweep_config(&opts);
    // A trace event carries per-stage micros, so tracing implies timing
    // (timing never changes digests, so this is safe to force).
    if opts.trace.is_some() {
        cfg.time = true;
    }
    check_sweep_size(&cases, source.as_ref())?;
    outln!("sweep: {} · profile {}", source.describe(), cfg.profile);
    let observer = build_observer(&opts, &cases, source.as_ref())?;
    let report = sweep_all_observed(&cases, source.as_ref(), &cfg, observer.as_ref());
    finish_observer(observer)?;
    if let Some(path) = &opts.trace {
        outln!("trace saved: {path}");
    }
    out!("{}", render_sweep(&report));
    for case in &report.cases {
        outln!("digest: {}", case.digest());
    }
    if let Some(path) = &opts.save {
        std::fs::write(path, report.to_tsv()).map_err(|e| format!("saving {path}: {e}"))?;
        outln!("saved: {path}");
        if let Some(mode) = &opts.corrupt_save {
            corrupt_saved_report(path, mode)?;
        }
    }
    Ok(report.failure_count() == 0)
}

/// `--corrupt-save` fault injection: sabotages an already-saved report so
/// the daemon's validation (and, for checkpoints, digest verification) has
/// something real to catch.  `garbage` replaces the report wholesale;
/// `truncate` cuts it mid-line — a dangling key with no value — so
/// `SweepReport::from_tsv` reliably *fails* instead of parsing a
/// smaller-but-valid report that would slip past everything except the
/// job-level completeness check.
fn corrupt_saved_report(path: &str, mode: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("corrupting {path}: {e}"))?;
    let corrupted = match mode {
        "garbage" => "this is not a sweep report\n".to_string(),
        _ => {
            let lines: Vec<&str> = text.lines().collect();
            let mut out = lines[..lines.len() / 2].join("\n");
            out.push_str("\nscenario");
            out
        }
    };
    std::fs::write(path, corrupted).map_err(|e| format!("corrupting {path}: {e}"))?;
    eprintln!("[fault] --corrupt-save {mode}: sabotaged the saved report at {path}");
    Ok(())
}

/// `semint profile`: offline aggregation of one or more `--trace` files.
fn cmd_profile(args: &[String]) -> Result<bool, String> {
    if args.is_empty() {
        return Err(
            "`semint profile` needs at least one TRACE file written by `sweep --trace`".into(),
        );
    }
    let mut profile = TraceProfile::default();
    for path in args {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        absorb_trace(&mut profile, &text).map_err(|e| format!("{path}: {e}"))?;
    }
    if profile.scenarios == 0 && profile.heartbeats == 0 {
        return Err("the given trace files contain no events".into());
    }
    out!("{}", render_profile(&profile));
    Ok(true)
}

/// `semint report`: render saved sweeps, merging when several are given
/// (per-shard saves merge into the unsharded digests).  Reads the TSV of
/// `sweep --save`.
fn cmd_report(args: &[String]) -> Result<bool, String> {
    if args.is_empty() {
        return Err(
            "`semint report` needs at least one PATH saved by `semint sweep --save`".into(),
        );
    }
    let mut report = SweepReport::default();
    for path in args {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let saved = SweepReport::from_tsv(&text).map_err(|e| format!("{path}: {e}"))?;
        report.merge(&saved);
    }
    out!("{}", render_sweep(&report));
    for case in &report.cases {
        outln!("digest: {}", case.digest());
    }
    Ok(report.failure_count() == 0)
}

/// `semint serve`: the foreground sweep-orchestration daemon.  Runs until a
/// client sends `semint submit --shutdown`, then drains the queue and exits.
fn cmd_serve(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("serve", args)?;
    let worker_binary = std::env::current_exe()
        .map_err(|e| format!("cannot locate the semint binary to spawn workers: {e}"))?;
    let worker_timeout_ms = opts.worker_timeout_ms.unwrap_or(30_000);
    let cfg = ServeConfig {
        port: opts.port,
        workers: opts.workers,
        queue_capacity: opts.queue_capacity,
        heartbeat_timeout: Duration::from_millis(worker_timeout_ms),
        max_retries: opts.max_retries,
        worker_binary,
        log_path: opts.log.as_ref().map(PathBuf::from),
        echo: true,
        state_dir: opts.state_dir.as_ref().map(PathBuf::from),
        resume: opts.resume,
    };
    let daemon = Daemon::spawn(cfg)?;
    let port = daemon.port();
    outln!(
        "semint serve: listening on 127.0.0.1:{port} · {} workers · queue capacity {} · \
         worker timeout {} ms · {} retries per shard",
        opts.workers,
        opts.queue_capacity,
        worker_timeout_ms,
        opts.max_retries
    );
    if let Some(dir) = &opts.state_dir {
        outln!(
            "durable state: {dir} (fsync'd job journal + shard checkpoints; \
             recover with `semint serve --state-dir {dir} --resume`)"
        );
    }
    outln!("submit jobs:   semint submit --port {port} --seeds A..B [--profile NAME]");
    outln!("watch them:    semint status --port {port} [--job N --wait]");
    outln!("drain + exit:  semint submit --port {port} --shutdown");
    daemon.join();
    outln!("semint serve: drained, exiting");
    Ok(true)
}

/// The daemon address the serve-client subcommands talk to.
fn daemon_addr(opts: &Options) -> String {
    format!("127.0.0.1:{}", opts.port)
}

/// `semint submit`: queue one sweep job on a running daemon (or, with
/// `--shutdown`, drain it).
fn cmd_submit(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("submit", args)?;
    let addr = daemon_addr(&opts);
    if opts.shutdown {
        return match serve::call(&addr, &Request::Shutdown)? {
            Response::Ok => {
                outln!("daemon at {addr} is draining: accepted jobs finish, then it exits");
                Ok(true)
            }
            Response::Error(e) => Err(e),
            other => Err(format!("unexpected response: {other:?}")),
        };
    }
    let fault = match (opts.fault_shard, opts.fault_after) {
        (None, None) => {
            if opts.fault_kind.is_some() {
                return Err("--fault-kind needs --fault-shard and --fault-after".into());
            }
            None
        }
        (Some(shard), Some(after)) => Some(FaultPlan {
            shard,
            after,
            kind: opts.fault_kind.unwrap_or(FaultKind::Crash),
        }),
        _ => return Err("--fault-shard and --fault-after must be given together".into()),
    };
    let spec = JobSpec {
        seeds: opts.range,
        profile: opts.profile.name.to_string(),
        case: opts.case.clone(),
        shards: opts.shards,
        jobs: opts.jobs,
        batch: opts.batch,
        model_check: opts.model_check,
        fault,
    };
    match serve::call(&addr, &Request::Submit(spec))? {
        Response::Submitted { job } => {
            outln!("job {job} queued at {addr} (follow it: semint status --port {} --job {job} --wait)", opts.port);
            Ok(true)
        }
        Response::Error(e) => Err(e),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

/// Renders one job's status snapshot: the one-line summary always, plus the
/// full rolling/final report when this job was singled out with `--job`.
fn print_job_status(status: &JobStatus, detailed: bool) -> Result<(), String> {
    let mut line = format!(
        "job {}: {} · shards {}/{} · {} scenarios · {} failures",
        status.id,
        status.state,
        status.shards_done,
        status.shards_total,
        status.scenarios,
        status.failures
    );
    if status.retries > 0 {
        line.push_str(&format!(" · {} shard re-issues", status.retries));
    }
    if status.recovered {
        line.push_str(" · recovered");
    }
    outln!("{line}");
    if let Some(error) = &status.error {
        outln!("  error: {error}");
    }
    if !detailed {
        return Ok(());
    }
    let report = SweepReport::from_tsv(&status.report_tsv)
        .map_err(|e| format!("job {}: daemon sent an unreadable report: {e}", status.id))?;
    if status.state == "done" {
        out!("{}", render_sweep(&report));
        for digest in &status.digests {
            outln!("digest: {digest}");
        }
    } else {
        out!(
            "{}",
            render_rolling(&report, status.shards_done, status.shards_total)
        );
    }
    Ok(())
}

/// `semint status`: job states and rolling merged digests; `--wait` polls
/// one job to completion.
fn cmd_status(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("status", args)?;
    let addr = daemon_addr(&opts);
    if opts.wait && opts.job.is_none() {
        return Err("--wait follows one job; give --job N".into());
    }
    loop {
        let (draining, jobs) = match serve::call(&addr, &Request::Status { job: opts.job })? {
            Response::Status { draining, jobs } => (draining, jobs),
            Response::Error(e) => return Err(e),
            other => return Err(format!("unexpected response: {other:?}")),
        };
        let settled = jobs
            .iter()
            .all(|job| matches!(job.state.as_str(), "done" | "failed"));
        if opts.wait && !settled {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        if draining {
            outln!("daemon at {addr} is draining");
        }
        if jobs.is_empty() {
            outln!("no jobs at {addr}");
        }
        for job in &jobs {
            print_job_status(job, opts.job.is_some())?;
        }
        if let Some(path) = &opts.save {
            let job = opts
                .job
                .and_then(|_| jobs.first())
                .ok_or("--save writes one job's merged report; give --job N")?;
            std::fs::write(path, &job.report_tsv).map_err(|e| format!("saving {path}: {e}"))?;
            outln!("saved: {path}");
        }
        let clean = jobs
            .iter()
            .all(|job| job.state != "failed" && job.failures == 0);
        return Ok(clean);
    }
}

/// `semint chaos`: the deterministic kill-and-resume drill.  Every round
/// derives a fault plan and a kill point from `--seed`, runs a faulted job
/// on a real daemon process, SIGKILLs the daemon once the journal shows the
/// scheduled number of checkpoints, restarts it with `--resume`, and
/// asserts the resumed digests and VM counters are byte-identical to an
/// uninterrupted one-shot sweep — with no checkpointed shard re-run.
fn cmd_chaos(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("chaos", args)?;
    let binary = std::env::current_exe()
        .map_err(|e| format!("cannot locate the semint binary to drill: {e}"))?;
    let state_root = match &opts.state_dir {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("semint-chaos-{}", std::process::id())),
    };
    let cfg = ChaosConfig {
        binary,
        seed: opts.seed.unwrap_or(0),
        rounds: opts.rounds,
        seeds: opts.range,
        profile: opts.profile.name.to_string(),
        case: opts.case.clone(),
        shards: if opts.shards == 0 {
            opts.workers as u64
        } else {
            opts.shards
        },
        jobs: opts.jobs,
        workers: opts.workers,
        batch: opts.batch,
        // Drills inject wedges on purpose; detect them fast.
        worker_timeout_ms: opts.worker_timeout_ms.unwrap_or(5_000),
        state_root,
        echo: true,
    };
    outln!(
        "chaos: {} rounds · seed {} · seeds {}..{} · profile {} · {} shards · state root {}",
        cfg.rounds,
        cfg.seed,
        cfg.seeds.0,
        cfg.seeds.1,
        cfg.profile,
        cfg.shards,
        cfg.state_root.display()
    );
    let outcomes = serve::run_drills(&cfg)?;
    let mut clean = true;
    for outcome in &outcomes {
        let held = outcome.invariant_holds();
        clean = clean && held;
        outln!(
            "round {}: {} · fault {} on shard {} after {} scenarios · killed after {} \
             checkpoints (shards {:?} saved) · {} re-issues · digests {} · counters {} · \
             re-run after resume {:?} · state {}",
            outcome.round,
            if held { "PASS" } else { "FAIL" },
            outcome.plan.kind.label(),
            outcome.plan.shard,
            outcome.plan.after,
            outcome.kill_after_saves,
            outcome.saved_before_kill,
            outcome.retries,
            if outcome.digests_match {
                "match"
            } else {
                "DIVERGE"
            },
            if outcome.counters_match {
                "match"
            } else {
                "DIVERGE"
            },
            outcome.rerun_after_resume,
            outcome.state_dir.display(),
        );
    }
    if clean {
        outln!(
            "chaos: all {} rounds held the crash-safety invariant",
            outcomes.len()
        );
    } else {
        outln!("chaos: INVARIANT VIOLATED — post-mortems in the per-round state dirs above");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(command: &str, args: &[&str]) -> Result<Options, String> {
        parse_options(command, &owned(args))
    }

    #[test]
    fn reversed_seed_ranges_are_rejected_with_a_friendly_error() {
        let err = parse("sweep", &["--seeds", "50..10"]).unwrap_err();
        assert!(err.contains("reversed"), "{err}");
        // No panic (debug-build underflow) either way round.
        let err = parse("sweep", &["--seeds", "7..7"]).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn well_formed_seed_ranges_parse() {
        let opts = parse("sweep", &["--seeds", "3..9"]).unwrap();
        assert_eq!(opts.range, (3, 9));
    }

    #[test]
    fn time_flag_enables_stage_timing() {
        assert!(!parse("sweep", &[]).unwrap().time);
        let opts = parse("sweep", &["--time"]).unwrap();
        assert!(opts.time);
        assert!(sweep_config(&opts).time);
    }

    #[test]
    fn unknown_options_are_rejected() {
        assert!(parse("sweep", &["--nope"]).unwrap_err().contains("--nope"));
    }

    #[test]
    fn check_rejects_no_model_check_instead_of_overriding_it() {
        assert!(parse("sweep", &[]).unwrap().model_check, "on by default");
        assert!(!parse("sweep", &["--no-model-check"]).unwrap().model_check);
        // Rejected before any scenario runs.
        let err = cmd_check(&["--no-model-check".into()]).unwrap_err();
        assert!(err.contains("--no-model-check"), "{err}");
    }

    #[test]
    fn flags_a_subcommand_would_ignore_are_usage_errors() {
        type Command = fn(&[String]) -> Result<bool, String>;
        // Each of these used to be accepted and ignored; now each fails in
        // parsing, before any sweep runs or any connection is attempted.
        let probes: [(Command, &[&str], &str); 8] = [
            (cmd_sweep, &["--seeds", "0..2", "--seed", "7"], "--seed"),
            (cmd_check, &["--save", "x.tsv"], "--save"),
            (cmd_check, &["--trace", "t.jsonl"], "--trace"),
            (cmd_run, &["--save", "r.tsv"], "--save"),
            (
                cmd_status,
                &["--port", "1", "--profile", "deep"],
                "--profile",
            ),
            (cmd_submit, &["--port", "1", "--time"], "--time"),
            (cmd_chaos, &["--no-model-check"], "--no-model-check"),
            (cmd_sweep, &["--type-depth", "3"], "--type-depth"),
        ];
        for (command, args, flag) in probes {
            let err = command(&owned(args)).expect_err(flag);
            assert!(err.contains(&format!("take `{flag}`")), "{err}");
        }
    }

    /// Every `--flag` token `USAGE` mentions.
    fn usage_flags() -> std::collections::BTreeSet<&'static str> {
        USAGE
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|word| word.starts_with("--") && word.len() > 2)
            .collect()
    }

    /// A value each table flag accepts (`None` for switches).
    fn valid_value(flag: &str) -> Option<&'static str> {
        match flag {
            "--no-model-check" | "--time" | "--broken" | "--progress" | "--resume" | "--wait"
            | "--shutdown" => None,
            "--case" => Some("memgc"),
            "--seeds" => Some("0..4"),
            "--shard" => Some("0/2"),
            "--profile" => Some("deep"),
            "--fault-kind" => Some("wedge"),
            "--corrupt-save" => Some("garbage"),
            "--save" | "--trace" | "--log" | "--state-dir" => Some("path"),
            _ => Some("1"),
        }
    }

    #[test]
    fn the_flag_tables_match_usage_and_every_entry_parses() {
        let documented = usage_flags();
        let mut tabled = std::collections::BTreeSet::new();
        for (command, flags) in FLAGS {
            for flag in flags {
                tabled.insert(*flag);
                let mut args = vec![*flag];
                args.extend(valid_value(flag));
                parse(command, &args).unwrap_or_else(|e| panic!("{command} {flag}: {e}"));
            }
        }
        assert_eq!(documented, tabled, "USAGE and the flag tables disagree");
    }

    #[test]
    fn batch_sizes_parse_and_zero_is_rejected_not_clamped() {
        assert_eq!(
            parse("sweep", &[]).unwrap().batch,
            1,
            "default is one per machine"
        );
        let opts = parse("sweep", &["--batch", "8"]).unwrap();
        assert_eq!(opts.batch, 8);
        assert_eq!(sweep_config(&opts).batch, 8);
        let err = parse("sweep", &["--batch", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse("sweep", &["--batch", "many"]).unwrap_err();
        assert!(err.contains("--batch"), "{err}");
        assert!(parse("sweep", &["--batch"])
            .unwrap_err()
            .contains("--batch"));
    }

    #[test]
    fn profiles_parse_and_unknown_profiles_are_rejected() {
        let opts = parse("sweep", &["--profile", "deep"]).unwrap();
        assert_eq!(opts.profile, GenProfile::deep());
        let err = parse("sweep", &["--profile", "turbo"]).unwrap_err();
        assert!(err.contains("turbo") && err.contains("deep"), "{err}");
    }

    #[test]
    fn shards_parse_and_validate() {
        let opts = parse("sweep", &["--shard", "1/4"]).unwrap();
        assert_eq!(opts.shard, Some((1, 4)));
        assert!(parse("sweep", &["--shard", "4/4"])
            .unwrap_err()
            .contains("out of range"));
        assert!(parse("sweep", &["--shard", "0/0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse("sweep", &["--shard", "nonsense"])
            .unwrap_err()
            .contains("K/N"));
    }

    #[test]
    fn sweeps_larger_than_the_engine_cap_get_a_friendly_error() {
        // 4M seeds pass the per-range CLI check but exceed the cap once
        // multiplied across the three case studies.
        let cases = AnyCase::all(false);
        let source = SeedRange::new(0, 4_000_000).unwrap();
        let err = check_sweep_size(&cases, &source).unwrap_err();
        assert!(err.contains("exceeds the per-sweep limit"), "{err}");
        let small = SeedRange::new(0, 100).unwrap();
        assert!(check_sweep_size(&cases, &small).is_ok());
    }

    #[test]
    fn trace_and_progress_flags_parse() {
        let opts = parse("sweep", &[]).unwrap();
        assert!(opts.trace.is_none() && !opts.progress);
        let opts = parse("sweep", &["--trace", "t.jsonl", "--progress"]).unwrap();
        assert_eq!(opts.trace.as_deref(), Some("t.jsonl"));
        assert!(opts.progress);
        assert!(parse("sweep", &["--trace"])
            .unwrap_err()
            .contains("--trace"));
    }

    #[test]
    fn profile_needs_at_least_one_trace() {
        assert!(cmd_profile(&[]).unwrap_err().contains("TRACE"));
    }

    #[test]
    fn serve_flags_parse_with_documented_defaults() {
        let opts = parse("serve", &[]).unwrap();
        assert_eq!(opts.port, DEFAULT_PORT);
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.queue_capacity, 16);
        assert_eq!(
            opts.worker_timeout_ms, None,
            "tri-state: serve resolves to 30000, chaos to 5000"
        );
        assert_eq!(opts.max_retries, 2);
        assert_eq!(opts.shards, 0, "0 = one shard per daemon worker");
        assert!(opts.job.is_none() && !opts.wait && !opts.shutdown);
        let opts = parse(
            "serve",
            &[
                "--port",
                "0",
                "--workers",
                "2",
                "--queue-capacity",
                "3",
                "--worker-timeout-ms",
                "5000",
                "--max-retries",
                "1",
                "--log",
                "serve.log",
            ],
        )
        .unwrap();
        assert_eq!(opts.port, 0);
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.queue_capacity, 3);
        assert_eq!(opts.worker_timeout_ms, Some(5000));
        assert_eq!(opts.max_retries, 1);
        assert_eq!(opts.log.as_deref(), Some("serve.log"));
        let opts = parse("submit", &["--shards", "6", "--shutdown"]).unwrap();
        assert_eq!(opts.shards, 6);
        assert!(opts.shutdown);
        let opts = parse("status", &["--job", "4", "--wait"]).unwrap();
        assert_eq!(opts.job, Some(4));
        assert!(opts.wait);
        assert!(parse("serve", &["--workers", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse("serve", &["--queue-capacity", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse("serve", &["--worker-timeout-ms", "0"])
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn fault_injection_flags_parse_and_zero_die_after_is_rejected() {
        let opts = parse("submit", &["--fault-shard", "1", "--fault-after", "5"]).unwrap();
        assert_eq!(opts.fault_shard, Some(1));
        assert_eq!(opts.fault_after, Some(5));
        assert_eq!(opts.fault_kind, None, "submit defaults the kind to crash");
        let opts = parse("sweep", &["--die-after", "3"]).unwrap();
        assert_eq!(opts.die_after, Some(3));
        assert!(parse("sweep", &["--die-after", "0"])
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn crash_safety_flags_parse_and_validate() {
        let opts = parse("sweep", &[]).unwrap();
        assert!(opts.state_dir.is_none() && !opts.resume);
        assert_eq!(opts.rounds, 1);
        assert!(opts.fault_kind.is_none());
        assert!(opts.wedge_after.is_none() && opts.corrupt_save.is_none());
        let opts = parse("serve", &["--state-dir", "state", "--resume"]).unwrap();
        assert_eq!(opts.state_dir.as_deref(), Some("state"));
        assert!(opts.resume);
        assert_eq!(parse("chaos", &["--rounds", "3"]).unwrap().rounds, 3);
        let opts = parse("submit", &["--fault-kind", "wedge"]).unwrap();
        assert_eq!(opts.fault_kind, Some(FaultKind::Wedge));
        let opts = parse(
            "sweep",
            &["--wedge-after", "4", "--corrupt-save", "truncate"],
        )
        .unwrap();
        assert_eq!(opts.wedge_after, Some(4));
        assert_eq!(opts.corrupt_save.as_deref(), Some("truncate"));
        assert!(parse("chaos", &["--rounds", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse("sweep", &["--wedge-after", "0"])
            .unwrap_err()
            .contains("at least 1"));
        let err = parse("submit", &["--fault-kind", "segfault"]).unwrap_err();
        assert!(err.contains("fault kind"), "{err}");
        let err = parse("sweep", &["--corrupt-save", "zero-out"]).unwrap_err();
        assert!(err.contains("garbage"), "{err}");
    }

    #[test]
    fn submit_and_chaos_reject_unwireable_combinations_up_front() {
        let err = cmd_submit(&["--fault-kind".into(), "wedge".into()]).unwrap_err();
        assert!(err.contains("--fault-shard"), "{err}");
        // Chaos validation happens before any daemon or baseline is built.
        let err = cmd_chaos(&["--shard".into(), "0/2".into()]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = cmd_chaos(&["--broken".into()]).unwrap_err();
        assert!(err.contains("--broken"), "{err}");
        // Sweep refuses --corrupt-save with nothing to corrupt.
        let err = cmd_sweep(&["--corrupt-save".into(), "garbage".into()]).unwrap_err();
        assert!(err.contains("--save"), "{err}");
    }

    #[test]
    fn unknown_commands_suggest_the_closest_subcommand() {
        let hint = unknown_command("swep");
        assert!(hint.contains("did you mean `sweep`?"), "{hint}");
        let hint = unknown_command("stauts");
        assert!(hint.contains("did you mean `status`?"), "{hint}");
        let hint = unknown_command("profle");
        assert!(hint.contains("did you mean `profile`?"), "{hint}");
        let hint = unknown_command("bench");
        assert!(hint.starts_with("unknown command `bench`"), "{hint}");
        // Gibberish gets the plain error, not a far-fetched hint.
        let hint = unknown_command("xyzzyqwert");
        assert!(!hint.contains("did you mean"), "{hint}");
        assert!(hint.contains("semint help"), "{hint}");
    }

    #[test]
    fn edit_distance_is_the_usual_levenshtein() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("swep", "sweep"), 1);
    }

    #[test]
    fn wait_requires_a_job_and_submit_rejects_unwireable_options() {
        let err = cmd_status(&["--wait".into(), "--port".into(), "1".into()]).unwrap_err();
        assert!(err.contains("--job"), "{err}");
        // Validation happens before any connection attempt, so these fail
        // fast even with no daemon listening.
        let err = cmd_submit(&["--shard".into(), "0/2".into()]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = cmd_submit(&["--broken".into()]).unwrap_err();
        assert!(err.contains("--broken"), "{err}");
        let err = cmd_submit(&["--fault-shard".into(), "1".into()]).unwrap_err();
        assert!(err.contains("together"), "{err}");
    }

    #[test]
    fn build_source_picks_range_or_shard() {
        let opts = parse("sweep", &["--seeds", "0..12"]).unwrap();
        let source = build_source(&opts).unwrap();
        assert_eq!(source.seeds("any").len(), 12);
        let opts = parse("sweep", &["--seeds", "0..12", "--shard", "0/3"]).unwrap();
        let source = build_source(&opts).unwrap();
        assert_eq!(source.seeds("any"), vec![0, 3, 6, 9]);
    }
}
