//! perfbench — the repository benchmark.
//!
//! ```sh
//! bash perfbench/run.sh --workload deep --seed 0 --seconds 10 --trace 0
//! ```
//!
//! One process drives the harness through its public API with at most two
//! threads: in-process sweeps use `jobs = 2`, and the serve workload runs
//! two shard workers with `--jobs 1` each.  `--trace 0` prints the
//! end-to-end metrics, measured with no tracing; `--trace 1` prints the
//! per-layer metrics, taken by a traced replica of the engine.  Either way
//! the run checks its outputs and exits non-zero if any is wrong; the last
//! line of standard output is the JSON result.  See `NOTES.md` for why each
//! workload exists and which layer it stresses.

mod layers;
mod metrics;
mod replica;
mod serve;
mod spans;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use semint_core::stats::SweepReport;
use semint_harness::engine::SweepConfig;
use semint_harness::serve::{JobSpec, Journal};
use semint_harness::{sweep_all, AnyCase, GenProfile, SeedRange, Shard};

use layers::LayerProfile;
use metrics::{Metric, Outcome, CASES};
use replica::{traced_sweep_all, TracedSweep};
use spans::{median, Layer};

/// Worker threads of every in-process sweep.
const JOBS: usize = 2;
/// Shards of a serve job (and of its in-process analogue).
const SHARDS: u64 = 8;
/// The seed whose digests and counters are pinned in `reference.txt`.
const PINNED_SEED: u64 = 0;
/// Untraced sweeps run however short `--seconds` is, so a median exists.
const MIN_REPEATS: usize = 3;
/// In-process set-up samples taken before each timed sweep, so the
/// samples spread over the whole run instead of one instant of it.
const SETUP_SAMPLES_PER_SWEEP: usize = 20;
/// Daemons started and stopped per run to sample serve set-up time.
const SERVE_SETUP_SAMPLES: usize = 41;

const REFERENCE: &str = include_str!("../reference.txt");

/// One benchmark workload.  The seed range a run sweeps is the only input
/// the program receives; it is derived from `--seed`.
struct Workload {
    name: &'static str,
    profile: &'static str,
    model_check: bool,
    batch: usize,
    seeds_per_case: u64,
    serve: bool,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "deep",
        profile: "deep",
        model_check: false,
        batch: 8,
        seeds_per_case: 4000,
        serve: false,
    },
    Workload {
        name: "serve-sharded",
        profile: "boundary-heavy",
        model_check: true,
        batch: 1,
        seeds_per_case: 3000,
        serve: true,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    semint: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = Duration::from_secs(10);
    let mut trace = false;
    let mut semint = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (expected one of {known:?})")
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--semint" => semint = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        semint,
        work_dir,
    })
}

/// The per-case seed range of `seed`: the `seed`-th block of
/// `per_case` consecutive generator seeds (wrapping far below `u64::MAX`).
fn seed_range(seed: u64, per_case: u64) -> SeedRange {
    let blocks = u64::MAX / per_case - 1;
    let start = (seed % blocks) * per_case;
    SeedRange::new(start, start + per_case).expect("a non-empty block")
}

fn sweep_config(w: &Workload) -> SweepConfig {
    SweepConfig {
        jobs: JOBS,
        profile: GenProfile::by_name(w.profile).expect("workloads name preset profiles"),
        model_check: w.model_check,
        time: false,
        batch: w.batch,
    }
}

/// The digest-grade facts of a report: per case, its digest and every
/// `VmCounters` field.
fn fingerprint(report: &SweepReport) -> Vec<String> {
    report
        .cases
        .iter()
        .flat_map(|case| {
            let counters: Vec<String> = case
                .counters
                .fields()
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            [
                format!("{} digest {}", case.case, case.digest()),
                format!("{} counters {}", case.case, counters.join(" ")),
            ]
        })
        .collect()
}

/// A report's TSV lines without those that depend on the process that
/// wrote it (glue-cache figures and stage timings).
fn portable_tsv(tsv: &str) -> Vec<String> {
    tsv.lines()
        .filter(|line| !line.starts_with("glue_") && !line.starts_with("stage_ns"))
        .map(str::to_string)
        .collect()
}

/// Correctness evidence gathered during a run, and the scenario tally.
/// A scenario that fails a pipeline stage counts toward `failed`; any
/// disagreement between outputs that must match makes the run incorrect.
#[derive(Default)]
struct Checks {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn same(&mut self, what: &str, expected: &[String], actual: &[String]) {
        if expected != actual {
            let width = expected.len().max(actual.len());
            let line = |lines: &[String], i: usize| lines.get(i).cloned().unwrap_or_default();
            let diff: Vec<String> = (0..width)
                .map(|i| (line(expected, i), line(actual, i)))
                .filter(|(e, a)| e != a)
                .map(|(e, a)| format!("\n  expected {e}\n  actual   {a}"))
                .collect();
            self.problems.push(format!(
                "{what}: {} expected lines, {} actual{}",
                expected.len(),
                actual.len(),
                diff.concat()
            ));
        }
    }

    /// Counts a report's scenarios; one missing from it counts as failed.
    fn tally(&mut self, report: &SweepReport, expected: u64) {
        self.attempted += expected;
        self.failed += report.failure_count() as u64 + expected.saturating_sub(report.scenarios());
    }

    /// Compares against the pinned reference when the run uses its seed.
    fn pinned(&mut self, args: &Args, actual: &[String]) {
        if args.seed != PINNED_SEED {
            return;
        }
        let prefix = format!("{} ", args.workload.name);
        let expected: Vec<String> = REFERENCE
            .lines()
            .filter_map(|line| line.strip_prefix(&prefix))
            .map(str::to_string)
            .collect();
        if expected.is_empty() {
            self.problems.push(format!(
                "reference.txt pins nothing for {}",
                args.workload.name
            ));
        }
        self.same("pinned reference (reference.txt)", &expected, actual);
    }

    fn outcome(self, metrics: Vec<Metric>) -> Outcome {
        for problem in &self.problems {
            eprintln!("perfbench: MISMATCH {problem}");
        }
        Outcome {
            correct: self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

fn metric(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note,
    }
}

/// Peak resident memory of this process so far, in KiB.
fn self_peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn kib_to_mb(kib: u64) -> f64 {
    kib as f64 * 1024.0 / 1e6
}

/// Times `n` builds of the case studies with fresh glue caches: what an
/// in-process sweep pays before its first scenario can run.
fn time_setup(n: usize, samples: &mut Vec<f64>) {
    for _ in 0..n {
        let started = Instant::now();
        let cases = black_box(AnyCase::all(false));
        samples.push(started.elapsed().as_secs_f64());
        drop(cases);
    }
}

/// The range and quartiles of `values`, for the human-readable notes.
fn spread(values: &[f64]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: usize| sorted[(q * (sorted.len() - 1)) / 4];
    format!(
        "min {:.4e} q1 {:.4e} q3 {:.4e} max {:.4e}",
        at(0),
        at(1),
        at(3),
        at(4)
    )
}

/// Runs `body` at least `MIN_REPEATS` times and until `budget` has passed.
fn repeat_for(
    budget: Duration,
    mut body: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let deadline = Instant::now() + budget;
    let mut runs = 0;
    while runs < MIN_REPEATS || Instant::now() < deadline {
        body()?;
        runs += 1;
    }
    Ok(runs)
}

/// One untraced `sweep_all` with fresh case studies; returns the report
/// and its wall time.
fn timed_sweep(source: &SeedRange, cfg: &SweepConfig) -> (SweepReport, Duration) {
    let cases = AnyCase::all(false);
    let started = Instant::now();
    let report = sweep_all(&cases, source, cfg);
    (report, started.elapsed())
}

/// Records the report codec on `report` (write, then parse back) and
/// returns the parsed report, which must carry the same facts.
fn time_codec(
    profile: &mut LayerProfile,
    checks: &mut Checks,
    report: &SweepReport,
) -> Option<SweepReport> {
    let started = Instant::now();
    let tsv = black_box(report.to_tsv());
    profile.add_to_pass("report.to_tsv_ms", started.elapsed().as_secs_f64() * 1e3);
    let started = Instant::now();
    let parsed = SweepReport::from_tsv(&tsv);
    profile.add_to_pass("report.from_tsv_ms", started.elapsed().as_secs_f64() * 1e3);
    match parsed {
        Ok(parsed) => {
            checks.same(
                "TSV round trip",
                &fingerprint(report),
                &fingerprint(&parsed),
            );
            Some(parsed)
        }
        Err(e) => {
            checks
                .problems
                .push(format!("TSV round trip does not parse: {e}"));
            None
        }
    }
}

/// The in-process workload, `deep`.
fn run_in_process(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let range = seed_range(args.seed, w.seeds_per_case);
    let cfg = sweep_config(w);
    let expected = w.seeds_per_case * CASES.len() as u64;
    let mut checks = Checks::default();

    // The untraced reference: also a warm-up, excluded from the timings.
    let (first, _) = timed_sweep(&range, &cfg);
    checks.tally(&first, expected);
    let reference = fingerprint(&first);
    checks.pinned(args, &reference);
    drop(first);

    if !args.trace {
        let mut setups = Vec::new();
        let mut rates = Vec::new();
        let runs = repeat_for(args.seconds, || {
            time_setup(SETUP_SAMPLES_PER_SWEEP, &mut setups);
            let (report, wall) = timed_sweep(&range, &cfg);
            rates.push(report.scenarios() as f64 / wall.as_secs_f64());
            checks.tally(&report, expected);
            checks.same("repeated sweep_all", &reference, &fingerprint(&report));
            Ok(())
        })?;
        let peak = self_peak_rss_kib()?;
        let traced = traced_sweep_all(&AnyCase::all(false), &range, &cfg);
        checks.tally(&traced.report, expected);
        checks.same(
            "traced replica vs sweep_all",
            &reference,
            &fingerprint(&traced.report),
        );
        return Ok(checks.outcome(vec![
            metric(
                "scenarios_per_s",
                median(&rates),
                "1/s",
                format!(
                    "(median of {runs} sweeps of {expected} scenarios; {})",
                    spread(&rates)
                ),
            ),
            metric(
                "setup_s",
                median(&setups),
                "s",
                format!(
                    "(median of {} builds of AnyCase::all, {SETUP_SAMPLES_PER_SWEEP} before each sweep; {})",
                    setups.len(),
                    spread(&setups)
                ),
            ),
            metric(
                "peak_rss_mb",
                kib_to_mb(peak),
                "MB",
                "(VmHWM of the sweeping process)".into(),
            ),
        ]));
    }

    // Untraced and traced sweeps alternate, so the tracing overhead
    // compares sweeps taken under the same machine conditions.
    let mut profile = LayerProfile::default();
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut kept: Option<TracedSweep> = None;
    repeat_for(args.seconds, || {
        let (report, wall) = timed_sweep(&range, &cfg);
        checks.tally(&report, expected);
        checks.same("repeated sweep_all", &reference, &fingerprint(&report));
        untraced.push(wall.as_secs_f64());
        let traced = traced_sweep_all(&AnyCase::all(false), &range, &cfg);
        checks.tally(&traced.report, expected);
        checks.same(
            "traced replica vs sweep_all",
            &reference,
            &fingerprint(&traced.report),
        );
        profile.add_sweep(&traced)?;
        time_codec(&mut profile, &mut checks, &traced.report);
        profile.end_pass();
        traced_walls.push(traced.wall_ns() as f64 / 1e9);
        kept.get_or_insert(traced);
        Ok(())
    })?;
    let overhead = (median(&traced_walls) / median(&untraced) - 1.0) * 100.0;
    profile.add_value("engine.tracing_overhead_pct", overhead);
    if let Some(traced) = &kept {
        write_spans(args, traced)?;
    }
    Ok(checks.outcome(profile.finish()))
}

/// The `serve-sharded` workload.
fn run_serve(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let semint = args
        .semint
        .as_deref()
        .ok_or("the serve workload needs --semint PATH (the worker binary)")?;
    let semint = std::fs::canonicalize(semint)
        .map_err(|e| format!("worker binary {}: {e}", semint.display()))?;
    let range = seed_range(args.seed, w.seeds_per_case);
    let cfg = sweep_config(w);
    let expected = w.seeds_per_case * CASES.len() as u64;
    let spec = JobSpec {
        seeds: (range.start(), range.end()),
        profile: w.profile.to_string(),
        case: "all".into(),
        shards: SHARDS,
        jobs: 1,
        batch: w.batch,
        model_check: w.model_check,
        fault: None,
    };
    let mut checks = Checks::default();
    let mut profile = LayerProfile::default();
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let state_dir = |label: String| {
        args.work_dir
            .join(format!("state-{}-{label}", std::process::id()))
    };

    // Set-up: fresh daemons, each from spawn to its first answered ping.
    let samples = if args.trace { 5 } else { SERVE_SETUP_SAMPLES };
    let mut setups = Vec::new();
    for i in 0..samples {
        let running = serve::start(&semint, state_dir(format!("setup{i}")))?;
        setups.push(running.setup.as_secs_f64());
        profile.add_value("serve.spawn_ms", running.spawn.as_secs_f64() * 1e3);
        running.stop()?;
    }

    // Jobs, one at a time, against one daemon.
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let running = serve::start(&semint, state_dir("jobs".into()))?;
    let mut rates = Vec::new();
    let mut merged: Vec<String> = Vec::new();
    let ran = repeat_for(budget, || {
        let job = running.run_job(&spec)?;
        let report = SweepReport::from_tsv(&job.status.report_tsv)
            .map_err(|e| format!("the merged report does not parse: {e}"))?;
        checks.tally(&report, expected);
        rates.push(job.status.scenarios as f64 / job.wall.as_secs_f64());
        let portable = portable_tsv(&job.status.report_tsv);
        if merged.is_empty() {
            merged = portable;
        } else {
            checks.same("repeated serve job", &merged, &portable);
        }
        record_job(&mut profile, &job);
        Ok(())
    });
    let state_bytes = serve::dir_bytes(running.state_dir());
    let journal = std::fs::read_to_string(Journal::path_in(running.state_dir()));
    let stopped = running.stop();
    ran?;
    stopped?;
    let peak = self_peak_rss_kib()?.max(serve::children_peak_rss_kib());
    let jobs = rates.len() as f64;
    profile.add_value("serve.state_bytes", state_bytes? as f64 / jobs);
    let journal = journal.map_err(|e| format!("cannot read the journal: {e}"))?;
    profile.add_value("serve.journal_lines", journal.lines().count() as f64 / jobs);

    // The in-process analogue over the same shards: the untraced reference
    // for the serve report, then the traced replica.
    let (inproc, _) = sharded(range, |source| {
        sweep_all(&AnyCase::all(false), source, &cfg)
    });
    checks.tally(&inproc, expected);
    let reference = fingerprint(&inproc);
    checks.pinned(args, &reference);
    checks.same(
        "serve-merged report vs in-process sweep_all",
        &portable_tsv(&inproc.to_tsv()),
        &merged,
    );

    if !args.trace {
        let (traced, _) = sharded(range, |source| {
            traced_sweep_all(&AnyCase::all(false), source, &cfg).report
        });
        checks.tally(&traced, expected);
        checks.same(
            "traced replica vs sweep_all",
            &reference,
            &fingerprint(&traced),
        );
        return Ok(checks.outcome(vec![
            metric(
                "scenarios_per_s",
                median(&rates),
                "1/s",
                format!(
                    "(median of {} jobs of {expected} scenarios; {})",
                    rates.len(),
                    spread(&rates)
                ),
            ),
            metric(
                "setup_s",
                median(&setups),
                "s",
                format!(
                    "(median of {samples} daemons, spawn to first ping; {})",
                    spread(&setups)
                ),
            ),
            metric(
                "peak_rss_mb",
                kib_to_mb(peak),
                "MB",
                "(max VmHWM of daemon and workers)".into(),
            ),
        ]));
    }

    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut kept: Option<TracedSweep> = None;
    repeat_for(args.seconds / 2, || {
        let (report, wall) = sharded(range, |source| {
            sweep_all(&AnyCase::all(false), source, &cfg)
        });
        checks.tally(&report, expected);
        checks.same("repeated sweep_all", &reference, &fingerprint(&report));
        untraced.push(wall.as_secs_f64());
        let mut merged = SweepReport::default();
        let mut wall = 0;
        for index in 0..SHARDS {
            let shard = Shard::new(range, index, SHARDS)?;
            let traced = traced_sweep_all(&AnyCase::all(false), &shard, &cfg);
            profile.add_sweep(&traced)?;
            wall += traced.wall_ns();
            // The codec as the fleet uses it: the worker writes its shard
            // report, the daemon parses it and folds it into the merge.
            if let Some(parsed) = time_codec(&mut profile, &mut checks, &traced.report) {
                merged.merge(&parsed);
            }
            kept.get_or_insert(traced);
        }
        checks.tally(&merged, expected);
        checks.same(
            "traced replica vs sweep_all",
            &reference,
            &fingerprint(&merged),
        );
        profile.end_pass();
        traced_walls.push(wall as f64 / 1e9);
        Ok(())
    })?;
    let overhead = (median(&traced_walls) / median(&untraced) - 1.0) * 100.0;
    profile.add_value("engine.tracing_overhead_pct", overhead);
    if let Some(traced) = &kept {
        write_spans(args, traced)?;
    }
    Ok(checks.outcome(profile.finish()))
}

/// Sweeps `range` shard by shard, as the serve fleet splits it, each shard
/// with fresh case studies; returns the merged report and the summed wall.
fn sharded(range: SeedRange, sweep: impl Fn(&Shard) -> SweepReport) -> (SweepReport, Duration) {
    let mut merged = SweepReport::default();
    let mut wall = Duration::ZERO;
    for index in 0..SHARDS {
        let shard = Shard::new(range, index, SHARDS).expect("index below SHARDS");
        let started = Instant::now();
        let report = sweep(&shard);
        wall += started.elapsed();
        merged.merge(&report);
    }
    (merged, wall)
}

/// Folds one job's client-side timeline into the serve metrics.
fn record_job(profile: &mut LayerProfile, job: &serve::JobTrace) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let ns = |d: &Duration| d.as_nanos() as u64;
    profile.add_value("serve.submit_rtt_ms", ms(job.submit_rtt));
    profile.add_samples("serve.status_rtt", job.status_rtts.iter().map(ns));
    let total = job.status.shards_total;
    let seen = |shards: u64| {
        job.progress
            .iter()
            .find(|&&(done, _)| done >= shards)
            .map(|&(_, at)| at)
    };
    if let Some(first) = seen(1) {
        profile.add_value("serve.first_shard_ms", ms(first));
    }
    if let Some(last_but_one) = seen(total.saturating_sub(1)) {
        profile.add_value("serve.tail_ms", ms(job.wall.saturating_sub(last_but_one)));
    }
    let gaps: Vec<u64> = job
        .progress
        .windows(2)
        .filter(|pair| pair[0].0 > 0)
        .map(|pair| ns(&(pair[1].1 - pair[0].1)))
        .collect();
    if let Some(&max) = gaps.iter().max() {
        profile.add_value("serve.shard_gap_max_ms", max as f64 / 1e6);
    }
    profile.add_samples("serve.shard_gap", gaps);
    profile.add_value("serve.shard_retries", job.status.retries as f64);
}

/// Writes one traced sweep's spans, one per line, for offline inspection.
fn write_spans(args: &Args, traced: &TracedSweep) -> Result<(), String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    // One file per workload, overwritten by each traced run.
    let path = args
        .work_dir
        .join(format!("spans-{}.tsv", args.workload.name));
    let own = spans::self_times(&traced.spans);
    let mut text = String::from("id\tparent\tlayer\tcase\tworker\tstart_ns\tend_ns\tself_ns\n");
    for (id, (span, own)) in traced.spans.iter().zip(own).enumerate() {
        let parent = match span.parent {
            spans::NO_PARENT => "-".to_string(),
            parent => parent.to_string(),
        };
        // The sweep and the absorption on the calling thread cover every case.
        let case = match span.layer {
            Layer::Sweep | Layer::Absorb => "-",
            _ => CASES[usize::from(span.case)],
        };
        let worker = match span.worker {
            spans::CALLER => "caller".to_string(),
            worker => worker.to_string(),
        };
        text.push_str(&format!(
            "{id}\t{parent}\t{}\t{case}\t{worker}\t{}\t{}\t{own}\n",
            span.layer.label(),
            span.start_ns,
            span.end_ns
        ));
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: spans of one traced sweep (seed {}) written to {}",
        args.seed,
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload.serve {
        run_serve(&args)
    } else {
        run_in_process(&args)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = outcome.check_names(args.trace) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", outcome.render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_ranges_are_disjoint_blocks_and_never_overflow() {
        let a = seed_range(0, 4000);
        let b = seed_range(1, 4000);
        assert_eq!((a.start(), a.end()), (0, 4000));
        assert_eq!((b.start(), b.end()), (4000, 8000));
        let far = seed_range(u64::MAX, 8000);
        assert_eq!(far.count(), 8000);
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = parse("--workload serve-sharded --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload.name, ok.seed, ok.trace),
            ("serve-sharded", 7, true)
        );
        assert!(parse("--workload checked").is_err(), "dropped as unsteady");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err(), "workload is required");
        assert!(parse("--workload deep --trace 2").is_err());
        assert!(parse("--workload deep --seconds 0").is_err());
        assert!(parse("--workload deep --bogus 1").is_err());
    }

    #[test]
    fn the_workloads_are_those_benchmark_json_lists() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\"", w.name);
            assert!(json.contains(&entry), "{} is not listed", w.name);
            assert!(
                REFERENCE
                    .lines()
                    .any(|l| l.starts_with(&format!("{} ", w.name))),
                "reference.txt pins nothing for {}",
                w.name
            );
        }
    }

    #[test]
    fn portable_tsv_drops_process_dependent_lines() {
        let tsv = "case\tx\nglue_hits\t3\nscenarios\t2\nstage_ns\tgenerate\t9\n";
        assert_eq!(portable_tsv(tsv), ["case\tx", "scenarios\t2"]);
    }

    #[test]
    fn the_traced_replica_matches_sweep_all() {
        for w in &WORKLOADS {
            let range = SeedRange::new(100, 124).expect("non-empty");
            let cfg = sweep_config(w);
            let untraced = sweep_all(&AnyCase::all(false), &range, &cfg);
            let traced = traced_sweep_all(&AnyCase::all(false), &range, &cfg);
            assert_eq!(
                fingerprint(&untraced),
                fingerprint(&traced.report),
                "{}",
                w.name
            );
            let mut profile = LayerProfile::default();
            profile
                .add_sweep(&traced)
                .expect("self times account for the wall");
            time_codec(&mut profile, &mut Checks::default(), &traced.report);
            profile.end_pass();
            // Every quantile reads a sample pool the traced sweep filled;
            // only the serve client's pools and, without model check, the
            // model layer's stay empty.
            for m in profile.finish() {
                let idle = m.name.starts_with("serve.")
                    || (m.name.starts_with("model.") && !w.model_check)
                    || m.name == "engine.tracing_overhead_pct";
                assert_eq!(
                    m.note.contains("not exercised"),
                    idle,
                    "{} on {}: {}",
                    m.name,
                    w.name,
                    m.note
                );
            }
        }
    }
}
