//! Shared run/sweep statistics and report types.
//!
//! Every case study's machine reports outcomes in its own shape (StackLang's
//! [`Outcome`](crate::outcome::Outcome) over stack values, LCVM's `Halt`);
//! the harness projects them all into [`OutcomeClass`] so sweeps over
//! different language pairs aggregate into one histogram.  These types live
//! in `semint-core` (not in the engine crate) so the case-study crates can
//! produce them without depending on the engine.

use crate::outcome::ErrorCode;
use crate::telemetry::VmCounters;
use std::collections::BTreeMap;
use std::fmt;

/// A machine outcome reduced to its safety-relevant class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeClass {
    /// Terminated with a value.
    Value,
    /// Exhausted the step budget (the step-index escape clause — benign).
    OutOfFuel,
    /// Terminated with `fail c`.
    Fail(ErrorCode),
    /// Stuck under an augmented semantics (LCVM's phantom-flag mode); never
    /// safe.
    Stuck,
}

impl OutcomeClass {
    /// True if the class is permitted by semantic type safety.
    pub fn is_safe(self) -> bool {
        match self {
            OutcomeClass::Value | OutcomeClass::OutOfFuel => true,
            OutcomeClass::Fail(c) => c.is_benign(),
            OutcomeClass::Stuck => false,
        }
    }

    /// A short stable label, used as histogram key.
    pub fn label(self) -> String {
        match self {
            OutcomeClass::Value => "value".into(),
            OutcomeClass::OutOfFuel => "out-of-fuel".into(),
            OutcomeClass::Fail(c) => format!("fail-{c}"),
            OutcomeClass::Stuck => "stuck".into(),
        }
    }
}

impl fmt::Display for OutcomeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The shared projection of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// How the machine halted.
    pub outcome: OutcomeClass,
    /// Machine steps consumed (== fuel consumed; both machines charge one
    /// fuel unit per step).
    pub steps: u64,
    /// Deterministic VM telemetry for the run: instructions by opcode class,
    /// allocation totals, and high-water marks.
    pub counters: VmCounters,
}

/// Per-stage wall-clock totals for one scenario or one whole sweep, in
/// nanoseconds.  Collected only when the sweep asks for timing (`semint
/// sweep --time`); wall-clock is inherently nondeterministic, so timings are
/// excluded from [`CaseReport::digest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Scenario generation.
    pub generate_ns: u64,
    /// Type checking (including boundary convertibility queries).
    pub typecheck_ns: u64,
    /// Compilation with glue emission (each scenario compiles exactly once;
    /// the artifact is then shared by the model-check and run stages).
    pub compile_ns: u64,
    /// Target-machine execution of the already-compiled artifact.
    pub run_ns: u64,
    /// Realizability-model checking.
    pub model_check_ns: u64,
}

impl StageTimings {
    /// Adds another timing record into this one, stage by stage.
    pub fn absorb(&mut self, other: &StageTimings) {
        self.generate_ns += other.generate_ns;
        self.typecheck_ns += other.typecheck_ns;
        self.compile_ns += other.compile_ns;
        self.run_ns += other.run_ns;
        self.model_check_ns += other.model_check_ns;
    }

    /// Total wall-clock across all stages.
    pub fn total_ns(&self) -> u64 {
        self.generate_ns + self.typecheck_ns + self.compile_ns + self.run_ns + self.model_check_ns
    }

    /// The stages as `(label, nanoseconds)` pairs, in pipeline order.
    pub fn stages(&self) -> [(&'static str, u64); 5] {
        [
            ("generate", self.generate_ns),
            ("typecheck", self.typecheck_ns),
            ("compile", self.compile_ns),
            ("run", self.run_ns),
            ("model-check", self.model_check_ns),
        ]
    }

    /// Sets the stage named `label` (the names from
    /// [`StageTimings::stages`]); unknown labels are rejected.
    pub fn set_stage(&mut self, label: &str, ns: u64) -> Result<(), String> {
        match label {
            "generate" => self.generate_ns = ns,
            "typecheck" => self.typecheck_ns = ns,
            "compile" => self.compile_ns = ns,
            "run" => self.run_ns = ns,
            "model-check" => self.model_check_ns = ns,
            other => return Err(format!("unknown stage {other:?}")),
        }
        Ok(())
    }
}

/// The full record of one swept scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// The scenario seed.
    pub seed: u64,
    /// The claimed (and re-checked) source type, rendered.
    pub ty: String,
    /// Rendered length of the program — a cheap, stable size proxy.
    pub program_chars: usize,
    /// Syntactic language-boundary count of the program.
    pub boundaries: usize,
    /// The run projection, if the pipeline reached the run stage.
    pub stats: Option<RunStats>,
    /// The stage that failed, if any.
    pub failure: Option<FailureRecord>,
    /// Per-stage wall-clock, when the sweep collects timing.
    pub timings: Option<StageTimings>,
}

/// Which pipeline stage rejected a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailStage {
    /// The generator's claimed type did not re-check.
    Typecheck,
    /// Compilation failed.
    Compile,
    /// The run halted unsafely (`fail Type`).
    Run,
    /// The realizability model rejected the program.
    ModelCheck,
}

impl fmt::Display for FailStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailStage::Typecheck => "typecheck",
            FailStage::Compile => "compile",
            FailStage::Run => "run",
            FailStage::ModelCheck => "model-check",
        };
        f.write_str(s)
    }
}

/// A failed scenario, with its shrunk counterexample when the engine could
/// produce one.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// The scenario seed.
    pub seed: u64,
    /// The stage that failed.
    pub stage: FailStage,
    /// Why it failed.
    pub reason: String,
    /// The original failing program, rendered.
    pub witness: String,
    /// The shrunk failing program, rendered (equals `witness` when no
    /// smaller failing program was found).
    pub shrunk: String,
    /// How many shrinking steps were applied.
    pub shrink_steps: usize,
}

impl fmt::Display for FailureRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {}: {} failure: {}\n  witness: {}\n  shrunk ({} steps): {}",
            self.seed, self.stage, self.reason, self.witness, self.shrink_steps, self.shrunk
        )
    }
}

/// Aggregate report for one case study over one seed range.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// Case-study name.
    pub case: String,
    /// Number of scenarios swept.
    pub scenarios: u64,
    /// Outcome-class histogram over all runs.
    pub outcome_histogram: BTreeMap<String, u64>,
    /// Total machine steps (== fuel consumed) across all runs.
    pub total_steps: u64,
    /// Total syntactic boundary crossings across all generated programs.
    pub total_boundaries: u64,
    /// Total rendered program size (characters) across all scenarios.
    pub total_program_chars: u64,
    /// Glue-cache hits during the sweep (see
    /// [`crate::convert::GlueCache`]); filled in by the sweep engine.  The
    /// case's generator, typechecker and compiler share the cache, so this
    /// counts the generator's convertibility probes too.
    pub glue_hits: u64,
    /// Glue-cache misses (full structural derivations) during the sweep,
    /// the generator's included: each distinct pair misses once (more only
    /// when parallel workers race on it), in whichever stage asks first,
    /// usually generation.
    pub glue_misses: u64,
    /// Aggregated VM counters across all runs: counts add, high-water marks
    /// take the per-scenario maximum (see [`VmCounters::absorb`]), so shard
    /// merge and batch grouping reproduce the unsharded aggregate exactly.
    /// Zero for reports read from files written before counters existed.
    pub counters: VmCounters,
    /// Per-stage wall-clock totals, when the sweep collected timing.
    pub timings: Option<StageTimings>,
    /// Scenarios that failed some pipeline stage.
    pub failures: Vec<FailureRecord>,
}

impl CaseReport {
    /// An empty report for a named case study.
    pub fn new(case: impl Into<String>) -> Self {
        CaseReport {
            case: case.into(),
            ..CaseReport::default()
        }
    }

    /// Folds one scenario record into the aggregate.
    pub fn absorb(&mut self, record: &ScenarioRecord) {
        self.scenarios += 1;
        self.total_boundaries += record.boundaries as u64;
        self.total_program_chars += record.program_chars as u64;
        if let Some(stats) = &record.stats {
            *self
                .outcome_histogram
                .entry(stats.outcome.label())
                .or_insert(0) += 1;
            self.total_steps += stats.steps;
            self.counters.absorb(&stats.counters);
        }
        if let Some(failure) = &record.failure {
            self.failures.push(failure.clone());
        }
        if let Some(timings) = &record.timings {
            self.timings
                .get_or_insert_with(StageTimings::default)
                .absorb(timings);
        }
    }

    /// Merges another report over the *same* case study into this one:
    /// every aggregate folds associatively and commutatively (counts add,
    /// counter high-water marks take the max), so merging the per-shard
    /// reports of a partitioned seed range reproduces the unsharded report
    /// — its [`CaseReport::digest`] *and* its [`VmCounters`] — exactly.
    pub fn merge(&mut self, other: &CaseReport) {
        debug_assert_eq!(self.case, other.case, "merging reports of different cases");
        self.scenarios += other.scenarios;
        self.total_steps += other.total_steps;
        self.total_boundaries += other.total_boundaries;
        self.total_program_chars += other.total_program_chars;
        self.glue_hits += other.glue_hits;
        self.glue_misses += other.glue_misses;
        self.counters.absorb(&other.counters);
        for (label, count) in &other.outcome_histogram {
            *self.outcome_histogram.entry(label.clone()).or_insert(0) += count;
        }
        self.failures.extend(other.failures.iter().cloned());
        if let Some(timings) = &other.timings {
            self.timings
                .get_or_insert_with(StageTimings::default)
                .absorb(timings);
        }
    }

    /// Fraction of glue-cache lookups answered from the cache, in `[0, 1]`.
    pub fn glue_hit_rate(&self) -> f64 {
        crate::convert::GlueCacheStats {
            hits: self.glue_hits,
            misses: self.glue_misses,
            entries: 0,
        }
        .hit_rate()
    }

    /// True if no scenario failed any stage.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// A deterministic digest of the aggregate (used by determinism tests
    /// and by `semint sweep` to print a comparable fingerprint).
    pub fn digest(&self) -> String {
        let mut parts: Vec<String> = vec![
            format!("case={}", self.case),
            format!("scenarios={}", self.scenarios),
            format!("steps={}", self.total_steps),
            format!("boundaries={}", self.total_boundaries),
            format!("chars={}", self.total_program_chars),
            format!("failures={}", self.failures.len()),
        ];
        for (label, count) in &self.outcome_histogram {
            parts.push(format!("{label}={count}"));
        }
        parts.join(" ")
    }
}

/// The largest seed range a single sweep accepts.  Tasks are materialised
/// up front (so the pool can deal them round-robin), and this bound keeps
/// that allocation trivially small while still far exceeding any practical
/// sweep.  It also bounds what [`SweepReport::from_tsv`] believes of a
/// saved report's counts, so a corrupt file cannot make it allocate more
/// than a real sweep would.
pub const MAX_SEEDS_PER_SWEEP: u64 = 10_000_000;

/// A whole-sweep report: one [`CaseReport`] per case study.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Reports in sweep order.
    pub cases: Vec<CaseReport>,
}

impl SweepReport {
    /// Total scenarios across all cases.
    pub fn scenarios(&self) -> u64 {
        self.cases.iter().map(|c| c.scenarios).sum()
    }

    /// Total failures across all cases.
    pub fn failure_count(&self) -> usize {
        self.cases.iter().map(|c| c.failures.len()).sum()
    }

    /// Merges another sweep report into this one, matching case reports by
    /// name (cases only in `other` are appended).  Sharded sweeps merge
    /// into the digests of the unsharded sweep — the property `semint
    /// report a.tsv b.tsv` and the CI shard smoke rely on.
    pub fn merge(&mut self, other: &SweepReport) {
        for incoming in &other.cases {
            match self.cases.iter_mut().find(|c| c.case == incoming.case) {
                Some(existing) => existing.merge(incoming),
                None => self.cases.push(incoming.clone()),
            }
        }
    }

    /// Serialises the aggregate (not the failure witnesses) to a simple
    /// line-oriented `key<TAB>value` format that [`SweepReport::from_tsv`]
    /// reads back; used by `semint sweep --save` / `semint report`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for case in &self.cases {
            out.push_str(&format!("case\t{}\n", case.case));
            out.push_str(&format!("scenarios\t{}\n", case.scenarios));
            out.push_str(&format!("total_steps\t{}\n", case.total_steps));
            out.push_str(&format!("total_boundaries\t{}\n", case.total_boundaries));
            out.push_str(&format!(
                "total_program_chars\t{}\n",
                case.total_program_chars
            ));
            out.push_str(&format!("glue_hits\t{}\n", case.glue_hits));
            out.push_str(&format!("glue_misses\t{}\n", case.glue_misses));
            for (key, value) in case.counters.fields() {
                out.push_str(&format!("counter\t{key}\t{value}\n"));
            }
            if let Some(timings) = &case.timings {
                for (label, ns) in timings.stages() {
                    out.push_str(&format!("stage_ns\t{label}\t{ns}\n"));
                }
            }
            out.push_str(&format!("failures\t{}\n", case.failures.len()));
            for (label, count) in &case.outcome_histogram {
                out.push_str(&format!("outcome\t{label}\t{count}\n"));
            }
        }
        out
    }

    /// Parses the format produced by [`SweepReport::to_tsv`].
    ///
    /// Failure counts are restored as placeholder records (witnesses are not
    /// serialised), which is enough for `semint report` rendering.  Counts no
    /// sweep can produce (more than [`MAX_SEEDS_PER_SWEEP`] scenarios, or
    /// more failures than scenarios) are rejected before allocating.
    pub fn from_tsv(text: &str) -> Result<SweepReport, String> {
        let mut report = SweepReport::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split('\t');
            let key = fields.next().unwrap_or_default();
            let value = fields
                .next()
                .ok_or_else(|| format!("line {}: missing value", lineno + 1))?;
            let parse = |v: &str| -> Result<u64, String> {
                v.parse::<u64>()
                    .map_err(|e| format!("line {}: {e}", lineno + 1))
            };
            match key {
                "case" => report.cases.push(CaseReport::new(value)),
                _ => {
                    let case = report
                        .cases
                        .last_mut()
                        .ok_or_else(|| format!("line {}: field before any case", lineno + 1))?;
                    match key {
                        "scenarios" => {
                            case.scenarios = parse(value)?;
                            if case.scenarios > MAX_SEEDS_PER_SWEEP {
                                return Err(format!(
                                    "line {}: more than {MAX_SEEDS_PER_SWEEP} scenarios",
                                    lineno + 1
                                ));
                            }
                        }
                        "total_steps" => case.total_steps = parse(value)?,
                        "total_boundaries" => case.total_boundaries = parse(value)?,
                        "total_program_chars" => case.total_program_chars = parse(value)?,
                        "glue_hits" => case.glue_hits = parse(value)?,
                        "glue_misses" => case.glue_misses = parse(value)?,
                        // Counter rows are optional: files written before
                        // telemetry existed simply leave every field zero.
                        "counter" => {
                            let count = fields
                                .next()
                                .ok_or_else(|| format!("line {}: missing count", lineno + 1))?;
                            if !case.counters.set_field(value, parse(count)?) {
                                return Err(format!(
                                    "line {}: unknown counter {value:?}",
                                    lineno + 1
                                ));
                            }
                        }
                        "stage_ns" => {
                            let ns = fields.next().ok_or_else(|| {
                                format!("line {}: missing stage time", lineno + 1)
                            })?;
                            case.timings
                                .get_or_insert_with(StageTimings::default)
                                .set_stage(value, parse(ns)?)
                                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                        }
                        "failures" => {
                            let failures = parse(value)?;
                            if failures > case.scenarios {
                                return Err(format!(
                                    "line {}: {failures} failures exceed the {} scenarios",
                                    lineno + 1,
                                    case.scenarios
                                ));
                            }
                            for _ in 0..failures {
                                case.failures.push(FailureRecord {
                                    seed: 0,
                                    stage: FailStage::ModelCheck,
                                    reason: "(not serialised)".into(),
                                    witness: String::new(),
                                    shrunk: String::new(),
                                    shrink_steps: 0,
                                });
                            }
                        }
                        "outcome" => {
                            let count = fields
                                .next()
                                .ok_or_else(|| format!("line {}: missing count", lineno + 1))?;
                            case.outcome_histogram
                                .insert(value.to_string(), parse(count)?);
                        }
                        other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
                    }
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, outcome: OutcomeClass, steps: u64) -> ScenarioRecord {
        ScenarioRecord {
            seed,
            ty: "bool".into(),
            program_chars: 10,
            boundaries: 2,
            stats: Some(RunStats {
                outcome,
                steps,
                counters: VmCounters {
                    instr_data: steps,
                    heap_allocs: 1,
                    heap_peak_live: seed + 1,
                    stack_peak: 2,
                    ..VmCounters::default()
                },
            }),
            failure: None,
            timings: None,
        }
    }

    #[test]
    fn absorb_accumulates() {
        let mut r = CaseReport::new("sharedmem");
        r.absorb(&record(0, OutcomeClass::Value, 5));
        r.absorb(&record(1, OutcomeClass::Fail(ErrorCode::Conv), 7));
        assert_eq!(r.scenarios, 2);
        assert_eq!(r.total_steps, 12);
        assert_eq!(r.total_boundaries, 4);
        assert_eq!(r.outcome_histogram.get("value"), Some(&1));
        assert_eq!(r.outcome_histogram.get("fail-Conv"), Some(&1));
        assert!(r.is_clean());
        assert_eq!(r.counters.instr_data, 12, "counts add across scenarios");
        assert_eq!(r.counters.heap_allocs, 2);
        assert_eq!(r.counters.heap_peak_live, 2, "peaks take the max");
    }

    #[test]
    fn safety_classes() {
        assert!(OutcomeClass::Value.is_safe());
        assert!(OutcomeClass::OutOfFuel.is_safe());
        assert!(OutcomeClass::Fail(ErrorCode::Conv).is_safe());
        assert!(!OutcomeClass::Fail(ErrorCode::Type).is_safe());
    }

    #[test]
    fn tsv_round_trip() {
        let mut case = CaseReport::new("affine");
        case.absorb(&record(3, OutcomeClass::Value, 11));
        case.glue_hits = 9;
        case.glue_misses = 4;
        case.timings = Some(StageTimings {
            generate_ns: 1,
            typecheck_ns: 2,
            compile_ns: 3,
            run_ns: 4,
            model_check_ns: 5,
        });
        let report = SweepReport { cases: vec![case] };
        let parsed = SweepReport::from_tsv(&report.to_tsv()).unwrap();
        assert_eq!(parsed.cases.len(), 1);
        assert_eq!(parsed.cases[0].case, "affine");
        assert_eq!(parsed.cases[0].scenarios, 1);
        assert_eq!(parsed.cases[0].total_steps, 11);
        assert_eq!(parsed.cases[0].outcome_histogram.get("value"), Some(&1));
        assert_eq!(parsed.cases[0].glue_hits, 9);
        assert_eq!(parsed.cases[0].glue_misses, 4);
        assert_eq!(parsed.cases[0].timings, report.cases[0].timings);
        assert_eq!(parsed.cases[0].counters, report.cases[0].counters);
    }

    #[test]
    fn tsv_counts_no_sweep_can_produce_are_rejected_before_allocating() {
        // Trusted, this would allocate a hundred billion placeholder failures.
        let huge = "case\tm\nscenarios\t1\nfailures\t100000000000\n";
        let err = SweepReport::from_tsv(huge).unwrap_err();
        assert_eq!(err, "line 3: 100000000000 failures exceed the 1 scenarios");
        let over = format!("case\tm\nscenarios\t{}\n", MAX_SEEDS_PER_SWEEP + 1);
        let err = SweepReport::from_tsv(&over).unwrap_err();
        assert_eq!(err, "line 2: more than 10000000 scenarios");
        // The bounds themselves are legal.
        let at_cap = format!("case\ta\nscenarios\t{MAX_SEEDS_PER_SWEEP}\n");
        assert!(SweepReport::from_tsv(&at_cap).is_ok());
        let all_failed = SweepReport::from_tsv("case\tb\nscenarios\t2\nfailures\t2\n");
        assert_eq!(all_failed.unwrap().cases[0].failures.len(), 2);
    }

    #[test]
    fn tsv_without_counter_rows_parses_to_zeroed_counters() {
        // A file written before telemetry existed: no `counter` rows at all.
        let legacy = "case\tsharedmem\nscenarios\t3\ntotal_steps\t7\n";
        let parsed = SweepReport::from_tsv(legacy).unwrap();
        assert_eq!(parsed.cases[0].scenarios, 3);
        assert!(parsed.cases[0].counters.is_zero());
        // Unknown counter names are still rejected, like unknown keys.
        let bad = "case\tsharedmem\ncounter\tnope\t1\n";
        assert!(SweepReport::from_tsv(bad).is_err());
    }

    #[test]
    fn timings_absorb_and_total() {
        let mut report = CaseReport::new("memgc");
        let mut rec = record(0, OutcomeClass::Value, 1);
        rec.timings = Some(StageTimings {
            generate_ns: 10,
            typecheck_ns: 20,
            compile_ns: 30,
            run_ns: 40,
            model_check_ns: 50,
        });
        report.absorb(&rec);
        report.absorb(&rec);
        let timings = report.timings.expect("collected");
        assert_eq!(timings.generate_ns, 20);
        assert_eq!(timings.total_ns(), 300);
        assert!((report.glue_hit_rate() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn merged_shards_reproduce_the_unsharded_digest() {
        let mut whole = CaseReport::new("sharedmem");
        let mut even = CaseReport::new("sharedmem");
        let mut odd = CaseReport::new("sharedmem");
        for seed in 0..10u64 {
            let rec = record(
                seed,
                if seed % 3 == 0 {
                    OutcomeClass::Value
                } else {
                    OutcomeClass::OutOfFuel
                },
                seed + 1,
            );
            whole.absorb(&rec);
            if seed % 2 == 0 {
                even.absorb(&rec);
            } else {
                odd.absorb(&rec);
            }
        }
        let mut merged = SweepReport { cases: vec![even] };
        merged.merge(&SweepReport { cases: vec![odd] });
        assert_eq!(merged.cases.len(), 1);
        assert_eq!(merged.cases[0].digest(), whole.digest());
        assert_eq!(
            merged.cases[0].counters, whole.counters,
            "VmCounters survive shard merge exactly"
        );
    }

    #[test]
    fn digest_is_deterministic_and_informative() {
        let mut a = CaseReport::new("memgc");
        a.absorb(&record(0, OutcomeClass::Value, 3));
        let mut b = CaseReport::new("memgc");
        b.absorb(&record(0, OutcomeClass::Value, 3));
        assert_eq!(a.digest(), b.digest());
        assert!(a.digest().contains("case=memgc"));
    }
}
