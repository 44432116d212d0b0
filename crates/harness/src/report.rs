//! Plain-text rendering of sweep reports for the `semint` CLI.
//!
//! Two kinds of sweep-time signal land here: the optional per-stage
//! wall-clock block (`--time`), and the always-on deterministic VM counters
//! — instructions retired by opcode class, boundary crossings, allocation
//! totals, high-water marks — which are digest-grade facts identical across
//! every `--jobs`/`--batch`/shard combination.
//!
//! Saved reports have one on-disk form, the TSV of [`SweepReport::to_tsv`];
//! `semint bench --save` puts a [`BenchMeta`] header block before it.

use semint_core::stats::{CaseReport, SweepReport};
use std::fmt::Write as _;

/// Renders one case report as an aligned block.
pub fn render_case(report: &CaseReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("case {}\n", report.case));
    out.push_str(&format!("  scenarios        {:>10}\n", report.scenarios));
    out.push_str(&format!("  total steps      {:>10}\n", report.total_steps));
    out.push_str(&format!(
        "  boundaries       {:>10}\n",
        report.total_boundaries
    ));
    let avg_chars = report
        .total_program_chars
        .checked_div(report.scenarios)
        .unwrap_or(0);
    out.push_str(&format!("  avg program size {:>10} chars\n", avg_chars));
    out.push_str(&format!(
        "  glue cache       {:>10} hits / {} misses ({:.1}% hit rate)\n",
        report.glue_hits,
        report.glue_misses,
        report.glue_hit_rate() * 100.0
    ));
    if !report.counters.is_zero() {
        out.push_str("  vm counters\n");
        for (label, value) in report.counters.fields() {
            out.push_str(&format!("    {label:<18} {value:>12}\n"));
        }
        out.push_str(&format!(
            "    {:<18} {:>12}\n",
            "total_instrs",
            report.counters.total_instrs()
        ));
    }
    if let Some(timings) = &report.timings {
        out.push_str("  stage wall-clock\n");
        for (label, ns) in timings.stages() {
            out.push_str(&format!(
                "    {label:<14} {:>10.3} ms\n",
                ns as f64 / 1_000_000.0
            ));
        }
        out.push_str(&format!(
            "    {:<14} {:>10.3} ms\n",
            "total",
            timings.total_ns() as f64 / 1_000_000.0
        ));
    }
    out.push_str("  outcomes\n");
    if report.outcome_histogram.is_empty() {
        out.push_str("    (none)\n");
    }
    for (label, count) in &report.outcome_histogram {
        out.push_str(&format!("    {label:<14} {count:>8}\n"));
    }
    out.push_str(&format!(
        "  failures         {:>10}\n",
        report.failures.len()
    ));
    for failure in &report.failures {
        out.push_str(&format!(
            "    seed {:>6} [{}] {}\n      witness: {}\n      shrunk ({} steps): {}\n",
            failure.seed,
            failure.stage,
            failure.reason,
            truncate(&failure.witness, 120),
            failure.shrink_steps,
            truncate(&failure.shrunk, 120),
        ));
    }
    out
}

/// Renders a whole sweep report.
pub fn render_sweep(report: &SweepReport) -> String {
    let mut out = String::new();
    for case in &report.cases {
        out.push_str(&render_case(case));
        out.push('\n');
    }
    out.push_str(&format!(
        "total: {} scenarios, {} failures\n",
        report.scenarios(),
        report.failure_count()
    ));
    out
}

/// Renders a `semint serve` job's rolling merge: the digests-so-far of a
/// partially merged sweep, one compact line per case, headed by shard
/// progress.  Once every shard has landed these digests are byte-identical
/// to the unsharded sweep's, so the rolling view converges on exactly what
/// [`render_sweep`] would show for a one-shot run.
pub fn render_rolling(report: &SweepReport, shards_done: u64, shards_total: u64) -> String {
    let mut out = format!("rolling merge: {shards_done}/{shards_total} shards\n");
    if report.cases.is_empty() {
        out.push_str("  (no shard results yet)\n");
        return out;
    }
    for case in &report.cases {
        out.push_str(&format!(
            "  case {:<12} {:>8} scenarios · {:>3} failures · {}\n",
            case.case,
            case.scenarios,
            case.failures.len(),
            case.digest()
        ));
    }
    out
}

/// The sweep-independent facts of one bench invocation.  `semint bench
/// --save` writes them ahead of the report TSV as a header block of one
/// `bench<TAB>key<TAB>value` line per field ([`BenchMeta::to_header`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMeta {
    /// The generation profile's name.
    pub profile: String,
    /// How many repeats ran (the report is the best one).
    pub repeat: usize,
    /// Worker threads.
    pub jobs: usize,
    /// Compiled artifacts executed per reused machine (`--batch N`; 1 means
    /// one machine per scenario).
    pub batch: usize,
    /// Whether the realizability-model stage ran.
    pub model_check: bool,
    /// Whether each scenario had a cold glue cache of its own (`--cold`).
    pub cold: bool,
    /// Best-repeat wall clock in nanoseconds.
    pub wall_ns: u64,
    /// Whether every repeat produced identical digests.
    pub digests_stable: bool,
}

impl BenchMeta {
    /// Scenarios per second over the best repeat's wall clock.
    pub fn throughput_per_s(&self, scenarios: u64) -> f64 {
        scenarios as f64 / (self.wall_ns as f64 / 1e9).max(1e-9)
    }

    /// Every field as its header key and value: six settings, which must
    /// agree for two benches to be comparable, then two results.
    fn fields(&self) -> [(&'static str, String); 8] {
        [
            ("profile", self.profile.clone()),
            ("repeat", self.repeat.to_string()),
            ("jobs", self.jobs.to_string()),
            ("batch", self.batch.to_string()),
            ("model_check", self.model_check.to_string()),
            ("cold", self.cold.to_string()),
            ("wall_ns", self.wall_ns.to_string()),
            ("digests_stable", self.digests_stable.to_string()),
        ]
    }

    /// The header block: one `bench<TAB>key<TAB>value` line per field.
    pub fn to_header(&self) -> String {
        self.fields()
            .into_iter()
            .map(|(key, value)| format!("bench\t{key}\t{value}\n"))
            .collect()
    }

    /// Splits a saved report into its bench header, if it has one, and the
    /// report TSV after it.  A header is every field, once each, in the
    /// order [`BenchMeta::to_header`] writes them.
    fn split_header(text: &str) -> Result<(Option<BenchMeta>, &str), String> {
        if !text.starts_with("bench\t") {
            return Ok((None, text));
        }
        // Eight header lines, then the report.
        let mut lines = text.splitn(9, '\n');
        let mut field = |key: &str| {
            let line = lines.next().unwrap_or_default().trim_end();
            match line
                .strip_prefix("bench\t")
                .and_then(|f| f.split_once('\t'))
            {
                Some((found, value)) if found == key => Ok(value),
                _ => Err(format!(
                    "bench header: expected the {key:?} field, found {line:?}"
                )),
            }
        };
        fn parsed<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("bench header: cannot parse {key} {value:?}"))
        }
        let meta = BenchMeta {
            profile: field("profile")?.to_string(),
            repeat: parsed("repeat", field("repeat")?)?,
            jobs: parsed("jobs", field("jobs")?)?,
            batch: parsed("batch", field("batch")?)?,
            model_check: parsed("model_check", field("model_check")?)?,
            cold: parsed("cold", field("cold")?)?,
            wall_ns: parsed("wall_ns", field("wall_ns")?)?,
            digests_stable: parsed("digests_stable", field("digests_stable")?)?,
        };
        match lines.next().unwrap_or_default() {
            extra if extra.starts_with("bench\t") => Err(format!(
                "bench header: unknown field after \"digests_stable\": {:?}",
                extra.lines().next().unwrap_or_default()
            )),
            body => Ok((Some(meta), body)),
        }
    }
}

/// Renders a bench header as the one-line summary `semint report` prints
/// above a bench save's report.
pub fn render_bench_meta(meta: &BenchMeta, scenarios: u64) -> String {
    let glue_cache = if meta.cold {
        "cold per scenario"
    } else {
        "shared"
    };
    format!(
        "bench: profile {} · {} repeats · jobs {} · batch {} · model check {} · \
         glue cache {} · best wall-clock {:.3} s ({:.0} scenarios/s) · \
         digests stable: {}",
        meta.profile,
        meta.repeat,
        meta.jobs,
        meta.batch,
        if meta.model_check { "on" } else { "off" },
        glue_cache,
        meta.wall_ns as f64 / 1e9,
        meta.throughput_per_s(scenarios),
        if meta.digests_stable { "yes" } else { "NO" }
    )
}

/// Reads a saved report: the TSV of `semint sweep --save`, or that TSV
/// behind the bench header of `semint bench --save`.
pub fn read_saved(text: &str) -> Result<(Option<BenchMeta>, SweepReport), String> {
    let (meta, body) = BenchMeta::split_header(text)?;
    let report = SweepReport::from_tsv(body).map_err(|e| match meta {
        Some(_) => format!("{e} (counting from the line after the bench header)"),
        None => e,
    })?;
    Ok((meta, report))
}

/// Largest tolerated `bench-diff` throughput drop relative to the baseline.
pub const MAX_THROUGHPUT_REGRESSION: f64 = 0.25;

/// `semint bench-diff`'s gate over two bench saves, each `(path, text)`:
/// fails on digest drift, on drift in a counter the baseline has a row for,
/// or on throughput more than [`MAX_THROUGHPUT_REGRESSION`] below the
/// baseline.  Returns the rendered comparison and whether it passed; `Err`
/// means the saves are unreadable, lack a header, or were benched with
/// different settings, under which throughput is not comparable.
pub fn bench_diff(baseline: (&str, &str), current: (&str, &str)) -> Result<(String, bool), String> {
    let load = |(path, text): (&str, &str)| match read_saved(text) {
        Ok((Some(meta), report)) => Ok((meta, report)),
        Ok((None, _)) => Err(format!(
            "{path}: no bench header; bench-diff compares files saved by `semint bench --save`"
        )),
        Err(e) => Err(format!("{path}: {e}")),
    };
    let (base_meta, base) = load(baseline)?;
    let (current_meta, now) = load(current)?;
    let (base_fields, current_fields) = (base_meta.fields(), current_meta.fields());
    let differing: Vec<String> = base_fields[..6]
        .iter()
        .zip(&current_fields)
        .filter(|((_, was), (_, is))| was != is)
        .map(|((key, was), (_, is))| format!("{key} {was} vs {is}"))
        .collect();
    if !differing.is_empty() {
        return Err(format!(
            "{} and {} were benched with different settings ({}); \
             rerun the bench with the baseline's settings",
            baseline.0,
            current.0,
            differing.join(", ")
        ));
    }
    // Only counters the baseline has rows for constrain the current run.
    let recorded = |key: &str| baseline.1.contains(&format!("\ncounter\t{key}\t"));
    let counter_drift = |was: &CaseReport, is: &CaseReport| {
        let mut pairs = was.counters.fields().into_iter().zip(is.counters.fields());
        pairs.any(|((key, was), (_, is))| was != is && recorded(key))
    };
    let mut out = String::new();
    let mut clean = true;
    for was in &base.cases {
        let verdict = match now.cases.iter().find(|c| c.case == was.case) {
            None => format!("MISSING from {}", current.0),
            Some(is) if is.digest() != was.digest() => {
                let (was, is) = (was.digest(), is.digest());
                format!("DIGEST DRIFT\n  baseline {was}\n  current  {is}")
            }
            Some(is) if counter_drift(was, is) => {
                let (was, is) = (was.counters, is.counters);
                format!("VM COUNTER DRIFT\n  baseline {was}\n  current  {is}")
            }
            Some(_) => format!("digest OK ({})", was.digest()),
        };
        clean &= verdict.starts_with("digest OK");
        let _ = writeln!(out, "case {}: {verdict}", was.case);
    }
    for is in &now.cases {
        if !base.cases.iter().any(|was| was.case == is.case) {
            clean = false;
            let _ = writeln!(out, "case {}: not in baseline {}", is.case, baseline.0);
        }
    }
    let base_tp = base_meta.throughput_per_s(base.scenarios());
    let current_tp = current_meta.throughput_per_s(now.scenarios());
    let floor = base_tp * (1.0 - MAX_THROUGHPUT_REGRESSION);
    let _ = writeln!(
        out,
        "throughput: baseline {base_tp:.0}/s, current {current_tp:.0}/s (floor {floor:.0}/s)"
    );
    if current_tp < floor {
        clean = false;
        let pct = MAX_THROUGHPUT_REGRESSION * 100.0;
        let _ = writeln!(
            out,
            "throughput REGRESSION: more than {pct:.0}% below baseline"
        );
    }
    let _ = writeln!(out, "bench-diff: {}", if clean { "OK" } else { "FAILED" });
    Ok((out, clean))
}

fn truncate(s: &str, max_chars: usize) -> String {
    if s.chars().count() <= max_chars {
        s.to_string()
    } else {
        let prefix: String = s.chars().take(max_chars).collect();
        format!("{prefix}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semint_core::stats::{FailStage, FailureRecord};

    #[test]
    fn render_includes_failures_and_totals() {
        let mut case = CaseReport::new("sharedmem");
        case.scenarios = 2;
        case.failures.push(FailureRecord {
            seed: 7,
            stage: FailStage::ModelCheck,
            reason: "not in E⟦bool⟧".into(),
            witness: "if true then false else true".into(),
            shrunk: "true".into(),
            shrink_steps: 3,
        });
        let text = render_sweep(&SweepReport { cases: vec![case] });
        assert!(text.contains("case sharedmem"));
        assert!(text.contains("seed      7"));
        assert!(text.contains("shrunk (3 steps): true"));
        assert!(text.contains("total: 2 scenarios, 1 failures"));
    }

    #[test]
    fn render_includes_glue_cache_and_timings() {
        let mut case = CaseReport::new("memgc");
        case.scenarios = 4;
        case.glue_hits = 30;
        case.glue_misses = 10;
        case.timings = Some(semint_core::StageTimings {
            generate_ns: 2_000_000,
            typecheck_ns: 1_000_000,
            compile_ns: 500_000,
            run_ns: 4_000_000,
            model_check_ns: 0,
        });
        let text = render_case(&case);
        assert!(text.contains("glue cache"), "{text}");
        assert!(
            text.contains("30 hits / 10 misses (75.0% hit rate)"),
            "{text}"
        );
        assert!(text.contains("stage wall-clock"), "{text}");
        assert!(text.contains("generate"), "{text}");
        assert!(text.contains("model-check"), "{text}");
        assert!(text.contains("total"), "{text}");
    }

    #[test]
    fn render_includes_vm_counters_when_nonzero() {
        let mut case = CaseReport::new("affine");
        case.scenarios = 2;
        case.counters = semint_core::VmCounters {
            instr_data: 7,
            instr_control: 2,
            instr_fun: 3,
            instr_heap: 1,
            boundary_crossings: 4,
            heap_allocs: 1,
            heap_frees: 1,
            heap_reuses: 0,
            heap_peak_live: 1,
            stack_peak: 5,
        };
        let text = render_case(&case);
        assert!(text.contains("vm counters"), "{text}");
        assert!(text.contains("instr_data"), "{text}");
        assert!(text.contains("total_instrs"), "{text}");
        // A pre-counter report (all zero) renders no counter block.
        let legacy = render_case(&CaseReport::new("affine"));
        assert!(!legacy.contains("vm counters"), "{legacy}");
    }

    #[test]
    fn rolling_render_shows_progress_and_converged_digests() {
        let empty = render_rolling(&SweepReport::default(), 0, 4);
        assert!(empty.contains("0/4 shards"), "{empty}");
        assert!(empty.contains("no shard results yet"), "{empty}");
        let mut case = CaseReport::new("memgc");
        case.scenarios = 9;
        let digest = case.digest();
        let text = render_rolling(&SweepReport { cases: vec![case] }, 3, 4);
        assert!(text.contains("3/4 shards"), "{text}");
        assert!(text.contains("case memgc"), "{text}");
        assert!(text.contains(&digest), "{text}");
    }

    const BENCH_6: &str = include_str!("../../../BENCH_6.tsv");
    const BENCH_8: &str = include_str!("../../../BENCH_8.tsv");

    /// BENCH_8's report behind a header whose every field differs from its own.
    fn save() -> (BenchMeta, String) {
        let meta = BenchMeta {
            profile: "boundary-heavy".into(),
            repeat: 5,
            jobs: 2,
            batch: 64,
            model_check: true,
            cold: true,
            wall_ns: 250_000_000,
            digests_stable: false,
        };
        let body = BenchMeta::split_header(BENCH_8).unwrap().1;
        (meta.clone(), meta.to_header() + body)
    }

    #[test]
    fn bench_header_round_trips_every_meta_and_report_field() {
        let (meta, text) = save();
        let (parsed, report) = read_saved(&text).expect("parses");
        assert_eq!(parsed.as_ref(), Some(&meta));
        // Rewriting what was read reproduces the file byte for byte.
        assert_eq!(meta.to_header() + &report.to_tsv(), text);
        // Without a header the same reader takes a plain sweep save.
        let (none, plain) = read_saved(&report.to_tsv()).expect("plain TSV");
        assert!(none.is_none() && plain.cases.len() == 3);
    }

    #[test]
    fn malformed_bench_headers_are_friendly_errors() {
        let err = |text: &str| read_saved(text).unwrap_err();
        let no_jobs = BENCH_8.replace("bench\tjobs\t4\n", "");
        let expected = "bench header: expected the \"jobs\" field, found \"bench\\tbatch\\t8\"";
        assert_eq!(err(&no_jobs), expected);
        let unknown = BENCH_8.replace("bench\tcold\t", "bench\tcolder\t");
        assert!(err(&unknown).contains("expected the \"cold\" field"));
        let last = "bench\tdigests_stable\ttrue\n";
        let extra = BENCH_8.replace(last, &format!("{last}bench\tjobs\t2\n"));
        assert!(err(&extra).ends_with("after \"digests_stable\": \"bench\\tjobs\\t2\""));
        let not_bool = BENCH_8.replace("cold\tfalse", "cold\tno");
        assert_eq!(err(&not_bool), "bench header: cannot parse cold \"no\"");
        let bad_body = BENCH_8.replace("total_steps\t", "total_steps\tx");
        assert!(err(&bad_body).ends_with("(counting from the line after the bench header)"));
    }

    #[test]
    fn throughput_is_scenarios_over_wall_seconds() {
        let meta = save().0;
        let per_s = meta.throughput_per_s(1000);
        assert!((per_s - 4000.0).abs() < 1e-6, "{per_s}");
        let line = render_bench_meta(&meta, 1000);
        assert!(line.contains("0.250 s (4000 scenarios/s)"), "{line}");
    }

    #[test]
    fn bench_diff_grandfathers_counters_the_baseline_has_no_row_for() {
        let diff = |base, current| bench_diff(("base", base), ("cur", current)).unwrap();
        let frees = BENCH_8.replacen("heap_frees\t0", "heap_frees\t9", 1);
        // BENCH_6 was written before `heap_frees` existed and has no row for it.
        assert!(diff(BENCH_6, &frees).1);
        // A row that is present and differs is drift.
        let (text, clean) = diff(BENCH_8, &frees);
        assert!(!clean && text.contains("VM COUNTER DRIFT"), "{text}");
    }

    #[test]
    fn bench_diff_flags_drift_and_regressions_and_refuses_other_settings() {
        let diff = |current: &str| bench_diff(("base", BENCH_8), ("cur", current));
        let (text, clean) = diff(BENCH_8).unwrap();
        assert!(clean && text.ends_with("bench-diff: OK\n"), "{text}");
        let (text, clean) = diff(&BENCH_8.replacen("total_steps\t", "total_steps\t1", 1)).unwrap();
        assert!(!clean && text.contains("DIGEST DRIFT"), "{text}");
        let (text, clean) = diff(&BENCH_8.replace("wall_ns\t", "wall_ns\t9")).unwrap();
        assert!(!clean && text.contains("throughput REGRESSION"), "{text}");
        // Results (wall_ns above) may differ freely; settings may not.
        let err = diff(&save().1).unwrap_err();
        let settings = "(profile deep vs boundary-heavy, repeat 3 vs 5, jobs 4 vs 2, batch 8 vs 64, model_check false vs true, cold false vs true)";
        assert!(err.starts_with("base and cur were benched with different settings"));
        assert!(err.contains(settings), "{err}");
        let body = BenchMeta::split_header(BENCH_8).unwrap().1;
        assert!(diff(body).unwrap_err().starts_with("cur: no bench header"));
    }

    #[test]
    fn truncate_caps_long_witnesses() {
        assert_eq!(truncate("short", 10), "short");
        let long = "x".repeat(200);
        let t = truncate(&long, 120);
        assert_eq!(t.chars().count(), 121);
        assert!(t.ends_with('…'));
    }
}
