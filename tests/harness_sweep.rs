//! Integration tests for the unified scenario engine: a fixed-seed sweep
//! over all three case studies must be deterministic (same seeds → same
//! report, for any thread count) and clean (zero model-check failures), and
//! a deliberately broken conversion must be reported with a shrunk
//! counterexample.

use semint::harness::cases::AnyCase;
use semint::harness::engine::{run_scenario, sweep_all, sweep_case, SweepConfig};
use semint::harness::report::render_sweep;
use semint::harness::source::SeedRange;
use semint::harness::CaseStudy;
use semint_core::case::{ConstructorWeights, GenProfile};
use semint_core::stats::{FailStage, SweepReport};
use semint_core::Fuel;

fn fixed_source() -> SeedRange {
    SeedRange::new(0, 60).expect("well-formed")
}

fn fixed_config(jobs: usize) -> SweepConfig {
    SweepConfig {
        jobs,
        ..SweepConfig::default()
    }
}

#[test]
fn fixed_seed_sweep_covers_all_cases_with_zero_failures() {
    let report = sweep_all(&AnyCase::all(false), &fixed_source(), &fixed_config(4));
    assert_eq!(report.cases.len(), 3);
    let names: Vec<&str> = report.cases.iter().map(|c| c.case.as_str()).collect();
    assert_eq!(names, ["sharedmem", "affine", "memgc"]);
    for case in &report.cases {
        assert_eq!(case.scenarios, 60, "{}", case.case);
        assert!(
            case.is_clean(),
            "{} failures: {:?}",
            case.case,
            case.failures
        );
        // Every scenario ran: the histogram accounts for all of them.
        let runs: u64 = case.outcome_histogram.values().sum();
        assert_eq!(runs, 60, "{}", case.case);
        // All outcomes are safe classes (unsafe ones become failures).
        for label in case.outcome_histogram.keys() {
            assert!(
                label == "value" || label == "out-of-fuel" || label.starts_with("fail-"),
                "{label}"
            );
            assert_ne!(label, "fail-Type", "{}", case.case);
        }
        // Boundaries were actually exercised.
        assert!(
            case.total_boundaries > 0,
            "{} swept no boundaries",
            case.case
        );
    }
}

#[test]
fn sweep_is_deterministic_across_runs_and_thread_counts() {
    let digests = |jobs: usize| -> Vec<String> {
        sweep_all(&AnyCase::all(false), &fixed_source(), &fixed_config(jobs))
            .cases
            .iter()
            .map(|c| c.digest())
            .collect()
    };
    let base = digests(4);
    assert_eq!(base, digests(4), "same configuration must reproduce");
    assert_eq!(base, digests(1), "single-threaded sweep must agree");
    assert_eq!(base, digests(9), "oversubscribed sweep must agree");
}

#[test]
fn single_case_sweep_agrees_with_the_combined_sweep() {
    let combined = sweep_all(&AnyCase::all(false), &fixed_source(), &fixed_config(3));
    for case in AnyCase::all(false) {
        let solo = sweep_case(&case, &fixed_source(), &fixed_config(2));
        let from_combined = combined
            .cases
            .iter()
            .find(|c| c.case == case.name())
            .expect("case present");
        assert_eq!(solo.digest(), from_combined.digest());
    }
}

#[test]
fn broken_conversion_is_reported_with_a_shrunk_counterexample() {
    let report = sweep_all(&AnyCase::all(true), &fixed_source(), &fixed_config(4));
    let sharedmem = &report.cases[0];
    assert!(
        !sharedmem.failures.is_empty(),
        "the broken bool ∼ [int] rule must be caught by the model check"
    );
    for failure in &sharedmem.failures {
        assert_eq!(failure.stage, FailStage::ModelCheck);
        assert!(!failure.shrunk.is_empty());
        assert!(
            failure.shrunk.chars().count() <= failure.witness.chars().count(),
            "shrunk witness must not grow: {} vs {}",
            failure.shrunk,
            failure.witness
        );
    }
    // At least one counterexample shrinks to a strict subterm.
    assert!(
        sharedmem.failures.iter().any(|f| f.shrink_steps > 0),
        "no counterexample shrank: {:?}",
        sharedmem.failures
    );
    // The catalogue-level check (Lemma 3.1) also refutes the broken rule.
    let broken_case = AnyCase::by_name("sharedmem", true).expect("known case");
    let err = broken_case
        .check_conversions()
        .expect_err("broken rule must be refuted");
    assert!(err.claim.contains("broken"), "{}", err.claim);
}

#[test]
fn sweeps_reuse_glue_through_the_shared_cache() {
    let cases = AnyCase::all(false);
    let report = sweep_all(&cases, &fixed_source(), &fixed_config(4));
    for case in &report.cases {
        assert!(
            case.glue_hits > 0,
            "{}: repeated boundary crossings must hit the glue cache \
             (hits {}, misses {})",
            case.case,
            case.glue_hits,
            case.glue_misses
        );
        assert!(
            case.glue_misses > 0,
            "{}: a cold cache must record the first derivations",
            case.case
        );
        assert!(
            case.glue_hits > case.glue_misses,
            "{}: the cache should answer most lookups after warm-up \
             (hits {}, misses {})",
            case.case,
            case.glue_hits,
            case.glue_misses
        );
    }
    // A second sweep over the same cases re-uses the warm cache: no new
    // derivations at all.
    let again = sweep_all(&cases, &fixed_source(), &fixed_config(4));
    for case in &again.cases {
        assert_eq!(
            case.glue_misses, 0,
            "{}: warm-cache sweep must not re-derive anything",
            case.case
        );
    }
    // The counters survive the save/report round trip and are rendered.
    let parsed = SweepReport::from_tsv(&report.to_tsv()).expect("tsv round trip");
    for (orig, parsed) in report.cases.iter().zip(&parsed.cases) {
        assert_eq!(orig.glue_hits, parsed.glue_hits);
        assert_eq!(orig.glue_misses, parsed.glue_misses);
    }
    assert!(render_sweep(&parsed).contains("glue cache"));
}

#[test]
fn timed_sweep_reports_per_stage_wall_clock() {
    let cfg = SweepConfig {
        time: true,
        ..fixed_config(2)
    };
    let report = sweep_all(&AnyCase::all(false), &fixed_source(), &cfg);
    for case in &report.cases {
        let timings = case.timings.expect("--time collects stage totals");
        assert!(timings.run_ns > 0, "{}", case.case);
        assert!(timings.total_ns() >= timings.run_ns, "{}", case.case);
    }
    // Timed and untimed sweeps agree on everything the digest covers.
    let untimed = sweep_all(&AnyCase::all(false), &fixed_source(), &fixed_config(2));
    let digests = |r: &SweepReport| r.cases.iter().map(|c| c.digest()).collect::<Vec<_>>();
    assert_eq!(digests(&report), digests(&untimed));
}

#[test]
fn run_scenario_records_the_pipeline_outcome() {
    let case = AnyCase::by_name("memgc", false).expect("known case");
    let cfg = fixed_config(1);
    for seed in 0..10 {
        let record = run_scenario(&case, seed, &cfg);
        assert_eq!(record.seed, seed);
        assert!(
            record.failure.is_none(),
            "seed {seed}: {:?}",
            record.failure
        );
        let stats = record.stats.expect("pipeline reached the run stage");
        assert!(stats.outcome.is_safe());
        assert!(record.program_chars > 0);
    }
}

/// One case study's pinned sweep: its digest, then its counters in
/// `VmCounters` field order (data, control, fun, heap instructions;
/// boundary crossings; heap allocs, frees, reuses, peak live; stack peak).
type CasePin = (&'static str, [u64; 10]);

/// Pins the exact generator output: seeds 0..40 of every case study under
/// `smoke`, `default`, `deep` and a custom `deep` variant must reproduce these
/// digests and VM counters, with the model check off and on.  Any change to
/// a generator, a rule set or a machine that alters what is generated or how
/// it runs shows up here, and so does a model check that perturbs a result.
#[test]
fn generator_output_is_pinned_for_four_profiles() {
    let custom = GenProfile {
        name: "custom",
        boundary_bias: 60,
        weights: ConstructorWeights {
            leaf: 1,
            branch: 3,
            wrap: 1,
        },
        fuel: Fuel::steps(100_000),
        ..GenProfile::deep()
    };
    let pins: [(GenProfile, [CasePin; 3]); 4] = [
        (
            GenProfile::smoke(),
            [
                (
                    "case=sharedmem scenarios=40 steps=314 boundaries=17 chars=1078 failures=0 value=40",
                    [202, 21, 85, 6, 17, 6, 0, 0, 1, 3],
                ),
                (
                    "case=affine scenarios=40 steps=754 boundaries=15 chars=1156 failures=0 value=40",
                    [447, 18, 234, 55, 15, 10, 0, 0, 1, 5],
                ),
                (
                    "case=memgc scenarios=40 steps=452 boundaries=24 chars=971 failures=0 value=40",
                    [244, 10, 134, 64, 24, 18, 1, 0, 3, 4],
                ),
            ],
        ),
        (
            GenProfile::standard(),
            [
                (
                    "case=sharedmem scenarios=40 steps=834 boundaries=102 chars=3776 failures=0 fail-Conv=1 value=39",
                    [518, 63, 245, 8, 102, 8, 0, 0, 2, 4],
                ),
                (
                    "case=affine scenarios=40 steps=1321 boundaries=49 chars=2230 failures=0 value=40",
                    [760, 34, 465, 62, 49, 11, 0, 0, 3, 8],
                ),
                (
                    "case=memgc scenarios=40 steps=1094 boundaries=64 chars=1948 failures=0 value=40",
                    [551, 40, 367, 136, 64, 24, 2, 1, 3, 8],
                ),
            ],
        ),
        (
            GenProfile::deep(),
            [
                (
                    "case=sharedmem scenarios=40 steps=2867 boundaries=242 chars=11810 failures=0 fail-Conv=6 value=34",
                    [1850, 135, 843, 39, 242, 39, 0, 0, 4, 7],
                ),
                (
                    "case=affine scenarios=40 steps=4548 boundaries=114 chars=9078 failures=0 value=40",
                    [2863, 88, 1488, 109, 114, 22, 0, 0, 3, 13],
                ),
                (
                    "case=memgc scenarios=40 steps=3938 boundaries=149 chars=6222 failures=0 value=40",
                    [2077, 110, 1242, 509, 149, 103, 20, 15, 6, 13],
                ),
            ],
        ),
        (
            custom,
            [
                (
                    "case=sharedmem scenarios=40 steps=1906 boundaries=325 chars=10481 failures=0 fail-Conv=4 value=36",
                    [1180, 95, 615, 16, 325, 16, 0, 0, 2, 6],
                ),
                (
                    "case=affine scenarios=40 steps=4017 boundaries=173 chars=9985 failures=0 value=40",
                    [2459, 80, 1422, 56, 173, 13, 0, 0, 3, 14],
                ),
                (
                    "case=memgc scenarios=40 steps=3542 boundaries=168 chars=5153 failures=0 value=40",
                    [2040, 124, 1128, 250, 168, 58, 2, 1, 5, 14],
                ),
            ],
        ),
    ];
    let source = SeedRange::new(0, 40).expect("well-formed");
    for (profile, expected) in pins {
        for model_check in [false, true] {
            let cfg = SweepConfig {
                jobs: 2,
                profile,
                model_check,
                ..SweepConfig::default()
            };
            let report = sweep_all(&AnyCase::all(false), &source, &cfg);
            for (case, (digest, counters)) in report.cases.iter().zip(expected) {
                let c = case.counters;
                let row = [
                    c.instr_data,
                    c.instr_control,
                    c.instr_fun,
                    c.instr_heap,
                    c.boundary_crossings,
                    c.heap_allocs,
                    c.heap_frees,
                    c.heap_reuses,
                    c.heap_peak_live,
                    c.stack_peak,
                ];
                let setting = format!("profile {}, model check {model_check}", profile.name);
                assert_eq!(case.digest(), digest, "{setting}");
                assert_eq!(row, counters, "{setting}: {}", case.case);
            }
        }
    }
}
