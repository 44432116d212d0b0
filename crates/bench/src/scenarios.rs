//! Harness-sourced workloads (experiment E9).
//!
//! The E1–E8 builders in the crate root are *hand-shaped*: each one isolates
//! a single cost the paper talks about.  This module is the complementary
//! sampling strategy — programs are sourced through the `semint-harness`
//! scenario engine, so the measured distribution is the same type-directed
//! random population the property suites and `semint sweep` exercise, and
//! every workload automatically covers all three case studies.

use semint_core::case::{CaseStudy, GenProfile};
use semint_core::stats::SweepReport;
use semint_harness::cases::{AnyCase, AnyProgram};
use semint_harness::engine::{sweep_all, SweepConfig};
use semint_harness::source::SeedRange;
use semint_harness::Scenario;

/// The generation profile every E9 workload uses (kept fixed so bench
/// numbers are comparable across runs).
pub fn scenario_profile() -> GenProfile {
    GenProfile::standard()
}

/// The deep-type profile behind the E11 experiment: source types of depth
/// ≥ 4, which puts compound-glue derivation on the sweep's critical path.
pub fn deep_profile() -> GenProfile {
    GenProfile::deep()
}

/// The generated scenarios for `case` over `seeds`, in seed order.
pub fn generated_scenarios(
    case: &AnyCase,
    seeds: std::ops::Range<u64>,
) -> Vec<Scenario<AnyProgram, <AnyCase as CaseStudy>::Ty>> {
    let profile = scenario_profile();
    seeds.map(|seed| case.generate(seed, &profile)).collect()
}

/// The generated programs for `case` over `seeds` (interpreter-bench food).
pub fn generated_programs(case: &AnyCase, seeds: std::ops::Range<u64>) -> Vec<AnyProgram> {
    generated_scenarios(case, seeds)
        .into_iter()
        .map(|s| s.program)
        .collect()
}

fn sweep_with(
    seed_count: u64,
    jobs: usize,
    model_check: bool,
    time: bool,
    profile: GenProfile,
) -> SweepReport {
    let cases = AnyCase::all(false);
    let source = SeedRange::new(0, seed_count).expect("bench ranges are non-empty");
    let cfg = SweepConfig {
        jobs,
        profile,
        model_check,
        time,
        ..SweepConfig::default()
    };
    sweep_all(&cases, &source, &cfg)
}

/// One full harness sweep over all three case studies — the engine-level
/// workload measured by the E9 throughput benchmark.
pub fn harness_sweep(seed_count: u64, jobs: usize, model_check: bool) -> SweepReport {
    sweep_with(seed_count, jobs, model_check, false, scenario_profile())
}

/// Like [`harness_sweep`], but collecting per-stage wall-clock totals — the
/// workload behind the E10 glue-cache experiment (`semint sweep --time`).
pub fn harness_sweep_timed(seed_count: u64, jobs: usize, model_check: bool) -> SweepReport {
    sweep_with(seed_count, jobs, model_check, true, scenario_profile())
}

/// A timed sweep over the `deep` profile — the E11 workload (`semint bench
/// --profile deep`), where compound glue derivation is hot enough for the
/// cache to show up in whole-sweep wall clock.
pub fn deep_sweep_timed(seed_count: u64, jobs: usize) -> SweepReport {
    sweep_with(seed_count, jobs, false, true, deep_profile())
}

/// A timed, model-checked sweep over the `deep` profile — the E12 workload
/// (`semint bench --profile deep --model-check`).  Before PR 4 this was the
/// worst case for redundant early stages (the model check recompiled every
/// scenario on top of the run stage's internal compile); with the
/// artifact-threaded pipeline each scenario is typechecked once and
/// compiled once however many stages consume it.
pub fn deep_sweep_checked(seed_count: u64, jobs: usize) -> SweepReport {
    sweep_with(seed_count, jobs, true, true, deep_profile())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_cover_all_cases_and_run_safely() {
        for case in AnyCase::all(false) {
            let programs = generated_programs(&case, 0..12);
            assert_eq!(programs.len(), 12);
            let compiled = programs
                .iter()
                .map(|program| {
                    case.compile(program)
                        .unwrap_or_else(|e| panic!("{}: {e}", case.name()))
                })
                .collect();
            for report in case.execute_batch(compiled, semint_core::Fuel::steps(200_000)) {
                assert!(case.stats(&report).outcome.is_safe(), "{}", case.name());
            }
        }
    }

    #[test]
    fn harness_sweep_is_clean_and_deterministic() {
        let a = harness_sweep(16, 2, false);
        let b = harness_sweep(16, 4, false);
        assert_eq!(a.scenarios(), 48);
        assert_eq!(a.failure_count(), 0);
        let digests = |r: &SweepReport| r.cases.iter().map(|c| c.digest()).collect::<Vec<_>>();
        assert_eq!(digests(&a), digests(&b));
    }

    #[test]
    fn timed_sweep_collects_stage_totals_and_cache_counters() {
        let report = harness_sweep_timed(12, 2, false);
        assert_eq!(report.failure_count(), 0);
        for case in &report.cases {
            let timings = case.timings.expect("timed sweep records timings");
            assert!(timings.total_ns() > 0, "{}", case.case);
            assert!(
                case.glue_hits + case.glue_misses > 0,
                "{} derived no glue at all",
                case.case
            );
        }
    }

    #[test]
    fn deep_sweep_is_clean_and_exercises_the_cache() {
        let report = deep_sweep_timed(12, 2);
        assert_eq!(report.failure_count(), 0);
        for case in &report.cases {
            assert!(
                case.glue_hits + case.glue_misses > 0,
                "{} derived no glue at all",
                case.case
            );
        }
    }

    #[test]
    fn checked_deep_sweep_is_clean_and_times_every_stage() {
        let report = deep_sweep_checked(10, 2);
        assert_eq!(report.failure_count(), 0);
        // Digest parity with the unchecked sweep of the same seeds: the
        // model-check stage must not perturb results.
        let unchecked = deep_sweep_timed(10, 2);
        for (case, other) in report.cases.iter().zip(&unchecked.cases) {
            let timings = case.timings.expect("timed sweep records timings");
            assert!(timings.model_check_ns > 0, "{}", case.case);
            assert!(timings.compile_ns > 0, "{}", case.case);
            assert_eq!(case.digest(), other.digest());
        }
    }
}
