//! Integration tests for batch-oriented execution (PR 5):
//!
//! * sweeps that group compiled artifacts into `--batch N` chunks and drive
//!   each chunk through **one** reused machine produce digests byte-identical
//!   to the unbatched sweep, across all three case studies, all four
//!   [`GenProfile`] presets, and batch sizes {1, 2, 7, 64} (sizes chosen so
//!   batches divide the seed range unevenly, cover it with one chunk, and
//!   degenerate to the per-scenario engine);
//! * a reused machine — `stacklang::Machine` or `lcvm::Machine` reset in
//!   place between programs — is observationally identical to a fresh
//!   machine on proptest-selected generated programs: same outcome, same
//!   final heap, same step count, for every case study's compiled artifacts.

use proptest::prelude::*;
use semint::core::case::{CaseStudy, GenProfile};
use semint::harness::cases::AnyCase;
use semint::harness::engine::{sweep_all, sweep_case, SweepConfig};
use semint::harness::source::SeedRange;

// ---------------------------------------------------------------------------
// Batched ≡ unbatched digests.

const BATCH_SIZES: [usize; 3] = [2, 7, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole guarantee: batching changes amortisation, never results.
    /// For every case study, every preset, and batch sizes that tile the
    /// range unevenly (2, 7) or swallow it whole (64), the batched sweep's
    /// digest equals the `--batch 1` digest byte for byte.
    #[test]
    fn batched_digests_equal_unbatched_digests(start in 0u64..2_000) {
        // 9 seeds: not a multiple of 2 or 7, so final chunks are ragged.
        const LEN: u64 = 9;
        let source = SeedRange::new(start, start + LEN).expect("non-empty");
        for profile in GenProfile::presets() {
            for case in AnyCase::all(false) {
                let cfg = |batch: usize| SweepConfig {
                    jobs: 2,
                    profile,
                    model_check: true,
                    time: false,
                    batch,
                };
                let unbatched = sweep_case(&case, &source, &cfg(1)).digest();
                for batch in BATCH_SIZES {
                    let batched = sweep_case(&case, &source, &cfg(batch)).digest();
                    prop_assert_eq!(
                        &batched,
                        &unbatched,
                        "{} profile={} batch={}",
                        case.name(),
                        profile.name,
                        batch
                    );
                }
            }
        }
    }

    /// Batching composes with the interleaved all-cases pool and with timed
    /// sweeps: `sweep_all` digests are batch-invariant whether or not the
    /// stopwatch is on (timings are measurement-only and excluded from
    /// digests).
    #[test]
    fn batched_sweep_all_is_digest_invariant_timed_or_not(start in 0u64..2_000) {
        const LEN: u64 = 8;
        let source = SeedRange::new(start, start + LEN).expect("non-empty");
        let cases = AnyCase::all(false);
        let digests = |batch: usize, time: bool| {
            let cfg = SweepConfig {
                jobs: 3,
                profile: GenProfile::standard(),
                model_check: false,
                time,
                batch,
            };
            sweep_all(&cases, &source, &cfg)
                .cases
                .iter()
                .map(|c| c.digest())
                .collect::<Vec<_>>()
        };
        let unbatched = digests(1, false);
        for batch in BATCH_SIZES {
            prop_assert_eq!(&digests(batch, false), &unbatched, "batch={}", batch);
            prop_assert_eq!(&digests(batch, true), &unbatched, "timed batch={}", batch);
        }
    }
}

// ---------------------------------------------------------------------------
// Machine reuse ≡ fresh machines, on generated programs.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One `stacklang::Machine`, reset between the compiled artifacts of
    /// proptest-selected sharedmem scenarios, produces run results equal to
    /// a fresh machine per artifact (outcome, final heap, final stack and
    /// step count all compared via `RunResult`'s `PartialEq`).
    #[test]
    fn reused_stacklang_machine_matches_fresh_machines(
        seeds in proptest::collection::vec(0u64..10_000, 1..10)
    ) {
        let case = sharedmem::harness::SharedMemCase::standard();
        let profile = GenProfile::standard();
        let mut reused = stacklang::Machine::new(stacklang::Program::empty());
        for seed in seeds {
            let scenario = case.generate(seed, &profile);
            let compiled = case.compile(&scenario.program).expect("well-typed");
            let fresh = stacklang::Machine::run_program(compiled.clone(), profile.fuel);
            reused.reset(compiled);
            let batched = reused.run_mut(profile.fuel);
            prop_assert_eq!(batched, fresh, "seed {}", seed);
        }
    }

    /// One `lcvm::Machine`, reset between the compiled artifacts of
    /// proptest-selected affine and memgc scenarios (both case studies
    /// target LCVM), matches fresh machines the same way.
    #[test]
    fn reused_lcvm_machine_matches_fresh_machines(
        seeds in proptest::collection::vec(0u64..10_000, 1..10)
    ) {
        let affine = semint::affine::harness::AffineCase::standard();
        let memgc = semint::memgc::harness::MemGcCase::standard();
        let profile = GenProfile::standard();
        let mut reused = lcvm::Machine::new(lcvm::Expr::Unit);
        for seed in seeds {
            let scenario = affine.generate(seed, &profile);
            let compiled = affine.compile(&scenario.program).expect("well-typed");
            let fresh = lcvm::Machine::run_expr(compiled.expr.clone(), profile.fuel);
            reused.reset(compiled.expr);
            prop_assert_eq!(reused.run_mut(profile.fuel), fresh, "affine seed {}", seed);

            let scenario = memgc.generate(seed, &profile);
            let compiled = memgc.compile(&scenario.program).expect("well-typed");
            let fresh = lcvm::Machine::run_expr(compiled.clone(), profile.fuel);
            reused.reset(compiled);
            prop_assert_eq!(reused.run_mut(profile.fuel), fresh, "memgc seed {}", seed);
        }
    }
}

// ---------------------------------------------------------------------------
// The batch dispatcher itself.

/// `AnyCase::execute_batch` unwraps erased artifacts, drives them through
/// the case study's reused machine, and returns reports in input order —
/// one batch of N equal, report for report, to N batches of one.
#[test]
fn any_case_batches_match_one_at_a_time_execution() {
    let profile = GenProfile::standard();
    for case in AnyCase::all(false) {
        let compiled: Vec<_> = (0..10u64)
            .map(|seed| {
                let scenario = case.generate(seed, &profile);
                case.compile(&scenario.program).expect("well-typed")
            })
            .collect();
        let singly: Vec<_> = compiled
            .iter()
            .cloned()
            .flat_map(|artifact| case.execute_batch(vec![artifact], profile.fuel))
            .map(|report| case.stats(&report))
            .collect();
        let batched: Vec<_> = case
            .execute_batch(compiled, profile.fuel)
            .iter()
            .map(|report| case.stats(report))
            .collect();
        assert_eq!(singly.len(), 10, "{}", case.name());
        assert_eq!(batched, singly, "{}", case.name());
    }
}

/// An empty batch is legal and produces no reports (a batch whose scenarios
/// all failed before the run stage executes nothing).
#[test]
fn empty_batches_execute_nothing() {
    for case in AnyCase::all(false) {
        assert!(case
            .execute_batch(Vec::new(), GenProfile::standard().fuel)
            .is_empty());
    }
}
