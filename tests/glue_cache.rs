//! Properties of the shared conversion layer (PR 2): memoized glue
//! derivation must be **observably identical** to cold derivation for deep
//! compound types in all three case studies, and each case's generator must
//! share the case's cache without its programs depending on what the cache
//! holds.

use proptest::prelude::*;
use semint::affine::convert::AffineConversions;
use semint::affine::{AffiType, MlType};
use semint::core::case::GenProfile;
use semint::harness::cases::AnyCase;
use semint::harness::engine::{run_scenario, sweep_all, SweepConfig};
use semint::harness::source::SeedRange;
use semint::harness::{CaseReport, CaseStudy};
use semint::memgc::convert::MemGcConversions;
use semint::memgc::{L3Type, PolyType};
use semint::reflang::syntax::{HlType, LlType};
use semint::sharedmem::convert::SharedMemConversions;

/// A §3 type pair that is derivable at any nesting depth: products (and,
/// innermost, optionally a sum) over the base rules `bool ∼ int` /
/// `unit ∼ int`.  Sums require their payloads to convert to `int`, so the
/// sum sits at the innermost wrap only.
fn sharedmem_pair(depth: u8, use_sum: bool) -> (HlType, LlType) {
    let (mut hl, mut ll) = (HlType::Bool, LlType::Int);
    for level in 0..depth {
        if level == 0 && use_sum {
            hl = HlType::sum(hl, HlType::Unit);
        } else {
            hl = HlType::prod(hl.clone(), hl);
        }
        ll = LlType::array(ll);
    }
    (hl, ll)
}

/// A §4 type pair derivable at any depth: tensors/lollis over `int ∼ int`.
fn affine_pair(depth: u8, lolli: bool) -> (AffiType, MlType) {
    let mut affi = AffiType::Int;
    let mut ml = MlType::Int;
    for level in 0..depth {
        if lolli && level == depth - 1 {
            ml = MlType::fun(MlType::fun(MlType::Unit, ml.clone()), ml);
            affi = AffiType::lolli(affi.clone(), affi);
        } else {
            affi = AffiType::tensor(affi.clone(), affi);
            ml = MlType::prod(ml.clone(), ml);
        }
    }
    (affi, ml)
}

/// A §5 type pair derivable at any depth: products/functions over
/// `int ∼ bool`.
fn memgc_pair(depth: u8, fun: bool) -> (PolyType, L3Type) {
    let mut ml = PolyType::Int;
    let mut l3 = L3Type::Bool;
    for level in 0..depth {
        if fun && level == depth - 1 {
            l3 = L3Type::bang(L3Type::lolli(L3Type::bang(l3.clone()), l3));
            ml = PolyType::fun(ml.clone(), ml);
        } else {
            ml = PolyType::prod(ml.clone(), ml);
            l3 = L3Type::tensor(l3.clone(), l3);
        }
    }
    (ml, l3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharedmem_cached_derivation_is_identical_to_cold(
        depth in 0u8..6,
        use_unit in any::<bool>(),
    ) {
        let (hl, ll) = sharedmem_pair(depth, use_unit);
        let warm = SharedMemConversions::standard();
        let first = warm.derive(&hl, &ll);
        prop_assert!(first.is_some(), "{hl} ∼ {ll} must be derivable");
        // Asking again answers from the cache…
        let misses_after_first = warm.cache().stats().misses;
        let second = warm.derive(&hl, &ll);
        prop_assert_eq!(warm.cache().stats().misses, misses_after_first);
        // …and both the cached and a cold derivation agree, glue for glue.
        let cold = SharedMemConversions::standard().derive(&hl, &ll);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &cold);
    }

    #[test]
    fn affine_cached_derivation_is_identical_to_cold(
        depth in 1u8..6,
        lolli in any::<bool>(),
    ) {
        let (affi, ml) = affine_pair(depth, lolli);
        let warm = AffineConversions::standard();
        let first = warm.derive(&affi, &ml);
        prop_assert!(first.is_some(), "{affi} ∼ {ml} must be derivable");
        let misses_after_first = warm.cache().stats().misses;
        let second = warm.derive(&affi, &ml);
        prop_assert_eq!(warm.cache().stats().misses, misses_after_first);
        let cold = AffineConversions::standard().derive(&affi, &ml);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &cold);
    }

    #[test]
    fn memgc_cached_derivation_is_identical_to_cold(
        depth in 1u8..6,
        fun in any::<bool>(),
    ) {
        let (ml, l3) = memgc_pair(depth, fun);
        let warm = MemGcConversions::standard();
        let first = warm.derive(&ml, &l3);
        prop_assert!(first.is_some(), "{ml} ∼ {l3} must be derivable");
        let misses_after_first = warm.cache().stats().misses;
        let second = warm.derive(&ml, &l3);
        prop_assert_eq!(warm.cache().stats().misses, misses_after_first);
        let cold = MemGcConversions::standard().derive(&ml, &l3);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &cold);
    }
}

/// The §4 higher-order wrapper is the most allocation-heavy glue; make sure
/// the cache returns the same wrapper the cold path builds even when the
/// sub-derivations were cached in a different order.
#[test]
fn affine_out_of_order_subderivations_agree_with_cold() {
    let warm = AffineConversions::standard();
    let (inner_affi, inner_ml) = affine_pair(2, false);
    // Warm the cache bottom-up first…
    let _ = warm.derive(&inner_affi, &inner_ml);
    // …then derive a lolli over the warmed components.
    let affi = AffiType::lolli(inner_affi.clone(), inner_affi.clone());
    let ml = MlType::fun(
        MlType::fun(MlType::Unit, inner_ml.clone()),
        inner_ml.clone(),
    );
    let warm_result = warm.derive(&affi, &ml);
    let cold_result = AffineConversions::standard().derive(&affi, &ml);
    assert_eq!(warm_result, cold_result);
    assert!(warm_result.is_some());
}

/// Generators answer their convertibility probes from the case's shared
/// glue cache, but what they generate must not depend on the cache's state:
/// scenarios from one case whose cache warms seed after seed equal those
/// from a fresh case per seed.  This is what keeps shard order and `--jobs`
/// from changing a scenario.
#[test]
fn generation_does_not_depend_on_glue_cache_state() {
    for profile in [GenProfile::deep(), GenProfile::boundary_heavy()] {
        for warming in AnyCase::all(false) {
            let name = warming.name();
            for seed in 0..200 {
                let warm = warming.generate(seed, &profile);
                warming
                    .typecheck(&warm.program)
                    .and_then(|_| warming.compile(&warm.program))
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                let fresh = AnyCase::by_name(name, false).expect("known case");
                let cold = fresh.generate(seed, &profile);
                assert_eq!(
                    (warm.program.to_string(), warm.ty.to_string()),
                    (cold.program.to_string(), cold.ty.to_string()),
                    "{name} seed {seed} under the {} profile",
                    profile.name
                );
            }
        }
    }
}

/// Generation derives the glue of every boundary it inserts into the case's
/// own cache, so typechecking and compiling the scenario afterwards derive
/// nothing: each glue pair is derived once per sweep, not once per stage.
#[test]
fn typecheck_and_compile_hit_the_pairs_generation_derived() {
    for profile in [GenProfile::deep(), GenProfile::boundary_heavy()] {
        for name in AnyCase::NAMES {
            let mut with_boundaries = 0;
            for seed in 0..100 {
                let case = AnyCase::by_name(name, false).expect("known case");
                let scenario = case.generate(seed, &profile);
                if case.boundary_count(&scenario.program) == 0 {
                    continue;
                }
                with_boundaries += 1;
                let after_generate = case.glue_cache_stats().expect("cached rule set");
                assert!(
                    after_generate.misses > 0,
                    "{name} seed {seed}: nothing derived"
                );
                case.typecheck(&scenario.program)
                    .and_then(|_| case.compile(&scenario.program))
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                let delta = case
                    .glue_cache_stats()
                    .expect("cached rule set")
                    .since(&after_generate);
                assert_eq!(delta.misses, 0, "{name} seed {seed}: {delta:?}");
                assert!(delta.hits > 0, "{name} seed {seed}: no glue looked up");
            }
            assert!(
                with_boundaries > 0,
                "{name}: no {} scenario has a boundary",
                profile.name
            );
        }
    }
}

/// The sweep-level form of the property above: a warm sweep, whose case
/// studies each share one glue cache across all their scenarios, reports
/// exactly what a cold sweep does, in which every scenario gets a freshly
/// built case study (so its generate, typecheck, compile, model-check and
/// run stages share a cache of its own).  Every digest, every VM counter and
/// every outcome histogram must match; only the cache's hit/miss figures
/// may differ.  No cache state may leak into a scenario or its result.
#[test]
fn cold_and_warm_glue_caches_give_identical_reports() {
    let cfg = SweepConfig {
        jobs: 2,
        profile: GenProfile::deep(),
        ..SweepConfig::default()
    };
    let source = SeedRange::new(0, 40).expect("well-formed");
    let warm = sweep_all(&AnyCase::all(false), &source, &cfg);
    assert_eq!(warm.cases.len(), AnyCase::NAMES.len());
    for (name, warm) in AnyCase::NAMES.into_iter().zip(&warm.cases) {
        let mut cold = CaseReport::new(name);
        for seed in 0..40 {
            let fresh = AnyCase::by_name(name, false).expect("known case");
            cold.absorb(&run_scenario(&fresh, seed, &cfg));
        }
        assert_eq!(warm.case, name);
        assert_eq!(cold.digest(), warm.digest(), "{name}");
        assert_eq!(cold.counters, warm.counters, "{name}");
        assert_eq!(cold.outcome_histogram, warm.outcome_histogram, "{name}");
        assert!(
            warm.glue_hits > 0,
            "{name}: the warm sweep never hit its cache"
        );
    }
}

/// Each type pair is derived once per sweep however many workers race for
/// it, so a sweep's glue figures do not depend on `--jobs`: a 4-worker deep
/// sweep reports the hits and misses of a 1-worker one, and every miss is
/// one memoized entry.  Racing workers only collide now and then, hence the
/// repetitions.
#[test]
fn glue_figures_are_the_same_for_every_job_count() {
    let source = SeedRange::new(0, 200).expect("well-formed");
    let sweep = |jobs: usize| {
        let cases = AnyCase::all(false);
        let cfg = SweepConfig {
            jobs,
            profile: GenProfile::deep(),
            model_check: false,
            ..SweepConfig::default()
        };
        let report = sweep_all(&cases, &source, &cfg);
        let figures: Vec<(u64, u64)> = report
            .cases
            .iter()
            .map(|case| (case.glue_hits, case.glue_misses))
            .collect();
        for (case, &(_, misses)) in cases.iter().zip(&figures) {
            let entries = case.glue_cache_stats().expect("cached rule set").entries;
            assert_eq!(misses, entries as u64, "{} at --jobs {jobs}", case.name());
        }
        figures
    };
    let serial = sweep(1);
    for round in 0..10 {
        assert_eq!(sweep(4), serial, "round {round}");
    }
}
