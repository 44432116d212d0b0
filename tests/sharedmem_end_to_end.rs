//! Cross-crate integration tests for case study 1 (§3), including the
//! randomized instantiations of the Fundamental Property (Thm 3.2) and the
//! type-safety theorems (Thm 3.3/3.4).

use proptest::prelude::*;
use semint::core::{CaseStudy, Fuel, GenProfile};
use semint::reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint::sharedmem::convert::{RefStrategy, SharedMemConversions};
use semint::sharedmem::gen::ProgramGen;
use semint::sharedmem::model::{ModelChecker, SemType};
use semint::sharedmem::multilang::SourceType;
use semint::sharedmem::{SharedMemCase, SmProgram};
use semint::stacklang::{RunResult, Value};

fn run_hl(case: &SharedMemCase, e: &HlExpr) -> Result<RunResult, String> {
    case.run(&SmProgram::Hl(e.clone()), Fuel::steps(200_000))
}

fn run_ll(case: &SharedMemCase, e: &LlExpr) -> Result<RunResult, String> {
    case.run(&SmProgram::Ll(e.clone()), Fuel::steps(200_000))
}

#[test]
fn the_paper_running_example_bool_int_roundtrip() {
    // RefHL booleans cross into RefLL, get arithmetic applied, and come back.
    let case = SharedMemCase::standard();
    let e = HlExpr::if_(
        HlExpr::boundary(
            LlExpr::add(
                LlExpr::boundary(HlExpr::bool_(true), LlType::Int),
                LlExpr::int(0),
            ),
            HlType::Bool,
        ),
        HlExpr::bool_(false),
        HlExpr::bool_(true),
    );
    // true compiles to 0; 0 + 0 = 0; 0 is true; so the first branch (false) runs.
    let r = run_hl(&case, &e).unwrap();
    assert_eq!(r.outcome.value(), Some(Value::Num(1)));
}

#[test]
fn aliasing_through_nested_boundaries_is_preserved() {
    // A RefLL reference crosses into RefHL, gets written, and the update is
    // observed by RefLL through the original alias — with zero copies.
    let case = SharedMemCase::standard();
    let program = LlExpr::app(
        LlExpr::lam(
            "cell",
            LlType::ref_(LlType::Int),
            LlExpr::add(
                LlExpr::boundary(
                    HlExpr::assign(
                        HlExpr::boundary(LlExpr::var("cell"), HlType::ref_(HlType::Bool)),
                        HlExpr::bool_(false),
                    ),
                    LlType::Int,
                ),
                LlExpr::deref(LlExpr::var("cell")),
            ),
        ),
        LlExpr::ref_(LlExpr::int(0)),
    );
    let r = run_ll(&case, &program).unwrap();
    // assignment contributes 0 (unit), the cell now holds false = 1.
    assert_eq!(r.outcome.value(), Some(Value::Num(1)));
    assert_eq!(r.heap.len(), 1, "sharing allocates exactly one cell");
}

#[test]
fn convertibility_soundness_holds_for_every_derivable_rule_in_a_catalogue() {
    let checker = ModelChecker::default();
    let hl_types = [
        HlType::Bool,
        HlType::Unit,
        HlType::ref_(HlType::Bool),
        HlType::ref_(HlType::ref_(HlType::Bool)),
        HlType::sum(HlType::Bool, HlType::Bool),
        HlType::sum(HlType::Unit, HlType::Bool),
        HlType::prod(HlType::Bool, HlType::Unit),
        HlType::prod(HlType::Bool, HlType::Bool),
    ];
    let ll_types = [
        LlType::Int,
        LlType::ref_(LlType::Int),
        LlType::ref_(LlType::ref_(LlType::Int)),
        LlType::array(LlType::Int),
    ];
    let conversions = SharedMemConversions::standard();
    let mut derivable = 0;
    for hl in &hl_types {
        for ll in &ll_types {
            if conversions.derive(hl, ll).is_some() {
                derivable += 1;
                checker
                    .check_convertibility(hl, ll)
                    .unwrap_or_else(|ce| panic!("Lemma 3.1 failed for {hl} ∼ {ll}: {ce}"));
            }
        }
    }
    assert!(
        derivable >= 8,
        "the catalogue should exercise plenty of rules, got {derivable}"
    );
}

#[test]
fn copy_strategy_breaks_aliasing_but_stays_sound() {
    let copy = SharedMemCase::new(SharedMemConversions::with_ref_strategy(RefStrategy::Copy));
    let program = LlExpr::app(
        LlExpr::lam(
            "cell",
            LlType::ref_(LlType::Int),
            LlExpr::add(
                LlExpr::boundary(
                    HlExpr::assign(
                        HlExpr::boundary(LlExpr::var("cell"), HlType::ref_(HlType::Bool)),
                        HlExpr::bool_(false),
                    ),
                    LlType::Int,
                ),
                LlExpr::deref(LlExpr::var("cell")),
            ),
        ),
        LlExpr::ref_(LlExpr::int(0)),
    );
    let r = run_ll(&copy, &program).unwrap();
    // The write went to the copy: RefLL still sees 0 — different behaviour,
    // still type safe.
    assert_eq!(r.outcome.value(), Some(Value::Num(0)));
    assert_eq!(r.heap.len(), 2, "the copy strategy allocates a second cell");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 3.4 (type safety for RefHL), instantiated on random well-typed
    /// multi-language programs: they compile, and running the compiled code
    /// never reaches `fail Type`.
    #[test]
    fn generated_refhl_programs_are_type_safe(seed in any::<u64>()) {
        let case = SharedMemCase::standard();
        let mut generator = ProgramGen::new(seed);
        let ty = generator.gen_hl_type(2);
        let program = generator.gen_hl(&ty);
        let checked = case.type_of(&SmProgram::Hl(program.clone())).expect("generated programs typecheck");
        prop_assert_eq!(checked, SourceType::Hl(ty));
        let result = run_hl(&case, &program).expect("generated programs compile");
        prop_assert!(result.outcome.is_safe(), "unsafe outcome {:?} for {}", result.outcome, program);
    }

    /// Theorem 3.3 for RefLL programs.
    #[test]
    fn generated_refll_programs_are_type_safe(seed in any::<u64>()) {
        let case = SharedMemCase::standard();
        let mut generator = ProgramGen::new(seed);
        let program = generator.gen_ll(&LlType::Int);
        case.type_of(&SmProgram::Ll(program.clone())).expect("generated programs typecheck");
        let result = run_ll(&case, &program).expect("generated programs compile");
        prop_assert!(result.outcome.is_safe(), "unsafe outcome {:?} for {}", result.outcome, program);
    }

    /// The Fundamental Property, executably: compiled well-typed programs
    /// inhabit the expression relation at their own type.
    #[test]
    fn generated_programs_inhabit_their_expression_relation(seed in any::<u64>()) {
        let case = SharedMemCase::standard();
        let checker = ModelChecker::default();
        let mut generator = ProgramGen::with_config(seed, GenProfile { boundary_bias: 30, ..GenProfile::standard() }, case.conversions().clone());
        let ty = generator.gen_hl_type(1);
        let program = SmProgram::Hl(generator.gen_hl(&ty));
        case.type_of(&program).expect("typechecks");
        let compiled = case.compile(&program).expect("compiles");
        let world = semint::sharedmem::model::World::new(20_000);
        prop_assert!(
            checker.expr_in(&world, semint::stacklang::Heap::new(), &compiled, &SemType::Hl(ty.clone())),
            "compiled program not in E⟦{}⟧: {}", ty, program
        );
    }

    /// Boundary-free generated programs behave identically under the sharing
    /// and copying rule sets (the strategies only differ at boundaries).
    #[test]
    fn conversion_strategy_is_unobservable_without_boundaries(seed in any::<u64>()) {
        let profile = GenProfile { boundary_bias: 0, ..GenProfile::standard() };
        let mut g1 = ProgramGen::with_config(seed, profile, SharedMemConversions::standard());
        let ty = g1.gen_hl_type(2);
        let program = g1.gen_hl(&ty);
        let share = SharedMemCase::standard();
        let copy = SharedMemCase::new(SharedMemConversions::with_ref_strategy(RefStrategy::Copy));
        let r1 = run_hl(&share, &program).expect("runs");
        let r2 = run_hl(&copy, &program).expect("runs");
        prop_assert_eq!(r1.outcome, r2.outcome);
    }
}
