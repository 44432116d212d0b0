//! Quickstart: the paper's framework in five steps, on case study 1.
//!
//! Run with `cargo run --example quickstart`.
//!
//! The example walks the framework of §2 end to end:
//! 1. boundary syntax — a RefHL program embeds RefLL code (and vice versa),
//! 2. convertibility rules — `bool ∼ int`, `ref bool ∼ ref int`, …,
//! 3. realizability model — we ask whether `V⟦bool⟧ = V⟦int⟧`,
//! 4. soundness of conversions — checked executably (Lemma 3.1),
//! 5. soundness of the languages — the compiled program never hits `fail Type`.

use semint::core::{CaseStudy, Fuel};
use semint::reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint::sharedmem::model::{interp_equal, ModelChecker, SemType};
use semint::sharedmem::multilang::SourceType;
use semint::sharedmem::{SharedMemCase, SmProgram};

fn main() {
    // Step 1+2: a multi-language program. RefLL computes an index into an
    // array; RefHL treats the result as a boolean and branches on it.
    let refll_part = LlExpr::index(
        LlExpr::array([LlExpr::int(0), LlExpr::int(7)], LlType::Int),
        LlExpr::int(1),
    );
    let program = HlExpr::if_(
        HlExpr::boundary(refll_part, HlType::Bool),
        HlExpr::pair(HlExpr::bool_(true), HlExpr::unit()),
        HlExpr::pair(HlExpr::bool_(false), HlExpr::unit()),
    );
    println!("source program:\n  {program}\n");

    let case = SharedMemCase::standard();
    let program = SmProgram::Hl(program);
    let Ok(SourceType::Hl(ty)) = case.type_of(&program) else {
        panic!("the program type checks in RefHL");
    };
    println!("type: {ty}");

    let compiled = case.compile(&program).expect("compiles");
    println!(
        "compiled StackLang program ({} instructions):\n  {}\n",
        compiled.len(),
        compiled
    );

    let result = case.run(&program, Fuel::default()).expect("runs");
    println!("result: {}", result.outcome);
    println!("machine steps: {}", result.steps);
    assert!(
        result.outcome.is_safe(),
        "well-typed programs never fail Type"
    );

    // Step 3: the realizability model lets us ask the question the paper
    // highlights: is V⟦bool⟧ the same set of target terms as V⟦int⟧?
    let bool_eq_int = interp_equal(&SemType::Hl(HlType::Bool), &SemType::Ll(LlType::Int));
    let unit_eq_int = interp_equal(&SemType::Hl(HlType::Unit), &SemType::Ll(LlType::Int));
    println!("\nV⟦bool⟧ = V⟦int⟧ ?  {bool_eq_int}");
    println!("V⟦unit⟧ = V⟦int⟧ ?  {unit_eq_int}");

    // Step 4: convertibility soundness, checked executably for a few rules.
    let checker = ModelChecker::default();
    for (hl, ll) in [
        (HlType::Bool, LlType::Int),
        (HlType::ref_(HlType::Bool), LlType::ref_(LlType::Int)),
        (
            HlType::sum(HlType::Bool, HlType::Unit),
            LlType::array(LlType::Int),
        ),
    ] {
        match checker.check_convertibility(&hl, &ll) {
            Ok(()) => println!("Lemma 3.1 holds for  {hl} ∼ {ll}"),
            Err(ce) => println!("COUNTEREXAMPLE for {hl} ∼ {ll}: {ce}"),
        }
    }

    // Step 5: type safety on the compiled program.
    checker
        .check_type_safety(&compiled, Fuel::default())
        .expect("Theorem 3.4: the compiled program is safe");
    println!("\nType safety check passed.");
}
