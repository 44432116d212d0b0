//! Case study 2 (§4): passing affine callbacks to an unrestricted language.
//!
//! Run with `cargo run --example affine_callbacks`.
//!
//! An Affi "resource layer" hands MiniML a one-shot callback (think: a file
//! handle finaliser, a session token consumer).  MiniML is free to call it
//! through the converted type `(unit → int) → int`; if it behaves, everything
//! works, and if it forces the protected argument twice, the inserted guard
//! stops it with the well-defined `Conv` error rather than corrupting the
//! resource.  Affi-internal code using the *static* arrow pays no runtime
//! cost at all.

use semint::affine::syntax::{AffiExpr, AffiType, MlExpr, MlType};
use semint::affine::{AffProgram, AffineCase};
use semint::core::{CaseStudy, Fuel};
use semint::lcvm::Halt;

fn thunked(ty: MlType, res: MlType) -> MlType {
    MlType::fun(MlType::fun(MlType::Unit, ty), res)
}

fn main() {
    let case = AffineCase::standard();

    // The affine callback: int ⊸ int, usable at most once.
    let callback = AffiExpr::lam("token", AffiType::Int, AffiExpr::avar("token"));

    // A polite MiniML consumer: forces the token once and adds 1.
    let polite = MlExpr::app(
        MlExpr::lam(
            "cb",
            thunked(MlType::Int, MlType::Int),
            MlExpr::app(
                MlExpr::var("cb"),
                MlExpr::lam("_", MlType::Unit, MlExpr::int(41)),
            ),
        ),
        MlExpr::boundary(callback.clone(), thunked(MlType::Int, MlType::Int)),
    );
    let polite = AffProgram::Ml(MlExpr::add(polite, MlExpr::int(1)));
    let result = case.run(&polite, Fuel::default()).unwrap();
    println!("polite MiniML consumer:   {:?}", result.halt);
    assert_eq!(result.halt, Halt::Value(semint::lcvm::Value::Int(42)));

    // A rude MiniML consumer: squirrels the guarded thunk away and forces it
    // twice. The second force hits the dynamic guard inserted by the Fig. 9
    // conversion and fails Conv — the affine invariant survives.
    let rude_body = MlExpr::lam(
        "t",
        MlType::fun(MlType::Unit, MlType::Int),
        MlExpr::add(
            MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
            MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
        ),
    );
    let rude = AffiExpr::app(
        AffiExpr::boundary(rude_body, AffiType::lolli(AffiType::Int, AffiType::Int)),
        AffiExpr::int(7),
    );
    let result = case.run(&AffProgram::Affi(rude), Fuel::default()).unwrap();
    println!("rude MiniML consumer:     {:?}", result.halt);
    assert!(result.halt.is_fail_with(semint::core::ErrorCode::Conv));

    // Affi-internal code with the static arrow: no guards, no thunks, and the
    // compiler reports which binders the *model* protects instead.
    let internal = AffiExpr::app(
        AffiExpr::lam_static("x", AffiType::Int, AffiExpr::avar_static("x")),
        AffiExpr::int(10),
    );
    let internal = AffProgram::Affi(internal);
    case.typecheck(&internal).unwrap();
    let compiled = case.compile(&internal).unwrap();
    println!(
        "static-arrow call:        dynamic guards inserted = {}, statically-protected binders = {:?}",
        compiled.dynamic_guards, compiled.static_binders
    );
    let standard = case.run(&internal, Fuel::default()).unwrap();
    let phantom = case.run_phantom(&compiled, Fuel::default());
    println!("  standard semantics:  {:?}", standard.halt);
    println!(
        "  augmented semantics: {:?} (flags consumed: {})",
        phantom.halt, phantom.flags_consumed
    );

    // And the boundary that would leak a static resource is rejected
    // statically (no•(Ω) in the typing rule).
    let leak = MlExpr::boundary(
        AffiExpr::lam_static("x", AffiType::Int, AffiExpr::avar_static("x")),
        thunked(MlType::Int, MlType::Int),
    );
    match case.type_of(&AffProgram::Ml(leak)) {
        Err(err) => println!("static arrow cannot cross:  {err}"),
        Ok(ty) => unreachable!("should not typecheck at {ty}"),
    }
}
