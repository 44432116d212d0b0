//! Cross-crate integration tests for case study 2 (§4): dynamic vs static
//! affine enforcement, the Fig. 9 conversions, and the erasure/agreement
//! property of the phantom-flag semantics.

use proptest::prelude::*;
use semint::affine::compile::thunk_guard;
use semint::affine::compile::CompileOutput;
use semint::affine::model::{AffineModelChecker, AffineSemType};
use semint::affine::syntax::{AffiExpr, AffiType, MlExpr, MlType};
use semint::affine::{AffProgram, AffineCase};
use semint::core::{CaseStudy, ErrorCode, Fuel};
use semint::lcvm::{Expr, Halt, Machine, RunResult, Value};

fn thunked_fun(arg: MlType, res: MlType) -> MlType {
    MlType::fun(MlType::fun(MlType::Unit, arg), res)
}

/// Type checks, compiles and runs a closed Affi program.
fn run_affi(case: &AffineCase, e: &AffiExpr) -> Result<RunResult, String> {
    case.run(&AffProgram::Affi(e.clone()), Fuel::default())
}

/// Type checks and compiles a closed Affi program.
fn compile_affi(case: &AffineCase, e: &AffiExpr) -> Result<CompileOutput, String> {
    let program = AffProgram::Affi(e.clone());
    case.typecheck(&program)?;
    case.compile(&program)
}

#[test]
fn an_affine_pipeline_across_three_boundaries() {
    // Affi builds a one-shot adder, MiniML partially applies it through the
    // boundary, and the final result crosses back into Affi.
    let case = AffineCase::standard();
    let affi_adder = AffiExpr::lam(
        "a",
        AffiType::Int,
        AffiExpr::boundary(
            MlExpr::add(
                MlExpr::boundary(AffiExpr::avar("a"), MlType::Int),
                MlExpr::int(10),
            ),
            AffiType::Int,
        ),
    );
    let ml_user = MlExpr::app(
        MlExpr::boundary(affi_adder, thunked_fun(MlType::Int, MlType::Int)),
        MlExpr::lam("_", MlType::Unit, MlExpr::int(32)),
    );
    let whole = AffiExpr::boundary(ml_user, AffiType::Int);
    let r = run_affi(&case, &whole).unwrap();
    assert_eq!(r.halt, Halt::Value(Value::Int(42)));
}

#[test]
fn the_two_enforcement_regimes_have_observably_different_costs() {
    // Count the dynamic guards the compiler inserts: none for a chain of
    // static applications, one per dynamic application.
    let case = AffineCase::standard();
    let static_chain = AffiExpr::app(
        AffiExpr::lam_static(
            "x",
            AffiType::Int,
            AffiExpr::app(
                AffiExpr::lam_static("y", AffiType::Int, AffiExpr::avar_static("y")),
                AffiExpr::avar_static("x"),
            ),
        ),
        AffiExpr::int(5),
    );
    let dynamic_chain = AffiExpr::app(
        AffiExpr::lam(
            "x",
            AffiType::Int,
            AffiExpr::app(
                AffiExpr::lam("y", AffiType::Int, AffiExpr::avar("y")),
                AffiExpr::avar("x"),
            ),
        ),
        AffiExpr::int(5),
    );
    let static_out = compile_affi(&case, &static_chain).unwrap();
    let dynamic_out = compile_affi(&case, &dynamic_chain).unwrap();
    assert_eq!(static_out.dynamic_guards, 0);
    assert_eq!(dynamic_out.dynamic_guards, 2);
    // Both compute the same answer, but the dynamic version runs strictly
    // more machine steps (guard allocation + forcing).
    let rs = run_affi(&case, &static_chain).unwrap();
    let rd = run_affi(&case, &dynamic_chain).unwrap();
    assert_eq!(rs.halt, Halt::Value(Value::Int(5)));
    assert_eq!(rd.halt, Halt::Value(Value::Int(5)));
    assert!(
        rd.steps > rs.steps,
        "dynamic {} should exceed static {}",
        rd.steps,
        rs.steps
    );
}

#[test]
fn convertibility_soundness_for_a_catalogue_of_rules() {
    let checker = AffineModelChecker::new();
    let thunked = thunked_fun(MlType::Int, MlType::Int);
    let catalogue = vec![
        (AffiType::Unit, MlType::Unit),
        (AffiType::Bool, MlType::Int),
        (AffiType::Int, MlType::Int),
        (AffiType::bang(AffiType::Int), MlType::Int),
        (
            AffiType::tensor(AffiType::Bool, AffiType::Bool),
            MlType::prod(MlType::Int, MlType::Int),
        ),
        (
            AffiType::tensor(
                AffiType::Int,
                AffiType::tensor(AffiType::Bool, AffiType::Unit),
            ),
            MlType::prod(MlType::Int, MlType::prod(MlType::Int, MlType::Unit)),
        ),
        (
            AffiType::lolli(AffiType::Int, AffiType::Int),
            thunked.clone(),
        ),
        (
            AffiType::lolli(AffiType::Bool, AffiType::Int),
            MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int),
        ),
    ];
    for (affi, ml) in catalogue {
        checker
            .check_convertibility(&affi, &ml)
            .unwrap_or_else(|ce| panic!("Lemma 3.1 (§4) failed for {affi} ∼ {ml}: {ce}"));
    }
}

#[test]
fn static_arrow_stays_inside_affi_and_phantom_agrees_with_standard() {
    let case = AffineCase::standard();
    let checker = AffineModelChecker::new();
    let programs = vec![
        AffiExpr::let_tensor(
            "l",
            "r",
            AffiExpr::tensor(AffiExpr::int(1), AffiExpr::int(2)),
            AffiExpr::app(
                AffiExpr::lam_static("x", AffiType::Int, AffiExpr::avar_static("x")),
                AffiExpr::boundary(
                    MlExpr::add(
                        MlExpr::boundary(AffiExpr::avar_static("l"), MlType::Int),
                        MlExpr::boundary(AffiExpr::avar_static("r"), MlType::Int),
                    ),
                    AffiType::Int,
                ),
            ),
        ),
        AffiExpr::proj2(AffiExpr::with_pair(
            AffiExpr::boundary(MlExpr::int(1), AffiType::Int),
            AffiExpr::boundary(MlExpr::int(2), AffiType::Int),
        )),
    ];
    for e in programs {
        match compile_affi(&case, &e) {
            Ok(compiled) => {
                checker
                    .check_safety(&compiled.expr, &compiled.static_binders)
                    .unwrap_or_else(|ce| panic!("safety failed for {e}: {ce}"));
            }
            Err(err) => {
                // Static resources crossing a boundary are *rejected*, which
                // is also a correct outcome for the first program shape.
                assert!(err.contains("escape"), "unexpected error {err} for {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dynamic guard is a faithful one-shot cell: forcing it once yields
    /// the protected value; any additional force fails Conv, never Type.
    #[test]
    fn guards_are_one_shot_for_any_payload_and_force_count(payload in -1000i64..1000, forces in 1usize..5) {
        let mut body = Expr::app(Expr::var("t"), Expr::unit());
        for _ in 1..forces {
            body = Expr::seq(body.clone(), Expr::app(Expr::var("t"), Expr::unit()));
        }
        let prog = Expr::let_("t", thunk_guard(Expr::int(payload)), body);
        let halt = Machine::run_expr(prog, semint::core::Fuel::default()).halt;
        if forces == 1 {
            prop_assert_eq!(halt, Halt::Value(Value::Int(payload)));
        } else {
            prop_assert_eq!(halt, Halt::Fail(ErrorCode::Conv));
        }
    }

    /// Converting an arbitrary MiniML integer to an Affi boolean always lands
    /// in {0, 1}, and converting back is the identity on {0, 1}.
    #[test]
    fn int_bool_conversions_normalise(n in any::<i64>()) {
        let checker = AffineModelChecker::new();
        let conv = semint::affine::convert::AffineConversions::standard();
        let (to_ml, to_affi) = conv.derive(&AffiType::Bool, &MlType::Int).unwrap();
        let to_bool = Machine::run_expr(Expr::app(to_affi, Expr::int(n)), semint::core::Fuel::default()).halt;
        let v = to_bool.value().expect("conversion terminates");
        prop_assert!(checker.value_in(&v, &AffineSemType::Affi(AffiType::Bool)), "got {v}");
        // Round-tripping a canonical boolean through MiniML is the identity.
        let b = if n == 0 { 0 } else { 1 };
        let round = Machine::run_expr(
            Expr::app(to_ml, Expr::int(b)),
            semint::core::Fuel::default(),
        )
        .halt;
        prop_assert_eq!(round, Halt::Value(Value::Int(b)));
    }

    /// Compiled well-typed Affi expressions built from a small random shape
    /// grammar are safe under both semantics and the two runs agree.
    #[test]
    fn random_affine_pipelines_are_safe(xs in proptest::collection::vec(-50i64..50, 1..5), use_static in any::<bool>()) {
        let case = AffineCase::standard();
        // Build  f (f (… (lit) …))  where f is an affine identity, freshly
        // abstracted at each layer so no variable is ever reused.
        let mut expr = AffiExpr::int(xs[0]);
        for (i, _) in xs.iter().enumerate() {
            let name = format!("v{i}");
            expr = if use_static {
                AffiExpr::app(
                    AffiExpr::lam_static(name.as_str(), AffiType::Int, AffiExpr::avar_static(name.as_str())),
                    expr,
                )
            } else {
                AffiExpr::app(
                    AffiExpr::lam(name.as_str(), AffiType::Int, AffiExpr::avar(name.as_str())),
                    expr,
                )
            };
        }
        let compiled = compile_affi(&case, &expr).expect("typechecks and compiles");
        let standard = run_affi(&case, &expr).expect("typechecks and compiles");
        let phantom = case.run_phantom(&compiled, Fuel::default());
        prop_assert!(standard.halt.is_safe());
        prop_assert!(phantom.halt.is_safe());
        prop_assert_eq!(standard.halt.value_ref(), phantom.halt.value_ref());
        prop_assert_eq!(standard.halt.value_ref(), Some(&Value::Int(xs[0])));
    }
}
