//! The closed programs and source types of case study 2.
//!
//! A §4 multi-language program is hosted in either Affi or MiniML; these
//! enums name the two hosts.  [`crate::AffineCase`] typechecks, compiles and
//! runs them, under either the standard LCVM semantics or the augmented
//! (phantom-flag) semantics that additionally enforces the static affine
//! discipline.

use crate::syntax::{AffiExpr, AffiType, MlExpr, MlType};
use std::fmt;

/// A closed §4 multi-language program, hosted in either language.
#[derive(Debug, Clone, PartialEq)]
pub enum AffProgram {
    /// An Affi-hosted program.
    Affi(AffiExpr),
    /// A MiniML-hosted program.
    Ml(MlExpr),
}

impl fmt::Display for AffProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffProgram::Affi(e) => write!(f, "{e}"),
            AffProgram::Ml(e) => write!(f, "{e}"),
        }
    }
}

/// A source type of either §4 language.
#[derive(Debug, Clone, PartialEq)]
pub enum AffSourceType {
    /// An Affi type.
    Affi(AffiType),
    /// A MiniML type.
    Ml(MlType),
}

impl fmt::Display for AffSourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffSourceType::Affi(t) => write!(f, "{t} (Affi)"),
            AffSourceType::Ml(t) => write!(f, "{t} (MiniML)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompileOutput;
    use crate::typecheck::AffineTypeError;
    use crate::AffineCase;
    use lcvm::{Halt, RunResult, Value};
    use semint_core::{CaseStudy, ErrorCode, Fuel};

    fn run_ml(e: &MlExpr) -> Result<RunResult, String> {
        AffineCase::standard().run(&AffProgram::Ml(e.clone()), Fuel::default())
    }

    fn run_affi(e: &AffiExpr) -> Result<RunResult, String> {
        AffineCase::standard().run(&AffProgram::Affi(e.clone()), Fuel::default())
    }

    /// Type checks and compiles a closed Affi program.
    fn compile_affi(e: &AffiExpr) -> Result<CompileOutput, String> {
        let case = AffineCase::standard();
        let program = AffProgram::Affi(e.clone());
        case.typecheck(&program)?;
        case.compile(&program)
    }

    fn ml_thunked_int_fun() -> MlType {
        MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int)
    }

    #[test]
    fn affi_arithmetic_crosses_into_miniml() {
        // 1 + ⦇ if-free Affi: (λa◦:int. a) 41 ⦈int
        let affi = AffiExpr::app(
            AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a")),
            AffiExpr::int(41),
        );
        let e = MlExpr::add(MlExpr::int(1), MlExpr::boundary(affi, MlType::Int));
        let r = run_ml(&e).unwrap();
        assert_eq!(r.halt, Halt::Value(Value::Int(42)));

        // A one-step budget cuts the same run short.
        let starved = AffineCase::standard().run(&AffProgram::Ml(e), Fuel::steps(1));
        assert_eq!(starved.unwrap().halt, Halt::OutOfFuel);
    }

    #[test]
    fn miniml_ints_cross_into_affi_as_booleans() {
        // Affi: if-style use of a MiniML int via bool ∼ int.
        let e = AffiExpr::boundary(MlExpr::int(7), AffiType::Bool);
        let r = run_affi(&e).unwrap();
        // 7 collapses to the canonical false (1).
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
    }

    #[test]
    fn affine_function_passed_to_miniml_and_called_once() {
        // let f = ⦇ λa◦:int. a ⦈((unit→int)→int) in f (λ_:unit. 9)
        let affi_fun = AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a"));
        let e = MlExpr::app(
            MlExpr::boundary(affi_fun, ml_thunked_int_fun()),
            MlExpr::lam("_", MlType::Unit, MlExpr::int(9)),
        );
        assert_eq!(run_ml(&e).unwrap().halt, Halt::Value(Value::Int(9)));
    }

    #[test]
    fn miniml_function_that_double_forces_fails_conv_when_used_from_affi() {
        // MiniML gives Affi a function that forces its thunk twice; using it
        // from Affi on an affine argument trips the dynamic guard.
        let rude_ml = MlExpr::lam(
            "t",
            MlType::fun(MlType::Unit, MlType::Int),
            MlExpr::add(
                MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
                MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
            ),
        );
        // Affi: (⦇rude⦈(int ⊸ int)) 21
        let e = AffiExpr::app(
            AffiExpr::boundary(rude_ml, AffiType::lolli(AffiType::Int, AffiType::Int)),
            AffiExpr::int(21),
        );
        let r = run_affi(&e).unwrap();
        assert_eq!(r.halt, Halt::Fail(ErrorCode::Conv));

        // The polite variant succeeds.
        let polite_ml = MlExpr::lam(
            "t",
            MlType::fun(MlType::Unit, MlType::Int),
            MlExpr::add(
                MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
                MlExpr::int(1),
            ),
        );
        let e = AffiExpr::app(
            AffiExpr::boundary(polite_ml, AffiType::lolli(AffiType::Int, AffiType::Int)),
            AffiExpr::int(21),
        );
        assert_eq!(run_affi(&e).unwrap().halt, Halt::Value(Value::Int(22)));
    }

    #[test]
    fn static_arrows_cannot_cross_the_boundary() {
        let affi_fun = AffiExpr::lam_static("a", AffiType::Int, AffiExpr::avar_static("a"));
        let program = AffProgram::Ml(MlExpr::boundary(affi_fun, ml_thunked_int_fun()));
        let case = AffineCase::standard();
        assert!(matches!(
            case.type_of(&program),
            Err(AffineTypeError::NotConvertible { .. })
        ));
        assert!(case.run(&program, Fuel::default()).is_err());
    }

    #[test]
    fn phantom_run_agrees_with_standard_run_on_well_typed_programs() {
        // A well-typed program with static affine structure: the augmented
        // semantics must agree with the standard one (erasure property) and
        // must not get stuck (Fundamental Property for Affi).
        let e = AffiExpr::let_tensor(
            "x",
            "y",
            AffiExpr::tensor(AffiExpr::int(20), AffiExpr::int(22)),
            AffiExpr::boundary(
                MlExpr::add(
                    MlExpr::boundary(AffiExpr::avar_static("x"), MlType::Int),
                    MlExpr::boundary(AffiExpr::avar_static("y"), MlType::Int),
                ),
                AffiType::Int,
            ),
        );
        let case = AffineCase::standard();
        // This program moves static variables through a MiniML boundary, so
        // the type checker must reject it (no•(Ωe)).
        let program = AffProgram::Affi(e);
        assert!(case.type_of(&program).is_err());
        assert!(case.run(&program, Fuel::default()).is_err());

        // A fully Affi-internal use of static resources is fine and the two
        // semantics agree.
        let ok = AffiExpr::let_tensor(
            "x",
            "y",
            AffiExpr::tensor(AffiExpr::int(20), AffiExpr::int(22)),
            AffiExpr::app(
                AffiExpr::lam_static("z", AffiType::Int, AffiExpr::avar_static("z")),
                AffiExpr::avar_static("x"),
            ),
        );
        let compiled = compile_affi(&ok).unwrap();
        assert_eq!(compiled.static_binders.len(), 3);
        let standard = run_affi(&ok).unwrap();
        let phantom = case.run_phantom(&compiled, Fuel::default());
        assert_eq!(standard.halt, Halt::Value(Value::Int(20)));
        assert_eq!(phantom.halt, Halt::Value(Value::Int(20)));
        assert!(phantom.flags_consumed >= 1);
    }

    #[test]
    fn well_typed_programs_are_safe_under_both_semantics() {
        let case = AffineCase::standard();
        let programs: Vec<AffiExpr> = vec![
            AffiExpr::app(
                AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a")),
                AffiExpr::boundary(MlExpr::add(MlExpr::int(2), MlExpr::int(3)), AffiType::Int),
            ),
            AffiExpr::let_tensor(
                "p",
                "q",
                AffiExpr::tensor(AffiExpr::bool_(true), AffiExpr::int(3)),
                AffiExpr::avar_static("q"),
            ),
            AffiExpr::proj1(AffiExpr::with_pair(AffiExpr::int(1), AffiExpr::int(2))),
            AffiExpr::let_bang("u", AffiExpr::bang(AffiExpr::int(8)), AffiExpr::uvar("u")),
        ];
        for e in programs {
            let compiled = compile_affi(&e).expect("well-typed program compiles");
            assert!(
                run_affi(&e).unwrap().halt.is_safe(),
                "standard run unsafe for {e}"
            );
            assert!(
                case.run_phantom(&compiled, Fuel::default()).halt.is_safe(),
                "phantom run unsafe for {e}"
            );
        }
    }
}
