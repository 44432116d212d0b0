//! The closed programs and source types of case study 1.
//!
//! A §3 multi-language program is hosted in either RefHL or RefLL; these
//! enums name the two hosts.  [`crate::SharedMemCase`] typechecks, compiles
//! and runs them.

use reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use std::fmt;

/// A closed §3 multi-language program, hosted in either language.
#[derive(Debug, Clone, PartialEq)]
pub enum SmProgram {
    /// A RefHL-hosted program.
    Hl(HlExpr),
    /// A RefLL-hosted program.
    Ll(LlExpr),
}

impl fmt::Display for SmProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmProgram::Hl(e) => write!(f, "{e}"),
            SmProgram::Ll(e) => write!(f, "{e}"),
        }
    }
}

/// Which language the top-level program was written in, with its type.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceType {
    /// A RefHL program of the given type.
    Hl(HlType),
    /// A RefLL program of the given type.
    Ll(LlType),
}

impl fmt::Display for SourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceType::Hl(t) => write!(f, "{t} (RefHL)"),
            SourceType::Ll(t) => write!(f, "{t} (RefLL)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedMemCase;
    use reflang::typecheck::TypeError;
    use semint_core::{ErrorCode, Fuel, Outcome};
    use stacklang::{RunResult, Value};

    fn run_hl(e: &HlExpr) -> Result<RunResult, String> {
        SharedMemCase::standard().run(&SmProgram::Hl(e.clone()), Fuel::default())
    }

    fn run_ll(e: &LlExpr) -> Result<RunResult, String> {
        SharedMemCase::standard().run(&SmProgram::Ll(e.clone()), Fuel::default())
    }

    #[test]
    fn boundary_free_programs_run_as_usual() {
        let e = HlExpr::if_(
            HlExpr::bool_(true),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        let r = run_hl(&e).unwrap();
        assert_eq!(r.outcome, Outcome::Value(Value::Num(1)));

        let e = LlExpr::add(LlExpr::int(40), LlExpr::int(2));
        let r = run_ll(&e).unwrap();
        assert_eq!(r.outcome, Outcome::Value(Value::Num(2 + 40)));

        // A one-step budget cuts the same run short.
        let starved = SharedMemCase::standard().run(&SmProgram::Ll(e), Fuel::steps(1));
        assert_eq!(starved.unwrap().outcome, Outcome::OutOfFuel);
    }

    #[test]
    fn refll_ints_flow_into_refhl_bools() {
        // if ⦇ 0 ⦈bool then false else true  ==> false is taken as 0 = true.
        let e = HlExpr::if_(
            HlExpr::boundary(LlExpr::int(0), HlType::Bool),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        assert_eq!(run_hl(&e).unwrap().outcome, Outcome::Value(Value::Num(1)));

        // Any non-zero int behaves as false on the RefHL side.
        let e = HlExpr::if_(
            HlExpr::boundary(LlExpr::int(33), HlType::Bool),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        assert_eq!(run_hl(&e).unwrap().outcome, Outcome::Value(Value::Num(0)));
    }

    #[test]
    fn refhl_bools_flow_into_refll_ints() {
        // ⦇ true ⦈int + 5  ==> 0 + 5 = 5.
        let e = LlExpr::add(
            LlExpr::boundary(HlExpr::bool_(true), LlType::Int),
            LlExpr::int(5),
        );
        assert_eq!(run_ll(&e).unwrap().outcome, Outcome::Value(Value::Num(5)));
    }

    #[test]
    fn shared_reference_aliases_across_the_boundary() {
        // A RefHL function writes through a reference it received from RefLL,
        // and RefLL observes the write through its own alias:
        //   let r = ref 1 in  (⦇ (λs:ref bool. s := false) ⦈(ref int → int)) r ; !r
        // written as a RefLL program.
        let hl_writer = HlExpr::lam(
            "s",
            HlType::ref_(HlType::Bool),
            HlExpr::boundary(
                LlExpr::boundary(
                    HlExpr::assign(HlExpr::var("s"), HlExpr::bool_(false)),
                    LlType::Int,
                ),
                HlType::Bool,
            ),
        );
        // Give the writer the RefLL type ref int → int via the function-free
        // route: apply it inside RefHL instead, but to a RefLL-created ref.
        // let r = ref 7 in ⦇ (λs. s := false) ⦇r⦈ref bool ⦈int + !r
        let program = LlExpr::app(
            LlExpr::lam(
                "r",
                LlType::ref_(LlType::Int),
                LlExpr::add(
                    LlExpr::boundary(
                        HlExpr::app(
                            hl_writer,
                            HlExpr::boundary(LlExpr::var("r"), HlType::ref_(HlType::Bool)),
                        ),
                        LlType::Int,
                    ),
                    LlExpr::deref(LlExpr::var("r")),
                ),
            ),
            LlExpr::ref_(LlExpr::int(7)),
        );
        let r = run_ll(&program).unwrap();
        // The write of `false` (= 1) lands in the shared cell; the result is
        // the assignment's unit (0, converted to int) plus the new contents 1.
        assert_eq!(r.outcome, Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn sums_cross_as_int_arrays_with_dynamic_checks() {
        let sum_ty = HlType::sum(HlType::Bool, HlType::Bool);
        // A well-formed array becomes a sum.
        let e = HlExpr::match_(
            HlExpr::boundary(
                LlExpr::array([LlExpr::int(1), LlExpr::int(0)], LlType::Int),
                sum_ty.clone(),
            ),
            "x",
            HlExpr::bool_(false),
            "y",
            HlExpr::var("y"),
        );
        assert_eq!(run_hl(&e).unwrap().outcome, Outcome::Value(Value::Num(0)));

        // A malformed tag produces the well-defined Conv failure.
        let e = HlExpr::match_(
            HlExpr::boundary(
                LlExpr::array([LlExpr::int(9), LlExpr::int(0)], LlType::Int),
                sum_ty,
            ),
            "x",
            HlExpr::bool_(false),
            "y",
            HlExpr::var("y"),
        );
        assert_eq!(run_hl(&e).unwrap().outcome, Outcome::Fail(ErrorCode::Conv));
    }

    #[test]
    fn ill_typed_boundaries_are_rejected_statically() {
        // ref (bool+bool) ∼ ref [int] is not derivable under pointer sharing.
        let e = HlExpr::boundary(
            LlExpr::ref_(LlExpr::array([LlExpr::int(0)], LlType::Int)),
            HlType::ref_(HlType::sum(HlType::Bool, HlType::Bool)),
        );
        let program = SmProgram::Hl(e);
        let case = SharedMemCase::standard();
        assert!(matches!(
            case.type_of(&program),
            Err(TypeError::NotConvertible { .. })
        ));
        assert!(case.run(&program, Fuel::default()).is_err());
    }

    #[test]
    fn well_typed_multi_language_programs_never_fail_type() {
        // Theorem 3.3/3.4 smoke test over the crate's own examples.
        let programs: Vec<HlExpr> = vec![
            HlExpr::boundary(LlExpr::add(LlExpr::int(1), LlExpr::int(2)), HlType::Bool),
            HlExpr::pair(
                HlExpr::boundary(LlExpr::int(0), HlType::Bool),
                HlExpr::deref(HlExpr::ref_(HlExpr::bool_(true))),
            ),
            HlExpr::boundary(
                LlExpr::index(
                    LlExpr::array([LlExpr::int(3), LlExpr::int(4)], LlType::Int),
                    LlExpr::int(1),
                ),
                HlType::Bool,
            ),
        ];
        for e in programs {
            let r = run_hl(&e).unwrap();
            assert!(r.outcome.is_safe(), "{e} produced {:?}", r.outcome);
        }
    }

    #[test]
    fn type_of_reports_the_source_type() {
        let case = SharedMemCase::standard();
        let ty = case.type_of(&SmProgram::Hl(HlExpr::bool_(true))).unwrap();
        assert_eq!(ty, SourceType::Hl(HlType::Bool));
        assert!(ty.to_string().contains("RefHL"));
        let ty = case.type_of(&SmProgram::Ll(LlExpr::int(1))).unwrap();
        assert_eq!(ty, SourceType::Ll(LlType::Int));
    }
}
