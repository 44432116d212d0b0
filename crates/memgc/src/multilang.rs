//! The closed programs and source types of case study 3.
//!
//! A §5 multi-language program is hosted in either MiniML or L3; these enums
//! name the two hosts.  [`crate::MemGcCase`] typechecks, compiles and runs
//! them on LCVM with GC and manual memory.

use crate::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use std::fmt;

/// A closed §5 multi-language program, hosted in either language.
#[derive(Debug, Clone, PartialEq)]
pub enum MgProgram {
    /// A MiniML-hosted program.
    Ml(PolyExpr),
    /// An L3-hosted program.
    L3(L3Expr),
}

impl fmt::Display for MgProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgProgram::Ml(e) => write!(f, "{e}"),
            MgProgram::L3(e) => write!(f, "{e}"),
        }
    }
}

/// A source type of either §5 language.
#[derive(Debug, Clone, PartialEq)]
pub enum MgSourceType {
    /// A MiniML type.
    Ml(PolyType),
    /// An L3 type.
    L3(L3Type),
}

impl fmt::Display for MgSourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgSourceType::Ml(t) => write!(f, "{t} (MiniML)"),
            MgSourceType::L3(t) => write!(f, "{t} (L3)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typecheck::MemGcTypeError;
    use crate::MemGcCase;
    use lcvm::{Halt, RunResult, Slot, Value};
    use semint_core::Fuel;

    fn run_ml(e: &PolyExpr) -> Result<RunResult, String> {
        MemGcCase::standard().run(&MgProgram::Ml(e.clone()), Fuel::default())
    }

    fn run_l3(e: &L3Expr) -> Result<RunResult, String> {
        MemGcCase::standard().run(&MgProgram::L3(e.clone()), Fuel::default())
    }

    /// The L3 program `new true` packaged for crossing the boundary: it has
    /// type `REF bool`.
    fn l3_new_bool(b: bool) -> L3Expr {
        L3Expr::new(L3Expr::bool_(b))
    }

    #[test]
    fn l3_memory_transfers_to_miniml_without_copying() {
        // MiniML: !⦇ new true ⦈(ref int)   — read the transferred reference.
        let e = PolyExpr::deref(PolyExpr::boundary(
            l3_new_bool(true),
            PolyType::ref_(PolyType::Int),
        ));
        let r = run_ml(&e).unwrap();
        assert_eq!(r.halt, Halt::Value(Value::Int(0)));
        // Exactly one manual allocation happened (inside L3), zero GC
        // allocations: the cell was moved, not copied.
        assert_eq!(r.heap.stats().manual_allocs, 1);
        assert_eq!(r.heap.stats().gc_allocs, 0);
        assert_eq!(r.heap.stats().gcmovs, 1);
        assert_eq!(r.heap.manual_len(), 0, "the cell is now GC-managed");
    }

    #[test]
    fn transferred_memory_is_eventually_collected_not_leaked() {
        // Transfer a cell to MiniML, drop it on the floor, allocate again (via
        // another L3 new, which calls the GC first): the transferred cell is
        // unreachable by then and gets collected.
        let e = PolyExpr::snd(PolyExpr::pair(
            PolyExpr::boundary(l3_new_bool(true), PolyType::ref_(PolyType::Int)),
            PolyExpr::deref(PolyExpr::boundary(
                l3_new_bool(false),
                PolyType::ref_(PolyType::Int),
            )),
        ));
        let r = run_ml(&e).unwrap();
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
        assert!(r.heap.stats().gc_runs >= 2);
    }

    #[test]
    fn miniml_reference_crosses_to_l3_as_a_fresh_package() {
        // L3: free ⦇ ref 5 ⦈(REF bool)  — the contents are copied+converted.
        let e = L3Expr::free(L3Expr::boundary(
            PolyExpr::ref_(PolyExpr::int(5)),
            L3Type::ref_like(L3Type::Bool),
        ));
        let r = run_l3(&e).unwrap();
        // 5 collapses to false (1).
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
        assert_eq!(r.heap.stats().gc_allocs, 1);
        assert_eq!(r.heap.stats().manual_allocs, 1);
        assert_eq!(r.heap.stats().frees, 1);
    }

    #[test]
    fn paper_example_1_polymorphic_instantiation_at_a_foreign_type() {
        // (Λα. λx:α. λy:α. y) [⟨bool⟩] ⦇true⦈⟨bool⟩ ⦇false⦈⟨bool⟩
        let second = PolyExpr::tylam(
            "α",
            PolyExpr::lam(
                "x",
                PolyType::tvar("α"),
                PolyExpr::lam("y", PolyType::tvar("α"), PolyExpr::var("y")),
            ),
        );
        let e = PolyExpr::app(
            PolyExpr::app(
                PolyExpr::tyapp(second, PolyType::foreign(L3Type::Bool)),
                PolyExpr::boundary(L3Expr::bool_(true), PolyType::foreign(L3Type::Bool)),
            ),
            PolyExpr::boundary(L3Expr::bool_(false), PolyType::foreign(L3Type::Bool)),
        );
        assert_eq!(
            MemGcCase::standard()
                .type_of(&MgProgram::Ml(e.clone()))
                .unwrap(),
            MgSourceType::Ml(PolyType::foreign(L3Type::Bool))
        );
        let r = run_ml(&e).unwrap();
        assert_eq!(
            r.halt,
            Halt::Value(Value::Int(1)),
            "the second argument (false) is returned"
        );
    }

    #[test]
    fn paper_example_2_church_boolean_conversion() {
        // (λx:BOOL. x) ⦇true⦈BOOL  where BOOL ≜ ∀α. α → α → α
        let e = PolyExpr::app(
            PolyExpr::lam("x", PolyType::church_bool(), PolyExpr::var("x")),
            PolyExpr::boundary(L3Expr::bool_(true), PolyType::church_bool()),
        );
        assert_eq!(
            MemGcCase::standard()
                .type_of(&MgProgram::Ml(e.clone()))
                .unwrap(),
            MgSourceType::Ml(PolyType::church_bool())
        );
        // Use the resulting Church boolean from L3 by converting it back.
        let use_it = L3Expr::if_(
            L3Expr::boundary(e, L3Type::Bool),
            L3Expr::bool_(false),
            L3Expr::bool_(true),
        );
        let r = run_l3(&use_it).unwrap();
        // The boolean was true, so the first branch runs and returns false (1).
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
    }

    #[test]
    fn miniml_functions_cross_as_banged_lollis() {
        // L3 applies a MiniML increment-ish function to a boolean.
        let ml_fun = PolyExpr::lam(
            "x",
            PolyType::Int,
            PolyExpr::add(PolyExpr::var("x"), PolyExpr::int(0)),
        );
        let l3_ty = L3Type::bang(L3Type::lolli(L3Type::bang(L3Type::Bool), L3Type::Bool));
        let e = L3Expr::let_bang(
            "f",
            L3Expr::boundary(ml_fun, l3_ty),
            L3Expr::app(L3Expr::uvar("f"), L3Expr::bang(L3Expr::bool_(true))),
        );
        let r = run_l3(&e).unwrap();
        assert_eq!(r.halt, Halt::Value(Value::Int(0)));
    }

    #[test]
    fn linear_capabilities_cannot_be_smuggled_through_foreign_types() {
        // ⦇ new true ⦈⟨∃ζ. cap ζ bool ⊗ !ptr ζ⟩ — REF bool is not Duplicable,
        // so the boundary is rejected statically.
        let e = PolyExpr::boundary(
            l3_new_bool(true),
            PolyType::foreign(L3Type::ref_like(L3Type::Bool)),
        );
        let program = MgProgram::Ml(e);
        let case = MemGcCase::standard();
        assert!(matches!(
            case.type_of(&program),
            Err(MemGcTypeError::NotConvertible { .. })
        ));
        assert!(case.run(&program, Fuel::default()).is_err());
    }

    #[test]
    fn aliasing_survives_the_transfer_to_miniml() {
        // Transfer a cell to MiniML, then write through the MiniML reference
        // and observe the result through the same reference: a plain sanity
        // check that gcmov preserved identity and mutability.
        let e = PolyExpr::app(
            PolyExpr::lam(
                "r",
                PolyType::ref_(PolyType::Int),
                PolyExpr::snd(PolyExpr::pair(
                    PolyExpr::assign(PolyExpr::var("r"), PolyExpr::int(9)),
                    PolyExpr::deref(PolyExpr::var("r")),
                )),
            ),
            PolyExpr::boundary(l3_new_bool(true), PolyType::ref_(PolyType::Int)),
        );
        let r = run_ml(&e).unwrap();
        assert_eq!(r.halt, Halt::Value(Value::Int(9)));

        // A one-step budget cuts the same run short.
        let starved = MemGcCase::standard().run(&MgProgram::Ml(e), Fuel::steps(1));
        assert_eq!(starved.unwrap().halt, Halt::OutOfFuel);
    }

    #[test]
    fn well_typed_programs_are_safe() {
        let ml_programs = vec![
            PolyExpr::deref(PolyExpr::boundary(
                l3_new_bool(false),
                PolyType::ref_(PolyType::Int),
            )),
            PolyExpr::boundary(L3Expr::unit(), PolyType::Unit),
            PolyExpr::add(
                PolyExpr::int(1),
                PolyExpr::boundary(L3Expr::bool_(true), PolyType::Int),
            ),
        ];
        for e in ml_programs {
            let r = run_ml(&e).unwrap();
            assert!(r.halt.is_safe(), "{e} produced {:?}", r.halt);
        }
        let l3_programs = vec![
            L3Expr::free(L3Expr::boundary(
                PolyExpr::ref_(PolyExpr::int(3)),
                L3Type::ref_like(L3Type::Bool),
            )),
            L3Expr::if_(
                L3Expr::boundary(PolyExpr::int(0), L3Type::Bool),
                L3Expr::unit(),
                L3Expr::unit(),
            ),
        ];
        for e in l3_programs {
            let r = run_l3(&e).unwrap();
            assert!(r.halt.is_safe(), "{e} produced {:?}", r.halt);
        }
    }

    #[test]
    fn transferred_cell_slot_is_gc_after_the_boundary() {
        let e = PolyExpr::boundary(l3_new_bool(true), PolyType::ref_(PolyType::Int));
        let r = run_ml(&e).unwrap();
        let loc = r
            .halt
            .value_ref()
            .and_then(|v| v.as_loc())
            .expect("a location");
        assert!(matches!(r.heap.slot(loc), Some(Slot::Gc(Value::Int(0)))));
    }
}
