//! Compilers from RefHL and RefLL to StackLang (Fig. 3).
//!
//! The compilers are type-directed only at boundaries: a boundary `⦇ē⦈τ`
//! compiles to `ē⁺, C_{𝜏↦τ}` where the conversion glue code `C` is supplied by
//! a [`ConversionEmitter`] (implemented by the `sharedmem` case-study crate
//! with the Fig. 4 conversions).  Everything else follows the figure line by
//! line:
//!
//! ```text
//! ()            ⇝ push 0                  n            ⇝ push n
//! true | false  ⇝ push 0 | 1              ē1 + ē2      ⇝ ē1⁺, ē2⁺, SWAP, add
//! inl e | inr e ⇝ e⁺, lam x. push [0|1,x] [ē1,…,ēn]    ⇝ ē1⁺,…,ēn⁺, lam xn,…,x1. push [x1,…,xn]
//! if e e1 e2    ⇝ e⁺, if0 e1⁺ e2⁺          ē1[ē2]       ⇝ ē1⁺, ē2⁺, idx
//! match …       ⇝ e⁺, DUP, push 1, idx, SWAP, push 0, idx, if0 (lam x. e1⁺) (lam y. e2⁺)
//! (e1,e2)       ⇝ e1⁺, e2⁺, lam x2,x1. push [x1,x2]
//! fst e | snd e ⇝ e⁺, push 0|1, idx        λx:𝜏. ē      ⇝ push (thunk lam x. ē⁺)
//! e1 e2         ⇝ e1⁺, e2⁺, SWAP, call     !ē           ⇝ ē⁺, read
//! ref e         ⇝ e⁺, alloc                ē1 := ē2     ⇝ ē1⁺, ē2⁺, write, push 0
//! ⦇e⦈τ          ⇝ e⁺, C_{𝜏↦τ}
//! ```

use crate::syntax::{HlExpr, HlType, LlExpr, LlType};
use crate::typecheck::TypeCtx;
use semint_core::ErrorCode;
use stacklang::builder::{dup, pack, swap, tagged};
use stacklang::{Instr, Program};
use std::fmt;

/// Supplies the target-level conversion glue code used at boundaries.
pub trait ConversionEmitter {
    /// `C_{𝜏 ↦ τ}`: glue converting a (compiled) RefLL `𝜏` into a RefHL `τ`.
    ///
    /// Returns `None` when no conversion is registered for the pair.
    fn ll_to_hl(&self, ll: &LlType, hl: &HlType) -> Option<Program>;

    /// `C_{τ ↦ 𝜏}`: glue converting a (compiled) RefHL `τ` into a RefLL `𝜏`.
    fn hl_to_ll(&self, hl: &HlType, ll: &LlType) -> Option<Program>;
}

/// An emitter for programs with no boundaries; any boundary is a compile
/// error.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBoundaries;

impl ConversionEmitter for NoBoundaries {
    fn ll_to_hl(&self, _ll: &LlType, _hl: &HlType) -> Option<Program> {
        None
    }
    fn hl_to_ll(&self, _hl: &HlType, _ll: &LlType) -> Option<Program> {
        None
    }
}

/// Errors raised by the compilers.
///
/// The only possible error is a boundary whose conversion the emitter does
/// not know; ill-typed programs should be rejected by the type checker before
/// compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct MissingConversion {
    /// The RefHL side of the offending boundary.
    pub hl: HlType,
    /// The RefLL side of the offending boundary.
    pub ll: LlType,
}

impl fmt::Display for MissingConversion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no conversion registered for boundary {} ∼ {}",
            self.hl, self.ll
        )
    }
}

impl std::error::Error for MissingConversion {}

/// Compiles a RefHL expression to StackLang.
///
/// # Errors
///
/// Fails with [`MissingConversion`] if the expression contains a boundary the
/// emitter has no glue code for.  The RefLL type of an embedded term is
/// needed to pick the conversion, so the compiler reconstructs it with the
/// type checker under `ctx` (convertibility does not influence the type a
/// boundary produces, only whether it is accepted, so reconstruction under an
/// accept-all oracle yields the same types the real type checker would).
pub fn compile_hl(
    ctx: &TypeCtx,
    e: &HlExpr,
    emitter: &dyn ConversionEmitter,
) -> Result<Program, MissingConversion> {
    Ok(match e {
        HlExpr::Unit => Program::single(Instr::push_num(0)),
        HlExpr::Bool(b) => Program::single(Instr::push_num(if *b { 0 } else { 1 })),
        HlExpr::Var(x) => Program::single(Instr::push_var(x.clone())),
        HlExpr::Inl(e1, _) => compile_hl(ctx, e1, emitter)?.then(tagged(0)),
        HlExpr::Inr(e1, _) => compile_hl(ctx, e1, emitter)?.then(tagged(1)),
        HlExpr::Pair(a, b) => compile_hl(ctx, a, emitter)?
            .then(compile_hl(ctx, b, emitter)?)
            .then_instr(pack(2)),
        HlExpr::Fst(e1) => compile_hl(ctx, e1, emitter)?
            .then_instr(Instr::push_num(0))
            .then_instr(Instr::Idx),
        HlExpr::Snd(e1) => compile_hl(ctx, e1, emitter)?
            .then_instr(Instr::push_num(1))
            .then_instr(Instr::Idx),
        HlExpr::If(c, t, f) => compile_hl(ctx, c, emitter)?.then_instr(Instr::if0(
            compile_hl(ctx, t, emitter)?,
            compile_hl(ctx, f, emitter)?,
        )),
        HlExpr::Match(s, x, l, y, r) => compile_hl(ctx, s, emitter)?
            .then_instr(dup())
            .then_instr(Instr::push_num(1))
            .then_instr(Instr::Idx)
            .then_instr(swap())
            .then_instr(Instr::push_num(0))
            .then_instr(Instr::Idx)
            .then_instr(Instr::if0(
                Program::single(Instr::lam1(x.clone(), compile_hl(ctx, l, emitter)?)),
                Program::single(Instr::lam1(y.clone(), compile_hl(ctx, r, emitter)?)),
            )),
        HlExpr::Lam(x, ty, body) => {
            Program::single(Instr::push_thunk(Program::single(Instr::lam1(
                x.clone(),
                compile_hl(&ctx.with_hl(x.clone(), ty.clone()), body, emitter)?,
            ))))
        }
        HlExpr::App(f, a) => compile_hl(ctx, f, emitter)?
            .then(compile_hl(ctx, a, emitter)?)
            .then_instr(swap())
            .then_instr(Instr::Call),
        HlExpr::Ref(e1) => compile_hl(ctx, e1, emitter)?.then_instr(Instr::Alloc),
        HlExpr::Deref(e1) => compile_hl(ctx, e1, emitter)?.then_instr(Instr::Read),
        HlExpr::Assign(a, b) => compile_hl(ctx, a, emitter)?
            .then(compile_hl(ctx, b, emitter)?)
            .then_instr(Instr::Write)
            .then_instr(Instr::push_num(0)),
        HlExpr::Boundary(ll, ty) => {
            let ll_ty = match infer_ll_type_for_boundary(ctx, ll) {
                Some(t) => t,
                None => {
                    // The emitter gets a chance with every registered LL type
                    // via the annotation-free path; if that fails, report.
                    return Err(MissingConversion {
                        hl: ty.clone(),
                        ll: LlType::Int,
                    });
                }
            };
            let glue = emitter
                .ll_to_hl(&ll_ty, ty)
                .ok_or_else(|| MissingConversion {
                    hl: ty.clone(),
                    ll: ll_ty.clone(),
                })?;
            compile_ll(ctx, ll, emitter)?.then(glue)
        }
    })
}

/// Compiles a RefLL expression to StackLang.
///
/// # Errors
///
/// Fails with [`MissingConversion`] if the expression contains a boundary the
/// emitter has no glue code for.
pub fn compile_ll(
    ctx: &TypeCtx,
    e: &LlExpr,
    emitter: &dyn ConversionEmitter,
) -> Result<Program, MissingConversion> {
    Ok(match e {
        LlExpr::Int(n) => Program::single(Instr::push_num(*n)),
        LlExpr::Var(x) => Program::single(Instr::push_var(x.clone())),
        LlExpr::Array(es, _) => {
            let mut p = Program::empty();
            for e1 in es {
                p = p.then(compile_ll(ctx, e1, emitter)?);
            }
            p.then_instr(pack(es.len()))
        }
        LlExpr::Index(a, i) => compile_ll(ctx, a, emitter)?
            .then(compile_ll(ctx, i, emitter)?)
            .then_instr(Instr::Idx),
        LlExpr::Lam(x, ty, body) => {
            Program::single(Instr::push_thunk(Program::single(Instr::lam1(
                x.clone(),
                compile_ll(&ctx.with_ll(x.clone(), ty.clone()), body, emitter)?,
            ))))
        }
        LlExpr::App(f, a) => compile_ll(ctx, f, emitter)?
            .then(compile_ll(ctx, a, emitter)?)
            .then_instr(swap())
            .then_instr(Instr::Call),
        LlExpr::Add(a, b) => compile_ll(ctx, a, emitter)?
            .then(compile_ll(ctx, b, emitter)?)
            .then_instr(swap())
            .then_instr(Instr::Add),
        LlExpr::If0(c, t, f) => compile_ll(ctx, c, emitter)?.then_instr(Instr::if0(
            compile_ll(ctx, t, emitter)?,
            compile_ll(ctx, f, emitter)?,
        )),
        LlExpr::Ref(e1) => compile_ll(ctx, e1, emitter)?.then_instr(Instr::Alloc),
        LlExpr::Deref(e1) => compile_ll(ctx, e1, emitter)?.then_instr(Instr::Read),
        LlExpr::Assign(a, b) => compile_ll(ctx, a, emitter)?
            .then(compile_ll(ctx, b, emitter)?)
            .then_instr(Instr::Write)
            .then_instr(Instr::push_num(0)),
        LlExpr::Boundary(hl, ty) => {
            let hl_ty = match infer_hl_type_for_boundary(ctx, hl) {
                Some(t) => t,
                None => {
                    return Err(MissingConversion {
                        hl: HlType::Unit,
                        ll: ty.clone(),
                    })
                }
            };
            let glue = emitter
                .hl_to_ll(&hl_ty, ty)
                .ok_or_else(|| MissingConversion {
                    hl: hl_ty.clone(),
                    ll: ty.clone(),
                })?;
            compile_hl(ctx, hl, emitter)?.then(glue)
        }
    })
}

/// A lightweight syntactic type reconstruction used only to select the
/// conversion at a boundary.  It mirrors the type checker but works without
/// an environment for the common closed cases; boundary-heavy programs should
/// be compiled through `sharedmem::MultiLang`, which runs the real type
/// checker first and caches the boundary types.
fn infer_ll_type_for_boundary(ctx: &TypeCtx, e: &LlExpr) -> Option<LlType> {
    crate::typecheck::check_ll(ctx, e, &AllowAllOracle).ok()
}

fn infer_hl_type_for_boundary(ctx: &TypeCtx, e: &HlExpr) -> Option<HlType> {
    crate::typecheck::check_hl(ctx, e, &AllowAllOracle).ok()
}

/// An oracle that accepts every conversion — used only for boundary type
/// reconstruction inside the compiler, never for type checking.
struct AllowAllOracle;

impl crate::typecheck::ConvertOracle for AllowAllOracle {
    fn convertible(&self, _hl: &HlType, _ll: &LlType) -> bool {
        true
    }
}

/// A conversion that always fails at runtime with `fail Conv` — useful for
/// negative tests and for experimenting with deliberately unsound rule sets.
pub fn failing_conversion() -> Program {
    Program::single(Instr::Fail(ErrorCode::Conv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use semint_core::Fuel;
    use stacklang::{Machine, Outcome, Value};

    fn run_hl(e: &HlExpr) -> Outcome<Value> {
        let p = compile_hl(&TypeCtx::empty(), e, &NoBoundaries).unwrap();
        assert!(
            p.is_closed(),
            "compiled closed source terms are closed programs"
        );
        Machine::run_program(p, Fuel::default()).outcome
    }

    fn run_ll(e: &LlExpr) -> Outcome<Value> {
        let p = compile_ll(&TypeCtx::empty(), e, &NoBoundaries).unwrap();
        assert!(p.is_closed());
        Machine::run_program(p, Fuel::default()).outcome
    }

    #[test]
    fn hl_literals_and_pairs() {
        assert_eq!(run_hl(&HlExpr::unit()), Outcome::Value(Value::Num(0)));
        assert_eq!(run_hl(&HlExpr::bool_(true)), Outcome::Value(Value::Num(0)));
        assert_eq!(run_hl(&HlExpr::bool_(false)), Outcome::Value(Value::Num(1)));
        let pair = HlExpr::pair(HlExpr::bool_(true), HlExpr::bool_(false));
        assert_eq!(
            run_hl(&pair),
            Outcome::Value(Value::array([Value::Num(0), Value::Num(1)]))
        );
        assert_eq!(
            run_hl(&HlExpr::fst(pair.clone())),
            Outcome::Value(Value::Num(0))
        );
        assert_eq!(run_hl(&HlExpr::snd(pair)), Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn hl_if_and_booleans_follow_zero_is_true() {
        let e = HlExpr::if_(
            HlExpr::bool_(true),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        assert_eq!(run_hl(&e), Outcome::Value(Value::Num(1)));
        let e = HlExpr::if_(
            HlExpr::bool_(false),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        assert_eq!(run_hl(&e), Outcome::Value(Value::Num(0)));
    }

    #[test]
    fn hl_sums_and_match() {
        let sum_ty = HlType::sum(HlType::Bool, HlType::Unit);
        let inl = HlExpr::inl(HlExpr::bool_(false), sum_ty.clone());
        assert_eq!(
            run_hl(&inl),
            Outcome::Value(Value::array([Value::Num(0), Value::Num(1)]))
        );
        // match (inl false) x {x} y {true}  ==> false (1)
        let m = HlExpr::match_(inl, "x", HlExpr::var("x"), "y", HlExpr::bool_(true));
        assert_eq!(run_hl(&m), Outcome::Value(Value::Num(1)));
        // match (inr ()) x {false} y {true}  ==> true (0)
        let inr = HlExpr::inr(HlExpr::unit(), sum_ty);
        let m = HlExpr::match_(inr, "x", HlExpr::bool_(false), "y", HlExpr::bool_(true));
        assert_eq!(run_hl(&m), Outcome::Value(Value::Num(0)));
    }

    #[test]
    fn hl_functions_apply() {
        // (λx:bool. if x then false else true) true  ==> false
        let neg = HlExpr::lam(
            "x",
            HlType::Bool,
            HlExpr::if_(HlExpr::var("x"), HlExpr::bool_(false), HlExpr::bool_(true)),
        );
        let e = HlExpr::app(neg, HlExpr::bool_(true));
        assert_eq!(run_hl(&e), Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn hl_references_round_trip() {
        // !(ref true) ==> true
        let e = HlExpr::deref(HlExpr::ref_(HlExpr::bool_(true)));
        assert_eq!(run_hl(&e), Outcome::Value(Value::Num(0)));
        // (λr:ref bool. (r := false ; !r)) (ref true) — sequencing via a pair.
        let body = HlExpr::snd(HlExpr::pair(
            HlExpr::assign(HlExpr::var("r"), HlExpr::bool_(false)),
            HlExpr::deref(HlExpr::var("r")),
        ));
        let e = HlExpr::app(
            HlExpr::lam("r", HlType::ref_(HlType::Bool), body),
            HlExpr::ref_(HlExpr::bool_(true)),
        );
        assert_eq!(run_hl(&e), Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn ll_arithmetic_arrays_and_indexing() {
        assert_eq!(
            run_ll(&LlExpr::add(LlExpr::int(2), LlExpr::int(3))),
            Outcome::Value(Value::Num(5))
        );
        let arr = LlExpr::array(
            [LlExpr::int(5), LlExpr::int(6), LlExpr::int(7)],
            LlType::Int,
        );
        assert_eq!(
            run_ll(&arr),
            Outcome::Value(Value::array([Value::Num(5), Value::Num(6), Value::Num(7)]))
        );
        assert_eq!(
            run_ll(&LlExpr::index(arr.clone(), LlExpr::int(2))),
            Outcome::Value(Value::Num(7))
        );
        // Out of bounds is the well-defined Idx error, not a type error.
        assert_eq!(
            run_ll(&LlExpr::index(arr, LlExpr::int(9))),
            Outcome::Fail(ErrorCode::Idx)
        );
    }

    #[test]
    fn ll_functions_if0_and_refs() {
        // (λx:int. x + 1) 41 ==> 42
        let inc = LlExpr::lam(
            "x",
            LlType::Int,
            LlExpr::add(LlExpr::var("x"), LlExpr::int(1)),
        );
        assert_eq!(
            run_ll(&LlExpr::app(inc, LlExpr::int(41))),
            Outcome::Value(Value::Num(42))
        );

        let e = LlExpr::if0(LlExpr::int(0), LlExpr::int(10), LlExpr::int(20));
        assert_eq!(run_ll(&e), Outcome::Value(Value::Num(10)));

        let e = LlExpr::deref(LlExpr::ref_(LlExpr::int(9)));
        assert_eq!(run_ll(&e), Outcome::Value(Value::Num(9)));
    }

    #[test]
    fn boundary_without_emitter_rule_is_a_compile_error() {
        let e = HlExpr::boundary(LlExpr::int(1), HlType::Bool);
        let err = compile_hl(&TypeCtx::empty(), &e, &NoBoundaries).unwrap_err();
        assert!(err.to_string().contains("no conversion registered"));
        let e = LlExpr::boundary(HlExpr::bool_(true), LlType::Int);
        assert!(compile_ll(&TypeCtx::empty(), &e, &NoBoundaries).is_err());
    }

    #[test]
    fn compiled_well_typed_programs_never_fail_type() {
        // A small gallery of well-typed programs; none may hit fail Type
        // (Theorem 3.4's operational content).
        let programs = vec![
            HlExpr::if_(
                HlExpr::bool_(true),
                HlExpr::pair(HlExpr::unit(), HlExpr::bool_(false)),
                HlExpr::pair(HlExpr::unit(), HlExpr::bool_(true)),
            ),
            HlExpr::app(
                HlExpr::lam(
                    "p",
                    HlType::prod(HlType::Bool, HlType::Bool),
                    HlExpr::fst(HlExpr::var("p")),
                ),
                HlExpr::pair(HlExpr::bool_(false), HlExpr::bool_(true)),
            ),
            HlExpr::deref(HlExpr::ref_(HlExpr::pair(
                HlExpr::bool_(true),
                HlExpr::unit(),
            ))),
        ];
        for e in programs {
            let out = run_hl(&e);
            assert!(out.is_safe(), "program {e} produced unsafe outcome {out:?}");
        }
    }
}
