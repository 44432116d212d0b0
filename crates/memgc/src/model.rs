//! An executable approximation of the §5 realizability model (Fig. 14).
//!
//! The §5 model pairs every value with the *owned* fragment of the manually
//! managed heap and keeps the garbage-collected heap in the world.  The
//! executable checker mirrors that split:
//!
//! * [`MemGcModelChecker::value_in`] decides `(W, (H, v)) ∈ V⟦·⟧` against a
//!   concrete LCVM heap: capabilities demand that their location is a *live
//!   manually-managed* cell owned by the value (and its contents are in the
//!   stored type's interpretation); `ref τ` demands a live *GC-managed* cell;
//!   `ptr ζ` is just the location named by the substitution `ρ`; `!𝜏` and the
//!   `Duplicable` foreign types own no manual memory;
//! * [`MemGcModelChecker::check_transfer_soundness`] is the executable core
//!   of the §5 convertibility-soundness argument for `REF 𝜏 ∼ ref τ`: after
//!   running the glue code, the result must inhabit the target type's
//!   interpretation *in the resulting heap*, ownership must have moved from
//!   the manual to the GC'd side (or vice versa), and — for the L3→MiniML
//!   direction — the location must be unchanged (the "no copy" claim);
//! * [`MemGcModelChecker::check_type_safety`] runs compiled programs and
//!   verifies they never reach `fail Type` or `fail Ptr` (Theorem 3.3/3.4 for
//!   this pair of languages: well-typed programs may fail only with `Conv`).

use crate::convert::MemGcConversions;
use crate::syntax::{L3Type, LocVar, PolyType};
use lcvm::Env;
use lcvm::{Expr, Halt, Heap, Loc, Machine, MachineConfig, Slot, Value};
use semint_core::{CheckFailure, ErrorCode, Fuel};
use std::collections::BTreeMap;
use std::fmt;

/// A source type of either §5 language.
#[derive(Debug, Clone, PartialEq)]
pub enum MemGcSemType {
    /// A MiniML type.
    Ml(PolyType),
    /// An L3 type.
    L3(L3Type),
}

impl fmt::Display for MemGcSemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemGcSemType::Ml(t) => write!(f, "{t}"),
            MemGcSemType::L3(t) => write!(f, "{t}"),
        }
    }
}

/// The location-variable substitution `ρ.L3(ζ) = ℓ` from Fig. 14.
pub type LocSubst = BTreeMap<LocVar, Loc>;

/// The executable §5 model checker.
#[derive(Debug, Clone)]
pub struct MemGcModelChecker {
    conversions: MemGcConversions,
    /// Step budget per evaluation.
    pub fuel: Fuel,
}

impl Default for MemGcModelChecker {
    fn default() -> Self {
        MemGcModelChecker {
            conversions: MemGcConversions::standard(),
            fuel: Fuel::steps(100_000),
        }
    }
}

impl MemGcModelChecker {
    /// A checker with the standard conversions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decides `v ∈ V⟦ty⟧` against the heap `heap` under the location
    /// substitution `rho`.
    pub fn value_in(&self, heap: &Heap, rho: &LocSubst, v: &Value, ty: &MemGcSemType) -> bool {
        match ty {
            MemGcSemType::Ml(t) => self.value_in_ml(heap, rho, v, t),
            MemGcSemType::L3(t) => self.value_in_l3(heap, rho, v, t),
        }
    }

    fn value_in_ml(&self, heap: &Heap, rho: &LocSubst, v: &Value, ty: &PolyType) -> bool {
        match ty {
            PolyType::Unit => matches!(v, Value::Unit),
            PolyType::Int => matches!(v, Value::Int(_)),
            PolyType::Prod(a, b) => match v {
                Value::Pair(x, y) => {
                    self.value_in_ml(heap, rho, x, a) && self.value_in_ml(heap, rho, y, b)
                }
                _ => false,
            },
            PolyType::Sum(a, b) => match v {
                Value::Inl(x) => self.value_in_ml(heap, rho, x, a),
                Value::Inr(y) => self.value_in_ml(heap, rho, y, b),
                _ => false,
            },
            // Functions and quantified types: accept closures (their graphs
            // are exercised by the expression-level checks and the §4-style
            // sampling; re-implementing it here would duplicate that code).
            PolyType::Fun(_, _) | PolyType::Forall(_, _) => matches!(v, Value::Closure { .. }),
            // Type variables denote arbitrary relations drawn from ρ; with no
            // relational substitution the checker is parametricity-agnostic
            // and accepts any value.
            PolyType::Var(_) => true,
            // ref τ: a live GC-managed cell whose contents inhabit τ.
            PolyType::Ref(t) => match v {
                Value::Loc(l) => {
                    matches!(heap.slot(*l), Some(Slot::Gc(stored)) if self.value_in_ml(heap, rho, stored, t))
                }
                _ => false,
            },
            // ⟨𝜏⟩ is interpreted exactly as 𝜏 (Fig. 14: V⟦⟨𝜏⟩⟧ρ = V⟦𝜏⟧ρ).
            PolyType::Foreign(t) => self.value_in_l3(heap, rho, v, t),
        }
    }

    fn value_in_l3(&self, heap: &Heap, rho: &LocSubst, v: &Value, ty: &L3Type) -> bool {
        match ty {
            L3Type::Unit => matches!(v, Value::Unit),
            L3Type::Bool => matches!(v, Value::Int(0) | Value::Int(1)),
            L3Type::Tensor(a, b) => match v {
                Value::Pair(x, y) => {
                    self.value_in_l3(heap, rho, x, a) && self.value_in_l3(heap, rho, y, b)
                }
                _ => false,
            },
            L3Type::Lolli(_, _) => matches!(v, Value::Closure { .. }),
            L3Type::Bang(inner) => self.value_in_l3(heap, rho, v, inner),
            // ptr ζ: exactly the location ρ names (aliasing is fine).
            L3Type::Ptr(z) => match (v, rho.get(z)) {
                (Value::Loc(l), Some(expected)) => l == expected,
                _ => false,
            },
            // cap ζ 𝜏: the capability itself is erased to (), but it asserts
            // ownership of the manual cell ρ(ζ), whose contents inhabit 𝜏.
            L3Type::Cap(z, stored) => {
                matches!(v, Value::Unit)
                    && match rho.get(z) {
                        Some(l) => {
                            matches!(heap.slot(*l), Some(Slot::Manual(contents)) if self.value_in_l3(heap, rho, contents, stored))
                        }
                        None => false,
                    }
            }
            L3Type::ForallLoc(_, _) => matches!(v, Value::Closure { .. }),
            // ∃ζ.𝜏: some concrete location witnesses the package.  The only
            // existentials the case study builds are REF-like packages
            // `((), ℓ)`, so the checker looks for the witness in the value.
            L3Type::ExistsLoc(z, body) => {
                let mut candidates: Vec<Loc> = Vec::new();
                collect_locs(v, &mut candidates);
                if candidates.is_empty() {
                    // No location mentioned: any live location could witness
                    // it only if the body ignores ζ.
                    let mut rho2 = rho.clone();
                    rho2.insert(z.clone(), Loc(u64::MAX));
                    return self.value_in_l3(heap, &rho2, v, body);
                }
                candidates.into_iter().any(|l| {
                    let mut rho2 = rho.clone();
                    rho2.insert(z.clone(), l);
                    self.value_in_l3(heap, &rho2, v, body)
                })
            }
        }
    }

    /// The executable `REF 𝜏 ∼ ref τ` soundness check (both directions) for a
    /// payload pair `(τ, 𝜏)` and an initial payload value.
    ///
    /// Returns an error describing the first violated obligation.
    pub fn check_transfer_soundness(
        &self,
        ml_payload: &PolyType,
        l3_payload: &L3Type,
        initial: Value,
    ) -> Result<(), CheckFailure> {
        let refuted = |claim: String, reason: String| CheckFailure {
            claim,
            witness: format!("{ml_payload} ∼ {l3_payload}"),
            reason,
        };
        let ml_ref = PolyType::ref_(ml_payload.clone());
        let l3_ref = L3Type::ref_like(l3_payload.clone());
        let (to_l3, to_ml) = self
            .conversions
            .derive(&ml_ref, &l3_ref)
            .ok_or_else(|| refuted(format!("{ml_ref} ∼ {l3_ref}"), "rule not derivable".into()))?;

        // Direction 1: L3 → MiniML must transfer ownership without copying.
        let mut heap = Heap::new();
        let loc = heap.alloc_manual(initial.clone());
        let before = heap.stats();
        let prog = Expr::app(to_ml, Expr::pair(Expr::Unit, Expr::Loc(loc)));
        let r =
            Machine::with_state(heap, Env::empty(), prog, MachineConfig::default()).run(self.fuel);
        match &r.halt {
            Halt::Value(v) => {
                if v.as_loc() != Some(loc) {
                    return Err(refuted(
                        "L3→MiniML transfer".into(),
                        format!("expected the same location {loc}, got {v}"),
                    ));
                }
                if r.heap.stats().manual_allocs > before.manual_allocs
                    || r.heap.stats().gc_allocs > before.gc_allocs
                {
                    return Err(refuted(
                        "L3→MiniML transfer".into(),
                        "the conversion allocated — it must move, not copy".into(),
                    ));
                }
                if !self.value_in(
                    &r.heap,
                    &LocSubst::new(),
                    v,
                    &MemGcSemType::Ml(ml_ref.clone()),
                ) {
                    return Err(refuted(
                        "L3→MiniML transfer".into(),
                        format!("result is not in V⟦{ml_ref}⟧"),
                    ));
                }
            }
            other => {
                return Err(refuted(
                    "L3→MiniML transfer".into(),
                    format!("conversion did not produce a value: {other:?}"),
                ))
            }
        }

        // Direction 2: MiniML → L3 must copy into a fresh manual cell and
        // leave the original GC'd cell untouched.
        let mut heap = Heap::new();
        let gc_loc = heap.alloc_gc(initial.clone());
        let prog = Expr::app(to_l3, Expr::Loc(gc_loc));
        let r =
            Machine::with_state(heap, Env::empty(), prog, MachineConfig::default()).run(self.fuel);
        match &r.halt {
            Halt::Value(v) => {
                let new_loc = match v {
                    Value::Pair(_, p) => p.as_loc(),
                    _ => None,
                };
                let new_loc = new_loc.ok_or_else(|| {
                    refuted(
                        "MiniML→L3 conversion".into(),
                        format!("expected a package ((), ℓ), got {v}"),
                    )
                })?;
                if new_loc == gc_loc {
                    return Err(refuted(
                        "MiniML→L3 conversion".into(),
                        "the GC'd cell was reused directly — aliases would be broken".into(),
                    ));
                }
                if !matches!(r.heap.slot(gc_loc), Some(Slot::Gc(_))) {
                    return Err(refuted(
                        "MiniML→L3 conversion".into(),
                        "the original GC'd cell was disturbed".into(),
                    ));
                }
                let mut rho = LocSubst::new();
                rho.insert(LocVar::new("ζ"), new_loc);
                let pkg_ty = L3Type::tensor(
                    L3Type::cap("ζ", l3_payload.clone()),
                    L3Type::bang(L3Type::ptr("ζ")),
                );
                if !self.value_in(&r.heap, &rho, v, &MemGcSemType::L3(pkg_ty)) {
                    return Err(refuted(
                        "MiniML→L3 conversion".into(),
                        format!("result is not in V⟦{l3_ref}⟧"),
                    ));
                }
            }
            other => {
                return Err(refuted(
                    "MiniML→L3 conversion".into(),
                    format!("conversion did not produce a value: {other:?}"),
                ))
            }
        }
        Ok(())
    }

    /// Type safety for a compiled §5 program: the run may produce a value,
    /// run out of fuel, or fail `Conv`; `Type` and `Ptr` failures witness a
    /// violation.
    pub fn check_type_safety(&self, expr: &Expr) -> Result<(), CheckFailure> {
        let r = Machine::run_expr(expr.clone(), self.fuel);
        match r.halt {
            Halt::Value(_) | Halt::OutOfFuel | Halt::Fail(ErrorCode::Conv) => Ok(()),
            other => Err(CheckFailure {
                claim: "type safety".into(),
                witness: expr.to_string(),
                reason: format!("{other:?}"),
            }),
        }
    }
}

fn collect_locs(v: &Value, out: &mut Vec<Loc>) {
    match v {
        Value::Loc(l) => out.push(*l),
        Value::Pair(a, b) => {
            collect_locs(a, out);
            collect_locs(b, out);
        }
        Value::Inl(a) | Value::Inr(a) | Value::Protected(a, _) => collect_locs(a, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilang::MgProgram;
    use crate::syntax::{L3Expr, PolyExpr};
    use crate::MemGcCase;
    use semint_core::CaseStudy;

    /// Type checks and compiles a closed program.
    fn compile(program: MgProgram) -> Expr {
        let case = MemGcCase::standard();
        case.typecheck(&program).expect("typechecks");
        case.compile(&program).expect("compiles")
    }

    fn checker() -> MemGcModelChecker {
        MemGcModelChecker::new()
    }

    #[test]
    fn capability_membership_requires_live_manual_ownership() {
        let c = checker();
        let mut heap = Heap::new();
        let l = heap.alloc_manual(Value::Int(0));
        let mut rho = LocSubst::new();
        rho.insert(LocVar::new("ζ"), l);
        let cap_ty = MemGcSemType::L3(L3Type::cap("ζ", L3Type::Bool));
        assert!(c.value_in(&heap, &rho, &Value::Unit, &cap_ty));
        // A pointer to the same cell inhabits ptr ζ.
        assert!(c.value_in(
            &heap,
            &rho,
            &Value::Loc(l),
            &MemGcSemType::L3(L3Type::ptr("ζ"))
        ));
        // Freeing the cell invalidates the capability.
        heap.free(l).unwrap();
        assert!(!c.value_in(&heap, &rho, &Value::Unit, &cap_ty));
    }

    #[test]
    fn gc_reference_membership_requires_a_gc_slot() {
        let c = checker();
        let mut heap = Heap::new();
        let gc = heap.alloc_gc(Value::Int(3));
        let manual = heap.alloc_manual(Value::Int(3));
        let ty = MemGcSemType::Ml(PolyType::ref_(PolyType::Int));
        assert!(c.value_in(&heap, &LocSubst::new(), &Value::Loc(gc), &ty));
        assert!(
            !c.value_in(&heap, &LocSubst::new(), &Value::Loc(manual), &ty),
            "a manual cell is not an ML reference until it is gcmov'd"
        );
    }

    #[test]
    fn foreign_types_are_interpreted_as_their_l3_type() {
        let c = checker();
        let heap = Heap::new();
        let ty = MemGcSemType::Ml(PolyType::foreign(L3Type::Bool));
        assert!(c.value_in(&heap, &LocSubst::new(), &Value::Int(1), &ty));
        assert!(!c.value_in(&heap, &LocSubst::new(), &Value::Int(7), &ty));
    }

    #[test]
    fn ref_like_existential_packages_are_recognised() {
        let c = checker();
        let mut heap = Heap::new();
        let l = heap.alloc_manual(Value::Int(0));
        let pkg = Value::Pair(Box::new(Value::Unit), Box::new(Value::Loc(l)));
        assert!(c.value_in(
            &heap,
            &LocSubst::new(),
            &pkg,
            &MemGcSemType::L3(L3Type::ref_like(L3Type::Bool))
        ));
        // With the payload at the wrong type (an int that is not 0/1) it is
        // rejected.
        heap.write(l, Value::Int(9)).unwrap();
        assert!(!c.value_in(
            &heap,
            &LocSubst::new(),
            &pkg,
            &MemGcSemType::L3(L3Type::ref_like(L3Type::Bool))
        ));
    }

    #[test]
    fn transfer_soundness_for_the_registered_payloads() {
        let c = checker();
        c.check_transfer_soundness(&PolyType::Int, &L3Type::Bool, Value::Int(0))
            .unwrap_or_else(|ce| panic!("{ce}"));
        c.check_transfer_soundness(&PolyType::Unit, &L3Type::Unit, Value::Unit)
            .unwrap_or_else(|ce| panic!("{ce}"));
        c.check_transfer_soundness(
            &PolyType::foreign(L3Type::Bool),
            &L3Type::Bool,
            Value::Int(1),
        )
        .unwrap_or_else(|ce| panic!("{ce}"));
    }

    #[test]
    fn transfer_soundness_rejects_underivable_payloads() {
        let c = checker();
        let err = c
            .check_transfer_soundness(
                &PolyType::Int,
                &L3Type::cap("ζ", L3Type::Bool),
                Value::Int(0),
            )
            .unwrap_err();
        assert!(err.reason.contains("not derivable"));
    }

    #[test]
    fn compiled_case_study_programs_pass_the_safety_check() {
        let c = checker();
        let ml = PolyExpr::deref(PolyExpr::boundary(
            L3Expr::new(L3Expr::bool_(true)),
            PolyType::ref_(PolyType::Int),
        ));
        c.check_type_safety(&compile(MgProgram::Ml(ml))).unwrap();
        let l3 = L3Expr::free(L3Expr::boundary(
            PolyExpr::ref_(PolyExpr::int(3)),
            L3Type::ref_like(L3Type::Bool),
        ));
        c.check_type_safety(&compile(MgProgram::L3(l3))).unwrap();
        // A deliberately broken target program is caught.
        let bad = Expr::free(Expr::ref_(Expr::int(1)));
        assert!(c.check_type_safety(&bad).is_err());
    }
}
