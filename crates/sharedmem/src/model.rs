//! An executable approximation of the §3 realizability model (Fig. 5).
//!
//! The paper interprets each source type `τ` as a set `V⟦τ⟧` of pairs
//! `(W, v)` of a step-indexed world and a *StackLang* value, and each world
//! as a step budget plus a heap typing mapping locations to type
//! interpretations.  This module makes that model executable:
//!
//! * worlds are concrete ([`World`]): a step index plus a heap typing that
//!   maps locations to *source types of either language* ([`SemType`]) —
//!   sufficient because every interpretation the §3 system ever stores in a
//!   heap typing is the interpretation of some source type;
//! * membership `(W, v) ∈ V⟦τ⟧` is decided by [`ModelChecker::value_in`];
//!   the universal quantification over future worlds/arguments in the
//!   function case is approximated by a finite suite of canonical arguments
//!   and a bounded recursion depth;
//! * membership `(W, P) ∈ E⟦τ⟧` ([`ModelChecker::expr_in`]) runs `P` on the
//!   StackLang machine for at most `W.k` steps and checks the escape
//!   clauses of the expression relation exactly as written (benign
//!   failure, out of budget, or a value in `V⟦τ⟧` under an extended world).
//!   The verdict is a function of the finished run alone
//!   ([`ModelChecker::run_in_expr`]), so any run given at least `W.k` steps
//!   of fuel decides it: a run that took more than `W.k` steps is the
//!   out-of-budget clause, and a shorter one is the run `W.k` fuel gives;
//! * [`ModelChecker::check_convertibility`] is the executable content of
//!   Lemma 3.1 (Convertibility Soundness), and
//!   [`ModelChecker::check_type_safety`] of Theorem 3.4.
//!
//! A thunk value here is a StackLang closure: shared code plus the
//! environment it was pushed in.  Applying one to a sampled argument
//! (`push arg, push thunk, call`) or running glue on a sampled value copies
//! no code, and cloning a heap that holds thunks bumps reference counts.
//!
//! The positive direction (a term *is* in the relation) is approximate —
//! quantifiers are sampled — but the negative direction is exact: when the
//! checker reports a counterexample, the corresponding paper lemma is
//! genuinely violated for that rule set.  The test suite exercises both
//! directions, including deliberately unsound conversions that must be
//! rejected.

use crate::convert::SharedMemConversions;
use reflang::syntax::{HlType, LlType};
use semint_core::{ErrorCode, Fuel, Outcome, StepIndex};
use stacklang::{Heap, Instr, Loc, Machine, Program, RunResult, StackState, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A source type of either language — the index set of the unified logical
/// relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SemType {
    /// A RefHL type.
    Hl(HlType),
    /// A RefLL type.
    Ll(LlType),
}

impl fmt::Display for SemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemType::Hl(t) => write!(f, "{t}"),
            SemType::Ll(t) => write!(f, "{t}"),
        }
    }
}

impl From<HlType> for SemType {
    fn from(t: HlType) -> Self {
        SemType::Hl(t)
    }
}

impl From<LlType> for SemType {
    fn from(t: LlType) -> Self {
        SemType::Ll(t)
    }
}

/// Decides whether two type interpretations are *the same set of target
/// values* — the question the paper highlights as newly expressible in a
/// unified realizability model ("we can ask if V⟦bool⟧ = V⟦int⟧").
///
/// The equality is decided structurally with the §3 base facts:
/// `V⟦bool⟧ = V⟦int⟧` (both are all integers) and `V⟦ref τ⟧ = V⟦ref 𝜏⟧` iff
/// the payload interpretations are equal.  Sums, products, arrays, unit and
/// functions of non-equal components are never equal to each other.
pub fn interp_equal(a: &SemType, b: &SemType) -> bool {
    use SemType::{Hl, Ll};
    match (a, b) {
        // Reflexivity.
        _ if a == b => true,
        // bool and int are both "all target integers".
        (Hl(HlType::Bool), Ll(LlType::Int)) | (Ll(LlType::Int), Hl(HlType::Bool)) => true,
        // References are equal exactly when their payload interpretations are.
        (Hl(HlType::Ref(t)), Ll(LlType::Ref(u))) | (Ll(LlType::Ref(u)), Hl(HlType::Ref(t))) => {
            interp_equal(&Hl((**t).clone()), &Ll((**u).clone()))
        }
        (Hl(HlType::Ref(t)), Hl(HlType::Ref(u))) => {
            interp_equal(&Hl((**t).clone()), &Hl((**u).clone()))
        }
        (Ll(LlType::Ref(t)), Ll(LlType::Ref(u))) => {
            interp_equal(&Ll((**t).clone()), &Ll((**u).clone()))
        }
        // Functions are equal when both domain and codomain interpretations
        // are equal (the relation is the same set of thunks).
        (Hl(HlType::Fun(a1, b1)), Ll(LlType::Fun(a2, b2)))
        | (Ll(LlType::Fun(a2, b2)), Hl(HlType::Fun(a1, b1))) => {
            interp_equal(&Hl((**a1).clone()), &Ll((**a2).clone()))
                && interp_equal(&Hl((**b1).clone()), &Ll((**b2).clone()))
        }
        _ => false,
    }
}

/// A step-indexed world `W = (k, Ψ)` (Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    /// The step budget `W.k`.
    pub k: StepIndex,
    /// The heap typing `W.Ψ`, mapping locations to the (source) type whose
    /// interpretation they must hold.
    pub heap_typing: BTreeMap<Loc, SemType>,
}

impl World {
    /// A world with the given budget and empty heap typing.
    pub fn new(k: u64) -> World {
        World {
            k: StepIndex::new(k),
            heap_typing: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a heap-typing entry.
    pub fn with_loc(mut self, l: Loc, ty: impl Into<SemType>) -> World {
        self.heap_typing.insert(l, ty.into());
        self
    }

    /// `W' ⊒ W`: the future world may have a smaller budget and must preserve
    /// every existing heap-typing entry at an equal interpretation.
    pub fn extended_by(&self, future: &World) -> bool {
        if future.k.get() > self.k.get() {
            return false;
        }
        self.heap_typing.iter().all(|(l, ty)| {
            future
                .heap_typing
                .get(l)
                .map(|ty2| interp_equal(ty, ty2))
                .unwrap_or(false)
        })
    }
}

impl semint_core::world::World for World {
    fn step_index(&self) -> StepIndex {
        self.k
    }
    fn extended_by(&self, future: &Self) -> bool {
        World::extended_by(self, future)
    }
    fn with_step_index(&self, k: StepIndex) -> Self {
        World {
            k,
            heap_typing: self.heap_typing.clone(),
        }
    }
}

/// A counterexample found by one of the checkers.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterExample {
    /// What was being checked.
    pub claim: String,
    /// The offending value or program, rendered.
    pub witness: String,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for CounterExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} — {}", self.claim, self.witness, self.reason)
    }
}

/// The executable model checker for case study 1.
#[derive(Debug, Clone)]
pub struct ModelChecker {
    conversions: SharedMemConversions,
    /// Recursion depth for the function case of the value relation.
    pub fun_depth: usize,
}

impl Default for ModelChecker {
    fn default() -> Self {
        ModelChecker::new(SharedMemConversions::standard())
    }
}

impl ModelChecker {
    /// A checker over the given conversion rule set.
    pub fn new(conversions: SharedMemConversions) -> Self {
        ModelChecker {
            conversions,
            fun_depth: 2,
        }
    }

    /// `(W, v) ∈ V⟦ty⟧` under heap `heap` (needed to chase references that
    /// the world has not yet been told about — see module docs).
    pub fn value_in(&self, world: &World, heap: &Heap, v: &Value, ty: &SemType) -> bool {
        self.value_in_depth(world, heap, v, ty, self.fun_depth)
    }

    fn value_in_depth(
        &self,
        world: &World,
        heap: &Heap,
        v: &Value,
        ty: &SemType,
        depth: usize,
    ) -> bool {
        match ty {
            SemType::Hl(t) => self.value_in_hl(world, heap, v, t, depth),
            SemType::Ll(t) => self.value_in_ll(world, heap, v, t, depth),
        }
    }

    fn value_in_hl(
        &self,
        world: &World,
        heap: &Heap,
        v: &Value,
        ty: &HlType,
        depth: usize,
    ) -> bool {
        match ty {
            // V⟦unit⟧ = {(W, 0)}
            HlType::Unit => matches!(v, Value::Num(0)),
            // V⟦bool⟧ = {(W, n)} — all integers.
            HlType::Bool => matches!(v, Value::Num(_)),
            // V⟦τ1 + τ2⟧ = {[0, v]} ∪ {[1, v]} with payload in the component.
            HlType::Sum(t1, t2) => match v {
                Value::Array(parts) if parts.len() == 2 => match &parts[0] {
                    Value::Num(0) => self.value_in_hl(world, heap, &parts[1], t1, depth),
                    Value::Num(1) => self.value_in_hl(world, heap, &parts[1], t2, depth),
                    _ => false,
                },
                _ => false,
            },
            HlType::Prod(t1, t2) => match v {
                Value::Array(parts) if parts.len() == 2 => {
                    self.value_in_hl(world, heap, &parts[0], t1, depth)
                        && self.value_in_hl(world, heap, &parts[1], t2, depth)
                }
                _ => false,
            },
            HlType::Fun(t1, t2) => self.fun_value_in(
                world,
                heap,
                v,
                &SemType::Hl((**t1).clone()),
                &SemType::Hl((**t2).clone()),
                depth,
            ),
            HlType::Ref(t) => self.ref_value_in(world, heap, v, &SemType::Hl((**t).clone()), depth),
        }
    }

    fn value_in_ll(
        &self,
        world: &World,
        heap: &Heap,
        v: &Value,
        ty: &LlType,
        depth: usize,
    ) -> bool {
        match ty {
            // V⟦int⟧ = {(W, n)}
            LlType::Int => matches!(v, Value::Num(_)),
            // V⟦[𝜏]⟧: every element is in V⟦𝜏⟧ (any length).
            LlType::Array(elem) => match v {
                Value::Array(parts) => parts
                    .iter()
                    .all(|p| self.value_in_ll(world, heap, p, elem, depth)),
                _ => false,
            },
            LlType::Fun(t1, t2) => self.fun_value_in(
                world,
                heap,
                v,
                &SemType::Ll((**t1).clone()),
                &SemType::Ll((**t2).clone()),
                depth,
            ),
            LlType::Ref(t) => self.ref_value_in(world, heap, v, &SemType::Ll((**t).clone()), depth),
        }
    }

    /// The reference case: `(W, ℓ) ∈ V⟦ref τ⟧` iff `W.Ψ(ℓ)` is (extensionally)
    /// the interpretation of `τ`.  For locations the world does not mention,
    /// the checker falls back to verifying the current heap contents — the
    /// "inferred extension" approximation described in the module docs.
    fn ref_value_in(
        &self,
        world: &World,
        heap: &Heap,
        v: &Value,
        payload: &SemType,
        depth: usize,
    ) -> bool {
        let l = match v {
            Value::Loc(l) => *l,
            _ => return false,
        };
        match world.heap_typing.get(&l) {
            Some(assigned) => interp_equal(assigned, payload),
            None => match heap.read(l) {
                Some(stored) => self.value_in_depth(world, heap, stored, payload, depth),
                None => false,
            },
        }
    }

    /// The function case: the value must be a `thunk (lam x. P)` and, for a
    /// suite of canonical arguments in the domain, running the application
    /// must land in the expression relation at the codomain.
    fn fun_value_in(
        &self,
        world: &World,
        heap: &Heap,
        v: &Value,
        dom: &SemType,
        cod: &SemType,
        depth: usize,
    ) -> bool {
        if !matches!(v, Value::Thunk(_)) {
            return false;
        }
        if depth == 0 {
            // Budget for nested function exploration exhausted: accept the
            // shape (this is the approximate positive direction).
            return true;
        }
        for arg in self.sample_values(dom, depth - 1) {
            // Application protocol (Fig. 3): argument below the thunk, `call`.
            let program = Program::from(vec![
                Instr::push_val(arg),
                Instr::push_val(v.clone()),
                Instr::Call,
            ]);
            if !self.expr_in_with_depth(world, heap.clone(), &program, cod, depth - 1) {
                return false;
            }
        }
        true
    }

    /// `(W, P) ∈ E⟦ty⟧`, starting from a heap that satisfies `W`.
    pub fn expr_in(&self, world: &World, heap: Heap, program: &Program, ty: &SemType) -> bool {
        self.expr_in_with_depth(world, heap, program, ty, self.fun_depth)
    }

    fn expr_in_with_depth(
        &self,
        world: &World,
        heap: Heap,
        program: &Program,
        ty: &SemType,
        depth: usize,
    ) -> bool {
        let machine = Machine::with_state(heap, StackState::empty(), program.clone());
        let result = machine.run(Fuel::steps(world.k.get()));
        self.run_in_expr_with_depth(world, &result, ty, depth)
    }

    /// `(W, P) ∈ E⟦ty⟧`, decided from a finished run of `P` that started
    /// from a heap satisfying `W` with **at least** `W.k` steps of fuel.
    /// Such a run agrees with the `W.k`-fuel run [`ModelChecker::expr_in`]
    /// makes whenever it took at most `W.k` steps, and otherwise falls under
    /// the out-of-budget escape clause — so one run can serve both this
    /// check and [`ModelChecker::check_type_safety`]'s larger budget.
    pub fn run_in_expr(&self, world: &World, result: &RunResult, ty: &SemType) -> bool {
        self.run_in_expr_with_depth(world, result, ty, self.fun_depth)
    }

    fn run_in_expr_with_depth(
        &self,
        world: &World,
        result: &RunResult,
        ty: &SemType,
        depth: usize,
    ) -> bool {
        let k = world.k.get();
        if result.steps > k {
            // Ran longer than the step budget: no constraint (escape clause).
            return true;
        }
        match &result.outcome {
            // The budget ran out (after exactly `W.k` steps): escape clause.
            Outcome::OutOfFuel => true,
            // Well-defined errors are allowed by the §3 expression relation.
            Outcome::Fail(ErrorCode::Conv) | Outcome::Fail(ErrorCode::Idx) => true,
            Outcome::Fail(_) => false,
            Outcome::Value(v) => {
                // Build the future world: the budget shrinks by the steps
                // taken; existing heap-typing entries persist.
                let future = World {
                    k: StepIndex::new(k - result.steps),
                    heap_typing: world.heap_typing.clone(),
                };
                self.value_in_depth(&future, &result.heap, v, ty, depth)
            }
        }
    }

    /// Does `heap` satisfy `world` (`H : W`)?  Every location the heap typing
    /// mentions must exist and hold a value in the assigned interpretation.
    pub fn heap_satisfies(&self, world: &World, heap: &Heap) -> bool {
        world.heap_typing.iter().all(|(l, ty)| match heap.read(*l) {
            Some(v) => self.value_in(world, heap, v, ty),
            None => false,
        })
    }

    /// Canonical inhabitants of `V⟦ty⟧`, used to instantiate the universally
    /// quantified argument of the function case and to seed convertibility
    /// checks.
    #[allow(clippy::only_used_in_recursion)]
    pub fn sample_values(&self, ty: &SemType, depth: usize) -> Vec<Value> {
        match ty {
            SemType::Hl(HlType::Unit) => vec![Value::Num(0)],
            SemType::Hl(HlType::Bool) => vec![Value::Num(0), Value::Num(1), Value::Num(42)],
            SemType::Ll(LlType::Int) => vec![Value::Num(0), Value::Num(1), Value::Num(-7)],
            SemType::Hl(HlType::Sum(a, b)) => {
                let mut out = Vec::new();
                for v in self.sample_values(&SemType::Hl((**a).clone()), depth) {
                    out.push(Value::array([Value::Num(0), v]));
                }
                for v in self.sample_values(&SemType::Hl((**b).clone()), depth) {
                    out.push(Value::array([Value::Num(1), v]));
                }
                out
            }
            SemType::Hl(HlType::Prod(a, b)) => {
                let xs = self.sample_values(&SemType::Hl((**a).clone()), depth);
                let ys = self.sample_values(&SemType::Hl((**b).clone()), depth);
                xs.into_iter()
                    .flat_map(|x| ys.iter().map(move |y| Value::array([x.clone(), y.clone()])))
                    .take(4)
                    .collect()
            }
            SemType::Ll(LlType::Array(elem)) => {
                let es = self.sample_values(&SemType::Ll((**elem).clone()), depth);
                vec![
                    Value::array([]),
                    Value::array(es.iter().take(2).cloned()),
                    Value::array(es.into_iter().take(3)),
                ]
            }
            SemType::Hl(HlType::Fun(_, b)) => {
                // Constant functions returning canonical codomain values.
                self.sample_values(&SemType::Hl((**b).clone()), depth)
                    .into_iter()
                    .take(2)
                    .map(constant_function)
                    .collect()
            }
            SemType::Ll(LlType::Fun(_, b)) => self
                .sample_values(&SemType::Ll((**b).clone()), depth)
                .into_iter()
                .take(2)
                .map(constant_function)
                .collect(),
            // Reference samples require a heap; convertibility checks build
            // them explicitly (see `check_convertibility`), so none here.
            SemType::Hl(HlType::Ref(_)) | SemType::Ll(LlType::Ref(_)) => vec![],
        }
    }

    /// The executable content of **Lemma 3.1 (Convertibility Soundness)** for
    /// one rule: for every sampled `(W, v) ∈ V⟦hl⟧`, pushing `v` and running
    /// `C_{hl↦ll}` must land in `E⟦ll⟧`, and symmetrically.
    pub fn check_convertibility(&self, hl: &HlType, ll: &LlType) -> Result<(), CounterExample> {
        let (to_ll, to_hl) = match self.conversions.derive(hl, ll) {
            Some(pair) => pair,
            None => {
                return Err(CounterExample {
                    claim: format!("{hl} ∼ {ll}"),
                    witness: "-".into(),
                    reason: "rule not derivable".into(),
                })
            }
        };
        self.check_direction(&SemType::Hl(hl.clone()), &SemType::Ll(ll.clone()), &to_ll)?;
        self.check_direction(&SemType::Ll(ll.clone()), &SemType::Hl(hl.clone()), &to_hl)?;
        Ok(())
    }

    /// Checks one direction of a conversion against an explicit glue program —
    /// also usable for *candidate* (possibly unsound) conversions in tests.
    pub fn check_direction(
        &self,
        from: &SemType,
        to: &SemType,
        glue: &Program,
    ) -> Result<(), CounterExample> {
        let world = World::new(10_000);
        for v in self.sample_values(from, self.fun_depth) {
            let program = Program::single(Instr::push_val(v.clone())).then(glue.clone());
            if !self.expr_in(&world, Heap::new(), &program, to) {
                return Err(CounterExample {
                    claim: format!("C_{{{from} ↦ {to}}} sound"),
                    witness: v.to_string(),
                    reason: format!("conversion output is not in E⟦{to}⟧"),
                });
            }
        }
        // Reference samples need a heap: build one per payload sample.
        if let Some(payload) = ref_payload(from) {
            for pv in self.sample_values(&payload, self.fun_depth) {
                let mut heap = Heap::new();
                let l = heap.alloc(pv.clone());
                let world = World::new(10_000).with_loc(l, payload.clone());
                let program = Program::single(Instr::push_val(Value::Loc(l))).then(glue.clone());
                if !self.expr_in(&world, heap, &program, to) {
                    return Err(CounterExample {
                        claim: format!("C_{{{from} ↦ {to}}} sound"),
                        witness: format!("ℓ ↦ {pv}"),
                        reason: format!("converted reference is not in E⟦{to}⟧"),
                    });
                }
            }
        }
        Ok(())
    }

    /// The executable content of **Theorems 3.3/3.4 (type safety)** for one
    /// compiled program: it must run to a value, a benign failure, or out of
    /// fuel — never a dynamic type error.
    pub fn check_type_safety(&self, program: &Program, fuel: Fuel) -> Result<(), CounterExample> {
        self.run_is_type_safe(program, &Machine::run_program(program.clone(), fuel))
    }

    /// [`ModelChecker::check_type_safety`]'s verdict on an existing run of
    /// `program` from the empty configuration.
    pub fn run_is_type_safe(
        &self,
        program: &Program,
        result: &RunResult,
    ) -> Result<(), CounterExample> {
        if result.outcome.is_safe() {
            Ok(())
        } else {
            Err(CounterExample {
                claim: "type safety".into(),
                witness: program.to_string(),
                reason: format!("outcome {:?}", result.outcome),
            })
        }
    }
}

/// `thunk (lam ignored. push v)`: a function sample returning `v`.
fn constant_function(v: Value) -> Value {
    Value::thunk(Program::single(Instr::lam1(
        "ignored",
        Program::single(Instr::push_val(v)),
    )))
}

fn ref_payload(ty: &SemType) -> Option<SemType> {
    match ty {
        SemType::Hl(HlType::Ref(t)) => Some(SemType::Hl((**t).clone())),
        SemType::Ll(LlType::Ref(t)) => Some(SemType::Ll((**t).clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> ModelChecker {
        ModelChecker::default()
    }

    #[test]
    fn bool_and_int_have_the_same_interpretation() {
        assert!(interp_equal(
            &SemType::Hl(HlType::Bool),
            &SemType::Ll(LlType::Int)
        ));
        assert!(interp_equal(
            &SemType::Hl(HlType::ref_(HlType::Bool)),
            &SemType::Ll(LlType::ref_(LlType::Int))
        ));
        assert!(!interp_equal(
            &SemType::Hl(HlType::Unit),
            &SemType::Ll(LlType::Int)
        ));
        assert!(!interp_equal(
            &SemType::Hl(HlType::sum(HlType::Bool, HlType::Bool)),
            &SemType::Ll(LlType::array(LlType::Int))
        ));
    }

    #[test]
    fn value_relation_base_cases() {
        let c = checker();
        let w = World::new(100);
        let h = Heap::new();
        // unit: only 0.
        assert!(c.value_in(&w, &h, &Value::Num(0), &SemType::Hl(HlType::Unit)));
        assert!(!c.value_in(&w, &h, &Value::Num(3), &SemType::Hl(HlType::Unit)));
        // bool: every integer, nothing else.
        assert!(c.value_in(&w, &h, &Value::Num(17), &SemType::Hl(HlType::Bool)));
        assert!(!c.value_in(&w, &h, &Value::array([]), &SemType::Hl(HlType::Bool)));
        // int likewise.
        assert!(c.value_in(&w, &h, &Value::Num(-4), &SemType::Ll(LlType::Int)));
    }

    #[test]
    fn sums_products_and_arrays() {
        let c = checker();
        let w = World::new(100);
        let h = Heap::new();
        let sum = SemType::Hl(HlType::sum(HlType::Bool, HlType::Unit));
        assert!(c.value_in(&w, &h, &Value::array([Value::Num(0), Value::Num(9)]), &sum));
        assert!(c.value_in(&w, &h, &Value::array([Value::Num(1), Value::Num(0)]), &sum));
        // inr payload must be unit (0).
        assert!(!c.value_in(&w, &h, &Value::array([Value::Num(1), Value::Num(9)]), &sum));
        // bad tag.
        assert!(!c.value_in(&w, &h, &Value::array([Value::Num(2), Value::Num(0)]), &sum));

        let arr = SemType::Ll(LlType::array(LlType::Int));
        assert!(c.value_in(&w, &h, &Value::array([]), &arr));
        assert!(c.value_in(
            &w,
            &h,
            &Value::array([Value::Num(1), Value::Num(2), Value::Num(3)]),
            &arr
        ));
        assert!(!c.value_in(&w, &h, &Value::array([Value::array([])]), &arr));
    }

    #[test]
    fn reference_membership_uses_the_heap_typing() {
        let c = checker();
        let mut h = Heap::new();
        let l = h.alloc(Value::Num(1));
        // With ℓ : bool in the world, ℓ inhabits both ref bool and ref int —
        // the crux of the §3 case study.
        let w = World::new(100).with_loc(l, HlType::Bool);
        assert!(c.value_in(
            &w,
            &h,
            &Value::Loc(l),
            &SemType::Hl(HlType::ref_(HlType::Bool))
        ));
        assert!(c.value_in(
            &w,
            &h,
            &Value::Loc(l),
            &SemType::Ll(LlType::ref_(LlType::Int))
        ));
        // But not ref unit: V⟦unit⟧ ≠ V⟦bool⟧.
        assert!(!c.value_in(
            &w,
            &h,
            &Value::Loc(l),
            &SemType::Hl(HlType::ref_(HlType::Unit))
        ));
        // A location the world does not know falls back to the heap contents.
        let w0 = World::new(100);
        assert!(c.value_in(
            &w0,
            &h,
            &Value::Loc(l),
            &SemType::Hl(HlType::ref_(HlType::Bool))
        ));
        // Dangling locations are never in the relation.
        assert!(!c.value_in(
            &w0,
            &h,
            &Value::Loc(Loc(99)),
            &SemType::Hl(HlType::ref_(HlType::Bool))
        ));
    }

    #[test]
    fn function_values_are_checked_on_canonical_arguments() {
        let c = checker();
        let w = World::new(10_000);
        let h = Heap::new();
        // thunk (lam x. push x) : bool → bool (the identity).
        let ident = Value::thunk(Program::single(Instr::lam1(
            "x",
            Program::single(Instr::push_var("x")),
        )));
        let ty = SemType::Hl(HlType::fun(HlType::Bool, HlType::Bool));
        assert!(c.value_in(&w, &h, &ident, &ty));
        // A function that ignores its argument and returns an array is not a
        // bool → bool.
        let bad = Value::thunk(Program::single(Instr::lam1(
            "x",
            Program::single(Instr::push_val(Value::array([]))),
        )));
        assert!(!c.value_in(&w, &h, &bad, &ty));
        // But it *is* a bool → [int].
        assert!(c.value_in(
            &w,
            &h,
            &bad,
            &SemType::Ll(LlType::fun(LlType::Int, LlType::array(LlType::Int)))
        ));
        // Non-thunks are never functions.
        assert!(!c.value_in(&w, &h, &Value::Num(3), &ty));
    }

    #[test]
    fn expression_relation_allows_benign_failures_and_divergence() {
        let c = checker();
        let w = World::new(1_000);
        let ty = SemType::Hl(HlType::Bool);
        // A program that fails Conv is in every E⟦τ⟧.
        let p = Program::single(Instr::Fail(ErrorCode::Conv));
        assert!(c.expr_in(&w, Heap::new(), &p, &ty));
        // A program that fails Type is in none.
        let p = Program::single(Instr::Add);
        assert!(!c.expr_in(&w, Heap::new(), &p, &ty));
        // A value of the wrong shape is rejected.
        let p = Program::single(Instr::push_val(Value::array([])));
        assert!(!c.expr_in(&w, Heap::new(), &p, &ty));
        // A long-running program exhausts the budget and is accepted.
        let mut instrs = vec![Instr::push_num(0)];
        for _ in 0..2_000 {
            instrs.push(Instr::push_num(1));
            instrs.push(Instr::Add);
        }
        let w_small = World::new(50);
        assert!(c.expr_in(&w_small, Heap::new(), &Program::from(instrs), &ty));
    }

    #[test]
    fn heap_satisfaction() {
        let c = checker();
        let mut h = Heap::new();
        let l = h.alloc(Value::Num(5));
        let w = World::new(100).with_loc(l, HlType::Bool);
        assert!(c.heap_satisfies(&w, &h));
        // unit demands exactly 0.
        let w_bad = World::new(100).with_loc(l, HlType::Unit);
        assert!(!c.heap_satisfies(&w_bad, &h));
        // Missing locations violate satisfaction.
        let w_missing = World::new(100).with_loc(Loc(77), HlType::Bool);
        assert!(!c.heap_satisfies(&w_missing, &h));
    }

    #[test]
    fn lemma_3_1_convertibility_soundness_for_the_registered_rules() {
        let c = checker();
        let rules = vec![
            (HlType::Bool, LlType::Int),
            (HlType::Unit, LlType::Int),
            (HlType::ref_(HlType::Bool), LlType::ref_(LlType::Int)),
            (
                HlType::sum(HlType::Bool, HlType::Bool),
                LlType::array(LlType::Int),
            ),
            (
                HlType::sum(HlType::Unit, HlType::Bool),
                LlType::array(LlType::Int),
            ),
            (
                HlType::prod(HlType::Bool, HlType::Bool),
                LlType::array(LlType::Int),
            ),
        ];
        for (hl, ll) in rules {
            c.check_convertibility(&hl, &ll)
                .unwrap_or_else(|ce| panic!("convertibility soundness failed: {ce}"));
        }
    }

    #[test]
    fn unsound_candidate_conversions_are_rejected() {
        let c = checker();
        // Claim: int converts to unit by doing nothing. False: 7 is not in
        // V⟦unit⟧.
        let err = c
            .check_direction(
                &SemType::Ll(LlType::Int),
                &SemType::Hl(HlType::Unit),
                &Program::empty(),
            )
            .unwrap_err();
        assert!(err.reason.contains("not in"));

        // Claim: int converts to bool+bool by tagging without checking: wrong,
        // arbitrary ints are not valid payload-carrying sums.
        let bogus = Program::single(Instr::push_num(5));
        let err = c
            .check_direction(
                &SemType::Ll(LlType::Int),
                &SemType::Hl(HlType::sum(HlType::Bool, HlType::Bool)),
                &bogus,
            )
            .unwrap_err();
        assert_eq!(err.claim, "C_{int ↦ (bool + bool)} sound");

        // Claim: ref [int] converts to ref (bool×bool) with a no-op (pointer
        // sharing): unsound because an empty array can be stored there.
        let err = c
            .check_direction(
                &SemType::Ll(LlType::ref_(LlType::array(LlType::Int))),
                &SemType::Hl(HlType::ref_(HlType::prod(HlType::Bool, HlType::Bool))),
                &Program::empty(),
            )
            .unwrap_err();
        assert!(err.witness.contains("ℓ"));
    }

    #[test]
    fn unregistered_rules_report_not_derivable() {
        let c = checker();
        let err = c
            .check_convertibility(&HlType::Bool, &LlType::array(LlType::Int))
            .unwrap_err();
        assert_eq!(err.reason, "rule not derivable");
    }

    #[test]
    fn world_extension_laws() {
        let w = World::new(10).with_loc(Loc(0), HlType::Bool);
        semint_core::world::check_world_laws(&w).unwrap();
        // Forgetting a location is not an extension; relabelling bool as int is.
        let forgot = World::new(5);
        assert!(!w.extended_by(&forgot));
        let relabelled = World {
            k: StepIndex::new(5),
            heap_typing: BTreeMap::from([(Loc(0), SemType::Ll(LlType::Int))]),
        };
        assert!(w.extended_by(&relabelled));
        // Raising the budget is not an extension.
        let raised = World {
            k: StepIndex::new(50),
            heap_typing: w.heap_typing.clone(),
        };
        assert!(!w.extended_by(&raised));
    }

    #[test]
    fn type_safety_checker_flags_type_failures_only() {
        let c = checker();
        assert!(c
            .check_type_safety(&Program::single(Instr::push_num(1)), Fuel::default())
            .is_ok());
        assert!(c
            .check_type_safety(
                &Program::single(Instr::Fail(ErrorCode::Conv)),
                Fuel::default()
            )
            .is_ok());
        assert!(c
            .check_type_safety(&Program::single(Instr::Call), Fuel::default())
            .is_err());
    }
}
