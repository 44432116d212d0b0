//! The [`CaseStudy`] instance for case study 1 (shared-memory
//! interoperability), consumed by the `semint-harness` engine.

use crate::convert::SharedMemConversions;
use crate::gen::ProgramGen;
use crate::model::{ModelChecker, SemType, World};
use crate::multilang::SourceType;
use reflang::compile::{compile_hl, compile_ll};
use reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use reflang::typecheck::{check_hl, check_ll, TypeCtx, TypeError};
use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario};
use semint_core::stats::{OutcomeClass, RunStats};
use semint_core::{Fuel, GlueCacheStats, Outcome};
use stacklang::{Machine, Program, RunResult};

pub use crate::multilang::SmProgram;

/// Fuel for the Theorem 3.4 type-safety run of a compiled scenario.
const TYPE_SAFETY_FUEL: u64 = 200_000;

/// The step index `W.k` a compiled scenario is checked against `E⟦τ⟧` at;
/// at most [`TYPE_SAFETY_FUEL`], so the type-safety run decides it too.
const EXPR_STEP_INDEX: u64 = 20_000;
const _: () = assert!(EXPR_STEP_INDEX <= TYPE_SAFETY_FUEL);

/// Case study 1 as one object: the Fig. 4 rule set with its glue, the
/// RefHL/RefLL typecheckers and compilers, StackLang, and the Fig. 5 model,
/// packaged for the harness engine.
///
/// The `broken` flag simulates a designer error: an extra convertibility
/// rule `bool ∼ [int]` whose glue is the identity.  The rule is unsound —
/// booleans compile to bare integers, which are not array values — so every
/// `bool`-typed scenario fails model checking, which is exactly the failure
/// the engine's counterexample shrinker is exercised on.
#[derive(Debug, Clone)]
pub struct SharedMemCase {
    conversions: SharedMemConversions,
    checker: ModelChecker,
    broken: bool,
}

impl SharedMemCase {
    /// The standard (sound) rule set.
    pub fn standard() -> Self {
        SharedMemCase::new(SharedMemConversions::standard())
    }

    /// The case study over the given rule set, e.g. the copy-convert
    /// ablation [`SharedMemConversions::with_ref_strategy`].
    pub fn new(conversions: SharedMemConversions) -> Self {
        SharedMemCase {
            conversions,
            checker: ModelChecker::default(),
            broken: false,
        }
    }

    /// The deliberately broken rule set (see the type-level docs).
    pub fn broken() -> Self {
        SharedMemCase {
            broken: true,
            ..SharedMemCase::standard()
        }
    }

    /// The conversion rule set in use.
    pub fn conversions(&self) -> &SharedMemConversions {
        &self.conversions
    }

    /// Type checks a closed program (either host language), keeping the
    /// typed error that [`CaseStudy::typecheck`] renders.
    pub fn type_of(&self, program: &SmProgram) -> Result<SourceType, TypeError> {
        match program {
            SmProgram::Hl(e) => {
                check_hl(&TypeCtx::empty(), e, &self.conversions).map(SourceType::Hl)
            }
            SmProgram::Ll(e) => {
                check_ll(&TypeCtx::empty(), e, &self.conversions).map(SourceType::Ll)
            }
        }
    }

    /// Type checks, compiles and runs a closed program under `fuel`.
    pub fn run(&self, program: &SmProgram, fuel: Fuel) -> Result<RunResult, String> {
        self.typecheck(program)?;
        Ok(Machine::run_program(self.compile(program)?, fuel))
    }

    /// The claimed model type of a scenario, with the broken rule applied.
    fn claimed_sem_type(&self, ty: &SourceType) -> SemType {
        match ty {
            SourceType::Hl(HlType::Bool) if self.broken => SemType::Ll(LlType::array(LlType::Int)),
            SourceType::Hl(t) => SemType::Hl(t.clone()),
            SourceType::Ll(t) => SemType::Ll(t.clone()),
        }
    }
}

impl Default for SharedMemCase {
    fn default() -> Self {
        SharedMemCase::standard()
    }
}

fn push_hl(out: &mut Vec<SmProgram>, e: &HlExpr) {
    out.push(SmProgram::Hl(e.clone()));
}

fn push_ll(out: &mut Vec<SmProgram>, e: &LlExpr) {
    out.push(SmProgram::Ll(e.clone()));
}

/// Immediate subterms of a RefHL expression, as candidate shrinks.
fn hl_children(e: &HlExpr, out: &mut Vec<SmProgram>) {
    match e {
        HlExpr::Unit | HlExpr::Bool(_) | HlExpr::Var(_) => {}
        HlExpr::Inl(a, _)
        | HlExpr::Inr(a, _)
        | HlExpr::Fst(a)
        | HlExpr::Snd(a)
        | HlExpr::Ref(a)
        | HlExpr::Deref(a)
        | HlExpr::Lam(_, _, a) => push_hl(out, a),
        HlExpr::Pair(a, b) | HlExpr::App(a, b) | HlExpr::Assign(a, b) => {
            push_hl(out, a);
            push_hl(out, b);
        }
        HlExpr::If(c, t, f) => {
            push_hl(out, c);
            push_hl(out, t);
            push_hl(out, f);
        }
        HlExpr::Match(s, _, l, _, r) => {
            push_hl(out, s);
            push_hl(out, l);
            push_hl(out, r);
        }
        HlExpr::Boundary(ll, _) => push_ll(out, ll),
    }
}

/// Immediate subterms of a RefLL expression, as candidate shrinks.
fn ll_children(e: &LlExpr, out: &mut Vec<SmProgram>) {
    match e {
        LlExpr::Int(_) | LlExpr::Var(_) => {}
        LlExpr::Array(es, _) => {
            for elem in es {
                push_ll(out, elem);
            }
        }
        LlExpr::Lam(_, _, a) | LlExpr::Ref(a) | LlExpr::Deref(a) => push_ll(out, a),
        LlExpr::Index(a, b) | LlExpr::App(a, b) | LlExpr::Add(a, b) | LlExpr::Assign(a, b) => {
            push_ll(out, a);
            push_ll(out, b);
        }
        LlExpr::If0(c, t, f) => {
            push_ll(out, c);
            push_ll(out, t);
            push_ll(out, f);
        }
        LlExpr::Boundary(hl, _) => push_hl(out, hl),
    }
}

impl CaseStudy for SharedMemCase {
    type Program = SmProgram;
    type Ty = SourceType;
    type Report = RunResult;
    type Compiled = Program;

    fn name(&self) -> &'static str {
        "sharedmem"
    }

    fn generate(&self, seed: u64, profile: &GenProfile) -> Scenario<SmProgram, SourceType> {
        let mut gen = ProgramGen::with_config(seed, *profile, self.conversions.clone());
        // Every fourth scenario is RefLL-hosted so both directions of the
        // boundary get swept.
        if seed % 4 == 3 {
            let ty = gen.gen_ll_type(profile.type_depth);
            let program = gen.gen_ll(&ty);
            Scenario {
                seed,
                program: SmProgram::Ll(program),
                ty: SourceType::Ll(ty),
            }
        } else {
            let ty = gen.gen_goal_hl_type();
            let program = gen.gen_hl(&ty);
            Scenario {
                seed,
                program: SmProgram::Hl(program),
                ty: SourceType::Hl(ty),
            }
        }
    }

    fn typecheck(&self, program: &SmProgram) -> Result<SourceType, String> {
        self.type_of(program).map_err(|e| e.to_string())
    }

    fn compile(&self, program: &SmProgram) -> Result<Program, String> {
        match program {
            SmProgram::Hl(e) => compile_hl(&TypeCtx::empty(), e, &self.conversions),
            SmProgram::Ll(e) => compile_ll(&TypeCtx::empty(), e, &self.conversions),
        }
        .map_err(|e| e.to_string())
    }

    /// Drives the whole batch through **one** StackLang machine, reset
    /// between programs (each reset adopts the next program's buffer
    /// zero-copy; no state survives a reset).
    fn execute_batch(&self, batch: Vec<Program>, fuel: Fuel) -> Vec<RunResult> {
        Machine::run_batch(batch, fuel)
    }

    fn stats(&self, report: &RunResult) -> RunStats {
        let outcome = match &report.outcome {
            Outcome::Value(_) => OutcomeClass::Value,
            Outcome::Fail(c) => OutcomeClass::Fail(*c),
            Outcome::OutOfFuel => OutcomeClass::OutOfFuel,
        };
        RunStats {
            outcome,
            steps: report.steps,
            counters: report.counters,
        }
    }

    /// One run of `compiled` from the empty configuration decides both
    /// checks: its outcome is the type-safety verdict, and, because its
    /// fuel covers the expression relation's step index, it is also the run
    /// `E⟦τ⟧` judges (see [`ModelChecker::run_in_expr`]).
    fn model_check_compiled(
        &self,
        program: &SmProgram,
        ty: &SourceType,
        compiled: &Program,
    ) -> Result<(), CheckFailure> {
        let result = Machine::run_program(compiled.clone(), Fuel::steps(TYPE_SAFETY_FUEL));

        // Theorems 3.3/3.4: no dynamic type errors.
        self.checker
            .run_is_type_safe(compiled, &result)
            .map_err(|ce| CheckFailure {
                witness: program.to_string(),
                ..ce
            })?;

        // The Fundamental Property: the compiled program inhabits E⟦τ⟧ at
        // its claimed type (the *broken* rule set claims bool-typed programs
        // at [int], which is where the sabotage surfaces).
        let sem_ty = self.claimed_sem_type(ty);
        let world = World::new(EXPR_STEP_INDEX);
        if !self.checker.run_in_expr(&world, &result, &sem_ty) {
            return Err(CheckFailure {
                claim: format!("compiled program ∈ E⟦{sem_ty}⟧"),
                witness: program.to_string(),
                reason: "run result is not in the expression relation".into(),
            });
        }
        Ok(())
    }

    fn shrink(&self, program: &SmProgram) -> Vec<SmProgram> {
        let mut out = Vec::new();
        match program {
            SmProgram::Hl(e) => hl_children(e, &mut out),
            SmProgram::Ll(e) => ll_children(e, &mut out),
        }
        out
    }

    fn boundary_count(&self, program: &SmProgram) -> usize {
        match program {
            SmProgram::Hl(e) => e.boundary_count(),
            SmProgram::Ll(e) => e.boundary_count(),
        }
    }

    fn check_conversions(&self) -> Result<(), CheckFailure> {
        let hl_types = [
            HlType::Bool,
            HlType::Unit,
            HlType::ref_(HlType::Bool),
            HlType::sum(HlType::Bool, HlType::Bool),
            HlType::prod(HlType::Bool, HlType::Unit),
        ];
        let ll_types = [
            LlType::Int,
            LlType::ref_(LlType::Int),
            LlType::array(LlType::Int),
        ];
        for hl in &hl_types {
            for ll in &ll_types {
                if self.conversions.derive(hl, ll).is_some() {
                    self.checker.check_convertibility(hl, ll)?;
                }
            }
        }
        if self.broken {
            // The sabotaged rule: bool ∼ [int] with identity glue. Lemma 3.1
            // refutes it with a concrete witness.
            self.checker
                .check_direction(
                    &SemType::Hl(HlType::Bool),
                    &SemType::Ll(LlType::array(LlType::Int)),
                    &Program::empty(),
                )
                .map_err(|ce| CheckFailure {
                    claim: format!("deliberately broken rule: {}", ce.claim),
                    ..ce
                })?;
        }
        Ok(())
    }

    fn glue_cache_stats(&self) -> Option<GlueCacheStats> {
        Some(self.conversions.cache().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semint_core::ErrorCode;
    use stacklang::{Heap, Instr};

    #[test]
    fn scenarios_typecheck_at_their_claimed_type() {
        let case = SharedMemCase::standard();
        let cfg = GenProfile::standard();
        for seed in 0..40 {
            let scen = case.generate(seed, &cfg);
            let checked = case
                .typecheck(&scen.program)
                .expect("well-typed by construction");
            assert_eq!(checked, scen.ty, "seed {seed}");
        }
    }

    #[test]
    fn standard_catalogue_is_sound_and_broken_catalogue_is_refuted() {
        assert!(SharedMemCase::standard().check_conversions().is_ok());
        let err = SharedMemCase::broken().check_conversions().unwrap_err();
        assert!(
            err.claim.contains("broken"),
            "unexpected claim: {}",
            err.claim
        );
    }

    #[test]
    fn model_check_accepts_sound_scenarios() {
        let case = SharedMemCase::standard();
        let cfg = GenProfile::standard();
        for seed in 0..12 {
            let scen = case.generate(seed, &cfg);
            case.model_check(&scen.program, &scen.ty)
                .unwrap_or_else(|f| {
                    panic!("seed {seed}: {f}");
                });
        }
    }

    /// The model check as it was before it shared one run: a type-safety
    /// run with 200k fuel, then a separate `E⟦τ⟧` run with `W.k` fuel.
    fn two_run_verdict(
        case: &SharedMemCase,
        program: &SmProgram,
        ty: &SourceType,
        compiled: &Program,
    ) -> Result<(), CheckFailure> {
        case.checker
            .check_type_safety(compiled, Fuel::steps(TYPE_SAFETY_FUEL))
            .map_err(|ce| CheckFailure {
                witness: program.to_string(),
                ..ce
            })?;
        let sem_ty = case.claimed_sem_type(ty);
        let world = World::new(EXPR_STEP_INDEX);
        if !case.checker.expr_in(&world, Heap::new(), compiled, &sem_ty) {
            return Err(CheckFailure {
                claim: format!("compiled program ∈ E⟦{sem_ty}⟧"),
                witness: program.to_string(),
                reason: "run result is not in the expression relation".into(),
            });
        }
        Ok(())
    }

    #[test]
    fn one_run_model_check_agrees_with_the_two_run_check() {
        let mut rejected = 0;
        for case in [SharedMemCase::standard(), SharedMemCase::broken()] {
            for name in ["default", "deep", "boundary-heavy"] {
                let profile = GenProfile::by_name(name).expect("preset");
                for seed in 0..40 {
                    let scen = case.generate(seed, &profile);
                    let compiled = case.compile(&scen.program).expect("compiles");
                    let one = case.model_check_compiled(&scen.program, &scen.ty, &compiled);
                    let two = two_run_verdict(&case, &scen.program, &scen.ty, &compiled);
                    assert_eq!(one, two, "{name} seed {seed}");
                    rejected += usize::from(one.is_err());
                }
            }
        }
        assert!(
            rejected > 0,
            "the broken rule set must be rejected somewhere"
        );
    }

    #[test]
    fn the_expression_verdict_of_a_long_run_matches_a_budgeted_run() {
        // A run longer than W.k falls under the out-of-budget clause, even
        // when it ends in a type error the W.k-fuel run never reaches.
        let checker = ModelChecker::default();
        let ty = SemType::Hl(HlType::Bool);
        let mut slow = vec![Instr::push_num(0)];
        for _ in 0..30 {
            slow.extend([Instr::push_num(1), Instr::Add]);
        }
        for tail in [Instr::Add, Instr::Fail(ErrorCode::Conv), Instr::push_num(3)] {
            let program = Program::from(slow.clone()).then_instr(tail);
            let long = Machine::run_program(program.clone(), Fuel::steps(1_000));
            for k in [0, 1, 30, 60, 61, 62, 63, 1_000] {
                let world = World::new(k);
                assert_eq!(
                    checker.run_in_expr(&world, &long, &ty),
                    checker.expr_in(&world, Heap::new(), &program, &ty),
                    "k = {k}, program {program}"
                );
            }
        }
    }

    #[test]
    fn shrink_yields_immediate_subterms() {
        let case = SharedMemCase::standard();
        let p = SmProgram::Hl(HlExpr::if_(
            HlExpr::bool_(true),
            HlExpr::bool_(false),
            HlExpr::boundary(LlExpr::int(1), HlType::Bool),
        ));
        let shrinks = case.shrink(&p);
        assert_eq!(shrinks.len(), 3);
        assert!(shrinks
            .iter()
            .any(|s| matches!(s, SmProgram::Hl(HlExpr::Bool(true)))));
    }

    #[test]
    fn boundary_count_counts_boundaries() {
        let case = SharedMemCase::standard();
        let p = SmProgram::Hl(HlExpr::boundary(
            LlExpr::add(
                LlExpr::boundary(HlExpr::bool_(true), LlType::Int),
                LlExpr::int(0),
            ),
            HlType::Bool,
        ));
        assert_eq!(case.boundary_count(&p), 2);
    }
}
