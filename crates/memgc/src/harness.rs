//! The [`CaseStudy`] instance for case study 3 (memory management &
//! polymorphism), consumed by the `semint-harness` engine.

use crate::compile::MemGcCompiler;
use crate::convert::MemGcConversions;
use crate::gen::MemGcProgramGen;
use crate::model::MemGcModelChecker;
use crate::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use crate::typecheck::{check_l3, check_poly, MemGcCtx, MemGcTypeError};
use lcvm::{Expr, Machine, RunResult};
use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario};
use semint_core::stats::{OutcomeClass, RunStats};
use semint_core::{Fuel, GlueCacheStats};

pub use crate::multilang::{MgProgram, MgSourceType};

/// Case study 3 as one object: the §5 rule set with its glue, the
/// MiniML/L3 typecheckers and compilers, LCVM with GC and manual memory, and
/// the Fig. 14 model, packaged for the harness engine.
///
/// The `broken` flag simulates broken conversion glue: the compiled program
/// is wrapped in a projection (`fst`), standing in for glue code that treats
/// every converted value as a pair.  Scenarios whose result is not a pair
/// then fail `Type` under the model's safety check.
#[derive(Debug, Clone)]
pub struct MemGcCase {
    conversions: MemGcConversions,
    broken: bool,
}

impl MemGcCase {
    /// The standard (sound) rule set.
    pub fn standard() -> Self {
        MemGcCase {
            conversions: MemGcConversions::standard(),
            broken: false,
        }
    }

    /// The deliberately broken glue (see the type-level docs).
    pub fn broken() -> Self {
        MemGcCase {
            conversions: MemGcConversions::standard(),
            broken: true,
        }
    }

    /// The conversion rule set in use.
    pub fn conversions(&self) -> &MemGcConversions {
        &self.conversions
    }

    /// Type checks a closed program (either host language), keeping the
    /// typed error that [`CaseStudy::typecheck`] renders.
    pub fn type_of(&self, program: &MgProgram) -> Result<MgSourceType, MemGcTypeError> {
        let ctx = MemGcCtx::empty();
        match program {
            MgProgram::Ml(e) => {
                check_poly(&ctx, e, &self.conversions).map(|(t, _)| MgSourceType::Ml(t))
            }
            MgProgram::L3(e) => {
                check_l3(&ctx, e, &self.conversions).map(|(t, _)| MgSourceType::L3(t))
            }
        }
    }

    /// Type checks, compiles and runs a closed program under `fuel`.
    pub fn run(&self, program: &MgProgram, fuel: Fuel) -> Result<RunResult, String> {
        self.typecheck(program)?;
        Ok(Machine::run_expr(self.compile(program)?, fuel))
    }
}

impl Default for MemGcCase {
    fn default() -> Self {
        MemGcCase::standard()
    }
}

fn push_ml(out: &mut Vec<MgProgram>, e: &PolyExpr) {
    out.push(MgProgram::Ml(e.clone()));
}

fn push_l3(out: &mut Vec<MgProgram>, e: &L3Expr) {
    out.push(MgProgram::L3(e.clone()));
}

/// Immediate subterms of a MiniML expression, as candidate shrinks.
fn ml_children(e: &PolyExpr, out: &mut Vec<MgProgram>) {
    match e {
        PolyExpr::Unit | PolyExpr::Int(_) | PolyExpr::Var(_) => {}
        PolyExpr::Fst(a)
        | PolyExpr::Snd(a)
        | PolyExpr::Inl(a, _)
        | PolyExpr::Inr(a, _)
        | PolyExpr::Lam(_, _, a)
        | PolyExpr::TyLam(_, a)
        | PolyExpr::TyApp(a, _)
        | PolyExpr::Ref(a)
        | PolyExpr::Deref(a) => push_ml(out, a),
        PolyExpr::Pair(a, b)
        | PolyExpr::App(a, b)
        | PolyExpr::Assign(a, b)
        | PolyExpr::Add(a, b) => {
            push_ml(out, a);
            push_ml(out, b);
        }
        PolyExpr::Match(s, _, l, _, r) => {
            push_ml(out, s);
            push_ml(out, l);
            push_ml(out, r);
        }
        PolyExpr::Boundary(l3, _) => push_l3(out, l3),
    }
}

/// Immediate subterms of an L3 expression, as candidate shrinks.
fn l3_children(e: &L3Expr, out: &mut Vec<MgProgram>) {
    match e {
        L3Expr::Unit | L3Expr::Bool(_) | L3Expr::Var(_) | L3Expr::UVar(_) => {}
        L3Expr::Lam(_, _, a)
        | L3Expr::Bang(a)
        | L3Expr::Dupl(a)
        | L3Expr::Drop(a)
        | L3Expr::New(a)
        | L3Expr::Free(a)
        | L3Expr::LocLam(_, a)
        | L3Expr::LocApp(a, _)
        | L3Expr::Pack(_, a, _) => push_l3(out, a),
        L3Expr::App(a, b)
        | L3Expr::Pair(a, b)
        | L3Expr::LetPair(_, _, a, b)
        | L3Expr::LetUnit(a, b)
        | L3Expr::LetBang(_, a, b)
        | L3Expr::Unpack(_, _, a, b) => {
            push_l3(out, a);
            push_l3(out, b);
        }
        L3Expr::If(c, t, f) => {
            push_l3(out, c);
            push_l3(out, t);
            push_l3(out, f);
        }
        L3Expr::Swap(a, b, c) => {
            push_l3(out, a);
            push_l3(out, b);
            push_l3(out, c);
        }
        L3Expr::Boundary(ml, _) => push_ml(out, ml),
    }
}

impl CaseStudy for MemGcCase {
    type Program = MgProgram;
    type Ty = MgSourceType;
    type Report = RunResult;
    type Compiled = Expr;

    fn name(&self) -> &'static str {
        "memgc"
    }

    fn generate(&self, seed: u64, profile: &GenProfile) -> Scenario<MgProgram, MgSourceType> {
        let mut gen = MemGcProgramGen::with_config(seed, *profile, self.conversions.clone());
        // Every fourth scenario is L3-hosted.
        if seed % 4 == 3 {
            let ty = gen.gen_l3_type(profile.type_depth);
            let program = gen.gen_l3(&ty);
            Scenario {
                seed,
                program: MgProgram::L3(program),
                ty: MgSourceType::L3(ty),
            }
        } else {
            let ty = gen.gen_goal_ml_type();
            let program = gen.gen_ml(&ty);
            Scenario {
                seed,
                program: MgProgram::Ml(program),
                ty: MgSourceType::Ml(ty),
            }
        }
    }

    fn typecheck(&self, program: &MgProgram) -> Result<MgSourceType, String> {
        self.type_of(program).map_err(|e| e.to_string())
    }

    fn compile(&self, program: &MgProgram) -> Result<Expr, String> {
        let compiler = MemGcCompiler::new(&self.conversions, &self.conversions);
        match program {
            MgProgram::Ml(e) => compiler.compile_ml_program(e),
            MgProgram::L3(e) => compiler.compile_l3_program(e),
        }
        .map_err(|e| e.to_string())
    }

    /// Drives the whole batch through **one** LCVM machine, reset in place
    /// between programs (the continuation stack's grown buffer survives as
    /// an allocation, never as state).
    fn execute_batch(&self, batch: Vec<Expr>, fuel: Fuel) -> Vec<RunResult> {
        Machine::run_batch(batch, fuel)
    }

    fn stats(&self, report: &RunResult) -> RunStats {
        use lcvm::Halt;
        let outcome = match &report.halt {
            Halt::Value(_) => OutcomeClass::Value,
            Halt::Fail(c) => OutcomeClass::Fail(*c),
            Halt::OutOfFuel => OutcomeClass::OutOfFuel,
            Halt::PhantomStuck { .. } => OutcomeClass::Stuck,
        };
        RunStats {
            outcome,
            steps: report.steps,
            counters: report.counters,
        }
    }

    fn model_check_compiled(
        &self,
        program: &MgProgram,
        _ty: &MgSourceType,
        compiled: &Expr,
    ) -> Result<(), CheckFailure> {
        // The broken glue projects every result as if it were a pair (the
        // only mode that needs its own copy of the borrowed artifact).
        let broken_wrap;
        let checked: &Expr = if self.broken {
            broken_wrap = Expr::fst(compiled.clone());
            &broken_wrap
        } else {
            compiled
        };

        let checker = MemGcModelChecker::new();
        checker
            .check_type_safety(checked)
            .map_err(|ce| CheckFailure {
                claim: if self.broken {
                    format!("deliberately broken glue: {}", ce.claim)
                } else {
                    ce.claim
                },
                witness: program.to_string(),
                ..ce
            })
    }

    fn shrink(&self, program: &MgProgram) -> Vec<MgProgram> {
        let mut out = Vec::new();
        match program {
            MgProgram::Ml(e) => ml_children(e, &mut out),
            MgProgram::L3(e) => l3_children(e, &mut out),
        }
        out
    }

    fn boundary_count(&self, program: &MgProgram) -> usize {
        match program {
            MgProgram::Ml(e) => e.boundary_count(),
            MgProgram::L3(e) => e.boundary_count(),
        }
    }

    fn check_conversions(&self) -> Result<(), CheckFailure> {
        // §5's executable conversion check is transfer soundness for the
        // in-place `gcmov` move at representative payload types.
        let checker = MemGcModelChecker::new();
        let catalogue = [
            (PolyType::Int, L3Type::Bool, lcvm::Value::Int(0)),
            (
                PolyType::prod(PolyType::Int, PolyType::Int),
                L3Type::tensor(L3Type::Bool, L3Type::Bool),
                lcvm::Value::Pair(Box::new(lcvm::Value::Int(0)), Box::new(lcvm::Value::Int(1))),
            ),
        ];
        for (ml_payload, l3_payload, initial) in catalogue {
            checker.check_transfer_soundness(&ml_payload, &l3_payload, initial)?;
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

    #[test]
    fn scenarios_typecheck_at_their_claimed_type() {
        let case = MemGcCase::standard();
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
    fn model_check_accepts_sound_scenarios() {
        let case = MemGcCase::standard();
        let cfg = GenProfile::standard();
        for seed in 0..12 {
            let scen = case.generate(seed, &cfg);
            case.model_check(&scen.program, &scen.ty)
                .unwrap_or_else(|f| panic!("seed {seed}: {f}"));
        }
    }

    #[test]
    fn broken_glue_is_refuted_for_some_seed() {
        let case = MemGcCase::broken();
        let cfg = GenProfile::standard();
        let refuted = (0..60).any(|seed| {
            let scen = case.generate(seed, &cfg);
            case.model_check(&scen.program, &scen.ty).is_err()
        });
        assert!(refuted, "no seed in 0..60 refuted the broken glue");
    }

    #[test]
    fn shrink_yields_immediate_subterms() {
        let case = MemGcCase::standard();
        let p = MgProgram::L3(L3Expr::free(L3Expr::new(L3Expr::bool_(true))));
        let shrinks = case.shrink(&p);
        assert_eq!(shrinks.len(), 1);
        assert!(matches!(&shrinks[0], MgProgram::L3(L3Expr::New(_))));
    }
}
