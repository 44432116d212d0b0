//! The [`CaseStudy`] instance for case study 2 (affine ⊸ unrestricted
//! interoperability), consumed by the `semint-harness` engine.

use crate::compile::CompileOutput;
use crate::gen::{AffineGenConfig, AffineProgramGen};
use crate::model::{AffineModelChecker, AffineSemType};
use crate::multilang::AffineMultiLang;
use crate::syntax::{AffiType, MlType};
use lcvm::{Machine, RunResult};
use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario};
use semint_core::stats::{OutcomeClass, RunStats};
use semint_core::{Fuel, GlueCacheStats};

pub use crate::multilang::{AffProgram, AffSourceType};
use crate::syntax::{AffiExpr, MlExpr};

/// Case study 2 packaged for the harness engine.
///
/// The `broken` flag simulates an unsound extra rule `int ∼ bool` whose glue
/// forgets to normalise: `int`-typed scenarios are claimed at the boolean
/// relation, which only integers 0/1 inhabit, so most scenarios are refuted.
#[derive(Debug, Clone)]
pub struct AffineCase {
    system: AffineMultiLang,
    broken: bool,
}

impl AffineCase {
    /// The standard (sound) rule set.
    pub fn standard() -> Self {
        AffineCase {
            system: AffineMultiLang::new(),
            broken: false,
        }
    }

    /// The deliberately broken claim (see the type-level docs).
    pub fn broken() -> Self {
        AffineCase {
            system: AffineMultiLang::new(),
            broken: true,
        }
    }
}

impl Default for AffineCase {
    fn default() -> Self {
        AffineCase::standard()
    }
}

fn push_affi(out: &mut Vec<AffProgram>, e: &AffiExpr) {
    out.push(AffProgram::Affi(e.clone()));
}

fn push_ml(out: &mut Vec<AffProgram>, e: &MlExpr) {
    out.push(AffProgram::Ml(e.clone()));
}

/// Immediate subterms of an Affi expression, as candidate shrinks.
fn affi_children(e: &AffiExpr, out: &mut Vec<AffProgram>) {
    match e {
        AffiExpr::Unit
        | AffiExpr::Bool(_)
        | AffiExpr::Int(_)
        | AffiExpr::UVar(_)
        | AffiExpr::AVar(_, _) => {}
        AffiExpr::Lam(_, _, _, a) | AffiExpr::Bang(a) | AffiExpr::Proj1(a) | AffiExpr::Proj2(a) => {
            push_affi(out, a)
        }
        AffiExpr::App(a, b) | AffiExpr::WithPair(a, b) | AffiExpr::TensorPair(a, b) => {
            push_affi(out, a);
            push_affi(out, b);
        }
        AffiExpr::LetBang(_, a, b) | AffiExpr::LetTensor(_, _, a, b) => {
            push_affi(out, a);
            push_affi(out, b);
        }
        AffiExpr::Boundary(ml, _) => push_ml(out, ml),
    }
}

/// Immediate subterms of a MiniML expression, as candidate shrinks.
fn ml_children(e: &MlExpr, out: &mut Vec<AffProgram>) {
    match e {
        MlExpr::Unit | MlExpr::Int(_) | MlExpr::Var(_) => {}
        MlExpr::Fst(a)
        | MlExpr::Snd(a)
        | MlExpr::Inl(a, _)
        | MlExpr::Inr(a, _)
        | MlExpr::Lam(_, _, a)
        | MlExpr::Ref(a)
        | MlExpr::Deref(a) => push_ml(out, a),
        MlExpr::Pair(a, b) | MlExpr::App(a, b) | MlExpr::Assign(a, b) | MlExpr::Add(a, b) => {
            push_ml(out, a);
            push_ml(out, b);
        }
        MlExpr::Match(s, _, l, _, r) => {
            push_ml(out, s);
            push_ml(out, l);
            push_ml(out, r);
        }
        MlExpr::Boundary(affi, _) => push_affi(out, affi),
    }
}

impl CaseStudy for AffineCase {
    type Program = AffProgram;
    type Ty = AffSourceType;
    type Report = RunResult;
    type Compiled = CompileOutput;

    fn name(&self) -> &'static str {
        "affine"
    }

    fn generate(&self, seed: u64, profile: &GenProfile) -> Scenario<AffProgram, AffSourceType> {
        let mut gen = AffineProgramGen::with_config(
            seed,
            AffineGenConfig::from(profile),
            self.system.conversions().clone(),
        );
        // Every fourth scenario is MiniML-hosted.
        if seed % 4 == 3 {
            let ty = gen.gen_ml_type(profile.type_depth);
            let program = gen.gen_ml(&ty);
            Scenario {
                seed,
                program: AffProgram::Ml(program),
                ty: AffSourceType::Ml(ty),
            }
        } else {
            let ty = gen.gen_goal_affi_type();
            let program = gen.gen_affi(&ty);
            Scenario {
                seed,
                program: AffProgram::Affi(program),
                ty: AffSourceType::Affi(ty),
            }
        }
    }

    fn typecheck(&self, program: &AffProgram) -> Result<AffSourceType, String> {
        self.system.typecheck(program).map_err(|e| e.to_string())
    }

    fn compile(&self, program: &AffProgram) -> Result<CompileOutput, String> {
        self.system.compile_only(program).map_err(|e| e.to_string())
    }

    /// Drives the whole batch through **one** LCVM machine under the
    /// *standard* semantics, reset in place between programs (the
    /// continuation stack's grown buffer survives as an allocation, never
    /// as state).
    fn execute_batch(&self, batch: Vec<CompileOutput>, fuel: Fuel) -> Vec<RunResult> {
        Machine::run_batch(batch.into_iter().map(|compiled| compiled.expr), fuel)
    }

    fn stats(&self, report: &RunResult) -> RunStats {
        RunStats {
            outcome: halt_class(report),
            steps: report.steps,
            counters: report.counters,
        }
    }

    fn model_check_compiled(
        &self,
        program: &AffProgram,
        ty: &AffSourceType,
        compiled: &CompileOutput,
    ) -> Result<(), CheckFailure> {
        let checker = AffineModelChecker::new();
        // Safety under the standard *and* the augmented semantics, plus
        // erasure agreement (the §4 analogue of type safety).
        checker
            .check_safety(&compiled.expr, &compiled.static_binders)
            .map_err(|ce| CheckFailure {
                claim: ce.claim,
                witness: program.to_string(),
                reason: ce.reason,
            })?;

        // The claimed-type membership check, where the broken rule bites:
        // int-typed programs get claimed at the boolean relation.
        let claimed = match ty {
            AffSourceType::Affi(AffiType::Int) if self.broken => {
                Some(AffineSemType::Affi(AffiType::Bool))
            }
            AffSourceType::Ml(MlType::Int) if self.broken => {
                Some(AffineSemType::Affi(AffiType::Bool))
            }
            _ => None,
        };
        if let Some(sem_ty) = claimed {
            if !checker.expr_in(compiled.expr.clone(), &sem_ty) {
                return Err(CheckFailure {
                    claim: format!("deliberately broken rule: compiled program ∈ E⟦{sem_ty:?}⟧"),
                    witness: program.to_string(),
                    reason: "run result is not in the expression relation".into(),
                });
            }
        }
        Ok(())
    }

    fn shrink(&self, program: &AffProgram) -> Vec<AffProgram> {
        let mut out = Vec::new();
        match program {
            AffProgram::Affi(e) => affi_children(e, &mut out),
            AffProgram::Ml(e) => ml_children(e, &mut out),
        }
        out
    }

    fn boundary_count(&self, program: &AffProgram) -> usize {
        match program {
            AffProgram::Affi(e) => e.boundary_count(),
            AffProgram::Ml(e) => e.boundary_count(),
        }
    }

    fn check_conversions(&self) -> Result<(), CheckFailure> {
        let checker = AffineModelChecker::new();
        let catalogue = [
            (AffiType::Bool, MlType::Int),
            (AffiType::Int, MlType::Int),
            (AffiType::Unit, MlType::Unit),
        ];
        for (affi, ml) in &catalogue {
            if let Err(ce) = checker.check_convertibility(affi, ml) {
                // Pairs without a registered rule are skipped, matching the
                // sharedmem catalogue walk.
                if ce.reason.contains("not derivable") {
                    continue;
                }
                return Err(CheckFailure {
                    claim: ce.claim,
                    witness: ce.witness,
                    reason: ce.reason,
                });
            }
        }
        Ok(())
    }

    fn glue_cache_stats(&self) -> Option<GlueCacheStats> {
        Some(self.system.conversions().cache().stats())
    }
}

fn halt_class(report: &RunResult) -> OutcomeClass {
    use lcvm::Halt;
    match &report.halt {
        Halt::Value(_) => OutcomeClass::Value,
        Halt::Fail(c) => OutcomeClass::Fail(*c),
        Halt::OutOfFuel => OutcomeClass::OutOfFuel,
        Halt::PhantomStuck { .. } => OutcomeClass::Stuck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_typecheck_at_their_claimed_type() {
        let case = AffineCase::standard();
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
        let case = AffineCase::standard();
        let cfg = GenProfile::standard();
        for seed in 0..12 {
            let scen = case.generate(seed, &cfg);
            case.model_check(&scen.program, &scen.ty)
                .unwrap_or_else(|f| panic!("seed {seed}: {f}"));
        }
    }

    #[test]
    fn broken_claim_is_refuted_for_some_seed() {
        let case = AffineCase::broken();
        let cfg = GenProfile::standard();
        let refuted = (0..60).any(|seed| {
            let scen = case.generate(seed, &cfg);
            case.model_check(&scen.program, &scen.ty).is_err()
        });
        assert!(
            refuted,
            "no seed in 0..60 refuted the broken int ∼ bool claim"
        );
    }

    #[test]
    fn shrink_yields_immediate_subterms() {
        let case = AffineCase::standard();
        let p = AffProgram::Affi(AffiExpr::app(
            AffiExpr::lam("x", AffiType::Int, AffiExpr::avar("x")),
            AffiExpr::int(3),
        ));
        assert_eq!(case.shrink(&p).len(), 2);
    }
}
