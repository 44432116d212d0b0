//! The [`AnyCase`] dispatcher: all three case studies behind one task type.
//!
//! The engine's pool is generic over one `CaseStudy`; to interleave tasks
//! from *different* case studies in a single sweep, their `Program`/`Ty`/
//! `Report` types are erased into enums here.  Each method dispatches on the
//! (case, program) pair; handing a program to the wrong case study is a
//! driver bug and reported as such rather than silently ignored.

use affine_interop::harness::{AffProgram, AffSourceType, AffineCase};
use memgc_interop::harness::{MemGcCase, MgProgram, MgSourceType};
use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario};
use semint_core::stats::RunStats;
use semint_core::Fuel;
use sharedmem::harness::{SharedMemCase, SmProgram};
use sharedmem::multilang::SourceType;
use std::fmt;

/// A program of any case study.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyProgram {
    /// Case study 1.
    SharedMem(SmProgram),
    /// Case study 2.
    Affine(AffProgram),
    /// Case study 3.
    MemGc(MgProgram),
}

impl fmt::Display for AnyProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyProgram::SharedMem(p) => write!(f, "{p}"),
            AnyProgram::Affine(p) => write!(f, "{p}"),
            AnyProgram::MemGc(p) => write!(f, "{p}"),
        }
    }
}

/// A source type of any case study.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyTy {
    /// Case study 1.
    SharedMem(SourceType),
    /// Case study 2.
    Affine(AffSourceType),
    /// Case study 3.
    MemGc(MgSourceType),
}

impl fmt::Display for AnyTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyTy::SharedMem(t) => write!(f, "{t}"),
            AnyTy::Affine(t) => write!(f, "{t}"),
            AnyTy::MemGc(t) => write!(f, "{t}"),
        }
    }
}

/// A run report of any case study.
#[derive(Debug, Clone)]
pub enum AnyReport {
    /// StackLang results (case study 1).
    StackLang(stacklang::RunResult),
    /// LCVM results (case studies 2–3).
    Lcvm(lcvm::RunResult),
}

/// A compiled artifact of any case study — the first-class object the sweep
/// engine threads from the compile stage through model checking into
/// execution, so each scenario is compiled exactly once.
#[derive(Debug, Clone)]
pub enum AnyCompiled {
    /// A StackLang program (case study 1).
    SharedMem(stacklang::Program),
    /// An LCVM compile output with its static-binder report (case study 2).
    Affine(affine_interop::compile::CompileOutput),
    /// An LCVM expression (case study 3).
    MemGc(lcvm::Expr),
}

/// One of the three case studies, selected at runtime.
#[derive(Debug, Clone)]
pub enum AnyCase {
    /// Case study 1: shared-memory interoperability.
    SharedMem(SharedMemCase),
    /// Case study 2: affine ⊸ unrestricted.
    Affine(AffineCase),
    /// Case study 3: memory management & polymorphism.
    MemGc(MemGcCase),
}

impl AnyCase {
    /// The three case-study names, in the order [`AnyCase::all`] builds them.
    pub const NAMES: [&'static str; 3] = ["sharedmem", "affine", "memgc"];

    /// All three case studies, optionally with their deliberately broken
    /// variants (used to demonstrate counterexample reporting).
    pub fn all(broken: bool) -> Vec<AnyCase> {
        AnyCase::NAMES
            .iter()
            .map(|name| AnyCase::by_name(name, broken).expect("NAMES are all known"))
            .collect()
    }

    /// Looks a case study up by name (one of [`AnyCase::NAMES`]).
    pub fn by_name(name: &str, broken: bool) -> Option<AnyCase> {
        match (name, broken) {
            ("sharedmem", false) => Some(AnyCase::SharedMem(SharedMemCase::standard())),
            ("sharedmem", true) => Some(AnyCase::SharedMem(SharedMemCase::broken())),
            ("affine", false) => Some(AnyCase::Affine(AffineCase::standard())),
            ("affine", true) => Some(AnyCase::Affine(AffineCase::broken())),
            ("memgc", false) => Some(AnyCase::MemGc(MemGcCase::standard())),
            ("memgc", true) => Some(AnyCase::MemGc(MemGcCase::broken())),
            _ => None,
        }
    }
}

/// The error used when a program is handed to the wrong case study.
fn mismatch<T>(case: &AnyCase) -> Result<T, String> {
    Err(format!(
        "program does not belong to case study `{}`",
        case.name()
    ))
}

impl CaseStudy for AnyCase {
    type Program = AnyProgram;
    type Ty = AnyTy;
    type Report = AnyReport;
    type Compiled = AnyCompiled;

    fn name(&self) -> &'static str {
        match self {
            AnyCase::SharedMem(c) => c.name(),
            AnyCase::Affine(c) => c.name(),
            AnyCase::MemGc(c) => c.name(),
        }
    }

    fn generate(&self, seed: u64, profile: &GenProfile) -> Scenario<AnyProgram, AnyTy> {
        match self {
            AnyCase::SharedMem(c) => {
                let s = c.generate(seed, profile);
                Scenario {
                    seed,
                    program: AnyProgram::SharedMem(s.program),
                    ty: AnyTy::SharedMem(s.ty),
                }
            }
            AnyCase::Affine(c) => {
                let s = c.generate(seed, profile);
                Scenario {
                    seed,
                    program: AnyProgram::Affine(s.program),
                    ty: AnyTy::Affine(s.ty),
                }
            }
            AnyCase::MemGc(c) => {
                let s = c.generate(seed, profile);
                Scenario {
                    seed,
                    program: AnyProgram::MemGc(s.program),
                    ty: AnyTy::MemGc(s.ty),
                }
            }
        }
    }

    fn typecheck(&self, program: &AnyProgram) -> Result<AnyTy, String> {
        match (self, program) {
            (AnyCase::SharedMem(c), AnyProgram::SharedMem(p)) => {
                c.typecheck(p).map(AnyTy::SharedMem)
            }
            (AnyCase::Affine(c), AnyProgram::Affine(p)) => c.typecheck(p).map(AnyTy::Affine),
            (AnyCase::MemGc(c), AnyProgram::MemGc(p)) => c.typecheck(p).map(AnyTy::MemGc),
            _ => mismatch(self),
        }
    }

    fn compile(&self, program: &AnyProgram) -> Result<AnyCompiled, String> {
        match (self, program) {
            (AnyCase::SharedMem(c), AnyProgram::SharedMem(p)) => {
                c.compile(p).map(AnyCompiled::SharedMem)
            }
            (AnyCase::Affine(c), AnyProgram::Affine(p)) => c.compile(p).map(AnyCompiled::Affine),
            (AnyCase::MemGc(c), AnyProgram::MemGc(p)) => c.compile(p).map(AnyCompiled::MemGc),
            _ => mismatch(self),
        }
    }

    fn execute_batch(&self, batch: Vec<AnyCompiled>, fuel: Fuel) -> Vec<AnyReport> {
        // Unwrap the erased artifacts into the case study's own type so its
        // batched runner (one reused machine for the whole batch) does the
        // driving; mismatched artifacts cannot be produced through this
        // trait — the engine always pairs a case's own artifacts with its
        // execute call.
        let foreign =
            || -> ! { unreachable!("artifact does not belong to case study `{}`", self.name()) };
        match self {
            AnyCase::SharedMem(c) => {
                let artifacts = batch
                    .into_iter()
                    .map(|compiled| match compiled {
                        AnyCompiled::SharedMem(a) => a,
                        _ => foreign(),
                    })
                    .collect();
                c.execute_batch(artifacts, fuel)
                    .into_iter()
                    .map(AnyReport::StackLang)
                    .collect()
            }
            AnyCase::Affine(c) => {
                let artifacts = batch
                    .into_iter()
                    .map(|compiled| match compiled {
                        AnyCompiled::Affine(a) => a,
                        _ => foreign(),
                    })
                    .collect();
                c.execute_batch(artifacts, fuel)
                    .into_iter()
                    .map(AnyReport::Lcvm)
                    .collect()
            }
            AnyCase::MemGc(c) => {
                let artifacts = batch
                    .into_iter()
                    .map(|compiled| match compiled {
                        AnyCompiled::MemGc(a) => a,
                        _ => foreign(),
                    })
                    .collect();
                c.execute_batch(artifacts, fuel)
                    .into_iter()
                    .map(AnyReport::Lcvm)
                    .collect()
            }
        }
    }

    fn stats(&self, report: &AnyReport) -> RunStats {
        match (self, report) {
            (AnyCase::SharedMem(c), AnyReport::StackLang(r)) => c.stats(r),
            (AnyCase::Affine(c), AnyReport::Lcvm(r)) => c.stats(r),
            (AnyCase::MemGc(c), AnyReport::Lcvm(r)) => c.stats(r),
            // A mismatched report cannot be produced through this trait; the
            // engine always pairs a case's own report with its stats call.
            _ => unreachable!("report does not belong to case study `{}`", self.name()),
        }
    }

    fn model_check_compiled(
        &self,
        program: &AnyProgram,
        ty: &AnyTy,
        compiled: &AnyCompiled,
    ) -> Result<(), CheckFailure> {
        let bug = |case: &AnyCase| CheckFailure {
            claim: "driver invariant".into(),
            witness: program.to_string(),
            reason: format!("program does not belong to case study `{}`", case.name()),
        };
        match (self, program, ty, compiled) {
            (
                AnyCase::SharedMem(c),
                AnyProgram::SharedMem(p),
                AnyTy::SharedMem(t),
                AnyCompiled::SharedMem(a),
            ) => c.model_check_compiled(p, t, a),
            (
                AnyCase::Affine(c),
                AnyProgram::Affine(p),
                AnyTy::Affine(t),
                AnyCompiled::Affine(a),
            ) => c.model_check_compiled(p, t, a),
            (AnyCase::MemGc(c), AnyProgram::MemGc(p), AnyTy::MemGc(t), AnyCompiled::MemGc(a)) => {
                c.model_check_compiled(p, t, a)
            }
            _ => Err(bug(self)),
        }
    }

    fn shrink(&self, program: &AnyProgram) -> Vec<AnyProgram> {
        match (self, program) {
            (AnyCase::SharedMem(c), AnyProgram::SharedMem(p)) => {
                c.shrink(p).into_iter().map(AnyProgram::SharedMem).collect()
            }
            (AnyCase::Affine(c), AnyProgram::Affine(p)) => {
                c.shrink(p).into_iter().map(AnyProgram::Affine).collect()
            }
            (AnyCase::MemGc(c), AnyProgram::MemGc(p)) => {
                c.shrink(p).into_iter().map(AnyProgram::MemGc).collect()
            }
            _ => Vec::new(),
        }
    }

    fn boundary_count(&self, program: &AnyProgram) -> usize {
        match (self, program) {
            (AnyCase::SharedMem(c), AnyProgram::SharedMem(p)) => c.boundary_count(p),
            (AnyCase::Affine(c), AnyProgram::Affine(p)) => c.boundary_count(p),
            (AnyCase::MemGc(c), AnyProgram::MemGc(p)) => c.boundary_count(p),
            // A foreign program has no boundaries *of this case study*.
            _ => 0,
        }
    }

    fn check_conversions(&self) -> Result<(), CheckFailure> {
        match self {
            AnyCase::SharedMem(c) => c.check_conversions(),
            AnyCase::Affine(c) => c.check_conversions(),
            AnyCase::MemGc(c) => c.check_conversions(),
        }
    }

    fn glue_cache_stats(&self) -> Option<semint_core::GlueCacheStats> {
        match self {
            AnyCase::SharedMem(c) => c.glue_cache_stats(),
            AnyCase::Affine(c) => c.glue_cache_stats(),
            AnyCase::MemGc(c) => c.glue_cache_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_round_trips() {
        for name in AnyCase::NAMES {
            let case = AnyCase::by_name(name, false).expect("known name");
            assert_eq!(case.name(), name);
        }
        assert!(AnyCase::by_name("unknown", false).is_none());
    }

    #[test]
    fn generated_any_scenarios_typecheck() {
        let cfg = GenProfile::standard();
        for case in AnyCase::all(false) {
            for seed in 0..10 {
                let scen = case.generate(seed, &cfg);
                let checked = case.typecheck(&scen.program).expect("well-typed");
                assert_eq!(checked, scen.ty, "{} seed {seed}", case.name());
            }
        }
    }

    #[test]
    fn cross_case_programs_are_rejected() {
        let sm = AnyCase::by_name("sharedmem", false).unwrap();
        let affine = AnyCase::by_name("affine", false).unwrap();
        let scen = affine.generate(0, &GenProfile::standard());
        assert!(sm.typecheck(&scen.program).is_err());
        assert!(sm.model_check(&scen.program, &scen.ty).is_err());
    }
}
