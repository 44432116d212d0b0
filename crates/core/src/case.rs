//! The [`CaseStudy`] abstraction: one interface over every language pair.
//!
//! The paper's framework is instantiated once per language pair — each case
//! study ships its own convertibility rules, compilers and realizability
//! model.  The executable reproduction mirrors that, but the *driver* logic
//! (generate a well-typed program, type check it, compile it, run it under a
//! budget, check it against the model) is identical everywhere.  This module
//! captures that driver shape as a trait so the `semint-harness` engine can
//! sweep seed ranges over all case studies — present and future — with one
//! batch runner, one statistics pipeline and one counterexample shrinker.
//!
//! Implementations live with their case studies (`sharedmem::harness`,
//! `affine_interop::harness`, `memgc_interop::harness`); only the vocabulary
//! lives here so the case-study crates need not depend on the engine.

use crate::convert::GlueCacheStats;
use crate::fuel::Fuel;
use crate::stats::RunStats;
use std::fmt;

/// Relative weights for the generators' choice among goal-type constructor
/// classes.  All three case studies' type generators draw from the same
/// three shapes: base types (`leaf`), binary constructors such as sums,
/// products, functions and tensors (`branch`), and unary wrappers such as
/// references, arrays and `!` (`wrap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructorWeights {
    /// Weight of base types (bool, int, unit, …).
    pub leaf: u32,
    /// Weight of binary constructors (sum, product, function, tensor, …).
    pub branch: u32,
    /// Weight of unary wrappers (ref, array, `!`, …).
    pub wrap: u32,
}

impl ConstructorWeights {
    /// The weights every preset except `deep` uses: an even split between
    /// stopping and recursing, with wrappers rarer than branches.
    pub const STANDARD: ConstructorWeights = ConstructorWeights {
        leaf: 3,
        branch: 3,
        wrap: 1,
    };

    /// Branch-heavy weights for the `deep` preset: goal types keep
    /// recursing most of the time, so deep pairs/functions/refs dominate.
    pub const DEEP: ConstructorWeights = ConstructorWeights {
        leaf: 1,
        branch: 4,
        wrap: 2,
    };

    /// The largest sum of weights [`GenProfile::validate`] accepts; keeps
    /// every arithmetic path comfortably inside `u32`.
    pub const MAX_TOTAL: u32 = 1_000_000;

    /// Sum of the three weights (saturating, so hand-built weights beyond
    /// [`ConstructorWeights::MAX_TOTAL`] cannot overflow — validation
    /// rejects them before they matter).
    pub fn total(&self) -> u32 {
        self.leaf
            .saturating_add(self.branch)
            .saturating_add(self.wrap)
    }

    /// Maps a uniform roll in `0..total()` to a constructor class; the
    /// generators draw the roll from their seeded RNG so this type needs no
    /// randomness of its own.
    pub fn class_for(&self, roll: u32) -> ConstructorClass {
        let roll = roll % self.total().max(1);
        if roll < self.leaf {
            ConstructorClass::Leaf
        } else if roll < self.leaf + self.branch {
            ConstructorClass::Branch
        } else {
            ConstructorClass::Wrap
        }
    }
}

/// One of the three goal-type constructor classes weighted by
/// [`ConstructorWeights`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructorClass {
    /// A base type.
    Leaf,
    /// A binary constructor.
    Branch,
    /// A unary wrapper.
    Wrap,
}

impl Default for ConstructorWeights {
    fn default() -> Self {
        ConstructorWeights::STANDARD
    }
}

/// A named generation profile: every knob the scenario generators honor.
///
/// Profiles are the engine's first-class notion of a workload *population*
/// (replacing the old flat `ScenarioConfig`): four presets cover the common
/// sweeps, and every knob is independently overridable (`semint sweep
/// --profile deep --boundary-bias 60 …`).  Construct presets via
/// [`GenProfile::by_name`] or the named constructors; after mutating knobs,
/// re-check with [`GenProfile::validate`] — the engine and CLI reject
/// invalid profiles instead of silently clamping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenProfile {
    /// The preset this profile started from (`custom` once knobs diverge in
    /// the CLI; informational only — never affects generation).
    pub name: &'static str,
    /// Maximum structural depth of generated goal *types* (source-type
    /// depth).  Depths above 2 put compound-glue derivation on the sweep's
    /// critical path, which is where the glue cache shows up in wall-clock.
    pub type_depth: usize,
    /// Maximum expression depth of generated programs.
    pub max_depth: usize,
    /// Probability (0–100) of inserting a language boundary where a
    /// convertibility rule permits one.
    pub boundary_bias: u32,
    /// Constructor-class weights for goal-type generation.
    pub weights: ConstructorWeights,
    /// Step budget for each run.
    pub fuel: Fuel,
}

impl GenProfile {
    /// The four preset names, in the order `semint --help` lists them.
    pub const PRESET_NAMES: [&'static str; 4] = ["smoke", "default", "deep", "boundary-heavy"];

    /// Tiny population for CI smokes: shallow types, shallow programs,
    /// small budget.
    pub fn smoke() -> GenProfile {
        GenProfile {
            name: "smoke",
            type_depth: 1,
            max_depth: 2,
            boundary_bias: 25,
            weights: ConstructorWeights::STANDARD,
            fuel: Fuel::steps(50_000),
        }
    }

    /// The standard population (the pre-profile engine's behavior):
    /// source-type depth 2, expression depth 4, 35% boundary bias.
    pub fn standard() -> GenProfile {
        GenProfile {
            name: "default",
            type_depth: 2,
            max_depth: 4,
            boundary_bias: 35,
            weights: ConstructorWeights::STANDARD,
            fuel: Fuel::steps(200_000),
        }
    }

    /// Deep population: source types of depth up to 4 with branch-heavy
    /// constructor weights, so compound-glue derivation sits on the sweep's
    /// critical path.
    pub fn deep() -> GenProfile {
        GenProfile {
            name: "deep",
            type_depth: 4,
            max_depth: 6,
            boundary_bias: 45,
            weights: ConstructorWeights::DEEP,
            fuel: Fuel::steps(400_000),
        }
    }

    /// Boundary-stress population: standard depths, but boundaries are
    /// inserted at (almost) every opportunity.
    pub fn boundary_heavy() -> GenProfile {
        GenProfile {
            name: "boundary-heavy",
            type_depth: 2,
            max_depth: 5,
            boundary_bias: 85,
            weights: ConstructorWeights::STANDARD,
            fuel: Fuel::steps(200_000),
        }
    }

    /// Looks a preset up by name.
    pub fn by_name(name: &str) -> Option<GenProfile> {
        match name {
            "smoke" => Some(GenProfile::smoke()),
            "default" => Some(GenProfile::standard()),
            "deep" => Some(GenProfile::deep()),
            "boundary-heavy" => Some(GenProfile::boundary_heavy()),
            _ => None,
        }
    }

    /// All four presets.
    pub fn presets() -> Vec<GenProfile> {
        GenProfile::PRESET_NAMES
            .iter()
            .map(|name| GenProfile::by_name(name).expect("preset names are exhaustive"))
            .collect()
    }

    /// Checks every knob, returning a human-readable complaint for the
    /// first invalid one.  Presets always validate; mutated profiles must
    /// be re-checked before use (the CLI turns the complaint into a usage
    /// error instead of silently clamping).
    pub fn validate(&self) -> Result<(), String> {
        if self.type_depth == 0 {
            return Err("type depth must be at least 1".into());
        }
        if self.max_depth == 0 {
            return Err("expression depth must be at least 1".into());
        }
        if self.boundary_bias > 100 {
            return Err(format!(
                "boundary bias is a percentage: {} is not in 0-100",
                self.boundary_bias
            ));
        }
        if self.fuel.remaining() == Some(0) {
            return Err("fuel budget must be nonzero (a zero-step budget can run nothing)".into());
        }
        if self.weights.total() == 0 {
            return Err("constructor weights must not all be zero".into());
        }
        let exact_total = [self.weights.leaf, self.weights.branch, self.weights.wrap]
            .iter()
            .try_fold(0u32, |acc, w| acc.checked_add(*w));
        if !matches!(exact_total, Some(total) if total <= ConstructorWeights::MAX_TOTAL) {
            return Err(format!(
                "constructor weights are relative; keep their sum at or below {}",
                ConstructorWeights::MAX_TOTAL
            ));
        }
        Ok(())
    }

    /// Validates and returns `self` (builder-style sugar over
    /// [`GenProfile::validate`]).
    pub fn validated(self) -> Result<GenProfile, String> {
        self.validate()?;
        Ok(self)
    }
}

impl Default for GenProfile {
    fn default() -> Self {
        GenProfile::standard()
    }
}

impl fmt::Display for GenProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fuel = match self.fuel.remaining() {
            Some(steps) => steps.to_string(),
            None => "unlimited".into(),
        };
        write!(
            f,
            "{} (type depth {}, expr depth {}, boundary bias {}%, weights {}/{}/{}, fuel {})",
            self.name,
            self.type_depth,
            self.max_depth,
            self.boundary_bias,
            self.weights.leaf,
            self.weights.branch,
            self.weights.wrap,
            fuel
        )
    }
}

/// One generated workload: a closed, well-typed multi-language program
/// together with the type the generator claims for it.
#[derive(Debug, Clone)]
pub struct Scenario<P, T> {
    /// The seed the program was generated from.
    pub seed: u64,
    /// The generated program.
    pub program: P,
    /// The type the generator claims the program has; the engine re-checks
    /// this claim through [`CaseStudy::typecheck`].
    pub ty: T,
}

/// A model-check counterexample in the shared vocabulary all three case
/// studies' checkers can be projected into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckFailure {
    /// The judgment that failed (e.g. `Lemma 3.1 for bool ∼ int`).
    pub claim: String,
    /// The offending program or value, rendered.
    pub witness: String,
    /// Why the check rejected it.
    pub reason: String,
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} refuted by {}: {}",
            self.claim, self.witness, self.reason
        )
    }
}

/// A language pair packaged as one *interface + behaviour* instance, in the
/// FunTAL "language as interface" sense: everything the generic engine needs
/// to generate, check, compile, run and model-check workloads for one case
/// study.
pub trait CaseStudy {
    /// Closed multi-language programs of this case study (either host
    /// language at the top level).
    type Program: Clone + fmt::Display + Send + 'static;
    /// Source types of this case study.
    type Ty: Clone + fmt::Display + PartialEq + Send + 'static;
    /// The full, case-study-specific result of one run (machine outcome plus
    /// whatever the pair's machine exposes: heaps, stacks, guard counts).
    type Report: Send + 'static;
    /// The compiled target artifact of one program — the first-class object
    /// the sweep engine threads through timing, execution and model checking
    /// so each scenario is compiled exactly once no matter how many stages
    /// consume it.
    type Compiled: Send + 'static;

    /// A short stable name (`sharedmem`, `affine`, `memgc`).
    fn name(&self) -> &'static str;

    /// Deterministically generates a well-typed scenario from `seed` under
    /// the given generation profile.
    fn generate(&self, seed: u64, profile: &GenProfile) -> Scenario<Self::Program, Self::Ty>;

    /// Type checks a program, returning its type.
    fn typecheck(&self, program: &Self::Program) -> Result<Self::Ty, String>;

    /// Compiles a program to its target language, returning the artifact.
    ///
    /// Callers must hand in a type-correct program (the engine re-checks the
    /// generator's claim through [`CaseStudy::typecheck`] first); this stage
    /// performs **no** typecheck of its own, which is what lets the engine
    /// guarantee one typecheck and one compile per scenario.
    fn compile(&self, program: &Self::Program) -> Result<Self::Compiled, String>;

    /// Runs a batch of already-compiled artifacts under the given step
    /// budget (the same budget for each), returning one report per artifact
    /// **in input order** — the one execution path: the sweep engine runs
    /// every scenario through here, as a batch of one at `--batch 1`.
    ///
    /// Artifacts are taken by value so the compile-once-execute-once sweep
    /// path never copies a compiled program; callers that also want to model
    /// check borrow the artifact through [`CaseStudy::model_check_compiled`]
    /// *before* executing it.  Case studies whose target machine supports
    /// in-place reuse drive the entire batch through **one** machine
    /// instance (reset between programs), amortising machine setup across
    /// the batch; a batch's reports must equal those of running each
    /// artifact in a batch of its own, which is what lets the sweep engine
    /// batch freely without perturbing digests.
    fn execute_batch(&self, batch: Vec<Self::Compiled>, fuel: Fuel) -> Vec<Self::Report>;

    /// Projects a case-study-specific report into the shared statistics
    /// vocabulary.
    fn stats(&self, report: &Self::Report) -> RunStats;

    /// Checks the program against the case study's realizability model at
    /// the claimed type (type safety and, where the model supports it,
    /// membership in the expression relation), borrowing an artifact the
    /// caller already built — the model-check stage never recompiles.
    fn model_check_compiled(
        &self,
        program: &Self::Program,
        ty: &Self::Ty,
        compiled: &Self::Compiled,
    ) -> Result<(), CheckFailure>;

    /// Compile-and-model-check convenience over
    /// [`CaseStudy::model_check_compiled`] for ad-hoc callers.  The sweep
    /// engine's shrink re-checks compile each candidate themselves and call
    /// [`CaseStudy::model_check_compiled`] directly, so the compile-once
    /// invariant holds there too.
    fn model_check(&self, program: &Self::Program, ty: &Self::Ty) -> Result<(), CheckFailure> {
        let compiled = self.compile(program).map_err(|reason| CheckFailure {
            claim: "compilation".into(),
            witness: program.to_string(),
            reason,
        })?;
        self.model_check_compiled(program, ty, &compiled)
    }

    /// Candidate one-step shrinks of `program`: structurally smaller
    /// programs (typically immediate subterms) that may reproduce a failure.
    /// Candidates need not be well-typed; the shrinker filters through
    /// [`CaseStudy::typecheck`].
    fn shrink(&self, program: &Self::Program) -> Vec<Self::Program> {
        let _ = program;
        Vec::new()
    }

    /// The number of syntactic language boundaries in `program`, used for
    /// the boundary-crossing aggregate statistics.
    ///
    /// This runs once per scenario on the sweep hot path, so implementations
    /// must count structurally (one tree walk) — rendering the program and
    /// counting `⦇` characters costs a full O(program) string allocation per
    /// scenario, which is why there is deliberately no render-based default.
    fn boundary_count(&self, program: &Self::Program) -> usize;

    /// Checks Lemma 3.1 (convertibility soundness) over the case study's
    /// registered rule catalogue, independent of any generated program.
    /// Cases without an executable conversion checker return `Ok(())`.
    fn check_conversions(&self) -> Result<(), CheckFailure> {
        Ok(())
    }

    /// A snapshot of the case study's glue-derivation cache counters
    /// (see [`crate::convert::GlueCache`]), if its conversion scheme is
    /// memoized.  The sweep engine diffs two snapshots to report per-sweep
    /// hit/miss figures.
    fn glue_cache_stats(&self) -> Option<GlueCacheStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_validates_and_is_bounded() {
        for profile in GenProfile::presets() {
            profile
                .validate()
                .unwrap_or_else(|e| panic!("preset {} invalid: {e}", profile.name));
            assert!(profile.fuel.remaining().is_some(), "{}", profile.name);
            assert!(profile.boundary_bias <= 100, "{}", profile.name);
            assert_eq!(
                GenProfile::by_name(profile.name),
                Some(profile),
                "by_name must round-trip {}",
                profile.name
            );
        }
        assert!(GenProfile::by_name("nope").is_none());
        assert_eq!(GenProfile::default(), GenProfile::standard());
    }

    #[test]
    fn deep_preset_reaches_past_the_old_type_depth_cap() {
        assert!(GenProfile::deep().type_depth >= 4);
    }

    #[test]
    fn invalid_knobs_are_rejected_with_friendly_messages() {
        let mut p = GenProfile::standard();
        p.boundary_bias = 101;
        assert!(p.validate().unwrap_err().contains("0-100"));
        let mut p = GenProfile::standard();
        p.fuel = crate::Fuel::steps(0);
        assert!(p.validate().unwrap_err().contains("fuel"));
        let mut p = GenProfile::standard();
        p.type_depth = 0;
        assert!(p.validate().unwrap_err().contains("type depth"));
        let mut p = GenProfile::standard();
        p.max_depth = 0;
        assert!(p.validate().unwrap_err().contains("expression depth"));
        let mut p = GenProfile::standard();
        p.weights = ConstructorWeights {
            leaf: 0,
            branch: 0,
            wrap: 0,
        };
        assert!(p.validate().unwrap_err().contains("weights"));
        // Oversized weights are rejected rather than overflowing the total.
        let mut p = GenProfile::standard();
        p.weights = ConstructorWeights {
            leaf: 3_000_000_000,
            branch: 3_000_000_000,
            wrap: 1,
        };
        assert!(p.validate().unwrap_err().contains("at or below"));
        assert!(GenProfile::standard().validated().is_ok());
    }

    #[test]
    fn profiles_render_their_knobs() {
        let text = GenProfile::deep().to_string();
        assert!(
            text.contains("deep") && text.contains("type depth 4"),
            "{text}"
        );
    }

    #[test]
    fn check_failure_displays_all_parts() {
        let f = CheckFailure {
            claim: "bool ∼ int".into(),
            witness: "true".into(),
            reason: "output not in E⟦int⟧".into(),
        };
        let s = f.to_string();
        assert!(s.contains("bool ∼ int") && s.contains("true") && s.contains("E⟦int⟧"));
    }
}
