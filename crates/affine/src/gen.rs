//! Random generation of well-typed §4 programs.
//!
//! The generator is type-directed and *usage-aware*: every affine binder it
//! introduces is used exactly once or explicitly discarded, dynamic and
//! static arrows are chosen at random, and boundaries are inserted wherever a
//! conversion exists.  The §4 instantiations of the Fundamental Property and
//! the type-safety theorems quantify over all well-typed programs; the test
//! suites sample that space through this module.
//!
//! The generator asks the rule set the caller passes in whether a
//! boundary's type pair is `derivable`.  A case study passes its own rule set,
//! so generation warms the glue cache its typechecker and compiler then
//! read, and each pair is derived once per sweep.  The probes are pure
//! yes/no queries that consume no randomness, so what is generated never
//! depends on the cache's state.

use crate::convert::AffineConversions;
use crate::syntax::{AffiExpr, AffiType, MlExpr, MlType, Mode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semint_core::case::{ConstructorClass, ConstructorWeights, GenProfile};
use semint_core::convert::ConversionScheme;

/// Tuning knobs for the §4 generator.
#[derive(Debug, Clone, Copy)]
pub struct AffineGenConfig {
    /// Maximum expression depth.
    pub max_depth: usize,
    /// Maximum goal-type depth.
    pub type_depth: usize,
    /// Probability (0–100) of crossing a boundary when a conversion exists.
    pub boundary_bias: u32,
    /// Probability (0–100) of choosing the static arrow over the dynamic one
    /// when introducing an affine function.
    pub static_bias: u32,
    /// Constructor-class weights for goal-type generation.
    pub weights: ConstructorWeights,
}

impl Default for AffineGenConfig {
    fn default() -> Self {
        AffineGenConfig {
            max_depth: 4,
            type_depth: 2,
            boundary_bias: 35,
            static_bias: 50,
            weights: ConstructorWeights::STANDARD,
        }
    }
}

impl From<&GenProfile> for AffineGenConfig {
    fn from(profile: &GenProfile) -> Self {
        AffineGenConfig {
            max_depth: profile.max_depth,
            type_depth: profile.type_depth,
            boundary_bias: profile.boundary_bias,
            static_bias: 50,
            weights: profile.weights,
        }
    }
}

/// A deterministic, seed-driven generator of closed well-typed Affi and
/// MiniML programs.
#[derive(Debug)]
pub struct AffineProgramGen {
    rng: StdRng,
    config: AffineGenConfig,
    conversions: AffineConversions,
    fresh: u64,
}

impl AffineProgramGen {
    /// A generator with a fresh standard rule set and default configuration.
    pub fn new(seed: u64) -> Self {
        Self::with_config(
            seed,
            AffineGenConfig::default(),
            AffineConversions::standard(),
        )
    }

    /// A generator with an explicit configuration that probes
    /// `conversions` at every boundary (pass the rule set of the system that
    /// will typecheck and compile the programs; see the module docs).
    pub fn with_config(seed: u64, config: AffineGenConfig, conversions: AffineConversions) -> Self {
        AffineProgramGen {
            rng: StdRng::seed_from_u64(seed),
            config,
            conversions,
            fresh: 0,
        }
    }

    fn fresh_name(&mut self, hint: &str) -> String {
        let n = self.fresh;
        self.fresh += 1;
        format!("{hint}{n}")
    }

    /// Generates a random Affi goal type, drawing constructor classes from
    /// the configured weights: base types (`leaf`), tensors and dynamic
    /// lollis (`branch`, so deep pairs *and functions* sit under glue), and
    /// `!` wrappers (`wrap`).
    pub fn gen_affi_type(&mut self, depth: usize) -> AffiType {
        if depth == 0 {
            return match self.rng.gen_range(0..3) {
                0 => AffiType::Int,
                1 => AffiType::Bool,
                _ => AffiType::Unit,
            };
        }
        match self.pick_class() {
            ConstructorClass::Leaf => match self.rng.gen_range(0..3) {
                0 => AffiType::Int,
                1 => AffiType::Bool,
                _ => AffiType::Unit,
            },
            ConstructorClass::Branch => match self.rng.gen_range(0..3) {
                0 | 1 => {
                    AffiType::tensor(self.gen_affi_type(depth - 1), self.gen_affi_type(depth - 1))
                }
                _ => AffiType::lolli(self.gen_affi_type(depth - 1), self.gen_affi_type(depth - 1)),
            },
            ConstructorClass::Wrap => AffiType::bang(self.gen_affi_type(depth - 1)),
        }
    }

    /// A goal type at the configured type depth.
    pub fn gen_goal_affi_type(&mut self) -> AffiType {
        self.gen_affi_type(self.config.type_depth)
    }

    /// Generates a random MiniML goal type of bounded size (for the
    /// MiniML-hosted scenarios, which used to be pinned at `int`).
    pub fn gen_ml_type(&mut self, depth: usize) -> MlType {
        if depth == 0 {
            return if self.rng.gen_bool(0.5) {
                MlType::Int
            } else {
                MlType::Unit
            };
        }
        match self.pick_class() {
            ConstructorClass::Leaf => {
                if self.rng.gen_bool(0.5) {
                    MlType::Int
                } else {
                    MlType::Unit
                }
            }
            ConstructorClass::Branch => match self.rng.gen_range(0..3) {
                0 => MlType::prod(self.gen_ml_type(depth - 1), self.gen_ml_type(depth - 1)),
                1 => MlType::sum(self.gen_ml_type(depth - 1), self.gen_ml_type(depth - 1)),
                _ => MlType::fun(self.gen_ml_type(depth - 1), self.gen_ml_type(depth - 1)),
            },
            ConstructorClass::Wrap => MlType::ref_(self.gen_ml_type(depth - 1)),
        }
    }

    fn pick_class(&mut self) -> ConstructorClass {
        let total = self.config.weights.total().max(1);
        self.config.weights.class_for(self.rng.gen_range(0..total))
    }

    /// Generates a closed, well-typed Affi expression of type `ty`.
    pub fn gen_affi(&mut self, ty: &AffiType) -> AffiExpr {
        self.affi(ty, self.config.max_depth)
    }

    /// Generates a closed, well-typed MiniML expression of type `ty`.
    pub fn gen_ml(&mut self, ty: &MlType) -> MlExpr {
        self.ml(ty, self.config.max_depth)
    }

    fn boundary_here(&mut self) -> bool {
        self.rng.gen_range(0u32..100) < self.config.boundary_bias
    }

    fn affi(&mut self, ty: &AffiType, depth: usize) -> AffiExpr {
        // Possibly detour through MiniML when a conversion exists.
        if depth > 0 && self.boundary_here() {
            if let Some(ml_ty) = self.ml_type_convertible_to(ty) {
                return AffiExpr::boundary(self.ml(&ml_ty, depth - 1), ty.clone());
            }
        }
        if depth == 0 {
            return self.affi_leaf(ty);
        }
        match self.rng.gen_range(0..4) {
            // Canonical constructor one level deep.
            0 => self.affi_constructor(ty, depth),
            // Apply an affine identity (fresh binder, used exactly once).
            1 => {
                let name = self.fresh_name("a");
                let arg = self.affi(ty, depth - 1);
                if self.rng.gen_range(0u32..100) < self.config.static_bias {
                    AffiExpr::app(
                        AffiExpr::lam_static(
                            name.as_str(),
                            ty.clone(),
                            AffiExpr::avar_static(name.as_str()),
                        ),
                        arg,
                    )
                } else {
                    AffiExpr::app(
                        AffiExpr::lam(name.as_str(), ty.clone(), AffiExpr::avar(name.as_str())),
                        arg,
                    )
                }
            }
            // Destructure a tensor whose second component is the goal; the
            // first is dropped (affine, not linear, so that is allowed).
            2 => {
                let left = self.fresh_name("l");
                let right = self.fresh_name("r");
                let other = self.gen_affi_type(1);
                AffiExpr::let_tensor(
                    left.as_str(),
                    right.as_str(),
                    AffiExpr::tensor(self.affi(&other, 0), self.affi(ty, depth - 1)),
                    AffiExpr::avar_static(right.as_str()),
                )
            }
            // Project out of an additive pair (the unused side may share
            // nothing or everything; here both sides are independent).
            _ => {
                let other = self.gen_affi_type(1);
                if self.rng.gen_bool(0.5) {
                    AffiExpr::proj1(AffiExpr::with_pair(
                        self.affi(ty, depth - 1),
                        self.affi(&other, 0),
                    ))
                } else {
                    AffiExpr::proj2(AffiExpr::with_pair(
                        self.affi(&other, 0),
                        self.affi(ty, depth - 1),
                    ))
                }
            }
        }
    }

    fn affi_constructor(&mut self, ty: &AffiType, depth: usize) -> AffiExpr {
        let d = depth.saturating_sub(1);
        match ty {
            AffiType::Unit => AffiExpr::unit(),
            AffiType::Bool => AffiExpr::bool_(self.rng.gen_bool(0.5)),
            AffiType::Int => AffiExpr::int(self.rng.gen_range(-20..20)),
            AffiType::Tensor(a, b) => AffiExpr::tensor(self.affi(a, d), self.affi(b, d)),
            AffiType::With(a, b) => AffiExpr::with_pair(self.affi(a, d), self.affi(b, d)),
            AffiType::Bang(inner) => AffiExpr::bang(self.affi_leaf(inner)),
            AffiType::Lolli(mode, a, b) => {
                let name = self.fresh_name("f");
                // The body ignores the argument (affine drop) and produces a
                // value of the result type, so it is well-typed for either
                // mode without tracking usage of the binder.
                let body = self.affi(b, d);
                let _ = a;
                match mode {
                    crate::syntax::Mode::Static => {
                        AffiExpr::lam_static(name.as_str(), (**a).clone(), body)
                    }
                    crate::syntax::Mode::Dynamic => {
                        AffiExpr::lam(name.as_str(), (**a).clone(), body)
                    }
                }
            }
        }
    }

    fn affi_leaf(&mut self, ty: &AffiType) -> AffiExpr {
        match ty {
            AffiType::Unit => AffiExpr::unit(),
            AffiType::Bool => AffiExpr::bool_(self.rng.gen_bool(0.5)),
            AffiType::Int => AffiExpr::int(self.rng.gen_range(-20..20)),
            AffiType::Tensor(a, b) => AffiExpr::tensor(self.affi_leaf(a), self.affi_leaf(b)),
            AffiType::With(a, b) => AffiExpr::with_pair(self.affi_leaf(a), self.affi_leaf(b)),
            AffiType::Bang(inner) => AffiExpr::bang(self.affi_leaf(inner)),
            AffiType::Lolli(mode, a, b) => {
                let name = self.fresh_name("f");
                let body = self.affi_leaf(b);
                match mode {
                    crate::syntax::Mode::Static => {
                        AffiExpr::lam_static(name.as_str(), (**a).clone(), body)
                    }
                    crate::syntax::Mode::Dynamic => {
                        AffiExpr::lam(name.as_str(), (**a).clone(), body)
                    }
                }
            }
        }
    }

    fn ml(&mut self, ty: &MlType, depth: usize) -> MlExpr {
        if depth > 0 && self.boundary_here() {
            if let Some(affi_ty) = self.affi_type_convertible_to(ty) {
                return MlExpr::boundary(self.affi(&affi_ty, depth - 1), ty.clone());
            }
        }
        if depth == 0 {
            return self.ml_leaf(ty);
        }
        match self.rng.gen_range(0..3) {
            0 => self.ml_constructor(ty, depth),
            // Immediate application of a lambda (MiniML is unrestricted, so
            // the binder may be used any number of times; keep it to one).
            1 => {
                let name = self.fresh_name("x");
                MlExpr::app(
                    MlExpr::lam(name.as_str(), MlType::Int, self.ml(ty, depth - 1)),
                    self.ml(&MlType::Int, depth - 1),
                )
            }
            _ => {
                // Projection out of a pair containing the goal type.
                if self.rng.gen_bool(0.5) {
                    MlExpr::fst(MlExpr::pair(
                        self.ml(ty, depth - 1),
                        self.ml_leaf(&MlType::Unit),
                    ))
                } else {
                    MlExpr::snd(MlExpr::pair(
                        self.ml_leaf(&MlType::Int),
                        self.ml(ty, depth - 1),
                    ))
                }
            }
        }
    }

    fn ml_constructor(&mut self, ty: &MlType, depth: usize) -> MlExpr {
        let d = depth.saturating_sub(1);
        match ty {
            MlType::Unit => MlExpr::unit(),
            MlType::Int => {
                if d > 0 && self.rng.gen_bool(0.5) {
                    MlExpr::add(self.ml(&MlType::Int, d), self.ml(&MlType::Int, d))
                } else {
                    MlExpr::int(self.rng.gen_range(-20..20))
                }
            }
            MlType::Prod(a, b) => MlExpr::pair(self.ml(a, d), self.ml(b, d)),
            MlType::Sum(a, b) => {
                if self.rng.gen_bool(0.5) {
                    MlExpr::inl(self.ml(a, d), ty.clone())
                } else {
                    MlExpr::inr(self.ml(b, d), ty.clone())
                }
            }
            MlType::Fun(a, b) => {
                let name = self.fresh_name("x");
                MlExpr::lam(name.as_str(), (**a).clone(), self.ml(b, d))
            }
            MlType::Ref(a) => MlExpr::ref_(self.ml(a, d)),
        }
    }

    fn ml_leaf(&mut self, ty: &MlType) -> MlExpr {
        match ty {
            MlType::Unit => MlExpr::unit(),
            MlType::Int => MlExpr::int(self.rng.gen_range(-20..20)),
            MlType::Prod(a, b) => MlExpr::pair(self.ml_leaf(a), self.ml_leaf(b)),
            MlType::Sum(a, _) => MlExpr::inl(self.ml_leaf(a), ty.clone()),
            MlType::Fun(a, b) => {
                let name = self.fresh_name("x");
                MlExpr::lam(name.as_str(), (**a).clone(), self.ml_leaf(b))
            }
            MlType::Ref(a) => MlExpr::ref_(self.ml_leaf(a)),
        }
    }

    /// Picks a MiniML type convertible with the Affi goal type, if any.
    /// Recursion covers tensors, `!` and dynamic lollis (`𝜏1 ⊸ 𝜏2 ∼
    /// (unit → τ1) → τ2`), so boundaries appear under deep pairs and
    /// functions, not only at base types.
    fn ml_type_convertible_to(&mut self, ty: &AffiType) -> Option<MlType> {
        let candidate = match ty {
            AffiType::Unit => MlType::Unit,
            AffiType::Bool | AffiType::Int => MlType::Int,
            AffiType::Bang(inner) => self.ml_type_convertible_to(inner)?,
            AffiType::Tensor(a, b) => MlType::prod(
                self.ml_type_convertible_to(a)?,
                self.ml_type_convertible_to(b)?,
            ),
            AffiType::Lolli(Mode::Dynamic, a, b) => MlType::fun(
                MlType::fun(MlType::Unit, self.ml_type_convertible_to(a)?),
                self.ml_type_convertible_to(b)?,
            ),
            _ => return None,
        };
        self.conversions
            .derivable(ty, &candidate)
            .then_some(candidate)
    }

    /// Picks an Affi type convertible with the MiniML goal type, if any
    /// (the mirror image of [`Self::ml_type_convertible_to`]).
    fn affi_type_convertible_to(&mut self, ty: &MlType) -> Option<AffiType> {
        let candidate = match ty {
            MlType::Unit => AffiType::Unit,
            MlType::Int => {
                if self.rng.gen_bool(0.5) {
                    AffiType::Int
                } else {
                    AffiType::Bool
                }
            }
            MlType::Prod(a, b) => AffiType::tensor(
                self.affi_type_convertible_to(a)?,
                self.affi_type_convertible_to(b)?,
            ),
            MlType::Fun(thunk, b) => {
                let m1 = match thunk.as_ref() {
                    MlType::Fun(u, m1) if **u == MlType::Unit => m1,
                    _ => return None,
                };
                AffiType::lolli(
                    self.affi_type_convertible_to(m1)?,
                    self.affi_type_convertible_to(b)?,
                )
            }
            _ => return None,
        };
        self.conversions
            .derivable(&candidate, ty)
            .then_some(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilang::AffineMultiLang;

    #[test]
    fn generated_affi_programs_typecheck_at_the_requested_type() {
        let sys = AffineMultiLang::new();
        for seed in 0..80 {
            let mut gen = AffineProgramGen::new(seed);
            let ty = gen.gen_affi_type(2);
            let e = gen.gen_affi(&ty);
            let checked = sys
                .typecheck_affi(&e)
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(checked, ty, "seed {seed}");
        }
    }

    #[test]
    fn generated_ml_programs_typecheck() {
        let sys = AffineMultiLang::new();
        for seed in 0..80 {
            let mut gen = AffineProgramGen::new(seed);
            let e = gen.gen_ml(&MlType::Int);
            let ty = sys
                .typecheck_ml(&e)
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(ty, MlType::Int);
        }
    }

    #[test]
    fn generated_programs_run_safely_under_both_semantics() {
        let sys = AffineMultiLang::new();
        for seed in 0..60 {
            let mut gen = AffineProgramGen::new(seed);
            let ty = gen.gen_affi_type(1);
            let e = gen.gen_affi(&ty);
            let compiled = sys.compile_affi(&e).expect("compiles");
            assert!(
                sys.run(&compiled).halt.is_safe(),
                "seed {seed}: standard run unsafe for {e}"
            );
            assert!(
                sys.run_phantom(&compiled).halt.is_safe(),
                "seed {seed}: phantom run unsafe for {e}"
            );
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = AffineProgramGen::new(11);
        let mut b = AffineProgramGen::new(11);
        assert_eq!(a.gen_affi(&AffiType::Int), b.gen_affi(&AffiType::Int));
    }

    #[test]
    fn boundary_bias_zero_keeps_programs_single_language() {
        let cfg = AffineGenConfig {
            max_depth: 4,
            boundary_bias: 0,
            ..AffineGenConfig::default()
        };
        for seed in 0..20 {
            let mut gen = AffineProgramGen::with_config(seed, cfg, AffineConversions::standard());
            let e = gen.gen_affi(&AffiType::Int);
            assert!(!format!("{e}").contains('⦇'), "unexpected boundary in {e}");
        }
    }

    fn affi_type_depth(ty: &AffiType) -> usize {
        match ty {
            AffiType::Int | AffiType::Bool | AffiType::Unit => 0,
            AffiType::Tensor(a, b) | AffiType::With(a, b) | AffiType::Lolli(_, a, b) => {
                1 + affi_type_depth(a).max(affi_type_depth(b))
            }
            AffiType::Bang(a) => 1 + affi_type_depth(a),
        }
    }

    #[test]
    fn deep_profile_types_reach_depth_four_and_programs_typecheck() {
        use semint_core::case::GenProfile;
        let sys = AffineMultiLang::new();
        let cfg = AffineGenConfig::from(&GenProfile::deep());
        let mut max_depth_seen = 0;
        for seed in 0..40 {
            let mut gen = AffineProgramGen::with_config(seed, cfg, AffineConversions::standard());
            let ty = gen.gen_goal_affi_type();
            max_depth_seen = max_depth_seen.max(affi_type_depth(&ty));
            let e = gen.gen_affi(&ty);
            let checked = sys
                .typecheck_affi(&e)
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(checked, ty, "seed {seed}");
        }
        assert!(
            max_depth_seen >= 4,
            "deep profile never generated a depth-4 goal type (max {max_depth_seen})"
        );
    }

    #[test]
    fn deep_ml_goal_types_typecheck_too() {
        use semint_core::case::GenProfile;
        let sys = AffineMultiLang::new();
        let cfg = AffineGenConfig::from(&GenProfile::deep());
        for seed in 0..40 {
            let mut gen = AffineProgramGen::with_config(seed, cfg, AffineConversions::standard());
            let ty = gen.gen_ml_type(cfg.type_depth);
            let e = gen.gen_ml(&ty);
            let checked = sys
                .typecheck_ml(&e)
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(checked, ty, "seed {seed}");
        }
    }

    #[test]
    fn dynamic_lolli_goals_can_cross_the_boundary() {
        // 𝜏 ⊸ 𝜏 ∼ (unit → τ) → τ is derivable, so bias 100 must produce a
        // boundary at a lolli goal type for some seed.
        let cfg = AffineGenConfig {
            boundary_bias: 100,
            ..AffineGenConfig::default()
        };
        let goal = AffiType::lolli(AffiType::Int, AffiType::Int);
        let crossed = (0..20).any(|seed| {
            let mut gen = AffineProgramGen::with_config(seed, cfg, AffineConversions::standard());
            format!("{}", gen.gen_affi(&goal)).contains('⦇')
        });
        assert!(crossed, "no seed crossed a boundary at {goal}");
    }
}
