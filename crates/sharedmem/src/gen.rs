//! Random generation of well-typed multi-language programs.
//!
//! The fundamental property (Theorem 3.2) and the type-safety theorems
//! (3.3/3.4) quantify over *all* well-typed programs; the executable test
//! suite instantiates them over a large randomized sample.  The generator is
//! type-directed: [`ProgramGen::gen_hl`] produces a RefHL expression of a requested type,
//! [`ProgramGen::gen_ll`] a RefLL expression, and both freely insert boundaries at
//! convertible types so the generated programs exercise the glue code.
//!
//! The generator asks the rule set the caller passes in whether a
//! boundary's type pair is `derivable`.  A case study passes its own rule set,
//! so generation warms the glue cache its typechecker and compiler then
//! read, and each pair is derived once per sweep.  The probes are pure
//! yes/no queries that consume no randomness, so what is generated never
//! depends on the cache's state.

use crate::convert::SharedMemConversions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint_core::case::{ConstructorClass, ConstructorWeights, GenProfile};
use semint_core::convert::ConversionScheme;

/// Tuning knobs for the generator.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Maximum expression depth.
    pub max_depth: usize,
    /// Maximum goal-type depth (used by [`ProgramGen::gen_hl_type`] /
    /// [`ProgramGen::gen_ll_type`] callers that follow the config).
    pub type_depth: usize,
    /// Probability (0–100) of inserting a boundary when one is possible.
    pub boundary_bias: u32,
    /// Constructor-class weights for goal-type generation.
    pub weights: ConstructorWeights,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 5,
            type_depth: 2,
            boundary_bias: 35,
            weights: ConstructorWeights::STANDARD,
        }
    }
}

impl From<&GenProfile> for GenConfig {
    fn from(profile: &GenProfile) -> Self {
        GenConfig {
            max_depth: profile.max_depth,
            type_depth: profile.type_depth,
            boundary_bias: profile.boundary_bias,
            weights: profile.weights,
        }
    }
}

/// A deterministic program generator seeded by a `u64`, so property tests can
/// shrink on the seed.
#[derive(Debug)]
pub struct ProgramGen {
    rng: StdRng,
    config: GenConfig,
    conversions: SharedMemConversions,
}

impl ProgramGen {
    /// A generator with a fresh standard rule set and default configuration.
    pub fn new(seed: u64) -> Self {
        ProgramGen::with_config(seed, GenConfig::default(), SharedMemConversions::standard())
    }

    /// A generator with an explicit configuration that probes
    /// `conversions` at every boundary (pass the rule set of the system that
    /// will typecheck and compile the programs; see the module docs).
    pub fn with_config(seed: u64, config: GenConfig, conversions: SharedMemConversions) -> Self {
        ProgramGen {
            rng: StdRng::seed_from_u64(seed),
            config,
            conversions,
        }
    }

    /// Generates a closed, well-typed RefHL expression of type `ty`.
    pub fn gen_hl(&mut self, ty: &HlType) -> HlExpr {
        self.hl(ty, self.config.max_depth)
    }

    /// Generates a closed, well-typed RefLL expression of type `ty`.
    pub fn gen_ll(&mut self, ty: &LlType) -> LlExpr {
        self.ll(ty, self.config.max_depth)
    }

    /// Generates a random RefHL type of bounded size (used to vary the goal
    /// type itself in property tests and by [`ProgramGen::gen_goal_hl_type`]
    /// at the configured type depth).  Constructor classes are drawn from
    /// the configured [`ConstructorWeights`], so branch-heavy profiles
    /// recurse most of the time and reach their full depth budget.
    pub fn gen_hl_type(&mut self, depth: usize) -> HlType {
        if depth == 0 {
            return if self.rng.gen_bool(0.5) {
                HlType::Bool
            } else {
                HlType::Unit
            };
        }
        match self.pick_class() {
            ConstructorClass::Leaf => {
                if self.rng.gen_bool(0.5) {
                    HlType::Bool
                } else {
                    HlType::Unit
                }
            }
            ConstructorClass::Branch => match self.rng.gen_range(0..3) {
                0 => HlType::sum(self.gen_hl_type(depth - 1), self.gen_hl_type(depth - 1)),
                1 => HlType::prod(self.gen_hl_type(depth - 1), self.gen_hl_type(depth - 1)),
                _ => HlType::fun(self.gen_hl_type(depth - 1), self.gen_hl_type(depth - 1)),
            },
            ConstructorClass::Wrap => HlType::ref_(self.gen_hl_type(depth - 1)),
        }
    }

    /// A goal type at the configured type depth.
    pub fn gen_goal_hl_type(&mut self) -> HlType {
        self.gen_hl_type(self.config.type_depth)
    }

    /// Generates a random RefLL goal type of bounded size (deep arrays and
    /// shared references for the RefLL-hosted scenarios).
    pub fn gen_ll_type(&mut self, depth: usize) -> LlType {
        if depth == 0 {
            return LlType::Int;
        }
        match self.pick_class() {
            ConstructorClass::Leaf => LlType::Int,
            ConstructorClass::Branch => LlType::array(self.gen_ll_type(depth - 1)),
            ConstructorClass::Wrap => LlType::ref_(self.gen_ll_type(depth - 1)),
        }
    }

    fn pick_class(&mut self) -> ConstructorClass {
        let total = self.config.weights.total().max(1);
        self.config.weights.class_for(self.rng.gen_range(0..total))
    }

    fn boundary_here(&mut self) -> bool {
        self.rng.gen_range(0u32..100) < self.config.boundary_bias
    }

    fn hl(&mut self, ty: &HlType, depth: usize) -> HlExpr {
        // Possibly detour through RefLL when a conversion exists.
        if depth > 0 && self.boundary_here() {
            if let Some(ll_ty) = self.convertible_ll_for(ty) {
                let inner = self.ll(&ll_ty, depth - 1);
                return HlExpr::boundary(inner, ty.clone());
            }
        }
        if depth == 0 {
            return self.hl_leaf(ty);
        }
        match self.rng.gen_range(0..4) {
            // A leaf / canonical constructor.
            0 => self.hl_leaf_deep(ty, depth),
            // if
            1 => HlExpr::if_(
                self.hl(&HlType::Bool, depth - 1),
                self.hl(ty, depth - 1),
                self.hl(ty, depth - 1),
            ),
            // Projection from a pair containing the goal type.
            2 => {
                if self.rng.gen_bool(0.5) {
                    HlExpr::fst(HlExpr::pair(
                        self.hl(ty, depth - 1),
                        self.hl(&HlType::Unit, 0),
                    ))
                } else {
                    HlExpr::snd(HlExpr::pair(
                        self.hl(&HlType::Bool, 0),
                        self.hl(ty, depth - 1),
                    ))
                }
            }
            // Immediate application of a lambda.
            _ => {
                let arg_ty = if self.rng.gen_bool(0.5) {
                    HlType::Bool
                } else {
                    HlType::Unit
                };
                let var = format!("x{}", self.rng.gen_range(0..1000));
                HlExpr::app(
                    HlExpr::lam(var.as_str(), arg_ty.clone(), self.hl(ty, depth - 1)),
                    self.hl(&arg_ty, depth - 1),
                )
            }
        }
    }

    fn hl_leaf(&mut self, ty: &HlType) -> HlExpr {
        self.hl_leaf_deep(ty, 1)
    }

    fn hl_leaf_deep(&mut self, ty: &HlType, depth: usize) -> HlExpr {
        let d = depth.saturating_sub(1);
        match ty {
            HlType::Unit => HlExpr::unit(),
            HlType::Bool => HlExpr::bool_(self.rng.gen_bool(0.5)),
            HlType::Sum(a, b) => {
                if self.rng.gen_bool(0.5) {
                    HlExpr::inl(self.hl(a, d), ty.clone())
                } else {
                    HlExpr::inr(self.hl(b, d), ty.clone())
                }
            }
            HlType::Prod(a, b) => HlExpr::pair(self.hl(a, d), self.hl(b, d)),
            HlType::Fun(a, b) => {
                let var = format!("f{}", self.rng.gen_range(0..1000));
                let _ = a;
                HlExpr::lam(var.as_str(), (**a).clone(), self.hl(b, d))
            }
            HlType::Ref(a) => HlExpr::ref_(self.hl(a, d)),
        }
    }

    fn ll(&mut self, ty: &LlType, depth: usize) -> LlExpr {
        if depth > 0 && self.boundary_here() {
            if let Some(hl_ty) = self.convertible_hl_for(ty) {
                let inner = self.hl(&hl_ty, depth - 1);
                return LlExpr::boundary(inner, ty.clone());
            }
        }
        if depth == 0 {
            return self.ll_leaf(ty);
        }
        match ty {
            LlType::Int => match self.rng.gen_range(0..4) {
                0 => LlExpr::int(self.rng.gen_range(-5..50)),
                1 => LlExpr::add(
                    self.ll(&LlType::Int, depth - 1),
                    self.ll(&LlType::Int, depth - 1),
                ),
                2 => LlExpr::if0(
                    self.ll(&LlType::Int, depth - 1),
                    self.ll(&LlType::Int, depth - 1),
                    self.ll(&LlType::Int, depth - 1),
                ),
                _ => LlExpr::index(
                    LlExpr::array(
                        (0..self.rng.gen_range(1..4))
                            .map(|_| self.ll(&LlType::Int, 0))
                            .collect::<Vec<_>>(),
                        LlType::Int,
                    ),
                    LlExpr::int(0),
                ),
            },
            LlType::Array(elem) => LlExpr::array(
                (0..self.rng.gen_range(0..4))
                    .map(|_| self.ll(elem, depth - 1))
                    .collect::<Vec<_>>(),
                (**elem).clone(),
            ),
            LlType::Fun(a, b) => {
                let var = format!("g{}", self.rng.gen_range(0..1000));
                LlExpr::lam(var.as_str(), (**a).clone(), self.ll(b, depth - 1))
            }
            LlType::Ref(a) => LlExpr::ref_(self.ll(a, depth - 1)),
        }
    }

    fn ll_leaf(&mut self, ty: &LlType) -> LlExpr {
        match ty {
            LlType::Int => LlExpr::int(self.rng.gen_range(-5..50)),
            LlType::Array(elem) => LlExpr::array(
                (0..self.rng.gen_range(0..3))
                    .map(|_| self.ll_leaf(elem))
                    .collect::<Vec<_>>(),
                (**elem).clone(),
            ),
            LlType::Fun(a, b) => {
                let var = format!("g{}", self.rng.gen_range(0..1000));
                let body = self.ll_leaf(b);
                LlExpr::lam(var.as_str(), (**a).clone(), body)
            }
            LlType::Ref(a) => LlExpr::ref_(self.ll_leaf(a)),
        }
    }

    /// Picks a RefLL type convertible with `ty`, if the rule set has one.
    /// The candidate is built structurally (recursing into products, sums
    /// and references) so boundaries appear under *deep* compound types,
    /// not just at the depth-≤-2 pairs the original generator handled; the
    /// rule set's `derivable` answer remains the source of truth.
    fn convertible_ll_for(&mut self, ty: &HlType) -> Option<LlType> {
        let candidate = ll_candidate_for(ty)?;
        self.conversions
            .derivable(ty, &candidate)
            .then_some(candidate)
    }

    /// Picks a RefHL type convertible with `ty`, if the rule set has one.
    fn convertible_hl_for(&mut self, ty: &LlType) -> Option<HlType> {
        let candidates: Vec<HlType> = match ty {
            LlType::Int => {
                if self.rng.gen_bool(0.5) {
                    vec![HlType::Bool, HlType::Unit]
                } else {
                    vec![HlType::Unit, HlType::Bool]
                }
            }
            // Pointer sharing needs no-op payload glue, so the payload
            // candidate chain bottoms out at `bool ∼ int`.
            LlType::Ref(inner) => match hl_ref_payload_for(inner) {
                Some(payload) => vec![HlType::ref_(payload)],
                None => vec![],
            },
            LlType::Array(inner) => match inner.as_ref() {
                LlType::Int => {
                    let sum = HlType::sum(HlType::Bool, HlType::Bool);
                    let prod = HlType::prod(HlType::Bool, HlType::Unit);
                    if self.rng.gen_bool(0.5) {
                        vec![sum, prod]
                    } else {
                        vec![prod, sum]
                    }
                }
                // Deep arrays become nested products whose components all
                // convert to the element type.
                elem => match self.convertible_hl_for(elem) {
                    Some(c) => vec![HlType::prod(c.clone(), c)],
                    None => vec![],
                },
            },
            _ => vec![],
        };
        candidates
            .into_iter()
            .find(|hl| self.conversions.derivable(hl, ty))
    }
}

/// The structural RefLL candidate for a RefHL type: `bool`/`unit` go to
/// `int`, sums of int-convertible arms go to `[int]`, products go to an
/// array of their (shared) component candidate, and reference chains pass
/// the pointer when the payload glue is a no-op.
fn ll_candidate_for(ty: &HlType) -> Option<LlType> {
    match ty {
        HlType::Bool | HlType::Unit => Some(LlType::Int),
        HlType::Ref(inner) => ll_ref_payload_for(inner).map(LlType::ref_),
        HlType::Sum(_, _) => Some(LlType::array(LlType::Int)),
        HlType::Prod(t1, t2) => {
            let c1 = ll_candidate_for(t1)?;
            let c2 = ll_candidate_for(t2)?;
            (c1 == c2).then(|| LlType::array(c1))
        }
        HlType::Fun(_, _) => None,
    }
}

/// The RefLL payload for a shared reference: only no-op glue chains
/// (`bool ∼ int` under any number of `ref`s) qualify under the paper's
/// pointer-sharing strategy.
fn ll_ref_payload_for(ty: &HlType) -> Option<LlType> {
    match ty {
        HlType::Bool => Some(LlType::Int),
        HlType::Ref(inner) => ll_ref_payload_for(inner).map(LlType::ref_),
        _ => None,
    }
}

/// The RefHL payload candidate for a RefLL reference, mirroring
/// [`ll_ref_payload_for`].
fn hl_ref_payload_for(ty: &LlType) -> Option<HlType> {
    match ty {
        LlType::Int => Some(HlType::Bool),
        LlType::Ref(inner) => hl_ref_payload_for(inner).map(HlType::ref_),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilang::MultiLang;

    #[test]
    fn generated_hl_programs_typecheck_at_the_requested_type() {
        let ml = MultiLang::new(SharedMemConversions::standard());
        for seed in 0..60 {
            let mut gen = ProgramGen::new(seed);
            let ty = gen.gen_hl_type(2);
            let e = gen.gen_hl(&ty);
            let checked = ml.typecheck_hl(&e).unwrap_or_else(|err| {
                panic!("seed {seed}: generated program {e} does not typecheck: {err}")
            });
            assert_eq!(checked, ty, "seed {seed}");
        }
    }

    #[test]
    fn generated_ll_programs_typecheck() {
        let ml = MultiLang::new(SharedMemConversions::standard());
        for seed in 0..60 {
            let mut gen = ProgramGen::new(seed);
            let e = gen.gen_ll(&LlType::Int);
            let ty = ml
                .typecheck_ll(&e)
                .expect("generated RefLL program typechecks");
            assert_eq!(ty, LlType::Int);
        }
    }

    #[test]
    fn generator_is_deterministic_in_its_seed() {
        let mut a = ProgramGen::new(7);
        let mut b = ProgramGen::new(7);
        assert_eq!(a.gen_hl(&HlType::Bool), b.gen_hl(&HlType::Bool));
    }

    #[test]
    fn boundary_bias_zero_generates_single_language_programs() {
        let cfg = GenConfig {
            max_depth: 4,
            boundary_bias: 0,
            ..GenConfig::default()
        };
        for seed in 0..20 {
            let mut gen = ProgramGen::with_config(seed, cfg, SharedMemConversions::standard());
            let e = gen.gen_hl(&HlType::Bool);
            assert!(!format!("{e}").contains('⦇'), "no boundaries expected: {e}");
        }
    }

    fn hl_type_depth(ty: &HlType) -> usize {
        match ty {
            HlType::Bool | HlType::Unit => 0,
            HlType::Sum(a, b) | HlType::Prod(a, b) | HlType::Fun(a, b) => {
                1 + hl_type_depth(a).max(hl_type_depth(b))
            }
            HlType::Ref(a) => 1 + hl_type_depth(a),
        }
    }

    #[test]
    fn deep_profile_types_reach_depth_four_and_programs_typecheck() {
        use semint_core::case::GenProfile;
        let ml = MultiLang::new(SharedMemConversions::standard());
        let cfg = GenConfig::from(&GenProfile::deep());
        let mut max_depth_seen = 0;
        for seed in 0..40 {
            let mut gen = ProgramGen::with_config(seed, cfg, SharedMemConversions::standard());
            let ty = gen.gen_goal_hl_type();
            max_depth_seen = max_depth_seen.max(hl_type_depth(&ty));
            let e = gen.gen_hl(&ty);
            let checked = ml
                .typecheck_hl(&e)
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(checked, ty, "seed {seed}");
        }
        assert!(
            max_depth_seen >= 4,
            "deep profile never generated a depth-4 goal type (max {max_depth_seen})"
        );
    }

    #[test]
    fn deep_compound_types_still_get_boundaries() {
        // A depth-3 all-products type converts to nested int arrays, so the
        // recursive candidate construction must find glue for it.
        let ty = HlType::prod(
            HlType::prod(HlType::Bool, HlType::Bool),
            HlType::prod(HlType::Bool, HlType::Bool),
        );
        let cfg = GenConfig {
            boundary_bias: 100,
            ..GenConfig::default()
        };
        let mut gen = ProgramGen::with_config(11, cfg, SharedMemConversions::standard());
        let e = gen.gen_hl(&ty);
        assert!(
            format!("{e}").contains('⦇'),
            "bias 100 over a convertible deep type must cross a boundary: {e}"
        );
    }
}
