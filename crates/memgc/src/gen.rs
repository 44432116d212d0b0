//! Random generation of well-typed §5 programs.
//!
//! The last of the three case studies to gain a generator: type-directed,
//! seed-deterministic, and boundary-inserting, mirroring `sharedmem::gen`
//! and `affine_interop::gen` so the `semint-harness` engine can sweep all
//! three language pairs uniformly.
//!
//! The L3 side is generated *linearity-correctly by construction*: every
//! linear binder the generator introduces is consumed exactly once (either
//! used directly, or discarded through `drop` at a `Duplicable` type), so
//! generated programs always pass the algorithmic linear checker in
//! [`crate::typecheck`].
//!
//! The generator asks the rule set the caller passes in whether a
//! boundary's type pair is `derivable`.  A case study passes its own rule set,
//! so generation warms the glue cache its typechecker and compiler then
//! read, and each pair is derived once per sweep.  The probes are pure
//! yes/no queries that consume no randomness, so what is generated never
//! depends on the cache's state.

use crate::convert::MemGcConversions;
use crate::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semint_core::case::{ConstructorClass, ConstructorWeights, GenProfile};
use semint_core::convert::ConversionScheme;

/// Tuning knobs for the §5 generator.
#[derive(Debug, Clone, Copy)]
pub struct MemGcGenConfig {
    /// Maximum expression depth.
    pub max_depth: usize,
    /// Maximum goal-type depth.
    pub type_depth: usize,
    /// Probability (0–100) of crossing a boundary when a conversion exists.
    pub boundary_bias: u32,
    /// Constructor-class weights for goal-type generation.
    pub weights: ConstructorWeights,
}

impl Default for MemGcGenConfig {
    fn default() -> Self {
        MemGcGenConfig {
            max_depth: 4,
            type_depth: 2,
            boundary_bias: 35,
            weights: ConstructorWeights::STANDARD,
        }
    }
}

impl From<&GenProfile> for MemGcGenConfig {
    fn from(profile: &GenProfile) -> Self {
        MemGcGenConfig {
            max_depth: profile.max_depth,
            type_depth: profile.type_depth,
            boundary_bias: profile.boundary_bias,
            weights: profile.weights,
        }
    }
}

/// A deterministic, seed-driven generator of closed well-typed MiniML and L3
/// programs.
#[derive(Debug)]
pub struct MemGcProgramGen {
    rng: StdRng,
    config: MemGcGenConfig,
    conversions: MemGcConversions,
    fresh: u64,
}

impl MemGcProgramGen {
    /// A generator with a fresh standard rule set and default configuration.
    pub fn new(seed: u64) -> Self {
        Self::with_config(
            seed,
            MemGcGenConfig::default(),
            MemGcConversions::standard(),
        )
    }

    /// A generator with an explicit configuration that probes
    /// `conversions` at every boundary (pass the rule set of the system that
    /// will typecheck and compile the programs; see the module docs).
    pub fn with_config(seed: u64, config: MemGcGenConfig, conversions: MemGcConversions) -> Self {
        MemGcProgramGen {
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

    /// Generates a random monomorphic MiniML type of bounded size, drawing
    /// constructor classes from the configured weights so branch-heavy
    /// profiles reach their full type-depth budget.
    pub fn gen_ml_type(&mut self, depth: usize) -> PolyType {
        if depth == 0 {
            return match self.rng.gen_range(0..3) {
                0 => PolyType::Unit,
                1 => PolyType::Int,
                _ => PolyType::foreign(L3Type::Bool),
            };
        }
        match self.pick_class() {
            ConstructorClass::Leaf => {
                if self.rng.gen_bool(0.5) {
                    PolyType::Unit
                } else {
                    PolyType::Int
                }
            }
            ConstructorClass::Branch => match self.rng.gen_range(0..3) {
                0 => PolyType::prod(self.gen_ml_type(depth - 1), self.gen_ml_type(depth - 1)),
                1 => PolyType::sum(self.gen_ml_type(depth - 1), self.gen_ml_type(depth - 1)),
                _ => PolyType::fun(self.gen_ml_type(depth - 1), self.gen_ml_type(depth - 1)),
            },
            ConstructorClass::Wrap => PolyType::ref_(self.gen_ml_type(depth - 1)),
        }
    }

    /// A MiniML goal type at the configured type depth.
    pub fn gen_goal_ml_type(&mut self) -> PolyType {
        self.gen_ml_type(self.config.type_depth)
    }

    /// Generates a random L3 type of bounded size (goal types stay in the
    /// generator-friendly fragment: no bare capabilities or pointers).
    pub fn gen_l3_type(&mut self, depth: usize) -> L3Type {
        if depth == 0 {
            return if self.rng.gen_bool(0.5) {
                L3Type::Bool
            } else {
                L3Type::Unit
            };
        }
        match self.pick_class() {
            ConstructorClass::Leaf => {
                if self.rng.gen_bool(0.5) {
                    L3Type::Bool
                } else {
                    L3Type::Unit
                }
            }
            ConstructorClass::Branch => {
                L3Type::tensor(self.gen_l3_type(depth - 1), self.gen_l3_type(depth - 1))
            }
            ConstructorClass::Wrap => {
                if self.rng.gen_bool(0.5) {
                    L3Type::bang(self.gen_l3_type(depth - 1))
                } else {
                    L3Type::ref_like(self.gen_l3_type(depth - 1))
                }
            }
        }
    }

    fn pick_class(&mut self) -> ConstructorClass {
        let total = self.config.weights.total().max(1);
        self.config.weights.class_for(self.rng.gen_range(0..total))
    }

    /// Generates a closed, well-typed MiniML expression of type `ty`.
    pub fn gen_ml(&mut self, ty: &PolyType) -> PolyExpr {
        self.ml(ty, self.config.max_depth)
    }

    /// Generates a closed, well-typed L3 expression of type `ty`.
    pub fn gen_l3(&mut self, ty: &L3Type) -> L3Expr {
        self.l3(ty, self.config.max_depth)
    }

    fn boundary_here(&mut self) -> bool {
        self.rng.gen_range(0u32..100) < self.config.boundary_bias
    }

    fn ml(&mut self, ty: &PolyType, depth: usize) -> PolyExpr {
        // Possibly detour through L3 when a conversion exists.
        if depth > 0 && self.boundary_here() {
            if let Some(l3_ty) = self.convertible_l3_for(ty) {
                let inner = self.l3(&l3_ty, depth - 1);
                return PolyExpr::boundary(inner, ty.clone());
            }
        }
        if depth == 0 {
            return self.ml_leaf(ty);
        }
        match self.rng.gen_range(0..4) {
            // A canonical constructor, recursing on components.
            0 => self.ml_constructor(ty, depth),
            // Projection from a pair containing the goal type.
            1 => {
                if self.rng.gen_bool(0.5) {
                    PolyExpr::fst(PolyExpr::pair(self.ml(ty, depth - 1), PolyExpr::unit()))
                } else {
                    PolyExpr::snd(PolyExpr::pair(PolyExpr::int(0), self.ml(ty, depth - 1)))
                }
            }
            // Immediate application of a lambda.
            2 => {
                let arg_ty = if self.rng.gen_bool(0.5) {
                    PolyType::Int
                } else {
                    PolyType::Unit
                };
                let name = self.fresh_name("m");
                PolyExpr::app(
                    PolyExpr::lam(name.as_str(), arg_ty.clone(), self.ml(ty, depth - 1)),
                    self.ml(&arg_ty, depth - 1),
                )
            }
            // Type-specific deepening: arithmetic for int, a read-through
            // reference cell otherwise.
            _ => match ty {
                PolyType::Int => PolyExpr::add(
                    self.ml(&PolyType::Int, depth - 1),
                    self.ml(&PolyType::Int, depth - 1),
                ),
                _ => PolyExpr::deref(PolyExpr::ref_(self.ml(ty, depth - 1))),
            },
        }
    }

    fn ml_leaf(&mut self, ty: &PolyType) -> PolyExpr {
        self.ml_constructor(ty, 1)
    }

    fn ml_constructor(&mut self, ty: &PolyType, depth: usize) -> PolyExpr {
        let d = depth.saturating_sub(1);
        match ty {
            PolyType::Unit => PolyExpr::unit(),
            PolyType::Int => PolyExpr::int(self.rng.gen_range(-20..20)),
            PolyType::Prod(a, b) => PolyExpr::pair(self.ml(a, d), self.ml(b, d)),
            PolyType::Sum(a, b) => {
                if self.rng.gen_bool(0.5) {
                    PolyExpr::inl(self.ml(a, d), ty.clone())
                } else {
                    PolyExpr::inr(self.ml(b, d), ty.clone())
                }
            }
            PolyType::Fun(a, b) => {
                let name = self.fresh_name("f");
                let _ = a;
                PolyExpr::lam(name.as_str(), (**a).clone(), self.ml(b, d))
            }
            PolyType::Ref(a) => PolyExpr::ref_(self.ml(a, d)),
            // Foreign types have no MiniML introduction forms: the only
            // constructor is a boundary around an L3 value (the free
            // `Duplicable` embedding). Goal types only ever contain
            // `⟨bool⟩`, so the embedded term is a closed boolean. The rule
            // set is asked like at every other boundary, so the glue is
            // derived into the shared cache here, not later by the checker.
            PolyType::Foreign(l3) => {
                let inner = self
                    .convertible_l3_for(ty)
                    .unwrap_or_else(|| (**l3).clone());
                PolyExpr::boundary(self.l3(&inner, d), ty.clone())
            }
            // Not produced by `gen_ml_type`; keep totality for callers that
            // hand-build types.
            PolyType::Forall(_, _) | PolyType::Var(_) => PolyExpr::unit(),
        }
    }

    fn l3(&mut self, ty: &L3Type, depth: usize) -> L3Expr {
        // Possibly detour through MiniML when a conversion exists.
        if depth > 0 && self.boundary_here() {
            if let Some(ml_ty) = self.convertible_ml_for(ty) {
                let inner = self.ml(&ml_ty, depth - 1);
                return L3Expr::boundary(inner, ty.clone());
            }
        }
        if depth == 0 {
            return self.l3_leaf(ty);
        }
        match ty {
            L3Type::Bool => match self.rng.gen_range(0..4) {
                0 => L3Expr::bool_(self.rng.gen_bool(0.5)),
                1 => L3Expr::if_(
                    self.l3(&L3Type::Bool, depth - 1),
                    self.l3(&L3Type::Bool, depth - 1),
                    self.l3(&L3Type::Bool, depth - 1),
                ),
                // Round-trip through a manual cell: new then free.
                2 => L3Expr::free(L3Expr::new(self.l3(&L3Type::Bool, depth - 1))),
                _ => self.l3_leaf(ty),
            },
            L3Type::Unit => match self.rng.gen_range(0..3) {
                0 => L3Expr::unit(),
                // Discard a duplicable value.
                1 => L3Expr::drop_(self.l3(&L3Type::Bool, depth - 1)),
                _ => L3Expr::let_unit(L3Expr::unit(), self.l3(&L3Type::Unit, depth - 1)),
            },
            L3Type::Tensor(a, b) => L3Expr::pair(self.l3(a, depth - 1), self.l3(b, depth - 1)),
            L3Type::Bang(inner) => L3Expr::bang(self.l3(inner, depth - 1)),
            _ if crate::typecheck::ref_like_payload(ty).is_some() => {
                let payload = crate::typecheck::ref_like_payload(ty).expect("just matched");
                L3Expr::new(self.l3(&payload, depth - 1))
            }
            // Linear arrows and bare capability/pointer/quantified types are
            // not goal types; produce the canonical leaf.
            _ => self.l3_leaf(ty),
        }
    }

    fn l3_leaf(&mut self, ty: &L3Type) -> L3Expr {
        match ty {
            L3Type::Unit => L3Expr::unit(),
            L3Type::Bool => L3Expr::bool_(self.rng.gen_bool(0.5)),
            L3Type::Tensor(a, b) => L3Expr::pair(self.l3_leaf(a), self.l3_leaf(b)),
            L3Type::Bang(inner) => L3Expr::bang(self.l3_leaf(inner)),
            L3Type::Lolli(a, b) => self.l3_lambda(a, b, 0),
            _ => match crate::typecheck::ref_like_payload(ty) {
                Some(payload) => L3Expr::new(self.l3_leaf(&payload)),
                // Bare caps/pointers/quantifiers have no closed inhabitants
                // in the generator fragment; `new` produces the nearest
                // well-typed package shape (callers never request these).
                None => L3Expr::unit(),
            },
        }
    }

    /// A closed linear function `dom ⊸ cod` whose binder is consumed exactly
    /// once: the identity when `dom == cod`, otherwise the binder is dropped
    /// (requires `dom` to be `Duplicable`, which holds for every domain the
    /// generator requests).
    fn l3_lambda(&mut self, dom: &L3Type, cod: &L3Type, depth: usize) -> L3Expr {
        let name = self.fresh_name("z");
        let body = if dom == cod && self.rng.gen_bool(0.5) {
            L3Expr::var(name.as_str())
        } else if dom.is_duplicable() {
            L3Expr::let_unit(
                L3Expr::drop_(L3Expr::var(name.as_str())),
                self.l3(cod, depth),
            )
        } else {
            // Non-duplicable domain: fall back to the identity, which is
            // only well-typed when dom == cod; the generator never requests
            // other shapes.
            L3Expr::var(name.as_str())
        };
        L3Expr::lam(name.as_str(), dom.clone(), body)
    }

    /// Picks an L3 type convertible with `ty`, if the §5 rules have one.
    fn convertible_l3_for(&mut self, ty: &PolyType) -> Option<L3Type> {
        let candidate = match ty {
            PolyType::Unit => Some(L3Type::Unit),
            PolyType::Int => Some(L3Type::Bool),
            PolyType::Foreign(inner) if inner.is_duplicable() => Some((**inner).clone()),
            PolyType::Ref(inner) => self.convertible_l3_for(inner).map(L3Type::ref_like),
            PolyType::Prod(a, b) => {
                let ca = self.convertible_l3_for(a)?;
                let cb = self.convertible_l3_for(b)?;
                Some(L3Type::tensor(ca, cb))
            }
            PolyType::Fun(a, b) => {
                let ca = self.convertible_l3_for(a)?;
                let cb = self.convertible_l3_for(b)?;
                Some(L3Type::bang(L3Type::lolli(L3Type::bang(ca), cb)))
            }
            _ => None,
        }?;
        self.conversions
            .derivable(ty, &candidate)
            .then_some(candidate)
    }

    /// Picks a MiniML type convertible with `ty`, if the §5 rules have one.
    fn convertible_ml_for(&mut self, ty: &L3Type) -> Option<PolyType> {
        let candidate = match ty {
            L3Type::Unit => Some(PolyType::Unit),
            L3Type::Bool => Some(PolyType::Int),
            L3Type::Tensor(a, b) => {
                let ca = self.convertible_ml_for(a)?;
                let cb = self.convertible_ml_for(b)?;
                Some(PolyType::prod(ca, cb))
            }
            _ => match crate::typecheck::ref_like_payload(ty) {
                Some(payload) => self.convertible_ml_for(&payload).map(PolyType::ref_),
                None => None,
            },
        }?;
        self.conversions
            .derivable(&candidate, ty)
            .then_some(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilang::MemGcMultiLang;

    #[test]
    fn generated_ml_programs_typecheck_at_the_requested_type() {
        let ml = MemGcMultiLang::new();
        for seed in 0..60 {
            let mut gen = MemGcProgramGen::new(seed);
            let ty = gen.gen_ml_type(2);
            let e = gen.gen_ml(&ty);
            let checked = ml.typecheck_ml(&e).unwrap_or_else(|err| {
                panic!("seed {seed}: generated program {e} does not typecheck: {err}")
            });
            assert_eq!(checked, ty, "seed {seed}");
        }
    }

    #[test]
    fn generated_l3_programs_typecheck_at_the_requested_type() {
        let ml = MemGcMultiLang::new();
        for seed in 0..60 {
            let mut gen = MemGcProgramGen::new(seed);
            let ty = gen.gen_l3_type(2);
            let e = gen.gen_l3(&ty);
            let checked = ml.typecheck_l3(&e).unwrap_or_else(|err| {
                panic!("seed {seed}: generated program {e} does not typecheck: {err}")
            });
            assert_eq!(checked, ty, "seed {seed}");
        }
    }

    #[test]
    fn generated_programs_run_safely() {
        let ml = MemGcMultiLang::new();
        for seed in 0..40 {
            let mut gen = MemGcProgramGen::new(seed);
            let ty = gen.gen_ml_type(2);
            let e = gen.gen_ml(&ty);
            let r = ml
                .run_ml(&e)
                .unwrap_or_else(|err| panic!("seed {seed}: {err}"));
            assert!(
                r.halt.is_safe(),
                "seed {seed}: unsafe halt {:?} for {e}",
                r.halt
            );
        }
    }

    #[test]
    fn generator_is_deterministic_in_its_seed() {
        let mut a = MemGcProgramGen::new(9);
        let mut b = MemGcProgramGen::new(9);
        let ta = a.gen_ml_type(2);
        let tb = b.gen_ml_type(2);
        assert_eq!(ta, tb);
        assert_eq!(a.gen_ml(&ta), b.gen_ml(&tb));
    }

    /// Foreign types force a boundary even at bias 0 (they have no MiniML
    /// introduction forms), so the bias-0 test skips types containing them.
    fn has_foreign(ty: &PolyType) -> bool {
        match ty {
            PolyType::Foreign(_) => true,
            PolyType::Prod(a, b) | PolyType::Sum(a, b) | PolyType::Fun(a, b) => {
                has_foreign(a) || has_foreign(b)
            }
            PolyType::Ref(a) | PolyType::Forall(_, a) => has_foreign(a),
            PolyType::Unit | PolyType::Int | PolyType::Var(_) => false,
        }
    }

    fn ml_type_depth(ty: &PolyType) -> usize {
        match ty {
            PolyType::Unit | PolyType::Int | PolyType::Var(_) => 0,
            PolyType::Prod(a, b) | PolyType::Sum(a, b) | PolyType::Fun(a, b) => {
                1 + ml_type_depth(a).max(ml_type_depth(b))
            }
            PolyType::Ref(a) | PolyType::Forall(_, a) => 1 + ml_type_depth(a),
            PolyType::Foreign(_) => 0,
        }
    }

    #[test]
    fn deep_profile_types_reach_depth_four_and_programs_typecheck() {
        use semint_core::case::GenProfile;
        let sys = MemGcMultiLang::new();
        let cfg = MemGcGenConfig::from(&GenProfile::deep());
        let mut max_depth_seen = 0;
        for seed in 0..40 {
            let mut gen = MemGcProgramGen::with_config(seed, cfg, MemGcConversions::standard());
            let ty = gen.gen_goal_ml_type();
            max_depth_seen = max_depth_seen.max(ml_type_depth(&ty));
            let e = gen.gen_ml(&ty);
            let checked = sys
                .typecheck_ml(&e)
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(checked, ty, "seed {seed}");
        }
        assert!(
            max_depth_seen >= 4,
            "deep profile never generated a depth-4 goal type (max {max_depth_seen})"
        );
    }

    #[test]
    fn boundary_bias_zero_generates_single_language_programs() {
        let cfg = MemGcGenConfig {
            max_depth: 4,
            boundary_bias: 0,
            ..MemGcGenConfig::default()
        };
        for seed in 0..20 {
            let mut gen = MemGcProgramGen::with_config(seed, cfg, MemGcConversions::standard());
            let ty = gen.gen_ml_type(1);
            if has_foreign(&ty) {
                continue;
            }
            let e = gen.gen_ml(&ty);
            assert!(!format!("{e}").contains('⦇'), "no boundaries expected: {e}");
        }
    }
}
