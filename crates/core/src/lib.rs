//! # semint-core
//!
//! Framework core for the *semantic soundness for language interoperability*
//! reproduction (Patterson, Mushtak, Wagner & Ahmed, PLDI 2022).
//!
//! The paper's framework has five steps (paper §2):
//!
//! 1. **Boundary syntax** — a language `A` embeds language-`B` code via a
//!    boundary form `⦇e⦈τ` (an AST node of each source language, since it
//!    carries the foreign expression).
//! 2. **Convertibility rules** — the designer declares `τA ∼ τB`, witnessed by
//!    target-level glue code `C_{τA↦τB}` and `C_{τB↦τA}` ([`convert`]).
//! 3. **Realizability models** — source types are interpreted as sets of
//!    *target* terms; the shared machinery (step indices, fuel, error codes)
//!    lives in [`fuel`], [`outcome`] and [`world`].
//! 4. **Soundness of conversions** — glue code maps `E⟦τA⟧` into `E⟦τB⟧`.
//! 5. **Soundness of the entire languages** — compatibility lemmas and the
//!    fundamental property, exercised in the per-case-study crates.
//!
//! This crate contains only the pieces shared by every case study: interned
//! variables, fuel/step budgets, machine outcomes and error codes, the
//! memoized convertibility derivation, the case-study and generation-profile
//! vocabulary of the sweep engine, and the step-index/world vocabulary used
//! by the executable logical relations.
//!
//! ## Example
//!
//! ```
//! use semint_core::convert::{ConversionPair, GlueCache};
//!
//! // A toy cache whose "glue code" is just a label.  The derivation runs
//! // once per type pair; refutations (`None`) are memoized too.
//! let cache: GlueCache<&str, &str, &str> = GlueCache::new();
//! let glue = cache.get_or_derive(&"bool", &"int", || Some(ConversionPair::new("id", "id")));
//! assert_eq!(glue.unwrap().a_to_b, "id");
//! assert!(cache.get_or_derive(&"bool", &"array", || None).is_none());
//! let again = cache.get_or_derive(&"bool", &"int", || unreachable!("memoized"));
//! assert!(again.is_some());
//! assert_eq!((cache.stats().hits, cache.stats().misses), (1, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod convert;
pub mod fuel;
pub mod outcome;
pub mod stats;
pub mod symbol;
pub mod telemetry;
pub mod world;

pub use case::{
    CaseStudy, CheckFailure, ConstructorClass, ConstructorWeights, GenProfile, Scenario,
};
pub use convert::{ConversionPair, ConversionScheme, GlueCache, GlueCacheStats};
pub use fuel::Fuel;
pub use outcome::{ErrorCode, Outcome};
pub use stats::{CaseReport, OutcomeClass, RunStats, ScenarioRecord, StageTimings, SweepReport};
pub use symbol::Var;
pub use telemetry::{OpClass, VmCounters};
pub use world::StepIndex;
