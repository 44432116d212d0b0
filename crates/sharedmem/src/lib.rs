//! # sharedmem
//!
//! Case study 1 of the paper (§3): **shared-memory interoperability** between
//! RefHL and RefLL, compiled to StackLang.
//!
//! The crate provides
//!
//! * [`convert`] — the convertibility rules of Fig. 4 together with their
//!   StackLang glue code, plus the two alternative strategies the paper's
//!   Discussion describes (copy-convert and per-access conversion), used by
//!   the benchmark ablations;
//! * [`harness`] — [`SharedMemCase`], the case study as one object: it owns
//!   a rule set, type checks a multi-language program (both host languages,
//!   boundaries), compiles it with the registered glue code, runs it on the
//!   StackLang machine, and implements the engine's `CaseStudy` trait;
//! * [`multilang`] — the closed programs and source types of either host
//!   language;
//! * [`model`] — an executable approximation of the Fig. 5 realizability
//!   model: step-indexed worlds over heap typings, value and expression
//!   relations for both languages' types, and checkers for Convertibility
//!   Soundness (Lemma 3.1) and type safety (Theorems 3.3/3.4);
//! * [`gen`] — random well-typed multi-language program generation used by
//!   the property-test suites (the operational content of the Fundamental
//!   Property).
//!
//! ```
//! use sharedmem::{SharedMemCase, SmProgram};
//! use reflang::syntax::{HlExpr, HlType, LlExpr};
//! use semint_core::Fuel;
//! use stacklang::Value;
//!
//! // ⦇ 1 + 1 ⦈bool : RefLL arithmetic used as a RefHL boolean (non-zero = false).
//! let prog = HlExpr::boundary(LlExpr::add(LlExpr::int(1), LlExpr::int(1)), HlType::Bool);
//! let case = SharedMemCase::standard();
//! let out = case.run(&SmProgram::Hl(prog), Fuel::default()).unwrap();
//! assert_eq!(out.outcome.value(), Some(Value::Num(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod gen;
pub mod harness;
pub mod model;
pub mod multilang;

pub use convert::{RefStrategy, SharedMemConversions};
pub use harness::{SharedMemCase, SmProgram};
