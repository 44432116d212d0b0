//! # memgc-interop
//!
//! Case study 3 of the paper (§5): **memory management & polymorphism**.
//! MiniML (garbage-collected references, type polymorphism, foreign types
//! `⟨𝜏⟩`) interoperates with **L3** (linear capabilities `cap ζ 𝜏`, aliasable
//! pointers `ptr ζ`, manual memory), both compiled to LCVM extended with
//! `alloc`/`free`/`gcmov`/`callgc` (Fig. 12).
//!
//! The two headline results reproduced here:
//!
//! * **moving memory without copying** — because an L3 capability certifies
//!   unique ownership, the conversion `REF 𝜏 ∼ ref τ` can convert the
//!   contents *in place* and hand the very same location to the garbage
//!   collector with `gcmov`; the other direction must copy into a fresh
//!   manual cell (§5 conversions);
//! * **polymorphism via interoperability** — L3 values of `Duplicable` type
//!   can inhabit MiniML's foreign type `⟨𝜏⟩` with no runtime cost, so MiniML
//!   type abstractions can be instantiated at foreign types and L3 can use
//!   MiniML generics (paper examples (1) and (2), plus Church-boolean
//!   conversions).
//!
//! Crate layout mirrors the other case studies: [`syntax`], [`typecheck`],
//! [`compile`] (Fig. 13), [`convert`], [`multilang`] (the closed programs),
//! [`model`] (Fig. 14, executable approximation), and [`harness`], whose
//! [`MemGcCase`] owns the rule set and typechecks, compiles and runs
//! programs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod convert;
pub mod gen;
pub mod harness;
pub mod model;
pub mod multilang;
pub mod syntax;
pub mod typecheck;

pub use harness::{MemGcCase, MgProgram};
pub use syntax::{L3Expr, L3Type, PolyExpr, PolyType};
