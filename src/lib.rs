//! # semint — semantic soundness for language interoperability, executably
//!
//! This is the facade crate of the `semint` workspace, a Rust reproduction of
//! *"Semantic Soundness for Language Interoperability"* (Patterson, Mushtak,
//! Wagner, Ahmed — PLDI 2022).  It re-exports the workspace crates under one
//! roof so that examples, integration tests and downstream users can depend
//! on a single package:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the framework vocabulary: convertibility registries, boundaries, fuel, step indices, the [`core::case::CaseStudy`] trait and shared sweep statistics |
//! | [`stacklang`] | the untyped stack-machine target of case study 1 (Fig. 2) |
//! | [`lcvm`] | the Scheme-like target of case studies 2–3, with GC'd + manual memory and the phantom-flag augmented semantics |
//! | [`reflang`] | RefHL and RefLL, their type systems and compilers (Fig. 1, 3) |
//! | [`sharedmem`] | case study 1: shared-memory interoperability, Fig. 4 conversions, Fig. 5 executable model |
//! | [`affine`] | case study 2: Affi ⊸ MiniML, thunk guards, Fig. 9 conversions, Fig. 10 phantom-flag model |
//! | [`memgc`] | case study 3: MiniML ⊸ L3, `gcmov` ownership transfer, polymorphism over foreign types, Fig. 14 model |
//! | [`harness`] | the unified scenario engine: a parallel, work-stealing batch runner with counterexample shrinking over every case study, and the `semint` CLI |
//!
//! ## The `CaseStudy` abstraction and the `semint` CLI
//!
//! Each case-study crate implements [`core::case::CaseStudy`] (associated
//! `Program`/`Ty`/`Report`/`Compiled` types; `generate`, `typecheck`,
//! `compile`, `execute_batch`, `model_check_compiled`), and the [`harness`]
//! engine drives any implementation — including all three at once,
//! interleaved on one thread pool — typechecking and compiling each scenario
//! exactly once and threading the compiled artifact through every consuming
//! stage:
//!
//! ```
//! use semint::harness::cases::AnyCase;
//! use semint::harness::engine::{sweep_all, SweepConfig};
//! use semint::harness::source::SeedRange;
//!
//! let report = sweep_all(
//!     &AnyCase::all(false),
//!     &SeedRange::new(0, 8).unwrap(),
//!     &SweepConfig { jobs: 2, ..SweepConfig::default() },
//! );
//! assert_eq!(report.failure_count(), 0);
//! ```
//!
//! Workloads are supplied by a [`harness::source::ScenarioSource`] — a seed
//! range, a deterministic k-of-n shard of one, or a persisted corpus — and
//! shaped by a [`core::case::GenProfile`] (presets `smoke`, `default`,
//! `deep`, `boundary-heavy`).  The same engine backs the `semint` binary:
//!
//! ```text
//! semint sweep --seeds 0..200 --jobs 4          # parallel sweep, aggregate report
//! semint sweep --profile deep                   # deep source types (glue on the hot path)
//! semint sweep --profile deep --batch 8         # 8 artifacts per reused machine, same digests
//! semint sweep --seeds 0..200 --shard 0/2       # half the range; digests merge via report
//! semint sweep --corpus-save pop.corpus         # persist + replay scenario populations
//! semint bench --profile deep --save b.tsv      # per-stage timing mode (E9/E11), saved as TSV
//! semint bench-diff BENCH_8.tsv b.tsv           # digest/counter drift + throughput gate
//! semint check --case sharedmem --seeds 0..50   # Lemma 3.1 catalogue + model checks
//! semint run --case memgc --seed 7              # one scenario, verbosely
//! semint sweep --seeds 0..50 --broken           # sabotaged rule → shrunk counterexamples
//! ```
//!
//! ## Quick start
//!
//! ```
//! use semint::sharedmem::{convert::SharedMemConversions, multilang::MultiLang};
//! use semint::reflang::syntax::{HlExpr, HlType, LlExpr};
//!
//! // A RefHL program that embeds RefLL arithmetic as a boolean:
//! //     if ⦇ 1 + 1 ⦈bool then false else true
//! let prog = HlExpr::if_(
//!     HlExpr::boundary(LlExpr::add(LlExpr::int(1), LlExpr::int(1)), HlType::Bool),
//!     HlExpr::bool_(false),
//!     HlExpr::bool_(true),
//! );
//! let system = MultiLang::new(SharedMemConversions::standard());
//! let result = system.run_hl(&prog).unwrap();
//! assert!(result.outcome.is_safe());
//! ```
//!
//! See the `examples/` directory for one runnable scenario per case study and
//! `EXPERIMENTS.md` for the benchmark harness that reproduces the paper's
//! performance trade-off discussion.

#![forbid(unsafe_code)]

pub use affine_interop as affine;
pub use lcvm;
pub use memgc_interop as memgc;
pub use reflang;
pub use semint_core as core;
pub use semint_harness as harness;
pub use sharedmem;
pub use stacklang;
