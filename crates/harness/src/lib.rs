//! # semint-harness
//!
//! The unified scenario engine over all three case studies.
//!
//! The paper instantiates its framework once per language pair; the
//! reproduction's case-study crates each expose the same pipeline shape
//! (generate → typecheck → compile → run → model-check) through the
//! [`CaseStudy`] trait in `semint-core`.  This crate supplies everything
//! generic on top of that trait:
//!
//! * [`source`] — the [`source::ScenarioSource`] abstraction over *where a
//!   sweep's workload comes from*: a seed range, a deterministic k-of-n
//!   [`source::Shard`] of one (sweeps compose across processes), or a
//!   persisted, replayable [`source::Corpus`] with its generation profile
//!   pinned;
//! * [`engine`] — a parallel batch runner with deterministic per-task seed
//!   splitting and a work-stealing thread pool (std threads + mutex deques,
//!   no external dependencies), producing the shared
//!   [`CaseReport`] aggregates; tasks are contiguous `--batch N` groups of
//!   same-case scenarios whose compiled artifacts execute through **one**
//!   reused machine ([`CaseStudy::execute_batch`]), digest-identically to
//!   per-scenario execution;
//! * [`shrink`] — greedy structural counterexample shrinking for scenarios
//!   that fail type safety or model checking;
//! * [`cases`] — the [`cases::AnyCase`] dispatcher that erases the three
//!   case studies into one task type so a single pool can interleave all of
//!   them;
//! * [`report`] — plain-text rendering of sweep reports for the `semint`
//!   CLI binary shipped by this crate (`run`, `check`, `sweep`, `bench`,
//!   `report` subcommands), plus the one on-disk form of a saved report:
//!   the report TSV, behind a settings header ([`report::BenchMeta`]) for
//!   `semint bench --save`, and the `bench-diff` gate over two bench saves;
//! * [`json`] — the hand-rolled JSON reader and escaping shared by the
//!   trace stream, the serve wire protocol and the serve journal;
//! * [`trace`] — Tier-B telemetry: the `--trace` JSONL event stream
//!   (dedicated writer thread behind a bounded channel) and the
//!   `--progress` live stderr line, both strictly observational — traced
//!   and untraced sweeps agree on digests and counters byte for byte;
//! * [`profile`] — `semint profile`'s order-insensitive aggregation of
//!   trace files: stage breakdowns, per-case opcode-class histograms,
//!   allocation stats, and the hottest seeds by steps;
//! * [`serve`] — the `semint serve` daemon: a bounded FIFO queue of sweep
//!   jobs, a supervisor that drives each job as a fleet of `semint sweep
//!   --shard` child processes (re-issuing the exact slice of any worker
//!   that crashes or wedges), and a rolling merge whose final digests are
//!   byte-identical to a one-shot sweep; the wire protocol is hand-rolled
//!   line-JSON over localhost TCP. With `--state-dir` the daemon is
//!   crash-safe: an fsync'd job journal plus checkpointed shard reports
//!   let `--resume` restore every job after a kill, and `semint chaos`
//!   drills exactly that with seed-derived fault schedules.
//!
//! ## Example
//!
//! ```
//! use semint_harness::cases::AnyCase;
//! use semint_harness::engine::{sweep_all, SweepConfig};
//! use semint_harness::source::SeedRange;
//!
//! let cases = AnyCase::all(false);
//! let source = SeedRange::new(0, 16).unwrap();
//! let cfg = SweepConfig { jobs: 2, ..SweepConfig::default() };
//! let report = sweep_all(&cases, &source, &cfg);
//! assert_eq!(report.scenarios(), 48); // 16 seeds × 3 case studies
//! assert_eq!(report.failure_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub mod engine;
pub mod json;
pub mod profile;
pub mod report;
pub mod serve;
pub mod shrink;
pub mod source;
pub mod trace;

pub use cases::{AnyCase, AnyCompiled};
pub use engine::{sweep_all, sweep_all_observed, sweep_case, SweepConfig};
pub use profile::{render_profile, TraceProfile};
pub use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario};
pub use semint_core::stats::{CaseReport, SweepReport};
pub use serve::{Daemon, ServeConfig};
pub use source::{Corpus, ScenarioSource, SeedRange, Shard};
pub use trace::SweepObserver;
