//! # stacklang
//!
//! The untyped stack-based target language of the paper's first case study
//! (Fig. 2), inspired by typed concatenative calculi.  Programs are sequences
//! of instructions operating over a configuration `⟨H; S; P⟩` of a heap, a
//! stack of values, and the remaining program.
//!
//! Values are numbers, suspended computations (`thunk P`), heap locations and
//! arrays of values.  `lam x. P` is an *instruction* (not a value) that pops
//! its arguments and binds them in `P`, à la call-by-push-value;
//! `thunk`/`call` suspend and resume computation.
//!
//! The figure states `lam` as substitution.  This crate runs it as an
//! environment machine over shared code instead: nested instruction blocks
//! are frozen `Arc<[Instr]>` ([`Block`]), `lam` binds its arguments as
//! locals of the frame that runs its body, and a thunk pushed at run time
//! is a [`Closure`] over the bindings in scope, kept in a persistent
//! [`Env`].  On closed programs every step retires the instruction
//! substitution would, with the same stack and heap, and a closure renders
//! as the substituted thunk (see [`machine`]).
//!
//! Any instruction whose stack precondition is not met steps to `fail Type`;
//! out-of-bounds indexing steps to `fail Idx`; conversion glue code emits
//! `fail Conv`.  The semantic type-soundness theorems of the paper guarantee
//! that programs compiled from well-typed multi-language sources never reach
//! `fail Type`.
//!
//! ```
//! use stacklang::{Instr, Program, Machine, Value};
//! use semint_core::Fuel;
//!
//! // (2 + 3) via the stack machine.
//! let prog = Program::from(vec![
//!     Instr::push_num(2),
//!     Instr::push_num(3),
//!     Instr::Add,
//! ]);
//! let result = Machine::run_program(prog, Fuel::default());
//! assert_eq!(result.outcome.value(), Some(Value::Num(5)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod heap;
pub mod instr;
pub mod machine;
pub mod value;

pub use heap::{Heap, Loc};
pub use instr::{Block, Instr, Operand, Program};
pub use machine::{Machine, RunResult, StackState};
pub use value::{Closure, Env, Value};

pub use semint_core::{ErrorCode, Fuel, Outcome, Var};
