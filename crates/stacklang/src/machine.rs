//! The StackLang abstract machine: configurations `⟨H; S; P⟩` and their
//! small-step operational semantics (Fig. 2), run as an environment machine
//! over shared code.
//!
//! The figure's remaining program `P` is a stack of frames.  A frame is the
//! code it runs (the top-level program, adopted without a copy, or a shared
//! [`Block`]), the index of its next instruction, and the bindings its
//! variables are read from.  Entering an `if0` branch, a `lam` body or a
//! called thunk pushes a frame, which costs a reference-count bump; no step
//! copies or rewrites instructions, and a block entered as the last
//! instruction of its frame replaces that frame.
//!
//! Where the figure substitutes the popped values into `lam`'s body, the
//! machine pushes them on a stack of locals that the body's frame (and the
//! branches and bodies nested in it) read; they are dropped when the last
//! frame that can see them finishes.  A thunk literal pushed at run time
//! closes over the bindings in scope: the locals are copied into a
//! persistent [`Env`] shared with the closure's own (see [`crate::value`]),
//! and `call` runs the thunk's code under that environment alone.  For
//! closed programs this retires, step for step, the instruction
//! substitution would retire, with the same stack and heap; a differential
//! test in the repository's root package (`tests/stacklang_reference.rs`)
//! checks that against the literal substitution machine.
//!
//! Every reduction rule of the figure is implemented by [`Machine::step`];
//! instructions whose stack precondition is not met step to `fail Type`.  The
//! machine is driven by [`Machine::run`] under a [`Fuel`] budget so that the
//! executable logical relation (crate `sharedmem`) can realise the paper's
//! step-indexed expression relation directly.

use crate::heap::Heap;
use crate::instr::{Block, Instr, Operand, Program};
use crate::value::{Env, Value};
use semint_core::{ErrorCode, Fuel, OpClass, Outcome, Var, VmCounters};
use std::fmt;

/// The stack component of a configuration: either a stack of values or the
/// distinguished `Fail c` stack that aborts the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackState {
    /// An ordinary stack of values; the last element is the top.
    Values(Vec<Value>),
    /// The failed stack `Fail c`.
    Fail(ErrorCode),
}

impl StackState {
    /// An empty ordinary stack.
    pub fn empty() -> StackState {
        StackState::Values(Vec::new())
    }

    /// The values, if the stack has not failed.
    pub fn values(&self) -> Option<&[Value]> {
        match self {
            StackState::Values(vs) => Some(vs),
            StackState::Fail(_) => None,
        }
    }
}

impl fmt::Display for StackState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackState::Values(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            StackState::Fail(c) => write!(f, "Fail {c}"),
        }
    }
}

/// What a single machine step produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepStatus {
    /// The machine took a step and may continue.
    Continue,
    /// The program is empty (or the stack failed): the machine is terminal.
    Done,
}

/// The result of running a machine to completion (or until fuel ran out).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The final outcome: a value (top of stack), a well-defined failure, or
    /// out-of-fuel.
    pub outcome: Outcome<Value>,
    /// The final heap.
    pub heap: Heap,
    /// The final stack.
    pub stack: StackState,
    /// How many small steps were taken.
    pub steps: u64,
    /// Deterministic per-run telemetry: instructions retired by opcode
    /// class, allocation totals, and high-water marks.
    pub counters: VmCounters,
}

/// One activation of a block: the figure's remaining program is the
/// concatenation of every frame's unrun suffix, top frame first.
#[derive(Debug, Clone, PartialEq)]
struct Frame {
    /// The block being run; `None` for the machine's top-level program.
    code: Option<Block>,
    /// Index of the next instruction; always below the code's length.
    pc: usize,
    /// The environment of the closure this code was called from (empty for
    /// the top-level program).
    env: Env,
    /// The `lam` bindings in scope since that call are the machine's
    /// `locals[lo..hi]`, innermost last; they shadow `env`.
    lo: usize,
    hi: usize,
}

/// What an instruction asks of the control after it has run.
enum Next {
    /// Carry on with the current frame's next instruction.
    Continue,
    /// Run an `if0` branch, or a `lam` body whose bindings were just pushed
    /// on the locals, inside the current scope.
    Nested(Block),
    /// Run a called closure's code under the closure's environment.
    Call(Block, Env),
    /// Abort with `fail c`.
    Fail(ErrorCode),
}

/// The bindings a frame's code sees: its `lam` locals over its closure
/// environment.
struct Scope<'a> {
    locals: &'a [(Var, Value)],
    env: &'a Env,
}

impl Scope<'_> {
    fn lookup(&self, x: &Var) -> Option<&Value> {
        match self.locals.iter().rev().find(|(y, _)| y == x) {
            Some((_, v)) => Some(v),
            None => self.env.lookup(x),
        }
    }

    /// The scope as one persistent environment, for a thunk to close over.
    fn capture(&self) -> Env {
        self.locals.iter().fold(self.env.clone(), |env, (x, v)| {
            env.bind(x.clone(), v.clone())
        })
    }

    /// The value `push op` pushes, or `None` if the operand mentions an
    /// unbound variable.
    fn resolve(&self, op: &Operand) -> Option<Value> {
        match op {
            Operand::Lit(v @ (Value::Num(_) | Value::Loc(_))) => Some(v.clone()),
            Operand::Lit(v) => Some(v.captured(&self.capture())),
            Operand::Var(x) => self.lookup(x).cloned(),
            Operand::Array(ops) => {
                let mut closed = true;
                let elems = ops
                    .iter()
                    .map(|o| {
                        self.resolve(o).unwrap_or_else(|| {
                            closed = false;
                            Value::Num(0)
                        })
                    })
                    .collect();
                closed.then_some(Value::Array(elems))
            }
        }
    }
}

/// A StackLang machine configuration `⟨H; S; P⟩`.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    heap: Heap,
    stack: StackState,
    /// The top-level program, run in place: adopting it copies nothing.
    program: Vec<Instr>,
    /// Activations, innermost last; no frame is ever exhausted.
    frames: Vec<Frame>,
    /// The `lam` bindings of the running frames, as a stack: its length is
    /// always the top frame's `hi`.  Binding here instead of in an [`Env`]
    /// allocates nothing; a thunk pushed in their scope copies them into
    /// the environment it closes over.
    locals: Vec<(Var, Value)>,
    steps: u64,
    counters: VmCounters,
}

impl Machine {
    /// A machine about to run `program` on an empty stack and empty heap.
    pub fn new(program: Program) -> Machine {
        Machine::with_state(Heap::new(), StackState::empty(), program)
    }

    /// A machine with explicit initial heap and stack.
    pub fn with_state(heap: Heap, stack: StackState, program: Program) -> Machine {
        let mut machine = Machine {
            heap,
            stack,
            program: Vec::new(),
            frames: Vec::new(),
            locals: Vec::new(),
            steps: 0,
            counters: VmCounters::new(),
        };
        machine.enter_program(program);
        machine
    }

    /// Rearms the machine to run `program` on an empty stack and empty
    /// heap, keeping the frame and binding buffers' capacity, so a batch
    /// of compiled artifacts shares one machine instead of constructing one
    /// per program.  (Each run's final heap and stack move into its
    /// [`RunResult`], so those start over; see [`Machine::run_mut`].)
    ///
    /// A reset machine is observationally identical to [`Machine::new`] on
    /// the same program — same outcome, same final heap and stack, same step
    /// count — which the unit tests below and the `batched_execution`
    /// integration suite assert.
    pub fn reset(&mut self, program: Program) {
        self.heap.reset();
        match &mut self.stack {
            StackState::Values(vs) => vs.clear(),
            failed => *failed = StackState::empty(),
        }
        self.frames.clear();
        self.locals.clear();
        self.enter_program(program);
        self.steps = 0;
        self.counters = VmCounters::new();
    }

    /// The current heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The current stack.
    pub fn stack(&self) -> &StackState {
        &self.stack
    }

    /// Number of steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// True if the machine can take no further step.
    pub fn is_terminal(&self) -> bool {
        self.frames.is_empty() || matches!(self.stack, StackState::Fail(_))
    }

    /// Adopts `program` as the machine's only frame; an empty program takes
    /// no step, so it gets no frame.
    fn enter_program(&mut self, program: Program) {
        self.program = program.into_instrs();
        if !self.program.is_empty() {
            self.frames.push(Frame {
                code: None,
                pc: 0,
                env: Env::empty(),
                lo: 0,
                hi: 0,
            });
        }
    }

    /// Drops the bindings no remaining frame can see.
    fn settle_locals(&mut self) {
        let hi = self.frames.last().map_or(0, |f| f.hi);
        self.locals.truncate(hi);
    }

    /// Performs one small step (one reduction of Fig. 2).
    ///
    /// Returns [`StepStatus::Done`] if the machine was already terminal.
    pub fn step(&mut self) -> StepStatus {
        let StackState::Values(vs) = &mut self.stack else {
            return StepStatus::Done;
        };
        let Some(frame) = self.frames.last_mut() else {
            return StepStatus::Done;
        };
        let code = frame.code.as_deref().unwrap_or(&self.program);
        let pc = frame.pc;
        frame.pc += 1;
        let instr = &code[pc];
        self.steps += 1;
        self.counters.retire(classify_instr(instr));
        let next = match instr {
            Instr::Push(op) => {
                let scope = Scope {
                    locals: &self.locals[frame.lo..frame.hi],
                    env: &frame.env,
                };
                match scope.resolve(op) {
                    Some(v) => {
                        vs.push(v);
                        Next::Continue
                    }
                    // A variable with no binding reached execution: the
                    // program was not closed. This is a dynamic type error.
                    None => Next::Fail(ErrorCode::Type),
                }
            }
            Instr::Add => match (vs.pop(), vs.pop()) {
                (Some(Value::Num(n1)), Some(Value::Num(n))) => {
                    vs.push(Value::Num(n.wrapping_add(n1)));
                    Next::Continue
                }
                _ => Next::Fail(ErrorCode::Type),
            },
            Instr::Less => match (vs.pop(), vs.pop()) {
                (Some(Value::Num(n1)), Some(Value::Num(n))) => {
                    vs.push(Value::Num(if n < n1 { 0 } else { 1 }));
                    Next::Continue
                }
                _ => Next::Fail(ErrorCode::Type),
            },
            Instr::If0(p1, p2) => match vs.pop() {
                Some(Value::Num(n)) => Next::Nested(if n == 0 { p1 } else { p2 }.clone()),
                _ => Next::Fail(ErrorCode::Type),
            },
            Instr::Lam(xs, body) => {
                // Pop one value per binder; the leftmost binder receives the
                // top of the stack (Fig. 3 compiles pairs with
                // `lam x2,x1. …` so that x2 is the most recently pushed).
                // Binding the leftmost binder last makes it the innermost,
                // so with a repeated name it wins, as the figure's
                // left-to-right substitutions do.
                match vs.len().checked_sub(xs.len()) {
                    // Nothing can read the bindings of an empty body.
                    Some(base) if body.is_empty() => {
                        vs.truncate(base);
                        Next::Continue
                    }
                    Some(base) => {
                        match &xs[..] {
                            [x] => {
                                let v = vs.pop().expect("one value per binder");
                                self.locals.push((x.clone(), v));
                            }
                            _ => self
                                .locals
                                .extend(xs.iter().rev().cloned().zip(vs.drain(base..))),
                        }
                        Next::Nested(body.clone())
                    }
                    None => Next::Fail(ErrorCode::Type),
                }
            }
            Instr::Call => match vs.pop() {
                Some(Value::Thunk(c)) => {
                    let (code, env) = c.into_parts();
                    Next::Call(code, env)
                }
                _ => Next::Fail(ErrorCode::Type),
            },
            Instr::Idx => match (vs.pop(), vs.pop()) {
                (Some(Value::Num(n)), Some(Value::Array(elems))) => {
                    if n >= 0 && (n as usize) < elems.len() {
                        vs.push(elems[n as usize].clone());
                        Next::Continue
                    } else {
                        Next::Fail(ErrorCode::Idx)
                    }
                }
                _ => Next::Fail(ErrorCode::Type),
            },
            Instr::Len => match vs.pop() {
                Some(Value::Array(elems)) => {
                    vs.push(Value::Num(elems.len() as i64));
                    Next::Continue
                }
                _ => Next::Fail(ErrorCode::Type),
            },
            Instr::Alloc => match vs.pop() {
                Some(v) => {
                    let l = self.heap.alloc(v);
                    vs.push(Value::Loc(l));
                    Next::Continue
                }
                None => Next::Fail(ErrorCode::Type),
            },
            Instr::Read => match vs.pop() {
                Some(Value::Loc(l)) => match self.heap.read(l) {
                    Some(v) => {
                        vs.push(v.clone());
                        Next::Continue
                    }
                    None => Next::Fail(ErrorCode::Type),
                },
                _ => Next::Fail(ErrorCode::Type),
            },
            Instr::Write => match (vs.pop(), vs.pop()) {
                (Some(v), Some(Value::Loc(l))) => {
                    if self.heap.write(l, v) {
                        Next::Continue
                    } else {
                        Next::Fail(ErrorCode::Type)
                    }
                }
                _ => Next::Fail(ErrorCode::Type),
            },
            Instr::Fail(c) => Next::Fail(*c),
        };
        if !matches!(next, Next::Fail(_)) {
            self.counters.note_stack_depth(vs.len());
        }
        // An exhausted frame is retired before the next block is entered,
        // so a block entered in tail position replaces its caller.
        let exhausted = frame.pc == code.len();
        match next {
            Next::Continue if !exhausted => {}
            Next::Continue => {
                self.frames.pop();
                self.settle_locals();
            }
            Next::Nested(code) => {
                let hi = self.locals.len();
                let (env, lo) = if exhausted {
                    let f = self.frames.pop().expect("the running frame");
                    (f.env, f.lo)
                } else {
                    let f = self.frames.last().expect("the running frame");
                    (f.env.clone(), f.lo)
                };
                if code.is_empty() {
                    self.settle_locals();
                } else {
                    self.frames.push(Frame {
                        code: Some(code),
                        pc: 0,
                        env,
                        lo,
                        hi,
                    });
                }
            }
            Next::Call(code, env) => {
                if exhausted {
                    self.frames.pop();
                }
                self.settle_locals();
                if !code.is_empty() {
                    let base = self.locals.len();
                    self.frames.push(Frame {
                        code: Some(code),
                        pc: 0,
                        env,
                        lo: base,
                        hi: base,
                    });
                }
            }
            Next::Fail(c) => {
                self.stack = StackState::Fail(c);
                self.frames.clear();
                self.locals.clear();
            }
        }
        StepStatus::Continue
    }

    /// Runs the machine until it is terminal or the fuel is exhausted,
    /// consuming the machine.
    pub fn run(mut self, fuel: Fuel) -> RunResult {
        self.run_mut(fuel)
    }

    /// Like [`Machine::run`], but borrows the machine so it can be
    /// [`Machine::reset`] and reused for the next program of a batch.  The
    /// final heap and stack move into the returned [`RunResult`] (results
    /// own their final configuration); the machine is left with empty ones,
    /// exactly as a reset would leave it.
    pub fn run_mut(&mut self, mut fuel: Fuel) -> RunResult {
        while !self.is_terminal() {
            if !fuel.consume() {
                return self.take_result(Outcome::OutOfFuel);
            }
            self.step();
        }
        let outcome = match &self.stack {
            StackState::Fail(c) => Outcome::Fail(*c),
            StackState::Values(vs) => match vs.last() {
                Some(v) => Outcome::Value(v.clone()),
                None => Outcome::Fail(ErrorCode::Type),
            },
        };
        self.take_result(outcome)
    }

    /// Packages the run's outcome, moving the final heap and stack out of
    /// the machine.
    fn take_result(&mut self, outcome: Outcome<Value>) -> RunResult {
        // StackLang never frees or reuses locations, so the final population
        // *is* both the allocation total and the live-cell peak; read it
        // before the heap moves out.
        let mut counters = self.counters;
        counters.heap_allocs = self.heap.len() as u64;
        counters.heap_peak_live = self.heap.len() as u64;
        self.frames.clear();
        self.locals.clear();
        RunResult {
            outcome,
            heap: std::mem::take(&mut self.heap),
            stack: std::mem::replace(&mut self.stack, StackState::empty()),
            steps: self.steps,
            counters,
        }
    }

    /// Convenience: run a closed program from the empty configuration.
    pub fn run_program(program: Program, fuel: Fuel) -> RunResult {
        Machine::new(program).run(fuel)
    }

    /// Batch counterpart of [`Machine::run_program`]: runs each closed
    /// program on **one** reused machine ([`Machine::reset`] between
    /// programs), returning results in input order.  Observationally
    /// identical to calling [`Machine::run_program`] per program.
    pub fn run_batch(programs: impl IntoIterator<Item = Program>, fuel: Fuel) -> Vec<RunResult> {
        let mut machine = Machine::new(Program::empty());
        programs
            .into_iter()
            .map(|program| {
                machine.reset(program);
                machine.run_mut(fuel)
            })
            .collect()
    }
}

/// The opcode class an instruction retires under (see
/// [`semint_core::telemetry::OpClass`] for the bucket definitions).
fn classify_instr(i: &Instr) -> OpClass {
    match i {
        Instr::Push(_) | Instr::Add | Instr::Less | Instr::Idx | Instr::Len => OpClass::Data,
        Instr::If0(..) | Instr::Fail(_) => OpClass::Control,
        Instr::Lam(..) | Instr::Call => OpClass::Fun,
        Instr::Alloc | Instr::Read | Instr::Write => OpClass::Heap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{drop_top, dup, swap};
    use crate::heap::Loc;
    use crate::instr::Operand;
    use semint_core::Var;

    fn run(p: Program) -> RunResult {
        Machine::run_program(p, Fuel::default())
    }

    #[test]
    fn arithmetic_and_comparison() {
        let r = run(Program::from(vec![
            Instr::push_num(4),
            Instr::push_num(5),
            Instr::Add,
        ]));
        assert_eq!(r.outcome, Outcome::Value(Value::Num(9)));

        // less? pushes 0 (true) when n < n'.
        let r = run(Program::from(vec![
            Instr::push_num(3),
            Instr::push_num(8),
            Instr::Less,
        ]));
        assert_eq!(r.outcome, Outcome::Value(Value::Num(0)));
        let r = run(Program::from(vec![
            Instr::push_num(8),
            Instr::push_num(3),
            Instr::Less,
        ]));
        assert_eq!(r.outcome, Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn if0_branches_on_zero() {
        let p = |n| {
            Program::from(vec![
                Instr::push_num(n),
                Instr::if0(
                    Program::single(Instr::push_num(100)),
                    Program::single(Instr::push_num(200)),
                ),
            ])
        };
        assert_eq!(run(p(0)).outcome, Outcome::Value(Value::Num(100)));
        assert_eq!(run(p(7)).outcome, Outcome::Value(Value::Num(200)));
        assert_eq!(run(p(-3)).outcome, Outcome::Value(Value::Num(200)));
    }

    #[test]
    fn if0_on_empty_stack_is_a_type_error() {
        let p = Program::single(Instr::if0(Program::empty(), Program::empty()));
        assert_eq!(run(p).outcome, Outcome::Fail(ErrorCode::Type));
    }

    #[test]
    fn lam_binds_and_thunk_call_resumes() {
        // push 21, lam x. (push x, push x, add)  ==>  42
        let p = Program::from(vec![
            Instr::push_num(21),
            Instr::lam1(
                "x",
                Program::from(vec![Instr::push_var("x"), Instr::push_var("x"), Instr::Add]),
            ),
        ]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(42)));

        // thunks suspend: push (thunk (push 1)), call ==> 1
        let p = Program::from(vec![
            Instr::push_thunk(Program::single(Instr::push_num(1))),
            Instr::Call,
        ]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn multi_binder_lam_pops_top_first() {
        // push 1, push 2, lam x2,x1. (push x1)  ==>  1 (the first pushed value)
        let p = Program::from(vec![
            Instr::push_num(1),
            Instr::push_num(2),
            Instr::lam(
                [Var::new("x2"), Var::new("x1")],
                Program::single(Instr::push_var("x1")),
            ),
        ]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(1)));
        // push 1, push 2, lam x2,x1. (push [x1, x2])  ==>  [1, 2]
        let p = Program::from(vec![
            Instr::push_num(1),
            Instr::push_num(2),
            Instr::lam(
                [Var::new("x2"), Var::new("x1")],
                Program::single(Instr::Push(Operand::Array(vec![
                    Operand::Var(Var::new("x1")),
                    Operand::Var(Var::new("x2")),
                ]))),
            ),
        ]);
        assert_eq!(
            run(p).outcome,
            Outcome::Value(Value::array([Value::Num(1), Value::Num(2)]))
        );
    }

    #[test]
    fn repeated_binders_bind_the_top_of_the_stack() {
        // push 1, push 2, lam x,x. (push x)  ==>  2
        let p = Program::from(vec![
            Instr::push_num(1),
            Instr::push_num(2),
            Instr::lam(
                [Var::new("x"), Var::new("x")],
                Program::single(Instr::push_var("x")),
            ),
        ]);
        let r = run(p);
        assert_eq!(r.outcome, Outcome::Value(Value::Num(2)));
        assert_eq!(r.stack, StackState::Values(vec![Value::Num(2)]));
    }

    #[test]
    fn thunks_close_over_the_scope_they_are_pushed_in() {
        // push 1, lam x. (push (thunk push x), push 2, lam x. (call))  ==>  1:
        // the thunk reads the x in scope where it was pushed, not the x in
        // scope where it is called.
        let p = Program::from(vec![
            Instr::push_num(1),
            Instr::lam1(
                "x",
                Program::from(vec![
                    Instr::push_thunk(Program::single(Instr::push_var("x"))),
                    Instr::push_num(2),
                    Instr::lam1("x", Program::single(Instr::Call)),
                ]),
            ),
        ]);
        let r = run(p);
        assert_eq!(r.outcome, Outcome::Value(Value::Num(1)));
        // The closure left on the stack of a partial run renders as the
        // substituted thunk.
        let p = Program::from(vec![
            Instr::push_num(5),
            Instr::lam1(
                "y",
                Program::single(Instr::push_thunk(Program::from(vec![
                    Instr::push_var("y"),
                    Instr::push_var("z"),
                ]))),
            ),
        ]);
        let v = run(p).outcome.value().expect("a thunk");
        assert_eq!(v.to_string(), "thunk {push 5, push z}");
    }

    #[test]
    fn tail_calls_do_not_grow_the_frame_stack() {
        // DUP in tail position of a chain of branches: the frame count stays
        // bounded because an exhausted frame is retired before the next
        // block is entered.
        let mut p = Program::single(Instr::push_num(0));
        for _ in 0..1_000 {
            p = Program::single(Instr::push_num(0)).then_instr(Instr::if0(p, Program::empty()));
        }
        let mut m = Machine::new(p);
        let mut deepest = 0;
        while m.step() == StepStatus::Continue {
            deepest = deepest.max(m.frames.len());
        }
        assert_eq!(m.stack(), &StackState::Values(vec![Value::Num(0)]));
        assert_eq!(deepest, 1);
    }

    #[test]
    fn call_of_non_thunk_fails_type() {
        let p = Program::from(vec![Instr::push_num(0), Instr::Call]);
        assert_eq!(run(p).outcome, Outcome::Fail(ErrorCode::Type));
    }

    #[test]
    fn array_indexing_and_len() {
        let arr = Value::array([Value::Num(10), Value::Num(20), Value::Num(30)]);
        let p = Program::from(vec![
            Instr::push_val(arr.clone()),
            Instr::push_num(1),
            Instr::Idx,
        ]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(20)));

        let p = Program::from(vec![Instr::push_val(arr.clone()), Instr::Len]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(3)));

        let p = Program::from(vec![Instr::push_val(arr), Instr::push_num(5), Instr::Idx]);
        assert_eq!(run(p).outcome, Outcome::Fail(ErrorCode::Idx));
    }

    #[test]
    fn heap_alloc_read_write() {
        // ref 7; !r  ==> 7
        let p = Program::from(vec![Instr::push_num(7), Instr::Alloc, Instr::Read]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(7)));

        // r := 9; !r ==> 9  (keep the location around with dup)
        let p = Program::from(vec![
            Instr::push_num(7),
            Instr::Alloc,
            dup(),
            dup(),
            Instr::push_num(9),
            Instr::Write,
            Instr::Read,
        ]);
        let r = run(p);
        assert_eq!(r.outcome, Outcome::Value(Value::Num(9)));
        assert_eq!(r.heap.read(Loc(0)), Some(&Value::Num(9)));
    }

    #[test]
    fn explicit_fail_aborts_with_code() {
        let p = Program::from(vec![
            Instr::push_num(1),
            Instr::Fail(ErrorCode::Conv),
            Instr::push_num(2),
        ]);
        let r = run(p);
        assert_eq!(r.outcome, Outcome::Fail(ErrorCode::Conv));
        assert_eq!(r.stack, StackState::Fail(ErrorCode::Conv));
    }

    #[test]
    fn fuel_exhaustion_reports_out_of_fuel() {
        // An infinite loop: a thunk that pushes itself and calls itself… we
        // can't easily build a self-referential thunk, so loop via repeated
        // program: push big computation with limited fuel instead.
        let mut instrs = Vec::new();
        for _ in 0..100 {
            instrs.push(Instr::push_num(1));
            instrs.push(Instr::push_num(1));
            instrs.push(Instr::Add);
            instrs.push(drop_top());
        }
        let r = Machine::run_program(Program::from(instrs), Fuel::steps(10));
        assert_eq!(r.outcome, Outcome::OutOfFuel);
        assert_eq!(r.steps, 10);
    }

    #[test]
    fn swap_dup_drop_macros_behave() {
        // swap: push 1, push 2, swap ==> top is 1
        let p = Program::from(vec![Instr::push_num(1), Instr::push_num(2), swap()]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(1)));

        // dup: push 3, dup, add ==> 6
        let p = Program::from(vec![Instr::push_num(3), dup(), Instr::Add]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(6)));

        // drop: push 1, push 2, drop ==> 1
        let p = Program::from(vec![Instr::push_num(1), Instr::push_num(2), drop_top()]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn empty_program_on_empty_stack_has_no_value() {
        let r = run(Program::empty());
        assert_eq!(r.outcome, Outcome::Fail(ErrorCode::Type));
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn running_an_open_program_is_a_type_error() {
        let r = run(Program::single(Instr::push_var("x")));
        assert_eq!(r.outcome, Outcome::Fail(ErrorCode::Type));
    }

    #[test]
    fn reset_machine_is_observationally_identical_to_a_fresh_one() {
        // Programs exercising every piece of machine state a reset must
        // clear: stack values, heap cells, bindings, frames, failure states.
        let programs: Vec<Program> = vec![
            Program::from(vec![Instr::push_num(4), Instr::push_num(5), Instr::Add]),
            Program::from(vec![Instr::push_num(7), Instr::Alloc, Instr::Read]),
            Program::from(vec![
                Instr::push_num(7),
                Instr::Alloc,
                dup(),
                dup(),
                Instr::push_num(9),
                Instr::Write,
                Instr::Read,
            ]),
            Program::from(vec![Instr::push_num(1), Instr::Fail(ErrorCode::Conv)]),
            Program::single(Instr::lam1(
                "x",
                Program::from(vec![Instr::push_var("x"), Instr::push_var("x")]),
            )),
            Program::from(vec![
                Instr::push_num(3),
                Instr::lam1(
                    "x",
                    Program::single(Instr::push_thunk(Program::single(Instr::push_var("x")))),
                ),
                Instr::Call,
            ]),
        ];
        let mut reused = Machine::new(Program::empty());
        // Dirty the machine before the comparison runs so the reset has
        // something real to clear.
        let _ = reused.run_mut(Fuel::default());
        for p in &programs {
            reused.reset(p.clone());
            let from_reset = reused.run_mut(Fuel::default());
            let from_fresh = Machine::run_program(p.clone(), Fuel::default());
            assert_eq!(from_reset, from_fresh, "program {p:?}");
        }
        // Fuel exhaustion mid-run leaves no residue either: a half-run
        // program does not leak stack or heap state into the next one.
        let long: Vec<Instr> = (0..50).map(Instr::push_num).collect();
        reused.reset(Program::from(long));
        assert_eq!(reused.run_mut(Fuel::steps(10)).outcome, Outcome::OutOfFuel);
        let p = Program::from(vec![Instr::push_num(1), Instr::push_num(2), Instr::Add]);
        reused.reset(p.clone());
        assert_eq!(
            reused.run_mut(Fuel::default()),
            Machine::run_program(p, Fuel::default())
        );
    }

    #[test]
    fn run_batch_matches_per_program_runs_in_order() {
        let programs = vec![
            Program::from(vec![Instr::push_num(4), Instr::push_num(5), Instr::Add]),
            Program::single(Instr::Fail(ErrorCode::Conv)),
            Program::from(vec![Instr::push_num(7), Instr::Alloc, Instr::Read]),
        ];
        let singly: Vec<RunResult> = programs
            .iter()
            .map(|p| Machine::run_program(p.clone(), Fuel::default()))
            .collect();
        let batched = Machine::run_batch(programs, Fuel::default());
        assert_eq!(batched, singly);
        assert!(Machine::run_batch(Vec::new(), Fuel::default()).is_empty());
    }

    #[test]
    fn reset_recovers_from_a_failed_stack() {
        // Step (rather than run) to terminality, so the machine still holds
        // the `Fail` stack when the reset happens.
        let mut reused = Machine::new(Program::single(Instr::Fail(ErrorCode::Type)));
        while !reused.is_terminal() {
            reused.step();
        }
        assert!(matches!(reused.stack(), StackState::Fail(_)));
        let p = Program::from(vec![Instr::push_num(21), dup(), Instr::Add]);
        reused.reset(p.clone());
        assert_eq!(
            reused.run_mut(Fuel::default()),
            Machine::run_program(p, Fuel::default())
        );
    }

    #[test]
    fn counters_account_for_every_step_and_track_heap_activity() {
        let p = Program::from(vec![
            Instr::push_num(7),
            Instr::Alloc,
            dup(),
            dup(),
            Instr::push_num(9),
            Instr::Write,
            Instr::Read,
        ]);
        let r = run(p.clone());
        let c = r.counters;
        assert_eq!(
            c.total_instrs(),
            r.steps,
            "every retired step is classified exactly once"
        );
        assert!(c.instr_heap >= 3, "alloc/write/read are heap steps");
        assert!(c.instr_data > 0, "push is a data step");
        assert_eq!(c.heap_allocs, 1);
        assert_eq!(c.heap_peak_live, 1);
        assert!(c.stack_peak >= 3, "dup/dup leaves three entries live");
        // Counters are digest-grade: a second identical run agrees exactly.
        assert_eq!(run(p).counters, c);
    }

    #[test]
    fn step_status_done_when_terminal() {
        let mut m = Machine::new(Program::empty());
        assert!(m.is_terminal());
        assert_eq!(m.step(), StepStatus::Done);
        assert_eq!(m.steps_taken(), 0);
    }
}
