//! StackLang syntax: operands, instructions, blocks and programs (Fig. 2).
//!
//! Code is built once and then shared.  A [`Program`] is the growable
//! builder the compilers append to; every block nested in an instruction
//! (an `if0` branch, a `lam` body, a thunk literal) is a [`Block`], an
//! `Arc<[Instr]>` frozen when the instruction is built.  Cloning an
//! instruction, a block or a thunk therefore copies no nested code, and the
//! machine runs blocks in place ([`crate::Machine`]).
//!
//! The one divergence from the figure's concrete syntax is that `push`
//! operands are split into literal values and variables: compiled code
//! pushes variables (`push x`) that an enclosing `lam x. P` binds.  The
//! paper folds variables into the value grammar implicitly; separating them
//! keeps "closed program" a checkable property ([`Program::is_closed`]).

use crate::value::{Closure, Value};
use semint_core::{ErrorCode, Var};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The operand of a `push`: a literal value, a variable bound by an
/// enclosing `lam`, or an array template whose elements are themselves
/// operands.
///
/// Array templates let us write the paper's `push [x₁, x₂]` (Fig. 3): the
/// variables are looked up when the push executes, and a variable with no
/// binding (the program was open) makes the machine raise `fail Type`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// A literal value.
    Lit(Value),
    /// A variable occurrence.
    Var(Var),
    /// An array literal whose elements may mention variables.
    Array(Vec<Operand>),
}

/// StackLang instructions (Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `push v` / `push x`: push a value (or the value bound to a variable).
    Push(Operand),
    /// `add`: pop `n'`, `n`, push `n + n'`.
    Add,
    /// `less?`: pop `n'`, `n`, push `0` if `n < n'` else `1`.
    Less,
    /// `if0 P1 P2`: pop `n`, continue with `P1` if `n = 0`, else `P2`.
    If0(Block, Block),
    /// `lam x₁,…,xₖ. P`: pop one value per binder (leftmost binder takes the
    /// top of the stack) and run `P` with them bound.
    Lam(Arc<[Var]>, Block),
    /// `call`: pop a thunk and continue with its program.
    Call,
    /// `idx`: pop `n`, an array, push the `n`-th element (`fail Idx` if out of
    /// bounds).
    Idx,
    /// `len`: pop an array, push its length.
    Len,
    /// `alloc`: pop `v`, allocate a fresh location holding `v`, push it.
    Alloc,
    /// `read`: pop a location, push its contents.
    Read,
    /// `write`: pop `v` and a location, store `v` there.
    Write,
    /// `fail c`: abort the machine with error code `c`.
    Fail(ErrorCode),
}

impl Instr {
    /// `push n` for a literal number — the most common instruction in
    /// compiled code, so it gets a shorthand.
    pub fn push_num(n: i64) -> Instr {
        Instr::Push(Operand::Lit(Value::Num(n)))
    }

    /// `push v` for a literal value.
    pub fn push_val(v: Value) -> Instr {
        Instr::Push(Operand::Lit(v))
    }

    /// `push x` for a variable.
    pub fn push_var(x: impl Into<Var>) -> Instr {
        Instr::Push(Operand::Var(x.into()))
    }

    /// `lam x₁,…,xₖ. P`, binders listed top of stack first.
    pub fn lam(binders: impl IntoIterator<Item = Var>, body: impl Into<Block>) -> Instr {
        Instr::Lam(binders.into_iter().collect(), body.into())
    }

    /// `lam x. P` with a single binder.
    pub fn lam1(x: impl Into<Var>, body: impl Into<Block>) -> Instr {
        Instr::lam([x.into()], body)
    }

    /// `if0 P1 P2`.
    pub fn if0(zero: impl Into<Block>, nonzero: impl Into<Block>) -> Instr {
        Instr::If0(zero.into(), nonzero.into())
    }

    /// `push (thunk P)`: when it runs, the thunk closes over the bindings in
    /// scope.
    pub fn push_thunk(p: impl Into<Block>) -> Instr {
        Instr::push_val(Value::thunk(p))
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_instr(f, self, &mut Vec::new())
    }
}

/// A frozen instruction block, shared by reference: cloning it is a
/// reference-count bump.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block(Arc<[Instr]>);

impl Deref for Block {
    type Target = [Instr];

    fn deref(&self) -> &[Instr] {
        &self.0
    }
}

impl From<Program> for Block {
    /// Freezes a program; its instructions move, nothing is cloned.
    fn from(p: Program) -> Block {
        Block(Arc::from(p.0))
    }
}

impl From<Vec<Instr>> for Block {
    fn from(v: Vec<Instr>) -> Block {
        Block(Arc::from(v))
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_instrs(f, self, &mut Vec::new())
    }
}

/// A StackLang program `P ::= · | i, P`: a sequence of instructions under
/// construction.  Appending copies only top-level instructions; nested
/// blocks are shared.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program(Vec<Instr>);

impl Program {
    /// The empty program `·`.
    pub fn empty() -> Program {
        Program(Vec::new())
    }

    /// A single-instruction program.
    pub fn single(i: Instr) -> Program {
        Program(vec![i])
    }

    /// Number of top-level instructions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the program is `·`.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sequences `self` before `other` (`self, other`).
    pub fn then(mut self, other: Program) -> Program {
        self.0.extend(other.0);
        self
    }

    /// Appends a single instruction.
    pub fn then_instr(mut self, i: Instr) -> Program {
        self.0.push(i);
        self
    }

    /// The instructions, in execution order.
    pub fn instrs(&self) -> &[Instr] {
        &self.0
    }

    /// The instructions, in execution order, by value.
    pub fn into_instrs(self) -> Vec<Instr> {
        self.0
    }

    /// The set of free variables of the program.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut acc = BTreeSet::new();
        free_vars_instrs(&self.0, &mut Vec::new(), &mut acc);
        acc
    }

    /// True if the program has no free variables (safe to run directly).
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }
}

impl From<Vec<Instr>> for Program {
    fn from(v: Vec<Instr>) -> Self {
        Program(v)
    }
}

impl FromIterator<Instr> for Program {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        Program(iter.into_iter().collect())
    }
}

impl Extend<Instr> for Program {
    fn extend<T: IntoIterator<Item = Instr>>(&mut self, iter: T) {
        self.0.extend(iter)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_instrs(f, &self.0, &mut Vec::new())
    }
}

/// Bindings in scope while rendering, innermost last: `Some(v)` for a
/// closure's binding, `None` for a `lam` binder that shadows it.
type Scope<'a> = Vec<(&'a Var, Option<&'a Value>)>;

/// Renders code with the bindings in `scope` written in place of the
/// variables they bind — the text substitution would have produced.
fn fmt_instrs<'a>(
    f: &mut fmt::Formatter<'_>,
    instrs: &'a [Instr],
    scope: &mut Scope<'a>,
) -> fmt::Result {
    if instrs.is_empty() {
        return write!(f, "·");
    }
    for (i, instr) in instrs.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        fmt_instr(f, instr, scope)?;
    }
    Ok(())
}

fn fmt_instr<'a>(f: &mut fmt::Formatter<'_>, i: &'a Instr, scope: &mut Scope<'a>) -> fmt::Result {
    match i {
        Instr::Push(o) => {
            write!(f, "push ")?;
            fmt_operand(f, o, scope)
        }
        Instr::Add => write!(f, "add"),
        Instr::Less => write!(f, "less?"),
        Instr::If0(p1, p2) => {
            write!(f, "if0 (")?;
            fmt_instrs(f, p1, scope)?;
            write!(f, ") (")?;
            fmt_instrs(f, p2, scope)?;
            write!(f, ")")
        }
        Instr::Lam(xs, p) => {
            write!(f, "lam ")?;
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{x}")?;
            }
            write!(f, ". (")?;
            let depth = scope.len();
            scope.extend(xs.iter().map(|x| (x, None)));
            fmt_instrs(f, p, scope)?;
            scope.truncate(depth);
            write!(f, ")")
        }
        Instr::Call => write!(f, "call"),
        Instr::Idx => write!(f, "idx"),
        Instr::Len => write!(f, "len"),
        Instr::Alloc => write!(f, "alloc"),
        Instr::Read => write!(f, "read"),
        Instr::Write => write!(f, "write"),
        Instr::Fail(c) => write!(f, "fail {c}"),
    }
}

fn fmt_operand<'a>(
    f: &mut fmt::Formatter<'_>,
    o: &'a Operand,
    scope: &mut Scope<'a>,
) -> fmt::Result {
    match o {
        Operand::Lit(v) => fmt_value(f, v, scope),
        Operand::Var(x) => match scope.iter().rev().find(|(y, _)| *y == x) {
            Some((_, Some(v))) => write!(f, "{v}"),
            _ => write!(f, "{x}"),
        },
        Operand::Array(ops) => {
            write!(f, "[")?;
            for (i, o) in ops.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_operand(f, o, scope)?;
            }
            write!(f, "]")
        }
    }
}

/// Renders a value; a thunk's code is rendered with its own bindings on top
/// of `scope`.
pub(crate) fn fmt_value<'a>(
    f: &mut fmt::Formatter<'_>,
    v: &'a Value,
    scope: &mut Scope<'a>,
) -> fmt::Result {
    match v {
        Value::Num(n) => write!(f, "{n}"),
        Value::Loc(l) => write!(f, "{l}"),
        Value::Thunk(c) => fmt_closure(f, c, scope),
        Value::Array(vs) => {
            write!(f, "[")?;
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_value(f, v, scope)?;
            }
            write!(f, "]")
        }
    }
}

fn fmt_closure<'a>(
    f: &mut fmt::Formatter<'_>,
    c: &'a Closure,
    scope: &mut Scope<'a>,
) -> fmt::Result {
    let depth = scope.len();
    let own: Vec<_> = c.env().iter().collect();
    scope.extend(own.into_iter().rev().map(|(x, v)| (x, Some(v))));
    write!(f, "thunk {{")?;
    fmt_instrs(f, c.code(), scope)?;
    scope.truncate(depth);
    write!(f, "}}")
}

fn free_vars_instrs(instrs: &[Instr], bound: &mut Vec<Var>, acc: &mut BTreeSet<Var>) {
    for i in instrs {
        match i {
            Instr::Push(op) => free_vars_operand(op, bound, acc),
            Instr::If0(p1, p2) => {
                free_vars_instrs(p1, bound, acc);
                free_vars_instrs(p2, bound, acc);
            }
            Instr::Lam(xs, body) => {
                let n = bound.len();
                bound.extend(xs.iter().cloned());
                free_vars_instrs(body, bound, acc);
                bound.truncate(n);
            }
            _ => {}
        }
    }
}

fn free_vars_operand(op: &Operand, bound: &mut Vec<Var>, acc: &mut BTreeSet<Var>) {
    match op {
        Operand::Var(x) => {
            if !bound.contains(x) {
                acc.insert(x.clone());
            }
        }
        Operand::Lit(v) => free_vars_value(v, bound, acc),
        Operand::Array(ops) => {
            for o in ops {
                free_vars_operand(o, bound, acc)
            }
        }
    }
}

/// A thunk's own bindings close the variables they name.
fn free_vars_value(v: &Value, bound: &mut Vec<Var>, acc: &mut BTreeSet<Var>) {
    match v {
        Value::Thunk(c) => {
            let n = bound.len();
            bound.extend(c.env().iter().map(|(x, _)| x.clone()));
            free_vars_instrs(c.code(), bound, acc);
            bound.truncate(n);
        }
        Value::Array(vs) => {
            for w in vs.iter() {
                free_vars_value(w, bound, acc)
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(s: &str) -> Var {
        Var::new(s)
    }

    #[test]
    fn free_vars_and_closedness() {
        let p = Program::from(vec![
            Instr::push_var("a"),
            Instr::lam1(
                "b",
                Program::from(vec![Instr::push_var("b"), Instr::push_var("c")]),
            ),
        ]);
        let fv = p.free_vars();
        assert!(fv.contains(&var("a")));
        assert!(fv.contains(&var("c")));
        assert!(!fv.contains(&var("b")));
        assert!(!p.is_closed());
        assert!(Program::single(Instr::push_num(1)).is_closed());
        // Thunk literals and if0 branches are searched too.
        let p = Program::from(vec![
            Instr::push_thunk(Program::single(Instr::push_var("t"))),
            Instr::if0(Program::single(Instr::push_var("u")), Program::empty()),
        ]);
        assert_eq!(p.free_vars(), BTreeSet::from([var("t"), var("u")]));
    }

    #[test]
    fn then_concatenates_in_order() {
        let p = Program::single(Instr::push_num(1)).then(Program::single(Instr::push_num(2)));
        assert_eq!(p.len(), 2);
        assert_eq!(p.instrs()[0], Instr::push_num(1));
        let p = p.then_instr(Instr::Add);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn cloning_code_shares_nested_blocks() {
        let body = Program::from(vec![Instr::push_var("x"), Instr::push_var("x"), Instr::Add]);
        let lam = Instr::lam1("x", body);
        let copy = Program::single(lam.clone()).then(Program::single(lam.clone()));
        match (&lam, &copy.instrs()[1]) {
            (Instr::Lam(_, a), Instr::Lam(_, b)) => {
                assert_eq!(a.as_ptr(), b.as_ptr(), "the body is shared")
            }
            other => panic!("unexpected {other:?}"),
        }
        let block = Block::from(copy.clone());
        assert_eq!(&block[..], copy.instrs());
    }

    #[test]
    fn display_round_trips_shape() {
        let p = Program::from(vec![
            Instr::push_num(1),
            Instr::lam1("x", Program::single(Instr::push_var("x"))),
            Instr::Fail(ErrorCode::Conv),
        ]);
        assert_eq!(p.to_string(), "push 1, lam x. (push x), fail Conv");
        assert_eq!(Program::empty().to_string(), "·");
        let p = Program::single(Instr::if0(
            Program::single(Instr::push_thunk(Program::empty())),
            Program::single(Instr::Call),
        ));
        assert_eq!(p.to_string(), "if0 (push thunk {·}) (call)");
    }
}
