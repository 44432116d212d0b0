//! StackLang values, and the closures and environments that stand in for
//! the figure's substitution.
//!
//! Fig. 2 gives `lam x. P` a substitution semantics: the popped value is
//! written into `P` before it runs, and a `thunk P` value carries the
//! already-substituted program.  The machine never rewrites code.  `lam`
//! binds, `push x` looks `x` up, and a thunk pushed at run time becomes a
//! [`Closure`]: the shared, unsubstituted block together with an [`Env`]
//! holding the bindings that were in scope.  Reading a closure's free
//! variables through its environment gives exactly the program
//! substitution would have produced, which is how [`Closure`]'s `Display`
//! renders it.

use crate::heap::Loc;
use crate::instr::{fmt_value, Block};
use semint_core::Var;
use std::fmt;
use std::sync::Arc;

/// StackLang values `v ::= n | thunk P | ℓ | [v, …]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An integer.
    Num(i64),
    /// A suspended computation, resumed with `call`.
    Thunk(Closure),
    /// A heap location.
    Loc(Loc),
    /// An array of values, shared: copying an array value copies no
    /// elements.
    Array(Arc<[Value]>),
}

impl Value {
    /// `thunk P`: a suspended computation with no bindings of its own.
    pub fn thunk(code: impl Into<Block>) -> Value {
        Value::Thunk(Closure::new(code))
    }

    /// The integer carried by a `Num`, if any.
    pub fn as_num(&self) -> Option<i64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The location carried by a `Loc`, if any.
    pub fn as_loc(&self) -> Option<Loc> {
        match self {
            Value::Loc(l) => Some(*l),
            _ => None,
        }
    }

    /// The elements of an `Array`, if any.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(vs) => Some(vs),
            _ => None,
        }
    }

    /// An array value from an iterator of values.
    pub fn array(vs: impl IntoIterator<Item = Value>) -> Value {
        Value::Array(vs.into_iter().collect())
    }

    /// The value a literal `push v` produces under `env`: every thunk inside
    /// captures `env` beneath its own bindings, as substituting `env` into
    /// the literal would.
    pub(crate) fn captured(&self, env: &Env) -> Value {
        match self {
            Value::Num(n) => Value::Num(*n),
            Value::Thunk(c) => Value::Thunk(c.captured(env)),
            Value::Array(vs) if !env.is_empty() => {
                Value::Array(vs.iter().map(|v| v.captured(env)).collect())
            }
            other => other.clone(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_value(f, self, &mut Vec::new())
    }
}

/// A thunk value: a frozen block and the environment it closes over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closure {
    code: Block,
    env: Env,
}

impl Closure {
    /// A closure over `code` with no bindings.
    pub fn new(code: impl Into<Block>) -> Closure {
        Closure {
            code: code.into(),
            env: Env::empty(),
        }
    }

    /// The (unsubstituted) code `call` runs.
    pub fn code(&self) -> &Block {
        &self.code
    }

    /// The bindings the code's free variables are read from.
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Splits the closure into its code and environment.
    pub fn into_parts(self) -> (Block, Env) {
        (self.code, self.env)
    }

    /// This closure pushed under `env`: its own bindings shadow `env`'s.
    fn captured(&self, env: &Env) -> Closure {
        let env = if env.is_empty() {
            self.env.clone()
        } else if self.env.is_empty() {
            env.clone()
        } else {
            self.env.layered_over(env)
        };
        Closure {
            code: self.code.clone(),
            env,
        }
    }
}

/// A persistent environment: an immutable list of bindings, innermost
/// first.  Extending it allocates one node and shares the rest, so a
/// closure captures its environment with a reference-count bump.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Env(Option<Arc<EnvNode>>);

#[derive(PartialEq, Eq)]
struct EnvNode {
    var: Var,
    value: Value,
    next: Env,
}

impl Env {
    /// The environment with no bindings.
    pub fn empty() -> Env {
        Env(None)
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// `self` extended with `var ↦ value`, which shadows any outer binding
    /// of `var`.
    pub fn bind(self, var: Var, value: Value) -> Env {
        Env(Some(Arc::new(EnvNode {
            var,
            value,
            next: self,
        })))
    }

    /// The innermost binding of `var`, if any.
    pub fn lookup(&self, var: &Var) -> Option<&Value> {
        let mut node = self.0.as_deref();
        while let Some(n) = node {
            if n.var == *var {
                return Some(&n.value);
            }
            node = n.next.0.as_deref();
        }
        None
    }

    /// The bindings, innermost first (shadowed ones included).
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Value)> {
        let mut node = self.0.as_deref();
        std::iter::from_fn(move || {
            let n = node?;
            node = n.next.0.as_deref();
            Some((&n.var, &n.value))
        })
    }

    /// `self`'s bindings on top of `outer`'s.
    fn layered_over(&self, outer: &Env) -> Env {
        let bindings: Vec<(&Var, &Value)> = self.iter().collect();
        bindings
            .into_iter()
            .rev()
            .fold(outer.clone(), |env, (x, v)| env.bind(x.clone(), v.clone()))
    }
}

impl Drop for EnvNode {
    /// Unlinks the tail iteratively, so dropping a long environment cannot
    /// overflow the stack.
    fn drop(&mut self) {
        let mut next = self.next.0.take();
        while let Some(node) = next {
            match Arc::try_unwrap(node) {
                Ok(mut owned) => next = owned.next.0.take(),
                Err(_) => break,
            }
        }
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr, Program};

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Num(3).as_num(), Some(3));
        assert_eq!(Value::Num(3).as_loc(), None);
        assert_eq!(Value::Loc(Loc(1)).as_loc(), Some(Loc(1)));
        let arr = Value::array([Value::Num(1), Value::Num(2)]);
        assert_eq!(arr.as_array().unwrap().len(), 2);
        assert_eq!(arr.to_string(), "[1, 2]");
    }

    #[test]
    fn lookup_finds_the_innermost_binding() {
        let x = Var::new("x");
        let env = Env::empty()
            .bind(x.clone(), Value::Num(1))
            .bind(Var::new("y"), Value::Num(2))
            .bind(x.clone(), Value::Num(3));
        assert_eq!(env.lookup(&x), Some(&Value::Num(3)));
        assert_eq!(env.lookup(&Var::new("y")), Some(&Value::Num(2)));
        assert_eq!(env.lookup(&Var::new("z")), None);
        assert_eq!(env.iter().count(), 3);
    }

    #[test]
    fn captured_thunks_keep_their_own_bindings_on_top() {
        let x = Var::new("x");
        let own = Closure {
            code: Program::single(Instr::push_var("x")).into(),
            env: Env::empty().bind(x.clone(), Value::Num(1)),
        };
        let outer = Env::empty()
            .bind(x.clone(), Value::Num(2))
            .bind(Var::new("y"), Value::Num(5));
        let layered = own.captured(&outer);
        assert_eq!(layered.env().lookup(&x), Some(&Value::Num(1)));
        assert_eq!(layered.env().lookup(&Var::new("y")), Some(&Value::Num(5)));
        // A thunk with no bindings of its own simply shares the outer list.
        let bare = Closure::new(Program::single(Instr::push_var("y")));
        assert_eq!(bare.captured(&outer).env(), &outer);
    }

    #[test]
    fn closures_render_as_the_substituted_program() {
        let c = Closure {
            code: Program::from(vec![
                Instr::push_var("x"),
                Instr::lam1("x", Program::single(Instr::push_var("x"))),
                Instr::push_var("z"),
            ])
            .into(),
            env: Env::empty().bind(Var::new("x"), Value::Num(7)),
        };
        assert_eq!(
            Value::Thunk(c).to_string(),
            "thunk {push 7, lam x. (push x), push z}"
        );
    }

    #[test]
    fn dropping_a_long_environment_does_not_overflow() {
        let x = Var::new("x");
        let mut env = Env::empty();
        for i in 0..200_000 {
            env = env.bind(x.clone(), Value::Num(i));
        }
        drop(env);
    }
}
