//! Stack-shuffling macros and program-building helpers.
//!
//! Fig. 3 defines three macros used pervasively by the compilers and by the
//! conversion glue code:
//!
//! ```text
//! SWAP ≜ lam x. (lam y. push x, push y)
//! DROP ≜ lam x. ()
//! DUP  ≜ lam x. (push x, push x)
//! ```
//!
//! They are provided here as functions returning the corresponding
//! instruction, together with helpers for the array-building `lam` shapes the
//! compilers emit (`lam xₙ,…,x₁. (push [x₁,…,xₙ])`), which are used to encode
//! pairs, sums and RefLL array literals.
//!
//! Each macro's code is built once per process and then shared: a use is a
//! reference-count bump, and every use site runs the same blocks.

use crate::instr::{Instr, Operand, Program};
use crate::value::Value;
use semint_core::Var;
use std::sync::OnceLock;

/// How many `pack(n)` and `tagged(tag)` shapes are built once and shared;
/// larger ones are built per use.
const SHARED_SHAPES: usize = 8;

/// `SWAP`: exchanges the two topmost stack values.
pub fn swap() -> Instr {
    static SWAP: OnceLock<Instr> = OnceLock::new();
    SWAP.get_or_init(|| {
        let x = Var::new("swap%x");
        let y = Var::new("swap%y");
        Instr::lam1(
            x.clone(),
            Program::single(Instr::lam1(
                y.clone(),
                Program::from(vec![
                    Instr::Push(Operand::Var(x)),
                    Instr::Push(Operand::Var(y)),
                ]),
            )),
        )
    })
    .clone()
}

/// `DROP`: discards the top stack value.
pub fn drop_top() -> Instr {
    static DROP: OnceLock<Instr> = OnceLock::new();
    DROP.get_or_init(|| Instr::lam1("drop%x", Program::empty()))
        .clone()
}

/// `DUP`: duplicates the top stack value.
pub fn dup() -> Instr {
    static DUP: OnceLock<Instr> = OnceLock::new();
    DUP.get_or_init(|| {
        let x = Var::new("dup%x");
        Instr::lam1(
            x.clone(),
            Program::from(vec![
                Instr::Push(Operand::Var(x.clone())),
                Instr::Push(Operand::Var(x)),
            ]),
        )
    })
    .clone()
}

/// `lam xₙ,…,x₁. (push [x₁,…,xₙ])`: pops `n` values (the most recently pushed
/// becomes the *last* array element) and pushes the array containing them in
/// push order.  This is the compiled representation of tuples (Fig. 3) and of
/// RefLL array literals.
pub fn pack(n: usize) -> Instr {
    static PACKS: [OnceLock<Instr>; SHARED_SHAPES] = [const { OnceLock::new() }; SHARED_SHAPES];
    let build = || {
        let names: Vec<Var> = (1..=n).map(|i| Var::new(format!("pack%x{i}"))).collect();
        // Binders are listed top-of-stack first, i.e. xₙ, …, x₁.
        let binders: Vec<Var> = names.iter().rev().cloned().collect();
        let template = Operand::Array(names.iter().map(|x| Operand::Var(x.clone())).collect());
        Instr::lam(binders, Program::single(Instr::Push(template)))
    };
    match PACKS.get(n) {
        Some(cell) => cell.get_or_init(build).clone(),
        None => build(),
    }
}

/// A program popping two values `v₁` (pushed first) and `v₂` (top) and
/// pushing the pair encoding `[v₁, v₂]`.
pub fn pair() -> Program {
    Program::single(pack(2))
}

/// Projects element `i` out of an array on top of the stack: `push i, idx`.
pub fn project(i: i64) -> Program {
    Program::from(vec![Instr::push_num(i), Instr::Idx])
}

/// Pops a value `v` and pushes the tagged array `[tag, v]` — the compiled
/// representation of `inl`/`inr` with tags 0 and 1 (Fig. 3).
pub fn tagged(tag: i64) -> Program {
    static TAGGED: [OnceLock<Instr>; SHARED_SHAPES] = [const { OnceLock::new() }; SHARED_SHAPES];
    let build = || {
        let x = Var::new("tag%x");
        Instr::lam1(
            x.clone(),
            Program::single(Instr::Push(Operand::Array(vec![
                Operand::Lit(Value::Num(tag)),
                Operand::Var(x),
            ]))),
        )
    };
    let shared = usize::try_from(tag).ok().and_then(|i| TAGGED.get(i));
    Program::single(match shared {
        Some(cell) => cell.get_or_init(build).clone(),
        None => build(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::{Fuel, Outcome, Value};

    fn run(p: Program) -> Outcome<Value> {
        Machine::run_program(p, Fuel::default()).outcome
    }

    #[test]
    fn pack_then_project_recovers_elements() {
        let build = Program::from(vec![Instr::push_num(10), Instr::push_num(20), pack(2)]);
        assert_eq!(
            run(build.clone().then(project(0))),
            Outcome::Value(Value::Num(10))
        );
        assert_eq!(
            run(build.clone().then(project(1))),
            Outcome::Value(Value::Num(20))
        );
        assert_eq!(
            run(build),
            Outcome::Value(Value::array([Value::Num(10), Value::Num(20)]))
        );
    }

    #[test]
    fn tagged_values_carry_tag_and_payload() {
        let build = Program::single(Instr::push_num(99)).then(tagged(1));
        assert_eq!(
            run(build),
            Outcome::Value(Value::array([Value::Num(1), Value::Num(99)]))
        );
    }

    #[test]
    fn nullary_pack_pushes_empty_array() {
        let p = Program::from(vec![pack(0), Instr::Len]);
        assert_eq!(run(p), Outcome::Value(Value::Num(0)));
    }

    #[test]
    fn pair_is_binary_pack() {
        let p = Program::from(vec![Instr::push_num(1), Instr::push_num(2)])
            .then(pair())
            .then(Program::single(Instr::Len));
        assert_eq!(run(p), Outcome::Value(Value::Num(2)));
    }

    #[test]
    fn macro_code_is_built_once_and_shared() {
        let body = |i: Instr| match i {
            Instr::Lam(_, body) => body,
            other => panic!("not a lam: {other}"),
        };
        assert_eq!(body(swap()).as_ptr(), body(swap()).as_ptr());
        assert_eq!(body(pack(2)).as_ptr(), body(pack(2)).as_ptr());
        assert_eq!(
            pack(2).to_string(),
            "lam pack%x2,pack%x1. (push [pack%x1, pack%x2])"
        );
        assert_eq!(
            pack(9),
            pack(9),
            "large shapes are built per use, identically"
        );
        assert_eq!(tagged(1).to_string(), "lam tag%x. (push [1, tag%x])");
        assert_eq!(tagged(-1).to_string(), "lam tag%x. (push [-1, tag%x])");
    }

    #[test]
    fn swap_dup_drop_shapes() {
        // Covered behaviourally in machine::tests; here we check they are
        // closed programs (no stray free variables).
        for i in [swap(), dup(), drop_top(), pack(3)] {
            assert!(Program::single(i).is_closed());
        }
    }

    #[test]
    fn pack_underflow_is_a_type_error() {
        // Only one value on the stack but pack(2) needs two.
        let p = Program::from(vec![Instr::push_num(1), pack(2)]);
        assert_eq!(run(p), Outcome::Fail(semint_core::ErrorCode::Type));
    }
}
