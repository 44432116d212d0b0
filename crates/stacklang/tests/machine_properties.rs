//! Property tests for the StackLang machine (Fig. 2).

use proptest::prelude::*;
use semint_core::{ErrorCode, Fuel, Outcome, Var};
use stacklang::builder::{dup, pack, swap};
use stacklang::{Instr, Machine, Program, Value};

/// A tiny arithmetic-expression language with a reference evaluator, compiled
/// to StackLang the same way the RefLL compiler treats `+`.
#[derive(Debug, Clone)]
enum Arith {
    Lit(i64),
    Add(Box<Arith>, Box<Arith>),
    IfZero(Box<Arith>, Box<Arith>, Box<Arith>),
}

fn arith_strategy() -> impl Strategy<Value = Arith> {
    let leaf = (-100i64..100).prop_map(Arith::Lit);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Arith::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Arith::IfZero(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn eval(a: &Arith) -> i64 {
    match a {
        Arith::Lit(n) => *n,
        Arith::Add(x, y) => eval(x).wrapping_add(eval(y)),
        Arith::IfZero(c, t, f) => {
            if eval(c) == 0 {
                eval(t)
            } else {
                eval(f)
            }
        }
    }
}

fn compile(a: &Arith) -> Program {
    match a {
        Arith::Lit(n) => Program::single(Instr::push_num(*n)),
        Arith::Add(x, y) => compile(x)
            .then(compile(y))
            .then_instr(swap())
            .then_instr(Instr::Add),
        Arith::IfZero(c, t, f) => compile(c).then_instr(Instr::if0(compile(t), compile(f))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compiled arithmetic agrees with the reference evaluator.
    #[test]
    fn compiled_arithmetic_agrees_with_reference(a in arith_strategy()) {
        let result = Machine::run_program(compile(&a), Fuel::default());
        prop_assert_eq!(result.outcome, Outcome::Value(Value::Num(eval(&a))));
    }

    /// The machine is deterministic: two runs of the same program agree on
    /// outcome and step count.
    #[test]
    fn machine_is_deterministic(a in arith_strategy()) {
        let p = compile(&a);
        let r1 = Machine::run_program(p.clone(), Fuel::default());
        let r2 = Machine::run_program(p, Fuel::default());
        prop_assert_eq!(r1.outcome, r2.outcome);
        prop_assert_eq!(r1.steps, r2.steps);
    }

    /// Fuel monotonicity: if a program terminates within some budget, any
    /// larger budget gives the same outcome; any smaller budget either gives
    /// the same outcome or OutOfFuel.
    #[test]
    fn fuel_is_monotone(a in arith_strategy(), slack in 0u64..50) {
        let p = compile(&a);
        let full = Machine::run_program(p.clone(), Fuel::default());
        let needed = full.steps;
        let bigger = Machine::run_program(p.clone(), Fuel::steps(needed + slack));
        prop_assert_eq!(bigger.outcome, full.outcome.clone());
        let smaller = Machine::run_program(p, Fuel::steps(needed.saturating_sub(1 + slack)));
        prop_assert!(
            smaller.outcome == Outcome::OutOfFuel || smaller.outcome == full.outcome,
            "truncated run produced {:?}", smaller.outcome
        );
    }

    /// Binding is lexical: an inner `lam` that rebinds the same name
    /// shadows the outer binding, and the outer one is visible again after
    /// the inner body has run.
    #[test]
    fn lam_binding_respects_shadowing(n in -50i64..50, m in -50i64..50) {
        // push n, lam x. (push m, lam x. (push x), push x, add)  ==>  m + n
        let inner = Program::single(Instr::lam1("x", Program::single(Instr::push_var("x"))));
        let body = Program::single(Instr::push_num(m))
            .then(inner)
            .then_instr(Instr::push_var(Var::new("x")))
            .then_instr(Instr::Add);
        let p = Program::from(vec![Instr::push_num(n), Instr::lam1("x", body)]);
        let r = Machine::run_program(p, Fuel::default());
        prop_assert_eq!(r.outcome, Outcome::Value(Value::Num(m.wrapping_add(n))));
    }

    /// pack(k) followed by idx recovers each element in push order.
    #[test]
    fn pack_then_index_recovers_elements(values in proptest::collection::vec(-100i64..100, 1..6)) {
        let mut p = Program::empty();
        for v in &values {
            p = p.then_instr(Instr::push_num(*v));
        }
        p = p.then_instr(pack(values.len()));
        for (i, v) in values.iter().enumerate() {
            let q = p.clone().then_instr(dup()).then_instr(Instr::push_num(i as i64)).then_instr(Instr::Idx);
            let r = Machine::run_program(q, Fuel::default());
            prop_assert_eq!(r.outcome, Outcome::Value(Value::Num(*v)));
        }
        // Out-of-bounds indexing raises Idx, never Type.
        let q = p.then_instr(Instr::push_num(values.len() as i64)).then_instr(Instr::Idx);
        let r = Machine::run_program(q, Fuel::default());
        prop_assert_eq!(r.outcome, Outcome::Fail(ErrorCode::Idx));
    }

    /// The Vec-backed slab heap agrees with the map semantics it replaced:
    /// locations are dense, never reused, reads/writes round-trip, and a
    /// reset heap is observationally a fresh one.
    #[test]
    fn slab_heap_matches_map_semantics(
        values in proptest::collection::vec(-100i64..100, 1..20),
        probe in any::<u64>(),
    ) {
        use stacklang::heap::{Heap, Loc};
        use std::collections::BTreeMap;
        let mut heap = Heap::new();
        let mut model: BTreeMap<Loc, i64> = BTreeMap::new();
        for (i, n) in values.iter().enumerate() {
            let l = heap.alloc(Value::Num(*n));
            prop_assert_eq!(l, Loc(i as u64), "allocation is dense and in order");
            prop_assert!(!model.contains_key(&l), "locations are never reused");
            model.insert(l, *n);
        }
        for (l, n) in &model {
            prop_assert_eq!(heap.read(*l), Some(&Value::Num(*n)));
            prop_assert!(heap.write(*l, Value::Num(n + 1)));
            prop_assert_eq!(heap.read(*l), Some(&Value::Num(n + 1)));
        }
        let stray = Loc(probe.max(values.len() as u64));
        prop_assert!(!heap.contains(stray));
        prop_assert_eq!(heap.read(stray), None);
        prop_assert!(!heap.write(stray, Value::Num(0)));
        prop_assert_eq!(heap.len(), model.len());
        prop_assert_eq!(
            heap.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            model.keys().copied().collect::<Vec<_>>(),
            "iteration order matches the old BTreeMap order"
        );
        heap.reset();
        prop_assert_eq!(&heap, &Heap::new(), "reset equals fresh");
        prop_assert_eq!(heap.alloc(Value::Num(0)), Loc(0), "allocation restarts at l0");
    }

    /// Heap operations: a write through one alias is visible through another.
    #[test]
    fn aliased_writes_are_visible(initial in -100i64..100, updated in -100i64..100) {
        // alloc initial; dup; dup; push updated; write; read
        let p = Program::from(vec![
            Instr::push_num(initial),
            Instr::Alloc,
            dup(),
            dup(),
            Instr::push_num(updated),
            Instr::Write,
            Instr::Read,
        ]);
        let r = Machine::run_program(p, Fuel::default());
        prop_assert_eq!(r.outcome, Outcome::Value(Value::Num(updated)));
    }
}
