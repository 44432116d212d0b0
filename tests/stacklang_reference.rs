//! The StackLang environment machine against the literal Fig. 2 machine.
//!
//! `stacklang::Machine` runs shared code under environments: `lam` binds,
//! `push x` looks up, and a thunk pushed at run time closes over the scope
//! it was pushed in.  The figure instead substitutes: `lam` writes the
//! popped values into its body, and `if0` and `call` splice instructions
//! into the remaining program.  This file keeps that machine, as written,
//! as the test-only reference, and requires the two to agree on
//!
//! * the outcome, with closures read back to their substituted thunk,
//! * the step count,
//! * every `VmCounters` field,
//! * the final heap and the final stack (read back the same way),
//!
//! over every sharedmem scenario of a seed range under four profiles, over
//! the program shapes the model checker runs (glue applied to sampled
//! values, and `push arg, push thunk, call` on the functions scenarios
//! return), and over hand-written scoping edge cases.
//!
//! The agreement holds for closed programs.  On a program with free
//! variables the figure's substitution is not capture-avoiding: an open
//! value substituted under a binder of one of its free names gets captured
//! by it.  The environment machine is lexical there;
//! `substitution_captures_free_names_of_open_values` pins the difference.
//!
//! The release-mode CI step runs the `#[ignore]`d wider sweep with
//! `cargo test --release --test stacklang_reference -- --ignored`.

use semint::core::case::{CaseStudy, GenProfile};
use semint::core::{ErrorCode, Fuel, OpClass, Outcome, Var, VmCounters};
use semint::reflang::syntax::{HlType, LlType};
use semint::sharedmem::convert::{RefStrategy, SharedMemConversions};
use semint::sharedmem::harness::SharedMemCase;
use semint::sharedmem::model::{ModelChecker, SemType};
use semint::sharedmem::multilang::SourceType;
use semint::stacklang::builder::{drop_top, dup, pack, swap};
use semint::stacklang::{
    Block, Closure, Heap, Instr, Machine, Operand, Program, RunResult, StackState, Value,
};
use std::ops::Range;

// ---------------------------------------------------------------------------
// The reference: Fig. 2 with substitution.
// ---------------------------------------------------------------------------

/// `⟨H; S; P⟩` with `P` held reversed, so the next instruction is a pop.
/// Thunk values carry their substituted program (a closure with no
/// bindings).
struct Reference {
    heap: Heap,
    stack: StackState,
    control: Vec<Instr>,
    steps: u64,
    counters: VmCounters,
}

impl Reference {
    fn new(heap: Heap, program: &Program) -> Reference {
        let mut control = program.instrs().to_vec();
        control.reverse();
        Reference {
            heap,
            stack: StackState::empty(),
            control,
            steps: 0,
            counters: VmCounters::new(),
        }
    }

    fn run_program(program: &Program, fuel: Fuel) -> RunResult {
        Reference::new(Heap::new(), program).run(fuel)
    }

    fn is_terminal(&self) -> bool {
        self.control.is_empty() || matches!(self.stack, StackState::Fail(_))
    }

    /// The remaining program, in execution order.
    fn remaining_program(&self) -> Program {
        self.control.iter().rev().cloned().collect()
    }

    fn fail(&mut self, code: ErrorCode) {
        self.stack = StackState::Fail(code);
        self.control.clear();
    }

    fn push_program(&mut self, instrs: &[Instr]) {
        self.control.extend(instrs.iter().rev().cloned());
    }

    fn pop(&mut self) -> Option<Value> {
        match &mut self.stack {
            StackState::Values(vs) => vs.pop(),
            StackState::Fail(_) => None,
        }
    }

    fn push(&mut self, v: Value) {
        if let StackState::Values(vs) = &mut self.stack {
            vs.push(v);
        }
    }

    fn step(&mut self) {
        let instr = self.control.pop().expect("a non-terminal machine");
        self.steps += 1;
        self.counters.retire(classify(&instr));
        match instr {
            Instr::Push(op) => match literal(&op) {
                Some(v) => self.push(v),
                None => self.fail(ErrorCode::Type),
            },
            Instr::Add => match (self.pop(), self.pop()) {
                (Some(Value::Num(n1)), Some(Value::Num(n))) => {
                    self.push(Value::Num(n.wrapping_add(n1)))
                }
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Less => match (self.pop(), self.pop()) {
                (Some(Value::Num(n1)), Some(Value::Num(n))) => {
                    self.push(Value::Num(if n < n1 { 0 } else { 1 }))
                }
                _ => self.fail(ErrorCode::Type),
            },
            Instr::If0(p1, p2) => match self.pop() {
                Some(Value::Num(0)) => self.push_program(&p1),
                Some(Value::Num(_)) => self.push_program(&p2),
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Lam(xs, body) => {
                let mut popped = Vec::with_capacity(xs.len());
                for _ in xs.iter() {
                    match self.pop() {
                        Some(v) => popped.push(v),
                        None => return self.fail(ErrorCode::Type),
                    }
                }
                let mut body = body.to_vec();
                for (x, v) in xs.iter().zip(&popped) {
                    body = subst(&body, x, v);
                }
                self.push_program(&body);
            }
            Instr::Call => match self.pop() {
                Some(Value::Thunk(c)) => {
                    assert!(c.env().is_empty(), "reference thunks are substituted");
                    self.push_program(c.code());
                }
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Idx => match (self.pop(), self.pop()) {
                (Some(Value::Num(n)), Some(Value::Array(vs))) => {
                    if n >= 0 && (n as usize) < vs.len() {
                        self.push(vs[n as usize].clone());
                    } else {
                        self.fail(ErrorCode::Idx);
                    }
                }
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Len => match self.pop() {
                Some(Value::Array(vs)) => self.push(Value::Num(vs.len() as i64)),
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Alloc => match self.pop() {
                Some(v) => {
                    let l = self.heap.alloc(v);
                    self.push(Value::Loc(l));
                }
                None => self.fail(ErrorCode::Type),
            },
            Instr::Read => match self.pop() {
                Some(Value::Loc(l)) => match self.heap.read(l) {
                    Some(v) => {
                        let v = v.clone();
                        self.push(v);
                    }
                    None => self.fail(ErrorCode::Type),
                },
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Write => match (self.pop(), self.pop()) {
                (Some(v), Some(Value::Loc(l))) => {
                    if !self.heap.write(l, v) {
                        self.fail(ErrorCode::Type);
                    }
                }
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Fail(c) => self.fail(c),
        }
        if let StackState::Values(vs) = &self.stack {
            self.counters.note_stack_depth(vs.len());
        }
    }

    fn run(mut self, mut fuel: Fuel) -> RunResult {
        while !self.is_terminal() {
            if !fuel.consume() {
                return self.finish(Outcome::OutOfFuel);
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
        self.finish(outcome)
    }

    fn finish(self, outcome: Outcome<Value>) -> RunResult {
        let mut counters = self.counters;
        counters.heap_allocs = self.heap.len() as u64;
        counters.heap_peak_live = self.heap.len() as u64;
        RunResult {
            outcome,
            heap: self.heap,
            stack: self.stack,
            steps: self.steps,
            counters,
        }
    }
}

fn classify(i: &Instr) -> OpClass {
    match i {
        Instr::Push(_) | Instr::Add | Instr::Less | Instr::Idx | Instr::Len => OpClass::Data,
        Instr::If0(..) | Instr::Fail(_) => OpClass::Control,
        Instr::Lam(..) | Instr::Call => OpClass::Fun,
        Instr::Alloc | Instr::Read | Instr::Write => OpClass::Heap,
    }
}

/// A fully substituted operand as a value; `None` if a variable remains.
fn literal(op: &Operand) -> Option<Value> {
    match op {
        Operand::Lit(v) => Some(v.clone()),
        Operand::Var(_) => None,
        Operand::Array(ops) => ops
            .iter()
            .map(literal)
            .collect::<Option<Vec<_>>>()
            .map(Value::array),
    }
}

/// `[x ↦ v]P`: replaces free `push x` operands, descending into `if0`
/// branches, `lam` bodies that do not rebind `x`, and thunk literals.
fn subst(p: &[Instr], x: &Var, v: &Value) -> Vec<Instr> {
    p.iter().map(|i| subst_instr(i, x, v)).collect()
}

fn subst_instr(i: &Instr, x: &Var, v: &Value) -> Instr {
    match i {
        Instr::Push(op) => Instr::Push(subst_operand(op, x, v)),
        Instr::If0(p1, p2) => Instr::If0(subst(p1, x, v).into(), subst(p2, x, v).into()),
        Instr::Lam(xs, body) if !xs.contains(x) => Instr::Lam(xs.clone(), subst(body, x, v).into()),
        other => other.clone(),
    }
}

fn subst_operand(op: &Operand, x: &Var, v: &Value) -> Operand {
    match op {
        Operand::Var(y) if y == x => Operand::Lit(v.clone()),
        Operand::Var(y) => Operand::Var(y.clone()),
        Operand::Lit(w) => Operand::Lit(subst_value(w, x, v)),
        Operand::Array(ops) => Operand::Array(ops.iter().map(|o| subst_operand(o, x, v)).collect()),
    }
}

fn subst_value(w: &Value, x: &Var, v: &Value) -> Value {
    match w {
        Value::Thunk(c) => {
            assert!(c.env().is_empty(), "reference thunks are substituted");
            Value::thunk(subst(c.code(), x, v))
        }
        Value::Array(ws) => Value::array(ws.iter().map(|w| subst_value(w, x, v))),
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------------
// Read-back: closures to the thunks substitution would have built.
// ---------------------------------------------------------------------------

/// A value with every closure replaced by its substituted thunk: literal
/// thunks in the code first (their own bindings are innermost), then the
/// closure's bindings, innermost first.
fn readback(v: &Value) -> Value {
    match v {
        Value::Thunk(c) => {
            let mut code = readback_code(c.code());
            for (x, w) in c.env().iter() {
                code = subst(&code, x, &readback(w));
            }
            Value::thunk(code)
        }
        Value::Array(vs) => Value::array(vs.iter().map(readback)),
        other => other.clone(),
    }
}

fn readback_code(code: &[Instr]) -> Vec<Instr> {
    code.iter()
        .map(|i| match i {
            Instr::Push(op) => Instr::Push(readback_operand(op)),
            Instr::If0(p1, p2) => Instr::If0(readback_code(p1).into(), readback_code(p2).into()),
            Instr::Lam(xs, body) => Instr::Lam(xs.clone(), readback_code(body).into()),
            other => other.clone(),
        })
        .collect()
}

fn readback_operand(op: &Operand) -> Operand {
    match op {
        Operand::Lit(v) => Operand::Lit(readback(v)),
        Operand::Var(x) => Operand::Var(x.clone()),
        Operand::Array(ops) => Operand::Array(ops.iter().map(readback_operand).collect()),
    }
}

fn readback_heap(heap: &Heap) -> Heap {
    let mut out = Heap::new();
    for (_, v) in heap.iter() {
        out.alloc(readback(v));
    }
    out
}

fn readback_result(r: &RunResult) -> RunResult {
    RunResult {
        outcome: match &r.outcome {
            Outcome::Value(v) => Outcome::Value(readback(v)),
            other => other.clone(),
        },
        heap: readback_heap(&r.heap),
        stack: match &r.stack {
            StackState::Values(vs) => StackState::Values(vs.iter().map(readback).collect()),
            failed => failed.clone(),
        },
        steps: r.steps,
        counters: r.counters,
    }
}

/// True if a closure with bindings occurs in the value.
fn has_bound_closure(v: &Value) -> bool {
    match v {
        Value::Thunk(c) => !c.env().is_empty(),
        Value::Array(vs) => vs.iter().any(has_bound_closure),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Agreement.
// ---------------------------------------------------------------------------

/// What a differential run exercised, so the tests can insist the
/// interesting paths were reached.
#[derive(Debug, Default)]
struct Coverage {
    runs: usize,
    steps: u64,
    fun_steps: u64,
    bound_closures: usize,
}

/// Runs `program` from `heap` on both machines and asserts they agree;
/// returns both results (the environment machine's unread).
fn agree(
    label: &str,
    heap: &Heap,
    program: &Program,
    reference_program: &Program,
    fuel: Fuel,
    cov: &mut Coverage,
) -> (RunResult, RunResult) {
    let env = Machine::with_state(heap.clone(), StackState::empty(), program.clone()).run(fuel);
    let reference = Reference::new(readback_heap(heap), reference_program).run(fuel);
    let read = readback_result(&env);
    assert_eq!(read.outcome, reference.outcome, "{label}: outcome");
    assert_eq!(read.steps, reference.steps, "{label}: steps");
    assert_eq!(read.counters, reference.counters, "{label}: counters");
    assert_eq!(read.heap, reference.heap, "{label}: heap");
    assert_eq!(read.stack, reference.stack, "{label}: stack");
    if let (Outcome::Value(v), Outcome::Value(w)) = (&env.outcome, &reference.outcome) {
        assert_eq!(
            v.to_string(),
            w.to_string(),
            "{label}: a closure renders as its thunk"
        );
    }
    cov.runs += 1;
    cov.steps += env.steps;
    cov.fun_steps += env.counters.instr_fun;
    let values = env.stack.values().unwrap_or_default();
    cov.bound_closures += values
        .iter()
        .chain(env.heap.iter().map(|(_, v)| v))
        .filter(|v| has_bound_closure(v))
        .count();
    (env, reference)
}

/// Both machines on one closed program from the empty configuration.
fn agree_closed(
    label: &str,
    program: &Program,
    fuel: Fuel,
    cov: &mut Coverage,
) -> (RunResult, RunResult) {
    agree(label, &Heap::new(), program, program, fuel, cov)
}

/// The domain of a scenario's function type, if it has one.
fn domain(ty: &SourceType) -> Option<SemType> {
    match ty {
        SourceType::Hl(HlType::Fun(a, _)) => Some(SemType::Hl((**a).clone())),
        SourceType::Ll(LlType::Fun(a, _)) => Some(SemType::Ll((**a).clone())),
        _ => None,
    }
}

/// Every sharedmem scenario of `seeds` under `profile`, and each function
/// a scenario returns applied to the model checker's sample arguments the
/// way it applies them: `push arg, push thunk, call`, in the heap the
/// scenario left behind.
fn scenarios_agree(profile_name: &str, seeds: Range<u64>, cov: &mut Coverage) {
    let profile = GenProfile::by_name(profile_name).expect("a preset profile");
    let case = SharedMemCase::standard();
    let checker = ModelChecker::default();
    for seed in seeds {
        let scenario = case.generate(seed, &profile);
        let program = case
            .compile(&scenario.program)
            .expect("generated programs compile");
        let label = format!("{profile_name} seed {seed}");
        let (env, reference) = agree_closed(&label, &program, profile.fuel, cov);
        let (Outcome::Value(f @ Value::Thunk(_)), Outcome::Value(g)) =
            (&env.outcome, &reference.outcome)
        else {
            continue;
        };
        let Some(dom) = domain(&scenario.ty) else {
            continue;
        };
        for (i, arg) in checker.sample_values(&dom, 1).into_iter().enumerate() {
            let apply = |thunk: &Value| {
                Program::from(vec![
                    Instr::push_val(arg.clone()),
                    Instr::push_val(thunk.clone()),
                    Instr::Call,
                ])
            };
            agree(
                &format!("{label}, applied to sample {i} ({arg})"),
                &env.heap,
                &apply(f),
                &apply(g),
                Fuel::steps(20_000),
                cov,
            );
        }
    }
}

/// The convertibility rules `semint check` exercises, both strategies.
fn glue_catalogue() -> Vec<(SharedMemConversions, HlType, LlType)> {
    let hl = [
        HlType::Bool,
        HlType::Unit,
        HlType::ref_(HlType::Bool),
        HlType::sum(HlType::Bool, HlType::Bool),
        HlType::sum(HlType::Unit, HlType::Bool),
        HlType::prod(HlType::Bool, HlType::Unit),
        HlType::prod(HlType::sum(HlType::Bool, HlType::Unit), HlType::Bool),
        HlType::ref_(HlType::prod(HlType::Bool, HlType::Bool)),
    ];
    let ll = [
        LlType::Int,
        LlType::ref_(LlType::Int),
        LlType::array(LlType::Int),
        LlType::array(LlType::array(LlType::Int)),
        LlType::ref_(LlType::array(LlType::Int)),
    ];
    let mut out = Vec::new();
    for strategy in [RefStrategy::Share, RefStrategy::Copy] {
        let rules = SharedMemConversions::with_ref_strategy(strategy);
        for h in &hl {
            for l in &ll {
                if rules.derive(h, l).is_some() {
                    out.push((rules.clone(), h.clone(), l.clone()));
                }
            }
        }
    }
    out
}

/// Glue applied to sampled values, as `check_direction` runs it: `push v,
/// glue` from the empty heap, and `push ℓ, glue` with `ℓ` holding a sampled
/// payload for reference types.
fn glue_agrees(cov: &mut Coverage) {
    let checker = ModelChecker::default();
    let catalogue = glue_catalogue();
    assert!(
        catalogue.len() >= 8,
        "the catalogue derives rules: {}",
        catalogue.len()
    );
    for (rules, hl, ll) in catalogue {
        let (to_ll, to_hl) = rules.derive(&hl, &ll).expect("derivable");
        for (from, glue) in [
            (SemType::Hl(hl.clone()), to_ll),
            (SemType::Ll(ll.clone()), to_hl),
        ] {
            let label = format!("C_{{{from}}} for {hl} ∼ {ll} ({:?})", rules.ref_strategy());
            for v in checker.sample_values(&from, checker.fun_depth) {
                let program = Program::single(Instr::push_val(v.clone())).then(glue.clone());
                agree_closed(
                    &format!("{label} on {v}"),
                    &program,
                    Fuel::steps(10_000),
                    cov,
                );
            }
            let payload = match &from {
                SemType::Hl(HlType::Ref(t)) => SemType::Hl((**t).clone()),
                SemType::Ll(LlType::Ref(t)) => SemType::Ll((**t).clone()),
                _ => continue,
            };
            for pv in checker.sample_values(&payload, checker.fun_depth) {
                let mut heap = Heap::new();
                let l = heap.alloc(pv.clone());
                let program = Program::single(Instr::push_val(Value::Loc(l))).then(glue.clone());
                agree(
                    &format!("{label} on ℓ ↦ {pv}"),
                    &heap,
                    &program,
                    &program,
                    Fuel::steps(10_000),
                    cov,
                );
            }
        }
    }
}

fn sweep(seeds: Range<u64>) -> Coverage {
    let mut cov = Coverage::default();
    for profile in GenProfile::PRESET_NAMES {
        scenarios_agree(profile, seeds.clone(), &mut cov);
    }
    glue_agrees(&mut cov);
    cov
}

#[test]
fn environment_machine_agrees_with_substitution_on_scenarios_and_model_check_shapes() {
    let cov = sweep(0..1_000);
    assert!(cov.runs > 4 * 1_000, "{cov:?}");
    assert!(cov.fun_steps > 5_000, "lam and call ran: {cov:?}");
    assert!(
        cov.bound_closures > 0,
        "closures with bindings were read back: {cov:?}"
    );
}

/// The same agreement over a wider seed range; CI runs it in release mode.
#[test]
#[ignore = "wide sweep; run in release mode with --ignored"]
fn environment_machine_agrees_with_substitution_on_20000_seeds_per_profile() {
    let cov = sweep(0..20_000);
    assert!(cov.bound_closures > 0, "{cov:?}");
    eprintln!("{cov:?}");
}

// ---------------------------------------------------------------------------
// Hand-written edge cases.
// ---------------------------------------------------------------------------

fn num(n: i64) -> Instr {
    Instr::push_num(n)
}

fn var(x: &str) -> Instr {
    Instr::push_var(x)
}

fn lam(xs: &[&str], body: Vec<Instr>) -> Instr {
    Instr::lam(xs.iter().map(Var::new), Program::from(body))
}

fn thunk(body: Vec<Instr>) -> Instr {
    Instr::push_thunk(Program::from(body))
}

fn if0(zero: Vec<Instr>, nonzero: Vec<Instr>) -> Instr {
    Instr::if0(Program::from(zero), Program::from(nonzero))
}

fn check(label: &str, program: Vec<Instr>, expected: Outcome<Value>) {
    let program = Program::from(program);
    let (env, _) = agree_closed(
        label,
        &program,
        Fuel::steps(10_000),
        &mut Coverage::default(),
    );
    assert_eq!(readback_result(&env).outcome, expected, "{label}");
}

#[test]
fn a_thunk_reads_the_scope_it_was_pushed_in_not_the_one_it_is_called_in() {
    // push 1, lam x. (push thunk {push x}, push 2, lam x. (call))  ==>  1
    check(
        "call under a binder of the same name",
        vec![
            num(1),
            lam(
                &["x"],
                vec![
                    thunk(vec![var("x")]),
                    num(2),
                    lam(&["x"], vec![Instr::Call]),
                ],
            ),
        ],
        Outcome::Value(Value::Num(1)),
    );
    // The thunk escapes its binder's body before it is called.
    check(
        "escaping thunk called under a rebinding",
        vec![
            num(10),
            lam(&["x"], vec![thunk(vec![var("x"), num(5), Instr::Add])]),
            num(99),
            lam(&["x", "f"], vec![var("f"), Instr::Call]),
        ],
        Outcome::Value(Value::Num(15)),
    );
    // The same thunk literal pushed in two scopes makes two closures.
    check(
        "one literal, two scopes",
        vec![
            num(1),
            lam(&["y"], vec![thunk(vec![var("y")])]),
            num(2),
            lam(&["y"], vec![thunk(vec![var("y")])]),
            Instr::Call,
            lam(&["b"], vec![Instr::Call, var("b"), Instr::Add]),
        ],
        Outcome::Value(Value::Num(3)),
    );
}

#[test]
fn duplicate_binders_bind_the_top_of_the_stack() {
    check(
        "lam x,x",
        vec![num(1), num(2), lam(&["x", "x"], vec![var("x")])],
        Outcome::Value(Value::Num(2)),
    );
    check(
        "lam x,y,x",
        vec![
            num(1),
            num(2),
            num(3),
            lam(&["x", "y", "x"], vec![var("x"), var("y"), Instr::Add]),
        ],
        Outcome::Value(Value::Num(5)),
    );
}

#[test]
fn shadowing_inside_if0_branches() {
    for (cond, expected) in [(0, 20), (1, 1)] {
        check(
            &format!("if0 on {cond}"),
            vec![
                num(1),
                lam(
                    &["x"],
                    vec![
                        num(cond),
                        if0(vec![num(20), lam(&["x"], vec![var("x")])], vec![var("x")]),
                    ],
                ),
            ],
            Outcome::Value(Value::Num(expected)),
        );
    }
    // A branch's binding ends with the branch.
    check(
        "binding scoped to the branch",
        vec![
            num(1),
            lam(
                &["x"],
                vec![
                    num(0),
                    if0(vec![num(7), lam(&["x"], vec![])], vec![]),
                    var("x"),
                ],
            ),
        ],
        Outcome::Value(Value::Num(1)),
    );
}

#[test]
fn array_templates_read_the_bindings_in_scope() {
    check(
        "push [x, [y, 3], x]",
        vec![
            num(1),
            num(2),
            lam(
                &["y", "x"],
                vec![Instr::Push(Operand::Array(vec![
                    Operand::Var(Var::new("x")),
                    Operand::Array(vec![
                        Operand::Var(Var::new("y")),
                        Operand::Lit(Value::Num(3)),
                    ]),
                    Operand::Var(Var::new("x")),
                ]))],
            ),
        ],
        Outcome::Value(Value::array([
            Value::Num(1),
            Value::array([Value::Num(2), Value::Num(3)]),
            Value::Num(1),
        ])),
    );
    // A thunk inside a template literal closes over the scope too.
    let template = Operand::Array(vec![
        Operand::Lit(Value::thunk(Program::single(var("x")))),
        Operand::Var(Var::new("x")),
    ]);
    check(
        "thunk in a template",
        vec![
            num(4),
            lam(&["x"], vec![Instr::Push(template)]),
            num(0),
            Instr::Idx,
            Instr::Call,
        ],
        Outcome::Value(Value::Num(4)),
    );
    check(
        "unbound template variable",
        vec![Instr::Push(Operand::Array(vec![Operand::Var(Var::new(
            "nope",
        ))]))],
        Outcome::Fail(ErrorCode::Type),
    );
}

#[test]
fn closures_stored_to_the_heap_and_read_back_keep_their_scope() {
    // let r = ref (λ. x) with x = 6; x = 7 in scope when it is read and
    // called: still 6.
    check(
        "heap round trip",
        vec![
            num(6),
            lam(&["x"], vec![thunk(vec![var("x")]), Instr::Alloc]),
            num(7),
            lam(
                &["x", "r"],
                vec![var("r"), Instr::Read, Instr::Call, var("x"), Instr::Add],
            ),
        ],
        Outcome::Value(Value::Num(13)),
    );
    // Overwrite the cell with a closure from another scope.
    check(
        "write then read",
        vec![
            num(0),
            Instr::Alloc,
            dup(),
            num(3),
            lam(&["x"], vec![thunk(vec![var("x"), var("x"), Instr::Add])]),
            Instr::Write,
            Instr::Read,
            Instr::Call,
        ],
        Outcome::Value(Value::Num(6)),
    );
}

#[test]
fn the_stack_macros_and_failures_agree() {
    check(
        "swap",
        vec![num(1), num(2), swap()],
        Outcome::Value(Value::Num(1)),
    );
    check(
        "dup",
        vec![num(2), dup(), Instr::Add],
        Outcome::Value(Value::Num(4)),
    );
    check(
        "drop",
        vec![num(1), num(2), drop_top()],
        Outcome::Value(Value::Num(1)),
    );
    check(
        "pack underflow",
        vec![num(1), pack(2)],
        Outcome::Fail(ErrorCode::Type),
    );
    check(
        "unbound variable",
        vec![var("x")],
        Outcome::Fail(ErrorCode::Type),
    );
    check(
        "call a number",
        vec![num(1), Instr::Call],
        Outcome::Fail(ErrorCode::Type),
    );
    check(
        "idx out of range",
        vec![num(1), pack(1), num(3), Instr::Idx],
        Outcome::Fail(ErrorCode::Idx),
    );
    check(
        "fail inside a called thunk",
        vec![
            thunk(vec![num(1), Instr::Fail(ErrorCode::Conv), num(2)]),
            Instr::Call,
            num(3),
        ],
        Outcome::Fail(ErrorCode::Conv),
    );
    check("empty program", vec![], Outcome::Fail(ErrorCode::Type));
}

#[test]
fn both_machines_stop_at_the_same_step_when_fuel_runs_out() {
    let program = Program::from(vec![
        num(1),
        lam(
            &["x"],
            vec![
                thunk(vec![var("x"), dup(), Instr::Add]),
                Instr::Call,
                swap(),
            ],
        ),
        num(2),
        swap(),
    ]);
    let full = Machine::run_program(program.clone(), Fuel::default()).steps;
    for fuel in 0..=full + 1 {
        let mut cov = Coverage::default();
        let (env, reference) = agree_closed(
            &format!("fuel {fuel}"),
            &program,
            Fuel::steps(fuel),
            &mut cov,
        );
        assert_eq!(env.steps, fuel.min(full));
        // Where the reference stopped, its remaining program is the
        // environment machine's unrun code with the scope substituted.
        let mut stepped = Reference::new(Heap::new(), &program);
        for _ in 0..env.steps {
            stepped.step();
        }
        assert_eq!(stepped.steps, reference.steps);
        assert_eq!(
            stepped.remaining_program().is_empty(),
            env.outcome != Outcome::OutOfFuel
        );
    }
}

#[test]
fn substitution_captures_free_names_of_open_values() {
    // An open thunk bound to f and called under a binder of its free name:
    // substitution puts `thunk {push x}` under `lam x`, which then
    // substitutes into it (dynamic capture); the environment machine keeps
    // the thunk's own, empty scope.
    let program = Program::from(vec![
        thunk(vec![var("x")]),
        lam(
            &["f"],
            vec![num(5), lam(&["x"], vec![var("f"), Instr::Call])],
        ),
    ]);
    assert!(!program.is_closed());
    let reference = Reference::run_program(&program, Fuel::steps(100));
    let env = Machine::run_program(program, Fuel::steps(100));
    assert_eq!(reference.outcome, Outcome::Value(Value::Num(5)));
    assert_eq!(env.outcome, Outcome::Fail(ErrorCode::Type));
}

#[test]
fn readback_substitutes_bindings_innermost_first() {
    let closure = Machine::run_program(
        Program::from(vec![
            num(1),
            num(2),
            lam(
                &["x", "y"],
                vec![thunk(vec![var("x"), var("y"), lam(&["x"], vec![var("x")])])],
            ),
        ]),
        Fuel::default(),
    )
    .outcome
    .value()
    .expect("a closure");
    let Value::Thunk(c) = &closure else {
        panic!("not a thunk: {closure}")
    };
    assert!(!c.env().is_empty());
    let expected = Value::thunk(Program::from(vec![
        num(2),
        num(1),
        lam(&["x"], vec![var("x")]),
    ]));
    assert_eq!(readback(&closure), expected);
    assert_eq!(closure.to_string(), expected.to_string());
    assert_eq!(
        closure.to_string(),
        "thunk {push 2, push 1, lam x. (push x)}"
    );
    // A closure with no bindings reads back to itself.
    let bare = Value::Thunk(Closure::new(Block::from(vec![num(3)])));
    assert_eq!(readback(&bare), bare);
}
