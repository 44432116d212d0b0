//! The paper's cost claims (§3–§5) as exact counter laws.
//!
//! The paper argues about counts, not time: pointer sharing is free, a proxy
//! pays per access, a dynamic affine guard costs one allocation per call, and
//! `gcmov` moves a cell without copying it.  Each test below builds one
//! parameterised workload, runs it to a value, and asserts its machine steps,
//! heap allocations, heap frees and final live cells equal a closed form in
//! the workload size, for every size in [`SIZES`].  The experiment ids
//! (E1–E6) match `EXPERIMENTS.md`.

use semint::affine::compile::thunk_guard;
use semint::affine::multilang::AffineMultiLang;
use semint::affine::syntax::{AffiExpr, AffiType, MlExpr, MlType};
use semint::lcvm::{self, Expr, Machine};
use semint::memgc::multilang::MemGcMultiLang;
use semint::memgc::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use semint::reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint::sharedmem::convert::{RefStrategy, SharedMemConversions};
use semint::sharedmem::multilang::MultiLang;
use semint::stacklang;
use semint_core::Fuel;

/// The workload sizes every law is checked at.
const SIZES: [u64; 6] = [0, 1, 2, 4, 8, 16];

/// What one run cost: machine steps, heap allocations and frees, and the
/// cells still live in the final heap.
#[derive(Debug, PartialEq)]
struct Cost {
    steps: u64,
    allocs: u64,
    frees: u64,
    live: usize,
}

/// Asserts that a StackLang run ended in a value and returns its cost.
fn stacklang_cost(run: stacklang::RunResult) -> Cost {
    assert!(run.outcome.is_value(), "{:?}", run.outcome);
    Cost {
        steps: run.steps,
        allocs: run.counters.heap_allocs,
        frees: run.counters.heap_frees,
        live: run.heap.len(),
    }
}

/// Asserts that an LCVM run ended in a value and returns its cost.
fn lcvm_cost(run: lcvm::RunResult) -> Cost {
    assert!(run.halt.is_value(), "{:?}", run.halt);
    Cost {
        steps: run.steps,
        allocs: run.counters.heap_allocs,
        frees: run.counters.heap_frees,
        live: run.heap.len(),
    }
}

/// Asserts `measured(n) == law(n)` for every `n` in `sizes`.
fn assert_law(
    name: &str,
    sizes: impl IntoIterator<Item = u64>,
    measured: impl Fn(u64) -> Cost,
    law: impl Fn(u64) -> Cost,
) {
    for n in sizes {
        assert_eq!(measured(n), law(n), "{name} at size {n}");
    }
}

// ---------------------------------------------------------------------------
// E1 — §3 reference-passing strategies
// ---------------------------------------------------------------------------

/// A RefLL program that shares one reference with RefHL and makes `crossings`
/// boundary round trips, each a RefHL write through the alias followed by a
/// RefLL read.
fn shared_ref_workload(crossings: u64) -> LlExpr {
    let mut body = LlExpr::deref(LlExpr::var("cell"));
    for i in 0..crossings {
        let hl_write = HlExpr::assign(
            HlExpr::boundary(LlExpr::var("cell"), HlType::ref_(HlType::Bool)),
            HlExpr::bool_(i % 2 == 0),
        );
        body = LlExpr::add(LlExpr::boundary(hl_write, LlType::Int), body);
    }
    LlExpr::app(
        LlExpr::lam("cell", LlType::ref_(LlType::Int), body),
        LlExpr::ref_(LlExpr::int(0)),
    )
}

/// The same access pattern, but every crossing converts the cell's
/// *contents* (bool ∼ int, both ways) instead of sharing the pointer: the
/// per-access cost of a proxy-based design.
fn proxied_ref_workload(crossings: u64) -> LlExpr {
    let mut body = LlExpr::deref(LlExpr::var("cell"));
    for i in 0..crossings {
        let hl_read = HlExpr::if_(
            HlExpr::boundary(LlExpr::deref(LlExpr::var("cell")), HlType::Bool),
            HlExpr::bool_(i % 2 == 0),
            HlExpr::bool_(i % 2 == 1),
        );
        let write_back =
            LlExpr::assign(LlExpr::var("cell"), LlExpr::boundary(hl_read, LlType::Int));
        body = LlExpr::add(write_back, body);
    }
    LlExpr::app(
        LlExpr::lam("cell", LlType::ref_(LlType::Int), body),
        LlExpr::ref_(LlExpr::int(0)),
    )
}

fn sharedmem_cost(system: &MultiLang, e: &LlExpr) -> Cost {
    stacklang_cost(system.run_ll(e).expect("workload typechecks"))
}

/// Sharing a pointer costs nothing per crossing beyond the RefHL write; a
/// proxied crossing costs 3 steps more; a copying conversion costs one
/// allocation per crossing.
#[test]
fn e1_sharing_is_free_proxies_pay_per_access_copies_pay_per_crossing() {
    let share = MultiLang::new(SharedMemConversions::standard());
    let copy = MultiLang::new(SharedMemConversions::with_ref_strategy(RefStrategy::Copy));
    assert_law(
        "E1 share",
        SIZES,
        |n| sharedmem_cost(&share, &shared_ref_workload(n)),
        |n| Cost {
            steps: 9 * n + 11,
            allocs: 1,
            frees: 0,
            live: 1,
        },
    );
    assert_law(
        "E1 convert per access",
        SIZES,
        |n| sharedmem_cost(&share, &proxied_ref_workload(n)),
        |n| Cost {
            steps: 12 * n + 11,
            allocs: 1,
            frees: 0,
            live: 1,
        },
    );
    assert_law(
        "E1 copy",
        SIZES,
        |n| sharedmem_cost(&copy, &shared_ref_workload(n)),
        |n| Cost {
            steps: 11 * n + 11,
            allocs: n + 1,
            frees: 0,
            live: n as usize + 1,
        },
    );
}

// ---------------------------------------------------------------------------
// E2 — §3 payload conversions (sums ↔ int arrays)
// ---------------------------------------------------------------------------

/// Converts `count` RefHL sums to RefLL arrays (each conversion re-tags the
/// payload and rebuilds a two-element array) and adds up their tags.
fn sum_conversion_workload(count: u64) -> LlExpr {
    let sum_ty = HlType::sum(HlType::Bool, HlType::Bool);
    let mut body = LlExpr::int(0);
    for i in 0..count {
        let hl_sum = if i % 2 == 0 {
            HlExpr::inl(HlExpr::bool_(true), sum_ty.clone())
        } else {
            HlExpr::inr(HlExpr::bool_(false), sum_ty.clone())
        };
        let crossed = LlExpr::index(
            LlExpr::boundary(hl_sum, LlType::array(LlType::Int)),
            LlExpr::int(0),
        );
        body = LlExpr::add(crossed, body);
    }
    body
}

/// The same amount of arithmetic with no boundary at all.
fn sum_conversion_baseline(count: u64) -> LlExpr {
    let mut body = LlExpr::int(0);
    for i in 0..count {
        body = LlExpr::add(LlExpr::int((i % 2) as i64), body);
    }
    body
}

/// Each converted sum costs 25 steps over the baseline and no heap cell:
/// StackLang arrays are stack values.
#[test]
fn e2_each_sum_to_array_conversion_costs_25_steps() {
    let system = MultiLang::new(SharedMemConversions::standard());
    assert_law(
        "E2 convert sums",
        SIZES,
        |n| sharedmem_cost(&system, &sum_conversion_workload(n)),
        |n| Cost {
            steps: 31 * n + 1,
            allocs: 0,
            frees: 0,
            live: 0,
        },
    );
    assert_law(
        "E2 no-boundary baseline",
        SIZES,
        |n| sharedmem_cost(&system, &sum_conversion_baseline(n)),
        |n| Cost {
            steps: 6 * n + 1,
            allocs: 0,
            frees: 0,
            live: 0,
        },
    );
}

// ---------------------------------------------------------------------------
// E3/E4 — §4 static vs dynamic affine enforcement
// ---------------------------------------------------------------------------

/// A chain of `calls` affine identity applications through *dynamic* arrows
/// (one guard per call) or *static* ones.  The dynamic chain is also the
/// paper's footnote-2 ablation, an Affi without the ⊸/⊸• distinction.
fn affine_chain(calls: u64, dynamic: bool) -> AffiExpr {
    let mut expr = AffiExpr::int(1);
    for i in 0..calls {
        let v = format!("x{i}");
        let identity = if dynamic {
            AffiExpr::lam(v.as_str(), AffiType::Int, AffiExpr::avar(v.as_str()))
        } else {
            AffiExpr::lam_static(v.as_str(), AffiType::Int, AffiExpr::avar_static(v.as_str()))
        };
        expr = AffiExpr::app(identity, expr);
    }
    expr
}

/// The chain with every call made from MiniML through the
/// `𝜏1 ⊸ 𝜏2 ∼ (unit → τ1) → τ2` conversion.
fn cross_boundary_affine_chain(calls: u64) -> MlExpr {
    let thunked = MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int);
    let mut expr = MlExpr::int(1);
    for i in 0..calls {
        let v = format!("b{i}");
        let affi_identity = AffiExpr::lam(v.as_str(), AffiType::Int, AffiExpr::avar(v.as_str()));
        expr = MlExpr::app(
            MlExpr::boundary(affi_identity, thunked.clone()),
            MlExpr::lam("_", MlType::Unit, expr),
        );
    }
    expr
}

/// Static arrows cost no allocation; each dynamic call costs one guard (one
/// allocation and 25 steps); a cross-boundary call adds the Fig. 9 wrappers.
#[test]
fn e3_static_arrows_are_free_and_each_dynamic_call_pays_one_guard() {
    let system = AffineMultiLang::new();
    let chain_cost = |n: u64, dynamic: bool| {
        let compiled = system
            .compile_affi(&affine_chain(n, dynamic))
            .expect("chain typechecks");
        let guards = if dynamic { n } else { 0 };
        assert_eq!(compiled.dynamic_guards as u64, guards);
        lcvm_cost(system.run(&compiled))
    };
    assert_law(
        "E3 static chain",
        SIZES,
        |n| chain_cost(n, false),
        |n| Cost {
            steps: 5 * n + 1,
            allocs: 0,
            frees: 0,
            live: 0,
        },
    );
    assert_law(
        "E3 dynamic chain",
        SIZES,
        |n| chain_cost(n, true),
        |n| Cost {
            steps: 30 * n + 1,
            allocs: n,
            frees: 0,
            live: n as usize,
        },
    );
    assert_law(
        "E3 cross-boundary chain",
        SIZES,
        |n| {
            let e = cross_boundary_affine_chain(n);
            lcvm_cost(system.run_ml(&e).expect("chain typechecks"))
        },
        |n| Cost {
            steps: 58 * n + 1,
            allocs: n,
            frees: 0,
            live: n as usize,
        },
    );
}

/// `(λx. x + 1) 41`.
fn raw_call() -> Expr {
    Expr::app(
        Expr::lam("x", Expr::add(Expr::var("x"), Expr::int(1))),
        Expr::int(41),
    )
}

/// `let t = thunk(41) in (λx. x + 1) (t ())`.
fn guarded_call() -> Expr {
    Expr::let_(
        "t",
        thunk_guard(Expr::int(41)),
        Expr::app(
            Expr::lam("x", Expr::add(Expr::var("x"), Expr::int(1))),
            Expr::app(Expr::var("t"), Expr::unit()),
        ),
    )
}

/// `thunk(41); 42`.
fn guard_never_forced() -> Expr {
    Expr::seq(thunk_guard(Expr::int(41)), Expr::int(42))
}

/// One `thunk(·)` guard costs exactly one allocation when created and 25
/// steps when created and forced once.
#[test]
fn e4_one_guard_costs_one_allocation_and_25_steps() {
    let run = |e: Expr| lcvm_cost(Machine::run_expr(e, Fuel::default()));
    let raw = Cost {
        steps: 10,
        allocs: 0,
        frees: 0,
        live: 0,
    };
    assert_eq!(run(raw_call()), raw);
    assert_eq!(
        run(guarded_call()),
        Cost {
            steps: raw.steps + 25,
            allocs: raw.allocs + 1,
            live: 1,
            ..raw
        }
    );
    assert_eq!(
        run(guard_never_forced()),
        Cost {
            steps: 9,
            allocs: 1,
            frees: 0,
            live: 1,
        }
    );
}

// ---------------------------------------------------------------------------
// E5 — §5 ownership transfer vs copying
// ---------------------------------------------------------------------------

/// An L3 value of `depth` nested tensor pairs of booleans.
fn l3_nested_payload(depth: u64) -> L3Expr {
    let mut expr = L3Expr::bool_(true);
    for _ in 0..depth {
        expr = L3Expr::pair(expr, L3Expr::bool_(false));
    }
    expr
}

/// The MiniML type matching [`l3_nested_payload`].
fn ml_nested_payload_type(depth: u64) -> PolyType {
    let mut ty = PolyType::Int;
    for _ in 0..depth {
        ty = PolyType::prod(ty, PolyType::Int);
    }
    ty
}

/// L3 allocates the payload in a manual cell, `gcmov` hands the cell to
/// MiniML, and MiniML reads it.
fn transfer_to_ml_workload(depth: u64) -> PolyExpr {
    PolyExpr::deref(PolyExpr::boundary(
        L3Expr::new(l3_nested_payload(depth)),
        PolyType::ref_(ml_nested_payload_type(depth)),
    ))
}

/// The opposite direction, which must copy: MiniML allocates, L3 receives a
/// fresh manual cell and frees it.
fn transfer_to_l3_workload(depth: u64) -> L3Expr {
    let mut ml_payload = PolyExpr::int(1);
    let mut l3_ty = L3Type::Bool;
    for _ in 0..depth {
        ml_payload = PolyExpr::pair(ml_payload, PolyExpr::int(0));
        l3_ty = L3Type::tensor(l3_ty, L3Type::Bool);
    }
    L3Expr::free(L3Expr::boundary(
        PolyExpr::ref_(ml_payload),
        L3Type::ref_like(l3_ty),
    ))
}

/// L3 → MiniML moves the one cell it allocated, at every payload depth;
/// MiniML → L3 copies into a second cell and frees it.  Only the payload
/// conversion grows with depth.
#[test]
fn e5_gcmov_moves_one_cell_at_every_payload_depth() {
    let system = MemGcMultiLang::new();
    let depths = 0..=4;
    assert_law(
        "E5 L3 → MiniML",
        depths.clone(),
        |d| {
            lcvm_cost(
                system
                    .run_ml(&transfer_to_ml_workload(d))
                    .expect("typechecks"),
            )
        },
        |d| Cost {
            steps: 22 * d + 41,
            allocs: 1,
            frees: 0,
            live: 1,
        },
    );
    assert_law(
        "E5 MiniML → L3",
        depths,
        |d| {
            lcvm_cost(
                system
                    .run_l3(&transfer_to_l3_workload(d))
                    .expect("typechecks"),
            )
        },
        |d| Cost {
            steps: 25 * d + 44,
            allocs: 2,
            frees: 1,
            live: 1,
        },
    );
}

// ---------------------------------------------------------------------------
// E6 — §5 garbage-collection pressure vs manual management
// ---------------------------------------------------------------------------

/// Allocates `n` GC'd cells, each read once and garbage straight after, then
/// finishes with an L3 allocation whose compilation calls the collector.
fn gc_pressure_workload(n: u64) -> PolyExpr {
    let mut acc = PolyExpr::int(0);
    for i in 0..n {
        let cell = PolyExpr::ref_(PolyExpr::int(i as i64));
        acc = PolyExpr::add(acc, PolyExpr::deref(cell));
    }
    PolyExpr::add(
        acc,
        PolyExpr::deref(PolyExpr::boundary(
            L3Expr::new(L3Expr::bool_(true)),
            PolyType::ref_(PolyType::Int),
        )),
    )
}

/// The same allocation count handled by L3 `new`/`free`.
fn manual_pressure_workload(n: u64) -> L3Expr {
    let mut e = L3Expr::bool_(true);
    for _ in 0..n {
        e = L3Expr::if_(
            L3Expr::free(L3Expr::new(e)),
            L3Expr::bool_(true),
            L3Expr::bool_(false),
        );
    }
    e
}

/// The manual pipeline frees every cell it allocates; the GC'd pipeline
/// allocates one cell per reference plus the L3 `new`, and the collector
/// frees all but the one still reachable.
#[test]
fn e6_manual_memory_leaves_nothing_and_the_collector_leaves_one_cell() {
    let system = MemGcMultiLang::new();
    assert_law(
        "E6 manual new/free",
        SIZES,
        |n| {
            lcvm_cost(
                system
                    .run_l3(&manual_pressure_workload(n))
                    .expect("typechecks"),
            )
        },
        |n| Cost {
            steps: 32 * n + 1,
            allocs: n,
            frees: n,
            live: 0,
        },
    );
    assert_law(
        "E6 GC'd allocation",
        SIZES,
        |n| lcvm_cost(system.run_ml(&gc_pressure_workload(n)).expect("typechecks")),
        |n| Cost {
            steps: 8 * n + 45,
            allocs: n + 1,
            frees: n,
            live: 1,
        },
    );
}
