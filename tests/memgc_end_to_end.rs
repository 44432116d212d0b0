//! Cross-crate integration tests for case study 3 (§5): ownership transfer
//! between manual and GC'd memory, and polymorphism over foreign types.

use proptest::prelude::*;
use semint::core::Fuel;
use semint::lcvm::{Halt, RunResult, Value};
use semint::memgc::model::MemGcModelChecker;
use semint::memgc::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use semint::memgc::{MemGcCase, MgProgram};

/// Type checks, compiles and runs a closed MiniML program.
fn run_ml(e: &PolyExpr) -> Result<RunResult, String> {
    MemGcCase::standard().run(&MgProgram::Ml(e.clone()), Fuel::default())
}

/// Type checks, compiles and runs a closed L3 program.
fn run_l3(e: &L3Expr) -> Result<RunResult, String> {
    MemGcCase::standard().run(&MgProgram::L3(e.clone()), Fuel::default())
}

#[test]
fn a_full_tour_allocate_in_l3_mutate_in_miniml_collect() {
    // L3 allocates, MiniML takes ownership, mutates, drops the reference and
    // allocates more; the transferred cell becomes garbage and is collected
    // the next time L3 allocates (which calls the GC).
    let tour = PolyExpr::snd(PolyExpr::pair(
        // First transfer: mutate then discard.
        PolyExpr::app(
            PolyExpr::lam(
                "r",
                PolyType::ref_(PolyType::Int),
                PolyExpr::assign(PolyExpr::var("r"), PolyExpr::int(99)),
            ),
            PolyExpr::boundary(
                L3Expr::new(L3Expr::bool_(true)),
                PolyType::ref_(PolyType::Int),
            ),
        ),
        // Second transfer: its `new` runs callgc, reclaiming the first cell.
        PolyExpr::deref(PolyExpr::boundary(
            L3Expr::new(L3Expr::bool_(false)),
            PolyType::ref_(PolyType::Int),
        )),
    ));
    let r = run_ml(&tour).unwrap();
    assert_eq!(r.halt, Halt::Value(Value::Int(1)));
    assert_eq!(r.heap.stats().manual_allocs, 2);
    assert_eq!(r.heap.stats().gcmovs, 2);
    assert!(r.heap.stats().gc_runs >= 2);
    assert!(
        r.heap.stats().collected >= 1,
        "the discarded transferred cell should have been reclaimed (collected {})",
        r.heap.stats().collected
    );
}

#[test]
fn l3_uses_a_miniml_generic_library() {
    // MiniML exports a polymorphic "swap" on pairs; L3 instantiates it at
    // ⟨bool⟩ and runs its own booleans through it.
    let swap_pair = PolyExpr::tylam(
        "α",
        PolyExpr::lam(
            "p",
            PolyType::prod(PolyType::tvar("α"), PolyType::tvar("α")),
            PolyExpr::pair(
                PolyExpr::snd(PolyExpr::var("p")),
                PolyExpr::fst(PolyExpr::var("p")),
            ),
        ),
    );
    let fb = PolyType::foreign(L3Type::Bool);
    let swapped = PolyExpr::app(
        PolyExpr::tyapp(swap_pair, fb.clone()),
        PolyExpr::pair(
            PolyExpr::boundary(L3Expr::bool_(true), fb.clone()),
            PolyExpr::boundary(L3Expr::bool_(false), fb.clone()),
        ),
    );
    // Take the first component of the swapped pair back into L3 and branch.
    let use_in_l3 = L3Expr::if_(
        L3Expr::boundary(PolyExpr::fst(swapped), L3Type::Bool),
        L3Expr::bool_(false),
        L3Expr::bool_(true),
    );
    let r = run_l3(&use_in_l3).unwrap();
    // fst of the swapped pair is the original second component: false (1), so
    // the else-branch returns true (0).
    assert_eq!(r.halt, Halt::Value(Value::Int(0)));
}

#[test]
fn transfer_soundness_over_a_payload_catalogue() {
    let checker = MemGcModelChecker::new();
    let catalogue = vec![
        (PolyType::Int, L3Type::Bool, Value::Int(0)),
        (PolyType::Int, L3Type::Bool, Value::Int(1)),
        (PolyType::Unit, L3Type::Unit, Value::Unit),
        (PolyType::foreign(L3Type::Bool), L3Type::Bool, Value::Int(1)),
        (
            PolyType::prod(PolyType::Int, PolyType::Unit),
            L3Type::tensor(L3Type::Bool, L3Type::Unit),
            Value::Pair(Box::new(Value::Int(0)), Box::new(Value::Unit)),
        ),
    ];
    for (ml, l3, v) in catalogue {
        checker
            .check_transfer_soundness(&ml, &l3, v)
            .unwrap_or_else(|ce| panic!("transfer soundness failed for ref {ml} ∼ REF {l3}: {ce}"));
    }
}

#[test]
fn double_transfer_keeps_the_same_location_alive() {
    // L3 → MiniML → L3 → MiniML: the first hop moves, the second copies, the
    // third moves again; contents survive every hop.
    let hop1 = PolyExpr::boundary(
        L3Expr::new(L3Expr::bool_(true)),
        PolyType::ref_(PolyType::Int),
    );
    let hop2 = L3Expr::boundary(hop1, L3Type::ref_like(L3Type::Bool));
    let hop3 = PolyExpr::boundary(hop2, PolyType::ref_(PolyType::Int));
    let read = PolyExpr::deref(hop3);
    let r = run_ml(&read).unwrap();
    assert_eq!(r.halt, Halt::Value(Value::Int(0)));
    assert_eq!(r.heap.stats().gcmovs, 2, "two L3→MiniML hops");
    assert_eq!(
        r.heap.stats().manual_allocs,
        2,
        "the initial new plus one copy"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any integer stored by MiniML and handed to L3 as a boolean is
    /// normalised to {0,1}; handing it back preserves it exactly.
    #[test]
    fn reference_payload_normalisation(n in any::<i64>()) {
            let e = L3Expr::free(L3Expr::boundary(
            PolyExpr::ref_(PolyExpr::int(n)),
            L3Type::ref_like(L3Type::Bool),
        ));
        let r = run_l3(&e).unwrap();
        let expected = if n == 0 { 0 } else { 1 };
        prop_assert_eq!(r.halt, Halt::Value(Value::Int(expected)));
    }

    /// Transferring a cell L3 → MiniML and reading it gives exactly the L3
    /// boolean that was stored, for either boolean.
    #[test]
    fn transfer_preserves_contents(b in any::<bool>(), write_back in proptest::option::of(-100i64..100)) {
            let read_or_update = match write_back {
            None => PolyExpr::deref(PolyExpr::boundary(
                L3Expr::new(L3Expr::bool_(b)),
                PolyType::ref_(PolyType::Int),
            )),
            Some(n) => PolyExpr::app(
                PolyExpr::lam(
                    "r",
                    PolyType::ref_(PolyType::Int),
                    PolyExpr::snd(PolyExpr::pair(
                        PolyExpr::assign(PolyExpr::var("r"), PolyExpr::int(n)),
                        PolyExpr::deref(PolyExpr::var("r")),
                    )),
                ),
                PolyExpr::boundary(L3Expr::new(L3Expr::bool_(b)), PolyType::ref_(PolyType::Int)),
            ),
        };
        let r = run_ml(&read_or_update).unwrap();
        let expected = match write_back {
            None => {
                if b {
                    0
                } else {
                    1
                }
            }
            Some(n) => n,
        };
        prop_assert_eq!(r.halt, Halt::Value(Value::Int(expected)));
        prop_assert_eq!(r.heap.stats().gc_allocs, 0, "transfers never copy");
    }

    /// Well-typed L3 allocation/deallocation pipelines of arbitrary depth
    /// leave no manual memory behind and never fail.
    #[test]
    fn nested_new_free_pipelines_are_leak_free(depth in 1usize..8) {
        // free (new (free (new ( … bool … ))))
        let mut e = L3Expr::bool_(true);
        for _ in 0..depth {
            e = L3Expr::free(L3Expr::new(e));
        }
            MemGcCase::standard().type_of(&MgProgram::L3(e.clone())).expect("typechecks");
        let r = run_l3(&e).unwrap();
        prop_assert_eq!(r.halt, Halt::Value(Value::Int(0)));
        prop_assert_eq!(r.heap.manual_len(), 0);
        prop_assert_eq!(r.heap.stats().manual_allocs as usize, depth);
        prop_assert_eq!(r.heap.stats().frees as usize, depth);
    }
}
