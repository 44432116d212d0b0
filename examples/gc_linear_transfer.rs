//! Case study 3 (§5): handing manually-managed memory to a garbage-collected
//! language without copying, and using MiniML generics from L3.
//!
//! Run with `cargo run --example gc_linear_transfer`.

use semint::core::Fuel;
use semint::lcvm::{Halt, Value};
use semint::memgc::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use semint::memgc::{MemGcCase, MgProgram};

fn main() {
    let case = MemGcCase::standard();

    // --- Ownership transfer: L3 → MiniML ------------------------------------
    // L3 allocates a cell manually (`new true`), then the whole package
    // (capability + pointer) crosses the boundary at `ref int`.  The glue code
    // converts the contents in place and `gcmov`s the *same* location into
    // the GC'd heap — no copy.
    let transfer = PolyExpr::app(
        PolyExpr::lam(
            "r",
            PolyType::ref_(PolyType::Int),
            PolyExpr::snd(PolyExpr::pair(
                PolyExpr::assign(
                    PolyExpr::var("r"),
                    PolyExpr::add(PolyExpr::deref(PolyExpr::var("r")), PolyExpr::int(41)),
                ),
                PolyExpr::deref(PolyExpr::var("r")),
            )),
        ),
        PolyExpr::boundary(
            L3Expr::new(L3Expr::bool_(true)),
            PolyType::ref_(PolyType::Int),
        ),
    );
    let r = case.run(&MgProgram::Ml(transfer), Fuel::default()).unwrap();
    println!("L3 → MiniML transfer:");
    println!("  result                    = {:?}", r.halt);
    println!(
        "  manual allocations        = {}",
        r.heap.stats().manual_allocs
    );
    println!("  GC allocations            = {}", r.heap.stats().gc_allocs);
    println!("  gcmov transfers           = {}", r.heap.stats().gcmovs);
    println!("  live manual cells at exit = {}", r.heap.manual_len());
    assert_eq!(r.halt, Halt::Value(Value::Int(41)));
    assert_eq!(r.heap.stats().gc_allocs, 0, "moved, not copied");

    // --- The other direction: MiniML → L3 copies ----------------------------
    let copy_back = L3Expr::free(L3Expr::boundary(
        PolyExpr::ref_(PolyExpr::int(7)),
        L3Type::ref_like(L3Type::Bool),
    ));
    let r = case
        .run(&MgProgram::L3(copy_back), Fuel::default())
        .unwrap();
    println!("\nMiniML → L3 conversion (must copy, aliases may exist):");
    println!("  result            = {:?}", r.halt);
    println!("  GC allocations    = {}", r.heap.stats().gc_allocs);
    println!("  manual allocations= {}", r.heap.stats().manual_allocs);

    // --- Polymorphism over foreign types ------------------------------------
    // The paper's example (1): a MiniML polymorphic function instantiated at
    // the foreign type ⟨bool⟩ and applied to two embedded L3 booleans.
    let second = PolyExpr::tylam(
        "α",
        PolyExpr::lam(
            "x",
            PolyType::tvar("α"),
            PolyExpr::lam("y", PolyType::tvar("α"), PolyExpr::var("y")),
        ),
    );
    let example1 = PolyExpr::app(
        PolyExpr::app(
            PolyExpr::tyapp(second, PolyType::foreign(L3Type::Bool)),
            PolyExpr::boundary(L3Expr::bool_(true), PolyType::foreign(L3Type::Bool)),
        ),
        PolyExpr::boundary(L3Expr::bool_(false), PolyType::foreign(L3Type::Bool)),
    );
    let r = case.run(&MgProgram::Ml(example1), Fuel::default()).unwrap();
    println!(
        "\npaper example (1), (Λα. λx:α. λy:α. y) [⟨bool⟩] ⦇true⦈ ⦇false⦈ = {:?}",
        r.halt
    );

    // The paper's example (2): converting actual values through Church
    // booleans, then branching on the result back in L3.
    let example2 = L3Expr::if_(
        L3Expr::boundary(
            PolyExpr::app(
                PolyExpr::lam("x", PolyType::church_bool(), PolyExpr::var("x")),
                PolyExpr::boundary(L3Expr::bool_(true), PolyType::church_bool()),
            ),
            L3Type::Bool,
        ),
        L3Expr::bool_(true),
        L3Expr::bool_(false),
    );
    let r = case.run(&MgProgram::L3(example2), Fuel::default()).unwrap();
    println!(
        "paper example (2), Church-boolean round trip            = {:?}",
        r.halt
    );

    // Linear capabilities cannot be laundered through foreign types.
    let smuggle = PolyExpr::boundary(
        L3Expr::new(L3Expr::bool_(true)),
        PolyType::foreign(L3Type::ref_like(L3Type::Bool)),
    );
    match case.type_of(&MgProgram::Ml(smuggle)) {
        Err(err) => println!("\ncapability smuggling rejected statically: {err}"),
        Ok(ty) => unreachable!("should not typecheck at {ty}"),
    }
}
