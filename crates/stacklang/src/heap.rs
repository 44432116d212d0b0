//! The StackLang heap: a finite map from locations to values.
//!
//! `alloc` extends the heap with a fresh location (`H ⊎ {ℓ : v}`), `read`
//! looks a location up, and `write` performs a strong update.  Locations are
//! never reused in this target (unlike the §5 target LCVM), which matches the
//! ML-style reference model of case study 1.
//!
//! # Layout
//!
//! Because locations are allocated densely (`ℓ0, ℓ1, …`) and never freed,
//! the heap is a plain `Vec<Value>` slab: `Loc(n)` is index `n`, a location
//! is allocated iff its index is below the length, and `alloc` is a push.
//! Reads and writes are direct indexing instead of a tree walk, and
//! [`Heap::reset`] is a `clear` that keeps the buffer's capacity, so a
//! machine reused across a batch ([`crate::Machine::reset`]) stops paying
//! for heap growth after its first program.  Iteration order is ascending
//! by location — the same order the previous `BTreeMap` representation
//! gave — which the executable model checkers rely on when comparing heaps
//! against heap typings.

use crate::value::Value;
use std::fmt;

/// A heap location `ℓ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(pub u64);

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// The StackLang heap `H ::= {ℓ: v, …}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Heap {
    cells: Vec<Value>,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Clears the heap in place — no live cells, fresh location counter — so
    /// a reused machine ([`crate::Machine::reset`]) starts its next program
    /// from a state indistinguishable from [`Heap::new`].  The slab's
    /// capacity is retained.
    pub fn reset(&mut self) {
        self.cells.clear();
    }

    fn index(loc: Loc) -> Option<usize> {
        usize::try_from(loc.0).ok()
    }

    /// Allocates a fresh location holding `v` and returns it.
    pub fn alloc(&mut self, v: Value) -> Loc {
        let loc = Loc(self.cells.len() as u64);
        self.cells.push(v);
        loc
    }

    /// Reads the value at `loc`, if allocated.
    pub fn read(&self, loc: Loc) -> Option<&Value> {
        self.cells.get(Self::index(loc)?)
    }

    /// Writes `v` at `loc`. Returns `false` (and leaves the heap unchanged)
    /// if the location is not allocated.
    pub fn write(&mut self, loc: Loc, v: Value) -> bool {
        match Self::index(loc).and_then(|i| self.cells.get_mut(i)) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }
    }

    /// True if `loc` is allocated.
    pub fn contains(&self, loc: Loc) -> bool {
        Self::index(loc).is_some_and(|i| i < self.cells.len())
    }

    /// Number of allocated locations.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over the allocated locations and their contents, in
    /// ascending location order.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, &Value)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, v)| (Loc(i as u64), v))
    }
}

impl fmt::Display for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (l, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}: {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut h = Heap::new();
        let l = h.alloc(Value::Num(7));
        assert_eq!(h.read(l), Some(&Value::Num(7)));
        assert!(h.write(l, Value::Num(9)));
        assert_eq!(h.read(l), Some(&Value::Num(9)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn locations_are_never_reused() {
        let mut h = Heap::new();
        let l1 = h.alloc(Value::Num(1));
        let l2 = h.alloc(Value::Num(2));
        assert_ne!(l1, l2);
    }

    #[test]
    fn reset_heaps_are_indistinguishable_from_fresh_ones() {
        let mut h = Heap::new();
        h.alloc(Value::Num(1));
        h.alloc(Value::Num(2));
        h.reset();
        assert_eq!(h, Heap::new(), "reset state equals a fresh heap");
        // Allocation restarts at ℓ0, as on a fresh heap.
        assert_eq!(h.alloc(Value::Num(3)), Loc(0));
    }

    #[test]
    fn write_to_unallocated_location_fails() {
        let mut h = Heap::new();
        assert!(!h.write(Loc(42), Value::Num(0)));
        assert!(!h.contains(Loc(42)));
        assert!(h.is_empty());
        // Out-of-range locations (e.g. from a corrupted trace) are simply
        // unallocated, not a panic.
        assert_eq!(h.read(Loc(u64::MAX)), None);
    }

    #[test]
    fn iteration_is_ascending_by_location() {
        let mut h = Heap::new();
        h.alloc(Value::Num(10));
        h.alloc(Value::Num(20));
        h.alloc(Value::Num(30));
        let locs: Vec<u64> = h.iter().map(|(l, _)| l.0).collect();
        assert_eq!(locs, vec![0, 1, 2]);
    }

    #[test]
    fn display_shows_cells() {
        let mut h = Heap::new();
        h.alloc(Value::Num(3));
        assert_eq!(h.to_string(), "{ℓ0: 3}");
    }
}
