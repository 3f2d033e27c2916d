//! Allocations of one refinement round of the anytime loop, counted with a
//! counting allocator (the pattern of `exec/tests/alloc_count.rs`).
//!
//! A frontier leaf is a flat interned clause set, so splitting one — two
//! cofactors, two factorizations, crude bounds — allocates by the step, not
//! by the clause: three vectors per cofactor, and in `factorize` a few per
//! recursion step plus two per ∨-component of the leaf, each of them grown
//! by doubling. With a `Vec` per clause in every leaf, a round allocated at
//! least two vectors per clause (4 869 on the 2 000-clause chain below, and
//! four times that on four times the clauses).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pdb_conf::{anytime_confidences_ctx, AnytimeConfig, ApproxPolicy, Pool};
use pdb_exec::annotated::{Annotated, AnnotatedRow};
use pdb_govern::ExecContext;
use pdb_storage::{tuple, DataType, Schema, Variable};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `x₀x₁ ∨ x₁x₂ ∨ … ∨ x₁₉₉₉x₂₀₀₀` as the one bag of a Boolean answer: one
/// ∨-component and one co-component, so the chain is blocked — and so are
/// the long pieces a split leaves, which keep every leaf near 2 000 clauses.
/// Marginals are small, so that 2 000 clauses do not saturate the bracket.
fn blocked_chain(clauses: u64) -> Annotated {
    let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
    let mut answer = Annotated::new(schema, vec!["R".into(), "S".into()]);
    let pair = |v: u64| (Variable(v), 0.01 + 0.01 * ((v * 7 % 11) as f64 / 11.0));
    for i in 0..clauses {
        answer.push(AnnotatedRow::new(tuple![1i64], vec![pair(i), pair(i + 1)]));
    }
    answer
}

/// Allocations per refinement round between the 8th and the 16th.
fn per_extra_round(clauses: u64) -> usize {
    let answer = blocked_chain(clauses);
    let pool = Pool::new(1);
    let ctx = ExecContext::unbounded();
    let run = |rounds: usize| {
        let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 })
            .with_seed(1)
            .with_max_rounds(rounds);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let got = anytime_confidences_ctx(&answer, &config, &pool, &ctx).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(got[0].rounds, rounds, "the chain outlasts {rounds} rounds");
        allocations
    };
    (run(16) - run(8)) / 8
}

/// This file holds one test, so nothing else allocates while it counts.
#[test]
fn an_extra_refinement_round_allocates_by_the_step_not_by_the_clause() {
    let (small, large) = (per_extra_round(2_000), per_extra_round(8_000));
    assert!(
        small <= 2_000 / 2,
        "{small} allocations per extra round on 2 000 clauses"
    );
    // Four times the clauses: two more doublings per vector, nothing else.
    assert!(
        large <= small + small / 2,
        "{large} allocations per extra round on 8 000 clauses, {small} on 2 000"
    );
}
