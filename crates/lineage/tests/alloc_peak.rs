//! Peak scratch memory of `Canonical::factorize`, measured with the test
//! kit's counting allocator.
//!
//! The frontier cap and the governor charge the anytime loop for the
//! formulas it keeps, not for what a factorization allocates on the side,
//! so that scratch has to stay a small multiple of the formula itself. The
//! co-component search used to ask for a dense `n × ⌈n/64⌉`-word adjacency
//! matrix: 6.6 MB on a 7 272-variable bag, 1.25 GB on the 100 000-variable
//! chain below.

use pdb_lineage::{sort_dedup, Clauses, FactorScratch, Factorization};
use pdb_storage::Variable;
use pdb_testkit::alloc::{peak_bytes, serial};

#[global_allocator]
static GLOBAL: pdb_testkit::alloc::Counting = pdb_testkit::alloc::Counting;

/// What the frontier charges for a formula's clauses and their variables
/// (a 24-byte `Vec` per clause and 8 bytes per variable occurrence).
fn formula_bytes(formula: &Clauses) -> usize {
    24 * formula.len() + 8 * formula.literals().len()
}

#[test]
fn a_blocked_chain_over_100_000_variables_factorizes_in_linear_scratch() {
    let _serial = serial();
    // x₁x₂ ∨ x₂x₃ ∨ … : one ∨-component (consecutive clauses share a
    // variable) and one co-component (the complement of a path is
    // connected), so the whole chain is the witness.
    let mut chain = Clauses::default();
    for i in 0..99_999u32 {
        chain.push([i, i + 1]);
    }
    let vars: Vec<Variable> = (0..100_000).map(Variable).collect();
    let input = formula_bytes(&chain);
    let (result, peak) = peak_bytes(|| {
        let mut formula = sort_dedup(&chain);
        formula.factorize(&vars, &mut FactorScratch::default())
    });
    match result {
        Factorization::Blocked(witness) => assert_eq!(witness.len(), chain.len()),
        other => panic!("expected blocked, got {other:?}"),
    }
    // The formula in canonical order with its ranks, the scratch — the
    // permutation, the occurrence index, the per-variable search state —
    // and the stuck clause set: 2.0 × the input at the peak (3.2 × when the
    // formula came in as a `Vec` per clause and left with a witness as
    // large; 3.0 × when the decomposition also consumed a copy of the
    // formula and freed its index between steps).
    assert!(
        peak <= 4 * input,
        "factorize peaked at {peak} bytes on a {input}-byte formula"
    );
}
