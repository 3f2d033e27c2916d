//! # pdb-testkit
//!
//! What the engine's tests hold it to, kept out of the engine: every crate
//! takes this one as a `[dev-dependencies]` entry only.
//!
//! * [`worlds`] — possible-world semantics (paper, Section II.A), the ground
//!   truth: every world of a small database with its probability, and each
//!   table's instance in it.
//! * [`Dnf`] / [`Clause`] — relational DNF lineage, and [`exact_probability`]
//!   — its probability by Shannon expansion, exponential in the worst case.
//! * [`brute_force_confidences`] — the confidence of every tuple of a
//!   lineage-annotated answer, from that lineage: the oracle the efficient
//!   operators are checked against. `tests/worlds_oracle.rs` ties it to the
//!   worlds.
//! * [`alloc`] — the counting global allocator of the allocation tests.
//! * [`Fnv1a`] — the digest of the committed pin files.

pub mod alloc;
pub mod brute;
pub mod dnf;
pub mod prob;
pub mod worlds;

pub use brute::brute_force_confidences;
pub use dnf::{Clause, Dnf};
pub use prob::exact_probability;

/// FNV-1a over 64 bits: what the pin files record of an answer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the digest.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything eaten so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
