//! # pdb-conf
//!
//! The paper's contribution: a query-plan operator for exact confidence
//! computation on tuple-independent probabilistic databases.
//!
//! Given the lineage-annotated answer of a (possibly non-Boolean) conjunctive
//! query and the signature of its hierarchical FD-reduct, the operator
//! computes every distinct answer tuple together with its exact probability.
//! Three interchangeable implementations are provided, in increasing order of
//! sophistication, and cross-checked against each other and against the
//! dev-only `pdb-testkit`'s brute-force lineage probability — itself tied to
//! possible-world semantics — in the test suite:
//!
//! * [`grp`] — the declarative semantics of Fig. 5: one group-by aggregation
//!   per star of the signature plus propagation (projection) steps, exactly
//!   the SQL translation the paper gives.
//! * [`one_scan`] — the streaming algorithm of Fig. 8 for signatures with the
//!   1scan property: a single pass over the sorted answer updates running
//!   probabilities at the nodes of the signature's 1scanTree.
//! * [`multi_scan`] — the scan scheduling of Example V.11 for signatures
//!   without the 1scan property: a few pre-aggregation scans reduce the
//!   signature to a 1scan one, then the streaming algorithm finishes the job.
//!
//! [`operator::ConfidenceOperator`] is the public entry point that picks the
//! strategy from the signature.
//!
//! For queries *without* a safe plan (no hierarchical FD-reduct — exact
//! computation is #P-hard), [`anytime`] is a fourth evaluator family that
//! works from lineage alone: exact read-once factorization where the
//! per-tuple DNF factors, and anytime dissociation `[lo, hi]` bounds
//! everywhere else, selected by the [`ApproxPolicy`] knob.
//!
//! Since PR 2 the one-scan and multi-scan paths run on a flat, iterative,
//! allocation-free Fig. 8 machine and fan out across bags of duplicate
//! answer tuples on a [`pdb_par::Pool`] of scoped threads. Since PR 3 a
//! single huge bag — the Boolean / low-distinct-value shape, where bag-level
//! fan-out degenerates to one worker — is split *internally* at
//! root-variable boundaries and its per-partition partials are folded back
//! with a fixed-shape `independent_or` reduction ([`one_scan::SplitPolicy`]).
//! Both levels of parallelism are deterministic: results are
//! bitwise-identical at every thread count and for every split policy.
//!
//! `one_scan` and `multi_scan` each have one governed spelling,
//! `op_ctx(answer, signature, pool, policy, ctx)`, plus a bare
//! `op(answer, signature)` convenience on the default pool and policy.

pub mod anytime;
pub mod error;
pub mod grp;
pub mod multi_scan;
pub mod one_scan;
pub mod operator;

pub use anytime::{
    anytime_confidences_ctx, AnytimeConfig, ApproxPolicy, ApproxResult, ConfMethod, TupleConfidence,
};
pub use error::{ConfError, ConfResult};
pub use one_scan::{SplitPolicy, INTRA_BAG_SPLIT_THRESHOLD};
pub use operator::{ConfidenceOperator, ConfidenceResult, Strategy};
pub use pdb_govern::{ExecContext, GovernorBuilder, QueryGovernor, SproutError, Stage};
pub use pdb_par::Pool;
