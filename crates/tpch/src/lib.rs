//! # pdb-tpch
//!
//! The TPC-H substrate of the SPROUT reproduction: a deterministic,
//! scale-factor-parameterised data generator, the conversion into
//! tuple-independent probabilistic tables ("associating each tuple with a
//! Boolean random variable and choosing at random a probability distribution
//! over these variables", Section VII), and the catalogue of TPC-H-derived
//! conjunctive queries used in Sections VI and VII.
//!
//! The generated data is columnar from its first draw: [`TpchData`] draws
//! each relation straight into typed vectors — numbers, dates, and codes
//! into string dictionaries — hands them to
//! [`pdb_storage::ColumnarData::from_columns`], which keeps them as the
//! columns, and holds the result behind an `Arc`, which the tables of
//! [`probabilistic_catalog_columnar`] share — they only add variables and
//! probabilities. [`TpchData::table`] is a decoded row view, for tests and
//! for the row catalog ([`probabilistic_catalog`]).
//!
//! Two deliberate deviations from the original benchmark kit are documented
//! in `DESIGN.md`: the generator produces proportionally scaled tables rather
//! than byte-identical `dbgen` output, and the queries are the conjunctive
//! subqueries reconstructed from the paper's description (largest subquery
//! without aggregations and inequality joins, with the `conf()` aggregation).
//!
//! Because the execution engine uses natural joins on shared attribute
//! names, the customer-side copy of `Nation` is registered as a separate
//! table `NationC` with columns `cnkey`/`cnname`; this mirrors the paper's
//! treatment of query 7, where the two `Nation` copies select disjoint tuples
//! and can be treated as different relations.

pub mod dates;
pub mod gen;
pub mod prob;
pub mod queries;

pub use dates::{date, date_str};
pub use gen::{TpchData, TpchScale};
pub use prob::{probabilistic_catalog, probabilistic_catalog_columnar};
pub use queries::{
    case_study_queries, fig10_queries, fig12_query_c, fig12_query_d, fig9_queries,
    selectivity_query_a, selectivity_query_b, tpch_query, QueryClass, TpchQuery,
};
