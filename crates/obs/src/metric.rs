//! The static catalog of deterministic engine counters.

/// A deterministic engine counter: its final value for a query is a pure
/// function of (query, data, storage backing) — never of the thread count,
/// the morsel schedule, or wall-clock time. Counters whose
/// [`backing_independent`](Counter::backing_independent) flag is set are a
/// function of (query, data) alone and are additionally bitwise-identical
/// across the row and columnar backings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Input rows considered by base-table scans (the scanned table sizes;
    /// zone-map pruning savings show up in the chunk counters instead).
    RowsScanned,
    /// Rows emitted by scans (filter survivors) — identical across backings.
    RowsEmitted,
    /// Columnar chunks considered by scans (zero on the row backing).
    ChunksScanned,
    /// Chunks pruned by zone-map min/max bounds without reading rows.
    ChunksSkipped,
    /// Chunks pruned by the zone bloom filter (subset of the prune total).
    ChunksBloomSkipped,
    /// Chunks whose zone stats proved every row passes (bulk copy).
    ChunksFull,
    /// Chunks that required per-row predicate evaluation.
    ChunksPartial,
    /// Probe-side input rows across all hash joins.
    JoinProbes,
    /// Join output rows across all hash joins.
    JoinMatches,
    /// String columns carried in ranked (dictionary-code) form through the
    /// pipeline instead of being materialized at scan time.
    RankedColumns,
    /// Ranked string values decoded in the final late-materialization pass.
    DecodedStrings,
    /// Per-node aggregation groups produced by eager-plan operators.
    EagerGroups,
    /// Lineage bags (distinct answer tuples) evaluated by the confidence scan.
    ConfBags,
    /// Bags of at least `SplitPolicy::min_rows` rows and at least two,
    /// duplicate derivations included. The count depends on the input and
    /// the policy alone; whether and into how many sub-ranges such a bag is
    /// split depends on its 1scanTree and the pool size and is not counted.
    ConfHugeBags,
    /// Shannon-expansion leaves created by the anytime bounds frontier.
    FrontierNodes,
    /// Rows in the final answer relation.
    AnswerRows,
}

impl Counter {
    /// Number of counters (the length of [`Counter::ALL`]).
    pub const COUNT: usize = 16;

    /// Every counter, in stable registry/export order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::RowsScanned,
        Counter::RowsEmitted,
        Counter::ChunksScanned,
        Counter::ChunksSkipped,
        Counter::ChunksBloomSkipped,
        Counter::ChunksFull,
        Counter::ChunksPartial,
        Counter::JoinProbes,
        Counter::JoinMatches,
        Counter::RankedColumns,
        Counter::DecodedStrings,
        Counter::EagerGroups,
        Counter::ConfBags,
        Counter::ConfHugeBags,
        Counter::FrontierNodes,
        Counter::AnswerRows,
    ];

    /// The counter's stable snake_case name (JSON keys, Prometheus names).
    pub fn name(self) -> &'static str {
        match self {
            Counter::RowsScanned => "rows_scanned",
            Counter::RowsEmitted => "rows_emitted",
            Counter::ChunksScanned => "chunks_scanned",
            Counter::ChunksSkipped => "chunks_skipped",
            Counter::ChunksBloomSkipped => "chunks_bloom_skipped",
            Counter::ChunksFull => "chunks_full",
            Counter::ChunksPartial => "chunks_partial",
            Counter::JoinProbes => "join_probes",
            Counter::JoinMatches => "join_matches",
            Counter::RankedColumns => "ranked_columns",
            Counter::DecodedStrings => "decoded_strings",
            Counter::EagerGroups => "eager_groups",
            Counter::ConfBags => "conf_bags",
            Counter::ConfHugeBags => "conf_huge_bags",
            Counter::FrontierNodes => "frontier_nodes",
            Counter::AnswerRows => "answer_rows",
        }
    }

    /// One-line help string for the Prometheus exposition.
    pub fn help(self) -> &'static str {
        match self {
            Counter::RowsScanned => "Input rows considered by base-table scans",
            Counter::RowsEmitted => "Rows emitted by scans after predicate filtering",
            Counter::ChunksScanned => "Columnar chunks considered by scans",
            Counter::ChunksSkipped => "Chunks pruned by zone-map min/max bounds",
            Counter::ChunksBloomSkipped => "Chunks pruned by the zone bloom filter",
            Counter::ChunksFull => "Chunks proven all-pass by zone stats",
            Counter::ChunksPartial => "Chunks requiring per-row predicate evaluation",
            Counter::JoinProbes => "Probe-side input rows across hash joins",
            Counter::JoinMatches => "Join output rows across hash joins",
            Counter::RankedColumns => "String columns carried in ranked (coded) form",
            Counter::DecodedStrings => "Ranked strings decoded at late materialization",
            Counter::EagerGroups => "Eager-plan per-node aggregation groups",
            Counter::ConfBags => "Lineage bags evaluated by the confidence scan",
            Counter::ConfHugeBags => "Bags of at least the split policy's minimum rows",
            Counter::FrontierNodes => "Shannon-expansion leaves created by anytime bounds",
            Counter::AnswerRows => "Rows in the final answer relation",
        }
    }

    /// Whether the counter's value is independent of the storage backing
    /// (row vs. columnar) in addition to being thread-count-invariant.
    /// Scan-shape counters (chunk decisions, ranked/decoded strings)
    /// legitimately differ between backings; everything downstream of the
    /// scan output does not.
    pub fn backing_independent(self) -> bool {
        !matches!(
            self,
            Counter::ChunksScanned
                | Counter::ChunksSkipped
                | Counter::ChunksBloomSkipped
                | Counter::ChunksFull
                | Counter::ChunksPartial
                | Counter::RankedColumns
                | Counter::DecodedStrings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_complete_and_in_discriminant_order() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{}", c.name());
        }
    }

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        for name in names {
            assert!(name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    #[test]
    fn scan_shape_counters_are_backing_dependent() {
        assert!(!Counter::ChunksSkipped.backing_independent());
        assert!(!Counter::DecodedStrings.backing_independent());
        assert!(Counter::RowsScanned.backing_independent());
        assert!(Counter::RowsEmitted.backing_independent());
        assert!(Counter::JoinProbes.backing_independent());
        assert!(Counter::AnswerRows.backing_independent());
    }
}
