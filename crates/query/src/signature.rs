//! Query signatures and everything derived from them.
//!
//! A signature (Definition III.1) is a table name `R`, a starred signature
//! `α*`, or a concatenation `αβ`. Signatures capture the one/many-to-one/many
//! relationships between the tables of a hierarchical query and coincide with
//! the nesting structure of the one-occurrence form (1OF) of the lineage of
//! the query's answer tuples.
//!
//! This module implements:
//!
//! * derivation of signatures from query trees (Fig. 4), with functional
//!   dependencies refining `α*` to `α` when the parent label determines all
//!   attributes of `α` (Example III.2, Section V.B last paragraph);
//! * the equivalence `(α*)* = α*` (kept implicit by construction);
//! * minimal covers (Definition III.3);
//! * the 1scan property, `#scans` (Definition V.8, Proposition V.10) and the
//!   scan schedule of Example V.11;
//! * the `1scanTree` used by the streaming operator (Section V.C) and the
//!   sort order it requires (Example V.12);
//! * the restriction / table-replacement rules used when placing operators
//!   inside plans (Section V.B, Example V.6).

use std::collections::BTreeSet;
use std::fmt;

use crate::error::{QueryError, QueryResult};
use crate::fd::FdSet;
use crate::hierarchy::QueryTree;

/// A query signature (Definition III.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Signature {
    /// A table name.
    Table(String),
    /// `α*`: a group of several independent `α`-blocks.
    Star(Box<Signature>),
    /// `αβ…`: a concatenation of signatures over disjoint variable sets.
    Concat(Vec<Signature>),
}

impl Signature {
    /// A bare table signature.
    pub fn table(name: impl Into<String>) -> Signature {
        Signature::Table(name.into())
    }

    /// Wraps a signature in a star, collapsing `(α*)*` to `α*` (the paper's
    /// implicit equivalence).
    pub fn star(inner: Signature) -> Signature {
        match inner {
            Signature::Star(s) => Signature::Star(s),
            other => Signature::Star(Box::new(other)),
        }
    }

    /// Concatenates signatures, flattening nested concatenations and
    /// unwrapping singleton lists.
    pub fn concat(parts: Vec<Signature>) -> Signature {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Signature::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            Signature::Concat(flat)
        }
    }

    /// All table names mentioned, in left-to-right order.
    pub fn tables(&self) -> Vec<String> {
        match self {
            Signature::Table(r) => vec![r.clone()],
            Signature::Star(s) => s.tables(),
            Signature::Concat(parts) => parts.iter().flat_map(|p| p.tables()).collect(),
        }
    }

    /// The leftmost table name. This is the representative column an operator
    /// with this signature leaves behind (Section V.B: "we replace in s each
    /// of their signatures t by the leftmost table name in t").
    pub fn leftmost_table(&self) -> &str {
        match self {
            Signature::Table(r) => r,
            Signature::Star(s) => s.leftmost_table(),
            Signature::Concat(parts) => parts[0].leftmost_table(),
        }
    }

    /// Whether the signature mentions table `name`.
    pub fn contains_table(&self, name: &str) -> bool {
        match self {
            Signature::Table(r) => r == name,
            Signature::Star(s) => s.contains_table(name),
            Signature::Concat(parts) => parts.iter().any(|p| p.contains_table(name)),
        }
    }

    /// Whether any star occurs anywhere in the signature. A star-free
    /// signature describes an answer without duplicates, whose probabilities
    /// are obtained by pure propagation (products).
    pub fn has_star(&self) -> bool {
        match self {
            Signature::Table(_) => false,
            Signature::Star(_) => true,
            Signature::Concat(parts) => parts.iter().any(|p| p.has_star()),
        }
    }

    /// Number of aggregation steps (stars) in the signature; the GRP-sequence
    /// semantics of Fig. 5 issues one group-by per star.
    pub fn star_count(&self) -> usize {
        match self {
            Signature::Table(_) => 0,
            Signature::Star(s) => 1 + s.star_count(),
            Signature::Concat(parts) => parts.iter().map(|p| p.star_count()).sum(),
        }
    }

    /// The 1scan property (Definition V.8): every concatenation — the body
    /// of a star, and the top level, where the operator groups the answer by
    /// its data columns — holds a bare table at its own level, and every part
    /// has the property. It is exactly the condition under which
    /// [`OneScanTree::build`] finds a bare table to root each level at.
    pub fn is_one_scan(&self) -> bool {
        match self {
            Signature::Table(_) => true,
            Signature::Star(inner) => inner.is_one_scan(),
            Signature::Concat(parts) => {
                parts.iter().any(|p| matches!(p, Signature::Table(_)))
                    && parts.iter().all(Signature::is_one_scan)
            }
        }
    }

    /// `#scans` (Definition V.8, Proposition V.10): one plus the number of
    /// pre-aggregations of the [`scan_schedule`](Self::scan_schedule), one
    /// per concatenation without a bare table.
    pub fn scan_count(&self) -> usize {
        self.scan_schedule().scans()
    }

    /// Computes the scan schedule of an operator `[self]` (Example V.11): a
    /// sequence of *pre-aggregation* signatures — each with the 1scan
    /// property — that are evaluated as separate scans, plus the final 1scan
    /// signature evaluated last. Applying a pre-aggregation `[γ]` replaces
    /// `γ` in the remaining signature by its leftmost table.
    ///
    /// The schedule has exactly `scan_count() - 1` pre-aggregations.
    pub fn scan_schedule(&self) -> ScanSchedule {
        let mut steps = Vec::new();
        let mut current = self.clone();
        loop {
            match take_innermost_blocking_star(&mut current) {
                None => {
                    return ScanSchedule {
                        pre_aggregations: steps,
                        final_signature: current,
                    }
                }
                Some(step) => steps.push(step),
            }
        }
    }

    /// Restricts the signature to the given tables, dropping leaves of absent
    /// tables and pruning empty stars/concats. Returns `None` if no table
    /// remains.
    pub fn restrict_to_tables(&self, tables: &BTreeSet<String>) -> Option<Signature> {
        match self {
            Signature::Table(r) => tables.contains(r).then(|| Signature::Table(r.clone())),
            Signature::Star(inner) => inner.restrict_to_tables(tables).map(Signature::star),
            Signature::Concat(parts) => {
                let kept: Vec<Signature> = parts
                    .iter()
                    .filter_map(|p| p.restrict_to_tables(tables))
                    .collect();
                if kept.is_empty() {
                    None
                } else {
                    Some(Signature::concat(kept))
                }
            }
        }
    }

    /// Replaces the *maximal starred subexpression whose leftmost table is
    /// `table`* — or, if none, the bare leaf `table` — by the bare table
    /// name. This is the signature update performed after a nested operator
    /// has aggregated that part of the answer (Section V.B, Example V.6).
    pub fn reduce_table(&self, table: &str) -> Signature {
        match self {
            Signature::Table(r) => Signature::Table(r.clone()),
            Signature::Star(inner) => {
                if inner.leftmost_table() == table && inner.contains_table(table) {
                    Signature::Table(table.to_string())
                } else {
                    Signature::star(inner.reduce_table(table))
                }
            }
            Signature::Concat(parts) => {
                Signature::concat(parts.iter().map(|p| p.reduce_table(table)).collect())
            }
        }
    }

    /// Replaces every starred table leaf `R*` by the bare `R` for each `R` in
    /// `tables` (the per-table variant of [`Signature::reduce_table`], used
    /// by eager plans after base-table aggregation).
    pub fn reduce_starred_tables(&self, tables: &BTreeSet<String>) -> Signature {
        match self {
            Signature::Table(r) => Signature::Table(r.clone()),
            Signature::Star(inner) => {
                if let Signature::Table(r) = inner.as_ref() {
                    if tables.contains(r) {
                        return Signature::Table(r.clone());
                    }
                }
                Signature::star(inner.reduce_starred_tables(tables))
            }
            Signature::Concat(parts) => Signature::concat(
                parts
                    .iter()
                    .map(|p| p.reduce_starred_tables(tables))
                    .collect(),
            ),
        }
    }
}

/// The scan schedule of an operator (Example V.11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSchedule {
    /// Pre-aggregation signatures, each evaluated in its own scan,
    /// innermost-first. Each has the 1scan property.
    pub pre_aggregations: Vec<Signature>,
    /// The remaining signature evaluated by the final scan; has the 1scan
    /// property.
    pub final_signature: Signature,
}

impl ScanSchedule {
    /// Total number of scans (pre-aggregations plus the final scan).
    pub fn scans(&self) -> usize {
        self.pre_aggregations.len() + 1
    }
}

/// Finds the innermost concatenation of `sig` without a bare table — a
/// star's body or the top level, whose parts are then all starred — and
/// removes the blockage: picks its first starred part `γ*` (preferring
/// starred tables), replaces `γ*` by `γ`'s leftmost table inside `sig`, and
/// returns the extracted `γ*`. Returns `None` when `sig` already has the
/// 1scan property.
fn take_innermost_blocking_star(sig: &mut Signature) -> Option<Signature> {
    match sig {
        Signature::Table(_) => None,
        Signature::Star(inner) => take_innermost_blocking_star(inner),
        Signature::Concat(parts) => {
            // Descend into the parts first so the innermost blockage goes
            // first.
            if let Some(step) = parts.iter_mut().find_map(take_innermost_blocking_star) {
                return Some(step);
            }
            if parts.iter().any(|p| matches!(p, Signature::Table(_))) {
                return None;
            }
            let chosen = (parts.iter())
                .position(|p| matches!(p, Signature::Star(b) if matches!(b.as_ref(), Signature::Table(_))))
                .or_else(|| parts.iter().position(|p| matches!(p, Signature::Star(_))))?;
            let replacement = Signature::Table(parts[chosen].leftmost_table().to_string());
            Some(std::mem::replace(&mut parts[chosen], replacement))
        }
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signature::Table(r) => write!(f, "{r}"),
            Signature::Star(inner) => match inner.as_ref() {
                Signature::Table(r) => write!(f, "{r}*"),
                other => write!(f, "({other})*"),
            },
            Signature::Concat(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
        }
    }
}

/// Derives the signature of a hierarchical Boolean query tree (Fig. 4),
/// refined by functional dependencies: a node (leaf or inner) is *not*
/// starred when its attributes are contained in `CLOSURE_Σ(L)` of the parent
/// label `L`. With `Σ = ∅` this degenerates to the equality test of Fig. 4.
pub fn signature_of_tree(tree: &QueryTree, fds: &FdSet) -> Signature {
    signature_rec(tree, &BTreeSet::new(), fds)
}

fn signature_rec(tree: &QueryTree, parent: &BTreeSet<String>, fds: &FdSet) -> Signature {
    let parent_closure = fds.closure(parent);
    match tree {
        QueryTree::Leaf { relation, attrs } => {
            let base = Signature::table(relation.clone());
            if attrs.is_subset(&parent_closure) {
                base
            } else {
                Signature::star(base)
            }
        }
        QueryTree::Inner { attrs, children } => {
            let body = Signature::concat(
                children
                    .iter()
                    .map(|c| signature_rec(c, attrs, fds))
                    .collect(),
            );
            if attrs.is_subset(&parent_closure) {
                body
            } else {
                Signature::star(body)
            }
        }
    }
}

/// The minimal cover of a set of tables in a query tree (Definition III.3):
/// the signature of the minimal subtree containing all tables of `tables`.
///
/// # Errors
/// Returns [`QueryError::UnknownRelation`] if a table is absent from the tree.
pub fn minimal_cover(
    tree: &QueryTree,
    fds: &FdSet,
    tables: &BTreeSet<String>,
) -> QueryResult<Signature> {
    let (subtree, parent_attrs) = tree.minimal_subtree(tables).ok_or_else(|| {
        QueryError::UnknownRelation(
            tables
                .iter()
                .find(|t| !tree.contains_relation(t))
                .cloned()
                .unwrap_or_else(|| "<empty table set>".to_string()),
        )
    })?;
    Ok(signature_rec(subtree, &parent_attrs, fds))
}

/// A node of the `1scanTree` (Section V.C): each node corresponds to one
/// variable column (one table) of the query answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneScanTree {
    /// The table whose variable column this node tracks.
    pub table: String,
    /// Child nodes.
    pub children: Vec<OneScanTree>,
}

impl OneScanTree {
    /// Builds the 1scanTree of a signature with the 1scan property: every
    /// inner node of the signature's nesting structure is replaced by one of
    /// its children that is a bare table.
    ///
    /// # Errors
    /// Returns [`QueryError::NotHierarchical`] if the signature does not have
    /// the 1scan property (no bare table to promote at some level).
    pub fn build(sig: &Signature) -> QueryResult<OneScanTree> {
        match sig {
            Signature::Table(r) => Ok(OneScanTree {
                table: r.clone(),
                children: Vec::new(),
            }),
            Signature::Star(inner) => OneScanTree::build(inner),
            Signature::Concat(parts) => {
                // Promote the first bare table to be the root of this level.
                let root_idx = parts
                    .iter()
                    .position(|p| matches!(p, Signature::Table(_)))
                    .ok_or_else(|| QueryError::NotHierarchical {
                        witness: format!("signature {sig} lacks the 1scan property"),
                    })?;
                let root_table = match &parts[root_idx] {
                    Signature::Table(r) => r.clone(),
                    _ => unreachable!("position() matched a Table"),
                };
                let mut children = Vec::new();
                for (i, p) in parts.iter().enumerate() {
                    if i == root_idx {
                        continue;
                    }
                    children.push(OneScanTree::build(p)?);
                }
                Ok(OneScanTree {
                    table: root_table,
                    children,
                })
            }
        }
    }

    /// Preorder traversal of table names; concatenated with the data columns
    /// this yields the sort order required by the streaming operator
    /// (Example V.12).
    pub fn preorder(&self) -> Vec<String> {
        let mut out = vec![self.table.clone()];
        for c in &self.children {
            out.extend(c.preorder());
        }
        out
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(|c| c.len()).sum::<usize>()
    }

    /// A 1scanTree always has at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for OneScanTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table)?;
        if !self.children.is_empty() {
            write!(f, "(")?;
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::intro_query_q;
    use crate::fd::{attr_set, FdSet, FunctionalDependency};
    use crate::hierarchy::QueryTree;

    fn sig(s: &str) -> Signature {
        // Tiny recursive-descent parser for test readability: tables are
        // single uppercase words, grouping with parens, star with '*'.
        fn parse(chars: &[char], pos: &mut usize) -> Signature {
            let mut parts = Vec::new();
            while *pos < chars.len() {
                match chars[*pos] {
                    ')' => break,
                    ' ' => {
                        *pos += 1;
                    }
                    '(' => {
                        *pos += 1;
                        let inner = parse(chars, pos);
                        assert_eq!(chars[*pos], ')');
                        *pos += 1;
                        let mut part = inner;
                        while *pos < chars.len() && chars[*pos] == '*' {
                            part = Signature::star(part);
                            *pos += 1;
                        }
                        parts.push(part);
                    }
                    _ => {
                        let start = *pos;
                        while *pos < chars.len() && chars[*pos].is_alphanumeric() {
                            *pos += 1;
                        }
                        let name: String = chars[start..*pos].iter().collect();
                        let mut part = Signature::table(name);
                        while *pos < chars.len() && chars[*pos] == '*' {
                            part = Signature::star(part);
                            *pos += 1;
                        }
                        parts.push(part);
                    }
                }
            }
            Signature::concat(parts)
        }
        let chars: Vec<char> = s.chars().collect();
        let mut pos = 0;
        parse(&chars, &mut pos)
    }

    fn intro_tree() -> QueryTree {
        QueryTree::build(&intro_query_q().boolean_version()).unwrap()
    }

    fn tpch_like_fds() -> FdSet {
        FdSet::new(vec![
            FunctionalDependency::on("Ord", &["okey"], &["ckey", "odate"]),
            FunctionalDependency::on("Cust", &["ckey"], &["cname"]),
        ])
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            sig("(Cust*(Ord*Item*)*)*").to_string(),
            "(Cust* (Ord* Item*)*)*"
        );
        assert_eq!(sig("R*S*").to_string(), "R* S*");
        assert_eq!(sig("Cust Ord Item*").to_string(), "Cust Ord Item*");
    }

    #[test]
    fn star_of_star_collapses() {
        let s = Signature::star(Signature::star(Signature::table("R")));
        assert_eq!(s, sig("R*"));
    }

    #[test]
    fn signature_of_intro_query_without_fds() {
        // Example III.2: (Cust*(Ord*Item*)*)*.
        let tree = intro_tree();
        let s = signature_of_tree(&tree, &FdSet::empty());
        assert_eq!(s, sig("(Cust*(Ord*Item*)*)*"));
    }

    #[test]
    fn signature_of_intro_query_with_keys() {
        // Example III.2: with ckey and okey keys the signature refines to
        // (Cust(Ord Item*)*)*.
        let tree = intro_tree();
        let s = signature_of_tree(&tree, &tpch_like_fds());
        assert_eq!(s, sig("(Cust(Ord Item*)*)*"));
    }

    #[test]
    fn minimal_cover_matches_example_iii4() {
        let tree = intro_tree();
        let fds = FdSet::empty();
        let cover = minimal_cover(&tree, &fds, &attr_set(&["Ord", "Item"])).unwrap();
        assert_eq!(cover, sig("(Ord*Item*)*"));
        let cover = minimal_cover(&tree, &fds, &attr_set(&["Cust", "Ord"])).unwrap();
        assert_eq!(cover, sig("(Cust*(Ord*Item*)*)*"));
        assert!(minimal_cover(&tree, &fds, &attr_set(&["Missing"])).is_err());
    }

    #[test]
    fn one_scan_property_examples() {
        // Example V.9.
        assert!(sig("(Cust(Ord Item*)*)*").is_one_scan());
        assert!(!sig("(Cust*(Ord*Item*)*)*").is_one_scan());
        assert!(sig("Nation1(Supp(Nation2(Cust(Ord Item*)*)*)*)*").is_one_scan());
        // The top level is a level too: its 1scanTree needs a bare root.
        assert!(!sig("R*S*").is_one_scan());
        assert!(!sig("(R* S)* T*").is_one_scan());
        assert!(sig("R S*").is_one_scan());
    }

    #[test]
    fn scan_counts_match_example_v11() {
        assert_eq!(sig("(Cust*(Ord*Item*)*)*").scan_count(), 3);
        assert_eq!(sig("(Cust(Ord Item*)*)*").scan_count(), 1);
        assert_eq!(sig("R*S*").scan_count(), 2);
        // A star whose body has a bare table costs nothing, even above one
        // that needs a pre-aggregation.
        assert_eq!(sig("(R(S*T*)*)*").scan_count(), 2);
    }

    #[test]
    fn scan_schedule_matches_example_v11() {
        let schedule = sig("(Cust*(Ord*Item*)*)*").scan_schedule();
        assert_eq!(schedule.scans(), 3);
        assert_eq!(schedule.pre_aggregations, vec![sig("Ord*"), sig("Cust*")]);
        assert_eq!(schedule.final_signature, sig("(Cust(Ord Item*)*)*"));
        assert!(schedule.final_signature.is_one_scan());
    }

    #[test]
    fn scan_schedule_of_one_scan_signature_is_single_scan() {
        let schedule = sig("(Cust(Ord Item*)*)*").scan_schedule();
        assert!(schedule.pre_aggregations.is_empty());
        assert_eq!(schedule.final_signature, sig("(Cust(Ord Item*)*)*"));
    }

    #[test]
    fn scan_schedule_handles_nested_composites() {
        // ((A*B*)*(C*D*)*)* needs 4 scans: [A*], [C*], then one of the two
        // composite children, then the final scan.
        let s = sig("((A*B*)*(C*D*)*)*");
        assert_eq!(s.scan_count(), 4);
        let schedule = s.scan_schedule();
        assert_eq!(schedule.scans(), 4);
        for step in &schedule.pre_aggregations {
            assert!(step.is_one_scan(), "pre-aggregation {step} must be 1scan");
        }
        assert!(schedule.final_signature.is_one_scan());
    }

    #[test]
    fn a_top_level_of_starred_parts_is_pre_aggregated_to_a_bare_root() {
        // q(b) :- R(a, r), S(a, b), T(b, t): the starred T* is aggregated
        // first, and T roots the final scan.
        let schedule = sig("(R* S)* T*").scan_schedule();
        assert_eq!(schedule.pre_aggregations, vec![sig("T*")]);
        assert_eq!(schedule.final_signature, sig("(R* S)* T"));
        assert_eq!(sig("(R* S)* T*").scan_count(), 2);
        let tree = OneScanTree::build(&schedule.final_signature).unwrap();
        assert_eq!(tree.to_string(), "T(S(R))");
        // Without a starred table the first starred part goes.
        let schedule = sig("(R* S)* (T* U)*").scan_schedule();
        assert_eq!(schedule.pre_aggregations, vec![sig("(R* S)*")]);
        assert_eq!(schedule.final_signature, sig("R (T* U)*"));
    }

    #[test]
    fn the_one_scan_property_is_what_the_one_scan_tree_needs() {
        for s in [
            "R",
            "R*",
            "R*S*",
            "R S*",
            "(R* S)* T*",
            "(R* S)* T",
            "(Cust*(Ord*Item*)*)*",
            "(Cust(Ord Item*)*)*",
            "((A*B*)*(C*D*)*)*",
            "(R1(R2 R3*)*(R4 R5*)*)*",
            "(R(S*T*)*)*",
        ] {
            let s = sig(s);
            assert_eq!(s.is_one_scan(), OneScanTree::build(&s).is_ok(), "{s}");
            let schedule = s.scan_schedule();
            assert_eq!(schedule.scans(), s.scan_count(), "{s}");
            assert!(OneScanTree::build(&schedule.final_signature).is_ok(), "{s}");
            for step in &schedule.pre_aggregations {
                assert!(OneScanTree::build(step).is_ok(), "{s}: step {step}");
            }
        }
    }

    #[test]
    fn one_scan_tree_of_refined_intro_signature_is_a_path() {
        // Example V.12: (Cust(Ord Item*)*)* has the path Cust → Ord → Item.
        let t = OneScanTree::build(&sig("(Cust(Ord Item*)*)*")).unwrap();
        assert_eq!(t.preorder(), vec!["Cust", "Ord", "Item"]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.to_string(), "Cust(Ord(Item))");
    }

    #[test]
    fn one_scan_tree_of_branching_signature() {
        // Example V.12: (R1(R2 R3*)*(R4 R5*)*)* serialises as R1(R2(R3), R4(R5)).
        let t = OneScanTree::build(&sig("(R1(R2 R3*)*(R4 R5*)*)*")).unwrap();
        assert_eq!(t.to_string(), "R1(R2(R3), R4(R5))");
        assert_eq!(t.preorder(), vec!["R1", "R2", "R3", "R4", "R5"]);
    }

    #[test]
    fn one_scan_tree_rejects_non_one_scan_signatures() {
        assert!(OneScanTree::build(&sig("(Cust*(Ord*Item*)*)*")).is_err());
    }

    #[test]
    fn restriction_drops_absent_tables() {
        let s = sig("(Cust*(Ord*Item*)*)*");
        let r = s.restrict_to_tables(&attr_set(&["Ord", "Item"])).unwrap();
        assert_eq!(r, sig("(Ord*Item*)*"));
        let r = s.restrict_to_tables(&attr_set(&["Cust", "Ord"])).unwrap();
        assert_eq!(r, sig("(Cust*(Ord*)*)*"));
        assert!(s.restrict_to_tables(&attr_set(&["Nope"])).is_none());
    }

    #[test]
    fn reduce_starred_tables_matches_example_v6() {
        // Replacing Ord*, Cust*, Item* by their bare names turns
        // (Cust*(Ord*Item*)*)* into (Cust(Ord Item)*)*.
        let s = sig("(Cust*(Ord*Item*)*)*");
        let reduced = s.reduce_starred_tables(&attr_set(&["Cust", "Ord", "Item"]));
        assert_eq!(reduced, sig("(Cust(Ord Item)*)*"));
    }

    #[test]
    fn reduce_table_collapses_aggregated_subexpressions() {
        // After executing [(Ord Item)*] the remaining signature replaces that
        // subexpression by Ord: (Cust(Ord Item)*)* becomes (Cust Ord*)... as
        // used in Example V.6 the top operator becomes [(Cust Ord)*].
        let s = sig("(Cust(Ord Item)*)*");
        let reduced = s.reduce_table("Ord");
        assert_eq!(reduced, sig("(Cust Ord)*"));
        // Reducing the leftmost table of the whole signature collapses it.
        assert_eq!(sig("(Cust(Ord Item*)*)*").reduce_table("Cust"), sig("Cust"));
    }

    #[test]
    fn tables_and_leftmost() {
        let s = sig("(Cust*(Ord*Item*)*)*");
        assert_eq!(s.tables(), vec!["Cust", "Ord", "Item"]);
        assert_eq!(s.leftmost_table(), "Cust");
        assert!(s.contains_table("Item"));
        assert!(!s.contains_table("Nation"));
        assert_eq!(s.star_count(), 5);
        assert!(s.has_star());
        assert!(!sig("Cust Ord").has_star());
    }
}
