//! Conjunctive queries without self-joins.
//!
//! Following Section II.B of the paper, queries have the form
//! `π_A σ_φ (R1 ⋈ … ⋈ Rn)` where `A` is the projection list, `φ` is a
//! conjunction of comparisons between attributes and constants, and joins are
//! natural joins: "we assume that the join attributes have the same name in
//! the joined tables".

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use pdb_storage::{numeric_cmp, sort_distinct, TableStats, Value};

use crate::error::{QueryError, QueryResult};

/// A comparison operator used in constant selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `IN (v1, …, vk)` — set membership against the predicate's
    /// `alternatives` list. Against a single constant it degenerates to `=`.
    In,
}

impl CompareOp {
    /// Evaluates the comparison between a column value and the constant.
    ///
    /// `In` here compares against the single constant only; membership over a
    /// full alternative list goes through [`Predicate::matches`].
    pub fn eval(&self, left: &Value, right: &Value) -> bool {
        if left.is_null() || right.is_null() {
            return false;
        }
        match self {
            CompareOp::Eq | CompareOp::In => left == right,
            CompareOp::Ne => left != right,
            CompareOp::Lt => left < right,
            CompareOp::Le => left <= right,
            CompareOp::Gt => left > right,
            CompareOp::Ge => left >= right,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::In => "IN",
        };
        f.write_str(s)
    }
}

/// A unary selection predicate `relation.attribute op constant`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The relation the attribute belongs to.
    pub relation: String,
    /// The attribute name (unqualified).
    pub attribute: String,
    /// The comparison operator.
    pub op: CompareOp,
    /// The constant compared against.
    pub constant: Value,
    /// Additional constants for `In` predicates; `constant` holds the first
    /// list element and this holds the rest (empty for every other operator).
    /// [`Predicate::is_in`] keeps the list ascending (numbers compared as
    /// `f64`s, see [`Predicate::members_within`]), without duplicates or
    /// NULLs, which membership relies on.
    pub alternatives: Vec<Value>,
}

impl Predicate {
    /// Creates a predicate.
    pub fn new(
        relation: impl Into<String>,
        attribute: impl Into<String>,
        op: CompareOp,
        constant: impl Into<Value>,
    ) -> Self {
        Predicate {
            relation: relation.into(),
            attribute: attribute.into(),
            op,
            constant: constant.into(),
            alternatives: Vec::new(),
        }
    }

    /// Creates an `IN (v1, …, vk)` membership predicate. The list is kept
    /// sorted and deduplicated ([`sort_distinct`], as a distinct count
    /// counts), so membership is a binary search. NULL list elements never
    /// match (SQL semantics) and are dropped, and an *empty*
    /// list selects nothing: it is represented as the single member NULL,
    /// which every evaluation path (oracle, kernels, zone pruning) already
    /// treats as never-matching.
    pub fn is_in(
        relation: impl Into<String>,
        attribute: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<Value>>,
    ) -> Self {
        let mut list: Vec<Value> = values.into_iter().map(Into::into).collect();
        list.retain(|v| !v.is_null());
        sort_distinct(&mut list);
        let constant = if list.is_empty() {
            Value::Null
        } else {
            list.remove(0)
        };
        Predicate {
            relation: relation.into(),
            attribute: attribute.into(),
            op: CompareOp::In,
            constant,
            alternatives: list,
        }
    }

    /// A semi-join reduction filter: `relation.attribute IN keys` (NULLs and
    /// repeats dropped; no key selects nothing), built only when its list
    /// holds fewer than half the column's exact distinct count in `stats`,
    /// so that the scan drops at least half the column's values for one
    /// word-set pass.
    pub fn semi_join(
        stats: &TableStats,
        relation: &str,
        attribute: &str,
        keys: impl IntoIterator<Item = Value>,
    ) -> Option<Self> {
        let distinct = *stats.distinct.get(attribute)?;
        let filter = Predicate::is_in(relation, attribute, keys);
        (2 * (filter.alternatives.len() + 1) < distinct).then_some(filter)
    }

    /// All constants the predicate compares against: `constant` followed by
    /// `alternatives` (length 1 for every operator except `In`).
    pub fn constants(&self) -> impl Iterator<Item = &Value> {
        std::iter::once(&self.constant).chain(self.alternatives.iter())
    }

    /// The single evaluation oracle: whether column value `v` satisfies this
    /// predicate. NULL column values never match, and for `In` NULL list
    /// elements never match either. `In` membership is a binary search of
    /// the sorted list, then `Value`'s equality.
    pub fn matches(&self, v: &Value) -> bool {
        match self.op {
            CompareOp::In => !v.is_null() && self.members_within(v, v).any(|c| c == v),
            op => op.eval(v, &self.constant),
        }
    }

    /// The members of an `IN` list within `lo..=hi`, ascending, under
    /// `Value`'s order with every number compared as its `f64` (a NULL
    /// never is). `Value::cmp` compares two integers exactly, so beyond
    /// ±2⁵³ it is not transitive against floats and a list sorted by it
    /// cannot be searched; this order is total, and it puts every member
    /// `Value::cmp` places in `lo..=hi` inside it too.
    pub fn members_within<'a>(
        &'a self,
        lo: &'a Value,
        hi: &'a Value,
    ) -> impl Iterator<Item = &'a Value> {
        let from = (self.alternatives).partition_point(|c| numeric_cmp(c, lo).is_lt());
        let first = numeric_cmp(&self.constant, lo)
            .is_ge()
            .then_some(&self.constant);
        (first.into_iter().chain(&self.alternatives[from..]))
            .filter(|c| !c.is_null())
            .take_while(move |c| numeric_cmp(c, hi).is_le())
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.op == CompareOp::In {
            write!(
                f,
                "{}.{} IN ({}",
                self.relation, self.attribute, self.constant
            )?;
            for alt in &self.alternatives {
                write!(f, ", {alt}")?;
            }
            return write!(f, ")");
        }
        write!(
            f,
            "{}.{} {} {}",
            self.relation, self.attribute, self.op, self.constant
        )
    }
}

/// A relation atom `R(a1, …, ak)`: a relation name with the attributes the
/// query uses from it. Attribute names are unqualified; two atoms sharing an
/// attribute name are joined on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationAtom {
    /// Relation (table) name.
    pub name: String,
    /// Attributes of the relation, as used by this query.
    pub attributes: Vec<String>,
}

impl RelationAtom {
    /// Creates an atom.
    pub fn new(name: impl Into<String>, attributes: &[&str]) -> Self {
        RelationAtom {
            name: name.into(),
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The attribute set of this atom.
    pub fn attribute_set(&self) -> BTreeSet<String> {
        self.attributes.iter().cloned().collect()
    }

    /// Whether the atom mentions `attr`.
    pub fn has_attribute(&self, attr: &str) -> bool {
        self.attributes.iter().any(|a| a == attr)
    }
}

impl fmt::Display for RelationAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.attributes.join(", "))
    }
}

/// A conjunctive query without self-joins.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctiveQuery {
    /// Relation atoms `R1 … Rn`. Each relation name occurs at most once.
    pub relations: Vec<RelationAtom>,
    /// Projection (head) attributes `A`. Empty for Boolean queries.
    pub head: Vec<String>,
    /// Conjunction of constant selection predicates `φ`.
    pub predicates: Vec<Predicate>,
}

impl ConjunctiveQuery {
    /// Creates and validates a query.
    ///
    /// # Errors
    /// Rejects self-joins, head attributes absent from every atom, predicates
    /// on unknown relations or attributes, and empty queries.
    pub fn new(
        relations: Vec<RelationAtom>,
        head: Vec<String>,
        predicates: Vec<Predicate>,
    ) -> QueryResult<Self> {
        if relations.is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        for (i, r) in relations.iter().enumerate() {
            if relations[..i].iter().any(|s| s.name == r.name) {
                return Err(QueryError::SelfJoin(r.name.clone()));
            }
        }
        for h in &head {
            if !relations.iter().any(|r| r.has_attribute(h)) {
                return Err(QueryError::UnknownHeadAttribute(h.clone()));
            }
        }
        for p in &predicates {
            let atom = relations
                .iter()
                .find(|r| r.name == p.relation)
                .ok_or_else(|| QueryError::UnknownRelation(p.relation.clone()))?;
            if !atom.has_attribute(&p.attribute) {
                return Err(QueryError::UnknownPredicateAttribute {
                    relation: p.relation.clone(),
                    attribute: p.attribute.clone(),
                });
            }
        }
        Ok(ConjunctiveQuery {
            relations,
            head,
            predicates,
        })
    }

    /// Builder-style constructor used heavily in tests and the TPC-H query
    /// catalogue: atoms as `(name, attributes)` pairs.
    pub fn build(
        atoms: &[(&str, &[&str])],
        head: &[&str],
        predicates: Vec<Predicate>,
    ) -> QueryResult<Self> {
        ConjunctiveQuery::new(
            atoms
                .iter()
                .map(|(n, attrs)| RelationAtom::new(*n, attrs))
                .collect(),
            head.iter().map(|s| s.to_string()).collect(),
            predicates,
        )
    }

    /// Whether the query is Boolean (empty head).
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// The Boolean version of this query (same body, empty head).
    pub fn boolean_version(&self) -> ConjunctiveQuery {
        ConjunctiveQuery {
            relations: self.relations.clone(),
            head: Vec::new(),
            predicates: self.predicates.clone(),
        }
    }

    /// The atom for relation `name`, if present.
    pub fn relation(&self, name: &str) -> Option<&RelationAtom> {
        self.relations.iter().find(|r| r.name == name)
    }

    /// Names of all relations, in query order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.iter().map(|r| r.name.as_str()).collect()
    }

    /// For every attribute, the set of relations that mention it.
    pub fn attribute_occurrences(&self) -> BTreeMap<String, BTreeSet<String>> {
        let mut map: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for r in &self.relations {
            for a in &r.attributes {
                map.entry(a.clone()).or_default().insert(r.name.clone());
            }
        }
        map
    }

    /// The join attributes: attributes occurring in at least two relations.
    pub fn join_attributes(&self) -> BTreeSet<String> {
        self.attribute_occurrences()
            .into_iter()
            .filter(|(_, rels)| rels.len() >= 2)
            .map(|(a, _)| a)
            .collect()
    }

    /// The head attribute set.
    pub fn head_set(&self) -> BTreeSet<String> {
        self.head.iter().cloned().collect()
    }

    /// All attributes mentioned anywhere in the query.
    pub fn all_attributes(&self) -> BTreeSet<String> {
        self.relations
            .iter()
            .flat_map(|r| r.attributes.iter().cloned())
            .collect()
    }

    /// The predicates attached to relation `name`.
    pub fn predicates_for(&self, name: &str) -> Vec<&Predicate> {
        self.predicates
            .iter()
            .filter(|p| p.relation == name)
            .collect()
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π[{}] σ[", self.head.join(", "))?;
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "] (")?;
        for (i, r) in self.relations.iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

/// The guiding query `Q` of the paper's Introduction:
/// `π_odate σ_{cname='Joe', discount>0} (Cust ⋈_ckey Ord ⋈_{okey,ckey} Item)`,
/// with `Item` carrying a `ckey` column so the query is hierarchical.
///
/// Exposed here because nearly every crate in the workspace uses it as a
/// worked example and test fixture.
pub fn intro_query_q() -> ConjunctiveQuery {
    ConjunctiveQuery::build(
        &[
            ("Cust", &["ckey", "cname"]),
            ("Ord", &["okey", "ckey", "odate"]),
            ("Item", &["okey", "ckey", "discount"]),
        ],
        &["odate"],
        vec![
            Predicate::new("Cust", "cname", CompareOp::Eq, "Joe"),
            Predicate::new("Item", "discount", CompareOp::Gt, 0.0),
        ],
    )
    .expect("intro query is well-formed")
}

/// The paper's query `Q'`: like [`intro_query_q`] but `Item` has no `ckey`
/// attribute, which makes the query non-hierarchical (the prototypical hard
/// query) unless the functional dependency `okey → ckey` is exploited.
pub fn intro_query_q_prime() -> ConjunctiveQuery {
    ConjunctiveQuery::build(
        &[
            ("Cust", &["ckey", "cname"]),
            ("Ord", &["okey", "ckey", "odate"]),
            ("Item", &["okey", "discount"]),
        ],
        &["odate"],
        vec![
            Predicate::new("Cust", "cname", CompareOp::Eq, "Joe"),
            Predicate::new("Item", "discount", CompareOp::Gt, 0.0),
        ],
    )
    .expect("intro query Q' is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_op_eval() {
        assert!(CompareOp::Eq.eval(&Value::Int(1), &Value::Int(1)));
        assert!(CompareOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CompareOp::Ge.eval(&Value::Float(2.0), &Value::Int(2)));
        assert!(CompareOp::Ne.eval(&Value::str("a"), &Value::str("b")));
        assert!(!CompareOp::Eq.eval(&Value::Null, &Value::Int(1)));
        assert!(!CompareOp::Gt.eval(&Value::Int(3), &Value::Null));
    }

    #[test]
    fn in_predicate_matches_membership() {
        let p = Predicate::is_in("R", "a", [1i64, 3, 5]);
        assert_eq!(p.op, CompareOp::In);
        assert!(p.matches(&Value::Int(3)));
        assert!(p.matches(&Value::Int(5)));
        assert!(!p.matches(&Value::Int(2)));
        assert!(!p.matches(&Value::Null));
        // Cross-variant numeric equality holds for membership too.
        assert!(p.matches(&Value::Float(1.0)));
        // NULL list elements never match anything.
        let p = Predicate::is_in("R", "a", [Value::Null, Value::Int(7)]);
        assert!(p.matches(&Value::Int(7)));
        assert!(!p.matches(&Value::Null));
        // Display renders the full list.
        let p = Predicate::is_in("R", "a", ["x", "y"]);
        assert_eq!(p.to_string(), "R.a IN (x, y)");
    }

    #[test]
    fn in_lists_are_sorted_deduplicated_and_searched_exactly() {
        let list = [Value::Int(5), Value::Null, Value::Int(1), Value::Int(5)];
        let p = Predicate::is_in("R", "a", list.into_iter().chain([Value::Float(1.0)]));
        assert_eq!(p.to_string(), "R.a IN (1, 1, 5)");
        // Beyond 2^53 a float equals every integer that rounds to it, and
        // `Value::cmp` is not transitive there: membership still finds it.
        let big = 1i64 << 60;
        let p = Predicate::is_in(
            "R",
            "a",
            [
                Value::Int(big + 100),
                Value::Float(big as f64),
                Value::Int(big - 100),
            ],
        );
        for v in [big - 100, big - 50, big, big + 50, big + 100, big + 1000] {
            let v = Value::Int(v);
            assert_eq!(p.matches(&v), p.constants().any(|c| c == &v), "{v}");
        }
        assert!(p.matches(&Value::Int(big + 50)));
    }

    #[test]
    fn empty_in_list_selects_nothing() {
        // SQL's `a IN ()` is a contradiction, not an error: it is encoded as
        // the single member NULL, which no value ever equals.
        let p = Predicate::is_in("R", "a", Vec::<Value>::new());
        assert_eq!(p.op, CompareOp::In);
        assert_eq!(p.constant, Value::Null);
        assert!(p.alternatives.is_empty());
        for v in [
            Value::Int(0),
            Value::str(""),
            Value::Null,
            Value::Bool(false),
        ] {
            assert!(!p.matches(&v), "{v} must not match IN ()");
        }
    }

    #[test]
    fn all_null_in_list_selects_nothing() {
        let p = Predicate::is_in("R", "a", [Value::Null, Value::Null]);
        for v in [Value::Int(1), Value::Float(f64::NAN), Value::Null] {
            assert!(!p.matches(&v), "{v} must not match IN (NULL, NULL)");
        }
    }

    #[test]
    fn matches_agrees_with_eval_for_scalar_ops() {
        let p = Predicate::new("R", "a", CompareOp::Le, 4i64);
        for v in [Value::Int(3), Value::Int(4), Value::Int(5), Value::Null] {
            assert_eq!(p.matches(&v), p.op.eval(&v, &p.constant));
        }
    }

    #[test]
    fn in_query_validates_like_any_predicate() {
        let q = ConjunctiveQuery::build(
            &[("R", &["a"])],
            &["a"],
            vec![Predicate::is_in("R", "a", [1i64, 2])],
        )
        .unwrap();
        assert_eq!(q.predicates_for("R").len(), 1);
        let err = ConjunctiveQuery::build(
            &[("R", &["a"])],
            &[],
            vec![Predicate::is_in("S", "a", [1i64])],
        );
        assert!(matches!(err, Err(QueryError::UnknownRelation(_))));
    }

    #[test]
    fn self_join_rejected() {
        let err = ConjunctiveQuery::build(&[("R", &["a"]), ("R", &["b"])], &[], vec![]);
        assert!(matches!(err, Err(QueryError::SelfJoin(_))));
    }

    #[test]
    fn unknown_head_attribute_rejected() {
        let err = ConjunctiveQuery::build(&[("R", &["a"])], &["b"], vec![]);
        assert!(matches!(err, Err(QueryError::UnknownHeadAttribute(_))));
    }

    #[test]
    fn predicate_validation() {
        let err = ConjunctiveQuery::build(
            &[("R", &["a"])],
            &[],
            vec![Predicate::new("S", "a", CompareOp::Eq, 1i64)],
        );
        assert!(matches!(err, Err(QueryError::UnknownRelation(_))));
        let err = ConjunctiveQuery::build(
            &[("R", &["a"])],
            &[],
            vec![Predicate::new("R", "b", CompareOp::Eq, 1i64)],
        );
        assert!(matches!(
            err,
            Err(QueryError::UnknownPredicateAttribute { .. })
        ));
    }

    #[test]
    fn empty_query_rejected() {
        assert!(matches!(
            ConjunctiveQuery::build(&[], &[], vec![]),
            Err(QueryError::EmptyQuery)
        ));
    }

    #[test]
    fn join_attributes_of_intro_query() {
        let q = intro_query_q();
        let joins = q.join_attributes();
        assert!(joins.contains("ckey"));
        assert!(joins.contains("okey"));
        assert!(!joins.contains("odate"));
        assert!(!joins.contains("cname"));
    }

    #[test]
    fn q_prime_join_attributes() {
        let q = intro_query_q_prime();
        let joins = q.join_attributes();
        assert_eq!(joins.len(), 2);
        // ckey now only joins Cust and Ord; okey joins Ord and Item.
        let occ = q.attribute_occurrences();
        assert_eq!(occ["ckey"].len(), 2);
        assert_eq!(occ["okey"].len(), 2);
    }

    #[test]
    fn boolean_version_drops_head() {
        let q = intro_query_q();
        assert!(!q.is_boolean());
        let b = q.boolean_version();
        assert!(b.is_boolean());
        assert_eq!(b.relations, q.relations);
    }

    #[test]
    fn predicates_for_filters_by_relation() {
        let q = intro_query_q();
        assert_eq!(q.predicates_for("Cust").len(), 1);
        assert_eq!(q.predicates_for("Item").len(), 1);
        assert_eq!(q.predicates_for("Ord").len(), 0);
    }

    #[test]
    fn display_is_readable() {
        let q = intro_query_q();
        let s = q.to_string();
        assert!(s.contains("π[odate]"));
        assert!(s.contains("Cust(ckey, cname)"));
        assert!(s.contains("Cust.cname = Joe"));
    }

    #[test]
    fn accessors() {
        let q = intro_query_q();
        assert_eq!(q.relation_names(), vec!["Cust", "Ord", "Item"]);
        assert!(q.relation("Ord").is_some());
        assert!(q.relation("Nope").is_none());
        assert_eq!(q.all_attributes().len(), 5);
        assert_eq!(q.head_set().len(), 1);
    }
}
