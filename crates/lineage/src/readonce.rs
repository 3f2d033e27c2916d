//! Read-once factorization of monotone DNF lineage.
//!
//! A monotone Boolean formula is *read-once* (1OF) if it is equivalent to a
//! formula in which every variable appears exactly once. For such formulas
//! the probability is computed exactly in one bottom-up pass: independent
//! products at ∧-nodes and the inclusion–exclusion-free
//! `1 − Π(1 − pᵢ)` combinator at ∨-nodes — the same combinators the
//! paper's operator is built from. Lineage of many #P-hard (unsafe) queries
//! still factors read-once on concrete data, which is what makes the
//! fallback path of the unsafe-query subsystem worthwhile (Roy et al.,
//! arXiv:1012.0335).
//!
//! [`factorize`] implements the unate recursive decomposition:
//!
//! 1. the DNF is absorption-minimized (positive IDNF),
//! 2. ∨-decomposition splits the clause set into connected components of
//!    the "shares a variable" relation,
//! 3. ∧-decomposition splits a connected clause set along the connected
//!    components of the *complement* of the variable co-occurrence graph and
//!    verifies *normality*: the clause set must be exactly the cross product
//!    of its projections onto the components.
//!
//! When both decompositions are stuck the sub-formula in hand is provably
//! not read-once and is returned as the blocking witness
//! ([`Factorization::Blocked`]) — the dissociation bounds evaluator takes
//! over from there.
//!
//! # Cost
//!
//! The anytime loop factorizes both cofactors of every Shannon split, so a
//! call is near-linear in the formula. Variables are interned to dense `u32`
//! ids (their rank, so id order is variable order) and every clause set is
//! one flat CSR over them, [`Clauses`]. [`factorize`] interns its `Dnf` on
//! every call ([`intern`], then the one sort of [`sort_dedup`]); the anytime
//! loop interns a bag once, from its rows, and keeps every frontier leaf
//! [`Canonical`]: a cofactor is a merge ([`Canonical::cofactor`]), already
//! sorted when [`Canonical::factorize`] — the decomposition both entries
//! share — absorbs it, and it keeps its bag's ids. Ids may thus come from a
//! superset table: every comparison made here is between ids, and a monotone
//! relabelling leaves them, hence the tree and its child order, unchanged.
//! Only [`factorize`] builds the `Dnf` witness of a blocked formula. A
//! recursion step indexes its clause set by variable, then absorbs by
//! counting hits through the occurrence lists, finds ∨-components by
//! union-find over the variables, and finds co-components by BFS on the
//! complement graph with a shrinking unvisited list — `O(n + Σ|clause|²)`, no
//! adjacency matrix. A step hands its clause set over to its children, which
//! partition it, before it recurses, so the scratch alive at any moment is
//! linear in the input.

use pdb_storage::Variable;

use crate::dnf::{Clause, Dnf};

/// A read-once factorization tree: every variable occurs in exactly one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOnceTree {
    /// A single variable.
    Leaf(Variable),
    /// Conjunction of independent subtrees (disjoint variable sets).
    And(Vec<ReadOnceTree>),
    /// Disjunction of independent subtrees (disjoint variable sets).
    Or(Vec<ReadOnceTree>),
}

impl ReadOnceTree {
    /// Exact probability of the subtree under independent variables with the
    /// marginals `p`: one bottom-up pass, products at ∧, `1 − Π(1 − pᵢ)` at ∨.
    pub fn probability(&self, p: &impl Fn(Variable) -> f64) -> f64 {
        match self {
            ReadOnceTree::Leaf(v) => p(*v),
            ReadOnceTree::And(children) => children.iter().map(|c| c.probability(p)).product(),
            ReadOnceTree::Or(children) => {
                let none: f64 = children.iter().map(|c| 1.0 - c.probability(p)).product();
                1.0 - none
            }
        }
    }

    /// Number of leaves — equal to the number of distinct variables, since
    /// every variable occurs exactly once.
    pub fn leaf_count(&self) -> usize {
        match self {
            ReadOnceTree::Leaf(_) => 1,
            ReadOnceTree::And(children) | ReadOnceTree::Or(children) => {
                children.iter().map(|c| c.leaf_count()).sum()
            }
        }
    }

    /// The variables of the tree, in leaf order.
    pub fn variables(&self) -> Vec<Variable> {
        let mut out = Vec::with_capacity(self.leaf_count());
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut Vec<Variable>) {
        match self {
            ReadOnceTree::Leaf(v) => out.push(*v),
            ReadOnceTree::And(children) | ReadOnceTree::Or(children) => {
                for c in children {
                    c.collect_variables(out);
                }
            }
        }
    }
}

/// Outcome of [`factorize`] (witness: a [`Dnf`]) and of
/// [`Canonical::factorize`] (witness: the stuck clause set, left interned).
#[derive(Debug, Clone, PartialEq)]
pub enum Factorization<W = Dnf> {
    /// The formula is constant (empty DNF is false; a DNF containing the
    /// empty clause is true).
    Constant(bool),
    /// The formula factors read-once.
    ReadOnce(ReadOnceTree),
    /// The formula is not read-once; the witness is the first sub-formula on
    /// which both decompositions got stuck.
    Blocked(W),
}

impl<W> Factorization<W> {
    /// The read-once tree, if the formula factored.
    pub fn tree(&self) -> Option<&ReadOnceTree> {
        match self {
            Factorization::ReadOnce(t) => Some(t),
            _ => None,
        }
    }

    /// Whether the formula factored read-once (constants count as trivially
    /// read-once).
    pub fn is_read_once(&self) -> bool {
        !matches!(self, Factorization::Blocked(_))
    }
}

/// Factorizes a monotone DNF into a read-once tree, or returns the blocking
/// sub-formula when no read-once form exists.
pub fn factorize(dnf: &Dnf) -> Factorization {
    let (vars, root) = intern(dnf);
    match sort_dedup(&root).factorize(&vars, &mut vec![0; vars.len()]) {
        Factorization::Constant(b) => Factorization::Constant(b),
        Factorization::ReadOnce(tree) => Factorization::ReadOnce(tree),
        Factorization::Blocked(stuck) => {
            let clause = |c: &[u32]| Clause::new(c.iter().map(|&id| vars[id as usize]));
            Factorization::Blocked(Dnf::new(stuck.iter().map(clause)))
        }
    }
}

/// Interns a formula: its variables, ascending — a variable's id is its rank
/// — and its clauses over those ids, in insertion order.
pub fn intern(dnf: &Dnf) -> (Vec<Variable>, Clauses) {
    let occurrences = dnf.clauses().iter().flat_map(Clause::vars);
    let mut vars: Vec<Variable> = occurrences.copied().collect();
    vars.sort_unstable();
    vars.dedup();
    let id = |v| vars.binary_search(v).expect("interned above") as u32;
    let mut root = Clauses::default();
    for clause in dnf.clauses() {
        root.push(clause.vars().iter().map(id));
    }
    (vars, root)
}

/// A clause set in flat CSR form over dense variable ids whose order is
/// variable order: clause `i` is `vars[ends[i - 1]..ends[i]]`, ids ascending
/// and distinct. An empty clause is the constant true.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clauses {
    ends: Vec<u32>,
    vars: Vec<u32>,
}

impl Clauses {
    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the set has no clauses (the constant false).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every variable occurrence, clause after clause.
    pub fn literals(&self) -> &[u32] {
        &self.vars
    }

    /// The ids of clause `i`.
    pub fn clause(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.vars[start as usize..self.ends[i] as usize]
    }

    /// The clauses, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(|i| self.clause(i))
    }

    /// Appends a clause; `clause` yields its ids ascending and distinct.
    pub fn push(&mut self, clause: impl IntoIterator<Item = u32>) {
        self.vars.extend(clause);
        let end = u32::try_from(self.vars.len());
        self.ends
            .push(end.expect("a formula of fewer than 2³² variable occurrences"));
    }
}

/// A formula as the anytime loop keeps it: the distinct clauses of a sequence
/// in canonical order — by (length, content), so every clause is behind the
/// clauses it could contain — each with its rank, the index of its first
/// occurrence in the sequence. Read by ascending rank it is the sequence as
/// one [`Dnf::add_clause`] per clause leaves it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Canonical {
    clauses: Clauses,
    rank: Vec<u32>,
}

/// The canonical form of a sequence of clauses.
pub fn sort_dedup(sequence: &Clauses) -> Canonical {
    let clause = |i: &u32| sequence.clause(*i as usize);
    let mut rank: Vec<u32> = (0..sequence.len() as u32).collect();
    rank.sort_unstable_by_key(|i| (clause(i).len(), clause(i), *i));
    rank.dedup_by(|b, a| clause(a) == clause(b));
    let mut clauses = Clauses::default();
    rank.iter()
        .for_each(|i| clauses.push(clause(i).iter().copied()));
    Canonical { clauses, rank }
}

impl Canonical {
    /// The clauses, in canonical order.
    pub fn clauses(&self) -> &Clauses {
        &self.clauses
    }

    /// The rank of every clause.
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// The Shannon cofactor, clause for clause what [`Dnf::assign`] leaves:
    /// `false` drops the clauses that mention `id`; `true` drops `id` from
    /// them, and of two clauses that have become equal the one of higher
    /// rank. Clauses that lose a variable they share stay in canonical order
    /// and distinct, so the cofactor is a merge of them with the rest.
    pub fn cofactor(&self, id: u32, value: bool) -> Canonical {
        let set = &self.clauses;
        let mut out = Canonical::default();
        out.clauses.vars.reserve(set.vars.len());
        out.clauses.ends.reserve(set.len());
        out.rank.reserve(set.len());
        let mut push = |clause: &mut dyn Iterator<Item = u32>, i: usize| {
            out.clauses.push(clause);
            out.rank.push(self.rank[i]);
        };
        let mentions = |i: &usize| set.clause(*i).binary_search(&id).is_ok();
        let without = |i: usize| set.clause(i).iter().copied().filter(move |&v| v != id);
        let mut shortened = (0..set.len()).filter(|i| value && mentions(i)).peekable();
        for i in (0..set.len()).filter(|i| !mentions(i)) {
            let whole = set.clause(i);
            let mut survives = true;
            while let Some(&s) = shortened.peek() {
                let lengths = (set.clause(s).len() - 1).cmp(&whole.len());
                let order = lengths.then_with(|| without(s).cmp(whole.iter().copied()));
                if order.is_gt() {
                    break;
                }
                shortened.next();
                if order.is_lt() || self.rank[s] < self.rank[i] {
                    push(&mut without(s), s);
                    survives = order.is_lt();
                }
            }
            if survives {
                push(&mut whole.iter().copied(), i);
            }
        }
        shortened.for_each(|s| push(&mut without(s), s));
        out
    }

    /// [`factorize`] with the witness left interned. `vars[id]` is the
    /// variable behind `id`, for the leaves of the tree; the table may hold
    /// more variables than the formula mentions. `slot` is scratch of
    /// `vars.len()` entries with anything in them.
    pub fn factorize(&self, vars: &[Variable], slot: &mut [u32]) -> Factorization<Clauses> {
        let set = &self.clauses;
        if set.is_empty() || set.clause(0).is_empty() {
            return Factorization::Constant(!set.is_empty());
        }
        match build(absorb(set, slot), vars, slot) {
            Ok(tree) => Factorization::ReadOnce(tree),
            Err(stuck) => Factorization::Blocked(stuck),
        }
    }
}

/// The distinct variables of one clause set, numbered in first-seen order
/// (their *slots*), each with the ascending indices of its clauses.
struct Occurrences {
    /// Slot → variable id.
    ids: Vec<u32>,
    offsets: Vec<u32>,
    clauses: Vec<u32>,
}

impl Occurrences {
    /// Indexes `set`. `slot` is the call's id → slot table; it is never reset
    /// between clause sets, because an entry counts only while `ids` points
    /// back at it.
    fn index(set: &Clauses, slot: &mut [u32]) -> Occurrences {
        let mut ids: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        for &id in &set.vars {
            if ids.get(slot[id as usize] as usize) != Some(&id) {
                slot[id as usize] = ids.len() as u32;
                ids.push(id);
                offsets.push(0);
            }
            offsets[slot[id as usize] as usize + 1] += 1;
        }
        for s in 1..offsets.len() {
            offsets[s] += offsets[s - 1];
        }
        let mut next = offsets.clone();
        let mut clauses = vec![0u32; set.vars.len()];
        for (i, clause) in set.iter().enumerate() {
            for &id in clause {
                let at = &mut next[slot[id as usize] as usize];
                clauses[*at as usize] = i as u32;
                *at += 1;
            }
        }
        Occurrences {
            ids,
            offsets,
            clauses,
        }
    }

    /// The clauses the variable in slot `s` occurs in.
    fn of(&self, s: u32) -> &[u32] {
        &self.clauses[self.offsets[s as usize] as usize..self.offsets[s as usize + 1] as usize]
    }
}

/// Absorption over a [`sort_dedup`]-ordered clause set: drops every clause
/// that contains another one, which leaves the unique positive IDNF.
fn absorb(set: &Clauses, slot: &mut [u32]) -> Clauses {
    let n = set.len();
    if set.clause(0).len() == set.clause(n - 1).len() {
        // Distinct clauses of one length do not contain each other.
        return set.clone();
    }
    let occurrences = Occurrences::index(set, slot);
    // Per clause: the candidate that last hit it, and how many of its
    // variables that candidate has hit; all of them means containment.
    let mut hits = vec![(usize::MAX, 0usize); n];
    // Clauses before `shorter` are strictly shorter than the candidate.
    let mut shorter = 0;
    let mut kept = Clauses::default();
    for (i, candidate) in set.iter().enumerate() {
        if i > 0 && candidate.len() > set.clause(i - 1).len() {
            shorter = i as u32;
        }
        let absorbed = candidate.iter().any(|&id| {
            let of = occurrences.of(slot[id as usize]);
            of.iter().take_while(|&&k| k < shorter).any(|&k| {
                let hit = &mut hits[k as usize];
                *hit = (i, if hit.0 == i { hit.1 + 1 } else { 1 });
                hit.1 == set.clause(k as usize).len()
            })
        });
        if !absorbed {
            kept.push(candidate.iter().copied());
        }
    }
    kept
}

/// Recursive unate decomposition over a minimized clause set. `Err` carries
/// the blocking clause set.
fn build(set: Clauses, vars: &[Variable], slot: &mut [u32]) -> Result<ReadOnceTree, Clauses> {
    if set.len() == 1 {
        // A single clause: a leaf or a conjunction of leaves.
        let leaf = |&id: &u32| ReadOnceTree::Leaf(vars[id as usize]);
        return Ok(match set.clause(0) {
            [id] => leaf(id),
            ids => ReadOnceTree::And(ids.iter().map(leaf).collect()),
        });
    }
    let occurrences = Occurrences::index(&set, slot);

    // ∨-decomposition: connected components of clauses sharing a variable.
    let (component, components) = clause_components(&set, occurrences.ids.len(), slot);
    if components > 1 {
        let mut parts: Vec<Clauses> = (0..components).map(|_| Clauses::default()).collect();
        for (clause, &c) in set.iter().zip(&component) {
            parts[c as usize].push(clause.iter().copied());
        }
        drop((set, occurrences, component));
        let children = parts.into_iter().map(|part| build(part, vars, slot));
        return children.collect::<Result<_, _>>().map(ReadOnceTree::Or);
    }

    // ∧-decomposition: co-components of the variable co-occurrence graph.
    let (group, groups) = co_components(&set, &occurrences, slot);
    if groups == 1 {
        // Neither decomposition applies: provably not read-once.
        return Err(set);
    }
    // Project the clause set onto every group and verify normality: the
    // clause set must be exactly the cross product of its projections.
    let mut projections: Vec<Clauses> = (0..groups).map(|_| Clauses::default()).collect();
    let every_clause_meets_every_group = set.iter().all(|clause| {
        for &id in clause {
            let g = group[slot[id as usize] as usize];
            projections[g as usize].vars.push(id);
        }
        projections.iter_mut().all(|p| {
            let before = p.ends.last().copied().unwrap_or(0);
            p.ends.push(p.vars.len() as u32);
            p.vars.len() as u32 > before
        })
    });
    if !every_clause_meets_every_group {
        return Err(set);
    }
    let canonical = projections.iter().map(|p| sort_dedup(p).clauses);
    let mut projections: Vec<Clauses> = canonical.collect();
    // Every (minimized, distinct) clause is the union of its projections, so
    // it maps to a distinct combination; |clauses| == Π|projᵢ| therefore
    // holds exactly when the map is onto the cross product.
    let product = projections.iter().map(Clauses::len);
    if product.fold(1, usize::saturating_mul) != set.len() {
        return Err(set);
    }
    // A containment between two clauses of one projection would extend, by
    // any one clause of each other projection, to a containment in the
    // (minimized) cross product: the projections need no absorption pass.
    projections.sort_unstable_by_key(|p| p.vars.iter().copied().min());
    drop((set, occurrences, group));
    let children = projections.into_iter().map(|p| build(p, vars, slot));
    children.collect::<Result<_, _>>().map(ReadOnceTree::And)
}

/// Connected components of the clause set under "shares a variable": the
/// component of every clause, numbered by smallest clause index (so the tree
/// shape is canonical), and their count. `vars` is the number of slots.
fn clause_components(set: &Clauses, vars: usize, slot: &[u32]) -> (Vec<u32>, usize) {
    fn find(parent: &mut [u32], mut s: u32) -> u32 {
        while parent[s as usize] != s {
            parent[s as usize] = parent[parent[s as usize] as usize];
            s = parent[s as usize];
        }
        s
    }
    let mut parent: Vec<u32> = (0..vars as u32).collect();
    for clause in set.iter() {
        let root = find(&mut parent, slot[clause[0] as usize]);
        for &id in &clause[1..] {
            let other = find(&mut parent, slot[id as usize]);
            parent[other as usize] = root;
        }
    }
    let mut number = vec![u32::MAX; vars];
    let mut components = 0;
    let of_clause = |clause: &[u32]| {
        let root = find(&mut parent, slot[clause[0] as usize]) as usize;
        if number[root] == u32::MAX {
            number[root] = components;
            components += 1;
        }
        number[root]
    };
    (set.iter().map(of_clause).collect(), components as usize)
}

/// Connected components of the *complement* of the variable co-occurrence
/// graph: the group of every slot, and the number of groups. One group means
/// no ∧-decomposition exists.
///
/// BFS with a shrinking unvisited list: the co-occurrence neighbours of the
/// dequeued variable are stamped from its occurrence lists, and every
/// unvisited variable left unstamped is a complement neighbour. A variable
/// that stays was stamped and one that leaves never comes back, so the
/// search is `O(n + Σ|clause|²)` whatever the density of the complement.
fn co_components(set: &Clauses, occurrences: &Occurrences, slot: &[u32]) -> (Vec<u32>, usize) {
    let n = occurrences.ids.len();
    let mut group = vec![0u32; n];
    let mut groups = 0;
    // Per slot: the dequeued variable whose neighbourhood last covered it.
    let mut stamp = vec![u32::MAX; n];
    let mut unvisited: Vec<u32> = (0..n as u32).collect();
    let mut queue: Vec<u32> = Vec::new();
    while let Some(start) = unvisited.pop() {
        group[start as usize] = groups;
        queue.push(start);
        while let Some(v) = queue.pop() {
            for &c in occurrences.of(v) {
                for &id in set.clause(c as usize) {
                    stamp[slot[id as usize] as usize] = v;
                }
            }
            unvisited.retain(|&u| {
                let stays = stamp[u as usize] == v;
                if !stays {
                    group[u as usize] = groups;
                    queue.push(u);
                }
                stays
            });
        }
        groups += 1;
    }
    (group, groups as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::exact_probability;
    use std::collections::BTreeMap;

    fn v(i: u64) -> Variable {
        Variable(i)
    }

    fn dnf(clauses: &[&[u64]]) -> Dnf {
        let mut d = Dnf::empty();
        for c in clauses {
            d.add_clause(Clause::new(c.iter().map(|i| v(*i))));
        }
        d
    }

    fn probs(d: &Dnf) -> BTreeMap<Variable, f64> {
        d.variables()
            .into_iter()
            .map(|var| {
                // Distinct, reproducible marginals in (0, 1).
                let p = 0.05 + 0.9 * ((var.0 * 37 % 19) as f64 / 19.0);
                (var, p)
            })
            .collect()
    }

    fn assert_exact(d: &Dnf) {
        let f = factorize(d);
        let tree = f.tree().expect("expected read-once");
        let ps = probs(d);
        let got = tree.probability(&|v| ps[&v]);
        let want = exact_probability(d, &ps);
        assert!(
            (got - want).abs() < 1e-12,
            "tree {got} vs oracle {want} on {d}"
        );
        // Read-once: every variable occurs exactly once.
        let mut vars = tree.variables();
        vars.sort_unstable();
        let mut distinct = vars.clone();
        distinct.dedup();
        assert_eq!(vars, distinct, "variable repeated in tree for {d}");
        assert_eq!(vars.len(), d.variables().len());
    }

    #[test]
    fn constants_factor_trivially() {
        assert_eq!(factorize(&Dnf::empty()), Factorization::Constant(false));
        let mut t = Dnf::empty();
        t.add_clause(Clause::empty());
        assert_eq!(factorize(&t), Factorization::Constant(true));
    }

    #[test]
    fn single_variable_and_single_clause() {
        assert_eq!(
            factorize(&dnf(&[&[3]])),
            Factorization::ReadOnce(ReadOnceTree::Leaf(v(3)))
        );
        assert_exact(&dnf(&[&[1, 2, 3]]));
    }

    #[test]
    fn disjoint_clauses_or_decompose() {
        // xy ∨ zu: independent clauses.
        assert_exact(&dnf(&[&[1, 2], &[3, 4]]));
    }

    #[test]
    fn shared_variable_and_decomposes() {
        // xb ∨ yb = (x ∨ y) ∧ b.
        let d = dnf(&[&[1, 3], &[2, 3]]);
        assert_exact(&d);
        match factorize(&d).tree().unwrap() {
            ReadOnceTree::And(children) => assert_eq!(children.len(), 2),
            other => panic!("expected ∧-root, got {other:?}"),
        }
    }

    #[test]
    fn cross_product_factorizes() {
        // (x ∨ y)(a ∨ b) expanded: xa ∨ xb ∨ ya ∨ yb.
        assert_exact(&dnf(&[&[1, 3], &[1, 4], &[2, 3], &[2, 4]]));
    }

    #[test]
    fn nested_factorization() {
        // x(a ∨ bc) ∨ d expanded: xa ∨ xbc ∨ d.
        assert_exact(&dnf(&[&[1, 2], &[1, 3, 4], &[5]]));
    }

    #[test]
    fn absorption_is_applied_before_decomposition() {
        // xy ∨ x ≡ x: the absorbed clause must not block factorization.
        let d = dnf(&[&[1, 2], &[1]]);
        assert_eq!(
            factorize(&d),
            Factorization::ReadOnce(ReadOnceTree::Leaf(v(1)))
        );
    }

    #[test]
    fn the_path_p4_is_blocked() {
        // xy ∨ yz ∨ zu: the canonical non-read-once monotone formula (its
        // co-occurrence graph is the path P4).
        let d = dnf(&[&[1, 2], &[2, 3], &[3, 4]]);
        match factorize(&d) {
            Factorization::Blocked(witness) => {
                assert_eq!(witness.len(), 3);
                assert_eq!(witness.variables().len(), 4);
            }
            other => panic!("expected blocked, got {other:?}"),
        }
    }

    #[test]
    fn blocked_witness_is_the_inner_subformula() {
        // (P4) ∨ w: the ∨-decomposition strips the independent clause and
        // the witness is the P4 core only.
        let d = dnf(&[&[1, 2], &[2, 3], &[3, 4], &[9]]);
        match factorize(&d) {
            Factorization::Blocked(witness) => {
                assert_eq!(witness.len(), 3);
                assert!(!witness.variables().contains(&v(9)));
            }
            other => panic!("expected blocked, got {other:?}"),
        }
    }

    #[test]
    fn non_normal_connected_formula_is_blocked() {
        // xa ∨ xb ∨ ya: connected, co-components {x,y} and {a,b}, but the
        // clause set is not the full cross product (ya present, yb absent).
        let d = dnf(&[&[1, 3], &[1, 4], &[2, 3]]);
        assert!(matches!(factorize(&d), Factorization::Blocked(_)));
    }

    #[test]
    fn leaf_count_and_variables() {
        let d = dnf(&[&[1, 3], &[2, 3]]);
        let tree = factorize(&d).tree().unwrap().clone();
        assert_eq!(tree.leaf_count(), 3);
        let mut vars = tree.variables();
        vars.sort_unstable();
        assert_eq!(vars, vec![v(1), v(2), v(3)]);
    }
}
