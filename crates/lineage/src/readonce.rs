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
//! [`Canonical::factorize`] implements the unate recursive decomposition:
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
//! call is near-linear in the formula. Clause sets are flat CSRs over dense
//! `u32` variable ids whose order is variable order, [`Clauses`]. The loop
//! interns a bag once and keeps every frontier leaf [`Canonical`] over the
//! bag's ids — a cofactor is a merge ([`Canonical::cofactor`]), already in
//! the order absorption wants. A monotone relabelling of ids changes no
//! comparison made here, so neither the tree nor its child order. A step
//! indexes its clause set by variable, finds ∨-components by union-find and
//! co-components by BFS on the complement graph with a shrinking unvisited
//! list — `O(n + Σ|clause|²)`, no adjacency matrix. A clause set is a range
//! of one permutation, which an ∨-step stable-partitions: no part is copied,
//! nor read behind the first blocked one. Absorption counts hits through the top step's index, and only where
//! a [`Canonical`]'s known minimality leaves a containment possible. A call
//! allocates its ∧-projections, its tree and its witness; the rest is the
//! caller's [`FactorScratch`].

use std::ops::Range;

use pdb_storage::Variable;

use crate::prob::{independent_and, independent_or};

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
    /// marginals `p`: one bottom-up pass, [`independent_and`] at ∧ and
    /// [`independent_or`] at ∨, children in order.
    pub fn probability(&self, p: &impl Fn(Variable) -> f64) -> f64 {
        match self {
            ReadOnceTree::Leaf(v) => p(*v),
            ReadOnceTree::And(children) => {
                independent_and(children.iter().map(|c| c.probability(p)))
            }
            ReadOnceTree::Or(children) => independent_or(children.iter().map(|c| c.probability(p))),
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

/// Outcome of [`Canonical::factorize`].
#[derive(Debug, Clone, PartialEq)]
pub enum Factorization {
    /// The formula is constant (empty DNF is false; a DNF containing the
    /// empty clause is true).
    Constant(bool),
    /// The formula factors read-once.
    ReadOnce(ReadOnceTree),
    /// The formula is not read-once; the witness is the first clause set on
    /// which both decompositions got stuck, over the formula's ids.
    Blocked(Clauses),
}

impl Factorization {
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

    /// The clauses `order` lists, in its order, copied into a set of their own.
    fn listed(&self, order: &[u32]) -> Clauses {
        let mut out = Clauses::default();
        out.ends.reserve_exact(order.len());
        out.vars
            .reserve_exact(members(self, order).map(<[u32]>::len).sum());
        members(self, order).for_each(|clause| out.push(clause.iter().copied()));
        out
    }
}

/// The clauses of `set` that `order` lists.
fn members<'a>(set: &'a Clauses, order: &'a [u32]) -> impl Iterator<Item = &'a [u32]> + Clone {
    order.iter().map(|&i| set.clause(i as usize))
}

/// A formula as the anytime loop keeps it: the distinct clauses of a sequence
/// in canonical order — by (length, content), so every clause is behind the
/// clauses it could contain — each with its rank, the index of its first
/// occurrence in the sequence. Read by ascending rank it is the sequence with
/// every repeat of an earlier clause dropped.
#[derive(Debug, Clone, Default)]
pub struct Canonical {
    clauses: Clauses,
    rank: Vec<u32>,
    /// Known to hold no clause inside another (see [`Canonical::cofactor`]).
    minimal: bool,
    /// Per clause of a `true` cofactor of a minimal formula: whether it lost
    /// the split variable. Only such a clause can lie inside another, and
    /// only inside one that never held it.
    lost: Vec<bool>,
}

/// The canonical form of a sequence of clauses.
pub fn sort_dedup(sequence: &Clauses) -> Canonical {
    let clause = |i: &u32| sequence.clause(*i as usize);
    let mut rank: Vec<u32> = (0..sequence.len() as u32).collect();
    rank.sort_unstable_by_key(|i| (clause(i).len(), clause(i), *i));
    rank.dedup_by(|b, a| clause(a) == clause(b));
    let mut out = Canonical::default();
    (out.clauses, out.rank) = (sequence.listed(&rank), rank);
    out
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

    /// The Shannon cofactor: `false` drops the clauses that mention `id`;
    /// `true` drops `id` from them, and of two clauses that have become equal
    /// the one of higher rank — read by rank, the restricted sequence with
    /// every repeat of an earlier clause dropped. Clauses that lose a
    /// variable they share stay in canonical order and distinct, so the
    /// cofactor is a merge of them with the rest. Of a formula known minimal,
    /// a `false` cofactor is known minimal and a `true` one records which of
    /// its clauses lost `id`.
    pub fn cofactor(&self, id: u32, value: bool) -> Canonical {
        let set = &self.clauses;
        let record = value && self.minimal;
        let mut out = Canonical::default();
        out.clauses.vars.reserve(set.vars.len());
        out.clauses.ends.reserve(set.len());
        out.rank.reserve(set.len());
        out.lost.reserve(if record { set.len() } else { 0 });
        let mut push = |clause: &mut dyn Iterator<Item = u32>, i: usize, lost: bool| {
            out.clauses.push(clause);
            out.rank.push(self.rank[i]);
            out.lost.extend(Some(lost).filter(|_| record));
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
                    push(&mut without(s), s, true);
                    survives = order.is_lt();
                }
            }
            if survives {
                push(&mut whole.iter().copied(), i, false);
            }
        }
        shortened.for_each(|s| push(&mut without(s), s, true));
        out.minimal = !value && self.minimal;
        out
    }

    /// Factorizes the formula into a read-once tree, or returns the blocking
    /// clause set when no read-once form exists. `vars[id]` is the variable
    /// behind `id`, for the leaves of the tree; the table may hold more
    /// variables than the formula mentions. Records whether the formula is
    /// minimal, which spares its cofactors all or most of their absorption.
    pub fn factorize(&mut self, vars: &[Variable], scratch: &mut FactorScratch) -> Factorization {
        let (set, s) = (&self.clauses, scratch);
        let n = set.len();
        if n == 0 || set.clause(0).is_empty() {
            return Factorization::Constant(n > 0);
        }
        s.slot.resize(s.slot.len().max(vars.len()), 0);
        s.order.clear();
        s.order.extend(0..n as u32);
        s.bounds.clear();
        // Distinct clauses of one length do not contain each other.
        let indexed = !self.minimal && set.clause(0).len() < set.clause(n - 1).len();
        if indexed {
            s.index(set, 0..n);
            s.absorb(set, &self.lost);
        }
        (self.minimal, self.lost) = (s.order.len() == n, Vec::new());
        match build(set, 0..s.order.len(), indexed && self.minimal, vars, s) {
            Ok(tree) => Factorization::ReadOnce(tree),
            Err(stuck) => Factorization::Blocked(stuck),
        }
    }
}

/// The scratch of [`Canonical::factorize`], kept from call to call.
#[derive(Debug, Default)]
pub struct FactorScratch {
    /// The set's index: id → slot (never reset: an entry counts while `ids`
    /// points back at it), slot → id, and the positions of the clauses of
    /// slot `s`, `occurrences[offsets[s]..offsets[s + 1]]`.
    slot: Vec<u32>,
    ids: Vec<u32>,
    offsets: Vec<u32>,
    occurrences: Vec<u32>,
    /// Per clause: absorption's last candidate and hit count, ∨-component.
    hits: Vec<[u32; 2]>,
    component: Vec<u32>,
    /// Per slot: union-find parent, ∨- then co-component, BFS stamp; and the
    /// BFS's lists, the queue also holding the range an ∨-step partitions.
    parent: Vec<u32>,
    group: Vec<u32>,
    stamp: Vec<u32>,
    unvisited: Vec<u32>,
    queue: Vec<u32>,
    /// Every clause set of the recursion is a range of `order`, clause
    /// indices into the formula or an ∧-projection pushed above the range it
    /// projects; `bounds` holds the component ends of the ∨-steps on the path.
    order: Vec<u32>,
    bounds: Vec<u32>,
}

impl FactorScratch {
    /// Indexes the clause set `order[range]` of `set` by variable.
    fn index(&mut self, set: &Clauses, range: Range<usize>) {
        self.ids.clear();
        self.offsets.clear();
        for &id in members(set, &self.order[range.clone()]).flatten() {
            if self.ids.get(self.slot[id as usize] as usize) != Some(&id) {
                self.slot[id as usize] = self.ids.len() as u32;
                self.ids.push(id);
                self.offsets.push(0);
            }
            self.offsets[self.slot[id as usize] as usize] += 1;
        }
        // Each slot's end; filled back to front, each end becomes its start.
        let mut total = 0;
        for offset in &mut self.offsets {
            total += *offset;
            *offset = total;
        }
        self.offsets.push(total);
        self.occurrences.clear();
        self.occurrences.resize(total as usize, 0);
        for (p, &i) in self.order[range].iter().enumerate().rev() {
            for &id in set.clause(i as usize) {
                let at = &mut self.offsets[self.slot[id as usize] as usize];
                *at -= 1;
                self.occurrences[*at as usize] = p as u32;
            }
        }
    }

    /// Absorption over the whole of the indexed `set`, in canonical order:
    /// leaves in `order` the clauses that contain no other one — the unique
    /// positive IDNF. A flag per clause in `lost` limits the search to a
    /// flagged clause inside an unflagged one.
    fn absorb(&mut self, set: &Clauses, lost: &[bool]) {
        let lost = |k: u32| lost.get(k as usize).copied();
        self.hits.clear();
        self.hits.resize(set.len(), [u32::MAX, 0]);
        self.order.clear();
        // Clauses before `shorter` are strictly shorter than the candidate.
        let mut shorter = 0;
        for (i, candidate) in (0u32..).zip(set.iter()) {
            if i > 0 && candidate.len() > set.clause(i as usize - 1).len() {
                shorter = i;
            }
            let absorbed = lost(i) != Some(true)
                && candidate.iter().any(|&id| {
                    let s = self.slot[id as usize] as usize;
                    let (at, end) = (self.offsets[s] as usize, self.offsets[s + 1] as usize);
                    let absorbers = self.occurrences[at..end]
                        .iter()
                        .take_while(|&&k| k < shorter);
                    absorbers.filter(|&&k| lost(k) != Some(false)).any(|&k| {
                        let hit = &mut self.hits[k as usize];
                        *hit = [i, if hit[0] == i { hit[1] + 1 } else { 1 }];
                        hit[1] as usize == set.clause(k as usize).len()
                    })
                });
            if !absorbed {
                self.order.push(i);
            }
        }
    }

    /// The connected components of the indexed clause set `order[range]` of
    /// `set` under "shares a variable", numbered by smallest clause index (so
    /// the tree shape is canonical). Stable-partitions the range by component
    /// and pushes the end of each on `bounds`; returns the count and where.
    fn clause_components(&mut self, set: &Clauses, range: Range<usize>) -> (usize, usize) {
        fn find(parent: &mut [u32], mut s: u32) -> u32 {
            while parent[s as usize] != s {
                parent[s as usize] = parent[parent[s as usize] as usize];
                s = parent[s as usize];
            }
            s
        }
        let members = members(set, &self.order[range.clone()]);
        self.parent.clear();
        self.parent.extend(0..self.ids.len() as u32);
        for clause in members.clone() {
            let root = find(&mut self.parent, self.slot[clause[0] as usize]);
            for &id in &clause[1..] {
                let other = find(&mut self.parent, self.slot[id as usize]);
                self.parent[other as usize] = root;
            }
        }
        // Per root its component, per component (on `bounds`) its clauses.
        let at = self.bounds.len();
        self.group.clear();
        self.group.resize(self.ids.len(), u32::MAX);
        self.component.clear();
        for clause in members {
            let root = find(&mut self.parent, self.slot[clause[0] as usize]) as usize;
            if self.group[root] == u32::MAX {
                self.group[root] = (self.bounds.len() - at) as u32;
                self.bounds.push(0);
            }
            self.component.push(self.group[root]);
            self.bounds[at + self.group[root] as usize] += 1;
        }
        // Counts into starts; the scatter moves each start to its end.
        let mut start = range.start as u32;
        for bound in &mut self.bounds[at..] {
            (*bound, start) = (start, start + *bound);
        }
        self.queue.clear();
        self.queue.extend_from_slice(&self.order[range]);
        for (&i, &c) in self.queue.iter().zip(&self.component) {
            let cursor = &mut self.bounds[at + c as usize];
            self.order[*cursor as usize] = i;
            *cursor += 1;
        }
        (self.bounds.len() - at, at)
    }

    /// Connected components of the *complement* of the variable
    /// co-occurrence graph of the indexed `order[range]` of `set`: the group
    /// of every slot into `group`, and the number of groups. One group means
    /// no ∧-decomposition exists.
    ///
    /// BFS with a shrinking unvisited list: the co-occurrence neighbours of
    /// the dequeued variable are stamped from its occurrence lists, and
    /// every unvisited variable left unstamped is a complement neighbour. A
    /// variable that stays was stamped and one that leaves never comes back,
    /// so the search is `O(n + Σ|clause|²)` whatever the density of the
    /// complement, and it ends once every variable is visited.
    fn co_components(&mut self, set: &Clauses, range: Range<usize>) -> usize {
        let n = self.ids.len();
        self.group.resize(n, 0); // every entry is written before it is read
        self.stamp.clear();
        self.stamp.resize(n, u32::MAX);
        self.unvisited.clear();
        self.unvisited.extend(0..n as u32);
        let mut groups = 0;
        while let Some(start) = self.unvisited.pop() {
            self.group[start as usize] = groups;
            self.queue.clear();
            self.queue.push(start);
            while let Some(v) = self.queue.pop().filter(|_| !self.unvisited.is_empty()) {
                let (at, end) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
                for &p in &self.occurrences[at as usize..end as usize] {
                    for &id in set.clause(self.order[range.start + p as usize] as usize) {
                        self.stamp[self.slot[id as usize] as usize] = v;
                    }
                }
                self.unvisited.retain(|&u| {
                    let stays = self.stamp[u as usize] == v;
                    if !stays {
                        self.group[u as usize] = groups;
                        self.queue.push(u);
                    }
                    stays
                });
            }
            groups += 1;
        }
        groups as usize
    }
}

/// Recursive unate decomposition of the minimized clause set `order[range]`
/// of `set`, indexed already when `indexed`. `Err` carries the blocking
/// clause set.
fn build(
    set: &Clauses,
    range: Range<usize>,
    indexed: bool,
    vars: &[Variable],
    s: &mut FactorScratch,
) -> Result<ReadOnceTree, Clauses> {
    if range.len() == 1 {
        // A single clause: a leaf or a conjunction of leaves.
        let leaf = |&id: &u32| ReadOnceTree::Leaf(vars[id as usize]);
        return Ok(match set.clause(s.order[range.start] as usize) {
            [id] => leaf(id),
            ids => ReadOnceTree::And(ids.iter().map(leaf).collect()),
        });
    }
    if !indexed {
        s.index(set, range.clone());
    }

    // ∨-decomposition: connected components of clauses sharing a variable,
    // each a range; the ones behind the first blocked one are never read.
    let (components, at) = s.clause_components(set, range.clone());
    if components > 1 {
        let (mut children, mut start) = (Vec::new(), range.start);
        for c in at..at + components {
            let end = s.bounds[c] as usize;
            children.push(build(set, start..end, false, vars, s)?);
            start = end;
        }
        s.bounds.truncate(at);
        return Ok(ReadOnceTree::Or(children));
    }
    s.bounds.truncate(at);

    // ∧-decomposition: co-components of the variable co-occurrence graph.
    let groups = s.co_components(set, range.clone());
    if groups == 1 {
        // Neither decomposition applies: provably not read-once.
        return Err(set.listed(&s.order[range]));
    }
    // Project the clause set onto every group and verify normality: the
    // clause set must be exactly the cross product of its projections.
    let mut projections: Vec<Clauses> = (0..groups).map(|_| Clauses::default()).collect();
    let every_clause_meets_every_group = members(set, &s.order[range.clone()]).all(|clause| {
        for &id in clause {
            let g = s.group[s.slot[id as usize] as usize];
            projections[g as usize].vars.push(id);
        }
        projections.iter_mut().all(|p| {
            let before = p.ends.last().copied().unwrap_or(0);
            p.ends.push(p.vars.len() as u32);
            p.vars.len() as u32 > before
        })
    });
    if !every_clause_meets_every_group {
        return Err(set.listed(&s.order[range]));
    }
    let canonical = projections.iter().map(|p| sort_dedup(p).clauses);
    let mut projections: Vec<Clauses> = canonical.collect();
    // Every (minimized, distinct) clause is the union of its projections, so
    // it maps to a distinct combination; |clauses| == Π|projᵢ| therefore
    // holds exactly when the map is onto the cross product.
    let product = projections.iter().map(Clauses::len);
    if product.fold(1, usize::saturating_mul) != range.len() {
        return Err(set.listed(&s.order[range]));
    }
    // A containment between two clauses of one projection would extend, by
    // any one clause of each other projection, to a containment in the
    // (minimized) cross product: the projections need no absorption pass.
    projections.sort_unstable_by_key(|p| p.vars.iter().copied().min());
    let mut children = Vec::with_capacity(groups);
    for projection in &projections {
        let lo = s.order.len();
        s.order.extend(0..projection.len() as u32);
        children.push(build(projection, lo..s.order.len(), false, vars, s)?);
        s.order.truncate(lo);
    }
    Ok(ReadOnceTree::And(children))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_testkit::{exact_probability, Clause};
    use std::collections::{BTreeMap, BTreeSet};

    fn v(i: u64) -> Variable {
        Variable(i)
    }

    /// Factorizes the clauses — each ascending — over a table in which
    /// variable `i` has id `i`.
    fn factorize(clauses: &[&[u64]]) -> Factorization {
        let mut sequence = Clauses::default();
        for clause in clauses {
            sequence.push(clause.iter().map(|&i| i as u32));
        }
        let vars: Vec<Variable> = (0..16).map(v).collect();
        sort_dedup(&sequence).factorize(&vars, &mut FactorScratch::default())
    }

    fn assert_exact(clauses: &[&[u64]]) {
        let f = factorize(clauses);
        let tree = f.tree().expect("expected read-once");
        // Distinct, reproducible marginals in (0, 1).
        let variables: BTreeSet<Variable> =
            clauses.iter().copied().flatten().map(|&i| v(i)).collect();
        let marginal = |var: &Variable| 0.05 + 0.9 * ((var.0 * 37 % 19) as f64 / 19.0);
        let ps: BTreeMap<Variable, f64> =
            variables.iter().map(|var| (*var, marginal(var))).collect();
        let got = tree.probability(&|v| ps[&v]);
        let formula = clauses.iter().map(|c| Clause::new(c.iter().map(|&i| v(i))));
        let want = exact_probability(&formula.collect(), &ps);
        assert!(
            (got - want).abs() < 1e-12,
            "tree {got} vs oracle {want} on {clauses:?}"
        );
        // Read-once: every variable occurs exactly once.
        let mut vars = tree.variables();
        vars.sort_unstable();
        let mut distinct = vars.clone();
        distinct.dedup();
        assert_eq!(vars, distinct, "variable repeated in tree for {clauses:?}");
        assert_eq!(vars.len(), variables.len());
    }

    #[test]
    fn constants_factor_trivially() {
        assert_eq!(factorize(&[]), Factorization::Constant(false));
        assert_eq!(factorize(&[&[]]), Factorization::Constant(true));
    }

    #[test]
    fn single_variable_and_single_clause() {
        assert_eq!(
            factorize(&[&[3]]),
            Factorization::ReadOnce(ReadOnceTree::Leaf(v(3)))
        );
        assert_exact(&[&[1, 2, 3]]);
    }

    #[test]
    fn disjoint_clauses_or_decompose() {
        // xy ∨ zu: independent clauses.
        assert_exact(&[&[1, 2], &[3, 4]]);
    }

    #[test]
    fn shared_variable_and_decomposes() {
        // xb ∨ yb = (x ∨ y) ∧ b.
        let d: &[&[u64]] = &[&[1, 3], &[2, 3]];
        assert_exact(d);
        match factorize(d).tree().unwrap() {
            ReadOnceTree::And(children) => assert_eq!(children.len(), 2),
            other => panic!("expected ∧-root, got {other:?}"),
        }
    }

    #[test]
    fn cross_product_factorizes() {
        // (x ∨ y)(a ∨ b) expanded: xa ∨ xb ∨ ya ∨ yb.
        assert_exact(&[&[1, 3], &[1, 4], &[2, 3], &[2, 4]]);
    }

    #[test]
    fn nested_factorization() {
        // x(a ∨ bc) ∨ d expanded: xa ∨ xbc ∨ d.
        assert_exact(&[&[1, 2], &[1, 3, 4], &[5]]);
    }

    #[test]
    fn absorption_is_applied_before_decomposition() {
        // xy ∨ x ≡ x: the absorbed clause must not block factorization.
        let d: &[&[u64]] = &[&[1, 2], &[1]];
        assert_eq!(
            factorize(d),
            Factorization::ReadOnce(ReadOnceTree::Leaf(v(1)))
        );
    }

    #[test]
    fn the_path_p4_is_blocked() {
        // xy ∨ yz ∨ zu: the canonical non-read-once monotone formula (its
        // co-occurrence graph is the path P4).
        let d: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4]];
        match factorize(d) {
            Factorization::Blocked(witness) => {
                assert_eq!(witness.len(), 3);
                assert_eq!(witness.literals().iter().collect::<BTreeSet<_>>().len(), 4);
            }
            other => panic!("expected blocked, got {other:?}"),
        }
    }

    #[test]
    fn blocked_witness_is_the_inner_subformula() {
        // (P4) ∨ w: the ∨-decomposition strips the independent clause and
        // the witness is the P4 core only.
        let d: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4], &[9]];
        match factorize(d) {
            Factorization::Blocked(witness) => {
                assert_eq!(witness.len(), 3);
                assert!(!witness.literals().contains(&9));
            }
            other => panic!("expected blocked, got {other:?}"),
        }
    }

    #[test]
    fn non_normal_connected_formula_is_blocked() {
        // xa ∨ xb ∨ ya: connected, co-components {x,y} and {a,b}, but the
        // clause set is not the full cross product (ya present, yb absent).
        let d: &[&[u64]] = &[&[1, 3], &[1, 4], &[2, 3]];
        assert!(matches!(factorize(d), Factorization::Blocked(_)));
    }

    #[test]
    fn leaf_count_and_variables() {
        let d: &[&[u64]] = &[&[1, 3], &[2, 3]];
        let tree = factorize(d).tree().unwrap().clone();
        assert_eq!(tree.leaf_count(), 3);
        let mut vars = tree.variables();
        vars.sort_unstable();
        assert_eq!(vars, vec![v(1), v(2), v(3)]);
    }
}
