//! Property tests for the read-once factorization pass.
//!
//! Seven angles:
//!
//! * **Soundness on arbitrary DNFs** — whenever [`factorize`] claims a
//!   read-once tree, its one-pass probability must equal the test kit's
//!   Shannon-expansion oracle ([`exact_probability`]), and the tree must
//!   mention every variable exactly once.
//! * **Completeness on known-read-once formulas** — a DNF *expanded from* a
//!   random read-once tree must factor back into a read-once form.
//! * **Blocked witnesses** — formulas embedding the path P4
//!   (`xy ∨ yz ∨ zu`, the canonical non-read-once pattern) must come back
//!   [`Factorization::Blocked`], with a witness that is itself entangled
//!   (every clause shares a variable with another).
//! * **Scale** — the same two properties on expansions of random read-once
//!   trees of up to a few thousand clauses, clause order shuffled and
//!   absorbed supersets injected: the probability must equal the tree's
//!   closed form, and a P4 planted at a random leaf must come back as
//!   exactly the witness.
//! * **The definition** — [`by_definition`] is the decomposition written
//!   down as its definition on a list of clauses (all-pairs absorption,
//!   "shares a variable" closed by repeated merging, a dense complement
//!   graph); [`factorize`] must return the *same* tree or witness, child
//!   order included, because the order of a tree's children is the order
//!   its probability is folded in.
//! * **The interned path** — a [`Canonical`] cofactor, read by rank, is the
//!   test kit's [`Dnf::assign`] clause for clause in order, and
//!   [`Canonical::factorize`] over ids from a superset table returns the
//!   tree or witness the formula's own dense ids give.
//! * **Chains of cofactors** — as the loop makes them, every leaf factorized
//!   before it is split, so each passes on what it learned of its
//!   minimality: at every leaf, the definition of the assigned formula.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use pdb_lineage::{sort_dedup, Canonical, Clauses, FactorScratch, Factorization, ReadOnceTree};
use pdb_storage::Variable;
use pdb_testkit::{exact_probability, Clause, Dnf};

fn probs_for(formula: &Dnf) -> BTreeMap<Variable, f64> {
    formula
        .variables()
        .into_iter()
        .map(|v| (v, 0.1 + 0.8 * ((v.0 * 7 % 11) as f64 / 11.0)))
        .collect()
}

fn dnf_from(clauses: &[Vec<u64>]) -> Dnf {
    Dnf::new(
        clauses
            .iter()
            .map(|c| Clause::new(c.iter().map(|v| Variable(*v)))),
    )
}

/// A factorization with its witness read back as clauses of variables.
#[derive(Debug, PartialEq)]
enum Outcome {
    Constant(bool),
    ReadOnce(ReadOnceTree),
    Blocked(Vec<Vec<Variable>>),
}

impl Outcome {
    /// The outcome of a formula factorized over the ids of `vars`.
    fn of(factorization: Factorization, vars: &[Variable]) -> Outcome {
        match factorization {
            Factorization::Constant(value) => Outcome::Constant(value),
            Factorization::ReadOnce(tree) => Outcome::ReadOnce(tree),
            Factorization::Blocked(stuck) => {
                let clause = |c: &[u32]| c.iter().map(|&id| vars[id as usize]).collect();
                Outcome::Blocked(stuck.iter().map(clause).collect())
            }
        }
    }

    fn is_read_once(&self) -> bool {
        !matches!(self, Outcome::Blocked(_))
    }
}

/// [`Canonical::factorize`] of the formula interned over the superset
/// [`table`], as the anytime loop interns a bag.
fn factorize(dnf: &Dnf) -> Outcome {
    let vars = table(dnf.variables().last().map_or(0, |v| v.0 + 1));
    Outcome::of(
        interned(dnf).factorize(&vars, &mut FactorScratch::default()),
        &vars,
    )
}

/// [`Canonical::factorize`] over the formula's own variables, ascending: a
/// variable's id is its rank.
fn factorize_dense(dnf: &Dnf) -> Outcome {
    let vars: Vec<Variable> = dnf.variables().into_iter().collect();
    let id = |v: &Variable| vars.binary_search(v).expect("a variable of the formula") as u32;
    let mut sequence = Clauses::default();
    for clause in dnf.clauses() {
        sequence.push(clause.vars().iter().map(id));
    }
    let factorization = sort_dedup(&sequence).factorize(&vars, &mut FactorScratch::default());
    Outcome::of(factorization, &vars)
}

/// A random read-once tree over fresh variables, returned as the pair
/// (equivalent DNF, number of leaves). `shape` drives the recursion
/// deterministically.
fn read_once_dnf(shape: &[u8], next: &mut u64, depth: usize) -> Dnf {
    if depth >= 3 || shape.is_empty() {
        let v = Variable(*next);
        *next += 1;
        return Dnf::var(v);
    }
    let arity = 2 + (shape[0] % 2) as usize;
    let children: Vec<Dnf> = (0..arity)
        .map(|i| read_once_dnf(&shape[(1 + i).min(shape.len())..], next, depth + 1))
        .collect();
    let mut it = children.into_iter();
    let first = it.next().unwrap();
    if shape[0].is_multiple_of(2) {
        it.fold(first, |acc, c| acc.or(&c))
    } else {
        it.fold(first, |acc, c| acc.and(&c))
    }
}

/// SplitMix64, to derive a whole instance from one generated seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// A generated formula: a read-once tree over distinct variables, except
/// that one leaf may be the path P4 over four variables of its own.
enum Shape {
    Leaf(u64),
    /// `ab ∨ bc ∨ cd` over the variables `a..a + 4`.
    P4(u64),
    And(Vec<Shape>),
    Or(Vec<Shape>),
}

impl Shape {
    /// A random alternating tree whose DNF has at most `clauses` clauses
    /// (an ∨ adds its children's clause counts up, an ∧ multiplies them).
    fn random(rng: &mut Rng, clauses: usize, or: bool, next: &mut u64) -> Shape {
        if clauses < 2 {
            *next += 1;
            return Shape::Leaf(*next - 1);
        }
        let mut children = Vec::new();
        let mut left = clauses;
        while left > 0 && children.len() < 6 {
            let share = if or {
                rng.range(1, left.div_ceil(2))
            } else {
                rng.range(1, (left as f64).sqrt() as usize + 1)
            };
            children.push(Shape::random(rng, share, !or, next));
            left = if or {
                left - share
            } else {
                left / share.max(2)
            };
        }
        match (children.len(), or) {
            (1, _) => children.pop().unwrap(),
            (_, true) => Shape::Or(children),
            (_, false) => Shape::And(children),
        }
    }

    /// Replaces the `n`-th leaf by a P4 over the four variables from `first`
    /// (`n` counts down and wraps past zero, so one leaf is hit).
    fn plant_p4(&mut self, n: &mut usize, first: u64) {
        match self {
            Shape::Leaf(_) => {
                if *n == 0 {
                    *self = Shape::P4(first);
                }
                *n = n.wrapping_sub(1);
            }
            Shape::P4(_) => {}
            Shape::And(children) | Shape::Or(children) => {
                children.iter_mut().for_each(|c| c.plant_p4(n, first))
            }
        }
    }

    fn leaves(&self) -> usize {
        match self {
            Shape::Leaf(_) | Shape::P4(_) => 1,
            Shape::And(children) | Shape::Or(children) => children.iter().map(Shape::leaves).sum(),
        }
    }

    /// The DNF of the formula: the clause lists of an ∨'s children side by
    /// side, the cross product of an ∧'s.
    fn expand(&self) -> Vec<Vec<u64>> {
        match self {
            Shape::Leaf(v) => vec![vec![*v]],
            Shape::P4(a) => vec![vec![*a, a + 1], vec![a + 1, a + 2], vec![a + 2, a + 3]],
            Shape::Or(children) => children.iter().flat_map(Shape::expand).collect(),
            Shape::And(children) => children.iter().fold(vec![vec![]], |acc, child| {
                let child = child.expand();
                acc.iter()
                    .flat_map(|a| child.iter().map(move |c| [a.as_slice(), c].concat()))
                    .collect()
            }),
        }
    }

    /// The closed form of a P4-free shape's probability.
    fn probability(&self, p: &dyn Fn(u64) -> f64) -> f64 {
        match self {
            Shape::Leaf(v) => p(*v),
            Shape::P4(_) => unreachable!("closed forms are taken of read-once shapes"),
            Shape::And(children) => children.iter().map(|c| c.probability(p)).product(),
            Shape::Or(children) => {
                1.0 - children
                    .iter()
                    .map(|c| 1.0 - c.probability(p))
                    .product::<f64>()
            }
        }
    }
}

fn marginal(v: u64) -> f64 {
    0.1 + 0.8 * ((v * 7 % 11) as f64 / 11.0)
}

/// The expansion as the engine would meet it: clauses in random order, with
/// one absorbed superset (a clause widened by variables of another) injected
/// per eight clauses.
fn disguised(rng: &mut Rng, mut clauses: Vec<Vec<u64>>) -> Dnf {
    for _ in 0..clauses.len().div_ceil(8) {
        let mut wider = clauses[rng.range(0, clauses.len() - 1)].clone();
        wider.extend_from_slice(&clauses[rng.range(0, clauses.len() - 1)]);
        clauses.push(wider);
    }
    for i in (1..clauses.len()).rev() {
        clauses.swap(i, rng.range(0, i));
    }
    dnf_from(&clauses)
}

/// [`factorize`] of a list of clauses — each sorted, of distinct variables —
/// by the definition of each step, as slow as the definition is: the
/// reference the near-linear implementation is held to.
fn by_definition(clauses: &[Vec<Variable>]) -> Outcome {
    by_definition_counting(clauses, &mut 0)
}

/// [`by_definition`], adding to `interleaved` every ∨-step inside an
/// ∧-projection whose components interleave in canonical order.
fn by_definition_counting(clauses: &[Vec<Variable>], interleaved: &mut usize) -> Outcome {
    if clauses.is_empty() || clauses.iter().any(Vec::is_empty) {
        return Outcome::Constant(!clauses.is_empty());
    }
    match decompose(&minimized(clauses.to_vec()), false, interleaved) {
        Ok(tree) => Outcome::ReadOnce(tree),
        Err(stuck) => Outcome::Blocked(stuck),
    }
}

/// The clauses that contain no other clause of the set, ordered by
/// (length, content).
fn minimized(mut clauses: Vec<Vec<Variable>>) -> Vec<Vec<Variable>> {
    clauses.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    clauses.dedup();
    let contains = |c: &Vec<Variable>, d: &Vec<Variable>| d != c && d.iter().all(|v| c.contains(v));
    let minimal = |c: &&Vec<Variable>| !clauses.iter().any(|d| contains(c, d));
    clauses.iter().filter(minimal).cloned().collect()
}

/// The classes of `0..n` under the closure of `related`, each ascending,
/// ordered by smallest member.
fn classes(n: usize, related: impl Fn(usize, usize) -> bool) -> Vec<Vec<usize>> {
    let mut class: Vec<usize> = (0..n).collect();
    loop {
        let mut merged = false;
        for i in 0..n {
            for j in 0..n {
                if class[i] < class[j] && related(i, j) {
                    let (from, to) = (class[j], class[i]);
                    class
                        .iter_mut()
                        .filter(|c| **c == from)
                        .for_each(|c| *c = to);
                    merged = true;
                }
            }
        }
        if !merged {
            let ids: BTreeSet<usize> = class.iter().copied().collect();
            let members = |id| (0..n).filter(|i| class[*i] == id).collect();
            return ids.into_iter().map(members).collect();
        }
    }
}

fn decompose(
    clauses: &[Vec<Variable>],
    under_and: bool,
    interleaved: &mut usize,
) -> Result<ReadOnceTree, Vec<Vec<Variable>>> {
    if let [clause] = clauses {
        let mut leaves: Vec<ReadOnceTree> = clause.iter().map(|v| ReadOnceTree::Leaf(*v)).collect();
        return Ok(match leaves.len() {
            1 => leaves.pop().unwrap(),
            _ => ReadOnceTree::And(leaves),
        });
    }
    // ∨: clauses sharing a variable, transitively.
    let share = |i: usize, j: usize| clauses[i].iter().any(|v| clauses[j].contains(v));
    let components = classes(clauses.len(), share);
    if components.len() > 1 {
        // Ordered by smallest member: a later component starts below the
        // end of an earlier one.
        let ends = components.iter().scan(0, |end, c| {
            Some(std::mem::replace(end, c[c.len() - 1].max(*end)))
        });
        if under_and && components.iter().zip(ends).any(|(c, end)| c[0] < end) {
            *interleaved += 1;
        }
        let part = |c: &Vec<usize>| c.iter().map(|i| clauses[*i].clone()).collect::<Vec<_>>();
        let children = components
            .iter()
            .map(|c| decompose(&part(c), under_and, interleaved));
        return children.collect::<Result<_, _>>().map(ReadOnceTree::Or);
    }
    // ∧: variables *not* sharing a clause, transitively.
    let vars: Vec<Variable> = clauses
        .iter()
        .flatten()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let apart = |i: usize, j: usize| {
        !clauses
            .iter()
            .any(|c| c.contains(&vars[i]) && c.contains(&vars[j]))
    };
    let groups = classes(vars.len(), apart);
    if groups.len() == 1 {
        return Err(clauses.to_vec());
    }
    let mut projections = Vec::new();
    for group in &groups {
        let onto = |c: &Vec<Variable>| -> Vec<Variable> {
            c.iter()
                .copied()
                .filter(|v| group.iter().any(|i| vars[*i] == *v))
                .collect()
        };
        let projection: BTreeSet<Vec<Variable>> = clauses.iter().map(onto).collect();
        if projection.contains(&Vec::new()) {
            return Err(clauses.to_vec());
        }
        projections.push(projection);
    }
    if projections.iter().map(BTreeSet::len).product::<usize>() != clauses.len() {
        return Err(clauses.to_vec());
    }
    let children = projections
        .into_iter()
        .map(|p| decompose(&minimized(p.into_iter().collect()), true, interleaved));
    children.collect::<Result<_, _>>().map(ReadOnceTree::And)
}

/// The id of variable `v` in [`table`]: a superset table, in which the
/// formula's variables are neither dense nor first.
fn id(v: Variable) -> u32 {
    3 * v.0 as u32 + 1
}

/// A variable table that maps every [`id`] back, with two variables of no
/// formula around each.
fn table(variables: u64) -> Vec<Variable> {
    let variable = |i: u64| Variable(if i % 3 == 1 { i / 3 } else { 1 << 40 | i });
    (0..3 * variables + 3).map(variable).collect()
}

/// The formula interned over [`id`]s as the anytime loop interns a bag: its
/// clauses in insertion order, un-absorbed, then canonical with ranks.
fn interned(dnf: &Dnf) -> Canonical {
    let mut sequence = Clauses::default();
    for clause in dnf.clauses() {
        sequence.push(clause.vars().iter().map(|v| id(*v)));
    }
    sort_dedup(&sequence)
}

/// An interned formula read back by rank, as a list of clauses of variables.
fn by_rank(formula: &Canonical) -> Vec<Vec<Variable>> {
    let variable = |id: &u32| Variable((*id as u64 - 1) / 3);
    let clauses = formula.clauses().iter();
    let mut ranked: Vec<(u32, Vec<Variable>)> = (formula.ranks().iter().copied())
        .zip(clauses.map(|c| c.iter().map(variable).collect()))
        .collect();
    ranked.sort();
    ranked.into_iter().map(|(_, clause)| clause).collect()
}

fn clause_lists(dnf: &Dnf) -> Vec<Vec<Variable>> {
    dnf.clauses().iter().map(|c| c.vars().to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary small DNFs: when the pass claims read-once, the one-pass
    /// evaluation equals the possible-worlds oracle and every variable
    /// appears exactly once in the tree.
    #[test]
    fn read_once_trees_agree_with_the_possible_worlds_oracle(
        clauses in proptest::collection::vec(
            proptest::collection::vec(0u64..8, 1..4), 1..6),
    ) {
        let dnf = dnf_from(&clauses);
        let probs = probs_for(&dnf);
        let want = exact_probability(&dnf, &probs);
        match factorize(&dnf) {
            Outcome::ReadOnce(tree) => {
                prop_assert_eq!(tree.leaf_count(), tree.variables().len(),
                    "read-once trees mention each variable once");
                let got = tree.probability(&|v| probs[&v]);
                prop_assert!((got - want).abs() < 1e-12,
                    "tree gave {got}, oracle {want} for {dnf}");
            }
            Outcome::Constant(b) => {
                prop_assert_eq!(want, if b { 1.0 } else { 0.0 });
            }
            Outcome::Blocked(witness) => {
                // The witness is a sub-formula of the absorption-minimized
                // input: every one of its variables occurs in the input.
                let vars = dnf.variables();
                for v in witness.iter().flatten() {
                    prop_assert!(vars.contains(v), "witness var {v:?} not in input");
                }
                prop_assert!(witness.len() >= 3,
                    "a blocked witness needs at least 3 entangled clauses");
            }
        }
    }

    /// DNFs expanded from random read-once trees always factor back:
    /// the pass is complete, not just sound.
    #[test]
    fn expansions_of_read_once_trees_factor_back(
        shape in proptest::collection::vec(0u8..=255, 1..12),
    ) {
        let mut next = 0u64;
        let dnf = read_once_dnf(&shape, &mut next, 0);
        let probs = probs_for(&dnf);
        let want = exact_probability(&dnf, &probs);
        match factorize(&dnf) {
            Outcome::ReadOnce(tree) => {
                let got = tree.probability(&|v| probs[&v]);
                prop_assert!((got - want).abs() < 1e-12, "{dnf}: {got} vs {want}");
            }
            other => prop_assert!(false, "expected read-once for {dnf}, got {other:?}"),
        }
    }

    /// Embedding the path P4 over fresh variables into any read-once
    /// formula makes the result provably not read-once: the pass must say
    /// Blocked (never silently return a wrong tree).
    #[test]
    fn formulas_embedding_p4_are_blocked(
        shape in proptest::collection::vec(0u8..=255, 0..8),
        or_composition in proptest::bool::ANY,
    ) {
        let mut next = 100u64; // P4 below uses 0..4
        let harmless = read_once_dnf(&shape, &mut next, 0);
        let p4 = dnf_from(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
        // ∨-composition keeps the components variable-disjoint, so the
        // blocked component is exactly the embedded P4; ∧-composition
        // distributes it into every clause.
        let dnf = if or_composition { p4.or(&harmless) } else { p4.and(&harmless) };
        match factorize(&dnf) {
            Outcome::Blocked(witness) => {
                prop_assert!(witness.iter().flatten().any(|v| v.0 < 4),
                    "witness {witness:?} must involve the P4 core");
            }
            other => prop_assert!(false, "expected blocked for {dnf}, got {other:?}"),
        }
    }

    /// Small arbitrary clause sets: the same tree, child for child, or the
    /// same witness as the definition gives.
    #[test]
    fn factorize_is_the_definition_on_arbitrary_clause_sets(
        clauses in proptest::collection::vec(
            proptest::collection::vec(0u64..9, 1..5), 1..10),
    ) {
        let dnf = dnf_from(&clauses);
        prop_assert_eq!(factorize(&dnf), by_definition(&clause_lists(&dnf)), "on {}", dnf);
    }

    /// Two Shannon cofactors deep, on every pair of variables — one of them
    /// absent from the formula — and every pair of values: the interned
    /// cofactor is `Dnf::assign`'s clause list in order. Short clauses over
    /// few variables make shortening collide with an earlier or a later
    /// clause, empty a clause (the constant true) and drop them all (false).
    #[test]
    fn interned_cofactors_are_dnf_assign_clause_for_clause_in_order(
        clauses in proptest::collection::vec(
            proptest::collection::vec(0u64..6, 1..4), 1..10),
    ) {
        let dnf = dnf_from(&clauses);
        let vars = table(7);
        let mut scratch = FactorScratch::default();
        let root = interned(&dnf);
        prop_assert_eq!(by_rank(&root), clause_lists(&dnf));
        for (x, y) in (0..7u64).flat_map(|x| (0..7u64).map(move |y| (Variable(x), Variable(y)))) {
            for (a, b) in [(true, true), (true, false), (false, true), (false, false)] {
                let want = dnf.assign(x, a).assign(y, b);
                let mut got = root.cofactor(id(x), a).cofactor(id(y), b);
                prop_assert_eq!(by_rank(&got), clause_lists(&want), "{} | {}={} {}={}", dnf, x, a, y, b);
                let constant = match got.factorize(&vars, &mut scratch) {
                    Factorization::Constant(value) => Some(value),
                    _ => None,
                };
                let want_constant = (want.is_true() || want.is_false()).then_some(want.is_true());
                prop_assert_eq!(constant, want_constant);
            }
        }
    }

    /// A monotone relabelling changes nothing: over ids from a superset
    /// table, on the un-absorbed clauses in insertion order, the interned
    /// formula gives the tree, child for child, that the formula's own dense
    /// ids give, and is blocked exactly when that is, on the same witness.
    #[test]
    fn the_interned_entry_is_factorize_over_a_superset_table(
        seed in 0u64..u64::MAX,
        clauses in 2usize..150,
        plant in proptest::bool::ANY,
    ) {
        let mut rng = Rng(seed);
        let mut next = 0u64;
        let mut shape = Shape::random(&mut rng, clauses, true, &mut next);
        if plant {
            shape.plant_p4(&mut rng.range(0, shape.leaves() - 1), next);
        }
        let dnf = disguised(&mut rng, shape.expand());
        let got = factorize(&dnf);
        prop_assert_eq!(got.is_read_once(), !plant);
        prop_assert_eq!(got, factorize_dense(&dnf), "on {}", dnf);
    }

    /// Structured formulas of up to ~150 clauses, where the decomposition
    /// goes several levels deep on both sides of the read-once boundary.
    #[test]
    fn factorize_is_the_definition_on_disguised_expansions(
        seed in 0u64..u64::MAX,
        clauses in 2usize..150,
        plant in proptest::bool::ANY,
    ) {
        let mut rng = Rng(seed);
        let mut next = 0u64;
        let mut shape = Shape::random(&mut rng, clauses, true, &mut next);
        if plant {
            shape.plant_p4(&mut rng.range(0, shape.leaves() - 1), next);
        }
        let dnf = disguised(&mut rng, shape.expand());
        let got = factorize(&dnf);
        prop_assert_eq!(got.is_read_once(), !plant);
        prop_assert_eq!(got, by_definition(&clause_lists(&dnf)), "on {}", dnf);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Expansions of up to a few thousand clauses, disguised, factor back,
    /// and the tree evaluates to the generating shape's closed form.
    #[test]
    fn large_disguised_expansions_factor_back_to_the_closed_form(
        seed in 0u64..u64::MAX,
        clauses in 500usize..4000,
    ) {
        let mut rng = Rng(seed);
        let mut next = 0u64;
        let shape = Shape::random(&mut rng, clauses, true, &mut next);
        let dnf = disguised(&mut rng, shape.expand());
        let probs: BTreeMap<Variable, f64> = (0..next).map(|v| (Variable(v), marginal(v))).collect();
        match factorize(&dnf) {
            Outcome::ReadOnce(tree) => {
                prop_assert_eq!(tree.leaf_count() as u64, next, "every variable once");
                let (got, want) = (tree.probability(&|v| probs[&v]), shape.probability(&marginal));
                prop_assert!((got - want).abs() <= 1e-12 * want.max(1e-300),
                    "tree gave {got}, closed form {want} ({} clauses)", dnf.len());
            }
            other => prop_assert!(false, "expected read-once ({} clauses), got {other:?}", dnf.len()),
        }
    }

    /// The same with a P4 planted at a random leaf: blocked, and the first
    /// stuck sub-formula is the P4 itself — everything around it peels off.
    #[test]
    fn a_p4_planted_in_a_large_expansion_is_the_witness(
        seed in 0u64..u64::MAX,
        clauses in 500usize..4000,
    ) {
        let mut rng = Rng(seed);
        let mut next = 0u64;
        let mut shape = Shape::random(&mut rng, clauses, true, &mut next);
        shape.plant_p4(&mut rng.range(0, shape.leaves() - 1), next);
        let dnf = disguised(&mut rng, shape.expand());
        let p4 = dnf_from(&[vec![next, next + 1], vec![next + 1, next + 2], vec![next + 2, next + 3]]);
        match factorize(&dnf) {
            Outcome::Blocked(witness) => prop_assert_eq!(witness, clause_lists(&p4)),
            other => prop_assert!(false, "expected blocked ({} clauses), got {other:?}", dnf.len()),
        }
    }
}

/// What the chains of [`cofactor_chains_factorize_by_the_definition_at_every_leaf`]
/// met, across every case.
#[derive(Debug, Default)]
struct Met {
    minimal_roots: usize,
    other_roots: usize,
    /// `true` cofactors of a minimal formula in which a shortened clause
    /// strictly absorbs a longer one.
    shortened_absorbs: usize,
    /// ∨-steps inside an ∧-projection whose components interleave in
    /// canonical order.
    interleaved_under_and: usize,
}

fn is_minimal(dnf: &Dnf) -> bool {
    minimized(clause_lists(dnf)).len() == dnf.len()
}

/// A chain of Shannon cofactors, as the anytime loop makes one: every leaf
/// is factorized before it is split, so it passes on what it learned of its
/// minimality (a `false` cofactor of a minimal leaf is minimal; in a `true`
/// one only a clause that lost the split variable can absorb another). At
/// every leaf, [`Canonical::factorize`] is [`by_definition`] of the
/// [`Dnf::assign`]ed formula's clauses, tree and witness. Roots are expansions of
/// random shapes, a P4 planted in half of them, a few clauses over their own
/// variables added to entangle them, and absorbed supersets injected into
/// half — so half the roots are not minimal.
#[test]
fn cofactor_chains_factorize_by_the_definition_at_every_leaf() {
    let name = "cofactor_chains_factorize_by_the_definition_at_every_leaf";
    let mut met = Met::default();
    proptest::run_cases(name, 96, |cases, _| {
        let mut rng = Rng((0u64..u64::MAX).generate(cases));
        let mut next = 0u64;
        let size = rng.range(2, 40);
        let mut shape = Shape::random(&mut rng, size, true, &mut next);
        if rng.next().is_multiple_of(2) {
            // An ∧ at the root: its first projection is the shape's ∨.
            shape = Shape::And(vec![shape, Shape::random(&mut rng, 3, true, &mut next)]);
        }
        if rng.next().is_multiple_of(2) {
            shape.plant_p4(&mut rng.range(0, shape.leaves() - 1), next);
            next += 4;
        }
        let mut clauses = shape.expand();
        for _ in 0..rng.range(0, 3) {
            let width = rng.range(1, 3);
            clauses.push(
                (0..width)
                    .map(|_| rng.range(0, next as usize - 1) as u64)
                    .collect(),
            );
        }
        let dnf = if rng.next().is_multiple_of(2) {
            disguised(&mut rng, clauses)
        } else {
            for i in (1..clauses.len()).rev() {
                clauses.swap(i, rng.range(0, i));
            }
            dnf_from(&clauses)
        };
        *match is_minimal(&dnf) {
            true => &mut met.minimal_roots,
            false => &mut met.other_roots,
        } += 1;
        let vars = table(next);
        let mut scratch = FactorScratch::default();
        let (mut formula, mut leaf) = (dnf.clone(), interned(&dnf));
        for step in 0..=4 {
            let got = Outcome::of(leaf.factorize(&vars, &mut scratch), &vars);
            let want =
                by_definition_counting(&clause_lists(&formula), &mut met.interleaved_under_and);
            prop_assert_eq!(got, want, "step {} of {}: {}", step, dnf, formula);
            let variables: Vec<Variable> = formula.variables().into_iter().collect();
            if step == 4 || variables.is_empty() {
                break;
            }
            let x = variables[rng.range(0, variables.len() - 1)];
            let value = rng.next().is_multiple_of(2);
            let minimal = is_minimal(&formula);
            leaf = leaf.cofactor(id(x), value);
            formula = formula.assign(x, value);
            if value && minimal && !is_minimal(&formula) {
                met.shortened_absorbs += 1;
            }
        }
        Ok(())
    });
    assert!(
        met.minimal_roots > 0 && met.other_roots > 0,
        "the generator makes minimal roots and others: {met:?}"
    );
    assert!(
        met.shortened_absorbs > 0 && met.interleaved_under_and > 0,
        "both cases the permutation and the recorded minimality must get right occur: {met:?}"
    );
}
