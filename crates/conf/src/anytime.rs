//! Confidence computation for *unsafe* queries: exact read-once evaluation
//! with an anytime dissociation-bounds fallback.
//!
//! Safe plans do not exist for queries without a hierarchical FD-reduct —
//! exact confidence computation is #P-hard in general. On concrete data,
//! however, the per-tuple DNF lineage often still factors read-once
//! ([`Canonical::factorize`]), in which case the probability is exact and
//! linear. When it does not, dissociation yields deterministic `[lo, hi]`
//! bounds (Gatterbauer & Suciu, arXiv:1412.1069) that an anytime Shannon
//! refinement loop tightens monotonically until they are `eps`-wide, the
//! formula is exhausted (bounds collapse to the exact value), or the query
//! governor's deadline fires — in which case the *best bounds so far* are
//! returned instead of an error. Cancellation still aborts.
//!
//! The policy knob is [`ApproxPolicy`]: `Exact` admits only the exact paths
//! (safe plan upstream, read-once here) and fails on a blocked formula;
//! `Bounds { eps }` falls through to dissociation. The refinement loop is
//! deterministic given its seed at every `SPROUT_THREADS` value: bags fan
//! out on the pool in task order and each bag's evaluation is sequential
//! with a per-bag seeded tie-breaker.
//!
//! A bag is interned once, straight from its rows' lineage slices, and every
//! formula of its refinement — root, frontier leaf, cofactor — is a flat
//! [`Canonical`] clause set over the bag's dense variable ids: a round
//! rebuilds, re-interns and re-sorts nothing, and allocates by the step of
//! the decomposition, not by the clause.

use std::collections::BTreeMap;

use pdb_exec::Annotated;
use pdb_govern::{Counter, ExecContext, SproutError, Stage};
use pdb_lineage::{sort_dedup, Canonical, Clauses, FactorScratch, Factorization};
use pdb_par::Pool;
use pdb_storage::{Tuple, Value, Variable};

use crate::error::{ConfError, ConfResult};

/// How confidences of a query without a safe plan may be computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApproxPolicy {
    /// Exact answers only: safe plan, or read-once factorization of the
    /// lineage. A blocked (provably not read-once) formula is an error.
    Exact,
    /// Exact where possible, dissociation bounds otherwise: refinement stops
    /// once `hi − lo ≤ eps` (use `eps = 0.0` to run to exhaustion or the
    /// deadline).
    Bounds {
        /// Target bound width.
        eps: f64,
    },
}

impl std::fmt::Display for ApproxPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApproxPolicy::Exact => write!(f, "exact"),
            ApproxPolicy::Bounds { eps } => write!(f, "bounds(eps={eps})"),
        }
    }
}

/// How one answer tuple's confidence was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfMethod {
    /// The lineage factored read-once: `lo == hi` is the exact probability.
    ReadOnce,
    /// Dissociation bounds, refined by the anytime loop.
    Dissociation,
}

/// One answer tuple with its confidence bracket.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleConfidence {
    /// The answer tuple.
    pub tuple: Tuple,
    /// Lower bound on the confidence (equal to `hi` on exact paths).
    pub lo: f64,
    /// Upper bound on the confidence.
    pub hi: f64,
    /// Which evaluator produced the bracket.
    pub method: ConfMethod,
    /// Refinement iterations spent on this tuple (0 on exact paths).
    pub rounds: usize,
}

impl TupleConfidence {
    /// Bracket width `hi − lo` (0 on exact paths).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Point estimate: the exact value when the bracket is closed, the
    /// midpoint otherwise.
    pub fn value(&self) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else {
            0.5 * (self.lo + self.hi)
        }
    }
}

/// The result of unsafe-query confidence computation: every distinct answer
/// tuple with its bracket, ordered by tuple.
pub type ApproxResult = Vec<TupleConfidence>;

/// Default per-tuple frontier budget: 16 MiB of the structural charge for
/// Shannon-expansion leaves, ≈ 2–3× what they occupy (see
/// [`AnytimeConfig::frontier_budget`]). Refinement that would grow past it
/// degrades to the bounds reached so far instead of growing the frontier.
pub const DEFAULT_FRONTIER_BUDGET: usize = 16 << 20;

/// Configuration of the anytime evaluator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnytimeConfig {
    /// Exact-only or bounds fallback.
    pub policy: ApproxPolicy,
    /// Seed of the deterministic refinement tie-breaker.
    pub seed: u64,
    /// Optional cap on refinement iterations per tuple (`None` = until the
    /// width target, exhaustion, or the deadline). Used by the benchmarks to
    /// chart width against iteration count.
    pub max_rounds: Option<usize>,
    /// Per-tuple memory budget for the Shannon-expansion frontier, in
    /// charged bytes (`None` = unbounded). An expansion that would exceed it
    /// is not performed: refinement stops and the bounds reached so far —
    /// wider but valid — are returned. The charge is a structural estimate
    /// (`80` per leaf, `24` per clause, `8` per variable occurrence — not
    /// wall clock, not the allocator), so results stay bitwise-identical at
    /// every thread count; a leaf resides in 8 bytes per clause and 4 per
    /// occurrence, so the charge is ≈ 2–3× the resident bytes and a 4 MiB
    /// cap holds ≈ 1.5–2 MiB. Re-basing it narrows brackets and waits on a
    /// harness PR that re-records `perfbench/golden/seed1.json`. Frontier
    /// bytes are also accounted against (and released back to) the
    /// governor's arena budget, whose exhaustion degrades the same way.
    pub frontier_budget: Option<usize>,
}

impl AnytimeConfig {
    /// A configuration with the given policy, seed 0, no round cap and the
    /// default frontier budget ([`DEFAULT_FRONTIER_BUDGET`]).
    pub fn new(policy: ApproxPolicy) -> AnytimeConfig {
        AnytimeConfig {
            policy,
            seed: 0,
            max_rounds: None,
            frontier_budget: Some(DEFAULT_FRONTIER_BUDGET),
        }
    }

    /// Sets the refinement seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps refinement iterations per tuple.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Sets the per-tuple frontier memory budget in bytes.
    pub fn with_frontier_budget(mut self, bytes: usize) -> Self {
        self.frontier_budget = Some(bytes);
        self
    }

    /// Removes the frontier memory budget (the pre-PR 9 behaviour: the
    /// frontier rides the governor's global budget only).
    pub fn with_unbounded_frontier(mut self) -> Self {
        self.frontier_budget = None;
        self
    }
}

/// Computes per-tuple confidence brackets from lineage alone — no signature
/// required, which is the point: this is the evaluator for queries *without*
/// a safe plan. Bags of duplicate answer tuples fan out on `pool` in task
/// order; results are bitwise-identical at every pool size.
///
/// # Errors
/// Fails with [`ConfError::NotReadOnce`] under [`ApproxPolicy::Exact`] when a
/// tuple's lineage is provably not read-once, and propagates governor
/// cancellation. A deadline during bounds refinement is *not* an error: the
/// best bounds so far are returned.
pub fn anytime_confidences_ctx(
    answer: &Annotated,
    config: &AnytimeConfig,
    pool: &Pool,
    ctx: &ExecContext,
) -> ConfResult<ApproxResult> {
    // The bags in tuple order, each the indices of its rows in answer order.
    let mut rows: BTreeMap<&[Value], Vec<u32>> = BTreeMap::new();
    for (i, row) in answer.iter().enumerate() {
        rows.entry(row.data).or_default().push(i as u32);
    }
    let bags: Vec<(&[Value], Vec<u32>)> = rows.into_iter().collect();
    let pool = pool.for_items(bags.len());
    pool.try_map(&bags, |i, (data, rows)| {
        let tuple = || Tuple::new(data.to_vec());
        let done = |(lo, hi): (f64, f64), method, rounds| {
            Ok(TupleConfidence {
                tuple: tuple(),
                lo,
                hi,
                method,
                rounds,
            })
        };
        let lineage = rows.iter().map(|&r| answer.row(r as usize).lineage);
        let (mut bag, clauses) = Bag::intern(lineage);
        match ctx.checkpoint(Stage::Confidence, "conf.bag", i) {
            Ok(()) => {}
            Err(e @ SproutError::DeadlineExceeded { .. }) => {
                return match config.policy {
                    // Exact paths cannot degrade: the deadline is an error,
                    // like in every other exact evaluator.
                    ApproxPolicy::Exact => Err(ConfError::Governed(e)),
                    // Bounds mode honours the anytime contract even when the
                    // deadline beats the bag to its first checkpoint: the
                    // single-shot crude bounds are the best bounds so far.
                    ApproxPolicy::Bounds { .. } => {
                        done(bag.crude_bounds(&clauses), ConfMethod::Dissociation, 0)
                    }
                };
            }
            Err(e) => return Err(ConfError::Governed(e)),
        }
        // Read-once if the lineage factors, else bounds (policy permitting).
        let root = bag.bound(clauses, 1.0);
        match config.policy {
            _ if !root.open => done((root.lo, root.hi), ConfMethod::ReadOnce, 0),
            ApproxPolicy::Exact => Err(ConfError::NotReadOnce(format!(
                "lineage of {} ({} clauses over {} variables) is not read-once",
                tuple(),
                root.clauses.clauses().len(),
                bag.vars.len()
            ))),
            ApproxPolicy::Bounds { eps } => {
                let seed = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let seed = config.seed.wrapping_add(seed);
                let (lo, hi, rounds) = dissociation_bounds(&mut bag, root, eps, config, seed, ctx)?;
                done((lo, hi), ConfMethod::Dissociation, rounds)
            }
        }
    })
    .map_err(|f| ConfError::from_task_failure(Stage::Confidence, f))
}

/// One bag's variables, interned once for every formula of its refinement:
/// the root and all its cofactors are [`Canonical`] over these ids.
struct Bag {
    /// The variables, ascending: a variable's id is its rank.
    vars: Vec<Variable>,
    /// The marginal of every id.
    p: Vec<f64>,
    /// Scratch for every leaf's `Canonical::factorize`, and scratch per id for
    /// one step at a time: occurrence counts, the variables a disjoint
    /// subfamily mentions.
    scratch: FactorScratch,
    per_id: Vec<u32>,
    /// Scratch per row: the clause of every rank.
    by_rank: Vec<u32>,
}

impl Bag {
    /// Interns the lineage of a bag's rows: the bag, and its formula — one
    /// clause per derivation row, ranked in row order, duplicates dropped:
    /// the brute-force oracle's DNF. A variable's marginal is read off its
    /// first annotation.
    fn intern<'a>(rows: impl Iterator<Item = &'a [(Variable, f64)]> + Clone) -> (Bag, Canonical) {
        let mut marginals: Vec<(Variable, f64)> = rows.clone().flatten().copied().collect();
        marginals.sort_by_key(|m| m.0);
        marginals.dedup_by_key(|m| m.0);
        let (vars, p): (Vec<Variable>, Vec<f64>) = marginals.into_iter().unzip();
        let mut clauses = Clauses::default();
        let mut ids: Vec<u32> = Vec::new();
        for row in rows {
            let id = |m: &(Variable, f64)| vars.binary_search(&m.0).expect("interned above") as u32;
            ids.clear();
            ids.extend(row.iter().map(id));
            ids.sort_unstable();
            ids.dedup();
            clauses.push(ids.iter().copied());
        }
        let (per_id, by_rank) = (vec![0; vars.len()], vec![0; clauses.len()]);
        let bag = Bag {
            vars,
            p,
            scratch: FactorScratch::default(),
            per_id,
            by_rank,
        };
        (bag, sort_dedup(&clauses))
    }

    /// Bounds a formula of mass `mass`: constants and read-once formulas
    /// close exactly, the rest get crude dissociation bounds and stay open.
    fn bound(&mut self, mut clauses: Canonical, mass: f64) -> BoundsLeaf {
        let id = |v| self.vars.binary_search(&v).expect("a variable of the bag");
        let exact = match clauses.factorize(&self.vars, &mut self.scratch) {
            Factorization::Constant(b) => Some(if b { 1.0 } else { 0.0 }),
            Factorization::ReadOnce(tree) => Some(tree.probability(&|v| self.p[id(v)])),
            Factorization::Blocked(_) => None,
        };
        let (lo, hi) = exact.map_or_else(|| self.crude_bounds(&clauses), |p| (p, p));
        let open = exact.is_none();
        BoundsLeaf {
            mass,
            clauses,
            lo,
            hi,
            open,
        }
    }

    /// Single-shot dissociation bounds for a monotone DNF over the bag.
    ///
    /// Upper: treat the clauses as independent events — valid because
    /// monotone events over a product measure are positively associated (the
    /// oblivious upper bound of full dissociation). Lower: the independent-or
    /// over a greedily chosen variable-disjoint subfamily of clauses
    /// (genuinely independent events whose union is implied), improved by the
    /// best single clause. Both fold in rank order, the order of the rows.
    fn crude_bounds(&mut self, clauses: &Canonical) -> (f64, f64) {
        let mut miss_all = 1.0f64;
        let mut best_single = 0.0f64;
        let mut miss_disjoint = 1.0f64;
        let used = &mut self.per_id;
        used.fill(0);
        self.by_rank.fill(u32::MAX);
        for (i, &rank) in clauses.ranks().iter().enumerate() {
            self.by_rank[rank as usize] = i as u32;
        }
        for &i in self.by_rank.iter().filter(|&&i| i != u32::MAX) {
            let clause = clauses.clauses().clause(i as usize);
            let p: f64 = clause.iter().map(|&id| self.p[id as usize]).product();
            miss_all *= 1.0 - p;
            best_single = best_single.max(p);
            if clause.iter().all(|&id| used[id as usize] == 0) {
                clause.iter().for_each(|&id| used[id as usize] = 1);
                miss_disjoint *= 1.0 - p;
            }
        }
        let hi = 1.0 - miss_all;
        let lo = best_single.max(1.0 - miss_disjoint).min(hi);
        (lo, hi)
    }

    /// The most frequent variable of a formula that has one; equally
    /// frequent candidates, ascending, are broken by the seeded generator.
    fn split_variable(&mut self, clauses: &Canonical, rng: &mut SplitMix64) -> u32 {
        let counts = &mut self.per_id;
        counts.fill(0);
        for &id in clauses.clauses().literals() {
            counts[id as usize] += 1;
        }
        let max = counts.iter().copied().max();
        let candidates = || (0..).zip(&*counts).filter(|(_, c)| Some(**c) == max);
        let pick = rng.next() % candidates().count() as u64;
        let (id, _) = candidates().nth(pick as usize).expect("below the count");
        id
    }
}

/// One open or closed leaf of the Shannon refinement tree.
#[derive(Debug)]
struct BoundsLeaf {
    /// Product of the branch probabilities on the path from the root.
    mass: f64,
    /// The cofactor formula at this leaf; by rank, its clauses are in the
    /// order the root's rows left them — the order `crude_bounds` folds in.
    clauses: Canonical,
    /// Valid bounds on the cofactor's probability.
    lo: f64,
    hi: f64,
    /// Whether the leaf can be refined further (`false` once exact).
    open: bool,
}

/// What the frontier budget and the governor's arena accounting charge for
/// a leaf, a clause and a variable occurrence: the resident bytes of the
/// `Vec`-per-clause leaf every pinned bracket was recorded with.
const LEAF_BYTES: usize = 80;
const CLAUSE_BYTES: usize = 24;
const LITERAL_BYTES: usize = 8;

/// The charge for one frontier leaf holding `clauses`.
fn leaf_bytes(clauses: &Canonical) -> usize {
    let clauses = clauses.clauses();
    LEAF_BYTES + CLAUSE_BYTES * clauses.len() + LITERAL_BYTES * clauses.literals().len()
}

/// The frontier's bytes in the governor's arena accounting, released on
/// every way out of the refinement — an unwinding panic included.
struct Charged<'a>(&'a ExecContext, usize);

impl Drop for Charged<'_> {
    fn drop(&mut self) {
        self.0.release(self.1);
    }
}

/// Anytime dissociation bounds for a formula that does not factor read-once.
///
/// The loop maintains a Shannon expansion frontier: the global bracket is
/// `Σ massᵢ · [loᵢ, hiᵢ]` over the leaves. Each iteration splits the open
/// leaf with the largest bracket contribution on its most frequent variable
/// (seeded tie-break), re-bounding both cofactors — read-once cofactors
/// close exactly. The reported bracket is clamped against its predecessor,
/// so it tightens monotonically. A deadline mid-refinement returns the best
/// bracket so far; cancellation aborts.
fn dissociation_bounds(
    bag: &mut Bag,
    root: BoundsLeaf,
    eps: f64,
    config: &AnytimeConfig,
    seed: u64,
    ctx: &ExecContext,
) -> ConfResult<(f64, f64, usize)> {
    let mut rng = SplitMix64(seed);
    let mut global_lo = root.lo;
    let mut global_hi = root.hi;
    // The frontier's structural charge (≈ 2–3× what it occupies): held against
    // the per-tuple budget and the governor's arena, released leaf by leaf.
    // Budget exhaustion is not an error here — the bounds reached so far are
    // valid, just wider; refinement simply stops growing the frontier.
    let mut frontier = Charged(ctx, leaf_bytes(&root.clauses));
    let mut leaves = vec![root];
    ctx.tally(Counter::FrontierNodes, 1); // the root leaf
    let mut rounds = 0usize;
    // A failed initial account is not an error: refinement is skipped and
    // the crude bounds stand (`account` charges even on failure, so the
    // release is owed either way).
    if ctx.account(Stage::Confidence, frontier.1).is_ok() {
        loop {
            if global_hi - global_lo <= eps {
                break;
            }
            if config.max_rounds.is_some_and(|cap| rounds >= cap) {
                break;
            }
            // Open leaf with the largest contribution to the bracket width; the
            // frontier is scanned in insertion order, so ties resolve to the
            // earliest leaf — deterministic.
            let mut best: Option<(usize, f64)> = None;
            for (i, leaf) in leaves.iter().enumerate() {
                if !leaf.open {
                    continue;
                }
                let w = leaf.mass * (leaf.hi - leaf.lo);
                if best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((i, w));
                }
            }
            let Some((idx, _)) = best else {
                // Exhausted: every leaf is exact, the bracket is the exact value.
                break;
            };
            match ctx.checkpoint(Stage::Confidence, "conf.bounds", rounds) {
                Ok(()) => {}
                Err(SproutError::DeadlineExceeded { .. }) => break,
                Err(e) => return Err(ConfError::Governed(e)),
            }

            let parent = &leaves[idx];
            let id = bag.split_variable(&parent.clauses, &mut rng);
            let p = bag.p[id as usize];

            // Both cofactors and their charge *before* touching the frontier:
            // a vetoed expansion leaves the parent intact and bounds nothing.
            let cofactors = [(true, p), (false, 1.0 - p)].map(|(value, branch_p)| {
                let mass = parent.mass * branch_p;
                (branch_p != 0.0).then(|| (parent.clauses.cofactor(id, value), mass))
            });
            let children_bytes: usize = cofactors.iter().flatten().map(|c| leaf_bytes(&c.0)).sum();
            let parent_bytes = leaf_bytes(&parent.clauses);
            let grown = frontier.1 - parent_bytes + children_bytes;
            if config.frontier_budget.is_some_and(|budget| grown > budget) {
                // The frontier's own budget: deterministic (structural sizes
                // only), so the degraded bounds are still bitwise-identical
                // at every thread count.
                break;
            }
            if ctx.account(Stage::Confidence, children_bytes).is_err() {
                // The governor's arena budget: degrade instead of erroring —
                // the whole point of bounds mode is an answer under pressure.
                ctx.release(children_bytes);
                break;
            }
            rounds += 1;
            // Frontier growth is seeded-deterministic per tuple (insertion-
            // order scans, structural budgets), so the leaf count is a valid
            // deterministic counter at every pool size.
            let grown_by = cofactors.iter().flatten().count();
            ctx.tally(Counter::FrontierNodes, grown_by as u64);
            leaves.swap_remove(idx);
            let children = cofactors.into_iter().flatten();
            leaves.extend(children.map(|(clauses, mass)| bag.bound(clauses, mass)));
            ctx.release(parent_bytes);
            frontier.1 = grown;

            // Re-sum the frontier and clamp: both the old and the new bracket
            // are valid, so their intersection is valid and monotone.
            let mut sum_lo = 0.0;
            let mut sum_hi = 0.0;
            for leaf in &leaves {
                sum_lo += leaf.mass * leaf.lo;
                sum_hi += leaf.mass * leaf.hi;
            }
            global_lo = global_lo.max(sum_lo);
            global_hi = global_hi.min(sum_hi);
        }
    }
    Ok((global_lo, global_hi, rounds))
}

/// SplitMix64: a tiny deterministic generator for refinement tie-breaks
/// (keeps the crate dependency-free; streams match the published SplitMix64
/// constants).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_exec::AnnotatedRow;
    use pdb_storage::{tuple, DataType, Schema};
    use pdb_testkit::brute_force_confidences;

    /// A Boolean answer whose single bag carries the given DNF: one row per
    /// clause, one lineage column per clause position (padded with fresh
    /// always-true-irrelevant variables is unnecessary — rows may repeat
    /// variables across columns).
    fn answer_for(clauses: &[&[u64]], probs: &BTreeMap<Variable, f64>) -> Annotated {
        let width = clauses.iter().map(|c| c.len()).max().unwrap();
        let relations: Vec<String> = (0..width).map(|i| format!("R{i}")).collect();
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut t = Annotated::new(schema, relations);
        for clause in clauses {
            // Pad by repeating the last variable: a clause is a set.
            let mut lineage: Vec<(Variable, f64)> = clause
                .iter()
                .map(|v| (Variable(*v), probs[&Variable(*v)]))
                .collect();
            while lineage.len() < width {
                lineage.push(*lineage.last().unwrap());
            }
            t.push(AnnotatedRow::new(tuple![1i64], lineage));
        }
        t
    }

    fn probs_for(vars: &[u64]) -> BTreeMap<Variable, f64> {
        vars.iter()
            .map(|v| (Variable(*v), 0.1 + 0.8 * ((v * 7 % 11) as f64 / 11.0)))
            .collect()
    }

    fn oracle(clauses: &[&[u64]], probs: &BTreeMap<Variable, f64>) -> f64 {
        brute_force_confidences(&answer_for(clauses, probs))[0].1
    }

    #[test]
    fn read_once_bag_is_exact() {
        let probs = probs_for(&[1, 2, 3]);
        let answer = answer_for(&[&[1, 3], &[2, 3]], &probs);
        let config = AnytimeConfig::new(ApproxPolicy::Exact);
        let got =
            anytime_confidences_ctx(&answer, &config, &Pool::new(2), &ExecContext::unbounded())
                .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].method, ConfMethod::ReadOnce);
        let want = oracle(&[&[1, 3], &[2, 3]], &probs);
        assert!((got[0].value() - want).abs() < 1e-12);
        assert_eq!(got[0].width(), 0.0);
    }

    #[test]
    fn exact_policy_rejects_blocked_lineage() {
        let probs = probs_for(&[1, 2, 3, 4]);
        let answer = answer_for(&[&[1, 2], &[2, 3], &[3, 4]], &probs);
        let config = AnytimeConfig::new(ApproxPolicy::Exact);
        let err =
            anytime_confidences_ctx(&answer, &config, &Pool::new(1), &ExecContext::unbounded())
                .unwrap_err();
        assert!(matches!(err, ConfError::NotReadOnce(_)));
        assert!(err.to_string().contains("not read-once"));
    }

    #[test]
    fn bounds_bracket_the_oracle_and_collapse_on_exhaustion() {
        let clauses: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4]];
        let probs = probs_for(&[1, 2, 3, 4]);
        let answer = answer_for(clauses, &probs);
        let want = oracle(clauses, &probs);
        // eps = 0 runs to exhaustion: the bracket collapses to the exact
        // value.
        let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 });
        let got =
            anytime_confidences_ctx(&answer, &config, &Pool::new(4), &ExecContext::unbounded())
                .unwrap();
        assert_eq!(got[0].method, ConfMethod::Dissociation);
        assert!(got[0].rounds > 0);
        assert!((got[0].lo - want).abs() < 1e-12, "{} vs {want}", got[0].lo);
        assert!((got[0].hi - want).abs() < 1e-12);
    }

    /// The bag and root formula `anytime_confidences_ctx` builds for the one
    /// bag of `answer_for(clauses, probs)`.
    fn interned(clauses: &[&[u64]], probs: &BTreeMap<Variable, f64>) -> (Bag, Canonical) {
        let answer = answer_for(clauses, probs);
        Bag::intern(answer.iter().map(|row| row.lineage))
    }

    #[test]
    fn crude_bounds_fold_in_clause_order_over_the_greedy_disjoint_subfamily() {
        let mut probs = probs_for(&[1, 2, 3, 4, 5]);
        // 3·4 is the first clause disjoint from 1·2; 4·5 then meets it, and
        // 9 is impossible, so 1·9 is too (and uses up nothing new).
        probs.insert(Variable(9), 0.0);
        let clauses: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[1, 9]];
        let (mut bag, root) = interned(clauses, &probs);
        let p = |a: u64, b: u64| probs[&Variable(a)] * probs[&Variable(b)];
        let (lo, hi) = bag.crude_bounds(&root);
        let miss_all = (1.0 - p(1, 2)) * (1.0 - p(2, 3)) * (1.0 - p(3, 4)) * (1.0 - p(4, 5));
        assert_eq!(hi.to_bits(), (1.0 - miss_all).to_bits());
        let miss_disjoint = (1.0 - p(1, 2)) * (1.0 - p(3, 4));
        assert_eq!(lo.to_bits(), (1.0 - miss_disjoint).to_bits());
    }

    #[test]
    fn a_bag_is_interned_in_row_order_and_charged_by_the_pinned_constants() {
        let probs = probs_for(&[1, 2, 3, 4, 7]);
        // Unsorted rows, a repeated variable, a repeated derivation.
        let clauses: &[&[u64]] = &[&[3, 1, 2], &[7, 4], &[1, 2, 3], &[4, 4]];
        let (bag, root) = interned(clauses, &probs);
        assert_eq!(bag.vars, [1, 2, 3, 4, 7].map(Variable));
        assert_eq!(bag.p, [1, 2, 3, 4, 7].map(|v| probs[&Variable(v)]));
        let by_rank = |f: &Canonical| {
            let mut clauses: Vec<(u32, Vec<u32>)> = (f.ranks().iter().copied())
                .zip(f.clauses().iter().map(<[u32]>::to_vec))
                .collect();
            clauses.sort();
            clauses
        };
        let ranked = |clauses: &[(u32, &[u32])]| -> Vec<(u32, Vec<u32>)> {
            clauses.iter().map(|(r, c)| (*r, c.to_vec())).collect()
        };
        assert_eq!(
            by_rank(&root),
            ranked(&[(0, &[0, 1, 2]), (1, &[3, 4]), (3, &[3])])
        );
        // c = 3 clauses, s = 6 occurrences: what the `Vec`-per-clause leaf
        // of every pinned bracket weighed.
        assert_eq!(leaf_bytes(&root), 80 + 24 * 3 + 8 * 6);
        let x4 = root.cofactor(3, true);
        assert_eq!(
            by_rank(&x4),
            ranked(&[(0, &[0, 1, 2]), (1, &[4]), (3, &[])])
        );
        assert_eq!(leaf_bytes(&x4), 80 + 24 * 3 + 8 * 4);
        assert_eq!(leaf_bytes(&Canonical::default()), 80);
    }

    #[test]
    fn wider_eps_stops_earlier_but_still_brackets() {
        let clauses: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6]];
        let probs = probs_for(&[1, 2, 3, 4, 5, 6]);
        let answer = answer_for(clauses, &probs);
        let want = oracle(clauses, &probs);
        let loose = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.2 });
        let tight = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 1e-3 });
        let pool = Pool::new(1);
        let ctx = ExecContext::unbounded();
        let a = anytime_confidences_ctx(&answer, &loose, &pool, &ctx).unwrap();
        let b = anytime_confidences_ctx(&answer, &tight, &pool, &ctx).unwrap();
        for r in [&a[0], &b[0]] {
            assert!(r.lo <= want + 1e-12 && want <= r.hi + 1e-12);
        }
        assert!(b[0].width() <= a[0].width() + 1e-12);
        assert!(b[0].width() <= 1e-3 + 1e-12);
        assert!(a[0].rounds <= b[0].rounds);
    }

    #[test]
    fn max_rounds_cap_is_respected_and_width_shrinks_with_more_rounds() {
        let clauses: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6]];
        let probs = probs_for(&[1, 2, 3, 4, 5, 6]);
        let answer = answer_for(clauses, &probs);
        let pool = Pool::new(1);
        let ctx = ExecContext::unbounded();
        let mut prev = f64::INFINITY;
        for cap in [0, 1, 2, 4, 8, 16] {
            let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 }).with_max_rounds(cap);
            let got = anytime_confidences_ctx(&answer, &config, &pool, &ctx).unwrap();
            assert!(got[0].rounds <= cap);
            assert!(got[0].width() <= prev + 1e-12, "cap {cap} widened");
            prev = got[0].width();
        }
    }

    #[test]
    fn results_are_bitwise_identical_across_pool_sizes_and_stable_per_seed() {
        let clauses: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4], &[4, 5]];
        let probs = probs_for(&[1, 2, 3, 4, 5]);
        let answer = answer_for(clauses, &probs);
        let ctx = ExecContext::unbounded();
        let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.05 }).with_seed(42);
        let reference = anytime_confidences_ctx(&answer, &config, &Pool::new(1), &ctx).unwrap();
        for threads in [2, 4, 8] {
            let got = anytime_confidences_ctx(&answer, &config, &Pool::new(threads), &ctx).unwrap();
            assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.lo.to_bits(), b.lo.to_bits(), "threads={threads}");
                assert_eq!(a.hi.to_bits(), b.hi.to_bits(), "threads={threads}");
                assert_eq!(a.rounds, b.rounds);
            }
        }
        // The same seed reproduces the run exactly.
        let again = anytime_confidences_ctx(&answer, &config, &Pool::new(3), &ctx).unwrap();
        assert_eq!(again, reference);
    }

    #[test]
    fn deadline_returns_best_bounds_instead_of_error() {
        use pdb_govern::GovernorBuilder;
        use std::time::Duration;
        let clauses: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6], &[6, 7]];
        let probs = probs_for(&[1, 2, 3, 4, 5, 6, 7]);
        let answer = answer_for(clauses, &probs);
        let want = oracle(clauses, &probs);
        // A deadline that has already expired: every refinement checkpoint
        // fails, so only the crude initial bounds survive — returned, not
        // raised.
        let gov = GovernorBuilder::new().deadline(Duration::ZERO).build();
        std::thread::sleep(Duration::from_millis(2));
        let ctx = ExecContext::governed(&gov);
        let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 });
        let got = anytime_confidences_ctx(&answer, &config, &Pool::new(2), &ctx).unwrap();
        assert_eq!(got[0].rounds, 0);
        assert!(got[0].lo <= want + 1e-12 && want <= got[0].hi + 1e-12);
        assert!(got[0].width() > 0.0);
    }

    #[test]
    fn cancellation_still_aborts() {
        use pdb_govern::QueryGovernor;
        let clauses: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4]];
        let probs = probs_for(&[1, 2, 3, 4]);
        let answer = answer_for(clauses, &probs);
        let gov = QueryGovernor::new();
        gov.cancel();
        let ctx = ExecContext::governed(&gov);
        let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 });
        let err = anytime_confidences_ctx(&answer, &config, &Pool::new(2), &ctx).unwrap_err();
        assert!(matches!(
            err,
            ConfError::Governed(SproutError::Cancelled { .. })
        ));
    }

    #[test]
    fn frontier_budget_degrades_to_wider_but_valid_bounds() {
        let clauses: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6]];
        let probs = probs_for(&[1, 2, 3, 4, 5, 6]);
        let answer = answer_for(clauses, &probs);
        let want = oracle(clauses, &probs);
        let pool = Pool::new(1);
        let ctx = ExecContext::unbounded();
        let unbounded = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 });
        let full = anytime_confidences_ctx(&answer, &unbounded, &pool, &ctx).unwrap();
        // A frontier cap that fits the root leaf but no expansion: the crude
        // bounds come back unrefined instead of an error.
        let root_bytes = leaf_bytes(&interned(clauses, &probs).1);
        let tight =
            AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 }).with_frontier_budget(root_bytes);
        let got = anytime_confidences_ctx(&answer, &tight, &pool, &ctx).unwrap();
        assert_eq!(got[0].rounds, 0);
        assert!(got[0].lo <= want + 1e-12 && want <= got[0].hi + 1e-12);
        assert!(got[0].width() >= full[0].width());
        // A generous cap changes nothing: same bits as the default run.
        let roomy = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 })
            .with_frontier_budget(root_bytes * 1000);
        let same = anytime_confidences_ctx(&answer, &roomy, &pool, &ctx).unwrap();
        assert_eq!(same, full);
        let open = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 }).with_unbounded_frontier();
        assert_eq!(
            anytime_confidences_ctx(&answer, &open, &pool, &ctx).unwrap(),
            full
        );
    }

    #[test]
    fn frontier_budget_is_deterministic_across_pool_sizes() {
        let clauses: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6]];
        let probs = probs_for(&[1, 2, 3, 4, 5, 6]);
        let answer = answer_for(clauses, &probs);
        let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 })
            .with_frontier_budget(600)
            .with_seed(7);
        let ctx = ExecContext::unbounded();
        let reference = anytime_confidences_ctx(&answer, &config, &Pool::new(1), &ctx).unwrap();
        for threads in [2, 8] {
            let got = anytime_confidences_ctx(&answer, &config, &Pool::new(threads), &ctx).unwrap();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn governor_arena_exhaustion_degrades_instead_of_erroring() {
        use pdb_govern::GovernorBuilder;
        let clauses: &[&[u64]] = &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6]];
        let probs = probs_for(&[1, 2, 3, 4, 5, 6]);
        let answer = answer_for(clauses, &probs);
        let want = oracle(clauses, &probs);
        let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 });
        // Budget below even the root leaf: initial accounting fails, the
        // crude bounds still come back and the budget is released afterwards.
        let gov = GovernorBuilder::new().memory_budget(64).build();
        let ctx = ExecContext::governed(&gov);
        let got = anytime_confidences_ctx(&answer, &config, &Pool::new(2), &ctx).unwrap();
        assert_eq!(got[0].rounds, 0);
        assert!(got[0].lo <= want + 1e-12 && want <= got[0].hi + 1e-12);
        // Budget that fits the root but starves refinement partway: fewer
        // rounds than the unbounded run, bounds still bracket, and the
        // frontier's bytes are all released on return.
        let gov = GovernorBuilder::new().memory_budget(700).build();
        let ctx = ExecContext::governed(&gov);
        let full =
            anytime_confidences_ctx(&answer, &config, &Pool::new(2), &ExecContext::unbounded())
                .unwrap();
        let got = anytime_confidences_ctx(&answer, &config, &Pool::new(2), &ctx).unwrap();
        assert!(got[0].rounds < full[0].rounds);
        assert!(got[0].lo <= want + 1e-12 && want <= got[0].hi + 1e-12);
        assert_eq!(gov.memory_used(), 0);
    }

    #[test]
    fn multiple_bags_keep_tuple_order() {
        let probs = probs_for(&[1, 2, 3, 4]);
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut t = Annotated::new(schema, vec!["R".into()]);
        for (val, var) in [(2i64, 1u64), (1, 2), (1, 3), (2, 4)] {
            t.push(AnnotatedRow::new(
                tuple![val],
                vec![(Variable(var), probs[&Variable(var)])],
            ));
        }
        let config = AnytimeConfig::new(ApproxPolicy::Exact);
        let got =
            anytime_confidences_ctx(&t, &config, &Pool::new(2), &ExecContext::unbounded()).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].tuple, tuple![1i64]);
        assert_eq!(got[1].tuple, tuple![2i64]);
        // Single-relation lineage is always read-once: an ∨ of leaves.
        let p2 = probs[&Variable(2)];
        let p3 = probs[&Variable(3)];
        let want = 1.0 - (1.0 - p2) * (1.0 - p3);
        assert!((got[0].value() - want).abs() < 1e-12);
    }
}
