//! # pdb-govern
//!
//! The query governor: cooperative cancellation, wall-clock deadlines, a
//! memory budget and a structured error taxonomy for every governed query.
//!
//! A [`QueryGovernor`] is a cheap-to-clone handle (one `Arc`) shared between
//! the submitting thread and every worker running the query. Execution code
//! never blocks on it; instead it calls [`ExecContext::checkpoint`] at
//! morsel/chunk/bag boundaries — the same boundaries the morsel-driven
//! pipeline already fans out at — and bubbles the returned [`SproutError`]
//! up through the plan. Between checkpoints a worker runs at full speed, so
//! governance costs one atomic load per morsel, not per row.
//!
//! The happy path is **bitwise-unaffected**: a governed run that completes
//! produces exactly the output of an ungoverned run (values, lineage, row
//! order, confidences), because checkpoints only ever *stop* work, never
//! reorder or reshape it.
//!
//! [`ExecContext`] is the value threaded through the operators: either
//! [`ExecContext::unbounded`] (no governor — every check inlines to a no-op
//! branch on `None`) or [`ExecContext::governed`]. Checkpoints are also the
//! named injection points of the `pdb-fault` harness; with the
//! `fault-inject` feature off the probe is compiled out entirely.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use pdb_obs::{Counter, QueryObs, SpanGuard, SpanNode};

/// The pipeline stage a governance event is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Catalog lookup / table resolution.
    Catalog,
    /// Base-table scan (fused scan–filter–project, row or columnar).
    Scan,
    /// Join (hash join: build side, probe morsels).
    Join,
    /// Projection.
    Project,
    /// Sort / dedup of the answer relation.
    Sort,
    /// Eager-plan per-node aggregation.
    Aggregate,
    /// Confidence computation (`FlatScan` bag work list).
    Confidence,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Catalog => "catalog",
            Stage::Scan => "scan",
            Stage::Join => "join",
            Stage::Project => "project",
            Stage::Sort => "sort",
            Stage::Aggregate => "aggregate",
            Stage::Confidence => "confidence",
        };
        f.write_str(s)
    }
}

/// A governed query's structured failure: every variant names the [`Stage`]
/// it fired in, so callers (and the PR-7 admission scheduler) can tell a
/// query killed while scanning from one killed mid-confidence.
#[derive(Debug, Clone, PartialEq)]
pub enum SproutError {
    /// The query's cancellation token was tripped.
    Cancelled {
        /// Stage that observed the cancellation.
        stage: Stage,
    },
    /// The wall-clock deadline elapsed.
    DeadlineExceeded {
        /// Stage that observed the expiry.
        stage: Stage,
        /// Time the query had been running when the checkpoint fired.
        elapsed: Duration,
        /// The configured deadline.
        deadline: Duration,
    },
    /// An arena or scatter allocation would exceed the memory budget.
    MemoryBudgetExceeded {
        /// Stage that requested the allocation.
        stage: Stage,
        /// Bytes the failing allocation asked for.
        requested: usize,
        /// Bytes accounted against the budget including the request.
        used: usize,
        /// The configured budget in bytes.
        budget: usize,
    },
    /// A worker panicked; the panic was caught at the work-item boundary and
    /// the pool remains reusable.
    WorkerPanic {
        /// Stage whose work item panicked.
        stage: Stage,
        /// Index of the panicking work item (morsel / chunk / bag).
        item: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A non-governance failure (catalog lookup, schema/predicate mismatch,
    /// plan evaluation, confidence), carried with its stage context. The
    /// message is the typed lower-layer error's display form.
    Failed {
        /// Stage the failure belongs to.
        stage: Stage,
        /// Human-readable description of the underlying typed error.
        message: String,
    },
}

impl SproutError {
    /// The stage the error is attributed to.
    pub fn stage(&self) -> Stage {
        match self {
            SproutError::Cancelled { stage }
            | SproutError::DeadlineExceeded { stage, .. }
            | SproutError::MemoryBudgetExceeded { stage, .. }
            | SproutError::WorkerPanic { stage, .. }
            | SproutError::Failed { stage, .. } => *stage,
        }
    }

    /// Whether the error is a governance interruption (cancel / deadline /
    /// budget / panic) as opposed to an ordinary typed failure.
    pub fn is_interruption(&self) -> bool {
        !matches!(self, SproutError::Failed { .. })
    }
}

impl fmt::Display for SproutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SproutError::Cancelled { stage } => write!(f, "query cancelled during {stage}"),
            SproutError::DeadlineExceeded {
                stage,
                elapsed,
                deadline,
            } => write!(
                f,
                "deadline of {deadline:?} exceeded during {stage} (elapsed {elapsed:?})"
            ),
            SproutError::MemoryBudgetExceeded {
                stage,
                requested,
                used,
                budget,
            } => write!(
                f,
                "memory budget of {budget} bytes exceeded during {stage} \
                 (requested {requested}, accounted {used})"
            ),
            SproutError::WorkerPanic {
                stage,
                item,
                message,
            } => write!(
                f,
                "worker panicked during {stage} on work item {item}: {message}"
            ),
            SproutError::Failed { stage, message } => write!(f, "{stage} failed: {message}"),
        }
    }
}

impl std::error::Error for SproutError {}

/// Convenience result alias for governed operations.
pub type SproutResult<T> = Result<T, SproutError>;

/// Disabled sentinel for the cancel-after-checkpoints test aid.
const TRIP_DISABLED: u64 = u64::MAX;

#[derive(Debug)]
struct GovernorInner {
    cancelled: AtomicBool,
    started: Instant,
    deadline: Option<Duration>,
    memory_budget: Option<usize>,
    memory_used: AtomicUsize,
    /// Total checkpoints observed (all workers).
    checkpoints: AtomicU64,
    /// Trip cancellation when the checkpoint counter reaches this value
    /// ([`TRIP_DISABLED`] = off). Deterministic cancellation aid for the
    /// exhaustive index-sweep tests.
    cancel_at: u64,
}

/// Shared cancellation token + deadline + memory budget for one query run.
///
/// Clones share state: cancel any clone and every checkpoint of the run
/// fails with [`SproutError::Cancelled`]. A governor is single-use by
/// convention — build a fresh one per query submission (the deadline clock
/// starts at [`GovernorBuilder::build`]).
#[derive(Debug, Clone)]
pub struct QueryGovernor {
    inner: Arc<GovernorInner>,
}

impl QueryGovernor {
    /// A governor with no deadline and no budget: purely a cancellation
    /// token (plus checkpoint accounting).
    pub fn new() -> Self {
        GovernorBuilder::new().build()
    }

    /// Starts configuring a governor.
    pub fn builder() -> GovernorBuilder {
        GovernorBuilder::new()
    }

    /// Requests cooperative cancellation: every subsequent checkpoint of the
    /// run returns [`SproutError::Cancelled`]. Safe to call from any thread,
    /// any number of times.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Wall-clock time since the governor was built.
    pub fn elapsed(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Total checkpoints observed so far, across all workers. After an
    /// uninterrupted run this is the exact number of cancellation
    /// opportunities the run had — the index-sweep tests read it to
    /// enumerate them.
    pub fn checkpoints_seen(&self) -> u64 {
        self.inner.checkpoints.load(Ordering::SeqCst)
    }

    /// Bytes currently accounted against the memory budget.
    pub fn memory_used(&self) -> usize {
        self.inner.memory_used.load(Ordering::Relaxed)
    }

    /// One governance check: counts the checkpoint, then fails on a tripped
    /// token or an expired deadline. This is what [`ExecContext::checkpoint`]
    /// calls; operators go through the context so fault probes stay wired in.
    pub fn check(&self, stage: Stage) -> SproutResult<()> {
        let seen = self.inner.checkpoints.fetch_add(1, Ordering::SeqCst) + 1;
        if seen >= self.inner.cancel_at {
            self.cancel();
        }
        if self.is_cancelled() {
            return Err(SproutError::Cancelled { stage });
        }
        if let Some(deadline) = self.inner.deadline {
            let elapsed = self.inner.started.elapsed();
            if elapsed > deadline {
                return Err(SproutError::DeadlineExceeded {
                    stage,
                    elapsed,
                    deadline,
                });
            }
        }
        Ok(())
    }

    /// Accounts `bytes` against the memory budget, failing the query when
    /// the budget would be exceeded. Called before the arena / scatter
    /// allocations the operators already size exactly.
    pub fn account(&self, stage: Stage, bytes: usize) -> SproutResult<()> {
        let used = self.inner.memory_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        match self.inner.memory_budget {
            Some(budget) if used > budget => Err(SproutError::MemoryBudgetExceeded {
                stage,
                requested: bytes,
                used,
                budget,
            }),
            _ => Ok(()),
        }
    }

    /// Returns `bytes` previously [`account`](Self::account)ed to the budget.
    ///
    /// Most governed allocations live until the query ends and are never
    /// released — the budget is an intra-query high-water mark. The anytime
    /// refinement frontier is the exception: its Shannon-expansion leaves are
    /// freed as refinement replaces or abandons them, and releasing their
    /// accounted bytes keeps long bounds refinements from exhausting the
    /// budget with memory that is no longer resident. Saturates at zero.
    pub fn release(&self, bytes: usize) {
        let mut current = self.inner.memory_used.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(bytes);
            match self.inner.memory_used.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

impl Default for QueryGovernor {
    fn default() -> Self {
        QueryGovernor::new()
    }
}

/// Builder for [`QueryGovernor`]. The deadline clock starts at
/// [`GovernorBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct GovernorBuilder {
    deadline: Option<Duration>,
    memory_budget: Option<usize>,
    cancel_at: Option<u64>,
}

impl GovernorBuilder {
    /// An unrestricted builder.
    pub fn new() -> Self {
        GovernorBuilder::default()
    }

    /// Fails the query once `deadline` of wall-clock time has elapsed.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Fails the query once more than `bytes` of governed allocations are
    /// accounted.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Test aid: deterministically trips cancellation at the `n`-th
    /// checkpoint (1-based), regardless of which worker reaches it. The
    /// exhaustive cancellation sweep drives this over every checkpoint
    /// index of a run.
    pub fn cancel_after_checkpoints(mut self, n: u64) -> Self {
        self.cancel_at = Some(n);
        self
    }

    /// Builds the governor and starts its clock.
    pub fn build(self) -> QueryGovernor {
        QueryGovernor {
            inner: Arc::new(GovernorInner {
                cancelled: AtomicBool::new(false),
                started: Instant::now(),
                deadline: self.deadline,
                memory_budget: self.memory_budget,
                memory_used: AtomicUsize::new(0),
                checkpoints: AtomicU64::new(0),
                cancel_at: self.cancel_at.unwrap_or(TRIP_DISABLED),
            }),
        }
    }
}

/// The execution context threaded through operators: an optional governor
/// plus an optional per-query observability collector.
///
/// [`ExecContext::unbounded`] is the zero-cost default the bare operator
/// entry points use — `checkpoint`, `account`, `tally` and `span` reduce to
/// a branch on `None` (plus a fault probe under `fault-inject`). Plans and
/// the confidence operator store one context and hand it to every operator
/// they call.
#[derive(Debug, Clone, Default)]
pub struct ExecContext {
    governor: Option<QueryGovernor>,
    obs: Option<Arc<QueryObs>>,
}

impl ExecContext {
    /// A context with no governor: checks never fail (but fault probes, when
    /// compiled in, still fire — a `panic` fault does not need a governor).
    pub const fn unbounded() -> Self {
        ExecContext {
            governor: None,
            obs: None,
        }
    }

    /// A context governed by `governor`.
    pub fn governed(governor: &QueryGovernor) -> Self {
        ExecContext {
            governor: Some(governor.clone()),
            obs: None,
        }
    }

    /// Attaches (or replaces) the governor, keeping the collector.
    pub fn with_governor(mut self, governor: QueryGovernor) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Attaches (or replaces) the per-query observability collector, keeping
    /// the governor.
    pub fn with_obs(mut self, obs: Arc<QueryObs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The governor, if any.
    pub fn governor(&self) -> Option<&QueryGovernor> {
        self.governor.as_ref()
    }

    /// The observability collector, if any.
    pub fn obs(&self) -> Option<&Arc<QueryObs>> {
        self.obs.as_ref()
    }

    /// Whether a governor is attached.
    pub fn is_governed(&self) -> bool {
        self.governor.is_some()
    }

    /// Adds `n` to a deterministic counter (no-op without a collector).
    ///
    /// Call sites must increment by amounts that are functions of the query,
    /// the data, and the backing only — never of the thread count or morsel
    /// schedule — so totals stay bitwise-identical at every pool size.
    #[inline]
    pub fn tally(&self, counter: Counter, n: u64) {
        if let Some(obs) = &self.obs {
            obs.add(counter, n);
        }
    }

    /// Opens a tracing span at `site` (a no-op guard when no collector is
    /// attached or tracing is disabled). Spans must only be opened from
    /// sequential coordinating code, never inside parallel worker loops.
    pub fn span(&self, site: &'static str) -> SpanGuard {
        match &self.obs {
            Some(obs) => obs.span(site),
            None => SpanGuard::noop(),
        }
    }

    /// Opens a tracing span at `site` with a free-form qualifier.
    pub fn span_with(&self, site: &'static str, detail: impl Into<String>) -> SpanGuard {
        match &self.obs {
            Some(obs) => obs.span_with(site, detail),
            None => SpanGuard::noop(),
        }
    }

    /// One governed checkpoint at injection point `(site, index)` in
    /// `stage`: fires a matching armed fault first (compiled out without
    /// `fault-inject`), then the governor's cancellation/deadline check.
    ///
    /// `site` names the boundary class (`"scan.morsel"`, `"join.probe"`,
    /// `"scan.chunk"`, `"conf.bag"`, ...) and `index` the item within it.
    #[inline]
    pub fn checkpoint(&self, stage: Stage, site: &str, index: usize) -> SproutResult<()> {
        if let Some(action) = pdb_fault::probe(site, index) {
            self.apply_fault(stage, site, index, action)?;
        }
        match &self.governor {
            None => Ok(()),
            Some(g) => g.check(stage),
        }
    }

    /// Accounts `bytes` of arena/scatter allocation in `stage` against the
    /// memory budget (no-op when ungoverned or unbudgeted).
    #[inline]
    pub fn account(&self, stage: Stage, bytes: usize) -> SproutResult<()> {
        match &self.governor {
            None => Ok(()),
            Some(g) => g.account(stage, bytes),
        }
    }

    /// Returns `bytes` of previously accounted allocation to the budget
    /// (no-op when ungoverned). See [`QueryGovernor::release`].
    #[inline]
    pub fn release(&self, bytes: usize) {
        if let Some(g) = &self.governor {
            g.release(bytes);
        }
    }

    /// Applies a fired fault action at `(site, index)`.
    ///
    /// Kept out of line so the inlined happy path stays small; unused (and
    /// unreachable) when `fault-inject` is off.
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    #[cold]
    fn apply_fault(
        &self,
        stage: Stage,
        site: &str,
        index: usize,
        action: pdb_fault::FaultAction,
    ) -> SproutResult<()> {
        match action {
            pdb_fault::FaultAction::Panic => {
                panic!("injected fault: panic at {site}[{index}]")
            }
            pdb_fault::FaultAction::Cancel => {
                if let Some(g) = &self.governor {
                    g.cancel();
                }
                Err(SproutError::Cancelled { stage })
            }
            pdb_fault::FaultAction::Budget => {
                // Simulated exhaustion: report whatever is accounted so far.
                let (used, budget) = match &self.governor {
                    Some(g) => (g.memory_used(), 0),
                    None => (0, 0),
                };
                Err(SproutError::MemoryBudgetExceeded {
                    stage,
                    requested: 0,
                    used,
                    budget,
                })
            }
            pdb_fault::FaultAction::Slow(ms) => {
                // Simulated slow worker; the governor check that follows the
                // probe then observes any expired deadline.
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_context_never_fails() {
        let ctx = ExecContext::unbounded();
        assert!(!ctx.is_governed());
        for i in 0..1000 {
            assert!(ctx.checkpoint(Stage::Scan, "t.site", i).is_ok());
            assert!(ctx.account(Stage::Scan, 1 << 20).is_ok());
        }
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let gov = QueryGovernor::new();
        let ctx = ExecContext::governed(&gov);
        assert!(ctx.checkpoint(Stage::Join, "t.site", 0).is_ok());
        let clone = gov.clone();
        clone.cancel();
        assert!(gov.is_cancelled());
        let err = ctx.checkpoint(Stage::Join, "t.site", 1).unwrap_err();
        assert_eq!(err, SproutError::Cancelled { stage: Stage::Join });
        assert_eq!(err.stage(), Stage::Join);
        assert!(err.is_interruption());
    }

    #[test]
    fn deadline_fires_after_expiry() {
        let gov = QueryGovernor::builder()
            .deadline(Duration::from_millis(5))
            .build();
        let ctx = ExecContext::governed(&gov);
        assert!(ctx.checkpoint(Stage::Scan, "t.site", 0).is_ok());
        std::thread::sleep(Duration::from_millis(10));
        match ctx.checkpoint(Stage::Scan, "t.site", 1) {
            Err(SproutError::DeadlineExceeded {
                stage, deadline, ..
            }) => {
                assert_eq!(stage, Stage::Scan);
                assert_eq!(deadline, Duration::from_millis(5));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn memory_budget_fails_the_overflowing_allocation() {
        let gov = QueryGovernor::builder().memory_budget(1000).build();
        let ctx = ExecContext::governed(&gov);
        assert!(ctx.account(Stage::Scan, 600).is_ok());
        assert_eq!(gov.memory_used(), 600);
        match ctx.account(Stage::Join, 600) {
            Err(SproutError::MemoryBudgetExceeded {
                stage,
                requested,
                used,
                budget,
            }) => {
                assert_eq!(stage, Stage::Join);
                assert_eq!(requested, 600);
                assert_eq!(used, 1200);
                assert_eq!(budget, 1000);
            }
            other => panic!("expected MemoryBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn release_returns_accounted_bytes_and_saturates() {
        let gov = QueryGovernor::builder().memory_budget(1000).build();
        let ctx = ExecContext::governed(&gov);
        assert!(ctx.account(Stage::Confidence, 800).is_ok());
        ctx.release(300);
        assert_eq!(gov.memory_used(), 500);
        // The freed headroom is usable again.
        assert!(ctx.account(Stage::Confidence, 400).is_ok());
        assert_eq!(gov.memory_used(), 900);
        // Saturating: releasing more than is accounted clamps to zero.
        gov.release(5000);
        assert_eq!(gov.memory_used(), 0);
        // Ungoverned contexts ignore release.
        ExecContext::unbounded().release(1 << 30);
    }

    #[test]
    fn cancel_after_checkpoints_trips_exactly_at_n() {
        let gov = QueryGovernor::builder().cancel_after_checkpoints(3).build();
        let ctx = ExecContext::governed(&gov);
        assert!(ctx.checkpoint(Stage::Scan, "t.site", 0).is_ok());
        assert!(ctx.checkpoint(Stage::Scan, "t.site", 1).is_ok());
        assert!(matches!(
            ctx.checkpoint(Stage::Scan, "t.site", 2),
            Err(SproutError::Cancelled { .. })
        ));
        assert_eq!(gov.checkpoints_seen(), 3);
    }

    #[test]
    fn checkpoints_are_counted_for_the_sweep() {
        let gov = QueryGovernor::new();
        let ctx = ExecContext::governed(&gov);
        for i in 0..17 {
            ctx.checkpoint(Stage::Confidence, "t.site", i).unwrap();
        }
        assert_eq!(gov.checkpoints_seen(), 17);
    }

    #[test]
    fn tally_and_span_route_to_the_attached_collector() {
        let obs = QueryObs::with_tracing();
        let ctx = ExecContext::unbounded().with_obs(Arc::clone(&obs));
        {
            let _s = ctx.span_with("scan", "R");
            ctx.tally(Counter::RowsScanned, 42);
        }
        assert_eq!(obs.get(Counter::RowsScanned), 42);
        let tree = obs.span_tree();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].site, "scan");
        assert_eq!(tree[0].counters, vec![("rows_scanned", 42)]);
        // Without a collector both are no-ops.
        let bare = ExecContext::unbounded();
        bare.tally(Counter::RowsScanned, 7);
        drop(bare.span("scan"));
        assert!(bare.obs().is_none());
    }

    #[test]
    fn errors_display_their_stage() {
        let e = SproutError::WorkerPanic {
            stage: Stage::Confidence,
            item: 7,
            message: "boom".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("confidence") && s.contains('7') && s.contains("boom"),
            "{s}"
        );
        assert!(SproutError::Cancelled { stage: Stage::Scan }
            .to_string()
            .contains("scan"));
        let f = SproutError::Failed {
            stage: Stage::Catalog,
            message: "unknown table: Ord".into(),
        };
        assert!(!f.is_interruption());
        assert!(f.to_string().contains("catalog"));
    }
}
