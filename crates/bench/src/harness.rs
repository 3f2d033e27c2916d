//! Database construction and measurement helpers shared by the figure
//! binaries.

use std::time::Duration;

use sprout::{ConjunctiveQuery, PlanKind, PlanResult, SproutDb};

use pdb_tpch::{probabilistic_catalog, TpchData, TpchScale};

/// The scale factor used when the `SPROUT_SF` environment variable is unset.
pub const DEFAULT_SCALE_FACTOR: f64 = 0.01;

/// The scale factor to benchmark at: `SPROUT_SF` if set, otherwise
/// [`DEFAULT_SCALE_FACTOR`].
pub fn bench_scale_factor() -> f64 {
    std::env::var("SPROUT_SF")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE_FACTOR)
}

/// Generates the probabilistic TPC-H database at the given scale factor.
pub fn build_database(scale_factor: f64) -> SproutDb {
    let data = TpchData::generate(TpchScale::new(scale_factor));
    let catalog = probabilistic_catalog(&data, 1).expect("catalog construction cannot fail");
    SproutDb::from_catalog(catalog)
}

/// One measured plan execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Query identifier (paper numbering).
    pub query: String,
    /// Plan family.
    pub plan: String,
    /// Time to compute (and materialise) the answer tuples.
    pub tuple_time: Duration,
    /// Time to compute the confidences.
    pub confidence_time: Duration,
    /// Number of answer tuples before duplicate elimination, when the plan
    /// materialises them.
    pub answer_tuples: Option<usize>,
    /// Number of distinct answer tuples.
    pub distinct_tuples: usize,
    /// Scans used by the confidence operator, when applicable.
    pub scans: Option<usize>,
}

impl Measurement {
    /// Total wall-clock time of the plan.
    pub fn total(&self) -> Duration {
        self.tuple_time + self.confidence_time
    }
}

/// Runs `query` under `kind`, optionally ignoring the declared functional
/// dependencies, and returns the measurement.
///
/// # Errors
/// Propagates planning/execution failures (intractable queries, MystiQ
/// runtime errors), which some experiments deliberately provoke.
pub fn run_plan(
    db: &SproutDb,
    query_id: &str,
    query: &ConjunctiveQuery,
    kind: PlanKind,
    use_fds: bool,
) -> PlanResult<Measurement> {
    let report = if use_fds {
        db.query(query, kind.clone())?
    } else {
        db.query_without_fds(query, kind.clone())?
    };
    Ok(Measurement {
        query: query_id.to_string(),
        plan: kind.to_string(),
        tuple_time: report.tuple_time,
        confidence_time: report.confidence_time,
        answer_tuples: report.answer_tuples,
        distinct_tuples: report.distinct_tuples,
        scans: report.scans,
    })
}

/// Formats a duration in seconds with millisecond resolution, the unit the
/// paper's figures use.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_tpch::tpch_query;

    #[test]
    fn harness_builds_and_measures_a_small_database() {
        let db = build_database(0.0002);
        let query = tpch_query("3").unwrap().query.unwrap();
        let m = run_plan(&db, "3", &query, PlanKind::Lazy, true).unwrap();
        assert_eq!(m.query, "3");
        assert_eq!(m.plan, "lazy");
        assert!(m.distinct_tuples <= m.answer_tuples.unwrap_or(usize::MAX));
        assert!(m.total() >= m.confidence_time);
        assert_eq!(m.scans, Some(1));
    }

    #[test]
    fn scale_factor_defaults_without_env() {
        // The env var is not set in the test environment.
        assert!(bench_scale_factor() > 0.0);
        assert!(!secs(Duration::from_millis(1500)).is_empty());
    }
}
