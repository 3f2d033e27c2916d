//! Extensional probability aggregation: how a MystiQ-style safe plan
//! combines the probabilities of duplicate tuples.
//!
//! MystiQ "works on probabilistic tables without variable columns and where
//! only restricted ('safe') query plans can be used for correct probability
//! computation" (Section V). Its plans are joins, which multiply the
//! probabilities of the tuples they pair, and *independent projects*
//! `π^ind`, which combine the probabilities of duplicates as if they were
//! independent — which safe plans guarantee by construction. The engine
//! runs those plans on its ordinary operators (`sprout_plan::safe`); what
//! is MystiQ's own and lives here is how `π^ind` combines a group:
//! [`ProbAggregation`], with MystiQ's log-space
//! `1 − POWER(10000, SUM(log(1.001 − p)))`, whose numerical fragility is the
//! reason several TPC-H queries "could not be computed by MystiQ due to a
//! minor technical problem" (Section VII).

/// How an independent projection combines the probabilities of duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbAggregation {
    /// The numerically stable complement-product `1 − Π(1 − p_i)`.
    Stable,
    /// MystiQ's log-space emulation (June 2008 snapshot): computes
    /// `1 − base^{Σ log_base(1.001 − p_i)}` with `base = 10000`. For large
    /// duplicate groups the logarithms of tiny numbers overflow to
    /// non-finite values, which this implementation reports as an error —
    /// mirroring the runtime errors the paper observed.
    MystiqLog,
}

/// Errors specific to extensional probability aggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregationError {
    /// The log-space aggregation produced a non-finite intermediate value.
    NumericOverflow {
        /// Size of the duplicate group that failed.
        group_size: usize,
    },
}

impl std::fmt::Display for AggregationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregationError::NumericOverflow { group_size } => write!(
                f,
                "log-space probability aggregation overflowed on a group of {group_size} duplicates"
            ),
        }
    }
}

impl std::error::Error for AggregationError {}

/// MystiQ's log-space emulation of `1 − Π(1 − p_i)` as described in
/// Section VII: `1 − POWER(10000, SUM(log_10000(1.001 − p)))`.
///
/// # Errors
/// Returns [`AggregationError::NumericOverflow`] when an intermediate value is
/// not finite, which happens for large groups containing probabilities close
/// to 1 — reproducing the runtime errors reported in the paper.
pub fn mystiq_log_aggregate(probs: &[f64]) -> Result<f64, AggregationError> {
    const BASE: f64 = 10_000.0;
    let mut sum = 0.0f64;
    for p in probs {
        sum += (1.001 - p).log(BASE);
    }
    let product = BASE.powf(sum);
    // The 1.001 fudge factor keeps individual logarithms finite, but summing
    // many logarithms of very small numbers drives the power computation to a
    // non-finite value or a hard underflow to zero; either way the aggregate
    // is no longer meaningful, which the paper's MystiQ runs surfaced as
    // runtime errors.
    if !sum.is_finite() || !product.is_finite() || (product == 0.0 && !probs.is_empty()) {
        return Err(AggregationError::NumericOverflow {
            group_size: probs.len(),
        });
    }
    Ok(1.0 - product)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mystiq_log_aggregation_is_close_but_biased() {
        let probs = vec![0.1, 0.2];
        let exact = 0.28;
        let approx = mystiq_log_aggregate(&probs).unwrap();
        assert!((approx - exact).abs() < 0.01);
        // The bias comes from the 1.001 fudge factor.
        assert!((approx - exact).abs() > 1e-6);
    }

    #[test]
    fn mystiq_log_aggregation_fails_on_large_groups_of_high_probabilities() {
        // log(1.001 - 0.9999…) ≈ log(0.0011…): summing ~hundreds of thousands
        // of these underflows the power computation.
        let probs = vec![0.9999; 200_000];
        assert!(matches!(
            mystiq_log_aggregate(&probs),
            Err(AggregationError::NumericOverflow { .. })
        ));
    }
}
