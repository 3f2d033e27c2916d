//! The probability combinators of one-occurrence-form lineage.

/// Probability of the disjunction of independent events: `1 − Π (1 − p_i)`.
///
/// This is the `prob` aggregate of Fig. 5; it is only correct when the events
/// are pairwise independent, which the paper's operator guarantees by
/// partitioning variables according to the query signature.
pub fn independent_or(probs: impl IntoIterator<Item = f64>) -> f64 {
    let mut none_true = 1.0;
    for p in probs {
        none_true *= 1.0 - p;
    }
    1.0 - none_true
}

/// Probability of the conjunction of independent events: `Π p_i`.
pub fn independent_and(probs: impl IntoIterator<Item = f64>) -> f64 {
    probs.into_iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_combinators() {
        assert!((independent_or([0.1, 0.2]) - 0.28).abs() < 1e-12);
        assert!((independent_and([0.1, 0.2]) - 0.02).abs() < 1e-12);
        assert_eq!(independent_or(std::iter::empty::<f64>()), 0.0);
        assert_eq!(independent_and(std::iter::empty::<f64>()), 1.0);
    }
}
