//! KL divergence between actual and estimated PDFs.
//!
//! `KL(Act || Est) = sum_C Act_C * log(Act_C / Est_C)` (paper Section II-B;
//! 0 when the distributions coincide). The raw definition blows up when a
//! cell has actual mass but zero estimated mass, which happens routinely
//! with finite query workloads; following the standard remedy (also used by
//! the Kifer–Gehrke utility framework the paper adopts the metric from), a
//! small uniform mass is added to every cell of both distributions before
//! comparing.

/// Default additive-smoothing mass per cell.
pub const DEFAULT_SMOOTHING: f64 = 1e-6;

/// KL divergence (natural log) between two distributions over the same
/// cells, with additive smoothing `eps` on every cell of both sides.
///
/// # Examples
///
/// ```
/// use cahd_eval::{kl_divergence, DEFAULT_SMOOTHING};
///
/// let actual = [1.0, 0.0];
/// assert!(kl_divergence(&actual, &actual, DEFAULT_SMOOTHING) < 1e-9);
/// let blurred = [0.5, 0.5];
/// assert!(kl_divergence(&actual, &blurred, DEFAULT_SMOOTHING) > 0.5);
/// ```
///
/// Inputs need not be perfectly normalized; both are renormalized after
/// smoothing. Returns 0.0 for empty slices. Only a negative rounding
/// residue is clamped to 0.0: a NaN input yields NaN, never a perfect
/// score.
///
/// # Panics
/// Panics if the slices have different lengths or `eps <= 0`.
pub fn kl_divergence(actual: &[f64], estimated: &[f64], eps: f64) -> f64 {
    assert_eq!(actual.len(), estimated.len(), "PDF length mismatch");
    assert!(eps > 0.0, "smoothing must be positive");
    if actual.is_empty() {
        return 0.0;
    }
    let n = actual.len() as f64;
    let ta: f64 = actual.iter().sum::<f64>() + eps * n;
    let te: f64 = estimated.iter().sum::<f64>() + eps * n;
    let mut kl = 0.0;
    for (&a, &e) in actual.iter().zip(estimated) {
        let pa = (a + eps) / ta;
        let pe = (e + eps) / te;
        kl += pa * (pa / pe).ln();
    }
    // Clamp tiny negative rounding; `max` would also turn NaN into 0.0.
    if kl < 0.0 {
        0.0
    } else {
        kl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_are_zero() {
        let p = [0.25, 0.25, 0.5];
        assert!(kl_divergence(&p, &p, DEFAULT_SMOOTHING) < 1e-12);
    }

    #[test]
    fn diverging_distributions_are_positive() {
        let a = [1.0, 0.0];
        let e = [0.5, 0.5];
        let kl = kl_divergence(&a, &e, DEFAULT_SMOOTHING);
        assert!(kl > 0.5, "kl {kl}"); // ~ln 2
        assert!(kl < 0.8);
    }

    #[test]
    fn smoothing_handles_zero_estimated_cells() {
        let a = [1.0, 0.0];
        let e = [0.0, 1.0];
        let kl = kl_divergence(&a, &e, DEFAULT_SMOOTHING);
        assert!(kl.is_finite());
        assert!(kl > 1.0);
    }

    #[test]
    fn closer_estimates_score_lower() {
        let a = [0.8, 0.2];
        let close = [0.7, 0.3];
        let far = [0.2, 0.8];
        assert!(
            kl_divergence(&a, &close, DEFAULT_SMOOTHING)
                < kl_divergence(&a, &far, DEFAULT_SMOOTHING)
        );
    }

    #[test]
    fn nan_input_is_not_a_perfect_score() {
        let a = [1.0, 0.0];
        assert!(kl_divergence(&a, &[f64::NAN, 0.0], DEFAULT_SMOOTHING).is_nan());
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(kl_divergence(&[], &[], DEFAULT_SMOOTHING), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        kl_divergence(&[1.0], &[0.5, 0.5], DEFAULT_SMOOTHING);
    }
}
