//! Probability validation. The arithmetic of the paper's `score`
//! (Definition 4) lives in the engine: products at joins, and the
//! independent-OR `1 − ∏(1 − pᵢ)` at projections (`kernels::fold_or`).

/// Clamp a floating-point probability into `[0, 1]`, mapping NaN to 0.
#[inline]
pub fn clamp01(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// Validate that `p` is a probability; returns an error message otherwise.
pub fn validate(p: f64) -> Result<f64, String> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("probability out of range: {p}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_handles_nan_and_overflow() {
        assert_eq!(clamp01(f64::NAN), 0.0);
        assert_eq!(clamp01(1.5), 1.0);
        assert_eq!(clamp01(-0.5), 0.0);
        assert_eq!(clamp01(0.25), 0.25);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        assert!(validate(0.5).is_ok());
        assert!(validate(-0.1).is_err());
        assert!(validate(1.1).is_err());
        assert!(validate(f64::NAN).is_err());
        assert!(validate(f64::INFINITY).is_err());
    }
}
