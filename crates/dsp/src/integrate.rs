//! Numerical integration.
//!
//! The *original* SIFT feature set computes the area under the curve (AUC)
//! of the portrait-matrix column averages with the trapezoidal rule; the
//! *simplified* detector replaces it with the composite form
//! `∫ f ≈ (b − a) / (2N) · Σ (f(xₙ) + f(xₙ₊₁))` that avoids per-interval
//! bookkeeping on the Amulet (paper §III).

use crate::DspError;

/// Trapezoidal rule over uniformly spaced samples with spacing `dx`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if fewer than two samples are given
/// and [`DspError::InvalidParameter`] if `dx <= 0`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dsp::DspError> {
/// // ∫₀¹ x dx = 0.5 with exact trapezoid on a linear function.
/// let y = [0.0, 0.5, 1.0];
/// assert!((dsp::integrate::trapezoid(&y, 0.5)? - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn trapezoid(samples: &[f64], dx: f64) -> Result<f64, DspError> {
    if samples.len() < 2 {
        return Err(DspError::EmptyInput);
    }
    if dx <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "dx",
            reason: "sample spacing must be positive",
        });
    }
    let inner: f64 = samples[1..samples.len() - 1].iter().sum();
    Ok(dx * ((samples[0] + samples[samples.len() - 1]) / 2.0 + inner))
}

/// The paper's *simplified* composite trapezoid:
/// `(b − a) / (2N) · Σₙ (f(xₙ) + f(xₙ₊₁))` over `N = len − 1` intervals on
/// the domain `[a, b]`.
///
/// For uniformly spaced samples this is algebraically identical to
/// [`trapezoid`] with `dx = (b − a) / N`; it is kept as a separate entry
/// point because the Amulet implementation computes it in this exact
/// single-pass form.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if fewer than two samples are given
/// and [`DspError::InvalidParameter`] if `b <= a`.
pub fn simplified_trapezoid(samples: &[f64], a: f64, b: f64) -> Result<f64, DspError> {
    if samples.len() < 2 {
        return Err(DspError::EmptyInput);
    }
    if b <= a {
        return Err(DspError::InvalidParameter {
            name: "a/b",
            reason: "integration domain must satisfy a < b",
        });
    }
    let n = (samples.len() - 1) as f64;
    let sum: f64 = samples.windows(2).map(|w| w[0] + w[1]).sum();
    Ok((b - a) / (2.0 * n) * sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapezoid_linear_exact() {
        let y: Vec<f64> = (0..=10).map(|i| i as f64 * 0.1).collect();
        assert!((trapezoid(&y, 0.1).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trapezoid_needs_two_samples() {
        assert_eq!(trapezoid(&[1.0], 1.0), Err(DspError::EmptyInput));
    }

    #[test]
    fn trapezoid_rejects_nonpositive_dx() {
        assert!(trapezoid(&[1.0, 2.0], 0.0).is_err());
        assert!(trapezoid(&[1.0, 2.0], -1.0).is_err());
    }

    #[test]
    fn simplified_matches_classic_on_uniform_grid() {
        let y: Vec<f64> = (0..=50).map(|i| ((i as f64) * 0.1).sin()).collect();
        let dx = 0.1;
        let classic = trapezoid(&y, dx).unwrap();
        let simplified = simplified_trapezoid(&y, 0.0, 5.0).unwrap();
        assert!((classic - simplified).abs() < 1e-12);
    }

    #[test]
    fn simplified_rejects_bad_domain() {
        assert!(simplified_trapezoid(&[1.0, 2.0], 1.0, 1.0).is_err());
    }
}
