//! Signal normalization.
//!
//! SIFT builds its two-dimensional *portrait* from min–max–normalized ECG
//! and ABP snippets, so every portrait point lies in the unit square
//! (paper §II-A, "Feature Extraction"). A sample `x` normalizes to
//! `(x − lo) / span` with the `(lo, span)` that [`range`] returns.

use crate::stats;
use crate::DspError;

/// The min–max range of `samples` as `(lo, span)`: `(x − lo) / span`
/// maps every sample into the unit interval `[0, 1]`.
///
/// `lo` and `span = hi − lo` come from the very `(lo, hi)` bits that
/// [`stats::min_max`] returns, found by the faster lane scan of
/// [`extremes`]. Two samples of equal value have equal bits unless they
/// are `-0.0` and `+0.0`, so a nonzero extreme does not depend on the
/// order of the scan; when an extreme is zero, its sign is taken from
/// [`stats::min_max`]'s sequential fold.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] on empty input,
/// [`DspError::NonFiniteInput`] on NaN/infinite input and
/// [`DspError::ConstantSignal`] when `max == min` (the scale is undefined).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dsp::DspError> {
/// let samples = [10.0, 20.0, 15.0];
/// let (lo, span) = dsp::normalize::range(&samples)?;
/// let n: Vec<f64> = samples.iter().map(|x| (x - lo) / span).collect();
/// assert_eq!(n, vec![0.0, 1.0, 0.5]);
/// # Ok(())
/// # }
/// ```
pub fn range(samples: &[f64]) -> Result<(f64, f64), DspError> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let (mut lo, mut hi) = extremes(samples).ok_or(DspError::NonFiniteInput)?;
    if lo == 0.0 || hi == 0.0 {
        (lo, hi) = stats::min_max(samples)?;
    }
    if hi == lo {
        return Err(DspError::ConstantSignal);
    }
    Ok((lo, hi - lo))
}

/// The smallest and largest of `samples` as `(lo, hi)`, or `None` if a
/// sample is NaN or infinite; `(∞, −∞)` when there are none.
///
/// Sample `i` goes to lane `i % 8` and each lane keeps its own minimum
/// and maximum, so the eight loop-carried chains are independent;
/// finiteness is one flag over the whole scan, checked after it. The
/// lanes then fold into one `(lo, hi)`.
pub fn extremes(samples: &[f64]) -> Option<(f64, f64)> {
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut finite = true;
    let (chunks, tail) = samples.as_chunks::<LANES>();
    for lanes in chunks {
        scan_lanes(lanes, &mut lo, &mut hi, &mut finite);
    }
    scan_lanes(tail, &mut lo, &mut hi, &mut finite);
    let lo = lo.into_iter().fold(f64::INFINITY, f64::min);
    let hi = hi.into_iter().fold(f64::NEG_INFINITY, f64::max);
    finite.then_some((lo, hi))
}

/// Lanes of [`extremes`]' scan.
const LANES: usize = 8;

/// Fold up to [`LANES`] samples into the per-lane minima and maxima,
/// sample `j` into lane `j`, and clear `finite` if one is NaN or ∞.
fn scan_lanes(samples: &[f64], lo: &mut [f64; LANES], hi: &mut [f64; LANES], finite: &mut bool) {
    for ((&v, lo), hi) in samples.iter().zip(lo).zip(hi) {
        *finite &= v.is_finite();
        *lo = if v < *lo { v } else { *lo };
        *hi = if v > *hi { v } else { *hi };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_maps_onto_the_unit_interval() {
        let samples = [5.0, 7.0, 9.0];
        let (lo, span) = range(&samples).unwrap();
        assert_eq!((lo, span), (5.0, 4.0));
        let n: Vec<f64> = samples.iter().map(|x| (x - lo) / span).collect();
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn range_constant_errors() {
        assert_eq!(range(&[2.0, 2.0]), Err(DspError::ConstantSignal));
    }

    #[test]
    fn range_single_sample_errors() {
        // A single sample is constant by definition.
        assert_eq!(range(&[3.0]), Err(DspError::ConstantSignal));
    }

    #[test]
    fn range_is_the_sequential_fold_bit_for_bit() {
        // Extremes in every lane and in the tail, and signed zeros as
        // extremes in either order, where only the fold decides the sign.
        let mut cases: Vec<Vec<f64>> = Vec::new();
        for len in [2, 7, 8, 9, 17, 1080] {
            for at in [0, len / 3, len - 1] {
                let mut v: Vec<f64> = (0..len).map(|i| ((i * 37) % 11) as f64 - 4.5).collect();
                v[at] = -9.25;
                cases.push(v.clone());
                v[at] = 12.5;
                cases.push(v);
            }
        }
        // Zeros in one lane, and zeros whose lane order is not their
        // index order (indices 1 and 8 land in lanes 1 and 0).
        let placements = [(3, 0, 2), (9, 0, 8), (20, 0, 19), (10, 1, 8), (20, 8, 17)];
        for (a, b) in [(0.0, -0.0), (-0.0, 0.0)] {
            for (len, p, q) in placements {
                let mut lower: Vec<f64> = (0..len).map(|i| 1.0 + i as f64).collect();
                lower[p] = a;
                lower[q] = b;
                cases.push(lower.clone());
                cases.push(lower.iter().map(|x| -x).collect());
            }
        }
        for v in cases {
            let (lo, hi) = stats::min_max(&v).unwrap();
            let (got_lo, span) = range(&v).unwrap();
            assert_eq!((got_lo.to_bits(), span.to_bits()), (lo.to_bits(), (hi - lo).to_bits()), "{v:?}");
        }
    }

    #[test]
    fn range_rejects_nan_and_infinities() {
        assert_eq!(range(&[1.0, f64::NAN]), Err(DspError::NonFiniteInput));
        assert_eq!(range(&[1.0, f64::INFINITY]), Err(DspError::NonFiniteInput));
        assert_eq!(range(&[f64::NEG_INFINITY, 1.0]), Err(DspError::NonFiniteInput));
        assert_eq!(range(&[]), Err(DspError::EmptyInput));
    }
}
