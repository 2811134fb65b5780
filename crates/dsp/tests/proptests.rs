//! Property-based tests for the DSP substrate.

use dsp::embedded_math::{atan2_approx, isqrt_u64};
use dsp::normalize;
use dsp::stats;
use proptest::prelude::*;

fn finite_signal(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, min_len..200)
}

proptest! {
    #[test]
    fn min_max_normalization_stays_in_unit_interval(xs in finite_signal(2)) {
        match normalize::range(&xs) {
            Ok((lo, span)) => {
                let n: Vec<f64> = xs.iter().map(|x| (x - lo) / span).collect();
                for y in &n {
                    prop_assert!((-1e-12..=1.0 + 1e-12).contains(y));
                }
                // Extremes are attained.
                prop_assert!(n.iter().any(|y| *y < 1e-12));
                prop_assert!(n.iter().any(|y| *y > 1.0 - 1e-12));
            }
            Err(dsp::DspError::ConstantSignal) => {
                let first = xs[0];
                prop_assert!(xs.iter().all(|x| *x == first));
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    #[test]
    fn min_max_is_order_preserving(xs in finite_signal(2)) {
        if let Ok((lo, span)) = normalize::range(&xs) {
            let n: Vec<f64> = xs.iter().map(|x| (x - lo) / span).collect();
            for i in 0..xs.len() {
                for j in 0..xs.len() {
                    if xs[i] < xs[j] {
                        prop_assert!(n[i] <= n[j]);
                    }
                }
            }
        }
    }

    #[test]
    fn range_is_the_min_max_fold_bit_for_bit(
        xs in finite_signal(1),
        zeros in prop::collection::vec((0usize..200, any::<bool>()), 0..4),
    ) {
        // Signed zeros dropped in as extremes or among the samples.
        let mut xs = xs;
        for (at, negative) in zeros {
            let i = at % xs.len();
            xs[i] = if negative { -0.0 } else { 0.0 };
        }
        match (normalize::range(&xs), stats::min_max(&xs)) {
            (Ok((lo, span)), Ok((min, max))) => {
                prop_assert_eq!(lo.to_bits(), min.to_bits());
                prop_assert_eq!(span.to_bits(), (max - min).to_bits());
            }
            (Err(e), Ok((min, max))) => {
                prop_assert_eq!(e, dsp::DspError::ConstantSignal);
                prop_assert!(min == max);
            }
            (got, expect) => prop_assert!(false, "{:?} vs {:?}", got, expect),
        }
    }

    #[test]
    fn mean_lies_between_min_and_max(xs in finite_signal(1)) {
        let m = stats::mean(&xs).unwrap();
        let (lo, hi) = stats::min_max(&xs).unwrap();
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn variance_is_nonnegative(xs in finite_signal(1)) {
        prop_assert!(stats::variance(&xs).unwrap() >= 0.0);
    }

    #[test]
    fn variance_is_shift_invariant(xs in finite_signal(1), shift in -1e3f64..1e3) {
        let v1 = stats::variance(&xs).unwrap();
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let v2 = stats::variance(&shifted).unwrap();
        let scale = v1.abs().max(1.0);
        prop_assert!((v1 - v2).abs() < 1e-6 * scale, "v1={v1} v2={v2}");
    }

    #[test]
    fn percentile_is_monotone_in_p(xs in finite_signal(1), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&xs, lo).unwrap();
        let b = stats::percentile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-12);
    }

    #[test]
    fn isqrt_is_floor_sqrt(x in any::<u64>()) {
        let r = isqrt_u64(x);
        prop_assert!(r.checked_mul(r).is_some_and(|sq| sq <= x));
        let r1 = r + 1;
        prop_assert!(r1.checked_mul(r1).is_none_or(|sq| sq > x));
    }

    #[test]
    fn atan2_close_to_std(y in -1e4f64..1e4, x in -1e4f64..1e4) {
        prop_assume!(x != 0.0 || y != 0.0);
        let want = f64::atan2(y, x);
        let got = atan2_approx(y, x);
        prop_assert!((want - got).abs() < 5e-4, "want={want} got={got}");
    }

    #[test]
    fn trapezoid_linearity(xs in finite_signal(2), k in -10.0f64..10.0) {
        let dx = 0.25;
        let i1 = dsp::integrate::trapezoid(&xs, dx).unwrap();
        let scaled: Vec<f64> = xs.iter().map(|x| k * x).collect();
        let i2 = dsp::integrate::trapezoid(&scaled, dx).unwrap();
        let tol = 1e-9 * i1.abs().max(1.0) * k.abs().max(1.0);
        prop_assert!((i2 - k * i1).abs() <= tol, "i1={i1} i2={i2} k={k}");
    }

    #[test]
    fn simplified_trapezoid_matches_classic(xs in finite_signal(2)) {
        let n = (xs.len() - 1) as f64;
        let dx = 0.5;
        let classic = dsp::integrate::trapezoid(&xs, dx).unwrap();
        let simplified = dsp::integrate::simplified_trapezoid(&xs, 0.0, n * dx).unwrap();
        let tol = 1e-9 * classic.abs().max(1.0);
        prop_assert!((classic - simplified).abs() <= tol);
    }
}
