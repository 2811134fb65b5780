//! Geometric features of the characteristic points (paper Table I,
//! bottom half, and §III's simplified replacements).
//!
//! In the portrait, every R peak and every systolic peak is a point in
//! the unit square. The *original* features use the angle of each peak's
//! position vector and Euclidean distances; the *simplified* features
//! replace the angle with the slope `y/x` and every distance with its
//! square, eliminating `atan2` and `sqrt` on the Amulet.
//!
//! Windows that contain no peaks (possible at very low heart rates or
//! under freeze attacks) yield zeros for the affected features; the
//! trainer additionally skips windows without at least one R/systolic
//! pair.

use super::Version;
use crate::snippet::pair_peaks;

/// Guard for the slope denominator: normalized ABP can be exactly zero at
/// the window minimum.
const SLOPE_EPS: f64 = 1e-6;

/// The five geometric features of the R peaks at `r_peaks` and the
/// systolic peaks at `sys_peaks`, whose portrait points `point` reads:
/// `[angle_r, angle_sys, dist_r_origin, dist_sys_origin, dist_r_sys]`
/// for [`Version::Original`], and the simplified items i–v (slopes and
/// squared distances, same order) for the other two versions. The R–
/// systolic distance averages over the pairs of
/// [`Snippet::paired_peaks`](crate::snippet::Snippet::paired_peaks).
pub(crate) fn features(
    version: Version,
    point: impl Fn(usize) -> (f64, f64),
    r_peaks: &[usize],
    sys_peaks: &[usize],
) -> [f64; 5] {
    let exact = version == Version::Original;
    let angle = |(x, y): (f64, f64)| {
        if exact {
            f64::atan2(y, x)
        } else {
            y / x.max(SLOPE_EPS)
        }
    };
    let dist = |squared: f64| if exact { squared.sqrt() } else { squared };
    let angles = |peaks: &[usize]| mean(peaks.iter().map(|&i| angle(point(i))));
    let dists = |peaks: &[usize]| {
        mean(peaks.iter().map(|&i| {
            let (x, y) = point(i);
            dist(x * x + y * y)
        }))
    };
    let pair_dist = mean(pair_peaks(r_peaks, sys_peaks).map(|(r, s)| {
        let ((xr, yr), (xs, ys)) = (point(r), point(s));
        dist((xr - xs) * (xr - xs) + (yr - ys) * (yr - ys))
    }));
    [
        angles(r_peaks),
        angles(sys_peaks),
        dists(r_peaks),
        dists(sys_peaks),
        pair_dist,
    ]
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::super::extract;
    use super::*;
    use crate::config::SiftConfig;
    use crate::snippet::Snippet;

    /// The geometric features `extract` returns for `sn`.
    fn geometric(version: Version, sn: &Snippet) -> Vec<f64> {
        let f = extract(version, sn, &SiftConfig::default()).unwrap();
        f[f.len() - 5..].to_vec()
    }

    /// A synthetic snippet with hand-placed peaks so the geometry is
    /// verifiable by hand. The ECG ramps 0→1 and ABP ramps 10→20, so the
    /// portrait is the diagonal and sample `i` maps to
    /// `(i/(n-1), i/(n-1))`.
    fn diagonal_snippet() -> Snippet {
        let n = 11;
        let ecg: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let abp: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        // R peak at index 10 → (1.0, 1.0); systolic at 10 as well.
        Snippet::new(ecg, abp, vec![10], vec![10]).unwrap()
    }

    #[test]
    fn original_on_diagonal_peak() {
        let f = geometric(Version::Original, &diagonal_snippet());
        // Angle of (1,1) is π/4; distance is √2; pair distance 0.
        assert!((f[0] - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((f[1] - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((f[2] - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!((f[3] - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(f[4], 0.0);
    }

    #[test]
    fn simplified_on_diagonal_peak() {
        let sn = diagonal_snippet();
        for version in [Version::Simplified, Version::Reduced] {
            let f = geometric(version, &sn);
            // Slope of (1,1) is 1; squared distance 2; pair 0.
            assert!((f[0] - 1.0).abs() < 1e-12);
            assert!((f[1] - 1.0).abs() < 1e-12);
            assert!((f[2] - 2.0).abs() < 1e-12);
            assert!((f[3] - 2.0).abs() < 1e-12);
            assert_eq!(f[4], 0.0);
        }
    }

    #[test]
    fn no_peaks_gives_zeros() {
        let n = 11;
        let ecg: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let abp: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        let sn = Snippet::new(ecg, abp, vec![], vec![]).unwrap();
        for version in Version::ALL {
            assert_eq!(geometric(version, &sn), [0.0; 5]);
        }
    }

    #[test]
    fn slope_guard_handles_zero_x() {
        // Peak at the ABP minimum: normalized x = 0 exactly.
        let ecg = vec![0.0, 5.0, 1.0, 2.0];
        let abp = vec![30.0, 10.0, 20.0, 25.0]; // min at index 1
        let sn = Snippet::new(ecg, abp, vec![1], vec![]).unwrap();
        let f = geometric(Version::Simplified, &sn);
        assert!(f[0].is_finite());
        assert!(f[0] > 0.0, "guarded slope should be large, got {}", f[0]);
    }

    #[test]
    fn separated_peaks_have_positive_pair_distance() {
        let ecg = vec![0.0, 10.0, 3.0, 1.0, 2.0];
        let abp = vec![10.0, 12.0, 11.0, 30.0, 15.0];
        let sn = Snippet::new(ecg, abp, vec![1], vec![3]).unwrap();
        let fo = geometric(Version::Original, &sn);
        let fs = geometric(Version::Simplified, &sn);
        assert!(fo[4] > 0.0);
        assert!((fs[4] - fo[4] * fo[4]).abs() < 1e-12, "square relation");
    }
}
