//! Matrix features of the occupancy grid `C` (paper Table I, top half),
//! read off a portrait's two axes: `c(i, j)` counts the samples whose
//! ECG falls in row `i` and whose ABP falls in column `j`.

use super::Version;
use crate::SiftError;

/// Scratch for the joint counts of an `n × n` grid: the counts and a
/// bitmap of the occupied cells, both all zero between calls.
#[derive(Debug, Default)]
pub(crate) struct JointCounts {
    counts: Vec<u32>,
    occupied: Vec<u64>,
}

/// Spatial filling index of `C`: the occupancy concentration
/// `Σᵢⱼ p(i,j)²` with `p = c / total` — the inverse participation ratio
/// of the portrait over the grid. A tight, repetitive portrait (strong
/// ECG/ABP coupling) concentrates mass in few cells and scores high; a
/// scattered portrait (decorrelated signals) scores low. Identical in
/// the original and simplified versions (paper §III).
///
/// `cols` holds each sample's column and `rows` its row. The sum runs
/// over the occupied cells in row-major order, found through the
/// bitmap rather than by testing all `n²` cells. That is the sum over
/// every cell bit for bit: an empty cell adds `+0.0`, which leaves a
/// non-negative sum unchanged, and at least one cell is occupied, so
/// the `-0.0` a float sum starts from never shows.
pub(crate) fn spatial_filling_index(
    cols: &[u32],
    rows: impl Iterator<Item = usize>,
    n: usize,
    joint: &mut JointCounts,
) -> f64 {
    let JointCounts { counts, occupied } = joint;
    counts.resize(n * n, 0);
    occupied.resize((n * n).div_ceil(64), 0);
    for (&col, row) in cols.iter().zip(rows) {
        let cell = row * n + col as usize;
        counts[cell] += 1;
        occupied[cell / 64] |= 1 << (cell % 64);
    }
    let total = (cols.len() as u32).max(1) as f64;
    let mut sfi = 0.0;
    for (word, bits) in occupied.iter_mut().enumerate() {
        let mut bits = std::mem::take(bits);
        while bits != 0 {
            let cell = word * 64 + bits.trailing_zeros() as usize;
            let p = counts[cell] as f64 / total;
            sfi += p * p;
            counts[cell] = 0;
            bits &= bits - 1;
        }
    }
    sfi
}

/// The two column-average features of a grid version, from each
/// sample's column on an `n`-column grid. A column's average is its
/// count over the `n` cells, so the curve depends on the column
/// histogram alone.
///
/// * [`Version::Original`]: the standard deviation of the column
///   averages, and their area under the curve by the classic
///   trapezoidal rule with unit column spacing.
/// * [`Version::Simplified`]: the variance, which "avoids using the
///   square root computation" (paper §III), and the area by the paper's
///   single-pass composite form `(b−a)/(2N) · Σ (f(xₙ) + f(xₙ₊₁))`.
///   The area equals the trapezoid's on this uniform grid: the
///   simplification is about code structure on the Amulet, not about
///   the value.
///
/// # Errors
///
/// Propagates the DSP error if `n < 2` (the caller checks it first).
pub(crate) fn column_features(
    version: Version,
    cols: &[u32],
    n: usize,
) -> Result<[f64; 2], SiftError> {
    let mut histogram = vec![0u32; n];
    for &c in cols {
        histogram[c as usize] += 1;
    }
    let averages: Vec<f64> = histogram.iter().map(|&h| h as f64 / n as f64).collect();
    Ok(match version {
        Version::Original => [
            dsp::stats::std_dev(&averages)?,
            dsp::integrate::trapezoid(&averages, 1.0)?,
        ],
        Version::Simplified | Version::Reduced => [
            dsp::stats::variance(&averages)?,
            dsp::integrate::simplified_trapezoid(&averages, 0.0, (n - 1) as f64)?,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::super::extract;
    use super::*;
    use crate::config::SiftConfig;
    use crate::snippet::Snippet;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;

    fn sample_snippet() -> Snippet {
        let r = Record::synthesize(&bank()[0], 30.0, 7);
        Snippet::from_record(&windows(&r, 3.0).unwrap()[0]).unwrap()
    }

    fn features(v: Version, sn: &Snippet) -> Vec<f64> {
        extract(v, sn, &SiftConfig::default()).unwrap()
    }

    #[test]
    fn sfi_bounds() {
        let sfi = features(Version::Simplified, &sample_snippet())[0];
        // Bounds: 1/(n·n) ≤ SFI ≤ 1 for any distribution.
        assert!(sfi > 1.0 / 2500.0 && sfi <= 1.0, "sfi={sfi}");
    }

    #[test]
    fn sfi_maximal_when_concentrated() {
        // 3 points in cell (0,0), 1 in (49,49): SFI = (3/4)² + (1/4)².
        let sn = Snippet::new(
            vec![0.0, 0.001, 0.0005, 1.0],
            vec![0.0, 0.001, 0.0005, 1.0],
            vec![],
            vec![],
        )
        .unwrap();
        let sfi = features(Version::Original, &sn)[0];
        assert!((sfi - (0.5625 + 0.0625)).abs() < 1e-12);
    }

    #[test]
    fn joint_counts_are_left_zero() {
        let mut joint = JointCounts::default();
        for n in [4, 9, 3] {
            let sfi = spatial_filling_index(&[0, 2, 2, 1], [0, 2, 2, 1].into_iter(), n, &mut joint);
            assert_eq!(sfi, 0.25 * 0.25 * 2.0 + 0.5 * 0.5, "grid {n}");
            assert!(joint.counts.iter().all(|&c| c == 0));
            assert!(joint.occupied.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn variance_is_square_of_std() {
        let sn = sample_snippet();
        let sd = features(Version::Original, &sn)[1];
        let var = features(Version::Simplified, &sn)[1];
        assert!((var - sd * sd).abs() < 1e-9);
    }

    #[test]
    fn simplified_auc_equals_trapezoid() {
        let sn = sample_snippet();
        let trapezoid = features(Version::Original, &sn)[2];
        let simplified = features(Version::Simplified, &sn)[2];
        assert!((trapezoid - simplified).abs() < 1e-9);
    }

    #[test]
    fn auc_grows_with_the_point_count() {
        // The column averages sum to total/n, so the AUC is about the
        // window length over the grid size.
        let auc = features(Version::Original, &sample_snippet())[2];
        assert!(auc > 0.0 && auc <= 1080.0 / 50.0, "auc={auc}");
    }
}
