//! Portrait feature extraction — the three detector versions.
//!
//! | Version | Matrix features | Geometric features | Count |
//! |---|---|---|---|
//! | [`Version::Original`] | SFI, std of column averages, trapezoid AUC | mean peak angles (atan2), mean Euclidean distances | 8 |
//! | [`Version::Simplified`] | SFI, **variance** of column averages, single-pass trapezoid AUC | mean peak **slopes**, mean **squared** distances | 8 |
//! | [`Version::Reduced`] | — | the five simplified geometric features | 5 |
//!
//! The simplified variants exist because early AmuletOS builds had no C
//! math library (paper Insight #2): variance avoids the square root of a
//! standard deviation, slopes avoid `atan2`, squared distances avoid the
//! square root of a norm.

pub mod geometric;
pub mod matrix;

use crate::config::SiftConfig;
use crate::portrait::{GridMatrix, Portrait};
use crate::snippet::Snippet;
use crate::SiftError;

/// Which of the paper's three detector builds to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Full implementation: all 8 features with exact math.
    Original,
    /// All 8 features with libm-free arithmetic (variance, slopes,
    /// squared distances).
    Simplified,
    /// Only the 5 simplified geometric features.
    Reduced,
}

impl Version {
    /// All versions, in the paper's presentation order.
    pub const ALL: [Version; 3] = [Version::Original, Version::Simplified, Version::Reduced];

    /// Dimension of the feature vector this version produces.
    pub fn feature_count(self) -> usize {
        match self {
            Version::Original | Version::Simplified => 8,
            Version::Reduced => 5,
        }
    }

    /// Human-readable names of the features, in vector order (used by the
    /// Table I harness).
    pub fn feature_names(self) -> &'static [&'static str] {
        match self {
            Version::Original => &[
                "spatial filling index of matrix C",
                "std deviation of column averages of C",
                "AUC of column averages of C (trapezoid)",
                "avg angle of R peaks on the portrait",
                "avg angle of systolic peaks on the portrait",
                "avg distance R peaks to origin",
                "avg distance systolic peaks to origin",
                "avg distance R peak to paired systolic peak",
            ],
            Version::Simplified => &[
                "spatial filling index of matrix C",
                "variance of column averages of C",
                "AUC of column averages of C (single-pass)",
                "avg slope of R peaks on the portrait",
                "avg slope of systolic peaks on the portrait",
                "avg squared distance R peaks to origin",
                "avg squared distance systolic peaks to origin",
                "avg squared distance R peak to paired systolic peak",
            ],
            Version::Reduced => &[
                "avg slope of R peaks on the portrait",
                "avg slope of systolic peaks on the portrait",
                "avg squared distance R peaks to origin",
                "avg squared distance systolic peaks to origin",
                "avg squared distance R peak to paired systolic peak",
            ],
        }
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Version::Original => write!(f, "original"),
            Version::Simplified => write!(f, "simplified"),
            Version::Reduced => write!(f, "reduced"),
        }
    }
}

/// Extract the reference (double-precision, full-math) feature vector for
/// `snippet` — the paper's MATLAB gold standard.
///
/// # Errors
///
/// Returns [`SiftError::InvalidSnippet`] for a hand-built snippet that
/// breaks [`Snippet::new`]'s invariants, [`SiftError::DegenerateSignal`]
/// if the snippet cannot form a portrait, and propagates configuration
/// errors from the grid.
pub fn extract(
    version: Version,
    snippet: &Snippet,
    config: &SiftConfig,
) -> Result<Vec<f64>, SiftError> {
    let portrait = Portrait::from_snippet(snippet)?;
    extract_from_portrait(version, &portrait, config)
}

/// Extract from an already-built portrait (lets callers share the
/// portrait across versions).
///
/// # Errors
///
/// Propagates grid-construction errors.
pub fn extract_from_portrait(
    version: Version,
    portrait: &Portrait,
    config: &SiftConfig,
) -> Result<Vec<f64>, SiftError> {
    match version {
        Version::Original => {
            let grid = GridMatrix::from_portrait(portrait, config.grid_n)?;
            let cols = grid.column_averages();
            let mut v = Vec::with_capacity(8);
            v.push(matrix::spatial_filling_index(&grid));
            v.push(matrix::column_average_std(&cols)?);
            v.push(matrix::column_average_auc_trapezoid(&cols)?);
            v.extend_from_slice(&geometric::original(portrait));
            Ok(v)
        }
        Version::Simplified => {
            let grid = GridMatrix::from_portrait(portrait, config.grid_n)?;
            let cols = grid.column_averages();
            let mut v = Vec::with_capacity(8);
            v.push(matrix::spatial_filling_index(&grid));
            v.push(matrix::column_average_variance(&cols)?);
            v.push(matrix::column_average_auc_simplified(&cols)?);
            v.extend_from_slice(&geometric::simplified(portrait));
            Ok(v)
        }
        Version::Reduced => Ok(geometric::simplified(portrait).to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;

    fn snippet_for(subject: usize, seed: u64) -> Snippet {
        let b = bank();
        let r = Record::synthesize(&b[subject], 30.0, seed);
        Snippet::from_record(&windows(&r, 3.0).unwrap()[1]).unwrap()
    }

    #[test]
    fn feature_counts_match_versions() {
        let cfg = SiftConfig::default();
        let sn = snippet_for(0, 3);
        for v in Version::ALL {
            let f = extract(v, &sn, &cfg).unwrap();
            assert_eq!(f.len(), v.feature_count(), "{v}");
            assert_eq!(v.feature_names().len(), v.feature_count());
            assert!(f.iter().all(|x| x.is_finite()), "{v}: {f:?}");
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let cfg = SiftConfig::default();
        let sn = snippet_for(2, 9);
        for v in Version::ALL {
            assert_eq!(extract(v, &sn, &cfg).unwrap(), extract(v, &sn, &cfg).unwrap());
        }
    }

    #[test]
    fn reduced_equals_simplified_tail() {
        let cfg = SiftConfig::default();
        let sn = snippet_for(1, 5);
        let simplified = extract(Version::Simplified, &sn, &cfg).unwrap();
        let reduced = extract(Version::Reduced, &sn, &cfg).unwrap();
        assert_eq!(&simplified[3..], reduced.as_slice());
    }

    #[test]
    fn different_subjects_give_different_features() {
        let cfg = SiftConfig::default();
        let a = extract(Version::Original, &snippet_for(0, 3), &cfg).unwrap();
        let b = extract(Version::Original, &snippet_for(7, 3), &cfg).unwrap();
        let delta: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(delta > 1e-3, "features too close: {a:?} vs {b:?}");
    }

    #[test]
    fn simplified_distances_are_squares_of_original() {
        // Cross-check the two variants: simplified squared distances must
        // equal the square of the original Euclidean ones (averaged, so
        // only approximately — verify on a single-pair snippet instead).
        let cfg = SiftConfig::default();
        let sn = snippet_for(4, 11);
        let orig = extract(Version::Original, &sn, &cfg).unwrap();
        let simp = extract(Version::Simplified, &sn, &cfg).unwrap();
        // Feature 5 (R-to-origin): E[d²] >= (E[d])² by Jensen.
        assert!(simp[5] >= orig[5] * orig[5] - 1e-9);
        assert!(simp[6] >= orig[6] * orig[6] - 1e-9);
    }

    #[test]
    fn display_names() {
        assert_eq!(Version::Original.to_string(), "original");
        assert_eq!(Version::Simplified.to_string(), "simplified");
        assert_eq!(Version::Reduced.to_string(), "reduced");
    }

    #[test]
    fn degenerate_snippet_errors() {
        let cfg = SiftConfig::default();
        let sn = Snippet::new(vec![1.0; 100], vec![2.0; 100], vec![], vec![]).unwrap();
        assert_eq!(
            extract(Version::Original, &sn, &cfg).unwrap_err(),
            SiftError::DegenerateSignal
        );
    }
}
