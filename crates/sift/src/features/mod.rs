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
//!
//! [`extract`] is the gold (double-precision) path, shared by the Gold
//! detector and the trainer. It works on per-channel window *axes*: each
//! channel is validated and min–max ranged once, the ABP axis carries
//! each sample's grid column and the two column-average features, and a
//! feature vector pairs it with an ECG axis. The grid's joint counts give
//! the spatial-filling index, and the geometric features read
//! `(x − lo) / span` at the peak indices only. No portrait, probability
//! vector or normalized channel is materialized; [`crate::portrait`] is
//! the desktop view of the same normalization, not a step of this path.

mod axis;
mod geometric;
mod matrix;
#[cfg(test)]
pub(crate) mod oracle;

pub(crate) use axis::{cell, AbpAxis, Axis};
pub(crate) use matrix::JointCounts;

use crate::config::SiftConfig;
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

    /// Position in [`Version::ALL`] (declaration order): the index of
    /// per-version tables and the checkpoint's version tag byte.
    pub fn index(self) -> usize {
        self as usize
    }

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
/// if either channel is constant or non-finite (ABP checked first), and
/// [`SiftError::InvalidConfig`] if the version reads the grid and
/// `config.grid_n` is outside `2..=`[`MAX_GRID_N`](crate::config::MAX_GRID_N).
pub fn extract(
    version: Version,
    snippet: &Snippet,
    config: &SiftConfig,
) -> Result<Vec<f64>, SiftError> {
    snippet.check()?;
    let abp = Axis::new(&snippet.abp)?;
    let ecg = Axis::new(&snippet.ecg)?;
    let abp = AbpAxis::new(abp, version, config.grid_n)?;
    let mut joint = JointCounts::default();
    Ok(abp.features(&ecg, &snippet.r_peaks, &snippet.sys_peaks, &mut joint))
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

/// The gold extractor against its portrait-based oracle: identical
/// `to_bits` features or an equal error, over bank, Turbo and
/// donor-substituted windows and the hand-built edge cases of the
/// normalization and the grid.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use physio_sim::dataset::windows;
    use physio_sim::record::{Record, SynthProfile};
    use physio_sim::subject::bank;

    const GRIDS: [usize; 5] = [2, 3, 50, 97, 300];

    fn bits(r: Result<Vec<f64>, SiftError>) -> Result<Vec<u64>, SiftError> {
        r.map(|f| f.iter().map(|x| x.to_bits()).collect())
    }

    fn assert_matches(sn: &Snippet, grids: &[usize], case: &str) {
        for &n in grids {
            let cfg = SiftConfig {
                grid_n: n,
                ..SiftConfig::default()
            };
            for v in Version::ALL {
                assert_eq!(
                    bits(extract(v, sn, &cfg)),
                    bits(oracle::extract(v, sn, &cfg)),
                    "{case}, {v:?}, grid {n}"
                );
            }
        }
    }

    /// Three 3 s windows per bank subject: Reference, Turbo, and the
    /// wearer's ABP under the next subject's ECG.
    fn bank_windows() -> Vec<Snippet> {
        let b = bank();
        let mut out = Vec::new();
        for i in 0..b.len() {
            let own = Record::synthesize(&b[i], 6.0, 100 + i as u64);
            let turbo =
                Record::synthesize_profiled(&b[i], 6.0, 200 + i as u64, SynthProfile::Turbo);
            let donor = Record::synthesize(&b[(i + 1) % b.len()], 6.0, 300 + i as u64);
            let vw = &windows(&own, 3.0).unwrap()[1];
            let dw = &windows(&donor, 3.0).unwrap()[1];
            out.push(Snippet::from_record(vw).unwrap());
            out.push(Snippet::from_record(&windows(&turbo, 3.0).unwrap()[0]).unwrap());
            out.push(
                Snippet::new(
                    dw.ecg.clone(),
                    vw.abp.clone(),
                    dw.r_peaks.clone(),
                    vw.sys_peaks.clone(),
                )
                .unwrap(),
            );
        }
        out
    }

    #[test]
    fn bank_windows_match_the_oracle() {
        for (k, sn) in bank_windows().iter().enumerate() {
            assert_matches(sn, &[50], &format!("bank window {k}"));
        }
    }

    /// Each window mapped through `f` on both channels.
    fn map(sn: &Snippet, f: impl Fn(f64) -> f64) -> Snippet {
        Snippet {
            ecg: sn.ecg.iter().map(|&x| f(x)).collect(),
            abp: sn.abp.iter().map(|&x| f(x)).collect(),
            ..sn.clone()
        }
    }

    #[test]
    fn rescaled_and_shifted_channels_match_the_oracle() {
        let b = bank_windows();
        for (k, sn) in b.iter().take(6).enumerate() {
            let mid = sn.abp.iter().sum::<f64>() / sn.len() as f64;
            let cases = [
                ("as is", sn.clone()),
                ("abp crossing zero", Snippet {
                    abp: sn.abp.iter().map(|x| x - mid).collect(),
                    ..sn.clone()
                }),
                ("negated", map(sn, |x| -x)),
                ("tiny span", map(sn, |x| 1.0 + x * 1e-13)),
                ("subnormal", map(sn, |x| x * 1e-310)),
                ("huge", map(sn, |x| x * 1e306)),
            ];
            for (name, case) in &cases {
                assert_matches(case, &GRIDS, &format!("window {k}, {name}"));
            }
        }
    }

    #[test]
    fn signed_zero_extremes_match_the_oracle() {
        // Channels whose minimum is zero, the first zero signed unlike
        // the rest, with peaks on those samples so the angle reads the
        // sign. With offset 3 the zeros' lanes of the range scan run
        // opposite to their index order.
        let n = 40;
        for offset in [0, 3] {
            let ramp: Vec<f64> = (0..n).map(|i| ((i * 7 + offset) % 13) as f64).collect();
            let zeros: Vec<usize> = (0..n).filter(|&i| ramp[i] == 0.0).collect();
            for (first, rest) in [(0.0, -0.0), (-0.0, 0.0)] {
                let signed = |shift: f64| -> Vec<f64> {
                    ramp.iter()
                        .enumerate()
                        .map(|(i, &x)| match (x == 0.0, i == zeros[0]) {
                            (true, true) => first,
                            (true, false) => rest,
                            (false, _) => x + shift,
                        })
                        .collect()
                };
                let (abp, ecg) = (signed(0.0), signed(0.5));
                for (r, s) in [(zeros.clone(), zeros.clone()), (vec![0, 3], vec![1, 3])] {
                    let sn = Snippet::new(ecg.clone(), abp.clone(), r, s).unwrap();
                    let case = format!("signed zeros, offset {offset}, first {first:?}");
                    assert_matches(&sn, &GRIDS, &case);
                    assert_matches(&map(&sn, |x| -x), &GRIDS, &format!("negated {case}"));
                }
            }
        }
    }

    #[test]
    fn samples_on_cell_edges_match_the_oracle() {
        // Multiples of 1/12 of the range land exactly on the edges of
        // grids 2, 3 and 4 (and near them for the others).
        let n = 48;
        let abp: Vec<f64> = (0..n).map(|i| (i % 13) as f64 / 12.0).collect();
        let ecg: Vec<f64> = (0..n).map(|i| ((i * 5) % 13) as f64 / 12.0).collect();
        let sn = Snippet::new(ecg, abp, vec![0, 12, 25, 47], vec![6, 12, 30]).unwrap();
        assert_matches(&sn, &[2, 3, 4, 6, 12, 50, 97, 300], "cell edges");
        assert_matches(&map(&sn, |x| x * 120.0 - 60.0), &GRIDS, "scaled cell edges");
    }

    #[test]
    fn degenerate_and_invalid_snippets_match_the_oracle() {
        let sn = &bank_windows()[0];
        let mut cases: Vec<(String, Snippet)> = Vec::new();
        for channel in ["ecg", "abp", "both"] {
            for (name, value) in [
                ("nan", f64::NAN),
                ("+inf", f64::INFINITY),
                ("-inf", f64::NEG_INFINITY),
            ] {
                for at in [0, sn.r_peaks[0], sn.len() - 1] {
                    let mut bad = sn.clone();
                    if channel != "abp" {
                        bad.ecg[at] = value;
                    }
                    if channel != "ecg" {
                        bad.abp[at] = value;
                    }
                    cases.push((format!("{name} in {channel} at {at}"), bad));
                }
            }
            let mut flat = sn.clone();
            if channel != "abp" {
                flat.ecg = vec![0.7; sn.len()];
            }
            if channel != "ecg" {
                flat.abp = vec![-0.0; sn.len()];
            }
            cases.push((format!("constant {channel}"), flat));
        }
        cases.push(("one sample".into(), Snippet::new(vec![1.0], vec![2.0], vec![0], vec![0]).unwrap()));
        let mut past = sn.clone();
        past.sys_peaks.push(sn.len());
        cases.push(("peak past the end".into(), past));
        let mut short = sn.clone();
        short.abp.pop();
        cases.push(("unequal channels".into(), short));
        let mut unsorted = sn.clone();
        unsorted.r_peaks.reverse();
        cases.push(("unsorted peaks".into(), unsorted));
        for (name, case) in &cases {
            assert_matches(case, &[0, 1, 2, 50], name);
        }
    }

    #[test]
    fn peakless_and_unpaired_windows_match_the_oracle() {
        let sn = &bank_windows()[4];
        let mut none = sn.clone();
        none.r_peaks.clear();
        none.sys_peaks.clear();
        let mut unpaired = sn.clone();
        unpaired.sys_peaks.retain(|&s| s < sn.r_peaks[0]);
        let mut ends = sn.clone();
        ends.r_peaks = vec![0, sn.len() - 1];
        ends.sys_peaks = vec![0, sn.len() - 1];
        for (name, case) in [("no peaks", none), ("unpaired", unpaired), ("end peaks", ends)] {
            assert_matches(&case, &GRIDS, name);
        }
    }
}
