//! Detection-window snippets.
//!
//! A [`Snippet`] is one `w`-second window of synchronously measured ECG
//! and ABP together with the R-peak and systolic-peak indices inside it —
//! exactly what the paper's *PeaksDataCheck* state fetches from memory
//! every 3 seconds.

use crate::SiftError;
use physio_sim::record::Record;

/// One detection window of paired signals plus peak annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Snippet {
    /// ECG samples (millivolts).
    pub ecg: Vec<f64>,
    /// ABP samples (mmHg), same length as `ecg`.
    pub abp: Vec<f64>,
    /// R-peak indices into `ecg`, ascending.
    pub r_peaks: Vec<usize>,
    /// Systolic-peak indices into `abp`, ascending.
    pub sys_peaks: Vec<usize>,
}

impl Snippet {
    /// Build a snippet from raw parts, validating the invariants the
    /// feature extractors rely on.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::InvalidSnippet`] when channels are empty or
    /// unequal in length, or peak indices are out of range / unsorted.
    pub fn new(
        ecg: Vec<f64>,
        abp: Vec<f64>,
        r_peaks: Vec<usize>,
        sys_peaks: Vec<usize>,
    ) -> Result<Self, SiftError> {
        let snippet = Self {
            ecg,
            abp,
            r_peaks,
            sys_peaks,
        };
        snippet.check()?;
        Ok(snippet)
    }

    /// The invariants [`Snippet::new`] enforces. The fields are public,
    /// so every feature extractor re-checks them: a hand-built snippet
    /// gets a typed error instead of an index panic or a silent
    /// truncation to the shorter channel.
    pub(crate) fn check(&self) -> Result<(), SiftError> {
        if self.ecg.is_empty() {
            return Err(SiftError::InvalidSnippet {
                reason: "channels are empty",
            });
        }
        if self.ecg.len() != self.abp.len() {
            return Err(SiftError::InvalidSnippet {
                reason: "ecg and abp lengths differ",
            });
        }
        check_peaks(&self.r_peaks, &self.sys_peaks, self.ecg.len())
    }

    /// Build from a (windowed) [`Record`], trusting its ground-truth peak
    /// annotations — the paper's "pre-stored peak indexes" path.
    ///
    /// # Errors
    ///
    /// Same validation as [`Snippet::new`].
    pub fn from_record(window: &Record) -> Result<Self, SiftError> {
        Self::new(
            window.ecg.clone(),
            window.abp.clone(),
            window.r_peaks.clone(),
            window.sys_peaks.clone(),
        )
    }

    /// Number of samples per channel.
    pub fn len(&self) -> usize {
        self.ecg.len()
    }

    /// Whether the snippet has no samples (never true for a validated
    /// snippet).
    pub fn is_empty(&self) -> bool {
        self.ecg.is_empty()
    }

    /// Pair each R peak with the first systolic peak at or after it (the
    /// pressure pulse launched by that contraction). R peaks with no
    /// following systolic peak in the window are unpaired.
    pub fn paired_peaks(&self) -> Vec<(usize, usize)> {
        pair_peaks(&self.r_peaks, &self.sys_peaks).collect()
    }
}

/// The peak invariants of [`Snippet::new`] for a window of `len`
/// samples: each list strictly ascending and below `len`.
pub(crate) fn check_peaks(
    r_peaks: &[usize],
    sys_peaks: &[usize],
    len: usize,
) -> Result<(), SiftError> {
    let sorted_in_range =
        |peaks: &[usize]| peaks.windows(2).all(|w| w[0] < w[1]) && peaks.iter().all(|&p| p < len);
    if !sorted_in_range(r_peaks) {
        return Err(SiftError::InvalidSnippet {
            reason: "r peaks unsorted or out of range",
        });
    }
    if !sorted_in_range(sys_peaks) {
        return Err(SiftError::InvalidSnippet {
            reason: "systolic peaks unsorted or out of range",
        });
    }
    Ok(())
}

/// The pairing of [`Snippet::paired_peaks`] over ascending peak lists,
/// lazily: each R peak takes the first systolic peak at or after it
/// that no earlier R peak took.
pub(crate) fn pair_peaks<'p>(
    r_peaks: &'p [usize],
    sys_peaks: &'p [usize],
) -> impl Iterator<Item = (usize, usize)> + 'p {
    let mut sys = sys_peaks.iter().copied().peekable();
    r_peaks.iter().filter_map(move |&r| {
        while sys.next_if(|&s| s < r).is_some() {}
        sys.next().map(|s| (r, s))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;

    fn sample_snippet() -> Snippet {
        let s = &bank()[0];
        let r = Record::synthesize(s, 30.0, 3);
        let w = &windows(&r, 3.0).unwrap()[2];
        Snippet::from_record(w).unwrap()
    }

    #[test]
    fn from_record_carries_annotations() {
        let sn = sample_snippet();
        assert_eq!(sn.len(), 1080);
        assert!(!sn.r_peaks.is_empty());
        assert!(!sn.sys_peaks.is_empty());
    }

    #[test]
    fn validation_rejects_mismatched_channels() {
        assert!(matches!(
            Snippet::new(vec![1.0; 10], vec![1.0; 9], vec![], vec![]),
            Err(SiftError::InvalidSnippet { .. })
        ));
    }

    #[test]
    fn validation_rejects_empty() {
        assert!(Snippet::new(vec![], vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn validation_rejects_bad_peaks() {
        assert!(Snippet::new(vec![0.0; 10], vec![0.0; 10], vec![10], vec![]).is_err());
        assert!(Snippet::new(vec![0.0; 10], vec![0.0; 10], vec![5, 5], vec![]).is_err());
        assert!(Snippet::new(vec![0.0; 10], vec![0.0; 10], vec![], vec![3, 2]).is_err());
    }

    /// Every extractor's answer for a hand-built snippet, all versions.
    fn extractor_errors(sn: &Snippet) -> Vec<SiftError> {
        let cfg = crate::config::SiftConfig::default();
        let mut out = vec![crate::flavor::extract_reduced_q16(sn).unwrap_err()];
        for v in crate::features::Version::ALL {
            out.push(crate::features::extract(v, sn, &cfg).unwrap_err());
            out.push(crate::flavor::extract_amulet_f32(v, sn, &cfg).unwrap_err());
        }
        out
    }

    #[test]
    fn hand_built_peak_past_the_window_is_a_typed_error() {
        let mut r_past = sample_snippet();
        r_past.r_peaks.push(r_past.len());
        let mut sys_past = sample_snippet();
        sys_past.sys_peaks.push(sys_past.len() + 4000);
        for sn in [r_past, sys_past] {
            for e in extractor_errors(&sn) {
                assert!(matches!(e, SiftError::InvalidSnippet { .. }), "{e:?}");
            }
        }
    }

    #[test]
    fn hand_built_unequal_channels_are_a_typed_error() {
        let mut short_abp = sample_snippet();
        short_abp.abp.truncate(1000);
        let mut short_ecg = sample_snippet();
        short_ecg.ecg.truncate(1000);
        for sn in [short_abp, short_ecg] {
            for e in extractor_errors(&sn) {
                assert_eq!(
                    e,
                    SiftError::InvalidSnippet {
                        reason: "ecg and abp lengths differ"
                    }
                );
            }
        }
    }

    #[test]
    fn pairing_is_causal_and_monotone() {
        let sn = sample_snippet();
        let pairs = sn.paired_peaks();
        assert!(!pairs.is_empty());
        for (r, s) in &pairs {
            assert!(s >= r, "systolic {s} before r {r}");
        }
        // No systolic peak is used twice.
        let mut sys_used: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        sys_used.dedup();
        assert_eq!(sys_used.len(), pairs.len());
    }

    #[test]
    fn pairing_handles_empty_peaks() {
        let sn = Snippet::new(vec![0.0; 10], vec![0.0; 10], vec![], vec![]).unwrap();
        assert!(sn.paired_peaks().is_empty());
    }
}
