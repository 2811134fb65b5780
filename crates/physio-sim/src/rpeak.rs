//! R-peak detection (Pan–Tompkins-style).
//!
//! The paper pre-stores peak indexes alongside the signals on the Amulet
//! "for ease of testing" and notes that live peak detection "is a simple
//! extension". This module is that extension: a streaming-friendly
//! detector with the classic band-pass → derivative → squaring →
//! moving-window-integration front end and an adaptive threshold with a
//! refractory period, followed by refinement to the raw-signal maximum.

use dsp::filter::{Biquad, Derivative, MovingAverage};
use dsp::DspError;

/// Configuration of the R-peak detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RPeakConfig {
    /// Band-pass center frequency (Hz) isolating QRS energy.
    pub band_center_hz: f64,
    /// Band-pass quality factor.
    pub band_q: f64,
    /// Moving-window-integration length in seconds.
    pub mwi_window_s: f64,
    /// Refractory period in seconds (no two peaks closer than this).
    pub refractory_s: f64,
    /// Threshold as a fraction of the running signal peak estimate.
    pub threshold_frac: f64,
    /// Half-width (seconds) of the raw-signal refinement search.
    pub refine_radius_s: f64,
}

impl Default for RPeakConfig {
    fn default() -> Self {
        Self {
            band_center_hz: 11.0,
            band_q: 0.9,
            mwi_window_s: 0.12,
            refractory_s: 0.25,
            threshold_frac: 0.35,
            refine_radius_s: 0.05,
        }
    }
}

/// Detect R peaks in `ecg` sampled at `fs` Hz.
///
/// Returns ascending sample indices of detected R peaks.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] on an empty signal and propagates
/// [`DspError::InvalidParameter`] for non-positive `fs` or degenerate
/// configuration.
pub fn detect(ecg: &[f64], fs: f64, config: &RPeakConfig) -> Result<Vec<usize>, DspError> {
    if ecg.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if fs <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "fs",
            reason: "sample rate must be positive",
        });
    }

    // Front end: band-pass, derivative, squaring, moving-window integral.
    let mut bp = Biquad::band_pass(fs, config.band_center_hz, config.band_q)?;
    let mut deriv = Derivative::new();
    let mwi_len = ((config.mwi_window_s * fs).round() as usize).max(1);
    let mut mwi = MovingAverage::new(mwi_len)?;
    let feature: Vec<f64> = ecg
        .iter()
        .map(|&x| {
            let f = bp.step(x);
            let d = deriv.step(f);
            mwi.step(d * d)
        })
        .collect();

    // Adaptive threshold: track a decaying running peak of the feature.
    let refractory = (config.refractory_s * fs).round() as usize;
    let decay = 0.999f64;
    let mut running_peak: f64 = feature
        .iter()
        .take((2.0 * fs) as usize)
        .cloned()
        .fold(0.0, f64::max);
    if running_peak <= 0.0 {
        running_peak = f64::EPSILON;
    }
    let mut peaks = Vec::new();
    let mut last_peak: Option<usize> = None;
    let mut i = 1;
    while i + 1 < feature.len() {
        running_peak = (running_peak * decay).max(feature[i]);
        let threshold = config.threshold_frac * running_peak;
        let is_local_max = feature[i] >= feature[i - 1] && feature[i] >= feature[i + 1];
        let clear_of_refractory = last_peak.is_none_or(|lp| i - lp >= refractory);
        if is_local_max && feature[i] > threshold && clear_of_refractory {
            peaks.push(i);
            last_peak = Some(i);
            i += refractory / 2;
        }
        i += 1;
    }

    // Refine: MWI delays the peak, so search the raw ECG around each
    // candidate for the true maximum.
    let radius = (config.refine_radius_s * fs).round() as usize + mwi_len / 2;
    let mut refined: Vec<usize> = peaks
        .iter()
        .map(|&p| {
            let lo = p.saturating_sub(radius);
            let hi = (p + radius / 2).min(ecg.len() - 1);
            let mut best = lo;
            for j in lo..=hi {
                if ecg[j] > ecg[best] {
                    best = j;
                }
            }
            best
        })
        .collect();
    refined.dedup();
    // Deduplicate refinements that collapsed within the refractory span.
    let mut out: Vec<usize> = Vec::with_capacity(refined.len());
    for p in refined {
        if out.last().is_none_or(|&q| p > q + refractory / 2) {
            out.push(p);
        }
    }
    Ok(out)
}

/// Detection-quality summary comparing detected peaks against a
/// ground-truth annotation, with a tolerance window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakScore {
    /// Ground-truth peaks matched by a detection within tolerance.
    pub true_positives: usize,
    /// Detections with no matching ground-truth peak.
    pub false_positives: usize,
    /// Ground-truth peaks with no matching detection.
    pub false_negatives: usize,
}

impl PeakScore {
    /// Sensitivity (recall): TP / (TP + FN). `None` when undefined.
    // lint:allow(cg-unreached, reference oracle: scores the R-peak and systolic-peak detectors in their tests)
    pub fn sensitivity(&self) -> Option<f64> {
        let denom = self.true_positives + self.false_negatives;
        (denom > 0).then(|| self.true_positives as f64 / denom as f64)
    }

    /// Positive predictive value: TP / (TP + FP). `None` when undefined.
    // lint:allow(cg-unreached, reference oracle: scores the R-peak and systolic-peak detectors in their tests)
    pub fn ppv(&self) -> Option<f64> {
        let denom = self.true_positives + self.false_positives;
        (denom > 0).then(|| self.true_positives as f64 / denom as f64)
    }
}

/// Score `detected` against `truth` with `tolerance` samples of slack.
/// Both inputs must be ascending.
pub fn score(detected: &[usize], truth: &[usize], tolerance: usize) -> PeakScore {
    let mut tp = 0;
    let mut used = vec![false; detected.len()];
    for &t in truth {
        let hit = detected.iter().enumerate().find(|&(i, &d)| {
            !used[i] && d.abs_diff(t) <= tolerance
        });
        if let Some((i, _)) = hit {
            used[i] = true;
            tp += 1;
        }
    }
    PeakScore {
        true_positives: tp,
        false_positives: detected.len() - tp,
        false_negatives: truth.len() - tp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::subject::bank;

    #[test]
    fn detects_clean_synthetic_peaks() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 30.0, 77);
        let detected = detect(&r.ecg, r.fs, &RPeakConfig::default()).unwrap();
        let sc = score(&detected, &r.r_peaks, (0.05 * r.fs) as usize);
        assert!(
            sc.sensitivity().unwrap() > 0.95,
            "sensitivity {:?}",
            sc
        );
        assert!(sc.ppv().unwrap() > 0.95, "ppv {:?}", sc);
    }

    #[test]
    fn works_across_all_subjects() {
        for s in bank() {
            let r = Record::synthesize(&s, 20.0, 5);
            let detected = detect(&r.ecg, r.fs, &RPeakConfig::default()).unwrap();
            let sc = score(&detected, &r.r_peaks, (0.05 * r.fs) as usize);
            assert!(
                sc.sensitivity().unwrap() > 0.9,
                "subject {} score {:?}",
                s.name,
                sc
            );
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            detect(&[], 360.0, &RPeakConfig::default()),
            Err(DspError::EmptyInput)
        );
    }

    #[test]
    fn bad_fs_rejected() {
        assert!(detect(&[0.0; 10], 0.0, &RPeakConfig::default()).is_err());
    }

    #[test]
    fn flat_signal_yields_no_peaks() {
        let detected = detect(&[0.0; 3600], 360.0, &RPeakConfig::default()).unwrap();
        assert!(detected.is_empty(), "found {detected:?}");
    }

    #[test]
    fn refractory_prevents_double_detection() {
        let s = &bank()[4];
        let r = Record::synthesize(s, 30.0, 13);
        let detected = detect(&r.ecg, r.fs, &RPeakConfig::default()).unwrap();
        let min_gap = (0.25 * r.fs * 0.5) as usize;
        assert!(detected.windows(2).all(|w| w[1] - w[0] >= min_gap));
    }

    #[test]
    fn score_counts_correctly() {
        let truth = [100, 200, 300];
        let detected = [102, 305, 400];
        let sc = score(&detected, &truth, 5);
        assert_eq!(sc.true_positives, 2);
        assert_eq!(sc.false_positives, 1);
        assert_eq!(sc.false_negatives, 1);
    }

    #[test]
    fn score_empty_cases() {
        let sc = score(&[], &[], 5);
        assert_eq!(sc.sensitivity(), None);
        assert_eq!(sc.ppv(), None);
    }
}
