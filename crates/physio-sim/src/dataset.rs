//! Dataset assembly helpers: windowing records into the train/test
//! corpora used by the experiments.
//!
//! The paper's protocol (§IV): Δ = 20 minutes of a subject's own data for
//! training, 2 minutes of *unseen* data for testing, both cut into
//! non-overlapping w = 3 s windows.

use crate::record::Record;
use dsp::DspError;

/// Cut `record` into non-overlapping windows of `window_s` seconds,
/// dropping any trailing partial window. Peak annotations are re-indexed
/// into each window.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `window_s` is not positive
/// or longer than the record.
pub fn windows(record: &Record, window_s: f64) -> Result<Vec<Record>, DspError> {
    if window_s <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "window_s",
            reason: "window length must be positive",
        });
    }
    let wlen = (window_s * record.fs).round() as usize;
    if wlen == 0 || wlen > record.len() {
        return Err(DspError::InvalidParameter {
            name: "window_s",
            reason: "window does not fit in the record",
        });
    }
    let n = record.len() / wlen;
    Ok((0..n)
        .map(|k| record.slice(k * wlen, (k + 1) * wlen))
        .collect())
}

/// Cut `record` into overlapping windows of `window_s` seconds advanced
/// by `step_s` seconds (the training-time sliding window of the paper).
///
/// # Errors
///
/// Same conditions as [`windows`], plus `step_s` must be positive.
pub fn sliding_windows(
    record: &Record,
    window_s: f64,
    step_s: f64,
) -> Result<Vec<Record>, DspError> {
    if step_s <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "step_s",
            reason: "step must be positive",
        });
    }
    let wlen = (window_s * record.fs).round() as usize;
    let step = ((step_s * record.fs).round() as usize).max(1);
    if wlen == 0 || wlen > record.len() {
        return Err(DspError::InvalidParameter {
            name: "window_s",
            reason: "window does not fit in the record",
        });
    }
    let mut out = Vec::new();
    let mut start = 0;
    while start + wlen <= record.len() {
        out.push(record.slice(start, start + wlen));
        start += step;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::bank;

    #[test]
    fn paper_test_geometry_forty_windows() {
        // 2 minutes cut into 3 s windows = 40 test examples (paper §IV).
        let s = &bank()[0];
        let r = Record::synthesize(s, 120.0, 1);
        let w = windows(&r, 3.0).unwrap();
        assert_eq!(w.len(), 40);
        assert!(w.iter().all(|x| x.len() == 1080));
    }

    #[test]
    fn window_peaks_reindexed() {
        let s = &bank()[1];
        let r = Record::synthesize(s, 30.0, 2);
        for w in windows(&r, 3.0).unwrap() {
            assert!(w.r_peaks.iter().all(|&p| p < w.len()));
            assert!(w.sys_peaks.iter().all(|&p| p < w.len()));
        }
    }

    #[test]
    fn windows_reject_bad_length() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 5.0, 1);
        assert!(windows(&r, 0.0).is_err());
        assert!(windows(&r, 10.0).is_err());
    }

    #[test]
    fn sliding_overlap_produces_more_windows() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 30.0, 3);
        let tiled = windows(&r, 3.0).unwrap().len();
        let slid = sliding_windows(&r, 3.0, 1.0).unwrap().len();
        assert!(slid > 2 * tiled);
    }

    #[test]
    fn sliding_rejects_zero_step() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 10.0, 4);
        assert!(sliding_windows(&r, 3.0, 0.0).is_err());
    }
}
