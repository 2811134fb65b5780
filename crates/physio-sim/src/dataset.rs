//! Dataset assembly helpers: windowing records into the train/test
//! corpora used by the experiments.
//!
//! The paper's protocol (§IV): Δ = 20 minutes of a subject's own data for
//! training, 2 minutes of *unseen* data for testing, both cut into
//! non-overlapping w = 3 s windows.

use crate::record::Record;
use dsp::DspError;

/// Where the windows of a sliding-window cut fall: `len = round(window_s
/// · fs)` samples each, starting every `step = max(round(step_s · fs),
/// 1)` samples from sample 0, as many as fit. The one window law of the
/// workspace: [`windows`] and [`sliding_windows`] cut records by it, and
/// the trainer reads its windows by index with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowGrid {
    len: usize,
    step: usize,
    count: usize,
}

impl WindowGrid {
    /// Lay windows of `window_s` seconds, advanced by `step_s` seconds,
    /// over `samples` samples taken at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `step_s` is not
    /// positive or the window does not fit in `samples`.
    pub fn new(samples: usize, fs: f64, window_s: f64, step_s: f64) -> Result<Self, DspError> {
        if step_s <= 0.0 {
            return Err(DspError::InvalidParameter {
                name: "step_s",
                reason: "step must be positive",
            });
        }
        let len = (window_s * fs).round() as usize;
        let step = ((step_s * fs).round() as usize).max(1);
        if len == 0 || len > samples {
            return Err(DspError::InvalidParameter {
                name: "window_s",
                reason: "window does not fit in the record",
            });
        }
        Ok(WindowGrid {
            len,
            step,
            count: (samples - len) / step + 1,
        })
    }

    /// Samples per window.
    pub fn window_len(&self) -> usize {
        self.len
    }

    /// Windows that fit.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The first sample of window `k`.
    pub fn start(&self, k: usize) -> usize {
        k * self.step
    }

    /// The first sample of each window, in order.
    pub fn starts(self) -> impl Iterator<Item = usize> {
        (0..self.count).map(move |k| self.start(k))
    }
}

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
    sliding_windows(record, window_s, window_s)
}

/// Cut `record` into overlapping windows of `window_s` seconds advanced
/// by `step_s` seconds (the training-time sliding window of the paper),
/// laid by [`WindowGrid`].
///
/// # Errors
///
/// Same conditions as [`WindowGrid::new`].
pub fn sliding_windows(
    record: &Record,
    window_s: f64,
    step_s: f64,
) -> Result<Vec<Record>, DspError> {
    let grid = WindowGrid::new(record.len(), record.fs, window_s, step_s)?;
    Ok(grid
        .starts()
        .map(|start| record.slice(start, start + grid.window_len()))
        .collect())
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
    fn grid_lays_the_sliding_windows() {
        let s = &bank()[2];
        let r = Record::synthesize(s, 10.0, 5);
        let grid = WindowGrid::new(r.len(), r.fs, 3.0, 0.7).unwrap();
        let (len, step) = (grid.window_len(), grid.start(1));
        assert_eq!((len, step), (1080, 252));
        let slid = sliding_windows(&r, 3.0, 0.7).unwrap();
        assert_eq!(slid.len(), grid.count());
        for (w, start) in slid.iter().zip(grid.starts()) {
            assert_eq!(*w, r.slice(start, start + len));
        }
        let last = grid.starts().last().unwrap();
        assert!(last + len <= r.len() && last + step + len > r.len());
    }

    #[test]
    fn sliding_rejects_zero_step() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 10.0, 4);
        assert!(sliding_windows(&r, 3.0, 0.0).is_err());
    }
}
