//! Experiment configuration.

use crate::SiftError;

/// The largest occupancy grid `n` either extractor accepts: an axis
/// with one cell per code of the 12-bit ADC, whose `n² = 2²⁴` joint
/// counts (64 MiB of `u32`) are the most a grid version allocates.
/// Every cell of such a grid, and so every entry of the Amulet path's
/// code→cell table, fits a `u16`.
pub const MAX_GRID_N: usize = 4096;

/// All tunable parameters of the SIFT pipeline, defaulted to the paper's
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct SiftConfig {
    /// Sample rate in Hz. The paper stores 3-second snippets in
    /// 1080-element arrays, i.e. 360 Hz.
    pub fs: f64,
    /// Detection window `w` in seconds (paper: 3 s).
    pub window_s: f64,
    /// Occupancy-grid size `n` (paper: n = 50), from 2 to
    /// [`MAX_GRID_N`]: a grid version counts `n²` cells, and the Amulet
    /// path bins through one cell per ADC code.
    pub grid_n: usize,
    /// Training duration Δ in seconds (paper: 20 minutes).
    pub train_s: f64,
    /// Step of the training-time sliding window, in seconds. The paper
    /// slides a window of size `w` over the training data; a step of
    /// `w / 2` gives 50 % overlap, balancing sample count against
    /// redundancy.
    pub train_step_s: f64,
    /// SVM soft-margin cost.
    pub svm_c: f64,
    /// Cap on positive-class windows drawn **per donor** so a 11-donor
    /// positive class does not overwhelm training time; `None` keeps all.
    pub max_positive_per_donor: Option<usize>,
    /// Base RNG seed for everything derived from this configuration.
    pub seed: u64,
}

impl Default for SiftConfig {
    fn default() -> Self {
        Self {
            fs: physio_sim::SAMPLE_RATE_HZ,
            window_s: 3.0,
            grid_n: 50,
            train_s: 20.0 * 60.0,
            train_step_s: 1.5,
            svm_c: 1.0,
            max_positive_per_donor: Some(80),
            seed: 0x51F7_0001,
        }
    }
}

impl SiftConfig {
    /// Samples per detection window (`w · fs`); 1080 with the defaults,
    /// matching the paper's array size exactly.
    pub fn window_samples(&self) -> usize {
        (self.window_s * self.fs).round() as usize
    }

    /// Validate parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SiftError> {
        if self.fs <= 0.0 {
            return Err(SiftError::InvalidConfig {
                reason: "sample rate must be positive",
            });
        }
        if self.window_s <= 0.0 {
            return Err(SiftError::InvalidConfig {
                reason: "window length must be positive",
            });
        }
        check_grid(self.grid_n)?;
        if self.train_s < self.window_s {
            return Err(SiftError::InvalidConfig {
                reason: "training duration must cover at least one window",
            });
        }
        if self.train_step_s <= 0.0 {
            return Err(SiftError::InvalidConfig {
                reason: "training window step must be positive",
            });
        }
        if self.svm_c <= 0.0 {
            return Err(SiftError::InvalidConfig {
                reason: "svm cost must be positive",
            });
        }
        Ok(())
    }
}

/// Check that an `n × n` occupancy grid is one the extractors can count:
/// `2 ≤ n ≤` [`MAX_GRID_N`]. Called before anything is sized by `n`.
///
/// # Errors
///
/// [`SiftError::InvalidConfig`] naming the violated bound.
pub(crate) fn check_grid(n: usize) -> Result<(), SiftError> {
    if n < 2 {
        return Err(SiftError::InvalidConfig {
            reason: "grid size must be at least 2",
        });
    }
    if n > MAX_GRID_N {
        return Err(SiftError::InvalidConfig {
            reason: "grid size must be at most 4096",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SiftConfig::default();
        assert_eq!(c.window_samples(), 1080); // the paper's array size
        assert_eq!(c.grid_n, 50);
        assert_eq!(c.train_s, 1200.0);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_each_violation() {
        let base = SiftConfig::default();
        let cases: Vec<SiftConfig> = vec![
            SiftConfig { fs: 0.0, ..base.clone() },
            SiftConfig { window_s: 0.0, ..base.clone() },
            SiftConfig { grid_n: 1, ..base.clone() },
            SiftConfig { grid_n: MAX_GRID_N + 1, ..base.clone() },
            SiftConfig { train_s: 1.0, ..base.clone() },
            SiftConfig { train_step_s: 0.0, ..base.clone() },
            SiftConfig { svm_c: 0.0, ..base.clone() },
        ];
        for c in cases {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }

    #[test]
    fn grid_bounds_are_named() {
        assert_eq!(check_grid(2), Ok(()));
        assert_eq!(check_grid(MAX_GRID_N), Ok(()));
        let Err(SiftError::InvalidConfig { reason }) = check_grid(MAX_GRID_N + 1) else {
            panic!("grid {} accepted", MAX_GRID_N + 1);
        };
        assert!(reason.ends_with(&MAX_GRID_N.to_string()), "{reason}");
    }
}
