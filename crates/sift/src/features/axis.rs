//! Per-channel window axes: the one gold feature path.
//!
//! Every portrait coordinate is min–max normalized *per channel*, so a
//! portrait is a pair of independent axes: the ABP window along the
//! columns and the ECG window along the rows. An [`Axis`] is one
//! channel's window, validated and ranged once; an [`AbpAxis`] adds,
//! for the grid versions, each sample's column and the two
//! column-average features, which depend on the column histogram alone.
//! Pairing an ABP axis with an ECG axis then yields a feature vector
//! without materializing the portrait, the grid's probabilities or the
//! normalized channels, so the trainer can build a wearer's ABP axis
//! once and pair it with the wearer's own ECG and every donor's.

use super::matrix::{self, JointCounts};
use super::{geometric, Version};
use crate::SiftError;

/// One channel's window, validated and min–max ranged once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Axis<'a> {
    samples: &'a [f64],
    lo: f64,
    span: f64,
}

impl<'a> Axis<'a> {
    /// Range `samples`.
    ///
    /// # Errors
    ///
    /// [`SiftError::DegenerateSignal`] if the window is constant or not
    /// finite (a flat-lined or saturated sensor cannot form a
    /// portrait).
    pub(crate) fn new(samples: &'a [f64]) -> Result<Self, SiftError> {
        let (lo, span) = dsp::normalize::range(samples)?;
        Ok(Self { samples, lo, span })
    }

    /// Samples in the window.
    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// Sample `i`'s portrait coordinate `(x − lo) / span`, in `[0, 1]`.
    pub(crate) fn at(&self, i: usize) -> f64 {
        (self.samples[i] - self.lo) / self.span
    }

    /// Each sample's [`cell`] on an axis of `n ≥ 2` cells.
    pub(crate) fn cells(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        let (lo, span) = (self.lo, self.span);
        self.samples.iter().map(move |&x| cell((x - lo) / span, n))
    }
}

/// The cell of portrait coordinate `x` on an axis of `n ≥ 2` cells:
/// `x · n`, truncated, with the upper edge (`1.0`) in the last cell so
/// every sample is counted once. `x · n` lies in `[0, n]` (or is NaN,
/// which casts to 0), so the cast through `u32`, cheaper than a
/// saturating cast to `usize`, truncates alike for every grid whose
/// `n²` counts fit in memory.
pub(crate) fn cell(x: f64, n: usize) -> usize {
    ((x * n as f64) as u32 as usize).min(n - 1)
}

/// The ABP window as the portrait's column axis for one version.
#[derive(Debug)]
pub(crate) struct AbpAxis<'a> {
    axis: Axis<'a>,
    version: Version,
    /// The grid versions' columns; `None` for [`Version::Reduced`].
    grid: Option<Columns>,
}

/// Each sample's column on an `n × n` grid and the two column-average
/// features of the version.
#[derive(Debug)]
struct Columns {
    n: usize,
    /// A grid with more than `u32::MAX` columns could not hold its
    /// `n²` counts, so a column always fits.
    cells: Vec<u32>,
    features: [f64; 2],
}

impl<'a> AbpAxis<'a> {
    /// `axis` as the columns of `version`'s portrait on an `n × n` grid.
    ///
    /// # Errors
    ///
    /// [`SiftError::InvalidConfig`] if `version` reads the grid and
    /// `n < 2`.
    pub(crate) fn new(axis: Axis<'a>, version: Version, n: usize) -> Result<Self, SiftError> {
        let grid = match version {
            Version::Reduced => None,
            Version::Original | Version::Simplified => {
                if n < 2 {
                    return Err(SiftError::InvalidConfig {
                        reason: "grid size must be at least 2",
                    });
                }
                let cells: Vec<u32> = axis.cells(n).map(|c| c as u32).collect();
                let features = matrix::column_features(version, &cells, n)?;
                Some(Columns { n, cells, features })
            }
        };
        Ok(Self {
            axis,
            version,
            grid,
        })
    }

    /// The feature vector of the portrait that pairs these columns
    /// with `ecg`'s rows, R peaks at `r_peaks` and systolic peaks at
    /// `sys_peaks` (both validated against the window), counting the
    /// grid in `joint`.
    pub(crate) fn features(
        &self,
        ecg: &Axis,
        r_peaks: &[usize],
        sys_peaks: &[usize],
        joint: &mut JointCounts,
    ) -> Vec<f64> {
        debug_assert_eq!(self.axis.len(), ecg.len());
        let point = |i: usize| (self.axis.at(i), ecg.at(i));
        let geometric = geometric::features(self.version, point, r_peaks, sys_peaks);
        match &self.grid {
            None => geometric.to_vec(),
            Some(g) => {
                let mut v = Vec::with_capacity(8);
                v.push(matrix::spatial_filling_index(&g.cells, ecg.cells(g.n), g.n, joint));
                v.extend_from_slice(&g.features);
                v.extend_from_slice(&geometric);
                v
            }
        }
    }
}
