//! The two-dimensional ECG/ABP *portrait* and its occupancy grid, as
//! a desktop view.
//!
//! Paper §II-A: "w time-units synchronously measured ECG and ABP signals
//! are first transformed into a two-dimensional normalized form called a
//! portrait … a 2-dimensional portrait P is generated through the
//! function f(t) = (a(t), e(t))", where `a` and `e` are the min–max
//! normalized ABP and ECG. Matrix features view the portrait as an
//! `n × n` grid `C` where `c(i, j)` counts the portrait points falling in
//! grid cell `(i, j)`.
//!
//! The detector never builds these: [`crate::features::extract`] reads
//! the same normalization and cells off per-channel axes. A [`Portrait`]
//! materializes the points of those axes and a [`GridMatrix`] counts
//! them, for rendering (`examples/portrait_gallery.rs`) and inspection;
//! neither computes a feature.

use crate::features::{cell, Axis};
use crate::snippet::Snippet;
use crate::SiftError;

/// A point of the portrait in the unit square: `(abp, ecg)`.
pub type PortraitPoint = (f64, f64);

/// An R-peak point paired with its systolic-peak point.
pub type PeakPair = (PortraitPoint, PortraitPoint);

/// A normalized 2-D portrait: the parametric curve `(a(t), e(t))` with
/// both coordinates in `[0, 1]`, plus the portrait-space location of the
/// annotated peaks. A view for rendering and inspection: its points
/// carry the bits the feature path reads, but no feature is computed
/// from it.
///
/// # Examples
///
/// ```
/// use sift::{portrait::Portrait, snippet::Snippet};
///
/// # fn main() -> Result<(), sift::SiftError> {
/// let snippet = Snippet::new(
///     vec![0.0, 1.0, 0.2, 0.1],   // ECG (mV)
///     vec![70.0, 95.0, 120.0, 80.0], // ABP (mmHg)
///     vec![1],                     // R peak index
///     vec![2],                     // systolic peak index
/// )?;
/// let portrait = Portrait::from_snippet(&snippet)?;
/// assert_eq!(portrait.len(), 4);
/// assert_eq!(portrait.paired_points().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Portrait {
    points: Vec<PortraitPoint>,
    r_peak_points: Vec<PortraitPoint>,
    sys_peak_points: Vec<PortraitPoint>,
    paired_points: Vec<PeakPair>,
}

impl Portrait {
    /// Build a portrait from a snippet by min–max normalizing both
    /// channels.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::InvalidSnippet`] for a hand-built snippet
    /// that breaks [`Snippet::new`]'s invariants, and
    /// [`SiftError::DegenerateSignal`] if either channel is constant or
    /// non-finite (a flat-lined or saturated sensor cannot form a
    /// portrait).
    pub fn from_snippet(snippet: &Snippet) -> Result<Self, SiftError> {
        snippet.check()?;
        let a = Axis::new(&snippet.abp)?;
        let e = Axis::new(&snippet.ecg)?;
        let point = |i: usize| (a.at(i), e.at(i));
        let points = |peaks: &[usize]| peaks.iter().map(|&i| point(i)).collect();
        Ok(Self {
            points: (0..snippet.len()).map(point).collect(),
            r_peak_points: points(&snippet.r_peaks),
            sys_peak_points: points(&snippet.sys_peaks),
            paired_points: snippet
                .paired_peaks()
                .into_iter()
                .map(|(r, s)| (point(r), point(s)))
                .collect(),
        })
    }

    /// All portrait points `(a(t), e(t))`, in time order.
    pub fn points(&self) -> &[PortraitPoint] {
        &self.points
    }

    /// Portrait-space locations of the R peaks.
    pub fn r_peak_points(&self) -> &[PortraitPoint] {
        &self.r_peak_points
    }

    /// Portrait-space locations of the systolic peaks.
    pub fn sys_peak_points(&self) -> &[PortraitPoint] {
        &self.sys_peak_points
    }

    /// R-peak/systolic-peak point pairs (same pairing as
    /// [`Snippet::paired_peaks`]).
    pub fn paired_points(&self) -> &[PeakPair] {
        &self.paired_points
    }

    /// Number of points (= snippet length).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the portrait has no points (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The `n × n` occupancy-count matrix `C` over the unit square, with the
/// cell law the feature path bins by. A view: the spatial-filling index
/// and the column features are computed from the channel axes, not
/// from this matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridMatrix {
    n: usize,
    counts: Vec<u32>, // row-major: counts[row * n + col]
    total: u32,
}

impl GridMatrix {
    /// Count `portrait`'s points into an `n × n` grid.
    ///
    /// Points exactly on the upper edges (coordinate = 1.0) fall into the
    /// last cell, so every point is counted exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::InvalidConfig`] if `n < 2`.
    pub fn from_portrait(portrait: &Portrait, n: usize) -> Result<Self, SiftError> {
        if n < 2 {
            return Err(SiftError::InvalidConfig {
                reason: "grid size must be at least 2",
            });
        }
        let mut counts = vec![0u32; n * n];
        for &(x, y) in portrait.points() {
            counts[cell(y, n) * n + cell(x, n)] += 1;
        }
        Ok(Self {
            n,
            counts,
            total: portrait.len() as u32,
        })
    }

    /// Count in cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn count(&self, row: usize, col: usize) -> u32 {
        assert!(row < self.n && col < self.n, "cell out of range");
        self.counts[row * self.n + col]
    }

    /// Total points counted (= portrait length).
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Render the grid as ASCII art (density ramp ` .:+#@`), ECG on the
    /// vertical axis growing upward, ABP on the horizontal. The paper's
    /// Insight #3 laments the absence of "a desktop based simulator" for
    /// debugging; this is the desktop view of what the detector sees.
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:+#@";
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::with_capacity((self.n + 1) * (self.n + 3));
        for row in (0..self.n).rev() {
            for col in 0..self.n {
                let c = self.counts[row * self.n + col];
                let idx = if c == 0 {
                    0
                } else {
                    1 + (c as usize * (RAMP.len() - 2)) / max as usize
                };
                out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snippet::Snippet;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;

    fn sample_portrait() -> Portrait {
        let s = &bank()[0];
        let r = Record::synthesize(s, 30.0, 3);
        let w = &windows(&r, 3.0).unwrap()[1];
        Portrait::from_snippet(&Snippet::from_record(w).unwrap()).unwrap()
    }

    #[test]
    fn portrait_in_unit_square() {
        let p = sample_portrait();
        for &(x, y) in p.points() {
            assert!((0.0..=1.0).contains(&x));
            assert!((0.0..=1.0).contains(&y));
        }
        assert_eq!(p.len(), 1080);
    }

    #[test]
    fn r_peaks_map_to_high_ecg_coordinate() {
        let p = sample_portrait();
        for &(_, y) in p.r_peak_points() {
            // The R spike is the ECG maximum region.
            assert!(y > 0.7, "R peak ecg coord {y}");
        }
    }

    #[test]
    fn sys_peaks_map_to_high_abp_coordinate() {
        let p = sample_portrait();
        for &(x, _) in p.sys_peak_points() {
            assert!(x > 0.7, "systolic abp coord {x}");
        }
    }

    #[test]
    fn constant_channel_is_degenerate() {
        let sn = Snippet::new(vec![0.0; 100], vec![1.0; 100], vec![], vec![]).unwrap();
        assert_eq!(
            Portrait::from_snippet(&sn).unwrap_err(),
            SiftError::DegenerateSignal
        );
    }

    #[test]
    fn grid_conserves_point_count() {
        let p = sample_portrait();
        let g = GridMatrix::from_portrait(&p, 50).unwrap();
        let sum: u32 = (0..50).map(|r| (0..50).map(|c| g.count(r, c)).sum::<u32>()).sum();
        assert_eq!(sum, p.len() as u32);
        assert_eq!(g.total(), p.len() as u32);
        assert_eq!(g.n, 50);
    }

    #[test]
    fn grid_edge_points_counted_once() {
        // A snippet whose normalization endpoints hit exactly 0 and 1.
        let sn = Snippet::new(
            vec![0.0, 1.0, 0.5, 0.25],
            vec![10.0, 20.0, 15.0, 12.5],
            vec![],
            vec![],
        )
        .unwrap();
        let p = Portrait::from_snippet(&sn).unwrap();
        let g = GridMatrix::from_portrait(&p, 4).unwrap();
        assert_eq!(g.total(), 4);
        let sum: u32 = (0..4).map(|r| (0..4).map(|c| g.count(r, c)).sum::<u32>()).sum();
        assert_eq!(sum, 4);
        // The (1,1) point lands in the last cell, not out of bounds.
        assert_eq!(g.count(3, 3), 1);
    }

    #[test]
    fn grid_rejects_tiny_n() {
        let p = sample_portrait();
        assert!(GridMatrix::from_portrait(&p, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "cell out of range")]
    fn count_panics_out_of_range() {
        let p = sample_portrait();
        let g = GridMatrix::from_portrait(&p, 4).unwrap();
        let _ = g.count(4, 0);
    }

    #[test]
    fn different_subjects_produce_different_grids() {
        let b = bank();
        let mk = |idx: usize| {
            let r = Record::synthesize(&b[idx], 30.0, 3);
            let w = &windows(&r, 3.0).unwrap()[1];
            let p = Portrait::from_snippet(&Snippet::from_record(w).unwrap()).unwrap();
            GridMatrix::from_portrait(&p, 50).unwrap()
        };
        assert_ne!(mk(0), mk(6));
    }
}

#[cfg(test)]
mod ascii_tests {
    use super::*;
    use crate::snippet::Snippet;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;

    #[test]
    fn ascii_render_has_grid_geometry() {
        let r = Record::synthesize(&bank()[0], 30.0, 3);
        let sn = Snippet::from_record(&windows(&r, 3.0).unwrap()[0]).unwrap();
        let p = Portrait::from_snippet(&sn).unwrap();
        let g = GridMatrix::from_portrait(&p, 20).unwrap();
        let art = g.to_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 20);
        assert!(lines.iter().all(|l| l.len() == 20));
        // A real portrait has occupied and empty cells.
        assert!(art.contains(' '));
        assert!(art.chars().any(|c| c != ' ' && c != '\n'));
    }

    #[test]
    fn densest_cell_renders_at_ramp_top() {
        // All mass in one cell → that cell is '@'.
        let sn = Snippet::new(
            vec![0.0, 0.001, 0.0005, 1.0],
            vec![0.0, 0.001, 0.0005, 1.0],
            vec![],
            vec![],
        )
        .unwrap();
        let p = Portrait::from_snippet(&sn).unwrap();
        let g = GridMatrix::from_portrait(&p, 4).unwrap();
        assert!(g.to_ascii().contains('@'));
    }
}
