//! The gold feature path as it stood before it was rebuilt on channel
//! axes: a materialized portrait of normalized points, its occupancy
//! grid, the probability vector and column averages, and geometric
//! features read off the portrait's peak points. Kept verbatim (with
//! the `dsp` normalization and the snippet's peak pairing inlined) as
//! the oracle the axis path must match bit for bit.

use crate::config::SiftConfig;
use crate::features::Version;
use crate::snippet::Snippet;
use crate::SiftError;

type PortraitPoint = (f64, f64);
type PeakPair = (PortraitPoint, PortraitPoint);

struct Portrait {
    points: Vec<PortraitPoint>,
    r_peak_points: Vec<PortraitPoint>,
    sys_peak_points: Vec<PortraitPoint>,
    paired_points: Vec<PeakPair>,
}

fn min_max(samples: &[f64]) -> Result<Vec<f64>, dsp::DspError> {
    let (lo, hi) = dsp::stats::min_max(samples)?;
    if !lo.is_finite() || !hi.is_finite() {
        return Err(dsp::DspError::NonFiniteInput);
    }
    if hi == lo {
        return Err(dsp::DspError::ConstantSignal);
    }
    let span = hi - lo;
    Ok(samples.iter().map(|x| (x - lo) / span).collect())
}

fn paired_peaks(snippet: &Snippet) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut sys_iter = snippet.sys_peaks.iter().copied().peekable();
    for &r in &snippet.r_peaks {
        while let Some(&s) = sys_iter.peek() {
            if s < r {
                sys_iter.next();
            } else {
                break;
            }
        }
        if let Some(&s) = sys_iter.peek() {
            out.push((r, s));
            sys_iter.next();
        }
    }
    out
}

impl Portrait {
    fn from_snippet(snippet: &Snippet) -> Result<Self, SiftError> {
        snippet.check()?;
        let a = min_max(&snippet.abp)?;
        let e = min_max(&snippet.ecg)?;
        let points: Vec<(f64, f64)> = a.iter().copied().zip(e.iter().copied()).collect();
        let r_peak_points = snippet
            .r_peaks
            .iter()
            .map(|&i| points[i])
            .collect();
        let sys_peak_points = snippet
            .sys_peaks
            .iter()
            .map(|&i| points[i])
            .collect();
        let paired_points = paired_peaks(snippet)
            .into_iter()
            .map(|(r, s)| (points[r], points[s]))
            .collect();
        Ok(Self {
            points,
            r_peak_points,
            sys_peak_points,
            paired_points,
        })
    }
}

struct GridMatrix {
    n: usize,
    counts: Vec<u32>, // row-major: counts[row * n + col]
    total: u32,
}

impl GridMatrix {
    fn from_portrait(portrait: &Portrait, n: usize) -> Result<Self, SiftError> {
        if n < 2 {
            return Err(SiftError::InvalidConfig {
                reason: "grid size must be at least 2",
            });
        }
        let mut counts = vec![0u32; n * n];
        for &(x, y) in &portrait.points {
            let col = ((x * n as f64) as usize).min(n - 1);
            let row = ((y * n as f64) as usize).min(n - 1);
            counts[row * n + col] += 1;
        }
        Ok(Self {
            n,
            counts,
            total: portrait.points.len() as u32,
        })
    }

    fn column_averages(&self) -> Vec<f64> {
        (0..self.n)
            .map(|col| {
                let sum: u32 = (0..self.n).map(|row| self.counts[row * self.n + col]).sum();
                sum as f64 / self.n as f64
            })
            .collect()
    }

    fn probabilities(&self) -> Vec<f64> {
        let t = self.total.max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / t).collect()
    }
}

fn spatial_filling_index(grid: &GridMatrix) -> f64 {
    grid.probabilities().iter().map(|p| p * p).sum()
}

fn column_average_std(cols: &[f64]) -> Result<f64, SiftError> {
    Ok(dsp::stats::std_dev(cols)?)
}

fn column_average_variance(cols: &[f64]) -> Result<f64, SiftError> {
    Ok(dsp::stats::variance(cols)?)
}

fn column_average_auc_trapezoid(cols: &[f64]) -> Result<f64, SiftError> {
    Ok(dsp::integrate::trapezoid(cols, 1.0)?)
}

fn column_average_auc_simplified(cols: &[f64]) -> Result<f64, SiftError> {
    Ok(dsp::integrate::simplified_trapezoid(
        cols,
        0.0,
        (cols.len() - 1) as f64,
    )?)
}

const SLOPE_EPS: f64 = 1e-6;

fn original(portrait: &Portrait) -> [f64; 5] {
    let angle = |pts: &[(f64, f64)]| mean(pts.iter().map(|&(x, y)| f64::atan2(y, x)));
    let dist = |pts: &[(f64, f64)]| mean(pts.iter().map(|&(x, y)| (x * x + y * y).sqrt()));
    let pair_dist = mean(portrait.paired_points.iter().map(|&((xr, yr), (xs, ys))| {
        ((xr - xs) * (xr - xs) + (yr - ys) * (yr - ys)).sqrt()
    }));
    [
        angle(&portrait.r_peak_points),
        angle(&portrait.sys_peak_points),
        dist(&portrait.r_peak_points),
        dist(&portrait.sys_peak_points),
        pair_dist,
    ]
}

fn simplified(portrait: &Portrait) -> [f64; 5] {
    let slope = |pts: &[(f64, f64)]| mean(pts.iter().map(|&(x, y)| y / x.max(SLOPE_EPS)));
    let sqdist = |pts: &[(f64, f64)]| mean(pts.iter().map(|&(x, y)| x * x + y * y));
    let pair_sqdist = mean(portrait.paired_points.iter().map(|&((xr, yr), (xs, ys))| {
        (xr - xs) * (xr - xs) + (yr - ys) * (yr - ys)
    }));
    [
        slope(&portrait.r_peak_points),
        slope(&portrait.sys_peak_points),
        sqdist(&portrait.r_peak_points),
        sqdist(&portrait.sys_peak_points),
        pair_sqdist,
    ]
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The portrait-based gold extractor.
pub(crate) fn extract(
    version: Version,
    snippet: &Snippet,
    config: &SiftConfig,
) -> Result<Vec<f64>, SiftError> {
    let portrait = Portrait::from_snippet(snippet)?;
    match version {
        Version::Original => {
            let grid = GridMatrix::from_portrait(&portrait, config.grid_n)?;
            let cols = grid.column_averages();
            let mut v = Vec::with_capacity(8);
            v.push(spatial_filling_index(&grid));
            v.push(column_average_std(&cols)?);
            v.push(column_average_auc_trapezoid(&cols)?);
            v.extend_from_slice(&original(&portrait));
            Ok(v)
        }
        Version::Simplified => {
            let grid = GridMatrix::from_portrait(&portrait, config.grid_n)?;
            let cols = grid.column_averages();
            let mut v = Vec::with_capacity(8);
            v.push(spatial_filling_index(&grid));
            v.push(column_average_variance(&cols)?);
            v.push(column_average_auc_simplified(&cols)?);
            v.extend_from_slice(&simplified(&portrait));
            Ok(v)
        }
        Version::Reduced => Ok(simplified(&portrait).to_vec()),
    }
}

/// The trainer's filter: windows without an R/systolic pair, and
/// windows whose extraction fails or is not finite, are unusable.
pub(crate) fn extract_usable(
    version: Version,
    snippet: &Snippet,
    config: &SiftConfig,
) -> Option<Vec<f64>> {
    if paired_peaks(snippet).is_empty() {
        return None;
    }
    match extract(version, snippet, config) {
        Ok(f) if f.iter().all(|x| x.is_finite()) => Some(f),
        _ => None,
    }
}
