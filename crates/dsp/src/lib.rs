//! Signal-processing substrate for the SIFT reproduction.
//!
//! This crate provides the numeric building blocks that the rest of the
//! workspace is built on:
//!
//! * [`stats`] — descriptive statistics (mean, variance, percentiles, …),
//! * [`normalize`] — the min–max range that SIFT *portraits* normalize by,
//! * [`integrate`] — numerical integration, including the paper's
//!   *simplified* composite-trapezoid rule (§III, FeatureExtraction state),
//! * [`embedded_math`] — libm-free replacements (Newton square root,
//!   polynomial `atan2`, …) that model the Amulet's "no C math library"
//!   constraint (paper Insight #2),
//! * [`fixed`] — Q16.16 fixed-point arithmetic for the most constrained
//!   execution flavor.
//!
//! # Example
//!
//! ```
//! use dsp::normalize::range;
//!
//! # fn main() -> Result<(), dsp::DspError> {
//! let samples = [1.0, 2.0, 3.0];
//! let (lo, span) = range(&samples)?;
//! let normalized: Vec<f64> = samples.iter().map(|x| (x - lo) / span).collect();
//! assert_eq!(normalized, vec![0.0, 0.5, 1.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod embedded_math;
pub mod fixed;
pub mod integrate;
pub mod normalize;
pub mod stats;

mod error;

pub use error::DspError;
