//! **SIFT** — SIgnal Feature-correlation-based Testing.
//!
//! This crate implements the paper's primary contribution: an
//! attack-agnostic detector for **sensor-hijacking attacks** on ECG
//! sensors in a wearable-IoT environment, using the arterial blood
//! pressure (ABP) signal as a trusted reference. Because ECG and ABP are
//! projections of the same cardiac process, a genuine ECG/ABP pair traces
//! a characteristic two-dimensional *portrait*; an ECG that was replayed,
//! replaced or otherwise tampered with breaks that correlation, and a
//! per-user SVM trained on portrait features flags it.
//!
//! # Pipeline (paper §II-A, Fig. 2)
//!
//! 1. **Portrait** — `w = 3` seconds of synchronously measured, min–max
//!    normalized ECG `e(t)` and ABP `a(t)` form the planar curve
//!    `f(t) = (a(t), e(t))`. The feature path reads it off one axis per
//!    channel without materializing it; [`portrait`] renders it.
//! 2. **Features** — eight features per portrait: three *matrix* features
//!    from a 50×50 occupancy grid and five *geometric* features from the
//!    R-peak and systolic-peak locations ([`features`]). Three variants
//!    exist, matching the paper's three detector builds:
//!    [`features::Version::Original`], [`features::Version::Simplified`]
//!    (no square roots or trigonometry) and
//!    [`features::Version::Reduced`] (geometric only).
//! 3. **Classification** — a user-specific linear SVM labels the feature
//!    point; positive means *altered* ([`detector`], trained by
//!    [`trainer`]).
//!
//! Every stage exists in two *platform flavors* ([`flavor`]): the
//! double-precision gold standard (the paper's MATLAB implementation) and
//! the single-precision, libm-free embedded path (the Amulet
//! implementation).
//!
//! # Example
//!
//! ```
//! use physio_sim::subject::bank;
//! use sift::config::SiftConfig;
//! use sift::features::Version;
//! use sift::trainer::train_for_subject;
//!
//! # fn main() -> Result<(), sift::SiftError> {
//! let subjects = bank();
//! let config = SiftConfig {
//!     train_s: 60.0, // shortened for the doctest; the paper uses 1200 s
//!     ..SiftConfig::default()
//! };
//! let model = train_for_subject(&subjects, 0, Version::Simplified, &config, 1)?;
//! assert_eq!(model.version(), Version::Simplified);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod checkpoint;
pub mod config;
pub mod detector;
pub mod features;
pub mod flavor;
pub mod pipeline;
pub mod portrait;
pub mod snippet;
pub mod trainer;
pub mod zoo;

mod error;

pub use error::SiftError;
