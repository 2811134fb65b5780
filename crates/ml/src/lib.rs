//! Machine-learning substrate for the SIFT reproduction.
//!
//! The paper trains a **linear-kernel SVM** per user offline, then
//! "translates the prediction function of the trained model into C code"
//! for the Amulet. This crate provides the full path from scratch:
//!
//! * [`dataset`] — labeled feature matrices,
//! * [`scaler`] — feature standardization,
//! * [`linear_svm`] — L1-loss linear SVM trained by dual coordinate
//!   descent (the liblinear algorithm),
//! * [`baseline`] — logistic regression, k-NN and nearest-centroid
//!   comparison classifiers, which back the paper's "SVM performed best
//!   among the algorithms we tried" in `bench --bin ablation`,
//! * [`metrics`] — FP rate / FN rate / accuracy / F1 exactly as defined in
//!   the paper's §IV, plus precision, recall, and ROC-AUC,
//! * [`embedded`] — the flat, `f32` "translated" model representation
//!   deployed on the simulated Amulet, including a byte-level codec,
//!   plus the CRC-32 and the little-endian reader and writer that every
//!   FRAM codec in the workspace uses,
//! * [`tsetlin`] — an integer-only Tsetlin machine backend (clause
//!   masks over booleanized features) with its own on-flash codec,
//! * [`backend`] — the [`backend::DetectorBackend`] trait, the one
//!   definition of each deployed-model operation (each backend
//!   implements it in its own module), and the deployable
//!   [`backend::DetectorModel`] sum type tying the zoo together.
//!
//! # Example
//!
//! ```
//! use ml::dataset::{Dataset, Label};
//! use ml::linear_svm::LinearSvmTrainer;
//! use ml::Classifier;
//!
//! # fn main() -> Result<(), ml::MlError> {
//! let mut data = Dataset::new(2)?;
//! data.push(vec![0.0, 0.0], Label::Negative)?;
//! data.push(vec![0.1, 0.2], Label::Negative)?;
//! data.push(vec![1.0, 1.0], Label::Positive)?;
//! data.push(vec![0.9, 1.1], Label::Positive)?;
//! let model = LinearSvmTrainer::default().fit(&data)?;
//! assert_eq!(model.predict(&[1.0, 1.0]), Label::Positive);
//! assert_eq!(model.predict(&[0.0, 0.1]), Label::Negative);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod baseline;
pub mod dataset;
pub mod embedded;
pub mod linear_svm;
pub mod metrics;
pub mod scaler;
pub mod tsetlin;

mod error;

pub use backend::{BackendKind, DetectorBackend, DetectorModel};
pub use dataset::{Dataset, Label};
pub use error::MlError;

/// Lane width of the batched scoring kernels ([`embedded`] and
/// [`tsetlin`]): full blocks of this many rows are scored
/// lane-parallel (transposed so the compiler vectorizes across rows),
/// the ragged tail scalar. Eight `f32`/`u64` lanes map onto one AVX2
/// register pair on the sink host; on narrower hardware the same code
/// compiles to more ops per block with identical results, because each
/// lane's float operation order never depends on the lane count.
pub const SIMD_LANES: usize = 8;

/// A trained binary classifier.
///
/// The decision convention throughout the workspace: **positive** means
/// *altered / attack*, **negative** means *genuine*, matching the paper's
/// labeling of feature points.
pub trait Classifier {
    /// Signed decision value; `> 0` is classified positive.
    fn decision_function(&self, x: &[f64]) -> f64;

    /// Hard label for `x`.
    fn predict(&self, x: &[f64]) -> Label {
        if self.decision_function(x) > 0.0 {
            Label::Positive
        } else {
            Label::Negative
        }
    }
}
