//! The detector zoo's backend surface: one trait, one deployable enum.
//!
//! [`DetectorBackend`] is the contract every on-device classifier
//! family implements — score, batch-score (bit-equal to scalar), label,
//! footprint, and the heap-free checkpoint codec entry point. It is the
//! only definition of each operation: a backend implements it in its
//! own module ([`crate::embedded`], [`crate::tsetlin`]), under that
//! module's analyzer profile, with no inherent twin and no default body
//! to fall back on. [`DetectorModel`] is the deployable sum type the
//! rest of the stack (apps, checkpoints, persistence, fleet sink)
//! carries, so adding a backend is one impl in its module and one
//! variant here, and nothing structural downstream.
//!
//! Decoding dispatches on the leading magic bytes: `SIFTMDL` blobs are
//! SVM model codec v2, `SIFTTSM` blobs are Tsetlin codec v1. A blob
//! with neither magic is a typed [`MlError::MalformedModel`].

use std::fmt;

use crate::embedded::EmbeddedModel;
use crate::tsetlin::TsetlinModel;
use crate::{embedded, tsetlin, Label, MlError};

/// The classifier families registered in the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BackendKind {
    /// The paper's translated linear SVM (model codec v2).
    Svm,
    /// Integer-only Tsetlin machine (clause masks over booleanized
    /// features).
    Tsetlin,
}

impl BackendKind {
    /// Every registered backend, in report order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Svm, BackendKind::Tsetlin];

    /// Stable lowercase identifier used in reports and app names.
    pub fn id(self) -> &'static str {
        match self {
            BackendKind::Svm => "svm",
            BackendKind::Tsetlin => "tsetlin",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// The trait every deployable detector backend implements.
///
/// Contract (certified per backend by `tests/detector_conformance.rs`):
///
/// * `score_batch_f32` is **bit-equal** to mapping `score_f32` over the
///   rows;
/// * `encode_into` is heap-free, writes exactly `footprint_bytes()`,
///   and round-trips through the backend's `decode` to an equal model;
/// * training (outside this trait, in each backend's trainer) is
///   deterministic from its seed.
pub trait DetectorBackend {
    /// Which family this model belongs to.
    fn kind(&self) -> BackendKind;

    /// Feature dimension the model scores.
    fn dim(&self) -> usize;

    /// Signed decision value for a raw `f32` feature vector; `> 0`
    /// classifies *attack*.
    fn score_f32(&self, x: &[f32]) -> f32;

    /// Decision values for a row-major flat batch; must agree bit for
    /// bit with the scalar path.
    ///
    /// # Errors
    ///
    /// [`MlError::DimensionMismatch`] when `batch.len()` is not a
    /// multiple of `dim()` — the batch cannot be split into whole
    /// feature rows.
    fn score_batch_f32(&self, batch: &[f32]) -> Result<Vec<f32>, MlError>;

    /// Exact serialized size in bytes (FRAM contribution).
    fn footprint_bytes(&self) -> usize;

    /// Heap-free serialization into a caller-provided buffer, returning
    /// the bytes written (always `footprint_bytes()`).
    ///
    /// # Errors
    ///
    /// [`MlError::MalformedModel`] when `out` is too small; nothing is
    /// written in that case.
    fn encode_into(&self, out: &mut [u8]) -> Result<usize, MlError>;

    /// Hard label by decision sign: `Positive` exactly when the score
    /// is above zero, as [`Label::from_sign`] reads it.
    fn predict_f32(&self, x: &[f32]) -> Label;

    /// Serialize to the backend's on-flash byte format. Host-side: the
    /// device reads the finished image out of FRAM.
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.footprint_bytes()];
        // Cannot fail: the buffer is sized by the same formula.
        let _ = self.encode_into(&mut out);
        out
    }
}

/// A deployed detector of any registered family — what apps,
/// checkpoints, and the fleet sink actually carry.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorModel {
    /// Translated linear SVM.
    Svm(EmbeddedModel),
    /// Integer-only Tsetlin machine (boxed: its inline clause tables
    /// dwarf the SVM record, and this enum is cloned into checkpoints
    /// and fleet banks).
    Tsetlin(Box<TsetlinModel>),
}

impl DetectorModel {
    /// Decode any registered backend's blob, dispatching on magic.
    ///
    /// # Errors
    ///
    /// The backend codec's typed error, or
    /// [`MlError::MalformedModel`] when no registered magic matches.
    pub fn decode(bytes: &[u8]) -> Result<Self, MlError> {
        if bytes.get(..embedded::MAGIC.len()) == Some(&embedded::MAGIC[..]) {
            return EmbeddedModel::decode(bytes).map(DetectorModel::Svm);
        }
        if bytes.get(..tsetlin::MAGIC.len()) == Some(&tsetlin::MAGIC[..]) {
            return TsetlinModel::decode(bytes).map(|m| DetectorModel::Tsetlin(Box::new(m)));
        }
        Err(MlError::MalformedModel {
            reason: "no registered backend magic",
        })
    }

    /// The Tsetlin model, when that is what this is.
    pub fn as_tsetlin(&self) -> Option<&TsetlinModel> {
        match self {
            DetectorModel::Tsetlin(m) => Some(m.as_ref()),
            DetectorModel::Svm(_) => None,
        }
    }
}

impl DetectorBackend for DetectorModel {
    fn kind(&self) -> BackendKind {
        match self {
            DetectorModel::Svm(_) => BackendKind::Svm,
            DetectorModel::Tsetlin(_) => BackendKind::Tsetlin,
        }
    }

    fn dim(&self) -> usize {
        match self {
            DetectorModel::Svm(m) => DetectorBackend::dim(m),
            DetectorModel::Tsetlin(m) => DetectorBackend::dim(m.as_ref()),
        }
    }

    fn score_f32(&self, x: &[f32]) -> f32 {
        match self {
            DetectorModel::Svm(m) => DetectorBackend::score_f32(m, x),
            DetectorModel::Tsetlin(m) => DetectorBackend::score_f32(m.as_ref(), x),
        }
    }

    fn score_batch_f32(&self, batch: &[f32]) -> Result<Vec<f32>, MlError> {
        match self {
            DetectorModel::Svm(m) => DetectorBackend::score_batch_f32(m, batch),
            DetectorModel::Tsetlin(m) => DetectorBackend::score_batch_f32(m.as_ref(), batch),
        }
    }

    fn footprint_bytes(&self) -> usize {
        match self {
            DetectorModel::Svm(m) => DetectorBackend::footprint_bytes(m),
            DetectorModel::Tsetlin(m) => DetectorBackend::footprint_bytes(m.as_ref()),
        }
    }

    fn encode_into(&self, out: &mut [u8]) -> Result<usize, MlError> {
        match self {
            DetectorModel::Svm(m) => DetectorBackend::encode_into(m, out),
            DetectorModel::Tsetlin(m) => DetectorBackend::encode_into(m.as_ref(), out),
        }
    }

    fn predict_f32(&self, x: &[f32]) -> Label {
        match self {
            DetectorModel::Svm(m) => DetectorBackend::predict_f32(m, x),
            DetectorModel::Tsetlin(m) => DetectorBackend::predict_f32(m.as_ref(), x),
        }
    }
}

impl From<EmbeddedModel> for DetectorModel {
    fn from(m: EmbeddedModel) -> Self {
        DetectorModel::Svm(m)
    }
}

impl From<TsetlinModel> for DetectorModel {
    fn from(m: TsetlinModel) -> Self {
        DetectorModel::Tsetlin(Box::new(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_svm::LinearSvmTrainer;
    use crate::scaler::StandardScaler;
    use crate::tsetlin::TsetlinTrainer;
    use crate::Dataset;

    fn svm_model() -> EmbeddedModel {
        let mut d = Dataset::new(2).unwrap();
        for i in 0..20 {
            let t = i as f64 * 0.05;
            d.push(vec![t, -t], Label::Negative).unwrap();
            d.push(vec![2.0 + t, 1.0 + t], Label::Positive).unwrap();
        }
        let scaler = StandardScaler::fit(&d).unwrap();
        let svm = LinearSvmTrainer::default()
            .fit(&scaler.transform_dataset(&d).unwrap())
            .unwrap();
        EmbeddedModel::translate(&scaler, &svm).unwrap()
    }

    fn tsetlin_model() -> TsetlinModel {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let t = i as f32 * 0.05;
            rows.extend([t, -t]);
            labels.push(Label::Negative);
            rows.extend([2.0 + t, 1.0 + t]);
            labels.push(Label::Positive);
        }
        TsetlinTrainer::default().fit(2, &rows, &labels).unwrap()
    }

    #[test]
    fn decode_dispatches_on_magic() {
        let svm: DetectorModel = svm_model().into();
        let tm: DetectorModel = tsetlin_model().into();
        assert_eq!(svm.kind(), BackendKind::Svm);
        assert_eq!(tm.kind(), BackendKind::Tsetlin);
        assert_eq!(DetectorModel::decode(&svm.encode()).unwrap(), svm);
        assert_eq!(DetectorModel::decode(&tm.encode()).unwrap(), tm);
        assert!(matches!(
            DetectorModel::decode(b"NOTAMODELATALL"),
            Err(MlError::MalformedModel { .. })
        ));
    }

    #[test]
    fn backend_ids_are_stable() {
        assert_eq!(BackendKind::Svm.id(), "svm");
        assert_eq!(BackendKind::Tsetlin.id(), "tsetlin");
        assert_eq!(BackendKind::ALL.len(), 2);
    }
}
