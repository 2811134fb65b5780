//! The detector zoo's backend surface: one trait, one deployable enum.
//!
//! [`DetectorBackend`] is the contract every on-device classifier
//! family implements — score, batch-score (bit-equal to scalar),
//! footprint, and the heap-free checkpoint codec entry point.
//! [`DetectorModel`] is the deployable sum type the rest of the stack
//! (apps, checkpoints, persistence, fleet sink) carries, so adding a
//! backend touches this file and nothing structural downstream.
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
    fn score_batch_f32(&self, batch: &[f32]) -> Result<Vec<f32>, MlError> {
        let dim = self.dim();
        if dim == 0 || !batch.len().is_multiple_of(dim) {
            return Err(MlError::DimensionMismatch {
                expected: dim,
                actual: batch.len(),
            });
        }
        Ok(batch
            .chunks_exact(dim)
            .map(|row| self.score_f32(row))
            .collect())
    }

    /// Exact serialized size in bytes (FRAM contribution).
    fn footprint_bytes(&self) -> usize;

    /// Heap-free serialization into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// [`MlError::MalformedModel`] when `out` is too small.
    fn encode_into(&self, out: &mut [u8]) -> Result<usize, MlError>;

    /// Hard label by decision sign.
    fn predict_f32(&self, x: &[f32]) -> Label {
        if self.score_f32(x) > 0.0 {
            Label::Positive
        } else {
            Label::Negative
        }
    }
}

impl DetectorBackend for EmbeddedModel {
    fn kind(&self) -> BackendKind {
        BackendKind::Svm
    }

    fn dim(&self) -> usize {
        EmbeddedModel::dim(self)
    }

    fn score_f32(&self, x: &[f32]) -> f32 {
        self.decision_function_f32(x)
    }

    fn score_batch_f32(&self, batch: &[f32]) -> Result<Vec<f32>, MlError> {
        self.decision_batch_f32(batch)
    }

    fn footprint_bytes(&self) -> usize {
        EmbeddedModel::footprint_bytes(self)
    }

    fn encode_into(&self, out: &mut [u8]) -> Result<usize, MlError> {
        EmbeddedModel::encode_into(self, out)
    }

    fn predict_f32(&self, x: &[f32]) -> Label {
        EmbeddedModel::predict_f32(self, x)
    }
}

impl DetectorBackend for TsetlinModel {
    fn kind(&self) -> BackendKind {
        BackendKind::Tsetlin
    }

    fn dim(&self) -> usize {
        TsetlinModel::dim(self)
    }

    fn score_f32(&self, x: &[f32]) -> f32 {
        TsetlinModel::score_f32(self, x)
    }

    fn score_batch_f32(&self, batch: &[f32]) -> Result<Vec<f32>, MlError> {
        TsetlinModel::score_batch_f32(self, batch)
    }

    fn footprint_bytes(&self) -> usize {
        TsetlinModel::footprint_bytes(self)
    }

    fn encode_into(&self, out: &mut [u8]) -> Result<usize, MlError> {
        TsetlinModel::encode_into(self, out)
    }

    fn predict_f32(&self, x: &[f32]) -> Label {
        TsetlinModel::predict_f32(self, x)
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

    /// Serialize to the backend's on-flash byte format.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            DetectorModel::Svm(m) => m.encode(),
            DetectorModel::Tsetlin(m) => m.encode(),
        }
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
    fn trait_surface_agrees_with_inherent_methods() {
        let em = svm_model();
        let x = [0.5f32, 0.25];
        let d: &dyn DetectorBackend = &em;
        assert_eq!(d.score_f32(&x).to_bits(), em.decision_function_f32(&x).to_bits());
        assert_eq!(d.footprint_bytes(), em.footprint_bytes());
        let tm = tsetlin_model();
        let d: &dyn DetectorBackend = &tm;
        assert_eq!(d.score_f32(&x).to_bits(), tm.score_f32(&x).to_bits());
        assert_eq!(d.dim(), 2);
    }

    #[test]
    fn backend_ids_are_stable() {
        assert_eq!(BackendKind::Svm.id(), "svm");
        assert_eq!(BackendKind::Tsetlin.id(), "tsetlin");
        assert_eq!(BackendKind::ALL.len(), 2);
    }
}
