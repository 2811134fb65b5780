//! The "translated" embedded model.
//!
//! The paper does not ship liblinear to the Amulet: "we then translate the
//! prediction function of the trained model into C code" (§III,
//! MLClassifier state). [`EmbeddedModel`] is that artifact in this
//! reproduction — a flat, single-precision record of the standardization
//! constants and the separating hyperplane, with a byte-level codec so the
//! simulated firmware can store it in FRAM and account for its exact
//! footprint.

use crate::linear_svm::LinearSvm;
use crate::scaler::StandardScaler;
use crate::{Classifier, Label, MlError, SIMD_LANES};

/// Magic bytes identifying an encoded model, followed on flash by a
/// one-byte format version ([`FORMAT_VERSION`]).
pub const MAGIC: [u8; 7] = *b"SIFTMDL";

/// Current on-flash format version. Version 1 (magic `SIFTMDL1`, no
/// checksum) is retired: its trailing `'1'` now reads as an unsupported
/// version byte, so stale v1 checkpoints are rejected with a typed
/// error instead of being parsed without integrity protection.
pub const FORMAT_VERSION: u8 = 2;

/// Fixed header: magic + version byte + `u32` dimension.
pub const HEADER_BYTES: usize = MAGIC.len() + 1 + 4;

/// Trailing CRC-32 over everything before it.
pub const CRC_BYTES: usize = 4;

/// Exact encoded size of a model of `dim` features: header, then
/// `f32` weights/bias/means/inverse-stds, then the CRC trailer.
pub const fn encoded_len(dim: usize) -> usize {
    HEADER_BYTES + 4 * (3 * dim + 1) + CRC_BYTES
}

/// CRC-32 (IEEE, reflected, polynomial `0xEDB8_8320`); table-free so
/// the device pays cycles, not FRAM. The one CRC of the workspace: both
/// model codecs and the NVRAM slot header use it, so every on-flash
/// blob carries the same integrity check.
///
/// Incremental: `crc` is the CRC of the bytes fed so far (`0` to
/// start), so `crc32(crc32(0, a), b) == crc32(0, a‖b)` and a checksum
/// over several fields needs no concatenation buffer.
pub fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in bytes {
        crc ^= u32::from(b);
        let mut k = 0;
        while k < 8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            k += 1;
        }
    }
    !crc
}

/// Copy `src` into `out` at `*at`, advancing the cursor; silently stops
/// at the end of `out` (callers size the buffer with [`encoded_len`]).
pub(crate) fn put(out: &mut [u8], at: &mut usize, src: &[u8]) {
    for (dst, &b) in out.iter_mut().skip(*at).zip(src.iter()) {
        *dst = b;
        *at += 1;
    }
}

/// A deployed user-specific model: scaler constants folded together with
/// the SVM hyperplane, all in `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedModel {
    weights: Vec<f32>,
    bias: f32,
    means: Vec<f32>,
    inv_stds: Vec<f32>,
}

impl EmbeddedModel {
    /// Translate a trained scaler + SVM pair into the embedded form.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if the scaler and model
    /// dimensions disagree.
    // lint:allow(embedded-no-float-literal, host-side translation step; 1/sigma is folded once here so the device never divides)
    pub fn translate(scaler: &StandardScaler, svm: &LinearSvm) -> Result<Self, MlError> {
        if scaler.dim() != svm.dim() {
            return Err(MlError::DimensionMismatch {
                expected: scaler.dim(),
                actual: svm.dim(),
            });
        }
        Ok(Self {
            weights: svm.weights().iter().map(|&w| w as f32).collect(),
            bias: svm.bias() as f32,
            means: scaler.means().iter().map(|&m| m as f32).collect(),
            inv_stds: scaler.stds().iter().map(|&s| (1.0 / s) as f32).collect(),
        })
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Single-precision decision value for a raw (unscaled) feature
    /// vector: standardization happens inside, exactly as the generated C
    /// code would do it on-device.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()` (on the device this is a compile-time
    /// guarantee; the simulation asserts it).
    // lint:allow(embedded-no-panic, the dimension is a compile-time guarantee in the generated C; the simulation asserts it)
    pub fn decision_function_f32(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.dim(), "feature dimension mismatch");
        let mut acc = self.bias;
        for (((&xi, &m), &inv), &w) in x
            .iter()
            .zip(&self.means)
            .zip(&self.inv_stds)
            .zip(&self.weights)
        {
            acc += w * ((xi - m) * inv);
        }
        acc
    }

    /// Hard label for a raw `f32` feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    // lint:allow(embedded-no-f64, Label::from_sign takes the host f64; an f32 decision value widens exactly)
    pub fn predict_f32(&self, x: &[f32]) -> Label {
        Label::from_sign(self.decision_function_f32(x) as f64)
    }

    /// Decision values for a whole window batch in one call.
    ///
    /// `batch` is a row-major flat matrix of `batch.len() / dim()` raw
    /// feature vectors. The sink-side fleet reduction uses this instead
    /// of one [`EmbeddedModel::decision_function_f32`] call per window.
    /// Full blocks of [`SIMD_LANES`] rows are transposed into a
    /// column-major scratch block and scored by a lane-parallel kernel:
    /// each lane accumulates its own row in exactly the scalar
    /// feature order, so the per-lane float operation sequence is
    /// identical to [`EmbeddedModel::decision_function_f32`] and the
    /// results agree bit for bit (enforced by the conformance suite),
    /// while the compiler vectorizes across lanes. The ragged tail
    /// falls back to the scalar path.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `batch.len()` is not
    /// a multiple of `dim()` — the batch cannot be split into whole
    /// feature rows.
    // lint:allow(embedded-no-heap-alloc, host-side sink batch scoring; the device scores one window at a time through decision_function_f32)
    // lint:allow(embedded-no-float-literal, host-side lane scratch initialization; never compiled for the device)
    // lint:allow(embedded-no-slice-index, every lane/column offset is bounded by the blocks*LANES*dim arithmetic checked above it)
    pub fn decision_batch_f32(&self, batch: &[f32]) -> Result<Vec<f32>, MlError> {
        let dim = self.dim();
        if dim == 0 || !batch.len().is_multiple_of(dim) {
            return Err(MlError::DimensionMismatch {
                expected: dim,
                actual: batch.len(),
            });
        }
        let rows = batch.len() / dim;
        let blocks = rows / SIMD_LANES;
        let mut out = Vec::with_capacity(rows);
        // Column-major scratch for one lane block: scratch[j*LANES + l]
        // holds feature j of row l.
        let mut scratch = vec![0.0f32; SIMD_LANES * dim];
        for b in 0..blocks {
            let base = b * SIMD_LANES * dim;
            for (l, row) in batch[base..base + SIMD_LANES * dim]
                .chunks_exact(dim)
                .enumerate()
            {
                for (j, &x) in row.iter().enumerate() {
                    scratch[j * SIMD_LANES + l] = x;
                }
            }
            let mut acc = [self.bias; SIMD_LANES];
            for j in 0..dim {
                let w = self.weights[j];
                let m = self.means[j];
                let inv = self.inv_stds[j];
                let col = &scratch[j * SIMD_LANES..(j + 1) * SIMD_LANES];
                for l in 0..SIMD_LANES {
                    acc[l] += w * ((col[l] - m) * inv);
                }
            }
            out.extend_from_slice(&acc);
        }
        for row in batch[blocks * SIMD_LANES * dim..].chunks_exact(dim) {
            out.push(self.decision_function_f32(row));
        }
        Ok(out)
    }

    /// Hard labels for a whole window batch in one call (see
    /// [`EmbeddedModel::decision_batch_f32`]).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `batch.len()` is not
    /// a multiple of `dim()`.
    // lint:allow(embedded-no-f64, Label::from_sign takes the host f64; an f32 decision value widens exactly)
    pub fn predict_batch_f32(&self, batch: &[f32]) -> Result<Vec<Label>, MlError> {
        Ok(self
            .decision_batch_f32(batch)?
            .into_iter()
            .map(|d| Label::from_sign(d as f64))
            .collect())
    }

    /// Exact serialized size in bytes (what the detector contributes to
    /// FRAM for its model constants).
    pub fn footprint_bytes(&self) -> usize {
        encoded_len(self.dim())
    }

    /// Serialize into a caller-provided buffer — the checkpoint path's
    /// entry point, heap-free so it stays inside the embedded profile.
    /// Writes magic, version, dimension, the model constants, and a
    /// trailing CRC-32 over all preceding bytes; returns the bytes
    /// written (always [`encoded_len`]`(dim)`).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::MalformedModel`] when `out` is shorter than
    /// [`encoded_len`]`(dim)`; nothing is written in that case.
    pub fn encode_into(&self, out: &mut [u8]) -> Result<usize, MlError> {
        let needed = encoded_len(self.dim());
        if out.len() < needed {
            return Err(MlError::MalformedModel {
                reason: "encode buffer too small",
            });
        }
        let mut at = 0;
        put(out, &mut at, &MAGIC);
        put(out, &mut at, &[FORMAT_VERSION]);
        put(out, &mut at, &(self.dim() as u32).to_le_bytes());
        for &w in &self.weights {
            put(out, &mut at, &w.to_le_bytes());
        }
        put(out, &mut at, &self.bias.to_le_bytes());
        for &m in &self.means {
            put(out, &mut at, &m.to_le_bytes());
        }
        for &s in &self.inv_stds {
            put(out, &mut at, &s.to_le_bytes());
        }
        let crc = crc32(0, out.get(..at).unwrap_or(&[]));
        put(out, &mut at, &crc.to_le_bytes());
        Ok(at)
    }

    /// Serialize to the on-flash byte format (little-endian).
    // lint:allow(embedded-no-heap-alloc, host-side serialization; the device reads the finished image out of FRAM)
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.footprint_bytes()];
        // Cannot fail: the buffer is sized by the same formula.
        let _ = self.encode_into(&mut out);
        out
    }

    /// Decode a model previously produced by [`EmbeddedModel::encode`]
    /// or [`EmbeddedModel::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError::UnsupportedModelVersion`] for a recognized
    /// magic with a foreign version byte (including retired v1 blobs),
    /// and [`MlError::MalformedModel`] for any framing or checksum
    /// violation.
    // lint:allow(embedded-no-slice-index, every offset is covered by the exact length check against the dim field)
    // lint:allow(embedded-no-panic, try_into of a 4-byte slice cannot fail after the length check)
    // lint:allow(embedded-no-heap-alloc, host-side deserialization into owned buffers)
    pub fn decode(bytes: &[u8]) -> Result<Self, MlError> {
        if bytes.len() < HEADER_BYTES + CRC_BYTES {
            return Err(MlError::MalformedModel {
                reason: "too short for header",
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(MlError::MalformedModel {
                reason: "bad magic",
            });
        }
        let version = bytes[MAGIC.len()];
        if version != FORMAT_VERSION {
            return Err(MlError::UnsupportedModelVersion { found: version });
        }
        let dim = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        if dim == 0 {
            return Err(MlError::MalformedModel {
                reason: "zero dimension",
            });
        }
        let expect = encoded_len(dim);
        if bytes.len() != expect {
            return Err(MlError::MalformedModel {
                reason: "length does not match dimension",
            });
        }
        let stored = u32::from_le_bytes(bytes[expect - CRC_BYTES..].try_into().expect("4 bytes"));
        if crc32(0, &bytes[..expect - CRC_BYTES]) != stored {
            return Err(MlError::MalformedModel {
                reason: "checksum mismatch",
            });
        }
        let mut off = HEADER_BYTES;
        let mut read = |n: usize| -> Vec<f32> {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(f32::from_le_bytes(
                    bytes[off..off + 4].try_into().expect("4 bytes"),
                ));
                off += 4;
            }
            v
        };
        let weights = read(dim);
        let bias = read(1)[0];
        let means = read(dim);
        let inv_stds = read(dim);
        Ok(Self {
            weights,
            bias,
            means,
            inv_stds,
        })
    }
}

// lint:allow(embedded-no-f64, host-side bridge to the f64 Classifier trait used by the evaluation harness)
impl Classifier for EmbeddedModel {
    fn decision_function(&self, x: &[f64]) -> f64 {
        let xs: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        self.decision_function_f32(&xs) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_svm::LinearSvmTrainer;
    use crate::{Dataset, Label};

    fn trained() -> (StandardScaler, LinearSvm, Dataset) {
        let mut d = Dataset::new(3).unwrap();
        for i in 0..25 {
            let t = i as f64 * 0.04;
            d.push(vec![t, 10.0 * t, -t], Label::Negative).unwrap();
            d.push(vec![2.0 + t, 25.0 + 10.0 * t, 2.0 - t], Label::Positive)
                .unwrap();
        }
        let scaler = StandardScaler::fit(&d).unwrap();
        let scaled = scaler.transform_dataset(&d).unwrap();
        let svm = LinearSvmTrainer::default().fit(&scaled).unwrap();
        (scaler, svm, d)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE CRC-32 check value.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, &[]), 0);
    }

    #[test]
    fn crc32_is_incremental_at_every_split() {
        let data = b"123456789";
        for at in 0..=data.len() {
            let (a, b) = data.split_at(at);
            assert_eq!(crc32(crc32(0, a), b), 0xCBF4_3926, "split at {at}");
        }
    }

    #[test]
    fn translated_model_matches_reference_pipeline() {
        let (scaler, svm, d) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        for (x, _) in d.iter() {
            let reference = svm.predict(&scaler.transform(x).unwrap());
            let xs: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            assert_eq!(em.predict_f32(&xs), reference);
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        let bytes = em.encode();
        assert_eq!(bytes.len(), em.footprint_bytes());
        let back = EmbeddedModel::decode(&bytes).unwrap();
        assert_eq!(back, em);
    }

    #[test]
    fn footprint_formula() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        // 7 magic + 1 version + 4 dim + 4 * (3*3 + 1) floats + 4 crc.
        assert_eq!(em.footprint_bytes(), 12 + 4 * 10 + 4);
        assert_eq!(em.footprint_bytes(), encoded_len(3));
    }

    #[test]
    fn encode_into_matches_encode_and_checks_buffer() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        let mut buf = vec![0u8; em.footprint_bytes() + 7];
        let n = em.encode_into(&mut buf).unwrap();
        assert_eq!(n, em.footprint_bytes());
        assert_eq!(&buf[..n], &em.encode()[..]);
        let mut short = vec![0u8; em.footprint_bytes() - 1];
        assert!(matches!(
            em.encode_into(&mut short),
            Err(MlError::MalformedModel { .. })
        ));
        assert!(short.iter().all(|&b| b == 0), "failed encode must not write");
    }

    #[test]
    fn stale_v1_blob_rejected_with_typed_error() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        // Reconstruct the retired v1 framing: `SIFTMDL1`, dim, floats,
        // no checksum. Its `'1'` sits where v2 keeps the version byte.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"SIFTMDL1");
        let body = em.encode();
        v1.extend_from_slice(&body[8..body.len() - CRC_BYTES]);
        assert_eq!(
            EmbeddedModel::decode(&v1),
            Err(MlError::UnsupportedModelVersion { found: b'1' })
        );
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        let good = em.encode();
        // Flip one bit at every payload byte: all must be rejected
        // (header corruption trips magic/version/dim checks instead).
        for i in HEADER_BYTES..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                EmbeddedModel::decode(&bad).is_err(),
                "bit flip at byte {i} was accepted"
            );
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        let good = em.encode();

        assert!(EmbeddedModel::decode(&[]).is_err());
        assert!(EmbeddedModel::decode(&good[..10]).is_err());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(EmbeddedModel::decode(&bad_magic).is_err());

        let mut truncated = good.clone();
        truncated.pop();
        assert!(EmbeddedModel::decode(&truncated).is_err());

        let mut bad_dim = good.clone();
        bad_dim[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(EmbeddedModel::decode(&bad_dim).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected_at_translate() {
        let (_, svm, _) = trained();
        let wrong = StandardScaler::identity(7);
        assert!(EmbeddedModel::translate(&wrong, &svm).is_err());
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn predict_panics_on_wrong_dim() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        let _ = em.predict_f32(&[1.0]);
    }

    // The batched-vs-scalar bit-equality guarantee is certified by the
    // backend-parameterized conformance suite (tests/detector_conformance.rs)
    // for every registered backend, not per-site here.

    #[test]
    fn empty_batch_yields_no_predictions() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        assert!(em.decision_batch_f32(&[]).unwrap().is_empty());
        assert!(em.predict_batch_f32(&[]).unwrap().is_empty());
    }

    #[test]
    fn ragged_batch_rejected_with_typed_error() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        assert_eq!(
            em.decision_batch_f32(&[1.0, 2.0]),
            Err(MlError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        );
        assert_eq!(
            em.predict_batch_f32(&[1.0, 2.0, 3.0, 4.0]),
            Err(MlError::DimensionMismatch {
                expected: 3,
                actual: 4
            })
        );
    }

    #[test]
    fn lane_blocks_and_ragged_tail_match_scalar_bit_for_bit() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        // Rows spanning several full lane blocks plus a scalar tail.
        let rows = 3 * SIMD_LANES + 5;
        let mut flat = Vec::with_capacity(rows * em.dim());
        for i in 0..rows * em.dim() {
            flat.push((i as f32).sin() * 3.0);
        }
        let batched = em.decision_batch_f32(&flat).unwrap();
        assert_eq!(batched.len(), rows);
        for (b, row) in batched.iter().zip(flat.chunks_exact(em.dim())) {
            assert_eq!(b.to_bits(), em.decision_function_f32(row).to_bits());
        }
    }

    #[test]
    fn classifier_impl_consistent_with_f32_path() {
        let (scaler, svm, d) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        for (x, _) in d.iter() {
            let via_f64 = em.predict(x);
            let xs: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            assert_eq!(via_f64, em.predict_f32(&xs));
        }
    }
}
