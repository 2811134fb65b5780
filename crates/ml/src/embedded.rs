//! The "translated" embedded model.
//!
//! The paper does not ship liblinear to the Amulet: "we then translate the
//! prediction function of the trained model into C code" (§III,
//! MLClassifier state). [`EmbeddedModel`] is that artifact in this
//! reproduction — a flat, single-precision record of the standardization
//! constants and the separating hyperplane, with a byte-level codec so the
//! simulated firmware can store it in FRAM and account for its exact
//! footprint.

use crate::backend::{BackendKind, DetectorBackend};
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

/// Reflected IEEE CRC-32 generator polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `crc` advanced through `zero_bytes` zero input bytes, one bit per
/// shift-xor step: the bitwise CRC's inner loop.
const fn crc_shift(mut crc: u32, zero_bytes: u32) -> u32 {
    let mut k = 0;
    while k < 8 * zero_bytes {
        crc = (crc >> 1) ^ (CRC_POLY & 0u32.wrapping_sub(crc & 1));
        k += 1;
    }
    crc
}

/// The slicing-by-8 tables: entry `i` of table `k` is the CRC state
/// byte `i` leaves behind after `k` more zero bytes, i.e. `i` shifted
/// through `k + 1` bytes. Table 0 is the classic byte-at-a-time table.
type CrcTables = [[u32; 256]; 8];

const fn crc_tables() -> CrcTables {
    let mut tables = [[0u32; 256]; 8];
    let mut rest: &mut [[u32; 256]] = &mut tables;
    let mut shift_bytes = 1;
    while let Some((table, more_tables)) = rest.split_first_mut() {
        let mut entries: &mut [u32] = table;
        let mut i = 0;
        while let Some((entry, more_entries)) = entries.split_first_mut() {
            *entry = crc_shift(i, shift_bytes);
            entries = more_entries;
            i += 1;
        }
        rest = more_tables;
        shift_bytes += 1;
    }
    tables
}

/// The CRC tables, built at compile time. On the device they are
/// static FRAM next to the checkpoint region.
static CRC_TABLES: CrcTables = crc_tables();

/// FRAM the CRC tables occupy, bytes (the analyzer's budget pass
/// charges them next to the checkpoint region).
pub const CRC_TABLE_BYTES: usize = core::mem::size_of::<CrcTables>();

/// CRC-32 (IEEE, reflected, polynomial `0xEDB8_8320`). The one CRC of
/// the workspace: both model codecs and the NVRAM slot header use it,
/// so every on-flash blob carries the same integrity check.
///
/// Slicing-by-8: each 8-byte block costs eight table lookups instead of
/// 64 shift-xor steps, and the last 0–7 bytes go through table 0 one
/// byte at a time. The result is bit-identical to the bitwise loop.
///
/// Incremental: `crc` is the CRC of the bytes fed so far (`0` to
/// start), so `crc32(crc32(0, a), b) == crc32(0, a‖b)` and a checksum
/// over several fields needs no concatenation buffer.
pub fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    // Entry `i` of table `k`; `k` is a literal below 8 and a `u8` is in
    // range of a 256-entry table, so the fallback is dead code.
    let entry = |k: usize, i: u8| {
        CRC_TABLES
            .get(k)
            .and_then(|t| t.get(usize::from(i)))
            .copied()
            .unwrap_or(0)
    };
    let mut crc = !crc;
    let (blocks, tail) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in blocks {
        // The state folds into the block's first four bytes.
        crc = entry(7, crc as u8 ^ b0)
            ^ entry(6, (crc >> 8) as u8 ^ b1)
            ^ entry(5, (crc >> 16) as u8 ^ b2)
            ^ entry(4, (crc >> 24) as u8 ^ b3)
            ^ entry(3, b4)
            ^ entry(2, b5)
            ^ entry(1, b6)
            ^ entry(0, b7);
    }
    for &b in tail {
        crc = (crc >> 8) ^ entry(0, crc as u8 ^ b);
    }
    !crc
}

/// Little-endian writer over a caller-sized buffer: every FRAM codec
/// encodes through it. Bytes past the end of the buffer are dropped,
/// never a panic; each codec sizes or length-checks the buffer first.
#[derive(Debug)]
pub struct LeWriter<'a> {
    out: &'a mut [u8],
    at: usize,
}

impl<'a> LeWriter<'a> {
    /// A writer at the start of `out`.
    pub fn new(out: &'a mut [u8]) -> Self {
        Self { out, at: 0 }
    }

    /// Append `src`, a field's `to_le_bytes()`.
    pub fn put(&mut self, src: &[u8]) {
        for (dst, &b) in self.out.iter_mut().skip(self.at).zip(src) {
            *dst = b;
            self.at += 1;
        }
    }

    /// The bytes written so far: what a trailing CRC covers.
    pub fn written(&self) -> &[u8] {
        self.out.get(..self.at).unwrap_or(&[])
    }
}

/// Little-endian reader over a byte slice: every FRAM codec decodes
/// through it. Bytes past the end of the slice read as zero, never a
/// panic; each codec length-checks the blob before it trusts a field.
#[derive(Debug, Clone)]
pub struct LeReader<'a> {
    rest: &'a [u8],
}

impl<'a> LeReader<'a> {
    /// A reader at byte offset `at` of `bytes`.
    pub fn new(bytes: &'a [u8], at: usize) -> Self {
        Self {
            rest: bytes.get(at..).unwrap_or(&[]),
        }
    }

    /// The next `N` bytes, for a field's `from_le_bytes`.
    pub fn pull<const N: usize>(&mut self) -> [u8; N] {
        let mut field = [0u8; N];
        for (dst, &b) in field.iter_mut().zip(self.rest) {
            *dst = b;
        }
        self.rest = self.rest.get(N..).unwrap_or(&[]);
        field
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
    // lint:allow(embedded-no-heap-alloc, host-side translation step; the device receives the encoded bytes, never a trained model)
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

    /// Decode a model previously produced by
    /// [`DetectorBackend::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError::UnsupportedModelVersion`] for a recognized
    /// magic with a foreign version byte (including retired v1 blobs),
    /// and [`MlError::MalformedModel`] for any framing or checksum
    /// violation. Never panics, whatever the input bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, MlError> {
        if bytes.len() < HEADER_BYTES + CRC_BYTES {
            return Err(MlError::MalformedModel {
                reason: "too short for header",
            });
        }
        let mut r = LeReader::new(bytes, 0);
        if MAGIC != r.pull() {
            return Err(MlError::MalformedModel {
                reason: "bad magic",
            });
        }
        let [version] = r.pull();
        if version != FORMAT_VERSION {
            return Err(MlError::UnsupportedModelVersion { found: version });
        }
        let dim = u32::from_le_bytes(r.pull()) as usize;
        if dim == 0 {
            return Err(MlError::MalformedModel {
                reason: "zero dimension",
            });
        }
        let crc_at = encoded_len(dim) - CRC_BYTES;
        if bytes.len() != crc_at + CRC_BYTES {
            return Err(MlError::MalformedModel {
                reason: "length does not match dimension",
            });
        }
        let stored = u32::from_le_bytes(LeReader::new(bytes, crc_at).pull());
        if crc32(0, bytes.get(..crc_at).unwrap_or(&[])) != stored {
            return Err(MlError::MalformedModel {
                reason: "checksum mismatch",
            });
        }
        // lint:allow(embedded-no-heap-alloc, the model's arrays are Vecs in this representation; each is sized once from the checked dimension and never grows)
        let f32s = |r: &mut LeReader<'_>, n: usize| -> Vec<f32> {
            (0..n).map(|_| f32::from_le_bytes(r.pull())).collect()
        };
        let weights = f32s(&mut r, dim);
        let bias = f32::from_le_bytes(r.pull());
        Ok(Self {
            weights,
            bias,
            means: f32s(&mut r, dim),
            inv_stds: f32s(&mut r, dim),
        })
    }
}

impl DetectorBackend for EmbeddedModel {
    fn kind(&self) -> BackendKind {
        BackendKind::Svm
    }

    fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Standardization happens inside, exactly as the generated C code
    /// does it on the device.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()` (on the device this is a compile-time
    /// guarantee; the simulation asserts it).
    // lint:allow(embedded-no-panic, the dimension is a compile-time guarantee in the generated C; the simulation asserts it)
    fn score_f32(&self, x: &[f32]) -> f32 {
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

    /// Full blocks of [`SIMD_LANES`] rows are transposed into a
    /// column-major scratch block and scored by a lane-parallel kernel:
    /// each lane accumulates its own row in exactly the scalar feature
    /// order, so the per-lane float operation sequence is that of
    /// [`DetectorBackend::score_f32`] and the results agree bit for bit,
    /// while the compiler vectorizes across lanes. The ragged tail
    /// falls back to the scalar path.
    // lint:allow(embedded-no-heap-alloc, host-side sink batch scoring; the device scores one window at a time through score_f32)
    // lint:allow(embedded-no-float-literal, host-side lane scratch initialization; never compiled for the device)
    // lint:allow(embedded-no-slice-index, every lane/column offset is bounded by the blocks*LANES*dim arithmetic checked above it)
    fn score_batch_f32(&self, batch: &[f32]) -> Result<Vec<f32>, MlError> {
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
            out.push(self.score_f32(row));
        }
        Ok(out)
    }

    fn footprint_bytes(&self) -> usize {
        encoded_len(self.dim())
    }

    /// Writes magic, version, dimension, the model constants, and a
    /// trailing CRC-32 over all preceding bytes: [`encoded_len`]`(dim)`
    /// bytes.
    fn encode_into(&self, out: &mut [u8]) -> Result<usize, MlError> {
        if out.len() < encoded_len(self.dim()) {
            return Err(MlError::MalformedModel {
                reason: "encode buffer too small",
            });
        }
        let mut w = LeWriter::new(out);
        w.put(&MAGIC);
        w.put(&[FORMAT_VERSION]);
        w.put(&(self.dim() as u32).to_le_bytes());
        for &x in &self.weights {
            w.put(&x.to_le_bytes());
        }
        w.put(&self.bias.to_le_bytes());
        for &m in &self.means {
            w.put(&m.to_le_bytes());
        }
        for &s in &self.inv_stds {
            w.put(&s.to_le_bytes());
        }
        let crc = crc32(0, w.written());
        w.put(&crc.to_le_bytes());
        Ok(w.written().len())
    }

    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    // lint:allow(embedded-no-f64, Label::from_sign takes the host f64; an f32 decision value widens exactly)
    fn predict_f32(&self, x: &[f32]) -> Label {
        Label::from_sign(f64::from(self.score_f32(x)))
    }
}

// lint:allow(embedded-no-f64, host-side bridge to the f64 Classifier trait used by the evaluation harness)
// lint:allow(embedded-no-heap-alloc, host-side bridge: the f64 input is narrowed into an f32 scratch vector)
impl Classifier for EmbeddedModel {
    fn decision_function(&self, x: &[f64]) -> f64 {
        let xs: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        self.score_f32(&xs) as f64
    }
}

/// The bitwise CRC-32 loop the table kernel replaced: eight shift-xor
/// steps per byte, no tables. Kept only as the oracle [`crc32`] must
/// match bit for bit.
#[cfg(test)]
mod oracle {
    pub(super) fn crc32(crc: u32, bytes: &[u8]) -> u32 {
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
}

#[cfg(test)]
mod crc_props {
    use super::{crc32, oracle};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The last eight prefixes of a random buffer cover every
        /// length mod 8, so every tail length meets the block loop;
        /// each runs from a zero and from a random starting state.
        #[test]
        fn table_kernel_matches_the_bitwise_oracle(
            bytes in prop::collection::vec(any::<u8>(), 0..2100),
            start in any::<u32>(),
        ) {
            for len in bytes.len().saturating_sub(8)..=bytes.len() {
                let prefix = bytes.get(..len).unwrap_or(&[]);
                for crc in [0, start] {
                    prop_assert_eq!(crc32(crc, prefix), oracle::crc32(crc, prefix), "len {}", len);
                }
            }
        }

        /// `crc32(crc32(c, a), b) == crc32(c, a‖b)` at every split,
        /// block-aligned or not.
        #[test]
        fn table_kernel_is_incremental_at_every_split(
            bytes in prop::collection::vec(any::<u8>(), 0..300),
            start in any::<u32>(),
        ) {
            let whole = crc32(start, &bytes);
            prop_assert_eq!(whole, oracle::crc32(start, &bytes));
            for at in 0..=bytes.len() {
                let (a, b) = bytes.split_at(at);
                prop_assert_eq!(crc32(crc32(start, a), b), whole, "split at {}", at);
            }
        }
    }

    #[test]
    fn every_single_byte_matches_the_oracle() {
        for b in 0..=u8::MAX {
            for crc in [0, 1, 0x8000_0000, 0xFFFF_FFFF, 0xCBF4_3926] {
                assert_eq!(
                    crc32(crc, &[b]),
                    oracle::crc32(crc, &[b]),
                    "byte {b:#04x} from {crc:#x}"
                );
            }
        }
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
        assert!(em.score_batch_f32(&[]).unwrap().is_empty());
    }

    #[test]
    fn ragged_batch_rejected_with_typed_error() {
        let (scaler, svm, _) = trained();
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        assert_eq!(
            em.score_batch_f32(&[1.0, 2.0]),
            Err(MlError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        );
        assert_eq!(
            em.score_batch_f32(&[1.0, 2.0, 3.0, 4.0]),
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
        let batched = em.score_batch_f32(&flat).unwrap();
        assert_eq!(batched.len(), rows);
        for (b, row) in batched.iter().zip(flat.chunks_exact(em.dim())) {
            assert_eq!(b.to_bits(), em.score_f32(row).to_bits());
        }
    }

    /// A decision value of exactly `+0.0`, `-0.0` or NaN is not an
    /// attack, and the label is the sign rule's on the score.
    #[test]
    fn zero_and_nan_scores_predict_negative() {
        use crate::DetectorBackend;
        let model = |w: f32, bias: f32| EmbeddedModel {
            weights: vec![w],
            bias,
            means: vec![0.0],
            inv_stds: vec![1.0],
        };
        for (m, want) in [
            (model(0.0, 0.0), 0.0f32),
            (model(-0.0, -0.0), -0.0),
            (model(0.0, f32::NAN), f32::NAN),
        ] {
            let score = DetectorBackend::score_f32(&m, &[1.0]);
            assert_eq!(score.to_bits(), want.to_bits());
            let label = DetectorBackend::predict_f32(&m, &[1.0]);
            assert_eq!(label, Label::Negative, "score {score:?}");
            assert_eq!(label, Label::from_sign(f64::from(score)));
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
