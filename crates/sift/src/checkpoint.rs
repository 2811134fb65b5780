//! Serializable detector state for crash-consistent persistence.
//!
//! A [`DetectorCheckpoint`] is everything the base station needs to
//! resume detection after a brownout-reboot *without re-enrollment*:
//! the deployed flavor, the stream position (windows seen, alerts
//! raised), and the enrolled model via its backend's versioned,
//! CRC-guarded codec. The byte format is a fixed 16-byte header
//! followed by the model blob:
//!
//! | offset | bytes | field |
//! |--------|-------|---------------------------------|
//! | 0      | 1     | checkpoint format version (1)   |
//! | 1      | 1     | detector version tag (0/1/2)    |
//! | 2      | 2     | reserved (zero)                 |
//! | 4      | 4     | windows seen, `u32` LE          |
//! | 8      | 4     | alerts raised, `u32` LE         |
//! | 12     | 4     | model blob length, `u32` LE     |
//! | 16     | …     | backend model bytes (by magic)  |
//!
//! The model blob is self-describing: decoding dispatches on the
//! backend magic (`SIFTMDL` → SVM codec v2, `SIFTTSM` → Tsetlin codec
//! v1), so an SVM-era checkpoint's bytes are unchanged and a Tsetlin
//! checkpoint reuses the identical container.
//!
//! End-to-end integrity comes from two layers: the NVRAM slot CRC in
//! `amulet_sim::nvram` covers the whole payload, and the model blob
//! carries its own format version + CRC, so a stale or bit-rotted model
//! is rejected with a typed error even if it arrives by some other
//! path. This module runs inside the power-fail window, so it follows
//! the embedded profile (no heap, no panics, no floats, no unchecked
//! indexing) — certified by the analyzer's `ckpt-embedded-profile`
//! rule.

use crate::features::Version;
use crate::SiftError;
use ml::{DetectorBackend, DetectorModel};

/// Version byte of the checkpoint container format itself.
pub const FORMAT_VERSION: u8 = 1;

/// Fixed header size preceding the model blob.
pub const HEADER_BYTES: usize = 16;

/// Exact encoded size of a checkpoint for an **SVM** detector flavor
/// (the historical layout; other backends size via the instance method
/// [`DetectorCheckpoint::encoded_len`]).
pub fn encoded_len(version: Version) -> usize {
    HEADER_BYTES + ml::embedded::encoded_len(version.feature_count())
}

/// Copy `src` into `out` at `*at`, advancing the cursor; stops at the
/// end of `out` (callers pre-check the buffer length).
fn put(out: &mut [u8], at: &mut usize, src: &[u8]) {
    for (dst, &b) in out.iter_mut().skip(*at).zip(src.iter()) {
        *dst = b;
        *at += 1;
    }
}

/// Read a little-endian `u32` at `at` (zero-padded past the end).
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    for &b in bytes.iter().skip(at).take(4) {
        v |= u32::from(b) << shift;
        shift += 8;
    }
    v
}

fn version_tag(version: Version) -> u8 {
    match version {
        Version::Original => 0,
        Version::Simplified => 1,
        Version::Reduced => 2,
    }
}

fn version_from_tag(tag: u8) -> Option<Version> {
    match tag {
        0 => Some(Version::Original),
        1 => Some(Version::Simplified),
        2 => Some(Version::Reduced),
        _ => None,
    }
}

/// The detector state a base station checkpoints to NVRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorCheckpoint {
    /// Deployed detector flavor.
    pub version: Version,
    /// Windows dispatched to the detector so far (stream position).
    pub windows_seen: u32,
    /// Alerts the detector has raised so far.
    pub alerts_raised: u32,
    /// The enrolled per-user model, any registered backend.
    pub model: DetectorModel,
}

impl DetectorCheckpoint {
    /// A fresh checkpoint at stream position zero.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::Checkpoint`] when the model dimension does
    /// not match the flavor's feature count.
    pub fn new(version: Version, model: impl Into<DetectorModel>) -> Result<Self, SiftError> {
        let model = model.into();
        if model.dim() != version.feature_count() {
            return Err(SiftError::Checkpoint {
                reason: "model dimension does not match detector version",
            });
        }
        Ok(Self {
            version,
            windows_seen: 0,
            alerts_raised: 0,
            model,
        })
    }

    /// Exact encoded size of this checkpoint (header plus the deployed
    /// backend's own blob size).
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES + self.model.footprint_bytes()
    }

    /// Serialize into a caller-provided buffer, returning the bytes
    /// written. Heap-free: the persistence layer reuses one buffer for
    /// every commit.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::Checkpoint`] when `out` is too small, and
    /// propagates model-codec errors.
    pub fn encode_into(&self, out: &mut [u8]) -> Result<usize, SiftError> {
        let needed = self.encoded_len();
        if out.len() < needed {
            return Err(SiftError::Checkpoint {
                reason: "encode buffer too small",
            });
        }
        let tail = out.get_mut(HEADER_BYTES..).ok_or(SiftError::Checkpoint {
            reason: "encode buffer too small",
        })?;
        self.model.encode_into(tail)?;
        self.encode_header_into(out)
    }

    /// Rewrite only the 16-byte header, leaving the model blob after it
    /// untouched, and return the full encoded length. When `out` already
    /// holds an [`DetectorCheckpoint::encode_into`] of this checkpoint's
    /// model, the result is byte-identical to a full encode, at no model
    /// codec or CRC cost: the persistence layer calls this on every
    /// commit and re-encodes the blob only when the model changes.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::Checkpoint`] when `out` is too small.
    pub fn encode_header_into(&self, out: &mut [u8]) -> Result<usize, SiftError> {
        let model_len = self.model.footprint_bytes();
        if out.len() < HEADER_BYTES + model_len {
            return Err(SiftError::Checkpoint {
                reason: "encode buffer too small",
            });
        }
        let mut at = 0;
        put(out, &mut at, &[FORMAT_VERSION, version_tag(self.version), 0, 0]);
        put(out, &mut at, &self.windows_seen.to_le_bytes());
        put(out, &mut at, &self.alerts_raised.to_le_bytes());
        put(out, &mut at, &(model_len as u32).to_le_bytes());
        Ok(HEADER_BYTES + model_len)
    }

    /// Decode a checkpoint previously produced by
    /// [`DetectorCheckpoint::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::Checkpoint`] for container framing
    /// violations, and propagates typed model-codec errors
    /// (`UnsupportedModelVersion`, checksum mismatch, …) via
    /// [`SiftError::Ml`].
    pub fn decode(bytes: &[u8]) -> Result<Self, SiftError> {
        if bytes.len() < HEADER_BYTES {
            return Err(SiftError::Checkpoint {
                reason: "too short for header",
            });
        }
        let fmt = bytes.iter().next().copied().unwrap_or(0);
        if fmt != FORMAT_VERSION {
            return Err(SiftError::Checkpoint {
                reason: "unsupported checkpoint format version",
            });
        }
        let tag = bytes.get(1).copied().unwrap_or(u8::MAX);
        let Some(version) = version_from_tag(tag) else {
            return Err(SiftError::Checkpoint {
                reason: "unknown detector version tag",
            });
        };
        let windows_seen = read_u32(bytes, 4);
        let alerts_raised = read_u32(bytes, 8);
        let model_len = read_u32(bytes, 12) as usize;
        if bytes.len() != HEADER_BYTES + model_len {
            return Err(SiftError::Checkpoint {
                reason: "length does not match model blob",
            });
        }
        let model_bytes = bytes.get(HEADER_BYTES..).ok_or(SiftError::Checkpoint {
            reason: "too short for header",
        })?;
        let model = DetectorModel::decode(model_bytes)?;
        if model.dim() != version.feature_count() {
            return Err(SiftError::Checkpoint {
                reason: "model dimension does not match detector version",
            });
        }
        Ok(Self {
            version,
            windows_seen,
            alerts_raised,
            model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SiftConfig;
    use crate::trainer::train_for_subject;
    use ml::embedded::EmbeddedModel;
    use physio_sim::subject::bank;

    fn quick_config() -> SiftConfig {
        SiftConfig {
            train_s: 60.0,
            max_positive_per_donor: Some(15),
            ..SiftConfig::default()
        }
    }

    fn model(version: Version) -> EmbeddedModel {
        train_for_subject(&bank(), 0, version, &quick_config(), 77)
            .unwrap()
            .embedded()
            .clone()
    }

    fn sample(version: Version) -> DetectorCheckpoint {
        let mut ckpt = DetectorCheckpoint::new(version, model(version)).unwrap();
        ckpt.windows_seen = 41;
        ckpt.alerts_raised = 7;
        ckpt
    }

    #[test]
    fn round_trip_every_flavor() {
        for &version in Version::ALL.iter() {
            let ckpt = sample(version);
            let mut buf = vec![0u8; ckpt.encoded_len()];
            let n = ckpt.encode_into(&mut buf).unwrap();
            assert_eq!(n, encoded_len(version));
            let back = DetectorCheckpoint::decode(&buf[..n]).unwrap();
            assert_eq!(back, ckpt);
        }
    }

    #[test]
    fn header_rewrite_matches_a_full_encode() {
        for &version in Version::ALL.iter() {
            let mut ckpt = sample(version);
            let mut buf = vec![0u8; ckpt.encoded_len()];
            ckpt.encode_into(&mut buf).unwrap();
            ckpt.windows_seen = 1234;
            ckpt.alerts_raised = 56;
            let n = ckpt.encode_header_into(&mut buf).unwrap();
            let mut full = vec![0u8; ckpt.encoded_len()];
            assert_eq!(ckpt.encode_into(&mut full).unwrap(), n);
            assert_eq!(buf, full);
            let mut short = vec![0u8; n - 1];
            assert!(matches!(
                ckpt.encode_header_into(&mut short),
                Err(SiftError::Checkpoint { .. })
            ));
        }
    }

    #[test]
    fn tsetlin_model_rides_the_same_container() {
        // A second-backend model round-trips through the identical
        // 16-byte container; decode dispatches on the blob magic.
        let version = Version::Reduced;
        let dim = version.feature_count();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let t = i as f32 * 0.03;
            rows.extend(std::iter::repeat(t).take(dim));
            labels.push(ml::Label::Negative);
            rows.extend(std::iter::repeat(1.5 + t).take(dim));
            labels.push(ml::Label::Positive);
        }
        let tm = ml::tsetlin::TsetlinTrainer::default()
            .fit(dim, &rows, &labels)
            .unwrap();
        let mut ckpt = DetectorCheckpoint::new(version, tm).unwrap();
        ckpt.windows_seen = 9;
        let mut buf = vec![0u8; ckpt.encoded_len()];
        let n = ckpt.encode_into(&mut buf).unwrap();
        assert_eq!(n, ckpt.encoded_len());
        let back = DetectorCheckpoint::decode(&buf[..n]).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.model.kind(), ml::BackendKind::Tsetlin);
    }

    #[test]
    fn new_rejects_dimension_mismatch() {
        assert!(matches!(
            DetectorCheckpoint::new(Version::Reduced, model(Version::Original)),
            Err(SiftError::Checkpoint { .. })
        ));
    }

    #[test]
    fn short_buffer_rejected_on_encode() {
        let ckpt = sample(Version::Simplified);
        let mut buf = vec![0u8; ckpt.encoded_len() - 1];
        assert!(matches!(
            ckpt.encode_into(&mut buf),
            Err(SiftError::Checkpoint { .. })
        ));
    }

    #[test]
    fn framing_violations_rejected_on_decode() {
        let ckpt = sample(Version::Simplified);
        let mut buf = vec![0u8; ckpt.encoded_len()];
        let n = ckpt.encode_into(&mut buf).unwrap();

        assert!(DetectorCheckpoint::decode(&buf[..HEADER_BYTES - 1]).is_err());
        assert!(DetectorCheckpoint::decode(&buf[..n - 1]).is_err());

        let mut bad_fmt = buf.clone();
        bad_fmt[0] = 9;
        assert!(matches!(
            DetectorCheckpoint::decode(&bad_fmt),
            Err(SiftError::Checkpoint { .. })
        ));

        let mut bad_tag = buf.clone();
        bad_tag[1] = 200;
        assert!(matches!(
            DetectorCheckpoint::decode(&bad_tag),
            Err(SiftError::Checkpoint { .. })
        ));
    }

    #[test]
    fn flavor_swap_is_caught_by_dimension_check() {
        // Tamper the tag from simplified (8 features) to reduced (5):
        // the model still decodes, but the dimension check refuses to
        // resume the wrong flavor with it.
        let ckpt = sample(Version::Simplified);
        let mut buf = vec![0u8; ckpt.encoded_len()];
        let n = ckpt.encode_into(&mut buf).unwrap();
        buf[1] = 2;
        assert_eq!(
            DetectorCheckpoint::decode(&buf[..n]),
            Err(SiftError::Checkpoint {
                reason: "model dimension does not match detector version"
            })
        );
    }

    #[test]
    fn model_bit_rot_surfaces_as_typed_ml_error() {
        let ckpt = sample(Version::Reduced);
        let mut buf = vec![0u8; ckpt.encoded_len()];
        let n = ckpt.encode_into(&mut buf).unwrap();
        // Flip a bit inside the model blob's float region.
        buf[HEADER_BYTES + ml::embedded::HEADER_BYTES + 3] ^= 0x10;
        assert!(matches!(
            DetectorCheckpoint::decode(&buf[..n]),
            Err(SiftError::Ml(ml::MlError::MalformedModel { .. }))
        ));
    }

    #[test]
    fn stale_model_version_inside_checkpoint_is_typed() {
        let ckpt = sample(Version::Reduced);
        let mut buf = vec![0u8; ckpt.encoded_len()];
        let n = ckpt.encode_into(&mut buf).unwrap();
        // Overwrite the embedded model's version byte with the retired
        // v1 tag — and fix nothing else, so the CRC now fails too; the
        // version check comes first and wins.
        buf[HEADER_BYTES + 7] = b'1';
        assert_eq!(
            DetectorCheckpoint::decode(&buf[..n]),
            Err(SiftError::Ml(ml::MlError::UnsupportedModelVersion {
                found: b'1'
            }))
        );
    }
}
