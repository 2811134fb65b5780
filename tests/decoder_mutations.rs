//! One mutation harness for the decoders that read FRAM bytes: the SVM
//! codec (`SIFTMDL`), the Tsetlin codec (`SIFTTSM`), the detector
//! checkpoint container, and the A/B checkpoint store's restore.
//!
//! Each decoder gets the same mutations of a valid encoding: truncation
//! to a proper prefix, one flipped bit, and arbitrary bytes of any
//! length (the store, whose region has a fixed size, gets the bit
//! flips). The oracle is the same for all: the decoder returns one of
//! the typed errors its documentation names, or a value that re-encodes
//! to exactly the bytes it read. A panic fails the case. Where a CRC
//! covers the mutated bytes, the tests also require the error.

use amulet_sim::nvram::{CheckpointStore, Restore, SLOT_BYTES};
use ml::embedded::EmbeddedModel;
use ml::tsetlin::{TsetlinModel, TsetlinTrainer, MAX_CLAUSE_PAIRS, MAX_FEATURES};
use ml::{BackendKind, DetectorModel, Label, MlError};
use physio_sim::subject::bank;
use proptest::prelude::*;
use sift::checkpoint::DetectorCheckpoint;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::SiftError;
use sift::zoo::train_backend_for_subject;
use std::fmt::Debug;
use std::sync::OnceLock;

/// One mutation of a valid encoding. Offsets are taken modulo the
/// encoding's length when applied, so one strategy serves every codec.
#[derive(Debug, Clone)]
enum Mutation {
    /// Keep a proper prefix.
    Truncate(usize),
    /// Flip one bit of one byte.
    FlipBit { byte: usize, bit: u8 },
    /// Replace the encoding with these bytes.
    Arbitrary(Vec<u8>),
}

impl Mutation {
    fn apply(&self, valid: &[u8]) -> Vec<u8> {
        match self {
            Mutation::Truncate(n) => valid[..n % valid.len()].to_vec(),
            Mutation::FlipBit { byte, bit } => {
                let mut out = valid.to_vec();
                out[byte % valid.len()] ^= 1 << bit;
                out
            }
            Mutation::Arbitrary(bytes) => bytes.clone(),
        }
    }

    /// Whether the mutation keeps the encoding's framing and damages
    /// bytes the codec must notice (everything but arbitrary bytes).
    fn is_damage(&self) -> bool {
        !matches!(self, Mutation::Arbitrary(_))
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (
        0u8..3,
        any::<usize>(),
        0u8..8,
        prop::collection::vec(any::<u8>(), 0..700),
    )
        .prop_map(|(kind, at, bit, bytes)| match kind {
            0 => Mutation::Truncate(at),
            1 => Mutation::FlipBit { byte: at, bit },
            _ => Mutation::Arbitrary(bytes),
        })
}

/// The oracle. `decoded` is what the decoder made of `input`: an error
/// passes if `is_typed` holds for it, and an accepted value must
/// re-encode to `input` byte for byte. Returns whether the input was
/// accepted.
fn oracle<T, E: Debug>(
    what: &str,
    input: &[u8],
    decoded: Result<T, E>,
    is_typed: fn(&E) -> bool,
    reencode: impl FnOnce(&T) -> Vec<u8>,
) -> bool {
    match decoded {
        Err(e) => {
            assert!(is_typed(&e), "{what}: rejected with an undocumented error {e:?}");
            false
        }
        Ok(value) => {
            assert_eq!(
                reencode(&value),
                input,
                "{what}: accepted bytes that do not re-encode to themselves"
            );
            true
        }
    }
}

/// The errors both model codecs document for bytes they cannot decode.
fn is_codec_error(e: &MlError) -> bool {
    matches!(
        e,
        MlError::MalformedModel { .. } | MlError::UnsupportedModelVersion { .. }
    )
}

/// The checkpoint container's own framing error, or a model-codec error
/// it passes through.
fn is_checkpoint_error(e: &SiftError) -> bool {
    match e {
        SiftError::Checkpoint { .. } => true,
        SiftError::Ml(e) => is_codec_error(e),
        _ => false,
    }
}

fn quick_config() -> SiftConfig {
    SiftConfig {
        train_s: 60.0,
        max_positive_per_donor: Some(15),
        ..SiftConfig::default()
    }
}

/// The Simplified model of subject 0 for `kind`, trained once.
fn model(kind: BackendKind) -> &'static DetectorModel {
    static SVM: OnceLock<DetectorModel> = OnceLock::new();
    static TSETLIN: OnceLock<DetectorModel> = OnceLock::new();
    let cell = match kind {
        BackendKind::Svm => &SVM,
        BackendKind::Tsetlin => &TSETLIN,
    };
    cell.get_or_init(|| {
        train_backend_for_subject(&bank(), 0, Version::Simplified, kind, &quick_config(), 7)
            .unwrap()
    })
}

fn encode_checkpoint(ckpt: &DetectorCheckpoint) -> Vec<u8> {
    let mut out = vec![0u8; ckpt.encoded_len()];
    ckpt.encode_into(&mut out).unwrap();
    out
}

/// A detector checkpoint of `kind` at stream position `windows`.
fn checkpoint(kind: BackendKind, windows: u32) -> Vec<u8> {
    let mut ckpt = DetectorCheckpoint::new(Version::Simplified, model(kind).clone()).unwrap();
    ckpt.windows_seen = windows;
    ckpt.alerts_raised = windows / 10;
    encode_checkpoint(&ckpt)
}

fn svm_blob() -> Vec<u8> {
    match model(BackendKind::Svm) {
        DetectorModel::Svm(m) => m.encode(),
        other => panic!("expected an SVM model, got {other:?}"),
    }
}

/// A freshly trained Tsetlin blob per case: feature count, clause
/// pairs, seed and training rows are all drawn, so clause masks,
/// thresholds and blob length vary from case to case. Two clusters
/// far apart give training something to latch onto; one fixed row of
/// each class guarantees both are present.
fn tsetlin_blob() -> impl Strategy<Value = Vec<u8>> {
    // Every point draws `MAX_FEATURES` jitters; a case keeps `dim`.
    let point = (prop::collection::vec(-1.0f32..1.0, MAX_FEATURES), any::<bool>());
    (
        1..=MAX_FEATURES,
        1..=MAX_CLAUSE_PAIRS as u32,
        any::<u64>(),
        prop::collection::vec(point, 8..24),
    )
        .prop_map(|(dim, pairs, seed, points)| {
            let mut rows = Vec::with_capacity((points.len() + 2) * dim);
            let mut labels = Vec::with_capacity(points.len() + 2);
            for (jitter, positive) in &points {
                let center = if *positive { 3.0 } else { -3.0 };
                rows.extend(jitter.iter().take(dim).map(|j| center + j));
                labels.push(if *positive { Label::Positive } else { Label::Negative });
            }
            rows.extend(std::iter::repeat_n(3.5, dim));
            labels.push(Label::Positive);
            rows.extend(std::iter::repeat_n(-3.5, dim));
            labels.push(Label::Negative);
            let trainer = TsetlinTrainer {
                pairs,
                epochs: 8,
                seed,
                ..TsetlinTrainer::default()
            };
            trainer.fit(dim, &rows, &labels).unwrap().encode()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `SIFTMDL`: the CRC trailer and the exact-length check leave no
    /// truncation or bit flip undetected.
    #[test]
    fn svm_model_codec_survives_mutation(m in mutation()) {
        let input = m.apply(&svm_blob());
        let decoded = EmbeddedModel::decode(&input);
        let accepted = oracle("SIFTMDL", &input, decoded, is_codec_error, EmbeddedModel::encode);
        prop_assert!(!(accepted && m.is_damage()), "{:?} was accepted", m);
    }

    /// `SIFTTSM`: the same guarantee for the Tsetlin codec, on a newly
    /// trained model of random shape each case.
    #[test]
    fn tsetlin_model_codec_survives_mutation(blob in tsetlin_blob(), m in mutation()) {
        let input = m.apply(&blob);
        let decoded = TsetlinModel::decode(&input);
        let accepted = oracle("SIFTTSM", &input, decoded, is_codec_error, TsetlinModel::encode);
        prop_assert!(!(accepted && m.is_damage()), "{:?} was accepted", m);
    }

    /// The checkpoint container, around either backend's blob. Its
    /// stream counters carry no CRC of their own (the slot CRC covers
    /// them on FRAM), so a flipped counter bit may decode; everything
    /// else a truncation or flip touches must be rejected.
    #[test]
    fn detector_checkpoint_survives_mutation(m in mutation(), tsetlin in any::<bool>()) {
        let kind = if tsetlin { BackendKind::Tsetlin } else { BackendKind::Svm };
        let valid = checkpoint(kind, 30);
        let input = m.apply(&valid);
        let accepted = oracle(
            "checkpoint",
            &input,
            DetectorCheckpoint::decode(&input),
            is_checkpoint_error,
            encode_checkpoint,
        );
        let counter_flip = matches!(
            m,
            Mutation::FlipBit { byte, .. } if (4..12).contains(&(byte % valid.len()))
        );
        let tag_flip = matches!(m, Mutation::FlipBit { byte, .. } if byte % valid.len() == 1);
        if accepted && m.is_damage() {
            // A flipped version tag may name another 8-feature flavor;
            // recovery refuses it by version, and it re-encoded above.
            prop_assert!(counter_flip || tag_flip, "{:?} was accepted", m);
        }
    }

    /// The A/B store after one flipped bit in either slot's live bytes
    /// (header and the 420-byte payload) or just past them. It holds
    /// generations 2 (slot B) and 3 (slot A) of a Tsetlin checkpoint,
    /// so one flip always leaves a generation to restore. The slot CRC
    /// means that is exactly the payload committed at that generation,
    /// and the checkpoint it holds meets the oracle.
    #[test]
    fn checkpoint_store_restore_survives_a_flipped_byte(
        slot_b in any::<bool>(),
        offset in 0usize..448,
        bit in 0u8..8,
    ) {
        let payloads = [
            checkpoint(BackendKind::Tsetlin, 10),
            checkpoint(BackendKind::Tsetlin, 20),
            checkpoint(BackendKind::Tsetlin, 30),
        ];
        let mut store = CheckpointStore::new();
        for p in &payloads {
            store.commit(p).unwrap();
        }
        store.flip_bit(usize::from(slot_b) * SLOT_BYTES + offset, bit);
        let restored = store.restore();
        let Restore::Valid { generation, payload, .. } = restored else {
            panic!("one flipped bit must leave a generation to restore, got {restored:?}");
        };
        prop_assert!(generation == 2 || generation == 3, "generation {}", generation);
        prop_assert_eq!(payload, &payloads[generation as usize - 1][..]);
        let decoded = DetectorCheckpoint::decode(payload);
        prop_assert!(oracle(
            "restored checkpoint",
            payload,
            decoded,
            is_checkpoint_error,
            encode_checkpoint
        ));
    }
}

/// Every single-bit flip of every byte of the Tsetlin checkpoint, not a
/// sample: the container's rule (counters and version tag may decode
/// and re-encode, all else is rejected) holds at every position.
#[test]
fn every_bit_flip_of_a_tsetlin_checkpoint_meets_the_oracle() {
    let valid = checkpoint(BackendKind::Tsetlin, 30);
    for byte in 0..valid.len() {
        for bit in 0..8 {
            let m = Mutation::FlipBit { byte, bit };
            let input = m.apply(&valid);
            let accepted = oracle(
                "checkpoint",
                &input,
                DetectorCheckpoint::decode(&input),
                is_checkpoint_error,
                encode_checkpoint,
            );
            let header_field = byte == 1 || (4..12).contains(&byte);
            assert!(
                !accepted || header_field,
                "bit {bit} of byte {byte} was accepted"
            );
        }
    }
}
