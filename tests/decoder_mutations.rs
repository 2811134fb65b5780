//! One mutation harness for the decoders that read FRAM bytes: the SVM
//! codec (`SIFTMDL`), the Tsetlin codec (`SIFTTSM`), the detector
//! checkpoint container, the survival-policy suffix, the A/B checkpoint
//! store's restore, and `Persistence::recover` with survival
//! persistence on.
//!
//! Each decoder gets the same mutations of a valid encoding: truncation
//! to a proper prefix, one flipped bit, a lie in one of its length
//! fields, a magic or version tag swapped for another one the workspace
//! recognizes, and arbitrary bytes of any length (the store, whose
//! region has a fixed size, gets the bit flips). The oracle is the same
//! for all: the decoder returns one of the typed errors its
//! documentation names, or a value that re-encodes to exactly the bytes
//! it read. A panic fails the case. Where a CRC covers the mutated
//! bytes, the tests also require the error.

use amulet_sim::apps::SiftApp;
use amulet_sim::nvram::{CheckpointStore, Restore, SLOT_BYTES};
use ml::embedded::EmbeddedModel;
use ml::tsetlin::{TsetlinModel, TsetlinTrainer, MAX_CLAUSE_PAIRS, MAX_FEATURES};
use ml::{BackendKind, DetectorBackend, DetectorModel, Label, MlError};
use physio_sim::subject::bank;
use proptest::prelude::*;
use sift::checkpoint::DetectorCheckpoint;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::SiftError;
use sift::zoo::train_backend_for_subject;
use std::fmt::Debug;
use std::sync::OnceLock;
use wiot::basestation::BaseStation;
use wiot::faults::FaultSummary;
use wiot::persist::{decode_survival, encode_survival, Persistence, SURVIVAL_SNAPSHOT_BYTES};
use wiot::survival::{SurvivalConfig, SurvivalPolicy, SurvivalSnapshot};
use wiot::WiotError;

/// Every one-byte tag the decoders recognize: detector version tags,
/// checkpoint format 1, SVM codec 1 (retired) and 2, Tsetlin codec 1.
const ONE_BYTE_TAGS: &[&[u8]] = &[&[0], &[1], &[2]];

const MODEL_MAGICS: &[&[u8]] = &[
    ml::embedded::MAGIC.as_slice(),
    ml::tsetlin::MAGIC.as_slice(),
];

/// Where an encoding keeps its framing fields, for the named mutations:
/// the offsets of its `u32` length fields, and of its tags with the
/// values that may sit there.
#[derive(Default)]
struct Layout {
    lengths: Vec<usize>,
    tags: Vec<(usize, &'static [&'static [u8]])>,
}

impl Layout {
    /// A model blob's at byte `at`: magic, version byte, dimension, and
    /// a Tsetlin blob's clause pairs.
    fn model(kind: BackendKind, at: usize) -> Layout {
        let mut lengths = vec![at + 8];
        if kind == BackendKind::Tsetlin {
            lengths.push(at + 12);
        }
        let tags = vec![(at, MODEL_MAGICS), (at + 7, ONE_BYTE_TAGS)];
        Layout { lengths, tags }
    }

    /// The checkpoint container's: format byte, version tag and blob
    /// length, then the blob's from byte 16.
    fn checkpoint(kind: BackendKind) -> Layout {
        let mut layout = Layout::model(kind, 16);
        layout.lengths.push(12);
        layout.tags.extend([(0, ONE_BYTE_TAGS), (1, ONE_BYTE_TAGS)]);
        layout
    }

    /// Plus a survival suffix at byte `at`: a version tag, no length.
    fn with_survival_suffix(mut self, at: usize) -> Layout {
        self.tags.push((at, ONE_BYTE_TAGS));
        self
    }
}

/// One mutation of a valid encoding. Offsets and field indices are
/// taken modulo what the encoding has when applied, so one strategy
/// serves every codec.
#[derive(Debug, Clone)]
enum Mutation {
    /// Keep a proper prefix.
    Truncate(usize),
    /// Flip one bit of one byte.
    FlipBit { byte: usize, bit: u8 },
    /// Add `delta` to one length field.
    LieLength { field: usize, delta: i32 },
    /// Overwrite one tag field with one of its recognized values.
    SwapTag { field: usize, to: usize },
    /// Replace the encoding with these bytes.
    Arbitrary(Vec<u8>),
}

impl Mutation {
    fn apply(&self, valid: &[u8], layout: &Layout) -> Vec<u8> {
        let mut out = valid.to_vec();
        match self {
            Mutation::Truncate(n) => out.truncate(n % valid.len()),
            Mutation::FlipBit { byte, bit } => out[byte % valid.len()] ^= 1 << bit,
            Mutation::LieLength { field, delta } => {
                if let Some(&at) = layout.lengths.get(field % layout.lengths.len().max(1)) {
                    let value = u32::from_le_bytes(out[at..at + 4].try_into().unwrap());
                    out[at..at + 4]
                        .copy_from_slice(&value.wrapping_add_signed(*delta).to_le_bytes());
                }
            }
            Mutation::SwapTag { field, to } => {
                if let Some(&(at, values)) = layout.tags.get(field % layout.tags.len().max(1)) {
                    let value = values[to % values.len()];
                    out[at..at + value.len()].copy_from_slice(value);
                }
            }
            Mutation::Arbitrary(bytes) => out.clone_from(bytes),
        }
        out
    }
}

/// Whether `input`, made by `m` from `valid`, is damage the decoder
/// must notice: not arbitrary bytes (they may even be valid), nor a
/// mutation that changed nothing or only bytes `unguarded` holds for.
fn is_damage(m: &Mutation, valid: &[u8], input: &[u8], unguarded: impl Fn(usize) -> bool) -> bool {
    if matches!(m, Mutation::Arbitrary(_)) || input == valid {
        return false;
    }
    input.len() != valid.len() || (0..valid.len()).any(|i| input[i] != valid[i] && !unguarded(i))
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (
        0u8..5,
        any::<usize>(),
        0u8..8,
        -16i32..17,
        prop::collection::vec(any::<u8>(), 0..700),
    )
        .prop_map(|(kind, at, bit, delta, bytes)| match kind {
            0 => Mutation::Truncate(at),
            1 => Mutation::FlipBit { byte: at, bit },
            2 => Mutation::LieLength { field: at, delta },
            3 => Mutation::SwapTag {
                field: at,
                to: usize::from(bit),
            },
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

/// The survival codec's one error, for any bytes it cannot decode.
fn is_survival_error(e: &WiotError) -> bool {
    matches!(e, WiotError::InvalidScenario { .. })
}

/// The refusals `Persistence::recover` documents: a counted failure
/// (`None`), or a platform error from redeploying the restored build.
fn is_recovery_refusal(e: &Option<WiotError>) -> bool {
    e.as_ref().is_none_or(|e| matches!(e, WiotError::Amulet(_)))
}

/// The detector checkpoint's header bytes no checksum covers: the
/// version tag and the two stream counters.
fn checkpoint_unguarded(i: usize) -> bool {
    i == 1 || (4..12).contains(&i)
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

/// A fresh Simplified policy's survival snapshot.
fn fresh_snapshot() -> SurvivalSnapshot {
    SurvivalPolicy::new(SurvivalConfig::default(), Version::Simplified).snapshot()
}

/// A valid survival snapshot with its duty cycle, counters and link
/// state drawn.
fn survival_snapshot() -> impl Strategy<Value = SurvivalSnapshot> {
    let fields = (any::<u32>(), any::<u32>(), 0u16..1001, any::<bool>());
    (fields, 1u8..=255, any::<u8>()).prop_map(|((tick, last, ewma, capped), of, skip)| {
        SurvivalSnapshot {
            duty_skip: skip % of,
            duty_of: of,
            link_capped: capped,
            tick,
            last_switch_tick: last,
            link_ewma_permille: ewma,
            ..fresh_snapshot()
        }
    })
}

/// Commit `valid` (what a survival-enabled Simplified detector of `kind`
/// commits with `snap` at 30 windows and 3 alerts) through `Persistence`,
/// rot the slot into a CRC-valid image of `forged` by flipping every bit
/// where a store holding `forged` differs from one holding `valid`, then
/// reboot and recover. A refusal is `Err(None)`.
fn recover_forged(
    kind: BackendKind,
    snap: SurvivalSnapshot,
    valid: &[u8],
    forged: &[u8],
) -> Result<(DetectorCheckpoint, SurvivalSnapshot), Option<WiotError>> {
    let cfg = quick_config();
    let app = SiftApp::new(Version::Simplified, model(kind).clone(), cfg.clone()).unwrap();
    let mut station = BaseStation::new(app, cfg.clone(), 0.5).unwrap();
    let mut engine = Persistence::new(Version::Simplified, model(kind).clone()).unwrap();
    engine.enable_survival(snap);
    engine.reserve(&mut station).unwrap();
    engine.commit(30, 3).unwrap();
    let (mut was, mut now) = (CheckpointStore::new(), CheckpointStore::new());
    was.commit(valid).unwrap();
    now.commit(forged).unwrap();
    for (byte, (a, b)) in was.region().iter().zip(now.region()).enumerate() {
        for bit in (0..8).filter(|bit| (a ^ b) >> bit & 1 == 1) {
            engine.flip_bit(byte, bit);
        }
    }
    station.reboot();
    let mut summary = FaultSummary::default();
    let recovered = engine.recover(&mut station, &cfg, &mut summary);
    match recovered.map_err(Some)? {
        true => Ok((engine.snapshot().clone(), engine.survival().unwrap())),
        false => {
            assert_eq!(summary.recovery_failures, 1, "a refusal is counted");
            Err(None)
        }
    }
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
    /// truncation, bit flip, length lie or tag swap undetected.
    #[test]
    fn svm_model_codec_survives_mutation(m in mutation()) {
        let valid = svm_blob();
        let input = m.apply(&valid, &Layout::model(BackendKind::Svm, 0));
        let decoded = EmbeddedModel::decode(&input);
        let accepted = oracle("SIFTMDL", &input, decoded, is_codec_error, EmbeddedModel::encode);
        let damage = is_damage(&m, &valid, &input, |_| false);
        prop_assert!(!(accepted && damage), "{:?} was accepted", m);
    }

    /// `SIFTTSM`: the same guarantee for the Tsetlin codec, on a newly
    /// trained model of random shape each case.
    #[test]
    fn tsetlin_model_codec_survives_mutation(blob in tsetlin_blob(), m in mutation()) {
        let input = m.apply(&blob, &Layout::model(BackendKind::Tsetlin, 0));
        let decoded = TsetlinModel::decode(&input);
        let accepted = oracle("SIFTTSM", &input, decoded, is_codec_error, TsetlinModel::encode);
        let damage = is_damage(&m, &blob, &input, |_| false);
        prop_assert!(!(accepted && damage), "{:?} was accepted", m);
    }

    /// The checkpoint container, around either backend's blob. Its
    /// stream counters carry no CRC of their own (the slot CRC covers
    /// them on FRAM), so a changed counter may decode, and so may a
    /// version tag naming another 8-feature flavor (recovery refuses it
    /// by version, and it re-encoded above); every other byte a
    /// mutation touches must be rejected.
    #[test]
    fn detector_checkpoint_survives_mutation(m in mutation(), tsetlin in any::<bool>()) {
        let kind = if tsetlin { BackendKind::Tsetlin } else { BackendKind::Svm };
        let valid = checkpoint(kind, 30);
        let input = m.apply(&valid, &Layout::checkpoint(kind));
        let accepted = oracle(
            "checkpoint",
            &input,
            DetectorCheckpoint::decode(&input),
            is_checkpoint_error,
            encode_checkpoint,
        );
        let damage = is_damage(&m, &valid, &input, checkpoint_unguarded);
        prop_assert!(!(accepted && damage), "{:?} was accepted", m);
    }

    /// The survival suffix has no checksum either (the slot CRC covers
    /// it on FRAM), so a changed byte may decode, but only to a
    /// snapshot that re-encodes to it; a wrong length never decodes.
    #[test]
    fn survival_suffix_codec_survives_mutation(snap in survival_snapshot(), m in mutation()) {
        let valid = encode_survival(&snap);
        let input = m.apply(&valid, &Layout::default().with_survival_suffix(0));
        let accepted = oracle(
            "survival suffix",
            &input,
            decode_survival(&input),
            is_survival_error,
            |s| encode_survival(s).to_vec(),
        );
        let damage = is_damage(&m, &valid, &input, |_| true);
        prop_assert!(!(accepted && damage), "{:?} was accepted", m);
    }

    /// `Persistence::recover` with survival persistence on, after FRAM
    /// rot rewrote the newest slot into a CRC-valid image of the
    /// mutated payload (detector checkpoint, then survival suffix).
    /// Recovery either refuses it, counted, or restores a checkpoint and
    /// policy state that re-encode to it. Only the bytes no codec
    /// checksum covers may change and still be restored.
    #[test]
    fn survival_recovery_survives_mutation(
        m in mutation(),
        tsetlin in any::<bool>(),
        snap in survival_snapshot(),
    ) {
        let kind = if tsetlin { BackendKind::Tsetlin } else { BackendKind::Svm };
        let valid = [checkpoint(kind, 30), encode_survival(&snap).to_vec()].concat();
        let at = valid.len() - SURVIVAL_SNAPSHOT_BYTES;
        let input = m.apply(&valid, &Layout::checkpoint(kind).with_survival_suffix(at));
        let accepted = oracle(
            "survival recovery",
            &input,
            recover_forged(kind, snap, &valid, &input),
            is_recovery_refusal,
            |(ckpt, snap)| [encode_checkpoint(ckpt), encode_survival(snap).to_vec()].concat(),
        );
        let damage = is_damage(&m, &valid, &input, |i| checkpoint_unguarded(i) || i >= at);
        prop_assert!(!(accepted && damage), "{:?} was accepted", m);
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
    let layout = Layout::checkpoint(BackendKind::Tsetlin);
    for byte in 0..valid.len() {
        for bit in 0..8 {
            let m = Mutation::FlipBit { byte, bit };
            let input = m.apply(&valid, &layout);
            let accepted = oracle(
                "checkpoint",
                &input,
                DetectorCheckpoint::decode(&input),
                is_checkpoint_error,
                encode_checkpoint,
            );
            assert!(
                !(accepted && is_damage(&m, &valid, &input, checkpoint_unguarded)),
                "bit {bit} of byte {byte} was accepted"
            );
        }
    }
}

/// The forging in `recover_forged` reaches recovery: an unchanged
/// payload restores itself, and one with other counters and another
/// policy tick restores exactly those.
#[test]
fn forged_slot_is_what_survival_recovery_restores() {
    let svm = BackendKind::Svm;
    let snap = fresh_snapshot();
    let later = SurvivalSnapshot { tick: 91, ..snap };
    let valid = [checkpoint(svm, 30), encode_survival(&snap).to_vec()].concat();
    let forged = [checkpoint(svm, 40), encode_survival(&later).to_vec()].concat();
    let (ckpt, restored) = recover_forged(svm, snap, &valid, &valid).unwrap();
    assert_eq!((ckpt.windows_seen, restored), (30, snap));
    let (ckpt, restored) = recover_forged(svm, snap, &valid, &forged).unwrap();
    assert_eq!((ckpt.windows_seen, ckpt.alerts_raised, restored), (40, 4, later));
}
