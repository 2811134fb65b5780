//! Crash-consistent persistence for the base station.
//!
//! [`Persistence`] glues the detector's serializable state
//! ([`sift::checkpoint::DetectorCheckpoint`]) to the simulated FRAM
//! checkpoint store ([`amulet_sim::nvram::CheckpointStore`]): every
//! scenario tick commits a fresh generation into the A/B slots, and
//! after a brownout reboot [`Persistence::recover`] rebuilds the
//! detector app from the newest CRC-verified checkpoint — resuming
//! detection *without re-enrollment*. A torn commit (power lost
//! mid-write) or a bit-rotted slot is detected by the slot CRC and the
//! restore rolls back to the previous generation; a checkpoint that
//! decodes but carries the wrong flavor or backend family, or a stale
//! model format, is rejected with a typed error and counted as a
//! recovery failure — never silently accepted.
//!
//! The module also provides a fixed 16-byte codec for the survival
//! policy's [`crate::survival::SurvivalSnapshot`], the version-switching
//! state a deployment persists alongside the detector checkpoint. With
//! [`Persistence::enable_survival`], every commit appends the policy
//! state to the detector payload, and the same
//! [`Persistence::recover`] restores *both* after a brownout (the
//! policy state through [`Persistence::survival`]) — including
//! hot-swapping the detector build when the checkpointed version
//! differs from the one currently installed.

use crate::basestation::BaseStation;
use crate::faults::FaultSummary;
use crate::survival::SurvivalSnapshot;
use crate::WiotError;
use amulet_sim::apps::SiftApp;
use amulet_sim::nvram::{CheckpointStore, Restore, NVRAM_BYTES};
use ml::embedded::{LeReader, LeWriter};
use ml::{DetectorBackend, DetectorModel};
use sift::checkpoint::{version_from_tag, version_tag, DetectorCheckpoint};
use sift::config::SiftConfig;
use sift::features::Version;

/// Encoded size of a [`SurvivalSnapshot`]: version tag, four knob
/// bytes, a flags byte, two 4-byte tick counters, and the 2-byte
/// link EWMA.
pub const SURVIVAL_SNAPSHOT_BYTES: usize = 16;

/// The base station's persistence engine: one reusable encode buffer,
/// the live snapshot, and the simulated FRAM store.
///
/// The buffer keeps the snapshot's encoded model blob between commits.
/// A commit rewrites only the 16-byte checkpoint header (and the
/// survival suffix); the blob, whose codec runs its own CRC, is
/// re-encoded only after the snapshot's model changed.
#[derive(Debug, Clone)]
pub struct Persistence {
    store: CheckpointStore,
    snapshot: DetectorCheckpoint,
    buf: Vec<u8>,
    /// Whether `buf` holds the encoded model blob of `snapshot`.
    blob_fresh: bool,
    /// When set, every commit appends this policy snapshot to the
    /// detector payload (and recovery restores it). `None` keeps the
    /// committed bytes identical to a pre-survival build.
    survival: Option<SurvivalSnapshot>,
}

impl Persistence {
    /// Set up persistence for a detector of `version` enrolled with
    /// `model` (any registered backend family). The encode buffer is
    /// sized once; commits are allocation-free afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::Sift`] when the model dimension does not
    /// match the flavor.
    pub fn new(version: Version, model: impl Into<DetectorModel>) -> Result<Self, WiotError> {
        let snapshot = DetectorCheckpoint::new(version, model)?;
        let buf = vec![0u8; snapshot.encoded_len()];
        Ok(Self {
            store: CheckpointStore::new(),
            snapshot,
            buf,
            blob_fresh: false,
            survival: None,
        })
    }

    /// Start persisting the survival-policy state: `snap` (and every
    /// later [`Persistence::set_survival`] update) rides along with
    /// each detector commit as a fixed 16-byte suffix. Grows the
    /// encode buffer once; commits stay allocation-free.
    pub fn enable_survival(&mut self, snap: SurvivalSnapshot) {
        self.survival = Some(snap);
        self.snapshot_changed();
    }

    /// Update the survival-policy state the next commit will persist.
    /// No-op until [`Persistence::enable_survival`] was called.
    pub fn set_survival(&mut self, snap: SurvivalSnapshot) {
        if self.survival.is_some() {
            self.survival = Some(snap);
        }
    }

    /// The survival-policy state that the last commit persisted (or
    /// the last recovery restored), if survival persistence is on.
    pub fn survival(&self) -> Option<SurvivalSnapshot> {
        self.survival
    }

    /// Re-target persistence at a different detector build — the
    /// survival policy's version actuator calls this right after
    /// hot-swapping the app, so subsequent commits checkpoint the new
    /// build. The stream position (`windows_seen` / `alerts_raised`)
    /// carries over.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::Sift`] when the model dimension does not
    /// match the flavor.
    pub fn set_version(
        &mut self,
        version: Version,
        model: impl Into<DetectorModel>,
    ) -> Result<(), WiotError> {
        let mut snapshot = DetectorCheckpoint::new(version, model)?;
        snapshot.windows_seen = self.snapshot.windows_seen;
        snapshot.alerts_raised = self.snapshot.alerts_raised;
        self.snapshot = snapshot;
        self.snapshot_changed();
        Ok(())
    }

    /// Size the encode buffer for the current detector version plus
    /// the survival suffix when enabled, and mark the model blob for
    /// re-encoding at the next commit.
    fn snapshot_changed(&mut self) {
        let extra = if self.survival.is_some() {
            SURVIVAL_SNAPSHOT_BYTES
        } else {
            0
        };
        self.buf.resize(self.snapshot.encoded_len() + extra, 0);
        self.blob_fresh = false;
    }

    /// Charge the NVRAM checkpoint region to the station's FRAM map so
    /// the profiler accounts for it.
    ///
    /// # Errors
    ///
    /// Propagates [`amulet_sim::AmuletError::OutOfMemory`] when the
    /// firmware image left less than a region's worth of FRAM free.
    pub fn reserve(&self, station: &mut BaseStation) -> Result<(), WiotError> {
        station
            .os_mut()
            .reserve_checkpoint_region(NVRAM_BYTES)
            .map_err(WiotError::from)
    }

    /// Commit the detector state at stream position `windows_seen` /
    /// `alerts_raised` as the next checkpoint generation.
    ///
    /// # Errors
    ///
    /// Propagates encode and store errors (none occur for a correctly
    /// sized buffer).
    pub fn commit(&mut self, windows_seen: u32, alerts_raised: u32) -> Result<u32, WiotError> {
        self.snapshot.windows_seen = windows_seen;
        self.snapshot.alerts_raised = alerts_raised;
        let n = self.encode_payload()?;
        let written = self.buf.get(..n).unwrap_or(&[]);
        self.store.commit(written).map_err(WiotError::from)
    }

    /// Encode the detector checkpoint (and the survival suffix when
    /// enabled) into the reusable buffer, returning the payload size.
    /// Only the header changes between commits of one snapshot.
    fn encode_payload(&mut self) -> Result<usize, WiotError> {
        let mut n = if self.blob_fresh {
            self.snapshot.encode_header_into(&mut self.buf)?
        } else {
            let n = self.snapshot.encode_into(&mut self.buf)?;
            self.blob_fresh = true;
            n
        };
        if let Some(snap) = &self.survival {
            let suffix = encode_survival(snap);
            if let Some(tail) = self.buf.get_mut(n..n + SURVIVAL_SNAPSHOT_BYTES) {
                tail.copy_from_slice(&suffix);
                n += SURVIVAL_SNAPSHOT_BYTES;
            }
        }
        Ok(n)
    }

    /// Commit, but lose power after `cut_bytes` bytes of the FRAM write
    /// sequence — the torn-write fault-injection path.
    ///
    /// # Errors
    ///
    /// As [`Persistence::commit`].
    pub fn commit_torn(
        &mut self,
        windows_seen: u32,
        alerts_raised: u32,
        cut_bytes: usize,
    ) -> Result<u32, WiotError> {
        self.snapshot.windows_seen = windows_seen;
        self.snapshot.alerts_raised = alerts_raised;
        let n = self.encode_payload()?;
        let written = self.buf.get(..n).unwrap_or(&[]);
        self.store
            .commit_torn(written, cut_bytes)
            .map_err(WiotError::from)
    }

    /// Flip one bit of the NVRAM region (bit-rot fault injection).
    pub fn flip_bit(&mut self, byte: usize, bit: u8) {
        self.store.flip_bit(byte, bit);
    }

    /// Recover after a reboot: restore the newest valid checkpoint,
    /// rebuild the detector app from its model, and swap it into the
    /// station. Counts the outcome in `summary` (`recoveries`,
    /// `rollbacks`, `recovery_failures`). Returns whether a checkpoint
    /// was successfully restored; on failure the station keeps running
    /// with the detector instance it already has.
    ///
    /// With survival persistence on ([`Persistence::enable_survival`]),
    /// the payload carries the policy suffix and the restored policy
    /// state is readable through [`Persistence::survival`]. The policy
    /// may have switched builds since the station was provisioned, so
    /// a survival checkpoint of another version hot-swaps the detector
    /// (reflash) and re-reserves the FRAM checkpoint region. Without
    /// the suffix, only the installed version is accepted. Either way
    /// the checkpoint must come from the installed backend family.
    ///
    /// # Errors
    ///
    /// Propagates platform errors from swapping the app or
    /// re-reserving the checkpoint region; corrupt or incompatible
    /// checkpoints are *not* errors — they are counted and skipped.
    pub fn recover(
        &mut self,
        station: &mut BaseStation,
        config: &SiftConfig,
        summary: &mut FaultSummary,
    ) -> Result<bool, WiotError> {
        let decoded = match self.store.restore() {
            Restore::Valid {
                payload,
                rolled_back,
                ..
            } => self
                .decode_payload(payload)
                .map(|(ckpt, snap)| (ckpt, snap, rolled_back)),
            Restore::Empty | Restore::Corrupt => None,
        };
        let Some((ckpt, snap, rolled_back)) = decoded else {
            summary.recovery_failures += 1;
            return Ok(false);
        };
        let app = SiftApp::new(ckpt.version, ckpt.model.clone(), config.clone())?;
        if ckpt.version == self.snapshot.version {
            station.restore_detector(app)?;
        } else {
            // A survival checkpoint taken on a different build than the
            // one running now: redeploy it. The reflash drops the FRAM
            // reservation, so charge it again.
            station.swap_detector(app)?;
            self.reserve(station)?;
        }
        self.snapshot = ckpt;
        self.survival = snap;
        self.snapshot_changed();
        summary.recoveries += 1;
        if rolled_back {
            summary.rollbacks += 1;
        }
        Ok(true)
    }

    /// Decode a CRC-valid payload in the layout this engine commits:
    /// the detector checkpoint, plus the survival suffix exactly when
    /// survival persistence is on. `None` for anything recovery must
    /// refuse: a decode error (wrong length, stale model format,
    /// checksum mismatch), another backend family, a suffix whose
    /// version disagrees with the checkpoint, or — without a suffix —
    /// another flavor than the installed one.
    fn decode_payload(
        &self,
        payload: &[u8],
    ) -> Option<(DetectorCheckpoint, Option<SurvivalSnapshot>)> {
        let (detector, snap) = match self.survival {
            Some(_) => {
                let at = payload.len().checked_sub(SURVIVAL_SNAPSHOT_BYTES)?;
                let (detector, suffix) = payload.split_at(at);
                (detector, Some(decode_survival(suffix).ok()?))
            }
            None => (payload, None),
        };
        let ckpt = DetectorCheckpoint::decode(detector).ok()?;
        let expected_version = snap.map_or(self.snapshot.version, |s| s.version);
        (ckpt.version == expected_version && ckpt.model.kind() == self.snapshot.model.kind())
            .then_some((ckpt, snap))
    }

    /// The last committed (or recovered) snapshot.
    pub fn snapshot(&self) -> &DetectorCheckpoint {
        &self.snapshot
    }
}

/// Encode a [`SurvivalSnapshot`] into `SURVIVAL_SNAPSHOT_BYTES` bytes:
/// `[version tag][duty skip][duty of][retry max][retry shift][flags]
/// [tick LE u32][last_switch_tick LE u32][link ewma LE u16]`.
pub fn encode_survival(snap: &SurvivalSnapshot) -> [u8; SURVIVAL_SNAPSHOT_BYTES] {
    let mut out = [0u8; SURVIVAL_SNAPSHOT_BYTES];
    let mut w = LeWriter::new(&mut out);
    w.put(&[
        version_tag(snap.version),
        snap.duty_skip,
        snap.duty_of,
        snap.retry_max,
        snap.retry_shift,
        u8::from(snap.link_capped),
    ]);
    w.put(&snap.tick.to_le_bytes());
    w.put(&snap.last_switch_tick.to_le_bytes());
    w.put(&snap.link_ewma_permille.to_le_bytes());
    out
}

/// Decode bytes produced by [`encode_survival`].
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for a wrong length, an
/// unknown version tag, an invalid flags byte, a malformed duty cycle,
/// or an out-of-range link EWMA.
pub fn decode_survival(bytes: &[u8]) -> Result<SurvivalSnapshot, WiotError> {
    if bytes.len() != SURVIVAL_SNAPSHOT_BYTES {
        return Err(WiotError::InvalidScenario {
            reason: "survival snapshot has the wrong length",
        });
    }
    let mut r = LeReader::new(bytes, 0);
    let [tag, duty_skip, duty_of, retry_max, retry_shift, flags] = r.pull();
    let version = version_from_tag(tag).ok_or(WiotError::InvalidScenario {
        reason: "survival snapshot has an unknown version tag",
    })?;
    if duty_of == 0 || duty_skip >= duty_of {
        return Err(WiotError::InvalidScenario {
            reason: "survival snapshot has a malformed duty cycle",
        });
    }
    let link_capped = match flags {
        0 => false,
        1 => true,
        _ => {
            return Err(WiotError::InvalidScenario {
                reason: "survival snapshot has an invalid flags byte",
            });
        }
    };
    let tick = u32::from_le_bytes(r.pull());
    let last_switch_tick = u32::from_le_bytes(r.pull());
    let link_ewma_permille = u16::from_le_bytes(r.pull());
    if link_ewma_permille > 1000 {
        return Err(WiotError::InvalidScenario {
            reason: "survival snapshot link badness exceeds full scale",
        });
    }
    Ok(SurvivalSnapshot {
        version,
        duty_skip,
        duty_of,
        retry_max,
        retry_shift,
        link_capped,
        tick,
        last_switch_tick,
        link_ewma_permille,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::embedded::EmbeddedModel;
    use physio_sim::subject::bank;
    use sift::trainer::train_for_subject;

    fn quick_config() -> SiftConfig {
        SiftConfig {
            train_s: 60.0,
            max_positive_per_donor: Some(15),
            ..SiftConfig::default()
        }
    }

    fn model(version: Version) -> EmbeddedModel {
        train_for_subject(&bank(), 0, version, &quick_config(), 7)
            .unwrap()
            .embedded()
            .clone()
    }

    fn station(version: Version) -> BaseStation {
        let cfg = quick_config();
        let app = SiftApp::new(version, model(version), cfg.clone()).unwrap();
        BaseStation::new(app, cfg, 0.5).unwrap()
    }

    #[test]
    fn commit_then_recover_restores_the_stream_position() {
        let version = Version::Simplified;
        let mut st = station(version);
        let mut p = Persistence::new(version, model(version)).unwrap();
        p.reserve(&mut st).unwrap();
        p.commit(12, 3).unwrap();
        let mut summary = FaultSummary::default();
        st.reboot();
        assert!(p.recover(&mut st, &quick_config(), &mut summary).unwrap());
        assert_eq!(summary.recoveries, 1);
        assert_eq!(summary.rollbacks, 0);
        assert_eq!(summary.recovery_failures, 0);
        assert_eq!(p.snapshot().windows_seen, 12);
        assert_eq!(p.snapshot().alerts_raised, 3);
    }

    #[test]
    fn torn_commit_rolls_back_to_the_previous_generation() {
        let version = Version::Reduced;
        let mut st = station(version);
        let mut p = Persistence::new(version, model(version)).unwrap();
        p.commit(1, 0).unwrap();
        // Power fails mid-header on the second commit.
        let seq = amulet_sim::nvram::CheckpointStore::commit_sequence_len(
            sift::checkpoint::encoded_len(version),
        );
        p.commit_torn(2, 1, seq - 6).unwrap();
        let mut summary = FaultSummary::default();
        st.reboot();
        assert!(p.recover(&mut st, &quick_config(), &mut summary).unwrap());
        assert_eq!(summary.recoveries, 1);
        assert_eq!(summary.rollbacks, 1, "{summary:?}");
        // Rolled back: the stream position is the previous generation's.
        assert_eq!(p.snapshot().windows_seen, 1);
        assert_eq!(p.store.stats().torn_commits, 1);
    }

    #[test]
    fn fresh_store_counts_a_recovery_failure() {
        let version = Version::Reduced;
        let mut st = station(version);
        let mut p = Persistence::new(version, model(version)).unwrap();
        let mut summary = FaultSummary::default();
        st.reboot();
        assert!(!p.recover(&mut st, &quick_config(), &mut summary).unwrap());
        assert_eq!(summary.recovery_failures, 1);
        assert_eq!(summary.recoveries, 0);
    }

    #[test]
    fn rotted_pair_of_slots_is_refused_not_garbage() {
        let version = Version::Reduced;
        let mut st = station(version);
        let mut p = Persistence::new(version, model(version)).unwrap();
        p.commit(1, 0).unwrap();
        p.commit(2, 0).unwrap();
        // Rot a payload byte in both slots.
        p.flip_bit(40, 1);
        p.flip_bit(amulet_sim::nvram::SLOT_BYTES + 40, 1);
        let mut summary = FaultSummary::default();
        st.reboot();
        assert!(!p.recover(&mut st, &quick_config(), &mut summary).unwrap());
        assert_eq!(summary.recovery_failures, 1);
    }

    #[test]
    fn tsetlin_checkpoints_survive_a_reboot() {
        let version = Version::Reduced;
        let cfg = quick_config();
        let tsetlin = sift::zoo::train_backend_for_subject(
            &bank(),
            0,
            version,
            ml::BackendKind::Tsetlin,
            &cfg,
            7,
        )
        .unwrap();
        let app = SiftApp::new(version, tsetlin.clone(), cfg.clone()).unwrap();
        let mut st = BaseStation::new(app, cfg.clone(), 0.5).unwrap();
        let mut p = Persistence::new(version, tsetlin.clone()).unwrap();
        p.reserve(&mut st).unwrap();
        p.commit(9, 4).unwrap();
        let mut summary = FaultSummary::default();
        st.reboot();
        assert!(p.recover(&mut st, &cfg, &mut summary).unwrap());
        assert_eq!(summary.recoveries, 1);
        assert_eq!(p.snapshot().windows_seen, 9);
        assert_eq!(p.snapshot().model, tsetlin);
    }

    #[test]
    fn recovery_rejects_a_checkpoint_from_another_backend_family() {
        // Same flavor, different backend: the FRAM holds an SVM
        // checkpoint but the engine expects a Tsetlin one. The
        // checkpoint must be refused and counted, not deployed — with
        // and without the survival suffix.
        let version = Version::Reduced;
        let cfg = quick_config();
        let tsetlin = sift::zoo::train_backend_for_subject(
            &bank(),
            0,
            version,
            ml::BackendKind::Tsetlin,
            &cfg,
            7,
        )
        .unwrap();
        for survival in [None, Some(survival_snap(version))] {
            let mut svm_engine = Persistence::new(version, model(version)).unwrap();
            let mut tsetlin_engine = Persistence::new(version, tsetlin.clone()).unwrap();
            if let Some(snap) = survival {
                svm_engine.enable_survival(snap);
                tsetlin_engine.enable_survival(snap);
            }
            svm_engine.commit(2, 0).unwrap();
            tsetlin_engine.store = svm_engine.store.clone();
            let app = SiftApp::new(version, tsetlin.clone(), cfg.clone()).unwrap();
            let mut st = BaseStation::new(app, cfg.clone(), 0.5).unwrap();
            let mut summary = FaultSummary::default();
            st.reboot();
            assert!(
                !tsetlin_engine.recover(&mut st, &cfg, &mut summary).unwrap(),
                "survival {survival:?}"
            );
            assert_eq!(summary.recovery_failures, 1);
            assert_eq!(summary.recoveries, 0);
            assert_eq!(tsetlin_engine.snapshot().model, tsetlin);
        }
    }

    fn survival_snap(version: Version) -> crate::survival::SurvivalSnapshot {
        crate::survival::SurvivalSnapshot {
            version,
            duty_skip: 1,
            duty_of: 4,
            retry_max: 2,
            retry_shift: 2,
            link_capped: true,
            tick: 777,
            last_switch_tick: 700,
            link_ewma_permille: 321,
        }
    }

    #[test]
    fn survival_snapshot_codec_round_trips() {
        for version in Version::ALL {
            let snap = survival_snap(version);
            let bytes = encode_survival(&snap);
            assert_eq!(decode_survival(&bytes).unwrap(), snap);
        }
    }

    /// The 16 survival-suffix bytes of a snapshot with every field off
    /// its default, pinned by an FNV-1a digest.
    #[test]
    fn survival_bytes_are_pinned() {
        let snap = SurvivalSnapshot {
            version: Version::Simplified,
            duty_skip: 2,
            duty_of: 5,
            retry_max: 3,
            retry_shift: 1,
            link_capped: true,
            tick: 0x0102_0304,
            last_switch_tick: 0xA0B0_C0D0,
            link_ewma_permille: 999,
        };
        let digest = encode_survival(&snap).iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, 0x2f91_e2d4_956b_eeee, "{digest:#018x}");
    }

    #[test]
    fn survival_snapshot_codec_rejects_malformed_bytes() {
        let good = encode_survival(&survival_snap(Version::Reduced));
        assert!(decode_survival(&good[..10]).is_err());
        let mut bad_tag = good;
        bad_tag[0] = 9;
        assert!(decode_survival(&bad_tag).is_err());
        let mut bad_duty = good;
        bad_duty[2] = 0;
        assert!(decode_survival(&bad_duty).is_err());
        let mut bad_flags = good;
        bad_flags[5] = 3;
        assert!(decode_survival(&bad_flags).is_err());
        let mut bad_ewma = good;
        bad_ewma[14..16].copy_from_slice(&2000u16.to_le_bytes());
        assert!(decode_survival(&bad_ewma).is_err());
    }

    #[test]
    fn survival_commit_and_recovery_round_trip_same_version() {
        let version = Version::Simplified;
        let mut st = station(version);
        let mut p = Persistence::new(version, model(version)).unwrap();
        p.reserve(&mut st).unwrap();
        p.enable_survival(survival_snap(version));
        p.commit(8, 2).unwrap();
        let mut summary = FaultSummary::default();
        st.reboot();
        assert!(p.recover(&mut st, &quick_config(), &mut summary).unwrap());
        assert_eq!(p.survival(), Some(survival_snap(version)));
        assert_eq!(summary.recoveries, 1);
        assert_eq!(p.snapshot().windows_seen, 8);
    }

    #[test]
    fn survival_recovery_hot_swaps_across_versions() {
        // The checkpoint was taken on a Reduced build, but the station
        // currently runs Original (e.g. it rebooted before the policy
        // state was re-applied): recovery must redeploy Reduced.
        let mut st = station(Version::Original);
        let mut p = Persistence::new(Version::Original, model(Version::Original)).unwrap();
        p.reserve(&mut st).unwrap();
        p.enable_survival(survival_snap(Version::Original));
        p.commit(1, 0).unwrap();
        // The policy switches to Reduced and checkpoints on it.
        p.set_version(Version::Reduced, model(Version::Reduced)).unwrap();
        p.set_survival(survival_snap(Version::Reduced));
        p.commit(5, 1).unwrap();
        // Fresh persistence engine simulating a cold reboot that lost
        // the in-RAM notion of the deployed version.
        let mut cold = Persistence::new(Version::Original, model(Version::Original)).unwrap();
        cold.enable_survival(survival_snap(Version::Original));
        // Hand the cold engine the same FRAM contents.
        cold.store = p.store.clone();
        let mut summary = FaultSummary::default();
        st.reboot();
        assert!(cold
            .recover(&mut st, &quick_config(), &mut summary)
            .unwrap());
        assert_eq!(cold.survival(), Some(survival_snap(Version::Reduced)));
        assert_eq!(cold.snapshot().version, Version::Reduced);
        assert_eq!(cold.snapshot().windows_seen, 5);
        assert_eq!(summary.recoveries, 1);
        assert_eq!(summary.recovery_failures, 0);
        // The reflash re-reserved the checkpoint region: further
        // commits and recoveries still work.
        cold.commit(6, 1).unwrap();
        st.reboot();
        assert!(cold
            .recover(&mut st, &quick_config(), &mut summary)
            .unwrap());
    }

    /// What a from-scratch encode of the engine's current state commits:
    /// the full detector checkpoint plus the survival suffix.
    fn full_encode(p: &Persistence) -> Vec<u8> {
        let mut out = vec![0u8; p.snapshot().encoded_len()];
        p.snapshot().encode_into(&mut out).unwrap();
        if let Some(snap) = p.survival() {
            out.extend_from_slice(&encode_survival(&snap));
        }
        out
    }

    fn restored(p: &Persistence) -> Vec<u8> {
        match p.store.restore() {
            Restore::Valid { payload, .. } => payload.to_vec(),
            other => panic!("expected a valid restore, got {other:?}"),
        }
    }

    fn tear(p: &mut Persistence, windows: u32, alerts: u32) {
        let seq = CheckpointStore::commit_sequence_len(full_encode(p).len());
        p.commit_torn(windows, alerts, seq - 6).unwrap();
    }

    /// Header-only commits write exactly the bytes a full re-encode
    /// would, across every operation that changes the snapshot.
    #[test]
    fn header_only_commits_are_byte_identical_to_full_encodes() {
        let cfg = quick_config();
        let mut st = station(Version::Original);
        let mut p = Persistence::new(Version::Original, model(Version::Original)).unwrap();
        p.reserve(&mut st).unwrap();
        p.commit(1, 0).unwrap();
        assert_eq!(restored(&p), full_encode(&p));
        p.commit(2, 0).unwrap();
        assert_eq!(restored(&p), full_encode(&p));

        // Torn commit, then recovery rolls back to generation 2.
        tear(&mut p, 3, 1);
        let mut summary = FaultSummary::default();
        st.reboot();
        assert!(p.recover(&mut st, &cfg, &mut summary).unwrap());
        assert_eq!(summary.rollbacks, 1);
        assert_eq!(p.snapshot().windows_seen, 2);
        p.commit(3, 1).unwrap();
        assert_eq!(restored(&p), full_encode(&p));

        // Version switch: a different model blob and payload length.
        p.set_version(Version::Reduced, model(Version::Reduced)).unwrap();
        p.commit(4, 1).unwrap();
        assert_eq!(restored(&p), full_encode(&p));

        // Survival suffix appended, then updated between commits.
        p.enable_survival(survival_snap(Version::Reduced));
        p.commit(5, 1).unwrap();
        assert_eq!(restored(&p), full_encode(&p));
        let mut snap = survival_snap(Version::Reduced);
        snap.tick += 1;
        p.set_survival(snap);
        p.commit(6, 2).unwrap();
        assert_eq!(restored(&p), full_encode(&p));
        let last = restored(&p);
        tear(&mut p, 7, 2);
        assert_eq!(restored(&p), last);

        // Cross-version survival recovery on a cold engine, then commit.
        let mut cold = Persistence::new(Version::Original, model(Version::Original)).unwrap();
        cold.enable_survival(survival_snap(Version::Original));
        cold.store = p.store.clone();
        st.reboot();
        assert!(cold.recover(&mut st, &cfg, &mut summary).unwrap());
        assert_eq!(cold.survival(), Some(snap));
        assert_eq!(cold.snapshot().version, Version::Reduced);
        cold.commit(8, 3).unwrap();
        assert_eq!(restored(&cold), full_encode(&cold));
        cold.commit(9, 3).unwrap();
        assert_eq!(restored(&cold), full_encode(&cold));
    }

    #[test]
    fn survival_off_payload_is_byte_identical_to_pre_survival_builds() {
        let version = Version::Reduced;
        let mut p = Persistence::new(version, model(version)).unwrap();
        p.commit(3, 1).unwrap();
        // Payload length is exactly the detector checkpoint: no suffix.
        let expected = sift::checkpoint::encoded_len(version);
        assert_eq!(p.buf.len(), expected);
    }
}
