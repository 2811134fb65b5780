//! The detector zoo's backend-generic enrollment path.
//!
//! The paper's training step assembles one labeled feature set per
//! wearer ([`build_training_set`]); the zoo feeds that *same* dataset
//! to whichever backend family is being deployed:
//!
//! * [`BackendKind::Svm`] — scaler + liblinear + embedded translation
//!   ([`train_from_dataset`]), bit-identical to the pre-zoo path;
//! * [`BackendKind::Tsetlin`] — per-feature quantile booleanization +
//!   integer-only clause training ([`ml::tsetlin`]).
//!
//! The Tsetlin flavor ladder mirrors the SVM's
//! Original/Simplified/Reduced rungs with clause-count reduction
//! ([`tsetlin_pairs`]): fewer clause pairs, monotonically smaller
//! footprint, exactly what `wiot::survival` needs to reflash down the
//! ladder under battery pressure.

use crate::config::SiftConfig;
use crate::features::Version;
use crate::trainer::{build_training_set, enroll, train_from_dataset, DonorEcg};
use crate::SiftError;
use ml::tsetlin::TsetlinTrainer;
use ml::{BackendKind, Dataset, DetectorModel};
use physio_sim::record::Record;
use physio_sim::subject::Subject;

/// Clause pairs per flavor rung — the Tsetlin ladder's footprint knob,
/// strictly decreasing down the ladder like the SVM's feature count.
pub fn tsetlin_pairs(version: Version) -> u32 {
    match version {
        Version::Original => 32,
        Version::Simplified => 16,
        Version::Reduced => 8,
    }
}

/// The deterministic Tsetlin trainer for a flavor rung: ladder clause
/// count, seed derived from the run config (disjoint from the SVM's
/// `seed ^ 0x57A1` stream).
pub fn tsetlin_trainer(version: Version, config: &SiftConfig) -> TsetlinTrainer {
    TsetlinTrainer {
        pairs: tsetlin_pairs(version),
        seed: config.seed ^ 0x7531,
        ..TsetlinTrainer::default()
    }
}

/// Train the deployable model of family `kind` from an assembled
/// training set — the one seam every backend implements.
///
/// # Errors
///
/// [`SiftError::Ml`] with
/// [`SingleClass`](ml::MlError::SingleClass) when `data` lacks a class,
/// plus backend trainer errors.
pub fn train_backend_from_dataset(
    kind: BackendKind,
    version: Version,
    data: &Dataset,
    config: &SiftConfig,
) -> Result<DetectorModel, SiftError> {
    match kind {
        BackendKind::Svm => {
            train_from_dataset(version, data, config).map(|m| m.embedded().clone().into())
        }
        BackendKind::Tsetlin => {
            if !data.has_both_classes() {
                return Err(SiftError::Ml(ml::MlError::SingleClass));
            }
            let dim = version.feature_count();
            let mut rows: Vec<f32> = Vec::with_capacity(data.len() * dim);
            let mut labels = Vec::with_capacity(data.len());
            for (x, label) in data.iter() {
                rows.extend(x.iter().map(|&v| v as f32));
                labels.push(label);
            }
            let model = tsetlin_trainer(version, config).fit(dim, &rows, &labels)?;
            Ok(model.into())
        }
    }
}

/// Train a deployable model of family `kind` for a wearer against the
/// given donors' ECG ([`DonorEcg`]: whole records or ECG spans) — the
/// backend-generic sibling of [`crate::trainer::train`].
///
/// # Errors
///
/// Same conditions as [`crate::trainer::train`], plus backend trainer
/// errors.
pub fn train_backend<D: DonorEcg>(
    victim_train: &Record,
    donor_trains: &[D],
    version: Version,
    kind: BackendKind,
    config: &SiftConfig,
) -> Result<DetectorModel, SiftError> {
    let data = build_training_set(victim_train, donor_trains, version, config)?;
    train_backend_from_dataset(kind, version, &data, config)
}

/// Train a deployable model of family `kind` for `subjects[victim]`
/// with every other subject as a donor — the backend-generic sibling
/// of [`crate::trainer::train_for_subject`], using the exact same
/// per-subject record seeds (so the SVM arm is bit-identical to
/// `train_for_subject(..).embedded()`).
///
/// # Errors
///
/// Same conditions as [`crate::trainer::train_for_subject`], plus
/// backend trainer errors.
pub fn train_backend_for_subject(
    subjects: &[Subject],
    victim: usize,
    version: Version,
    kind: BackendKind,
    config: &SiftConfig,
    seed: u64,
) -> Result<DetectorModel, SiftError> {
    let mut models = enroll(subjects, [victim], config, seed, |v, d| {
        train_backend(v, d, version, kind, config)
    })?;
    models.pop().ok_or(SiftError::InvalidConfig {
        reason: "victim index out of range",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_for_subject, ModelBank};
    use ml::DetectorBackend;
    use physio_sim::record::EcgSpan;
    use physio_sim::subject::bank;

    fn quick_config() -> SiftConfig {
        SiftConfig {
            train_s: 60.0,
            max_positive_per_donor: Some(15),
            ..SiftConfig::default()
        }
    }

    #[test]
    fn svm_arm_is_bit_identical_to_legacy_path() {
        let b = bank();
        let cfg = quick_config();
        let legacy = train_for_subject(&b, 2, Version::Reduced, &cfg, 7).unwrap();
        let zoo = train_backend_for_subject(&b, 2, Version::Reduced, BackendKind::Svm, &cfg, 7)
            .unwrap();
        assert!(matches!(&zoo, DetectorModel::Svm(m) if m == legacy.embedded()));
        assert_eq!(zoo.encode(), legacy.embedded().encode());
    }

    #[test]
    fn tsetlin_arm_trains_deterministically_per_rung() {
        let b = bank();
        let cfg = quick_config();
        for &version in Version::ALL.iter() {
            let a =
                train_backend_for_subject(&b, 0, version, BackendKind::Tsetlin, &cfg, 7).unwrap();
            let again =
                train_backend_for_subject(&b, 0, version, BackendKind::Tsetlin, &cfg, 7).unwrap();
            assert_eq!(a, again, "{version:?}");
            assert_eq!(a.dim(), version.feature_count());
            let tm = a.as_tsetlin().unwrap();
            assert_eq!(tm.pairs() as u32, tsetlin_pairs(version));
        }
    }

    #[test]
    fn tsetlin_ladder_footprint_is_strictly_monotone() {
        let b = bank();
        let cfg = quick_config();
        let sizes: Vec<usize> = Version::ALL
            .iter()
            .map(|&v| {
                train_backend_for_subject(&b, 0, v, BackendKind::Tsetlin, &cfg, 7)
                    .unwrap()
                    .footprint_bytes()
            })
            .collect();
        assert!(
            sizes[0] > sizes[1] && sizes[1] > sizes[2],
            "ladder not monotone: {sizes:?}"
        );
    }

    /// Enrolling on the donors' whole-session ECG spans deploys the
    /// very bytes that enrolling on their two-channel records does.
    #[test]
    fn span_donors_train_the_record_donors_model() {
        let b = bank();
        let cfg = quick_config();
        let victim = Record::synthesize(&b[0], cfg.train_s, 11);
        let donors: Vec<Record> = (1..4)
            .map(|i| Record::synthesize(&b[i], cfg.train_s, 11 + i as u64))
            .collect();
        let spans: Vec<EcgSpan> = (1..4)
            .map(|i| Record::ecg_span(&b[i], cfg.train_s, 11 + i as u64, 0..usize::MAX))
            .collect();
        let donor_refs: Vec<&Record> = donors.iter().collect();
        for kind in [BackendKind::Svm, BackendKind::Tsetlin] {
            let from_records =
                train_backend(&victim, &donor_refs, Version::Simplified, kind, &cfg).unwrap();
            let from_spans =
                train_backend(&victim, &spans, Version::Simplified, kind, &cfg).unwrap();
            assert_eq!(from_spans.encode(), from_records.encode(), "{kind:?}");
        }
    }

    /// The twelve Simplified Tsetlin models the hostile-link fleet
    /// enrolls (its training config and seed 61455), pinned by an FNV-1a
    /// digest of their encodings: any change to the trainer that moves
    /// one mask bit moves the digest.
    #[test]
    fn hostile_link_tsetlin_bank_is_pinned() {
        let models = ModelBank::train_backend(
            &bank(),
            Version::Simplified,
            BackendKind::Tsetlin,
            &quick_config(),
            61455,
        )
        .unwrap();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for victim in 0..models.len() {
            for b in models.deployed(victim).unwrap().encode() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!((models.len(), digest), (12, 0xb256_65e2_9a4a_0287));
    }

    /// The twelve SVM models each SVM fleet enrolls: fleet-turbo's
    /// Reduced bank and fleet-fidelity's Simplified bank (their training
    /// config and seed 61455), pinned by an FNV-1a digest of their
    /// encodings: a feature that moves one bit moves a weight.
    #[test]
    fn svm_fleet_banks_are_pinned() {
        for (version, pin) in [(Version::Reduced, 0x429d_d023_5f64_d007), (Version::Simplified, 0xe204_8f77_10eb_ae67)] {
            let models = ModelBank::train_backend(
                &bank(),
                version,
                BackendKind::Svm,
                &quick_config(),
                61455,
            )
            .unwrap();
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for victim in 0..models.len() {
                for b in models.deployed(victim).unwrap().encode() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!((models.len(), digest), (12, pin), "{version:?}: {digest:#018x}");
        }
    }

    #[test]
    fn out_of_range_victim_rejected() {
        assert!(train_backend_for_subject(
            &bank(),
            99,
            Version::Reduced,
            BackendKind::Tsetlin,
            &quick_config(),
            1
        )
        .is_err());
    }
}
