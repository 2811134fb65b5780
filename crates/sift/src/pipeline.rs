//! End-to-end evaluation pipeline: the code behind Table II.
//!
//! For every subject in the bank the paper (§IV): trains a user-specific
//! model on Δ = 20 min of data; loads it on the platform; replays 2 min
//! of unseen data of which 50 % (in random locations) had the ECG
//! replaced with another subject's; and scores the 40 resulting 3-second
//! windows. Metrics are averaged over the 12 subjects.

use crate::attack::{substitution_test_set, LabeledWindow};
use crate::config::SiftConfig;
use crate::detector::Detector;
use crate::features::Version;
use crate::flavor::PlatformFlavor;
use crate::trainer::SiftModel;
use crate::SiftError;
use ml::metrics::{AveragedMetrics, ConfusionMatrix};
use ml::Label;
use physio_sim::record::Record;
use physio_sim::subject::{Subject, SubjectId};

/// Protocol parameters for the Table II experiment, and the one place
/// the protocol's per-subject test set is built (`EvalProtocol::test_set`).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalProtocol {
    /// Unseen test duration in seconds (paper: 120 s).
    pub test_s: f64,
    /// Fraction of test windows whose ECG is replaced (paper: 0.5).
    pub altered_fraction: f64,
    /// Base seed deriving all per-subject seeds.
    pub seed: u64,
}

impl Default for EvalProtocol {
    fn default() -> Self {
        Self {
            test_s: 120.0,
            altered_fraction: 0.5,
            seed: 0x007A_B1E2,
        }
    }
}

impl EvalProtocol {
    /// Subject `i`'s labeled test windows: `test_s` of unseen victim data
    /// (seed `seed + 1000 + i`), the next subject in `subjects` as the
    /// donor (seed `seed + 5000 + donor`), and `altered_fraction` of the
    /// `window_s`-second windows substituted in random locations (seed
    /// `seed + 9000 + i`).
    ///
    /// # Errors
    ///
    /// Propagates [`substitution_test_set`] errors.
    fn test_set(
        &self,
        subjects: &[Subject],
        i: usize,
        window_s: f64,
    ) -> Result<Vec<LabeledWindow>, SiftError> {
        let victim = Record::synthesize(
            &subjects[i],
            self.test_s,
            self.seed.wrapping_add(1000 + i as u64),
        );
        let donor_idx = (i + 1) % subjects.len();
        let donor = Record::synthesize(
            &subjects[donor_idx],
            self.test_s,
            self.seed.wrapping_add(5000 + donor_idx as u64),
        );
        substitution_test_set(
            &victim,
            &donor,
            window_s,
            self.altered_fraction,
            self.seed.wrapping_add(9000 + i as u64),
        )
    }
}

/// Per-subject outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SubjectResult {
    /// The subject evaluated.
    pub subject: SubjectId,
    /// Confusion matrix over the 40 test windows.
    pub matrix: ConfusionMatrix,
    /// Each test window's decision score and ground truth, in replay
    /// order. Degenerate windows score `f64::MAX`.
    pub scored: Vec<(f64, Label)>,
}

/// Result of evaluating one (version, flavor) cell of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationResult {
    /// Per-subject outcomes.
    pub per_subject: Vec<SubjectResult>,
    /// Subject-averaged FP/FN/accuracy/F1 (the Table II row).
    pub averaged: AveragedMetrics,
}

/// Evaluate one version on one platform flavor over all `subjects`,
/// deploying each model of `models` (trained by [`train_models`]) with
/// its own embedded translation.
///
/// # Errors
///
/// Exactly those of [`evaluate_detectors`], plus detector assembly
/// errors.
pub fn evaluate_with_models(
    subjects: &[Subject],
    models: &[SiftModel],
    flavor: PlatformFlavor,
    config: &SiftConfig,
    protocol: &EvalProtocol,
) -> Result<EvaluationResult, SiftError> {
    let detectors = models
        .iter()
        .map(|m| Detector::new(m.clone(), flavor, config.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    evaluate_detectors(subjects, &detectors, protocol)
}

/// The Table II loop: classify every window of each subject's
/// protocol test set with that subject's detector.
///
/// # Errors
///
/// Propagates test-set and classification errors; returns
/// [`SiftError::InvalidConfig`] unless there is exactly one detector
/// per subject and at least one subject.
pub fn evaluate_detectors(
    subjects: &[Subject],
    detectors: &[Detector],
    protocol: &EvalProtocol,
) -> Result<EvaluationResult, SiftError> {
    if detectors.len() != subjects.len() {
        return Err(SiftError::InvalidConfig {
            reason: "one detector per subject required",
        });
    }
    let mut per_subject = Vec::with_capacity(subjects.len());
    for (i, (subject, detector)) in subjects.iter().zip(detectors).enumerate() {
        let window_s = detector.config().window_s;
        let mut matrix = ConfusionMatrix::default();
        let mut scored = Vec::new();
        for w in &protocol.test_set(subjects, i, window_s)? {
            let detection = detector.classify(&w.snippet)?;
            matrix.record(w.truth, detection.label);
            scored.push((detection.score, w.truth));
        }
        per_subject.push(SubjectResult {
            subject: subject.id,
            matrix,
            scored,
        });
    }
    let averaged = AveragedMetrics::from_matrices(
        &per_subject.iter().map(|s| s.matrix).collect::<Vec<_>>(),
    )
    .ok_or(SiftError::InvalidConfig {
        reason: "at least one subject required",
    })?;
    Ok(EvaluationResult {
        per_subject,
        averaged,
    })
}

/// Train one model per subject for `version` (each subject's model uses
/// all other subjects as donors).
///
/// # Errors
///
/// Propagates [`crate::trainer::train`] errors.
pub fn train_models(
    subjects: &[Subject],
    version: Version,
    config: &SiftConfig,
) -> Result<Vec<SiftModel>, SiftError> {
    crate::trainer::enroll(subjects, 0..subjects.len(), config, config.seed, |v, d| {
        crate::trainer::train(v, d, version, config)
    })
}

/// Evaluate one (version, flavor) cell end to end: train then test.
///
/// # Errors
///
/// Propagates training and evaluation errors.
pub fn evaluate(
    subjects: &[Subject],
    version: Version,
    flavor: PlatformFlavor,
    config: &SiftConfig,
    protocol: &EvalProtocol,
) -> Result<EvaluationResult, SiftError> {
    let models = train_models(subjects, version, config)?;
    evaluate_with_models(subjects, &models, flavor, config, protocol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use physio_sim::subject::bank;

    fn quick_config() -> SiftConfig {
        SiftConfig {
            train_s: 60.0,
            max_positive_per_donor: Some(15),
            ..SiftConfig::default()
        }
    }

    /// A reduced-scale end-to-end run: 4 subjects, 1 minute of training.
    /// The full-scale run lives in the bench harness.
    #[test]
    fn small_scale_evaluation_beats_chance_by_wide_margin() {
        let subjects = &bank()[..4];
        let cfg = quick_config();
        let result = evaluate(
            subjects,
            Version::Simplified,
            PlatformFlavor::Gold,
            &cfg,
            &EvalProtocol::default(),
        )
        .unwrap();
        assert_eq!(result.per_subject.len(), 4);
        for s in &result.per_subject {
            assert_eq!(s.matrix.total(), 40, "40 windows per subject");
            assert_eq!(s.scored.len(), 40, "one score per window");
            let auc = ml::metrics::roc_auc(&s.scored).unwrap();
            assert!(auc > 0.8, "{}: auc {auc}", s.subject);
        }
        assert!(
            result.averaged.accuracy > 0.75,
            "accuracy {}",
            result.averaged.accuracy
        );
    }

    /// Per-window scores rank well: every subject's AUC over s00–s02
    /// (Simplified, gold) clears 0.8 and their mean clears 0.85.
    #[test]
    fn auc_is_high_and_bounded() {
        let subjects = &bank()[..3];
        let cfg = quick_config();
        let result = evaluate(
            subjects,
            Version::Simplified,
            PlatformFlavor::Gold,
            &cfg,
            &EvalProtocol::default(),
        )
        .unwrap();
        let aucs: Vec<f64> = result
            .per_subject
            .iter()
            .map(|s| ml::metrics::roc_auc(&s.scored).unwrap())
            .collect();
        assert_eq!(aucs.len(), 3);
        for (s, auc) in result.per_subject.iter().zip(&aucs) {
            assert!((0.0..=1.0).contains(auc), "{}: {auc}", s.subject);
            assert!(*auc > 0.8, "{}: auc {auc}", s.subject);
        }
        let mean = aucs.iter().sum::<f64>() / aucs.len() as f64;
        assert!(mean > 0.85, "mean auc {mean}");
    }

    #[test]
    fn amulet_flavor_tracks_gold() {
        let subjects = &bank()[..3];
        let cfg = quick_config();
        let models = train_models(subjects, Version::Reduced, &cfg).unwrap();
        let protocol = EvalProtocol::default();
        let gold =
            evaluate_with_models(subjects, &models, PlatformFlavor::Gold, &cfg, &protocol)
                .unwrap();
        let amulet =
            evaluate_with_models(subjects, &models, PlatformFlavor::Amulet, &cfg, &protocol)
                .unwrap();
        assert!(
            (gold.averaged.accuracy - amulet.averaged.accuracy).abs() < 0.15,
            "gold {} vs amulet {}",
            gold.averaged.accuracy,
            amulet.averaged.accuracy
        );
    }

    #[test]
    fn model_count_must_match() {
        let subjects = &bank()[..3];
        let cfg = quick_config();
        let models = train_models(&subjects[..2], Version::Reduced, &cfg).unwrap();
        assert!(evaluate_with_models(
            subjects,
            &models,
            PlatformFlavor::Gold,
            &cfg,
            &EvalProtocol::default()
        )
        .is_err());
    }

    #[test]
    fn protocol_defaults_match_paper() {
        let p = EvalProtocol::default();
        assert_eq!(p.test_s, 120.0);
        assert_eq!(p.altered_fraction, 0.5);
        let subjects = &bank()[..2];
        assert_eq!(p.test_set(subjects, 1, 3.0).unwrap().len(), 40);
    }
}
