//! The online detector (paper §II-A, "Detection step").
//!
//! Every newly received `w`-second ECG+ABP snippet is turned into a
//! feature point and fed to the user-specific model; a positive label
//! means the ECG snippet is considered altered and an alert is raised.

use crate::config::SiftConfig;
use crate::flavor::{extract_amulet_f32, PlatformFlavor};
use crate::snippet::Snippet;
use crate::trainer::SiftModel;
use crate::SiftError;
use ml::{DetectorBackend, DetectorModel, Label};

/// Outcome of classifying one snippet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The label: `Positive` = altered → raise an alert.
    pub label: Label,
    /// Signed decision value (distance-like; positive = altered side).
    pub score: f64,
    /// Whether the snippet was degenerate (flat/non-finite channel). A
    /// degenerate snippet cannot be a genuine measurement, so it is
    /// flagged positive with this bit set for diagnosis.
    pub degenerate: bool,
}

impl Detection {
    /// Whether this detection should raise an alert.
    pub fn is_alert(&self) -> bool {
        self.label == Label::Positive
    }
}

/// A deployed detector: a trained model plus the platform flavor whose
/// arithmetic it runs with.
///
/// The Amulet arm scores through the backend-generic
/// [`DetectorModel`]; by default that is the gold model's own embedded
/// SVM translation (bit-identical to the pre-zoo path), but
/// [`Detector::with_backend`] swaps in any registered backend of the
/// same dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    model: SiftModel,
    deployed: DetectorModel,
    flavor: PlatformFlavor,
    config: SiftConfig,
}

impl Detector {
    /// Assemble a detector deploying the model's own embedded SVM
    /// translation: [`Detector::with_backend`] with that translation.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Detector::with_backend`].
    pub fn new(
        model: SiftModel,
        flavor: PlatformFlavor,
        config: SiftConfig,
    ) -> Result<Self, SiftError> {
        let deployed = model.embedded().clone();
        Self::with_backend(model, deployed, flavor, config)
    }

    /// Assemble a detector that scores its Amulet arm with an
    /// arbitrary registered backend (the gold arm keeps the SVM's
    /// double-precision reference path).
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::InvalidConfig`] if the configuration fails
    /// validation, and [`SiftError::Checkpoint`] when the backend's
    /// dimension does not match the model's flavor.
    pub fn with_backend(
        model: SiftModel,
        deployed: impl Into<DetectorModel>,
        flavor: PlatformFlavor,
        config: SiftConfig,
    ) -> Result<Self, SiftError> {
        config.validate()?;
        let deployed = deployed.into();
        if deployed.dim() != model.version().feature_count() {
            return Err(SiftError::Checkpoint {
                reason: "model dimension does not match detector version",
            });
        }
        Ok(Self {
            model,
            deployed,
            flavor,
            config,
        })
    }

    /// The deployed (device-side) backend model the Amulet arm scores
    /// with.
    pub fn deployed(&self) -> &DetectorModel {
        &self.deployed
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &SiftConfig {
        &self.config
    }

    /// Classify one snippet.
    ///
    /// Degenerate snippets (constant or non-finite channels — e.g. a
    /// frozen sensor) are flagged positive rather than erroring: a signal
    /// that cannot form a portrait cannot be a genuine measurement.
    ///
    /// # Errors
    ///
    /// Propagates non-degenerate extraction failures (snippet/config
    /// inconsistencies).
    pub fn classify(&self, snippet: &Snippet) -> Result<Detection, SiftError> {
        match self.flavor {
            PlatformFlavor::Gold => {
                let features =
                    match crate::features::extract(self.model.version(), snippet, &self.config) {
                        Ok(f) => f,
                        Err(SiftError::DegenerateSignal) => return Ok(Detection::degenerate()),
                        Err(e) => return Err(e),
                    };
                let score = self.model.decision(&features)?;
                Ok(Detection {
                    label: Label::from_sign(score),
                    score,
                    degenerate: false,
                })
            }
            PlatformFlavor::Amulet => {
                let features =
                    match extract_amulet_f32(self.model.version(), snippet, &self.config) {
                        Ok(f) => f,
                        Err(SiftError::DegenerateSignal) => return Ok(Detection::degenerate()),
                        Err(e) => return Err(e),
                    };
                let score = self.deployed.score_f32(&features) as f64;
                Ok(Detection {
                    label: Label::from_sign(score),
                    score,
                    degenerate: false,
                })
            }
        }
    }
}

impl Detection {
    fn degenerate() -> Self {
        Detection {
            label: Label::Positive,
            score: f64::MAX,
            degenerate: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Version;
    use crate::trainer::train_for_subject;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;

    fn quick_config() -> SiftConfig {
        SiftConfig {
            train_s: 60.0,
            max_positive_per_donor: Some(20),
            ..SiftConfig::default()
        }
    }

    fn detector(version: Version, flavor: PlatformFlavor) -> Detector {
        let b = bank();
        let cfg = quick_config();
        let model = train_for_subject(&b, 0, version, &cfg, 4242).unwrap();
        Detector::new(model, flavor, cfg).unwrap()
    }

    #[test]
    fn genuine_windows_mostly_pass() {
        let det = detector(Version::Simplified, PlatformFlavor::Gold);
        let own = Record::synthesize(&bank()[0], 30.0, 31337);
        let mut alerts = 0;
        let mut total = 0;
        for w in windows(&own, 3.0).unwrap() {
            let sn = Snippet::from_record(&w).unwrap();
            let d = det.classify(&sn).unwrap();
            total += 1;
            alerts += usize::from(d.is_alert());
        }
        assert!(
            (alerts as f64) / (total as f64) < 0.3,
            "false alerts {alerts}/{total}"
        );
    }

    #[test]
    fn substituted_windows_mostly_alert() {
        let det = detector(Version::Simplified, PlatformFlavor::Gold);
        let own = Record::synthesize(&bank()[0], 30.0, 31337);
        let donor = Record::synthesize(&bank()[5], 30.0, 9999);
        let vw = windows(&own, 3.0).unwrap();
        let dw = windows(&donor, 3.0).unwrap();
        let mut alerts = 0;
        let mut total = 0;
        for (v, d) in vw.iter().zip(&dw) {
            let sn = Snippet::new(
                d.ecg.clone(),
                v.abp.clone(),
                d.r_peaks.clone(),
                v.sys_peaks.clone(),
            )
            .unwrap();
            let det_out = det.classify(&sn).unwrap();
            total += 1;
            alerts += usize::from(det_out.is_alert());
        }
        assert!(
            (alerts as f64) / (total as f64) > 0.7,
            "missed attacks: {alerts}/{total}"
        );
    }

    #[test]
    fn amulet_flavor_agrees_with_gold_mostly() {
        let gold = detector(Version::Original, PlatformFlavor::Gold);
        let amulet = Detector::new(
            gold.model.clone(),
            PlatformFlavor::Amulet,
            gold.config().clone(),
        )
        .unwrap();
        let own = Record::synthesize(&bank()[0], 30.0, 555);
        let mut agree = 0;
        let mut total = 0;
        for w in windows(&own, 3.0).unwrap() {
            let sn = Snippet::from_record(&w).unwrap();
            let g = gold.classify(&sn).unwrap();
            let a = amulet.classify(&sn).unwrap();
            total += 1;
            agree += usize::from(g.label == a.label);
        }
        assert!(agree * 10 >= total * 9, "agreement {agree}/{total}");
    }

    #[test]
    fn frozen_sensor_raises_degenerate_alert() {
        let det = detector(Version::Simplified, PlatformFlavor::Amulet);
        let sn = Snippet::new(vec![0.7; 1080], vec![80.0; 1080], vec![], vec![]).unwrap();
        let d = det.classify(&sn).unwrap();
        assert!(d.is_alert());
        assert!(d.degenerate);
    }

    #[test]
    fn detection_exposes_score_sign() {
        let det = detector(Version::Reduced, PlatformFlavor::Gold);
        let own = Record::synthesize(&bank()[0], 6.0, 808);
        let w = &windows(&own, 3.0).unwrap()[0];
        let d = det.classify(&Snippet::from_record(w).unwrap()).unwrap();
        assert_eq!(d.label, ml::Label::from_sign(d.score));
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let b = bank();
        let cfg = quick_config();
        let model = train_for_subject(&b, 0, Version::Reduced, &cfg, 1).unwrap();
        let bad = SiftConfig {
            window_s: 0.0,
            ..cfg
        };
        assert!(Detector::new(model, PlatformFlavor::Gold, bad).is_err());
    }
}
