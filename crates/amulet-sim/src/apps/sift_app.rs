//! The SIFT detector as an AmuletOS application.
//!
//! Paper §III: "each version of our detector consists of three states:
//! (1) *PeaksDataCheck state*; (2) *FeatureExtraction state*; (3) and
//! *MLClassifier state*." The states are genuine QM states here: each
//! stage runs in its own run-to-completion step, chained through
//! self-posted signals, exactly like the generated QM code on the
//! device. Every stage charges its cycle cost from [`crate::costs`] to
//! the battery meter.

use crate::costs::{detector_cycles, tsetlin_classifier_cycles, OpCosts, StageCycles};
use crate::display::Severity;
use crate::event::AmuletEvent;
use crate::machine::{App, AppContext};
use crate::profiler::{sift_app_spec, AppResourceSpec};
use ml::{BackendKind, DetectorBackend, DetectorModel, Label};
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::extract_amulet_f32;
use sift::snippet::Snippet;
use sift::SiftError;

/// Self-posted signal: snippet checked, run feature extraction.
pub const SIG_EXTRACT: u32 = 0x51F7_0010;
/// Self-posted signal: features ready, run the classifier.
pub const SIG_CLASSIFY: u32 = 0x51F7_0011;

/// Detector state (the three QM states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    PeaksDataCheck,
    FeatureExtraction,
    MlClassifier,
}

/// Running statistics of the detector app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiftAppStats {
    /// Windows fully processed.
    pub windows: u64,
    /// Alerts raised (positive classifications).
    pub alerts: u64,
    /// Windows rejected in PeaksDataCheck (malformed/degenerate).
    pub rejected: u64,
}

/// The detector application.
pub struct SiftApp {
    name: String,
    version: Version,
    model: DetectorModel,
    config: SiftConfig,
    costs: OpCosts,
    state: State,
    pending_snippet: Option<Snippet>,
    pending_features: Option<Vec<f32>>,
    pending_precomputed: Option<Vec<f32>>,
    stats: SiftAppStats,
}

impl std::fmt::Debug for SiftApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiftApp")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("state", &self.current_state())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SiftApp {
    /// Create the app from a deployed (translated) model of any
    /// registered backend family. SVM-backed apps keep the historical
    /// `sift-{version}` name; other backends register as
    /// `{backend}-{version}` so an SVM app and its replacement never
    /// collide in the OS app table.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::InvalidConfig`] if the model dimension does
    /// not match the version's feature count or the config is invalid.
    pub fn new(
        version: Version,
        model: impl Into<DetectorModel>,
        config: SiftConfig,
    ) -> Result<Self, SiftError> {
        config.validate()?;
        let model = model.into();
        if model.dim() != version.feature_count() {
            return Err(SiftError::InvalidConfig {
                reason: "model dimension does not match detector version",
            });
        }
        // lint:allow(embedded-no-heap-alloc, host-side app registration label)
        let name = match model.kind() {
            BackendKind::Svm => format!("sift-{version}"),
            BackendKind::Tsetlin => format!("tsetlin-{version}"),
        };
        Ok(Self {
            name,
            version,
            model,
            config,
            costs: OpCosts::default(),
            state: State::PeaksDataCheck,
            pending_snippet: None,
            pending_features: None,
            pending_precomputed: None,
            stats: SiftAppStats::default(),
        })
    }

    /// The detector version this app runs.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Running statistics.
    pub fn stats(&self) -> SiftAppStats {
        self.stats
    }

    fn stage_cycles(&self) -> StageCycles {
        let mut cycles = detector_cycles(self.version, &self.config, &self.costs, 4.0);
        if let Some(tm) = self.model.as_tsetlin() {
            cycles.ml_classifier = tsetlin_classifier_cycles(tm.dim(), tm.pairs(), &self.costs);
        }
        cycles
    }
}

impl App for SiftApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn resource_spec(&self) -> AppResourceSpec {
        let mut spec = sift_app_spec(self.version, &self.config, self.model.footprint_bytes());
        // Non-SVM backends keep the same pipeline spec but register
        // under their own name and carry their own classifier cycles.
        spec.name = self.name.clone();
        spec.cycles_per_period = self.stage_cycles().total();
        spec
    }

    fn current_state(&self) -> &'static str {
        match self.state {
            State::PeaksDataCheck => "PeaksDataCheck",
            State::FeatureExtraction => "FeatureExtraction",
            State::MlClassifier => "MLClassifier",
        }
    }

    // lint:allow(embedded-no-heap-alloc, display strings render on the host; device firmware writes a fixed screen buffer)
    fn handle(&mut self, event: &AmuletEvent, ctx: &mut AppContext<'_>) {
        match (self.state, event) {
            (
                State::PeaksDataCheck,
                AmuletEvent::SnippetReady(snippet) | AmuletEvent::SnippetScored(snippet, _),
            ) => {
                ctx.charge_stage(telemetry::Stage::PeakDetection, self.stage_cycles().peaks_data_check);
                if snippet.len() != self.config.window_samples() {
                    self.stats.rejected += 1;
                    ctx.display(Severity::Debug, "snippet length mismatch; dropped");
                    return;
                }
                ctx.display(
                    Severity::Info,
                    format!("ecg/abp window ({} samples)", snippet.len()),
                );
                // Reuse station-extracted features when their shape
                // matches this detector's version (bit-identical to
                // extracting here: same function, same input, same
                // config at the station). A mismatched shape — e.g. an
                // uplink version differing from a reflashed detector —
                // falls back to extracting from the snippet.
                self.pending_precomputed = match event {
                    AmuletEvent::SnippetScored(_, features)
                        if features.len() == self.version.feature_count() =>
                    {
                        Some(features.clone())
                    }
                    _ => None,
                };
                if self.pending_precomputed.is_some() {
                    self.pending_snippet = None;
                } else {
                    self.pending_snippet = Some(snippet.clone());
                }
                self.state = State::FeatureExtraction;
                ctx.post(AmuletEvent::Signal(SIG_EXTRACT));
            }
            (State::FeatureExtraction, AmuletEvent::Signal(sig)) if *sig == SIG_EXTRACT => {
                ctx.charge_stage(
                    telemetry::Stage::FeatureExtraction,
                    self.stage_cycles().feature_extraction,
                );
                // Station-extracted features short-circuit the
                // recomputation (the stage cycles above are still
                // charged — the real device would run the extraction).
                if let Some(features) = self.pending_precomputed.take() {
                    self.pending_features = Some(features);
                    self.state = State::MlClassifier;
                    ctx.post(AmuletEvent::Signal(SIG_CLASSIFY));
                    return;
                }
                // QM invariant: SIG_EXTRACT is only posted after the
                // snippet is latched. Should the state machine ever
                // desynchronize, recover to the idle state — on the
                // device a panic would be a watchdog reset.
                let Some(snippet) = self.pending_snippet.take() else {
                    self.stats.rejected += 1;
                    self.state = State::PeaksDataCheck;
                    return;
                };
                match extract_amulet_f32(self.version, &snippet, &self.config) {
                    Ok(features) => {
                        self.pending_features = Some(features);
                        self.state = State::MlClassifier;
                        ctx.post(AmuletEvent::Signal(SIG_CLASSIFY));
                    }
                    Err(SiftError::DegenerateSignal) => {
                        // A flat-lined channel cannot be genuine: alert
                        // directly and return to the idle state.
                        self.stats.windows += 1;
                        self.stats.alerts += 1;
                        ctx.raise_alert("ECG ALTERED (degenerate signal)");
                        self.state = State::PeaksDataCheck;
                    }
                    Err(_) => {
                        self.stats.rejected += 1;
                        ctx.display(Severity::Debug, "feature extraction failed; dropped");
                        self.state = State::PeaksDataCheck;
                    }
                }
            }
            (State::MlClassifier, AmuletEvent::Signal(sig)) if *sig == SIG_CLASSIFY => {
                ctx.charge_stage(telemetry::Stage::Svm, self.stage_cycles().ml_classifier);
                // Same recovery as FeatureExtraction: never panic over
                // a desynchronized state machine.
                let Some(features) = self.pending_features.take() else {
                    self.stats.rejected += 1;
                    self.state = State::PeaksDataCheck;
                    return;
                };
                let label = self.model.predict_f32(&features);
                self.stats.windows += 1;
                if label == Label::Positive {
                    self.stats.alerts += 1;
                    ctx.raise_alert("ECG ALTERED");
                } else {
                    ctx.display(Severity::Info, "ecg ok");
                }
                self.state = State::PeaksDataCheck;
            }
            // Snippets arriving mid-pipeline are dropped (the device
            // cannot buffer more than one window).
            (_, AmuletEvent::SnippetReady(_) | AmuletEvent::SnippetScored(..)) => {
                self.stats.rejected += 1;
                ctx.display(Severity::Debug, "busy; window dropped");
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::AmuletOs;
    use crate::profiler::ResourceProfiler;
    use crate::toolchain::FirmwareImage;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;
    use sift::trainer::train_for_subject;

    fn quick_config() -> SiftConfig {
        SiftConfig {
            train_s: 60.0,
            max_positive_per_donor: Some(15),
            ..SiftConfig::default()
        }
    }

    fn make_app(version: Version) -> SiftApp {
        let cfg = quick_config();
        let model = train_for_subject(&bank(), 0, version, &cfg, 77).unwrap();
        SiftApp::new(version, model.embedded().clone(), cfg).unwrap()
    }

    fn os_with_app(app: SiftApp) -> AmuletOs {
        let mut os = AmuletOs::new();
        let image =
            FirmwareImage::build(vec![app.resource_spec()], &ResourceProfiler::default()).unwrap();
        os.install(&image, vec![Box::new(app)]).unwrap();
        os
    }

    fn snippets(subject: usize, seed: u64, secs: f64) -> Vec<Snippet> {
        let r = Record::synthesize(&bank()[subject], secs, seed);
        physio_sim::dataset::windows(&r, 3.0)
            .unwrap()
            .iter()
            .map(|w| Snippet::from_record(w).unwrap())
            .collect()
    }

    #[test]
    fn three_state_pipeline_processes_windows() {
        let mut os = os_with_app(make_app(Version::Simplified));
        for sn in snippets(0, 101, 15.0) {
            os.post(AmuletEvent::SnippetReady(sn));
            os.run_until_idle().unwrap();
            os.advance_time(3000);
        }
        // Each window = 3 dispatches (snippet + two signals).
        assert_eq!(os.dispatched(), 15);
        assert_eq!(os.app_state("sift-simplified").unwrap(), "PeaksDataCheck");
    }

    #[test]
    fn own_data_rarely_alerts_donor_data_usually_alerts() {
        let app = make_app(Version::Simplified);
        let mut os = os_with_app(app);
        // Genuine windows.
        for sn in snippets(0, 2024, 30.0) {
            os.post(AmuletEvent::SnippetReady(sn));
            os.run_until_idle().unwrap();
        }
        let genuine_alerts = os.alerts().len();
        assert!(genuine_alerts <= 3, "false alerts: {genuine_alerts}");

        // Altered windows: own ABP + donor ECG.
        let own = Record::synthesize(&bank()[0], 30.0, 2024);
        let donor = Record::synthesize(&bank()[4], 30.0, 4048);
        let vw = physio_sim::dataset::windows(&own, 3.0).unwrap();
        let dw = physio_sim::dataset::windows(&donor, 3.0).unwrap();
        for (v, d) in vw.iter().zip(&dw) {
            let sn = Snippet::new(
                d.ecg.clone(),
                v.abp.clone(),
                d.r_peaks.clone(),
                v.sys_peaks.clone(),
            )
            .unwrap();
            os.post(AmuletEvent::SnippetReady(sn));
            os.run_until_idle().unwrap();
        }
        let attack_alerts = os.alerts().len() - genuine_alerts;
        assert!(attack_alerts >= 7, "only {attack_alerts}/10 attacks caught");
    }

    #[test]
    fn busy_pipeline_drops_extra_snippets() {
        let app = make_app(Version::Reduced);
        let mut os = os_with_app(app);
        let sns = snippets(0, 5, 6.0);
        // Post two windows without draining — the second arrives while
        // the app is mid-pipeline.
        os.post(AmuletEvent::SnippetReady(sns[0].clone()));
        os.step().unwrap(); // PeaksDataCheck of window 0
        os.post(AmuletEvent::SnippetReady(sns[1].clone()));
        os.run_until_idle().unwrap();
        // One processed, one rejected — observable on the debug display.
        let dropped = os
            .display()
            .lines()
            .iter()
            .filter(|l| l.text.contains("busy"))
            .count();
        assert_eq!(dropped, 1);
    }

    #[test]
    fn degenerate_snippet_alerts() {
        let app = make_app(Version::Simplified);
        let mut os = os_with_app(app);
        let flat = Snippet::new(vec![0.5; 1080], vec![80.0; 1080], vec![], vec![]).unwrap();
        os.post(AmuletEvent::SnippetReady(flat));
        os.run_until_idle().unwrap();
        assert_eq!(os.alerts().len(), 1);
        assert!(os.alerts()[0].message.contains("degenerate"));
    }

    #[test]
    fn wrong_length_snippet_rejected() {
        let app = make_app(Version::Simplified);
        let mut os = os_with_app(app);
        let short = Snippet::new(vec![0.1, 0.9, 0.2], vec![70.0, 80.0, 75.0], vec![1], vec![1])
            .unwrap();
        os.post(AmuletEvent::SnippetReady(short));
        os.run_until_idle().unwrap();
        assert!(os.alerts().is_empty());
        assert_eq!(os.app_state("sift-simplified").unwrap(), "PeaksDataCheck");
    }

    #[test]
    fn tsetlin_backend_runs_the_same_three_state_pipeline() {
        let cfg = quick_config();
        let model = sift::zoo::train_backend_for_subject(
            &bank(),
            0,
            Version::Reduced,
            ml::BackendKind::Tsetlin,
            &cfg,
            77,
        )
        .unwrap();
        let app = SiftApp::new(Version::Reduced, model, cfg).unwrap();
        assert_eq!(app.name(), "tsetlin-reduced");
        assert_eq!(app.model.kind(), ml::BackendKind::Tsetlin);
        assert_eq!(app.resource_spec().name, "tsetlin-reduced");
        let mut os = os_with_app(app);
        for sn in snippets(0, 101, 9.0) {
            os.post(AmuletEvent::SnippetReady(sn));
            os.run_until_idle().unwrap();
            os.advance_time(3000);
        }
        // Three dispatches per window, back to idle between windows.
        assert_eq!(os.dispatched(), 9);
        assert_eq!(os.app_state("tsetlin-reduced").unwrap(), "PeaksDataCheck");
    }

    #[test]
    fn tsetlin_classifier_stage_uses_integer_cycle_model() {
        let cfg = quick_config();
        let model = sift::zoo::train_backend_for_subject(
            &bank(),
            0,
            Version::Simplified,
            ml::BackendKind::Tsetlin,
            &cfg,
            77,
        )
        .unwrap();
        let tm = model.as_tsetlin().unwrap().clone();
        let app = SiftApp::new(Version::Simplified, model, cfg.clone()).unwrap();
        let expected = tsetlin_classifier_cycles(tm.dim(), tm.pairs(), &OpCosts::default());
        assert_eq!(app.stage_cycles().ml_classifier, expected);
        // The other two stages keep the shared pipeline prices.
        let svm = detector_cycles(Version::Simplified, &cfg, &OpCosts::default(), 4.0);
        assert_eq!(app.stage_cycles().peaks_data_check, svm.peaks_data_check);
        assert_eq!(app.stage_cycles().feature_extraction, svm.feature_extraction);
    }

    #[test]
    fn model_dimension_checked_at_construction() {
        let cfg = quick_config();
        let model = train_for_subject(&bank(), 0, Version::Reduced, &cfg, 77).unwrap();
        // A 5-feature model cannot drive the 8-feature original app.
        assert!(SiftApp::new(Version::Original, model.embedded().clone(), cfg).is_err());
    }

    #[test]
    fn telemetry_spans_carry_cost_model_cycles() {
        use telemetry::{Stage, Telemetry};
        let app = make_app(Version::Reduced);
        let mut os = os_with_app(app);
        os.attach_telemetry(Telemetry::enabled());
        let sns = snippets(0, 101, 6.0); // two 3-second windows
        let n_windows = sns.len() as u64;
        for sn in sns {
            os.post(AmuletEvent::SnippetReady(sn));
            os.run_until_idle().unwrap();
        }
        let report = os.telemetry_mut().report().unwrap();
        let cycles = detector_cycles(Version::Reduced, &quick_config(), &OpCosts::default(), 4.0);
        for (stage, expected) in [
            (Stage::PeakDetection, cycles.peaks_data_check),
            (Stage::FeatureExtraction, cycles.feature_extraction),
            (Stage::Svm, cycles.ml_classifier),
        ] {
            let s = report.stage(stage);
            assert_eq!(s.spans, n_windows, "{}", stage.name());
            assert_eq!(s.units, n_windows * expected as u64, "{}", stage.name());
        }
    }

    #[test]
    fn telemetry_does_not_change_energy_accounting() {
        use telemetry::Telemetry;
        let run = |telemetry: bool| {
            let mut os = os_with_app(make_app(Version::Simplified));
            if telemetry {
                os.attach_telemetry(Telemetry::enabled());
            }
            for sn in snippets(0, 77, 9.0) {
                os.post(AmuletEvent::SnippetReady(sn));
                os.run_until_idle().unwrap();
                os.advance_time(3000);
            }
            (
                os.meter().consumed_mah(),
                os.meter().active_cycles(),
                os.alerts().len(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn energy_is_charged_per_window() {
        let app = make_app(Version::Original);
        let mut os = os_with_app(app);
        let before = os.meter().consumed_mah();
        for sn in snippets(0, 6, 6.0) {
            os.post(AmuletEvent::SnippetReady(sn));
            os.run_until_idle().unwrap();
        }
        assert!(os.meter().consumed_mah() > before);
        assert!(os.meter().active_cycles() > 1e6);
    }
}
