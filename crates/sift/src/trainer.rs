//! Offline training of user-specific models (paper §II-A, "Training
//! step").
//!
//! For a wearer (the *victim*):
//!
//! * **negative** feature points come from sliding a `w`-second window
//!   over Δ time-units of the wearer's own synchronized ECG + ABP;
//! * **positive** feature points come from portraits of the wearer's ABP
//!   paired with *other users'* ECG (the donors), windowed the same way.
//!
//! Training always runs on the gold (double-precision) features — it is
//! offline, "need not be done on amulet platform itself" — and the
//! resulting scaler + linear SVM are then *translated* into the flat
//! [`EmbeddedModel`] that ships to the device.

use crate::config::SiftConfig;
use crate::features::{AbpAxis, Axis, JointCounts, Version};
use crate::snippet::{check_peaks, pair_peaks};
use crate::SiftError;
use ml::embedded::EmbeddedModel;
use ml::linear_svm::{LinearSvm, LinearSvmTrainer};
use ml::scaler::StandardScaler;
use ml::{Dataset, Label};
use physio_sim::dataset::WindowGrid;
use physio_sim::record::{peaks_in, EcgSpan, Record};
use physio_sim::subject::Subject;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A trained user-specific SIFT model: the detector version it was built
/// for, the fitted scaler, the SVM hyperplane, and its embedded
/// translation.
#[derive(Debug, Clone, PartialEq)]
pub struct SiftModel {
    version: Version,
    scaler: StandardScaler,
    svm: LinearSvm,
    embedded: EmbeddedModel,
}

impl SiftModel {
    /// Detector version this model classifies features of.
    pub fn version(&self) -> Version {
        self.version
    }

    /// The trained hyperplane.
    pub fn svm(&self) -> &LinearSvm {
        &self.svm
    }

    /// The translated single-precision model deployed on the Amulet.
    pub fn embedded(&self) -> &EmbeddedModel {
        &self.embedded
    }

    /// Gold-path decision value for a raw (unscaled) `f64` feature
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::Ml`] on a dimension mismatch.
    pub fn decision(&self, features: &[f64]) -> Result<f64, SiftError> {
        use ml::Classifier;
        let scaled = self.scaler.transform(features)?;
        Ok(self.svm.decision_function(&scaled))
    }
}

/// Train a model for `victim_train` against the given donors' training
/// records.
///
/// # Errors
///
/// Returns [`SiftError::NoDonors`] with an empty donor list,
/// [`SiftError::InvalidConfig`] for inconsistent configuration, and
/// propagates feature-extraction and SVM errors.
pub fn train(
    victim_train: &Record,
    donor_trains: &[&Record],
    version: Version,
    config: &SiftConfig,
) -> Result<SiftModel, SiftError> {
    let data = build_training_set(victim_train, donor_trains, version, config)?;
    train_from_dataset(version, &data, config)
}

/// Fit the scaler + SVM + embedded translation on an already-assembled
/// training set — the SVM rung of the detector zoo's shared
/// "dataset in, deployable model out" seam (`sift::zoo` feeds the same
/// dataset to other backends).
///
/// # Errors
///
/// Returns [`SiftError::Ml`] with
/// [`SingleClass`](ml::MlError::SingleClass) when `data` lacks a class,
/// and propagates scaler/SVM/translation errors.
pub fn train_from_dataset(
    version: Version,
    data: &Dataset,
    config: &SiftConfig,
) -> Result<SiftModel, SiftError> {
    if !data.has_both_classes() {
        return Err(SiftError::Ml(ml::MlError::SingleClass));
    }

    let scaler = StandardScaler::fit(data)?;
    let scaled = scaler.transform_dataset(data)?;
    let trainer = LinearSvmTrainer {
        c: config.svm_c,
        seed: config.seed ^ 0x57A1,
        ..LinearSvmTrainer::default()
    };
    let svm = trainer.fit(&scaled)?;
    let embedded = EmbeddedModel::translate(&scaler, &svm)?;
    Ok(SiftModel {
        version,
        scaler,
        svm,
        embedded,
    })
}

/// A donor's training ECG: the channel and R peaks the positive class
/// borrows from another user, read by session index from the session
/// start. A whole [`Record`] is one; so is an [`EcgSpan`] that starts at
/// the session start ([`Record::ecg_span`]), which costs no ABP channel
/// to render. Donors are read at the victim record's sample rate.
pub trait DonorEcg {
    /// The ECG samples readable from the session start and the R peaks
    /// among them (ascending session indices), or `None` if the session
    /// start is not readable.
    fn session_ecg(&self) -> Option<(&[f64], impl Iterator<Item = usize> + '_)>;
}

impl DonorEcg for Record {
    fn session_ecg(&self) -> Option<(&[f64], impl Iterator<Item = usize> + '_)> {
        Some((self.ecg.as_slice(), self.r_peaks.iter().copied()))
    }
}

impl DonorEcg for EcgSpan {
    fn session_ecg(&self) -> Option<(&[f64], impl Iterator<Item = usize> + '_)> {
        let span = self.range();
        (span.start == 0).then(|| self.read(0, span.end))
    }
}

impl<D: DonorEcg + ?Sized> DonorEcg for &D {
    fn session_ecg(&self) -> Option<(&[f64], impl Iterator<Item = usize> + '_)> {
        (**self).session_ecg()
    }
}

/// Assemble the labeled training set for a wearer (the positive/negative
/// feature points of the paper's training step) without fitting a model.
/// Exposed so ablations can feed the same points to other classifiers.
///
/// Windows follow [`WindowGrid`] (`config.window_s` advanced by
/// `config.train_step_s`) and are read in place. The rows are the
/// wearer's own windows (negatives), then each donor's windows
/// (positives); against each donor the grid is laid over the first
/// `min(victim, donor)` samples. Every donor grid shares the wearer's
/// step, so the windows are featurized grid start by grid start: the
/// wearer's ABP axis at a start is built once and paired with the
/// wearer's own ECG and with every donor ECG drawn there, and no window
/// is copied. A window without an R/systolic pair, with a degenerate
/// channel or with a non-finite feature is skipped.
///
/// # Errors
///
/// Same conditions as [`train`], except that a single-class result is
/// returned as-is rather than an error; [`SiftError::InvalidConfig`] if
/// a donor's ECG is not readable from the session start (an [`EcgSpan`]
/// cut after it); [`SiftError::InvalidSnippet`] if a record's peaks
/// inside a window are not ascending. The error of the first such
/// window or donor in row order is returned.
pub fn build_training_set<D: DonorEcg>(
    victim_train: &Record,
    donor_trains: &[D],
    version: Version,
    config: &SiftConfig,
) -> Result<Dataset, SiftError> {
    config.validate()?;
    if donor_trains.is_empty() {
        return Err(SiftError::NoDonors);
    }

    let mut data = Dataset::new(version.feature_count())?;
    let grid = |samples: usize| {
        WindowGrid::new(
            samples,
            victim_train.fs,
            config.window_s,
            config.train_step_s,
        )
    };
    let own = grid(victim_train.len())?;
    let len = own.window_len();

    // ECG sources read from the session start (the wearer's own first),
    // and the rows as (source, window index) in dataset order.
    let mut sources = vec![(victim_train.ecg.as_slice(), victim_train.r_peaks.clone())];
    let mut rows: Vec<(usize, usize)> = (0..own.count()).map(|k| (0, k)).collect();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xD030);
    // A donor that cannot be read ends the rows; its error comes after
    // those of the rows before it.
    let donors = donor_trains.iter().try_for_each(|donor| {
        let (ecg, r_peaks) = donor.session_ecg().ok_or(SiftError::InvalidConfig {
            reason: "donor ECG is not readable from the session start",
        })?;
        let shared = grid(victim_train.len().min(ecg.len()))?;
        sources.push((ecg, r_peaks.collect()));
        let mut idx: Vec<usize> = (0..shared.count()).collect();
        if let Some(cap) = config.max_positive_per_donor {
            idx.shuffle(&mut rng);
            idx.truncate(cap);
        }
        rows.extend(idx.into_iter().map(|k| (sources.len() - 1, k)));
        Ok::<(), SiftError>(())
    });

    let mut features: Vec<Result<Option<Vec<f64>>, SiftError>> =
        rows.iter().map(|_| Ok(None)).collect();
    let mut by_start: Vec<usize> = (0..rows.len()).collect();
    by_start.sort_by_key(|&i| rows[i].1);
    let (mut r_peaks, mut joint) = (Vec::new(), JointCounts::default());
    for same_start in by_start.chunk_by(|&a, &b| rows[a].1 == rows[b].1) {
        let start = own.start(rows[same_start[0]].1);
        let sys_peaks: Vec<usize> = peaks_in(&victim_train.sys_peaks, start, len).collect();
        // Built on the first window at this start that pairs a peak;
        // `None` inside if the wearer's ABP window is degenerate.
        let mut abp = None;
        for &i in same_start {
            let (ecg, peaks) = &sources[rows[i].0];
            r_peaks.clear();
            r_peaks.extend(peaks_in(peaks, start, len));
            features[i] = check_peaks(&r_peaks, &sys_peaks, len).map(|()| {
                pair_peaks(&r_peaks, &sys_peaks).next()?;
                let abp = abp
                    .get_or_insert_with(|| {
                        Axis::new(&victim_train.abp[start..start + len])
                            .and_then(|axis| AbpAxis::new(axis, version, config.grid_n))
                            .ok()
                    })
                    .as_ref()?;
                let ecg = Axis::new(&ecg[start..start + len]).ok()?;
                let f = abp.features(&ecg, &r_peaks, &sys_peaks, &mut joint);
                f.iter().all(|x| x.is_finite()).then_some(f)
            });
        }
    }

    for (&(source, _), f) in rows.iter().zip(features) {
        if let Some(f) = f? {
            let label = if source == 0 {
                Label::Negative
            } else {
                Label::Positive
            };
            data.push(f, label)?;
        }
    }
    donors.map(|()| data)
}

/// The one enrollment loop: synthesize every subject's Δ training
/// record once, at `seed + i·7919`, then `train` each of `victims`
/// against all the other subjects as donors.
pub(crate) fn enroll<T>(
    subjects: &[Subject],
    victims: impl IntoIterator<Item = usize>,
    config: &SiftConfig,
    seed: u64,
    train: impl Fn(&Record, &[&Record]) -> Result<T, SiftError>,
) -> Result<Vec<T>, SiftError> {
    let records: Vec<Record> = subjects
        .iter()
        .enumerate()
        .map(|(i, s)| Record::synthesize(s, config.train_s, seed.wrapping_add(i as u64 * 7919)))
        .collect();
    victims
        .into_iter()
        .map(|victim| {
            let victim_record = records.get(victim).ok_or(SiftError::InvalidConfig {
                reason: "victim index out of range",
            })?;
            let donors: Vec<&Record> = records
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != victim)
                .map(|(_, r)| r)
                .collect();
            train(victim_record, &donors)
        })
        .collect()
}

/// Convenience for experiments: train a model for `subjects[victim]`
/// using every other subject in the bank as a donor, synthesizing Δ
/// training records deterministically from `seed`.
///
/// # Errors
///
/// Same conditions as [`train`]; additionally returns
/// [`SiftError::InvalidConfig`] if `victim` is out of range.
pub fn train_for_subject(
    subjects: &[Subject],
    victim: usize,
    version: Version,
    config: &SiftConfig,
    seed: u64,
) -> Result<SiftModel, SiftError> {
    let mut models = enroll(subjects, [victim], config, seed, |v, d| {
        train(v, d, version, config)
    })?;
    models.pop().ok_or(SiftError::InvalidConfig {
        reason: "victim index out of range",
    })
}

/// A bank of pre-trained per-subject models behind `Arc`s: the
/// thread-shareable pipeline handle the fleet engine clones into its
/// workers.
///
/// Enrollment (training) happens once per wearer, not once per simulated
/// session, so a fleet of N devices over S subjects trains S models — on
/// the main thread, before any worker starts — and every device holding
/// subject `s` deploys a reference to the same immutable model. Each
/// per-victim model is bit-identical to what
/// [`train_for_subject`] produces for the same `(subjects, version,
/// config, seed)`.
#[derive(Debug, Clone)]
pub struct ModelBank {
    version: Version,
    kind: ml::BackendKind,
    models: Vec<std::sync::Arc<SiftModel>>,
    deployed: Vec<std::sync::Arc<ml::DetectorModel>>,
}

impl ModelBank {
    /// Train one SVM model per subject (each using all others as
    /// donors): [`ModelBank::train_backend`] for
    /// [`BackendKind::Svm`](ml::BackendKind::Svm).
    ///
    /// # Errors
    ///
    /// Propagates [`train`] errors; returns
    /// [`SiftError::InvalidConfig`] for an empty subject slice.
    pub fn train(
        subjects: &[Subject],
        version: Version,
        config: &SiftConfig,
        seed: u64,
    ) -> Result<Self, SiftError> {
        Self::train_backend(subjects, version, ml::BackendKind::Svm, config, seed)
    }

    /// Train one model per subject for a registered backend — the
    /// zoo's enrollment entry point — with the records and seeds of
    /// [`train_for_subject`]. Only the SVM bank also keeps each
    /// victim's gold model.
    ///
    /// # Errors
    ///
    /// Propagates trainer errors; returns [`SiftError::InvalidConfig`]
    /// for an empty subject slice.
    pub fn train_backend(
        subjects: &[Subject],
        version: Version,
        kind: ml::BackendKind,
        config: &SiftConfig,
        seed: u64,
    ) -> Result<Self, SiftError> {
        if subjects.is_empty() {
            return Err(SiftError::InvalidConfig {
                reason: "at least one subject required",
            });
        }
        let victims = 0..subjects.len();
        let (models, deployed) = if kind == ml::BackendKind::Svm {
            let models = enroll(subjects, victims, config, seed, |v, d| {
                train(v, d, version, config).map(std::sync::Arc::new)
            })?;
            let deployed = models
                .iter()
                .map(|m| std::sync::Arc::new(ml::DetectorModel::from(m.embedded().clone())))
                .collect();
            (models, deployed)
        } else {
            let deployed = enroll(subjects, victims, config, seed, |v, d| {
                crate::zoo::train_backend(v, d, version, kind, config).map(std::sync::Arc::new)
            })?;
            (Vec::new(), deployed)
        };
        Ok(Self {
            version,
            kind,
            models,
            deployed,
        })
    }

    /// Detector version every model in the bank was trained for.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Backend family every deployed model in the bank belongs to.
    pub fn kind(&self) -> ml::BackendKind {
        self.kind
    }

    /// Number of subjects in the bank.
    pub fn len(&self) -> usize {
        self.deployed.len()
    }

    /// Whether the bank is empty (never true for a trained bank).
    pub fn is_empty(&self) -> bool {
        self.deployed.is_empty()
    }

    /// The trained gold-path SVM model for `victim`, if in range.
    /// `None` for every victim on non-SVM banks, which carry only
    /// deployed models.
    pub fn get(&self, victim: usize) -> Option<&std::sync::Arc<SiftModel>> {
        self.models.get(victim)
    }

    /// The deployable (device-side) model for `victim`, if in range —
    /// backend-agnostic; what the fleet engine actually flashes.
    pub fn deployed(&self, victim: usize) -> Option<&std::sync::Arc<ml::DetectorModel>> {
        self.deployed.get(victim)
    }
}

// The whole point of the bank is crossing thread boundaries; keep that
// guarantee at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ModelBank>();
};

/// The training-set builder as it stood before windows were read in
/// place: it slices the victim and every donor per donor, cuts each
/// into its own [`Record`] windows and extracts each window's features
/// through the portrait-based oracle extractor. Kept verbatim as the
/// oracle the in-place reader must match.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::features::oracle::extract_usable;
    use crate::snippet::Snippet;

    pub(super) fn build_training_set(
        victim_train: &Record,
        donor_trains: &[&Record],
        version: Version,
        config: &SiftConfig,
    ) -> Result<Dataset, SiftError> {
        config.validate()?;
        if donor_trains.is_empty() {
            return Err(SiftError::NoDonors);
        }

        let mut data = Dataset::new(version.feature_count())?;

        // Negative class: the wearer's own windows.
        for window in physio_sim::dataset::sliding_windows(
            victim_train,
            config.window_s,
            config.train_step_s,
        )? {
            let snippet = Snippet::from_record(&window)?;
            if let Some(f) = extract_usable(version, &snippet, config) {
                data.push(f, Label::Negative)?;
            }
        }

        // Positive class: wearer ABP × donor ECG.
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xD030);
        for donor in donor_trains {
            let len = victim_train.len().min(donor.len());
            let victim_part = victim_train.slice(0, len);
            let donor_part = donor.slice(0, len);
            let v_windows = physio_sim::dataset::sliding_windows(
                &victim_part,
                config.window_s,
                config.train_step_s,
            )?;
            let d_windows = physio_sim::dataset::sliding_windows(
                &donor_part,
                config.window_s,
                config.train_step_s,
            )?;
            let mut idx: Vec<usize> = (0..v_windows.len().min(d_windows.len())).collect();
            if let Some(cap) = config.max_positive_per_donor {
                idx.shuffle(&mut rng);
                idx.truncate(cap);
            }
            for i in idx {
                let vw = &v_windows[i];
                let dw = &d_windows[i];
                let snippet = Snippet::new(
                    dw.ecg.clone(),
                    vw.abp.clone(),
                    dw.r_peaks.clone(),
                    vw.sys_peaks.clone(),
                )?;
                if let Some(f) = extract_usable(version, &snippet, config) {
                    data.push(f, Label::Positive)?;
                }
            }
        }

        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features;
    use crate::snippet::Snippet;
    use ml::{Classifier, DetectorBackend};
    use physio_sim::subject::bank;

    /// The gold features of a window the trainer would use.
    fn extract_usable(version: Version, sn: &Snippet, cfg: &SiftConfig) -> Option<Vec<f64>> {
        if sn.paired_peaks().is_empty() {
            return None;
        }
        features::extract(version, sn, cfg).ok()
    }

    fn quick_config() -> SiftConfig {
        SiftConfig {
            train_s: 60.0,
            max_positive_per_donor: Some(20),
            ..SiftConfig::default()
        }
    }

    fn two_records() -> (Record, Record) {
        let b = bank();
        (
            Record::synthesize(&b[0], 60.0, 1),
            Record::synthesize(&b[1], 60.0, 2),
        )
    }

    #[test]
    fn training_produces_consistent_model() {
        let (v, d) = two_records();
        let cfg = quick_config();
        let m = train(&v, &[&d], Version::Simplified, &cfg).unwrap();
        assert_eq!(m.version(), Version::Simplified);
        assert_eq!(m.svm().dim(), 8);
        assert_eq!(m.embedded().dim(), 8);
    }

    #[test]
    fn model_separates_own_vs_donor_windows() {
        let b = bank();
        let cfg = quick_config();
        let m = train_for_subject(&b, 0, Version::Original, &cfg, 42).unwrap();

        // Fresh (unseen) data for checking.
        let own = Record::synthesize(&b[0], 30.0, 999);
        let donor = Record::synthesize(&b[3], 30.0, 888);
        let own_windows = physio_sim::dataset::windows(&own, 3.0).unwrap();
        let mut correct = 0;
        let mut total = 0;
        for w in &own_windows {
            let sn = Snippet::from_record(w).unwrap();
            if let Some(f) = extract_usable(Version::Original, &sn, &cfg) {
                total += 1;
                if m.decision(&f).unwrap() <= 0.0 {
                    correct += 1;
                }
            }
        }
        // Altered: own ABP + donor ECG.
        let dw = physio_sim::dataset::windows(&donor, 3.0).unwrap();
        for (vw, dwi) in own_windows.iter().zip(&dw) {
            let sn = Snippet::new(
                dwi.ecg.clone(),
                vw.abp.clone(),
                dwi.r_peaks.clone(),
                vw.sys_peaks.clone(),
            )
            .unwrap();
            if let Some(f) = extract_usable(Version::Original, &sn, &cfg) {
                total += 1;
                if m.decision(&f).unwrap() > 0.0 {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "accuracy {acc} ({correct}/{total})");
    }

    #[test]
    fn embedded_translation_agrees_with_gold_model() {
        let (v, d) = two_records();
        let cfg = quick_config();
        let m = train(&v, &[&d], Version::Reduced, &cfg).unwrap();
        let test = Record::synthesize(&bank()[0], 12.0, 77);
        for w in physio_sim::dataset::windows(&test, 3.0).unwrap() {
            let sn = Snippet::from_record(&w).unwrap();
            if let Some(f) = extract_usable(Version::Reduced, &sn, &cfg) {
                let gold = m.decision(&f).unwrap() > 0.0;
                let embedded = m.embedded().predict(&f) == Label::Positive;
                assert_eq!(gold, embedded);
            }
        }
    }

    /// Rows by `to_bits` and labels, or the error.
    fn bits(data: Result<Dataset, SiftError>) -> Result<Vec<(Vec<u64>, Label)>, SiftError> {
        data.map(|d| {
            d.iter()
                .map(|(x, label)| (x.iter().map(|v| v.to_bits()).collect(), label))
                .collect()
        })
    }

    /// The in-place reader builds the oracle's datasets, row for row
    /// and bit for bit, from whole donor records and from their ECG
    /// spans alike: donors shorter and longer than the victim, a donor
    /// shorter than one window (an equal error), every version, with
    /// and without a per-donor cap.
    #[test]
    fn in_place_windows_match_the_materializing_oracle() {
        let b = bank();
        let victim = Record::synthesize(&b[0], 20.0, 1);
        let donors: Vec<(usize, f64, u64)> = vec![(1, 12.5, 2), (2, 30.0, 3), (3, 20.0, 4)];
        let records: Vec<Record> = donors
            .iter()
            .map(|&(s, dur, seed)| Record::synthesize(&b[s], dur, seed))
            .collect();
        let spans: Vec<EcgSpan> = donors
            .iter()
            .map(|&(s, dur, seed)| Record::ecg_span(&b[s], dur, seed, 0..usize::MAX))
            .collect();
        let tiny = Record::synthesize(&b[4], 2.0, 5);
        let tiny_span = Record::ecg_span(&b[4], 2.0, 5, 0..usize::MAX);
        let record_refs: Vec<&Record> = records.iter().collect();
        let with_tiny: Vec<&Record> = vec![&records[0], &tiny];
        for cap in [Some(3), None] {
            let cfg = SiftConfig {
                train_s: 20.0,
                max_positive_per_donor: cap,
                ..SiftConfig::default()
            };
            for &version in Version::ALL.iter() {
                let expect = bits(oracle::build_training_set(
                    &victim,
                    &record_refs,
                    version,
                    &cfg,
                ));
                assert!(expect
                    .as_ref()
                    .is_ok_and(|rows| rows.iter().any(|(_, l)| *l == Label::Positive)));
                let case = format!("{version:?}, cap {cap:?}");
                let from_records = build_training_set(&victim, &record_refs, version, &cfg);
                assert_eq!(bits(from_records), expect, "record donors, {case}");
                let from_spans = build_training_set(&victim, &spans, version, &cfg);
                assert_eq!(bits(from_spans), expect, "span donors, {case}");

                let expect = bits(oracle::build_training_set(
                    &victim, &with_tiny, version, &cfg,
                ));
                assert!(expect.is_err(), "a donor shorter than a window must fail");
                let from_records = build_training_set(&victim, &with_tiny, version, &cfg);
                assert_eq!(bits(from_records), expect, "tiny record donor, {case}");
                let tiny_spans = [&spans[0], &tiny_span];
                let from_spans = build_training_set(&victim, &tiny_spans, version, &cfg);
                assert_eq!(bits(from_spans), expect, "tiny span donor, {case}");
            }
        }

        // Peaks on every window edge: a window holds the peak at its
        // first sample and leaves the one at its end to the next.
        let edges = |r: &Record| Record {
            r_peaks: (0..r.len()).step_by(270).collect(),
            sys_peaks: (0..r.len()).step_by(270).map(|p| p + 90).collect(),
            ..r.clone()
        };
        let victim = edges(&victim);
        let donor = edges(&records[1]);
        let cfg = SiftConfig {
            train_s: 20.0,
            max_positive_per_donor: None,
            ..SiftConfig::default()
        };
        for &version in Version::ALL.iter() {
            let expect = bits(oracle::build_training_set(
                &victim,
                &[&donor],
                version,
                &cfg,
            ));
            assert!(expect.as_ref().is_ok_and(|rows| rows.len() > 20));
            let got = build_training_set(&victim, &[&donor], version, &cfg);
            assert_eq!(bits(got), expect, "edge peaks, {version:?}");
        }

        // Degenerate stretches: the victim's ABP is flat over one window
        // and NaN inside another, so those ABP axes are skipped for the
        // negative and every donor alike; a donor's flat ECG window is
        // skipped for that donor only.
        let mut victim = Record::synthesize(&b[0], 20.0, 1);
        victim.abp[540..1620].fill(80.0);
        victim.abp[3000] = f64::NAN;
        let mut flat_ecg = records[1].clone();
        flat_ecg.ecg[1080..2160].fill(0.0);
        let donors = [&flat_ecg, &records[2]];
        for &version in Version::ALL.iter() {
            let expect = bits(oracle::build_training_set(&victim, &donors, version, &cfg));
            assert!(expect.as_ref().is_ok_and(|rows| rows.len() > 20));
            let got = build_training_set(&victim, &donors, version, &cfg);
            assert_eq!(bits(got), expect, "degenerate windows, {version:?}");
        }
    }

    /// A donor span cut after the session start cannot give the
    /// windows at the start: a typed error, capped or not, never a
    /// panic. A span that starts at the session start but ends early
    /// only shortens the donor's grid.
    #[test]
    fn donor_span_after_the_session_start_is_a_typed_error() {
        let b = bank();
        let victim = Record::synthesize(&b[0], 20.0, 1);
        let late = Record::ecg_span(&b[1], 20.0, 2, 540..usize::MAX);
        let early_end = Record::ecg_span(&b[1], 20.0, 2, 0..3240);
        for cap in [Some(3), None] {
            let cfg = SiftConfig {
                train_s: 20.0,
                max_positive_per_donor: cap,
                ..SiftConfig::default()
            };
            for &version in Version::ALL.iter() {
                assert_eq!(
                    build_training_set(&victim, &[&late], version, &cfg).unwrap_err(),
                    SiftError::InvalidConfig {
                        reason: "donor ECG is not readable from the session start"
                    },
                    "{version:?}, cap {cap:?}"
                );
                let shortened = build_training_set(&victim, &[&early_end], version, &cfg).unwrap();
                let whole = Record::synthesize(&b[1], 20.0, 2).slice(0, 3240);
                let expect = oracle::build_training_set(&victim, &[&whole], version, &cfg);
                assert_eq!(bits(Ok(shortened)), bits(expect), "{version:?}, cap {cap:?}");
            }
        }
    }

    #[test]
    fn no_donors_rejected() {
        let (v, _) = two_records();
        assert_eq!(
            train(&v, &[], Version::Original, &quick_config()).unwrap_err(),
            SiftError::NoDonors
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let (v, d) = two_records();
        let cfg = SiftConfig {
            grid_n: 0,
            ..quick_config()
        };
        assert!(train(&v, &[&d], Version::Original, &cfg).is_err());
    }

    #[test]
    fn victim_out_of_range_rejected() {
        let b = bank();
        assert!(train_for_subject(&b, 99, Version::Original, &quick_config(), 1).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let (v, d) = two_records();
        let cfg = quick_config();
        let a = train(&v, &[&d], Version::Simplified, &cfg).unwrap();
        let b = train(&v, &[&d], Version::Simplified, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn model_bank_matches_train_for_subject() {
        let subjects = &bank()[..3];
        let cfg = quick_config();
        let mb = ModelBank::train(subjects, Version::Reduced, &cfg, 42).unwrap();
        assert_eq!(mb.len(), 3);
        assert_eq!(mb.version(), Version::Reduced);
        assert!(!mb.is_empty());
        for victim in 0..3 {
            let direct = train_for_subject(subjects, victim, Version::Reduced, &cfg, 42).unwrap();
            assert_eq!(**mb.get(victim).unwrap(), direct, "victim {victim}");
        }
        assert!(mb.get(3).is_none());
    }

    #[test]
    fn model_bank_rejects_empty_subjects() {
        assert!(ModelBank::train(&[], Version::Reduced, &quick_config(), 1).is_err());
    }
}
