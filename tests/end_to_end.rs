//! Cross-crate integration: the full train → deploy → attack → detect
//! loop, exercised through the public API of every layer.

use ml::DetectorBackend;
use physio_sim::dataset::windows;
use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::attack::substitution_test_set;
use sift::config::SiftConfig;
use sift::detector::Detector;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::pipeline::{evaluate, EvalProtocol};
use sift::snippet::Snippet;
use sift::trainer::train_for_subject;

fn quick_config() -> SiftConfig {
    SiftConfig {
        train_s: 60.0,
        max_positive_per_donor: Some(15),
        ..SiftConfig::default()
    }
}

#[test]
fn paper_protocol_produces_forty_windows_per_subject() {
    let subjects = bank();
    let victim = Record::synthesize(&subjects[0], 120.0, 1);
    let donor = Record::synthesize(&subjects[1], 120.0, 2);
    let set = substitution_test_set(&victim, &donor, 3.0, 0.5, 3).unwrap();
    assert_eq!(set.len(), 40);
    assert_eq!(
        set.iter().filter(|w| w.truth == ml::Label::Positive).count(),
        20
    );
}

#[test]
fn every_version_and_flavor_detects_above_chance() {
    let subjects = &bank()[..3];
    let cfg = quick_config();
    for version in Version::ALL {
        for flavor in [PlatformFlavor::Gold, PlatformFlavor::Amulet] {
            let r = evaluate(subjects, version, flavor, &cfg, &EvalProtocol::default()).unwrap();
            assert!(
                r.averaged.accuracy > 0.7,
                "{version}/{flavor}: accuracy {}",
                r.averaged.accuracy
            );
        }
    }
}

#[test]
fn detector_generalizes_to_unseen_donors() {
    // Model for subject 0 is trained with donors 1..11; attack with data
    // from a *seed* never used in training, from each donor in turn.
    let subjects = bank();
    let cfg = quick_config();
    let model = train_for_subject(&subjects, 0, Version::Simplified, &cfg, 50).unwrap();
    let det = Detector::new(model, PlatformFlavor::Amulet, cfg.clone()).unwrap();
    let own = Record::synthesize(&subjects[0], 24.0, 123_456);
    let vw = windows(&own, 3.0).unwrap();
    let mut caught = 0usize;
    let mut total = 0usize;
    for donor_idx in [3usize, 7, 11] {
        let donor = Record::synthesize(&subjects[donor_idx], 24.0, 654_321 + donor_idx as u64);
        let dw = windows(&donor, 3.0).unwrap();
        for (v, d) in vw.iter().zip(&dw) {
            let hijacked = Snippet::new(
                d.ecg.clone(),
                v.abp.clone(),
                d.r_peaks.clone(),
                v.sys_peaks.clone(),
            )
            .unwrap();
            total += 1;
            caught += usize::from(det.classify(&hijacked).unwrap().is_alert());
        }
    }
    assert!(
        caught as f64 / total as f64 > 0.6,
        "caught {caught}/{total} cross-donor attacks"
    );
}

#[test]
fn embedded_model_round_trips_through_bytes_and_still_detects() {
    let subjects = bank();
    let cfg = quick_config();
    let model = train_for_subject(&subjects, 2, Version::Reduced, &cfg, 9).unwrap();
    let bytes = model.embedded().encode();
    let decoded = ml::embedded::EmbeddedModel::decode(&bytes).unwrap();
    assert_eq!(&decoded, model.embedded());

    // The decoded model classifies identically.
    let own = Record::synthesize(&subjects[2], 9.0, 404);
    for w in windows(&own, 3.0).unwrap() {
        let sn = Snippet::from_record(&w).unwrap();
        let f =
            sift::flavor::extract_amulet_f32(Version::Reduced, &sn, &cfg).unwrap();
        assert_eq!(decoded.predict_f32(&f), model.embedded().predict_f32(&f));
    }
}

#[test]
fn gold_and_amulet_flavors_agree_on_clear_cases() {
    let subjects = bank();
    let cfg = quick_config();
    let model = train_for_subject(&subjects, 0, Version::Original, &cfg, 77).unwrap();
    let gold = Detector::new(model.clone(), PlatformFlavor::Gold, cfg.clone()).unwrap();
    let amulet = Detector::new(model, PlatformFlavor::Amulet, cfg.clone()).unwrap();
    let own = Record::synthesize(&subjects[0], 30.0, 31_415);
    let mut agree = 0usize;
    let mut total = 0usize;
    for w in windows(&own, 3.0).unwrap() {
        let sn = Snippet::from_record(&w).unwrap();
        total += 1;
        agree += usize::from(
            gold.classify(&sn).unwrap().label == amulet.classify(&sn).unwrap().label,
        );
    }
    assert!(agree * 10 >= total * 9, "{agree}/{total} agreement");
}
