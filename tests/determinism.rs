//! Reproducibility guarantees: every layer of the stack is a pure
//! function of its seeds.

use physio_sim::dataset::windows;
use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::{extract_amulet_f32, PlatformFlavor};
use sift::pipeline::{evaluate, evaluate_with_models, train_models, EvalProtocol};
use sift::snippet::Snippet;
use sift::trainer::train_for_subject;
use wiot::scenario::{run, Scenario};

fn quick_config() -> SiftConfig {
    SiftConfig {
        train_s: 60.0,
        max_positive_per_donor: Some(15),
        ..SiftConfig::default()
    }
}

#[test]
fn subject_bank_is_stable_across_calls() {
    assert_eq!(bank(), bank());
}

#[test]
fn record_synthesis_is_pure() {
    let s = &bank()[5];
    assert_eq!(
        Record::synthesize(s, 10.0, 99),
        Record::synthesize(s, 10.0, 99)
    );
}

#[test]
fn trained_models_are_bit_identical() {
    let b = bank();
    let cfg = quick_config();
    let a = train_for_subject(&b, 0, Version::Simplified, &cfg, 1).unwrap();
    let c = train_for_subject(&b, 0, Version::Simplified, &cfg, 1).unwrap();
    assert_eq!(a, c);
    assert_eq!(a.embedded().encode(), c.embedded().encode());
}

#[test]
fn full_evaluation_is_reproducible() {
    let subjects = &bank()[..3];
    let cfg = quick_config();
    let p = EvalProtocol::default();
    let a = evaluate(subjects, Version::Reduced, PlatformFlavor::Amulet, &cfg, &p).unwrap();
    let b = evaluate(subjects, Version::Reduced, PlatformFlavor::Amulet, &cfg, &p).unwrap();
    assert_eq!(a, b);
}

/// One smoke-scale Table II cell pinned to its values: 2 subjects,
/// `Reduced`, both flavors. The per-subject confusion matrices and an
/// FNV-1a hash over every window's `score.to_bits()` (Gold then Amulet,
/// subjects and windows in replay order) move only if the protocol,
/// training or scoring changed.
#[test]
fn smoke_table2_reduced_cell_is_pinned() {
    let subjects = &bank()[..2];
    let cfg = quick_config();
    let p = EvalProtocol::default();
    let models = train_models(subjects, Version::Reduced, &cfg).unwrap();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut matrices = Vec::new();
    for flavor in [PlatformFlavor::Gold, PlatformFlavor::Amulet] {
        let r = evaluate_with_models(subjects, &models, flavor, &cfg, &p).unwrap();
        for s in &r.per_subject {
            let m = s.matrix;
            matrices.push((flavor, s.subject.to_string(), [m.tp, m.fp, m.tn, m.fn_]));
            for (score, _) in &s.scored {
                for b in score.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
    }
    let expected = [
        (PlatformFlavor::Gold, "s00".to_string(), [17, 0, 20, 3]),
        (PlatformFlavor::Gold, "s01".to_string(), [13, 0, 20, 7]),
        (PlatformFlavor::Amulet, "s00".to_string(), [17, 0, 20, 3]),
        (PlatformFlavor::Amulet, "s01".to_string(), [13, 0, 20, 7]),
    ];
    assert_eq!(matrices, expected, "[tp, fp, tn, fn] per subject");
    assert_eq!(hash, 0x354d_397d_6457_4320, "per-window score hash");
}

/// The embedded extractor pinned to its bits: an FNV-1a hash over the
/// `to_bits()` of every feature `extract_amulet_f32` returns, for all
/// three versions, over four 3 s windows of each of the 12 bank
/// subjects (12 s records, seed `100 + subject`). It moves only if the
/// device's ADC law, normalization, grid or feature arithmetic changed.
#[test]
fn embedded_features_are_pinned() {
    let cfg = SiftConfig::default();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut count = 0;
    for (i, subject) in bank().iter().enumerate() {
        let record = Record::synthesize(subject, 12.0, 100 + i as u64);
        for w in windows(&record, 3.0).unwrap() {
            let snippet = Snippet::from_record(&w).unwrap();
            for v in Version::ALL {
                for f in extract_amulet_f32(v, &snippet, &cfg).unwrap() {
                    for b in f.to_bits().to_le_bytes() {
                        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                    count += 1;
                }
            }
        }
    }
    assert_eq!(count, 12 * 4 * (8 + 8 + 5));
    assert_eq!(hash, 0x156e_dd36_e6ca_decb, "embedded feature hash");
}

#[test]
fn wiot_scenarios_are_reproducible() {
    let s = Scenario::new(1, Version::Simplified, 30.0);
    let a = run(&s).unwrap();
    let b = run(&s).unwrap();
    assert_eq!(a.confusion, b.confusion);
    assert_eq!(a.sink.alerts().len(), b.sink.alerts().len());
}

#[test]
fn distinct_seeds_change_outcomes() {
    let b = bank();
    let cfg = quick_config();
    let m1 = train_for_subject(&b, 0, Version::Simplified, &cfg, 1).unwrap();
    let m2 = train_for_subject(&b, 0, Version::Simplified, &cfg, 2).unwrap();
    assert_ne!(m1.svm().weights(), m2.svm().weights());
}
