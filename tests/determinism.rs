//! Reproducibility guarantees: every layer of the stack is a pure
//! function of its seeds.

use amulet_sim::nvram::{CheckpointStore, Restore, HEADER_BYTES, SLOT_BYTES};
use ml::{BackendKind, DetectorBackend};
use physio_sim::dataset::windows;
use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::checkpoint::DetectorCheckpoint;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::{extract_amulet_f32, PlatformFlavor};
use sift::pipeline::{evaluate, evaluate_with_models, train_models, EvalProtocol};
use sift::snippet::Snippet;
use sift::trainer::train_for_subject;
use sift::zoo::train_backend_for_subject;
use wiot::persist::encode_survival;
use wiot::scenario::{run, Scenario};
use wiot::survival::SurvivalSnapshot;

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

/// The device's 12-bit ADC code of `v` over the input range `lo..hi`:
/// clamp, scale to `[0, 4095]`, round half away from zero (DESIGN §3).
fn adc_code(v: f64, lo: f64, hi: f64) -> i64 {
    ((v.clamp(lo, hi) - lo) / (hi - lo) * 4095.0).round() as i64
}

/// The code span `(min, max)` of one channel under the ADC range `lo..hi`.
fn code_span(signal: &[f64], lo: f64, hi: f64) -> (i64, i64) {
    let codes = signal.iter().map(|&v| adc_code(v, lo, hi));
    (codes.clone().min().unwrap(), codes.max().unwrap())
}

/// `signal` mapped affinely so its smallest sample lands on `t0` and
/// its largest on `t1`.
fn rescale(signal: &mut [f64], (t0, t1): (f64, f64)) {
    let min = signal.iter().copied().fold(f64::INFINITY, f64::min);
    let max = signal.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let scale = (t1 - t0) / (max - min);
    signal.iter_mut().for_each(|v| *v = t0 + (*v - min) * scale);
}

/// `signal` rescaled so its smallest sample sits on the centre of ADC
/// code `c0` over the input range `lo..hi` and its largest on that of
/// `c1`.
fn onto_codes(signal: &mut [f64], lo: f64, hi: f64, (c0, c1): (i64, i64)) {
    let centre = |c: i64| lo + c as f64 * (hi - lo) / 4095.0;
    rescale(signal, (centre(c0), centre(c1)));
}

/// The embedded grid versions pinned to their bits across grid sizes:
/// an FNV-1a hash over the `to_bits()` of every feature
/// `extract_amulet_f32` returns for Original and Simplified at grids
/// {2, 3, 7, 50, 97, 300}. The windows are the 48 bank windows of
/// `embedded_features_are_pinned` and, derived from one window of each
/// subject:
/// * both channels squeezed to a code span of 40, below most grids, so
///   that whole columns and rows of the grid hold no code;
/// * both channels stretched to a code span of 2 100, a multiple of
///   every grid but 97, so that `k · span / n` lands on an integer at
///   each cell edge;
/// * ECG stretched past both ±2.5 mV rails and ABP below 0 and above
///   250 mmHg;
/// * a 0.5 s chunk of both channels held at the sample before it, as the
///   base station's zero-order-hold salvage fills a lost chunk.
///
/// It moves only if the device's ADC law, normalization, grid binning or
/// feature arithmetic changed.
#[test]
fn embedded_grid_features_are_pinned() {
    const ECG: (f64, f64) = (-2.5, 2.5);
    const ABP: (f64, f64) = (0.0, 250.0);
    let mut snippets = Vec::new();
    for (i, subject) in bank().iter().enumerate() {
        let record = Record::synthesize(subject, 12.0, 100 + i as u64);
        for w in windows(&record, 3.0).unwrap() {
            snippets.push(Snippet::from_record(&w).unwrap());
        }
    }
    let bank_windows = snippets.len();
    for k in (0..bank_windows).step_by(4) {
        let base = snippets[k].clone();
        let (mut narrow, mut tie, mut clipped, mut held) =
            (base.clone(), base.clone(), base.clone(), base.clone());
        onto_codes(&mut narrow.ecg, ECG.0, ECG.1, (1500, 1540));
        onto_codes(&mut narrow.abp, ABP.0, ABP.1, (1200, 1240));
        assert_eq!(code_span(&narrow.ecg, ECG.0, ECG.1), (1500, 1540));
        assert_eq!(code_span(&narrow.abp, ABP.0, ABP.1), (1200, 1240));
        onto_codes(&mut tie.ecg, ECG.0, ECG.1, (1000, 3100));
        onto_codes(&mut tie.abp, ABP.0, ABP.1, (900, 3000));
        assert_eq!(code_span(&tie.ecg, ECG.0, ECG.1), (1000, 3100));
        assert_eq!(code_span(&tie.abp, ABP.0, ABP.1), (900, 3000));
        rescale(&mut clipped.ecg, (-4.0, 4.0));
        rescale(&mut clipped.abp, (-60.0, 310.0));
        assert_eq!(code_span(&clipped.ecg, ECG.0, ECG.1), (0, 4095));
        assert_eq!(code_span(&clipped.abp, ABP.0, ABP.1), (0, 4095));
        for channel in [&mut held.ecg, &mut held.abp] {
            let hold = channel[359];
            channel[360..540].fill(hold);
        }
        snippets.extend([narrow, tie, clipped, held]);
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut count = 0;
    for n in [2, 3, 7, 50, 97, 300] {
        let cfg = SiftConfig {
            grid_n: n,
            ..SiftConfig::default()
        };
        for snippet in &snippets {
            for v in [Version::Original, Version::Simplified] {
                for f in extract_amulet_f32(v, snippet, &cfg).unwrap() {
                    for b in f.to_bits().to_le_bytes() {
                        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                    count += 1;
                }
            }
        }
    }
    assert_eq!(count, 6 * (48 + 12 * 4) * (8 + 8));
    assert_eq!(hash, 0x7b72_ceca_ed5d_4a1e, "embedded grid feature hash");
}

/// The gold extractor pinned to its bits: an FNV-1a hash over the
/// `to_bits()` of every feature `features::extract` returns, for all
/// three versions, over the 48 bank windows of
/// `embedded_features_are_pinned`. It moves only if the normalization,
/// the grid, the pairing of peaks or the feature arithmetic changed.
#[test]
fn gold_features_are_pinned() {
    let cfg = SiftConfig::default();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut count = 0;
    for (i, subject) in bank().iter().enumerate() {
        let record = Record::synthesize(subject, 12.0, 100 + i as u64);
        for w in windows(&record, 3.0).unwrap() {
            let snippet = Snippet::from_record(&w).unwrap();
            for v in Version::ALL {
                for f in sift::features::extract(v, &snippet, &cfg).unwrap() {
                    for b in f.to_bits().to_le_bytes() {
                        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                    count += 1;
                }
            }
        }
    }
    assert_eq!(count, 12 * 4 * (8 + 8 + 5));
    assert_eq!(hash, 0x852f_3837_9615_4333, "gold feature hash");
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The FRAM checkpoint region pinned byte for byte through a fixed
/// fault sequence, for the two payloads hostile-link commits: an SVM
/// checkpoint, and a Tsetlin checkpoint carrying the 16-byte survival
/// suffix (both Simplified, subject 0, seed 7). The steps are three
/// commits, a commit torn mid-header, a recommit into the torn slot,
/// and a bit flip in that slot's payload; restore must then roll back
/// to generation 3. Each step pins an FNV-1a hash of the whole 4 KB
/// region, so any change to the write order, the slot layout or the
/// slot CRC moves a value. The values were computed with the bitwise
/// CRC-32 loop that the table kernel replaced.
#[test]
fn fram_checkpoint_bytes_are_pinned() {
    let snap = SurvivalSnapshot {
        version: Version::Simplified,
        duty_skip: 1,
        duty_of: 4,
        retry_max: 2,
        retry_shift: 2,
        link_capped: true,
        tick: 777,
        last_switch_tick: 700,
        link_ewma_permille: 321,
    };
    let cases = [
        (
            BackendKind::Svm,
            None,
            [
                0x4beb_d533_5c1d_96ed,
                0xcca7_e809_8f38_f4bb,
                0x9701_7d38_e032_84a4,
                0xf4f7_45f2_1c32_5cdd,
                0xa421_61fa_3bef_b682,
                0xa809_9192_2345_e7a2,
            ],
        ),
        (
            BackendKind::Tsetlin,
            Some(snap),
            [
                0xceb4_5d29_e7df_d3d2,
                0xaffc_11dc_3060_1de4,
                0x1af4_e425_106f_591f,
                0x1321_8f88_596e_19c2,
                0x4df1_5cbb_25b7_d63f,
                0x052a_e1ad_63e0_b65f,
            ],
        ),
    ];
    for (kind, survival, expected) in cases {
        let model =
            train_backend_for_subject(&bank(), 0, Version::Simplified, kind, &quick_config(), 7)
                .unwrap();
        let mut ckpt = DetectorCheckpoint::new(Version::Simplified, model).unwrap();
        let mut payload = |windows: u32| {
            ckpt.windows_seen = windows;
            ckpt.alerts_raised = windows / 10;
            let mut out = vec![0u8; ckpt.encoded_len()];
            ckpt.encode_into(&mut out).unwrap();
            if let Some(s) = &survival {
                out.extend_from_slice(&encode_survival(s));
            }
            out
        };
        let mut store = CheckpointStore::new();
        let mut digests = Vec::new();
        let third = payload(30);
        for p in [payload(10), payload(20), third.clone()] {
            store.commit(&p).unwrap();
            digests.push(fnv1a(store.region()));
        }
        let torn = payload(40);
        store.commit_torn(&torn, 4 + torn.len() + 6).unwrap();
        digests.push(fnv1a(store.region()));
        store.commit(&payload(50)).unwrap();
        digests.push(fnv1a(store.region()));
        store.flip_bit(SLOT_BYTES + HEADER_BYTES + 21, 5);
        digests.push(fnv1a(store.region()));
        assert_eq!(digests, expected, "{kind:?} region digests");
        match store.restore() {
            Restore::Valid {
                generation,
                payload,
                rolled_back,
            } => assert_eq!((generation, payload, rolled_back), (3, &third[..], true)),
            other => panic!("{kind:?}: expected a rollback to generation 3, got {other:?}"),
        }
    }
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
