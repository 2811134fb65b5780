//! The reproduction contract: the paper's headline claims, asserted
//! end-to-end. If any of these fail, the repository no longer reproduces
//! the paper — regardless of what the unit tests say.

use amulet_sim::costs::{detector_cycles, OpCosts};
use amulet_sim::profiler::{sift_app_spec, ResourceProfiler};
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::PlatformFlavor;
use sift::pipeline::{evaluate_with_models, train_models, EvalProtocol};

fn smoke_config() -> SiftConfig {
    SiftConfig {
        train_s: 60.0,
        max_positive_per_donor: Some(15),
        ..SiftConfig::default()
    }
}

/// §IV: "we ended up with 40 test examples in total for each subject",
/// half altered.
#[test]
fn claim_forty_windows_half_altered_per_subject() {
    let subjects = &bank()[..2];
    let cfg = smoke_config();
    let models = train_models(subjects, Version::Reduced, &cfg).unwrap();
    let r = evaluate_with_models(
        subjects,
        &models,
        PlatformFlavor::Amulet,
        &cfg,
        &EvalProtocol::default(),
    )
    .unwrap();
    for s in &r.per_subject {
        assert_eq!(s.matrix.total(), 40);
        assert_eq!(s.matrix.tp + s.matrix.fn_, 20, "20 altered windows");
        assert_eq!(s.matrix.fp + s.matrix.tn, 20, "20 genuine windows");
    }
}

/// Abstract: "All three versions of SIFT achieve above 86% accuracy"
/// (smoke scale gives a weaker but still decisive bound), and Table II's
/// version ordering holds.
#[test]
fn claim_version_accuracy_ordering() {
    let subjects = &bank()[..4];
    let cfg = smoke_config();
    let protocol = EvalProtocol::default();
    let mut acc = Vec::new();
    for v in Version::ALL {
        let models = train_models(subjects, v, &cfg).unwrap();
        let r =
            evaluate_with_models(subjects, &models, PlatformFlavor::Amulet, &cfg, &protocol)
                .unwrap();
        acc.push((v, r.averaged.accuracy));
    }
    for (v, a) in &acc {
        assert!(*a > 0.75, "{v}: accuracy {a}");
    }
    let get = |v: Version| acc.iter().find(|(x, _)| *x == v).unwrap().1;
    assert!(
        get(Version::Original) >= get(Version::Reduced) - 0.02,
        "original must not trail reduced"
    );
    assert!(
        get(Version::Simplified) >= get(Version::Reduced) - 0.02,
        "simplified must not trail reduced"
    );
}

/// §III: "our simplified features are a good approximation of the
/// original features" — accuracy within ~2 points at matched protocol.
#[test]
fn claim_simplified_approximates_original() {
    let subjects = &bank()[..4];
    let cfg = smoke_config();
    let protocol = EvalProtocol::default();
    let acc = |v: Version| {
        let models = train_models(subjects, v, &cfg).unwrap();
        evaluate_with_models(subjects, &models, PlatformFlavor::Gold, &cfg, &protocol)
            .unwrap()
            .averaged
            .accuracy
    };
    let delta = (acc(Version::Original) - acc(Version::Simplified)).abs();
    assert!(delta < 0.06, "original vs simplified gap {delta}");
}

/// Table III: exact FRAM footprints and lifetimes within the reproduction
/// tolerance (see EXPERIMENTS.md).
#[test]
fn claim_table3_footprints_and_lifetimes() {
    let profiler = ResourceProfiler::default();
    let cfg = SiftConfig::default();
    let expect = [
        (Version::Original, 77.03, 4.79, 23.0),
        (Version::Simplified, 71.58, 4.02, 26.0),
        (Version::Reduced, 56.29, 2.56, 55.0),
    ];
    for (v, sys_kb, det_kb, days) in expect {
        let model_bytes = ml::embedded::encoded_len(v.feature_count());
        let spec = sift_app_spec(v, &cfg, model_bytes);
        let p = profiler.profile(&[&spec]);
        assert!(
            (p.system_fram_bytes as f64 / 1024.0 - sys_kb).abs() < 0.1,
            "{v} system fram"
        );
        assert!(
            (p.app_fram_bytes as f64 / 1024.0 - det_kb).abs() < 0.1,
            "{v} detector fram"
        );
        assert!((p.lifetime_days - days).abs() < 3.5, "{v}: {} days", p.lifetime_days);
    }
}

/// Fig. 3: feature extraction dominates the detector's execution cost —
/// the observation that motivates the simplified/reduced versions.
#[test]
fn claim_feature_extraction_dominates_energy() {
    let cfg = SiftConfig::default();
    for v in [Version::Original, Version::Simplified] {
        let c = detector_cycles(v, &cfg, &OpCosts::default(), 4.0);
        assert!(
            c.feature_extraction / c.total() > 0.8,
            "{v}: extraction fraction {}",
            c.feature_extraction / c.total()
        );
    }
}

/// §IV: "the reduced version of our detector lasts the longest …
/// compared to the original and simplified models which have about half
/// the lifetime."
#[test]
fn claim_reduced_roughly_doubles_lifetime() {
    let profiler = ResourceProfiler::default();
    let cfg = SiftConfig::default();
    let days = |v: Version| {
        let model_bytes = ml::embedded::encoded_len(v.feature_count());
        profiler
            .profile(&[&sift_app_spec(v, &cfg, model_bytes)])
            .lifetime_days
    };
    let ratio = days(Version::Reduced) / days(Version::Original);
    assert!((1.9..3.0).contains(&ratio), "lifetime ratio {ratio}");
}

/// The committed detector-zoo report must preserve the paper's headline
/// energy result: with the SVM backend, the Reduced flavor's lifetime is
/// roughly double the Original's. The zoo adds backends, it must never
/// bend the SVM numbers the reproduction is anchored to.
#[test]
fn claim_zoo_report_keeps_svm_reduced_vs_original_energy_ordering() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results/DETECTOR_zoo.json");
    let report = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed zoo report {}: {e}", path.display()));

    // Hand-rolled row scan (no JSON dependency): the bench emits one
    // "backend"/"flavor" pair per row followed by that row's fields.
    let field = |backend: &str, flavor: &str, key: &str| -> f64 {
        let row_start = report
            .find(&format!("\"backend\": \"{backend}\",\n      \"flavor\": \"{flavor}\""))
            .unwrap_or_else(|| panic!("no {backend}/{flavor} row in DETECTOR_zoo.json"));
        let tail = &report[row_start..];
        let tail = &tail[..tail.find('}').unwrap_or(tail.len())];
        let needle = format!("\"{key}\": ");
        let at = tail
            .find(&needle)
            .unwrap_or_else(|| panic!("{backend}/{flavor} row lacks {key}"));
        let rest = &tail[at + needle.len()..];
        let end = rest
            .find([',', '\n'])
            .unwrap_or_else(|| panic!("unterminated {key} in {backend}/{flavor} row"));
        rest[..end]
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{backend}/{flavor} {key} is not a number: {e}"))
    };

    let ratio = field("svm", "reduced", "lifetime_days") / field("svm", "original", "lifetime_days");
    assert!(
        (1.9..3.0).contains(&ratio),
        "zoo report SVM reduced-vs-original lifetime ratio {ratio} left the ~2x band"
    );
    // And the zoo's accuracy floor holds for every row of both backends
    // except the known-weak tsetlin/original rung, which the report
    // exists to document.
    for backend in ["svm", "tsetlin"] {
        for flavor in ["original", "simplified", "reduced"] {
            let floor = if backend == "tsetlin" && flavor == "original" { 0.70 } else { 0.85 };
            let acc = field(backend, flavor, "accuracy");
            assert!(acc > floor, "{backend}/{flavor} accuracy {acc} below floor {floor}");
        }
    }
}

/// §III: the paper's array constraint — two 1080-element windows must be
/// storable, but the platform rejects arrays much larger than that.
#[test]
fn claim_amulet_array_constraints() {
    use amulet_sim::memory::MemoryModel;
    let mut m = MemoryModel::default();
    m.alloc_array(1080, 4).unwrap();
    m.alloc_array(1080, 4).unwrap();
    assert!(m.alloc_array(4096, 4).is_err(), "large arrays rejected");
}

/// The deployed model is exactly the paper's "translated prediction
/// function": a flat record whose decisions match the offline model.
#[test]
fn claim_translated_model_equivalence() {
    use ml::Classifier;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use sift::snippet::Snippet;
    use sift::trainer::train_for_subject;

    let cfg = smoke_config();
    let model = train_for_subject(&bank(), 0, Version::Simplified, &cfg, 3).unwrap();
    let test = Record::synthesize(&bank()[0], 15.0, 555);
    for w in windows(&test, 3.0).unwrap() {
        let sn = Snippet::from_record(&w).unwrap();
        let f = sift::features::extract(Version::Simplified, &sn, &cfg).unwrap();
        let offline = model.decision(&f).unwrap() > 0.0;
        let deployed = model.embedded().predict(&f) == ml::Label::Positive;
        assert_eq!(offline, deployed);
    }
}

/// Table II (original/amulet FN 12.50 %, simplified/amulet FN 7.58 %):
/// the campaign engine's substitution class — the paper's ECG
/// replacement attack, staged over the legacy 12-subject bank with the
/// SVM backend — must land in the same detection band. The committed
/// campaign baseline is the evidence; this test reads it so a drifted
/// regeneration that sneaks past the verify gate still fails CI.
#[test]
fn claim_campaign_substitution_matches_table_ii_band() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/BENCH_campaign.json");
    let json = std::fs::read_to_string(path).expect("committed campaign baseline");
    // First cell is (population 12, svm); its first class row is the
    // substitution wave.
    let cell = json
        .split("\"population\": 12")
        .nth(1)
        .expect("12-subject cell");
    assert!(cell.contains("\"backend\": \"svm\""), "cell order changed");
    let row = cell
        .split("\"class\": \"substitute\"")
        .nth(1)
        .expect("substitution row");
    let field = |name: &str| -> u64 {
        let tail = row.split(name).nth(1).unwrap_or_else(|| panic!("{name} missing"));
        tail.trim_start_matches(['"', ':', ' '])
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let rate = field("\"detection_permille\"");
    let lo = field("\"wilson_lo_permille\"");
    let hi = field("\"wilson_hi_permille\"");
    // Paper band: 87.5 %–92.4 % detection (100 − FN). The campaign
    // protocol is smoke-scale (8 devices × 8 attacked windows, 6-donor
    // enrollment), so assert the point estimate is in the ballpark and
    // the Wilson interval overlaps the paper band.
    assert!(
        (700..=1000).contains(&rate),
        "substitution detection {rate}‰ left the Table II ballpark"
    );
    assert!(
        lo <= 924 && hi >= 875,
        "Wilson interval [{lo}‰, {hi}‰] no longer overlaps Table II's 875‰–924‰"
    );
}
