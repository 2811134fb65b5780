//! Integration of the SIFT app with the simulated Amulet platform:
//! firmware checks, multi-app dispatch, resource accounting, and the
//! alignment between the profiler's *predicted* energy and the meter's
//! *measured* consumption.

use amulet_sim::apps::{HeartRateApp, SiftApp};
use amulet_sim::event::AmuletEvent;
use amulet_sim::machine::App;
use amulet_sim::os::AmuletOs;
use amulet_sim::profiler::ResourceProfiler;
use amulet_sim::toolchain::FirmwareImage;
use physio_sim::dataset::windows;
use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::snippet::Snippet;
use sift::trainer::train_for_subject;

fn quick_config() -> SiftConfig {
    SiftConfig {
        train_s: 60.0,
        max_positive_per_donor: Some(15),
        ..SiftConfig::default()
    }
}

fn booted_os(version: Version) -> AmuletOs {
    let cfg = quick_config();
    let model = train_for_subject(&bank(), 0, version, &cfg, 11).unwrap();
    let app = SiftApp::new(version, model.embedded().clone(), cfg.clone()).unwrap();
    let hr = HeartRateApp::with_sample_rate(cfg.fs);
    let image = FirmwareImage::build(
        vec![app.resource_spec(), hr.resource_spec()],
        &ResourceProfiler::default(),
    )
    .unwrap();
    let mut os = AmuletOs::new();
    os.install(&image, vec![Box::new(app), Box::new(hr)]).unwrap();
    os
}

#[test]
fn all_three_versions_fit_the_device_together_with_heartrate() {
    for v in Version::ALL {
        let os = booted_os(v);
        assert!(os.memory().fram().used() <= amulet_sim::FRAM_BYTES);
        assert!(os.memory().sram().used() <= amulet_sim::SRAM_BYTES);
    }
}

#[test]
fn measured_energy_tracks_profiler_prediction() {
    let cfg = quick_config();
    let model = train_for_subject(&bank(), 0, Version::Original, &cfg, 11).unwrap();
    let app = SiftApp::new(Version::Original, model.embedded().clone(), cfg.clone()).unwrap();
    let spec = app.resource_spec();
    let profiler = ResourceProfiler::default();
    let predicted_ua = profiler.profile(&[&spec]).avg_current_ua;

    let hr = HeartRateApp::with_sample_rate(cfg.fs);
    let image = FirmwareImage::build(
        vec![spec, hr.resource_spec()],
        &profiler,
    )
    .unwrap();
    let mut os = AmuletOs::new();
    os.install(&image, vec![Box::new(app), Box::new(hr)]).unwrap();

    // Run 60 s of windows through the device.
    let live = Record::synthesize(&bank()[0], 60.0, 5150);
    for w in windows(&live, 3.0).unwrap() {
        os.post(AmuletEvent::SnippetReady(Snippet::from_record(&w).unwrap()));
        os.run_until_idle().unwrap();
        os.advance_time(3000);
    }
    let hours = os.now_ms() as f64 / 3_600_000.0;
    let measured_ua = os.meter().consumed_mah() / hours * 1000.0;
    // The meter includes the heart-rate app; allow 25 % headroom.
    assert!(
        (measured_ua - predicted_ua).abs() < predicted_ua * 0.25,
        "predicted {predicted_ua:.1} uA vs measured {measured_ua:.1} uA"
    );
}

#[test]
fn state_machine_cycles_through_the_three_paper_states() {
    let mut os = booted_os(Version::Simplified);
    let live = Record::synthesize(&bank()[0], 6.0, 777);
    let w = &windows(&live, 3.0).unwrap()[0];
    os.post(AmuletEvent::SnippetReady(Snippet::from_record(w).unwrap()));

    let mut seen = vec![os.app_state("sift-simplified").unwrap()];
    while os.step().unwrap() {
        seen.push(os.app_state("sift-simplified").unwrap());
    }
    assert_eq!(
        seen,
        vec![
            "PeaksDataCheck",
            "FeatureExtraction",
            "MLClassifier",
            "PeaksDataCheck"
        ]
    );
}

#[test]
fn oversized_firmware_is_rejected_before_flash() {
    let cfg = quick_config();
    let model = train_for_subject(&bank(), 0, Version::Original, &cfg, 11).unwrap();
    let app = SiftApp::new(Version::Original, model.embedded().clone(), cfg.clone()).unwrap();
    let mut spec = app.resource_spec();
    spec.fram_data_bytes += 80 * 1024; // pretend the app hoards buffers
    assert!(FirmwareImage::build(vec![spec], &ResourceProfiler::default()).is_err());
}

#[test]
fn display_receives_both_apps_output() {
    let mut os = booted_os(Version::Reduced);
    let live = Record::synthesize(&bank()[0], 9.0, 31);
    for w in windows(&live, 3.0).unwrap() {
        os.post(AmuletEvent::SnippetReady(Snippet::from_record(&w).unwrap()));
        os.run_until_idle().unwrap();
    }
    let apps: std::collections::BTreeSet<&str> = os
        .display()
        .lines()
        .iter()
        .map(|l| l.app.as_str())
        .collect();
    assert!(apps.contains("sift-reduced"));
    assert!(apps.contains("heartrate"));
    // The detector saw genuine data only: its alerts should be rare.
    let sift_alerts = os
        .alerts()
        .iter()
        .filter(|a| a.app == "sift-reduced")
        .count();
    assert!(sift_alerts <= 1, "sift false alerts: {sift_alerts}");
}

#[test]
fn battery_drains_to_exhaustion_near_predicted_lifetime() {
    // Scale the battery down 1000× so the test completes quickly, then
    // check that exhaustion arrives near the (scaled) prediction.
    use amulet_sim::energy::EnergyModel;
    let cfg = quick_config();
    let model = train_for_subject(&bank(), 0, Version::Reduced, &cfg, 11).unwrap();
    let app = SiftApp::new(Version::Reduced, model.embedded().clone(), cfg.clone()).unwrap();
    let spec = app.resource_spec();
    let tiny = EnergyModel {
        battery_mah: amulet_sim::BATTERY_MAH / 1000.0,
        ..EnergyModel::default()
    };
    let profiler = ResourceProfiler::default();
    let predicted_days = profiler.profile(&[&spec]).lifetime_days / 1000.0;

    let image = FirmwareImage::build(vec![spec], &profiler).unwrap();
    let mut os = AmuletOs::with_energy_model(tiny);
    os.install(&image, vec![Box::new(app)]).unwrap();
    let live = Record::synthesize(&bank()[0], 30.0, 8);
    let snippets: Vec<Snippet> = windows(&live, 3.0)
        .unwrap()
        .iter()
        .map(|w| Snippet::from_record(w).unwrap())
        .collect();
    let mut elapsed_days = 0.0f64;
    'outer: loop {
        for sn in &snippets {
            os.post(AmuletEvent::SnippetReady(sn.clone()));
            if os.run_until_idle().is_err() {
                break 'outer;
            }
            os.advance_time(3000);
            elapsed_days += 3.0 / 86_400.0;
            if elapsed_days > predicted_days * 3.0 {
                panic!("battery never exhausted (predicted {predicted_days} days)");
            }
        }
    }
    assert!(
        (elapsed_days - predicted_days).abs() < predicted_days * 0.3,
        "exhausted after {elapsed_days:.4} scaled-days, predicted {predicted_days:.4}"
    );
}
