//! Integration of the adaptive-security decision engine — the survival
//! policy — with the real platform apps: hot-swapping detector versions
//! on a running AmuletOS, and the battery loop fast-forwarded alone
//! agreeing with the live closed loop.

use amulet_sim::apps::SiftApp;
use amulet_sim::energy::EnergyModel;
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
use sift::trainer::{train_for_subject, SiftModel};
use wiot::adaptive::{BatteryLoop, DrawTable};
use wiot::scenario::{run, Scenario};
use wiot::survival::{SurvivalAction, SurvivalConfig, SurvivalInputs, SurvivalPolicy};

fn quick_config() -> SiftConfig {
    SiftConfig {
        train_s: 60.0,
        max_positive_per_donor: Some(15),
        ..SiftConfig::default()
    }
}

fn train(versions: &[Version], cfg: &SiftConfig) -> Vec<(Version, SiftModel)> {
    versions
        .iter()
        .map(|&v| (v, train_for_subject(&bank(), 0, v, cfg, 3).unwrap()))
        .collect()
}

fn build_app(
    version: Version,
    models: &[(Version, SiftModel)],
    cfg: &SiftConfig,
) -> (SiftApp, FirmwareImage) {
    let model = &models.iter().find(|(v, _)| *v == version).unwrap().1;
    let app = SiftApp::new(version, model.embedded().clone(), cfg.clone()).unwrap();
    let image =
        FirmwareImage::build(vec![app.resource_spec()], &ResourceProfiler::default()).unwrap();
    (app, image)
}

fn at_soc(soc_permille: u16) -> SurvivalInputs {
    SurvivalInputs {
        soc_permille,
        ..SurvivalInputs::default()
    }
}

fn live_snippets() -> Vec<sift::snippet::Snippet> {
    let live = Record::synthesize(&bank()[0], 30.0, 1);
    windows(&live, 3.0)
        .unwrap()
        .iter()
        .map(|w| sift::snippet::Snippet::from_record(w).unwrap())
        .collect()
}

/// The full adaptive loop: the policy degrades the detector as the
/// battery drains, and the OS actually swaps the apps.
#[test]
fn engine_hot_swaps_apps_on_the_running_os() {
    let cfg = quick_config();
    let models = train(&Version::ALL, &cfg);
    let mut os = AmuletOs::new();
    let (app, image) = build_app(Version::Original, &models, &cfg);
    os.install(&image, vec![Box::new(app)]).unwrap();

    let mut policy = SurvivalPolicy::new(
        SurvivalConfig {
            min_dwell_ticks: 0,
            ..SurvivalConfig::default()
        },
        Version::Original,
    );
    let snippets = live_snippets();

    // Battery levels (permille) sampled over a simulated discharge.
    let levels = [900, 700, 450, 300, 150, 50];
    let mut deployed = Version::Original;
    for (step, &soc) in levels.iter().enumerate() {
        // Process a window with the currently deployed app.
        os.post(AmuletEvent::SnippetReady(
            snippets[step % snippets.len()].clone(),
        ));
        os.run_until_idle().unwrap();

        if let Some(SurvivalAction::SetVersion { to, .. }) = policy.step(at_soc(soc)).version {
            // Version switch = reflash with the new image (Insight #4).
            let (app, image) = build_app(to, &models, &cfg);
            os.reflash(&image, vec![Box::new(app)]).unwrap();
            deployed = to;
        }
    }
    assert_eq!(
        deployed,
        Version::Reduced,
        "should end on the cheapest version"
    );
    assert_eq!(os.app_names(), vec!["sift-reduced"]);
    assert_eq!(policy.switches(), 2);
    // The swapped-in app still works.
    os.post(AmuletEvent::SnippetReady(snippets[0].clone()));
    os.run_until_idle().unwrap();
    assert_eq!(os.app_state("sift-reduced").unwrap(), "PeaksDataCheck");
}

/// The provisioned version is a ceiling: a device flashed with the
/// Reduced build stays on it however much charge it has, so the OS is
/// never reflashed. (Whether a build fits the FRAM at all is checked
/// once, by `FirmwareImage::build`.)
#[test]
fn reduced_ceiling_never_reflashes_at_full_battery() {
    let cfg = quick_config();
    let models = train(&[Version::Reduced], &cfg);
    let mut os = AmuletOs::new();
    let (app, image) = build_app(Version::Reduced, &models, &cfg);
    os.install(&image, vec![Box::new(app)]).unwrap();

    let mut policy = SurvivalPolicy::new(SurvivalConfig::default(), Version::Reduced);
    let snippets = live_snippets();
    for step in 0..120 {
        os.post(AmuletEvent::SnippetReady(
            snippets[step % snippets.len()].clone(),
        ));
        os.run_until_idle().unwrap();
        assert!(policy.step(at_soc(1000)).is_quiescent());
    }
    assert_eq!(policy.version(), Version::Reduced);
    assert_eq!(policy.switches(), 0);
    assert_eq!(os.app_names(), vec!["sift-reduced"]);
}

/// The battery loop fast-forwarded alone is the closed loop without the
/// signal path: with the same policy knobs and accelerated drain, and a
/// clean link, it must switch versions at exactly the ticks the live
/// scenario reflashed at.
#[test]
fn fast_forward_switches_at_the_closed_loop_ticks() {
    let survival = SurvivalConfig {
        min_dwell_ticks: 5,
        drain_scale: 60_000,
    };
    let mut scenario = Scenario::new(0, Version::Original, 60.0).with_reliability();
    scenario.survival = Some(survival);
    let live: Vec<(u64, Version)> = run(&scenario)
        .unwrap()
        .survival
        .unwrap()
        .actions
        .iter()
        .filter_map(|a| match *a {
            SurvivalAction::SetVersion { at_tick, to, .. } => Some((u64::from(at_tick), to)),
            _ => None,
        })
        .collect();
    let energy = EnergyModel::default();
    let draw = DrawTable::new(&energy, &scenario.config, scenario.backend);
    let policy = SurvivalPolicy::new(survival, Version::Original);
    let mut battery = BatteryLoop::new(policy, draw, &energy, 60_000 * 1000);
    let mut fast = Vec::new();
    for tick in 1..=60u64 {
        battery.drain(1000);
        if let Some(SurvivalAction::SetVersion { to, .. }) = battery.step(0, 0).version {
            fast.push((tick, to));
        }
    }
    assert_eq!(fast, live);
    assert_eq!(
        fast,
        vec![(14, Version::Simplified), (24, Version::Reduced)]
    );
}
