//! Integration of the full WIoT loop: scenario-level behaviour across
//! attack types, link conditions and detector versions.

use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::features::Version;
use wiot::attacker::{AttackClass, AttackMode};
use wiot::scenario::{run, AttackSpec, LinkParams, Scenario};

#[test]
fn all_versions_catch_a_substitution_attack() {
    for version in Version::ALL {
        let donor = Record::synthesize(&bank()[8], 60.0, 1234);
        let mut s = Scenario::new(0, version, 60.0);
        s.attack = Some(AttackSpec {
            mode: AttackMode::new(AttackClass::Substitution, Some((&donor).into()), 0),
            start_s: 21.0,
            end_s: 45.0,
        });
        let r = run(&s).unwrap();
        assert!(
            r.detection_latency_ms.is_some(),
            "{version}: attack never detected"
        );
        let recall = r.confusion.recall().unwrap();
        assert!(recall > 0.5, "{version}: recall {recall}");
    }
}

#[test]
fn different_victims_yield_working_detectors() {
    for victim in [0usize, 4, 9] {
        let s = Scenario::new(victim, Version::Simplified, 45.0);
        let r = run(&s).unwrap();
        let fp = r.confusion.false_positive_rate().unwrap();
        assert!(fp < 0.35, "victim {victim}: fp {fp}");
    }
}

#[test]
fn heavy_loss_still_produces_scorable_output() {
    let mut s = Scenario::new(0, Version::Reduced, 90.0);
    s.link = LinkParams {
        loss_prob: 0.08,
        base_delay_ms: 20,
        jitter_ms: 15,
        ..LinkParams::default()
    };
    let r = run(&s).unwrap();
    assert!(r.dropped_windows >= 3, "dropped {}", r.dropped_windows);
    assert!(r.confusion.total() >= 1);
}

#[test]
fn attack_confined_to_its_window() {
    // Alerts should concentrate inside the attack interval; the pre- and
    // post-attack phases must stay mostly quiet.
    let donor = Record::synthesize(&bank()[3], 90.0, 55);
    let mut s = Scenario::new(1, Version::Simplified, 90.0);
    s.attack = Some(AttackSpec {
        mode: AttackMode::new(AttackClass::Substitution, Some((&donor).into()), 0),
        start_s: 30.0,
        end_s: 60.0,
    });
    let r = run(&s).unwrap();
    let inside = r.sink.alerts_between(30_000, 61_000).len();
    let outside = r.sink.alerts().len() - inside;
    assert!(
        inside > outside,
        "alerts inside window {inside} vs outside {outside}"
    );
}

#[test]
fn report_battery_and_loss_are_sane() {
    let s = Scenario::new(2, Version::Original, 30.0);
    let r = run(&s).unwrap();
    assert!((0.0..=1.0).contains(&r.battery_left));
    assert!(r.battery_left > 0.999, "30 s should barely dent 110 mAh");
    assert!((0.0..=1.0).contains(&r.channel_loss_rate));
}

#[test]
fn replay_attack_of_own_old_data_is_harder_but_detected_eventually() {
    // Replaying the wearer's *own* ECG keeps morphology right; only the
    // beat-timing correlation with ABP breaks. Expect worse recall than
    // substitution but nonzero detection.
    let source = Record::synthesize(&bank()[0], 120.0, 0xC0FFEE ^ 0x11FE);
    let mut s = Scenario::new(0, Version::Simplified, 120.0);
    s.attack = Some(AttackSpec {
        mode: AttackMode::new(AttackClass::Replay { offset_s: 30.0 }, Some((&source).into()), 0),
        start_s: 45.0,
        end_s: 105.0,
    });
    let r = run(&s).unwrap();
    assert!(
        r.confusion.tp >= 1,
        "replay never detected: {:?}",
        r.confusion
    );
}
