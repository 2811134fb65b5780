//! Property suites for the fleet engine and the batched sink inference.
//!
//! The headline guarantee under test: **determinism under parallelism**
//! — the same fleet seed produces a byte-identical `FleetReport` at any
//! thread count and the per-device seed streams never collide. (The
//! batched-vs-scalar scoring bit-equality property moved to the
//! backend-parameterized conformance suite in
//! `tests/detector_conformance.rs`.)

use physio_sim::subject::bank;
use proptest::prelude::*;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::trainer::ModelBank;
use std::collections::HashSet;
use wiot::channel::LossModel;
use wiot::fleet::{device_seed, run_fleet_with_bank, FleetSpec};
use wiot::survival::SurvivalConfig;

fn quick_config() -> SiftConfig {
    SiftConfig {
        train_s: 60.0,
        max_positive_per_donor: Some(15),
        ..SiftConfig::default()
    }
}

/// The acceptance gate: identical `FleetReport` digest for the same
/// seed at thread counts 1, 2, and 8 — and not just the digest, the
/// entire report compares equal.
#[test]
fn fleet_determinism_digest_identical_at_thread_counts_1_2_8() {
    let spec = FleetSpec::new(8, 9.0).with_seed(0xD15EA5E);
    let models = ModelBank::train(
        &bank(),
        spec.template.version,
        &spec.template.config,
        spec.seed,
    )
    .unwrap();
    let r1 = run_fleet_with_bank(&spec.clone().with_threads(1), &models).unwrap();
    let r2 = run_fleet_with_bank(&spec.clone().with_threads(2), &models).unwrap();
    let r8 = run_fleet_with_bank(&spec.clone().with_threads(8), &models).unwrap();
    assert_eq!(r1.digest(), r2.digest());
    assert_eq!(r1.digest(), r8.digest());
    assert_eq!(r1, r2);
    assert_eq!(r1, r8);
    // And re-running the same spec reproduces the same bytes.
    let again = run_fleet_with_bank(&spec.clone().with_threads(2), &models).unwrap();
    assert_eq!(r2, again);
}

/// Survival-policy satellite: on a healthy fleet (full batteries, clean
/// links) the policy never actuates, so enabling it must not move the
/// frozen digest — policy-off and quiescent-policy-on fleets are
/// byte-identical, and the policy counters stay at zero.
#[test]
fn fleet_digest_identical_with_policy_off_and_quiescent_on() {
    let off_spec = FleetSpec::new(6, 9.0).with_seed(0x5EED);
    let models = ModelBank::train(
        &bank(),
        off_spec.template.version,
        &off_spec.template.config,
        off_spec.seed,
    )
    .unwrap();
    let off = run_fleet_with_bank(&off_spec, &models).unwrap();

    let mut on_spec = off_spec.clone();
    on_spec.template.survival = Some(SurvivalConfig::default());
    let on = run_fleet_with_bank(&on_spec, &models).unwrap();

    assert_eq!(off.digest(), on.digest(), "quiescent policy moved the digest");
    assert_eq!(on.faults.duty_skipped_chunks, 0);
    assert_eq!(on.faults.low_battery_ticks, 0);
}

/// Survival-policy satellite: with the policy *active* (accelerated
/// drain walks every device down the ladder, bursty Gilbert–Elliott
/// loss exercises the link latch), the fleet digest is still identical
/// at 1, 2, and 8 threads — per-device policy state never leaks across
/// the thread schedule.
#[test]
fn fleet_digest_with_active_survival_policy_stable_across_threads() {
    let mut spec = FleetSpec::new(6, 30.0).with_seed(0xBA77E47);
    spec.template = spec.template.with_reliability();
    spec.template.link.loss = Some(LossModel::GilbertElliott {
        p_good_to_bad: 0.05,
        p_bad_to_good: 0.25,
        loss_good: 0.01,
        loss_bad: 0.5,
    });
    spec.template.survival = Some(SurvivalConfig {
        min_dwell_ticks: 5,
        drain_scale: 120_000,
    });
    let models = ModelBank::train(
        &bank(),
        spec.template.version,
        &spec.template.config,
        spec.seed,
    )
    .unwrap();
    let r1 = run_fleet_with_bank(&spec.clone().with_threads(1), &models).unwrap();
    let r2 = run_fleet_with_bank(&spec.clone().with_threads(2), &models).unwrap();
    let r8 = run_fleet_with_bank(&spec.clone().with_threads(8), &models).unwrap();
    assert_eq!(r1.digest(), r2.digest());
    assert_eq!(r1.digest(), r8.digest());
    assert_eq!(r1, r2);
    assert_eq!(r1, r8);
    // The policy genuinely acted: drained devices thinned their duty
    // cycle and spent ticks under the low-battery retry posture.
    assert!(r1.faults.duty_skipped_chunks > 0, "no duty skips — policy never engaged");
    assert!(r1.faults.low_battery_ticks > 0, "no low-battery ticks — drain never bit");
}

#[test]
fn fleet_determinism_different_seeds_diverge() {
    let models = ModelBank::train(
        &bank(),
        Version::Simplified,
        &quick_config(),
        1,
    )
    .unwrap();
    let mut spec = FleetSpec::new(2, 9.0).with_seed(1);
    let a = run_fleet_with_bank(&spec, &models).unwrap();
    spec = spec.with_seed(2);
    // The bank is seed-agnostic at deploy time; only the device streams
    // move with the fleet seed.
    let b = run_fleet_with_bank(&spec, &models).unwrap();
    assert_ne!(a.digest(), b.digest(), "fleet seed must reach the devices");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Splitting any fleet seed yields pairwise-distinct device seeds
    /// (a collision would hand two devices identical sensor noise,
    /// channel fades, and attacker timing — silently halving coverage).
    #[test]
    fn seed_splitting_never_collides(fleet_seed in any::<u64>()) {
        let mut seen = HashSet::new();
        for device in 0..512 {
            let s = device_seed(fleet_seed, device);
            prop_assert!(seen.insert(s), "device {device} collides under fleet seed {fleet_seed}");
        }
    }

    /// Device seeds are a pure function of (fleet seed, index): stable
    /// across calls and sensitive to both inputs.
    #[test]
    fn seed_splitting_is_pure_and_input_sensitive(fleet_seed in any::<u64>(), device in 0usize..4096) {
        prop_assert_eq!(device_seed(fleet_seed, device), device_seed(fleet_seed, device));
        prop_assert_ne!(device_seed(fleet_seed, device), device_seed(fleet_seed.wrapping_add(1), device));
        prop_assert_ne!(device_seed(fleet_seed, device), device_seed(fleet_seed, device + 1));
    }
}
