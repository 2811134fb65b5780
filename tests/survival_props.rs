//! Property suites for the survival policy (`wiot::survival`), at the
//! pure decision-procedure level — no scenario, no signals, just the
//! closed loop of (battery, link, backlog) → (version, duty, retry).
//!
//! Three guarantees under test:
//!
//! 1. **No flapping** — an oscillating link cannot flap the detector
//!    version: switches per simulated hour stay bounded by the dwell
//!    gate, and the link latch's dead band absorbs the oscillation.
//! 2. **Monotone degradation** — while the battery only drains (clean
//!    link, no backlog), the policy only ever walks *down* the ladder:
//!    version rank never rises, duty never densifies, retries never
//!    loosen.
//! 3. **Crash-consistent persistence** — snapshot/restore at an
//!    arbitrary reboot point is invisible: the restored policy replays
//!    the rest of any input trace with verdicts and state identical to
//!    the uninterrupted one.

use proptest::prelude::*;
use sift::features::Version;
use wiot::survival::{
    SurvivalConfig, SurvivalInputs, SurvivalPolicy, LINK_BAD_PERMILLE, LINK_CLEAR_PERMILLE,
};

/// Degradation-ladder rank: higher = more capable = more expensive.
fn rank(v: Version) -> u8 {
    match v {
        Version::Original => 2,
        Version::Simplified => 1,
        Version::Reduced => 0,
    }
}

/// Duty density in kept windows per 8-window group (higher = denser =
/// more expensive), comparable across the (skip, of) tiers the policy
/// uses: (0,1) → 8, (1,4) → 6, (1,2) → 4.
fn duty_density(skip: u8, of: u8) -> u16 {
    u16::from(of - skip) * 8 / u16::from(of)
}

fn inputs(soc: u16, link: u16, backlog: u16) -> SurvivalInputs {
    SurvivalInputs {
        soc_permille: soc,
        link_badness_permille: link,
        backlog_windows: backlog,
    }
}

/// A deterministic square-wave link trace: `period` ticks bad, `period`
/// ticks good, forever.
fn oscillating_link(tick: u32, period: u32, bad: u16, good: u16) -> u16 {
    if (tick / period.max(1)).is_multiple_of(2) {
        bad
    } else {
        good
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An hour of violently oscillating link quality at healthy battery
    /// produces a bounded number of version switches: the dwell gate is
    /// the flap bound, so no oscillation — however adversarial its
    /// period or amplitude — can switch more than once per dwell
    /// period, and widening the dwell knob tightens the bound
    /// proportionally.
    #[test]
    fn oscillating_link_cannot_flap_the_version(
        period in 1u32..120,
        bad in 400u16..1000,
        good in 0u16..80,
    ) {
        let cfg = SurvivalConfig::default();
        let dwell = cfg.min_dwell_ticks;
        let mut p = SurvivalPolicy::new(cfg, Version::Original);
        for tick in 0..3600u32 {
            let link = oscillating_link(tick, period, bad, good);
            p.step(inputs(1000, link, 0));
        }
        // Hard ceiling from the dwell gate.
        let dwell_bound = 3600 / dwell + 1;
        prop_assert!(
            p.switches() <= dwell_bound,
            "{} switches in an hour exceeds the dwell bound {}",
            p.switches(),
            dwell_bound
        );
        // The same trace against a 15-minute dwell: at most 5 switches
        // an hour, whatever the link does.
        let slow = SurvivalConfig {
            min_dwell_ticks: 900,
            ..SurvivalConfig::default()
        };
        let mut q = SurvivalPolicy::new(slow, Version::Original);
        for tick in 0..3600u32 {
            let link = oscillating_link(tick, period, bad, good);
            q.step(inputs(1000, link, 0));
        }
        prop_assert!(
            q.switches() <= 3600 / 900 + 1,
            "{} switches in an hour under a 15-minute dwell",
            q.switches()
        );
    }

    /// While the battery only drains, every knob moves monotonically
    /// toward survival: version rank and duty density never increase,
    /// and the retry budget never loosens back up.
    #[test]
    fn degradation_is_monotone_as_battery_drains(
        start in 700u16..1000,
        steps in prop::collection::vec(0u16..25, 50..300),
    ) {
        let mut p = SurvivalPolicy::new(SurvivalConfig::default(), Version::Original);
        let mut soc = start;
        let mut last_rank = rank(p.version());
        let mut last_density = {
            let (skip, of) = p.duty();
            duty_density(skip, of)
        };
        let mut last_retry = p.retry().0;
        for step in steps {
            soc = soc.saturating_sub(step);
            p.step(inputs(soc, 0, 0));
            let r = rank(p.version());
            let (skip, of) = p.duty();
            let d = duty_density(skip, of);
            let (retry_max, _) = p.retry();
            prop_assert!(r <= last_rank, "version upgraded {last_rank}→{r} at soc {soc}");
            prop_assert!(d <= last_density, "duty densified {last_density}→{d} at soc {soc}");
            prop_assert!(
                retry_max <= last_retry,
                "retry budget loosened {last_retry}→{retry_max} at soc {soc}"
            );
            last_rank = r;
            last_density = d;
            last_retry = retry_max;
        }
    }

    /// Snapshot at a random reboot point, restore into a fresh policy,
    /// replay the rest of the trace: verdicts and final state are
    /// identical to the policy that never rebooted. 128 cases × one
    /// random reboot point each ≫ the 100-point floor the issue asks
    /// for.
    #[test]
    fn snapshot_restore_roundtrip_is_invisible(
        trace in prop::collection::vec((0u16..=1000, 0u16..=1000, 0u16..16), 2..200),
        reboot_frac in 0.0f64..1.0,
    ) {
        let cfg = SurvivalConfig {
            min_dwell_ticks: 5,
            ..SurvivalConfig::default()
        };
        let reboot_at = ((trace.len() as f64) * reboot_frac) as usize;
        let mut uninterrupted = SurvivalPolicy::new(cfg, Version::Original);
        let mut rebooted = SurvivalPolicy::new(cfg, Version::Original);
        for (i, &(soc, link, backlog)) in trace.iter().enumerate() {
            if i == reboot_at {
                // Brownout: the live policy object is lost; all that
                // survives is the 16-byte snapshot in FRAM.
                let snap = rebooted.snapshot();
                rebooted = SurvivalPolicy::new(cfg, Version::Original);
                rebooted.restore(snap);
                prop_assert_eq!(rebooted.snapshot(), snap, "restore is not the inverse of snapshot");
            }
            let a = uninterrupted.step(inputs(soc, link, backlog));
            let b = rebooted.step(inputs(soc, link, backlog));
            prop_assert_eq!(a, b, "verdicts diverged at tick {} (reboot at {})", i, reboot_at);
        }
        // Full behavioral state matches; `switches()` deliberately does
        // not — it is session telemetry, not policy state, and resets
        // with the process.
        prop_assert_eq!(uninterrupted.snapshot(), rebooted.snapshot());
    }
}

/// The link latch itself, deterministically: a sustained bad link caps
/// the version at Simplified, and the cap releases only after the
/// smoothed badness falls through the *lower* clear threshold.
#[test]
fn link_latch_caps_and_releases_with_a_dead_band() {
    let cfg = SurvivalConfig::default();
    let mut p = SurvivalPolicy::new(cfg, Version::Original);
    assert_eq!(p.version(), Version::Original);
    // Sustained bad link at full battery: capped to Simplified.
    for _ in 0..cfg.min_dwell_ticks * 4 {
        p.step(inputs(1000, 600, 0));
    }
    assert!(p.link_capped());
    assert_eq!(p.version(), Version::Simplified);
    // Badness hovering between clear and cap thresholds: latch holds.
    let mid = (LINK_CLEAR_PERMILLE + LINK_BAD_PERMILLE) / 2;
    for _ in 0..cfg.min_dwell_ticks * 4 {
        p.step(inputs(1000, mid, 0));
    }
    assert!(p.link_capped(), "latch released inside the dead band");
    assert_eq!(p.version(), Version::Simplified);
    // Clean link long enough for the EWMA to drain: cap releases and
    // the version recovers.
    for _ in 0..cfg.min_dwell_ticks * 8 {
        p.step(inputs(1000, 0, 0));
    }
    assert!(!p.link_capped());
    assert_eq!(p.version(), Version::Original);
}
