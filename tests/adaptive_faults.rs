//! Cross-layer scenario: timing faults and link degradation feeding the
//! adaptive decision engine (the survival policy).
//!
//! Clock drift skews packet timestamps but does not destroy data, so it
//! must neither trip the stream watchdog (no spurious `StreamStalled`)
//! nor push the policy off the full detector. A genuinely lossy link,
//! measured through the same observation path, must latch the link cap
//! at the simplified version — while ARQ still keeps the watchdog quiet.

use sift::features::Version;
use wiot::channel::{link_badness_permille, LossModel};
use wiot::device::Stream;
use wiot::faults::{FaultEvent, FaultKind, FaultPlan};
use wiot::scenario::{run, Scenario, SimReport};
use wiot::survival::{SurvivalConfig, SurvivalInputs, SurvivalPolicy, LINK_BAD_PERMILLE};

/// The link badness the runner feeds the policy: observed channel loss
/// plus ARQ retransmission drag.
fn observed_badness(r: &SimReport) -> u16 {
    link_badness_permille(
        r.channel_loss_rate,
        r.transport.map_or(0.0, |t| t.retransmit_rate()),
    )
}

/// A policy provisioned with Original, stepped at healthy charge on a
/// link of `badness` long enough for its smoothing to settle.
fn settled_policy(badness: u16) -> SurvivalPolicy {
    let mut p = SurvivalPolicy::new(SurvivalConfig::default(), Version::Original);
    for _ in 0..30 {
        p.step(SurvivalInputs {
            soc_permille: 900,
            link_badness_permille: badness,
            backlog_windows: 0,
        });
    }
    p
}

/// 5% clock drift on the ABP stream for 20 s skews timestamps by about
/// a second — far below the 9 s watchdog — so the run must end with
/// measurable skew, zero stall alerts, and a policy still happy to run
/// the original detector.
#[test]
fn clock_drift_neither_stalls_the_watchdog_nor_degrades_the_engine() {
    let mut s = Scenario::new(3, Version::Reduced, 60.0).with_reliability();
    s.faults = FaultPlan::new().with(FaultEvent {
        start_s: 10.0,
        end_s: 30.0,
        kind: FaultKind::ClockDrift {
            stream: Stream::Abp,
            ppm: 50_000.0,
        },
    });
    let r = run(&s).unwrap();

    assert!(r.faults.max_clock_skew_ms > 0, "{:?}", r.faults);
    assert_eq!(r.stall_alerts, 0, "drift must not look like a stall");
    assert!(
        !r.sink.alerts().iter().any(|a| a.app == "watchdog"),
        "no watchdog alert may reach the sink under pure drift"
    );

    let p = settled_policy(observed_badness(&r));
    assert!(!p.link_capped());
    assert_eq!(p.version(), Version::Original);
}

/// The same deployment with a genuinely bad link: the policy must cap
/// at simplified from the very same observation path, and ARQ must keep
/// enough chunks flowing that the watchdog still never fires.
#[test]
fn degraded_link_caps_the_engine_at_simplified_without_stalling() {
    let mut s = Scenario::new(3, Version::Reduced, 60.0).with_reliability();
    s.faults = FaultPlan::new().with(FaultEvent {
        start_s: 5.0,
        end_s: 55.0,
        kind: FaultKind::LinkDegrade {
            stream: None,
            loss: LossModel::Bernoulli { p: 0.4 },
        },
    });
    let r = run(&s).unwrap();

    assert!(r.faults.degraded_link_ms > 0, "{:?}", r.faults);
    assert_eq!(r.stall_alerts, 0, "ARQ should keep both streams alive");

    let badness = observed_badness(&r);
    assert!(
        badness >= LINK_BAD_PERMILLE,
        "observed badness {badness} permille should reach the link-cap threshold"
    );
    let p = settled_policy(badness);
    assert!(p.link_capped());
    assert_eq!(p.version(), Version::Simplified);
}
