//! Adaptive security: the paper's Insight #4, implemented.
//!
//! "We envision an adaptive security model with the ability to
//! automatically adjust the security level by switching between different
//! versions of one security app based on the available resources. …
//! The core of this model is a *decision engine*, which can automatically
//! detect any types of constraints during compile time and runtime, and
//! decide which version of security app to run."
//!
//! [`DecisionEngine`] consumes a [`ResourceSnapshot`] (the dynamic
//! constraints) plus the per-version footprints (the static constraints)
//! and picks the strongest detector version the device can currently
//! afford, with hysteresis and a minimum dwell time so the system does
//! not thrash at a threshold.

use sift::features::Version;

/// Dynamic resource constraints sampled at runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceSnapshot {
    /// Battery state of charge, `[0, 1]`.
    pub battery_fraction: f64,
    /// FRAM still available for app installation, bytes.
    pub fram_free_bytes: usize,
    /// Fraction of CPU time not yet committed, `[0, 1]`.
    pub cpu_headroom: f64,
}

/// Static per-version requirements the engine checks installability
/// against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionRequirements {
    /// Version described.
    pub version: Version,
    /// FRAM the version needs (app + extra libraries), bytes.
    pub fram_bytes: usize,
    /// CPU duty cycle the version needs, `[0, 1]`.
    pub duty_cycle: f64,
}

/// Observed quality of the sensor → base-station links, as reported by
/// the channel and ARQ layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Fraction of offered packets the channel lost, `[0, 1]`.
    pub loss_rate: f64,
    /// ARQ retransmissions per first-time data packet.
    pub retransmit_rate: f64,
}

impl LinkQuality {
    /// Scalar badness of the link in `[0, 1]`: loss plus the energy
    /// drag of retransmissions (each retransmit costs roughly one
    /// packet's airtime, so it weighs like loss, capped).
    fn badness(&self) -> f64 {
        (self.loss_rate + 0.5 * self.retransmit_rate).clamp(0.0, 1.0)
    }

    /// The same scalar badness as integer permille in `[0, 1000]` —
    /// the fixed-point form the device-side survival policy
    /// ([`crate::survival`]) consumes. Non-finite inputs saturate to
    /// fully bad (a link whose statistics are broken should not be
    /// trusted).
    pub fn badness_permille(&self) -> u16 {
        let b = self.badness();
        if b.is_finite() {
            (b * 1000.0).round() as u16
        } else {
            1000
        }
    }
}

/// Decision-engine policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// Battery fraction above which the full detector runs.
    pub original_above: f64,
    /// Battery fraction above which at least the simplified detector
    /// runs (below it, reduced).
    pub simplified_above: f64,
    /// Hysteresis margin applied when *upgrading* (the battery must
    /// exceed the threshold by this much).
    pub hysteresis: f64,
    /// Minimum time between switches, ms.
    pub min_dwell_ms: u64,
    /// Smoothed link badness (loss + retransmission drag) above which
    /// the engine refuses to run the full detector: on a degraded link
    /// the radio is already eating the energy budget and windows arrive
    /// sparse, so the heavyweight version buys little.
    pub degrade_loss_above: f64,
    /// EWMA smoothing factor for link-quality observations, `(0, 1]`.
    pub link_ewma_alpha: f64,
}

impl Default for Policy {
    fn default() -> Self {
        Self {
            original_above: 0.5,
            simplified_above: 0.2,
            hysteresis: 0.05,
            min_dwell_ms: 60_000,
            degrade_loss_above: 0.15,
            link_ewma_alpha: 0.3,
        }
    }
}

/// A recorded version switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Switch {
    /// When it happened, ms.
    pub at_ms: u64,
    /// Version switched away from.
    pub from: Version,
    /// Version switched to.
    pub to: Version,
}

/// The adaptive-security decision engine.
#[derive(Debug, Clone)]
pub struct DecisionEngine {
    policy: Policy,
    requirements: Vec<VersionRequirements>,
    current: Version,
    last_switch_ms: Option<u64>,
    history: Vec<Switch>,
    /// Smoothed link badness; `None` until the first observation, so a
    /// deployment that never reports link quality behaves exactly as
    /// before.
    link_badness_ewma: Option<f64>,
}

impl DecisionEngine {
    /// Create an engine currently running `initial`, with the static
    /// requirements of every available version.
    pub fn new(initial: Version, requirements: Vec<VersionRequirements>, policy: Policy) -> Self {
        Self {
            policy,
            requirements,
            current: initial,
            last_switch_ms: None,
            history: Vec::new(),
            link_badness_ewma: None,
        }
    }

    /// Feed one link-quality observation into the engine's smoothed
    /// view — the hook the base station / scenario runner calls with
    /// the channel and transport counters.
    pub fn observe_link(&mut self, quality: &LinkQuality) {
        let alpha = self.policy.link_ewma_alpha.clamp(0.0, 1.0);
        let b = quality.badness();
        self.link_badness_ewma = Some(match self.link_badness_ewma {
            Some(prev) => prev + alpha * (b - prev),
            None => b,
        });
    }

    /// The engine's current smoothed link badness, if any observation
    /// arrived yet.
    pub fn link_badness(&self) -> Option<f64> {
        self.link_badness_ewma
    }

    /// The version currently deployed.
    pub fn current(&self) -> Version {
        self.current
    }

    /// All switches performed.
    pub fn history(&self) -> &[Switch] {
        &self.history
    }

    /// Whether `version` satisfies the static constraints under `snap`.
    fn installable(&self, version: Version, snap: &ResourceSnapshot) -> bool {
        self.requirements
            .iter()
            .find(|r| r.version == version)
            .is_some_and(|r| {
                r.fram_bytes <= snap.fram_free_bytes && r.duty_cycle <= snap.cpu_headroom
            })
    }

    /// The version the dynamic (battery) policy asks for, ignoring
    /// static constraints.
    fn desired_by_battery(&self, battery: f64) -> Version {
        let p = &self.policy;
        // Hysteresis: upgrading requires clearing the threshold by the
        // margin; downgrading happens at the bare threshold.
        let (orig_cut, simp_cut) = match self.current {
            Version::Original => (p.original_above, p.simplified_above),
            Version::Simplified => (p.original_above + p.hysteresis, p.simplified_above),
            Version::Reduced => (
                p.original_above + p.hysteresis,
                p.simplified_above + p.hysteresis,
            ),
        };
        if battery >= orig_cut {
            Version::Original
        } else if battery >= simp_cut {
            Version::Simplified
        } else {
            Version::Reduced
        }
    }

    /// Evaluate the constraints at `now_ms`; returns `Some(new_version)`
    /// when the engine decides to switch (and records it).
    pub fn decide(&mut self, now_ms: u64, snap: &ResourceSnapshot) -> Option<Version> {
        if let Some(last) = self.last_switch_ms {
            if now_ms.saturating_sub(last) < self.policy.min_dwell_ms {
                return None;
            }
        }
        let mut target = self.desired_by_battery(snap.battery_fraction);
        // A persistently bad link caps the deployment at simplified:
        // windows arrive sparse and the radio dominates the budget.
        if self
            .link_badness_ewma
            .is_some_and(|b| b > self.policy.degrade_loss_above)
            && target == Version::Original
        {
            target = Version::Simplified;
        }
        // Degrade until the static constraints are satisfiable; if
        // nothing fits, hold the current version.
        let order = [Version::Original, Version::Simplified, Version::Reduced];
        target = order
            .iter()
            .copied()
            .skip_while(|&v| v != target)
            .find(|&v| self.installable(v, snap))?;
        if target == self.current {
            return None;
        }
        self.history.push(Switch {
            at_ms: now_ms,
            from: self.current,
            to: target,
        });
        self.current = target;
        self.last_switch_ms = Some(now_ms);
        Some(target)
    }

    /// [`DecisionEngine::observe_link`] followed by
    /// [`DecisionEngine::decide`]: the one-call form for runners that
    /// sample link quality and constraints at the same cadence.
    pub fn decide_with_link(
        &mut self,
        now_ms: u64,
        snap: &ResourceSnapshot,
        quality: &LinkQuality,
    ) -> Option<Version> {
        self.observe_link(quality);
        self.decide(now_ms, snap)
    }
}

/// Requirements derived from the platform's own profiler — the
/// "compile time" half of the engine's inputs.
pub fn requirements_from_profiler(config: &sift::config::SiftConfig) -> Vec<VersionRequirements> {
    Version::ALL
        .iter()
        .map(|&v| {
            let model_bytes = ml::embedded::encoded_len(v.feature_count());
            let spec = amulet_sim::profiler::sift_app_spec(v, config, model_bytes);
            let libs: usize = spec.libs.iter().map(|l| l.fram_bytes()).sum();
            VersionRequirements {
                version: v,
                fram_bytes: spec.fram_total_bytes() + libs,
                duty_cycle: spec.duty_cycle(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roomy(battery: f64) -> ResourceSnapshot {
        ResourceSnapshot {
            battery_fraction: battery,
            fram_free_bytes: 60_000,
            cpu_headroom: 1.0,
        }
    }

    fn engine() -> DecisionEngine {
        DecisionEngine::new(
            Version::Original,
            requirements_from_profiler(&sift::config::SiftConfig::default()),
            Policy {
                min_dwell_ms: 0,
                ..Policy::default()
            },
        )
    }

    #[test]
    fn battery_drain_degrades_versions_in_order() {
        let mut e = engine();
        assert_eq!(e.decide(0, &roomy(0.9)), None, "already original");
        assert_eq!(e.decide(1, &roomy(0.45)), Some(Version::Simplified));
        assert_eq!(e.decide(2, &roomy(0.15)), Some(Version::Reduced));
        assert_eq!(e.history().len(), 2);
    }

    #[test]
    fn recharge_upgrades_with_hysteresis() {
        let mut e = engine();
        e.decide(0, &roomy(0.1)); // → reduced
                                  // At exactly the simplified threshold the upgrade is held back by
                                  // the hysteresis margin…
        assert_eq!(e.decide(1, &roomy(0.21)), None);
        // …but clears it with margin.
        assert_eq!(e.decide(2, &roomy(0.30)), Some(Version::Simplified));
        assert_eq!(e.decide(3, &roomy(0.56)), Some(Version::Original));
    }

    #[test]
    fn static_constraint_overrides_battery() {
        let mut e = engine();
        e.decide(0, &roomy(0.1)); // reduced
                                  // Full battery but almost no free FRAM: the float versions need
                                  // their libraries, which don't fit — stay reduced.
        let tight = ResourceSnapshot {
            battery_fraction: 1.0,
            fram_free_bytes: 4_000,
            cpu_headroom: 1.0,
        };
        assert_eq!(e.decide(1, &tight), None);
        assert_eq!(e.current(), Version::Reduced);
    }

    #[test]
    fn cpu_headroom_is_a_constraint() {
        let mut e = engine();
        e.decide(0, &roomy(0.1)); // reduced
        let busy = ResourceSnapshot {
            battery_fraction: 1.0,
            fram_free_bytes: 60_000,
            cpu_headroom: 0.01,
        };
        // Original needs ~5–8 % duty; with 1 % headroom only reduced fits.
        assert_eq!(e.decide(1, &busy), None);
        assert_eq!(e.current(), Version::Reduced);
    }

    #[test]
    fn dwell_time_prevents_thrashing() {
        let mut e = DecisionEngine::new(
            Version::Original,
            requirements_from_profiler(&sift::config::SiftConfig::default()),
            Policy {
                min_dwell_ms: 10_000,
                ..Policy::default()
            },
        );
        assert_eq!(e.decide(0, &roomy(0.1)), Some(Version::Reduced));
        // Battery recovers immediately, but the dwell gate holds.
        assert_eq!(e.decide(5_000, &roomy(0.9)), None);
        assert_eq!(e.decide(10_000, &roomy(0.9)), Some(Version::Original));
    }

    #[test]
    fn bad_link_caps_deployment_at_simplified() {
        let mut e = engine();
        // Plenty of battery, but the link is terrible.
        for _ in 0..10 {
            e.observe_link(&LinkQuality {
                loss_rate: 0.35,
                retransmit_rate: 0.5,
            });
        }
        assert_eq!(e.decide(0, &roomy(0.9)), Some(Version::Simplified));
        // Link recovers: the EWMA decays and the full version returns.
        for _ in 0..20 {
            e.observe_link(&LinkQuality {
                loss_rate: 0.0,
                retransmit_rate: 0.0,
            });
        }
        assert!(e.link_badness().unwrap() < 0.01);
        assert_eq!(e.decide(1, &roomy(0.9)), Some(Version::Original));
    }

    #[test]
    fn decide_with_link_is_one_call() {
        let mut e = engine();
        let q = LinkQuality {
            loss_rate: 0.5,
            retransmit_rate: 1.0,
        };
        assert_eq!(
            e.decide_with_link(0, &roomy(0.9), &q),
            Some(Version::Simplified)
        );
        assert!(e.link_badness().is_some());
    }

    #[test]
    fn clean_link_changes_nothing() {
        let mut e = engine();
        e.observe_link(&LinkQuality {
            loss_rate: 0.01,
            retransmit_rate: 0.02,
        });
        assert_eq!(e.decide(0, &roomy(0.9)), None);
        assert_eq!(e.current(), Version::Original);
    }

    #[test]
    fn nothing_fits_holds_current() {
        let mut e = engine();
        let hopeless = ResourceSnapshot {
            battery_fraction: 0.9,
            fram_free_bytes: 0,
            cpu_headroom: 0.0,
        };
        assert_eq!(e.decide(0, &hopeless), None);
        assert_eq!(e.current(), Version::Original);
    }

    #[test]
    fn requirements_cover_all_versions_and_order_by_weight() {
        let reqs = requirements_from_profiler(&sift::config::SiftConfig::default());
        assert_eq!(reqs.len(), 3);
        let get = |v: Version| reqs.iter().find(|r| r.version == v).unwrap();
        assert!(get(Version::Original).fram_bytes > get(Version::Simplified).fram_bytes);
        assert!(get(Version::Simplified).fram_bytes > get(Version::Reduced).fram_bytes);
        assert!(get(Version::Original).duty_cycle > get(Version::Reduced).duty_cycle);
    }
}

/// Outcome of one phase of an adaptive deployment (the stretch between
/// two version switches).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePhase {
    /// Version deployed during the phase.
    pub version: Version,
    /// Phase start, simulated hours.
    pub from_hour: f64,
    /// Phase end, simulated hours.
    pub to_hour: f64,
}

/// Result of [`simulate_adaptive_deployment`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// The deployment phases, in order.
    pub phases: Vec<AdaptivePhase>,
    /// Total lifetime achieved, days.
    pub lifetime_days: f64,
    /// Lifetime of the strongest static deployment (original), days.
    pub static_original_days: f64,
}

/// Fast-forward a whole-battery adaptive deployment: each simulated hour
/// drains the battery by the deployed version's average current; the
/// engine reevaluates and switches as thresholds are crossed. This is
/// the quantified version of the paper's Insight-#4 vision.
pub fn simulate_adaptive_deployment(
    config: &sift::config::SiftConfig,
    policy: Policy,
) -> AdaptiveReport {
    use amulet_sim::energy::EnergyModel;
    use amulet_sim::profiler::{sift_app_spec, ResourceProfiler};

    let energy = EnergyModel::default();
    let profiler = ResourceProfiler::default();
    let reqs = requirements_from_profiler(config);
    let mut engine = DecisionEngine::new(Version::Original, reqs, policy);

    let avg_current = |v: Version| {
        let model_bytes = ml::embedded::encoded_len(v.feature_count());
        let spec = sift_app_spec(v, config, model_bytes);
        profiler.profile(&[&spec]).avg_current_ua
    };
    let static_original_days = energy.lifetime_days(avg_current(Version::Original));

    let mut phases = Vec::new();
    let mut phase_start = 0.0f64;
    let mut battery_mah = energy.battery_mah;
    let mut hour = 0u64;
    while battery_mah > 0.0 && hour < 24 * 365 {
        let version = engine.current();
        battery_mah -= avg_current(version) / 1000.0;
        hour += 1;
        let snap = ResourceSnapshot {
            battery_fraction: (battery_mah / energy.battery_mah).max(0.0),
            fram_free_bytes: 60_000,
            cpu_headroom: 0.9,
        };
        if let Some(_next) = engine.decide(hour * 3_600_000, &snap) {
            phases.push(AdaptivePhase {
                version,
                from_hour: phase_start,
                to_hour: hour as f64,
            });
            phase_start = hour as f64;
        }
    }
    phases.push(AdaptivePhase {
        version: engine.current(),
        from_hour: phase_start,
        to_hour: hour as f64,
    });
    AdaptiveReport {
        phases,
        lifetime_days: hour as f64 / 24.0,
        static_original_days,
    }
}

#[cfg(test)]
mod deployment_tests {
    use super::*;

    #[test]
    fn adaptive_deployment_outlives_static_original() {
        let report =
            simulate_adaptive_deployment(&sift::config::SiftConfig::default(), Policy::default());
        assert!(
            report.lifetime_days > report.static_original_days * 1.2,
            "adaptive {:.1} d vs static {:.1} d",
            report.lifetime_days,
            report.static_original_days
        );
        // Three phases in version order, covering the whole deployment.
        let versions: Vec<Version> = report.phases.iter().map(|p| p.version).collect();
        assert_eq!(
            versions,
            vec![Version::Original, Version::Simplified, Version::Reduced]
        );
        assert_eq!(report.phases[0].from_hour, 0.0);
        for w in report.phases.windows(2) {
            assert_eq!(w[0].to_hour, w[1].from_hour, "phases must tile");
        }
    }

    #[test]
    fn dwell_policy_limits_switch_cadence() {
        let report = simulate_adaptive_deployment(
            &sift::config::SiftConfig::default(),
            Policy {
                min_dwell_ms: 24 * 3_600_000, // at most one switch a day
                ..Policy::default()
            },
        );
        for w in report.phases.windows(2) {
            assert!(w[1].from_hour - w[0].from_hour >= 24.0 - 1e-9);
        }
    }
}
