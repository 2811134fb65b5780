//! Adaptive security: the paper's Insight #4, implemented.
//!
//! "We envision an adaptive security model with the ability to
//! automatically adjust the security level by switching between different
//! versions of one security app based on the available resources. …
//! The core of this model is a *decision engine*, which can automatically
//! detect any types of constraints during compile time and runtime, and
//! decide which version of security app to run."
//!
//! The decision engine is the device-side [`SurvivalPolicy`]: the same
//! integer controller the scenario, fleet and lifetime bench run. This
//! module holds the host-side energy arithmetic it is fed with — the
//! per-version draw current, derived once in [`DrawTable`] — and
//! [`simulate_adaptive_deployment`], a whole-battery fast-forward of the
//! policy that quantifies the vision.

use crate::survival::{SurvivalConfig, SurvivalInputs, SurvivalPolicy};
use amulet_sim::costs::{detector_cycles, tsetlin_classifier_cycles, OpCosts};
use amulet_sim::energy::{BatteryState, EnergyModel};
use ml::BackendKind;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::zoo::tsetlin_pairs;

/// Stable index of a version in per-version tables:
/// `[Original, Simplified, Reduced]`.
pub fn version_index(v: Version) -> usize {
    match v {
        Version::Original => 0,
        Version::Simplified => 1,
        Version::Reduced => 2,
    }
}

/// Average system draw current per detector version, in integer µA.
///
/// The detector's share is the energy model's duty-cycle-weighted
/// average over the cost model's cycles for an average window (the
/// Table III lever), rounded once to integer µA so battery integration
/// in [`BatteryState`] stays exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrawTable {
    /// Baseline (sleep) system current, µA.
    baseline_ua: u64,
    /// Detector current on top of baseline per version, µA, indexed by
    /// [`version_index`].
    active_delta_ua: [u64; 3],
}

impl DrawTable {
    /// The table for `config`'s windows under `model`, with the
    /// classifier cost of `backend`'s detector family.
    pub fn new(model: &EnergyModel, config: &SiftConfig, backend: BackendKind) -> Self {
        let baseline = model.currents.baseline_ua();
        let costs = OpCosts::default();
        let mut active_delta_ua = [0u64; 3];
        for v in Version::ALL {
            let mut cycles = detector_cycles(v, config, &costs, 4.0);
            if backend == BackendKind::Tsetlin {
                cycles.ml_classifier =
                    tsetlin_classifier_cycles(v.feature_count(), tsetlin_pairs(v) as usize, &costs);
            }
            let avg = model.average_current_for_cycles_ua(cycles.total(), config.window_s);
            active_delta_ua[version_index(v)] = (avg - baseline).max(0.0).round() as u64;
        }
        Self {
            baseline_ua: baseline.round() as u64,
            active_delta_ua,
        }
    }

    /// Baseline (sleep) system current, µA.
    pub fn baseline_ua(&self) -> u64 {
        self.baseline_ua
    }

    /// System current running `version` under a skip-`skip`-of-`of`
    /// duty cycle, µA: duty cycling scales only the detector's share,
    /// never the baseline (the display and radio stay on).
    pub fn draw_ua(&self, version: Version, (skip, of): (u8, u8)) -> u64 {
        let delta = self.active_delta_ua[version_index(version)];
        let of = u64::from(of.max(1));
        let kept = of - u64::from(skip).min(of);
        self.baseline_ua + delta * kept / of
    }
}

/// Outcome of one phase of an adaptive deployment (the stretch between
/// two version switches).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePhase {
    /// Version deployed during the phase.
    pub version: Version,
    /// Phase start, simulated seconds (policy ticks).
    pub from_s: u64,
    /// Phase end, simulated seconds (policy ticks).
    pub to_s: u64,
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

/// Runaway stop for [`simulate_adaptive_deployment`]: one year of ticks.
const MAX_DEPLOYMENT_S: u64 = 365 * 86_400;

/// Fast-forward a whole-battery adaptive deployment: the scenario's
/// survival loop without the signal path. Each simulated second drains
/// the battery by the posture's draw current (scaled by
/// `survival.drain_scale`), then the policy steps on a clean link with
/// no backlog, until the battery reaches cutoff. The static baseline is
/// the Original build drained from the same charge to the same cutoff.
/// This is the quantified version of the paper's Insight-#4 vision.
pub fn simulate_adaptive_deployment(
    config: &SiftConfig,
    survival: SurvivalConfig,
) -> AdaptiveReport {
    let energy = EnergyModel::default();
    let draw = DrawTable::new(&energy, config, BackendKind::Svm);
    let scale = u64::from(survival.drain_scale.max(1));
    let mut policy = SurvivalPolicy::new(survival, Version::Original);
    let charged = BatteryState::from_model(&energy);

    // The strongest static deployment, drained to the same cutoff.
    let original_ua = draw
        .draw_ua(Version::Original, (0, 1))
        .saturating_mul(scale);
    let mut battery = charged;
    let mut static_s = 0u64;
    while !policy.is_cutoff(battery.soc_permille()) && static_s < MAX_DEPLOYMENT_S {
        battery.drain(original_ua, 1000);
        static_s += 1;
    }

    let mut battery = charged;
    let mut phases = Vec::new();
    let mut phase_start = 0u64;
    let mut now_s = 0u64;
    while !policy.is_cutoff(battery.soc_permille()) && now_s < MAX_DEPLOYMENT_S {
        let version = policy.version();
        battery.drain(
            draw.draw_ua(version, policy.duty()).saturating_mul(scale),
            1000,
        );
        now_s += 1;
        let verdict = policy.step(SurvivalInputs {
            soc_permille: battery.soc_permille(),
            ..SurvivalInputs::default()
        });
        if verdict.version.is_some() {
            phases.push(AdaptivePhase {
                version,
                from_s: phase_start,
                to_s: now_s,
            });
            phase_start = now_s;
        }
    }
    phases.push(AdaptivePhase {
        version: policy.version(),
        from_s: phase_start,
        to_s: now_s,
    });
    AdaptiveReport {
        phases,
        lifetime_days: now_s as f64 / 86_400.0,
        static_original_days: static_s as f64 / 86_400.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_deployment_outlives_static_original() {
        let report =
            simulate_adaptive_deployment(&SiftConfig::default(), SurvivalConfig::default());
        assert!(
            report.lifetime_days >= report.static_original_days * 1.5,
            "adaptive {:.2} d vs static {:.2} d",
            report.lifetime_days,
            report.static_original_days
        );
        // Three phases in version order, covering the whole deployment.
        let versions: Vec<Version> = report.phases.iter().map(|p| p.version).collect();
        assert_eq!(
            versions,
            vec![Version::Original, Version::Simplified, Version::Reduced]
        );
        assert_eq!(report.phases[0].from_s, 0);
        for w in report.phases.windows(2) {
            assert_eq!(w[0].to_s, w[1].from_s, "phases must tile");
        }
        let end = report.phases.last().map_or(0, |p| p.to_s);
        assert_eq!(end as f64 / 86_400.0, report.lifetime_days);
    }

    #[test]
    fn dwell_limits_switch_cadence() {
        let ten_days = 10 * 86_400;
        let report = simulate_adaptive_deployment(
            &SiftConfig::default(),
            SurvivalConfig {
                min_dwell_ticks: ten_days,
                ..SurvivalConfig::default()
            },
        );
        // The first switch is free of the dwell gate; the second waits
        // it out even though the battery crossed its threshold earlier.
        let switches: Vec<u64> = report.phases[1..].iter().map(|p| p.from_s).collect();
        assert_eq!(switches.len(), 2);
        assert_eq!(switches[1] - switches[0], u64::from(ten_days));
    }

    #[test]
    fn draw_table_orders_versions_and_thins_only_the_detector_share() {
        let t = DrawTable::new(
            &EnergyModel::default(),
            &SiftConfig::default(),
            BackendKind::Svm,
        );
        let full = |v| t.draw_ua(v, (0, 1));
        assert!(full(Version::Original) > full(Version::Simplified));
        assert!(full(Version::Simplified) > full(Version::Reduced));
        assert!(full(Version::Reduced) > t.baseline_ua());
        // Skipping one window in two halves the detector's share; a
        // degenerate duty never drops below baseline.
        let delta = full(Version::Original) - t.baseline_ua();
        assert_eq!(
            t.draw_ua(Version::Original, (1, 2)),
            t.baseline_ua() + delta / 2
        );
        assert_eq!(t.draw_ua(Version::Original, (9, 2)), t.baseline_ua());
        assert_eq!(
            t.draw_ua(Version::Original, (0, 0)),
            full(Version::Original)
        );
    }
}
