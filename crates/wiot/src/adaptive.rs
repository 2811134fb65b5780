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
//! module holds the host-side energy arithmetic it is fed with: the
//! per-version draw current, derived once in [`DrawTable`], and
//! [`BatteryLoop`], the one loop that drains a battery at the policy's
//! posture and then steps the policy on the charge left. The scenario's
//! survival runtime, the lifetime bench and the `adaptive_security`
//! example all drive it.

use crate::survival::{SurvivalInputs, SurvivalPolicy, SurvivalVerdict};
use amulet_sim::costs::{detector_cycles, tsetlin_classifier_cycles, OpCosts};
use amulet_sim::energy::{BatteryState, EnergyModel};
use ml::BackendKind;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::zoo::tsetlin_pairs;

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
    /// [`Version::index`].
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
            active_delta_ua[v.index()] = (avg - baseline).max(0.0).round() as u64;
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
        let delta = self.active_delta_ua[version.index()];
        let of = u64::from(of.max(1));
        let kept = of - u64::from(skip).min(of);
        self.baseline_ua + delta * kept / of
    }
}

/// The one battery loop: a [`SurvivalPolicy`] deciding on a
/// [`BatteryState`] that drains at the policy's posture through a
/// [`DrawTable`]. Each tick a caller drains first, then steps, so the
/// policy always reads the charge the tick left. A static posture is a
/// loop that is drained and never stepped.
#[derive(Debug, Clone)]
pub struct BatteryLoop {
    policy: SurvivalPolicy,
    battery: BatteryState,
    draw: DrawTable,
    /// Drain current, permille of the table's draw.
    scale_permille: u64,
    /// Steps taken on each version, indexed by [`Version::index`].
    occupancy_ticks: [u64; 3],
}

impl BatteryLoop {
    /// A full battery under `model`, decided by `policy` and drained at
    /// `scale_permille` ‰ of `draw`'s current.
    pub fn new(
        policy: SurvivalPolicy,
        draw: DrawTable,
        model: &EnergyModel,
        scale_permille: u64,
    ) -> Self {
        Self {
            policy,
            battery: BatteryState::from_model(model),
            draw,
            scale_permille,
            occupancy_ticks: [0; 3],
        }
    }

    /// Drain `dt_ms` at the posture in force: the table's draw for the
    /// policy's version and duty, scaled to `(draw · scale + 500) / 1000`
    /// µA.
    pub fn drain(&mut self, dt_ms: u64) {
        let draw = self.draw.draw_ua(self.policy.version(), self.policy.duty());
        let current = draw.saturating_mul(self.scale_permille).saturating_add(500) / 1000;
        self.battery.drain(current, dt_ms);
    }

    /// Step the policy on the charge the last drain left and the link
    /// and backlog sensors, and count the step against the version it
    /// leaves in force.
    pub fn step(&mut self, link_badness_permille: u16, backlog_windows: u16) -> SurvivalVerdict {
        let verdict = self.policy.step(SurvivalInputs {
            soc_permille: self.battery.soc_permille(),
            link_badness_permille,
            backlog_windows,
        });
        self.occupancy_ticks[self.policy.version().index()] += 1;
        verdict
    }

    /// Remaining state of charge, permille.
    pub fn soc_permille(&self) -> u16 {
        self.battery.soc_permille()
    }

    /// Whether the battery is at or below the policy's cutoff.
    pub fn is_cutoff(&self) -> bool {
        self.policy.is_cutoff(self.battery.soc_permille())
    }

    /// The policy in force.
    pub fn policy(&self) -> &SurvivalPolicy {
        &self.policy
    }

    /// The policy, for a restore from its FRAM snapshot.
    pub fn policy_mut(&mut self) -> &mut SurvivalPolicy {
        &mut self.policy
    }

    /// Steps taken on each version, indexed by [`Version::index`].
    pub fn occupancy_ticks(&self) -> [u64; 3] {
        self.occupancy_ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::survival::{
        SurvivalAction, SurvivalConfig, CUTOFF_PERMILLE, ORIGINAL_ABOVE_PERMILLE,
    };

    fn svm_draw() -> DrawTable {
        DrawTable::new(
            &EnergyModel::default(),
            &SiftConfig::default(),
            BackendKind::Svm,
        )
    }

    /// A full battery under `survival`'s drain scale, deciding from
    /// `ceiling` down.
    fn battery_loop(survival: SurvivalConfig, ceiling: Version) -> BatteryLoop {
        let scale_permille = u64::from(survival.drain_scale.max(1)) * 1000;
        let policy = SurvivalPolicy::new(survival, ceiling);
        BatteryLoop::new(policy, svm_draw(), &EnergyModel::default(), scale_permille)
    }

    /// Run `lp` to cutoff at 1 s ticks on a clean link, stepping it when
    /// `stepped`: the `(second, version)` of each switch and the
    /// lifetime in seconds.
    fn to_cutoff(lp: &mut BatteryLoop, stepped: bool) -> (Vec<(u64, Version)>, u64) {
        let mut switches = Vec::new();
        let mut now_s = 0u64;
        while !lp.is_cutoff() {
            lp.drain(1000);
            now_s += 1;
            if !stepped {
                continue;
            }
            if let Some(SurvivalAction::SetVersion { to, .. }) = lp.step(0, 0).version {
                switches.push((now_s, to));
            }
        }
        (switches, now_s)
    }

    #[test]
    fn adaptive_deployment_outlives_static_original() {
        let survival = SurvivalConfig::default();
        let mut adaptive = battery_loop(survival, Version::Original);
        let (switches, lifetime_s) = to_cutoff(&mut adaptive, true);
        let (_, static_s) = to_cutoff(&mut battery_loop(survival, Version::Original), false);
        assert!(
            lifetime_s * 2 >= static_s * 3,
            "adaptive {lifetime_s} s vs static {static_s} s"
        );
        // Three phases in version order, covering the whole deployment.
        let versions: Vec<Version> = switches.iter().map(|&(_, v)| v).collect();
        assert_eq!(versions, vec![Version::Simplified, Version::Reduced]);
        assert!(switches.windows(2).all(|w| 0 < w[0].0 && w[0].0 < w[1].0));
        assert!(switches.iter().all(|&(at, _)| at <= lifetime_s));
        let occupancy = adaptive.occupancy_ticks();
        assert_eq!(occupancy.iter().sum::<u64>(), lifetime_s);
        assert_eq!(occupancy[0], switches[0].0 - 1);
    }

    #[test]
    fn dwell_limits_switch_cadence() {
        let ten_days = 10 * 86_400;
        let survival = SurvivalConfig {
            min_dwell_ticks: ten_days,
            ..SurvivalConfig::default()
        };
        let (switches, _) = to_cutoff(&mut battery_loop(survival, Version::Original), true);
        // The first switch is free of the dwell gate; the second waits
        // it out even though the battery crossed its threshold earlier.
        assert_eq!(switches.len(), 2);
        assert_eq!(switches[1].0 - switches[0].0, u64::from(ten_days));
    }

    #[test]
    fn the_switch_lands_on_the_tick_whose_drain_crosses_the_threshold() {
        let mut lp = battery_loop(
            SurvivalConfig {
                min_dwell_ticks: 5,
                drain_scale: 60_000,
            },
            Version::Original,
        );
        loop {
            let before = lp.soc_permille();
            lp.drain(1000);
            let crossed =
                before > ORIGINAL_ABOVE_PERMILLE && lp.soc_permille() <= ORIGINAL_ABOVE_PERMILLE;
            let switched = lp.step(0, 0).version.is_some();
            assert_eq!(switched, crossed, "at {} permille", lp.soc_permille());
            if switched {
                break;
            }
        }
        assert_eq!(lp.policy().version(), Version::Simplified);
    }

    #[test]
    fn a_static_posture_lasts_the_energy_models_lifetime() {
        // Never stepped, the loop drains the provisioned build's full
        // draw to cutoff, which comes once less than CUTOFF + 1 permille
        // of the charge is left; at 60 s ticks, within one tick.
        const TICK_S: u64 = 60;
        let model = EnergyModel::default();
        for version in [Version::Original, Version::Reduced] {
            let mut lp = battery_loop(SurvivalConfig::default(), version);
            let mut ticks = 0u64;
            while !lp.is_cutoff() {
                lp.drain(TICK_S * 1000);
                ticks += 1;
            }
            let ua = svm_draw().draw_ua(version, (0, 1)) as f64;
            let usable = 1.0 - f64::from(CUTOFF_PERMILLE + 1) / 1000.0;
            let expected_s = model.lifetime_days(ua) * usable * 86_400.0;
            let got_s = (ticks * TICK_S) as f64;
            assert!(
                (got_s - expected_s).abs() <= TICK_S as f64,
                "{version}: {got_s} s vs {expected_s:.0} s"
            );
            assert_eq!(lp.occupancy_ticks(), [0; 3]);
        }
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
