//! The survival runtime: the host-side carrier of the integer
//! [`SurvivalPolicy`] — its [`BatteryLoop`] drained every chunk and
//! stepped at 1 Hz, the sensor duty gate, and actuation on the links,
//! detector and checkpoint.

use super::{Scenario, SurvivalReport};
use crate::adaptive::{BatteryLoop, DrawTable};
use crate::basestation::BaseStation;
use crate::channel::link_badness_permille;
use crate::faults::FaultSummary;
use crate::persist::Persistence;
use crate::survival::{
    window_is_skipped, SurvivalAction, SurvivalPolicy, RETRY_TIGHT_BELOW_PERMILLE,
};
use crate::transport::Links;
use crate::WiotError;
use amulet_sim::apps::SiftApp;
use amulet_sim::energy::EnergyModel;
use ml::DetectorModel;
use physio_sim::subject::bank;
use sift::features::Version;
use telemetry::EventCode;

/// The policy's battery loop plus everything the simulation needs to
/// feed and actuate it: lazily trained models for hot-swaps, and the
/// action log.
pub(super) struct SurvivalRuntime {
    pub(super) battery: BatteryLoop,
    /// Hot-swap models per version in the scenario's backend family,
    /// seeded with the provisioned one and trained from the scenario
    /// seed on first switch into another version.
    models: Vec<(Version, DetectorModel)>,
    actions: Vec<SurvivalAction>,
    /// Whole windows the duty cycle suppressed (for the backlog
    /// sensor; chunks are counted in the fault summary).
    duty_skipped_windows: u64,
    last_skipped_window: Option<u64>,
    cutoff_at_ms: Option<u64>,
}

impl SurvivalRuntime {
    /// The runtime for a device provisioned with the scenario's version
    /// and enrolled model `deployed`; `None` when the scenario runs no
    /// survival policy.
    pub(super) fn new(
        scenario: &Scenario,
        model: &EnergyModel,
        deployed: &DetectorModel,
    ) -> Option<Self> {
        let cfg = scenario.survival?;
        let draw = DrawTable::new(model, &scenario.config, scenario.backend);
        let scale_permille = u64::from(cfg.drain_scale.max(1)) * 1000;
        let policy = SurvivalPolicy::new(cfg, scenario.version);
        Some(Self {
            battery: BatteryLoop::new(policy, draw, model, scale_permille),
            models: vec![(scenario.version, deployed.clone())],
            actions: Vec::new(),
            duty_skipped_windows: 0,
            last_skipped_window: None,
            cutoff_at_ms: None,
        })
    }

    /// The duty gate: whether window `window_idx`'s chunk is suppressed
    /// at the sensor, where the real ADC and radio would not even run.
    pub(super) fn skips(&mut self, window_idx: u64, faults: &mut FaultSummary) -> bool {
        let (skip, of) = self.battery.policy().duty();
        if !window_is_skipped(window_idx, skip, of) {
            return false;
        }
        faults.duty_skipped_chunks += 1;
        if self.last_skipped_window != Some(window_idx) {
            self.last_skipped_window = Some(window_idx);
            self.duty_skipped_windows += 1;
        }
        true
    }

    /// One tick: drain the battery loop, and at 1 Hz sample the sensors
    /// (state of charge, smoothed link badness, backlog), step the
    /// policy and carry out its decisions: retry budget on both
    /// links, duty cycle (applied at the duty gate), and — the
    /// expensive one — a detector reflash for a version switch, with
    /// the FRAM checkpoint re-reserved and re-targeted at the new
    /// build. Each action is logged and stamped into the telemetry ring.
    pub(super) fn step(
        &mut self,
        now_ms: u64,
        scenario: &Scenario,
        links: &mut Links,
        station: &mut BaseStation,
        persist: Option<&mut Persistence>,
        faults: &mut FaultSummary,
    ) -> Result<(), WiotError> {
        use SurvivalAction::{SetDuty, SetRetry, SetVersion};
        self.battery.drain(scenario.chunk_ms());
        if !now_ms.is_multiple_of(1000) {
            return Ok(());
        }

        let soc = self.battery.soc_permille();
        if self.cutoff_at_ms.is_none() && self.battery.is_cutoff() {
            self.cutoff_at_ms = Some(now_ms);
        }
        if soc <= RETRY_TIGHT_BELOW_PERMILLE {
            faults.low_battery_ticks += 1;
        }
        // Link badness: channel loss plus retransmission drag, folded
        // to permille host-side before it crosses into the integer
        // policy core.
        let retransmit_rate = links.transport_stats().map_or(0.0, |t| t.retransmit_rate());
        let badness = link_badness_permille(links.loss_rate(), retransmit_rate);
        // Backlog: windows whose time has passed but that neither
        // resolved at the station nor were duty-skipped at the source.
        let expected = now_ms / scenario.window_ms();
        let resolved = station.window_log().len() as u64 + self.duty_skipped_windows;
        let backlog = expected.saturating_sub(resolved).min(u64::from(u16::MAX)) as u16;

        let verdict = self.battery.step(badness, backlog);
        if verdict.retry.is_some() {
            self.apply_retry(links);
        }
        if let Some(SetVersion { to, .. }) = verdict.version {
            let model = match self.models.iter().find(|(v, _)| *v == to) {
                Some((_, m)) => m.clone(),
                None => {
                    let m = scenario.enroll(&bank(), to)?;
                    self.models.push((to, m.clone()));
                    m
                }
            };
            let app = SiftApp::new(to, model.clone(), scenario.config.clone())?;
            // The reflash drops the FRAM checkpoint reservation along
            // with the old image's memory map: re-charge it and point
            // subsequent commits at the new build.
            station.swap_detector(app)?;
            if let Some(p) = persist {
                p.reserve(station)?;
                p.set_version(to, model)?;
            }
        }
        let tele = station.os_mut().telemetry_mut();
        let pack = |hi: u8, lo: u8| (u64::from(hi) << 8) | u64::from(lo);
        let actions = [verdict.retry, verdict.duty, verdict.version];
        for action in actions.into_iter().flatten() {
            let (kind, arg) = match action {
                SetVersion { to, .. } => (0, to.index() as u64),
                SetDuty { skip, of, .. } => (1, pack(skip, of)),
                SetRetry {
                    max_retries: m,
                    backoff_extra_shift: s,
                    ..
                } => (2, pack(m, s)),
            };
            tele.event(now_ms, EventCode::SurvivalAction, kind, arg);
            self.actions.push(action);
        }
        Ok(())
    }

    /// Put the policy's retry posture on both links.
    pub(super) fn apply_retry(&self, links: &mut Links) {
        let (max, shift) = self.battery.policy().retry();
        links.set_retry_budget(u32::from(max), u32::from(shift));
    }

    /// What the policy did over the session.
    pub(super) fn into_report(self) -> SurvivalReport {
        SurvivalReport {
            version_switches: u64::from(self.battery.policy().switches()),
            retry_reconfigs: self
                .actions
                .iter()
                .filter(|a| matches!(a, SurvivalAction::SetRetry { .. }))
                .count() as u64,
            final_version: self.battery.policy().version(),
            final_soc_permille: self.battery.soc_permille(),
            cutoff_at_ms: self.cutoff_at_ms,
            occupancy_ticks: self.battery.occupancy_ticks(),
            actions: self.actions,
        }
    }
}
