//! Deterministic end-to-end scenarios: sensors → attacker → faults →
//! channel/ARQ → base station → sink, scored against ground truth.
//!
//! A scenario optionally carries a [`FaultPlan`] (timed link
//! degradation, sensor dropout, stuck sensors, brownout reboots, clock
//! drift), an ARQ configuration for the wireless hop, and the base
//! station's graceful-degradation knobs (partial-window salvage, stream
//! watchdog). Everything is driven from the single scenario seed, so a
//! faulted run replays byte-identically.
//!
//! A [`DeviceSim`] holds one value per layer — `source`, `transport::Links`,
//! [`BaseStation`], [`Persistence`] and the survival `runtime` — and
//! calls them in a fixed order each tick; `report` scores the session.

mod report;
mod runtime;
mod source;

pub use report::{SimReport, SurvivalReport};

use crate::attacker::AttackMode;
use crate::basestation::{BaseStation, WindowOutcome};
use crate::channel::{ChannelConfig, LossModel};
use crate::device::Stream;
use crate::faults::{FaultPlan, FaultSummary};
use crate::persist::Persistence;
use crate::survival::SurvivalConfig;
use crate::transport::{ArqConfig, Links};
use crate::WiotError;
use amulet_sim::apps::SiftApp;
use ml::{BackendKind, DetectorBackend, DetectorModel};
use physio_sim::record::SynthProfile;
use physio_sim::subject::{bank, Subject};
use runtime::SurvivalRuntime;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::trainer::SiftModel;
use sift::zoo::train_backend_for_subject;
use source::Source;
use telemetry::{EventCode, GaugeId, Telemetry};

/// Wireless-link parameters for a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Packet-loss probability (independent Bernoulli loss; ignored
    /// when [`LinkParams::loss`] is set).
    pub loss_prob: f64,
    /// Base one-way delay, ms.
    pub base_delay_ms: u64,
    /// Uniform jitter bound, ms.
    pub jitter_ms: u64,
    /// Full loss-process override (e.g. Gilbert–Elliott burst loss);
    /// `None` means Bernoulli at `loss_prob`.
    pub loss: Option<LossModel>,
    /// Probability a delivered packet is duplicated by the radio MAC.
    pub dup_prob: f64,
    /// Probability a delivered packet takes the late (reordering) path.
    pub reorder_prob: f64,
    /// Extra delay of a reordered packet, ms.
    pub reorder_extra_ms: u64,
    /// Probability a delivered packet's payload is corrupted.
    pub corrupt_prob: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        Self {
            loss_prob: 0.0,
            base_delay_ms: 5,
            jitter_ms: 3,
            loss: None,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_extra_ms: 0,
            corrupt_prob: 0.0,
        }
    }
}

impl LinkParams {
    fn to_channel_config(self) -> ChannelConfig {
        ChannelConfig {
            loss: self
                .loss
                .unwrap_or(LossModel::Bernoulli { p: self.loss_prob }),
            base_delay_ms: self.base_delay_ms,
            jitter_ms: self.jitter_ms,
            dup_prob: self.dup_prob,
            reorder_prob: self.reorder_prob,
            reorder_extra_ms: self.reorder_extra_ms,
            corrupt_prob: self.corrupt_prob,
            ..ChannelConfig::default()
        }
    }
}

/// An attack to stage during the scenario.
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// What the adversary does.
    pub mode: AttackMode,
    /// Attack start, seconds into the session.
    pub start_s: f64,
    /// Attack end, seconds into the session.
    pub end_s: f64,
}

/// Reject an attack interval `[start_s, end_s)` the attacker cannot
/// run: a bound that is negative or not finite, an interval that is
/// empty once truncated to the whole milliseconds `Source::new` arms
/// the attacker with, or one that ends after `duration_s`.
pub(crate) fn check_attack_interval(
    start_s: f64,
    end_s: f64,
    duration_s: f64,
) -> Result<(), WiotError> {
    let finite_nonneg = start_s.is_finite() && end_s.is_finite() && start_s >= 0.0;
    let (start_ms, end_ms) = attack_window_ms(start_s, end_s);
    let nonempty = start_ms < end_ms;
    if finite_nonneg && nonempty && end_s <= duration_s {
        return Ok(());
    }
    Err(WiotError::InvalidScenario {
        reason: "attack interval must be non-empty and inside the session",
    })
}

/// The attack interval `[start_s, end_s)` on the device's ms clock.
pub(crate) fn attack_window_ms(start_s: f64, end_s: f64) -> (u64, u64) {
    ((start_s * 1000.0) as u64, (end_s * 1000.0) as u64)
}

/// Reject a session length that is not finite and positive: the
/// recordings behind it could never be synthesized.
pub(crate) fn check_duration(duration_s: f64) -> Result<(), WiotError> {
    if duration_s.is_finite() && duration_s > 0.0 {
        return Ok(());
    }
    Err(WiotError::InvalidScenario {
        reason: "session length must be finite and positive",
    })
}

/// A full scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Index of the wearer in the subject bank.
    pub victim: usize,
    /// Detector version deployed on the base station.
    pub version: Version,
    /// Detector backend family deployed on the base station
    /// ([`BackendKind::Svm`] reproduces the paper's pipeline exactly;
    /// other registered backends train from the same enrollment data).
    pub backend: BackendKind,
    /// Session length in seconds.
    pub duration_s: f64,
    /// Optional staged attack.
    pub attack: Option<AttackSpec>,
    /// Wireless link parameters.
    pub link: LinkParams,
    /// Timed environment faults injected during the session.
    pub faults: FaultPlan,
    /// ARQ on the sensor → base-station hop; `None` leaves the link
    /// unprotected.
    pub arq: Option<ArqConfig>,
    /// Salvage windows missing at most this many chunks (across both
    /// channels); `None` drops every incomplete window.
    pub salvage_max_missing: Option<usize>,
    /// Stream watchdog timeout, ms; `None` disables the watchdog.
    pub watchdog_timeout_ms: Option<u64>,
    /// Crash-consistent checkpointing of detector state to the simulated
    /// FRAM every tick, recovered after brownout reboots (default on).
    /// `false` keeps SRAM state alive across reboots and leaves torn
    /// writes and bit rot nothing to corrupt.
    pub persist: bool,
    /// Closed-loop survival policy (`wiot::survival`): battery- and
    /// channel-aware degradation of detector version, duty cycle and
    /// retry budget. `None` (the default) runs no policy layer at all.
    pub survival: Option<SurvivalConfig>,
    /// Pipeline/training configuration.
    pub config: SiftConfig,
    /// Sensor packet length in seconds (must divide the window).
    pub chunk_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Kernels synthesizing the live session record: the digest-pinned
    /// [`SynthProfile::Reference`] (default) or the faster
    /// [`SynthProfile::Turbo`]. Training always uses the reference.
    pub synth: SynthProfile,
}

impl Scenario {
    /// A baseline scenario for `victim` with sensible defaults and a
    /// shortened training phase (callers doing full Table II scale use
    /// [`SiftConfig::default`]).
    pub fn new(victim: usize, version: Version, duration_s: f64) -> Self {
        Self {
            victim,
            version,
            backend: BackendKind::Svm,
            duration_s,
            attack: None,
            link: LinkParams::default(),
            faults: FaultPlan::new(),
            arq: None,
            salvage_max_missing: None,
            watchdog_timeout_ms: None,
            persist: true,
            survival: None,
            config: SiftConfig {
                train_s: 60.0,
                max_positive_per_donor: Some(15),
                ..SiftConfig::default()
            },
            chunk_s: 0.5,
            seed: 0xC0FFEE,
            synth: SynthProfile::default(),
        }
    }

    /// The same scenario hardened for a hostile environment: ARQ on the
    /// links, one-chunk salvage, and a 3-window stream watchdog.
    #[must_use]
    pub fn with_reliability(mut self) -> Self {
        self.arq = Some(ArqConfig::default());
        self.salvage_max_missing = Some(1);
        self.watchdog_timeout_ms = Some((self.config.window_s * 3.0 * 1000.0) as u64);
        self
    }

    /// Enroll the wearer `subjects[victim]` for `version` in the
    /// scenario's backend family, from the scenario seed.
    fn enroll(&self, subjects: &[Subject], version: Version) -> Result<DetectorModel, WiotError> {
        Ok(train_backend_for_subject(
            subjects,
            self.victim,
            version,
            self.backend,
            &self.config,
            self.seed,
        )?)
    }

    /// Sensor packet length, ms.
    pub(crate) fn chunk_ms(&self) -> u64 {
        (self.chunk_s * 1000.0) as u64
    }

    /// Detection window length, ms.
    fn window_ms(&self) -> u64 {
        (self.config.window_s * 1000.0) as u64
    }
}

/// Construction options for a [`DeviceSim`] beyond the scenario itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceOptions<'a> {
    /// Pre-trained gold SVM model to deploy instead of training inline;
    /// its version must match the scenario's.
    pub model: Option<&'a SiftModel>,
    /// Pre-trained deployable model of the scenario's version and
    /// backend family (how the fleet engine deploys its model bank).
    /// Takes precedence over `model`.
    pub deployed: Option<&'a DetectorModel>,
    /// Enable the base station's feature uplink
    /// ([`BaseStation::with_feature_uplink`]) so the sink can re-score
    /// window batches with one batched call per device.
    pub feature_uplink: bool,
    /// Attach an enabled [`telemetry::Telemetry`] sink to the station's
    /// OS; [`SimReport::telemetry`] carries the final snapshot. Purely
    /// observational — a traced run is bit-identical to an untraced one.
    pub telemetry: bool,
    /// Wear this subject instead of `bank()[scenario.victim]`, as the
    /// campaign engine does for population cohorts. Requires an
    /// injected model, and is incompatible with the survival policy,
    /// whose hot-swap retraining reads the bank.
    pub subject: Option<&'a Subject>,
}

/// Where a [`DeviceSim`] is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sensors still producing chunks.
    Streaming,
    /// Sensors exhausted; in-flight packets and retransmissions drain.
    Draining,
    /// Flushed and watchdog-polled; only scoring remains.
    Finished,
}

/// One simulated device: a full sensors → attacker → faults →
/// channel/ARQ → base-station pipeline advanced one chunk tick at a
/// time.
///
/// [`run`] drives a single `DeviceSim` to completion; the fleet engine
/// (`crate::fleet`) owns many and steps each on a worker thread. All
/// state is owned (`Send`), so whole devices can migrate across
/// threads; determinism comes solely from the scenario seed.
pub struct DeviceSim {
    scenario: Scenario,
    source: Source,
    links: Links,
    station: BaseStation,
    persist: Option<Persistence>,
    survival: Option<SurvivalRuntime>,
    fault_summary: FaultSummary,
    /// Whether any link ran degraded on the previous tick (edge
    /// detection for the `FaultLinkDegrade` telemetry event).
    degraded_prev: bool,
    now_ms: u64,
    drain_ticks: u32,
    phase: Phase,
}

impl std::fmt::Debug for DeviceSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSim")
            .field("victim", &self.scenario.victim)
            .field("now_ms", &self.now_ms)
            .field("phase", &self.phase)
            .finish()
    }
}

/// The detector's stream position `(windows resolved, alerts raised)`
/// that every checkpoint commit records.
fn stream_position(station: &BaseStation) -> (u32, u32) {
    let s = station.stats();
    let windows = s.windows_emitted + s.windows_salvaged;
    (windows as u32, station.alerts().len() as u32)
}

impl DeviceSim {
    /// Build a device for `scenario`, training its model inline.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] for inconsistent
    /// parameters and propagates training and platform errors.
    pub fn new(scenario: &Scenario) -> Result<Self, WiotError> {
        Self::with_options(scenario, DeviceOptions::default())
    }

    /// Build a device with explicit [`DeviceOptions`] (model injection,
    /// feature uplink).
    ///
    /// # Errors
    ///
    /// As [`DeviceSim::new`]; additionally rejects an injected model
    /// whose detector version or backend does not match the scenario's.
    pub fn with_options(
        scenario: &Scenario,
        options: DeviceOptions<'_>,
    ) -> Result<Self, WiotError> {
        let invalid = |reason| Err(WiotError::InvalidScenario { reason });
        check_duration(scenario.duration_s)?;
        if let Some(a) = &scenario.attack {
            check_attack_interval(a.start_s, a.end_s, scenario.duration_s)?;
        }
        scenario.faults.validate(scenario.duration_s)?;

        // The injected model, if any: `deployed` takes precedence over
        // the gold `model`, and either must match the scenario's
        // version and backend.
        let mismatch = "injected model does not match the scenario's version and backend";
        let injected: Option<DetectorModel> = match (options.deployed, options.model) {
            (Some(d), _) => Some(d.clone()),
            (None, Some(m)) if m.version() != scenario.version => return invalid(mismatch),
            (None, Some(m)) => Some(m.embedded().clone().into()),
            (None, None) => None,
        };
        if let Some(d) = &injected {
            if d.kind() != scenario.backend || d.dim() != scenario.version.feature_count() {
                return invalid(mismatch);
            }
        }
        // The wearer and its detector. An override never touches the
        // legacy bank, which population-scale campaigns would otherwise
        // rebuild per device.
        let subjects;
        let (wearer, deployed) = match (options.subject, injected) {
            (Some(s), Some(d)) if scenario.survival.is_none() => (s, d),
            (Some(_), _) => {
                return invalid(
                    "a subject override needs an injected model and no survival policy",
                );
            }
            (None, injected) => {
                subjects = bank();
                let Some(wearer) = subjects.get(scenario.victim) else {
                    return invalid("victim index out of range");
                };
                let deployed = match injected {
                    Some(d) => d,
                    None => scenario.enroll(&subjects, scenario.version)?,
                };
                (wearer, deployed)
            }
        };

        let app = SiftApp::new(scenario.version, deployed.clone(), scenario.config.clone())?;
        let mut station = BaseStation::new(app, scenario.config.clone(), scenario.chunk_s)?;
        if let Some(max_missing) = scenario.salvage_max_missing {
            station = station.with_salvage(max_missing);
        }
        if let Some(timeout_ms) = scenario.watchdog_timeout_ms {
            station = station.with_watchdog(timeout_ms, false)?;
        }
        if options.feature_uplink {
            station = station.with_feature_uplink(scenario.version);
        }
        if options.telemetry {
            station.os_mut().attach_telemetry(Telemetry::enabled());
        }
        // The survival policy layer, if this scenario runs one. Built
        // before the first checkpoint commit so policy-enabled runs
        // persist the 16-byte survival suffix from generation 1 on.
        let survival = SurvivalRuntime::new(scenario, station.os().energy_model(), &deployed);

        // Crash-consistent checkpointing: charge the NVRAM region to the
        // station's FRAM map and seed generation 1 so even a reboot on
        // the very first tick has something to resume from.
        let mut persist = (scenario.persist)
            .then(|| Persistence::new(scenario.version, deployed))
            .transpose()?;
        if let Some(p) = persist.as_mut() {
            p.reserve(&mut station)?;
            if let Some(rt) = survival.as_ref() {
                p.enable_survival(rt.battery.policy().snapshot());
            }
            p.commit(0, 0)?;
        }

        Ok(Self {
            scenario: scenario.clone(),
            source: Source::new(scenario, wearer),
            links: Links::new(
                &scenario.link.to_channel_config(),
                [scenario.seed ^ 0xC41, scenario.seed ^ 0xC42],
                scenario.arq,
            )?,
            station,
            persist,
            survival,
            fault_summary: FaultSummary::default(),
            degraded_prev: false,
            now_ms: 0,
            drain_ticks: 0,
            phase: Phase::Streaming,
        })
    }

    /// Record a telemetry event stamped at the current tick.
    fn event(&mut self, code: EventCode, a: u64, b: u64) {
        let tele = self.station.os_mut().telemetry_mut();
        tele.event(self.now_ms, code, a, b);
    }

    /// Feed both links' arrivals to the station in delivery-time order.
    fn deliver_arrivals(&mut self) -> Result<(), WiotError> {
        for d in self.links.deliver(self.now_ms) {
            self.station.receive(d)?;
        }
        Ok(())
    }

    /// One streaming tick; `false` (consuming no tick) once both sensors
    /// are exhausted. Every RNG draw, digest and golden trace depends on
    /// the order of effects: polls, bit rot, reboots, torn commits,
    /// survival, link degrade, per stream (ECG first) duty gate →
    /// intercept → dropout → stuck → skew → send, deliver, watchdog,
    /// attacker feedback, commit, clock.
    fn step_stream(&mut self) -> Result<bool, WiotError> {
        let Some(packets) = self.source.poll() else {
            return Ok(false);
        };
        let chunk_ms = self.scenario.chunk_ms();
        let (prev_ms, now_ms) = (self.now_ms.saturating_sub(chunk_ms), self.now_ms);
        let plan = &self.scenario.faults;
        let reboots = plan.reboots_between(prev_ms, now_ms);
        let torn = plan.torn_checkpoints_between(prev_ms, now_ms);

        // NVRAM bit rot first (no reboot by itself — the corruption
        // waits in FRAM until the next restore detects and discards
        // it, or the next commit overwrites the slot).
        for (byte, bit) in plan.bitrot_between(prev_ms, now_ms) {
            if let Some(p) = self.persist.as_mut() {
                p.flip_bit(byte, bit);
                self.fault_summary.bitrot_flips += 1;
                self.event(EventCode::FaultBitRot, byte as u64, u64::from(bit));
            }
        }
        // Brownout reboots scheduled since the last tick.
        for _ in 0..reboots {
            self.power_cycle()?;
        }
        // Torn-commit power failures: the checkpoint write sequence is
        // cut after `cut` bytes, then the station power-cycles. Without
        // persistence there is no commit to tear, but the power still
        // fails.
        for cut in torn {
            if let Some(p) = self.persist.as_mut() {
                let (windows, alerts) = stream_position(&self.station);
                p.commit_torn(windows, alerts, cut)?;
                self.fault_summary.torn_commits += 1;
                self.event(EventCode::FaultTornCommit, cut as u64, 0);
            }
            self.power_cycle()?;
        }

        // Survival policy: drain the battery loop over this tick, then
        // run the 1 Hz control loop (no-op when disabled).
        if let Some(rt) = self.survival.as_mut() {
            rt.step(
                now_ms,
                &self.scenario,
                &mut self.links,
                &mut self.station,
                self.persist.as_mut(),
                &mut self.fault_summary,
            )?;
        }

        // Link-degradation episodes.
        let faults = &self.scenario.faults;
        let any_degraded = self
            .links
            .degrade([Stream::Ecg, Stream::Abp].map(|st| faults.degrade(st, now_ms).copied()))?;
        if any_degraded {
            self.fault_summary.degraded_link_ms += chunk_ms;
        }
        if any_degraded != self.degraded_prev {
            // Edge-triggered: one event per episode boundary, with the
            // gauge tracking the level in between.
            self.event(EventCode::FaultLinkDegrade, u64::from(any_degraded), 0);
            let tele = self.station.os_mut().telemetry_mut();
            tele.gauge_set(GaugeId::LinkDegraded, i64::from(any_degraded));
            self.degraded_prev = any_degraded;
        }

        // Offer each packet to its (possibly faulted) sensor and link,
        // unless the survival duty cycle suppresses its window.
        let window_idx = now_ms / self.scenario.window_ms();
        for p in packets.into_iter().flatten() {
            let summary = &mut self.fault_summary;
            if let Some(rt) = self.survival.as_mut() {
                if rt.skips(window_idx, summary) {
                    continue;
                }
            }
            let tele = self.station.os_mut().telemetry_mut();
            self.source
                .offer(p, now_ms, &self.scenario, summary, tele, &mut self.links);
        }

        self.deliver_arrivals()?;
        self.station.poll_watchdog(now_ms)?;
        self.source
            .pump_feedback(self.station.window_log(), self.scenario.window_ms());

        // Commit the detector's stream position every tick: whatever
        // the next brownout destroys, at most one tick of progress is
        // lost and the enrolled model never is. With the survival
        // policy on, its decision state rides along as a fixed suffix,
        // so a reboot resumes the same degradation posture.
        if let Some(p) = self.persist.as_mut() {
            if let Some(rt) = self.survival.as_ref() {
                p.set_survival(rt.battery.policy().snapshot());
            }
            let (windows, alerts) = stream_position(&self.station);
            p.commit(windows, alerts)?;
        }

        self.now_ms += chunk_ms;
        self.station.advance_time(chunk_ms);
        Ok(true)
    }

    /// A brownout power cycle: the station loses its SRAM-resident
    /// window-assembly state, and (with persistence on) the detector is
    /// rebuilt from the newest valid FRAM checkpoint — rolling back to
    /// the previous generation when the newest slot is torn or rotted,
    /// never resuming from corrupt bytes. With the survival policy on,
    /// the checkpoint's policy suffix resyncs the policy and the
    /// link-side retry posture is re-actuated (the duty gate reads
    /// policy state directly; a cross-version checkpoint was already
    /// hot-swapped by the recovery itself).
    fn power_cycle(&mut self) -> Result<(), WiotError> {
        self.station.reboot();
        self.fault_summary.reboots += 1;
        // The sink lives in the OS, not the rebooted app state, so it
        // survives the power cycle and can witness it.
        self.event(EventCode::FaultReboot, self.fault_summary.reboots, 0);
        let Some(p) = self.persist.as_mut() else {
            return Ok(());
        };
        if !p.recover(
            &mut self.station,
            &self.scenario.config,
            &mut self.fault_summary,
        )? {
            return Ok(());
        }
        if let (Some(rt), Some(snap)) = (self.survival.as_mut(), p.survival()) {
            rt.battery.policy_mut().restore(snap);
            rt.apply_retry(&mut self.links);
        }
        Ok(())
    }

    /// Advance the device by one chunk tick. Returns `true` while the
    /// session is still in progress, `false` once it has fully finished
    /// (sensors exhausted, links drained, station flushed).
    ///
    /// # Errors
    ///
    /// Propagates platform errors (e.g. battery exhaustion, strict
    /// watchdog stalls).
    pub fn step(&mut self) -> Result<bool, WiotError> {
        if self.phase == Phase::Streaming && !self.step_stream()? {
            self.phase = Phase::Draining;
        }
        if self.phase == Phase::Draining {
            // In-flight packets and pending retransmissions may still
            // complete windows after the sensors stop, until the links
            // are idle or the drain budget is spent.
            if self.links.idle() || self.drain_ticks >= 1_000 {
                self.station.flush()?;
                self.station.poll_watchdog(self.now_ms)?;
                self.phase = Phase::Finished;
            } else {
                let chunk_ms = self.scenario.chunk_ms();
                self.now_ms += chunk_ms;
                self.station.advance_time(chunk_ms);
                self.deliver_arrivals()?;
                self.drain_ticks += 1;
            }
        }
        Ok(self.phase != Phase::Finished)
    }

    /// Drive the device until [`DeviceSim::step`] reports completion.
    ///
    /// # Errors
    ///
    /// As [`DeviceSim::step`].
    pub fn run_to_completion(&mut self) -> Result<(), WiotError> {
        while self.step()? {}
        Ok(())
    }

    /// Simulated device clock, ms.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Everything the fault plan has done so far (including checkpoint
    /// recovery counters).
    pub fn fault_summary(&self) -> FaultSummary {
        self.fault_summary
    }

    /// The device's base station (window log, stats, OS meters).
    pub fn station(&self) -> &BaseStation {
        &self.station
    }

    /// Per-window outcomes `(window index, outcome)` in window order —
    /// the verdict sequence golden traces pin.
    pub fn window_log(&self) -> &std::collections::VecDeque<(usize, WindowOutcome)> {
        self.station.window_log()
    }

    /// Drain the station's feature-uplink queue (empty unless
    /// [`DeviceOptions::feature_uplink`] was set).
    pub fn take_uplinked_features(&mut self) -> Vec<(usize, Vec<f32>)> {
        self.station.take_uplinked_features()
    }

    /// Finish the session (if still running) and score it into a
    /// [`SimReport`].
    ///
    /// # Errors
    ///
    /// As [`DeviceSim::step`].
    pub fn into_report(mut self) -> Result<SimReport, WiotError> {
        self.run_to_completion()?;
        let survival = self.survival.take().map(SurvivalRuntime::into_report);
        let mut report = SimReport::assemble(&self, survival);
        let tele = std::mem::take(self.station.os_mut().telemetry_mut());
        report.flush_telemetry(tele, &self.station, self.scenario.window_ms());
        Ok(report)
    }
}

/// Run `scenario` to completion on a single device.
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for inconsistent parameters
/// and propagates training and platform errors.
pub fn run(scenario: &Scenario) -> Result<SimReport, WiotError> {
    DeviceSim::new(scenario)?.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::AttackClass;
    use crate::faults::{FaultEvent, FaultKind};
    use crate::survival::SurvivalAction;
    use physio_sim::record::Record;

    #[test]
    fn quiet_session_has_few_false_alerts() {
        let s = Scenario::new(0, Version::Simplified, 60.0);
        let r = run(&s).unwrap();
        assert!(r.confusion.fp + r.confusion.tn == 20);
        let fp_rate = r.confusion.false_positive_rate().unwrap();
        assert!(fp_rate < 0.3, "fp rate {fp_rate}");
        assert!(r.detection_latency_ms.is_none());
        assert!(r.battery_left > 0.99);
        assert!(r.transport.is_none());
        assert_eq!(r.salvaged_windows, 0);
        assert!((r.window_recovery_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn substitution_attack_is_detected() {
        let donor = Record::synthesize(&bank()[5], 60.0, 4242);
        let mut s = Scenario::new(0, Version::Simplified, 60.0);
        s.attack = Some(AttackSpec {
            mode: AttackMode::new(AttackClass::Substitution, Some((&donor).into()), 0),
            start_s: 21.0,
            end_s: 45.0,
        });
        let r = run(&s).unwrap();
        assert!(r.confusion.tp + r.confusion.fn_ >= 7, "{:?}", r.confusion);
        let fn_rate = r.confusion.false_negative_rate().unwrap();
        assert!(fn_rate < 0.4, "fn rate {fn_rate}");
        let latency = r.detection_latency_ms.expect("attack should be seen");
        assert!(latency <= 9_000, "latency {latency} ms");
        assert!(!r.sink.alerts().is_empty());
    }

    #[test]
    fn freeze_attack_triggers_degenerate_alerts() {
        let mut s = Scenario::new(1, Version::Simplified, 30.0);
        s.attack = Some(AttackSpec {
            mode: AttackMode::new(AttackClass::Freeze, None, 0),
            start_s: 9.0,
            end_s: 21.0,
        });
        let r = run(&s).unwrap();
        assert!(
            r.confusion.tp >= 3,
            "freeze should be flagged: {:?}",
            r.confusion
        );
    }

    #[test]
    fn lossy_link_degrades_gracefully() {
        let mut s = Scenario::new(0, Version::Reduced, 60.0);
        s.link.loss_prob = 0.08;
        let r = run(&s).unwrap();
        assert!(r.dropped_windows > 0);
        assert!(r.channel_loss_rate > 0.02);
        // Still scores the windows that survived.
        assert!(r.confusion.total() > 0);
        assert!(r.window_recovery_rate < 1.0);
    }

    #[test]
    fn arq_recovers_what_the_raw_link_loses() {
        let mut s = Scenario::new(0, Version::Reduced, 60.0);
        s.link.loss_prob = 0.08;
        let raw = run(&s).unwrap();
        s.arq = Some(ArqConfig::default());
        let arq = run(&s).unwrap();
        let t = arq.transport.expect("ARQ was on");
        assert!(t.retransmits > 0, "{t:?}");
        assert!(
            arq.window_recovery_rate > raw.window_recovery_rate,
            "arq {} vs raw {}",
            arq.window_recovery_rate,
            raw.window_recovery_rate
        );
    }

    #[test]
    fn fault_plan_counters_reach_the_report() {
        let mut s = Scenario::new(0, Version::Reduced, 60.0);
        s.faults = FaultPlan::new()
            .with(FaultEvent {
                start_s: 10.0,
                end_s: 15.0,
                kind: FaultKind::SensorDropout {
                    stream: Stream::Abp,
                },
            })
            .with(FaultEvent {
                start_s: 20.0,
                end_s: 25.0,
                kind: FaultKind::SensorStuck {
                    stream: Stream::Ecg,
                },
            })
            .with(FaultEvent {
                start_s: 30.0,
                end_s: 30.0,
                kind: FaultKind::DeviceReboot,
            })
            .with(FaultEvent {
                start_s: 40.0,
                end_s: 50.0,
                kind: FaultKind::LinkDegrade {
                    stream: None,
                    loss: LossModel::Bernoulli { p: 0.8 },
                },
            });
        let r = run(&s).unwrap();
        assert_eq!(r.faults.dropout_chunks, 10, "{:?}", r.faults);
        assert_eq!(r.faults.stuck_chunks, 10, "{:?}", r.faults);
        assert_eq!(r.faults.reboots, 1);
        assert!(r.faults.degraded_link_ms >= 9_000, "{:?}", r.faults);
        assert!(r.dropped_windows > 0, "degrade episode should cost windows");
    }

    #[test]
    fn checkpoint_recovery_survives_reboots_torn_commits_and_bit_rot() {
        let payload = sift::checkpoint::encoded_len(Version::Simplified);
        let seq = amulet_sim::nvram::CheckpointStore::commit_sequence_len(payload);
        let mut s = Scenario::new(0, Version::Simplified, 30.0);
        s.faults = FaultPlan::new()
            .with(FaultEvent {
                start_s: 9.3,
                end_s: 9.3,
                kind: FaultKind::DeviceReboot,
            })
            .with(FaultEvent {
                start_s: 15.2,
                end_s: 15.2,
                // Mid-header cut: past the payload, before the final
                // magic — the classic detectable torn write.
                kind: FaultKind::TornCheckpoint { cut_bytes: seq - 6 },
            })
            // Bit rot then a reboot in the same tick window: the
            // corrupted slot must be detected and rolled back, never
            // resumed from.
            .with(FaultEvent {
                start_s: 20.6,
                end_s: 20.6,
                kind: FaultKind::CheckpointBitRot { byte: 40, bit: 2 },
            })
            .with(FaultEvent {
                start_s: 20.7,
                end_s: 20.7,
                kind: FaultKind::DeviceReboot,
            });
        let r = run(&s).unwrap();
        assert_eq!(r.faults.reboots, 3, "{:?}", r.faults);
        assert_eq!(r.faults.torn_commits, 1);
        assert_eq!(r.faults.bitrot_flips, 1);
        assert_eq!(r.faults.recoveries, 3, "{:?}", r.faults);
        assert_eq!(r.faults.recovery_failures, 0, "{:?}", r.faults);
        assert!(r.faults.rollbacks >= 1, "{:?}", r.faults);
        // Detection kept working across all three power cycles.
        assert!(r.confusion.total() > 0);
    }

    #[test]
    fn no_persist_reboots_without_recovery() {
        let mut s = Scenario::new(0, Version::Simplified, 30.0);
        s.persist = false;
        s.faults = FaultPlan::new().with(FaultEvent {
            start_s: 9.3,
            end_s: 9.3,
            kind: FaultKind::DeviceReboot,
        });
        let r = run(&s).unwrap();
        assert_eq!(r.faults.reboots, 1);
        assert_eq!(r.faults.recoveries, 0);
        assert_eq!(r.faults.torn_commits, 0);
    }

    #[test]
    fn persistence_is_behaviorally_invisible_without_faults() {
        // The checkpoint engine must not perturb detection: same seed,
        // persist on vs off, identical verdict sequence and battery.
        let mut s = Scenario::new(2, Version::Reduced, 30.0);
        let with = run(&s).unwrap();
        s.persist = false;
        let without = run(&s).unwrap();
        assert_eq!(with.confusion, without.confusion);
        assert_eq!(with.dropped_windows, without.dropped_windows);
        assert_eq!(
            with.battery_left.to_bits(),
            without.battery_left.to_bits(),
            "commits must charge no energy"
        );
    }

    #[test]
    fn invalid_scenarios_rejected() {
        let mut s = Scenario::new(99, Version::Original, 10.0);
        assert!(run(&s).is_err());
        for duration_s in [f64::NAN, f64::INFINITY, 0.0, -5.0] {
            s = Scenario::new(0, Version::Original, duration_s);
            assert!(
                matches!(DeviceSim::new(&s), Err(WiotError::InvalidScenario { .. })),
                "{duration_s} s session accepted"
            );
        }
        // Reversed, NaN-bounded, and shorter than the attacker's 1 ms
        // resolution: a typed error before the attacker is armed.
        for (start_s, end_s) in [(5.0, 3.0), (8.0, f64::NAN), (8.0, 8.0004), (f64::NAN, 16.0)] {
            s = Scenario::new(0, Version::Original, 24.0);
            s.attack = Some(AttackSpec {
                mode: AttackMode::new(AttackClass::Freeze, None, 0),
                start_s,
                end_s,
            });
            assert!(
                matches!(DeviceSim::new(&s), Err(WiotError::InvalidScenario { .. })),
                "[{start_s}, {end_s}) accepted"
            );
        }
        for (start_s, end_s) in [(-1.0, 16.0), (8.0, f64::INFINITY), (8.0, 24.5)] {
            assert!(check_attack_interval(start_s, end_s, 24.0).is_err());
        }
        assert!(check_attack_interval(8.0, 8.01, 24.0).is_ok());
        assert!(check_attack_interval(0.0, 24.0, 24.0).is_ok());
        s = Scenario::new(0, Version::Original, 10.0);
        s.faults = FaultPlan::new().with(FaultEvent {
            start_s: 50.0,
            end_s: 60.0,
            kind: FaultKind::DeviceReboot,
        });
        assert!(run(&s).is_err(), "fault outside the session");
    }

    #[test]
    fn telemetry_is_behaviorally_invisible_and_captures_the_session() {
        // Same seed, sink on vs off: identical verdicts, identical
        // battery bits — and the traced run's events agree with the
        // report's own numbers.
        let mut s = Scenario::new(0, Version::Reduced, 30.0);
        s.link.loss_prob = 0.08;
        s.faults = FaultPlan::new().with(FaultEvent {
            start_s: 9.3,
            end_s: 9.3,
            kind: FaultKind::DeviceReboot,
        });
        let plain = run(&s).unwrap();
        let traced = DeviceSim::with_options(
            &s,
            DeviceOptions {
                telemetry: true,
                ..DeviceOptions::default()
            },
        )
        .unwrap()
        .into_report()
        .unwrap();
        assert_eq!(plain.confusion, traced.confusion);
        assert_eq!(plain.dropped_windows, traced.dropped_windows);
        assert_eq!(
            plain.battery_left.to_bits(),
            traced.battery_left.to_bits(),
            "telemetry must charge no energy"
        );
        assert!(plain.telemetry.is_none());
        let report = traced.telemetry.expect("sink was enabled");
        let count = |code| report.events.iter().filter(|e| e.code == code).count();
        assert_eq!(count(EventCode::FaultReboot) as u64, traced.faults.reboots);
        assert_eq!(count(EventCode::WindowDropped), traced.dropped_windows);
        assert!(count(EventCode::WindowEmitted) > 0);
    }

    #[test]
    fn telemetry_records_every_fault_window_and_stall_of_a_hostile_session() {
        // ARQ over a lossy link, a reboot, a torn commit, bit rot, a
        // dropout and a stuck episode: each fault leaves an event at the
        // tick it fired, the flush leaves one event per window outcome
        // and stall alert, and the battery gauge reads the report's.
        let payload = sift::checkpoint::encoded_len(Version::Simplified);
        let seq = amulet_sim::nvram::CheckpointStore::commit_sequence_len(payload);
        let mut s = Scenario::new(0, Version::Simplified, 30.0).with_reliability();
        s.link.loss_prob = 0.15;
        s.link.dup_prob = 0.05;
        s.link.reorder_prob = 0.05;
        s.link.reorder_extra_ms = 40;
        s.link.corrupt_prob = 0.02;
        s.faults = FaultPlan::new()
            .with(FaultEvent {
                start_s: 3.0,
                end_s: 13.0,
                kind: FaultKind::SensorDropout {
                    stream: Stream::Abp,
                },
            })
            .with(FaultEvent {
                start_s: 9.3,
                end_s: 9.3,
                kind: FaultKind::DeviceReboot,
            })
            .with(FaultEvent {
                start_s: 15.2,
                end_s: 15.2,
                kind: FaultKind::TornCheckpoint { cut_bytes: seq - 6 },
            })
            .with(FaultEvent {
                start_s: 18.0,
                end_s: 20.0,
                kind: FaultKind::SensorStuck {
                    stream: Stream::Ecg,
                },
            })
            .with(FaultEvent {
                start_s: 20.6,
                end_s: 20.6,
                kind: FaultKind::CheckpointBitRot { byte: 40, bit: 2 },
            });
        let mut sim = DeviceSim::with_options(
            &s,
            DeviceOptions {
                telemetry: true,
                ..DeviceOptions::default()
            },
        )
        .unwrap();
        sim.run_to_completion().unwrap();
        let log = sim.window_log().clone();
        let r = sim.into_report().unwrap();
        let tele = r.telemetry.as_ref().expect("sink was enabled");
        assert_eq!(tele.events_dropped, 0, "the ring held the whole session");

        // The session really was hostile.
        let t = r.transport.expect("ARQ was on");
        assert!(t.retransmits > 0, "{t:?}");
        assert!(r.channel.lost > 0, "{:?}", r.channel);
        assert_eq!(r.faults.reboots, 2, "{:?}", r.faults);
        assert_eq!(r.faults.torn_commits, 1);
        assert_eq!(r.faults.bitrot_flips, 1);
        assert!(r.faults.dropout_chunks > 0 && r.faults.stuck_chunks > 0);
        assert!(r.stall_alerts > 0, "the 10 s dropout outlasts the watchdog");

        // Each fault event at its tick: the first tick at or after the
        // scheduled instant. Episodes fire once per chunk tick inside
        // `[start, end)`, on their stream (ECG 0, ABP 1).
        let chunk_ms = s.chunk_ms();
        let tick = |at_ms: u64| at_ms.div_ceil(chunk_ms) * chunk_ms;
        let episode = |from_ms: u64, to_ms: u64, stream: u64| -> Vec<(u64, u64, u64)> {
            (tick(from_ms)..to_ms).step_by(chunk_ms as usize).map(|t| (t, stream, 0)).collect()
        };
        let events = |code| -> Vec<(u64, u64, u64)> {
            tele.events
                .iter()
                .filter(|e| e.code == code)
                .map(|e| (e.t_ms, e.a, e.b))
                .collect()
        };
        let torn_ms = tick(15_200);
        assert_eq!(
            events(EventCode::FaultReboot),
            [(tick(9_300), 1, 0), (torn_ms, 2, 0)]
        );
        assert_eq!(events(EventCode::FaultTornCommit), [(torn_ms, seq as u64 - 6, 0)]);
        assert_eq!(events(EventCode::FaultBitRot), [(tick(20_600), 40, 2)]);
        assert_eq!(events(EventCode::FaultDropout), episode(3_000, 13_000, 1));
        assert_eq!(events(EventCode::FaultStuck), episode(18_000, 20_000, 0));
        assert_eq!(events(EventCode::FaultDropout).len() as u64, r.faults.dropout_chunks);
        assert_eq!(events(EventCode::FaultStuck).len() as u64, r.faults.stuck_chunks);

        // One window event per window-log entry, in log order, with its
        // outcome and alert bit.
        let window_ms = s.window_ms();
        let expected: Vec<(u64, EventCode, u64, u64)> = log
            .iter()
            .map(|&(idx, outcome)| {
                let (code, alerted) = match outcome {
                    WindowOutcome::Dropped => (EventCode::WindowDropped, false),
                    WindowOutcome::Emitted { alerted } => (EventCode::WindowEmitted, alerted),
                    WindowOutcome::Salvaged { alerted } => (EventCode::WindowSalvaged, alerted),
                };
                (idx as u64 * window_ms, code, idx as u64, u64::from(alerted))
            })
            .collect();
        let windows: Vec<(u64, EventCode, u64, u64)> = tele
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.code,
                    EventCode::WindowEmitted | EventCode::WindowSalvaged | EventCode::WindowDropped
                )
            })
            .map(|e| (e.t_ms, e.code, e.a, e.b))
            .collect();
        assert_eq!(windows, expected);
        assert_eq!(events(EventCode::WindowDropped).len(), r.dropped_windows);
        assert_eq!(events(EventCode::WindowSalvaged).len(), r.salvaged_windows);

        // One stall event per watchdog alert, at the alert's instant;
        // with the alerted windows they are every archived alert.
        let stalls: Vec<(u64, u64, u64)> = r
            .sink
            .alerts()
            .iter()
            .filter(|a| a.app == "watchdog")
            .map(|a| (a.at_ms, 0, 0))
            .collect();
        assert_eq!(stalls.len(), r.stall_alerts);
        assert_eq!(events(EventCode::StallAlert), stalls);
        let alerted = windows.iter().filter(|w| w.3 == 1).count();
        assert_eq!(alerted + r.stall_alerts, r.sink.alerts().len());
        assert_eq!(
            tele.gauge(GaugeId::BatteryPermille),
            (r.battery_left * 1000.0) as i64
        );
    }

    #[test]
    fn deterministic_runs() {
        let s = Scenario::new(2, Version::Reduced, 30.0);
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert_eq!(a.confusion, b.confusion);
        assert_eq!(a.dropped_windows, b.dropped_windows);
    }

    #[test]
    fn quiescent_survival_policy_is_behaviorally_invisible() {
        // At full battery on a clean link the policy never actuates, so
        // a policy-enabled run must be bit-identical to a policy-off
        // run: same verdicts, same battery bits.
        let mut s = Scenario::new(2, Version::Reduced, 30.0);
        let off = run(&s).unwrap();
        s.survival = Some(SurvivalConfig::default());
        let on = run(&s).unwrap();
        assert_eq!(off.confusion, on.confusion);
        assert_eq!(off.dropped_windows, on.dropped_windows);
        assert_eq!(
            off.battery_left.to_bits(),
            on.battery_left.to_bits(),
            "a quiescent policy must charge no energy"
        );
        let sr = on.survival.expect("policy was on");
        assert!(sr.actions.is_empty(), "{:?}", sr.actions);
        assert_eq!(sr.version_switches, 0);
        assert_eq!(sr.final_version, Version::Reduced);
        assert_eq!(on.faults.duty_skipped_chunks, 0);
        // 30 s of real-time drain truncates at most one permille.
        assert!(sr.final_soc_permille >= 999);
        assert!(off.survival.is_none());
    }

    #[test]
    fn survival_policy_degrades_down_the_ladder_under_accelerated_drain() {
        // Scale the modeled drain so a 60 s session traverses the whole
        // discharge curve: the policy must walk Original → Simplified →
        // Reduced, thin the duty cycle, tighten the retry budget, and
        // stamp the battery cutoff.
        let mut s = Scenario::new(0, Version::Original, 60.0).with_reliability();
        s.survival = Some(SurvivalConfig {
            min_dwell_ticks: 5,
            drain_scale: 60_000,
        });
        let r = run(&s).unwrap();
        let sr = r.survival.expect("policy was on");
        assert!(sr.version_switches >= 2, "{:?}", sr.actions);
        assert_eq!(sr.final_version, Version::Reduced);
        assert!(r.faults.duty_skipped_chunks > 0);
        assert!(sr.retry_reconfigs >= 1);
        assert!(r.faults.low_battery_ticks > 0);
        assert!(sr.cutoff_at_ms.is_some(), "soc {} ‰", sr.final_soc_permille);
        // Time was spent in every rung of the ladder.
        assert!(
            sr.occupancy_ticks.iter().all(|&t| t > 0),
            "{:?}",
            sr.occupancy_ticks
        );
        // Detection kept working right through both reflashes.
        assert!(r.confusion.total() > 0);
    }

    #[test]
    fn survival_policy_survives_brownouts_and_stays_deterministic() {
        // Brownout reboots mid-degradation: the policy state must come
        // back from the FRAM checkpoint (not reset to full power), and
        // the whole faulted run must replay byte-identically.
        let mut s = Scenario::new(1, Version::Original, 60.0).with_reliability();
        s.survival = Some(SurvivalConfig {
            min_dwell_ticks: 5,
            drain_scale: 60_000,
        });
        s.faults = FaultPlan::new()
            .with(FaultEvent {
                start_s: 21.3,
                end_s: 21.3,
                kind: FaultKind::DeviceReboot,
            })
            .with(FaultEvent {
                start_s: 40.6,
                end_s: 40.6,
                kind: FaultKind::DeviceReboot,
            });
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert_eq!(a.faults.reboots, 2);
        assert_eq!(a.faults.recoveries, 2, "{:?}", a.faults);
        assert_eq!(a.faults.recovery_failures, 0, "{:?}", a.faults);
        let sa = a.survival.as_ref().expect("policy was on");
        let sb = b.survival.as_ref().expect("policy was on");
        assert_eq!(sa, sb, "policy decisions must replay identically");
        assert_eq!(a.confusion, b.confusion);
        // Degradation was not undone by the reboots.
        assert_eq!(sa.final_version, Version::Reduced);
        assert!(sa.version_switches >= 2);
    }

    #[test]
    fn survival_telemetry_events_capture_every_actuation() {
        let mut s = Scenario::new(0, Version::Original, 60.0).with_reliability();
        s.survival = Some(SurvivalConfig {
            min_dwell_ticks: 5,
            drain_scale: 60_000,
        });
        let traced = DeviceSim::with_options(
            &s,
            DeviceOptions {
                telemetry: true,
                ..DeviceOptions::default()
            },
        )
        .unwrap()
        .into_report()
        .unwrap();
        let sr = traced.survival.as_ref().expect("policy was on");
        let tele = traced.telemetry.as_ref().expect("sink was on");
        assert_eq!(tele.events_dropped, 0, "the ring held the whole session");
        // Every actuation, in decision order, left an event at its
        // policy tick (tick 1 is the step at 0 ms), carrying its knob
        // (0 version, 1 duty, 2 retry) and packed setting.
        let pack = |hi: u8, lo: u8| (u64::from(hi) << 8) | u64::from(lo);
        let expected: Vec<(u64, u64, u64)> = sr
            .actions
            .iter()
            .map(|&action| match action {
                SurvivalAction::SetVersion { at_tick, to, .. } => (at_tick, 0, to.index() as u64),
                SurvivalAction::SetDuty { at_tick, skip, of } => (at_tick, 1, pack(skip, of)),
                SurvivalAction::SetRetry {
                    at_tick,
                    max_retries,
                    backoff_extra_shift,
                } => (at_tick, 2, pack(max_retries, backoff_extra_shift)),
            })
            .map(|(at_tick, kind, arg)| ((u64::from(at_tick) - 1) * 1000, kind, arg))
            .collect();
        let actuations: Vec<(u64, u64, u64)> = tele
            .events
            .iter()
            .filter(|e| e.code == EventCode::SurvivalAction)
            .map(|e| (e.t_ms, e.a, e.b))
            .collect();
        assert!(sr.version_switches >= 2 && sr.retry_reconfigs >= 1, "{:?}", sr.actions);
        assert_eq!(actuations, expected);
    }
}
