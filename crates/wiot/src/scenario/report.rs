//! Session reports: [`SimReport`] and [`SurvivalReport`], the scoring
//! of the window log against the attack span, and the end-of-session
//! telemetry flush, which records what the report does not hold: the
//! timestamped window and stall events and the battery gauge.

use super::DeviceSim;
use crate::basestation::BaseStation;
use crate::basestation::WindowOutcome::{Dropped, Emitted, Salvaged};
use crate::channel::ChannelStats;
use crate::faults::FaultSummary;
use crate::sink::Sink;
use crate::survival::SurvivalAction;
use crate::transport::TransportStats;
use ml::metrics::ConfusionMatrix;
use ml::Label;
use sift::features::Version;
use telemetry::{EventCode, GaugeId, Telemetry, TelemetryReport};

/// Result of running a scenario.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Window-level confusion matrix (truth: ≥ 50 % of the window inside
    /// the attack interval ⇒ altered; 0 % ⇒ genuine).
    pub confusion: ConfusionMatrix,
    /// Windows excluded from scoring because the attack covered only
    /// part of them.
    pub ambiguous_windows: usize,
    /// Windows dropped by the base station (lost packets).
    pub dropped_windows: usize,
    /// Windows repaired by zero-order-hold salvage and dispatched
    /// flagged degraded.
    pub salvaged_windows: usize,
    /// Fraction of the session's expected detection windows that
    /// reached the detector (emitted or salvaged).
    pub window_recovery_rate: f64,
    /// Latency from attack start to the first alert on an attacked
    /// window, ms (None when no attack or never detected).
    pub detection_latency_ms: Option<u64>,
    /// Observed channel loss rate (mean of both links).
    pub channel_loss_rate: f64,
    /// Channel traffic counters, summed over both links.
    pub channel: ChannelStats,
    /// ARQ counters, summed over both links (`None` when ARQ was off).
    pub transport: Option<TransportStats>,
    /// Everything the fault plan actually did.
    pub faults: FaultSummary,
    /// Stream-stalled alerts the watchdog raised.
    pub stall_alerts: usize,
    /// Battery fraction remaining at the end of the session.
    pub battery_left: f64,
    /// Final telemetry snapshot: gauges, per-stage span statistics and
    /// the event ring. `None` unless [`DeviceOptions::telemetry`](super::DeviceOptions::telemetry)
    /// enabled the sink — and never an input to anything above.
    pub telemetry: Option<TelemetryReport>,
    /// What the survival policy did (`None` when [`Scenario::survival`](super::Scenario::survival)
    /// was off).
    pub survival: Option<SurvivalReport>,
    /// The sink with the archived alerts.
    pub sink: Sink,
}

/// Everything the survival policy did over one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalReport {
    /// Every actuation, in decision order (tick-stamped).
    pub actions: Vec<SurvivalAction>,
    /// Detector version switches performed (reflash count).
    pub version_switches: u64,
    /// Times the transport retry posture was reconfigured.
    pub retry_reconfigs: u64,
    /// Detector version in force when the session ended.
    pub final_version: Version,
    /// Modeled battery state of charge at session end, permille.
    pub final_soc_permille: u16,
    /// First simulated instant the modeled battery crossed the
    /// configured cutoff, ms (`None` if it never did).
    pub cutoff_at_ms: Option<u64>,
    /// Policy ticks spent in each version, indexed
    /// `[Original, Simplified, Reduced]`.
    pub occupancy_ticks: [u64; 3],
}

impl SimReport {
    /// Score a finished session's window log against the attack span
    /// (truth: ≥ 50 % of the window attacked ⇒ altered, 0 % ⇒ genuine)
    /// and collect its link, stall and battery figures.
    pub(super) fn assemble(sim: &DeviceSim, survival: Option<SurvivalReport>) -> Self {
        let (scenario, station) = (&sim.scenario, &sim.station);
        let window_ms = scenario.window_ms();
        let attack_span = sim.source.attack_span();
        let attack_class = scenario.attack.as_ref().map(|a| a.mode.class().index());
        let mut faults = sim.fault_summary;
        let mut confusion = ConfusionMatrix::default();
        let mut ambiguous = 0usize;
        let mut dropped = 0usize;
        let mut latency: Option<u64> = None;
        let label = |positive| [Label::Negative, Label::Positive][usize::from(positive)];
        for &(idx, outcome) in station.window_log() {
            let (Emitted { alerted } | Salvaged { alerted }) = outcome else {
                dropped += 1;
                continue;
            };
            let w_start = idx as u64 * window_ms;
            let w_end = w_start + window_ms;
            let overlap = attack_span.map_or(0.0, |(a0, a1)| {
                w_end.min(a1).saturating_sub(w_start.max(a0)) as f64 / window_ms as f64
            });
            if overlap > 0.0 && overlap < 0.5 {
                ambiguous += 1;
            } else {
                let truth = label(overlap > 0.0);
                confusion.record(truth, label(alerted));
                // Per-attack-class hit/miss ledger for the campaign
                // engine (outside the frozen digest).
                if let (Label::Positive, Some(ci)) = (truth, attack_class) {
                    let ledger = if alerted {
                        &mut faults.attack_windows_tp
                    } else {
                        &mut faults.attack_windows_fn
                    };
                    ledger[ci] += 1;
                }
            }
            if alerted && overlap > 0.0 && latency.is_none() {
                latency = attack_span.map(|(a0, _)| w_end.saturating_sub(a0));
            }
        }

        let mut sink = Sink::new();
        sink.archive_alerts(station.alerts());
        let stats = station.stats();
        let expected_windows = (scenario.duration_s / scenario.config.window_s)
            .floor()
            .max(1.0);
        let recovered = stats.windows_emitted + stats.windows_salvaged;
        let os = station.os();
        Self {
            confusion,
            ambiguous_windows: ambiguous,
            dropped_windows: dropped,
            salvaged_windows: stats.windows_salvaged as usize,
            window_recovery_rate: recovered as f64 / expected_windows,
            detection_latency_ms: latency,
            channel_loss_rate: sim.links.loss_rate(),
            channel: sim.links.channel_stats(),
            transport: sim.links.transport_stats(),
            faults,
            stall_alerts: stall_alerts(station).count(),
            battery_left: os.meter().battery_fraction_left(os.energy_model()),
            telemetry: None,
            survival,
            sink,
        }
    }

    /// Flush the session into `tele` and keep its snapshot in
    /// [`SimReport::telemetry`]: an event per window outcome (`b` = the
    /// alert bit) and per stall alert, then the battery gauge. The
    /// session's counts live in this report alone.
    pub(super) fn flush_telemetry(
        &mut self,
        mut tele: Telemetry,
        station: &BaseStation,
        window_ms: u64,
    ) {
        if !tele.is_enabled() {
            return;
        }
        for &(idx, outcome) in station.window_log() {
            let (code, alerted) = match outcome {
                Dropped => (EventCode::WindowDropped, false),
                Emitted { alerted } => (EventCode::WindowEmitted, alerted),
                Salvaged { alerted } => (EventCode::WindowSalvaged, alerted),
            };
            tele.event(idx as u64 * window_ms, code, idx as u64, u64::from(alerted));
        }
        for alert in stall_alerts(station) {
            tele.event(alert.at_ms, EventCode::StallAlert, 0, 0);
        }
        tele.gauge_set(
            GaugeId::BatteryPermille,
            (self.battery_left * 1000.0) as i64,
        );
        self.telemetry = tele.report();
    }
}

/// The watchdog's stream-stalled alerts, in the order they fired.
fn stall_alerts(station: &BaseStation) -> impl Iterator<Item = &amulet_sim::machine::Alert> {
    station.alerts().iter().filter(|a| a.app == "watchdog")
}
