//! The sensor side of a session: the ECG/ABP pair streaming the live
//! record, the attacker's intercept and its alarm feedback, and the
//! per-stream sensor faults (dropout, stuck-at hold, clock skew).

use super::{attack_window_ms, Scenario};
use crate::attacker::Attacker;
use crate::basestation::WindowOutcome::{self, Emitted, Salvaged};
use crate::device::{SensorDevice, SensorPacket, Stream};
use crate::faults::FaultSummary;
use crate::transport::Links;
use physio_sim::record::Record;
use physio_sim::subject::Subject;
use std::collections::VecDeque;
use telemetry::{EventCode, Telemetry};

/// The two body sensors and everything between them and the radio.
pub(super) struct Source {
    sensors: [SensorDevice; 2],
    attacker: Option<Attacker>,
    live_fs: f64,
    /// Hold value per stream for stuck-at injection.
    stuck_hold: [f64; 2],
    /// Window-log entries already replayed to an adaptive attacker.
    feedback_cursor: usize,
}

impl Source {
    /// Synthesize `wearer`'s live session (unseen by training) and arm
    /// the scenario's attack, if any.
    pub(super) fn new(scenario: &Scenario, wearer: &Subject) -> Self {
        let live = Record::synthesize_profiled(
            wearer,
            scenario.duration_s,
            scenario.seed ^ 0x11FE,
            scenario.synth,
        );
        let attacker = scenario.attack.as_ref().map(|spec| {
            let (start_ms, end_ms) = attack_window_ms(spec.start_s, spec.end_s);
            Attacker::new(spec.mode.clone(), start_ms, end_ms, scenario.seed ^ 0xA77)
        });
        Self {
            live_fs: live.fs,
            sensors: SensorDevice::pair(live, scenario.chunk_s),
            attacker,
            stuck_hold: [0.0; 2],
            feedback_cursor: 0,
        }
    }

    /// Poll both sensors, ECG first; `None` once both are exhausted.
    pub(super) fn poll(&mut self) -> Option<[Option<SensorPacket>; 2]> {
        let packets = self.sensors.each_mut().map(SensorDevice::poll);
        packets.iter().any(Option::is_some).then_some(packets)
    }

    /// The attack interval `[start, end)`, ms.
    pub(super) fn attack_span(&self) -> Option<(u64, u64)> {
        self.attacker.as_ref().map(Attacker::window_ms)
    }

    /// Run a polled packet through the attacker's intercept and the
    /// fault plan's dropout, stuck-at and clock-skew faults, then send
    /// whatever survives on its link at the (skewed) sensor clock.
    pub(super) fn offer(
        &mut self,
        packet: SensorPacket,
        now_ms: u64,
        scenario: &Scenario,
        summary: &mut FaultSummary,
        tele: &mut Telemetry,
        links: &mut Links,
    ) {
        let stream = packet.stream;
        let i = usize::from(stream == Stream::Abp); // ECG 0, ABP 1
        let faults = &scenario.faults;
        let mut p = match self.attacker.as_mut() {
            Some(att) => att.intercept(now_ms, packet, self.live_fs),
            None => packet,
        };
        if faults.is_dropout(stream, now_ms) {
            summary.dropout_chunks += 1;
            tele.event(now_ms, EventCode::FaultDropout, i as u64, 0);
            return;
        }
        if faults.is_stuck(stream, now_ms) {
            // Frozen ADC: flat payload at the last healthy value, no
            // peak annotations.
            p.samples.fill(self.stuck_hold[i]);
            p.peaks.clear();
            summary.stuck_chunks += 1;
            tele.event(now_ms, EventCode::FaultStuck, i as u64, 0);
        } else if let Some(&last) = p.samples.last() {
            self.stuck_hold[i] = last;
        }
        let skew_ms = faults.clock_skew_ms(stream, now_ms);
        summary.max_clock_skew_ms = summary.max_clock_skew_ms.max(skew_ms);
        links.send(stream, now_ms + skew_ms, p);
    }

    /// Replay newly resolved windows to an adaptive attacker: each
    /// window overlapping the attack interval reports whether the
    /// detector alerted, driving the attacker's threshold probe (a
    /// bisection on the blend factor). The adversary here stands in
    /// for one who observes the victim's alarm side-channel. No-op —
    /// and RNG-free — for every other attack class.
    pub(super) fn pump_feedback(&mut self, log: &VecDeque<(usize, WindowOutcome)>, window_ms: u64) {
        let Some(att) = self.attacker.as_mut().filter(|a| a.wants_feedback()) else {
            return;
        };
        let (a0, a1) = att.window_ms();
        for &(idx, outcome) in log.iter().skip(self.feedback_cursor) {
            let w_start = idx as u64 * window_ms;
            if w_start + window_ms <= a0 || w_start >= a1 {
                continue;
            }
            if let Emitted { alerted } | Salvaged { alerted } = outcome {
                att.feedback(alerted);
            }
        }
        self.feedback_cursor = log.len();
    }
}
