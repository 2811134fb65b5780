//! Timed fault injection against a scenario.
//!
//! A [`FaultPlan`] schedules environment misbehavior along the session
//! timeline: link-degradation episodes, sensor dropouts, stuck-at
//! sensors, base-station brownout reboots, and clock drift between the
//! two sensor devices. The scenario runner consults the plan each tick
//! and perturbs the simulation accordingly; every perturbation is
//! counted in a [`FaultSummary`] so a report can prove each injected
//! fault actually happened. Fault plans are pure data — all randomness
//! stays in the (seeded) channel — so a faulted scenario replays
//! byte-identically.

use crate::attacker::ATTACK_CLASS_COUNT;
use crate::channel::LossModel;
use crate::device::Stream;
use crate::WiotError;

/// What kind of misbehavior a fault event injects.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The wireless link degrades for the episode: the given loss
    /// process replaces the configured one. `stream: None` degrades
    /// both links (e.g. body shadowing hits the shared band).
    LinkDegrade {
        /// Affected stream, or both when `None`.
        stream: Option<Stream>,
        /// Loss process in force during the episode.
        loss: LossModel,
    },
    /// The sensor stops transmitting entirely (radio brownout, strap
    /// came loose). Samples produced during the episode are lost.
    SensorDropout {
        /// Affected stream.
        stream: Stream,
    },
    /// The sensor keeps transmitting but its ADC is stuck at the last
    /// value it read (frozen front-end). Packets arrive on time with
    /// flat payloads and no peak annotations.
    SensorStuck {
        /// Affected stream.
        stream: Stream,
    },
    /// The base station browns out and reboots at the event start,
    /// losing all in-flight window-assembly state. Instantaneous: the
    /// episode end is ignored.
    DeviceReboot,
    /// The device's crystal runs fast relative to the base station by
    /// `ppm` parts per million for the duration of the episode,
    /// skewing its packets' arrival timestamps.
    ClockDrift {
        /// Affected stream.
        stream: Stream,
        /// Drift rate, parts per million (positive = running late).
        ppm: f64,
    },
    /// Power fails mid-checkpoint-commit: the FRAM write sequence is
    /// cut after `cut_bytes` bytes and the station reboots.
    /// Instantaneous: the episode end is ignored.
    TornCheckpoint {
        /// Bytes of the commit sequence that land before the cut.
        cut_bytes: usize,
    },
    /// A single bit in the NVRAM checkpoint region flips (FRAM
    /// disturb / radiation upset). Instantaneous.
    CheckpointBitRot {
        /// Absolute byte offset within the NVRAM region.
        byte: usize,
        /// Bit index within that byte (0–7).
        bit: u8,
    },
}

/// One scheduled fault episode `[start_s, end_s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Episode start, seconds into the session.
    pub start_s: f64,
    /// Episode end, seconds into the session (equal to `start_s` for
    /// instantaneous faults like [`FaultKind::DeviceReboot`]).
    pub end_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    fn start_ms(&self) -> u64 {
        (self.start_s * 1000.0) as u64
    }

    fn end_ms(&self) -> u64 {
        (self.end_s * 1000.0) as u64
    }

    fn active(&self, now_ms: u64) -> bool {
        (self.start_ms()..self.end_ms().max(self.start_ms() + 1)).contains(&now_ms)
    }
}

/// A schedule of fault events for one scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: add one event.
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Add one event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check every event fits inside a session of `duration_s` seconds
    /// and is internally consistent.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] for events outside the
    /// session, inverted intervals, or invalid loss models.
    pub fn validate(&self, duration_s: f64) -> Result<(), WiotError> {
        for e in &self.events {
            if !(e.start_s.is_finite() && e.end_s.is_finite()) || e.start_s < 0.0 {
                return Err(WiotError::InvalidScenario {
                    reason: "fault event times must be finite and non-negative",
                });
            }
            if e.end_s < e.start_s {
                return Err(WiotError::InvalidScenario {
                    reason: "fault event must not end before it starts",
                });
            }
            if e.start_s > duration_s {
                return Err(WiotError::InvalidScenario {
                    reason: "fault event starts after the session ends",
                });
            }
            match &e.kind {
                FaultKind::LinkDegrade { loss, .. } => loss.validate()?,
                FaultKind::ClockDrift { ppm, .. } if !ppm.is_finite() => {
                    return Err(WiotError::InvalidScenario {
                        reason: "clock-drift rate must be finite",
                    });
                }
                FaultKind::CheckpointBitRot { byte, bit }
                    if *bit > 7 || *byte >= amulet_sim::nvram::NVRAM_BYTES =>
                {
                    return Err(WiotError::InvalidScenario {
                        reason: "checkpoint bit-rot target outside the NVRAM region",
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Whether `stream` is in a dropout episode at `now_ms`.
    pub fn is_dropout(&self, stream: Stream, now_ms: u64) -> bool {
        self.events.iter().any(|e| {
            matches!(e.kind, FaultKind::SensorDropout { stream: s } if s == stream)
                && e.active(now_ms)
        })
    }

    /// Whether `stream` is stuck at `now_ms`.
    pub fn is_stuck(&self, stream: Stream, now_ms: u64) -> bool {
        self.events.iter().any(|e| {
            matches!(e.kind, FaultKind::SensorStuck { stream: s } if s == stream)
                && e.active(now_ms)
        })
    }

    /// The loss override in force for `stream` at `now_ms`, if any
    /// (the most recently scheduled episode wins on overlap).
    pub fn degrade(&self, stream: Stream, now_ms: u64) -> Option<&LossModel> {
        self.events
            .iter()
            .rev()
            .find(|e| {
                e.active(now_ms)
                    && matches!(&e.kind,
                        FaultKind::LinkDegrade { stream: s, .. }
                            if s.is_none() || *s == Some(stream))
            })
            .and_then(|e| match &e.kind {
                FaultKind::LinkDegrade { loss, .. } => Some(loss),
                _ => None,
            })
    }

    /// Accumulated clock-skew (ms) of `stream`'s device at `now_ms`:
    /// the integral of every drift episode's rate over its elapsed
    /// portion.
    pub fn clock_skew_ms(&self, stream: Stream, now_ms: u64) -> u64 {
        let mut skew = 0.0f64;
        for e in &self.events {
            if let FaultKind::ClockDrift { stream: s, ppm } = &e.kind {
                if *s != stream {
                    continue;
                }
                let from = e.start_ms();
                let until = now_ms.min(e.end_ms());
                if until > from {
                    skew += ppm.max(0.0) * 1e-6 * (until - from) as f64;
                }
            }
        }
        skew.round() as u64
    }

    /// Reboot events scheduled in `(prev_ms, now_ms]`.
    pub fn reboots_between(&self, prev_ms: u64, now_ms: u64) -> u64 {
        self.events
            .iter()
            .filter(|e| {
                matches!(e.kind, FaultKind::DeviceReboot)
                    && e.start_ms() > prev_ms
                    && e.start_ms() <= now_ms
            })
            .count() as u64
    }

    /// Torn-checkpoint events scheduled in `(prev_ms, now_ms]`, as the
    /// cut offsets (bytes of the commit sequence written before power
    /// failed), in schedule order.
    pub fn torn_checkpoints_between(&self, prev_ms: u64, now_ms: u64) -> Vec<usize> {
        self.events
            .iter()
            .filter(|e| e.start_ms() > prev_ms && e.start_ms() <= now_ms)
            .filter_map(|e| match e.kind {
                FaultKind::TornCheckpoint { cut_bytes } => Some(cut_bytes),
                _ => None,
            })
            .collect()
    }

    /// Checkpoint bit-rot events scheduled in `(prev_ms, now_ms]`, as
    /// `(byte, bit)` targets, in schedule order.
    pub fn bitrot_between(&self, prev_ms: u64, now_ms: u64) -> Vec<(usize, u8)> {
        self.events
            .iter()
            .filter(|e| e.start_ms() > prev_ms && e.start_ms() <= now_ms)
            .filter_map(|e| match e.kind {
                FaultKind::CheckpointBitRot { byte, bit } => Some((byte, bit)),
                _ => None,
            })
            .collect()
    }
}

/// Everything the fault plan actually did to a run — the evidence
/// section of a [`crate::scenario::SimReport`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSummary {
    /// Chunks suppressed by sensor-dropout episodes.
    pub dropout_chunks: u64,
    /// Chunks flattened by stuck-sensor episodes.
    pub stuck_chunks: u64,
    /// Base-station brownout reboots performed.
    pub reboots: u64,
    /// Milliseconds during which at least one link ran under a
    /// degrade override.
    pub degraded_link_ms: u64,
    /// Maximum clock skew applied to any stream, ms.
    pub max_clock_skew_ms: u64,
    /// Checkpoint commits cut short by injected power failures.
    pub torn_commits: u64,
    /// Single-bit flips injected into the NVRAM checkpoint region.
    pub bitrot_flips: u64,
    /// Reboots after which the detector resumed from a valid
    /// checkpoint (no re-enrollment).
    pub recoveries: u64,
    /// Recoveries that had to fall back to the previous generation
    /// because the newest slot was torn or rotted.
    pub rollbacks: u64,
    /// Reboots after which no checkpoint could be restored (the
    /// station kept running with its freshly-reset detector).
    pub recovery_failures: u64,
    /// Sensor chunks never offered to the link because the survival
    /// policy's duty cycle skipped their window at the source.
    pub duty_skipped_chunks: u64,
    /// Policy ticks spent at or below the survival policy's low-battery
    /// (retry-tightening) threshold.
    pub low_battery_ticks: u64,
    /// Attacked (truth-positive) windows the detector alerted on, per
    /// attack class — indexed by
    /// [`crate::attacker::AttackClass::index`]. Campaign-engine
    /// accounting; rides FaultSummary → DeviceSummary → FleetReport
    /// outside the frozen fleet digest.
    pub attack_windows_tp: [u64; ATTACK_CLASS_COUNT],
    /// Attacked windows the detector let pass, per attack class (same
    /// indexing as [`FaultSummary::attack_windows_tp`]).
    pub attack_windows_fn: [u64; ATTACK_CLASS_COUNT],
}

impl FaultSummary {
    /// Element-wise sum of two summaries, except `max_clock_skew_ms`
    /// which takes the maximum. Used to aggregate per-device summaries
    /// into a fleet view.
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        let mut attack_windows_tp = self.attack_windows_tp;
        let mut attack_windows_fn = self.attack_windows_fn;
        for (a, b) in attack_windows_tp.iter_mut().zip(other.attack_windows_tp) {
            *a += b;
        }
        for (a, b) in attack_windows_fn.iter_mut().zip(other.attack_windows_fn) {
            *a += b;
        }
        Self {
            attack_windows_tp,
            attack_windows_fn,
            dropout_chunks: self.dropout_chunks + other.dropout_chunks,
            stuck_chunks: self.stuck_chunks + other.stuck_chunks,
            reboots: self.reboots + other.reboots,
            degraded_link_ms: self.degraded_link_ms + other.degraded_link_ms,
            max_clock_skew_ms: self.max_clock_skew_ms.max(other.max_clock_skew_ms),
            torn_commits: self.torn_commits + other.torn_commits,
            bitrot_flips: self.bitrot_flips + other.bitrot_flips,
            recoveries: self.recoveries + other.recoveries,
            rollbacks: self.rollbacks + other.rollbacks,
            recovery_failures: self.recovery_failures + other.recovery_failures,
            duty_skipped_chunks: self.duty_skipped_chunks + other.duty_skipped_chunks,
            low_battery_ticks: self.low_battery_ticks + other.low_battery_ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degrade_event(start: f64, end: f64) -> FaultEvent {
        FaultEvent {
            start_s: start,
            end_s: end,
            kind: FaultKind::LinkDegrade {
                stream: None,
                loss: LossModel::Bernoulli { p: 0.5 },
            },
        }
    }

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert!(!p.is_dropout(Stream::Ecg, 0));
        assert!(!p.is_stuck(Stream::Abp, 0));
        assert!(p.degrade(Stream::Ecg, 0).is_none());
        assert_eq!(p.clock_skew_ms(Stream::Ecg, 60_000), 0);
        assert_eq!(p.reboots_between(0, 60_000), 0);
        assert!(p.validate(10.0).is_ok());
    }

    #[test]
    fn episode_activation_respects_interval() {
        let p = FaultPlan::new().with(FaultEvent {
            start_s: 5.0,
            end_s: 8.0,
            kind: FaultKind::SensorDropout {
                stream: Stream::Abp,
            },
        });
        assert!(!p.is_dropout(Stream::Abp, 4_999));
        assert!(p.is_dropout(Stream::Abp, 5_000));
        assert!(p.is_dropout(Stream::Abp, 7_999));
        assert!(!p.is_dropout(Stream::Abp, 8_000));
        assert!(!p.is_dropout(Stream::Ecg, 6_000));
    }

    #[test]
    fn degrade_targets_the_right_stream() {
        let p = FaultPlan::new().with(FaultEvent {
            start_s: 0.0,
            end_s: 10.0,
            kind: FaultKind::LinkDegrade {
                stream: Some(Stream::Ecg),
                loss: LossModel::Bernoulli { p: 0.9 },
            },
        });
        assert!(p.degrade(Stream::Ecg, 1_000).is_some());
        assert!(p.degrade(Stream::Abp, 1_000).is_none());
        // A both-streams episode covers everything.
        let p = FaultPlan::new().with(degrade_event(0.0, 10.0));
        assert!(p.degrade(Stream::Abp, 1_000).is_some());
    }

    #[test]
    fn clock_skew_integrates_episodes() {
        let p = FaultPlan::new().with(FaultEvent {
            start_s: 10.0,
            end_s: 20.0,
            kind: FaultKind::ClockDrift {
                stream: Stream::Ecg,
                ppm: 50_000.0, // 5 % fast: 10 s of drift -> 500 ms
            },
        });
        assert_eq!(p.clock_skew_ms(Stream::Ecg, 10_000), 0);
        assert_eq!(p.clock_skew_ms(Stream::Ecg, 15_000), 250);
        assert_eq!(p.clock_skew_ms(Stream::Ecg, 20_000), 500);
        // Skew freezes after the episode (crystal recovered).
        assert_eq!(p.clock_skew_ms(Stream::Ecg, 60_000), 500);
        assert_eq!(p.clock_skew_ms(Stream::Abp, 60_000), 0);
    }

    #[test]
    fn reboot_window_query() {
        let p = FaultPlan::new().with(FaultEvent {
            start_s: 30.0,
            end_s: 30.0,
            kind: FaultKind::DeviceReboot,
        });
        assert_eq!(p.reboots_between(0, 29_999), 0);
        assert_eq!(p.reboots_between(29_999, 30_000), 1);
        assert_eq!(p.reboots_between(30_000, 40_000), 0);
    }

    #[test]
    fn validation_catches_bad_events() {
        let inverted = FaultPlan::new().with(degrade_event(8.0, 5.0));
        assert!(inverted.validate(10.0).is_err());
        let outside = FaultPlan::new().with(degrade_event(12.0, 14.0));
        assert!(outside.validate(10.0).is_err());
        let bad_loss = FaultPlan::new().with(FaultEvent {
            start_s: 0.0,
            end_s: 1.0,
            kind: FaultKind::LinkDegrade {
                stream: None,
                loss: LossModel::Bernoulli { p: 7.0 },
            },
        });
        assert!(bad_loss.validate(10.0).is_err());
        let bad_drift = FaultPlan::new().with(FaultEvent {
            start_s: 0.0,
            end_s: 1.0,
            kind: FaultKind::ClockDrift {
                stream: Stream::Ecg,
                ppm: f64::NAN,
            },
        });
        assert!(bad_drift.validate(10.0).is_err());
        let ok = FaultPlan::new().with(degrade_event(0.0, 10.0));
        assert!(ok.validate(10.0).is_ok());
    }

    #[test]
    fn checkpoint_fault_window_queries() {
        let p = FaultPlan::new()
            .with(FaultEvent {
                start_s: 10.0,
                end_s: 10.0,
                kind: FaultKind::TornCheckpoint { cut_bytes: 17 },
            })
            .with(FaultEvent {
                start_s: 20.0,
                end_s: 20.0,
                kind: FaultKind::CheckpointBitRot { byte: 100, bit: 3 },
            });
        assert_eq!(p.torn_checkpoints_between(0, 9_999), Vec::<usize>::new());
        assert_eq!(p.torn_checkpoints_between(9_999, 10_000), vec![17]);
        assert_eq!(p.torn_checkpoints_between(10_000, 60_000), Vec::<usize>::new());
        assert_eq!(p.bitrot_between(0, 19_999), Vec::<(usize, u8)>::new());
        assert_eq!(p.bitrot_between(19_999, 20_000), vec![(100, 3)]);
    }

    #[test]
    fn checkpoint_bitrot_validation() {
        let bad_bit = FaultPlan::new().with(FaultEvent {
            start_s: 0.0,
            end_s: 0.0,
            kind: FaultKind::CheckpointBitRot { byte: 0, bit: 8 },
        });
        assert!(bad_bit.validate(10.0).is_err());
        let bad_byte = FaultPlan::new().with(FaultEvent {
            start_s: 0.0,
            end_s: 0.0,
            kind: FaultKind::CheckpointBitRot {
                byte: amulet_sim::nvram::NVRAM_BYTES,
                bit: 0,
            },
        });
        assert!(bad_byte.validate(10.0).is_err());
        let ok = FaultPlan::new().with(FaultEvent {
            start_s: 0.0,
            end_s: 0.0,
            kind: FaultKind::CheckpointBitRot { byte: 4095, bit: 7 },
        });
        assert!(ok.validate(10.0).is_ok());
    }

    #[test]
    fn summaries_merge_elementwise() {
        let a = FaultSummary {
            dropout_chunks: 1,
            stuck_chunks: 2,
            reboots: 3,
            degraded_link_ms: 4,
            max_clock_skew_ms: 5,
            torn_commits: 6,
            bitrot_flips: 7,
            recoveries: 8,
            rollbacks: 9,
            recovery_failures: 10,
            duty_skipped_chunks: 11,
            low_battery_ticks: 12,
            attack_windows_tp: [2; ATTACK_CLASS_COUNT],
            attack_windows_fn: [1; ATTACK_CLASS_COUNT],
        };
        let b = FaultSummary {
            max_clock_skew_ms: 2,
            reboots: 1,
            duty_skipped_chunks: 3,
            ..FaultSummary::default()
        };
        let m = a.merged(b);
        assert_eq!(m.reboots, 4);
        assert_eq!(m.attack_windows_tp, [2; ATTACK_CLASS_COUNT]);
        assert_eq!(m.attack_windows_fn, [1; ATTACK_CLASS_COUNT]);
        assert_eq!(m.max_clock_skew_ms, 5);
        assert_eq!(m.recoveries, 8);
        assert_eq!(m.duty_skipped_chunks, 14);
        assert_eq!(m.low_battery_ticks, 12);
        assert_eq!(FaultSummary::default().merged(a), a);
    }
}
