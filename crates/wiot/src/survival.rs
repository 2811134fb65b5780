//! Battery- and channel-aware graceful degradation (the survival
//! policy).
//!
//! A [`SurvivalPolicy`] is the device-side closed control loop that
//! keeps detection alive all the way to battery cutoff instead of
//! dying mid-campaign. Once per simulated second the scenario runner
//! feeds it a [`SurvivalInputs`] sample — battery state of charge,
//! smoothed link badness, and detector backlog, all as integer
//! permille/counts — and the policy actuates three knobs, each with
//! hysteresis so an oscillating input cannot make it flap:
//!
//! * **detector version** (Original ↔ Simplified ↔ Reduced): the
//!   paper's Table III lever — the Reduced build roughly doubles
//!   lifetime over Original, so the policy walks down the version
//!   ladder as charge drains (and back up only with a hysteresis
//!   margin and a minimum dwell time),
//! * **sampling duty cycle** (skip N of M windows at the source):
//!   below half charge the sensors skip one window in four, below a
//!   quarter one in two, trading window coverage for detector energy.
//!   The one battery loop, `crate::adaptive::BatteryLoop` (drain, then
//!   step), scales only the detector's share of `DrawTable::draw_ua` by
//!   the windows kept; the radio's flat `radio_avg_ua` is in the baseline,
//! * **transport retry budget**: under low battery the ARQ spends
//!   less on retransmissions (a smaller per-packet retry budget with
//!   a wider backoff), accepting salvage/drop on a bad link. The
//!   energy model charges no retransmission, so this rung changes link
//!   behaviour but buys no modelled lifetime; ROADMAP.md's item
//!   "Charge the survival ladder's retry rung for energy, or delete
//!   it" settles which.
//!
//! The ladder's thresholds are compiled-in constants
//! ([`ORIGINAL_ABOVE_PERMILLE`] through [`CUTOFF_PERMILLE`]), as they
//! would be on the device; a [`SurvivalConfig`] sets only the version
//! switch dwell and the drain-current scale.
//!
//! Everything here is **fixed-point integer arithmetic** on `Copy`
//! types: the module is pinned to the analyzer's embedded profile
//! (`survival-embedded-profile`) because the decision logic is meant
//! to run on the Amulet's MSP430 where there is no FPU and a panic is
//! a bricked wearable. Floating point stays host-side (the scenario
//! runner converts its `f64` link statistics to permille before
//! calling in). The policy is a pure state machine — same input
//! sequence, same decisions — which is what makes fleet digests
//! byte-identical at any thread count with the policy enabled.
//!
//! Policy state round-trips through a 16-byte [`SurvivalSnapshot`]
//! appended to the FRAM detector checkpoint, so a brownout reboot
//! resumes the same version / duty / retry posture instead of
//! snapping back to full-power defaults.

use sift::features::Version;

/// Full scale of the fixed-point state-of-charge and link-badness
/// values: 1000 ‰ = full battery / fully bad link.
pub const PERMILLE_FULL: u16 = 1000;

/// Sentinel for [`SurvivalSnapshot::last_switch_tick`] meaning "never
/// switched yet" (no dwell restriction applies).
pub const NEVER_SWITCHED: u32 = u32::MAX;

/// State of charge (‰) strictly above which the Original detector runs.
pub const ORIGINAL_ABOVE_PERMILLE: u16 = 600;

/// State of charge (‰) strictly above which at least the Simplified
/// detector runs; at or below, Reduced.
pub const SIMPLIFIED_ABOVE_PERMILLE: u16 = 350;

/// Hysteresis margin (‰) added to a threshold when crossing it would
/// *upgrade* (version, duty, or retry posture), so small oscillations
/// around a threshold cannot flap the knobs.
pub const HYSTERESIS_PERMILLE: u16 = 50;

/// Smoothed link badness (‰) at or above which the policy caps the
/// version at Simplified (Original's extra accuracy is wasted on a link
/// that drops the evidence anyway).
pub const LINK_BAD_PERMILLE: u16 = 150;

/// Smoothed link badness (‰) at or below which the link cap is
/// released. Below [`LINK_BAD_PERMILLE`], so the latch has a dead band.
pub const LINK_CLEAR_PERMILLE: u16 = 100;

/// State of charge (‰) at or below which the sensors skip one window
/// in four.
pub const DUTY_QUARTER_BELOW_PERMILLE: u16 = 500;

/// State of charge (‰) at or below which the sensors skip one window
/// in two (the heavier tier wins).
pub const DUTY_HALF_BELOW_PERMILLE: u16 = 250;

/// State of charge (‰) at or below which the transport runs on the
/// tight retry budget (and the scenario counts a low-battery tick).
pub const RETRY_TIGHT_BELOW_PERMILLE: u16 = 250;

/// ARQ per-packet retry budget at normal charge.
pub const RETRY_NORMAL_MAX: u8 = 5;

/// ARQ per-packet retry budget under low battery.
pub const RETRY_TIGHT_MAX: u8 = 2;

/// Extra backoff doublings applied to every retransmission under low
/// battery (backoff widening).
pub const RETRY_EXTRA_SHIFT: u8 = 2;

/// Detector backlog (assembled-but-unresolved windows) strictly above
/// which the desired version is degraded one extra step until the
/// backlog clears.
pub const BACKLOG_WINDOWS_ABOVE: u16 = 8;

/// State of charge (‰) at or below which the device is considered dead
/// (fleet lifetime benches stop the clock here).
pub const CUTOFF_PERMILLE: u16 = 5;

/// The two survival-policy settings runs choose; every threshold is one
/// of the constants above. Times are policy ticks (the scenario steps
/// the policy once per simulated second, so ticks ≈ seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurvivalConfig {
    /// Minimum ticks between two version switches. Duty and retry
    /// changes are cheap and not dwell-gated; a version switch
    /// reflashes the detector app and is.
    pub min_dwell_ticks: u32,
    /// Multiplier on the simulated drain current, so a short scenario
    /// can traverse the whole discharge curve (1 = real time).
    pub drain_scale: u32,
}

impl Default for SurvivalConfig {
    fn default() -> Self {
        Self {
            min_dwell_ticks: 60,
            drain_scale: 1,
        }
    }
}

/// One per-second sensor sample fed to [`SurvivalPolicy::step`]. All
/// fields are integers: the host converts its float statistics before
/// crossing into the device-side policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SurvivalInputs {
    /// Battery state of charge, permille of capacity.
    pub soc_permille: u16,
    /// Instantaneous link badness (loss plus retransmission drag),
    /// permille; the policy smooths it internally.
    pub link_badness_permille: u16,
    /// Windows the base station has started assembling but not yet
    /// resolved (emitted, salvaged, or dropped).
    pub backlog_windows: u16,
}

/// One actuation the policy decided on, stamped with the tick it was
/// taken at. Recorded in the scenario's `SimReport` and counted in
/// telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurvivalAction {
    /// Switch the detector build (actuated via a firmware reflash on
    /// the base station).
    SetVersion {
        /// Policy tick the switch was decided at.
        at_tick: u32,
        /// Version running before the switch.
        from: Version,
        /// Version to run from now on.
        to: Version,
    },
    /// Change the sampling duty cycle: skip `skip` windows out of
    /// every `of` at the sensor source.
    SetDuty {
        /// Policy tick the change was decided at.
        at_tick: u32,
        /// Windows to skip per group.
        skip: u8,
        /// Group size (`0 < skip < of`, or `skip == 0, of == 1` for
        /// full duty).
        of: u8,
    },
    /// Change the transport retry posture on both sensor links.
    SetRetry {
        /// Policy tick the change was decided at.
        at_tick: u32,
        /// New per-packet retry budget.
        max_retries: u8,
        /// Extra backoff doublings per retransmission.
        backoff_extra_shift: u8,
    },
}

/// The outcome of one policy step: at most one action per knob.
/// `None` everywhere means the step was quiescent (the common case).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SurvivalVerdict {
    /// Version switch decided this step, if any.
    pub version: Option<SurvivalAction>,
    /// Duty-cycle change decided this step, if any.
    pub duty: Option<SurvivalAction>,
    /// Retry-posture change decided this step, if any.
    pub retry: Option<SurvivalAction>,
}

impl SurvivalVerdict {
    /// Whether this step changed anything.
    pub fn is_quiescent(&self) -> bool {
        self.version.is_none() && self.duty.is_none() && self.retry.is_none()
    }
}

/// The complete persistent state of a [`SurvivalPolicy`], as stored in
/// (and restored from) the FRAM checkpoint next to the detector state.
/// 16 bytes on the wire (see `wiot::persist`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurvivalSnapshot {
    /// Detector version in force.
    pub version: Version,
    /// Windows skipped per duty group.
    pub duty_skip: u8,
    /// Duty group size.
    pub duty_of: u8,
    /// ARQ per-packet retry budget in force.
    pub retry_max: u8,
    /// Extra backoff doublings in force.
    pub retry_shift: u8,
    /// Whether the link-badness latch currently caps the version.
    pub link_capped: bool,
    /// Policy ticks elapsed.
    pub tick: u32,
    /// Tick of the last version switch, or [`NEVER_SWITCHED`].
    pub last_switch_tick: u32,
    /// Smoothed link badness, permille.
    pub link_ewma_permille: u16,
}

/// Rank a version on the degradation ladder: higher = more capable =
/// more expensive.
fn rank(v: Version) -> u8 {
    match v {
        Version::Reduced => 0,
        Version::Simplified => 1,
        Version::Original => 2,
    }
}

/// The version at a ladder rank (saturating at the ends).
fn at_rank(r: u8) -> Version {
    match r {
        0 => Version::Reduced,
        1 => Version::Simplified,
        _ => Version::Original,
    }
}

/// Whether window `index` is suppressed under a skip-`skip`-of-`of`
/// duty cycle. The *first* `skip` windows of every group of `of` are
/// skipped, so consecutive kept windows are never more than `skip`
/// windows apart and the base-station watchdog (3 windows) stays fed
/// at every tier the default policy uses.
pub fn window_is_skipped(index: u64, skip: u8, of: u8) -> bool {
    of > 1 && index % u64::from(of) < u64::from(skip)
}

/// The closed-loop survival policy: a pure integer state machine
/// stepped once per simulated second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurvivalPolicy {
    cfg: SurvivalConfig,
    /// The version the device was provisioned with; the policy never
    /// upgrades past it, so at full battery on a clean link it is
    /// exactly as quiescent as no policy at all.
    ceiling: Version,
    version: Version,
    duty_skip: u8,
    duty_of: u8,
    retry_max: u8,
    retry_shift: u8,
    tick: u32,
    last_switch_tick: u32,
    link_ewma_permille: u16,
    link_capped: bool,
    switches: u32,
}

impl SurvivalPolicy {
    /// A fresh policy for a device provisioned with `ceiling`: full
    /// duty, normal retry budget, no link cap, no history.
    pub fn new(cfg: SurvivalConfig, ceiling: Version) -> Self {
        Self {
            cfg,
            ceiling,
            version: ceiling,
            duty_skip: 0,
            duty_of: 1,
            retry_max: RETRY_NORMAL_MAX,
            retry_shift: 0,
            tick: 0,
            last_switch_tick: NEVER_SWITCHED,
            link_ewma_permille: 0,
            link_capped: false,
            switches: 0,
        }
    }

    /// The policy's dwell and drain-scale settings.
    pub fn config(&self) -> SurvivalConfig {
        self.cfg
    }

    /// Detector version currently in force.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Duty cycle currently in force as `(skip, of)`.
    pub fn duty(&self) -> (u8, u8) {
        (self.duty_skip, self.duty_of)
    }

    /// Retry posture currently in force as `(max_retries, extra_shift)`.
    pub fn retry(&self) -> (u8, u8) {
        (self.retry_max, self.retry_shift)
    }

    /// Version switches performed over the policy's lifetime (not
    /// persisted: telemetry, not decision state).
    pub fn switches(&self) -> u32 {
        self.switches
    }

    /// Whether the link-badness latch currently caps the version.
    pub fn link_capped(&self) -> bool {
        self.link_capped
    }

    /// Whether `soc_permille` is at or below [`CUTOFF_PERMILLE`] (the
    /// device is considered dead).
    pub fn is_cutoff(&self, soc_permille: u16) -> bool {
        soc_permille <= CUTOFF_PERMILLE
    }

    /// The persistent decision state, for checkpointing.
    pub fn snapshot(&self) -> SurvivalSnapshot {
        SurvivalSnapshot {
            version: self.version,
            duty_skip: self.duty_skip,
            duty_of: self.duty_of,
            retry_max: self.retry_max,
            retry_shift: self.retry_shift,
            link_capped: self.link_capped,
            tick: self.tick,
            last_switch_tick: self.last_switch_tick,
            link_ewma_permille: self.link_ewma_permille,
        }
    }

    /// Adopt a checkpointed decision state (after a brownout reboot),
    /// keeping the config and ceiling the policy was built with.
    pub fn restore(&mut self, s: SurvivalSnapshot) {
        self.version = s.version;
        self.duty_skip = s.duty_skip;
        self.duty_of = s.duty_of;
        self.retry_max = s.retry_max;
        self.retry_shift = s.retry_shift;
        self.link_capped = s.link_capped;
        self.tick = s.tick;
        self.last_switch_tick = s.last_switch_tick;
        self.link_ewma_permille = s.link_ewma_permille;
    }

    /// Advance the control loop one tick and decide the knob settings.
    /// Pure: the same state and input sequence always produces the
    /// same verdicts.
    pub fn step(&mut self, inputs: SurvivalInputs) -> SurvivalVerdict {
        self.tick = self.tick.saturating_add(1);
        let soc = inputs.soc_permille.min(PERMILLE_FULL);
        self.observe_link(inputs.link_badness_permille);

        SurvivalVerdict {
            version: self.step_version(soc, inputs.backlog_windows),
            duty: self.step_duty(soc),
            retry: self.step_retry(soc),
        }
    }

    /// Fold the instantaneous badness into the integer EWMA
    /// (alpha = 1/4) and run the cap latch.
    fn observe_link(&mut self, badness_permille: u16) {
        let cur = i32::from(self.link_ewma_permille);
        let obs = i32::from(badness_permille.min(PERMILLE_FULL));
        // Truncating integer EWMA: converges within 3 ‰ of the input,
        // far inside the latch dead band.
        let next = cur + (obs - cur) / 4;
        self.link_ewma_permille = next.clamp(0, i32::from(PERMILLE_FULL)) as u16;
        if self.link_capped {
            if self.link_ewma_permille <= LINK_CLEAR_PERMILLE {
                self.link_capped = false;
            }
        } else if self.link_ewma_permille >= LINK_BAD_PERMILLE {
            self.link_capped = true;
        }
    }

    /// Decide the detector version: battery ladder with upgrade
    /// hysteresis, capped by the link latch, the backlog, and the
    /// provisioned ceiling, all gated by the minimum dwell.
    fn step_version(&mut self, soc: u16, backlog: u16) -> Option<SurvivalAction> {
        let hyst = HYSTERESIS_PERMILLE;
        let cur = rank(self.version);
        // Upgrading into a tier costs an extra hysteresis margin;
        // holding a tier does not.
        let orig_thr = if cur >= 2 {
            ORIGINAL_ABOVE_PERMILLE
        } else {
            ORIGINAL_ABOVE_PERMILLE.saturating_add(hyst)
        };
        let simp_thr = if cur >= 1 {
            SIMPLIFIED_ABOVE_PERMILLE
        } else {
            SIMPLIFIED_ABOVE_PERMILLE.saturating_add(hyst)
        };
        let mut target: u8 = if soc > orig_thr {
            2
        } else if soc > simp_thr {
            1
        } else {
            0
        };
        if self.link_capped {
            target = target.min(1);
        }
        if backlog > BACKLOG_WINDOWS_ABOVE {
            target = target.saturating_sub(1);
        }
        target = target.min(rank(self.ceiling));
        let to = at_rank(target);
        if to == self.version {
            return None;
        }
        let dwell_ok = self.last_switch_tick == NEVER_SWITCHED
            || self.tick.saturating_sub(self.last_switch_tick) >= self.cfg.min_dwell_ticks;
        if !dwell_ok {
            return None;
        }
        let from = self.version;
        self.version = to;
        self.last_switch_tick = self.tick;
        self.switches = self.switches.saturating_add(1);
        Some(SurvivalAction::SetVersion {
            at_tick: self.tick,
            from,
            to,
        })
    }

    /// Decide the duty tier (0 = full, 1 = skip 1 of 4, 2 = skip 1 of
    /// 2), lightening only with a hysteresis margin.
    fn step_duty(&mut self, soc: u16) -> Option<SurvivalAction> {
        let hyst = HYSTERESIS_PERMILLE;
        let cur_tier: u8 = match (self.duty_skip, self.duty_of) {
            (0, _) => 0,
            (_, 4) => 1,
            _ => 2,
        };
        let q_thr = if cur_tier > 0 {
            DUTY_QUARTER_BELOW_PERMILLE.saturating_add(hyst)
        } else {
            DUTY_QUARTER_BELOW_PERMILLE
        };
        let h_thr = if cur_tier > 1 {
            DUTY_HALF_BELOW_PERMILLE.saturating_add(hyst)
        } else {
            DUTY_HALF_BELOW_PERMILLE
        };
        let target: u8 = if soc > q_thr {
            0
        } else if soc > h_thr {
            1
        } else {
            2
        };
        if target == cur_tier {
            return None;
        }
        let (skip, of) = match target {
            0 => (0, 1),
            1 => (1, 4),
            _ => (1, 2),
        };
        self.duty_skip = skip;
        self.duty_of = of;
        Some(SurvivalAction::SetDuty {
            at_tick: self.tick,
            skip,
            of,
        })
    }

    /// Decide the retry posture, returning to the normal budget only
    /// with a hysteresis margin.
    fn step_retry(&mut self, soc: u16) -> Option<SurvivalAction> {
        let thr = if self.retry_shift > 0 {
            RETRY_TIGHT_BELOW_PERMILLE.saturating_add(HYSTERESIS_PERMILLE)
        } else {
            RETRY_TIGHT_BELOW_PERMILLE
        };
        let (max_retries, shift) = if soc <= thr {
            (RETRY_TIGHT_MAX, RETRY_EXTRA_SHIFT)
        } else {
            (RETRY_NORMAL_MAX, 0)
        };
        if (max_retries, shift) == (self.retry_max, self.retry_shift) {
            return None;
        }
        self.retry_max = max_retries;
        self.retry_shift = shift;
        Some(SurvivalAction::SetRetry {
            at_tick: self.tick,
            max_retries,
            backoff_extra_shift: shift,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(soc: u16) -> SurvivalInputs {
        SurvivalInputs {
            soc_permille: soc,
            link_badness_permille: 0,
            backlog_windows: 0,
        }
    }

    fn fast_cfg() -> SurvivalConfig {
        SurvivalConfig {
            min_dwell_ticks: 2,
            ..SurvivalConfig::default()
        }
    }

    #[test]
    fn ladder_thresholds_are_ordered() {
        // (lower, upper, rule): each rule needs `lower < upper`.
        let strict = [
            (LINK_CLEAR_PERMILLE, LINK_BAD_PERMILLE, "link latch dead band"),
            (SIMPLIFIED_ABOVE_PERMILLE, ORIGINAL_ABOVE_PERMILLE, "version ladder"),
            (CUTOFF_PERMILLE, ORIGINAL_ABOVE_PERMILLE, "cutoff below Original"),
            (CUTOFF_PERMILLE, SIMPLIFIED_ABOVE_PERMILLE, "cutoff below Simplified"),
            (CUTOFF_PERMILLE, DUTY_QUARTER_BELOW_PERMILLE, "cutoff below quarter duty"),
            (CUTOFF_PERMILLE, DUTY_HALF_BELOW_PERMILLE, "cutoff below half duty"),
            (CUTOFF_PERMILLE, RETRY_TIGHT_BELOW_PERMILLE, "cutoff below tight retry"),
        ];
        for (lower, upper, rule) in strict {
            assert!(lower < upper, "{rule}: {lower} !< {upper}");
        }
        // (lower, upper, rule): each rule needs `lower <= upper`.
        let weak = [
            (DUTY_HALF_BELOW_PERMILLE, DUTY_QUARTER_BELOW_PERMILLE, "heavier duty tier"),
            (ORIGINAL_ABOVE_PERMILLE + HYSTERESIS_PERMILLE, PERMILLE_FULL, "Original reachable"),
            (RETRY_TIGHT_MAX.into(), RETRY_NORMAL_MAX.into(), "tight retry budget"),
        ];
        for (lower, upper, rule) in weak {
            assert!(lower <= upper, "{rule}: {lower} !<= {upper}");
        }
    }

    #[test]
    fn quiescent_at_full_battery() {
        let mut p = SurvivalPolicy::new(SurvivalConfig::default(), Version::Original);
        for _ in 0..600 {
            assert!(p.step(inputs(1000)).is_quiescent());
        }
        assert_eq!(p.version(), Version::Original);
        assert_eq!(p.duty(), (0, 1));
        assert_eq!(p.retry(), (5, 0));
        assert_eq!(p.switches(), 0);
    }

    #[test]
    fn degrades_down_the_ladder_as_battery_drains() {
        let mut p = SurvivalPolicy::new(fast_cfg(), Version::Original);
        let mut seen = vec![p.version()];
        for soc in (0..=1000).rev() {
            p.step(inputs(soc));
            if *seen.last().unwrap() != p.version() {
                seen.push(p.version());
            }
        }
        assert_eq!(
            seen,
            vec![Version::Original, Version::Simplified, Version::Reduced]
        );
        assert_eq!(p.duty(), (1, 2));
        assert_eq!(p.retry(), (2, 2));
    }

    #[test]
    fn upgrade_needs_hysteresis_margin() {
        let mut p = SurvivalPolicy::new(fast_cfg(), Version::Original);
        // Drain to Simplified territory.
        for _ in 0..4 {
            p.step(inputs(500));
        }
        assert_eq!(p.version(), Version::Simplified);
        // Hovering just above the Original threshold is not enough...
        for _ in 0..10 {
            p.step(inputs(ORIGINAL_ABOVE_PERMILLE + 1));
        }
        assert_eq!(p.version(), Version::Simplified);
        // ...but clearing threshold + hysteresis upgrades.
        for _ in 0..10 {
            p.step(inputs(ORIGINAL_ABOVE_PERMILLE + HYSTERESIS_PERMILLE + 1));
        }
        assert_eq!(p.version(), Version::Original);
        // The lower rung works the same: drain to Reduced, then hovering
        // just above the Simplified threshold holds Reduced...
        for _ in 0..4 {
            p.step(inputs(SIMPLIFIED_ABOVE_PERMILLE - 50));
        }
        assert_eq!(p.version(), Version::Reduced);
        for _ in 0..10 {
            p.step(inputs(SIMPLIFIED_ABOVE_PERMILLE + 1));
        }
        assert_eq!(p.version(), Version::Reduced);
        // ...and clearing it by the margin climbs exactly one rung.
        for _ in 0..10 {
            p.step(inputs(SIMPLIFIED_ABOVE_PERMILLE + HYSTERESIS_PERMILLE + 1));
        }
        assert_eq!(p.version(), Version::Simplified);
    }

    #[test]
    fn dwell_gates_version_switches() {
        let cfg = SurvivalConfig {
            min_dwell_ticks: 100,
            ..SurvivalConfig::default()
        };
        let mut p = SurvivalPolicy::new(cfg, Version::Original);
        // Oscillate hard across both thresholds every tick.
        let mut switches_seen = 0;
        for t in 0..1000u32 {
            let soc = if t % 2 == 0 { 1000 } else { 100 };
            if p.step(inputs(soc)).version.is_some() {
                switches_seen += 1;
            }
        }
        // 1000 ticks / 100-tick dwell = at most 11 switches (first one
        // is free of the dwell gate).
        assert!(switches_seen <= 11, "{switches_seen} switches");
        assert_eq!(p.switches(), switches_seen);
    }

    #[test]
    fn link_latch_caps_at_simplified_and_releases() {
        let cfg = fast_cfg();
        let mut p = SurvivalPolicy::new(cfg, Version::Original);
        let bad = SurvivalInputs {
            soc_permille: 1000,
            link_badness_permille: 600,
            backlog_windows: 0,
        };
        for _ in 0..20 {
            p.step(bad);
        }
        assert!(p.link_capped());
        assert_eq!(p.version(), Version::Simplified);
        for _ in 0..60 {
            p.step(inputs(1000));
        }
        assert!(!p.link_capped());
        assert_eq!(p.version(), Version::Original);
    }

    #[test]
    fn backlog_degrades_one_extra_step() {
        let cfg = fast_cfg();
        let mut p = SurvivalPolicy::new(cfg, Version::Original);
        let swamped = SurvivalInputs {
            soc_permille: 1000,
            link_badness_permille: 0,
            backlog_windows: 50,
        };
        for _ in 0..5 {
            p.step(swamped);
        }
        assert_eq!(p.version(), Version::Simplified);
        for _ in 0..5 {
            p.step(inputs(1000));
        }
        assert_eq!(p.version(), Version::Original);
    }

    #[test]
    fn ceiling_is_never_exceeded() {
        let mut p = SurvivalPolicy::new(fast_cfg(), Version::Reduced);
        for _ in 0..100 {
            p.step(inputs(1000));
        }
        assert_eq!(p.version(), Version::Reduced);
        assert_eq!(p.switches(), 0);
    }

    #[test]
    fn snapshot_round_trip_preserves_behavior() {
        let cfg = fast_cfg();
        let mut a = SurvivalPolicy::new(cfg, Version::Original);
        for soc in (300..=1000).rev().step_by(7) {
            a.step(inputs(soc as u16));
        }
        let snap = a.snapshot();
        let mut b = SurvivalPolicy::new(cfg, Version::Original);
        b.restore(snap);
        assert_eq!(b.snapshot(), snap);
        for soc in (0..=300u16).rev().step_by(3) {
            assert_eq!(a.step(inputs(soc)), b.step(inputs(soc)));
            assert_eq!(a.snapshot(), b.snapshot());
        }
    }

    #[test]
    fn duty_window_skipping_pattern() {
        assert!(!window_is_skipped(0, 0, 1));
        assert!(!window_is_skipped(5, 0, 1));
        // Skip 1 of 4: first window of each group of four.
        let skipped: Vec<u64> = (0..8).filter(|&i| window_is_skipped(i, 1, 4)).collect();
        assert_eq!(skipped, vec![0, 4]);
        // Skip 1 of 2: never two consecutive skips.
        let pattern: Vec<bool> = (0..6).map(|i| window_is_skipped(i, 1, 2)).collect();
        assert_eq!(pattern, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn ewma_converges_and_latch_has_dead_band() {
        let cfg = SurvivalConfig::default();
        let mut p = SurvivalPolicy::new(cfg, Version::Original);
        for _ in 0..40 {
            p.step(SurvivalInputs {
                soc_permille: 1000,
                link_badness_permille: 400,
                backlog_windows: 0,
            });
        }
        assert!(p.link_ewma_permille >= 395);
        assert!(p.link_capped());
        // Drop to between clear and bad: latch holds.
        for _ in 0..40 {
            p.step(SurvivalInputs {
                soc_permille: 1000,
                link_badness_permille: 120,
                backlog_windows: 0,
            });
        }
        assert!(p.link_capped());
        for _ in 0..60 {
            p.step(inputs(1000));
        }
        assert!(!p.link_capped());
    }
}
