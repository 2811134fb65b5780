//! The wearable-IoT environment around the Amulet base station
//! (paper Fig. 1, realized as an executable system).
//!
//! A WIoT environment is "various types of low-cost medical devices
//! (i.e., sensors) that form a distributed wireless network around the
//! user", forwarding measurements to an always-present, safety-critical
//! **base station**, which in turn forwards data to a resource-rich
//! **sink**. This crate builds that whole loop:
//!
//! * [`device`] — the ECG and ABP body sensors, packetizing their
//!   measurements,
//! * [`channel`] — the lossy, jittery wireless hop between sensor and
//!   base station, with Bernoulli and Gilbert–Elliott burst-loss
//!   models, duplication, reordering, and payload corruption,
//! * [`transport`] — a lightweight ARQ (gap NACKs, bounded retransmit
//!   buffer, retry budget with exponential backoff) recovering most
//!   losses before the detector sees them,
//! * [`faults`] — a timed fault-injection plan (link degradation,
//!   sensor dropout/stuck-at, device reboot, clock drift) for
//!   robustness testing,
//! * [`attacker`] — sensor-hijacking adversaries covering the paper's
//!   four vulnerability classes (§I): channel compromise, firmware
//!   compromise (replay), sensory-channel injection (noise), and
//!   physical compromise (freeze),
//! * [`campaign`] — the adversary campaign engine: population-scale
//!   victim cohorts, multi-wave attack schedules over the extended
//!   attack-class taxonomy (mimicry, replay-at-SNR, partial-window,
//!   coordinated, adaptive), and per-class detection matrices with
//!   integer Wilson confidence bounds,
//! * [`basestation`] — the Amulet running the SIFT detector app on the
//!   reassembled sensor streams,
//! * [`sink`] — history storage and alert collection,
//! * [`persist`] — crash-consistent checkpointing of the detector and
//!   survival-policy state to the simulated FRAM, so a brownout reboot
//!   resumes detection without re-enrollment,
//! * [`survival`] — the paper's Insight #4 decision engine: a
//!   battery- and channel-aware closed loop that walks detector
//!   version, sampling duty cycle, and transport retry budget down (and
//!   back up) with hysteresis as charge drains and the link degrades,
//! * [`adaptive`] — the host-side energy arithmetic behind that loop:
//!   the per-version draw-current table and a whole-battery
//!   fast-forward of the policy,
//! * [`scenario`] — a deterministic scenario runner gluing everything
//!   together and scoring detection performance end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod attacker;
pub mod basestation;
pub mod campaign;
pub mod channel;
pub mod device;
pub mod faults;
pub mod fleet;
pub mod persist;
pub mod scenario;
pub mod sink;
pub mod slab;
pub mod survival;
pub mod transport;

mod error;

pub use error::WiotError;
