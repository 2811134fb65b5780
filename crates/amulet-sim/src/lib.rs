//! A behavioural simulation of the **Amulet** wearable platform
//! (Hester et al., SenSys'16) — the WIoT base station the paper deploys
//! SIFT on.
//!
//! The real Amulet is a wrist-worn MSP430FR5989 system (2 KB SRAM,
//! 128 KB FRAM, 110 mAh battery) running AmuletOS on the QM event-driven
//! framework: applications are state machines with run-to-completion
//! event handlers, no threads, no heap, and compile-time predictive
//! analysis of memory and energy (the Amulet Resource Profiler, ARP).
//! This crate models each of those pieces:
//!
//! * [`event`] / [`machine`] — the QM-style event and state-machine
//!   abstractions with run-to-completion semantics,
//! * [`memory`] — FRAM/SRAM accounting with the platform's array
//!   restrictions (paper Insight #1),
//! * [`energy`] — a parameterized current/battery model of the
//!   MSP430FR5989 and its peripherals,
//! * [`costs`] — a per-operation cycle-cost model of software floating
//!   point on the MSP430 (no FPU), from which per-version detector
//!   execution times are derived,
//! * [`profiler`] — the ARP analogue: static per-app resource profiles,
//!   battery-lifetime projection, and ARP-view-style reports with
//!   parameter "sliders" (Fig. 3),
//! * [`toolchain`] — firmware assembly with compile-time resource checks,
//! * [`display`] — the LED/display mock used for alerts and debugging
//!   (paper Insight #3),
//! * [`os`] — AmuletOS: app registry, event dispatch, clock and energy
//!   bookkeeping,
//! * [`nvram`] — a crash-consistent A/B checkpoint store in the
//!   nonvolatile FRAM, so detector state survives brownout-reboots,
//! * [`apps`] — applications: the three-state SIFT detector app
//!   (*PeaksDataCheck → FeatureExtraction → MLClassifier*, paper §III),
//!   a simple heart-rate display app demonstrating multi-app
//!   deployment, and a stream-liveness watchdog.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod costs;
pub mod display;
pub mod energy;
pub mod event;
pub mod machine;
pub mod memory;
pub mod nvram;
pub mod os;
pub mod profiler;
pub mod toolchain;

mod error;

pub use error::AmuletError;

/// FRAM capacity of the MSP430FR5989, in bytes.
pub const FRAM_BYTES: usize = 128 * 1024;
/// SRAM capacity of the MSP430FR5989, in bytes.
pub const SRAM_BYTES: usize = 2 * 1024;
/// Battery capacity of the Amulet prototype, in mAh.
pub const BATTERY_MAH: f64 = 110.0;
/// MCU clock of the simulated device, in Hz (the MSP430FR5989 tops out
/// at 16 MHz).
pub const CPU_HZ: f64 = 16_000_000.0;
