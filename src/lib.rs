//! # sift-repro
//!
//! A from-scratch Rust reproduction of *"Deploying Data-Driven Security
//! Solutions on Resource-Constrained Wearable IoT Systems"* (Cai, Yun,
//! Hester, Venkatasubramanian — ICDCS 2017): the **SIFT** ECG
//! sensor-hijacking detector, the three resource-graded detector
//! versions, the simulated **Amulet** wearable platform they deploy on,
//! and the full WIoT environment around it.
//!
//! This crate is the workspace façade: it re-exports the member crates
//! and hosts the runnable examples and cross-crate integration tests.
//!
//! | Crate | Role |
//! |---|---|
//! | [`dsp`] | statistics, normalization, integration, libm-free math, Q16.16 |
//! | [`physio_sim`] | synthetic ECG/ABP subjects (Fantasia stand-in) with peak annotations |
//! | [`ml`] | linear SVM, scalers, metrics, baselines, embedded model codec |
//! | [`sift`] | portraits, the three feature extractors, trainer, detector |
//! | [`amulet_sim`] | QM state machines, AmuletOS, memory/energy models, ARP |
//! | [`wiot`] | sensors, channel, attackers, base station, sink, adaptive security |
//!
//! # Quickstart
//!
//! ```
//! use physio_sim::subject::bank;
//! use sift::config::SiftConfig;
//! use sift::detector::Detector;
//! use sift::features::Version;
//! use sift::flavor::PlatformFlavor;
//! use sift::snippet::Snippet;
//! use sift::trainer::train_for_subject;
//!
//! # fn main() -> Result<(), sift::SiftError> {
//! let subjects = bank();
//! let config = SiftConfig { train_s: 60.0, ..SiftConfig::default() };
//! let model = train_for_subject(&subjects, 0, Version::Simplified, &config, 7)?;
//! let detector = Detector::new(model, PlatformFlavor::Amulet, config.clone())?;
//!
//! // Classify one 3-second window of live data.
//! let live = physio_sim::record::Record::synthesize(&subjects[0], 3.0, 99);
//! let window = Snippet::from_record(&live)?;
//! let detection = detector.classify(&window)?;
//! assert!(!detection.is_alert(), "the wearer's own ECG should pass");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use amulet_sim;
pub use dsp;
pub use ml;
pub use physio_sim;
pub use sift;
pub use wiot;
