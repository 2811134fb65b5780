//! Applications for the simulated Amulet.
//!
//! * [`sift_app`] — the paper's detector as a three-state QM machine,
//! * [`heartrate`] — a simple heart-rate display app, demonstrating the
//!   platform's multi-application deployment (several apps react to the
//!   same sensor events without threads or isolation violations),
//! * [`watchdog`] — a stream-liveness watchdog raising a distinct
//!   alert when a sensor stream goes silent.

pub mod heartrate;
pub mod sift_app;
pub mod watchdog;

pub use heartrate::HeartRateApp;
pub use sift_app::SiftApp;
pub use watchdog::WatchdogApp;
