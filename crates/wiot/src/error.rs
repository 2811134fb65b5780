use crate::device::Stream;
use std::error::Error;
use std::fmt;

/// Error type for the WIoT environment simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WiotError {
    /// A scenario was configured inconsistently.
    InvalidScenario {
        /// Violated constraint.
        reason: &'static str,
    },
    /// A sensor stream stopped delivering data for longer than the
    /// base-station watchdog tolerates while the watchdog was
    /// configured as strict.
    StreamStalled {
        /// The silent stream.
        stream: Stream,
        /// How long the stream has been silent, ms.
        silent_ms: u64,
    },
    /// An error from the platform simulation.
    Amulet(amulet_sim::AmuletError),
    /// An error from the SIFT pipeline.
    Sift(sift::SiftError),
}

impl fmt::Display for WiotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WiotError::InvalidScenario { reason } => write!(f, "invalid scenario: {reason}"),
            WiotError::StreamStalled { stream, silent_ms } => {
                write!(f, "{stream} stream stalled: silent for {silent_ms} ms")
            }
            WiotError::Amulet(e) => write!(f, "platform error: {e}"),
            WiotError::Sift(e) => write!(f, "sift error: {e}"),
        }
    }
}

impl Error for WiotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WiotError::Amulet(e) => Some(e),
            WiotError::Sift(e) => Some(e),
            _ => None,
        }
    }
}

impl From<amulet_sim::AmuletError> for WiotError {
    fn from(e: amulet_sim::AmuletError) -> Self {
        WiotError::Amulet(e)
    }
}

impl From<sift::SiftError> for WiotError {
    fn from(e: sift::SiftError) -> Self {
        WiotError::Sift(e)
    }
}

impl From<ml::MlError> for WiotError {
    fn from(e: ml::MlError) -> Self {
        WiotError::Sift(sift::SiftError::Ml(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_source() {
        let e = WiotError::from(sift::SiftError::NoDonors);
        assert!(e.source().is_some());
        let e = WiotError::from(amulet_sim::AmuletError::BatteryExhausted);
        assert!(e.to_string().contains("battery"));
        assert!(WiotError::InvalidScenario { reason: "x" }
            .source()
            .is_none());
    }

    #[test]
    fn transport_fault_variants_display() {
        let e = WiotError::StreamStalled {
            stream: Stream::Abp,
            silent_ms: 5000,
        };
        assert!(e.to_string().contains("abp"));
        assert!(e.to_string().contains("5000"));
    }
}
